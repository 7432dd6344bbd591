"""Exact linear algebra: the integer scaling of rows, and echelon, rank,
kernel_basis and reduced_row_basis against sympy on random rational
matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsl2 import linalg
from loopsl2.linalg import _to_int_rows
from loopsl2.terms import integer_scaled


class TestIntegerScaling:
    def test_ints_and_fractions_exact(self):
        assert _to_int_rows([[Fraction(1, 2), 3, Fraction(-2, 3)], [0, 4, -6]]) == \
            [[3, 18, -4], [0, 4, -6]]

    def test_denominator_is_least_common_multiple(self):
        assert integer_scaled([Fraction(1, 4), Fraction(1, 6), 2]) == ([3, 2, 24], 12)
        assert integer_scaled([]) == ([], 1)

    def test_huge_entries_stay_exact(self):
        big = 10 ** 40 + 1
        assert _to_int_rows([[Fraction(big, 3), big]]) == [[big, 3 * big]]

    @pytest.mark.parametrize("bad", [0.5, 2.0, float("nan"), "1", None])
    def test_other_kinds_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            _to_int_rows([[1, bad]])
        with pytest.raises(TypeError):
            linalg.echelon([[bad, Fraction(1, 2)]])

    def test_float_never_truncated(self):
        # int(2.5) would give 2 and a wrong rank-one row
        with pytest.raises(TypeError):
            linalg.rank([[2.5, 5], [1, 2]])


sympy = pytest.importorskip("sympy")

entry = st.one_of(st.just(0), st.integers(-4, 4),
                  st.fractions(-4, 4, max_denominator=6))


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    if len(rows) >= 2 and draw(st.booleans()):
        # a dependent row, so that deficient ranks are common
        a, b = draw(st.fractions(-3, 3, max_denominator=4)), draw(st.integers(-2, 2))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows, ncols


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r])


def from_sympy(vec):
    return [Fraction(int(x.p), int(x.q)) for x in vec]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_against_sympy(mat):
    rows, ncols = mat
    m = to_sympy(rows, ncols)
    rref, pivots = m.rref()
    rank = len(pivots)

    ech, ech_pivots = linalg.echelon(rows)
    assert ech_pivots == list(pivots)
    assert all(all(isinstance(x, int) for x in r) for r in ech)
    for row, pc in zip(ech, ech_pivots):
        assert row[pc] != 0 and not any(row[:pc])
    assert linalg.rank(rows) == rank

    expect = [tuple(from_sympy(rref.row(i))) for i in range(rank)]
    assert linalg.reduced_row_basis(rows) == expect
    assert linalg.reduced_row_basis(ech) == expect

    # both number the kernel by the free columns: 1 there, 0 at the others
    kernel = linalg.kernel_basis(rows, ncols)
    assert kernel == [from_sympy(v) for v in m.nullspace()]
    assert all(isinstance(x, Fraction) for v in kernel for x in v)
