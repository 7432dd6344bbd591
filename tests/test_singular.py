import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from loopsl2 import (
    Window,
    act_h,
    act_word,
    apply_sym,
    build_singular,
    conjecture_scan,
    discriminant,
    discriminant_image_space,
    formal_e,
    is_singular,
    layer_decompose,
    make_element,
    singular_space,
    sym_mul,
    theta,
    theta_divisibility,
    verify_span_identity,
    window_monomials,
)
from loopsl2 import linalg
from loopsl2 import singular as singular_module
from loopsl2.singular import elements_to_rows

half = Fraction(1, 2)


class TestBuildSingular:
    def test_single_entry(self):
        assert build_singular((0,)) == make_element([((1,), 1)])
        assert build_singular((4,)) == make_element([((5,), 1)])

    def test_two_entries(self):
        got = build_singular((0, 1))
        assert got == make_element([((1, 3), 1), ((2, 2), -1)])

    def test_repeated_entries_vanish(self):
        assert build_singular((0, 0)).is_zero()
        assert build_singular((2, 0, 2)).is_zero()

    def test_layer_and_degree(self):
        chi = (-1, 0, 2)
        sv = build_singular(chi)
        n = len(chi)
        assert set(len(m) for m in sv.terms) == {n}
        assert {sum(m) for m in sv.terms} == {sum(chi) + n * (n + 1) // 2}

    def test_family_is_singular(self):
        for n in (1, 2, 3):
            for chi in product(range(-2, 3), repeat=n):
                assert is_singular(build_singular(chi))

    def test_antisymmetry(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(2, 4)
            chi = tuple(rng.randint(-3, 3) for _ in range(n))
            sv = build_singular(chi)
            for tau in permutations(range(n)):
                sign = 1
                seen = [False] * n
                for i in range(n):
                    if seen[i]:
                        continue
                    ln, j = 0, i
                    while not seen[j]:
                        seen[j] = True
                        j = tau[j]
                        ln += 1
                    if ln % 2 == 0:
                        sign = -sign
                assert build_singular(tuple(chi[tau[i]] for i in range(n))) == sign * sv


class TestSpanIdentity:
    def test_degenerate_tuple(self):
        assert verify_span_identity((0, 0))

    def test_one_entry_always(self):
        for c in range(-3, 4):
            assert verify_span_identity((c,))

    def test_three_zeros(self):
        assert verify_span_identity((0, 0, 0))

    def test_window_sweep(self):
        for n in (1, 2, 3):
            for chi in product(range(-2, 3), repeat=n):
                assert verify_span_identity(chi)


class TestThetaDivisibility:
    def test_two_entry_quotient(self):
        from loopsl2 import make_sym
        assert theta_divisibility((0, 1)) == make_sym(2, [((1, 1), half)])

    def test_one_entry_quotient(self):
        from loopsl2 import make_sym
        assert theta_divisibility((0,)) == make_sym(1, [((1,), 1)])

    def test_roundtrip(self):
        for chi in ((-1, 2), (0, 1), (1, 3), (0, 1, 2)):
            quo = theta_divisibility(chi)
            n = len(chi)
            assert sym_mul(discriminant(n), quo) == theta(build_singular(chi))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            theta_divisibility((1, 1))


class TestWindows:
    def test_monomial_enumeration(self):
        w = Window(0, 4, 2, 4)
        assert window_monomials(w) == [(0, 4), (1, 3), (2, 2)]

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            Window(3, 1, 2)
        with pytest.raises(ValueError):
            Window(0, 2, 0)

    def test_no_degree_filter(self):
        w = Window(0, 1, 2)
        assert window_monomials(w) == [(0, 0), (0, 1), (1, 1)]


class TestSingularSpace:
    def test_degree_four_dimension_two(self):
        basis = singular_space(Window(0, 4, 2, 4))
        assert len(basis) == 2
        for el in basis:
            assert is_singular(el)
        monos = window_monomials(Window(0, 4, 2, 4))
        expect = [make_element([((1, 3), 1), ((2, 2), -1)]),
                  make_element([((0, 4), 1), ((1, 3), -1)])]
        assert linalg.span_equal(elements_to_rows(basis, monos),
                                 elements_to_rows(expect, monos))

    def test_small_windows_empty(self):
        assert singular_space(Window(0, 1, 2, 1)) == []
        assert singular_space(Window(2, 2, 2, 4)) == []

    def test_layer_one_everything_singular(self):
        basis = singular_space(Window(-1, 1, 1))
        assert len(basis) == 3

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            singular_space(Window(0, 1, 2, 17))

    def test_spans_all_window_singulars(self):
        # a known singular vector inside the window must lie in the span
        w = Window(0, 4, 2, 4)
        basis = singular_space(w)
        monos = window_monomials(w)
        rows = elements_to_rows(basis, monos)
        sv = build_singular((0, 1))
        assert linalg.in_row_span(rows, elements_to_rows([sv], monos)[0])

    def test_h_stability_outside_window(self):
        for el in singular_space(Window(0, 3, 2, 3)):
            for l in (-2, -1, 0, 1, 2):
                assert is_singular(act_h(l, el))


class TestDiscriminantImage:
    def test_equals_singular_space_on_example(self):
        w = Window(0, 4, 2, 4)
        image = discriminant_image_space(w, 2)
        sing = singular_space(w)
        monos = window_monomials(w)
        assert len(image) == 2
        assert linalg.span_equal(elements_to_rows(image, monos),
                                 elements_to_rows(sing, monos))

    def test_all_images_singular(self):
        for el in discriminant_image_space(Window(0, 4, 2, 4), 2):
            assert is_singular(el)

    def test_layer_one_whole_component(self):
        w = Window(-2, 2, 1)
        image = discriminant_image_space(w, 1)
        assert len(image) == len(window_monomials(w))

    def test_empty_degree(self):
        assert discriminant_image_space(Window(0, 1, 2, 1), 1) == []

    def test_default_slack_is_layer(self):
        w = Window(0, 4, 2, 4)
        assert discriminant_image_space(w) == discriminant_image_space(w, 2)


def image_by_kernel_route(w, slack=None):
    """Reference for discriminant_image_space by a second route: the kernel
    of the out-of-window block of the image rows gives the combinations of
    images that vanish outside the window; those combinations, summed in
    Fractions, span the window part of the image."""
    monos = window_monomials(w)
    n = w.n
    if slack is None:
        slack = n
    pre = Window(w.lo - slack, w.hi + slack, n,
                 None if w.degree is None else w.degree - n * (n - 1))
    images = [apply_sym(discriminant(n), make_element([(y, 1)]))
              for y in window_monomials(pre)]
    images = [im for im in images if not im.is_zero()]
    if not images:
        return []
    inside = set(monos)
    extra = sorted({m for im in images for m in im.terms if m not in inside})
    rows = elements_to_rows(images, list(monos) + extra)
    n_in = len(monos)
    out_block = [[row[n_in + j] for row in rows] for j in range(len(extra))]
    combos = (linalg.kernel_basis(out_block, len(images)) if extra
              else [[int(i == j) for j in range(len(images))] for i in range(len(images))])
    inside_vectors = []
    for combo in combos:
        vec = [sum((Fraction(combo[i]) * rows[i][c] for i in range(len(images))), Fraction(0))
               for c in range(n_in)]
        if any(vec):
            inside_vectors.append(vec)
    basis = linalg.reduced_row_basis(inside_vectors)
    return [make_element((monos[i], c) for i, c in enumerate(row) if c) for row in basis]


SLACKS = (0, 1, 2, None)

# (lo, hi, n, degrees, slacks); None as a degree is the window without a
# degree filter, None as a slack the default (the layer).  Without a degree
# filter the kernel route reduces every degree at once, which takes over
# 10 s at the layer-4 default slack, so that case is left to slacks 0..2
# here and compared slice by slice in TestDegreeSlices.
ORACLE_CASES = [
    (-2, 2, 1, (None, -2, 0, 1), SLACKS),
    (-1, 3, 2, (None, 0, 2, 4, 6), SLACKS),
    (0, 4, 2, (None, 3, 4), SLACKS),
    (-2, 3, 2, (None,), SLACKS),     # first and last monomials order the basis differently
    (-1, 3, 3, (None, 1, 3, 5, 7), SLACKS),
    (-1, 5, 4, (8,), SLACKS),
    (0, 6, 4, (11, 12), SLACKS),
    (0, 1, 4, (None,), (0, 1, 2)),
]
ORACLE_WINDOWS = [(Window(lo, hi, n, d), slack)
                  for lo, hi, n, degrees, slacks in ORACLE_CASES
                  for d in degrees for slack in slacks]


class TestImageOracle:
    @pytest.mark.parametrize("w, slack", ORACLE_WINDOWS,
                             ids=[f"n{w.n}-{w.lo}..{w.hi}-d{w.degree}-s{s}"
                                  for w, s in ORACLE_WINDOWS])
    def test_equals_kernel_route(self, w, slack):
        assert discriminant_image_space(w, slack) == image_by_kernel_route(w, slack)

    def test_cases_not_vacuous(self):
        # in every layer some compared window holds part of the image
        nonempty = {w.n for w, slack in ORACLE_WINDOWS if image_by_kernel_route(w, slack)}
        assert nonempty == {1, 2, 3, 4}


class TestDegreeSlices:
    """A window without a degree filter is searched as its degree slices.
    Row-reduced as one mixed-degree matrix, the layer-4 image below took
    half a minute."""

    def test_image_is_union_of_slices(self):
        w = Window(0, 1, 4)
        start = time.perf_counter()
        got = discriminant_image_space(w)
        elapsed = time.perf_counter() - start
        slices = [el for d in range(w.n * w.lo, w.n * w.hi + 1)
                  for el in image_by_kernel_route(Window(w.lo, w.hi, w.n, d))]
        assert got == sorted(slices, key=lambda el: min(el.terms))
        assert elapsed < 5

    @pytest.mark.parametrize("w", [Window(-1, 3, 3), Window(-2, 3, 2)], ids=str)
    def test_singular_space_is_sympy_nullspace(self, w):
        sympy = pytest.importorskip("sympy")

        def nullspace(window):
            monos = window_monomials(window)
            certs = [formal_e(make_element([(m, 1)])) for m in monos]
            keys = sorted({key for cert in certs for key in cert.terms})
            matrix = sympy.Matrix(len(keys), len(monos),
                                  lambda i, j: certs[j].terms.get(keys[i], 0))
            return [make_element((m, Fraction(int(x.p), int(x.q)))
                                 for m, x in zip(monos, vec) if x)
                    for vec in matrix.nullspace()]

        start = time.perf_counter()
        got = singular_space(w)
        elapsed = time.perf_counter() - start
        slices = [el for d in range(w.n * w.lo, w.n * w.hi + 1)
                  for el in nullspace(Window(w.lo, w.hi, w.n, d))]
        # per slice, and in the order of the whole window's kernel
        assert got == sorted(slices, key=lambda el: max(el.terms)) == nullspace(w)
        assert got
        assert elapsed < 5


class TestContainment:
    """conjecture_scan's two containment tests, on images altered by hand."""

    def test_smaller_image_fails_reverse_after_retries(self, monkeypatch):
        real = singular_module.discriminant_image_space
        monkeypatch.setattr(singular_module, "discriminant_image_space",
                            lambda w, slack: real(w, slack)[1:])
        (row,) = conjecture_scan(2, 4, 4, 0, 4, 2)
        assert row.forward_contained and not row.reverse_contained
        assert (row.dim_singular, row.dim_disc_image, row.slack) == (2, 1, 4)

    def test_image_outside_singular_space_raises(self, monkeypatch):
        real = singular_module.discriminant_image_space
        stray = make_element([((0, 4), 1)])
        monkeypatch.setattr(singular_module, "discriminant_image_space",
                            lambda w, slack: real(w, slack) + [stray])
        with pytest.raises(AssertionError, match="escaped the singular space"):
            conjecture_scan(2, 4, 4, 0, 4, 2)


class TestConjectureScan:
    def test_two_variable_window(self):
        rows = conjecture_scan(2, 2, 6, 0, 4, 2)
        assert [r.degree for r in rows] == [2, 3, 4, 5, 6]
        for r in rows:
            assert r.forward_contained and r.reverse_contained
            assert r.dim_singular == r.dim_disc_image
        assert rows[2].dim_singular == 2  # degree 4

    def test_layer_one_trivial(self):
        rows = conjecture_scan(1, -1, 1, -2, 2, 1)
        for r in rows:
            assert r.dim_singular == r.dim_disc_image
            assert r.forward_contained and r.reverse_contained

    def test_three_variables_reported(self):
        rows = conjecture_scan(3, 6, 6, 0, 4, 3)
        (row,) = rows
        assert row.forward_contained
        assert row.dim_singular >= row.dim_disc_image

    def test_empty_degree_range_rejected(self):
        with pytest.raises(ValueError):
            conjecture_scan(2, 5, 4, 0, 4, 2)

    def test_degrees_with_no_monomials(self):
        rows = conjecture_scan(2, 7, 8, 0, 1, 1)
        for r in rows:
            assert (r.dim_singular, r.dim_disc_image) == (0, 0)
            assert r.forward_contained and r.reverse_contained

    def test_window_without_degree_filter(self):
        basis = singular_space(Window(0, 2, 2))
        for el in basis:
            assert is_singular(el)
        # contains the degree-2 kernel direction f0f2 - f1^2
        monos = window_monomials(Window(0, 2, 2))
        rows = elements_to_rows(basis, monos)
        target = make_element([((0, 2), 1), ((1, 1), -1)])
        assert linalg.in_row_span(rows, elements_to_rows([target], monos)[0])


class TestSubmoduleGeneration:
    def test_words_on_singular_stay_above_layer(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(1, 3)
            chi = tuple(rng.randint(-2, 2) for _ in range(n))
            sv = build_singular(chi)
            if sv.is_zero():
                continue
            word = [(rng.choice("ehf"), rng.randint(-2, 2))
                    for _ in range(rng.randint(1, 3))]
            img = act_word(word, sv)
            assert all(layer >= n for layer in layer_decompose(img))
