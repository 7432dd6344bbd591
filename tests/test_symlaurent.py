import random
import time
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsl2 import (
    LaurentElement,
    NotDivisibleError,
    NotSymmetricError,
    SymElement,
    discriminant,
    divide_exact,
    elem_sym,
    expand,
    lambda_poly,
    laurent_mul,
    make_sym,
    power_sum,
    sym_index,
    sym_mul,
    sym_one,
    symmetrize,
)
from loopsl2.symlaurent import laurent_substitute_equal
from loopsl2.terms import add_term

half = Fraction(1, 2)


def rand_sym(rng, n, lo=-3, hi=3, nterms=3):
    return make_sym(n, [(tuple(rng.randint(lo, hi) for _ in range(n)),
                         rng.randint(-4, 4)) for _ in range(nterms)])


class TestIndexAndConstruction:
    def test_index_canonical_nonincreasing(self):
        assert sym_index(3, (0, 2, 1)) == (2, 1, 0)
        with pytest.raises(ValueError):
            sym_index(2, (1, 2, 3))

    def test_make_sym_normalizes(self):
        assert make_sym(2, [((0, 1), 1)]) == make_sym(2, [((1, 0), 1)])

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            sym_mul(sym_one(2), sym_one(3))


class TestMultiplication:
    def test_square_of_average(self):
        # expanding ((z1+z2)/2)^2 by hand
        m10 = make_sym(2, [((1, 0), 1)])
        assert sym_mul(m10, m10) == make_sym(2, [((2, 0), half), ((1, 1), half)])

    def test_all_zeros_is_identity(self):
        rng = random.Random(2)
        for n in (1, 2, 3):
            a = rand_sym(rng, n)
            assert sym_mul(a, sym_one(n)) == a

    def test_singleton_orbit(self):
        m11 = make_sym(2, [((1, 1), 1)])
        assert sym_mul(m11, m11) == make_sym(2, [((2, 2), 1)])

    def test_ring_axioms_randomized(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 3)
            a, b, c = (rand_sym(rng, n, -2, 2, 2) for _ in range(3))
            assert sym_mul(a, b) == sym_mul(b, a)
            assert sym_mul(sym_mul(a, b), c) == sym_mul(a, sym_mul(b, c))
            assert sym_mul(a, b + c) == sym_mul(a, b) + sym_mul(a, c)

    def test_degrees_add(self):
        a = make_sym(2, [((3, 1), 1)])
        b = make_sym(2, [((-1, 2), 1)])
        prod = sym_mul(a, b)
        assert {sum(g) for g in prod.terms} == {5}

    def test_integral_domain_sampled(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 3)
            a, b = rand_sym(rng, n, -2, 2, 2), rand_sym(rng, n, -2, 2, 2)
            if a.is_zero() or b.is_zero():
                continue
            assert not sym_mul(a, b).is_zero()


class TestIntegerProduct:
    """sym_mul scales both operands to integers and divides once per key."""

    def test_fraction_and_int_coefficients_exact(self):
        a = SymElement(2, {(1, 0): 3, (0, 0): Fraction(1, 2)})
        b = SymElement(2, {(0, 0): Fraction(2, 3)})
        assert sym_mul(a, b).terms == {(1, 0): 2, (0, 0): Fraction(1, 3)}
        assert all(type(c) is Fraction for c in sym_mul(a, b).terms.values())

    @pytest.mark.parametrize("bad", [0.5, 2.0])
    def test_float_coefficient_raises_type_error(self, bad):
        floaty = SymElement(2, {(1, 0): bad})
        with pytest.raises(TypeError):
            sym_mul(floaty, sym_one(2))
        with pytest.raises(TypeError):
            sym_mul(sym_one(2), floaty)
        with pytest.raises(TypeError):
            divide_exact(floaty, sym_one(2))
        with pytest.raises(TypeError):
            divide_exact(sym_one(2), floaty)

    def test_cancelled_key_is_not_stored(self):
        # (z - 1/2)(z + 1/2) = z^2 - 1/4: the z terms cancel
        a = SymElement(1, {(1,): 1, (0,): Fraction(-1, 2)})
        b = SymElement(1, {(1,): 1, (0,): Fraction(1, 2)})
        assert sym_mul(a, b).terms == {(2,): 1, (0,): Fraction(-1, 4)}


@st.composite
def sym_pairs(draw):
    n = draw(st.integers(1, 4))
    index = st.tuples(*[st.integers(-2, 2)] * n)
    coeff = st.fractions(-3, 3, max_denominator=12).filter(bool)

    def element():
        return make_sym(n, draw(st.lists(st.tuples(index, coeff), max_size=3)))
    return element(), element()


@settings(max_examples=120, deadline=None)
@given(sym_pairs())
def test_product_matches_laurent_expansion(pair):
    a, b = pair
    assert expand(sym_mul(a, b)) == laurent_mul(expand(a), expand(b))


@st.composite
def quotient_and_divisor(draw):
    """A symmetric element and a nonzero divisor (distinct indices, so no
    term cancels), every coefficient with a denominator above 1."""
    n = draw(st.integers(1, 4))
    index = st.tuples(*[st.integers(-2, 2)] * n)
    coeff = st.fractions(-3, 3, max_denominator=12).filter(lambda c: c.denominator > 1)

    def element(min_size, max_size):
        terms = st.lists(st.tuples(index, coeff), min_size=min_size, max_size=max_size,
                         unique_by=lambda term: tuple(sorted(term[0])))
        return make_sym(n, draw(terms))
    return element(0, 3), element(1, 2)


@settings(max_examples=50, deadline=None)
@given(quotient_and_divisor())
def test_division_undoes_product(pair):
    a, b = pair
    assert divide_exact(sym_mul(a, b), b) == a


@st.composite
def dividend_and_divisor(draw):
    """Any dividend and nonzero divisor, divisible or not, with wider
    exponents than the products above."""
    n = draw(st.integers(1, 4))
    index = st.tuples(*[st.integers(-4, 4)] * n)
    coeff = st.fractions(-5, 5, max_denominator=5).filter(bool)
    terms = st.lists(st.tuples(index, coeff), min_size=1, max_size=4)
    b = draw(terms.map(lambda ts: make_sym(n, ts)).filter(lambda el: not el.is_zero()))
    a = make_sym(n, draw(terms))
    if draw(st.booleans()):
        a = sym_mul(a, b)
    return a, b


@settings(max_examples=100, deadline=None)
@given(dividend_and_divisor())
def test_division_is_exact_or_refused(pair):
    a, b = pair
    start = time.perf_counter()
    try:
        q = divide_exact(a, b)
    except NotDivisibleError:
        q = None
    assert time.perf_counter() - start < 1
    if q is not None:
        assert sym_mul(b, q) == a


class TestGenerators:
    def test_power_sum_values(self):
        assert power_sum(2, 1) == make_sym(2, [((1, 0), 2)])
        assert power_sum(1, -3) == make_sym(1, [((-3,), 1)])
        assert power_sum(3, 0) == make_sym(3, [((0, 0, 0), 3)])

    def test_elem_sym_values(self):
        assert elem_sym(2, 1) == make_sym(2, [((1, 0), 2)])
        assert elem_sym(3, 3) == make_sym(3, [((1, 1, 1), 1)])
        assert elem_sym(3, 2) == make_sym(3, [((1, 1, 0), 3)])
        with pytest.raises(ValueError):
            elem_sym(3, 4)
        with pytest.raises(ValueError):
            elem_sym(3, 0)

    def test_top_elementary_is_invertible(self):
        for n in (1, 2, 3):
            en = elem_sym(n, n)
            inv = make_sym(n, [((-1,) * n, 1)])
            assert sym_mul(en, inv) == sym_one(n)

    def test_newton_girard_recurrence(self):
        # i*e_i = sum_{j=1..i} (-1)^(j-1) e_{i-j} p_j
        for n in range(1, 5):
            for i in range(1, n + 1):
                rhs = SymElement(n)
                for j in range(1, i + 1):
                    ej = elem_sym(n, i - j) if i - j >= 1 else sym_one(n)
                    term = sym_mul(ej, power_sum(n, j))
                    rhs = rhs + (term if j % 2 == 1 else -term)
                assert i * elem_sym(n, i) == rhs


class TestDiscriminant:
    def test_one_variable_empty_product(self):
        assert discriminant(1) == sym_one(1)

    def test_two_variables(self):
        assert discriminant(2) == make_sym(2, [((2, 0), 2), ((1, 1), -2)])

    def test_three_variables_against_expansion(self):
        """The product of the (z_i - z_j)^2 multiplied out as Laurent
        polynomials, for one to five variables."""
        for n in range(1, 6):
            prod = LaurentElement(n, {(0,) * n: 1})
            for i in range(n):
                for j in range(i + 1, n):
                    ei = tuple(1 if t == i else 0 for t in range(n))
                    ej = tuple(1 if t == j else 0 for t in range(n))
                    diff = LaurentElement(n, {ei: 1, ej: -1})
                    prod = laurent_mul(prod, laurent_mul(diff, diff))
            assert expand(discriminant(n)) == prod

    def test_degree(self):
        for n in (2, 3, 4):
            assert {sum(g) for g in discriminant(n).terms} == {n * (n - 1)}

    def test_vanishes_on_equal_variables(self):
        for n in (2, 3, 4):
            p = expand(discriminant(n))
            for i in range(n):
                for j in range(i + 1, n):
                    assert laurent_substitute_equal(p, i, j).is_zero()

    def test_no_variables_rejected(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                discriminant(n)
            with pytest.raises(ValueError):
                lambda_poly(n)

    @pytest.mark.parametrize("build", [discriminant, lambda_poly])
    def test_returned_terms_are_not_shared(self, build):
        """Each call builds a new element: altering the terms of one result
        leaves the next call's value as it was."""
        first = build(3)
        expected = dict(first.terms)
        first.terms[next(iter(first.terms))] = 99
        first.terms[(9, 9, 9)] = 1
        assert build(3).terms == expected


class TestLambdaPoly:
    def test_two_variables(self):
        assert lambda_poly(2) == make_sym(2, [((4, 2), 2), ((3, 3), -2)])

    def test_one_variable(self):
        assert lambda_poly(1) == make_sym(1, [((2,), 1)])

    def test_equals_squared_alternant(self):
        from itertools import permutations
        for n in range(1, 6):
            phi = LaurentElement(n)
            for perm in permutations(range(1, n + 1)):
                sign = 1
                seen = [False] * n
                for i in range(n):
                    if seen[i]:
                        continue
                    ln, j = 0, i
                    while not seen[j]:
                        seen[j] = True
                        j = perm[j] - 1
                        ln += 1
                    if ln % 2 == 0:
                        sign = -sign
                phi = phi + LaurentElement(n, {perm: sign})
            assert symmetrize(laurent_mul(phi, phi)) == lambda_poly(n)


class TestExpand:
    def test_averaged_orbit(self):
        got = expand(make_sym(2, [((1, 0), 1)]))
        assert got == LaurentElement(2, {(1, 0): half, (0, 1): half})

    def test_full_stabilizer(self):
        assert expand(make_sym(2, [((1, 1), 1)])) == LaurentElement(2, {(1, 1): 1})

    def test_binomial_square(self):
        got = expand(make_sym(2, [((2, 0), 2), ((1, 1), -2)]))
        assert got == LaurentElement(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})

    def test_expand_is_ring_map(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 3)
            a, b = rand_sym(rng, n, -3, 3, 2), rand_sym(rng, n, -3, 3, 2)
            assert expand(sym_mul(a, b)) == laurent_mul(expand(a), expand(b))

    def test_expand_permutation_invariant(self):
        rng = random.Random(37)
        from itertools import permutations
        for _ in range(10):
            n = rng.randint(2, 3)
            p = expand(rand_sym(rng, n))
            for perm in permutations(range(n)):
                permuted = LaurentElement(n, {tuple(v[perm[i]] for i in range(n)): c
                                              for v, c in p.terms.items()})
                assert permuted == p


class TestSymmetrize:
    def test_power_sum_pair(self):
        got = symmetrize(LaurentElement(2, {(2, 0): 1, (0, 2): 1}))
        assert got == make_sym(2, [((2, 0), 2)])

    def test_rejects_asymmetric_with_witness(self):
        with pytest.raises(NotSymmetricError) as err:
            symmetrize(LaurentElement(2, {(1, 0): 1}))
        assert set(err.value.witness) == {(1, 0), (0, 1)}

    def test_mixed_orbit(self):
        got = symmetrize(LaurentElement(2, {(1, 3): 1, (3, 1): 1}))
        assert got == make_sym(2, [((3, 1), 2)])

    def test_inverts_expand(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = rand_sym(rng, n)
            assert symmetrize(expand(a)) == a


class TestDivideExact:
    def test_singular_vector_quotient(self):
        a = make_sym(2, [((3, 1), 1), ((2, 2), -1)])
        assert divide_exact(a, discriminant(2)) == make_sym(2, [((1, 1), half)])

    def test_divide_by_one(self):
        rng = random.Random(43)
        for n in (1, 2, 3):
            a = rand_sym(rng, n)
            assert divide_exact(a, sym_one(n)) == a

    def test_low_degree_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            divide_exact(make_sym(2, [((1, 0), 1)]), discriminant(2))

    def test_roundtrip_randomized(self):
        rng = random.Random(47)
        for _ in range(25):
            n = rng.randint(1, 3)
            q = rand_sym(rng, n, -2, 2, 2)
            b = rand_sym(rng, n, -2, 2, 2)
            if b.is_zero():
                continue
            a = sym_mul(b, q)
            assert divide_exact(a, b) == q

    def test_zero_dividend(self):
        assert divide_exact(SymElement(2), discriminant(2)).is_zero()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(sym_one(2), SymElement(2))

    def test_laurent_shifts_handled(self):
        # divisor has negative exponents; quotient picks up the inverse shift
        b = make_sym(2, [((-1, -1), 1)])
        a = sym_one(2)
        assert divide_exact(a, b) == make_sym(2, [((1, 1), 1)])


def divide_by_fraction_route(a, b):
    """Reference for divide_exact by the route it replaced: each m_gamma
    summed over all n! permutations in Fractions, both operands shifted to
    nonnegative exponents, and lex leading-term division with the leading
    term found by max() and rational quotient coefficients."""
    n = a.n
    if a.is_zero():
        return SymElement(n)

    def shifted(el):
        out = {}
        for g, c in el.terms.items():
            share = Fraction(c) / factorial(n)
            for perm in permutations(g):
                add_term(out, perm, share)
        low = [min(v[i] for v in out) for i in range(n)]
        return {tuple(x - m for x, m in zip(v, low)): c for v, c in out.items()}, low

    (rem, sa), (B, sb) = shifted(a), shifted(b)
    lead_b = max(B)
    quo = {}
    while rem:
        lead = max(rem)
        diff = tuple(x - y for x, y in zip(lead, lead_b))
        if min(diff) < 0:
            raise NotDivisibleError("leading term not divisible")
        c = rem[lead] / B[lead_b]
        quo[diff] = c
        for v, cv in B.items():
            add_term(rem, tuple(x + y for x, y in zip(v, diff)), -c * cv)
    back = [x - y for x, y in zip(sa, sb)]
    return symmetrize(LaurentElement(n, {tuple(x + y for x, y in zip(v, back)): c
                                         for v, c in quo.items()}))


class TestDivisionReference:
    """divide_exact runs on integers with packed exponent keys; the Fraction
    route above must give the same quotients term for term."""

    @staticmethod
    def outcome(divide, a, b):
        try:
            q = divide(a, b)
        except NotDivisibleError:
            return "not divisible"
        return [(g, type(c), c) for g, c in q.terms.items()]

    def test_matches_fraction_route(self):
        rng = random.Random(53)

        def rand_frac_sym(n):
            return make_sym(n, [(tuple(rng.randint(-2, 2) for _ in range(n)),
                                 Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                                          rng.randint(1, 5)))
                                for _ in range(rng.randint(1, 3))])

        kinds = {"quotient": 0, "not divisible": 0}
        pairs = 0
        while pairs < 1500:
            n = rng.randint(1, 4)
            a, b = rand_frac_sym(n), rand_frac_sym(n)
            if b.is_zero():
                continue
            pick = rng.random()
            if pick < 0.5:
                a = sym_mul(a, b)
            elif pick < 0.75:
                a = sym_mul(a, b) + rand_frac_sym(n)
            want = self.outcome(divide_by_fraction_route, a, b)
            assert self.outcome(divide_exact, a, b) == want, (a, b)
            kinds["not divisible" if want == "not divisible" else "quotient"] += 1
            pairs += 1
        assert min(kinds.values()) > 400

    def test_discriminant_quotients_match(self):
        from loopsl2 import build_singular, theta
        for chi in ((0, 1), (-1, 0, 2), (-2, 0, 1, 3), (2, 0, -1)):
            sv = theta(build_singular(chi))
            d = discriminant(len(chi))
            assert self.outcome(divide_exact, sv, d) == \
                self.outcome(divide_by_fraction_route, sv, d)

    def test_divisor_of_higher_degree_raises_at_once(self):
        # the divisor spans 41 exponents per variable and the dividend 40,
        # so no quotient exponent fits the degree box
        a = make_sym(4, [((40, 20, 0, 0), 1), ((0, 0, 0, 0), 3)])
        b = make_sym(4, [((41, 0, 0, 0), 1), ((0, 0, 0, 0), 1)])
        start = time.perf_counter()
        with pytest.raises(NotDivisibleError, match="higher degree"):
            divide_exact(a, b)
        assert time.perf_counter() - start < 1

    def test_quotient_exponent_above_the_box_raises(self):
        # shifted to nonnegative exponents this is e_2 / e_1 in three
        # variables: both have degree 1 in each variable, so the quotient
        # must be a constant, but the first step asks for z_2
        with pytest.raises(NotDivisibleError, match="degree box"):
            divide_exact(make_sym(3, [((3, 3, 2), 1)]), make_sym(3, [((2, 1, 1), 1)]))
        # without the upper bound a remainder exponent outgrows the packing
        # base and carries into the digit of the variable before it; on this
        # pair the division then ends with a non-symmetric "quotient"
        with pytest.raises(NotDivisibleError):
            divide_exact(make_sym(2, [((2, 0), 1), ((2, 1), 5), ((2, 2), 1)]),
                         make_sym(2, [((2, 1), 1)]))

    def test_integer_coefficient_not_divisible(self):
        # (z + 1) / (2z + 1): the leading coefficient 1 is not a multiple of 2
        with pytest.raises(NotDivisibleError):
            divide_exact(make_sym(1, [((1,), 1), ((0,), 1)]),
                         make_sym(1, [((1,), 2), ((0,), 1)]))

    def test_content_and_denominators_restored(self):
        # (6z + 12) / 3: the divisor's content goes back into the quotient
        assert divide_exact(make_sym(1, [((1,), 6), ((0,), 12)]),
                            make_sym(1, [((0,), 3)])).terms == {(1,): 2, (0,): 4}
        # (2z/3 + 4/3) / (1/3): both denominators cleared and restored
        q = divide_exact(make_sym(1, [((1,), Fraction(2, 3)), ((0,), Fraction(4, 3))]),
                         make_sym(1, [((0,), Fraction(1, 3))]))
        assert q.terms == {(1,): 2, (0,): 4}
        assert all(type(c) is Fraction for c in q.terms.values())
