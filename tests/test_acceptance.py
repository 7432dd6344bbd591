"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line with its runtime; run with
`pytest tests/test_acceptance.py -v -s` to see them.  Time limits are part
of the criteria and are asserted.
"""

import random
import time
from fractions import Fraction
from itertools import permutations, product

from loopsl2 import (
    ExpFunction,
    Window,
    act_h,
    act_word,
    apply_sym,
    are_isomorphic,
    build_singular,
    classify_hom,
    component_dim,
    conjecture_scan,
    discriminant,
    discriminant_image_space,
    elem_sym_values,
    expand,
    generator,
    graded_image_period,
    induced_act,
    is_singular,
    laurent_mul,
    make_element,
    make_induced,
    make_sym,
    pbw_oracle,
    polymod_act_h,
    psi,
    quotient_map,
    singular_space,
    sym_mul,
    symmetrize,
    theta,
    theta_divisibility,
    verify_span_identity,
    window_monomials,
)
from loopsl2 import linalg
from loopsl2.checks import oracle_equivalence_failures
from loopsl2.singular import elements_to_rows


def _report(num, label, t0, limit):
    elapsed = time.monotonic() - t0
    print(f"PASS criterion {num}: {label} [{elapsed:.1f}s <= {limit}s]")
    assert elapsed <= limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_1_action_oracle_equivalence():
    t0 = time.monotonic()
    failures = oracle_equivalence_failures(
        max_word_len=4, idx_lo=-2, idx_hi=2, max_layer=3, exp_lo=-2, exp_hi=2)
    assert failures == []
    # tie in the public oracle entry point on a random subsample
    rng = random.Random(101)
    for _ in range(300):
        word = [(rng.choice("ehf"), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 4))]
        mono = tuple(sorted(rng.randint(-2, 2) for _ in range(rng.randint(0, 3))))
        x = make_element([(mono, 1)])
        assert pbw_oracle(word, x) == act_word(word, x)
    _report(1, "closed actions match enveloping-algebra normal ordering "
               "on all words of length <= 4", t0, 60)


def test_criterion_2_multiplication_against_expansion():
    t0 = time.monotonic()
    rng = random.Random(202)
    for _ in range(500):
        n = rng.randint(1, 3)
        a = make_sym(n, [(tuple(rng.randint(-3, 3) for _ in range(n)),
                          rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        b = make_sym(n, [(tuple(rng.randint(-3, 3) for _ in range(n)),
                          rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        direct = sym_mul(a, b)
        oracle = laurent_mul(expand(a), expand(b))
        assert expand(direct) == oracle
        assert direct == symmetrize(oracle)
    _report(2, "orbit-sum multiplication agrees with expand-multiply-symmetrize "
               "on 500 random pairs", t0, 30)


def test_criterion_3_cartan_power_sum_triangle():
    t0 = time.monotonic()
    rng = random.Random(303)
    for _ in range(200):
        n = rng.randint(1, 3)
        x = make_element([(tuple(rng.randint(-3, 3) for _ in range(n)),
                           rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        k = rng.randint(-3, 3)
        assert act_h(k, x) == apply_sym(psi(n, (k,)), x)
    _report(3, "the Cartan currents act through -2 times the power sums", t0, 30)


def test_criterion_4_layer_realization_intertwines():
    t0 = time.monotonic()
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(1, 3)
        x = make_element([(tuple(rng.randint(-3, 3) for _ in range(n)),
                           rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        p = make_sym(n, [(tuple(rng.randint(-3, 3) for _ in range(n)),
                          rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        moved = apply_sym(p, x)
        if moved.is_zero() or x.is_zero():
            assert x.is_zero() or sym_mul(p, theta(x)).is_zero()
        else:
            assert theta(moved) == sym_mul(p, theta(x))
        if not x.is_zero():
            for m, c in x.terms.items():
                assert theta(make_element([(m, c)])).terms == \
                    {tuple(reversed(m)): c}
                assert sum(m) == sum(next(iter(theta(make_element([(m, 1)])).terms)))
    _report(4, "the layer realization intertwines the action and preserves "
               "the grading on 200 random pairs", t0, 30)


def test_criterion_5_singular_family():
    t0 = time.monotonic()
    for n in range(1, 5):
        table = {}
        for chi in product(range(-3, 4), repeat=n):
            sv = build_singular(chi)
            table[chi] = sv
            assert is_singular(sv)
            if len(set(chi)) < n:
                assert sv.is_zero()
        for chi, sv in table.items():
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
                assert table[tuple(chi[tau[i]] for i in range(n))] == sign * sv
    _report(5, "every determinant-shaped vector with n <= 4, entries in "
               "[-3,3] is singular, antisymmetric, and vanishes on repeats",
            t0, 60)


def test_criterion_6_span_theorem():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        dn = discriminant(n)
        for chi in product(range(-2, 3), repeat=n):
            assert verify_span_identity(chi)
            sv = build_singular(chi)
            if sv.is_zero():
                continue
            quo = theta_divisibility(chi)
            assert sym_mul(dn, quo) == theta(sv)
    _report(6, "the discriminant span identity and exact divisibility hold "
               "for all n <= 3, entries in [-2,2]", t0, 60)


def test_criterion_7_conjecture_evidence():
    t0 = time.monotonic()
    rows = conjecture_scan(2, 2, 6, 0, 4, 2)
    for row in rows:
        assert row.forward_contained and row.reverse_contained
        assert row.dim_singular == row.dim_disc_image
        w = Window(0, 4, 2, row.degree)
        monos = window_monomials(w)
        sing = elements_to_rows(singular_space(w), monos)
        image = elements_to_rows(discriminant_image_space(w, 2), monos)
        assert linalg.span_equal(sing, image)
    assert rows[2].degree == 4 and rows[2].dim_singular == 2
    # larger scan reported, not gated
    for row in conjecture_scan(3, 6, 7, 0, 4, 3):
        print(f"  evidence n=3 d={row.degree}: dims "
              f"{row.dim_singular}/{row.dim_disc_image}, reverse contained: "
              f"{row.reverse_contained} (slack {row.slack})")
    _report(7, "window singular spaces coincide with the discriminant image "
               "for n=2, degrees 2..6", t0, 60)


def test_criterion_8_hom_classification():
    t0 = time.monotonic()
    rng = random.Random(808)
    for _ in range(100):
        n = rng.randint(1, 4)
        alphas = tuple(sorted(Fraction(rng.choice([x for x in range(-6, 7) if x]),
                                       rng.randint(1, 4)) for _ in range(n)))
        assert classify_hom(n, elem_sym_values(alphas)) == alphas
        assert n % graded_image_period(alphas) == 0
    assert graded_image_period([1, -1]) == 2
    assert graded_image_period([1, 2]) == 1
    _report(8, "evaluation scalars roundtrip through their elementary values "
               "and image periods divide the scalar count", t0, 10)


def test_criterion_9_exp_modules():
    t0 = time.monotonic()
    rng = random.Random(909)
    for _ in range(60):
        n = rng.randint(1, 3)
        phi = ExpFunction([Fraction(rng.choice([x for x in range(-4, 5) if x]),
                                    rng.randint(1, 3)) for _ in range(n)])
        x = make_element([(tuple(rng.randint(-2, 2) for _ in range(n)),
                           rng.randint(-3, 3)) for _ in range(2)])
        k = rng.randint(-3, 3)
        assert quotient_map(phi, act_h(k, x)) == \
            polymod_act_h(phi, k, quotient_map(phi, x))
    phi = ExpFunction([3])
    for l in range(-3, 4):
        for k in range(-3, 4):
            assert induced_act(phi, ("e", k), make_induced([(((), l), 1)])).is_zero()
    assert are_isomorphic(ExpFunction([2, 3]), ExpFunction([4, 6])) == \
        (True, Fraction(1, 2))
    assert are_isomorphic(ExpFunction([1, 4]), ExpFunction([2, 3])) == (False, None)
    dims = dict(component_dim(ExpFunction([1, -1]), -6, 6))
    assert dims == {d: 1 if d % 2 == 0 else 0 for d in range(-6, 7)}
    _report(9, "layer quotients intertwine, raising kills top layers, and "
               "isomorphism classes and dimensions come out exactly", t0, 10)


def test_criterion_10_finite_dimensions():
    t0 = time.monotonic()
    rng = random.Random(1010)
    samples = [ExpFunction([]), ExpFunction([3]), ExpFunction([1, -1]),
               ExpFunction([1, 2]), ExpFunction([1, -1, 2, -2])]
    for _ in range(20):
        samples.append(ExpFunction(
            [Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 3))
             for _ in range(rng.randint(0, 4))]))
    for phi in samples:
        for _, dim in component_dim(phi, -6, 6):
            assert dim in (0, 1)
    _report(10, "every image-algebra component over the default window is "
                "finite with dimension at most 1", t0, 5)
