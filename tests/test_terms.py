"""The shared element core, the orbit routine and the signed permutations,
with the direct n!-permutation loops kept as references."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from loopsl2 import (FormalEElement, InducedElement, LaurentElement,
                     ModuleElement, SymElement, TLaurent, apply_sym,
                     make_element, make_sym, sym_mul)
from loopsl2.singular import signed_permutations
from loopsl2.symlaurent import orbit
from loopsl2.terms import add_term

# (kind, constructor from a terms dict, two distinct basis keys)
KINDS = [
    (ModuleElement, ModuleElement, ((0, 1), (2,))),
    (FormalEElement, FormalEElement, (((0,), 1), ((), 2))),
    (SymElement, lambda t=None: SymElement(2, t), ((1, 0), (2, 2))),
    (LaurentElement, lambda t=None: LaurentElement(2, t), ((1, -1), (0, 3))),
    (TLaurent, TLaurent, (-1, 4)),
    (InducedElement, InducedElement, (((0,), 1), ((), -2))),
]


@pytest.mark.parametrize("kind, make, keys", KINDS, ids=[k[0].__name__ for k in KINDS])
def test_linear_structure(kind, make, keys):
    k1, k2 = keys
    a = make({k1: 1, k2: Fraction(1, 2)})
    b = make({k1: -1, k2: 3})
    assert a + b == make({k2: Fraction(7, 2)})
    assert (a + b).terms == {k2: Fraction(7, 2)}
    assert a - b == make({k1: 2, k2: Fraction(-5, 2)})
    assert -a == make({k1: -1, k2: Fraction(-1, 2)})
    assert 2 * a == a * 2 == make({k1: 2, k2: 1})
    assert (0 * a).is_zero() and (a - a).is_zero() and (a + -a).terms == {}
    assert not a.is_zero()
    for value in (a + b, a - b, -a, 2 * a, 0 * a):
        assert type(value) is kind
    assert a != b and a == make({k2: Fraction(1, 2), k1: 1})
    with pytest.raises(TypeError):
        hash(a)


def test_kinds_never_equal_each_other():
    zeros = [make() for _, make, _ in KINDS]
    for i, x in enumerate(zeros):
        for j, y in enumerate(zeros):
            assert (x == y) == (i == j)
            assert (x != y) == (i != j)


@pytest.mark.parametrize("kind", [SymElement, LaurentElement])
def test_variable_count_separates(kind):
    key2, key3 = (0, 0), (0, 0, 0)
    assert kind(2, {key2: 1}) != kind(3, {key3: 1})
    assert kind(2) != kind(3)
    assert kind(2) == kind(2)
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError):
            op(kind(2, {key2: 1}), kind(3, {key3: 1}))


def test_add_term_drops_cancelled_keys():
    terms = {}
    add_term(terms, "a", 2)
    add_term(terms, "b", 0)
    assert terms == {"a": 2}
    add_term(terms, "a", -2)
    assert terms == {}


def test_orbit_matches_permutation_counts():
    rng = random.Random(7)
    for _ in range(200):
        g = tuple(rng.randint(-1, 2) for _ in range(rng.randint(0, 5)))
        perms, count = orbit(g)
        assert len(set(perms)) == len(perms)
        assert Counter(dict.fromkeys(perms, count)) == Counter(permutations(g))
        assert perms == list(dict.fromkeys(permutations(g)))


def _cycle_sign(perm):
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_signed_permutations_match_cycle_parity():
    for n in range(6):
        pairs = list(signed_permutations(n))
        assert [p for p, _ in pairs] == list(permutations(range(n)))
        assert all(sign == _cycle_sign(p) for p, sign in pairs)


# The direct loops over all n! permutations, repeats included.

def reference_sym_mul(a, b):
    n = a.n
    inv = Fraction(1, factorial(n))
    out = {}
    for g, ca in a.terms.items():
        for x, cb in b.terms.items():
            c = ca * cb * inv
            for perm in permutations(x):
                idx = tuple(sorted((g[i] + perm[i] for i in range(n)), reverse=True))
                add_term(out, idx, c)
    return SymElement(n, out)


def reference_apply_sym(p, x):
    n = p.n
    inv = Fraction(1, factorial(n))
    out = {}
    for chi, cx in x.terms.items():
        for g, cp in p.terms.items():
            c = cx * cp * inv
            for perm in permutations(g):
                mono = tuple(sorted(chi[i] + perm[i] for i in range(n)))
                add_term(out, mono, c)
    return ModuleElement(out)


def _rand_sym(rng, n):
    return make_sym(n, [(tuple(rng.randint(-2, 2) for _ in range(n)),
                         Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 4))])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_products_match_reference_loops(n):
    rng = random.Random(100 + n)
    for _ in range(40):
        a, b = _rand_sym(rng, n), _rand_sym(rng, n)
        assert sym_mul(a, b) == reference_sym_mul(a, b)
        x = make_element([(tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 3))
                          for _ in range(rng.randint(1, 3))])
        assert apply_sym(a, x) == reference_apply_sym(a, x)
