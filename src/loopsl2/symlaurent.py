"""Exact arithmetic for symmetric Laurent polynomials in n variables.

The working basis is the averaged orbit sum

    m_gamma = (1/n!) * sum over permutations s of z_1^{gamma_s(1)} ... z_n^{gamma_s(n)}

indexed by nonincreasing integer tuples gamma.  Products follow the
permutation-sum rule m_gamma * m_chi = (1/n!) sum_tau m_{gamma + chi_tau},
and everything is cross-checkable against a plain Laurent-monomial
expansion kept alongside as an oracle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

from .terms import Terms, add_term


class NotSymmetricError(ValueError):
    """Raised with a witness pair of exponent vectors whose coefficients differ."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"not symmetric: coefficients differ at {witness[0]} and {witness[1]}")


class NotDivisibleError(ArithmeticError):
    pass


def sym_index(n: int, gamma) -> tuple:
    """Canonical (nonincreasing) basis index."""
    idx = tuple(sorted(gamma, reverse=True))
    if len(idx) != n:
        raise ValueError(f"index length {len(idx)} != n = {n}")
    return idx


class SymElement(Terms):
    """Rational combination of m_gamma basis elements in a fixed number of variables."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("number of variables must be positive")
        self.n = n
        super().__init__(terms)

    def _like(self, terms=None):
        return type(self)(self.n, terms)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} != {other.n}")

    def __repr__(self):
        if not self.terms:
            return f"SymElement[n={self.n}](0)"
        bits = [f"{self.terms[g]}*m{g}" for g in sorted(self.terms)]
        return " + ".join(bits)


def make_sym(n: int, pairs) -> SymElement:
    out = {}
    for gamma, coeff in pairs:
        add_term(out, sym_index(n, gamma), coeff)
    return SymElement(n, out)


def sym_one(n: int) -> SymElement:
    return SymElement(n, {(0,) * n: 1})


def orbit(g) -> tuple:
    """The distinct rearrangements of g and the number of permutations giving each.

    That number is the same for every rearrangement: the product of the
    factorials of the multiplicities of g's entries.  Rearrangements are
    listed in order of first appearance among the permutations of g.
    """
    g = tuple(g)
    count = 1
    for c in Counter(g).values():
        count *= factorial(c)
    perms = permutations(g)
    return list(perms if count == 1 else dict.fromkeys(perms)), count


def sym_mul(a: SymElement, b: SymElement) -> SymElement:
    """Product in the m basis via the permutation-sum rule."""
    a._check(b)
    n = a.n
    inv = Fraction(1, factorial(n))
    orbits = []
    for x, cb in b.terms.items():
        perms, count = orbit(x)
        orbits.append((perms, cb * count * inv))
    out = {}
    for g, ca in a.terms.items():
        for perms, cb in orbits:
            c = ca * cb
            for perm in perms:
                idx = tuple(sorted((g[i] + perm[i] for i in range(n)), reverse=True))
                add_term(out, idx, c)
    return SymElement(n, out)


def power_sum(n: int, k: int) -> SymElement:
    """p_k = z_1^k + ... + z_n^k, which is n * m_{(k,0,...,0)}."""
    return SymElement(n, {sym_index(n, (k,) + (0,) * (n - 1)): n})


def elem_sym(n: int, i: int) -> SymElement:
    """i-th elementary symmetric polynomial, C(n,i) * m_{(1^i,0^{n-i})}."""
    if not 1 <= i <= n:
        raise ValueError(f"elementary index {i} outside 1..{n}")
    return SymElement(n, {(1,) * i + (0,) * (n - i): comb(n, i)})


# ---------------------------------------------------------------------------
# Laurent-monomial expansion: the oracle ring
# ---------------------------------------------------------------------------


class LaurentElement(Terms):
    """Sparse Laurent polynomial keyed by full exponent vectors."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        self.n = n
        super().__init__(terms)

    _like = SymElement._like
    _check = SymElement._check

    def __repr__(self):
        if not self.terms:
            return f"LaurentElement[n={self.n}](0)"
        return " + ".join(f"{self.terms[v]}*z^{v}" for v in sorted(self.terms))


def laurent_monomial(n: int, vec, coeff=1) -> LaurentElement:
    return LaurentElement(n, {tuple(vec): coeff})


def laurent_mul(a: LaurentElement, b: LaurentElement) -> LaurentElement:
    a._check(b)
    out = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            add_term(out, tuple(u[i] + v[i] for i in range(a.n)), cu * cv)
    return LaurentElement(a.n, out)


def laurent_substitute_equal(p: LaurentElement, i: int, j: int) -> LaurentElement:
    """Set z_i = z_j, folding exponents of i into j."""
    out = {}
    for v, c in p.terms.items():
        w = list(v)
        w[j] += w[i]
        w[i] = 0
        add_term(out, tuple(w), c)
    return LaurentElement(p.n, out)


def expand(a: SymElement) -> LaurentElement:
    """Write each m_gamma as its averaged orbit sum of plain monomials."""
    inv = Fraction(1, factorial(a.n))
    out = {}
    for g, c in a.terms.items():
        perms, count = orbit(g)
        ci = c * count * inv
        for perm in perms:
            add_term(out, perm, ci)
    return LaurentElement(a.n, out)


def symmetrize(p: LaurentElement) -> SymElement:
    """Inverse of expand; rejects non-symmetric input with a witness pair."""
    n = p.n
    out = {}
    seen = set()
    for v in p.terms:
        rep = tuple(sorted(v, reverse=True))
        if rep in seen:
            continue
        seen.add(rep)
        perms, _ = orbit(rep)
        coeff = p.terms.get(rep, p.terms[v])
        base = rep if rep in p.terms else v
        for u in perms:
            if p.terms.get(u, 0) != coeff:
                raise NotSymmetricError((base, u))
        add_term(out, rep, coeff * len(perms))
    return SymElement(n, out)


@lru_cache(maxsize=None)
def discriminant(n: int) -> SymElement:
    """Product over i<j of (z_i - z_j)^2; the empty product for n = 1."""
    if n < 1:
        raise ValueError("need at least one variable")
    prod = LaurentElement(n, {(0,) * n: 1})
    for i in range(n):
        for j in range(i + 1, n):
            ei = tuple(1 if t == i else 0 for t in range(n))
            ej = tuple(1 if t == j else 0 for t in range(n))
            diff = LaurentElement(n, {ei: 1, ej: -1})
            prod = laurent_mul(prod, laurent_mul(diff, diff))
    return symmetrize(prod)


@lru_cache(maxsize=None)
def lambda_poly(n: int) -> SymElement:
    """The discriminant times the square of every variable.

    Equals the square of the alternating sum over permutations of
    z_1^{s(1)} ... z_n^{s(n)}, with no sign ambiguity left.
    """
    return sym_mul(SymElement(n, {(2,) * n: 1}), discriminant(n))


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------


def _min_shift(p: LaurentElement) -> tuple:
    return tuple(min(v[i] for v in p.terms) for i in range(p.n))


def _poly_divide(A: dict, B: dict, n: int) -> dict:
    """Exact division of nonnegative-exponent polynomials, lex leading terms."""
    lead_b = max(B)
    cb = B[lead_b]
    rem = dict(A)
    quo: dict = {}
    while rem:
        lead = max(rem)
        diff = tuple(lead[i] - lead_b[i] for i in range(n))
        if any(d < 0 for d in diff):
            raise NotDivisibleError("leading term not divisible")
        c = Fraction(rem[lead]) / Fraction(cb)
        quo[diff] = quo.get(diff, 0) + c
        for v, cv in B.items():
            add_term(rem, tuple(v[i] + diff[i] for i in range(n)), -c * cv)
    return quo


def divide_exact(a: SymElement, b: SymElement) -> SymElement:
    """Quotient q with sym_mul(b, q) = a, or NotDivisibleError.

    Performed in the Laurent expansion: both operands are shifted into the
    ordinary polynomial ring with each variable's least exponent cleared to
    zero (monomials are units, so this loses nothing), divided there, and
    shifted back.  Symmetry of the result is checked, not assumed.
    """
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero element")
    if a.is_zero():
        return SymElement(a.n)
    n = a.n
    A, B = expand(a), expand(b)
    sa, sb = _min_shift(A), _min_shift(B)
    A0 = {tuple(v[i] - sa[i] for i in range(n)): c for v, c in A.terms.items()}
    B0 = {tuple(v[i] - sb[i] for i in range(n)): c for v, c in B.terms.items()}
    quo = _poly_divide(A0, B0, n)
    back = tuple(sa[i] - sb[i] for i in range(n))
    q = LaurentElement(n, {tuple(v[i] + back[i] for i in range(n)): c
                           for v, c in quo.items() if c})
    return symmetrize(q)
