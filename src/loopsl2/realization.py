"""Maps tying the Cartan-current algebra and the module layers to the
symmetric Laurent polynomials: the power-sum epimorphism, the layer
isomorphism onto the regular module, evaluation maps into one-variable
Laurent polynomials, and the classification of one-dimensional quotients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, prod

from .loopmod import ModuleElement, homogeneous_layer
from .symlaurent import SymElement, orbit, power_sum, sym_mul, sym_one
from .terms import Terms, add_term, integer_scaled


class RequiresExtensionError(ValueError):
    """The data forces scalars outside the rationals; exact handling stops here."""


class TLaurent(Terms):
    """Laurent polynomial in a single variable t, exact coefficients."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, TLaurent):
            out = {}
            for k, c in self.terms.items():
                for l, d in other.terms.items():
                    add_term(out, k + l, c * d)
            return TLaurent(out)
        return super().__mul__(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{self.terms[k]}*t^{k}" for k in sorted(self.terms))


def tlaurent_monomial(k: int, coeff=1) -> TLaurent:
    return TLaurent({k: coeff}) if coeff else TLaurent()


# ---------------------------------------------------------------------------
# The epimorphism onto the symmetric functions and the layer realization
# ---------------------------------------------------------------------------


def psi(n: int, word) -> SymElement:
    """Image of the product h_{k1}...h_{km}: each letter maps to -2 p_k."""
    out = sym_one(n)
    for k in word:
        out = sym_mul(out, -2 * power_sum(n, k))
    return out


def theta(x: ModuleElement) -> SymElement:
    """Layer realization f_chi . v -> m_chi, on a layer-homogeneous element."""
    n = homogeneous_layer(x)
    if n < 1:
        raise ValueError("layer 0 carries no symmetric-function realization")
    return SymElement(n, {tuple(reversed(m)): c for m, c in x.terms.items()})


def theta_inv(p: SymElement) -> ModuleElement:
    return ModuleElement({tuple(reversed(g)): c for g, c in p.terms.items()})


def apply_sym(p: SymElement, x: ModuleElement) -> ModuleElement:
    """Module action of a symmetric function on a layer-matched element.

    m_gamma . f_chi v = (1/n!) sum over permutations s of
    f_{chi_1 + gamma_s(1)} ... f_{chi_n + gamma_s(n)} v,

    which is the product p * theta(x) carried back through the layer
    realization.
    """
    if x.is_zero():
        return ModuleElement()
    n = homogeneous_layer(x)
    if n != p.n:
        raise ValueError(f"layer {n} does not match {p.n} variables")
    return theta_inv(sym_mul(theta(x), p))


# ---------------------------------------------------------------------------
# Evaluation maps z_i -> alpha_i t and their classification
# ---------------------------------------------------------------------------


def eval_eta(alphas, p: SymElement) -> TLaurent:
    """Graded evaluation map determined by z_i -> alpha_i t."""
    alphas = tuple(Fraction(a) for a in alphas)
    if len(alphas) != p.n:
        raise ValueError(f"need {p.n} scalars, got {len(alphas)}")
    if any(a == 0 for a in alphas):
        raise ValueError("evaluation scalars must be nonzero")
    n = p.n
    inv = Fraction(1, factorial(n))
    out = {}
    for g, c in p.terms.items():
        perms, count = orbit(g)
        total = count * sum(prod(alphas[i] ** perm[i] for i in range(n))
                            for perm in perms)
        add_term(out, sum(g), c * inv * total)
    return TLaurent(out)


def elem_sym_values(alphas) -> list:
    """Values of the elementary symmetric polynomials at the given scalars."""
    coeffs = [Fraction(1)]
    for a in alphas:
        a = Fraction(a)
        coeffs = [coeffs[i] + (a * coeffs[i - 1] if i else 0)
                  for i in range(len(coeffs))] + [a * coeffs[-1]]
    return coeffs[1:]


def _divisors(m: int) -> list:
    m = abs(m)
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _rational_roots_monic(coeffs) -> list:
    """All rational roots (with multiplicity) of a monic rational polynomial.

    coeffs[i] multiplies s^(deg - i); coeffs[0] == 1 and the constant term
    must be nonzero.
    """
    roots = []
    cur = [Fraction(c) for c in coeffs]
    while len(cur) > 1:
        ints, _ = integer_scaled(cur)
        found = None
        for q in _divisors(ints[0]):
            for pnum in _divisors(ints[-1]):
                for cand in (Fraction(pnum, q), Fraction(-pnum, q)):
                    acc = Fraction(0)
                    for c in cur:
                        acc = acc * cand + c
                    if acc == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        # synthetic division by (s - found)
        nxt = [cur[0]]
        for c in cur[1:-1]:
            nxt.append(c + nxt[-1] * found)
        cur = nxt
    return roots


def classify_hom(n: int, zeta_values):
    """Scalars alpha_1..alpha_n realizing prescribed elementary values.

    Factors 1 + sum zeta_i t^i as a product of (1 + alpha_i t) over the
    rationals; a zero top value admits no homomorphism, and irrational
    factors raise RequiresExtensionError instead of being approximated.
    """
    zetas = [Fraction(z) for z in zeta_values]
    if len(zetas) != n:
        raise ValueError(f"need {n} elementary values, got {len(zetas)}")
    if zetas[-1] == 0:
        raise ValueError("no homomorphism: the top elementary value must be nonzero "
                         "(the full product of variables is invertible)")
    roots = _rational_roots_monic([Fraction(1)] + zetas)
    if len(roots) < n:
        raise RequiresExtensionError(
            f"only {len(roots)} of {n} factors split over the rationals")
    alphas = tuple(sorted(-r for r in roots))
    if elem_sym_values(alphas) != zetas:
        raise AssertionError("factorization failed to reproduce the elementary values")
    return alphas


def graded_image_period(alphas) -> int:
    """Least positive degree carrying a nonzero component of the evaluation image.

    The image is generated by the elementary images e_i(alpha) t^i together
    with the inverse of the top one, so its degree support is the subgroup
    generated by the degrees i with e_i(alpha) nonzero.
    """
    alphas = tuple(Fraction(a) for a in alphas)
    if any(a == 0 for a in alphas):
        raise ValueError("evaluation scalars must be nonzero")
    n = len(alphas)
    values = elem_sym_values(alphas)
    support = [i for i, v in enumerate(values, start=1) if v != 0]
    m = 0
    for i in support:
        m = gcd(m, i)
    if n % m != 0:
        raise AssertionError("image period must divide the variable count")
    # cross-check against power sums over a window
    for k in range(-2 * n, 2 * n + 1):
        if k and sum(a ** k for a in alphas) != 0 and k % m != 0:
            raise AssertionError(f"nonzero power-sum image at degree {k} not a multiple of {m}")
    return m
