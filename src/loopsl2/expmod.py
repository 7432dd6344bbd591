"""Modules attached to exponential-sum functions: the one-variable quotients
of the layers, the induced modules sitting above them, and the
classification checks for the irreducible subquotients.

An ExpFunction is a finite multiset of nonzero rational scalars alpha_i;
the function itself is k -> -2 * sum(alpha_i^k).  The empty multiset is the
zero function.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .loopmod import ModuleElement, act_e, act_f, act_h, homogeneous_layer
from .realization import TLaurent, eval_eta, graded_image_period, theta
from .terms import Terms, add_term


class ExpFunction:
    """Multiset of nonzero rational scalars defining k -> -2 sum alpha_i^k."""

    __slots__ = ("roots",)

    def __init__(self, roots=()):
        rs = tuple(sorted(Fraction(r) for r in roots))
        if any(r == 0 for r in rs):
            raise ValueError("scalars must be nonzero")
        self.roots = rs

    @property
    def n(self) -> int:
        return len(self.roots)

    def value(self, k: int) -> Fraction:
        return Fraction(-2) * sum(r ** k for r in self.roots)

    def __eq__(self, other):
        return isinstance(other, ExpFunction) and self.roots == other.roots

    def __hash__(self):
        return hash(self.roots)

    def __repr__(self):
        return f"ExpFunction({list(map(str, self.roots))})"


def phi_eval(phi: ExpFunction, k: int) -> Fraction:
    return phi.value(k)


# PolyModElement: elements of the image algebra, plain Laurent polynomials in t.
PolyModElement = TLaurent


def polymod_act_h(phi: ExpFunction, k: int, x: TLaurent) -> TLaurent:
    """Cartan current h_k acting by multiplication with phi(k) t^k."""
    c = phi.value(k)
    if not c:
        return TLaurent()
    return TLaurent({l + k: c * cl for l, cl in x.terms.items()})


def image_period(phi: ExpFunction) -> int:
    """Least positive degree with a nonzero component; 0 for the zero function."""
    if phi.n == 0:
        return 0
    return graded_image_period(phi.roots)


def quotient_map(phi: ExpFunction, x: ModuleElement) -> TLaurent:
    """Projection of a layer element onto the image algebra: realize as a
    symmetric function, then evaluate z_i -> alpha_i t."""
    if x.is_zero():
        return TLaurent()
    n = homogeneous_layer(x)
    if n != phi.n:
        raise ValueError(f"layer {n} does not match {phi.n} scalars")
    if n == 0:
        return TLaurent({0: x.terms[()]})
    return eval_eta(phi.roots, theta(x))


def component_dim(phi: ExpFunction, dmin: int, dmax: int) -> list:
    """Graded dimensions of the image algebra over a degree window.

    Every component is spanned by a single power of t, so each entry is 0
    or 1.
    """
    if dmin > dmax:
        raise ValueError(f"empty degree range [{dmin}, {dmax}]")
    if phi.n == 0:
        return [(d, 1 if d == 0 else 0) for d in range(dmin, dmax + 1)]
    m = image_period(phi)
    return [(d, 1 if d % m == 0 else 0) for d in range(dmin, dmax + 1)]


def cyclicity_check(phi: ExpFunction, x: TLaurent,
                    k_lo: int = -6, k_hi: int = 6,
                    d_lo: int = -6, d_hi: int = 6) -> bool:
    """Evidence that the Cartan orbit of a nonzero homogeneous element spans
    every nonzero component of the image algebra inside the degree window."""
    if x.is_zero():
        raise ValueError("need a nonzero element")
    if len(x.terms) != 1:
        raise ValueError("need a homogeneous (single-degree) element")
    start = next(iter(x.terms))
    if phi.n == 0:
        targets = {d for d in range(d_lo, d_hi + 1) if d == 0}
        return targets <= {start}
    m = image_period(phi)
    targets = {d for d in range(d_lo, d_hi + 1) if d % m == 0}
    moves = [k for k in range(k_lo, k_hi + 1) if k and phi.value(k) != 0]
    pad = 2 * max(abs(k_lo), abs(k_hi))
    lo, hi = d_lo - pad, d_hi + pad
    reached = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for d in frontier:
            for k in moves:
                e = d + k
                if lo <= e <= hi and e not in reached:
                    reached.add(e)
                    nxt.append(e)
        frontier = nxt
    return targets <= reached


def are_isomorphic(phi: ExpFunction, psi: ExpFunction):
    """Isomorphism test for the attached modules: the two multisets must
    differ by a single nonzero scaling.  Returns (flag, scaling or None)."""
    a, b = phi.roots, psi.roots
    if len(a) != len(b):
        return False, None
    if not a:
        return True, Fraction(1)
    for cand in sorted({ai / b[0] for ai in a}):
        if cand and tuple(sorted(cand * bi for bi in b)) == a:
            return True, cand
    return False, None


# ---------------------------------------------------------------------------
# Induced modules: free F-module on a basis of the image algebra
# ---------------------------------------------------------------------------


class InducedElement(Terms):
    """Combination of f_{g1}...f_{gn} (x) t^l basis vectors."""

    __slots__ = ()

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (m, l) in sorted(self.terms):
            word = "".join(f"f({g})" for g in m) or "1"
            bits.append(f"{self.terms[(m, l)]}*{word}(x)t^{l}")
        return " + ".join(bits)


def make_induced(pairs) -> InducedElement:
    out = {}
    for (exps, l), coeff in pairs:
        add_term(out, (tuple(sorted(exps)), l), coeff)
    return InducedElement(out)


def induced_act(phi: ExpFunction, gen, x: InducedElement) -> InducedElement:
    """One generator acting on an induced element.

    f_k inserts an exponent; h_k does the usual -2 shifts plus phi(k) t^k on
    the right factor; e_k merges exponent pairs and hands single exponents
    to the right factor through phi.
    """
    kind, k = gen
    act = {"f": act_f, "h": act_h, "e": act_e}.get(kind)
    if act is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    by_degree = {}
    for (m, l), c in x.terms.items():
        by_degree.setdefault(l, {})[m] = c
    out = {}
    for l, terms in by_degree.items():
        for m, c in act(k, ModuleElement(terms)).terms.items():
            out[(m, l)] = c
    if kind == "h":
        cl = phi.value(k)
        if cl:
            for (m, l), c in x.terms.items():
                add_term(out, (m, l + k), cl * c)
    elif kind == "e":
        for (m, l), c in x.terms.items():
            for i in range(len(m)):
                cl = phi.value(m[i] + k)
                if cl:
                    add_term(out, (m[:i] + m[i + 1:], l + m[i] + k), cl * c)
    return InducedElement(out)


def induced_act_word(phi: ExpFunction, word, x: InducedElement) -> InducedElement:
    for gen in reversed(tuple(word)):
        x = induced_act(phi, gen, x)
    return x


def top_layer(x: InducedElement) -> TLaurent:
    """Component with no lowering factors, read as an image-algebra element."""
    return TLaurent({l: c for (m, l), c in x.terms.items() if not m})


def avoids_top_window(phi: ExpFunction, w: InducedElement,
                      k_lo: int = -6, k_hi: int = 6) -> bool:
    """Window evidence that no raising word maps w back into the top layer.

    Requires w to have zero top-layer component.  A True answer is evidence
    limited to raising indices in [k_lo, k_hi]; False comes with an actual
    witness word and is definitive.
    """
    if not top_layer(w).is_zero():
        raise ValueError("element already meets the top layer")
    by_layer = {}
    for (m, l), c in w.terms.items():
        by_layer.setdefault(len(m), {})[(m, l)] = c
    for depth, terms in sorted(by_layer.items()):
        comp = InducedElement(terms)
        for ks in combinations_with_replacement(range(k_lo, k_hi + 1), depth):
            y = comp
            for k in ks:
                y = induced_act(phi, ("e", k), y)
            if not y.is_zero():
                return False
    return True
