"""Singular vectors: the determinant-shaped family, the discriminant span
identity, and window-restricted kernel searches producing evidence about
whether those exhaust all singular vectors.

Every search here is truncated to a finite exponent window and says so in
its output; the module components themselves are infinite-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from . import linalg
from .loopmod import (ModuleElement, formal_e, is_singular, make_element,
                      monomial)
from .realization import apply_sym, theta
from .symlaurent import SymElement, discriminant, divide_exact, lambda_poly, sym_mul

def signed_permutations(n: int):
    """Each permutation of range(n), in lexicographic order, with its sign.

    In that order the first entry i of a permutation makes i inversions and
    the rest run through the permutations of the remaining entries in
    lexicographic order again, so the signs follow without inspecting the
    permutations themselves.
    """
    signs = [1]
    for m in range(2, n + 1):
        signs = [-s if i % 2 else s for i in range(m) for s in signs]
    return zip(permutations(range(n)), signs)


def build_singular(chi) -> ModuleElement:
    """Alternating sum over permutations s of f_{chi_1+s(1)} ... f_{chi_n+s(n)} v.

    Vanishes whenever chi has a repeated entry, and reacts to permutations
    of chi by the sign.
    """
    chi = tuple(chi)
    n = len(chi)
    if n < 1:
        raise ValueError("need at least one entry")
    return make_element((monomial(chi[i] + perm[i] + 1 for i in range(n)), sign)
                        for perm, sign in signed_permutations(n))


def verify_span_identity(chi) -> bool:
    """Check that the squared-alternant times f_chi v is the signed sum of
    shifted singular vectors, both sides computed independently."""
    chi = tuple(chi)
    n = len(chi)
    lhs = apply_sym(lambda_poly(n), make_element([(chi, 1)]))
    rhs = ModuleElement()
    for perm, sign in signed_permutations(n):
        shifted = tuple(chi[i] + perm[i] + 1 for i in range(n))
        rhs = rhs + sign * build_singular(shifted)
    return lhs == rhs


def theta_divisibility(chi) -> SymElement:
    """Quotient of the realized singular vector by the discriminant.

    A division failure would contradict the span theorem and is raised as
    is; callers treat it as a fatal bug.
    """
    sv = build_singular(chi)
    if sv.is_zero():
        raise ValueError("zero singular vector has no quotient")
    n = len(tuple(chi))
    return divide_exact(theta(sv), discriminant(n))


# ---------------------------------------------------------------------------
# Window searches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Finite monomial window: layer n, exponents in [lo, hi], optional degree."""

    lo: int
    hi: int
    n: int
    degree: int | None = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty exponent range [{self.lo}, {self.hi}]")
        if self.n < 1:
            raise ValueError("layer must be positive")


def window_monomials(w: Window) -> list:
    """All admissible monomials, in lexicographic order."""
    monos = combinations_with_replacement(range(w.lo, w.hi + 1), w.n)
    if w.degree is None:
        return list(monos)
    return [m for m in monos if sum(m) == w.degree]


def _elements_to_rows(elements, monos):
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for el in elements:
        row = [Fraction(0)] * len(monos)
        for m, c in el.terms.items():
            row[index[m]] = Fraction(c)
        rows.append(row)
    return rows


def _rows_to_elements(rows, monos):
    out = []
    for row in rows:
        el = make_element((monos[i], c) for i, c in enumerate(row) if c)
        if not el.is_zero():
            out.append(el)
    return out


def singular_space(w: Window) -> list:
    """Basis of all window-supported singular vectors of the given layer
    (and degree, when fixed), via the exact kernel of the formal e-action."""
    monos = window_monomials(w)
    if not monos:
        raise ValueError("empty window")
    if w.n <= 1:
        return [make_element([(m, 1)]) for m in monos]
    keys = sorted({key
                   for m in monos
                   for key in formal_e(make_element([(m, 1)])).terms})
    key_index = {k: i for i, k in enumerate(keys)}
    rows = [[0] * len(monos) for _ in keys]
    for col, m in enumerate(monos):
        for key, c in formal_e(make_element([(m, 1)])).terms.items():
            rows[key_index[key]][col] = c
    kernel = linalg.kernel_basis(rows, len(monos))
    return _rows_to_elements(kernel, monos)


def discriminant_image_space(w: Window, slack: int | None = None) -> list:
    """Basis of the window-supported part of the discriminant-times-layer
    space, generated from preimages drawn from the slack-enlarged window."""
    monos = window_monomials(w)
    if not monos:
        raise ValueError("empty window")
    n = w.n
    if slack is None:
        slack = n
    dn = discriminant(n)
    pre = Window(w.lo - slack, w.hi + slack, n,
                 None if w.degree is None else w.degree - n * (n - 1))
    images = [apply_sym(dn, make_element([(y, 1)])) for y in window_monomials(pre)]
    images = [im for im in images if not im.is_zero()]
    if not images:
        return []
    inside = set(monos)
    extra = sorted({m for im in images for m in im.terms if m not in inside})
    coords = list(monos) + extra
    img_rows = _elements_to_rows(images, coords)
    n_in = len(monos)
    # combinations whose out-of-window coordinates vanish
    out_matrix = [[row[n_in + j] for row in img_rows] for j in range(len(extra))]
    combos = (linalg.kernel_basis(out_matrix, len(images)) if extra
              else [[Fraction(1 if i == j else 0) for j in range(len(images))]
                    for i in range(len(images))])
    inside_vectors = []
    for combo in combos:
        vec = [sum((combo[i] * img_rows[i][c] for i in range(len(images))), Fraction(0))
               for c in range(n_in)]
        if any(vec):
            inside_vectors.append(vec)
    basis_rows = linalg.reduced_row_basis(inside_vectors)
    return _rows_to_elements(basis_rows, monos)


@dataclass(frozen=True)
class ScanRow:
    n: int
    degree: int
    dim_singular: int
    dim_disc_image: int
    forward_contained: bool
    reverse_contained: bool
    slack: int


def conjecture_scan(n: int, dmin: int, dmax: int, lo: int, hi: int,
                    slack: int, max_extra_slack: int = 2) -> list:
    """Per-degree comparison of the window singular space with the window
    part of the discriminant image.

    Forward containment (image inside singular) is a theorem and is
    enforced; the reverse direction is truncation-sensitive evidence, so a
    failure first retries with enlarged slack and is then reported with the
    slack actually used.
    """
    if dmin > dmax:
        raise ValueError(f"empty degree range [{dmin}, {dmax}]")
    rows = []
    for d in range(dmin, dmax + 1):
        w = Window(lo, hi, n, d)
        monos = window_monomials(w)
        if not monos:
            rows.append(ScanRow(n, d, 0, 0, True, True, slack))
            continue
        sing = singular_space(w)
        sing_rows = _elements_to_rows(sing, monos)
        used = slack
        while True:
            image = discriminant_image_space(w, used)
            img_rows = _elements_to_rows(image, monos)
            forward = linalg.span_contains(sing_rows, img_rows)
            if not forward:
                raise AssertionError(
                    f"discriminant image escaped the singular space at n={n}, d={d}; "
                    "this contradicts a proven identity and marks a bug")
            for el in image:
                if not is_singular(el):
                    raise AssertionError(
                        f"non-singular vector in the discriminant image at n={n}, d={d}")
            reverse = linalg.span_contains(img_rows, sing_rows)
            if reverse or used >= slack + max_extra_slack:
                break
            used += 1
        rows.append(ScanRow(n, d, len(sing), len(image), forward, reverse, used))
    return rows
