"""Machine-checkable identity suites behind the `verify` command.

Each suite exercises the constructive statements its module is built on,
at desk scale, with exact arithmetic throughout.  Checks carry names and a
one-line description of the identity they test so a failure is directly
attributable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

from . import linalg
from .expmod import (ExpFunction, image_period, induced_act, make_induced,
                     polymod_act_h, quotient_map, top_layer)
from .loopmod import (OracleTables, act_e, act_f, act_h, act_word, formal_e,
                      is_singular, layer_decompose, make_element,
                      witness_index)
from .realization import (apply_sym, classify_hom, elem_sym_values, eval_eta,
                          graded_image_period, psi, theta, theta_inv,
                          tlaurent_monomial)
from .singular import (Window, build_singular, elements_to_rows,
                       singular_space, theta_divisibility,
                       verify_span_identity, window_monomials)
from .symlaurent import (discriminant, divide_exact, make_sym,
                         signed_permutations, sym_mul)

SUITE_NAMES = ("actions", "realization", "singular", "span", "expmod")


@dataclass
class Check:
    name: str
    description: str
    passed: bool
    detail: str = field(default="")


def _rand_monomial(rng, layer, lo, hi):
    return tuple(sorted(rng.randint(lo, hi) for _ in range(layer)))


def _rand_element(rng, layer, lo=-3, hi=3, nterms=3, homogeneous_layer=True):
    pairs = []
    for _ in range(rng.randint(1, nterms)):
        lay = layer if homogeneous_layer else rng.randint(0, layer)
        pairs.append((_rand_monomial(rng, lay, lo, hi), rng.randint(-4, 4)))
    return make_element(pairs)


def _rand_sym(rng, n, lo=-3, hi=3, nterms=3):
    pairs = [(tuple(sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True)),
              rng.randint(-4, 4))
             for _ in range(rng.randint(1, nterms))]
    return make_sym(n, pairs)


def _rand_nonzero_sym(rng, n, **kw):
    while True:
        p = _rand_sym(rng, n, **kw)
        if not p.is_zero():
            return p


def _rand_nonzero_element(rng, layer, **kw):
    while True:
        x = _rand_element(rng, layer, **kw)
        if not x.is_zero():
            return x


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def oracle_equivalence_failures(max_word_len=4, idx_lo=-2, idx_hi=2,
                                max_layer=3, exp_lo=-2, exp_hi=2, limit=5):
    """Compare the closed action formulas with normal-ordering on every word
    up to the given length over every basis monomial in the window.

    For a word w the normal-ordering route keeps state(w), the normal-ordered
    word as a combination of normal words, and attaches it to the basis:
    attach(state(w)) holds w . f_mono . v for every basis monomial.  The
    closed route keeps images(w), the closed formulas applied letter by
    letter.  Both routes are linear in the state, so images(w) =
    attach(state(w)) follows for every word by induction on its length from

    - the empty word: attach(unit) is the identity, and
    - one identity per letter l and normal word v in the support of some
      state of fewer than ``max_word_len`` letters:
      act(l, attach(v)) = attach(push(l, v)).

    Those words are found as the support closure of the empty word under
    pushes, which may hold more words than the states do; an identity that
    fails on such a word fails nothing in the walk, and costs only the walk
    below.  When every identity holds, no word fails and the result is
    ``[]``.  Otherwise ``_oracle_walk`` walks the word tree, sharing each
    word's state and images along its left extensions, and returns the
    first ``limit`` failing (word, monomial) pairs in its order.

    Both routes run on one ``OracleTables`` made for the call and dropped on
    return; it interns normal words and monomials as ints, memoizes push,
    attach and closed rows, and keys the images of the whole basis by
    (monomial, basis index) in one map, so a word is compared on every
    basis monomial at once.  Attach rows drop every word holding an h or e
    letter as soon as it appears: such a letter never leaves a word under
    pushes from the left (see loopmod), so the word is zero on the
    generator.  The states themselves keep such words, since h and e do act
    on f_mono . v.  None of this changes what is compared.
    """
    letters = [(kind, k) for kind in ("e", "h", "f") for k in range(idx_lo, idx_hi + 1)]
    basis = [m for layer in range(max_layer + 1)
             for m in combinations_with_replacement(range(exp_lo, exp_hi + 1), layer)]
    tables = OracleTables(basis)
    if _identities_hold(tables, letters, max_word_len):
        return []
    return _oracle_walk(tables, letters, basis, max_word_len, limit)


def _reachable_words(tables, letters, depth) -> list:
    """Ids of the normal words reachable from the empty word in fewer than
    ``depth`` pushes of the letters, in the order they are first reached."""
    frontier = [tables.intern(())] if depth > 0 else []
    words, seen = list(frontier), set(frontier)
    for _ in range(depth - 1):
        reached = []
        for v in frontier:
            for letter in letters:
                for w in tables.push(*letter, {v: 1}):
                    if w not in seen:
                        seen.add(w)
                        reached.append(w)
        words += reached
        frontier = reached
    return words


def _identities_hold(tables, letters, depth) -> bool:
    """The depth-0 check and act(l, attach(v)) = attach(push(l, v)) for every
    letter l and every normal word v reachable in fewer than depth pushes."""
    if tables.attach({tables.intern(()): 1}) != tables.identity():
        return False
    for v in _reachable_words(tables, letters, depth):
        state = {v: 1}
        images = tables.attach(state)
        for letter in letters:
            if tables.attach(tables.push(*letter, state)) != tables.act(*letter, images):
                return False
    return True


def _mismatches(tables, basis, word, proj, images) -> list:
    return [(word, mono) for mono, p, a in
            zip(basis, tables.split(proj), tables.split(images)) if p != a]


def _oracle_walk(tables, letters, basis, max_word_len, limit):
    unit, identity = {tables.intern(()): 1}, tables.identity()
    failures = _mismatches(tables, basis, (), tables.attach(unit), identity)
    stack = [((), identity, unit, 0)] if max_word_len > 0 else []
    while stack:
        word, images, state, depth = stack.pop()
        for letter in letters:
            new_word = (letter,) + word
            nxt = tables.push(*letter, state)
            new_images = tables.act(*letter, images)
            proj = tables.attach(nxt)
            if proj != new_images:
                failures += _mismatches(tables, basis, new_word, proj, new_images)
                if len(failures) >= limit:
                    return failures[:limit]
            if depth + 1 < max_word_len:
                stack.append((new_word, new_images, nxt, depth + 1))
    return failures[:limit]


def suite_actions() -> list:
    rng = random.Random(20240)
    checks = []

    failures = oracle_equivalence_failures()
    checks.append(Check(
        "oracle-equivalence",
        "closed action formulas agree with enveloping-algebra normal ordering "
        "(words up to length 4, indices in [-2,2], layers up to 3)",
        not failures, f"failures: {failures}" if failures else ""))

    ok_ef = ok_hf = ok_he = True
    for _ in range(60):
        k, l = rng.randint(-3, 3), rng.randint(-3, 3)
        x = _rand_element(rng, rng.randint(0, 3), homogeneous_layer=False)
        ok_ef &= act_e(k, act_f(l, x)) - act_f(l, act_e(k, x)) == act_h(k + l, x)
        ok_hf &= act_h(k, act_f(l, x)) - act_f(l, act_h(k, x)) == -2 * act_f(k + l, x)
        ok_he &= act_h(k, act_e(l, x)) - act_e(l, act_h(k, x)) == 2 * act_e(k + l, x)
    checks.append(Check("bracket-ef", "[e_k, f_l] acts as h_{k+l}", ok_ef))
    checks.append(Check("bracket-hf", "[h_k, f_l] acts as -2 f_{k+l}", ok_hf))
    checks.append(Check("bracket-he", "[h_k, e_l] acts as 2 e_{k+l}", ok_he))

    ok_grade = True
    for _ in range(40):
        n = rng.randint(0, 3)
        x = _rand_nonzero_element(rng, n)
        k = rng.randint(-3, 3)
        d = sum(next(iter(x.terms)))
        for img, dn, dd in ((act_f(k, x), 1, k), (act_h(k, x), 0, k), (act_e(k, x), -1, k)):
            for m in img.terms:
                ok_grade &= len(m) == n + dn
        # degree shift, checked on a degree-homogeneous input
        y = make_element([(next(iter(x.terms)), 1)])
        for img, dn in ((act_f(k, y), 1), (act_h(k, y), 0), (act_e(k, y), -1)):
            for m in img.terms:
                ok_grade &= sum(m) == d + k
    checks.append(Check(
        "layer-grading",
        "f raises the layer, h preserves it, e lowers it; all shift the "
        "degree by their index", ok_grade))

    ok_closure = True
    ok_layering = True
    for _ in range(25):
        n = rng.randint(1, 3)
        chi = tuple(rng.randint(-2, 2) for _ in range(n))
        sv = build_singular(chi)
        if sv.is_zero():
            continue
        for l in range(-3, 4):
            ok_closure &= is_singular(act_h(l, sv))
        word = [(rng.choice("ehf"), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
        img = act_word(word, sv)
        ok_layering &= all(layer >= n for layer in layer_decompose(img))
    checks.append(Check(
        "singular-h-closure",
        "the Cartan currents preserve singularity", ok_closure))
    checks.append(Check(
        "submodule-layering",
        "a singular layer-n vector generates only layers >= n", ok_layering))

    ok_sound = True
    for _ in range(40):
        n = rng.randint(2, 4)
        x = _rand_nonzero_element(rng, n)
        cert = formal_e(x)
        if cert.is_zero():
            continue
        k = witness_index(cert)
        ok_sound &= not act_e(k, x).is_zero()
        # and the certificate reproduces the action at sampled indices
        for kk in range(-3, 4):
            ok_sound &= cert.specialize(kk) == act_e(kk, x)
    checks.append(Check(
        "certificate-soundness",
        "a nonempty formal certificate pinpoints an index where the "
        "raising action is nonzero, and specializes to it exactly", ok_sound))
    return checks


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


def psi_reaches_basis(n, entry_lo=-2, entry_hi=2, word_lo=-6, word_hi=6) -> bool:
    """Window evidence that images of Cartan words span the m basis."""
    degrees = {sum(g) for g in
               combinations_with_replacement(range(entry_lo, entry_hi + 1), n)}
    for d in sorted(degrees):
        targets = [make_sym(n, [(g, 1)]) for g in
                   combinations_with_replacement(range(entry_lo, entry_hi + 1), n)
                   if sum(g) == d]
        images = []
        for length in range(n + 1):
            for ks in combinations_with_replacement(range(word_lo, word_hi + 1), length):
                if sum(ks) == d:
                    images.append(psi(n, ks))
        coords = sorted({g for p in images + targets for g in p.terms})
        if not linalg.span_contains(elements_to_rows(images, coords),
                                    elements_to_rows(targets, coords)):
            return False
    return True


def suite_realization() -> list:
    rng = random.Random(51)
    checks = []

    ok_triangle = True
    for _ in range(60):
        n = rng.randint(1, 3)
        x = _rand_element(rng, n)
        k = rng.randint(-3, 3)
        ok_triangle &= act_h(k, x) == apply_sym(psi(n, (k,)), x)
    checks.append(Check(
        "power-sum-triangle",
        "h_k acts on layer n exactly as -2 p_k does through the "
        "symmetric-function action", ok_triangle))

    ok_iso = ok_grade = True
    for _ in range(60):
        n = rng.randint(1, 3)
        x = _rand_nonzero_element(rng, n)
        p = _rand_sym(rng, n)
        moved = apply_sym(p, x)
        if not moved.is_zero():
            ok_iso &= theta(moved) == sym_mul(p, theta(x))
        else:
            ok_iso &= sym_mul(p, theta(x)).is_zero()
        ok_iso &= theta_inv(theta(x)) == x
        m = next(iter(x.terms))
        y = make_element([(m, 1)])
        ok_grade &= sum(next(iter(theta(y).terms))) == sum(m)
    checks.append(Check(
        "layer-iso-module-map",
        "the layer realization intertwines the module action with "
        "multiplication and inverts cleanly", ok_iso))
    checks.append(Check(
        "layer-iso-grading", "the layer realization preserves total degree",
        ok_grade))

    ok_inj = True
    for _ in range(40):
        n = rng.randint(1, 3)
        m = _rand_monomial(rng, n, -2, 2)
        x = make_element([(m, 1)])
        p = _rand_nonzero_sym(rng, n)
        ok_inj &= not apply_sym(p, x).is_zero()
    checks.append(Check(
        "cartan-orbit-injective",
        "a nonzero symmetric function never kills a nonzero homogeneous "
        "vector (integral domain)", ok_inj))

    ok_surj = all(psi_reaches_basis(n) for n in (1, 2, 3))
    checks.append(Check(
        "power-sum-surjectivity",
        "every windowed m basis element is a rational combination of "
        "Cartan-word images (n <= 3, entries in [-2,2])", ok_surj))

    ok_round = True
    for _ in range(60):
        n = rng.randint(1, 4)
        alphas = tuple(sorted(Fraction(rng.choice([x for x in range(-6, 7) if x]),
                                       rng.randint(1, 4)) for _ in range(n)))
        ok_round &= classify_hom(n, elem_sym_values(alphas)) == alphas
    checks.append(Check(
        "classify-roundtrip",
        "factoring the elementary values recovers the evaluation scalars",
        ok_round))

    ok_period = True
    for _ in range(40):
        n = rng.randint(1, 4)
        alphas = [Fraction(rng.choice([x for x in range(-5, 6) if x]),
                           rng.randint(1, 3)) for _ in range(n)]
        ok_period &= n % graded_image_period(alphas) == 0
    ok_period &= graded_image_period((1, -1)) == 2
    ok_period &= graded_image_period((1, 2)) == 1
    checks.append(Check(
        "image-period-divides",
        "the least nonzero image degree divides the number of scalars",
        ok_period))
    return checks


# ---------------------------------------------------------------------------
# singular
# ---------------------------------------------------------------------------


def suite_singular() -> list:
    checks = []

    ok_sing = ok_antisym = ok_repeat = True
    for n in range(1, 5):
        table = {}
        for chi in product(range(-3, 4), repeat=n):
            table[chi] = build_singular(chi)
            ok_sing &= is_singular(table[chi])
            if len(set(chi)) < n:
                ok_repeat &= table[chi].is_zero()
        for chi, sv in table.items():
            # compare against every permutation of chi via the table
            for tau, sign in signed_permutations(n):
                permuted = tuple(chi[tau[i]] for i in range(n))
                if table[permuted] != sign * sv:
                    ok_antisym = False
    checks.append(Check(
        "family-singular",
        "every determinant-shaped vector is singular (n <= 4, entries in [-3,3])",
        ok_sing))
    checks.append(Check(
        "family-antisymmetry",
        "permuting the defining tuple multiplies the vector by the sign",
        ok_antisym))
    checks.append(Check(
        "family-repeats-vanish",
        "a repeated entry collapses the vector to zero", ok_repeat))

    w = Window(0, 4, 2, 4)
    basis = singular_space(w)
    ok_kernel = len(basis) == 2
    expect = [make_element([((1, 3), 1), ((2, 2), -1)]),
              make_element([((0, 4), 1), ((1, 3), -1)])]
    monos = window_monomials(w)
    ok_kernel &= linalg.span_equal(elements_to_rows(basis, monos),
                                   elements_to_rows(expect, monos))
    checks.append(Check(
        "window-kernel-example",
        "the n=2, degree-4 window over [0,4] has exactly the two expected "
        "singular directions", ok_kernel))

    ok_h = True
    for n in (2, 3):
        w = Window(0, 3, n, n * (n + 1) // 2)
        for el in singular_space(w):
            for l in (-2, 0, 1, 3):
                ok_h &= is_singular(act_h(l, el))
    checks.append(Check(
        "kernel-h-stability",
        "Cartan images of window kernel vectors stay singular even when "
        "they leave the window", ok_h))
    return checks


# ---------------------------------------------------------------------------
# span
# ---------------------------------------------------------------------------


def suite_span() -> list:
    checks = []
    ok_span = True
    for n in (1, 2, 3):
        for chi in product(range(-2, 3), repeat=n):
            ok_span &= verify_span_identity(chi)
    checks.append(Check(
        "span-identity",
        "the squared-alternant action equals the signed sum of shifted "
        "singular vectors (n <= 3, entries in [-2,2])", ok_span))

    ok_div = True
    for n in (1, 2, 3):
        dn = discriminant(n)
        for chi in product(range(-2, 3), repeat=n):
            sv = build_singular(chi)
            if sv.is_zero():
                continue
            quo = theta_divisibility(chi)
            ok_div &= sym_mul(dn, quo) == theta(sv)
    checks.append(Check(
        "discriminant-quotient",
        "realized singular vectors divide exactly by the discriminant, "
        "verified by re-multiplication", ok_div))
    return checks


# ---------------------------------------------------------------------------
# expmod
# ---------------------------------------------------------------------------


def subquotient_chain_evidence(phi: ExpFunction, chi, k_lo=-3, k_hi=3,
                               max_word_len=2) -> bool:
    """Follow a singular vector through realization, exact division and
    evaluation, and confirm the composite reaches every nonzero component
    of the image algebra in the word window."""
    if phi.n != len(tuple(chi)):
        raise ValueError("scalar count must match the layer")
    sv = build_singular(chi)
    if sv.is_zero():
        raise ValueError("vanishing singular vector")
    q0 = theta(sv)
    reached = set()
    for length in range(max_word_len + 1):
        for ks in combinations_with_replacement(range(k_lo, k_hi + 1), length):
            x = act_word([("h", k) for k in ks], sv)
            if not is_singular(x):
                return False
            if x.is_zero():
                return False
            quo = divide_exact(theta(x), q0)
            value = prod((phi.value(k) for k in ks), start=Fraction(1))
            if eval_eta(phi.roots, quo) != tlaurent_monomial(sum(ks), value):
                return False
            if value:
                reached.add(sum(ks))
    m = image_period(phi)
    targets = {d for d in range(k_lo, k_hi + 1) if d % m == 0}
    return targets <= reached


def suite_expmod() -> list:
    rng = random.Random(77)
    checks = []

    ok_int = True
    for _ in range(50):
        n = rng.randint(1, 3)
        phi = ExpFunction([Fraction(rng.choice([x for x in range(-4, 5) if x]),
                                    rng.randint(1, 3)) for _ in range(n)])
        x = _rand_element(rng, n, -2, 2)
        k = rng.randint(-3, 3)
        ok_int &= quotient_map(phi, act_h(k, x)) == polymod_act_h(phi, k, quotient_map(phi, x))
    checks.append(Check(
        "quotient-intertwines",
        "the layer projection intertwines the Cartan action with "
        "multiplication by phi(k) t^k", ok_int))

    ok_brk = True
    for _ in range(40):
        phi = ExpFunction([Fraction(rng.choice([1, 2, 3, -1]), rng.randint(1, 2))
                           for _ in range(rng.randint(0, 2))])
        x = make_induced([((tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3))),
                            rng.randint(-2, 2)), rng.randint(-3, 3))])
        k, l = rng.randint(-2, 2), rng.randint(-2, 2)
        e_, f_, h_ = ("e", k), ("f", l), ("h", k + l)
        lhs = induced_act(phi, e_, induced_act(phi, f_, x)) \
            - induced_act(phi, f_, induced_act(phi, e_, x))
        ok_brk &= lhs == induced_act(phi, h_, x)
        lhs = induced_act(phi, ("h", k), induced_act(phi, f_, x)) \
            - induced_act(phi, f_, induced_act(phi, ("h", k), x))
        ok_brk &= lhs == -2 * induced_act(phi, ("f", k + l), x)
        lhs = induced_act(phi, ("h", k), induced_act(phi, ("e", l), x)) \
            - induced_act(phi, ("e", l), induced_act(phi, ("h", k), x))
        ok_brk &= lhs == 2 * induced_act(phi, ("e", k + l), x)
    checks.append(Check(
        "induced-brackets",
        "the induced action satisfies the loop-algebra bracket relations",
        ok_brk))

    phi = ExpFunction([3])
    ok_top = True
    for l in range(-3, 4):
        for k in range(-3, 4):
            one = make_induced([(((), l), 1)])
            ok_top &= induced_act(phi, ("e", k), one).is_zero()
            got = top_layer(induced_act(phi, ("h", k), one))
            ok_top &= got == polymod_act_h(phi, k, tlaurent_monomial(l))
    checks.append(Check(
        "top-layer-matches",
        "raising kills the top layer and the Cartan action there matches "
        "the image algebra", ok_top))

    from .expmod import are_isomorphic
    ok_iso = are_isomorphic(ExpFunction([2, 3]), ExpFunction([4, 6])) == (True, Fraction(1, 2))
    ok_iso &= are_isomorphic(ExpFunction([1, 4]), ExpFunction([2, 3]))[0] is False
    for _ in range(30):
        roots = [Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 3))]
        lam = Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 2]))
        a = ExpFunction(roots)
        b = ExpFunction([lam * r for r in roots])
        flag, scale = are_isomorphic(a, b)
        ok_iso &= flag and (not roots or sorted(scale * r for r in b.roots) == list(a.roots))
        ok_iso &= are_isomorphic(a, a) == (True, Fraction(1))
    checks.append(Check(
        "isomorphism-scaling",
        "attached modules are isomorphic exactly when the scalar multisets "
        "differ by one nonzero ratio", ok_iso))

    from .expmod import component_dim
    dims = dict(component_dim(ExpFunction([1, -1]), -6, 6))
    ok_dim = all(dims[d] == (1 if d % 2 == 0 else 0) for d in range(-6, 7))
    ok_dim &= all(v == 1 for _, v in component_dim(ExpFunction([1, 2]), -6, 6))
    ok_dim &= dict(component_dim(ExpFunction([]), -6, 6)) == {d: 1 if d == 0 else 0
                                                              for d in range(-6, 7)}
    checks.append(Check(
        "component-dims",
        "image-algebra components are one-dimensional on the period lattice "
        "and vanish elsewhere", ok_dim))

    ok_chain = subquotient_chain_evidence(ExpFunction([2]), (0,))
    ok_chain &= subquotient_chain_evidence(ExpFunction([1, 2]), (0, 1))
    ok_chain &= subquotient_chain_evidence(ExpFunction([1, -1]), (0, 1))
    checks.append(Check(
        "subquotient-chain",
        "a singular vector drives an exact chain from its layer onto the "
        "image algebra, hitting every windowed component", ok_chain))
    return checks


SUITES = {
    "actions": suite_actions,
    "realization": suite_realization,
    "singular": suite_singular,
    "span": suite_span,
    "expmod": suite_expmod,
}


def run_suite(name: str) -> list:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
