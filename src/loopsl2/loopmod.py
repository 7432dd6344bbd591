"""Exact model of the cyclic module for the loop algebra of sl(2) that is
freely generated over the lowering currents f_k, with the raising and
Cartan currents annihilating the generator.

Basis monomials are nondecreasing integer tuples (g1, ..., gn) standing for
f_{g1}...f_{gn}.v; the empty tuple is the generator v itself.  All
coefficients are exact rationals (plain ints are accepted and preserved).
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import combinations

from .terms import Terms, add_term

Monomial = tuple
Word = tuple  # of (kind, index) pairs, kind in {"e", "h", "f"}

DEFAULT_ORACLE_BOUND = 12


def monomial(exps) -> Monomial:
    """Canonical (sorted nondecreasing) monomial from any exponent iterable."""
    return tuple(sorted(exps))


class ModuleElement(Terms):
    """Finite rational linear combination of basis monomials.

    The term map is canonical: keys are nondecreasing tuples, no stored
    coefficient is zero.  Instances are treated as immutable.
    """

    __slots__ = ()

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            word = "".join(f"f({g})" for g in m) or "1"
            bits.append(f"{self.terms[m]}*{word}.v")
        return " + ".join(bits)


def make_element(pairs) -> ModuleElement:
    """Canonicalize a list of (exponent-sequence, coefficient) pairs."""
    out = {}
    for exps, coeff in pairs:
        add_term(out, monomial(exps), coeff)
    return ModuleElement(out)


def generator() -> ModuleElement:
    return ModuleElement({(): 1})


def zero() -> ModuleElement:
    return ModuleElement()


def layer_decompose(x: ModuleElement) -> dict:
    """Split by monomial length; the zero element gives the empty map."""
    parts = {}
    for m, c in x.terms.items():
        parts.setdefault(len(m), {})[m] = c
    return {n: ModuleElement(t) for n, t in sorted(parts.items())}


def homogeneous_layer(x: ModuleElement) -> int:
    """Layer of a layer-homogeneous nonzero element."""
    layers = {len(m) for m in x.terms}
    if not layers:
        raise ValueError("zero element has no layer")
    if len(layers) > 1:
        raise ValueError(f"element mixes layers {sorted(layers)}")
    return layers.pop()


def graded_degree(x: ModuleElement) -> int:
    """Total degree of a degree-homogeneous nonzero element."""
    degs = {sum(m) for m in x.terms}
    if not degs:
        raise ValueError("zero element has no degree")
    if len(degs) > 1:
        raise ValueError(f"element mixes degrees {sorted(degs)}")
    return degs.pop()


# ---------------------------------------------------------------------------
# Generator actions.  On a basis monomial (g1 <= ... <= gn):
#
#   f_k:  append exponent k
#   h_k:  -2 * sum over positions i of the monomial with gi replaced by gi+k
#   e_k:  -2 * sum over position pairs i<j of the monomial with gi, gj
#         removed and gi+gj+k appended
# ---------------------------------------------------------------------------


def _insorted(m: Monomial, val: int) -> Monomial:
    lst = list(m)
    insort(lst, val)
    return tuple(lst)


def _act_f_terms(k: int, terms: dict) -> dict:
    return {_insorted(m, k): c for m, c in terms.items()}


def _act_h_terms(k: int, terms: dict) -> dict:
    out = {}
    get = out.get
    for m, c in terms.items():
        c2 = -2 * c
        for i in range(len(m)):
            key = _insorted(m[:i] + m[i + 1:], m[i] + k)
            new = get(key, 0) + c2
            if new:
                out[key] = new
            elif key in out:
                del out[key]
    return out


def _act_e_terms(k: int, terms: dict) -> dict:
    out = {}
    get = out.get
    for m, c in terms.items():
        c2 = -2 * c
        for i, j in combinations(range(len(m)), 2):
            rest = m[:i] + m[i + 1:j] + m[j + 1:]
            key = _insorted(rest, m[i] + m[j] + k)
            new = get(key, 0) + c2
            if new:
                out[key] = new
            elif key in out:
                del out[key]
    return out


def act_f(k: int, x: ModuleElement) -> ModuleElement:
    return ModuleElement(_act_f_terms(k, x.terms))


def act_h(k: int, x: ModuleElement) -> ModuleElement:
    return ModuleElement(_act_h_terms(k, x.terms))


def act_e(k: int, x: ModuleElement) -> ModuleElement:
    return ModuleElement(_act_e_terms(k, x.terms))


_ACT = {"f": act_f, "h": act_h, "e": act_e}
_ACT_TERMS = {"f": _act_f_terms, "h": _act_h_terms, "e": _act_e_terms}


def act_word(word, x: ModuleElement) -> ModuleElement:
    """Apply a word of generators, rightmost letter first."""
    for kind, k in reversed(tuple(word)):
        x = _ACT[kind](k, x)
    return x


# ---------------------------------------------------------------------------
# Independent oracle: normal ordering in the enveloping algebra.
#
# Letters are (rank, index) with ranks f=0 < h=1 < e=2; a normal word is a
# tuple of letters sorted ascending.  The only rewriting inputs are the
# bracket constants
#
#   e_k f_l = f_l e_k + h_{k+l}
#   h_k f_l = f_l h_k - 2 f_{k+l}
#   e_k h_l = h_l e_k - 2 e_{k+l}
#
# together with commutativity inside each of the three current families,
# and finally E.v = H.v = 0.  No use is made of the closed action formulas
# above, so agreement of the two routes is a genuine cross-check.
# ---------------------------------------------------------------------------

_RANK = {"f": 0, "h": 1, "e": 2}

_BRACKET = {
    (2, 0): (1, 1),    # [e_k, f_l] = h_{k+l}
    (1, 0): (-2, 0),   # [h_k, f_l] = -2 f_{k+l}
    (2, 1): (-2, 2),   # [e_k, h_l] = -2 e_{k+l}
}

_PUSH_CACHE: dict = {}


def _push(letter, nword):
    """Normal order letter . nword for an already normal nword."""
    key = (letter, nword)
    hit = _PUSH_CACHE.get(key)
    if hit is not None:
        return hit
    if not nword or letter <= nword[0]:
        res = {(letter,) + nword: 1}
    else:
        head, rest = nword[0], nword[1:]
        res = {}
        for w, c in _push(letter, rest).items():
            # head is minimal, so re-inserting it only crosses letters of
            # its own (abelian) family
            lst = list(w)
            insort(lst, head)
            res[tuple(lst)] = res.get(tuple(lst), 0) + c
        br = _BRACKET.get((letter[0], head[0]))
        if br is not None:
            coeff, rank = br
            merged = (rank, letter[1] + head[1])
            for w, c in _push(merged, rest).items():
                new = res.get(w, 0) + coeff * c
                if new:
                    res[w] = new
                elif w in res:
                    del res[w]
    _PUSH_CACHE[key] = res
    return res


_ATTACH_CACHE: dict = {}


def _attach_pure(nword, mono: Monomial) -> dict:
    """Surviving monomial terms of (normal word) . f_mono . v.

    Folds the word onto the monomial with _push and keeps what the
    generator does not kill.  Cached; callers must not mutate the result.
    """
    key = (nword, mono)
    hit = _ATTACH_CACHE.get(key)
    if hit is not None:
        return hit
    if all(rank == 0 for rank, _ in nword):
        res = {tuple(sorted(tuple(i for _, i in nword) + mono)): 1}
    else:
        state = {_fword(mono): 1}
        for letter in reversed(nword):
            nxt = {}
            get = nxt.get
            for w, cw in state.items():
                for w2, c2 in _push(letter, w).items():
                    new = get(w2, 0) + cw * c2
                    if new:
                        nxt[w2] = new
                    elif w2 in nxt:
                        del nxt[w2]
            state = nxt
        res = _project_normal(state)
    _ATTACH_CACHE[key] = res
    return res


def _fword(m: Monomial):
    return tuple((0, g) for g in m)


_MONO_OF_WORD: dict = {}


def _monomial_of(w) -> Monomial | None:
    """Monomial named by a pure lowering word, None if e or h letters remain."""
    hit = _MONO_OF_WORD.get(w, False)
    if hit is not False:
        return hit
    mono = tuple(idx for _, idx in w) if all(rank == 0 for rank, _ in w) else None
    _MONO_OF_WORD[w] = mono
    return mono


def _project_normal(state: dict) -> dict:
    """Evaluate normal-ordered words on the generator: E and H kill it."""
    out = {}
    for w, c in state.items():
        mono = _monomial_of(w)
        if mono is not None:
            add_term(out, mono, c)
    return out


def pbw_oracle(word, x: ModuleElement, max_letters: int = DEFAULT_ORACLE_BOUND) -> ModuleElement:
    """Re-derive act_word through bracket rewriting; test oracle only."""
    word = tuple(word)
    out = {}
    for m, cm in x.terms.items():
        if len(word) + len(m) > max_letters:
            raise ValueError(
                f"oracle bound exceeded: {len(word)} letters on a layer-{len(m)} "
                f"monomial (limit {max_letters} total)")
        state = {_fword(m): cm}
        for kind, k in reversed(word):
            letter = (_RANK[kind], k)
            nxt = {}
            for w, cw in state.items():
                for w2, c2 in _push(letter, w).items():
                    add_term(nxt, w2, cw * c2)
            state = nxt
        for mono, c in _project_normal(state).items():
            add_term(out, mono, c)
    return ModuleElement(out)


# ---------------------------------------------------------------------------
# Formal singularity certificate.
#
# For a layer-homogeneous element of layer n >= 2, collect the e_k image
# with k left formal: the pair (i, j) of a monomial contributes -2 times
# its coefficient to the key (monomial with positions i, j removed,
# gi + gj).  Substituting any integer k sends key (mu, s) to the monomial
# mu with s+k inserted, which recovers act_e(k, .) exactly.
#
# Distinct keys land on distinct monomials once s + k exceeds every entry
# of every mu, so the certificate vanishes if and only if act_e(k, .)
# vanishes for every integer k.
# ---------------------------------------------------------------------------


class FormalEElement(Terms):
    """Certificate terms keyed by (reduced monomial, formal exponent base)."""

    __slots__ = ()

    def specialize(self, k: int) -> ModuleElement:
        """The element act_e(k, x) encoded by this certificate."""
        out = {}
        for (mu, s), c in self.terms.items():
            add_term(out, _insorted(mu, s + k), c)
        return ModuleElement(out)

    def __repr__(self):
        if not self.terms:
            return "FormalEElement(0)"
        bits = [f"({mu},{s}): {c}" for (mu, s), c in sorted(self.terms.items())]
        return "FormalEElement{" + ", ".join(bits) + "}"


def formal_e(x: ModuleElement) -> FormalEElement:
    """Exact certificate for the e-action with the index left formal.

    Requires a layer-homogeneous input; layers 0 and 1 give the empty
    certificate.
    """
    if x.is_zero():
        return FormalEElement()
    n = homogeneous_layer(x)
    if n <= 1:
        return FormalEElement()
    out = {}
    for m, c in x.terms.items():
        c2 = -2 * c
        for i, j in combinations(range(n), 2):
            rest = m[:i] + m[i + 1:j] + m[j + 1:]
            add_term(out, (rest, m[i] + m[j]), c2)
    return FormalEElement(out)


def witness_index(cert: FormalEElement):
    """An integer k with specialize(k) nonzero, for a nonempty certificate.

    Large enough that s+k clears every reduced-monomial entry, making the
    key-to-monomial map injective.
    """
    if cert.is_zero():
        return None
    mu_entries = [g for (mu, _s) in cert.terms for g in mu]
    if not mu_entries:
        return 0
    return max(mu_entries) - min(s for (_mu, s) in cert.terms) + 1


def is_singular(x: ModuleElement) -> bool:
    """True when every raising current e_k annihilates the element."""
    return all(formal_e(comp).is_zero() for comp in layer_decompose(x).values())
