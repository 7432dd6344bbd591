"""Exact model of the cyclic module for the loop algebra of sl(2) that is
freely generated over the lowering currents f_k, with the raising and
Cartan currents annihilating the generator.

Basis monomials are nondecreasing integer tuples (g1, ..., gn) standing for
f_{g1}...f_{gn}.v; the empty tuple is the generator v itself.  All
coefficients are exact rationals (plain ints are accepted and preserved).
"""

from __future__ import annotations

from bisect import insort
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
#
# Dead words.  Pushing a letter onto a normal word consumes a letter of the
# word only through a bracket, where the pushed letter has the higher rank:
# an e letter is never consumed, and an h letter only by an arriving e,
# into an e.  So a word holding an h or e letter keeps one under every
# later push from the left and evaluates to zero on the generator.  Folds
# onto f_mono.v therefore drop such words after every push.
# ---------------------------------------------------------------------------

_RANK = {"f": 0, "h": 1, "e": 2}

_BRACKET = {
    (2, 0): (1, 1),    # [e_k, f_l] = h_{k+l}
    (1, 0): (-2, 0),   # [h_k, f_l] = -2 f_{k+l}
    (2, 1): (-2, 2),   # [e_k, h_l] = -2 e_{k+l}
}


class OracleTables:
    """Interned normal words and the rows built on them, for one oracle call.

    A normal word is named by its index in ``words``, and a monomial by the
    index of its lowering word f_mono.  Images of the whole basis are kept
    in one map keyed by pair id ``m * nb + i``: monomial m in the image of
    basis monomial i, with nb the basis size.  Rows are built on first use,
    once, and freed with the object:

    - push rows ``(letter, word) -> [(word, c)]``: the letter pushed onto
      the word, normal ordered (``_push``);
    - attach rows ``word -> [(pair, c)]``: the surviving terms of
      word . f_mono . v for every basis monomial (``_attach_pure``);
    - closed rows ``(kind, k, mono) -> [(mono * nb, c)]``: the closed
      action formula of the letter on the monomial (``_ACT_TERMS``).
    """

    __slots__ = ("words", "ids", "live", "push_rows", "attach_rows",
                 "closed_rows", "basis", "nb")

    def __init__(self, basis=()):
        self.words = []         # id -> normal word
        self.ids = {}           # normal word -> id
        self.live = []          # id -> True when the word has only f letters
        self.push_rows = {}     # (rank, index) letter -> {word id: row}
        self.attach_rows = {}   # word id -> row
        self.closed_rows = {}   # (kind, index) letter -> {mono id: row}
        self.basis = [self.mono_id(m) for m in basis]
        self.nb = len(self.basis)

    def intern(self, word) -> int:
        wid = self.ids.get(word)
        if wid is None:
            wid = self.ids[word] = len(self.words)
            self.words.append(word)
            self.live.append(not word or word[-1][0] == 0)
        return wid

    def mono_id(self, mono: Monomial) -> int:
        return self.intern(tuple((0, g) for g in mono))

    def monomial(self, mid: int) -> Monomial:
        return tuple(g for _, g in self.words[mid])

    def _letter_rows(self, letter) -> dict:
        return self.push_rows.setdefault(letter, {})

    def push(self, kind: str, k: int, state: dict) -> dict:
        """Normal ordering of (kind, k) . state for a state {word id: c}."""
        letter = (_RANK[kind], k)
        return _combine(self._letter_rows(letter),
                        lambda w: _push(self, letter, w), state)

    def attach(self, state: dict) -> dict:
        """Surviving terms of state . f_mono . v for every basis monomial,
        keyed by pair id."""
        return _combine(self.attach_rows, lambda w: _attach_pure(self, w), state)

    def act(self, kind: str, k: int, images: dict) -> dict:
        """Closed action of (kind, k) on images keyed by pair id, merged from
        one closed row per monomial."""
        rows = self.closed_rows.setdefault((kind, k), {})
        act_terms, nb = _ACT_TERMS[kind], self.nb
        out = {}
        get = out.get
        for p, c in images.items():
            m, i = divmod(p, nb)
            row = rows.get(m)
            if row is None:
                terms = act_terms(k, {self.monomial(m): 1})
                row = rows[m] = [(self.mono_id(m2) * nb, c2) for m2, c2 in terms.items()]
            for q, c2 in row:
                q += i
                new = get(q, 0) + c * c2
                if new:
                    out[q] = new
                elif q in out:
                    del out[q]
        return out

    def identity(self) -> dict:
        """The basis itself, keyed by pair id."""
        return {m * self.nb + i: 1 for i, m in enumerate(self.basis)}

    def split(self, images: dict) -> list:
        """Images keyed by pair id as one map {mono id: c} per basis monomial."""
        out = [{} for _ in self.basis]
        for p, c in images.items():
            m, i = divmod(p, self.nb)
            out[i][m] = c
        return out


def _combine(rows: dict, build, state: dict) -> dict:
    """Sum of c * rows[w] over the state {w: c}; build(w) makes a missing
    row and stores it in rows."""
    out = {}
    get = out.get
    for w, c in state.items():
        row = rows.get(w)
        if row is None:
            row = build(w)
        for w2, c2 in row:
            new = get(w2, 0) + c * c2
            if new:
                out[w2] = new
            elif w2 in out:
                del out[w2]
    return out


def _push(tables: OracleTables, letter, wid: int) -> list:
    """Normal order letter . word for the normal word with id wid, as a row
    [(word id, c)]; stored in the tables."""
    rows = tables._letter_rows(letter)
    row = rows.get(wid)
    if row is not None:
        return row
    nword = tables.words[wid]
    if not nword or letter <= nword[0]:
        row = [(tables.intern((letter,) + nword), 1)]
    else:
        head, rest = nword[0], tables.intern(nword[1:])
        res = {}
        # head is minimal, so re-inserting it only crosses letters of its
        # own (abelian) family; distinct words stay distinct
        for w, c in _push(tables, letter, rest):
            res[tables.intern(_insorted(tables.words[w], head))] = c
        br = _BRACKET.get((letter[0], head[0]))
        if br is not None:
            coeff, rank = br
            for w, c in _push(tables, (rank, letter[1] + head[1]), rest):
                add_term(res, w, coeff * c)
        row = list(res.items())
    rows[wid] = row
    return row


def _attach_pure(tables: OracleTables, wid: int) -> list:
    """Attach row of the normal word with id wid over the tables' basis.

    Pushes the word's first letter onto the attach row of the rest of the
    word, keeping only live words; stored in the tables.
    """
    row = tables.attach_rows.get(wid)
    if row is not None:
        return row
    word = tables.words[wid]
    nb = tables.nb
    if not word:
        row = [(m * nb + i, 1) for i, m in enumerate(tables.basis)]
    else:
        rows, live = tables._letter_rows(word[0]), tables.live
        out = {}
        for p, c in _attach_pure(tables, tables.intern(word[1:])):
            m, i = divmod(p, nb)
            push_row = rows.get(m)
            if push_row is None:
                push_row = _push(tables, word[0], m)
            for w, c2 in push_row:
                if live[w]:
                    add_term(out, w * nb + i, c * c2)
        row = list(out.items())
    tables.attach_rows[wid] = row
    return row


def pbw_oracle(word, x: ModuleElement, max_letters: int = DEFAULT_ORACLE_BOUND) -> ModuleElement:
    """Re-derive act_word through bracket rewriting; test oracle only."""
    word = tuple(word)
    tables = OracleTables()
    out = {}
    for m, cm in x.terms.items():
        if len(word) + len(m) > max_letters:
            raise ValueError(
                f"oracle bound exceeded: {len(word)} letters on a layer-{len(m)} "
                f"monomial (limit {max_letters} total)")
        state = {tables.mono_id(m): cm}
        for kind, k in reversed(word):
            state = {w: c for w, c in tables.push(kind, k, state).items()
                     if tables.live[w]}
        for w, c in state.items():
            add_term(out, tables.monomial(w), c)
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
