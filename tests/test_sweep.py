"""The oracle sweep: it must notice a broken route, its pruning must not
change what the normal-ordering route computes, its identity route must
return what the word walk returns, and it must leave no state behind in
the modules."""

from itertools import combinations_with_replacement

import pytest

from loopsl2 import checks, generator, make_element, pbw_oracle
from loopsl2 import loopmod as lm
from loopsl2.checks import oracle_equivalence_failures

SMALL = dict(max_word_len=2, idx_lo=-1, idx_hi=1, max_layer=2, exp_lo=0, exp_hi=1)

# windows for the route comparison: the empty word alone, one letter,
# SMALL, and a deeper walk with negative exponents
WINDOWS = [
    dict(max_word_len=0, idx_lo=-1, idx_hi=1, max_layer=2, exp_lo=0, exp_hi=1),
    dict(max_word_len=1, idx_lo=0, idx_hi=0, max_layer=1, exp_lo=0, exp_hi=0),
    dict(max_word_len=1, idx_lo=-1, idx_hi=1, max_layer=2, exp_lo=0, exp_hi=1),
    SMALL,
    dict(max_word_len=3, idx_lo=0, idx_hi=1, max_layer=3, exp_lo=-1, exp_hi=0),
]


def window_letters_basis(max_word_len, idx_lo, idx_hi, max_layer, exp_lo, exp_hi):
    letters = [(kind, k) for kind in "ehf" for k in range(idx_lo, idx_hi + 1)]
    basis = [m for layer in range(max_layer + 1)
             for m in combinations_with_replacement(range(exp_lo, exp_hi + 1), layer)]
    return letters, basis


def walk(window, limit):
    letters, basis = window_letters_basis(**window)
    return checks._oracle_walk(lm.OracleTables(basis), letters, basis,
                               window["max_word_len"], limit)


def tripled_on(kind, mono):
    real = lm._ACT_TERMS[kind]

    def tampered(k, terms):
        out = real(k, terms)
        if k == 1 and terms == {mono: 1}:
            return {m: 3 * c for m, c in out.items()}
        return out
    return tampered


def identity_missing_last(tables, real=lm.OracleTables.identity):
    images = real(tables)
    images.popitem()
    return images


# one seeded bug per bracket constant, per closed action and in the
# depth-0 images: (namespace, key, wrong value)
TAMPERS = {
    "clean": None,
    "bracket-ef": (lm._BRACKET, (2, 0), (2, 1)),
    "bracket-hf": (lm._BRACKET, (1, 0), (-3, 0)),
    "bracket-eh": (lm._BRACKET, (2, 1), (-1, 2)),
    "act-f": (lm._ACT_TERMS, "f", tripled_on("f", (0,))),
    "act-h": (lm._ACT_TERMS, "h", tripled_on("h", (0,))),
    "act-e": (lm._ACT_TERMS, "e", tripled_on("e", (-1, 0))),
    "identity": (lm.OracleTables, "identity", identity_missing_last),
}


@pytest.mark.parametrize("tamper", TAMPERS)
def test_identity_route_returns_the_walk(monkeypatch, tamper):
    """Whether the identities hold or not, the sweep returns exactly what a
    direct walk returns, with the same order and the same cut at limit."""
    if TAMPERS[tamper] is not None:
        space, key, wrong = TAMPERS[tamper]
        if isinstance(space, dict):
            monkeypatch.setitem(space, key, wrong)
        else:
            monkeypatch.setattr(space, key, wrong)
    found = []
    for window in WINDOWS:
        for limit in (1, 5):
            failures = oracle_equivalence_failures(**window, limit=limit)
            assert failures == walk(window, limit), (window, limit)
            found += failures
    # every seeded bug shows somewhere on the grid, so the fallback ran
    assert (found == []) == (tamper == "clean")


def test_fast_path_skips_the_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the walk ran on a window where every identity holds")

    monkeypatch.setattr(checks, "_oracle_walk", no_walk)
    assert oracle_equivalence_failures(**SMALL) == []


@pytest.mark.parametrize("window", [
    SMALL,
    dict(max_word_len=3, idx_lo=-1, idx_hi=1, max_layer=2, exp_lo=0, exp_hi=1),
])
def test_closure_holds_every_walk_state(window):
    """Every normal word in the support of a walk state of fewer than
    max_word_len letters is among the words the identities are checked on."""
    letters, basis = window_letters_basis(**window)
    max_word_len = window["max_word_len"]
    tables = lm.OracleTables(basis)
    closure = set(checks._reachable_words(tables, letters, max_word_len))

    # the walk's states, recorded on the way (images left out: the states
    # do not depend on them)
    unit = {tables.intern(()): 1}
    supports = set(unit)
    stack = [(unit, 0)]
    while stack:
        state, depth = stack.pop()
        for letter in letters:
            nxt = tables.push(*letter, state)
            if depth + 1 < max_word_len:
                supports.update(nxt)
                stack.append((nxt, depth + 1))
    assert supports <= closure
    assert max(len(tables.words[w]) for w in supports) == max_word_len - 1


ONE_INDEX = dict(idx_lo=0, idx_hi=0, max_layer=2, exp_lo=0, exp_hi=0)


def test_word_length_zero_checks_the_empty_word_only(monkeypatch):
    """A broken bracket first shows on a one-letter word, which length 0
    leaves out and length 1 reaches; a broken depth-0 image shows at 0."""
    monkeypatch.setitem(lm._BRACKET, (2, 0), (2, 1))
    assert oracle_equivalence_failures(max_word_len=0, **ONE_INDEX) == []
    assert oracle_equivalence_failures(max_word_len=1, **ONE_INDEX) == \
        [((("e", 0),), (0, 0))]
    monkeypatch.undo()
    monkeypatch.setattr(lm.OracleTables, "identity", identity_missing_last)
    assert oracle_equivalence_failures(max_word_len=0, **ONE_INDEX) == [((), (0, 0))]


def test_no_reachable_words_at_length_zero():
    letters, basis = window_letters_basis(max_word_len=0, **ONE_INDEX)
    tables = lm.OracleTables(basis)
    assert checks._reachable_words(tables, letters, 0) == []
    assert checks._reachable_words(tables, letters, 1) == [tables.intern(())]


def test_tampered_closed_action_is_caught(monkeypatch):
    monkeypatch.setitem(lm._ACT_TERMS, "h", tripled_on("h", (0,)))
    failures = oracle_equivalence_failures(**SMALL)
    assert ((("h", 1),), (0,)) in failures


@pytest.mark.parametrize("key, wrong", [((2, 0), (2, 1)),     # [e, f] = 2h
                                        ((1, 0), (-3, 0)),    # [h, f] = -3f
                                        ((2, 1), (-1, 2))])   # [e, h] = -e
def test_tampered_bracket_is_caught(monkeypatch, key, wrong):
    monkeypatch.setitem(lm._BRACKET, key, wrong)
    assert oracle_equivalence_failures(**SMALL) != []


def test_pruned_attach_matches_unpruned_fold():
    """Attach rows drop words with an h or e letter after every push; an
    unpruned fold keeps the whole normal-ordered state and projects at the
    end.  Every normal word of length <= 4 over indices in [-1, 1], on
    every monomial of layer <= 3 with exponents in [-1, 1]."""
    basis = [m for layer in range(4) for m in combinations_with_replacement((-1, 0, 1), layer)]
    letters = [(rank, k) for rank in range(3) for k in (-1, 0, 1)]
    tables = lm.OracleTables(basis)
    kinds = "fhe"
    for length in range(5):
        for word in combinations_with_replacement(letters, length):
            pruned = tables.split(tables.attach({tables.intern(word): 1}))
            for i, mono in enumerate(basis):
                state = {tables.mono_id(mono): 1}
                for rank, k in reversed(word):
                    state = tables.push(kinds[rank], k, state)
                projected = {w: c for w, c in state.items()
                             if all(rank == 0 for rank, _ in tables.words[w])}
                assert pruned[i] == projected, (word, mono)


def test_sweep_leaves_no_module_state():
    def sizes():
        return {(mod.__name__, name): len(value)
                for mod in (lm, checks) for name, value in vars(mod).items()
                if type(value) in (dict, list)}

    before = sizes()
    assert oracle_equivalence_failures(**SMALL) == []
    assert pbw_oracle([("e", 0), ("f", 1), ("f", 3)], generator()) == \
        make_element([((4,), -2)])
    assert sizes() == before
