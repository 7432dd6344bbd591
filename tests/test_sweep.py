"""The oracle sweep: it must notice a broken route, its pruning must not
change what the normal-ordering route computes, and it must leave no state
behind in the modules."""

from itertools import combinations_with_replacement

import pytest

from loopsl2 import checks, generator, make_element, pbw_oracle
from loopsl2 import loopmod as lm
from loopsl2.checks import oracle_equivalence_failures

SMALL = dict(max_word_len=2, idx_lo=-1, idx_hi=1, max_layer=2, exp_lo=0, exp_hi=1)


def test_tampered_closed_action_is_caught(monkeypatch):
    real = lm._ACT_TERMS["h"]

    def tripled_on_one_input(k, terms):
        out = real(k, terms)
        if k == 1 and terms == {(0,): 1}:
            return {m: 3 * c for m, c in out.items()}
        return out

    monkeypatch.setitem(lm._ACT_TERMS, "h", tripled_on_one_input)
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
