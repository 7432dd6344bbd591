import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsl2 import ExpFunction, TLaurent, make_element, make_sym
from loopsl2 import serialize as ser


class TestModuleElementJson:
    def test_format(self):
        x = make_element([((3, 1), Fraction(1, 2)), ((), -2)])
        data = json.loads(ser.dumps_element(x))
        assert data == {"terms": [{"exps": [], "coeff": "-2"},
                                  {"exps": [1, 3], "coeff": "1/2"}]}

    def test_roundtrip(self):
        rng = random.Random(1)
        for _ in range(25):
            x = make_element([
                (tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 4))),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(4)])
            assert ser.loads_element(ser.dumps_element(x)) == x

    def test_zero_element(self):
        assert ser.dumps_element(make_element([])) == '{"terms": []}\n'
        assert ser.loads_element('{"terms": []}').is_zero()

    def test_unsorted_input_canonicalized(self):
        x = ser.loads_element('{"terms": [{"exps": [3, 1], "coeff": "1"}]}')
        assert x == make_element([((1, 3), 1)])

    def test_malformed_rejected(self):
        for bad in ('{"terms": [{"exps": "no", "coeff": "1"}]}',
                    '{"terms": [{"exps": [1], "coeff": "x"}]}',
                    '{"terms": [{"exps": [1.5], "coeff": "1"}]}',
                    '{"nope": 1}',
                    '[]',
                    '{"terms": [1]}',
                    '{"terms": [[1, "1"]]}',
                    '{"terms": [{"exps": [true, 2], "coeff": "1"}]}'):
            with pytest.raises(ValueError):
                ser.loads_element(bad)

    def test_coefficient_limits(self):
        start = time.monotonic()
        for bad in ("1e999999999", "1E-1001", "2.5e1_001", "1" * 1001):
            with pytest.raises(ValueError, match="limit"):
                ser.loads_element('{"terms": [{"exps": [1], "coeff": "%s"}]}' % bad)
        assert time.monotonic() - start < 1
        assert ser.parse_coeff("1e1000") == 10 ** 1000
        assert ser.parse_coeff("-1.5E-1000") == Fraction(-15, 10 ** 1001)
        assert ser.parse_coeff("1" * 1000) == int("1" * 1000)

    def test_deterministic(self):
        x = make_element([((0, 2), 1), ((1, 1), 2), ((-1,), 3)])
        assert ser.dumps_element(x) == ser.dumps_element(x)


class TestSymJson:
    def test_format(self):
        p = make_sym(2, [((1, 3), Fraction(-1, 3))])
        data = json.loads(ser.dumps_sym(p))
        assert data == {"n": 2, "terms": [{"gamma": [3, 1], "coeff": "-1/3"}]}

    def test_roundtrip(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(1, 3)
            p = make_sym(n, [(tuple(rng.randint(-3, 3) for _ in range(n)),
                              Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
                             for _ in range(3)])
            assert ser.loads_sym(ser.dumps_sym(p)) == p

    def test_index_length_checked(self):
        with pytest.raises(ValueError):
            ser.loads_sym('{"n": 2, "terms": [{"gamma": [1], "coeff": "1"}]}')
        with pytest.raises(ValueError):
            ser.loads_sym('{"n": 0, "terms": []}')
        for bad in ('{"n": true, "terms": [{"gamma": [1], "coeff": "1"}]}',
                    '{"n": 2, "terms": [{"gamma": [1, false], "coeff": "1"}]}',
                    '{"n": 2, "terms": ["m"]}'):
            with pytest.raises(ValueError):
                ser.loads_sym(bad)


class TestTLaurentJson:
    def test_roundtrip(self):
        p = TLaurent({-2: Fraction(1, 7), 5: 3})
        assert ser.loads_tlaurent(ser.dumps_tlaurent(p)) == p

    def test_format(self):
        data = json.loads(ser.dumps_tlaurent(TLaurent({1: Fraction(3, 4)})))
        assert data == {"terms": [{"k": 1, "coeff": "3/4"}]}

    def test_malformed_rejected(self):
        for bad in ('{"terms": [{"k": true, "coeff": "1"}]}',
                    '{"terms": [null]}'):
            with pytest.raises(ValueError):
                ser.loads_tlaurent(bad)


class TestExpFunctionJson:
    def test_roundtrip(self):
        phi = ExpFunction([Fraction(1, 2), -3, 2])
        assert ser.loads_expfunction(ser.dumps_expfunction(phi)) == phi

    def test_zero_root_rejected(self):
        with pytest.raises(ValueError):
            ser.loads_expfunction('{"roots": ["0"]}')


coeffs = st.fractions(-50, 50, max_denominator=30).filter(bool)
exps = st.integers(-6, 6)


@st.composite
def sym_elements(draw):
    n = draw(st.integers(1, 4))
    return make_sym(n, draw(st.lists(st.tuples(st.tuples(*[exps] * n), coeffs), max_size=4)))


# (dumps, loads, values); each value goes through the text and back, and
# the text of the copy is the same bytes
ROUND_TRIPS = {
    "element": (ser.dumps_element, ser.loads_element, st.builds(
        make_element, st.lists(st.tuples(st.lists(exps, max_size=4), coeffs), max_size=4))),
    "sym": (ser.dumps_sym, ser.loads_sym, sym_elements()),
    "tlaurent": (ser.dumps_tlaurent, ser.loads_tlaurent,
                 st.builds(TLaurent, st.dictionaries(exps, coeffs, max_size=4))),
    "expfunction": (ser.dumps_expfunction, ser.loads_expfunction,
                    st.builds(ExpFunction, st.lists(coeffs, max_size=4))),
}


@pytest.mark.parametrize("kind", ROUND_TRIPS)
def test_json_round_trip(kind):
    dumps, loads, values = ROUND_TRIPS[kind]

    @settings(max_examples=50, deadline=None)
    @given(values)
    def check(x):
        text = dumps(x)
        copy = loads(text)
        assert copy == x
        assert dumps(copy) == text
    check()
