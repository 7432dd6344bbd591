import json
import random
from fractions import Fraction

import pytest

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
