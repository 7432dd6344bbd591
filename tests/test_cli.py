import json
import time

import pytest

from loopsl2 import act_word, make_element, serialize as ser
from loopsl2 import cli
from loopsl2.cli import main, parse_word
from loopsl2.cli import (MAX_ACT_TERMS, MAX_DEGREE_SPAN, MAX_SCAN_MONOMIALS,
                         CommandError)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseWord:
    def test_basic(self):
        assert parse_word("e:0 f:3 f:1") == (("e", 0), ("f", 3), ("f", 1))

    def test_empty(self):
        assert parse_word("") == ()

    def test_negative_indices(self):
        assert parse_word("h:-2") == (("h", -2),)

    def test_malformed(self):
        for bad in ("g:1", "e", "e:x", "e;1"):
            with pytest.raises(CommandError):
                parse_word(bad)


class TestActCommand:
    def test_cartan_letter(self, tmp_path, capsys):
        src = tmp_path / "el.json"
        src.write_text(ser.dumps_element(make_element([((0,), 1)])))
        code, out, _ = run(capsys, "act", "--in", str(src), "--word", "h:2")
        assert code == 0
        assert ser.loads_element(out) == make_element([((2,), -2)])

    def test_empty_word_copies(self, tmp_path, capsys):
        x = make_element([((1, 3), 1), ((2, 2), -1)])
        src = tmp_path / "el.json"
        src.write_text(ser.dumps_element(x))
        code, out, _ = run(capsys, "act", "--in", str(src), "--word", "")
        assert code == 0
        assert out == ser.dumps_element(x)

    def test_composition(self, tmp_path, capsys):
        src = tmp_path / "el.json"
        src.write_text(ser.dumps_element(make_element([((), 1)])))
        code, out, _ = run(capsys, "act", "--in", str(src),
                           "--word", "e:0 f:3 f:1")
        assert code == 0
        assert ser.loads_element(out) == make_element([((4,), -2)])

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        src = tmp_path / "el.json"
        src.write_text("{broken")
        code, _, err = run(capsys, "act", "--in", str(src), "--word", "")
        assert code == 2
        assert "error" in err

    def test_non_object_term_exits_2(self, tmp_path, capsys):
        src = tmp_path / "el.json"
        src.write_text('{"terms": [1]}')
        for command in (("act", "--word", "f:1"), ("theta",)):
            code, _, err = run(capsys, *command, "--in", str(src))
            assert code == 2
            assert "error" in err

    def test_malformed_word_exits_2(self, tmp_path, capsys):
        src = tmp_path / "el.json"
        src.write_text(ser.dumps_element(make_element([((), 1)])))
        code, _, _ = run(capsys, "act", "--in", str(src), "--word", "q:1")
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        src, dst = tmp_path / "el.json", tmp_path / "out.json"
        src.write_text(ser.dumps_element(make_element([((), 1)])))
        code, _, _ = run(capsys, "act", "--in", str(src), "--word", "f:2",
                         "--out", str(dst))
        assert code == 0
        assert ser.loads_element(dst.read_text()) == make_element([((2,), 1)])

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        src, dst = tmp_path / "el.json", tmp_path / "missing" / "x.json"
        src.write_text(ser.dumps_element(make_element([((), 1)])))
        code, _, err = run(capsys, "act", "--in", str(src), "--word", "f:2",
                           "--out", str(dst))
        assert code == 2
        assert "cannot write" in err

    def test_huge_coefficient_exits_2_quickly(self, tmp_path, capsys):
        src = tmp_path / "el.json"
        src.write_text('{"terms": [{"exps": [1], "coeff": "1e999999999"}]}')
        start = time.monotonic()
        code, _, err = run(capsys, "act", "--in", str(src), "--word", "f:1")
        assert time.monotonic() - start < 1
        assert code == 2
        assert "decimal exponent beyond the limit of 1000" in err

    def test_term_blowup_exits_2_quickly(self, tmp_path, capsys):
        # f letters raise the generator to layer 8, then each h with a fresh
        # index multiplies the terms by 8: 8**8 terms if admitted
        src = tmp_path / "el.json"
        src.write_text(ser.dumps_element(make_element([((), 1)])))
        word = " ".join([f"h:{3 ** i}" for i in range(1, 9)]
                        + [f"f:{100 * i}" for i in range(1, 9)])
        start = time.monotonic()
        code, out, err = run(capsys, "act", "--in", str(src), "--word", word)
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert f"at most {MAX_ACT_TERMS} are accepted" in err

    @pytest.mark.parametrize("terms, word", [
        # long but cheap: the h letters keep a handful of terms
        ([((), 1)], " ".join(["h:1"] * 14 + ["f:0"] * 14)),
        # benchmark-sized (layer <= 4, <= 12 terms, <= 6 letters, where
        # 12*21*15*10 = 37,800 bounds the check): 28,490 at the last e
        ([((100 * g, 100 * g + 10, 100 * g + 30, 100 * g + 70), g + 1) for g in range(12)],
         "e:0 e:1 e:2 f:1000 f:2000 f:4000"),
    ])
    def test_admitted_words_answer(self, tmp_path, capsys, terms, word):
        x = make_element(terms)
        src = tmp_path / "el.json"
        src.write_text(ser.dumps_element(x))
        code, out, err = run(capsys, "act", "--in", str(src), "--word", word)
        assert (code, err) == (0, "")
        assert out == ser.dumps_element(act_word(parse_word(word), x))

    def test_term_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ACT_TERMS", 4)
        src = tmp_path / "el.json"
        src.write_text(ser.dumps_element(make_element([((0, 1), 1), ((2, 3), 1)])))
        # 2 terms of layer 2 times fan-out 2: exactly at the limit
        code, _, _ = run(capsys, "act", "--in", str(src), "--word", "h:1")
        assert code == 0
        # then 4 terms times 2 at the second letter
        code, _, err = run(capsys, "act", "--in", str(src), "--word", "h:1 h:1")
        assert code == 2
        assert "could make 8 terms" in err


class TestThetaCommand:
    def test_realizes_layer(self, tmp_path, capsys):
        src = tmp_path / "el.json"
        src.write_text(ser.dumps_element(make_element([((1, 3), 1)])))
        code, out, _ = run(capsys, "theta", "--in", str(src))
        assert code == 0
        assert json.loads(out) == {"n": 2, "terms": [{"gamma": [3, 1], "coeff": "1"}]}

    def test_mixed_layer_exits_2(self, tmp_path, capsys):
        src = tmp_path / "el.json"
        src.write_text(ser.dumps_element(make_element([((0,), 1), ((), 1)])))
        code, _, _ = run(capsys, "theta", "--in", str(src))
        assert code == 2


class TestSingularCommand:
    def test_builds_vector(self, capsys):
        code, out, _ = run(capsys, "singular", "--chi", "0,1")
        assert code == 0
        assert ser.loads_element(out) == make_element([((1, 3), 1), ((2, 2), -1)])

    def test_bad_chi_exits_2(self, capsys):
        code, _, _ = run(capsys, "singular", "--chi", "0,x")
        assert code == 2

    def test_too_many_entries_exits_2_quickly(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "singular", "--chi", ",".join(map(str, range(11))))
        assert time.monotonic() - start < 1
        assert code == 2
        assert out == ""
        assert "at most 9" in err


class TestScanCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "scan-conjecture", "--n", "2", "--dmin", "2",
                           "--dmax", "6", "--lo", "0", "--hi", "4", "--slack", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,d,dim_singular,dim_disc_image,forward_contained,reverse_contained,slack"
        assert len(lines) == 6
        assert lines[3] == "2,4,2,2,true,true,2"

    def test_inverted_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "scan-conjecture", "--n", "2", "--dmin", "2",
                         "--dmax", "6", "--lo", "4", "--hi", "0", "--slack", "2")
        assert code == 2

    def test_deterministic(self, capsys):
        args = ("scan-conjecture", "--n", "2", "--dmin", "3", "--dmax", "5",
                "--lo", "0", "--hi", "3", "--slack", "2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("args, message", [
        (("--n", "2", "--lo", "-1000", "--hi", "1000"),
         f"more than {MAX_SCAN_MONOMIALS} monomials"),
        (("--n", "1000000", "--lo", "0", "--hi", "0"), "is above 9"),
        (("--n", "1000000", "--lo", "0", "--hi", "0", "--slack", "0"), "is above 9"),
        (("--n", "3", "--lo", "0", "--hi", "1", "--slack", str(10**9)), "monomials"),
        (("--n", "9", "--lo", "0", "--hi", "1"), "monomials"),
        (("--n", "2", "--lo", "0", "--hi", "1", "--dmin", str(-10**9),
          "--dmax", str(10**9)), f"at most {MAX_DEGREE_SPAN} are accepted"),
    ], ids=["wide-exponents", "huge-n", "huge-n-no-slack", "huge-slack",
            "n9-default-slack", "wide-degrees"])
    def test_hostile_limits_exit_2_quickly(self, capsys, args, message):
        if "--dmin" not in args:
            args += ("--dmin", "0", "--dmax", "4")
        start = time.monotonic()
        code, out, err = run(capsys, "scan-conjecture", *args)
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert message in err

    def test_monomial_limit_is_inclusive(self, capsys, monkeypatch):
        # exponents [-5, 9] in 3 variables: C(17, 3) = 680 monomials
        monkeypatch.setattr(cli, "conjecture_scan", lambda *a: [])
        args = ("scan-conjecture", "--n", "3", "--dmin", "0", "--dmax", "12",
                "--lo", "-2", "--hi", "6")
        monkeypatch.setattr(cli, "MAX_SCAN_MONOMIALS", 680)
        assert run(capsys, *args)[0] == 0
        monkeypatch.setattr(cli, "MAX_SCAN_MONOMIALS", 679)
        code, _, err = run(capsys, *args)
        assert code == 2 and "[-5, 9] in 3 variables holds more than 679" in err


# stdout of scan-conjecture, pinned as literal text: any rewrite of the
# scan has to reproduce it byte for byte
GOLDEN_SCANS = [
    (("--n", "3", "--dmin", "0", "--dmax", "12", "--lo", "-2", "--hi", "6"), """\
n,d,dim_singular,dim_disc_image,forward_contained,reverse_contained,slack
3,0,1,1,true,true,3
3,1,1,1,true,true,3
3,2,2,2,true,true,3
3,3,3,3,true,true,3
3,4,4,4,true,true,3
3,5,4,4,true,true,3
3,6,5,5,true,true,3
3,7,4,4,true,true,3
3,8,4,4,true,true,3
3,9,3,3,true,true,3
3,10,2,2,true,true,3
3,11,1,1,true,true,3
3,12,1,1,true,true,3
"""),
    (("--n", "4", "--dmin", "6", "--dmax", "10", "--lo", "0", "--hi", "5"), """\
n,d,dim_singular,dim_disc_image,forward_contained,reverse_contained,slack
4,6,0,0,true,true,4
4,7,0,0,true,true,4
4,8,0,0,true,true,4
4,9,0,0,true,true,4
4,10,0,0,true,true,4
"""),
    (("--n", "2", "--dmin", "0", "--dmax", "8", "--lo", "-2", "--hi", "6", "--slack", "1"),
     """\
n,d,dim_singular,dim_disc_image,forward_contained,reverse_contained,slack
2,0,2,2,true,true,1
2,1,2,2,true,true,1
2,2,3,3,true,true,1
2,3,3,3,true,true,1
2,4,4,4,true,true,1
2,5,3,3,true,true,1
2,6,3,3,true,true,1
2,7,2,2,true,true,1
2,8,2,2,true,true,1
"""),
]


@pytest.mark.parametrize("args, expected", GOLDEN_SCANS,
                         ids=["n3", "n4", "n2-slack1"])
def test_scan_golden_stdout(capsys, args, expected):
    code, out, err = run(capsys, "scan-conjecture", *args)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("args", [args for args, _ in GOLDEN_SCANS] + [
    ("--n", "5", "--dmin", "10", "--dmax", "20", "--lo", "0", "--hi", "5"),
    ("--n", "5", "--dmin", "10", "--dmax", "20", "--lo", "0", "--hi", "5",
     "--slack", "7"),
    ("--n", "2", "--dmin", "1", "--dmax", str(MAX_DEGREE_SPAN), "--lo", "0", "--hi", "1"),
])
def test_admitted_scans_reach_the_scan(capsys, monkeypatch, args):
    """The golden scans, the 5-variable scans of exponents [0, 5] and the
    widest degree range pass the limits."""
    calls = []
    monkeypatch.setattr(cli, "conjecture_scan", lambda *a: calls.append(a) or [])
    code, _, err = run(capsys, "scan-conjecture", *args)
    assert (code, err, len(calls)) == (0, "", 1)


class TestDimsCommand:
    def test_alternating_column(self, capsys):
        code, out, _ = run(capsys, "exp-dims", "--roots", "1,-1",
                           "--dmin", "-4", "--dmax", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "degree,dim"
        assert [l.split(",")[1] for l in lines[1:]] == \
            ["1", "0", "1", "0", "1", "0", "1", "0", "1"]

    def test_zero_root_exits_2(self, capsys):
        code, _, _ = run(capsys, "exp-dims", "--roots", "1,0")
        assert code == 2

    def test_huge_degree_range_exits_2_quickly(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "exp-dims", "--roots", "1,-1",
                             "--dmin", "-100000000", "--dmax", "100000000")
        assert time.monotonic() - start < 1
        assert code == 2
        assert out == ""
        assert f"at most {MAX_DEGREE_SPAN}" in err

    def test_largest_degree_range_answers(self, capsys):
        code, out, err = run(capsys, "exp-dims", "--roots", "1,-1",
                             "--dmin", "1", "--dmax", str(MAX_DEGREE_SPAN))
        assert (code, err) == (0, "")
        lines = out.split("\n")
        assert len(lines) == MAX_DEGREE_SPAN + 2
        assert lines[1] == "1,0" and lines[-2] == f"{MAX_DEGREE_SPAN},1" and lines[-1] == ""
        code, _, err = run(capsys, "exp-dims", "--roots", "1,-1",
                           "--dmin", "0", "--dmax", str(MAX_DEGREE_SPAN))
        assert code == 2 and f"holds {MAX_DEGREE_SPAN + 1} degrees" in err


class TestClassifyCommand:
    def test_rational_factorization(self, capsys):
        code, out, _ = run(capsys, "classify-hom", "--n", "2", "--zeta", "3,2")
        assert code == 0
        assert json.loads(out) == {"roots": ["1", "2"]}

    def test_requires_extension_exits_1(self, capsys):
        code, _, err = run(capsys, "classify-hom", "--n", "2", "--zeta", "0,1")
        assert code == 1
        assert "requires-extension" in err

    def test_zero_top_exits_1(self, capsys):
        code, _, err = run(capsys, "classify-hom", "--n", "2", "--zeta", "1,0")
        assert code == 1

    def test_huge_exponent_exits_2_quickly(self, capsys):
        start = time.monotonic()
        code, _, err = run(capsys, "classify-hom", "--n", "1", "--zeta", "1e999999999")
        assert time.monotonic() - start < 1
        assert code == 2
        assert "bad values" in err


class TestVerifyCommand:
    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 2

    def test_actions_golden_output(self, capsys):
        code, out, err = run(capsys, "verify", "actions")
        assert (code, out, err) == (0, GOLDEN_VERIFY_ACTIONS, "")

    def test_span_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "span")
        assert code == 0
        assert "[ok] span/span-identity" in out
        assert "2/2 checks passed" in out


# stdout of `verify actions`, pinned as literal text: the oracle sweep's
# identity route and its walk fallback have to reproduce it byte for byte
GOLDEN_VERIFY_ACTIONS = """\
[ok] actions/oracle-equivalence: closed action formulas agree with enveloping-algebra normal ordering (words up to length 4, indices in [-2,2], layers up to 3)
[ok] actions/bracket-ef: [e_k, f_l] acts as h_{k+l}
[ok] actions/bracket-hf: [h_k, f_l] acts as -2 f_{k+l}
[ok] actions/bracket-he: [h_k, e_l] acts as 2 e_{k+l}
[ok] actions/layer-grading: f raises the layer, h preserves it, e lowers it; all shift the degree by their index
[ok] actions/singular-h-closure: the Cartan currents preserve singularity
[ok] actions/submodule-layering: a singular layer-n vector generates only layers >= n
[ok] actions/certificate-soundness: a nonempty formal certificate pinpoints an index where the raising action is nonzero, and specializes to it exactly
actions: 8/8 checks passed
"""
