import json
import time

import pytest

from loopsl2 import make_element, serialize as ser
from loopsl2.cli import main, parse_word
from loopsl2.cli import CommandError


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

    def test_span_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "span")
        assert code == 0
        assert "[ok] span/span-identity" in out
        assert "2/2 checks passed" in out
