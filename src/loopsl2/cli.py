"""Command-line front end.

Subcommands: act, theta, singular, verify, scan-conjecture, exp-dims,
classify-hom.  Elements travel as JSON (see serialize), reports as CSV.
Exit codes: 0 success, 1 verification or domain failure, 2 usage/parse
error.  Identical flags always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from . import checks, serialize
from .expmod import ExpFunction, component_dim
from .loopmod import act_word
from .realization import RequiresExtensionError, classify_hom, theta
from .singular import build_singular, conjecture_scan

USAGE_ERROR, VERIFY_ERROR = 2, 1

# build_singular sums over all n! permutations: 9 entries take a few
# seconds and up to tens of MB of JSON, 11 entries would not finish.
MAX_CHI_ENTRIES = 9

# exp-dims writes one CSV row per degree: 10**6 degrees take about a second,
# a range of 2*10**8 would not finish.
MAX_DEGREE_SPAN = 10**6


class CommandError(Exception):
    def __init__(self, message, code=USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}") from exc


def parse_word(text: str):
    """Space-separated kind:index letters, e.g. "e:0 f:3 f:1"; the rightmost
    letter acts first."""
    word = []
    for token in text.split():
        kind, sep, idx = token.partition(":")
        if kind not in ("e", "h", "f") or not sep:
            raise CommandError(f"bad word letter {token!r} (want kind:index)")
        try:
            word.append((kind, int(idx)))
        except ValueError as exc:
            raise CommandError(f"bad index in {token!r}") from exc
    return tuple(word)


def _parse_ints(text: str, what: str):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise CommandError(f"bad {what} {text!r}: entries must be integers") from exc


def _parse_fractions(text: str, what: str):
    try:
        return tuple(serialize.parse_coeff(tok.strip())
                     for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise CommandError(f"bad {what} {text!r}") from exc


def cmd_act(args) -> int:
    word = parse_word(args.word)
    try:
        element = serialize.loads_element(_read(args.infile))
    except ValueError as exc:
        raise CommandError(f"bad element JSON: {exc}") from exc
    _write(args.out, serialize.dumps_element(act_word(word, element)))
    return 0


def cmd_theta(args) -> int:
    try:
        element = serialize.loads_element(_read(args.infile))
        image = theta(element)
    except ValueError as exc:
        raise CommandError(f"bad input: {exc}") from exc
    _write(args.out, serialize.dumps_sym(image))
    return 0


def cmd_singular(args) -> int:
    chi = _parse_ints(args.chi, "tuple")
    if not chi:
        raise CommandError("need at least one entry in --chi")
    if len(chi) > MAX_CHI_ENTRIES:
        raise CommandError(f"--chi has {len(chi)} entries; at most {MAX_CHI_ENTRIES} "
                           "are accepted (the vector has one term per permutation)")
    _write(args.out, serialize.dumps_element(build_singular(chi)))
    return 0


def cmd_verify(args) -> int:
    results = checks.run_suite(args.suite)
    failed = 0
    for check in results:
        status = "ok" if check.passed else "FAIL"
        line = f"[{status}] {args.suite}/{check.name}: {check.description}"
        if check.detail:
            line += f" ({check.detail})"
        print(line)
        failed += not check.passed
    print(f"{args.suite}: {len(results) - failed}/{len(results)} checks passed")
    return VERIFY_ERROR if failed else 0


def cmd_scan(args) -> int:
    if args.lo > args.hi:
        raise CommandError(f"empty exponent range [{args.lo}, {args.hi}]")
    if args.dmin > args.dmax:
        raise CommandError(f"empty degree range [{args.dmin}, {args.dmax}]")
    if args.n < 1:
        raise CommandError("layer must be positive")
    slack = args.n if args.slack is None else args.slack
    if slack < 0:
        raise CommandError("slack must be nonnegative")
    rows = conjecture_scan(args.n, args.dmin, args.dmax, args.lo, args.hi, slack)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "d", "dim_singular", "dim_disc_image",
                     "forward_contained", "reverse_contained", "slack"])
    for r in rows:
        writer.writerow([r.n, r.degree, r.dim_singular, r.dim_disc_image,
                         str(r.forward_contained).lower(),
                         str(r.reverse_contained).lower(), r.slack])
    _write(args.out, buf.getvalue())
    return 0


def cmd_dims(args) -> int:
    if args.dmin > args.dmax:
        raise CommandError(f"empty degree range [{args.dmin}, {args.dmax}]")
    span = args.dmax - args.dmin + 1
    if span > MAX_DEGREE_SPAN:
        raise CommandError(f"degree range [{args.dmin}, {args.dmax}] holds {span} degrees; "
                           f"at most {MAX_DEGREE_SPAN} are accepted (one row per degree)")
    roots = _parse_fractions(args.roots, "roots")
    try:
        phi = ExpFunction(roots)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree", "dim"])
    for d, dim in component_dim(phi, args.dmin, args.dmax):
        writer.writerow([d, dim])
    _write(args.out, buf.getvalue())
    return 0


def cmd_classify(args) -> int:
    zetas = _parse_fractions(args.zeta, "values")
    if len(zetas) != args.n:
        raise CommandError(f"need {args.n} values, got {len(zetas)}")
    try:
        alphas = classify_hom(args.n, zetas)
    except RequiresExtensionError as exc:
        print(f"requires-extension: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except ValueError as exc:
        print(f"no homomorphism: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    _write(args.out, serialize.dumps_expfunction(ExpFunction(alphas)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopsl2",
        description="Exact computations in the level-zero loop-sl(2) module, "
                    "its symmetric-function layers, and its singular vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("act", help="apply a generator word to an element")
    p.add_argument("--in", dest="infile", default="-", help="element JSON ('-' = stdin)")
    p.add_argument("--word", default="", help="letters kind:index, rightmost applied first")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("theta", help="realize a layer element as a symmetric function")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("singular", help="build a determinant-shaped singular vector")
    p.add_argument("--chi", required=True, help="comma-separated integers")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("verify", help="run one identity suite")
    p.add_argument("suite", choices=checks.SUITE_NAMES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan-conjecture",
                       help="compare window singular spaces with the discriminant image")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--slack", type=int, default=None)
    p.add_argument("--out", default="-", help="CSV output path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("exp-dims", help="graded dimensions of an image algebra")
    p.add_argument("--roots", required=True, help="comma-separated nonzero rationals")
    p.add_argument("--dmin", type=int, default=-6)
    p.add_argument("--dmax", type=int, default=6)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("classify-hom",
                       help="factor prescribed elementary values into evaluation scalars")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--zeta", required=True, help="comma-separated rationals, top one nonzero")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
