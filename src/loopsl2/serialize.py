"""JSON interchange for the element kinds used by the command line.

Formats (all deterministic: terms sorted, coefficients in lowest terms):

    module element   {"terms": [{"exps": [int, ...], "coeff": "p/q"}, ...]}
    symmetric        {"n": int, "terms": [{"gamma": [int, ...], "coeff": "p/q"}, ...]}
    t-polynomial     {"terms": [{"k": int, "coeff": "p/q"}, ...]}
    exp function     {"roots": ["p/q", ...]}

Integral coefficients are written without the denominator.  Integer
fields accept JSON integers only: true and false are rejected.  A
coefficient may have at most MAX_COEFF_CHARS characters and a decimal
exponent ("1.5e3") of at most MAX_COEFF_EXPONENT in absolute value.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .expmod import ExpFunction
from .loopmod import ModuleElement, make_element
from .realization import TLaurent
from .symlaurent import SymElement, make_sym
from .terms import add_term


def format_coeff(c) -> str:
    return str(Fraction(c))


# Fraction expands a decimal exponent into a power of ten, so without a
# bound "1e999999999" would build a billion-digit integer.
MAX_COEFF_CHARS = 1000
MAX_COEFF_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


def parse_coeff(s) -> Fraction:
    """Exact rational from its text ("3", "-3/4", "0.25", "1e-3").

    Raises ValueError on a malformed or zero-denominator text, and on one
    beyond the limits MAX_COEFF_CHARS and MAX_COEFF_EXPONENT.
    """
    text = str(s)
    if len(text) > MAX_COEFF_CHARS:
        raise ValueError(f"coefficient of {len(text)} characters is longer "
                         f"than the limit of {MAX_COEFF_CHARS}")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1).replace("_", ""))) > MAX_COEFF_EXPONENT:
        raise ValueError(f"coefficient {text!r} has a decimal exponent beyond "
                         f"the limit of {MAX_COEFF_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coefficient {s!r}") from exc


def _dump(obj) -> str:
    return json.dumps(obj, separators=(", ", ": ")) + "\n"


def _term_list(data):
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise ValueError("expected an object with a 'terms' list")
    for t in data["terms"]:
        if not isinstance(t, dict):
            raise ValueError(f"term entry {t!r} is not an object")
    return data["terms"]


def dumps_element(x: ModuleElement) -> str:
    terms = [{"exps": list(m), "coeff": format_coeff(c)}
             for m, c in sorted(x.terms.items())]
    return _dump({"terms": terms})


def loads_element(text: str) -> ModuleElement:
    data = json.loads(text)
    pairs = []
    for t in _term_list(data):
        exps = t.get("exps")
        if not isinstance(exps, list) or not all(type(e) is int for e in exps):
            raise ValueError(f"bad exponent list {exps!r}")
        pairs.append((tuple(exps), parse_coeff(t.get("coeff"))))
    return make_element(pairs)


def dumps_sym(p: SymElement) -> str:
    terms = [{"gamma": list(g), "coeff": format_coeff(c)}
             for g, c in sorted(p.terms.items())]
    return _dump({"n": p.n, "terms": terms})


def loads_sym(text: str) -> SymElement:
    data = json.loads(text)
    n = data.get("n") if isinstance(data, dict) else None
    if type(n) is not int or n < 1:
        raise ValueError(f"bad variable count {n!r}")
    pairs = []
    for t in _term_list(data):
        gamma = t.get("gamma")
        if not isinstance(gamma, list) or len(gamma) != n \
                or not all(type(g) is int for g in gamma):
            raise ValueError(f"bad index {gamma!r}")
        pairs.append((tuple(gamma), parse_coeff(t.get("coeff"))))
    return make_sym(n, pairs)


def dumps_tlaurent(p: TLaurent) -> str:
    terms = [{"k": k, "coeff": format_coeff(c)} for k, c in sorted(p.terms.items())]
    return _dump({"terms": terms})


def loads_tlaurent(text: str) -> TLaurent:
    data = json.loads(text)
    terms = {}
    for t in _term_list(data):
        k = t.get("k")
        if type(k) is not int:
            raise ValueError(f"bad degree {k!r}")
        add_term(terms, k, parse_coeff(t.get("coeff")))
    return TLaurent(terms)


def dumps_expfunction(phi: ExpFunction) -> str:
    return _dump({"roots": [format_coeff(r) for r in phi.roots]})


def loads_expfunction(text: str) -> ExpFunction:
    data = json.loads(text)
    roots = data.get("roots") if isinstance(data, dict) else None
    if not isinstance(roots, list):
        raise ValueError("expected an object with a 'roots' list")
    return ExpFunction(parse_coeff(r) for r in roots)
