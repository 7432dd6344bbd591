"""The element core shared by every algebra in the package.

An element is a sparse rational combination of basis labels: a dict from
hashable keys to nonzero coefficients.  Subclasses name the basis (and,
where there is one, the variable count ``n``); the linear algebra on the
dict lives here once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def add_term(terms: dict, key, coeff) -> None:
    """Add coeff to terms[key] in place, dropping the key when it cancels."""
    new = terms.get(key, 0) + coeff
    if new:
        terms[key] = new
    elif key in terms:
        del terms[key]


def integer_scaled(coeffs) -> tuple:
    """(ints, d): the coefficients times their least common denominator d.

    Exact for int and Fraction coefficients; any other kind, a float above
    all, raises TypeError rather than being truncated to an integer.
    """
    coeffs = list(coeffs)
    den = 1
    for c in coeffs:
        if type(c) is not int:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
            d = c.denominator
            if den % d:
                den = den // gcd(den, d) * d
    return [c * den if type(c) is int else c.numerator * (den // c.denominator)
            for c in coeffs], den


class Terms:
    """Finite linear combination with a canonical term map.

    No stored coefficient is zero, and instances are treated as immutable.
    They compare by value, so they are unhashable.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    def _like(self, terms=None):
        """An element of the same kind and space with the given terms."""
        return type(self)(terms)

    def _check(self, other) -> None:
        """Raise when other lives in a different space; any space matches here."""

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self)
                and getattr(self, "n", None) == getattr(other, "n", None)
                and self.terms == other.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return self._like(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, -c)
        return self._like(out)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __mul__(self, scalar):
        if not scalar:
            return self._like()
        return self._like({key: c * scalar for key, c in self.terms.items()})

    __rmul__ = __mul__
