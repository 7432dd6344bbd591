"""Exact rational linear algebra: fraction-free echelon reduction, kernel
bases, and canonical row bases for subspace comparisons.

Pivoting is deterministic (first nonzero entry in column order, rows
scanned top to bottom) so every basis returned here is reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .terms import integer_scaled


def _to_int_rows(rows):
    """Scale each row by its denominator lcm; kernels and row spans survive."""
    return [integer_scaled(row)[0] for row in rows]


def echelon(rows):
    """Fraction-free (Bareiss) row echelon form of integer-scaled rows.

    Returns (echelon_rows, pivot_cols); echelon_rows has one row per pivot.
    """
    mat = _to_int_rows(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    prev = 1
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        # rows r.. vanish left of col, so only the columns from col on change
        tail_r = mat[r][col:]
        piv = tail_r[0]
        for i in range(r + 1, len(mat)):
            row_i = mat[i]
            fi = row_i[col]
            if fi:
                row_i[col:] = [(x * piv - fi * y) // prev
                               for x, y in zip(row_i[col:], tail_r)]
            elif piv != prev:
                row_i[col:] = [x * piv // prev for x in row_i[col:]]
        prev = piv
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows) -> int:
    return len(echelon(rows)[1])


def kernel_basis(rows, ncols):
    """Deterministic basis of {x : M x = 0} for the matrix with the given rows.

    One vector per free column: 1 there, 0 at later free columns, pivot
    coordinates solved exactly by back substitution in integers over one
    common denominator.
    """
    ech, pivots = echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        # integer numerators over the running denominator den
        vec = [0] * ncols
        vec[f] = 1
        den = 1
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = ech[r]
            acc = sum(map(mul, row[pc + 1:], vec[pc + 1:]))
            if acc:
                g = gcd(acc, row[pc])
                scale = row[pc] // g
                if scale != 1:
                    vec = [v * scale for v in vec]
                    den *= scale
                vec[pc] = -acc // g
        basis.append([Fraction(v, den) for v in vec])
    return basis


def reduced_row_basis(rows):
    """Canonical (reduced row echelon) basis of the row span; pivots are 1.

    The back elimination runs on integer rows, each kept primitive; the
    pivots are divided out once at the end.
    """
    ech, pivots = echelon(rows)
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        row_r = ech[r]
        lead = row_r[pc]
        for i in range(r):
            factor = ech[i][pc]
            if factor:
                row = [x * lead - factor * y for x, y in zip(ech[i], row_r)]
                g = gcd(*row)
                ech[i] = [x // g for x in row] if g != 1 else row
    return [tuple(Fraction(x, row[pc]) for x in row) for row, pc in zip(ech, pivots)]


def in_row_span(rows, vec) -> bool:
    base = rank(rows)
    return rank(list(rows) + [list(vec)]) == base


def span_contains(rows_a, rows_b) -> bool:
    """True when every row of rows_b lies in the span of rows_a."""
    base = rank(rows_a)
    return rank(list(rows_a) + [list(r) for r in rows_b]) == base


def span_equal(rows_a, rows_b) -> bool:
    return reduced_row_basis(rows_a) == reduced_row_basis(rows_b)
