"""Exact rational linear algebra: fraction-free echelon reduction, kernel
bases, and canonical row bases for subspace comparisons.

Pivoting is deterministic (first nonzero entry in column order, rows
scanned top to bottom) so every basis returned here is reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def kernel_basis(rows, ncols):
    """Deterministic basis of {x : M x = 0} for the matrix with the given rows,
    read off its reduced row echelon form R.

    One vector per free column f: 1 at f, 0 at the other free columns and
    -R[r][f] at the pivot of row r.  It is the only kernel vector with those
    free coordinates; its last nonzero entry is the one at f.
    """
    rref = reduced_row_basis(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in rref]
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, pc in zip(rref, pivots):
            vec[pc] = -row[f]
        basis.append(vec)
    return basis


def in_row_span(rows, vec) -> bool:
    return span_contains(rows, [vec])


def span_contains(rows_a, rows_b) -> bool:
    """True when every row of rows_b lies in the span of rows_a."""
    base = rank(rows_a)
    return rank(list(rows_a) + [list(r) for r in rows_b]) == base


def span_equal(rows_a, rows_b) -> bool:
    return reduced_row_basis(rows_a) == reduced_row_basis(rows_b)
