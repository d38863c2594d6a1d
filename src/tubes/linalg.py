"""Exact linear algebra.

Rational matrices go through fraction-free Bareiss elimination on
integer-scaled rows, which keeps intermediate entries as single big
integers instead of fractions with growing denominators. Polynomial
matrices use Bareiss with exact polynomial division. Systems over
GaussianRational all go through one Gauss-Jordan core, _rref: rref_rows
keeps its nonzero rows, solve_columns runs it on [columns | target] and
invert_gaussian_matrix on [A | I].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence

from .poly import MultiPoly, _poly, poly_sum
from .scalars import ONE, ZERO, GaussianRational

RatMatrix = Sequence[Sequence[Fraction]]


def _rows_to_int(matrix: RatMatrix) -> List[List[int]]:
    rows = []
    for row in matrix:
        fr = [Fraction(x) for x in row]
        denoms = lcm(*(f.denominator for f in fr)) if fr else 1
        rows.append([int(f * denoms) for f in fr])
    return rows


def _bareiss(rows: List[List[int]]):
    """In-place fraction-free echelon reduction; returns pivot columns."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = 1
    r = 0
    pivots = []
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(r + 1, m):
            if not any(rows[i][c:]):
                continue
            for j in range(c + 1, n):
                q, rem = divmod(rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                rows[i][j] = q
            rows[i][c] = 0
        prev = rows[r][c]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def kernel_basis(matrix: RatMatrix) -> List[List[Fraction]]:
    """Basis of the exact null space of a rational matrix.

    Vectors are normalized to primitive integer form with positive
    leading entry, ordered by their free column. The count always
    equals #columns - rank.
    """
    rows = _rows_to_int(matrix)
    if not rows:
        return []
    n = len(rows[0])
    pivots = _bareiss(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        # back-substitute in integers: v is always an integer multiple of
        # the null vector; at pivot p with row sum s, scaling v by p // g
        # (g = gcd(s, p)) makes -s * (p // g) / p = -s // g exact
        v = [0] * n
        v[fc] = 1
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            row = rows[k]
            s = sum(row[j] * v[j] for j in range(pc + 1, n) if v[j])
            p = row[pc]
            g = gcd(s, p)
            scale = p // g
            if scale != 1:
                v = [x * scale for x in v]
            v[pc] = -s // g
        basis.append(_primitive(v))
    return basis


def _primitive(ints: List[int]) -> List[Fraction]:
    """A nonzero integer vector divided by the gcd of its entries, signed
    so that its leading nonzero entry is positive."""
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [Fraction(x, g) for x in ints]


def _rref(rows: Sequence[Sequence[GaussianRational]]):
    """Gauss-Jordan elimination over the Gaussian rationals.

    Returns (reduced rows, pivot columns); row i < len(pivots) has a 1 in
    column pivots[i] and zeros in every other pivot column, and the rows
    past the rank are zero. Sizes in this package are small, so pivots
    need no magnitude heuristics.
    """
    work = [list(map(GaussianRational.coerce, row)) for row in rows]
    nrows = len(work)
    pivots: List[int] = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        if pv != ONE:
            work[r] = [x / pv if x else x for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def rref_rows(rows: Sequence[Sequence[GaussianRational]]) -> List[List[GaussianRational]]:
    """Reduced row-echelon basis of the row span (zero rows dropped)."""
    work, pivots = _rref(rows)
    return work[:len(pivots)]


def solve_columns(columns: Sequence[Sequence[GaussianRational]],
                  target: Sequence[GaussianRational]) -> Optional[List[GaussianRational]]:
    """Solve sum_i x_i * columns[i] = target exactly, or return None."""
    ncols = len(columns)
    work, pivots = _rref([[columns[j][i] for j in range(ncols)] + [target[i]]
                          for i in range(len(target))])
    if pivots and pivots[-1] == ncols:
        return None  # inconsistent: a row reads 0 = 1
    solution = [ZERO] * ncols
    for row_idx, c in enumerate(pivots):
        solution[c] = work[row_idx][ncols]
    return solution


def invert_gaussian_matrix(matrix: Sequence[Sequence[GaussianRational]]):
    """Exact inverse of a square GaussianRational matrix, or None."""
    n = len(matrix)
    work, pivots = _rref([list(matrix[i]) + [ONE if i == j else ZERO for j in range(n)]
                          for i in range(n)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in work]


# ------------------------------------------------------------------ polynomial

def poly_div_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f / g; raises if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q_terms = []
    rem = f
    g_exps, g_coeff = g.leading()
    while not rem.is_zero():
        r_exps, r_coeff = rem.leading()
        q_exps = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(k < 0 for k in q_exps):
            raise ValueError("inexact polynomial division")
        q_term = _poly(f.vars, {q_exps: r_coeff / g_coeff})
        q_terms.append(q_term)
        rem = rem - q_term * g
    return poly_sum(f.vars, q_terms)


def det_exact(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square polynomial matrix (Bareiss)."""
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a nonempty square matrix")
    variables = matrix[0][0].vars
    rows = []
    for row in matrix:
        for entry in row:
            if entry.vars != variables:
                raise ValueError("matrix entries must share a variable tuple")
        rows.append(list(row))
    one = MultiPoly.const(variables, 1)
    prev = one
    sign = 1
    for c in range(n - 1):
        pivot_row = None
        for i in range(c, n):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return MultiPoly.zero(variables)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                num = rows[c][c] * rows[i][j] - rows[i][c] * rows[c][j]
                rows[i][j] = poly_div_exact(num, prev)
            rows[i][c] = MultiPoly.zero(variables)
        prev = rows[c][c]
    return rows[n - 1][n - 1] * sign


def maximal_minors(matrix: Sequence[Sequence[MultiPoly]]) -> List[MultiPoly]:
    """All maximal minors of an n x m polynomial matrix (n <= m)."""
    from itertools import combinations

    n = len(matrix)
    m = len(matrix[0]) if n else 0
    if m < n:
        raise ValueError("expected at least as many columns as rows")
    minors = []
    for cols in combinations(range(m), n):
        minors.append(det_exact([[matrix[i][j] for j in cols] for i in range(n)]))
    return minors
