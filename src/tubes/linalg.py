"""Exact linear algebra.

One fraction-free (Bareiss) loop, _bareiss, serves integer-scaled
rational rows in kernel_basis, which keeps intermediate entries as single
big integers instead of fractions with growing denominators, and
polynomial rows in det_exact, with exact polynomial division. Systems
over GaussianRational all go through one Gauss-Jordan core, _rref:
rref_rows keeps its nonzero rows, invert_gaussian_matrix runs it on
[A | I], and solve_columns runs it once on [columns | t_1 ... t_T] with
pivots restricted to the columns, so one elimination answers every
target t_i of a shared coefficient matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .poly import MultiPoly, _poly, poly_sum
from .scalars import ONE, ZERO, GaussianRational

RatMatrix = Sequence[Sequence[Fraction]]


def _rows_to_int(matrix: RatMatrix) -> List[List[int]]:
    """Each row of canonical rationals scaled by the lcm of its
    denominators."""
    rows = []
    for row in matrix:
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) if x else 0 for x in row])
    return rows


def _int_div_exact(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _bareiss(rows: List[list], div) -> Tuple[List[int], int]:
    """In-place fraction-free (Bareiss) echelon reduction over ints or
    polynomials; div(a, b) is the exact quotient a / b.

    Pivot columns are chosen greedily from the left, so over the fraction
    field they are the lexicographically first independent columns.
    Returns (pivot columns, sign of the row swaps). Afterwards
    rows[k][pivots[k]] is the minor of the swapped rows 0..k on
    pivots[:k + 1]; entries left of a row's pivot are not cleared and
    must not be read.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = None  # the first step divides by nothing
    r = 0
    sign = 1
    pivots = []
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(r + 1, m):
            row = rows[i]
            if not any(row[c:]):
                continue
            f = row[c]
            for j in range(c + 1, n):
                num = p * row[j] - f * top[j]
                row[j] = num if prev is None else div(num, prev)
        prev = p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, sign


def kernel_basis(matrix: RatMatrix) -> List[List[int]]:
    """Basis of the exact null space of a rational matrix.

    Vectors are normalized to primitive integer form with positive
    leading entry, ordered by their free column. The count always
    equals #columns - rank.
    """
    rows = _rows_to_int(matrix)
    if not rows:
        return []
    n = len(rows[0])
    pivots, _ = _bareiss(rows, _int_div_exact)
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


def _primitive(ints: List[int]) -> List[int]:
    """A nonzero integer vector divided by the gcd of its entries, signed
    so that its leading nonzero entry is positive."""
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def _rref(rows: Sequence[Sequence[GaussianRational]], limit: Optional[int] = None):
    """Gauss-Jordan elimination over the Gaussian rationals, pivoting only
    in the first `limit` columns (in all of them when limit is None).

    Every entry must already be a GaussianRational; none is coerced.
    Returns (reduced rows, pivot columns); row i < len(pivots) has a 1 in
    column pivots[i] and zeros in every other pivot column, and the rows
    past the rank are zero in the first `limit` columns. Clearing a column
    skips the entries where the pivot row is zero. Sizes in this package
    are small, so pivots need no magnitude heuristics.
    """
    work = [list(row) for row in rows]
    nrows = len(work)
    pivots: List[int] = []
    r = 0
    for c in range((len(work[0]) if work else 0) if limit is None else limit):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        if pv != ONE:
            work[r] = [x / pv if x else x for x in work[r]]
        top = work[r]
        support = [j for j, b in enumerate(top) if b]
        for row in work:
            f = row[c]
            if f and row is not top:
                for j in support:
                    row[j] -= f * top[j]
        pivots.append(c)
        r += 1
    return work, pivots


def rref_rows(rows: Sequence[Sequence[GaussianRational]]) -> List[List[GaussianRational]]:
    """Reduced row-echelon basis of the row span (zero rows dropped)."""
    work, pivots = _rref(rows)
    return work[:len(pivots)]


def solve_columns(columns: Sequence[Sequence[GaussianRational]],
                  targets: Sequence[Sequence[GaussianRational]]
                  ) -> List[Optional[List[GaussianRational]]]:
    """Solve sum_i x_i * columns[i] = t exactly for every t in targets,
    by one elimination of [columns | t_1 ... t_T] pivoting in the columns
    only. The answer for t is None when a row past the rank is nonzero in
    t's column (it reads 0 = 1), else the solution on the pivot rows."""
    ncols = len(columns)
    work, pivots = _rref(list(zip(*columns, *targets)), ncols)
    answers: List[Optional[List[GaussianRational]]] = []
    for t in range(ncols, ncols + len(targets)):
        solution = None
        if not any(row[t] for row in work[len(pivots):]):
            solution = [ZERO] * ncols
            for row, c in zip(work, pivots):
                solution[c] = row[t]
        answers.append(solution)
    return answers


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
    """The first nonzero maximal minor of an n x m polynomial matrix
    (n <= m), in itertools.combinations column order, or zero when the
    generic rank is below n; for a square matrix, its determinant.

    That minor is the one on the pivot columns that Bareiss elimination
    picks greedily, signed as the determinant of those columns.
    """
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    if n == 0 or any(len(row) != m for row in matrix):
        raise ValueError("maximal minors require a nonempty rectangular matrix")
    if n > m:
        raise ValueError(f"maximal minors need at least as many columns as rows, got {n} x {m}")
    variables = matrix[0][0].vars
    if any(entry.vars != variables for row in matrix for entry in row):
        raise ValueError("matrix entries must share a variable tuple")
    rows = [list(row) for row in matrix]
    pivots, sign = _bareiss(rows, poly_div_exact)
    if len(pivots) < n:
        return MultiPoly.zero(variables)
    minor = rows[n - 1][pivots[-1]]
    return minor if sign > 0 else -minor
