"""Exact linear algebra.

Every linear system goes through one Gauss-Jordan core, _rref, over Q
(int/Fraction entries, scalars._div). The unknowns of every solve are
real, so complex data enters as the real and imaginary coordinates of
poly.coefficient_columns; invert_gaussian_matrix and fields.rank_at at a
non-real point, whose unknowns are complex, eliminate the real block form
of their matrix (complex_block). _rref clears a column only over the
support of the pivot row: kernel_basis reads one null vector per free
column off its reduced rows, rref_rows keeps its nonzero rows, and
solve_columns runs it once on [columns | t_1 ... t_T] with pivots
restricted to the columns, so one elimination answers every target t_i
of a shared coefficient matrix. det_exact, over polynomial entries,
where a division would be an exact polynomial division and costly,
divides nothing: it takes the columns greedily and expands each minor,
once, from the minors one size smaller.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

# poly_div_exact works on term dicts, so it lives in poly; its callers
# import it from here
from .poly import MultiPoly, poly_div_exact, product_sum
from .scalars import GaussianRational, Rational, _canon, _div, _gr


def kernel_basis(matrix: Sequence[Sequence[Rational]]) -> List[List[int]]:
    """Basis of the exact null space of a matrix of int/Fraction entries.

    One vector per free column of the reduced rows (`_rref`), in column
    order: 1 at that column, 0 at the other free columns and the negated
    reduced entries at the pivot columns, scaled to primitive integer
    form with positive leading entry. The count always equals #columns -
    rank.
    """
    work, pivots = _rref(matrix)
    n = len(work[0]) if work else 0
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        vec = [0] * n
        vec[fc] = 1
        for row, pc in zip(work, pivots):
            vec[pc] = -row[fc]
        scale = lcm(*(x.denominator for x in vec))
        basis.append(_primitive([x.numerator * (scale // x.denominator) for x in vec]))
    return basis


def _primitive(ints: List[int]) -> List[int]:
    """A nonzero integer vector divided by the gcd of its entries, signed
    so that its leading nonzero entry is positive."""
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def _rref(rows: Sequence[Sequence[Rational]], width: Optional[int] = None):
    """Gauss-Jordan elimination over Q of int/Fraction rows, pivoting
    only in the first `width` columns (in all of them when width is None).

    scalars._div normalises a pivot row whose pivot is not 1; the rest is
    `-`, `*` and truth tests, so an integral entry may be left a Fraction.
    Returns (reduced rows, pivot columns); row i < len(pivots) has a 1 in
    column pivots[i] and zeros in every other pivot column, and the rows
    past the rank are zero in the first `width` columns. Clearing a column
    skips the entries where the pivot row is zero. Sizes in this package
    are small, so pivots need no magnitude heuristics.
    """
    work = [list(row) for row in rows]
    nrows = len(work)
    pivots: List[int] = []
    r = 0
    for c in range((len(work[0]) if work else 0) if width is None else width):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        if pv != 1:
            work[r] = [_div(x, pv) if x else x for x in work[r]]
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


def rref_rows(rows: Sequence[Sequence[Rational]]) -> List[List[Rational]]:
    """Reduced row-echelon basis of the row span over Q (zero rows
    dropped), its entries canonical."""
    work, pivots = _rref(rows)
    return [[_canon(x) for x in row] for row in work[:len(pivots)]]


def solve_columns(columns: Sequence[Sequence[Rational]],
                  targets: Sequence[Sequence[Rational]]) -> List[Optional[List[Rational]]]:
    """Solve sum_i x_i * columns[i] = t over Q exactly for every t in
    targets, by one elimination of [columns | t_1 ... t_T] pivoting in the
    columns only. The answer for t is None when a row past the rank is
    nonzero in t's column (it reads 0 = 1), else the canonical solution on
    the pivot rows."""
    ncols = len(columns)
    work, pivots = _rref(list(zip(*columns, *targets)), ncols)
    answers: List[Optional[List[Rational]]] = []
    for t in range(ncols, ncols + len(targets)):
        solution = None
        if not any(row[t] for row in work[len(pivots):]):
            solution = [0] * ncols
            for row, c in zip(work, pivots):
                solution[c] = _canon(row[t])
        answers.append(solution)
    return answers


def complex_block(rows: Sequence[Sequence[GaussianRational]]) -> List[List[Rational]]:
    """The real 2m x 2n matrix [[A, -B], [B, A]] of an m x n matrix A + iB:
    it maps (x, y) to (u, v) exactly when A + iB maps x + iy to u + iv, so
    its rank is twice the complex rank."""
    return ([[z.re for z in row] + [-z.im for z in row] for row in rows]
            + [[z.im for z in row] + [z.re for z in row] for row in rows])


def invert_gaussian_matrix(matrix: Sequence[Sequence[GaussianRational]]):
    """Exact inverse of a square GaussianRational matrix A + iB, or None.

    The inverse X + iY solves AX - BY = I, BX + AY = 0: one elimination
    over Q of complex_block(A + iB) augmented with [I; 0]."""
    n = len(matrix)
    work, pivots = _rref([row + [int(i == j) for j in range(n)]
                          for i, row in enumerate(complex_block(matrix))], 2 * n)
    if len(pivots) != 2 * n:
        return None
    return [[_gr(_canon(x), _canon(y)) for x, y in zip(work[i][2 * n:], work[n + i][2 * n:])]
            for i in range(n)]


# ------------------------------------------------------------------ polynomial

def det_exact(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """The first nonzero maximal minor of an n x m polynomial matrix
    (n <= m), in itertools.combinations column order, or zero when the
    generic rank is below n; for a square matrix, its determinant.

    The columns of that minor are the greedy basis: each column, left to
    right, is taken when it is independent of the columns taken before it
    over the fraction field, which makes the set lexicographically first
    (Edmonds, Math. Programming 1, 1971). The minors decide independence,
    without any division, by Laplace expansion along the last column with
    the minors of the level below kept (Gentleman & Johnson, ACM TOMS 2(3),
    1976): the minor of the rows R on the columns taken and a candidate is
    the alternating sum of the candidate's entries in R times the minors
    of R less that row on the columns taken, one `poly.product_sum`. The
    candidate is taken when one of these minors is nonzero, and its
    nonzero minors become the level below. Each minor is computed once.
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
    # the nonzero minors on the columns taken, by their sorted rows
    minors: Dict[Tuple[int, ...], MultiPoly] = {}
    taken = 0
    for j in range(m):
        column = [row[j] for row in matrix]
        if not taken:
            grown = {(i,): entry for i, entry in enumerate(column) if entry}
        else:
            grown = {}
            for rows in combinations(range(n), taken + 1):
                signed = ([], [])  # (added, subtracted): row p has sign (-1)^(p + taken)
                for p, i in enumerate(rows):
                    sub = minors.get(rows[:p] + rows[p + 1:])
                    if sub is not None and column[i]:
                        signed[(p + taken) & 1].append((column[i], sub))
                if signed[0] or signed[1]:
                    det = product_sum(variables, *signed)
                    if det:
                        grown[rows] = det
        if grown:
            minors, taken = grown, taken + 1
            if taken == n:
                return grown[tuple(range(n))]
    return MultiPoly.zero(variables)
