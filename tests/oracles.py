"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the determinant
oracle is a cofactor expansion, the kernel oracle is plain fraction
Gaussian elimination, and series results are checked by multiplying
back rather than re-expanding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from tubes.poly import MultiPoly


def cofactor_det(matrix) -> MultiPoly:
    n = len(matrix)
    variables = matrix[0][0].vars
    if n == 1:
        return matrix[0][0]
    total = MultiPoly.zero(variables)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[matrix[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entry * cofactor_det(minor)
        total = total + term * ((-1) ** (j % 2))
    return total


def fraction_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return 0
    n = len(rows[0])
    rank = 0
    for c in range(n):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# Gaussian rationals as plain (re, im) Fraction pairs, for checking
# tubes.scalars without using it.

def pair(re=0, im=0):
    return (Fraction(re), Fraction(im))


def pair_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pair_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def pair_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def pair_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return ((a * c + b * d) / n, (b * c - a * d) / n)


def pair_conjugate(x):
    return (x[0], -x[1])


def pair_pow(x, k: int):
    out = pair(1)
    for _ in range(k):
        out = pair_mul(out, x)
    return out


def random_poly(rng, variables, max_degree=2, max_terms=4, complex_coeffs=False) -> MultiPoly:
    from tubes.scalars import GaussianRational
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(variables))] += 1
        num = rng.randint(-6, 6)
        den = rng.randint(1, 3)
        if complex_coeffs:
            coeff = GaussianRational(Fraction(num, den),
                                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        else:
            coeff = GaussianRational(Fraction(num, den))
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), GaussianRational(0)) + coeff
    return MultiPoly(variables, {e: c for e, c in terms.items() if c})
