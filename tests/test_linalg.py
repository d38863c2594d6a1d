"""Exact linear algebra against independent oracles."""

import random
from fractions import Fraction
from math import gcd

import pytest

from tubes.linalg import (det_exact, invert_gaussian_matrix, kernel_basis,
                          maximal_minors, poly_div_exact, rref_rows,
                          solve_columns)
from tubes.poly import MultiPoly
from tubes.scalars import ONE, ZERO, GaussianRational

from oracles import cofactor_det, fraction_kernel, fraction_rank, random_poly


def test_kernel_zero_matrix():
    m = [[Fraction(0)] * 3 for _ in range(3)]
    assert len(kernel_basis(m)) == 3


def test_kernel_identity():
    m = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert kernel_basis(m) == []


def test_kernel_against_row_reduction_oracle():
    rng = random.Random(1105)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8)]
                for _ in range(5)]
        basis = kernel_basis(rows)
        expected_dim = 8 - fraction_rank(rows)
        assert len(basis) == expected_dim
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        # vectors are independent
        assert fraction_rank(basis) == len(basis)


def _kernel_case(rng, rational):
    """A sparse matrix with negative entries, some zero and repeated rows,
    and as many as twice as many columns as rows."""
    m, n = rng.randint(1, 5), rng.randint(1, 10)

    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4) if rational else 1)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    for i in range(m):
        if rng.random() < 0.2:
            rows[i] = [Fraction(0)] * n
        elif i and rng.random() < 0.2:
            rows[i] = [-3 * x for x in rows[rng.randrange(i)]]
    return rows


@pytest.mark.parametrize("rational", [False, True])
def test_kernel_normalisation_matches_fraction_oracle(rational):
    rng = random.Random(2207 + rational)
    for _ in range(200):
        rows = _kernel_case(rng, rational)
        basis = kernel_basis(rows)
        assert basis == fraction_kernel(rows)
        for vec in basis:
            assert all(type(x) is Fraction and x.denominator == 1 for x in vec)
            assert gcd(*(int(x) for x in vec)) == 1
            assert next(x for x in vec if x) > 0


def test_det_diag():
    vs = ("x", "y")
    x = MultiPoly.var(vs, "x")
    y = MultiPoly.var(vs, "y")
    one = MultiPoly.const(vs, 1)
    zero = MultiPoly.zero(vs)
    m = [[x, zero, zero, zero],
         [zero, y, zero, zero],
         [zero, zero, one, zero],
         [zero, zero, zero, one]]
    assert det_exact(m) == x * y


def test_det_against_cofactor_oracle():
    rng = random.Random(40814)
    vs = ("x", "y")
    for _ in range(100):
        m = [[random_poly(rng, vs, max_degree=2, max_terms=3) for _ in range(4)]
             for _ in range(4)]
        assert det_exact(m) == cofactor_det(m)


def test_det_cofactor_oracle_size_five():
    rng = random.Random(515)
    vs = ("x", "y")
    for _ in range(5):
        m = [[random_poly(rng, vs, max_degree=1, max_terms=2) for _ in range(5)]
             for _ in range(5)]
        assert det_exact(m) == cofactor_det(m)


def test_det_requires_square():
    vs = ("x",)
    x = MultiPoly.var(vs, "x")
    with pytest.raises(ValueError):
        det_exact([[x, x]])


def test_poly_div_exact_and_inexact():
    vs = ("x", "y")
    x = MultiPoly.var(vs, "x")
    y = MultiPoly.var(vs, "y")
    f = (x + y) * (x - y) * (x + 2)
    assert poly_div_exact(f, x + y) == (x - y) * (x + 2)
    with pytest.raises(ValueError):
        poly_div_exact(x * y + 1, x + y)


def test_solve_columns_consistency():
    cols = [[GaussianRational(1), GaussianRational(0)],
            [GaussianRational(1), GaussianRational(1)]]
    target = [GaussianRational(3), GaussianRational(2)]
    sol = solve_columns(cols, target)
    assert sol is not None
    assert sol[0] == GaussianRational(1) and sol[1] == GaussianRational(2)
    assert solve_columns([[GaussianRational(0), GaussianRational(0)]],
                         [GaussianRational(1), GaussianRational(0)]) is None


def test_rref_rows_span():
    rows = [[GaussianRational(1), GaussianRational(2)],
            [GaussianRational(2), GaussianRational(4)]]
    assert len(rref_rows(rows)) == 1


def _random_gaussian(rng):
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), im)


def _random_matrix(rng, nrows, ncols, rank_cap=None):
    """Random Gaussian-rational matrix; with rank_cap, the rows past the
    first rank_cap are combinations of earlier rows."""
    rows = []
    for i in range(nrows):
        if rank_cap is not None and i >= rank_cap:
            a, b = _random_gaussian(rng), _random_gaussian(rng)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[rng.randrange(i)])])
        else:
            rows.append([_random_gaussian(rng) for _ in range(ncols)])
    return rows


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def _realified(matrix):
    """The real form [[Re, -Im], [Im, Re]]; its rank is twice the
    complex rank, so fraction_rank serves as an independent oracle."""
    top = [[x.re for x in row] + [-x.im for x in row] for row in matrix]
    bottom = [[x.im for x in row] + [x.re for x in row] for row in matrix]
    return top + bottom


def test_invert_gaussian_matrix_random():
    rng = random.Random(2004)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            # L U with a unit lower and a nonsingular upper triangle is invertible
            lower = [[ONE if i == j else _random_gaussian(rng) if j < i else ZERO
                      for j in range(n)] for i in range(n)]
            upper = [[_random_gaussian(rng) if j > i else ZERO for j in range(n)]
                     for i in range(n)]
            for i in range(n):
                while not upper[i][i]:
                    upper[i][i] = _random_gaussian(rng)
            a = _matmul(lower, upper)
            identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
            inv = invert_gaussian_matrix(a)
            assert inv is not None
            assert _matmul(a, inv) == identity
            assert _matmul(inv, a) == identity
            if n > 1:
                singular = _random_matrix(rng, n, n, rank_cap=n - 1)
                assert invert_gaussian_matrix(singular) is None


def test_solve_columns_random_against_rank_oracle():
    rng = random.Random(408125)
    outcomes = set()
    for trial in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
        matrix = _random_matrix(rng, nrows, ncols, rank_cap=rng.randint(1, ncols))
        if trial % 2:
            x = [_random_gaussian(rng) for _ in range(ncols)]
            target = [sum((a * b for a, b in zip(row, x)), ZERO) for row in matrix]
        else:
            target = [_random_gaussian(rng) for _ in range(nrows)]
        columns = [[row[j] for row in matrix] for j in range(ncols)]
        sol = solve_columns(columns, target)
        augmented = [row + [t] for row, t in zip(matrix, target)]
        inconsistent = fraction_rank(_realified(augmented)) > fraction_rank(_realified(matrix))
        assert (sol is None) == inconsistent
        if sol is not None:
            for row, t in zip(matrix, target):
                assert sum((a * b for a, b in zip(row, sol)), ZERO) == t
        outcomes.add(sol is None)
    assert outcomes == {True, False}


def test_rref_rows_rank_against_fraction_oracle():
    rng = random.Random(5038)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        real = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 2:
            real[-1] = [a - 2 * b for a, b in zip(real[0], real[1])]
        reduced = rref_rows([[GaussianRational(x) for x in row] for row in real])
        assert len(reduced) == fraction_rank(real)
        pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert [row[p] for row in reduced] == [ONE if k == i else ZERO
                                                   for k in range(len(reduced))]
        complex_rows = _random_matrix(rng, nrows, ncols, rank_cap=rng.randint(1, nrows))
        assert 2 * len(rref_rows(complex_rows)) == fraction_rank(_realified(complex_rows))


def test_maximal_minors_count():
    vs = ("x",)
    x = MultiPoly.var(vs, "x")
    one = MultiPoly.const(vs, 1)
    m = [[x, one, x], [one, x, one]]
    assert len(maximal_minors(m)) == 3
