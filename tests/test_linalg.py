"""Exact linear algebra against the kernel reference and other oracles."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tubes import catalog, linalg
from tubes.fields import VectorField, linear_combination, rank_at
from tubes.linalg import (det_exact, invert_gaussian_matrix, kernel_basis, poly_div_exact,
                          rref_rows, solve_columns)
from tubes.poly import MultiPoly, RationalFunction, coefficient_columns, lowest_terms, poly_sum
from tubes.scalars import ZERO, GaussianRational, _div
from tubes.symmetry import affine_symmetry_algebra, expand_in_fields

import reference as ref
from oracles import random_poly


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
        expected_dim = 8 - ref.rank(rows)
        assert len(basis) == expected_dim
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        # vectors are independent
        assert ref.rank(basis) == len(basis)


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
        assert basis == ref.kernel(rows)
        for vec in basis:
            assert all(type(x) is int for x in vec)
            assert gcd(*(int(x) for x in vec)) == 1
            assert next(x for x in vec if x) > 0


@pytest.mark.parametrize("form", ["int", "fraction", "mixed"])
def test_kernel_takes_every_rational_entry_type(form):
    """int, Fraction and int-and-Fraction entries of one matrix give the
    reference's basis."""
    rng = random.Random(4409)
    for _ in range(60):
        rows = _kernel_case(rng, rational=form != "int")
        if form == "int":
            given = [[int(x) for x in row] for row in rows]
        elif form == "fraction":
            given = rows
        else:
            given = [[int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in row]
                     for row in rows]
        assert kernel_basis(given) == ref.kernel(rows)


def test_kernel_matches_fraction_oracle_on_every_catalogued_surface(monkeypatch):
    """On the coefficient matrix of X(P) = c P that affine_symmetry_algebra
    hands to kernel_basis, for every catalogued surface."""
    reg = catalog.registry()
    surfaces = sorted(fid for fid in reg if reg[fid].kind == "hypersurface")
    captured = []
    monkeypatch.setattr(linalg, "kernel_basis", lambda m: captured.append(m) or kernel_basis(m))
    for fid in surfaces:
        affine_symmetry_algebra(reg[fid].payload)
    monkeypatch.undo()
    assert len(captured) == len(surfaces) and "surface.tube.6.realified" in surfaces
    assert max((len(m), len(m[0])) for m in captured) == (39, 73)
    for fid, matrix in zip(surfaces, captured):
        assert all(type(x) in (int, Fraction) for row in matrix for x in row), fid
        assert kernel_basis(matrix) == ref.kernel(matrix), fid


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


def _reference_det(matrix):
    """The reference's cofactor expansion of a square polynomial matrix."""
    return ref.det([[ref.poly(e) for e in row] for row in matrix], len(matrix[0][0].vars))


def test_det_against_cofactor_oracle():
    rng = random.Random(40814)
    vs = ("x", "y")
    for _ in range(100):
        m = [[random_poly(rng, vs, max_degree=2, max_terms=3) for _ in range(4)]
             for _ in range(4)]
        assert ref.poly(det_exact(m)) == _reference_det(m)


def test_det_cofactor_oracle_size_five():
    rng = random.Random(515)
    vs = ("x", "y")
    for _ in range(5):
        m = [[random_poly(rng, vs, max_degree=1, max_terms=2) for _ in range(5)]
             for _ in range(5)]
        assert ref.poly(det_exact(m)) == _reference_det(m)


def test_det_requires_square():
    vs = ("x",)
    x = MultiPoly.var(vs, "x")
    with pytest.raises(ValueError, match="at least as many columns as rows"):
        det_exact([[x], [x]])


def test_det_rejects_ragged_rows_and_mixed_variables():
    x = MultiPoly.var(("x",), "x")
    y = MultiPoly.var(("y",), "y")
    with pytest.raises(ValueError, match="rectangular"):
        det_exact([[x, x], [x]])
    with pytest.raises(ValueError, match="share a variable tuple"):
        det_exact([[x, y]])


def _rank_deficient_case(rng, vs, kind):
    """An n x m polynomial matrix (n in 1..4, m in n..n+3), a third of
    whose entries are zero, with, by kind, nothing more (0), a zero column
    (1), a repeated column (2) or a first row that is a polynomial
    combination of the others (3)."""
    n = rng.randint(1, 4)
    m = rng.randint(n, n + 3)
    rows = [[random_poly(rng, vs, max_degree=1, max_terms=2) if rng.random() < 0.67
             else MultiPoly.zero(vs) for _ in range(m)] for _ in range(n)]
    if kind == 1:
        col = rng.randrange(m)
        for row in rows:
            row[col] = MultiPoly.zero(vs)
    elif kind == 2 and m > 1:
        a, b = sorted(rng.sample(range(m), 2))
        for row in rows:
            row[b] = row[a]
    elif kind == 3:
        coeffs = [random_poly(rng, vs, max_degree=1, max_terms=2) for _ in rows[1:]]
        rows[0] = [poly_sum(vs, [c * row[j] for c, row in zip(coeffs, rows[1:])])
                   for j in range(m)]
    return rows


def test_det_exact_is_the_first_nonzero_maximal_minor():
    """Against the reference's cofactor expansion of every maximal minor,
    taken in itertools.combinations column order."""
    rng = random.Random(7013)
    vs = ("x", "y")
    outcomes = set()
    for trial in range(120):
        rows = _rank_deficient_case(rng, vs, trial % 4)
        n, m = len(rows), len(rows[0])
        minors = [_reference_det([[row[j] for j in cols] for row in rows])
                  for cols in combinations(range(m), n)]
        first = next((k for k, d in enumerate(minors) if d), None)
        outcomes.add("zero" if first is None else "first" if first == 0 else "later")
        assert ref.poly(det_exact(rows)) == ({} if first is None else minors[first])
    assert outcomes == {"zero", "first", "later"}


def test_poly_div_exact_and_inexact():
    vs = ("x", "y")
    x = MultiPoly.var(vs, "x")
    y = MultiPoly.var(vs, "y")
    f = (x + y) * (x - y) * (x + 2)
    assert poly_div_exact(f, x + y) == (x - y) * (x + 2)
    with pytest.raises(ValueError):
        poly_div_exact(x * y + 1, x + y)
    # a quotient by a product of two of f's factors
    assert poly_div_exact(f, (x - y) * (x + 2)) == x + y


XYZ = ("x", "y", "z")


def in_x(min_size=1):
    """A Gaussian-rational polynomial in x alone, over XYZ, from its
    coefficients (re, im, denominator), lowest degree first."""
    coeffs = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 4))
    return st.lists(coeffs, min_size=min_size, max_size=4).map(lambda cs: MultiPoly(XYZ, {
        (k, 0, 0): GaussianRational(Fraction(re, d), Fraction(im, d))
        for k, (re, im, d) in enumerate(cs)}))


def x_degree(p):
    return p.degree("x")


@settings(max_examples=80, deadline=None)
@given(st.lists(in_x(min_size=0), min_size=1, max_size=3), in_x(), in_x())
def test_lowest_terms_cancels_a_common_factor_in_one_variable(a_parts, b, g):
    # a = sum_k a_k(x) * y^k z, lifted over the variables b and g do not use
    y, z = MultiPoly.var(XYZ, "y"), MultiPoly.var(XYZ, "z")
    a = poly_sum(XYZ, [part * y**k * z for k, part in enumerate(a_parts)])
    assume(b and g)
    rf = RationalFunction(a * g, b * g)
    red = lowest_terms(rf)
    assert red.vars == XYZ
    assert (red.num * rf.den - rf.num * red.den).is_zero()
    assert set(red.den.used_vars()) <= {"x"}
    assert x_degree(red.den) <= x_degree(b)


def test_lowest_terms_leaves_a_denominator_in_two_variables():
    x, y = (MultiPoly.var(XYZ, n) for n in ("x", "y"))
    rf = RationalFunction((x + 1) * (y + 1), (x + 1) * y)
    assert lowest_terms(rf) is rf


def test_lowest_terms_of_a_zero_numerator_is_zero_over_a_constant():
    x = MultiPoly.var(XYZ, "x")
    red = lowest_terms(RationalFunction(MultiPoly.zero(XYZ), (x + 1) * (x * 3 - 2)))
    assert red.num.is_zero() and red.den.used_vars() == ()


def _to_sympy(p, symbols):
    return sum((sympy.Rational(re.numerator, re.denominator)
                + sympy.I * sympy.Rational(im.numerator, im.denominator))
               * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
               for e, re, im in p.sorted_terms())


@pytest.mark.parametrize("mid, degrees", [("map.cm.D", (1, 3, 2, 2)),
                                          ("map.cm.C", (0, 2, 1, 0))])
def test_lowest_terms_agrees_with_sympy_cancel(mid, degrees):
    """Against sympy's cancel, on each stored component times
    (w1 + 4)^2 / (w1 + 4)^2: the reduction gives the stored component back,
    whose denominators have degree 1, 3, 2 and 2 in w1 for map.cm.D and
    0, 2, 1 and 0 for map.cm.C, and leaves the stored one as it is."""
    components = catalog.get(mid).payload.components
    symbols = sympy.symbols(components[0][1].vars)
    planted = (MultiPoly.var(components[0][1].vars, "w1") + 4) ** 2
    got = []
    for _, stored in components:
        rf = RationalFunction(stored.num * planted, stored.den * planted)
        red = lowest_terms(rf)
        num, den = (_to_sympy(p, symbols) for p in (red.num, red.den))
        want_num, want_den = sympy.fraction(sympy.cancel(_to_sympy(rf.num, symbols)
                                                         / _to_sympy(rf.den, symbols)))
        assert sympy.expand(num * want_den - want_num * den) == 0
        assert sympy.degree(den, symbols[0]) == sympy.degree(want_den, symbols[0])
        assert (red.num, red.den) == (stored.num, stored.den)
        assert lowest_terms(stored) is stored
        got.append(sympy.degree(den, symbols[0]))
    assert tuple(got) == degrees


def test_solve_columns_consistency():
    sol = solve_columns([[1, 0], [1, 1]], [[3, 2]])[0]
    assert sol == [1, 2] and all(type(x) is int for x in sol)
    assert solve_columns([[0, 0]], [[1, 0]])[0] is None
    assert solve_columns([[Fraction(1, 2)]], [[1]]) == [[2]]


def test_rref_rows_span():
    assert rref_rows([[1, 2], [2, 4]]) == [[1, 2]]
    reduced = rref_rows([[Fraction(1, 2), Fraction(3, 2)], [1, 1]])
    assert reduced == [[1, 0], [0, 1]] and all(type(x) is int for row in reduced for x in row)


def _random_gaussian(rng):
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), im)


def _random_rational(rng):
    return _div(rng.randint(-4, 4), rng.randint(1, 3))


def _add(x, y):
    """x + y; Gaussian rationals, which have no +, add as reference pairs."""
    if isinstance(x, GaussianRational):
        return GaussianRational(*ref.pair_add(ref.pair(x), ref.pair(y)))
    return x + y


def _random_matrix(rng, nrows, ncols, rank_cap=None, entry=_random_rational):
    """Random matrix of entry(rng) values, canonical rationals by default;
    with rank_cap, the rows past the first rank_cap are combinations of
    earlier rows."""
    rows = []
    for i in range(nrows):
        if rank_cap is not None and i >= rank_cap:
            a, b = entry(rng), entry(rng)
            rows.append([_add(a * x, b * y) for x, y in zip(rows[0], rows[rng.randrange(i)])])
        else:
            rows.append([entry(rng) for _ in range(ncols)])
    return rows


def _canonical(xs):
    """Every value an int, or a Fraction that is not integral."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in xs)


def _matmul(a, b):
    return [[reduce(_add, (a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def test_invert_gaussian_matrix_random():
    rng = random.Random(2004)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            # L U with a unit lower and a nonsingular upper triangle is invertible
            lower = [[GaussianRational(1) if i == j else _random_gaussian(rng) if j < i else ZERO
                      for j in range(n)] for i in range(n)]
            upper = [[_random_gaussian(rng) if j > i else ZERO for j in range(n)]
                     for i in range(n)]
            for i in range(n):
                while not upper[i][i]:
                    upper[i][i] = _random_gaussian(rng)
            a = _matmul(lower, upper)
            identity = [[GaussianRational(1) if i == j else ZERO for j in range(n)]
                        for i in range(n)]
            inv = invert_gaussian_matrix(a)
            assert inv is not None
            assert _matmul(a, inv) == identity
            assert _matmul(inv, a) == identity
            if n > 1:
                singular = _random_matrix(rng, n, n, rank_cap=n - 1, entry=_random_gaussian)
                assert invert_gaussian_matrix(singular) is None


def test_solve_columns_random_against_rank_oracle():
    rng = random.Random(408125)
    outcomes = set()
    for trial in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
        matrix = _random_matrix(rng, nrows, ncols, rank_cap=rng.randint(1, ncols))
        if trial % 2:
            x = [_random_rational(rng) for _ in range(ncols)]
            target = [sum(a * b for a, b in zip(row, x)) for row in matrix]
        else:
            target = [_random_rational(rng) for _ in range(nrows)]
        columns = [[row[j] for row in matrix] for j in range(ncols)]
        sol = solve_columns(columns, [target])[0]
        augmented = [row + [t] for row, t in zip(matrix, target)]
        assert (sol is None) == (ref.rank(augmented) > ref.rank(matrix))
        if sol is not None:
            assert _canonical(sol)
            for row, t in zip(matrix, target):
                assert sum(a * b for a, b in zip(row, sol)) == t
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
        reduced = rref_rows(real)
        assert len(reduced) == ref.rank(real)
        assert all(_canonical(row) for row in reduced)
        pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert [row[p] for row in reduced] == [int(k == i) for k in range(len(reduced))]
        capped = _random_matrix(rng, nrows, ncols, rank_cap=rng.randint(1, nrows))
        assert len(rref_rows(capped)) == ref.rank(capped)


def test_solve_columns_batched_against_single_targets_and_rank_oracle():
    rng = random.Random(2004408)
    mixed = 0
    for _ in range(30):
        nrows, ncols = rng.randint(2, 6), rng.randint(1, 4)
        columns = [[_random_rational(rng) for _ in range(nrows)] for _ in range(ncols)]
        for j in range(1, ncols):
            if rng.random() < 0.4:  # a column dependent on earlier ones
                a, b = _random_rational(rng), _random_rational(rng)
                columns[j] = [a * x + b * y for x, y in zip(columns[0], columns[rng.randrange(j)])]
        targets = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                x = [_random_rational(rng) for _ in range(ncols)]
                targets.append([sum(col[i] * c for col, c in zip(columns, x))
                                for i in range(nrows)])
            else:
                targets.append([_random_rational(rng) for _ in range(nrows)])
        answers = solve_columns(columns, targets)
        assert len(answers) == len(targets)
        matrix = [[col[i] for col in columns] for i in range(nrows)]
        rank = ref.rank(matrix)
        for target, answer in zip(targets, answers):
            assert answer == solve_columns(columns, [target])[0]
            augmented = [row + [t] for row, t in zip(matrix, target)]
            assert (answer is None) == (ref.rank(augmented) > rank)
            if answer is not None:
                assert _canonical(answer)
                for row, t in zip(matrix, target):
                    assert sum(a * b for a, b in zip(row, answer)) == t
        mixed += len({answer is None for answer in answers}) == 2
    assert mixed >= 5


def test_solve_columns_inconsistent_targets_do_not_clear_each_other():
    # without pivoting in the columns only, the first target would pivot
    # in row 1 and clear the second's only entry past the rank
    answers = solve_columns([[1, 0]], [[0, 1], [0, 2], [3, 0]])
    assert answers == [None, None, [3]]


def test_expand_in_fields_term_outside_the_basis_support():
    vs = ("x", "y")
    x, y = MultiPoly.var(vs, "x"), MultiPoly.var(vs, "y")
    zero, one = MultiPoly.zero(vs), MultiPoly.const(vs, 1)
    basis = [VectorField(vs, (x, zero)), VectorField(vs, (zero, one))]
    outside = VectorField(vs, (x + y, zero))  # y d/dx: no basis field has it
    inside = VectorField(vs, (x * 2, one * 3))
    answers = expand_in_fields([outside, inside, outside], basis)
    assert answers == [None, (2, 3), None] and all(type(x) is int for x in answers[1])
    assert expand_in_fields([outside], basis) == [None]
    assert expand_in_fields([], basis) == []


def _boxed_columns(columns):
    """The complex coordinates of columns of polynomials, as reference
    pairs, one per (position, monomial) that any of them uses."""
    support = sorted({(i, e) for column in columns for i, p in enumerate(column)
                      for e, _, _ in p.sorted_terms()})
    return [[ref.pair(column[i].coeff(e)) for i, e in support] for column in columns]


def test_real_solves_agree_with_the_reference_elimination_over_q_i():
    """solve_columns on real coordinates, rank_at at non-real values and
    invert_gaussian_matrix agree with the reference's Gauss-Jordan
    elimination over Q(i)."""
    rng = random.Random(4040)
    xy = ("x", "y")
    kinds = set()
    for _ in range(40):
        # columns of two polynomials, real or complex, independent over C
        ncols = rng.randint(1, 3)
        columns = [tuple(random_poly(rng, xy, complex_coeffs=rng.random() < 0.5)
                         for _ in range(2)) for _ in range(ncols)]
        if ref.complex_rank(_boxed_columns(columns)) < ncols:
            continue
        # targets: a real combination, one with a non-real weight, a random pair
        weights = [[_random_rational(rng) for _ in range(ncols)] for _ in range(2)]
        k = rng.randrange(ncols)
        weights[1][k] = GaussianRational(weights[1][k], rng.choice([-2, 1, 3]))
        targets = [tuple(poly_sum(xy, [col[i] * w for col, w in zip(columns, ws)])
                         for i in range(2)) for ws in weights]
        targets.append(tuple(random_poly(rng, xy, complex_coeffs=True) for _ in range(2)))
        coords = coefficient_columns(columns + targets)
        assert all(type(x) in (int, Fraction) for col in coords for x in col)
        got = solve_columns(coords[:ncols], coords[ncols:])
        boxed = _boxed_columns(columns + targets)
        for answer, target in zip(got, boxed[ncols:]):
            want = ref.solve(boxed[:ncols], target)
            if want is not None and all(not im for _, im in want):
                assert [ref.pair(x) for x in answer] == want
                kinds.add("real")
            else:
                assert answer is None
                kinds.add("none" if want is None else "non-real")
    assert kinds == {"real", "non-real", "none"}

    nonreal = 0
    for _ in range(40):
        fields = [VectorField(xy, tuple(random_poly(rng, xy, complex_coeffs=True)
                                        for _ in range(2))) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:  # a complex combination of the others
            fields.append(linear_combination([_random_gaussian(rng) for _ in fields], fields))
        point = [_random_rational(rng) for _ in xy]
        values = [[c.eval_at(dict(zip(xy, point))) for c in f.components] for f in fields]
        nonreal += any(not x.is_real() for row in values for x in row)
        assert rank_at(fields, point) == ref.complex_rank(values)
    assert nonreal >= 30

    singular = 0
    for n in (1, 2, 3, 4):
        for _ in range(8):
            a = _random_matrix(rng, n, n, rank_cap=rng.choice([None, max(n - 1, 1)]),
                               entry=_random_gaussian)
            want = ref.complex_inverse(a)
            singular += want is None
            got = invert_gaussian_matrix(a)
            assert (None if got is None else [[ref.pair(x) for x in row] for row in got]) == want
    assert singular >= 5
