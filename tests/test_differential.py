"""Differential checks against sympy on seeded random inputs that no
fixture holds: the univariate Euclid of `lowest_terms` against
`sympy.cancel`, the division loop against `sympy.div` over Q(i), and the
dimension of `affine_symmetry_algebra` against a sympy nullspace of a
tangency matrix built here, from sympy's own expansion of X(P) - c P.
The same planted common factors, and every component that the in-code
catalog hands `lowest_terms`, are also checked against the Euclid on
(re, im) coefficient lists that `lowest_terms` ran before
(`frozen_lowest_terms`). Skipped when sympy is missing."""

import random
from fractions import Fraction

import pytest

from tubes import catalog
from tubes.poly import MultiPoly, RationalFunction, _divmod, lowest_terms
from tubes.scalars import GaussianRational
from tubes.symmetry import Hypersurface, affine_symmetry_algebra

from oracles import frozen_lowest_terms

sympy = pytest.importorskip("sympy")


def _gaussian(rng, bound=4):
    re = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
    return GaussianRational(re, Fraction(rng.randint(-bound, bound), rng.randint(1, 3)))


def _univariate(rng, degree):
    """A random polynomial in x over Q(i) of exactly this degree."""
    coeffs = {(k,): _gaussian(rng) for k in range(degree)}
    lead = _gaussian(rng)
    while not lead:
        lead = _gaussian(rng)
    coeffs[(degree,)] = lead
    return MultiPoly(("x",), coeffs)


def _to_sympy(p, symbols):
    return sum((sympy.Rational(re.numerator, re.denominator)
                + sympy.I * sympy.Rational(im.numerator, im.denominator))
               * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
               for e, re, im in p.sorted_terms())


def _planted_common_factors():
    """40 seeded (num, den, G) over Q(i) in x: num of degree 0 to 3, den
    of degree 1 to 3 and the planted factor G of degree 1 or 2."""
    rng = random.Random(20261020)
    for _ in range(40):
        common = _univariate(rng, rng.randint(1, 2))
        num = _univariate(rng, rng.randint(0, 3))
        den = _univariate(rng, rng.randint(1, 3))
        yield num, den, common


def test_lowest_terms_agrees_with_sympy_cancel_on_planted_common_factors():
    """num * G / (den * G) for random num, den and a planted factor G over
    Q(i): the reduction equals sympy's by cross-multiplication, and its
    denominator has the degree of sympy's, below that of den * G."""
    symbols = sympy.symbols(("x",))
    reduced = 0
    for num, den, common in _planted_common_factors():
        red = lowest_terms(RationalFunction(num * common, den * common))
        got_num, got_den = (_to_sympy(p, symbols) for p in (red.num, red.den))
        want_num, want_den = sympy.fraction(sympy.cancel(
            _to_sympy(num * common, symbols) / _to_sympy(den * common, symbols)))
        assert sympy.expand(got_num * want_den - want_num * got_den) == 0
        assert sympy.degree(got_den, symbols[0]) == sympy.degree(want_den, symbols[0])
        assert red.den.degree() <= den.degree()
        reduced += red.den.degree() < (den * common).degree()
    assert reduced == 40


def _agrees_with_the_list_euclid(rf) -> bool:
    """lowest_terms gives rf itself exactly when the frozen list Euclid
    does, and otherwise the same num and den, term for term."""
    got, want = lowest_terms(rf), frozen_lowest_terms(rf)
    if want is rf:
        return got is rf
    return got is not rf and (got.num, got.den) == (want.num, want.den)


def test_lowest_terms_agrees_with_the_list_euclid_on_planted_common_factors():
    """The planted quotients, the bare num / den, num * den / den, whose
    gcd is den itself, and 0 / den."""
    for num, den, common in _planted_common_factors():
        for rf in (RationalFunction(num * common, den * common), RationalFunction(num, den),
                   RationalFunction(num * den, den), RationalFunction(num * 0, den)):
            assert _agrees_with_the_list_euclid(rf)


def test_lowest_terms_agrees_with_the_list_euclid_on_the_catalogued_maps(monkeypatch):
    """Every component that a fresh Registry hands lowest_terms while it
    builds the map group, unreduced."""
    seen = []

    def capture(rf):
        seen.append(rf)
        return lowest_terms(rf)

    monkeypatch.setattr(catalog, "lowest_terms", capture)
    catalog.Registry().group_ids("map")
    assert len(seen) >= 28
    assert sum(frozen_lowest_terms(rf) is not rf for rf in seen) >= 3
    assert all(_agrees_with_the_list_euclid(rf) for rf in seen)


def test_the_division_loop_agrees_with_sympy_div_over_gaussian_rationals():
    """40 seeded pairs in x over Q(i): _divmod's quotient and remainder
    equal those of sympy.div over QQ_I."""
    rng = random.Random(20261021)
    symbols = sympy.symbols(("x",))
    for _ in range(40):
        f = _univariate(rng, rng.randint(0, 6))
        g = _univariate(rng, rng.randint(0, 3))
        q, r = _divmod(f, g)
        want_q, want_r = sympy.div(_to_sympy(f, symbols), _to_sympy(g, symbols), symbols[0],
                                   domain=sympy.QQ_I)
        assert sympy.expand(_to_sympy(q, symbols) - want_q) == 0
        assert sympy.expand(_to_sympy(r, symbols) - want_r) == 0


def _random_surface(rng, n):
    """A sparse integer cubic or quartic over x1..xn with 2 to 5 terms and
    no constant term, so that the origin lies on it."""
    degree = rng.choice((3, 4))
    count = rng.randint(2, 5)
    terms = {}
    while len(terms) < count:
        top = degree if not terms else rng.randint(1, degree)
        exps = [0] * n
        for _ in range(top):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return MultiPoly(tuple(f"x{i + 1}" for i in range(n)), terms)


def _sympy_symmetry_dim(p) -> int:
    """The dimension of the affine fields X = A x + b with X(P) = c P: the
    size of a nullspace basis of the linear system in the unknowns (A, b, c) that the
    coefficients of sum_i (A x + b)_i dP/dx_i - c P give, over sympy."""
    xs = sympy.symbols(p.vars)
    n = len(xs)
    poly = _to_sympy(p, xs)
    a = sympy.symbols(f"a0:{n * n}")
    b = sympy.symbols(f"b0:{n}")
    c = sympy.Symbol("c")
    unknowns = (*a, *b, c)
    field = [sum(a[n * i + j] * xs[j] for j in range(n)) + b[i] for i in range(n)]
    expr = sympy.expand(sum(f * sympy.diff(poly, x) for f, x in zip(field, xs)) - c * poly)
    rows = [[coeff.coeff(u) for u in unknowns]
            for coeff in sympy.Poly(expr, *xs).coeffs()]
    return len(sympy.Matrix(rows).nullspace())


def test_affine_symmetry_dimension_agrees_with_a_sympy_nullspace():
    rng = random.Random(4620)
    for _ in range(16):
        p = _random_surface(rng, rng.choice((3, 4)))
        surface = Hypersurface(p, (0,) * len(p.vars))
        assert affine_symmetry_algebra(surface).dim == _sympy_symmetry_dim(p), str(p)
