"""Differential checks against sympy on seeded random inputs that no
fixture holds: the univariate Euclid of `lowest_terms` against
`sympy.cancel`, the division loop against `sympy.div` over Q(i), the
dimension of `affine_symmetry_algebra` against a sympy nullspace of a
tangency matrix built here, from sympy's own expansion of X(P) - c P,
and the kernel reference of tests/reference.py itself: its products,
rational substitutions, divisions, gcds and series against sympy's. The
same planted common factors, and every component that the in-code
catalog hands `lowest_terms`, are also checked against the reference's
gcd. Skipped when sympy is missing."""

import random
from fractions import Fraction

import pytest

from tubes import catalog
from tubes.poly import MultiPoly, RationalFunction, _divmod, lowest_terms
from tubes.scalars import GaussianRational
from tubes.symmetry import Hypersurface, affine_symmetry_algebra

import reference as ref

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


def _agrees_with_the_reference(rf) -> bool:
    """lowest_terms gives rf itself exactly when its denominator does not
    use exactly one variable x, or when the reference's gcd G of den and
    every coefficient of num in Q(i)[x] is a constant; otherwise num / G
    and den / G for the monic G, term for term."""
    got = lowest_terms(rf)
    used = rf.den.used_vars()
    if len(used) != 1:
        return got is rf
    x = rf.vars.index(used[0])
    g = ref.poly(rf.den)
    for part in ref.coefficients_in(ref.poly(rf.num), x).values():
        g = ref.gcd_univariate(part, g)
    if not ref.degree(g):
        return got is rf
    g = ref.monic(g)
    num, num_rest = ref.divide(ref.poly(rf.num), g)
    den, den_rest = ref.divide(ref.poly(rf.den), g)
    assert not num_rest and not den_rest
    return got is not rf and (ref.poly(got.num), ref.poly(got.den)) == (num, den)


def test_lowest_terms_agrees_with_the_reference_on_planted_common_factors():
    """The planted quotients, the bare num / den, num * den / den, whose
    gcd is den itself, and 0 / den."""
    for num, den, common in _planted_common_factors():
        for rf in (RationalFunction(num * common, den * common), RationalFunction(num, den),
                   RationalFunction(num * den, den), RationalFunction(num * 0, den)):
            assert _agrees_with_the_reference(rf)


def test_lowest_terms_agrees_with_the_reference_in_a_later_variable():
    """The planted quotients moved to w2 of (w1, w2, w3), with num given
    w1 and w3 terms too: the denominator and the common factor use a
    variable after the first, whose exponent field lowest_terms must
    find; every one reduces."""
    names = ("w1", "w2", "w3")
    w1, w3 = MultiPoly.var(names, "w1"), MultiPoly.var(names, "w3")

    def in_w2(p):
        return p.rename_vars({"x": "w2"}).with_vars(names)

    for num, den, common in _planted_common_factors():
        num = in_w2(num) * (w1 + 2) + in_w2(den) * w3**2
        rf = RationalFunction(num * in_w2(common), in_w2(den * common))
        assert lowest_terms(rf) is not rf
        assert _agrees_with_the_reference(rf)


def test_lowest_terms_agrees_with_the_reference_on_the_catalogued_maps(monkeypatch):
    """Every component that a fresh Registry hands lowest_terms while it
    builds the map group, unreduced; at least 3 of them reduce."""
    seen = []

    def capture(rf):
        seen.append(rf)
        return lowest_terms(rf)

    monkeypatch.setattr(catalog, "lowest_terms", capture)
    catalog.Registry().group_ids("map")
    assert len(seen) >= 28
    assert sum(lowest_terms(rf) is not rf for rf in seen) >= 3
    assert all(_agrees_with_the_reference(rf) for rf in seen)


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


def _ref_to_sympy(a, symbols):
    """A reference polynomial as a sympy expression."""
    return sum(((sympy.Rational(re.numerator, re.denominator)
                 + sympy.I * sympy.Rational(im.numerator, im.denominator))
                * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
                for e, (re, im) in a.items()), sympy.Integer(0))


def _reference_poly(rng, width, terms, degree):
    """A seeded reference polynomial over Q(i) in `width` variables with up
    to `terms` terms of total degree up to `degree`."""
    out = {}
    for _ in range(terms):
        exps = [0] * width
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(width)] += 1
        out = ref.add(out, {tuple(exps): ref.pair(_gaussian(rng))})
    return out


def _reference_univariate(rng, degree):
    """A reference polynomial in one variable of exactly this degree."""
    out = _reference_poly(rng, 1, degree + 1, degree - 1) if degree else {}
    lead = ref.ZERO
    while lead == ref.ZERO:
        lead = ref.pair(_gaussian(rng))
    return ref.add(out, {(degree,): lead})


def test_the_reference_multiplies_as_sympy_does():
    rng = random.Random(5101)
    xs = sympy.symbols("x y z")
    for _ in range(20):
        a, b = (_reference_poly(rng, 3, 5, 3) for _ in range(2))
        got = _ref_to_sympy(ref.mul(a, b), xs)
        assert sympy.expand(got - _ref_to_sympy(a, xs) * _ref_to_sympy(b, xs)) == 0


def test_the_reference_substitutes_rational_values_as_sympy_does():
    """p(x, y) at x = n1 / d1, y = n2 / d2 over u, v: the reference's D is
    d1**top1 d2**top2, tops the degrees of p, and its N is sympy's
    simultaneous substitution times D, expanded."""
    rng = random.Random(5102)
    xy, uv = sympy.symbols("x y"), sympy.symbols("u v")
    for _ in range(20):
        p = _reference_poly(rng, 2, 4, 3)
        images = []
        for _ in xy:
            den = ref.add(_reference_poly(rng, 2, 2, 2), ref.const(2, 1))
            images.append((_reference_poly(rng, 2, 3, 2), den))
        num, den = ref.substitute(p, images, 2)
        # each denominator a symbol first, so that sympy clears its powers
        marks = sympy.symbols("d1 d2")
        clear = sympy.Mul(*(d**ref.degree(p, i) for i, d in enumerate(marks)))
        values = {x: _ref_to_sympy(n, uv) / d for x, (n, _), d in zip(xy, images, marks)}
        cleared = sympy.expand(_ref_to_sympy(p, xy).subs(values, simultaneous=True) * clear)
        dens = {d: _ref_to_sympy(image[1], uv) for d, image in zip(marks, images)}
        assert sympy.expand(_ref_to_sympy(num, uv) - cleared.subs(dens)) == 0
        assert sympy.expand(_ref_to_sympy(den, uv) - clear.subs(dens)) == 0


def test_the_reference_divides_as_sympy_does_over_gaussian_rationals():
    rng = random.Random(5103)
    x = sympy.symbols("x")
    for _ in range(20):
        f = _reference_univariate(rng, rng.randint(0, 6))
        g = _reference_univariate(rng, rng.randint(0, 3))
        q, r = ref.divide(f, g)
        want_q, want_r = sympy.div(_ref_to_sympy(f, (x,)), _ref_to_sympy(g, (x,)), x,
                                   domain=sympy.QQ_I)
        assert sympy.expand(_ref_to_sympy(q, (x,)) - want_q) == 0
        assert sympy.expand(_ref_to_sympy(r, (x,)) - want_r) == 0


def test_the_reference_gcd_is_sympys_monic_gcd():
    """a G and b G for seeded a, b and a planted G over Q(i)."""
    rng = random.Random(5104)
    x = sympy.symbols("x")
    for _ in range(20):
        common = _reference_univariate(rng, rng.randint(0, 2))
        a, b = (ref.mul(_reference_univariate(rng, rng.randint(0, 3)), common)
                for _ in range(2))
        want = sympy.Poly(_ref_to_sympy(a, (x,)), x, domain=sympy.QQ_I).gcd(
            sympy.Poly(_ref_to_sympy(b, (x,)), x, domain=sympy.QQ_I))
        got = sympy.Poly(_ref_to_sympy(ref.gcd_univariate(a, b), (x,)), x, domain=sympy.QQ_I)
        assert got == want.monic()


def test_the_reference_series_is_sympys_through_degree_6():
    """num / den in x, y with den = c0 + E, c0 != 0: sympy's expansion of
    num * sum_k (-E)**k / c0**(k+1) over k <= 6, whose terms of total
    degree up to 6 are those of num / den, as E has no constant term."""
    rng = random.Random(5105)
    xy = sympy.symbols("x y")
    for _ in range(20):
        num = _reference_poly(rng, 2, 3, 3)
        den = ref.add(_reference_poly(rng, 2, 2, 2), ref.const(2, _gaussian(rng) or 1))
        c0 = den.get((0, 0), ref.ZERO)
        if c0 == ref.ZERO:
            continue
        tail = _ref_to_sympy(ref.sub(den, ref.const(2, c0)), xy)
        c0 = _ref_to_sympy(ref.const(0, c0), ())
        geometric = sum((-tail)**k / c0**(k + 1) for k in range(7))
        full = sympy.Poly(sympy.expand(_ref_to_sympy(num, xy) * geometric), *xy)
        want = sum((c * sympy.Mul(*(s**k for s, k in zip(xy, e)))
                    for e, c in full.terms() if sum(e) <= 6), sympy.Integer(0))
        assert sympy.expand(_ref_to_sympy(ref.series(num, den, 6), xy) - want) == 0


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
