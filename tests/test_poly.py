"""Core polynomial, rational function and relation-context behavior."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubes.poly import (MultiPoly, RationalFunction, merge_vars, mul_trunc,
                        series_expand, substitute)
from tubes.relations import RelationContext
from tubes.scalars import GaussianRational, I

from oracles import random_poly

VARS = ("x", "y", "z")


def small_part(bound):
    return st.one_of(st.integers(-bound, bound),
                     st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 4)))


def small_scalar():
    return st.builds(GaussianRational, small_part(5), small_part(3))


@st.composite
def polys(draw, variables=VARS, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in variables)
        terms[exps] = draw(small_scalar())
    return MultiPoly(variables, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(polys(max_terms=6), polys(max_terms=6), st.integers(0, 10))
def test_mul_trunc_is_truncated_product(a, b, cutoff):
    assert mul_trunc(a, b, cutoff) == (a * b).truncate(cutoff)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_additive_inverse_and_zero(p):
    assert (p - p).is_zero()
    assert p + MultiPoly.zero(VARS) == p
    assert p * MultiPoly.const(VARS, 1) == p


def test_substitute_rational_composition():
    x = MultiPoly.var(("x",), "x")
    w = MultiPoly.var(("w",), "w")
    out = substitute(x**2, {"x": RationalFunction(w + 1, w - 1)})
    assert out == RationalFunction((w + 1) ** 2, (w - 1) ** 2)


def test_substitute_evaluation():
    p = MultiPoly.var(("x1", "x2"), "x1") * MultiPoly.var(("x1", "x2"), "x2")
    out = substitute(p, {"x1": 2, "x2": Fraction(3, 2)})
    assert out == RationalFunction.from_scalar(("x1", "x2"), 3)


def test_substitute_missing_variable():
    p = MultiPoly.var(("x", "y"), "x") + MultiPoly.var(("x", "y"), "y")
    with pytest.raises(ValueError, match="y"):
        substitute(p, {"x": 1})


def test_substitute_denominator_product_contract():
    # den(result) is the product of assignment denominators by max degree
    x = MultiPoly.var(("x", "y"), "x")
    y = MultiPoly.var(("x", "y"), "y")
    w = MultiPoly.var(("w",), "w")
    f = RationalFunction(MultiPoly.const(("w",), 1), w + 1)
    g = RationalFunction(w, w - 1)
    out = substitute(x**2 * y, {"x": f, "y": g})
    assert out.den == (w + 1) ** 2 * (w - 1)


def test_series_geometric():
    w = MultiPoly.var(("w",), "w")
    f = RationalFunction(MultiPoly.const(("w",), 1), 1 - w)
    assert series_expand(f, 3) == 1 + w + w**2 + w**3


def test_series_singular_point():
    w = MultiPoly.var(("w",), "w")
    with pytest.raises(ValueError, match="singular"):
        series_expand(RationalFunction(MultiPoly.const(("w",), 1), w), 3)


def test_series_multiply_back_randomized():
    rng = random.Random(20240817)
    variables = ("u", "v")
    for _ in range(100):
        num = random_poly(rng, variables, max_degree=3, max_terms=4)
        den = random_poly(rng, variables, max_degree=3, max_terms=3)
        den = den - MultiPoly.const(variables, den.const_coeff()) + 1  # den(0) = 1
        f = RationalFunction(num, den)
        cutoff = 5
        expansion = series_expand(f, cutoff)
        back = mul_trunc(expansion, den, cutoff)
        assert back == num.truncate(cutoff)


def test_bidegree_split_examples():
    vs = ("w1", "w3", "w2b")
    w1 = MultiPoly.var(vs, "w1")
    w3 = MultiPoly.var(vs, "w3")
    w2b = MultiPoly.var(vs, "w2b")
    p = w1 * w2b + w3
    parts = p.bidegree_split(("w1", "w3"), ("w2b",))
    assert parts[(1, 1)] == w1 * w2b
    assert parts[(1, 0)] == w3
    with pytest.raises(ValueError, match="unclassified"):
        p.bidegree_split(("w1",), ("w2b",))


@settings(max_examples=40, deadline=None)
@given(polys(variables=("a", "b", "ab", "bb")))
def test_bidegree_parts_sum_to_input(p):
    parts = p.bidegree_split(("a", "b"), ("ab", "bb"))
    total = MultiPoly.zero(p.vars)
    for part in parts.values():
        total = total + part
    assert total == p


PAIRING = {"a": "ab", "ab": "a", "b": "bb", "bb": "b"}


def test_conjugate_example():
    vs = ("a", "ab")
    a = MultiPoly.var(vs, "a")
    got = (a * I).conjugate({"a": "ab", "ab": "a"})
    assert got == MultiPoly.var(vs, "ab") * GaussianRational(0, -1)


@settings(max_examples=40, deadline=None)
@given(polys(variables=("a", "b", "ab", "bb")))
def test_conjugate_involution(p):
    assert p.conjugate(PAIRING).conjugate(PAIRING) == p


def test_rational_function_equality_cross_multiplication():
    x = MultiPoly.var(("x",), "x")
    one = MultiPoly.const(("x",), 1)
    f = RationalFunction(x**2 - 1, x - 1)
    g = RationalFunction((x + 1) * (x + 2), x + 2)
    assert f == g
    assert f != RationalFunction(x, one)


def test_relation_radical_reduction():
    vs = ("a", "rho")
    a = MultiPoly.var(vs, "a")
    rho = MultiPoly.var(vs, "rho")
    ctx = RelationContext(radicals=(("rho", a),))
    assert ctx.reduce_poly(rho**3) == a * rho
    assert ctx.reduce_poly((rho - a) * (rho + a)) == a - a**2


def test_relation_unit_pair_reduction():
    vs = ("c", "cb")
    c = MultiPoly.var(vs, "c")
    cb = MultiPoly.var(vs, "cb")
    ctx = RelationContext(unit_pairs=(("c", "cb"),))
    assert ctx.reduce_poly(c**2 * cb) == c
    assert ctx.reduce_poly(c * cb) == MultiPoly.const(vs, 1)


def test_relation_rejects_radical_mentioning_adjoined():
    vs = ("a", "rho")
    rho = MultiPoly.var(vs, "rho")
    with pytest.raises(ValueError):
        RelationContext(radicals=(("rho", rho),))


def test_variable_mismatch_raises():
    x = MultiPoly.var(("x",), "x")
    y = MultiPoly.var(("y",), "y")
    with pytest.raises(ValueError, match="mismatch"):
        _ = x + y
