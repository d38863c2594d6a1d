"""Vector field operations: application, brackets, realification,
tangency multipliers, and rank scans."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubes.fields import (HoloField, VectorField, lie_bracket, linear_combination,
                          minors_scan, rank_at)
from tubes.poly import MultiPoly
from tubes.scalars import I

from oracles import random_poly, realify, tangency_multiplier

XV = ("x1", "x2", "x3", "x4")
X1, X2, X3, X4 = (MultiPoly.var(XV, n) for n in XV)
P6 = X4**2 - X1 * X2 - X1**2 * X3


def vf(**comps):
    return VectorField(XV, tuple(comps.get(v, MultiPoly.zero(XV)) for v in XV))


def test_apply_euler_field():
    vs = ("x",)
    x = MultiPoly.var(vs, "x")
    e = VectorField(vs, (x,))
    assert e.apply(x**3) == 3 * x**3


def test_apply_scaling_field_gives_twice_the_polynomial():
    e = vf(x1=X1, x2=X2, x4=X4)
    assert e.apply(P6) == 2 * P6


def test_apply_constant_field():
    d4 = vf(x4=MultiPoly.const(XV, 1))
    assert d4.apply(P6) == 2 * X4


def test_bracket_antisymmetry_on_self():
    e = vf(x1=X1 * X2, x3=X4**2)
    assert not any(lie_bracket(e, e).components)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_jacobi_identity_randomized(seed):
    rng = random.Random(seed)
    vs = ("a", "b")

    def rand_field():
        return VectorField(vs, (random_poly(rng, vs, 2, 2), random_poly(rng, vs, 2, 2)))

    x, y, z = rand_field(), rand_field(), rand_field()
    total = linear_combination([1, 1, 1], [lie_bracket(x, lie_bracket(y, z)),
                                           lie_bracket(y, lie_bracket(z, x)),
                                           lie_bracket(z, lie_bracket(x, y))])
    assert not any(total.components)


def test_realify_translation():
    z = HoloField(("z1",), (MultiPoly.const(("z1",), I),))
    r = realify(z)
    assert r.variables == ("x1", "y1")
    assert r.components[0].is_zero()
    assert r.components[1] == MultiPoly.const(("x1", "y1"), 1)


def test_realify_euler():
    z1 = MultiPoly.var(("z1",), "z1")
    r = realify(HoloField(("z1",), (z1,)))
    x1 = MultiPoly.var(("x1", "y1"), "x1")
    y1 = MultiPoly.var(("x1", "y1"), "y1")
    assert r.components == (x1, y1)


def test_realify_degree_two_field():
    # components i z1^2 on z2 and -2 i z1 on z3
    ZV = ("z1", "z2", "z3")
    z1 = MultiPoly.var(ZV, "z1")
    field = HoloField(ZV, (MultiPoly.zero(ZV), z1**2 * I, z1 * (-2 * I)))
    r = realify(field)
    rv = r.components[0].vars
    x1 = MultiPoly.var(rv, "x1")
    y1 = MultiPoly.var(rv, "y1")
    assert r.components[1] == -2 * x1 * y1          # x2-component
    assert r.components[4] == x1**2 - y1**2          # y2-component
    assert r.components[2] == 2 * y1                 # x3-component
    assert r.components[5] == -2 * x1                # y3-component


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_realify_respects_brackets(seed):
    rng = random.Random(seed)
    zv = ("z1", "z2")

    def rand_holo():
        return HoloField(zv, (random_poly(rng, zv, 2, 2, complex_coeffs=True),
                              random_poly(rng, zv, 2, 2, complex_coeffs=True)))

    a, b = rand_holo(), rand_holo()
    lhs = realify(lie_bracket(a, b))
    rhs = lie_bracket(realify(a), realify(b))
    assert lhs.components == rhs.components


def test_tangency_multiplier_scaling_field():
    e = vf(x1=X1, x2=X2, x4=X4)
    assert tangency_multiplier(e, P6) == 2


def test_tangency_absent():
    vs = ("x1", "x4")
    p = MultiPoly.var(vs, "x4") - MultiPoly.var(vs, "x1") ** 2
    d1 = VectorField(vs, (MultiPoly.const(vs, 1), MultiPoly.zero(vs)))
    assert tangency_multiplier(d1, p) is None


def test_tangency_rotation_on_sphere():
    sphere = X1**2 + X2**2 + X3**2 + X4**2 - 1
    rot = vf(x1=X2, x2=-X1)
    q = tangency_multiplier(rot, sphere)
    assert q is not None and q.is_zero()


def test_tangent_bracket_multiplier_relation():
    # if X(P) = aP and Y(P) = bP with constants a, b then [X,Y](P) = 0
    e1 = vf(x1=X1, x2=X2, x4=X4)
    e2 = vf(x2=2 * X2, x3=2 * X3, x4=X4)
    br = lie_bracket(e1, e2)
    assert br.apply(P6).is_zero()


def test_tangent_bracket_polynomial_multipliers():
    # X = P V and Y = P W are tangent with multipliers a = V(P), b = W(P);
    # the bracket must satisfy [X,Y](P) = (X(b) - Y(a)) P exactly
    rng = random.Random(314)
    for _ in range(10):
        v = vf(**{n: random_poly(rng, XV, 1, 2) for n in XV})
        w = vf(**{n: random_poly(rng, XV, 1, 2) for n in XV})
        x = VectorField(XV, tuple(c * P6 for c in v.components))
        y = VectorField(XV, tuple(c * P6 for c in w.components))
        a = v.apply(P6)
        b = w.apply(P6)
        lhs = lie_bracket(x, y).apply(P6)
        rhs = (x.apply(b) - y.apply(a)) * P6
        assert lhs == rhs


def rotations():
    out = []
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        comps = {XV[i]: MultiPoly.var(XV, XV[j]), XV[j]: -MultiPoly.var(XV, XV[i])}
        out.append(vf(**comps))
    return out


def test_sphere_rotation_minors_vanish():
    assert all(m.is_zero() for m in minors_scan(rotations()))


def test_four_rotation_fields_determinant_vanishes():
    four = rotations()[:4]
    minors = minors_scan(four)
    assert len(minors) == 1 and minors[0].is_zero()


def test_minors_scan_needs_as_many_fields_as_variables():
    with pytest.raises(ValueError, match="at least as many columns as rows"):
        minors_scan(rotations()[:3])


def test_linear_combination_skips_zero_coefficients():
    rots = rotations()
    combo = linear_combination([0, 2, 0, Fraction(-1, 3), 0, 0], rots)
    assert combo.components == tuple(2 * b - a * Fraction(1, 3) for a, b in
                                     zip(rots[3].components, rots[1].components))
    assert not any(linear_combination([0] * 6, rots).components)


def test_rank_at_points():
    rots = rotations()
    assert rank_at(rots, [1, 0, 0, 0]) == 3
    assert rank_at(rots, [0, 0, 0, 0]) == 0
    single = [vf(x1=X1)]
    assert rank_at(single, [0, 1, 1, 1]) == 0


def test_minors_scan_commutes_with_evaluation():
    rng = random.Random(5)
    fields = [vf(x1=random_poly(rng, XV, 1, 2), x2=random_poly(rng, XV, 1, 2),
                 x3=random_poly(rng, XV, 1, 2), x4=random_poly(rng, XV, 1, 2))
              for _ in range(4)]
    minors = minors_scan(fields)
    point = {v: Fraction(rng.randint(-3, 3)) for v in XV}
    evaluated_minors = [m.eval_at(point) for m in minors]
    # against determinant of the evaluated matrix
    from oracles import cofactor_det
    entries = [[f.components[i] for f in fields] for i in range(4)]
    const = [[MultiPoly.const((), e.eval_at(point)) for e in row] for row in entries]
    assert evaluated_minors[0] == cofactor_det(const).const_coeff()


def test_rank_at_dimension_mismatch():
    with pytest.raises(ValueError):
        rank_at([vf(x1=X1)], [1, 2])
