"""Core polynomial, rational function and relation-context behavior."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tubes.fields
import tubes.linalg
import tubes.poly
import tubes.symmetry
from tubes import catalog, cli
from tubes.fields import VectorField, lie_bracket
from tubes.poly import (MAX_DEGREE, MultiPoly, Powers, RationalFunction, _divmod, _poly,
                        conjugate_each, poly_div_exact, poly_sum, product_sum, series_expand,
                        subs_each, substitute, values_at)
from tubes.relations import RelationContext
from tubes.scalars import GaussianRational, I

import reference as ref
from oracles import boxed_terms, canonical, random_poly, str_terms

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


@st.composite
def ring_polys(draw, variables=VARS):
    """Polynomials whose coefficients are all real, all imaginary, each
    one or the other, or complex; one-term ones often, with coefficient
    1 half the time."""
    kind = draw(st.sampled_from(["real", "imaginary", "mixed", "complex"]))
    count = draw(st.sampled_from([0, 1, 1, 2, 3, 5]))
    terms = {}
    for _ in range(count):
        exps = tuple(draw(st.integers(0, 3)) for _ in variables)
        re, im = draw(small_part(5)), draw(small_part(3))
        if kind == "real" or kind == "mixed" and draw(st.booleans()):
            im = 0
        elif kind != "complex":
            re = 0
        terms[exps] = GaussianRational(re, im)
    if count == 1 and draw(st.booleans()):
        terms = {exps: 1}
    return MultiPoly(variables, terms)


def ring_scalars():
    return st.one_of(small_part(5), small_scalar())


def stored_canonically(p: MultiPoly) -> bool:
    """Every stored part is a nonzero int or a Fraction that is not one."""
    return canonical([*p.re_terms.values(), *p.im_terms.values()])


PAIRED = {"x": "y", "y": "x", "z": "z"}
# the index of each variable's partner under PAIRED
PARTNERS = [VARS.index(PAIRED[v]) for v in VARS]


@settings(max_examples=300, deadline=None)
@given(ring_polys(), ring_polys(), ring_scalars(), st.sampled_from(VARS), ring_scalars(),
       ring_scalars())
def test_split_parts_agree_with_the_reference(a, b, c, name, value, other):
    """Products, scalar multiples, sums, differences, sums of polynomials
    and of products, a substitution, conjugates, specializations and
    point values of the real and imaginary term dicts equal the
    reference's."""
    ra, rb = ref.poly(a), ref.poly(b)
    cases = {
        "mul": (a * b, ref.mul(ra, rb)),
        "scalar": (a * c, ref.scale(ra, c)),
        "add": (a + b, ref.add(ra, rb)),
        "sub": (a - b, ref.sub(ra, rb)),
        "poly_sum": (poly_sum(VARS, [a, b, a]), ref.add(ref.add(ra, rb), ra)),
        "product_sum": (product_sum(VARS, [(a, b), (b, b)], [(a, a)]),
                        ref.sub(ref.add(ref.mul(ra, rb), ref.mul(rb, rb)), ref.mul(ra, ra))),
        "subs_poly": (a.subs_poly({name: b}),
                      ref.substitute(ra, [rb if v == name else ref.var(3, j)
                                          for j, v in enumerate(VARS)], 3)[0]),
        "conjugate": (a.conjugate(PAIRED), ref.conjugate(ra, PARTNERS)),
        "specialize": (a.specialize({name: value}),
                       ref.specialize(ra, {VARS.index(name): value})),
    }
    for case, (got, want) in cases.items():
        assert ref.poly(got) == want, case
        assert stored_canonically(got), case
        assert got.is_real() == all(not im for _, im in want.values()), case
    point = {"x": value, "y": other, "z": c}
    assert ref.pair(a.eval_at(point)) == ref.evaluate(ra, [value, other, c])


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
def test_a_truncated_product_needs_only_the_truncated_factors(a, b, cutoff):
    assert (a.truncate(cutoff) * b.truncate(cutoff)).truncate(cutoff) == (a * b).truncate(cutoff)


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=6), st.tuples(*[st.integers(0, 3)] * 3), st.integers(0, 8))
def test_a_monic_monomial_factor_shifts_the_exponents(p, exps, cutoff):
    m = MultiPoly(VARS, {exps: 1})
    shifted = MultiPoly(VARS, {tuple(a + b for a, b in zip(e, exps)): c
                               for e, c in boxed_terms(p)})
    assert m * p == p * m == shifted
    assert (p * m).truncate(cutoff) == (m * p).truncate(cutoff) == shifted.truncate(cutoff)
    # coefficient 2 scales as it shifts
    assert (m * 2) * p == shifted * 2


@settings(max_examples=80, deadline=None)
@given(polys(max_terms=6), st.tuples(*[st.integers(0, 3)] * 3), small_scalar(),
       st.integers(0, 8))
def test_a_one_term_factor_equals_the_general_loop(p, exps, c, cutoff):
    m = MultiPoly(VARS, {exps: c})
    expected = MultiPoly(VARS, {tuple(a + b for a, b in zip(e, exps)): k * c
                                for e, k in boxed_terms(p)})
    assert m * p == p * m == expected
    assert (p * m).truncate(cutoff) == (m * p).truncate(cutoff) == expected.truncate(cutoff)
    # m + z has two terms, so its product with p runs the general loop;
    # z's exponents stay clear of m's and p's
    z = MultiPoly(VARS, {(4, 4, 4): 1})
    assert (m + z) * p - z * p == expected


def test_a_one_term_factor_keeps_the_degree_bound():
    x, y = (MultiPoly.var(XY, n) for n in XY)
    a = (x ** 200 + y) * 3
    assert a * (x ** 55 * 2) == MultiPoly(XY, {(255, 0): 6, (55, 1): 6})
    with pytest.raises(OverflowError, match=r"total degree 200 \+ 56 exceeds 255"):
        a * (x ** 55 * y * 2)
    with pytest.raises(OverflowError, match=r"total degree 56 \+ 200 exceeds 255"):
        (x ** 55 * y * GaussianRational(0, 1)) * a


def test_a_constant_factor_skips_the_degree_check(monkeypatch):
    """A constant raises no degree, so a product by one, real or complex,
    on either side, makes no `_check_degrees` call."""
    x, y = (MultiPoly.var(XY, n) for n in XY)
    top = x ** 255
    p = MultiPoly(XY, {(255, 0): 1, (0, 1): I})
    calls = []
    check = tubes.poly._check_degrees

    def spying(*parts):
        calls.append(parts)
        return check(*parts)

    monkeypatch.setattr(tubes.poly, "_check_degrees", spying)
    for c in (3, Fraction(-2, 3), I, GaussianRational(Fraction(1, 2), -1), 0):
        assert p * c == c * p == MultiPoly(XY, {(255, 0): c, (0, 1): c * I})
    assert top * 3 == MultiPoly(XY, {(255, 0): 3})
    assert top * I == MultiPoly(XY, {(255, 0): I})
    assert not calls
    x * y
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(polys(), max_size=5))
def test_poly_sum_is_the_left_fold_of_add(ps):
    fold = MultiPoly.zero(VARS)
    for p in ps:
        fold = fold + p
    assert poly_sum(VARS, ps) == fold
    assert poly_sum(VARS, ps + [-p for p in reversed(ps)]).terms == {}


def test_poly_sum_rejects_mixed_variables():
    with pytest.raises(ValueError, match="mismatch"):
        poly_sum(("x",), [MultiPoly.var(("x",), "x"), MultiPoly.var(("y",), "y")])


def rationals():
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


UV = ("u", "v")


@settings(max_examples=50, deadline=None)
@given(polys(max_terms=3), st.lists(polys(UV, max_terms=3, max_exp=2), min_size=3, max_size=3),
       polys(max_terms=3, max_exp=2), st.tuples(rationals(), rationals(), rationals()))
def test_subs_poly_agrees_with_eval_at(p, images, x_image, point):
    at = dict(zip(UV, point))
    full = dict(zip(VARS, images))
    assert p.subs_poly(full).eval_at(at) == p.eval_at({v: q.eval_at(at) for v, q in full.items()})
    # unmapped variables map to themselves
    at = dict(zip(VARS, point))
    assert (p.subs_poly({"x": x_image}).eval_at(at)
            == p.eval_at({**at, "x": x_image.eval_at(at)}))


# the kept variables y and z in another order, an extra name w, and x itself
KEPT_TARGET = ("z", "w", "x", "y")


@settings(max_examples=50, deadline=None)
@given(polys(max_terms=4), polys(KEPT_TARGET, max_terms=2, max_exp=2),
       st.tuples(rationals(), rationals(), rationals(), rationals()))
def test_subs_poly_moves_kept_variables_into_the_target(p, extra, point):
    at = dict(zip(KEPT_TARGET, point))
    # x -> x + y + extra mentions the mapped variable itself
    image = MultiPoly.var(KEPT_TARGET, "x") + MultiPoly.var(KEPT_TARGET, "y") + extra
    out = p.subs_poly({"x": image})
    assert out.vars == KEPT_TARGET
    assert out.eval_at(at) == p.eval_at({"x": image.eval_at(at), "y": at["y"], "z": at["z"]})


@settings(max_examples=80, deadline=None)
@given(polys(max_terms=6), polys(max_terms=3, max_exp=2), st.sampled_from(VARS))
def test_subs_poly_one_variable_path_equals_the_composer(p, image, name):
    # mapping a second variable to itself changes nothing
    other = next(v for v in VARS if v != name)
    general = p.subs_poly({name: image, other: MultiPoly.var(VARS, other)})
    assert p.subs_poly({name: image}).terms == general.terms


def test_subs_each_equals_the_composer_and_returns_untouched_polys_as_they_are():
    rng = random.Random(23)
    for _ in range(60):
        name = rng.choice(VARS)
        other = next(v for v in VARS if v != name)
        value = random_poly(rng, VARS, max_degree=2, max_terms=3)
        polys = [random_poly(rng, VARS, max_degree=3, max_terms=5) for _ in range(5)]
        parts = [p.re_terms for p in polys]
        for p, part, out in zip(polys, parts, subs_each(parts, VARS, name, value.re_terms)):
            assert out == p.subs_poly({name: value}).re_terms
            # a second variable mapped to itself goes through the composer
            assert out == p.subs_poly({name: value, other: MultiPoly.var(VARS, other)}).re_terms
            assert (out is part) == (name not in p.used_vars())


def _assert_subs_each_matches_the_reference(parts, variables, name, value):
    """Each output of subs_each is the reference's substitution of value
    for name, stored canonically, and a part without name comes back as
    the same dict."""
    width = len(variables)
    image = ref.poly(_poly(variables, value))
    images = [image if v == name else ref.var(width, j) for j, v in enumerate(variables)]
    for part, out in zip(parts, subs_each(parts, variables, name, value)):
        want, _ = ref.substitute(ref.poly(_poly(variables, part)), images, width)
        assert ref.poly(_poly(variables, out)) == want
        assert canonical(out.values()), out
        held = any(k >> 8 * (width - 1 - variables.index(name)) & 255 for k in part)
        assert (out is part) == (not held)


HYPERSURFACES = sorted(f for f in catalog.list_ids("surface.*")
                       if catalog.get(f).kind == "hypersurface")


@pytest.mark.parametrize("fid", HYPERSURFACES)
def test_subs_each_matches_the_reference_on_the_catalog(fid):
    """Each variable of a catalogued defining polynomial P replaced by the
    derivative of P in the next variable, in P and its gradient."""
    p = catalog.get(fid).payload.defining
    names = p.vars
    parts = [p.re_terms] + [p.diff(v).re_terms for v in names]
    for i, name in enumerate(names):
        value = p.diff(names[(i + 1) % len(names)]).re_terms
        _assert_subs_each_matches_the_reference(parts, names, name, value)


def test_subs_each_matches_the_reference_on_random_parts():
    """Rational coefficients; values that are zero, constant, one term,
    or hold the substituted variable itself."""
    rng = random.Random(43)
    for _ in range(150):
        name = rng.choice(VARS)
        kind = rng.randrange(4)
        if kind == 0:
            value = {}
        elif kind == 1:
            value = MultiPoly.const(VARS, Fraction(rng.randint(-5, 5), rng.randint(1, 3))).re_terms
        else:
            value = random_poly(rng, VARS, max_degree=2, max_terms=1 if kind == 2 else 4).re_terms
        parts = [random_poly(rng, VARS, max_degree=4, max_terms=rng.choice((1, 6))).re_terms
                 for _ in range(4)]
        _assert_subs_each_matches_the_reference(parts, VARS, name, value)


@settings(max_examples=150, deadline=None)
@given(st.lists(ring_polys(), min_size=1, max_size=4), ring_scalars(), ring_scalars(),
       ring_scalars())
def test_values_at_equals_the_reference(polys, x, y, z):
    """One shared power table gives each poly the reference's value, as
    canonical (re, im) parts."""
    got = values_at(polys, {"x": x, "y": y, "z": z})
    assert [ref.pair(re, im) for re, im in got] == [ref.evaluate(ref.poly(p), [x, y, z])
                                                    for p in polys]
    assert canonical(c for pair in got for c in pair if c)


def test_values_at_names_the_first_used_variable_the_point_lacks():
    x, z = MultiPoly.var(VARS, "x"), MultiPoly.var(VARS, "z")
    for polys in ([x, z], [z, x], [x * z]):
        with pytest.raises(ValueError, match="no value supplied for variable 'x'"):
            values_at(polys, {"y": 1})
    # an unused variable needs no value, and no polys need no point
    assert values_at([z * I + 1, MultiPoly.zero(VARS)], {"z": 2}) == [(1, 2), (0, 0)]
    assert values_at([], {}) == []
    with pytest.raises(ValueError, match="variable mismatch"):
        values_at([x, MultiPoly.var(("x",), "x")], {"x": 1})


def test_subs_poly_rejects_an_unmapped_variable_missing_from_the_target():
    xy = ("x", "y")
    image = MultiPoly.var(xy, "y")
    for p in (MultiPoly.var(VARS, "z"), MultiPoly.var(VARS, "x")):  # z used, and z unused
        with pytest.raises(ValueError, match="'z' not among"):
            p.subs_poly({"x": image})


@settings(max_examples=50, deadline=None)
@given(polys(max_terms=3), st.lists(polys(UV, max_terms=3, max_exp=2), min_size=6, max_size=6),
       st.lists(small_scalar().filter(bool), min_size=3, max_size=3),
       st.tuples(rationals(), rationals()))
def test_substitute_agrees_with_eval_at(p, parts, den_values, point):
    at = dict(zip(UV, point))
    assignment = {}
    for v, num, den, value in zip(VARS, parts[:3], parts[3:], den_values):
        # shift den so that it takes the nonzero value `value` at the point
        assignment[v] = RationalFunction(num, den - den.eval_at(at) + value)
    out = substitute(p, assignment)
    values = {v: f.num.eval_at(at) / f.den.eval_at(at) for v, f in assignment.items()}
    assert out.den.eval_at(at)
    assert out.num.eval_at(at) == p.eval_at(values) * out.den.eval_at(at)


SRC4 = ("a", "b", "c", "d")
# the source names reordered, and an extra name t
TARGET5 = ("d", "t", "b", "a", "c")


def image_specs(target):
    """target and one entry per variable of SRC4: None keeps it, (num,)
    maps it to a polynomial and (num, den) to a rational function."""
    nums = polys(target, max_terms=3, max_exp=2)
    dens = polys(target, max_terms=2, max_exp=1).filter(bool)
    entry = st.one_of(st.none(), st.tuples(nums), st.tuples(nums, dens))
    return st.tuples(st.just(target), st.lists(entry, min_size=4, max_size=4))


P4 = MultiPoly(SRC4, {(2, 0, 1, 0): 3, (0, 1, 0, 2): I, (1, 1, 1, 1): Fraction(1, 2), (0,) * 4: 5})


@settings(max_examples=80, deadline=None)
@given(polys(SRC4, max_terms=5, max_exp=2),
       st.sampled_from([TARGET5, SRC4]).flatmap(image_specs))
@example(P4, (TARGET5, [None] * 4))  # every variable kept
@example(P4, (SRC4, [None, (MultiPoly.var(SRC4, "a") + 1,), None,  # the same universe
                     (MultiPoly.var(SRC4, "b") * I, MultiPoly.var(SRC4, "c") - 2)]))
def test_compose_matches_the_reference_expansion(p, spec):
    """With no shared base, _compose's numerator is the reference's
    term-by-term expansion sum c * prod num_i**k_i * den_i**(top_i - k_i),
    the kept variables moved to their places in the target."""
    target, entries = spec
    images, mapped = [], {}  # the reference's list and _compose's dict of images
    for i, (v, entry) in enumerate(zip(SRC4, entries)):
        if entry is None:
            images.append(ref.var(len(target), target.index(v)))
        elif len(entry) == 1:
            images.append(ref.poly(entry[0]))
            mapped[i] = (Powers(entry[0]), None, 0)
        else:
            images.append((ref.poly(entry[0]), ref.poly(entry[1])))
            mapped[i] = (Powers(entry[0]), Powers(entry[1]), p.degree(v))
    num, tops = tubes.poly._compose(p, target, mapped)
    assert tops == ()
    assert ref.poly(num) == ref.substitute(ref.poly(p), images, len(target))[0]
    assert stored_canonically(num)


def test_subs_poly_that_maps_no_variable_of_p_copies_its_terms():
    p = MultiPoly(VARS, {(1, 2, 0): 3, (0, 0, 1): I})
    out = p.subs_poly({"w": MultiPoly.var(VARS, "x")})
    assert out == p
    assert (out.re_terms, out.im_terms) == (p.re_terms, p.im_terms)
    assert out.re_terms is not p.re_terms and out.im_terms is not p.im_terms


@settings(max_examples=60, deadline=None)
@given(polys(UV, max_terms=4, max_exp=3), polys(UV, max_terms=3, max_exp=2),
       small_scalar().filter(lambda c: c.im), st.integers(0, 8))
def test_series_expand_matches_the_reference_series(num, den, c0, cutoff):
    for d in (den - den.const_coeff() + c0, MultiPoly.const(UV, c0)):  # a constant second
        assert_series_matches_the_reference([num], d, cutoff)


def assert_series_matches_the_reference(nums, den, cutoff):
    """series_expand gives the scale N its docstring states, canonical,
    and N times the reference's long division of each num by den, stored
    canonically: an int is never a Fraction."""
    scale, expansions = series_expand(nums, den, cutoff)
    assert scale == expected_scale(den.const_coeff(), cutoff)
    assert canonical([scale])
    rden = ref.poly(den)
    for num, expansion in zip(nums, expansions):
        assert ref.poly(expansion) == ref.scale(ref.series(ref.poly(num), rden, cutoff), scale)
        assert stored_canonically(expansion)


def expected_scale(c0, cutoff):
    """The N of series_expand: c0**(cutoff+1) for a real c0, else
    |c0|**(2(cutoff+1))."""
    return ((c0 * c0.conjugate()).re if c0.im else c0.re) ** (cutoff + 1)


def divides(s, t):
    return all(a <= b for a, b in zip(s, t))


@st.composite
def antichain_dens(draw, variables=("x", "y", "z", "t")):
    """A denominator over four variables with a real or non-real constant
    term and two to four nonconstant terms, no one of which divides
    another, with Fraction and non-real coefficients."""
    monos = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(variables)).filter(any),
                          min_size=2, max_size=4, unique=True)
                 .filter(lambda ms: not any(divides(s, t) for s in ms for t in ms if s != t)))
    terms = {m: draw(small_scalar().filter(bool)) for m in monos}
    terms[(0,) * len(variables)] = draw(st.one_of(small_part(5).filter(bool),
                                                  small_scalar().filter(lambda c: c.im)))
    return MultiPoly(variables, terms)


@settings(max_examples=60, deadline=None)
@given(antichain_dens(), st.integers(0, 6))
def test_series_expand_over_antichain_denominators_matches_the_reference(den, cutoff):
    nums = [MultiPoly.const(den.vars, 1), den - den.const_coeff()]
    assert_series_matches_the_reference(nums, den, cutoff)
    scale, expansions = series_expand(nums, den, cutoff)
    for num, expansion in zip(nums, expansions):
        assert (expansion * den).truncate(cutoff) == num.truncate(cutoff) * scale


@settings(max_examples=60, deadline=None)
@given(st.lists(polys(UV, max_terms=4, max_exp=3), min_size=1, max_size=3),
       polys(UV, max_terms=3, max_exp=2), small_scalar().filter(bool), st.integers(0, 6))
def test_series_expand_of_many_numerators_equals_each_expansion_alone(nums, den, c0, cutoff):
    den = den - den.const_coeff() + c0
    scale, shared = series_expand(nums, den, cutoff)
    assert scale == expected_scale(c0, cutoff)
    assert shared == [series_expand([num], den, cutoff)[1][0] for num in nums]
    for num, expansion in zip(nums, shared):
        assert (expansion * den).truncate(cutoff) == num.truncate(cutoff) * scale


GRAPH_IDS = sorted(fid for fid in catalog.registry().keys() if fid.startswith("graph."))


@pytest.mark.parametrize("fid", GRAPH_IDS)
def test_series_expand_matches_the_reference_on_every_graph(fid):
    """The graph function of every graph fixture, alone and with the
    normal-form command's bump, at every cutoff from 6 to 14."""
    graph = catalog.get(fid).payload
    f = graph.im_part if graph.im_part is not None else graph.re_part
    v = f.num.vars
    (h1, h2), pairing = graph.holo_vars[:2], graph.pairing
    w1, w2, w1b, w2b = (MultiPoly.var(v, name) for name in (h1, h2, pairing[h1], pairing[h2]))
    bump = (w1**2 * w1b * w2b + w1b**2 * w1 * w2) * f.den.const_coeff()
    for cutoff in range(6, 15):
        assert_series_matches_the_reference([f.num, bump, f.num + bump], f.den, cutoff)


@settings(max_examples=150, deadline=None)
@given(st.lists(ring_polys(), min_size=1, max_size=3), ring_polys(),
       st.one_of(small_part(5).filter(bool), small_scalar().filter(lambda c: c.im)),
       st.integers(0, 8))
def test_series_expand_matches_the_reference_on_drawn_polynomials(nums, den, c0, cutoff):
    """Real, imaginary and complex coefficients, and a real or a non-real
    den(0)."""
    assert_series_matches_the_reference(nums, den - den.const_coeff() + c0, cutoff)


def test_series_expand_refuses_a_cutoff_above_the_degree_bound():
    x = MultiPoly.var(XY, "x")
    assert series_expand([x ** 255], 1 - x, MAX_DEGREE) == (1, [x ** 255])
    with pytest.raises(OverflowError, match=r"series cutoff 256 exceeds 255"):
        series_expand([x], 1 - x, MAX_DEGREE + 1)


@settings(max_examples=80, deadline=None)
@given(polys(max_terms=6), st.lists(st.booleans(), min_size=3, max_size=3),
       st.tuples(small_scalar(), small_scalar(), small_scalar()))
def test_specialize_matches_the_reference_and_constant_subs_poly(p, chosen, point):
    values = {v: x for v, x, c in zip(VARS, point, chosen) if c}
    rest = tuple(v for v in VARS if v not in values)
    out = p.specialize(values)
    assert out.vars == rest
    assert ref.poly(out) == ref.specialize(ref.poly(p), {VARS.index(v): x
                                                         for v, x in values.items()})
    assert stored_canonically(out)
    assert out == p.subs_poly({v: MultiPoly.const(rest, x) for v, x in values.items()})


def test_eval_at_names_a_missing_used_variable():
    p = MultiPoly.var(VARS, "y") + 1
    assert p.eval_at({"y": 2}) == 3  # unused x and z need no value
    with pytest.raises(ValueError, match="no value supplied for variable 'y'"):
        p.eval_at({"x": 1, "z": 1})
    # with two missing, the first in variable order, not in term order
    q = MultiPoly(VARS, {(0, 0, 3): 1, (1, 0, 0): 2, (0, 1, 0): 1})
    for point in ({"y": 1}, {"y": 1, "w": 0}, {}):
        with pytest.raises(ValueError, match="no value supplied for variable 'x'"):
            q.eval_at(point)
    with pytest.raises(ValueError, match="no value supplied for variable 'z'"):
        q.eval_at({"x": 1, "y": 2})


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=6, max_exp=4),
       st.tuples(*[st.one_of(small_scalar(), small_part(5))] * 3))
def test_eval_at_equals_the_reference(p, point):
    values = dict(zip(VARS, point))
    want = ref.evaluate(ref.poly(p), point)
    assert ref.pair(p.eval_at(values)) == want
    # extra names are ignored
    assert ref.pair(p.eval_at({**values, "w": GaussianRational(0, 1)})) == want


def _two_terms(p):
    return len(p.terms) >= 2


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=5), polys(max_terms=4).filter(_two_terms))
def test_exact_division_gives_back_the_factor(f, g):
    assert poly_div_exact(f * g, g) == f


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=5), polys(max_terms=3).filter(_two_terms))
def test_division_agrees_with_the_reference_or_both_refuse(f, g):
    """poly_div_exact returns the reference's quotient when the
    reference's division leaves no remainder, and refuses otherwise."""
    q, r = ref.divide(ref.poly(f), ref.poly(g))
    if r:
        with pytest.raises(ValueError, match="inexact polynomial division"):
            poly_div_exact(f, g)
    else:
        assert ref.poly(poly_div_exact(f, g)) == q


def test_division_refusals():
    x, y = (MultiPoly.var(XY, n) for n in XY)
    with pytest.raises(ValueError, match="inexact polynomial division"):
        poly_div_exact(x * y + 1, x + y)
    with pytest.raises(ValueError, match="inexact polynomial division"):
        poly_div_exact(x ** 2 + y, x + 1)
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        poly_div_exact(x, MultiPoly.zero(XY))
    with pytest.raises(ValueError, match="variable mismatch"):
        poly_div_exact(MultiPoly.var(("x",), "x"), x)
    with pytest.raises(ValueError, match="variable mismatch"):
        poly_div_exact(MultiPoly.zero(("x",)), x)
    assert poly_div_exact(MultiPoly.zero(XY), x + y) == MultiPoly.zero(XY)


@st.composite
def division_pairs(draw):
    """(f, g) over one to three variables, g nonzero: f a random
    polynomial, or g times one plus another half the time."""
    variables = VARS[:draw(st.integers(1, 3))]
    g = draw(polys(variables, max_terms=3).filter(bool))
    f = draw(polys(variables, max_terms=5))
    if draw(st.booleans()):
        f = f * g + draw(polys(variables, max_terms=2, max_exp=1))
    return f, g


@settings(max_examples=150, deadline=None)
@given(division_pairs())
def test_the_division_loop_leaves_f_as_q_g_plus_r(pair):
    """_divmod gives f == q g + r with r stored canonically; r is zero
    exactly when poly_div_exact returns, and then q is its quotient; over
    one variable, q and r are the reference's, r of degree below g's."""
    f, g = pair
    q, r = _divmod(f, g)
    assert q * g + r == f
    assert stored_canonically(q) and stored_canonically(r)
    try:
        exact = poly_div_exact(f, g)
    except ValueError:
        assert r
    else:
        assert not r and exact == q
    if len(f.vars) == 1:
        assert (ref.poly(q), ref.poly(r)) == ref.divide(ref.poly(f), ref.poly(g))
        assert not r or r.degree() < g.degree()


@pytest.mark.parametrize("exps", [(-1, 0), (1.5, 0), (1.0, 0), (True, 0)])
def test_constructor_rejects_bad_exponents(exps):
    with pytest.raises(ValueError, match="exponents must be nonnegative ints"):
        MultiPoly(("x", "y"), {exps: 1})


def test_constructor_refuses_an_exponent_vector_listed_twice():
    # a zero first entry, or an equal second one, is still a second listing
    for first in (7, 0, Fraction(-3, 2)):
        with pytest.raises(ValueError, match=r"exponent vector \(2, 0\) is listed twice"):
            MultiPoly(("x", "y"), [([2, 0], first), ((0, 1), 1), ((2, 0), Fraction(-3, 2))])
    assert MultiPoly(("x", "y"), [((2, 0), 7), ((0, 2), 7)]) == MultiPoly(
        ("x", "y"), {(2, 0): 7, (0, 2): 7})


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.sampled_from(VARS))
def test_diff_is_a_derivation(a, b, v):
    for w in VARS:
        assert MultiPoly.var(VARS, w).diff(v) == (1 if w == v else 0)
    assert (a + b).diff(v) == a.diff(v) + b.diff(v)
    assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


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
    assert out == RationalFunction(MultiPoly.const(("x1", "x2"), 3))


def test_substitute_keeps_an_unassigned_variable_of_the_target():
    """An unassigned variable of p stays as it is when the target holds
    it, p's own universe under scalar values; a used variable that the
    values' universe lacks is named."""
    xy = ("x", "y")
    p = MultiPoly.var(xy, "x") + MultiPoly.var(xy, "y")
    out = substitute(p, {"x": 1})
    assert out.num == 1 + MultiPoly.var(xy, "y") and out.is_polynomial()
    yx = ("y", "x")
    out = substitute(p, {"x": MultiPoly.var(yx, "x") * 2})
    assert out.num == MultiPoly.var(yx, "y") + MultiPoly.var(yx, "x") * 2
    for value in (MultiPoly.var(("x",), "x"), RationalFunction(MultiPoly.const(("x",), 1),
                                                               MultiPoly.var(("x",), "x"))):
        with pytest.raises(ValueError, match=r"variable 'y' not among \('x',\)"):
            substitute(p, {"x": value})


def test_substitute_shares_the_least_denominator_of_a_pool():
    x = MultiPoly.var(("x", "y"), "x")
    y = MultiPoly.var(("x", "y"), "y")
    w = MultiPoly.var(("w",), "w")
    one = MultiPoly.const(("w",), 1)
    # coprime denominators: the product by max degree
    out = substitute(x**2 * y, {"x": RationalFunction(one, w + 1),
                                "y": RationalFunction(w, w - 1)})
    assert out.den == (w + 1) ** 2 * (w - 1)
    # a shared factor: (w+1)^2 clears both terms, where the product is (w+1)^4
    out = substitute(x**2 + y, {"x": RationalFunction(one, w + 1),
                                "y": RationalFunction(w, (w + 1) ** 2)})
    assert out.den == (w + 1) ** 2
    assert out.num == w + 1  # 1 + w over (w+1)^2


def test_substitute_stays_over_the_product_form_when_no_member_generates_the_pool():
    """(w+1)(w-1) and (w+1)**2 share w+1, which neither is: the least
    member, (w+1)(w-1), does not divide (w+1)**2, so nothing is shared and
    x + y is over (w+1)**3 (w-1), not the least common denominator
    (w+1)**2 (w-1)."""
    xy = ("x", "y")
    x, y = (MultiPoly.var(xy, n) for n in xy)
    w = MultiPoly.var(("w",), "w")
    one = MultiPoly.const(("w",), 1)
    assignment = {"x": RationalFunction(one, (w + 1) * (w - 1)),
                  "y": RationalFunction(one, (w + 1) ** 2)}
    out = substitute(x + y, assignment)
    assert out == assignment["x"] + assignment["y"]
    assert out.den == (w + 1) ** 3 * (w - 1)


def test_substitute_shares_a_denominator_in_two_variables():
    """x and y over one D(u, v): x**2 + x*y + y**2 needs D**2, the largest
    need of a term, not D**(2 + 2), the product form."""
    xy, uv = ("x", "y"), ("u", "v")
    x, y = (MultiPoly.var(xy, n) for n in xy)
    u, v = (MultiPoly.var(uv, n) for n in uv)
    den = u * v - v * 3 + 1
    assignment = {"x": RationalFunction(u, den), "y": RationalFunction(v, den)}
    p = x ** 2 + x * y + y ** 2
    out = substitute(p, assignment)
    assert (out.num, out.den) == (u * u + u * v + v * v, den ** 2)
    # the reference's product form
    images = [(ref.poly(u), ref.poly(den)), (ref.poly(v), ref.poly(den))]
    assert ref.substitute(ref.poly(p), images, 2)[1] == ref.poly(den ** 4)
    # a term of need 1 is raised to the largest need by one power of D
    out = substitute(x * y + x, assignment)
    assert (out.num, out.den) == (u * v + u * den, den ** 2)


def test_substitute_shares_nothing_when_the_least_member_divides_no_other():
    """u + v and u v + 1 use the same variables, but the least of them
    divides no other member, so x + y stays over their product."""
    xy, uv = ("x", "y"), ("u", "v")
    x, y = (MultiPoly.var(xy, n) for n in xy)
    u, v = (MultiPoly.var(uv, n) for n in uv)
    one = MultiPoly.const(uv, 1)
    dens = {0: u + v, 1: u * v + 1}
    assert tubes.poly._shared_bases(dens) == ([], dens)
    out = substitute(x + y, {"x": RationalFunction(one, dens[0]),
                             "y": RationalFunction(one, dens[1])})
    assert (out.num, out.den) == (dens[0] + dens[1], dens[0] * dens[1])


UVW = ("u", "v", "w")


@st.composite
def shared_factor_images(draw):
    """Three images over UVW whose denominators share factors: each is a
    constant times a product of powers of one or two random bases, each
    u itself, one in u or one in u and v with a u v term, or a random
    denominator in u, v and w with a v term, or 1; numerators are random
    polynomials in u, v, w."""
    def base():
        kind = draw(st.sampled_from(["u", "in u", "in u and v"]))
        if kind == "u":
            return MultiPoly.var(UVW, "u")
        u, v = MultiPoly.var(("u", "v"), "u"), MultiPoly.var(("u", "v"), "v")
        lead = draw(small_scalar().filter(bool))
        if kind == "in u and v":
            a, b, c = (draw(small_scalar()) for _ in range(3))
            return u * v * lead + u * a + v * b + c
        degree = draw(st.integers(1, 2))
        rest = draw(polys(("u",), max_terms=2, max_exp=degree - 1))
        return MultiPoly.var(("u",), "u") ** degree * lead + rest
    bases = [base().with_vars(UVW) for _ in range(draw(st.integers(1, 2)))]
    images = []
    for _ in VARS:
        kind = draw(st.sampled_from(["powers", "powers", "powers", "multivariate", "one"]))
        if kind == "powers":
            den = MultiPoly.const(UVW, draw(small_scalar().filter(bool)))
            for b in bases:
                den = den * b ** draw(st.integers(0, 2))
        elif kind == "multivariate":
            # no drawn coefficient is 7, so the v term stays
            den = draw(polys(UVW, max_terms=2, max_exp=1)) + MultiPoly.var(UVW, "v") * 7
        else:
            den = MultiPoly.const(UVW, 1)
        images.append(RationalFunction(draw(polys(UVW, max_terms=3, max_exp=2)), den))
    return dict(zip(VARS, images))


def assert_substitute_matches_the_reference(p, assignment, points):
    """substitute(p, assignment) = N / D has D of no higher degree in any
    variable than the product form prod_v den_v**top_v, and at each point
    where no den_v vanishes, D does not vanish and N = p(values) D, every
    value taken in the reference ring."""
    out = substitute(p, assignment)
    for u in out.vars:
        assert out.den.degree(u) <= sum(p.degree(v) * f.den.degree(u)
                                        for v, f in assignment.items())
    images = {v: (ref.poly(f.num), ref.poly(f.den)) for v, f in assignment.items()}
    num, den, rp = ref.poly(out.num), ref.poly(out.den), ref.poly(p)
    for point in points:
        values = {v: (ref.evaluate(n, point), ref.evaluate(d, point))
                  for v, (n, d) in images.items()}
        if any(d == ref.ZERO for _, d in values.values()):
            continue
        x = [ref.pair_div(*values[v]) for v in p.vars]
        at = ref.evaluate(den, point)
        assert at != ref.ZERO
        assert ref.evaluate(num, point) == ref.pair_mul(ref.evaluate(rp, x), at)


@settings(max_examples=80, deadline=None)
@given(polys(max_terms=5), shared_factor_images(),
       st.lists(st.tuples(rationals(), rationals(), rationals()), min_size=3, max_size=3))
def test_substitute_with_shared_bases_matches_the_reference_at_points(p, assignment, points):
    assert_substitute_matches_the_reference(p, assignment, points)


@st.composite
def powers_of_one_base(draw):
    """(B, [e_x, e_y, e_z], images) for images over UVW whose
    denominators are c_i * B**e_i for one drawn base B in u (often u
    itself), as the catalogued maps and group laws have, with e_i = 1 for
    at least one i; numerators are random polynomials in u, v, w."""
    if draw(st.booleans()):
        base = MultiPoly.var(UVW, "u")
    else:
        degree = draw(st.integers(1, 2))
        lead = draw(small_scalar().filter(bool))
        rest = draw(polys(("u",), max_terms=2, max_exp=degree - 1))
        base = (MultiPoly.var(("u",), "u") ** degree * lead + rest).with_vars(UVW)
    exps = [draw(st.integers(1, 3)) for _ in VARS]
    exps[draw(st.integers(0, len(VARS) - 1))] = 1
    return base, exps, {v: RationalFunction(draw(polys(UVW, max_terms=3, max_exp=2)),
                                            base ** e * draw(small_scalar().filter(bool)))
                        for v, e in zip(VARS, exps)}


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=5), powers_of_one_base(),
       st.lists(st.tuples(rationals(), rationals(), rationals()), min_size=2, max_size=2))
def test_substitute_over_powers_of_one_base_is_over_the_least_common_denominator(
        p, images, points):
    """When a variable of p with e_v = 1 is used, the result is over a
    constant times B**E, E the largest sum_v k_v e_v over the terms of p:
    the least common denominator of the terms."""
    base, exps, assignment = images
    assert_substitute_matches_the_reference(p, assignment, points)
    if min((e for v, e in zip(VARS, exps) if v in p.used_vars()), default=1) > 1:
        return
    top = max((sum(k * e for k, e in zip(t, exps)) for t, _, _ in p.sorted_terms()), default=0)
    den, lcd = ref.poly(substitute(p, assignment).den), ref.power(ref.poly(base), top, 3)
    assert ref.proportional(den, lcd)


# every subcommand whose checks compose rational maps through `substitute`
SPLIT_TRAFFIC = ([["verify-map", "--id", mid] for mid in catalog.list_ids("map.*")]
                 + [[cmd, "--case", case] for cmd in ("isotropy", "group") for case in "DC"]
                 + [["witness", "--id", wid] for wid in catalog.list_ids("witness.*")]
                 + [["classify"]])


def test_the_least_member_split_factors_every_catalogued_pool(monkeypatch, capsys):
    """Every `_shared_bases` call that the catalogued checks make splits
    each denominator, in the reference ring, into its private part times
    the powers of the shared bases it holds. Each shared base is held by
    two or more, is the least member of its pool up to a constant, and
    divides no private part of a member that holds it. At least 8 calls
    share a base in one variable (powers of w1 + 2, w1 + 4, their
    conjugates and rp). The one pool in several variables is the graph
    step of `verify_surface_map` on map.cm.C and map.cm.D, whose w4 and
    its conjugate share exactly the graph denominator D, once each."""
    calls = []
    split = tubes.poly._shared_bases

    def recording(dens):
        out = split(dens)
        calls.append((argv, dict(dens), out))
        return out

    monkeypatch.setattr(tubes.poly, "_shared_bases", recording)
    for argv in SPLIT_TRAFFIC:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    several = {}
    for argv, dens, (shared, private) in calls:
        split_dens = {i: ref.poly(private[i]) for i in dens}
        for base, exps in shared:
            assert len(exps) >= 2
            pool = [dens[i] for i in dens if dens[i].used_vars() == base.used_vars()]
            assert ref.proportional(ref.poly(base), ref.poly(min(pool, key=MultiPoly.degree)))
            for i, e in exps.items():
                width = len(base.vars)
                split_dens[i] = ref.mul(split_dens[i], ref.power(ref.poly(base), e, width))
                assert ref.divide(ref.poly(private[i]), ref.poly(base))[1]
            if len(base.used_vars()) > 1:
                several.setdefault(argv[-1], []).append((base, exps, dens, private))
        assert split_dens == {i: ref.poly(den) for i, den in dens.items()}
    assert sum(1 for _, dens, (shared, _) in calls
               if any(len(base.used_vars()) == 1 for base, _ in shared)) >= 8
    assert sorted(several) == ["map.cm.C", "map.cm.D"]
    for mid, pools in several.items():
        graph = catalog.get(catalog.get(mid).payload.source_graph).payload
        den = graph.solved_pair()[2]
        (base, exps, dens, private), = pools
        assert base == den and len(dens) == 2
        assert exps == dict.fromkeys(dens, 1)
        assert all(private[i] == 1 for i in dens)


def test_series_geometric():
    w = MultiPoly.var(("w",), "w")
    f = RationalFunction(MultiPoly.const(("w",), 1), 1 - w)
    assert series_expand([f.num], f.den, 3) == (1, [1 + w + w**2 + w**3])


def test_series_singular_point():
    w = MultiPoly.var(("w",), "w")
    with pytest.raises(ValueError, match="singular"):
        series_expand([MultiPoly.const(("w",), 1)], w, 3)


def test_series_multiply_back_randomized():
    rng = random.Random(20240817)
    variables = ("u", "v")
    for _ in range(100):
        num = random_poly(rng, variables, max_degree=3, max_terms=4)
        den = random_poly(rng, variables, max_degree=3, max_terms=3)
        den = den - MultiPoly.const(variables, den.const_coeff()) + 1  # den(0) = 1
        cutoff = 5
        scale, (expansion,) = series_expand([num], den, cutoff)
        assert scale == 1
        back = (expansion * den).truncate(cutoff)
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


def test_conjugate_each_keeps_the_checks_of_conjugate():
    """The batch conjugates each poly as `conjugate` does and refuses what
    it refuses: a pairing that is no involution, a partner outside the
    variables, a used variable left unpaired and polys over other
    variables. x is real, paired with itself."""
    vs = ("a", "ab", "x")
    a, ab, x = (MultiPoly.var(vs, n) for n in vs)
    pairing = {"a": "ab", "ab": "a", "x": "x"}
    polys = [a * I + x, ab**2 * 3 - a * x * (1 + I), a * 0]
    assert conjugate_each(polys, pairing) == [ab * -I + x, a**2 * 3 - ab * x * (1 - I), a * 0]
    assert conjugate_each([], pairing) == []
    with pytest.raises(ValueError, match="not an involution at 'x'"):
        conjugate_each([a], {"a": "ab", "ab": "a", "x": "ab"})
    with pytest.raises(ValueError, match="conjugate variable 'q' absent"):
        conjugate_each([a], {"a": "ab", "ab": "a", "x": "q", "q": "x"})
    with pytest.raises(ValueError, match=r"unpaired variables in conjugation: \['x'\]"):
        conjugate_each([a, a * x], {"a": "ab", "ab": "a"})
    with pytest.raises(ValueError, match="variable mismatch"):
        conjugate_each([a, MultiPoly.var(("a", "ab"), "a")], pairing)


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


@settings(max_examples=150, deadline=None)
@given(ring_polys(("a", "s", "c", "cb")), polys(("a",), max_terms=3, max_exp=2),
       st.booleans())
def test_reduce_poly_equals_the_reference_rewrite(p, d, radical_first):
    """The rewrites by key shifts equal the reference's term-by-term
    rewrite, s**k -> d**(k//2) s**(k%2) and c**a cb**b -> c**(a-m)
    cb**(b-m) with m = min(a, b), stored canonically; a radical and a
    unit pair together, in either order of adjoined variables."""
    p = p * p  # exponents up to 6, so every rewrite has work
    ctx = RelationContext(radicals=(("s", d),), unit_pairs=(("c", "cb"),))
    if not radical_first:
        p = p.with_vars(("cb", "c", "s", "a"))
    got = ctx.reduce_poly(p)
    width = len(p.vars)
    s, c, cb = (p.vars.index(name) for name in ("s", "c", "cb"))
    rd = ref.poly(d.with_vars(p.vars))
    want = {}
    for e, coeff in ref.poly(p).items():
        e = list(e)
        half, e[s] = divmod(e[s], 2)
        m = min(e[c], e[cb])
        e[c] -= m
        e[cb] -= m
        want = ref.add(want, ref.mul({tuple(e): coeff}, ref.power(rd, half, width)))
    assert ref.poly(got) == want
    assert stored_canonically(got)


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


# dict methods that change their receiver
MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}
# the term dicts of a MultiPoly, and the boxed view of them
TERM_DICTS = {"terms", "re_terms", "im_terms"}


def _term_dict_writes(path):
    """Lines of `path` that assign, delete or mutate `<expr>.re_terms`,
    `<expr>.im_terms` or `<expr>.terms`, or an item of one."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            written = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            written = node.func.value
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            written = node
        else:
            continue
        if isinstance(written, ast.Attribute) and written.attr in TERM_DICTS:
            lines.append(node.lineno)
    return lines


def _term_dict_names(path):
    """Lines of `path` that name `<expr>.re_terms`, `<expr>.im_terms` or
    `<expr>.terms` at all."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in TERM_DICTS]


def test_only_poly_module_writes_term_dicts():
    """poly.py builds every term dict, and no other module of the package
    even reads one, or the boxed `terms` view: term keys are packed ints
    that only poly.py decodes."""
    package = Path(tubes.poly.__file__).parent
    assert _term_dict_writes(package / "poly.py"), "the scan should see the writes in poly.py"
    names = {path.name: _term_dict_names(path) for path in sorted(package.glob("*.py"))
             if path.name != "poly.py"}
    assert {name: lines for name, lines in names.items() if lines} == {}


def test_no_module_imports_a_private_name_of_poly():
    """poly.py keeps its private helpers to itself: no other module of the
    package imports a `_` name from tubes.poly or reads one off the module,
    but the trusted constructor `_poly`."""
    package = Path(tubes.poly.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "poly.py":
            continue
        names = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("poly", 1),
                                                                                ("tubes.poly", 0)):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "poly":
                names.append(node.attr)
        private = sorted({name for name in names if name.startswith("_") and name != "_poly"})
        if private:
            found[path.name] = private
    assert found == {}


TESTS = Path(__file__).parent


def _imports(path):
    """(module, level, name) for every name that `path` imports."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            out += [(node.module, node.level, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, 0, None) for alias in node.names]
    return out


def test_the_reference_is_independent_of_the_engine():
    """tests/reference.py imports nothing from tubes, and tests/oracles.py
    imports no private name of tubes.poly: the kernel tests judge the
    engine in a ring of their own and read it through its public edges."""
    assert [i for i in _imports(TESTS / "reference.py")
            if i[0] == "tubes" or i[0].startswith("tubes.")] == []
    assert [name for module, _, name in _imports(TESTS / "oracles.py")
            if module == "tubes.poly" and name.startswith("_")] == []
    assert not any(module == "tubes" and name == "poly"
                   for module, _, name in _imports(TESTS / "oracles.py"))


def _functions(module):
    """The module-level functions of a module, by name."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_the_inner_loops_box_no_coefficient():
    """The product, the Horner composer, the sum, the series quotient, the
    division loop and the algebra-layer kernels (the scan's substitution,
    the tangency rows, the bracket's sum of products and the shared point
    values) run on the rationals of the term dicts: none names
    GaussianRational or its trusted builder _gr."""
    bodies = _functions(tubes.poly)
    loops = ("_product", "_mac", "_shifted", "_canonical", "_horner", "_split", "_add_into",
             "series_expand", "subs_each", "tangency_rows", "product_sum", "_check_degrees",
             "values_at", "_part_value", "_divmod")
    named = {name: sorted({node.id for node in ast.walk(bodies[name])
                           if isinstance(node, ast.Name)} & {"GaussianRational", "_gr"})
             for name in loops}
    assert named == {name: [] for name in loops}


def test_the_chart_scan_boxes_no_coefficient():
    """The chart scan, from its equations through its pivot search and
    its substitutions, runs on the rationals of bare term dicts: none
    names a Gaussian-rational box, the boxed constants ONE and ZERO, or
    MultiPoly.var."""
    symmetry, poly = _functions(tubes.symmetry), _functions(tubes.poly)
    bodies = {"_scan_chart": symmetry["_scan_chart"], "_chart_system": symmetry["_chart_system"],
              "linear_pivot": poly["linear_pivot"], "subs_each": poly["subs_each"]}
    named = {}
    for name, body in bodies.items():
        nodes = list(ast.walk(body))
        found = {node.id for node in nodes if isinstance(node, ast.Name)}
        found &= {"GaussianRational", "_gr", "ONE", "ZERO"}
        found |= {"MultiPoly.var" for node in nodes if isinstance(node, ast.Attribute)
                  and node.attr == "var" and getattr(node.value, "id", None) == "MultiPoly"}
        named[name] = sorted(found)
    assert named == {name: [] for name in bodies}


def test_the_bracket_is_one_sum_of_products():
    """lie_bracket builds each component by one poly.product_sum: it names
    neither poly_sum nor the removed MultiPoly route _along."""
    body = _functions(tubes.fields)["lie_bracket"]
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    assert "product_sum" in names
    assert not names & {"poly_sum", "_along"}
    assert not hasattr(tubes.fields, "_along")


def test_the_linear_solves_run_over_q():
    """linalg's one elimination core takes no division parameter, and it,
    the solves built on it and the coordinates they read name no
    Gaussian-rational box: every entry is an int or a Fraction."""
    linalg = _functions(tubes.linalg)
    solves = [linalg[name] for name in ("_rref", "kernel_basis", "solve_columns", "rref_rows")]
    solves.append(_functions(tubes.poly)["coefficient_columns"])
    named = {node.name: sorted({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                               & {"GaussianRational", "_gr", "ZERO", "ONE", "truediv"})
             for node in solves}
    assert named == {node.name: [] for node in solves}
    args = linalg["_rref"].args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["rows", "width"]


XY = ("x", "y")


def test_products_reach_the_degree_bound_and_no_further():
    x, y = (MultiPoly.var(XY, n) for n in XY)
    a = x ** 200
    assert a * x ** 55 == MultiPoly(XY, {(255, 0): 1})
    top = a * (x ** 54 * y)
    assert top == MultiPoly(XY, {(254, 1): 1})
    assert (top.degree(), top.degree("x"), top.sorted_terms()) == (255, 254, [((254, 1), 1, 0)])
    with pytest.raises(OverflowError,
                       match=r"polynomial product: total degree 200 \+ 56 exceeds 255"):
        a * (x ** 55 * y)
    with pytest.raises(OverflowError, match=r"total degree 128 \+ 128"):
        x ** 256


def test_subs_each_reaches_the_degree_bound_and_no_further():
    # x * y^253 has degree 254; x -> y^2 takes it to y^255
    value = MultiPoly(XY, {(0, 2): 1}).re_terms
    top = subs_each([MultiPoly(XY, {(1, 253): 3}).re_terms], XY, "x", value)[0]
    assert top == MultiPoly(XY, {(0, 255): 3}).re_terms
    with pytest.raises(OverflowError, match=r"substitution: total degree 256 exceeds 255"):
        subs_each([MultiPoly(XY, {(1, 254): 3, (0, 1): 1}).re_terms], XY, "x", value)
    # a value of degree 1 never raises a term's degree
    linear = MultiPoly(XY, {(0, 1): 1, (0, 0): 2}).re_terms
    assert len(subs_each([MultiPoly(XY, {(2, 253): 1}).re_terms], XY, "x", linear)[0]) == 3


def test_lie_bracket_reaches_the_degree_bound_and_no_further():
    x = MultiPoly.var(XY, "x")
    zero = MultiPoly.zero(XY)
    # [x^a d/dx, x^128 d/dy] = 128 x^(a + 127) d/dy: the product x^a * x^127
    top = lie_bracket(VectorField(XY, (x ** 128, zero)), VectorField(XY, (zero, x ** 128)))
    assert top.components == (zero, MultiPoly(XY, {(255, 0): 128}))
    with pytest.raises(OverflowError, match=r"total degree 129 \+ 127 exceeds 255"):
        lie_bracket(VectorField(XY, (x ** 129, zero)), VectorField(XY, (zero, x ** 128)))
    # the guard looks at the factors' degrees, before any term cancels
    with pytest.raises(OverflowError, match=r"total degree 129 \+ 128 exceeds 255"):
        same = VectorField(XY, (x ** 129, x ** 129))
        lie_bracket(same, same)


def test_constructor_refuses_a_term_above_the_degree_bound():
    assert MultiPoly(XY, {(255, 0): 1, (100, 155): 2}).degree() == 255
    for exps in [(256, 0), (200, 56), (300, 0)]:
        with pytest.raises(OverflowError, match=rf"total degree {sum(exps)} of the term"):
            MultiPoly(XY, {exps: 1})


exponent_dicts = st.dictionaries(st.tuples(*[st.integers(0, 63)] * 4), small_scalar(), max_size=8)
WXYZ = ("w", "x", "y", "z")


@settings(max_examples=80, deadline=None)
@given(exponent_dicts)
def test_public_edges_give_back_the_exponent_tuples_in_graded_lex_order(terms):
    p = MultiPoly(WXYZ, terms)
    expected = sorted(((e, GaussianRational.coerce(c)) for e, c in terms.items() if c),
                      key=lambda t: (sum(t[0]), t[0]), reverse=True)
    assert p.sorted_terms() == [(e, c.re, c.im) for e, c in expected]
    assert all(p.coeff(e) == c for e, c in expected)
    assert p.degree() == max((sum(e) for e, _ in expected), default=0)
    for i, v in enumerate(WXYZ):
        assert p.degree(v) == max((e[i] for e, _ in expected), default=0)
    assert p.used_vars() == tuple(v for i, v in enumerate(WXYZ) if any(e[i] for e, _ in expected))


@settings(max_examples=80, deadline=None)
@given(exponent_dicts, st.permutations(WXYZ + ("u", "t")))
def test_key_moves_match_the_exponent_tuples(terms, universe):
    p = MultiPoly(WXYZ, terms)
    moved = p.with_vars(universe)
    assert moved == MultiPoly(universe, {
        tuple(e[WXYZ.index(v)] if v in WXYZ else 0 for v in universe): c
        for e, c in boxed_terms(p)})
    assert moved.with_vars(WXYZ) == p
    pairing = {"w": "y", "y": "w", "x": "x", "z": "z"}
    assert p.conjugate(pairing) == MultiPoly(WXYZ, {(e[2], e[1], e[0], e[3]): c.conjugate()
                                                   for e, c in boxed_terms(p)})
    parts = p.bidegree_split(("w", "z"), ("x", "y"))
    assert parts == {key: MultiPoly(WXYZ, {e: c for e, c in boxed_terms(p)
                                           if (e[0] + e[3], e[1] + e[2]) == key})
                     for key in {(e[0] + e[3], e[1] + e[2]) for e, _, _ in p.sorted_terms()}}


@st.composite
def wide_polys(draw):
    """Polynomials over 1-24 variables, with a constant term or none, terms
    of total degree up to MAX_DEGREE and integer, fractional, negative and
    Gaussian coefficients (1 and -1 among them); the zero polynomial too."""
    names = tuple(f"t{i % 3}_{i}" for i in range(draw(st.integers(1, 24))))
    coeffs = st.one_of(st.sampled_from([1, -1]), st.integers(-10**6, 10**6),
                       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                       small_scalar())
    # the outermost exponent fields, or any
    places = st.one_of(st.sampled_from([0, len(names) - 1]), st.integers(0, len(names) - 1))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = [0] * len(names)
        for i in draw(st.lists(places, max_size=4, unique=True)):
            exps[i] = draw(st.integers(0, MAX_DEGREE - sum(exps)))
        terms[tuple(exps)] = draw(coeffs)
    if draw(st.booleans()):
        terms[(0,) * len(names)] = draw(coeffs)
    return MultiPoly(names, terms)


WIDE = tuple(f"t{i}" for i in range(24))


@settings(max_examples=200, deadline=None)
@given(wide_polys())
@example(MultiPoly(WIDE, {(MAX_DEGREE,) + (0,) * 23: Fraction(-1, 2),
                          (1,) + (0,) * 22 + (2,): GaussianRational(0, 3),
                          (0,) * 23 + (MAX_DEGREE,): 1, (0,) * 24: -7}))
def test_str_matches_the_frozen_term_loop(p):
    assert str(p) == str_terms(p)
    assert repr(p) == f"MultiPoly({p.vars}, {str_terms(p)})"
