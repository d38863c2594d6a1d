"""Bidegree series, trace conditions, coordinate changes, families."""

import gc
import random
from fractions import Fraction

import pytest

import tubes.poly
from tubes import catalog, cli
from tubes.fields import lie_bracket
from tubes.linalg import rref_rows
from tubes.normal_form import (BidegreeSeries, GraphSurface, MapFamily, chern_moser_check,
                               defining_series, infinitesimal_generators,
                               map_at_origin, trace_from_levi,
                               verify_family_invariance, verify_group_law,
                               verify_map_conjugation, verify_surface_map)
from tubes.poly import MultiPoly, RationalFunction, series_expand, substitute
from tubes.relations import RelationContext
from tubes.scalars import GaussianRational, I
from tubes.symmetry import LieAlgebraPresentation, expand_in_fields

import reference as ref
from oracles import boxed_terms, dense_structure

WG = ("w1", "w2", "w3", "w1b", "w2b", "w3b")
W1, W2, W3, W1B, W2B, W3B = (MultiPoly.var(WG, n) for n in WG)
ZF_ANTI = ("z1b", "z2b", "z3b", "z4b")


def graph(case):
    return catalog.get(f"graph.cm.{case}").payload


def tube_rho(case):
    return catalog.get(f"map.cm.{case}").payload.target


def failed_names(report):
    """The names of the conditions a NormalFormReport fails."""
    return tuple(name for name, ok, _ in report.conditions if not ok)


# ------------------------------------------------------------------- series

def test_series_parts_match_recorded_values():
    series = defining_series(graph("D"), 8)
    assert series.part(1, 1) == (W3 * W3B + W1 * W2B + W2 * W1B) * Fraction(1, 2)
    want22 = ((W1**2 * W1B * W2B + W1B**2 * W1 * W2) * Fraction(-5, 32)
              + (W1**2 * W3B**2 + W1B**2 * W3**2) * Fraction(25, 64)
              + W1 * W1B * W3 * W3B * Fraction(5, 8))
    assert series.part(2, 2) == want22
    want32 = (W1**3 * W3B**2 * Fraction(-75, 128)
              + W1**2 * W3 * W1B * W3B * Fraction(-75, 64)
              + W1 * W3**2 * W1B**2 * Fraction(-75, 128))
    assert series.part(3, 2) == want32
    want33 = ((W1**3 * W1B**2 * W2B + W1B**3 * W1**2 * W2) * Fraction(25, 512)
              + (W1**3 * W1B * W3B**2 + W1B**3 * W1 * W3**2) * Fraction(175, 128)
              + W1**2 * W1B**2 * W3 * W3B * Fraction(1425, 512))
    assert series.part(3, 3) == want33


def test_series_multiply_back():
    g = graph("D")
    series = defining_series(g, 8)
    total = MultiPoly.zero(WG)
    for k, l in series.parts:
        total = total + series.part(k, l)
    assert (total * g.im_part.den).truncate(8) == g.im_part.num.truncate(8)
    stored = MultiPoly.zero(WG)
    for part in series.parts.values():
        stored = stored + part
    assert stored == total * series.scale


def test_series_reality_and_origin():
    for case in ("D", "C"):
        series = defining_series(graph(case), 8)
        series.verify_reality()
        assert series.part(0, 0).is_zero()


def mirrored_parts():
    """The graph-D parts with a real (3,1) + (1,3) pair added, so that
    both sides of that mirror pair are present."""
    parts = dict(defining_series(graph("D"), 8).parts)
    parts[(3, 1)] = W1**3 * W2B * GaussianRational(2, 1)
    parts[(1, 3)] = W1B**3 * W2 * GaussianRational(2, -1)
    return parts


def verify_reality(parts):
    BidegreeSeries(8, ("w1", "w2", "w3"), ("w1b", "w2b", "w3b"), parts).verify_reality()


def test_reality_check_passes_on_a_real_mirror_pair():
    verify_reality(mirrored_parts())


@pytest.mark.parametrize("side", [(3, 1), (1, 3)])
def test_reality_check_catches_either_side_of_a_pair_perturbed(side):
    parts = mirrored_parts()
    parts[side] = parts[side] + W1**2 * W3 * W1B
    with pytest.raises(AssertionError, match="reality fails"):
        verify_reality(parts)


@pytest.mark.parametrize("side", [(3, 1), (1, 3), (2, 3), (3, 2)])
def test_reality_check_catches_either_side_of_a_pair_dropped(side):
    parts = mirrored_parts()
    del parts[side]
    with pytest.raises(AssertionError, match="reality fails"):
        verify_reality(parts)


def test_reality_check_calls_no_per_part_conjugate(monkeypatch):
    """Cost guard: verify_reality checks the pairing and plans the swap
    once for all the parts (`conjugate_each`), so it calls
    MultiPoly.conjugate zero times; a perturbed part still fails."""
    calls = []
    conjugate = MultiPoly.conjugate
    monkeypatch.setattr(MultiPoly, "conjugate",
                        lambda self, pairing: calls.append(self) or conjugate(self, pairing))
    defining_series(graph("D"), 14).verify_reality()
    parts = mirrored_parts()
    parts[(1, 3)] = parts[(1, 3)] + W1**2 * W3 * W1B
    with pytest.raises(AssertionError, match="reality fails"):
        verify_reality(parts)
    assert calls == []


@pytest.mark.parametrize("case", ["D", "C"])
@pytest.mark.parametrize("cutoff", [6, 8, 10, 12, 14, 40])
def test_series_expand_of_the_graphs_matches_the_reference_series(case, cutoff):
    """The recurrence on the two catalogued denominators, for the graph's
    numerator and the control's bump, against the reference's long
    division."""
    g = graph(case).im_part
    bump = W1**2 * W1B * W2B + W1B**2 * W1 * W2
    scale, expansions = series_expand([g.num, bump], g.den, cutoff)
    assert scale == g.den.const_coeff().re ** (cutoff + 1)
    den = ref.poly(g.den)
    assert [ref.poly(e) for e in expansions] == [
        ref.scale(ref.series(ref.poly(num), den, cutoff), scale) for num in (g.num, bump)]


def oracle_parts(g, cutoff):
    """The true bidegree parts of a graph, from the reference series."""
    terms = ref.series(ref.poly(g.im_part.num), ref.poly(g.im_part.den), cutoff)
    f = MultiPoly(g.im_part.vars, {e: GaussianRational(*c) for e, c in terms.items()})
    return f.bidegree_split(g.holo_vars, g.anti_vars)


@pytest.mark.parametrize("case", ["D", "C"])
@pytest.mark.parametrize("cutoff", [8, 10, 12, 14])
def test_scaled_parts_match_the_reference_series_split(case, cutoff):
    """The series keeps scale * F_kl; `part` divides it back to the true
    F_kl, which the reference series gives part for part."""
    g = graph(case)
    series = defining_series(g, cutoff)
    want = oracle_parts(g, cutoff)
    assert set(series.parts) == set(want)
    assert series.scale == g.im_part.den.const_coeff().re ** (cutoff + 1)
    for (k, l), part in want.items():
        assert series.part(k, l) == part
        assert series.stored(k, l) == part * series.scale


def bumped_graph(g, bump):
    return GraphSurface(g.holo_vars, g.anti_vars, g.slice_var, g.solved_var, g.solved_conj,
                        None, RationalFunction(g.im_part.num + bump, g.im_part.den))


BUMP22 = W1**2 * W1B * W2B + W1B**2 * W1 * W2
BUMP32 = W1 * W2 * W1B * W2B * (W1 + W1B)


@pytest.mark.parametrize("bump, fails", [(BUMP22, "tr F22 = 0"), (BUMP32, "tr^2 F32 = 0")])
@pytest.mark.parametrize("cutoff", [8, 14])
def test_failed_trace_details_print_the_true_residual(bump, fails, cutoff):
    """A real (2,2) or (3,2)+(2,3) bump on graph D fails a trace condition;
    its detail is the trace of the true part, as the reference series
    gives it, not that of the stored multiple."""
    g = graph("D")
    perturbed = bumped_graph(g, bump * g.im_part.den.const_coeff())
    series = defining_series(perturbed, cutoff)
    assert series.scale != 1
    want = oracle_parts(perturbed, cutoff)
    zero = MultiPoly.zero(WG)
    tr = trace_from_levi(want[(1, 1)], g.holo_vars, g.anti_vars)
    expected = {"tr F22 = 0": tr.apply(want.get((2, 2), zero)),
                "tr^2 F32 = 0": tr.apply(tr.apply(want.get((3, 2), zero)))}
    report = chern_moser_check(series, trace_from_levi(series.part(1, 1), g.holo_vars,
                                                       g.anti_vars))
    details = {name: (ok, detail) for name, ok, detail in report.conditions}
    assert not details[fails][0] and details[fails][1]
    for name, t in expected.items():
        assert details[name] == (t.is_zero(), "" if t.is_zero() else str(t))


def twisted(g, unit=GaussianRational(1, 2)):
    """g with num and den both times unit: the same function over a
    denominator with a non-real constant term when unit is not real."""
    return GraphSurface(g.holo_vars, g.anti_vars, g.slice_var, g.solved_var, g.solved_conj,
                        None, RationalFunction(g.im_part.num * unit, g.im_part.den * unit))


@pytest.mark.parametrize("cutoff", [8, 14])
def test_non_real_denominator_constant_gives_a_real_scale(cutoff):
    """Graph D with num and den both times 1 + 2i. The scale is
    |c0|**(2(cutoff+1)), a positive rational, and the true parts and the
    verdicts are plain D's; a non-real bump still fails reality."""
    g = graph("D")
    twin = twisted(g)
    series = defining_series(twin, cutoff)
    plain = defining_series(g, cutoff)
    assert isinstance(series.scale, (int, Fraction)) and series.scale > 0
    assert series.scale == (256 * 256 * 5) ** (cutoff + 1)
    assert set(series.parts) == set(plain.parts)
    for k, l in plain.parts:
        assert series.part(k, l) == plain.part(k, l)
    series.verify_reality()
    tr = trace_from_levi(series.part(1, 1), g.holo_vars, g.anti_vars)
    assert chern_moser_check(series, tr) == chern_moser_check(plain, tr)
    # a graph refuses non-real data, so the bumped expansion is split by hand
    scale, (bumped,) = series_expand([twin.im_part.num + W1**2 * W1B**2 * I],
                                     twin.im_part.den, cutoff)
    perturbed = BidegreeSeries(cutoff, g.holo_vars, g.anti_vars,
                               bumped.bidegree_split(g.holo_vars, g.anti_vars), scale)
    with pytest.raises(AssertionError, match="reality fails"):
        perturbed.verify_reality()


def test_hermitian_quadric_series_only_11_part():
    series = defining_series(catalog.get("graph.hermitian.quadric").payload, 6)
    assert set(series.parts.keys()) == {(1, 1)}


def test_graph_numerator_and_denominator_are_real():
    for case in ("D", "C"):
        g = graph(case)
        pairing = g.pairing
        assert g.im_part.den.conjugate(pairing) == g.im_part.den
        assert g.im_part.num.conjugate(pairing) == g.im_part.num


def _graph_perturbations(part, rng):
    """(num, den) pairs of `part` with one term of num or of den dropped, or
    its coefficient moved by a seeded real or non-real amount."""
    for side in ("num", "den"):
        poly = getattr(part, side)
        for exps, c in boxed_terms(poly):
            delta = GaussianRational(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)),
                                     rng.choice((0, 0, 1, -1)))
            for new_c in (0, GaussianRational(c.re + delta.re, c.im + delta.im)):
                terms = dict(boxed_terms(poly))
                terms[exps] = new_c
                moved = MultiPoly(poly.vars, terms)
                yield (moved, part.den) if side == "num" else (part.num, moved)


def _invariant_in_the_reference(part, pairing):
    """num * conj(den) - conj(num) * den vanishes in the reference ring."""
    names = part.vars
    partner = [names.index(pairing.get(v, v)) for v in names]
    num, den = ref.poly(part.num), ref.poly(part.den)
    return (ref.mul(num, ref.conjugate(den, partner))
            == ref.mul(ref.conjugate(num, partner), den))


@pytest.mark.parametrize("fid", catalog.list_ids("graph.*"))
def test_one_product_invariance_agrees_with_the_reference(fid):
    g = catalog.get(fid).payload
    part = g.im_part if g.re_part is None else g.re_part
    rng = random.Random(fid)
    verdicts = set()
    for num, den in _graph_perturbations(part, rng):
        if not den.const_coeff():
            continue  # refused for its denominator before invariance is tested
        moved = RationalFunction(num, den)
        expected = _invariant_in_the_reference(moved, g.pairing)
        try:
            GraphSurface(g.holo_vars, g.anti_vars, g.slice_var, g.solved_var, g.solved_conj,
                         *((moved, None) if g.im_part is None else (None, moved)))
            accepted = True
        except ValueError as exc:
            assert str(exc) == "graph data is not conjugation-invariant"
            accepted = False
        assert accepted == expected, (num, den)
        verdicts.add(accepted)
    assert verdicts == {True, False}


# -------------------------------------------------------------------- trace

def test_trace_matches_displayed_operator():
    series = defining_series(graph("D"), 6)
    tr = trace_from_levi(series.part(1, 1), ("w1", "w2", "w3"), ("w1b", "w2b", "w3b"))
    two = GaussianRational(2)
    zero = GaussianRational(0)
    assert tr.matrix == ((zero, two, zero), (two, zero, zero), (zero, zero, two))


def test_trace_identity_levi():
    f11 = (W1 * W1B + W2 * W2B + W3 * W3B) * Fraction(1, 2)
    tr = trace_from_levi(f11, ("w1", "w2", "w3"), ("w1b", "w2b", "w3b"))
    assert tr.matrix[0][0] == GaussianRational(2)
    assert tr.apply(W1 * W1B) == MultiPoly.const(WG, 2)


def test_trace_degenerate():
    with pytest.raises(ValueError, match="Levi-degenerate"):
        trace_from_levi(W1 * W1B, ("w1", "w2", "w3"), ("w1b", "w2b", "w3b"))


@pytest.mark.parametrize("case", ["D", "C"])
def test_chern_moser_conditions_pass(case):
    series = defining_series(graph(case), 8)
    tr = trace_from_levi(series.part(1, 1), ("w1", "w2", "w3"), ("w1b", "w2b", "w3b"))
    report = chern_moser_check(series, tr)
    assert not failed_names(report), failed_names(report)
    assert report.classical_trace3


def test_chern_moser_quadric_vacuous():
    series = defining_series(catalog.get("graph.hermitian.quadric").payload, 6)
    tr = trace_from_levi(series.part(1, 1), ("w1", "w2", "w3"), ("w1b", "w2b", "w3b"))
    assert not failed_names(chern_moser_check(series, tr))


def test_chern_moser_perturbation_control():
    g = graph("D")
    bump = W1**2 * W1B * W2B + W1B**2 * W1 * W2
    perturbed = bumped_graph(g, bump * 256)
    series = defining_series(perturbed, 8)
    tr = trace_from_levi(series.part(1, 1), ("w1", "w2", "w3"), ("w1b", "w2b", "w3b"))
    assert "tr F22 = 0" in failed_names(chern_moser_check(series, tr))


@pytest.mark.parametrize("case", ["D", "C", "D twisted"])
@pytest.mark.parametrize("cutoff", [6, 8, 14])
def test_control_part_equals_the_perturbed_graph_expanded_alone(case, cutoff):
    """The (2,2) part that the control of `normal-form` reads without an
    expansion, stored(2,2) + scale * bump, is the stored (2,2) part of the
    graph with c0 * bump added to its numerator (c0 = den(0)) expanded on
    its own: bump has bidegree (2,2) and degree 4, and 1/den = 1/c0 +
    terms of positive degree. The twisted graph has a non-real c0."""
    g = twisted(graph("D")) if case == "D twisted" else graph(case)
    assert cli._control_bump(g) == BUMP22
    series = defining_series(g, cutoff)
    alone = defining_series(bumped_graph(g, BUMP22 * g.im_part.den.const_coeff()), cutoff)
    assert alone.scale == series.scale
    assert series.stored(2, 2) + BUMP22 * series.scale == alone.stored(2, 2)


def test_chern_moser_needs_cutoff():
    series = defining_series(graph("D"), 4)
    tr = trace_from_levi(series.part(1, 1), ("w1", "w2", "w3"), ("w1b", "w2b", "w3b"))
    with pytest.raises(ValueError):
        chern_moser_check(series, tr)


# ------------------------------------------------------------- surface maps

def reference_map_value(source, target, holo, anti, phi, point):
    """target(phi(graph)) at a point of the graph's free variables, in the
    reference ring: w and its conjugate are w_num / D and wbar_num / D
    there, and each anti component is its holo one conjugated; None where
    a denominator vanishes."""
    at = dict(zip(source.free_vars, point))
    w_num, wbar_num, den = (ref.evaluate(ref.poly(p), point) for p in source.solved_pair())
    if den == ref.ZERO:
        return None
    at[source.solved_var] = ref.pair_div(w_num, den)
    at[source.solved_conj] = ref.pair_div(wbar_num, den)
    pairing = dict(source.pairing)
    pairing.update({source.solved_var: source.solved_conj,
                    source.solved_conj: source.solved_var})
    values = {}
    for h, a in zip(holo, anti):
        names = phi[h].vars
        num, den = ref.poly(phi[h].num), ref.poly(phi[h].den)
        # the conjugate component: conjugated coefficients at the partners' values
        same = range(len(names))
        for name, n, d, place in ((h, num, den, [at[v] for v in names]),
                                  (a, ref.conjugate(num, same), ref.conjugate(den, same),
                                   [at[pairing.get(v, v)] for v in names])):
            d = ref.evaluate(d, place)
            if d == ref.ZERO:
                return None
            values[name] = ref.pair_div(ref.evaluate(n, place), d)
    return ref.evaluate(ref.poly(target), [values[v] for v in target.vars])


def checked_surface_map(source, target, holo, anti, phi):
    """verify_surface_map, whose graph step is one `substitute` call, with
    its residual over the free variables checked against the reference at
    three seeded points where no denominator vanishes: the residual
    vanishes there exactly where target(phi(graph)) does, a nonzero
    factor apart, and the identity holds exactly when that vanishes at
    all three."""
    got = verify_surface_map(source, target, holo, anti, phi)
    ok, residual = got
    assert residual.vars == source.free_vars
    rng = random.Random(str(target))
    rres = ref.poly(residual)
    zeros = []
    for _ in range(3):
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in source.free_vars]
        value = reference_map_value(source, target, holo, anti, phi, point)
        if value is not None:
            zeros.append(value == ref.ZERO)
            assert (ref.evaluate(rres, point) == ref.ZERO) == zeros[-1]
    assert zeros and ok == all(zeros)
    return got


MAP_IDS = ["map.cm.D", "map.cm.C", "map.case3.derived", "map.case3.printed",
           "map.case3.printed.reversed", "map.quadric.to.Bminus", "map.identity.quadric"]


@pytest.mark.parametrize("mid", MAP_IDS)
def test_map_fixtures_match_expected_verdicts(mid):
    fx = catalog.get(mid)
    payload = fx.payload
    source = catalog.get(payload.source_graph).payload
    ok, _ = checked_surface_map(source, payload.target, payload.target_holo,
                                payload.target_anti, dict(payload.components))
    assert ok == payload.expected
    if payload.origin_image is not None:
        assert map_at_origin(dict(payload.components),
                             list(payload.target_holo)) == list(payload.origin_image)


@pytest.mark.parametrize("mid", MAP_IDS)
def test_map_verdicts_survive_rescaling(mid):
    """Scaling the target by a nonzero rational, or the num and den of one
    component by a common nonzero Gaussian rational, changes neither the
    surface nor the map, so the verdict stays; the check clears the
    coefficient denominators either brings in."""
    payload = catalog.get(mid).payload
    source = catalog.get(payload.source_graph).payload
    phi = dict(payload.components)
    name = payload.target_holo[-1]
    c = GaussianRational(Fraction(-2, 3), Fraction(5, 7))
    rescaled = dict(phi)
    rescaled[name] = RationalFunction(phi[name].num * c, phi[name].den * c)
    for target, components in ((payload.target * Fraction(-7, 9), phi),
                               (payload.target, rescaled)):
        ok, _ = verify_surface_map(source, target, payload.target_holo,
                                   payload.target_anti, components)
        assert ok == payload.expected


@pytest.mark.parametrize("mid", ["map.cm.C", "map.cm.D"])
def test_an_imaginary_translation_after_a_cm_map_keeps_its_identity(mid):
    """Target automorphisms: a tube is invariant under imaginary
    translations, so the cm map followed by the member of
    family.translations.z at a seeded rational parameter still maps the
    graph into the target. The member at i times that parameter
    translates by a real amount instead, and the identity fails. Either
    way the composed map takes the origin to the recorded origin image
    plus the translation."""
    payload = catalog.get(mid).payload
    source = catalog.get(payload.source_graph).payload
    family = catalog.get("family.translations.z").payload
    assert family.variables == payload.target_holo
    rng = random.Random(20261020)
    params = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
              for _ in family.params]
    phi = dict(payload.components)
    for unit, holds in ((1, True), (I, False)):
        values = {a: t * unit for a, t in zip(family.params, params)}
        members = [comp.specialize(values) for comp in family.components]
        moved = {z: substitute(member, phi) for z, member in zip(family.variables, members)}
        ok, _ = verify_surface_map(source, payload.target, payload.target_holo,
                                   payload.target_anti, moved)
        assert ok is holds
        # the basepoint moves by the translation, the members' value at 0
        assert [ref.pair(o) for o in map_at_origin(moved, family.variables)] == [
            ref.pair_add(ref.pair(o), ref.pair(member.const_coeff()))
            for o, member in zip(payload.origin_image, members)]


@pytest.mark.parametrize("mid", ["map.cm.C", "map.cm.D"])
def test_surface_map_products_run_on_gaussian_integers(mid, monkeypatch):
    """Cost guard for the clearing of coefficient denominators: the
    targets of both cm maps have a Fraction on every term, and so do some
    terms of two map.cm.C components, yet no product of the check sees one
    but the scalings by a constant that clear them."""
    payload = catalog.get(mid).payload
    source = catalog.get(payload.source_graph).payload
    product = tubes.poly._product
    seen = []

    def spying(ar, ai, br, bi):
        if {0} not in (ar.keys() | ai.keys(), br.keys() | bi.keys()):
            seen.extend(x for part in (ar, ai, br, bi) for x in part.values()
                        if type(x) is Fraction)
        return product(ar, ai, br, bi)

    monkeypatch.setattr(tubes.poly, "_product", spying)
    ok, _ = verify_surface_map(source, payload.target, payload.target_holo,
                               payload.target_anti, dict(payload.components))
    assert ok and not seen


def sphere_graph():
    """Im w = z z' / (1 + z z'), with z' the conjugate of z."""
    zz = ("z", "zb")
    q = MultiPoly.var(zz, "z") * MultiPoly.var(zz, "zb")
    return GraphSurface(("z",), ("zb",), "u", "w", "wb", None, RationalFunction(q, 1 + q))


TARGET_ZW = ("Z", "W", "Zb", "Wb")
Z, W, ZB, WB = (MultiPoly.var(TARGET_ZW, n) for n in TARGET_ZW)


def test_surface_map_clears_the_least_denominator_power():
    source = sphere_graph()
    universe = ("z", "w", "zb", "wb")
    phi = {"Z": RationalFunction(MultiPoly.var(universe, "z")),
           "W": RationalFunction(MultiPoly.var(universe, "w"))}
    fv = source.free_vars
    q = MultiPoly.var(fv, "z") * MultiPoly.var(fv, "zb")
    # (W - Wb)(1 + Z Zb) = 2i Z Zb holds on the graph
    ok, residual = checked_surface_map(source, (W - WB) * (1 + Z * ZB) - Z * ZB * 2 * I,
                                       ("Z", "W"), ("Zb", "Wb"), phi)
    assert ok and residual.is_zero()
    # W - Wb = 2i Z Zb does not. Its groups are (1, 0), (0, 1) and (0, 0), so
    # den**1 clears them: w - wb = 2i q / den, and the residual is
    # 2i q - 2i q (1 + q) = -2i q^2 with no further factor of den
    ok, residual = checked_surface_map(source, W - WB - Z * ZB * 2 * I,
                                       ("Z", "W"), ("Zb", "Wb"), phi)
    assert not ok and residual == q * q * (-2 * I)


def test_surface_map_without_the_solved_coordinate_multiplies_no_denominator():
    # the map never reaches w or wb, so the only group is (0, 0) and top is 0
    source = sphere_graph()
    universe = ("z", "w", "zb", "wb")
    phi = {"Z": RationalFunction(MultiPoly.const(universe, I),
                                 1 + MultiPoly.var(universe, "z"))}  # in lowest terms
    zz = ("Z", "Zb")
    z, zb = MultiPoly.var(zz, "Z"), MultiPoly.var(zz, "Zb")
    ok, residual = checked_surface_map(source, z - zb, ("Z",), ("Zb",), phi)
    # i / (1 + z) + i / (1 + zb), over (1 + z)(1 + zb) and no factor of the
    # graph denominator 1 + z zb
    fv = source.free_vars
    expect = (2 + MultiPoly.var(fv, "z") + MultiPoly.var(fv, "zb")) * I
    assert not ok and residual == expect


def test_a_map_record_reduces_its_components_and_the_check_composes_them_as_given():
    source = sphere_graph()
    universe = ("z", "w", "zb", "wb")
    one_plus_z = 1 + MultiPoly.var(universe, "z")
    phi = {"Z": RationalFunction(one_plus_z * I, one_plus_z)}  # the constant i
    zz = ("Z", "Zb")
    z, zb = MultiPoly.var(zz, "Z"), MultiPoly.var(zz, "Zb")
    fv = source.free_vars
    # as given, the common factor stays: i - (-i) times (1 + z)(1 + zb)
    ok, residual = checked_surface_map(source, z + zb, ("Z",), ("Zb",), phi)
    assert ok and residual.is_zero()
    ok, residual = checked_surface_map(source, z - zb, ("Z",), ("Zb",), phi)
    factor = (1 + MultiPoly.var(fv, "z")) * (1 + MultiPoly.var(fv, "zb"))
    assert not ok and residual == factor * (2 * I)
    # the record holds the constant i over 1, and the check leaves 2i
    record = catalog.RationalMapFixture(tuple(phi.items()), "", z - zb, ("Z",), ("Zb",), False)
    (_, reduced), = record.components
    assert (reduced.num, reduced.den) == (MultiPoly.const(universe, I),
                                          MultiPoly.const(universe, 1))
    ok, residual = checked_surface_map(source, z - zb, ("Z",), ("Zb",), dict(record.components))
    assert not ok and residual == MultiPoly.const(fv, 2 * I)


@pytest.mark.parametrize("map_id, budget", [("map.cm.D", 4_000), ("map.cm.C", 1_250)])
def test_cm_map_check_stays_within_its_product_budget(monkeypatch, map_id, budget):
    """Cost guard for the components in lowest terms, the coprime basis of
    `substitute` and the clearing power, counted as term pairs at
    `poly._product`, which every product of the check goes through, a
    scaling by a constant too. map.cm.D makes 3,691 (2,161 in the
    composition, 1,477 in the graph step, from the graph relations to the
    residual, 53 in the real scalings) and map.cm.C 1,163 (400, 729 and
    34); with the graph denominator cleared by hand, as before the graph
    step was one `substitute` call, they made 3,673 and 1,145. Over the
    product of the component denominators, as before the coprime basis,
    they made 25,066 (15,126 and 9,940) and 3,258 (1,487 and 1,771);
    composing the map.cm.D components as the catalog's sums build them,
    with denominators of degree 6, 3 and 3 where the lowest terms that
    the record stores have 3, 2 and 2, makes 12,778. The check reduces
    nothing, so these counts are all of its products."""
    payload = catalog.get(map_id).payload
    source = catalog.get(payload.source_graph).payload
    pairs = []
    product = tubes.poly._product

    def counting(ar, ai, br, bi):
        pairs.append(len(ar.keys() | ai.keys()) * len(br.keys() | bi.keys()))
        return product(ar, ai, br, bi)

    monkeypatch.setattr(tubes.poly, "_product", counting)
    ok, _ = verify_surface_map(source, payload.target, payload.target_holo,
                               payload.target_anti, dict(payload.components))
    assert ok and sum(pairs) <= budget


def test_engine_calls_leave_no_cyclic_garbage():
    """Each call frees all it built by reference counting, so the cyclic
    collector never has to hold its power caches: a recursive helper
    written as a closure that names itself would leave one cycle per call."""
    xyz = ("x", "y", "z")
    x, y, z = (MultiPoly.var(xyz, n) for n in xyz)
    uv = ("u", "v")
    u, v = (MultiPoly.var(uv, n) for n in uv)
    p = x * x * y + y * z - z * z * x
    payload = catalog.get("map.cm.C").payload
    source = catalog.get(payload.source_graph).payload
    basis = list(catalog.get("basis.Z.D").payload.fields)
    calls = [
        lambda: substitute(p, {"x": RationalFunction(u, 1 + v), "y": u * v,
                               "z": RationalFunction(v, 1 - u)}),
        lambda: p.subs_poly({"x": x + y * y, "z": x * y}),
        lambda: series_expand([graph("D").im_part.num], graph("D").im_part.den, 8),
        lambda: verify_surface_map(source, payload.target, payload.target_holo,
                                   payload.target_anti, dict(payload.components)),
        lambda: LieAlgebraPresentation.from_fields(basis),
    ]
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            call()
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0


def test_broken_cm_d_map_fails_the_exact_check():
    payload = catalog.get("map.cm.D").payload
    source = catalog.get(payload.source_graph).payload
    broken = dict(payload.components)
    w = MultiPoly.var(broken["z4"].vars, "w2")
    broken["z4"] = broken["z4"] + RationalFunction(w)
    ok, residual = checked_surface_map(source, payload.target, payload.target_holo,
                                       payload.target_anti, broken)
    assert not ok and not residual.is_zero()


def test_affine_truncation_of_change_fails():
    # dropping every nonlinear term of the rational change must break the identity
    fx = catalog.get("map.cm.D")
    payload = fx.payload
    source = catalog.get(payload.source_graph).payload
    truncated = {}
    for name, rf in payload.components:
        num = rf.num
        den0 = rf.den.const_coeff()
        linear = num.truncate(1) * (GaussianRational(1) / den0)
        truncated[name] = RationalFunction(linear)
    ok, _ = verify_surface_map(source, payload.target, payload.target_holo,
                               payload.target_anti, truncated)
    assert not ok


# ------------------------------------------------------- family invariance

def test_isotropy_family_invariance_and_fixed_point():
    fam = catalog.get("family.isotropy.D").payload
    res = verify_family_invariance(fam, tube_rho("D"), catalog.ZV, ZF_ANTI,
                                   fixed_point=(1, 0, 1, 1))
    assert res.ok and res.fixes_point
    r = MultiPoly.var(fam.params, "r")
    assert res.multiplier == r**2
    # z3 goes to 1 - r^2 at (1, 0, 0, 1), which the family does not fix
    res = verify_family_invariance(fam, tube_rho("D"), catalog.ZV, ZF_ANTI,
                                   fixed_point=(1, 0, 0, 1))
    assert res.ok and res.fixes_point is False


def test_full_family_invariance():
    fam = catalog.get("family.full.D").payload
    res = verify_family_invariance(fam, tube_rho("D"), catalog.ZV, ZF_ANTI)
    assert res.ok
    q = MultiPoly.var(fam.params, "q")
    r = MultiPoly.var(fam.params, "r")
    assert res.multiplier == q**2 * r**2


def test_full_family_isotropy_slice_fixes_basepoint():
    info = catalog.get("slice.isotropy.D").payload
    full = catalog.get(info.family).payload
    iso = catalog.get(info.reduces_to).payload
    assignments = dict(info.assignments)
    for i, comp in enumerate(full.components):
        values = {v: MultiPoly.var(iso.universe, v) for v in full.variables}
        for p in full.params:
            values[p] = assignments[p].with_vars(iso.universe)
        assert comp.subs_poly(values) == iso.components[i]


def test_cubic_case_isotropy_triple():
    rho = tube_rho("C")
    for fid in ("family.isotropy.C.scale", "family.isotropy.C.shear", "family.circle.C"):
        fam = catalog.get(fid).payload
        res = verify_family_invariance(fam, rho, catalog.ZV, ZF_ANTI,
                                       fixed_point=(1, 0, 0, 0))
        assert res.ok and res.fixes_point, fid


def test_printed_circle_action_fails():
    fam = catalog.get("family.circle.C.printed").payload
    res = verify_family_invariance(fam, tube_rho("C"), catalog.ZV, ZF_ANTI)
    assert not res.ok and res.multiplier is None


def test_invariance_fails_when_the_quotient_by_rho_uses_a_coordinate():
    """x -> x (1 + a y), y -> y sends rho = x to (1 + a y) rho: rho divides
    the image exactly, but the quotient is no multiplier over the parameter.
    rho = x + y does not divide its image x + y + a x y at all."""
    xy = ("x", "y")
    x, y, a = (MultiPoly.var(xy + ("a",), n) for n in ("x", "y", "a"))
    fam = MapFamily("shear", xy, ("a",), (x * (1 + a * y), y), (("a", 0),))
    rho_x, rho_xy = MultiPoly.var(xy, "x"), MultiPoly.var(xy, "x") + MultiPoly.var(xy, "y")
    for rho in (rho_x, rho_xy):
        res = verify_family_invariance(fam, rho)
        assert not res.ok and res.multiplier is None, rho
    # the same image over a parameter alone is a multiplier: x -> (1 + a) x
    fam = MapFamily("scale", xy, ("a",), (x * (1 + a), y), (("a", 0),))
    res = verify_family_invariance(fam, rho_x)
    assert res.ok and res.multiplier == 1 + MultiPoly.var(("a",), "a")


def test_affine_families_preserve_bases():
    xv = catalog.XV
    x1, x2, x3, x4 = (MultiPoly.var(xv, n) for n in xv)
    fam = catalog.get("family.affine.D").payload
    res = verify_family_invariance(fam, x4**2 - x1 * x2 - x1**2 * x3)
    q = MultiPoly.var(fam.params, "q")
    r = MultiPoly.var(fam.params, "r")
    assert res.ok and res.multiplier == q**2 * r**2
    fam = catalog.get("family.affine.C").payload
    res = verify_family_invariance(fam, x4 - x1 * x2 - x1 * x3**2)
    q = MultiPoly.var(fam.params, "q")
    r = MultiPoly.var(fam.params, "r")
    assert res.ok and res.multiplier == q * r**2


def test_w_linear_families_preserve_graphs():
    for case in ("D", "C"):
        fam = catalog.get(f"family.isotropy.{case}.w").payload
        g = graph(case)
        full_holo = g.holo_vars + (g.solved_var,)
        full_anti = g.anti_vars + (g.solved_conj,)
        universe = full_holo + full_anti
        n = g.im_part.num.with_vars(universe)
        d = g.im_part.den.with_vars(universe)
        w4 = MultiPoly.var(universe, g.solved_var)
        w4b = MultiPoly.var(universe, g.solved_conj)
        rho = (w4 - w4b) * d - n * GaussianRational(0, 2)
        res = verify_family_invariance(fam, rho, full_holo, full_anti)
        assert res.ok, case


def test_translations_preserve_tubes():
    fam = catalog.get("family.translations.z").payload
    for case in ("D", "C"):
        res = verify_family_invariance(fam, tube_rho(case), catalog.ZV, ZF_ANTI)
        assert res.ok
        assert res.multiplier == MultiPoly.const(fam.params, 1)


# ----------------------------------------------------------------- group law

@pytest.mark.parametrize("fid", ["family.affine.D", "family.affine.C"])
def test_group_laws(fid):
    fam = catalog.get(fid).payload
    assert verify_group_law(fam).status == "ok"


def test_group_law_missing_is_unresolved():
    fam = catalog.get("family.isotropy.D").payload
    assert verify_group_law(fam).status == "unresolved"


def test_group_law_wrong_law_fails():
    fam = catalog.get("family.affine.D").payload
    primed = fam.composition_primed
    lawv = fam.params + primed
    wrong = tuple((p, RationalFunction(MultiPoly.var(lawv, p) + 1)) for p in fam.params)
    broken = MapFamily(fam.name, fam.variables, fam.params, fam.components,
                       fam.identity, fam.relations, fam.constraints,
                       wrong, primed)
    assert verify_group_law(broken).status == "failed"


def test_group_law_unit_checks():
    # z -> z ignores p, so any law composes; p + p' + 1 has no identity at p = 0
    u = ("z", "p")
    lawv = ("p", "pp")
    p, pp = (MultiPoly.var(lawv, n) for n in lawv)
    fam = MapFamily("idle", ("z",), ("p",), (MultiPoly.var(u, "z"),), (("p", Fraction(0)),),
                    composition=(("p", RationalFunction(p + pp + 1)),),
                    composition_primed=("pp",))
    law = verify_group_law(fam)
    assert law.status == "failed" and law.detail == "identity is not a right unit for p"
    # p + p' written over the denominator p', which vanishes at the identity p' = 0
    fam = MapFamily("idle", ("z",), ("p",), (MultiPoly.var(u, "z"),), (("p", Fraction(0)),),
                    composition=(("p", RationalFunction((p + pp) * pp, pp)),),
                    composition_primed=("pp",))
    with pytest.raises(ZeroDivisionError):
        verify_group_law(fam)


# ------------------------------------------------------------- generators

def test_full_family_generators_span_basis():
    fam = catalog.get("family.full.D").payload
    gens = infinitesimal_generators(fam)
    assert len(gens) == 10
    zb = list(catalog.get("basis.Z.D").payload.fields)
    coords = []
    for g in gens:
        c = expand_in_fields([g], zb)[0]
        assert c is not None
        coords.append(list(c))
    assert len(rref_rows(coords)) == 10
    # and conversely every basis field is a combination of generators
    for b in zb:
        assert expand_in_fields([b], gens)[0] is not None


def test_cubic_case_generators_span_basis():
    gens = []
    afx = catalog.get("family.affine.C").payload
    rename = dict(zip(catalog.XV, catalog.ZV))
    comps = tuple(c.rename_vars(rename) for c in afx.components)
    zlift = MapFamily("affine.C.z", catalog.ZV, afx.params, comps, afx.identity)
    gens.extend(infinitesimal_generators(zlift))
    for fid in ("family.translations.z", "family.isotropy.C.shear", "family.circle.C"):
        gens.extend(infinitesimal_generators(catalog.get(fid).payload))
    assert len(gens) == 10
    zb = list(catalog.get("basis.Z.C").payload.fields)
    coords = []
    for g in gens:
        c = expand_in_fields([g], zb)[0]
        assert c is not None
        coords.append(list(c))
    assert len(rref_rows(coords)) == 10


def test_circle_generator_is_tenth_basis_field():
    gens = infinitesimal_generators(catalog.get("family.circle.C").payload)
    assert len(gens) == 1
    zb = list(catalog.get("basis.Z.C").payload.fields)
    coeffs = expand_in_fields([gens[0]], zb)[0]
    expected = [GaussianRational(int(i == 9)) for i in range(10)]
    assert list(coeffs) == expected


def test_translation_family_generators_are_constant_fields():
    gens = infinitesimal_generators(catalog.get("family.translations.z").payload)
    assert len(gens) == 4
    for g in gens:
        assert not any(c.used_vars() for c in g.components)


def test_generator_structure_constants_match_golden_table():
    fam = catalog.get("family.full.D").payload
    gens = infinitesimal_generators(fam)
    zb = list(catalog.get("basis.Z.D").payload.fields)
    z_algebra = LieAlgebraPresentation.from_fields(zb)
    gen_algebra = LieAlgebraPresentation.from_fields(gens)
    m = [list(expand_in_fields([g], zb)[0]) for g in gens]
    gen_table, z_table = dense_structure(gen_algebra.structure), dense_structure(z_algebra.structure)
    dim = 10
    for a in range(dim):
        for b in range(dim):
            # [G_a, G_b] in the Z basis, two ways
            direct = [ref.ZERO] * dim
            for d in range(dim):
                c = gen_table[a][b][d]
                if c:
                    for g_ in range(dim):
                        direct[g_] = ref.pair_add(direct[g_], ref.pair(m[d][g_] * c))
            via_table = [ref.ZERO] * dim
            for e in range(dim):
                if not m[a][e]:
                    continue
                for f in range(dim):
                    if not m[b][f]:
                        continue
                    prod = m[a][e] * m[b][f]
                    for g_ in range(dim):
                        cc = z_table[e][f][g_]
                        if cc:
                            via_table[g_] = ref.pair_add(via_table[g_], ref.pair(prod * cc))
            assert direct == via_table, (a, b)


# ---------------------------------------------------------------- bridge

def test_cubic_case_parameter_bridges():
    """The three one-parameter slices of the linear normal-form isotropy
    conjugate exactly to the three stored isotropy pieces; the printed
    circle sign fails the same conjugation."""
    phi = dict(catalog.get("map.cm.C").payload.components)
    W4V = ("w1", "w2", "w3", "w4")

    def wslice(params, comps, ident, rels=None):
        return MapFamily("slice", W4V, params, comps, ident,
                         relations=rels or RelationContext())

    u = W4V + ("r",)
    w1, w2, w3, w4, r = (MultiPoly.var(u, n) for n in u)
    scale_w = wslice(("r",), (w1, r**2 * w2, r * w3, r**2 * w4), (("r", Fraction(1)),))
    ok, detail = verify_map_conjugation(
        phi, scale_w, catalog.get("family.isotropy.C.scale").payload,
        {"r": MultiPoly.var(("r",), "r")})
    assert ok, detail

    u = W4V + ("u",)
    w1, w2, w3, w4, uu = (MultiPoly.var(u, n) for n in u)
    shear_w = wslice(("u",), (w1, w2 + uu * w1 * I, w3, w4), (("u", Fraction(0)),))
    ok, detail = verify_map_conjugation(
        phi, shear_w, catalog.get("family.isotropy.C.shear").payload,
        {"u": MultiPoly.var(("u",), "u")})
    assert ok, detail

    u = W4V + ("c", "cb")
    w1, w2, w3, w4, c, cb = (MultiPoly.var(u, n) for n in u)
    ctx = RelationContext(unit_pairs=(("c", "cb"),))
    circle_w = wslice(("c", "cb"), (w1, w2, c * w3, w4),
                      (("c", Fraction(1)), ("cb", Fraction(1))), rels=ctx)
    pmap = {"c": MultiPoly.var(("c", "cb"), "c"), "cb": MultiPoly.var(("c", "cb"), "cb")}
    ok, detail = verify_map_conjugation(
        phi, circle_w, catalog.get("family.circle.C").payload, pmap)
    assert ok, detail
    ok, _ = verify_map_conjugation(
        phi, circle_w, catalog.get("family.circle.C.printed").payload, pmap)
    assert not ok


def test_isotropy_bridge_parameter_match():
    bridge = catalog.get("bridge.isotropy.D").payload
    wfam = catalog.get(bridge.w_family).payload
    zfam = catalog.get(bridge.z_family).payload
    phi = dict(catalog.get(bridge.map_id).payload.components)
    r, mu, nu = (MultiPoly.var(wfam.params, n) for n in wfam.params)
    ok, detail = verify_map_conjugation(
        phi, wfam, zfam, {"r": r, "u": mu * bridge.u_scale, "v": nu * bridge.v_scale})
    assert ok, detail
    # wrong scaling breaks the identity
    ok, _ = verify_map_conjugation(
        phi, wfam, zfam, {"r": r, "u": mu, "v": nu * bridge.v_scale})
    assert not ok
