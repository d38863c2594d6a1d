"""Batch verification front end.

Each subcommand runs a family of exact checks against the catalog and
emits a report, either human-readable or as JSON with the schema
{version, command, checks: [{id, claim, verdict, details, provenance}],
summary: {pass, fail, unresolved}, seconds}. Exit codes: 0 all PASS,
1 any FAIL, 2 any UNRESOLVED without FAIL, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from . import catalog
from .catalog import Fixture, RationalMapFixture
from .fields import VectorField, linear_combination, minors_scan, rank_at
from .interchange import to_json
from .linalg import poly_div_exact, rref_rows
from .normal_form import (MIN_CM_CUTOFF, GraphSurface, MapFamily, chern_moser_check,
                          defining_series, infinitesimal_generators,
                          map_at_origin, trace_from_levi,
                          verify_family_invariance, verify_group_law,
                          verify_map_conjugation, verify_surface_map)
from .poly import MAX_DEGREE, MultiPoly, merge_vars
from .record import Record
from .scalars import GaussianRational, Rational, _div, frac_from_str
from .symmetry import (Hypersurface, LieAlgebraPresentation,
                       affine_symmetry_algebra, is_nilpotent, line_in_domain_check,
                       non_nilpotent_transitive_obstruction,
                       open_orbit_report, scan_covers_subspace,
                       subalgebra_scan, verify_transitivity_witness,
                       expand_in_fields)

VERSION = "0.1.0"

USAGE_ERROR = 64


class UsageError(Exception):
    """Invalid command-line input; main reports it on one line and exits 64."""


# expected affine symmetry dimensions for the catalogued table rows
EXPECTED_DIMS = {
    "surface.table.1p": 7,
    "surface.table.1m": 7,
    "surface.table.2.sphere": 6,
    "surface.table.3": 5,
    "surface.table.4.a0": 4,
    "surface.table.4.a112": 4,
    "surface.table.4.a1": 4,
    "surface.table.4.am1": 4,
    "surface.table.5": 4,
    "surface.table.6": 4,
    "surface.quadric.half": 7,
}

# surfaces whose symmetry algebras admit no open orbits at all
NO_ORBIT_SURFACES = {"surface.table.2.sphere", "surface.table.2.cubic"}


class Check(Record):
    id: str
    claim: str
    verdict: str  # PASS | FAIL | UNRESOLVED
    details: str
    provenance: str


class Report(Record):
    version: str
    command: str
    checks: Tuple[Check, ...]
    summary: Dict[str, int]
    seconds: float


def assemble(command: str, checks: Sequence[Check], started: float) -> Report:
    ordered = tuple(sorted(checks, key=lambda c: c.id))
    summary = {
        "pass": sum(c.verdict == "PASS" for c in ordered),
        "fail": sum(c.verdict == "FAIL" for c in ordered),
        "unresolved": sum(c.verdict == "UNRESOLVED" for c in ordered),
    }
    return Report(VERSION, command, ordered, summary, round(time.perf_counter() - started, 3))


def check_of(cid: str, claim: str, ok: bool, details: str, provenance: str) -> Check:
    if not ok and not details:
        details = "check failed"
    return Check(cid, claim, "PASS" if ok else "FAIL", details, provenance)


def prov(fx: Fixture) -> str:
    return f"{fx.id} [{fx.tag}]"


# ---------------------------------------------------------------- primitives

def _fixture(reg, fid: str, kind: str) -> Fixture:
    """The fixture `fid`, which must be of this kind: an unknown id, or an
    id of another kind, named by a command or by a fixture's reference
    field, is a usage error."""
    if fid not in reg:
        import difflib
        near = difflib.get_close_matches(fid, reg.keys(), n=5, cutoff=0.4)
        raise UsageError(f"unknown fixture {fid!r}; near matches: {near}")
    return _of_kind(reg[fid], kind)


def _of_kind(fx: Fixture, kind: str) -> Fixture:
    if fx.kind != kind:
        raise UsageError(f"fixture {fx.id!r} is of kind {fx.kind}, not {kind}")
    return fx


def _presentation(fx: Fixture) -> LieAlgebraPresentation:
    """The presentation of a stored field basis; a basis that is not
    closed under bracket is bad input, not a FAIL."""
    try:
        return LieAlgebraPresentation.from_fields(list(fx.payload.fields))
    except ValueError as exc:
        raise UsageError(f"{fx.id}: {exc}") from None


def _surface(reg, ident: str) -> Tuple[Hypersurface, str]:
    if ident in reg:
        fx = _fixture(reg, ident, "hypersurface")
        source = prov(fx)
    elif os.path.exists(ident):
        fx = _of_kind(catalog.read_fixture(ident), "hypersurface")
        source = f"file:{ident}"
    else:
        raise UsageError(f"no surface fixture or file named {ident!r}")
    return fx.payload, source


def _domains_for_surface(reg, surface_id: str):
    domains = (_fixture(reg, fid, "domain") for fid in reg.group_ids("domain"))
    return [fx for fx in domains if fx.payload.source_surface == surface_id]


def _parse_probe(text: str, surface: Hypersurface) -> Tuple[Rational, ...]:
    """A --probes point: comma-separated rationals, one per variable of the
    surface, off the surface; anything else is a usage error."""
    try:
        point = tuple(frac_from_str(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"probe {text!r} is not a comma-separated list of rationals") from None
    width = len(surface.variables)
    if len(point) != width:
        raise UsageError(f"probe {text!r} has {len(point)} coordinates; the surface has {width}")
    if surface.point_on_surface(point):
        raise UsageError(f"probe {text!r} lies on the surface; a probe must be off it")
    return point


def _random_probe(rng: random.Random, surface: Hypersurface) -> Optional[Tuple[Rational, ...]]:
    for _ in range(200):
        point = tuple(_div(rng.randint(-12, 12), rng.randint(1, 4))
                      for _ in surface.variables)
        if surface.point_on_surface(point):
            continue
        if not surface.point_satisfies_constraints(point):
            continue
        return point
    return None


# --------------------------------------------------------------- subcommands

def cmd_symmetry(args, reg) -> List[Check]:
    surface, provenance = _surface(reg, args.surface)
    algebra = affine_symmetry_algebra(surface)
    checks = []
    expected = EXPECTED_DIMS.get(args.surface)
    if expected is not None:
        checks.append(check_of(
            f"symmetry.dim.{args.surface}",
            f"affine symmetry algebra has dimension {expected}",
            algebra.dim == expected, f"computed dimension {algebra.dim}", provenance))
    else:
        checks.append(check_of(
            f"symmetry.dim.{args.surface}",
            "affine symmetry algebra computed and bracket-closed",
            True, f"dimension {algebra.dim}", provenance))
    try:
        algebra.verify()
        ok, detail = True, f"dimension {algebra.dim}"
    except AssertionError as exc:
        ok, detail = False, str(exc)
    checks.append(check_of(f"symmetry.structure.{args.surface}",
                           "structure constants verified (antisymmetry, Jacobi, brackets)",
                           ok, detail, provenance))
    n = len(surface.variables)
    rank = rank_at(list(algebra.basis), list(surface.basepoint))
    if expected is not None:
        checks.append(check_of(
            f"symmetry.transitive.{args.surface}",
            "algebra acts transitively on the surface near the basepoint (rank = n - 1)",
            rank == n - 1, f"rank {rank} at {tuple(map(str, surface.basepoint))}",
            provenance))
    else:
        # surfaces without an asserted dimension (for example the printed cubic
        # variant of the closed-surface row) get an informational rank record
        checks.append(check_of(
            f"symmetry.transitive.{args.surface}",
            "pointwise rank of the algebra at the basepoint (reported, not asserted)",
            True, f"rank {rank} of a possible {n - 1}", provenance))
    if args.verbose:
        for i, b in enumerate(algebra.basis):
            print(f"  basis[{i}]: {b}", file=sys.stderr)
    return checks


def cmd_orbits(args, reg) -> List[Check]:
    if args.random_probes < 0:
        raise UsageError(f"--random-probes must be at least 0, got {args.random_probes}")
    surface, provenance = _surface(reg, args.surface)
    extra = [_parse_probe(text, surface) for text in args.probes or ()]
    algebra = affine_symmetry_algebra(surface)
    probes = [fx.payload.probe for fx in _domains_for_surface(reg, args.surface)] + extra
    rng = random.Random(getattr(args, "seed", 0))
    for _ in range(args.random_probes):
        p = _random_probe(rng, surface)
        if p is not None:
            probes.append(p)
    # each probe once, at its first place, so that no check id repeats
    report = open_orbit_report(algebra, surface, list(dict.fromkeys(probes)))
    checks = []
    if args.surface in NO_ORBIT_SURFACES:
        ok = report.all_minors_zero or report.algebra_dim < len(surface.variables)
        checks.append(check_of(
            f"orbits.none.{args.surface}",
            "all maximal minors vanish identically; no open orbits",
            ok, report.verdict, provenance))
    else:
        for rec in report.probes:
            pid = "_".join(str(x) for x in rec.point)
            if rec.rejected:
                checks.append(check_of(f"orbits.probe.{args.surface}.{pid}",
                                       "probe accepted (off the surface)",
                                       False, rec.rejected, provenance))
            else:
                checks.append(check_of(
                    f"orbits.probe.{args.surface}.{pid}",
                    "fields span the tangent space at the probe (open orbit)",
                    rec.open_orbit, f"rank {rec.rank}", provenance))
        if report.determinant is not None:
            checks.append(check_of(
                f"orbits.det.{args.surface}",
                "determinant of the component matrix computed",
                True, f"{report.determinant}", provenance))
    return checks


def cmd_table(args, reg) -> List[Check]:
    case = args.case
    basis_fx = _fixture(reg, f"basis.Z.{case}", "field_basis")
    fields = basis_fx.payload.fields
    golden_fx = _fixture(reg, f"table.golden.{case}", "golden_table")
    dim = golden_fx.payload.dim
    if dim != len(fields):
        raise UsageError(f"table.golden.{case} has dimension {dim}, but basis.Z.{case} "
                         f"has {len(fields)} fields")
    golden = golden_fx.payload.coeff_map()
    algebra = _presentation(basis_fx)
    checks = []
    diffs = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            got = {k + 1: c for k, c in algebra.structure[i][j]}
            ok = got == golden.get((i + 1, j + 1), {})
            if not ok:
                diffs += 1
            checks.append(check_of(
                f"table.{case}.{i + 1:02d}.{j + 1:02d}",
                f"bracket of generators {i + 1} and {j + 1} matches the golden entry",
                ok, f"computed {got}" if not ok else "", prov(golden_fx)))
    checks.append(check_of(
        f"table.{case}.summary",
        f"recomputed table matches all {dim * (dim - 1) // 2} upper-triangle entries",
        diffs == 0, f"{diffs} differences", prov(golden_fx)))
    return checks


def _control_bump(graph: GraphSurface) -> MultiPoly:
    """w1^2 conj(w1 w2) + conj(w1)^2 w1 w2, the real (2,2) term by which
    the negative control of `normal-form` perturbs a graph."""
    w1, w2, w1b, w2b = (MultiPoly.var(graph.im_part.vars, v)
                        for v in graph.holo_vars[:2] + graph.anti_vars[:2])
    return w1**2 * w1b * w2b + w1b**2 * w1 * w2


def cmd_normal_form(args, reg) -> List[Check]:
    case = args.case
    cutoff = args.cutoff
    if cutoff < MIN_CM_CUTOFF:
        raise UsageError(f"--cutoff must be at least {MIN_CM_CUTOFF}, got {cutoff}")
    fx = _fixture(reg, f"graph.cm.{case}", "graph_surface")
    graph: GraphSurface = fx.payload
    bump = _control_bump(graph)
    # series_expand refuses only a cutoff above MAX_DEGREE; this command
    # keeps the bound its usage states, MAX_DEGREE less the bump's degree
    # (251), though the control no longer expands the bump
    top = MAX_DEGREE - bump.degree()
    if cutoff > top:
        raise UsageError(f"--cutoff must be at most {top}, got {cutoff}")
    series = defining_series(graph, cutoff)
    checks = []
    try:
        series.verify_reality()
        ok, detail = True, ""
    except AssertionError as exc:
        ok, detail = False, str(exc)
    checks.append(check_of(f"normal_form.reality.{case}",
                           "series parts satisfy the reality pairing", ok, detail, prov(fx)))
    tr = trace_from_levi(series.part(1, 1), graph.holo_vars, graph.anti_vars)
    report = chern_moser_check(series, tr)
    for name, ok, detail in report.conditions:
        checks.append(check_of(
            f"normal_form.{case}.{name.replace(' ', '_')}",
            f"normal-form condition: {name}", ok, detail, prov(fx)))
    checks.append(check_of(
        f"normal_form.{case}.classical_trace3",
        "classical third-power trace condition on the (3,3) part (reported separately)",
        report.classical_trace3, "", prov(fx)))

    # the control is the graph with c0 * bump added to its numerator, c0 =
    # den(0): the bump has bidegree (2,2) and degree 4, and 1/den = 1/c0 +
    # terms of positive degree, so the control's (2,2) part is F22 + bump
    control_failed = not tr.apply(series.stored(2, 2) + bump * series.scale).is_zero()
    checks.append(check_of(
        f"normal_form.{case}.perturbation_control",
        "perturbing the (2,2) data breaks the first trace condition (negative control)",
        control_failed, "perturbed series unexpectedly passed" if not control_failed else "",
        prov(fx)))
    return checks


def cmd_verify_map(args, reg) -> List[Check]:
    fx = _fixture(reg, args.id, "rational_map")
    payload = fx.payload
    source = _fixture(reg, payload.source_graph, "graph_surface").payload
    phi = dict(payload.components)
    ok, _ = verify_surface_map(source, payload.target, payload.target_holo,
                               payload.target_anti, phi)
    checks = [check_of(
        f"map.identity.{args.id}",
        f"cross-multiplied surface identity holds: expected {payload.expected}",
        ok == payload.expected,
        f"identity {'holds' if ok else 'fails'}", prov(fx))]
    if payload.origin_image is not None:
        try:
            image = map_at_origin(phi, list(payload.target_holo))
            hit = image == list(payload.origin_image)
            detail = f"image {[str(x) for x in image]}"
        except ZeroDivisionError as exc:  # a reduced denominator vanishes at 0
            hit, detail = False, str(exc)
        checks.append(check_of(
            f"map.origin.{args.id}",
            "the origin maps to the recorded basepoint", hit, detail, prov(fx)))
    return checks


# the isotropy families of the cubic case's basepoint
C_ISOTROPY = ("family.isotropy.C.scale", "family.isotropy.C.shear", "family.circle.C")


def _cm_map(reg, case: str) -> RationalMapFixture:
    """The map.cm fixture of a case: its target is the tube surface rho and
    its origin image the basepoint."""
    return _fixture(reg, f"map.cm.{case}", "rational_map").payload


def cmd_isotropy(args, reg) -> List[Check]:
    case = args.case
    cm = _cm_map(reg, case)
    rho, point = cm.target, cm.origin_image
    checks = []
    if case == "D":
        fx = _fixture(reg, "family.isotropy.D", "map_family")
        fam: MapFamily = fx.payload
        res = verify_family_invariance(fam, rho, catalog.ZV, catalog.ZA, fixed_point=point)
        checks.append(check_of("isotropy.D.invariance",
                               "isotropy family preserves the tube surface symbolically",
                               res.ok, f"multiplier {res.multiplier}", prov(fx)))
        checks.append(check_of("isotropy.D.fixed_point",
                               f"family fixes the basepoint {catalog.point_text(point)} "
                               "identically", bool(res.fixes_point), "", prov(fx)))
        gens = infinitesimal_generators(fam)
        dim, _ = _generator_span(gens, _fixture(reg, "basis.Z.D", "field_basis").payload.fields)
        checks.append(check_of("isotropy.D.dimension",
                               "isotropy group has dimension 3",
                               len(gens) == 3 and dim == 3,
                               f"{len(gens)} generators spanning {dim}", prov(fx)))
        # bridge to the linear normal-form isotropy
        bridge_fx = _fixture(reg, "bridge.isotropy.D", "bridge")
        bridge = bridge_fx.payload
        wfam = _fixture(reg, bridge.w_family, "map_family").payload
        zfam = _fixture(reg, bridge.z_family, "map_family").payload
        phi = dict(_fixture(reg, bridge.map_id, "rational_map").payload.components)
        pvars = wfam.params
        r, mu, nu = (MultiPoly.var(pvars, n) for n in pvars)
        param_map = {"r": r, "u": mu * bridge.u_scale, "v": nu * bridge.v_scale}
        ok, detail = verify_map_conjugation(phi, wfam, zfam, param_map)
        checks.append(check_of("isotropy.D.bridge",
                               "conjugating the linear normal-form isotropy reproduces the "
                               "polynomial isotropy with u = 16mu/25, v = 2nu/5",
                               ok, detail, prov(bridge_fx)))
        # the full family restricted to the isotropy slice equals the family
        slice_fx = _fixture(reg, "slice.isotropy.D", "derived_slice")
        checks.append(_slice_check(reg, slice_fx))
        # the linear family preserves the normal-form graph
        checks.append(_graph_family_check(reg, "family.isotropy.D.w", "graph.cm.D",
                                          "isotropy.D.w_graph"))
    else:
        gens = []
        for fid in C_ISOTROPY:
            fx = _fixture(reg, fid, "map_family")
            res = verify_family_invariance(fx.payload, rho, catalog.ZV, catalog.ZA,
                                           fixed_point=point)
            checks.append(check_of(f"isotropy.C.invariance.{fid.split('.')[-1]}",
                                   f"{fid} preserves the tube and fixes the basepoint",
                                   res.ok and bool(res.fixes_point),
                                   f"multiplier {res.multiplier}", prov(fx)))
            gens.extend(infinitesimal_generators(fx.payload))
        bad = _fixture(reg, "family.circle.C.printed", "map_family")
        res = verify_family_invariance(bad.payload, rho, catalog.ZV, catalog.ZA)
        checks.append(check_of("isotropy.C.printed_circle_control",
                               "the circle action with the printed sign fails invariance "
                               "(negative control)", not res.ok, "", prov(bad)))
        dim, _ = _generator_span(gens, _fixture(reg, "basis.Z.C", "field_basis").payload.fields)
        checks.append(check_of("isotropy.C.dimension",
                               "isotropy group has dimension 3",
                               len(gens) == 3 and dim == 3,
                               f"{len(gens)} generators spanning {dim}",
                               "family.isotropy.C.* [source]"))
        checks.append(_graph_family_check(reg, "family.isotropy.C.w", "graph.cm.C",
                                          "isotropy.C.w_graph"))
    return checks


def _generator_span(gens, basis) -> Tuple[int, List[int]]:
    """The dimension of the real span of the generators that lie in the
    real span of the basis fields, and the positions of the generators
    that do not."""
    coords = expand_in_fields(gens, basis)
    inside = [c for c in coords if c is not None]
    return len(rref_rows(inside)), [i for i, c in enumerate(coords) if c is None]


def _graph_family_check(reg, family_id: str, graph_id: str, cid: str) -> Check:
    """A linear family preserves a graph Im w4 = N/D: the cross-multiplied
    defining polynomial (w4 - w4b) D - 2 i N transforms by a multiplier."""
    fx = _fixture(reg, family_id, "map_family")
    fam: MapFamily = fx.payload
    graph_fx = _fixture(reg, graph_id, "graph_surface")
    graph: GraphSurface = graph_fx.payload
    full_holo = graph.holo_vars + (graph.solved_var,)
    full_anti = graph.anti_vars + (graph.solved_conj,)
    universe = full_holo + full_anti
    n = graph.im_part.num.with_vars(universe)
    d = graph.im_part.den.with_vars(universe)
    w4 = MultiPoly.var(universe, graph.solved_var)
    w4b = MultiPoly.var(universe, graph.solved_conj)
    rho = (w4 - w4b) * d - n * GaussianRational(0, 2)
    res = verify_family_invariance(fam, rho, full_holo, full_anti)
    return check_of(cid,
                    "the linear family preserves the normal-form graph equation",
                    res.ok, f"multiplier {res.multiplier}", prov(fx))


def _slice_check(reg, slice_fx: Fixture) -> Check:
    info = slice_fx.payload
    full: MapFamily = _fixture(reg, info.family, "map_family").payload
    target: MapFamily = _fixture(reg, info.reduces_to, "map_family").payload
    assignments = dict(info.assignments)
    # the family's variables are the target's too, so they stay as they are
    values = {p: assignments[p].with_vars(target.universe) for p in full.params}
    ok = True
    detail = ""
    for i, comp in enumerate(full.components):
        if comp.subs_poly(values) != target.components[i]:
            ok = False
            detail = f"component {full.variables[i]} disagrees"
            break
    return check_of("isotropy.D.slice",
                    "restricting the full family to the isotropy slice reproduces the "
                    "isotropy family exactly",
                    ok, detail, prov(slice_fx))


def cmd_group(args, reg) -> List[Check]:
    case = args.case
    rho = _cm_map(reg, case).target
    checks = []
    zbasis = list(_fixture(reg, f"basis.Z.{case}", "field_basis").payload.fields)
    if case == "D":
        fx = _fixture(reg, "family.full.D", "map_family")
        res = verify_family_invariance(fx.payload, rho, catalog.ZV, catalog.ZA)
        checks.append(check_of("group.D.invariance",
                               "the ten-parameter family preserves the tube symbolically",
                               res.ok, f"multiplier {res.multiplier}", prov(fx)))
        gens = infinitesimal_generators(fx.payload)
        gen_sources = [(prov(fx), gens)]
        law_fx = _fixture(reg, "family.affine.D", "map_family")
    else:
        gen_sources = []
        afx = _fixture(reg, "family.affine.C", "map_family")
        px = _fixture(reg, "surface.table.5", "hypersurface").payload.defining
        res = verify_family_invariance(afx.payload, px)
        checks.append(check_of("group.C.affine_invariance",
                               "the affine family preserves the base surface in R^4",
                               res.ok, f"multiplier {res.multiplier}", prov(afx)))
        zlift = _lift_family_to_z(afx.payload)
        gen_sources.append((prov(afx), infinitesimal_generators(zlift)))
        tfx = _fixture(reg, "family.translations.z", "map_family")
        rest = verify_family_invariance(tfx.payload, rho, catalog.ZV, catalog.ZA)
        checks.append(check_of("group.C.translations",
                               "imaginary translations preserve the tube",
                               rest.ok, "", prov(tfx)))
        gen_sources.append((prov(tfx), infinitesimal_generators(tfx.payload)))
        for fid in C_ISOTROPY[1:]:  # the scaling is among the affine generators
            gfx = _fixture(reg, fid, "map_family")
            gen_sources.append((prov(gfx), infinitesimal_generators(gfx.payload)))
        law_fx = afx
    sourced = [(provenance, g) for provenance, gens in gen_sources for g in gens]
    dim, outside = _generator_span([g for _, g in sourced], zbasis)
    if outside:
        found = [sourced[i] for i in outside]
        checks.append(check_of(f"group.{case}.generator_membership",
                               "every generator lies in the span of the ten-field basis",
                               False, "; ".join(f"{g} from {p}" for p, g in found),
                               ", ".join(dict.fromkeys(p for p, _ in found))))
    checks.append(check_of(
        f"group.{case}.generators",
        "the infinitesimal generators span the full ten-dimensional algebra",
        dim == 10, f"{len(sourced)} generators spanning {dim}",
        f"basis.Z.{case} [source]"))
    law = verify_group_law(law_fx.payload)
    verdict = "PASS" if law.status == "ok" else ("UNRESOLVED" if law.status == "unresolved"
                                                 else "FAIL")
    checks.append(Check(f"group.{case}.law",
                        "stored composition law verifies with a two-sided identity",
                        verdict, law.detail, prov(law_fx)))
    return checks


def _lift_family_to_z(fam: MapFamily) -> MapFamily:
    """Rename an x-coordinate affine family to act on z coordinates."""
    rename = dict(zip(catalog.XV, catalog.ZV))
    comps = tuple(c.rename_vars(rename) for c in fam.components)
    return MapFamily(fam.name + ".z", catalog.ZV, fam.params, comps, fam.identity,
                     fam.relations, fam.constraints)


def cmd_nilpotency(args, reg) -> List[Check]:
    case = args.case
    algebra = _presentation(_fixture(reg, f"basis.Z.{case}", "field_basis"))
    iso_fx = _fixture(reg, f"isospan.{case}", "iso_span")
    iso = iso_fx.payload
    if len(iso.vectors[0]) != algebra.dim:
        raise UsageError(f"isospan.{case} has vectors of length {len(iso.vectors[0])}, "
                         f"but the algebra of basis.Z.{case} has dimension {algebra.dim}")
    cert = non_nilpotent_transitive_obstruction(
        algebra, list(iso.vectors), iso.z1_index, iso.z4_index, list(iso.s_indices))
    checks = []
    for name, ok, detail in cert.conditions:
        checks.append(check_of(f"nilpotency.{case}.cond_{name[0]}",
                               f"obstruction condition {name}", ok, detail, prov(iso_fx)))
    checks.append(check_of(
        f"nilpotency.{case}.induction",
        "iterated brackets keep unit coefficient on the transversal generator "
        f"(symbolic check to depth {cert.induction_depth})",
        cert.induction_ok, "", prov(iso_fx)))
    nil, dims = is_nilpotent(algebra)
    checks.append(check_of(
        f"nilpotency.{case}.full_algebra",
        "the full ten-dimensional algebra is not nilpotent "
        "(lower central series stabilizes above zero)",
        not nil, f"series dimensions {dims}", f"basis.Z.{case} [source]"))
    # negative control: wipe the bracket between the two marked generators
    structure = [list(row) for row in algebra.structure]
    structure[iso.z1_index][iso.z4_index] = structure[iso.z4_index][iso.z1_index] = ()
    perturbed = LieAlgebraPresentation(algebra.basis, tuple(map(tuple, structure)))
    cert_p = non_nilpotent_transitive_obstruction(
        perturbed, list(iso.vectors), iso.z1_index, iso.z4_index, list(iso.s_indices))
    checks.append(check_of(
        f"nilpotency.{case}.perturbed_control",
        "zeroing the marked bracket makes condition (a) fail (negative control)",
        not cert_p.passed and not cert_p.conditions[0][1], "", prov(iso_fx)))
    return checks


def cmd_witness(args, reg) -> List[Check]:
    fx = _fixture(reg, args.id, "witness")
    payload = fx.payload
    ok = verify_transitivity_witness(payload.witness, payload.base)
    return [check_of(f"witness.{args.id}",
                     "parameter assignment maps the base point to the symbolic target, "
                     "modulo the radical relation", ok, "", prov(fx))]


def cmd_lines(args, reg) -> List[Check]:
    checks = []
    for fid in reg.group_ids("line"):
        fx = _fixture(reg, fid, "line")
        payload = fx.payload
        domain = _fixture(reg, payload.domain_id, "domain").payload
        if len(payload.line.point) != len(domain.expr.vars):
            raise UsageError(f"{fid} has {len(payload.line.point)} coordinates, but its domain "
                             f"{payload.domain_id} has the variables {domain.expr.vars}")
        inequalities = [("the main inequality", domain.expr, "gt")] + [
            (f"{e} {'>' if s == 'gt' else '<'} 0", e, s) for e, s in domain.constraints]
        said = []
        for name, expr, sense in inequalities:
            verdict = line_in_domain_check(payload.line, expr, sense)
            said.append(f"{name}: {verdict.detail}")
            if verdict.verdict != "contained":  # name only the first that fails
                said = said[-1:]
                break
        checks.append(check_of(
            f"lines.{fid}",
            "the affine complex line reduces the defining inequality and every side "
            "constraint of its domain to constants of the right sign (contained)",
            verdict.verdict == "contained", "; ".join(said), prov(fx)))
    return checks


SHOWN_RESIDUALS = 3


def _residual_summary(residual: Sequence[MultiPoly]) -> str:
    """The detail of an UNRESOLVED chart: the number of residual equations,
    how many there are of each total degree, and the first few of them."""
    degrees = Counter(e.degree() for e in residual)
    shown = residual[:SHOWN_RESIDUALS]
    return (f"residual equations: {len(residual)} (by total degree: "
            + ", ".join(f"{d}: {degrees[d]}" for d in sorted(degrees))
            + f"); first {len(shown)}: " + "; ".join(str(e) for e in shown))


def cmd_scan(args, reg) -> List[Check]:
    surface, provenance = _surface(reg, args.surface)
    algebra = affine_symmetry_algebra(surface)
    if not 0 < args.dim < algebra.dim:
        raise UsageError(f"--dim must be strictly between 0 and the algebra dimension "
                         f"{algebra.dim}, got {args.dim}")
    scan = subalgebra_scan(algebra, args.dim)
    checks = []
    n = len(surface.variables)
    prefix = f"scan.{args.surface}.k{args.dim}."
    for chart in scan.charts:
        cid = prefix + "chart_" + "_".join(map(str, chart.pivots))
        if chart.status == "unresolved":
            checks.append(Check(cid, "chart closure system successively linearizes",
                                "UNRESOLVED", _residual_summary(chart.residual), provenance))
            if args.verbose:
                print(f"  {cid}: " + "; ".join(str(e) for e in chart.residual),
                      file=sys.stderr)
            continue
        if chart.status == "empty":
            checks.append(check_of(cid, "chart has no bracket-closed subspaces",
                                   True, "inconsistent closure system", provenance))
            continue
        detail = f"free variables {chart.free_vars}"
        if args.dim == n:
            minors_zero, det_is_surface_multiple = _chart_minor_analysis(
                algebra, chart, surface)
            detail += (f"; minors identically zero: {minors_zero}"
                       f"; determinant a constant multiple of the defining polynomial: "
                       f"{det_is_surface_multiple}")
            ok = chart.closure_verified and (minors_zero or det_is_surface_multiple)
            claim = ("solved subalgebras are closure-verified and yield no open orbit "
                     "other than the sides of the surface")
        else:
            ok = chart.closure_verified
            claim = "solved subalgebras are closure-verified"
        checks.append(check_of(cid, claim, ok, detail, provenance))
    if args.surface == "surface.table.1m" and args.dim == 5:
        fx = _fixture(reg, "basis.half_pseudo_ball.1m", "field_basis")
        coords = expand_in_fields(fx.payload.fields, algebra.basis)
        covered = (None not in coords
                   and scan_covers_subspace(scan, [list(c) for c in coords]))
        checks.append(check_of(
            f"scan.{args.surface}.k5.recovers_half_domain_subalgebra",
            "the scan's chart outcome contains the wall-preserving five-dimensional "
            "subalgebra", covered, "", prov(fx)))
    # every one of the C(m, k) charts is listed, and as UNRESOLVED exactly when
    # the scan left it unresolved
    charts = [c for c in checks if c.id.startswith(prefix + "chart_")]
    checks.append(check_of(
        prefix + "unresolved_count",
        "unresolved charts are explicitly counted",
        len(charts) == math.comb(algebra.dim, args.dim)
        and sum(c.verdict == "UNRESOLVED" for c in charts) == len(scan.unresolved),
        f"{len(scan.unresolved)} unresolved of {len(scan.charts)} charts",
        provenance))
    return checks


def _chart_minor_analysis(algebra, chart, surface) -> Tuple[bool, bool]:
    universe = merge_vars(surface.variables, chart.free_vars)
    basis = [VectorField(f.variables, tuple(c.with_vars(universe) for c in f.components))
             for f in algebra.basis]
    fields = [linear_combination([entry.with_vars(universe) for entry in row], basis)
              for row in chart.rows]
    det = minors_scan(fields)[0]  # k = n fields: the one maximal minor
    if det.is_zero():
        return True, False
    try:
        quotient = poly_div_exact(det, surface.defining.with_vars(universe))
    except ValueError:
        return False, False
    # quotient must not involve the surface coordinates
    return False, all(v not in surface.variables for v in quotient.used_vars())


def cmd_classify(args, reg) -> List[Check]:
    checks = []
    algebra_cache: Dict[str, LieAlgebraPresentation] = {}

    def algebra_for(fixture_id: str) -> LieAlgebraPresentation:
        """The affine symmetry algebra of a surface, or the presentation of
        a stored basis (a usage error if it is not closed), built once per call."""
        if fixture_id not in algebra_cache:
            if fixture_id.startswith("basis."):
                algebra = _presentation(_fixture(reg, fixture_id, "field_basis"))
            else:
                surface = _fixture(reg, fixture_id, "hypersurface").payload
                algebra = affine_symmetry_algebra(surface)
            algebra_cache[fixture_id] = algebra
        return algebra_cache[fixture_id]

    for fid in reg.group_ids("domain"):
        fx = _fixture(reg, fid, "domain")
        spec = fx.payload
        if fid.startswith("domain.H."):
            # both rows act by the five-field wall-preserving algebra
            algebra = algebra_for("basis.half_pseudo_ball.quadric")
            expected_dim = 5
        else:
            algebra = algebra_for(spec.source_surface)
            expected_dim = EXPECTED_DIMS.get(spec.source_surface)
            if expected_dim is None:
                raise UsageError(f"{fid} names the surface {spec.source_surface}, "
                                 "which has no expected symmetry dimension")
        rank = rank_at(list(algebra.basis), list(spec.probe))
        ok = spec.probe_inside() and rank == 4 and algebra.dim == expected_dim
        checks.append(check_of(
            f"classify.{fid}",
            "the domain probe is interior and the acting algebra has an open orbit "
            f"there (dimension {expected_dim}, rank 4)",
            ok, f"dimension {algebra.dim}, rank {rank}", prov(fx)))

    # closed-surface row: no open orbits from either printed variant
    for sid in sorted(NO_ORBIT_SURFACES):
        surface, provenance = _surface(reg, sid)
        algebra = algebra_for(sid)
        if algebra.dim >= 4:
            ok = minors_scan(list(algebra.basis))[0].is_zero()
            detail = "all maximal minors vanish identically"
        else:
            ok = True
            detail = f"dimension {algebra.dim} < 4: no open orbits possible"
        checks.append(check_of(f"classify.eliminated.{sid}",
                               "the closed-surface variant contributes no domains",
                               ok, detail, provenance))

    # the cubic-graph case coincides with the indefinite-quadric domains
    for mid in ("map.case3.derived", "map.quadric.to.Bminus"):
        fx = _fixture(reg, mid, "rational_map")
        source = _fixture(reg, fx.payload.source_graph, "graph_surface").payload
        ok, _ = verify_surface_map(source, fx.payload.target, fx.payload.target_holo,
                                   fx.payload.target_anti, dict(fx.payload.components))
        checks.append(check_of(
            f"classify.equivalence.{mid}",
            "polynomial equivalence onto an already-listed tube verifies exactly",
            ok == fx.payload.expected, "", prov(fx)))

    # transitivity witnesses for the four new domains
    for wid in reg.group_ids("witness"):
        fx = _fixture(reg, wid, "witness")
        ok = verify_transitivity_witness(fx.payload.witness, fx.payload.base)
        checks.append(check_of(f"classify.{wid}",
                               "the group moves the base point to an arbitrary "
                               "symbolic target of the domain",
                               ok, "", prov(fx)))

    # the half-domain subalgebra drops rank on its wall
    basis_fx = _fixture(reg, "basis.half_pseudo_ball.quadric", "field_basis")
    fields = list(basis_fx.payload.fields)
    wall_rank = rank_at(fields, [0, 0, 0, 2])
    checks.append(check_of(
        "classify.H.wall_rank_drop",
        "the five-field family is of full rank on the half-domains but drops rank on "
        "the wall x1 = 0",
        wall_rank < 4, f"rank {wall_rank} at (0,0,0,2)", prov(basis_fx)))
    return checks


# ----------------------------------------------------------------- plumbing

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each build leaves
    cyclic garbage that only the cyclic collector frees."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit the JSON report")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized probes")
    ap = argparse.ArgumentParser(
        prog="tubes", parents=[common],
        description="Exact verification of the tube-domain classification catalog")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("symmetry", parents=[common],
                       help="affine symmetry algebra of a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--verbose", action="store_true",
                   help="print the computed basis fields to stderr")
    p = sub.add_parser("orbits", parents=[common], help="determinant/minor orbit report")
    p.add_argument("--surface", required=True)
    p.add_argument("--probes", nargs="*", help="extra probes as comma-separated rationals")
    p.add_argument("--random-probes", type=int, default=0)
    p = sub.add_parser("table", parents=[common],
                       help="recompute a golden commutation table")
    p.add_argument("--case", choices=("D", "C"), required=True)
    p = sub.add_parser("normal-form", parents=[common],
                       help="bidegree expansion and trace conditions")
    p.add_argument("--case", choices=("D", "C"), required=True)
    p.add_argument("--cutoff", type=int, default=8)
    p = sub.add_parser("verify-map", parents=[common],
                       help="verify a stored rational map fixture")
    p.add_argument("--id", required=True)
    p = sub.add_parser("isotropy", parents=[common],
                       help="isotropy family checks for a case")
    p.add_argument("--case", choices=("D", "C"), required=True)
    p = sub.add_parser("group", parents=[common],
                       help="full automorphism family checks for a case")
    p.add_argument("--case", choices=("D", "C"), required=True)
    p = sub.add_parser("nilpotency", parents=[common],
                       help="non-nilpotency obstruction certificate")
    p.add_argument("--case", choices=("D", "C"), required=True)
    p = sub.add_parser("witness", parents=[common], help="verify a transitivity witness")
    p.add_argument("--id", required=True)
    sub.add_parser("lines", parents=[common], help="complex-line containment witnesses")
    p = sub.add_parser("scan", parents=[common], help="Grassmannian subalgebra scan")
    p.add_argument("--surface", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--verbose", action="store_true",
                   help="print every UNRESOLVED chart's full residual system to stderr")
    sub.add_parser("classify", parents=[common],
                   help="full catalog pipeline against the domain list")
    return ap


COMMANDS = {
    "symmetry": cmd_symmetry,
    "orbits": cmd_orbits,
    "table": cmd_table,
    "normal-form": cmd_normal_form,
    "verify-map": cmd_verify_map,
    "isotropy": cmd_isotropy,
    "group": cmd_group,
    "nilpotency": cmd_nilpotency,
    "witness": cmd_witness,
    "lines": cmd_lines,
    "scan": cmd_scan,
    "classify": cmd_classify,
}


def emit(report: Report, as_json: bool) -> None:
    if as_json:
        print(to_json({**vars(report), "checks": [vars(c) for c in report.checks]}))
        return
    for c in report.checks:
        print(f"[{c.verdict}] {c.id}: {c.claim}" + (f"  ({c.details})" if c.details else ""))
    s = report.summary
    print(f"summary: {s['pass']} pass, {s['fail']} fail, {s['unresolved']} unresolved "
          f"in {report.seconds}s")


def exit_code(report: Report) -> int:
    if report.summary["fail"]:
        return 1
    if report.summary["unresolved"]:
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    if not args.command:
        ap.print_help()
        return USAGE_ERROR
    started = time.perf_counter()
    try:
        checks = COMMANDS[args.command](args, catalog.active_registry())
    except (UsageError, catalog.FixtureError) as exc:  # a fixture fault is bad input too
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = assemble(args.command, checks, started)
    emit(report, getattr(args, "json", False))
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
