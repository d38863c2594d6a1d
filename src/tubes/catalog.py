"""Authoritative fixture store.

Every surface, domain, map family, vector-field basis, golden table,
probe point and witness consumed by the verification commands lives
here, each tagged with its provenance class:

* source  - transcribed from the catalogued classification source;
* derived - produced by the standalone oracle script
            (scripts/derive_fixtures.py) before the engine consumed it;
* direct  - trivially checkable constructions.

Claims describe the mathematical assertion each fixture participates
in. Fixtures are immutable after load and serialize one file per id
under a fixtures/ tree (see export_tree), with an index listing ids,
tags and claims.
"""

from __future__ import annotations

import difflib
import fnmatch
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from . import interchange as io
from .fields import HoloField, VectorField
from .normal_form import GraphSurface, MapFamily
from .poly import MultiPoly, RationalFunction
from .relations import RelationContext
from .scalars import GaussianRational, I
from .symmetry import ComplexLine, Hypersurface, TransitivityWitness, satisfies

# coordinate universes used throughout the catalog
XV = ("x1", "x2", "x3", "x4")
X8 = ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4")
ZV = ("z1", "z2", "z3", "z4")
ZF = ZV + ("z1b", "z2b", "z3b", "z4b")
WH = ("w1", "w2", "w3")
WA = ("w1b", "w2b", "w3b")
WG = WH + WA
W4 = ("w1", "w2", "w3", "w4")
W8 = W4 + ("w1b", "w2b", "w3b", "w4b")

Z_PAIRING = {f"z{i}": f"z{i}b" for i in range(1, 5)}
Z_PAIRING.update({v: k for k, v in Z_PAIRING.items()})
W_PAIRING = {f"w{i}": f"w{i}b" for i in range(1, 4)}
W_PAIRING.update({v: k for k, v in W_PAIRING.items()})


def _vars(names):
    return [MultiPoly.var(names, n) for n in names]


def _x(universe, j):
    return (MultiPoly.var(universe, f"z{j}") + MultiPoly.var(universe, f"z{j}b")) * Fraction(1, 2)


# ---------------------------------------------------------------- structures

@dataclass(frozen=True)
class Fixture:
    id: str
    kind: str
    tag: str  # "source" | "derived" | "direct"
    claim: str
    payload: object


@dataclass(frozen=True)
class DomainSpec:
    name: str
    expr: MultiPoly  # the domain is {expr > 0} (plus side constraints)
    constraints: Tuple[Tuple[MultiPoly, str], ...]
    probe: Tuple[Fraction, ...]
    levi_type: str
    source_surface: str

    def __post_init__(self):
        for _, sense in self.constraints:
            if sense not in ("gt", "lt"):
                raise ValueError(f"unknown constraint sense {sense!r}")

    def probe_inside(self) -> bool:
        for expr, sense in ((self.expr, "gt"),) + self.constraints:
            v = expr.eval_at(dict(zip(expr.vars, self.probe)))
            if not v.is_real() or not satisfies(v.re, sense):
                return False
        return True


@dataclass(frozen=True)
class FieldBasis:
    fields: Tuple[VectorField, ...]


@dataclass(frozen=True)
class GoldenTable:
    dim: int
    entries: Tuple[Tuple[int, int, Tuple[Tuple[int, Fraction], ...]], ...]
    # 1-based indices; omitted pairs are zero, lower triangle by antisymmetry

    def coeff_map(self) -> Dict[Tuple[int, int], Dict[int, Fraction]]:
        return {(i, j): dict(combo) for i, j, combo in self.entries}


@dataclass(frozen=True)
class IsoSpan:
    vectors: Tuple[Tuple[Fraction, ...], ...]
    z1_index: int
    z4_index: int
    s_indices: Tuple[int, ...]


@dataclass(frozen=True)
class RationalMapFixture:
    components: Tuple[Tuple[str, RationalFunction], ...]
    source_graph: str  # fixture id of the GraphSurface
    target: MultiPoly
    target_holo: Tuple[str, ...]
    target_anti: Tuple[str, ...]
    expected: bool
    origin_image: Optional[Tuple[GaussianRational, ...]] = None


@dataclass(frozen=True)
class WitnessFixture:
    witness: TransitivityWitness
    base: Tuple[Fraction, ...]


@dataclass(frozen=True)
class LineFixture:
    line: ComplexLine
    domain_id: str


@dataclass(frozen=True)
class BridgeInfo:
    """Parameter match between the linear normal-form isotropy family and
    the cubic isotropy family under the rational coordinate change."""
    u_scale: Fraction
    v_scale: Fraction
    w_family: str
    z_family: str
    map_id: str


@dataclass(frozen=True)
class SliceInfo:
    """Parameter restriction of the full family onto its isotropy part."""
    family: str
    reduces_to: str
    slice_params: Tuple[str, ...]
    assignments: Tuple[Tuple[str, MultiPoly], ...]


@dataclass(frozen=True)
class AlphaFamilyInfo:
    parameter: str
    samples: Tuple[Fraction, ...]
    sample_ids: Tuple[str, ...]
    target: str
    sign_rule: str


# -------------------------------------------------------------- polynomials

def _surfaces() -> List[Fixture]:
    x1, x2, x3, x4 = _vars(XV)
    out = []

    def add(fid, tag, claim, poly, bp, cons=(), irred=False, name=""):
        out.append(Fixture(fid, "hypersurface", tag, claim,
                           Hypersurface(poly, tuple(Fraction(b) for b in bp),
                                        tuple(cons), irred, name or fid)))

    gtx1 = (x1, "gt")
    add("surface.table.1p", "source",
        "definite paraboloid x4 = x1^2 + x2^2 + x3^2; affine symmetry dimension 7",
        x4 - x1**2 - x2**2 - x3**2, (0, 0, 0, 0))
    add("surface.table.1m", "source",
        "indefinite paraboloid x4 = x1^2 + x2^2 - x3^2; affine symmetry dimension 7",
        x4 - x1**2 - x2**2 + x3**2, (0, 0, 0, 0))
    add("surface.table.2.cubic", "source",
        "printed cubic variant x1^2 + x2^2 + x3^3 + x4^2 = 1 of the closed-surface row; "
        "stored verbatim next to the quadric variant, neither labelled correct",
        x1**2 + x2**2 + x3**3 + x4**2 - 1, (1, 0, 0, 0))
    add("surface.table.2.sphere", "source",
        "quadric variant (sphere) of the closed-surface row; affine symmetry is the "
        "6-dimensional rotation algebra and its minors vanish identically",
        x1**2 + x2**2 + x3**2 + x4**2 - 1, (1, 0, 0, 0))
    add("surface.table.3", "source",
        "cubic graph x4 = x1 x2 + x3^2 + x1^3; affine symmetry dimension 5",
        x4 - x1*x2 - x3**2 - x1**3, (0, 0, 0, 0))
    for fid, alpha in (("surface.table.4.a0", Fraction(0)),
                       ("surface.table.4.a112", Fraction(1, 12)),
                       ("surface.table.4.a1", Fraction(1)),
                       ("surface.table.4.am1", Fraction(-1))):
        add(fid, "source",
            f"quartic family member alpha = {alpha}; affine symmetry dimension 4",
            x4 - x1*x2 - x3**2 - x1**2*x3 - x1**4 * alpha, (0, 0, 0, 0))
    add("surface.table.5", "source",
        "cubic case x4 = x1 x2 + x1 x3^2 with basepoint (1,0,0,0); dimension 4",
        x4 - x1*x2 - x1*x3**2, (1, 0, 0, 0), (gtx1,), irred=True)
    add("surface.table.6", "source",
        "quartic-degenerate case x4^2 = x1 x2 + x1^2 x3, x1 > 0, basepoint (1,0,1,1); "
        "dimension 4",
        x4**2 - x1*x2 - x1**2*x3, (1, 0, 1, 1), (gtx1,), irred=True)
    add("surface.quadric.half", "derived",
        "indefinite quadric x4 = x1 x2 + x3^2 restricted to x1 > 0, the boundary of the "
        "half-domains; its wall-preserving subalgebra has dimension 5",
        x4 - x1*x2 - x3**2, (1, 0, 0, 0), (gtx1,))

    p6 = (x4**2 - x1*x2 - x1**2*x3).with_vars(X8)
    out.append(Fixture(
        "surface.tube.6.realified", "hypersurface", "derived",
        "the quartic-degenerate surface viewed in the 8 real coordinates of C^4; "
        "carrier for the simple-transitivity rank check",
        Hypersurface(p6, tuple(Fraction(b) for b in (1, 0, 1, 1, 0, 0, 0, 0)),
                     ((MultiPoly.var(X8, "x1"), "gt"),), True, "surface.tube.6.realified")))

    out.append(Fixture(
        "surface.table.4", "alpha_family", "source",
        "the quartic one-parameter family x4 = x1 x2 + x3^2 + x1^2 x3 + alpha x1^4; the "
        "normal-form target carries |w1|^4 with the sign of alpha - 1/12",
        AlphaFamilyInfo("alpha", (Fraction(0), Fraction(1, 12), Fraction(1)),
                        ("surface.table.4.a0", "surface.table.4.a112", "surface.table.4.a1"),
                        "2 Im w4 = w1*conj(w2) + w2*conj(w1) + |w3|^2 +/- |w1|^4",
                        "sign(alpha - 1/12)")))
    return out


def _domains() -> List[Fixture]:
    x1, x2, x3, x4 = _vars(XV)
    gtx1 = (x1, "gt")
    data = [
        ("domain.Bp.gt", x4 - x1**2 - x2**2 - x3**2, (), (0, 0, 0, 1),
         "pseudoconvex", "surface.table.1p", "the tube form of the unit ball"),
        ("domain.Bp.lt", x1**2 + x2**2 + x3**2 - x4, (), (0, 0, 0, -1),
         "pseudoconcave", "surface.table.1p", "complement side of the ball quadric"),
        ("domain.Bm.gt", x4 - x1**2 - x2**2 + x3**2, (), (0, 0, 0, 1),
         "++-", "surface.table.1m", "upper side of the indefinite quadric"),
        ("domain.Bm.lt", x1**2 + x2**2 - x3**2 - x4, (), (0, 0, 0, -1),
         "+--", "surface.table.1m", "lower side of the indefinite quadric"),
        ("domain.H.gt", x4 - x1*x2 - x3**2, (gtx1,), (1, 0, 0, 1),
         "++-", "surface.quadric.half", "upper half-domain over the indefinite quadric"),
        ("domain.H.lt", x1*x2 + x3**2 - x4, (gtx1,), (1, 0, 0, -1),
         "+--", "surface.quadric.half", "lower half-domain over the indefinite quadric"),
        ("domain.Np.gt", x4 - x1*x2 - x3**2 - x1**2*x3 - x1**4, (), (0, 0, 0, 1),
         "++-", "surface.table.4.a1", "upper side of the plus-quartic surface"),
        ("domain.Np.lt", x1*x2 + x3**2 + x1**2*x3 + x1**4 - x4, (), (0, 0, 0, -1),
         "+--", "surface.table.4.a1", "lower side of the plus-quartic surface"),
        ("domain.Nm.gt", x4 - x1*x2 - x3**2 - x1**2*x3 + x1**4, (), (0, 0, 0, 1),
         "++-", "surface.table.4.am1", "upper side of the minus-quartic surface"),
        ("domain.Nm.lt", x1*x2 + x3**2 + x1**2*x3 - x1**4 - x4, (), (0, 0, 0, -1),
         "+--", "surface.table.4.am1", "lower side of the minus-quartic surface"),
        ("domain.C.gt", x4 - x1*x2 - x1*x3**2, (gtx1,), (1, 0, 0, 1),
         "++-", "surface.table.5", "upper side of the cubic case, x1 > 0"),
        ("domain.C.lt", x1*x2 + x1*x3**2 - x4, (gtx1,), (1, 0, 0, -1),
         "+--", "surface.table.5", "lower side of the cubic case, x1 > 0"),
        ("domain.D.gt", x4**2 - x1*x2 - x1**2*x3, (gtx1,), (1, 0, 0, 1),
         "++-", "surface.table.6", "outer side of the quartic-degenerate case, x1 > 0"),
        ("domain.D.lt", x1*x2 + x1**2*x3 - x4**2, (gtx1,), (1, 1, 0, 0),
         "+--", "surface.table.6",
         "inner side of the quartic-degenerate case, x1 > 0 (probe chosen off the surface)"),
    ]
    out = []
    for fid, expr, cons, probe, levi, src, text in data:
        tag = "derived" if fid == "domain.D.lt" else "source"
        spec = DomainSpec(fid.split(".", 1)[1], expr, tuple(cons),
                          tuple(Fraction(p) for p in probe), levi, src)
        out.append(Fixture(fid, "domain", tag,
                           f"{text}; the interior probe satisfies the inequalities exactly",
                           spec))
    return out


def _z_basis_d() -> Tuple[HoloField, ...]:
    z1, z2, z3, z4 = _vars(ZV)
    f = lambda **c: HoloField(ZV, tuple(c.get(v, MultiPoly.zero(ZV)) for v in ZV))
    one = MultiPoly.const(ZV, 1)
    return (
        f(z1=z1, z2=z2, z4=z4),
        f(z2=z1, z3=-one),
        f(z2=2*z4, z4=z1),
        f(z1=one*I, z4=one*I),
        f(z2=one*I),
        f(z3=one*I),
        f(z2=one*(2*I), z4=one*I),
        f(z2=2*(z1 + z2 - z4), z3=2*(z3 - 1), z4=z4 - z1),
        f(z2=z1**2*I, z3=z1*(-2*I)),
        f(z2=(z1**2 - 2*z1*z4)*(2*I), z3=(z1 - z4)*(-4*I), z4=z1**2*(-I)),
    )


def _z_basis_c() -> Tuple[HoloField, ...]:
    z1, z2, z3, z4 = _vars(ZV)
    f = lambda **c: HoloField(ZV, tuple(c.get(v, MultiPoly.zero(ZV)) for v in ZV))
    one = MultiPoly.const(ZV, 1)
    return (
        f(z1=z1, z4=z4),
        f(z2=-2*z3, z3=one),
        f(z2=one, z4=z1),
        f(z1=one*I),
        f(z2=one*I),
        f(z3=one*I),
        f(z4=one*I),
        f(z2=2*z2, z3=z3, z4=2*z4),
        f(z2=z1*(2*I), z4=z1**2*I),
        f(z2=z3**2*(-I), z3=z3*I),
    )


D_TABLE_ENTRIES = (
    (1, 4, ((4, -1),)), (1, 5, ((5, -1),)), (1, 7, ((7, -1),)),
    (1, 9, ((9, 1),)), (1, 10, ((10, 1),)),
    (2, 4, ((5, -1),)), (2, 8, ((2, 2),)),
    (3, 4, ((7, -1),)), (3, 7, ((5, -2),)), (3, 8, ((3, 1),)), (3, 10, ((9, -2),)),
    (4, 9, ((2, -2),)), (4, 10, ((3, 2),)),
    (5, 8, ((5, 2),)), (6, 8, ((6, 2),)),
    (7, 8, ((7, 1),)), (7, 10, ((2, 4),)),
    (8, 9, ((9, -2),)), (8, 10, ((10, -1),)),
)

C_TABLE_ENTRIES = (
    (1, 4, ((4, -1),)), (1, 7, ((7, -1),)), (1, 9, ((9, 1),)),
    (2, 6, ((5, 2),)), (2, 8, ((2, 1),)), (2, 10, ((6, 1),)),
    (3, 4, ((7, -1),)), (3, 8, ((3, 2),)),
    (4, 9, ((3, -2),)),
    (5, 8, ((5, 2),)),
    (6, 8, ((6, 1),)), (6, 10, ((2, -1),)),
    (7, 8, ((7, 2),)),
    (8, 9, ((9, -2),)),
)


def _bases_and_tables() -> List[Fixture]:
    out = [
        Fixture("basis.Z.D", "field_basis", "source",
                "ten holomorphic generators of the automorphism algebra for the "
                "quartic-degenerate tube", FieldBasis(_z_basis_d())),
        Fixture("basis.Z.C", "field_basis", "source",
                "ten holomorphic generators of the automorphism algebra for the "
                "cubic tube", FieldBasis(_z_basis_c())),
        Fixture("table.golden.D", "golden_table", "source",
                "upper-triangle commutation table of the ten-generator basis, "
                "quartic-degenerate case; 45 entries, omitted ones zero",
                GoldenTable(10, tuple((i, j, tuple((k, Fraction(c)) for k, c in combo))
                                      for i, j, combo in D_TABLE_ENTRIES))),
        Fixture("table.golden.C", "golden_table", "source",
                "upper-triangle commutation table of the ten-generator basis, cubic case",
                GoldenTable(10, tuple((i, j, tuple((k, Fraction(c)) for k, c in combo))
                                      for i, j, combo in C_TABLE_ENTRIES))),
    ]
    x1, x2, x3, x4 = _vars(XV)
    rotations = []
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        comps = {XV[i]: MultiPoly.var(XV, XV[j]), XV[j]: -MultiPoly.var(XV, XV[i])}
        rotations.append(VectorField(XV, tuple(comps.get(v, MultiPoly.zero(XV)) for v in XV)))
    out.append(Fixture("basis.rotations.sphere", "field_basis", "direct",
                       "the six rotation fields x_j d_k - x_k d_j tangent to the sphere",
                       FieldBasis(tuple(rotations))))

    def vf(comps):
        return VectorField(XV, tuple(comps.get(v, MultiPoly.zero(XV)) for v in XV))

    one = MultiPoly.const(XV, 1)
    quadric_half = (
        vf({"x1": x1, "x2": -x2}),
        vf({"x2": x2, "x3": x3 * Fraction(1, 2), "x4": x4}),
        vf({"x2": 2*x3, "x3": -x1}),
        vf({"x2": one, "x4": x1}),
        vf({"x3": one, "x4": 2*x3}),
    )
    out.append(Fixture(
        "basis.half_pseudo_ball.quadric", "field_basis", "derived",
        "five affine fields tangent to x4 = x1 x2 + x3^2 and to the wall x1 = 0; "
        "closed under bracket (oracle script, half_pseudo_ball section)",
        FieldBasis(quadric_half)))
    onm = (
        vf({"x1": x3, "x3": x1}),
        vf({"x1": x1 - x3, "x2": x2, "x3": x3 - x1, "x4": 2*x4}),
        vf({"x1": x2, "x2": -(x1 + x3), "x3": -x2}),
        vf({"x1": one, "x3": -one, "x4": 2*(x1 + x3)}),
        vf({"x2": one, "x4": 2*x2}),
    )
    out.append(Fixture(
        "basis.half_pseudo_ball.1m", "field_basis", "derived",
        "the half-domain subalgebra expressed inside the dimension-7 symmetry algebra of "
        "the indefinite paraboloid: tangent to the quadric and to the wall x1 + x3 = 0 "
        "(oracle script, half_pseudo_ball section)",
        FieldBasis(onm)))

    z1, z2, z3, z4 = _vars(ZV)
    onez = MultiPoly.const(ZV, 1)
    hf = lambda **c: HoloField(ZV, tuple(c.get(v, MultiPoly.zero(ZV)) for v in ZV))
    transitive = (
        hf(z1=z1, z2=z2, z4=z4),
        hf(z2=z1, z3=-onez),
        hf(z2=2*z4, z4=z1),
        hf(z1=onez*I),
        hf(z2=onez*I),
        hf(z3=onez*I),
        hf(z4=onez*I),
    )
    out.append(Fixture(
        "basis.H.transitive.D", "field_basis", "source",
        "generators of the r = 1 subgroup plus the four imaginary translations; acts "
        "simply transitively on the realified quartic-degenerate surface",
        FieldBasis(transitive)))
    return out


def _iso_spans() -> List[Fixture]:
    def vec(entries: Mapping[int, int]) -> Tuple[Fraction, ...]:
        return tuple(Fraction(entries.get(k, 0)) for k in range(1, 11))

    d = IsoSpan((vec({8: 1}), vec({9: 1, 5: -1, 6: 2}), vec({10: 1, 7: 1})),
                z1_index=0, z4_index=3, s_indices=(1, 2, 4, 5, 6, 7, 8, 9))
    c = IsoSpan((vec({8: 1}), vec({9: 1, 5: -2, 7: -1}), vec({10: 1})),
                z1_index=0, z4_index=3, s_indices=(1, 2, 4, 5, 6, 7, 8, 9))
    return [
        Fixture("isospan.D", "iso_span", "source",
                "isotropy span inside the ten-generator basis, quartic-degenerate case: "
                "generators 8, 9 - 5 + 2*6, 10 + 7", d),
        Fixture("isospan.C", "iso_span", "source",
                "isotropy span inside the ten-generator basis, cubic case: "
                "generators 8, 9 - 2*5 - 7, 10", c),
    ]


def _families() -> List[Fixture]:
    out = []

    # affine family, quartic-degenerate case (acts on the base in R^4)
    u = XV + ("q", "r", "s", "t")
    x1, x2, x3, x4, q, r, s, t = _vars(u)
    comps = (q*x1,
             q*r**2*(s + t**2)*x1 + q*r**2*x2 + 2*q*r**2*t*x4,
             r**2*x3 - r**2*s,
             q*r*t*x1 + q*r*x4)
    primed = ("qp", "rp", "sp", "tp")
    lawv = ("q", "r", "s", "t") + primed
    qv, rv, sv, tv, qp, rp, sp, tp = _vars(lawv)
    law = (("q", RationalFunction(qv*qp)),
           ("r", RationalFunction(rv*rp)),
           ("s", RationalFunction(sp*rp**2 + sv, rp**2)),
           ("t", RationalFunction(tp*rp + tv, rp)))
    out.append(Fixture(
        "family.affine.D", "map_family", "source",
        "four-parameter affine group preserving the quartic-degenerate surface with "
        "multiplier q^2 r^2; composition law derived by the oracle script",
        MapFamily("affine.D", XV, ("q", "r", "s", "t"),
                  tuple(RationalFunction(c) for c in comps),
                  (("q", Fraction(1)), ("r", Fraction(1)), ("s", Fraction(0)), ("t", Fraction(0))),
                  constraints=(("q", "positive"), ("r", "nonzero")),
                  composition=law, composition_primed=primed)))

    # affine family, cubic case
    comps = (q*x1,
             r**2*(x2 - 2*s*x3 + t),
             r*(x3 + s),
             q*r**2*(x4 + s**2*x1 + t*x1))
    law = (("q", RationalFunction(qv*qp)),
           ("r", RationalFunction(rv*rp)),
           ("s", RationalFunction(sp*rp + sv, rp)),
           ("t", RationalFunction(tp*rp**2 - 2*sv*sp*rp + tv, rp**2)))
    out.append(Fixture(
        "family.affine.C", "map_family", "source",
        "four-parameter affine group preserving the cubic surface with multiplier q r^2; "
        "composition law derived by the oracle script",
        MapFamily("affine.C", XV, ("q", "r", "s", "t"),
                  tuple(RationalFunction(c) for c in comps),
                  (("q", Fraction(1)), ("r", Fraction(1)), ("s", Fraction(0)), ("t", Fraction(0))),
                  constraints=(("q", "positive"), ("r", "nonzero")),
                  composition=law, composition_primed=primed)))

    # imaginary translations on C^4
    u = ZV + ("a1", "a2", "a3", "a4")
    z1, z2, z3, z4, a1, a2, a3, a4 = _vars(u)
    out.append(Fixture(
        "family.translations.z", "map_family", "direct",
        "imaginary translations z_j + i a_j, under which every tube is invariant",
        MapFamily("translations", ZV, ("a1", "a2", "a3", "a4"),
                  tuple(RationalFunction(c) for c in
                        (z1 + a1*I, z2 + a2*I, z3 + a3*I, z4 + a4*I)),
                  tuple((f"a{k}", Fraction(0)) for k in range(1, 5)))))

    # isotropy family at (1,0,1,1), quartic-degenerate case
    u = ZV + ("r", "u", "v")
    z1, z2, z3, z4, r, uu, v = _vars(u)
    comps = (
        z1,
        -2*v**2*z1**3 + (-2*v + 4*v*r + uu)*z1**2*I - z1*z4*v*r*4*I
        + 2*(v**2 + r**2 - r)*z1 + r**2*z2 + 2*(r - r**2)*z4 + v*2*I - uu*I,
        2*v**2*z1**2 - (2*uu + 4*v*r)*z1*I + r**2*z3 + z4*v*r*4*I
        - r**2 + 1 - 2*v**2 + uu*2*I,
        -z1**2*v*I + (1 - r)*z1 + r*z4 + v*I,
    )
    out.append(Fixture(
        "family.isotropy.D", "map_family", "source",
        "three-parameter isotropy of the basepoint (1,0,1,1) on the quartic-degenerate "
        "tube; preserves the tube with multiplier r^2 and fixes the basepoint",
        MapFamily("isotropy.D", ZV, ("r", "u", "v"),
                  tuple(RationalFunction(c) for c in comps),
                  (("r", Fraction(1)), ("u", Fraction(0)), ("v", Fraction(0))),
                  constraints=(("r", "nonzero"),))))

    # full ten-parameter family, quartic-degenerate case
    pnames = ("q", "r", "s", "t", "u", "v", "a1", "a2", "a3", "a4")
    u = ZV + pnames
    z1, z2, z3, z4, q, r, s, t, uu, v, a1, a2, a3, a4 = _vars(u)
    comps = (
        q*z1 + a1*I,
        -2*q*v**2*z1**3 + q*(-2*v + 4*v*r - 2*v*t + uu)*z1**2*I - q*z1*z4*v*r*4*I
        + q*(2*v**2 + 2*r**2 - 2*r - 2*t*r + 2*t + s + t**2)*z1
        + q*r**2*z2 + 2*q*(r - r**2 + t*r)*z4 + a2*I,
        2*v**2*z1**2 - 2*(2*v*r + uu)*z1*I + r**2*z3 + z4*v*r*4*I
        - r**2 - 2*v**2 - s + 1 + a3*I,
        -q*z1**2*v*I + q*(t - r + 1)*z1 + q*r*z4 + a4*I,
    )
    out.append(Fixture(
        "family.full.D", "map_family", "source",
        "the full ten-parameter holomorphic automorphism family of the "
        "quartic-degenerate tube domains; preserves the tube with multiplier q^2 r^2",
        MapFamily("full.D", ZV, pnames,
                  tuple(RationalFunction(c) for c in comps),
                  (("q", Fraction(1)), ("r", Fraction(1)), ("s", Fraction(0)),
                   ("t", Fraction(0)), ("u", Fraction(0)), ("v", Fraction(0)),
                   ("a1", Fraction(0)), ("a2", Fraction(0)), ("a3", Fraction(0)),
                   ("a4", Fraction(0))),
                  constraints=(("q", "positive"), ("r", "nonzero")))))

    # linear isotropy in normal-form coordinates, quartic-degenerate case
    u = W4 + ("r", "mu", "nu")
    w1, w2, w3, w4, r, mu, nu = _vars(u)
    comps = (w1,
             (mu*I - nu**2*Fraction(1, 2))*w1 + r**2*w2 + nu*r*w3*I,
             nu*w1*I + r*w3,
             r**2*w4)
    out.append(Fixture(
        "family.isotropy.D.w", "map_family", "source",
        "linear isotropy in the normal-form coordinates, quartic-degenerate case",
        MapFamily("isotropy.D.w", W4, ("r", "mu", "nu"),
                  tuple(RationalFunction(c) for c in comps),
                  (("r", Fraction(1)), ("mu", Fraction(0)), ("nu", Fraction(0))),
                  constraints=(("r", "nonzero"),))))

    # cubic-case isotropy pieces
    u = ZV + ("r",)
    z1, z2, z3, z4, r = _vars(u)
    out.append(Fixture(
        "family.isotropy.C.scale", "map_family", "source",
        "scaling isotropy of (1,0,0,0) on the cubic tube, multiplier r^2",
        MapFamily("isotropy.C.scale", ZV, ("r",),
                  tuple(RationalFunction(c) for c in (z1, r**2*z2, r*z3, r**2*z4)),
                  (("r", Fraction(1)),), constraints=(("r", "nonzero"),))))
    u = ZV + ("u",)
    z1, z2, z3, z4, uu = _vars(u)
    out.append(Fixture(
        "family.isotropy.C.shear", "map_family", "source",
        "shear isotropy of (1,0,0,0) on the cubic tube, multiplier 1",
        MapFamily("isotropy.C.shear", ZV, ("u",),
                  tuple(RationalFunction(c) for c in
                        (z1, z2 + uu*(z1 - 1)*I, z3,
                         z4 + uu*(z1**2 - 1)*Fraction(1, 2)*I)),
                  (("u", Fraction(0)),))))

    # circle action on the cubic tube: corrected sign, and the printed form
    u = ZV + ("c", "cb")
    z1, z2, z3, z4, c, cb = _vars(u)
    ctx = RelationContext(unit_pairs=(("c", "cb"),))
    out.append(Fixture(
        "family.circle.C", "map_family", "derived",
        "holomorphic circle action on the cubic tube with the sign-corrected quadratic "
        "term (1 - c^2) z3^2 / 2; the generator matches the tenth basis field "
        "(oracle script, circle_action section)",
        MapFamily("circle.C", ZV, ("c", "cb"),
                  tuple(RationalFunction(p) for p in
                        (z1, z2 + (1 - c**2)*z3**2*Fraction(1, 2), c*z3, z4)),
                  (("c", Fraction(1)), ("cb", Fraction(1))),
                  relations=ctx, constraints=(("c", "unit"),))))
    out.append(Fixture(
        "family.circle.C.printed", "map_family", "source",
        "circle action exactly as printed, quadratic term (c^2 - 1) z3^2 / 2; fails "
        "invariance except at c^2 = 1 and is kept as a negative fixture",
        MapFamily("circle.C.printed", ZV, ("c", "cb"),
                  tuple(RationalFunction(p) for p in
                        (z1, z2 + (c**2 - 1)*z3**2*Fraction(1, 2), c*z3, z4)),
                  (("c", Fraction(1)), ("cb", Fraction(1))),
                  relations=ctx, constraints=(("c", "unit"),))))

    # linear isotropy in normal-form coordinates, cubic case
    u = W4 + ("r", "u", "c", "cb")
    w1, w2, w3, w4, r, uu, c, cb = _vars(u)
    out.append(Fixture(
        "family.isotropy.C.w", "map_family", "source",
        "linear isotropy in the normal-form coordinates, cubic case",
        MapFamily("isotropy.C.w", W4, ("r", "u", "c", "cb"),
                  tuple(RationalFunction(p) for p in
                        (w1, r**2*(w2 + uu*w1*I), r*c*w3, r**2*w4)),
                  (("r", Fraction(1)), ("u", Fraction(0)),
                   ("c", Fraction(1)), ("cb", Fraction(1))),
                  relations=RelationContext(unit_pairs=(("c", "cb"),)),
                  constraints=(("r", "nonzero"), ("c", "unit")))))
    return out


def _graphs() -> List[Fixture]:
    w1, w2, w3, w1b, w2b, w3b = _vars(WG)
    out = []

    d_den = (11*w1*w1b + 24*w1 + 24*w1b + 16) * (5*w1*w1b + 16)
    big = (48*w1*w3*w3b + 25*w1**2*w3b**2 + 16*w3*w3b + 36*w1*w1b*w3*w3b
           + 2*(11*w1*w1b + 24*w1 + 24*w1b + 16)*w1*w2b)
    n_num = (big + big.conjugate(W_PAIRING)) * 4
    out.append(Fixture(
        "graph.cm.D", "graph_surface", "source",
        "normal-form graph Im w4 = N/D for the quartic-degenerate surface near its "
        "basepoint",
        GraphSurface(WH, WA, "s", "w4", "w4b", None,
                     RationalFunction(n_num, d_den), "graph.cm.D")))

    c_den = (2 + w1) * (2 + w1b) * (20 - w1*w1b)
    bigc = (4*w3*w3b*(1 + w1) + 2*w2*w1*w1b + w2b*w1**2*w1b + 4*w2b*w1 + 2*w2b*w1**2)
    nc_num = (bigc + bigc.conjugate(W_PAIRING)) * 5
    out.append(Fixture(
        "graph.cm.C", "graph_surface", "source",
        "normal-form graph Im w4 = N/D for the cubic surface near its basepoint",
        GraphSurface(WH, WA, "s", "w4", "w4b", None,
                     RationalFunction(nc_num, c_den), "graph.cm.C")))

    herm = (w1*w2b + w2*w1b + w3*w3b) * Fraction(1, 2)
    out.append(Fixture(
        "graph.hermitian.quadric", "graph_surface", "direct",
        "Hermitian quadric graph Im w4 = Re(w1 conj w2) + |w3|^2/2; only the (1,1) part",
        GraphSurface(WH, WA, "s", "w4", "w4b", None,
                     RationalFunction(herm), "graph.hermitian.quadric")))

    zh = ("z1", "z2", "z3")
    za = ("z1b", "z2b", "z3b")
    zg = zh + za
    def xr(j):
        return (MultiPoly.var(zg, f"z{j}") + MultiPoly.var(zg, f"z{j}b")) * Fraction(1, 2)
    out.append(Fixture(
        "graph.tube.3", "graph_surface", "direct",
        "real tube over x4 = x1 x2 + x3^2 + x1^3 solved for z4",
        GraphSurface(zh, za, "s", "z4", "z4b",
                     RationalFunction(xr(1)*xr(2) + xr(3)**2 + xr(1)**3), None,
                     "graph.tube.3")))
    out.append(Fixture(
        "graph.tube.quadric", "graph_surface", "direct",
        "real tube over x4 = x1 x2 + x3^2 solved for z4",
        GraphSurface(zh, za, "s", "z4", "z4b",
                     RationalFunction(xr(1)*xr(2) + xr(3)**2), None,
                     "graph.tube.quadric")))
    return out


def _rho_d() -> MultiPoly:
    return _x(ZF, 4)**2 - _x(ZF, 1)*_x(ZF, 2) - _x(ZF, 1)**2*_x(ZF, 3)


def _rho_c() -> MultiPoly:
    return _x(ZF, 4) - _x(ZF, 1)*_x(ZF, 2) - _x(ZF, 1)*_x(ZF, 3)**2


def _rho_quadric() -> MultiPoly:
    return _x(ZF, 4) - _x(ZF, 1)*_x(ZF, 2) - _x(ZF, 3)**2


def _rho_case3() -> MultiPoly:
    return _x(ZF, 4) - _x(ZF, 1)*_x(ZF, 2) - _x(ZF, 3)**2 - _x(ZF, 1)**3


def _rho_bminus() -> MultiPoly:
    return _x(ZF, 4) - _x(ZF, 1)**2 - _x(ZF, 2)**2 + _x(ZF, 3)**2


def _maps() -> List[Fixture]:
    out = []
    one4 = MultiPoly.const(W4, 1)
    W1, W2, W3, W4_ = _vars(W4)

    phi_d = (
        ("z1", RationalFunction(11*W1 + 4, W1 + 4)),
        ("z2", RationalFunction((4*W2*I - 5*W3*I + 11*W4_) * (-96*I), 5*W1 + 20)
               + RationalFunction((4*W2*I - 5*W3*I - W3**2*6*I + 6*W4_) * (1600*I),
                                  (5*W1 + 20)**2)
               + RationalFunction(-1280*W3**2, (W1 + 4)**3)
               + RationalFunction(W4_*24*I, one4)),
        ("z3", RationalFunction((W2*2*I + 3*W4_) * (32*I), 5*W1 + 20)
               + RationalFunction(-32*W3**2, (W1 + 4)**2)
               + RationalFunction(-W4_*4*I + 1, one4)),
        ("z4", RationalFunction(-8*(6*W3 + 5), W1 + 4)
               + RationalFunction(160*W3, (W1 + 4)**2)
               + RationalFunction(MultiPoly.const(W4, 11), one4)),
    )
    out.append(Fixture(
        "map.cm.D", "rational_map", "source",
        "rational change of coordinates carrying the normal-form graph onto the "
        "quartic-degenerate tube surface; sends the origin to (1,0,1,1)",
        RationalMapFixture(phi_d, "graph.cm.D", _rho_d(), ZV,
                           ("z1b", "z2b", "z3b", "z4b"), True,
                           tuple(map(GaussianRational.coerce, (1, 0, 1, 1))))))

    phi_c = (
        ("z1", RationalFunction(W1 + 1, one4)),
        ("z2", RationalFunction(W2, one4)
               + RationalFunction(W1*W4_*(-I)*Fraction(1, 10), one4)
               + RationalFunction(-2*W3**2, (W1 + 2)**2)),
        ("z3", RationalFunction(2*W3, W1 + 2)),
        ("z4", RationalFunction(W4_*(-I) + W2, one4)
               + RationalFunction(W1*(10*W2 - (W1 + 2)*W4_*I) * Fraction(1, 20), one4)),
    )
    out.append(Fixture(
        "map.cm.C", "rational_map", "source",
        "rational change of coordinates carrying the normal-form graph onto the cubic "
        "tube surface; sends the origin to (1,0,0,0)",
        RationalMapFixture(phi_c, "graph.cm.C", _rho_c(), ZV,
                           ("z1b", "z2b", "z3b", "z4b"), True,
                           tuple(map(GaussianRational.coerce, (1, 0, 0, 0))))))

    Z1, Z2, Z3, Z4 = _vars(ZV)
    onez = MultiPoly.const(ZV, 1)

    def zmap(a, b):
        return (("z1", RationalFunction(Z1)),
                ("z2", RationalFunction(Z2 + Z1**2 * a)),
                ("z3", RationalFunction(Z3)),
                ("z4", RationalFunction(Z4 + Z1**3 * b)))

    out.append(Fixture(
        "map.case3.derived", "rational_map", "derived",
        "shear with coefficients (3/2, 1/2) carrying the tube over "
        "x4 = x1 x2 + x3^2 + x1^3 onto the tube over x4 = x1 x2 + x3^2 "
        "(oracle script, case3_map section)",
        RationalMapFixture(zmap(Fraction(3, 2), Fraction(1, 2)), "graph.tube.3",
                           _rho_quadric(), ZV, ("z1b", "z2b", "z3b", "z4b"), True)))
    out.append(Fixture(
        "map.case3.printed", "rational_map", "source",
        "the printed shear with coefficients (-3/2, -1/2) tested against the cubic-to-"
        "quadric direction; the identity fails, so the printed direction cannot be the "
        "one stated in prose",
        RationalMapFixture(zmap(Fraction(-3, 2), Fraction(-1, 2)), "graph.tube.3",
                           _rho_quadric(), ZV, ("z1b", "z2b", "z3b", "z4b"), False)))
    out.append(Fixture(
        "map.case3.printed.reversed", "rational_map", "derived",
        "the printed shear verifies exactly in the reverse direction: it carries the "
        "tube over x4 = x1 x2 + x3^2 onto the tube over x4 = x1 x2 + x3^2 + x1^3",
        RationalMapFixture(zmap(Fraction(-3, 2), Fraction(-1, 2)), "graph.tube.quadric",
                           _rho_case3(), ZV, ("z1b", "z2b", "z3b", "z4b"), True)))

    linear = (("z1", RationalFunction((Z1 + Z2) * Fraction(1, 2))),
              ("z2", RationalFunction(Z3)),
              ("z3", RationalFunction((Z1 - Z2) * Fraction(1, 2))),
              ("z4", RationalFunction(Z4)))
    out.append(Fixture(
        "map.quadric.to.Bminus", "rational_map", "derived",
        "linear change identifying the tube over x4 = x1 x2 + x3^2 with the tube over "
        "the indefinite paraboloid x4 = x1^2 + x2^2 - x3^2",
        RationalMapFixture(linear, "graph.tube.quadric", _rho_bminus(), ZV,
                           ("z1b", "z2b", "z3b", "z4b"), True)))

    ident = (("w1", RationalFunction(W1)), ("w2", RationalFunction(W2)),
             ("w3", RationalFunction(W3)), ("w4", RationalFunction(W4_)))
    w4p = MultiPoly.var(W8, "w4")
    w4bp = MultiPoly.var(W8, "w4b")
    herm = (MultiPoly.var(W8, "w1")*MultiPoly.var(W8, "w2b")
            + MultiPoly.var(W8, "w2")*MultiPoly.var(W8, "w1b")
            + MultiPoly.var(W8, "w3")*MultiPoly.var(W8, "w3b")) * Fraction(1, 2)
    rho_herm = (w4p - w4bp) * GaussianRational(0, Fraction(-1, 2)) - herm
    out.append(Fixture(
        "map.identity.quadric", "rational_map", "direct",
        "identity map on the Hermitian quadric graph",
        RationalMapFixture(ident, "graph.hermitian.quadric", rho_herm, W4,
                           ("w1b", "w2b", "w3b", "w4b"), True)))
    return out


def _witnesses(fam_d: MapFamily, fam_c: MapFamily) -> List[Fixture]:
    out = []
    tvars = ("x1_0", "x2_0", "x3_0", "x4_0")
    uni = tvars + ("rho",)
    x10, x20, x30, x40, rho = _vars(uni)

    def rf(num, den=None):
        return RationalFunction(num, den)

    d_gt = x40**2 - x10*x20 - x10**2*x30
    ctx = RelationContext(radicals=(("rho", d_gt),))
    out.append(Fixture(
        "witness.D.gt", "witness", "source",
        "parameters sending the base point (1,0,0,1) to an arbitrary target of the outer "
        "quartic-degenerate domain, modulo rho^2 = x4^2 - x1 x2 - x1^2 x3 at the target",
        WitnessFixture(TransitivityWitness(
            fam_d, tvars,
            {"q": rf(x10), "r": rf(rho, x10), "t": rf(x40 - rho, rho),
             "s": rf(-x10**2*x30, d_gt)},
            ctx, "witness.D.gt"), (Fraction(1), Fraction(0), Fraction(0), Fraction(1)))))

    d_lt = x10*x20 + x10**2*x30 - x40**2
    ctx = RelationContext(radicals=(("rho", d_lt),))
    out.append(Fixture(
        "witness.D.lt", "witness", "derived",
        "parameters sending the base point (1,1,0,0) to an arbitrary target of the inner "
        "quartic-degenerate domain (oracle script, witnesses section)",
        WitnessFixture(TransitivityWitness(
            fam_d, tvars,
            {"q": rf(x10), "r": rf(rho, x10), "t": rf(x40, rho),
             "s": rf(-x10**2*x30, d_lt)},
            ctx, "witness.D.lt"), (Fraction(1), Fraction(1), Fraction(0), Fraction(0)))))

    c_gt = x10*x40 - x10**2*x20 - x10**2*x30**2
    ctx = RelationContext(radicals=(("rho", c_gt),))
    out.append(Fixture(
        "witness.C.gt", "witness", "derived",
        "parameters sending the base point (1,0,0,1) to an arbitrary target of the upper "
        "cubic domain (oracle script, witnesses section)",
        WitnessFixture(TransitivityWitness(
            fam_c, tvars,
            {"q": rf(x10), "r": rf(rho, x10), "s": rf(x10*x30, rho),
             "t": rf(x10**2*x20, c_gt)},
            ctx, "witness.C.gt"), (Fraction(1), Fraction(0), Fraction(0), Fraction(1)))))

    c_lt = x10**2*x20 + x10**2*x30**2 - x10*x40
    ctx = RelationContext(radicals=(("rho", c_lt),))
    out.append(Fixture(
        "witness.C.lt", "witness", "derived",
        "parameters sending the base point (1,0,0,-1) to an arbitrary target of the lower "
        "cubic domain (oracle script, witnesses section)",
        WitnessFixture(TransitivityWitness(
            fam_c, tvars,
            {"q": rf(x10), "r": rf(rho, x10), "s": rf(x10*x30, rho),
             "t": rf(x10**2*x20, c_lt)},
            ctx, "witness.C.lt"), (Fraction(1), Fraction(0), Fraction(0), Fraction(-1)))))
    return out


def _lines() -> List[Fixture]:
    g = GaussianRational.coerce
    data = [
        ("line.D.gt", (1, 0, 0, 1), (0, 1, -1, 0), "domain.D.gt",
         "affine complex line z1 = 1, z2 + z3 = 0, z4 = 1 inside the outer domain"),
        ("line.D.lt", (1, 0, 1, 0), (0, 1, -1, 0), "domain.D.lt",
         "affine complex line z1 = 1, z2 + z3 = 1, z4 = 0 inside the inner domain"),
        ("line.C.gt", (0, 0, 0, 1), (1, 0, 0, 0), "domain.C.gt",
         "affine complex line z2 = z3 = 0, z4 = 1; the main inequality restricts to 1"),
        ("line.C.lt", (0, 0, 0, -1), (1, 0, 0, 0), "domain.C.lt",
         "affine complex line z2 = z3 = 0, z4 = -1; the main inequality restricts to 1"),
    ]
    out = []
    for fid, point, direction, dom, text in data:
        out.append(Fixture(
            fid, "line", "source",
            text + "; witnesses that the domain contains an affine complex line and is "
                   "therefore not Kobayashi-hyperbolic",
            LineFixture(ComplexLine(tuple(g(p) for p in point),
                                    tuple(g(d) for d in direction), fid), dom)))
    return out


def _bridges_and_slices() -> List[Fixture]:
    pr = ("r", "u", "v")
    r, u, v = _vars(pr)
    one = MultiPoly.const(pr, 1)
    zero = MultiPoly.zero(pr)
    assignments = (
        ("q", one), ("r", r), ("s", zero), ("t", zero),
        ("u", u), ("v", v),
        ("a1", zero), ("a2", 2*v - u), ("a3", 2*u), ("a4", v),
    )
    return [
        Fixture("bridge.isotropy.D", "bridge", "source",
                "conjugating the linear normal-form isotropy by the rational coordinate "
                "change reproduces the cubic isotropy family after substituting "
                "u = (16/25) mu and v = (2/5) nu",
                BridgeInfo(Fraction(16, 25), Fraction(2, 5),
                           "family.isotropy.D.w", "family.isotropy.D", "map.cm.D")),
        Fixture("slice.isotropy.D", "derived_slice", "derived",
                "restricting the full ten-parameter family by q = 1, s = t = 0, a1 = 0, "
                "a2 = 2v - u, a3 = 2u, a4 = v gives exactly the isotropy family "
                "(oracle script, isotropy_and_full_group section)",
                SliceInfo("family.full.D", "family.isotropy.D", pr, assignments)),
    ]


# ----------------------------------------------------------------- registry

@lru_cache(maxsize=1)
def registry() -> Dict[str, Fixture]:
    fixtures: List[Fixture] = []
    fixtures.extend(_surfaces())
    fixtures.extend(_domains())
    fixtures.extend(_bases_and_tables())
    fixtures.extend(_iso_spans())
    families = _families()
    fixtures.extend(families)
    fixtures.extend(_graphs())
    fixtures.extend(_maps())
    by_id = {fx.id: fx for fx in families}
    fixtures.extend(_witnesses(by_id["family.affine.D"].payload,
                               by_id["family.affine.C"].payload))
    fixtures.extend(_lines())
    fixtures.extend(_bridges_and_slices())
    table: Dict[str, Fixture] = {}
    for fx in fixtures:
        if fx.id in table:
            raise RuntimeError(f"duplicate fixture id {fx.id}")
        table[fx.id] = fx
    return table


def get(fixture_id: str) -> Fixture:
    table = registry()
    if fixture_id not in table:
        near = difflib.get_close_matches(fixture_id, table.keys(), n=5, cutoff=0.4)
        raise KeyError(f"unknown fixture {fixture_id!r}; near matches: {near}")
    return table[fixture_id]


def list_ids(pattern: str = "*") -> List[str]:
    return sorted(fid for fid in registry() if fnmatch.fnmatch(fid, pattern))


# ------------------------------------------------------------- serialization

def _hypersurface_to_obj(s: Hypersurface):
    return {
        "poly": io.poly_to_obj(s.defining),
        "basepoint": [io.frac_to_str(b) for b in s.basepoint],
        "constraints": [{"expr": io.poly_to_obj(e), "sense": sense}
                        for e, sense in s.constraints],
        "assert_irreducible": s.assert_irreducible,
        "name": s.name,
    }


def _hypersurface_from_obj(obj) -> Hypersurface:
    return Hypersurface(
        io.poly_from_obj(obj["poly"]),
        tuple(Fraction(b) for b in obj["basepoint"]),
        tuple((io.poly_from_obj(c["expr"]), c["sense"]) for c in obj["constraints"]),
        obj.get("assert_irreducible", False),
        obj.get("name", ""),
    )


def payload_to_obj(fx: Fixture):
    p = fx.payload
    if fx.kind == "hypersurface":
        return _hypersurface_to_obj(p)
    if fx.kind == "domain":
        return {
            "name": p.name,
            "expr": io.poly_to_obj(p.expr),
            "constraints": [{"expr": io.poly_to_obj(e), "sense": s} for e, s in p.constraints],
            "probe": [io.frac_to_str(x) for x in p.probe],
            "levi_type": p.levi_type,
            "source_surface": p.source_surface,
        }
    if fx.kind == "field_basis":
        return {"fields": [io.field_to_obj(f) for f in p.fields]}
    if fx.kind == "golden_table":
        return {"dim": p.dim,
                "entries": [[i, j, {str(k): io.frac_to_str(c) for k, c in combo}]
                            for i, j, combo in p.entries]}
    if fx.kind == "iso_span":
        return {"vectors": [[io.frac_to_str(x) for x in vec] for vec in p.vectors],
                "z1_index": p.z1_index, "z4_index": p.z4_index,
                "s_indices": list(p.s_indices)}
    if fx.kind == "map_family":
        return io.family_to_obj(p)
    if fx.kind == "graph_surface":
        return io.graph_to_obj(p)
    if fx.kind == "rational_map":
        return {
            "components": {name: io.ratfun_to_obj(rf) for name, rf in p.components},
            "source_graph": p.source_graph,
            "target": io.poly_to_obj(p.target),
            "target_holo": list(p.target_holo),
            "target_anti": list(p.target_anti),
            "expected": p.expected,
            "origin_image": None if p.origin_image is None
            else [io.gauss_to_obj(c) for c in p.origin_image],
        }
    if fx.kind == "witness":
        w = p.witness
        return {
            "family": io.family_to_obj(w.family),
            "target_vars": list(w.target_vars),
            "assignment": {k: io.ratfun_to_obj(v) for k, v in w.assignment.items()},
            "context": io.relations_to_obj(w.context),
            "name": w.name,
            "base": [io.frac_to_str(b) for b in p.base],
        }
    if fx.kind == "line":
        return {
            "point": [io.gauss_to_obj(c) for c in p.line.point],
            "direction": [io.gauss_to_obj(c) for c in p.line.direction],
            "name": p.line.name,
            "domain": p.domain_id,
        }
    if fx.kind == "bridge":
        return {"u_scale": io.frac_to_str(p.u_scale), "v_scale": io.frac_to_str(p.v_scale),
                "w_family": p.w_family, "z_family": p.z_family, "map": p.map_id}
    if fx.kind == "derived_slice":
        return {"family": p.family, "reduces_to": p.reduces_to,
                "slice_params": list(p.slice_params),
                "assignments": {k: io.poly_to_obj(v) for k, v in p.assignments}}
    if fx.kind == "alpha_family":
        return {"parameter": p.parameter,
                "samples": [io.frac_to_str(s) for s in p.samples],
                "sample_ids": list(p.sample_ids),
                "target": p.target, "sign_rule": p.sign_rule}
    raise ValueError(f"cannot serialize fixture kind {fx.kind!r}")


def payload_from_obj(kind: str, obj) -> object:
    if kind == "hypersurface":
        return _hypersurface_from_obj(obj)
    if kind == "domain":
        return DomainSpec(
            obj["name"], io.poly_from_obj(obj["expr"]),
            tuple((io.poly_from_obj(c["expr"]), c["sense"]) for c in obj["constraints"]),
            tuple(Fraction(x) for x in obj["probe"]),
            obj["levi_type"], obj["source_surface"])
    if kind == "field_basis":
        return FieldBasis(tuple(io.field_from_obj(f) for f in obj["fields"]))
    if kind == "golden_table":
        return GoldenTable(obj["dim"], tuple(
            (i, j, tuple((int(k), Fraction(c)) for k, c in combo.items()))
            for i, j, combo in obj["entries"]))
    if kind == "iso_span":
        return IsoSpan(tuple(tuple(Fraction(x) for x in vec) for vec in obj["vectors"]),
                       obj["z1_index"], obj["z4_index"], tuple(obj["s_indices"]))
    if kind == "map_family":
        return io.family_from_obj(obj)
    if kind == "graph_surface":
        return io.graph_from_obj(obj)
    if kind == "rational_map":
        return RationalMapFixture(
            tuple((name, io.ratfun_from_obj(rf)) for name, rf in obj["components"].items()),
            obj["source_graph"], io.poly_from_obj(obj["target"]),
            tuple(obj["target_holo"]), tuple(obj["target_anti"]), obj["expected"],
            None if obj.get("origin_image") is None
            else tuple(io.gauss_from_obj(c) for c in obj["origin_image"]))
    if kind == "witness":
        witness = TransitivityWitness(
            io.family_from_obj(obj["family"]), tuple(obj["target_vars"]),
            {k: io.ratfun_from_obj(v) for k, v in obj["assignment"].items()},
            io.relations_from_obj(obj["context"]), obj.get("name", ""))
        return WitnessFixture(witness, tuple(Fraction(b) for b in obj["base"]))
    if kind == "line":
        return LineFixture(ComplexLine(tuple(io.gauss_from_obj(c) for c in obj["point"]),
                                       tuple(io.gauss_from_obj(c) for c in obj["direction"]),
                                       obj.get("name", "")), obj["domain"])
    if kind == "bridge":
        return BridgeInfo(Fraction(obj["u_scale"]), Fraction(obj["v_scale"]),
                          obj["w_family"], obj["z_family"], obj["map"])
    if kind == "derived_slice":
        return SliceInfo(obj["family"], obj["reduces_to"], tuple(obj["slice_params"]),
                         tuple((k, io.poly_from_obj(v)) for k, v in obj["assignments"].items()))
    if kind == "alpha_family":
        return AlphaFamilyInfo(obj["parameter"], tuple(Fraction(s) for s in obj["samples"]),
                               tuple(obj["sample_ids"]), obj["target"], obj["sign_rule"])
    raise ValueError(f"cannot deserialize fixture kind {kind!r}")


def fixture_to_obj(fx: Fixture):
    return {"id": fx.id, "kind": fx.kind, "tag": fx.tag, "claim": fx.claim,
            "payload": payload_to_obj(fx)}


def fixture_from_obj(obj) -> Fixture:
    kind = obj["kind"]
    return Fixture(obj["id"], kind, obj["tag"], obj["claim"],
                   payload_from_obj(kind, obj["payload"]))


def export_tree(path) -> int:
    """Write one fixture file per id plus an index; returns the count."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    index = []
    for fid in list_ids():
        fx = get(fid)
        obj = fixture_to_obj(fx)
        (root / f"{fid}.json").write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
        index.append({"id": fx.id, "kind": obj["kind"], "tag": fx.tag, "claim": fx.claim})
    (root / "index.json").write_text(json.dumps({"fixtures": index}, indent=1) + "\n")
    return len(index)


def load_tree(path) -> Dict[str, Fixture]:
    """Load a fixtures/ tree written by export_tree."""
    root = Path(path)
    table: Dict[str, Fixture] = {}
    index = json.loads((root / "index.json").read_text())
    for entry in index["fixtures"]:
        obj = json.loads((root / f"{entry['id']}.json").read_text())
        fx = fixture_from_obj(obj)
        table[fx.id] = fx
    return table


def active_registry() -> Dict[str, Fixture]:
    """The in-code registry, unless TUBES_FIXTURES points at a tree."""
    override = os.environ.get("TUBES_FIXTURES")
    if override:
        return load_tree(override)
    return registry()
