"""Authoritative fixture store.

Every surface, domain, map family, vector-field basis, golden table,
probe point and witness consumed by the verification commands lives
here, each tagged with its provenance class:

* source  - transcribed from the catalogued classification source;
* derived - first produced by the standalone sympy oracle
            (scripts/derive_fixtures.py), which re-checks it in the
            committed tree (or the TUBES_FIXTURES tree);
* direct  - trivially checkable constructions.

Claims describe the mathematical assertion each fixture participates
in. Fixtures are immutable after load and serialize one file per id
under a fixtures/ tree (see export_tree), with an index listing ids,
kinds, tags and claims. Every rational in a payload is canonical (see
scalars), integral ones plain ints, and every map component is in
lowest terms (RationalMapFixture), so a fixture built here and the
decode of its exported file hold the same values of the same types.
"""

from __future__ import annotations

import fnmatch
import json
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from . import interchange as io
from .interchange import (FAMILY, FIELD, FLAG, FRAC, GAUSS, GRAPH, INT, POLY, RATFUN, RELATIONS,
                          TEXT, optional, pairs, record, row, seq)
from .fields import HoloField, VectorField
from .normal_form import GraphSurface, MapFamily
from .poly import MultiPoly, RationalFunction, conjugation_pairing, lowest_terms
from .record import Record
from .relations import RelationContext
from .scalars import GaussianRational, I, Rational
from .symmetry import ComplexLine, Hypersurface, TransitivityWitness, violated_constraint

# coordinate universes used throughout the catalog
XV = ("x1", "x2", "x3", "x4")
X8 = ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4")
ZV = ("z1", "z2", "z3", "z4")
ZA = ("z1b", "z2b", "z3b", "z4b")
ZF = ZV + ZA
WH = ("w1", "w2", "w3")
WA = ("w1b", "w2b", "w3b")
WG = WH + WA
W4 = ("w1", "w2", "w3", "w4")
W8 = W4 + ("w1b", "w2b", "w3b", "w4b")

W_PAIRING = conjugation_pairing(WH, WA)


def _vars(names):
    return [MultiPoly.var(names, n) for n in names]


def _x(universe, j):
    return (MultiPoly.var(universe, f"z{j}") + MultiPoly.var(universe, f"z{j}b")) * Fraction(1, 2)


def _tube(p: MultiPoly, universe=ZF) -> MultiPoly:
    """The tube over p = 0: p, a polynomial in x1..xn, at x_j = Re z_j =
    (z_j + z_jb) / 2, over `universe`."""
    return p.subs_poly({x: _x(universe, x[1:]) for x in p.vars})


def point_text(point) -> str:
    """A point as the catalog's claims print it: (1,0,-1/2,1)."""
    return "(" + ",".join(map(str, point)) + ")"


def _fields(cls, universe):
    """A builder of `cls` fields over `universe` from keyword components;
    the components it is not given are zero."""
    zero = MultiPoly.zero(universe)
    return lambda **comps: cls(universe, tuple(comps.get(v, zero) for v in universe))


# ---------------------------------------------------------------- structures

class Fixture(Record):
    id: str
    tag: str  # "source" | "derived" | "direct"
    claim: str
    payload: object

    @property
    def kind(self) -> str:
        return _KIND_OF[type(self.payload)][0]


class DomainSpec(Record):
    name: str
    expr: MultiPoly  # the domain is {expr > 0} (plus side constraints)
    constraints: Tuple[Tuple[MultiPoly, str], ...]
    probe: Tuple[Rational, ...]
    levi_type: str
    source_surface: str

    def __post_init__(self):
        if len(self.probe) != len(self.expr.vars):
            raise ValueError(f"the probe has {len(self.probe)} coordinates, "
                             f"but the domain has the variables {self.expr.vars}")
        for expr, sense in self.constraints:
            if sense not in ("gt", "lt"):
                raise ValueError(f"unknown constraint sense {sense!r}")
            if expr.vars != self.expr.vars:
                raise ValueError(f"the constraint {expr} is over {expr.vars}, "
                                 f"not over the domain variables {self.expr.vars}")

    def probe_inside(self) -> bool:
        return violated_constraint(((self.expr, "gt"),) + self.constraints, self.probe) is None


class FieldBasis(Record):
    fields: Tuple[VectorField, ...]


class GoldenTable(Record):
    dim: int
    entries: Tuple[Tuple[int, int, Tuple[Tuple[int, Rational], ...]], ...]
    # 1-based indices; omitted pairs are zero, lower triangle by antisymmetry

    def __post_init__(self):
        seen = set()
        for i, j, combo in self.entries:
            if not (type(i) is int and type(j) is int and 1 <= i < j <= self.dim):
                raise ValueError(f"the entry ({i}, {j}) is not an upper-triangle pair of "
                                 f"generators 1..{self.dim}")
            if (i, j) in seen:
                raise ValueError(f"the pair ({i}, {j}) has two entries")
            seen.add((i, j))
            keys = [k for k, _ in combo]
            for k in keys:
                if not (type(k) is int and 1 <= k <= self.dim):
                    raise ValueError(f"the entry ({i}, {j}) names the generator {k}, "
                                     f"outside 1..{self.dim}")
            if len(set(keys)) != len(keys):
                raise ValueError(f"the entry ({i}, {j}) names a generator twice")

    def coeff_map(self) -> Dict[Tuple[int, int], Dict[int, Rational]]:
        return {(i, j): dict(combo) for i, j, combo in self.entries}


class IsoSpan(Record):
    vectors: Tuple[Tuple[Rational, ...], ...]
    z1_index: int
    z4_index: int
    s_indices: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.vectors[0]) if self.vectors else 0
        if not n or any(len(v) != n for v in self.vectors):
            raise ValueError(f"the span needs nonempty vectors of one length, got the lengths "
                             f"{[len(v) for v in self.vectors]}")
        for index in (self.z1_index, self.z4_index) + self.s_indices:
            if not 0 <= index < n:
                raise ValueError(f"the index {index} is outside the vectors' length {n}")


class RationalMapFixture(Record):
    """A rational map from a graph surface into {target = 0}, for a nonzero
    target, with one component per holomorphic target variable, each held
    in lowest terms: the record reduces the components it is given
    (`lowest_terms`), so the in-code catalog and a decoded tree store the
    same canonical data, and the checks that read a map
    (verify_surface_map, map_at_origin, verify_map_conjugation) reduce
    nothing."""

    components: Tuple[Tuple[str, RationalFunction], ...]
    source_graph: str  # fixture id of the GraphSurface
    target: MultiPoly
    target_holo: Tuple[str, ...]
    target_anti: Tuple[str, ...]
    expected: bool
    origin_image: Optional[Tuple[GaussianRational, ...]] = None

    def __post_init__(self):
        holo, anti = self.target_holo, self.target_anti
        if len(holo) != len(anti) or self.target.vars != holo + anti:
            raise ValueError(f"the target is over {self.target.vars}, not over the "
                             f"holomorphic {holo} and antiholomorphic {anti} variables")
        if not self.target:  # every map lands in {0 = 0}
            raise ValueError("the target is the zero polynomial")
        names = tuple(name for name, _ in self.components)
        if names != holo:
            raise ValueError(f"the components give {names}, not the target's "
                             f"holomorphic variables {holo}")
        # a record's fields are set once, here, before anything reads them
        self.__dict__["components"] = tuple((name, lowest_terms(rf))
                                            for name, rf in self.components)


class WitnessFixture(Record):
    witness: TransitivityWitness
    base: Tuple[Rational, ...]


class LineFixture(Record):
    line: ComplexLine
    domain_id: str


class BridgeInfo(Record):
    """Parameter match between the linear normal-form isotropy family and
    the cubic isotropy family under the rational coordinate change."""
    u_scale: Rational
    v_scale: Rational
    w_family: str
    z_family: str
    map_id: str


class SliceInfo(Record):
    """Parameter restriction of the full family onto its isotropy part."""
    family: str
    reduces_to: str
    assignments: Tuple[Tuple[str, MultiPoly], ...]


class AlphaFamilyInfo(Record):
    parameter: str
    samples: Tuple[Rational, ...]
    sample_ids: Tuple[str, ...]
    target: str
    sign_rule: str


# -------------------------------------------------------------- polynomials

def _surfaces() -> List[Fixture]:
    x1, x2, x3, x4 = _vars(XV)
    out = []

    def add(fid, tag, claim, poly, bp, cons=(), irred=False):
        surface = Hypersurface(poly, bp, tuple(cons), irred, fid)
        out.append(Fixture(fid, tag, claim, surface))
        return surface

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
    for fid, alpha in (("surface.table.4.a0", 0), ("surface.table.4.a112", Fraction(1, 12)),
                       ("surface.table.4.a1", 1), ("surface.table.4.am1", -1)):
        add(fid, "source",
            f"quartic family member alpha = {alpha}; affine symmetry dimension 4",
            x4 - x1*x2 - x3**2 - x1**2*x3 - x1**4 * alpha, (0, 0, 0, 0))
    bp5, bp6 = (1, 0, 0, 0), (1, 0, 1, 1)
    add("surface.table.5", "source",
        f"cubic case x4 = x1 x2 + x1 x3^2 with basepoint {point_text(bp5)}; dimension 4",
        x4 - x1*x2 - x1*x3**2, bp5, (gtx1,), irred=True)
    table6 = add("surface.table.6", "source",
                 "quartic-degenerate case x4^2 = x1 x2 + x1^2 x3, x1 > 0, "
                 f"basepoint {point_text(bp6)}; dimension 4",
                 x4**2 - x1*x2 - x1**2*x3, bp6, (gtx1,), irred=True)
    add("surface.quadric.half", "derived",
        "indefinite quadric x4 = x1 x2 + x3^2 restricted to x1 > 0, the boundary of the "
        "half-domains; its wall-preserving subalgebra has dimension 5",
        x4 - x1*x2 - x3**2, (1, 0, 0, 0), (gtx1,))

    add("surface.tube.6.realified", "derived",
        "the quartic-degenerate surface viewed in the 8 real coordinates of C^4; "
        "carrier for the simple-transitivity rank check",
        table6.defining.with_vars(X8), table6.basepoint + (0,) * 4,
        [(e.with_vars(X8), sense) for e, sense in table6.constraints], irred=True)

    out.append(Fixture(
        "surface.table.4", "source",
        "the quartic one-parameter family x4 = x1 x2 + x3^2 + x1^2 x3 + alpha x1^4; the "
        "normal-form target carries |w1|^4 with the sign of alpha - 1/12",
        AlphaFamilyInfo("alpha", (0, Fraction(1, 12), 1),
                        ("surface.table.4.a0", "surface.table.4.a112", "surface.table.4.a1"),
                        "2 Im w4 = w1*conj(w2) + w2*conj(w1) + |w3|^2 +/- |w1|^4",
                        "sign(alpha - 1/12)")))
    return out


def _domains(reg: Mapping[str, Fixture]) -> List[Fixture]:
    """Each domain is a side of its source surface P = 0 under the surface's
    constraints: {P > 0} for an id ending in .gt, {-P > 0} for .lt."""
    data = [
        ("domain.Bp.gt", (0, 0, 0, 1), "pseudoconvex", "surface.table.1p",
         "the tube form of the unit ball"),
        ("domain.Bp.lt", (0, 0, 0, -1), "pseudoconcave", "surface.table.1p",
         "complement side of the ball quadric"),
        ("domain.Bm.gt", (0, 0, 0, 1), "++-", "surface.table.1m",
         "upper side of the indefinite quadric"),
        ("domain.Bm.lt", (0, 0, 0, -1), "+--", "surface.table.1m",
         "lower side of the indefinite quadric"),
        ("domain.H.gt", (1, 0, 0, 1), "++-", "surface.quadric.half",
         "upper half-domain over the indefinite quadric"),
        ("domain.H.lt", (1, 0, 0, -1), "+--", "surface.quadric.half",
         "lower half-domain over the indefinite quadric"),
        ("domain.Np.gt", (0, 0, 0, 1), "++-", "surface.table.4.a1",
         "upper side of the plus-quartic surface"),
        ("domain.Np.lt", (0, 0, 0, -1), "+--", "surface.table.4.a1",
         "lower side of the plus-quartic surface"),
        ("domain.Nm.gt", (0, 0, 0, 1), "++-", "surface.table.4.am1",
         "upper side of the minus-quartic surface"),
        ("domain.Nm.lt", (0, 0, 0, -1), "+--", "surface.table.4.am1",
         "lower side of the minus-quartic surface"),
        ("domain.C.gt", (1, 0, 0, 1), "++-", "surface.table.5",
         "upper side of the cubic case, x1 > 0"),
        ("domain.C.lt", (1, 0, 0, -1), "+--", "surface.table.5",
         "lower side of the cubic case, x1 > 0"),
        ("domain.D.gt", (1, 0, 0, 1), "++-", "surface.table.6",
         "outer side of the quartic-degenerate case, x1 > 0"),
        ("domain.D.lt", (1, 1, 0, 0), "+--", "surface.table.6",
         "inner side of the quartic-degenerate case, x1 > 0 (probe chosen off the surface)"),
    ]
    out = []
    for fid, probe, levi, src, text in data:
        surface = reg[src].payload
        side = 1 if fid.endswith(".gt") else -1
        tag = "derived" if fid == "domain.D.lt" else "source"
        spec = DomainSpec(fid.split(".", 1)[1], surface.defining * side, surface.constraints,
                          probe, levi, src)
        out.append(Fixture(fid, tag,
                           f"{text}; the interior probe satisfies the inequalities exactly",
                           spec))
    return out


def _z_basis_d() -> Tuple[HoloField, ...]:
    z1, z2, z3, z4 = _vars(ZV)
    f = _fields(HoloField, ZV)
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
    f = _fields(HoloField, ZV)
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
    z_basis_d = _z_basis_d()
    out = [
        Fixture("basis.Z.D", "source",
                "ten holomorphic generators of the automorphism algebra for the "
                "quartic-degenerate tube", FieldBasis(z_basis_d)),
        Fixture("basis.Z.C", "source",
                "ten holomorphic generators of the automorphism algebra for the "
                "cubic tube", FieldBasis(_z_basis_c())),
        Fixture("table.golden.D", "source",
                "upper-triangle commutation table of the ten-generator basis, "
                "quartic-degenerate case; 45 entries, omitted ones zero",
                GoldenTable(10, D_TABLE_ENTRIES)),
        Fixture("table.golden.C", "source",
                "upper-triangle commutation table of the ten-generator basis, cubic case",
                GoldenTable(10, C_TABLE_ENTRIES)),
    ]
    x = _vars(XV)
    x1, x2, x3, x4 = x
    vf = _fields(VectorField, XV)
    rotations = tuple(vf(**{XV[i]: x[j], XV[j]: -x[i]})
                      for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    out.append(Fixture("basis.rotations.sphere", "direct",
                       "the six rotation fields x_j d_k - x_k d_j tangent to the sphere",
                       FieldBasis(rotations)))

    one = MultiPoly.const(XV, 1)
    quadric_half = (
        vf(x1=x1, x2=-x2),
        vf(x2=x2, x3=x3 * Fraction(1, 2), x4=x4),
        vf(x2=2*x3, x3=-x1),
        vf(x2=one, x4=x1),
        vf(x3=one, x4=2*x3),
    )
    out.append(Fixture(
        "basis.half_pseudo_ball.quadric", "derived",
        "five affine fields tangent to x4 = x1 x2 + x3^2 and to the wall x1 = 0; "
        "closed under bracket (oracle script, half_pseudo_ball section)",
        FieldBasis(quadric_half)))
    onm = (
        vf(x1=x3, x3=x1),
        vf(x1=x1 - x3, x2=x2, x3=x3 - x1, x4=2*x4),
        vf(x1=x2, x2=-(x1 + x3), x3=-x2),
        vf(x1=one, x3=-one, x4=2*(x1 + x3)),
        vf(x2=one, x4=2*x2),
    )
    out.append(Fixture(
        "basis.half_pseudo_ball.1m", "derived",
        "the half-domain subalgebra expressed inside the dimension-7 symmetry algebra of "
        "the indefinite paraboloid: tangent to the quadric and to the wall x1 + x3 = 0 "
        "(oracle script, half_pseudo_ball section)",
        FieldBasis(onm)))

    hf = _fields(HoloField, ZV)
    translations = tuple(hf(**{z: MultiPoly.const(ZV, I)}) for z in ZV)
    out.append(Fixture(
        "basis.H.transitive.D", "source",
        "generators of the r = 1 subgroup plus the four imaginary translations; acts "
        "simply transitively on the realified quartic-degenerate surface",
        FieldBasis(z_basis_d[:3] + translations)))
    return out


def _iso_spans() -> List[Fixture]:
    def vec(entries: Mapping[int, int]) -> Tuple[int, ...]:
        return tuple(entries.get(k, 0) for k in range(1, 11))

    d = IsoSpan((vec({8: 1}), vec({9: 1, 5: -1, 6: 2}), vec({10: 1, 7: 1})),
                z1_index=0, z4_index=3, s_indices=(1, 2, 4, 5, 6, 7, 8, 9))
    c = IsoSpan((vec({8: 1}), vec({9: 1, 5: -2, 7: -1}), vec({10: 1})),
                z1_index=0, z4_index=3, s_indices=(1, 2, 4, 5, 6, 7, 8, 9))
    return [
        Fixture("isospan.D", "source",
                "isotropy span inside the ten-generator basis, quartic-degenerate case: "
                "generators 8, 9 - 5 + 2*6, 10 + 7", d),
        Fixture("isospan.C", "source",
                "isotropy span inside the ten-generator basis, cubic case: "
                "generators 8, 9 - 2*5 - 7, 10", c),
    ]


def _families(reg: Mapping[str, Fixture]) -> List[Fixture]:
    # name-keyed pairs (identities, constraints, and the slice assignments and
    # witness parameters below) are listed in name order, the order in which
    # the exported JSON objects keep them, so that a decoded fixture equals
    # the one built here
    out = []
    bp_d = point_text(reg["surface.table.6"].payload.basepoint)
    bp_c = point_text(reg["surface.table.5"].payload.basepoint)

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
        "family.affine.D", "source",
        "four-parameter affine group preserving the quartic-degenerate surface with "
        "multiplier q^2 r^2; composition law derived by the oracle script",
        MapFamily("affine.D", XV, ("q", "r", "s", "t"),
                  comps,
                  (("q", 1), ("r", 1), ("s", 0), ("t", 0)),
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
        "family.affine.C", "source",
        "four-parameter affine group preserving the cubic surface with multiplier q r^2; "
        "composition law derived by the oracle script",
        MapFamily("affine.C", XV, ("q", "r", "s", "t"),
                  comps,
                  (("q", 1), ("r", 1), ("s", 0), ("t", 0)),
                  constraints=(("q", "positive"), ("r", "nonzero")),
                  composition=law, composition_primed=primed)))

    # imaginary translations on C^4
    u = ZV + ("a1", "a2", "a3", "a4")
    z1, z2, z3, z4, a1, a2, a3, a4 = _vars(u)
    out.append(Fixture(
        "family.translations.z", "direct",
        "imaginary translations z_j + i a_j, under which every tube is invariant",
        MapFamily("translations", ZV, ("a1", "a2", "a3", "a4"),
                  (z1 + a1*I, z2 + a2*I, z3 + a3*I, z4 + a4*I),
                  tuple((f"a{k}", 0) for k in range(1, 5)))))

    # isotropy family at the basepoint of surface.table.6, quartic-degenerate case
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
        "family.isotropy.D", "source",
        f"three-parameter isotropy of the basepoint {bp_d} on the quartic-degenerate "
        "tube; preserves the tube with multiplier r^2 and fixes the basepoint",
        MapFamily("isotropy.D", ZV, ("r", "u", "v"),
                  comps,
                  (("r", 1), ("u", 0), ("v", 0)),
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
        "family.full.D", "source",
        "the full ten-parameter holomorphic automorphism family of the "
        "quartic-degenerate tube domains; preserves the tube with multiplier q^2 r^2",
        MapFamily("full.D", ZV, pnames,
                  comps,
                  (("a1", 0), ("a2", 0), ("a3", 0), ("a4", 0),
                   ("q", 1), ("r", 1), ("s", 0), ("t", 0), ("u", 0), ("v", 0)),
                  constraints=(("q", "positive"), ("r", "nonzero")))))

    # linear isotropy in normal-form coordinates, quartic-degenerate case
    u = W4 + ("r", "mu", "nu")
    w1, w2, w3, w4, r, mu, nu = _vars(u)
    comps = (w1,
             (mu*I - nu**2*Fraction(1, 2))*w1 + r**2*w2 + nu*r*w3*I,
             nu*w1*I + r*w3,
             r**2*w4)
    out.append(Fixture(
        "family.isotropy.D.w", "source",
        "linear isotropy in the normal-form coordinates, quartic-degenerate case",
        MapFamily("isotropy.D.w", W4, ("r", "mu", "nu"),
                  comps,
                  (("mu", 0), ("nu", 0), ("r", 1)),
                  constraints=(("r", "nonzero"),))))

    # cubic-case isotropy pieces
    u = ZV + ("r",)
    z1, z2, z3, z4, r = _vars(u)
    out.append(Fixture(
        "family.isotropy.C.scale", "source",
        f"scaling isotropy of {bp_c} on the cubic tube, multiplier r^2",
        MapFamily("isotropy.C.scale", ZV, ("r",),
                  (z1, r**2*z2, r*z3, r**2*z4),
                  (("r", 1),), constraints=(("r", "nonzero"),))))
    u = ZV + ("u",)
    z1, z2, z3, z4, uu = _vars(u)
    out.append(Fixture(
        "family.isotropy.C.shear", "source",
        f"shear isotropy of {bp_c} on the cubic tube, multiplier 1",
        MapFamily("isotropy.C.shear", ZV, ("u",),
                  (z1, z2 + uu*(z1 - 1)*I, z3, z4 + uu*(z1**2 - 1)*Fraction(1, 2)*I),
                  (("u", 0),))))

    # circle action on the cubic tube: corrected sign, and the printed form
    u = ZV + ("c", "cb")
    z1, z2, z3, z4, c, cb = _vars(u)
    ctx = RelationContext(unit_pairs=(("c", "cb"),))
    out.append(Fixture(
        "family.circle.C", "derived",
        "holomorphic circle action on the cubic tube with the sign-corrected quadratic "
        "term (1 - c^2) z3^2 / 2; the generator matches the tenth basis field "
        "(oracle script, circle_action section)",
        MapFamily("circle.C", ZV, ("c", "cb"),
                  (z1, z2 + (1 - c**2)*z3**2*Fraction(1, 2), c*z3, z4),
                  (("c", 1), ("cb", 1)),
                  relations=ctx, constraints=(("c", "unit"),))))
    out.append(Fixture(
        "family.circle.C.printed", "source",
        "circle action exactly as printed, quadratic term (c^2 - 1) z3^2 / 2; fails "
        "invariance except at c^2 = 1 and is kept as a negative fixture",
        MapFamily("circle.C.printed", ZV, ("c", "cb"),
                  (z1, z2 + (c**2 - 1)*z3**2*Fraction(1, 2), c*z3, z4),
                  (("c", 1), ("cb", 1)),
                  relations=ctx, constraints=(("c", "unit"),))))

    # linear isotropy in normal-form coordinates, cubic case
    u = W4 + ("r", "u", "c", "cb")
    w1, w2, w3, w4, r, uu, c, cb = _vars(u)
    out.append(Fixture(
        "family.isotropy.C.w", "source",
        "linear isotropy in the normal-form coordinates, cubic case",
        MapFamily("isotropy.C.w", W4, ("r", "u", "c", "cb"),
                  (w1, r**2*(w2 + uu*w1*I), r*c*w3, r**2*w4),
                  (("c", 1), ("cb", 1), ("r", 1), ("u", 0)),
                  relations=RelationContext(unit_pairs=(("c", "cb"),)),
                  constraints=(("c", "unit"), ("r", "nonzero")))))
    return out


def _graphs(reg: Mapping[str, Fixture]) -> List[Fixture]:
    w1, w2, w3, w1b, w2b, w3b = _vars(WG)
    out = []

    d_den = (11*w1*w1b + 24*w1 + 24*w1b + 16) * (5*w1*w1b + 16)
    big = (48*w1*w3*w3b + 25*w1**2*w3b**2 + 16*w3*w3b + 36*w1*w1b*w3*w3b
           + 2*(11*w1*w1b + 24*w1 + 24*w1b + 16)*w1*w2b)
    n_num = (big + big.conjugate(W_PAIRING)) * 4
    out.append(Fixture(
        "graph.cm.D", "source",
        "normal-form graph Im w4 = N/D for the quartic-degenerate surface near its "
        "basepoint",
        GraphSurface(WH, WA, "s", "w4", "w4b", None,
                     RationalFunction(n_num, d_den), "graph.cm.D")))

    c_den = (2 + w1) * (2 + w1b) * (20 - w1*w1b)
    bigc = (4*w3*w3b*(1 + w1) + 2*w2*w1*w1b + w2b*w1**2*w1b + 4*w2b*w1 + 2*w2b*w1**2)
    nc_num = (bigc + bigc.conjugate(W_PAIRING)) * 5
    out.append(Fixture(
        "graph.cm.C", "source",
        "normal-form graph Im w4 = N/D for the cubic surface near its basepoint",
        GraphSurface(WH, WA, "s", "w4", "w4b", None,
                     RationalFunction(nc_num, c_den), "graph.cm.C")))

    herm = (w1*w2b + w2*w1b + w3*w3b) * Fraction(1, 2)
    out.append(Fixture(
        "graph.hermitian.quadric", "direct",
        "Hermitian quadric graph Im w4 = Re(w1 conj w2) + |w3|^2/2; only the (1,1) part",
        GraphSurface(WH, WA, "s", "w4", "w4b", None,
                     RationalFunction(herm), "graph.hermitian.quadric")))

    # the real tubes over x4 = h(x1, x2, x3), with h = x4 - P for the surface P = 0
    x4 = MultiPoly.var(XV, "x4")
    zh, za = ZV[:3], ZA[:3]
    for fid, sid, text in (("graph.tube.3", "surface.table.3", "x4 = x1 x2 + x3^2 + x1^3"),
                           ("graph.tube.quadric", "surface.quadric.half", "x4 = x1 x2 + x3^2")):
        height = (x4 - reg[sid].payload.defining).with_vars(XV[:3])
        out.append(Fixture(fid, "direct", f"real tube over {text} solved for z4",
                           GraphSurface(zh, za, "s", "z4", "z4b",
                                        RationalFunction(_tube(height, zh + za)), None, fid)))
    return out


def _maps(reg: Mapping[str, Fixture]) -> List[Fixture]:
    def tube(sid):
        return _tube(reg[sid].payload.defining)

    def basepoint(sid):
        return tuple(map(GaussianRational.coerce, reg[sid].payload.basepoint))

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
    origin_d = basepoint("surface.table.6")
    out.append(Fixture(
        "map.cm.D", "source",
        "rational change of coordinates carrying the normal-form graph onto the "
        f"quartic-degenerate tube surface; sends the origin to {point_text(origin_d)}",
        RationalMapFixture(phi_d, "graph.cm.D", tube("surface.table.6"), ZV, ZA, True,
                           origin_d)))

    phi_c = (
        ("z1", RationalFunction(W1 + 1, one4)),
        ("z2", RationalFunction(W2, one4)
               + RationalFunction(W1*W4_*(-I)*Fraction(1, 10), one4)
               + RationalFunction(-2*W3**2, (W1 + 2)**2)),
        ("z3", RationalFunction(2*W3, W1 + 2)),
        ("z4", RationalFunction(W4_*(-I) + W2, one4)
               + RationalFunction(W1*(10*W2 - (W1 + 2)*W4_*I) * Fraction(1, 20), one4)),
    )
    origin_c = basepoint("surface.table.5")
    out.append(Fixture(
        "map.cm.C", "source",
        "rational change of coordinates carrying the normal-form graph onto the cubic "
        f"tube surface; sends the origin to {point_text(origin_c)}",
        RationalMapFixture(phi_c, "graph.cm.C", tube("surface.table.5"), ZV, ZA, True,
                           origin_c)))

    Z1, Z2, Z3, Z4 = _vars(ZV)
    onez = MultiPoly.const(ZV, 1)

    def zmap(a, b):
        return (("z1", RationalFunction(Z1)),
                ("z2", RationalFunction(Z2 + Z1**2 * a)),
                ("z3", RationalFunction(Z3)),
                ("z4", RationalFunction(Z4 + Z1**3 * b)))

    out.append(Fixture(
        "map.case3.derived", "derived",
        "shear with coefficients (3/2, 1/2) carrying the tube over "
        "x4 = x1 x2 + x3^2 + x1^3 onto the tube over x4 = x1 x2 + x3^2 "
        "(oracle script, case3_map section)",
        RationalMapFixture(zmap(Fraction(3, 2), Fraction(1, 2)), "graph.tube.3",
                           tube("surface.quadric.half"), ZV, ZA, True)))
    out.append(Fixture(
        "map.case3.printed", "source",
        "the printed shear with coefficients (-3/2, -1/2) tested against the cubic-to-"
        "quadric direction; the identity fails, so the printed direction cannot be the "
        "one stated in prose",
        RationalMapFixture(zmap(Fraction(-3, 2), Fraction(-1, 2)), "graph.tube.3",
                           tube("surface.quadric.half"), ZV, ZA, False)))
    out.append(Fixture(
        "map.case3.printed.reversed", "derived",
        "the printed shear verifies exactly in the reverse direction: it carries the "
        "tube over x4 = x1 x2 + x3^2 onto the tube over x4 = x1 x2 + x3^2 + x1^3",
        RationalMapFixture(zmap(Fraction(-3, 2), Fraction(-1, 2)), "graph.tube.quadric",
                           tube("surface.table.3"), ZV, ZA, True)))

    linear = (("z1", RationalFunction((Z1 + Z2) * Fraction(1, 2))),
              ("z2", RationalFunction(Z3)),
              ("z3", RationalFunction((Z1 - Z2) * Fraction(1, 2))),
              ("z4", RationalFunction(Z4)))
    out.append(Fixture(
        "map.quadric.to.Bminus", "derived",
        "linear change identifying the tube over x4 = x1 x2 + x3^2 with the tube over "
        "the indefinite paraboloid x4 = x1^2 + x2^2 - x3^2",
        RationalMapFixture(linear, "graph.tube.quadric", tube("surface.table.1m"), ZV, ZA,
                           True)))

    ident = (("w1", RationalFunction(W1)), ("w2", RationalFunction(W2)),
             ("w3", RationalFunction(W3)), ("w4", RationalFunction(W4_)))
    w4p = MultiPoly.var(W8, "w4")
    w4bp = MultiPoly.var(W8, "w4b")
    herm = (MultiPoly.var(W8, "w1")*MultiPoly.var(W8, "w2b")
            + MultiPoly.var(W8, "w2")*MultiPoly.var(W8, "w1b")
            + MultiPoly.var(W8, "w3")*MultiPoly.var(W8, "w3b")) * Fraction(1, 2)
    rho_herm = (w4p - w4bp) * GaussianRational(0, Fraction(-1, 2)) - herm
    out.append(Fixture(
        "map.identity.quadric", "direct",
        "identity map on the Hermitian quadric graph",
        RationalMapFixture(ident, "graph.hermitian.quadric", rho_herm, W4, W8[4:], True)))
    return out


def _witnesses(reg: Mapping[str, Fixture]) -> List[Fixture]:
    """Each witness moves the probe of the domain its id names to an arbitrary
    target of that domain, modulo rho^2 = d: d is the domain's expression at
    the target, times x1 in the cubic case. A claim prints that expression
    where its text has {expr}."""
    tvars = ("x1_0", "x2_0", "x3_0", "x4_0")
    uni = tvars + ("rho",)
    x10, x20, x30, x40, rho = _vars(uni)
    rf = RationalFunction
    data = [
        ("witness.D.gt", "source", "family.affine.D",
         "the outer quartic-degenerate domain, modulo rho^2 = {expr} at the target",
         lambda d: {"q": rf(x10), "r": rf(rho, x10), "s": rf(-x10**2*x30, d),
                    "t": rf(x40 - rho, rho)}),
        ("witness.D.lt", "derived", "family.affine.D",
         "the inner quartic-degenerate domain (oracle script, witnesses section)",
         lambda d: {"q": rf(x10), "r": rf(rho, x10), "s": rf(-x10**2*x30, d),
                    "t": rf(x40, rho)}),
        ("witness.C.gt", "derived", "family.affine.C",
         "the upper cubic domain (oracle script, witnesses section)",
         lambda d: {"q": rf(x10), "r": rf(rho, x10), "s": rf(x10*x30, rho),
                    "t": rf(x10**2*x20, d)}),
        ("witness.C.lt", "derived", "family.affine.C",
         "the lower cubic domain (oracle script, witnesses section)",
         lambda d: {"q": rf(x10), "r": rf(rho, x10), "s": rf(x10*x30, rho),
                    "t": rf(x10**2*x20, d)}),
    ]
    out = []
    for fid, tag, family, text, assignment in data:
        domain = reg["domain." + fid.split(".", 1)[1]].payload
        d = domain.expr.rename_vars(dict(zip(XV, tvars))).with_vars(uni)
        if family == "family.affine.C":
            d = d * x10
        witness = TransitivityWitness(reg[family].payload, tvars, assignment(d),
                                      RelationContext(radicals=(("rho", d),)), fid)
        out.append(Fixture(
            fid, tag,
            f"parameters sending the base point {point_text(domain.probe)} to an arbitrary "
            f"target of {text.format(expr=domain.expr)}", WitnessFixture(witness, domain.probe)))
    return out


def _lines() -> List[Fixture]:
    """Each line lies in the domain its id names."""
    g = GaussianRational.coerce
    data = [
        ("line.D.gt", (1, 0, 0, 1), (0, 1, -1, 0),
         "affine complex line z1 = 1, z2 + z3 = 0, z4 = 1 inside the outer domain"),
        ("line.D.lt", (1, 0, 1, 0), (0, 1, -1, 0),
         "affine complex line z1 = 1, z2 + z3 = 1, z4 = 0 inside the inner domain"),
        ("line.C.gt", (1, 0, 0, 1), (0, 1, 0, 1),
         "affine complex line z1 = 1, z3 = 0, z4 = z2 + 1; both inequalities restrict to 1"),
        ("line.C.lt", (1, 0, 0, -1), (0, 1, 0, 1),
         "affine complex line z1 = 1, z3 = 0, z4 = z2 - 1; both inequalities restrict to 1"),
    ]
    out = []
    for fid, point, direction, text in data:
        out.append(Fixture(
            fid, "source",
            text + "; witnesses that the domain contains an affine complex line and is "
                   "therefore not Kobayashi-hyperbolic",
            LineFixture(ComplexLine(tuple(g(p) for p in point),
                                    tuple(g(d) for d in direction), fid),
                        "domain." + fid.split(".", 1)[1])))
    return out


def _bridges_and_slices() -> List[Fixture]:
    pr = ("r", "u", "v")
    r, u, v = _vars(pr)
    one = MultiPoly.const(pr, 1)
    zero = MultiPoly.zero(pr)
    assignments = (
        ("a1", zero), ("a2", 2*v - u), ("a3", 2*u), ("a4", v),
        ("q", one), ("r", r), ("s", zero), ("t", zero), ("u", u), ("v", v),
    )
    return [
        Fixture("bridge.isotropy.D", "source",
                "conjugating the linear normal-form isotropy by the rational coordinate "
                "change reproduces the cubic isotropy family after substituting "
                "u = (16/25) mu and v = (2/5) nu",
                BridgeInfo(Fraction(16, 25), Fraction(2, 5),
                           "family.isotropy.D.w", "family.isotropy.D", "map.cm.D")),
        Fixture("slice.isotropy.D", "derived",
                "restricting the full ten-parameter family by q = 1, s = t = 0, a1 = 0, "
                "a2 = 2v - u, a3 = 2u, a4 = v gives exactly the isotropy family "
                "(oracle script, isotropy_and_full_group section)",
                SliceInfo("family.full.D", "family.isotropy.D", assignments)),
    ]


# ----------------------------------------------------------------- registry

# The builder of each group of fixtures, under the first dotted field of its
# ids; it reads other groups through the registry that it is given.
_BUILDER = {"surface": lambda reg: _surfaces(), "domain": _domains,
            "isospan": lambda reg: _iso_spans(), "family": _families,
            "graph": _graphs, "map": _maps, "witness": _witnesses, "line": lambda reg: _lines()}
_BUILDER["basis"] = _BUILDER["table"] = lambda reg: _bases_and_tables()
_BUILDER["bridge"] = _BUILDER["slice"] = lambda reg: _bridges_and_slices()


class Registry(Mapping[str, Fixture]):
    """The in-code fixtures. Looking up an id builds its group on first use,
    with the groups its builder reads and no other, and so does listing a
    group's ids; membership of any string never raises. Iteration and
    length build every group. A builder that yields an id outside its
    group, or an id twice, raises RuntimeError."""

    def __init__(self):
        self._fixtures: Dict[str, Fixture] = {}
        self._built = set()

    def _build(self, fid) -> None:
        build = _BUILDER.get(fid.partition(".")[0]) if isinstance(fid, str) else None
        if build is None or build in self._built:
            return
        group: Dict[str, Fixture] = {}
        for fx in build(self):
            if _BUILDER.get(fx.id.partition(".")[0]) is not build:
                raise RuntimeError(f"fixture id {fx.id} is outside the group of its builder")
            if fx.id in group:
                raise RuntimeError(f"duplicate fixture id {fx.id}")
            group[fx.id] = fx
        self._built.add(build)
        self._fixtures.update(group)

    def __getitem__(self, fid: str) -> Fixture:
        fx = self._fixtures.get(fid)
        if fx is None:
            self._build(fid)
            fx = self._fixtures[fid]
        return fx

    def group_ids(self, group: str) -> List[str]:
        """The sorted ids whose first dotted field is `group`; builds no
        other group."""
        self._build(group)
        return sorted(fid for fid in self._fixtures if fid.partition(".")[0] == group)

    def __iter__(self):
        for prefix in _BUILDER:
            self._build(prefix)
        return iter(self._fixtures)

    def __len__(self) -> int:
        return sum(1 for _ in self)


@lru_cache(maxsize=1)
def registry() -> Registry:
    return Registry()


def get(fixture_id: str) -> Fixture:
    table = registry()
    if fixture_id not in table:
        import difflib
        near = difflib.get_close_matches(fixture_id, table.keys(), n=5, cutoff=0.4)
        raise KeyError(f"unknown fixture {fixture_id!r}; near matches: {near}")
    return table[fixture_id]


def list_ids(pattern: str = "*") -> List[str]:
    return sorted(fid for fid in registry() if fnmatch.fnmatch(fid, pattern))


# ------------------------------------------------------------- serialization

_POINT = seq(FRAC)
_CONSTRAINTS = seq(record(tuple, ("expr", POLY), ("sense", TEXT)))

# The one table of fixture kinds: name, payload type and the payload's JSON
# codec, whose spec gives one (JSON key, codec) pair per payload field, in
# field order, for both directions (see interchange.record).
_KINDS = (
    ("hypersurface", Hypersurface, record(
        Hypersurface, ("poly", POLY), ("basepoint", _POINT), ("constraints", _CONSTRAINTS),
        ("assert_irreducible", FLAG), ("name", TEXT))),
    ("domain", DomainSpec, record(
        DomainSpec, ("name", TEXT), ("expr", POLY), ("constraints", _CONSTRAINTS),
        ("probe", _POINT), ("levi_type", TEXT), ("source_surface", TEXT))),
    ("field_basis", FieldBasis, record(FieldBasis, ("fields", seq(FIELD)))),
    ("golden_table", GoldenTable, record(
        GoldenTable, ("dim", INT), ("entries", seq(row(INT, INT, pairs(FRAC, key=FRAC)))))),
    ("iso_span", IsoSpan, record(IsoSpan, ("vectors", seq(_POINT)), ("z1_index", INT),
                                 ("z4_index", INT), ("s_indices", seq(INT)))),
    ("map_family", MapFamily, FAMILY),
    ("graph_surface", GraphSurface, GRAPH),
    ("rational_map", RationalMapFixture, record(
        RationalMapFixture, ("components", pairs(RATFUN)), ("source_graph", TEXT),
        ("target", POLY), ("target_holo", seq(TEXT)), ("target_anti", seq(TEXT)),
        ("expected", FLAG), ("origin_image", optional(seq(GAUSS))))),
    ("witness", WitnessFixture, record(
        WitnessFixture, (None, record(TransitivityWitness, ("family", FAMILY),
                                      ("target_vars", seq(TEXT)),
                                      ("assignment", pairs(RATFUN, into=dict)),
                                      ("context", RELATIONS), ("name", TEXT))),
        ("base", _POINT))),
    ("line", LineFixture, record(
        LineFixture, (None, record(ComplexLine, ("point", seq(GAUSS)),
                                   ("direction", seq(GAUSS)), ("name", TEXT))),
        ("domain", TEXT))),
    ("bridge", BridgeInfo, record(
        BridgeInfo, ("u_scale", FRAC), ("v_scale", FRAC), ("w_family", TEXT),
        ("z_family", TEXT), ("map", TEXT))),
    ("derived_slice", SliceInfo, record(
        SliceInfo, ("family", TEXT), ("reduces_to", TEXT), ("assignments", pairs(POLY)))),
    ("alpha_family", AlphaFamilyInfo, record(
        AlphaFamilyInfo, ("parameter", TEXT), ("samples", _POINT), ("sample_ids", seq(TEXT)),
        ("target", TEXT), ("sign_rule", TEXT))),
)
_KIND_OF = {cls: (name, encode) for name, cls, (encode, _) in _KINDS}
_DECODER = {name: decode for name, _, (_, decode) in _KINDS}


def fixture_to_obj(fx: Fixture):
    kind, encode = _KIND_OF[type(fx.payload)]
    return {"id": fx.id, "kind": kind, "tag": fx.tag, "claim": fx.claim,
            "payload": encode(fx.payload)}


def fixture_from_obj(obj) -> Fixture:
    decode = _DECODER.get(obj["kind"])
    if decode is None:
        raise ValueError(f"cannot deserialize fixture kind {obj['kind']!r}")
    return Fixture(*(TEXT[1](obj[key]) for key in ("id", "tag", "claim")), decode(obj["payload"]))


def export_tree(path) -> int:
    """Write one fixture file per id plus an index; returns the count."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    index = []
    for fid in list_ids():
        obj = fixture_to_obj(get(fid))
        (root / f"{fid}.json").write_text(io.to_json(obj, sort_keys=True) + "\n")
        index.append({key: value for key, value in obj.items() if key != "payload"})
    (root / "index.json").write_text(io.to_json({"fixtures": index}) + "\n")
    return len(index)


class FixtureError(Exception):
    """A fixture that cannot be read or decoded: a fixture file, or with
    `tree` set a fixture tree whose index cannot be read or whose fixture
    cannot be decoded; `fault` is the exception underneath. Not a
    ValueError, so that a command's own handlers for engine errors never
    swallow it."""

    def __init__(self, path, fault: Exception, tree: bool = False):
        what = "load the fixture tree" if tree else "read a fixture from"
        super().__init__(f"cannot {what} {str(path)!r}: {type(fault).__name__}: {fault}")
        self.fault = fault


def read_fixture(path) -> Fixture:
    """Decode one fixture file written by export_tree. A file that cannot
    be read, is not JSON or does not decode, a float where a rational
    belongs, a zero denominator or a term of total degree above
    poly.MAX_DEGREE among them, raises FixtureError."""
    try:
        return fixture_from_obj(json.loads(Path(path).read_text()))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise FixtureError(path, exc) from exc


class FixtureTree(Mapping[str, Fixture]):
    """Read-only view of a fixtures/ tree written by export_tree.

    Ids and kinds come from index.json, so membership, iteration and length
    decode nothing. A fixture file is read and decoded on first access and
    kept for the life of the view; a file that cannot be decoded, or whose
    id or kind differs from its index entry, raises FixtureError there,
    with `tree` set."""

    def __init__(self, path, kinds: Dict[str, str]):
        self._path, self._kinds = path, kinds
        self._decoded: Dict[str, Fixture] = {}

    def __getitem__(self, fid: str) -> Fixture:
        fx = self._decoded.get(fid)
        if fx is None:
            kind = self._kinds[fid]
            try:
                fx = read_fixture(Path(self._path) / f"{fid}.json")
            except FixtureError as exc:
                raise FixtureError(self._path, exc.fault, tree=True) from exc.fault
            if (fx.id, fx.kind) != (fid, kind):
                raise FixtureError(self._path, ValueError(
                    f"{fid}.json holds {fx.kind} {fx.id!r}, but the index lists {kind} {fid!r}"),
                    tree=True)
            self._decoded[fid] = fx
        return fx

    def group_ids(self, group: str) -> List[str]:
        """The sorted ids whose first dotted field is `group`, from the index."""
        return sorted(fid for fid in self._kinds if fid.partition(".")[0] == group)

    def __contains__(self, fid) -> bool:
        return fid in self._kinds

    def __iter__(self):
        return iter(self._kinds)

    def __len__(self) -> int:
        return len(self._kinds)


def load_tree(path) -> FixtureTree:
    """Open a fixtures/ tree written by export_tree.

    Reads and checks index.json now: it must list entries, each with an id
    and a known kind, and no id twice; otherwise FixtureError, with `tree`
    set. Fixture files are decoded only when accessed (see FixtureTree)."""
    try:
        entries = json.loads((Path(path) / "index.json").read_text())["fixtures"]
        if not isinstance(entries, list):
            raise TypeError(f"the index lists {type(entries).__name__}, not fixture entries")
        kinds: Dict[str, str] = {}
        for entry in entries:
            fid, kind = entry["id"], entry["kind"]
            if kind not in _DECODER:
                raise ValueError(f"cannot deserialize fixture kind {kind!r}")
            if fid in kinds:
                raise ValueError(f"fixture id {fid!r} appears twice in the index")
            kinds[fid] = kind
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise FixtureError(path, exc, tree=True) from exc
    return FixtureTree(path, kinds)


def active_registry() -> Mapping[str, Fixture]:
    """The in-code registry, unless TUBES_FIXTURES points at a tree; then a
    FixtureTree over it, freshly opened on every call."""
    override = os.environ.get("TUBES_FIXTURES")
    if override:
        return load_tree(override)
    return registry()
