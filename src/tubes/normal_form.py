"""Normal-form machinery for tube hypersurfaces.

Covers the bidegree expansion of rational graph equations Im w_n =
R(w', conj w'), the trace operator built from the nondegenerate (1,1)
part, the normal-form condition checks, and exact verification of
rational coordinate changes, polynomial self-map families, their
rational group laws, and infinitesimal generators. All checks are
polynomial identities after clearing denominators; series truncation
appears only in series_expand, which defining_series calls once per
graph, on its numerator alone, to expand it over the denominator by the
coefficient recurrence of a power series quotient. The series is kept
as N times the true one, for the real rational N that series_expand
returns: every normal-form condition is a zero test or a reality test,
which a nonzero real factor does not change, so nothing divides by N
except the true parts a caller asks for (BidegreeSeries.part) and the
residual a failed trace condition prints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .fields import HoloField
from .linalg import invert_gaussian_matrix, poly_div_exact
from .poly import (MultiPoly, RationalFunction, conjugate_each, conjugation_pairing,
                   denominator_lcm, poly_sum, series_expand, specialize_each, substitute)
from .record import Record
from .relations import RelationContext
from .scalars import I, ZERO, GaussianRational, Rational, ScalarLike


# ------------------------------------------------------------- bidegree data

class BidegreeSeries(Record):
    """Truncated expansion of a real-analytic defining function, split
    into bihomogeneous parts F_{k,l} in (w', conj w').

    `parts` holds scale * F_kl, keyed by (k, l), for one nonzero real
    rational scale (the N of series_expand). Zero and reality tests read
    the stored multiples as they are (`stored`); `part` gives the true
    F_kl."""

    cutoff: int
    holo_vars: Tuple[str, ...]
    anti_vars: Tuple[str, ...]
    parts: Mapping[Tuple[int, int], MultiPoly]
    scale: Rational = 1

    @property
    def pairing(self) -> Dict[str, str]:
        return conjugation_pairing(self.holo_vars, self.anti_vars)

    def stored(self, k: int, l: int) -> MultiPoly:
        """scale * F_kl, as kept in `parts`."""
        got = self.parts.get((k, l))
        if got is not None:
            return got
        return MultiPoly.zero(self.holo_vars + self.anti_vars)

    def part(self, k: int, l: int) -> MultiPoly:
        """The true F_kl, by one exact division of the stored part."""
        return self.unscaled(self.stored(k, l))

    def unscaled(self, p: MultiPoly) -> MultiPoly:
        """p / scale: the true value of something computed linearly from
        the stored parts, such as a trace of one."""
        return p if self.scale == 1 else p * Fraction(1, self.scale)

    def verify_reality(self) -> None:
        """Raise AssertionError unless conj F_kl = F_lk for every part.
        Conjugation is an involution, so each mirror pair is checked once:
        (k, l) with k > l is skipped when (l, k) is present. The scale is
        real, so the stored multiples are compared as they are. The
        pairing is checked and the swap planned once for all the parts
        (`conjugate_each`)."""
        keys = [(k, l) for k, l in self.parts if not (k > l and (l, k) in self.parts)]
        conjugates = conjugate_each([self.parts[key] for key in keys], self.pairing)
        for (k, l), conj in zip(keys, conjugates):
            if conj != self.stored(l, k):
                raise AssertionError(f"reality fails between parts {(k, l)} and {(l, k)}")


class TraceOperator(Record):
    """Second-order operator sum g_ab d^2/dw_a d(conj w_b).

    The Hermitian matrix is normalized so that the operator printed for
    the quartic-case fixture (coefficients 2 on the three mixed pairs)
    is reproduced: the Levi matrix is read from the doubled (1,1) part
    and the operator matrix is twice its inverse.
    """

    matrix: Tuple[Tuple[GaussianRational, ...], ...]
    holo_vars: Tuple[str, ...]
    anti_vars: Tuple[str, ...]

    def apply(self, p: MultiPoly) -> MultiPoly:
        return poly_sum(p.vars, [p.diff(wa).diff(wb) * g
                                 for wa, row in zip(self.holo_vars, self.matrix)
                                 for wb, g in zip(self.anti_vars, row) if g])


def trace_from_levi(f11: MultiPoly, holo_vars: Sequence[str],
                    anti_vars: Sequence[str]) -> TraceOperator:
    """Build the trace operator from a nondegenerate (1,1) part."""
    holo_vars = tuple(holo_vars)
    anti_vars = tuple(anti_vars)
    split = f11.bidegree_split(holo_vars, anti_vars)
    if any(key != (1, 1) for key in split):
        raise ValueError("the Levi part must be bihomogeneous of bidegree (1,1)")
    n = len(holo_vars)
    levi = [[ZERO] * n for _ in range(n)]
    for a, wa in enumerate(holo_vars):
        for b, wb in enumerate(anti_vars):
            exps = tuple(1 if v in (wa, wb) else 0 for v in f11.vars)
            levi[a][b] = f11.coeff(exps) * 2
    for a in range(n):
        for b in range(n):
            if levi[b][a] != levi[a][b].conjugate():
                raise ValueError("Levi matrix is not Hermitian")
    inverse = invert_gaussian_matrix(levi)
    if inverse is None:
        raise ValueError("Levi-degenerate")
    g = tuple(tuple(2 * x for x in row) for row in inverse)
    return TraceOperator(g, holo_vars, anti_vars)


# ------------------------------------------------------------- graph surfaces

class GraphSurface(Record):
    """Hypersurface solved for one complex coordinate.

    The solved coordinate is w = U + iV with exactly one of U, V the free
    real slice variable and the other a conjugation-invariant rational
    function of the remaining coordinates: U free gives the normal-form
    graph Im w = R(w', conj w'), V free gives a real tube Re w = f.
    """

    holo_vars: Tuple[str, ...]
    anti_vars: Tuple[str, ...]
    slice_var: str
    solved_var: str
    solved_conj: str
    re_part: Optional[RationalFunction]
    im_part: Optional[RationalFunction]
    name: str = ""

    def __post_init__(self):
        if (self.re_part is None) == (self.im_part is None):
            raise ValueError("exactly one of re/im must be the slice variable")
        part = self.re_part if self.re_part is not None else self.im_part
        expect = self.holo_vars + self.anti_vars
        if part.vars != expect:
            raise ValueError(f"graph data must live over {expect}")
        if part.den.const_coeff() == ZERO:
            raise ValueError("graph denominator vanishes at the origin")
        # num/den is invariant when num*conj(den) - conj(num)*den vanishes,
        # that is, since conjugation is a ring involution, when X = num*conj(den)
        # equals its own conjugate: one product instead of two
        pairing = self.pairing
        cross = part.num * part.den.conjugate(pairing)
        if cross != cross.conjugate(pairing):
            raise ValueError("graph data is not conjugation-invariant")

    @property
    def pairing(self) -> Dict[str, str]:
        return conjugation_pairing(self.holo_vars, self.anti_vars)

    @property
    def free_vars(self) -> Tuple[str, ...]:
        return self.holo_vars + self.anti_vars + (self.slice_var,)

    def solved_pair(self):
        """(numerator of w, numerator of conj w, common denominator), all
        over the free variable tuple."""
        fv = self.free_vars
        s = MultiPoly.var(fv, self.slice_var)
        if self.im_part is not None:
            den = self.im_part.den.with_vars(fv)
            u_num, v = s * den, self.im_part.num.with_vars(fv)
        else:
            u_num, den = self.re_part.num.with_vars(fv), self.re_part.den.with_vars(fv)
            v = s * den
        w_num = u_num + v * I
        wbar_num = u_num - v * I
        return w_num, wbar_num, den


def defining_series(surface: GraphSurface, cutoff: int) -> BidegreeSeries:
    """Expand the graph function num/den through `cutoff`, by one
    series_expand call, and split it by bidegree. The series keeps the
    N * F_kl that series_expand gives, with N as its scale; nothing is
    divided here. The vanishing of the constant part is verified.
    Reality of the split is a reported check
    (BidegreeSeries.verify_reality), not a precondition."""
    if surface.im_part is None:
        raise ValueError("defining_series expects the normal-form graph pattern")
    g = surface.im_part
    scale, (expansion,) = series_expand([g.num], g.den, cutoff)
    parts = expansion.bidegree_split(surface.holo_vars, surface.anti_vars)
    if (0, 0) in parts:
        raise ValueError("defining function does not vanish at the origin")
    return BidegreeSeries(cutoff, surface.holo_vars, surface.anti_vars, parts, scale)


class NormalFormReport(Record):
    cutoff: int
    conditions: Tuple[Tuple[str, bool, str], ...]
    classical_trace3: bool


# the trace conditions reach the (3,3) part, so the series must run through degree 6
MIN_CM_CUTOFF = 6


def chern_moser_check(series: BidegreeSeries, tr: TraceOperator) -> NormalFormReport:
    """The normal-form conditions on the bidegree parts.

    Checked through the cutoff: all pure parts (k,0) vanish, the parts
    (k,1) vanish for k >= 2, tr F22 = 0, tr^2 F32 = 0 and tr^2 F33 = 0.
    The classical third trace power on F33 is reported separately and is
    not assumed equivalent to the square condition.

    Each condition is a zero test, which the series' real scale does not
    change, so each reads the stored scale * F_kl; tr is linear, so a
    failed trace condition prints its residual divided by the scale,
    which is the trace of the true part.
    """
    if series.cutoff < MIN_CM_CUTOFF:
        raise ValueError(f"chern_moser_check needs cutoff >= {MIN_CM_CUTOFF}")
    conditions: List[Tuple[str, bool, str]] = []

    bad = [k for k in range(series.cutoff + 1) if series.parts.get((k, 0))]
    conditions.append(("pure parts (k,0) vanish", not bad,
                       f"nonzero at k={bad}" if bad else ""))
    bad = [k for k in range(2, series.cutoff) if series.parts.get((k, 1))]
    conditions.append(("parts (k,1) vanish for k >= 2", not bad,
                       f"nonzero at k={bad}" if bad else ""))
    t22 = tr.apply(series.stored(2, 2))
    t32 = tr.apply(tr.apply(series.stored(3, 2)))
    t33 = tr.apply(tr.apply(series.stored(3, 3)))
    for name, t in (("tr F22 = 0", t22), ("tr^2 F32 = 0", t32), ("tr^2 F33 = 0", t33)):
        conditions.append((name, t.is_zero(), "" if t.is_zero() else str(series.unscaled(t))))
    t333 = tr.apply(t33)
    return NormalFormReport(series.cutoff, tuple(conditions), t333.is_zero())


# --------------------------------------------------------- surface map checks

def verify_surface_map(source: GraphSurface, target: MultiPoly,
                       target_holo: Sequence[str], target_anti: Sequence[str],
                       phi: Mapping[str, RationalFunction]) -> Tuple[bool, MultiPoly]:
    """Exact check that phi maps the source graph into {target = 0}.

    The components are composed as they are given. A catalogued map
    holds them in lowest terms (catalog.RationalMapFixture), which
    matters for cost alone: `substitute` clears the components'
    denominators to the powers the target needs, so a common factor of a
    num and its den would be carried through the whole composition and
    multiply the residual, not change whether it vanishes. The
    components of a cm map, all over powers of w1 + 4 (of its conjugate
    on the conjugate side), share the least of them as a base in
    `substitute`, so they are cleared by one power of w1 + 4 and one of
    its conjugate, the largest that a term of the target needs, not by
    their product.
    The target, and the num and den of each component, are
    scaled by the lcm of their coefficient denominators (`denominator_lcm`),
    so the products run on Gaussian integers; this changes neither the
    zero set of the target nor the value of a component.
    Substitutes z := phi(w), conj z := conj phi(conj w), then, by one
    more `substitute` call, the graph relations w := w_num/D and
    conj w := wbar_num/D for the solved coordinate and its conjugate,
    which share a nonconstant D as a base: the numerator is cleared by
    D**top, up to a constant factor, top being the largest sum of the
    exponents of w and conj w in a term, and every other variable stays
    as it is. Returns (identity holds, residual numerator, over the
    graph's free variables); the residual is exact up to a nonzero
    rational factor, from the scaling.
    """
    src_holo_full = source.holo_vars + (source.solved_var,)
    src_anti_full = source.anti_vars + (source.solved_conj,)
    universe = src_holo_full + src_anti_full
    pairing = dict(source.pairing)
    pairing[source.solved_var] = source.solved_conj
    pairing[source.solved_conj] = source.solved_var

    assignment: Dict[str, RationalFunction] = {}
    for name in target_holo:
        if name not in phi:
            raise ValueError(f"map provides no component for {name!r}")
        rf = phi[name]
        d = denominator_lcm(rf.num, rf.den)
        assignment[name] = RationalFunction(rf.num * d, rf.den * d).with_vars(universe)
    for h, a in zip(target_holo, target_anti):
        assignment[a] = assignment[h].conjugate(pairing)

    composed = substitute(target * denominator_lcm(target), assignment)
    w_num, wbar_num, den = source.solved_pair()
    total = substitute(composed.num, {source.solved_var: RationalFunction(w_num, den),
                                      source.solved_conj: RationalFunction(wbar_num, den)}).num
    return total.is_zero(), total


def map_at_origin(phi: Mapping[str, RationalFunction],
                  order: Sequence[str]) -> List[GaussianRational]:
    """Value of a rational map at the origin of its source coordinates,
    read off each component as num(0) / den(0). The components must be in
    lowest terms, as a catalogued map holds them
    (catalog.RationalMapFixture): then den(0) = 0 means that the
    component is singular there, and no factor vanishing at the origin
    could cancel against num. Raises ZeroDivisionError naming the first
    component whose denominator vanishes there."""
    out = []
    for name in order:
        rf = phi[name]
        den0 = rf.den.const_coeff()
        if not den0:
            raise ZeroDivisionError(f"component {name!r} is singular at the origin")
        out.append(rf.num.const_coeff() / den0)
    return out


# ----------------------------------------------------------------- families

class MapFamily(Record):
    """Parametrized polynomial self-map family.

    Components are polynomials over variables + params; only the stored
    composition law, which gives the parameters of a composite, is
    rational. Real parameters are fixed by conjugation; a unit-modulus
    parameter is modelled as a pair (c, cbar) with c*cbar = 1 registered
    in the relation context.
    """

    name: str
    variables: Tuple[str, ...]
    params: Tuple[str, ...]
    components: Tuple[MultiPoly, ...]
    identity: Tuple[Tuple[str, Rational], ...]
    relations: RelationContext = RelationContext()
    constraints: Tuple[Tuple[str, str], ...] = ()
    composition: Tuple[Tuple[str, RationalFunction], ...] = ()
    composition_primed: Tuple[str, ...] = ()

    def __post_init__(self):
        expect = self.variables + self.params
        if len(self.components) != len(self.variables):
            raise ValueError("a family needs one component per variable")
        for comp in self.components:
            if comp.vars != expect:
                raise ValueError(f"family components must live over {expect}")
        ident = dict(self.identity)
        missing = [p for p in self.params if p not in ident]
        if missing:
            raise ValueError(f"no identity value for parameters {missing}")
        for name, comp in zip(self.variables, specialize_each(self.components, ident)):
            if comp != MultiPoly.var(self.variables, name):
                raise ValueError("identity parameters do not give the identity map")

    @property
    def universe(self) -> Tuple[str, ...]:
        return self.variables + self.params

    def conjugate_components(self, var_pairing: Mapping[str, str],
                             universe: Sequence[str]) -> List[MultiPoly]:
        """Components of the conjugated map, embedded into `universe`
        (which must contain both variable groups and the parameters)."""
        pairing = dict(var_pairing)
        for p in self.params:
            pairing.setdefault(p, p)
        for c, cb in self.relations.unit_pairs:
            pairing[c] = cb
            pairing[cb] = c
        return conjugate_each([comp.with_vars(universe) for comp in self.components], pairing)

    def unit_pair_params(self) -> Tuple[str, ...]:
        out: List[str] = []
        for c, cb in self.relations.unit_pairs:
            out.extend((c, cb))
        return tuple(out)


class InvarianceResult(Record):
    ok: bool
    multiplier: Optional[MultiPoly]
    fixes_point: Optional[bool]


def verify_family_invariance(fam: MapFamily, surface: MultiPoly,
                             holo_vars: Sequence[str] = (),
                             anti_vars: Sequence[str] = (),
                             fixed_point: Optional[Sequence[ScalarLike]] = None
                             ) -> InvarianceResult:
    """Exact invariance rho(fam(z), conj fam(conj z)) = m(params) * rho.

    The multiplier is one exact division (`poly_div_exact`) of the image,
    reduced under the family's relations, by rho: rho divides the image
    with a quotient over the parameters alone exactly when the family
    preserves the surface, and that quotient is m. An inexact division,
    or a quotient that uses a coordinate, is a failure (no multiplier).
    The identity must hold with all parameters symbolic. When holo/anti
    variable groups are given, the surface lives over holo + anti and the
    family acts on the holomorphic group; otherwise the family variables
    must match the surface variables (a real affine family).
    """
    holo_vars = tuple(holo_vars)
    anti_vars = tuple(anti_vars)
    if holo_vars:
        if surface.vars != holo_vars + anti_vars:
            raise ValueError("surface must live over holo + anti variables")
        universe = holo_vars + anti_vars + fam.params
        conj = fam.conjugate_components(conjugation_pairing(holo_vars, anti_vars), universe)
        images = dict(zip(anti_vars, conj))
    else:
        if surface.vars != fam.variables:
            raise ValueError("surface and family variables differ")
        universe = fam.variables + fam.params
        images = {}
    images.update((name, comp.with_vars(universe))
                  for name, comp in zip(fam.variables, fam.components))

    # over Gaussian integers, so the composition multiplies no Fraction:
    # rho times its lcm of coefficient denominators, and an image c with
    # such an lcm d > 1 as d * c / d, whose constant d `substitute` clears;
    # the image and rho scale together, so the quotient stays the same
    rho = surface.with_vars(universe) * denominator_lcm(surface)
    composed = substitute(rho, {
        name: c if (d := denominator_lcm(c)) == 1
        else RationalFunction(c * d, MultiPoly.const(universe, d))
        for name, c in images.items()})
    image = fam.relations.reduce_poly(composed.num)
    try:
        multiplier: Optional[MultiPoly] = poly_div_exact(
            image, rho * composed.den).with_vars(fam.params)
    except ValueError:  # rho does not divide the image, or the quotient uses a coordinate
        multiplier = None
    fixes: Optional[bool] = None
    if fixed_point is not None:
        point = dict(zip(fam.variables, fixed_point))
        fixes = all(fam.relations.reduce_poly(comp.specialize(point))
                    == MultiPoly.const(fam.params, x)
                    for comp, x in zip(fam.components, fixed_point))
    return InvarianceResult(multiplier is not None, multiplier, fixes)


class GroupLawResult(Record):
    status: str  # "ok" | "failed" | "unresolved"
    detail: str


def verify_group_law(fam: MapFamily) -> GroupLawResult:
    """Check fam(p) o fam(p') = fam(compose(p, p')) identically.

    Needs the stored composition law; families without one come back
    UNRESOLVED. Identity parameters are checked to be a two-sided unit
    of the law."""
    if not fam.composition:
        return GroupLawResult("unresolved", "no composition law stored")
    law = dict(fam.composition)
    primed = fam.composition_primed
    big = fam.variables + fam.params + primed
    rename = dict(zip(fam.params, primed))

    inner_images = {name: comp.rename_vars(rename).with_vars(big)
                    for name, comp in zip(fam.variables, fam.components)}
    assignment = {p: law[p].with_vars(big) for p in fam.params}
    for name, comp in zip(fam.variables, fam.components):
        lhs = comp.with_vars(big).subs_poly(inner_images)
        if RationalFunction(lhs) != substitute(comp, assignment):
            return GroupLawResult("failed", f"component {name} disagrees")

    ident = dict(fam.identity)
    ident_primed = {rename[p]: x for p, x in ident.items()}
    for p in fam.params:
        # right unit: law(p, id') = p; left unit: law(id, p') = p'
        for side, values, unit in (("right", ident_primed, p), ("left", ident, rename[p])):
            # a denominator that vanishes at the identity raises ZeroDivisionError
            val = RationalFunction(*specialize_each((law[p].num, law[p].den), values))
            if val != MultiPoly.var(val.vars, unit):
                return GroupLawResult("failed", f"identity is not a {side} unit for {p}")
    return GroupLawResult("ok", "")


def verify_map_conjugation(phi: Mapping[str, RationalFunction],
                           inner: MapFamily, outer: MapFamily,
                           param_map: Mapping[str, MultiPoly]) -> Tuple[bool, str]:
    """Check phi o inner = outer[param_map] o phi as rational identities.

    phi maps the inner family's coordinates to the outer family's; the
    param_map expresses each outer parameter as a polynomial in the
    inner parameters. This is conjugation equality written without
    inverting phi. The components are composed as they are given; a
    catalogued map holds them in lowest terms
    (catalog.RationalMapFixture), so no surplus factor is composed.
    """
    universe = inner.variables + inner.params
    inner_images = {name: comp.with_vars(universe)
                    for name, comp in zip(inner.variables, inner.components)}

    outer_assignment: Dict[str, object] = {}
    for name in outer.variables:
        if name not in phi:
            raise ValueError(f"phi provides no component for {name!r}")
        outer_assignment[name] = phi[name].with_vars(universe)
    for p in outer.params:
        if p not in param_map:
            raise ValueError(f"no parameter expression for {p!r}")
        outer_assignment[p] = param_map[p].with_vars(universe)

    for i, name in enumerate(outer.variables):
        lhs = RationalFunction(phi[name].num.subs_poly(inner_images),
                               phi[name].den.subs_poly(inner_images))
        if lhs != substitute(outer.components[i], outer_assignment):
            return False, f"component {name} disagrees"
    return True, ""


def infinitesimal_generators(fam: MapFamily) -> List[HoloField]:
    """One generator per parameter: the derivative of the family at the
    identity parameters. A unit pair (c, cbar) contributes the single
    rotation generator i (d/dc - d/dcbar) evaluated at c = cbar = 1."""
    ident = dict(fam.identity)
    unit_syms = set(fam.unit_pair_params())
    derivatives = [lambda comp, p=p: comp.diff(p) for p in fam.params if p not in unit_syms]
    derivatives += [lambda comp, c=c, cb=cb: (comp.diff(c) - comp.diff(cb)) * I
                    for c, cb in fam.relations.unit_pairs]
    return [HoloField(fam.variables, tuple(specialize_each([d(comp) for comp in fam.components],
                                                           ident)))
            for d in derivatives]
