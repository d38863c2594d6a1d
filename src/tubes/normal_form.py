"""Normal-form machinery for tube hypersurfaces.

Covers the bidegree expansion of rational graph equations Im w_n =
R(w', conj w'), the trace operator built from the nondegenerate (1,1)
part, the normal-form condition checks, and exact verification of
coordinate changes, self-map families, group laws, and infinitesimal
generators. All checks are polynomial identities after clearing
denominators; series truncation appears only inside defining_series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .fields import HoloField
from .linalg import invert_gaussian_matrix
from .poly import (MultiPoly, Powers, RationalFunction, _poly, poly_sum, series_expand,
                   substitute, substitute_rf)
from .relations import RelationContext
from .scalars import I, ONE, ZERO, GaussianRational


# ------------------------------------------------------------- bidegree data

@dataclass(frozen=True)
class BidegreeSeries:
    """Truncated expansion of a real-analytic defining function, split
    into bihomogeneous parts F_{k,l} in (w', conj w')."""

    cutoff: int
    holo_vars: Tuple[str, ...]
    anti_vars: Tuple[str, ...]
    parts: Mapping[Tuple[int, int], MultiPoly]

    @property
    def pairing(self) -> Dict[str, str]:
        pairing = {}
        for a, b in zip(self.holo_vars, self.anti_vars):
            pairing[a] = b
            pairing[b] = a
        return pairing

    def part(self, k: int, l: int) -> MultiPoly:
        got = self.parts.get((k, l))
        if got is not None:
            return got
        return MultiPoly.zero(self.holo_vars + self.anti_vars)

    def verify_reality(self) -> None:
        pairing = self.pairing
        for (k, l), poly in self.parts.items():
            mirror = self.part(l, k)
            if poly.conjugate(pairing) != mirror:
                raise AssertionError(f"reality fails between parts {(k, l)} and {(l, k)}")


@dataclass(frozen=True)
class TraceOperator:
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

@dataclass(frozen=True)
class GraphSurface:
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
        pairing = self.pairing
        if not (part.num * part.den.conjugate(pairing)
                - part.num.conjugate(pairing) * part.den).is_zero():
            raise ValueError("graph data is not conjugation-invariant")

    @property
    def pairing(self) -> Dict[str, str]:
        pairing = {}
        for a, b in zip(self.holo_vars, self.anti_vars):
            pairing[a] = b
            pairing[b] = a
        return pairing

    @property
    def free_vars(self) -> Tuple[str, ...]:
        return self.holo_vars + self.anti_vars + (self.slice_var,)

    def solved_pair(self):
        """(numerator of w, numerator of conj w, common denominator), all
        over the free variable tuple."""
        fv = self.free_vars
        s = MultiPoly.var(fv, self.slice_var)
        if self.im_part is not None:
            u_num, den = s, MultiPoly.const(fv, 1)
            v_num, v_den = self.im_part.num.with_vars(fv), self.im_part.den.with_vars(fv)
            u_num = u_num * v_den
            den = v_den
            v = v_num
        else:
            u_num, den = self.re_part.num.with_vars(fv), self.re_part.den.with_vars(fv)
            v = s * den
        w_num = u_num + v * I
        wbar_num = u_num - v * I
        return w_num, wbar_num, den


def defining_series(surface: GraphSurface, cutoff: int) -> BidegreeSeries:
    """Expand the graph function and split by bidegree; reality and the
    vanishing of the constant part are verified."""
    if surface.im_part is None:
        raise ValueError("defining_series expects the normal-form graph pattern")
    expansion = series_expand(surface.im_part, cutoff)
    parts = expansion.bidegree_split(surface.holo_vars, surface.anti_vars)
    series = BidegreeSeries(cutoff, surface.holo_vars, surface.anti_vars, dict(parts))
    if not series.part(0, 0).is_zero():
        raise ValueError("defining function does not vanish at the origin")
    series.verify_reality()
    return series


@dataclass(frozen=True)
class NormalFormReport:
    cutoff: int
    conditions: Tuple[Tuple[str, bool, str], ...]
    classical_trace3: bool

    def failed_names(self) -> Tuple[str, ...]:
        return tuple(name for name, ok, _ in self.conditions if not ok)


# the trace conditions reach the (3,3) part, so the series must run through degree 6
MIN_CM_CUTOFF = 6


def chern_moser_check(series: BidegreeSeries, tr: TraceOperator) -> NormalFormReport:
    """The normal-form conditions on the bidegree parts.

    Checked through the cutoff: all pure parts (k,0) vanish, the parts
    (k,1) vanish for k >= 2, tr F22 = 0, tr^2 F32 = 0 and tr^2 F33 = 0.
    The classical third trace power on F33 is reported separately and is
    not assumed equivalent to the square condition.
    """
    if series.cutoff < MIN_CM_CUTOFF:
        raise ValueError(f"chern_moser_check needs cutoff >= {MIN_CM_CUTOFF}")
    conditions: List[Tuple[str, bool, str]] = []

    bad = [k for k in range(series.cutoff + 1) if not series.part(k, 0).is_zero()]
    conditions.append(("pure parts (k,0) vanish", not bad,
                       f"nonzero at k={bad}" if bad else ""))
    bad = [k for k in range(2, series.cutoff) if not series.part(k, 1).is_zero()]
    conditions.append(("parts (k,1) vanish for k >= 2", not bad,
                       f"nonzero at k={bad}" if bad else ""))
    t22 = tr.apply(series.part(2, 2))
    conditions.append(("tr F22 = 0", t22.is_zero(), "" if t22.is_zero() else str(t22)))
    t32 = tr.apply(tr.apply(series.part(3, 2)))
    conditions.append(("tr^2 F32 = 0", t32.is_zero(), "" if t32.is_zero() else str(t32)))
    t33 = tr.apply(tr.apply(series.part(3, 3)))
    conditions.append(("tr^2 F33 = 0", t33.is_zero(), "" if t33.is_zero() else str(t33)))
    t333 = tr.apply(t33)
    return NormalFormReport(series.cutoff, tuple(conditions), t333.is_zero())


# --------------------------------------------------------- surface map checks

def verify_surface_map(source: GraphSurface, target: MultiPoly,
                       target_holo: Sequence[str], target_anti: Sequence[str],
                       phi: Mapping[str, RationalFunction]) -> Tuple[bool, MultiPoly]:
    """Exact check that phi maps the source graph into {target = 0}.

    Substitutes z := phi(w), conj z := conj phi(conj w), then the graph
    relations for the solved coordinate, and cross-multiplies. Returns
    (identity holds, residual numerator).
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
        assignment[name] = phi[name].with_vars(universe)
    for h, a in zip(target_holo, target_anti):
        assignment[a] = assignment[h].conjugate(pairing)

    composed = substitute(target, assignment)
    numer = composed.num

    groups = numer.split_by_vars([source.solved_var, source.solved_conj])
    w_num, wbar_num, den = source.solved_pair()
    fv = source.free_vars
    max_j = max((key[0] for key in groups), default=0)
    max_k = max((key[1] for key in groups), default=0)
    w_pows, wbar_pows, den_pows = Powers(w_num), Powers(wbar_num), Powers(den)
    total = poly_sum(fv, [part.with_vars(fv) * w_pows[j] * wbar_pows[k]
                          * den_pows[max_j + max_k - j - k]
                          for (j, k), part in groups.items()])
    return total.is_zero(), total


def surface_map_series_residual(source: GraphSurface, target: MultiPoly,
                                target_holo: Sequence[str], target_anti: Sequence[str],
                                phi: Mapping[str, RationalFunction],
                                cutoff: int) -> MultiPoly:
    """Diagnostic variant of verify_surface_map using a truncated graph.

    The graph function is replaced by its series through `cutoff` and the
    cross-multiplied residual is truncated with respect to the non-slice
    coordinates; a correct map gives the zero polynomial, and an
    incorrect one leaves a low-degree residual that is easier to read
    than the exact one. The exact path never truncates."""
    if source.im_part is None:
        raise ValueError("the series diagnostic expects the normal-form graph pattern")
    truncated = GraphSurface(source.holo_vars, source.anti_vars, source.slice_var,
                             source.solved_var, source.solved_conj, None,
                             RationalFunction(series_expand(source.im_part, cutoff)),
                             source.name + f".series{cutoff}")
    _, residual = verify_surface_map(truncated, target, target_holo, target_anti, phi)
    graded = [v in source.holo_vars or v in source.anti_vars for v in residual.vars]
    return _poly(residual.vars, {exps: coeff for exps, coeff in residual.terms.items()
                                 if sum(e for e, g in zip(exps, graded) if g) <= cutoff})


def map_at_origin(phi: Mapping[str, RationalFunction],
                  order: Sequence[str]) -> List[GaussianRational]:
    """Value of a rational map at the origin of its source coordinates."""
    out = []
    for name in order:
        rf = phi[name]
        num0 = rf.num.const_coeff()
        den0 = rf.den.const_coeff()
        if not den0:
            raise ZeroDivisionError(f"component {name!r} is singular at the origin")
        out.append(num0 / den0)
    return out


# ----------------------------------------------------------------- families

@dataclass(frozen=True)
class MapFamily:
    """Parametrized polynomial/rational self-map family.

    Components live over variables + params. Real parameters are fixed
    by conjugation; a unit-modulus parameter is modelled as a pair
    (c, cbar) with c*cbar = 1 registered in the relation context.
    """

    name: str
    variables: Tuple[str, ...]
    params: Tuple[str, ...]
    components: Tuple[RationalFunction, ...]
    identity: Tuple[Tuple[str, Fraction], ...]
    relations: RelationContext = field(default_factory=RelationContext)
    constraints: Tuple[Tuple[str, str], ...] = ()
    composition: Tuple[Tuple[str, RationalFunction], ...] = ()
    composition_primed: Tuple[str, ...] = ()

    def __post_init__(self):
        expect = self.variables + self.params
        for comp in self.components:
            if comp.vars != expect:
                raise ValueError(f"family components must live over {expect}")
        ident = dict(self.identity)
        missing = [p for p in self.params if p not in ident]
        if missing:
            raise ValueError(f"no identity value for parameters {missing}")
        for i, comp in enumerate(self.components):
            at_id = self.component_at_params(i, ident)
            var = MultiPoly.var(self.variables, self.variables[i])
            if not (at_id.num - var * at_id.den).is_zero():
                raise ValueError("identity parameters do not give the identity map")

    @property
    def universe(self) -> Tuple[str, ...]:
        return self.variables + self.params

    def component_at_params(self, index: int, values: Mapping[str, object]) -> RationalFunction:
        assignment: Dict[str, object] = {v: MultiPoly.var(self.variables, v)
                                         for v in self.variables}
        for p in self.params:
            assignment[p] = MultiPoly.const(self.variables, Fraction(values[p])) \
                if not isinstance(values[p], (MultiPoly, RationalFunction)) else values[p]
        return substitute_rf(self.components[index], assignment)

    def conjugate_components(self, var_pairing: Mapping[str, str],
                             universe: Sequence[str]) -> List[RationalFunction]:
        """Components of the conjugated map, embedded into `universe`
        (which must contain both variable groups and the parameters)."""
        pairing = dict(var_pairing)
        for p in self.params:
            pairing.setdefault(p, p)
        for c, cb in self.relations.unit_pairs:
            pairing[c] = cb
            pairing[cb] = c
        return [comp.with_vars(universe).conjugate(pairing) for comp in self.components]

    def unit_pair_params(self) -> Tuple[str, ...]:
        out: List[str] = []
        for c, cb in self.relations.unit_pairs:
            out.extend((c, cb))
        return tuple(out)


@dataclass(frozen=True)
class InvarianceResult:
    ok: bool
    multiplier: Optional[MultiPoly]
    fixes_point: Optional[bool]
    residual: Optional[MultiPoly]

    def __bool__(self) -> bool:
        return self.ok and self.fixes_point is not False


def verify_family_invariance(fam: MapFamily, surface: MultiPoly,
                             holo_vars: Sequence[str] = (),
                             anti_vars: Sequence[str] = (),
                             fixed_point: Optional[Sequence[Fraction]] = None) -> InvarianceResult:
    """Exact invariance rho(fam(z), conj fam(conj z)) = m(params) * rho.

    The multiplier is found per parameter monomial by a scalar solve;
    the identity must hold with all parameters symbolic. When holo/anti
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
        pairing = {}
        for a, b in zip(holo_vars, anti_vars):
            pairing[a] = b
            pairing[b] = a
        images: Dict[str, MultiPoly] = {}
        conj = fam.conjugate_components(pairing, universe)
        for i, name in enumerate(fam.variables):
            comp = fam.components[i]
            if not comp.is_polynomial():
                raise ValueError("invariance check expects polynomial family components")
            images[name] = comp.num.with_vars(universe)
        for i, name in enumerate(anti_vars):
            images[name] = conj[i].num
    else:
        if surface.vars != fam.variables:
            raise ValueError("surface and family variables differ")
        universe = fam.variables + fam.params
        images = {name: fam.components[i].num.with_vars(universe)
                  for i, name in enumerate(fam.variables)}
        for comp in fam.components:
            if not comp.is_polynomial():
                raise ValueError("invariance check expects polynomial family components")

    image = surface.with_vars(universe).subs_poly(images)
    image = fam.relations.reduce_poly(image)
    rho = surface.with_vars(universe)
    lead_exps, lead_coeff = rho.leading()

    multiplier: Dict[Tuple[int, ...], GaussianRational] = {}
    groups = image.split_by_vars(list(fam.params))
    ok = True
    residual: Optional[MultiPoly] = None
    for pexps, part in groups.items():
        c = part.coeff(lead_exps) / lead_coeff
        rest = part - rho * c
        if not rest.is_zero():
            ok = False
            residual = rest
            break
        if c:
            multiplier[pexps] = c
    fixes: Optional[bool] = None
    if fixed_point is not None:
        fixes = True
        const_images = {v: MultiPoly.const(fam.params, Fraction(x))
                        for v, x in zip(fam.variables, fixed_point)}
        for i, comp in enumerate(fam.components):
            value = comp.num.with_vars(fam.universe).subs_poly(
                {**{p: MultiPoly.var(fam.params, p) for p in fam.params}, **const_images})
            value = fam.relations.reduce_poly(value)
            if value != MultiPoly.const(fam.params, Fraction(fixed_point[i])):
                fixes = False
                break
    return InvarianceResult(ok, _poly(fam.params, multiplier) if ok else None, fixes, residual)


@dataclass(frozen=True)
class GroupLawResult:
    status: str  # "ok" | "failed" | "unresolved"
    detail: str

    def __bool__(self) -> bool:
        return self.status == "ok"


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

    inner_images = {}
    for i, name in enumerate(fam.variables):
        comp = fam.components[i]
        if not comp.is_polynomial():
            return GroupLawResult("failed", "composition needs polynomial components")
        inner_images[name] = comp.num.rename_vars(rename).with_vars(big)

    for i, name in enumerate(fam.variables):
        lhs = fam.components[i].num.with_vars(big).subs_poly(inner_images)
        assignment: Dict[str, object] = {v: RationalFunction(MultiPoly.var(big, v))
                                         for v in fam.variables}
        for p in fam.params:
            assignment[p] = law[p].with_vars(big)
        rhs = substitute(fam.components[i].num, assignment)
        if not (lhs * rhs.den - rhs.num).is_zero():
            return GroupLawResult("failed", f"component {name} disagrees")

    ident = dict(fam.identity)
    for p in fam.params:
        law_p = law[p]
        # right unit: law(p, id') = p
        right = {pp: RationalFunction.from_scalar(fam.params, ident[strip_prime(pp, fam, primed)])
                 if pp in primed else RationalFunction(MultiPoly.var(fam.params, pp))
                 for pp in law_p.vars if pp in primed or pp in fam.params}
        val = substitute_rf(law_p, right)
        if not (val.num - MultiPoly.var(val.vars, p).with_vars(val.vars) * val.den).is_zero():
            return GroupLawResult("failed", f"identity is not a right unit for {p}")
        left = {pp: RationalFunction(MultiPoly.var(primed, pp)) if pp in primed
                else RationalFunction.from_scalar(primed, ident[pp])
                for pp in law_p.vars if pp in primed or pp in fam.params}
        val = substitute_rf(law_p, left)
        target = MultiPoly.var(val.vars, rename[p]).with_vars(val.vars)
        if not (val.num - target * val.den).is_zero():
            return GroupLawResult("failed", f"identity is not a left unit for {p}")
    return GroupLawResult("ok", "")


def strip_prime(primed_name: str, fam: MapFamily, primed: Tuple[str, ...]) -> str:
    return fam.params[list(primed).index(primed_name)]


def verify_map_conjugation(phi: Mapping[str, RationalFunction],
                           inner: MapFamily, outer: MapFamily,
                           param_map: Mapping[str, MultiPoly]) -> Tuple[bool, str]:
    """Check phi o inner = outer[param_map] o phi as rational identities.

    phi maps the inner family's coordinates to the outer family's; the
    param_map expresses each outer parameter as a polynomial in the
    inner parameters. This is conjugation equality written without
    inverting phi.
    """
    universe = inner.variables + inner.params
    inner_images: Dict[str, MultiPoly] = {}
    for i, name in enumerate(inner.variables):
        comp = inner.components[i]
        if not comp.is_polynomial():
            raise ValueError("conjugation check expects a polynomial inner family")
        inner_images[name] = comp.num.with_vars(universe)

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
        lhs_num = substitute(phi[name].num, inner_images)
        lhs_den = substitute(phi[name].den, inner_images)
        rhs = substitute_rf(outer.components[i], outer_assignment)
        diff = lhs_num.num * rhs.den * lhs_den.den - rhs.num * lhs_den.num * lhs_num.den
        if not diff.is_zero():
            return False, f"component {name} disagrees"
    return True, ""


def infinitesimal_generators(fam: MapFamily) -> List[HoloField]:
    """One generator per parameter: the derivative of the family at the
    identity parameters. A unit pair (c, cbar) contributes the single
    rotation generator i (d/dc - d/dcbar) evaluated at c = cbar = 1."""
    ident = {p: Fraction(v) for p, v in fam.identity}
    unit_syms = set(fam.unit_pair_params())
    gens: List[HoloField] = []

    def eval_at_identity(p: MultiPoly) -> MultiPoly:
        images = {name: MultiPoly.const(fam.variables, ident[name]) if name in ident
                  else MultiPoly.var(fam.variables, name) for name in p.vars}
        return p.subs_poly(images)

    def derivative_components(dcomp_fn) -> List[MultiPoly]:
        comps = []
        for comp in fam.components:
            n, d = comp.num, comp.den
            dn, dd = dcomp_fn(n), dcomp_fn(d)
            d_id = eval_at_identity(d)
            if d_id.used_vars():
                raise ValueError("non-polynomial parameter dependence at the identity")
            d0 = d_id.const_coeff()
            if not d0:
                raise ValueError("family denominator vanishes at the identity parameters")
            num = eval_at_identity(dn * d - n * dd)
            comps.append(num * (ONE / (d0 * d0)))
        return comps

    for p in fam.params:
        if p in unit_syms:
            continue
        comps = derivative_components(lambda poly, p=p: poly.diff(p))
        gens.append(HoloField(fam.variables, tuple(comps)))
    for c, cb in fam.relations.unit_pairs:
        comps = derivative_components(
            lambda poly, c=c, cb=cb: (poly.diff(c) - poly.diff(cb)) * I)
        gens.append(HoloField(fam.variables, tuple(comps)))
    return gens
