"""Affine symmetry algebras, orbit analysis and transitivity machinery.

The central computation is the linear solve behind affine_symmetry_algebra:
an affine field X = (Ax + b) . d/dx is tangent to {P = 0} along the surface
exactly when X(P) = c P for a constant c, and collecting monomial
coefficients of X(P) - c P gives an exact rational kernel problem in the
n^2 + n + 1 unknowns (A, b, c). Everything downstream (structure
constants, orbit ranks, Grassmannian chart scans, nilpotency and the
transitivity witnesses) stays in exact arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .fields import (VectorField, lie_bracket, linear_combination, minors_scan,
                     rank_at)
from .poly import MultiPoly, RationalFunction, substitute_rf
from .relations import RelationContext
from .scalars import ONE, ZERO, GaussianRational, Rational


@dataclass(frozen=True)
class Hypersurface:
    """Zero set of a polynomial with a chosen basepoint and side constraints.

    Constraints are pairs (expr, "gt") asserting expr > 0; they are
    recorded for probe filtering and sampled checks, never used in
    polynomial identities. The irreducibility flag is an assertion by
    the catalog, not something the engine verifies.
    """

    defining: MultiPoly
    basepoint: Tuple[Fraction, ...]
    constraints: Tuple[Tuple[MultiPoly, str], ...] = ()
    assert_irreducible: bool = False
    name: str = ""

    def __post_init__(self):
        if len(self.basepoint) != len(self.defining.vars):
            raise ValueError("basepoint dimension does not match the surface variables")
        value = self.defining.eval_at(dict(zip(self.defining.vars, self.basepoint)))
        if value:
            raise ValueError(f"basepoint {self.basepoint} is not on the surface ({value})")
        for expr, sense in self.constraints:
            v = expr.eval_at(dict(zip(expr.vars, self.basepoint)))
            if not v.is_real() or not satisfies(v.re, sense):
                raise ValueError(f"basepoint violates side constraint {expr} {sense} 0")

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.defining.vars

    def point_on_surface(self, point: Sequence[object]) -> bool:
        return not self.defining.eval_at(dict(zip(self.variables, point)))

    def point_satisfies_constraints(self, point: Sequence[object]) -> bool:
        for expr, sense in self.constraints:
            v = expr.eval_at(dict(zip(expr.vars, point)))
            if not v.is_real() or not satisfies(v.re, sense):
                return False
        return True


def satisfies(value: Rational, sense: str) -> bool:
    if sense == "gt":
        return value > 0
    if sense == "lt":
        return value < 0
    raise ValueError(f"unknown constraint sense {sense!r}")


# --------------------------------------------------------------- presentations

def _field_coordinates(fields: Sequence[VectorField]):
    """Monomial-coordinate columns for a list of fields over one carrier."""
    support: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    for f in fields:
        for i, comp in enumerate(f.components):
            for e in comp.terms:
                support.setdefault((i, e), len(support))
    columns = []
    for f in fields:
        col = [ZERO] * len(support)
        for i, comp in enumerate(f.components):
            for e, c in comp.terms.items():
                col[support[(i, e)]] = c
        columns.append(col)
    return support, columns


@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Ordered basis of vector fields plus the full structure tensor.

    structure[i][j] is the coefficient tuple of [B_i, B_j] in the basis,
    with canonical rational entries (int when integral, Fraction
    otherwise); antisymmetry is enforced at construction and the Jacobi
    identity is checked by verify().
    """

    basis: Tuple[VectorField, ...]
    structure: Tuple[Tuple[Tuple[Rational, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_fields(cls, basis: Sequence[VectorField]) -> "LieAlgebraPresentation":
        basis = tuple(basis)
        dim = len(basis)
        zero_row = (0,) * dim
        rows: List[List[Tuple[Rational, ...]]] = [[zero_row] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                br = lie_bracket(basis[i], basis[j])
                coeffs = expand_in_fields(br, basis)
                if coeffs is None:
                    raise RuntimeError(
                        f"closure failure: [B_{i}, B_{j}] is outside the span; "
                        "this indicates a bug in the basis computation")
                rat = []
                for c in coeffs:
                    if not c.is_real():
                        raise RuntimeError("structure constants must be rational")
                    rat.append(c.re)
                rows[i][j] = tuple(rat)
                rows[j][i] = tuple(-x for x in rat)
        return cls(basis, tuple(tuple(r) for r in rows))

    def bracket_coords(self, u: Sequence[object], v: Sequence[object]):
        """Coordinates of [u, v] for coordinate vectors with entries in any
        commutative ring containing the rationals (scalars or polynomials)."""
        dim = self.dim
        out = [0] * dim
        for i in range(dim):
            ui = u[i]
            if not ui:
                continue
            for j in range(dim):
                vj = v[j]
                if not vj:
                    continue
                prod = ui * vj
                for k, c in enumerate(self.structure[i][j]):
                    if c:
                        out[k] = out[k] + prod * c
        return out

    def field_from_coords(self, coords: Sequence[object]) -> VectorField:
        return linear_combination(list(coords), list(self.basis))

    def verify(self) -> None:
        """Check antisymmetry and the Jacobi identity of the tensor, then
        the tensor against the brackets of the basis fields.

        Jacobi sums, for each (i, j, k), the three cyclic terms
        c_ij^l c_lk^m + c_jk^l c_li^m + c_ki^l c_lj^m over the nonzero
        constants c_ij^l only, into one coordinate vector per triple."""
        dim = self.dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    if self.structure[i][j][k] != -self.structure[j][i][k]:
                        raise AssertionError("structure tensor is not antisymmetric")
        # Jacobi on the tensor, over the nonzero (l, c_ij^l) of each (i, j)
        nonzero = [[[(l, c) for l, c in enumerate(row) if c] for row in rows]
                   for rows in self.structure]
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    total = [0] * dim
                    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, c in nonzero[a][b]:
                            for m, c2 in nonzero[l][d]:
                                total[m] += c * c2
                    if any(total):
                        raise AssertionError("Jacobi identity fails on the tensor")
        # bracket identity against the actual fields
        for i in range(dim):
            for j in range(i + 1, dim):
                br = lie_bracket(self.basis[i], self.basis[j])
                expect = self.field_from_coords(self.structure[i][j])
                for a, b in zip(br.components, expect.components):
                    if a != b:
                        raise AssertionError(f"structure tensor wrong at ({i},{j})")


def expand_in_fields(x: VectorField, basis: Sequence[VectorField]):
    """Coefficients of x in span(basis), or None if x is outside."""
    fields = list(basis) + [x]
    support, columns = _field_coordinates(fields)
    return_cols = columns[:-1]
    target = columns[-1]
    sol = linalg.solve_columns(return_cols, target)
    return None if sol is None else tuple(sol)


# ------------------------------------------------------- symmetry computation

def affine_symmetry_algebra(surface: Hypersurface) -> LieAlgebraPresentation:
    """All affine fields X with X(P) = c P, as a verified presentation."""
    p = surface.defining
    names = p.vars
    n = len(names)
    gradients = [p.diff(v) for v in names]
    unknown_polys: List[MultiPoly] = []
    for i in range(n):
        for j in range(n):
            unknown_polys.append(MultiPoly.var(names, names[j]) * gradients[i])
    unknown_polys.extend(gradients)
    unknown_polys.append(-p)

    support: Dict[Tuple[int, ...], int] = {}
    for poly in unknown_polys:
        for e in poly.terms:
            support.setdefault(e, len(support))
    matrix = [[Fraction(0)] * len(unknown_polys) for _ in range(len(support))]
    for col, poly in enumerate(unknown_polys):
        for e, c in poly.terms.items():
            if not c.is_real():
                raise ValueError("affine symmetry solve expects a real defining polynomial")
            matrix[support[e]][col] = c.re

    kernel = linalg.kernel_basis(matrix)
    # component i is vec[n*n + i] + sum_j vec[n*i + j] * x_j
    exps = [(0,) * n] + [tuple(int(k == j) for k in range(n)) for j in range(n)]
    fields = []
    for vec in kernel:
        comps = tuple(MultiPoly(names, dict(zip(exps, [vec[n * n + i]] + vec[n * i:n * i + n])))
                      for i in range(n))
        fields.append(VectorField(tuple(names), comps))
    return LieAlgebraPresentation.from_fields(fields)


def self_bracket(algebra: LieAlgebraPresentation, u, v):
    return [GaussianRational.coerce(x) for x in algebra.bracket_coords(u, v)]


def is_nilpotent(algebra: LieAlgebraPresentation) -> Tuple[bool, Tuple[int, ...]]:
    """Lower central series: returns (nilpotent?, series dimensions)."""
    dim = algebra.dim
    unit = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
    current = unit
    dims = [dim]
    while True:
        brackets = []
        for e in unit:
            for v in current:
                brackets.append(self_bracket(algebra, e, v))
        nxt = linalg.rref_rows(brackets)
        dims.append(len(nxt))
        if not nxt:
            return True, tuple(dims)
        if len(nxt) == dims[-2]:
            return False, tuple(dims)
        current = nxt


# ----------------------------------------------------------------- orbit test

@dataclass(frozen=True)
class ProbeRecord:
    point: Tuple[Fraction, ...]
    rejected: Optional[str]
    rank: Optional[int]
    open_orbit: bool


@dataclass(frozen=True)
class OrbitReport:
    algebra_dim: int
    ambient_dim: int
    determinant: Optional[MultiPoly]
    all_minors_zero: bool
    probes: Tuple[ProbeRecord, ...]
    verdict: str


def open_orbit_report(algebra: LieAlgebraPresentation, surface: Hypersurface,
                      probes: Sequence[Sequence[Fraction]]) -> OrbitReport:
    """Determinant / minor analysis of the algebra's pointwise rank."""
    n = len(surface.variables)
    fields = list(algebra.basis)
    minor = minors_scan(fields)[0] if algebra.dim >= n else None
    det = minor if algebra.dim == n else None
    all_zero = minor is not None and minor.is_zero()
    records = []
    for point in probes:
        point = tuple(Fraction(x) for x in point)
        if surface.point_on_surface(point):
            records.append(ProbeRecord(point, "probe lies on the surface", None, False))
            continue
        rk = rank_at(fields, point)
        records.append(ProbeRecord(point, None, rk, rk == n))
    if algebra.dim < n or all_zero:
        verdict = "no open orbits: fields are nowhere of full rank"
    elif records and all(r.open_orbit for r in records if r.rejected is None) \
            and any(r.rejected is None for r in records):
        verdict = "open orbit at every accepted probe"
    else:
        verdict = "mixed or undetermined at the probes"
    return OrbitReport(algebra.dim, n, det, all_zero, tuple(records), verdict)


# ---------------------------------------------------------- Grassmannian scan

@dataclass(frozen=True)
class ChartOutcome:
    pivots: Tuple[int, ...]
    status: str  # "solved" | "empty" | "unresolved"
    free_vars: Tuple[str, ...] = ()
    solution: Tuple[Tuple[str, MultiPoly], ...] = ()
    residual: Tuple[MultiPoly, ...] = ()
    closure_verified: bool = False

    def basis_coords(self, algebra_dim: int) -> List[List[MultiPoly]]:
        """Symbolic chart basis rows (entries are polynomials in the free
        chart variables)."""
        if self.status != "solved":
            raise ValueError("only solved charts expose a basis")
        tvars = self.free_vars if self.free_vars else ("t_unused",)
        solved = dict(self.solution)
        rows = []
        k = len(self.pivots)
        nonpivots = [j for j in range(algebra_dim) if j not in self.pivots]
        for a in range(k):
            row = [MultiPoly.zero(tvars) for _ in range(algebra_dim)]
            row[self.pivots[a]] = MultiPoly.const(tvars, 1)
            for j in nonpivots:
                name = f"t{a}_{j}"
                if name in solved:
                    row[j] = solved[name].with_vars(tvars)
                else:
                    row[j] = MultiPoly.var(tvars, name)
            rows.append(row)
        return rows


@dataclass(frozen=True)
class ScanResult:
    algebra_dim: int
    k: int
    charts: Tuple[ChartOutcome, ...]

    @property
    def unresolved(self) -> Tuple[ChartOutcome, ...]:
        return tuple(c for c in self.charts if c.status == "unresolved")


def subalgebra_scan(algebra: LieAlgebraPresentation, k: int) -> ScanResult:
    """Chart-by-chart closure solve over the Grassmannian of k-planes.

    Each affine chart pins k pivot coordinates to the identity and leaves
    the rest as unknowns; closure of the span under bracket produces
    polynomial equations which are solved by repeated elimination of
    variables that occur linearly with a constant coefficient. Charts
    whose systems do not successively linearize are reported UNRESOLVED
    with their residual equations.
    """
    m = algebra.dim
    if not 0 < k < m:
        raise ValueError("k must be strictly between 0 and the algebra dimension")
    charts = []
    for pivots in itertools.combinations(range(m), k):
        charts.append(_scan_chart(algebra, k, pivots))
    return ScanResult(m, k, tuple(charts))


def _scan_chart(algebra: LieAlgebraPresentation, k: int, pivots: Tuple[int, ...]) -> ChartOutcome:
    m = algebra.dim
    nonpivots = [j for j in range(m) if j not in pivots]
    tvars = tuple(f"t{a}_{j}" for a in range(k) for j in nonpivots)
    if not tvars:
        tvars = ("t_unused",)
    one = MultiPoly.const(tvars, 1)
    zero = MultiPoly.zero(tvars)
    rows: List[List[MultiPoly]] = []
    for a in range(k):
        row = [zero] * m
        row[pivots[a]] = one
        for j in nonpivots:
            row[j] = MultiPoly.var(tvars, f"t{a}_{j}")
        rows.append(row)

    def residuals(current_rows):
        eqs = []
        for a in range(k):
            for b in range(a + 1, k):
                w = algebra.bracket_coords(current_rows[a], current_rows[b])
                w = [x if isinstance(x, MultiPoly) else MultiPoly.const(tvars, x) for x in w]
                mu = [w[p] for p in pivots]
                for j in nonpivots:
                    r = w[j]
                    for c in range(k):
                        r = r - mu[c] * current_rows[c][j]
                    if not r.is_zero():
                        eqs.append(r)
        return eqs

    eqs = residuals(rows)
    solution: Dict[str, MultiPoly] = {}
    while eqs:
        eqs = [e for e in eqs if not e.is_zero()]
        if not eqs:
            break
        constant = next((e for e in eqs if not e.used_vars()), None)
        if constant is not None:
            return ChartOutcome(pivots, "empty")
        pick = None
        for e in eqs:
            for var in sorted(e.used_vars()):
                if e.degree_in(var) == 1:
                    coeff = e.diff(var)
                    if not coeff.used_vars():  # constant coefficient
                        pick = (e, var, coeff.const_coeff())
                        break
            if pick:
                break
        if pick is None:
            return ChartOutcome(pivots, "unresolved", residual=tuple(eqs))
        e, var, c = pick
        rest = e - MultiPoly.var(tvars, var) * c
        expr = rest * (ONE / GaussianRational.coerce(c)) * (-1)
        for key in list(solution):
            solution[key] = solution[key].subs_poly({var: expr})
        solution[var] = expr
        eqs = [q.subs_poly({var: expr}) for q in eqs]

    final_rows = []
    for a in range(len(rows)):
        final_rows.append([entry.subs_poly(solution) if solution else entry for entry in rows[a]])
    # independent closure recheck on the solved family
    recheck = residuals(final_rows)
    verified = all(e.is_zero() for e in recheck)
    free = tuple(sorted({v for row in final_rows for entry in row for v in entry.used_vars()}))
    sol_items = tuple(sorted(solution.items()))
    return ChartOutcome(pivots, "solved", free, sol_items, (), verified)


def chart_coordinates_of_subspace(rows: Sequence[Sequence[object]]):
    """RREF a subspace basis and return (pivot columns, value map for the
    corresponding chart variables)."""
    reduced = linalg.rref_rows([[GaussianRational.coerce(x) for x in row] for row in rows])
    pivots = []
    for row in reduced:
        lead = next(i for i, x in enumerate(row) if x)
        pivots.append(lead)
    values = {}
    m = len(reduced[0]) if reduced else 0
    nonpivots = [j for j in range(m) if j not in pivots]
    for a, row in enumerate(reduced):
        for j in nonpivots:
            values[f"t{a}_{j}"] = row[j]
    return tuple(pivots), values


def scan_covers_subspace(scan: ScanResult, rows: Sequence[Sequence[object]]) -> bool:
    """True when the scan's outcome for the subspace's chart contains it."""
    pivots, values = chart_coordinates_of_subspace(rows)
    for chart in scan.charts:
        if chart.pivots != pivots:
            continue
        if chart.status == "empty":
            return False
        if chart.status == "unresolved":
            return all(not _eval_poly_gaussian(e, values) for e in chart.residual)
        solved = dict(chart.solution)
        for name, value in values.items():
            if name in solved:
                got = _eval_poly_gaussian(solved[name], values)
                if got != value:
                    return False
        return True
    return False


def _eval_poly_gaussian(p: MultiPoly, assignment: Mapping[str, GaussianRational]):
    point = {v: assignment.get(v, ZERO) for v in p.vars}
    return p.eval_at(point)


# ------------------------------------------------------- transitivity witness

@dataclass(frozen=True)
class TransitivityWitness:
    """Parameter assignment sending a fixed base point to a symbolic target.

    The assignment maps each family parameter to a rational function of
    the target coordinates, possibly involving an adjoined radical from
    the relation context."""

    family: "object"  # MapFamily; typed loosely to avoid a module cycle
    target_vars: Tuple[str, ...]
    assignment: Mapping[str, RationalFunction]
    context: RelationContext
    name: str = ""


def verify_transitivity_witness(witness: TransitivityWitness,
                                base: Sequence[Fraction]) -> bool:
    """Exact check that family(params(target)) maps `base` to the target."""
    fam = witness.family
    full_assignment: Dict[str, object] = {}
    for v, value in zip(fam.variables, base):
        full_assignment[v] = Fraction(value)
    for p in fam.params:
        if p not in witness.assignment:
            raise ValueError(f"witness assigns no value to parameter {p!r}")
        full_assignment[p] = witness.assignment[p]
    ctx = witness.context
    for i, comp in enumerate(fam.components):
        image = substitute_rf(comp, full_assignment)
        num = ctx.reduce_poly(image.num)
        den = ctx.reduce_poly(image.den)
        if den.is_zero():
            raise ValueError("denominator of a parameter assignment reduces to zero")
        target = MultiPoly.var(num.vars, witness.target_vars[i])
        if not ctx.reduce_poly(num - target * den).is_zero():
            return False
    return True


# ------------------------------------------------- nil-ball obstruction check

@dataclass(frozen=True)
class ObstructionCertificate:
    passed: bool
    conditions: Tuple[Tuple[str, bool, str], ...]
    induction_depth: int
    induction_ok: bool


def non_nilpotent_transitive_obstruction(algebra: LieAlgebraPresentation,
                                         iso: Sequence[Sequence[Fraction]],
                                         z1_idx: int, z4_idx: int,
                                         s_idx: Sequence[int],
                                         depth: int = 3) -> ObstructionCertificate:
    """Five structure-constant conditions that rule out a nilpotent
    transitive subalgebra.

    With S the span of the basis elements indexed by s_idx, the
    conditions are (a) [B_z1, B_z4] = -B_z4, (b) [B_z1, S] in S,
    (c) [iso, B_z4] in S, (d) [iso, S] in S, (e) iso in S. They imply
    that every iterated bracket [Z1', [Z1', ... [Z1', Z4'] ...]] built
    from Z1' = Z - B_z1 and Z4' = B_z4 + W with Z, W in iso keeps
    B_z4-coefficient exactly 1, so no transitive subalgebra is nilpotent.
    A bounded symbolic iteration with free iso coefficients is run to the
    requested depth as an extra consistency check of that implication.
    """
    dim = algebra.dim
    s_set = set(s_idx)
    outside = [i for i in range(dim) if i not in s_set]

    def unit(i):
        return [ONE if j == i else ZERO for j in range(dim)]

    def in_s(vec) -> bool:
        return all(not vec[i] for i in outside)

    conditions: List[Tuple[str, bool, str]] = []

    br = self_bracket(algebra, unit(z1_idx), unit(z4_idx))
    ok_a = all(br[i] == (-1 if i == z4_idx else 0) for i in range(dim))
    conditions.append(("a: [Z1, Z4] = -Z4", ok_a, "" if ok_a else f"got {br}"))

    bad = [s for s in sorted(s_set)
           if not in_s(self_bracket(algebra, unit(z1_idx), unit(s)))]
    conditions.append(("b: [Z1, S] inside S", not bad, f"escapes at {bad}" if bad else ""))

    iso_vecs = [[GaussianRational.coerce(x) for x in v] for v in iso]
    bad = [n for n, w in enumerate(iso_vecs)
           if not in_s(self_bracket(algebra, w, unit(z4_idx)))]
    conditions.append(("c: [iso, Z4] inside S", not bad, f"escapes for iso[{bad}]" if bad else ""))

    bad_pairs = []
    for n, w in enumerate(iso_vecs):
        for s in sorted(s_set):
            if not in_s(self_bracket(algebra, w, unit(s))):
                bad_pairs.append((n, s))
    conditions.append(("d: [iso, S] inside S", not bad_pairs,
                       f"escapes at {bad_pairs}" if bad_pairs else ""))

    bad = [n for n, w in enumerate(iso_vecs) if not in_s(w)]
    conditions.append(("e: iso inside S", not bad, f"iso[{bad}] outside S" if bad else ""))

    all_ok = all(ok for _, ok, _ in conditions)

    induction_ok = False
    if all_ok:
        lam = [f"lam{i}" for i in range(len(iso_vecs))]
        mu = [f"mu{i}" for i in range(len(iso_vecs))]
        pvars = tuple(lam + mu)
        z_vec = [MultiPoly.zero(pvars) for _ in range(dim)]
        w_vec = [MultiPoly.zero(pvars) for _ in range(dim)]
        for n, v in enumerate(iso_vecs):
            for i in range(dim):
                if v[i]:
                    z_vec[i] = z_vec[i] + MultiPoly.var(pvars, lam[n]) * v[i]
                    w_vec[i] = w_vec[i] + MultiPoly.var(pvars, mu[n]) * v[i]
        z1p = list(z_vec)
        z1p[z1_idx] = z1p[z1_idx] - 1
        current = list(w_vec)
        current[z4_idx] = current[z4_idx] + 1
        induction_ok = True
        for _ in range(depth):
            nxt = algebra.bracket_coords(z1p, current)
            nxt = [x if isinstance(x, MultiPoly) else MultiPoly.const(pvars, x) for x in nxt]
            if nxt[z4_idx] != 1 or not nxt[z1_idx].is_zero():
                induction_ok = False
                break
            current = nxt

    return ObstructionCertificate(all_ok and induction_ok, tuple(conditions), depth, induction_ok)


# ----------------------------------------------------------- complex lines

@dataclass(frozen=True)
class ComplexLine:
    point: Tuple[GaussianRational, ...]
    direction: Tuple[GaussianRational, ...]
    name: str = ""


@dataclass(frozen=True)
class LineVerdict:
    verdict: str  # "contained" | "not_contained" | "unresolved"
    value: Optional[Fraction]
    detail: str


def line_in_domain_check(line: ComplexLine, expr: MultiPoly, sense: str) -> LineVerdict:
    """Substitute the affine complex line into the defining expression.

    If the restriction is constant in (Re tau, Im tau) the verdict
    compares that constant against the inequality, otherwise the check
    is UNRESOLVED."""
    tau_vars = ("tau_re", "tau_im")
    images = {}
    for name, p, d in zip(expr.vars, line.point, line.direction):
        p = GaussianRational.coerce(p)
        d = GaussianRational.coerce(d)
        img = MultiPoly.const(tau_vars, p.re)
        if d.re:
            img = img + MultiPoly.var(tau_vars, "tau_re") * d.re
        if d.im:
            img = img - MultiPoly.var(tau_vars, "tau_im") * d.im
        images[name] = img
    restricted = expr.subs_poly(images)
    if restricted.used_vars():
        return LineVerdict("unresolved", None,
                           f"restriction is not constant: {restricted}")
    value = restricted.const_coeff()
    if not value.is_real():
        return LineVerdict("unresolved", None, "restriction is not real")
    contained = satisfies(value.re, sense)
    return LineVerdict("contained" if contained else "not_contained", value.re,
                       f"restriction is the constant {value.re}")
