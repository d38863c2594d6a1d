"""Affine symmetry algebras, orbit analysis and transitivity machinery.

The central computation is the linear solve behind affine_symmetry_algebra:
an affine field X = (Ax + b) . d/dx is tangent to {P = 0} along the surface
exactly when X(P) = c P for a constant c, and collecting monomial
coefficients of X(P) - c P gives an exact rational kernel problem in the
n^2 + n + 1 unknowns (A, b, c). Its structure constants are read off the
integer kernel vectors: the bracket of two affine fields is the commutator
of their (n+1) x (n+1) matrices, again a kernel vector, whose coordinates
sit at the columns where one basis vector alone is nonzero. Fields given
as polynomials (stored bases) are expanded by one elimination instead
(LieAlgebraPresentation.from_fields). Everything downstream (orbit ranks,
Grassmannian chart scans, nilpotency and the transitivity witnesses) stays
in exact arithmetic.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .fields import (VectorField, lie_bracket, linear_combination, minors_scan,
                     rank_at)
from .poly import (MultiPoly, RationalFunction, Terms, _poly, coefficient_columns,
                   linear_pivot, poly_sum, subs_each, substitute, tangency_rows,
                   variable_keys)
from .record import Record
from .relations import RelationContext
from .scalars import ZERO, GaussianRational, Rational, _canon, _div, rat


class Hypersurface(Record):
    """Zero set of a polynomial with a chosen basepoint and side constraints.

    The defining polynomial must have real coefficients. Constraints are
    pairs (expr, "gt") asserting expr > 0; they are recorded for probe
    filtering and sampled checks, never used in polynomial identities.
    The irreducibility flag is an assertion by the catalog, not something
    the engine verifies.
    """

    defining: MultiPoly
    basepoint: Tuple[Rational, ...]
    constraints: Tuple[Tuple[MultiPoly, str], ...] = ()
    assert_irreducible: bool = False
    name: str = ""

    def __post_init__(self):
        if len(self.basepoint) != len(self.defining.vars):
            raise ValueError("basepoint dimension does not match the surface variables")
        if not self.defining.is_real():
            raise ValueError(f"the defining polynomial {self.defining} is not real")
        value = self.defining.eval_at(dict(zip(self.defining.vars, self.basepoint)))
        if value:
            raise ValueError(f"basepoint {self.basepoint} is not on the surface ({value})")
        bad = violated_constraint(self.constraints, self.basepoint)
        if bad is not None:
            raise ValueError(f"basepoint violates side constraint {bad[0]} {bad[1]} 0")

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.defining.vars

    def point_on_surface(self, point: Sequence[object]) -> bool:
        return not self.defining.eval_at(dict(zip(self.variables, point)))

    def point_satisfies_constraints(self, point: Sequence[object]) -> bool:
        return violated_constraint(self.constraints, point) is None


def violated_constraint(constraints: Sequence[Tuple[MultiPoly, str]],
                        point: Sequence[object]) -> Optional[Tuple[MultiPoly, str]]:
    """The first constraint (expr, sense) that fails at the point, whose
    coordinates follow the order of each expr's variables, or None."""
    for expr, sense in constraints:
        v = expr.eval_at(dict(zip(expr.vars, point)))
        if not v.is_real() or not satisfies(v.re, sense):
            return expr, sense
    return None


def satisfies(value: Rational, sense: str) -> bool:
    if sense == "gt":
        return value > 0
    if sense == "lt":
        return value < 0
    raise ValueError(f"unknown constraint sense {sense!r}")


# --------------------------------------------------------------- presentations

_OUTSIDE = "[B_{}, B_{}] is outside the span"
_CLOSURE = "closure failure: " + _OUTSIDE + "; this indicates a bug in the basis computation"


class LieAlgebraPresentation(Record):
    """Ordered basis of vector fields plus the sparse structure tensor.

    structure[i][j] lists the pairs (k, c_ij^k) of [B_i, B_j] =
    sum_k c_ij^k B_k with c_ij^k != 0, by ascending k, each c canonical
    (int when integral, Fraction otherwise); structure[j][i] is its
    negation and structure[i][i] is (). verify() checks antisymmetry, the
    Jacobi identity and the tensor against the brackets of the basis
    fields.
    """

    basis: Tuple[VectorField, ...]
    structure: Tuple[Tuple[Tuple[Tuple[int, Rational], ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_fields(cls, basis: Sequence[VectorField]) -> "LieAlgebraPresentation":
        """The presentation of any bracket-closed basis: each bracket of
        two basis fields is expanded in the basis over Q
        (`expand_in_fields`). A given basis that is not closed over the
        reals is bad input: ValueError, naming the pair."""
        basis = tuple(basis)
        pairs = list(itertools.combinations(range(len(basis)), 2))
        brackets = [lie_bracket(basis[i], basis[j]) for i, j in pairs]
        upper = {}
        for (i, j), coeffs in zip(pairs, expand_in_fields(brackets, basis)):
            if coeffs is None:
                raise ValueError("the basis is not closed under bracket: "
                                 + _OUTSIDE.format(i, j))
            upper[i, j] = tuple((k, c) for k, c in enumerate(coeffs) if c)
        return cls(basis, _antisymmetric(len(basis), upper))

    def bracket_coords(self, u: Sequence[object], v: Sequence[object]) -> list:
        """Coordinates of [u, v] for coordinate vectors of rationals (ints or
        Fractions, summed from 0), or of polynomials over one variable
        tuple, which give polynomials; each coordinate sums the terms of
        the (sparse) structure constants once."""
        parts: List[list] = [[] for _ in range(self.dim)]
        for ui, row in zip(u, self.structure):
            if not ui:
                continue
            for vj, entry in zip(v, row):
                if not vj or not entry:
                    continue
                prod = ui * vj
                for k, c in entry:
                    parts[k].append(prod * c)
        if isinstance(u[0], MultiPoly):
            return [poly_sum(u[0].vars, p) for p in parts]
        return [sum(p, 0) for p in parts]

    def verify(self) -> None:
        """Check antisymmetry and the Jacobi identity of the tensor, then
        the tensor against the brackets of the basis fields.

        Given antisymmetry, which is checked first, the Jacobi sum
        J(i, j, k) = c_ij^l c_lk^m + c_jk^l c_li^m + c_ki^l c_lj^m is
        alternating in (i, j, k): it changes sign when two indices swap
        and vanishes when two are equal. So the triples i < j < k cover
        it. Each sum runs over the pairs (l, c_ij^l) of the tensor, into
        one coordinate vector per triple.

        Each bracket [B_i, B_j], i < j, of the basis fields is then
        compared with the combination of the basis that the tensor names."""
        dim = self.dim
        structure = self.structure
        for i in range(dim):
            for j in range(i, dim):
                if structure[j][i] != tuple((k, -c) for k, c in structure[i][j]):
                    raise AssertionError("structure tensor is not antisymmetric")
        # Jacobi on the tensor, over the pairs (l, c_ij^l) of each (i, j)
        for i, j, k in itertools.combinations(range(dim), 3):
            total = [0] * dim
            for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                for l, c in structure[a][b]:
                    for m, c2 in structure[l][d]:
                        total[m] += c * c2
            if any(total):
                raise AssertionError("Jacobi identity fails on the tensor")
        # bracket identity against the actual fields
        for i, j in itertools.combinations(range(dim), 2):
            br = lie_bracket(self.basis[i], self.basis[j])
            coords = dict(structure[i][j])
            expect = linear_combination([coords.get(k, 0) for k in range(dim)], self.basis)
            for a, b in zip(br.components, expect.components):
                if a != b:
                    raise AssertionError(f"structure tensor wrong at ({i},{j})")


def expand_in_fields(xs: Sequence[VectorField], basis: Sequence[VectorField]):
    """For each x in xs, its tuple of rational coefficients in the real
    span of the basis, or None if x is outside; one elimination serves
    every x.

    The fields' real coordinate columns (poly.coefficient_columns) run
    over the support of the basis and every x together, so a term of x
    that no basis field has leaves x outside the span, and so does i
    times a basis field."""
    fields = list(basis) + list(xs)
    columns = coefficient_columns([f.components for f in fields])
    n = len(fields) - len(xs)
    return [None if sol is None else tuple(sol)
            for sol in linalg.solve_columns(columns[:n], columns[n:])]


# ------------------------------------------------------- symmetry computation

def affine_symmetry_algebra(surface: Hypersurface) -> LieAlgebraPresentation:
    """All affine fields X with X(P) = c P, as a presentation.

    The rows of the tangency solve come straight off P's terms
    (`poly.tangency_rows`). Its kernel vectors are the basis, each read
    as the field x -> A x + b (A row-major, then b, then c); the
    structure tensor is read off those integer vectors
    (`_affine_structure`)."""
    p = surface.defining
    names = p.vars
    n = len(names)
    if not p.is_real():
        raise ValueError("affine symmetry solve expects a real defining polynomial")
    # one row per monomial of x_j dP/dx_i, dP/dx_i and -P, one column per
    # unknown; the reduced rows, and so the kernel, do not depend on the
    # order of the rows
    kernel = linalg.kernel_basis(tangency_rows(p))
    # component i is vec[n*n + i] + sum_j vec[n*i + j] * x_j, over int entries
    keys = [0] + variable_keys(names)
    fields = []
    for vec in kernel:
        comps = tuple(_poly(names, {k: c for k, c in
                                    zip(keys, [vec[n * n + i]] + vec[n * i:n * i + n]) if c})
                      for i in range(n))
        fields.append(VectorField(tuple(names), comps))
    return LieAlgebraPresentation(tuple(fields), _affine_structure(kernel, n))


def _affine_structure(kernel: Sequence[Sequence[int]], n: int):
    """The structure tensor of the affine fields of these integer vectors
    (A row-major, then b, then the multiplier c; n coordinates), as
    LieAlgebraPresentation.structure holds it.

    With M_X the (n+1) x (n+1) matrix [[A, b], [0, 0]] of X = A x + b,
    [X, Y]_i = X(Y_i) - Y(X_i) is the field of M_Y M_X - M_X M_Y, that is
    (CA - AC, Cb - Ad) for Y = C x + d, with c = 0; for kernel vectors it
    is again one. It is computed on sparse int vectors. Each vector is the
    only one nonzero at some column (every free column of kernel_basis is
    one), so a bracket's coordinate on it is the bracket's entry there
    divided by the vector's, an int when the division is exact
    (`scalars._div`), and only those nonzero coordinates are kept, by
    ascending index. The coordinates recombined must give the bracket
    back exactly; otherwise the span is not closed and the closure
    RuntimeError is raised: the kernel of a tangency solve is always
    closed, so this is a fault of the engine, not of its input (de Graaf,
    Lie Algebras: Theory and Algorithms, ch. 1)."""
    dim = len(kernel)
    sparse = [{col: x for col, x in enumerate(vec) if x} for vec in kernel]
    seen = Counter(col for vec in sparse for col in vec)
    # one column of each vector where no other vector is nonzero:
    # {column: (the vector's index, its entry there)}
    owner = {}
    for a, vec in enumerate(sparse):
        col = next((col for col in vec if seen[col] == 1), None)
        if col is None:
            raise ValueError("a vector is nonzero at no column of its own")
        owner[col] = (a, vec[col])
    # the flat index of entry (r, k) of the augmented matrix, k = n being b
    index = [[n * r + k for k in range(n)] + [n * n + r] for r in range(n)]
    # per vector: its entries (r, k, x), and row k as the pairs (column, x)
    entries, rows = [], []
    for vec in sparse:
        ent, by_row = [], {}
        for col, x in vec.items():
            r, k = divmod(col, n) if col < n * n else (col - n * n, n)
            if r < n:  # not the multiplier
                ent.append((r, k, x))
                by_row.setdefault(r, []).append((k, x))
        entries.append(ent)
        rows.append(by_row)
    upper = {}
    for i, j in itertools.combinations(range(dim), 2):
        w: Dict[int, int] = {}
        for ent, by_row, sign in ((entries[j], rows[i], 1), (entries[i], rows[j], -1)):
            for r, k, x in ent:
                for col, y in by_row.get(k, ()):
                    at = index[r][col]
                    w[at] = w.get(at, 0) + sign * x * y
        w = {col: x for col, x in w.items() if x}
        coords: Dict[int, Rational] = {}
        back: Dict[int, Rational] = {}
        for col, y in w.items():
            if col in owner:
                a, x = owner[col]
                c = coords[a] = _div(y, x)
                for at, x in sparse[a].items():
                    back[at] = back.get(at, 0) + c * x
        if {col: x for col, x in back.items() if x} != w:
            raise RuntimeError(_CLOSURE.format(i, j))
        upper[i, j] = tuple(sorted(coords.items()))
    return _antisymmetric(dim, upper)


def _antisymmetric(dim: int, upper: Mapping[Tuple[int, int], tuple]):
    """The structure tensor with these entries (i, j), i < j, their
    negations at (j, i) and () everywhere else."""
    rows = [[()] * dim for _ in range(dim)]
    for (i, j), entry in upper.items():
        rows[i][j] = entry
        rows[j][i] = tuple((k, -c) for k, c in entry)
    return tuple(tuple(row) for row in rows)


def is_nilpotent(algebra: LieAlgebraPresentation) -> Tuple[bool, Tuple[int, ...]]:
    """Lower central series: returns (nilpotent?, series dimensions).
    Each term is spanned by the brackets of the int unit vectors with
    the previous term's basis, reduced over Q."""
    dim = algebra.dim
    unit = [[int(i == j) for j in range(dim)] for i in range(dim)]
    current = unit
    dims = [dim]
    while True:
        brackets = []
        for e in unit:
            for v in current:
                brackets.append(algebra.bracket_coords(e, v))
        work, pivots = linalg._rref(brackets)
        nxt = work[:len(pivots)]
        dims.append(len(nxt))
        if not nxt:
            return True, tuple(dims)
        if len(nxt) == dims[-2]:
            return False, tuple(dims)
        current = nxt


# ----------------------------------------------------------------- orbit test

class ProbeRecord(Record):
    point: Tuple[Rational, ...]
    rejected: Optional[str]
    rank: Optional[int]
    open_orbit: bool


class OrbitReport(Record):
    algebra_dim: int
    determinant: Optional[MultiPoly]
    all_minors_zero: bool
    probes: Tuple[ProbeRecord, ...]
    verdict: str


def open_orbit_report(algebra: LieAlgebraPresentation, surface: Hypersurface,
                      probes: Sequence[Sequence[Rational]]) -> OrbitReport:
    """Determinant / minor analysis of the algebra's pointwise rank.

    A nonzero value of the first nonzero maximal minor at an accepted probe
    proves rank n there; only the probes where it vanishes, or where there
    is no such minor, take the exact rank (`rank_at`)."""
    n = len(surface.variables)
    fields = list(algebra.basis)
    minor = minors_scan(fields)[0] if algebra.dim >= n else None
    det = minor if algebra.dim == n else None
    all_zero = minor is not None and minor.is_zero()
    records = []
    for point in probes:
        if surface.point_on_surface(point):
            records.append(ProbeRecord(point, "probe lies on the surface", None, False))
            continue
        if minor and minor.eval_at(dict(zip(surface.variables, point))):
            rk = n
        else:
            rk = rank_at(fields, point)
        records.append(ProbeRecord(point, None, rk, rk == n))
    if algebra.dim < n or all_zero:
        verdict = "no open orbits: fields are nowhere of full rank"
    elif records and all(r.open_orbit for r in records if r.rejected is None) \
            and any(r.rejected is None for r in records):
        verdict = "open orbit at every accepted probe"
    else:
        verdict = "mixed or undetermined at the probes"
    return OrbitReport(algebra.dim, det, all_zero, tuple(records), verdict)


# ---------------------------------------------------------- Grassmannian scan

class ChartOutcome(Record):
    pivots: Tuple[int, ...]
    status: str  # "solved" | "empty" | "unresolved"
    free_vars: Tuple[str, ...] = ()
    solution: Tuple[Tuple[str, MultiPoly], ...] = ()
    residual: Tuple[MultiPoly, ...] = ()
    closure_verified: bool = False
    # a solved chart's basis rows over free_vars: 1 at row a's pivot, the
    # solution or the free variable t{a}_{j} at each nonpivot j
    rows: Tuple[Tuple[MultiPoly, ...], ...] = ()


class ScanResult(Record):
    charts: Tuple[ChartOutcome, ...]

    @property
    def unresolved(self) -> Tuple[ChartOutcome, ...]:
        return tuple(c for c in self.charts if c.status == "unresolved")


def subalgebra_scan(algebra: LieAlgebraPresentation, k: int) -> ScanResult:
    """Chart-by-chart closure solve over the Grassmannian of k-planes.

    Each affine chart pins k pivot coordinates to the identity and leaves
    the rest as unknowns; closure of the span under bracket produces
    polynomial equations (`_chart_system`, straight from the structure
    constants), solved by repeated elimination (`_scan_chart`) on their
    bare real term dicts. The pivot of the first equation that has one
    (`poly.linear_pivot`, over its keys of degree 1) is the smallest
    name, in string order, of a variable occurring in a single term
    c * var with c constant. It is substituted into the equations that
    contain it (`poly.subs_each`). A nonzero constant equation makes the
    chart empty; charts whose systems do not successively linearize are
    reported UNRESOLVED with their residual equations. Only a chart that
    ends solved back-substitutes its eliminations, once, into its
    solution and builds its basis rows, which it keeps
    (`ChartOutcome.rows`). A solved chart is rechecked by bracketing those
    rows through the generic `bracket_coords`, independently of how the
    system was built.
    """
    m = algebra.dim
    if not 0 < k < m:
        raise ValueError("k must be strictly between 0 and the algebra dimension")
    charts = []
    for pivots in itertools.combinations(range(m), k):
        charts.append(_scan_chart(algebra, k, pivots))
    return ScanResult(tuple(charts))


def _scan_chart(algebra: LieAlgebraPresentation, k: int, pivots: Tuple[int, ...]) -> ChartOutcome:
    """The outcome of the chart with these pivots.

    The equations are real term dicts {term key: rational} over the
    chart variables from `_chart_system` to the outcome; a polynomial is
    built only for what the outcome keeps: the residuals of an
    UNRESOLVED chart, and a solved chart's eliminations. Each elimination
    is recorded as (var, expr) and substituted into the equations only;
    after it, only the equations it changed are tested for a nonzero
    constant, the term key 0 alone. Most charts end empty or UNRESOLVED
    and read nothing else. A chart that ends solved back-substitutes
    once, last step first, and only then builds its rows over its free
    variables: a later expr never contains an earlier var, so this gives
    the polynomials that substituting every elimination into the
    solution so far would."""
    m = algebra.dim
    nonpivots = [j for j in range(m) if j not in pivots]
    tvars = tuple(f"t{a}_{j}" for a in range(k) for j in nonpivots)

    # each equation with a mark: True once linear_pivot found no pivot in
    # it; an equation that elimination leaves untouched keeps its mark
    eqs = [(e, False) for e in _chart_system(algebra, pivots, tvars)]
    # every equation is nonzero, so one with the key 0 alone is a nonzero constant
    if any(len(e) == 1 and 0 in e for e, _ in eqs):
        return ChartOutcome(pivots, "empty")
    steps: List[Tuple[str, Terms]] = []
    while eqs:
        pick = None
        for n, (e, stuck) in enumerate(eqs):
            if not stuck:
                pick = linear_pivot(e, tvars)
                if pick:
                    break
                eqs[n] = (e, True)
        if pick is None:
            return ChartOutcome(pivots, "unresolved",
                                residual=tuple(_poly(tvars, e) for e, _ in eqs))
        var, key, c = pick
        # e = c * var + rest = 0 solves to var = -rest / c
        expr = {t: _div(-x, c) for t, x in e.items() if t != key}
        steps.append((var, expr))
        # subs_each returns an equation without var as it is, and only a
        # changed equation can have become a nonzero constant
        del eqs[n]
        left = []
        for (q, stuck), new in zip(eqs, subs_each([q for q, _ in eqs], tvars, var, expr)):
            if new is not q:
                if not new:
                    continue
                if len(new) == 1 and 0 in new:
                    return ChartOutcome(pivots, "empty")
                q, stuck = new, False
            left.append((q, stuck))
        eqs = left

    # no expr contains its own or an earlier variable, so one substitution
    # of the later solutions, last step first, leaves each in the free
    # variables
    solution: Dict[str, MultiPoly] = {}
    for var, expr in reversed(steps):
        expr = _poly(tvars, expr)
        later = {v: solution[v] for v in expr.used_vars() if v in solution}
        solution[var] = expr.subs_poly(later) if later else expr
    # every variable left unsolved stands in its own row entry
    free = tuple(sorted(v for v in tvars if v not in solution))
    entries = {v: _poly(free, {unit: 1}) for v, unit in zip(free, variable_keys(free))}
    entries.update((v, expr.with_vars(free)) for v, expr in solution.items())
    rows = tuple(tuple(MultiPoly.const(free, int(j == p)) if j in pivots else entries[f"t{a}_{j}"]
                       for j in range(m))
                 for a, p in enumerate(pivots))
    # independent closure recheck on the solved family
    verified = all(e.is_zero() for e in _residuals(algebra, pivots, free, rows))
    return ChartOutcome(pivots, "solved", free, tuple(sorted(solution.items())), (),
                        verified, rows)


def _residuals(algebra: LieAlgebraPresentation, pivots: Tuple[int, ...],
               tvars: Tuple[str, ...], rows: Sequence[Sequence[MultiPoly]]) -> List[MultiPoly]:
    """The nonzero closure residuals w_j - sum_q w_{p_q} * rows[q][j] of
    w = [rows[a], rows[b]], for a < b and the nonpivot columns j in order,
    through the generic bracket_coords on polynomial rows."""
    nonpivots = [j for j in range(algebra.dim) if j not in pivots]
    eqs = []
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            w = algebra.bracket_coords(rows[a], rows[b])
            neg_mu = [-w[p] for p in pivots]
            for j in nonpivots:
                r = poly_sum(tvars, [w[j]] + [mu * row[j] for mu, row in
                                              zip(neg_mu, rows) if mu and row[j]])
                if not r.is_zero():
                    eqs.append(r)
    return eqs


def _chart_system(algebra: LieAlgebraPresentation, pivots: Tuple[int, ...],
                  tvars: Tuple[str, ...]) -> List[Terms]:
    """The closure equations of the chart with these pivots, as real term
    dicts over tvars: those of `_residuals` of its rows, the same
    equations in the same order, read straight off the structure
    constants (de Graaf, Lie Algebras: Theory and Algorithms, ch. 1).

    Row a is e_{p_a} + sum_j t_{a,j} e_j over the nonpivots j, so each
    coordinate of the bracket w of rows a < b is a sum of c_ij^k * u_i * v_j,
    over the pairs (k, c_ij^k) of the sparse tensor, with every u_i, v_j
    equal to 1 or one variable, and each residual
    w_j - sum_q w_{p_q} * t_{q,j} has degree at most 3. A monomial is keyed
    by its term key over tvars, the sum of its variables' keys
    (`poly.variable_keys`), and the coefficients are summed as ints and
    Fractions, each surviving sum put in canonical form."""
    structure = algebra.structure
    nonpivots = [j for j in range(algebra.dim) if j not in pivots]
    width = len(nonpivots)
    units = variable_keys(tvars)
    # row a as (coordinate, key of its entry): 1 at the pivot, t_{a,j} at j
    rows = [[(p, 0)] + [(j, units[a * width + col]) for col, j in enumerate(nonpivots)]
            for a, p in enumerate(pivots)]
    eqs = []
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            w: List[Dict[int, Rational]] = [{} for _ in range(algebra.dim)]
            for i, ui in rows[a]:
                srow = structure[i]
                for j, vj in rows[b]:
                    key = ui + vj
                    for k, c in srow[j]:
                        wk = w[k]
                        wk[key] = wk.get(key, 0) + c
            for col, j in enumerate(nonpivots):
                r = dict(w[j])
                for q, p in enumerate(pivots):
                    t = units[q * width + col]
                    for key, c in w[p].items():
                        if c:
                            r[key + t] = r.get(key + t, 0) - c
                terms = {key: _canon(c) for key, c in r.items() if c}
                if terms:
                    eqs.append(terms)
    return eqs


def chart_coordinates_of_subspace(reduced: Sequence[Sequence[Rational]]):
    """(pivot columns, value map for the corresponding chart variables) of
    a subspace basis in RREF."""
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


def scan_covers_subspace(algebra: LieAlgebraPresentation, scan: ScanResult,
                         rows: Sequence[Sequence[Rational]]) -> bool:
    """True when the span of the rational rows is bracket-closed, tested
    directly by one rank, and the scan's outcome for its chart contains it.
    An UNRESOLVED chart holds only its residuals, which the equations it
    eliminated do not constrain, so its outcome alone cannot refuse a
    subspace that is not closed."""
    reduced = linalg.rref_rows(rows)
    brackets = [algebra.bracket_coords(u, v) for u, v in itertools.combinations(reduced, 2)]
    if len(linalg.rref_rows(reduced + brackets)) != len(reduced):
        return False
    pivots, values = chart_coordinates_of_subspace(reduced)
    for chart in scan.charts:
        if chart.pivots != pivots:
            continue
        if chart.status == "empty":
            return False
        if chart.status == "unresolved":
            return all(not e.eval_at({v: values.get(v, ZERO) for v in e.vars})
                       for e in chart.residual)
        solved = dict(chart.solution)
        for name, value in values.items():
            if name in solved:
                got = solved[name].eval_at({v: values.get(v, ZERO) for v in solved[name].vars})
                if got != value:
                    return False
        return True
    return False


# ------------------------------------------------------- transitivity witness

class TransitivityWitness(Record):
    """Parameter assignment sending a fixed base point to a symbolic target.

    The assignment maps each family parameter to a rational function of
    the target coordinates, possibly involving an adjoined radical from
    the relation context."""

    family: "object"  # MapFamily; typed loosely to avoid a module cycle
    target_vars: Tuple[str, ...]
    assignment: Mapping[str, RationalFunction]
    context: RelationContext
    name: str = ""

    def __post_init__(self):
        over = self.target_vars + self.context.adjoined_symbols()
        for sym, square in self.context.radicals:
            foreign = [v for v in square.vars if v not in over]
            if foreign:
                raise ValueError(f"the radicand of {sym!r} names the variables {foreign}, "
                                 f"outside the target variables {self.target_vars}")


def verify_transitivity_witness(witness: TransitivityWitness,
                                base: Sequence[Rational]) -> bool:
    """Exact check that family(params(target)) maps `base` to the target."""
    fam = witness.family
    full_assignment: Dict[str, object] = dict(zip(fam.variables, base))
    for p in fam.params:
        if p not in witness.assignment:
            raise ValueError(f"witness assigns no value to parameter {p!r}")
        full_assignment[p] = witness.assignment[p]
    ctx = witness.context
    for i, comp in enumerate(fam.components):
        image = substitute(comp, full_assignment)
        num = ctx.reduce_poly(image.num)
        den = ctx.reduce_poly(image.den)
        if den.is_zero():
            raise ValueError("denominator of a parameter assignment reduces to zero")
        target = MultiPoly.var(num.vars, witness.target_vars[i])
        if not ctx.reduce_poly(num - target * den).is_zero():
            return False
    return True


# ------------------------------------------------- nil-ball obstruction check

class ObstructionCertificate(Record):
    passed: bool
    conditions: Tuple[Tuple[str, bool, str], ...]
    induction_depth: int
    induction_ok: bool


def non_nilpotent_transitive_obstruction(algebra: LieAlgebraPresentation,
                                         iso: Sequence[Sequence[Rational]],
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
        return [int(j == i) for j in range(dim)]

    def in_s(vec) -> bool:
        return all(not vec[i] for i in outside)

    conditions: List[Tuple[str, bool, str]] = []

    z1_row = algebra.structure[z1_idx]
    ok_a = z1_row[z4_idx] == ((z4_idx, -1),)
    conditions.append(("a: [Z1, Z4] = -Z4", ok_a, "" if ok_a else f"got {z1_row[z4_idx]}"))

    bad = [s for s in sorted(s_set) if any(k not in s_set for k, _ in z1_row[s])]
    conditions.append(("b: [Z1, S] inside S", not bad, f"escapes at {bad}" if bad else ""))

    iso_vecs = [[rat(x) for x in v] for v in iso]
    bad = [n for n, w in enumerate(iso_vecs)
           if not in_s(algebra.bracket_coords(w, unit(z4_idx)))]
    conditions.append(("c: [iso, Z4] inside S", not bad, f"escapes for iso[{bad}]" if bad else ""))

    bad_pairs = []
    for n, w in enumerate(iso_vecs):
        for s in sorted(s_set):
            if not in_s(algebra.bracket_coords(w, unit(s))):
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
            if nxt[z4_idx] != 1 or not nxt[z1_idx].is_zero():
                induction_ok = False
                break
            current = nxt

    return ObstructionCertificate(all_ok and induction_ok, tuple(conditions), depth, induction_ok)


# ----------------------------------------------------------- complex lines

class ComplexLine(Record):
    point: Tuple[GaussianRational, ...]
    direction: Tuple[GaussianRational, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.point) != len(self.direction):
            raise ValueError(f"the line's point has {len(self.point)} coordinates, "
                             f"its direction {len(self.direction)}")


class LineVerdict(Record):
    verdict: str  # "contained" | "not_contained" | "unresolved"
    value: Optional[Rational]
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
