"""Vector fields with polynomial components.

A field X = sum_i X_i d/dx_i is stored as an ordered variable tuple plus
one component polynomial per variable. Component polynomials may live
over a superset of the field variables; the extra names act as formal
parameters and are never differentiated. Holomorphic fields are plain
fields over complex coordinate names whose components are checked to be
free of conjugated variables; realification doubles the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .linalg import det_exact, maximal_minors, rref_rows, solve_columns
from .poly import MultiPoly, _poly, poly_sum
from .scalars import I, ONE, ZERO, GaussianRational


@dataclass(frozen=True)
class VectorField:
    variables: Tuple[str, ...]
    components: Tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.components) != len(self.variables):
            raise ValueError("component count must match variable count")
        carrier = self.components[0].vars if self.components else ()
        for comp in self.components:
            if comp.vars != carrier:
                raise ValueError("all components must share one variable tuple")
        missing = [v for v in self.variables if v not in carrier]
        if missing:
            raise ValueError(f"components do not mention field variables {missing}")

    @property
    def carrier(self) -> Tuple[str, ...]:
        return self.components[0].vars

    @classmethod
    def from_dict(cls, variables: Sequence[str], comps: Mapping[str, MultiPoly],
                  carrier: Optional[Sequence[str]] = None) -> "VectorField":
        variables = tuple(variables)
        carrier = tuple(carrier) if carrier else variables
        filled = []
        for v in variables:
            c = comps.get(v)
            filled.append(c.with_vars(carrier) if c is not None else MultiPoly.zero(carrier))
        return cls(variables, tuple(filled))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def apply(self, p: MultiPoly) -> MultiPoly:
        """Directional derivative sum_i X_i dp/dx_i."""
        if p.vars != self.carrier:
            raise ValueError(f"variable mismatch: field carrier {self.carrier} vs {p.vars}")
        products = []
        for name, comp in zip(self.variables, self.components):
            d = p.diff(name)
            if not d.is_zero() and not comp.is_zero():
                products.append(comp * d)
        return poly_sum(p.vars, products)

    def bracket(self, other: "VectorField") -> "VectorField":
        if self.variables != other.variables or self.carrier != other.carrier:
            raise ValueError("variable mismatch in Lie bracket")
        comps = tuple(self.apply(yc) - other.apply(xc)
                      for xc, yc in zip(self.components, other.components))
        return VectorField(self.variables, comps)

    def scale(self, c) -> "VectorField":
        return VectorField(self.variables, tuple(comp * c for comp in self.components))

    def add(self, other: "VectorField") -> "VectorField":
        if self.variables != other.variables or self.carrier != other.carrier:
            raise ValueError("variable mismatch in field sum")
        return VectorField(self.variables,
                           tuple(a + b for a, b in zip(self.components, other.components)))

    def evaluate(self, point: Mapping[str, object]) -> List[GaussianRational]:
        return [c.eval_at(point) for c in self.components]

    def __str__(self) -> str:
        bits = [f"({c}) d/d{v}" for v, c in zip(self.variables, self.components) if not c.is_zero()]
        return " + ".join(bits) if bits else "0"


class HoloField(VectorField):
    """Vector field in holomorphic coordinates only (no conjugated names)."""

    def __post_init__(self):
        super().__post_init__()
        if self.carrier != self.variables:
            raise ValueError("holomorphic fields may not carry extra parameters")


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    return x.bracket(y)


def linear_combination(coeffs: Sequence[object], fields: Sequence[VectorField]) -> VectorField:
    out = fields[0].scale(coeffs[0])
    for c, f in zip(coeffs[1:], fields[1:]):
        out = out.add(f.scale(c))
    return out


def _default_real_names(name: str) -> Tuple[str, str]:
    if len(name) > 1 and name[1:].isdigit():
        return "x" + name[1:], "y" + name[1:]
    return "re_" + name, "im_" + name


def realify(z: VectorField, names: Optional[Mapping[str, Tuple[str, str]]] = None) -> VectorField:
    """Realify a holomorphic field: z_j = x_j + i y_j gives a field on 2n
    real coordinates with x-components Re f_j and y-components Im f_j."""
    if z.carrier != z.variables:
        raise ValueError("realify expects a field without extra parameters")
    if names is None:
        names = {v: _default_real_names(v) for v in z.variables}
    re_names = [names[v][0] for v in z.variables]
    im_names = [names[v][1] for v in z.variables]
    real_vars = tuple(re_names + im_names)
    images = {
        v: MultiPoly.var(real_vars, names[v][0]) + MultiPoly.var(real_vars, names[v][1]) * I
        for v in z.variables
    }
    re_comps: List[MultiPoly] = []
    im_comps: List[MultiPoly] = []
    for comp in z.components:
        g = comp.subs_poly(images)
        re_comps.append(MultiPoly(real_vars, {e: c.re for e, c in g.terms.items()}))
        im_comps.append(MultiPoly(real_vars, {e: c.im for e, c in g.terms.items()}))
    return VectorField(real_vars, tuple(re_comps + im_comps))


@dataclass(frozen=True)
class TangencyCertificate:
    multiplier: MultiPoly
    derivative: MultiPoly  # X(P), stored for reporting


def tangency_multiplier(x: VectorField, p: MultiPoly) -> Optional[TangencyCertificate]:
    """Find Q with X(P) = Q * P and deg Q <= max(0, deg X(P) - deg P).

    Returns None when no such polynomial multiplier exists, which means
    the field is not tangent to {P = 0} in the multiplier sense.
    """
    if p.is_zero():
        raise ValueError("tangency against the zero polynomial is undefined")
    xp = x.apply(p)
    if xp.is_zero():
        return TangencyCertificate(MultiPoly.zero(p.vars), xp)
    bound = max(0, xp.total_degree() - p.total_degree())
    monomials = _monomials_up_to(p.vars, bound)
    columns = []
    support: Dict[Tuple[int, ...], int] = {}
    products = []
    for mono in monomials:
        prod = _poly(p.vars, {mono: ONE}) * p
        products.append(prod)
        for e in prod.terms:
            support.setdefault(e, len(support))
    for e in xp.terms:
        support.setdefault(e, len(support))
    nrows = len(support)
    for prod in products:
        col = [ZERO] * nrows
        for e, c in prod.terms.items():
            col[support[e]] = c
        columns.append(col)
    target = [ZERO] * nrows
    for e, c in xp.terms.items():
        target[support[e]] = c
    solution = solve_columns(columns, target)
    if solution is None:
        return None
    q = _poly(p.vars, {mono: c for mono, c in zip(monomials, solution) if c})
    return TangencyCertificate(q, xp)


def _monomials_up_to(variables: Tuple[str, ...], degree: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], degree, len(variables))
    out.sort(key=lambda e: (sum(e), e))
    return out


def component_matrix(fields: Sequence[VectorField]) -> List[List[MultiPoly]]:
    """n x m matrix whose columns are the fields' components."""
    if not fields:
        raise ValueError("no fields supplied")
    base = fields[0]
    for f in fields:
        if f.variables != base.variables or f.carrier != base.carrier:
            raise ValueError("fields must share variables")
    n = len(base.variables)
    return [[f.components[i] for f in fields] for i in range(n)]


def rank_at(fields: Sequence[VectorField], point: Sequence[object]) -> int:
    """Exact rank of the evaluated component matrix at a point."""
    base = fields[0]
    if len(point) != len(base.variables):
        raise ValueError("point dimension does not match field variables")
    assignment = dict(zip(base.variables, point))
    # rows are fields; rank is the same either way
    return len(rref_rows([f.evaluate(assignment) for f in fields]))


def minors_scan(fields: Sequence[VectorField]) -> List[MultiPoly]:
    """All maximal minors of the component matrix, as polynomials."""
    matrix = component_matrix(fields)
    n = len(matrix)
    m = len(fields)
    if m < n:
        matrix_t = [[matrix[i][j] for i in range(n)] for j in range(m)]
        return maximal_minors(matrix_t)
    return maximal_minors(matrix)


def fields_determinant(fields: Sequence[VectorField]) -> MultiPoly:
    matrix = component_matrix(fields)
    if len(matrix) != len(fields):
        raise ValueError("determinant needs exactly n fields in n variables")
    return det_exact(matrix)
