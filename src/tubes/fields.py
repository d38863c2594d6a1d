"""Vector fields with polynomial components.

A field X = sum_i X_i d/dx_i is stored as an ordered variable tuple plus
one component polynomial per variable. Component polynomials may live
over a superset of the field variables; the extra names act as formal
parameters and are never differentiated. Holomorphic fields are plain
fields over complex coordinate names whose components are checked to be
free of conjugated variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from .linalg import maximal_minors, rref_rows
from .poly import MultiPoly, poly_sum
from .scalars import GaussianRational


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

