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

from .linalg import det_exact, rref_rows
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
    """sum_i coeffs[i] * fields[i]; zero coefficients are skipped."""
    base = fields[0]
    nonzero = [(c, f) for c, f in zip(coeffs, fields) if c]
    return VectorField(base.variables, tuple(
        poly_sum(base.carrier, [f.components[i] * c for c, f in nonzero])
        for i in range(len(base.variables))))


def rank_at(fields: Sequence[VectorField], point: Sequence[object]) -> int:
    """Exact rank of the evaluated component matrix at a point."""
    base = fields[0]
    if len(point) != len(base.variables):
        raise ValueError("point dimension does not match field variables")
    assignment = dict(zip(base.variables, point))
    # rows are fields; rank is the same either way
    return len(rref_rows([f.evaluate(assignment) for f in fields]))


def minors_scan(fields: Sequence[VectorField]) -> List[MultiPoly]:
    """The first nonzero maximal minor of the n x m component matrix
    (column j holds the components of fields[j]; m >= n), or zero when
    every maximal minor vanishes identically (see linalg.det_exact)."""
    if not fields:
        raise ValueError("no fields supplied")
    base = fields[0]
    for f in fields:
        if f.variables != base.variables or f.carrier != base.carrier:
            raise ValueError("fields must share variables")
    matrix = [[f.components[i] for f in fields] for i in range(len(base.variables))]
    # a list, not a bare polynomial: perfbench/spans.py wraps this and records len(result)
    return [det_exact(matrix)]
