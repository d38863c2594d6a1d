"""Vector fields with polynomial components.

A field X = sum_i X_i d/dx_i is stored as an ordered variable tuple plus
one component polynomial per variable. Component polynomials may live
over a superset of the field variables; the extra names act as formal
parameters and are never differentiated. Holomorphic fields are plain
fields over complex coordinate names whose components are checked to be
free of conjugated variables.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Sequence, Tuple

from .linalg import _rref, complex_block, det_exact
from .poly import MultiPoly, poly_sum
from .record import Record


# the pairs (j, dp/dx_j) with a nonzero derivative, in variable order
Gradient = Tuple[Tuple[int, MultiPoly], ...]


class VectorField(Record):
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

    @cached_property
    def jacobian(self) -> Tuple[Gradient, ...]:
        """jacobian[i] is the gradient of X_i, computed once per field."""
        return tuple(tuple((j, d) for j, d in enumerate(comp.diff(v) for v in self.variables) if d)
                     for comp in self.components)

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
    if x.variables != y.variables or x.carrier != y.carrier:
        raise ValueError("variable mismatch in Lie bracket")
    # [X, Y]_i = X(Y_i) - Y(X_i), with the derivatives read from the jacobians
    return VectorField(x.variables, tuple(_along(x, dy) - _along(y, dx)
                                          for dx, dy in zip(x.jacobian, y.jacobian)))


def _along(field: VectorField, gradient: Gradient) -> MultiPoly:
    """The derivative sum_j X_j dp/dx_j of some p along the field, from
    the gradient of p."""
    comps = field.components
    return poly_sum(field.carrier, [comps[j] * d for j, d in gradient if comps[j]])


def linear_combination(coeffs: Sequence[object], fields: Sequence[VectorField]) -> VectorField:
    """sum_i coeffs[i] * fields[i]; zero coefficients are skipped."""
    base = fields[0]
    nonzero = [(c, f) for c, f in zip(coeffs, fields) if c]
    return VectorField(base.variables, tuple(
        poly_sum(base.carrier, [f.components[i] * c for c, f in nonzero])
        for i in range(len(base.variables))))


def rank_at(fields: Sequence[VectorField], point: Sequence[object]) -> int:
    """Exact rank of the evaluated component matrix at a point; 0 for no
    fields. A matrix of real values is eliminated over Q, any other as
    its real block form (linalg.complex_block), of twice its rank."""
    if not fields:
        return 0
    base = fields[0]
    if len(point) != len(base.variables):
        raise ValueError("point dimension does not match field variables")
    values = dict(zip(base.variables, point))
    # rows are fields; rank is the same either way
    rows = [[c.eval_at(values) for c in f.components] for f in fields]
    if any(x.im for row in rows for x in row):
        return len(_rref(complex_block(rows))[1]) // 2
    return len(_rref([[x.re for x in row] for row in rows])[1])


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
