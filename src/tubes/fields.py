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
from .poly import MultiPoly, poly_sum, product_sum, values_at
from .record import Record
from .scalars import _gr


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
    """[X, Y], whose component i is X(Y_i) - Y(X_i) = sum_j X_j dY_i/dx_j -
    sum_j Y_j dX_i/dx_j, with the derivatives read from the cached
    jacobians. Each component is one `poly.product_sum` of those pairs,
    for real and complex components alike."""
    if x.variables != y.variables or x.carrier != y.carrier:
        raise ValueError("variable mismatch in Lie bracket")
    xs, ys, carrier = x.components, y.components, x.carrier
    return VectorField(x.variables, tuple(
        product_sum(carrier, [(xs[j], d) for j, d in dy], [(ys[j], d) for j, d in dx])
        for dx, dy in zip(x.jacobian, y.jacobian)))


def linear_combination(coeffs: Sequence[object], fields: Sequence[VectorField]) -> VectorField:
    """sum_i coeffs[i] * fields[i]; zero coefficients are skipped."""
    base = fields[0]
    nonzero = [(c, f) for c, f in zip(coeffs, fields) if c]
    return VectorField(base.variables, tuple(
        poly_sum(base.carrier, [f.components[i] * c for c, f in nonzero])
        for i in range(len(base.variables))))


def rank_at(fields: Sequence[VectorField], point: Sequence[object]) -> int:
    """Exact rank of the evaluated component matrix at a point; 0 for no
    fields. Every component is evaluated by one `poly.values_at`, whose
    power tables all the fields share. A matrix of real values is
    eliminated over Q, any other as its real block form
    (linalg.complex_block), of twice its rank. Raises ValueError when the
    point's dimension is not the fields', or when a component uses a
    parameter the point does not give."""
    if not fields:
        return 0
    base = fields[0]
    n = len(base.variables)
    if len(point) != n:
        raise ValueError("point dimension does not match field variables")
    values = values_at([c for f in fields for c in f.components], dict(zip(base.variables, point)))
    # rows are fields, as (re, im) pairs; rank is the same either way
    rows = [values[at:at + n] for at in range(0, len(values), n)]
    if any(im for _, im in values):
        return len(_rref(complex_block([[_gr(*z) for z in row] for row in rows]))[1]) // 2
    return len(_rref([[re for re, _ in row] for row in rows])[1])


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
