"""Oracles of the test suite that the kernel reference does not replace.

The kernels of `poly`, `linalg` and `fields` are judged by
tests/reference.py, a ring of its own that imports nothing from tubes.
What stays here, and why:
- `dense_structure` and `jacobi_holds`: the Jacobi identity summed densely
  over every index, in plain numbers, against the engine's sparse check.
- `tangency_multiplier` with `apply_field`: a field's tangency to a
  surface certified by solving X(P) = Q P for a polynomial multiplier Q
  by the reference's Gauss-Jordan elimination, not through
  tubes.linalg and the kernel solve of affine_symmetry_algebra.
- `realify`: a holomorphic field as a real one, for claims about real
  coordinates that the reference ring has no notion of.
- `first_written_pivot`, `chart_rows_from_solution` and
  `frozen_scan_chart`: the scan's frozen routes. They pin today's chart
  layout, which the scan of Schubert cells (ROADMAP item 3) changes, and
  are replaced together with it.
- `str_terms`: printing has no independent mathematical reference, so
  `MultiPoly.__str__` is checked against the term loop it replaced.
- `boxed_terms`, `random_poly` and `canonical`: a boxed view of the public
  `sorted_terms`, a seeded generator, and the engine's canonical form of
  a stored rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from tubes.fields import VectorField
from tubes.poly import MultiPoly
from tubes.scalars import I, ONE, GaussianRational
from tubes.symmetry import ChartOutcome, _residuals

from reference import rref


def dense_structure(structure) -> List[List[List]]:
    """The dense dim x dim x dim lists of a sparse structure tensor, whose
    entry (i, j) lists the pairs (k, c_ij^k) with c_ij^k != 0; every
    constant it omits is 0."""
    dim = len(structure)
    dense = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, row in enumerate(structure):
        for j, entry in enumerate(row):
            for k, c in entry:
                dense[i][j][k] = c
    return dense


def jacobi_holds(structure) -> bool:
    """The Jacobi identity of a dense structure tensor, summed over all
    dim**5 index tuples."""
    dim = len(structure)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for m in range(dim):
                    total = Fraction(0)
                    for l in range(dim):
                        total += structure[i][j][l] * structure[l][k][m]
                        total += structure[j][k][l] * structure[l][i][m]
                        total += structure[k][i][l] * structure[l][j][m]
                    if total:
                        return False
    return True


def boxed_terms(p: MultiPoly) -> List[Tuple[Tuple[int, ...], GaussianRational]]:
    """p.sorted_terms() with each coefficient boxed from its two parts."""
    return [(e, GaussianRational(re, im)) for e, re, im in p.sorted_terms()]


def first_written_pivot(e: MultiPoly):
    """The scan's pivot pick as first written, frozen: over
    sorted(e.used_vars()), the first variable of degree 1 in e whose
    derivative is a constant; returns (variable, that constant) or None.
    Kept, as the two below, while it pins today's chart layout: the scan of
    Schubert cells (ROADMAP item 3) changes that layout and replaces them."""
    for var in sorted(e.used_vars()):
        if e.degree(var) == 1:
            coeff = e.diff(var)
            if not coeff.used_vars():
                return var, coeff.const_coeff()
    return None


def chart_rows_from_solution(chart, algebra_dim: int) -> List[List[MultiPoly]]:
    """A solved chart's basis rows rebuilt from its solution, as
    ChartOutcome.basis_coords did before the scan kept the rows it solved,
    frozen, over chart.free_vars: row a holds 1 at its pivot and, at each
    nonpivot j, the solution of t{a}_{j} or that free variable itself.
    Kept with the scan's chart layout (ROADMAP item 3)."""
    tvars = chart.free_vars
    solved = dict(chart.solution)
    rows = []
    nonpivots = [j for j in range(algebra_dim) if j not in chart.pivots]
    for a in range(len(chart.pivots)):
        row = [MultiPoly.zero(tvars) for _ in range(algebra_dim)]
        row[chart.pivots[a]] = MultiPoly.const(tvars, 1)
        for j in nonpivots:
            name = f"t{a}_{j}"
            if name in solved:
                row[j] = solved[name].with_vars(tvars)
            else:
                row[j] = MultiPoly.var(tvars, name)
        rows.append(row)
    return rows


def frozen_scan_chart(algebra, k: int, pivots: Tuple[int, ...]):
    """The ChartOutcome of one Grassmannian chart by the scan loop on
    MultiPoly equations that symmetry._scan_chart ran before it worked on
    bare term dicts, frozen. Its equations are the generic closure
    residuals of the chart rows (symmetry._residuals), its pivot pick is
    first_written_pivot, and each elimination goes into every equation
    that uses its variable by MultiPoly.subs_poly. Kept with the scan's
    chart layout (ROADMAP item 3)."""
    m = algebra.dim
    nonpivots = [j for j in range(m) if j not in pivots]
    tvars = tuple(f"t{a}_{j}" for a in range(k) for j in nonpivots)
    chart_rows = [[MultiPoly.const(tvars, int(j == p)) if j in pivots
                   else MultiPoly.var(tvars, f"t{a}_{j}") for j in range(m)]
                  for a, p in enumerate(pivots)]
    eqs = [(e, False) for e in _residuals(algebra, pivots, tvars, chart_rows)]
    if any(e.degree() == 0 for e, _ in eqs):
        return ChartOutcome(pivots, "empty")
    steps = []
    while eqs:
        pick = None
        for n, (e, stuck) in enumerate(eqs):
            if not stuck:
                pick = first_written_pivot(e)
                if pick:
                    break
                eqs[n] = (e, True)
        if pick is None:
            return ChartOutcome(pivots, "unresolved", residual=tuple(e for e, _ in eqs))
        var, c = pick
        expr = (e - MultiPoly.var(tvars, var) * c) * (-ONE / c)
        steps.append((var, expr))
        del eqs[n]
        left = []
        for q, stuck in eqs:
            if var in q.used_vars():
                q = q.subs_poly({var: expr})
                if not q:
                    continue
                if q.degree() == 0:
                    return ChartOutcome(pivots, "empty")
                stuck = False
            left.append((q, stuck))
        eqs = left
    solution = {}
    for var, expr in reversed(steps):
        later = {v: solution[v] for v in expr.used_vars() if v in solution}
        solution[var] = expr.subs_poly(later) if later else expr
    free = tuple(sorted(v for v in tvars if v not in solution))
    entries = {v: MultiPoly.var(free, v) for v in free}
    entries.update((v, expr.with_vars(free)) for v, expr in solution.items())
    rows = tuple(tuple(MultiPoly.const(free, int(j == p)) if j in pivots else entries[f"t{a}_{j}"]
                       for j in range(m))
                 for a, p in enumerate(pivots))
    verified = all(e.is_zero() for e in _residuals(algebra, pivots, free, rows))
    return ChartOutcome(pivots, "solved", free, tuple(sorted(solution.items())), (),
                        verified, rows)


def str_terms(p: MultiPoly) -> str:
    """MultiPoly.__str__ before it read variables off the packed keys,
    frozen: every term's exponent tuple zipped against all of p.vars.
    Kept because printing has no independent mathematical reference."""
    if p.is_zero():
        return "0"
    bits = []
    for e, c in boxed_terms(p):
        mono = "*".join(
            f"{v}^{k}" if k > 1 else v
            for v, k in zip(p.vars, e) if k
        )
        if not mono:
            bits.append(str(c))
        elif c == ONE:
            bits.append(mono)
        else:
            bits.append(f"{c}*{mono}")
    return " + ".join(bits).replace("+ -", "- ")


def random_poly(rng, variables, max_degree=2, max_terms=4, complex_coeffs=False) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(variables))] += 1
        num = rng.randint(-6, 6)
        den = rng.randint(1, 3)
        if complex_coeffs:
            coeff = GaussianRational(Fraction(num, den),
                                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        else:
            coeff = GaussianRational(Fraction(num, den))
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), GaussianRational(0)) + coeff
    return MultiPoly(variables, {e: c for e, c in terms.items() if c})


def realify(z: VectorField) -> VectorField:
    """Realify a holomorphic field: z_j = x_j + i y_j gives a field on 2n
    real coordinates with x-components Re f_j and y-components Im f_j.
    A name zK splits into xK, yK and any other name v into re_v, im_v."""
    if z.carrier != z.variables:
        raise ValueError("realify expects a field without extra parameters")
    names = {v: ("x" + v[1:], "y" + v[1:]) if len(v) > 1 and v[1:].isdigit()
             else ("re_" + v, "im_" + v) for v in z.variables}
    real_vars = tuple([names[v][0] for v in z.variables] + [names[v][1] for v in z.variables])
    images = {v: MultiPoly.var(real_vars, re) + MultiPoly.var(real_vars, im) * I
              for v, (re, im) in names.items()}
    re_comps, im_comps = [], []
    for comp in z.components:
        g = comp.subs_poly(images)
        terms = g.sorted_terms()
        re_comps.append(MultiPoly(real_vars, {e: re for e, re, _ in terms}))
        im_comps.append(MultiPoly(real_vars, {e: im for e, _, im in terms}))
    return VectorField(real_vars, tuple(re_comps + im_comps))


def _monomials_up_to(nvars: int, degree: int) -> List[Tuple[int, ...]]:
    if nvars == 0:
        return [()]
    return [(k,) + rest for k in range(degree + 1)
            for rest in _monomials_up_to(nvars - 1, degree - k)]


def apply_field(x: VectorField, p: MultiPoly) -> MultiPoly:
    """The derivative sum_i X_i dp/dx_i of p along x, one product per
    variable; lie_bracket reads cached jacobians instead."""
    if p.vars != x.carrier:
        raise ValueError(f"variable mismatch: field carrier {x.carrier} vs {p.vars}")
    total = MultiPoly.zero(p.vars)
    for name, comp in zip(x.variables, x.components):
        total = total + comp * p.diff(name)
    return total


def tangency_multiplier(x: VectorField, p: MultiPoly) -> Optional[MultiPoly]:
    """Find Q with X(P) = Q * P and deg Q <= max(0, deg X(P) - deg P).

    Returns None when no such polynomial multiplier exists, which means
    the field is not tangent to {P = 0} in the multiplier sense.
    """
    if not p:
        raise ValueError("tangency against the zero polynomial is undefined")
    xp = apply_field(x, p)
    monomials = _monomials_up_to(len(p.vars), max(0, xp.degree() - p.degree()))
    products = [MultiPoly(p.vars, {mono: 1}) * p for mono in monomials]
    # Q = sum (x_k + i y_k) m_k for real x, y: the unknowns weigh the products
    # m_k P and i m_k P, read as the real and imaginary parts of their coefficients
    support = {}
    for q in products + [xp]:
        for e, _, _ in q.sorted_terms():
            support.setdefault(e, len(support))

    def column(q):
        col = [Fraction(0)] * (2 * len(support))
        for e, re, im in q.sorted_terms():
            col[2 * support[e]], col[2 * support[e] + 1] = re, im
        return col

    columns = [column(q) for q in products] + [column(q * I) for q in products]
    rows, pivots = rref(list(zip(*columns, column(xp))))
    n = len(columns)
    if n in pivots:
        return None
    weights = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        weights[c] = row[n]
    return MultiPoly(p.vars, {mono: GaussianRational(x, y) for mono, x, y
                              in zip(monomials, weights, weights[len(monomials):])})


def canonical(values) -> bool:
    """Every value is a nonzero int, or a Fraction that is not an integer:
    the one form in which the engine stores a rational."""
    return all(type(c) is int and c or type(c) is Fraction and c.denominator != 1
               for c in values)
