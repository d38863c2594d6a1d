"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the determinant
oracle is a cofactor expansion, the rank and kernel oracles are plain
fraction Gauss-Jordan elimination, the Jacobi oracle sums the structure
tensor densely over every index (`dense_structure` unpacks the engine's
sparse tensor for such sums), series results are checked by
multiplying back rather than re-expanding, and a field's tangency to a
surface is certified by solving X(P) = Q P for a polynomial multiplier Q
with the fraction elimination, instead of through tubes.linalg and the
kernel solve of affine_symmetry_algebra. The
scan's pivot pick is checked against its first form, which tries each
variable in turn for degree 1 and a constant `diff`, the scan's chart
loop on term dicts against its MultiPoly loop (`frozen_scan_chart`),
`MultiPoly.specialize` and `MultiPoly.eval_at` against the term loop
`eval_at` had before it became specialize's full case, exact division
against its first loop, which built a new remainder polynomial at every
step, and `MultiPoly.__str__` against the loop that zipped every term
against all variable names. A solved scan
chart's kept rows are checked against their rebuild from its solution.
The Horner composition of `tubes.poly` is checked against the per-group
product chains it replaced, `substitute` over its shared bases against
the product of the assignment denominators it gave before
(`product_substitute`), its split of the image denominators by trial
division against each pool's least member, on the pools in one
variable, against the factor refinement it replaced
(`refined_shared_bases`), `lowest_terms`, a Euclid on MultiPoly
through the one division loop, against the Euclid on (re, im)
coefficient lists it replaced (`frozen_lowest_terms`), the scaled series
inversion against the geometric series in E / c0 it replaced, its quotient recurrence against
the reciprocal-then-truncated-product route it replaced
(`reciprocal_series`), the relation rewrites by key shifts against the
split-and-multiply route they replaced (`split_reduce_poly`), and
brackets, which read cached
jacobians, against fields applied one product per variable. GraphSurface's
one-product invariance test is checked against the two products it took
before, and the graph step of verify_surface_map, now one `substitute`
call, against the bidegree split that cleared the graph denominator by
hand (`split_surface_map`). The products of the split real and
imaginary term dicts are checked against the boxed product loop they
replaced, and their sums,
conjugates and specializations against plain loops over boxed
coefficients. The solves of tubes.linalg, which run over Q on real
coordinates, are checked against the Gaussian-rational elimination they
replaced (`gaussian_rref`). The four algebra-layer kernels that now run
on term dicts are checked against the MultiPoly routes they replaced,
frozen: the bracket as a `poly_sum` of products (`frozen_lie_bracket`),
the tangency matrix of affine_symmetry_algebra built from products and
`coefficient_columns` (`frozen_tangency_matrix`), the scan's `subs_each`
as one Horner level (`frozen_subs_each`), and `rank_at` on one value per
component (`frozen_rank_at`). The frozen routes read the split by
variable exponents and the leading term through their own copies
(`split_by_vars`, `leading_term`), since the engine has neither.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from tubes import linalg
from tubes.fields import VectorField
from tubes.poly import (_NO_TERMS, MultiPoly, Powers, RationalFunction, _chain, _field_mask,
                        _horner, _poly, coefficient_columns, denominator_lcm, poly_sum,
                        substitute, variable_keys)
from tubes.scalars import I, ONE, ZERO, GaussianRational, _canon, _div
from tubes.symmetry import ChartOutcome, _residuals


def cofactor_det(matrix) -> MultiPoly:
    n = len(matrix)
    variables = matrix[0][0].vars
    if n == 1:
        return matrix[0][0]
    total = MultiPoly.zero(variables)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[matrix[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entry * cofactor_det(minor)
        total = total + term * ((-1) ** (j % 2))
    return total


def fraction_rref(matrix: Sequence[Sequence[Fraction]]):
    """(reduced row echelon form, pivot columns) by plain Gauss-Jordan."""
    rows = [list(map(Fraction, row)) for row in matrix]
    pivots: List[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def gaussian_rref(rows: Sequence[Sequence[GaussianRational]], limit: Optional[int] = None):
    """Gauss-Jordan elimination over the Gaussian rationals, pivoting only
    in the first `limit` columns: tubes.linalg._rref as it was while it
    also eliminated GaussianRational entries with true division, frozen.
    Returns (reduced rows, pivot columns)."""
    work = [list(row) for row in rows]
    nrows = len(work)
    pivots: List[int] = []
    r = 0
    for c in range((len(work[0]) if work else 0) if limit is None else limit):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        if pv != 1:
            work[r] = [x / pv if x else x for x in work[r]]
        top = work[r]
        support = [j for j, b in enumerate(top) if b]
        for row in work:
            f = row[c]
            if f and row is not top:
                for j in support:
                    row[j] -= f * top[j]
        pivots.append(c)
        r += 1
    return work, pivots


def fraction_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(fraction_rref(matrix)[1])


def fraction_kernel(matrix: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Null space basis from the reduced row echelon form: one vector per
    free column, in column order, with 1 at its free column and 0 at the
    others, scaled to coprime integers with a positive first nonzero entry."""
    rows, pivots = fraction_rref(matrix)
    n = len(rows[0]) if rows else 0
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        scale = 1
        for x in vec:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        ints = [int(x * scale) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if next(x for x in ints if x) < 0:
            g = -g
        basis.append([Fraction(x, g) for x in ints])
    return basis


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


# Gaussian rationals as plain (re, im) Fraction pairs, for checking
# tubes.scalars without using it.

def pair(re=0, im=0):
    return (Fraction(re), Fraction(im))


def pair_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pair_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def pair_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def pair_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return ((a * c + b * d) / n, (b * c - a * d) / n)


def pair_conjugate(x):
    return (x[0], -x[1])


def pair_pow(x, k: int):
    out = pair(1)
    for _ in range(k):
        out = pair_mul(out, x)
    return out


def boxed_terms(p: MultiPoly) -> List[Tuple[Tuple[int, ...], GaussianRational]]:
    """p.sorted_terms() with each coefficient boxed from its two parts."""
    return [(e, GaussianRational(re, im)) for e, re, im in p.sorted_terms()]


def leading_term(p: MultiPoly):
    """MultiPoly.leading, frozen when the engine stopped reading one: the
    exponents and the coefficient of p's term of greatest key, in graded
    lexicographic order."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    return boxed_terms(p)[0]


def split_by_vars(p: MultiPoly, group: Sequence[str]):
    """MultiPoly.split_by_vars, frozen when the engine stopped splitting
    by it: p's terms grouped by their exponents in `group`, {exponent
    tuple in group: those terms with the group's exponents stripped to
    zero, over p.vars}."""
    n = len(p.vars)
    idxs = [p.vars.index(v) for v in group]
    gmask = _field_mask(n, idxs)
    # under the group's fields of a key: (their exponent tuple, their key
    # as a monomial, the stripped real and imaginary parts)
    parts = {}
    for side, terms in enumerate((p.re_terms, p.im_terms), 2):
        for k, c in terms.items():
            g = k & gmask
            part = parts.get(g)
            if part is None:
                fields = g.to_bytes(n, "big")
                part = parts[g] = (tuple(fields[i] for i in idxs),
                                   g + (sum(fields) << 8 * n), {}, {})
            part[side][k - part[1]] = c
    return {key: _poly(p.vars, re, im) for key, _, re, im in parts.values()}


def first_written_pivot(e: MultiPoly):
    """The scan's pivot pick as first written, frozen: over
    sorted(e.used_vars()), the first variable of degree 1 in e whose
    derivative is a constant; returns (variable, that constant) or None."""
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
    nonpivot j, the solution of t{a}_{j} or that free variable itself."""
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
    that uses its variable by MultiPoly.subs_poly."""
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


def eval_terms(p: MultiPoly, point) -> GaussianRational:
    """The value of p at a point (a dict over p.vars; absent names read
    as 0) by the term loop eval_at had before specialize, frozen."""
    vals = [GaussianRational.coerce(point.get(v, 0)) for v in p.vars]
    total = ZERO
    for e, c in boxed_terms(p):
        acc = c
        for i, k in enumerate(e):
            if k:
                acc = acc * vals[i] ** k
        total = total + acc
    return total


def div_exact_terms(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """poly_div_exact before it worked in place, frozen: each quotient
    term is read off the leading terms, and the remainder becomes the
    new polynomial rem - q_term * g."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q_terms = []
    rem = f
    g_exps, g_coeff = leading_term(g)
    while not rem.is_zero():
        r_exps, r_coeff = leading_term(rem)
        q_exps = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(k < 0 for k in q_exps):
            raise ValueError("inexact polynomial division")
        q_term = MultiPoly(f.vars, {q_exps: r_coeff / g_coeff})
        q_terms.append(q_term)
        rem = rem - q_term * g
    return poly_sum(f.vars, q_terms)


def str_terms(p: MultiPoly) -> str:
    """MultiPoly.__str__ before it read variables off the packed keys,
    frozen: every term's exponent tuple zipped against all of p.vars."""
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


def chain_compose(p: MultiPoly, target, images) -> MultiPoly:
    """tubes.poly._compose before Horner's rule, frozen: the terms of p are
    grouped by their mapped exponents, with the kept exponents moved to
    their target positions, and each group runs its own chain of
    products num_i[k_i] * den_i[top_i - k_i] over the mapped variables
    in index order. `images` is in _compose's format."""
    kept = [(i, t) for i, t in enumerate(images) if isinstance(t, int)]
    mapped = [i for i, t in enumerate(images) if not isinstance(t, int)]
    groups = {}
    for e, c in boxed_terms(p):
        moved = [0] * len(target)
        for i, t in kept:
            moved[t] = e[i]
        groups.setdefault(tuple(e[i] for i in mapped), {})[tuple(moved)] = c
    total = MultiPoly.zero(target)
    for key, terms in groups.items():
        term = MultiPoly(target, terms)
        for k, i in zip(key, mapped):
            num, den, top = images[i]
            if k:
                term = term * num[k]
            if top > k:
                term = term * den[top - k]
        total = total + term
    return total


def product_substitute(p: MultiPoly, assignment) -> RationalFunction:
    """tubes.poly.substitute before the coprime basis, frozen: the result
    over the product prod_v den_v**top_v of the assignment denominators,
    top_v being the degree of p in v, its numerator the sum over the terms
    c * prod_v v**k_v of p of c * prod_v num_v**k_v * den_v**(top_v - k_v),
    one product chain per term. Every variable of p must be assigned a
    RationalFunction, all of them over one variable tuple."""
    values = {v: assignment[v] for v in p.vars}
    target = next(iter(values.values())).vars
    den = MultiPoly.const(target, 1)
    for v, f in values.items():
        den = den * f.den ** p.degree(v)
    num = MultiPoly.zero(target)
    for e, c in boxed_terms(p):
        term = MultiPoly.const(target, c)
        for (v, f), k in zip(values.items(), e):
            term = term * f.num ** k * f.den ** (p.degree(v) - k)
        num = num + term
    return RationalFunction(num, den)


# A univariate polynomial over Q(i) as the list of its coefficients as
# (re, im) pairs of rationals, lowest degree first, with a nonzero last;
# [] is zero. tubes.poly ran its one Euclid on these lists until
# lowest_terms moved onto MultiPoly; the lists, their arithmetic and that
# Euclid are frozen here, for `refined_shared_bases` and
# `frozen_lowest_terms`.

def _ulists(p: MultiPoly, name: str):
    """p as a polynomial in `name` over its other variables: for each
    monomial m in those, under m's key, the coefficient list in `name` of
    the terms m * name**k, with (0, 0) for an absent k."""
    shift = 8 * (len(p.vars) - 1 - p.vars.index(name))
    unit = (1 << 8 * len(p.vars)) + (1 << shift)
    grouped = {}
    for k in p.re_terms.keys() | p.im_terms.keys():
        e = k >> shift & 255
        grouped.setdefault(k - e * unit, {})[e] = p.re_terms.get(k, 0), p.im_terms.get(k, 0)
    lists = {}
    for rest, part in grouped.items():
        out = [(0, 0)] * (max(part) + 1)
        for e, c in part.items():
            out[e] = c
        lists[rest] = out
    return lists


def _from_ulists(variables, name: str, lists) -> MultiPoly:
    """The polynomial over `variables` whose _ulists in `name` are lists;
    zero parts are skipped."""
    unit = variable_keys(variables)[variables.index(name)]
    terms = [(rest + e * unit, c) for rest, part in lists.items() for e, c in enumerate(part)]
    return _poly(tuple(variables), {k: _canon(re) for k, (re, _) in terms if re},
                 {k: _canon(im) for k, (_, im) in terms if im})


def _cmul(x, y):
    """The product of two Gaussian rationals given as (re, im) pairs."""
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c) if b or d else (a * c, 0)


def _cinv(x):
    """The inverse of a nonzero Gaussian rational given as an (re, im) pair."""
    a, b = x
    if not b:
        return _div(1, a), 0
    norm = a * a + b * b
    return _div(a, norm), _div(-b, norm)


def _monic(a: list) -> list:
    """A nonzero coefficient list divided by its leading coefficient; the
    empty list (zero) unchanged."""
    if not a or a[-1] == (1, 0):
        return a
    lead, lead_im = a[-1]
    if not lead_im:
        return [(_div(re, lead), _div(im, lead)) for re, im in a]
    inv = _cinv(a[-1])
    return [(_canon(re), _canon(im)) for re, im in (_cmul(c, inv) for c in a)]


def _udivmod(a: list, b: list):
    """(quotient, remainder) of coefficient lists a by nonzero b, the
    remainder with its high zero coefficients dropped."""
    r = list(a)
    n = len(b) - 1
    inv = _cinv(b[-1])
    q = [(0, 0)] * max(len(a) - n, 0)
    for i in range(len(a) - 1 - n, -1, -1):
        c = _cmul(r[i + n], inv)
        if c[0] or c[1]:
            q[i] = c
            for j in range(n):
                y = b[j]
                if y[0] or y[1]:
                    (x0, x1), (t0, t1) = r[i + j], _cmul(c, y)
                    r[i + j] = x0 - t0, x1 - t1
    del r[n:]
    while r and not (r[-1][0] or r[-1][1]):
        r.pop()
    return q, r


def _ugcd(a: list, b: list) -> list:
    """The monic gcd of two coefficient lists, b nonzero, by Euclid's
    algorithm over Q(i)[x] with monic remainders (Knuth, TAOCP Vol. 2,
    4.6.1); [(1, 0)] when they are coprime."""
    while b:
        a, b = b, _monic(_udivmod(a, b)[1])
    return _monic(a)


def frozen_lowest_terms(rf: RationalFunction) -> RationalFunction:
    """tubes.poly.lowest_terms while it ran on coefficient lists, frozen:
    for a denominator in exactly one variable x, the gcd of den and every
    coefficient of num in Q(i)[x] by `_ugcd`, rf itself as soon as it is
    a constant, else num and den divided by it coefficient by
    coefficient."""
    used = rf.den.used_vars()
    if len(used) != 1:
        return rf
    x = used[0]
    den = _ulists(rf.den, x)[0]
    parts = _ulists(rf.num, x)
    g = den
    for part in parts.values():
        g = _ugcd(part, g)
        if len(g) == 1:
            return rf
    g = _monic(g)
    num = {rest: _udivmod(part, g)[0] for rest, part in parts.items()}
    return RationalFunction(_from_ulists(rf.vars, x, num),
                            _from_ulists(rf.vars, x, {0: _udivmod(den, g)[0]}))


def refined_shared_bases(dens):
    """tubes.poly._shared_bases while it split the denominators by factor
    refinement, frozen: in a pool of two or more denominators in one
    variable x, x is a base of those with x**low, low > 0, by exponent
    arithmetic, and the rest, of positive degree, are refined into
    pairwise coprime monic bases (`_refine`), each scaled to coprime
    Gaussian integers; a base two or more hold is shared. Returns
    ([(base, {index: exponent})], {index: private part}) as
    _shared_bases does."""
    pools = {}
    for i, den in dens.items():
        seen = 0
        for k in den.re_terms:
            seen |= k
        for k in den.im_terms:
            seen |= k
        seen &= (1 << 8 * len(den.vars)) - 1
        at = seen.bit_length() - 1 >> 3
        if seen and seen >> 8 * at << 8 * at == seen:
            pools.setdefault(at, []).append(i)
    shared = []
    private = dens
    for at, idxs in pools.items():
        if len(idxs) < 2:
            continue
        variables = dens[idxs[0]].vars
        name = variables[len(variables) - 1 - at]
        lows, lists = {}, {}
        for i in idxs:
            a = _ulists(dens[i], name)[0]
            low = next(e for e, c in enumerate(a) if c != (0, 0))
            lows[i], lists[i] = low, a[low:]
        found = []
        held = {i: low for i, low in lows.items() if low}
        if len(held) > 1:
            found.append(([(0, 0), (1, 0)], held))
            lows.update(dict.fromkeys(held, 0))
        polys = [i for i in idxs if len(lists[i]) > 1]
        if len(polys) > 1:
            for base in _refine([_monic(lists[i]) for i in polys]):
                base = _refined_integral(base)
                held = {}
                for i in polys:
                    e, rest = _refined_valuation(lists[i], base)
                    if e:
                        held[i] = e, rest
                if len(held) > 1:
                    found.append((base, {i: e for i, (e, _) in held.items()}))
                    lists.update((i, rest) for i, (_, rest) in held.items())
        if not found:
            continue
        if private is dens:
            private = dict(dens)
        for base, exps in found:
            shared.append((_from_ulists(variables, name, {0: base}), exps))
            for i in exps:
                private[i] = _from_ulists(variables, name, {0: [(0, 0)] * lows[i] + lists[i]})
    return shared, private


def _refine(polys):
    """Factor refinement (Bach, Driscoll & Shallit, J. Algorithms 15(2),
    1993) of nonconstant monic coefficient lists into pairwise coprime
    monic nonconstant lists, each of polys a product of their powers."""
    basis = []
    todo = list(polys)
    while todo:
        f = todo.pop()
        for i, b in enumerate(basis):
            if f == b:
                break
            g = _ugcd(f, b)
            if len(g) > 1:
                rest = _udivmod(f, g)[0]
                if len(g) == len(b):
                    new = [rest]
                else:
                    del basis[i]
                    new = [g, _udivmod(b, g)[0], rest]
                todo += [h for h in new if len(h) > 1]
                break
        else:
            basis.append(f)
    return basis


def _refined_integral(a):
    """A coefficient list scaled by a nonzero rational to coprime Gaussian
    integers."""
    scale = lcm(*(x.denominator for c in a for x in c if type(x) is not int))
    ints = [(re * scale, im * scale) for re, im in a] if scale > 1 else a
    content = gcd(*(int(x) for c in ints for x in c))
    return [(int(re) // content, int(im) // content) for re, im in ints]


def _refined_valuation(a, b):
    """(e, a / b**e) for the largest e such that b**e divides a."""
    e = 0
    while len(a) >= len(b):
        q, r = _udivmod(a, b)
        if r:
            break
        a, e = q, e + 1
    return e, a


def fraction_series(f: RationalFunction, cutoff: int) -> MultiPoly:
    """series_expand before the scaled inversion, frozen: den = c0 (1 + E) with
    E = (den - c0) / c0, 1 / (1 + E) by the alternating geometric series,
    every product over the field of fractions."""
    c0 = f.den.const_coeff()
    e_poly = (f.den - c0).truncate(cutoff) * (ONE / c0)
    inv = MultiPoly.const(f.vars, 1)
    acc = MultiPoly.const(f.vars, 1)
    for k in range(1, cutoff + 1):
        acc = (acc * e_poly).truncate(cutoff)
        if acc.is_zero():
            break
        inv = inv + acc * (-1) ** (k % 2)
    return (f.num.truncate(cutoff) * inv).truncate(cutoff) * (ONE / c0)


def reciprocal_series(nums: Sequence[MultiPoly], den: MultiPoly, cutoff: int):
    """series_expand before it ran the quotient recurrence once per
    numerator, frozen: (N, [N * expansion of num/den]) from one inverse
    A = N / den through the cutoff, built by the reciprocal recurrence
    c0 * A[m] = -sum_t den[t] * A[m - t] in plain (re, im) parts, and
    then one truncated product of each truncated num with A."""
    a, b = den.re_terms.get(0, 0), den.im_terms.get(0, 0)
    shift = 8 * len(den.vars)
    terms = {k: [c, 0] for k, c in den.re_terms.items()}
    for k, c in den.im_terms.items():
        terms.setdefault(k, [0, 0])[1] = c
    tails = sorted((k, k >> shift, -re, -im) for k, (re, im) in terms.items()
                   if 0 < k < cutoff + 1 << shift)
    norm = a * a + b * b
    scale = _canon((norm if b else a) ** (cutoff + 1))
    levels = [{} for _ in range(cutoff + 1)]
    levels[0][0] = [scale, 0]
    inv_re, inv_im = {}, {}
    for d, level in enumerate(levels):
        for m, (re, im) in level.items():
            if b:
                re, im = _div(re * a + im * b, norm), _div(im * a - re * b, norm)
            else:
                re, im = _div(re, a), _div(im, a)
            if not (re or im):
                continue
            if re:
                inv_re[m] = re
            if im:
                inv_im[m] = im
            for t, dt, tr, ti in tails:
                if d + dt > cutoff:
                    break
                pr, pi = re * tr - im * ti, re * ti + im * tr
                s = levels[d + dt].setdefault(m + t, [0, 0])
                s[0] += pr
                s[1] += pi
    inverse = _poly(den.vars, inv_re, inv_im)
    return scale, [(num.truncate(cutoff) * inverse).truncate(cutoff) for num in nums]


def split_reduce_poly(ctx, p: MultiPoly) -> MultiPoly:
    """RelationContext.reduce_poly before its rewrites moved term keys,
    frozen: p split by the adjoined symbols' exponents (`split_by_vars`),
    each part multiplied back by a power of a symbol, or of the radical's
    value, and the parts summed."""
    out = p
    for sym, d in ctx.radicals:
        if sym not in out.vars or out.degree(sym) < 2:
            continue
        d_pows = Powers(d.with_vars(out.vars))
        s = MultiPoly.var(out.vars, sym)
        parts = []
        for (k,), part in split_by_vars(out, [sym]).items():
            if k % 2:
                part = part * s
            parts.append(part * d_pows[k // 2] if k > 1 else part)
        out = poly_sum(out.vars, parts)
    for c_name, cb_name in ctx.unit_pairs:
        if c_name not in out.vars or cb_name not in out.vars:
            continue
        c_pows = Powers(MultiPoly.var(out.vars, c_name))
        cb_pows = Powers(MultiPoly.var(out.vars, cb_name))
        parts = []
        for (a, b), part in split_by_vars(out, [c_name, cb_name]).items():
            if a > b:
                part = part * c_pows[a - b]
            elif b > a:
                part = part * cb_pows[b - a]
            parts.append(part)
        out = poly_sum(out.vars, parts)
    return out


def invariant_by_two_products(part: RationalFunction, pairing) -> bool:
    """GraphSurface's conjugation-invariance test before it took one
    product, frozen: num * conj(den) - conj(num) * den vanishes."""
    return (part.num * part.den.conjugate(pairing)
            - part.num.conjugate(pairing) * part.den).is_zero()


def split_surface_map(source, target: MultiPoly, target_holo, target_anti, phi):
    """tubes.normal_form.verify_surface_map while it cleared the graph
    denominator by hand, frozen: the map step is the engine's (each
    component as given, scaled by `denominator_lcm`, composed by
    `substitute`), and the graph step splits the composed numerator by
    its bidegree (j, k) in the solved coordinate and its conjugate
    (`split_by_vars`) and
    sums part * w_num**j * wbar_num**k * den**(top - j - k), top the
    largest j + k, over the free variables, through three `Powers`.
    Returns (identity holds, residual numerator)."""
    universe = (source.holo_vars + (source.solved_var,)
                + source.anti_vars + (source.solved_conj,))
    pairing = dict(source.pairing)
    pairing[source.solved_var] = source.solved_conj
    pairing[source.solved_conj] = source.solved_var
    assignment = {}
    for name in target_holo:
        rf = phi[name]
        d = denominator_lcm(rf.num, rf.den)
        assignment[name] = RationalFunction(rf.num * d, rf.den * d).with_vars(universe)
    for h, a in zip(target_holo, target_anti):
        assignment[a] = assignment[h].conjugate(pairing)
    numer = substitute(target * denominator_lcm(target), assignment).num
    groups = split_by_vars(numer, [source.solved_var, source.solved_conj])
    w_num, wbar_num, den = source.solved_pair()
    fv = source.free_vars
    top = max((j + k for j, k in groups), default=0)
    w_pows, wbar_pows, den_pows = Powers(w_num), Powers(wbar_num), Powers(den)
    products = []
    for (j, k), part in groups.items():
        term = part.with_vars(fv)
        for pows, n in ((w_pows, j), (wbar_pows, k), (den_pows, top - j - k)):
            if n:
                term = term * pows[n]
        products.append(term)
    total = poly_sum(fv, products)
    return total.is_zero(), total


def boxed_product(a_terms, b_terms):
    """tubes.poly._product over {term key: GaussianRational} dicts, as it
    was before polynomials held real and imaginary parts apart, frozen
    (its degree check left out): a one-term factor shifts and scales the
    other, and otherwise each coefficient's parts are read once, every
    term pair is multiplied and summed in plain parts and one
    GaussianRational is built per nonzero output term."""
    if not a_terms or not b_terms:
        return {}
    for mono, other in ((b_terms, a_terms), (a_terms, b_terms)):
        if len(mono) == 1:
            (shift, unit), = mono.items()
            if unit == ONE:
                return {k + shift: c for k, c in other.items()}
            return {k + shift: c * unit for k, c in other.items()}
    b_items = [(k, c.re, c.im) for k, c in b_terms.items()]
    acc = {}
    for k1, c1 in a_terms.items():
        r1, i1 = c1.re, c1.im
        for k2, r2, i2 in b_items:
            k = k1 + k2
            if i1 or i2:
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
            else:
                re = r1 * r2
                im = 0
            s = acc.get(k)
            if s is None:
                acc[k] = [re, im]
            else:
                s[0] += re
                s[1] += im
    return {k: GaussianRational(re, im) for k, (re, im) in acc.items() if re or im}


def boxed_sum(a_terms, b_terms, sign=1):
    """a + sign * b over {term key: GaussianRational} dicts."""
    out = dict(a_terms)
    for k, c in b_terms.items():
        out[k] = out.get(k, ZERO) + c * sign
    return {k: c for k, c in out.items() if c}


def _key(exps) -> int:
    return int.from_bytes(bytes((sum(exps), *exps)), "big")


def boxed_conjugate(p: MultiPoly, pairing):
    """The terms of p.conjugate(pairing), one exponent tuple at a time."""
    partner = [p.vars.index(pairing.get(v, v)) for v in p.vars]
    return {_key(tuple(e[partner[i]] for i in range(len(e)))): c.conjugate()
            for e, c in boxed_terms(p)}


def boxed_specialize(p: MultiPoly, values):
    """The terms of p.specialize(values), one exponent tuple at a time."""
    out = {}
    for e, c in boxed_terms(p):
        for v, k in zip(p.vars, e):
            if v in values:
                c = c * GaussianRational.coerce(values[v]) ** k
        key = _key(tuple(k for v, k in zip(p.vars, e) if v not in values))
        out[key] = out.get(key, ZERO) + c
    return {k: c for k, c in out.items() if c}


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
    rows, pivots = fraction_rref(list(zip(*columns, column(xp))))
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


def frozen_lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """lie_bracket before it summed its products in one dict per part,
    frozen: component i is the poly_sum of the MultiPoly products X_j *
    dY_i/dx_j minus that of the products Y_j * dX_i/dx_j, read from the
    cached jacobians."""
    if x.variables != y.variables or x.carrier != y.carrier:
        raise ValueError("variable mismatch in Lie bracket")

    def along(field, gradient):
        comps = field.components
        return poly_sum(field.carrier, [comps[j] * d for j, d in gradient if comps[j]])

    return VectorField(x.variables, tuple(along(x, dy) - along(y, dx)
                                          for dx, dy in zip(x.jacobian, y.jacobian)))


def frozen_tangency_matrix(p: MultiPoly) -> List[List]:
    """The tangency matrix of affine_symmetry_algebra before it read the
    rows off P's terms, frozen: the n^2 + n + 1 polynomials x_j dP/dx_i,
    dP/dx_i and -P built by MultiPoly products, their real coordinate
    columns (coefficient_columns) transposed into one row per monomial."""
    names = p.vars
    n = len(names)
    gradients = [p.diff(v) for v in names]
    unknown_polys = [MultiPoly.var(names, names[j]) * gradients[i]
                     for i in range(n) for j in range(n)]
    unknown_polys += gradients + [-p]
    return [list(row) for row in zip(*coefficient_columns([(q,) for q in unknown_polys]))]


def frozen_subs_each(parts, variables, name, value):
    """subs_each before its multiply-accumulate, frozen: one Powers of the
    value and one level of tubes.poly's Horner composer for every part
    that holds the variable; a part without it comes back as it is."""
    width = len(variables)
    idx = variables.index(name)
    chain = [_chain(width, idx, (Powers(_poly(variables, value)), None, 0))]
    field = _field_mask(width, (idx,))
    out = []
    for part in parts:
        if any(k & field for k in part):
            part = _horner(part, _NO_TERMS, chain, 0, None)[0]
        out.append(part)
    return out


def frozen_rank_at(fields: Sequence[VectorField], point: Sequence[object]) -> int:
    """rank_at before it shared one power table among all the fields,
    frozen: each component is evaluated on its own, here by the boxed term
    loop eval_terms after eval_at's check that the point gives every
    variable the component uses, and the rows go to linalg as rank_at
    gave them."""
    if not fields:
        return 0
    base = fields[0]
    if len(point) != len(base.variables):
        raise ValueError("point dimension does not match field variables")
    values = dict(zip(base.variables, point))
    rows = []
    for f in fields:
        row = []
        for c in f.components:
            for v in c.used_vars():
                if v not in values:
                    raise ValueError(f"no value supplied for variable {v!r}")
            row.append(eval_terms(c, values))
        rows.append(row)
    if any(x.im for row in rows for x in row):
        return len(linalg._rref(linalg.complex_block(rows))[1]) // 2
    return len(linalg._rref([[x.re for x in row] for row in rows])[1])
