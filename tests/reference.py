"""An independent reference for the kernel tests: polynomials and
matrices over Q(i) in plain Python. It imports nothing from tubes.

A scalar is a pair (re, im) of Fractions. A polynomial is a dict from
exponent tuples to nonzero pairs; the zero polynomial is {}. A matrix is
a list of rows. Every routine is the textbook one, written for clarity
and not for speed:
- products term by term, values by powers;
- substitution by expanding every term;
- division by the leading term in graded lexicographic order (Cox,
  Little & O'Shea, Ideals, Varieties, and Algorithms, 2.3);
- gcd by Euclid's algorithm;
- series by long division in increasing degree;
- rank, kernel and inverse by Gauss-Jordan elimination;
- determinants by cofactor expansion.

Engine polynomials enter only through their public `vars` and
`sorted_terms()` (`poly`), and engine scalars through their `re` and `im`
(`pair`). Every comparison is made here, in this ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

Pair = Tuple[Fraction, Fraction]
Poly = Dict[Tuple[int, ...], Pair]


# ------------------------------------------------------------------ scalars

def pair(re=0, im=0) -> Pair:
    """A scalar from its two rational parts, or from one value: an int, a
    Fraction, a pair, or anything with `re` and `im`."""
    if isinstance(re, tuple):
        re, im = re
    elif hasattr(re, "re"):
        re, im = re.re, re.im
    return (Fraction(re), Fraction(im))


ZERO = pair(0)
ONE = pair(1)


def pair_add(x: Pair, y: Pair) -> Pair:
    return (x[0] + y[0], x[1] + y[1])


def pair_sub(x: Pair, y: Pair) -> Pair:
    return (x[0] - y[0], x[1] - y[1])


def pair_mul(x: Pair, y: Pair) -> Pair:
    (a, b), (c, d) = x, y
    if not (b or d):  # two rationals
        return (a * c, b)
    return (a * c - b * d, a * d + b * c)


def pair_div(x: Pair, y: Pair) -> Pair:
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return ((a * c + b * d) / n, (b * c - a * d) / n)


def pair_conjugate(x: Pair) -> Pair:
    return (x[0], -x[1])


def pair_pow(x: Pair, k: int) -> Pair:
    out = ONE
    for _ in range(k):
        out = pair_mul(out, x)
    return out


# -------------------------------------------------------------- polynomials

def poly(p) -> Poly:
    """The reference polynomial of an engine polynomial, read off its
    public sorted_terms()."""
    return {e: pair(re, im) for e, re, im in p.sorted_terms()}


def const(width: int, c) -> Poly:
    c = pair(c)
    return {(0,) * width: c} if c != ZERO else {}


def var(width: int, i: int) -> Poly:
    return {tuple(int(j == i) for j in range(width)): ONE}


def _accumulate(out: Poly, e, c: Pair) -> None:
    s = pair_add(out.get(e, ZERO), c)
    if s == ZERO:
        out.pop(e, None)
    else:
        out[e] = s


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        _accumulate(out, e, c)
    return out


def scale(a: Poly, c) -> Poly:
    c = pair(c)
    return {e: pair_mul(x, c) for e, x in a.items()} if c != ZERO else {}


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, scale(b, -1))


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _accumulate(out, tuple(x + y for x, y in zip(e1, e2)), pair_mul(c1, c2))
    return out


def power(a: Poly, k: int, width: int) -> Poly:
    out = const(width, 1)
    for _ in range(k):
        out = mul(out, a)
    return out


def degree(a: Poly, i: Optional[int] = None) -> int:
    """The total degree of a, or its degree in variable i; 0 for zero."""
    return max((sum(e) if i is None else e[i] for e in a), default=0)


def evaluate(a: Poly, point: Sequence) -> Pair:
    """The value of a at a point, one scalar per variable."""
    powers = [[ONE, pair(x)] for x in point]
    total = ZERO
    for e, c in a.items():
        for pows, k in zip(powers, e):
            while len(pows) <= k:
                pows.append(pair_mul(pows[-1], pows[1]))
            if k:
                c = pair_mul(c, pows[k])
        total = pair_add(total, c)
    return total


def diff(a: Poly, i: int) -> Poly:
    out: Poly = {}
    for e, c in a.items():
        if e[i]:
            _accumulate(out, e[:i] + (e[i] - 1,) + e[i + 1:], pair_mul(c, pair(e[i])))
    return out


def truncate(a: Poly, cutoff: int) -> Poly:
    return {e: c for e, c in a.items() if sum(e) <= cutoff}


def conjugate(a: Poly, partner: Sequence[int]) -> Poly:
    """The conjugate of a: coefficients conjugated and each variable i
    swapped with variable partner[i], an involution on the indices."""
    return {tuple(e[partner[i]] for i in range(len(e))): pair_conjugate(c)
            for e, c in a.items()}


def specialize(a: Poly, values: Dict[int, object]) -> Poly:
    """a with variable i set to the scalar values[i], over the variables
    left, in order."""
    out: Poly = {}
    for e, c in a.items():
        for i, x in values.items():
            c = pair_mul(c, pair_pow(pair(x), e[i]))
        _accumulate(out, tuple(k for i, k in enumerate(e) if i not in values), c)
    return out


def substitute(a: Poly, images: Sequence, width: int) -> Tuple[Poly, Poly]:
    """(N, D) with N / D = a(images), over `width` variables, by expanding
    every term. images[i], the value of variable i of a, is a polynomial
    or a (num, den) pair of polynomials. D is the product of den**top over
    the rational values, top the degree of a in their variable, and N is
    the sum over the terms c * prod x_i**k_i of a of c * prod num_i**k_i *
    den_i**(top_i - k_i)."""
    rational = [image if isinstance(image, tuple) else (image, None) for image in images]
    tops = [degree(a, i) for i in range(len(rational))]
    den = const(width, 1)
    for (_, d), top in zip(rational, tops):
        if d is not None:
            den = mul(den, power(d, top, width))
    num: Poly = {}
    for e, c in a.items():
        term = const(width, c)
        for (n, d), k, top in zip(rational, e, tops):
            term = mul(term, power(n, k, width))
            if d is not None:
                term = mul(term, power(d, top - k, width))
        num = add(num, term)
    return num, den


def _graded(e) -> Tuple[int, Tuple[int, ...]]:
    return (sum(e), e)


def leading(a: Poly):
    """The exponents of a's leading term in graded lexicographic order."""
    return max(a, key=_graded)


def divide(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    """(q, r) with a = q b + r and no term of r divisible by b's leading
    term, by the division algorithm. r is zero exactly when b divides a;
    in one variable it is the remainder of degree below b's."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    lead = leading(b)
    inverse = pair_div(ONE, b[lead])
    q: Poly = {}
    r: Poly = {}
    rest = dict(a)
    while rest:
        e = leading(rest)
        c = rest[e]
        if all(x >= y for x, y in zip(e, lead)):
            t = {tuple(x - y for x, y in zip(e, lead)): pair_mul(c, inverse)}
            q = add(q, t)
            rest = sub(rest, mul(t, b))
        else:
            r[e] = c
            del rest[e]
    return q, r


def proportional(a: Poly, b: Poly) -> bool:
    """Whether a is a nonzero scalar times b."""
    return bool(a) and bool(b) and monic(a) == monic(b)


def monic(a: Poly) -> Poly:
    """a divided by its leading coefficient; zero unchanged."""
    return scale(a, pair_div(ONE, a[leading(a)])) if a else a


def gcd_univariate(a: Poly, b: Poly) -> Poly:
    """The monic gcd over Q(i) of two polynomials in one variable, by
    Euclid's algorithm; zero when both are."""
    while b:
        a, b = b, divide(a, b)[1]
    return monic(a)


def coefficients_in(a: Poly, i: int) -> Dict[Tuple[int, ...], Poly]:
    """a as a polynomial in the other variables over Q(i)[x_i]: for each
    monomial in those, its coefficient, the polynomial in x_i alone."""
    out: Dict[Tuple[int, ...], Poly] = {}
    for e, c in a.items():
        rest = e[:i] + (0,) + e[i + 1:]
        out.setdefault(rest, {})[tuple(k if j == i else 0 for j, k in enumerate(e))] = c
    return out


def series(num: Poly, den: Poly, cutoff: int) -> Poly:
    """The Taylor expansion of num / den at the origin through total
    degree `cutoff`, by long division in increasing degree: the quotient
    term at the lowest monomial m of the remainder is its coefficient over
    den(0), and that term times den leaves the remainder."""
    width = len(next(iter(den)))
    c0 = den.get((0,) * width, ZERO)
    if c0 == ZERO:
        raise ValueError("den(0) is zero")
    levels: List[Poly] = [{} for _ in range(cutoff + 1)]
    for e, c in truncate(num, cutoff).items():
        levels[sum(e)][e] = c
    tail = [(e, sum(e), c) for e, c in den.items() if any(e)]
    out: Poly = {}
    for d, level in enumerate(levels):
        for m, c in level.items():
            t = pair_div(c, c0)
            out[m] = t
            for e, de, ce in tail:
                if d + de <= cutoff:
                    _accumulate(levels[d + de], tuple(x + y for x, y in zip(m, e)),
                                pair_mul(pair(-1), pair_mul(t, ce)))
    return out


def det(matrix: Sequence[Sequence[Poly]], width: int) -> Poly:
    """The determinant of a square matrix of polynomials over `width`
    variables, by cofactor expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total: Poly = {}
    for j, entry in enumerate(matrix[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            total = add(total, scale(mul(entry, det(minor, width)), (-1) ** j))
    return total


def canonical(x: Fraction):
    """A rational as the engine stores it: an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


# ------------------------------------------------------------ linear algebra

def _eliminate(rows, is_zero, divide_by, subtract_times, limit=None):
    """Gauss-Jordan elimination, pivoting in the first `limit` columns:
    (reduced rows, pivot columns)."""
    rows = [list(row) for row in rows]
    pivots: List[int] = []
    for c in range((len(rows[0]) if rows else 0) if limit is None else limit):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][c]
        rows[r] = [divide_by(x, p) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not is_zero(row[c]):
                f = row[c]
                rows[i] = [subtract_times(x, f, y) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def rref(matrix: Sequence[Sequence], limit: Optional[int] = None):
    """(reduced row echelon form, pivot columns) over Q."""
    return _eliminate([[Fraction(x) for x in row] for row in matrix], lambda x: not x,
                      lambda x, p: x / p, lambda x, f, y: x - f * y, limit)


def complex_rref(matrix: Sequence[Sequence], limit: Optional[int] = None):
    """(reduced row echelon form, pivot columns) over Q(i), entries pairs."""
    return _eliminate([[pair(x) for x in row] for row in matrix], lambda x: x == ZERO,
                      pair_div, lambda x, f, y: pair_sub(x, pair_mul(f, y)), limit)


def rank(matrix: Sequence[Sequence]) -> int:
    return len(rref(matrix)[1])


def complex_rank(matrix: Sequence[Sequence]) -> int:
    return len(complex_rref(matrix)[1])


def kernel(matrix: Sequence[Sequence]) -> List[List[Fraction]]:
    """Null space basis over Q from the reduced row echelon form: one
    vector per free column, in column order, with 1 at its free column
    and 0 at the others, scaled to coprime integers with a positive first
    nonzero entry."""
    rows, pivots = rref(matrix)
    n = len(rows[0]) if rows else 0
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        ints = [int(x * lcm(*(y.denominator for y in vec))) for x in vec]
        g = gcd(*ints)
        if next(x for x in ints if x) < 0:
            g = -g
        basis.append([Fraction(x, g) for x in ints])
    return basis


def complex_inverse(matrix: Sequence[Sequence]) -> Optional[List[List[Pair]]]:
    """The inverse over Q(i) of a square matrix, or None when it is
    singular: the right half of [A | I] reduced."""
    n = len(matrix)
    rows, pivots = complex_rref([list(row) + [ONE if i == j else ZERO for j in range(n)]
                                 for i, row in enumerate(matrix)], n)
    return [row[n:] for row in rows] if pivots == list(range(n)) else None


def solve(columns: Sequence[Sequence], target: Sequence) -> Optional[List[Pair]]:
    """The weights over Q(i) of the independent columns that give
    target, or None when none do."""
    ncols = len(columns)
    rows, pivots = complex_rref([list(row) for row in zip(*columns, target)], ncols)
    if any(row[ncols] != ZERO for row in rows[len(pivots):]):
        return None
    weights = [ZERO] * ncols
    for row, c in zip(rows, pivots):
        weights[c] = row[ncols]
    return weights
