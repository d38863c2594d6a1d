"""Sparse exact multivariate polynomials and rational functions.

A polynomial stores an ordered variable tuple and a dict mapping term
keys to nonzero GaussianRational coefficients. Binary operations insist
that the variable tuples match exactly; the package juggles several
coordinate systems (x, z, w and their conjugates) and silent mixing would
be a correctness hazard.

A term key packs the exponents of a monomial into one int (Monagan &
Pearce, CASC 2007): over n variables, the exponent of variable i is the
byte at bit 8 * (n - 1 - i), so variable 0 is the most significant, and
the total degree is the byte at bit 8 * n above them. The constant
monomial is key 0, a product of monomials is the sum of their keys, and
the int order of keys is graded lexicographic order with respect to the
variable order, the canonical term order. A byte holds at most 255, so
no polynomial has a term of total degree above 255 (MAX_DEGREE): the
constructor refuses one and a product that could reach one raises
OverflowError before it starts, so a field never carries into the next.
Exponent tuples appear only at the public edges: the constructor,
`coeff`, `sorted_terms` and `leading`.

Every substitution (`subs_poly`, `subs_each`, `substitute`) is one
Horner routine over term keys, `_horner`, which splits the terms by one
mapped variable's exponent per level with a shift and a mask.
`subs_each` puts one value in for one variable of many polynomials,
through one power cache; `_compose` takes
images for the mapped variables only, {index in p: (Powers of the
numerator, Powers of the denominator, top degree)}; every other variable
is kept and moves into the target universe by the runs of `_moves`.

Term dicts are built only in this module: through `MultiPoly.__init__`,
which checks and coerces input from outside the engine, or through the
trusted `_poly`, which takes over a dict the engine built. Sums of many
polynomials accumulate into one dict (`poly_sum`, `_add_into`), and an
exact division works on one remainder dict (`poly_div_exact`). A point
value (`eval_at`) is read straight off the term keys, without building
a polynomial.

Rational functions are unreduced num/den pairs. Equality is decided by
cross-multiplication; no multivariate gcd is ever computed. Their
truncated expansions (`series_expand`) share one inverse of the
denominator, built coefficient by coefficient from the recurrence of a
power series reciprocal, in plain (re, im) parts like `_product`. They
come back as N times the true expansions, for one real rational N that
is returned with them and never divided back here: N is a power of
den(0), or of |den(0)|^2, and an integer for an integer denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .scalars import ONE, ZERO, GaussianRational, Rational, ScalarLike, _canon, _div, _gr

# an exponent tuple, as the public edges take and give monomials
Exponents = Tuple[int, ...]
# the largest total degree a term key holds
MAX_DEGREE = 255


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Union[Mapping[Exponents, ScalarLike],
                              List[Tuple[Sequence[int], ScalarLike]], None] = None):
        """The polynomial over `variables` with these terms: a mapping from
        exponent tuples to coefficients, or a list of (exponents, coefficient)
        pairs, of which a later pair for the same exponents replaces an earlier
        one, as in a dict. Raises ValueError for an exponent vector of the
        wrong width or with an entry that is not a nonnegative int, and
        OverflowError for a term of total degree above MAX_DEGREE."""
        self.vars: Tuple[str, ...] = _distinct(variables)
        clean: Dict[int, GaussianRational] = {}
        if terms:
            width = len(self.vars)
            for exps, coeff in terms if type(terms) is list else terms.items():
                exps = tuple(exps)
                if len(exps) != width:
                    raise ValueError(f"exponent vector {exps} does not match variables {self.vars}")
                if list(map(type, exps)).count(int) != width:
                    raise ValueError(f"exponents must be nonnegative ints, got {exps}")
                try:
                    fields = bytes(exps)
                except ValueError:  # an exponent below 0 or above 255
                    if min(exps) < 0:
                        raise ValueError(
                            f"exponents must be nonnegative ints, got {exps}") from None
                degree = sum(exps)
                if degree > MAX_DEGREE:
                    raise OverflowError(f"total degree {degree} of the term {exps} exceeds "
                                        f"{MAX_DEGREE}, the most a term key holds")
                c = coeff if type(coeff) is GaussianRational else GaussianRational.coerce(coeff)
                key = degree << 8 * width | int.from_bytes(fields, "big")
                if c.re or c.im:
                    clean[key] = c
                else:
                    clean.pop(key, None)
        self.terms = clean

    # ---------------------------------------------------------------- basics

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return _poly(tuple(variables), {})

    @staticmethod
    def const(variables: Sequence[str], value: ScalarLike) -> "MultiPoly":
        v = tuple(variables)
        c = GaussianRational.coerce(value)
        return _poly(v, {0: c} if c else {})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "MultiPoly":
        v = tuple(variables)
        if name not in v:
            raise ValueError(f"variable {name!r} not among {v}")
        n = len(v)
        return _poly(v, {(1 << 8 * n) + (1 << 8 * (n - 1 - v.index(name))): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == MultiPoly.const(self.vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _check_same_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_vars(other)
        return _poly(self.vars, _add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            if not c:
                return MultiPoly.zero(self.vars)
            return _poly(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_vars(other)
        return _poly(self.vars, _product(self.terms, other.terms, None))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative ints")
        out = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # ------------------------------------------------------------- structure

    def used_vars(self) -> Tuple[str, ...]:
        # a field of the OR of all keys is nonzero where some key's is
        seen = 0
        for k in self.terms:
            seen |= k
        n = len(self.vars)
        return tuple(v for i, v in enumerate(self.vars) if seen >> 8 * (n - 1 - i) & 255)

    def degree(self, name: Optional[str] = None) -> int:
        """The total degree of self, or its degree in the variable `name`;
        0 for the zero polynomial."""
        if not self.terms:
            return 0
        n = len(self.vars)
        if name is None:
            return max(self.terms) >> 8 * n
        shift = 8 * (n - 1 - self.vars.index(name))
        return max(k >> shift & 255 for k in self.terms)

    def is_real(self) -> bool:
        """Whether every coefficient is real."""
        return all(c.is_real() for c in self.terms.values())

    def coeff(self, exps: Exponents) -> GaussianRational:
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            return ZERO
        try:
            key = int.from_bytes(bytes((sum(exps), *exps)), "big")
        except ValueError:  # no term key holds this monomial
            return ZERO
        return self.terms.get(key, ZERO)

    def const_coeff(self) -> GaussianRational:
        return self.terms.get(0, ZERO)

    def sorted_terms(self) -> List[Tuple[Exponents, GaussianRational]]:
        """Terms in graded-lexicographic order, highest first."""
        n = len(self.vars)
        return [(tuple(k.to_bytes(n + 1, "big")[1:]), c)
                for k, c in sorted(self.terms.items(), reverse=True)]

    def leading(self) -> Tuple[Exponents, GaussianRational]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.terms)
        return tuple(k.to_bytes(len(self.vars) + 1, "big")[1:]), self.terms[k]

    def lone_linear_terms(self) -> Dict[str, GaussianRational]:
        """{v: c} for each variable v that occurs in one term of self only,
        that term being c * v."""
        n = len(self.vars)
        fields = (1 << 8 * n) - 1
        lows = int.from_bytes(b"\x01" * n, "big")
        seen = repeated = 0
        linear = {}
        for k, c in self.terms.items():
            x = k & fields
            if k >> 8 * n == 1:
                # one field holds 1: x is the low bit of its byte
                linear[x] = c
            # the low bit of each byte, set where the byte is nonzero
            x |= x >> 4
            x |= x >> 2
            x |= x >> 1
            x &= lows
            repeated |= seen & x
            seen |= x
        return {self.vars[n - 1 - (x.bit_length() - 1) // 8]: c
                for x, c in linear.items() if not x & repeated}

    def coefficient_lists(self, name: str) -> Dict[int, List[GaussianRational]]:
        """self as a polynomial in `name` over the other variables: for each
        monomial m in the other variables, under a key that only
        `from_coefficient_lists` reads, the coefficients of m * name**k,
        lowest k first, with ZERO for an absent k and a nonzero last."""
        shift = 8 * (len(self.vars) - 1 - self.vars.index(name))
        unit = (1 << 8 * len(self.vars)) + (1 << shift)
        grouped: Dict[int, Dict[int, GaussianRational]] = {}
        for k, c in self.terms.items():
            e = k >> shift & 255
            grouped.setdefault(k - e * unit, {})[e] = c
        lists = {}
        for rest, part in grouped.items():
            out = [ZERO] * (max(part) + 1)
            for e, c in part.items():
                out[e] = c
            lists[rest] = out
        return lists

    @staticmethod
    def from_coefficient_lists(variables: Sequence[str], name: str,
                               lists: Mapping[int, Sequence[GaussianRational]]) -> "MultiPoly":
        """The polynomial over `variables` with the coefficient lists in
        `name` that coefficient_lists gives; zero entries are skipped."""
        v = tuple(variables)
        unit = variable_keys(v)[v.index(name)]
        return _poly(v, {rest + e * unit: c for rest, part in lists.items()
                         for e, c in enumerate(part) if c})

    # ------------------------------------------------------------- calculus

    def diff(self, name: str) -> "MultiPoly":
        shift = 8 * (len(self.vars) - 1 - self.vars.index(name))
        unit = (1 << 8 * len(self.vars)) + (1 << shift)
        # distinct keys stay distinct, so no two terms meet
        terms = {}
        for k, c in self.terms.items():
            e = k >> shift & 255
            if e:
                terms[k - unit] = c * e
        return _poly(self.vars, terms)

    # ------------------------------------------------------- transformations

    def with_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Embed into a larger (or reordered) variable universe."""
        newvars = tuple(variables)
        if newvars == self.vars:
            return self
        _distinct(newvars)
        for v in self.used_vars():
            if v not in newvars:
                raise ValueError(f"variable {v!r} is used but absent from {newvars}")
        return _poly(newvars, _moved(self.terms, self.vars, newvars))

    def rename_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        return _poly(_distinct(mapping.get(v, v) for v in self.vars), dict(self.terms))

    def subs_poly(self, mapping: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Polynomial substitution. Values must share one variable tuple;
        unmapped variables of self must exist there and map to themselves."""
        if not mapping:
            return self
        target = next(iter(mapping.values())).vars
        if any(value.vars != target for value in mapping.values()):
            raise ValueError("substitution values must share a variable tuple")
        images = {}
        for i, v in enumerate(self.vars):
            if v in mapping:
                images[i] = (Powers(mapping[v]), None, 0)
            elif v not in target:
                raise ValueError(f"variable {v!r} not among {target}")
        return _compose(self, target, images)

    def specialize(self, values: Mapping[str, ScalarLike]) -> "MultiPoly":
        """Set the variables named in `values` to those constants; the
        result lives over the remaining variables, in order. Names that
        are not variables of self are ignored."""
        n = len(self.vars)
        # each fixed variable's field shift and the powers of its value
        fixed = [(8 * (n - 1 - i), [ONE, GaussianRational.coerce(values[v])])
                 for i, v in enumerate(self.vars) if v in values]
        rest = tuple(v for v in self.vars if v not in values)
        m = len(rest)
        runs = _moves(self.vars, rest)
        acc: Dict[int, GaussianRational] = {}
        for k, c in self.terms.items():
            degree = k >> 8 * n
            for shift, pows in fixed:
                e = k >> shift & 255
                if e:
                    while len(pows) <= e:
                        pows.append(pows[-1] * pows[1])
                    c = c * pows[e]
                    degree -= e
            if c:
                key = degree << 8 * m
                for shift, mask, to in runs:
                    key |= (k >> shift & mask) << to
                s = acc.get(key)
                acc[key] = c if s is None else s + c
        return _poly(rest, {k: c for k, c in acc.items() if c})

    def eval_at(self, point: Mapping[str, ScalarLike]) -> GaussianRational:
        """The value of self at a point, a mapping that must hold every
        used variable (others are ignored). Each term's exponent fields
        are read off its key and its (re, im) parts multiplied by one
        power table per used variable; no polynomial is built. Raises
        ValueError naming the first used variable, in variable order,
        that the point lacks."""
        n = len(self.vars)
        seen = 0
        for k in self.terms:
            seen |= k
        # (field shift, powers of the value as (re, im) parts) per used variable
        tables = []
        for i, v in enumerate(self.vars):
            shift = 8 * (n - 1 - i)
            if seen >> shift & 255:
                if v not in point:
                    raise ValueError(f"no value supplied for variable {v!r}")
                value = GaussianRational.coerce(point[v])
                tables.append((shift, [None, (value.re, value.im)]))
        total_re = total_im = 0
        for k, c in self.terms.items():
            re, im = c.re, c.im
            for shift, pows in tables:
                e = k >> shift & 255
                if e:
                    while len(pows) <= e:
                        (a, b), (p, q) = pows[-1], pows[1]
                        pows.append((a * p - b * q, a * q + b * p) if b or q else (a * p, 0))
                    x, y = pows[e]
                    if im or y:
                        re, im = re * x - im * y, re * y + im * x
                    else:
                        re = re * x
            total_re += re
            total_im += im
        return _gr(_canon(total_re), _canon(total_im))

    def truncate(self, cutoff: int) -> "MultiPoly":
        # total degree <= cutoff exactly when the key is below this one
        limit = cutoff + 1 << 8 * len(self.vars)
        return _poly(self.vars, {k: c for k, c in self.terms.items() if k < limit})

    # ----------------------------------------------------- conjugation, split

    def conjugate(self, pairing: Mapping[str, str]) -> "MultiPoly":
        """Swap paired variables and conjugate coefficients.

        The pairing must be an involution on names; a variable may be
        paired with itself (a real variable). Every variable actually
        used by the polynomial must be paired.
        """
        for a, b in pairing.items():
            if pairing.get(b) != a:
                raise ValueError(f"pairing is not an involution at {a!r}")
        for v in self.vars:
            if v in pairing and pairing[v] not in self.vars:
                raise ValueError(f"conjugate variable {pairing[v]!r} absent from {self.vars}")
        unpaired = [v for v in self.used_vars() if v not in pairing]
        if unpaired:
            raise ValueError(f"unpaired variables in conjugation: {unpaired}")
        n = len(self.vars)
        # the pairing is an involution, so each variable moves to the
        # position of its partner
        runs = _moves(self.vars, tuple(pairing.get(v, v) for v in self.vars))
        terms: Dict[int, GaussianRational] = {}
        for k, c in self.terms.items():
            key = k >> 8 * n << 8 * n
            for shift, mask, to in runs:
                key |= (k >> shift & mask) << to
            terms[key] = c.conjugate()
        return _poly(self.vars, terms)

    def bidegree_split(self, holo_vars: Sequence[str], anti_vars: Sequence[str]):
        """Split into bihomogeneous parts keyed by (holo degree, anti degree)."""
        holo = set(holo_vars)
        anti = set(anti_vars)
        if holo & anti:
            raise ValueError("holo and anti variable groups overlap")
        unknown = [v for v in self.vars if v not in holo and v not in anti]
        if unknown:
            raise ValueError(f"unclassified variables in bidegree split: {unknown}")
        n = len(self.vars)
        hmask = _field_mask(n, [i for i, v in enumerate(self.vars) if v in holo])
        # times 0x0101...01, the byte at 8 * (n - 1) sums the bytes below
        # it; no partial sum exceeds the total degree, so none carries
        lows = int.from_bytes(b"\x01" * n, "big")
        at = 8 * max(n - 1, 0)
        parts: Dict[Tuple[int, int], Dict[int, GaussianRational]] = {}
        for k, c in self.terms.items():
            h = (k & hmask) * lows >> at & 255
            parts.setdefault((h, (k >> 8 * n) - h), {})[k] = c
        return {key: _poly(self.vars, terms) for key, terms in parts.items()}

    def split_by_vars(self, group: Sequence[str]):
        """Group terms by their exponents in `group`; values are polynomials
        in the full universe with those exponents stripped to zero, keyed
        by the exponent tuples in `group`."""
        n = len(self.vars)
        idxs = [self.vars.index(v) for v in group]
        gmask = _field_mask(n, idxs)
        # under the group's fields of a key: (their exponent tuple, their
        # key as a monomial, the stripped terms)
        parts: Dict[int, Tuple[Exponents, int, Dict[int, GaussianRational]]] = {}
        for k, c in self.terms.items():
            g = k & gmask
            part = parts.get(g)
            if part is None:
                fields = g.to_bytes(n, "big")
                part = parts[g] = (tuple(fields[i] for i in idxs), g + (sum(fields) << 8 * n), {})
            # the key and the stripped exponents together give back k
            part[2][k - part[1]] = c
        return {key: _poly(self.vars, terms) for key, _, terms in parts.values()}

    # ---------------------------------------------------------------- output

    def __str__(self) -> str:
        """The terms, highest first, each as its coefficient times the
        variables it uses. A key's variables are read off its nonzero
        exponent fields, highest (variable 0) first, so a term costs its
        own variables, not all of self's."""
        if not self.terms:
            return "0"
        n = len(self.vars)
        names = self.vars[::-1]  # names[b] owns the exponent field at byte b
        fields = (1 << 8 * n) - 1
        bits = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            x = k & fields
            factors = []
            while x:
                at = (x.bit_length() - 1) >> 3
                e = x >> 8 * at
                x ^= e << 8 * at
                factors.append(f"{names[at]}^{e}" if e > 1 else names[at])
            mono = "*".join(factors)
            if not mono:
                bits.append(str(c))
            elif c == ONE:
                bits.append(mono)
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars}, {str(self)})"


class Powers:
    """The powers base**0, base**1, ... of one polynomial, each computed
    once, on first use, by one multiplication with base."""

    __slots__ = ("_pows",)

    def __init__(self, base: MultiPoly):
        self._pows = [_poly(base.vars, {0: ONE}), base]

    def __getitem__(self, k: int) -> MultiPoly:
        pows = self._pows
        top = len(pows) - 1
        while top < k:
            pows.append(pows[top] * pows[1])
            top += 1
        return pows[k]


def subs_each(polys: Sequence[MultiPoly], name: str, value: MultiPoly) -> List[MultiPoly]:
    """Each of polys, all over value's variables, with the variable `name`
    replaced by value: through one `Powers` of value and one `_horner`
    chain for them all. A poly in which `name` does not occur is returned
    as it is, the same object."""
    variables = value.vars
    idx = variables.index(name)
    chain = [_chain(len(variables), idx, (Powers(value), None, 0))]
    mask = _field_mask(len(variables), (idx,))
    out = []
    for p in polys:
        if p.vars != variables:
            raise ValueError(f"variable mismatch: {variables} vs {p.vars}")
        if any(k & mask for k in p.terms):
            p = _poly(variables, _horner(p.terms, chain, 0, None))
        out.append(p)
    return out


def _poly(variables: Tuple[str, ...], terms: Dict[int, GaussianRational]) -> MultiPoly:
    """Trusted constructor: takes over `terms`, whose keys must be term
    keys over `variables` and whose coefficients must be nonzero
    GaussianRationals, without checking either."""
    p = object.__new__(MultiPoly)
    p.vars = variables
    p.terms = terms
    return p


def _distinct(variables: Iterable[str]) -> Tuple[str, ...]:
    names = tuple(variables)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    return names


def variable_keys(variables: Sequence[str]) -> List[int]:
    """The term key of each variable of `variables` as a monomial; the key
    of a product of variables is the sum of theirs."""
    n = len(variables)
    return [(1 << 8 * n) + (1 << 8 * (n - 1 - i)) for i in range(n)]


def _field_mask(width: int, idxs: Iterable[int]) -> int:
    """The bits of the exponent fields of the variables idxs in a term key
    over width variables."""
    return sum(255 << 8 * (width - 1 - i) for i in idxs)


@lru_cache(maxsize=256)
def _moves(src: Tuple[str, ...], dst: Tuple[str, ...]) -> Tuple[Tuple[int, int, int], ...]:
    """How to move the exponent fields of a key over the variables src
    into a key over dst, each variable to the position of its name in dst
    and dropped when dst lacks it: a (shift, mask, to) triple per maximal
    run of variables that land on consecutive positions, the run's fields
    being key >> shift & mask, moved << to."""
    position = {v: j for j, v in enumerate(dst)}
    targets = [position.get(v) for v in src]
    n, width = len(src), len(dst)
    runs = []
    i = 0
    while i < n:
        to = targets[i]
        j = i + 1
        if to is not None:
            while j < n and targets[j] is not None and targets[j] == to + j - i:
                j += 1
            runs.append((8 * (n - j), (1 << 8 * (j - i)) - 1, 8 * (width - to - (j - i))))
        i = j
    return tuple(runs)


def coefficient_columns(columns: Sequence[Sequence[MultiPoly]]) -> List[List[GaussianRational]]:
    """The coordinates of each column, a sequence of polynomials, over the
    monomials the columns use: one coordinate per (position in the column,
    monomial) that occurs in any of them, in first-seen order, ZERO where
    the column has no such term."""
    support: Dict[Tuple[int, int], int] = {}
    for column in columns:
        for i, p in enumerate(column):
            for k in p.terms:
                support.setdefault((i, k), len(support))
    out = []
    for column in columns:
        coords = [ZERO] * len(support)
        for i, p in enumerate(column):
            for k, c in p.terms.items():
                coords[support[(i, k)]] = c
        out.append(coords)
    return out


def _add_into(acc: Dict[int, GaussianRational],
              terms: Mapping[int, GaussianRational]) -> Dict[int, GaussianRational]:
    """Add terms into the dict acc in place, dropping sums that cancel;
    returns acc."""
    for e, c in terms.items():
        s = acc.get(e)
        if s is None:
            acc[e] = c
        else:
            s = s + c
            if s:
                acc[e] = s
            else:
                del acc[e]
    return acc


def poly_sum(variables: Sequence[str], polys: Iterable[MultiPoly]) -> MultiPoly:
    """The sum of polys, all over `variables`, accumulated in one dict."""
    v = tuple(variables)
    acc: Dict[int, GaussianRational] = {}
    for p in polys:
        if p.vars != v:
            raise ValueError(f"variable mismatch: {v} vs {p.vars}")
        _add_into(acc, p.terms)
    return _poly(v, acc)


def denominator_lcm(*polys: MultiPoly) -> int:
    """The least common multiple of the denominators of the real and
    imaginary parts of every coefficient of polys: multiplied by it, each
    has Gaussian-integer coefficients."""
    return lcm(*{x.denominator for p in polys for c in p.terms.values() for x in (c.re, c.im)})


def _moved(terms: Mapping[int, GaussianRational], src: Tuple[str, ...],
           dst: Tuple[str, ...]) -> Dict[int, GaussianRational]:
    """The terms, keyed over src, rekeyed over dst by the runs of _moves."""
    n, m = len(src), len(dst)
    runs = _moves(src, dst)
    out: Dict[int, GaussianRational] = {}
    for k, c in terms.items():
        key = k >> 8 * n << 8 * m
        for shift, mask, to in runs:
            key |= (k >> shift & mask) << to
        out[key] = c
    return out


def _compose(p: MultiPoly, target: Tuple[str, ...], images) -> MultiPoly:
    """p with each mapped variable x_i replaced by its image, over
    `target`: the sum over the terms c * prod x_i**k_i of p of
    c * prod num_i[k_i] * den_i[top_i - k_i] times the kept variables.

    images maps the index i in p.vars of each mapped variable to a triple
    (num_i, den_i, top_i): the Powers of its image's numerator and
    denominator and the degree top_i of the common denominator
    den_i**top_i, which no k_i exceeds; a polynomial image has top_i = 0
    and no den_i. Every other variable of p is kept and moves to the
    position of its name in `target`, which must hold those p uses.

    `_horner` splits the largest image (by |num| * |den|, |num| when top
    is 0; ties by index) first: its powers multiply once per distinct
    exponent, and the variables split later, whose powers multiply once
    per part, have the smaller images."""
    order = sorted(images, key=lambda i: (-_image_size(images[i]), i))
    terms = _horner(p.terms, [_chain(len(p.vars), i, images[i]) for i in order], 0,
                    None if target == p.vars else (p.vars, target))
    return _poly(target, dict(terms) if terms is p.terms else terms)


def _chain(width: int, idx: int, image):
    """A level of `_horner`: the field shift of variable idx in a key over
    width variables, its key as a monomial, and its image's triple."""
    shift = 8 * (width - 1 - idx)
    return (shift, (1 << 8 * width) + (1 << shift), *image)


def _image_size(image) -> int:
    num, den, top = image
    return len(num[1].terms) * (len(den[1].terms) if top else 1)


def _horner(terms: Dict[int, GaussianRational], chains, level: int,
            move: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]) -> Dict[int, GaussianRational]:
    """The terms of _compose over chains[level:] for `terms`, whose
    exponents on the variables of chains[:level] are 0: Horner's rule,
    one mapped variable per level. The terms are split by its exponent k
    with a shift and a mask, each part is composed over the levels left
    and multiplied once by num[k] * den[top - k]. A part with every mapped
    exponent split off is rekeyed by move, a (src, dst) pair of variable
    tuples, or returned as it is when move is None (`terms` itself when
    there is no level). A module-level function, not a closure, so a
    call leaves no reference cycle holding the Powers caches."""
    if level == len(chains):
        return terms if move is None else _moved(terms, *move)
    shift, unit, num, den, top = chains[level]
    split: Dict[int, Dict[int, GaussianRational]] = {}
    for k, c in terms.items():
        e = k >> shift & 255
        split.setdefault(e, {})[k - e * unit] = c
    acc: Optional[Dict[int, GaussianRational]] = None
    for e, part in split.items():
        part = _horner(part, chains, level + 1, move)
        if e:
            part = _product(part, num[e].terms, None)
        if top > e:
            part = _product(part, den[top - e].terms, None)
        # each part is a fresh dict, so the first takes in the others
        acc = part if acc is None else _add_into(acc, part)
    return {} if acc is None else acc


def conjugation_pairing(holo_vars: Sequence[str], anti_vars: Sequence[str]) -> Dict[str, str]:
    """The involution swapping each holomorphic name with its conjugate."""
    pairing = dict(zip(holo_vars, anti_vars))
    pairing.update(zip(anti_vars, holo_vars))
    return pairing


def merge_vars(*groups: Iterable[str]) -> Tuple[str, ...]:
    """Union of variable tuples, preserving first-seen order."""
    seen = []
    for group in groups:
        for v in group:
            if v not in seen:
                seen.append(v)
    return tuple(seen)


def mul_trunc(a: MultiPoly, b: MultiPoly, cutoff: int) -> MultiPoly:
    """Product truncated to total degree <= cutoff."""
    a._check_same_vars(b)
    # total degree <= cutoff exactly when the key is below this one
    return _poly(a.vars, _product(a.terms, b.terms, cutoff + 1 << 8 * len(a.vars)))


def poly_div_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f / g. Raises ZeroDivisionError when g is zero,
    ValueError when the variable tuples differ or g does not divide f.

    The remainder is a copy of f's terms, worked in place: each quotient
    term divides the remainder's leading key (one max) by g's, after a
    check, field by field, that g's leading monomial divides it, and then
    subtracts itself times g's other terms from the remainder, whose
    leading term it cancels exactly. Every key it touches is below the
    leading one, so the loop ends."""
    if not g.terms:
        raise ZeroDivisionError("polynomial division by zero")
    f._check_same_vars(g)
    n = len(f.vars)
    top = max(g.terms)
    lead = g.terms[top]
    # the nonzero exponent fields of g's leading monomial, as (shift, exponent)
    fields = [(s, top >> s & 255) for s in range(0, 8 * n, 8) if top >> s & 255]
    # the other terms of g, keyed relative to its leading monomial
    tail = [(k - top, c) for k, c in g.terms.items() if k != top]
    rem = dict(f.terms)
    quotient: Dict[int, GaussianRational] = {}
    while rem:
        k = max(rem)
        if any(k >> s & 255 < e for s, e in fields):
            raise ValueError("inexact polynomial division")
        q = quotient[k - top] = rem.pop(k) / lead
        for offset, c in tail:
            key = k + offset
            s = rem.get(key)
            if s is None:
                rem[key] = -(q * c)
            else:
                s = s - q * c
                if s:
                    rem[key] = s
                else:
                    del rem[key]
    return _poly(f.vars, quotient)


def _top_byte(key: int) -> int:
    """The total degree of a term key: its top nonzero byte, or 0."""
    return key >> (key.bit_length() - 1 & ~7) if key else 0


def _product(a_terms: Mapping[int, GaussianRational],
             b_terms: Mapping[int, GaussianRational],
             limit: Optional[int]) -> Dict[int, GaussianRational]:
    """Terms of the product of two term dicts, keeping the keys below
    limit (all terms when limit is None).

    Raises OverflowError before it starts when the degrees of the two
    highest keys sum above MAX_DEGREE, even if a limit would drop every
    term of that degree; below the bound, the key of a product of two
    terms is the sum of their keys. A factor that is one term with
    coefficient 1 only shifts the keys of the other, whose coefficients
    are kept, and any other one-term factor shifts them and scales each
    coefficient by its own (a field has no zero divisors, so no term
    cancels). Otherwise each coefficient's (re, im) parts are read once
    and every term pair is multiplied and summed in plain int/Fraction
    arithmetic; a real pair skips the imaginary products. One
    GaussianRational is built per nonzero output term, in first-seen
    order.
    """
    if not a_terms or not b_terms:
        return {}
    da, db = _top_byte(max(a_terms)), _top_byte(max(b_terms))
    if da + db > MAX_DEGREE:
        raise OverflowError(f"polynomial product: total degree {da} + {db} exceeds "
                            f"{MAX_DEGREE}, the most a term key holds")
    for mono, other in ((b_terms, a_terms), (a_terms, b_terms)):
        if len(mono) == 1:
            (shift, unit), = mono.items()
            if unit == ONE:
                return {k + shift: c for k, c in other.items()
                        if limit is None or k + shift < limit}
            return {k + shift: c * unit for k, c in other.items()
                    if limit is None or k + shift < limit}
    b_items = [(k, c.re, c.im) for k, c in b_terms.items()]
    acc: Dict[int, list] = {}
    for k1, c1 in a_terms.items():
        row = b_items
        if limit is not None:
            room = limit - k1
            row = [t for t in b_items if t[0] < room]
        r1, i1 = c1.re, c1.im
        for k2, r2, i2 in row:
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
    return {k: _gr(_canon(re), _canon(im)) for k, (re, im) in acc.items() if re or im}


class RationalFunction:
    """Quotient num/den of polynomials over a shared variable tuple.

    Never normalized to lowest terms in storage, and equality goes
    through cross-multiplication. verify_surface_map reduces each map
    component at use (linalg.lowest_terms) and then scales its num and
    den by one integer to Gaussian-integer coefficients
    (denominator_lcm), which changes neither its value nor its zeros."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Optional[MultiPoly] = None):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        num._check_same_vars(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def from_scalar(cls, variables: Sequence[str], value: ScalarLike) -> "RationalFunction":
        return cls(MultiPoly.const(variables, value))

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.num.vars

    def is_polynomial(self) -> bool:
        return self.den == MultiPoly.const(self.vars, 1)

    def with_vars(self, variables: Sequence[str]) -> "RationalFunction":
        return RationalFunction(self.num.with_vars(variables), self.den.with_vars(variables))

    def conjugate(self, pairing: Mapping[str, str]) -> "RationalFunction":
        return RationalFunction(self.num.conjugate(pairing), self.den.conjugate(pairing))

    def _coerced(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction.from_scalar(self.vars, other)
        raise TypeError(f"cannot combine rational function with {other!r}")

    def __add__(self, other):
        other = self._coerced(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        try:
            other = self._coerced(other)
        except TypeError:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("rational functions are not hashable (unreduced representation)")

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def substitute(p: MultiPoly, assignment: Mapping[str, object]) -> RationalFunction:
    """Compose p with rational-function values for its variables.

    Every variable occurring in p must be assigned. The result is left
    over the common denominator prod(den_v ** maxdeg_v), the product of
    the assignment denominators, exactly as stated by the contract.
    """
    used = p.used_vars()
    missing = [v for v in used if v not in assignment]
    if missing:
        raise ValueError(f"no assignment for variable {missing[0]!r}")

    universes = {value.vars for value in assignment.values()
                 if isinstance(value, (MultiPoly, RationalFunction))}
    if len(universes) > 1:
        raise ValueError("assignment values must share a variable tuple")
    target = universes.pop() if universes else p.vars
    # images for the used variables only; the others have exponent 0 throughout
    images = {}
    den_total = MultiPoly.const(target, 1)
    for v in used:
        value = assignment[v]
        if isinstance(value, MultiPoly):
            value = RationalFunction(value)
        elif isinstance(value, (int, Fraction, GaussianRational)):
            value = RationalFunction.from_scalar(target, value)
        elif not isinstance(value, RationalFunction):
            raise TypeError(f"assignment for {v!r} is not a rational function")
        top = p.degree(v)
        den_pows = Powers(value.den)
        images[p.vars.index(v)] = (Powers(value.num), den_pows, top)
        den_total = den_total * den_pows[top]
    return RationalFunction(_compose(p, target, images), den_total)


def series_expand(nums: Sequence[MultiPoly], den: MultiPoly,
                  cutoff: int) -> Tuple[Rational, List[MultiPoly]]:
    """Truncated Taylor expansions at the origin of num/den through
    `cutoff`, one for each num in nums, all over one inverse of den,
    each kept as an exact multiple N * (num/den) of the true expansion.

    Returns (N, [N * expansion of num/den for num in nums]). N is a
    nonzero real rational: c0**(cutoff+1) for a real c0 = den(0), and
    |c0|**(2 * (cutoff+1)) = (c0 * conj c0)**(cutoff+1) otherwise, so N
    is an integer when c0 is a Gaussian integer. A real N keeps every
    zero test and every reality test of a result; dividing a result by
    N gives the true expansion. Requires c0 != 0. Multiplying each
    result back by den agrees with N * num through total degree cutoff.

    The inverse is taken once, over the coefficient ring of den, by the
    coefficient recurrence of a power series reciprocal (Knuth, TAOCP
    Vol. 2, 4.7): A = N / den through the cutoff has A[0] = N / c0 and
    c0 * A[m] = -sum_t den[t] * A[m - t] over the nonconstant terms t
    of den. Each A[m] is pushed forward to the keys m + t once it is
    final, so no key is ever subtracted, and the sums are kept by
    degree, each degree final before the next is read. Only the
    monomials reachable from 1 by multiplying terms of den are visited.
    Each sum runs in plain (re, im) int/Fraction parts, and each A[m] is
    one exact division by c0, so an integer den keeps int entries. Each
    num is then one truncated product with A; nothing is divided after.
    """
    c0 = den.const_coeff()
    if not c0:
        raise ValueError("singular expansion point: denominator vanishes at 0")
    shift = 8 * len(den.vars)
    # the negated nonconstant terms of den through the cutoff, by degree:
    # (key, total degree, re, im)
    tails = sorted((k, k >> shift, -c.re, -c.im) for k, c in den.terms.items()
                   if 0 < k < cutoff + 1 << shift)
    a, b = c0.re, c0.im
    norm = a * a + b * b
    scale = _canon((norm if b else a) ** (cutoff + 1))
    # levels[d]: c0 * A[m] in (re, im) parts for each key m of degree d reached
    levels: List[Dict[int, list]] = [{} for _ in range(cutoff + 1)]
    levels[0][0] = [scale, 0]
    inv: Dict[int, GaussianRational] = {}
    for d, level in enumerate(levels):
        for m, (re, im) in level.items():
            if b:
                re, im = _div(re * a + im * b, norm), _div(im * a - re * b, norm)
            else:
                re, im = _div(re, a), _div(im, a)
            if not (re or im):
                continue
            inv[m] = _gr(re, im)
            for t, dt, tr, ti in tails:
                if d + dt > cutoff:
                    break
                if im or ti:
                    pr = re * tr - im * ti
                    pi = re * ti + im * tr
                else:
                    pr = re * tr
                    pi = 0
                out = levels[d + dt]
                s = out.get(m + t)
                if s is None:
                    out[m + t] = [pr, pi]
                else:
                    s[0] += pr
                    s[1] += pi
    inverse = _poly(den.vars, inv)
    return scale, [mul_trunc(num.truncate(cutoff), inverse, cutoff) for num in nums]
