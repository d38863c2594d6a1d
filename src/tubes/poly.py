"""Sparse exact multivariate polynomials and rational functions.

A polynomial stores an ordered variable tuple and two term dicts that
map term keys to nonzero canonical rationals: `re_terms`, the real
parts of its coefficients, and `im_terms`, the imaginary parts, empty
for a real polynomial. Every operation works part by part and skips an
empty imaginary part, so a polynomial costs what the ring of its data
costs. GaussianRational is the scalar of the public edges only (`coeff`,
`const_coeff`, `eval_at`, `__str__`, and `terms`, which
boxes every coefficient for code outside the package); `sorted_terms`
hands out each coefficient as its (re, im) parts, `values_at` the
(re, im) parts of values at a point, and
`coefficient_columns` and `tangency_rows` hand the linear solves the
parts themselves, as real coordinates.
Binary operations insist that the variable tuples match exactly; the
package juggles several coordinate systems (x, z, w and their
conjugates) and silent mixing would be a correctness hazard.

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
`coeff` and `sorted_terms`.

Every composition of polynomials or rational functions is one call of
`substitute`, which takes polynomial, rational or scalar values for
some variables and keeps every other variable as it is, in the target
universe; `subs_poly` is its numerator. It runs one Horner routine over
term keys, `_horner`, which splits the terms by one mapped variable's
exponent per level with a shift and a mask. `_compose` takes images for
the mapped variables only, {index in p: (Powers of the numerator,
Powers of the denominator, top degree)}; every other variable is kept
and moves into the target universe by the runs of `_moves`.
`substitute` pools the image denominators by the variables they use
(`_shared_bases`): in each pool, the member of least degree is a base,
shared when it divides two or more members, and each member's quotient
by its power of the base stays in its Horner level. `_compose` groups
the terms of p by their need of the shared bases. Only powers of a
least member are shared: (w+1)(w-1) with (w+1)**2 shares nothing and
stays over the product of the two. The powers of a polynomial are kept
in one cache, `Powers`, which the composer and the chart scan's
`subs_each` both read.

Term dicts are built only in this module: through `MultiPoly.__init__`,
which checks and coerces input from outside the engine, or through the
trusted `_poly`, which takes over dicts the engine built. Sums of many
polynomials accumulate into one dict per part (`poly_sum`, `_add_into`),
and so do sums of products (`product_sum`, which builds each component
of a Lie bracket); an exact division works on one remainder dict per
part (`poly_div_exact`). Point values (`values_at`, and `eval_at` for
one polynomial) are read straight off the term keys, through one power
table per used variable shared by every polynomial evaluated, without
building a polynomial; `specialize_each` sets variables to constants in
many polynomials through such shared tables (`specialize` for one).

The Grassmannian chart scan of symmetry.py runs on bare real parts, and
two helpers here serve it: `linear_pivot` finds an equation's pivot
among its keys of degree 1, and `subs_each` puts one value in for one
variable of many parts, one multiply-accumulate per part against one
list of the value's powers, returning a part that lacks the variable as
it is. Both take and give {term key: rational} dicts; the scan wraps
with `_poly` only what its outcome keeps. The tangency solve of
`affine_symmetry_algebra` reads its rows straight off the defining
polynomial's terms (`tangency_rows`). Every loop that builds terms of a
higher degree raises OverflowError before it builds one above
MAX_DEGREE.

Every product of two polynomials (`_product`) and every sum of products
(`product_sum`) is one multiply-accumulate over the pairs of nonempty
(re, im) parts (`_mac`), but for a one-term real factor, which shifts
and scales the other (`_shifted`). A constant factor, a scalar multiple
among them, skips the degree check, since it raises no degree.

Rational functions are unreduced num/den pairs. Equality is decided by
cross-multiplication; no multivariate gcd is ever computed. Every
polynomial division runs one loop, `_divmod`, which stops at the first
remainder term that the divisor's leading monomial does not divide:
`poly_div_exact` raises there, the trial divisions of `_shared_bases`
read the remainder, and `lowest_terms` runs the one gcd, Euclid's
algorithm over Q(i)[x] for a denominator in one variable x, on
polynomials whose terms use x alone. Truncated expansions of rational
functions (`series_expand`) run the coefficient recurrence of a power
series quotient once per numerator, in plain (re, im) parts, seeded
with that numerator; no inverse of the denominator is built and no
truncated product taken.
They come back as N times the true expansions, for one real rational N
that is returned with them and never divided back here: N is a power
of den(0), or of |den(0)|^2, and an integer for an integer denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .scalars import ZERO, GaussianRational, Rational, ScalarLike, _canon, _div, _gr

# an exponent tuple, as the public edges take and give monomials
Exponents = Tuple[int, ...]
# one part of a polynomial: {term key: nonzero canonical rational}
Terms = Dict[int, Rational]
# the largest total degree a term key holds
MAX_DEGREE = 255
# the imaginary part of every real polynomial: one shared, read-only empty part
_NO_TERMS = MappingProxyType({})


def _items(re_terms: Terms, im_terms: Terms) -> Iterator[Tuple[int, Rational, Rational]]:
    """(key, re, im) per term: the keys of re_terms, then those only in im_terms."""
    for k, c in re_terms.items():
        yield k, c, im_terms.get(k, 0) if im_terms else 0
    for k, c in im_terms.items():
        if k not in re_terms:
            yield k, 0, c


class MultiPoly:
    __slots__ = ("vars", "re_terms", "im_terms")

    def __init__(self, variables: Sequence[str],
                 terms: Union[Mapping[Exponents, ScalarLike],
                              List[Tuple[Sequence[int], ScalarLike]], None] = None):
        """The polynomial over `variables` with these terms: a mapping from
        exponent tuples to coefficients, or a list of (exponents, coefficient)
        pairs in which no exponent vector occurs twice. Raises ValueError for
        an exponent vector of the wrong width, with an entry that is not a
        nonnegative int, or listed twice, and OverflowError for a term of
        total degree above MAX_DEGREE."""
        self.vars: Tuple[str, ...] = _distinct(variables)
        re: Terms = {}
        im: Terms = {}
        if terms:
            width = len(self.vars)
            listed = type(terms) is list
            seen = set()
            for exps, coeff in terms if listed else terms.items():
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
                key = degree << 8 * width | int.from_bytes(fields, "big")
                if listed:
                    if key in seen:
                        raise ValueError(f"exponent vector {exps} is listed twice")
                    seen.add(key)
                r, i = _parts(coeff)
                if r:
                    re[key] = r
                if i:
                    im[key] = i
        self.re_terms = re
        self.im_terms = im or _NO_TERMS

    # {term key: GaussianRational}, boxed on each read; no package path reads
    # it, only code outside the package (the benchmark's tracing wrappers)
    terms = property(lambda p: {k: _gr(re, im) for k, re, im in _items(p.re_terms, p.im_terms)})

    # ---------------------------------------------------------------- basics

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return _poly(tuple(variables), {})

    @staticmethod
    def const(variables: Sequence[str], value: ScalarLike) -> "MultiPoly":
        r, i = _parts(value)
        return _poly(tuple(variables), {0: r} if r else {}, {0: i} if i else {})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "MultiPoly":
        v = tuple(variables)
        if name not in v:
            raise ValueError(f"variable {name!r} not among {v}")
        n = len(v)
        return _poly(v, {(1 << 8 * n) + (1 << 8 * (n - 1 - v.index(name))): 1})

    def is_zero(self) -> bool:
        return not self.re_terms and not self.im_terms

    def __bool__(self) -> bool:
        return bool(self.re_terms) or bool(self.im_terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return (self.vars == other.vars and self.re_terms == other.re_terms
                    and self.im_terms == other.im_terms)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == MultiPoly.const(self.vars, other)
        return NotImplemented

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
        ai, bi = self.im_terms, other.im_terms
        return _poly(self.vars, _add_into(dict(self.re_terms), other.re_terms),
                     _add_into(dict(ai), bi) if ai or bi else {})

    __radd__ = __add__

    def __neg__(self):
        im = self.im_terms
        return _poly(self.vars, {e: -c for e, c in self.re_terms.items()},
                     {e: -c for e, c in im.items()} if im else {})

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
            r, i = _parts(other)
            return _poly(self.vars, *_product(self.re_terms, self.im_terms,
                                              {0: r} if r else {}, {0: i} if i else {}))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_vars(other)
        return _poly(self.vars, *_product(self.re_terms, self.im_terms,
                                          other.re_terms, other.im_terms))

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
        for k in [*self.re_terms, *self.im_terms]:
            seen |= k
        n = len(self.vars)
        return tuple(v for i, v in enumerate(self.vars) if seen >> 8 * (n - 1 - i) & 255)

    def degree(self, name: Optional[str] = None) -> int:
        """The total degree of self, or its degree in the variable `name`;
        0 for the zero polynomial."""
        if not self:
            return 0
        n = len(self.vars)
        keys = _keys(self)
        if name is None:
            return max(keys) >> 8 * n
        shift = 8 * (n - 1 - self.vars.index(name))
        return max(k >> shift & 255 for k in keys)

    def is_real(self) -> bool:
        """Whether every coefficient is real."""
        return not self.im_terms

    def coeff(self, exps: Exponents) -> GaussianRational:
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            return ZERO
        try:
            key = int.from_bytes(bytes((sum(exps), *exps)), "big")
        except ValueError:  # no term key holds this monomial
            return ZERO
        return _gr(self.re_terms.get(key, 0), self.im_terms.get(key, 0))

    def const_coeff(self) -> GaussianRational:
        return _gr(self.re_terms.get(0, 0), self.im_terms.get(0, 0))

    def sorted_terms(self) -> List[Tuple[Exponents, Rational, Rational]]:
        """Terms in graded-lexicographic order, highest first, each as its
        exponents and the real and imaginary parts of its coefficient."""
        n = len(self.vars)
        re_terms, im_terms = self.re_terms, self.im_terms
        if not im_terms:
            return [(tuple(k.to_bytes(n + 1, "big")[1:]), c, 0)
                    for k, c in sorted(re_terms.items(), reverse=True)]
        return [(tuple(k.to_bytes(n + 1, "big")[1:]), re_terms.get(k, 0), im_terms.get(k, 0))
                for k in sorted(_keys(self), reverse=True)]

    # ------------------------------------------------------------- calculus

    def diff(self, name: str) -> "MultiPoly":
        shift = 8 * (len(self.vars) - 1 - self.vars.index(name))
        unit = (1 << 8 * len(self.vars)) + (1 << shift)
        # distinct keys stay distinct, so no two terms meet
        parts = []
        for terms in (self.re_terms, self.im_terms):
            out = {}
            for k, c in terms.items():
                e = k >> shift & 255
                if e:
                    out[k - unit] = c * e if type(c) is int else _canon(c * e)
            parts.append(out)
        return _poly(self.vars, *parts)

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
        return _poly(newvars, _moved(self.re_terms, self.vars, newvars),
                     _moved(self.im_terms, self.vars, newvars))

    def rename_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        return _poly(_distinct(mapping.get(v, v) for v in self.vars),
                     dict(self.re_terms), dict(self.im_terms))

    def subs_poly(self, mapping: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Polynomial substitution: `substitute`'s numerator, under its
        variable rule. The values share one variable tuple, the target,
        and each unmapped variable of self stays as it is, so it must be
        a variable of the target too."""
        return substitute(self, mapping).num

    def specialize(self, values: Mapping[str, ScalarLike]) -> "MultiPoly":
        """Set the variables named in `values` to those constants; the
        result lives over the remaining variables, in order. Names that
        are not variables of self are ignored (`specialize_each`)."""
        return specialize_each((self,), values)[0]

    def eval_at(self, point: Mapping[str, ScalarLike]) -> GaussianRational:
        """The value of self at a point, a mapping that must hold every
        used variable (others are ignored), by `values_at`. Raises
        ValueError naming the first used variable, in variable order,
        that the point lacks."""
        return _gr(*values_at((self,), point)[0])

    def truncate(self, cutoff: int) -> "MultiPoly":
        # total degree <= cutoff exactly when the key is below this one
        limit = cutoff + 1 << 8 * len(self.vars)
        im = self.im_terms
        return _poly(self.vars, {k: c for k, c in self.re_terms.items() if k < limit},
                     {k: c for k, c in im.items() if k < limit} if im else {})

    # ----------------------------------------------------- conjugation, split

    def conjugate(self, pairing: Mapping[str, str]) -> "MultiPoly":
        """Swap paired variables and conjugate coefficients, under the
        rules of `conjugate_each`."""
        return conjugate_each([self], pairing)[0]

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
        parts: Dict[Tuple[int, int], Tuple[Terms, Terms]] = {}
        for side, terms in enumerate((self.re_terms, self.im_terms)):
            for k, c in terms.items():
                h = (k & hmask) * lows >> at & 255
                key = (h, (k >> 8 * n) - h)
                part = parts.get(key)
                if part is None:
                    part = parts[key] = ({}, {})
                part[side][k] = c
        return {key: _poly(self.vars, *part) for key, part in parts.items()}

    def split_squares(self, name: str) -> Dict[int, "MultiPoly"]:
        """self grouped by j = e // 2, e being the exponent of `name` in a
        term: {j: the terms with that j, each with name**(2 * j) taken off
        its key}. Within a group no two keys meet."""
        shift = 8 * (len(self.vars) - 1 - self.vars.index(name))
        unit = 2 * ((1 << 8 * len(self.vars)) + (1 << shift))
        parts: Dict[int, Tuple[Terms, Terms]] = {}
        for side, terms in enumerate((self.re_terms, self.im_terms)):
            for k, c in terms.items():
                j = (k >> shift & 255) // 2
                part = parts.get(j)
                if part is None:
                    part = parts[j] = ({}, {})
                part[side][k - j * unit] = c
        return {j: _poly(self.vars, *part) for j, part in parts.items()}

    def cancel_pair(self, a: str, b: str) -> "MultiPoly":
        """self under a * b = 1: each term with a**m * b**m taken off its
        key, m being the smaller of its exponents of a and b, into one dict
        per part, where terms that meet are summed and a zero sum dropped."""
        n = len(self.vars)
        sa = 8 * (n - 1 - self.vars.index(a))
        sb = 8 * (n - 1 - self.vars.index(b))
        pair = (2 << 8 * n) + (1 << sa) + (1 << sb)
        parts = []
        for terms in (self.re_terms, self.im_terms):
            acc: Dict[int, Rational] = {}
            for k, c in terms.items():
                key = k - min(k >> sa & 255, k >> sb & 255) * pair
                s = acc.get(key)
                acc[key] = c if s is None else s + c
            parts.append(_canonical(acc))
        return _poly(self.vars, *parts)

    # ---------------------------------------------------------------- output

    def __str__(self) -> str:
        """The terms, highest first, each as its coefficient times the
        variables it uses. A key's variables are read off its nonzero
        exponent fields, highest (variable 0) first, so a term costs its
        own variables, not all of self's. A real coefficient prints as
        its rational."""
        if not self:
            return "0"
        n = len(self.vars)
        names = self.vars[::-1]  # names[b] owns the exponent field at byte b
        fields = (1 << 8 * n) - 1
        re_terms, im_terms = self.re_terms, self.im_terms
        bits = []
        for k in sorted(_keys(self), reverse=True):
            c = re_terms.get(k, 0)
            if im_terms and k in im_terms:
                c = _gr(c, im_terms[k])
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
            elif c == 1:
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
        self._pows = [_poly(base.vars, {0: 1}), base]

    def __getitem__(self, k: int) -> MultiPoly:
        pows = self._pows
        top = len(pows) - 1
        while top < k:
            pows.append(pows[top] * pows[1])
            top += 1
        return pows[k]


def linear_pivot(terms: Terms, variables: Tuple[str, ...]) -> Optional[Tuple[str, int, Rational]]:
    """(name, key, c) for the variable of smallest name, in string order,
    that occurs in one term of the real part `terms` over `variables`
    only, that term being c * name with key `key`; None when there is
    none. Only the keys of total degree 1 are candidates, and a candidate
    whose name beats the best so far is taken when no other key has a
    nonzero exponent field for its variable."""
    n = len(variables)
    top = 8 * n
    best = None
    for k, c in terms.items():
        if k >> top == 1:
            # the one nonzero exponent field holds 1, so low is its low bit
            low = k - (1 << top)
            name = variables[n - 1 - (low.bit_length() - 1) // 8]
            if best is None or name < best[0]:
                field = 255 * low
                for j in terms:
                    if j & field and j != k:
                        break
                else:
                    best = name, k, c
    return best


def subs_each(parts: Sequence[Terms], variables: Tuple[str, ...], name: str,
              value: Terms) -> List[Terms]:
    """Each of parts, real parts over `variables`, with the variable `name`
    replaced by the real polynomial whose part is value. A part in which
    `name` occurs is one multiply-accumulate: each term c * m * name**e
    adds c times the terms of value**e, shifted by m, into one dict that
    one `_canonical` cleans. The powers of value are one `Powers`, shared
    by all the parts and grown on demand; the terms of each power are
    fetched from it once per call. A part in which `name` does not occur
    is returned as it is, the same dict. Raises OverflowError before it
    builds a term above MAX_DEGREE."""
    width = len(variables)
    shift = 8 * (width - 1 - variables.index(name))
    unit = (1 << 8 * width) + (1 << shift)
    field = 255 << shift
    top = 8 * width
    # a term's total degree grows by this much per unit of its exponent of name
    grow = (max(value) >> top) - 1 if value else -1
    pows = Powers(_poly(variables, value))
    # pow_terms[e] is the real part of value**e, read off pows once
    pow_terms: List[Terms] = []
    out = []
    for p in parts:
        for k in p:
            if k & field:
                break
        else:
            out.append(p)
            continue
        acc: Dict[int, Rational] = {}
        get = acc.get
        for k, c in p.items():
            e = k >> shift & 255
            if not e:
                s = get(k)
                acc[k] = c if s is None else s + c
                continue
            if grow > 0 and (k >> top) + e * grow > MAX_DEGREE:
                raise OverflowError(f"substitution: total degree {(k >> top) + e * grow} "
                                    f"exceeds {MAX_DEGREE}, the most a term key holds")
            base = k - e * unit
            while len(pow_terms) <= e:
                pow_terms.append(pows[len(pow_terms)].re_terms)
            for kv, cv in pow_terms[e].items():
                key = base + kv
                s = get(key)
                acc[key] = c * cv if s is None else s + c * cv
        out.append(_canonical(acc))
    return out


def tangency_rows(p: MultiPoly) -> List[List[Rational]]:
    """The rows of the tangency solve of `symmetry.affine_symmetry_algebra`
    for the real part of p over n variables: one row per monomial of the
    polynomials x_j dp/dx_i (unknown a_ij, column n * i + j), dp/dx_i
    (unknown b_i, column n * n + i) and -p (unknown c, column n * n + n),
    in first-seen order, holding their coefficients there and 0
    elsewhere. Each is read straight off p's terms: the term c * m of p
    gives c * e_i at m / x_i * x_j and at m / x_i, e_i being the exponent
    of x_i in m, and -c at m. No two terms meet in one cell, and no key
    rises above p's degree."""
    n = len(p.vars)
    units = variable_keys(p.vars)
    width = n * n + n + 1
    rows: Dict[int, List[Rational]] = {}

    def row(key: int) -> List[Rational]:
        r = rows.get(key)
        if r is None:
            r = rows[key] = [0] * width
        return r

    for k, c in p.re_terms.items():
        row(k)[width - 1] = -c
        for i, unit in enumerate(units):
            e = k >> 8 * (n - 1 - i) & 255
            if e:
                d = c * e if type(c) is int else _canon(c * e)
                base = k - unit
                row(base)[n * n + i] = d
                for j, other in enumerate(units):
                    row(base + other)[n * i + j] = d
    return list(rows.values())


def _poly(variables: Tuple[str, ...], re_terms: Terms,
          im_terms: Optional[Terms] = None) -> MultiPoly:
    """Trusted constructor: takes over the parts, unchecked: term keys over
    `variables` to nonzero canonical rationals, im_terms empty or None."""
    p = object.__new__(MultiPoly)
    p.vars = variables
    p.re_terms = re_terms
    p.im_terms = im_terms or _NO_TERMS
    return p


def _parts(value: ScalarLike) -> Tuple[Rational, Rational]:
    """The canonical (re, im) parts of a scalar, boxing no int or Fraction."""
    kind = type(value)
    if kind is int:
        return value, 0
    if kind is not GaussianRational:
        if kind is Fraction:
            return _canon(value), 0
        value = GaussianRational.coerce(value)
    return value.re, value.im


def _keys(p: MultiPoly):
    """The term keys of p."""
    return p.re_terms.keys() | p.im_terms.keys() if p.im_terms else p.re_terms.keys()


def values_at(polys: Sequence[MultiPoly],
              point: Mapping[str, ScalarLike]) -> List[Tuple[Rational, Rational]]:
    """The canonical (re, im) parts of the value of each of polys, all
    over one variable tuple, at a point, a mapping that must hold every
    variable some of them uses (others are ignored). Each term's exponent
    fields are read off its key and its parts multiplied out of one power
    table per used variable, shared by all the polys; no polynomial is
    built, and a real point and real polys give im parts 0 throughout.
    Raises ValueError naming the first variable, in variable order, that
    some poly uses and the point lacks."""
    if not polys:
        return []
    variables = polys[0].vars
    seen = 0
    for p in polys:
        if p.vars != variables:
            raise ValueError(f"variable mismatch: {variables} vs {p.vars}")
        for k in p.re_terms:
            seen |= k
        for k in p.im_terms:
            seen |= k
    n = len(variables)
    # (field shift, powers of the value as (re, im) parts) per used variable
    tables = []
    for i, v in enumerate(variables):
        shift = 8 * (n - 1 - i)
        if seen >> shift & 255:
            if v not in point:
                raise ValueError(f"no value supplied for variable {v!r}")
            tables.append((shift, [None, _parts(point[v])]))
    out = []
    for p in polys:
        re, im = _part_value(p.re_terms, tables)
        if p.im_terms:
            # the imaginary part's value, times i
            x, y = _part_value(p.im_terms, tables)
            re, im = re - y, im + x
        out.append((_canon(re), _canon(im)))
    return out


def specialize_each(polys: Sequence[MultiPoly],
                    values: Mapping[str, ScalarLike]) -> List[MultiPoly]:
    """Each of polys, all over one variable tuple, with the variables
    named in `values` set to those constants, over the remaining
    variables, in order; names that are not variables of them are
    ignored. Each value is coerced once, into one power table per named
    variable that all the polys share."""
    if not polys:
        return []
    variables = polys[0].vars
    n = len(variables)
    tables = [(8 * (n - 1 - i), [None, _parts(values[v])])
              for i, v in enumerate(variables) if v in values]
    rest = tuple(v for v in variables if v not in values)
    m = len(rest)
    runs = _moves(variables, rest)
    out = []
    for p in polys:
        if p.vars != variables:
            raise ValueError(f"variable mismatch: {variables} vs {p.vars}")
        acc_re: Terms = {}
        acc_im: Terms = {}
        for side, terms in enumerate((p.re_terms, p.im_terms)):
            for k, c in terms.items():
                re, im = (0, c) if side else (c, 0)
                degree = k >> 8 * n
                for shift, pows in tables:
                    e = k >> shift & 255
                    if e:
                        if len(pows) <= e:
                            _extend(pows, e)
                        x, y = pows[e]
                        re, im = (re * x - im * y, re * y + im * x) if im or y else (re * x, 0)
                        degree -= e
                key = degree << 8 * m
                for shift, mask, to in runs:
                    key |= (k >> shift & mask) << to
                if re:
                    s = acc_re.get(key)
                    acc_re[key] = re if s is None else s + re
                if im:
                    s = acc_im.get(key)
                    acc_im[key] = im if s is None else s + im
        out.append(_poly(rest, _canonical(acc_re), _canonical(acc_im)))
    return out


def conjugate_each(polys: Sequence[MultiPoly],
                   pairing: Mapping[str, str]) -> List[MultiPoly]:
    """Each of polys, all over one variable tuple, with paired variables
    swapped and coefficients conjugated. The pairing must be an
    involution on names, in which a variable may be paired with itself (a
    real variable), and every variable that a poly uses must be paired.
    The pairing is checked, and the swap planned, once for all of polys."""
    variables = polys[0].vars if polys else ()
    for a, b in pairing.items():
        if pairing.get(b) != a:
            raise ValueError(f"pairing is not an involution at {a!r}")
    for v in variables:
        if v in pairing and pairing[v] not in variables:
            raise ValueError(f"conjugate variable {pairing[v]!r} absent from {variables}")
    paired = all(v in pairing for v in variables)
    swapped = tuple(pairing.get(v, v) for v in variables)
    out = []
    for p in polys:
        p._check_same_vars(polys[0])
        unpaired = [] if paired else [v for v in p.used_vars() if v not in pairing]
        if unpaired:
            raise ValueError(f"unpaired variables in conjugation: {unpaired}")
        out.append(_poly(variables, _moved(p.re_terms, variables, swapped),
                         {k: -c for k, c in _moved(p.im_terms, variables, swapped).items()}))
    return out


def _part_value(terms: Terms, tables) -> Tuple[Rational, Rational]:
    """The (re, im) value of one part at a point given by tables, a
    (field shift, [None, (re, im) of the value, ...]) pair per variable."""
    total_re = total_im = 0
    for k, c in terms.items():
        re, im = c, 0
        for shift, pows in tables:
            e = k >> shift & 255
            if e:
                if len(pows) <= e:
                    _extend(pows, e)
                x, y = pows[e]
                if im or y:
                    re, im = re * x - im * y, re * y + im * x
                else:
                    re = re * x
        total_re += re
        total_im += im
    return total_re, total_im


def _extend(pows: List, e: int) -> None:
    """Extend a table [None, (re, im) of a value, its square, ...] to e."""
    while len(pows) <= e:
        (a, b), (x, y) = pows[-1], pows[1]
        pows.append((a * x - b * y, a * y + b * x) if b or y else (a * x, 0))


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


def coefficient_columns(columns: Sequence[Sequence[MultiPoly]]) -> List[List[Rational]]:
    """The real coordinates of each column, a sequence of polynomials:
    one rational per (position in the column, part, monomial) that occurs
    in any of them, the part being the real or the imaginary part of a
    coefficient, in first-seen order, 0 where the column has no such
    term. Real weights combine the columns exactly when they combine
    these coordinates."""
    support: Dict[Tuple[int, int, int], int] = {}
    # each column's parts under (position, part, key)
    parts = []
    for column in columns:
        col = {}
        for i, p in enumerate(column):
            for k, c in p.re_terms.items():
                col[i, 0, k] = c
            for k, c in p.im_terms.items():
                col[i, 1, k] = c
        for key in col:
            if key not in support:
                support[key] = len(support)
        parts.append(col)
    out = []
    for col in parts:
        coords = [0] * len(support)
        for key, c in col.items():
            coords[support[key]] = c
        out.append(coords)
    return out


def _canonical(acc: Dict[int, Rational]) -> Terms:
    """The nonzero plain int/Fraction sums of acc, in canonical form."""
    return {k: v if type(v) is int else _canon(v) for k, v in acc.items() if v}


def _add_into(acc: Terms, terms: Terms) -> Terms:
    """Add terms into the dict acc in place, dropping sums that cancel;
    returns acc."""
    for e, c in terms.items():
        s = acc.get(e)
        if s is None:
            acc[e] = c
        else:
            s = s + c
            if s:
                acc[e] = s if type(s) is int else _canon(s)
            else:
                del acc[e]
    return acc


def _shifted(terms: Terms, shift: int, u: Rational) -> Terms:
    """terms times the term u * (monomial of key shift): keys only move,
    and a field has no zero divisors, so no term cancels."""
    if u == 1:
        return {k + shift: c for k, c in terms.items()}
    return {k + shift: x if type(x := c * u) is int else _canon(x) for k, c in terms.items()}


def poly_sum(variables: Sequence[str], polys: Iterable[MultiPoly]) -> MultiPoly:
    """The sum of polys, all over `variables`, in one dict per part."""
    v = tuple(variables)
    acc_re: Terms = {}
    acc_im: Terms = {}
    for p in polys:
        if p.vars != v:
            raise ValueError(f"variable mismatch: {v} vs {p.vars}")
        if p.re_terms:
            _add_into(acc_re, p.re_terms)
        if p.im_terms:
            _add_into(acc_im, p.im_terms)
    return _poly(v, acc_re, acc_im)


def denominator_lcm(*polys: MultiPoly) -> int:
    """The least common multiple of the denominators of the real and
    imaginary parts of every coefficient of polys: multiplied by it, each
    has Gaussian-integer coefficients."""
    return lcm(*{x.denominator for p in polys for terms in (p.re_terms, p.im_terms)
                 for x in terms.values()})


def _moved(terms: Terms, src: Tuple[str, ...], dst: Tuple[str, ...]) -> Terms:
    """The terms, keyed over src, rekeyed over dst by the runs of _moves."""
    if not terms:
        return {}
    n, m = len(src), len(dst)
    runs = _moves(src, dst)
    out: Terms = {}
    for k, c in terms.items():
        key = k >> 8 * n << 8 * m
        for shift, mask, to in runs:
            key |= (k >> shift & mask) << to
        out[key] = c
    return out


def _compose(p: MultiPoly, target: Tuple[str, ...], images, shared=()):
    """p with each mapped variable x_i replaced by its image, over
    `target`: the sum over the terms c * prod x_i**k_i of p of
    c * prod num_i[k_i] * den_i[top_i - k_i] times the kept variables,
    and, with shared bases, times prod B_j**(E_j - sum_i k_i e_ij).
    Returns that composition and the tuple of the E_j.

    images maps the index i in p.vars of each mapped variable to a triple
    (num_i, den_i, top_i): the Powers of its image's numerator and of the
    private part of its denominator and the degree top_i of den_i**top_i,
    which no k_i exceeds; an image with a denominator 1 has top_i = 0 and
    no den_i. Every other variable of p is kept and moves to the
    position of its name in `target`, which must hold those p uses.

    shared holds a pair (Powers of B_j, {i: e_ij}) per base B_j that two
    or more image denominators share, B_j**e_ij being its part in the
    denominator of x_i. The need of B_j in a term is sum_i k_i e_ij and
    E_j is the largest need of a term of p. The terms of equal needs form
    one group, composed once by `_horner` over the same chains, so the
    groups share the Powers of the images, and multiplied by
    prod B_j**(E_j - need_j). With no shared base there is one group and
    one `_horner` call.

    `_horner` splits the largest image (by |num| * |den|, |num| when top
    is 0; ties by index) first: its powers multiply once per distinct
    exponent, and the variables split later, whose powers multiply once
    per part, have the smaller images."""
    order = sorted(images, key=lambda i: (-_image_size(images[i]), i))
    width = len(p.vars)
    chains = [_chain(width, i, images[i]) for i in order]
    move = None if target == p.vars else (p.vars, target)
    if not shared:
        re, im = _horner(p.re_terms, p.im_terms, chains, 0, move)
        return _poly(target, dict(re) if re is p.re_terms else re,
                     dict(im) if im is p.im_terms else im), ()
    fields = [[(8 * (width - 1 - i), e) for i, e in exps.items()] for _, exps in shared]
    groups: Dict[Tuple[int, ...], Tuple[Terms, Terms]] = {}
    for side, terms in enumerate((p.re_terms, p.im_terms)):
        for k, c in terms.items():
            need = tuple([sum([(k >> s & 255) * e for s, e in f]) for f in fields])
            group = groups.get(need)
            if group is None:
                group = groups[need] = ({}, {})
            group[side][k] = c
    tops = tuple(map(max, zip(*groups)))
    acc_re: Terms = {}
    acc_im: Terms = {}
    for need, (re, im) in groups.items():
        re, im = _horner(re, im, chains, 0, move)
        for (pows, _), top, n in zip(shared, tops, need):
            if top > n:
                factor = pows[top - n]
                re, im = _product(re, im, factor.re_terms, factor.im_terms)
        _add_into(acc_re, re)
        if im:
            _add_into(acc_im, im)
    return _poly(target, acc_re, acc_im), tops


def _chain(width: int, idx: int, image):
    """A level of `_horner`: the field shift of variable idx in a key over
    width variables, its key as a monomial, and its image's triple."""
    shift = 8 * (width - 1 - idx)
    return (shift, (1 << 8 * width) + (1 << shift), *image)


def _image_size(image) -> int:
    num, den, top = image
    return len(_keys(num[1])) * (len(_keys(den[1])) if top else 1)


def _split(terms: Terms, shift: int, unit: int) -> Dict[int, Terms]:
    """One part grouped by the exponent at this field shift, taken off
    each key (unit is the variable's key)."""
    parts: Dict[int, Terms] = {}
    for k, c in terms.items():
        e = k >> shift & 255
        part = parts.get(e)
        if part is None:
            part = parts[e] = {}
        part[k - e * unit] = c
    return parts


def _horner(re_terms: Terms, im_terms: Terms, chains, level: int,
            move: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]) -> Tuple[Terms, Terms]:
    """The parts of _compose over chains[level:] for a polynomial with
    these parts, whose exponents on the variables of chains[:level] are 0:
    Horner's rule, one mapped variable per level. The terms are split by
    its exponent k with a shift and a mask, each part is composed over the
    levels left and multiplied once by num[k] * den[top - k]. A part with
    every mapped exponent split off is rekeyed by move, a (src, dst) pair
    of variable tuples, or returned as it is when move is None (the given
    dicts themselves when there is no level). A module-level function,
    not a closure, so a call leaves no reference cycle holding the Powers
    caches."""
    if level == len(chains):
        if move is None:
            return re_terms, im_terms
        return _moved(re_terms, *move), _moved(im_terms, *move)
    shift, unit, num, den, top = chains[level]
    re_parts = _split(re_terms, shift, unit)
    im_parts = _split(im_terms, shift, unit) if im_terms else {}
    acc_re = acc_im = None
    for e in {**re_parts, **im_parts} if im_parts else re_parts:
        pr, pi = _horner(re_parts.get(e, {}), im_parts.get(e, {}), chains, level + 1, move)
        if e:
            factor = num[e]
            pr, pi = _product(pr, pi, factor.re_terms, factor.im_terms)
        if top > e:
            factor = den[top - e]
            pr, pi = _product(pr, pi, factor.re_terms, factor.im_terms)
        # each part is a fresh dict, so the first takes in the others
        if acc_re is None:
            acc_re, acc_im = pr, pi
        else:
            _add_into(acc_re, pr)
            if pi:
                _add_into(acc_im, pi)
    return ({}, {}) if acc_re is None else (acc_re, acc_im)


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


def poly_div_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f / g, through the division loop (`_divmod`).
    Raises ZeroDivisionError when g is zero, ValueError when the variable
    tuples differ or g does not divide f: the loop stopped at a remainder
    term that g's leading monomial does not divide."""
    q, r = _divmod(f, g)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def _divmod(f: MultiPoly, g: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """(q, r) with f = q * g + r, by the package's one polynomial division
    loop. Raises ZeroDivisionError when g is zero, ValueError when the
    variable tuples differ.

    The remainder is a copy of f's parts, worked in place in plain
    int/Fraction sums: each quotient term divides the remainder's leading
    key (one max) by g's, after a check, field by field, that g's leading
    monomial divides it, and then subtracts itself times g's other terms
    from the remainder, whose leading term it cancels exactly. Every key
    it touches is below the leading one, so the loop ends. It stops at
    the first leading key that g's leading monomial does not divide and
    returns the remainder left then, in canonical form: zero exactly when
    g divides f, and over one variable the remainder of degree below g's."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f._check_same_vars(g)
    n = len(f.vars)
    top = max(_keys(g))
    lr, li = g.re_terms.get(top, 0), g.im_terms.get(top, 0)
    norm = lr * lr + li * li
    # the nonzero exponent fields of g's leading monomial, as (shift, exponent)
    fields = [(s, top >> s & 255) for s in range(0, 8 * n, 8) if top >> s & 255]
    # the other terms of g, keyed relative to its leading monomial
    tail = [(k - top, re, im) for k, re, im in _items(g.re_terms, g.im_terms) if k != top]
    rem_re, rem_im = dict(f.re_terms), dict(f.im_terms)
    q_re: Terms = {}
    q_im: Terms = {}
    while rem_re or rem_im:
        k = max(rem_re.keys() | rem_im.keys()) if rem_im else max(rem_re)
        if any(k >> s & 255 < e for s, e in fields):
            break
        a, b = rem_re.pop(k, 0), rem_im.pop(k, 0)
        if li:
            qr, qi = _div(a * lr + b * li, norm), _div(b * lr - a * li, norm)
        else:
            qr, qi = _div(a, lr), _div(b, lr)
        if qr:
            q_re[k - top] = qr
        if qi:
            q_im[k - top] = qi
        for offset, cr, ci in tail:
            if qi or ci:
                _take(rem_re, k + offset, qr * cr - qi * ci)
                _take(rem_im, k + offset, qr * ci + qi * cr)
            else:
                _take(rem_re, k + offset, qr * cr)
    return _poly(f.vars, q_re, q_im), _poly(f.vars, _canonical(rem_re), _canonical(rem_im))


def _take(rem: Dict[int, Rational], key: int, x: Rational) -> None:
    """Subtract x from rem[key] in place, dropping a sum that cancels."""
    if x:
        s = rem.get(key, 0) - x
        if s:
            rem[key] = s
        else:
            del rem[key]


def _monic(p: MultiPoly) -> MultiPoly:
    """A nonzero p divided by the coefficient of its leading key; zero
    unchanged."""
    if not p:
        return p
    top = max(_keys(p))
    lead = _gr(p.re_terms.get(top, 0), p.im_terms.get(top, 0))
    return p if lead == 1 else p * (1 / lead)


def lowest_terms(rf: RationalFunction) -> RationalFunction:
    """rf in lowest terms when its denominator uses exactly one variable
    x; rf itself otherwise.

    Read num as a polynomial in its other variables over Q(i)[x], each
    coefficient a MultiPoly over rf's variables that uses x alone; then
    gcd(num, den) is the gcd G of den and every coefficient of num. It is
    found by Euclid's algorithm over Q(i)[x] with monic remainders (Knuth,
    TAOCP Vol. 2, 4.6.1; Brown, J. ACM 18, 1971), each remainder one
    `_divmod`, and the search stops as soon as G is a constant. Otherwise
    num and den are divided by the monic G exactly (`poly_div_exact`)."""
    used = rf.den.used_vars()
    if len(used) != 1:
        return rf
    num, den = rf.num, rf.den
    n = len(rf.vars)
    shift = 8 * (n - 1 - rf.vars.index(used[0]))
    unit = (1 << 8 * n) + (1 << shift)
    # num's coefficients in Q(i)[x], under the key of their monomial in the
    # other variables, each term keyed by its power of x alone
    coeffs: Dict[int, Tuple[Terms, Terms]] = {}
    for part, terms in enumerate((num.re_terms, num.im_terms)):
        for k, c in terms.items():
            x_part = (k >> shift & 255) * unit
            coeffs.setdefault(k - x_part, ({}, {}))[part][x_part] = c
    g = den
    for re, im in coeffs.values():
        a = _poly(rf.vars, re, im)
        while g:
            a, g = g, _monic(_divmod(a, g)[1])
        if not a.degree():
            return rf
        g = a
    g = _monic(g)
    return RationalFunction(poly_div_exact(num, g), poly_div_exact(den, g))


def _shared_bases(dens: Mapping[int, MultiPoly]):
    """The bases that two or more of dens share, and each one's private
    part: ([(base, {index: exponent})], {index: private part}), with
    dens[i] its private part times base**exponent over the shared bases
    that i holds.

    The nonconstant denominators are pooled by the tuple of variables
    they use. In a pool of two or more, the base is the member of least
    total degree (the first such), scaled to coprime Gaussian integers,
    and every member is divided by it (`_divmod`) for as long as the
    division is exact: the base is shared when two or more members
    hold it, and each quotient is that member's private part. A constant
    denominator is private as it is, and so is one alone in its pool or
    holding no shared base. Only powers of the least member are shared:
    (w+1)(w-1) with (w+1)**2 shares nothing."""
    pools: Dict[Tuple[str, ...], List[int]] = {}
    for i, den in dens.items():
        used = den.used_vars()
        if used:
            pools.setdefault(used, []).append(i)
    shared = []
    private = dens
    for idxs in pools.values():
        if len(idxs) < 2:
            continue
        least = dens[min(idxs, key=lambda i: dens[i].degree())]
        scale = denominator_lcm(least)
        content = gcd(*(int(x * scale) for part in (least.re_terms, least.im_terms)
                        for x in part.values()))
        base = least * Fraction(scale, content)
        degree = base.degree()
        held = {}
        for i in idxs:
            e, rest = 0, dens[i]
            # no quotient of lower degree than the base holds it
            while rest.degree() >= degree:
                q, r = _divmod(rest, base)
                if r:  # the first inexact division
                    break
                rest, e = q, e + 1
            if e:
                held[i] = e, rest
        if len(held) < 2:
            continue
        if private is dens:
            private = dict(dens)
        shared.append((base, {i: e for i, (e, _) in held.items()}))
        for i, (_, rest) in held.items():
            private[i] = rest
    return shared, private


def _top_byte(key: int) -> int:
    """The total degree of a term key: its top nonzero byte, or 0."""
    return key >> (key.bit_length() - 1 & ~7) if key else 0


def _product(ar: Terms, ai: Terms, br: Terms, bi: Terms) -> Tuple[Terms, Terms]:
    """The (re, im) parts of the product of the polynomials with parts
    (ar, ai) and (br, bi).

    Raises OverflowError before it starts when the degrees of the two
    highest keys sum above MAX_DEGREE, which a constant factor never
    makes, so it is not checked; below the bound, the key of a product of
    two terms is the sum of their keys. A one-term real factor
    shifts and scales each part of the other (`_shifted`); any other pair
    is one multiply-accumulate (`_mac`) and one `_canonical` per part."""
    if not (ar or ai) or not (br or bi):
        return {}, {}
    if not (_is_constant(br, bi) or _is_constant(ar, ai)):
        _check_degrees(ar, ai, br, bi)
    if not bi and len(br) == 1:
        (shift, u), = br.items()
        return _shifted(ar, shift, u), _shifted(ai, shift, u) if ai else {}
    if not ai and len(ar) == 1:
        (shift, u), = ar.items()
        return _shifted(br, shift, u), _shifted(bi, shift, u) if bi else {}
    acc_re: Dict[int, Rational] = {}
    acc_im: Dict[int, Rational] = {}
    _mac(acc_re, acc_im, ar, ai, br, bi, False)
    return _canonical(acc_re), _canonical(acc_im)


def _is_constant(re: Terms, im: Terms) -> bool:
    """Whether the nonzero polynomial with these parts is a constant:
    at most one term per part, each of key 0."""
    return len(re) + len(im) <= 2 and not any(re) and not any(im)


def _check_degrees(ar: Terms, ai: Terms, br: Terms, bi: Terms) -> None:
    """Raise OverflowError when the degrees of the highest keys of two
    nonzero polynomials, given by their parts, sum above MAX_DEGREE."""
    ka = max(max(ar), max(ai)) if ar and ai else max(ar or ai)
    kb = max(max(br), max(bi)) if br and bi else max(br or bi)
    da, db = _top_byte(ka), _top_byte(kb)
    if da + db > MAX_DEGREE:
        raise OverflowError(f"polynomial product: total degree {da} + {db} exceeds "
                            f"{MAX_DEGREE}, the most a term key holds")


def product_sum(variables: Sequence[str], added: Iterable[Tuple[MultiPoly, MultiPoly]],
                subtracted: Iterable[Tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """The sum of a * b over the pairs (a, b) of added, minus that over
    the pairs of subtracted, all polynomials over `variables`: one
    multiply-accumulate dict per part, pair by pair (`_mac`), and one
    `_canonical` per part at the end. Raises OverflowError before a pair
    whose product could hold a term above MAX_DEGREE, as `_product` does."""
    v = tuple(variables)
    acc_re: Dict[int, Rational] = {}
    acc_im: Dict[int, Rational] = {}
    for negate, pairs in ((False, added), (True, subtracted)):
        for a, b in pairs:
            if a.vars != v or b.vars != v:
                raise ValueError(f"variable mismatch: {v} vs {a.vars} and {b.vars}")
            ar, ai, br, bi = a.re_terms, a.im_terms, b.re_terms, b.im_terms
            if (ar or ai) and (br or bi):
                _check_degrees(ar, ai, br, bi)
                _mac(acc_re, acc_im, ar, ai, br, bi, negate)
    return _poly(v, _canonical(acc_re), _canonical(acc_im))


def _mac(acc_re: Dict[int, Rational], acc_im: Dict[int, Rational], ar: Terms, ai: Terms,
         br: Terms, bi: Terms, negate: bool) -> None:
    """Add (ar + i ai)(br + i bi), or its negative when negate, into acc_re
    and acc_im in plain sums that `_canonical` cleans: re += ar br - ai bi
    and im += ar bi + ai br (Knuth, TAOCP Vol. 2, 4.6.4), one real product
    per pair of nonempty parts, so real and complex factors take one path:
    one pair for real times real, two for real times complex, at most four
    for complex times complex."""
    pairs = ((acc_re, ar, br, negate),)
    if ai or bi:
        pairs += ((acc_re, ai, bi, not negate), (acc_im, ar, bi, negate),
                  (acc_im, ai, br, negate))
    for acc, a, b, neg in pairs:
        if a and b:
            b_items = list(b.items())
            get = acc.get
            for k1, c1 in a.items():
                if neg:
                    c1 = -c1
                for k2, c2 in b_items:
                    k = k1 + k2
                    s = get(k)
                    acc[k] = c1 * c2 if s is None else s + c1 * c2


class RationalFunction:
    """Quotient num/den of polynomials over a shared variable tuple.

    Not normalized by its own operations (a sum multiplies denominators
    without a gcd), and equality goes through cross-multiplication. A
    catalogued map holds each component whose denominator uses one
    variable in lowest terms, reduced once where the record is built
    (`lowest_terms`, in catalog.RationalMapFixture, one Euclid over
    MultiPoly through the division loop `_divmod`), and
    verify_surface_map scales each
    component's num and den by one integer to Gaussian-integer
    coefficients (denominator_lcm), which changes neither its value nor
    its zeros.
    Every rational map of the package is composed into a polynomial by
    `substitute`: the map components, the group laws, the witnesses
    and a graph's solved coordinate w_num/D with its conjugate. It
    leaves its result over the product of the image denominators less
    each base that two or more of them share (`_shared_bases`), cleared
    once by the largest power a term needs."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Optional[MultiPoly] = None):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        num._check_same_vars(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.num.vars

    def is_polynomial(self) -> bool:
        return self.den == MultiPoly.const(self.vars, 1)

    def with_vars(self, variables: Sequence[str]) -> "RationalFunction":
        return RationalFunction(self.num.with_vars(variables), self.den.with_vars(variables))

    def conjugate(self, pairing: Mapping[str, str]) -> "RationalFunction":
        return RationalFunction(*conjugate_each((self.num, self.den), pairing))

    def _coerced(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction(MultiPoly.const(self.vars, other))
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

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def substitute(p: MultiPoly, assignment: Mapping[str, object]) -> RationalFunction:
    """Compose p with polynomial, rational-function or scalar values for
    some of its variables.

    The values must share one variable tuple, the target; with scalar
    values only, the target is p's own. Each variable of p is either
    assigned or a variable of the target too, where it stays as it is;
    otherwise ValueError names it. The denominators of the values of
    the used variables are pooled by the variables they use, and in a
    pool of two or more the member of least degree is a base B_j, shared
    when it divides two or more members: den_v = private_v * B_j**e_vj,
    e_vj the largest power of B_j that divides den_v (`_shared_bases`).
    Any other denominator is its own private part. With top_v the degree
    of p in v and E_j the largest sum_v k_v e_vj over the terms prod
    v**k_v of p, the result is over

        prod_v private_v**top_v * prod_j B_j**E_j,

    which is prod_v den_v**top_v when no base is shared. For denominators
    c_v * B**e_v over one base B with some e_v = 1, as the catalogued
    maps, group laws and graphs have, this is the least common
    denominator of the terms; only powers of a least member are shared,
    so (w+1)(w-1) with (w+1)**2 stays over their product.
    """
    universes = {value.vars for value in assignment.values()
                 if isinstance(value, (MultiPoly, RationalFunction))}
    if len(universes) > 1:
        raise ValueError("assignment values must share a variable tuple")
    target = universes.pop() if universes else p.vars
    used = p.used_vars()
    # the numerators and denominators of the values of the used variables
    # only, by index; the others have exponent 0 throughout
    nums: Dict[int, MultiPoly] = {}
    dens: Dict[int, MultiPoly] = {}
    for i, v in enumerate(p.vars):
        if v not in assignment:
            if v not in target:
                raise ValueError(f"variable {v!r} not among {target}")
        elif v in used:
            value = assignment[v]
            if isinstance(value, RationalFunction):
                nums[i], dens[i] = value.num, value.den
            elif isinstance(value, MultiPoly):
                nums[i] = value
            elif isinstance(value, (int, Fraction, GaussianRational)):
                nums[i] = MultiPoly.const(target, value)
            else:
                raise TypeError(f"assignment for {v!r} is not a rational function")
    shared, private = _shared_bases(dens)
    images = {}
    den_total = MultiPoly.const(target, 1)
    for i, num in nums.items():
        den = private.get(i)
        if den is not None and (den.im_terms or den.re_terms != {0: 1}):
            top = p.degree(p.vars[i])
            den_pows = Powers(den)
            images[i] = (Powers(num), den_pows, top)
            den_total = den_total * den_pows[top]
        else:
            # a polynomial value, or a denominator 1, clears nothing
            images[i] = (Powers(num), None, 0)
    bases = [(Powers(base), exps) for base, exps in shared]
    num, tops = _compose(p, target, images, bases)
    for (pows, _), top in zip(bases, tops):
        den_total = den_total * pows[top]
    return RationalFunction(num, den_total)


def series_expand(nums: Sequence[MultiPoly], den: MultiPoly,
                  cutoff: int) -> Tuple[Rational, List[MultiPoly]]:
    """Truncated Taylor expansions at the origin of num/den through
    `cutoff`, one for each num in nums, all over den's variables, each
    kept as an exact multiple N * (num/den) of the true expansion.

    Returns (N, [N * expansion of num/den for num in nums]). N is a
    nonzero real rational: c0**(cutoff+1) for a real c0 = den(0), and
    |c0|**(2 * (cutoff+1)) = (c0 * conj c0)**(cutoff+1) otherwise, so N
    is an integer when c0 is a Gaussian integer. A real N keeps every
    zero test and every reality test of a result; dividing a result by
    N gives the true expansion. Multiplying each result back by den
    agrees with N * num through total degree cutoff. Raises ValueError
    when c0 = 0 or a num is over other variables, and OverflowError
    before it starts when cutoff exceeds MAX_DEGREE; no key it builds
    has a degree above the cutoff.

    Each quotient Q = N * num / den is one run of the coefficient
    recurrence of a power series quotient (Knuth, TAOCP Vol. 2, 4.7):
    c0 * Q[m] = N * num[m] - sum_t den[t] * Q[m - t] over the
    nonconstant terms t of den, seeded with N * num through the cutoff.
    Each Q[m] is pushed forward to the keys m + t once it is final, so
    no key is ever subtracted, and the sums are kept by degree, each
    degree final before the next is read. Only the monomials reachable
    from num's by multiplying terms of den are visited. Each sum runs in
    plain (re, im) int/Fraction parts, and each Q[m] is one exact
    division by c0, so an integer num and den keep int entries.
    """
    if cutoff > MAX_DEGREE:
        raise OverflowError(f"series cutoff {cutoff} exceeds {MAX_DEGREE}, "
                            f"the most a term key holds")
    a, b = den.re_terms.get(0, 0), den.im_terms.get(0, 0)
    if not (a or b):
        raise ValueError("singular expansion point: denominator vanishes at 0")
    shift = 8 * len(den.vars)
    # the negated nonconstant terms of den through the cutoff, by degree:
    # (key, total degree, re, im)
    tails = sorted((k, k >> shift, -re, -im) for k, re, im in _items(den.re_terms, den.im_terms)
                   if 0 < k < cutoff + 1 << shift)
    norm = a * a + b * b
    scale = _canon((norm if b else a) ** (cutoff + 1))
    out = []
    for num in nums:
        num._check_same_vars(den)
        # levels[d]: c0 * Q[m] in (re, im) parts for each key m of degree d reached
        levels: List[Dict[int, list]] = [{} for _ in range(cutoff + 1)]
        seed = num.truncate(cutoff)
        for k, re, im in _items(seed.re_terms, seed.im_terms):
            levels[k >> shift][k] = [scale * re, scale * im]
        q_re: Terms = {}
        q_im: Terms = {}
        for d, level in enumerate(levels):
            for m, (re, im) in level.items():
                if b:
                    re, im = _div(re * a + im * b, norm), _div(im * a - re * b, norm)
                else:
                    re, im = _div(re, a), _div(im, a)
                if not (re or im):
                    continue
                if re:
                    q_re[m] = re
                if im:
                    q_im[m] = im
                for t, dt, tr, ti in tails:
                    if d + dt > cutoff:
                        break
                    if im or ti:
                        pr = re * tr - im * ti
                        pi = re * ti + im * tr
                    else:
                        pr = re * tr
                        pi = 0
                    after = levels[d + dt]
                    s = after.get(m + t)
                    if s is None:
                        after[m + t] = [pr, pi]
                    else:
                        s[0] += pr
                        s[1] += pi
        out.append(_poly(den.vars, q_re, q_im))
    return scale, out
