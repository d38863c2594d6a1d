"""Sparse exact multivariate polynomials and rational functions.

A polynomial stores an ordered variable tuple and a dict mapping
exponent tuples to nonzero GaussianRational coefficients. Binary
operations insist that the variable tuples match exactly; the package
juggles several coordinate systems (x, z, w and their conjugates) and
silent mixing would be a correctness hazard. Canonical term order is
graded lexicographic with respect to the variable order.

Term dicts are built only in this module: through `MultiPoly.__init__`,
which checks and coerces input from outside the engine, or through the
trusted `_poly`, which takes over a dict the engine built. Sums of many
polynomials accumulate into one dict (`poly_sum`, `_add_into`).

Rational functions are unreduced num/den pairs. Equality is decided by
cross-multiplication; no multivariate gcd is ever computed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, GaussianRational, ScalarLike, _canon, _gr

Exponents = Tuple[int, ...]


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Optional[Mapping[Exponents, ScalarLike]] = None):
        self.vars: Tuple[str, ...] = _distinct(variables)
        clean: Dict[Exponents, GaussianRational] = {}
        if terms:
            width = len(self.vars)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != width:
                    raise ValueError(f"exponent vector {exps} does not match variables {self.vars}")
                if not all(type(k) is int and k >= 0 for k in exps):
                    raise ValueError(f"exponents must be nonnegative ints, got {exps}")
                c = GaussianRational.coerce(coeff)
                if c:
                    clean[exps] = c
        self.terms = clean

    # ---------------------------------------------------------------- basics

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return _poly(tuple(variables), {})

    @staticmethod
    def const(variables: Sequence[str], value: ScalarLike) -> "MultiPoly":
        v = tuple(variables)
        c = GaussianRational.coerce(value)
        return _poly(v, {(0,) * len(v): c} if c else {})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "MultiPoly":
        v = tuple(variables)
        if name not in v:
            raise ValueError(f"variable {name!r} not among {v}")
        return _poly(v, {tuple(1 if n == name else 0 for n in v): ONE})

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
        used = [False] * len(self.vars)
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    def coeff(self, exps: Exponents) -> GaussianRational:
        return self.terms.get(tuple(exps), ZERO)

    def const_coeff(self) -> GaussianRational:
        return self.terms.get((0,) * len(self.vars), ZERO)

    def sorted_terms(self):
        """Terms in graded-lexicographic order, highest first."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def leading(self) -> Tuple[Exponents, GaussianRational]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=lambda e: (sum(e), e))
        return exps, self.terms[exps]

    # ------------------------------------------------------------- calculus

    def diff(self, name: str) -> "MultiPoly":
        idx = self.vars.index(name)
        # distinct exponents stay distinct, so no two terms meet
        return _poly(self.vars, {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx]
                                 for e, c in self.terms.items() if e[idx]})

    # ------------------------------------------------------- transformations

    def with_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Embed into a larger (or reordered) variable universe."""
        newvars = tuple(variables)
        if newvars == self.vars:
            return self
        _distinct(newvars)
        pos = {}
        for i, v in enumerate(self.vars):
            if v in newvars:
                pos[i] = newvars.index(v)
        width = len(newvars)
        terms: Dict[Exponents, GaussianRational] = {}
        for e, c in self.terms.items():
            ne = [0] * width
            for i, k in enumerate(e):
                if k:
                    if i not in pos:
                        raise ValueError(
                            f"variable {self.vars[i]!r} is used but absent from {newvars}")
                    ne[pos[i]] = k
            terms[tuple(ne)] = c
        return _poly(newvars, terms)

    def rename_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        return _poly(_distinct(mapping.get(v, v) for v in self.vars), dict(self.terms))

    def subs_poly(self, mapping: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Polynomial substitution. Values must share one variable tuple;
        unmapped variables of self must exist there and map to themselves.

        One variable of self mapped to a value over self's own variables
        skips the general composer: the terms are grouped by that
        variable's exponent k and each group is multiplied once by the
        value's k-th power (`_subs_one`)."""
        if not mapping:
            return self
        if len(mapping) == 1:
            (name, value), = mapping.items()
            if value.vars == self.vars and name in self.vars:
                return _poly(self.vars, _subs_one(self.terms, self.vars.index(name), value))
        target: Optional[Tuple[str, ...]] = None
        for value in mapping.values():
            if target is None:
                target = value.vars
            elif value.vars != target:
                raise ValueError("substitution values must share a variable tuple")
        assert target is not None
        position = {v: t for t, v in enumerate(target)}
        images = []
        for v in self.vars:
            if v in mapping:
                images.append((Powers(mapping[v]), None, 0))
            elif v in position:
                images.append(position[v])
            else:
                raise ValueError(f"variable {v!r} not among {target}")
        return _compose(self, target, images)

    def specialize(self, values: Mapping[str, ScalarLike]) -> "MultiPoly":
        """Set the variables named in `values` to those constants; the
        result lives over the remaining variables, in order. Names that
        are not variables of self are ignored."""
        fixed = [(i, GaussianRational.coerce(values[v]))
                 for i, v in enumerate(self.vars) if v in values]
        keep = [i for i, v in enumerate(self.vars) if v not in values]
        acc: Dict[Exponents, GaussianRational] = {}
        for e, c in self.terms.items():
            for i, x in fixed:
                if e[i]:
                    c = c * x ** e[i]
            if c:
                key = tuple([e[i] for i in keep])
                s = acc.get(key)
                acc[key] = c if s is None else s + c
        return _poly(tuple(self.vars[i] for i in keep), {e: c for e, c in acc.items() if c})

    def eval_at(self, point: Mapping[str, ScalarLike]) -> GaussianRational:
        rest = self.specialize(point)
        missing = rest.used_vars()
        if missing:
            raise ValueError(f"no value supplied for variable {missing[0]!r}")
        return rest.const_coeff()

    def truncate(self, cutoff: int) -> "MultiPoly":
        return _poly(self.vars, {e: c for e, c in self.terms.items() if sum(e) <= cutoff})

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
        index = {v: i for i, v in enumerate(self.vars)}
        swap = list(range(len(self.vars)))
        for i, v in enumerate(self.vars):
            if v in pairing:
                w = pairing[v]
                if w not in index:
                    raise ValueError(f"conjugate variable {w!r} absent from {self.vars}")
                swap[i] = index[w]
        unpaired = [v for v in self.used_vars() if v not in pairing]
        if unpaired:
            raise ValueError(f"unpaired variables in conjugation: {unpaired}")
        terms: Dict[Exponents, GaussianRational] = {}
        for e, c in self.terms.items():
            ne = [0] * len(e)
            for i, k in enumerate(e):
                ne[swap[i]] += k
            terms[tuple(ne)] = c.conjugate()
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
        hmask = [v in holo for v in self.vars]
        parts: Dict[Tuple[int, int], Dict[Exponents, GaussianRational]] = {}
        for e, c in self.terms.items():
            k = sum(x for x, h in zip(e, hmask) if h)
            parts.setdefault((k, sum(e) - k), {})[e] = c
        return {key: _poly(self.vars, terms) for key, terms in parts.items()}

    def split_by_vars(self, group: Sequence[str]):
        """Group terms by their exponents in `group`; values are polynomials
        in the full universe with those exponents stripped to zero."""
        idxs = [self.vars.index(v) for v in group]
        parts: Dict[Exponents, Dict[Exponents, GaussianRational]] = {}
        for e, c in self.terms.items():
            rest = list(e)
            for i in idxs:
                rest[i] = 0
            # the key and the stripped exponents together give back e
            parts.setdefault(tuple(e[i] for i in idxs), {})[tuple(rest)] = c
        return {key: _poly(self.vars, terms) for key, terms in parts.items()}

    # ---------------------------------------------------------------- output

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k
            )
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
        self._pows = [MultiPoly.const(base.vars, 1), base]

    def __getitem__(self, k: int) -> MultiPoly:
        pows = self._pows
        top = len(pows) - 1
        while top < k:
            pows.append(pows[top] * pows[1])
            top += 1
        return pows[k]


def _poly(variables: Tuple[str, ...], terms: Dict[Exponents, GaussianRational]) -> MultiPoly:
    """Trusted constructor: takes over `terms`, whose exponent tuples must
    match `variables` in width and whose coefficients must be nonzero
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


def _add_into(acc: Dict[Exponents, GaussianRational],
              terms: Mapping[Exponents, GaussianRational]) -> Dict[Exponents, GaussianRational]:
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
    acc: Dict[Exponents, GaussianRational] = {}
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


def _compose(p: MultiPoly, target: Tuple[str, ...], images) -> MultiPoly:
    """The sum over the terms c * prod x_i**k_i of p of
    c * prod num_i[k_i] * den_i[top_i - k_i], over `target`.

    images[i] is one of two kinds. A triple (num_i, den_i, top_i) holds
    the Powers of the numerator and denominator of the image of x_i and
    the degree top_i of the common denominator den_i**top_i; no k_i
    exceeds top_i, and a polynomial image has top_i = 0 and no den_i. An
    int is the position in `target` of the variable x_i keeps.

    Horner's rule over the mapped variables: p is split by its exponent k
    on one mapped variable, each part is composed over the variables left,
    and num[k] * den[top - k] multiplies that sum once. The largest image
    (by |num| * |den|, |num| when top is 0; ties by index) is split
    first: its powers multiply once per distinct exponent, and the
    variables split later, whose powers multiply once per part, have the
    smaller images."""
    width = len(target)
    kept = [(i, t) for i, t in enumerate(images) if isinstance(t, int)]
    mapped = [i for i, t in enumerate(images) if not isinstance(t, int)]
    mapped.sort(key=lambda i: -_image_size(images[i]))  # stable: ties keep index order
    origin = (0,) * width
    groups: Dict[Exponents, Dict[Exponents, GaussianRational]] = {}
    for e, c in p.terms.items():
        rest = origin
        if kept:
            moved = [0] * width
            for i, t in kept:
                moved[t] = e[i]
            rest = tuple(moved)
        # the key and the moved exponents together give back e, so no two
        # terms of p share a slot
        groups.setdefault(tuple([e[i] for i in mapped]), {})[rest] = c
    if not mapped:
        return _poly(target, groups.get((), {}))
    return _poly(target, _horner(target, [images[i] for i in mapped], 0, groups, groups))


def _subs_one(terms: Mapping[Exponents, GaussianRational], idx: int,
              value: MultiPoly) -> Dict[Exponents, GaussianRational]:
    """The terms of the polynomial `terms` with variable idx replaced by
    `value`, which lives over the same variables: the sum over the
    exponents k of idx of (the terms with exponent k, that exponent set
    to 0) * value**k, one product per distinct k."""
    groups: Dict[int, Dict[Exponents, GaussianRational]] = {}
    for e, c in terms.items():
        k = e[idx]
        groups.setdefault(k, {})[e[:idx] + (0,) + e[idx + 1:] if k else e] = c
    pows = Powers(value)
    acc: Dict[Exponents, GaussianRational] = {}
    for k, part in groups.items():
        _add_into(acc, _product(part, pows[k].terms, None) if k else part)
    return acc


def _image_size(image) -> int:
    num, den, top = image
    return len(num[1].terms) * (len(den[1].terms) if top else 1)


def _horner(target: Tuple[str, ...], chains, level: int,
            groups: Dict[Exponents, Dict[Exponents, GaussianRational]],
            keys: Iterable[Exponents]) -> Dict[Exponents, GaussianRational]:
    """The terms of _compose over chains[level:] for the groups of p under
    `keys`, which agree before `level`. A module-level function, not a
    closure, so a call leaves no reference cycle holding the Powers caches."""
    num, den, top = chains[level]
    if level + 1 == len(chains):
        # the keys agree everywhere else, so each exponent names one group
        parts = ((key[level], groups[key]) for key in keys)
    else:
        split: Dict[int, list] = {}
        for key in keys:
            split.setdefault(key[level], []).append(key)
        parts = ((k, _horner(target, chains, level + 1, groups, part))
                 for k, part in split.items())
    acc: Dict[Exponents, GaussianRational] = {}
    for k, terms in parts:
        term = _poly(target, terms)
        if k:
            term = term * num[k]
        if top > k:
            term = term * den[top - k]
        _add_into(acc, term.terms)
    return acc


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
    return _poly(a.vars, _product(a.terms, b.terms, cutoff))


def _product(a_terms: Mapping[Exponents, GaussianRational],
             b_terms: Mapping[Exponents, GaussianRational],
             cutoff: Optional[int]) -> Dict[Exponents, GaussianRational]:
    """Terms of the product of two term dicts, keeping total degree <=
    cutoff (all terms when cutoff is None).

    Each coefficient's (re, im) parts are read once and every term pair
    is multiplied and summed in plain int/Fraction arithmetic; a real
    pair skips the imaginary products. One GaussianRational is built per
    nonzero output term, in first-seen order.
    """
    b_items = [(e, c.re, c.im) for e, c in b_terms.items()]
    if cutoff is not None:
        b_degrees = [sum(e) for e in b_terms]
    acc: Dict[Exponents, list] = {}
    for e1, c1 in a_terms.items():
        row = b_items
        if cutoff is not None:
            room = cutoff - sum(e1)
            row = [t for t, d in zip(b_items, b_degrees) if d <= room]
        r1, i1 = c1.re, c1.im
        for e2, r2, i2 in row:
            e = tuple(map(add, e1, e2))
            if i1 or i2:
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
            else:
                re = r1 * r2
                im = 0
            s = acc.get(e)
            if s is None:
                acc[e] = [re, im]
            else:
                s[0] += re
                s[1] += im
    return {e: _gr(_canon(re), _canon(im)) for e, (re, im) in acc.items() if re or im}


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

    target: Optional[Tuple[str, ...]] = None
    for value in assignment.values():
        if isinstance(value, (MultiPoly, RationalFunction)):
            if target is None:
                target = value.vars
            elif value.vars != target:
                raise ValueError("assignment values must share a variable tuple")
    if target is None:
        target = p.vars
    # compose over the used variables only: _compose reads every image it gets
    q = p.with_vars(used)
    images = []
    den_total = MultiPoly.const(target, 1)
    for i, v in enumerate(used):
        value = assignment[v]
        if isinstance(value, MultiPoly):
            value = RationalFunction(value)
        elif isinstance(value, (int, Fraction, GaussianRational)):
            value = RationalFunction.from_scalar(target, value)
        elif not isinstance(value, RationalFunction):
            raise TypeError(f"assignment for {v!r} is not a rational function")
        top = max(e[i] for e in q.terms)
        den_pows = Powers(value.den)
        images.append((Powers(value.num), den_pows, top))
        den_total = den_total * den_pows[top]
    return RationalFunction(_compose(q, target, images), den_total)


def series_expand(nums: Sequence[MultiPoly], den: MultiPoly, cutoff: int) -> List[MultiPoly]:
    """Truncated Taylor expansions at the origin of num/den through
    `cutoff`, one for each num in nums, all over one inverse of den.

    Requires den(0) != 0. Multiplying each result back by den agrees
    with its num through total degree cutoff.

    The inverse is taken once, over the coefficient ring of den: with
    E = c0 - den, each E**k has order >= k, so through the cutoff
    c0**(cutoff+1) / den = sum_k E**k * c0**(cutoff-k). Each num is then
    one truncated product with that sum, and the one division, by
    c0**(cutoff+1), comes last.
    """
    c0 = den.const_coeff()
    if not c0:
        raise ValueError("singular expansion point: denominator vanishes at 0")
    e_poly = (c0 - den).truncate(cutoff)
    scales = [ONE]
    for _ in range(cutoff + 1):
        scales.append(scales[-1] * c0)
    inv = MultiPoly.const(den.vars, scales[cutoff])
    acc = MultiPoly.const(den.vars, 1)
    for k in range(1, cutoff + 1):
        acc = mul_trunc(acc, e_poly, cutoff)
        if acc.is_zero():
            break
        inv = inv + acc * scales[cutoff - k]
    scale = ONE / scales[cutoff + 1]
    return [mul_trunc(num.truncate(cutoff), inv, cutoff) * scale for num in nums]
