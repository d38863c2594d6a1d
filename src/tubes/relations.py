"""Adjoined symbols with confluent rewrite relations.

Two relation shapes are supported:

* a radical symbol s with s**2 = d, where d is a polynomial free of
  every adjoined symbol, and
* a unit pair (c, cbar) with c*cbar = 1, modelling a unit-modulus
  parameter and its conjugate.

Reduction rewrites each term independently (s**k -> d**(k//2) * s**(k%2),
and c**a * cbar**b -> c**(a-m) * cbar**(b-m) with m = min(a, b)), so the
system is confluent and reduced forms are unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .poly import MultiPoly, Powers, _add_into, _poly, poly_sum


@dataclass(frozen=True)
class RelationContext:
    radicals: Tuple[Tuple[str, MultiPoly], ...] = field(default_factory=tuple)
    unit_pairs: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        adjoined = self.adjoined_symbols()
        if len(set(adjoined)) != len(adjoined):
            raise ValueError("adjoined symbols must be distinct")
        for sym, d in self.radicals:
            bad = [v for v in d.used_vars() if v in adjoined]
            if bad:
                raise ValueError(f"radical value for {sym!r} mentions adjoined symbols {bad}")

    def adjoined_symbols(self) -> Tuple[str, ...]:
        syms = [sym for sym, _ in self.radicals]
        for c, cb in self.unit_pairs:
            syms.extend((c, cb))
        return tuple(syms)

    def reduce_poly(self, p: MultiPoly) -> MultiPoly:
        out = p
        for sym, d in self.radicals:
            if sym not in out.vars:
                continue
            idx = out.vars.index(sym)
            if all(e[idx] < 2 for e in out.terms):
                continue
            d_pows = Powers(d.with_vars(out.vars))
            parts = []
            for e, c in out.terms.items():
                half, rem = divmod(e[idx], 2)
                parts.append(_poly(out.vars, {e[:idx] + (rem,) + e[idx + 1:]: c}) * d_pows[half])
            out = poly_sum(out.vars, parts)
        for c_name, cb_name in self.unit_pairs:
            if c_name not in out.vars or cb_name not in out.vars:
                continue
            i = out.vars.index(c_name)
            j = out.vars.index(cb_name)
            terms = {}
            for e, c in out.terms.items():
                m = min(e[i], e[j])
                if m:
                    e = list(e)
                    e[i] -= m
                    e[j] -= m
                    e = tuple(e)
                _add_into(terms, {e: c})
            out = _poly(out.vars, terms)
        return out
