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

from typing import Tuple

from .poly import MultiPoly, Powers, poly_sum
from .record import Record


class RelationContext(Record):
    radicals: Tuple[Tuple[str, MultiPoly], ...] = ()
    unit_pairs: Tuple[Tuple[str, str], ...] = ()

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
            if sym not in out.vars or out.degree(sym) < 2:
                continue
            # s**k -> d**(k//2) * s**(k%2), one product per distinct k
            d_pows = Powers(d.with_vars(out.vars))
            s = MultiPoly.var(out.vars, sym)
            parts = []
            for (k,), part in out.split_by_vars([sym]).items():
                if k % 2:
                    part = part * s
                parts.append(part * d_pows[k // 2] if k > 1 else part)
            out = poly_sum(out.vars, parts)
        for c_name, cb_name in self.unit_pairs:
            if c_name not in out.vars or cb_name not in out.vars:
                continue
            # c**a * cbar**b -> c**(a-m) * cbar**(b-m), m = min(a, b)
            c_pows = Powers(MultiPoly.var(out.vars, c_name))
            cb_pows = Powers(MultiPoly.var(out.vars, cb_name))
            parts = []
            for (a, b), part in out.split_by_vars([c_name, cb_name]).items():
                if a > b:
                    part = part * c_pows[a - b]
                elif b > a:
                    part = part * cb_pows[b - a]
                parts.append(part)
            out = poly_sum(out.vars, parts)
        return out
