"""Adjoined symbols with confluent rewrite relations.

Two relation shapes are supported:

* a radical symbol s with s**2 = d, where d is a polynomial free of
  every adjoined symbol, and
* a unit pair (c, cbar) with c*cbar = 1, modelling a unit-modulus
  parameter and its conjugate.

Reduction rewrites each term independently (s**k -> d**(k//2) * s**(k%2),
and c**a * cbar**b -> c**(a-m) * cbar**(b-m) with m = min(a, b)), so the
system is confluent and reduced forms are unique. Both rewrites move
term keys: the unit pair by one rekeying into one dict per part
(`MultiPoly.cancel_pair`), the radical by taking s**(2 * (k//2)) off the
keys (`MultiPoly.split_squares`) before one product by d**(k//2) per
distinct k//2 > 0.
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
            # s**k -> d**(k//2) * s**(k%2): s**(2 * (k//2)) leaves the key,
            # and one product by d**(k//2) per distinct k//2 > 0
            d_pows = Powers(d.with_vars(out.vars))
            out = poly_sum(out.vars, [part * d_pows[j] if j else part
                                      for j, part in out.split_squares(sym).items()])
        for c_name, cb_name in self.unit_pairs:
            if c_name in out.vars and cb_name in out.vars:
                # c**a * cbar**b -> c**(a-m) * cbar**(b-m), m = min(a, b)
                out = out.cancel_pair(c_name, cb_name)
        return out
