"""Timing and counting wrappers installed on the tubes package from outside.

Nothing in the package is edited. `install` replaces each target function
by a wrapper wherever a `tubes.*` module, or the target's class, binds that
same function object, so names imported with `from ... import`, the
`__rmul__ = __mul__` alias and the `from_fields` classmethod are all
covered. Every call becomes a span (id, parent id, name, phase, start, end)
kept in memory; self time is a span's duration minus the time its child
spans cover, wrapper bookkeeping included.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter


def _mul_info(args, result):
    a, b = args[0], args[1]
    poly = type(a)
    if not isinstance(result, poly):
        return None
    bits = nonint = cplx = 0
    for c in result.terms.values():
        re, im = c.re, c.im
        bits = max(bits, re.numerator.bit_length(), re.denominator.bit_length(),
                   im.numerator.bit_length(), im.denominator.bit_length())
        nonint += re.denominator != 1 or im.denominator != 1
        cplx += im != 0
    pairs = len(a.terms) * (len(b.terms) if isinstance(b, poly) else 1)
    return {"term_pairs": pairs, "terms_out": len(result.terms), "coeff_bits": bits,
            "coeffs": len(result.terms), "nonint": nonint, "complex": cplx}


def _cells(rows, cols):
    return {"cells": rows * cols}


def _tree_bytes(path):
    total = 0
    for entry in os.scandir(path):
        total += entry.stat().st_size
    return total


# metric prefix, module, attribute (Class.method for methods), observer
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("poly.mul", "tubes.poly", "MultiPoly.__mul__", _mul_info),
    ("poly.substitute", "tubes.poly", "substitute", None),
    ("poly.series_expand", "tubes.poly", "series_expand", None),
    ("poly.subs_poly", "tubes.poly", "MultiPoly.subs_poly", None),
    ("linalg.solve_columns", "tubes.linalg", "solve_columns",
     lambda a, r: _cells(len(a[1]), len(a[0]))),
    ("linalg.kernel_basis", "tubes.linalg", "kernel_basis",
     lambda a, r: _cells(len(a[0]), len(a[0][0]) if a[0] else 0)),
    ("linalg.rref_rows", "tubes.linalg", "rref_rows", None),
    ("linalg.det_exact", "tubes.linalg", "det_exact", None),
    ("linalg.poly_div_exact", "tubes.linalg", "poly_div_exact", None),
    ("fields.lie_bracket", "tubes.fields", "lie_bracket", None),
    ("fields.rank_at", "tubes.fields", "rank_at", None),
    ("fields.minors_scan", "tubes.fields", "minors_scan", lambda a, r: {"minors": len(r)}),
    ("symmetry.affine_symmetry_algebra", "tubes.symmetry", "affine_symmetry_algebra", None),
    ("symmetry.from_fields", "tubes.symmetry", "LieAlgebraPresentation.from_fields", None),
    ("symmetry.verify", "tubes.symmetry", "LieAlgebraPresentation.verify", None),
    ("symmetry.expand_in_fields", "tubes.symmetry", "expand_in_fields", None),
    ("symmetry.subalgebra_scan", "tubes.symmetry", "subalgebra_scan",
     lambda a, r: {"charts": len(r.charts), "unresolved": len(r.unresolved)}),
    ("symmetry.open_orbit_report", "tubes.symmetry", "open_orbit_report", None),
    ("symmetry.obstruction", "tubes.symmetry", "non_nilpotent_transitive_obstruction", None),
    ("normal_form.verify_surface_map", "tubes.normal_form", "verify_surface_map", None),
    ("normal_form.defining_series", "tubes.normal_form", "defining_series", None),
    ("normal_form.chern_moser_check", "tubes.normal_form", "chern_moser_check", None),
    ("normal_form.verify_family_invariance", "tubes.normal_form",
     "verify_family_invariance", None),
    ("normal_form.verify_group_law", "tubes.normal_form", "verify_group_law", None),
    ("normal_form.verify_map_conjugation", "tubes.normal_form", "verify_map_conjugation",
     None),
    ("relations.reduce_poly", "tubes.relations", "RelationContext.reduce_poly", None),
    ("catalog.registry", "tubes.catalog", "registry", None),
    ("catalog.load_tree", "tubes.catalog", "load_tree", None),
    ("catalog.export_tree", "tubes.catalog", "export_tree",
     lambda a, r: {"bytes": _tree_bytes(a[0])}),
    ("interchange.poly_from_obj", "tubes.interchange", "poly_from_obj", None),
    ("interchange.poly_to_obj", "tubes.interchange", "poly_to_obj", None),
    ("interchange.family_from_obj", "tubes.interchange", "family_from_obj", None),
)

# span tuple fields
SID, PARENT, NAME, PHASE, T0, T1, T_END, INFO = range(8)


class Recorder:
    """Spans of one process. `phase` is the pass index (-1 for set-up)."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.stack = [0]
        self.ids = itertools.count(1)
        self.phase = -1

    def wrap(self, name: str, fn, observe):
        spans, stack, ids = self.spans, self.stack, self.ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                info = observe(args, result) if observe and result is not None else None
                spans.append((sid, stack[-1], name, self.phase, t0, t1, perf(), info))
        return wrapper

    def install(self) -> List[str]:
        """Wrap every target; returns the targets the package no longer has."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tubes" or n.startswith("tubes."))]
        missing = []
        for name, modname, path, observe in TARGETS:
            owner = sys.modules.get(modname)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(name)
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, observe)))
            else:
                wrapped = self.wrap(name, raw, observe)
                for holder in ([owner] if cls_name else modules):
                    for key, value in list(vars(holder).items()):
                        if value is raw:
                            setattr(holder, key, wrapped)
        return missing


def totals(spans: List[tuple], first_phase: int = 0) -> Dict[str, Dict[str, float]]:
    """Per target: calls, self seconds and summed observer counts over the
    spans of phases >= first_phase; maxima for the `*_max` style fields."""
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        covered[s[PARENT]] += s[T_END] - s[T0]
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s[PHASE] < first_phase:
            continue
        agg = out[s[NAME]]
        agg["calls"] += 1
        agg["s"] += (s[T1] - s[T0]) - covered[s[SID]]
        for key, value in (s[INFO] or {}).items():
            if key in ("terms_out", "coeff_bits"):
                agg[key] = max(agg[key], value)
            else:
                agg[key] += value
    return out


def write(spans: List[tuple], path: str) -> None:
    """Write spans as CSV: id, parent, name, phase, start and end in ns."""
    with open(path, "w") as fh:
        fh.write("id,parent,name,phase,start_ns,end_ns\n")
        for s in spans:
            fh.write(f"{s[SID]},{s[PARENT]},{s[NAME]},{s[PHASE]},"
                     f"{int(s[T0] * 1e9)},{int(s[T1] * 1e9)}\n")
