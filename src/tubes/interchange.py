"""Serialization of engine values to a structured text (JSON) format.

Polynomials follow the shared interchange layout: an ordered `vars` list
plus a `terms` list of records with exponent vector `e` and either a
rational coefficient `c: "p/q"` or a Gaussian one `re`/`im`. Rationals
are always decimal-digit strings, never floats: frac_from_str refuses
anything else. Terms are emitted in graded-lexicographic order so
serialization is canonical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Mapping

from .fields import HoloField, VectorField
from .normal_form import GraphSurface, MapFamily
from .poly import MultiPoly, RationalFunction
from .relations import RelationContext
from .scalars import GaussianRational


def to_json(obj, sort_keys: bool = False) -> str:
    """Exactly json.dumps(obj, indent=1, sort_keys=sort_keys), whose indented
    form runs json's pure-Python encoder. Here strings take its C escaper and
    ints int.__repr__, as json does; only empty containers, dicts with a
    non-string key and other scalars go through json.dumps."""
    out: List[str] = []
    _put_json(obj, sort_keys, "\n", out)
    return "".join(out)


def _put_json(obj, sort_keys: bool, newline: str, out: List[str]) -> None:
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        inner = newline + " "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _put_json(value, sort_keys, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        inner = newline + " "
        sep = "{" + inner
        for key, value in sorted(obj.items()) if sort_keys else obj.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _put_json(value, sort_keys, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple, dict)):
        out.append(json.dumps(obj, indent=1, sort_keys=sort_keys).replace("\n", newline))
    else:
        out.append(json.dumps(obj))


def frac_to_str(x) -> str:
    return str(Fraction(x))


def frac_from_str(text) -> Fraction:
    """The rational that a frac_to_str string names. Anything but a string
    is a TypeError, so a JSON float never becomes a binary fraction."""
    if not isinstance(text, str):
        raise TypeError(f"a rational must be a 'p/q' string, got {text!r}")
    return Fraction(text)


def gauss_to_obj(c: GaussianRational):
    if c.is_real():
        return frac_to_str(c.re)
    return {"re": frac_to_str(c.re), "im": frac_to_str(c.im)}


def gauss_from_obj(obj) -> GaussianRational:
    """The number a gauss_to_obj value names: a rational string, or a
    dict with its "re" and, unless it is 0, its "im" string."""
    if isinstance(obj, dict):
        return GaussianRational(frac_from_str(obj["re"]), frac_from_str(obj.get("im", "0")))
    return GaussianRational(frac_from_str(obj))


def poly_to_obj(p: MultiPoly) -> Dict:
    terms = []
    for exps, coeff in p.sorted_terms():
        # a real coefficient goes under "c", a complex one's parts into the record
        c = gauss_to_obj(coeff)
        terms.append({"e": list(exps), "c": c} if isinstance(c, str) else {"e": list(exps), **c})
    return {"vars": list(p.vars), "terms": terms}


def poly_from_obj(obj: Mapping) -> MultiPoly:
    terms = {tuple(record["e"]): gauss_from_obj(record["c"] if "c" in record else record)
             for record in obj["terms"]}
    return MultiPoly(tuple(obj["vars"]), terms)


def ratfun_to_obj(f: RationalFunction) -> Dict:
    return {"num": poly_to_obj(f.num), "den": poly_to_obj(f.den)}


def ratfun_from_obj(obj: Mapping) -> RationalFunction:
    return RationalFunction(poly_from_obj(obj["num"]), poly_from_obj(obj["den"]))


def field_to_obj(f: VectorField) -> Dict:
    return {
        "variables": list(f.variables),
        "holomorphic": isinstance(f, HoloField),
        "components": [poly_to_obj(c) for c in f.components],
    }


def field_from_obj(obj: Mapping) -> VectorField:
    cls = HoloField if obj.get("holomorphic") else VectorField
    return cls(tuple(obj["variables"]), tuple(poly_from_obj(c) for c in obj["components"]))


def relations_to_obj(ctx: RelationContext) -> Dict:
    return {
        "radicals": [{"symbol": sym, "square": poly_to_obj(d)} for sym, d in ctx.radicals],
        "unit_pairs": [[c, cb] for c, cb in ctx.unit_pairs],
    }


def relations_from_obj(obj: Mapping) -> RelationContext:
    return RelationContext(
        radicals=tuple((r["symbol"], poly_from_obj(r["square"])) for r in obj.get("radicals", ())),
        unit_pairs=tuple((a, b) for a, b in obj.get("unit_pairs", ())),
    )


def family_to_obj(fam: MapFamily) -> Dict:
    return {
        "name": fam.name,
        "variables": list(fam.variables),
        "params": list(fam.params),
        "components": [ratfun_to_obj(RationalFunction(c)) for c in fam.components],
        "identity": {p: frac_to_str(v) for p, v in fam.identity},
        "relations": relations_to_obj(fam.relations),
        "constraints": {p: text for p, text in fam.constraints},
        "composition": {p: ratfun_to_obj(law) for p, law in fam.composition},
        "composition_primed": list(fam.composition_primed),
    }


def family_from_obj(obj: Mapping) -> MapFamily:
    components = []
    for c in obj["components"]:
        rf = ratfun_from_obj(c)
        if not rf.is_polynomial():
            raise ValueError(f"map family {obj['name']!r} needs polynomial components, "
                             f"got the denominator {rf.den}")
        components.append(rf.num)
    return MapFamily(
        name=obj["name"],
        variables=tuple(obj["variables"]),
        params=tuple(obj["params"]),
        components=tuple(components),
        identity=tuple((p, frac_from_str(v)) for p, v in obj["identity"].items()),
        relations=relations_from_obj(obj.get("relations", {})),
        constraints=tuple(sorted(obj.get("constraints", {}).items())),
        composition=tuple((p, ratfun_from_obj(law))
                          for p, law in obj.get("composition", {}).items()),
        composition_primed=tuple(obj.get("composition_primed", ())),
    )


def graph_to_obj(g: GraphSurface) -> Dict:
    return {
        "name": g.name,
        "holo_vars": list(g.holo_vars),
        "anti_vars": list(g.anti_vars),
        "slice_var": g.slice_var,
        "solved_var": g.solved_var,
        "solved_conj": g.solved_conj,
        "re_part": None if g.re_part is None else ratfun_to_obj(g.re_part),
        "im_part": None if g.im_part is None else ratfun_to_obj(g.im_part),
    }


def graph_from_obj(obj: Mapping) -> GraphSurface:
    return GraphSurface(
        holo_vars=tuple(obj["holo_vars"]),
        anti_vars=tuple(obj["anti_vars"]),
        slice_var=obj["slice_var"],
        solved_var=obj["solved_var"],
        solved_conj=obj["solved_conj"],
        re_part=None if obj["re_part"] is None else ratfun_from_obj(obj["re_part"]),
        im_part=None if obj["im_part"] is None else ratfun_from_obj(obj["im_part"]),
        name=obj.get("name", ""),
    )
