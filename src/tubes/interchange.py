"""Serialization of engine values to a structured text (JSON) format.

Polynomials follow the shared interchange layout: an ordered `vars` list
plus a `terms` list of records with exponent vector `e` and either a
rational coefficient `c: "p/q"` or a Gaussian one `re`/`im`. A rational
is always a string of exactly the grammar -?[0-9]+ or -?[0-9]+/[0-9]+
(ASCII digits, no sign on the denominator), the form frac_to_str writes;
frac_from_str refuses anything else, a JSON float, an exponent, a decimal
point, whitespace, '+' or '_' among them. The golden-table generator
keys and the coordinates of `tubes orbits --probes` follow the same
grammar, read by the same frac_from_str. Terms are emitted in
graded-lexicographic order so serialization is canonical.

Every other JSON shape is one codec, an (encode, decode) pair built from
a single spec (pickler combinators, Kennedy, JFP 14(6), 2004); each
decoder raises TypeError on a JSON value of the wrong type.
"""

from __future__ import annotations

import json
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Mapping

from .fields import HoloField, VectorField
from .normal_form import GraphSurface, MapFamily
from .poly import MultiPoly, RationalFunction
from .relations import RelationContext
from .scalars import GaussianRational, _gr, frac_from_str


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


def _typed(obj, kind):
    """obj if its type is `kind` (so a bool is no int), else a TypeError."""
    if type(obj) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {obj!r:.60}")
    return obj


def frac_to_str(x) -> str:
    if type(x) is int:
        return int.__repr__(x)
    return str(x)


def gauss_to_obj(c: GaussianRational):
    if c.is_real():
        return frac_to_str(c.re)
    return {"re": frac_to_str(c.re), "im": frac_to_str(c.im)}


def gauss_from_obj(obj) -> GaussianRational:
    """The number a gauss_to_obj value names: a rational string, or a
    dict with its "re" and, unless it is 0, its "im" string."""
    if isinstance(obj, dict):
        return _gr(frac_from_str(obj["re"]), frac_from_str(obj.get("im", "0")))
    return _gr(frac_from_str(obj), 0)


def poly_to_obj(p: MultiPoly) -> Dict:
    # a real coefficient goes under "c", a complex one's parts into the record
    return {"vars": list(p.vars),
            "terms": [{"e": list(exps), "re": frac_to_str(re), "im": frac_to_str(im)} if im
                      else {"e": list(exps), "c": frac_to_str(re)}
                      for exps, re, im in p.sorted_terms()]}


def poly_from_obj(obj: Mapping) -> MultiPoly:
    names = _typed(obj["vars"], list)
    "".join(names)  # a TypeError unless every name is a str
    terms = []
    for record in obj["terms"]:
        c = record["c"] if "c" in record else record
        # a real coefficient goes to the constructor as a plain rational
        terms.append((record["e"], frac_from_str(c) if type(c) is str else gauss_from_obj(c)))
    # the constructor checks each (exponents, coefficient) pair as it reads it
    return MultiPoly(tuple(names), terms)


def ratfun_to_obj(f: RationalFunction) -> Dict:
    return {"num": poly_to_obj(f.num), "den": poly_to_obj(f.den)}


def ratfun_from_obj(obj: Mapping) -> RationalFunction:
    return RationalFunction(poly_from_obj(obj["num"]), poly_from_obj(obj["den"]))


# ------------------------------------------------------------------ codecs

# each encoder is the type itself, which returns a value of that type as it is
TEXT, INT, FLAG = ((kind, partial(_typed, kind=kind)) for kind in (str, int, bool))
FRAC = (frac_to_str, frac_from_str)
GAUSS = (gauss_to_obj, gauss_from_obj)
RATFUN = (ratfun_to_obj, ratfun_from_obj)
# looked up by name at run time, so that a wrapper installed on this module
# sees every call
POLY = (lambda p: poly_to_obj(p), lambda obj: poly_from_obj(obj))


def seq(codec):
    """A JSON list of `codec` values, decoded as a tuple."""
    encode, decode = codec
    return (lambda values: [encode(v) for v in values],
            lambda obj: tuple([decode(v) for v in _typed(obj, list)]))


def row(*codecs):
    """A JSON list with one value per codec, decoded as a tuple."""
    def decode(obj):
        if len(_typed(obj, list)) != len(codecs):
            raise ValueError(f"expected a list of {len(codecs)} values, got {len(obj)}")
        return tuple(dec(v) for (_, dec), v in zip(codecs, obj))
    return (lambda values: [enc(v) for (enc, _), v in zip(codecs, values)], decode)


def pairs(codec, key=TEXT, into=tuple):
    """A JSON object of `codec` values under `key`-coded names, decoded as
    `into` (tuple or dict) of its (name, value) pairs in the JSON's order."""
    (encode_key, decode_key), (encode, decode) = key, codec
    return (lambda items: {encode_key(k): encode(v) for k, v in
                           (items.items() if isinstance(items, dict) else items)},
            lambda obj: into([(decode_key(k), decode(v)) for k, v in _typed(obj, dict).items()]))


def optional(codec):
    """`codec`, or JSON null for None."""
    encode, decode = codec
    return (lambda value: None if value is None else encode(value),
            lambda obj: None if obj is None else decode(obj))


def record(cls, *spec):
    """A JSON object for a Record `cls`, or a plain tuple if cls is tuple:
    `spec` holds one (JSON key, codec) pair per field, in field order, and
    a key of None inlines that field's record codec. A key missing from the
    JSON gives its field the Record default (KeyError if it has none);
    keys outside the spec are ignored."""
    if cls is tuple:
        names, defaults, build = range(len(spec)), {}, lambda *values: values
    else:
        names, defaults, build = cls._fields, cls._defaults, cls
        if len(spec) != len(names):
            raise TypeError(f"{cls.__name__} has {len(names)} fields, its codec spec {len(spec)}")
    fallback = {key: defaults[name] for (key, _), name in zip(spec, names) if name in defaults}

    def encode(value):
        out = {}
        for (key, (enc, _)), name in zip(spec, names):
            part = enc(value[name] if cls is tuple else getattr(value, name))
            if key is None:
                out.update(part)
            else:
                out[key] = part
        return out

    def decode(obj):
        _typed(obj, dict)
        return build(*[dec(obj) if key is None else dec(obj[key]) if key in obj else fallback[key]
                       for key, (_, dec) in spec])
    return encode, decode


RELATIONS = record(RelationContext,
                   ("radicals", seq(record(tuple, ("symbol", TEXT), ("square", POLY)))),
                   ("unit_pairs", seq(row(TEXT, TEXT))))

_FIELD = record(tuple, ("variables", seq(TEXT)), ("holomorphic", FLAG), ("components", seq(POLY)))


def _field(variables, holomorphic, components) -> VectorField:
    return (HoloField if holomorphic else VectorField)(variables, components)


FIELD = (lambda f: _FIELD[0]((f.variables, isinstance(f, HoloField), f.components)),
         lambda obj: _field(*_FIELD[1](obj)))

GRAPH = record(GraphSurface, ("holo_vars", seq(TEXT)), ("anti_vars", seq(TEXT)),
               ("slice_var", TEXT), ("solved_var", TEXT), ("solved_conj", TEXT),
               ("re_part", optional(RATFUN)), ("im_part", optional(RATFUN)), ("name", TEXT))


class _NotPolynomial(ValueError):
    pass


def _polynomial(f: RationalFunction) -> MultiPoly:
    if not f.is_polynomial():
        raise _NotPolynomial(f"needs polynomial components, got the denominator {f.den}")
    return f.num


# a family's components are polynomials, written as rational functions
_FAMILY = record(MapFamily, ("name", TEXT), ("variables", seq(TEXT)), ("params", seq(TEXT)),
                 ("components", seq((lambda p: ratfun_to_obj(RationalFunction(p)),
                                     lambda obj: _polynomial(ratfun_from_obj(obj))))),
                 ("identity", pairs(FRAC)), ("relations", RELATIONS),
                 ("constraints", pairs(TEXT)), ("composition", pairs(RATFUN)),
                 ("composition_primed", seq(TEXT)))


def family_to_obj(fam: MapFamily) -> Dict:
    return _FAMILY[0](fam)


def family_from_obj(obj: Mapping) -> MapFamily:
    """The family a family_to_obj object names; a component with a
    denominator is a ValueError that names the family."""
    try:
        return _FAMILY[1](obj)
    except _NotPolynomial as exc:
        raise ValueError(f"map family {obj['name']!r} {exc}") from None


FAMILY = (lambda fam: family_to_obj(fam), lambda obj: family_from_obj(obj))
