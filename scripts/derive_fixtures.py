#!/usr/bin/env python3
"""Standalone sympy oracle for the committed fixture tree.

Every catalogued object checked here is read from the fixture tree: the
fixtures/ directory next to this script, or the directory that the
TUBES_FIXTURES environment variable names, the same variable the package
reads. The script uses json and sympy only and imports nothing from the
package, so it checks exactly the bytes the engine decodes, independently
of the engine's arithmetic. It re-derives the catalogued claims
(commutation tables, composition laws, witnesses, invariance identities,
coordinate changes, expansion terms, symmetry dimensions) and names each
fixture it checks in the check's name, every derived fixture among them.

The only mathematics stated here are source claims that no fixture
holds: the expected symmetry dimensions and the hyperplane, the
multipliers of the invariant families, the printed expansion terms of
the quartic-case graph, the walls x1 + x3 = 0 and x1 = 0 of the
half-domains, and the case-3 counterexample.

Run:  python scripts/derive_fixtures.py      (exit 1 if any check fails)
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from pathlib import Path

import sympy as sp
from sympy import I, Rational, expand, simplify, sqrt

PASS = []
FAIL = []


def check(name, ok, detail=""):
    (PASS if ok else FAIL).append(name)
    print(f"[{'ok' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail and not ok else ""))


# ------------------------------------------------------------ fixture reader

TREE = Path(os.environ.get("TUBES_FIXTURES") or Path(__file__).resolve().parents[1] / "fixtures")
THETA = sp.Symbol("theta", real=True)


def load(fid):
    """The payload of fixture `fid` of the tree."""
    return json.loads((TREE / f"{fid}.json").read_text())["payload"]


def ids(kind):
    """The ids of the tree's fixtures of one kind, from its index."""
    index = json.loads((TREE / "index.json").read_text())["fixtures"]
    return [e["id"] for e in index if e["kind"] == kind]


def sym(name):
    # every coordinate and parameter is real; a conjugate coordinate is a
    # symbol of its own, so conjugate() conjugates the coefficients only
    return sp.Symbol(name, real=True)


def syms(names):
    return [sym(v) for v in names]


def gauss(obj):
    """A rational "p/q", or a Gaussian rational {"re": ..., "im": ...}."""
    if isinstance(obj, str):
        return Rational(obj)
    return Rational(obj["re"]) + I * Rational(obj.get("im", "0"))


def poly(obj):
    """A term list over `vars`: each term a coefficient times x**e."""
    xs = syms(obj["vars"])
    return sp.Add(*[gauss(t["c"] if "c" in t else t) * sp.Mul(*[x**k for x, k in zip(xs, t["e"])])
                    for t in obj["terms"]])


def ratfun(obj):
    return poly(obj["num"]) / poly(obj["den"])


def relations(ctx):
    """A radical (s, d) as sqrt(d), a unit pair (c, cb) as exp(±i theta)."""
    out = {sym(r["symbol"]): sqrt(poly(r["square"])) for r in ctx["radicals"]}
    for c, cb in ctx["unit_pairs"]:
        out.update({sym(c): sp.exp(I * THETA), sym(cb): sp.exp(-I * THETA)})
    return out


def family(fam):
    """(variables, parameters, components) of a map family, by id or payload."""
    fam = load(fam) if isinstance(fam, str) else fam
    rel = relations(fam["relations"])
    return (syms(fam["variables"]), syms(fam["params"]),
            [ratfun(c).subs(rel) for c in fam["components"]])


def fields(fid):
    """(coordinates, component lists) of a field basis."""
    fs = load(fid)["fields"]
    return syms(fs[0]["variables"]), [[poly(c) for c in f["components"]] for f in fs]


def surface(sid):
    """(polynomial, its variables, payload) of a hypersurface."""
    s = load(sid)
    return poly(s["poly"]), syms(s["poly"]["vars"]), s


# ---------------------------------------------------------------- utilities

def zero(e):
    return expand(sp.numer(sp.together(e))) == 0


def tube(P, xs, holo, anti):
    """P at x_j = (holo_j + anti_j) / 2."""
    return P.subs({x: (a + b) / 2 for x, a, b in zip(xs, holo, anti)}, simultaneous=True)


def conj(e, holo, anti):
    """The conjugate of e over the holomorphic coordinates `holo`."""
    return e.conjugate().subs(dict(zip(holo, anti)), simultaneous=True)


def multiplier(lhs, rho, coords):
    """The m, free of `coords`, with lhs = m * rho identically, or None."""
    lhs, rho = expand(lhs), expand(rho)
    mono, c = sp.Poly(rho, *coords).terms()[0]
    m = simplify(sp.Poly(lhs, *coords).coeff_monomial(mono) / c)
    return m if simplify(expand(lhs - m * rho)) == 0 else None


def bracket(X, Y, coords):
    """Lie bracket of fields given as lists of components."""
    out = []
    for i in range(len(coords)):
        xi = sum(X[j] * sp.diff(Y[i], coords[j]) for j in range(len(coords)))
        yi = sum(Y[j] * sp.diff(X[i], coords[j]) for j in range(len(coords)))
        out.append(expand(xi - yi))
    return out


def in_span(vec, basis_vectors, coords):
    """Solve vec = sum c_k basis_k for constant c_k; returns dict or None.

    Component identities are split into per-monomial coefficient
    equations so the solve involves the c_k only.
    """
    cs = sp.symbols(f"c0:{len(basis_vectors)}")
    eqs = []
    for i in range(len(vec)):
        expr = expand(vec[i] - sum(c * b[i] for c, b in zip(cs, basis_vectors)))
        if expr == 0:
            continue
        for coeff in sp.Poly(expr, *coords).coeffs():
            eqs.append(coeff)
    if not eqs:
        return {c: 0 for c in cs}
    sol = sp.solve(eqs, cs, dict=True)
    if not sol:
        return None
    s = sol[0]
    zero_free = {c: 0 for c in cs}
    out = {c: sp.sympify(s.get(c, 0)).subs(zero_free) for c in cs}
    resid = [expand(vec[i] - sum(out[c] * b[i] for c, b in zip(cs, basis_vectors)))
             for i in range(len(vec))]
    if any(r != 0 for r in resid):
        return None
    return out


def tangent(field, g, xs):
    """The field X satisfies X(g) = c g for a constant c."""
    return multiplier(sum(f * sp.diff(g, x) for f, x in zip(field, xs)), g, xs) is not None


# ============================================================ section 1: tables

def verify_table(case):
    coords, Z = fields(f"basis.Z.{case}")
    gold = load(f"table.golden.{case}")
    table = {(i, j): {int(k): Rational(c) for k, c in combo.items()}
             for i, j, combo in gold["entries"]}
    n = gold["dim"]
    bad = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
           if any(expand(g - sum(c * Z[k - 1][m] for k, c in table.get((i, j), {}).items()))
                  for m, g in enumerate(bracket(Z[i - 1], Z[j - 1], coords)))]
    check(f"table.golden.{case}: brackets of basis.Z.{case} "
          f"({n * (n - 1) // 2} upper entries)", n == len(Z) and not bad, f"mismatch at {bad}")


# ===================================================== section 2: case 3 map

def case3_map():
    """Solve for the shear z2 + a z1^2, z4 + b z1^3 carrying the tube over
    surface.table.3 onto the tube over surface.quadric.half."""
    P3, xs, _ = surface("surface.table.3")
    Pq, _, _ = surface("surface.quadric.half")
    x1, x2, x3, x4 = xs
    y1, a, b = sym("y1"), sp.Symbol("a"), sp.Symbol("b")
    re_sq, re_cu = x1**2 - y1**2, x1**3 - 3 * x1 * y1**2  # Re z1^2, Re z1^3
    resid = expand(Pq.subs({x2: x2 + a * re_sq, x4: x4 + b * re_cu}, simultaneous=True) - P3)
    sol = sp.solve(sp.Poly(resid, x1, y1).coeffs(), [a, b], dict=True)
    check("case-3 coefficients solve to a=3/2, b=1/2",
          sol == [{a: Rational(3, 2), b: Rational(1, 2)}], str(sol))
    if not sol:
        return
    z = syms(["z1", "z2", "z3", "z4"])

    def shear(s):
        return [z[0], z[1] + s * sol[0][a] * z[0]**2, z[2], z[3] + s * sol[0][b] * z[0]**3]
    for mid, s in (("map.case3.derived", 1), ("map.case3.printed", -1),
                   ("map.case3.printed.reversed", -1)):
        m = load(mid)
        comps = [ratfun(m["components"][k]) for k in m["target_holo"]]
        check(f"{mid}: the shear with {'the solved' if s > 0 else 'the negated'} coefficients",
              all(zero(c - w) for c, w in zip(comps, shear(s))), str(comps))


# ================================================ section 3: map identities

MAP_TARGETS = {"map.cm.D": "surface.table.6", "map.cm.C": "surface.table.5",
               "map.case3.derived": "surface.quadric.half",
               "map.case3.printed": "surface.quadric.half",
               "map.case3.printed.reversed": "surface.table.3",
               "map.quadric.to.Bminus": "surface.table.1m"}


def map_identities():
    """Each map's stored target is the tube over its surface P = 0. The
    identity itself is checked on P, in the sparse polynomial ring over
    Q(i): as sympy expressions (tube, conj, zero) the map.cm.D identity
    alone takes about ten times as long as all six maps here. With
    x_k = Re z_k = U_k / V_k, P(x) times the product of the V_k, each to
    the degree of P in x_k, is a polynomial; it must vanish on the source
    graph, w4 = W / D put in homogeneously in D, exactly when the map is
    expected to verify."""
    for mid, sid in MAP_TARGETS.items():
        m, (P, xs, _) = load(mid), surface(sid)
        check(f"{mid}: the stored target is the tube over {sid}", expand(
            poly(m["target"]) - tube(P, xs, syms(m["target_holo"]), syms(m["target_anti"]))) == 0)
        g = load(m["source_graph"])
        holo = syms(g["holo_vars"] + [g["solved_var"]])
        anti = syms(g["anti_vars"] + [g["solved_conj"]])
        n = len(holo)
        R, *_ = sp.ring(holo + anti, sp.QQ_I)

        def bar(p):  # conjugate the coefficients, swap holo and anti exponents
            return R({e[n:] + e[:n]: sp.QQ_I(c.x, -c.y) for e, c in p.items()})
        comps = [sp.cancel(ratfun(m["components"][k])) for k in m["target_holo"]]
        U, V = [], []
        for a, b in (map(R, sp.fraction(c)) for c in comps):
            U.append(a * bar(b) + bar(a) * b)
            V.append(2 * b * bar(b))
        pP, num = sp.Poly(P, *xs), R(0)
        for mono, c in pP.terms():
            term = R(c)
            for u, v, k, x in zip(U, V, mono, xs):
                term *= u**k * v**(pP.degree(x) - k)
            num += term
        part = g["im_part"] or g["re_part"]
        N, D, w4b = R(poly(part["num"])), R(poly(part["den"])), R(anti[-1])
        W = w4b * D + 2 * I * N if g["im_part"] else 2 * N - w4b * D
        w4, top = R.gens[n - 1], num.degree(R.gens[n - 1])
        holds = sum(num.coeff_wrt(w4, j) * W**j * D**(top - j) for j in range(top + 1)) == 0
        verb = "carries" if m["expected"] else "does NOT carry"
        check(f"{mid}: {verb} {m['source_graph']} into the tube over {sid}",
              holds == m["expected"])
        if m["origin_image"] is not None:
            origin = {v: 0 for v in holo[:-1] + anti[:-1]}
            w0 = (I * ratfun(part) if g["im_part"] else ratfun(part)).subs(origin)
            at0 = [c.subs({**origin, holo[-1]: w0}) for c in comps]
            want = [gauss(c) for c in m["origin_image"]]
            check(f"{mid}: sends the origin to {tuple(want)}", at0 == want, str(at0))


# ========================================= section 4: composition laws (G, C)

def composition_laws():
    for fid in ("family.affine.D", "family.affine.C"):
        fam = load(fid)
        xs, ps, comps = family(fam)
        primed = syms(fam["composition_primed"])
        law = {sym(p): ratfun(f) for p, f in fam["composition"].items()}
        inner = [c.subs(dict(zip(ps, primed)), simultaneous=True) for c in comps]
        composite = [c.subs(dict(zip(xs, inner)), simultaneous=True) for c in comps]
        check(f"{fid}: the stored composition law",
              bool(law) and all(zero(a - c.subs(law, simultaneous=True))
                                for a, c in zip(composite, comps)))


# ================================================= section 5: witnesses

def witnesses():
    for wid in ids("witness"):
        w = load(wid)
        xs, _, comps = family(w["family"])
        rel = relations(w["context"])
        values = {sym(p): ratfun(f).subs(rel) for p, f in w["assignment"].items()}
        base = [Rational(b) for b in w["base"]]
        values.update(zip(xs, base))
        img = [simplify(c.subs(values, simultaneous=True)) for c in comps]
        ok = all(simplify(a - t) == 0 for a, t in zip(img, syms(w["target_vars"])))
        check(f"{wid}: sends the base point {tuple(base)} to the target", ok, str(img))


# ======================== section 6: half-domain subalgebras (dim 5) and walls

def half_pseudo_ball():
    x1, _, x3, _ = syms(["x1", "x2", "x3", "x4"])
    for bid, sid, wall in (("basis.half_pseudo_ball.1m", "surface.table.1m", x1 + x3),
                           ("basis.half_pseudo_ball.quadric", "surface.quadric.half", x1)):
        P, xs, _ = surface(sid)
        coords, basis = fields(bid)
        check(f"{bid}: tangent to {sid} and to the wall {wall} = 0",
              coords == xs and all(tangent(f, g, xs) for f in basis for g in (P, wall)))
        escapes = [(i, j) for i, j in itertools.combinations(range(len(basis)), 2)
                   if in_span(bracket(basis[i], basis[j], xs), basis, xs) is None]
        check(f"{bid}: closed under bracket", not escapes, f"escaping brackets {escapes}")
        monos = [sp.Integer(1)] + xs
        rows = [[sp.Poly(c, *xs).coeff_monomial(m) for c in f for m in monos] for f in basis]
        check(f"{bid}: 5 independent fields", len(basis) == sp.Matrix(rows).rank() == 5)


# ========================== section 7: families preserving tubes and graphs

# the m with rho o f = m rho of each family f on its tube or graph rho = 0; None: no m
EXPECTED_MULTIPLIERS = {
    "family.isotropy.D": sym("r")**2, "family.full.D": sym("q")**2 * sym("r")**2,
    "family.isotropy.C.scale": sym("r")**2, "family.isotropy.C.shear": 1, "family.circle.C": 1,
    "family.circle.C.printed": None,
    "family.isotropy.D.w": sym("r")**2, "family.isotropy.C.w": sym("r")**2,
}


def preserves(fid, sid, fixes=False):
    """Check that the map family `fid` carries the tube over surface `sid`
    to itself by its expected multiplier, and with `fixes` set that it
    fixes the surface's basepoint identically."""
    P, xs, s = surface(sid)
    zs, _, comps = family(fid)
    zbs = [sym(v.name + "b") for v in zs]
    m = multiplier(tube(P, xs, comps, [conj(c, zs, zbs) for c in comps]),
                   tube(P, xs, zs, zbs), zs + zbs)
    want = EXPECTED_MULTIPLIERS[fid]
    claim = (f"does NOT preserve the tube over {sid}" if want is None
             else f"preserves the tube over {sid} with multiplier {want}")
    check(f"{fid}: {claim}", m == want, f"multiplier {m}")
    if fixes:
        bp = [Rational(b) for b in s["basepoint"]]
        check(f"{fid}: fixes the basepoint {tuple(bp)} of {sid} identically",
              [simplify(c.subs(dict(zip(zs, bp)), simultaneous=True)) for c in comps] == bp)


def isotropy_and_full_group():
    preserves("family.isotropy.D", "surface.table.6", fixes=True)
    preserves("family.full.D", "surface.table.6")
    sl = load("slice.isotropy.D")
    _, _, full = family(sl["family"])
    _, _, iso = family(sl["reduces_to"])
    assign = {sym(p): poly(e) for p, e in sl["assignments"].items()}
    check(f"slice.isotropy.D: {sl['family']} restricted equals {sl['reduces_to']}",
          all(expand(a.subs(assign, simultaneous=True) - b) == 0 for a, b in zip(full, iso)))


def cubic_isotropy():
    for fid in ("family.isotropy.C.scale", "family.isotropy.C.shear"):
        preserves(fid, "surface.table.5", fixes=True)


def circle_action():
    preserves("family.circle.C", "surface.table.5")
    preserves("family.circle.C.printed", "surface.table.5")
    # the generator d/dtheta at theta = 0 of the circle action
    _, _, comps = family("family.circle.C")
    _, Zc = fields("basis.Z.C")
    gen = [sp.diff(c, THETA).subs(THETA, 0) for c in comps]
    check("family.circle.C: its generator is the tenth basis.Z.C field",
          all(expand(a - b) == 0 for a, b in zip(gen, Zc[9])), str(gen))


def graph_families():
    """A linear family preserves the graph Im w4 = N/D: the cross-multiplied
    (w4 - w4b) D - 2 i N transforms by its expected multiplier."""
    for fid, gid in (("family.isotropy.D.w", "graph.cm.D"), ("family.isotropy.C.w", "graph.cm.C")):
        g = load(gid)
        holo = syms(g["holo_vars"] + [g["solved_var"]])
        anti = syms(g["anti_vars"] + [g["solved_conj"]])
        rho = (holo[-1] - anti[-1]) * poly(g["im_part"]["den"]) - 2 * I * poly(g["im_part"]["num"])
        ws, _, comps = family(fid)
        values = {**dict(zip(ws, comps)), **dict(zip(anti, [conj(c, ws, anti) for c in comps]))}
        m = multiplier(rho.subs(values, simultaneous=True), rho, holo + anti)
        check(f"{fid}: preserves the graph of {gid} with multiplier {EXPECTED_MULTIPLIERS[fid]}",
              m == EXPECTED_MULTIPLIERS[fid], f"multiplier {m}")


# ===================== section 8: expansion terms of the quartic-case graph

def impterms():
    g = load("graph.cm.D")
    WS = syms(g["holo_vars"] + g["anti_vars"])
    w1, w2, w3, wb1, wb2, wb3 = WS
    N, D = poly(g["im_part"]["num"]), poly(g["im_part"]["den"])

    def trunc(expr, deg):
        p = sp.Poly(expand(expr), *WS)
        keep = 0
        for mono, coeff in zip(p.monoms(), p.coeffs()):
            if sum(mono) <= deg:
                keep += coeff * sp.prod(v**m for v, m in zip(WS, mono))
        return expand(keep)

    cutoff = 7
    d0 = D.subs({v: 0 for v in WS})
    E = expand(D - d0) / d0
    inv = 1
    acc = 1
    for k in range(1, cutoff + 1):
        acc = trunc(acc * E, cutoff)
        inv = inv + (-1) ** k * acc
    F = trunc(N * inv, cutoff) / d0

    def bidegree(expr, k, l):
        p = sp.Poly(expand(expr), *WS)
        out = 0
        for mono, coeff in zip(p.monoms(), p.coeffs()):
            hk = mono[0] + mono[1] + mono[2]
            al = mono[3] + mono[4] + mono[5]
            if hk == k and al == l:
                out += coeff * sp.prod(v**m for v, m in zip(WS, mono))
        return expand(out)
    F11 = bidegree(F, 1, 1)
    check("graph.cm.D expansion part (1,1)",
          expand(F11 - (w3 * wb3 / 2 + w1 * wb2 / 2 + wb1 * w2 / 2)) == 0, str(F11))
    F22 = bidegree(F, 2, 2)
    want22 = (Rational(-5, 32) * (w1**2 * wb1 * wb2 + wb1**2 * w1 * w2)
              + Rational(25, 64) * (w1**2 * wb3**2 + wb1**2 * w3**2)
              + Rational(5, 8) * w1 * wb1 * w3 * wb3)
    check("graph.cm.D expansion part (2,2)", expand(F22 - want22) == 0, str(F22))
    F32 = bidegree(F, 3, 2)
    want32 = (Rational(-75, 128) * w1**3 * wb3**2
              - Rational(75, 64) * w1**2 * w3 * wb1 * wb3
              - Rational(75, 128) * w1 * w3**2 * wb1**2)
    check("graph.cm.D expansion part (3,2)", expand(F32 - want32) == 0, str(F32))
    F33 = bidegree(F, 3, 3)
    want33 = (Rational(25, 512) * (w1**3 * wb1**2 * wb2 + wb1**3 * w1**2 * w2)
              + Rational(175, 128) * (w1**3 * wb1 * wb3**2 + wb1**3 * w1 * w3**2)
              + Rational(1425, 512) * w1**2 * wb1**2 * w3 * wb3)
    check("graph.cm.D expansion part (3,3)", expand(F33 - want33) == 0, str(F33))

    def tr(e):
        return 2 * (sp.diff(e, w1, wb2) + sp.diff(e, w2, wb1) + sp.diff(e, w3, wb3))
    check("trace conditions: tr F22 = tr^2 F32 = tr^2 F33 = 0",
          expand(tr(F22)) == 0 and expand(tr(tr(F32))) == 0 and expand(tr(tr(F33))) == 0)
    for k in range(0, cutoff + 1):
        if bidegree(F, k, 0) != 0:
            check(f"graph.cm.D pure part ({k},0) vanishes", False)
    for k in range(2, cutoff):
        if bidegree(F, k, 1) != 0:
            check(f"graph.cm.D part ({k},1) vanishes", False)
    check("graph.cm.D pure and (k,1) parts vanish through the cutoff", True)


# ============================= section 9: isotropy parameter bridge (quartic)

def isotropy_bridge():
    br = load("bridge.isotropy.D")
    ws, (r, mu, nu), wf = family(br["w_family"])
    zs, zp, zf = family(br["z_family"])
    m = load(br["map"])
    phi = [ratfun(m["components"][k]) for k in m["target_holo"]]
    params = dict(zip(zp, (r, Rational(br["u_scale"]) * mu, Rational(br["v_scale"]) * nu)))
    lhs = [c.subs(dict(zip(ws, wf)), simultaneous=True) for c in phi]
    rhs = [c.subs({**dict(zip(zs, phi)), **params}, simultaneous=True) for c in zf]
    check(f"bridge.isotropy.D: {br['map']} conjugates {br['w_family']} into {br['z_family']} "
          f"with u = {br['u_scale']} mu, v = {br['v_scale']} nu",
          all(zero(a - b) for a, b in zip(lhs, rhs)))


# ======================== section 10: surfaces, domains and symmetry dimensions

def symmetry_dimension(P, xs):
    n = len(xs)
    a = sp.Matrix(n, n, lambda i, j: sp.Symbol(f"A{i}{j}"))
    b = sp.Matrix(n, 1, lambda i, _: sp.Symbol(f"b{i}"))
    c = sp.Symbol("c_mult")
    comps = a * sp.Matrix(xs) + b
    expr = expand(sum(comps[i] * sp.diff(P, xs[i]) for i in range(n)) - c * P)
    unknowns = list(a) + list(b) + [c]
    poly = sp.Poly(expr, *xs)
    rows = []
    for coeff in poly.coeffs():
        rows.append([sp.diff(coeff, u) for u in unknowns])
    mat = sp.Matrix(rows)
    # the multiplier unknown is determined by (A, b), so the kernel
    # dimension equals the number of independent tangent fields
    return len(unknowns) - mat.rank()


EXPECTED_DIMS = {
    "surface.table.1p": 7, "surface.table.1m": 7, "surface.table.2.sphere": 6,
    "surface.table.2.cubic": 3, "surface.table.3": 5, "surface.table.4.a0": 4,
    "surface.table.4.a112": 4, "surface.table.4.a1": 4, "surface.table.4.am1": 4,
    "surface.table.5": 4, "surface.table.6": 4, "surface.quadric.half": 7,
}


def dimensions():
    for sid, want in EXPECTED_DIMS.items():
        P, xs, _ = surface(sid)
        got = symmetry_dimension(P, xs)
        check(f"{sid}: affine symmetry dimension {want}", got == want, f"got {got}")
    xs = syms(["x1", "x2", "x3", "x4"])
    got = symmetry_dimension(xs[3], xs)
    check("the hyperplane x4 = 0: affine symmetry dimension 16", got == 16, f"got {got}")


def surfaces_and_domains():
    for sid in ids("hypersurface"):
        P, _, s = surface(sid)
        if s["assert_irreducible"]:
            _, factors = sp.factor_list(P, gaussian=True)
            check(f"{sid}: irreducible over Q(i)", [k for _, k in factors] == [1], str(factors))
    P6, xs6, s6 = surface("surface.table.6")
    P8, xs8, s8 = surface("surface.tube.6.realified")
    check("surface.tube.6.realified: surface.table.6 over the 8 real coordinates",
          xs8 == xs6 + syms(["y1", "y2", "y3", "y4"]) and expand(P8 - P6) == 0
          and s8["basepoint"] == s6["basepoint"] + ["0"] * 4
          and len(s8["constraints"]) == len(s6["constraints"])
          and all(expand(poly(c["expr"]) - poly(d["expr"])) == 0 and c["sense"] == d["sense"]
                  for c, d in zip(s8["constraints"], s6["constraints"])))
    for did in ids("domain"):
        d = load(did)
        P, xs, s = surface(d["source_surface"])
        side = 1 if did.endswith(".gt") else -1
        probe = dict(zip(xs, [Rational(p) for p in d["probe"]]))
        sides = [(poly(d["expr"]), "gt")] + [(poly(c["expr"]), c["sense"])
                                             for c in d["constraints"]]
        inside = all((e.subs(probe) > 0) if sense == "gt" else (e.subs(probe) < 0)
                     for e, sense in sides)
        same = expand(sides[0][0] - side * P) == 0 and d["constraints"] == s["constraints"]
        check(f"{did}: a side of {d['source_surface']}, with an interior probe", same and inside)


# ===================== section 11: case-3 subalgebra with somewhere-full rank

def case3_subalgebra_counterexample():
    """A closed 4-dim subalgebra of the case-3 symmetry algebra whose
    determinant equals -6 P, i.e. the fields are linearly independent
    everywhere OFF the surface. Its open orbits are exactly the two
    sides, so the classification is unaffected, but the blanket claim
    that every 4-dim subalgebra is nowhere of full rank is not literally
    true. Recorded here as independent evidence."""
    P, X, _ = surface("surface.table.3")
    x1, x2, x3, x4 = X
    sub = [[-1, 3 * x1, 0, -x2], [0, 1, 0, x1], [0, 0, 1, 2 * x3], [2 * x1, 4 * x2, 3 * x3, 6 * x4]]
    check("case-3 counterexample: four fields tangent to surface.table.3",
          all(tangent(f, P, X) for f in sub))
    check("case-3 counterexample: span is bracket-closed",
          all(in_span(bracket(a, b, X), sub, X) is not None for a in sub for b in sub))
    det = sp.Matrix(4, 4, lambda i, j: sub[j][i]).det()
    check("case-3 counterexample: determinant equals -6 * P",
          expand(det + 6 * P) == 0, str(expand(det)))


# ------------------------------------------------------------------------ main

def main():
    verify_table("D")
    verify_table("C")
    case3_map()
    map_identities()
    composition_laws()
    witnesses()
    half_pseudo_ball()
    circle_action()
    isotropy_and_full_group()
    cubic_isotropy()
    graph_families()
    impterms()
    isotropy_bridge()
    dimensions()
    surfaces_and_domains()
    case3_subalgebra_counterexample()
    print(f"\n{len(PASS)} ok, {len(FAIL)} failed")
    if FAIL:
        for name in FAIL:
            print(f"  FAILED: {name}")
        sys.exit(1)


if __name__ == "__main__":
    main()
