"""Hand-written expected verdicts for every invocation the benchmark issues.

Each entry gives the exit code and each check's verdict, plus where the
expectation comes from. "README" is the subcommand table and exit-code
contract in README.md; "criterion N" is tests/test_acceptance.py; a
fixture id refers to its claim in fixtures/index.json. None of these
expectations is read back from the engine: they are transcribed claims.

An invocation counts as failed when it raises, returns another exit code,
or yields any verdict that differs from its entry (a missing or an extra
check included).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

PASS, FAIL, UNRESOLVED = "PASS", "FAIL", "UNRESOLVED"


@dataclass(frozen=True)
class Entry:
    exit: int
    checks: Dict[str, str]
    source: str
    # orbits: every random probe adds one check with this id prefix
    probe_prefix: Optional[str] = None
    # scans: verdict totals; `checks` then lists only the checks named by id
    counts: Optional[Dict[str, int]] = None


def _all_pass(ids: List[str]) -> Dict[str, str]:
    return {cid: PASS for cid in ids}


# ------------------------------------------------------------------ tube maps

def _map(mid: str, origin: bool, source: str) -> Entry:
    ids = [f"map.identity.{mid}"] + ([f"map.origin.{mid}"] if origin else [])
    return Entry(0, _all_pass(ids), source)


NORMAL_FORM_CONDITIONS = (
    "classical_trace3", "parts_(k,1)_vanish_for_k_>=_2", "perturbation_control",
    "pure_parts_(k,0)_vanish", "tr^2_F32_=_0", "tr^2_F33_=_0", "tr_F22_=_0")


def _normal_form(case: str) -> Entry:
    ids = [f"normal_form.{case}.{name}" for name in NORMAL_FORM_CONDITIONS]
    ids.append(f"normal_form.reality.{case}")
    return Entry(0, _all_pass(ids),
                 "criterion 3: both graphs satisfy the normal-form conditions at every "
                 "cutoff and the (2,2) perturbation breaks tr F22 = 0; README normal-form")


EXPECTED: Dict[str, Entry] = {
    "verify-map --id map.cm.D": _map(
        "map.cm.D", True, "criterion 4: identity holds, origin -> (1,0,1,1); map.cm.D claim"),
    "verify-map --id map.cm.C": _map(
        "map.cm.C", True, "criterion 4: identity holds, origin -> (1,0,0,0); map.cm.C claim"),
    "verify-map --id map.case3.derived": _map(
        "map.case3.derived", False, "map.case3.derived claim: the (3/2, 1/2) shear verifies"),
    "verify-map --id map.case3.printed": _map(
        "map.case3.printed", False,
        "map.case3.printed claim: the identity fails and the fixture records expected=false, "
        "so the check (identity fails as recorded) passes"),
    "verify-map --id map.case3.printed.reversed": _map(
        "map.case3.printed.reversed", False,
        "map.case3.printed.reversed claim: the printed shear verifies in reverse"),
    "verify-map --id map.quadric.to.Bminus": _map(
        "map.quadric.to.Bminus", False, "map.quadric.to.Bminus claim: linear change verifies"),
    "normal-form --case D": _normal_form("D"),
    "normal-form --case C": _normal_form("C"),
    "isotropy --case D": Entry(0, _all_pass([
        "isotropy.D.bridge", "isotropy.D.dimension", "isotropy.D.fixed_point",
        "isotropy.D.invariance", "isotropy.D.slice", "isotropy.D.w_graph"]),
        "criteria 5 and 6: isotropy family invariant, fixes (1,0,1,1), dimension 3, "
        "u = 16mu/25 and v = 2nu/5 bridge; README isotropy"),
    "isotropy --case C": Entry(0, _all_pass([
        "isotropy.C.dimension", "isotropy.C.invariance.C", "isotropy.C.invariance.scale",
        "isotropy.C.invariance.shear", "isotropy.C.printed_circle_control",
        "isotropy.C.w_graph"]),
        "criterion 5; README isotropy: the printed-sign circle action fails invariance, so "
        "its negative control passes"),
    "group --case D": Entry(0, _all_pass([
        "group.D.generators", "group.D.invariance", "group.D.law"]),
        "criterion 5: ten-parameter family invariant, generators span 10, group law "
        "verifies; README group"),
    "group --case C": Entry(0, _all_pass([
        "group.C.affine_invariance", "group.C.generators", "group.C.law",
        "group.C.translations"]),
        "criterion 5: affine family and translations invariant, generators span 10; "
        "README group"),
}

# --------------------------------------------------------------- algebra scan

# affine symmetry dimensions transcribed from the surface fixtures' claims
# (criterion 1); the printed cubic row has no asserted dimension and its
# checks are informational passes
SURFACES = (
    "surface.table.1p", "surface.table.1m", "surface.table.2.sphere",
    "surface.table.2.cubic", "surface.table.3", "surface.table.4.a0",
    "surface.table.4.a112", "surface.table.4.a1", "surface.table.4.am1",
    "surface.table.5", "surface.table.6", "surface.quadric.half")

for _sid in SURFACES:
    EXPECTED[f"symmetry --surface {_sid}"] = Entry(0, _all_pass([
        f"symmetry.dim.{_sid}", f"symmetry.structure.{_sid}",
        f"symmetry.transitive.{_sid}"]),
        f"criterion 1 and the {_sid} claim: dimension, Jacobi identity, rank 3 at the "
        "basepoint")

# The open-orbit checks: the domain probes stored for each surface, the
# determinant record for four-dimensional algebras, and one passing check
# per random probe. Every point off these surfaces that meets their side
# constraints lies in an open orbit (the domains of the classification are
# exactly the sides of the surfaces), so random probes pass.
_ORBIT_PROBES = {
    "surface.table.1p": ["0_0_0_-1", "0_0_0_1"],
    "surface.table.1m": ["0_0_0_-1", "0_0_0_1"],
    "surface.table.3": [],
    "surface.table.4.a0": [],
    "surface.table.4.a112": [],
    "surface.table.4.a1": ["0_0_0_-1", "0_0_0_1"],
    "surface.table.4.am1": ["0_0_0_-1", "0_0_0_1"],
    "surface.table.5": ["1_0_0_-1", "1_0_0_1"],
    "surface.table.6": ["1_0_0_1", "1_1_0_0"],
    "surface.quadric.half": ["1_0_0_-1", "1_0_0_1"],
}
_FOUR_DIMENSIONAL = {"surface.table.4.a0", "surface.table.4.a112", "surface.table.4.a1",
                     "surface.table.4.am1", "surface.table.5", "surface.table.6"}

for _sid, _points in _ORBIT_PROBES.items():
    _ids = [f"orbits.probe.{_sid}.{p}" for p in _points]
    if _sid in _FOUR_DIMENSIONAL:
        _ids.append(f"orbits.det.{_sid}")
    EXPECTED[f"orbits --surface {_sid}"] = Entry(
        0, _all_pass(_ids),
        "criterion 8: the domain probes of this surface lie in open orbits; README orbits",
        probe_prefix=f"orbits.probe.{_sid}.")
for _sid in ("surface.table.2.sphere", "surface.table.2.cubic"):
    EXPECTED[f"orbits --surface {_sid}"] = Entry(
        0, _all_pass([f"orbits.none.{_sid}"]),
        "criterion 8 and the closed-surface row: no open orbits, probes are not tested")

for _case in ("D", "C"):
    _entries = [f"table.{_case}.{i:02d}.{j:02d}" for i in range(1, 11) for j in range(i + 1, 11)]
    EXPECTED[f"table --case {_case}"] = Entry(
        0, _all_pass(_entries + [f"table.{_case}.summary"]),
        "criterion 2 and README table: all 45 upper-triangle entries match the golden table")
    EXPECTED[f"nilpotency --case {_case}"] = Entry(0, _all_pass(
        [f"nilpotency.{_case}.cond_{c}" for c in "abcde"]
        + [f"nilpotency.{_case}.{n}" for n in ("full_algebra", "induction",
                                                 "perturbed_control")]),
        "criterion 7 and README nilpotency: conditions (a)-(e) hold, the algebra is not "
        "nilpotent, zeroing the marked bracket fails (a)")

# Grassmannian scans: totals per verdict. Exit code 2 means UNRESOLVED
# without FAIL, 1 means some FAIL (README exit codes).
EXPECTED.update({
    "scan --surface surface.table.1m --dim 5": Entry(
        2, {"scan.surface.table.1m.k5.recovers_half_domain_subalgebra": PASS,
            "scan.surface.table.1m.k5.unresolved_count": PASS},
        "basis.half_pseudo_ball.1m claim: the wall-preserving 5-dimensional subalgebra is "
        "recovered; 21 charts of which 18 unresolved", counts={PASS: 5, FAIL: 0, UNRESOLVED: 18}),
    "scan --surface surface.table.1p --dim 3": Entry(
        2, {"scan.surface.table.1p.k3.unresolved_count": PASS},
        "README scan: unresolved charts are counted, never dropped; 35 charts of which 34 "
        "unresolved", counts={PASS: 2, FAIL: 0, UNRESOLVED: 34}),
    "scan --surface surface.table.3 --dim 3": Entry(
        2, {"scan.surface.table.3.k3.unresolved_count": PASS},
        "README scan: 10 charts of which 6 unresolved, every solved chart closure-verified",
        counts={PASS: 5, FAIL: 0, UNRESOLVED: 6}),
    "scan --surface surface.table.2.sphere --dim 4": Entry(
        2, {"scan.surface.table.2.sphere.k4.unresolved_count": PASS},
        "surface.table.2.sphere claim: minors vanish identically; 15 charts, all unresolved",
        counts={PASS: 1, FAIL: 0, UNRESOLVED: 15}),
    "scan --surface surface.quadric.half --dim 4": Entry(
        1, {"scan.surface.quadric.half.k4.chart_0_1_4_6": FAIL,
            "scan.surface.quadric.half.k4.chart_0_2_3_6": FAIL,
            "scan.surface.quadric.half.k4.unresolved_count": PASS},
        "surface.quadric.half claim: the half-domains are bounded by the wall x1 = 0, not "
        "by the surface alone, so two solved charts give a determinant that is not a "
        "multiple of the defining polynomial and correctly FAIL; 35 charts, 32 unresolved",
        counts={PASS: 2, FAIL: 2, UNRESOLVED: 32}),
})

# --------------------------------------------------------------- catalog disk

_DOMAINS = ["Bm.gt", "Bm.lt", "Bp.gt", "Bp.lt", "C.gt", "C.lt", "D.gt", "D.lt",
            "H.gt", "H.lt", "Nm.gt", "Nm.lt", "Np.gt", "Np.lt"]
EXPECTED["classify"] = Entry(0, _all_pass(
    [f"classify.domain.{d}" for d in _DOMAINS]
    + ["classify.H.wall_rank_drop",
       "classify.eliminated.surface.table.2.cubic",
       "classify.eliminated.surface.table.2.sphere",
       "classify.equivalence.map.case3.derived",
       "classify.equivalence.map.quadric.to.Bminus"]
    + [f"classify.witness.{w}" for w in ("C.gt", "C.lt", "D.gt", "D.lt")]),
    "README classify: 14 domain records, the eliminated closed-surface row, the cubic-case "
    "equivalences and all four witnesses; criteria 8 and 9")
EXPECTED["lines"] = Entry(0, _all_pass(
    [f"lines.line.{x}" for x in ("C.gt", "C.lt", "D.gt", "D.lt")]),
    "criterion 10: each line restricts the inequality to the constant 1")
for _w in ("witness.D.gt", "witness.D.lt", "witness.C.gt", "witness.C.lt"):
    EXPECTED[f"witness --id {_w}"] = Entry(
        0, {f"witness.{_w}": PASS}, f"criterion 9 and the {_w} claim")


def key_of(argv: List[str]) -> str:
    """The table key of a command line: the subcommand and the options that
    select its subject, without --json, --seed, --cutoff or probe options."""
    out: List[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--json":
            continue
        if tok in ("--seed", "--cutoff", "--random-probes"):
            skip = True
            continue
        out.append(tok)
    return " ".join(out)


def mismatches(entry: Entry, code: int, report: dict, random_probes: int = 0) -> List[str]:
    """Every way a report departs from its entry; empty when it matches."""
    problems = []
    if code != entry.exit:
        problems.append(f"exit code {code}, expected {entry.exit}")
    got = [(c["id"], c["verdict"]) for c in report.get("checks", ())]
    seen = Counter(cid for cid, _ in got)
    verdict = dict(got)
    for cid, want in entry.checks.items():
        if cid not in verdict:
            problems.append(f"missing check {cid}")
        elif verdict[cid] != want:
            problems.append(f"{cid}: {verdict[cid]}, expected {want}")
    if entry.counts is not None:
        totals = Counter(v for _, v in got)
        for v, n in entry.counts.items():
            if totals[v] != n:
                problems.append(f"{totals[v]} {v} checks, expected {n}")
        return problems
    extras = seen - Counter(list(entry.checks))
    if entry.probe_prefix is None:
        problems.extend(f"unexpected check {cid}" for cid in extras)
        return problems
    # a random probe may coincide with a stored probe and repeat its id
    if sum(extras.values()) != random_probes:
        problems.append(f"{sum(extras.values())} random-probe checks, expected {random_probes}")
    problems.extend(f"unexpected check {cid}: {v}" for cid, v in got
                    if cid in extras and (v != PASS or not cid.startswith(entry.probe_prefix)))
    return problems


def flipped(entry: Entry) -> Entry:
    """A deliberately wrong copy of an entry: its first check's verdict is
    flipped. The negative control runs a real report against it."""
    cid, verdict = next(iter(entry.checks.items()))
    wrong = dict(entry.checks)
    wrong[cid] = FAIL if verdict == PASS else PASS
    return replace(entry, checks=wrong)
