"""Front-end behavior: subcommands, exit codes, report schema."""

import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tubes import catalog, cli
from tubes.normal_form import infinitesimal_generators
from tubes.symmetry import ScanResult, affine_symmetry_algebra, subalgebra_scan

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code = cli.main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_symmetry_subcommand(capsys):
    code, report = run_json(["symmetry", "--surface", "surface.table.1p"], capsys)
    assert code == 0
    dims = [c for c in report["checks"] if c["id"].startswith("symmetry.dim")]
    assert "dimension 7" in dims[0]["details"]


def test_table_subcommand(capsys):
    code, report = run_json(["table", "--case", "D"], capsys)
    assert code == 0
    assert report["summary"] == {"pass": 46, "fail": 0, "unresolved": 0}
    entry_checks = [c for c in report["checks"] if c["id"].startswith("table.D.0")
                    or c["id"].startswith("table.D.1")]
    assert len(entry_checks) == 45


@pytest.mark.parametrize("argv,check_id,owner,method", [
    (["symmetry", "--surface", "surface.table.3"], "symmetry.structure.surface.table.3",
     "tubes.symmetry.LieAlgebraPresentation", "verify"),
    (["normal-form", "--case", "C"], "normal_form.reality.C",
     "tubes.normal_form.BidegreeSeries", "verify_reality"),
])
def test_a_failed_check_states_the_claim_of_the_passed_one(argv, check_id, owner, method,
                                                           monkeypatch, capsys):
    """A check states one claim whatever its verdict; the exception's
    text is its FAIL detail."""
    def check(report):
        return next(c for c in report["checks"] if c["id"] == check_id)

    passed = check(run_json(argv, capsys)[1])

    def broken(self):
        raise AssertionError("broken on purpose")

    monkeypatch.setattr(f"{owner}.{method}", broken)
    code, report = run_json(argv, capsys)
    failed = check(report)
    assert code == 1
    assert (passed["verdict"], failed["verdict"]) == ("PASS", "FAIL")
    assert failed["claim"] == passed["claim"]
    assert failed["details"] == "broken on purpose"


def test_classify_has_fourteen_domain_records(capsys):
    code, report = run_json(["classify"], capsys)
    assert code == 0
    domain_records = [c for c in report["checks"] if c["id"].startswith("classify.domain.")]
    assert len(domain_records) == 14
    assert all(c["verdict"] == "PASS" for c in domain_records)
    assert report["summary"]["fail"] == 0


def test_classify_builds_the_wall_preserving_presentation_once(monkeypatch, capsys):
    from tubes import catalog
    from tubes.symmetry import LieAlgebraPresentation
    wall = tuple(catalog.get("basis.half_pseudo_ball.quadric").payload.fields)
    build = LieAlgebraPresentation.from_fields.__func__
    calls = []

    def counting(cls, basis):
        calls.append(tuple(basis) == wall)
        return build(cls, basis)

    monkeypatch.setattr(LieAlgebraPresentation, "from_fields", classmethod(counting))
    code, _ = run_cli(["classify"], capsys)
    assert code == 0 and calls.count(True) == 1


def test_orbits_rejects_on_surface_probe(capsys, monkeypatch):
    """A --probes point on the surface is bad input, refused before any
    check runs: a usage error on one line that names the probe."""
    monkeypatch.setattr(cli, "affine_symmetry_algebra", None)
    assert cli.main(["orbits", "--surface", "surface.table.6", "--probes", "1,0,0,0"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: probe '1,0,0,0' lies on the surface; a probe must be off it\n"


def test_orbits_lists_each_probe_once(capsys):
    """A probe given twice, and again as a domain probe of the surface,
    is one check."""
    code, report = run_json(["orbits", "--surface", "surface.table.6",
                             "--probes", "1,0,0,1", "1,0,0,1"], capsys)
    assert code == 0
    ids = [c["id"] for c in report["checks"]]
    assert ids.count("orbits.probe.surface.table.6.1_0_0_1") == 1
    assert len(ids) == len(set(ids)) == report["summary"]["pass"] == 3


def test_orbits_of_a_zero_dimensional_algebra_fail_at_rank_0(tmp_path, capsys):
    # x2 = x1^2 + x1^5 has no affine symmetries
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({
        "claim": "x2 = x1^2 + x1^5", "id": "surface.rigid", "kind": "hypersurface",
        "tag": "source",
        "payload": {"assert_irreducible": False, "basepoint": ["0", "0"], "constraints": [],
                    "name": "surface.rigid",
                    "poly": {"vars": ["x1", "x2"],
                             "terms": [{"c": "1", "e": [0, 1]}, {"c": "-1", "e": [2, 0]},
                                       {"c": "-1", "e": [5, 0]}]}}}))
    code = cli.main(["orbits", "--surface", str(path), "--probes", "1,1"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    fails = [line for line in captured.out.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1 and fails[0].endswith("(rank 0)")


def test_random_probes_are_canonical_rationals_of_the_same_draws():
    class Recorded(random.Random):
        def randint(self, a, b):
            draw = super().randint(a, b)
            self.draws.append(draw)
            return draw

    surface = catalog.get("surface.table.6").payload
    rng = Recorded(7)
    rng.draws = []
    for _ in range(30):
        point = cli._random_probe(rng, surface)
        pairs = list(zip(rng.draws[-8::2], rng.draws[-7::2]))
        assert point == tuple(Fraction(a, b) for a, b in pairs)
        assert [type(x) for x in point] == [int if a % b == 0 else Fraction for a, b in pairs]


def test_negative_random_probe_count_is_a_usage_error(capsys):
    code = cli.main(["orbits", "--surface", "surface.table.1m", "--random-probes", "-1"])
    captured = capsys.readouterr()
    assert code == 64
    assert "--random-probes" in captured.err and captured.out == ""


def test_scan_exit_code_unresolved(capsys):
    code, report = run_json(["scan", "--surface", "surface.table.3", "--dim", "4"], capsys)
    assert code == 2
    assert report["summary"]["unresolved"] == 1
    assert report["summary"]["fail"] == 0


# the five scans of the algebra-scan benchmark
BENCHMARK_SCANS = (("surface.table.1m", 5), ("surface.table.1p", 3), ("surface.table.3", 3),
                   ("surface.table.2.sphere", 4), ("surface.quadric.half", 4))
DETAIL = re.compile(r"residual equations: (\d+) \(by total degree: ([^)]*)\); first (\d+): (.*)")


def _scan_outcome(surface_id, k):
    return subalgebra_scan(affine_symmetry_algebra(catalog.get(surface_id).payload), k)


@pytest.mark.parametrize("surface_id, k", BENCHMARK_SCANS)
def test_an_unresolved_detail_counts_the_residuals_by_degree_and_shows_the_first_three(
        surface_id, k, capsys):
    code, report = run_json(["scan", "--surface", surface_id, "--dim", str(k)], capsys)
    details = {c["id"]: c["details"] for c in report["checks"] if c["verdict"] == "UNRESOLVED"}
    charts = _scan_outcome(surface_id, k).unresolved
    assert code in (1, 2) and len(details) == len(charts) > 0
    for chart in charts:
        cid = f"scan.{surface_id}.k{k}.chart_" + "_".join(map(str, chart.pivots))
        count, degrees, shown, first = DETAIL.fullmatch(details[cid]).groups()
        residual = chart.residual
        assert int(count) == len(residual)
        by_degree = [tuple(map(int, part.split(": "))) for part in degrees.split(", ")]
        degree = Counter(max(sum(exps) for exps, _, _ in e.sorted_terms()) for e in residual)
        assert by_degree == sorted(degree.items())
        assert int(shown) == min(3, len(residual))
        assert first.split("; ") == [str(e) for e in residual[:3]]


# the SHA-256 of the sorted lines "  <check id>: <full residual system>" built from
# this scan's UNRESOLVED details as the report held them before they were bounded
FULL_1P_K3 = "c7954248e76c730beb2bf5cb052a314d6bcb25551e5f62f5a79cdb09bedaf3b4"


def test_scan_verbose_prints_every_full_residual_system_and_keeps_the_report(capsys):
    argv = ["--json", "scan", "--surface", "surface.table.1p", "--dim", "3"]
    assert cli.main(argv) == 2
    plain = capsys.readouterr()
    assert cli.main(argv + ["--verbose"]) == 2
    verbose = capsys.readouterr()
    reports = [json.loads(captured.out) for captured in (plain, verbose)]
    for report in reports:
        report.pop("seconds")
    assert reports[0] == reports[1] and plain.err == ""
    lines = verbose.err.splitlines()
    charts = _scan_outcome("surface.table.1p", 3).unresolved
    assert lines == [f"  scan.surface.table.1p.k3.chart_{'_'.join(map(str, c.pivots))}: "
                     + "; ".join(str(e) for e in c.residual) for c in charts]
    assert len(lines) == reports[0]["summary"]["unresolved"] == 34
    assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == FULL_1P_K3


@pytest.mark.parametrize("dropped", [0, 2])  # an unresolved chart, an empty one
def test_unresolved_count_fails_when_a_chart_is_missing(dropped, monkeypatch, capsys):
    def short(algebra, k):
        charts = subalgebra_scan(algebra, k).charts
        return ScanResult(charts[:dropped] + charts[dropped + 1:])
    monkeypatch.setattr(cli, "subalgebra_scan", short)
    code, report = run_json(["scan", "--surface", "surface.table.3", "--dim", "3"], capsys)
    count = {c["id"]: c for c in report["checks"]}["scan.surface.table.3.k3.unresolved_count"]
    assert code == 1 and count["verdict"] == "FAIL"
    assert [c["id"] for c in report["checks"] if c["verdict"] == "FAIL"] == [count["id"]]
    assert count["details"] == f"{5 if dropped == 0 else 6} unresolved of 9 charts"


def test_normal_form_cutoff_flag(capsys):
    code, report = run_json(["normal-form", "--case", "C", "--cutoff", "7"], capsys)
    assert code == 0
    assert report["summary"]["fail"] == 0


def test_usage_errors(capsys):
    assert cli.main([]) == 64
    capsys.readouterr()
    assert cli.main(["witness", "--id", "no.such.witness"]) == 64


def _unknown_sense(obj):
    obj["payload"]["constraints"][0]["sense"] = "ge"


def _negative_exponent(obj):
    obj["payload"]["fields"][0]["components"][0]["terms"][0]["e"][0] = -1


def _float_exponent(obj):
    exps = next(t["e"] for t in obj["payload"]["expr"]["terms"] if 1 in t["e"])
    exps[exps.index(1)] = 1.0


def _rational_component(obj):
    # the same map, written as (2 z1) / 2
    comp = obj["payload"]["components"][0]
    for part in (comp["num"], comp["den"]):
        for term in part["terms"]:
            term["c"] = str(2 * Fraction(term["c"]))


def _zero_denominator(obj):
    obj["payload"]["poly"]["terms"][0]["c"] = "1/0"


def _empty_denominator(obj):
    next(iter(obj["payload"]["components"].values()))["den"]["terms"] = []


def _float_coefficient(obj):
    term = obj["payload"]["poly"]["terms"][0]
    term["c"] = float(Fraction(term["c"]))


def _non_real_term(obj):
    # i*x2 vanishes at the basepoint (1, 0, 1, 1)
    obj["payload"]["poly"]["terms"].append({"e": [0, 1, 0, 0], "re": "0", "im": "1"})


def _huge_exponent(obj):
    # x1^300 * x3: total degree 301, above what a term key holds
    obj["payload"]["poly"]["terms"][0]["e"][0] = 300


def _float_probe(obj):
    obj["payload"]["probe"][0] = 0.1


def _misspelt_kind(obj):
    obj["kind"] = "domian"


def _other_id(obj):
    obj["id"] = "witness.C.lt"


def _longer_span(obj):
    # eleven entries per vector, one more than the algebra's dimension
    for vector in obj["payload"]["vectors"]:
        vector.append("0")


def _short_line(obj):
    for key in ("point", "direction"):
        del obj["payload"][key][-1]


def _extra_entry(obj):
    obj["payload"]["entries"].append([11, 12, {"3": "1"}])


def _repeated_entry(obj):
    obj["payload"]["entries"].append(obj["payload"]["entries"][0])


def _twice_listed_term(obj):
    # the z2 numerator starts with its -3/2 z1^2 term; a second z1^2 goes first
    obj["payload"]["components"]["z2"]["num"]["terms"].insert(0, {"c": "7", "e": [2, 0, 0, 0]})


def _renamed_component(obj):
    comps = obj["payload"]["components"]
    obj["payload"]["components"] = {("q1" if k == "z1" else k): v for k, v in comps.items()}


def _raised_exponent(field, component):
    """An edit that adds 7 to the first exponent of the first term of one
    component of one field of a basis."""
    def edit(obj):
        obj["payload"]["fields"][field]["components"][component]["terms"][0]["e"][0] += 7
    return edit


def _times_i(field):
    """An edit that multiplies every coefficient of one field of a basis
    by i."""
    def edit(obj):
        for component in obj["payload"]["fields"][field]["components"]:
            for term in component["terms"]:
                re, im = (term.pop("c"), "0") if "c" in term else (term["re"], term["im"])
                term["re"], term["im"] = str(-Fraction(im)), re
    return edit


def _times_three(field):
    """An edit that multiplies every coefficient of one field of a basis
    by 3."""
    def edit(obj):
        for component in obj["payload"]["fields"][field]["components"]:
            for term in component["terms"]:
                for key in ("c", "re", "im"):
                    if key in term:
                        term[key] = str(3 * Fraction(term[key]))
    return edit


def _foreign_radicand(obj):
    obj["payload"]["context"]["radicals"][0]["square"]["vars"][0] = "q9"


def _set(*path, value):
    """An edit that sets the payload value at `path` to `value`."""
    def edit(obj):
        holder = obj["payload"]
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = value
    return edit


# fixture trees {tmp}/<name>: a copy of fixtures/ with one fixture edited
BAD_TREES = {
    "ge": ("domain.H.gt", _unknown_sense),
    "negexp": ("basis.Z.D", _negative_exponent),
    "floatexp": ("domain.Bp.gt", _float_exponent),
    "ratcomp": ("family.isotropy.C.scale", _rational_component),
    "badkind": ("domain.Bp.gt", _misspelt_kind),
    "renamed": ("witness.C.gt", _other_id),
    "zerorat": ("surface.table.6", _zero_denominator),
    "zeroden": ("map.identity.quadric", _empty_denominator),
    "floatcoef": ("surface.table.6", _float_coefficient),
    "floatprobe": ("domain.Bp.gt", _float_probe),
    "nonreal": ("surface.table.6", _non_real_term),
    "hugeexp": ("surface.table.6", _huge_exponent),
    "nullindex": ("isospan.C", _set("z4_index", value=None)),
    "nullname": ("map.cm.C", _set("target_holo", 2, value=None)),
    "floatname": ("map.case3.printed.reversed", _set("target_anti", 0, value=1.5)),
    "dictprobe": ("domain.Np.gt", _set("probe", value={})),
    "intsource": ("domain.Bm.gt", _set("source_surface", value=-1)),
    "listfield": ("basis.Z.D", _set("fields", 0, value=[])),
    "strvars": ("surface.table.6", _set("poly", "vars", value="wxyz")),
    "shortprobe": ("domain.D.gt", _set("probe", value=["1", "0", "0"])),
    "emptyvec": ("isospan.C", _set("vectors", 1, value=[])),
    "farindex": ("isospan.C", _set("s_indices", 0, value=17)),
    "longspan": ("isospan.C", _longer_span),
    "shortpoint": ("line.C.gt", _set("point", value=["1", "0", "0"])),
    "shortline": ("line.C.gt", _short_line),
    "linekind": ("line.D.gt", _set("domain", value="surface.table.6")),
    "graphkind": ("map.case3.derived", _set("source_graph", value="surface.table.3")),
    "sourcekind": ("domain.C.gt", _set("source_surface", value="graph.cm.C")),
    "bridgekind": ("bridge.isotropy.D", _set("map", value="family.isotropy.D")),
    # a catalogued hypersurface that EXPECTED_DIMS does not list
    "nodims": ("domain.C.gt", _set("source_surface", value="surface.table.2.cubic")),
    "expcoef": ("surface.table.6", _set("poly", "terms", 0, "c", value="1e5000000")),
    "decprobe": ("domain.Bp.gt", _set("probe", 0, value="1.5")),
    "bigdim": ("table.golden.C", _set("dim", value=11)),
    "smalldim": ("table.golden.D", _set("dim", value=3)),
    "extraentry": ("table.golden.C", _extra_entry),
    # the first entry of table.golden.D is [1, 4, {"4": "-1"}]
    "arabickey": ("table.golden.D", _set("entries", 0, 2, value={"\u0664": "-1"})),
    "pluskey": ("table.golden.D", _set("entries", 0, 2, value={" +4": "-1"})),
    "ratkey": ("table.golden.D", _set("entries", 0, 2, value={"3/2": "-1"})),
    "twicekey": ("table.golden.D", _set("entries", 0, 2, value={"4": "-1", "04": "5"})),
    "twiceentry": ("table.golden.D", _repeated_entry),
    "antiname": ("map.case3.derived", _set("target_anti", 0, value="q1b")),
    "targetvar": ("map.case3.derived", _set("target", "vars", 0, value="q1")),
    "compname": ("map.case3.derived", _renamed_component),
    "twiceterm": ("map.case3.printed", _twice_listed_term),
    # field 8 of basis.Z.D has the z2 component 2 z1 + 2 z2 - 2 z4
    "notclosed": ("basis.Z.D", _raised_exponent(7, 1)),
    "hpbopen": ("basis.half_pseudo_ball.quadric", _raised_exponent(0, 0)),
    "foreignrad": ("witness.C.lt", _foreign_radicand),
    "timesi": ("basis.Z.D", _times_i(7)),
    "zerotarget": ("map.cm.D", _set("target", "terms", value=[])),
}

# fixture trees {tmp}/<name> that hold only an index.json with this text
BAD_INDEXES = {
    "oops": "{oops",
    "empty": "{}",
    "notlist": '{"fixtures": {}}',
    "nokind": '{"fixtures": [{"id": "line.C.gt"}]}',
    "lien": '{"fixtures": [{"id": "line.C.gt", "kind": "lien"}]}',
    "twice": '{"fixtures": [{"id": "line.C.gt", "kind": "line"}, '
             '{"id": "line.C.gt", "kind": "line"}]}',
}


# "{tmp}" (in argv and message) stands for a temporary directory holding
# bad.json, which is not JSON, and the trees of BAD_INDEXES and BAD_TREES;
# leading NAME=value items set environment variables, as in a shell
@pytest.mark.parametrize("argv, message", [
    (["normal-form", "--case", "D", "--cutoff", "3"], "--cutoff must be at least 6"),
    (["orbits", "--surface", "surface.table.6", "--probes", "1,x"], "probe '1,x'"),
    (["orbits", "--surface", "surface.table.6", "--probes", "1,2"], "has 2 coordinates"),
    (["scan", "--surface", "surface.table.3", "--dim", "9"], "--dim must be strictly between"),
    (["verify-map", "--id", "surface.table.6"],
     "fixture 'surface.table.6' is of kind hypersurface, not rational_map"),
    (["witness", "--id", "map.cm.D"], "fixture 'map.cm.D' is of kind rational_map, not witness"),
    (["symmetry", "--surface", "{tmp}/bad.json"], "JSONDecodeError"),
    (["symmetry", "--surface", str(FIXTURES / "domain.D.gt.json")],
     "fixture 'domain.D.gt' is of kind domain, not hypersurface"),
    (["symmetry", "--surface", "graph.cm.D"],
     "fixture 'graph.cm.D' is of kind graph_surface, not hypersurface"),
    # a reference field that names a fixture of the wrong kind
    (["TUBES_FIXTURES={tmp}/linekind", "lines"],
     "fixture 'surface.table.6' is of kind hypersurface, not domain"),
    (["TUBES_FIXTURES={tmp}/graphkind", "verify-map", "--id", "map.case3.derived"],
     "fixture 'surface.table.3' is of kind hypersurface, not graph_surface"),
    (["TUBES_FIXTURES={tmp}/sourcekind", "classify"],
     "fixture 'graph.cm.C' is of kind graph_surface, not hypersurface"),
    (["TUBES_FIXTURES={tmp}/nodims", "classify"],
     "domain.C.gt names the surface surface.table.2.cubic, which has no expected "
     "symmetry dimension"),
    (["TUBES_FIXTURES={tmp}/bridgekind", "isotropy", "--case", "D"],
     "fixture 'family.isotropy.D' is of kind map_family, not rational_map"),
    (["TUBES_FIXTURES={tmp}/missing", "lines"], "cannot load the fixture tree"),
    (["TUBES_FIXTURES={tmp}/oops", "lines"],
     "cannot load the fixture tree '{tmp}/oops': JSONDecodeError: "),
    (["TUBES_FIXTURES={tmp}/empty", "lines"],
     "cannot load the fixture tree '{tmp}/empty': KeyError: 'fixtures'"),
    (["TUBES_FIXTURES={tmp}/missing", "lines"],
     "'{tmp}/missing': FileNotFoundError: [Errno 2] No such file or directory: "
     "'{tmp}/missing/index.json'"),
    (["TUBES_FIXTURES={tmp}/ge", "classify"], "unknown constraint sense 'ge'"),
    (["TUBES_FIXTURES={tmp}/negexp", "table", "--case", "D"],
     "exponents must be nonnegative ints, got (-1, "),
    (["TUBES_FIXTURES={tmp}/floatexp", "classify"],
     "exponents must be nonnegative ints, got (0, 0, 0, 1.0)"),
    (["TUBES_FIXTURES={tmp}/ratcomp", "isotropy", "--case", "C"],
     "map family 'isotropy.C.scale' needs polynomial components"),
    (["TUBES_FIXTURES={tmp}/badkind", "classify"],
     "cannot load the fixture tree '{tmp}/badkind': ValueError: "
     "cannot deserialize fixture kind 'domian'"),
    (["TUBES_FIXTURES={tmp}/renamed", "witness", "--id", "witness.C.gt"],
     "ValueError: witness.C.gt.json holds witness 'witness.C.lt', "
     "but the index lists witness 'witness.C.gt'"),
    (["TUBES_FIXTURES={tmp}/notlist", "witness", "--id", "witness.C.gt"],
     "'{tmp}/notlist': TypeError: the index lists dict, not fixture entries"),
    (["TUBES_FIXTURES={tmp}/nokind", "witness", "--id", "witness.C.gt"],
     "'{tmp}/nokind': KeyError: 'kind'"),
    (["TUBES_FIXTURES={tmp}/lien", "witness", "--id", "witness.C.gt"],
     "'{tmp}/lien': ValueError: cannot deserialize fixture kind 'lien'"),
    (["TUBES_FIXTURES={tmp}/twice", "witness", "--id", "witness.C.gt"],
     "'{tmp}/twice': ValueError: fixture id 'line.C.gt' appears twice in the index"),
    (["TUBES_FIXTURES={tmp}/zerorat", "symmetry", "--surface", "surface.table.6"],
     "'{tmp}/zerorat': ZeroDivisionError: Fraction(1, 0)"),
    (["symmetry", "--surface", "{tmp}/zerorat/surface.table.6.json"],
     "cannot read a fixture from '{tmp}/zerorat/surface.table.6.json': "
     "ZeroDivisionError: Fraction(1, 0)"),
    (["TUBES_FIXTURES={tmp}/zeroden", "verify-map", "--id", "map.identity.quadric"],
     "'{tmp}/zeroden': ZeroDivisionError: rational function with zero denominator"),
    (["symmetry", "--surface", "{tmp}/zeroden/map.identity.quadric.json"],
     "ZeroDivisionError: rational function with zero denominator"),
    (["TUBES_FIXTURES={tmp}/floatcoef", "symmetry", "--surface", "surface.table.6"],
     "'{tmp}/floatcoef': TypeError: a rational must be a 'p/q' string, got -1.0"),
    (["symmetry", "--surface", "{tmp}/floatcoef/surface.table.6.json"],
     "TypeError: a rational must be a 'p/q' string, got -1.0"),
    (["TUBES_FIXTURES={tmp}/floatprobe", "classify"],
     "'{tmp}/floatprobe': TypeError: a rational must be a 'p/q' string, got 0.1"),
    (["symmetry", "--surface", "{tmp}/floatprobe/domain.Bp.gt.json"],
     "TypeError: a rational must be a 'p/q' string, got 0.1"),
    (["TUBES_FIXTURES={tmp}/nonreal", "symmetry", "--surface", "surface.table.6"],
     "'{tmp}/nonreal': ValueError: the defining polynomial "),
    (["orbits", "--surface", "{tmp}/nonreal/surface.table.6.json"],
     "cannot read a fixture from '{tmp}/nonreal/surface.table.6.json': "
     "ValueError: the defining polynomial "),
    (["TUBES_FIXTURES={tmp}/hugeexp", "symmetry", "--surface", "surface.table.6"],
     "'{tmp}/hugeexp': OverflowError: total degree 301 of the term (300, 0, 1, 0) exceeds 255"),
    (["symmetry", "--surface", "{tmp}/hugeexp/surface.table.6.json"],
     "cannot read a fixture from '{tmp}/hugeexp/surface.table.6.json': "
     "OverflowError: total degree 301 of the term (300, 0, 1, 0) exceeds 255"),
    (["normal-form", "--case", "D", "--cutoff", "252"], "--cutoff must be at most 251, got 252"),
    (["normal-form", "--case", "C", "--cutoff", "252"], "--cutoff must be at most 251, got 252"),
    (["TUBES_FIXTURES={tmp}/nullindex", "nilpotency", "--case", "C"],
     "'{tmp}/nullindex': TypeError: expected int, got None"),
    (["TUBES_FIXTURES={tmp}/nullname", "verify-map", "--id", "map.cm.C"],
     "'{tmp}/nullname': TypeError: expected str, got None"),
    (["TUBES_FIXTURES={tmp}/floatname", "verify-map", "--id", "map.case3.printed.reversed"],
     "'{tmp}/floatname': TypeError: expected str, got 1.5"),
    (["TUBES_FIXTURES={tmp}/dictprobe", "classify"],
     "'{tmp}/dictprobe': TypeError: expected list, got {{}}"),
    (["TUBES_FIXTURES={tmp}/intsource", "classify"],
     "'{tmp}/intsource': TypeError: expected str, got -1"),
    (["TUBES_FIXTURES={tmp}/listfield", "table", "--case", "D"],
     "'{tmp}/listfield': TypeError: expected dict, got []"),
    (["TUBES_FIXTURES={tmp}/strvars", "symmetry", "--surface", "surface.table.6"],
     "'{tmp}/strvars': TypeError: expected list, got 'wxyz'"),
    (["TUBES_FIXTURES={tmp}/shortprobe", "classify"],
     "'{tmp}/shortprobe': ValueError: the probe has 3 coordinates, "
     "but the domain has the variables ('x1', 'x2', 'x3', 'x4')"),
    (["TUBES_FIXTURES={tmp}/emptyvec", "nilpotency", "--case", "C"],
     "'{tmp}/emptyvec': ValueError: the span needs nonempty vectors of one length, "
     "got the lengths [10, 0, 10]"),
    (["TUBES_FIXTURES={tmp}/farindex", "nilpotency", "--case", "C"],
     "'{tmp}/farindex': ValueError: the index 17 is outside the vectors' length 10"),
    (["TUBES_FIXTURES={tmp}/longspan", "nilpotency", "--case", "C"],
     "isospan.C has vectors of length 11, but the algebra of basis.Z.C has dimension 10"),
    (["TUBES_FIXTURES={tmp}/shortpoint", "lines"],
     "'{tmp}/shortpoint': ValueError: the line's point has 3 coordinates, its direction 4"),
    (["TUBES_FIXTURES={tmp}/shortline", "lines"],
     "line.C.gt has 3 coordinates, but its domain domain.C.gt has the variables "
     "('x1', 'x2', 'x3', 'x4')"),
    (["TUBES_FIXTURES={tmp}/expcoef", "symmetry", "--surface", "surface.table.6"],
     "'{tmp}/expcoef': ValueError: a rational must be a 'p/q' string of ASCII digits, "
     "got '1e5000000'"),
    (["TUBES_FIXTURES={tmp}/decprobe", "classify"],
     "'{tmp}/decprobe': ValueError: a rational must be a 'p/q' string of ASCII digits, "
     "got '1.5'"),
    (["orbits", "--surface", "surface.table.6", "--probes", "1e5000,0,1,1"],
     "probe '1e5000,0,1,1' is not a comma-separated list of rationals"),
    (["orbits", "--surface", "surface.table.6", "--probes", "1.5,0,1,1"],
     "probe '1.5,0,1,1' is not a comma-separated list of rationals"),
    (["orbits", "--surface", "surface.table.6", "--probes", "+1,0,1,1"],
     "probe '+1,0,1,1' is not a comma-separated list of rationals"),
    (["TUBES_FIXTURES={tmp}/bigdim", "table", "--case", "C"],
     "table.golden.C has dimension 11, but basis.Z.C has 10 fields"),
    (["TUBES_FIXTURES={tmp}/smalldim", "table", "--case", "D"],
     "'{tmp}/smalldim': ValueError: the entry (1, 4) is not an upper-triangle pair of "
     "generators 1..3"),
    (["TUBES_FIXTURES={tmp}/extraentry", "table", "--case", "C"],
     "'{tmp}/extraentry': ValueError: the entry (11, 12) is not an upper-triangle pair of "
     "generators 1..10"),
    (["TUBES_FIXTURES={tmp}/arabickey", "table", "--case", "D"],
     "'{tmp}/arabickey': ValueError: a rational must be a 'p/q' string of ASCII digits, "
     "got '\u0664'"),
    (["TUBES_FIXTURES={tmp}/pluskey", "table", "--case", "D"],
     "'{tmp}/pluskey': ValueError: a rational must be a 'p/q' string of ASCII digits, "
     "got ' +4'"),
    (["TUBES_FIXTURES={tmp}/ratkey", "table", "--case", "D"],
     "'{tmp}/ratkey': ValueError: the entry (1, 4) names the generator 3/2, outside 1..10"),
    (["TUBES_FIXTURES={tmp}/twicekey", "table", "--case", "D"],
     "'{tmp}/twicekey': ValueError: the entry (1, 4) names a generator twice"),
    (["TUBES_FIXTURES={tmp}/twiceentry", "table", "--case", "D"],
     "'{tmp}/twiceentry': ValueError: the pair (1, 4) has two entries"),
    (["TUBES_FIXTURES={tmp}/antiname", "verify-map", "--id", "map.case3.derived"],
     "'{tmp}/antiname': ValueError: the target is over ('z1', 'z2', 'z3', 'z4', 'z1b', "
     "'z2b', 'z3b', 'z4b'), not over the holomorphic ('z1', 'z2', 'z3', 'z4') and "
     "antiholomorphic ('q1b', 'z2b', 'z3b', 'z4b') variables"),
    (["TUBES_FIXTURES={tmp}/targetvar", "verify-map", "--id", "map.case3.derived"],
     "'{tmp}/targetvar': ValueError: the target is over ('q1', 'z2', "),
    (["TUBES_FIXTURES={tmp}/compname", "verify-map", "--id", "map.case3.derived"],
     "'{tmp}/compname': ValueError: the components give ('q1', 'z2', 'z3', 'z4'), not the "
     "target's holomorphic variables ('z1', 'z2', 'z3', 'z4')"),
    (["TUBES_FIXTURES={tmp}/notclosed", "table", "--case", "D"],
     "basis.Z.D: the basis is not closed under bracket: [B_0, B_7] is outside the span"),
    (["TUBES_FIXTURES={tmp}/notclosed", "nilpotency", "--case", "D"],
     "basis.Z.D: the basis is not closed under bracket: [B_0, B_7] is outside the span"),
    (["TUBES_FIXTURES={tmp}/hpbopen", "classify"],
     "basis.half_pseudo_ball.quadric: the basis is not closed under bracket: [B_0, B_2] is "
     "outside the span"),
    (["TUBES_FIXTURES={tmp}/foreignrad", "witness", "--id", "witness.C.lt"],
     "'{tmp}/foreignrad': ValueError: the radicand of 'rho' names the variables ['q9'], "
     "outside the target variables ('x1_0', 'x2_0', 'x3_0', 'x4_0')"),
    (["TUBES_FIXTURES={tmp}/foreignrad", "classify"],
     "'{tmp}/foreignrad': ValueError: the radicand of 'rho' names the variables ['q9'], "),
    (["TUBES_FIXTURES={tmp}/twiceterm", "verify-map", "--id", "map.case3.printed"],
     "'{tmp}/twiceterm': ValueError: exponent vector (2, 0, 0, 0) is listed twice"),
    # [B_1, i B_7] = i [B_1, B_7] lies in the complex span of the edited basis, not in its real span
    (["TUBES_FIXTURES={tmp}/timesi", "table", "--case", "D"],
     "basis.Z.D: the basis is not closed under bracket: [B_1, B_7] is outside the span"),
    # every map lands in {0 = 0}, and the invariance checks divide by the target
    *((["TUBES_FIXTURES={tmp}/zerotarget", *argv],
       "'{tmp}/zerotarget': ValueError: the target is the zero polynomial")
      for argv in (["verify-map", "--id", "map.cm.D"], ["isotropy", "--case", "D"],
                   ["group", "--case", "D"])),
])
def test_invalid_input_is_a_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.json").write_text("{not json")
    for tree, index in BAD_INDEXES.items():
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "index.json").write_text(index)
    for tree, (fid, edit) in BAD_TREES.items():
        if any(f"{{tmp}}/{tree}" in a for a in argv):
            shutil.copytree(FIXTURES, tmp_path / tree)
            path = tmp_path / tree / f"{fid}.json"
            obj = json.loads(path.read_text())
            edit(obj)
            path.write_text(json.dumps(obj))
    argv = [a.format(tmp=tmp_path) for a in argv]
    while "=" in argv[0]:
        name, _, value = argv.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    assert cli.main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    message = message.format(tmp=tmp_path)
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", ["D", "C"])
def test_a_basis_field_times_i_is_outside_the_real_span(case, tmp_path, monkeypatch, capsys):
    """The automorphism algebra is a real Lie algebra: with field 7 of the
    case's basis multiplied by i, the isotropy and group generators no
    longer lie in its span, and the checks that say so fail."""
    fid = f"basis.Z.{case}"
    shutil.copytree(FIXTURES, tmp_path / "tree")
    path = tmp_path / "tree" / f"{fid}.json"
    obj = json.loads(path.read_text())
    _times_i(7)(obj)
    path.write_text(json.dumps(obj))
    monkeypatch.setenv("TUBES_FIXTURES", str(tmp_path / "tree"))
    failed = set()
    for command in ("isotropy", "group"):
        code, report = run_json([command, "--case", case], capsys)
        assert code == 1
        failed |= {c["id"] for c in report["checks"] if c["verdict"] == "FAIL"}
    assert failed == {f"isotropy.{case}.dimension", f"group.{case}.generators",
                      f"group.{case}.generator_membership"}


def test_generators_outside_the_span_are_one_check(monkeypatch, capsys):
    """Two generators outside the span of the basis give one
    generator_membership FAIL that names both, in generator order."""
    real = cli.expand_in_fields

    def two_outside(gens, basis):
        coords = real(gens, basis)
        return [None if i in (1, 4) else c for i, c in enumerate(coords)]

    monkeypatch.setattr(cli, "expand_in_fields", two_outside)
    code, report = run_json(["group", "--case", "D"], capsys)
    assert code == 1
    ids = [c["id"] for c in report["checks"]]
    assert len(ids) == len(set(ids))
    member, = (c for c in report["checks"] if c["id"] == "group.D.generator_membership")
    assert member["verdict"] == "FAIL"
    fx = catalog.get("family.full.D")
    assert member["provenance"] == cli.prov(fx)
    gens = infinitesimal_generators(fx.payload)
    assert member["details"] == "; ".join(f"{gens[i]} from {cli.prov(fx)}" for i in (1, 4))


def test_an_exponent_is_refused_before_it_is_expanded(tmp_path, capsys):
    """Fraction("1e5000000") builds 10**5000000, which took seconds; the
    reader refuses the string as it reads it."""
    path = tmp_path / "surface.table.6.json"
    obj = json.loads((FIXTURES / path.name).read_text())
    BAD_TREES["expcoef"][1](obj)
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert cli.main(["symmetry", "--surface", str(path)]) == 64
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        f"error: cannot read a fixture from {str(path)!r}: ValueError: a rational must be "
        "a 'p/q' string of ASCII digits, got '1e5000000'\n")
    start = time.perf_counter()
    assert cli.main(["orbits", "--surface", "surface.table.6",
                     "--probes", "1e5000,0,1,1"]) == 64
    assert time.perf_counter() - start < 0.5
    assert "is not a comma-separated list of rationals" in capsys.readouterr().err


def _tree_with_unreadable_witness(tmp_path, monkeypatch):
    """A copy of fixtures/ in which witness.C.gt.json is not JSON, set as
    TUBES_FIXTURES; `lines` reads neither that file nor any witness."""
    tree = tmp_path / "tree"
    shutil.copytree(FIXTURES, tree)
    (tree / "witness.C.gt.json").write_text("{not json")
    monkeypatch.setenv("TUBES_FIXTURES", str(tree))
    return tree


def test_unread_broken_fixture_leaves_the_report_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TUBES_FIXTURES", str(FIXTURES))
    _, clean = run_json(["lines"], capsys)
    _tree_with_unreadable_witness(tmp_path, monkeypatch)
    code, report = run_json(["lines"], capsys)
    clean.pop("seconds")
    report.pop("seconds")
    assert code == 0 and report == clean


def test_reading_a_broken_fixture_is_a_usage_error(tmp_path, monkeypatch, capsys):
    tree = _tree_with_unreadable_witness(tmp_path, monkeypatch)
    assert cli.main(["witness", "--id", "witness.C.gt"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot load the fixture tree {str(tree)!r}: "
                               "JSONDecodeError: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, decodes", [
    (["witness", "--id", "witness.C.gt"], 1),
    (["lines"], 8),  # the four lines and their four domains
    (["classify"], 31),
])
def test_commands_decode_only_the_fixtures_they_read(argv, decodes, monkeypatch, capsys):
    from tubes import catalog
    decode, decoded = catalog.fixture_from_obj, []

    def counting(obj):
        decoded.append(obj["id"])
        return decode(obj)
    monkeypatch.setattr(catalog, "fixture_from_obj", counting)
    monkeypatch.setenv("TUBES_FIXTURES", str(FIXTURES))
    reg = catalog.active_registry()
    ids = sorted(reg)
    assert "witness.C.gt" in reg and ids == catalog.list_ids() and len(reg) == len(ids)
    assert decoded == []
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(decoded) == len(set(decoded)) == decodes, decoded


def test_lines_fail_on_a_side_constraint(tmp_path, monkeypatch, capsys):
    """The C lines as first catalogued, from (0,0,0,+-1) along (1,0,0,0):
    they reduce the main inequality to 1, but x1 sweeps all of R, so the
    wall x1 > 0 of their domains fails and `lines` says so."""
    tree = tmp_path / "tree"
    shutil.copytree(FIXTURES, tree)
    for side in ("gt", "lt"):
        path = tree / f"line.C.{side}.json"
        obj = json.loads(path.read_text())
        obj["payload"]["point"] = ["0", "0", "0", "1" if side == "gt" else "-1"]
        obj["payload"]["direction"] = ["1", "0", "0", "0"]
        path.write_text(json.dumps(obj))
    monkeypatch.setenv("TUBES_FIXTURES", str(tree))
    code, report = run_json(["lines"], capsys)
    assert code == 1
    verdicts = {c["id"]: (c["verdict"], c["details"]) for c in report["checks"]}
    for side in ("gt", "lt"):
        verdict, details = verdicts.pop(f"lines.line.C.{side}")
        assert verdict == "FAIL"
        assert details.startswith("x1 > 0: restriction is not constant"), details
    assert [v for v, _ in verdicts.values()] == ["PASS", "PASS"]
    monkeypatch.delenv("TUBES_FIXTURES")
    code, report = run_json(["lines"], capsys)
    assert code == 0 and report["summary"] == {"pass": 4, "fail": 0, "unresolved": 0}
    assert all(c["details"] == "the main inequality: restriction is the constant 1; "
               "x1 > 0: restriction is the constant 1" for c in report["checks"])


def test_non_real_series_is_a_reality_fail(monkeypatch, capsys):
    """A series that breaks the reality pairing is reported as the
    normal_form.reality FAIL (exit 1), not raised."""
    from tubes import normal_form
    from tubes.poly import MultiPoly
    from tubes.scalars import I

    expand = normal_form.series_expand

    def non_real(nums, den, cutoff):
        scale, (graph, *rest) = expand(nums, den, cutoff)
        w1, w1b = MultiPoly.var(den.vars, "w1"), MultiPoly.var(den.vars, "w1b")
        return scale, [graph + w1**2 * w1b**2 * I, *rest]

    monkeypatch.setattr(normal_form, "series_expand", non_real)
    code = cli.main(["--json", "normal-form", "--case", "D"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    verdicts = {c["id"]: c["verdict"] for c in json.loads(captured.out)["checks"]}
    assert verdicts["normal_form.reality.D"] == "FAIL"


@pytest.mark.parametrize("case", ["D", "C"])
def test_perturbation_control_fails_when_the_bump_vanishes(monkeypatch, capsys, case):
    """The control is live: with the bump patched to zero it reads the
    graph's own (2,2) part and reports FAIL."""
    from tubes.poly import MultiPoly

    monkeypatch.setattr(cli, "_control_bump", lambda graph: MultiPoly.zero(graph.im_part.vars))
    code = cli.main(["--json", "normal-form", "--case", case])
    assert code == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    control = checks[f"normal_form.{case}.perturbation_control"]
    assert control["verdict"] == "FAIL"
    assert control["details"] == "perturbed series unexpectedly passed"
    assert [c["id"] for c in checks.values() if c["verdict"] == "FAIL"] == [control["id"]]


@pytest.mark.parametrize("case", ["D", "C"])
def test_normal_form_expands_one_numerator_once(monkeypatch, case):
    """Cost guard: a `normal-form` run makes one series_expand call, on
    the graph's numerator alone; the control reads no expansion of its
    own."""
    from tubes import normal_form, poly

    calls = []
    expand = poly.series_expand

    def counted(nums, den, cutoff):
        calls.append(len(nums))
        return expand(nums, den, cutoff)

    for module in (cli, normal_form, poly):
        if hasattr(module, "series_expand"):
            monkeypatch.setattr(module, "series_expand", counted)
    assert cli.main(["normal-form", "--case", case]) == 0
    assert calls == [1]


@pytest.mark.parametrize("argv", [["isotropy", "--case", "D"], ["isotropy", "--case", "C"],
                                  ["group", "--case", "D"], ["group", "--case", "C"]])
def test_family_invariance_multiplies_no_fraction(argv, monkeypatch):
    """Cost guard: inside verify_family_invariance no product (`poly._mac`)
    gets a Fraction coefficient, since rho and every image are scaled to
    Gaussian integers before they are composed."""
    from fractions import Fraction

    from tubes import poly

    mac, invariance = poly._mac, cli.verify_family_invariance
    inside, fractions = [], []

    def counted(acc_re, acc_im, *parts):
        if inside:
            fractions.append(any(type(c) is Fraction for terms in parts[:4]
                                 for c in terms.values()))
        return mac(acc_re, acc_im, *parts)

    def traced(*args, **kwargs):
        inside.append(True)
        try:
            return invariance(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(poly, "_mac", counted)
    monkeypatch.setattr(cli, "verify_family_invariance", traced)
    assert cli.main(argv) == 0
    assert fractions and not any(fractions)


def test_engine_key_error_is_not_a_usage_error(monkeypatch):
    def broken(*args):
        raise KeyError("engine bug")
    monkeypatch.setattr(cli, "verify_transitivity_witness", broken)
    with pytest.raises(KeyError, match="engine bug"):
        cli.main(["witness", "--id", "witness.C.gt"])


def test_in_code_registry_fault_is_not_a_usage_error(monkeypatch):
    from tubes import catalog

    def broken():
        raise KeyError("engine bug")
    monkeypatch.delenv("TUBES_FIXTURES", raising=False)
    monkeypatch.setattr(catalog, "registry", broken)
    with pytest.raises(KeyError, match="engine bug"):
        cli.main(["lines"])


def test_verbose_only_on_symmetry_and_keeps_json_clean(capsys):
    code = cli.main(["symmetry", "--surface", "surface.table.3", "--json", "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["command"] == "symmetry"
    assert "basis[0]" in captured.err
    assert cli.main(["orbits", "--surface", "surface.table.3", "--verbose"]) == 64


def test_parser_is_built_once_and_keeps_no_options_between_calls(capsys):
    assert cli.main(["--json", "symmetry", "--surface", "surface.table.3", "--verbose"]) == 0
    first = capsys.readouterr()
    assert json.loads(first.out)["command"] == "symmetry"
    assert "basis[0]" in first.err
    assert cli.main(["symmetry", "--surface", "surface.table.3"]) == 0
    second = capsys.readouterr()
    assert second.err == ""
    lines = second.out.splitlines()
    assert all(line.startswith("[PASS] ") for line in lines[:-1]) and len(lines) == 4
    assert lines[-1].startswith("summary: 3 pass, 0 fail, 0 unresolved")
    assert cli.build_parser() is cli.build_parser()


def test_report_schema_fields(capsys):
    code, report = run_json(["lines"], capsys)
    assert code == 0
    assert set(report.keys()) == {"version", "command", "checks", "summary", "seconds"}
    for check in report["checks"]:
        assert set(check.keys()) == {"id", "claim", "verdict", "details", "provenance"}
    assert [c["id"] for c in report["checks"]] == sorted(c["id"] for c in report["checks"])


def test_reports_deterministic(capsys):
    _, first = run_json(["nilpotency", "--case", "C"], capsys)
    _, second = run_json(["nilpotency", "--case", "C"], capsys)
    first.pop("seconds")
    second.pop("seconds")
    assert first == second


def test_fixture_override_roundtrip(tmp_path, monkeypatch, capsys):
    from tubes import catalog
    catalog.export_tree(tmp_path)
    monkeypatch.setenv("TUBES_FIXTURES", str(tmp_path))
    code, report = run_json(["witness", "--id", "witness.C.gt"], capsys)
    assert code == 0 and report["summary"]["pass"] == 1


def test_console_entry_point_runs():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "tubes.cli", "verify-map",
                           "--id", "map.case3.derived"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


# Negative controls for the conjunctions behind two verdicts: each edits
# one fixture of a copy of fixtures/ so that exactly one conjunct fails,
# and the check must FAIL while every other check of the command passes.

def _run_on_edited_tree(tmp_path, monkeypatch, capsys, argv, edits):
    tree = tmp_path / "tree"
    shutil.copytree(FIXTURES, tree)
    for fid, edit in edits.items():
        path = tree / f"{fid}.json"
        obj = json.loads(path.read_text())
        edit(obj["payload"])
        path.write_text(json.dumps(obj))
    monkeypatch.setenv("TUBES_FIXTURES", str(tree))
    code, report = run_json(argv, capsys)
    failed = {c["id"]: c["details"] for c in report["checks"] if c["verdict"] != "PASS"}
    return code, failed, tree


def _x_field(**comps):
    """A field over x1..x4 whose component x_i is the sum of the given
    (coefficient, exponents) terms."""
    names = ["x1", "x2", "x3", "x4"]
    return {"components": [{"vars": names, "terms": [{"c": c, "e": e} for c, e in
                                                      comps.get(n, [])]} for n in names],
            "holomorphic": False, "variables": names}


HALF_BALL = "basis.half_pseudo_ball.quadric"
CLASSIFY_CONTROLS = {
    # (1, 0, 0, -1) lies below the quadric, where the five fields still have rank 4
    "probe": ({"domain.H.gt": lambda p: p.update(probe=["1", "0", "0", "-1"])},
              {"classify.domain.H.gt": "dimension 5, rank 4"}),
    # five closed fields with no d/dx4 part: d1, d2, d3, x1 d2, x1 d3
    "rank": ({HALF_BALL: lambda p: p.update(fields=[
        _x_field(**{n: [("1", [0, 0, 0, 0])]}) for n in ("x1", "x2", "x3")] + [
        _x_field(**{n: [("1", [1, 0, 0, 0])]}) for n in ("x2", "x3")])},
             {"classify.domain.H.gt": "dimension 5, rank 3",
              "classify.domain.H.lt": "dimension 5, rank 3"}),
    # x1 d1, d2, d3, d4: closed, of rank 4 off the wall x1 = 0 and tangent
    # to it, but not the 5 catalogued fields
    "dimension": ({HALF_BALL: lambda p: p.update(fields=[_x_field(x1=[("1", [1, 0, 0, 0])])] + [
        _x_field(**{n: [("1", [0, 0, 0, 0])]}) for n in ("x2", "x3", "x4")])},
                  {"classify.domain.H.gt": "dimension 4, rank 4",
                   "classify.domain.H.lt": "dimension 4, rank 4"}),
}


@pytest.mark.parametrize("control", sorted(CLASSIFY_CONTROLS))
def test_classify_fails_when_one_conjunct_fails(control, tmp_path, monkeypatch, capsys):
    """probe inside, rank 4 and the catalogued dimension: break one."""
    from tubes import catalog
    edits, expected = CLASSIFY_CONTROLS[control]
    code, failed, tree = _run_on_edited_tree(tmp_path, monkeypatch, capsys, ["classify"], edits)
    assert code == 1 and failed == expected
    inside = [catalog.read_fixture(tree / f"{fid[len('classify.'):]}.json").payload.probe_inside()
              for fid in expected]
    assert inside == [control != "probe"] * len(expected)


def _imaginary_shift(payload):
    # z4 -> r^2 z4 + i (r - 1): Re z4 scales as before, (1, 0, 0, 0) moves
    payload["components"][3]["num"]["terms"] += [
        {"e": [0, 0, 0, 0, 1], "re": "0", "im": "1"},
        {"e": [0, 0, 0, 0, 0], "re": "0", "im": "-1"}]


def _printed_sign(payload):
    # the circle action with the printed quadratic term, which fixes (1, 0, 0, 0)
    printed = json.loads((FIXTURES / "family.circle.C.printed.json").read_text())
    payload["components"] = printed["payload"]["components"]


# fixture, edit, (invariance, fixes the point), the checks that FAIL; the
# printed circle's generator also lies outside basis.Z.C
ISOTROPY_CONTROLS = {
    "fixes_point": ("family.isotropy.C.scale", _imaginary_shift, (True, False),
                    {"isotropy.C.invariance.scale"}),
    "invariance": ("family.circle.C", _printed_sign, (False, True),
                   {"isotropy.C.invariance.C", "isotropy.C.dimension"}),
}


@pytest.mark.parametrize("control", sorted(ISOTROPY_CONTROLS))
def test_isotropy_c_fails_when_one_conjunct_fails(control, tmp_path, monkeypatch, capsys):
    """Case C invariance needs both the invariance and the fixed point."""
    from tubes import catalog
    from tubes.normal_form import verify_family_invariance
    fid, edit, conjuncts, expected = ISOTROPY_CONTROLS[control]
    code, failed, tree = _run_on_edited_tree(tmp_path, monkeypatch, capsys,
                                             ["isotropy", "--case", "C"], {fid: edit})
    assert code == 1 and set(failed) == expected
    res = verify_family_invariance(catalog.read_fixture(tree / f"{fid}.json").payload,
                                   catalog.get("map.cm.C").payload.target,
                                   catalog.ZV, catalog.ZA, fixed_point=(1, 0, 0, 0))
    assert (res.ok, bool(res.fixes_point)) == conjuncts


def _z3_over_w1(payload):
    # z3 = 2 w3 / w1 instead of 2 w3 / (w1 + 2)
    payload["components"]["z3"]["den"]["terms"] = [{"c": "1", "e": [1, 0, 0, 0]}]


def _z3_times_w1(payload):
    # z3 = 2 w1 w3 / (w1^2 + 2 w1): the same component, its denominator 0 at 0
    z3 = payload["components"]["z3"]
    for part in (z3["num"], z3["den"]):
        for term in part["terms"]:
            term["e"][0] += 1


@pytest.mark.parametrize("edit, expected", [
    (_z3_over_w1, {"map.identity.map.cm.C": "identity fails",
                   "map.origin.map.cm.C": "component 'z3' is singular at the origin"}),
    (_z3_times_w1, {}),
])
def test_map_origin_reads_the_components_in_lowest_terms(edit, expected, tmp_path,
                                                        monkeypatch, capsys):
    """A map singular at the origin FAILs its origin check, with every other
    check reported; a denominator zero that cancels is no singularity."""
    code, failed, _ = _run_on_edited_tree(tmp_path, monkeypatch, capsys,
                                          ["verify-map", "--id", "map.cm.C"], {"map.cm.C": edit})
    assert failed == expected and code == (1 if expected else 0)


def test_a_common_factor_of_a_stored_component_is_gone_once_decoded(tmp_path):
    """The record puts each component in lowest terms as it is built, so z3
    written as 2 w1 w3 / (w1^2 + 2 w1) decodes to the committed 2 w3 / (w1 + 2),
    num for num and den for den."""
    obj = json.loads((FIXTURES / "map.cm.C.json").read_text())
    _z3_times_w1(obj["payload"])
    path = tmp_path / "map.cm.C.json"
    path.write_text(json.dumps(obj))
    got, want = (dict(catalog.read_fixture(p).payload.components)["z3"]
                 for p in (path, FIXTURES / "map.cm.C.json"))
    assert (got.num, got.den) == (want.num, want.den)
    assert str(got) == "(2*w3) / (w1 + 2)"


def _verdicts(argv, capsys):
    """The exit code and {check id: verdict} of one --json invocation."""
    code, report = run_json(argv, capsys)
    return code, {c["id"]: c["verdict"] for c in report["checks"]}


def test_scaling_a_basis_field_keeps_the_verdicts_that_do_not_pin_it(tmp_path, monkeypatch,
                                                                     capsys):
    """Metamorphic relation (on fixture trees read through TUBES_FIXTURES):
    field 7 of basis.Z.D times 3 spans the same real algebra, so
    `isotropy` and `group` keep every verdict, while `table` FAILs,
    because the golden table pins the basis itself; its brackets run over
    the complex fields of the basis. Times i, the field leaves the real
    span, and `group` FAILs (`table` then refuses the basis as not
    closed, a usage error tested above)."""
    commands = {name: [name, "--case", "D"] for name in ("isotropy", "group", "table")}
    monkeypatch.setenv("TUBES_FIXTURES", str(FIXTURES))
    before = {name: _verdicts(argv, capsys) for name, argv in commands.items()}
    assert all(code == 0 for code, _ in before.values())
    for name, edit in (("three", _times_three(7)), ("i", _times_i(7))):
        tree = tmp_path / name
        shutil.copytree(FIXTURES, tree)
        path = tree / "basis.Z.D.json"
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        monkeypatch.setenv("TUBES_FIXTURES", str(tree))
        if name == "three":
            for command in ("isotropy", "group"):
                assert _verdicts(commands[command], capsys) == before[command], command
            code, table = _verdicts(commands["table"], capsys)
            assert code == 1 and "FAIL" in table.values()
            assert table.keys() == before["table"][1].keys()
        else:
            code, group = _verdicts(commands["group"], capsys)
            assert code == 1 and "FAIL" in group.values()
