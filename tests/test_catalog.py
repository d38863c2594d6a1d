"""Fixture store integrity: round-trips, probes, ids, tags."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tubes import catalog, interchange
from tubes.poly import lowest_terms
from tubes.record import Record
from tubes.relations import RelationContext
from tubes.scalars import GaussianRational

ROOT = Path(__file__).resolve().parents[1]


def test_every_fixture_round_trips_bit_exactly():
    for fid in catalog.list_ids():
        fx = catalog.get(fid)
        obj = catalog.fixture_to_obj(fx)
        text = json.dumps(obj, sort_keys=True)
        back = catalog.fixture_from_obj(json.loads(text))
        assert json.dumps(catalog.fixture_to_obj(back), sort_keys=True) == text, fid
        assert repr(back.payload) == repr(fx.payload), fid


def _changed_fields(old, new):
    """(record, field name) of each field in which two records differ,
    looking into fields that hold records of one type."""
    out = []
    for name in old._fields:
        a, b = getattr(old, name), getattr(new, name)
        if a == b:
            continue
        if isinstance(a, Record) and type(a) is type(b):
            out += _changed_fields(a, b)
        else:
            out.append((new, name))
    return out


def test_a_missing_key_decodes_to_its_default_or_fails_to_read(tmp_path):
    """Each committed fixture with any one key removed, from the fixture or
    from its payload: reading it either raises FixtureError or gives the
    fixture back with at most the field of that key changed, to the
    field's Record default."""
    path, defaulted = tmp_path / "fixture.json", set()
    for source in sorted((ROOT / "fixtures").glob("*.json")):
        if source.name == "index.json":
            continue
        obj = json.loads(source.read_text())
        whole = catalog.fixture_from_obj(obj)
        payload = obj["payload"]
        cuts = [({k: v for k, v in obj.items() if k != key}, key) for key in obj]
        cuts += [({**obj, "payload": {k: v for k, v in payload.items() if k != key}}, key)
                 for key in payload]
        for cut, key in cuts:
            path.write_text(json.dumps(cut))
            try:
                fx = catalog.read_fixture(path)
            except catalog.FixtureError:
                continue
            changed = _changed_fields(whole, fx)
            assert len(changed) <= 1, (source.name, key, changed)
            for rec, name in changed:
                assert getattr(rec, name) == type(rec)._defaults.get(name, ...), (source.name, key)
            defaulted.add((obj["kind"], key))
    assert defaulted == {
        ("hypersurface", "constraints"), ("hypersurface", "assert_irreducible"),
        ("hypersurface", "name"), ("graph_surface", "name"), ("map_family", "relations"),
        ("map_family", "constraints"), ("map_family", "composition"),
        ("map_family", "composition_primed"), ("rational_map", "origin_image"),
        ("witness", "name"), ("line", "name")}


def test_a_codec_spec_names_every_field():
    with pytest.raises(TypeError, match="RelationContext has 2 fields, its codec spec 1"):
        interchange.record(RelationContext, ("radicals", interchange.seq(interchange.TEXT)))


def test_ids_unique_and_tagged():
    seen = set()
    for fid in catalog.list_ids():
        fx = catalog.get(fid)
        assert fx.id == fid
        assert fid not in seen
        seen.add(fid)
        assert fx.tag in ("source", "derived", "direct")
        assert fx.claim


def test_domain_listing_has_fourteen_entries():
    assert len(catalog.list_ids("domain.*")) == 14


def test_every_basepoint_on_surface():
    for fid in catalog.list_ids("surface.*"):
        fx = catalog.get(fid)
        if fx.kind != "hypersurface":
            continue
        s = fx.payload
        assert s.point_on_surface(s.basepoint), fid
        assert s.point_satisfies_constraints(s.basepoint), fid


def test_every_domain_probe_inside():
    for fid in catalog.list_ids("domain.*"):
        assert catalog.get(fid).payload.probe_inside(), fid


def test_a_domain_refuses_a_probe_or_constraint_off_its_variables():
    spec = catalog.get("domain.D.gt").payload

    def domain(constraints, probe):
        return catalog.DomainSpec(spec.name, spec.expr, constraints, probe, spec.levi_type,
                                  spec.source_surface)

    with pytest.raises(ValueError, match="the probe has 3 coordinates"):
        domain(spec.constraints, spec.probe[:3])
    wider = spec.expr.with_vars(spec.expr.vars + ("t",))
    with pytest.raises(ValueError, match=r"is over \('x1', 'x2', 'x3', 'x4', 't'\)"):
        domain(((wider, "gt"),), spec.probe)
    assert domain(((spec.expr, "gt"),), spec.probe).probe_inside()


def _fixtures(source):
    return catalog.registry() if source == "registry" else catalog.load_tree(ROOT / "fixtures")


@pytest.mark.parametrize("source", ["registry", "committed tree"])
def test_line_and_domain_ids_name_their_kind(source):
    """Commands select lines and domains by id prefix, without decoding."""
    reg = _fixtures(source)
    for fid in reg:
        for kind in ("line", "domain"):
            assert fid.startswith(kind + ".") == (reg[fid].kind == kind), fid


@pytest.mark.parametrize("source", ["registry", "committed tree"])
def test_every_domain_is_a_side_of_its_surface(source):
    reg = _fixtures(source)
    domains = [fid for fid in reg if fid.startswith("domain.")]
    assert len(domains) == 14
    for fid in domains:
        spec = reg[fid].payload
        surface = reg[spec.source_surface].payload
        side = {"gt": 1, "lt": -1}[fid.rsplit(".", 1)[1]]
        assert spec.expr == surface.defining * side, fid
        assert spec.constraints == surface.constraints, fid


@pytest.mark.parametrize("mid", catalog.list_ids("map.*"))
def test_every_map_component_is_stored_in_lowest_terms(mid):
    """Built in code, decoded from fixtures/, and read from its file by the
    bare codec, without the record that reduces it: each component of a
    catalogued map is the same num over the same den, in which
    `lowest_terms` finds no common factor to cancel."""
    path = ROOT / "fixtures" / f"{mid}.json"
    stored = json.loads(path.read_text())["payload"]["components"]
    built = catalog.get(mid).payload.components
    decoded = catalog.read_fixture(path).payload.components
    for (name, rf), (_, back) in zip(built, decoded):
        for got in (rf, back, interchange.ratfun_from_obj(stored[name])):
            assert lowest_terms(got) is got, (mid, name)
            assert (got.num, got.den) == (rf.num, rf.den), (mid, name)


def test_case6_surface_example():
    fx = catalog.get("surface.table.6")
    s = fx.payload
    value = s.defining.eval_at({"x1": 1, "x2": 0, "x3": 1, "x4": 1})
    assert value == GaussianRational(0)
    assert s.basepoint == (1, 0, 1, 1)
    assert s.assert_irreducible


def test_alpha_family_metadata():
    fx = catalog.get("surface.table.4")
    info = fx.payload
    assert info.samples == (Fraction(0), Fraction(1, 12), Fraction(1))
    assert "|w1|^4" in info.target
    assert "1/12" in info.sign_rule


def test_golden_tables_upper_triangle_only():
    for case in ("D", "C"):
        table = catalog.get(f"table.golden.{case}").payload
        for i, j, combo in table.entries:
            assert 1 <= i < j <= 10
            assert combo


def test_unknown_id_reports_near_matches():
    with pytest.raises(KeyError, match="near matches"):
        catalog.get("domain.D.gtt")


@pytest.mark.parametrize("source", ["registry", "committed tree"])
def test_group_ids_list_one_group_in_order(source):
    reg = _fixtures(source)
    for group in ("domain", "basis", "table", "nowhere"):
        assert reg.group_ids(group) == sorted(fid for fid in reg
                                              if fid.startswith(group + "."))
    assert len(reg.group_ids("domain")) == 14


def test_group_ids_of_a_tree_decode_nothing():
    tree = catalog.load_tree(ROOT / "fixtures")
    assert len(tree.group_ids("domain")) == 14 and tree._decoded == {}


def test_export_and_load_tree(tmp_path):
    count = catalog.export_tree(tmp_path)
    assert count == len(catalog.list_ids())
    loaded = catalog.load_tree(tmp_path)
    assert sorted(loaded) == catalog.list_ids()
    fx = loaded["table.golden.D"]
    assert fx.payload.coeff_map()[(1, 4)] == {4: Fraction(-1)}


def test_environment_override(tmp_path, monkeypatch):
    catalog.export_tree(tmp_path)
    monkeypatch.setenv("TUBES_FIXTURES", str(tmp_path))
    reg = catalog.active_registry()
    assert sorted(reg) == catalog.list_ids()
    monkeypatch.delenv("TUBES_FIXTURES")
    assert catalog.active_registry() is catalog.registry()


def test_committed_fixture_tree_matches_export(tmp_path):
    catalog.export_tree(tmp_path)
    committed = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name


# ------------------------------------------------------------ sympy oracle

ORACLE = ROOT / "scripts" / "derive_fixtures.py"


def _run_oracle(tree=None):
    """The oracle script run on the committed tree, or on `tree` through
    TUBES_FIXTURES."""
    import sympy  # noqa: F401  (a missing oracle fails here instead of skipping)
    env = {k: v for k, v in os.environ.items() if k != "TUBES_FIXTURES"}
    if tree is not None:
        env["TUBES_FIXTURES"] = str(tree)
    return subprocess.run([sys.executable, str(ORACLE)], capture_output=True, text=True,
                          env=env, timeout=600)


@pytest.fixture(scope="module")
def oracle_run():
    return _run_oracle()


def _index():
    return json.loads((ROOT / "fixtures" / "index.json").read_text())["fixtures"]


def test_sympy_oracle_script_passes(oracle_run):
    proc = oracle_run
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = re.search(r"^(\d+) ok, (\d+) failed$", proc.stdout, re.MULTILINE)
    assert summary is not None, proc.stdout[-2000:]
    assert summary.group(2) == "0" and int(summary.group(1)) >= 86


def test_the_oracle_checks_every_derived_fixture(oracle_run):
    named = set(re.findall(r"[\w.]+", oracle_run.stdout))
    derived = [e["id"] for e in _index() if e["tag"] == "derived"]
    assert len(derived) == 13 and set(derived) <= named, sorted(set(derived) - named)


def test_every_cited_oracle_section_is_a_function_of_the_script():
    tree = ast.parse(ORACLE.read_text())
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    cited = {name for e in _index()
             for name in re.findall(r"\(oracle script, (\w+) section\)", e["claim"])}
    assert len(cited) == 5 and cited <= functions, sorted(cited - functions)


def test_the_oracle_imports_nothing_from_the_package():
    imported = set()
    for node in ast.walk(ast.parse(ORACLE.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "sympy" in imported
    assert not [name for name in imported if name.split(".")[0] == "tubes"]


def test_the_oracle_fails_on_a_negated_golden_coefficient(tmp_path):
    """Negative control: the tree with the first coefficient of
    table.golden.D negated, read through TUBES_FIXTURES."""
    tree = tmp_path / "fixtures"
    shutil.copytree(ROOT / "fixtures", tree)
    path = tree / "table.golden.D.json"
    obj = json.loads(path.read_text())
    assert obj["payload"]["entries"][0] == [1, 4, {"4": "-1"}]
    obj["payload"]["entries"][0][2]["4"] = "1"
    path.write_text(json.dumps(obj))
    proc = _run_oracle(tree)
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert re.findall(r"^\[FAIL\] (\S+)", proc.stdout, re.MULTILINE) == ["table.golden.D:"]


# ------------------------------------------------------------ lazy registry

@pytest.fixture
def built_groups(monkeypatch):
    """Wrap every group builder of the in-code registry; the list holds the
    groups built since, each named by its prefixes joined with '/'. The
    registry is rebuilt from the real builders afterwards."""
    built = []
    names = {}
    for prefix, build in catalog._BUILDER.items():
        names[build] = names.get(build, ()) + (prefix,)

    def recorded(build):
        return lambda reg: built.append("/".join(sorted(names[build]))) or build(reg)
    wrapped = {build: recorded(build) for build in names}
    monkeypatch.setattr(catalog, "_BUILDER",
                        {prefix: wrapped[build] for prefix, build in catalog._BUILDER.items()})
    monkeypatch.delenv("TUBES_FIXTURES", raising=False)
    catalog.registry.cache_clear()
    yield built
    catalog.registry.cache_clear()


def test_fresh_start_up_builds_no_fixture_group():
    """`import tubes.cli` plus `catalog.active_registry()` in a fresh
    interpreter, with every builder replaced by one that raises."""
    code = ("from tubes import catalog\n"
            "def boom(reg):\n"
            "    raise AssertionError('a fixture group was built')\n"
            "catalog._BUILDER = dict.fromkeys(catalog._BUILDER, boom)\n"
            "import tubes.cli\n"
            "reg = catalog.active_registry()\n"
            "print('a/b.json' in reg, 'nowhere' in reg)\n")
    env = {k: v for k, v in os.environ.items() if k != "TUBES_FIXTURES"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("argv, groups", [
    (["verify-map", "--id", "map.cm.D"], ["graph", "map", "surface"]),
    (["table", "--case", "D"], ["basis/table"]),
    (["normal-form", "--case", "D"], ["graph", "surface"]),
    (["symmetry", "--surface", "surface.table.1m"], ["surface"]),
    (["witness", "--id", "witness.D.gt"], ["domain", "family", "surface", "witness"]),
    (["orbits", "--surface", "surface.table.1p"], ["domain", "surface"]),
    (["lines"], ["domain", "line", "surface"]),
    (["classify"], ["basis/table", "domain", "family", "graph", "map", "surface", "witness"]),
])
def test_commands_build_only_the_groups_they_read(argv, groups, built_groups, capsys):
    from tubes import cli
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert sorted(built_groups) == groups


def test_lookups_build_at_most_their_own_group(built_groups):
    reg = catalog.active_registry()
    for text in ("", "fixtures/surface.table.3.json", "nowhere.D", "surface", 3, None):
        assert text not in reg and reg.get(text) is None
    assert built_groups == ["surface"]
    assert reg["map.cm.C"].kind == "rational_map"
    assert built_groups == ["surface", "map"]
    assert "bridge.isotropy.D" in reg and "slice.isotropy.D" in reg
    assert built_groups == ["surface", "map", "bridge/slice"]


def test_full_iteration_yields_every_committed_id(built_groups):
    committed = [e["id"] for e in json.loads((ROOT / "fixtures" / "index.json").read_text())
                 ["fixtures"]]
    reg = catalog.registry()
    assert len(committed) == 71 and len(reg) == 71
    assert sorted(reg) == sorted(committed) == catalog.list_ids()
    assert sorted(built_groups) == ["basis/table", "bridge/slice", "domain", "family", "graph",
                                    "isospan", "line", "map", "surface", "witness"]


def test_cache_clear_gives_an_unbuilt_registry(built_groups):
    first = catalog.active_registry()
    assert len(first) == 71 and len(built_groups) == 10
    catalog.registry.cache_clear()
    second = catalog.active_registry()
    assert second is not first and second is catalog.active_registry()
    assert len(built_groups) == 10
    assert second["line.D.gt"] == first["line.D.gt"] and built_groups[10:] == ["line"]


@pytest.mark.parametrize("stray, message", [
    ("surface.table.3", "fixture id surface.table.3 is outside the group of its builder"),
    ("line.D.gt", "duplicate fixture id line.D.gt"),
])
def test_a_builder_must_keep_to_its_group_and_yield_each_id_once(
        stray, message, built_groups, monkeypatch):
    lines = catalog._lines

    def strayed():
        out = lines()
        return out + [catalog.Fixture(stray, "direct", "a stray", out[0].payload)]
    monkeypatch.setattr(catalog, "_lines", strayed)
    reg = catalog.active_registry()
    with pytest.raises(RuntimeError, match=message):
        reg["line.C.gt"]
    with pytest.raises(RuntimeError, match=message):
        "line.C.gt" in reg  # a failed build leaves nothing behind
    assert "line.C.gt" not in reg._fixtures and "domain.C.gt" in reg
