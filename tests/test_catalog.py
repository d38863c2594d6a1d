"""Fixture store integrity: round-trips, probes, ids, tags."""

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tubes import catalog
from tubes.scalars import GaussianRational

ROOT = Path(__file__).resolve().parents[1]


def test_every_fixture_round_trips_bit_exactly():
    for fid in catalog.list_ids():
        fx = catalog.get(fid)
        obj = catalog.fixture_to_obj(fx)
        text = json.dumps(obj, sort_keys=True)
        back = catalog.fixture_from_obj(json.loads(text))
        assert json.dumps(catalog.fixture_to_obj(back), sort_keys=True) == text, fid


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


def test_sympy_oracle_script_passes():
    import sympy  # noqa: F401  (a missing oracle fails here instead of skipping)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "derive_fixtures.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = re.search(r"^(\d+) ok, (\d+) failed$", proc.stdout, re.MULTILINE)
    assert summary is not None, proc.stdout[-2000:]
    assert summary.group(2) == "0" and int(summary.group(1)) >= 53
