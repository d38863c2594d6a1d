"""interchange.to_json writes exactly what json.dumps(..., indent=1) writes.

The fixture tree and every --json report go through it, and
scripts/report_digest.py re-parses the reports, so a change in their
formatting would show up only here.
"""

import json

import pytest

from tubes import catalog, cli
from tubes.interchange import to_json


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, -7, 2 ** 70, 1.5, -0.0, 1e300, 0.1, float("inf"), None, True, False,
    {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]], ()], {"x": {"y": {"z": []}}},
    (1, (2, ())), [1, "a", None, True, 1.25, {"k": (False, 0)}],
    {"b": 1, "a": {"d": [], "c": None}, "c": [3, 2, 1]},
    "é☃\U0001f600", "\x00\x1f\x7f\n\t\r\"\\/", {"é": "ü", "\n": "\x01"},
    {1: "int key", 2: [{}]}, [{"a": {1: [2, {}], 2: ()}}], {"k": {True: 1, False: 2.5}},
])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_to_json_equals_json_dumps(obj, sort_keys):
    assert to_json(obj, sort_keys) == json.dumps(obj, indent=1, sort_keys=sort_keys)


def test_every_fixture_object_is_written_as_json_dumps_writes_it():
    for fid in catalog.list_ids():
        obj = catalog.fixture_to_obj(catalog.get(fid))
        assert to_json(obj, sort_keys=True) == json.dumps(obj, indent=1, sort_keys=True), fid


@pytest.mark.parametrize("argv", [
    ["symmetry", "--surface", "surface.table.3"],
    ["orbits", "--surface", "surface.table.3", "--random-probes", "1"],
    ["table", "--case", "C"],
    ["normal-form", "--case", "C", "--cutoff", "6"],
    ["verify-map", "--id", "map.case3.printed"],
    ["isotropy", "--case", "C"],
    ["group", "--case", "C"],
    ["nilpotency", "--case", "C"],
    ["witness", "--id", "witness.C.gt"],
    ["lines"],
    ["scan", "--surface", "surface.table.3", "--dim", "3"],
    ["classify"],
], ids=lambda argv: argv[0])
def test_json_reports_are_written_as_json_dumps_writes_them(argv, capsys):
    cli.main(["--json", "--seed", "3"] + argv)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=1) + "\n"
