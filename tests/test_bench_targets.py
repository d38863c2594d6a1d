"""Every per-layer target of perfbench/spans.py names a function the package has.

The benchmark's tracer reports a renamed or deleted target only as
`missing_targets` at run time, and its metrics then read zero. This test
resolves each target the way `spans.Recorder.install` does, without
installing any wrapper, so a rename fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target[:3] for target in module.TARGETS]


TARGETS = _targets()


@pytest.mark.parametrize("name, modname, path", TARGETS, ids=[t[0] for t in TARGETS])
def test_bench_target_resolves(name, modname, path):
    owner = importlib.import_module(modname)
    cls_name, _, attr = path.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name, None)
        assert owner is not None, f"{name}: {modname} has no class {cls_name}"
    assert vars(owner).get(attr) is not None, f"{name}: {modname}.{path} does not exist"
