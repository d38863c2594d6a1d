"""Every function under src/tubes/ is entered by some command-line path.

scripts/unreached.py runs the benchmark's invocations and the fixture
export under a profiler and lists each package function they never
enter, dunder methods included: one reached only from tests, or from
nothing. Its KEPT dict names the few that stay anyway, and it lists any
KEPT entry that is stale. It exits 1 when it lists any. It then lists
the catalogued fixture ids that no invocation reads, which leaves the
exit code as it is.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from tubes import catalog

ROOT = Path(__file__).resolve().parents[1]


def test_every_package_function_is_entered_from_the_command_line():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "unreached.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # no function listed: the function count, the unread ids, their count
    lines = proc.stdout.splitlines()
    unread, summary = lines[1:-1], lines[-1]
    assert summary.startswith(f"{len(unread)} fixture ids not read by ")
    assert set(unread) <= set(catalog.list_ids())


def test_kept_entries_that_are_stale_are_listed():
    spec = importlib.util.spec_from_file_location("unreached", ROOT / "scripts" / "unreached.py")
    unreached = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unreached)
    assert all(isinstance(why, str) and why for why in unreached.KEPT.values())
    defined = {("m.py", 1, "f"): "m.f", ("m.py", 4, "__eq__"): "m.C.__eq__",
               ("m.py", 9, "g"): "m.g", ("m.py", 12, "__len__"): "m.C.__len__"}
    kept = {"m.f": "entered", "m.C.__eq__": "kept", "m.gone": "deleted"}
    assert unreached.unlisted(defined, {("m.py", 1, "f")}, kept) == [
        "m.C.__len__", "m.g", "m.gone: kept, but no such function",
        "m.f: kept, but the sweep enters it"]
