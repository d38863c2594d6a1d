"""Every function under src/tubes/ is entered by some command-line path.

scripts/unreached.py runs the benchmark's invocations and the fixture
export under a profiler and lists each package function they never
enter: one reached only from tests, or from nothing. It exits 1 when it
lists any. It then lists the catalogued fixture ids that no invocation
reads, which leaves the exit code as it is.
"""

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
