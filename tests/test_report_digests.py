"""Every benchmark invocation's report matches its golden digest.

scripts/report_digest.py runs each distinct CLI invocation of the first
pass of every workload for seeds 1-5, plus the fixture export, and prints
one line per invocation: the SHA-256 of its --json report without the
"seconds" keys, the exit code and the argv. tests/golden/report_digests.txt
holds those lines as they should read. A change that alters a report on
purpose regenerates the file with

    PYTHONHASHSEED=0 python3 scripts/report_digest.py --seeds 1-5 > tests/golden/report_digests.txt

and says which lines changed and why.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "report_digests.txt"


def _by_argv(text):
    """{argv or "export": line}; an invocation line is `sha exit=N argv...`,
    the export line `sha export ...`."""
    out = {}
    for line in text.splitlines():
        _, kind, rest = line.split(" ", 2)
        out["export" if kind == "export" else rest] = line
    return out


def test_report_digests_match_the_golden_file(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "TUBES_FIXTURES"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digest.py"),
                           "--seeds", "1-5", "--work", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    want, got = _by_argv(GOLDEN.read_text()), _by_argv(proc.stdout)
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not differ, f"{len(differ)} report digests differ, for:\n" + "\n".join(differ)
