"""Every benchmark invocation's report carries the verdicts that
perfbench/expected.py transcribes from the catalogued claims.

One seeded pass of each workload (perfbench/workloads.build_pass) runs in
process. Each report is checked with expected.mismatches, the function the
benchmark harness checks its reports with, and the table keys seen must
cover every EXPECTED entry. The fixture export that ends a catalog-disk
pass has no report; tests/test_report_digests.py compares it byte for
byte. Nothing under perfbench/ is changed.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

from expected import EXPECTED, mismatches  # noqa: E402
from workloads import WORKLOADS, build_pass  # noqa: E402

from tubes import cli  # noqa: E402


def test_one_pass_of_every_workload_gets_the_expected_verdicts(capsys, monkeypatch):
    monkeypatch.delenv("TUBES_FIXTURES", raising=False)
    seen, problems = set(), []
    for workload in WORKLOADS:
        for op in build_pass(workload, random.Random(1)):
            if not op.argv:
                continue
            code = cli.main(list(op.argv))
            report = json.loads(capsys.readouterr().out)
            problems += [f"{op.key}: {problem}" for problem in
                         mismatches(EXPECTED[op.key], code, report, op.random_probes)]
            seen.add(op.key)
    assert problems == []
    assert EXPECTED.keys() <= seen, sorted(EXPECTED.keys() - seen)
