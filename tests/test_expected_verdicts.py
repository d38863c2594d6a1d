"""Every benchmark invocation's report carries the verdicts that
perfbench/expected.py transcribes from the catalogued claims, and stays
readable.

One seeded pass of each workload (perfbench/workloads.build_pass) runs in
process. Each report is checked with expected.mismatches, the function the
benchmark harness checks its reports with, and the table keys seen must
cover every EXPECTED entry, and no report may list a check id twice.
The fixture export that ends a catalog-disk
pass has no report; tests/test_report_digests.py compares it byte for
byte. Nothing under perfbench/ is changed.
"""

import contextlib
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

from expected import EXPECTED, mismatches  # noqa: E402
from workloads import WORKLOADS, build_pass  # noqa: E402

from tubes import cli  # noqa: E402

# the longest detail a check may print; an UNRESOLVED chart shows only its
# first residual equations (`scan --verbose` prints the full system)
MAX_DETAIL = 1500


@pytest.fixture(scope="module")
def first_passes():
    """(op, exit code, report) of every invocation of the first pass of
    seed 1 of every workload, run in process on the committed fixtures."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("TUBES_FIXTURES", raising=False)
        for workload in WORKLOADS:
            for op in build_pass(workload, random.Random(1)):
                if not op.argv:
                    continue
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(op.argv))
                runs.append((op, code, json.loads(out.getvalue())))
    return runs


def test_one_pass_of_every_workload_gets_the_expected_verdicts(first_passes):
    problems = [f"{op.key}: {problem}" for op, code, report in first_passes
                for problem in mismatches(EXPECTED[op.key], code, report, op.random_probes)]
    assert problems == []
    seen = {op.key for op, _, _ in first_passes}
    assert EXPECTED.keys() <= seen, sorted(EXPECTED.keys() - seen)


def test_no_report_of_a_benchmark_pass_repeats_a_check_id(first_passes):
    repeated = [(op.key, cid) for op, _, report in first_passes
                for cid, count in Counter(c["id"] for c in report["checks"]).items()
                if count > 1]
    assert repeated == []


def test_no_check_detail_of_a_benchmark_pass_is_longer_than_the_bound(first_passes):
    longest = max((len(c["details"]), c["id"]) for _, _, report in first_passes
                  for c in report["checks"])
    assert longest[0] <= MAX_DETAIL, longest
