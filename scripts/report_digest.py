#!/usr/bin/env python3
"""One digest line per distinct invocation of the benchmark workloads.

    python3 scripts/report_digest.py --seeds 1-5 --work /tmp/digest > digest.txt
    python3 scripts/report_digest.py --root OTHER_CHECKOUT --seeds 1-5 --work ... > other.txt
    diff digest.txt other.txt

The invocations are those of the first pass that perfbench/workloads.py
builds for each seed and workload, exactly as the benchmark draws them;
each is run in-process through tubes.cli.main of the checkout at --root
by perfbench/harness.py's Runner. A line holds the SHA-256 of the --json
report with every "seconds" key removed, the exit code and the argv,
sorted by argv. One more line digests the fixture tree that
catalog.export_tree writes and says whether it equals the checkout's
fixtures/ byte for byte. Two checkouts give the same results exactly when
their outputs are equal.

Standard library only. The interpreter runs with PYTHONHASHSEED=0, as in
the benchmark, so that set iteration order is the same in every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def invocations(seeds):
    """(workload, op) of every distinct CLI invocation, in first-seen order."""
    from workloads import WORKLOADS, build_pass
    seen = {}
    for workload in WORKLOADS:
        for seed in seeds:
            for op in build_pass(workload, random.Random(seed)):
                if op.argv:
                    seen.setdefault((workload, op.argv), op)
    return [(workload, op) for (workload, _), op in seen.items()]


def digest_line(runner, op) -> str:
    code, out, err = runner._run(op)
    if isinstance(code, str):  # a raised invocation is a result to compare too
        code = "raised:" + code.strip().splitlines()[-1].split(":")[0]
    try:
        body = json.dumps(_strip_seconds(json.loads(out))).encode()
    except ValueError:
        body = f"not JSON: {out}{err}".encode()
    return f"{_sha(body)} exit={code} {' '.join(op.argv)}"


def export_line(runner, op) -> str:
    code, _, _ = runner._run(op)
    if code:
        return f"export raised: {code.strip().splitlines()[-1]}"
    tree = Path(runner.export_dir)
    data = b"".join(name.encode() + b"\0" + (tree / name).read_bytes()
                    for name in sorted(os.listdir(tree)))
    problems = runner._export_problems()  # removes the export
    return f"{_sha(data)} export {'; '.join(problems) or 'identical to fixtures/'}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=str(REPO), help="checkout to run (default: this one)")
    ap.add_argument("--seeds", default="1-5", help="seeds, e.g. 1-5 or 1,3,7 (default 1-5)")
    ap.add_argument("--work", help="directory for the temporary export (default: system temp)")
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)

    root = Path(args.root).resolve()
    # the workloads and the runner come from this checkout's perfbench,
    # the code under test from --root
    sys.path.insert(0, str(REPO / "perfbench"))
    sys.path.insert(0, str(root / "src"))
    from harness import Runner
    from workloads import Op
    import tubes.cli as cli
    from tubes import catalog
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported tubes from {cli.__file__}, not from {root / 'src'}")

    fixtures = root / "fixtures"
    lines = []
    if args.work:
        os.makedirs(args.work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.work) as tmp:
        runner = Runner(cli, catalog, str(fixtures), os.path.join(tmp, "export"))
        for workload, op in invocations(_seeds(args.seeds)):
            if workload == "catalog-disk":
                os.environ["TUBES_FIXTURES"] = str(fixtures)
            else:
                os.environ.pop("TUBES_FIXTURES", None)
            lines.append(digest_line(runner, op))
        os.environ.pop("TUBES_FIXTURES", None)
        lines.sort(key=lambda line: line.split(" ", 2)[2])
        lines.append(export_line(runner, Op(())))
    print("\n".join(lines))
    print(f"{len(lines) - 1} invocations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
