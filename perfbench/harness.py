"""One workload run inside a fresh interpreter.

    python3 perfbench/harness.py --root DIR --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/harness.py --root DIR --setup-only

Times the set-up (`import tubes.cli` plus the first
`catalog.active_registry()`), then runs seeded passes of in-process
`tubes.cli.main` calls from one thread, as many as fill --seconds at the
workload's nominal pass length, checks every report against the
expected-verdict table and prints one JSON object.
With --trace 1 the first half of the time runs untraced and the second
half traced, so the overhead of tracing is measured in the same process.

Times are reported in reference seconds. Before each operation the
harness times one chunk of fixed reference work that does not touch
tubes, and every time of a pass is scaled by REFERENCE_S over the mean
chunk time of that pass. The speed of a shared host drifts by tens of
percent within seconds; the scaling cancels that drift, while a change in
tubes still changes its times in full. Raw times are reported beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

import spans
from expected import EXPECTED, flipped, mismatches
from workloads import WORKLOADS, build_pass, pass_count

perf = time.perf_counter

REFERENCE_S = 0.02


def _reference_operands():
    rng = random.Random(7)

    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return [{tuple(rng.randint(0, 3) for _ in range(8)): (q(), q()) for _ in range(40)}
            for _ in range(2)]


REF_A, REF_B = _reference_operands()


def reference_chunk() -> float:
    """Seconds for a fixed sparse product with Gaussian-rational
    coefficients, written without tubes: it tracks the host's speed on the
    kind of work tubes does. The collector is off so that the heap tubes
    leaves behind does not slow it down."""
    gc.disable()
    try:
        start = perf()
        out = {}
        for e1, (ar, ai) in REF_A.items():
            for e2, (br, bi) in REF_B.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                cr, ci = ar * br - ai * bi, ar * bi + ai * br
                old = out.get(e)
                out[e] = (cr, ci) if old is None else (old[0] + cr, old[1] + ci)
        return perf() - start
    finally:
        gc.enable()


class Runner:
    def __init__(self, cli, catalog, fixtures: str, export_dir: str):
        self.cli, self.catalog = cli, catalog
        self.fixtures, self.export_dir = fixtures, export_dir
        self.attempted = 0
        self.failures = []
        self.sample_report = None

    def run_pass(self, ops):
        """Run the operations one after another, each after a reference
        chunk. Returns the pass's scale to reference seconds, its raw time
        and (subcommand, label, raw seconds) per CLI call. Outputs are
        checked afterwards."""
        outputs, chunks = [], []
        for op in ops:
            chunks.append(reference_chunk())
            t = perf()
            outputs.append(self._run(op))
            outputs[-1] += (perf() - t,)
        latencies = []
        for op, (code, out, err, seconds) in zip(ops, outputs):
            self._check(op, code, out, err)
            if op.argv:
                latencies.append((op.subcommand, " ".join(op.argv[3:]), seconds))
        return REFERENCE_S / statistics.mean(chunks), sum(o[-1] for o in outputs), latencies

    def _run(self, op):
        if not op.argv:
            try:
                self.catalog.export_tree(self.export_dir)
            except Exception:
                return traceback.format_exc(), "", ""
            return 0, "", ""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except Exception:
            code = traceback.format_exc()
        return code, out.getvalue(), err.getvalue()

    def _check(self, op, code, out, err):
        self.attempted += 1
        if isinstance(code, str):
            problems = [f"raised: {code.strip().splitlines()[-1]}"]
            shutil.rmtree(self.export_dir, ignore_errors=True)
        elif not op.argv:
            problems = self._export_problems()
        else:
            try:
                report = json.loads(out)
            except ValueError:
                report = {}
            problems = mismatches(EXPECTED[op.key], code, report, op.random_probes)
            if not report:
                problems.append(f"no JSON report; stderr: {err.strip()[-200:]}")
            if self.sample_report is None and not problems:
                self.sample_report = (op, code, report)
        if problems:
            self.failures.append(f"{op.key}: {'; '.join(problems)}")

    def _export_problems(self):
        names = sorted(os.listdir(self.fixtures))
        try:
            if sorted(os.listdir(self.export_dir)) != names:
                return ["exported file set differs from fixtures/"]
            _, differ, errors = filecmp.cmpfiles(self.fixtures, self.export_dir, names,
                                                 shallow=False)
            return [f"not byte-identical: {name}" for name in differ + errors]
        finally:
            shutil.rmtree(self.export_dir)

    def negative_control(self):
        """A deliberately wrong expected verdict must count as a failure."""
        if self.sample_report is None:
            raise SystemExit("no matching report to run the negative control on")
        op, code, report = self.sample_report
        if not mismatches(flipped(EXPECTED[op.key]), code, report, op.random_probes):
            raise SystemExit(f"negative control not detected on {op.key}")


def run_phase(runner, workload, rng, passes, phase_hook=None):
    """Run the passes; returns their times in reference seconds, their raw
    times, their scales and every latency in reference seconds."""
    out = {"passes": [], "raw_passes": [], "scales": [], "latencies": []}
    for index in range(passes):
        ops = build_pass(workload, rng)
        gc.collect()
        if phase_hook:
            phase_hook(index)
        scale, raw, latencies = runner.run_pass(ops)
        out["passes"].append(raw * scale)
        out["raw_passes"].append(raw)
        out["scales"].append(scale)
        out["latencies"] += [(sub, label, t * scale) for sub, label, t in latencies]
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", help="scratch directory for the fixture export")
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)

    t0 = perf()
    import tubes.cli as cli
    from tubes import catalog
    catalog.active_registry()
    setup_raw = perf() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported tubes from {cli.__file__}, not from {src}")
    setup_scale = REFERENCE_S / statistics.mean([reference_chunk() for _ in range(10)])
    result = {"setup_s": setup_raw * setup_scale, "setup_raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(result))
        return

    runner = Runner(cli, catalog, os.path.join(args.root, "fixtures"),
                    os.path.join(args.work, "export"))
    rng = random.Random(args.seed)
    # a traced run spends half its time untraced and half traced
    passes = pass_count(args.workload, args.seconds / (1 + args.trace), 2 - args.trace)
    result.update(run_phase(runner, args.workload, rng, passes))
    if args.trace:
        recorder = spans.Recorder()
        registry = catalog.registry
        missing = recorder.install()
        registry.cache_clear()  # set-up again, now traced
        catalog.active_registry()

        def enter(index):
            recorder.phase = index
        traced = run_phase(runner, args.workload, rng, passes, enter)
        result.update(traced_passes=traced["passes"],
                      traced_scale=statistics.mean(traced["scales"]), missing=missing,
                      layers=spans.totals(recorder.spans),
                      registry=spans.totals(recorder.spans, -1).get("catalog.registry", {}),
                      span_count=len(recorder.spans))
        if args.spans_out:
            spans.write(recorder.spans, args.spans_out)
    runner.negative_control()
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
