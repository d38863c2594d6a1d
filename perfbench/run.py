"""Benchmark of the `tubes` verifier, driven through its command line.

    python3 perfbench/run.py --workload tube-maps --seed 1 --seconds 24 --trace 0

Run from anywhere; the checkout is the parent of this directory and must
hold src/tubes and fixtures/. Each run starts fresh interpreters: several
that only time the set-up, then one that runs the workload's seeded passes
(perfbench/harness.py). The last line of standard output is one JSON
object {correct, attempted, failed, metrics}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The lines before it print every metric by name with its unit, the failure
share, the quartiles and the run metadata, which are also written to
.perfbench/results/ in the checkout together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170

END_TO_END = (("sweep_s", "s"), ("invocation_p50_s", "s"), ("invocation_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

SUBCOMMANDS = ("symmetry", "orbits", "table", "normal-form", "verify-map", "isotropy",
               "group", "nilpotency", "witness", "lines", "scan", "classify")

# `.s` is self time and `.calls` a call count, both per traced pass;
# see per_layer() for the derived ones
PER_LAYER = (
    ("poly.mul.calls", "count"), ("poly.mul.s", "s"), ("poly.mul.term_pairs", "count"),
    ("poly.mul.terms_out_max", "count"), ("poly.substitute.s", "s"),
    ("poly.series_expand.s", "s"), ("poly.subs_poly.calls", "count"),
    ("poly.subs_poly.s", "s"),
    ("scalars.coeff_bits_max", "bits"), ("scalars.nonint_coeff_share", "ratio"),
    ("scalars.complex_coeff_share", "ratio"),
    ("linalg.solve_columns.calls", "count"), ("linalg.solve_columns.s", "s"),
    ("linalg.solve_columns.cells", "count"), ("linalg.kernel_basis.calls", "count"),
    ("linalg.kernel_basis.s", "s"), ("linalg.kernel_basis.cells", "count"),
    ("linalg.rref_rows.s", "s"), ("linalg.det_exact.calls", "count"),
    ("linalg.det_exact.s", "s"), ("linalg.poly_div_exact.calls", "count"),
    ("linalg.poly_div_exact.s", "s"),
    ("fields.lie_bracket.calls", "count"), ("fields.lie_bracket.s", "s"),
    ("fields.rank_at.calls", "count"), ("fields.rank_at.s", "s"),
    ("fields.minors_scan.s", "s"), ("fields.minors_scan.minors", "count"),
    ("symmetry.affine_symmetry_algebra.s", "s"), ("symmetry.from_fields.s", "s"),
    ("symmetry.verify.s", "s"), ("symmetry.expand_in_fields.calls", "count"),
    ("symmetry.expand_in_fields.s", "s"), ("symmetry.subalgebra_scan.s", "s"),
    ("symmetry.scan.charts", "count"), ("symmetry.scan.unresolved_share", "ratio"),
    ("symmetry.open_orbit_report.s", "s"), ("symmetry.obstruction.s", "s"),
    ("normal_form.verify_surface_map.calls", "count"),
    ("normal_form.verify_surface_map.s", "s"), ("normal_form.defining_series.s", "s"),
    ("normal_form.chern_moser_check.s", "s"),
    ("normal_form.verify_family_invariance.s", "s"),
    ("normal_form.verify_group_law.s", "s"), ("normal_form.verify_map_conjugation.s", "s"),
    ("relations.reduce_poly.calls", "count"), ("relations.reduce_poly.s", "s"),
    ("catalog.registry.s", "s"), ("catalog.load_tree.calls", "count"),
    ("catalog.load_tree.s", "s"), ("catalog.export_tree.s", "s"),
    ("catalog.export_tree.bytes", "bytes"),
    ("interchange.poly_from_obj.calls", "count"), ("interchange.poly_from_obj.s", "s"),
    ("interchange.poly_to_obj.calls", "count"), ("interchange.poly_to_obj.s", "s"),
    ("interchange.family_from_obj.s", "s"),
) + tuple((f"cli.{sub}.s", "s") for sub in SUBCOMMANDS) + (
    ("cli.verify-map.map.cm.D.s", "s"), ("trace.overhead_ratio", "ratio"))


class BenchError(Exception):
    pass


def child(args, env, deadline):
    """Run harness.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "harness.py"), "--root", str(ROOT)] + args
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"harness exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it
    (nearest rank), with that percentile."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    if rank < 1:
        raise BenchError(f"{len(ordered)} invocations are too few for a tail latency")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(res, setups):
    walls = res["passes"]
    lat = [s for _, _, s in res["latencies"]]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "sweep_s": statistics.median(walls),
        "invocation_p50_s": statistics.median(lat),
        "invocation_tail_s": tail_s,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {"sweep_s_quartiles": statistics.quantiles(walls, n=4, method="inclusive"),
             "tail_percentile": tail_pct, "invocation_samples": len(lat),
             "setup_samples": len(setups),
             "raw_sweep_s": statistics.median(res["raw_passes"]),
             "raw_setup_s": statistics.median(s["setup_raw_s"] for s in setups),
             "scales": res["scales"]}
    return metrics, extra


def per_layer(res):
    """Per-layer metrics of a traced run, per traced pass unless noted:
    maxima for `*_max`, shares over all product outputs, the registry build
    once per process (set-up included), and for `cli.*` the time of that
    subcommand in the same run's untraced passes."""
    passes = len(res["traced_passes"])
    layers = res["layers"]

    def get(target, field):
        value = layers.get(target, {}).get(field, 0.0)
        return value * res["traced_scale"] if field == "s" else value

    mul_coeffs = get("poly.mul", "coeffs") or 1.0
    charts = get("symmetry.subalgebra_scan", "charts")
    special = {
        "poly.mul.terms_out_max": get("poly.mul", "terms_out"),
        "scalars.coeff_bits_max": get("poly.mul", "coeff_bits"),
        "scalars.nonint_coeff_share": get("poly.mul", "nonint") / mul_coeffs,
        "scalars.complex_coeff_share": get("poly.mul", "complex") / mul_coeffs,
        "symmetry.scan.charts": charts / passes,
        "symmetry.scan.unresolved_share":
            get("symmetry.subalgebra_scan", "unresolved") / charts if charts else 0.0,
        "catalog.registry.s": res["registry"].get("s", 0.0) * res["traced_scale"],
        "trace.overhead_ratio":
            statistics.median(res["traced_passes"]) / statistics.median(res["passes"]),
    }
    untraced = len(res["passes"])
    for sub in SUBCOMMANDS:
        special[f"cli.{sub}.s"] = sum(
            s for name, _, s in res["latencies"] if name == sub) / untraced
    special["cli.verify-map.map.cm.D.s"] = sum(
        s for name, label, s in res["latencies"]
        if name == "verify-map" and label.split()[-1] == "map.cm.D") / untraced
    metrics = {}
    for name, _ in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        else:
            target, field = name.rsplit(".", 1)
            metrics[name] = get(target, field) / passes
    return metrics, {"traced_passes": passes, "untraced_passes": untraced,
                     "span_count": res["span_count"], "missing_targets": res["missing"]}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "tubes" / "__init__.py").is_file() \
            or not (ROOT / "fixtures" / "index.json").is_file():
        raise BenchError(f"no tubes sources under {ROOT}: expected src/tubes and fixtures/")
    out_dir = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0"}
    if args.workload == "catalog-disk":
        shutil.copytree(ROOT / "fixtures", work / "fixtures")
        env["TUBES_FIXTURES"] = str(work / "fixtures")
    try:
        setups = []
        if not args.trace:
            child(["--setup-only"], env, deadline)  # warm-up: writes bytecode caches
            setups = [child(["--setup-only"], env, deadline) for _ in range(SETUP_SAMPLES)]
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        run_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
        if args.trace:
            run_args += ["--spans-out", str(out_dir / f"spans-{stem}.csv")]
        res = child(run_args, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(res)
        units = dict(PER_LAYER)
    else:
        metrics, extra = end_to_end(res, setups + [res])
        units = dict(END_TO_END)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(res["passes"]),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **extra,
    }
    failed_share = res["failed"] / res["attempted"]
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_share = {failed_share:.6g} ratio ({res['failed']} of {res['attempted']})")
    for problem in res["failures"]:
        print(f"FAILED {problem}")
    print("meta: " + json.dumps(meta))
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"result": result, "meta": meta, "failures": res["failures"]}, indent=1) + "\n")
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
