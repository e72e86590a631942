"""skeindepth benchmark: solve latency, throughput and exactness per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload known-table|random-mixed|warm-extend \\
        --seed N --seconds S --trace 0|1

One client in a closed loop hands the solver one link after another.
Every pass runs in a fresh worker process (worker.py), one after the
other, in pairs (an order and its reverse, see workloads.random_draw),
until ``--seconds`` have passed and at least MIN_PASSES passes ran.
Each link's latency is the median of its solve times over the run's
passes; p50 and p90 are Harrell-Davis estimates over those per-link
medians.  Throughput is the run's successful solves per second of pass
time.  Every time is scaled to a reference host speed (speed.py).
Human-readable lines come first; the last line of stdout is the JSON
result.  With ``--trace 0`` it carries the end-to-end metrics;
with ``--trace 1`` each pass runs once untraced and once traced, and it
carries the per-layer metrics, means per traced pass, plus the tracing
overhead.

A failed solve (an exception, or an answer the checker rejects) counts
in ``failed`` and ranks slower than every success in the latency
percentiles: it is given FAIL_RANK_MS plus its own time, and no success
can take FAIL_RANK_MS inside one run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import ATTRIBUTION_NOTE  # noqa: E402

# passes per run, even: every link's median has at least four solves
# behind it, and at least ten solves lie beyond p90 (known-table, the
# smallest workload, has 31 links)
MIN_PASSES = 4
# a run ends within 180 s, so no successful solve takes this long
FAIL_RANK_MS = 180_000.0
# stop starting passes once this much of a run is used
RUN_BUDGET_S = 150.0
FAILED = ("error", "wrong")

END_TO_END_UNITS = {
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "links_per_s": "1/s",
    "exact_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "braid.braid_closure.self_s": "s",
    "cli.load_dataset.self_s": "s",
    "diagram.canonical_code.calls": "count",
    "diagram.canonical_code.self_s": "s",
    "diagram.canonical_code.distinct_ratio": "ratio",
    "poly.homfly.calls": "count",
    "poly.homfly.self_s": "s",
    "poly.expansions": "count",
    "poly.hit_ratio": "ratio",
    "solver.probes": "count",
    "solver.failed_probes": "count",
    "solver.exhausted_probes": "count",
    "solver.search_nodes": "count",
    "solver.memo_entries": "count",
    "solver.compute_td.self_s": "s",
    "solver.depth_at_most.self_s": "s",
    "bounds.aggregate_bounds.self_s": "s",
    "bounds.open_gap": "count",
    "moves.simplify.calls": "count",
    "moves.simplify.self_s": "s",
    "moves.resolve.calls": "count",
    "moves.resolve.self_s": "s",
    "moves.recognize_unlink.calls": "count",
    "moves.recognize_unlink.self_s": "s",
    "moves.recognize_unlink.bfs_runs": "count",
    "moves.verdict.unknown": "count",
    "solver.verify_tree.self_s": "s",
    "solver.witness_nodes": "count",
    "cli.cache_load_s": "s",
    "cli.cache_save_s": "s",
    "cli.cache_bytes": "bytes",
    "cli.cache_entries_loaded": "count",
    "trace.overhead_ratio": "ratio",
}


def run_worker(workload: str, seed: int, pass_index: int, trace: int, timeout: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--pass", str(pass_index),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker pass {pass_index} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics, weighted by how much of a
    Beta(q(n+1), (1-q)(n+1)) density falls on each rank's slot
    ((i-1)/n, i/n]; the weights are integrated with Simpson's rule.  Each
    weight is nonnegative, so raising any value never lowers the estimate.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 8  # even, for Simpson's rule
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density((i * steps + j) * h) for j in range(steps + 1)]
        weights.append(ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2]))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes: list[dict]) -> tuple[dict, int, int, list[str]]:
    """Latency percentiles are Harrell-Davis estimates over per-link medians.

    Each link is solved once per pass.  Its latency is the median of its
    solve times in the run, failures ranked last; p50 and p90 are taken
    over links.  A solve's time moves by about 20% from pass to pass even
    at the same host speed, and on known-table the p50 falls between
    links of about 8 and 14 ms, so percentiles over all pooled solves
    moved with that noise.  Over 36 recorded known-table passes taken as
    runs of six, the spread of p50 was 0.06 over pooled solves and 0.02
    over per-link medians, and of p90 0.08 and 0.05.  links_per_s is
    the run's successful solves over its summed pass time.
    """
    samples = [s for p in passes for s in p["samples"]]
    per_link: dict[str, list[float]] = {}
    for name, ms, status in samples:
        per_link.setdefault(name, []).append(ms + FAIL_RANK_MS if status in FAILED else ms)
    latency = [statistics.median(v) for v in per_link.values()]
    failed = sum(1 for s in samples if s[2] in FAILED)
    metrics = {
        "solve_ms.p50": hd_quantile(latency, 0.5),
        "solve_ms.p90": hd_quantile(latency, 0.9),
        "links_per_s": (len(samples) - failed) / sum(p["pass_s"] for p in passes),
        "exact_share": sum(1 for s in samples if s[2] == "exact") / len(samples),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    errors = [e for p in passes for e in p["errors"]]
    return metrics, len(samples), failed, errors


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    layers = {
        name: statistics.fmean(p["layers"].get(name, 0) for p in traced) for name in LAYER_UNITS
    }
    layers["trace.overhead_ratio"] = sum(p["pass_s"] for p in traced) / sum(p["pass_s"] for p in plain)
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skeindepth", "__init__.py")):
        print(f"error: no skeindepth sources under {root}/src; run from the repository root", file=sys.stderr)
        return 2

    start = time.monotonic()
    plain, traced = [], []
    pass_index = 0
    try:
        while True:
            elapsed = time.monotonic() - start
            done = elapsed >= args.seconds and pass_index % 2 == 0 and (
                args.trace or pass_index >= MIN_PASSES
            )
            longest = max((p["wall_s"] for p in plain + traced), default=0.0)
            if done or (pass_index and elapsed + 2 * longest > RUN_BUDGET_S):
                break
            kinds = (0, 1) if args.trace else (0,)
            for kind in kinds:
                t0 = time.monotonic()
                out = run_worker(args.workload, args.seed, pass_index, kind, 175 - (t0 - start))
                out["wall_s"] = time.monotonic() - t0
                (traced if kind else plain).append(out)
            pass_index += 1
    finally:
        try:  # each worker removes its own files; other runs may share the directory
            os.rmdir(os.path.join(root, workloads.WORK_DIR))
        except OSError:
            pass

    metrics, attempted, failed, errors = end_to_end(plain)
    correct = not any(s[2] == "wrong" for p in plain + traced for s in p["samples"])
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}  "
          f"solves {attempted}  failed {failed}  failed_share {failed / attempted:.4f}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<14} {metrics[name]:12.4f} {unit}")
    factors = sorted(p["speed_factor"] for p in plain)
    print(f"  host speed factor median {statistics.median(factors):.3f} "
          f"(min {factors[0]:.3f}, max {factors[-1]:.3f}); unscaled: "
          f"links_per_s {(attempted - failed) / sum(p['raw_pass_s'] for p in plain):.4f} 1/s, "
          f"setup_s {statistics.median(p['raw_setup_s'] for p in plain):.4f} s")
    for e in errors[:10]:
        print(f"  failed: {e}")
    if len(errors) > 10:
        print(f"  ... {len(errors) - 10} more failures")
    if args.trace:
        report = per_layer(traced, plain)
        units = LAYER_UNITS
        print(f"per-layer values are means per traced pass; {ATTRIBUTION_NOTE}")
        for name, unit in units.items():
            print(f"  {name:<40} {report[name]:14.6f} {unit}")
    else:
        report, units = metrics, END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": report[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
