"""One benchmark pass in a fresh process; prints one JSON line.

Run by run.py from the repository root:

    python3 perfbench/worker.py --workload NAME --seed N --pass I --trace 0|1

Set-up (timed as ``setup_s``): import skeindepth from ./src, write the
inputs as a dataset file and load it through ``cli.load_dataset``, and
for warm-extend solve the cold half and persist it.  The
timed pass then creates one SolveContext, loads the cache where the
workload uses one, solves every link with an explicit context, and saves
the cache.  Checks and witness replay follow the timed region.

Every timing (set-up, pass, each solve, each span) leaves out the time
of the host-speed reference loop run between solves, and is scaled to
the reference speed (speed.py): each solve by the speed measured nearest
to it, the others by the speed over the whole pass.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import PATCHES, SETUP_PATCHES, Tracer  # noqa: E402


def _import_skeindepth(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import skeindepth
    import skeindepth.cli

    if os.path.dirname(os.path.abspath(skeindepth.__file__)) != os.path.join(src, "skeindepth"):
        raise ImportError(f"skeindepth imported from {skeindepth.__file__}, not {src}")
    return skeindepth


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _inputs(sd, links, path, timed):
    """Write the links as a dataset file and load it as ``tabulate`` does.

    The file carries names, PD codes, genus and braid words; the expected
    values stay with the benchmark.  Rows without a PD code become the
    closure of their first word inside ``cli.load_dataset``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for link in links:
            genus = "" if link.genus is None else str(link.genus)
            words = ";".join(workloads.word_text(w) for w in link.words)
            fh.write(f"{link.name}\t{link.pd or ''}\t{genus}\t{words}\n")
    rows = timed("cli.load_dataset", sd.cli.load_dataset, path)
    return [(row.pd, row.genus, row.braid_words) for row in rows]


def _solve_all(sd, items, ctx, timed, meter):
    """[(result or None, error text or None, start, seconds)] for each item.

    The meter's reference loop runs after each solve, outside its time.
    """
    out = []
    for d, genus, words in items:
        t0 = time.perf_counter()
        try:
            res = timed(
                "solver.compute_td",
                sd.compute_td,
                d,
                genus=genus,
                braid_words=words,
                # fixed, with no deadline, so answers repeat
                budget=sd.DEFAULT_BUDGET,
                ctx=ctx,
            )
            err = None
        except Exception as e:  # a failed solve is recorded; the pass goes on
            res, err = None, f"{type(e).__name__}: {e}"
        secs = time.perf_counter() - t0
        meter.after(secs)
        out.append((res, err, t0, secs))
    return out


def run_pass(workload: str, seed: int, pass_index: int, trace: bool, root: str) -> dict:
    sd = _import_skeindepth(root)
    tracer = Tracer() if trace else None
    meter = SpeedMeter()
    timed = tracer.call if tracer else _untraced
    work = os.path.join(root, workloads.WORK_DIR)
    os.makedirs(work, exist_ok=True)
    inputs_path = os.path.join(work, f"inputs-{os.getpid()}.tsv")
    cache_path = os.path.join(work, f"cache-{os.getpid()}.tsv") if workload == "warm-extend" else None
    try:
        if tracer:
            tracer.install(sd, SETUP_PATCHES)
        links = workloads.links_for(workload, seed, pass_index, root)
        items = _inputs(sd, links, inputs_path, timed)
        if cache_path:
            _cold_pass(sd, [items[i] for i in workloads.cold_half(links)], cache_path, meter)
        setup_s = time.perf_counter() - T_START - meter.seconds
        return _timed_pass(sd, links, items, cache_path, tracer, timed, setup_s, meter)
    finally:
        if tracer:
            tracer.restore()
        for path in (inputs_path, cache_path):
            if path and os.path.exists(path):
                os.remove(path)


def _cold_pass(sd, items, cache_path, meter) -> None:
    """Solve ``items`` into a fresh cache file.

    Its context and cache are local, so they are freed before the timed
    pass and do not add to that pass's memory.
    """
    ctx = sd.SolveContext()
    store = sd.cli.ResultCache(cache_path)
    store.load_into(ctx)
    for _, err, _, _ in _solve_all(sd, items, ctx, _untraced, meter):
        if err is not None:
            raise RuntimeError(f"cold set-up solve failed: {err}")
    store.save_from(ctx)


def _timed_pass(sd, links, items, cache_path, tracer, timed, setup_s, meter) -> dict:
    layers = {}
    if tracer:
        layers.update(_span_metrics(tracer, ("braid.braid_closure", "cli.load_dataset")))
        tracer.spans.clear()
        tracer.install(sd, PATCHES)
    ref0 = meter.seconds
    t0 = time.perf_counter()
    ctx = sd.SolveContext()
    store = None
    if cache_path:
        store = sd.cli.ResultCache(cache_path)
        timed("cli.cache_load", store.load_into, ctx)
    solved = _solve_all(sd, items, ctx, timed, meter)
    if store:
        timed("cli.cache_save", store.save_from, ctx)
    pass_s = time.perf_counter() - t0 - (meter.seconds - ref0)
    scale = meter.factor()
    # before the replay, which fills poly's module-global cache
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if sd.solver._shared_context is not None:
        raise RuntimeError("a solve fell back to solver._shared_context")

    if tracer:
        layers.update(_solve_metrics(tracer, ctx, store, cache_path, solved))
        tracer.spans.clear()
        # unpatched, so the replay's span holds all of its time
        tracer.restore()
    # replay after timing: verify_tree fills poly's module-global cache
    replay = (lambda t: tracer.call("solver.verify_tree", sd.verify_tree, t)) if tracer else None
    samples, errors, nodes = [], [], 0
    for link, (d, _, _), (res, err, start, secs) in zip(links, items, solved):
        if err is None:
            try:
                bad = check.check(link, d, res, sd, replay)
            except Exception as e:  # the checker itself tripped on this answer
                bad = [f"check raised {type(e).__name__}: {e}"]
            if res.witness is not None:
                nodes += check.witness_nodes(res.witness, sd)
            err = "; ".join(bad) or None
            status = "wrong" if bad else ("exact" if res.is_exact else "interval")
        else:
            status = "error"
        if err is not None:
            errors.append(f"{link.name}: {err}")
        samples.append([link.name, secs * meter.local_factor(start + secs / 2) * 1000.0, status])
    if tracer:
        layers.update(_span_metrics(tracer, ("solver.verify_tree",)))
        layers["solver.witness_nodes"] = nodes
        # every per-layer time is in seconds and named *_s
        layers = {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}
    return {
        "setup_s": setup_s * scale,
        "pass_s": pass_s * scale,
        "speed_factor": scale,
        "raw_pass_s": pass_s,
        "raw_setup_s": setup_s,
        "samples": samples,
        "errors": errors,
        "rss_mb": rss_mb,
        "layers": layers,
    }


def _span_metrics(tracer: Tracer, names) -> dict:
    spans = tracer.summary()
    return {f"{n}.self_s": spans.get(n, {}).get("self_s", 0.0) for n in names}


def _solve_metrics(tracer, ctx, store, cache_path, solved) -> dict:
    spans = tracer.summary()

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    cache = ctx.homfly_cache
    probes = tracer.probe_results
    code_calls = span("diagram.canonical_code", "calls")
    return {
        "diagram.canonical_code.calls": code_calls,
        "diagram.canonical_code.self_s": span("diagram.canonical_code", "self_s"),
        "diagram.canonical_code.distinct_ratio": len(tracer.codes) / code_calls if code_calls else 0.0,
        "poly.homfly.calls": span("poly.homfly", "calls"),
        "poly.homfly.self_s": span("poly.homfly", "self_s"),
        "poly.expansions": cache.computed,
        "poly.hit_ratio": cache.hits / (cache.hits + cache.computed) if cache.hits + cache.computed else 0.0,
        "solver.probes": len(probes),
        "solver.failed_probes": sum(1 for p in probes if p is False),
        "solver.exhausted_probes": sum(1 for p in probes if p is None),
        "solver.search_nodes": ctx.nodes,
        "solver.memo_entries": len(ctx.memo),
        "solver.compute_td.self_s": span("solver.compute_td", "self_s"),
        "solver.depth_at_most.self_s": span("solver.depth_at_most", "self_s"),
        "bounds.aggregate_bounds.self_s": span("bounds.aggregate_bounds", "self_s"),
        "bounds.open_gap": sum(
            1 for res, _, _, _ in solved if res is not None and res.bounds and res.bounds.lower < res.bounds.upper
        ),
        "moves.simplify.calls": span("moves.simplify", "calls"),
        "moves.simplify.self_s": span("moves.simplify", "self_s"),
        "moves.resolve.calls": span("moves.resolve", "calls"),
        "moves.resolve.self_s": span("moves.resolve", "self_s"),
        "moves.recognize_unlink.calls": span("moves.recognize_unlink", "calls"),
        "moves.recognize_unlink.self_s": span("moves.recognize_unlink", "self_s"),
        "moves.recognize_unlink.bfs_runs": tracer.bfs_runs,
        "moves.verdict.unknown": sum(1 for v in ctx.verdicts.values() if v.is_unknown),
        "cli.cache_load_s": span("cli.cache_load", "self_s"),
        "cli.cache_save_s": span("cli.cache_save", "self_s"),
        "cli.cache_bytes": os.path.getsize(cache_path) if cache_path and os.path.exists(cache_path) else 0,
        "cli.cache_entries_loaded": len(store.loaded) if store else 0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = run_pass(args.workload, args.seed, args.pass_index, bool(args.trace), os.getcwd())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
