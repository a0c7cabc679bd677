"""One benchmark run in a fresh process (started by ``run.py``).

Starts a Ray session with 2 logical CPUs, runs the workload, runs the
correctness gate, writes the result JSON to ``--result`` and stops Ray.
The current stage is kept in ``--stage-file`` so that a run killed at its
deadline names the stage it hung in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import fixtures  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.trace import Tracer, mean  # noqa: E402

# At 1 logical CPU the build's hash-shuffle stages never finish (a known
# defect of the program, left unfixed here); 2 is the smallest count at
# which every workload completes.
RAY_CPUS = 2
WALK_SECONDS = 1.5  # traced runs: loop length for the stages the workload does not stress
WORKLOADS = ("ingest", "serve_hot")
# The traced run also walks the term-sharded (serve_cold) and doc-sharded
# (serve_fanout) fronts, so their layers are measured although they are
# no workloads of their own: their run-to-run spread on a shared host was
# too wide for the 0.25 bound.
WALK = (*WORKLOADS, "serve_cold", "serve_fanout")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "rss_mb": "MB",
    "exact_frac": "frac",
    "bytes_per_posting": "B/posting",
}

PER_LAYER = {
    "builder.head_scan_s": "s",
    "builder.tokenize_spill_s": "s",
    "builder.vocab_sidecar_s": "s",
    "builder.encode_s": "s",
    "builder.unattributed_s": "s",
    "merge.wall_s": "s",
    "merge.bytes_written": "B",
    "segment.postings": "count",
    "segment.dict_bytes": "B",
    "segment.vocab_bytes": "B",
    "segment.docmeta_bytes": "B",
    "segment.head_terms": "count",
    "parser.parse_ms": "ms",
    "engine.plan_ms": "ms",
    "engine.match_ms": "ms",
    "engine.score_ms": "ms",
    "engine.postings_rows_per_req": "count",
    "engine.postings_hit_frac": "frac",
    "engine.matches_per_req": "count",
    "wand.topk_or_ms": "ms",
    "sharded.open_s": "s",
    "sharded.prefetch_ms": "ms",
    "sharded.rpcs_per_req": "count",
    "sharded.front_hit_frac": "frac",
    "docsharded.open_s": "s",
    "docsharded.rpcs_per_req": "count",
    "docsharded.search_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.spans": "count",
}

BUILD_STAGES = ("head_scan", "tokenize_spill", "vocab_sidecar", "encode")


def start_ray(ray_dir: str):
    import ray
    from ray.data import DataContext

    # workers import bitfunnel_ray and perfbench from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (fixtures.repo_root(), os.environ.get("PYTHONPATH")) if p
    )
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        _temp_dir=ray_dir,
    )
    DataContext.get_current().enable_progress_bars = False
    return ray


def end_to_end(m: wl.Measured) -> dict:
    return {
        "setup_s": statistics.median(m.setup_s),
        "throughput_per_s": m.items_per_s,
        "p50_ms": m.p50_ms,
        "p90_ms": m.p90_ms,
        "rss_mb": m.rss_mb,
        "exact_frac": m.gate.exact_frac,
        "bytes_per_posting": m.extra["bytes_per_posting"],
    }


def _query_layers(reqs: "list[dict]") -> dict:
    calls = sum(r["counts"].get("postings_calls", 0) for r in reqs)
    hits = sum(r["counts"].get("postings_hit", 0) for r in reqs)
    boolean = [r for r in reqs if r["counts"].get("match", 0)]
    return {
        "parser.parse_ms": mean(r["self_ms"]["parse"] for r in boolean),
        "engine.plan_ms": mean(r["self_ms"]["postings"] + r["self_ms"]["prefetch"] for r in reqs),
        "engine.match_ms": mean(r["self_ms"]["match"] for r in boolean),
        "engine.score_ms": mean(r["self_ms"]["score"] for r in boolean),
        "engine.postings_rows_per_req": mean(r["counts"]["postings_rows"] for r in reqs),
        "engine.postings_hit_frac": hits / calls if calls else 0.0,
        "engine.matches_per_req": mean(r["counts"]["matches"] for r in boolean),
    }


def traced(ctx: wl.Ctx) -> "tuple[dict, wl.Measured]":
    """Walk every layer with spans on.  The named workload gets its full
    loop (untraced half, then traced half); the other stages run short
    traced loops so every per-layer metric is measured in every run."""
    out: dict = {}
    main = None
    tracers = {}
    for stage in WALK:
        is_main = stage == ctx.workload
        tr = tracers[stage] = Tracer()
        sub = wl.Ctx(**{**ctx.__dict__, "seconds": ctx.seconds if is_main else WALK_SECONDS})
        if stage == "ingest":
            m = wl.ingest(sub, tr, untraced_first=is_main, check=is_main, warm_up=is_main)
            mans, secs = m.extra["manifests"], m.extra["build_s"]
            for st in BUILD_STAGES:
                out[f"builder.{st}_s"] = sum(float(x["stage_seconds"].get(st, 0.0)) for x in mans)
            out["builder.unattributed_s"] = sum(secs) - sum(out[f"builder.{st}_s"] for st in BUILD_STAGES)
            out["merge.wall_s"] = m.extra["merge_s"]
            out["merge.bytes_written"] = m.extra["merge_bytes"]
            for k in ("postings", "dict_bytes", "vocab_bytes", "docmeta_bytes", "head_terms"):
                out[f"segment.{k}"] = m.extra["sizes"][k]
        else:
            m = wl.serve(sub, stage, tr, untraced_first=is_main, check=is_main,
                         setup_reps=1)
            reqs = tr.requests()
            if stage == "serve_cold":
                calls = sum(r["counts"].get("postings_calls", 0) for r in reqs)
                prefetches = sum(r["counts"].get("prefetch", 0) for r in reqs)
                out["sharded.open_s"] = statistics.median(m.open_s)
                out["sharded.prefetch_ms"] = mean(r["self_ms"]["prefetch"] for r in reqs)
                out["sharded.rpcs_per_req"] = mean(r["counts"]["rpcs"] for r in reqs)
                out["sharded.front_hit_frac"] = 1.0 - prefetches / calls if calls else 0.0
            if stage == "serve_fanout":
                out["docsharded.open_s"] = statistics.median(m.open_s)
                out["docsharded.rpcs_per_req"] = mean(r["counts"]["rpcs"] for r in reqs)
                out["docsharded.search_ms"] = mean(r["self_ms"]["docsharded.search"] for r in reqs)
            if stage == "serve_hot":  # the query-engine layers
                out.update(_query_layers(tr.requests("q")))
                out["wand.topk_or_ms"] = mean(r["self_ms"]["wand"] for r in tr.requests("or"))
        if is_main:
            main = m
    mt = tracers[ctx.workload]
    reqs = mt.requests()
    out["trace.overhead_ms"] = statistics.median(main.latency_ms) - statistics.median(main.untraced_ms)
    out["trace.unattributed_ms"] = mean(r["unattributed_ms"] for r in reqs)
    out["trace.spans"] = sum(len(t.spans) for t in tracers.values())
    trace_dir = os.path.join(fixtures.work_dir(), "trace")
    os.makedirs(trace_dir, exist_ok=True)
    mt.write(os.path.join(trace_dir, f"{ctx.workload}-seed{ctx.seed}.jsonl"))
    return out, main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=fixtures.N_DOCS)
    ap.add_argument("--ray-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--stage-file", required=True)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()

    def stage(name: str) -> None:
        with open(args.stage_file, "w") as f:
            f.write(name)
        print(f"[perfbench {time.perf_counter() - t_start:7.2f}s] {name}", file=sys.stderr, flush=True)

    run_dir = os.path.join(fixtures.work_dir(), f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    ctx = wl.Ctx(args.workload, args.seed, args.seconds, args.docs, run_dir, args.ray_dir, stage)
    stage("ray start")
    ray = start_ray(args.ray_dir)
    try:
        if args.trace:
            metrics, m = traced(ctx)
            units = PER_LAYER
        else:
            m = (wl.ingest(ctx) if args.workload == "ingest" else wl.serve(ctx, args.workload))
            metrics = end_to_end(m)
            units = END_TO_END
    finally:
        stage("ray stop")
        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)
    if "factors" in m.extra:
        print(f"[perfbench] host speed factor: median {statistics.median(m.extra['factors']):.4f} over "
              f"{len(m.extra['factors'])} samples (reported time = raw time x factor)", file=sys.stderr)
    for f in m.gate.failures:
        print(f"[perfbench] GATE FAILURE: {f}", file=sys.stderr)
    result = {
        "correct": not m.gate.failures and m.failed == 0,
        "attempted": int(m.attempted),
        "failed": int(m.failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    with open(args.result, "w") as f:
        json.dump(result, f)
    stage("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
