"""The workloads, and the doc-sharded walk of the traced run.

Each workload function measures one closed loop (one driver thread, one
request outstanding) for ``ctx.seconds`` and returns a ``Measured``.  The
same functions run the traced walk: with a ``Tracer`` they record spans
around every call into a layer, and with ``untraced_first`` they measure
an untraced half first so the traced half's overhead shows.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from perfbench import fixtures, gate as gatelib
from perfbench.procs import PeakRss, pin_session, wait_quiet
from perfbench.speed import Clock
from perfbench.trace import Tracer, instrument_actor_calls, instrument_query_engine

SETUP_REPS = 3  # serve_*: fronts opened per run; setup_s is their median
INGEST_STAGINGS = 3  # ingest set-up (input staging) runs per repetition
INGEST_REPS = 3  # ingest repetitions per run; the metrics come from the fastest
GATE_QUERIES = 24
GATE_WIDE = 3
N_SHARDS = 4
SHARD_CPUS = 0.25  # 4 term shards (or 2 doc shards) fit in 2 logical CPUs
# Serving runs with the whole Ray session on one CPU.  Spread over the
# vCPUs of a shared host, each request's cross-CPU wake-ups cost what the
# host happens to charge, and runs of the same code differ by 25%.  The
# build uses every CPU: on one it takes more than twice as long.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
SERVE_CPUS = frozenset({max(ALL_CPUS)})
WARMUP_REQUESTS = 2_000
HOT_LOG = 4_000
COLD_LOG = 8_000
WINDOW_S = 1.0  # serving loop: a host speed sample after each window


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    n_docs: int
    run_dir: str  # scratch space of this run, under .perfbench
    ray_dir: str
    stage: "callable" = print


@dataclass
class Measured:
    setup_s: list = field(default_factory=list)
    open_s: list = field(default_factory=list)
    latency_ms: list = field(default_factory=list)  # successful operations
    untraced_ms: list = field(default_factory=list)  # untraced half (trace mode)
    window_rates: list = field(default_factory=list)  # serving: requests/s per window
    attempted: int = 0
    failed: int = 0
    items_per_s: float = 0.0
    p50_ms: float = 0.0
    p90_ms: float = 0.0
    rss_mb: float = 0.0
    gate: "gatelib.Gate | None" = None
    extra: dict = field(default_factory=dict)


def percentile(xs, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def _closed_loop(m: Measured, seconds: float, requests, call, clock: Clock, tracer=None, kind=None,
                 trace_rows=None):
    """Issue ``call(req)`` back to back, one request outstanding, for
    ``seconds`` of loop time (or until the requests run out), and return
    the latencies of the successful requests in reference ms.

    The loop runs in WINDOW_S windows with a host speed sample after each
    (see ``speed``); a window's latencies are scaled by the host speed
    around it.  Each whole window's rate goes to ``m.window_rates``: the
    run's throughput is their median, so a burst of contention that the
    samples miss moves it by one window at most."""
    out: list = []
    trail = []  # (raw requests/s, speed factor) per window
    t_end = time.perf_counter() + seconds
    it = iter(requests)
    clock.resync()
    while time.perf_counter() < t_end:
        lat: list = []
        w_start = time.perf_counter()
        for req in it:
            m.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    call(req)
                else:
                    with tracer.request(kind(req)):
                        before = trace_rows() if trace_rows else 0
                        call(req)
                        if trace_rows:
                            tracer.count("postings_rows", trace_rows() - before)
            except Exception:  # a failed request counts against the run, loop goes on
                m.failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                lat.append((time.perf_counter() - t0) * 1e3)
            now = time.perf_counter()
            if now - w_start >= WINDOW_S or now >= t_end:
                break
        else:
            t_end = 0.0  # requests ran out: this is the last window
        dur = time.perf_counter() - w_start
        f = clock.factor()
        out.extend(x * f for x in lat)
        if dur >= WINDOW_S or not m.window_rates:  # whole windows, or the only one
            m.window_rates.append(len(lat) / (dur * f))
        trail.append((round(len(lat) / dur), round(f, 3)))
    print(f"[perfbench] loop: raw requests/s and host speed factor per window {trail}", file=sys.stderr)
    return out


# --- ingest ------------------------------------------------------------------
def _dir_bytes(d: str, pattern: str = "") -> int:
    total = 0
    for base, _dirs, files in os.walk(d):
        for f in files:
            if pattern in os.path.relpath(os.path.join(base, f), d):
                total += os.path.getsize(os.path.join(base, f))
    return total


def segment_sizes(seg_dirs: "list[str]") -> dict:
    import glob

    import pyarrow.parquet as pq

    from bitfunnel_ray.build.segment import load_manifest

    postings = 0
    for d in seg_dirs:
        for f in glob.glob(os.path.join(d, "dict-*.parquet")):
            postings += int(pq.read_table(f, columns=["n_postings"])["n_postings"].to_numpy().sum())
    return {
        "postings": postings,
        "bytes": sum(_dir_bytes(d) for d in seg_dirs),
        "dict_bytes": sum(_dir_bytes(d, "dict-") for d in seg_dirs),
        "vocab_bytes": sum(_dir_bytes(os.path.join(d, "vocab")) for d in seg_dirs),
        "docmeta_bytes": sum(_dir_bytes(os.path.join(d, "docmeta")) for d in seg_dirs),
        "head_terms": sum(int(load_manifest(d).get("n_head_terms", 0)) for d in seg_dirs),
    }


def _ingest_rep(ctx: Ctx, rep: int, m: Measured, tracer: "Tracer | None") -> dict:
    """One repetition: stage the inputs (set-up), build both segments,
    merge them.  With a tracer the build and merge calls are spans of one
    request."""
    from bitfunnel_ray.build import builder as builder_mod
    from bitfunnel_ray.build import merge as merge_mod

    root = os.path.join(ctx.run_dir, f"ingest-{rep}")
    wait_quiet(ctx.ray_dir)
    ctx.stage(f"ingest rep {rep}: stage inputs")
    for _ in range(INGEST_STAGINGS):
        t0 = time.perf_counter()
        inputs = fixtures.stage_segment_inputs(ctx.n_docs, os.path.join(root, "inputs"))
        m.setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.wrap(builder_mod, "build_index", "build_index")
        tracer.wrap(merge_mod, "merge_segments", "merge_segments")
    try:
        with tracer.request("ingest") if tracer is not None else contextlib.nullcontext():
            ctx.stage(f"ingest rep {rep}: build")
            m.attempted += len(inputs) + 1
            seg_dirs, manifests, secs = fixtures.build_segments(
                inputs, root, on_build=lambda i, _s: ctx.stage(f"ingest rep {rep}: built segment {i}")
            )
            ctx.stage(f"ingest rep {rep}: merge")
            merged = os.path.join(root, "merged")
            t2 = time.perf_counter()
            merge_mod.merge_segments(seg_dirs, merged)
            merge_s = time.perf_counter() - t2
    finally:
        if tracer is not None:
            tracer.restore()
    return {
        "wall": sum(secs) + merge_s, "build_ms": [x * 1e3 for x in secs],
        "seg_dirs": seg_dirs, "manifests": manifests, "build_s": secs,
        "merged": merged, "merge_s": merge_s,
    }


def ingest(ctx: Ctx, tracer: "Tracer | None" = None, untraced_first=False, check=True,
           warm_up=True) -> Measured:
    """Write path.  After an untimed warm-up build, INGEST_REPS
    repetitions of: stage the corpus as two segment inputs (set-up), build
    both segments (salting + vocab sidecar), compact them with
    ``merge_segments``.  One operation is one segment build.  The metrics
    come from the fastest repetition by build + merge time: contention on
    the shared host only ever slows a repetition down.  The builds run on
    every CPU, in Ray workers, so their times are raw: a host speed sample
    in this process does not track them.
    With a tracer: one untraced repetition (if ``untraced_first``), then
    one traced.  ``warm_up=False`` (the traced walk of the serving
    workloads) skips the warm-up build."""
    import ray.data as rd

    from bitfunnel_ray.build import builder as builder_mod

    m = Measured()
    pin_session(ctx.ray_dir, ALL_CPUS)
    ctx.stage("ingest: corpus")
    fixtures.corpus_files(ctx.n_docs)
    if warm_up:  # the first build of a session also pays worker start-up and imports
        ctx.stage("ingest: warm-up build")
        warm = os.path.join(ctx.run_dir, "warm-up")
        first = fixtures.stage_segment_inputs(ctx.n_docs, os.path.join(warm, "inputs"))[0]
        builder_mod.build_index(
            rd.read_parquet(os.path.join(first, sorted(os.listdir(first))[0])),
            os.path.join(warm, "seg"), fixtures.engine_config(),
        )
        shutil.rmtree(warm, ignore_errors=True)

    with PeakRss(ctx.ray_dir) as rss:
        if tracer is not None:
            if untraced_first:
                m.untraced_ms = _ingest_rep(ctx, 0, m, None)["build_ms"]
            reps = [_ingest_rep(ctx, 1, m, tracer)]
        else:
            reps = [_ingest_rep(ctx, i, m, None) for i in range(INGEST_REPS)]
    m.rss_mb = rss.peak
    best = min(reps, key=lambda r: r["wall"])
    m.latency_ms = best["build_ms"]
    m.p50_ms = statistics.median(m.latency_ms)
    m.p90_ms = percentile(m.latency_ms, 90)
    m.items_per_s = ctx.n_docs / best["wall"]
    last = reps[-1]
    sizes = segment_sizes(last["seg_dirs"])
    m.extra.update(
        last, merge_bytes=_dir_bytes(last["merged"]), sizes=sizes,
        bytes_per_posting=sizes["bytes"] / sizes["postings"],
    )
    if check:
        m.gate = ingest_gate(ctx, last["seg_dirs"], last["merged"])
    return m


def ingest_gate(ctx: Ctx, seg_dirs: "list[str]", merged: str) -> "gatelib.Gate":
    from bitfunnel_ray.build.fsck import fsck_index
    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.query.parser import parse_query

    ctx.stage("ingest: correctness gate")
    g = gatelib.Gate()
    ref = SearchEngine(seg_dirs)
    comp = SearchEngine([merged])
    corpus = fixtures.load_corpus(ctx.n_docs)
    terms = fixtures.terms_by_df(seg_dirs)
    qs = gatelib.sample(fixtures.query_log(terms[: fixtures.HOT_TERMS], HOT_LOG, ctx.seed), GATE_QUERIES // 2, ctx.seed)
    qs += gatelib.sample(fixtures.query_log(terms, COLD_LOG, ctx.seed), GATE_QUERIES // 2, ctx.seed)
    for name, eng in (("segments", ref), ("compacted", comp)):
        gatelib.check_queries(
            g, name, lambda q, e=eng: e.search(q, k=gatelib.K), ref, corpus, qs,
            match_sets=lambda q, e=eng: e.eval(parse_query(q)),
        )
        gatelib.check_phrase(g, name, eng.match_count, ctx.n_docs)
    gatelib.check_wide(g, "compacted", comp, ref, fixtures.wide_or_sets(terms, GATE_WIDE, ctx.seed))
    ctx.stage("ingest: fsck")
    gatelib.check_fsck(g, fixtures.fsck_clean(fsck_index([merged])))
    gatelib.check_fsck(g, gatelib.audit_sample(seg_dirs, ctx.seed))
    return g


# --- serving -----------------------------------------------------------------
class Front:
    """One serving front.  ``engine`` is set where the front runs
    ``QueryAlgebra`` in this process (local engine, term-sharded front)."""

    def __init__(self, which: str, seg_dirs: "list[str]"):
        self.server = None
        if which == "serve_hot":
            from bitfunnel_ray.query.engine import SearchEngine

            self.engine = SearchEngine(seg_dirs)
        elif which == "serve_cold":
            from bitfunnel_ray.query.sharded import ShardedServer

            self.server = ShardedServer(seg_dirs, n_shards=N_SHARDS, num_cpus_per_shard=SHARD_CPUS)
            self.engine = self.server.engine()
        else:
            from bitfunnel_ray.query.docsharded import DocShardedServer

            self.server = DocShardedServer(seg_dirs, n_shards=N_SHARDS, num_cpus_per_shard=SHARD_CPUS)
            self.engine = None

    def _target(self):
        return self.engine if self.engine is not None else self.server

    def search(self, q: str, k: int):
        return self._target().search(q, k=k)

    def match_count(self, q: str) -> int:
        return self._target().match_count(q)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None


def serve(ctx: Ctx, which: str, tracer: "Tracer | None" = None, untraced_first=False,
          check=True, setup_reps=SETUP_REPS) -> Measured:
    m = Measured()
    ctx.stage(f"{which}: serving index")
    pin_session(ctx.ray_dir, ALL_CPUS)  # a first run builds the index
    seg_dirs = fixtures.ensure_serving_index(ctx.n_docs)
    pin_session(ctx.ray_dir, SERVE_CPUS)
    terms = fixtures.terms_by_df(seg_dirs)
    hot = which == "serve_hot"
    log = fixtures.query_log(terms[: fixtures.HOT_TERMS] if hot else terms, HOT_LOG if hot else COLD_LOG, ctx.seed)
    wide = fixtures.wide_or_sets(terms, 100, ctx.seed) if hot else []
    if hot:
        # every WIDE_EVERY-th request is a ranked 16-term disjunction
        requests = [
            ("or", wide[(i // fixtures.WIDE_EVERY) % len(wide)])
            if i % fixtures.WIDE_EVERY == fixtures.WIDE_EVERY - 1
            else ("q", log[i % len(log)])
            for i in range(200_000)
        ]
    else:
        requests = [("q", q) for q in log]  # each request once: caches stay cold

    front = None
    clock = Clock()
    try:
        for r in range(setup_reps):
            if front is not None:
                front.close()
            ctx.stage(f"{which}: open front {r}")
            t0 = time.perf_counter()
            front = Front(which, seg_dirs)
            t1 = time.perf_counter()
            if hot:
                for q in log[:WARMUP_REQUESTS]:
                    front.search(q, k=gatelib.K)
                pool = sorted({t for s in wide for t in s})
                for i in range(0, len(pool), fixtures.WIDE_TERMS):
                    front.engine.topk_or(pool[i : i + fixtures.WIDE_TERMS], k=gatelib.K)
            t2 = time.perf_counter()
            f = clock.factor()
            m.open_s.append((t1 - t0) * f)
            m.setup_s.append((t2 - t0) * f)

        def call(req):
            kind, arg = req
            if kind == "or":
                front.engine.topk_or(arg, k=gatelib.K)
            else:
                front.search(arg, k=gatelib.K)

        ctx.stage(f"{which}: wait for a quiet session")
        wait_quiet(ctx.ray_dir)
        ctx.stage(f"{which}: measure")
        it = iter(requests)
        with PeakRss(ctx.ray_dir) as rss:
            if tracer is None:
                m.latency_ms = _closed_loop(m, ctx.seconds, it, call, clock)
            else:
                if untraced_first:
                    m.untraced_ms = _closed_loop(m, ctx.seconds / 2, it, call, clock)
                _instrument(tracer, front)
                rows = (lambda: front.engine.stat_postings_rows) if front.engine is not None else None
                try:
                    m.latency_ms = _closed_loop(
                        m, ctx.seconds / 2 if untraced_first else ctx.seconds, it, call, clock,
                        tracer=tracer, kind=lambda req: req[0], trace_rows=rows,
                    )
                finally:
                    tracer.restore()
        m.rss_mb = rss.peak
        m.items_per_s = statistics.median(m.window_rates)
        m.p50_ms = statistics.median(m.latency_ms)
        m.p90_ms = percentile(m.latency_ms, 90)
        m.extra["factors"] = clock.factors
        if check:
            m.gate = serve_gate(ctx, front, seg_dirs, log, wide)
    finally:
        if front is not None:
            front.close()
    sizes = segment_sizes(seg_dirs)
    m.extra["bytes_per_posting"] = sizes["bytes"] / sizes["postings"]
    return m


def _instrument(tracer: Tracer, front: Front) -> None:
    instrument_actor_calls(tracer)
    if front.engine is not None:
        instrument_query_engine(tracer, front.engine)
    else:
        tracer.wrap(front.server, "search", "docsharded.search")
        tracer.wrap(front.server, "_stats_round", "docsharded.stats_round")


def serve_gate(ctx: Ctx, front: Front, seg_dirs, log, wide) -> "gatelib.Gate":
    """serve_hot's gate: the local engine, then a term-sharded and a
    doc-sharded front over the same segments, each against the exhaustive
    reference on the same sample, so the three fronts agree."""
    from bitfunnel_ray.query.parser import parse_query

    ctx.stage("serve_hot: correctness gate")
    g = gatelib.Gate()
    ref = front.engine
    corpus = fixtures.load_corpus(ctx.n_docs)
    qs = gatelib.sample(log, GATE_QUERIES, ctx.seed)
    gatelib.check_queries(
        g, "local", lambda q: ref.search(q, k=gatelib.K), ref, corpus, qs,
        match_sets=lambda q: ref.eval(parse_query(q)),
    )
    gatelib.check_phrase(g, "local", ref.match_count, ctx.n_docs)
    gatelib.check_wide(g, "local", ref, ref, gatelib.sample(wide, GATE_WIDE, ctx.seed))
    for which, name in (("serve_cold", "term-sharded"), ("serve_fanout", "doc-sharded")):
        ctx.stage(f"serve_hot: {name} front gate")
        other = Front(which, seg_dirs)
        try:
            gatelib.check_queries(g, name, lambda q: other.search(q, k=gatelib.K), ref, corpus, qs)
            gatelib.check_phrase(g, name, other.match_count, ctx.n_docs)
        finally:
            other.close()
    ctx.stage("serve_hot: fsck sample")
    gatelib.check_fsck(g, gatelib.audit_sample(seg_dirs, ctx.seed))
    return g
