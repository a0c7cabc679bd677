"""Actor-pool query serving — the QueryRunner analog (reference:
src/Plan/src/QueryRunner.cpp:282-401: N threads round-robin a query log,
each with its own engine over shared read-only index state).

Ray Data shape: queries are a Dataset; ``map_batches(QueryActor,
concurrency=N)`` gives N actors that each load the segment dictionaries
ONCE in ``__init__`` (the ConfigureForServing analog,
src/Index/src/SimpleIndex.cpp:219-270) and then stream query batches.
Per-query failures become error rows, not job failures (the reference
swallows per-query exceptions too, QueryRunner.cpp:263-267).

``map_query_log`` is the one query-log mapper of the three serving
fronts' ``run``: ``run_query_log`` (``QueryActor``, local engine),
``ShardedServer.run`` (``ShardedQueryActor``, the same actor over the
term-sharded engine, prefetching each batch's postings) and
``DocShardedServer.run`` (its batch front); all three return
``ResultRows`` tables.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import ray.data

from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.query.wand import top_k


_PHASES = ("parse_s", "plan_s", "match_s", "score_s")


class ResultRows:
    """The serving result table, built query by query: one row per ranked
    document, or one marker row (rank 0, doc 0, ``n_matches`` 0, or -1
    with an ``error``) for a query without results.  Every front's
    ``run`` returns this shape, and ``summarize`` reads it."""

    def __init__(self):
        self.cols = {c: [] for c in ("query_id", "rank", "doc_id", "score", "n_matches",
                                     "latency_s", "postings_rows", *_PHASES, "error")}

    def emit(self, qid, latency_s: float, *, docs=(), scores=None, n_matches: int = 0,
             err: str = "", postings_rows: int = 0, phases=(0.0, 0.0, 0.0, 0.0)) -> None:
        """One query's rows; ``phases`` are its (parse, plan, match, score)
        seconds."""
        c = self.cols
        n = len(docs)
        m = max(n, 1)
        c["query_id"].append(np.full(m, qid, dtype=np.uint32))
        if n == 0:
            # marker/error row (rank 0) so the query still appears
            c["rank"].append(np.zeros(1, dtype=np.uint32))
            c["doc_id"].append(np.zeros(1, dtype=np.uint64))
            c["score"].append(np.zeros(1))
            c["n_matches"].append(np.array([-1 if err else 0], dtype=np.int64))
        else:
            c["rank"].append(np.arange(1, n + 1, dtype=np.uint32))
            c["doc_id"].append(docs)
            c["score"].append(scores)
            c["n_matches"].append(np.full(n, n_matches, dtype=np.int64))
        c["latency_s"].append(np.full(m, latency_s, dtype=np.float64))
        c["postings_rows"].append(np.full(m, postings_rows, dtype=np.int64))
        for name, v in zip(_PHASES, phases):
            c[name].append(np.full(m, v, dtype=np.float64))
        c["error"].append([err] * m)

    def table(self) -> pa.Table:
        types = {"query_id": pa.uint32(), "rank": pa.uint32(), "doc_id": pa.uint64(),
                 "n_matches": pa.int64(), "postings_rows": pa.int64()}
        cols = {
            name: pa.array(np.concatenate(parts) if parts else [], types.get(name, pa.float64()))
            for name, parts in self.cols.items() if name != "error"
        }
        cols["error"] = pa.array([e for part in self.cols["error"] for e in part], pa.string())
        return pa.table(cols)


def eval_queries(engine, qids, nodes, parse_errs, k: int, parse_s=None) -> pa.Table:
    """Evaluate parsed query nodes against an engine (local or sharded) and
    emit the serving result table (``ResultRows``).  ``nodes[i] is None``
    means parse failure with message ``parse_errs[i]``.  Per-query
    failures become error rows, never job failures (the reference swallows
    per-query exceptions too, QueryRunner.cpp:263-267).

    Per-phase latency split — the QuerySummaryStatistics analog (reference:
    src/Plan/src/QueryRunner.cpp:67-92,353-378 separates parsing, planning
    and matching time per query):
      parse_s — text → AST (measured by the caller, passed in);
      plan_s  — resolving every (hash, gram) the query touches against
                storage (dict lookup + decode / shard-cache assembly);
      match_s — boolean set algebra over the resolved postings;
      score_s — BM25 accumulation + top-k selection.
    ``latency_s`` stays the independently-measured per-query wall time
    (parse excluded, as before); a pytest asserts plan+match+score ≈ it.
    """
    rows = ResultRows()
    if parse_s is None:
        parse_s = [0.0] * len(nodes)

    def rows_delta(base):
        return getattr(engine, "stat_postings_rows", 0) - base

    for qid, node, perr, pparse in zip(qids, nodes, parse_errs, parse_s):
        t0 = time.perf_counter()
        base = getattr(engine, "stat_postings_rows", 0)
        if node is None:
            rows.emit(qid, time.perf_counter() - t0, err=perr or "ParseError",
                      phases=(pparse, 0.0, 0.0, 0.0))
            continue
        try:
            # PLAN: resolve every term the evaluation will touch (decode /
            # cache-fill); the postings-rows counter snapshots AFTER this
            # so postings_rows keeps its historical "rows touched by
            # eval+score" meaning
            for h, g in engine.query_pairs(node):
                engine.postings(h, g)
            t1 = time.perf_counter()
            base = getattr(engine, "stat_postings_rows", 0)
            matches = engine.eval(node)
            t2 = time.perf_counter()
            docs, scores = top_k(matches, engine.score(node, matches), k)
            t3 = time.perf_counter()
            rows.emit(
                qid, t3 - t0, docs=docs, scores=scores, n_matches=len(matches),
                postings_rows=rows_delta(base), phases=(pparse, t1 - t0, t2 - t1, t3 - t2),
            )
        except Exception as e:  # per-query error row
            rows.emit(qid, time.perf_counter() - t0, err=f"{type(e).__name__}: {e}",
                      postings_rows=rows_delta(base), phases=(pparse, 0.0, 0.0, 0.0))
    return rows.table()


class QueryActor:
    """map_batches front over a local ``SearchEngine``: parse the batch's
    queries, ``prefetch`` their postings, then ``eval_queries``."""

    def __init__(self, index_dirs, k: int = 10, load_urls: bool = False):
        self.engine = SearchEngine(index_dirs, load_urls=load_urls)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids = batch["query_id"].to_numpy(zero_copy_only=False)
        nodes, parse_errs, parse_s = [], [], []
        for q in batch["query"].to_pylist():
            t0 = time.perf_counter()
            try:
                nodes.append(self.engine._parse_rewritten(q))
                parse_errs.append(None)
            except Exception as e:
                nodes.append(None)
                parse_errs.append(f"{type(e).__name__}: {e}")
            parse_s.append(time.perf_counter() - t0)
        self.prefetch([n for n in nodes if n is not None])
        return eval_queries(self.engine, qids, nodes, parse_errs, self.k, parse_s)

    def prefetch(self, nodes: list) -> None:
        """Resolve the batch's postings before evaluation.  The local
        engine decodes each term in ``eval_queries``' plan phase."""


def map_query_log(
    queries: "ray.data.Dataset | pa.Table",
    front,
    front_kwargs: dict,
    concurrency: int,
    batch_size: int,
    num_cpus: "float | None" = None,
) -> "ray.data.Dataset":
    """A query log through a pool of ``concurrency`` ``front`` actors
    (``map_batches``).  An Arrow table is first sliced driver-side into
    ~batch_size blocks (zero-copy, no cluster tasks): Ray Data dispatches
    actor tasks at BLOCK granularity, so a single-block log would
    serialize through one pool actor, and a repartition() stage instead
    can deadlock against the actor pool's CPU reservation on small
    clusters."""
    if isinstance(queries, pa.Table):
        n = len(queries)
        step = max(1, min(batch_size, (n + 2 * concurrency - 1) // (2 * concurrency)))
        queries = ray.data.from_arrow([queries.slice(i, step) for i in range(0, n, step)] or [queries])
    return queries.map_batches(
        front,
        fn_constructor_kwargs=front_kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus,
    )


def run_query_log(
    queries: "ray.data.Dataset | pa.Table",
    index_dirs,
    k: int = 10,
    concurrency: int = 4,
    batch_size: int = 64,
) -> "ray.data.Dataset":
    """Serve a query log through an actor pool → result Dataset."""
    kwargs = {"k": k, "index_dirs": index_dirs}
    return map_query_log(queries, QueryActor, kwargs, concurrency, batch_size)


def summarize(results: "ray.data.Dataset") -> dict:
    """QPS/latency stats — the QueryRunner::Statistics analog
    (QueryRunner.cpp:67-92)."""
    df = results.to_pandas()
    agg = {
        "latency_s": ("latency_s", "first"),
        "n_matches": ("n_matches", "first"),
        "error": ("error", "first"),
    }
    if "postings_rows" in df.columns:
        agg["postings_rows"] = ("postings_rows", "first")
    per_q = df.groupby("query_id").agg(**agg)
    lat = per_q["latency_s"].to_numpy()
    n_q = max(len(per_q), 1)
    out = {
        "n_queries": int(len(per_q)),
        "n_errors": int((per_q["error"] != "").sum()),
        "total_matches": int(per_q["n_matches"].clip(lower=0).sum()),
        # MPQ — matches per query, the reference's headline serving ratio
        # (QueryRunner.cpp:315-401 prints matches/query alongside QPS)
        "mpq": float(per_q["n_matches"].clip(lower=0).sum() / n_q),
        "p50_ms": float(np.percentile(lat, 50) * 1e3) if len(lat) else 0.0,
        "p99_ms": float(np.percentile(lat, 99) * 1e3) if len(lat) else 0.0,
        "mean_ms": float(lat.mean() * 1e3) if len(lat) else 0.0,
    }
    if "postings_rows" in per_q.columns:
        out["mean_postings_rows"] = float(per_q["postings_rows"].mean())
    # per-phase means (QuerySummaryStatistics analog: parse / plan / match /
    # score split, QueryRunner.cpp:67-92)
    for col in ("parse_s", "plan_s", "match_s", "score_s"):
        if col in df.columns:
            out[f"mean_{col[:-2]}_ms"] = float(
                df.groupby("query_id")[col].first().mean() * 1e3
            )
    return out
