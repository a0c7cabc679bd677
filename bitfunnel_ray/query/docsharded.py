"""Doc-sharded serving: segment-partitioned shard actors + two-phase
global-stats scoring.

The complement to term-sharded serving (``query/sharded.py``).  Term
sharding splits the DICTIONARY (each actor holds 1/S of every posting
list's vocabulary range) — right when the index outgrows one host's
memory.  Doc sharding splits the CORPUS (each actor holds ALL terms for
1/S of the documents) — the reference's own partitioning axis
(ShardDefinition routes documents to shards by posting count,
src/Common/Configuration/src/ShardDefinition.cpp:160-217; queries run
over every shard's slices, src/Plan/src/QueryRunner.cpp) and the shape
that minimizes per-query fan-in when queries are selective: each shard
answers the whole query locally and returns only its top-k.

The classic distributed-IR correctness problem: BM25 idf needs the
CORPUS-WIDE document frequency, but a doc shard only knows its local df.
This server runs the standard two-phase protocol:

1. stats round — every shard reports local df per scoring term (one
   tiny RPC per shard); the front sums them into global df.
2. scoring round — every shard runs the full match + score with the
   global (df, n_docs, avgdl) injected (``QueryAlgebra.df_override``)
   and returns its local top-k; the front merges the per-shard lists in
   one function (``_merge_topk``, through the same ranking tail as a
   local engine, ``wand.top_k``) and cuts to k.  ``search`` is the
   one-query case of the batch scoring round the query-log front
   (``run``) sends; ``search_selective`` merges the shards it probed.

Because a document lives in exactly one shard, its score is computed in
one place with the same canonical accumulation order and the same global
constants as a single-process engine — results are BIT-IDENTICAL to
``SearchEngine`` over the union of segments (pytest-proven), unlike
naive local-idf federation.  NOT/complement stays shard-local (each
shard complements within its own doc set; the union is the global
complement).
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np
import pyarrow as pa
import ray

from bitfunnel_ray.build import segment as seglib
from bitfunnel_ray.functions.bm25 import term_weight
from bitfunnel_ray.query import ast
from bitfunnel_ray.query.parser import parse_query
from bitfunnel_ray.query.runner import ResultRows, map_query_log
from bitfunnel_ray.query.vocab import gather
from bitfunnel_ray.query.wand import check_sort_direction, ranked_table, top_k


@ray.remote(max_concurrency=4)
class DocShardActor:
    """One doc shard: a full local engine over a SUBSET of segments."""

    def __init__(self, seg_dirs: "list[str]"):
        from bitfunnel_ray.query.engine import SearchEngine

        self.engine = SearchEngine(seg_dirs, load_urls=False)
        # the actor serves up to max_concurrency requests at once, and each
        # global-statistics search swaps the engine's shared n_docs /
        # avgdl / df_override: one swap at a time
        self._stats_lock = threading.Lock()

    def corpus_stats(self) -> "tuple[int, int]":
        return self.engine.n_docs, int(round(self.engine.avgdl * self.engine.n_docs))

    def scoring_pairs_many(self, queries: "list[str]"):
        """Per query: (scoring (term_hash, gram) pairs, has a fuzzy term).
        Only a fuzzy query's pairs depend on the shard (its expansion runs
        against this shard's vocabulary)."""
        eng = self.engine
        out = []
        for q in queries:
            node = parse_query(q, eng.stream_map)
            fuzzy = ast.has_fuzzy(node)
            if fuzzy:
                node = eng._parse_rewritten(q)
            out.append(([(int(h), int(g)) for h, g in eng.scoring_terms(node)], fuzzy))
        return out

    def term_stats(self, pairs: "list[tuple[int, int]]") -> "list[int]":
        """Local df per (term_hash, gram)."""
        return [int(self.engine.postings(h, g).df) for h, g in pairs]

    def match_count(self, query: str) -> int:
        return self.engine.match_count(query)

    def score_bound(self, query: str, df_map, n_docs: int, avgdl: float) -> float:
        """Upper bound on any LOCAL document's score for ``query`` under
        GLOBAL statistics — the shard-granularity analog of a block-max
        bound (Broder 2003 / Ding & Suel 2011 safe-UB contract, lifted
        from block to shard).  Computed entirely from the dictionary's
        per-block ``max_tfn`` metadata: no posting list is decoded, so a
        shard that ends up skipped never touches payload bytes.

        Safe because stored max_tfn was computed with the segment's own
        avgdl and tfn is increasing in avgdl: serving avgdl below the
        build avgdl only shrinks true tfn, and above it the bound is
        inflated by the same monotone ratio every block-max reader uses
        (``_Segment.block_meta_rows``)."""
        eng = self.engine
        node = eng._parse_rewritten(query)
        boosts = eng.scoring_boosts(node)
        dfm = {(int(h), int(g)): int(v) for (h, g), v in df_map.items()}
        total = 0.0
        for h, g in eng.scoring_terms(node):
            best = 0.0
            local_df = 0
            for s in eng.segments:
                rows = s.chunk_rows(h, g)
                if not rows:
                    continue
                local_df = 1  # presence only; global df comes from df_map
                for _ld, mt in s.block_meta_rows(rows, avgdl):
                    if len(mt):
                        best = max(best, float(mt.max()))
            if not local_df or best == 0.0:
                continue
            df = dfm.get((int(h), int(g)), 0)
            if df <= 0:
                continue
            total += term_weight(df, n_docs, eng.k1) * best * boosts.get((h, g), 1.0)
        return total

    def search_topk_many(
        self,
        queries: "list[str]",
        k: int,
        df_map: "dict[tuple[int, int], int]",
        n_docs: int,
        avgdl: float,
        counts: bool = False,
    ) -> "list[tuple]":
        """Local top-k ``(doc_ids, scores)`` per query under GLOBAL
        statistics; with ``counts`` each entry also carries the local
        match count."""
        out = []
        for q in queries:
            with self._global_stats(df_map, n_docs, avgdl) as eng:
                node = eng._parse_rewritten(q)
                matches = eng.eval(node)
                top = top_k(matches, eng.score(node, matches), k)
            out.append((*top, len(matches)) if counts else top)
        return out

    @contextlib.contextmanager
    def _global_stats(self, df_map, n_docs: int, avgdl: float):
        """The local engine under one request's GLOBAL statistics (df via
        ``df_override``, n_docs, avgdl), restored on exit; concurrent
        requests take turns."""
        eng = self.engine
        with self._stats_lock:
            old = (eng.n_docs, eng.avgdl, eng.df_override)
            try:
                eng.n_docs, eng.avgdl = int(n_docs), float(avgdl)
                eng.df_override = {(int(h), int(g)): int(v) for (h, g), v in df_map.items()}
                yield eng
            finally:
                eng.n_docs, eng.avgdl, eng.df_override = old

    def search_topk(
        self,
        query: str,
        k: int,
        df_map: "dict[tuple[int, int], int]",
        n_docs: int,
        avgdl: float,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Local top-k under GLOBAL statistics (returns doc_ids, scores)."""
        return self.search_topk_many([query], k, df_map, n_docs, avgdl)[0]

    def search_topk_sorted(
        self,
        query: str,
        k: int,
        df_map: "dict[tuple[int, int], int]",
        n_docs: int,
        avgdl: float,
        sort_by: "tuple[str, str]",
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Local sort-by-field top-k under GLOBAL statistics.  Returns
        (doc_ids, scores, keys) — keys are the RAW doc-values (NaN for
        null) so the front can merge shards in the same total order the
        local engine uses (key direction, nulls last, doc_id asc)."""
        with self._global_stats(df_map, n_docs, avgdl) as eng:
            t = eng.search(query, k=k, sort_by=sort_by)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keys = self.engine.docvalues_for(doc_ids.astype(np.uint64), sort_by[0])
        return doc_ids, t["score"].to_numpy(zero_copy_only=False), keys

    # --- aggregation partials (facets / histograms / field stats) --------

    def match_docs(self, query: str) -> np.ndarray:
        """Sorted local match ids (boolean eval only — no global stats
        needed, matching is score-free).  Parses with ``parse_query``,
        exactly like the local aggs in query/aggs.py and query/facets.py,
        so shard partials and the single-process reference path see the
        same AST (a ``_parse_rewritten`` here would diverge on fuzzy
        queries, which need the serving vocabulary)."""
        eng = self.engine
        return np.sort(eng.eval(parse_query(query, eng.stream_map)).astype(np.int64))

    def agg_histogram(
        self, query: str, interval_s: int, col: str, origin_s: int
    ) -> pa.Table:
        """Local date_histogram partial — per-shard buckets merge by
        summing counts (doc sets are disjoint)."""
        from bitfunnel_ray.query.aggs import date_histogram

        return date_histogram(
            self.engine, query, interval_s=interval_s, col=col, origin_s=origin_s
        )

    def agg_field_partials(self, query: str, col: str) -> "tuple[int, float, float, float]":
        """(n, min, max, sum) of the doc-values column over the local
        match set, nulls excluded — the mergeable form of the ES
        ``stats`` aggregation."""
        eng = self.engine
        matches = eng.eval(parse_query(query, eng.stream_map))
        v = eng.docvalues_for(matches, col)
        v = v[~np.isnan(v)]
        if not len(v):
            return 0, float("inf"), float("-inf"), 0.0
        return int(len(v)), float(v.min()), float(v.max()), float(np.sum(v))

    def agg_field_values(self, query: str, col: str) -> np.ndarray:
        """Matched non-null doc-values (for exact percentiles: the front
        concatenates shard values and takes one global quantile — ships
        O(local matches) float64, same order as a local docvalues read)."""
        eng = self.engine
        matches = eng.eval(parse_query(query, eng.stream_map))
        v = eng.docvalues_for(matches, col)
        return v[~np.isnan(v)]

    def vocab(self, op: str, *args):
        """``Vocab.<op>`` over this shard's segments (local dfs)."""
        return getattr(self.engine.vocab, op)(*args)


class DocShardedServer:
    """Segment-partitioned serving with exact global BM25.

    ``index_dirs``: any index locator (segment dir, waves.json root,
    seg-*/ root, or list); segments are dealt round-robin across
    ``n_shards`` actors (capped at the segment count — the doc-sharding
    unit is the segment, whose doc ranges are disjoint by construction).
    """

    def __init__(
        self,
        index_dirs,
        n_shards: int = 4,
        num_cpus_per_shard: float = 1.0,
    ):
        segs = seglib.resolve_segment_dirs(index_dirs)
        self.index_dirs = segs  # fetch() opens docstore sidecars here
        self.n_shards = max(1, min(int(n_shards), len(segs)))
        groups = [segs[i :: self.n_shards] for i in range(self.n_shards)]
        self.shards = [
            DocShardActor.options(
                num_cpus=num_cpus_per_shard, scheduling_strategy="SPREAD"
            ).remote(g)
            for g in groups
        ]
        stats = ray.get([s.corpus_stats.remote() for s in self.shards])
        self.n_docs = sum(n for n, _ in stats)
        self.avgdl = (
            sum(s for _, s in stats) / self.n_docs if self.n_docs else 1.0
        )

    def _stats_round(self, query: str) -> "dict[tuple[int, int], int]":
        # phase 1: global df for the query's scoring terms
        return _global_df(self.shards, [query], {})

    def search(
        self,
        query: str,
        k: int = 10,
        sort_by: "tuple[str, str] | None" = None,
    ) -> pa.Table:
        """Exact global top-k; ``sort_by=(col, direction)`` merges the
        per-shard sort-by-field top-ks on their raw doc values, in the
        local engine's order."""
        if sort_by is not None:
            check_sort_direction(sort_by[1])
        df_map = self._stats_round(query)
        if sort_by is None:
            # phase 2: the one-query case of the batch scoring round
            top = _search_many(self.shards, [query], k, df_map, self.n_docs, self.avgdl)[0]
            return ranked_table(*top[:2])
        parts = ray.get(
            [
                s.search_topk_sorted.remote(query, k, df_map, self.n_docs, self.avgdl, sort_by)
                for s in self.shards
            ]
        )
        return ranked_table(*_merge_topk(parts, k, sort_by[1]))

    # --- serving aggregations (parity with the term-sharded front) -------

    _docstore = None

    def fetch(self, doc_ids, fields: "list[str] | None" = None) -> pa.Table:
        """Stored-field rows (ES _source analog): docstore sidecars live
        on the shared filesystem beside the segments, so the front does
        the row-group-pruned point lookups directly — no shard RPC (same
        shape as the term-sharded front's fetch)."""
        if self._docstore is None:
            from bitfunnel_ray.build.docstore import DocStore

            self._docstore = DocStore(self.index_dirs)
        return self._docstore.fetch(doc_ids, fields)

    def date_histogram(
        self,
        query: str,
        interval_s: int = 86400,
        col: str = "warc_ts_s",
        origin_s: int = 0,
    ) -> pa.Table:
        """Per-shard histogram partials summed per bucket (doc sets are
        disjoint, so local counts add exactly)."""
        parts = ray.get(
            [
                s.agg_histogram.remote(query, interval_s, col, origin_s)
                for s in self.shards
            ]
        )
        nonempty = [t for t in parts if len(t)]
        merged = pa.concat_tables(nonempty) if nonempty else None
        if merged is None or not len(merged):
            return pa.table(
                {
                    "bucket_start_s": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        out = merged.group_by(["bucket_start_s"]).aggregate([("n_docs", "sum")])
        out = out.rename_columns(["bucket_start_s", "n_docs"])
        return out.set_column(
            1, "n_docs", out["n_docs"].cast(pa.int64())
        ).sort_by([("bucket_start_s", "ascending")])

    def field_stats(self, query: str, col: str = "warc_ts_s") -> pa.Table:
        """Mergeable (n, min, max, sum) partials per shard; avg = sum/n
        at the front.  Exact for integer-valued doc-values columns (sums
        stay below 2^53, so float64 addition is lossless in any order)."""
        parts = ray.get(
            [s.agg_field_partials.remote(query, col) for s in self.shards]
        )
        n = sum(p[0] for p in parts)
        if n == 0:
            return pa.table(
                {
                    "n_docs": pa.array([0], pa.int64()),
                    "min_v": pa.array([None], pa.float64()),
                    "max_v": pa.array([None], pa.float64()),
                    "avg_v": pa.array([None], pa.float64()),
                }
            )
        return pa.table(
            {
                "n_docs": pa.array([n], pa.int64()),
                "min_v": pa.array([min(p[1] for p in parts if p[0])], pa.float64()),
                "max_v": pa.array([max(p[2] for p in parts if p[0])], pa.float64()),
                "avg_v": pa.array([sum(p[3] for p in parts) / n], pa.float64()),
            }
        )

    def field_percentiles(
        self,
        query: str,
        col: str = "warc_ts_s",
        qs: "tuple[float, ...]" = (0.25, 0.5, 0.75),
    ) -> pa.Table:
        """Exact percentiles: shards return their matched values, the
        front takes one global quantile (quantile is order-insensitive,
        so this is bit-identical to the local engine's)."""
        parts = ray.get(
            [s.agg_field_values.remote(query, col) for s in self.shards]
        )
        v = np.concatenate(parts) if parts else np.empty(0, np.float64)
        out = (
            np.quantile(v, qs, method="linear")
            if len(v)
            else np.full(len(qs), np.nan)
        )
        return pa.table(
            {
                "q": pa.array(np.asarray(qs, np.float64), pa.float64()),
                "value": pa.array(out, pa.float64()),
            }
        )

    def facet_counts(
        self,
        meta,
        query: str,
        facet_cols: "tuple[str, ...]" = ("lang", "source"),
    ) -> pa.Table:
        """Facet counts over the global match set: per-shard match ids
        gathered (disjoint, so concatenate+sort is the exact union), then
        the shared broadcast-partial reduce from query/facets.py."""
        from bitfunnel_ray.query.facets import facet_counts_for_matches

        parts = ray.get([s.match_docs.remote(query) for s in self.shards])
        match = (
            np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        )
        return facet_counts_for_matches(match, meta, facet_cols)

    def match_count(self, query: str) -> int:
        """Sum of shard-local match counts (doc sets are disjoint)."""
        return sum(ray.get([s.match_count.remote(query) for s in self.shards]))

    # --- vocabulary: gathered from every shard's sidecars (partial dfs) ---
    def _vocab_gather(self, op: str, *args):
        got = gather(op, ray.get([s.vocab.remote(op, *args) for s in self.shards]), *args)
        if got is None:
            raise RuntimeError(
                "no vocab sidecar in any shard's segments — build with "
                "EngineConfig.extra['vocab_sidecar']=True (cli build --vocab)"
            )
        return got

    def suggest(self, prefix: str, k: int = 10) -> pa.Table:
        """Top-k prefix completions over the doc-sharded corpus: each
        shard's df is partial (its docs only), so dfs sum per term before
        the cut — exact, because a document lives in exactly one shard."""
        return self._vocab_gather("prefix_range", prefix, int(k))

    def correct(self, query: str, max_dist: int = 2) -> pa.Table:
        """Serve-time "did you mean" with GLOBAL dfs (summed per candidate
        term); the same (token, suggestion, dist, df) rows and ranking
        contract as the local ``SearchEngine.correct``."""
        from bitfunnel_ray.ops.spell import serve_correct

        return serve_correct(
            query, lambda tok, d: self._vocab_gather("candidates", tok, int(d)), int(max_dist)
        )

    def search_selective(self, query: str, k: int = 10, wave: int = 2) -> pa.Table:
        """Exact top-k probing as FEW shards as the scores allow — the
        selective-search / shard-selection discipline (Taily: Aly, Hiemstra
        & Demeester 2013; CORI: Callan et al. 1995), but with SAFE upper
        bounds instead of fitted score models, so the result is
        bit-identical to ``search()`` (pytest-proven), never approximate.

        Protocol: after the usual stats round, every shard returns a
        dictionary-metadata-only score upper bound (``score_bound`` — no
        posting decode).  Shards are probed in descending-bound waves of
        ``wave``; once k results are held, a shard whose bound is strictly
        below the current k-th score cannot contribute (ties keep probing:
        an equal-score smaller doc_id would still displace) and every
        shard after it in bound order is skipped.  On a 256-node corpus a
        selective query touches the few shards that can matter instead of
        fanning to all of them; ``self.last_shards_probed`` records the
        count for observability."""
        df_map = self._stats_round(query)
        bounds = ray.get(
            [
                s.score_bound.remote(query, df_map, self.n_docs, self.avgdl)
                for s in self.shards
            ]
        )
        order = sorted(range(len(self.shards)), key=lambda i: (-bounds[i], i))
        parts = []
        i = 0
        while i < len(order):
            # current k-th score (the displacement threshold), if k held;
            # every remaining shard has bound <= bounds[order[i]]
            held = np.concatenate([s for _, s in parts] or [np.empty(0)])
            if len(held) >= max(k, 1) and bounds[order[i]] < np.partition(held, -k)[-k]:
                break
            batch = order[i : i + max(1, int(wave))]
            i += len(batch)
            parts += ray.get(
                [
                    self.shards[j].search_topk.remote(query, k, df_map, self.n_docs, self.avgdl)
                    for j in batch
                ]
            )
        self.last_shards_probed = i
        return ranked_table(*_merge_topk(parts, k))

    def run(
        self,
        queries: "ray.data.Dataset | pa.Table",
        k: int = 10,
        concurrency: int = 2,
        batch_size: int = 64,
        num_cpus_per_front: float = 0.5,
    ):
        """Query-log serving: front-end actors in ``map_batches`` run the
        two-phase protocol PER BATCH — one scoring-pairs RPC, one
        term-stats RPC per shard for the batch's UNION of terms, one
        scoring RPC per shard for all queries — so the per-query RPC cost
        amortizes across the batch.  Output: the local front's result
        rows (``runner.ResultRows``), ranked rows identical to per-query
        ``search()``; a query that fails becomes an error row."""
        kwargs = {"shard_handles": self.shards, "k": k, "n_docs": self.n_docs, "avgdl": self.avgdl}
        return map_query_log(
            queries, _DocShardedFront, kwargs, concurrency, batch_size, num_cpus_per_front
        )

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []


def _global_df(shards, queries: "list[str]", df_cache: dict) -> "dict[tuple[int, int], int]":
    """The stats round: global df of every scoring pair of ``queries``.
    Shard 0 derives the pairs; only fuzzy queries also ask the other
    shards, because a fuzzy expansion depends on each shard's vocabulary
    and a member that exists only in another shard's docs still needs a
    global df.  Local dfs of pairs missing from ``df_cache`` are summed
    over one stats RPC per shard and cached there."""
    first = ray.get(shards[0].scoring_pairs_many.remote(queries))
    pairs = {p for ps, _ in first for p in ps}
    fuzzy = [q for q, (_, f) in zip(queries, first) if f]
    if fuzzy and len(shards) > 1:
        more = ray.get([s.scoring_pairs_many.remote(fuzzy) for s in shards[1:]])
        pairs |= {p for res in more for ps, _ in res for p in ps}
    need = sorted(p for p in pairs if p not in df_cache)
    if need:
        per_shard = ray.get([s.term_stats.remote(need) for s in shards])
        for i, p in enumerate(need):
            df_cache[p] = sum(d[i] for d in per_shard)
    return {p: df_cache[p] for p in sorted(pairs)}


def _merge_topk(parts, k: int, direction: "str | None" = None):
    """The global top-k ``(doc_ids, scores)`` of per-shard top-k lists,
    one ``(doc_ids, scores)`` per shard — or ``(doc_ids, scores, raw
    keys)`` with a sort-by-field ``direction``.  A document lives in
    exactly one shard, so the top k of their concatenation is the global
    top k; it is taken by the local engine's ranking tail."""
    cols = [np.concatenate(c) for c in zip(*parts)]
    return top_k(cols[0], cols[1], k, sort=None if direction is None else (cols[2], direction))


def _search_many(shards, queries: "list[str]", k: int, df_map, n_docs: int, avgdl: float):
    """The scoring round for a batch of queries under global statistics:
    one RPC per shard, then each query's per-shard lists merged →
    ``(doc_ids, scores, n_matches)`` per query."""
    per_shard = ray.get(
        [s.search_topk_many.remote(queries, k, df_map, n_docs, avgdl, counts=True) for s in shards]
    )
    return [
        (*_merge_topk([r[i][:2] for r in per_shard], k), sum(r[i][2] for r in per_shard))
        for i in range(len(queries))
    ]


class _DocShardedFront:
    """map_batches front-end for ``DocShardedServer.run``: per batch, the
    stats round over the batch's terms (``_global_df``; global df cached
    across batches) + the scoring round (``_search_many``), as
    ``runner.ResultRows``.  The two rounds serve the whole batch, so each
    query gets an even share of their time: the stats round as
    ``plan_s``, the scoring round (the shards match and score in one
    call) as ``score_s``.  If the batch fails, its queries are served one
    at a time, so only a failing query (a malformed one) becomes an error
    row."""

    def __init__(self, shard_handles, k: int, n_docs: int, avgdl: float):
        self.shards = shard_handles
        self.k = int(k)
        self.n_docs = int(n_docs)
        self.avgdl = float(avgdl)
        self._df_cache: dict[tuple[int, int], int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids = batch["query_id"].to_numpy(zero_copy_only=False)
        qs = batch["query"].to_pylist()
        rows = ResultRows()
        try:
            self._serve(qids, qs, rows)
        except Exception:
            rows = ResultRows()
            for qid, q in zip(qids, qs):
                t0 = time.perf_counter()
                try:
                    self._serve([qid], [q], rows)
                except Exception as e:
                    # a shard's exception arrives as a RayTaskError; name its cause
                    cause = getattr(e, "cause", None) or e
                    rows.emit(qid, time.perf_counter() - t0, err=f"{type(cause).__name__}: {cause}")
        return rows.table()

    def _serve(self, qids, qs: "list[str]", rows: ResultRows) -> None:
        t0 = time.perf_counter()
        df_map = _global_df(self.shards, qs, self._df_cache)
        t1 = time.perf_counter()
        tops = _search_many(self.shards, qs, self.k, df_map, self.n_docs, self.avgdl)
        t2 = time.perf_counter()
        n = len(qs)
        for qid, (docs, scores, n_matches) in zip(qids, tops):
            rows.emit(qid, (t2 - t0) / n, docs=docs, scores=scores, n_matches=n_matches,
                      phases=(0.0, (t1 - t0) / n, 0.0, (t2 - t1) / n))
