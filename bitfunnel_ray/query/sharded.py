"""Term-sharded serving: bucket-assigned shard actors + scatter-gather
front-ends.

The reference serves queries from threads over one shared in-memory index
(reference: src/Plan/src/QueryRunner.cpp:282-401,
src/Index/src/SimpleIndex.cpp:219-270).  At cluster scale the index no
longer fits one host, so serving is partitioned the way the build already
partitions the dictionary — by term-hash bucket:

- ``IndexShardActor`` s (of S) opens ONLY the dict buckets with
  ``bucket % S == s`` (every segment), plus a 1/S slice of the docmeta
  doc-id files.  Per-actor memory is ~1/S of the index.  The actor opens
  its dirs through ``refresh``, the same code an NRT refresh runs.
- ``ShardedSearchEngine`` is the scatter-gather front: it routes each
  (term_hash, gram) lookup to the owning shard — or to ALL shards for
  salted head terms, whose chunks are deliberately spread across buckets
  (build/builder.py head salting; the ``heads.parquet`` sidecar lists
  them) — merges the returned chunks, and runs the same boolean/BM25
  algebra as the local engine (``QueryAlgebra``), with the corpus
  constants derived the same way (``_set_corpus`` over manifest-only
  segments).
- NOT/complement is an anti-join scattered to every shard against its
  LOCAL doc-id slice (the DocumentActive-row analog,
  src/Index/src/Ingestor.cpp:302-327) — no global doc-id array exists
  anywhere.
- ``ShardedServer`` wires it into Ray Data through the runner's
  query-log mapper: ``ShardedQueryActor`` is the runner's
  ``QueryActor`` over a ``ShardedSearchEngine`` whose ``prefetch``
  fetches the batch's uncached terms with ONE ``postings_many`` RPC per
  shard touched, then serves the batch from front-local cache.

Raw ``@ray.remote`` actors are justified here (not expressible as a
Dataset op): the index is long-lived partitioned read-only state queried
point-wise, exactly the "shared index" case the Dataset API can't hold.
"""

from __future__ import annotations

import functools
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from bitfunnel_ray.build import segment as seglib
from bitfunnel_ray.query.engine import (
    Postings,
    QueryAlgebra,
    _Segment,
    merge_chunks,
)
from bitfunnel_ray.query.runner import QueryActor, map_query_log
from bitfunnel_ray.query.vocab import Vocab, gather


class LruCache:
    """Bounded LRU map for the two serving caches (front-side merged
    postings, shard-side decoded refs).  The round-2 versions were
    insert-until-full: once the cap was hit, NEW hot terms were re-fetched
    per query forever (starvation) and stale entries never left.  Real
    recency eviction keeps the hot set cached under vocabulary churn."""

    __slots__ = ("cap", "_od")

    def __init__(self, cap: int):
        from collections import OrderedDict

        self.cap = int(cap)
        self._od = OrderedDict()

    def get(self, key):
        v = self._od.get(key)
        if v is not None:
            self._od.move_to_end(key)
        return v

    def put(self, key, val) -> None:
        od = self._od
        if key in od:
            od.move_to_end(key)
        od[key] = val
        if len(od) > self.cap:
            od.popitem(last=False)

    def __len__(self):
        return len(self._od)

    def __contains__(self, key):
        return key in self._od


@ray.remote(max_concurrency=4)
class IndexShardActor:
    """One serving shard: dict buckets ``b % n_shards == shard_id`` of
    every segment + docmeta doc-id files ``i % n_shards == shard_id``.

    Read-only after __init__; ``max_concurrency`` lets several front-ends
    fetch concurrently (lookups are numpy searchsorted + varint decode,
    which release the GIL in the hot loops)."""

    def __init__(self, index_dirs: "list[str]", shard_id: int, n_shards: int):
        self.shard_id, self.n_shards = int(shard_id), int(n_shards)
        # decoded-postings ref cache: hot terms are decoded + ray.put ONCE
        # per shard, then every front-end fetch returns the same tiny
        # ObjectRef and reads the plasma object zero-copy — without this,
        # each of F front-ends forces a fresh decode + serialization of
        # multi-MB posting lists per hot term (F× shard CPU, F× copies)
        self._ref_cache = LruCache(65536)
        self.segments = []
        self.local_docs = np.empty(0, np.uint64)
        # docmeta slice recipe: (file, row_mask|None) pairs — doc-values
        # columns load lazily from exactly this slice (see _local_docvalue)
        self._meta_slices: "list[tuple[str, np.ndarray | None]]" = []
        self._docvals: dict = {}
        self.refresh(index_dirs)

    def _open_dir(self, d: str, local_doc_parts: list) -> None:
        """Open one segment dir: this shard's bucket subset + its docmeta
        slice (file-granular when files ≥ shards, row-striped otherwise)."""
        n_shards, shard_id = self.n_shards, self.shard_id
        man = seglib.load_manifest(d)
        if man is None:
            raise FileNotFoundError(f"no manifest in {d}")
        num_buckets = int(man["config"]["num_buckets"])
        mine = [b for b in range(num_buckets) if b % n_shards == shard_id]
        self.segments.append(_Segment(d, buckets=mine))
        meta_files = sorted(glob.glob(os.path.join(d, "docmeta", "*.parquet")))
        # file-granular slice when files ≥ shards: each shard READS only
        # ~1/S of the docmeta files (the scale path — shard count ≪ file
        # count); fewer files than shards (tiny corpus): rows striped
        # round-robin, so the cover stays disjoint and each shard still
        # HOLDS only ~1/S of the doc ids
        by_file = len(meta_files) >= n_shards
        offset = 0
        for i, f in enumerate(meta_files):
            if by_file and i % n_shards != shard_id:
                continue
            ids = pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy().astype(np.uint64)
            mask = None if by_file else np.arange(offset, offset + len(ids)) % n_shards == shard_id
            local_doc_parts.append(ids if mask is None else ids[mask])
            self._meta_slices.append((f, mask))
            offset += len(ids)

    def refresh(self, new_dirs: "list[str]") -> int:
        """Open the dirs this shard does not hold yet (all of them when
        the actor starts; NRT refresh after — the reference ingests into a
        LIVE index, Ingestor::Add; additive segments are our equivalent):
        this shard's bucket subset + docmeta slice of each, then drop both
        caches (decoded refs carry avgdl-keyed inflation and doc values
        align to the slice — both stale once the corpus grows) and restart
        the vocab stripe.  Returns the number of dirs opened."""
        have = {s.dir for s in self.segments}
        new = [d for d in new_dirs if d not in have]
        if not new:
            return 0
        parts = [self.local_docs]
        for d in new:
            self._open_dir(d, parts)
        self.local_docs = np.sort(np.concatenate(parts))
        self._ref_cache = LruCache(self._ref_cache.cap)
        self._docvals.clear()
        # this shard's stripe of the segments' vocab sidecars, read lazily
        # on the first suggest/fuzzy/correct RPC
        self._vocab = Vocab(
            [s.dir for s in self.segments], shard=(self.shard_id, self.n_shards)
        )
        return len(new)

    def postings_many(self, pairs: "list[tuple[int, int]]", serve_avgdl: float):
        """For each (term_hash, gram): an ObjectRef to this shard's decoded
        chunks + block-max metadata (max_tfn pre-inflated to the serving
        avgdl).  The ref points at ``(parts, metas)`` where parts =
        [(doc_ids, tf, doclen), ...]; callers ``ray.get`` the refs and read
        the numpy payloads zero-copy from the object store.  Refs are
        cached so repeated fetches of the same term (every front-end warms
        the same hot query terms) cost one decode + one serialization
        total per shard."""
        # EXACT avgdl in the key: a rounded key served an entry whose
        # max_tfn inflation was computed with a different avgdl (<1e-3 off)
        # — enough, in principle, for WAND to skip a qualifying block
        ak = float(serve_avgdl)
        out = []
        for h, g in pairs:
            key = (int(h), int(g), ak)
            ref = self._ref_cache.get(key)
            if ref is None:
                parts, metas = [], []
                for s in self.segments:
                    rows = s.chunk_rows(h, g)
                    for dc in s.decode_rows(rows):
                        parts.append((dc.doc_ids, dc.tf, dc.doclen))
                    metas.extend(s.block_meta_rows(rows, serve_avgdl))
                ref = ray.put((parts, metas))
                self._ref_cache.put(key, ref)
            out.append(ref)
        return out

    def complement(self, sorted_docs: np.ndarray) -> np.ndarray:
        """Doc ids in THIS shard's doc slice that are NOT in the input."""
        return np.setdiff1d(self.local_docs, sorted_docs, assume_unique=True)

    # --- doc values (numeric fast fields), striped like local_docs -------
    def _local_docvalue(self, col: str):
        """(sorted_ids, vals) for this shard's docmeta slice — lazy, cached
        per column; a column read over ~1/S of the docmeta files."""
        hit = self._docvals.get(col)
        if hit is not None:
            return hit
        ids_parts, val_parts = [], []
        for f, rows in self._meta_slices:
            t = pq.read_table(f, columns=["doc_id", col])
            ids = t["doc_id"].to_numpy().astype(np.uint64)
            vals = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
            if rows is not None:
                ids, vals = ids[rows], vals[rows]
            ids_parts.append(ids)
            val_parts.append(vals)
        ids = np.concatenate(ids_parts) if ids_parts else np.empty(0, np.uint64)
        vals = np.concatenate(val_parts) if val_parts else np.empty(0, np.float64)
        o = np.argsort(ids, kind="stable")
        pair = (ids[o], vals[o])
        self._docvals[col] = pair
        return pair

    def range_docs(self, col: str, lo: float, hi: float) -> np.ndarray:
        """Sorted doc ids of THIS shard's slice with doc-values in
        [lo, hi] — the Range query node's per-shard scan (no global
        doc-values array; the front unions the disjoint slices)."""
        ids, vals = self._local_docvalue(col)
        return np.sort(ids[(vals >= lo) & (vals <= hi)])

    def docvalue_fetch(self, sorted_ids: np.ndarray, col: str):
        """(ids_present, values) for the input ids that live in THIS
        shard's docmeta slice — the union across shards covers every id
        (slices are a disjoint cover).  Powers range filters, sort-by-field
        and facet aggregations without any global doc-values array."""
        ids, vals = self._local_docvalue(col)
        if not len(ids) or not len(sorted_ids):
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        pos = np.minimum(np.searchsorted(ids, sorted_ids), len(ids) - 1)
        ok = ids[pos] == sorted_ids
        return sorted_ids[ok], vals[pos[ok]]

    def vocab(self, op: str, *args):
        """``Vocab.<op>`` over this shard's vocabulary stripe."""
        return getattr(self._vocab, op)(*args)

    def stats(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "dict_rows": sum(
                len(s.dict) if s.dict is not None else 0 for s in self.segments
            ),
            "local_docs": int(len(self.local_docs)),
            "buckets": sorted(
                b
                for s in self.segments
                for b in range(s.num_buckets)
                if b % self.n_shards == self.shard_id
            ),
        }


class _DecodedChunkView:
    __slots__ = ("doc_ids", "tf", "doclen")

    def __init__(self, triple):
        self.doc_ids, self.tf, self.doclen = triple


class ShardedSearchEngine(QueryAlgebra):
    """Scatter-gather front over ``IndexShardActor`` handles.  Runs the
    full ``QueryAlgebra`` (boolean eval, BM25, block-max WAND) with
    postings fetched by RPC and LRU-ish cached front-side."""

    def __init__(
        self,
        index_dirs: "str | list[str]",
        shard_handles: "list",
        tombstones: np.ndarray | None = None,
        cache_cap: int = 100_000,
    ):
        index_dirs = seglib.resolve_segment_dirs(index_dirs)
        self.index_dirs = index_dirs  # fetch() opens docstore sidecars here
        # shard_handles: one handle per shard, or one LIST of replica
        # handles per shard.  Replicas hold identical state; each engine
        # binds one replica per shard (pid-spread, so concurrent front-ends
        # fan across replicas) — results are replica-independent.  On a
        # dead replica (RayActorError / lost plasma objects) the engine
        # rotates to the next replica in the group and retries — queries
        # survive a shard-replica kill with zero errors.
        groups = [g if isinstance(g, list) else [g] for g in shard_handles]
        pick = os.getpid()
        self._groups = groups
        self._replica_idx = [pick % len(g) for g in groups]
        self.shards = [g[i] for g, i in zip(groups, self._replica_idx)]
        self._all_replicas = [h for g in groups for h in g]
        self.n_shards = len(self.shards)
        # manifests only: the corpus constants and totals, no dict bucket
        self.segments = [_Segment(d, buckets=[]) for d in index_dirs]
        self._set_corpus(self.segments)
        self._seg_buckets = [s.num_buckets for s in self.segments]
        heads = [
            pq.read_table(hp)["term_hash"].to_numpy().astype(np.uint64)
            for d in index_dirs
            if os.path.exists(hp := os.path.join(d, "heads.parquet"))
        ]
        self.head_hashes = (
            np.unique(np.concatenate(heads)) if heads else np.empty(0, np.uint64)
        )
        self.tombstones = (
            np.sort(np.asarray(tombstones, dtype=np.uint64))
            if tombstones is not None and len(tombstones)
            else None
        )
        self._cache = LruCache(cache_cap)
        # segments built with vocab sidecars: ``term~d`` expands where the
        # vocabulary lives (each shard matches its stripe, the front
        # unions the members), memoized like VocabFuzzyMatcher
        if any(os.path.isdir(os.path.join(d, "vocab")) for d in index_dirs):
            self.fuzzy_matcher = functools.lru_cache(maxsize=1024)(
                lambda text, dist: self._vocab_gather("fuzzy", text, int(dist)) or ()
            )

    # --- replica failover --------------------------------------------------
    def _rotate(self, s: int) -> None:
        g = self._groups[s]
        self._replica_idx[s] = (self._replica_idx[s] + 1) % len(g)
        self.shards[s] = g[self._replica_idx[s]]

    def _retryable_errors(self):
        import ray.exceptions as rex

        return (
            rex.RayActorError,
            rex.OwnerDiedError,
            rex.ObjectLostError,
            rex.ObjectReconstructionFailedError,
        )

    def _fetch_shard(self, s: int, pairs: "list[tuple[int, int]]"):
        """postings_many from shard ``s`` with replica failover; returns the
        ray.get'd [(parts, metas), ...] payloads.  The inner get is inside
        the retry because a dead replica's ref-cached plasma objects die
        with their owner."""
        errs = self._retryable_errors()
        last = None
        for _ in range(2 * len(self._groups[s])):
            try:
                inner = ray.get(self.shards[s].postings_many.remote(pairs, self.avgdl))
                return ray.get(inner)
            except errs as e:
                last = e
                self._rotate(s)
        raise last

    # --- routing ----------------------------------------------------------
    def _shards_for(self, term_hash: int) -> "list[int]":
        h = np.uint64(term_hash)
        if len(self.head_hashes):
            i = int(np.searchsorted(self.head_hashes, h))
            if i < len(self.head_hashes) and self.head_hashes[i] == h:
                return list(range(self.n_shards))  # salted: chunks everywhere
        return sorted({(int(h) % nb) % self.n_shards for nb in self._seg_buckets})

    # --- batched fetch ----------------------------------------------------
    def prefetch(self, pairs: "list[tuple[int, int]]") -> None:
        """Fetch all uncached (term_hash, gram) pairs with one RPC per
        shard touched (batch amortization for serving)."""
        need = []
        seen = set()
        for p in pairs:
            key = (int(p[0]), int(p[1]))
            if key not in self._cache and key not in seen:
                seen.add(key)
                need.append(key)
        if not need:
            return
        per_shard: dict[int, list[tuple[int, int]]] = {}
        for key in need:
            for s in self._shards_for(key[0]):
                per_shard.setdefault(s, []).append(key)
        # two-level gather: the RPC returns tiny ObjectRefs (shard-side ref
        # cache); the second ray.get reads every posting payload zero-copy
        # from the object store.  Outer RPCs are issued to all shards
        # up-front (parallel); a failed shard falls back to the
        # failover-retry path for just that shard.
        errs = self._retryable_errors()
        refs = {
            s: self.shards[s].postings_many.remote(ps, self.avgdl)
            for s, ps in per_shard.items()
        }
        gathered: dict[tuple[int, int], tuple[list, list]] = {k: ([], []) for k in need}
        for s, ref in refs.items():
            try:
                payloads = ray.get(ray.get(ref))
            except errs:
                self._rotate(s)
                payloads = self._fetch_shard(s, per_shard[s])
            for key, (parts, metas) in zip(per_shard[s], payloads):
                gathered[key][0].extend(_DecodedChunkView(t) for t in parts)
                gathered[key][1].extend(metas)
        for key, (parts, metas) in gathered.items():
            self._cache.put(key, merge_chunks(parts, metas))

    # --- storage primitives ----------------------------------------------
    def postings(self, term_hash: int, gram: int) -> Postings:
        key = (int(term_hash), int(gram))
        hit = self._cache.get(key)
        if hit is None:
            # prefetch always inserts (LRU evicts, never drops the fetch)
            self.prefetch([key])
            hit = self._cache.get(key)
        self.stat_postings_rows += len(hit.doc_ids)
        return hit

    def _call_shard(self, s: int, method: str, *args):
        """One shard RPC with replica failover."""
        errs = self._retryable_errors()
        last = None
        for _ in range(2 * len(self._groups[s]) + 1):
            try:
                return ray.get(getattr(self.shards[s], method).remote(*args))
            except errs as e:
                last = e
                self._rotate(s)
        raise last

    def _call_all_shards(self, method: str, *args) -> list:
        """Scatter one RPC to EVERY shard in parallel (launch all remotes,
        one ray.get), retrying only failed shards via the failover path —
        a sequential _call_shard loop here made NOT/doc-values latency
        grow linearly with shard count."""
        errs = self._retryable_errors()
        refs = [getattr(self.shards[s], method).remote(*args) for s in range(self.n_shards)]
        out = [None] * self.n_shards
        failed = []
        for s, r in enumerate(refs):
            try:
                out[s] = ray.get(r)
            except errs:
                failed.append(s)
        for s in failed:
            self._rotate(s)
            out[s] = self._call_shard(s, method, *args)
        return out

    def _complement(self, sorted_docs: np.ndarray) -> np.ndarray:
        docs_ref = ray.put(np.asarray(sorted_docs, dtype=np.uint64))
        parts = self._call_all_shards("complement", docs_ref)
        # shard doc slices are disjoint but not range-partitioned → one sort
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, np.uint64)

    def _range_docs(self, col: str, lo: float, hi: float) -> np.ndarray:
        parts = self._call_all_shards("range_docs", col, float(lo), float(hi))
        # shard doc slices are disjoint but not range-partitioned → one sort
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, np.uint64)

    _docstore = None

    def fetch(self, doc_ids, fields: "list[str] | None" = None):
        """Stored-field rows (ES _source analog) for result rendering on
        the sharded front: the docstore sidecars live on the shared
        filesystem beside the segments, so the front does the row-group-
        pruned point lookups directly — no shard RPC (the lookups touch
        O(k) row groups, same as the local engine)."""
        if self._docstore is None:
            from bitfunnel_ray.build.docstore import DocStore

            self._docstore = DocStore(self.index_dirs)
        return self._docstore.fetch(doc_ids, fields)

    def docvalues_for(self, sorted_ids: np.ndarray, col: str) -> np.ndarray:
        """Doc values via per-shard docmeta stripes: scatter the ids, each
        shard returns (present_ids, values) from ITS slice, and the merged
        result aligns to the input (slices are a disjoint cover) — no
        global doc-values array anywhere."""
        out = np.full(len(sorted_ids), np.nan, dtype=np.float64)
        if not len(sorted_ids):
            return out
        ids_ref = ray.put(np.asarray(sorted_ids, dtype=np.uint64))
        for ids_p, vals_p in self._call_all_shards("docvalue_fetch", ids_ref, col):
            if len(ids_p):
                out[np.searchsorted(sorted_ids, ids_p)] = vals_p
        return out

    # --- vocabulary: gathered from the shard stripes ------------------------
    def _vocab_gather(self, op: str, *args, owners=None):
        return gather(op, self._call_all_shards("vocab", op, *args), *args, owners=owners)

    def _vocab_owners(self, terms: np.ndarray) -> np.ndarray:
        """(n_terms, n_shards) mask of the shards holding a stripe of each
        term: bucket = hash % num_buckets of each segment."""
        from bitfunnel_ray.functions.hashing import hash_terms

        h = hash_terms(terms, memoize=False)
        mask = np.zeros((len(h), self.n_shards), bool)
        for nb in set(self._seg_buckets):
            shard = (h % np.uint64(nb)) % np.uint64(self.n_shards)
            mask[np.arange(len(h)), shard.astype(np.intp)] = True
        return mask

    def suggest(self, prefix: str, k: int = 10) -> pa.Table:
        """Top-k prefix completions from the shard stripes, or from a
        front-installed vocabulary when no shard carries one."""
        got = self._vocab_gather("prefix_range", prefix, int(k), owners=self._vocab_owners)
        return super().suggest(prefix, k) if got is None else got

    def correct_candidates(self, token: str, max_dist: int = 2):
        got = self._vocab_gather("candidates", token, int(max_dist))
        return super().correct_candidates(token, max_dist) if got is None else got


class ShardedQueryActor(QueryActor):
    """``runner.QueryActor`` backed by a ShardedSearchEngine."""

    def __init__(self, index_dirs, shard_handles, k: int = 10):
        self.engine = ShardedSearchEngine(index_dirs, shard_handles)
        self.k = k

    def prefetch(self, nodes: list) -> None:
        # batch-level prefetch: ONE RPC per shard touched; the per-query
        # plan phase then assembles from the warm front cache
        self.engine.prefetch([p for n in nodes for p in self.engine.query_pairs(n)])


class ShardedServer:
    """Owns the shard actors; runs query logs through Ray Data."""

    def __init__(
        self,
        index_dirs: "str | list[str]",
        n_shards: int = 4,
        num_cpus_per_shard: float = 1.0,
        n_replicas: int = 1,
    ):
        # accepts a segment dir, a build root (waves.json / seg-*), or a
        # list — resolve ONCE here; actors and fronts get concrete dirs
        self._locator = index_dirs  # pre-resolution, for refresh()
        self.index_dirs = seglib.resolve_segment_dirs(index_dirs)
        self.n_shards = int(n_shards)
        self.n_replicas = max(1, int(n_replicas))
        # shards scale the VOCABULARY (each actor holds 1/S of the dict);
        # replicas scale QPS (identical state, front-ends fan across them).
        # SPREAD placement: on a multi-node cluster, replicas of a shard
        # land on DIFFERENT nodes, so a node loss keeps every shard
        # reachable (single-node: no-op).
        self.handle_groups = [
            [
                IndexShardActor.options(
                    num_cpus=num_cpus_per_shard, scheduling_strategy="SPREAD"
                ).remote(self.index_dirs, shard, self.n_shards)
                for _r in range(self.n_replicas)
            ]
            for shard in range(self.n_shards)
        ]
        self.handles = [g[0] for g in self.handle_groups]
        ray.get(
            [h.stats.remote() for g in self.handle_groups for h in g]
        )  # block until loaded

    def engine(self) -> ShardedSearchEngine:
        return ShardedSearchEngine(self.index_dirs, self.handle_groups)

    def refresh(self) -> int:
        """NRT refresh: re-resolve the build root and open newly completed
        segments on EVERY shard replica, through the ``refresh`` each
        actor opened its dirs with (blocking — when this returns, all
        replicas serve the grown corpus).  Front-end engines are cheap
        snapshots; make a new one via ``engine()`` after a refresh (the
        per-batch fronts in ``run()`` always see the current dirs).
        Returns the number of newly opened segment dirs."""
        dirs = seglib.resolve_segment_dirs(self._locator)
        new = [d for d in dirs if d not in self.index_dirs]
        if not new:
            return 0
        ray.get(
            [h.refresh.remote(new) for g in self.handle_groups for h in g]
        )
        self.index_dirs = dirs
        return len(new)

    def shard_stats(self) -> "list[dict]":
        return ray.get([h.stats.remote() for h in self.handles])

    def run(
        self,
        queries: "ray.data.Dataset | pa.Table",
        k: int = 10,
        concurrency: int = 4,
        batch_size: int = 64,
        num_cpus_per_front: float = 1.0,
    ):
        """``num_cpus_per_front``: CPU reservation per front-end actor —
        fronts are mostly waiting on shard RPCs, so fractional values let
        fronts coexist with shard actors on small sessions (a front pool
        that demands whole CPUs a fully-reserved session cannot grant
        never starts, and run() waits forever)."""
        kwargs = {"index_dirs": self.index_dirs, "shard_handles": self.handle_groups, "k": k}
        return map_query_log(
            queries, ShardedQueryActor, kwargs, concurrency, batch_size, num_cpus_per_front
        )

    def shutdown(self) -> None:
        for g in self.handle_groups:
            for h in g:
                ray.kill(h)
        self.handles = []
