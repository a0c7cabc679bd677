"""Segment merge / compaction — completes the north-star's "shard-local
segments merged" story (reference: slices recycle into shards,
src/Index/src/Shard.cpp; here immutable additive segments are the unit).

Segments built with the same EngineConfig share term-hash bucketing, so
merging is embarrassingly parallel PER BUCKET — no shuffle: bucket b of
every input segment co-locates exactly the same term-hash range.  Each
merge task decodes its bucket's posting lists
(``encode.decode_bucket_table``, whole-bucket vectorized), concatenates across segments,
optionally drops tombstoned documents (compaction), and re-encodes with
the COMBINED avgdl so BM25 block-max metadata is exact for the merged
corpus.  Output is bit-for-bit what a from-scratch build over the union
corpus would produce (pytest asserts table equality).

Salted head-term chunks stay in their original buckets (salt participates
in routing); the merged ``heads.parquet`` is the union, so query-time
scatter still finds every chunk.

The vocab sidecar is striped the same way (stripe b = the unigrams with
``term_hash % B == b``), so the task of bucket b also sums stripe b of
every source into the merged stripe b — no exchange, no re-hashing.

Every unit of work is known to the driver (source docmeta and docstore
files, bucket ids), so the merge is two waves of plain Ray tasks
(``ops.exchange.fan_out``), not Datasets: one task per source file, then
one per bucket, once the rewritten docmeta gives avgdl.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from bitfunnel_ray.build import segment as seglib
from bitfunnel_ray.build.encode import check_bands, decode_bucket_table, encode_bucket
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.ops.exchange import fan_out


def _alive(ids: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """Mask of ``ids`` not in the sorted, non-empty ``dead``."""
    pos = np.searchsorted(dead, ids)
    pos[pos == len(dead)] = 0
    return dead[pos] != ids


def _merge_bucket(
    b: int,
    *,
    seg_dirs: "list[str]",
    out_dir: str,
    avgdl: float,
    cfg: EngineConfig,
    vocab: bool,
    dead: np.ndarray,
) -> "dict | None":
    """Merge bucket ``b`` of every source into ``out_dir`` (atomic write);
    its stats row, or None when no source has postings there."""
    from bitfunnel_ray.functions.mem import tune_allocator

    tune_allocator()
    parts = []
    for d in seg_dirs:
        p = seglib.bucket_path(d, b)
        if os.path.exists(p):
            parts.append(decode_bucket_table(pq.read_table(p)))
    if vocab:
        # one filter reads stripe b in either layout: one part per
        # stripe, or one sidecar file of mixed stripes.  Tombstoned
        # docs' df is not subtracted (df is not per-doc decomposable
        # from the sidecar) — the same freshness class as posting-level
        # df before compaction; a fresh build resets it.
        vts = [
            pq.read_table(
                os.path.join(d, "vocab"), schema=seglib.VOCAB_SCHEMA,
                columns=["term", "df"], filters=[("bucket", "=", b)],
            )
            for d in seg_dirs
        ]
        if parts or any(len(t) for t in vts):
            seglib.write_vocab_part(out_dir, b, [
                (t["term"].to_numpy(zero_copy_only=False), t["df"].to_numpy()) for t in vts
            ])
    if not parts:
        return None
    h, g, s, doc, tf, dl = (np.concatenate(col) for col in zip(*parts))
    if len(dead):
        keep = _alive(doc, dead)
        h, g, s, doc, tf, dl = h[keep], g[keep], s[keep], doc[keep], tf[keep], dl[keep]
    enc = encode_bucket(
        h, g, s, doc, tf, dl, avgdl, cfg.k1, cfg.b,
        cfg.treatment_bands or cfg.block_size,
    )
    seglib.write_bucket_atomic(enc, out_dir, b)
    return {"bucket": b, "n_chunks": len(enc), "n_postings": int(len(doc)),
            "payload_bytes": enc.nbytes}


def _merge_job(job: tuple, *, dead: np.ndarray, meta_dest: str, store_dest: str,
               row_group: int, bucket_kw: dict):
    """One task of the merge wave: ``("bucket", b)``, or ``("meta" |
    "store", path)``: one source docmeta or docstore file rewritten
    without its tombstoned rows, under a deterministic name (its first
    pre-filter doc_id).  A retried task overwrites its own earlier part
    instead of duplicating rows: both must stay exactly-once (docmeta's
    totals feed avgdl and the sharded server's doc striping).  Returns
    the bucket's stats row, (n_docs, sum_doclen), or the row count."""
    kind, arg = job
    if kind == "bucket":
        return _merge_bucket(arg, dead=dead, **bucket_kw)
    t = pq.read_table(arg)
    name = f"part-{int(t['doc_id'][0].as_py()):016x}.parquet" if len(t) else "part-empty.parquet"
    if len(dead):
        t = t.filter(pa.array(_alive(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64), dead)))
    if kind == "meta":
        pq.write_table(t, os.path.join(meta_dest, name))
        return len(t), int(np.sum(t["doclen"].to_numpy(zero_copy_only=False), dtype=np.int64))
    # no 0-row docstore part: its row group has statistics=None, which
    # DocStore.__init__ can't range-index
    if len(t):
        pq.write_table(t.sort_by("doc_id"), os.path.join(store_dest, name), row_group_size=row_group)
    return len(t)


def merge_segments(
    seg_dirs: "list[str]",
    out_dir: str,
    tombstones: "np.ndarray | None" = None,
) -> dict:
    """Merge (and optionally compact) bucket-aligned segments into one.

    ``tombstones``: doc ids to drop — their postings and docmeta rows are
    gone from the merged segment (the soft-delete anti-join becomes a real
    delete).  Idempotent/resumable like ``build_index``: completed buckets
    are skipped on rerun.
    """
    import shutil

    mans = []
    for d in seg_dirs:
        man = seglib.load_manifest(d)
        if man is None:
            raise FileNotFoundError(f"no manifest in {d}")
        mans.append(man)
    c0 = mans[0]["config"]
    for man in mans[1:]:
        c = man["config"]
        for key in ("num_buckets", "max_gram", "k1", "b", "streams"):
            if c.get(key) != c0.get(key):
                raise ValueError(
                    f"segments disagree on {key}: {c.get(key)} vs {c0.get(key)} "
                    "— bucket-aligned merge requires identical hashing/bucketing config"
                )
        # store_fields must match too: DocStore assumes the first part's
        # field list for all parts — mixed schemas would fail or silently
        # drop fields for one source's docs.
        if tuple(c.get("store_fields") or ()) != tuple(c0.get("store_fields") or ()):
            raise ValueError(
                f"segments disagree on store_fields: {c.get('store_fields')} vs "
                f"{c0.get('store_fields')} — rebuild with identical store_fields"
            )
    bands = c0.get("treatment_bands")
    cfg = EngineConfig(
        max_gram=int(c0["max_gram"]),
        k1=float(c0["k1"]),
        b=float(c0["b"]),
        block_size=int(c0["block_size"]),
        num_buckets=int(c0["num_buckets"]),
        head_df_threshold=int(c0["head_df_threshold"]),
        salt_shift=int(c0["salt_shift"]),
        streams=tuple(tuple(s) for s in c0["streams"]),
        facts=tuple(tuple(f) for f in c0.get("facts", []) or []),
        treatment_bands=tuple(tuple(b) for b in bands) if bands else None,
        store_fields=tuple(c0.get("store_fields") or ()),
    )
    check_bands(cfg.treatment_bands)
    existing = seglib.load_manifest(out_dir)
    if existing is not None and existing.get("complete"):
        return existing
    os.makedirs(out_dir, exist_ok=True)

    dead = (
        np.sort(np.asarray(tombstones, dtype=np.uint64))
        if tombstones is not None and len(tombstones)
        else np.empty(0, np.uint64)
    )

    # --- docmeta: rewritten one task per source file (tombstones
    # filtered); the totals give avgdl ------------------------------------
    meta_dir = os.path.join(out_dir, "docmeta")
    meta_done = os.path.join(meta_dir, "_DONE")
    meta_tmp = meta_dir + ".tmp"
    meta_jobs, store_jobs = [], []
    rewrite_meta = not os.path.exists(meta_done)
    if rewrite_meta:
        shutil.rmtree(meta_tmp, ignore_errors=True)
        os.makedirs(meta_tmp)
        meta_jobs = [
            ("meta", os.path.join(d, "docmeta", p))
            for d in seg_dirs
            for p in sorted(os.listdir(os.path.join(d, "docmeta")))
            if p.endswith(".parquet")
        ]

    # --- docstore: the same rewrite when EVERY source carries the
    # stored-fields sidecar (build/docstore.py); a mixed set would leave
    # fetch() silently partial, so it merges all-or-nothing --------------
    store_srcs = [os.path.join(d, "docstore") for d in seg_dirs]
    store_files = [
        os.path.join(s, p)
        for s in store_srcs
        if os.path.isdir(s)
        for p in sorted(os.listdir(s))
        if p.endswith(".parquet")
    ]
    store_dir = os.path.join(out_dir, "docstore")
    store_done = os.path.join(store_dir, "_DONE")
    store_tmp = store_dir + ".tmp"
    row_group = 2048
    rewrite_store = (
        all(os.path.isdir(s) for s in store_srcs)
        and bool(store_files)
        and not os.path.exists(store_done)
    )
    if rewrite_store:
        # keep the operator's point-lookup pruning unit: reuse the
        # source parts' row-group size instead of hardcoding one
        first_meta = pq.ParquetFile(store_files[0]).metadata
        if first_meta.num_row_groups:
            row_group = max(1, first_meta.row_group(0).num_rows)
        shutil.rmtree(store_tmp, ignore_errors=True)
        os.makedirs(store_tmp)  # all-empty files write no parts
        store_jobs = [("store", f) for f in store_files]

    # --- heads union ------------------------------------------------------
    heads = [
        pq.read_table(hp)["term_hash"].to_numpy().astype(np.uint64)
        for d in seg_dirs
        if os.path.exists(hp := os.path.join(d, "heads.parquet"))
    ]
    n_head_terms = 0
    if heads:
        head_arr = np.unique(np.concatenate(heads))
        n_head_terms = len(head_arr)
        pq.write_table(
            pa.table({"term_hash": pa.array(head_arr, pa.uint64())}),
            os.path.join(out_dir, "heads.parquet"),
        )

    # --- vocab sidecar: merged stripe by stripe in the bucket tasks below,
    # all-or-nothing like the docstore (a compacted index of --vocab
    # segments keeps suggest/fuzzy/correct working) ----------------------
    vocab = all(os.path.isdir(os.path.join(d, "vocab")) for d in seg_dirs)
    if vocab:
        os.makedirs(os.path.join(out_dir, "vocab"), exist_ok=True)

    # --- the rewrites as one task wave, then the bucket-aligned merge
    # (one task per missing bucket, no shuffle) as a second: avgdl comes
    # from the rewritten docmeta's totals
    def wave(jobs: list, avgdl: float = 1.0) -> list:
        return fan_out(partial(
            _merge_job, dead=dead, meta_dest=meta_tmp, store_dest=store_tmp,
            row_group=row_group, bucket_kw=dict(
                seg_dirs=list(seg_dirs), out_dir=out_dir, avgdl=avgdl, cfg=cfg, vocab=vocab,
            ),
        ), jobs)

    out = wave(meta_jobs + store_jobs)
    if rewrite_meta:
        metas = out[: len(meta_jobs)]
        n_docs, sum_dl = sum(n for n, _ in metas), sum(s for _, s in metas)
        shutil.rmtree(meta_dir, ignore_errors=True)
        os.replace(meta_tmp, meta_dir)
        with open(meta_done, "w") as f:
            f.write(f"{n_docs},{sum_dl}")
    else:
        with open(meta_done) as f:
            n_docs, sum_dl = (int(x) for x in f.read().split(","))
    if rewrite_store:
        rows = sum(out[len(meta_jobs):])
        if rows != n_docs:
            raise RuntimeError(
                f"merged docstore rows ({rows}) != docmeta n_docs ({n_docs}); "
                "refusing to publish"
            )
        shutil.rmtree(store_dir, ignore_errors=True)
        os.replace(store_tmp, store_dir)
        with open(store_done, "w") as f:
            f.write("ok")
    avgdl = (sum_dl / n_docs) if n_docs else 1.0
    done = seglib.completed_buckets(out_dir)
    todo = [("bucket", b) for b in range(cfg.num_buckets) if b not in done]
    bucket_stats = [r for r in wave(todo, avgdl) if r is not None]

    manifest = {
        "format_version": 1,
        "complete": True,
        "n_docs": n_docs,
        "sum_doclen": sum_dl,
        "avgdl": avgdl,
        # a vocab sidecar iff every source had one (the all-or-nothing
        # merge above)
        "config": seglib.manifest_config(cfg, vocab),
        "n_head_terms": n_head_terms,
        "merged_from": [os.path.abspath(d) for d in seg_dirs],
        "n_tombstones_compacted": int(len(dead)),
        "buckets_completed": sorted(seglib.completed_buckets(out_dir)),
        "bucket_stats": {
            int(r["bucket"]): {k: int(v) for k, v in r.items() if k != "bucket"}
            for r in bucket_stats
        },
    }
    seglib.write_manifest(out_dir, manifest)
    return manifest


# --- size-tiered compaction (the LSM policy over additive segments) --------


def next_compaction(
    seg_dirs: "list[str]",
    max_segments: int = 4,
    tier_factor: float = 4.0,
) -> "list[str] | None":
    """Pick the next merge group under the size-tiered policy.

    Streaming ingestion (``build_index_waves`` / incremental adds) leaves a
    trail of additive segments; serving cost grows with segment count (one
    dictionary lookup per segment per term).  The classic size-tiered rule
    bounds write amplification: merge PEERS (segments within
    ``tier_factor`` of the running group size), never a tiny segment into
    a giant one — a doc ingested early is rewritten O(log_F total) times
    instead of O(merges).

    Returns the list of segment dirs to merge next (ascending size,
    smallest tier first), or None when ``len(seg_dirs) <= max_segments``.
    Deterministic in the manifests, so a killed compaction rerun picks the
    same group.
    """
    if len(seg_dirs) <= max_segments:
        return None
    sizes = []
    for d in seg_dirs:
        man = seglib.load_manifest(d)
        if man is None:
            raise FileNotFoundError(f"no manifest in {d}")
        sizes.append((int(man["n_docs"] or 0), d))
    sizes.sort()
    need = len(sizes) - max_segments + 1
    group = [sizes[0]]
    total = max(1, sizes[0][0])
    for n, d in sizes[1:]:
        if len(group) >= need:
            break
        if n > tier_factor * total and len(group) >= 2:
            # next candidate is outside the tier: stop here (a later
            # compaction round merges the output with its new peers)
            break
        group.append((n, d))
        total += n
    if len(group) < 2:
        group = sizes[:2]
    return [d for _n, d in group]


def compact_segments(
    out_root: str,
    seg_dirs: "list[str]",
    max_segments: int = 4,
    tier_factor: float = 4.0,
    tombstones: "np.ndarray | None" = None,
) -> dict:
    """Run size-tiered compactions until at most ``max_segments`` remain.

    Each round merges one tier group into ``out_root/seg-merged-NNNN``
    (atomic per-bucket, resumable — ``merge_segments`` semantics) and
    replaces the group members in the live list.  Tombstones are applied
    on the FIRST merge each doc participates in (compaction is when soft
    deletes become real deletes, Ingestor.cpp:302-327 analog).

    Returns ``{"segment_dirs": [...], "merges": [{"inputs": [...],
    "output": ...}, ...]}``; query engines take ``segment_dirs``.
    """
    live = list(seg_dirs)
    merges = []
    seq = 0
    existing = set(os.listdir(out_root)) if os.path.isdir(out_root) else set()
    while True:
        group = next_compaction(live, max_segments, tier_factor)
        if group is None:
            break
        while f"seg-merged-{seq:04d}" in existing:
            seq += 1
        out_dir = os.path.join(out_root, f"seg-merged-{seq:04d}")
        existing.add(f"seg-merged-{seq:04d}")
        # tombstones go to EVERY round (idempotent — already-removed docs
        # simply aren't present).  An earlier version nulled them after
        # round 1, which RESURRECTED deleted docs living in segments that
        # only joined a later round's merge group.
        merge_segments(group, out_dir, tombstones=tombstones)
        live = [d for d in live if d not in set(group)] + [out_dir]
        merges.append({"inputs": group, "output": out_dir})
    # refresh the waves manifest if this root has one (keeps
    # ShardedServer(out_root) / waves.json consumers consistent)
    waves_path = os.path.join(out_root, "waves.json")
    if os.path.exists(waves_path):
        import json as _json

        with open(waves_path) as f:
            root = _json.load(f)
        root["segment_dirs"] = live
        root["compactions"] = root.get("compactions", []) + merges
        with open(waves_path, "w") as f:
            _json.dump(root, f)
    return {"segment_dirs": live, "merges": merges}
