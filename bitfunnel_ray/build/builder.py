"""The index build pipeline — the Ray-Data re-expression of
``Ingestor::Add`` + ``TermTableBuilder`` (reference:
src/Index/src/Ingestor.cpp:210-269, src/Index/src/TermTableBuilder.cpp:68-434).

Where the reference routes each document through shared mutable state
(shard slice locks, interlocked SetBit, a global-mutex docfreq hashmap —
SURVEY.md §4 contention points), this build is two passes over the
corpus and one wave of plain Ray tasks over the buckets, with no shared
mutable state.  Over a plain ``read_parquet`` corpus the driver plans
pieces from the parquet footers (``_file_plan``: whole files, or
row-group ranges of a larger file — the reference's one ingest task per
chunk file), and both corpus passes are ``ops.exchange.fan_out`` waves
over them; any other Dataset is mapped by Ray Data through the same
task bodies (``_corpus_map``).  A piece holds at most one spill batch
(``_spill_batch_docs``) and at most half the corpus, so even a segment
smaller than one batch spills in two tasks:

1. head-term pass  — optional df scan to find terms with df >
                     ``head_df_threshold``; their postings are salted by
                     ``doc_id >> salt_shift`` so no shuffle group explodes
                     (the skew analog of the reference giving hot terms
                     private rows, TermTableBuilder.cpp:268-287).  Skipped
                     when n_docs <= threshold (no term can qualify).
2. fused spill pass — ONE corpus read: tokenize (dictionary-coded
                     dedup, ``stages/tokenize``) → posting rows
                     (fixed-width numerics only; term text never enters
                     the spill) → per-bucket Arrow-IPC spill shards, plus
                     the ``docmeta/`` sidecar shards and the
                     (n_docs, sum_doclen) totals partials in the ack rows.
                     With the vocab sidecar, each batch's unigram
                     (term, df) partial, counted over the batch's
                     dictionary codes, is spilled by stripe next to the
                     postings.
3. encode wave     — one plain Ray task per group of buckets
                     (``ops.exchange.fan_out``: the bucket ids are known
                     to the driver, so no Dataset) reads its spill shards (row
                     counts cross-checked against the map acks), encodes
                     with the cache-blocked kernel, writes one dict
                     parquet per bucket, atomically renamed (resume unit),
                     preceded by the bucket's vocab stripe when enabled.

Resume: existing bucket files are skipped *before* the spill (their
postings are filtered out map-side), so a rerun after a kill only pays
for the missing buckets.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import shutil
import time
import uuid
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.ipc as ipc
import pyarrow.parquet as pq
import ray
import ray.data

from bitfunnel_ray.build import segment
from bitfunnel_ray.build.encode import check_bands, encode_bucket
from bitfunnel_ray.build.stats import PartialTermStats, partial_term_stats
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.functions.hashing import fact_term_hash
from bitfunnel_ray.functions.mem import tune_allocator
from bitfunnel_ray.ops.exchange import fan_out
from bitfunnel_ray.stages.filters import sample_mask
from bitfunnel_ray.stages.tokenize import tokenize_batch

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# target docs per bucket for auto-bucketing (16Ki ≈ 2M posting rows)
DOCS_PER_BUCKET = 1 << 14

POSTINGS_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),
        ("term_hash", pa.uint64()),
        ("gram_size", pa.uint8()),
        ("salt", pa.uint32()),
        ("doc_id", pa.uint64()),
        ("tf", pa.uint32()),
        ("doclen", pa.uint32()),
    ]
)


def assign_buckets(term_hash: np.ndarray, salt: np.ndarray, num_buckets: int) -> np.ndarray:
    """bucket = (term_hash ^ (salt * golden)) % B — salt spreads a head
    term's chunks across buckets; salt=0 keeps plain term_hash % B."""
    mixed = term_hash ^ (salt.astype(np.uint64) * _GOLDEN)
    return (mixed % np.uint64(num_buckets)).astype(np.int32)


class TokenizePostings:
    """corpus batch → posting rows.  Held once per spill worker
    (``_SPILL_MEMO``): the head-term hash set is fetched from the object
    store once, not re-shipped per batch."""

    def __init__(
        self,
        cfg: EngineConfig,
        head_ref=None,
        skip_buckets: frozenset[int] = frozenset(),
        vocab: bool = False,
    ):
        self.cfg = cfg
        self.skip = skip_buckets
        # vocab sidecar (StatisticsBuilder precedent — stats and ingest
        # are ONE corpus walk): build_postings also returns the per-batch
        # unigram df/cf partial over the BODY stream's PRE-stream-fold
        # hashes (the same partials PartialTermStats emits for the
        # statistics scan and the head scan)
        self.vocab = vocab
        if head_ref is not None:
            heads = ray.get(head_ref) if isinstance(head_ref, ray.ObjectRef) else head_ref
            self.head_hashes = np.sort(np.asarray(heads, dtype=np.uint64))
        else:
            self.head_hashes = np.empty(0, dtype=np.uint64)

    def _stream_postings(self, batch: pa.Table, column: str, stream_id: int):
        cfg = self.cfg
        r = tokenize_batch(batch[column], cfg.max_gram, emit_text=False)
        # stream identity folds into the stored hash (ComputeGeneralHash
        # parity: hash + streamId, wrapping — Term.cpp:328-333)
        hashes = r.term_hash + np.uint64(stream_id)
        doc_ids = batch["doc_id"].to_numpy().astype(np.uint64)[r.row]
        doclen = r.doclen[r.row].astype(np.uint32)
        return hashes, r.gram_size, doc_ids, r.tf, doclen, r.doclen, r

    def build_postings(
        self, batch: pa.Table
    ) -> "tuple[pa.Table, np.ndarray, pa.Table | None]":
        """Returns (postings table, per-document doclen of the body stream
        — the whitespace token count docmeta records, unigram df/cf partial
        table or None)."""
        tune_allocator()
        cfg = self.cfg
        parts = []
        body_doclen = np.zeros(len(batch), dtype=np.int64)
        stats_tbl = None
        for (name, col, sid) in cfg.streams:
            if col not in batch.column_names:
                continue
            is_body = col == "text" or not parts
            part = self._stream_postings(batch, col, sid)
            parts.append(part)
            if is_body:
                body_doclen = np.asarray(part[5], dtype=np.int64)
            if self.vocab and is_body:
                stats_tbl = partial_term_stats(part[6], emit_text=True, max_gram=1)
        # facts (IFactSet analog): one synthetic posting per (fact, doc)
        # where the boolean column holds — vectorized mask, tf=1, doclen =
        # body doclen so the posting layout matches every other term
        for (fname, fcol) in cfg.facts:
            if fcol not in batch.column_names:
                continue
            mask = pc.fill_null(batch[fcol].cast(pa.bool_()), False).to_numpy(
                zero_copy_only=False
            )
            sel = np.flatnonzero(mask)
            if not len(sel):
                continue
            fh = np.uint64(fact_term_hash(fname))
            parts.append(
                (
                    np.full(len(sel), fh, dtype=np.uint64),
                    np.ones(len(sel), dtype=np.uint8),
                    batch["doc_id"].to_numpy().astype(np.uint64)[sel],
                    np.ones(len(sel), dtype=np.uint32),
                    body_doclen[sel].astype(np.uint32),
                )
            )
        hashes = np.concatenate([p[0] for p in parts])
        grams = np.concatenate([p[1] for p in parts])
        doc_ids = np.concatenate([p[2] for p in parts])
        tf = np.concatenate([p[3] for p in parts])
        doclen = np.concatenate([p[4] for p in parts])
        del parts[:]  # release per-stream TokenizeResults before the sort
        salt = np.zeros(len(hashes), dtype=np.uint32)
        if self.head_hashes.size:
            pos = np.searchsorted(self.head_hashes, hashes)
            pos[pos == len(self.head_hashes)] = 0
            is_head = self.head_hashes[pos] == hashes
            salt[is_head] = (doc_ids[is_head] >> np.uint64(cfg.salt_shift)).astype(np.uint32)
        bucket = assign_buckets(hashes, salt, cfg.num_buckets)
        keep = ~np.isin(bucket, list(self.skip)) if self.skip else slice(None)
        tbl = pa.table(
            {
                "bucket": pa.array(bucket[keep], pa.int32()),
                "term_hash": pa.array(hashes[keep], pa.uint64()),
                "gram_size": pa.array(grams[keep], pa.uint8()),
                "salt": pa.array(salt[keep], pa.uint32()),
                "doc_id": pa.array(doc_ids[keep], pa.uint64()),
                "tf": pa.array(tf[keep], pa.uint32()),
                "doclen": pa.array(doclen[keep], pa.uint32()),
            },
            schema=POSTINGS_SCHEMA,
        )
        return tbl, body_doclen, stats_tbl


# --- external (disk-spill) shuffle path -----------------------------------

ACK_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),
        ("rows", pa.int64()),
        ("vocab_rows", pa.int64()),
        ("n_docs", pa.int64()),
        ("sum_doclen", pa.int64()),
    ]
)


def _spill_bucket_shards(
    table: pa.Table, spill_dir: str, compression: str | None = None,
    shard: str | None = None, kind: str = "part",
) -> "dict[int, int]":
    """Split a table by its ``bucket`` column and write one Arrow-IPC
    spill shard per bucket, ``bucket=B/{kind}-{shard}.arrow`` (classic
    map-side shuffle-file layout; ``kind`` separates the postings from
    the vocab partials that share the bucket dir).  The bucket id lives
    in the directory name, so the shard itself drops the bucket column —
    4 fewer bytes per posting in the spill.  Returns {bucket: rows}.

    ``shard`` names the per-batch file; callers pass a value derived
    deterministically from the batch (first doc_id) so a Ray task RETRY
    overwrites its own earlier shard instead of appending a duplicate
    (exactly-once spill under task retries)."""
    buckets = table["bucket"].to_numpy(zero_copy_only=False)
    order = np.argsort(buckets, kind="stable")
    sorted_b = buckets[order]
    starts = np.flatnonzero(np.diff(sorted_b, prepend=-1))
    bounds = np.append(starts, len(sorted_b))
    idx = pa.array(order)
    payload = table.drop_columns(["bucket"])
    out = {}
    shard = shard or uuid.uuid4().hex
    opts = ipc.IpcWriteOptions(compression=compression) if compression else None
    for i in range(len(starts)):
        b = int(sorted_b[starts[i]])
        sub = payload.take(idx.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i])))
        d = os.path.join(spill_dir, f"bucket={b:05d}")
        os.makedirs(d, exist_ok=True)
        with ipc.new_file(
            os.path.join(d, f"{kind}-{shard}.arrow"), sub.schema, options=opts
        ) as w:
            w.write_table(sub)
        out[b] = len(sub)
    return out


def _read_spilled(spill_dir: str, bucket: int, kind: str, expected: int) -> "pa.Table | None":
    """All ``kind`` spill shards of one bucket, or None when the acks
    recorded none.  Shard-loss guard: if the rows visible here differ from
    the map-side acks (e.g. spill_root is node-local on a multi-node
    cluster and this task landed on another node), the build FAILS LOUDLY
    instead of writing a silently-incomplete index."""
    if not expected:
        return None
    files = sorted(
        glob.glob(os.path.join(spill_dir, f"bucket={bucket:05d}", f"{kind}-*.arrow"))
    )
    if not files:
        raise RuntimeError(
            f"{kind} spill shards for bucket {bucket} missing under {spill_dir} "
            f"(expected {expected} rows) — spill_root must be shared across nodes"
        )
    parts = []
    for f in files:
        with pa.memory_map(f) as mm:  # zero-copy read off RAM-backed spill
            parts.append(ipc.open_file(mm).read_all())
    tbl = pa.concat_tables(parts).combine_chunks()
    if len(tbl) != expected:
        raise RuntimeError(
            f"bucket {bucket}: read {len(tbl)} spilled {kind} rows but map acks "
            f"recorded {expected} — shards lost (node-local spill_root on multi-node?)"
        )
    return tbl


class TokenizeSpill:
    """THE build map task, fused: corpus batch → tokenize → postings →
    per-bucket spill shards, plus the docmeta sidecar shard and the
    (n_docs, sum_doclen) partials — ONE streaming pass over the corpus
    replaces the former separate doc-meta pass + distributed totals
    aggregate + tokenize pass (each a full corpus read).

    With ``cfg.extra["vocab_sidecar"]`` the batch's unigram (term, df)
    partial is spilled too, routed by stripe (``term_hash % B``, the
    sidecar's bucket) into the same bucket dirs, so the encode task of
    bucket b finishes stripe b — no exchange of its own.

    Returns one ack row per bucket touched (the encode side cross-checks
    spilled posting and vocab row counts against these and aborts on
    shard loss) plus one summary row (bucket = -1) carrying the
    doc-count/doclen partials."""

    def __init__(self, cfg, head_ref, skip_buckets, spill_dir: str, meta_dir: str):
        self.tp = TokenizePostings(
            cfg, head_ref, skip_buckets, vocab=bool(cfg.extra.get("vocab_sidecar"))
        )
        self.spill_dir = spill_dir
        self.meta_dir = meta_dir
        # stored-fields sidecar (build/docstore.py) — staged beside the
        # docmeta tmp dir and published atomically with it
        self.store_dir = (meta_dir + "-docstore") if cfg.store_fields else None
        # lz4 IPC — 2M-doc interleaved A/B: at 32-way
        # concurrency the RAM-backed spill is memory-bandwidth-bound and
        # lz4 halves the spill stage (18.7 s -> 8.8 s) while costing ~4%
        # at 8-way (compression CPU scales with cores; the bus doesn't).
        # On a real cluster spill is node-local SSD/NVMe, where
        # compression is the standard default anyway.
        self.compression = "lz4"

    def _vocab_partial(self, uni: pa.Table) -> pa.Table:
        """(bucket, term, df) rows of one batch's unigram partial, bucket =
        the stripe ``term_hash % B``; stripes already on disk are dropped."""
        h = uni["term_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
        stripe = (h % np.uint64(self.tp.cfg.num_buckets)).astype(np.int32)
        vt = pa.table(
            {"bucket": pa.array(stripe), "term": uni["term"], "df": uni["df_part"]}
        )
        if self.tp.skip:
            vt = vt.filter(pa.array(~np.isin(stripe, list(self.tp.skip))))
        return vt

    def __call__(self, batch: pa.Table) -> pa.Table:
        postings, body_doclen, stats_tbl = self.tp.build_postings(batch)
        # Batch identity for every file this task writes: the first doc_id
        # is unique per batch (doc_ids are unique and batch membership is
        # deterministic), so a retried task OVERWRITES its earlier partial
        # output instead of duplicating rows — docmeta stays exactly-once
        # under worker crashes (a uuid4 name here silently double-counted
        # docs on retry).
        batch_tag = f"{int(batch['doc_id'][0].as_py()):016x}" if len(batch) else uuid.uuid4().hex
        # docmeta shard (doc_id, url, doclen, n_bytes — DocTable analog)
        nbytes = pc.binary_length(batch["text"].cast(pa.binary())) if "text" in batch.column_names else pa.nulls(len(batch), pa.int64())
        meta_cols = {
            "doc_id": batch["doc_id"],
            "url": batch["url"] if "url" in batch.column_names else pa.nulls(len(batch), pa.string()),
            "doclen": pa.array(body_doclen),
            "n_bytes": nbytes.cast(pa.int64()),
        }
        # numeric doc-values fast-field (Lucene NumericDocValues / Tantivy
        # fast-field analog): epoch-seconds of warc_ts, stored columnar in
        # docmeta so serve-time range filters never rescan the corpus
        if "warc_ts" in batch.column_names:
            meta_cols["warc_ts_s"] = (
                batch["warc_ts"].cast(pa.timestamp("s")).cast(pa.int64())
            )
        meta = pa.table(meta_cols)
        os.makedirs(self.meta_dir, exist_ok=True)
        pq.write_table(meta, os.path.join(self.meta_dir, f"part-{batch_tag}.parquet"))
        if self.store_dir and len(batch):
            # stored-fields sidecar (build/docstore.py): doc_id-sorted so
            # parquet row-group stats give tight ranges for point lookups;
            # same retry-overwrite naming as docmeta
            cols = {"doc_id": batch["doc_id"].cast(pa.int64())}
            for f in self.tp.cfg.store_fields:
                if f in batch.column_names:
                    cols[f] = batch[f]
            store = pa.table(cols).sort_by("doc_id")
            os.makedirs(self.store_dir, exist_ok=True)
            pq.write_table(
                store,
                os.path.join(self.store_dir, f"part-{batch_tag}.parquet"),
                # small row groups = the point-lookup pruning unit; 2048
                # text rows ≈ a few MB — one seek's worth per fetch hit
                row_group_size=int(self.tp.cfg.extra.get("docstore_row_group", 2048)),
            )
        rows, vrows = {}, {}
        if len(postings):
            rows = _spill_bucket_shards(
                postings, self.spill_dir, self.compression, shard=batch_tag
            )
        if stats_tbl is not None:
            vrows = _spill_bucket_shards(
                self._vocab_partial(stats_tbl), self.spill_dir, self.compression,
                shard=batch_tag, kind="vocab",
            )
        out_b = sorted(set(rows) | set(vrows))
        pad = [0] * len(out_b)
        return pa.table(
            {
                "bucket": pa.array(out_b + [-1], pa.int32()),
                "rows": pa.array([rows.get(b, 0) for b in out_b] + [0], pa.int64()),
                "vocab_rows": pa.array([vrows.get(b, 0) for b in out_b] + [0], pa.int64()),
                "n_docs": pa.array(pad + [len(batch)], pa.int64()),
                "sum_doclen": pa.array(
                    pad + [int(np.sum(body_doclen, dtype=np.int64))], pa.int64()
                ),
            },
            schema=ACK_SCHEMA,
        )


# Worker-process memo for the spill task body: a piece task or a
# map_batches FUNCTION runs stateless (no actor-pool startup per build — a
# fresh 32-actor pool costs ~2s, paid per WAVE in build_index_waves), and
# the memo re-creates actor-style amortization: each worker process builds
# the (sorted head set, compiled state) once per spill_dir and reuses it
# across all its tasks.
_SPILL_MEMO: dict = {}


def _spill_map(batch: pa.Table, *, ctor: tuple) -> pa.Table:
    cfg, head_ref, skip, spill_dir, meta_dir = ctor
    ts = _SPILL_MEMO.get(spill_dir)
    if ts is None:
        ts = TokenizeSpill(cfg, head_ref, skip, spill_dir, meta_dir)
        _SPILL_MEMO.clear()  # one live spill per worker; drop stale state
        _SPILL_MEMO[spill_dir] = ts
    return ts(batch)


def _encode_num_cpus(cfg: EngineConfig) -> float:
    """CPUs reserved per encode task.  Encode is memory-bandwidth-bound,
    not compute-bound: at full task-per-core concurrency 32 concurrent
    varint/EF packers thrash the shared bus and run ABSOLUTELY slower
    than 16 (measured 2M-doc A/B: encode 16.2-23.6 s at 32-way vs
    8.4-18.3 s at 16-way, min-of-2 each).  2 CPUs per task halves the
    concurrent encode tasks per node; on a real cluster this is per-node
    bandwidth management, the same knob.  Small sessions (< 16 CPUs —
    unit tests, laptops) keep 1: the bus isn't contended there, and a
    2-CPU reservation can deadlock against live actor pools."""
    cpus = ray.cluster_resources().get("CPU", 0)
    return float(cfg.extra.get("encode_num_cpus", 2 if cpus >= 16 else 1))


def _encode_groups(work: "list[tuple[int, int, int]]", cfg: EngineConfig) -> "list[list]":
    """``(bucket, rows, vocab_rows)`` grouped into encode tasks: several
    small buckets per task amortize its fixed cost (glob, parquet write),
    which dominates once auto-bucketing or wave splits shrink buckets
    below ~1M postings, without starving the encode pool (≥ 2 tasks per
    slot) or blowing the per-task row budget (~4M postings).  The sort
    working set stays per-bucket either way."""
    if not work:
        return []
    mean_rows = max(1, sum(r for _b, r, _v in work) // len(work))
    cpus = int(ray.cluster_resources().get("CPU", 8))
    slots = max(1, int(cpus // max(1.0, _encode_num_cpus(cfg))))
    step = max(1, min(len(work) // (2 * slots), 4_000_000 // mean_rows))
    return [work[i : i + step] for i in range(0, len(work), step)]


def encode_spilled_bucket(
    buckets: "list[tuple[int, int, int]]",
    *, spill_dir: str, out_dir: str, avgdl: float, cfg: EngineConfig,
) -> "list[dict]":
    """Reduce-side, one task per group of ``(bucket, expected_rows,
    expected_vocab_rows)``: read each bucket's spill shards, encode,
    write the atomic dict file.  With the vocab sidecar, first sum the
    bucket's (term, df) partials into its stripe and write that (a stripe
    may have vocab rows but no postings: its head terms were salted into
    other buckets).  Row counts are cross-checked against the map acks
    (``_read_spilled``); on multi-node clusters spill_root must be a
    shared filesystem."""
    tune_allocator()
    rows = []
    for b, exp, vexp in buckets:
        if cfg.extra.get("vocab_sidecar"):
            vt = _read_spilled(spill_dir, b, "vocab", vexp)
            parts = [] if vt is None else [
                (vt["term"].to_numpy(zero_copy_only=False), vt["df"].to_numpy())
            ]
            segment.write_vocab_part(out_dir, b, parts)
        tbl = _read_spilled(spill_dir, b, "part", exp)
        if tbl is None:
            continue
        enc = encode_bucket(
            tbl["term_hash"].to_numpy(zero_copy_only=False),
            tbl["gram_size"].to_numpy(zero_copy_only=False),
            tbl["salt"].to_numpy(zero_copy_only=False),
            tbl["doc_id"].to_numpy(zero_copy_only=False),
            tbl["tf"].to_numpy(zero_copy_only=False),
            tbl["doclen"].to_numpy(zero_copy_only=False),
            avgdl, cfg.k1, cfg.b, cfg.treatment_bands or cfg.block_size,
        )
        segment.write_bucket_atomic(enc, out_dir, b)
        rows.append({"bucket": b, "n_chunks": len(enc), "n_postings": len(tbl),
                     "payload_bytes": enc.nbytes})
    return rows


def effective_num_buckets(cfg: EngineConfig, corpus: "ray.data.Dataset") -> int:
    """Scale the shuffle/segment bucket count with corpus size.

    Buckets are the unit of encode parallelism AND of per-task working-set
    size; measured on this box (BASELINE.md round-2 perf notes), encode
    wall-time goes superlinear once a bucket holds the postings of more
    than ~30k web documents (~4M posting rows — the radix parts stay
    cache-blocked, but the per-task concat/sort working set leaves the
    shared LLC and 32 concurrent tasks saturate the memory bus).  Target
    ~``DOCS_PER_BUCKET`` docs per bucket (16Ki ≈ 2M posting rows),
    rounded up to a power of two, never below ``cfg.num_buckets``.

    Only applies when the corpus row count is free (parquet metadata —
    ``_meta_count``); a transformed Dataset keeps the configured count
    rather than paying an execution pass.  Disable with
    ``extra={"auto_buckets": False}``.  Deterministic in the corpus, so
    resume runs re-derive the same count.
    """
    if not cfg.extra.get("auto_buckets", True):
        return cfg.num_buckets
    try:
        n = corpus._meta_count()
    except Exception:
        n = None
    if not n:
        return cfg.num_buckets
    need = 1 << max(0, int(np.ceil(np.log2(max(1.0, n / DOCS_PER_BUCKET)))))
    return max(cfg.num_buckets, need)


def _spill_batch_docs(num_buckets: int) -> int:
    """Docs per tokenize/spill task: the most rows a corpus piece (or a
    Dataset batch) holds.  It pins the spill-shard count
    (and the per-shard size) independent of input block layout and CPU
    count — identical work shape at every parallelism.  It SCALES with
    the bucket count so the per-(task, bucket) shard stays ~8k postings
    as auto-bucketing grows the segment: at 4096 docs/task a 256-bucket
    build writes tasks×buckets ≈ 250k tiny (~2k-posting) shards and both
    spill and encode go file-metadata-bound (measured 4M-doc A/B:
    16384-doc batches beat 4096 in 4/4 interleaved runs, best 134k vs
    91k docs/s).  Deterministic in the config, so resume and both
    scaling-run CPU levels see identical work.

    A parquet plan (``_file_plan``) further caps a piece at ⌈n/2⌉ of a
    corpus of n rows, so a corpus below two batches still spills in
    ``MIN_PIECES`` tasks; the cap depends on the corpus only, never on
    the CPU count, for the same reason."""
    return min(65536, max(8192, 4096 * (num_buckets // 64)))


# A parquet plan splits a corpus into at least this many pieces (while it
# has that many rows): one small segment's spill then runs on two CPUs
# instead of one.  A constant, not the CPU count, so every run of the same
# corpus plans the same pieces.
MIN_PIECES = 2


def _file_plan(paths: "list[str]", batch_rows: int, fs=None) -> tuple:
    """``(filesystem, pieces)`` over parquet ``paths``, planned from their
    footers in path order.  A piece is a tuple of ``(path, lo, hi)`` row
    ranges holding at most ``min(batch_rows, ⌈n / MIN_PIECES⌉)`` rows
    for n rows over all files: consecutive whole files, or one row-group
    range of a larger file (a row group longer than that is cut too).
    Zero-row files are dropped.

    The ⌈n/2⌉ cap only binds below 2 × ``batch_rows`` rows; there it
    splits a small segment's spill (and head scan) over two tasks.  It
    reads the corpus size, never the CPU count: a resumed build and both
    CPU levels of a scaling run must plan the same pieces, because the
    spill-shard and docmeta file names follow the pieces."""
    if fs is None:
        from ray.data.datasource.path_util import _resolve_paths_and_filesystem

        paths, fs = _resolve_paths_and_filesystem(paths)
    footers = [(path, pq.read_metadata(path, filesystem=fs)) for path in sorted(paths)]
    total = sum(md.num_rows for _p, md in footers)
    batch_rows = min(batch_rows, -(-total // MIN_PIECES))
    pieces, room = [], 0  # room: rows the last piece of whole files can take
    for path, md in footers:
        n = md.num_rows
        if n > batch_rows:  # ranges closed at a row-group end, or cut
            start = lo = room = 0
            for i in range(md.num_row_groups):
                end = start + md.row_group(i).num_rows
                while end - lo > batch_rows:
                    hi = start if start > lo else lo + batch_rows
                    pieces.append(((path, lo, hi),))
                    lo = hi
                start = end
            pieces.append(((path, lo, n),))
        elif 0 < n <= room:
            pieces[-1] += ((path, 0, n),)
            room -= n
        elif n:
            pieces.append(((path, 0, n),))
            room = batch_rows - n
    return fs, pieces


def _parquet_plan(corpus: "ray.data.Dataset", batch_rows: int) -> "tuple | None":
    """The ``_file_plan`` of a plain ``read_parquet`` Dataset (its plan is
    one Read of parquet files: no row filter, block udf, read schema, path
    column or partition directory), else None."""
    from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
    from ray.data.datasource.partitioning import PathPartitionParser

    op = getattr(getattr(corpus, "_logical_plan", None), "dag", None)
    src = getattr(op, "_datasource", None)
    if not isinstance(src, ParquetDatasource) or op.input_dependencies:
        return None
    if (src._block_udf or src._to_batches_kwargs.get("filter") is not None
            or src._read_schema is not None or src._include_paths):
        return None
    if src._partitioning and any(map(PathPartitionParser(src._partitioning), src._pq_paths)):
        return None
    return _file_plan(src._pq_paths, batch_rows, fs=src._filesystem)


def _read_piece(piece: tuple, columns: "list[str]", fs) -> pa.Table:
    parts = []
    for path, lo, hi in piece:  # the row groups holding [lo, hi), cut to it
        with pq.ParquetFile(path, filesystem=fs) as f:
            starts = np.cumsum([0] + [f.metadata.row_group(i).num_rows for i in range(f.num_row_groups)])
            g0, g1 = int(np.searchsorted(starts, lo, "right")) - 1, int(np.searchsorted(starts, hi))
            t = f.read_row_groups(range(g0, g1), columns=columns)
        parts.append(t.slice(lo - int(starts[g0]), hi - lo))
    return pa.concat_tables(parts, promote_options="default")


def _map_piece(piece: tuple, *, fn, columns: "list[str]", fs) -> pa.Table:
    return fn(_read_piece(piece, columns, fs))


def _corpus_map(fn, corpus, plan, columns: "list[str]", batch_size) -> list:
    """Object refs to ``fn``'s tables over the corpus rows (``columns``
    only): one plain task per piece of ``plan`` (``_parquet_plan``), or,
    for any other Dataset (``plan`` None), a Ray Data map over batches of
    ``batch_size`` rows.  ``fn`` is the same task body either way."""
    if plan is not None:
        fs, pieces = plan
        return fan_out(partial(_map_piece, fn=fn, columns=columns, fs=fs), pieces, as_refs=True)
    return (
        corpus.select_columns(columns)
        .map_batches(fn, batch_size=batch_size, batch_format="pyarrow")
        .materialize()
        .to_arrow_refs()
    )


def _head_partial(t: pa.Table, *, max_gram: int, fraction: float) -> pa.Table:
    """The head scan's task body: the df partial of a batch's sampled rows
    (``sample_mask``; ``fraction`` 1 keeps every row)."""
    if fraction < 1.0 and len(t):
        t = t.filter(sample_mask(t, fraction))
    return PartialTermStats(max_gram, emit_text=False)(t)


def scan_head_terms(
    corpus: "ray.data.Dataset | None",
    cfg: EngineConfig,
    skip_count: bool = False,
    files: "list[str] | None" = None,
) -> np.ndarray:
    """Terms with df > ``cfg.head_df_threshold`` (the skew-salting head
    set).  Head detection is a HEURISTIC (any head set yields identical
    results — pytest salted==unsalted), so the df scan runs on a
    deterministic sample when the sampled df at the threshold is
    statistically solid (≥ 50 expected postings): with ``files`` given and
    plentiful, a FILE-stride sample (only 1/rate of the corpus leaves
    storage — the pruned-read form); else a hash-sample of rows (still a
    full read, 5% of the tokenize).  Over parquet files (the stride
    sample, a plain ``read_parquet`` corpus) the scan is one plain task
    per piece (``_corpus_map``), else a Ray Data map.  The df partials of
    the sample stay in the object store, one per piece or block, and
    ``terms_over`` finds the terms over the threshold in two rounds of
    map tasks: no hash exchange, and the same set whatever the split."""
    from bitfunnel_ray.ops.suggest import terms_over

    rate = float(cfg.extra.get("head_sample_rate", 0.05))
    stride = max(1, int(round(1.0 / rate))) if rate > 0 else 1
    batch = _spill_batch_docs(cfg.num_buckets)
    frac, thr = 1.0, cfg.head_df_threshold
    if (
        files is not None
        and len(files) >= 2 * stride
        and cfg.head_df_threshold * rate >= 50
    ):
        sub = sorted(files)[::stride]
        plan = _file_plan(sub, batch)
        thr = int(cfg.head_df_threshold * (len(sub) / len(files)))
    else:
        if corpus is None:
            corpus = ray.data.read_parquet(files)
        if not skip_count and corpus.count() <= cfg.head_df_threshold:
            return np.empty(0, dtype=np.uint64)
        plan = _parquet_plan(corpus, batch)
        if 0.0 < rate < 1.0 and cfg.head_df_threshold * rate >= 50:
            frac, thr = rate, int(cfg.head_df_threshold * rate)
    body = partial(_head_partial, max_gram=cfg.max_gram, fraction=frac)
    parts = _corpus_map(body, corpus, plan, ["doc_id", "text"], None)
    heads = terms_over(parts, ["term_hash", "gram_size"], "df_part", thr)
    if not len(heads):
        return np.empty(0, dtype=np.uint64)
    return np.unique(heads["term_hash"].to_numpy().view(np.uint64))


def build_index(
    corpus: "ray.data.Dataset",
    out_dir: str,
    cfg: EngineConfig | None = None,
    _defer_encode: bool = False,
) -> dict:
    """Build (or resume) one index segment from a corpus Dataset.

    Returns the manifest dict.  Idempotent: a completed segment returns
    immediately; a partial one rebuilds only missing buckets.

    ``cfg.extra["vocab_sidecar"]``: also write the serving vocabulary,
    ``vocab/part-{b:05d}.parquet`` = the unigram (term, df, bucket) rows
    of stripe b, from the same pass (see ``TokenizeSpill``).

    ``_defer_encode`` (internal, used by ``build_index_waves``): return
    right after the spill pass with ``{"deferred": True, "finish": fn}``;
    calling ``finish()`` runs the encode wave + manifest write, with at
    most half the cluster's CPUs' worth of encode tasks in flight.  Lets a
    caller overlap this segment's (memory-bandwidth-bound) encode with the
    NEXT segment's (compute-bound) tokenize/spill.
    """
    cfg = cfg or EngineConfig()
    check_bands(cfg.treatment_bands)
    eff_buckets = effective_num_buckets(cfg, corpus)
    if eff_buckets != cfg.num_buckets:
        cfg = dataclasses.replace(cfg, num_buckets=eff_buckets)
    t0 = time.time()
    stage_s: dict[str, float] = {}

    def _mark(name: str, since: float) -> float:
        now = time.time()
        stage_s[name] = round(now - since, 3)
        return now

    os.makedirs(out_dir, exist_ok=True)
    existing = segment.load_manifest(out_dir)
    if existing is not None and existing.get("complete"):
        return existing

    # input lineage (north-rule: per-partition lineage in the checkpoint):
    # which source files this segment was built from — free for parquet
    # reads, empty for synthetic/transformed inputs
    try:
        input_files = sorted(
            getattr(corpus, "_bfr_input_files", None) or corpus.input_files() or []
        )
    except Exception:
        input_files = []

    meta_dir = os.path.join(out_dir, "docmeta")
    meta_done = os.path.join(meta_dir, "_DONE")
    done = frozenset(segment.completed_buckets(out_dir))
    vocab = bool(cfg.extra.get("vocab_sidecar"))
    if vocab:  # the dir exists even when no stripe has rows
        os.makedirs(os.path.join(out_dir, "vocab"), exist_ok=True)
    # The spill pass also writes docmeta and the corpus totals (one
    # streaming read of the corpus).  Only a resumed build that finds
    # every bucket and docmeta done skips it and reads the totals back.
    spill = len(done) < cfg.num_buckets or not os.path.exists(meta_done)
    n_docs = sum_dl = None
    avgdl = 1.0
    t1 = t0
    if not spill:
        # the doclen column of docmeta, read in the driver: 8 bytes a doc
        doclen = pq.read_table(meta_dir, columns=["doclen"])["doclen"]
        n_docs, sum_dl = len(doclen), int(pc.sum(doclen).as_py() or 0)
        avgdl = (sum_dl / n_docs) if n_docs else 1.0
        t1 = _mark("totals", t1)

    # --- head terms for skew salting (must precede the postings pass —
    # the salt participates in bucket routing) ---------------------------
    head_ref = None
    n_head_terms = 0
    pre_heads = cfg.extra.get("head_hashes")
    if pre_heads is not None:
        # caller already ran a statistics pass (the reference's own order:
        # statistics → termtable build → ingest) and hands the head-term
        # hashes over directly — no scan here
        head_arr = np.asarray(pre_heads, dtype=np.uint64)
    elif (n_docs if n_docs is not None else corpus.count()) > cfg.head_df_threshold:
        head_arr = scan_head_terms(corpus, cfg, skip_count=True)
    else:
        head_arr = np.empty(0, dtype=np.uint64)
    if cfg.facts:
        # facts are potentially corpus-sized posting lists by construction
        # (a popular predicate holds for most documents), so their chunks
        # are ALWAYS salted — the guaranteed-whale analog of the
        # reference's private rows for system facts (FactSetBase.cpp)
        fact_arr = np.array(
            [fact_term_hash(n) for (n, _c) in cfg.facts], dtype=np.uint64
        )
        head_arr = np.union1d(head_arr, fact_arr)
    if len(head_arr):
        head_arr = np.sort(head_arr)
        head_ref = ray.put(head_arr)
        n_head_terms = len(head_arr)
        # sidecar for query-time routing: a salted head term's chunks
        # live in MANY buckets, so a term-sharded server must scatter
        # lookups for these hashes to every shard (query/sharded.py)
        pq.write_table(
            pa.table({"term_hash": pa.array(head_arr, pa.uint64())}),
            os.path.join(out_dir, "heads.parquet"),
        )

    t1 = _mark("head_scan", t1)

    # --- fused spill + per-bucket encode --------------------------------
    # One corpus read (a task per piece, or one Dataset map) does
    # tokenize → per-bucket spill shards (postings, and vocab partials by
    # stripe) + docmeta shards + totals partials; then one encode task per
    # group of buckets — no exchange operator, no aggregator actors.
    # MULTI-NODE: spill_root must be a shared filesystem (encode tasks may
    # land on any node); the ack row-count cross-check in
    # encode_spilled_bucket aborts the build if shards are missing.
    bucket_stats: list[dict] = []
    deferred_encode = None
    if spill:
        # spill to RAM-backed storage when available (the node-local
        # shuffle-SSD analog); fall back to the output filesystem
        spill_root = cfg.extra.get(
            "spill_root", "/dev/shm" if os.path.isdir("/dev/shm") else out_dir
        )
        spill_dir = os.path.join(spill_root, f".bfr-spill-{uuid.uuid4().hex[:8]}")
        os.makedirs(spill_dir, exist_ok=True)
        meta_tmp = meta_dir + ".tmp"
        shutil.rmtree(meta_tmp, ignore_errors=True)
        shutil.rmtree(meta_tmp + "-docstore", ignore_errors=True)
        try:
            ok = False
            schema = corpus.schema()  # None when the Dataset has no blocks
            schema_names = schema.names if schema is not None else []
            stream_cols = [c for (_n, c, _s) in cfg.streams]
            stream_cols += [c for (_n, c) in cfg.facts if c not in stream_cols]
            stream_cols = [c for c in stream_cols if c in schema_names]
            sel = (
                ["doc_id"]
                + [c for c in ("url", "warc_ts") if c in schema_names]
                + stream_cols
            )
            missing_store = [c for c in cfg.store_fields if c not in schema_names]
            if missing_store:
                # fail LOUDLY at build time: silently storing nothing
                # passes every row-count cross-check and only explodes
                # weeks later at fetch time
                raise ValueError(
                    f"store_fields {missing_store} not in the corpus "
                    f"schema {sorted(schema_names)}"
                )
            sel += [c for c in cfg.store_fields if c not in sel]
            spill_batch = _spill_batch_docs(cfg.num_buckets)
            # task args must stay tiny: the head set travels as an
            # ObjectRef (head_ref), never inline in cfg.extra
            cfg_task = cfg
            if "head_hashes" in cfg.extra:
                cfg_task = dataclasses.replace(
                    cfg,
                    extra={k: v for k, v in cfg.extra.items() if k != "head_hashes"},
                )
            # plain tasks (function + worker memo), NOT an actor pool:
            # actor startup is ~2s, and build_index_waves spills per wave
            body = partial(_spill_map, ctor=(cfg_task, head_ref, done, spill_dir, meta_tmp))
            plan = _parquet_plan(corpus, spill_batch)
            tables = [t for t in ray.get(_corpus_map(body, corpus, plan, sel, spill_batch)) if t.num_columns]
            acks = pa.concat_tables(tables or [ACK_SCHEMA.empty_table()]).to_pandas()
            t1 = _mark("tokenize_spill", t1)
            summary = acks[acks.bucket < 0]
            n_docs = int(summary.n_docs.sum())
            if not n_docs:
                raise ValueError(f"the corpus has no rows: no index segment to build in {out_dir}")
            sum_dl = int(summary.sum_doclen.sum())
            avgdl = (sum_dl / n_docs) if n_docs else 1.0
            # publish the docmeta sidecar before encode so a crash
            # mid-encode leaves docmeta complete for the resume run.
            # Cross-check first: parquet-metadata row count must equal
            # the ack-derived n_docs (same guard the spill shards get) —
            # catches any residual duplicate/lost docmeta shard.
            meta_rows = sum(
                pq.ParquetFile(os.path.join(meta_tmp, f)).metadata.num_rows
                for f in os.listdir(meta_tmp)
                if f.endswith(".parquet")
            )
            if meta_rows != n_docs:
                raise RuntimeError(
                    f"docmeta rows ({meta_rows}) != ack n_docs ({n_docs}) — "
                    "duplicate or lost docmeta shard; refusing to publish"
                )
            shutil.rmtree(meta_dir, ignore_errors=True)
            os.replace(meta_tmp, meta_dir)
            store_tmp = meta_tmp + "-docstore"
            if cfg.store_fields and os.path.isdir(store_tmp):
                # same exactly-once cross-check as docmeta
                store_rows = sum(
                    pq.ParquetFile(os.path.join(store_tmp, f)).metadata.num_rows
                    for f in os.listdir(store_tmp)
                    if f.endswith(".parquet")
                )
                if store_rows != n_docs:
                    raise RuntimeError(
                        f"docstore rows ({store_rows}) != ack n_docs ({n_docs}) — "
                        "duplicate or lost docstore shard; refusing to publish"
                    )
                store_dir = os.path.join(out_dir, "docstore")
                shutil.rmtree(store_dir, ignore_errors=True)
                os.replace(store_tmp, store_dir)
            with open(meta_done, "w") as f:
                f.write("ok")
            # per-bucket expected posting and vocab row counts: the encode
            # side cross-checks rows actually read vs these acks and fails
            # loudly on loss
            per_bucket = (
                acks[acks.bucket >= 0]
                .groupby("bucket")[["rows", "vocab_rows"]]
                .sum()
                .astype(int)
            )
            enc_cpus = _encode_num_cpus(cfg)
            groups = _encode_groups([
                (int(b), int(r), int(v))
                for b, r, v in zip(per_bucket.index, per_bucket["rows"], per_bucket["vocab_rows"])
            ], cfg)
            # In deferred (overlap) mode the encode runs CONCURRENTLY with
            # the next wave's spill: cap concurrent encode tasks to half
            # the cluster so the bandwidth-floored encode never starves
            # the compute-bound spill of CPUs (uncapped, 16 tasks x 2 cpus
            # reserve the whole 32-cpu box and the "overlap" degenerates
            # to alternation)
            cap = (
                max(1, int(ray.cluster_resources().get("CPU", 8) // (2 * enc_cpus)))
                if _defer_encode
                else None
            )

            def _encode_phase(groups=groups, spill_dir=spill_dir, avgdl=avgdl) -> "list[dict]":
                te = time.time()
                try:
                    out = fan_out(
                        partial(
                            encode_spilled_bucket,
                            spill_dir=spill_dir,
                            out_dir=out_dir,
                            avgdl=avgdl,
                            cfg=cfg_task,
                        ),
                        groups,
                        num_cpus=enc_cpus,
                        max_in_flight=cap,
                    )
                    _mark("encode", te)
                    return [r for rows in out for r in rows]
                finally:
                    shutil.rmtree(spill_dir, ignore_errors=True)

            ok = True
            if _defer_encode:
                deferred_encode = _encode_phase
            else:
                bucket_stats = _encode_phase()
        finally:
            if not ok:
                shutil.rmtree(spill_dir, ignore_errors=True)
            shutil.rmtree(meta_tmp, ignore_errors=True)
            shutil.rmtree(meta_tmp + "-docstore", ignore_errors=True)

    def _finalize(bucket_stats: "list[dict]") -> dict:
        manifest = {
            "format_version": 1,
            "complete": True,
            "n_docs": n_docs,
            "sum_doclen": sum_dl,
            "avgdl": avgdl,
            "config": segment.manifest_config(cfg, vocab),
            "n_head_terms": n_head_terms,
            "input_files": input_files[:4096],
            "n_input_files": len(input_files),
            "buckets_completed": sorted(segment.completed_buckets(out_dir)),
            "bucket_stats": {int(r["bucket"]): {k: int(v) for k, v in r.items() if k != "bucket"} for r in bucket_stats},
            "build_seconds": round(time.time() - t0, 3),
            "stage_seconds": stage_s,
        }
        segment.write_manifest(out_dir, manifest)
        return manifest

    if deferred_encode is not None:
        return {
            "complete": False,
            "deferred": True,
            "finish": lambda: _finalize(deferred_encode()),
            "n_docs": n_docs,
            "sum_doclen": sum_dl,
            "avgdl": avgdl,
            "out_dir": out_dir,
        }
    return _finalize(bucket_stats)


def build_index_waves(
    parquet_files: "list[str]",
    out_root: str,
    cfg: EngineConfig | None = None,
    n_waves: int = 4,
) -> dict:
    """Streaming ingestion: split the corpus files into ``n_waves``
    contiguous waves and build one ADDITIVE SEGMENT per wave, overlapping
    wave i's encode phase (memory-bandwidth-bound) with wave i+1's
    tokenize/spill pass (compute-bound) — the producer-consumer pipelining
    a continuously-ingesting build runs at any scale; without it the
    encode phase idles every CPU at a bandwidth floor while the next
    corpus slice waits.  Segments are the engine's incremental-ingest unit
    already (build/merge.py); BM25 scores are computed from decoded
    tf/doclen + the SERVING avgdl, so query results over the wave
    segments are identical to a single-segment build of the same corpus
    (pytest-proven in tests/test_build_query.py).

    One head-term set is scanned up front and shared by every wave
    (salting must agree across segments for sharded head routing).

    Resume: per-wave segment manifests are idempotent — completed waves
    are skipped, partially-built waves rebuild only missing buckets.

    Returns ``{"segment_dirs": [...], "waves": [manifests], "n_docs": n,
    "sum_doclen": s, "avgdl": a}``; query engines take ``segment_dirs``.
    """
    from concurrent.futures import ThreadPoolExecutor

    import ray.data as rd

    cfg = cfg or EngineConfig()
    files = sorted(parquet_files)
    if not files:
        raise ValueError("build_index_waves: no input files")
    n_waves = max(1, min(int(n_waves), len(files)))
    step = (len(files) + n_waves - 1) // n_waves
    groups = [files[i : i + step] for i in range(0, len(files), step)]
    os.makedirs(out_root, exist_ok=True)

    if cfg.extra.get("head_hashes") is None:
        head_arr = scan_head_terms(None, cfg, files=files)
        cfg = dataclasses.replace(cfg, extra={**cfg.extra, "head_hashes": head_arr})

    seg_dirs = [os.path.join(out_root, f"seg-{i:04d}") for i in range(len(groups))]
    manifests: dict[int, dict] = {}
    pending: list[tuple[int, object]] = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        # max_workers=1 serializes encodes (two concurrent encode phases
        # would contend for the same memory bandwidth); the main thread
        # keeps streaming the next wave's spill meanwhile
        for i, g in enumerate(groups):
            part = build_index(rd.read_parquet(g), seg_dirs[i], cfg, _defer_encode=True)
            if part.get("deferred"):
                pending.append((i, pool.submit(part["finish"])))
            else:
                manifests[i] = part
        for i, fut in pending:
            manifests[i] = fut.result()
    mans = [manifests[i] for i in range(len(groups))]
    n_docs = sum(int(m["n_docs"] or 0) for m in mans)
    sum_dl = sum(int(m["sum_doclen"] or 0) for m in mans)
    root = {
        "complete": True,
        "segment_dirs": seg_dirs,
        "n_waves": len(groups),
        "n_docs": n_docs,
        "sum_doclen": sum_dl,
        "avgdl": (sum_dl / n_docs) if n_docs else 1.0,
        "waves": mans,
    }
    with open(os.path.join(out_root, "waves.json"), "w") as f:
        json.dump(root, f)
    return root
