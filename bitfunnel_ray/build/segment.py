"""Segment layout, manifests, resume bookkeeping.

A *segment* is the unit of index the build emits — the analog of the
reference's saved slice/TermTable state (reference:
src/Index/src/Shard.cpp:489-530 slice save, src/Index/src/TermTable.cpp:86-153
serialization, restored by REPL -restore, tools/BitFunnel/src/REPL.cpp:87-202)
— but immutable and partitioned so a 100 TB build is resumable:

    segment_dir/
      manifest.json          # n_docs, sum_doclen, config, per-bucket stats
      dict-00042.parquet     # one file per shuffle bucket (atomic rename)
      docmeta/*.parquet      # doc_id, url, doclen, n_postings, n_bytes
      vocab/part-00042.parquet  # optional: bucket 42's (term, df, bucket) stripe

Bucket files are the checkpoint granularity: each is written to a temp
name and atomically renamed, so a killed build resumes by skipping
buckets whose file already exists (per-partition lineage, SURVEY.md §4).
Incremental ingest = additional segment dirs; the query engine merges
segments at read time (doc-id sets are disjoint across segments).
"""

from __future__ import annotations

import glob
import json
import os
import re
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST = "manifest.json"
VOCAB_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64()), ("bucket", pa.int32())])
_BUCKET_RE = re.compile(r"dict-(\d{5})\.parquet$")
_VOCAB_RE = re.compile(r"part-(\d{5})\.parquet$")


def bucket_path(seg_dir: str, bucket: int) -> str:
    return os.path.join(seg_dir, f"dict-{bucket:05d}.parquet")


def _write_atomic(table: pa.Table, path: str, **kw) -> str:
    """Write under a ``.``-prefixed temp name, then rename: a reader of
    the directory (``pq.read_table(dir)`` skips dot files) never sees a
    half-written part."""
    d, name = os.path.split(path)
    tmp = os.path.join(d, f".{name}.tmp-{uuid.uuid4().hex}")
    pq.write_table(table, tmp, **kw)
    os.replace(tmp, path)
    return path


def write_bucket_atomic(table: pa.Table, seg_dir: str, bucket: int) -> str:
    # snappy: varint payloads are already compact; zstd costs ~4x encode CPU
    return _write_atomic(table, bucket_path(seg_dir, bucket), compression="snappy")


def vocab_part_path(seg_dir: str, bucket: int) -> str:
    return os.path.join(seg_dir, "vocab", f"part-{bucket:05d}.parquet")


def write_vocab_part(seg_dir: str, bucket: int, parts) -> str:
    """Stripe ``bucket`` of the vocab sidecar: the (term, df, bucket) rows
    of the unigrams with ``murmur64a(term) % num_buckets == bucket``,
    term-sorted, df summed over the (terms, dfs) ``parts``.  The build's
    encode task and the merge task both call this BEFORE writing
    ``dict-{bucket}``, so a resumed run that finds the dict file also
    finds its stripe."""
    from bitfunnel_ray.ops.suggest import sum_by_term

    terms, dfs = sum_by_term(parts)
    table = pa.table(
        [terms, dfs, np.full(len(terms), bucket, np.int32)], schema=VOCAB_SCHEMA
    )
    os.makedirs(os.path.join(seg_dir, "vocab"), exist_ok=True)
    return _write_atomic(table, vocab_part_path(seg_dir, bucket))


def completed_buckets(seg_dir: str) -> set[int]:
    out = set()
    for p in glob.glob(os.path.join(seg_dir, "dict-*.parquet")):
        m = _BUCKET_RE.search(p)
        if m:
            out.add(int(m.group(1)))
    return out


def manifest_config(cfg, vocab: bool) -> dict:
    """A manifest's ``config`` block for an ``EngineConfig``: what a merge,
    a server or fsck needs to read the segment back.  ``vocab`` records
    whether the segment carries a vocab sidecar, so fsck can flag a LOST
    one (a dir check alone passes clean when the whole dir is gone)."""
    return {
        "max_gram": cfg.max_gram,
        "k1": cfg.k1,
        "b": cfg.b,
        "block_size": cfg.block_size,
        "treatment_bands": [list(b) for b in cfg.treatment_bands] if cfg.treatment_bands else None,
        "num_buckets": cfg.num_buckets,
        "head_df_threshold": cfg.head_df_threshold,
        "salt_shift": cfg.salt_shift,
        "streams": [list(s) for s in cfg.streams],
        "facts": [list(f) for f in cfg.facts],
        "store_fields": list(cfg.store_fields),
        "vocab_sidecar": vocab,
    }


def write_manifest(seg_dir: str, manifest: dict) -> None:
    tmp = os.path.join(seg_dir, f".{MANIFEST}.tmp-{uuid.uuid4().hex}")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(seg_dir, MANIFEST))


def load_manifest(seg_dir: str) -> dict | None:
    p = os.path.join(seg_dir, MANIFEST)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def resolve_segment_dirs(index_dirs) -> "list[str]":
    """Normalize any index locator to the list of segment dirs.

    Accepts a single segment dir (has a manifest), a BUILD ROOT (a
    ``waves.json`` from ``build_index_waves`` / ``compact_segments``, or
    ``seg-*`` subdirectories with manifests), or a list mixing both —
    so ``SearchEngine``/``ShardedServer``/CLI take the directory a build
    command printed, whatever its shape."""
    import glob as _glob

    if isinstance(index_dirs, (str, os.PathLike)):
        index_dirs = [index_dirs]
    out: list[str] = []
    for d in index_dirs:
        d = str(d)
        if load_manifest(d) is not None:
            out.append(d)
            continue
        groups = os.path.join(d, "groups.json")
        if os.path.exists(groups):
            # group-managed root (build/groups.py): serve every segment of
            # every non-expired group — read inline (groups.py imports us)
            with open(groups) as f:
                gst = json.load(f)
            segs = sorted(
                s for g in gst["groups"].values() for s in g["segment_dirs"]
            )
            missing = [s for s in segs if load_manifest(s) is None]
            if missing:
                raise FileNotFoundError(
                    f"groups.json in {d} lists segments without manifests: {missing[:3]}"
                )
            out.extend(segs)
            continue
        waves = os.path.join(d, "waves.json")
        if os.path.exists(waves):
            with open(waves) as f:
                segs = json.load(f)["segment_dirs"]
            missing = [s for s in segs if load_manifest(s) is None]
            if missing:
                raise FileNotFoundError(
                    f"waves.json in {d} lists segments without manifests: {missing[:3]}"
                )
            out.extend(segs)
            continue
        subs = sorted(
            s for s in _glob.glob(os.path.join(d, "seg-*")) if load_manifest(s) is not None
        )
        if not subs:
            raise FileNotFoundError(
                f"no manifest in {d} (not a segment dir, and no waves.json "
                "or seg-*/ segments under it)"
            )
        out.extend(subs)
    return out
