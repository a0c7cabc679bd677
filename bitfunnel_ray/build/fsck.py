"""Index integrity audit (fsck) — the ops tool every serving index needs.

Reference precedent: BitFunnel's VerifyCommand checks query results
against a brute-force oracle (tools/BitFunnel/src/Commands.cpp); this
audits the STORED structures themselves, per segment:

per dict row (posting chunk):
  - payloads decode (a known codec: varint / Elias–Fano) to exactly
    ``n_postings`` ids;
  - doc_ids strictly ascending within the chunk;
  - tf >= 1 everywhere and ``cf == sum(tf)``;
  - block metadata exact: ``last_docs`` ascending, final entry equals
    the chunk's last doc, and each block's stored ``max_tfn`` equals the
    recomputed max over that block (the WAND exactness contract —
    an understated upper bound silently drops qualifying docs);
  - bucket routing: ``assign_buckets(term_hash, salt, B)`` equals the
    bucket file the row lives in;
per segment (one summary row, bucket = -1):
  - manifest ``n_docs``/``sum_doclen`` equal the docmeta parquet sums
    (``cf_mismatches``);
  - docmeta doc_ids unique (``docid_errors``);
  - docstore rows match docmeta, parts doc_id-sorted (``docstore_errors``);
  - vocab sidecar stripes well-formed and complete (``vocab_errors``).

Layout: one plain Ray task per bucket file (the build's own checkpoint
granularity — resumable audits come free) plus one per segment's
docmeta; per-bucket result rows are output-sized.  All checks are
vectorized numpy over the decoded chunk.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

RESULT_SCHEMA = pa.schema(
    [
        ("segment", pa.string()),
        ("bucket", pa.int32()),
        ("n_terms", pa.int64()),
        ("n_postings", pa.int64()),
        ("decode_errors", pa.int64()),
        ("unsorted_chunks", pa.int64()),
        ("cf_mismatches", pa.int64()),
        ("tf_zero_chunks", pa.int64()),
        ("block_meta_errors", pa.int64()),
        ("misrouted_terms", pa.int64()),
        ("vocab_errors", pa.int64()),
        ("docstore_errors", pa.int64()),
        ("docid_errors", pa.int64()),
        ("ok", pa.bool_()),
    ]
)


def audit_bucket(seg_dir: str, bucket_file: str) -> dict:
    """Audit one dict bucket file; returns one RESULT_SCHEMA row."""
    from bitfunnel_ray.build.builder import assign_buckets
    from bitfunnel_ray.build.encode import decode_chunk
    from bitfunnel_ray.build.segment import _BUCKET_RE
    from bitfunnel_ray.functions.bm25 import tf_norm

    with open(os.path.join(seg_dir, "manifest.json")) as f:
        man = json.load(f)
    avgdl = float(man["avgdl"]) or 1.0
    k1 = float(man["config"]["k1"])
    b = float(man["config"]["b"])
    # routing modulus is the CONFIGURED bucket count: an empty bucket
    # writes no dict file, so len(buckets_completed) under-counts and
    # would flag every term on a healthy index as misrouted
    num_buckets = int(man["config"]["num_buckets"])
    my_bucket = int(_BUCKET_RE.search(bucket_file).group(1))

    t = pq.read_table(bucket_file)
    n = len(t)
    dec_err = unsorted = cf_bad = tf0 = blk_bad = 0
    n_post_total = 0

    h = t["term_hash"].to_numpy(zero_copy_only=False)
    salt = t["salt"].to_numpy(zero_copy_only=False)
    routed = assign_buckets(h.astype(np.uint64), salt.astype(np.uint64), num_buckets)
    misrouted = int((routed != my_bucket).sum())

    docs_p, tf_p, dl_p = t["docs_payload"], t["tf_payload"], t["dl_payload"]
    np_col = t["n_postings"].to_numpy(zero_copy_only=False)
    cf_col = t["cf"].to_numpy(zero_copy_only=False)
    codec_col = t["codec"].to_numpy(zero_copy_only=False)
    last_docs = t["last_docs"]
    max_tfn = t["max_tfn"]

    for i in range(n):
        n_post = int(np_col[i])
        n_post_total += n_post
        try:
            d = decode_chunk(
                docs_p[i].as_py(), tf_p[i].as_py(), dl_p[i].as_py(), n_post, int(codec_col[i])
            )
        except Exception:
            dec_err += 1
            continue
        if len(d.doc_ids) != n_post:
            dec_err += 1
            continue
        if n_post > 1 and not (d.doc_ids[1:] > d.doc_ids[:-1]).all():
            unsorted += 1
        if n_post and int(d.tf.min()) < 1:
            tf0 += 1
        if int(d.tf.sum()) != int(cf_col[i]):
            cf_bad += 1
        lasts = np.asarray(last_docs[i].as_py(), dtype=np.uint64)
        maxes = np.asarray(max_tfn[i].as_py(), dtype=np.float64)
        if len(lasts) != len(maxes) or len(lasts) == 0:
            blk_bad += 1
            continue
        if (len(lasts) > 1 and not (lasts[1:] > lasts[:-1]).all()) or (
            n_post and lasts[-1] != d.doc_ids[-1]
        ):
            blk_bad += 1
            continue
        # recompute per-block max tfn from block boundaries implied by
        # last_docs — must be BIT-EXACT (same tf_norm floats)
        tfn = tf_norm(d.tf.astype(np.float64), d.doclen.astype(np.float64), avgdl, k1, b)
        ends = np.searchsorted(d.doc_ids, lasts, side="right")
        starts = np.concatenate([[0], ends[:-1]])
        if (ends <= starts).any():
            blk_bad += 1
            continue
        got = np.maximum.reduceat(tfn, starts)
        if not np.array_equal(got, maxes):
            blk_bad += 1

    return {
        "segment": seg_dir,
        "bucket": my_bucket,
        "n_terms": n,
        "n_postings": n_post_total,
        "decode_errors": dec_err,
        "unsorted_chunks": unsorted,
        "cf_mismatches": cf_bad,
        "tf_zero_chunks": tf0,
        "block_meta_errors": blk_bad,
        "misrouted_terms": misrouted,
        "vocab_errors": 0,
        "docstore_errors": 0,
        "docid_errors": 0,
        "ok": (dec_err + unsorted + cf_bad + tf0 + blk_bad + misrouted) == 0,
    }


def audit_vocab(seg_dir: str, man: dict) -> int:
    """Vocab sidecar audit (0 = healthy): a sidecar the manifest records
    must exist; every dict bucket b has its stripe ``part-b``; a stripe
    file holds only its own bucket's rows; parts are readable with the
    (term, df, bucket) schema; every bucket = term_hash % num_buckets;
    df ≥ 1; terms unique within the segment — the serving stripes
    (suggest/fuzzy/correct) are silently incomplete or mis-sharded on
    any of these."""
    from bitfunnel_ray.build.segment import _BUCKET_RE, _VOCAB_RE, vocab_part_path
    from bitfunnel_ray.functions.hashing import hash_terms

    vdir = os.path.join(seg_dir, "vocab")
    if not os.path.isdir(vdir):
        # a LOST sidecar: the dir check alone would pass clean
        return int(bool(man.get("config", {}).get("vocab_sidecar")))
    bad = 0
    for p in glob.glob(os.path.join(seg_dir, "dict-*.parquet")):
        if not os.path.exists(vocab_part_path(seg_dir, int(_BUCKET_RE.search(p).group(1)))):
            bad += 1  # stripe lost
    nb = int(man["config"]["num_buckets"])
    vterms, vdfs, vbuckets = [], [], []
    for p in sorted(glob.glob(os.path.join(vdir, "*.parquet"))):
        try:
            vt = pq.read_table(p, columns=["term", "df", "bucket"])
        except Exception:
            bad += 1
            continue
        b = vt["bucket"].to_numpy(zero_copy_only=False)
        m = _VOCAB_RE.search(p)
        if m and (b != int(m.group(1))).any():
            bad += 1  # another stripe's rows in this part
        vterms.append(np.asarray(vt["term"].to_pylist(), dtype=object))
        vdfs.append(vt["df"].to_numpy(zero_copy_only=False))
        vbuckets.append(b)
    if vterms:
        terms_all = np.concatenate(vterms)
        if len(np.unique(terms_all.astype(str))) != len(terms_all):
            bad += 1
        if (np.concatenate(vdfs) < 1).any():
            bad += 1
        # memoize=False: the audit hashes each vocab term exactly once
        # — the process-global memo would pin the whole vocabulary in
        # this worker for zero hit-rate benefit
        want = (hash_terms(terms_all, memoize=False) % np.uint64(nb)).astype(np.int64)
        if not np.array_equal(want, np.concatenate(vbuckets).astype(np.int64)):
            bad += 1
    return bad


def audit_docmeta(seg_dir: str) -> dict:
    """Manifest ↔ docmeta (+ docstore + vocab sidecar when present)
    cross-check; one summary row (bucket = -1)."""
    with open(os.path.join(seg_dir, "manifest.json")) as f:
        man = json.load(f)
    files = sorted(glob.glob(os.path.join(seg_dir, "docmeta", "*.parquet")))
    n_docs = 0
    sum_dl = 0
    ids = []
    for p in files:
        t = pq.read_table(p, columns=["doc_id", "doclen"])
        n_docs += len(t)
        sum_dl += int(pa.compute.sum(t["doclen"]).as_py() or 0)
        ids.append(t["doc_id"].to_numpy(zero_copy_only=False))
    uniq = len(np.unique(np.concatenate(ids))) if ids else 0
    # stored-fields sidecar (build/docstore.py), when present: row count
    # must equal docmeta's (every doc fetchable exactly once) and each
    # part must be doc_id-sorted (the row-group-pruning contract)
    store_bad = 0
    store_files = sorted(glob.glob(os.path.join(seg_dir, "docstore", "*.parquet")))
    wants_store = bool(man.get("config", {}).get("store_fields"))
    if store_files or wants_store:
        store_rows = 0
        for p in store_files:
            sids = pq.read_table(p, columns=["doc_id"])["doc_id"].to_numpy(
                zero_copy_only=False
            )
            store_rows += len(sids)
            if len(sids) > 1 and not (np.diff(sids) > 0).all():
                store_bad += 1
        if store_rows != n_docs:  # lost/duplicated part, or sidecar gone
            store_bad += 1
    vocab_bad = audit_vocab(seg_dir, man)
    totals_bad = int(n_docs != int(man["n_docs"])) + int(sum_dl != int(man["sum_doclen"]))
    return {
        "segment": seg_dir,
        "bucket": -1,
        "n_terms": 0,
        "n_postings": 0,
        "decode_errors": 0,
        "unsorted_chunks": 0,
        "cf_mismatches": totals_bad,
        "tf_zero_chunks": 0,
        "block_meta_errors": 0,
        "misrouted_terms": 0,
        "vocab_errors": vocab_bad,
        "docstore_errors": store_bad,
        "docid_errors": int(uniq != n_docs),
        "ok": totals_bad + store_bad + vocab_bad + (uniq != n_docs) == 0,
    }


def _audit(item: "tuple[str, str]") -> dict:
    seg, path = item
    return audit_bucket(seg, path) if path else audit_docmeta(seg)


def fsck_index(index_dirs) -> pa.Table:
    """Audit one or more segment dirs; returns the per-bucket (plus one
    per-segment docmeta) result table, sorted (segment, bucket).  Runs
    one Ray task per bucket file (``fan_out``)."""
    from bitfunnel_ray.build import segment as seglib
    from bitfunnel_ray.ops.exchange import fan_out

    items = [
        (d, p)
        for d in seglib.resolve_segment_dirs(index_dirs)
        for p in [""] + sorted(glob.glob(os.path.join(d, "dict-*.parquet")))
    ]
    out = fan_out(_audit, items)
    out.sort(key=lambda r: (r["segment"], r["bucket"]))
    return pa.Table.from_pylist(out, schema=RESULT_SCHEMA)
