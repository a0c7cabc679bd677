"""Boilerplate / template-shingle detection + strip for a web corpus.

Web pages of one host share chrome — navigation, footers, cookie
banners.  CCNet (Wenzek et al. 2019) and C4 (Raffel et al. 2020)
de-boilerplate by dropping lines repeated across a site's pages; this
corpus is a flat token stream, so the unit is the k-token shingle: a
shingle is boilerplate for ``source`` when it appears in >= ``min_frac``
of the source's documents (and >= ``min_docs`` of them).

Two passes; TEXT NEVER ENTERS THE EXCHANGE:

1. COUNT by 64-bit shingle hash (same rotl-xor chain as the minhash
   path, ops/dedup.py shingle_flat): one map pass emits in-batch-deduped
   (source, h, cnt) partials plus one per-source doc-count row
   (is_total=1); ONE hash exchange on ``source`` co-locates each
   source's rows; a segmented finish sums, divides by the total row and
   filters.  Only (source-string, uint64, int64) rows move.
2. RECOVER text for survivors: the surviving hash set — output-sized,
   the op's own result — is broadcast once via ``ray.put``; a second
   map pass re-hashes shingles WITH positions, and only hit positions
   (rare) are gathered from the token array and joined back.

Collision caveat: two distinct shingles colliding in 64 bits would
merge counts (p ~ n^2 / 2^64, negligible); the recovery pass would
surface both texts, making the event observable.

Skew: partitioning is by source, so one pathological host bounds one
partition; salt the key with (h >> 56) if a single host's distinct
shingle set exceeds a block.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from bitfunnel_ray.functions.hashing import hash_terms, hash_unique_terms
from bitfunnel_ray.stages.tokenize import flat_tokens, hash_token_array

_COUNT_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("h", pa.uint64()),
        ("cnt", pa.int64()),
        ("is_total", pa.int8()),
    ]
)

_OUT_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("h", pa.uint64()),
        ("n_docs", pa.int64()),
        ("frac", pa.float64()),
    ]
)


def _arr(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _rolling_shingles(texts, k: int):
    """All k-token shingles with positions: (h uint64, doc_of int64,
    flat-token Arrow array, start index of each shingle in flat).
    Shingles spanning a document boundary are dropped; NOT deduped per
    doc (callers dedupe as needed)."""
    flat, doc_of, _ = flat_tokens(texts)
    h = hash_token_array(flat)
    m = len(h) - k + 1
    if m <= 0:
        e = np.empty(0, np.int64)
        return np.empty(0, np.uint64), e, flat, e
    acc = h[:m].copy()
    for j in range(1, k):
        acc = ((acc << np.uint64(1)) | (acc >> np.uint64(63))) ^ h[j : m + j]
    valid = doc_of[:m] == doc_of[k - 1 :]
    pos = np.flatnonzero(valid).astype(np.int64)
    return acc[valid], doc_of[:m][valid], flat, pos


def _count_partials(t: pa.Table, *, k: int) -> pa.Table:
    src = _arr(t["source"])
    senc = pc.dictionary_encode(src)
    sidx = senc.indices.to_numpy().astype(np.int64)  # per doc
    svocab = senc.dictionary

    acc, d, _, _ = _rolling_shingles(t["text"], k)
    # unique (doc, shingle)
    if len(acc):
        order = np.lexsort((acc, d))
        acc, d = acc[order], d[order]
        keep = np.empty(len(acc), bool)
        keep[0] = True
        keep[1:] = (d[1:] != d[:-1]) | (acc[1:] != acc[:-1])
        acc, d = acc[keep], d[keep]
    # partial count per (source, shingle)
    s = sidx[d]
    order = np.lexsort((acc, s))
    s, acc = s[order], acc[order]
    new = np.ones(len(s), bool)
    if len(s):
        new[1:] = (s[1:] != s[:-1]) | (acc[1:] != acc[:-1])
    starts = np.flatnonzero(new)
    cnt = np.diff(np.append(starts, len(s)))
    # per-source doc totals for this batch
    tot = np.bincount(sidx, minlength=len(svocab)).astype(np.int64)
    src_col = pa.concat_arrays(
        [svocab.take(pa.array(s[starts], pa.int64())), svocab]
    )
    return pa.table(
        {
            "source": src_col,
            "h": pa.array(
                np.concatenate([acc[starts], np.zeros(len(svocab), np.uint64)]),
                pa.uint64(),
            ),
            "cnt": pa.array(np.concatenate([cnt, tot]), pa.int64()),
            "is_total": pa.array(
                np.concatenate(
                    [np.zeros(len(starts), np.int8), np.ones(len(svocab), np.int8)]
                ),
                pa.int8(),
            ),
        },
        schema=_COUNT_SCHEMA,
    )


def _finish_counts(t: pa.Table, *, min_frac: float, min_docs: int) -> pa.Table:
    if len(t) == 0:
        return _OUT_SCHEMA.empty_table()
    senc = pc.dictionary_encode(_arr(t["source"]))
    s = senc.indices.to_numpy().astype(np.int64)
    svocab = senc.dictionary
    h = t["h"].to_numpy(zero_copy_only=False)
    cnt = t["cnt"].to_numpy(zero_copy_only=False)
    is_tot = t["is_total"].to_numpy(zero_copy_only=False).astype(bool)
    totals = np.zeros(len(svocab), np.int64)
    np.add.at(totals, s[is_tot], cnt[is_tot])
    s, h, cnt = s[~is_tot], h[~is_tot], cnt[~is_tot]
    order = np.lexsort((h, s))
    s, h, cnt = s[order], h[order], cnt[order]
    new = np.ones(len(s), bool)
    if len(s):
        new[1:] = (s[1:] != s[:-1]) | (h[1:] != h[:-1])
    starts = np.flatnonzero(new)
    n = np.add.reduceat(cnt, starts) if len(starts) else np.empty(0, np.int64)
    gs, gh = s[starts], h[starts]
    tot = totals[gs]
    ok = (n >= min_docs) & (n >= min_frac * tot) & (tot > 0)
    return pa.table(
        {
            "source": svocab.take(pa.array(gs[ok], pa.int64())),
            "h": pa.array(gh[ok], pa.uint64()),
            "n_docs": pa.array(n[ok], pa.int64()),
            "frac": pa.array(np.round(n[ok] / tot[ok], 6), pa.float64()),
        },
        schema=_OUT_SCHEMA,
    )


def _recover_text(t: pa.Table, *, k: int, surv_ref) -> pa.Table:
    surv = ray.get(surv_ref) if not isinstance(surv_ref, np.ndarray) else surv_ref
    acc, d, flat, pos = _rolling_shingles(t["text"], k)
    hit = np.isin(acc, surv)
    schema = pa.schema([("source", pa.string()), ("h", pa.uint64()), ("shingle", pa.string())])
    if not hit.any():
        return schema.empty_table()
    src = _arr(t["source"])
    # dedupe hits per (source-of-doc, h) inside the batch before any
    # python-level string assembly
    hd, hh, hp = d[hit], acc[hit], pos[hit]
    senc = pc.dictionary_encode(src)
    sidx = senc.indices.to_numpy().astype(np.int64)
    hs = sidx[hd]
    order = np.lexsort((hh, hs))
    hs, hh, hp = hs[order], hh[order], hp[order]
    keep = np.ones(len(hs), bool)
    keep[1:] = (hs[1:] != hs[:-1]) | (hh[1:] != hh[:-1])
    hs, hh, hp = hs[keep], hh[keep], hp[keep]
    # gather ONLY the hit tokens (k per survivor occurrence)
    gather = (hp[:, None] + np.arange(k, dtype=np.int64)[None, :]).ravel()
    toks = flat.take(pa.array(gather, pa.int64())).to_pylist()
    texts = [" ".join(toks[i * k : (i + 1) * k]) for i in range(len(hp))]
    return pa.table(
        {
            "source": senc.dictionary.take(pa.array(hs, pa.int64())),
            "h": pa.array(hh, pa.uint64()),
            "shingle": pa.array(texts, pa.string()),
        },
        schema=schema,
    )


def boilerplate_shingles(
    docs,
    k: int = 4,
    min_frac: float = 0.5,
    min_docs: int = 2,
) -> pa.Table:
    """Dataset(doc_id, text, source) → Table(source, shingle, n_docs,
    frac) of per-source boilerplate k-gram shingles, sorted (source,
    shingle).  See module doc for the two-pass layout."""
    from bitfunnel_ray.ops.exchange import exchange

    surv = exchange(
        docs.map_batches(partial(_count_partials, k=k), batch_format="pyarrow"),
        ["source"],
        partial(_finish_counts, min_frac=min_frac, min_docs=min_docs),
    ).take_all()
    surv_t = (
        pa.Table.from_pylist(surv, schema=_OUT_SCHEMA) if surv else _OUT_SCHEMA.empty_table()
    )
    if len(surv_t) == 0:
        return pa.schema(
            [
                ("source", pa.string()),
                ("shingle", pa.string()),
                ("n_docs", pa.int64()),
                ("frac", pa.float64()),
            ]
        ).empty_table()
    surv_ref = ray.put(np.unique(surv_t["h"].to_numpy(zero_copy_only=False)))
    texts = (
        docs.map_batches(
            partial(_recover_text, k=k, surv_ref=surv_ref), batch_format="pyarrow"
        )
        .take_all()
    )
    tmap = {}
    for r in texts:
        tmap.setdefault((r["source"], r["h"]), r["shingle"])
    out = surv_t.to_pylist()
    rows = [
        {
            "source": r["source"],
            "shingle": tmap.get((r["source"], r["h"]), ""),
            "n_docs": r["n_docs"],
            "frac": r["frac"],
        }
        for r in out
    ]
    rows.sort(key=lambda r: (r["source"], r["shingle"]))
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("source", pa.string()),
                ("shingle", pa.string()),
                ("n_docs", pa.int64()),
                ("frac", pa.float64()),
            ]
        ),
    )


def strip_boilerplate(docs, boilerplate: pa.Table, k: int = 4):
    """Dataset(doc_id, text, source) → Dataset(doc_id, source, text)
    with every occurrence of a source's boilerplate shingles removed
    (token-maximal: overlapping hits union their k-token spans).

    The (source, shingle-hash) pairs — output-sized — are broadcast via
    ``ray.put``; the map pass re-hashes shingles with positions and
    drops covered tokens.  Map-only, no exchange."""
    srcs = boilerplate["source"].to_pylist()
    hs = boilerplate["h" if "h" in boilerplate.schema.names else "shingle"]
    if "h" in boilerplate.schema.names:
        hv = hs.to_numpy(zero_copy_only=False)
    else:  # hash the shingle text column with the same chain
        hv = np.empty(len(boilerplate), np.uint64)
        for i, sh in enumerate(hs.to_pylist()):
            th = hash_token_array(pa.array(sh.split(" "), pa.string()))
            a = th[0]
            for j in range(1, len(th)):
                a = ((a << np.uint64(1)) | (a >> np.uint64(63))) ^ th[j]
            hv[i] = a
    # one 64-bit key per (source, shingle): rotl(hash(source), 7) ^ h —
    # same-collision caveat as the count pass
    src_h = hash_terms(np.asarray(srcs, dtype=object)) if srcs else np.empty(0, np.uint64)
    bp_keys = ((src_h << np.uint64(7)) | (src_h >> np.uint64(57))) ^ hv
    bp_ref = ray.put(np.unique(bp_keys))

    def strip(t: pa.Table) -> pa.Table:
        bp = ray.get(bp_ref)
        acc, d, flat, pos = _rolling_shingles(t["text"], k)
        src = _arr(t["source"])
        senc = pc.dictionary_encode(src)
        sidx = senc.indices.to_numpy().astype(np.int64)
        svh = hash_unique_terms(senc.dictionary.to_pylist())
        dh = svh[sidx]  # per-doc source hash
        _, doc_of, doclen = flat_tokens(t["text"])
        drop = np.zeros(len(doc_of) + 1, np.int64)  # +1: span-end scratch
        if len(acc):
            sk = dh[d]
            key = ((sk << np.uint64(7)) | (sk >> np.uint64(57))) ^ acc
            hp = pos[np.isin(key, bp)]
            # union of k-token spans via a difference array (vectorized)
            np.add.at(drop, hp, 1)
            np.add.at(drop, np.minimum(hp + k, len(doc_of)), -1)
        covered = np.cumsum(drop[:-1]) > 0
        keep_idx = np.flatnonzero(~covered)
        kept_per_doc = np.bincount(doc_of[keep_idx], minlength=len(doclen))
        offsets = np.zeros(len(doclen) + 1, np.int64)
        np.cumsum(kept_per_doc, out=offsets[1:])
        kept = flat.take(pa.array(keep_idx, pa.int64()))
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), kept)
        texts = pc.binary_join(lists, " ")
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": t["source"],
                "text": texts,
            }
        )

    return docs.map_batches(strip, batch_format="pyarrow")
