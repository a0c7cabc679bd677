"""Token-budget sampling: take documents in ``doc_id`` order within each
group (language / source) until a token budget is reached — the mixture
-control step of a training-data pipeline ("200 B tokens of English, 50 B
of German, …").

This is an exact distributed prefix scan, built scale-first:

1. one vectorized pass reduces the corpus to a slim fixed-width table
   (doc_id, group, n_tokens) — materialized once and reused (this is the
   op's working set: ~24 B/doc, it streams through the object store);
2. docs bucket by contiguous ``doc_id`` range (``doc_id >> shift``; shift
   auto-sized from the id span so the per-(bucket, group) summary stays
   driver-small).  Bucket sums aggregate via a partial-then-small-groupby
   exchange, and the driver turns them into exclusive per-group prefix
   offsets — the only driver-side state, O(buckets × groups);
3. a second pass over the slim table hash-partitions by bucket and adds
   offset + segmented local cumsum (per (group, bucket) run, rows sorted
   by doc_id), filtering rows whose running total exceeds the budget.

No all-to-all sort: the exchange carries fixed-width rows keyed by
bucket, and each bucket's rows are cumsum'd locally.  The reference has
no analog (closest: DocumentCountFilter's first-N,
/root/reference/src/Chunks/src/DocumentFilters.cpp:97-112 — this is its
budget-aware, grouped generalization).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray
import ray.data

from bitfunnel_ray.stages.tokenize import flat_tokens


def _slim_batch(t: pa.Table, *, group_col: str) -> pa.Table:
    _, _, doclen = flat_tokens(t["text"])
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "grp": t[group_col],
            "n_tokens": pa.array(doclen, pa.int64()),
        }
    )


def _bucket_sums(t: pa.Table, *, shift: int) -> pa.Table:
    """Map-side partial: one (bucket, grp, sum) row per pair in the block."""
    import pandas as pd

    df = pd.DataFrame(
        {
            "bucket": np.asarray(t["doc_id"].to_numpy(zero_copy_only=False)) >> shift,
            "grp": t["grp"].to_pandas(),
            "n": t["n_tokens"].to_numpy(zero_copy_only=False),
        }
    )
    g = df.groupby(["bucket", "grp"], sort=False)["n"].sum().reset_index()
    return pa.table(
        {
            "bucket": pa.array(g["bucket"].to_numpy(), pa.int64()),
            "grp": pa.array(g["grp"], pa.string()),
            "tok": pa.array(g["n"].to_numpy(), pa.int64()),
        }
    )


def _apply_budget(
    t: pa.Table, *, shift: int, budget: int, offsets_ref
) -> pa.Table:
    """Per partition: cum = per-group exclusive offset of the row's bucket
    + local cumsum within the (group, bucket) segment, then filter."""
    keys, offs, langs = ray.get(offsets_ref)
    doc = t["doc_id"].to_numpy(zero_copy_only=False)
    n = t["n_tokens"].to_numpy(zero_copy_only=False)
    grp = t["grp"].to_pandas().to_numpy(dtype=object)
    code = np.searchsorted(langs, grp.astype(str))
    bucket = doc >> shift
    key = bucket * len(langs) + code
    order = np.lexsort((doc, key))
    k_s, n_s = key[order], n[order]
    seg = np.flatnonzero(np.concatenate([[True], k_s[1:] != k_s[:-1]]))
    cs = np.cumsum(n_s)
    base = np.concatenate([[0], cs[:-1]])[seg]
    local = cs - np.repeat(base, np.diff(np.append(seg, len(k_s))))
    off = offs[np.searchsorted(keys, k_s)]
    cum = off + local
    keep_sorted = cum <= budget
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.arange(len(order))
    keep = keep_sorted[inv]
    cum_orig = np.empty(len(order), dtype=np.int64)
    cum_orig[order] = cum
    out = t.append_column("cum_tokens", pa.array(cum_orig, pa.int64()))
    return out.filter(pa.array(keep))


def token_budget_sample(
    corpus: "ray.data.Dataset",
    budget: int,
    group_col: str = "lang",
    target_buckets: int = 4096,
) -> "ray.data.Dataset":
    """→ (doc_id, grp, n_tokens, cum_tokens) for the doc_id-ordered prefix
    of each group whose running token total stays ≤ ``budget``."""
    from ray.data.aggregate import Max, Min

    from bitfunnel_ray.ops.exchange import exchange

    slim = corpus.select_columns(["doc_id", group_col, "text"]).map_batches(
        partial(_slim_batch, group_col=group_col), batch_format="pyarrow"
    ).materialize()
    span = slim.aggregate(Min("doc_id"), Max("doc_id"))
    lo, hi = int(span["min(doc_id)"]), int(span["max(doc_id)"])
    shift = max(0, int(np.ceil(np.log2(max(hi - lo + 1, 1) / target_buckets))))
    sums = (
        slim.map_batches(partial(_bucket_sums, shift=shift), batch_format="pyarrow")
        .groupby(["bucket", "grp"])
        .sum("tok")
        .take_all()
    )  # ≤ target_buckets × n_groups rows — driver-small by construction
    langs = np.array(sorted({r["grp"] for r in sums}), dtype=object)
    code = {g: i for i, g in enumerate(langs)}
    key = np.array([r["bucket"] * len(langs) + code[r["grp"]] for r in sums], dtype=np.int64)
    tok = np.array([r["sum(tok)"] for r in sums], dtype=np.int64)
    order = np.argsort(key)
    key, tok = key[order], tok[order]
    # exclusive prefix per group, buckets ascending
    offs = np.zeros(len(key), dtype=np.int64)
    codes = key % len(langs)
    for c in range(len(langs)):
        m = np.flatnonzero(codes == c)
        offs[m] = np.concatenate([[0], np.cumsum(tok[m])[:-1]])
    offsets_ref = ray.put((key, offs, langs.astype(str)))
    slim = slim.map_batches(  # bucket column for the exchange key
        lambda t: t.append_column(
            "bucket",
            pa.array(np.asarray(t["doc_id"].to_numpy(zero_copy_only=False)) >> shift, pa.int64()),
        ),
        batch_format="pyarrow",
    )
    # whole partition: a bucket's rows must cumsum together
    out = exchange(
        slim,
        ["bucket"],
        partial(_apply_budget, shift=shift, budget=budget, offsets_ref=offsets_ref),
    )
    return out.drop_columns(["bucket"])
