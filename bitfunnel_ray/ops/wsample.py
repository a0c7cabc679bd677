"""Deterministic weighted sampling without replacement — the consumer of
per-document importance weights (DSIR scores, quality signals): draw n
docs where selection probability is proportional to ``weight``.

Algorithm A-ES (Efraimidis & Spirakis 2006): each row gets the key
``ln(u) / w`` with u uniform in (0,1); the n LARGEST keys are a weighted
sample without replacement.  Determinism replaces the RNG with the
Knuth multiplicative hash of doc_id already used by split_assign /
stratified_sample — so the sample is stable across runs, machines and
block layouts, and the SQL oracle reproduces it from the same recipe:

    u   = ((doc_id * 2654435761) mod 2^32 + 1) / (2^32 + 1)   in (0, 1)
    key = ln(u) / w                                (w > 0; w <= 0 excluded)

Shape: map-side per-block top-n on the key (≤ n rows/block leave the
stage), one tiny final reduce — no shuffle, no sort of the corpus; the
same map-side-top-k discipline as the ANN scans.  Key ties are broken
by doc_id (the discrete u-domain makes exact key collisions possible
for equal weights)."""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

from bitfunnel_ray.query.wand import topk_order

_KNUTH = np.uint64(2654435761)
_M = np.uint64(4294967296)


def sample_keys(doc_ids: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A-ES keys (float64; larger = more likely sampled); -inf for
    non-positive weights (excluded)."""
    with np.errstate(over="ignore"):
        h = (np.asarray(doc_ids).astype(np.uint64) * _KNUTH) % _M
    u = (h.astype(np.float64) + 1.0) / 4294967297.0  # (0, 1): ln defined
    w = np.asarray(weights, np.float64)
    out = np.full(len(u), -np.inf)
    ok = w > 0
    out[ok] = np.log(u[ok]) / w[ok]
    return out


def weighted_sample(
    ds: "ray.data.Dataset",
    n: int,
    *,
    weight_col: str,
    id_col: str = "doc_id",
) -> pa.Table:
    """n-row weighted sample without replacement → (doc_id, weight, key)
    sorted by key desc, doc_id asc."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def block_topn(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "weight": pa.array([], pa.float64()),
                "key": pa.array([], pa.float64()),
            }
        )
        if len(t) == 0:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        k = sample_keys(ids, w)
        ok = np.isfinite(k)
        ids, w, k = ids[ok], w[ok], k[ok]
        if not len(ids):
            return empty
        sel = topk_order(k, ids, n)
        return pa.table(
            {
                id_col: pa.array(ids[sel], pa.int64()),
                "weight": pa.array(w[sel], pa.float64()),
                "key": pa.array(k[sel], pa.float64()),
            }
        )

    import ray

    parts = ds.select_columns([id_col, weight_col]).map_batches(
        block_topn, batch_format="pyarrow"
    )
    tables = [x for x in ray.get(parts.to_arrow_refs()) if len(x)]
    if not tables:
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "weight": pa.array([], pa.float64()),
                "key": pa.array([], pa.float64()),
            }
        )
    all_t = pa.concat_tables(tables)
    ids = all_t[id_col].to_numpy(zero_copy_only=False)
    w = all_t["weight"].to_numpy(zero_copy_only=False)
    k = all_t["key"].to_numpy(zero_copy_only=False)
    order = topk_order(k, ids, n)
    return pa.table(
        {
            id_col: pa.array(ids[order], pa.int64()),
            "weight": pa.array(w[order], pa.float64()),
            "key": pa.array(k[order], pa.float64()),
        }
    )
