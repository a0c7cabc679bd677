"""Recency-decay blended ranking (freshness boost).

Web search blends lexical relevance with document age (news-ish
queries decay stale pages).  Deterministic public recipe: exponential
half-life decay over ``warc_ts``,

    blended = round(bm25, 6) * 2^(-age_seconds / (half_life_days * 86400))

rounded to 6 decimals — the same blend-shape as the static-rank
(PageRank) prior in pipelines/driver_queries.py, with time replacing
link authority.  ``now`` is an explicit argument (never wall clock) so
results are reproducible and SQL-checkable.

Distribution: the candidate pool is the engine's top-N (already
driver-small); timestamps for the N ids come from ONE map pass over the
pages table filtered by the broadcast id set (same filtered-scan shape
as snippets / PRF) — the corpus is never collected.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from bitfunnel_ray.query.wand import topk_order


def candidate_timestamps(pages, doc_ids: np.ndarray) -> dict[int, int]:
    """(doc_id → epoch-seconds) for the candidate ids: broadcast id set,
    map-only filtered scan, output-sized result."""
    ids = np.asarray(doc_ids, np.int64)

    def pick(t: pa.Table) -> pa.Table:
        m = np.isin(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), ids)
        sub = t.filter(pa.array(m))
        return pa.table(
            {
                "doc_id": sub["doc_id"].cast(pa.int64()),
                "ts_s": sub["warc_ts"].cast(pa.timestamp("s")).cast(pa.int64()),
            }
        )

    rows = (
        pages.select_columns(["doc_id", "warc_ts"])
        .map_batches(pick, batch_format="pyarrow")
        .take_all()
    )
    return {r["doc_id"]: r["ts_s"] for r in rows}


def recency_blend(
    results: pa.Table,
    pages,
    now_s: int,
    half_life_days: float = 30.0,
    k: int = 10,
) -> pa.Table:
    """Re-rank a (rank, doc_id, score) result table by
    ``round(score,6) * 2^(-age/half_life)`` (see module doc); returns
    the top-k (blended desc, doc_id asc) with the decayed score and
    age_days exposed."""
    ids = results["doc_id"].to_numpy().astype(np.int64)
    ts = candidate_timestamps(pages, ids)
    ts_arr = np.array([ts[int(i)] for i in ids], np.int64)
    age_s = (now_s - ts_arr).astype(np.float64)
    decay = np.exp2(-age_s / (half_life_days * 86400.0))
    blended = np.round(np.round(results["score"].to_numpy(), 6) * decay, 6)
    order = topk_order(blended, ids, k)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
            "doc_id": pa.array(ids[order], pa.int64()),
            "blended": pa.array(blended[order], pa.float64()),
            "age_days": pa.array(np.round(age_s[order] / 86400.0, 6), pa.float64()),
        }
    )
