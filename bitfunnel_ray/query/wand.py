"""Vectorized block-max top-k for ranked disjunctive queries.

The analog of the reference's RankDown skipping
(src/Plan/src/RankDownCompiler.cpp): the per-block ``last_doc``/
``max_tfn`` metadata written at encode time (bitfunnel_ray/build/encode.py)
lets a block whose upper-bound score cannot reach a lower bound on the
k-th score be dropped before scoring.  ``wand_topk`` is four array steps,
no per-document loop (the threshold pruning of SAP, ICDE 2018):

1. threshold: θ = the largest, over the lists, of each list's k-th
   largest contribution.  Precondition: contributions are ≥ 0 (BM25
   idf = log(1 + x) > 0), so a score is at least each of its
   contributions and θ ≤ the k-th score.
2. prune: a list keeps a block only if the block's bound plus every other
   list's max bound reaches θ.  A document scoring ≥ θ keeps all of its
   postings, so its score is exact; any other is left with a partial
   score < θ and cannot be selected.
3. accumulate: ``np.bincount`` over the kept postings in cursor order
   adds from 0.0 in input order, the exhaustive scorer's float adds when
   callers pass the canonical (gram, hash) order: bit-identical scores.
4. select: ``top_k``, the ranking tail.

Block bounds idf*(k1+1)*max_tfn are ≥ every in-block contribution
(max_tfn is the same float64 tfn the scorer computes; cross-segment avgdl
drift is compensated by a monotone inflation factor).

The ranking tail is shared by every ranked answer of the serving layer
(the local engine's ``search``, ``topk_or``, champion lists and QLD, the
query-log runner, the doc-sharded merges): ``top_k`` applies the
search-after cursor and selects in (score desc, doc_id asc) or in the
sort-by-field order, through ``topk_order``; ``ranked_table`` builds the
(rank, doc_id, score) result.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# prune-test slack, relative to the sum of all bounds: covers the float
# rounding of the bound sums and of the scorer's own sums
_SLACK = 1e-9


def topk_order(scores: np.ndarray, doc_ids: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the top ``k`` under (score desc, doc_id asc) — the
    same order as ``np.lexsort((doc_ids, -scores))[:k]``, but only the
    rows tied with or above the k-th score are sorted."""
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    neg = -scores
    if k < len(neg):
        kth = np.partition(neg, k - 1)[k - 1]
        # ~(>) rather than <=: a NaN k-th score keeps every row
        cand = np.flatnonzero(~(neg > kth))
        return cand[np.lexsort((doc_ids[cand], neg[cand]))[:k]]
    return np.lexsort((doc_ids, neg))


def check_sort_direction(direction: str) -> str:
    """``direction`` if it is "asc" or "desc", else ``ValueError``;
    fronts check it before any shard round trip."""
    if direction not in ("asc", "desc"):
        raise ValueError(f"sort_by direction {direction!r}")
    return direction


def top_k(
    doc_ids: np.ndarray,
    scores: np.ndarray,
    k: int,
    after: "tuple[float, int] | None" = None,
    sort: "tuple[np.ndarray, str] | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """The top ``k`` rows as ``(doc_ids, scores)`` in rank order.

    ``after=(score, doc_id)`` is a search-after cursor: only rows strictly
    later in (score desc, doc_id asc) are eligible.  Cursors are copied
    from an engine's own output, so the float comparison is exact.

    ``sort=(keys, direction)`` ranks by the raw doc values ``keys`` (NaN
    = null) instead of by score: ``direction`` "asc" or "desc", nulls
    last either way, ties doc_id asc; scores ride along for display."""
    if after is not None:
        s0, d0 = float(after[0]), np.uint64(after[1])
        keep = (scores < s0) | ((scores == s0) & (doc_ids > d0))
        doc_ids, scores = doc_ids[keep], scores[keep]
    if sort is None:
        order = topk_order(scores, doc_ids, k)
    else:
        keys, direction = sort
        keys = -keys if check_sort_direction(direction) == "desc" else keys
        order = np.lexsort((doc_ids, np.where(np.isnan(keys), np.inf, keys)))[:k]
    return doc_ids[order], scores[order]


def ranked_table(doc_ids: np.ndarray, scores: np.ndarray, urls=None) -> pa.Table:
    """The result table of ranked rows: (rank from 1 uint32, doc_id
    uint64, score float64), plus ``url`` when ``urls`` is given."""
    cols = {
        "rank": pa.array(np.arange(1, len(doc_ids) + 1, dtype=np.uint32)),
        "doc_id": pa.array(doc_ids, pa.uint64()),
        "score": pa.array(scores, pa.float64()),
    }
    if urls is not None:
        cols["url"] = pa.array(urls.tolist(), pa.string())
    return pa.table(cols)


class _TermCursor:
    """Decoded posting list + block metadata for one query term."""

    __slots__ = ("doc_ids", "contrib", "block_last", "block_ub", "max_ub")

    def __init__(self, doc_ids, contrib, block_last, block_ub):
        self.doc_ids = doc_ids
        self.contrib = contrib  # exact per-posting score contribution, ≥ 0
        self.block_last = block_last
        self.block_ub = block_ub  # per-block upper bound on contrib
        self.max_ub = float(block_ub.max()) if len(block_ub) else 0.0


def wand_topk(
    cursors: list[_TermCursor],
    k: int,
    after: tuple[float, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k (score desc, doc_id asc) of the disjunction as
    ``(doc_ids, scores)`` arrays.

    ``after=(score, doc_id)`` — search-after cursor: only documents
    strictly later in the total order are eligible.  It disables pruning:
    page-2 documents score below the cursor, so a θ taken over the whole
    union could drop exactly the blocks that hold them."""
    if not cursors:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
    theta = -np.inf
    if after is None and k > 0:
        for c in cursors:
            if len(c.contrib) >= k:
                theta = max(theta, float(np.partition(c.contrib, -k)[-k]))
    total_ub = sum(c.max_ub for c in cursors)
    floor = theta - _SLACK * total_ub
    ids, contrib = [], []
    for c in cursors:
        d, w = c.doc_ids, c.contrib
        if theta > -np.inf:
            keep_block = c.block_ub + (total_ub - c.max_ub) >= floor
            if not keep_block.all():
                blk = np.searchsorted(c.block_last, d, side="left")
                keep = keep_block[np.minimum(blk, len(keep_block) - 1)]
                d, w = d[keep], w[keep]
        ids.append(d)
        contrib.append(w)
    docs, inv = np.unique(np.concatenate(ids), return_inverse=True)
    scores = np.bincount(inv, weights=np.concatenate(contrib), minlength=len(docs))
    return top_k(docs, scores, k, after)
