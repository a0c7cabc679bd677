"""Corpus delta + distribution drift — the recurring-crawl operators.

A production web pipeline re-crawls continuously; before re-indexing it
wants (a) the DELTA — which documents appeared, vanished, or changed —
and (b) DRIFT — how the term distribution moved, to catch scraper
breakage or topic shift before the index is rebuilt.

``corpus_diff``: full outer join by doc key, status per row
(added/removed/changed), comparing a cheap per-row fingerprint (here the
raw text; swap in ``textstats.fingerprint`` for long docs).  One hash
exchange on the id; fixed-width rows only.

``drift_terms``: per-corpus term distributions → per-term drift
contribution p·ln(p/q) (the KL summand, smoothed) — emitted PER TERM and
top-k'd rather than summed, so every float is a single fixed-recipe
expression (order-independent, oracle-hashable) and the output is the
actionable artifact anyway: WHICH terms drifted, not one opaque number.
Both distributions come from the same map-side-combine df machinery;
the join of the two small aggregated tables happens per hash-partition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def corpus_diff(
    old: "ray.data.Dataset", new: "ray.data.Dataset", id_col: str = "doc_id"
) -> "ray.data.Dataset":
    """(doc_id, status) for every differing doc: 'added' (only in new),
    'removed' (only in old), 'changed' (both, text differs)."""
    from bitfunnel_ray.ops.exchange import exchange

    def tag(which: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    id_col: t[id_col].cast(pa.int64()),
                    "side": pa.array([which] * len(t), pa.string()),
                    "text": t["text"],
                }
            )

        return f

    both = old.select_columns([id_col, "text"]).map_batches(
        tag("old"), batch_format="pyarrow"
    ).union(
        new.select_columns([id_col, "text"]).map_batches(
            tag("new"), batch_format="pyarrow"
        )
    )

    def diff_block(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {id_col: pa.array([], pa.int64()), "status": pa.array([], pa.string())}
        )
        if len(t) == 0:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False)
        is_new = pc.equal(t["side"], "new").to_numpy(zero_copy_only=False)
        order = np.lexsort((is_new, ids))
        ids_s, new_s = ids[order], is_new[order]
        txt = t["text"].take(pa.array(order))
        starts = np.flatnonzero(np.diff(ids_s, prepend=ids_s[0] - 1))
        counts = np.diff(np.append(starts, len(ids_s)))
        out_ids, out_status = [], []
        one = starts[counts == 1]
        if len(one):
            out_ids.append(ids_s[one])
            out_status.append(
                np.where(new_s[one], "added", "removed").astype(object)
            )
        two = starts[counts == 2]
        if len(two):
            # sorted (old, new) within each id: compare texts vectorized
            a = txt.take(pa.array(two))
            b = txt.take(pa.array(two + 1))
            ne = pc.not_equal(a, b).to_numpy(zero_copy_only=False)
            ch = two[ne]
            if len(ch):
                out_ids.append(ids_s[ch])
                out_status.append(np.full(len(ch), "changed", dtype=object))
        if not out_ids:
            return empty
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_ids), pa.int64()),
                "status": pa.array(
                    np.concatenate(out_status).tolist(), pa.string()
                ),
            }
        )

    return exchange(both, [id_col], diff_block)


def _drift_join_block(t: pa.Table) -> pa.Table:
    """Co-located (term, side, cnt) partials → one (term, cp, cq) row per
    term (vectorized segment sums per side)."""
    if len(t) == 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "cp": pa.array([], pa.int64()),
                "cq": pa.array([], pa.int64()),
            }
        )
    d = pc.dictionary_encode(t["term"].combine_chunks())
    idx = d.indices.to_numpy()
    is_p = pc.equal(t["side"], "p").to_numpy(zero_copy_only=False)
    cnt = t["cnt"].to_numpy(zero_copy_only=False)
    cp = np.zeros(len(d.dictionary), dtype=np.int64)
    cq = np.zeros(len(d.dictionary), dtype=np.int64)
    np.add.at(cp, idx[is_p], cnt[is_p])
    np.add.at(cq, idx[~is_p], cnt[~is_p])
    return pa.table({"term": d.dictionary, "cp": pa.array(cp), "cq": pa.array(cq)})


def drift_terms(
    corpus_p: "ray.data.Dataset",
    corpus_q: "ray.data.Dataset",
    k: int = 50,
) -> pa.Table:
    """Top-k terms by KL-summand drift contribution
    ``round(p * ln(p/q), 9)`` where p, q are add-one-smoothed unigram
    frequencies of the two corpora (shared vocabulary = union).

    Fully distributed: each corpus's (term, count) table comes from the
    map-side-combine df machinery, the two sides co-locate with ONE hash
    exchange on term, the per-term drift is a vectorized map, and only
    tie-aware top-k partials (≤ k rows/block) reach the driver.  The two
    smoothing totals are scalar aggregates (driver-small by definition).
    Exact int counts aggregate distributively; each output float is one
    fixed expression of two exact ints — bit-stable for the oracle hash,
    and the top-k order uses the ROUNDED value so last-ulp libm
    differences cannot reorder ties."""
    from bitfunnel_ray.build.stats import document_frequency_table, top_k_by
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.ops.exchange import exchange

    cfg = EngineConfig(max_gram=1)

    def tagged(ds, side):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "term": t["term"],
                    "side": pa.array([side] * len(t), pa.string()),
                    "cnt": t["cf"].cast(pa.int64()),
                }
            )

        return document_frequency_table(ds, cfg).select_columns(
            ["term", "cf"]
        ).map_batches(f, batch_format="pyarrow")

    both = tagged(corpus_p, "p").union(tagged(corpus_q, "q"))
    joined = exchange(both, ["term"], _drift_join_block).materialize()  # consumed 3x (two scalar aggs + the drift map)
    vocab_n = joined.count()
    sums = joined.sum(["cp", "cq"])
    np_tot = int(sums["sum(cp)"]) + vocab_n
    nq_tot = int(sums["sum(cq)"]) + vocab_n

    def drift_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "drift": pa.array([], pa.float64()),
                    "absdrift": pa.array([], pa.float64()),
                }
            )
        p = (t["cp"].to_numpy(zero_copy_only=False) + 1) / np_tot
        q = (t["cq"].to_numpy(zero_copy_only=False) + 1) / nq_tot
        d = np.round(p * np.log(p / q), 9)
        return pa.table(
            {
                "term": t["term"],
                "drift": pa.array(d, pa.float64()),
                "absdrift": pa.array(np.abs(d), pa.float64()),
            }
        )

    top = top_k_by(
        joined.map_batches(drift_block, batch_format="pyarrow"),
        k=k,
        col="absdrift",
        tiebreak="term",
    )
    return top.select(["term", "drift"])
