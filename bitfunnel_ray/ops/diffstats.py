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
    from bitfunnel_ray.ops.exchange import cogroup

    side = pa.schema([(id_col, pa.int64()), ("text", pa.string())])

    def diff_block(o: pa.Table, n: pa.Table) -> pa.Table:
        oid = o[id_col].to_numpy(zero_copy_only=False)
        nid = n[id_col].to_numpy(zero_copy_only=False)
        gone, fresh = ~np.isin(oid, nid), ~np.isin(nid, oid)
        one = np.concatenate([oid[gone], nid[fresh]])
        order = np.argsort(one, kind="stable")
        ids = [one[order]]
        status = [np.repeat(["removed", "added"], [gone.sum(), fresh.sum()])[order]]
        # docs on both sides, aligned by id: compare texts vectorized
        ob, nb = np.flatnonzero(~gone), np.flatnonzero(~fresh)
        ob, nb = ob[np.argsort(oid[ob])], nb[np.argsort(nid[nb])]
        ne = pc.not_equal(
            o["text"].take(pa.array(ob)), n["text"].take(pa.array(nb))
        ).to_numpy(zero_copy_only=False)
        ids.append(oid[ob][ne])
        status.append(np.full(int(ne.sum()), "changed"))
        return pa.table(
            {
                id_col: pa.array(np.concatenate(ids), pa.int64()),
                "status": pa.array(np.concatenate(status).tolist(), pa.string()),
            }
        )

    return cogroup(
        old.select_columns([id_col, "text"]),
        new.select_columns([id_col, "text"]),
        [id_col],
        diff_block,
        left_schema=side,
        right_schema=side,
    )


def _drift_join_block(p: pa.Table, q: pa.Table) -> pa.Table:
    """Co-located (term, cf) partials of the two corpora → one (term, cp,
    cq) row per term (vectorized segment sums per side)."""
    d = pc.dictionary_encode(pa.concat_tables([p, q])["term"].combine_chunks())
    idx = d.indices.to_numpy()
    is_p = np.arange(len(idx)) < len(p)
    cnt = np.concatenate([t["cf"].to_numpy(zero_copy_only=False) for t in (p, q)])
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
    from bitfunnel_ray.ops.exchange import cogroup

    cfg = EngineConfig(max_gram=1)
    side = pa.schema([("term", pa.string()), ("cf", pa.int64())])
    p, q = (
        document_frequency_table(ds, cfg).select_columns(["term", "cf"])
        for ds in (corpus_p, corpus_q)
    )
    joined = cogroup(
        p, q, ["term"], _drift_join_block, left_schema=side, right_schema=side
    ).materialize()  # consumed 3x (two scalar aggs + the drift map)
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
