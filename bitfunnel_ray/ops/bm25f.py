"""Field-weighted BM25F scoring over a multi-field corpus — the public
Robertson/Zaragoza ("The Probabilistic Relevance Framework", 2009) simple
-BM25F: per-field length-normalized tf, weighted sum across fields, one
saturation per term:

    tf̂_s(t,d)  = tf_s / (1 - b + b · dl_s/avgdl_s)
    tf̃(t,d)    = Σ_s w_s · tf̂_s
    score(d)   = Σ_t idf(t) · tf̃ / (k1 + tf̃),   idf = ln((N-df+0.5)/(df+0.5)+1)

with df(t) = documents containing t in ANY field.  This is the offline /
rerank scoring path (no index required): two streaming passes over the
corpus — a stats pass (per-field Σdl + per-term df partials, driver-small
reduce) and a scoring pass with map-side top-k partials (≤ k rows per
block reach the reduce, ann.py pattern).  The indexed engine scores
single-stream BM25 (query/engine.py:297); BM25F composes streams the way
the reference's StreamConfiguration separates them (reference:
src/Common/Configuration/src/StreamConfiguration.cpp:52-143).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray.data

from bitfunnel_ray.functions import bm25
from bitfunnel_ray.query.wand import topk_order
from bitfunnel_ray.stages.tokenize import flat_tokens


def _stats_block(t: pa.Table, *, fields, terms) -> pa.Table:
    """Per-block partials: for each field, (Σ dl, n docs); for each
    (term, any-field), the set-bit per doc is OR-reduced then counted."""
    n = len(t)
    rows_field, rows_sumdl, rows_n = [], [], []
    any_hit = np.zeros((n, len(terms)), dtype=bool)
    tarr = np.asarray(terms, dtype=object)
    for col, _w in fields:
        flat, doc_of, doclen = flat_tokens(t[col])
        rows_field.append(col)
        rows_sumdl.append(int(doclen.sum()))
        rows_n.append(n)
        if len(flat):
            tok = flat.dictionary_encode()
            uniq = np.asarray(tok.dictionary.to_pylist(), dtype=object)
            pos = {v: i for i, v in enumerate(tarr)}
            u_ti = np.array([pos.get(u, -1) for u in uniq], dtype=np.int64)
            ti = u_ti[tok.indices.to_numpy(zero_copy_only=False)]
            m = ti >= 0
            any_hit[doc_of[m], ti[m]] = True
    df = any_hit.sum(axis=0).astype(np.int64)
    return pa.table(
        {
            "field": pa.array(rows_field + ["\x00df"] * len(terms), pa.string()),
            "key": pa.array([""] * len(rows_field) + list(terms), pa.string()),
            "a": pa.array(rows_sumdl + df.tolist(), pa.int64()),
            "b": pa.array(rows_n + [0] * len(terms), pa.int64()),
        }
    )


def _score_block(
    t: pa.Table, *, fields, terms, avgdl, n_docs, df, k1, b, k
) -> pa.Table:
    n = len(t)
    tfh = np.zeros((n, len(terms)), dtype=np.float64)
    tarr = np.asarray(terms, dtype=object)
    for col, w in fields:
        flat, doc_of, doclen = flat_tokens(t[col])
        if not len(flat):
            continue
        tok = flat.dictionary_encode()
        uniq = np.asarray(tok.dictionary.to_pylist(), dtype=object)
        pos = {v: i for i, v in enumerate(tarr)}
        u_ti = np.array([pos.get(u, -1) for u in uniq], dtype=np.int64)
        ti = u_ti[tok.indices.to_numpy(zero_copy_only=False)]
        m = ti >= 0
        if not m.any():
            continue
        tf = np.zeros((n, len(terms)), dtype=np.float64)
        np.add.at(tf, (doc_of[m], ti[m]), 1.0)
        norm = 1.0 - b + b * (doclen.astype(np.float64) / avgdl[col])
        tfh += w * (tf / norm[:, None])
    idf = bm25.idf(df, n_docs)
    score = (idf[None, :] * (tfh / (k1 + tfh))).sum(axis=1)
    hit = (tfh > 0).any(axis=1)
    if not hit.any():
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
        )
    doc = t["doc_id"].to_numpy(zero_copy_only=False)[hit]
    sc = score[hit]
    # map-side top-k partial (score desc, doc_id asc).  The final reduce
    # ranks by ROUNDED score with doc_id tiebreak, so keep every row
    # within 1e-6 of the block's k-th score: two scores rounding to the
    # same 1e-6 grid point differ by < 1e-6, hence no global winner can
    # be pruned map-side (the ann.py tie-break lesson).
    order = np.lexsort((doc, -sc))
    if len(order) > k:
        cutoff = sc[order[k - 1]] - 1e-6
        order = order[sc[order] >= cutoff]
    return pa.table(
        {
            "doc_id": pa.array(doc[order].astype(np.int64), pa.int64()),
            "score": pa.array(sc[order], pa.float64()),
        }
    )


def bm25f_topk(
    corpus: "ray.data.Dataset",
    terms: list[str],
    fields: list[tuple[str, float]],
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> pa.Table:
    """→ (rank, doc_id, score) top-k by simple-BM25F over weighted fields.
    OR matching (any term in any field). Scores rounded to 1e-6 like the
    indexed BM25 path so accumulation-order noise cancels."""
    cols = ["doc_id"] + [c for c, _ in fields]
    slim = corpus.select_columns(cols)
    stats = (
        slim.map_batches(
            partial(_stats_block, fields=fields, terms=terms), batch_format="pyarrow"
        )
        .groupby(["field", "key"])
        .sum(["a", "b"])
        .take_all()
    )  # ≤ (n_fields + n_terms) rows
    avgdl, n_docs = {}, 0
    df = np.zeros(len(terms), dtype=np.int64)
    tpos = {t: i for i, t in enumerate(terms)}
    for r in stats:
        if r["field"] == "\x00df":
            df[tpos[r["key"]]] = r["sum(a)"]
        else:
            avgdl[r["field"]] = None  # fill below once n known
            n_docs = max(n_docs, int(r["sum(b)"]))
    for r in stats:
        if r["field"] != "\x00df":
            avgdl[r["field"]] = float(r["sum(a)"]) / float(r["sum(b)"])
    parts = slim.map_batches(
        partial(
            _score_block,
            fields=fields,
            terms=terms,
            avgdl=avgdl,
            n_docs=n_docs,
            df=df,
            k1=k1,
            b=b,
            k=k,
        ),
        batch_format="pyarrow",
    )
    all_parts = parts.to_pandas()
    sc = np.round(all_parts["score"].to_numpy(), 6)
    doc = all_parts["doc_id"].to_numpy()
    order = topk_order(sc, doc, k)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64), pa.int64()),
            "doc_id": pa.array(doc[order], pa.int64()),
            "score": pa.array(sc[order], pa.float64()),
        }
    )
