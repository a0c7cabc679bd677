"""Per-document TF-IDF keyword extraction — the "what is this page
about" stage of a web pipeline (doc tags, related-search seeds, cluster
labels).

Scale shape: term document-frequencies come from the same exchange the
df-table stage already runs (`build/stats.document_frequency_table`);
the per-doc pass is then MAP-ONLY — each document's term frequencies are
computed inside its own batch (a doc never spans batches), idf is a
``searchsorted`` lookup into the broadcast (hash → df) arrays, and the
top-m selection is a vectorized run-length rank over the lexsorted
(doc, -tfidf, term) order.  Output streams (m rows per doc — never
gathered on the driver).  The broadcast is the full vocabulary: right
while vocab × 16 B fits worker heap (it does for any natural-language
vocabulary after the df floor); an unbounded-vocab corpus would swap the
broadcast for a hash join of the per-doc tf rows against the df table.

Reference analog: none directly — composes the df statistics
(DocumentFrequencyTableBuilder.cpp) with the IDF math the reference
keeps in `src/Common/Utilities` (IdfX10 lookup) into a per-doc ranker.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

import ray

from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.stages.tokenize import flat_tokens, hash_token_array


def _keywords_batch(
    t: pa.Table, *, m: int, n_docs: int, df_ref
) -> pa.Table:
    hashes, dfs = ray.get(df_ref) if isinstance(df_ref, ray.ObjectRef) else df_ref
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tfidf": pa.array([], pa.float64()),
            "rank": pa.array([], pa.int64()),
        }
    )
    if len(t) == 0:
        return empty
    flat, doc_of, _ = flat_tokens(t["text"])
    if len(flat) == 0:
        return empty
    h = hash_token_array(flat)
    order = np.lexsort((h, doc_of))
    hs, ds = h[order], doc_of[order]
    new = np.empty(len(hs), dtype=bool)
    new[0] = True
    new[1:] = (ds[1:] != ds[:-1]) | (hs[1:] != hs[:-1])
    starts = np.flatnonzero(new)
    tf = np.diff(np.append(starts, len(hs))).astype(np.float64)
    run_h, run_d = hs[starts], ds[starts]
    # term text of each run: first occurrence in the sorted order
    run_terms = flat.take(pa.array(order[starts])).to_numpy(zero_copy_only=False)
    run_terms = np.asarray(run_terms, dtype=str)
    idx = np.searchsorted(hashes, run_h)
    idx[idx == len(hashes)] = 0
    found = len(hashes) > 0
    df = dfs[idx] if found else np.ones(len(run_h))
    tfidf = tf * np.log(np.float64(n_docs) / df)
    # top-m per doc: (doc asc, tfidf desc, term asc)
    sel = np.lexsort((run_terms, -tfidf, run_d))
    d2 = run_d[sel]
    doc_start = np.empty(len(d2), dtype=bool)
    doc_start[0] = True
    doc_start[1:] = d2[1:] != d2[:-1]
    pos = np.arange(len(d2)) - np.maximum.accumulate(
        np.where(doc_start, np.arange(len(d2)), 0)
    )
    keep = pos < m
    sel = sel[keep]
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[run_d[sel]], pa.int64()),
            "term": pa.array(run_terms[sel], pa.string()),
            "tfidf": pa.array(np.round(tfidf[sel], 6), pa.float64()),
            "rank": pa.array((pos[keep] + 1).astype(np.int64), pa.int64()),
        }
    )


def doc_keywords(
    corpus: "ray.data.Dataset",
    n_docs: int,
    m: int = 3,
    cfg: EngineConfig | None = None,
) -> "ray.data.Dataset":
    """Top-``m`` TF-IDF terms per document (tfidf = tf · ln(N/df), ties
    broken by term text asc — identical to the SQL window ranking).
    Returns a streaming dataset (doc_id, term, tfidf, rank)."""
    cfg = cfg or EngineConfig(max_gram=1)
    from bitfunnel_ray.build.stats import document_frequency_table

    dft = document_frequency_table(corpus, cfg, emit_text=False)
    parts = [x for x in ray.get(dft.to_arrow_refs()) if len(x)]
    if parts:
        dt = pa.concat_tables(parts)
        hashes = dt["term_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
        dfs = dt["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        o = np.argsort(hashes)
        hashes, dfs = hashes[o], dfs[o]
    else:
        hashes, dfs = np.empty(0, np.uint64), np.empty(0, np.float64)
    df_ref = ray.put((hashes, dfs))
    return corpus.select_columns(["doc_id", "text"]).map_batches(
        partial(_keywords_batch, m=m, n_docs=n_docs, df_ref=df_ref),
        batch_format="pyarrow",
    )


# --- significant terms (foreground vs background df shift) -----------------


_SIG_SENTINEL = "\x00totals\x00"  # contains NULs/space-free: never a token


def _sig_partials(t: pa.Table, *, fg_term: str) -> pa.Table:
    """Per-block (term, fg_df_part, df_part) rows with df semantics (a
    term counts once per doc), plus ONE sentinel row carrying the block's
    (fg docs, total docs) totals — the whole aggregation is a single
    corpus pass."""
    import pyarrow.compute as pc

    flat, doc_of, _ = flat_tokens(t["text"])
    n_docs = len(t)
    if len(flat) == 0:
        term_arr = pa.array([_SIG_SENTINEL], pa.string())
        fg_arr = np.array([0], np.int64)
        df_arr = np.array([n_docs], np.int64)
    else:
        # unique (term, doc) pairs without any per-token string work:
        # dictionary-encode once, pair = code * n_docs + doc (ints)
        d = pc.dictionary_encode(flat)
        codes = d.indices.to_numpy().astype(np.int64)
        pair = np.unique(codes * n_docs + doc_of)
        code_u, doc_u = pair // n_docs, pair % n_docs
        vocab = d.dictionary
        fg_idx = pc.index(vocab, fg_term).as_py()
        fg_docs = doc_u[code_u == fg_idx] if fg_idx >= 0 else doc_u[:0]
        is_fg = np.isin(doc_u, fg_docs)
        df_part = np.bincount(code_u, minlength=len(vocab)).astype(np.int64)
        fg_part = np.bincount(
            code_u, weights=is_fg.astype(np.float64), minlength=len(vocab)
        ).astype(np.int64)
        term_arr = pa.concat_arrays(
            [vocab.cast(pa.string()), pa.array([_SIG_SENTINEL], pa.string())]
        )
        fg_arr = np.concatenate([fg_part, [len(fg_docs)]])
        df_arr = np.concatenate([df_part, [n_docs]])
    return pa.table(
        {
            "term": term_arr,
            "fg_df": pa.array(fg_arr, pa.int64()),
            "df": pa.array(df_arr, pa.int64()),
        }
    )


def _sig_reduce(t: pa.Table) -> pa.Table:
    if len(t) == 0:
        return t
    import pyarrow.compute as pc

    d = pc.dictionary_encode(t["term"].combine_chunks())
    idx = d.indices.to_numpy()
    fg = np.bincount(
        idx, weights=t["fg_df"].to_numpy(zero_copy_only=False), minlength=len(d.dictionary)
    ).astype(np.int64)
    df = np.bincount(
        idx, weights=t["df"].to_numpy(zero_copy_only=False), minlength=len(d.dictionary)
    ).astype(np.int64)
    return pa.table(
        {
            "term": d.dictionary,
            "fg_df": pa.array(fg),
            "df": pa.array(df),
        }
    )


def significant_terms(
    corpus: "ray.data.Dataset",
    fg_term: str,
    min_fg_df: int = 3,
    k: int = 25,
) -> pa.Table:
    """Elasticsearch ``significant_terms`` analog with the JLH score:
    foreground = documents containing ``fg_term``, background = the whole
    corpus;

        score(t) = (fg% - bg%) * (fg% / bg%),   fg% = fg_df/|fg|, bg% = df/N

    for terms with fg% > bg% and fg_df >= ``min_fg_df``; top-``k`` by
    (score desc, term asc).

    Scale shape: ONE corpus pass emits per-block (term, fg_df, df)
    partials WITH df semantics plus a sentinel totals row; one hash
    exchange + vectorized reduce; the totals sentinel is read from the
    (materialized, distributed) reduced table; scoring is map-only and
    the final selection is the tie-aware map-side top-k.  The float is a
    single fixed expression order mirrored in the SQL oracle."""
    from functools import partial as _bind

    from bitfunnel_ray.ops.exchange import exchange
    from bitfunnel_ray.build.stats import top_k_by

    partials = corpus.select_columns(["text"]).map_batches(
        _bind(_sig_partials, fg_term=fg_term),
        batch_format="pyarrow",
        batch_size=None,
    )
    reduced = exchange(partials, ["term"], _sig_reduce).materialize()
    tot = reduced.map_batches(
        lambda t: t.filter(pa.compute.equal(t["term"], _SIG_SENTINEL)),
        batch_format="pyarrow",
        batch_size=None,
    ).to_pandas()
    fg_n, bg_n = float(tot["fg_df"].iloc[0]), float(tot["df"].iloc[0])
    if fg_n <= 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "fg_df": pa.array([], pa.int64()),
                "df": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            }
        )

    def _score(t: pa.Table) -> pa.Table:
        keep = pa.compute.and_(
            pa.compute.not_equal(t["term"], _SIG_SENTINEL),
            pa.compute.greater_equal(t["fg_df"], pa.scalar(min_fg_df)),
        )
        t = t.filter(keep)
        fgp = t["fg_df"].to_numpy(zero_copy_only=False).astype(np.float64) / fg_n
        bgp = t["df"].to_numpy(zero_copy_only=False).astype(np.float64) / bg_n
        score = (fgp - bgp) * (fgp / bgp)
        m = fgp > bgp
        return pa.table(
            {
                "term": t["term"].filter(pa.array(m)),
                "fg_df": t["fg_df"].filter(pa.array(m)),
                "df": t["df"].filter(pa.array(m)),
                "score": pa.array(score[m], pa.float64()),
            }
        )

    scored = reduced.map_batches(_score, batch_format="pyarrow", batch_size=None)
    return top_k_by(scored, k=k, col="score", tiebreak="term")
