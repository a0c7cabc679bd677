"""Corpus-wide n-gram frequency table (Google-n-grams-style LM statistic).

A language-model data pipeline wants the head of the corpus's n-gram
distribution — for tokenizer training, boilerplate discovery, and
contamination fingerprints.  The reference's statistics pass counts
per-term document frequency only (df table,
src/Index/src/DocumentFrequencyTableBuilder.cpp:33-58); this operator is
the collection-frequency analog over contiguous token windows.

Shape (the same map-side-combine exchange as the df table):

1. ``map_batches`` per block: split text (vectorized), form adjacent
   n-gram strings with ``pc.binary_join_element_wise`` (C kernel, no
   python loop), drop windows that cross a document boundary, and count
   each distinct gram ONCE PER BLOCK (dictionary-encode + bincount) —
   the exchange carries one (gram, count) partial per distinct gram per
   block, never the token stream.
2. one hash exchange on ``gram`` + a vectorized per-block reduce.
3. map-side tie-aware top-k (``top_k_by``) — the final gather moves
   O(k · blocks) rows, not the n-gram vocabulary.

At 100 TB the n-gram vocabulary is Zipf: block-local pre-aggregation
compresses the head by ~the block's repetition factor, and the tail rows
are fixed-width-ish short strings.  The exchange is the one unavoidable
all-to-all; everything else is map-only.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from bitfunnel_ray.stages.tokenize import flat_tokens


def _gram_partials(t: pa.Table, *, n: int) -> pa.Table:
    flat, doc_of, _ = flat_tokens(t["text"])
    empty = pa.table(
        {"gram": pa.array([], pa.string()), "cnt_part": pa.array([], pa.int64())}
    )
    m = len(flat) - (n - 1)
    if m <= 0:
        return empty
    # windows that stay inside one document: doc_of[i] == doc_of[i+n-1]
    keep = doc_of[: m] == doc_of[n - 1 :]
    if not keep.any():
        return empty
    idx = np.flatnonzero(keep)
    # last argument of binary_join_element_wise is the separator
    parts = [flat.take(pa.array(idx + off)) for off in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ")
    d = pc.dictionary_encode(grams)
    counts = np.bincount(d.indices.to_numpy(), minlength=len(d.dictionary))
    return pa.table(
        {
            "gram": d.dictionary,
            "cnt_part": pa.array(counts.astype(np.int64)),
        }
    )


def _combine_grams(t: pa.Table) -> pa.Table:
    if len(t) == 0:
        return pa.table(
            {"gram": pa.array([], pa.string()), "count": pa.array([], pa.int64())}
        )
    d = pc.dictionary_encode(t["gram"].combine_chunks())
    idx = d.indices.to_numpy()
    counts = np.bincount(
        idx, weights=t["cnt_part"].to_numpy(zero_copy_only=False), minlength=len(d.dictionary)
    )
    return pa.table(
        {"gram": d.dictionary, "count": pa.array(counts.astype(np.int64))}
    )


def ngram_counts(
    corpus: "ray.data.Dataset", n: int = 2
) -> "ray.data.Dataset":
    """Full (gram, count) table, one row per distinct within-document
    n-gram of adjacent whitespace tokens."""
    if n < 1:
        raise ValueError("n must be >= 1")
    partials = corpus.select_columns(["text"]).map_batches(
        partial(_gram_partials, n=n), batch_format="pyarrow", batch_size=None
    )
    from bitfunnel_ray.ops.exchange import exchange

    return exchange(partials, ["gram"], _combine_grams)


def top_ngrams(corpus: "ray.data.Dataset", n: int = 2, k: int = 100) -> pa.Table:
    """Top-k n-grams by count (count desc, gram asc) — tie-aware map-side
    top-k, no all-to-all sort."""
    from bitfunnel_ray.build.stats import top_k_by

    return top_k_by(ngram_counts(corpus, n), k=k, col="count", tiebreak="gram")


# --- PMI collocations ------------------------------------------------------


def _totals_partial(t: pa.Table) -> pa.Table:
    """(n_tokens, n_bigrams) partial per block — one cheap scan, no
    exchange; n_bigrams counts within-document adjacent windows."""
    flat, doc_of, _ = flat_tokens(t["text"])
    n_tok = len(flat)
    n_big = int((doc_of[:-1] == doc_of[1:]).sum()) if n_tok > 1 else 0
    return pa.table(
        {
            "n_tokens": pa.array([n_tok], pa.int64()),
            "n_bigrams": pa.array([n_big], pa.int64()),
        }
    )


def _attach_count(big: pa.Table, uni: pa.Table, *, key: str, out_col: str) -> pa.Table:
    """Per-partition equi-join after a ``cogroup`` on ``key``: each
    bigram row gains its ``key`` word's unigram count.  Every bigram's
    word exists as a unigram by construction, so the lookup asserts
    totality."""
    pos = pc.index_in(big[key], value_set=uni[key].combine_chunks())
    assert pos.null_count == 0, "bigram word missing from unigram vocabulary"
    return big.append_column(out_col, uni[out_col].take(pos))


def pmi_collocations(
    corpus: "ray.data.Dataset",
    min_count: int = 5,
    k: int = 100,
) -> pa.Table:
    """Top-k collocations by pointwise mutual information (Church & Hanks
    1990) over within-document adjacent bigrams:

        pmi(a b) = ln( (c_ab / N2) / ((c_a / N1) * (c_b / N1)) )

    with N1 = total tokens, N2 = total bigram windows, and a
    ``min_count`` support filter on c_ab (raw PMI is maximized by
    hapaxes; the filter is the standard remedy).  Ordered pmi desc,
    gram asc.

    Scale shape: NO broadcast of the vocabulary — unigram counts attach
    to the surviving bigrams via two ``cogroup`` joins keyed on the left
    then the right word (per-partition ``index_in`` resolve), so every
    exchange carries (word, count)-sized rows.  N1/N2 come from one
    extra map-only scan of the corpus.  The final float is computed in
    ONE fixed expression order so the DuckDB oracle is bit-identical
    after round(,6)."""
    from bitfunnel_ray.ops.exchange import cogroup
    from bitfunnel_ray.build.stats import top_k_by

    totals = (
        corpus.select_columns(["text"])
        .map_batches(_totals_partial, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .sum()
    )
    n1, n2 = float(totals["n_tokens"]), float(totals["n_bigrams"])
    if n1 <= 0 or n2 <= 0:
        return pa.table(
            {
                "gram": pa.array([], pa.string()),
                "pair_count": pa.array([], pa.int64()),
                "pmi": pa.array([], pa.float64()),
            }
        )

    def _split_filter(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t["count"], pa.scalar(min_count))
        t = t.filter(keep)
        words = pc.split_pattern(t["gram"], " ")
        return pa.table(
            {
                "gram": t["gram"],
                "pcnt": t["count"].cast(pa.int64()),
                "left": pc.list_element(words, 0),
                "right": pc.list_element(words, 1),
            }
        )

    joined = ngram_counts(corpus, 2).map_batches(
        _split_filter, batch_format="pyarrow", batch_size=None
    )
    schema = pa.schema(
        [("gram", pa.string()), ("pcnt", pa.int64()), ("left", pa.string()), ("right", pa.string())]
    )
    unigrams = ngram_counts(corpus, 1)
    # pass 1: resolve c_left; pass 2: resolve c_right
    for key, out_col in (("left", "c_left"), ("right", "c_right")):
        uni = pa.schema([(key, pa.string()), (out_col, pa.int64())])
        joined = cogroup(
            joined,
            unigrams.rename_columns({"gram": key, "count": out_col}),
            [key],
            partial(_attach_count, key=key, out_col=out_col),
            left_schema=schema,
            right_schema=uni,
        )
        schema = schema.append(uni.field(out_col))

    def _pmi(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "gram": pa.array([], pa.string()),
                    "pair_count": pa.array([], pa.int64()),
                    "pmi": pa.array([], pa.float64()),
                }
            )
        pcnt = t["pcnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        ca = t["c_left"].to_numpy(zero_copy_only=False).astype(np.float64)
        cb = t["c_right"].to_numpy(zero_copy_only=False).astype(np.float64)
        # fixed expression order — mirrored verbatim in the SQL oracle
        pmi = np.log((pcnt / n2) / ((ca / n1) * (cb / n1)))
        return pa.table(
            {
                "gram": t["gram"],
                "pair_count": t["pcnt"].cast(pa.int64()),
                "pmi": pa.array(pmi, pa.float64()),
            }
        )

    scored = joined.map_batches(_pmi, batch_format="pyarrow", batch_size=None)
    return top_k_by(scored, k=k, col="pmi", tiebreak="gram")
