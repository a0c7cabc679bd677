"""BM25 scoring math (public Robertson/Okapi formula) and the reference's
IDF quantization helpers.

The reference computes no relevance score (its matcher returns an unranked
result set); BM25 top-k is required by the north_star.  The reference's
closest analog is its IdfX10 quantization of document frequency
(src/Index/src/Term.cpp:232-261), reproduced here for the term-treatment
banding (head/tail split) and parity diagnostics.

Canonical scoring contract (shared with the pytest oracle, SURVEY.md §7.5):
all math in float64; score(doc, query) = Σ over *distinct positive* query
terms t contained in doc of::

    idf(t)   = ln((N - df + 0.5) / (df + 0.5) + 1)
    tfn(t,d) = tf / (tf + k1 * (1 - b + b * dl / avgdl))
    s(t,d)   = idf(t) * (k1 + 1) * tfn(t,d)

ties broken (score desc, doc_id asc).

This module is the one place that formula is written.  The serving
engines never re-derive it per request: ``query/engine.py`` ``Postings``
memoizes ``score_contrib`` over a whole posting list (its impact array),
keyed by every input (df, N, avgdl, k1, b), and scoring gathers from that
array.  The element-wise float64 recipe is the same whether it runs over
the full list or over a gathered subset, so the memo changes no score
bit.  Upper bounds on a contribution (block-max and shard bounds) are
``term_weight(df, N, k1) * max_tfn``.
"""

from __future__ import annotations

import math

import numpy as np


def idf(df: np.ndarray | float, n_docs: float) -> np.ndarray | float:
    """Okapi BM25 idf with +1 floor (never negative)."""
    return np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def tf_norm(
    tf: np.ndarray, doclen: np.ndarray, avgdl: float, k1: float = 1.2, b: float = 0.75
) -> np.ndarray:
    tf = tf.astype(np.float64, copy=False)
    dl = doclen.astype(np.float64, copy=False)
    return tf / (tf + k1 * (1.0 - b + b * dl / avgdl))


def term_weight(df: float, n_docs: float, k1: float = 1.2) -> float:
    """idf(t) * (k1 + 1): a term's contribution per unit of tfn."""
    return float(idf(df, n_docs)) * (k1 + 1.0)


def score_contrib(
    tf: np.ndarray,
    doclen: np.ndarray,
    df: float,
    n_docs: float,
    avgdl: float,
    k1: float = 1.2,
    b: float = 0.75,
) -> np.ndarray:
    """Per-posting BM25 contribution of one term."""
    return term_weight(df, n_docs, k1) * tf_norm(tf, doclen, avgdl, k1, b)


# --- reference IDF quantization parity (Term.cpp:232-325) ----------------

IDF_X10_MAX = 60  # Term.h:84


def compute_idf_x10(df: int, corpus_size: float, max_idf_x10: int = IDF_X10_MAX) -> int:
    """round(10 * log10(corpus/df)), capped — Term::ComputeIdfX10
    (Term.cpp:232-246); df==0 maps to the cap."""
    if df == 0:
        return max_idf_x10
    i = math.log10(corpus_size / df)
    x10 = int(i * 10.0 + 0.5)
    return min(x10, max_idf_x10)


def idf_x10_to_frequency(idf_x10: int) -> float:
    """Term::IdfX10ToFrequency (Term.cpp:249-252): 10^(-idfx10/10)."""
    return math.pow(10.0, -idf_x10 / 10.0)


def frequency_at_rank(frequency: float, rank: int) -> float:
    """f_r = 1 - (1-f)^(2^rank) — Term::FrequencyAtRank (Term.cpp:270-283)."""
    return 1.0 - math.pow(1.0 - frequency, 2 ** rank)
