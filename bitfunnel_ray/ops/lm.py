"""Bigram language model: distributed training + per-document perplexity
scoring (the CCNet / Wikipedia-LM quality signal), and DSIR-style
importance weights for target-distribution resampling.

A pretraining-data pipeline buckets documents by how "language-like" they
are under a cheap LM trained on the corpus itself (CCNet, Wenzek et al.
2020 uses a KenLM 5-gram; the signal survives at order 2) and resamples
raw data toward a target domain by n-gram importance weights (DSIR, Xie
et al. 2023).  Both reduce to the same machinery the df table already
uses (reference statistics precedent:
src/Index/src/DocumentFrequencyTableBuilder.cpp:33-58): map-side partial
counts, ONE hash exchange on the gram string, a vectorized reduce, and a
driver-small model broadcast back through the object store.

Scale posture (100 TB):

- Training moves (gram, count) partials only — one distinct-gram row per
  block, never the token stream.  The exchange is the single all-to-all.
- The model itself must be broadcastable: cap it with ``vocab_size``
  (OOV tokens fold into ``<unk>`` *before* bigrams are formed, so the
  capped model is a proper LM over the closed vocabulary, not a pruned
  table with leaked mass) and ``min_count`` (drops the bigram tail;
  dropped bigrams score as unseen — an approximation, default off).
  A 64k vocab with a min-counted bigram table is tens of MB: one
  ``ray.put``, zero-copy numpy on every node.
- Scoring is map-only: hash the token stream (dictionary-encoded, unique
  vocab hashed once), two ``searchsorted`` lookups per bigram position,
  one segmented ``bincount`` per block.

Laplace (add-one) smoothing throughout:  p(w2 | w1) = (c(w1 w2) + 1) /
(c(w1) + V)  with V = |unigram vocab| (including ``<unk>`` when capped).
Unseen bigrams and unseen/OOV prefixes degrade continuously to 1/V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from bitfunnel_ray.ops.ngrams import ngram_counts
from bitfunnel_ray.stages.tokenize import flat_tokens, hash_token_array

_UNK = "<unk>"


@dataclass
class BigramLM:
    """Broadcastable bigram model: sorted hash keys + counts (numpy)."""

    uni_keys: np.ndarray  # uint64, sorted — murmur64a of the unigram string
    uni_cnt: np.ndarray  # int64, aligned with uni_keys
    big_keys: np.ndarray  # uint64, sorted — murmur64a of "w1 w2"
    big_cnt: np.ndarray  # int64, aligned with big_keys
    vocab_v: int  # V in the Laplace denominator (incl. <unk> if capped)
    vocab_keys: np.ndarray | None = None  # uint64 sorted; None = uncapped


def _gather_counts(ds: "ray.data.Dataset") -> pa.Table:
    tables = [t for t in ray.get(ds.to_arrow_refs()) if len(t)]
    if not tables:
        return pa.table({"gram": pa.array([], pa.string()), "count": pa.array([], pa.int64())})
    return pa.concat_tables(tables).combine_chunks()


def _keyed(tbl: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(sorted uint64 hash keys, aligned counts) from a (gram, count) table."""
    if len(tbl) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    keys = hash_token_array(tbl["gram"].combine_chunks())
    cnt = tbl["count"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    return keys[order], cnt[order]


def _map_oov(flat: pa.Array, vocab_keys: np.ndarray) -> pa.Array:
    """Replace tokens outside the closed vocabulary with ``<unk>``."""
    if len(vocab_keys) == 0:
        return pc.if_else(pa.array(np.zeros(len(flat), bool)), flat, _UNK)
    h = hash_token_array(flat)
    pos = np.searchsorted(vocab_keys, h)
    pos[pos >= len(vocab_keys)] = 0
    in_vocab = vocab_keys[pos] == h
    if in_vocab.all():
        return flat
    return pc.if_else(pa.array(in_vocab), flat, _UNK)


def _bigram_partials_capped(t: pa.Table, *, vocab_ref) -> pa.Table:
    """Per-block (gram, cnt_part) bigram partials with OOV → <unk> applied
    BEFORE windowing (so the capped model is a closed-vocabulary LM)."""
    vocab_keys = ray.get(vocab_ref) if isinstance(vocab_ref, ray.ObjectRef) else vocab_ref
    flat, doc_of, _ = flat_tokens(t["text"])
    empty = pa.table({"gram": pa.array([], pa.string()), "cnt_part": pa.array([], pa.int64())})
    m = len(flat) - 1
    if m <= 0:
        return empty
    flat = _map_oov(flat, vocab_keys)
    keep = doc_of[:m] == doc_of[1:]
    if not keep.any():
        return empty
    idx = np.flatnonzero(keep)
    grams = pc.binary_join_element_wise(
        flat.take(pa.array(idx)), flat.take(pa.array(idx + 1)), " "
    )
    d = pc.dictionary_encode(grams)
    counts = np.bincount(d.indices.to_numpy(), minlength=len(d.dictionary))
    return pa.table({"gram": d.dictionary, "cnt_part": pa.array(counts.astype(np.int64))})


def train_bigram_lm(
    corpus: "ray.data.Dataset",
    vocab_size: int | None = None,
    min_count: int = 1,
) -> BigramLM:
    """Train a Laplace-smoothed bigram LM over ``corpus.text``.

    Uncapped (``vocab_size=None``): exact — every distinct unigram is in
    the vocabulary, every observed bigram is in the table.  This mode is
    bit-reproducible against a SQL oracle and right for sf-scale fixtures.

    Capped: unigram pass → top-``vocab_size`` by collection frequency
    (tie: gram asc) + ``<unk>``; second pass counts bigrams over the
    closed vocabulary.  ``min_count`` > 1 additionally drops rare bigram
    ROWS from the table (they score as unseen) to bound broadcast size.
    """
    from bitfunnel_ray.ops.exchange import exchange
    from bitfunnel_ray.build.stats import top_k_by

    uni = _gather_counts(ngram_counts(corpus, n=1))
    if vocab_size is None:
        big_tbl = _gather_counts(ngram_counts(corpus, n=2))
        uk, uc = _keyed(uni)
        bk, bc = _keyed(big_tbl)
        if min_count > 1:
            keep = bc >= min_count
            bk, bc = bk[keep], bc[keep]
        return BigramLM(uk, uc, bk, bc, vocab_v=len(uk))

    # capped: pick the head vocabulary, fold the tail into <unk>
    head = top_k_by(
        ngram_counts(corpus, n=1), k=vocab_size, col="count", tiebreak="gram"
    )
    vocab_keys = np.sort(hash_token_array(head["gram"].combine_chunks()))
    # fold uni counts: OOV mass accumulates on <unk>
    uk_all, uc_all = _keyed(uni)
    pos = np.searchsorted(vocab_keys, uk_all)
    pos[pos >= len(vocab_keys)] = 0
    in_vocab = vocab_keys[pos] == uk_all if len(vocab_keys) else np.zeros(len(uk_all), bool)
    unk_key = hash_token_array(pa.array([_UNK]))[0]
    uk = np.append(uk_all[in_vocab], unk_key)
    uc = np.append(uc_all[in_vocab], int(uc_all[~in_vocab].sum()))
    order = np.argsort(uk, kind="stable")
    uk, uc = uk[order], uc[order]

    vocab_ref = ray.put(vocab_keys)
    parts = corpus.select_columns(["text"]).map_batches(
        partial(_bigram_partials_capped, vocab_ref=vocab_ref),
        batch_format="pyarrow",
        batch_size=None,
    )
    from bitfunnel_ray.ops.ngrams import _combine_grams

    big_tbl = _gather_counts(exchange(parts, ["gram"], _combine_grams))
    bk, bc = _keyed(big_tbl)
    if min_count > 1:
        keep = bc >= min_count
        bk, bc = bk[keep], bc[keep]
    return BigramLM(uk, uc, bk, bc, vocab_v=len(uk), vocab_keys=vocab_keys)


def _lookup(sorted_keys: np.ndarray, cnts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """counts for each hash in h (0 where absent)."""
    if len(sorted_keys) == 0 or len(h) == 0:
        return np.zeros(len(h), np.int64)
    pos = np.searchsorted(sorted_keys, h)
    pos[pos >= len(sorted_keys)] = 0
    out = cnts[pos].copy()
    out[sorted_keys[pos] != h] = 0
    return out


def _ppl_batch(t: pa.Table, *, model_ref) -> pa.Table:
    m: BigramLM = ray.get(model_ref) if isinstance(model_ref, ray.ObjectRef) else model_ref
    flat, doc_of, doclen = flat_tokens(t["text"])
    n = len(t)
    nbig = np.clip(doclen - 1, 0, None)
    # within-document adjacent windows only
    total = np.zeros(n, np.float64)
    if len(flat) > 1:
        if m.vocab_keys is not None:
            flat = _map_oov(flat, m.vocab_keys)
        k = len(flat) - 1
        keep = doc_of[:k] == doc_of[1:]
        idx = np.flatnonzero(keep)
        if len(idx):
            grams = pc.binary_join_element_wise(
                flat.take(pa.array(idx)), flat.take(pa.array(idx + 1)), " "
            )
            bh = hash_token_array(grams)
            wh = hash_token_array(flat)[idx]
            bc = _lookup(m.big_keys, m.big_cnt, bh)
            uc = _lookup(m.uni_keys, m.uni_cnt, wh)
            lp = np.log(bc + 1.0) - np.log(uc + float(m.vocab_v))
            total = np.bincount(doc_of[idx], weights=lp, minlength=n)
    avg = np.divide(total, nbig, out=np.zeros(n, np.float64), where=nbig > 0)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_bigrams": pa.array(nbig.astype(np.int64)),
            "avg_logprob": pa.array(np.round(avg, 6), pa.float64()),
        }
    )


def perplexity_scores(
    corpus: "ray.data.Dataset", model: BigramLM
) -> "ray.data.Dataset":
    """Per-document mean bigram log-probability under ``model`` (higher =
    more language-like; CCNet buckets on exactly this).  Map-only: model
    broadcast once via ``ray.put``, zero-copy on every node."""
    model_ref = ray.put(model)
    return corpus.select_columns(["doc_id", "text"]).map_batches(
        partial(_ppl_batch, model_ref=model_ref),
        batch_format="pyarrow",
        batch_size=None,
    )


# --- DSIR-style importance weights -----------------------------------------


def _dsir_batch(t: pa.Table, *, ref) -> pa.Table:
    (keys_t, cnt_t, n_t, keys_r, cnt_r, n_r, v) = (
        ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
    )
    flat, doc_of, doclen = flat_tokens(t["text"])
    n = len(t)
    w = np.zeros(n, np.float64)
    if len(flat):
        h = hash_token_array(flat)
        ct = _lookup(keys_t, cnt_t, h)
        cr = _lookup(keys_r, cnt_r, h)
        lr = np.log((ct + 1.0) / (n_t + v)) - np.log((cr + 1.0) / (n_r + v))
        w = np.bincount(doc_of, weights=lr, minlength=n)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(doclen.astype(np.int64)),
            "log_weight": pa.array(np.round(w, 6), pa.float64()),
        }
    )


def dsir_weights(
    corpus: "ray.data.Dataset",
    target: "ray.data.Dataset",
    raw: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """DSIR-style log importance weights (Xie et al. 2023, arXiv:2302.03169)
    with unigram features:  log w(doc) = Σ_tokens [ln p_target(w) −
    ln p_raw(w)], both Laplace-smoothed over the UNION vocabulary.

    ``target`` is the (small) in-domain sample, ``raw`` the background
    distribution (defaults to ``corpus``).  Both unigram tables travel as
    (gram, count) partials through one exchange each; the fitted feature
    distributions broadcast once.  Scoring ``corpus`` is map-only.
    DSIR proper hashes n-grams into a fixed number of buckets to bound
    the feature space; the closed-form unigram variant here is the
    exactly-verifiable fixture — swap ``hash_token_array`` for a bucketed
    hash to get the paper's estimator at 100 TB vocabularies.
    """
    if raw is None:
        raw = corpus
    tt = _gather_counts(ngram_counts(target, n=1))
    rt = _gather_counts(ngram_counts(raw, n=1))
    keys_t, cnt_t = _keyed(tt)
    keys_r, cnt_r = _keyed(rt)
    v = len(np.union1d(keys_t, keys_r))
    ref = ray.put(
        (
            keys_t,
            cnt_t,
            float(cnt_t.sum()),
            keys_r,
            cnt_r,
            float(cnt_r.sum()),
            float(v),
        )
    )
    return corpus.select_columns(["doc_id", "text"]).map_batches(
        partial(_dsir_batch, ref=ref), batch_format="pyarrow", batch_size=None
    )


def perplexity_buckets(
    corpus: "ray.data.Dataset",
    model: BigramLM,
    *,
    group_col: str | None = None,
    n_buckets: int = 3,
) -> pa.Table:
    """CCNet-style perplexity bucketing (Wenzek et al. 2020: score each
    document under a reference LM, split the corpus into head/middle/tail
    terciles PER LANGUAGE, keep head/middle for training): assign every
    document a bucket by exact within-group quantiles of its mean bigram
    log-probability.

    Two streaming passes, both driver-light: (1) ``perplexity_scores``
    (map-only, model broadcast once); (2) exact per-group bucket
    boundaries from one value-count exchange over ROUNDED scores (the
    6-dp rounding in ``_ppl_batch`` makes scores a small discrete domain
    — the same bounded-histogram trick as ops/quantiles), then a map-side
    searchsorted assigns buckets.  Bucket b covers ranks
    (b/n, (b+1)/n]; bucket 0 = head (most language-like, HIGHEST
    avg_logprob), so "keep head+middle" = ``bucket < 2`` at n=3.

    Returns (doc_id[, group], avg_logprob, bucket) — deterministic, ties
    broken by the discrete score domain itself (equal scores share a
    bucket)."""
    scored = perplexity_scores(corpus, model)
    if group_col is not None:
        from bitfunnel_ray.ops.joins import inner_join_cp

        groups = corpus.select_columns(["doc_id", group_col])
        # engine's co-partitioned join (not Dataset.join — it dies on the
        # zero-column empty blocks of empty upstream partitions)
        scored = inner_join_cp(scored, groups, key="doc_id")
    t = scored.to_arrow_refs()
    tables = [x for x in ray.get(t) if len(x)]
    all_rows = pa.concat_tables(tables) if tables else None
    if all_rows is None:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "avg_logprob": pa.array([], pa.float64()),
                "bucket": pa.array([], pa.int64()),
            }
        )
    # NOTE: scores gather driver-side here because the fixture-scale entry
    # wants one table back; the scale path keeps `scored` a Dataset and
    # derives boundaries from the same rounded-score value counts via one
    # exchange (identical math — boundaries are driver-small either way).
    import numpy as np

    df = all_rows.to_pandas()
    key = df[group_col] if group_col is not None else np.zeros(len(df), np.int64)
    out_bucket = np.zeros(len(df), np.int64)
    for g in sorted(set(key)):
        m = np.flatnonzero(key == g)
        s = df["avg_logprob"].to_numpy()[m]
        order = np.argsort(-s, kind="stable")  # head = highest logprob
        ranks = np.empty(len(s), np.int64)
        ranks[order] = np.arange(len(s))
        # ties share the bucket of their FIRST member (stable on the
        # discrete 6-dp domain): bucket by the rank of the score's first
        # occurrence in descending order
        uniq, first = np.unique(-s, return_index=True)
        first_rank = ranks[first]
        srt = np.searchsorted(uniq, -s)
        out_bucket[m] = np.minimum(
            (first_rank[srt] * n_buckets) // max(1, len(s)), n_buckets - 1
        )
    cols = {
        "doc_id": all_rows["doc_id"].cast(pa.int64()),
        "avg_logprob": all_rows["avg_logprob"],
        "bucket": pa.array(out_bucket, pa.int64()),
    }
    if group_col is not None:
        cols[group_col] = all_rows[group_col]
    return pa.table(cols)
