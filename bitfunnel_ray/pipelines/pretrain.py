"""The end-to-end pretraining-data pipeline: one composition of the
corpus-hygiene operators that turns a raw web-text table into a cleaned,
deduplicated, budgeted, split training corpus — the workflow a user of
this engine actually runs before training (CCNet / Gopher / RefinedWeb
-style, all public recipes).

Stages (each a streaming Ray Data stage; per-stage doc counts reported):

1. **clean** (ONE fused map pass): language allow-list filter → PII +
   deny-list redaction (``ops/redact.py``, cleaned text replaces
   ``text``) → Gopher-style quality thresholds over
   ``repetition_stats`` computed on the redacted text.
2. **exact dedup** — one content-hash exchange; each hash-partitioned
   block emits its non-minimum doc_ids as the removed set, which
   anti-joins the corpus (co-partitioned — nothing corpus-sized on the
   driver).
3. **near dedup** — MinHash+LSH candidates → distributed Jaccard verify
   → connected components → canonical per cluster (distributed
   anti-join, ``ops/cc.py``).
4. **token budget** — per-language prefix budget (exact distributed
   prefix scan, ``ops/budget.py``); the selected id set is bounded by
   budget/min_tokens per language — broadcast-small by construction.
5. **split + write** — deterministic Knuth-hash train/val/test label
   stamped inline (map-only), parquet partitioned by split.

Scale posture: stage 1 is map-only; 2 moves (hash, doc_id) rows only;
3's exchanges carry shingle hashes and pair rows, never text; 4 is two
slim passes + one bucket exchange; 5 is map-only.  Early filters run
before every exchange so the wide stages see only survivors.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray
import ray.data


def _clean_batch(
    t: pa.Table,
    *,
    lang_set,
    min_tokens,
    max_tokens,
    max_dup_token_frac,
    max_top_bigram_frac,
) -> pa.Table:
    import pyarrow.compute as pc

    from bitfunnel_ray.ops.redact import DEFAULT_PATTERNS, redact_batch
    from bitfunnel_ray.ops.textstats import repetition_stats_batch

    if lang_set is not None:
        t = t.filter(pc.is_in(t["lang"], value_set=pa.array(lang_set, pa.string())))
    if len(t) == 0:
        return t
    red = redact_batch(t, patterns=DEFAULT_PATTERNS)
    t = t.set_column(t.schema.get_field_index("text"), "text", red["clean_text"])
    rep = repetition_stats_batch(t)
    n = rep["n_tokens"].to_numpy()
    ok = (
        (n >= min_tokens)
        & (n <= max_tokens)
        & (rep["dup_token_frac"].to_numpy() <= max_dup_token_frac)
        & (rep["top_bigram_frac"].to_numpy() <= max_top_bigram_frac)
    )
    return t.filter(pa.array(ok))


def _removed_dups_block(t: pa.Table, *, key_type) -> pa.Table:
    """Per content-hash-partitioned block: every doc_id that is NOT its
    hash group's minimum (the exact-dup removed set)."""
    h = t["content_hash"].to_numpy(zero_copy_only=False)
    d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((d, h))
    h_s, d_s = h[order], d[order]
    first = np.concatenate([[True], h_s[1:] != h_s[:-1]])
    return pa.table({"doc_id": pa.array(d_s[~first]).cast(key_type)})


def _budget_filter_batch(t: pa.Table, *, ids_ref) -> pa.Table:
    arr = ray.get(ids_ref)
    m = np.isin(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), arr)
    return t.filter(pa.array(m))


def _stamp_split_batch(t: pa.Table, *, fractions) -> pa.Table:
    from bitfunnel_ray.stages.filters import split_of

    split = split_of(t["doc_id"].to_numpy(zero_copy_only=False), fractions)
    return t.append_column("split", pa.array(split.tolist(), pa.string()))


def pretrain_pipeline(
    corpus: "ray.data.Dataset",
    out_dir: str,
    *,
    langs: tuple[str, ...] | None = None,
    min_tokens: int = 8,
    max_tokens: int = 100_000,
    max_dup_token_frac: float = 0.9,
    max_top_bigram_frac: float = 0.5,
    budget_per_lang: int | None = None,
    minhash_k: int = 3,
    minhash_bands: int = 16,
    jaccard_threshold: float = 0.8,
    split_fractions: tuple[float, float] = (0.9, 0.05),
    shuffle_seed: "int | None" = None,
    shuffle_shards: int = 64,
    ref_corpus: "ray.data.Dataset | None" = None,
) -> dict:
    """Run the full cleaning pipeline; returns the per-stage report dict
    and writes split-partitioned parquet under ``out_dir``.

    ``shuffle_seed``: when set, each split is written as deterministic
    seeded-shuffled shards (ops/shuffleout.py) instead of arbitrary-order
    parquet — the training-loader-ready layout (reproducible global
    permutation, resumable per-shard writes).

    ``ref_corpus``: when set, docs duplicating this already-kept corpus
    (exact hash or near MinHash) are dropped right after cleaning — the
    incremental / rolling-crawl shape (requires globally unique doc_ids
    across the corpora)."""
    from bitfunnel_ray.ops.budget import token_budget_sample
    from bitfunnel_ray.ops.cc import dedup_canonical
    from bitfunnel_ray.ops.dedup import content_hash_batch, minhash_dedup_pairs
    from bitfunnel_ray.ops.exchange import exchange
    from bitfunnel_ray.ops.joins import anti_join

    report: dict = {"docs_in": corpus.count()}

    cleaned = (
        corpus.select_columns(["doc_id", "text", "lang"])
        .map_batches(
            partial(
                _clean_batch,
                lang_set=tuple(langs) if langs else None,
                min_tokens=min_tokens,
                max_tokens=max_tokens,
                max_dup_token_frac=max_dup_token_frac,
                max_top_bigram_frac=max_top_bigram_frac,
            ),
            batch_format="pyarrow",
        )
        .materialize()  # slim 3-col table reused by both dedup stages
    )
    report["after_clean"] = cleaned.count()

    # --- cross-corpus (incremental) dedup against the kept corpus -------
    if ref_corpus is not None:
        from bitfunnel_ray.ops.dedup import minhash_cross_dedup

        cleaned = minhash_cross_dedup(
            cleaned,
            ref_corpus.select_columns(["doc_id", "text"]),
            k=minhash_k,
            bands=minhash_bands,
            threshold=jaccard_threshold,
        ).materialize()
        report["after_cross_dedup"] = cleaned.count()

    # --- exact dedup ------------------------------------------------------
    key_type = cleaned.schema().base_schema.field("doc_id").type
    hashed = cleaned.map_batches(content_hash_batch, batch_format="pyarrow")
    removed = exchange(
        hashed, ["content_hash"], partial(_removed_dups_block, key_type=key_type)
    )
    exact_kept = anti_join(cleaned, removed, key="doc_id", broadcast=False).materialize()
    report["after_exact_dedup"] = exact_kept.count()

    # --- near dedup ---------------------------------------------------------
    pairs = minhash_dedup_pairs(
        exact_kept, k=minhash_k, bands=minhash_bands, threshold=jaccard_threshold
    )
    deduped = dedup_canonical(exact_kept, pairs).materialize()
    report["after_near_dedup"] = deduped.count()

    # --- per-language token budget -------------------------------------
    if budget_per_lang is not None:
        sel = token_budget_sample(deduped, budget=budget_per_lang, group_col="lang")
        id_arr = np.sort(
            sel.select_columns(["doc_id"]).to_pandas()["doc_id"].to_numpy().astype(np.int64)
        )  # ≤ budget/min_tokens ids per language — broadcast-small
        ids_ref = ray.put(id_arr)
        budgeted = deduped.map_batches(
            partial(_budget_filter_batch, ids_ref=ids_ref), batch_format="pyarrow"
        )
        report["after_budget"] = int(len(id_arr))
    else:
        budgeted = deduped
        report["after_budget"] = report["after_near_dedup"]

    # --- split + write ---------------------------------------------------
    final = budgeted.map_batches(
        partial(_stamp_split_batch, fractions=split_fractions), batch_format="pyarrow"
    )
    if shuffle_seed is None:
        final.write_parquet(out_dir, partition_cols=["split"])
        report["written"] = report["after_budget"]
    else:
        import os as _os

        import pyarrow.compute as _pc

        from bitfunnel_ray.ops.shuffleout import write_shuffled_shards

        final = final.materialize()  # one upstream execution for all splits
        written = 0
        data_cols = [c for c in final.schema().base_schema.names if c != "split"]
        for split in ("train", "val", "test"):
            # split is the directory partition — drop the redundant
            # per-row copy inside the shard files (matches the
            # partition_cols layout of the non-shuffled path)
            part = final.map_batches(
                lambda t, sp=split: t.filter(_pc.equal(t["split"], sp)),
                batch_format="pyarrow",
            ).materialize()
            if part.count() == 0:
                # a groupby over an empty dataset has no schema to key on
                report[f"shards_{split}"] = 0
                continue
            res = write_shuffled_shards(
                part,
                _os.path.join(out_dir, f"split={split}"),
                seed=shuffle_seed,
                num_shards=shuffle_shards,
                columns=data_cols,
            )
            report[f"shards_{split}"] = res["shards"]
            written += res["rows"]
        report["written"] = written
    return report
