"""Document filters — the IDocumentFilter surface re-expressed as
vectorized Dataset transforms (reference:
src/Chunks/src/DocumentFilters.cpp: NopFilter:35-41, RandomDocumentFilter
:60-70, PostingCountFilter:78-89, DocumentCountFilter:97-112,
CompositeFilter:115-123; driven by the ``BitFunnel filter`` tool,
tools/BitFunnel/src/FilterChunks.cpp:82-155).

Design deltas for parallel safety (SURVEY.md §2.2):
- RandomDocumentFilter used a *sequential seeded RNG* — order-dependent,
  so not reproducible under parallel ingest.  ``sample_filter`` replaces
  it with a Knuth multiplicative hash of the stable doc_id: deterministic,
  partition-order-free, and exactly expressible in ANSI SQL for the
  oracle.
- DocumentCountFilter ("first N") depended on ingest order; ``first_n``
  pins the order to ascending doc_id.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.functions.hashing import KNUTH
from bitfunnel_ray.stages.tokenize import tokenize_batch


def lang_filter(corpus: "ray.data.Dataset", lang: str) -> "ray.data.Dataset":
    return corpus.map_batches(
        lambda t, lang=lang: t.filter(pc.equal(t["lang"], lang)), batch_format="pyarrow"
    )


def sample_mask(t: pa.Table, fraction: float) -> pa.Array:
    """``sample_filter``'s keep mask over a batch's rows: doc iff
    (doc_id * 2654435761) mod 2^32 < fraction * 2^32."""
    ids = t["doc_id"].to_numpy().astype(np.uint64)
    threshold = np.uint64(int(fraction * (1 << 32)))
    return pa.array(((ids * np.uint64(KNUTH)) & np.uint64(0xFFFFFFFF)) < threshold)


def sample_filter(corpus: "ray.data.Dataset", fraction: float) -> "ray.data.Dataset":
    """Deterministic sample (``sample_mask``; parallel-safe
    RandomDocumentFilter replacement)."""
    return corpus.map_batches(
        lambda t: t.filter(sample_mask(t, fraction)), batch_format="pyarrow"
    )


def posting_count_filter(
    corpus: "ray.data.Dataset",
    min_count: int,
    max_count: int,
    cfg: EngineConfig | None = None,
) -> "ray.data.Dataset":
    """Keep docs whose unique-posting count lies in [min_count, max_count]
    (PostingCountFilter semantics, DocumentFilters.cpp:78-89)."""
    cfg = cfg or EngineConfig()

    def f(t: pa.Table) -> pa.Table:
        r = tokenize_batch(t["text"], cfg.max_gram, emit_text=False)
        keep = (r.n_postings >= min_count) & (r.n_postings <= max_count)
        return t.filter(pa.array(keep))

    return corpus.map_batches(f, batch_format="pyarrow")


def first_n(corpus: "ray.data.Dataset", n: int) -> "ray.data.Dataset":
    """First N documents by ascending doc_id (DocumentCountFilter analog
    with a deterministic order).  Map-side min-k prune first: each block
    keeps only its n smallest doc_ids, so the sort exchange moves at most
    n rows per block instead of the whole corpus."""

    def block_min_k(t: pa.Table) -> pa.Table:
        if len(t) <= n:
            return t
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        idx = np.argpartition(ids, n)[:n]
        return t.take(pa.array(np.sort(idx)))

    return (
        corpus.map_batches(block_min_k, batch_format="pyarrow")
        .sort("doc_id")
        .limit(n)
    )


def annotate_shard(
    corpus: "ray.data.Dataset",
    boundaries: tuple[int, ...] = (32, 64, 128),
    cfg: EngineConfig | None = None,
) -> "ray.data.Dataset":
    """Append a synthetic ``SHARD_<lo>_<hi>`` term to each document's text
    — the AnnotatingChunkWriter analog (reference:
    src/Chunks/src/ChunkWriters.cpp:104-129 appends the shard term to
    stream 00 so shard membership is queryable)."""
    cfg = cfg or EngineConfig()
    bounds = np.asarray(boundaries, dtype=np.int64)
    names = []
    lo = 0
    for b in list(boundaries) + [None]:
        names.append(f"SHARD_{lo}_{b if b is not None else 'inf'}")
        lo = b
    names = np.asarray(names, dtype=object)

    def f(t: pa.Table) -> pa.Table:
        r = tokenize_batch(t["text"], 1, emit_text=False)
        shard = np.searchsorted(bounds, r.n_postings, side="right")
        tag = names[shard]
        new_text = pc.binary_join_element_wise(
            t["text"], pa.array(tag.tolist(), pa.string()), " "
        )
        return t.set_column(t.column_names.index("text"), "text", new_text)

    return corpus.map_batches(f, batch_format="pyarrow")


def split_assign(
    corpus: "ray.data.Dataset",
    fractions: tuple[float, float] = (0.9, 0.05),
    names: tuple[str, str, str] = ("train", "val", "test"),
) -> "ray.data.Dataset":
    """Deterministic train/val/test routing: split = bucket of the Knuth
    multiplicative hash of doc_id (same hash family as sample_filter /
    stratified_sample, so splits are stable across runs, machines and
    corpus growth — a doc never migrates between splits).  fractions are
    (train, val); test gets the rest.  Map-only, SQL-expressible."""
    import numpy as np
    import pyarrow as pa

    def f(t: pa.Table) -> pa.Table:
        split = split_of(
            t["doc_id"].to_numpy(zero_copy_only=False), fractions, names
        )
        return pa.table(
            {"doc_id": t["doc_id"], "split": pa.array(split.tolist(), pa.string())}
        )

    return corpus.select_columns(["doc_id"]).map_batches(f, batch_format="pyarrow")


def split_of(doc_ids, fractions=(0.9, 0.05), names=("train", "val", "test")):
    """Vectorized split label per doc_id (the split_assign kernel —
    shared so pipeline compositions stamp splits inline, map-only)."""
    import numpy as np

    t_cut = int(fractions[0] * 4294967296)
    v_cut = int((fractions[0] + fractions[1]) * 4294967296)
    h = (np.asarray(doc_ids).astype(np.uint64) * np.uint64(2654435761)) % np.uint64(
        4294967296
    )
    split = np.full(len(h), names[2], dtype=object)
    split[h < v_cut] = names[1]
    split[h < t_cut] = names[0]
    return split
