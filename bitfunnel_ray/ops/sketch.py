"""Distinct-count operators: exact per-group count-distinct (one
fixed-width hash exchange) and a mergeable HyperLogLog sketch as the
scale path.

Exact count-distinct is the textbook all-to-all: every (group, value)
pair must co-locate once.  The shape here keeps the exchange cheap —
values are 64-bit term hashes (never strings), each block dedups its own
(group, value) pairs BEFORE the exchange (map-side combine), and the
post-exchange reduce is a vectorized unique + segment count.

HyperLogLog removes the exchange entirely: each block reduces to a
fixed 2^p-byte register array per group, registers merge by elementwise
max (associative + commutative), and only `groups × 2^p` bytes ever
move.  At 100 TB this is the difference between shuffling the vocabulary
and shuffling kilobytes.  The implementation is the standard HLL of
Flajolet et al. (2007) with the linear-counting small-range correction;
hashes are the engine's murmur64 finalizer, so results are deterministic
— no RNG anywhere.

Reference analog: none (BitFunnel's df table IS an exact distinct count
per term); these generalize the corpus-statistics stage to ad-hoc
group-by-distinct questions.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

import ray

from bitfunnel_ray.stages.tokenize import flat_tokens, hash_token_array


# --------------------------------------------------------------------------
# exact: distinct terms per group
# --------------------------------------------------------------------------


def _pairs_block(t: pa.Table, *, group_col: str) -> pa.Table:
    """One corpus block → its deduped (group, term_hash) pairs (map-side
    combine: a term repeated within the block never reaches the wire)."""
    empty = pa.table(
        {
            group_col: pa.array([], pa.string()),
            "term": pa.array([], pa.int64()),
        }
    )
    if len(t) == 0:
        return empty
    flat, doc_of, _ = flat_tokens(t["text"])
    if len(flat) == 0:
        return empty
    h = hash_token_array(flat).view(np.int64)
    # group code per token via the row's group value
    enc = pa.array(t[group_col].to_numpy(zero_copy_only=False)).dictionary_encode()
    gcode = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)[doc_of]
    order = np.lexsort((h, gcode))
    g, hh = gcode[order], h[order]
    keep = np.empty(len(g), dtype=bool)
    keep[0] = True
    keep[1:] = (g[1:] != g[:-1]) | (hh[1:] != hh[:-1])
    g, hh = g[keep], hh[keep]
    out_groups = enc.dictionary.take(pa.array(g))
    return pa.table(
        {group_col: out_groups.cast(pa.string()), "term": pa.array(hh, pa.int64())}
    )


def _count_distinct_block(t: pa.Table, *, group_col: str) -> pa.Table:
    """One (group, term)-partitioned block → per-group distinct counts.
    Correct because the hash exchange co-locates every copy of a
    (group, term) pair in exactly one block."""
    empty = pa.table(
        {group_col: pa.array([], pa.string()), "n_part": pa.array([], pa.int64())}
    )
    if len(t) == 0:
        return empty
    gvals = t[group_col].to_numpy(zero_copy_only=False)
    h = t["term"].to_numpy(zero_copy_only=False)
    enc = pa.array(gvals).dictionary_encode()
    gcode = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((h, gcode))
    g, hh = gcode[order], h[order]
    first = np.empty(len(g), dtype=bool)
    first[0] = True
    first[1:] = (g[1:] != g[:-1]) | (hh[1:] != hh[:-1])
    counts = np.bincount(g[first], minlength=len(enc.dictionary))
    return pa.table(
        {
            group_col: enc.dictionary.cast(pa.string()),
            "n_part": pa.array(counts.astype(np.int64), pa.int64()),
        }
    )


def distinct_terms_by_group(
    docs: "ray.data.Dataset", group_col: str = "source"
) -> pa.Table:
    """EXACT distinct-token count per group over a documents table
    (columns: ``text``, ``group_col``).  Returns (group_col, n_terms)
    sorted by group.  One fixed-width exchange of block-deduped
    (group, hash) pairs; everything else is map-side."""
    from bitfunnel_ray.ops.exchange import exchange

    pairs = docs.select_columns([group_col, "text"]).map_batches(
        partial(_pairs_block, group_col=group_col), batch_format="pyarrow"
    )
    parts = exchange(
        pairs, [group_col, "term"], partial(_count_distinct_block, group_col=group_col)
    )
    tables = [x for x in ray.get(parts.to_arrow_refs()) if len(x)]
    merged = pa.concat_tables(tables)
    out = merged.group_by([group_col]).aggregate([("n_part", "sum")])
    out = out.rename_columns([group_col, "n_terms"])
    return out.set_column(
        1, "n_terms", out["n_terms"].cast(pa.int64())
    ).sort_by(group_col)


# --------------------------------------------------------------------------
# HyperLogLog: the no-exchange scale path
# --------------------------------------------------------------------------

_HLL_P = 14  # 16384 registers → ~0.81% standard error
_HLL_M = 1 << _HLL_P


def _hll_registers(h: np.ndarray, m: int = _HLL_M, p: int = _HLL_P) -> np.ndarray:
    """Register array (uint8, len m) for a batch of uint64 hashes."""
    reg = np.zeros(m, np.uint8)
    if len(h) == 0:
        return reg
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # remaining 64-p bits, top-aligned
    # rank = leading zeros of `rest` + 1, capped at 64-p+1 (rest == 0)
    bits = np.zeros(len(h), np.int64)
    nz = rest != 0
    # floor(log2) via float64 exponent is exact for any uint64
    bits[nz] = 63 - (np.frexp(rest[nz].astype(np.float64))[1] - 1)
    rank = np.where(nz, bits + 1, 64 - p + 1).astype(np.uint8)
    np.maximum.at(reg, idx, rank)
    return reg


def hll_estimate(reg: np.ndarray) -> float:
    """Cardinality estimate from a register array (standard HLL with
    linear-counting small-range correction)."""
    m = len(reg)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.float64(2.0) ** -reg.astype(np.float64))
    zeros = int(np.count_nonzero(reg == 0))
    if est <= 2.5 * m and zeros:
        return float(m * np.log(m / zeros))
    return float(est)


def _hll_block(t: pa.Table, *, group_col: str) -> pa.Table:
    """One corpus block → one (group, registers) row per group present."""
    empty = pa.table(
        {
            group_col: pa.array([], pa.string()),
            "reg": pa.array([], pa.binary()),
        }
    )
    if len(t) == 0:
        return empty
    flat, doc_of, _ = flat_tokens(t["text"])
    if len(flat) == 0:
        return empty
    h = hash_token_array(flat)
    enc = pa.array(t[group_col].to_numpy(zero_copy_only=False)).dictionary_encode()
    gcode = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)[doc_of]
    groups, regs = [], []
    for gi in range(len(enc.dictionary)):
        sel = gcode == gi
        if sel.any():
            groups.append(enc.dictionary[gi].as_py())
            regs.append(_hll_registers(h[sel]).tobytes())
    return pa.table(
        {group_col: pa.array(groups, pa.string()), "reg": pa.array(regs, pa.binary())}
    )


def distinct_terms_hll(
    docs: "ray.data.Dataset", group_col: str = "source"
) -> pa.Table:
    """APPROXIMATE distinct-token count per group — the 100 TB shape:
    each block emits one 16 KiB register array per group, registers merge
    by elementwise max on the driver (groups × 16 KiB total traffic, no
    exchange).  ~0.8% standard error at p=14; deterministic (murmur
    hashes, no RNG).  Returns (group_col, n_terms_est float64)."""
    rows = docs.select_columns([group_col, "text"]).map_batches(
        partial(_hll_block, group_col=group_col), batch_format="pyarrow"
    )
    merged: dict[str, np.ndarray] = {}
    for t in ray.get(rows.to_arrow_refs()):
        for g, r in zip(t[group_col].to_pylist(), t["reg"].to_pylist()):
            arr = np.frombuffer(r, np.uint8)
            if g in merged:
                np.maximum(merged[g], arr, out=merged[g])
            else:
                merged[g] = arr.copy()
    groups = sorted(merged)
    return pa.table(
        {
            group_col: pa.array(groups, pa.string()),
            "n_terms_est": pa.array(
                [hll_estimate(merged[g]) for g in groups], pa.float64()
            ),
        }
    )


# --------------------------------------------------------------------------
# heavy hitters: mergeable Misra-Gries / SpaceSaving summaries
# --------------------------------------------------------------------------


def _mg_summary(terms: np.ndarray, counts: np.ndarray, k: int):
    """Prune an exact (term, count) table to a Misra-Gries summary of at
    most k counters: subtract the (k+1)-th largest count from everything
    and drop non-positive counters (the classic one-shot MG reduction —
    each surviving counter underestimates the true count by at most the
    subtracted offset).  Returns (terms, counts, offset_bound)."""
    if len(terms) <= k:
        return terms, counts, 0
    # threshold = (k+1)-th largest count
    thr = np.partition(counts, len(counts) - (k + 1))[len(counts) - (k + 1)]
    kept = counts - thr
    keep = kept > 0
    return terms[keep], kept[keep], int(thr)


def _mg_block(t: pa.Table, *, k: int) -> pa.Table:
    """One corpus block → its MG summary rows plus one error-bound row
    (term='', count=accumulated offset).  The exchange moves at most
    k + 1 rows per block regardless of vocabulary size."""
    flat, _doc_of, _dl = flat_tokens(t["text"])
    empty = pa.table(
        {"term": pa.array([], pa.string()), "count": pa.array([], pa.int64())}
    )
    if len(flat) == 0:
        return empty
    import pyarrow.compute as pc

    d = pc.dictionary_encode(flat)
    counts = np.bincount(d.indices.to_numpy(), minlength=len(d.dictionary)).astype(
        np.int64
    )
    terms = np.asarray(d.dictionary.to_pylist(), dtype=object)
    terms, counts, off = _mg_summary(terms, counts, k)
    return pa.table(
        {
            "term": pa.array(list(terms) + [""], pa.string()),
            "count": pa.array(np.append(counts, off), pa.int64()),
        }
    )


def heavy_hitters(
    corpus: "ray.data.Dataset", k: int = 64
) -> tuple[pa.Table, int]:
    """Approximate top-k most frequent tokens WITHOUT any shuffle: each
    block reduces to a ≤(k+1)-row Misra-Gries summary (sentinel row ''
    carries the block's subtracted offset), summaries merge by
    concatenation + grouped sum + one more MG prune.  Returns
    (table(term, count_lower), max_undercount): every reported count is a
    LOWER bound, short of the true count by at most ``max_undercount``,
    and any token with true frequency > max_undercount is guaranteed
    present (standard MG mergeability, Agarwal et al. PODS 2012).

    The exact sibling is ``build.stats.document_frequency_table`` +
    ``top_k_by`` (one hash exchange); this is the no-exchange scale path
    — ``blocks × (k+1)`` fixed-width rows move to the driver, nothing
    else moves at all.
    """
    parts = corpus.select_columns(["text"]).map_batches(
        partial(_mg_block, k=k), batch_format="pyarrow", batch_size=None
    )
    merged = pa.concat_tables(
        parts.iter_batches(batch_format="pyarrow", batch_size=None),
        promote_options="default",
    )
    if len(merged) == 0:
        return merged, 0
    import pyarrow.compute as pc

    d = pc.dictionary_encode(merged["term"].combine_chunks())
    idx = d.indices.to_numpy()
    sums = np.zeros(len(d.dictionary), dtype=np.int64)
    np.add.at(sums, idx, merged["count"].to_numpy(zero_copy_only=False))
    terms = np.asarray(d.dictionary.to_pylist(), dtype=object)
    sentinel = terms == ""
    err = int(sums[sentinel].sum()) if sentinel.any() else 0
    terms, sums = terms[~sentinel], sums[~sentinel]
    terms, sums, off = _mg_summary(terms, sums, k)
    err += off
    order = np.lexsort((terms, -sums))
    return (
        pa.table(
            {
                "term": pa.array(terms[order].tolist(), pa.string()),
                "count_lower": pa.array(sums[order], pa.int64()),
            }
        ),
        err,
    )
