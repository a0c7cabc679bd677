"""Exact substring deduplication — strip duplicated k-token spans,
keeping the globally FIRST occurrence (the "deduplicate training data"
operation of Lee et al. 2022, "Deduplicating Training Data Makes
Language Models Better", which removes repeated spans >= 50 tokens
across a corpus; they build a single-node suffix array — this is the
distributed hash formulation of the same contract).

Semantics: every k-token window of every document is keyed by content;
for each distinct window content the first occurrence in (doc_id, start)
order is the OWNER and every other occurrence is marked for removal.  A
token is dropped iff at least one removed window occurrence covers it.
Any duplicated run of >= k tokens is therefore fully stripped from all
but its first copy (all its k-windows are duplicates); runs shorter
than k are never touched — ``k`` is the exactness threshold, as in the
suffix-array formulation.

Scale shape (three stages, two hash exchanges, text moves ONCE):

1. map: tokenize, per-token hash, rolling polynomial window hash —
   the exchange rows are (window_hash, doc_id, start), 24 bytes/token;
   TEXT never enters this exchange.
2. exchange on window_hash: each partition sees every occurrence of its
   hashes; a vectorized boundary scan keeps the (doc_id, start)-min
   owner per hash and emits the rest as removal directives.
3. ``cogroup`` of the corpus text with the removal directives on
   doc_id: one vectorized difference-array sweep per partition unions
   the removed spans and rebuilds the text with an Arrow list-join — no
   per-token python.

Window hashes are 64-bit polynomial combinations of 64-bit token
hashes; a collision needs two different windows agreeing mod 2^64
(~n^2/2^65 for n distinct windows — negligible at any corpus size that
fits an exchange).

Reference analog: none (the reference never mutates document text);
this is a training-data-pipeline operator over the same corpus tables.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bitfunnel_ray.stages.tokenize import flat_tokens, hash_token_array

_B = np.uint64(0x9E3779B97F4A7C15)  # odd 64-bit multiplier (splitmix constant)


def _window_hashes(ht: np.ndarray, k: int) -> np.ndarray:
    """Rolling polynomial hash over the flat token-hash stream:
    H[i] = sum_j ht[i+j] * B^(k-1-j) (mod 2^64) — k vectorized
    multiply-adds, never a per-window loop."""
    n_win = len(ht) - k + 1
    if n_win <= 0:
        return np.empty(0, np.uint64)
    H = np.zeros(n_win, np.uint64)
    p = 1
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the hash
        for j in range(k - 1, -1, -1):
            H += ht[j : j + n_win] * np.uint64(p)
            p = (p * int(_B)) & 0xFFFFFFFFFFFFFFFF
    return H


def _window_rows(t: pa.Table, *, k: int) -> pa.Table:
    empty = pa.table(
        {
            "h": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "start": pa.array([], pa.int64()),
        }
    )
    if len(t) == 0:
        return empty
    flat, doc_of, doclen = flat_tokens(t["text"])
    ht = hash_token_array(flat)
    H = _window_hashes(ht, k)
    if not len(H):
        return empty
    # windows must not cross document boundaries
    valid = doc_of[: len(H)] == doc_of[k - 1 : k - 1 + len(H)]
    idx = np.flatnonzero(valid)
    offsets = np.concatenate(([0], np.cumsum(doclen)))
    d = doc_of[idx]
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "h": pa.array(H[idx].view(np.int64), pa.int64()),
            "doc_id": pa.array(ids[d], pa.int64()),
            "start": pa.array(idx - offsets[d], pa.int64()),
        }
    )


_REMOVALS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("start", pa.int64())])


def _removals(t: pa.Table) -> pa.Table:
    """Per co-located hash group: drop the (doc_id, start)-min owner row,
    emit every other occurrence as a removal directive."""
    if len(t) == 0:
        return _REMOVALS_SCHEMA.empty_table()
    h = t["h"].to_numpy(zero_copy_only=False)
    d = t["doc_id"].to_numpy(zero_copy_only=False)
    s = t["start"].to_numpy(zero_copy_only=False)
    order = np.lexsort((s, d, h))
    h, d, s = h[order], d[order], s[order]
    owner = np.empty(len(h), dtype=bool)
    owner[0] = True
    owner[1:] = h[1:] != h[:-1]
    keep = ~owner
    return pa.table({"doc_id": d[keep], "start": s[keep]}, schema=_REMOVALS_SCHEMA)


def _strip(docs: pa.Table, removals: pa.Table, *, k: int) -> pa.Table:
    """Per co-located doc group: union the removed spans with a
    difference array over the flat token stream, rebuild text."""
    d_ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(d_ids, kind="stable")
    d_ids = d_ids[order]
    texts = docs["text"].take(pa.array(order))
    flat, doc_of, doclen = flat_tokens(texts)
    offsets = np.concatenate(([0], np.cumsum(doclen)))
    diff = np.zeros(int(offsets[-1]) + 1, np.int64)
    if len(removals):
        r_ids = removals["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(d_ids, r_ids)
        # every directive's doc must be in this partition (same key)
        if (pos >= len(d_ids)).any() or (d_ids[pos] != r_ids).any():
            raise ValueError("removal directive for a document outside its partition")
        g0 = offsets[pos] + removals["start"].to_numpy(zero_copy_only=False)
        np.add.at(diff, g0, 1)
        np.add.at(diff, g0 + k, -1)  # window fits its doc by construction
    covered = np.cumsum(diff[:-1]) > 0
    keep_idx = np.flatnonzero(~covered)
    kept_counts = np.bincount(doc_of[keep_idx], minlength=len(d_ids)).astype(np.int64)
    values = flat.take(pa.array(keep_idx))
    # int64 LargeList offsets: a strip partition can hold > 2^31 surviving
    # tokens at web scale, which would overflow int32 ListArray offsets
    # (pc.binary_join accepts large lists)
    lists = pa.LargeListArray.from_arrays(
        pa.array(np.concatenate(([0], np.cumsum(kept_counts))), pa.int64()),
        values.cast(pa.large_string()),
    )
    return pa.table(
        {
            "doc_id": pa.array(d_ids, pa.int64()),
            "text": pc.binary_join(lists, pa.scalar(" ", pa.large_string())).cast(
                pa.string()
            ),
        }
    )


def dedup_substrings(
    docs: "ray.data.Dataset",
    k: int = 50,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """Strip duplicated k-token spans corpus-wide, keep-first →
    Dataset (doc_id, text).  Whitespace inside surviving text is
    normalized to single spaces (tokens are rejoined with ' ', the same
    recipe as the SQL oracle's string_agg)."""
    from bitfunnel_ray.ops.exchange import cogroup, exchange

    if k < 2:
        raise ValueError("k must be >= 2 (a 1-token window dedups the vocabulary)")
    slim = docs.select_columns([id_col, text_col]).rename_columns(
        {id_col: "doc_id", text_col: "text"}
    )
    windows = slim.map_batches(partial(_window_rows, k=k), batch_format="pyarrow")
    removals = exchange(windows, ["h"], _removals)
    return cogroup(
        slim,
        removals,
        ["doc_id"],
        partial(_strip, k=k),
        left_schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
        right_schema=_REMOVALS_SCHEMA,
    )
