"""Prefix autocomplete (search-as-you-type) over the term dictionary.

Reference analog: none in-tree — BitFunnel's surface stops at boolean
match (src/Plan/src/QueryRunner.cpp); completion is the standard serving
feature every production search front end bolts on, fed by exactly the
document-frequency table the statistics stage already produces
(src/Index/src/DocumentFrequencyTable.cpp keeps terms df-sorted for the
same "most useful first" reason).

Two forms:

``suggest_terms``
    distributed: one map-side pass over the df table — per-block prefix
    filter + per-block top-k, so the exchange moves ≤ k rows per block
    (never the vocabulary).  Right for offline/batch completion lists.

``SuggestIndex``
    serve-time: the sorted term array + df built ONCE (an actor would
    hold it in ``__init__``), answering each keystroke with two binary
    searches + an O(range) rank — no scan.  On the term-sharded serving
    front each shard holds its 1/S of the dictionary and the front
    merges per-shard top-ks, same shape as ``search``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _finish(terms: np.ndarray, dfs: np.ndarray, k: int) -> pa.Table:
    order = np.lexsort((terms, -dfs))[:k]
    return pa.table(
        {
            "term": pa.array(terms[order].tolist(), pa.string()),
            "df": pa.array(dfs[order], pa.int64()),
        }
    )


def suggest_terms(dft, prefix: str, k: int = 10) -> pa.Table:
    """Top-k completions of ``prefix`` by df desc (term asc tiebreak)
    from a df-table Dataset (term, df[, gram_size]).  Bigram dictionary
    entries (terms containing a space) are excluded — completion is a
    unigram surface."""

    def block(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.starts_with(t["term"], prefix),
            pc.equal(pc.count_substring(t["term"], " "), 0),
        )
        sub = t.filter(keep)
        if len(sub) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        return _finish(
            np.asarray(sub["term"].to_pylist()),
            sub["df"].to_numpy(zero_copy_only=False).astype(np.int64),
            k,
        )

    batches = list(
        dft.select_columns(["term", "df"]).map_batches(
            block, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    # iter_batches yields nothing when every block filtered to empty
    parts = pa.concat_tables(batches, promote_options="default") if batches else None
    if parts is None or len(parts) == 0:
        return pa.table(
            {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
        )
    return _finish(
        np.asarray(parts["term"].to_pylist()),
        parts["df"].to_numpy(zero_copy_only=False).astype(np.int64),
        k,
    )


class SuggestIndex:
    """Binary-search completion over a sorted unigram (term, df) table.

    Build once (per serving actor); ``complete`` costs two searchsorted
    calls + a rank over the matching range.  ``\\U0010ffff`` is the
    maximum code point, so ``prefix + maxchar`` upper-bounds every
    extension of ``prefix`` in code-point order (numpy str compare)."""

    _HI = "\U0010ffff"

    def __init__(self, terms, dfs):
        t = np.asarray(terms)
        d = np.asarray(dfs, dtype=np.int64)
        uni = np.char.find(t.astype(str), " ") < 0  # unigrams only
        t, d = t[uni], d[uni]
        order = np.argsort(t, kind="stable")
        self.terms = t[order].astype(str)
        self.dfs = d[order]

    @classmethod
    def from_dft(cls, dft) -> "SuggestIndex":
        batches = list(
            dft.select_columns(["term", "df"]).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
        if not batches:
            return cls(np.array([], dtype=str), np.array([], dtype=np.int64))
        parts = pa.concat_tables(batches, promote_options="default")
        return cls(
            np.asarray(parts["term"].to_pylist()),
            parts["df"].to_numpy(zero_copy_only=False),
        )

    def complete(self, prefix: str, k: int = 10) -> pa.Table:
        return _finish(*self.prefix_range(prefix), k)

    def prefix_range(self, prefix: str):
        """The (terms, dfs) slice matching ``prefix``, term order."""
        lo = int(np.searchsorted(self.terms, prefix, side="left"))
        hi = int(np.searchsorted(self.terms, prefix + self._HI, side="right"))
        return self.terms[lo:hi], self.dfs[lo:hi]


def sum_by_term(parts) -> "tuple[np.ndarray, np.ndarray]":
    """(terms ascending, dfs summed per term) over (terms, dfs) partials —
    a term's df may be split across segments, doc shards, or term shards
    whose segments use different bucket counts."""
    ts = [np.asarray(t, dtype=str) for t, _ in parts]
    ds = [np.asarray(d, dtype=np.int64) for _, d in parts]
    terms = np.concatenate(ts) if ts else np.array([], dtype=str)
    dfs = np.concatenate(ds) if ds else np.array([], dtype=np.int64)
    order = np.argsort(terms, kind="stable")
    terms, dfs = terms[order], dfs[order]
    if not len(terms):
        return terms, dfs
    starts = np.flatnonzero(np.concatenate([[True], terms[1:] != terms[:-1]]))
    return terms[starts], np.add.reduceat(dfs, starts)


def _sum_by_key(t, keys: list, count: str, cut: int = 1, among=None):
    """``count`` summed per key within one part, as (keys..., count):
    the rows with sum ≥ ``cut``, or the keys in table ``among``.
    None for a part without the columns (a zero-column empty block)."""
    if count not in t.column_names:
        return None
    s = t.group_by(keys, use_threads=False).aggregate([(count, "sum")])
    s = s.select(keys + [f"{count}_sum"]).rename_columns(keys + [count])
    if among is not None:
        return s.join(among, keys, join_type="inner").select(keys + [count])
    return s.filter(pc.greater_equal(s[count], cut))


def terms_over(parts, keys: list, count: str, thr: int) -> pa.Table:
    """Every key whose ``count`` summed over ``parts`` exceeds ``thr``,
    with that exact sum: (keys..., count) in key order.  ``parts`` are
    Arrow tables, or object refs to them, holding the ``keys`` and
    ``count`` columns; a key may repeat within and across parts.

    Two rounds of map tasks, each returning a small table, and no
    exchange (the threshold filter of TPUT, Cao & Wang PODC 2004): by
    pigeonhole a key whose sum over m parts exceeds thr has a count of
    at least ⌊thr/m⌋+1 in some part.  Round 1 returns each part's keys at
    that cut; round 2 the exact counts of their union from every part.
    The answer does not depend on m or on how the counts are split."""
    from functools import partial

    from bitfunnel_ray.ops.exchange import fan_out

    def each(**kw) -> list:
        done = fan_out(partial(_sum_by_key, keys=keys, count=count, **kw), parts)
        return [c for c in done if c is not None]

    found = each(cut=thr // max(len(parts), 1) + 1)
    if not found:
        return pa.table({c: pa.array([], pa.null()) for c in keys + [count]})
    cand = pa.concat_tables(found).group_by(keys, use_threads=False).aggregate([])
    if len(cand):
        found = each(among=cand)
    total = _sum_by_key(pa.concat_tables(found), keys, count, cut=thr + 1)
    return total.sort_by([(k, "ascending") for k in keys])


def merge_suggest_partials(parts, k: int = 10) -> pa.Table:
    """The global top-k of per-shard (terms, dfs) partials: dfs sum per
    term, then the same (df desc, term asc) cut as
    ``SuggestIndex.complete``."""
    return _finish(*sum_by_term(parts), k)
