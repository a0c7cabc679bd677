"""Join operators Ray Data lacks as primitives, composed the way the
task brief prescribes: an **as-of join** (latest right row at or before
each left row's timestamp, per key), a **range join**, the
co-partitioned equi-joins, and a **broadcast dimension join** (small
side shipped once via ``ray.put``, looked up map-side — never a shuffle
join).

Every two-sided join here is one ``ops/exchange.cogroup`` on the join
key plus a vectorized kernel over the two sides of each partition.  The
as-of kernel sorts (key, ts, side, id) and forward-fills the latest
right-row position with a single ``np.maximum.accumulate`` — no per-key
python, no driver funnel.  The partitioning assumption is the same as
sessionize (ops/sessions.py): one key's history fits one block, true
for per-user/device event keys at web scale.

Tie semantics (documented, oracle-exact): right rows at ts equal to the
left row's ts DO match (inclusive); among right candidates with the same
ts the largest id wins.  Left rows with no prior right row are dropped
(inner as-of).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_ASOF_SCHEMA = pa.schema(
    [
        ("key", pa.int64()),
        ("left_id", pa.int64()),
        ("left_ts_us", pa.int64()),
        ("right_id", pa.int64()),
        ("right_ts_us", pa.int64()),
    ]
)


def _int64_side(ds, cols: dict):
    """``ds``'s columns renamed ``{source: name}``, and the all-int64
    schema ``cogroup`` casts them to."""
    schema = pa.schema([(name, pa.int64()) for name in cols.values()])
    return ds.select_columns(list(cols)).rename_columns(cols), schema


def _stacked(first: pa.Table, second: pa.Table, names) -> tuple:
    """The int64 columns ``names`` of ``first`` then ``second`` as numpy
    arrays, plus each row's side (0 = first, 1 = second)."""
    cols = tuple(
        np.concatenate([t[n].to_numpy(zero_copy_only=False) for t in (first, second)])
        for n in names
    )
    side = np.repeat(np.array([0, 1], np.int8), [len(first), len(second)])
    return cols + (side,)


def _asof_block(left: pa.Table, right: pa.Table) -> pa.Table:
    k, ts, rid, side = _stacked(right, left, ("key", "ts_us", "rid"))  # 0=right, 1=left
    # sort: right rows precede left at equal ts (inclusive match); right
    # rows with equal ts ascend by id so the forward-fill picks max id
    order = np.lexsort((rid, side, ts, k))
    k, ts, rid, side = k[order], ts[order], rid[order], side[order]
    n = len(k)
    last_right = np.where(side == 0, np.arange(n), -1)
    np.maximum.accumulate(last_right, out=last_right)
    idx = np.flatnonzero(side == 1)
    m = last_right[idx]
    ok = m >= 0
    ok[ok] = k[m[ok]] == k[idx[ok]]  # fill must come from the same key
    li, ri = idx[ok], m[ok]
    return pa.table(
        {
            "key": pa.array(k[li], pa.int64()),
            "left_id": pa.array(rid[li], pa.int64()),
            "left_ts_us": pa.array(ts[li], pa.int64()),
            "right_id": pa.array(rid[ri], pa.int64()),
            "right_ts_us": pa.array(ts[ri], pa.int64()),
        },
        schema=_ASOF_SCHEMA,
    )


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key: str,
    ts: str,
    id_col: str,
) -> "ray.data.Dataset":
    """For each left row, the latest right row (same ``key``) with
    ``right.ts <= left.ts``; ties on ts broken by largest ``id_col``.
    Returns (key, left_id, left_ts_us, right_id, right_ts_us); left rows
    with no matching right row are dropped (inner as-of)."""
    from bitfunnel_ray.ops.exchange import cogroup

    cols = {key: "key", ts: "ts_us", id_col: "rid"}
    (l, ls), (r, rs) = _int64_side(left, cols), _int64_side(right, cols)
    return cogroup(l, r, ["key"], _asof_block, left_schema=ls, right_schema=rs)


class _BlocklistFilter:
    """Map-side anti-join: the blocklist key array rides the object store
    once per actor; each batch drops rows whose key is present
    (vectorized ``np.isin`` against the sorted blocklist)."""

    def __init__(self, keys_ref, key_col: str):
        import ray as _ray

        keys = _ray.get(keys_ref) if isinstance(keys_ref, _ray.ObjectRef) else keys_ref
        self.keys = np.sort(np.asarray(keys))
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        bk = batch[self.key_col].to_numpy(zero_copy_only=False)
        keys = self.keys
        # dtype alignment: np.isin(uint64, int64) silently promotes BOTH
        # sides to float64, losing exactness for ids >= 2^53 — view the
        # blocklist as the big side's 64-bit integer dtype instead
        if (
            bk.dtype != keys.dtype
            and bk.dtype.kind in "iu"
            and keys.dtype.kind in "iu"
            and keys.dtype.itemsize == bk.dtype.itemsize
        ):
            keys = np.sort(keys.view(bk.dtype))
        return batch.filter(pa.array(~np.isin(bk, keys)))


def anti_join(
    big: "ray.data.Dataset",
    blocklist,
    *,
    key: str,
    broadcast: bool = True,
) -> "ray.data.Dataset":
    """Drop big-side rows whose ``key`` appears in ``blocklist``.

    ``broadcast=True`` (blocklist is a numpy array / pyarrow array that
    fits the object store — the usual case for curated blocklists): one
    ``ray.put``, map-side ``np.isin``, no exchange.

    ``broadcast=False`` (blocklist is a Dataset too big to broadcast):
    both sides are co-partitioned by key in ONE ``cogroup``; each
    partition then drops big rows whose key occurs among its blocklist
    rows — the distributed anti-join shape (same partitioning contract
    as asof_join)."""
    import ray as _ray

    if broadcast:
        arr = blocklist.to_numpy(zero_copy_only=False) if isinstance(
            blocklist, (pa.Array, pa.ChunkedArray)
        ) else np.asarray(blocklist)
        ref = _ray.put(arr)
        return big.map_batches(
            _BlocklistFilter,
            fn_constructor_args=(ref, key),
            concurrency=(1, 8),
            batch_format="pyarrow",
        )

    from bitfunnel_ray.ops.exchange import cogroup

    big_schema = big.schema().base_schema  # pyarrow schema

    def drop_blocked(b: pa.Table, blocked: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(~np.isin(k, blocked[key].to_numpy(zero_copy_only=False))))

    return cogroup(
        big,
        blocklist,
        [key],
        drop_blocked,
        left_schema=big_schema,
        right_schema=pa.schema([big_schema.field(key)]),
    )


class _DimLookup:
    """Map-side dimension lookup: the dim table rides the object store
    once per actor (``ray.put`` ref in ``__init__``), each batch joins by
    searchsorted on the (unique, sorted) dim key — the broadcast-join
    shape the brief requires for small sides (never re-shipped per batch,
    never a shuffle)."""

    def __init__(self, dim_ref, big_key: str, dim_key: str, dim_cols: list[str]):
        import ray as _ray

        dim = _ray.get(dim_ref) if isinstance(dim_ref, _ray.ObjectRef) else dim_ref
        order = np.argsort(dim[dim_key].to_numpy(zero_copy_only=False))
        self.keys = dim[dim_key].to_numpy(zero_copy_only=False)[order]
        # the searchsorted lookup resolves ONE dim row per big row, so a
        # duplicated dim key would silently drop match rows instead of
        # replicating (inner-join semantics) — refuse it loudly
        if len(self.keys) > 1 and (self.keys[1:] == self.keys[:-1]).any():
            dup = self.keys[1:][self.keys[1:] == self.keys[:-1]][0]
            raise ValueError(
                f"broadcast_dim_join: dim key '{dim_key}' has duplicate "
                f"value {dup!r}; dim keys must be unique"
            )
        self.cols = {c: dim[c].take(pa.array(order)) for c in dim_cols}
        self.big_key = big_key

    def __call__(self, batch: pa.Table) -> pa.Table:
        bk = batch[self.big_key].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(self.keys, bk)
        pos[pos == len(self.keys)] = 0
        hit = self.keys[pos] == bk
        out = batch.filter(pa.array(hit))
        sel = pa.array(pos[hit])
        for name, arr in self.cols.items():
            out = out.append_column(name, arr.take(sel))
        return out


def broadcast_dim_join(
    big: "ray.data.Dataset",
    dim: pa.Table,
    *,
    big_key: str,
    dim_key: str,
    dim_cols: list[str],
) -> "ray.data.Dataset":
    """Inner-join ``big`` against a small dimension table by equality on
    ``big_key`` = ``dim_key``, appending ``dim_cols``.  The dim table is
    broadcast via the object store (one copy cluster-wide); big-side rows
    with no dim match are dropped."""
    import ray as _ray

    ref = _ray.put(dim)
    return big.map_batches(
        _DimLookup,
        fn_constructor_args=(ref, big_key, dim_key, dim_cols),
        concurrency=(1, 8),
        batch_format="pyarrow",
    )


# --- range (point-in-interval) join ---------------------------------------

_RANGE_SCHEMA = pa.schema(
    [
        ("key", pa.int64()),
        ("left_id", pa.int64()),
        ("ts_us", pa.int64()),
        ("iv_id", pa.int64()),
    ]
)


def _range_block(points: pa.Table, intervals: pa.Table) -> pa.Table:
    k, ts, rid, end, side = _stacked(
        intervals, points.append_column("end_us", pa.array(np.zeros(len(points), np.int64))),
        ("key", "ts_us", "rid", "end_us"),
    )  # 0=interval, 1=point
    order = np.lexsort((side, ts, k))  # interval before point at equal ts
    k, ts, rid, end, side = k[order], ts[order], rid[order], end[order], side[order]
    n = len(k)
    iv_pos = np.flatnonzero(side == 0)
    # non-overlap contract: within a key, each interval must end before
    # the next begins — violated input would silently lose matches, so
    # fail loudly (same honesty rule as the spill-ack row check)
    if len(iv_pos) > 1:
        a, bpos = iv_pos[:-1], iv_pos[1:]
        bad = (k[a] == k[bpos]) & (end[a] > ts[bpos])
        if bad.any():
            raise ValueError(
                "range_join: overlapping intervals within a key "
                f"(first at key={int(k[a[bad.argmax()]])}); the vectorized "
                "forward-fill sweep requires non-overlapping intervals "
                "(sessions/windows)"
            )
    last_iv = np.where(side == 0, np.arange(n), -1)
    np.maximum.accumulate(last_iv, out=last_iv)
    idx = np.flatnonzero(side == 1)
    m = last_iv[idx]
    ok = m >= 0
    ok[ok] &= (k[m[ok]] == k[idx[ok]]) & (ts[idx[ok]] < end[m[ok]])
    li, ri = idx[ok], m[ok]
    return pa.table(
        {
            "key": pa.array(k[li], pa.int64()),
            "left_id": pa.array(rid[li], pa.int64()),
            "ts_us": pa.array(ts[li], pa.int64()),
            "iv_id": pa.array(rid[ri], pa.int64()),
        },
        schema=_RANGE_SCHEMA,
    )


def range_join(
    points: "ray.data.Dataset",
    intervals: "ray.data.Dataset",
    *,
    key: str,
    ts: str,
    id_col: str,
    start: str = "start_us",
    end: str = "end_us",
    iv_id: str = "iv_id",
) -> "ray.data.Dataset":
    """Inner point-in-interval join: each ``points`` row pairs with the
    ``intervals`` row of the same ``key`` whose [start, end) contains its
    ``ts`` (start inclusive, end exclusive).  Intervals must be
    NON-OVERLAPPING per key (sessions, promo windows, maintenance slots —
    checked per block, loud error otherwise); overlapping-interval
    workloads need marker replication per time bucket instead.

    Same scale shape as asof_join: one ``cogroup`` on ``key``, then a
    vectorized forward-fill sweep per partition — no per-row python, no
    driver gather.  → (key, left_id, ts_us, iv_id).
    """
    from bitfunnel_ray.ops.exchange import cogroup

    p, ps = _int64_side(points, {key: "key", ts: "ts_us", id_col: "rid"})
    iv, ivs = _int64_side(
        intervals, {key: "key", start: "ts_us", iv_id: "rid", end: "end_us"}
    )
    return cogroup(p, iv, ["key"], _range_block, left_schema=ps, right_schema=ivs)


def _cp_join_block(
    lt: pa.Table,
    rt: pa.Table,
    *,
    key: str,
    lnames: tuple,
    rnames: tuple,
    out_schema: pa.Schema,
    how: str,
    right_unique: bool,
) -> pa.Table:
    """Equi-join within one key-partitioned block: left rows × right rows
    → full many-to-many match per key; ``how="left"`` also keeps every
    unmatched left row once, right payload null.  Vectorized: sort the
    right side's keys, locate each left row's match range with two
    searchsorteds, expand with the arange-minus-offsets trick; payload
    columns ride along via Arrow ``take`` (a null index takes a null)."""
    # SQL null semantics: a null key never matches (it would otherwise
    # surface as NaN after to_numpy, where NaN==NaN ranges falsely match
    # and int64 keys degrade to float64); only a left-outer left side
    # keeps its null-key rows
    if rt[key].null_count:
        rt = rt.filter(pc.is_valid(rt[key]))
    if how == "inner" and lt[key].null_count:
        lt = lt.filter(pc.is_valid(lt[key]))
    rt = rt.combine_chunks()
    rk = rt[key].to_numpy(zero_copy_only=False)
    if right_unique and len(np.unique(rk)) != len(rk):
        raise ValueError(
            f"join needs right-side rows UNIQUE per {key}: duplicate right "
            f"rows for one {key} found"
        )
    if not len(lt) or (how == "inner" and not len(rt)):
        return out_schema.empty_table()
    lt = lt.combine_chunks()
    lkey = lt[key]
    lvalid = pc.is_valid(lkey).to_numpy(zero_copy_only=False)
    if lkey.null_count:
        lkey = pc.fill_null(lkey, pa.scalar(0, lkey.type))
    lk = lkey.to_numpy(zero_copy_only=False)
    order = np.argsort(rk, kind="stable")
    rk_sorted = rk[order]
    lo = np.searchsorted(rk_sorted, lk, side="left")
    lens = np.where(lvalid, np.searchsorted(rk_sorted, lk, side="right") - lo, 0)
    rows = np.maximum(lens, 1) if how == "left" else lens
    total = int(rows.sum())
    if total == 0:
        return out_schema.empty_table()
    flat = (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(rows) - rows, rows)
        + np.repeat(lo, rows)
    )
    matched = np.repeat(lens > 0, rows)
    lidx = pa.array(np.repeat(np.arange(len(lk), dtype=np.int64), rows))
    ridx = pa.array(
        np.where(matched, order[np.minimum(flat, max(len(order) - 1, 0))], 0)
        if len(order)
        else np.zeros(total, np.int64),
        pa.int64(),
        mask=~matched,
    )
    cols = {key: lt[key].take(lidx)}
    for n in lnames:
        cols[n] = lt[n].take(lidx)
    for n in rnames:
        cols[n] = rt[n].take(ridx) if len(rt) else pa.nulls(total, out_schema.field(n).type)
    return pa.table(cols, schema=out_schema)


def _join_cp(
    left, right, *, key, how, num_partitions=None, left_schema=None, right_schema=None,
    right_unique=False,
):
    from functools import partial as _p

    from bitfunnel_ray.ops.exchange import _side_schema, cogroup

    lbase = _side_schema(left, left_schema)
    rbase = _side_schema(right, right_schema)
    lnames = tuple(f.name for f in lbase if f.name != key)
    rnames = tuple(f.name for f in rbase if f.name != key)
    clash = set(lnames) & set(rnames)
    if clash:
        raise ValueError(f"co-partitioned join payload column clash: {sorted(clash)}")
    # the right key is cast to the left key's type
    key_field = lbase.field(key)
    rbase = rbase.set(rbase.get_field_index(key), key_field)
    out_schema = pa.schema(
        [key_field] + [lbase.field(n) for n in lnames] + [rbase.field(n) for n in rnames]
    )
    kernel = _p(
        _cp_join_block, key=key, lnames=lnames, rnames=rnames, out_schema=out_schema,
        how=how, right_unique=right_unique,
    )
    return cogroup(
        left, right, [key], kernel, num_partitions=num_partitions,
        left_schema=lbase, right_schema=rbase,
    )


def inner_join_cp(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key: str,
    num_partitions: int | None = None,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
) -> "ray.data.Dataset":
    """Co-partitioned inner equi-join on ``key`` (an integer column both
    sides share) — the engine's replacement for ``Dataset.join``, which
    on this Ray (2.49) dies when an input contains the zero-column empty
    blocks that skipped upstream schema-changing maps ("No match for
    FieldRef...").  One ``cogroup`` on ``key`` (the right key cast to
    the left key's type), then a vectorized block kernel (full
    many-to-many semantics; a null key matches nothing).
    Output columns: key + left payload + right payload (names must be
    disjoint apart from ``key``).  Exchange volume = both sides once —
    the same as a shuffle join, minus the string keys when callers
    pre-hash."""
    return _join_cp(
        left, right, key=key, how="inner", num_partitions=num_partitions,
        left_schema=left_schema, right_schema=right_schema,
    )


def left_join_cp(left, right, *, key: str, **kw) -> "ray.data.Dataset":
    """Co-partitioned LEFT OUTER equi-join: ``inner_join_cp``'s rows plus
    every left row without a match (null key included) once, with null
    right payload.  Same arguments, exchange and kernel; with
    ``right_unique=True`` a key held by two right rows raises instead of
    duplicating its left rows."""
    return _join_cp(left, right, key=key, how="left", **kw)


def anti_join_bloom(
    big: "ray.data.Dataset",
    blocklist: "ray.data.Dataset",
    *,
    key: str,
    n_keys: int,
    fpr: float = 0.01,
) -> "ray.data.Dataset":
    """Anti-join against a blocklist too big to broadcast raw, without
    exchanging the big side: a Bloom filter of the blocklist
    (functions/bloom.py — ~1.2 GB per 10^10 keys at 1% FPR, vs 80 GB of
    raw ids) broadcasts to every actor; bloom-NEGATIVE rows (the
    overwhelming majority) pass through with zero exchange, and only
    bloom-POSITIVE rows (true hits + ~fpr of the rest) run the exact
    co-partitioned anti-join.  Exactness is preserved — the filter has
    no false negatives, and every positive is verified.

    Cost shape: big is SCANNED twice (negative pass-through + positive
    split — cheap, column-pruned) but EXCHANGED ~(|blocked| + fpr·n)
    rows instead of n; at web scale the exchange is the cost that
    matters.  ``n_keys`` sizes the filter (pass the blocklist
    cardinality or an overestimate)."""
    import ray as _ray

    from bitfunnel_ray.functions.bloom import bloom_from_dataset

    bloom = bloom_from_dataset(blocklist, key, n_keys=n_keys, fpr=fpr)
    bloom_ref = _ray.put(bloom)

    def split(keep_positive: bool):
        def f(t: pa.Table) -> pa.Table:
            b = _ray.get(bloom_ref)
            k = t[key].to_numpy(zero_copy_only=False).astype(np.uint64)
            hit = b.contains_many(k)
            return t.filter(pa.array(hit if keep_positive else ~hit))

        return f

    clean = big.map_batches(split(False), batch_format="pyarrow")
    suspects = big.map_batches(split(True), batch_format="pyarrow")
    resolved = anti_join(suspects, blocklist, key=key, broadcast=False)
    # exchanged side first: a union runs under its left side's context
    return resolved.union(clean)
