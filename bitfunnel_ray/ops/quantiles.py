"""Exact distributed percentiles over an integer-valued column.

Shape: per-block value-count partials (``np.unique`` — each block emits
at most |distinct values in block| rows), one hash exchange on the value,
a per-block count reduce, then the driver receives the MERGED histogram
— whose size is bounded by the column's value DOMAIN (e.g. document
lengths, short-bounded), never by the row count — and reads the
percentiles off the cumulative counts.  This is the map-side-combine →
tiny-exchange → bounded-driver-read pattern the df table uses; no sort
of the data, no row-count-sized driver gather.

Semantics match SQL ``percentile_disc(q) WITHIN GROUP (ORDER BY v)``:
the smallest value whose cumulative row count reaches ``ceil(q * n)``
(an actual data value, so integer comparisons stay exact).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


def _value_counts_block(t: pa.Table) -> pa.Table:
    if len(t) == 0:
        return pa.table({"value": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())})
    v, c = np.unique(t["value"].to_numpy(zero_copy_only=False), return_counts=True)
    return pa.table({"value": pa.array(v, pa.int64()), "cnt": pa.array(c.astype(np.int64))})


def exact_percentiles(
    ds: "ray.data.Dataset",
    col: str,
    quantiles: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95, 0.99),
) -> pa.Table:
    """percentile_disc over an integer column; returns (q, value)."""
    from bitfunnel_ray.ops.exchange import exchange

    vals = ds.select_columns([col]).map_batches(
        lambda t: pa.table({"value": t[col].cast(pa.int64())}), batch_format="pyarrow"
    )
    partials = vals.map_batches(_value_counts_block, batch_format="pyarrow")
    hist = (
        exchange(partials, ["value"], _value_counts_block_sum)
        .to_pandas()  # bounded by the value domain, not the row count
        .sort_values("value")
    )
    n = int(hist["cnt"].sum())
    cum = hist["cnt"].cumsum().to_numpy()
    values = hist["value"].to_numpy()
    out_q, out_v = [], []
    for q in quantiles:
        rank = max(1, math.ceil(q * n)) if n else 0
        idx = int(np.searchsorted(cum, rank))
        out_q.append(float(q))
        out_v.append(int(values[idx]) if n else 0)
    return pa.table({"q": pa.array(out_q, pa.float64()), "value": pa.array(out_v, pa.int64())})


def _value_counts_block_sum(t: pa.Table) -> pa.Table:
    if len(t) == 0:
        return pa.table({"value": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())})
    v = t["value"].to_numpy(zero_copy_only=False)
    c = t["cnt"].to_numpy(zero_copy_only=False)
    order = np.argsort(v, kind="stable")
    v, c = v[order], c[order]
    starts = np.flatnonzero(np.diff(v, prepend=v[0] - 1))
    return pa.table(
        {
            "value": pa.array(v[starts], pa.int64()),
            "cnt": pa.array(np.add.reduceat(c, starts).astype(np.int64)),
        }
    )


def _group_value_counts_block(t: pa.Table) -> pa.Table:
    empty = pa.table(
        {
            "grp": pa.array([], pa.string()),
            "value": pa.array([], pa.int64()),
            "cnt": pa.array([], pa.int64()),
        }
    )
    if len(t) == 0:
        return empty
    enc = pa.array(t["grp"].to_numpy(zero_copy_only=False)).dictionary_encode()
    g = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    v = t["value"].to_numpy(zero_copy_only=False)
    c = (
        t["cnt"].to_numpy(zero_copy_only=False)
        if "cnt" in t.schema.names
        else np.ones(len(t), np.int64)
    )
    order = np.lexsort((v, g))
    g, v, c = g[order], v[order], c[order]
    new = np.empty(len(g), dtype=bool)
    new[0] = True
    new[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    starts = np.flatnonzero(new)
    return pa.table(
        {
            "grp": enc.dictionary.take(pa.array(g[starts])).cast(pa.string()),
            "value": pa.array(v[starts], pa.int64()),
            "cnt": pa.array(np.add.reduceat(c, starts).astype(np.int64)),
        }
    )


def _group_percentiles_block(t: pa.Table, *, quantiles) -> pa.Table:
    """One group-partitioned block of merged (grp, value, cnt) histogram
    rows → percentile_disc rows per group (groups are complete here)."""
    empty = pa.table(
        {
            "grp": pa.array([], pa.string()),
            "q": pa.array([], pa.float64()),
            "value": pa.array([], pa.int64()),
        }
    )
    if len(t) == 0:
        return empty
    merged = _group_value_counts_block(t)
    gvals = merged["grp"].to_numpy(zero_copy_only=False)
    v = merged["value"].to_numpy(zero_copy_only=False)
    c = merged["cnt"].to_numpy(zero_copy_only=False)
    out_g, out_q, out_v = [], [], []
    # bounded by distinct GROUPS per block, never rows
    starts = np.flatnonzero(
        np.concatenate([[True], gvals[1:] != gvals[:-1]])
    )
    bounds = np.append(starts, len(gvals))
    for s, e in zip(bounds[:-1], bounds[1:]):
        cum = np.cumsum(c[s:e])
        n = int(cum[-1])
        for q in quantiles:
            rank = max(1, math.ceil(q * n))
            idx = int(np.searchsorted(cum, rank))
            out_g.append(gvals[s])
            out_q.append(float(q))
            out_v.append(int(v[s + idx]))
    return pa.table(
        {
            "grp": pa.array(out_g, pa.string()),
            "q": pa.array(out_q, pa.float64()),
            "value": pa.array(out_v, pa.int64()),
        }
    )


def grouped_percentiles(
    ds: "ray.data.Dataset",
    value_col: str,
    group_col: str,
    quantiles: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95, 0.99),
) -> pa.Table:
    """Exact percentile_disc per group: per-block (group, value) count
    partials, ONE hash exchange on the group (co-locating each group's
    whole bounded-domain histogram), percentiles read per block.  The
    driver only receives groups × quantiles rows."""
    from functools import partial as _bind

    import ray

    from bitfunnel_ray.ops.exchange import exchange

    rows = ds.select_columns([group_col, value_col]).map_batches(
        lambda t: pa.table(
            {"grp": t[group_col].cast(pa.string()), "value": t[value_col].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    partials = rows.map_batches(_group_value_counts_block, batch_format="pyarrow")
    per_group = exchange(
        partials, ["grp"], _bind(_group_percentiles_block, quantiles=tuple(quantiles))
    )
    tables = [x for x in ray.get(per_group.to_arrow_refs()) if len(x)]
    out = pa.concat_tables(tables) if tables else _group_percentiles_block(
        pa.table({"grp": pa.array([], pa.string()), "value": pa.array([], pa.int64())}),
        quantiles=tuple(quantiles),
    )
    return out.rename_columns([group_col, "q", "value"]).sort_by(
        [(group_col, "ascending"), ("q", "ascending")]
    )
