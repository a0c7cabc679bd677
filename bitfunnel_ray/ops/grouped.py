"""Grouped selection operators: top-k per group and deterministic
stratified sampling.

Ray Data has ``groupby().map_groups`` but that shuffles EVERY row and
runs python per group; these run the canonical two-level shape instead —
a vectorized per-block top-k per group map-side (each block forwards at
most k rows per group it sees), one hash exchange on the group key over
that pre-pruned stream, and the same kernel once more per block.  The
exchange therefore carries ≤ k x |groups per block| rows, never the
input; group cardinality bounds the output, row count never transits.

Stratified sampling = top-k per group ordered by a Knuth multiplicative
hash of the id column — deterministic, uniform-without-replacement per
group, and SQL-expressible (the oracle uses the same hash), unlike
``ds.random_sample``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_KNUTH = 2654435761
_M32 = 4294967296


def _topk_block(
    t: pa.Table, *, group_col: str, key: np.ndarray | None, k: int,
    order_col: str, descending: bool, tiebreak_col: str,
) -> pa.Table:
    """Keep the k first rows per group under (key asc, tiebreak asc);
    key defaults to order_col (negated when descending)."""
    if len(t) == 0:
        return t
    arr = t[group_col]
    if isinstance(arr, pa.ChunkedArray):
        # single array first — per-chunk dictionary codes are not comparable
        arr = pa.concat_arrays(arr.chunks) if arr.num_chunks != 1 else arr.chunk(0)
    g = arr.dictionary_encode().indices.to_numpy(zero_copy_only=False)
    if key is None:
        key = t[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if descending:
            key = -key
    tb = t[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((tb, key, g))
    gs = g[order]
    starts = np.flatnonzero(np.diff(gs, prepend=gs[0] - 1))
    rank = np.arange(len(gs)) - np.repeat(starts, np.diff(np.append(starts, len(gs))))
    return t.take(pa.array(order[rank < k]))


def top_k_per_group(
    ds: "ray.data.Dataset",
    *,
    group_col: str,
    order_col: str,
    k: int,
    descending: bool = True,
    tiebreak_col: str,
) -> "ray.data.Dataset":
    """row_number() OVER (PARTITION BY group ORDER BY order [DESC],
    tiebreak ASC) <= k, as a map-side-pruned exchange."""
    from functools import partial

    from bitfunnel_ray.ops.exchange import exchange

    kern = partial(
        _topk_block, group_col=group_col, key=None, k=k,
        order_col=order_col, descending=descending, tiebreak_col=tiebreak_col,
    )
    return exchange(ds.map_batches(kern, batch_format="pyarrow"), [group_col], kern)


def stratified_sample(
    ds: "ray.data.Dataset",
    *,
    group_col: str,
    id_col: str,
    n_per_group: int,
) -> "ray.data.Dataset":
    """Deterministic uniform sample of ``n_per_group`` rows per group:
    the rows whose Knuth-hashed id is smallest within the group (oracle:
    ORDER BY (id * 2654435761) % 2^32, id)."""

    def add_h(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (ids * np.uint64(_KNUTH)) % np.uint64(_M32)
        return t.append_column("_h", pa.array(h.astype(np.int64)))

    out = top_k_per_group(
        ds.map_batches(add_h, batch_format="pyarrow"),
        group_col=group_col, order_col="_h", k=n_per_group,
        descending=False, tiebreak_col=id_col,
    )
    return out.map_batches(lambda t: t.drop_columns(["_h"]), batch_format="pyarrow")


# --- per-group z-score normalization ---------------------------------------


def group_zscore(
    ds: "ray.data.Dataset", group_col: str, value_col: str
) -> "ray.data.Dataset":
    """Standardize an integer metric within each group:
    z = (x - mean_g) / std_g with the population std computed from exact
    integer (n, Σx, Σx²) — so the float recipe is a fixed expression over
    exact sums and a SQL oracle lands on identical bits.

    Shape: map-side (group, n, sum, sumsq) partials → small groupby →
    per-group stats broadcast (groups are low-cardinality; for
    million-group workloads use broadcast_dim_join with the stats table
    instead) → one stateless normalize map.  Constant-valued groups
    (std = 0) emit z = 0.
    """
    import ray as _ray

    def partials(t: pa.Table) -> pa.Table:
        import pandas as pd

        x = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"g": t[group_col].to_pandas(), "x": x, "x2": x * x})
        a = df.groupby("g", sort=False).agg(n=("x", "size"), s=("x", "sum"), s2=("x2", "sum"))
        a = a.reset_index()
        return pa.table(
            {
                "g": pa.array(a["g"]),
                "n": pa.array(a["n"].to_numpy(), pa.int64()),
                "s": pa.array(a["s"].to_numpy(), pa.int64()),
                "s2": pa.array(a["s2"].to_numpy(), pa.int64()),
            }
        )

    stats = (
        ds.select_columns([group_col, value_col])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("g")
        .sum(["n", "s", "s2"])
        .take_all()
    )
    mean, std = {}, {}
    for r in stats:
        n, s, s2 = float(r["sum(n)"]), float(r["sum(s)"]), float(r["sum(s2)"])
        mean[r["g"]] = s / n
        std[r["g"]] = np.sqrt((s2 - s * s / n) / n)
    ref = _ray.put((mean, std))

    def normalize(t: pa.Table) -> pa.Table:
        m, sd = _ray.get(ref)
        g = t[group_col].to_pandas().to_numpy(dtype=object)
        x = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        mu = np.array([m[v] for v in g])
        si = np.array([sd[v] for v in g])
        z = np.where(si > 0.0, (x - mu) / np.where(si > 0.0, si, 1.0), 0.0)
        out = t.select([c for c in t.column_names])
        return out.append_column("zscore", pa.array(z, pa.float64()))

    return ds.map_batches(normalize, batch_format="pyarrow")
