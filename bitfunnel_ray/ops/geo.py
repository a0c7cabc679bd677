"""Geo-distance queries over document coordinates — the Elasticsearch
geo_distance filter / sort family.

Shape: map-only; the origin is a constant, the haversine is a handful of
vectorized trig calls per block, and only matching rows leave the stage.
Distances are computed in float64 with ONE canonical formula (below) and
compared against the threshold after rounding to whole METERS — numpy
and DuckDB both bind libm, but last-ulp differences in ``sin``/``asin``
between implementations are real, so the contract (and the oracle) is
integer-meter equality, with test fixtures choosing radii away from any
integer boundary.

    d = 2 R asin(sqrt(sin²(Δφ/2) + cosφ₁ cosφ₂ sin²(Δλ/2))),  R = 6371000 m

Reference analog: none (BitFunnel has no numeric fields at all); this
extends the doc-values family (range filters, sort-by-field) to the
spherical metric every location-aware search tier ships.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

from bitfunnel_ray.query.wand import topk_order

_R = 6_371_000.0  # mean Earth radius, meters (the common haversine constant)


def haversine_m(
    lat1: np.ndarray, lon1: np.ndarray, lat2: float, lon2: float
) -> np.ndarray:
    """Vectorized haversine distance in meters (float64)."""
    p1 = np.radians(np.asarray(lat1, np.float64))
    l1 = np.radians(np.asarray(lon1, np.float64))
    p2 = np.radians(float(lat2))
    l2 = np.radians(float(lon2))
    a = (
        np.sin((p2 - p1) / 2.0) ** 2
        + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2.0) ** 2
    )
    return 2.0 * _R * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


def geo_distance_filter(
    docs: "ray.data.Dataset",
    origin: "tuple[float, float]",
    radius_m: float,
    *,
    lat_col: str = "lat",
    lon_col: str = "lon",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Docs within ``radius_m`` meters of ``origin`` (lat, lon) →
    (doc_id, distance_m) with distance rounded to whole meters (the
    comparable contract; see module docstring).  Null coordinates never
    match."""
    olat, olon = float(origin[0]), float(origin[1])

    def block(t: pa.Table) -> pa.Table:
        lat = t[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lon = t[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        d = np.round(haversine_m(lat, lon, olat, olon))
        keep = d <= radius_m  # NaN coords give NaN distance → False
        return pa.table(
            {
                id_col: t[id_col].cast(pa.int64()).filter(pa.array(keep)),
                "distance_m": pa.array(d[keep], pa.float64()),
            }
        )

    return docs.select_columns([id_col, lat_col, lon_col]).map_batches(
        block, batch_format="pyarrow"
    )


def geo_nearest(
    docs: "ray.data.Dataset",
    origin: "tuple[float, float]",
    k: int = 10,
    *,
    lat_col: str = "lat",
    lon_col: str = "lon",
    id_col: str = "doc_id",
) -> pa.Table:
    """k nearest documents to ``origin`` (distance asc, doc_id asc) —
    map-side per-block top-k (≤ k rows/block leave the stage), one tiny
    final reduce; the geo analog of the ANN brute-force scan."""
    olat, olon = float(origin[0]), float(origin[1])

    def block(t: pa.Table) -> pa.Table:
        lat = t[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lon = t[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = np.round(haversine_m(lat, lon, olat, olon))
        ok = ~np.isnan(d)
        ids, d = ids[ok], d[ok]
        if not len(ids):
            return pa.table(
                {id_col: pa.array([], pa.int64()), "distance_m": pa.array([], pa.float64())}
            )
        sel = topk_order(-d, ids, k)  # negation is exact: ties order the same
        return pa.table(
            {
                id_col: pa.array(ids[sel], pa.int64()),
                "distance_m": pa.array(d[sel], pa.float64()),
            }
        )

    import ray

    parts = docs.select_columns([id_col, lat_col, lon_col]).map_batches(
        block, batch_format="pyarrow"
    )
    tables = [x for x in ray.get(parts.to_arrow_refs()) if len(x)]
    if not tables:
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "distance_m": pa.array([], pa.float64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    all_t = pa.concat_tables(tables)
    ids = all_t[id_col].to_numpy(zero_copy_only=False)
    d = all_t["distance_m"].to_numpy(zero_copy_only=False)
    order = topk_order(-d, ids, k)
    return pa.table(
        {
            id_col: pa.array(ids[order], pa.int64()),
            "distance_m": pa.array(d[order], pa.float64()),
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
        }
    )
