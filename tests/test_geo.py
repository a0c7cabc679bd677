"""Geo-distance query family (ops/geo.py): haversine filter + k-nearest."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from bitfunnel_ray.ops.geo import geo_distance_filter, geo_nearest, haversine_m


def test_haversine_known_values():
    # NYC (40.7128, -74.0060) to London (51.5074, -0.1278): ~5570 km
    d = float(haversine_m(np.array([40.7128]), np.array([-74.0060]), 51.5074, -0.1278)[0])
    assert abs(d - 5_570_000) < 10_000
    # zero distance, antipodal cap at pi*R
    assert float(haversine_m(np.array([10.0]), np.array([20.0]), 10.0, 20.0)[0]) == 0.0
    anti = float(haversine_m(np.array([0.0]), np.array([0.0]), 0.0, 180.0)[0])
    assert abs(anti - np.pi * 6_371_000) < 1.0


@pytest.fixture(scope="module")
def geo_ds(ray_session):
    rng = np.random.default_rng(7)
    n = 2000
    lat = rng.uniform(-80, 80, n)
    lon = rng.uniform(-180, 180, n)
    lat[5] = np.nan  # null coordinates never match
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "lat": pa.array(lat),
            "lon": pa.array(lon),
        }
    )
    return rd.from_arrow(t), lat, lon


def test_filter_matches_brute_force(geo_ds):
    ds, lat, lon = geo_ds
    origin, radius = (35.0, 139.0), 4_000_000
    got = geo_distance_filter(ds, origin, radius).to_pandas().sort_values("doc_id")
    d = np.round(haversine_m(lat, lon, *origin))
    want = np.flatnonzero(d <= radius)
    assert got["doc_id"].tolist() == want.tolist()
    assert np.array_equal(got["distance_m"].to_numpy(), d[want])
    assert 5 not in set(got["doc_id"])  # NaN row excluded


def test_nearest_matches_full_sort(geo_ds):
    ds, lat, lon = geo_ds
    origin = (-20.0, 30.0)
    top = geo_nearest(ds, origin, k=15).to_pandas()
    d = np.round(haversine_m(lat, lon, *origin))
    ok = ~np.isnan(d)
    ids = np.arange(len(d))[ok]
    order = np.lexsort((ids, d[ok]))[:15]
    assert top["doc_id"].tolist() == ids[order].tolist()
    assert top["rank"].tolist() == list(range(1, 16))
    assert (np.diff(top["distance_m"].to_numpy()) >= 0).all()


def test_nearest_ties_keep_the_smallest_ids(ray_session):
    """Docs at one spot are equally near: at the k cut the smallest
    doc_ids win, within a block and across blocks."""
    ids = np.random.default_rng(9).permutation(60).astype(np.int64)
    lat = np.where(ids < 50, 10.0, 40.0)  # 50 docs share one spot
    lat[ids == 55] = 10.5
    t = pa.table({"doc_id": ids, "lat": lat, "lon": np.zeros(60)})
    top = geo_nearest(rd.from_arrow(t).repartition(3), (10.0, 0.0), k=5).to_pandas()
    assert top["doc_id"].tolist() == [0, 1, 2, 3, 4]
    assert (top["distance_m"] == 0.0).all()
