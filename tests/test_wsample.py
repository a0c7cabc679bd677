"""Deterministic A-ES weighted sampling (ops/wsample.py)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from bitfunnel_ray.ops.wsample import sample_keys, weighted_sample


def test_sample_matches_driver_side_sort(ray_session):
    rng = np.random.default_rng(0)
    n = 5000
    ids = np.arange(n, dtype=np.int64)
    w = rng.exponential(2.0, n)
    w[::97] = 0.0  # non-positive weights excluded
    t = pa.table({"doc_id": ids, "w": w})
    got = weighted_sample(rd.from_arrow(t), 50, weight_col="w").to_pandas()
    k = sample_keys(ids, w)
    ok = np.isfinite(k)
    order = np.lexsort((ids[ok], -k[ok]))[:50]
    assert got["doc_id"].tolist() == ids[ok][order].tolist()
    assert (np.diff(got["key"].to_numpy()) <= 0).all()
    assert (got["weight"] > 0).all()
    # deterministic: identical second run
    again = weighted_sample(rd.from_arrow(t), 50, weight_col="w").to_pandas()
    assert got.equals(again)


def test_weight_proportionality():
    """Higher weights are sampled more often — check the A-ES property
    over many disjoint id-universes (each shifted hash stream acts as an
    independent draw)."""
    n_trials, n_items, top = 400, 40, 8
    wins = np.zeros(n_items)
    w = np.ones(n_items)
    w[:5] = 25.0  # five heavy items
    for trial in range(n_trials):
        ids = np.arange(n_items, dtype=np.int64) + trial * 1000003
        k = sample_keys(ids, w)
        sel = np.argsort(-k)[:top]
        wins[sel] += 1
    heavy, light = wins[:5].mean(), wins[5:].mean()
    assert heavy > 3 * light, (heavy, light)  # 25x weight ≫ 1x weight


def test_validation(ray_session):
    t = pa.table({"doc_id": [1], "w": [1.0]})
    with pytest.raises(ValueError):
        weighted_sample(rd.from_arrow(t), 0, weight_col="w")
    # all-zero weights -> empty sample
    t0 = pa.table({"doc_id": [1, 2], "w": [0.0, -1.0]})
    assert len(weighted_sample(rd.from_arrow(t0), 5, weight_col="w")) == 0


def test_tied_keys_keep_the_smallest_ids(ray_session):
    """An infinite weight gives key -0.0 to every such row: the sample
    holds the smallest ids among them, across blocks."""
    ids = np.random.default_rng(5).permutation(200).astype(np.int64)
    w = np.where(ids % 3 == 0, np.inf, 1.0)
    t = pa.table({"doc_id": ids, "w": w})
    got = weighted_sample(rd.from_arrow(t).repartition(4), 10, weight_col="w").to_pandas()
    assert got["doc_id"].tolist() == list(range(0, 30, 3))
    assert (got["key"] == 0.0).all()
