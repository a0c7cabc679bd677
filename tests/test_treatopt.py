"""Cost-driven treatment selection (build/treatopt.py — the
TreatmentOptimal analog): derived bands are a valid, deterministic
treatment spec; building under them changes the storage plan only
(results bit-identical to the default-band build)."""

import glob
import os

import numpy as np
import pytest

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.build.treatopt import (
    _coalesce,
    optimal_bands_for_segment,
    optimal_bands_from_df,
    suggest_block_size,
)
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.sources.corpus import corpus_from_documents

SF = "/root/testdata/sf0.001"


def test_suggest_block_size_model():
    # 4·sqrt(df) clipped to [64, 512], power of two
    assert suggest_block_size(0) == 64
    assert suggest_block_size(10) == 64          # clipped low
    assert suggest_block_size(1024) == 128       # 4*32 = 128
    assert suggest_block_size(16384) == 512      # 4*128 = 512
    assert suggest_block_size(10**9) == 512      # clipped high
    for df in (1, 100, 5000, 10**6):
        bs = suggest_block_size(df)
        assert 64 <= bs <= 512 and bs & (bs - 1) == 0


def test_coalesce_merges_and_catch_all():
    rows = [
        (60, 10, 64, "varint"),
        (40, 100, 64, "varint"),   # same treatment → merged boundary
        (20, 1000, 128, "varint"),
        (5, 10000, 512, "ef"),     # last → catch-all
    ]
    bands = _coalesce(rows)
    assert bands == ((100, 64, "varint"), (1000, 128, "varint"), (None, 512, "ef"))
    # duplicated boundary (floor rounding at tiny N) keeps the later band
    rows = [(60, 1, 64, "varint"), (55, 1, 64, "varint"), (5, 100, 128, "ef")]
    assert _coalesce(rows) == ((1, 64, "varint"), (None, 128, "ef"))
    # ascending df_ub invariant
    ubs = [b[0] for b in bands[:-1]]
    assert ubs == sorted(ubs)


def test_from_df_deterministic_and_shapes():
    df = np.unique((1e6 / np.arange(1, 20000) ** 1.1).astype(np.int64))
    df = df[df > 0]
    a = optimal_bands_from_df(df, 1_000_000)
    b = optimal_bands_from_df(df, 1_000_000)
    assert a == b  # seeded synthesis: same df table → same bands
    assert a[-1][0] is None  # catch-all present
    for ub, bs, cd in a[:-1]:
        assert isinstance(ub, int) and 64 <= bs <= 512 and cd in ("varint", "ef")
    # denser bands never get a SMALLER suggested block than sparser ones
    sizes = [b[1] for b in a]
    assert sizes == sorted(sizes)


@pytest.fixture(scope="module")
def default_seg(tmp_path_factory, ray_session):
    out = str(tmp_path_factory.mktemp("treatopt") / "seg")
    build_index(
        corpus_from_documents(SF), out, EngineConfig(max_gram=2, num_buckets=4)
    )
    return out


def test_segment_bands_results_identical(default_seg, tmp_path, ray_session):
    """Build under segment-derived bands: every search result identical
    to the default build; payload bytes don't regress materially."""
    bands = optimal_bands_for_segment(default_seg)
    assert bands[-1][0] is None
    auto = str(tmp_path / "auto")
    build_index(
        corpus_from_documents(SF),
        auto,
        EngineConfig(max_gram=2, num_buckets=4, treatment_bands=bands),
    )
    a, b = SearchEngine(default_seg, load_urls=False), SearchEngine(auto, load_urls=False)
    for q in ["table join", "spark", "merge | window", '"batch batch"', "-table"]:
        ta, tb = a.search(q, k=20), b.search(q, k=20)
        assert ta.equals(tb), q
    size = lambda d: sum(  # noqa: E731
        os.path.getsize(f) for f in glob.glob(os.path.join(d, "dict-*.parquet"))
    )
    # the cost model optimizes payload bytes; allow slack for parquet
    # container overhead but catch a pathological plan
    assert size(auto) <= size(default_seg) * 1.05


def test_segment_bands_deterministic(default_seg, ray_session):
    assert optimal_bands_for_segment(default_seg) == optimal_bands_for_segment(
        default_seg
    )
