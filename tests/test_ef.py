"""Elias–Fano codec (functions/ef.py) + ef treatment band."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfunnel_ray.functions import varint
from bitfunnel_ray.functions.ef import byte_length_ef, decode_ef, encode_ef


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=400)
)
@settings(max_examples=60, deadline=None)
def test_ef_roundtrip_property(vals):
    v = np.array(vals, dtype=np.uint64)
    got = decode_ef(encode_ef(v), len(v))
    assert np.array_equal(got, v)
    assert byte_length_ef(v) >= len(encode_ef(v))


def test_ef_extreme_universe():
    # one value near 2^63: l selection must not overflow or float-drift
    for first in (0, 1, (1 << 62) + 12345):
        v = np.array([first, 3, 1, 0, 7], dtype=np.uint64)
        assert np.array_equal(decode_ef(encode_ef(v), len(v)), v)
    assert len(decode_ef(encode_ef(np.empty(0, np.uint64)), 0)) == 0


def test_ef_near_optimal_on_dense_lists():
    """Dense posting lists (the head band) approach 2 + log2(u/n) bits
    per posting — well under varint's 8-bit floor."""
    rng = np.random.default_rng(5)
    ids = np.sort(rng.choice(1_000_000, 400_000, replace=False)).astype(np.uint64)
    deltas = np.diff(ids, prepend=ids[:1])
    deltas[0] = ids[0]
    n, u = len(ids), int(ids[-1]) + 1
    bits_per = 8 * len(encode_ef(deltas)) / n
    assert bits_per < 2.3 + np.log2(u / n)  # EF bound + header slack
    assert len(encode_ef(deltas)) < 0.6 * len(varint.encode(deltas))


def test_ef_band_build_identical_results(tmp_path, ray_session):
    """ef-coded head band must change bytes, never results/scores."""
    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    sf = "/root/testdata/sf0.001"
    flat_dir, ef_dir = str(tmp_path / "flat"), str(tmp_path / "ef")
    build_index(
        corpus_from_documents(sf), flat_dir, EngineConfig(max_gram=2, num_buckets=4)
    )
    cfg = EngineConfig(
        max_gram=2,
        num_buckets=4,
        treatment_bands=((64, 128), (None, 128, "ef")),
    )
    build_index(corpus_from_documents(sf), ef_dir, cfg)
    a = SearchEngine(flat_dir, load_urls=False)
    b = SearchEngine(ef_dir, load_urls=False)
    for q in ["table join", "merge | window", "table -join", '"batch batch"', "-table"]:
        ra, rb = a.search(q, k=10).to_pandas(), b.search(q, k=10).to_pandas()
        assert ra["doc_id"].tolist() == rb["doc_id"].tolist(), q
        assert np.allclose(ra["score"], rb["score"]), q
    # the head band really used the ef codec
    import glob

    import pyarrow.parquet as pq

    codecs = set()
    for f in glob.glob(f"{ef_dir}/dict-*.parquet"):
        t = pq.read_table(f)
        if "codec" in t.column_names:
            codecs.update(np.unique(t["codec"].to_numpy(zero_copy_only=False)).tolist())
    assert 2 in codecs  # CODEC_EF


def test_ef_band_merge_identity(tmp_path, ray_session, sf_tiny):
    """Merging ef-banded segments == fresh ef-banded build."""
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.build.merge import merge_segments
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.sources.corpus import _lift_documents_batch, corpus_from_documents

    sf = sf_tiny
    docs = pq.read_table(f"{sf}/documents.parquet")
    cfg = EngineConfig(
        max_gram=2,
        num_buckets=4,
        treatment_bands=((64, 128), (None, 128, "ef")),
    )
    s1, s2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))), s1, cfg)
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(250))), s2, cfg)
    full, merged = str(tmp_path / "full"), str(tmp_path / "merged")
    build_index(corpus_from_documents(sf), full, cfg)
    merge_segments([s1, s2], merged)
    for f in sorted(glob.glob(os.path.join(full, "dict-*.parquet"))):
        name = os.path.basename(f)
        assert pq.read_table(f).equals(
            pq.read_table(os.path.join(merged, name))
        ), name


@pytest.fixture(scope="module")
def varint_seg(tmp_path_factory, ray_session, sf_tiny):
    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    seg = str(tmp_path_factory.mktemp("codec") / "seg")
    build_index(
        corpus_from_documents(sf_tiny), seg,
        EngineConfig(max_gram=1, num_buckets=4),
    )
    return seg


@pytest.mark.parametrize("codec", [3, 1])
def test_unknown_codec_id_raises(tmp_path, varint_seg, codec):
    """A chunk whose codec id is not in the table fails loudly on every
    read path — search, fsck and merge — instead of decoding as varint."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from bitfunnel_ray.build.builder import assign_buckets
    from bitfunnel_ray.build.fsck import fsck_index
    from bitfunnel_ray.build.merge import merge_segments
    from bitfunnel_ray.build.segment import bucket_path
    from bitfunnel_ray.functions.hashing import murmur64a
    from bitfunnel_ray.query.engine import SearchEngine

    seg = str(tmp_path / "seg")
    shutil.copytree(varint_seg, seg)
    h = np.uint64(murmur64a("table"))
    bucket = int(assign_buckets(np.array([h]), np.zeros(1, np.uint64), 4)[0])
    path = bucket_path(seg, bucket)
    t = pq.read_table(path)
    codecs = t["codec"].to_numpy(zero_copy_only=False).copy()
    row = np.flatnonzero(t["term_hash"].to_numpy() == h)
    assert len(row) == 1 and codecs[row[0]] == 0
    codecs[row[0]] = codec
    i = t.schema.get_field_index("codec")
    pq.write_table(t.set_column(i, "codec", pa.array(codecs, pa.uint8())), path)

    match = "retired" if codec == 1 else "unknown doc-delta codec"
    with pytest.raises(ValueError, match=match):
        SearchEngine(seg, load_urls=False).search("table", k=10)
    report = fsck_index([seg]).to_pandas()
    bad = report[report["bucket"] == bucket].iloc[0]
    assert bad["decode_errors"] >= 1 and not bad["ok"]
    assert report[report["bucket"] != bucket]["ok"].all()
    with pytest.raises(Exception, match=match):
        merge_segments([seg], str(tmp_path / "merged"))


def test_unknown_band_codec_rejected_before_spill(tmp_path, ray_session, sf_tiny):
    """A treatment band naming an unknown codec fails before the corpus
    is spilled — in build_index and in merge_segments, which re-encodes
    with the sources' recorded bands."""
    import glob
    import json
    import os

    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.build.merge import merge_segments
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    corpus = corpus_from_documents(sf_tiny)
    bad = str(tmp_path / "bad")
    with pytest.raises(ValueError, match=r"unknown codec 'pfor'.*\['ef', 'varint'\]"):
        build_index(
            corpus, bad,
            EngineConfig(num_buckets=4, treatment_bands=((64, 128), (None, 128, "pfor"))),
        )
    assert not glob.glob(os.path.join(bad, "**", "*.parquet"), recursive=True)

    seg = str(tmp_path / "seg")
    build_index(corpus, seg, EngineConfig(max_gram=1, num_buckets=4))
    man_path = os.path.join(seg, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    man["config"]["treatment_bands"] = [[None, 128, "pfor"]]
    with open(man_path, "w") as f:
        json.dump(man, f)
    merged = str(tmp_path / "merged")
    with pytest.raises(ValueError, match="unknown codec 'pfor'"):
        merge_segments([seg], merged)
    assert not os.path.exists(merged)
