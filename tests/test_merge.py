"""Segment merge/compaction (bitfunnel_ray/build/merge.py): a merged
segment must be bit-for-bit what a from-scratch build over the union
corpus produces; tombstone compaction must equal building without the
dead docs."""

import glob
import os

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.build.merge import decode_bucket_table, merge_segments
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.sources.corpus import _lift_documents_batch, corpus_from_documents

SF = "/root/testdata/sf0.001"
CFG = EngineConfig(max_gram=2, num_buckets=4)


@pytest.fixture(scope="module")
def halves(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("merge")
    docs = pq.read_table(f"{SF}/documents.parquet")
    s1, s2 = str(root / "s1"), str(root / "s2")
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))), s1, CFG)
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(250))), s2, CFG)
    full = str(root / "full")
    build_index(corpus_from_documents(SF), full, CFG)
    return s1, s2, full, str(root)


def _dict_tables(seg):
    return {
        os.path.basename(f): pq.read_table(f)
        for f in sorted(glob.glob(os.path.join(seg, "dict-*.parquet")))
    }


def test_merge_equals_fresh_build(halves):
    s1, s2, full, root = halves
    out = str(os.path.join(root, "merged"))
    man = merge_segments([s1, s2], out)
    assert man["n_docs"] == 500
    a, b = _dict_tables(out), _dict_tables(full)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].equals(b[name]), name  # bit-for-bit per bucket


def test_decode_roundtrip(halves):
    s1, *_ = halves
    f = sorted(glob.glob(os.path.join(s1, "dict-*.parquet")))[0]
    t = pq.read_table(f)
    h, g, s, doc, tf, dl = decode_bucket_table(t)
    assert len(doc) == int(np.sum(t["n_postings"].to_numpy()))
    # doc ids ascend within each chunk
    n_post = t["n_postings"].to_numpy()
    starts = np.concatenate([[0], np.cumsum(n_post)[:-1]])
    for i, (st, ln) in enumerate(zip(starts[:20], n_post[:20])):
        chunk = doc[st : st + ln]
        assert (np.diff(chunk.astype(np.int64)) > 0).all()


def test_merge_compaction_tombstones(halves, tmp_path):
    s1, s2, full, root = halves
    dead = np.arange(0, 500, 7, dtype=np.uint64)  # every 7th doc
    out = str(tmp_path / "compacted")
    man = merge_segments([s1, s2], out, tombstones=dead)
    assert man["n_tombstones_compacted"] == len(dead)
    assert man["n_docs"] == 500 - len(dead)
    # equals a fresh build over the corpus minus the dead docs
    docs = pq.read_table(f"{SF}/documents.parquet")
    keep = ~np.isin(np.arange(500), dead.astype(np.int64))
    ref = str(tmp_path / "ref")
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.filter(keep))), ref, CFG
    )
    a, b = _dict_tables(out), _dict_tables(ref)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].equals(b[name]), name
    # docmeta rows gone too
    meta = pq.read_table(os.path.join(out, "docmeta"))
    assert len(meta) == 500 - len(dead)
    assert not np.isin(meta["doc_id"].to_numpy().astype(np.uint64), dead).any()


def test_merged_segment_serves(halves, tmp_path):
    s1, s2, full, root = halves
    out = os.path.join(root, "merged")
    if not os.path.exists(os.path.join(out, "manifest.json")):
        merge_segments([s1, s2], out)
    a = SearchEngine(out, load_urls=False)
    b = SearchEngine(full, load_urls=False)
    for q in ["table join", "merge | window", "table -join", '"batch batch"', "-table"]:
        ra, rb = a.search(q, k=10).to_pandas(), b.search(q, k=10).to_pandas()
        assert ra["doc_id"].tolist() == rb["doc_id"].tolist(), q
        assert np.allclose(ra["score"], rb["score"]), q


def test_merge_resume_after_partial(halves, tmp_path):
    """A merge killed mid-way (some buckets written, no manifest) must
    resume to a byte-identical result, re-doing only missing buckets."""
    s1, s2, full, root = halves
    out = str(tmp_path / "resume")
    man = merge_segments([s1, s2], out)
    # simulate the kill: drop the manifest and two bucket files
    os.remove(os.path.join(out, "manifest.json"))
    victims = sorted(glob.glob(os.path.join(out, "dict-*.parquet")))[:2]
    for v in victims:
        os.remove(v)
    man2 = merge_segments([s1, s2], out)
    assert man2["n_docs"] == man["n_docs"]
    ref = _dict_tables(os.path.join(root, "merged"))
    got = _dict_tables(out)
    assert got.keys() == ref.keys()
    for name in got:
        assert got[name].equals(ref[name]), name



def test_merge_failed_bucket_publishes_nothing(halves, tmp_path):
    """A bucket task that fails (a planted corrupt source bucket file)
    fails the merge and publishes no manifest.  Rerun after the repair,
    the merge equals a fresh build of the union corpus."""
    import shutil

    s1, s2, full, root = halves
    c1 = str(tmp_path / "s1")
    shutil.copytree(s1, c1)
    victim = sorted(glob.glob(os.path.join(c1, "dict-*.parquet")))[1]
    with open(victim, "wb") as f:
        f.write(b"not a parquet file")
    out = str(tmp_path / "merged")
    with pytest.raises(Exception):
        merge_segments([c1, s2], out)
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    shutil.copy(os.path.join(s1, os.path.basename(victim)), victim)
    man = merge_segments([c1, s2], out)
    assert man["n_docs"] == 500
    a, b = _dict_tables(out), _dict_tables(full)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].equals(b[name]), name


def test_next_compaction_tiered(tmp_path):
    """The policy merges size PEERS first and never drags the giant
    segment into a small-tier merge unless forced by max_segments."""
    from bitfunnel_ray.build import segment as seglib
    from bitfunnel_ray.build.merge import next_compaction

    def seg(name, n_docs):
        d = str(tmp_path / name)
        import os as _os

        _os.makedirs(d, exist_ok=True)
        seglib.write_manifest(d, {"complete": True, "n_docs": n_docs})
        return d

    small = [seg(f"s{i}", 10 + i) for i in range(3)]
    giant = seg("giant", 10000)
    group = next_compaction(small + [giant], max_segments=2, tier_factor=4.0)
    assert sorted(group) == sorted(small)  # giant stays out
    # under the cap: nothing to do
    assert next_compaction(small[:2], max_segments=2) is None
    # forced pairing when only two remain over the cap
    g2 = next_compaction([small[0], giant], max_segments=1)
    assert sorted(g2) == sorted([small[0], giant])


def test_compact_segments_query_identical(tmp_path, ray_session):
    """Wave segments compacted down to 2 return bit-identical search
    results; waves.json is refreshed to the live segment list."""
    import json as _json

    import pyarrow.parquet as _pq

    from bitfunnel_ray.build.builder import build_index_waves
    from bitfunnel_ray.build.merge import compact_segments
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.query.engine import SearchEngine

    docs = _pq.read_table("/root/testdata/sf0.001/documents.parquet")
    files = []
    for i in range(4):
        p = str(tmp_path / f"docs-{i}.parquet")
        _pq.write_table(docs.slice(i * 125, 125), p)
        files.append(p)
    root = str(tmp_path / "cwaves")
    res = build_index_waves(files, root, EngineConfig(max_gram=2, num_buckets=5), n_waves=4)
    assert len(res["segment_dirs"]) == 4
    queries = ["table join", "merge | window", "-table", '"batch batch"']
    before = {q: SearchEngine(res["segment_dirs"]).search(q, k=10) for q in queries}

    out = compact_segments(root, res["segment_dirs"], max_segments=2)
    assert len(out["segment_dirs"]) == 2
    assert out["merges"] and all(len(m["inputs"]) >= 2 for m in out["merges"])
    eng = SearchEngine(out["segment_dirs"])
    for q in queries:
        a, b = before[q], eng.search(q, k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
        assert a["score"].to_pylist() == b["score"].to_pylist(), q
    live = _json.load(open(f"{root}/waves.json"))["segment_dirs"]
    assert sorted(live) == sorted(out["segment_dirs"])


def test_engine_accepts_build_root(tmp_path, ray_session):
    """SearchEngine / resolve_segment_dirs accept a waves.json build root
    and a bare directory of seg-*/ segments."""
    import os as _os

    import pyarrow.parquet as _pq

    from bitfunnel_ray.build.builder import build_index_waves
    from bitfunnel_ray.build.segment import resolve_segment_dirs
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.query.engine import SearchEngine

    docs = _pq.read_table("/root/testdata/sf0.001/documents.parquet")
    files = []
    for i in range(2):
        p = str(tmp_path / f"d{i}.parquet")
        _pq.write_table(docs.slice(i * 250, 250), p)
        files.append(p)
    root = str(tmp_path / "root")
    res = build_index_waves(files, root, EngineConfig(max_gram=2, num_buckets=4), n_waves=2)
    assert sorted(resolve_segment_dirs(root)) == sorted(res["segment_dirs"])
    a = SearchEngine(root, load_urls=False).search("table join", k=5)
    b = SearchEngine(res["segment_dirs"], load_urls=False).search("table join", k=5)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    # bare seg-*/ directory (waves.json removed)
    _os.remove(f"{root}/waves.json")
    assert sorted(resolve_segment_dirs(root)) == sorted(res["segment_dirs"])
    # a non-index dir fails loudly
    import pytest as _pytest

    with _pytest.raises(FileNotFoundError):
        resolve_segment_dirs(str(tmp_path))


def test_compaction_applies_tombstones_every_round(tmp_path, ray_session):
    """A doc tombstoned in a segment that only joins a LATER compaction
    round must stay dead (an earlier version nulled the tombstones after
    round 1, resurrecting such docs)."""
    from bitfunnel_ray.build.merge import compact_segments
    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.sources.corpus import _lift_documents_batch

    docs = pq.read_table(f"{SF}/documents.parquet")
    root = str(tmp_path / "root")
    os.makedirs(root, exist_ok=True)
    segs = []
    # uneven sizes force TWO rounds: the small peers merge first, the big
    # segment only joins the second round's merge group
    for i, (lo, n) in enumerate([(0, 50), (50, 50), (100, 400)]):
        d = str(tmp_path / f"in-{i}")
        build_index(
            rd.from_arrow(_lift_documents_batch(docs.slice(lo, n))), d, CFG
        )
        segs.append(d)
    dead = np.arange(0, 500, 10, dtype=np.uint64)  # spans every segment
    res = compact_segments(
        root, segs, max_segments=1, tier_factor=2.0, tombstones=dead
    )
    assert len(res["merges"]) >= 2  # multiple rounds actually happened
    eng = SearchEngine(res["segment_dirs"], load_urls=False)  # NO tombstones
    alive = set(eng.all_docs.astype(np.int64).tolist())
    resurrected = alive & set(dead.astype(np.int64).tolist())
    assert not resurrected, sorted(resurrected)[:10]
    assert len(alive) == 500 - len(dead)
