"""The build's two corpus passes over parquet pieces
(build/builder._file_plan, ``_corpus_map``): a plain ``read_parquet``
corpus and the same rows as a transformed Dataset build the same index,
the piece plan is deterministic and bounded by the spill batch and by
half the corpus (a small corpus builds the same index from two pieces
as from one), and a lost spill shard fails the build on either path."""

import glob
import os
import re

import pyarrow.parquet as pq
import pytest
import ray.data as rd

from bitfunnel_ray.build import builder, segment
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.sources.corpus import write_synth_corpus

BATCH = 128  # spill batch for these tests, so 600 docs make several pieces
CFG = EngineConfig(max_gram=1, num_buckets=4, head_df_threshold=200,
                   extra={"vocab_sidecar": True, "head_sample_rate": 0.25})


@pytest.fixture(scope="module")
def files(ray_session, tmp_path_factory):
    """600 Zipf docs: one 300-row file in row groups of 200 and 100, a
    zero-row file, and five files of 60 rows."""
    root = tmp_path_factory.mktemp("pieces")
    docs = pq.read_table(write_synth_corpus(str(root / "one"), 600, kind="zipf")).sort_by("doc_id")
    out = root / "files"
    out.mkdir()
    pq.write_table(docs.slice(0, 300), str(out / "a-big.parquet"), row_group_size=200)
    pq.write_table(docs.slice(0, 0), str(out / "b-empty.parquet"))
    for i in range(5):
        pq.write_table(docs.slice(300 + 60 * i, 60), str(out / f"c-{i}.parquet"))
    return sorted(str(p) for p in out.iterdir())


@pytest.fixture
def small_batch(monkeypatch):
    monkeypatch.setattr(builder, "_spill_batch_docs", lambda num_buckets: BATCH)


def _plain(files):
    return rd.read_parquet(files)


def _transformed(files):
    return rd.read_parquet(files).map_batches(lambda t: t, batch_format="pyarrow")


def test_piece_plan(files):
    fs, pieces = builder._file_plan(files, BATCH)
    assert builder._file_plan(files[::-1], BATCH)[1] == pieces
    assert builder._parquet_plan(_plain(files), BATCH)[1] == pieces
    assert builder._parquet_plan(_transformed(files), BATCH) is None
    assert [[(os.path.basename(p), lo, hi) for p, lo, hi in piece] for piece in pieces] == [
        [("a-big.parquet", 0, 128)],  # the 200-row group is cut at the batch
        [("a-big.parquet", 128, 200)],
        [("a-big.parquet", 200, 300)],
        [("c-0.parquet", 0, 60), ("c-1.parquet", 0, 60)],
        [("c-2.parquet", 0, 60), ("c-3.parquet", 0, 60)],
        [("c-4.parquet", 0, 60)],
    ]
    got = [builder._read_piece(piece, ["doc_id"], fs)["doc_id"].to_pylist() for piece in pieces]
    assert all(len(ids) <= BATCH for ids in got)
    assert [i for ids in got for i in ids] == list(range(600))


def _files_of(seg):
    names = ["heads.parquet"] + sorted(os.path.basename(p) for p in glob.glob(os.path.join(seg, "dict-*")))
    names += sorted("vocab/" + f for f in os.listdir(os.path.join(seg, "vocab")))
    return {n: open(os.path.join(seg, n), "rb").read() for n in names}


def test_plain_and_transformed_corpus_build_the_same_index(files, tmp_path, small_batch):
    segs = {}
    for kind, make in (("plain", _plain), ("transformed", _transformed)):
        segs[kind] = str(tmp_path / kind)
        m = builder.build_index(make(files), segs[kind], CFG)
        assert m["complete"] and m["n_docs"] == 600 and m["n_head_terms"] > 0
    a, b = (_files_of(segs[k]) for k in ("plain", "transformed"))
    assert len(a) > 4 and a.keys() == b.keys()
    assert [n for n in a if a[n] != b[n]] == []
    meta = [pq.read_table(os.path.join(s, "docmeta")).sort_by("doc_id") for s in segs.values()]
    assert meta[0].equals(meta[1])


@pytest.mark.parametrize("make", [_plain, _transformed], ids=["plain", "transformed"])
def test_lost_spill_shard_fails_the_build(files, tmp_path, small_batch, make):
    cfg = EngineConfig(max_gram=1, num_buckets=4, head_df_threshold=10**6,
                       extra={"spill_root": str(tmp_path / "spill")})
    out = str(tmp_path / "seg")
    part = builder.build_index(make(files), out, cfg, _defer_encode=True)
    shards = sorted(glob.glob(str(tmp_path / "spill" / ".bfr-spill-*" / "bucket=*" / "part-*.arrow")))
    lost = shards[len(shards) // 2]
    bucket = int(re.search(r"bucket=(\d+)", lost).group(1))
    assert sum(f"bucket={bucket:05d}" in s for s in shards) > 1
    os.remove(lost)
    with pytest.raises(RuntimeError, match=rf"bucket {bucket}: .* shards lost"):
        part["finish"]()
    assert segment.load_manifest(out) is None


@pytest.mark.parametrize("make", [_plain, _transformed], ids=["plain", "transformed"])
def test_zero_row_corpus_is_refused(files, tmp_path, make):
    """A corpus without rows is refused with a ValueError on either path:
    no staging dir (docmeta or spill) is left and no manifest is
    published."""
    spill = tmp_path / "spill"
    cfg = EngineConfig(max_gram=1, num_buckets=4, extra={"spill_root": str(spill)})
    out = tmp_path / "seg"
    with pytest.raises(ValueError, match="no rows"):
        builder.build_index(make([f for f in files if "empty" in f]), str(out), cfg)
    assert segment.load_manifest(str(out)) is None
    assert not os.path.exists(out / "docmeta.tmp") and not os.path.exists(out / "docmeta")
    assert list(spill.iterdir()) == []


def test_small_corpus_spills_in_two_pieces(files, tmp_path, monkeypatch):
    """A plain corpus below two spill batches is planned as pieces of at
    most ⌈n/2⌉ rows, so its spill runs as ≥ 2 tasks.  The index is the
    one the uncapped single-piece plan builds: byte-identical dict,
    vocab and heads files, equal docmeta rows."""
    monkeypatch.setattr(builder, "_spill_batch_docs", lambda num_buckets: 1024)
    segs, n_pieces = {}, {}
    for kind, min_pieces in (("capped", builder.MIN_PIECES), ("uncapped", 1)):
        monkeypatch.setattr(builder, "MIN_PIECES", min_pieces)
        pieces = builder._file_plan(files, 1024)[1]
        assert max(sum(hi - lo for _p, lo, hi in piece) for piece in pieces) <= 600 // min_pieces
        segs[kind] = str(tmp_path / kind)
        m = builder.build_index(_plain(files), segs[kind], CFG)
        assert m["complete"] and m["n_docs"] == 600 and m["n_head_terms"] > 0
        n_pieces[kind] = len(glob.glob(os.path.join(segs[kind], "docmeta", "*.parquet")))
        assert n_pieces[kind] == len(pieces)
    assert n_pieces == {"capped": 2, "uncapped": 1}
    a, b = (_files_of(segs[k]) for k in ("capped", "uncapped"))
    assert len(a) > 4 and a.keys() == b.keys()
    assert [n for n in a if a[n] != b[n]] == []
    meta = [pq.read_table(os.path.join(s, "docmeta")).sort_by("doc_id") for s in segs.values()]
    assert meta[0].equals(meta[1])
