"""Index fsck: healthy indexes pass; planted corruption is detected."""

import json
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.build.fsck import fsck_index
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.sources.corpus import corpus_from_documents


@pytest.fixture(scope="module")
def seg(tmp_path_factory, ray_session):
    out = str(tmp_path_factory.mktemp("fsck") / "seg")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"),
        out,
        EngineConfig(max_gram=2, num_buckets=6),
    )
    return out


def test_healthy_index_passes(seg):
    t = fsck_index(seg)
    assert t.num_rows == 7  # 6 buckets + 1 docmeta row
    assert all(t["ok"].to_pylist())
    assert sum(t["n_terms"].to_pylist()) > 0


def test_detects_corrupted_block_max(seg, tmp_path):
    """Understating one block's max_tfn breaks the WAND exactness
    contract — fsck must flag exactly that bucket."""
    bad = str(tmp_path / "bad")
    shutil.copytree(seg, bad)
    p = f"{bad}/dict-00000.parquet"
    t = pq.read_table(p)
    mt = t["max_tfn"].to_pylist()
    # understate the first nonempty chunk's first block
    for i, lst in enumerate(mt):
        if lst:
            mt[i] = [lst[0] * 0.5] + lst[1:]
            break
    t = t.set_column(
        t.schema.get_field_index("max_tfn"), "max_tfn", pa.array(mt, pa.list_(pa.float64()))
    )
    pq.write_table(t, p)
    res = fsck_index(bad).to_pandas()
    row = res[res["bucket"] == 0].iloc[0]
    assert not row["ok"] and row["block_meta_errors"] == 1
    assert res[res["bucket"] != 0]["ok"].all()


def test_detects_truncated_payload_and_bad_cf(seg, tmp_path):
    bad = str(tmp_path / "bad2")
    shutil.copytree(seg, bad)
    p = f"{bad}/dict-00001.parquet"
    t = pq.read_table(p)
    docs = t["docs_payload"].to_pylist()
    docs[0] = docs[0][: max(0, len(docs[0]) - 1)]  # truncate → decode error
    cf = t["cf"].to_pylist()
    cf[1] = cf[1] + 7  # cf mismatch
    t = t.set_column(t.schema.get_field_index("docs_payload"), "docs_payload",
                     pa.array(docs, pa.large_binary()))
    t = t.set_column(t.schema.get_field_index("cf"), "cf", pa.array(cf, pa.int64()))
    pq.write_table(t, p)
    res = fsck_index(bad).to_pandas()
    row = res[res["bucket"] == 1].iloc[0]
    assert not row["ok"]
    assert row["decode_errors"] >= 1 and row["cf_mismatches"] >= 1


def test_detects_docmeta_manifest_drift(seg, tmp_path):
    bad = str(tmp_path / "bad3")
    shutil.copytree(seg, bad)
    m = json.load(open(f"{bad}/manifest.json"))
    m["n_docs"] += 1
    json.dump(m, open(f"{bad}/manifest.json", "w"))
    res = fsck_index(bad).to_pandas()
    row = res[res["bucket"] == -1].iloc[0]
    assert not row["ok"]


def test_fsck_docstore_checks(tmp_path, ray_session):
    """fsck audits the stored-fields sidecar when present: a lost
    docstore part (row-count drift vs docmeta) fails the segment."""
    import glob as _glob
    import os as _os

    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.build.fsck import fsck_index
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    out = str(tmp_path / "seg")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"),
        out,
        EngineConfig(max_gram=1, num_buckets=2, store_fields=("text",)),
    )
    rep = fsck_index(out).to_pandas()
    assert rep["ok"].all()
    victim = sorted(_glob.glob(_os.path.join(out, "docstore", "*.parquet")))[0]
    _os.unlink(victim)
    rep2 = fsck_index(out).to_pandas()
    doc_row = rep2[rep2["bucket"] == -1].iloc[0]
    assert not doc_row["ok"] and doc_row["docstore_errors"] >= 1


def test_fsck_tolerates_empty_buckets(tmp_path, ray_session):
    """A healthy index with EMPTY buckets (tiny vocabulary, many buckets)
    must pass: an earlier version derived the routing modulus from the
    completed-bucket count and flagged every term as misrouted."""
    import pyarrow as pa
    import ray.data as rd

    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.build.fsck import fsck_index
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.sources.corpus import _lift_documents_batch

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(50)), pa.int64()),
            "text": pa.array(["a b" if i % 2 else "a c" for i in range(50)]),
            "lang": pa.array(["en"] * 50),
        }
    )
    out = str(tmp_path / "seg")
    build_index(
        rd.from_arrow(_lift_documents_batch(docs)), out,
        EngineConfig(max_gram=1, num_buckets=16),
    )
    import glob as _glob

    n_dicts = len(_glob.glob(f"{out}/dict-*.parquet"))
    rep = fsck_index(out).to_pandas()
    assert rep["ok"].all(), rep[~rep["ok"]]
    assert n_dicts < 16 or rep["misrouted_terms"].sum() == 0


def test_fsck_vocab_sidecar_checks(tmp_path, ray_session):
    """Vocab sidecar audited when present: healthy passes; a corrupted
    bucket column (mis-sharded serving stripes) is flagged on the
    segment summary row."""
    import glob
    import os

    out = str(tmp_path / "seg_vocab")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"),
        out,
        EngineConfig(max_gram=2, num_buckets=6, extra={"vocab_sidecar": True}),
    )
    t = fsck_index(out)
    assert all(t["ok"].to_pylist())
    # plant corruption: shift every bucket value by one (wrong stripe)
    part = sorted(glob.glob(os.path.join(out, "vocab", "*.parquet")))[0]
    vt = pq.read_table(part)
    bad = (vt["bucket"].to_numpy(zero_copy_only=False) + 1) % 6
    vt = vt.set_column(
        vt.column_names.index("bucket"), "bucket", pa.array(bad, pa.int32())
    )
    pq.write_table(vt, part)
    t2 = fsck_index(out)
    summary = t2.filter(pa.compute.equal(t2["bucket"], -1))
    assert not summary["ok"].to_pylist()[0]
    assert summary["vocab_errors"].to_pylist()[0] >= 1
    # a LOST sidecar is also flagged: the manifest records
    # vocab_sidecar=True, so absence is corruption, not "not built"
    shutil.rmtree(os.path.join(out, "vocab"))
    t3 = fsck_index(out)
    summary3 = t3.filter(pa.compute.equal(t3["bucket"], -1))
    assert not summary3["ok"].to_pylist()[0]


def test_fsck_flags_lost_vocab_stripe(tmp_path, ray_session, sf_tiny):
    """Deleting one stripe file of the vocab sidecar (its dict bucket is
    still there) leaves the serving vocabulary silently incomplete; fsck
    reports it in ``vocab_errors`` on the segment row, and only there."""
    import os

    out = str(tmp_path / "seg_vocab")
    build_index(
        corpus_from_documents(sf_tiny),
        out,
        EngineConfig(max_gram=1, num_buckets=4, extra={"vocab_sidecar": True}),
    )
    assert all(fsck_index(out)["ok"].to_pylist())
    import glob

    os.remove(sorted(glob.glob(os.path.join(out, "vocab", "*.parquet")))[0])
    t = fsck_index(out).to_pandas()
    summary = t[t["bucket"] == -1].iloc[0]
    assert not summary["ok"]
    assert summary["vocab_errors"] >= 1
    assert summary[["docstore_errors", "docid_errors", "cf_mismatches"]].sum() == 0
    assert t[t["bucket"] >= 0]["ok"].all()


def test_fsck_flags_foreign_rows_in_stripe(tmp_path, ray_session, sf_tiny):
    """A stripe file holding another bucket's rows (each row's own bucket
    value still consistent with its hash) is flagged."""
    import os

    out = str(tmp_path / "seg_vocab")
    build_index(
        corpus_from_documents(sf_tiny),
        out,
        EngineConfig(max_gram=1, num_buckets=4, extra={"vocab_sidecar": True}),
    )
    p0, p1 = (os.path.join(out, "vocab", f"part-{b:05d}.parquet") for b in (0, 1))
    pq.write_table(pa.concat_tables([pq.read_table(p0), pq.read_table(p1)]), p0)
    os.remove(p1)
    os.remove(os.path.join(out, "dict-00001.parquet"))  # only the stray rows are wrong
    t = fsck_index(out).to_pandas()
    summary = t[t["bucket"] == -1].iloc[0]
    assert not summary["ok"] and summary["vocab_errors"] >= 1
