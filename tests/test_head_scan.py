"""The head-term scan (build/builder.scan_head_terms) and the certified
threshold primitive behind it (ops/suggest.terms_over).

The scan must return exactly the terms whose sampled df exceeds the
sampled threshold — the same set ``document_frequency_table`` over the
same sample gives — on both sampling paths, and it must do so without a
hash exchange."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from bitfunnel_ray.build.builder import build_index, scan_head_terms
from bitfunnel_ray.build.stats import document_frequency_table
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.ops.suggest import terms_over
from bitfunnel_ray.sources.corpus import corpus_from_documents, write_synth_corpus
from bitfunnel_ray.stages.filters import sample_filter


def _df_over(ds, cfg, thr) -> np.ndarray:
    d = document_frequency_table(ds, cfg, emit_text=False).to_pandas()
    return np.unique(d.loc[d["df"] > thr, "term_hash"].to_numpy().view(np.uint64))


@pytest.fixture(scope="module")
def zipf_dir(ray_session, tmp_path_factory):
    """2000 Zipf docs as 20 parquet files of 100 rows."""
    root = tmp_path_factory.mktemp("zipf")
    docs = pq.read_table(write_synth_corpus(str(root / "one"), 2000, kind="zipf"))
    out = root / "files"
    out.mkdir()
    for i in range(20):
        pq.write_table(docs.slice(100 * i, 100), str(out / f"part-{i:02d}.parquet"))
    return str(out)


@pytest.mark.parametrize(
    "source, threshold, rate",
    [("zipf", 1200, 0.05), ("sf0.001", 300, 0.25), ("sf0.01", 300, 0.25),
     ("sf0.1", 1000, 0.05)],
    ids=["zipf", "sf0.001", "sf0.01", "sf0.1"],
)
def test_row_sample_scan_equals_df_table(zipf_dir, sf_tiny, source, threshold, rate):
    if source == "zipf":
        corpus = rd.read_parquet(zipf_dir)
    else:  # the scale factors sit side by side
        corpus = corpus_from_documents(os.path.join(os.path.dirname(sf_tiny), source))
    cfg = EngineConfig(max_gram=2, head_df_threshold=threshold,
                       extra={"head_sample_rate": rate})
    want = _df_over(sample_filter(corpus, rate), cfg, int(threshold * rate))
    assert len(want) > 0
    np.testing.assert_array_equal(scan_head_terms(corpus, cfg), want)


def test_file_stride_scan_equals_df_table(zipf_dir):
    files = sorted(os.path.join(zipf_dir, f) for f in os.listdir(zipf_dir))
    assert len(files) == 20
    cfg = EngineConfig(max_gram=1, head_df_threshold=400,
                       extra={"head_sample_rate": 0.25})
    sub = files[::4]  # the scan's stride sample: 5 of 20 files
    want = _df_over(rd.read_parquet(sub), cfg, int(400 * len(sub) / len(files)))
    assert len(want) > 0
    np.testing.assert_array_equal(scan_head_terms(None, cfg, files=files), want)


def _part(rows):
    keys, counts = zip(*rows) if rows else ((), ())
    return pa.table({"k": pa.array(keys, pa.int64()), "n": pa.array(counts, pa.int64())})


def test_terms_over_pigeonhole_planted(ray_session):
    """m=4, thr=10: key 1 sums to 11 with no part above ⌈11/4⌉=3, key 2
    sums to exactly 10, key 3 lives in one part, key 4 repeats in a part
    and spreads thinly (sum 12, no part above 3 after the repeat folds)."""
    parts = [
        _part([(1, 3), (2, 3), (3, 11), (4, 2), (4, 1)]),
        _part([(1, 3), (2, 3), (4, 3)]),
        _part([(1, 3), (2, 2), (4, 3)]),
        _part([(1, 2), (2, 2), (4, 3), (5, 10)]),
    ]
    got = terms_over(parts, ["k"], "n", 10)
    assert got.to_pydict() == {"k": [1, 3, 4], "n": [11, 11, 12]}
    # the split into parts does not matter: one part, or every row apart
    rows = [r for p in parts for r in zip(p["k"].to_pylist(), p["n"].to_pylist())]
    assert terms_over([_part(rows)], ["k"], "n", 10).equals(got)
    assert terms_over([_part([r]) for r in rows], ["k"], "n", 10).equals(got)


def test_terms_over_empty(ray_session):
    assert len(terms_over([], ["k"], "n", 10)) == 0
    assert len(terms_over([_part([])], ["k"], "n", 0)) == 0


@pytest.mark.parametrize("empty", ["no_blocks", "zero_column_block"])
def test_scan_of_an_empty_sample(ray_session, empty):
    """m = 0 (no blocks at all), and m = 1 with the zero-column empty
    block a filter that keeps nothing leaves."""
    cfg = EngineConfig(max_gram=1, head_df_threshold=5)
    one = rd.from_items([{"doc_id": 1, "text": "a b"}])
    ds = one.limit(0) if empty == "no_blocks" else one.filter(expr="doc_id < 0")
    out = scan_head_terms(ds, cfg, skip_count=True)
    assert out.dtype == np.uint64 and len(out) == 0


def test_salted_build_runs_no_exchange(ray_session, sf_tiny, tmp_path, monkeypatch):
    """The build path (head scan, spill, encode, vocab sidecar) runs no
    hash exchange: with ``exchange`` made to raise, a salted build still
    completes."""
    import bitfunnel_ray.ops.exchange as ex

    def refuse(*a, **kw):
        raise AssertionError("hash exchange on the build path")

    monkeypatch.setattr(ex, "exchange", refuse)
    cfg = EngineConfig(max_gram=1, num_buckets=4, head_df_threshold=20,
                       extra={"vocab_sidecar": True})
    out = str(tmp_path / "seg")
    m = build_index(corpus_from_documents(sf_tiny), out, cfg)
    assert m["complete"]
    assert pq.read_table(os.path.join(out, "heads.parquet")).num_rows > 0


def test_parquet_build_runs_no_dataset(zipf_dir, tmp_path, monkeypatch):
    """A plain ``read_parquet`` corpus is built without a Ray Data
    execution: with the streaming executor made to raise, a salted
    vocab-sidecar build completes (head scan, spill, encode), and so does
    its resume, which reads the corpus totals back from docmeta and must
    return the fresh build's."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    def refuse(*a, **kw):
        raise AssertionError("Ray Data execution on the parquet build path")

    monkeypatch.setattr(StreamingExecutor, "execute", refuse)
    files = sorted(os.path.join(zipf_dir, f) for f in os.listdir(zipf_dir))
    cfg = EngineConfig(max_gram=1, num_buckets=4, head_df_threshold=20,
                       extra={"vocab_sidecar": True})
    out = str(tmp_path / "seg")
    fresh = build_index(rd.read_parquet(files), out, cfg)
    assert fresh["complete"] and fresh["n_docs"] == 2000
    assert pq.read_table(os.path.join(out, "heads.parquet")).num_rows > 0
    os.remove(os.path.join(out, "manifest.json"))  # every bucket and docmeta done
    resumed = build_index(rd.read_parquet(files), out, cfg)
    assert "totals" in resumed["stage_seconds"]
    for k in ("n_docs", "sum_doclen", "avgdl", "n_head_terms", "buckets_completed"):
        assert resumed[k] == fresh[k], k
