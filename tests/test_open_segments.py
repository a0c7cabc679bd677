"""Every serving front opens a segment set the same way: a set whose
docmeta doc_id dtypes differ (int64 from a user-built corpus, uint64 once
lifted) opens in the local engine, in a refresh()-grown engine, in the
term-sharded front and in the doc-sharded front with one or two shards,
and all of them return the same top-k."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.query.docsharded import DocShardedServer
from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.query.sharded import ShardedServer
from bitfunnel_ray.sources.corpus import _lift_documents_batch

QUERIES = ["spark join", "table", "merge | window", "table -join", "-table"]


@pytest.fixture(scope="module")
def mixed(tmp_path_factory, ray_session):
    """A build root whose first segment keeps an int64 doc_id and whose
    second is uint64, plus an engine opened before the second existed."""
    docs = _lift_documents_batch(pq.read_table("/root/testdata/sf0.001/documents.parquet"))
    i = docs.column_names.index("doc_id")
    first = docs.slice(0, 250)
    first = first.set_column(i, "doc_id", first["doc_id"].cast(pa.int64()))
    root = tmp_path_factory.mktemp("mixed_dtype")
    cfg = EngineConfig(max_gram=2, num_buckets=4)
    build_index(rd.from_arrow(first), str(root / "seg-0000"), cfg)
    grown = SearchEngine(str(root))
    build_index(rd.from_arrow(docs.slice(250)), str(root / "seg-0001"), cfg)
    assert grown.refresh() == 1
    for seg, dtype in (("seg-0000", pa.int64()), ("seg-0001", pa.uint64())):
        assert pq.read_table(str(root / seg / "docmeta"), columns=["doc_id"])["doc_id"].type == dtype
    return str(root), grown


def _topk(search):
    return {q: (t["doc_id"].to_pylist(), t["score"].to_pylist()) for q in QUERIES for t in [search(q)]}


def test_every_front_opens_mixed_docmeta_dtypes(mixed):
    root, grown = mixed
    local = SearchEngine(root)
    want = _topk(lambda q: local.search(q, k=10))
    assert local.n_docs == 500 and local.all_docs.dtype == np.uint64
    assert sum(len(ids) for ids, _ in want.values()) > 0
    assert local.search("table", k=1)["url"][0].as_py().startswith("https://example.org/doc/")
    assert _topk(lambda q: grown.search(q, k=10)) == want
    with pytest.raises(FileNotFoundError, match="no index segment"):
        SearchEngine([])
    assert np.array_equal(grown.all_docs, local.all_docs)
    assert grown.urls.tolist() == local.urls.tolist()
    for n_shards in (1, 2):
        srv = DocShardedServer(root, n_shards=n_shards, num_cpus_per_shard=0.25)
        try:
            assert _topk(lambda q: srv.search(q, k=10)) == want, n_shards
        finally:
            srv.shutdown()
    srv = ShardedServer(root, n_shards=2, num_cpus_per_shard=0.25)
    try:
        eng = srv.engine()
        for q, (ids, scores) in _topk(lambda q: eng.search(q, k=10)).items():
            assert ids == want[q][0], q
            assert np.allclose(scores, want[q][1]), q
    finally:
        srv.shutdown()
