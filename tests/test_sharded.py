"""Term-sharded serving (bitfunnel_ray/query/sharded.py): shard actors
each open ONLY their bucket subset + docmeta slice; the scatter-gather
front must be result-identical to the single-process SearchEngine on
every query shape, including complement (NOT) queries, which anti-join
against per-shard doc ranges instead of a global doc-id array."""

import numpy as np
import pyarrow as pa
import pytest

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.query.parser import parse_query
from bitfunnel_ray.query.sharded import ShardedServer

SF = "/root/testdata/sf0.001"

QUERIES = [
    "spark join",
    "merge | window",
    "table -join",
    '"batch batch"',
    "(spark | vector) batch -window",
    "-table",
    "-table -join",
    "table | -join",
    "zzz_nonexistent_term",
    "(spark join merge)~2",
]


@pytest.fixture(scope="module")
def built(tmp_path_factory, ray_session):
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    out = str(tmp_path_factory.mktemp("sharded") / "seg")
    build_index(corpus_from_documents(SF), out, EngineConfig(max_gram=2, num_buckets=8))
    return out


@pytest.fixture(scope="module")
def server(built):
    srv = ShardedServer(built, n_shards=3, num_cpus_per_shard=0.5)
    yield srv
    srv.shutdown()


def test_each_shard_opens_subset(server):
    stats = server.shard_stats()
    total_rows = sum(s["dict_rows"] for s in stats)
    total_docs = sum(s["local_docs"] for s in stats)
    assert len(stats) == 3
    for s in stats:
        assert 0 < s["dict_rows"] < total_rows
        assert s["local_docs"] < total_docs
    # bucket assignment is a disjoint cover
    all_buckets = sorted(b for s in stats for b in s["buckets"])
    assert all_buckets == list(range(8))


def test_eval_identical_to_local(server, built):
    local = SearchEngine(built, load_urls=False)
    eng = server.engine()
    for q in QUERIES:
        a = local.eval(parse_query(q))
        b = eng.eval(parse_query(q))
        assert np.array_equal(a, b), q


def test_bm25_and_wand_identical(server, built):
    local = SearchEngine(built, load_urls=False)
    eng = server.engine()
    t1 = local.search("spark join", k=10).to_pandas()
    t2 = eng.search("spark join", k=10).to_pandas()
    assert t1["doc_id"].tolist() == t2["doc_id"].tolist()
    assert np.allclose(t1["score"], t2["score"])
    w1 = local.topk_or(["spark", "join"], k=10).to_pandas()
    w2 = eng.topk_or(["spark", "join"], k=10).to_pandas()
    assert w1["doc_id"].tolist() == w2["doc_id"].tolist()
    assert np.allclose(w1["score"], w2["score"])


def test_cursor_and_synonyms_parity(server, built):
    """search_after paging and synonym expansion ride the shared
    QueryAlgebra path — the sharded front must page and expand
    identically to the local engine."""
    local = SearchEngine(built, load_urls=False)
    eng = server.engine()
    syn = {"join": ("join", "merge")}
    p1l = local.search("spark join", k=5, synonyms=syn)
    p1s = eng.search("spark join", k=5, synonyms=syn)
    assert p1l["doc_id"].to_pylist() == p1s["doc_id"].to_pylist()
    cur = (p1l["score"][-1].as_py(), p1l["doc_id"][-1].as_py())
    p2l = local.search("spark join", k=5, synonyms=syn, after=cur)
    p2s = eng.search("spark join", k=5, synonyms=syn, after=cur)
    assert p2l["doc_id"].to_pylist() == p2s["doc_id"].to_pylist()
    assert np.allclose(p2l["score"].to_numpy(), p2s["score"].to_numpy())
    assert set(p2s["doc_id"].to_pylist()).isdisjoint(p1s["doc_id"].to_pylist())


def test_actor_pool_serving(server):
    qlog = pa.table(
        {
            "query_id": pa.array(range(len(QUERIES)), pa.uint32()),
            "query": QUERIES,
        }
    )
    res = server.run(qlog, k=5, concurrency=2, batch_size=4).to_pandas()
    assert (res["error"] == "").all()
    assert set(res["query_id"]) == set(range(len(QUERIES)))
    # zero-match query emits its rank-0 marker row
    marker = res[res["query_id"] == QUERIES.index("zzz_nonexistent_term")]
    assert (marker["rank"] == 0).all() and (marker["n_matches"] == 0).all()


def test_sharded_multi_segment(tmp_path_factory, ray_session):
    """Sharded serving over TWO additive segments must equal the local
    multi-segment engine on every query shape."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from bitfunnel_ray.sources.corpus import _lift_documents_batch

    root = tmp_path_factory.mktemp("sharded_multi")
    docs = pq.read_table(f"{SF}/documents.parquet")
    cfg = EngineConfig(max_gram=2, num_buckets=8)
    s1, s2 = str(root / "s1"), str(root / "s2")
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))), s1, cfg)
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(250))), s2, cfg)
    # fractional CPUs: the module-scoped server's actors are still alive,
    # and whole-CPU reservations would deadlock the 4-cpu test session
    srv = ShardedServer([s1, s2], n_shards=3, num_cpus_per_shard=0.25)
    try:
        local = SearchEngine([s1, s2], load_urls=False)
        eng = srv.engine()
        for q in QUERIES:
            node = parse_query(q)
            assert np.array_equal(eng.eval(node), local.eval(node)), q
        stats = srv.shard_stats()
        assert sum(s["local_docs"] for s in stats) == 500
    finally:
        srv.shutdown()


def test_replicated_serving_identical(built, ray_session):
    """n_replicas scales QPS with identical state: every query must give
    the same answer through a 2-replica server as through the local
    engine."""
    srv = ShardedServer(built, n_shards=2, num_cpus_per_shard=0.25, n_replicas=2)
    try:
        local = SearchEngine(built, load_urls=False)
        eng = srv.engine()
        for q in QUERIES:
            node = parse_query(q)
            assert np.array_equal(eng.eval(node), local.eval(node)), q
        assert len(srv.handle_groups) == 2 and all(
            len(g) == 2 for g in srv.handle_groups
        )
    finally:
        srv.shutdown()


def test_sharded_explain_matches_local(built, ray_session):
    """explain() runs unchanged over the scatter-gather engine (postings
    by RPC) and must produce the identical breakdown."""
    srv = ShardedServer(built, n_shards=2, num_cpus_per_shard=0.25)
    try:
        local = SearchEngine(built, load_urls=False)
        remote = srv.engine()
        top = local.search("spark join", k=1)
        doc = top["doc_id"][0].as_py()
        a = local.explain("spark join", doc).to_pydict()
        b = remote.explain("spark join", doc).to_pydict()
        assert a == b
    finally:
        srv.shutdown()


def test_replica_failover_zero_errors(tmp_path):
    """Kill one shard replica mid-serving: fronts rotate to the surviving
    replica — zero query errors, identical results (multi-node posture:
    replicas are SPREAD-placed; a node loss keeps every shard reachable)."""
    import time

    import ray
    import pyarrow as pa

    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.query.sharded import ShardedServer
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    idx = str(tmp_path / "fo_idx")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"), idx,
        EngineConfig(max_gram=2, num_buckets=4),
    )
    # fractional CPUs: 4 shard actors (2 shards x 2 replicas) must leave
    # room for the 2 map_batches query actors inside the 4-cpu test session
    srv = ShardedServer(idx, n_shards=2, n_replicas=2, num_cpus_per_shard=0.25)
    try:
        q = pa.table(
            {
                "query_id": pa.array(range(4), pa.int64()),
                "query": pa.array(
                    ["table", "spark join", "NOT table", "merge | window"], pa.string()
                ),
            }
        )
        drop = ["latency_s", "parse_s", "plan_s", "match_s", "score_s"]
        before = (
            srv.run(q, k=5, concurrency=2, num_cpus_per_front=0.5).to_pandas()
            .sort_values(["query_id", "rank"]).reset_index(drop=True).drop(columns=drop)
        )
        # kill one replica of EACH shard — every front must fail over
        for g in srv.handle_groups:
            ray.kill(g[0])
        time.sleep(0.5)
        after = (
            srv.run(q, k=5, concurrency=2, num_cpus_per_front=0.5).to_pandas()
            .sort_values(["query_id", "rank"]).reset_index(drop=True).drop(columns=drop)
        )
        assert (after["error"] == "").all(), after["error"].tolist()
        assert before.equals(after)
    finally:
        srv.shutdown()


def test_range_filter_parity(server, built):
    """Doc-values range filters scatter to per-shard docmeta stripes; the
    union must equal the local engine's single-array mask exactly."""
    local = SearchEngine(built, load_urls=False)
    eng = server.engine()
    for lo, hi in [(1704067200 + 50, 1704067200 + 300), (0, 1), (0, 2**62)]:
        a = local.search("spark join", k=10, range_filter=("warc_ts_s", lo, hi))
        b = eng.search("spark join", k=10, range_filter=("warc_ts_s", lo, hi))
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (lo, hi)
        assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy())


def test_docvalues_and_aggs_parity(server, built):
    """docvalues_for / sort_by / date_histogram via per-shard stripes must
    equal the local engine exactly."""
    from bitfunnel_ray.query.aggs import date_histogram, field_stats

    local = SearchEngine(built, load_urls=False)
    eng = server.engine()
    m = local.eval(parse_query("spark"))
    assert np.array_equal(
        local.docvalues_for(m, "warc_ts_s"), eng.docvalues_for(m, "warc_ts_s")
    )
    a = local.search("spark join", k=10, sort_by=("warc_ts_s", "desc"))
    b = eng.search("spark join", k=10, sort_by=("warc_ts_s", "desc"))
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    ha = date_histogram(local, "spark", interval_s=100)
    hb = date_histogram(eng, "spark", interval_s=100)
    assert ha.equals(hb)
    sa = field_stats(local, "spark join")
    sb = field_stats(eng, "spark join")
    assert sa.equals(sb)


def test_fuzzy_parity(server, built):
    """The fuzzy operator expands FRONT-side (shared QueryAlgebra
    rewrite), so a sharded front with the vocabulary installed must be
    result-identical to the local engine, scores included."""
    import duckdb

    vocab = [
        r[0]
        for r in duckdb.sql(
            "SELECT DISTINCT unnest(string_split(text,' ')) FROM "
            f"read_parquet('{SF}/documents.parquet')"
        ).fetchall()
    ]
    local = SearchEngine(built, load_urls=False)
    local.set_fuzzy_vocabulary(vocab)
    eng = server.engine()
    eng.set_fuzzy_vocabulary(vocab)
    for q in ("rowt~2 join", "quary~1", "spark -quary~1"):
        a = local.search(q, k=20)
        b = eng.search(q, k=20)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
        assert a["score"].to_pylist() == b["score"].to_pylist(), q


def test_fronts_derive_the_same_corpus_constants(tmp_path_factory, ray_session):
    """Over a two-segment set with facts, the term-sharded front reports
    the local engine's corpus constants and query-likelihood ranking, and
    the doc-sharded server its n_docs and avgdl."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from bitfunnel_ray.query.docsharded import DocShardedServer
    from bitfunnel_ray.sources.corpus import _lift_documents_batch

    root = tmp_path_factory.mktemp("sharded_facts")
    docs = _lift_documents_batch(pq.read_table(f"{SF}/documents.parquet"))
    docs = docs.append_column("is_even", pa.array(docs["doc_id"].to_numpy() % 2 == 0))
    cfg = EngineConfig(max_gram=2, num_buckets=8, facts=(("even_doc", "is_even"),))
    s1, s2 = str(root / "s1"), str(root / "s2")
    build_index(rd.from_arrow(docs.slice(0, 200)), s1, cfg)
    build_index(rd.from_arrow(docs.slice(200)), s2, cfg)
    local = SearchEngine([s1, s2], load_urls=False)
    assert local.fact_hashes and local.stream_map["fact"] != local.stream_map["body"]
    srv = ShardedServer([s1, s2], n_shards=2, num_cpus_per_shard=0.25)
    try:
        eng = srv.engine()
        for name in ("n_docs", "avgdl", "k1", "b", "max_gram", "stream_map", "fact_hashes"):
            assert getattr(eng, name) == getattr(local, name), name
        # query likelihood reads the corpus token total from the segments
        assert eng.qld_topk(["table", "join"], k=10).equals(local.qld_topk(["table", "join"], k=10))
    finally:
        srv.shutdown()
    dsrv = DocShardedServer([s1, s2], n_shards=2, num_cpus_per_shard=0.25)
    try:
        assert (dsrv.n_docs, dsrv.avgdl) == (local.n_docs, local.avgdl)
    finally:
        dsrv.shutdown()
