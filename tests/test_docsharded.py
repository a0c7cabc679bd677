"""Doc-sharded serving (query/docsharded.py): segment-partitioned shards
with two-phase global-stats scoring must be BIT-IDENTICAL to the
single-process engine over the union of segments — the distributed-IR
global-idf problem, solved exactly (not local-idf federation)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bitfunnel_ray.build.builder import build_index_waves
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.query.docsharded import DocShardedServer
from bitfunnel_ray.query.engine import SearchEngine

SF = "/root/testdata/sf0.001"

QUERIES = [
    "spark join",
    "table",
    "merge | window",
    "table -join",
    '"batch batch"',
    "(spark | vector) batch -window",
    "-table",
    "zzz_nonexistent_term",
]


@pytest.fixture(scope="module")
def waved(tmp_path_factory, ray_session):
    docs = pq.read_table(f"{SF}/documents.parquet")
    tmp = tmp_path_factory.mktemp("docsharded")
    files = []
    for i in range(4):
        p = str(tmp / f"d{i}.parquet")
        pq.write_table(docs.slice(i * 125, 125), p)
        files.append(p)
    root = str(tmp / "root")
    build_index_waves(files, root, EngineConfig(max_gram=2, num_buckets=4), n_waves=4)
    return root


def test_docsharded_bit_identical(waved):
    local = SearchEngine(waved, load_urls=False)
    srv = DocShardedServer(waved, n_shards=2, num_cpus_per_shard=0.25)
    try:
        for q in QUERIES:
            a = local.search(q, k=10)
            b = srv.search(q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q
            assert local.match_count(q) == srv.match_count(q), q
    finally:
        srv.shutdown()


def test_docsharded_needs_global_df(waved):
    """Sanity that the stats round MATTERS: per-shard local df differs
    from the global df for common terms (so a local-idf federation would
    score differently — the thing the two-phase protocol fixes)."""
    import ray

    srv = DocShardedServer(waved, n_shards=2, num_cpus_per_shard=0.25)
    try:
        pairs = ray.get(srv.shards[0].scoring_pairs_many.remote(["table"]))[0][0]
        per_shard = ray.get([s.term_stats.remote(pairs) for s in srv.shards])
        local_dfs = [d[0] for d in per_shard]
        assert sum(local_dfs) > max(local_dfs) > 0
    finally:
        srv.shutdown()


def test_docsharded_run_matches_search(waved):
    """The batched map_batches front (run) returns the same rows as
    per-query search() — per-batch RPC amortization changes nothing."""
    import pyarrow as pa

    srv = DocShardedServer(waved, n_shards=2, num_cpus_per_shard=0.25)
    try:
        qs = ["spark join", "table", "merge | window", '"batch batch"']
        log = pa.table(
            {
                "query_id": pa.array(range(len(qs)), pa.int64()),
                "query": pa.array(qs, pa.string()),
            }
        )
        got = (
            srv.run(log, k=5, concurrency=1, num_cpus_per_front=0.5)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        for i, q in enumerate(qs):
            want = srv.search(q, k=5).to_pandas()
            sub = got[got["query_id"] == i].reset_index(drop=True)
            assert sub["doc_id"].tolist() == want["doc_id"].tolist(), q
            assert sub["score"].tolist() == want["score"].tolist(), q
    finally:
        srv.shutdown()


def test_selective_bit_identical_and_skips(waved):
    """search_selective == search on every query shape (the safe-UB
    contract), and a skewed query actually skips shards."""
    srv = DocShardedServer(waved, n_shards=4, num_cpus_per_shard=0.25)
    try:
        for q in QUERIES:
            a = srv.search(q, k=5)
            b = srv.search_selective(q, k=5, wave=1)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q
            assert 1 <= srv.last_shards_probed <= srv.n_shards
        # k=1 on a common term: the kth threshold rises fast, so the
        # bound-ordered probe should terminate before the last wave at
        # least once across the query set
        probed = []
        for q in ["table", "spark join", "merge | window"]:
            srv.search_selective(q, k=1, wave=1)
            probed.append(srv.last_shards_probed)
        assert min(probed) < srv.n_shards, probed
    finally:
        srv.shutdown()


def test_selective_pure_negative(waved):
    """Pure-negative queries score 0 everywhere — bounds are all 0 and
    selective must still return the identical (complement) result."""
    srv = DocShardedServer(waved, n_shards=3, num_cpus_per_shard=0.25)
    try:
        a = srv.search("-table", k=7)
        b = srv.search_selective("-table", k=7, wave=2)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert srv.last_shards_probed == srv.n_shards  # nothing skippable
    finally:
        srv.shutdown()


def test_docsharded_range_query_parity(tmp_path_factory, ray_session):
    """col:[lo TO hi] range queries work through doc-sharded serving
    untouched: each shard's local engine masks ITS docmeta stripe and the
    global-stats merge is unchanged (Range scores zero everywhere).
    Builds its own waves from LIFTED corpus slices (the plain-files
    fixture has no warc_ts column, hence no doc-values fast field)."""
    from bitfunnel_ray.sources.corpus import _lift_documents_batch

    docs = pq.read_table(f"{SF}/documents.parquet")
    tmp = tmp_path_factory.mktemp("ds_range")
    files = []
    for i in range(2):
        p = str(tmp / f"d{i}.parquet")
        pq.write_table(_lift_documents_batch(docs.slice(i * 250, 250)), p)
        files.append(p)
    waved = str(tmp / "root")
    build_index_waves(files, waved, EngineConfig(max_gram=2, num_buckets=4), n_waves=2)
    local = SearchEngine(waved, load_urls=False)
    srv = DocShardedServer(waved, n_shards=2, num_cpus_per_shard=0.25)
    try:
        q = "spark join warc_ts_s:[1704067250 TO 1704067450]"
        a, b = local.search(q, k=10), srv.search(q, k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()
        assert len(a) > 0
        assert srv.match_count(q) == local.match_count(q)
    finally:
        srv.shutdown() if hasattr(srv, "shutdown") else None


@pytest.fixture(scope="module")
def lifted_pair(tmp_path_factory, ray_session):
    """Two segments built from the LIFTED corpus (carries the warc_ts_s
    fast field and a text docstore) — the fixture for sort/agg/fetch
    parity."""
    import ray.data as rd

    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.sources.corpus import _lift_documents_batch

    docs = pq.read_table(f"{SF}/documents.parquet")
    tmp = tmp_path_factory.mktemp("docsharded_lifted")
    cfg = EngineConfig(max_gram=2, num_buckets=2, store_fields=("text",))
    s1, s2 = str(tmp / "s1"), str(tmp / "s2")
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))), s1, cfg)
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(250))), s2, cfg)
    return [s1, s2]


def test_docsharded_sort_by_field_parity(lifted_pair):
    """Sort-by-field on the doc-sharded front: per-shard sorted top-ks
    merged on the raw key must be BIT-IDENTICAL to the single-process
    engine's ``search(sort_by=...)`` (global top-k == top-k of per-shard
    top-ks; a doc lives in exactly one shard)."""
    local = SearchEngine(lifted_pair, load_urls=False)
    srv = DocShardedServer(lifted_pair, n_shards=2, num_cpus_per_shard=0.25)
    try:
        for q in ["spark join", "table", "merge | window", "zzz_nonexistent_term"]:
            for direction in ("desc", "asc"):
                a = local.search(q, k=10, sort_by=("warc_ts_s", direction))
                b = srv.search(q, k=10, sort_by=("warc_ts_s", direction))
                assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (q, direction)
                assert a["score"].to_pylist() == b["score"].to_pylist(), (q, direction)
    finally:
        srv.shutdown()


def test_bad_sort_direction_raises_before_any_shard_round(lifted_pair):
    """A sort direction other than asc/desc is a plain ValueError at the
    doc-sharded front, raised before the statistics round, and the local
    engine names the direction even when the column is unknown too."""
    local = SearchEngine(lifted_pair, load_urls=False)
    with pytest.raises(ValueError, match="sort_by direction 'up'"):
        local.search("spark", k=5, sort_by=("no_such_column", "up"))
    srv = DocShardedServer(lifted_pair, n_shards=2, num_cpus_per_shard=0.25)
    try:

        def no_round(query):
            raise AssertionError("statistics round ran before the direction check")

        srv._stats_round = no_round
        with pytest.raises(ValueError, match="sort_by direction 'up'") as e:
            srv.search("spark", k=5, sort_by=("warc_ts_s", "up"))
        assert type(e.value) is ValueError
    finally:
        srv.shutdown()


def test_docsharded_aggs_parity(lifted_pair):
    """date_histogram / field_stats / field_percentiles merged from
    per-shard partials must equal the local aggregation exactly (integer
    doc-values make every float sum lossless in any order)."""
    from bitfunnel_ray.query.aggs import date_histogram, field_percentiles, field_stats

    local = SearchEngine(lifted_pair, load_urls=False)
    srv = DocShardedServer(lifted_pair, n_shards=2, num_cpus_per_shard=0.25)
    try:
        for q in ["spark", "spark join", "zzz_nonexistent_term"]:
            a = date_histogram(local, q, interval_s=100)
            b = srv.date_histogram(q, interval_s=100)
            assert a.to_pydict() == b.to_pydict(), q
            a = field_stats(local, q)
            b = srv.field_stats(q)
            assert a.to_pydict() == b.to_pydict(), q
            a = field_percentiles(local, q)
            b = srv.field_percentiles(q)
            ga, gb = a["value"].to_numpy(), b["value"].to_numpy()
            assert np.array_equal(ga, gb, equal_nan=True), q
    finally:
        srv.shutdown()


def test_docsharded_facet_counts_parity(lifted_pair):
    """Facet counts from the gathered global match set equal the local
    engine's facet_counts (same shared reduce, same match union)."""
    import ray.data as rd

    from bitfunnel_ray.query.facets import facet_counts

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    meta = rd.from_arrow(docs)
    local = SearchEngine(lifted_pair, load_urls=False)
    srv = DocShardedServer(lifted_pair, n_shards=2, num_cpus_per_shard=0.25)
    try:
        a = facet_counts(local, meta, "spark join", facet_cols=("lang",))
        b = srv.facet_counts(meta, "spark join", facet_cols=("lang",))
        assert a.to_pydict() == b.to_pydict()
    finally:
        srv.shutdown()


def test_docsharded_stored_fields_fetch(lifted_pair):
    """Stored-field fetch on the doc-sharded front: byte-identical to the
    source rows, served via the front-side docstore point lookups."""
    docs = pq.read_table(f"{SF}/documents.parquet")
    srv = DocShardedServer(lifted_pair, n_shards=2, num_cpus_per_shard=0.25)
    try:
        ids = [3, 200, 260, 499]
        got = srv.fetch(ids, fields=["text"])
        assert got["doc_id"].to_pylist() == sorted(ids)
        want = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
        assert all(
            want[i] == s
            for i, s in zip(got["doc_id"].to_pylist(), got["text"].to_pylist())
        )
        assert len(srv.fetch([10**12])) == 0
    finally:
        srv.shutdown()


def test_boost_below_one_scales_every_front(waved):
    """``t^0.5`` contributes half of ``t`` (explain and search); ``t^0.5 t``
    scores as ``t``, the max over the term's occurrences; the term-sharded
    and doc-sharded fronts agree bit for bit."""
    from bitfunnel_ray.query.sharded import ShardedServer

    local = SearchEngine(waved, load_urls=False)
    plain = local.search("spark", k=20)
    half = local.search("spark^0.5", k=20)
    assert half["doc_id"].to_pylist() == plain["doc_id"].to_pylist()
    assert half["score"].to_pylist() == [0.5 * s for s in plain["score"].to_pylist()]
    doc = int(local.search("spark join", k=1)["doc_id"][0].as_py())
    ex = local.explain("spark join", doc).to_pandas().set_index("term")["contribution"]
    exh = local.explain("spark^0.5 join", doc).to_pandas().set_index("term")["contribution"]
    assert exh["spark"] == 0.5 * ex["spark"] and exh["join"] == ex["join"]
    dup = local.search("spark^0.5 spark", k=20)
    assert dup["doc_id"].to_pylist() == plain["doc_id"].to_pylist()
    assert dup["score"].to_pylist() == plain["score"].to_pylist()

    queries = ["spark^0.5", "spark^0.5 join", "spark^0.5 spark", "spark^2 | join^0.25"]
    term_srv = ShardedServer(waved, n_shards=2, num_cpus_per_shard=0.25)
    doc_srv = DocShardedServer(waved, n_shards=2, num_cpus_per_shard=0.25)
    try:
        for front in (term_srv.engine(), doc_srv):
            for q in queries:
                a, b = local.search(q, k=10), front.search(q, k=10)
                assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
                assert a["score"].to_pylist() == b["score"].to_pylist(), q
    finally:
        term_srv.shutdown()
        doc_srv.shutdown()


def test_malformed_query_raises_parse_error(waved):
    """A query the shards cannot parse raises ParseError at the front, as
    the local engine does."""
    from bitfunnel_ray.query.parser import ParseError

    srv = DocShardedServer(waved, n_shards=2, num_cpus_per_shard=0.25)
    try:
        with pytest.raises(ParseError):
            srv.search("spark AND (", k=5)
    finally:
        srv.shutdown()


def test_malformed_query_log_raises_parse_error(waved):
    """``run`` over a log with one malformed query returns that query's
    ParseError as an error row and ranks the others, with the same
    columns and error text as the local front (``run_query_log``), so
    ``runner.summarize`` reads it."""
    from bitfunnel_ray.query.runner import run_query_log, summarize

    log = pa.table({"query_id": pa.array([0, 1, 2], pa.int64()),
                    "query": pa.array(["spark join", "spark AND (", "table"])})
    srv = DocShardedServer(waved, n_shards=2, num_cpus_per_shard=0.25)
    try:
        got = srv.run(log, k=5, concurrency=1, num_cpus_per_front=0.5).materialize()
        want = {q: srv.search(q, k=5) for q in ("spark join", "table")}
    finally:
        srv.shutdown()
    local = run_query_log(log, waved, k=5, concurrency=1).to_pandas()
    rows = got.to_pandas().sort_values(["query_id", "rank"])
    assert rows.dtypes.to_dict() == local.dtypes.to_dict()
    assert list(rows.columns) == list(local.columns)
    bad = rows[rows.query_id == 1]
    assert len(bad) == 1 and bad.n_matches.tolist() == [-1]
    assert bad.error.iloc[0].startswith("ParseError: Expected token (at position 11)")
    assert bad.error.iloc[0] == local[local.query_id == 1].error.iloc[0]
    for qid, q in ((0, "spark join"), (2, "table")):
        sub = rows[rows.query_id == qid]
        assert (sub.error == "").all() and (sub.n_matches > 0).all()
        assert sub.doc_id.tolist() == want[q]["doc_id"].to_pylist()
        assert sub.score.tolist() == want[q]["score"].to_pylist()
    lq = local.groupby("query_id").n_matches.first()
    assert rows.groupby("query_id").n_matches.first().tolist() == lq.tolist()
    s = summarize(got)
    assert s["n_queries"] == 3 and s["n_errors"] == 1
