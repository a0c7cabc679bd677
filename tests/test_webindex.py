"""End-to-end web indexing (pipelines/webindex.py): raw pages with real
URLs and cross-links → robots filter → text + anchor extraction →
canonical-URL link resolution → PageRank sidecar → two-stream index →
blended serving.  Planted corpus with closed-form expectations."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from bitfunnel_ray.pipelines.webindex import (
    blended_search,
    build_web_index,
    load_static_rank,
    resolve_links,
)
from bitfunnel_ray.query.engine import SearchEngine

N = 120  # docs 0..119; doc i links to (i+1)%N and (i*7+3)%N


def _pages():
    i = np.arange(N, dtype=np.int64)
    a1 = (i + 1) % N
    a2 = (i * 7 + 3) % N
    urls = [f"https://h{v % 4}.example.org/doc/{v}" for v in i.tolist()]
    # doc 0..9 live under the /blocked/ path → robots-dropped
    urls = [
        u.replace(f"/doc/{k}", f"/blocked/{k}") if k < 10 else u
        for k, u in enumerate(urls)
    ]
    body = [
        ("spark join alpha" if v % 3 == 0 else "spark join beta") + f" tok{v}"
        for v in i.tolist()
    ]
    html = [
        f"<html><body><p>{body[k]}</p>"
        f'<a href="{urls[a1[k]]}">anchor one</a>'
        f'<a href="{urls[a2[k]]}">deep {a2[k] % 7}</a></body></html>'
        for k in range(N)
    ]
    return pa.table(
        {
            "doc_id": pa.array(i, pa.int64()),
            "url": pa.array(urls),
            "html": pa.array([h.encode() for h in html], pa.binary()),
        }
    )


@pytest.fixture(scope="module")
def webidx(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("webidx") / "seg")
    pages = rd.from_arrow(_pages()).repartition(num_blocks=4)
    manifest, rank_path = build_web_index(
        pages,
        out,
        blocked_prefixes=(
            "https://h0.example.org/blocked/",
            "https://h1.example.org/blocked/",
            "https://h2.example.org/blocked/",
            "https://h3.example.org/blocked/",
        ),
        pagerank_iters=2,
    )
    return SearchEngine(out, load_urls=False), rank_path


def test_linkless_corpus_builds(ray_session, tmp_path_factory):
    """A corpus whose pages contain NO extractable links must still build
    and serve: link extraction emits empty blocks, and on this Ray (2.49)
    empty blocks skip schema-changing maps — the in-house co-partitioned
    url joins (resolve_links/_resolve_anchor_targets/anchor_corpus)
    tolerate them where Dataset.join died with a FieldRef error."""
    import pyarrow as pa
    import ray.data as rd

    from bitfunnel_ray.pipelines.webindex import build_web_index
    from bitfunnel_ray.query.engine import SearchEngine

    pages = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(20), pa.int64()),
                "url": [f"http://example.org/p{i}" for i in range(20)],
                "html": [
                    f"<html><body>page {i} spark nolinks</body></html>".encode()
                    for i in range(20)
                ],
            }
        )
    )
    out = str(tmp_path_factory.mktemp("linkless") / "idx")
    man, rank_path = build_web_index(pages, out, pagerank_iters=1)
    assert man["n_docs"] == 20
    eng = SearchEngine(out, load_urls=False)
    assert len(eng.search("spark", k=5)) == 5
    assert eng.suggest("sp", 2)["term"].to_pylist() == ["spark"]  # sidecar shipped


def test_robots_dropped_docs_absent(webidx):
    eng, _ = webidx
    # tok5 exists only in blocked doc 5 → zero hits
    assert eng.search("tok5", k=5).num_rows == 0
    # tok42 survives
    t = eng.search("tok42", k=5)
    assert t["doc_id"].to_pylist() == [42]


def test_anchor_stream_queryable(webidx):
    eng, _ = webidx
    from bitfunnel_ray.query.parser import parse_query

    # every indexed doc got "anchor one" from its predecessor unless the
    # predecessor was robots-dropped; spot-check one known in-link:
    # doc 43's in-link from 42 plants the anchor token "one"
    got = set(eng.eval(parse_query("anchor:one", eng.stream_map)).tolist())
    assert 43 in got
    # docs whose ONLY in-links came from dropped srcs may miss it; docs
    # 0..9 are dropped entirely so they never appear
    assert not (got & set(range(10)))


def test_static_rank_sidecar(webidx):
    _, rank_path = webidx
    ranks = load_static_rank(rank_path)
    # rank table covers only surviving docs (and their link targets)
    assert all(k >= 10 for k in ranks)
    assert all(v > 0 for v in ranks.values())


def test_blended_search_order(webidx):
    eng, rank_path = webidx
    ranks = load_static_rank(rank_path)
    out = blended_search(eng, ranks, "spark join", k=10).to_pandas()
    assert len(out) == 10
    # blended = round(bm25,6) * prior, descending
    assert (np.diff(out["blended"].to_numpy()) <= 0).all()
    # every result is a surviving doc
    assert (out["doc_id"] >= 10).all()


def test_cli_webindex_and_blended_query(tmp_path):
    """cli webindex → cli query --rank: the one-command tool flow over
    the planted page set, blended serving straight from the sidecar."""
    import subprocess
    import sys

    import pyarrow.parquet as pq

    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root",
           "RAY_GRAFT_CPUS": "4"}
    pq.write_table(_pages(), tmp_path / "pages.parquet")
    idx = str(tmp_path / "webidx")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "webindex",
         str(tmp_path / "pages.parquet"), idx,
         "--disallow", "https://h0.example.org/blocked/",
         "--iters", "2"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    import json

    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["rank"] == idx + "_rank"
    r2 = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "query", idx,
         "spark join", "-k", "5", "--rank", idx + "_rank"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r2.returncode == 0, r2.stderr[-2000:]
    assert "blended" in r2.stdout and "doc_id" in r2.stdout


def test_webindex_serves_sharded(webidx):
    """Multi-stream queries (anchor: and body mixed) must serve through
    the term-sharded server identically to the local engine — the stored
    hash folds the stream id, so stream terms shard like any other."""
    from bitfunnel_ray.query.parser import parse_query
    from bitfunnel_ray.query.sharded import ShardedServer

    eng, _ = webidx
    seg_dir = eng.segments[0].dir
    srv = ShardedServer([seg_dir], n_shards=2, num_cpus_per_shard=0.25)
    try:
        qlog = pa.table(
            {
                "query_id": pa.array([0, 1], pa.uint32()),
                "query": ["anchor:one spark", "spark join"],
            }
        )
        res = srv.run(qlog, k=10, concurrency=1, batch_size=8).to_pandas()
        assert (res["error"] == "").all()
        for qid, q in [(0, "anchor:one spark"), (1, "spark join")]:
            want = eng.search(q, k=10)["doc_id"].to_pylist()
            got = (
                res[res["query_id"] == qid]
                .sort_values("rank")["doc_id"]
                .tolist()
            )
            assert got == want, f"sharded mismatch for {q!r}"
    finally:
        srv.shutdown()


def test_resolve_links_out_of_scope_dropped(ray_session):
    links = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 1, 2], pa.int64()),
                "href": [
                    "https://h1.example.org/doc/2/",  # canonicalizes to doc 2's url
                    "https://elsewhere.net/nope",  # out of corpus → dropped
                    "HTTPS://H3.EXAMPLE.ORG/doc/3",  # case-insensitive host
                ],
            }
        )
    )
    pages = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([2, 3], pa.int64()),
                "url": ["https://h1.example.org/doc/2", "https://h3.example.org/doc/3"],
            }
        )
    )
    out = resolve_links(links, pages).to_pandas().sort_values("src")
    assert list(zip(out["src"], out["dst"])) == [(1, 2), (2, 3)]


def test_url_hash_collision_makes_no_edge(ray_session, monkeypatch):
    """Two distinct canonical urls with one 64-bit hash: the joins compare
    the urls themselves, so no link or anchor reaches the wrong page.
    The module is pickled by value, so the Ray workers run the patched
    ``hash_terms``."""
    import ray.cloudpickle as cp

    from bitfunnel_ray.functions.hashing import hash_terms
    from bitfunnel_ray.pipelines import webindex

    two, three = "https://h1.example.org/doc/2", "https://h3.example.org/doc/3"

    def colliding(terms, memoize=True):
        arr = np.asarray(terms, dtype=object)
        return hash_terms(np.where(arr == three, two, arr), memoize=memoize)

    assert colliding([three])[0] == colliding([two])[0]
    monkeypatch.setattr(webindex, "hash_terms", colliding)
    links = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "href": [two, three],
                "anchor": ["to two", "to three"],
            }
        )
    )
    pages = rd.from_arrow(
        pa.table({"doc_id": pa.array([2, 3], pa.int64()), "url": [two, three]})
    )
    cp.register_pickle_by_value(webindex)
    try:
        edges = resolve_links(links, pages).to_pandas()
        anchors = webindex._resolve_anchor_targets(links, pages).to_pandas()
    finally:
        cp.unregister_pickle_by_value(webindex)
    assert sorted(zip(edges["src"], edges["dst"])) == [(1, 2), (2, 3)]
    assert sorted(zip(anchors["doc_id"], anchors["anchor"])) == [
        (2, "to two"), (3, "to three")]


def test_blended_orphan_prior_is_rank_floor(webidx):
    """A matched doc missing from the rank table gets the MINIMUM
    achieved rank as its prior (an earlier default of 1 buried orphans
    ~6 orders of magnitude below every linked page)."""
    eng, rank_path = webidx
    ranks = load_static_rank(rank_path)
    # orphan one matched doc by removing it from the rank table
    full = blended_search(eng, ranks, "spark join", k=50).to_pandas()
    victim = int(full["doc_id"].iloc[0])
    orphaned = {k: v for k, v in ranks.items() if k != victim}
    out = blended_search(eng, orphaned, "spark join", k=10**6).to_pandas()
    row = out[out.doc_id == victim]
    assert len(row) == 1
    floor = min(orphaned.values())
    bm = eng.search("spark join", k=10**6).to_pandas().set_index("doc_id")
    expect = round(float(bm.loc[victim, "score"]), 6) * floor
    assert float(row["blended"].iloc[0]) == expect
