"""Link-graph operators (bitfunnel_ray/ops/graph.py): the distributed
integer fixed-point PageRank must be BIT-IDENTICAL to a dense
single-process implementation of the same update rule (integer sums are
order-independent — that's the design), track float PageRank at the
same iteration count, and the href extractor must handle the classic
html edge cases."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from bitfunnel_ray.ops.graph import (
    extract_links,
    hits,
    host_graph,
    pagerank,
    resolve_redirects,
)

SCALE = 10**12


def dense_fixed_pr(src, dst, n, n_iter=3, scale=SCALE, num=17, den=20):
    outdeg = np.bincount(src, minlength=n).astype(np.int64)
    r = np.full(n, scale // n, np.int64)
    base = (scale * (den - num)) // den // n
    for _ in range(n_iter):
        dang = (int(r[outdeg == 0].sum()) * num) // den // n
        contrib = np.where(outdeg > 0, r // np.maximum(outdeg, 1), 0)
        inflow = np.zeros(n, np.int64)
        np.add.at(inflow, dst, contrib[src])
        r = base + dang + (inflow * num) // den
    return r


def dense_float_pr(src, dst, n, n_iter=3, a=0.85):
    outdeg = np.bincount(src, minlength=n)
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        dang = r[outdeg == 0].sum()
        c = np.where(outdeg > 0, r / np.maximum(outdeg, 1), 0.0)
        inflow = np.zeros(n)
        np.add.at(inflow, dst, c[src])
        r = (1 - a) / n + a * dang / n + a * inflow
    return r


@pytest.fixture(scope="module")
def graph(ray_session):
    # deterministic scale-free-ish graph with dangling nodes, self-loops
    # and multi-edges: node i emits i%4 edges (so ~1/4 of nodes dangle)
    n = 500
    i = np.arange(n, dtype=np.int64)
    deg = i % 4
    src = np.repeat(i, deg)
    ends = np.cumsum(deg)
    j = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - deg, deg) + 1
    dst = (src * src + 13 * j + 5) % n  # collisions → multi-edges; i==dst → self-loops
    return src, dst, n


def test_pagerank_bit_identical(graph):
    # the op's node universe = nodes appearing in the edge set (same as
    # the SQL oracle's DISTINCT src UNION dst) — relabel to a compact
    # range so the dense oracle runs over the identical universe
    src, dst, n = graph
    universe = np.union1d(np.unique(src), np.unique(dst))
    assert len(universe) < n  # fixture really does leave orphan nodes out
    csrc = np.searchsorted(universe, src)
    cdst = np.searchsorted(universe, dst)
    edges = rd.from_arrow(
        pa.table({"src": src, "dst": dst})
    ).repartition(num_blocks=7)  # odd layout on purpose: result must not care
    out = (
        pagerank(edges, n_iter=3)
        .to_pandas()
        .set_index("node")["rank"]
        .reindex(universe)
        .to_numpy()
    )
    ref = dense_fixed_pr(csrc, cdst, len(universe))
    assert (out == ref).all()


def test_pagerank_tracks_float(graph):
    src, dst, n = graph
    ref = dense_fixed_pr(src, dst, n).astype(np.float64) / SCALE
    flt = dense_float_pr(src, dst, n)
    # fixed-point truncation loses < den units per int op at scale 1e12
    assert np.abs(ref - flt).max() < 1e-9
    # total mass conserved up to truncation
    assert 0.999 < ref.sum() <= 1.0 + 1e-12


def test_pagerank_ranks_sinks_and_hubs(graph):
    src, dst, n = graph
    r = dense_fixed_pr(src, dst, n)
    # a node every source multi-targets must outrank the global median
    indeg = np.bincount(dst, minlength=n)
    assert r[np.argmax(indeg)] > np.median(r)


def dense_fixed_hits(src, dst, universe, n_iter=2, scale=10**6):
    # universe = sorted node ids appearing in the edge set
    idx = {v: k for k, v in enumerate(universe)}
    cs = np.array([idx[v] for v in src])
    cd = np.array([idx[v] for v in dst])
    n = len(universe)
    h = np.full(n, scale, np.int64)
    a = np.zeros(n, np.int64)
    for _ in range(n_iter):
        a = np.zeros(n, np.int64)
        np.add.at(a, cd, h[cs])
        if a.sum() > 0:
            a = (a * scale) // int(a.sum())
        h = np.zeros(n, np.int64)
        np.add.at(h, cs, a[cd])
        if h.sum() > 0:
            h = (h * scale) // int(h.sum())
    return h, a


def test_hits_bit_identical(graph):
    src, dst, n = graph
    universe = np.union1d(np.unique(src), np.unique(dst))
    edges = rd.from_arrow(
        pa.table({"src": src, "dst": dst})
    ).repartition(num_blocks=5)
    out = hits(edges, n_iter=2).to_pandas().set_index("node").sort_index()
    href, aref = dense_fixed_hits(src, dst, universe)
    assert (out.index.to_numpy() == universe).all()
    assert (out["hub"].to_numpy() == href).all()
    assert (out["authority"].to_numpy() == aref).all()
    # pure sinks (appear only as dst) are hubs of weight 0 but still present
    sinks = np.setdiff1d(universe, np.unique(src))
    if len(sinks):
        assert (out.loc[sinks, "hub"] == 0).all()


def test_hits_authority_tracks_indegree(graph):
    src, dst, n = graph
    universe = np.union1d(np.unique(src), np.unique(dst))
    _, aref = dense_fixed_hits(src, dst, universe)
    indeg = np.bincount(dst, minlength=n)[universe]
    assert aref[np.argmax(indeg)] > np.median(aref)


def dense_fixed_trustrank(src, dst, universe, seed_mod, n_iter=3,
                          scale=10**12, num=17, den=20):
    idx = {v: k for k, v in enumerate(universe)}
    cs = np.array([idx[v] for v in src])
    cd = np.array([idx[v] for v in dst])
    n = len(universe)
    outdeg = np.bincount(cs, minlength=n).astype(np.int64)
    seed = (universe % seed_mod == 0).astype(np.int64)
    n_seeds = int(seed.sum())
    r = seed * (scale // n_seeds)
    base = (scale * (den - num)) // den // n_seeds
    for _ in range(n_iter):
        dang = (int(r[outdeg == 0].sum()) * num) // den // n_seeds
        contrib = np.where(outdeg > 0, r // np.maximum(outdeg, 1), 0)
        inflow = np.zeros(n, np.int64)
        np.add.at(inflow, cd, contrib[cs])
        r = seed * (base + dang) + (inflow * num) // den
    return r


def test_trustrank_bit_identical_and_decays(graph):
    from bitfunnel_ray.ops.graph import trustrank

    src, dst, n = graph
    universe = np.union1d(np.unique(src), np.unique(dst))
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(
        num_blocks=6
    )
    out = (
        trustrank(edges, seed_mod=7, n_iter=3)
        .to_pandas()
        .set_index("node")["rank"]
        .reindex(universe)
        .to_numpy()
    )
    ref = dense_fixed_trustrank(src, dst, universe, seed_mod=7)
    assert (out == ref).all()
    # trust is concentrated: seeds hold more mass per node than non-seeds
    seed_mask = universe % 7 == 0
    assert ref[seed_mask].mean() > ref[~seed_mask].mean()
    # and some far-from-seed nodes hold zero trust while seeds never do
    assert (ref[seed_mask] > 0).all()


def dense_lpa(src, dst, universe, n_rounds):
    # synchronous, min-label tie-break, undirected; no-vote keeps own
    idx = {v: k for k, v in enumerate(universe)}
    cs = np.array([idx[v] for v in src]); cd = np.array([idx[v] for v in dst])
    us = np.concatenate([cs, cd]); ud = np.concatenate([cd, cs])
    n = len(universe)
    lab = universe.copy()
    for _ in range(n_rounds):
        new = lab.copy()
        for v in range(n):
            neigh = lab[us[ud == v]]
            if len(neigh):
                vals, cnts = np.unique(neigh, return_counts=True)
                new[v] = vals[np.argmax(cnts == cnts.max())]
        lab = new
    return lab


def test_label_propagation_matches_dense(graph):
    from bitfunnel_ray.ops.graph import label_propagation

    src, dst, n = graph
    universe = np.union1d(np.unique(src), np.unique(dst))
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(
        num_blocks=5
    )
    out = (
        label_propagation(edges, n_rounds=3)
        .to_pandas()
        .set_index("node")["label"]
        .reindex(universe)
        .to_numpy()
    )
    ref = dense_lpa(src, dst, universe, 3)
    assert (out == ref).all()


def test_label_propagation_two_cliques(ray_session):
    from bitfunnel_ray.ops.graph import label_propagation

    # two triangles joined by nothing: each collapses to its min label
    tri = lambda base: [(base, base + 1), (base + 1, base + 2), (base + 2, base)]  # noqa: E731
    pairs = tri(10) + tri(20)
    edges = rd.from_arrow(
        pa.table(
            {
                "src": pa.array([p[0] for p in pairs], pa.int64()),
                "dst": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )
    )
    out = (
        label_propagation(edges, n_rounds=4)
        .to_pandas()
        .set_index("node")["label"]
        .to_dict()
    )
    assert len({out[v] for v in (10, 11, 12)}) == 1
    assert len({out[v] for v in (20, 21, 22)}) == 1
    assert out[10] != out[20]


def test_bfs_depth_exact(graph):
    from bitfunnel_ray.ops.graph import bfs_depth

    src, dst, n = graph
    universe = np.union1d(np.unique(src), np.unique(dst))
    # dense BFS oracle from seeds (node % 17 == 0)
    INF = 1 << 62
    idx = {v: k for k, v in enumerate(universe)}
    cs = np.array([idx[v] for v in src])
    cd = np.array([idx[v] for v in dst])
    d = np.where(universe % 17 == 0, 0, INF).astype(np.int64)
    for _ in range(len(universe)):
        nd = d.copy()
        np.minimum.at(nd, cd, np.where(d[cs] >= INF, INF, d[cs] + 1))
        if (nd == d).all():
            break
        d = nd
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(
        num_blocks=5
    )
    out = (
        bfs_depth(edges, seed_mod=17, n_rounds=32)
        .to_pandas()
        .set_index("node")["depth"]
    )
    reached = universe[d < INF]
    assert sorted(out.index) == sorted(reached)
    assert (out.reindex(reached).to_numpy() == d[d < INF]).all()


def test_bfs_depth_disconnected_omitted(ray_session):
    from bitfunnel_ray.ops.graph import bfs_depth

    # seeds: node 0 (0 % 5 == 0); chain 0→1→2; island 7→8 (never reached)
    edges = rd.from_arrow(
        pa.table(
            {
                "src": pa.array([0, 1, 7], pa.int64()),
                "dst": pa.array([1, 2, 8], pa.int64()),
            }
        )
    )
    out = (
        bfs_depth(edges, seed_mod=5, n_rounds=8)
        .to_pandas()
        .set_index("node")["depth"]
        .to_dict()
    )
    assert out == {0: 0, 1: 1, 2: 2}


def test_inlink_concentration_flags_farms(ray_session):
    from bitfunnel_ray.ops.graph import inlink_concentration

    # target 100: 9 links from farm.net + 1 from a.org (farm, share 0.9)
    # target 200: one link each from 4 distinct hosts (organic, share .25)
    rows = [("farm.net", 100)] * 9 + [("a.org", 100)]
    rows += [(h, 200) for h in ("a.org", "b.org", "c.org", "d.org")]
    t = pa.table(
        {
            "src_host": [r[0] for r in rows],
            "dst": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    out = (
        inlink_concentration(rd.from_arrow(t).repartition(num_blocks=4))
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[100, "n_inlinks"] == 10 and out.loc[100, "top_host_share"] == 0.9
    assert out.loc[200, "n_inlinks"] == 4 and out.loc[200, "top_host_share"] == 0.25


def test_host_graph_rollup(ray_session):
    t = pa.table(
        {
            "src_host": ["a.org", "a.org", "a.org", "b.org", "b.org"],
            "href": [
                "https://x.org/1",
                "https://x.org/2?q=1",  # query string not part of host
                "http://y.org",  # no path at all
                "https://x.org:8080/z",  # port stays in the host
                "/relative/no/host",  # unparseable → dropped
            ],
        }
    )
    out = (
        host_graph(rd.from_arrow(t).repartition(num_blocks=3))
        .to_pandas()
        .sort_values(["src_host", "dst_host"])
    )
    got = list(zip(out["src_host"], out["dst_host"], out["weight"]))
    assert got == [
        ("a.org", "x.org", 2),
        ("a.org", "y.org", 1),
        ("b.org", "x.org:8080", 1),
    ]


def _redirects(pairs):
    return rd.from_arrow(
        pa.table(
            {
                "src": pa.array([p[0] for p in pairs], pa.int64()),
                "dst": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )
    ).repartition(num_blocks=3)


def test_resolve_redirects_long_chain(ray_session):
    # one 64-hop chain 0→1→…→64: needs 6 doubling rounds, not 64 steps
    out = (
        resolve_redirects(_redirects([(i, i + 1) for i in range(64)]), max_rounds=7)
        .to_pandas()
        .sort_values("src")
    )
    assert (out["final"] == 64).all()
    assert out["resolved"].all()


def test_resolve_redirects_cycle_flagged(ray_session):
    # 3-cycle plus a chain feeding into it: nothing terminates
    out = (
        resolve_redirects(_redirects([(1, 2), (2, 3), (3, 1), (9, 1)]), max_rounds=8)
        .to_pandas()
        .sort_values("src")
    )
    assert not out["resolved"].any()
    # every final is still a redirect source (stuck inside the cycle)
    assert set(out["final"]).issubset({1, 2, 3})


def test_resolve_redirects_mixed_forest(ray_session):
    # two chains to different terminals + an isolated self-contained pair
    pairs = [(0, 1), (1, 2), (2, 100), (10, 11), (11, 200), (30, 300)]
    out = (
        resolve_redirects(_redirects(pairs))
        .to_pandas()
        .set_index("src")["final"]
        .to_dict()
    )
    assert out == {0: 100, 1: 100, 2: 100, 10: 200, 11: 200, 30: 300}


def test_resolve_redirects_survives_emptied_blocks(ray_session):
    # a filter empties some blocks; those keep the stale (src, dst)
    # schema past the first map and must not abort the join
    t = pa.table(
        {
            "src": pa.array([0, 1, 2, 50, 51], pa.int64()),
            "dst": pa.array([1, 2, 3, 60, 61], pa.int64()),
        }
    )
    redirects = rd.from_arrow(t).repartition(4).filter(expr="src < 10")
    out = resolve_redirects(redirects).to_pandas().sort_values("src")
    assert out["src"].tolist() == [0, 1, 2]
    assert out["final"].tolist() == [3, 3, 3]
    assert out["resolved"].all()


def test_resolve_redirects_duplicate_src_raises(ray_session):
    import pytest as _pytest

    # 5 chains through the duplicated key → fan-out detected
    pairs = [(1, 2), (2, 3), (2, 4)] + [(10 + i, 1) for i in range(5)]
    with _pytest.raises(Exception, match="duplicate src"):
        resolve_redirects(_redirects(pairs)).to_pandas()


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_pagerank_random_graphs_bit_identical(ray_session, data):
    """Property: on arbitrary random multigraphs (self-loops, multi-edges,
    dangling nodes, any block layout) the distributed integer PageRank
    equals the dense oracle bit-for-bit."""
    n_edges = data.draw(st.integers(1, 60))
    hi = data.draw(st.integers(1, 40))
    src = np.array(
        data.draw(st.lists(st.integers(0, hi), min_size=n_edges, max_size=n_edges)),
        np.int64,
    )
    dst = np.array(
        data.draw(st.lists(st.integers(0, hi), min_size=n_edges, max_size=n_edges)),
        np.int64,
    )
    n_blocks = data.draw(st.integers(1, 4))
    n_iter = data.draw(st.integers(1, 3))
    universe = np.union1d(np.unique(src), np.unique(dst))
    csrc = np.searchsorted(universe, src)
    cdst = np.searchsorted(universe, dst)
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(
        num_blocks=n_blocks
    )
    out = (
        pagerank(edges, n_iter=n_iter)
        .to_pandas()
        .set_index("node")["rank"]
        .reindex(universe)
        .to_numpy()
    )
    ref = dense_fixed_pr(csrc, cdst, len(universe), n_iter=n_iter)
    assert (out == ref).all()


def test_cli_links_pagerank(tmp_path):
    """cli links → cli pagerank over a tiny planted page set: the two
    commands chain through parquet on disk (the crawl-side tool flow)."""
    import subprocess
    import sys

    import pandas as pd
    import pyarrow.parquet as pq

    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root",
           "RAY_GRAFT_CPUS": "4"}
    pages = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "html": [
                '<a href="1">to one</a>',
                '<a href="2">to two</a>',
                '<a href="0">to zero</a>',
            ],
        }
    )
    pq.write_table(pages, tmp_path / "pages.parquet")
    links = str(tmp_path / "links")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "links",
         str(tmp_path / "pages.parquet"), links, "--anchors"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    ldf = pd.concat([pq.read_table(f"{links}/{f}").to_pandas()
                     for f in __import__("os").listdir(links)])
    assert sorted(ldf["anchor"]) == ["to one", "to two", "to zero"]
    # href column is the dst id here; rewrite to (src, dst) edges
    edges = pa.table(
        {
            "src": pa.array(ldf["doc_id"].to_numpy(), pa.int64()),
            "dst": pa.array(ldf["href"].astype("int64").to_numpy(), pa.int64()),
        }
    )
    pq.write_table(edges, tmp_path / "edges.parquet")
    out = str(tmp_path / "pr")
    r2 = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "pagerank",
         str(tmp_path / "edges.parquet"), out, "--iters", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r2.returncode == 0, r2.stderr[-2000:]
    pdf = pd.concat([pq.read_table(f"{out}/{f}").to_pandas()
                     for f in __import__("os").listdir(out)])
    # a 3-cycle is symmetric: every node ends with the same rank
    assert len(pdf) == 3 and pdf["rank"].nunique() == 1


def test_extract_links_edge_cases(ray_session):
    html = pa.array(
        [
            b'<a href="http://a/1">x</a> text <a href="http://a/2">y</a>',
            b"no links at all",
            None,
            b'broken href="unterminated',
            b'empty href="" and plain text href="http://c/3" outside a tag',
        ],
        pa.binary(),
    )
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()), "html": html})
    out = extract_links(rd.from_arrow(t)).to_pandas()
    got = list(zip(out["doc_id"], out["href"]))
    # regexp-oracle semantics: every href="..." with a closing quote,
    # tag or not; unterminated ones dropped
    assert got == [
        (1, "http://a/1"),
        (1, "http://a/2"),
        (5, ""),
        (5, "http://c/3"),
    ]
