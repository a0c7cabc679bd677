"""Web-graph operators: href link extraction and distributed PageRank.

The reference engine indexes pages but computes no link-graph signal;
a web-scale corpus pipeline needs one (ranking priors, crawl-frontier
scoring, spam farms show up as rank anomalies).  Two operators:

``extract_links``
    map-only, vectorized: split each page's ``html`` on ``href="`` with
    one Arrow C-kernel call per block, take the prefix of every
    fragment up to the closing quote (RE2), and carry the source row
    through list offsets — no per-row python.  Unterminated hrefs (no
    closing quote) are dropped, matching the common
    ``regexp_extract_all(html, 'href="([^"]*)"')`` oracle semantics.

``pagerank``
    distributed power iteration with **integer fixed-point arithmetic**
    (ranks are int64 scaled by ``scale``; damping a = num/den applied as
    ``(x * num) // den``).  Integer sums are associative, so the result
    is BIT-IDENTICAL regardless of block layout, partition count, or
    summation order — a deterministic distributed PageRank that a SQL
    engine reproduces exactly with k unrolled iterations (see
    ``pagerank_sql`` in pipelines/driver_queries.py).  Precision: with
    scale=1e12 the per-iteration floor truncation loses < outdeg
    units per node (~1e-12 relative), far below ranking significance;
    tests pin the fixed-point result within 1e-9 of float PageRank.

    Shape per iteration (the honest large-graph layout — state and
    edges both stay distributed, nothing is broadcast):

      1. dangling mass: one O(V) scalar aggregate over the state.
      2. contribs: tag-union state (key=node) with edges (key=src),
         ONE hash exchange on key, then a per-block searchsorted kernel
         emits (dst, rank//outdeg) per edge and a self row per node.
      3. update: ONE hash exchange on dst + a segmented-reduce kernel
         rebuilds the state (node, rank, outdeg).

    2 exchanges per iteration; the state is materialized per iteration
    (the iterative-algorithm checkpoint — O(V), the edges are never
    collected).  Edges are re-shuffled each round; a cluster deployment
    would pre-partition the edge set once by src-hash and reuse it
    (same kernels, one fewer exchange) — kept simple here because Ray
    Data's hash exchange is already the dominant term and the layout
    assumption (equal keys co-located per block) is what
    ``repartition(keys=...)`` guarantees.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_UNION_SCHEMA = pa.schema(
    [
        ("key", pa.int64()),
        ("dst", pa.int64()),
        ("rank", pa.int64()),
        ("outdeg", pa.int64()),
        ("is_state", pa.int8()),
    ]
)
_CONTRIB_SCHEMA = pa.schema(
    [
        ("dst", pa.int64()),
        ("contrib", pa.int64()),
        ("outdeg", pa.int64()),
        ("is_state", pa.int8()),
    ]
)
_STATE_SCHEMA = pa.schema(
    [("node", pa.int64()), ("rank", pa.int64()), ("outdeg", pa.int64())]
)


# --- link extraction -------------------------------------------------------


def extract_links_batch(batch: pa.Table, *, html_col: str = "html",
                        src_col: str = "doc_id") -> pa.Table:
    """(src, html) rows → (src, href) rows, one per href occurrence,
    document order preserved.  Fully vectorized: one split_pattern call,
    one substring-match, one regex-extract over the flattened fragments."""
    s = pc.cast(pc.fill_null(batch[html_col], b""), pa.string())
    parts = pc.split_pattern(s, 'href="')
    lengths = pc.list_value_length(parts).to_numpy().astype(np.int64)
    flat = pc.list_flatten(parts)
    n = len(flat)
    keep = np.ones(n, bool)
    starts = np.concatenate([[0], np.cumsum(lengths[:-1])]).astype(np.int64)
    keep[starts[lengths > 0]] = False  # fragment 0 of each row precedes any href
    # a real href terminates with a quote; fragments without one are the
    # tail of an unterminated attribute — drop (regex-oracle semantics)
    closed = pc.match_substring(flat, '"').to_numpy(zero_copy_only=False)
    keep &= np.asarray(closed, bool)
    src_vals = batch[src_col].to_numpy(zero_copy_only=False)
    srcs = np.repeat(src_vals, lengths)[keep]
    hrefs = pc.extract_regex(flat.filter(pa.array(keep)), '^(?P<u>[^"]*)"')
    return pa.table(
        {
            src_col: pa.array(srcs, pa.from_numpy_dtype(src_vals.dtype)),
            "href": pc.struct_field(hrefs, "u"),
        }
    )


def extract_links(corpus, *, html_col: str = "html", src_col: str = "doc_id"):
    """Dataset(src, html, ...) → Dataset(src, href)."""
    from functools import partial

    return corpus.select_columns([src_col, html_col]).map_batches(
        partial(extract_links_batch, html_col=html_col, src_col=src_col),
        batch_format="pyarrow",
    )


_HOST_RE = "^[a-zA-Z][a-zA-Z0-9+.-]*://(?P<h>[^/?#]+)"


def host_graph(links, *, src_host_col: str = "src_host", href_col: str = "href"):
    """Dataset(src_host, href, ...) → Dataset(src_host, dst_host, weight):
    the page-level link set rolled up to a host-level graph.  The
    destination host is parsed from the href (``scheme://host/...``;
    rows without a parseable host are dropped); each block emits
    PARTIAL (src_host, dst_host, count) rows (map-side combine), so the
    one groupby exchange moves at most |distinct host pairs| rows per
    block — tiny next to the edge set, which is what makes host-graph
    rollups tractable where the page graph is not."""

    def partial(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [("src_host", pa.string()), ("dst_host", pa.string()), ("weight", pa.int64())]
        )
        if len(t) == 0:
            return out_schema.empty_table()
        dst = pc.struct_field(
            pc.extract_regex(pc.cast(t[href_col], pa.string()), _HOST_RE), "h"
        )
        pairs = pa.table(
            {"src_host": pc.cast(t[src_host_col], pa.string()), "dst_host": dst}
        ).filter(pc.is_valid(dst))
        g = pairs.group_by(["src_host", "dst_host"], use_threads=False).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "src_host": g["src_host"],
                "dst_host": g["dst_host"],
                "weight": g["count_all"].cast(pa.int64()),
            },
            schema=out_schema,
        )

    return (
        links.select_columns([src_host_col, href_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .sum("weight")
        .map_batches(
            lambda t: t.rename_columns(["src_host", "dst_host", "weight"]),
            batch_format="pyarrow",
        )
    )


def degree_table(edges):
    """Dataset(src, dst) → Dataset(node, outdeg, indeg) over the node
    universe appearing in the edge set.  Map-side partial counts per
    block (np.unique, fixed-width rows), then ONE hash exchange sized
    by distinct nodes — never the edge multiset."""
    from bitfunnel_ray.ops.exchange import exchange

    def partials(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(src, return_counts=True)
        v, d = np.unique(dst, return_counts=True)
        return pa.table(
            {
                "node": pa.array(np.concatenate([u, v]), pa.int64()),
                "outdeg": pa.array(
                    np.concatenate([c.astype(np.int64), np.zeros(len(v), np.int64)])
                ),
                "indeg": pa.array(
                    np.concatenate([np.zeros(len(u), np.int64), d.astype(np.int64)])
                ),
            }
        )

    return exchange(
        edges.map_batches(partials, batch_format="pyarrow"),
        ["node"],
        _seg_sum_by("node", ("outdeg", "indeg")),
    )


def label_propagation(edges, *, n_rounds: int = 4):
    """Dataset(src, dst) → Dataset(node, label): synchronous label
    propagation over the UNDIRECTED view of the link graph (community
    detection, Raghavan et al. 2007).  Every node starts as its own
    label; each round every node adopts the most frequent label among
    its neighbours (ties → smallest label; isolated semantics: a node
    with no neighbours keeps its label).  Synchronous updates + the
    deterministic tie-break make the result LAYOUT-INDEPENDENT and
    reproducible by an unrolled SQL oracle — unlike the usual
    asynchronous formulation.

    Per round: ONE hash exchange routes each edge endpoint's label to
    the other endpoint, then a per-block (node, label) histogram argmax
    — (node, label, count) never leaves the block unaggregated."""
    from bitfunnel_ray.ops.exchange import exchange

    def undirected(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "key": pa.array(np.concatenate([src, dst]), pa.int64()),
                "dst": pa.array(np.concatenate([dst, src]), pa.int64()),
                "rank": pa.array(np.zeros(2 * len(src), np.int64)),
                "outdeg": pa.array(np.zeros(2 * len(src), np.int64)),
                "is_state": pa.array(np.zeros(2 * len(src), np.int8)),
            },
            schema=_UNION_SCHEMA,
        )

    und = edges.map_batches(undirected, batch_format="pyarrow").materialize()

    def uniq_block(t: pa.Table) -> pa.Table:
        vals = (
            np.unique(t["key"].to_numpy(zero_copy_only=False))
            if len(t)
            else np.array([], np.int64)
        )
        return pa.table({"node": pa.array(vals, pa.int64())})

    state = (
        exchange(und.map_batches(uniq_block, batch_format="pyarrow"), ["node"], _uniq_finish)
        .map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    "rank": t["node"],  # label := own id
                    "outdeg": pa.array(np.zeros(len(t), np.int64)),
                },
                schema=_STATE_SCHEMA,
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    vote_schema = pa.schema(
        [("dst", pa.int64()), ("label", pa.int64()), ("n", pa.int64()),
         ("is_state", pa.int8())]
    )

    def vote_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return vote_schema.empty_table()
        key = t["key"].to_numpy(zero_copy_only=False)
        val = t["rank"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        is_state = t["is_state"].to_numpy(zero_copy_only=False)
        sidx = np.flatnonzero(is_state == 1)
        order = np.argsort(key[sidx], kind="stable")
        skeys = key[sidx][order]
        svals = val[sidx][order]
        eidx = np.flatnonzero(is_state == 0)
        pos = np.searchsorted(skeys, key[eidx])
        if len(eidx) and not (
            (pos < len(skeys)).all()
            and (skeys[np.minimum(pos, len(skeys) - 1)] == key[eidx]).all()
        ):
            raise ValueError("lpa: edge endpoint not in node state (key routing broke)")
        # partial histogram: (dst, neighbour label) counts within block
        ed, el = dst[eidx], svals[pos]
        o2 = np.lexsort((el, ed))
        ed, el = ed[o2], el[o2]
        newg = np.ones(len(ed), bool)
        if len(ed):
            newg[1:] = (ed[1:] != ed[:-1]) | (el[1:] != el[:-1])
        gs = np.flatnonzero(newg)
        cnt = np.diff(np.append(gs, len(ed)))
        return pa.table(
            {
                "dst": pa.array(np.concatenate([ed[gs], key[sidx]]), pa.int64()),
                "label": pa.array(np.concatenate([el[gs], svals[order]]), pa.int64()),
                "n": pa.array(
                    np.concatenate([cnt.astype(np.int64), np.zeros(len(sidx), np.int64)]),
                    pa.int64(),
                ),
                "is_state": pa.array(
                    np.concatenate(
                        [np.zeros(len(gs), np.int8), np.ones(len(sidx), np.int8)]
                    )
                ),
            },
            schema=vote_schema,
        )

    def argmax_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _STATE_SCHEMA.empty_table()
        dst = t["dst"].to_numpy(zero_copy_only=False)
        label = t["label"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        is_state = t["is_state"].to_numpy(zero_copy_only=False).astype(np.int64)
        # merge split partials by (dst, label); keep each node's own
        # label (is_state row, n=0) as the no-neighbour fallback
        order = np.lexsort((label, dst))
        dst, label, n, is_state = dst[order], label[order], n[order], is_state[order]
        newp = np.ones(len(dst), bool)
        newp[1:] = (dst[1:] != dst[:-1]) | (label[1:] != label[:-1])
        ps = np.flatnonzero(newp)
        pd, pl = dst[ps], label[ps]
        pn = np.add.reduceat(n, ps)
        pstate = np.add.reduceat(is_state, ps)
        # per dst: argmax count with smallest-label tie-break — pairs are
        # sorted by (dst, label asc), so the FIRST max wins
        dstarts = np.flatnonzero(np.diff(pd, prepend=pd[0] - 1))
        nstate = np.add.reduceat(pstate, dstarts)
        if not (nstate == 1).all():
            raise ValueError("lpa: node missing or duplicated in state stream")
        grp = np.searchsorted(dstarts, np.arange(len(pd)), side="right") - 1
        mx = np.maximum.reduceat(pn, dstarts)
        is_max = pn == mx[grp]
        # first max within each group (label asc), but a node with no
        # neighbour votes (mx==0) keeps its OWN label, not min label
        own = np.flatnonzero(pstate == 1)
        fm_idx = np.flatnonzero(is_max)
        # vectorized "first true per group": unique on grp of is_max rows
        _, first_pos = np.unique(grp[fm_idx], return_index=True)
        chosen = fm_idx[first_pos]
        newl = np.empty(len(dstarts), np.int64)
        newl[grp[chosen]] = pl[chosen]
        no_votes = mx == 0
        if no_votes.any():
            newl[grp[own]] = np.where(
                no_votes[grp[own]], pl[own], newl[grp[own]]
            )
        return pa.table(
            {
                "node": pa.array(pd[dstarts], pa.int64()),
                "rank": pa.array(newl, pa.int64()),
                "outdeg": pa.array(np.zeros(len(dstarts), np.int64)),
            },
            schema=_STATE_SCHEMA,
        )

    for _ in range(n_rounds):
        state = _propagate(state, und, vote_block, argmax_block).materialize()

    return state.map_batches(
        lambda t: pa.table({"node": t["node"], "label": t["rank"]}),
        batch_format="pyarrow",
    )


_BFS_INF = 1 << 62


def bfs_depth(edges, seed_mod: int, *, n_rounds: int = 8):
    """Dataset(src, dst) → Dataset(node, depth): shortest link distance
    from the seed set (node % seed_mod == 0) — crawl depth.  Synchronous
    min-plus propagation: each round relaxes every edge once (depth[d] =
    min(depth[d], depth[s]+1)), so after R rounds every node within R
    hops is exact; the loop early-stops at the first fixpoint.  Nodes
    unreached within ``n_rounds`` are omitted from the result.

    Same two-exchange tag-union layout as pagerank, but a MIN-reduce
    (min-plus semiring) instead of a sum — the kernels differ, the
    shuffle shape doesn't.  Min is idempotent and commutative, so the
    result is layout-independent and exact."""
    from bitfunnel_ray.ops.exchange import exchange

    tagged_edges = edges.map_batches(_tag_edges, batch_format="pyarrow").materialize()

    def uniq_from_tagged(t: pa.Table) -> pa.Table:
        vals = (
            np.concatenate(
                [
                    t["key"].to_numpy(zero_copy_only=False),
                    t["dst"].to_numpy(zero_copy_only=False),
                ]
            )
            if len(t)
            else np.array([], np.int64)
        )
        return pa.table({"node": pa.array(np.unique(vals), pa.int64())})

    state = (
        exchange(
            tagged_edges.map_batches(uniq_from_tagged, batch_format="pyarrow"),
            ["node"],
            _uniq_finish,
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    "rank": pa.array(
                        np.where(
                            t["node"].to_numpy(zero_copy_only=False) % seed_mod == 0,
                            0,
                            _BFS_INF,
                        ).astype(np.int64)
                    ),
                    "outdeg": pa.array(np.zeros(len(t), np.int64)),
                },
                schema=_STATE_SCHEMA,
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    relax_schema = pa.schema(
        [("dst", pa.int64()), ("depth", pa.int64()), ("is_state", pa.int8())]
    )

    def relax_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return relax_schema.empty_table()
        key = t["key"].to_numpy(zero_copy_only=False)
        val = t["rank"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        is_state = t["is_state"].to_numpy(zero_copy_only=False)
        sidx = np.flatnonzero(is_state == 1)
        order = np.argsort(key[sidx], kind="stable")
        skeys = key[sidx][order]
        svals = val[sidx][order]
        eidx = np.flatnonzero(is_state == 0)
        pos = np.searchsorted(skeys, key[eidx])
        if len(eidx) and not (
            (pos < len(skeys)).all()
            and (skeys[np.minimum(pos, len(skeys) - 1)] == key[eidx]).all()
        ):
            raise ValueError("bfs: edge src not in node state (key routing broke)")
        hop = np.where(svals[pos] >= _BFS_INF, _BFS_INF, svals[pos] + 1)
        return pa.table(
            {
                "dst": pa.array(np.concatenate([dst[eidx], key[sidx]]), pa.int64()),
                "depth": pa.array(np.concatenate([hop, svals[order]]), pa.int64()),
                "is_state": pa.array(
                    np.concatenate(
                        [np.zeros(len(eidx), np.int8), np.ones(len(sidx), np.int8)]
                    )
                ),
            },
            schema=relax_schema,
        )

    def min_block(t: pa.Table, *, acc=None, it: int = 0) -> pa.Table:
        if len(t) == 0:
            return _STATE_SCHEMA.empty_table()
        dst = t["dst"].to_numpy(zero_copy_only=False)
        depth = t["depth"].to_numpy(zero_copy_only=False)
        is_state = t["is_state"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(dst, kind="stable")
        d = dst[order]
        starts = np.flatnonzero(np.diff(d, prepend=d[0] - 1))
        n_state = np.add.reduceat(is_state[order], starts)
        if not (n_state == 1).all():
            raise ValueError("bfs: node missing or duplicated in state stream")
        newd = np.minimum.reduceat(depth[order], starts)
        own = np.full(len(starts), _BFS_INF, np.int64)
        so = np.flatnonzero(is_state[order] == 1)
        own[np.searchsorted(starts, so, side="right") - 1] = depth[order][so]
        if acc is not None:
            # convergence count rides the reduce pass (no extra scalar
            # pass per round); min-node keys make retries idempotent
            _acc_put(acc, it, int(d[starts[0]]), int((newd < own).sum()))
        return pa.table(
            {
                "node": pa.array(d[starts], pa.int64()),
                "rank": pa.array(newd, pa.int64()),
                "outdeg": pa.array(np.zeros(len(starts), np.int64)),
            },
            schema=_STATE_SCHEMA,
        )

    import ray as _ray
    from functools import partial as _partial

    acc = _new_acc()
    for it in range(n_rounds):
        state = _propagate(
            state, tagged_edges, relax_block, _partial(min_block, acc=acc, it=it)
        ).materialize()
        if _ray.get(acc.total.remote(it)) == 0:
            break

    return state.map_batches(
        lambda t: pa.table(
            {"node": t["node"], "depth": t["rank"]}
        ).filter(pc.less(t["rank"], pa.scalar(_BFS_INF, pa.int64()))),
        batch_format="pyarrow",
    )


def reciprocal_links(edges):
    """Dataset(src, dst) → Dataset(a, b, n_ab, n_ba) for unordered pairs
    (a<b) linked in BOTH directions — the link-exchange signal (mutual
    linking rings are the oldest ranking manipulation; organic webs are
    overwhelmingly asymmetric).  Self-loops excluded; multi-edges count.

    Map-side partial counts keyed on the unordered pair, ONE hash
    exchange on (a, b), segmented finish keeps pairs with both
    directions present."""
    from bitfunnel_ray.ops.exchange import exchange

    out_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()),
         ("n_ab", pa.int64()), ("n_ba", pa.int64())]
    )

    def partials(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        a = np.minimum(src, dst)
        b = np.maximum(src, dst)
        fwd = (src < dst).astype(np.int64)
        tbl = pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "n_ab": pa.array(fwd, pa.int64()),
                "n_ba": pa.array(1 - fwd, pa.int64()),
            }
        )
        g = tbl.group_by(["a", "b"], use_threads=False).aggregate(
            [("n_ab", "sum"), ("n_ba", "sum")]
        )
        return pa.table(
            {
                "a": g["a"],
                "b": g["b"],
                "n_ab": g["n_ab_sum"].cast(pa.int64()),
                "n_ba": g["n_ba_sum"].cast(pa.int64()),
            },
            schema=out_schema,
        )

    def finish(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return out_schema.empty_table()
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        ab = t["n_ab"].to_numpy(zero_copy_only=False)
        ba = t["n_ba"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a, b, ab, ba = a[order], b[order], ab[order], ba[order]
        new = np.ones(len(a), bool)
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        starts = np.flatnonzero(new)
        sab = np.add.reduceat(ab, starts)
        sba = np.add.reduceat(ba, starts)
        both = (sab > 0) & (sba > 0)
        return pa.table(
            {
                "a": pa.array(a[starts][both], pa.int64()),
                "b": pa.array(b[starts][both], pa.int64()),
                "n_ab": pa.array(sab[both], pa.int64()),
                "n_ba": pa.array(sba[both], pa.int64()),
            },
            schema=out_schema,
        )

    return exchange(edges.map_batches(partials, batch_format="pyarrow"), ["a", "b"], finish)


def inlink_concentration(links, *, src_host_col: str = "src_host",
                         dst_col: str = "dst"):
    """Dataset(src_host, dst) → Dataset(doc_id, n_inlinks,
    top_host_share): for every link target, how concentrated its
    in-links are in a single source host — the classic nepotistic-link
    (spam farm) signal: organically popular pages draw links from many
    hosts, farms from one.

    Map-side (dst, host) partial counts per block, ONE hash exchange on
    the target, then a two-level segmented reduce (re-aggregate split
    partials by (dst, host), then per-dst max and sum).  The share is a
    single IEEE division of two exact ints, so results hash-compare."""
    from bitfunnel_ray.ops.exchange import exchange

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_inlinks", pa.int64()),
            ("top_host_share", pa.float64()),
        ]
    )

    def partials(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "dst": t[dst_col].cast(pa.int64()),
                    "host": pc.cast(t[src_host_col], pa.string()),
                }
            )
            .group_by(["dst", "host"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"dst": g["dst"], "host": g["host"], "c": g["count_all"].cast(pa.int64())}
        )

    def finish(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return out_schema.empty_table()
        dst = t["dst"].to_numpy(zero_copy_only=False)
        host = t["host"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        # re-aggregate split partials: sort by (dst, host), sum runs
        order = np.lexsort((host, dst))
        dst, host, c = dst[order], host[order], c[order]
        new_pair = np.ones(len(dst), bool)
        new_pair[1:] = (dst[1:] != dst[:-1]) | (host[1:] != host[:-1])
        starts = np.flatnonzero(new_pair)
        pdst = dst[starts]
        pc_ = np.add.reduceat(c, starts)
        # per-dst: total and max over the (now unique) host counts
        dstarts = np.flatnonzero(np.diff(pdst, prepend=pdst[0] - 1))
        total = np.add.reduceat(pc_, dstarts)
        mx = np.maximum.reduceat(pc_, dstarts)
        return pa.table(
            {
                "doc_id": pa.array(pdst[dstarts], pa.int64()),
                "n_inlinks": pa.array(total, pa.int64()),
                "top_host_share": pa.array(mx / total.astype(np.float64), pa.float64()),
            },
            schema=out_schema,
        )

    return exchange(
        links.select_columns([src_host_col, dst_col]).map_batches(
            partials, batch_format="pyarrow"
        ),
        ["dst"],
        finish,
    )


def resolve_redirects(redirects, *, max_rounds: int = 16):
    """Dataset(src, dst) — a redirect map, each ``src`` exactly one
    target — → Dataset(src, final, resolved) following chains to their
    terminal URL by POINTER DOUBLING: round r composes the map with
    itself, so after r rounds every row has followed 2^r steps.  A
    64-hop chain resolves in 6 distributed joins instead of 64 — the
    difference between feasible and not on a crawl-scale redirect set.

    Each round is ONE co-partitioned left-outer join (ops/joins.py
    ``left_join_cp``: state.final against the state's own src) + a
    vectorized coalesce; the state is
    materialized per round (O(|map|); the round count is
    ceil(log2(longest chain)), early-stopped at the first fixpoint).
    ``resolved`` is False for rows still moving after ``max_rounds``
    composition rounds — i.e. members of (or chains into) redirect
    CYCLES, which have no terminal; callers treat those as crawl
    errors.  A duplicate ``src`` key that any chain passes through
    fans the join out — detected (row-count growth) and raised; a
    duplicate no chain references resolves both its contradictory rows
    independently (two output rows for that src)."""
    import ray.data as rd

    from bitfunnel_ray.ops.joins import left_join_cp

    i64 = pa.int64()

    def lookup(state, col: str, value):
        """state left-joined on final == src against a (src → col) map
        of the state itself: col is null where final is not a src."""
        rhs = state.map_batches(
            lambda t: pa.table({"final": t["src"], col: value(t)}), batch_format="pyarrow"
        )
        return left_join_cp(
            state, rhs, key="final",
            left_schema=pa.schema([("src", i64), ("final", i64)]),
            right_schema=pa.schema([("final", i64), (col, i64)]),
        )

    state = redirects.map_batches(
        lambda t: pa.table(
            {"src": t["src"].cast(pa.int64()), "final": t["dst"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    ).materialize()
    n_rows = state.count()
    if n_rows == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "final": pa.array([], pa.int64()),
                    "resolved": pa.array([], pa.bool_()),
                }
            )
        )
    for _ in range(max_rounds):
        joined = lookup(state, "jdst", lambda t: t["final"])

        def advance(t: pa.Table) -> pa.Table:
            moved = pc.and_kleene(
                pc.is_valid(t["jdst"]), pc.not_equal(t["jdst"], t["final"])
            )
            moved = pc.fill_null(moved, False)
            return pa.table(
                {
                    "src": t["src"],
                    "final": pc.coalesce(t["jdst"], t["final"]),
                    "moved": pc.cast(moved, pa.int64()),
                }
            )

        state = joined.map_batches(advance, batch_format="pyarrow").materialize()
        if state.count() != n_rows:
            raise ValueError(
                "resolve_redirects: duplicate src keys in the redirect map "
                "(join fan-out detected)"
            )
        n_moved = int(state.sum("moved") or 0)
        state = state.select_columns(["src", "final"]).materialize()
        if n_moved == 0:
            break

    # resolved ⇔ final is not itself a redirect source (cycle members
    # and chains into cycles keep a src as their final after max_rounds)
    out = lookup(state, "marker", lambda t: pa.array(np.ones(len(t), np.int64)))
    return out.map_batches(
        lambda t: pa.table(
            {
                "src": t["src"],
                "final": t["final"],
                "resolved": pc.is_null(t["marker"]),
            }
        ),
        batch_format="pyarrow",
    )


# --- PageRank --------------------------------------------------------------


def _uniq_finish(t: pa.Table) -> pa.Table:
    """Post-exchange node dedup (shared by pagerank/trustrank/label
    propagation/BFS — previously copy-pasted per function)."""
    return pa.table(
        {"node": pa.array(np.unique(t["node"].to_numpy(zero_copy_only=False)), pa.int64())}
    )


def _deg_partials_tagged(t: pa.Table) -> pa.Table:
    """Per-block out-degree partials over a tagged edge stream (src in
    ``key``): (node, deg) rows with zero-deg rows for dst-only nodes so
    the exchange sees every node (shared by pagerank/trustrank)."""
    src = t["key"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    u, c = np.unique(src, return_counts=True)
    v = np.unique(dst)
    return pa.table(
        {
            "node": pa.array(np.concatenate([u, v]), pa.int64()),
            "deg": pa.array(
                np.concatenate([c.astype(np.int64), np.zeros(len(v), np.int64)]),
                pa.int64(),
            ),
        }
    )


def _seg_sum_by(key_col: str, val_cols: tuple):
    """Per-block segmented integer sum grouped by ``key_col`` — the
    finish kernel after a hash repartition on the key.  Measured ~6×
    faster end-to-end than Dataset.groupby().sum() at 2.4M partial rows
    (the hash-aggregate operator's per-launch cost dominates there)."""

    def kern(t: pa.Table) -> pa.Table:
        schema = pa.schema([(key_col, pa.int64())] + [(c, pa.int64()) for c in val_cols])
        if len(t) == 0:
            return schema.empty_table()
        k = t[key_col].to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        ks = k[order]
        starts = np.flatnonzero(np.diff(ks, prepend=ks[0] - 1))
        cols = {key_col: pa.array(ks[starts], pa.int64())}
        for c in val_cols:
            v = t[c].to_numpy(zero_copy_only=False)
            cols[c] = pa.array(np.add.reduceat(v[order], starts), pa.int64())
        return pa.table(cols, schema=schema)

    return kern


def _tag_state(t: pa.Table) -> pa.Table:
    node = t["node"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "key": pa.array(node, pa.int64()),
            "dst": pa.array(node, pa.int64()),
            "rank": t["rank"].cast(pa.int64()),
            "outdeg": t["outdeg"].cast(pa.int64()),
            "is_state": pa.array(np.ones(len(t), np.int8)),
        },
        schema=_UNION_SCHEMA,
    )


def _tag_edges(t: pa.Table) -> pa.Table:
    z = np.zeros(len(t), np.int64)
    return pa.table(
        {
            "key": t["src"].cast(pa.int64()),
            "dst": t["dst"].cast(pa.int64()),
            "rank": pa.array(z, pa.int64()),
            "outdeg": pa.array(z, pa.int64()),
            "is_state": pa.array(np.zeros(len(t), np.int8)),
        },
        schema=_UNION_SCHEMA,
    )


def _contrib_block(t: pa.Table) -> pa.Table:
    if len(t) == 0:
        return _CONTRIB_SCHEMA.empty_table()
    key = t["key"].to_numpy(zero_copy_only=False)
    rank = t["rank"].to_numpy(zero_copy_only=False)
    outdeg = t["outdeg"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    is_state = t["is_state"].to_numpy(zero_copy_only=False)
    sidx = np.flatnonzero(is_state == 1)
    order = np.argsort(key[sidx], kind="stable")
    skeys = key[sidx][order]
    sdeg = outdeg[sidx][order]
    scon = np.where(sdeg > 0, rank[sidx][order] // np.maximum(sdeg, 1), 0)
    eidx = np.flatnonzero(is_state == 0)
    pos = np.searchsorted(skeys, key[eidx])
    if len(eidx) and not (
        (pos < len(skeys)).all() and (skeys[np.minimum(pos, len(skeys) - 1)] == key[eidx]).all()
    ):
        raise ValueError("pagerank: edge src not in node state (key routing broke)")
    return pa.table(
        {
            "dst": pa.array(np.concatenate([dst[eidx], key[sidx]]), pa.int64()),
            "contrib": pa.array(
                np.concatenate([scon[pos], np.zeros(len(sidx), np.int64)]),
                pa.int64(),
            ),
            "outdeg": pa.array(
                np.concatenate([np.zeros(len(eidx), np.int64), outdeg[sidx]]),
                pa.int64(),
            ),
            "is_state": pa.array(
                np.concatenate([np.zeros(len(eidx), np.int8), np.ones(len(sidx), np.int8)])
            ),
        },
        schema=_CONTRIB_SCHEMA,
    )


def _update_block(
    t: pa.Table, *, base: int, dang: int, num: int, den: int, acc=None, it: int = 0
) -> pa.Table:
    if len(t) == 0:
        return _STATE_SCHEMA.empty_table()
    dst = t["dst"].to_numpy(zero_copy_only=False)
    contrib = t["contrib"].to_numpy(zero_copy_only=False)
    outdeg = t["outdeg"].to_numpy(zero_copy_only=False)
    is_state = t["is_state"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(dst, kind="stable")
    d = dst[order]
    starts = np.flatnonzero(np.diff(d, prepend=d[0] - 1))
    inflow = np.add.reduceat(contrib[order], starts)
    odeg = np.add.reduceat((outdeg * is_state)[order], starts)
    n_state = np.add.reduceat(is_state[order], starts)
    if not (n_state == 1).all():
        raise ValueError("pagerank: node missing or duplicated in state stream")
    rank = base + dang + (inflow * num) // den
    if acc is not None:
        # next iteration's dangling mass rides this pass: blocks are
        # disjoint by dst, so min-node is a stable idempotency key
        _acc_put(acc, it, int(d[starts[0]]), int(np.sum(rank[odeg == 0])))
    return pa.table(
        {
            "node": pa.array(d[starts], pa.int64()),
            "rank": pa.array(rank, pa.int64()),
            "outdeg": pa.array(odeg, pa.int64()),
        },
        schema=_STATE_SCHEMA,
    )


def _prop_contrib_block(t: pa.Table) -> pa.Table:
    """Tag-union block → (dst, contrib) rows: every edge emits its key's
    state value toward ``dst``; every state row emits a zero self row so
    the node universe survives the reduce."""
    if len(t) == 0:
        return _CONTRIB_SCHEMA.empty_table()
    key = t["key"].to_numpy(zero_copy_only=False)
    val = t["rank"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    is_state = t["is_state"].to_numpy(zero_copy_only=False)
    sidx = np.flatnonzero(is_state == 1)
    order = np.argsort(key[sidx], kind="stable")
    skeys = key[sidx][order]
    svals = val[sidx][order]
    eidx = np.flatnonzero(is_state == 0)
    pos = np.searchsorted(skeys, key[eidx])
    if len(eidx) and not (
        (pos < len(skeys)).all() and (skeys[np.minimum(pos, len(skeys) - 1)] == key[eidx]).all()
    ):
        raise ValueError("propagate: edge endpoint not in node state (key routing broke)")
    n_e, n_s = len(eidx), len(sidx)
    return pa.table(
        {
            "dst": pa.array(np.concatenate([dst[eidx], key[sidx]]), pa.int64()),
            "contrib": pa.array(
                np.concatenate([svals[pos], np.zeros(n_s, np.int64)]), pa.int64()
            ),
            "outdeg": pa.array(np.zeros(n_e + n_s, np.int64)),
            "is_state": pa.array(
                np.concatenate([np.zeros(n_e, np.int8), np.ones(n_s, np.int8)])
            ),
        },
        schema=_CONTRIB_SCHEMA,
    )


def _prop_sum_block(t: pa.Table, *, acc=None, it: int = 0) -> pa.Table:
    if len(t) == 0:
        return _STATE_SCHEMA.empty_table()
    dst = t["dst"].to_numpy(zero_copy_only=False)
    contrib = t["contrib"].to_numpy(zero_copy_only=False)
    is_state = t["is_state"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(dst, kind="stable")
    d = dst[order]
    starts = np.flatnonzero(np.diff(d, prepend=d[0] - 1))
    inflow = np.add.reduceat(contrib[order], starts)
    n_state = np.add.reduceat(is_state[order], starts)
    if not (n_state == 1).all():
        raise ValueError("propagate: node missing or duplicated in state stream")
    if acc is not None:
        _acc_put(acc, it, int(d[starts[0]]), int(np.sum(inflow)))
    return pa.table(
        {
            "node": pa.array(d[starts], pa.int64()),
            "rank": pa.array(inflow, pa.int64()),
            "outdeg": pa.array(np.zeros(len(starts), np.int64)),
        },
        schema=_STATE_SCHEMA,
    )


def _tag_edges_directed(edges, *, reverse: bool):
    """Edges → tagged union rows keyed on src (reverse=False) or dst
    (reverse=True).  Call once per direction and materialize: each
    propagation re-shuffles the rows but never re-derives them."""

    def tag(t: pa.Table) -> pa.Table:
        a, b = ("dst", "src") if reverse else ("src", "dst")
        z = np.zeros(len(t), np.int64)
        return pa.table(
            {
                "key": t[a].cast(pa.int64()),
                "dst": t[b].cast(pa.int64()),
                "rank": pa.array(z, pa.int64()),
                "outdeg": pa.array(z, pa.int64()),
                "is_state": pa.array(np.zeros(len(t), np.int8)),
            },
            schema=_UNION_SCHEMA,
        )

    return edges.map_batches(tag, batch_format="pyarrow")


def _propagate(state, tagged_edges, send, receive):
    """One synchronous round of the tag-union layout every iterative
    graph kernel here shares: the node state rides the pre-tagged edge
    stream through one exchange on the source (``send`` turns each
    node's value into per-edge messages), and the messages through a
    second exchange on the destination (``receive`` folds them into the
    next state)."""
    from bitfunnel_ray.ops.exchange import exchange

    stream = state.map_batches(_tag_state, batch_format="pyarrow").union(tagged_edges)
    return exchange(exchange(stream, ["key"], send), ["dst"], receive)


def _out_degrees(tagged_edges):
    """Dataset(node, deg) over the tagged edge stream's node universe."""
    from bitfunnel_ray.ops.exchange import exchange

    return exchange(
        tagged_edges.map_batches(_deg_partials_tagged, batch_format="pyarrow"),
        ["node"],
        _seg_sum_by("node", ("deg",)),
    )


def trustrank(
    edges,
    seed_mod: int,
    *,
    n_iter: int = 3,
    scale: int = 10**12,
    damping_num: int = 17,
    damping_den: int = 20,
):
    """Seed-personalized PageRank (TrustRank, Gyöngyi et al. VLDB 2004):
    teleportation mass goes ONLY to trusted seed pages, so trust decays
    with link distance from the seed set and spam farms — however
    densely self-linked — accumulate little.  Integer fixed-point like
    ``pagerank`` (bit-exact under any layout).

    Seeds are the nodes with ``node % seed_mod == 0`` — a vectorized
    PREDICATE rather than a broadcast id set, so the update kernel
    recomputes membership per block with zero shipped state; swap in a
    different predicate (or a broadcast sorted array + searchsorted) for
    arbitrary seed sets, the kernels don't change.

    Update rule (seeds = S, |S| = count of seed NODES in the universe):

        rank_{t+1}[d] = [d∈S]·( (scale·(den-num))//den//|S|
                               + (dang_t·num)//den//|S| )
                        + (sum_{s→d} rank_t[s]//outdeg(s))·num//den

    starting from rank_0 = scale//|S| on seeds, 0 elsewhere."""
    from functools import partial

    tagged_edges = edges.map_batches(_tag_edges, batch_format="pyarrow").materialize()

    deg = _out_degrees(tagged_edges).materialize()
    n_seeds = int(
        sum(
            r["s"]
            for r in deg.map_batches(
                lambda t: pa.table(
                    {
                        "s": pa.array(
                            [int((t["node"].to_numpy(zero_copy_only=False) % seed_mod == 0).sum())],
                            pa.int64(),
                        )
                    }
                ),
                batch_size=None,
                batch_format="pyarrow",
            ).take_all()
        )
    )
    if n_seeds == 0:
        raise ValueError("trustrank: no seed nodes in the graph universe")
    r0 = scale // n_seeds
    state = deg.map_batches(
        lambda t: pa.table(
            {
                "node": t["node"],
                "rank": pa.array(
                    np.where(
                        t["node"].to_numpy(zero_copy_only=False) % seed_mod == 0, r0, 0
                    ).astype(np.int64)
                ),
                "outdeg": t["deg"],
            },
            schema=_STATE_SCHEMA,
        ),
        batch_format="pyarrow",
    ).materialize()
    base = (scale * (damping_den - damping_num)) // damping_den // n_seeds

    def update_trust(
        t: pa.Table, *, base: int, dang: int, num: int, den: int, acc=None, it: int = 0
    ) -> pa.Table:
        out = _update_block(t, base=0, dang=0, num=num, den=den)
        node = out["node"].to_numpy(zero_copy_only=False)
        seed = (node % seed_mod == 0).astype(np.int64)
        rank = out["rank"].to_numpy(zero_copy_only=False) + seed * (base + dang)
        if acc is not None and len(node):
            odeg = out["outdeg"].to_numpy(zero_copy_only=False)
            _acc_put(acc, it, int(node[0]), int(np.sum(rank[odeg == 0])))
        return out.set_column(1, "rank", pa.array(rank, pa.int64()))

    import ray as _ray

    acc = _new_acc()
    dangling = _scalar_sum_where_zero_outdeg(state)
    for it in range(n_iter):
        dang = (dangling * damping_num) // damping_den // n_seeds
        state = _propagate(
            state,
            tagged_edges,
            _contrib_block,
            partial(update_trust, base=base, dang=dang,
                    num=damping_num, den=damping_den, acc=acc, it=it),
        ).materialize()
        if it + 1 < n_iter:
            dangling = _ray.get(acc.total.remote(it))
    return state.select_columns(["node", "rank"])


def hits(edges, *, n_iter: int = 2, scale: int = 10**6):
    """Dataset(src, dst) → Dataset(node, hub, authority) — Kleinberg's
    HITS after ``n_iter`` synchronous iterations, integer fixed-point.

    Update rule (all int64; ``//`` = floor; each normalization divides
    by a SCALAR total, so every step is order-independent and the
    distributed result is bit-exact under any block layout):

        a_raw[v] = sum_{u->v} h[u];  a[v] = a_raw[v]*scale // sum(a_raw)
        h_raw[u] = sum_{u->v} a[v];  h[u] = h_raw[u]*scale // sum(h_raw)

    starting from h = scale per node.  Multi-edges contribute multiply.
    Overflow bound: ``a_raw*scale <= sum(a_raw)*scale ~ scale^2 *
    avg_outdeg`` must stay < 2^63 — the default scale=1e6 is safe to
    average degree ~9e6.  Per iteration: 2 propagations x 2 exchanges +
    2 scalar aggregates; edges never collected.
    """
    from functools import partial

    from bitfunnel_ray.ops.exchange import exchange

    # tag + materialize the forward stream ONCE; the reverse stream and
    # the node universe both derive from it (upstream executes once)
    fwd = _tag_edges_directed(edges, reverse=False).materialize()

    def swap(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["dst"],
                "dst": t["key"],
                "rank": t["rank"],
                "outdeg": t["outdeg"],
                "is_state": t["is_state"],
            },
            schema=_UNION_SCHEMA,
        )

    rev = fwd.map_batches(swap, batch_format="pyarrow").materialize()

    def uniq_block(t: pa.Table) -> pa.Table:
        vals = np.concatenate(
            [
                t["key"].to_numpy(zero_copy_only=False),
                t["dst"].to_numpy(zero_copy_only=False),
            ]
        ) if len(t) else np.array([], np.int64)
        return pa.table({"node": pa.array(np.unique(vals), pa.int64())})

    node_col = exchange(fwd.map_batches(uniq_block, batch_format="pyarrow"), ["node"], _uniq_finish)
    z64 = lambda t: pa.array(np.zeros(len(t), np.int64))  # noqa: E731
    h = node_col.map_batches(
        lambda t: pa.table(
            {
                "node": t["node"].cast(pa.int64()),
                "rank": pa.array(np.full(len(t), scale, np.int64)),
                "outdeg": z64(t),
            },
            schema=_STATE_SCHEMA,
        ),
        batch_format="pyarrow",
    ).materialize()
    if h.count() == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "hub": pa.array([], pa.int64()),
                    "authority": pa.array([], pa.int64()),
                }
            )
        )

    def normalize(raw, total):
        if total <= 0:
            return raw
        return raw.map_batches(
            lambda t: t.set_column(
                1,
                "rank",
                pc.divide(
                    pc.multiply(t["rank"].cast(pa.int64()), pa.scalar(scale, pa.int64())),
                    pa.scalar(total, pa.int64()),
                ),
            ),
            batch_format="pyarrow",
        ).materialize()

    import ray as _ray

    acc = _new_acc()

    def hop(state, tagged, it):
        # each sum block side-puts its Σ rank partial, so normalizing
        # needs no separate pass over the sums
        raw = _propagate(
            state, tagged, _prop_contrib_block, partial(_prop_sum_block, acc=acc, it=it)
        ).materialize()
        return normalize(raw, _ray.get(acc.total.remote(it)))

    a = None
    for i in range(n_iter):
        a = hop(h, fwd, 2 * i)
        h = hop(a, rev, 2 * i + 1)

    hub = h.map_batches(
        lambda t: pa.table({"node": t["node"], "hub": t["rank"]}),
        batch_format="pyarrow",
    )
    auth = a.map_batches(
        lambda t: pa.table({"node": t["node"], "authority": t["rank"]}),
        batch_format="pyarrow",
    )
    from bitfunnel_ray.ops.joins import inner_join_cp

    # engine's co-partitioned join (not Dataset.join — it dies on the
    # zero-column empty blocks an empty shuffle partition emits upstream)
    return inner_join_cp(hub, auth, key="node")


class _ScalarParts:
    """Zero-CPU accumulator actor: per-iteration integer partials keyed
    by (iteration, block_key).  Keyed puts make Ray task retries
    idempotent (a re-executed block overwrites its own slot), and the
    integer sum is order-independent, so ``total`` is deterministic.
    Lets an iteration's update pass emit the scalar the NEXT iteration
    needs (dangling mass / normalization total) as a side effect,
    instead of paying a separate full pass + take_all per iteration."""

    def __init__(self):
        self._parts: dict = {}

    def put(self, it: int, key: int, value: int) -> None:
        self._parts[(it, key)] = int(value)

    def total(self, it: int) -> int:
        return sum(v for (i, _k), v in self._parts.items() if i == it)


def _new_acc():
    import ray

    return ray.remote(num_cpus=0)(_ScalarParts).remote()


def _acc_put(acc, it: int, key: int, value: int) -> None:
    """Synchronous put from inside a map task: the ray.get barrier
    guarantees the actor recorded the partial before the task (and thus
    the iteration's materialize) completes."""
    import ray

    ray.get(acc.put.remote(it, key, value))


def _scalar_sum_where_zero_outdeg(state) -> int:
    """Σ rank over dangling nodes — per-block int partials gathered with
    take_all (P tiny rows), which skips the hash-aggregate launch cost a
    Dataset.sum() pays per call (matters: this runs every iteration)."""
    parts = state.map_batches(
        lambda t: pa.table(
            {
                "d": pa.array(
                    [
                        int(
                            np.sum(
                                t["rank"].to_numpy(zero_copy_only=False)[
                                    t["outdeg"].to_numpy(zero_copy_only=False) == 0
                                ]
                            )
                        )
                    ],
                    pa.int64(),
                )
            }
        ),
        batch_size=None,
        batch_format="pyarrow",
    ).take_all()
    return sum(r["d"] for r in parts)


def pagerank(
    edges,
    *,
    n_iter: int = 3,
    scale: int = 10**12,
    damping_num: int = 17,
    damping_den: int = 20,
):
    """Dataset(src:int, dst:int) → Dataset(node, rank) — integer
    fixed-point PageRank after ``n_iter`` synchronous iterations.

    Exact update rule (all ops int64; ``//`` = floor; every sum is
    order-independent, so the distributed result is bit-exact):

        base       = (scale * (den - num)) // den // N
        dangterm_t = (sum(rank_t[v] for outdeg(v)=0) * num) // den // N
        rank_{t+1}[d] = base + dangterm_t
                        + (sum_{s->d} rank_t[s] // outdeg(s)) * num // den

    Multi-edges contribute multiply (edge multiplicity = weight).
    """
    from functools import partial

    # tag + materialize the edge stream ONCE and derive everything else
    # from it (degrees, every iteration's shuffle input) — the upstream
    # edge pipeline executes exactly once per pagerank call
    tagged_edges = edges.map_batches(_tag_edges, batch_format="pyarrow").materialize()

    state = _out_degrees(tagged_edges).map_batches(
        lambda t: pa.table(
            {
                "node": t["node"],
                "rank": pa.array(np.zeros(len(t), np.int64)),
                "outdeg": t["deg"],
            },
            schema=_STATE_SCHEMA,
        ),
        batch_format="pyarrow",
    ).materialize()
    n_nodes = state.count()
    if n_nodes == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "rank": pa.array([], pa.int64())}))
    r0 = scale // n_nodes
    state = state.map_batches(
        lambda t: t.set_column(1, "rank", pa.array(np.full(len(t), r0, np.int64))),
        batch_format="pyarrow",
    ).materialize()
    base = (scale * (damping_den - damping_num)) // damping_den // n_nodes

    import ray as _ray

    acc = _new_acc()
    # iteration 0 reads the uniform r0 state — one scalar pass; every
    # later iteration's dangling mass rides the previous update pass
    dangling = _scalar_sum_where_zero_outdeg(state)
    for it in range(n_iter):
        dang = (dangling * damping_num) // damping_den // n_nodes
        state = _propagate(
            state,
            tagged_edges,
            _contrib_block,
            partial(_update_block, base=base, dang=dang,
                    num=damping_num, den=damping_den, acc=acc, it=it),
        ).materialize()
        if it + 1 < n_iter:
            dangling = _ray.get(acc.total.remote(it))
    return state.select_columns(["node", "rank"])
