"""Distributed connected components over an edge Dataset, and the
dedup application that needs it: collapse near-duplicate PAIRS (the
output of minhash/simhash/embedding dedup — ops/dedup.py) into CLUSTERS
and keep one canonical document per cluster.

Algorithm: alternating large-star / small-star (Kiveris, Lattanzi,
Mirrokni, Rastogi, Vassilvitskii, "Connected Components in MapReduce and
Beyond", SoCC 2014 — a public algorithm; the reference engine has no
equivalent, this is training-data-pipeline surface).  Each half-round is
one hash exchange on the source node + a vectorized per-block kernel
(segment-min via ``np.minimum.reduceat`` — no per-group python), and the
edge set converges to stars rooted at each component's minimum node in
O(log n) rounds even on adversarial path graphs, where plain label
propagation needs O(diameter).

Scale notes (100 TB): an iterative algorithm materializes each
round's edge set (``materialize()`` per round is inherent, not a leak);
edge volume only ever shrinks after round 1 (stars), and the exchange
key is the int64 node id — no payloads move.  Degenerate skew (one node
in a billion edges) is bounded by the same hash-partition contract as
ops/dedup.py: a node's edges co-locate, and the per-block kernel is
O(E log E) in the block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


_ASSIGN_SCHEMA = pa.schema([("node", pa.int64()), ("component", pa.int64())])


def _empty_assign() -> pa.Table:
    return pa.table(
        {"node": pa.array([], pa.int64()), "component": pa.array([], pa.int64())}
    )


def _run_min(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For rows sorted by ``u``: per-run (run start index, run length,
    min(v) within run).  One reduceat, no python per group."""
    new = np.empty(len(u), dtype=bool)
    new[0] = True
    new[1:] = u[1:] != u[:-1]
    starts = np.flatnonzero(new)
    lens = np.diff(np.append(starts, len(u)))
    mins = np.minimum.reduceat(v, starts)
    return starts, lens, mins


def _large_star_block(t: pa.Table) -> pa.Table:
    """Large-star on one node-partitioned block of SYMMETRIZED rows
    (u, v): for each node u, m = min(Γ(u) ∪ {u}); emit (v, m) for every
    neighbor v > u.  All emitted edges satisfy first > second."""
    if len(t) == 0:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    u = t["a"].to_numpy(zero_copy_only=False)
    v = t["b"].to_numpy(zero_copy_only=False)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    starts, lens, mins = _run_min(u, v)
    m_run = np.minimum(mins, u[starts])  # min(Γ(u) ∪ {u})
    m = np.repeat(m_run, lens)
    keep = v > u
    # v > u ≥ m, and v == m impossible under keep; self-loops can't emerge
    return pa.table({"a": pa.array(v[keep]), "b": pa.array(m[keep])})


def _small_star_block(t: pa.Table) -> pa.Table:
    """Small-star on one node-partitioned block of rows (u, v) with
    u > v: for each u, m = min(Γ<(u)); emit (u, m) and (v, m) for every
    v ∈ Γ<(u), v ≠ m.  Emitted edges satisfy first > second."""
    if len(t) == 0:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    u = t["a"].to_numpy(zero_copy_only=False)
    v = t["b"].to_numpy(zero_copy_only=False)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    # in-block dedupe is GLOBAL dedupe: the exchange co-locates all copies
    # of (u, v) in u's block
    first = np.empty(len(u), dtype=bool)
    first[0] = True
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    u, v = u[first], v[first]
    starts, lens, mins = _run_min(u, v)
    m = np.repeat(mins, lens)
    keep = v != m
    a = np.concatenate([v[keep], u[starts]])
    b = np.concatenate([m[keep], mins])
    return pa.table({"a": pa.array(a), "b": pa.array(b)})


def _symmetrize(t: pa.Table) -> pa.Table:
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "a": pa.array(np.concatenate([a, b])),
            "b": pa.array(np.concatenate([b, a])),
        }
    )


def _edge_fingerprint(edges: "ray.data.Dataset") -> tuple[int, ...]:
    """(n_edges, multiset hash0..2) — the convergence probe.  One
    distributed aggregate; the driver receives four scalars.

    Each edge gets a FULL splitmix64-finalized hash before summing: a
    round of this algorithm rewrites path edges (c,b)→(c,a) with a,b
    adjacent ints, and without avalanche those deltas are small ± values
    that measurably cancel in a plain sum (observed: two distinct
    131-edge rounds colliding).  The 64-bit hash is summed as three
    22-bit chunks so every per-block partial and the cross-block Sum
    stay exact in int64 (layout-independent up to ~2^41 edges) — a
    false "converged" now needs a ~2^-66 three-sum collision."""

    C1 = np.uint64(0x9E3779B97F4A7C15)
    M = np.uint64((1 << 22) - 1)

    def fp(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            z = a * C1 ^ (b + np.uint64(0xC2B2AE3D27D4EB4F))
            z ^= z >> np.uint64(30)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
        return pa.table(
            {
                "n": pa.array([len(t)], pa.int64()),
                "h0": pa.array([int(np.sum(z & M))], pa.int64()),
                "h1": pa.array([int(np.sum((z >> np.uint64(22)) & M))], pa.int64()),
                "h2": pa.array([int(np.sum(z >> np.uint64(44)))], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    part = edges.map_batches(fp, batch_format="pyarrow")
    tot = part.aggregate(
        Sum("n", alias_name="n"),
        Sum("h0", alias_name="h0"),
        Sum("h1", alias_name="h1"),
        Sum("h2", alias_name="h2"),
    )
    return tuple(int(tot[k] or 0) for k in ("n", "h0", "h1", "h2"))


def connected_components(
    edges: "ray.data.Dataset",
    *,
    cols: tuple[str, str] = ("doc_a", "doc_b"),
    max_rounds: int = 64,
) -> "ray.data.Dataset":
    """Edge Dataset → (node, component) assignments, component = the
    minimum node id reachable from ``node``.  Every node that appears in
    an edge gets a row (roots included, component = itself); isolated
    nodes never enter the edge set, so callers treat missing as
    self-rooted.

    Each round = large-star + small-star, each one hash exchange + one
    vectorized block kernel; converged when the edge multiset fingerprint
    is stable (at convergence all edges are (node > root) stars, so the
    final edge set IS the non-root assignment table)."""
    import ray.data as rd

    from bitfunnel_ray.ops.exchange import exchange

    e = edges.select_columns(list(cols)).rename_columns(["a", "b"])

    def norm(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        return pa.table(
            {"a": pa.array(np.maximum(a, b)), "b": pa.array(np.minimum(a, b))}
        )

    e = e.map_batches(norm, batch_format="pyarrow").materialize()
    prev = _edge_fingerprint(e)
    if prev[0] == 0:
        return rd.from_arrow(_empty_assign())
    for _ in range(max_rounds):
        big = exchange(
            e.map_batches(_symmetrize, batch_format="pyarrow"), ["a"], _large_star_block
        )
        e = exchange(big, ["a"], _small_star_block).materialize()
        cur = _edge_fingerprint(e)
        if cur == prev:
            break
        prev = cur
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds"
        )

    # converged stars: edges (node > root, root).  Assignments = those
    # rows + one self row per distinct root (root extraction is one more
    # keyed exchange + per-block unique — roots are few).
    def root_rows(t: pa.Table) -> pa.Table:
        r = np.unique(t["b"].to_numpy(zero_copy_only=False))
        return pa.table({"a": pa.array(r), "b": pa.array(r)})

    roots = exchange(e, ["b"], root_rows)
    return e.union(roots).rename_columns(["node", "component"])


def dedup_canonical(
    corpus: "ray.data.Dataset",
    pairs,
    *,
    key: str = "doc_id",
) -> "ray.data.Dataset":
    """Apply near-dup pairs to the corpus: transitive clusters collapse
    to their minimum-``key`` member; every other cluster member is
    dropped; documents in no pair pass through.  ``pairs`` is a Dataset
    or pyarrow Table with (doc_a, doc_b) — e.g. ``minhash_dedup_pairs``
    output.

    The drop set (non-canonical nodes) is itself a Dataset, so the
    removal is the distributed anti-join (one co-partitioning exchange,
    ops/joins.py) — no driver materialization of the cluster table at
    any point."""
    import ray.data as rd

    from bitfunnel_ray.ops.joins import anti_join

    if isinstance(pairs, pa.Table):
        if len(pairs) == 0:
            return corpus  # no near-dups found: nothing to drop
        pairs = rd.from_arrow(pairs)
    elif pairs.count() == 0:
        # empty-Dataset select_columns keeps the stale schema (Ray quirk),
        # so short-circuit rather than run the component rounds on nothing
        return corpus
    assign = connected_components(pairs)
    key_type = corpus.schema().base_schema.field(key).type

    def non_canonical(t: pa.Table) -> pa.Table:
        keep = np.flatnonzero(
            t["node"].to_numpy(zero_copy_only=False)
            != t["component"].to_numpy(zero_copy_only=False)
        )
        # cast to the corpus key dtype (doc_id is uint64 there) so the
        # anti-join's unioned schema is stable
        return pa.table({key: t["node"].take(pa.array(keep)).cast(key_type)})

    drop = assign.map_batches(non_canonical, batch_format="pyarrow")
    return anti_join(corpus, drop, key=key, broadcast=False)
