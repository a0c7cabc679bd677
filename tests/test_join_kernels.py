"""Property tests for the vectorized as-of-join and grouped-top-k block
kernels against brute-force python reference implementations (kernel
level — no Ray session needed)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfunnel_ray.ops.grouped import _topk_block
from bitfunnel_ray.ops.joins import _asof_block

rows_st = st.lists(
    st.tuples(
        st.integers(0, 4),      # key
        st.integers(0, 20),     # ts
        st.integers(0, 1),      # side (0=right, 1=left)
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(rows_st)
def test_asof_block_matches_bruteforce(rows):
    # ids unique per row, so the max-id tie-break is well-defined
    k = np.array([r[0] for r in rows], dtype=np.int64)
    ts = np.array([r[1] for r in rows], dtype=np.int64)
    side = np.array([r[2] for r in rows], dtype=np.int8)
    rid = np.arange(len(rows), dtype=np.int64)
    t = pa.table({"key": pa.array(k), "ts_us": pa.array(ts), "rid": pa.array(rid)})
    got = _asof_block(t.filter(pa.array(side == 1)), t.filter(pa.array(side == 0))).to_pandas()
    got_map = {int(r.left_id): (int(r.right_id), int(r.right_ts_us)) for r in got.itertuples()}

    want = {}
    for i in range(len(rows)):
        if side[i] != 1:
            continue
        cands = [
            j for j in range(len(rows))
            if side[j] == 0 and k[j] == k[i] and ts[j] <= ts[i]
        ]
        if cands:
            best = max(cands, key=lambda j: (ts[j], rid[j]))
            want[int(rid[i])] = (int(rid[best]), int(ts[best]))
    assert got_map == want


grp_st = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 9)),  # (group, value)
    min_size=1,
    max_size=50,
)


@settings(max_examples=200, deadline=None)
@given(grp_st, st.integers(1, 5), st.booleans())
def test_topk_block_matches_bruteforce(rows, kk, desc):
    g = pa.array([f"g{a}" for a, _ in rows])
    v = pa.array([b for _, b in rows], pa.int64())
    tb = pa.array(list(range(len(rows))), pa.int64())
    t = pa.table({"g": g, "v": v, "id": tb})
    got = _topk_block(
        t, group_col="g", key=None, k=kk, order_col="v",
        descending=desc, tiebreak_col="id",
    ).to_pandas()
    got_ids = sorted(got["id"].tolist())

    want_ids = []
    for grp in {a for a, _ in rows}:
        members = [(b, i) for i, (a, b) in enumerate(rows) if a == grp]
        members.sort(key=lambda m: (-m[0] if desc else m[0], m[1]))
        want_ids.extend(i for _, i in members[:kk])
    assert got_ids == sorted(want_ids)


# --- range (point-in-interval) join kernel --------------------------------

iv_rows_st = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 30), st.integers(1, 5)),  # key, start, len
    min_size=0,
    max_size=10,
)
pt_rows_st = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 40)),  # key, ts
    min_size=0,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(iv_rows_st, pt_rows_st)
def test_range_block_matches_bruteforce(ivs, pts):
    from bitfunnel_ray.ops.joins import _range_block

    # make intervals non-overlapping per key (the kernel's contract):
    # lay them end-to-end in arrival order
    clock: dict = {}
    laid = []
    for key, start, ln in ivs:
        s = max(start, clock.get(key, 0))
        laid.append((key, s, s + ln))
        clock[key] = s + ln
    n_iv, n_pt = len(laid), len(pts)
    t = pa.table(
        {
            "key": pa.array([r[0] for r in laid] + [p[0] for p in pts], pa.int64()),
            "ts_us": pa.array([r[1] for r in laid] + [p[1] for p in pts], pa.int64()),
            "rid": pa.array(list(range(n_iv)) + list(range(100, 100 + n_pt)), pa.int64()),
            "end_us": pa.array([r[2] for r in laid] + [0] * n_pt, pa.int64()),
        }
    )
    got = _range_block(t.slice(n_iv).drop_columns(["end_us"]), t.slice(0, n_iv)).to_pandas()
    got_set = set(zip(got.left_id, got.iv_id))
    want = set()
    for pid, (pk, pts_) in enumerate(pts):
        for iid, (ik, s, e) in enumerate(laid):
            if ik == pk and s <= pts_ < e:
                want.add((100 + pid, iid))
    assert got_set == want


def test_range_block_rejects_overlap():
    import pytest as _pytest

    from bitfunnel_ray.ops.joins import _range_block

    t = pa.table(
        {
            "key": pa.array([1, 1], pa.int64()),
            "ts_us": pa.array([0, 5], pa.int64()),
            "rid": pa.array([0, 1], pa.int64()),
            "end_us": pa.array([10, 15], pa.int64()),
        }
    )
    with _pytest.raises(ValueError, match="overlapping"):
        _range_block(t.slice(0, 0).drop_columns(["end_us"]), t)


# --- inner_join_cp (co-partitioned inner equi-join) -----------------------


def test_inner_join_cp_matches_bruteforce(ray_session):
    """Many-to-many semantics, payload carry, and missing-key drops all
    match a hand-computed inner join; empty-block immunity is exercised
    by routing one side through a filter that empties some partitions."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from bitfunnel_ray.ops.joins import inner_join_cp

    left = pa.table(
        {
            "k": pa.array([1, 1, 2, 3, 5], pa.int64()),
            "lv": pa.array(["a", "b", "c", "d", "e"], pa.string()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 2, 2, 4], pa.int64()),
            "rv": pa.array([10.0, 20.0, 21.0, 40.0], pa.float64()),
        }
    )
    got = (
        inner_join_cp(rd.from_arrow(left), rd.from_arrow(right), key="k")
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    want = (
        left.to_pandas()
        .merge(right.to_pandas(), on="k", how="inner")
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    assert got.values.tolist() == want.values.tolist()
    assert list(got.columns) == ["k", "lv", "rv"]

    # a side whose blocks can be EMPTY after an upstream filter (the
    # Dataset.join killer) still joins fine
    lds = rd.from_arrow(left).repartition(4).filter(expr="k >= 99")
    out = inner_join_cp(lds, rd.from_arrow(right), key="k").to_pandas()
    assert len(out) == 0


def test_inner_join_cp_rejects_column_clash(ray_session):
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from bitfunnel_ray.ops.joins import inner_join_cp

    t = pa.table({"k": pa.array([1], pa.int64()), "v": pa.array([1], pa.int64())})
    with _pytest.raises(ValueError, match="clash"):
        inner_join_cp(rd.from_arrow(t), rd.from_arrow(t), key="k")


def test_inner_join_cp_null_keys_never_match(ray_session):
    """SQL inner-join null semantics: null keys on either side join
    nothing (and don't degrade int64 keys to float64)."""
    import pyarrow as pa
    import ray.data as rd

    from bitfunnel_ray.ops.joins import inner_join_cp

    left = pa.table(
        {"k": pa.array([1, None, 3], pa.int64()), "lv": pa.array([1, 2, 3], pa.int64())}
    )
    right = pa.table(
        {"k": pa.array([None, 3], pa.int64()), "rv": pa.array([9, 30], pa.int64())}
    )
    got = inner_join_cp(rd.from_arrow(left), rd.from_arrow(right), key="k").to_pandas()
    assert got.values.tolist() == [[3, 3, 30]]


def test_anchor_corpus_rejects_duplicate_anchor_rows(ray_session):
    """anchor_corpus enforces unique-anchors-per-doc (the
    aggregate_anchor_text contract) — the silent corpus-row duplication
    the old Dataset.join produced is now a loud error."""
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from bitfunnel_ray.ops.anchors import anchor_corpus

    corpus = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array([7], pa.int64()), "text": pa.array(["body"], pa.string())}
        )
    )
    dup = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([7, 7], pa.int64()),
                "anchor_text": pa.array(["home", "main"], pa.string()),
            }
        )
    )
    with _pytest.raises(Exception, match="UNIQUE per doc"):
        anchor_corpus(corpus, dup).to_pandas()
