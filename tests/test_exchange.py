"""The hash-exchange layer (bitfunnel_ray/ops/exchange.py): it is the
only code that hash-partitions a Dataset and the only code that merges
two Datasets into one transport, the Dataset it returns carries the
tuned policy, every partition reaches the kernel whole, and ``cogroup``
and the co-partitioned left-outer join built on it match pandas."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

PKG = pathlib.Path(__file__).resolve().parent.parent / "bitfunnel_ray"
LAYER = PKG / "ops" / "exchange.py"
JOIN_TYPES = {
    "inner", "left_outer", "right_outer", "full_outer",
    "left_semi", "right_semi", "left_anti", "right_anti",
}


def _violations(source: str) -> list[str]:
    """Hand-rolled exchange code in ``source``: the shuffle policy, a keyed
    repartition, or a ``Dataset.join`` (join-type string as its second
    positional argument, or ``num_partitions=``).  pyarrow's
    ``Table.join(right, keys=..., join_type=...)`` is not one."""
    out = []
    for node in ast.walk(ast.parse(source)):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        if name and (
            name in ("tune_hash_shuffle", "ShuffleStrategy")
            or name.endswith("_num_cpus_per_partition_override")
        ):
            out.append(f"{getattr(node, 'lineno', '?')}: {name}")
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        kw = {k.arg for k in node.keywords}
        if node.func.attr == "repartition" and "keys" in kw:
            out.append(f"{node.lineno}: keyed repartition")
        if node.func.attr == "join" and (
            "num_partitions" in kw
            or (
                len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in JOIN_TYPES
            )
        ):
            out.append(f"{node.lineno}: Dataset.join")
    return out


def test_scan_flags_hand_rolled_exchanges():
    src = (
        "from bitfunnel_ray.build.builder import tune_hash_shuffle\n"
        "from ray.data.context import ShuffleStrategy\n"
        "ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0\n"
        "a = ds.repartition(num_blocks=4, keys=['k'])\n"
        "b = ds.join(other, 'left_outer', on=('k',))\n"
        "c = ds.join(other, join_type='inner', num_partitions=4, on=('k',))\n"
        # legal: unkeyed repartition, pyarrow Table.join, str.join
        "d = ds.repartition(4)\n"
        "e = t.join(u, keys='k', join_type='inner')\n"
        "f = ', '.join(names)\n"
    )
    # one finding per line 1-6, none on the legal lines 7-9
    assert [v.split(":")[0] for v in _violations(src)] == ["1", "2", "3", "4", "5", "6"]


def test_only_the_layer_hash_partitions():
    found = {
        str(p.relative_to(PKG)): v
        for p in sorted(PKG.rglob("*.py"))
        if p != LAYER and (v := _violations(p.read_text()))
    }
    assert found == {}


# Two-input stages that still union their inputs by hand, and why.
HAND_UNIONS = {
    ("ops/dedup.py", "_payload_join"): "runs in the bench.py dedup_minhash "
    "headline stage (600k docs, 32 CPUs); moving it needs that stage timed",
    ("ops/graph.py", "_propagate"): "tags the edge stream once and reuses "
    "it in every round; cogroup would re-tag it per call",
}


def _unions_into_exchange(source: str) -> set:
    """Functions in ``source`` where a ``.union(...)`` result, directly or
    through a name bound to it, reaches an ``exchange(...)`` call."""

    def is_union(node) -> bool:
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr == "union"
        )

    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tainted: set = set()

        def carries(expr) -> bool:
            return any(
                is_union(n) or (isinstance(n, ast.Name) and n.id in tainted)
                for n in ast.walk(expr)
            )

        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and carries(node.value):
                tainted |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "exchange" and any(
                carries(a) for a in [*node.args, *(k.value for k in node.keywords)]
            ):
                found.add(fn.name)
    return found


def test_scan_flags_unions_into_exchange():
    src = (
        "def direct(a, b):\n"
        "    return exchange(a.union(b), ['k'], f)\n"
        "def bound(a, b):\n"
        "    both = a.map_batches(t).union(b)\n"
        "    mixed = both.map_batches(g)\n"
        "    return exchange(mixed, ['k'], f)\n"
        # legal: a union no exchange follows, an exchange of one input
        "def legal(a, b):\n"
        "    out = exchange(a, ['k'], f)\n"
        "    return out.union(b)\n"
    )
    assert _unions_into_exchange(src) == {"direct", "bound"}


def test_only_cogroup_merges_two_inputs():
    """Outside the layer, no union of two Datasets feeds an exchange:
    two-input stages go through ``cogroup``, which owns the side tag,
    the transport schema and the empty-block guard."""
    found = {
        (str(p.relative_to(PKG)), fn)
        for p in sorted(PKG.rglob("*.py"))
        if p != LAYER
        for fn in _unions_into_exchange(p.read_text())
    }
    assert found == set(HAND_UNIONS)


def test_exchange_tunes_the_dataset_it_returns(ray_session):
    import ray
    from ray.data.context import ShuffleStrategy

    from bitfunnel_ray.ops.exchange import exchange

    t = pa.table({"k": pa.array(np.arange(200) % 7, pa.int64()), "v": pa.array(np.ones(200, np.int64))})

    def per_block(b: pa.Table) -> pa.Table:
        keys, counts = np.unique(b["k"].to_numpy(), return_counts=True)
        return pa.table({"k": pa.array(keys, pa.int64()), "n": pa.array(counts, pa.int64())})

    out = exchange(rd.from_arrow(t).repartition(5), ["k"], per_block)
    ctx = out.context
    cpus = int(ray.cluster_resources()["CPU"])
    assert ctx.shuffle_strategy == ShuffleStrategy.HASH_SHUFFLE
    assert ctx.default_hash_shuffle_parallelism == max(2, min(32, cpus // 2))
    assert ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override == 0.05
    got = out.to_pandas()
    # every key's rows met in ONE kernel call
    assert sorted(got["k"]) == list(range(7))
    assert got.set_index("k")["n"].to_dict() == {k: int((np.arange(200) % 7 == k).sum()) for k in range(7)}


@pytest.mark.parametrize(
    "cpus,pin,parts,reserve",
    [(1, None, 2, 0.0), (2, None, 2, 0.05), (64, None, 32, 0.05), (4, "3", 3, 0.05)],
)
def test_policy(monkeypatch, cpus, pin, parts, reserve):
    """Partitions = CPUs/2 in [2, 32] unless BFR_SHUFFLE_PARTS pins it;
    each partition reserves 0.05 CPU, but never the CPU a 1-CPU session
    needs for the task that feeds the exchange."""
    import ray
    from ray.data import DataContext

    from bitfunnel_ray.ops import exchange as ex

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(cpus)})
    if pin is None:
        monkeypatch.delenv("BFR_SHUFFLE_PARTS", raising=False)
    else:
        monkeypatch.setenv("BFR_SHUFFLE_PARTS", pin)
    ctx = DataContext.get_current().copy()
    assert ex._tune(ctx) == parts
    assert ctx.default_hash_shuffle_parallelism == parts
    assert ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override == reserve
    assert ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override == reserve


def _rows(df: pd.DataFrame) -> list:
    """Order-free, NaN-free row multiset for comparing join outputs."""
    def norm(v):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        return int(v) if isinstance(v, float) and v.is_integer() else v

    return sorted((tuple(map(norm, r)) for r in df.values.tolist()), key=repr)


LEFT = pa.table(
    {
        "k": pa.array([1, 1, 2, None, 5, 3, None], pa.int64()),
        "lv": pa.array(["a", "b", "c", "d", "e", "f", "g"], pa.string()),
    }
)
RIGHT = pa.table(
    {
        "k": pa.array([1, 1, 2, None, 4, 3], pa.int64()),
        "rv": pa.array([10.0, 11.0, 20.0, 99.0, 40.0, None], pa.float64()),
    }
)
LS = LEFT.schema
RS = RIGHT.schema


def _pandas_left(left: pa.Table, right: pa.Table) -> pd.DataFrame:
    # SQL semantics: a null key matches nothing (pandas would pair NaNs)
    r = right.to_pandas().dropna(subset=["k"])
    return left.to_pandas().merge(r, on="k", how="left")[["k", "lv", "rv"]]


@pytest.mark.parametrize(
    "case",
    ["plain", "left_emptied_blocks", "right_emptied"],
)
def test_left_join_cp_matches_pandas(ray_session, case):
    from bitfunnel_ray.ops.joins import left_join_cp

    lds, rds = rd.from_arrow(LEFT), rd.from_arrow(RIGHT)
    left, right = LEFT, RIGHT
    if case == "left_emptied_blocks":
        # some blocks emptied by the filter (stale-schema empties)
        lds = lds.repartition(4).filter(expr="k >= 2")
        left = LEFT.filter(pa.compute.greater_equal(LEFT["k"], 2))
    elif case == "right_emptied":
        rds = rds.repartition(3).filter(expr="k >= 99")
        right = RIGHT.slice(0, 0)
    got = left_join_cp(lds, rds, key="k", left_schema=LS, right_schema=RS).to_pandas()
    assert list(got.columns) == ["k", "lv", "rv"]
    want = _pandas_left(left, right)
    assert _rows(got) == _rows(want)
    # many-to-many: key 1 twice on each side → 4 rows; null keys kept once
    if case == "plain":
        assert (got["k"] == 1).sum() == 4
        assert got["k"].isna().sum() == 2 and got.loc[got["k"].isna(), "rv"].isna().all()


def test_inner_and_left_share_one_join(ray_session):
    """The inner join is the left join minus its unmatched rows."""
    from bitfunnel_ray.ops.joins import inner_join_cp, left_join_cp

    lds, rds = rd.from_arrow(LEFT), rd.from_arrow(RIGHT)
    inner = inner_join_cp(lds, rds, key="k").to_pandas()
    left = left_join_cp(lds, rds, key="k").to_pandas()
    matched = left[left["k"].isin(RIGHT["k"].drop_null().to_pylist())]
    assert _rows(inner) == _rows(matched)


CL = pa.table(
    {
        "k": pa.array([1, 1, 2, 5, 3], pa.int64()),
        "v": pa.array([10, 11, 20, 50, 30], pa.int64()),
        "lx": pa.array(["a", "b", "c", "d", "e"], pa.string()),
    }
)
CR = pa.table(
    {
        "k": pa.array([1, 2, 2, 4], pa.int64()),
        "v": pa.array([100, 200, 201, 400], pa.int64()),
        "ry": pa.array([0.5, 1.5, 2.5, 4.5], pa.float64()),
    }
)


@pytest.mark.parametrize(
    "case", ["plain", "left_no_rows", "right_zero_column_block", "both_empty"]
)
def test_cogroup_matches_pandas(ray_session, case):
    """Each key's rows of both sides meet in one kernel call, split back
    into their own columns and schema.  ``v`` is on both sides (one
    transport column), ``lx`` and ``ry`` on one each."""
    from bitfunnel_ray.ops.exchange import cogroup

    # the kernel's helpers are locals: Ray ships them by value
    ls, rs = CL.schema, CR.schema
    out_schema = pa.schema(
        [("k", pa.int64()), ("n_l", pa.float64()), ("v_l", pa.float64()), ("lx", pa.string()),
         ("n_r", pa.float64()), ("v_r", pa.float64()), ("ry", pa.float64())]
    )

    def per_key(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        """Per key: each side's row count, ``v`` sum and payload max."""
        lg = left.groupby("k").agg(n_l=("v", "size"), v_l=("v", "sum"), lx=("lx", "max"))
        rg = right.groupby("k").agg(n_r=("v", "size"), v_r=("v", "sum"), ry=("ry", "max"))
        return lg.join(rg, how="outer").reset_index()

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        assert lt.schema.equals(ls) and rt.schema.equals(rs)
        df = per_key(lt.to_pandas(), rt.to_pandas())
        return pa.Table.from_pandas(df, schema=out_schema, preserve_index=False)

    left, right = CL, CR
    lds, rds = rd.from_arrow(CL).repartition(3), rd.from_arrow(CR).repartition(2)
    if case in ("left_no_rows", "both_empty"):
        left, lds = CL.slice(0, 0), rd.from_arrow(CL.slice(0, 0))
    if case in ("right_zero_column_block", "both_empty"):
        # a row filter that keeps nothing leaves zero-column empty blocks
        right, rds = CR.slice(0, 0), rds.filter(lambda r: r["k"] > 99)
    got = cogroup(lds, rds, ["k"], kernel, left_schema=ls, right_schema=rs).to_pandas()
    want = per_key(left.to_pandas(), right.to_pandas())
    assert _rows(got) == _rows(want[got.columns])
    assert len(got) == len(set(left["k"].to_pylist()) | set(right["k"].to_pylist()))


def test_cogroup_rejects_shared_column_of_two_types():
    from bitfunnel_ray.ops.exchange import cogroup

    rs = CR.schema.set(1, pa.field("v", pa.float64()))
    with pytest.raises(TypeError, match="'v'"):
        cogroup(rd.from_arrow(CL), rd.from_arrow(CR), ["k"], None,
                left_schema=CL.schema, right_schema=rs)


def test_no_dataset_launcher_under_build():
    """Build stages over a driver-known list of buckets or files run as
    plain task waves (``fan_out``), not as a ``from_items`` Dataset."""
    found = [
        str(p.relative_to(PKG))
        for p in sorted((PKG / "build").rglob("*.py"))
        if "from_items(" in p.read_text()
    ]
    assert found == []


def _tasks():
    """Task bodies, built inside a test so Ray pickles them by value (a
    worker cannot import this test module)."""

    def slow_square(x):
        import time

        t0 = time.time()
        time.sleep(0.05 * (4 - x % 4))  # later items finish first
        return x * x, t0, time.time()

    def fail_on_three(x):
        if x == 3:
            raise ValueError(f"bad item {x}")
        return x

    return slow_square, fail_on_three


def test_fan_out_keeps_item_order(ray_session):
    from bitfunnel_ray.ops.exchange import fan_out

    slow_square, _ = _tasks()
    out = fan_out(slow_square, range(8))
    assert [r[0] for r in out] == [x * x for x in range(8)]
    assert fan_out(slow_square, []) == []


@pytest.mark.parametrize("cap", [1, 2])
def test_fan_out_caps_tasks_in_flight(ray_session, cap):
    """Tasks record their start and end times: at no instant do more
    than ``max_in_flight`` of them run."""
    from bitfunnel_ray.ops.exchange import fan_out

    slow_square, _ = _tasks()
    spans = [r[1:] for r in fan_out(slow_square, range(6), max_in_flight=cap)]
    for t0, _t1 in spans:
        assert sum(s <= t0 < e for s, e in spans) <= cap
    if cap == 1:
        spans.sort()
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("cap", [None, 1])
def test_fan_out_raises_the_task_error(ray_session, cap):
    from bitfunnel_ray.ops.exchange import fan_out

    _, fail_on_three = _tasks()
    with pytest.raises(ValueError, match="bad item 3"):
        fan_out(fail_on_three, range(6), max_in_flight=cap)


def test_fan_out_resolves_ref_items(ray_session):
    """An ObjectRef item reaches the function as its value; what the
    function captures travels with it."""
    import ray

    from bitfunnel_ray.ops.exchange import fan_out

    big = np.arange(1000)
    refs = [ray.put(np.full(3, i)) for i in range(3)]
    assert fan_out(lambda a: int(a.sum() + big[-1]), refs) == [999, 1002, 1005]
