"""How the engine distributes work: the one hash exchange (the only code
that hash-partitions a Dataset on a key), its two-input form
(``cogroup``, the only code that merges two Datasets into one
transport), and the keyless task wave (``fan_out``) for work over a
list the driver already holds.

Every keyed stage has the same shape (SNIPPETS [1]'s
``repartition_by_column`` plus a whole-block kernel, the partition-first
layout of "Partition, Don't Sort!"): ONE hash repartition on the key
co-locates every row of a key in one block, then a vectorized kernel
sees each whole partition as one pyarrow batch.  Joins, group-reduces,
windowed kernels and iterative graph rounds are all that shape.  A
two-input stage (joins, attaches, diffs) is the same shape over two
Datasets: ``cogroup`` records which side each row came from, exchanges
both once, and hands the kernel each side's rows as their own table.

Exchange policy on this Ray (2.49), measured (BASELINE.md):

- partitions ≈ CPUs / 2, clamped to [2, 32]; aggregator actors reserve
  whole CPUs by default and starve the map stages (or deadlock when
  partitions >> CPUs).  ``BFR_SHUFFLE_PARTS`` pins the count independent
  of the cluster size (scaling runs: the same exchange layout at every
  size).
- each partition's aggregator reserves 0.05 CPU — but never more than
  the CPUs left after one task, so on a 1-CPU session the reservation
  is 0 and the read task feeding the exchange can still be scheduled
  (Ray accepts a 0 override: it tests ``is not None``).

Ray copies a Dataset's context when it derives a new one, so the policy
is written onto the context of the dataset being repartitioned.  Ray
plans a whole pipeline under the context of the dataset that executes
it, and ``a.union(b)`` takes ``a``'s: an exchanged dataset goes on the
left of a union that no later exchange follows.

A stage over a driver-known list needs no Dataset: a Ray Data launch
costs ~0.07-0.14 s, a ``fan_out`` wave milliseconds.  The build's encode
and merge waves run over bucket ids, and its two corpus passes over the
pieces of a plain parquet read (``build/builder.py``), the partition-first
ingest of the reference's one task per chunk file.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray


def _tune(ctx) -> int:
    """Write the hash-exchange policy onto ``ctx``; return the partition
    count."""
    from ray.data.context import ShuffleStrategy

    cpus = int(ray.cluster_resources().get("CPU", 8))
    n = max(2, min(32, cpus // 2))
    if os.environ.get("BFR_SHUFFLE_PARTS"):
        n = int(os.environ["BFR_SHUFFLE_PARTS"])
    per_partition = min(0.05, max(0, cpus - 1) / n)
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ctx.default_hash_shuffle_parallelism = n
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = per_partition
    ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = per_partition
    return n


def exchange(ds, keys, kernel, *, num_partitions: int | None = None):
    """Hash-partition ``ds`` on ``keys`` and run ``kernel`` once per whole
    partition (a pyarrow table holding every row of its keys).  One
    partition may hold several keys; a kernel must cope with an empty
    table."""
    n = _tune(ds.context)
    return ds.repartition(num_partitions or n, keys=list(keys)).map_batches(
        kernel, batch_size=None, batch_format="pyarrow"
    )


_SIDE = "__side"  # transport only: 0 = left row, 1 = right row


def _side_schema(ds, given) -> pa.Schema:
    # inference executes a one-row sample (and sees nothing on an
    # all-empty side): callers that know a side's schema pass it
    s = given if given is not None else ds.schema()
    if s is None:
        raise ValueError(
            "cogroup could not infer a side's schema (empty dataset?): pass "
            "left_schema/right_schema explicitly"
        )
    return s if isinstance(s, pa.Schema) else s.base_schema


def cogroup(
    left,
    right,
    keys,
    kernel,
    *,
    num_partitions: int | None = None,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
):
    """Hash-partition ``left`` and ``right`` together on ``keys`` and run
    ``kernel(left_tbl, right_tbl)`` once per partition.  Each table holds
    only its side's rows, columns and schema (the declared
    ``left_schema``/``right_schema``, inferred when omitted; blocks are
    cast to it), and either may have zero rows.  A column name on both
    sides travels in one column, so its types must agree."""
    ls, rs = _side_schema(left, left_schema), _side_schema(right, right_schema)
    fields = {f.name: f.with_nullable(True) for f in ls}
    for f in rs:
        have = fields.setdefault(f.name, f.with_nullable(True))
        if have.type != f.type:
            raise TypeError(
                f"cogroup: column {f.name!r} is {have.type} on the left but "
                f"{f.type} on the right"
            )
    missing = [k for k in keys if k not in ls.names or k not in rs.names]
    if missing:
        raise ValueError(f"cogroup: key columns {missing} are not on both sides")
    transport = pa.schema([*fields.values(), pa.field(_SIDE, pa.int8())])

    def tag(t: pa.Table, side: int, names: frozenset) -> pa.Table:
        if len(t) == 0:  # includes Ray 2.49's zero-column empty blocks
            return transport.empty_table()
        cols = {
            f.name: t[f.name] if f.name in names else pa.nulls(len(t), f.type)
            for f in fields.values()
        }
        cols[_SIDE] = pa.array(np.full(len(t), side, np.int8))
        return pa.table(cols, schema=transport)

    def split(t: pa.Table) -> pa.Table:
        if len(t) == 0 or _SIDE not in t.column_names:
            return kernel(ls.empty_table(), rs.empty_table())
        is_r = t[_SIDE].to_numpy(zero_copy_only=False) == 1
        return kernel(
            t.filter(pa.array(~is_r)).select(ls.names).cast(ls),
            t.filter(pa.array(is_r)).select(rs.names).cast(rs),
        )

    left = left.map_batches(tag, fn_args=(0, frozenset(ls.names)), batch_format="pyarrow")
    right = right.map_batches(tag, fn_args=(1, frozenset(rs.names)), batch_format="pyarrow")
    return exchange(left.union(right), keys, split, num_partitions=num_partitions)


@ray.remote
def _apply(fn, item):
    return fn(item)


def fan_out(
    fn, items, *, num_cpus: float = 1, max_in_flight: int | None = None,
    as_refs: bool = False,
) -> list:
    """``[fn(item) for item in items]`` as one plain Ray task per item,
    in item order.  ``fn`` (and what it captures) ships once per wave; an
    ``ObjectRef`` item arrives resolved.  At most ``max_in_flight`` tasks
    run at once; a task's exception is raised here.  ``as_refs`` returns
    the results' object refs instead: the results stay in the object
    store, and an exception is raised where its ref is read."""
    fn_ref = ray.put(fn)
    # SPREAD, as Ray Data schedules map tasks: writers land on every node
    task = _apply.options(num_cpus=num_cpus, scheduling_strategy="SPREAD")
    refs, running = [], []
    for item in items:
        if max_in_flight and len(running) >= max_in_flight:
            done, running = ray.wait(running, num_returns=1)
            ray.get(done)  # fail fast: stop launching after an error
        refs.append(task.remote(fn_ref, item))
        running.append(refs[-1])
    return refs if as_refs else ray.get(refs)
