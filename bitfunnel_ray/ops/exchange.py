"""How the engine distributes work: the one hash exchange (the only code
that hash-partitions a Dataset on a key) and the keyless task wave
(``fan_out``) for work over a list the driver already holds.

Every keyed stage has the same shape (SNIPPETS [1]'s
``repartition_by_column`` plus a whole-block kernel, the partition-first
layout of "Partition, Don't Sort!"): ONE hash repartition on the key
co-locates every row of a key in one block, then a vectorized kernel
sees each whole partition as one pyarrow batch.  Joins, group-reduces,
windowed kernels and iterative graph rounds are all that shape.

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

A stage over a driver-known list (bucket ids, files) needs no Dataset: a
Ray Data launch costs ~0.07-0.14 s, a ``fan_out`` wave milliseconds.
"""

from __future__ import annotations

import os

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


@ray.remote
def _apply(fn, item):
    return fn(item)


def fan_out(fn, items, *, num_cpus: float = 1, max_in_flight: int | None = None) -> list:
    """``[fn(item) for item in items]`` as one plain Ray task per item,
    in item order.  ``fn`` (and what it captures) ships once per wave; an
    ``ObjectRef`` item arrives resolved.  At most ``max_in_flight`` tasks
    run at once; a task's exception is raised here."""
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
    return ray.get(refs)
