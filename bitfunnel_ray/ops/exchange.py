"""The engine's one hash exchange: the only module that knows how a
Dataset is hash-partitioned on a key.

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
