"""Funnel conversion — for each user, the first trigger event and the
first target event that follows it within a time window (the standard
product-analytics two-step funnel over an event stream).

Scale shape: the read prunes to (user_id, ts, event_type) and filters to
the two event types BEFORE the exchange; one hash exchange on user_id
co-locates each user's surviving events; the per-block kernel is fully
vectorized (lexsort → segment firsts via ``np.unique(..., return_index)``
— no per-user python).  Output is one row per converted user.

Reference analog: none (web-analytics op, not an index op); the oracle
is a join-based min() SQL over the same semantics.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

import ray


def _funnel_block(
    t: pa.Table, *, trigger: str, target: str, window_us: int
) -> pa.Table:
    empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "trigger_ts_us": pa.array([], pa.int64()),
            "target_ts_us": pa.array([], pa.int64()),
        }
    )
    if len(t) == 0:
        return empty
    user = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
    etype = t["event_type"].to_numpy(zero_copy_only=False)
    is_trig = etype == trigger
    is_targ = etype == target
    order = np.lexsort((ts, user))
    user, ts = user[order], ts[order]
    is_trig, is_targ = is_trig[order], is_targ[order]
    # segment id per row (users are contiguous after the sort)
    new_user = np.empty(len(user), dtype=bool)
    new_user[0] = True
    new_user[1:] = user[1:] != user[:-1]
    seg = np.cumsum(new_user) - 1
    n_seg = seg[-1] + 1
    seg_user = user[new_user]
    # first trigger ts per segment (events are ts-sorted within a segment)
    trig_seg, first_idx = np.unique(seg[is_trig], return_index=True)
    # sentinel = max//2 so `+ window_us` can never wrap
    trig_ts = np.full(n_seg, np.iinfo(np.int64).max // 2, np.int64)
    trig_ts[trig_seg] = ts[is_trig][first_idx]
    # first target strictly after the trigger and within the window
    cand = is_targ & (ts > trig_ts[seg]) & (ts <= trig_ts[seg] + window_us)
    targ_seg, first_idx = np.unique(seg[cand], return_index=True)
    return pa.table(
        {
            "user_id": pa.array(seg_user[targ_seg], pa.int64()),
            "trigger_ts_us": pa.array(trig_ts[targ_seg], pa.int64()),
            "target_ts_us": pa.array(ts[cand][first_idx], pa.int64()),
        }
    )


def funnel(
    events: "ray.data.Dataset",
    trigger: str = "view",
    target: str = "click",
    window_us: int = 30 * 60 * 1_000_000,
) -> "ray.data.Dataset":
    """One row per user whose first ``trigger`` event is followed by a
    ``target`` event within ``window_us`` (strictly after, inclusive
    window end): (user_id, trigger_ts_us, target_ts_us of the FIRST such
    target).  Streams; rows per user ≤ 1."""
    from bitfunnel_ray.ops.exchange import exchange

    keep_types = (trigger, target)

    def prefilter(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        m = (et == keep_types[0]) | (et == keep_types[1])
        return t.select(["user_id", "ts", "event_type"]).filter(pa.array(m))

    slim = events.select_columns(["user_id", "ts", "event_type"]).map_batches(
        prefilter, batch_format="pyarrow"
    )
    return exchange(
        slim,
        ["user_id"],
        partial(_funnel_block, trigger=trigger, target=target, window_us=window_us),
    )
