"""Gap-based sessionization over an event stream — the windowed-aggregate
operator a training-data pipeline needs for behavioral/telemetry tables
(Ray Data has no session-window primitive; this is the map_batches +
hash-exchange composition the task brief calls for).

Shape: one hash exchange on the session key (user_id) co-locates each
user's whole event history, then ONE vectorized kernel per block does the
sort + gap detection + per-session reduction (no per-group python, no
driver funnel).  The partitioning assumption is explicit: a single user's
events must fit one block — true for any real user/device key at web
scale (the hottest key is bounded by one entity's event rate, unlike
term keys; genuinely unbounded keys would need the head-term-style salt
+ merge pass the index build uses).

All output columns are integers (epoch-us bounds, counts), so the DuckDB
oracle comparison is exact — no float-summation-order hazards.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _sessions_block(t: pa.Table, *, gap_us: int) -> pa.Table:
    empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "session_start_us": pa.array([], pa.int64()),
            "session_end_us": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
        }
    )
    if len(t) == 0:
        return empty
    user = t["user_id"].to_numpy(zero_copy_only=False)
    ts = t["ts_us"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ts, user))
    user, ts = user[order], ts[order]
    new = np.empty(len(user), dtype=bool)
    new[0] = True
    new[1:] = (user[1:] != user[:-1]) | ((ts[1:] - ts[:-1]) > gap_us)
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(user)) - 1
    return pa.table(
        {
            "user_id": pa.array(user[starts], pa.int64()),
            "session_start_us": pa.array(ts[starts], pa.int64()),
            "session_end_us": pa.array(ts[ends], pa.int64()),
            "n_events": pa.array((ends - starts + 1).astype(np.int64), pa.int64()),
        }
    )


def _rolling_block(
    t: pa.Table, *, window_us: int, value_scale: int | None = None
) -> pa.Table:
    """Per row: count + sum of ``value`` over the same key's rows with ts
    in [ts - window, ts] — RANGE-frame semantics (equal-ts peers all
    included).  Sort once, prefix-sum once, then one vectorized
    searchsorted per key segment (bounded by distinct keys per block,
    never per row).

    ``value_scale`` switches the sum to exact int64 fixed-point
    (value × scale, e.g. 100 for 2-dp money): float prefix-sum
    subtraction is accumulation-order-dependent, so only the scaled
    integer form can be compared bit-for-bit against a SQL window sum."""
    sum_type = pa.float64() if value_scale is None else pa.int64()
    empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "ts_us": pa.array([], pa.int64()),
            "n_window": pa.array([], pa.int64()),
            "sum_window": pa.array([], sum_type),
        }
    )
    if len(t) == 0:
        return empty
    key = t["user_id"].to_numpy(zero_copy_only=False)
    ts = t["ts_us"].to_numpy(zero_copy_only=False)
    rid = t["event_id"].to_numpy(zero_copy_only=False)
    val = t["value"].to_numpy(zero_copy_only=False)
    if value_scale is not None:
        val = np.round(val * value_scale).astype(np.int64)
    order = np.lexsort((ts, key))
    key, ts, rid, val = key[order], ts[order], rid[order], val[order]
    n = len(key)
    zero = np.int64(0) if value_scale is not None else 0.0
    psum = np.concatenate([[zero], np.cumsum(val)])
    starts = np.flatnonzero(np.diff(key, prepend=key[0] - 1))
    bounds = np.append(starts, n)
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    for s, e in zip(bounds[:-1], bounds[1:]):
        seg = ts[s:e]
        lo[s:e] = s + np.searchsorted(seg, seg - window_us, side="left")
        hi[s:e] = s + np.searchsorted(seg, seg, side="right")
    return pa.table(
        {
            "event_id": pa.array(rid, pa.int64()),
            "user_id": pa.array(key, pa.int64()),
            "ts_us": pa.array(ts, pa.int64()),
            "n_window": pa.array(hi - lo, pa.int64()),
            "sum_window": pa.array(psum[hi] - psum[lo], sum_type),
        }
    )


def rolling_window(
    events: "ray.data.Dataset",
    window_minutes: float = 60.0,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    value_scale: int | None = None,
) -> "ray.data.Dataset":
    """Per-event trailing-window aggregate (count + sum of ``value`` over
    the same user's events within the last ``window_minutes``) — the
    moving-window feature op (rate limits, activity features).  Same
    shape as sessionize: one hash exchange on the key, one vectorized
    kernel per block.  RANGE-frame semantics: all equal-ts peers count.
    ``value_scale`` (e.g. 100 for 2-dp money) switches ``sum_window`` to
    exact int64 fixed-point — required for bit-exact oracle comparison."""
    from functools import partial

    from bitfunnel_ray.ops.exchange import exchange

    window_us = int(round(window_minutes * 60 * 1_000_000))

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t[user_col].cast(pa.int64()),
                "ts_us": t[ts_col].cast(pa.int64()),
                "event_id": t[id_col].cast(pa.int64()),
                "value": t[value_col].cast(pa.float64()),
            }
        )

    rows = events.select_columns([user_col, ts_col, id_col, value_col]).map_batches(
        prep, batch_format="pyarrow"
    )
    return exchange(
        rows,
        ["user_id"],
        partial(_rolling_block, window_us=window_us, value_scale=value_scale),
    )


def sessionize(
    events: "ray.data.Dataset",
    gap_minutes: float = 30.0,
    user_col: str = "user_id",
    ts_col: str = "ts",
) -> "ray.data.Dataset":
    """Split each user's event stream into sessions separated by gaps
    strictly greater than ``gap_minutes``.  Returns one row per session:
    (user_id, session_start_us, session_end_us, n_events)."""
    from functools import partial

    from bitfunnel_ray.ops.exchange import exchange

    gap_us = int(round(gap_minutes * 60 * 1_000_000))

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t[user_col].cast(pa.int64()),
                "ts_us": t[ts_col].cast(pa.int64()),  # timestamp[us] → epoch us
            }
        )

    rows = events.select_columns([user_col, ts_col]).map_batches(
        prep, batch_format="pyarrow"
    )
    return exchange(rows, ["user_id"], partial(_sessions_block, gap_us=gap_us))
