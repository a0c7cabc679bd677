"""Elias–Fano encoding for posting-list doc-id deltas — the packed
doc-delta codec beside LEB128 varint (see config.treatment_bands; the
codec table and the one delta decoder live in build/encode.py).

Elias–Fano stores a MONOTONE sequence v_0 <= ... <= v_{n-1} < u in
n*ceil(log2(u/n)) low bits + ~2n high bits — within half a bit of the
information-theoretic optimum for a sorted set (public technique:
Elias 1974, Fano 1971; popularized for inverted indexes by Vigna's
"Quasi-succinct indices", WSDM 2013).  The codec interface matches the
others (delta stream in, delta stream out): deltas are prefix-summed to
the monotone doc-id sequence internally, so random spikes cost nothing —
only the UNIVERSE (last doc id) and the count matter.

Layout:
    [l: u8] [n_high_bytes: u32 LE]
    [high bits: unary gaps, bit (v_i >> l) + i set; little bit order]
    [low  bits: n fields of l bits each, little bit order]

``l = max(0, floor(log2(u / n)))`` computed with integer bit_length (no
float near 2^63).  Encode/decode are numpy packbits/unpackbits over bit
matrices — no per-value python.  This codec is meant for the few, long
head-band chunks; decode cost is two unpackbits + one
flatnonzero, O(n + u >> l) = O(n) bits touched.
"""

from __future__ import annotations

import numpy as np

_HEADER = 5  # l:u8 + n_high_bytes:u32


def encode_ef(deltas: np.ndarray) -> np.ndarray:
    """uint64 delta array → uint8 Elias–Fano stream (deltas are summed to
    the monotone sequence; the first delta is the absolute first value)."""
    d = np.ascontiguousarray(deltas, dtype=np.uint64)
    n = len(d)
    if n == 0:
        return np.zeros(_HEADER, dtype=np.uint8)
    v = np.cumsum(d, dtype=np.uint64)
    u = int(v[-1]) + 1
    l = max(0, ((u // n).bit_length() - 1))
    high = (v >> np.uint64(l)).astype(np.int64) + np.arange(n, dtype=np.int64)
    hbits = np.zeros(int(high[-1]) + 1, dtype=np.uint8)
    hbits[high] = 1
    hbytes = np.packbits(hbits, bitorder="little")
    if l:
        low = v & np.uint64((1 << l) - 1)
        lbits = (
            (low[:, None] >> np.arange(l, dtype=np.uint64)) & np.uint64(1)
        ).astype(np.uint8)
        lbytes = np.packbits(lbits.ravel(), bitorder="little")
    else:
        lbytes = np.empty(0, dtype=np.uint8)
    head = np.empty(_HEADER, dtype=np.uint8)
    head[0] = l
    head[1:5] = np.frombuffer(np.uint32(len(hbytes)).tobytes(), dtype=np.uint8)
    return np.concatenate([head, hbytes, lbytes])


def decode_ef(buf: np.ndarray, count: int) -> np.ndarray:
    """uint8 Elias–Fano stream → the original uint64 delta array."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    buf = np.ascontiguousarray(buf, dtype=np.uint8)
    l = int(buf[0])
    nhb = int(np.frombuffer(buf[1:5].tobytes(), dtype=np.uint32)[0])
    hbytes = buf[_HEADER : _HEADER + nhb]
    hbits = np.unpackbits(hbytes, bitorder="little")
    pos = np.flatnonzero(hbits)[:count].astype(np.int64)
    if len(pos) != count:
        raise ValueError(f"EF stream holds {len(pos)} values, want {count}")
    high = (pos - np.arange(count, dtype=np.int64)).astype(np.uint64)
    if l:
        lbytes = buf[_HEADER + nhb :]
        lbits = np.unpackbits(lbytes, bitorder="little")[: count * l]
        low = (
            lbits.reshape(count, l).astype(np.uint64)
            << np.arange(l, dtype=np.uint64)
        ).sum(axis=1, dtype=np.uint64)
        v = (high << np.uint64(l)) | low
    else:
        v = high
    out = np.empty(count, dtype=np.uint64)
    out[0] = v[0]
    np.subtract(v[1:], v[:-1], out=out[1:])
    return out


def byte_length_ef(deltas: np.ndarray) -> int:
    """Encoded size without materializing the stream (band planning)."""
    n = len(deltas)
    if n == 0:
        return _HEADER
    u = int(np.sum(deltas, dtype=np.uint64)) + 1
    l = max(0, ((u // n).bit_length() - 1))
    n_high_bits = (u >> l) + n
    return _HEADER + (n_high_bits + 7) // 8 + (n * l + 7) // 8
