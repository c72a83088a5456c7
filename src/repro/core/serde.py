"""Versioned byte serialization for REQ sketches shipped through Spark.

Executors build partial sketches per partition and ship them as opaque
``bytes`` columns, to the driver or to executor-side ``treeReduce``
combiners.  This module is the only code that knows the byte layout.

The layout is fixed, little-endian and self-checking; decoding runs no
code from the payload:

offset    size    field
0         4       magic ``b"REQS"``
4         1       format version (1)
5         1       schedule: 0 = ``"req"``, 1 = ``"all"``
6         2       number of levels H (u16, >= 1)
8         4       section size k (u32)
12        4       k_const (u32)
16        8       k-hat (f64; NaN when k is fixed)
24        8       n, items processed (u64)
32        8       min_B, smallest buffer size ever in force (u64)
40        16      PCG64 ``state`` (u128)
56        16      PCG64 ``inc`` (u128)
72        4       PCG64 ``uinteger`` (u32)
76        1       PCG64 ``has_uint32`` (u8)
77        1       m, the byte length of N (u8)
78        m       N, the current bound on n (unsigned, little-endian)
78+m      12·H    per level h: schedule state (u64), item count (u32)
...       8·Σ     items (f64), level 0 first, each level in stored order
end−4     4       CRC-32 of every byte before it (u32)

N has its own length because it squares every growth epoch (at k=32:
256 → 65 536 → 2^32 → 2^64 once n passes 2^32).  The raw PCG64 state
makes a decoded sketch draw exactly the coin flips the encoded one would.
"""
from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro.core.compactor import RelativeCompactor
from repro.core.req_sketch import ReqSketch

_MAGIC = b"REQS"
_VERSION = 1
_SCHEDULES = ("req", "all")
_HEADER = struct.Struct("<4sBBHIIdQQ16s16sIBB")
_LEVEL = struct.Struct("<QI")
_CRC = struct.Struct("<I")


def to_bytes(sketch: ReqSketch) -> bytes:
    """Encode a REQ sketch in the layout above."""
    rng = sketch.rng.bit_generator.state
    if rng["bit_generator"] != "PCG64":
        raise ValueError(f"only PCG64 sketches encode, not {rng['bit_generator']}")
    khat = math.nan if sketch._khat is None else sketch._khat
    N = sketch.N.to_bytes((sketch.N.bit_length() + 7) // 8, "little")
    header = _HEADER.pack(
        _MAGIC, _VERSION, _SCHEDULES.index(sketch.schedule), len(sketch.levels),
        sketch.k, sketch._k_const, khat, sketch.n, sketch._min_B,
        rng["state"]["state"].to_bytes(16, "little"),
        rng["state"]["inc"].to_bytes(16, "little"),
        rng["uinteger"], rng["has_uint32"], len(N),
    )
    body = b"".join(
        [header, N]
        + [_LEVEL.pack(lv.state, len(lv)) for lv in sketch.levels]
        + [lv.values().astype("<f8", copy=False).tobytes() for lv in sketch.levels]
    )
    return body + _CRC.pack(zlib.crc32(body))


def from_bytes(blob: bytes | bytearray) -> ReqSketch:
    """Decode a payload; raise ``ValueError``, and nothing else, for any
    payload ``to_bytes`` would not have written."""
    if len(blob) < _HEADER.size + _CRC.size or not blob.startswith(_MAGIC):
        raise ValueError("not a REQ sketch payload (bad magic or truncated)")
    (
        _, version, schedule, num_levels, k, k_const, khat, n, min_B,
        state, inc, uinteger, has_uint32, N_len,
    ) = _HEADER.unpack_from(blob)
    if version != _VERSION:
        raise ValueError(f"unsupported payload version {version}")
    body = memoryview(blob)[: -_CRC.size]
    if _CRC.unpack_from(blob, len(body)) != (zlib.crc32(body),):
        raise ValueError("bad checksum")
    levels_at = _HEADER.size + N_len
    values_at = levels_at + num_levels * _LEVEL.size
    if values_at > len(body):
        raise ValueError("truncated payload")
    table = list(_LEVEL.iter_unpack(body[levels_at:values_at]))
    counts = [count for _, count in table]
    if values_at + 8 * sum(counts) != len(body):
        raise ValueError("level lengths do not match the payload size")
    N = int.from_bytes(body[_HEADER.size : levels_at], "little")

    if schedule >= len(_SCHEDULES):
        raise ValueError(f"unknown schedule code {schedule}")
    if k < 2 or k % 2:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    if math.isnan(khat):
        khat = None
    elif not 0 < khat < math.inf:
        raise ValueError(f"k-hat must be positive and finite, got {khat}")
    if num_levels < 1 or has_uint32 > 1:
        raise ValueError("malformed header")
    # N squares only once n exceeds it, and a float must hold N / k.
    if not n <= N < 1 << 1024:
        raise ValueError(f"bound N = {N} out of range for n = {n}")
    sk = ReqSketch(k, schedule=_SCHEDULES[schedule], khat=khat, k_const=k_const, N0=N)
    if sk.k != k:
        raise ValueError(f"k = {k} does not follow from k-hat = {khat} and N = {N}")

    # A NaN breaks the sorted-run invariant and every searchsorted, and a
    # level-size mismatch breaks exact total weight; refuse both.
    values = np.frombuffer(body, "<f8", offset=values_at).astype(np.float64)
    if np.isnan(values).any():
        raise ValueError("a level holds NaN")
    weight = sum(count << h for h, count in enumerate(counts))
    if weight != n:
        raise ValueError(f"levels weigh {weight}, not n = {n}")
    sk.levels = [RelativeCompactor(lv_state) for lv_state, _ in table]
    for lv, items in zip(sk.levels, np.split(values, np.cumsum(counts)[:-1])):
        lv.append(items)
    sk.n, sk._min_B = n, min_B
    sk.rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(state, "little"), "inc": int.from_bytes(inc, "little")},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return sk
