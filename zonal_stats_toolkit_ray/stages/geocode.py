"""Deterministic geocoding: url → (lon, lat), fully vectorized over Arrow.

The graft's analogue of "pages have a location": a pure polynomial hash of
the url bytes mapped into world coordinates, so the spatial join is
reproducible across runs, partitionings and cluster sizes (SURVEY.md §1.4
``points`` table).  The hash runs directly on the Arrow string array's
offsets+data buffers with NumPy — no Python loop over rows — which keeps
this stage zero-copy from the object store.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_P = np.uint64(31)


def _powers(n: int) -> np.ndarray:
    """Powers of 31 mod 2^64 (intentional uint64 wraparound), length n."""
    with np.errstate(over="ignore"):
        return np.multiply.accumulate(
            np.concatenate([[np.uint64(1)], np.full(n - 1, _P)]), dtype=np.uint64
        )


_POW31 = _powers(1 << 16)  # built once at import


def _pow_table(n: int) -> np.ndarray:
    """Powers of 31 with length ≥ n: the import-time table, or a longer one
    built for this call, so arbitrarily long documents hash without an
    index error."""
    return _POW31 if n <= _POW31.size else _powers(n)


def hash64_utf8(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Java-style polynomial hash h = Σ b_i·31^(L-1-i) (mod 2^64) per string,
    computed vectorized from the Arrow buffers."""
    if isinstance(arr, pa.ChunkedArray):
        if arr.num_chunks == 1:
            arr = arr.chunk(0)
        else:
            arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=off_dtype, count=len(arr) + 1 + arr.offset)
    offsets = offsets[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] is not None else np.empty(0, np.uint8)

    starts = offsets[:-1]
    ends = offsets[1:]
    lens = ends - starts
    if len(starts) == 0:
        return np.empty(0, dtype=np.uint64)
    total_lo, total_hi = int(starts[0]), int(ends[-1])
    if total_hi == total_lo:
        # every string in this slice is empty → all hashes are 0 (the
        # index arithmetic below would otherwise hit an empty cumsum)
        return np.zeros(len(starts), dtype=np.uint64)
    # exponent of each byte = (its string's end-1) - (its global position);
    # int32 suffices (strings < 2 GiB) and halves the traffic of this, the
    # widest temp.  Everything below minimizes full-width allocations — on
    # slow-memory hosts each 8-byte-per-input-byte temp costs more than the
    # arithmetic (measured 2× end-to-end on 60 MB of text).
    exp = np.repeat((ends - 1 - total_lo).astype(np.int32), lens)
    exp -= np.arange(total_hi - total_lo, dtype=np.int32)
    pow31 = _pow_table(int(lens.max()) if lens.size else 1)
    terms = pow31[exp]
    del exp
    with np.errstate(over="ignore"):
        # in-place multiply by the uint8 bytes (ufunc buffering upcasts per
        # chunk — no materialized uint64 copy of the byte segment)
        terms *= data[total_lo:total_hi]
        np.cumsum(terms, dtype=np.uint64, out=terms)  # wraps mod 2^64
    csum = terms
    h = csum[(ends - total_lo - 1)]
    prev = np.where(
        starts > total_lo, csum[np.maximum(starts - total_lo, 1) - 1], np.uint64(0)
    )
    with np.errstate(over="ignore"):
        h = h - prev
    # zero-length strings: start == end ⇒ hash 0
    if np.any(lens == 0):
        h = np.where(lens == 0, np.uint64(0), h)
    return h.astype(np.uint64)


def hash64_py(s: str) -> int:
    """Pure-Python reference of :func:`hash64_utf8` (tests only)."""
    h = 0
    for b in s.encode("utf-8"):
        h = (h * 31 + b) & 0xFFFFFFFFFFFFFFFF
    return h


def lonlat_from_hash(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lon = (h & np.uint64(0xFFFFFFFF)).astype(np.float64) / float(1 << 32) * 360.0 - 180.0
    lat = (h >> np.uint64(32)).astype(np.float64) / float(1 << 32) * 180.0 - 90.0
    return lon, lat


def geocode_batch(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """map_batches stage: adds lon/lat/geo_src columns (SURVEY §1.4 points)."""
    h = hash64_utf8(batch[url_col])
    lon, lat = lonlat_from_hash(h)
    batch = batch.append_column("lon", pa.array(lon, pa.float64()))
    batch = batch.append_column("lat", pa.array(lat, pa.float64()))
    return batch.append_column(
        "geo_src", pa.array(np.full(len(batch), "url_hash"), pa.string())
    )
