"""Geometry simplification: Douglas-Peucker on polygon rings.

The reference simplifies the aggregate vector with
``simplifyTolerance = 0.5 × pixel_width`` before rasterizing
(``/root/reference/runner.py:297-298, 349-365`` via gdal.VectorTranslate)
— quirk Q6: simplification changes which pixels fall inside.  The engine
wires the same default through the reference-parity API layer
(``fast_zonal_statistics(simplify_tolerance="auto")`` and ``run_job``
both apply 0.5 × |dx|, round-3); the lower-level ``zonal_stats_raster``
keeps the knob explicit (default off) for callers composing their own
pipelines.  Engine and golden oracle apply this same kernel so outputs
stay row-identical even on simplification-UNstable fixtures.

``simplify_zones_table`` runs one kernel over the flat values + offsets of
the Arrow ring columns: each ring drops its closing vertex, rolls to its
argmin of ``x + y`` and splits at its argmax into two open polylines;
Douglas-Peucker then runs level-synchronously over all of them,
one ``np.repeat`` gather of every active segment's interior points and one
``np.maximum.reduceat`` per level.  A segment splits where its max squared
distance exceeds ``tol²``, at the first index holding it (``np.argmax``'s
tie rule; a NaN max never splits).  The distance expression and its
operation order are the per-segment recursion's, and the DP result does
not depend on segment order, so the keep-mask is bit-identical to it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _first_extreme(v: np.ndarray, n: np.ndarray, ufunc) -> np.ndarray:
    """Per segment (lengths ``n``, all > 0) the in-segment index of the
    first ``ufunc`` extreme — ``np.argmin``/``np.argmax`` per segment,
    where the first NaN wins."""
    starts = np.cumsum(n) - n
    m = np.repeat(ufunc.reduceat(v, starts), n)
    hit = np.flatnonzero((v == m) | (np.isnan(v) & np.isnan(m)))
    seg = np.repeat(np.arange(n.size), n)[hit]
    return hit[np.r_[True, seg[1:] != seg[:-1]]] - starts


def _dp_keep(x: np.ndarray, y: np.ndarray, i: np.ndarray, j: np.ndarray, tol2: float) -> np.ndarray:
    """Douglas-Peucker keep-mask over flat open polylines ``x[i:j+1]``."""
    keep = np.zeros(x.size, dtype=bool)
    keep[i] = keep[j] = True
    while True:
        act = j > i + 1
        i, j = i[act], j[act]
        if not i.size:
            return keep
        n = j - i - 1
        sid = np.repeat(np.arange(i.size), n)
        first = np.cumsum(n) - n
        p = np.arange(first[-1] + n[-1]) - first[sid] + i[sid] + 1
        dx, dy = x[j] - x[i], y[j] - y[i]
        seg2, dx, dy = (dx * dx + dy * dy)[sid], dx[sid], dy[sid]
        ax, ay, px, py = x[i][sid], y[i][sid], x[p], y[p]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg2, 0.0, 1.0)
            d2 = np.where(
                seg2 == 0.0,
                (px - ax) ** 2 + (py - ay) ** 2,
                (px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2,
            )
        kmax = first + _first_extreme(d2, n, np.maximum)
        s = np.flatnonzero(d2[kmax] > tol2)
        if not s.size:
            return keep
        mid = p[kmax[s]]
        keep[mid] = True
        i, j = np.concatenate([i[s], mid]), np.concatenate([mid, j[s]])


def _simplify_flat(x: np.ndarray, y: np.ndarray, n: np.ndarray, tolerance: float):
    """Rings as flat float64 coordinates + per-ring vertex counts ``n`` →
    the simplified rings in the same layout (closing vertex dropped)."""
    start = np.cumsum(n) - n
    end = start + n - 1
    closed = n >= 2
    closed[closed] = (x[start[closed]] == x[end[closed]]) & (y[start[closed]] == y[end[closed]])
    x, y, rid = (np.delete(v, end[closed]) for v in (x, y, np.repeat(np.arange(n.size), n)))
    n = n - closed
    do = n >= 4 if tolerance > 0 else np.zeros(n.size, dtype=bool)
    if not do.any():
        return x, y, n
    # roll each ring to start at its argmin of x+y, then split at its argmax
    start = np.cumsum(n) - n
    sel = do[rid]
    nd, sd = n[do], start[do]
    a = np.zeros(n.size, dtype=np.int64)
    a[do] = _first_extreme((x + y)[sel], nd, np.minimum)
    k = np.arange(x.size) - start[rid]
    order = np.where(sel, start[rid] + (k + a[rid]) % n[rid], np.arange(x.size))
    x, y = x[order], y[order]
    b = _first_extreme((x + y)[sel], nd, np.maximum)
    # polylines rolled[0..b] and rolled[b..n-1] + rolled[0], interleaved per ring
    lens = np.stack([b + 1, nd - b + 1], axis=1).ravel()
    ends = np.cumsum(lens)
    pos = np.arange(ends[-1]) - np.repeat(ends - lens - np.stack([sd, sd + b], axis=1).ravel(), lens)
    pos[ends[1::2] - 1] = sd
    kp = _dp_keep(x[pos], y[pos], ends - lens, ends - 1, tolerance * tolerance)
    keep = ~sel
    keep[pos[kp]] = True
    # a ring left with <3 vertices keeps all of them (rolled)
    keep |= (np.bincount(rid, keep, minlength=n.size) < 3)[rid]
    return x[keep], y[keep], np.bincount(rid[keep], minlength=n.size)


def simplify_zones_table(zones_table, tolerance: float):
    """Zones table → zones table with simplified rings + refreshed bboxes
    (the engine-side analogue of the reference's VectorTranslate step)."""
    from ..sources.zones import ZONE_SCHEMA

    def flat(col):
        arr = col.combine_chunks()
        n = pc.fill_null(pc.list_value_length(arr), 0).to_numpy().astype(np.int64)
        return arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64), n

    (x, n), (y, _) = flat(zones_table["ring_x"]), flat(zones_table["ring_y"])
    x, y, n = _simplify_flat(x, y, n, tolerance)
    offsets = pa.array(np.r_[0, np.cumsum(n)].astype(np.int32))
    starts = offsets.to_numpy()[:-1]
    cols = [zones_table[c] for c in ZONE_SCHEMA.names[:3]]
    cols += [pa.ListArray.from_arrays(offsets, v) for v in (x, y)]
    cols += [f.reduceat(v, starts) for f in (np.minimum, np.maximum) for v in (x, y)]
    return pa.table(cols, names=ZONE_SCHEMA.names).cast(ZONE_SCHEMA)
