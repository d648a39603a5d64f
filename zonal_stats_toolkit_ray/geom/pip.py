"""Vectorized point-in-polygon (ray casting) in pure NumPy.

Replaces the reference's ``gdal.RasterizeLayer(..., ALL_TOUCHED=FALSE)``
attribute burn (``/root/reference/runner.py:463-469, 599-606``): a pixel
belongs to a polygon iff its *center* is inside — i.e. exactly a
point-in-polygon test on cell/pixel centers.  Even-odd crossing rule;
conformance fixtures avoid center-on-edge ambiguity (SURVEY.md Q5/Q6) so
boundary tie-breaks are moot.

Two forms of the same test: ``points_in_ring`` for scattered points
(O(points × edges)), and ``ring_row_crossings`` for points on a regular
grid, where a ring is a set of per-row crossings (a scanline burn:
O(edge-row crossings)).  Both evaluate the crossing x with the same
float64 expression, so they agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def _open_ring(ring_x, ring_y) -> tuple[np.ndarray, np.ndarray]:
    """Ring vertices as float64 arrays, closing vertex (if any) dropped."""
    rx = np.asarray(ring_x, dtype=np.float64)
    ry = np.asarray(ring_y, dtype=np.float64)
    if rx.size >= 2 and rx[0] == rx[-1] and ry[0] == ry[-1]:
        return rx[:-1], ry[:-1]
    return rx, ry


def points_in_ring(
    px: np.ndarray,
    py: np.ndarray,
    ring_x: np.ndarray,
    ring_y: np.ndarray,
) -> np.ndarray:
    """Even-odd crossing test of N points against one ring.

    ``ring_x/ring_y`` are the ring vertices (closing vertex optional).
    Vectorized over points; loops only over the (few) ring edges.
    Returns a boolean mask of length N.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    rx, ry = _open_ring(ring_x, ring_y)
    n = rx.size
    inside = np.zeros(px.shape, dtype=bool)
    if n < 3:
        return inside
    x1, y1 = rx[-1], ry[-1]
    for i in range(n):
        x2, y2 = rx[i], ry[i]
        if y1 != y2:
            crosses = (y1 > py) != (y2 > py)
            if np.any(crosses):
                # x coordinate where the edge crosses the horizontal ray
                xcross = (x2 - x1) * (py[crosses] - y1) / (y2 - y1) + x1
                hit = px[crosses] < xcross
                inside[crosses] ^= hit
        x1, y1 = x2, y2
    return inside


def ring_row_crossings(
    ring_x, ring_y, ys: np.ndarray, r0: int, r1: int
) -> tuple[np.ndarray, np.ndarray]:
    """Where a ring's edges cross the horizontal lines ``y = ys[r]``.

    ``ys`` must be sorted ascending; only rows ``r0 <= r < r1`` are
    reported.  Returns ``(rows, xcross)``, one entry per edge-row crossing.
    An edge crosses row ``r`` iff ``min(y1, y2) <= ys[r] < max(y1, y2)``,
    which is exactly ``points_in_ring``'s ``(y1 > py) != (y2 > py)``, and
    ``xcross`` is its expression verbatim, so a point ``(px, ys[r])`` is
    inside iff an odd number of the row's crossings have ``px < xcross``.
    """
    rx, ry = _open_ring(ring_x, ring_y)
    if rx.size < 3:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    x1, y1 = np.roll(rx, 1), np.roll(ry, 1)
    lo = np.searchsorted(ys, np.minimum(y1, ry), side="left").clip(r0, r1)
    hi = np.searchsorted(ys, np.maximum(y1, ry), side="left").clip(r0, r1)
    n = hi - lo  # 0 for horizontal edges: they never cross
    edge = np.repeat(np.arange(rx.size), n)
    starts = np.cumsum(n) - n
    rows = lo[edge] + (np.arange(edge.size) - starts[edge])
    py = ys[rows]
    xa, ya = x1[edge], y1[edge]
    xcross = (rx[edge] - xa) * (py - ya) / (ry[edge] - ya) + xa
    return rows, xcross


def ring_bbox(ring_x, ring_y) -> tuple[float, float, float, float]:
    rx = np.asarray(ring_x, dtype=np.float64)
    ry = np.asarray(ring_y, dtype=np.float64)
    return float(rx.min()), float(ry.min()), float(rx.max()), float(ry.max())


def ring_edges_intersect_bbox(
    ring_x, ring_y, minx: float, miny: float, maxx: float, maxy: float
) -> bool:
    """True iff any ring edge segment touches the axis-aligned box.

    Vectorized over edges: an edge intersects the box iff its own bbox
    overlaps the box AND the box's four corners are not strictly on one
    side of the edge's supporting line (separating-axis test, exact for
    segment vs solid box).
    """
    rx, ry = _open_ring(ring_x, ring_y)
    if rx.size < 2:
        return False
    x1, y1 = rx, ry
    x2, y2 = np.roll(rx, -1), np.roll(ry, -1)
    exl = np.minimum(x1, x2)
    exh = np.maximum(x1, x2)
    eyl = np.minimum(y1, y2)
    eyh = np.maximum(y1, y2)
    overlap = (exh >= minx) & (exl <= maxx) & (eyh >= miny) & (eyl <= maxy)
    if not overlap.any():
        return False
    dx = x2 - x1
    dy = y2 - y1
    # signed side of each box corner w.r.t. the edge's supporting line
    s1 = dx * (miny - y1) - dy * (minx - x1)
    s2 = dx * (miny - y1) - dy * (maxx - x1)
    s3 = dx * (maxy - y1) - dy * (maxx - x1)
    s4 = dx * (maxy - y1) - dy * (minx - x1)
    one_side = ((s1 > 0) & (s2 > 0) & (s3 > 0) & (s4 > 0)) | (
        (s1 < 0) & (s2 < 0) & (s3 < 0) & (s4 < 0)
    )
    return bool((overlap & ~one_side).any())


def ring_contains_bbox(
    ring_x, ring_y, minx: float, miny: float, maxx: float, maxy: float
) -> bool:
    """True iff the axis-aligned box is entirely inside the ring (even-odd).

    Exact for ANY ring (convex or concave): if no ring edge intersects the
    box, the even-odd parity is constant over the whole (connected) box, so
    one interior corner test decides; the edge-intersection test rejects
    boxes the boundary passes through.  Used by the interior-cell shortcut
    in the spatial joiner (a cell proven inside exactly one zone needs no
    per-point PIP).
    """
    if ring_edges_intersect_bbox(ring_x, ring_y, minx, miny, maxx, maxy):
        return False
    cx = np.array([minx, maxx, maxx, minx])
    cy = np.array([miny, miny, maxy, maxy])
    return bool(points_in_ring(cx, cy, ring_x, ring_y).all())
