"""Static packed R-tree (Sort-Tile-Recursive) in pure NumPy.

Replaces the reference's reliance on GDAL rasterization + the ``rtree``
package (``/root/reference/requirements.txt``, not available here) for
spatial candidate lookup.  Built once per worker process over the zone
bboxes (`stages.join._cached_zoneset`), then queried with *batched*
vectorized traversals: point containment candidates, bbox intersection,
and best-first kNN by bbox min-distance.

Layout: items are packed bottom-up with fanout ``F``; children of node
``i`` at level ``l`` are nodes ``[i*F, (i+1)*F)`` at level ``l-1`` (level
-1 = the items in STR order), so no child-pointer arrays are needed.
"""

from __future__ import annotations

import heapq

import numpy as np


class STRTree:
    def __init__(self, minx, miny, maxx, maxy, leaf_size: int = 16):
        bx0 = np.asarray(minx, dtype=np.float64)
        by0 = np.asarray(miny, dtype=np.float64)
        bx1 = np.asarray(maxx, dtype=np.float64)
        by1 = np.asarray(maxy, dtype=np.float64)
        n = bx0.size
        if n == 0:
            raise ValueError("STRTree needs at least one item")
        self.n = n
        self.fanout = int(leaf_size)

        # --- Sort-Tile-Recursive packing of the items ---
        cx = (bx0 + bx1) * 0.5
        cy = (by0 + by1) * 0.5
        num_leaves = -(-n // leaf_size)
        s = int(np.ceil(np.sqrt(num_leaves)))
        run = s * leaf_size  # items per vertical slice
        by_x = np.argsort(cx, kind="stable")
        order = np.empty(n, dtype=np.int64)
        for i in range(0, n, run):
            sl = by_x[i : i + run]
            order[i : i + run] = sl[np.argsort(cy[sl], kind="stable")]
        self.order = order
        self.bx0, self.by0 = bx0[order], by0[order]
        self.bx1, self.by1 = bx1[order], by1[order]

        # --- pack levels bottom-up (implicit children ranges) ---
        self.levels: list[np.ndarray] = []  # each: (n_l, 4) [minx,miny,maxx,maxy]
        lo_x0, lo_y0, lo_x1, lo_y1 = self.bx0, self.by0, self.bx1, self.by1
        while True:
            m = lo_x0.size
            nl = -(-m // self.fanout)
            pad = nl * self.fanout - m
            def _grouped(a, fill, red):
                ap = np.concatenate([a, np.full(pad, fill)]) if pad else a
                return red(ap.reshape(nl, self.fanout), axis=1)
            lev = np.stack(
                [
                    _grouped(lo_x0, np.inf, np.min),
                    _grouped(lo_y0, np.inf, np.min),
                    _grouped(lo_x1, -np.inf, np.max),
                    _grouped(lo_y1, -np.inf, np.max),
                ],
                axis=1,
            )
            self.levels.append(lev)
            if nl == 1:
                break
            lo_x0, lo_y0, lo_x1, lo_y1 = lev[:, 0], lev[:, 1], lev[:, 2], lev[:, 3]

    # ------------------------------------------------------------------
    def query_points(self, px, py) -> tuple[np.ndarray, np.ndarray]:
        """Candidate (point_idx, item_idx) pairs where the point lies inside
        the item's bbox.  Vectorized wavefront traversal: each visited node
        filters its surviving point subset with one NumPy mask.
        """
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        npts = px.size
        out_pt: list[np.ndarray] = []
        out_it: list[np.ndarray] = []
        top = len(self.levels) - 1
        # stack entries: (level, node_id, point-index subset)
        stack: list[tuple[int, int, np.ndarray]] = [
            (top, 0, np.arange(npts, dtype=np.int64))
        ]
        while stack:
            level, node, pts = stack.pop()
            b = self.levels[level][node]
            sx, sy = px[pts], py[pts]
            m = (sx >= b[0]) & (sx <= b[2]) & (sy >= b[1]) & (sy <= b[3])
            if not m.any():
                continue
            pts = pts[m]
            lo = node * self.fanout
            if level == 0:
                hi = min(lo + self.fanout, self.n)
                sx, sy = px[pts], py[pts]
                for j in range(lo, hi):
                    mj = (
                        (sx >= self.bx0[j])
                        & (sx <= self.bx1[j])
                        & (sy >= self.by0[j])
                        & (sy <= self.by1[j])
                    )
                    if mj.any():
                        sel = pts[mj]
                        out_pt.append(sel)
                        out_it.append(
                            np.full(sel.size, self.order[j], dtype=np.int64)
                        )
            else:
                hi = min(lo + self.fanout, self.levels[level - 1].shape[0])
                for c in range(lo, hi):
                    stack.append((level - 1, c, pts))
        if not out_pt:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        return np.concatenate(out_pt), np.concatenate(out_it)

    # ------------------------------------------------------------------
    def query_bbox(self, minx, miny, maxx, maxy) -> np.ndarray:
        """Item indices whose bbox intersects the query box."""
        top = len(self.levels) - 1
        hits: list[int] = []
        stack = [(top, 0)]
        while stack:
            level, node = stack.pop()
            b = self.levels[level][node]
            if b[0] > maxx or b[2] < minx or b[1] > maxy or b[3] < miny:
                continue
            lo = node * self.fanout
            if level == 0:
                hi = min(lo + self.fanout, self.n)
                j = np.arange(lo, hi)
                m = (
                    (self.bx0[j] <= maxx)
                    & (self.bx1[j] >= minx)
                    & (self.by0[j] <= maxy)
                    & (self.by1[j] >= miny)
                )
                hits.extend(self.order[j[m]].tolist())
            else:
                hi = min(lo + self.fanout, self.levels[level - 1].shape[0])
                stack.extend((level - 1, c) for c in range(lo, hi))
        return np.array(sorted(hits), dtype=np.int64)

    # ------------------------------------------------------------------
    def _knn_vectorized(self, px, py, k: int) -> tuple[np.ndarray, np.ndarray]:
        # (N, n) bbox min-distances in one broadcastped pass (items are in
        # STR order; map back through self.order)
        dx = np.maximum(
            np.maximum(self.bx0[None, :] - px[:, None], 0.0),
            px[:, None] - self.bx1[None, :],
        )
        dy = np.maximum(
            np.maximum(self.by0[None, :] - py[:, None], 0.0),
            py[:, None] - self.by1[None, :],
        )
        d = np.sqrt(dx * dx + dy * dy)
        if k < self.n:
            part = np.argpartition(d, k - 1, axis=1)[:, :k]
        else:
            part = np.broadcast_to(np.arange(self.n), (px.size, self.n)).copy()
        pd_ = np.take_along_axis(d, part, axis=1)
        order = np.argsort(pd_, axis=1, kind="stable")
        idx_sorted = np.take_along_axis(part, order, axis=1)
        d_sorted = np.take_along_axis(pd_, order, axis=1)
        return self.order[idx_sorted], d_sorted

    def _mindist2_node(self, level: int, node: int, x: float, y: float) -> float:
        b = self.levels[level][node]
        dx = max(b[0] - x, 0.0, x - b[2])
        dy = max(b[1] - y, 0.0, y - b[3])
        return dx * dx + dy * dy

    def knn_points(self, px, py, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest items per query point by bbox min-distance.

        Two execution strategies with identical results:
        * small item sets (≤ 4096): one vectorized (N × n) bbox-distance
          matrix + argpartition — no per-point Python;
        * large item sets: best-first branch-and-bound over the tree per
          point (prunes to O(log n + k) node visits).

        Returns (indices (N,k) int64 padded with -1, dists (N,k) float64
        padded with inf)."""
        px = np.asarray(px, dtype=np.float64).ravel()
        py = np.asarray(py, dtype=np.float64).ravel()
        npts = px.size
        k = min(int(k), self.n)
        if self.n <= 4096:
            return self._knn_vectorized(px, py, k)
        idx_out = np.full((npts, k), -1, dtype=np.int64)
        d_out = np.full((npts, k), np.inf, dtype=np.float64)
        top = len(self.levels) - 1
        for i in range(npts):
            x, y = float(px[i]), float(py[i])
            heap: list[tuple[float, int, int, int]] = [
                (self._mindist2_node(top, 0, x, y), 1, top, 0)
            ]  # (dist2, is_node, level, id) — is_node sorts nodes after equal-dist items
            found = 0
            while heap and found < k:
                d2, is_node, level, ident = heapq.heappop(heap)
                if not is_node:
                    idx_out[i, found] = ident
                    d_out[i, found] = np.sqrt(d2)
                    found += 1
                    continue
                lo = level * 0 + ident * self.fanout  # children range start
                if level == 0:
                    hi = min(lo + self.fanout, self.n)
                    for j in range(lo, hi):
                        dx = max(self.bx0[j] - x, 0.0, x - self.bx1[j])
                        dy = max(self.by0[j] - y, 0.0, y - self.by1[j])
                        heapq.heappush(
                            heap, (dx * dx + dy * dy, 0, -1, int(self.order[j]))
                        )
                else:
                    hi = min(lo + self.fanout, self.levels[level - 1].shape[0])
                    for c in range(lo, hi):
                        heapq.heappush(
                            heap,
                            (self._mindist2_node(level - 1, c, x, y), 1, level - 1, c),
                        )
        return idx_out, d_out
