"""Polygon zone tables + the in-memory ZoneSet used by spatial stages.

Replaces the reference's OGR vector layer (``/root/reference/runner.py:312-341,
391-407``): each zone row = one polygon *part* with an integer ``zone_fid``
(≡ OGR FID) and a ``group_value`` (≡ the ``agg_field`` attribute; nullable —
``None`` groups get the ``""`` label and sort last, ``runner.py:981-997``).
Multi-part geometries are exploded to one row per part (reference M8,
``runner.py:710-717``) sharing a ``zone_fid``.

The zones side is always small relative to the corpus (countries/biomes:
6-300 groups), so it travels as one Arrow table broadcast via ``ray.put``
and is rebuilt into a ``ZoneSet`` (NumPy rings + STR R-tree) once per worker
process.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom.pip import points_in_ring, ring_row_crossings
from ..geom.strtree import STRTree

ZONE_SCHEMA = pa.schema(
    [
        ("zone_fid", pa.int64()),
        ("part_idx", pa.int32()),
        ("group_value", pa.string()),
        ("ring_x", pa.list_(pa.float64())),
        ("ring_y", pa.list_(pa.float64())),
        ("minx", pa.float64()),
        ("miny", pa.float64()),
        ("maxx", pa.float64()),
        ("maxy", pa.float64()),
    ]
)


def zones_table(
    fids: list[int],
    part_idxs: list[int],
    groups: list[str | None],
    rings: list[tuple[np.ndarray, np.ndarray]],
) -> pa.Table:
    rx = [np.asarray(r[0], dtype=np.float64) for r in rings]
    ry = [np.asarray(r[1], dtype=np.float64) for r in rings]
    return pa.table(
        {
            "zone_fid": pa.array(fids, pa.int64()),
            "part_idx": pa.array(part_idxs, pa.int32()),
            "group_value": pa.array(groups, pa.string()),
            "ring_x": pa.array([r.tolist() for r in rx], pa.list_(pa.float64())),
            "ring_y": pa.array([r.tolist() for r in ry], pa.list_(pa.float64())),
            "minx": pa.array([float(r.min()) for r in rx], pa.float64()),
            "miny": pa.array([float(r.min()) for r in ry], pa.float64()),
            "maxx": pa.array([float(r.max()) for r in rx], pa.float64()),
            "maxy": pa.array([float(r.max()) for r in ry], pa.float64()),
        },
        schema=ZONE_SCHEMA,
    )


def synth_zones(
    seed: int = 42,
    n_zones: int = 24,
    n_groups: int = 6,
    world: tuple[float, float, float, float] = (-180.0, -90.0, 180.0, 90.0),
    include_outside: bool = True,
    include_subpixel: bool = False,
    subpixel_size: float = 1e-4,
) -> pa.Table:
    """Seeded convex polygon zones covering the fixture cases of FIXTURES.md §2:
    disjoint zones, several FIDs per group, one null-group zone, optionally a
    zone entirely outside the world extent and a sub-pixel (zero-pixel) zone
    with a two-part variant (quirk Q4 last-part-wins)."""
    rng = np.random.default_rng(seed)
    minx, miny, maxx, maxy = world
    fids: list[int] = []
    parts: list[int] = []
    groups: list[str | None] = []
    rings: list[tuple[np.ndarray, np.ndarray]] = []

    span_x = maxx - minx
    span_y = maxy - miny
    # place zone centers on a jittered grid to keep overlap rare
    ncols = int(np.ceil(np.sqrt(n_zones)))
    fid = 0
    for i in range(n_zones):
        gx = (i % ncols + 0.5) / ncols
        gy = (i // ncols + 0.5) / ncols
        cx = minx + gx * span_x + rng.uniform(-0.03, 0.03) * span_x
        cy = miny + gy * span_y + rng.uniform(-0.03, 0.03) * span_y
        r = rng.uniform(0.05, 0.45) * min(span_x, span_y) / ncols
        nv = int(rng.integers(5, 12))
        ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
        rad = rng.uniform(0.5 * r, r, nv)
        rx = np.clip(cx + rad * np.cos(ang), minx, maxx)
        ry = np.clip(cy + rad * np.sin(ang), miny, maxy)
        if i == n_zones - 1:
            group = None  # exercises None → "" labeling + sort-last (Q8)
        else:
            group = f"g{int(rng.integers(0, n_groups)):02d}"
        fids.append(fid)
        parts.append(0)
        groups.append(group)
        rings.append((rx, ry))
        fid += 1

    if include_outside:
        # zone entirely outside the world extent → empty/zeroed stats row
        # (runner.py:429-439)
        rx = np.array([maxx + 10, maxx + 20, maxx + 20, maxx + 10])
        ry = np.array([miny, miny, miny + 5, miny + 5])
        fids.append(fid)
        parts.append(0)
        groups.append("g_outside")
        rings.append((rx, ry))
        fid += 1

    if include_subpixel:
        # single-part sub-pixel zone → bbox-window fallback path (Q4)
        cx, cy = minx + 0.37 * span_x, miny + 0.41 * span_y
        s = subpixel_size
        rx = np.array([cx, cx + s, cx + s, cx])
        ry = np.array([cy, cy, cy + s, cy + s])
        fids.append(fid)
        parts.append(0)
        groups.append("g_tiny")
        rings.append((rx, ry))
        fid += 1
        # two-part sub-pixel zone → last-part-wins overwrite (Q4)
        for pi, (ox, oy) in enumerate([(0.63, 0.21), (0.81, 0.73)]):
            cx, cy = minx + ox * span_x, miny + oy * span_y
            rx = np.array([cx, cx + s, cx + s, cx])
            ry = np.array([cy, cy, cy + s, cy + s])
            fids.append(fid)
            parts.append(pi)
            groups.append("g_tiny2")
            rings.append((rx, ry))
        fid += 1

    return zones_table(fids, parts, groups, rings)


class ZoneSet:
    """Decoded zones: NumPy rings + STR R-tree; built once per worker process.

    Two assignment kernels implement the reference's rasterize-burn
    semantics (even-odd containment of the point — pixel or cell center —
    and, where zones overlap a point, highest-FID-wins, matching the
    reference's later-feature-overwrites burn order with
    ``polygons_might_overlap=False``: quirk Q5, ``runner.py:463-469, 960``):

    * ``assign_points`` for scattered points (pages, cells): R-tree
      candidate lookup, then ``points_in_ring`` per candidate part;
    * ``assign_grid`` for pixel centers on a regular grid (raster tiles): a
      scanline burn of each part's edge-row crossings, with no point index.

    Both give the same fid for the same point, bit for bit.
    """

    def __init__(self, table: pa.Table, interior_cell_res: int | None = None):
        self.table = table
        self.fid = table["zone_fid"].to_numpy()
        self.part_idx = table["part_idx"].to_numpy()
        # group_value per part row (None-able)
        self.group = table["group_value"].to_pylist()
        self.ring_x = [np.asarray(r, dtype=np.float64) for r in table["ring_x"].to_pylist()]
        self.ring_y = [np.asarray(r, dtype=np.float64) for r in table["ring_y"].to_pylist()]
        self.minx = table["minx"].to_numpy()
        self.miny = table["miny"].to_numpy()
        self.maxx = table["maxx"].to_numpy()
        self.maxy = table["maxy"].to_numpy()
        self.tree = STRTree(self.minx, self.miny, self.maxx, self.maxy)
        self.n_parts = len(self.fid)

        # fid → group lookup (fid space may be sparse)
        self.fid_to_group: dict[int, str | None] = {}
        for f, g in zip(self.fid.tolist(), self.group):
            self.fid_to_group[f] = g
        self.all_fids = sorted(self.fid_to_group)
        self.unique_groups = sorted(
            set(self.fid_to_group.values()), key=lambda v: (v is None, str(v))
        )
        # precomputed fid→group LUT arrays for vectorized groups_for_fids
        # (sorted fid keys + a parallel Arrow string array of group values;
        # built once per ZoneSet instead of per batch)
        self._lut_fids = np.asarray(self.all_fids, dtype=np.int64)
        self._lut_groups = pa.array(
            [self.fid_to_group[f] for f in self.all_fids], pa.string()
        )

        self.interior_cell_res = interior_cell_res
        # cell_id → fid for cells proven interior to exactly one zone part;
        # -2 marks "boundary / multi-candidate, do per-point PIP".
        self._cell_cache: dict[int, int] = {}

    # -- broadcastable construction ------------------------------------
    @classmethod
    def from_ipc(cls, buf: bytes, **kw) -> "ZoneSet":
        return cls(pa.ipc.open_stream(buf).read_all(), **kw)

    def to_ipc(self) -> bytes:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, self.table.schema) as w:
            w.write_table(self.table)
        return sink.getvalue().to_pybytes()

    # ------------------------------------------------------------------
    def assign_points(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Zone fid per point (int64, -1 = unassigned), highest-fid-wins."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        out = np.full(px.shape, -1, dtype=np.int64)
        pt_idx, part_idx = self.tree.query_points(px, py)
        if pt_idx.size == 0:
            return out
        # evaluate PIP per candidate part (loop over parts with any hits —
        # vectorized over that part's candidate points)
        order = np.argsort(part_idx, kind="stable")
        pt_idx, part_idx = pt_idx[order], part_idx[order]
        bounds = np.searchsorted(part_idx, np.arange(self.n_parts + 1))
        for j in range(self.n_parts):
            lo, hi = bounds[j], bounds[j + 1]
            if lo == hi:
                continue
            pts = pt_idx[lo:hi]
            inside = points_in_ring(px[pts], py[pts], self.ring_x[j], self.ring_y[j])
            if inside.any():
                sel = pts[inside]
                np.maximum.at(out, sel, np.int64(self.fid[j]))
        return out

    def assign_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Zone fid per point of the grid ``xs × ys`` (1-D, each monotone),
        shaped ``(len(ys), len(xs))``: equal to ``assign_points`` on the
        broadcast points, computed as a scanline burn.

        Each part burns only the points inside its bbox (the R-tree's
        candidate rule, so parts that miss the grid cost nothing).  Its
        edge-row crossings become column cuts ``c = #(xs < xcross)``; a
        point is inside iff an odd number of its row's crossings cut to its
        right, which one ``bincount`` and one suffix sum give for the whole
        bbox window.  O(crossings + window points) per part instead of
        O(points × edges)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        # work on ascending axes; flip the result back at the end
        flip_x = xs.size > 1 and xs[0] > xs[-1]
        flip_y = ys.size > 1 and ys[0] > ys[-1]
        if flip_x:
            xs = xs[::-1]
        if flip_y:
            ys = ys[::-1]
        out = np.full((ys.size, xs.size), -1, dtype=np.int64)
        c0 = np.searchsorted(xs, self.minx, side="left")
        c1 = np.searchsorted(xs, self.maxx, side="right")
        r0 = np.searchsorted(ys, self.miny, side="left")
        r1 = np.searchsorted(ys, self.maxy, side="right")
        for j in np.flatnonzero((c0 < c1) & (r0 < r1)).tolist():
            ra, rb, ca, cb = int(r0[j]), int(r1[j]), int(c0[j]), int(c1[j])
            rows, xcross = ring_row_crossings(
                self.ring_x[j], self.ring_y[j], ys, ra, rb
            )
            if rows.size == 0:
                continue
            w = cb - ca
            # window column k lies left of a crossing iff k < cut
            cut = (np.searchsorted(xs, xcross, side="left") - ca).clip(0, w)
            toggles = np.bincount(
                (rows - ra) * (w + 1) + cut, minlength=(rb - ra) * (w + 1)
            ).reshape(rb - ra, w + 1)
            # crossings with cut > k, for k = 0..w-1 (uint8 wraps: parity kept)
            right = np.cumsum(toggles[:, :0:-1], axis=1, dtype=np.uint8)[:, ::-1]
            inside = (right & 1).astype(bool)
            win = out[ra:rb, ca:cb]
            win[inside] = np.maximum(win[inside], self.fid[j])
        return out[:: -1 if flip_y else 1, :: -1 if flip_x else 1]

    def _classify_cell(self, cell: int) -> int:
        """cell id → cached classification: -1 outside every zone, -2 on a
        zone boundary (needs per-point PIP), else the fid every point in the
        cell resolves to.

        Exact for arbitrary (including concave) rings: if NO candidate
        ring's edges intersect the cell box, even-odd parity is constant
        across the box for every candidate, so one corner test per
        candidate decides containment and highest-fid-wins picks the
        winner.  Any edge crossing the box → -2 (per-point PIP fallback).
        """
        from ..geom import cellid as _cellid
        from ..geom.pip import ring_edges_intersect_bbox

        hit = self._cell_cache.get(cell)
        if hit is None:
            x0, y0, x1, y1 = (
                float(v) for v in _cellid.cell_to_bbox(np.uint64(cell))
            )
            cand = self.tree.query_bbox(x0, y0, x1, y1)
            if cand.size == 0:
                hit = -1
            else:
                hit = -1
                cx = np.array([x0])
                cy = np.array([y0])
                for j in cand.tolist():
                    if ring_edges_intersect_bbox(
                        self.ring_x[j], self.ring_y[j], x0, y0, x1, y1
                    ):
                        hit = -2  # boundary cell: per-point PIP needed
                        break
                    if points_in_ring(cx, cy, self.ring_x[j], self.ring_y[j])[0]:
                        hit = max(hit, int(self.fid[j]))
            self._cell_cache[cell] = hit
        return hit

    def assign_points_cached(
        self,
        px: np.ndarray,
        py: np.ndarray,
        cells: np.ndarray,
        *,
        fine_cells: np.ndarray | None = None,
        refine_threshold: int = 512,
        max_refine_res: int | None = None,
    ) -> np.ndarray:
        """Like assign_points but with the interior-cell shortcut + hot-cell
        RESOLUTION SPLITTING (north_rule skew handling):

        * points grouped by their coarse ``cells`` id; a cell fully inside
          exactly one zone resolves all its points with one cached dict hit;
        * a BOUNDARY cell holding ≥ ``refine_threshold`` points (a hot,
          dense cell) is split: its points are re-keyed at resolution+2 via
          ``fine_cells`` and recursed, so most of the hot cell's interior
          children become dictionary hits and only the true boundary sliver
          pays per-point PIP;
        * the cache lives for the worker's lifetime, so hot cells amortize
          across batches."""
        from ..geom import cellid as _cellid

        out = np.full(px.shape, -1, dtype=np.int64)
        uniq, inv = np.unique(cells, return_inverse=True)
        todo_mask = np.zeros(px.shape, dtype=bool)
        refine: list[np.ndarray] = []
        cell_res = int(_cellid.get_resolution(np.uint64(uniq[0]))) if uniq.size else 0
        fine_res = (
            int(_cellid.get_resolution(np.uint64(fine_cells[0])))
            if fine_cells is not None and len(fine_cells)
            else cell_res
        )
        can_refine = fine_cells is not None and fine_res >= cell_res + 2 and (
            max_refine_res is None or cell_res + 2 <= max_refine_res
        )
        for ci, cell in enumerate(uniq.tolist()):
            hit = self._classify_cell(cell)
            m = inv == ci
            if hit == -2:
                if can_refine and int(m.sum()) >= refine_threshold:
                    refine.append(np.flatnonzero(m))
                else:
                    todo_mask |= m
            else:
                out[m] = hit
        if refine:
            idx = np.concatenate(refine)
            sub_coarse = _cellid.cell_to_parent(
                np.asarray(fine_cells, dtype=np.uint64)[idx], cell_res + 2
            )
            out[idx] = self.assign_points_cached(
                px[idx],
                py[idx],
                sub_coarse,
                fine_cells=np.asarray(fine_cells)[idx],
                refine_threshold=refine_threshold,
                max_refine_res=max_refine_res,
            )
        if todo_mask.any():
            out[todo_mask] = self.assign_points(px[todo_mask], py[todo_mask])
        return out

    def groups_for_fids(self, fids: np.ndarray) -> pa.Array:
        """Vectorized fid → group_value lookup (None-able string array).

        Uses the LUT precomputed in ``__init__``: one ``searchsorted`` over
        int64 keys + an Arrow ``take`` with null indices for misses — no
        per-row Python and no per-batch LUT rebuild."""
        fids = np.asarray(fids, dtype=np.int64)
        pos = np.searchsorted(self._lut_fids, fids)
        pos = np.clip(pos, 0, max(len(self._lut_fids) - 1, 0))
        ok = self._lut_fids[pos] == fids if len(self._lut_fids) else np.zeros(
            fids.shape, dtype=bool
        )
        take_idx = pa.array(
            np.where(ok, pos, 0).astype(np.int64), mask=~ok
        )  # null index → null output
        return self._lut_groups.take(take_idx)
