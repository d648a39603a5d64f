"""Unit + property tests for the pure-NumPy geometry kernels (no Ray)."""

import numpy as np
import pytest

from zonal_stats_toolkit_ray.geom import cellid, pip
from zonal_stats_toolkit_ray.geom.strtree import STRTree
from zonal_stats_toolkit_ray.geom.window import GridSpec, envelope_to_window


RNG = np.random.default_rng(42)


class TestCellId:
    def test_roundtrip_xy(self):
        for res in (0, 1, 5, 13, 29):
            n = 1 << res
            x = RNG.integers(0, n, 200).astype(np.uint64)
            y = RNG.integers(0, n, 200).astype(np.uint64)
            c = cellid.xy_to_cell(x, y, res)
            x2, y2, r2 = cellid.cell_to_xy(c)
            assert np.array_equal(x, x2)
            assert np.array_equal(y, y2)
            assert np.all(r2 == res)

    def test_latlng_roundtrip_center(self):
        lat = RNG.uniform(-90, 90, 500)
        lng = RNG.uniform(-180, 180, 500)
        for res in (3, 10, 20):
            c = cellid.latlng_to_cell(lat, lng, res)
            clat, clng = cellid.cell_to_latlng(c)
            # center is within half a cell of the input
            assert np.all(np.abs(clat - lat) <= 180.0 / (1 << res))
            assert np.all(np.abs(clng - lng) <= 360.0 / (1 << res))
            # re-encoding the center gives the same cell
            assert np.array_equal(cellid.latlng_to_cell(clat, clng, res), c)

    def test_parent_child(self):
        lat = RNG.uniform(-90, 90, 300)
        lng = RNG.uniform(-180, 180, 300)
        c10 = cellid.latlng_to_cell(lat, lng, 10)
        c6 = cellid.latlng_to_cell(lat, lng, 6)
        assert np.array_equal(cellid.cell_to_parent(c10, 6), c6)
        kids = cellid.cell_to_children(c6)
        assert kids.shape == (300, 4)
        # every child's parent is the original cell
        for j in range(4):
            assert np.array_equal(cellid.cell_to_parent(kids[:, j], 6), c6)
        assert np.all(cellid.get_resolution(kids) == 7)

    def test_bbox_contains_center(self):
        lat = RNG.uniform(-90, 90, 100)
        lng = RNG.uniform(-180, 180, 100)
        c = cellid.latlng_to_cell(lat, lng, 8)
        x0, y0, x1, y1 = cellid.cell_to_bbox(c)
        assert np.all((lng >= x0) & (lng <= x1) & (lat >= y0) & (lat <= y1))

    def test_edge_clamping(self):
        c = cellid.latlng_to_cell(
            np.array([90.0, -90.0]), np.array([180.0, -180.0]), 5
        )
        x, y, _ = cellid.cell_to_xy(c)
        assert x.tolist() == [31, 0]
        assert y.tolist() == [31, 0]

    def test_res_validation(self):
        with pytest.raises(ValueError):
            cellid.latlng_to_cell(0.0, 0.0, 30)


def _random_convex_ring(rng, cx, cy, r, nv=12):
    ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
    rad = rng.uniform(0.4 * r, r, nv)
    return cx + rad * np.cos(ang), cy + rad * np.sin(ang)


class TestPIP:
    def test_square(self):
        rx = np.array([0.0, 10.0, 10.0, 0.0])
        ry = np.array([0.0, 0.0, 10.0, 10.0])
        px = np.array([5.0, -1.0, 11.0, 5.0])
        py = np.array([5.0, 5.0, 5.0, -3.0])
        assert pip.points_in_ring(px, py, rx, ry).tolist() == [
            True,
            False,
            False,
            False,
        ]

    def test_closed_ring_equivalent(self):
        rx = np.array([0.0, 10.0, 10.0, 0.0, 0.0])
        ry = np.array([0.0, 0.0, 10.0, 10.0, 0.0])
        assert pip.points_in_ring(
            np.array([5.0]), np.array([5.0]), rx, ry
        ).tolist() == [True]

    def test_vs_matplotlib_free_winding(self):
        # brute-force check vs an independent even-odd implementation
        rng = np.random.default_rng(7)
        rx, ry = _random_convex_ring(rng, 0, 0, 5)
        px = rng.uniform(-6, 6, 2000)
        py = rng.uniform(-6, 6, 2000)
        got = pip.points_in_ring(px, py, rx, ry)

        def slow_one(x, y):
            inside = False
            j = len(rx) - 1
            for i in range(len(rx)):
                if (ry[i] > y) != (ry[j] > y):
                    xc = (rx[j] - rx[i]) * (y - ry[i]) / (ry[j] - ry[i]) + rx[i]
                    if x < xc:
                        inside = not inside
                j = i
            return inside

        want = np.array([slow_one(x, y) for x, y in zip(px, py)])
        assert np.array_equal(got, want)

    def test_ring_contains_bbox(self):
        rx = np.array([0.0, 10.0, 10.0, 0.0])
        ry = np.array([0.0, 0.0, 10.0, 10.0])
        assert pip.ring_contains_bbox(rx, ry, 2, 2, 8, 8)
        assert not pip.ring_contains_bbox(rx, ry, 2, 2, 12, 8)


class TestSTRTree:
    def _boxes(self, rng, n):
        cx = rng.uniform(-100, 100, n)
        cy = rng.uniform(-50, 50, n)
        w = rng.uniform(0.5, 5, n)
        h = rng.uniform(0.5, 5, n)
        return cx - w, cy - h, cx + w, cy + h

    def test_query_points_vs_brute(self):
        rng = np.random.default_rng(3)
        x0, y0, x1, y1 = self._boxes(rng, 137)
        tree = STRTree(x0, y0, x1, y1, leaf_size=8)
        px = rng.uniform(-110, 110, 1000)
        py = rng.uniform(-60, 60, 1000)
        pt, it = tree.query_points(px, py)
        got = set(zip(pt.tolist(), it.tolist()))
        want = set()
        for j in range(137):
            m = (px >= x0[j]) & (px <= x1[j]) & (py >= y0[j]) & (py <= y1[j])
            want.update((int(i), j) for i in np.nonzero(m)[0])
        assert got == want

    def test_query_bbox_vs_brute(self):
        rng = np.random.default_rng(4)
        x0, y0, x1, y1 = self._boxes(rng, 77)
        tree = STRTree(x0, y0, x1, y1, leaf_size=4)
        q = (-20.0, -10.0, 30.0, 15.0)
        got = tree.query_bbox(*q).tolist()
        m = (x0 <= q[2]) & (x1 >= q[0]) & (y0 <= q[3]) & (y1 >= q[1])
        assert got == sorted(np.nonzero(m)[0].tolist())

    def test_knn_vs_brute(self):
        rng = np.random.default_rng(5)
        x0, y0, x1, y1 = self._boxes(rng, 60)
        tree = STRTree(x0, y0, x1, y1, leaf_size=8)
        px = rng.uniform(-110, 110, 50)
        py = rng.uniform(-60, 60, 50)
        idx, dist = tree.knn_points(px, py, 3)
        for i in range(50):
            dx = np.maximum(np.maximum(x0 - px[i], 0), px[i] - x1)
            dy = np.maximum(np.maximum(y0 - py[i], 0), py[i] - y1)
            d = np.sqrt(dx * dx + dy * dy)
            want = np.sort(d)[:3]
            assert np.allclose(np.sort(dist[i]), want)

    def test_single_item(self):
        tree = STRTree([0.0], [0.0], [1.0], [1.0])
        pt, it = tree.query_points(np.array([0.5, 2.0]), np.array([0.5, 0.5]))
        assert pt.tolist() == [0] and it.tolist() == [0]


class TestWindow:
    GRID = GridSpec(x0=-180.0, y0=90.0, dx=1.0, dy=-1.0, width=360, height=180, nodata=-9999.0)

    def test_basic(self):
        # envelope (minx, maxx, miny, maxy)
        w = envelope_to_window((-180.0, -179.0, 89.0, 90.0), self.GRID)
        assert w == (0, 0, 1, 1)

    def test_clamping(self):
        w = envelope_to_window((-190.0, -170.0, 80.0, 100.0), self.GRID)
        xoff, yoff, wx, wy = w
        assert xoff == 0 and yoff == 0
        assert wx == 10 and wy == 10

    def test_outside(self):
        assert envelope_to_window((200.0, 210.0, 0.0, 1.0), self.GRID) is None

    def test_pixel_centers(self):
        gx, gy = self.GRID.pixel_centers(0, 0, 2, 2)
        assert gx[0, 0] == -179.5 and gy[0, 0] == 89.5
        assert gx[0, 1] == -178.5 and gy[1, 0] == 88.5


class TestConcaveCellShortcut:
    """Regression for the round-1 advisor finding: the interior-cell
    shortcut used a convex-only containment test on arbitrary rings, so
    concave zones (synth_zones(seed=42) has 19/25 concave parts) could
    cache-assign points that are actually outside every zone."""

    def test_ring_contains_bbox_concave(self):
        from zonal_stats_toolkit_ray.geom.pip import (
            ring_contains_bbox,
            ring_edges_intersect_bbox,
        )

        # concave "C" shape: box corners inside, but the notch passes through
        rx = np.array([0.0, 10.0, 10.0, 6.0, 6.0, 10.0, 10.0, 0.0])
        ry = np.array([0.0, 0.0, 4.0, 4.0, 6.0, 6.0, 10.0, 10.0])
        # box spanning the notch: all 4 corners inside the C, middle outside
        assert not ring_contains_bbox(rx, ry, 5.0, 3.0, 7.0, 7.0)
        assert ring_edges_intersect_bbox(rx, ry, 5.0, 3.0, 7.0, 7.0)
        # box fully in the solid left arm
        assert ring_contains_bbox(rx, ry, 1.0, 1.0, 3.0, 9.0)
        # box fully outside
        assert not ring_contains_bbox(rx, ry, 11.0, 1.0, 12.0, 2.0)

    def test_cached_assign_matches_uncached_200k(self):
        """The advisor's exact repro: 200k uniform points over
        synth_zones(seed=42) — cached and uncached assignment must agree."""
        from zonal_stats_toolkit_ray.geom import cellid
        from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones

        zs = ZoneSet(synth_zones(seed=42))
        rng = np.random.default_rng(0)
        n = 200_000
        px = rng.uniform(-180.0, 180.0, n)
        py = rng.uniform(-90.0, 90.0, n)
        coarse = cellid.latlng_to_cell(py, px, 7)
        fine = cellid.latlng_to_cell(py, px, 12)
        want = zs.assign_points(px, py)
        got = zs.assign_points_cached(px, py, coarse, fine_cells=fine)
        assert np.array_equal(got, want)


class TestScanlineAssign:
    """``ZoneSet.assign_grid`` (scanline burn) equals ``assign_points`` on
    the same pixel centers, fid for fid, for every tile of a grid whose
    edge tiles are clipped, under all four axis orientations."""

    W, H, TS, D = 37, 23, 16, 0.75  # D: pixel size, exact in binary

    def _zones(self):
        from zonal_stats_toolkit_ray.sources.zones import zones_table

        rng = np.random.default_rng(11)
        fids, rings = [], []
        # seeded noisy concave (star-shaped) rings, overlapping: highest
        # fid wins where they meet, though it comes first in part order
        for fid in reversed(range(6)):
            n = int(rng.integers(20, 90))
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            rad = rng.uniform(1.0, 7.0, n)
            cx, cy = rng.uniform(3, 25), rng.uniform(3, 14)
            fids.append(fid)
            rings.append((cx + rad * np.cos(ang), cy + rad * np.sin(ang)))
        c = (np.arange(40) + 0.5) * self.D  # pixel-centre coordinates
        # closed staircase on pixel-centre rows and columns (horizontal
        # edges, vertices exactly on centres) + an open triangle: fid 6 is
        # multi-part
        fids += [6, 6]
        rings.append((
            c[[2, 12, 12, 8, 8, 4, 4, 2, 2]],
            c[[3, 3, 9, 9, 14, 14, 20, 20, 3]],
        ))
        rings.append((c[[20, 34, 27]], c[[2, 2, 21]]))
        # degenerate rings assign nothing: two vertices, open or closed
        fids += [7, 8]
        rings.append((c[[5, 30]], c[[5, 18]]))
        rings.append((c[[5, 30, 5]], c[[18, 5, 18]]))
        # a part wholly outside the window
        fids.append(9)
        rings.append((np.array([40.0, 45.0, 42.0]), np.array([30.0, 30.0, 35.0])))
        return zones_table(fids, [0] * len(fids), ["g"] * len(fids), rings)

    @pytest.mark.parametrize("sx,sy", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_matches_assign_points(self, sx, sy):
        from zonal_stats_toolkit_ray.sources.raster import tile_window
        from zonal_stats_toolkit_ray.sources.zones import ZoneSet

        zs = ZoneSet(self._zones())
        grid = GridSpec(
            x0=0.0 if sx > 0 else self.W * self.D,
            y0=0.0 if sy > 0 else self.H * self.D,
            dx=sx * self.D,
            dy=sy * self.D,
            width=self.W,
            height=self.H,
            nodata=None,
            tile_size=self.TS,
        )
        seen = []
        for ty in range(-(-self.H // self.TS)):
            for tx in range(-(-self.W // self.TS)):
                col0, row0, ncols, nrows = tile_window(grid, tx, ty)
                gx, gy = grid.pixel_centers(col0, row0, ncols, nrows)
                want = zs.assign_points(gx.ravel(), gy.ravel()).reshape(nrows, ncols)
                got = zs.assign_grid(gx[0], gy[:, 0])
                assert got.shape == (nrows, ncols)
                assert np.array_equal(got, want)
                seen.append(got.ravel())
        # the fixture reaches what it claims: every real part burns, the
        # degenerate and outside parts do not
        assert set(np.unique(np.concatenate(seen)).tolist()) == {-1, *range(7)}
