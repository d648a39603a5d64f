"""Conformance for the CRS/reprojection stage (reference M1,
runner.py:307-341): zones expressed in a different CRS must, after
reprojection into the points frame, produce IDENTICAL joins and zonal
stats to the untransformed golden path."""

import numpy as np
import pyarrow as pa
import pytest

from zonal_stats_toolkit_ray.geom.crs import (
    CRS,
    LONLAT,
    WEBMERC,
    prepare_zones,
    reproject_zones_table,
    same_crs,
    transform_points,
)
from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones


class TestCRSCore:
    def test_same_crs_axis_normalization(self):
        assert same_crs(LONLAT, CRS(axis_order="yx"))
        assert not same_crs(LONLAT, WEBMERC)

    def test_same_crs_affine_exact_equality(self):
        """Round-3 (advisor): IsSame is not magnitude-relative — two affine
        frames differing below np.allclose's rtol must NOT compare equal
        (skipping reprojection would silently misplace every zone)."""
        a = CRS(kind="affine", affine=(100000.0, 0.0, 0.0, 0.0, 100000.0, 0.0))
        b = CRS(kind="affine", affine=(100000.5, 0.0, 0.0, 0.0, 100000.0, 0.0))
        assert not same_crs(a, b)  # 5e-6 relative — inside allclose rtol
        assert same_crs(a, CRS(kind="affine", affine=a.affine))
        # missing SRS is never "same" — forces the reproject path
        assert not same_crs(None, LONLAT)

    def test_same_crs_affine_ulp_tolerance(self):
        """Round-4 (ADVICE r3): GDAL IsSame is tolerance-based — one-ulp
        differences from a different arithmetic path must NOT trigger a
        lossy reprojection, while anything beyond a few ulps still must."""
        base = (0.1875, 0.0, -180.0, 0.0, -0.1875, 90.0)
        one_ulp = tuple(np.nextafter(np.float64(v), np.inf) for v in base)
        assert same_crs(
            CRS(kind="affine", affine=base), CRS(kind="affine", affine=one_ulp)
        )
        ten_ulp = tuple(
            float(np.float64(v) + 10 * np.spacing(np.float64(abs(v) or 1.0)))
            for v in base
        )
        assert not same_crs(
            CRS(kind="affine", affine=base), CRS(kind="affine", affine=ten_ulp)
        )

    def test_webmerc_roundtrip(self):
        rng = np.random.default_rng(3)
        lon = rng.uniform(-179, 179, 1000)
        lat = rng.uniform(-85, 85, 1000)
        x, y = transform_points(LONLAT, WEBMERC, lon, lat)
        lon2, lat2 = transform_points(WEBMERC, LONLAT, x, y)
        assert np.allclose(lon, lon2, atol=1e-9)
        assert np.allclose(lat, lat2, atol=1e-9)

    def test_affine_roundtrip_and_axis_swap(self):
        rng = np.random.default_rng(4)
        aff = CRS(kind="affine", affine=(2.0, 0.3, 100.0, -0.1, 1.5, -40.0))
        lon = rng.uniform(-179, 179, 500)
        lat = rng.uniform(-89, 89, 500)
        x, y = transform_points(LONLAT, aff, lon, lat)
        l2, t2 = transform_points(aff, LONLAT, x, y)
        assert np.allclose(lon, l2) and np.allclose(lat, t2)
        # yx source: data stored lat-first swaps into xy
        yx = CRS(axis_order="yx")
        xo, yo = transform_points(yx, LONLAT, lat, lon)
        assert np.allclose(xo, lon) and np.allclose(yo, lat)

    def test_missing_src_assigns_without_moving(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        xo, yo = transform_points(None, WEBMERC, x, y)
        assert np.array_equal(xo, x) and np.array_equal(yo, y)


class TestZoneReprojection:
    def test_roundtrip_zones_identical_assignment(self):
        """Zones shipped in Web-Mercator reproject back to lon/lat and give
        the same point assignments as the original zones."""
        zt = synth_zones(seed=42, n_zones=20)
        merc = reproject_zones_table(zt, LONLAT, WEBMERC)
        back = prepare_zones(merc, WEBMERC, LONLAT)
        zs_orig = ZoneSet(zt)
        zs_back = ZoneSet(back)
        rng = np.random.default_rng(0)
        px = rng.uniform(-180, 180, 50_000)
        py = rng.uniform(-85, 85, 50_000)
        assert np.array_equal(
            zs_orig.assign_points(px, py), zs_back.assign_points(px, py)
        )

    def test_prepare_zones_same_crs_is_noop(self):
        zt = synth_zones(seed=7, n_zones=8)
        assert prepare_zones(zt, LONLAT, LONLAT) is zt
        assert prepare_zones(zt, None, None) is zt  # single-CRS default mode

    def test_bboxes_recomputed(self):
        zt = synth_zones(seed=9, n_zones=6)
        merc = reproject_zones_table(zt, LONLAT, WEBMERC)
        rx = merc["ring_x"].to_pylist()
        for i in range(len(merc)):
            assert np.isclose(merc["minx"][i].as_py(), min(rx[i]))
            assert np.isclose(merc["maxx"][i].as_py(), max(rx[i]))


def test_join_points_with_crs_matches_untransformed(ray_session):
    """End-to-end: the flagship join with mercator-expressed zones +
    zones_crs/points_crs equals the untransformed golden run."""
    import ray.data as rd

    from zonal_stats_toolkit_ray.pipelines.zonal import join_points
    from zonal_stats_toolkit_ray.sources.pages import synth_pages_table

    pages = synth_pages_table(400, seed=5)
    zt = synth_zones(seed=42, n_zones=16)
    merc_zones = reproject_zones_table(zt, LONLAT, WEBMERC)
    ds = rd.from_arrow(pages).repartition(3)
    golden = (
        join_points(ds, zt)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    got = (
        join_points(
            ds, merc_zones, zones_crs=WEBMERC, points_crs=LONLAT
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert np.array_equal(golden["zone_fid"].to_numpy(), got["zone_fid"].to_numpy())


def test_raster_pipeline_with_reprojected_zones(ray_session):
    """CRS stage composed with the FULL raster path: zones shipped in
    Web-Mercator, reprojected via prepare_zones, then complete zonal stats
    (incl. percentiles) must equal the untransformed golden oracle."""
    import ray.data as rd

    from zonal_stats_toolkit_ray.geom.window import GridSpec
    from zonal_stats_toolkit_ray.pipelines.zonal import zonal_stats_raster
    from zonal_stats_toolkit_ray.sources.raster import dense_array, synth_tiles_table

    import sys as _sys
    _sys.path.insert(0, "/root/repo/tests")
    from golden_oracle import oracle_zonal_statistics

    grid = GridSpec(
        x0=-180.0, y0=90.0, dx=3.75, dy=-3.75, width=96, height=48,
        nodata=-9999.0, tile_size=32,
    )
    zt = synth_zones(seed=42, n_zones=20)
    merc = reproject_zones_table(zt, LONLAT, WEBMERC)
    back = prepare_zones(merc, WEBMERC, LONLAT)
    tiles = rd.from_arrow(synth_tiles_table(grid, seed=42))
    got = zonal_stats_raster(
        tiles, grid, ZoneSet(back), percentiles=[5.0, 95.0]
    )
    want = oracle_zonal_statistics(
        dense_array(grid, seed=42), grid, zt, [5.0, 95.0]
    )
    assert set(got) == set(want)
    for gv in want:
        for k, wv in want[gv].items():
            g = got[gv][k]
            if wv is None:
                assert g is None, (gv, k)
            elif isinstance(wv, int):
                assert int(g) == wv, (gv, k)
            else:
                assert np.isclose(float(g), float(wv), rtol=1e-6, atol=1e-9), (gv, k)
