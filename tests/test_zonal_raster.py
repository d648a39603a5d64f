"""Raster-path conformance: Ray engine vs the golden oracle, row-for-row,
including quirks Q2 (isclose nodata), Q4 (bbox fallback), Q8/Q9 (pivot
ordering) and the empty-intersection fast path."""

import numpy as np
import pytest

from zonal_stats_toolkit_ray.geom.window import GridSpec
from zonal_stats_toolkit_ray.pipelines.zonal import (
    pivot_stats,
    zonal_stats_raster,
)
from zonal_stats_toolkit_ray.sources.raster import dense_array, synth_tiles_table
from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones

from golden_oracle import oracle_zonal_statistics

GRID = GridSpec(
    x0=-180.0, y0=90.0, dx=3.75, dy=-3.75, width=96, height=48,
    nodata=-9999.0, tile_size=32,
)
GRID_NO_NODATA = GridSpec(
    x0=-180.0, y0=90.0, dx=3.75, dy=-3.75, width=96, height=48,
    nodata=None, tile_size=32,
)


def _stats_equal(got: dict, want: dict):
    assert set(got) == set(want), (set(got), set(want))
    for gv in want:
        gw, gg = want[gv], got[gv]
        assert list(gg.keys()) == list(gw.keys()), (gv, gg.keys(), gw.keys())
        for k in gw:
            a, b = gg[k], gw[k]
            if b is None or a is None:
                assert a is b, (gv, k, a, b)
            elif isinstance(b, int) and k in ("count", "nodata_count", "valid_count"):
                assert int(a) == int(b), (gv, k, a, b)
            else:
                assert np.isclose(float(a), float(b), rtol=1e-6, atol=1e-9), (
                    gv, k, a, b,
                )


@pytest.fixture(scope="module")
def tiles_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(synth_tiles_table(GRID, seed=42))


@pytest.mark.parametrize("percentiles", [[], [5.0, 95.0, 2.5]])
def test_engine_matches_oracle(ray_session, tiles_ds, percentiles):
    zt = synth_zones(seed=42, n_zones=24, include_subpixel=True, subpixel_size=0.01)
    zs = ZoneSet(zt)
    arr = dense_array(GRID, seed=42)
    want = oracle_zonal_statistics(arr, GRID, zt, percentiles)
    got = zonal_stats_raster(tiles_ds, GRID, zs, percentiles=percentiles)
    _stats_equal(got, want)


def test_nodata_none_variant(ray_session):
    import ray.data as rd

    zt = synth_zones(seed=7, n_zones=12)
    zs = ZoneSet(zt)
    tiles = rd.from_arrow(synth_tiles_table(GRID_NO_NODATA, seed=9))
    arr = dense_array(GRID_NO_NODATA, seed=9)
    want = oracle_zonal_statistics(arr, GRID_NO_NODATA, zt, [50.0])
    got = zonal_stats_raster(tiles, GRID_NO_NODATA, zs, percentiles=[50.0])
    _stats_equal(got, want)
    # with nodata=None nothing is nodata (quirk: runner.py:644-651)
    for gv, s in got.items():
        assert s["nodata_count"] == 0


def test_empty_intersection_fast_path(ray_session, tiles_ds):
    # zones entirely east of the raster → zeroed/None stats for every group,
    # no tile scan (runner.py:409-450)
    zt = synth_zones(seed=3, n_zones=6, world=(200.0, -90.0, 260.0, 90.0),
                     include_outside=False)
    zs = ZoneSet(zt)
    got = zonal_stats_raster(tiles_ds, GRID, zs, percentiles=[5.0])
    assert set(got) == set(zs.unique_groups)
    for s in got.values():
        assert s == {
            "min": None, "max": None, "count": 0, "nodata_count": 0,
            "valid_count": 0, "sum": 0.0, "stdev": None, "p5": None,
        }


def test_partition_invariance(ray_session):
    # same result at different block counts (FIXTURES.md invariant 4)
    import ray.data as rd

    zt = synth_zones(seed=42, n_zones=24)
    zs = ZoneSet(zt)
    t = synth_tiles_table(GRID, seed=42)
    r1 = zonal_stats_raster(rd.from_arrow(t).repartition(1), GRID, zs)
    r8 = zonal_stats_raster(rd.from_arrow(t).repartition(8), GRID, zs)
    _stats_equal(r8, r1)


def test_pivot_both_orders(ray_session, tiles_ds):
    zt = synth_zones(seed=42, n_zones=24)
    zs = ZoneSet(zt)
    stats = zonal_stats_raster(tiles_ds, GRID, zs, percentiles=[5.0, 95.0])
    by_stem = {"rasterA": stats, "rasterB": stats}
    stems = ["rasterA", "rasterB"]

    hdr, rows = pivot_stats(by_stem, stems, "agg_field,base_raster", "biome")
    assert hdr[0] == "biome"
    # Q9 stat-field order within each raster block
    fields = ["min", "max", "count", "nodata_count", "valid_count", "sum",
              "stdev", "p5", "p95"]
    assert hdr[1:] == [f"{f}_{s}" for s in stems for f in fields]
    # Q8 row order: lexicographic by str, None ("" label) last
    labels = [r["biome"] for r in rows]
    non_null = [l for l in labels if l != ""]
    assert non_null == sorted(non_null)
    assert labels[-1] == ""  # the null-group zone sorts last

    hdr2, rows2 = pivot_stats(by_stem, stems, "base_raster,agg_field", "biome")
    assert hdr2[0] == "base_raster"
    assert [r["base_raster"] for r in rows2] == stems

    with pytest.raises(ValueError):
        pivot_stats(by_stem, stems, "bogus,order", "biome")


@pytest.mark.parametrize("percentiles", [[], [5.0, 95.0]])
def test_ignore_nodata_false_matches_oracle(ray_session, tiles_ds, percentiles):
    """Round-2: ignore_nodata=False keeps nodata values in
    sum/sumsq/min/max and the percentile bags (runner.py:657-667, 778-811)
    while valid_count/stdev keep their count-based denominators."""
    zt = synth_zones(seed=42, n_zones=24, include_subpixel=True, subpixel_size=0.01)
    zs = ZoneSet(zt)
    arr = dense_array(GRID, seed=42)
    want = oracle_zonal_statistics(
        arr, GRID, zt, percentiles, ignore_nodata=False
    )
    got = zonal_stats_raster(
        tiles_ds, GRID, zs, percentiles=percentiles, ignore_nodata=False
    )
    _stats_equal(got, want)
    # the fixture has nodata pixels, so False must actually differ from True
    got_true = zonal_stats_raster(tiles_ds, GRID, zs, percentiles=percentiles)
    assert any(
        got[g]["sum"] != got_true[g]["sum"]
        for g in got
        if got[g]["nodata_count"] > 0
    )


def test_api_ignore_nodata_false(ray_session, tmp_path):
    """Public-API path: fast_zonal_statistics(ignore_nodata=False) now runs
    (was NotImplementedError) and matches the oracle."""
    import pyarrow.parquet as pq

    from zonal_stats_toolkit_ray.api import fast_zonal_statistics
    from zonal_stats_toolkit_ray.sources.raster import write_tiles
    from zonal_stats_toolkit_ray.sources.zones import synth_zones as sz

    raster = tmp_path / "r.parquet"
    write_tiles(str(raster), GRID, seed=42)
    zt = sz(seed=42, n_zones=12)
    zpath = tmp_path / "zones.parquet"
    pq.write_table(zt, zpath)
    got = fast_zonal_statistics(
        (str(raster), 1), str(zpath), ignore_nodata=False
    )
    from zonal_stats_toolkit_ray.geom.simplify import simplify_zones_table

    want = oracle_zonal_statistics(
        dense_array(GRID, seed=42),
        GRID,
        simplify_zones_table(zt, 0.5 * abs(GRID.dx)),  # API default Q6
        None,
        ignore_nodata=False,
    )
    _stats_equal(got, want)


def test_distributed_percentiles_match_driver_path(ray_session, tiles_ds, force_tree):
    """Round-2: a zero driver budget forces the salted distributed
    percentile path (no pixel value reaches the driver); results must equal
    the driver path and the golden oracle — including Q4 fallback zones
    whose window values union in as Datasets."""
    zt = synth_zones(seed=42, n_zones=24, include_subpixel=True, subpixel_size=0.01)
    zs = ZoneSet(zt)
    arr = dense_array(GRID, seed=42)
    pl = [5.0, 95.0, 2.5]
    want = oracle_zonal_statistics(arr, GRID, zt, pl)
    force_tree()
    got = zonal_stats_raster(tiles_ds, GRID, zs, percentiles=pl)
    _stats_equal(got, want)


def test_distributed_percentiles_many_fallback_windows(ray_session, force_tree):
    """Distributed fallback sweep (>16 windows) + distributed percentiles:
    many subpixel zones all land in the tile-sweep branch."""
    import pyarrow as pa
    import ray.data as rd

    from zonal_stats_toolkit_ray.sources.raster import synth_tiles_table
    from zonal_stats_toolkit_ray.sources.zones import zones_table

    rng = np.random.default_rng(7)
    fids, parts, groups, rings = [], [], [], []
    for i in range(24):  # > 16 windows → distributed sweep
        cx = -170.0 + 14.0 * i % 340
        cy = -80.0 + 6.5 * i % 160
        s = 1e-3
        fids.append(i)
        parts.append(0)
        groups.append(f"g{i % 5}")
        rings.append(
            (np.array([cx, cx + s, cx + s, cx]), np.array([cy, cy, cy + s, cy + s]))
        )
    zt = zones_table(fids, parts, groups, rings)
    zs = ZoneSet(zt)
    tiles = rd.from_arrow(synth_tiles_table(GRID, seed=42))
    arr = dense_array(GRID, seed=42)
    pl = [5.0, 95.0]
    want = oracle_zonal_statistics(arr, GRID, zt, pl)
    force_tree()
    got = zonal_stats_raster(tiles, GRID, zs, percentiles=pl)
    _stats_equal(got, want)


def test_directory_raster_matches_single_file(ray_session, tmp_path):
    """Round-2: a raster stored as a directory of Parquet shards (the
    100-TB layout) produces identical zonal stats to the single-file form,
    end-to-end through the config-driven job runner."""
    import ray.data as rd

    from zonal_stats_toolkit_ray.sources.raster import (
        read_grid_spec,
        write_tiles,
        write_tiles_dir,
    )

    single = tmp_path / "r_single.parquet"
    sharded = tmp_path / "r_dir"
    write_tiles(str(single), GRID, seed=42)
    write_tiles_dir(str(sharded), GRID, seed=42, shards=5)

    gs = read_grid_spec(str(sharded))
    assert gs == read_grid_spec(str(single))

    zt = synth_zones(seed=42, n_zones=16)
    zs = ZoneSet(zt)
    a = zonal_stats_raster(rd.read_parquet(str(single)), GRID, zs, percentiles=[5.0])
    b = zonal_stats_raster(rd.read_parquet(str(sharded)), GRID, zs, percentiles=[5.0])
    _stats_equal(b, a)


def test_reduce_partials_tree_combine(ray_session, tiles_ds, force_tree):
    """A zero driver budget forces the pre-combine level; the merged stats
    must be identical to the direct driver merge."""
    import zonal_stats_toolkit_ray.stages.zonal as Z
    from zonal_stats_toolkit_ray.pipelines.zonal import tile_fid_partials_batch

    zt = synth_zones(seed=42, n_zones=24)
    partials = tiles_ds.repartition(4).map_batches(
        tile_fid_partials_batch,
        fn_kwargs={"zones": zt, "grid": GRID, "nodata": (GRID.nodata,)},
        batch_format="pyarrow",
    ).materialize()
    direct = Z.reduce_partials(partials).sort_values("group_key").reset_index(drop=True)
    levels = force_tree(Z)
    tree = Z.reduce_partials(partials).sort_values("group_key").reset_index(drop=True)
    assert levels == [1], levels
    assert np.array_equal(direct["group_key"].to_numpy(), tree["group_key"].to_numpy())
    for c in ("count", "nodata_count", "min", "max"):
        assert np.allclose(direct[c].to_numpy(), tree[c].to_numpy(), equal_nan=True)
    assert np.allclose(direct["sum"].to_numpy(), tree["sum"].to_numpy())
