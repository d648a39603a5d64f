"""Rasters that share a grid and a tile layout are read, burned and reduced
together as the bands of one tile pass (``zonal_stats_bands``); every band
must get exactly the stats of its own ``zonal_stats_raster`` run, up to the
float64 summation order of ``sum`` / ``stdev``."""

import dataclasses
from collections import Counter

import numpy as np
import pyarrow.parquet as pq
import pytest

from zonal_stats_toolkit_ray.geom.window import GridSpec
from zonal_stats_toolkit_ray.pipelines import zonal as PZ
from zonal_stats_toolkit_ray.sources.raster import (
    read_grid_spec,
    synth_tiles_table,
    write_tiles,
    write_tiles_dir,
)
from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones

from test_distributed_fallback import GRID, _overlapping_zones, _record_sweeps

PLIST = [5.0, 50.0, 95.0]
# band 1: same geometry and layout as GRID, its own nodata
GRID_1 = dataclasses.replace(GRID, nodata=-1.0)


def _assert_same_stats(got: dict, want: dict):
    assert set(got) == set(want)
    for g in want:
        assert set(got[g]) == set(want[g]), g
        for k, wv in want[g].items():
            gv = got[g][k]
            if k in ("sum", "stdev") and wv is not None and gv is not None:
                assert np.isclose(gv, wv, rtol=1e-12, atol=0), (g, k, gv, wv)
            else:
                assert gv == wv, (g, k, gv, wv)


def _driver_read_zones():
    return synth_zones(seed=42, n_zones=24, include_subpixel=True, subpixel_size=0.01)


@pytest.mark.parametrize("forced", [False, True], ids=["one_task", "distributed"])
@pytest.mark.parametrize("ignore_nodata", [True, False])
@pytest.mark.parametrize(
    "zones, swept",
    [
        pytest.param(_driver_read_zones, False, id="driver_read_windows"),
        pytest.param(lambda: _overlapping_zones(n=96, seed=21), True, id="swept_windows"),
    ],
)
def test_bands_match_per_band_runs(
    ray_session, monkeypatch, force_tree, zones, swept, ignore_nodata, forced
):
    """Two bands with different values and nodata through each Q4 branch
    (≤16 windows read on the driver, >16 swept over the tiles) and both
    reduce regimes (one task per reduce; with a zero driver budget the
    tree combine and the salted shuffle)."""
    import ray.data as rd

    zs = ZoneSet(zones())
    t0 = synth_tiles_table(GRID, seed=9)
    t1 = synth_tiles_table(GRID_1, seed=10)
    kw = dict(percentiles=PLIST, ignore_nodata=ignore_nodata)
    want = [
        PZ.zonal_stats_raster(rd.from_arrow(t).repartition(5), g, zs, **kw)
        for t, g in ((t0, GRID), (t1, GRID_1))
    ]
    sweeps = _record_sweeps(monkeypatch)
    if forced:
        force_tree()
    bands = rd.from_arrow(t0.append_column("values_1", t1["values"])).repartition(5)
    got = PZ.zonal_stats_bands(bands, GRID, [GRID.nodata, GRID_1.nodata], zs, **kw)
    assert len(sweeps) == int(swept), sweeps  # one window set serves both bands
    assert len(got) == 2
    for g, w in zip(got, want):
        _assert_same_stats(g, w)


def test_bands_without_percentiles(ray_session, monkeypatch):
    """The no-percentile path: per-tile partials of both bands through one
    tree combine, and the swept Q4 windows."""
    import ray.data as rd

    zs = ZoneSet(_overlapping_zones(n=96, seed=21))
    t0 = synth_tiles_table(GRID, seed=5)
    t1 = synth_tiles_table(GRID_1, seed=6)
    want = [
        PZ.zonal_stats_raster(rd.from_arrow(t).repartition(4), g, zs)
        for t, g in ((t0, GRID), (t1, GRID_1))
    ]
    sweeps = _record_sweeps(monkeypatch)
    bands = rd.from_arrow(t0.append_column("values_1", t1["values"])).repartition(4)
    got = PZ.zonal_stats_bands(bands, GRID, [GRID.nodata, GRID_1.nodata], zs)
    assert sweeps == [19], sweeps
    for g, w in zip(got, want):
        _assert_same_stats(g, w)


def test_run_job_groups_rasters_by_grid_and_layout(ray_session, monkeypatch, tmp_path):
    """One job over two rasters on grid A (different values and nodata),
    one on grid B, and one on grid A written as a shard directory (another
    tile layout): every raster gets the stats of its own
    ``zonal_stats_raster`` call, and the grid-A pair burns each tile once."""
    import ray.data as rd

    from zonal_stats_toolkit_ray.pipelines import runner

    grid_b = GridSpec(
        x0=-180.0, y0=90.0, dx=3.75, dy=-3.75, width=96, height=48,
        nodata=-5.0, tile_size=32,
    )
    zt = _driver_read_zones()
    pq.write_table(zt, tmp_path / "zones.parquet")
    paths = [str(tmp_path / n) for n in ("a0.parquet", "b.parquet", "a1.parquet", "a_dir")]
    write_tiles(paths[0], GRID, seed=3)
    write_tiles(paths[1], grid_b, seed=4)
    write_tiles(paths[2], GRID_1, seed=5)
    write_tiles_dir(paths[3], GRID, seed=6, shards=4)

    log = tmp_path / "burns"
    burn = PZ.tile_fid_pixels_batch

    def spy(batch, zones, grid, nodata):
        # runs in the Ray worker: log (grid width, first pixel center) of
        # every ZoneSet.assign_grid call, i.e. every tile burned
        from zonal_stats_toolkit_ray.sources.zones import ZoneSet as ZS

        assign = ZS.assign_grid

        def logged(self, xs, ys):
            with open(log, "a") as f:
                f.write(f"{grid.width} {xs[0]} {ys[0]}\n")
            return assign(self, xs, ys)

        ZS.assign_grid = logged
        try:
            return burn(batch, zones, grid, nodata)
        finally:
            ZS.assign_grid = assign

    monkeypatch.setattr(PZ, "tile_fid_pixels_batch", spy)
    seen: dict = {}
    pivot = runner.pivot_stats
    monkeypatch.setattr(
        runner, "pivot_stats", lambda stats, *a: seen.update(stats) or pivot(stats, *a)
    )
    job = {
        "agg_vector": str(tmp_path / "zones.parquet"),
        "agg_field": "group_value",
        "base_raster_path_list": paths,
        "percentile_list": PLIST,
        "row_col_order": "agg_field,base_raster",
        "output_csv": str(tmp_path / "out" / "zonal.csv"),
    }
    assert runner.run_job(job).exists()

    # grid A: 3 × 2 tiles, each burned by the a0 + a1 pass and by the
    # shard-directory pass; grid B: 3 × 2 tiles, burned once
    counts = Counter(log.read_text().splitlines())
    by_width = {w: sorted(c for k, c in counts.items() if k.startswith(f"{w} ")) for w in (192, 96)}
    assert by_width == {192: [2] * 6, 96: [1] * 6}, counts
    monkeypatch.undo()

    assert set(seen) == {"a0", "b", "a1", "a_dir"}
    for p in paths:
        grid = read_grid_spec(p)
        zs, zref = PZ.simplified_zones(zt, 0.5 * abs(grid.dx))
        want = PZ.zonal_stats_raster(
            rd.read_parquet(p), grid, zs, percentiles=PLIST, zones_ref=zref
        )
        _assert_same_stats(seen[p.split("/")[-1].removesuffix(".parquet")], want)



def test_read_bands_splits_row_groups(ray_session, tmp_path):
    """``read_bands`` reads each band's tiles in file order as tile ranges
    of the ``(file, row group)`` units, with at least as many non-empty
    blocks as ``read_parquet`` gives one band; ``_read_rows`` keeps exactly
    its range for every split of every row group."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from zonal_stats_toolkit_ray.sources.raster import (
        TILES_SCHEMA, _read_rows, grid_meta_json, group_rasters, read_bands,
    )

    paths = [str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")]
    for path, grid, seed in zip(paths, (GRID, GRID_1), (1, 2)):
        t = synth_tiles_table(grid, seed=seed)
        meta = {b"grid_spec": grid_meta_json(grid).encode()}
        pq.write_table(t.replace_schema_metadata(meta), path, row_group_size=4)
    ((grid, members, nodata, units),) = group_rasters(paths)
    assert (grid, members, nodata) == (GRID, [0, 1], [GRID.nodata, GRID_1.nodata])
    assert [u[1:3] for u in units[0]] == [(0, 4), (1, 2)]

    blocks = [t for t in ray.get(read_bands(units).materialize().to_arrow_refs()) if t.num_rows]
    parquet = ray.get(rd.read_parquet(paths[0]).materialize().to_arrow_refs())
    assert len(blocks) >= sum(1 for t in parquet if t.num_rows)
    got = pa.concat_tables(blocks)
    for col, path in (("values", paths[0]), ("values_1", paths[1])):
        assert got[col].to_pylist() == pq.read_table(path)["values"].to_pylist(), col

    pf = pq.ParquetFile(paths[0])
    for rg in range(pf.num_row_groups):
        want = pf.read_row_group(rg).replace_schema_metadata(None)
        n = want.num_rows
        for step in (1, 3, n + 1):
            cols = list(TILES_SCHEMA.names)
            ranges = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
            parts = [_read_rows(paths[0], rg, lo, hi, cols) for lo, hi in ranges]
            assert pa.concat_tables(parts).equals(want), (rg, step)
