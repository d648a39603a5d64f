"""Distributed Q4 fallback (many occluded zones) must match the golden
oracle exactly — same path the serial driver fallback covers, but computed
in one distributed tile sweep."""

import numpy as np
import pytest

from zonal_stats_toolkit_ray.geom.window import GridSpec
from zonal_stats_toolkit_ray.pipelines.zonal import zonal_stats_raster
from zonal_stats_toolkit_ray.sources.raster import dense_array, synth_tiles_table
from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones, zones_table

from golden_oracle import oracle_zonal_statistics

GRID = GridSpec(
    x0=-180.0, y0=90.0, dx=1.875, dy=-1.875, width=192, height=96,
    nodata=-9999.0, tile_size=64,
)


def _overlapping_zones(n=64, seed=7):
    rng = np.random.default_rng(seed)
    fids, parts, groups, rings = [], [], [], []
    for i in range(n):
        cx, cy = rng.uniform(-150, 150), rng.uniform(-70, 70)
        r = rng.uniform(15, 40)
        ang = np.sort(rng.uniform(0, 2 * np.pi, 16))
        rad = rng.uniform(0.6 * r, r, 16)
        fids.append(i)
        parts.append(0)
        groups.append(f"g{i % 6}")
        rings.append(
            (
                np.clip(cx + rad * np.cos(ang), -180, 180),
                np.clip(cy + rad * np.sin(ang), -90, 90),
            )
        )
    return zones_table(fids, parts, groups, rings)


def _record_sweeps(monkeypatch) -> list[int]:
    """Wraps the >16-window tile sweep; the returned list gets the window
    count of every call."""
    from zonal_stats_toolkit_ray.pipelines import zonal as PZ

    sweep = PZ._window_stats_distributed
    sweeps: list[int] = []
    monkeypatch.setattr(
        PZ,
        "_window_stats_distributed",
        lambda *a, **kw: sweeps.append(len(a[2])) or sweep(*a, **kw),
    )
    return sweeps


def test_distributed_fallback_matches_oracle(ray_session, monkeypatch):
    import ray.data as rd

    sweeps = _record_sweeps(monkeypatch)
    zt = _overlapping_zones(n=96, seed=21)  # 19 fallback windows (>16)
    zs = ZoneSet(zt)
    tiles = rd.from_arrow(synth_tiles_table(GRID, seed=3)).repartition(6)
    got = zonal_stats_raster(tiles, GRID, zs)
    assert sweeps == [19], sweeps  # the stats came from the tile sweep
    arr = dense_array(GRID, seed=3)
    want = oracle_zonal_statistics(arr, GRID, zt, None)
    assert set(got) == set(want)
    for g in want:
        for k, wv in want[g].items():
            gv = got[g][k]
            if wv is None:
                assert gv is None, (g, k)
            elif k in ("count", "nodata_count", "valid_count"):
                assert int(gv) == int(wv), (g, k, gv, wv)
            else:
                assert np.isclose(float(gv), float(wv), rtol=1e-6), (g, k, gv, wv)


def test_distributed_fallback_percentiles_match_oracle(ray_session):
    """Percentile mode with a large fallback set: the distributed values
    sweep must reproduce the oracle's per-part value bags exactly."""
    import ray.data as rd

    zt = _overlapping_zones(n=96, seed=21)  # 19 fallback windows (>16)
    zs = ZoneSet(zt)
    tiles = rd.from_arrow(synth_tiles_table(GRID, seed=9)).repartition(5)
    got = zonal_stats_raster(tiles, GRID, zs, percentiles=[5.0, 50.0, 95.0])
    want = oracle_zonal_statistics(
        dense_array(GRID, seed=9), GRID, zt, [5.0, 50.0, 95.0]
    )
    assert set(got) == set(want)
    for g in want:
        for k in ("p5", "p50", "p95", "sum", "count"):
            wv, gv = want[g][k], got[g][k]
            if wv is None:
                assert gv is None, (g, k)
            else:
                assert np.isclose(float(gv), float(wv), rtol=1e-6), (g, k, gv, wv)


@pytest.mark.parametrize("ignore_nodata", [True, False])
@pytest.mark.parametrize(
    "zones, swept",
    [
        pytest.param(
            lambda: synth_zones(
                seed=42, n_zones=24, include_subpixel=True, subpixel_size=0.01
            ),
            False,
            id="driver_read_windows",
        ),
        pytest.param(
            lambda: _overlapping_zones(n=96, seed=21), True, id="swept_windows"
        ),
    ],
)
def test_percentile_regimes_identical(
    ray_session, monkeypatch, force_tree, zones, swept, ignore_nodata
):
    """The one-task and the salted distributed percentile reduce give the
    same stats, exactly, with the fallback windows read on the driver
    (≤16) and swept over the tiles (>16).  A zero driver budget forces
    the salted shuffle (and the partials tree combine)."""
    import ray.data as rd

    sweeps = _record_sweeps(monkeypatch)
    zs = ZoneSet(zones())
    tiles = rd.from_arrow(synth_tiles_table(GRID, seed=9)).repartition(5)
    kw = dict(percentiles=[5.0, 50.0, 95.0], ignore_nodata=ignore_nodata)
    default = zonal_stats_raster(tiles, GRID, zs, **kw)
    force_tree()
    forced = zonal_stats_raster(tiles, GRID, zs, **kw)
    assert forced == default
    assert bool(sweeps) == swept, sweeps  # the intended fallback branch ran


def test_fallback_paths_agree(ray_session, monkeypatch):
    """The plain run and the percentile run, which adds the fallback value
    sweep and the percentile reduce, agree on the shared stats fields of a
    >16-window fallback set; both take the tile sweep."""
    import ray.data as rd

    sweeps = _record_sweeps(monkeypatch)
    zt = _overlapping_zones(n=96, seed=21)
    zs = ZoneSet(zt)
    tiles = rd.from_arrow(synth_tiles_table(GRID, seed=5)).repartition(4)
    plain = zonal_stats_raster(tiles, GRID, zs)
    pct = zonal_stats_raster(tiles, GRID, zs, percentiles=[50.0])
    assert sweeps == [19, 19], sweeps
    for g in plain:
        for k in ("min", "max", "count", "nodata_count", "valid_count", "sum", "stdev"):
            a, b = plain[g][k], pct[g][k]
            if a is None or b is None:
                assert a is b, (g, k, a, b)
            else:
                assert np.isclose(float(a), float(b), rtol=1e-9), (g, k, a, b)


@pytest.mark.parametrize("percentiles", [[], [50.0]], ids=["plain", "p50"])
def test_driver_read_and_sweep_agree(ray_session, monkeypatch, percentiles):
    """One zero-pixel fallback window set through both Q4 branches: the
    driver read (≤ ``_DRIVER_WINDOWS`` windows, the default here) and the
    tile sweep (``_DRIVER_WINDOWS`` = 0).  The set includes a two-part FID,
    so the last-part-wins overwrite runs on both.  Float64 sums add in a
    different order on the two paths, hence the tolerance on sum/stdev."""
    import ray.data as rd

    from zonal_stats_toolkit_ray.pipelines import zonal as PZ

    sweeps = _record_sweeps(monkeypatch)
    zt = synth_zones(seed=42, n_zones=24, include_subpixel=True, subpixel_size=0.01)
    fids = zt["zone_fid"].to_numpy()
    assert (np.bincount(fids) > 1).any()  # a multi-part FID
    zs = ZoneSet(zt)
    tiles = rd.from_arrow(synth_tiles_table(GRID, seed=9)).repartition(5)
    read = zonal_stats_raster(tiles, GRID, zs, percentiles=percentiles)
    assert sweeps == [], sweeps
    monkeypatch.setattr(PZ, "_DRIVER_WINDOWS", 0)
    swept = zonal_stats_raster(tiles, GRID, zs, percentiles=percentiles)
    assert len(sweeps) == 1 and sweeps[0] >= 3, sweeps  # both parts swept
    assert set(read) == set(swept)
    exact = ["min", "max", "count", "nodata_count", "valid_count"]
    exact += [f"p{int(p)}" for p in percentiles]
    for g in read:
        for k in exact:
            assert read[g][k] == swept[g][k], (g, k, read[g][k], swept[g][k])
        for k in ("sum", "stdev"):
            a, b = read[g][k], swept[g][k]
            if a is None or b is None:
                assert a is b, (g, k, a, b)
            else:
                assert np.isclose(a, b, rtol=1e-12, atol=0), (g, k, a, b)


def test_window_stats_tree_merge_matches_flat(ray_session, force_tree):
    """With a zero driver budget the Q4 fallback merge runs through the
    partials reduction tree instead of one driver groupby over every
    (window, tile) row — results must be identical, and a ~10³ window
    sweep completes without a driver blowup."""
    import ray.data as rd

    import zonal_stats_toolkit_ray.stages.zonal as Z
    from zonal_stats_toolkit_ray.pipelines.zonal import _window_stats_distributed

    rng = np.random.default_rng(3)
    n_win = 1000
    specs = []
    for i in range(n_win):
        xoff = int(rng.integers(0, GRID.width - 4))
        yoff = int(rng.integers(0, GRID.height - 4))
        specs.append((i, xoff, yoff, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
    tiles = rd.from_arrow(synth_tiles_table(GRID, seed=13)).repartition(6)

    flat = _window_stats_distributed(tiles, GRID, specs, (GRID.nodata,))
    levels = force_tree(Z)
    tree = _window_stats_distributed(tiles, GRID, specs, (GRID.nodata,))
    assert levels == [1], levels
    assert set(flat) == set(tree) == set(range(n_win))
    for w in flat:
        for k in ("count", "nodata_count", "sum", "sumsq", "min", "max"):
            a, b = flat[w][k], tree[w][k]
            assert np.isclose(float(a), float(b), rtol=1e-12), (w, k, a, b)

    # spot-check a handful of windows against the dense array
    arr = dense_array(GRID, seed=13)
    for w in (0, 17, 555, 999):
        _, xoff, yoff, wx, wy = specs[w]
        block = arr[yoff : yoff + wy, xoff : xoff + wx]
        nd = np.isclose(block, GRID.nodata)
        valid = block[~nd]
        assert flat[w]["count"] == block.size
        assert flat[w]["nodata_count"] == int(nd.sum())
        if valid.size:
            assert np.isclose(flat[w]["sum"], float(valid.sum(dtype=np.float64)))


@pytest.mark.parametrize("ignore_nodata", [True, False])
def test_window_kernels_match_dense_array(ignore_nodata):
    """Ray-free: the Q4 window passes (``_window_partials_batch`` merged by
    ``_merge_partials``, and ``_window_values_batch``) over tile batches
    give every window exactly the stats and value bag of its block of the
    dense array.  Ragged last tiles in both axes, windows crossing tile
    edges, all-nodata windows and the whole raster are covered."""
    import pyarrow as pa

    from zonal_stats_toolkit_ray.pipelines import zonal as PZ
    from zonal_stats_toolkit_ray.stages import zonal as Z

    grid = GridSpec(
        x0=-180.0, y0=90.0, dx=3.6, dy=-4.0, width=100, height=45,
        nodata=-9999.0, tile_size=32,
    )
    arr = dense_array(grid, seed=4)
    nodata = np.isclose(arr, grid.nodata)
    rng = np.random.default_rng(4)
    wins = [(0, 0, 100, 45), (30, 30, 5, 5), (60, 10, 40, 30), (96, 32, 4, 13)]
    wins += [(int(x), int(y), 1, 1) for y, x in np.argwhere(nodata)[:5]]
    for _ in range(40):
        wx, wy = (int(v) for v in rng.integers(1, 40, 2))
        wins.append((int(rng.integers(0, 101 - wx)), int(rng.integers(0, 46 - wy)), wx, wy))
    specs = PZ._broadcast_specs([(k, *w) for k, w in enumerate(wins)])
    tiles = synth_tiles_table(grid, seed=4)
    batches = [tiles.slice(i, 3) for i in range(0, tiles.num_rows, 3)]

    parts = [PZ._window_partials_batch(b, specs, grid, (grid.nodata,), ignore_nodata) for b in batches]
    merged = Z._merge_partials(pa.concat_tables(parts).to_pandas())
    stats = PZ._window_stats(merged, ignore_nodata)
    bags = pa.concat_tables(
        [
            Z.values_from_rows(PZ._window_values_batch(b, specs, grid, (grid.nodata,)), ignore_nodata=ignore_nodata)
            for b in batches
        ]
    ).to_pandas()
    rows = merged.set_index("group_key")
    n_empty = 0
    for k, (xoff, yoff, wx, wy) in enumerate(wins):
        block = arr[yoff : yoff + wy, xoff : xoff + wx]
        nd = nodata[yoff : yoff + wy, xoff : xoff + wx]
        bag = block[~nd] if ignore_nodata else block.ravel()
        r = rows.loc[k]
        assert r["count"] == block.size and r["nodata_count"] == nd.sum(), k
        got = np.sort(bags.loc[bags["group_key"] == k, "value"].to_numpy())
        assert got.dtype == np.float32 and np.array_equal(got, np.sort(bag)), k
        if bag.size:
            assert r["min"] == bag.min() and r["max"] == bag.max(), k
            assert np.isclose(r["sum"], bag.sum(dtype=np.float64), rtol=1e-12, atol=0)
            assert stats[k]["min"] == r["min"] and stats[k]["sum"] == r["sum"], k
        else:
            n_empty += 1
            assert np.isnan(r["min"]) and np.isnan(r["max"]), k
            assert stats[k] == {
                "count": block.size, "nodata_count": block.size,
                "min": 0.0, "max": 0.0, "sum": 0.0, "sumsq": 0.0,
            }, k
    assert n_empty == (5 if ignore_nodata else 0)


@pytest.mark.parametrize("int_keys", [False, True], ids=["string_keys", "int64_keys"])
def test_group_percentiles_task_regime(ray_session, monkeypatch, force_tree, int_keys):
    """Within the driver budget (``guard.DRIVER_ROWS``) the percentile
    reduce runs in one Ray task — ``to_pandas`` is never called on the
    driver — and gives the same dict as the salted shuffle (a zero
    budget), also for one-value groups, an empty Dataset and two
    concurrent callers (the job threads of ``run_config``)."""
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow as pa
    import ray.data as rd
    from ray.data import Dataset

    from zonal_stats_toolkit_ray.stages import guard
    from zonal_stats_toolkit_ray.stages import zonal as Z

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 7, 4000)
    keys[123] = 99  # a one-value group
    vals = np.round(rng.normal(0, 10, keys.size), 1).astype(np.float32)
    table = pa.table(
        {
            "group_key": pa.array(keys) if int_keys else pa.array([f"g{k}" for k in keys]),
            "value": pa.array(vals),
        }
    )
    plist = [5.0, 50.0, 95.0]

    def run(ds):
        got = Z.group_percentiles_ds(ds, plist)
        return {k: [float(v) for v in pv] for k, pv in got.items()}

    ds = rd.from_arrow(table).repartition(4)
    empty = rd.from_arrow(table.slice(0, 0))
    budget = guard.DRIVER_ROWS
    force_tree()
    salted = run(ds)
    salted_empty = run(empty)
    force_tree(driver_rows=budget)

    def no_driver_rows(self, *a, **kw):
        raise AssertionError("value rows collected on the driver")

    monkeypatch.setattr(Dataset, "to_pandas", no_driver_rows)
    got = run(ds)
    assert got == salted
    assert got[99 if int_keys else "g99"] == [float(vals[123])] * 3
    assert len(got) == 8
    assert run(empty) == salted_empty == {}
    with ThreadPoolExecutor(max_workers=2) as ex:
        assert list(ex.map(lambda _: run(ds), range(2))) == [salted, salted]
