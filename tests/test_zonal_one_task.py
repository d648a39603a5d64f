"""Within ``guard.DRIVER_ROWS`` the zonal reduces run as Ray tasks over
the materialized rows' block refs: no row is collected on the driver, and
without Q4 fallback windows a percentile run executes two Datasets per
raster (the pixel rows' materialize and their metadata count)."""

import numpy as np
import pyarrow as pa
import pytest

from zonal_stats_toolkit_ray.pipelines import zonal as PZ
from zonal_stats_toolkit_ray.sources.raster import synth_tiles_table
from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones
from zonal_stats_toolkit_ray.stages import zonal as Z

from test_distributed_fallback import GRID, _overlapping_zones


@pytest.fixture
def executions(monkeypatch):
    """Counts ``Dataset.materialize`` / ``count`` / ``to_pandas`` calls
    outside the Q4 stats sweep and makes ``to_pandas`` / ``take_all``
    raise there.  The sweep (``_window_stats_distributed``, >16 windows)
    still merges its window partials through ``reduce_partials``; its
    calls are recorded separately.  Also records which Q4 branch ran."""
    from ray.data import Dataset

    rec = {"calls": [], "sweep_calls": [], "branch": [], "in_sweep": False}

    def counted(name, fn, collect):
        def wrapper(self, *a, **kw):
            if rec["in_sweep"]:
                rec["sweep_calls"].append(name)
            else:
                rec["calls"].append(name)
                if collect:
                    raise AssertionError(f"rows collected on the driver ({name})")
            return fn(self, *a, **kw)

        return wrapper

    for name, collect in (
        ("materialize", False), ("count", False), ("to_pandas", True), ("take_all", True)
    ):
        monkeypatch.setattr(Dataset, name, counted(name, getattr(Dataset, name), collect))

    sweep, fetch = PZ._window_stats_distributed, PZ._fetch_windows

    def spy_sweep(*a, **kw):
        rec["branch"].append("swept")
        rec["in_sweep"] = True
        try:
            return sweep(*a, **kw)
        finally:
            rec["in_sweep"] = False

    def spy_fetch(*a, **kw):
        rec["branch"].append("driver_read")
        return fetch(*a, **kw)

    monkeypatch.setattr(PZ, "_window_stats_distributed", spy_sweep)
    monkeypatch.setattr(PZ, "_fetch_windows", spy_fetch)
    return rec


@pytest.mark.parametrize(
    "zones, branch",
    [
        pytest.param(lambda: _overlapping_zones(n=24, seed=3), [], id="no_fallback"),
        pytest.param(
            lambda: synth_zones(
                seed=42, n_zones=24, include_subpixel=True, subpixel_size=0.01
            ),
            ["driver_read"],
            id="driver_read_windows",
        ),
        pytest.param(
            lambda: _overlapping_zones(n=96, seed=21), ["swept"], id="swept_windows"
        ),
    ],
)
def test_raster_percentiles_no_driver_collect(ray_session, executions, zones, branch):
    import ray.data as rd

    zs = ZoneSet(zones())
    tiles = rd.from_arrow(synth_tiles_table(GRID, seed=9)).repartition(5)
    executions["calls"].clear()
    got = PZ.zonal_stats_raster(tiles, GRID, zs, percentiles=[5, 50, 95])
    assert executions["branch"] == branch
    # the pixel rows' materialize and metadata count; with fallback
    # windows, the driver-read tiles or the swept window rows materialize
    want = ["materialize", "count"] + ["materialize"] * len(branch)
    assert executions["calls"] == want, executions["calls"]
    if branch == ["swept"]:
        assert "to_pandas" in executions["sweep_calls"]  # the stats sweep ran
    assert set(got) == set(zs.unique_groups)
    assert any(s["p50"] is not None for s in got.values())


def test_points_percentiles_no_driver_collect(ray_session, executions):
    import ray.data as rd

    from zonal_stats_toolkit_ray.sources.zones import zones_table

    square = (np.array([0.0, 1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    zs = ZoneSet(zones_table([0, 1, 2], [0] * 3, ["a", None, "c"], [square] * 3))
    rng = np.random.default_rng(2)
    fid = rng.integers(-1, 3, 5000)
    joined = pa.table(
        {
            "zone_fid": pa.array(fid, pa.int64()),
            "group_value": pa.array([[None, "a", None, "c"][f + 1] for f in fid]),
            "value": pa.array(np.round(rng.normal(10.0, 3.0, fid.size), 2)),
        }
    )
    ds = rd.from_arrow(joined).repartition(4)
    executions["calls"].clear()
    got = PZ.zonal_stats_points(ds, "value", zs, percentiles=[5, 50, 95])
    assert executions["calls"] == ["materialize", "count"], executions["calls"]
    assert int(got["count"].sum()) == int((fid >= 0).sum())
    assert got["p50"].notna().all()


def test_group_percentiles_raising_udf_never_salts(ray_session, monkeypatch):
    """A values pipeline whose UDF raises makes ``group_percentiles_ds``
    raise at once; the salted shuffle, which would run the UDF again, is
    never entered."""
    import ray.data as rd

    salted: list[int] = []
    monkeypatch.setattr(
        Z, "salted_group_percentiles", lambda *a, **kw: salted.append(1) or {}
    )

    def boom(b: pa.Table) -> pa.Table:
        raise RuntimeError("udf failed")

    table = pa.table({"group_key": pa.array(["g"] * 10), "value": pa.array(np.arange(10.0))})
    values = rd.from_arrow(table).map_batches(boom, batch_format="pyarrow")
    with pytest.raises(Exception, match="udf failed"):
        Z.group_percentiles_ds(values, [50.0])
    assert salted == []


def test_one_task_block_refs(ray_session):
    """``one_task`` over 0 refs, 1 ref and 40 refs (``to_arrow_refs`` of a
    materialized Dataset mixed with ``ray.put`` tables) gives what the task
    body gives on the driver over the same tables, in the refs' order."""
    import ray
    import ray.data as rd

    rng = np.random.default_rng(6)
    n = 3000
    table = pa.table(
        {
            "group_key": pa.array(rng.integers(0, 7, n), pa.int64()),
            "value": pa.array(rng.normal(0.0, 1.0, n).astype(np.float32)),
        }
    )
    plist = [5.0, 50.0, 95.0]
    assert Z.one_task(Z._bag_percentiles, [], plist) == {}
    one = ray.put(table.slice(0, 100))
    assert Z.one_task(Z._bag_percentiles, [one], plist) == Z._bag_percentiles(
        plist, table.slice(0, 100)
    )
    ds_refs = rd.from_arrow(table.slice(0, 2000)).repartition(30).materialize().to_arrow_refs()
    puts = [ray.put(table.slice(2000 + 100 * i, 100)) for i in range(10)]
    refs = [r for pair in zip(ds_refs[:10], puts) for r in pair] + ds_refs[10:]
    assert len(refs) == 40
    got = Z.one_task(Z._bag_percentiles, refs, plist)
    assert got == Z._bag_percentiles(plist, *ray.get(refs))
    assert set(got) == set(range(7))
