"""Points-path conformance: geocode determinism, byte-identical text,
spatial join vs brute force, zonal stats vs direct NumPy, kNN stage."""

import numpy as np
import pyarrow as pa
import pytest

from zonal_stats_toolkit_ray.geom.pip import points_in_ring
from zonal_stats_toolkit_ray.pipelines.zonal import join_points, zonal_stats_points
from zonal_stats_toolkit_ray.sources.pages import synth_pages_table
from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones
from zonal_stats_toolkit_ray.stages.geocode import (
    geocode_batch,
    hash64_py,
    hash64_utf8,
    lonlat_from_hash,
)
from zonal_stats_toolkit_ray.stages.join import ZoneKNN


class TestGeocode:
    def test_hash_matches_python(self):
        urls = ["https://a.example/x", "", "é-ü-漢字", "a" * 500, "b"]
        arr = pa.array(urls, pa.string())
        got = hash64_utf8(arr)
        want = np.array([hash64_py(u) for u in urls], dtype=np.uint64)
        assert np.array_equal(got, want)

    def test_chunked_and_sliced(self):
        urls = [f"u{i}" for i in range(100)]
        arr = pa.chunked_array([urls[:37], urls[37:]])
        got = hash64_utf8(arr)
        want = np.array([hash64_py(u) for u in urls], dtype=np.uint64)
        assert np.array_equal(got, want)
        sl = pa.array(urls).slice(10, 20)
        assert np.array_equal(
            hash64_utf8(sl), want[10:30]
        )

    def test_lonlat_in_bounds(self):
        h = hash64_utf8(pa.array([f"https://s{i}.example/{i}" for i in range(1000)]))
        lon, lat = lonlat_from_hash(h)
        assert np.all((lon >= -180) & (lon < 180))
        assert np.all((lat >= -90) & (lat < 90))


def test_text_byte_identity_through_pipeline(ray_session):
    """input_hint invariant: text bytes per url unchanged through every stage."""
    import ray.data as rd

    pages = synth_pages_table(300, seed=42)
    zones = synth_zones(seed=42, n_zones=24)
    ds = rd.from_arrow(pages).repartition(4)
    joined = join_points(ds, zones).materialize()
    out = joined.select_columns(["url", "text"]).to_pandas()
    src = pages.select(["url", "text"]).to_pandas()
    merged = src.merge(out, on="url", suffixes=("_in", "_out"))
    assert len(merged) >= len(src)
    assert (merged["text_in"].str.encode("utf-8") == merged["text_out"].str.encode("utf-8")).all()


def test_join_matches_bruteforce(ray_session):
    import ray.data as rd

    pages = synth_pages_table(500, seed=1)
    zt = synth_zones(seed=5, n_zones=30)
    zs = ZoneSet(zt)
    ds = rd.from_arrow(pages).repartition(3)
    joined = join_points(ds, zt).to_pandas()

    # brute force: for each point, highest fid whose ring contains it
    lon = joined["lon"].to_numpy()
    lat = joined["lat"].to_numpy()
    want = np.full(len(joined), -1, dtype=np.int64)
    for j in range(zs.n_parts):
        inside = points_in_ring(lon, lat, zs.ring_x[j], zs.ring_y[j])
        want[inside] = np.maximum(want[inside], zs.fid[j])
    assert np.array_equal(joined["zone_fid"].to_numpy(), want)
    # group lookup agrees
    for fid, gv in zip(joined["zone_fid"], joined["group_value"]):
        if fid == -1:
            assert gv is None or (isinstance(gv, float) and np.isnan(gv))
        else:
            assert gv == zs.fid_to_group[int(fid)] or (
                zs.fid_to_group[int(fid)] is None
            )


def test_join_points_broadcasts_table_zones_once(ray_session, monkeypatch):
    """A zones table (or ZoneSet) is ``ray.put`` once per ``join_points``
    call, so the join tasks of that call resolve to one cached ZoneSet
    instead of rebuilding the index per batch; a ref passes through."""
    import ray
    import ray.data as rd

    from zonal_stats_toolkit_ray.stages.join import _cached_zoneset

    ds = rd.from_arrow(synth_pages_table(50, seed=2))
    zt = synth_zones(seed=5, n_zones=8)
    put = ray.put
    refs = []
    monkeypatch.setattr(ray, "put", lambda obj: refs.append(put(obj)) or refs[-1])
    join_points(ds, zt)
    join_points(ds, ZoneSet(zt))
    assert len(refs) == 2
    assert ray.get(refs[1]).equals(zt)
    assert _cached_zoneset(refs[0]) is _cached_zoneset(refs[0])
    assert _cached_zoneset(zt) is not _cached_zoneset(zt)  # a table rebuilds
    join_points(ds, refs[0])
    assert len(refs) == 2


def test_shortcut_cache_equivalence(ray_session):
    """Interior-cell shortcut must not change assignments."""
    import ray.data as rd

    pages = synth_pages_table(400, seed=9)
    zt = synth_zones(seed=11, n_zones=16)
    ds = rd.from_arrow(pages)
    with_cache = join_points(ds, zt, shortcut_res=6).to_pandas()
    no_cache = join_points(ds, zt, shortcut_res=None).to_pandas()
    a = with_cache.sort_values("url")["zone_fid"].to_numpy()
    b = no_cache.sort_values("url")["zone_fid"].to_numpy()
    assert np.array_equal(a, b)


def test_zonal_stats_points_vs_numpy(ray_session):
    import ray.data as rd

    pages = synth_pages_table(800, seed=3)
    # value column: n_chars of text
    import pyarrow.compute as pc

    pages = pages.append_column(
        "value", pc.cast(pc.utf8_length(pages["text"]), pa.float64())
    )
    zt = synth_zones(seed=21, n_zones=20)
    zs = ZoneSet(zt)
    ds = rd.from_arrow(pages).repartition(4)
    joined = join_points(ds, zt).materialize()
    df = zonal_stats_points(joined, "value", zs, percentiles=[25.0, 75.0])

    # brute force
    j = joined.to_pandas()
    j = j[j["zone_fid"] != -1]
    seen = set()
    for _, row in df.iterrows():
        gv = row["group_value"]
        sub = j[j["group_value"].isna()] if gv is None else j[j["group_value"] == gv]
        seen.add(gv)
        vals = sub["value"].to_numpy()
        assert int(row["count"]) == len(sub)
        assert int(row["nodata_count"]) == 0
        if len(sub):
            assert np.isclose(row["sum"], vals.sum())
            assert np.isclose(row["min"], vals.min())
            assert np.isclose(row["max"], vals.max())
            assert np.isclose(row["stdev"], vals.std())
            assert np.isclose(
                row["p25"], np.percentile(vals.astype(np.float32), 25.0), rtol=1e-6
            )
        else:
            # pandas stores the reference's None stats as NaN in float columns
            import pandas as pd

            assert pd.isna(row["min"]) and pd.isna(row["stdev"])
    # every zone group appears even with zero points
    assert set(zs.unique_groups) <= {
        (None if (isinstance(g, float) and np.isnan(g)) else g) for g in df["group_value"]
    } | {None if (isinstance(g, float) and np.isnan(g)) else g for g in seen}


def test_zonal_stats_points_regimes_identical(ray_session, monkeypatch, force_tree):
    """Both regimes of ``zonal_stats_points`` over one joined input: the
    driver pass (within ``guard.DRIVER_ROWS`` slim rows) and, with a zero
    budget, the partials tree combine plus the salted percentile shuffle.
    The input has a NULL group, (near-)nodata rows, an all-nodata group,
    a zone group with no rows and unassigned rows; an input with only
    unassigned rows gives the empty stats.  Float64 sums add in a
    different order on the two paths, hence the tolerance on sum/stdev."""
    import pandas as pd
    import ray.data as rd

    from zonal_stats_toolkit_ray.sources.zones import zones_table
    from zonal_stats_toolkit_ray.stages import zonal as Z

    square = (np.array([0.0, 1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    groups = ["a", "b", None, "c", "empty"]
    zs = ZoneSet(zones_table(list(range(5)), [0] * 5, groups, [square] * 5))
    rng = np.random.default_rng(8)
    n = 6000
    fid = rng.integers(-1, 4, n)  # -1: unassigned; fid 4 ("empty") gets no rows
    value = np.round(rng.normal(50.0, 20.0, n), 3)
    value[rng.random(n) < 0.1] = -9999.0
    value[rng.random(n) < 0.02] = -9999.0 * (1 + 1e-9)  # nodata under isclose
    value[fid == 1] = -9999.0  # group "b" is all nodata
    joined = pa.table(
        {
            "zone_fid": pa.array(fid, pa.int64()),
            "group_value": pa.array([None if f < 0 else groups[f] for f in fid], pa.string()),
            "value": pa.array(value),
        }
    )
    ds = rd.from_arrow(joined).repartition(4)
    kw = dict(nodata=-9999.0, percentiles=[5.0, 50.0, 95.0])
    driver = zonal_stats_points(ds, "value", zs, **kw)
    unassigned = rd.from_arrow(joined.filter(pa.array(fid < 0))).repartition(2)
    driver_none = zonal_stats_points(unassigned, "value", zs, **kw)

    salted: list[int] = []
    salt = Z.salted_group_percentiles
    monkeypatch.setattr(
        Z, "salted_group_percentiles", lambda *a: salted.append(1) or salt(*a)
    )
    levels = force_tree(Z)
    forced = zonal_stats_points(ds, "value", zs, **kw)
    assert levels and levels[0] >= 1 and salted == [1], (levels, salted)
    forced_none = zonal_stats_points(unassigned, "value", zs, **kw)
    pd.testing.assert_frame_equal(driver_none, forced_none)
    assert (driver_none["count"] == 0).all() and len(driver_none) == 5

    assert list(driver["group_value"]) == ["a", "b", "c", "empty", None]
    b = driver.set_index(driver["group_value"].fillna("NULL"))
    assert b.loc["b", "nodata_count"] == b.loc["b", "count"] > 0
    assert pd.isna(b.loc["b", "min"]) and pd.isna(b.loc["b", "p50"])
    assert b.loc["NULL", "valid_count"] > 0 and b.loc["empty", "count"] == 0
    exact = ["group_value", "count", "nodata_count", "valid_count", "min", "max"]
    exact += ["p5", "p50", "p95"]
    pd.testing.assert_frame_equal(driver[exact], forced[exact], check_exact=True)
    for c in ("sum", "stdev"):
        np.testing.assert_allclose(
            forced[c].to_numpy(float), driver[c].to_numpy(float), rtol=1e-12, atol=0
        )


def test_join_task_floor_structure(ray_session):
    """The point join's task floor, as parallel structure (one output block
    per task).  Ray bundles whole blocks until a bundle reaches the floor,
    so only ``ceil(rows / TASK_ROWS)`` is an upper bound: 9 × ``TASK_ROWS``
    points in 64 blocks join in 8 bundles of 8 blocks (2 × CPUs here), in
    10 blocks of 0.9 × ``TASK_ROWS`` in 5 bundles of 2 (each bundle
    overshoots the floor by almost a block), and an input below the floor
    joins in one task.  This checks structure, not speed: the test host's
    CPUs are logical and may share one core."""
    import math

    import ray
    import ray.data as rd

    from zonal_stats_toolkit_ray.stages import guard

    cpus = int(ray.cluster_resources()["CPU"])
    n = 9 * guard.TASK_ROWS
    assert n >= 2 * cpus * guard.TASK_ROWS
    rng = np.random.default_rng(12)
    points = pa.table(
        {"lon": rng.uniform(-180.0, 180.0, n), "lat": rng.uniform(-90.0, 90.0, n)}
    )
    zt = synth_zones(seed=5, n_zones=30)
    joined = join_points(
        rd.from_arrow(points).repartition(64), zt, geocode=False
    ).materialize()
    assert joined.count() == n
    assert 2 * cpus <= joined.num_blocks() <= math.ceil(n / guard.TASK_ROWS) + 1
    near_floor = join_points(
        rd.from_arrow(points).repartition(10), zt, geocode=False
    ).materialize()
    assert near_floor.count() == n
    assert near_floor.num_blocks() == 5 < math.ceil(n / guard.TASK_ROWS)
    small = join_points(
        rd.from_arrow(points.slice(0, guard.TASK_ROWS // 2)).repartition(8),
        zt,
        geocode=False,
    ).materialize()
    assert small.num_blocks() == 1


def test_join_task_floor_keeps_read_fusion(ray_session, tmp_path):
    """A Read that Ray runs unsplit in the tasks of the caller's maps keeps
    that fusion through ``join_points`` (one task per read block, no row
    floor); a split Read gets the floor.  Structure, not speed."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from zonal_stats_toolkit_ray.pipelines.zonal import _read_fused
    from zonal_stats_toolkit_ray.stages import guard

    n = 2 * guard.TASK_ROWS
    rng = np.random.default_rng(3)
    for k in range(2):
        pq.write_table(
            pa.table({"lon": rng.uniform(-180, 180, n), "lat": rng.uniform(-90, 90, n)}),
            tmp_path / f"p{k}.parquet",
        )
    zt = synth_zones(seed=5, n_zones=30)

    def read(blocks):
        ds = rd.read_parquet(str(tmp_path), override_num_blocks=blocks)
        return ds.map_batches(lambda t: t, batch_format="pyarrow")

    assert _read_fused(read(2)) and not _read_fused(read(8))
    assert not _read_fused(rd.from_arrow(pq.read_table(tmp_path)))
    fused = join_points(read(2), zt, geocode=False).materialize()
    assert fused.num_blocks() == 2 and "ReadParquet->MapBatches" in fused.stats()
    split = join_points(read(8), zt, geocode=False).materialize()
    assert split.num_blocks() == 4 and "SplitBlocks(4):" in split.stats()
    assert fused.count() == split.count() == 2 * n


@pytest.mark.parametrize("percentiles", [[5, 50, 95], []], ids=["percentiles", "plain"])
def test_zonal_stats_points_task_floor_invariant(ray_session, monkeypatch, percentiles):
    """``zonal_stats_points(join_points(...))`` gives the same rows whether
    the join runs as one task (the default floor, above this input's rows)
    or one task per input block (``guard.TASK_ROWS`` = 1), so small inputs,
    which now join in one task, still cover the multi-block merge.  The
    zones have a NULL group and a group with no points; some points fall
    outside every zone and some values are nodata.  Float64 sums add in a
    different order, hence the tolerance on sum/stdev."""
    import pandas as pd
    import ray.data as rd

    from zonal_stats_toolkit_ray.sources.zones import zones_table
    from zonal_stats_toolkit_ray.stages import guard

    def square(x0, y0):
        return np.array([x0, x0 + 1.0, x0 + 1.0, x0]), np.array([y0, y0, y0 + 1.0, y0 + 1.0])

    groups = ["a", None, "b", "empty"]
    corners = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (10.0, 10.0)]
    zt = zones_table(list(range(4)), [0] * 4, groups, [square(*c) for c in corners])
    zs = ZoneSet(zt)
    rng = np.random.default_rng(21)
    n = 3000
    value = np.round(rng.normal(50.0, 20.0, n), 3)
    value[rng.random(n) < 0.1] = -9999.0
    points = pa.table(
        {
            "lon": rng.uniform(-0.5, 3.5, n),
            "lat": rng.uniform(-0.5, 3.5, n),
            "value": pa.array(value),
        }
    )
    ds = rd.from_arrow(points).repartition(6)
    kw = dict(nodata=-9999.0, percentiles=percentiles)
    assert n < guard.TASK_ROWS
    default = zonal_stats_points(join_points(ds, zt, geocode=False), "value", zs, **kw)
    monkeypatch.setattr(guard, "TASK_ROWS", 1)
    per_block = zonal_stats_points(join_points(ds, zt, geocode=False), "value", zs, **kw)

    assert list(default["group_value"]) == ["a", "b", "empty", None]
    b = default.set_index(default["group_value"].fillna("NULL"))
    assert b.loc["NULL", "valid_count"] > 0 and b.loc["empty", "count"] == 0
    assert b.loc["a", "nodata_count"] > 0
    assert int(default["count"].sum()) < n  # some points are unassigned
    exact = ["group_value", "count", "nodata_count", "valid_count", "min", "max"]
    exact += [f"p{p}" for p in percentiles]
    pd.testing.assert_frame_equal(default[exact], per_block[exact], check_exact=True)
    for c in ("sum", "stdev"):
        np.testing.assert_allclose(
            per_block[c].to_numpy(float), default[c].to_numpy(float), rtol=1e-12, atol=0
        )


def test_zone_knn_stage(ray_session):
    import ray.data as rd

    pages = synth_pages_table(100, seed=13)
    zt = synth_zones(seed=17, n_zones=10)
    zs = ZoneSet(zt)
    ds = rd.from_arrow(pages).map_batches(geocode_batch, batch_format="pyarrow")
    out = ds.map_batches(
        ZoneKNN,
        fn_constructor_kwargs={"zones": zt, "k": 3},
        batch_format="pyarrow",
        concurrency=2,
    ).to_pandas()
    assert all(len(v) == 3 for v in out["knn_fids"])
    # first neighbor distance 0 iff the point is inside some zone bbox
    row = out.iloc[0]
    px, py = row["lon"], row["lat"]
    dx = np.maximum(np.maximum(zs.minx - px, 0), px - zs.maxx)
    dy = np.maximum(np.maximum(zs.miny - py, 0), py - zs.maxy)
    want = np.sort(np.sqrt(dx * dx + dy * dy))[:3]
    assert np.allclose(np.sort(np.asarray(row["knn_dists"])), want)


def test_hash_long_documents():
    """Regression: the 31^k power table was capped at 2^16, so any string
    over 64 KiB raised IndexError; it must now grow on demand and still
    match the pure-Python reference (web pages routinely exceed 64 KiB)."""
    long_doc = "x" * 70_000 + "tail"
    longer = "y" * 200_001
    arr = pa.array(["short", long_doc, longer], pa.string())
    got = hash64_utf8(arr)
    want = np.array(
        [hash64_py("short"), hash64_py(long_doc), hash64_py(longer)],
        dtype=np.uint64,
    )
    assert np.array_equal(got, want)
