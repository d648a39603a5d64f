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
