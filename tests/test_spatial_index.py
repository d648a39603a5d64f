"""Z-order partitioned spatial layout: bucket math exactness, pruned-read
telemetry, full-space queries, and clean rebuild."""

import numpy as np
import pandas as pd
import pytest

from zonal_stats_toolkit_ray.stages.spatial_index import (
    bbox_buckets,
    spatial_bbox_query,
    spatial_write_partitioned,
    zorder_bucket,
)
from zonal_stats_toolkit_ray.state import metrics


def _points(n, seed=3):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "pid": np.arange(n, dtype=np.int64),
            "lon": rng.uniform(-180, 180, n),
            "lat": rng.uniform(-90, 90, n),
        }
    )


class TestZorderMath:
    def test_bbox_buckets_cover_contained_points(self):
        # every point inside the bbox must map to a bucket in the prune list
        rng = np.random.default_rng(1)
        for gb in (1, 3, 5):
            for _ in range(20):
                x0, x1 = np.sort(rng.uniform(-180, 180, 2))
                y0, y1 = np.sort(rng.uniform(-90, 90, 2))
                pts_lon = rng.uniform(x0, x1, 200)
                pts_lat = rng.uniform(y0, y1, 200)
                bl = set(bbox_buckets(x0, y0, x1, y1, grid_bits=gb).tolist())
                pb = zorder_bucket(pts_lon, pts_lat, grid_bits=gb)
                assert set(pb.tolist()) <= bl

    def test_bucket_ids_distinct_per_cell(self):
        # 2^gb x 2^gb cell centers -> all distinct Morton codes
        gb = 3
        n = 1 << gb
        cx = (np.arange(n) + 0.5) / n * 360.0 - 180.0
        cy = (np.arange(n) + 0.5) / n * 180.0 - 90.0
        gx, gy = np.meshgrid(cx, cy)
        b = zorder_bucket(gx.ravel(), gy.ravel(), grid_bits=gb)
        assert np.unique(b).size == n * n

    def test_full_space_bbox_lists_all_buckets(self):
        assert bbox_buckets(-180, -90, 180, 90, grid_bits=2).size == 16


class TestSpatialQuery:
    def test_query_equals_full_scan_and_prunes(self, ray_session, tmp_path):
        import ray.data as rd

        df = _points(20_000)
        idx = str(tmp_path / "zidx")
        spatial_write_partitioned(
            rd.from_pandas(df).repartition(8), idx, grid_bits=3
        )
        bbox = (-40.0, -20.0, 55.0, 30.0)
        with metrics.recording() as rec:
            got = spatial_bbox_query(idx, bbox, columns=["pid", "lon", "lat"])
        stats = rec.last("spatial_index.spatial_bbox_query")
        got = got.to_pandas().sort_values("pid").reset_index(drop=True)
        m = (
            (df["lon"] >= bbox[0]) & (df["lon"] <= bbox[2])
            & (df["lat"] >= bbox[1]) & (df["lat"] <= bbox[3])
        )
        want = df[m].sort_values("pid").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["pid", "lon", "lat"]], want)
        assert stats["buckets_probed"] < stats["dirs_total"]
        assert stats["files_read"] > 0

    def test_empty_region_and_clean_rebuild(self, ray_session, tmp_path):
        import ray.data as rd

        idx = str(tmp_path / "zidx2")
        # points only in the eastern hemisphere
        df = _points(2000)
        df["lon"] = np.abs(df["lon"])
        spatial_write_partitioned(rd.from_pandas(df), idx, grid_bits=2)
        got = spatial_bbox_query(idx, (-170.0, -80.0, -100.0, -40.0)).to_pandas()
        assert len(got) == 0
        # rebuild with different points must fully replace, not append
        df2 = _points(500, seed=9)
        spatial_write_partitioned(rd.from_pandas(df2), idx, grid_bits=2)
        allpts = spatial_bbox_query(idx, (-180, -90, 180, 90)).to_pandas()
        assert len(allpts) == 500
