"""Unit tests for the range-sorted layout with manifest pruning."""

import numpy as np
import pandas as pd
import pytest
from zonal_stats_toolkit_ray.state import metrics


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


class TestSortedLayout:
    def test_pruned_read_equals_full_filter(self, rd, tmp_path):
        from zonal_stats_toolkit_ray.stages.sorted_layout import (
            range_read,
            sorted_layout_write,
        )

        rng = np.random.default_rng(3)
        df = pd.DataFrame(
            {"id": np.arange(20_000), "v": rng.uniform(0, 1000, 20_000)}
        )
        out = str(tmp_path / "layout")
        m = sorted_layout_write(
            rd.from_pandas(df).repartition(16), out, key_col="v"
        )
        assert len(m["files"]) >= 8
        with metrics.recording() as rec:
            got = range_read(out, 100.0, 150.0)
        stats = rec.last("sorted_layout.range_read")
        got = got.to_pandas().sort_values("id").reset_index(drop=True)
        want = (
            df[(df["v"] >= 100.0) & (df["v"] <= 150.0)]
            .sort_values("id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[["id", "v"]], want[["id", "v"]])
        # a 5% range over a sorted layout must prune most files
        assert stats["files_read"] < stats["files_total"] / 2

    def test_nan_keys_do_not_poison_manifest_bounds(self, rd, tmp_path):
        # ADVICE r4: NaN keys sort LAST, so the final file's naive max was
        # NaN and `max >= lo` wrongly pruned the file holding the largest
        # finite keys.  Bounds must be nanmin/nanmax and the top range must
        # still come back (NaN rows themselves are never in a finite range).
        from zonal_stats_toolkit_ray.stages.sorted_layout import (
            range_read,
            sorted_layout_write,
        )

        rng = np.random.default_rng(7)
        v = rng.uniform(0, 1000, 5_000)
        v[rng.choice(5_000, 200, replace=False)] = np.nan
        df = pd.DataFrame({"id": np.arange(5_000), "v": v})
        out = str(tmp_path / "layout_nan")
        sorted_layout_write(rd.from_pandas(df).repartition(8), out, key_col="v")
        got = (
            range_read(out, 990.0, 1000.0)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        want = (
            df[(df["v"] >= 990.0) & (df["v"] <= 1000.0)]
            .sort_values("id")
            .reset_index(drop=True)
        )
        assert len(want) > 0
        pd.testing.assert_frame_equal(got[["id", "v"]], want[["id", "v"]])

    def test_empty_range_and_rebuild(self, rd, tmp_path):
        from zonal_stats_toolkit_ray.stages.sorted_layout import (
            range_read,
            sorted_layout_write,
        )

        out = str(tmp_path / "layout2")
        df = pd.DataFrame({"id": [1, 2], "v": [5.0, 6.0]})
        sorted_layout_write(rd.from_pandas(df), out, key_col="v")
        with metrics.recording() as rec:
            got = range_read(out, 100.0, 200.0)
        stats = rec.last("sorted_layout.range_read")
        assert got.count() == 0 and stats["files_read"] == 0
        # rebuild replaces, never duplicates
        sorted_layout_write(rd.from_pandas(df), out, key_col="v")
        assert range_read(out, 0.0, 10.0).count() == 2
