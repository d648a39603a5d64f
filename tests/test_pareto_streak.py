"""Unit tests for skyline (Pareto frontier), weighted_median_by_group, and
max_streak_by_key."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from zonal_stats_toolkit_ray.state import metrics


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


def brute_skyline(x: np.ndarray, y: np.ndarray) -> set[tuple[float, float]]:
    pts = set(zip(x.tolist(), y.tolist()))
    out = set()
    for px, py in pts:
        dominated = any(
            (qx >= px and qy >= py and (qx, qy) != (px, py)) for qx, qy in pts
        )
        if not dominated:
            out.add((px, py))
    return out


class TestSkyline:
    def test_matches_bruteforce(self, rd):
        from zonal_stats_toolkit_ray.stages.pareto import skyline

        rng = np.random.default_rng(5)
        x = rng.integers(0, 40, 3000).astype(float)
        y = rng.normal(0, 10, 3000).round(1)
        got = skyline(
            rd.from_pandas(pd.DataFrame({"a": x, "b": y})).repartition(7),
            x_col="a",
            y_col="b",
        )
        assert set(zip(got["x"], got["y"])) == brute_skyline(x, y)
        # frontier is strictly decreasing in y as x increases
        assert (np.diff(got["x"]) > 0).all() and (np.diff(got["y"]) < 0).all()

    def test_tree_combine_regime(self, rd, force_tree):
        """A zero driver budget forces distributed re-reduction; result
        equal to the driver regime."""
        from zonal_stats_toolkit_ray.stages.pareto import skyline

        rng = np.random.default_rng(9)
        x = rng.integers(0, 25, 2000).astype(float)
        y = rng.integers(0, 1000, 2000).astype(float)
        ds = rd.from_pandas(pd.DataFrame({"a": x, "b": y})).repartition(9)
        a = skyline(ds, x_col="a", y_col="b")
        force_tree()
        with metrics.recording() as rec:
            b = skyline(ds, x_col="a", y_col="b")
        assert rec.last("pareto.skyline")["combine_rounds"] >= 1
        pd.testing.assert_frame_equal(a, b)

    def test_nan_and_single_point(self, rd):
        from zonal_stats_toolkit_ray.stages.pareto import skyline

        df = pd.DataFrame({"a": [1.0, np.nan, 1.0], "b": [2.0, 99.0, np.nan]})
        got = skyline(rd.from_pandas(df), x_col="a", y_col="b")
        assert got["x"].tolist() == [1.0] and got["y"].tolist() == [2.0]


class TestWeightedMedian:
    def test_matches_bruteforce(self, rd):
        from zonal_stats_toolkit_ray.stages.rank import weighted_median_by_group

        rng = np.random.default_rng(2)
        n = 5000
        k = rng.integers(0, 4, n)
        v = rng.integers(1, 51, n).astype(float)
        w = rng.uniform(0.5, 10.0, n)
        df = pd.DataFrame({"k": k, "v": v, "w": w})
        got = weighted_median_by_group(
            rd.from_pandas(df).repartition(6),
            key_col="k",
            value_col="v",
            weight_col="w",
        ).set_index("k")
        for key, g in df.groupby("k"):
            u = g.groupby("v")["w"].sum().sort_index()
            cw = u.cumsum()
            want = u.index[(cw >= 0.5 * cw.iloc[-1]).to_numpy().argmax()]
            assert got.loc[key, "wq"] == want

    def test_quantile_parameter(self, rd):
        from zonal_stats_toolkit_ray.stages.rank import weighted_median_by_group

        # one group, equal weights → plain lower quantile of the values
        df = pd.DataFrame(
            {"k": ["a"] * 10, "v": np.arange(10.0), "w": np.ones(10)}
        )
        got = weighted_median_by_group(
            rd.from_pandas(df), key_col="k", value_col="v", weight_col="w", q=0.9
        )
        assert got["wq"].tolist() == [8.0]  # cum 9/10 >= 0.9 at v=8


class TestMaxStreak:
    def test_matches_islands_reference(self, rd):
        from zonal_stats_toolkit_ray.stages.intervals import max_streak_by_key

        rng = np.random.default_rng(13)
        rows = []
        want = {}
        for u in range(30):
            days = np.unique(rng.integers(0, 60, rng.integers(1, 40)))
            # reference: longest consecutive run
            best = cur = 1
            for i in range(1, len(days)):
                cur = cur + 1 if days[i] == days[i - 1] + 1 else 1
                best = max(best, cur)
            want[u] = best
            for d in days:
                # multiple events within the day must count once
                for _ in range(rng.integers(1, 3)):
                    rows.append(
                        (u, pd.Timestamp("2024-01-01") + pd.Timedelta(days=int(d), hours=int(rng.integers(0, 24))))
                    )
        df = pd.DataFrame(rows, columns=["user_id", "ts"])
        got = max_streak_by_key(
            rd.from_pandas(df.sample(frac=1.0, random_state=0)).repartition(8)
        )
        assert dict(zip(got["user_id"], got["max_streak"])) == want

    def test_one_hot_key_across_blocks(self, rd):
        from zonal_stats_toolkit_ray.stages.intervals import max_streak_by_key

        # 5000 consecutive days, one user, shuffled into 16 blocks: the
        # streak must stitch across every block boundary
        ts = pd.Timestamp("2020-01-01") + pd.to_timedelta(
            np.random.default_rng(1).permutation(5000), unit="D"
        )
        df = pd.DataFrame({"user_id": np.zeros(5000, dtype=np.int64), "ts": ts})
        got = max_streak_by_key(rd.from_pandas(df).repartition(16))
        assert got["max_streak"].tolist() == [5000]


class TestGini:
    def test_matches_sorted_formula(self, rd):
        from zonal_stats_toolkit_ray.stages.rank import gini_by_group

        rng = np.random.default_rng(5)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b"], 4000),
                "v": rng.integers(1, 100, 4000).astype(float),
            }
        )
        got = gini_by_group(
            rd.from_pandas(df).repartition(5), key_col="k", value_col="v"
        ).set_index("k")
        for k, g in df.groupby("k"):
            x = np.sort(g["v"].to_numpy())
            n = len(x)
            want = ((2 * np.arange(1, n + 1) - n - 1) * x).sum() / (n * x.sum())
            assert abs(got.loc[k, "gini"] - want) < 1e-6

    def test_extremes(self, rd):
        from zonal_stats_toolkit_ray.stages.rank import gini_by_group

        equal = pd.DataFrame({"k": ["e"] * 100, "v": np.full(100, 7.0)})
        got = gini_by_group(rd.from_pandas(equal), key_col="k", value_col="v")
        assert got["gini"].tolist() == [0.0]
        skew = pd.DataFrame(
            {"k": ["s"] * 100, "v": [0.0] * 99 + [1000.0]}
        )
        got2 = gini_by_group(rd.from_pandas(skew), key_col="k", value_col="v")
        assert got2["gini"][0] > 0.98
