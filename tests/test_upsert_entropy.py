"""Unit tests for latest_by_key (CDC compaction) and group_entropy."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


class TestLatestByKey:
    def test_latest_wins(self, rd):
        from zonal_stats_toolkit_ray.stages.incremental import latest_by_key

        rng = np.random.default_rng(7)
        n = 3000
        df = pd.DataFrame(
            {
                "k": rng.integers(0, 400, n),
                "ver": rng.permutation(n),  # unique order tuple per row
                "payload": rng.normal(0, 1, n),
            }
        )
        got = latest_by_key(
            rd.from_pandas(df).repartition(7), key_col="k", order_cols=["ver"]
        )
        want = (
            df.sort_values(["k", "ver"]).groupby("k").tail(1).sort_values("k")
        )
        assert got["k"].tolist() == want["k"].tolist()
        assert got["ver"].tolist() == want["ver"].tolist()
        assert got["payload"].tolist() == want["payload"].tolist()

    def test_tree_combine_matches_driver(self, rd, force_tree):
        from zonal_stats_toolkit_ray.stages import incremental
        from zonal_stats_toolkit_ray.stages.incremental import latest_by_key

        rng = np.random.default_rng(9)
        df = pd.DataFrame(
            {
                "k": rng.integers(0, 50, 1000),
                "ver": rng.permutation(1000),
                "v": rng.normal(0, 1, 1000),
            }
        )
        ds = rd.from_pandas(df).repartition(6)
        a = latest_by_key(ds, key_col="k", order_cols=["ver"])
        levels = force_tree(incremental)
        b = latest_by_key(ds, key_col="k", order_cols=["ver"])
        assert levels == [1], levels
        pd.testing.assert_frame_equal(a, b)

    def test_multi_column_order(self, rd):
        from zonal_stats_toolkit_ray.stages.incremental import latest_by_key

        df = pd.DataFrame(
            {
                "k": [1, 1, 1],
                "pri": [1, 2, 2],
                "ts": [99, 5, 7],
                "v": ["a", "b", "c"],
            }
        )
        got = latest_by_key(
            rd.from_pandas(df), key_col="k", order_cols=["pri", "ts"]
        )
        assert got["v"].tolist() == ["c"]  # pri 2 beats pri 1; ts 7 beats 5


class TestGroupEntropy:
    def test_matches_scipy_style(self, rd):
        from zonal_stats_toolkit_ray.stages.profile import group_entropy

        rng = np.random.default_rng(11)
        df = pd.DataFrame(
            {
                "user_id": rng.integers(0, 20, 5000),
                "event_type": rng.choice(list("abcde"), 5000),
            }
        )
        got = group_entropy(rd.from_pandas(df).repartition(5)).set_index(
            "user_id"
        )
        for u, g in df.groupby("user_id"):
            p = g["event_type"].value_counts(normalize=True).to_numpy()
            want = float(-(p * np.log2(p)).sum())
            assert abs(got.loc[u, "entropy"] - want) < 1e-9
            assert got.loc[u, "n"] == len(g)

    def test_single_category_zero(self, rd):
        from zonal_stats_toolkit_ray.stages.profile import group_entropy

        df = pd.DataFrame({"user_id": [1, 1, 1], "event_type": ["x"] * 3})
        got = group_entropy(rd.from_pandas(df))
        assert got["entropy"].tolist() == [0.0]
