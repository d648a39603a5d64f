"""Unit tests for OHLC rollup and CUSUM distributed scan."""

import numpy as np
import pandas as pd
import pytest
from zonal_stats_toolkit_ray.state import metrics


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


def make_events(rng, n=4000, users=20, span_days=30):
    return pd.DataFrame(
        {
            "event_id": rng.permutation(n),
            "user_id": rng.integers(0, users, n),
            "ts": pd.Timestamp("2024-03-01")
            + pd.to_timedelta(rng.integers(0, span_days * 86400, n), unit="s"),
            "value": rng.normal(10, 4, n).round(3),
        }
    )


class TestOHLC:
    def test_matches_pandas(self, rd):
        from zonal_stats_toolkit_ray.stages.ohlc import ohlc

        rng = np.random.default_rng(6)
        df = make_events(rng)
        got = ohlc(rd.from_pandas(df).repartition(9), bucket_s=86400)
        ref = df.copy()
        ref["bucket"] = (
            ref["ts"].astype("datetime64[us]").astype(np.int64) // (86400 * 10**6)
        )
        ref = ref.sort_values(["user_id", "bucket", "ts", "event_id"])
        want = ref.groupby(["user_id", "bucket"]).agg(
            open=("value", "first"),
            high=("value", "max"),
            low=("value", "min"),
            close=("value", "last"),
            n=("value", "size"),
        )
        assert len(got) == len(want)
        for row in got.itertuples(index=False):
            w = want.loc[(row.user_id, row.bucket)]
            assert row.open == w["open"] and row.close == w["close"]
            assert row.high == w["high"] and row.low == w["low"]
            assert row.n == w["n"]

    def test_tree_combine_regime(self, rd, force_tree):
        from zonal_stats_toolkit_ray.stages import ohlc as mod

        rng = np.random.default_rng(14)
        df = make_events(rng, n=2000)
        ds = rd.from_pandas(df).repartition(8)
        with metrics.recording() as rec:
            a = mod.ohlc(ds, bucket_s=86400)
            force_tree()
            b = mod.ohlc(ds, bucket_s=86400)
        rounds = [s["combine_rounds"] for s in rec.all("ohlc.ohlc")]
        assert rounds[0] == 0 and rounds[1] >= 1
        pd.testing.assert_frame_equal(a, b)

    def test_duplicate_ts_tiebreak_by_id(self, rd):
        from zonal_stats_toolkit_ray.stages.ohlc import ohlc

        ts = pd.Timestamp("2024-01-01")
        df = pd.DataFrame(
            {
                "event_id": [5, 2, 9],
                "user_id": [1, 1, 1],
                "ts": [ts, ts, ts],
                "value": [100.0, 200.0, 300.0],
            }
        )
        got = ohlc(rd.from_pandas(df), bucket_s=3600)
        assert got["open"].tolist() == [200.0]  # id 2 first
        assert got["close"].tolist() == [300.0]  # id 9 last


def cusum_reference(df: pd.DataFrame) -> dict:
    out = {}
    for _, g in df.sort_values(["user_id", "ts", "event_id"]).groupby("user_id"):
        s = 0
        for i, x in zip(g["event_id"], g["x"]):
            s = max(0, s + int(x))
            out[i] = s
    return out


class TestCusum:
    def test_matches_recurrence(self, rd):
        from zonal_stats_toolkit_ray.stages.cusum import cusum_by_key

        rng = np.random.default_rng(21)
        df = make_events(rng, n=3000)
        df["x"] = np.floor(df["value"] * 1000).astype(np.int64) - 10_000
        got = (
            cusum_by_key(rd.from_pandas(df).repartition(7))
            .to_pandas()
            .set_index("event_id")["cusum"]
        )
        want = cusum_reference(df)
        assert len(got) == len(want)
        for i, s in want.items():
            assert got[i] == s, i

    def test_hot_key_spans_blocks(self, rd):
        from zonal_stats_toolkit_ray.stages.cusum import cusum_by_key

        rng = np.random.default_rng(27)
        n = 30_000
        df = pd.DataFrame(
            {
                "event_id": rng.permutation(n),
                "user_id": np.zeros(n, dtype=np.int64),
                "ts": pd.Timestamp("2024-01-01")
                + pd.to_timedelta(np.arange(n), unit="s"),
                "x": rng.integers(-50, 52, n),
            }
        )
        got = (
            cusum_by_key(rd.from_pandas(df).repartition(16))
            .to_pandas()
            .set_index("event_id")["cusum"]
        )
        want = cusum_reference(df)
        bad = [i for i, s in want.items() if got[i] != s]
        assert not bad, bad[:5]

    def test_all_negative_clamps_to_zero(self, rd):
        from zonal_stats_toolkit_ray.stages.cusum import cusum_by_key

        df = pd.DataFrame(
            {
                "event_id": [1, 2, 3],
                "user_id": [7, 7, 7],
                "ts": pd.to_datetime(
                    ["2024-01-01", "2024-01-02", "2024-01-03"]
                ),
                "x": [-5, -5, -5],
            }
        )
        got = cusum_by_key(rd.from_pandas(df)).to_pandas()
        assert got["cusum"].tolist() == [0, 0, 0]
