"""rolling_window_stats: distributed trailing-window aggregates.

Pins (1) equality of the chunked (sort + boundary-context) form against
the per-key map_groups reference, (2) SQL RANGE-frame semantics on tied
timestamps, (3) a one-hot-key stress where the key must split across
blocks, (4) exact window-bound inclusivity in int64 microseconds.
"""

import numpy as np
import pandas as pd
import pandas.testing as pt
import pyarrow as pa
import pytest

import ray.data as rd

from zonal_stats_toolkit_ray.stages.rolling import (
    rolling_window_stats,
    rolling_window_stats_ref,
    _window_sums,
)
from zonal_stats_toolkit_ray.stages import guard
from zonal_stats_toolkit_ray.state import metrics


def _cmp(ds, window_s, **kw):
    out = (
        rolling_window_stats(ds, window_s=window_s, **kw)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    ref = (
        rolling_window_stats_ref(ds, window_s=window_s, **kw)
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    pt.assert_frame_equal(out, ref, check_like=True)
    return out


def _events_df(n, n_users, seed, span_s=86_400):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, span_s * 1_000_000, n))
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, n_users, n),
            "ts": pd.to_datetime(ts, unit="us"),
            "value": rng.normal(10.0, 3.0, n).round(3),
        }
    )


class TestRollingWindow:
    def test_matches_reference_events_table(self, ray_session):
        ds = rd.read_parquet("/root/testdata/sf0.001/events.parquet")
        _cmp(ds, 3600.0)

    def test_tied_timestamps_are_peers(self, ray_session):
        # 6 rows of one key at the SAME timestamp split across many blocks:
        # every row's frame must include all 6 peers (SQL RANGE CURRENT ROW)
        df = pd.DataFrame(
            {
                "event_id": np.arange(6, dtype=np.int64),
                "user_id": np.int64(7),
                "ts": pd.to_datetime([1_000_000] * 6, unit="us"),
                "value": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            }
        )
        ds = rd.from_pandas(df).repartition(6)
        out = _cmp(ds, 10.0)
        assert (out["roll_n"] == 6).all()
        assert np.allclose(out["roll_sum"], 21.0)

    def test_one_hot_key_splits_across_blocks(self, ray_session):
        df = _events_df(20_000, 1, seed=3, span_s=7_200)
        ds = rd.from_pandas(df).repartition(16)
        out = _cmp(ds, 600.0)
        # spot-check one row against a brute-force frame
        ts_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        i = 12_345
        m = (ts_us >= ts_us[i] - 600_000_000) & (ts_us <= ts_us[i])
        row = out.loc[out["event_id"] == i].iloc[0]
        assert row["roll_n"] == int(m.sum())
        assert abs(row["roll_sum"] - df["value"].to_numpy()[m].sum()) < 1e-6

    def test_window_bounds_inclusive_exact_us(self, ray_session):
        # rows exactly window_s apart: the older row is INSIDE the frame
        # (RANGE PRECEDING is inclusive); one microsecond older is outside
        df = pd.DataFrame(
            {
                "event_id": np.arange(3, dtype=np.int64),
                "user_id": np.int64(1),
                "ts": pd.to_datetime([0, 1, 3_600_000_001], unit="us"),
                "value": [5.0, 7.0, 1.0],
            }
        )
        ds = rd.from_pandas(df).repartition(3)
        out = _cmp(ds, 3600.0)
        by_id = out.set_index("event_id")
        # row 2 at t=3600.000001s: row 0 (t=0) is 1 µs outside, row 1 inside
        assert by_id.loc[2, "roll_n"] == 2
        assert abs(by_id.loc[2, "roll_sum"] - 8.0) < 1e-9

    def test_many_keys_random(self, ray_session):
        df = _events_df(5_000, 40, seed=11)
        ds = rd.from_pandas(df).repartition(8)
        _cmp(ds, 1800.0)

    def test_frame_edge_row_survives_tied_cross_block_run(self, ray_session):
        # ADVICE r4 repro: a row at EXACTLY t − window, strictly inside an
        # earlier block, plus a tied run at t straddling block boundaries.
        # The inclusive RANGE frame of every tied row must count the edge
        # row; the old strict `>` boundary export dropped it for rows in
        # later blocks.
        n_tied = 60
        df = pd.DataFrame(
            {
                "event_id": np.arange(n_tied + 1, dtype=np.int64),
                "user_id": np.int64(3),
                "ts": pd.to_datetime(
                    [0] + [3_600_000_000] * n_tied, unit="us"
                ),
                "value": [100.0] + [1.0] * n_tied,
            }
        )
        ds = rd.from_pandas(df).repartition(12)
        out = _cmp(ds, 3600.0)
        tied = out[out["event_id"] > 0]
        assert (tied["roll_n"] == n_tied + 1).all()
        assert np.allclose(tied["roll_sum"], 100.0 + n_tied)

    def test_boundary_threshold_raises(self, ray_session, monkeypatch):
        df = _events_df(2_000, 1, seed=5, span_s=10)
        ds = rd.from_pandas(df).repartition(4)
        monkeypatch.setattr(guard, "DRIVER_ROWS", 10)
        with pytest.raises(ValueError, match="boundary rows"):
            rolling_window_stats(ds, window_s=3600.0).to_pandas()


class TestEwma:
    def _ref(self, df, alpha):
        g = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        out = (
            g.groupby("user_id")["value"]
            .transform(lambda s: s.ewm(alpha=alpha, adjust=False).mean())
        )
        r = g[["event_id", "user_id"]].copy()
        r["ewma"] = out
        return r.sort_values("event_id").reset_index(drop=True)

    def _cmp(self, df, alpha, parts):
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.rolling import ewma_by_key

        got = (
            ewma_by_key(rd.from_pandas(df).repartition(parts), alpha=alpha)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        want = self._ref(df, alpha)
        assert np.allclose(
            got["ewma"].to_numpy(), want["ewma"].to_numpy(), rtol=1e-9, atol=1e-12
        )
        return got

    def test_matches_pandas_many_keys(self, ray_session):
        df = _events_df(5_000, 40, seed=7)
        self._cmp(df, 0.3, 8)

    def test_one_hot_key_cross_block_carry(self, ray_session):
        # one key split across 16 blocks: every block's carry must chain,
        # and the driver summary frame must stay O(blocks), never O(rows)
        df = _events_df(20_000, 1, seed=11)
        with metrics.recording() as rec:
            self._cmp(df, 0.25, 16)
        stats = rec.last("rolling.ewma_by_key")
        assert 0 < stats["summary_rows"] <= 2 * max(stats["blocks"], 1)

    def test_long_run_chunked_scan_path(self, ray_session):
        # 6000-row single block forces the q^i-underflow chunked rescan
        df = _events_df(6_000, 1, seed=3)
        self._cmp(df, 0.3, 1)

    def test_alpha_extremes(self, ray_session):
        df = _events_df(2_000, 5, seed=5)
        got = self._cmp(df, 1.0, 4)  # y_i = x_i
        want = df.sort_values("event_id")["value"].to_numpy()
        assert np.allclose(got["ewma"].to_numpy(), want)
        self._cmp(df, 0.01, 4)  # slow decay (no underflow regime)


class TestWindowSumsKernel:
    def test_run_packing_no_bleed(self):
        # two runs whose timestamps would overlap if packed naively
        ts = np.array([0, 50, 100, 0, 10, 20], dtype=np.int64)
        v = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        runs = np.array([0, 3], dtype=np.int64)
        n, s = _window_sums(ts, v, runs, np.arange(6), window_us=60)
        assert list(n) == [1, 2, 2, 1, 2, 3]
        assert list(s) == [1.0, 2.0, 2.0, 2.0, 4.0, 6.0]
