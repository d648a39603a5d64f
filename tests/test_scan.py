"""The keyed block scan (stages/scan.py) under its five operators: a NULL
key is a partition of its own, and the driver holds O(blocks) rows."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from zonal_stats_toolkit_ray.stages.cusum import cusum_by_key
from zonal_stats_toolkit_ray.stages.pack import attach_running_total
from zonal_stats_toolkit_ray.stages.rolling import ewma_by_key, rolling_rows_median
from zonal_stats_toolkit_ray.stages.winfunc import _ntile, window_ranks
from zonal_stats_toolkit_ray.state import metrics


def _events(n, keys, seed):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": pd.Series(keys, dtype=object),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10**6, n), unit="s"),
            "value": rng.integers(0, 20, n).astype(np.float64),  # ties
            "x": rng.integers(-50, 52, n).astype(np.int64),
        }
    )


def _by_key(df, order):
    """Rows in (key, *order) order grouped per key, NULL a key of its own."""
    return df.sort_values(order).groupby("user_id", dropna=False, sort=False)


def _cusum_ref(df):
    p = _by_key(df, ["ts", "event_id"])["x"].cumsum()
    low = p.groupby(df["user_id"], dropna=False).cummin().clip(upper=0)
    return pd.DataFrame({"cusum": p - low})


def _ranks_ref(df):
    g = _by_key(df, ["value", "event_id"])["value"]
    row_num = g.cumcount() + 1
    rnk = g.rank(method="min").astype(np.int64)
    n = g.transform("size")
    return pd.DataFrame(
        {
            "row_num": row_num,
            "rnk": rnk,
            "pct_rank": np.where(n > 1, (rnk - 1) / np.maximum(n - 1, 1), 0.0),
            "run_sum": g.cumsum(),
            "ntile": _ntile(row_num.to_numpy(), n.to_numpy(), 4),
        },
        index=row_num.index,
    )


def _ewma_ref(df):
    g = _by_key(df, ["ts", "event_id"])["value"]
    return pd.DataFrame(
        {"ewma": g.transform(lambda s: s.ewm(alpha=0.3, adjust=False).mean())}
    )


def _median_ref(df):
    g = _by_key(df, ["ts", "event_id"])["value"]
    return pd.DataFrame(
        {"roll_med": g.transform(lambda s: s.rolling(5, min_periods=1).median())}
    )


_KEYED = {
    "cusum_by_key": (cusum_by_key, _cusum_ref),
    "window_ranks": (window_ranks, _ranks_ref),
    "ewma_by_key": (ewma_by_key, _ewma_ref),
    "rolling_rows_median": (lambda ds: rolling_rows_median(ds, k=5), _median_ref),
}


@pytest.mark.parametrize("name", sorted(_KEYED))
def test_null_key_is_a_partition_of_its_own(ray_session, name):
    op, ref = _KEYED[name]
    df = _events(400, ["a", None, "b", "c"] * 100, seed=3)
    want = ref(df).sort_index()
    # the sort samples at random: a NULL-unsafe sort fails in some runs only
    for _ in range(2):
        got = (
            op(rd.from_pandas(df).repartition(4))
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        assert got["user_id"].tolist() == df["user_id"].tolist()
        for c in want.columns:
            np.testing.assert_allclose(got[c], want[c], rtol=1e-12, err_msg=c)


def test_driver_holds_o_blocks_summary_rows(ray_session):
    n, k = 40_000, 5
    df = _events(n, np.random.default_rng(1).permutation(n) // 2, seed=2)
    df["size"] = df["x"].abs()
    ds = rd.from_pandas(df).repartition(8).materialize()
    with metrics.recording() as rec:
        cusum_by_key(ds)
        window_ranks(ds)
        ewma_by_key(ds)
        attach_running_total(ds, size_col="size", order_col="event_id")
        rolling_rows_median(ds, k=k)
    per_block = {
        "cusum.cusum_by_key": 2,
        "winfunc.window_ranks": 2,
        "rolling.ewma_by_key": 2,
        "pack.attach_running_total": 2,
        "rolling.rolling_rows_median": k - 1,
    }
    for op, bound in per_block.items():
        s = rec.last(op)
        assert s["blocks"] == 8, (op, s)
        assert 0 < s["summary_rows"] <= bound * s["blocks"], (op, s)
