"""The keyed block scan (stages/scan.py) under its twelve operators (and
``interval_coverage``, the per-key reduce of ``interval_union``'s
islands): a NULL key is a partition of its own, any key type keeps its
type, and the driver holds O(blocks) rows."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from zonal_stats_toolkit_ray.stages.cusum import cusum_by_key
from zonal_stats_toolkit_ray.stages.intervals import (
    event_gaps,
    event_transitions,
    interval_coverage,
    interval_union,
    twap_by_key,
)
from zonal_stats_toolkit_ray.stages.joins import asof_join_self
from zonal_stats_toolkit_ray.stages.pack import attach_running_total
from zonal_stats_toolkit_ray.stages.rolling import (
    ewma_by_key,
    rolling_rows_median,
    rolling_window_stats,
)
from zonal_stats_toolkit_ray.stages.window import session_windows
from zonal_stats_toolkit_ray.stages.winfunc import _ntile, window_ranks
from zonal_stats_toolkit_ray.state import metrics

GAP_S, WINDOW_S = 15_000.0, 30_000.0


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
            "event_type": rng.choice(["click", "view", "buy"], n),
        }
    ).assign(
        start=lambda d: _sec(d["ts"]),
        end=lambda d: _sec(d["ts"]) + 500.0 * d["value"],
    )


def _sec(ts) -> np.ndarray:
    return ts.to_numpy().astype("datetime64[us]").astype(np.int64) / 1e6


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


def _asof_ref(df):
    out = pd.Series(np.nan, index=df.index)
    for _, g in _by_key(df, ["ts"]):
        t = _sec(g["ts"])
        c = (g["event_type"] == "click").to_numpy()
        v = g["value"].to_numpy()
        for i in range(len(g)):
            m = c & (t <= t[i])
            if m.any():
                out[g.index[i]] = v[m & (t == t[m].max())].max()
    return pd.DataFrame({"last_click_value": out})


def _rolling_ref(df):
    n, s = pd.Series(0, index=df.index), pd.Series(0.0, index=df.index)
    for _, g in _by_key(df, ["ts"]):
        t, v = _sec(g["ts"]), g["value"].to_numpy()
        for i, ix in enumerate(g.index):
            m = (t >= t[i] - WINDOW_S) & (t <= t[i])
            n[ix], s[ix] = m.sum(), v[m].sum()
    return pd.DataFrame({"roll_n": n, "roll_sum": s})


def _sessions_ref(df):
    rows = []
    for k, g in _by_key(df, ["ts"]):
        t = _sec(g["ts"])
        i0 = np.flatnonzero(np.r_[True, np.diff(t) > GAP_S])
        i1 = np.r_[i0[1:], t.size] - 1
        for a, b in zip(i0, i1):
            rows.append((k, b - a + 1, t[a], t[b], t[b] - t[a]))
    return pd.DataFrame(
        rows, columns=["user_id", "n_events", "start", "end", "duration_s"]
    )


def _union_ref(df):
    rows = []
    for k, g in _by_key(df, ["start", "end"]):
        isl = []
        for s, e in zip(g["start"], g["end"]):
            if isl and s <= isl[-1][1]:
                isl[-1] = [isl[-1][0], max(isl[-1][1], e), isl[-1][2] + 1]
            else:
                isl.append([s, e, 1])
        rows += [(k, n, s, e) for s, e, n in isl]
    return pd.DataFrame(rows, columns=["user_id", "n_intervals", "start", "end"])


def _coverage_ref(df):
    isl = _union_ref(df).assign(cov=lambda d: d["end"] - d["start"])
    out = isl.groupby("user_id", dropna=False).agg(
        n_islands=("cov", "size"), covered_s=("cov", "sum"), max_island_s=("cov", "max")
    )
    return out.reset_index()


def _gaps_ref(df):
    rows = []
    for k, g in _by_key(df, ["ts"]):
        d = np.diff(_sec(g["ts"]))
        avg, top = (d.mean(), d.max()) if d.size else (np.nan, np.nan)
        rows.append((k, d.size + 1, d.size, avg, top))
    return pd.DataFrame(
        rows, columns=["user_id", "n_events", "n_gaps", "avg_gap_s", "max_gap_s"]
    )


def _twap_ref(df):
    rows = []
    for k, g in _by_key(df, ["ts", "event_id"]):
        t, v = _sec(g["ts"]), g["value"].to_numpy()
        if t.size > 1:
            twap = np.sum(np.diff(t) * v[:-1]) / (t[-1] - t[0])
            rows.append((k, t.size, round(twap, 6)))
    return pd.DataFrame(rows, columns=["user_id", "n_events", "twap"])


def _transitions_ref(df):
    s = df.sort_values(["ts", "event_id"])
    prev = s.groupby("user_id", dropna=False)["event_type"].shift(1)
    out = (
        pd.DataFrame({"from_type": prev, "to_type": s["event_type"]})
        .dropna()
        .groupby(["from_type", "to_type"])
        .size()
        .reset_index(name="n")
    )
    out["p"] = (out["n"] / out.groupby("from_type")["n"].transform("sum")).round(6)
    return out


# name → (operator, pandas reference, output sort columns; None: one row
# per input row, the reference indexed like the input)
_KEYED = {
    "cusum_by_key": (cusum_by_key, _cusum_ref, None),
    "window_ranks": (window_ranks, _ranks_ref, None),
    "ewma_by_key": (ewma_by_key, _ewma_ref, None),
    "rolling_rows_median": (lambda ds: rolling_rows_median(ds, k=5), _median_ref, None),
    "asof_join_self": (asof_join_self, _asof_ref, None),
    "rolling_window_stats": (
        lambda ds: rolling_window_stats(ds, window_s=WINDOW_S), _rolling_ref, None
    ),
    "session_windows": (
        lambda ds: session_windows(ds, gap_seconds=GAP_S),
        _sessions_ref,
        ["user_id", "start"],
    ),
    "interval_union": (interval_union, _union_ref, ["user_id", "start"]),
    "interval_coverage": (interval_coverage, _coverage_ref, ["user_id"]),
    "event_gaps": (event_gaps, _gaps_ref, ["user_id"]),
    "twap_by_key": (twap_by_key, _twap_ref, ["user_id"]),
    "event_transitions": (
        event_transitions, _transitions_ref, ["from_type", "to_type"]
    ),
}


def _nulls_none(col) -> list:
    return [None if pd.isna(x) else x for x in col]


def _assert_matches(got, want, by):
    got = got.sort_values(by, kind="stable").reset_index(drop=True)
    want = want.sort_values(by, kind="stable").reset_index(drop=True)
    assert len(got) == len(want)
    for c in want.columns:
        if want[c].dtype == object:
            assert _nulls_none(got[c]) == _nulls_none(want[c]), c
        else:
            np.testing.assert_allclose(got[c], want[c], rtol=1e-12, err_msg=c)


def _run(name, df, blocks):
    op, ref, by = _KEYED[name]
    want = ref(df)
    if by is None:
        want = want.sort_index().assign(
            event_id=df["event_id"], user_id=df["user_id"]
        )
        by = ["event_id"]
    got = op(rd.from_pandas(df).repartition(blocks))
    _assert_matches(got if isinstance(got, pd.DataFrame) else got.to_pandas(), want, by)
    return got


@pytest.mark.parametrize("name", sorted(_KEYED))
def test_null_key_is_a_partition_of_its_own(ray_session, name):
    df = _events(400, ["a", None, "b", "c"] * 100, seed=3)
    # the sort samples at random: a NULL-unsafe sort fails in some runs only
    for _ in range(2):
        _run(name, df, 4)


@pytest.mark.parametrize("name", ["event_transitions", "twap_by_key"])
def test_string_keys_keep_their_type(ray_session, name):
    df = _events(400, ["a", "b", "c", "d"] * 100, seed=4)
    got = _run(name, df, 4)
    if "user_id" in got.columns:
        assert got["user_id"].tolist() == ["a", "b", "c", "d"]


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
        rolling_window_stats(ds, window_s=WINDOW_S)
        asof_join_self(ds)
        session_windows(ds, gap_seconds=GAP_S)
        interval_union(ds)
        event_gaps(ds)
        event_transitions(ds)
        twap_by_key(ds)
    # the rolling window's edge: the last run's rows within the window of
    # its last ts and the first run's rows tied at its first ts, each at
    # most the densest window of one key
    s = df.sort_values(["user_id", "ts"])
    t = _sec(s["ts"])
    key = s["user_id"].to_numpy()
    comp = t + np.cumsum(np.r_[0, key[1:] != key[:-1]]) * (t.max() + 2 * WINDOW_S)
    first = np.searchsorted(comp, comp - WINDOW_S)  # first row in each window
    density = int((np.arange(t.size) - first + 1).max())
    per_block = {
        "cusum.cusum_by_key": 2,
        "winfunc.window_ranks": 2,
        "rolling.ewma_by_key": 2,
        "pack.attach_running_total": 2,
        "rolling.rolling_rows_median": k - 1,
        "rolling.rolling_window_stats": 2 * density,
        "joins.asof_join_self": 1,
        "window.session_windows": 1,
        "intervals.interval_union": 1,
        "intervals.event_gaps": 1,
        "intervals.event_transitions": 1,
        "intervals.twap_by_key": 1,
    }
    for op, bound in per_block.items():
        s = rec.last(op)
        assert s["blocks"] == 8, (op, s)
        assert 0 < s["summary_rows"] <= bound * s["blocks"], (op, s)


def test_blocks_sharing_a_first_row_tuple_raise(ray_session, monkeypatch):
    """Ray's range sort keeps equal sort tuples in one block; if a sort
    ever split them, two blocks' carries would collide, so the scan
    raises instead of answering from the wrong carry."""
    sort = rd.Dataset.sort
    monkeypatch.setattr(
        rd.Dataset, "sort", lambda ds, cols: sort(ds, cols).repartition(4)
    )
    df = _events(40, ["a"] * 40, seed=5).assign(ts=pd.Timestamp("2024-01-01"))
    with pytest.raises(ValueError, match="same sort tuple"):
        event_gaps(rd.from_pandas(df))
