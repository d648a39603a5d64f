"""Cohort retention analysis over the events stream — the classic
product-analytics matrix (users grouped by first-activity week; how many
are still active k weeks later), and a stand-in for any
"first-seen bucket × activity bucket" rollup (crawl freshness, user
churn, domain re-visit patterns).

Ray-Data-first, integer week arithmetic (epoch seconds // 604800 — no
calendar semantics, so the SQL twin is exact by construction):

1. per-user cohort = MIN(week) via in-batch min partials → one slim
   hash aggregate (user-universe-sized, never event-sized rows);
2. events join their user's cohort with the dual-regime
   ``joins.hash_join`` (auto-broadcast under the threshold);
3. distinct (cohort, offset, user) via ``joins.distinct_rows`` (in-batch
   combiner before the shuffle), then the tiny (cohort, offset) count.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import guard
from .window import _ts_seconds

_WEEK_S = 604800


def _user_week_batch(batch: pa.Table, *, user_col: str, ts_col: str) -> pa.Table:
    ts = _ts_seconds(batch[ts_col])
    wk = (ts // _WEEK_S).astype(np.int64)
    return pa.table({user_col: batch[user_col], "wk": pa.array(wk)})


def cohort_retention(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
) -> pd.DataFrame:
    """→ DataFrame(cohort_week, week_offset, n_users), cohort_week =
    epoch-week of the user's first event, n_users = distinct users of
    that cohort active at that offset (offset 0 row = cohort size)."""
    from ray.data.aggregate import Min
    from .joins import distinct_rows, hash_join

    weeks = ds.map_batches(
        _user_week_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(user_col=user_col, ts_col=ts_col),
    ).materialize()

    def min_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                user_col: t[user_col].to_pandas(),
                "wk": t["wk"].to_pandas(),
            }
        )
        g = df.groupby(user_col, sort=False)["wk"].min().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cohorts = (
        weeks.map_batches(min_partial, batch_format="pyarrow")
        .repartition(guard.shuffle_partitions())
        .groupby(user_col)
        .aggregate(Min("wk", alias_name="cohort_week"))
    )
    joined = hash_join(weeks, cohorts, on=user_col, how="inner")

    def with_offset(t: pa.Table) -> pa.Table:
        wk = t["wk"].to_numpy(zero_copy_only=False).astype(np.int64)
        co = t["cohort_week"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cohort_week": pa.array(co),
                "week_offset": pa.array(wk - co),
                user_col: t[user_col],
            }
        )

    active = distinct_rows(
        joined.map_batches(with_offset, batch_format="pyarrow"),
        ["cohort_week", "week_offset", user_col],
    )

    def count_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "cohort_week": t["cohort_week"].to_pandas(),
                "week_offset": t["week_offset"].to_pandas(),
            }
        )
        g = (
            df.groupby(["cohort_week", "week_offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = guard.group_sums(
        active.map_batches(count_partial, batch_format="pyarrow"),
        ["cohort_week", "week_offset"],
        ["n_users"],
    )
    out["n_users"] = out["n_users"].astype("int64")
    return out


def weekly_growth(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
) -> pd.DataFrame:
    """Week-over-week deltas per key → DataFrame(key, week, total,
    prev_total, diff) — SQL ``LAG(total) OVER (PARTITION BY key ORDER BY
    week)`` over the weekly rollup, with ``diff = total − prev_total``
    (NULL on each key's first observed week).

    Shape: in-batch (key, epoch-week) integer-sum partials (values floor
    to int64, so every sum is exact) → ``guard.group_sums`` over the
    keys × weeks universe → the LAG runs on the universe-sized frame
    (bounded: weeks are calendar-bounded, keys are the reporting
    dimension).  Events themselves never shuffle."""
    import pyarrow.compute as pc

    def partials(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b[ts_col], pa.timestamp("us")), pa.int64())
        us = us.to_numpy(zero_copy_only=False)
        week = us // (7 * 86_400_000_000)
        x = np.floor(
            pc.cast(b[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        t = pa.table(
            {
                key_col: b[key_col],
                "week": pa.array(week, pa.int64()),
                "x": pa.array(x, pa.int64()),
            }
        )
        g = t.group_by([key_col, "week"]).aggregate([("x", "sum")])
        return g.rename_columns([key_col, "week", "x"])

    uni = guard.group_sums(  # keys × weeks universe
        ds.map_batches(partials, batch_format="pyarrow"), [key_col, "week"], ["x"]
    ).rename(columns={"x": "total"})
    prev = uni.groupby(key_col, sort=False, dropna=False)["total"].shift(1)
    out = pd.DataFrame(
        {
            key_col: uni[key_col],
            "week": uni["week"].astype(np.int64),
            "total": uni["total"].astype(np.int64),
            "prev_total": prev.astype(np.float64),
            "diff": (uni["total"] - prev).astype(np.float64),
        }
    )
    return out.reset_index(drop=True)


def association_rules(
    ds,
    *,
    basket_col: str = "user_id",
    item_col: str = "event_type",
) -> pd.DataFrame:
    """Directional association rules over (basket, item) observations →
    DataFrame(antecedent, consequent, n_both, n_ante, n_cons, baskets,
    confidence, lift) for every ordered item pair — the market-basket
    readout (support/confidence/lift).

    Shape: the distinct (basket, item) universe builds distributed (the
    in-batch-combiner distinct); co-occurrence counts come from ONE
    self hash-join on the basket key (fan-out per basket = items²,
    bounded by the item vocabulary) reduced by in-batch pair-count
    partials; singles and basket totals are tiny aggregates.  Ratios are
    integer-exact on both sides (confidence = n_both/n_ante, lift =
    n_both·baskets/(n_ante·n_cons), 6 dp)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from .joins import distinct_rows, hash_join

    d = distinct_rows(
        ds.select_columns([basket_col, item_col]), [basket_col, item_col],
    ).map_batches(
        lambda t: (
            pa.table(
                {
                    basket_col: t[basket_col],
                    item_col: pc.cast(t[item_col], pa.string()),
                }
            )
            if basket_col in t.column_names
            else pa.table(
                {
                    basket_col: pa.array([], pa.int64()),
                    item_col: pa.array([], pa.string()),
                }
            )
        ),
        batch_format="pyarrow",
    ).materialize()
    singles = (
        d.groupby(item_col).aggregate(Count(alias_name="n")).to_pandas()
    ).set_index(item_col)["n"]
    baskets = distinct_rows(d, [basket_col]).count()
    right = d.map_batches(
        lambda t: t.rename_columns([basket_col, "item2"]),
        batch_format="pyarrow",
    )
    j = hash_join(d, right, on=basket_col, how="inner")

    def pair_partials(t: pa.Table) -> pa.Table:
        if item_col not in t.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "c": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        t = t.filter(pc.not_equal(t[item_col], t["item2"]))
        g = t.group_by([item_col, "item2"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "a": g[item_col],
                "c": g["item2"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    pairs = guard.group_sums(  # item-vocabulary²-sized
        j.map_batches(pair_partials, batch_format="pyarrow"), ["a", "c"], ["n"]
    ).rename(columns={"n": "n_both"})
    pairs["n_ante"] = pairs["a"].map(singles).astype(np.int64)
    pairs["n_cons"] = pairs["c"].map(singles).astype(np.int64)
    pairs["baskets"] = np.int64(baskets)
    pairs["confidence"] = np.round(
        pairs["n_both"] / pairs["n_ante"], 6
    )
    pairs["lift"] = np.round(
        pairs["n_both"] * float(baskets) / (pairs["n_ante"] * pairs["n_cons"]),
        6,
    )
    out = pairs.rename(columns={"a": "antecedent", "c": "consequent"})
    return (
        out[
            [
                "antecedent", "consequent", "n_both", "n_ante", "n_cons",
                "baskets", "confidence", "lift",
            ]
        ]
        .sort_values(["antecedent", "consequent"])
        .reset_index(drop=True)
    )


def kaplan_meier(
    ds,
    *,
    group_col: str,
    duration_col: str,
    event_col: str,
) -> pd.DataFrame:
    """Kaplan–Meier survival estimator per group over (duration, event)
    observations (event = 1 observed, 0 right-censored) →
    DataFrame(group, t, n_risk, d, surv 6dp) — one row per EVENT time:
    ``S(t_i) = Π_{j ≤ i} (1 − d_j / n_j)`` with censored subjects leaving
    the risk set without a factor (the standard product-limit form;
    retention/time-to-conversion curves).

    Shape: in-batch (group, duration, event) count partials →
    ``guard.group_sums`` over the durations universe (bounded: calendar
    days) → driver risk-set cumsums + cumprod, sequential in time order —
    the identical operation order as the SQL window ``product()``."""
    import pyarrow.compute as pc

    def partials(b: pa.Table) -> pa.Table:
        e = pc.cast(b[event_col], pa.int64())
        t = pa.table(
            {
                group_col: b[group_col],
                "t": pc.cast(b[duration_col], pa.int64()),
                "d": e,
                "c": pc.subtract(pa.scalar(1, pa.int64()), e),
            }
        )
        g = t.group_by([group_col, "t"]).aggregate([("d", "sum"), ("c", "sum")])
        return g.rename_columns([group_col, "t", "d", "c"])

    uni = guard.group_sums(
        ds.map_batches(partials, batch_format="pyarrow"), [group_col, "t"], ["d", "c"]
    )
    rows = []
    for k, g in uni.groupby(group_col, sort=False, dropna=False):
        d = g["d"].to_numpy(dtype=np.int64)
        c = g["c"].to_numpy(dtype=np.int64)
        t = g["t"].to_numpy(dtype=np.int64)
        leave = d + c
        total = int(leave.sum())
        before = np.concatenate([[0], np.cumsum(leave)[:-1]])
        n_risk = total - before
        ev = d > 0
        factors = 1.0 - d[ev].astype(np.float64) / n_risk[ev].astype(np.float64)
        surv = np.cumprod(factors)
        for ti, ni, di, si in zip(t[ev], n_risk[ev], d[ev], surv):
            rows.append((k, int(ti), int(ni), int(di), round(float(si), 6)))
    return pd.DataFrame(
        rows, columns=[group_col, "t", "n_risk", "d", "surv"]
    )
