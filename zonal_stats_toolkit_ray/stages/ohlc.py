"""Per-(key, time-bucket) OHLC rollup — open/high/low/close/count: the
first and last value in (ts, id) order plus min/max, without any sort.

FIRST/LAST per group are ARGMIN/ARGMAX aggregates: each block emits, per
(key, bucket) present in the batch, the value at its minimal and maximal
(ts, id) tuple plus min/max/count partials — one arrow-native grouped
reduce per batch, vectorized by lexsort + run boundaries.  Partials are
associative: merging keeps the value whose (ts, id) tuple wins.  The
partials collect through ``guard.tree_combine``, which re-applies the
same merge over fanned-in blocks while they exceed the driver budget;
the final merge is a driver pandas merge.

Ties: (ts, id) tuples are unique when ``id_col`` is unique — open/close
are deterministic, matching SQL ``ROW_NUMBER() OVER (ORDER BY ts, id)``.

Reference parity: generalizes the reference's per-zone min/max partials
(runner.py:653-685) with order-statistic (argmin/argmax) components.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.metrics import note
from .guard import tree_combine
from .scan import ts_us as _ts_us

_COLS = [
    "o_ts",
    "o_id",
    "open",
    "c_ts",
    "c_id",
    "close",
    "low",
    "high",
    "n",
]


def ohlc_partials_batch(
    b: pa.Table,
    *,
    key_col: str,
    ts_col: str,
    id_col: str,
    value_col: str,
    bucket_s: int,
) -> pa.Table:
    """One partial row per (key, bucket) in the batch."""
    kcol = b[key_col]
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    empty = pa.schema(
        [(key_col, kcol.type), ("bucket", pa.int64())]
        + [
            (c, pa.int64() if c in ("o_ts", "o_id", "c_ts", "c_id", "n") else pa.float64())
            for c in _COLS
        ]
    ).empty_table()
    if len(b) == 0:
        return empty
    ts = _ts_us(b[ts_col]) if ts_col != "__ts_us" else b["__ts_us"].to_numpy(
        zero_copy_only=False
    )
    ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    v = pc.cast(b[value_col], pa.float64()).to_numpy(zero_copy_only=False)
    bucket = ts // (np.int64(bucket_s) * 1_000_000)
    codes = np.asarray(kcol.dictionary_encode().indices, dtype=np.int64)
    # group rows by (key, bucket): lexsort with (ts, id) as inner order so
    # each run's first/last rows ARE open/close
    order = np.lexsort((ids, ts, bucket, codes))
    ck, cb, cts, cid, cv = (
        codes[order],
        bucket[order],
        ts[order],
        ids[order],
        v[order],
    )
    new = np.r_[True, (ck[1:] != ck[:-1]) | (cb[1:] != cb[:-1])]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], len(ck)]
    # per-run min/max of value via np.minimum.reduceat
    low = np.minimum.reduceat(cv, starts)
    high = np.maximum.reduceat(cv, starts)
    first_src = order[starts]
    last_src = order[ends - 1]
    return pa.table(
        {
            key_col: kcol.take(pa.array(first_src)),
            "bucket": pa.array(cb[starts], pa.int64()),
            "o_ts": pa.array(cts[starts], pa.int64()),
            "o_id": pa.array(cid[starts], pa.int64()),
            "open": pa.array(cv[starts], pa.float64()),
            "c_ts": pa.array(cts[ends - 1], pa.int64()),
            "c_id": pa.array(cid[ends - 1], pa.int64()),
            "close": pa.array(cv[ends - 1], pa.float64()),
            "low": pa.array(low, pa.float64()),
            "high": pa.array(high, pa.float64()),
            "n": pa.array((ends - starts).astype(np.int64), pa.int64()),
        }
    )


def _merge_partials(df: pd.DataFrame, key_col: str) -> pd.DataFrame:
    """Associative merge of partial rows sharing (key, bucket)."""
    if df.empty:
        return df
    g = df.sort_values(
        [key_col, "bucket", "o_ts", "o_id"], kind="stable"
    ).reset_index(drop=True)
    grp = g.groupby([key_col, "bucket"], sort=True)
    first = grp[["o_ts", "o_id", "open"]].first()
    # close: row with max (c_ts, c_id)
    g2 = df.sort_values(
        [key_col, "bucket", "c_ts", "c_id"], kind="stable"
    ).reset_index(drop=True)
    last = g2.groupby([key_col, "bucket"], sort=True)[["c_ts", "c_id", "close"]].last()
    agg = grp.agg(low=("low", "min"), high=("high", "max"), n=("n", "sum"))
    out = pd.concat([first, last, agg], axis=1).reset_index()
    return out


def _merge_partials_table(t: pa.Table, *, key_col: str) -> pa.Table:
    """``_merge_partials`` as a combine kernel: the ts/id columns already
    carry the winning tuples, so partials re-merge as-is."""
    if key_col not in t.column_names:
        return t
    return pa.Table.from_pandas(
        _merge_partials(t.to_pandas(), key_col), preserve_index=False
    )


def ohlc(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    bucket_s: int = 86400,
) -> pd.DataFrame:
    """→ DataFrame(key, bucket, open, high, low, close, n) — bucket is
    ``epoch_us // (bucket_s · 10⁶)``.  One input pass; the exchange is
    partial rows (groups per block), never events, tree-combined by
    ``guard.tree_combine`` above the driver budget."""
    part = ds.map_batches(
        ohlc_partials_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(
            key_col=key_col,
            ts_col=ts_col,
            id_col=id_col,
            value_col=value_col,
            bucket_s=bucket_s,
        ),
    )
    df, rounds = tree_combine(
        part, functools.partial(_merge_partials_table, key_col=key_col)
    )
    note("ohlc.ohlc", partial_rows=len(df), combine_rounds=rounds)
    if df.empty or len(df.columns) == 0:
        return pd.DataFrame(
            columns=[key_col, "bucket", "open", "high", "low", "close", "n"]
        )
    out = _merge_partials(df, key_col)
    return (
        out[[key_col, "bucket", "open", "high", "low", "close", "n"]]
        .sort_values([key_col, "bucket"], kind="stable")
        .reset_index(drop=True)
    )
