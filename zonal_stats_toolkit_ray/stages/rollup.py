"""SQL ROLLUP / grouping-sets aggregate over a Ray Dataset.

The reference toolkit's reporting layer emits one CSV per aggregation
grain; SQL engines express the same need as ``GROUP BY ROLLUP(k1, k2)``.
The scale-correct shape: the INPUT is read once — in-batch partials at the
FINEST grain (distinct (k1,…,kn) rows per block, never input rows) feed one
``guard.group_sums`` merge, and every coarser level re-aggregates the
previous level's group-sized frame (distinct keys shrink monotonically),
so rolling up adds zero passes over the corpus.  Rolled-up key positions
carry a sentinel token (default ``"__ALL__"``) rather than NULL so
downstream sorts, joins and the DuckDB oracle (``coalesce(k, '__ALL__')``)
treat levels uniformly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard

ALL_TOKEN = "__ALL__"


def pivot_counts(
    ds,
    *,
    index_col: str,
    columns_col: str,
    categories: list[str],
) -> pd.DataFrame:
    """Wide count pivot — ``index_col`` rows × one int64 column per category
    of ``columns_col`` (named ``n_<category>``), missing cells 0, plus a
    ``total`` column.  The generic form of the reference's wide-CSV pivot
    (runner.py:973-1019: groups × rasters), graft-generalized.

    ``categories`` is EXPLICIT so the output schema is a function of the
    call, not the data — at 100 TB a schema that depends on which values
    happen to appear is a lineage hazard (and unseen values fail fast here
    rather than silently widening).  Shape: in-batch (index, col) count
    partials → ``guard.group_sums`` over the pair universe → driver pivot
    of the tiny pair frame (a NULL index value is its own row, last)."""

    def pair_partials(b: pa.Table) -> pa.Table:
        t = pa.table({"i": b[index_col], "c": b[columns_col]})
        g = t.group_by(["i", "c"]).aggregate([([], "count_all")])
        return pa.table(
            {"i": g["i"], "c": g["c"], "n": pc.cast(g["count_all"], pa.int64())}
        )

    pairs = guard.group_sums(  # pair-universe-sized
        ds.map_batches(pair_partials, batch_format="pyarrow"), ["i", "c"], ["n"]
    )
    seen = set(pairs["c"].unique())
    unknown = seen - set(categories)
    if unknown:
        raise ValueError(f"values of {columns_col} outside categories: {sorted(unknown)}")
    wide = (
        pairs.pivot_table(
            index="i", columns="c", values="n", aggfunc="sum", fill_value=0, dropna=False
        )
        .reindex(columns=categories, fill_value=0)
        .astype("int64")
    )
    wide.columns = [f"n_{c}" for c in categories]
    wide["total"] = wide.sum(axis=1).astype("int64")
    wide = wide.reset_index().rename(columns={"i": index_col})
    return wide.sort_values(index_col).reset_index(drop=True)


def string_agg_sorted(
    ds,
    *,
    key_col: str,
    val_col: str,
    sep: str = ",",
) -> pd.DataFrame:
    """SQL ``string_agg(val, sep ORDER BY val)`` per key → DataFrame(key,
    agg, n), key ascending.

    Scale shape (sandbox lesson #24): range sort by (key, val) — a hot
    key's rows SPLIT across blocks — then each block joins its key-runs
    with one vectorized ``pc.binary_join`` (a ListArray over run offsets,
    no Python row loop) and emits (key, fragment, count) rows.  Ray
    preserves block order after a sort, so the driver stitch concatenates
    fragments in frame order — ≤ keys × blocks fragment rows, result-sized
    like any string_agg.  Fragment order between ties is irrelevant: equal
    values produce identical fragments."""
    s = ds.sort([key_col, val_col])

    def frag(b: pa.Table) -> pa.Table:
        n = len(b)
        if n == 0:
            return pa.table(
                {key_col: pa.array([], pa.string()),
                 "frag": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        keys = b[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        codes = np.asarray(keys.dictionary_encode().indices, dtype=np.int64)
        starts = np.flatnonzero(np.concatenate([[True], codes[1:] != codes[:-1]]))
        offsets = np.concatenate([starts, [n]]).astype(np.int32)
        vals = pc.cast(b[val_col], pa.string())
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), vals)
        joined = pc.binary_join(lists, sep)
        return pa.table(
            {
                key_col: keys.take(pa.array(starts)),
                "frag": joined,
                "n": pa.array((offsets[1:] - offsets[:-1]).astype(np.int64)),
            }
        )

    frags = s.map_batches(frag, batch_size=None, batch_format="pyarrow").to_pandas()
    if len(frags) == 0:
        return pd.DataFrame(columns=[key_col, "agg", "n"])
    out = frags.groupby(key_col, sort=False).agg(
        agg=("frag", sep.join), n=("n", "sum")
    ).reset_index()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(key_col).reset_index(drop=True)[[key_col, "agg", "n"]]


def cube_sum_count(
    ds,
    *,
    keys: list[str],
    value_col: str,
    all_token: str = ALL_TOKEN,
) -> pd.DataFrame:
    """``GROUP BY CUBE(*keys)`` with ``sum(value_col)`` and ``count(*)`` —
    every subset of the key set, not just prefixes.

    Same one-input-pass shape as :func:`rollup_sum_count`: the finest grain
    aggregates once, and every coarser grouping set re-aggregates the
    finest (group-universe-sized) frame in the driver — sum/count are
    associative, so no grouping set ever rereads the corpus."""
    from itertools import combinations

    keys = list(keys)

    def partials(b: pa.Table) -> pa.Table:
        t = pa.table(
            {**{k: b[k] for k in keys}, "v": pc.cast(b[value_col], pa.float64())}
        )
        g = t.group_by(keys).aggregate([("v", "sum"), ("v", "count")])
        return pa.table(
            {
                **{k: g[k] for k in keys},
                "n": pc.cast(g["v_count"], pa.int64()),
                "sum_v": pc.cast(g["v_sum"], pa.float64()),
            }
        )

    finest = guard.group_sums(
        ds.map_batches(partials, batch_format="pyarrow"), keys, ["n", "sum_v"]
    )
    frames: list[pd.DataFrame] = []
    for r in range(len(keys), -1, -1):
        for kept in combinations(keys, r):
            if r == len(keys):
                frames.append(finest.copy())
                continue
            if r == 0:
                row = {k: all_token for k in keys}
                row["n"] = np.int64(finest["n"].sum())
                row["sum_v"] = float(finest["sum_v"].sum())
                frames.append(pd.DataFrame([row]))
                continue
            g = finest.groupby(list(kept), as_index=False, dropna=False)[
                ["n", "sum_v"]
            ].sum()
            for k in keys:
                if k not in kept:
                    g[k] = all_token
            frames.append(g[keys + ["n", "sum_v"]])
    out = pd.concat(frames, ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out["sum_v"] = out["sum_v"].astype("float64")
    return out.sort_values(keys + ["n"]).reset_index(drop=True)


def rollup_sum_count(
    ds,
    *,
    keys: list[str],
    value_col: str,
    all_token: str = ALL_TOKEN,
) -> pd.DataFrame:
    """``GROUP BY ROLLUP(*keys)`` with ``sum(value_col)`` and ``count(*)``
    → DataFrame(keys…, n:int64, sum_v:float64), every rollup level, keys
    ascending with ``all_token`` marking rolled-up positions.

    One pass over the input (finest-grain in-batch partials), then each
    coarser level aggregates the PREVIOUS level's group-sized Dataset —
    the classic partial-reaggregation trick: sum and count are associative,
    so level i is exactly derivable from level i+1.  The returned frame is
    group-universe-sized (sum over levels of distinct key prefixes)."""
    keys = list(keys)

    def partials(b: pa.Table) -> pa.Table:
        t = pa.table(
            {**{k: b[k] for k in keys}, "v": pc.cast(b[value_col], pa.float64())}
        )
        g = t.group_by(keys).aggregate([("v", "sum"), ("v", "count")])
        return pa.table(
            {
                **{k: g[k] for k in keys},
                "n": pc.cast(g["v_count"], pa.int64()),
                "sum_v": pc.cast(g["v_sum"], pa.float64()),
            }
        )

    # finest-grain groups — group-universe-sized
    frames: list[pd.DataFrame] = [
        guard.group_sums(
            ds.map_batches(partials, batch_format="pyarrow"), keys, ["n", "sum_v"]
        )
    ]
    for i in range(len(keys) - 1, -1, -1):
        # roll up keys[i:]: re-aggregate the previous (already tiny) level
        prev = frames[-1]
        if i == 0:
            row = {k: all_token for k in keys}
            row["n"] = np.int64(prev["n"].sum())
            row["sum_v"] = float(prev["sum_v"].sum())
            frames.append(pd.DataFrame([row]))
        else:
            g = prev.groupby(keys[:i], as_index=False, dropna=False)[
                ["n", "sum_v"]
            ].sum()
            for k in keys[i:]:
                g[k] = all_token
            frames.append(g[keys + ["n", "sum_v"]])
    out = pd.concat(frames, ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out["sum_v"] = out["sum_v"].astype("float64")
    return out.sort_values(keys + ["n"]).reset_index(drop=True)


def grouping_sets_sum_count(
    ds,
    *,
    keys: list[str],
    value_col: str,
    sets: list[list[str]],
    all_token: str = ALL_TOKEN,
) -> pd.DataFrame:
    """``GROUP BY GROUPING SETS (...)`` with ``sum(value_col)`` /
    ``count(*)`` — the generic form CUBE and ROLLUP specialize.  Each
    requested set must be a subset of ``keys``; keys absent from a set
    render as ``all_token`` (the cube/rollup convention here).

    One input pass: the finest grain (all ``keys``) aggregates once;
    every requested set re-aggregates the group-universe-sized finest
    frame in the driver — sum/count are associative, so no grouping set
    ever rereads the corpus."""
    keys = list(keys)
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s} not a subset of keys {keys}")

    def partials(b: pa.Table) -> pa.Table:
        t = pa.table(
            {**{k: b[k] for k in keys}, "v": pc.cast(b[value_col], pa.float64())}
        )
        g = t.group_by(keys).aggregate([("v", "sum"), ("v", "count")])
        return pa.table(
            {
                **{k: g[k] for k in keys},
                "n": pc.cast(g["v_count"], pa.int64()),
                "sum_v": pc.cast(g["v_sum"], pa.float64()),
            }
        )

    finest = guard.group_sums(
        ds.map_batches(partials, batch_format="pyarrow"), keys, ["n", "sum_v"]
    )
    frames: list[pd.DataFrame] = []
    for kept in sets:
        kept = list(kept)
        if set(kept) == set(keys):
            frames.append(finest.copy())
            continue
        if not kept:
            row = {k: all_token for k in keys}
            row["n"] = np.int64(finest["n"].sum())
            row["sum_v"] = float(finest["sum_v"].sum())
            frames.append(pd.DataFrame([row]))
            continue
        g = finest.groupby(kept, as_index=False, dropna=False)[["n", "sum_v"]].sum()
        for k in keys:
            if k not in kept:
                g[k] = all_token
        frames.append(g[keys + ["n", "sum_v"]])
    out = pd.concat(frames, ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out["sum_v"] = out["sum_v"].astype("float64")
    return out.sort_values(keys + ["n"]).reset_index(drop=True)
