"""Zonal statistics reduce: partial per-batch aggregates → salted shuffle of
tiny partials → final merge → finalize, replicating the reference's
aggregate semantics (``/root/reference/runner.py:653-685, 848-917``):

* ``count``      = pixels/points assigned to the zone (incl. nodata)
* ``nodata_count`` via ``np.isclose`` (quirk Q2, not ``==``)
* ``sum`` / ``sumsq`` over valid values.  DELIBERATE PRECISION
  IMPROVEMENT over the reference: the reference's main pass sums each
  float32 block in float32 (``runner.py:681-682`` — ``np.sum`` of a
  float32 array has a float32 pairwise accumulator) before adding into a
  Python float; this engine promotes values to float64 BEFORE the
  per-batch sum, so ``sum``/``stdev`` can differ from the reference in the
  last float32 ulps on large / ill-conditioned data.  Oracle equality is
  therefore numeric-tolerance (and exact on the conformance fixtures,
  whose magnitudes don't exercise the gap); the engine's answer is the
  more accurate one.  ``count``/``min``/``max``/``nodata_count`` and all
  join/tile assignments remain row-identical.
* ``min`` / ``max`` over valid values (None when none)
* finalize: ``valid_count = count − nodata_count``; population stdev with
  negative-variance clamp (quirk Q3); exact percentiles via
  ``np.percentile`` over all valid values (linear interpolation, A4)

Scaling shape: the per-batch partial pass emits ONE ROW PER (group, batch)
— the all-to-all shuffle only ever moves these tiny partials, never the
corpus.  With few groups over 10^12 rows the shuffle input is
O(#groups × #blocks), which is why no key salting is needed for the basic
stats; the exact-percentile path shuffles raw (group, value) rows and is
gated behind ``percentiles=[...]`` with the memory cost documented (the
reference holds every pixel in driver RAM instead, ``runner.py:502-508``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.scalars import (
    GROUP_KEY_NULL,
    decode_group_key,
    encode_group_key,
    percentile_keys,
)

STAT_FIELDS = ["min", "max", "count", "nodata_count", "valid_count", "sum", "stdev"]

PARTIAL_SCHEMA = pa.schema(
    [
        ("group_key", pa.string()),
        ("count", pa.int64()),
        ("nodata_count", pa.int64()),
        ("sum", pa.float64()),
        ("sumsq", pa.float64()),
        ("min", pa.float64()),  # NaN = no valid values seen
        ("max", pa.float64()),
    ]
)

# int64-keyed variant for the raster FID path: FIDs are never null, so the
# shuffle key stays a machine integer instead of a per-pixel Python string
PARTIAL_SCHEMA_INT = pa.schema(
    [(n, pa.int64() if n == "group_key" else t) for n, t in zip(
        PARTIAL_SCHEMA.names, PARTIAL_SCHEMA.types
    )]
)


def nodata_mask(values: np.ndarray, nodata: float | None) -> np.ndarray:
    """The reference's tolerance-based nodata rule (quirk Q2,
    ``runner.py:644-651``): ``np.isclose``, and ``nodata is None`` ⇒ nothing
    is nodata."""
    if nodata is None:
        return np.zeros(values.shape, dtype=bool)
    return np.isclose(values, nodata)


def grouped_partials(
    keys: np.ndarray,
    values: np.ndarray,
    nodata: float | None,
    *,
    ignore_nodata: bool = True,
) -> pa.Table:
    """Vectorized within-batch partial aggregate: one output row per distinct
    key.  ``keys`` is an array of encoded group-key strings (see
    ``encode_group_key``); ``values`` float64.  ``ignore_nodata=False``
    keeps nodata values in sum/sumsq/min/max (reference
    ``runner.py:657-660``) while still counting them in nodata_count."""
    return _grouped_partials_masked(
        keys, values, nodata_mask(values, nodata), ignore_nodata=ignore_nodata
    )


def partial_stats_batch(
    batch: pa.Table,
    value_col: str,
    *,
    group_col: str = "group_value",
    fid_col: str = "zone_fid",
    nodata: float | None = None,
) -> pa.Table:
    """map_batches stage over JOINED rows → tiny partials table.

    Unassigned rows (``zone_fid == -1``) are excluded — they are the
    FID-raster-nodata pixels of the reference (``runner.py:636-639``).
    Null ``group_value`` on an *assigned* row is a real group (the
    reference supports None agg-field values, ``runner.py:981-997``).
    """
    if fid_col in batch.column_names:
        batch = batch.filter(pa.compute.not_equal(batch[fid_col], -1))
    if len(batch) == 0:
        return PARTIAL_SCHEMA.empty_table()
    keys = encode_group_key(batch[group_col])
    values = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    return grouped_partials(keys, values, nodata)


def merge_partials_df(g: pd.DataFrame) -> pd.DataFrame:
    """Per-group merge of partials — associative, order-independent for the
    integer fields; float sums accumulate in float64."""
    return pd.DataFrame(
        {
            "group_key": [g["group_key"].iloc[0]],
            "count": [int(g["count"].sum())],
            "nodata_count": [int(g["nodata_count"].sum())],
            "sum": [float(g["sum"].sum())],
            "sumsq": [float(g["sumsq"].sum())],
            "min": [g["min"].min()],  # pandas skips NaN → None-merge semantics
            "max": [g["max"].max()],
        }
    )


def finalize_group_stats(
    merged: pd.DataFrame,
    *,
    all_group_keys: list[str] | None = None,
    percentiles: list[float] = (),
    group_percentiles: dict[str, list[float]] | None = None,
) -> pd.DataFrame:
    """Merged partials → final stats frame with the reference's finalize
    semantics (``runner.py:906-917``) and empty-group defaults
    (``runner.py:831-861``).  Output columns: group_value + STAT_FIELDS +
    percentile keys; rows sorted ``(is None, str)`` (quirk Q8)."""
    plist = sorted(set(float(p) for p in percentiles))
    pkeys = percentile_keys(plist)
    by_key: dict[str, dict] = {}
    for _, r in merged.iterrows():
        by_key[r["group_key"]] = dict(r)
    keys = set(by_key)
    if all_group_keys is not None:
        keys |= set(all_group_keys)

    rows = []
    for key in sorted(keys, key=lambda k: (k == GROUP_KEY_NULL, k)):
        r = by_key.get(key)
        if r is None:
            rec = {
                "min": None,
                "max": None,
                "count": 0,
                "nodata_count": 0,
                "valid_count": 0,
                "sum": 0.0,
                "stdev": None,
                **{pk: None for pk in pkeys},
            }
        else:
            count = int(r["count"])
            ndc = int(r["nodata_count"])
            valid = count - ndc
            if valid > 0:
                mean = r["sum"] / valid
                var = r["sumsq"] / valid - mean * mean
                if var < 0:
                    var = 0.0
                stdev = float(np.sqrt(var))
            else:
                stdev = None
            rec = {
                "min": None if pd.isna(r["min"]) else float(r["min"]),
                "max": None if pd.isna(r["max"]) else float(r["max"]),
                "count": count,
                "nodata_count": ndc,
                "valid_count": valid,
                "sum": float(r["sum"]),
                "stdev": stdev,
                **{pk: None for pk in pkeys},
            }
            if group_percentiles and key in group_percentiles:
                for pk, pv in zip(pkeys, group_percentiles[key]):
                    rec[pk] = pv
        rows.append({"group_value": decode_group_key(key), **rec})
    df = pd.DataFrame(rows, columns=["group_value"] + STAT_FIELDS + pkeys)
    return df


# ---------------------------------------------------------------------------
# distributed drivers
# ---------------------------------------------------------------------------

def partials_from_partials(batch: pa.Table) -> pa.Table:
    """Combine partial rows WITHIN a batch (associative merge — same
    output schema).  Feeding repartitioned partials through this stage
    forms a reduction tree: each level shrinks the frame toward one row
    per (group, block-of-blocks)."""
    key_col = batch["group_key"]
    int_keys = pa.types.is_integer(key_col.type)
    if len(batch) == 0:
        return (PARTIAL_SCHEMA_INT if int_keys else PARTIAL_SCHEMA).empty_table()
    df = batch.to_pandas()
    g = (
        df.groupby("group_key", sort=False)
        .agg(
            count=("count", "sum"),
            nodata_count=("nodata_count", "sum"),
            sum=("sum", "sum"),
            sumsq=("sumsq", "sum"),
            min=("min", "min"),
            max=("max", "max"),
        )
        .reset_index()
    )
    return pa.Table.from_pandas(g, preserve_index=False).cast(
        PARTIAL_SCHEMA_INT if int_keys else PARTIAL_SCHEMA
    )


def reduce_partials(partials_ds, *, tree_threshold: int = 1_000_000) -> pd.DataFrame:
    """Final merge of the partials dataset (O(#groups × #blocks) rows —
    orders of magnitude smaller than the data).

    The partials stream to the driver and merge in one vectorized pandas
    groupby: a distributed ``groupby().map_groups`` here would pay a full
    sort-shuffle's fixed cost (~seconds) to merge kilobytes.  Above
    ``tree_threshold`` rows (millions of blocks × many groups) a
    pre-combine level runs first: repartition to fewer blocks and merge
    within each block (``partials_from_partials``) so the driver frame
    shrinks by ~the fan-in factor before collection."""
    mat = partials_ds.materialize()
    if mat.count() > tree_threshold:
        mat = (
            mat.repartition(32)
            .map_batches(partials_from_partials, batch_format="pyarrow")
            .materialize()
        )
    df = mat.to_pandas()
    if len(df) == 0:
        return df
    return (
        df.groupby("group_key", sort=False)
        .agg(
            count=("count", "sum"),
            nodata_count=("nodata_count", "sum"),
            sum=("sum", "sum"),
            sumsq=("sumsq", "sum"),
            min=("min", "min"),
            max=("max", "max"),
        )
        .reset_index()
    )


def group_percentiles_ds(
    values_ds, plist: list[float], *, driver_threshold: int = 2_000_000
) -> dict[str, list[float]]:
    """Exact grouped percentiles over (group_key, value) rows with
    ``np.percentile`` (linear interpolation — matches ``runner.py:891-904``
    bit-for-bit on float32-downcast values).

    Adaptive execution: below ``driver_threshold`` rows the values stream
    to the driver (a distributed sort-shuffle costs seconds of fixed
    overhead to move kilobytes); above it, the SALTED two-level shuffle
    (``salted_group_percentiles``) fans each group's collect/sort over
    ``salt_buckets`` tasks — round-2 fix: the flagship large-N branch used
    to land each group's whole value bag on ONE worker, the exact skew
    failure the north_rule names.  Results are identical (np.percentile
    over the same multiset).  Memory note (documented tradeoff, SURVEY
    §7.3): a group's merged float32 bag must fit in the level-2 task —
    beyond that, switch to the mergeable sketch (stages/sketch.py); the
    reference instead holds ALL groups' values in one process
    (``runner.py:502-508``), so this is strictly more scalable.
    """
    plist = sorted(set(float(p) for p in plist))
    try:
        n = values_ds.count()
    except Exception:
        n = None
    if n is not None and n <= driver_threshold:
        df = values_ds.to_pandas()
        out: dict[str, list[float]] = {}
        for key, g in df.groupby("group_key", sort=False):
            vals = g["value"].to_numpy(dtype=np.float32)
            out[key] = list(np.percentile(vals, plist)) if vals.size else [None] * len(plist)
        return out

    return salted_group_percentiles(values_ds, plist)


ROWS_SCHEMA = pa.schema(
    [
        ("group_key", pa.string()),
        ("value", pa.float64()),
        ("nodata", pa.bool_()),
    ]
)

# int64-keyed slim rows for the raster FID path
ROWS_SCHEMA_INT = pa.schema(
    [
        ("group_key", pa.int64()),
        ("value", pa.float64()),
        ("nodata", pa.bool_()),
    ]
)

# int64-keyed (group_key, value) percentile value rows for the raster path
VALUES_SCHEMA_INT = pa.schema([("group_key", pa.int64()), ("value", pa.float32())])


def rows_batch(
    batch: pa.Table,
    value_col: str,
    *,
    group_col: str = "group_value",
    fid_col: str = "zone_fid",
    nodata: float | None = None,
) -> pa.Table:
    """Joined rows → slim (group_key, value, nodata) rows: the single-pass
    projection that feeds BOTH the partial aggregate and the percentile
    shuffle (join runs once; wide page columns dropped here)."""
    if fid_col in batch.column_names:
        batch = batch.filter(pa.compute.not_equal(batch[fid_col], -1))
    if len(batch) == 0:
        return ROWS_SCHEMA.empty_table()
    keys = encode_group_key(batch[group_col])
    values = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    return pa.table(
        {
            "group_key": pa.array(keys.tolist(), pa.string()),
            "value": pa.array(values, pa.float64()),
            "nodata": pa.array(nodata_mask(values, nodata)),
        },
        schema=ROWS_SCHEMA,
    )


def partials_from_rows(batch: pa.Table, *, ignore_nodata: bool = True) -> pa.Table:
    """Slim rows → partials (same output as partial_stats_batch).
    Key-dtype-aware: int64 FID keys read zero-copy; string group keys go
    through object arrays (nullable-safe)."""
    key_col = batch["group_key"]
    int_keys = pa.types.is_integer(key_col.type)
    if len(batch) == 0:
        return (PARTIAL_SCHEMA_INT if int_keys else PARTIAL_SCHEMA).empty_table()
    if int_keys:
        keys = key_col.to_numpy(zero_copy_only=False)
    else:
        keys = np.asarray(key_col.to_pylist(), dtype=object)
    values = batch["value"].to_numpy(zero_copy_only=False)
    nd = batch["nodata"].to_numpy(zero_copy_only=False)
    return _grouped_partials_masked(keys, values, nd, ignore_nodata=ignore_nodata)


def values_from_rows(batch: pa.Table, *, ignore_nodata: bool = True) -> pa.Table:
    """Slim rows → (group_key, value float32) value rows — valid values
    only when ``ignore_nodata`` (default), all values otherwise (the
    reference's value bags keep nodata then, runner.py:664-667)."""
    b = batch.filter(pa.compute.invert(batch["nodata"])) if ignore_nodata else batch
    return pa.table(
        {
            "group_key": b["group_key"],
            "value": pa.compute.cast(b["value"], pa.float32()),
        }
    )


def _grouped_partials_masked(
    keys: np.ndarray,
    values: np.ndarray,
    nd: np.ndarray,
    *,
    ignore_nodata: bool = True,
) -> pa.Table:
    """Key-dtype-aware: string keys (nullable group values, encoded) emit a
    string key column; int64 keys (raster FID path) stay int64 end-to-end —
    no per-pixel Python-object strings in the shuffle (round-2 fix)."""
    uniq, codes = np.unique(keys, return_inverse=True)
    k = len(uniq)
    count = np.bincount(codes, minlength=k).astype(np.int64)
    nodata_count = np.bincount(codes, weights=nd, minlength=k).astype(np.int64)
    if ignore_nodata:
        valid = ~nd
        vcodes = codes[valid]
        vvals = values[valid].astype(np.float64)
    else:
        # reference runner.py:657-660: nodata stays in the aggregates
        vcodes = codes
        vvals = values.astype(np.float64)
    s = np.bincount(vcodes, weights=vvals, minlength=k)
    ssq = np.bincount(vcodes, weights=vvals * vvals, minlength=k)
    mn = np.full(k, np.inf)
    mx = np.full(k, -np.inf)
    np.minimum.at(mn, vcodes, vvals)
    np.maximum.at(mx, vcodes, vvals)
    mn[np.isinf(mn)] = np.nan
    mx[np.isinf(mx)] = np.nan
    if uniq.dtype.kind in "iu":
        key_arr = pa.array(uniq.astype(np.int64))
        schema = PARTIAL_SCHEMA_INT
    else:
        key_arr = pa.array(uniq.tolist(), pa.string())
        schema = PARTIAL_SCHEMA
    return pa.table(
        {
            "group_key": key_arr,
            "count": pa.array(count),
            "nodata_count": pa.array(nodata_count),
            "sum": pa.array(s),
            "sumsq": pa.array(ssq),
            "min": pa.array(mn),
            "max": pa.array(mx),
        },
        schema=schema,
    )


def stats_from_rows_df(
    df: pd.DataFrame, plist: list[float]
) -> tuple[pd.DataFrame, dict[str, list[float]]]:
    """Driver-side merge for a small slim-rows frame: returns (merged
    partials frame, per-group percentiles) in one vectorized pass —
    identical results to the distributed partials+values path."""
    plist = sorted(set(float(p) for p in plist))
    if len(df) == 0:
        return (
            pd.DataFrame(
                columns=["group_key", "count", "nodata_count", "sum", "sumsq", "min", "max"]
            ),
            {},
        )
    v = df["value"].to_numpy()
    nd = df["nodata"].to_numpy()
    vv = np.where(nd, np.nan, v)
    work = pd.DataFrame(
        {
            "group_key": df["group_key"],
            "nodata": nd.astype(np.int64),
            "v": vv,
            "v2": vv * vv,
        }
    )
    merged = (
        work.groupby("group_key", sort=False)
        .agg(
            count=("nodata", "size"),
            nodata_count=("nodata", "sum"),
            sum=("v", "sum"),  # pandas sum skips NaN (nodata values)
            sumsq=("v2", "sum"),
            min=("v", "min"),
            max=("v", "max"),
        )
        .reset_index()
    )
    gp: dict[str, list[float]] = {}
    if plist:
        valid = df[~nd]
        for key, grp in valid.groupby("group_key", sort=False):
            vals = grp["value"].to_numpy(dtype=np.float32)
            gp[key] = list(np.percentile(vals, plist)) if vals.size else [None] * len(plist)
    return merged, gp


def salted_group_percentiles(
    values_ds, plist: list[float], *, salt_buckets: int = 16
) -> dict[str, list[float]]:
    """Exact grouped percentiles with SALTED two-level shuffle — the skew
    path for few-group workloads (SURVEY §4.2): with a handful of groups
    over 10^12 rows, a plain ``groupby(group)`` lands each group's entire
    value bag on one task.  Salting first shuffles ``(group, salt)`` so the
    heavy collect/sort work fans out over ``salt_buckets`` tasks per group;
    the second level merges the (pre-sorted, already-reduced) per-salt
    chunks and takes the exact percentile.  Results are identical to the
    unsalted path (np.percentile over the same multiset)."""
    plist = sorted(set(float(p) for p in plist))

    def add_salt(b: pa.Table) -> pa.Table:
        n = len(b)
        return b.append_column(
            "salt", pa.array((np.arange(n) % salt_buckets).astype(np.int32))
        )

    def collect_sorted(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["value"].to_numpy(dtype=np.float32))
        return pd.DataFrame(
            {
                "group_key": [g["group_key"].iloc[0]],
                "vals": [v.tobytes()],
                "n": [v.size],
            }
        )

    def merge_pct(g: pd.DataFrame) -> pd.DataFrame:
        chunks = [np.frombuffer(b, dtype=np.float32) for b in g["vals"]]
        vals = np.concatenate(chunks) if chunks else np.empty(0, np.float32)
        res = np.percentile(vals, plist) if vals.size else [None] * len(plist)
        return pd.DataFrame({"group_key": [g["group_key"].iloc[0]], "pcts": [list(res)]})

    salted = values_ds.map_batches(add_salt, batch_format="pyarrow")
    level1 = salted.groupby(["group_key", "salt"]).map_groups(
        collect_sorted, batch_format="pandas"
    )
    level2 = level1.groupby("group_key").map_groups(merge_pct, batch_format="pandas")
    return {r["group_key"]: r["pcts"] for r in level2.to_pandas().to_dict("records")}
