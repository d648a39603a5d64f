"""Zonal statistics reduce: per-block partial aggregates → final merge →
finalize, replicating the reference's aggregate semantics
(``runner.py:653-685, 848-917``):

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

Scaling shape: the per-block partial pass emits ONE ROW PER (group,
block), so only O(#groups × #blocks) tiny partials are ever merged, never
the corpus.  Materialized slim rows within ``guard.DRIVER_ROWS`` reduce in
ONE Ray task over their block refs (``one_task``: ``rows_partials``,
``stats_from_rows_df``); above it the partials merge through
``guard.tree_combine``.  Exact percentiles need the raw values: one task
within the budget, the salted two-level shuffle
(``salted_group_percentiles``) above it — the only place keys are salted
(the reference holds every pixel in driver RAM instead,
``runner.py:502-508``).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.scalars import (
    GROUP_KEY_NULL,
    decode_group_key,
    encode_group_key,
    percentile_keys,
)
from . import guard
from .guard import tree_combine

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


def empty_stats(pkeys) -> dict:
    """The stats of a group with no pixels or points (``runner.py:831-861``)."""
    return {
        "min": None,
        "max": None,
        "count": 0,
        "nodata_count": 0,
        "valid_count": 0,
        "sum": 0.0,
        "stdev": None,
        **{pk: None for pk in pkeys},
    }


def pop_stdev(s: float, sumsq: float, valid: int) -> float | None:
    """Population stdev from merged sums, with the reference's
    negative-variance clamp (quirk Q3); None without valid values."""
    if valid <= 0:
        return None
    mean = s / valid
    var = sumsq / valid - mean * mean
    if var < 0:
        var = 0.0
    return float(np.sqrt(var))


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
        rec = empty_stats(pkeys)
        r = by_key.get(key)
        if r is not None:
            count = int(r["count"])
            ndc = int(r["nodata_count"])
            rec.update(
                {
                    "min": None if pd.isna(r["min"]) else float(r["min"]),
                    "max": None if pd.isna(r["max"]) else float(r["max"]),
                    "count": count,
                    "nodata_count": ndc,
                    "valid_count": count - ndc,
                    "sum": float(r["sum"]),
                    "stdev": pop_stdev(r["sum"], r["sumsq"], count - ndc),
                }
            )
            if group_percentiles and key in group_percentiles:
                rec.update(zip(pkeys, group_percentiles[key]))
        rows.append({"group_value": decode_group_key(key), **rec})
    df = pd.DataFrame(rows, columns=["group_value"] + STAT_FIELDS + pkeys)
    return df


# ---------------------------------------------------------------------------
# distributed drivers
# ---------------------------------------------------------------------------

def _merge_partials(df: pd.DataFrame) -> pd.DataFrame:
    """The one partials merge: partial rows → one row per ``group_key``
    (counts and sums add, min/max skip NaN), first-seen key order."""
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


def partials_from_partials(batch: pa.Table) -> pa.Table:
    """Combine partial rows WITHIN a batch (associative merge — same
    output schema).  Feeding repartitioned partials through this stage
    forms a reduction tree: each level shrinks the frame toward one row
    per (group, block-of-blocks)."""
    int_keys = pa.types.is_integer(batch["group_key"].type)
    schema = PARTIAL_SCHEMA_INT if int_keys else PARTIAL_SCHEMA
    if len(batch) == 0:
        return schema.empty_table()
    merged = _merge_partials(batch.to_pandas())
    return pa.Table.from_pandas(merged, preserve_index=False).cast(schema)


def reduce_partials(partials_ds) -> pd.DataFrame:
    """Final merge of the partials dataset (O(#groups × #blocks) rows —
    orders of magnitude smaller than the data).

    The partials stream to the driver and merge in one vectorized pandas
    groupby: a distributed ``groupby().map_groups`` here would pay a full
    sort-shuffle's fixed cost (~seconds) to merge kilobytes.  Above the
    driver budget (millions of blocks × many groups) ``guard.tree_combine``
    first merges fanned-in blocks with ``partials_from_partials``, so the
    driver frame shrinks by ~the fan-in factor per level."""
    df, _ = tree_combine(partials_ds, partials_from_partials)
    return _merge_partials(df) if len(df) else df


def _bag_percentiles(plist: list[float], *tables: pa.Table) -> dict:
    """(group_key, value) tables → {group: np.percentile of its float32 bag}."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return {}
    df = pa.concat_tables(tables, promote_options="permissive").to_pandas()
    return {
        key: list(np.percentile(g["value"].to_numpy(dtype=np.float32), plist))
        for key, g in df.groupby("group_key", sort=False)
    }


@functools.cache
def _remote(fn):
    """``fn`` as a Ray remote function, created (and exported) once."""
    import ray

    return ray.remote(fn)


def _over_blocks(fn, refs, *args, **kwargs):
    """Task body of ``one_task``: fetch the blocks, then call ``fn``."""
    import ray

    return fn(*args, *ray.get(refs), **kwargs)


def one_task(fn, refs, *args, **kwargs):
    """``fn(*args, *tables, **kwargs)`` in ONE Ray task over the Arrow
    blocks behind ``refs`` (``Dataset.to_arrow_refs()`` or ``ray.put``
    tables): the blocks reach the task by reference and only its small
    result returns to the driver — one task instead of a Dataset execution
    per step, and no row collected on the driver.  The refs travel in one
    list, not as top-level task arguments that Ray would inline."""
    import ray

    return ray.get(_remote(_over_blocks).remote(fn, list(refs), *args, **kwargs))


def group_percentiles_ds(values_ds, plist: list[float]) -> dict[str, list[float]]:
    """Exact grouped percentiles over (group_key, value) rows with
    ``np.percentile`` (linear interpolation — matches ``runner.py:891-904``
    bit-for-bit on float32-downcast values).

    The values materialize once, and their row count (block metadata)
    picks the regime: up to ``guard.DRIVER_ROWS`` rows (read at call time)
    ``_bag_percentiles`` runs in ONE Ray task over the block refs
    (``one_task``), so no value row reaches the driver; above it, the
    SALTED two-level shuffle (``salted_group_percentiles``) fans each
    group's collect/sort over ``SALT_BUCKETS`` tasks, so no group's whole
    bag lands on one worker before the final merge.  Results are identical
    (np.percentile over the same multiset).  A failing values pipeline
    raises here, before either regime runs.  Memory note (documented
    tradeoff, SURVEY §7.3): a group's merged float32 bag must fit in the
    level-2 task — beyond that, switch to the mergeable sketch
    (stages/sketch.py); the reference instead holds ALL groups' values in
    one process (``runner.py:502-508``), so this is strictly more scalable.
    """
    plist = sorted(set(float(p) for p in plist))
    values = values_ds.materialize()
    if values.count() <= guard.DRIVER_ROWS:
        return one_task(_bag_percentiles, values.to_arrow_refs(), plist)
    return salted_group_percentiles(values, plist)


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
    """Slim rows → partials (same output as partial_stats_batch); int64
    FID keys stay int64, string group keys stay strings."""
    if len(batch) == 0:
        int_keys = pa.types.is_integer(batch["group_key"].type)
        return (PARTIAL_SCHEMA_INT if int_keys else PARTIAL_SCHEMA).empty_table()
    values = batch["value"].to_numpy(zero_copy_only=False)
    nd = batch["nodata"].to_numpy(zero_copy_only=False)
    return _grouped_partials_masked(
        batch["group_key"], values, nd, ignore_nodata=ignore_nodata
    )


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
    keys,
    values: np.ndarray,
    nd: np.ndarray,
    *,
    ignore_nodata: bool = True,
) -> pa.Table:
    """The one values → partials kernel: one (count, nodata_count, sum,
    sumsq, min, max) row per distinct key, in first-seen key order.

    ``keys`` is a numpy array or an Arrow column; Arrow's
    ``dictionary_encode`` numbers the keys, so string keys never become
    per-row Python objects.  Integer keys (the raster FID path) emit an
    int64 key column, anything else a string one.  ``nd`` marks nodata:
    it always counts in ``nodata_count``, and ``ignore_nodata=False``
    keeps those values in sum/sumsq/min/max (reference
    ``runner.py:657-660``).  Sums accumulate in float64."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    enc = pc.dictionary_encode(pa.array(keys) if isinstance(keys, np.ndarray) else keys)
    uniq = enc.dictionary
    codes = enc.indices.to_numpy(zero_copy_only=False)
    k = len(uniq)
    count = np.bincount(codes, minlength=k).astype(np.int64)
    nodata_count = np.bincount(codes, weights=nd, minlength=k).astype(np.int64)
    if ignore_nodata:
        valid = ~nd
        vcodes = codes[valid]
        vvals = values[valid].astype(np.float64)
    else:
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
    int_keys = pa.types.is_integer(uniq.type)
    return pa.table(
        {
            "group_key": uniq,
            "count": count,
            "nodata_count": nodata_count,
            "sum": s,
            "sumsq": ssq,
            "min": mn,
            "max": mx,
        },
        schema=PARTIAL_SCHEMA_INT if int_keys else PARTIAL_SCHEMA,
    )


def rows_partials(*tables: pa.Table, ignore_nodata: bool = True) -> pd.DataFrame:
    """Slim row blocks → merged partials frame: ``partials_from_rows`` per
    block, then one ``_merge_partials`` — exactly the partials the tree
    combine's driver regime merges (one partials row set per block), so
    both regimes add the float sums in the same order.  Empty blocks are
    skipped: Ray Data may emit them without columns."""
    parts = [partials_from_rows(t, ignore_nodata=ignore_nodata) for t in tables if t.num_rows]
    df = pa.concat_tables(parts or [PARTIAL_SCHEMA.empty_table()]).to_pandas()
    return _merge_partials(df) if len(df) else df


def stats_from_rows_df(
    plist: list[float], *tables: pa.Table
) -> tuple[pd.DataFrame, dict[str, list[float]]]:
    """One-task body of the points path: slim (group_key, value, nodata)
    row blocks → (merged partials frame, per-group percentiles), from the
    kernels the distributed regime maps over the blocks —
    ``rows_partials`` and ``_bag_percentiles`` over ``values_from_rows``."""
    plist = sorted(set(float(p) for p in plist))
    tables = [t for t in tables if t.num_rows]
    gp = _bag_percentiles(plist, *map(values_from_rows, tables))
    return rows_partials(*tables), gp


# tasks each group's collect/sort fans out over in the salted shuffle
SALT_BUCKETS = 16


def salted_group_percentiles(values_ds, plist: list[float]) -> dict[str, list[float]]:
    """Exact grouped percentiles with SALTED two-level shuffle — the skew
    path for few-group workloads (SURVEY §4.2): with a handful of groups
    over 10^12 rows, a plain ``groupby(group)`` lands each group's entire
    value bag on one task.  Salting first shuffles ``(group, salt)`` so the
    heavy collect/sort work fans out over ``SALT_BUCKETS`` tasks per group;
    the second level merges the (pre-sorted, already-reduced) per-salt
    chunks and takes the exact percentile.  Results are identical to the
    unsalted path (np.percentile over the same multiset)."""
    plist = sorted(set(float(p) for p in plist))

    def add_salt(b: pa.Table) -> pa.Table:
        n = len(b)
        return b.append_column(
            "salt", pa.array((np.arange(n) % SALT_BUCKETS).astype(np.int32))
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
