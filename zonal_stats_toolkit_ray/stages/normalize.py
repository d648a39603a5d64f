"""Per-group feature normalization (round 4): z-score and min-max scaling
of a numeric column within groups — the standard feature-prep stage before
model training (normalize engagement value per event type, score per
language, ...).

Scale shape (the partial-aggregate-then-broadcast pattern shared with the
zonal reduce): one in-batch combiner emits (group, n, sum, sumsq, min,
max) — the all-to-all moves one row per (group, block) — a group-sized
``groupby().aggregate`` reduces them, the tiny per-group moment table
broadcasts via ``ray.put``, and the full rows stream through a vectorized
lookup+transform.  Two passes over the input by design (moments, then
transform); nothing corpus-sized ever reaches the driver.

Variance uses the sum-of-squares identity var = E[x²] − E[x]² (clamped at
0 like the reference's stdev quirk Q3, runner.py:233) so the SQL oracle
can reproduce the arithmetic exactly — same sums, same algebra, same
clamp."""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard


def _dict_encode(g):
    """(codes int64, dictionary Array) of a possibly-chunked group column."""
    if isinstance(g, pa.ChunkedArray):
        g = g.combine_chunks()
    enc = g.dictionary_encode(null_encoding="encode")  # NULL is a group
    return np.asarray(enc.indices, dtype=np.int64), enc.dictionary


def _moments_partial(batch: pa.Table, *, group_col: str, value_col: str) -> pa.Table:
    codes, uniq = _dict_encode(batch[group_col])
    v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    ok = ~np.isnan(v)
    k = len(uniq)
    n = np.bincount(codes[ok], minlength=k).astype(np.int64)
    s = np.bincount(codes[ok], weights=v[ok], minlength=k)
    ss = np.bincount(codes[ok], weights=v[ok] * v[ok], minlength=k)
    mn = np.full(k, np.inf)
    mx = np.full(k, -np.inf)
    np.minimum.at(mn, codes[ok], v[ok])
    np.maximum.at(mx, codes[ok], v[ok])
    return pa.table(
        {
            group_col: uniq,
            "n": pa.array(n),
            "s": pa.array(s),
            "ss": pa.array(ss),
            "mn": pa.array(mn),
            "mx": pa.array(mx),
        }
    )


_MOMENT_AGGS = [("n", "sum"), ("s", "sum"), ("ss", "sum"), ("mn", "min"), ("mx", "max")]


def _moments_merge(t: pa.Table, *, group_col: str) -> pa.Table:
    """Merge moment partials of equal groups (the tree-combine kernel)."""
    if group_col not in t.column_names:  # schemaless empty block
        return t
    g = t.group_by(group_col, use_threads=False).aggregate(_MOMENT_AGGS)
    return pa.table(
        {group_col: g[group_col], **{c: g[f"{c}_{f}"] for c, f in _MOMENT_AGGS}}
    )


def group_moments(ds, *, group_col: str, value_col: str) -> pa.Table:
    """(group, n, sum, sumsq, min, max) — group-sized, driver-held: the
    per-batch partials merge with ``guard.tree_combine``; a NULL group is
    its own row."""
    merge = functools.partial(_moments_merge, group_col=group_col)
    frame, _ = guard.tree_combine(
        ds.select_columns([group_col, value_col]).map_batches(
            _moments_partial,
            batch_format="pyarrow",
            fn_kwargs=dict(group_col=group_col, value_col=value_col),
        ),
        merge,
    )
    if group_col not in frame.columns:  # no rows
        frame = pd.DataFrame(columns=[group_col] + [c for c, _ in _MOMENT_AGGS])
    return merge(pa.Table.from_pandas(frame, preserve_index=False))


def normalize_by_group(
    ds,
    *,
    group_col: str,
    value_col: str,
    ndigits: int | None = 6,
):
    """→ the input Dataset with ``zscore`` and ``minmax`` columns appended.

    * ``zscore`` = (v − mean_g) / std_g, std from the clamped
      sum-of-squares identity; 0 where the group is constant (std = 0).
    * ``minmax`` = (v − min_g) / (max_g − min_g); 0 where max = min.
    * NaN values pass through as NaN and never contribute to moments.

    ``ndigits`` rounds the outputs (oracle comparability); ``None`` keeps
    full precision."""
    import ray

    mom = group_moments(ds, group_col=group_col, value_col=value_col)

    def col(name: str) -> np.ndarray:
        return mom[name].to_numpy().astype(np.float64)

    n = col("n")
    mean = col("s") / np.maximum(n, 1)
    var = np.maximum(col("ss") / np.maximum(n, 1) - mean * mean, 0.0)
    std = np.sqrt(var)
    mn = col("mn")
    rng = col("mx") - mn
    ref = ray.put((mom[group_col].combine_chunks(), mean, std, mn, rng))

    def transform(batch: pa.Table, _r=ref) -> pa.Table:
        ks, mean_, std_, mn_, rng_ = ray.get(_r)
        codes, uniq = _dict_encode(batch[group_col])
        # map the (small) per-batch dictionary to moment-table slots (a
        # NULL key matches the NULL group), then gather per row
        slot = pc.index_in(uniq, value_set=ks.cast(uniq.type), skip_nulls=False)
        gi = slot.to_numpy(zero_copy_only=False).astype(np.int64)[codes]
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(std_[gi] > 0, (v - mean_[gi]) / std_[gi], 0.0)
            mmx = np.where(rng_[gi] > 0, (v - mn_[gi]) / rng_[gi], 0.0)
        nan = np.isnan(v)
        z[nan] = np.nan
        mmx[nan] = np.nan
        if ndigits is not None:
            z = np.round(z, ndigits)
            mmx = np.round(mmx, ndigits)
        return batch.append_column("zscore", pa.array(z, pa.float64())).append_column(
            "minmax", pa.array(mmx, pa.float64())
        )

    return ds.map_batches(transform, batch_format="pyarrow")


def quantile_transform(
    ds,
    *,
    id_col: str = "event_id",
    value_col: str = "value",
):
    """ECDF (rank) transform → Dataset(id, ecdf): each value maps to
    ``count(v' ≤ v) / n`` — SQL ``CUME_DIST()`` — the uniformizing
    feature transform (quantile normalization's per-column half).

    Shape: the value count universe (``guard.universe``; exact for
    bounded distinct universes — fixed-decimal data), driver cumsum,
    broadcast (values, cum) arrays, then a vectorized searchsorted per
    batch.  The corpus streams; only the value universe ever leaves the
    workers, and the universe cap guards it."""
    import ray

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"v": pc.cast(b[value_col], pa.float64())})

    uni = guard.universe(
        ds.select_columns([value_col]).map_batches(project, batch_format="pyarrow"),
        ["v"],
        what="quantile_transform",
    )
    vals = uni["v"].to_numpy(dtype=np.float64)
    cum = np.cumsum(uni["n"].to_numpy(dtype=np.int64))
    n = float(cum[-1]) if cum.size else 1.0
    ref = ray.put((vals, cum.astype(np.float64)))

    def transform(b: pa.Table, *, _ref=ref) -> pa.Table:
        v = pc.cast(b[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        vv, cc = ray.get(_ref)
        idx = np.searchsorted(vv, v, side="right") - 1
        ecdf = cc[idx] / n
        return pa.table(
            {
                id_col: b[id_col],
                "ecdf": pa.array(ecdf, pa.float64()),
            }
        )

    return ds.map_batches(transform, batch_format="pyarrow")


def impute_group_median(
    ds,
    *,
    id_col: str,
    key_col: str,
    value_col: str,
):
    """Missing-value imputation by group median → Dataset(id, key,
    v_filled): NULLs in ``value_col`` fill with their group's exact
    median of the NON-null values (``quantile_cont`` 0.5 interpolation)
    — the standard tabular-ML imputation pass.

    Shape: the (key, value) count universe over non-null rows
    (``guard.universe``), driver interpolation (``guard.quantile_cont``),
    broadcast medians, one vectorized fill pass.  A NULL key is a group of
    its own (SQL ``PARTITION BY``); groups that are entirely NULL stay
    NULL."""
    import ray

    def project(b: pa.Table) -> pa.Table:
        v = pc.cast(b[value_col], pa.float64())
        return pa.table({key_col: b[key_col], "v": v}).filter(pc.is_valid(v))

    uni = guard.universe(
        ds.select_columns([key_col, value_col]).map_batches(
            project, batch_format="pyarrow"
        ),
        [key_col, "v"],
        what="impute_group_median",
    )
    meds = {
        k: guard.quantile_cont(
            g["v"].to_numpy(dtype=np.float64),
            np.cumsum(g["n"].to_numpy(dtype=np.int64)),
            0.5,
        )
        for k, g in uni.groupby(key_col, sort=False, dropna=False)
    }
    keys = pa.array([None if pd.isna(k) else k for k in meds])
    vals = np.array(list(meds.values()), dtype=np.float64)
    ref = ray.put((keys, vals))

    def fill(b: pa.Table, *, _ref=ref) -> pa.Table:
        ks, ms = ray.get(_ref)
        v = pc.cast(b[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        valid = pc.is_valid(b[value_col]).to_numpy(zero_copy_only=False)
        idx = pc.index_in(
            b[key_col], value_set=ks.cast(b[key_col].type), skip_nulls=False
        ).to_numpy(zero_copy_only=False)
        known = idx >= 0 if idx.dtype.kind == "i" else ~np.isnan(idx)
        filled = np.where(
            valid, v, np.where(known, ms[np.where(known, idx, 0).astype(np.int64)], np.nan)
        )
        return pa.table(
            {
                id_col: b[id_col],
                key_col: b[key_col],
                "v_filled": pa.array(filled, pa.float64()),
            }
        )

    return ds.map_batches(fill, batch_format="pyarrow")
