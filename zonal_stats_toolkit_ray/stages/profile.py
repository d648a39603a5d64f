"""Table profiling — the data-quality audit pass every ingestion pipeline
runs before heavy processing: per column, row/null counts, exact distinct
cardinality, and numeric min/max/mean, without ever collecting values.

Shape: ONE ``map_batches`` pass emits a fixed (columns × 6)-cell partial
row per block (the moment-partial pattern of ``pca.pca_train``); the
driver folds partials.  Exact distinct counts are one slim
``joins.distinct_rows`` aggregate per column over a PRUNED single-column
read — the only shuffles, each moving a block-distinct universe, never
rows.  (For approximate-is-fine profiling at extreme cardinality, swap in
``sketch.approx_distinct``'s HLL — same call shape, documented.)

NULL semantics match SQL: ``n_distinct`` counts distinct NON-null values
(``COUNT(DISTINCT c)``), min/max/mean ignore nulls.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard


def _is_numeric(t) -> bool:
    if isinstance(t, pa.DataType):
        return (
            pa.types.is_integer(t)
            or pa.types.is_floating(t)
            or pa.types.is_decimal(t)
        )
    return np.issubdtype(np.dtype(t), np.number)  # pandas-block schema


def profile_table(ds, cols: list[str], *, round_dp: int = 6) -> pd.DataFrame:
    """→ DataFrame(column, n, n_null, n_distinct, min_value, max_value,
    mean_value) — min/max/mean are float64 for numeric columns and NULL
    (NaN) for non-numeric ones."""
    sch = ds.schema()
    types = dict(zip(sch.names, sch.types))
    for c in cols:
        if c not in types:
            raise KeyError(f"unknown column {c!r}")
    numeric = {c for c in cols if _is_numeric(types[c])}

    def partial(b: pa.Table) -> pa.Table:
        names, ns, nulls, mins, maxs, sums = [], [], [], [], [], []
        for c in cols:
            col = b[c]
            names.append(c)
            ns.append(len(col))
            nulls.append(int(col.null_count))
            if c in numeric and len(col) - col.null_count > 0:
                mins.append(float(pc.min(col).as_py()))
                maxs.append(float(pc.max(col).as_py()))
                sums.append(float(pc.sum(col).as_py()))
            else:
                mins.append(np.nan)
                maxs.append(np.nan)
                sums.append(np.nan)
        return pa.table(
            {
                "column": pa.array(names, pa.string()),
                "n": pa.array(ns, pa.int64()),
                "n_null": pa.array(nulls, pa.int64()),
                "mn": pa.array(mins, pa.float64()),
                "mx": pa.array(maxs, pa.float64()),
                "sm": pa.array(sums, pa.float64()),
            }
        )

    parts = (
        ds.select_columns(cols)
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    g = parts.groupby("column", sort=False).agg(
        n=("n", "sum"),
        n_null=("n_null", "sum"),
        mn=("mn", "min"),
        mx=("mx", "max"),
        sm=("sm", "sum"),
    )

    from .joins import distinct_rows

    rows = []
    for c in cols:
        col_ds = ds.select_columns([c]).map_batches(
            lambda t, _c=c: t.filter(pc.is_valid(t[_c])), batch_format="pyarrow"
        )
        nd = distinct_rows(col_ds, [c]).count()
        r = g.loc[c]
        n_valid = int(r["n"]) - int(r["n_null"])
        if c in numeric and n_valid > 0:
            mean = round(float(r["sm"]) / n_valid, round_dp) + 0.0
            mn = round(float(r["mn"]), round_dp) + 0.0
            mx = round(float(r["mx"]), round_dp) + 0.0
        else:
            mean = mn = mx = np.nan
        rows.append((c, int(r["n"]), int(r["n_null"]), int(nd), mn, mx, mean))
    return pd.DataFrame(
        rows,
        columns=[
            "column", "n", "n_null", "n_distinct",
            "min_value", "max_value", "mean_value",
        ],
    )


def group_entropy(
    ds,
    *,
    key_col: str = "user_id",
    cat_col: str = "event_type",
) -> pd.DataFrame:
    """Shannon entropy (bits) of each key's categorical distribution →
    DataFrame(key, n, entropy) — the behavioral-diversity feature
    (``−Σ p·log2 p`` over the key's category frequencies).

    Shape: the (key, category) count universe (``guard.universe``,
    bounded by the category vocabulary) → driver finalize on the
    universe-sized frame.  The same algebra as the SQL oracle
    term-for-term; a NULL key is its own group, sorted last."""
    uni = guard.universe(
        ds.select_columns([key_col, cat_col]), [key_col, cat_col], what="group_entropy"
    )
    rows = []
    for k, g in uni.groupby(key_col, sort=False, dropna=False):
        n = g["n"].to_numpy(dtype=np.float64)
        tot = n.sum()
        p = n / tot
        rows.append((k, int(tot), float(np.sum(-p * np.log2(p)))))
    return pd.DataFrame(rows, columns=[key_col, "n", "entropy"])


def embedding_profile(ds, *, vec_col: str = "embedding") -> pd.DataFrame:
    """Per-dimension distribution profile of an embedding column →
    DataFrame(dim 1-based, n, mean, std, min, max) — the sanity pass
    before training on a vector corpus (collapsed dims, scale drift).

    One streaming pass of FIXED (d × 5)-double partials per block
    (n/Σ/Σ²/min/max per dimension — the zonal moment shape of
    runner.py:653-685 applied dimension-wise), one driver merge of
    blocks × d rows.  Population σ with the reference's negative-variance
    clamp (runner.py:909-916)."""
    import pyarrow as pa

    from .pca import _batch_matrix

    def partial(b: pa.Table) -> pa.Table:
        x = _batch_matrix(b[vec_col])
        if x.size == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.float64()),
                    "ss": pa.array([], pa.float64()),
                    "mn": pa.array([], pa.float64()),
                    "mx": pa.array([], pa.float64()),
                }
            )
        d = x.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(1, d + 1, dtype=np.int64)),
                "n": pa.array(np.full(d, x.shape[0], dtype=np.int64)),
                "s": pa.array(x.sum(axis=0)),
                "ss": pa.array((x * x).sum(axis=0)),
                "mn": pa.array(x.min(axis=0)),
                "mx": pa.array(x.max(axis=0)),
            }
        )

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()  # blocks × d
    g = p.groupby("dim", sort=True).agg(
        n=("n", "sum"), s=("s", "sum"), ss=("ss", "sum"),
        mn=("mn", "min"), mx=("mx", "max"),
    )
    n = g["n"].to_numpy(dtype=np.float64)
    mean = g["s"].to_numpy() / n
    var = np.maximum(g["ss"].to_numpy() / n - mean * mean, 0.0)
    return pd.DataFrame(
        {
            "dim": g.index.to_numpy().astype(np.int64),
            "n": g["n"].to_numpy().astype(np.int64),
            "mean": mean,
            "std": np.sqrt(var),
            "min": g["mn"].to_numpy(),
            "max": g["mx"].to_numpy(),
        }
    ).reset_index(drop=True)


def benford_digits(
    ds, *, value_col: str = "value", scale: int = 100
) -> pd.DataFrame:
    """Benford first-significant-digit audit → DataFrame(digit 1-9, n,
    expected_n 6dp) — the classic fabricated-data / unit-drift smell test
    on positive numeric columns.

    ``scale`` integral-izes fixed-decimal data (cents for 2-dp money):
    the leading significant digit is invariant under ×10^k, and taking it
    from the DECIMAL STRING of ``round(v·scale)`` sidesteps the float
    ``v / 10^floor(log10 v)`` boundary hazard (0.6/0.1 = 5.999… flips
    digits differently across libm implementations — observed numpy vs
    DuckDB).  One pass of fixed 9-counter partials per block, driver sum;
    expected = total · log10(1 + 1/d)."""
    import pyarrow as pa

    def partial(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[np.isfinite(v) & (v > 0)]
        if v.size == 0:
            counts = np.zeros(9, dtype=np.int64)
        else:
            ints = np.rint(v * scale).astype(np.int64)
            ints = ints[ints > 0]
            d = ints.astype("U20").astype("U1").astype(np.int64)
            counts = np.bincount(d, minlength=10)[1:10].astype(np.int64)
        return pa.table(
            {
                "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
                "n": pa.array(counts),
            }
        )

    g = guard.group_sums(
        ds.map_batches(partial, batch_format="pyarrow"), ["digit"], ["n"]
    )
    total = float(g["n"].sum())
    exp = total * np.log10(1.0 + 1.0 / g["digit"].to_numpy(dtype=np.float64))
    return pd.DataFrame(
        {
            "digit": g["digit"].to_numpy().astype(np.int64),
            "n": g["n"].to_numpy().astype(np.int64),
            "expected_n": np.round(exp, 6),
        }
    )


def chi2_independence(
    ds,
    *,
    row_col: str,
    col_col: str,
) -> pd.DataFrame:
    """Pearson chi-square test of independence between two categorical
    columns → DataFrame(chi2 6dp, dof, n) — the categorical A/B readout
    (does variant change the event-type mix?).

    One pass of the (row, col) count universe (``guard.universe``, the
    contingency table) → driver statistic with the SQL-identical
    ``(o − e)² / e`` algebra, e = row_total · col_total / n."""
    uni = guard.universe(
        ds.select_columns([row_col, col_col]),
        [row_col, col_col],
        what="chi2_independence",
    )
    piv = uni.pivot_table(
        index=row_col, columns=col_col, values="n", fill_value=0, aggfunc="sum",
        dropna=False,
    ).astype(np.float64)
    o = piv.to_numpy()
    n = o.sum()
    rt = o.sum(axis=1, keepdims=True)
    ct = o.sum(axis=0, keepdims=True)
    e = rt * ct / n
    chi2 = float(((o - e) * (o - e) / e).sum())
    dof = (o.shape[0] - 1) * (o.shape[1] - 1)
    return pd.DataFrame(
        {
            "chi2": [round(chi2, 6)],
            "dof": [np.int64(dof)],
            "n": [np.int64(n)],
        }
    )


def _segment_values(b: pa.Table, *, value_col: str, seg_col: str, ref) -> pa.Table:
    """The projection of the two-segment tests: ``is_ref`` (1 in the
    reference segment, 0 elsewhere) and the value as float64."""
    return pa.table(
        {
            "is_ref": pc.cast(pc.equal(b[seg_col], ref), pa.int8()),
            "v": pc.cast(b[value_col], pa.float64()),
        }
    )


def psi_drift(
    ds,
    *,
    value_col: str,
    seg_col: str,
    ref_segment,
    n_bins: int = 10,
) -> pd.DataFrame:
    """Population Stability Index between a reference segment and the
    rest → DataFrame(bin, na, nb, psi_term 6dp) — the standard
    feature-drift monitor: bins are the reference segment's exact
    ``n_bins``-quantile boundaries; PSI = Σ (pa − pb)·ln(pa/pb) with
    +0.5 Laplace smoothing (pa = (na+0.5)/(Na + 0.5·k)) so empty bins
    stay finite.  Σ psi_term > 0.2 is the conventional "investigate"
    threshold.

    Shape: ONE (segment, value) count universe (``guard.universe``, the
    winsorized-mean shape — exact for fixed-decimal data) yields both the
    interpolated boundaries (``guard.quantile_cont``) AND every bin count:
    binning is a searchsorted over the universe, never a second corpus
    pass."""
    uni = guard.universe(
        ds.select_columns([seg_col, value_col]).map_batches(
            _segment_values,
            fn_kwargs=dict(value_col=value_col, seg_col=seg_col, ref=ref_segment),
            batch_format="pyarrow",
        ),
        ["is_ref", "v"],
        what="psi_drift",
    )
    a = uni[uni["is_ref"] == 1]
    b = uni[uni["is_ref"] == 0]
    va, ca = a["v"].to_numpy(), a["n"].to_numpy(dtype=np.int64)
    vb, cb = b["v"].to_numpy(), b["n"].to_numpy(dtype=np.int64)
    cum = np.cumsum(ca)
    bounds = np.array(
        [guard.quantile_cont(va, cum, i / n_bins) for i in range(1, n_bins)],
        dtype=np.float64,
    )

    def bin_counts(vals, cnts):
        # bin of v = number of boundaries strictly below v (v > b)
        bins = np.searchsorted(bounds, vals, side="left")
        # searchsorted 'left' counts b >= v... we need v > b: a boundary
        # EQUAL to v must count the bin BELOW (v > b false) → side='left'
        # gives first idx with bounds[idx] >= v ⇒ #bounds < v... for
        # bounds[j] == v, idx stops before it ⇒ v NOT above it ✓
        return np.bincount(bins, weights=cnts, minlength=n_bins).astype(np.int64)

    na = bin_counts(va, ca)
    nb = bin_counts(vb, cb)
    Na, Nb = float(na.sum()), float(nb.sum())
    pa_ = (na + 0.5) / (Na + 0.5 * n_bins)
    pb_ = (nb + 0.5) / (Nb + 0.5 * n_bins)
    term = (pa_ - pb_) * np.log(pa_ / pb_)
    return pd.DataFrame(
        {
            "bin": np.arange(n_bins, dtype=np.int64),
            "na": na,
            "nb": nb,
            "psi_term": np.round(term, 6),
        }
    )


def mutual_information(
    ds,
    *,
    row_col: str,
    col_col: str,
) -> pd.DataFrame:
    """Mutual information (nats) between two categorical columns →
    DataFrame(mi 6dp, n) — the dependence strength behind feature
    selection: ``MI = Σ_ij p_ij · ln(p_ij / (p_i · p_j))`` over the
    observed contingency cells.

    Same one-pass contingency shape as :func:`chi2_independence`;
    SQL-identical term algebra."""
    uni = guard.universe(
        ds.select_columns([row_col, col_col]),
        [row_col, col_col],
        what="mutual_information",
    )
    n = float(uni["n"].sum())
    ri = uni.groupby(row_col, dropna=False)["n"].sum()
    ci = uni.groupby(col_col, dropna=False)["n"].sum()
    pij = uni["n"].to_numpy(dtype=np.float64) / n
    pi = uni[row_col].map(ri).to_numpy(dtype=np.float64) / n
    pj = uni[col_col].map(ci).to_numpy(dtype=np.float64) / n
    mi = float((pij * np.log(pij / (pi * pj))).sum())
    return pd.DataFrame({"mi": [round(mi, 6)], "n": [np.int64(n)]})


def ks_test(
    ds,
    *,
    value_col: str,
    seg_col: str,
    ref_segment,
) -> pd.DataFrame:
    """Two-sample Kolmogorov–Smirnov statistic between a reference
    segment and the rest → DataFrame(d 6dp, at_value, n_a, n_b):
    ``D = max_v |ECDF_a(v) − ECDF_b(v)|`` with the value attaining it
    (smallest such value on ties) — the classic distribution-shift test
    (exact counterpart of the binned PSI above).

    Exact from ONE (segment, value) count universe (``guard.universe``):
    merged distinct values, cumulative fractions (integer counts / totals
    — identical arithmetic to the SQL window form), vectorized max.  Bin
    continuous inputs upstream, as the universe cap says (the PSI
    operator is the pre-binned sibling)."""
    uni = guard.universe(
        ds.select_columns([seg_col, value_col]).map_batches(
            _segment_values,
            fn_kwargs=dict(value_col=value_col, seg_col=seg_col, ref=ref_segment),
            batch_format="pyarrow",
        ),
        ["is_ref", "v"],
        what="ks_test",
    )
    piv = (
        uni.pivot_table(index="v", columns="is_ref", values="n", fill_value=0)
        .sort_index()
    )
    ca = piv.get(1, pd.Series(0, index=piv.index)).to_numpy(dtype=np.int64)
    cb = piv.get(0, pd.Series(0, index=piv.index)).to_numpy(dtype=np.int64)
    na, nb = float(ca.sum()), float(cb.sum())
    fa = np.cumsum(ca) / na
    fb = np.cumsum(cb) / nb
    diff = np.abs(fa - fb)
    i = int(np.argmax(diff))  # first (smallest value) max on ties
    return pd.DataFrame(
        {
            "d": [round(float(diff[i]), 6)],
            "at_value": [float(piv.index[i])],
            "n_a": [np.int64(na)],
            "n_b": [np.int64(nb)],
        }
    )


def cramers_v(
    ds,
    *,
    row_col: str,
    col_col: str,
) -> pd.DataFrame:
    """Cramér's V effect size → DataFrame(v 6dp, chi2, dof, n):
    ``V = sqrt(χ² / (n · min(r−1, c−1)))`` — the normalized [0, 1]
    strength companion to :func:`chi2_independence` (which it reuses;
    the cardinalities come from two pruned distinct counts)."""
    from .joins import distinct_rows

    chi = chi2_independence(
        ds, row_col=row_col, col_col=col_col
    )
    r = distinct_rows(ds.select_columns([row_col]), [row_col]).count()
    c = distinct_rows(ds.select_columns([col_col]), [col_col]).count()
    n = float(chi["n"][0])
    k = float(min(r - 1, c - 1))
    v = float(np.sqrt(chi["chi2"][0] / (n * k))) if k > 0 else np.nan
    out = chi.copy()
    out.insert(0, "v", round(v, 6))
    return out
