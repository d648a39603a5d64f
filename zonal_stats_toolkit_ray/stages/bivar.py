"""Grouped bivariate statistics: Pearson correlation + OLS slope/intercept.

The reference's zonal reduce carries (sum, sumsq) moments per group
(runner.py:653-685); this is the bivariate extension of the same
partial+final shape — each batch contributes per-group sums of
(n, x, y, x², y², xy), one group-count-sized ``guard.group_sums`` merges
them, and the driver finalizes corr/slope/intercept from the moments.  The input
is read ONCE and nothing row-sized ever shuffles: the only exchange is the
six-moment partial rows (#groups per block).

Numerics: moments accumulate in float64 (pyarrow sums are pairwise), the
finalize uses the mean-centered forms, and degenerate groups (zero variance
in x or y, or n < 2) yield NULL like SQL ``corr`` / ``regr_slope``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard

_MOMENTS = ["n", "sx", "sy", "sxx", "syy", "sxy"]


def bivar_partials_batch(
    b: pa.Table, *, keys: list[str], x_col: str, y_col: str
) -> pa.Table:
    """Per-group bivariate moment partials for one batch → one row per
    distinct key tuple present in the batch.  Rows where either value is
    NULL are excluded (SQL aggregate semantics)."""
    x = pc.cast(b[x_col], pa.float64())
    y = pc.cast(b[y_col], pa.float64())
    valid = pc.and_(pc.is_valid(x), pc.is_valid(y))
    if not pc.all(pc.fill_null(valid, False)).as_py():
        b = b.filter(valid)
        x = pc.cast(b[x_col], pa.float64())
        y = pc.cast(b[y_col], pa.float64())
    t = pa.table(
        {
            **{k: b[k] for k in keys},
            "x": x,
            "y": y,
            "xx": pc.multiply(x, x),
            "yy": pc.multiply(y, y),
            "xy": pc.multiply(x, y),
        }
    )
    g = t.group_by(keys).aggregate(
        [
            ("x", "count"),
            ("x", "sum"),
            ("y", "sum"),
            ("xx", "sum"),
            ("yy", "sum"),
            ("xy", "sum"),
        ]
    )
    return pa.table(
        {
            **{k: g[k] for k in keys},
            "n": pc.cast(g["x_count"], pa.int64()),
            "sx": g["x_sum"],
            "sy": g["y_sum"],
            "sxx": g["xx_sum"],
            "syy": g["yy_sum"],
            "sxy": g["xy_sum"],
        }
    )


def finalize_bivar(df: pd.DataFrame) -> pd.DataFrame:
    """Moments frame (keys…, n, sx, sy, sxx, syy, sxy) → keys…, n, corr,
    slope, intercept (sample semantics; NULL on degenerate groups)."""
    n = df["n"].to_numpy(dtype=np.float64)
    sx = df["sx"].to_numpy(dtype=np.float64)
    sy = df["sy"].to_numpy(dtype=np.float64)
    mx = np.divide(sx, n, out=np.zeros_like(sx), where=n > 0)
    my = np.divide(sy, n, out=np.zeros_like(sy), where=n > 0)
    # mean-centered second moments (less cancellation than n·sxx − sx²)
    cxx = df["sxx"].to_numpy(dtype=np.float64) - mx * sx
    cyy = df["syy"].to_numpy(dtype=np.float64) - my * sy
    cxy = df["sxy"].to_numpy(dtype=np.float64) - mx * sy
    ok_x = (n >= 2) & (cxx > 0)
    ok_y = (n >= 2) & (cyy > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(ok_x & ok_y, cxy / np.sqrt(np.where(ok_x & ok_y, cxx * cyy, 1.0)), np.nan)
        slope = np.where(ok_x, cxy / np.where(ok_x, cxx, 1.0), np.nan)
        intercept = np.where(ok_x, my - slope * mx, np.nan)
    out = df.drop(columns=[c for c in _MOMENTS if c != "n"]).copy()
    out["n"] = df["n"].astype("int64")
    out["corr"] = corr
    out["slope"] = slope
    out["intercept"] = intercept
    return out


def mad_by_group(ds, *, key_col: str, value_col: str) -> pd.DataFrame:
    """EXACT median absolute deviation per group → DataFrame(key, median,
    mad) — the robust-dispersion twin of the zonal stdev (runner.py:906-916
    computes σ; MAD is the outlier-resistant quality-filter variant).

    Two passes of the adaptive grouped-percentile machinery
    (stages/zonal.py:group_percentiles_ds — salted two-level shuffle above
    ``guard.DRIVER_ROWS`` rows): pass 1 finds each group's median, pass 2 the
    median of |value − median|.  The slim (group_key, value) projection is
    materialized ONCE and feeds both passes (the dedup `_slim_input`
    philosophy — never re-execute the upstream twice); group medians
    broadcast via ``ray.put`` for the vectorized deviation map."""
    from .zonal import group_percentiles_ds

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "group_key": pc.cast(b[key_col], pa.string()),
                "value": pc.cast(b[value_col], pa.float64()),
            }
        )

    slim = ds.map_batches(proj, batch_format="pyarrow").materialize()
    med = group_percentiles_ds(slim, [50.0])
    items = sorted(med.items())
    key_arr = pa.array([k for k, _ in items], pa.string())
    med_arr = np.array([v[0] for _, v in items], dtype=np.float64)
    try:
        import ray

        ref = ray.put((key_arr, med_arr)) if ray.is_initialized() else (key_arr, med_arr)
    except ImportError:
        ref = (key_arr, med_arr)

    def dev(b: pa.Table, *, _ref=ref) -> pa.Table:
        from .joins import _resolve_ref

        keys, meds = _resolve_ref(_ref)
        idx = pc.index_in(b["group_key"], value_set=keys).to_numpy(
            zero_copy_only=False
        )
        d = np.abs(b["value"].to_numpy(zero_copy_only=False) - meds[idx])
        return pa.table({"group_key": b["group_key"], "value": pa.array(d)})

    mad = group_percentiles_ds(slim.map_batches(dev, batch_format="pyarrow"), [50.0])
    return pd.DataFrame(
        [(k, med[k][0], mad[k][0]) for k, _ in items],
        columns=[key_col, "median", "mad"],
    )


def grouped_corr(
    ds,
    *,
    keys: list[str],
    x_col: str,
    y_col: str,
) -> pd.DataFrame:
    """Pearson correlation + OLS regression of y on x per key group →
    DataFrame(keys…, n, corr, slope, intercept).

    ONE pass over the input: in-batch moment partials (#groups rows per
    block) → ``guard.group_sums`` → driver finalize on the
    group-universe-sized frame (keys ascending, a NULL key last)."""
    keys = list(keys)
    df = guard.group_sums(
        ds.map_batches(
            bivar_partials_batch,
            fn_kwargs=dict(keys=keys, x_col=x_col, y_col=y_col),
            batch_format="pyarrow",
        ),
        keys,
        _MOMENTS,
    )
    return finalize_bivar(df)[keys + ["n", "corr", "slope", "intercept"]]


def ab_test(
    ds,
    *,
    group_col: str,
    variant_col: str,
    value_col: str,
) -> pd.DataFrame:
    """Welch's unequal-variance t-test per experiment group →
    DataFrame(group, n_a, n_b, mean_a, mean_b, t_stat, dof).

    ``variant_col`` must hold exactly the integer labels {0, 1}
    (0 = control / A, 1 = treatment / B).  The statistical shape is the
    experiment-readout pass of an event pipeline: per (group, variant)
    three-moment partials (n, Σv, Σv²) inside each batch — the same
    partial+final decomposition as the reference's zonal reduce
    (runner.py:653-685) — ``guard.group_sums`` over the 2×#groups universe,
    and a driver finalize.  ONE input pass, nothing row-sized shuffles,
    so it holds at any corpus size with a bounded group universe.

    Numerics match the SQL oracle algebra exactly: sample variance
    ``(Σv² − (Σv)²/n) / (n − 1)``, ``t = (mA − mB) / sqrt(vA/nA + vB/nB)``,
    Welch–Satterthwaite dof.  Groups missing a variant or with n < 2 on
    either side yield NULL t/dof (SQL division-by-NULL semantics)."""

    def partials(b: pa.Table) -> pa.Table:
        v = pc.cast(b[value_col], pa.float64())
        valid = pc.is_valid(v)
        if not pc.all(pc.fill_null(valid, False)).as_py():
            b = b.filter(valid)
            v = pc.cast(b[value_col], pa.float64())
        t = pa.table(
            {
                group_col: b[group_col],
                variant_col: pc.cast(b[variant_col], pa.int64()),
                "v": v,
                "vv": pc.multiply(v, v),
            }
        )
        g = t.group_by([group_col, variant_col]).aggregate(
            [("v", "count"), ("v", "sum"), ("vv", "sum")]
        )
        return pa.table(
            {
                group_col: g[group_col],
                variant_col: g[variant_col],
                "n": pc.cast(g["v_count"], pa.int64()),
                "s": g["v_sum"],
                "ss": g["vv_sum"],
            }
        )

    merged = guard.group_sums(  # 2 × group-universe-sized
        ds.map_batches(partials, batch_format="pyarrow"),
        [group_col, variant_col],
        ["n", "s", "ss"],
    )
    # one row per group, sorted with a NULL group last; a missing variant
    # reads n = 0
    groups = merged[[group_col]].drop_duplicates()
    a, b = (
        groups.merge(merged[merged[variant_col] == v], on=group_col, how="left")
        .fillna({"n": 0})
        for v in (0, 1)
    )
    rows = []
    for g, ra, rb in zip(groups[group_col], a.itertuples(), b.itertuples()):
        na, nb = int(ra.n), int(rb.n)
        ma = ra.s / na if na else np.nan
        mb = rb.s / nb if nb else np.nan
        t = dof = np.nan
        if na >= 2 and nb >= 2:
            va = (ra.ss - ra.s ** 2 / na) / (na - 1)
            vb = (rb.ss - rb.s ** 2 / nb) / (nb - 1)
            se2 = va / na + vb / nb
            if se2 > 0:
                # explicit multiplication (not pow) — bit-identical to the
                # SQL oracle's (v/n)*(v/n) algebra
                t = (ma - mb) / np.sqrt(se2)
                dof = se2 * se2 / (
                    (va / na) * (va / na) / (na - 1)
                    + (vb / nb) * (vb / nb) / (nb - 1)
                )
        rows.append((g, na, nb, ma, mb, t, dof))
    return pd.DataFrame(
        rows,
        columns=[group_col, "n_a", "n_b", "mean_a", "mean_b", "t_stat", "dof"],
    )


_OLS2_MOMS = ["n", "s1", "s2", "sy", "s11", "s22", "s12", "s1y", "s2y"]


def ols2_by_group(
    ds,
    *,
    key_col: str,
    x1_col: str,
    x2_col: str,
    y_col: str,
) -> pd.DataFrame:
    """Two-feature OLS per group — ``y = b0 + b1·x1 + b2·x2`` via the
    normal equations → DataFrame(key, n, b0, b1, b2).

    The multivariate extension of :func:`grouped_corr`: ONE input pass of
    nine-moment partials per group, ``guard.group_sums``, driver finalize
    by Cramer's rule on the centered 2×2 system.  When the inputs are
    integral (cast upstream), every moment sum is an exact float64
    integer, so the finalize — written with the SAME parenthesization as
    the SQL oracle — is bit-identical to it.  Collinear groups
    (determinant 0) and n < 3 yield NULL coefficients."""

    def partials(b: pa.Table) -> pa.Table:
        x1 = pc.cast(b[x1_col], pa.float64())
        x2 = pc.cast(b[x2_col], pa.float64())
        y = pc.cast(b[y_col], pa.float64())
        t = pa.table(
            {
                key_col: b[key_col],
                "x1": x1,
                "x2": x2,
                "y": y,
                "x11": pc.multiply(x1, x1),
                "x22": pc.multiply(x2, x2),
                "x12": pc.multiply(x1, x2),
                "x1y": pc.multiply(x1, y),
                "x2y": pc.multiply(x2, y),
            }
        )
        g = t.group_by([key_col]).aggregate(
            [("x1", "count")]
            + [(c, "sum") for c in ["x1", "x2", "y", "x11", "x22", "x12", "x1y", "x2y"]]
        )
        return pa.table(
            {
                key_col: g[key_col],
                "n": pc.cast(g["x1_count"], pa.int64()),
                "s1": g["x1_sum"],
                "s2": g["x2_sum"],
                "sy": g["y_sum"],
                "s11": g["x11_sum"],
                "s22": g["x22_sum"],
                "s12": g["x12_sum"],
                "s1y": g["x1y_sum"],
                "s2y": g["x2y_sum"],
            }
        )

    m = guard.group_sums(
        ds.map_batches(partials, batch_format="pyarrow"), [key_col], _OLS2_MOMS
    )
    rows = []
    for r in m.itertuples(index=False):
        n = float(r.n)
        b0 = b1 = b2 = np.nan
        if r.n >= 3:
            # centered moments — SAME parenthesization as the SQL oracle
            c11 = r.s11 - r.s1 * (r.s1 / n)
            c22 = r.s22 - r.s2 * (r.s2 / n)
            c12 = r.s12 - r.s1 * (r.s2 / n)
            c1y = r.s1y - r.s1 * (r.sy / n)
            c2y = r.s2y - r.s2 * (r.sy / n)
            det = c11 * c22 - c12 * c12
            if det != 0.0:
                b1 = (c1y * c22 - c2y * c12) / det
                b2 = (c2y * c11 - c1y * c12) / det
                b0 = (r.sy - b1 * r.s1 - b2 * r.s2) / n
        rows.append((getattr(r, key_col), int(r.n), b0, b1, b2))
    return pd.DataFrame(rows, columns=[key_col, "n", "b0", "b1", "b2"])


def target_encode_loo(
    ds,
    *,
    key_col: str,
    cat_col: str,
    value_col: str,
    out_col: str = "te",
):
    """Leave-one-out target (mean) encoding → Dataset(key, cat, value,
    te): each row's category encoded as the mean of the OTHER rows'
    targets in its category, ``(Σ_cat − v) / (n_cat − 1)`` — the standard
    leakage-free categorical feature for tree/linear models.  Categories
    with a single row yield NULL (no peers).

    Shape: one (category, n, Σ) aggregate (universe-sized) broadcasts via
    ``ray.put``; the encode is a vectorized per-batch map — the corpus
    streams, nothing row-sized shuffles.  Integral-ize ``value_col``
    upstream for bit-exact SQL parity (lesson #34)."""
    import ray

    def partials(b: pa.Table) -> pa.Table:
        v = pc.cast(b[value_col], pa.float64())
        t = pa.table({cat_col: b[cat_col], "v": v})
        g = t.group_by(cat_col).aggregate([("v", "sum"), ("v", "count")])
        return pa.table(
            {
                cat_col: g[cat_col],
                "n": pc.cast(g["v_count"], pa.int64()),
                "s": g["v_sum"],
            }
        )

    agg = guard.group_sums(
        ds.map_batches(partials, batch_format="pyarrow"), [cat_col], ["n", "s"]
    )
    cats = pa.array(agg[cat_col].astype(str), pa.string())
    ns = agg["n"].to_numpy(dtype=np.float64)
    ss = agg["s"].to_numpy(dtype=np.float64)
    ref = ray.put((cats, ns, ss))

    def encode(b: pa.Table, *, _ref=ref) -> pa.Table:
        c, n, s = ray.get(_ref)
        idx = pc.index_in(b[cat_col], value_set=c).to_numpy(zero_copy_only=False)
        v = pc.cast(b[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        ni = n[idx]
        with np.errstate(invalid="ignore", divide="ignore"):
            te = (s[idx] - v) / (ni - 1.0)
        te = np.where(ni > 1, te, np.nan)
        return b.append_column(out_col, pa.array(te, pa.float64()))

    return ds.map_batches(encode, batch_format="pyarrow")


def auc_by_group(
    ds,
    *,
    group_col: str,
    label_col: str,
    score_col: str,
) -> pd.DataFrame:
    """ROC AUC of ``score_col`` against the binary ``label_col`` per group
    → DataFrame(group, n_pos, n_neg, auc 6dp) — the Mann–Whitney rank
    form with midrank tie correction:
    ``AUC = (Σ midrank(positives) − n_pos(n_pos+1)/2) / (n_pos·n_neg)``.

    Shape: the (group, score) universe with pos/neg sums
    (``guard.universe``) → driver cum-rank finalize (midrank of a tie
    block = cum_before + (c+1)/2 — exact half-integer arithmetic,
    bit-identical to the SQL RANK()+COUNT() window form).  Exact for
    bounded distinct-score universes — continuous scores should be
    rounded/binned upstream, as the universe cap says; degenerate groups
    (no positives or no negatives) yield NULL.  A NULL group is a group
    of its own, last."""

    def project(b: pa.Table) -> pa.Table:
        y = pc.cast(b[label_col], pa.int64())
        return pa.table(
            {
                group_col: b[group_col],
                "s": pc.cast(b[score_col], pa.float64()),
                "pos": y,
                "neg": pc.subtract(pa.scalar(1, pa.int64()), y),
            }
        )

    uni = guard.universe(
        ds.map_batches(project, batch_format="pyarrow"),
        [group_col, "s"],
        sums=["pos", "neg"],
        what="auc_by_group",
    )
    rows = []
    for k, g in uni.groupby(group_col, sort=False, dropna=False):
        pos = g["pos"].to_numpy(dtype=np.float64)
        neg = g["neg"].to_numpy(dtype=np.float64)
        c = pos + neg
        cum_before = np.concatenate([[0.0], np.cumsum(c)[:-1]])
        midrank = cum_before + (c + 1.0) / 2.0
        np_, nn_ = pos.sum(), neg.sum()
        auc = np.nan
        if np_ > 0 and nn_ > 0:
            sp = float((pos * midrank).sum())
            auc = round((sp - np_ * (np_ + 1.0) / 2.0) / (np_ * nn_), 6)
        rows.append((k, int(np_), int(nn_), auc))
    return pd.DataFrame(rows, columns=[group_col, "n_pos", "n_neg", "auc"])


def spearman_by_group(
    ds,
    *,
    key_col: str,
    x_col: str,
    y_col: str,
) -> pd.DataFrame:
    """Spearman rank correlation per group → DataFrame(key, n, rho 6dp):
    Pearson correlation of the MIDRANKS (tie-corrected, the
    scipy.stats.spearmanr convention) — the robust monotone-association
    readout.

    Shape: two (key, value) count universes (x and y, ``guard.universe``)
    yield per-value midranks (cum_before + (c+1)/2 — exact half-integers, the
    AUC kernel); the maps broadcast and ONE pass attaches both ranks and
    emits six-moment partials (the grouped_corr kernel).  Degenerate
    groups yield NULL."""
    import ray

    def universe(col: str) -> pd.DataFrame:
        def project(b: pa.Table) -> pa.Table:
            return pa.table({key_col: b[key_col], "v": pc.cast(b[col], pa.float64())})

        return guard.universe(
            ds.select_columns([key_col, col]).map_batches(
                project, batch_format="pyarrow"
            ),
            [key_col, "v"],
            what="spearman_by_group",
        )

    def rank_map(uni: pd.DataFrame) -> dict:
        out = {}
        for k, g in uni.groupby(key_col, sort=False, dropna=False):
            c = g["n"].to_numpy(dtype=np.float64)
            cum_before = np.concatenate([[0.0], np.cumsum(c)[:-1]])
            out[None if pd.isna(k) else k] = (
                g["v"].to_numpy(dtype=np.float64),
                cum_before + (c + 1.0) / 2.0,
            )
        return out

    mx = rank_map(universe(x_col))
    my = rank_map(universe(y_col))
    rx = ray.put(mx)
    ry = ray.put(my)

    def moments(b: pa.Table, *, _rx=rx, _ry=ry) -> pa.Table:
        mxx, myy = ray.get(_rx), ray.get(_ry)
        kcol = b[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        keys = kcol.to_pandas().to_numpy()
        xv = pc.cast(b[x_col], pa.float64()).to_numpy(zero_copy_only=False)
        yv = pc.cast(b[y_col], pa.float64()).to_numpy(zero_copy_only=False)
        xr = np.empty(len(b))
        yr = np.empty(len(b))
        # vectorized per distinct key in the batch (keys per batch bounded)
        import pandas as pd_

        for k in pd_.unique(keys):
            null = pd_.isna(k)
            m = pd_.isna(keys) if null else keys == k
            vx, rkx = mxx[None if null else k]
            vy, rky = myy[None if null else k]
            xr[m] = rkx[np.searchsorted(vx, xv[m])]
            yr[m] = rky[np.searchsorted(vy, yv[m])]
        t = pa.table(
            {
                key_col: kcol,
                "x": pa.array(xr, pa.float64()),
                "y": pa.array(yr, pa.float64()),
            }
        )
        return bivar_partials_batch(t, keys=[key_col], x_col="x", y_col="y")

    fin = finalize_bivar(
        guard.group_sums(
            ds.map_batches(moments, batch_format="pyarrow"), [key_col], _MOMENTS
        )
    )
    out = pd.DataFrame(
        {
            key_col: fin[key_col],
            "n": fin["n"].astype(np.int64),
            "rho": np.round(fin["corr"].astype(np.float64), 6),
        }
    )
    return out


def kendall_tau_by_group(
    ds,
    *,
    key_col: str,
    x_col: str,
    y_col: str,
) -> pd.DataFrame:
    """Kendall τ-b per group → DataFrame(key, n, tau 6dp), EXACT for
    bounded (x, y) value universes (categorical/integer-graded data —
    τ's home turf): concordant/discordant pair counts come from 2-D
    prefix sums over the per-group JOINT contingency matrix, all int64;
    ``τ-b = (C − D) / sqrt((n0 − n1)(n0 − n2))`` with the standard
    marginal tie terms.

    Shape: ONE (key, x, y) count universe (``guard.universe``); the
    driver finalize is O(cells) per group (cells = |x-universe| ×
    |y-universe|)."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: b[key_col],
                "x": pc.cast(b[x_col], pa.float64()),
                "y": pc.cast(b[y_col], pa.float64()),
            }
        )

    uni = guard.universe(
        ds.map_batches(project, batch_format="pyarrow"),
        [key_col, "x", "y"],
        what="kendall_tau_by_group",
    )
    rows = []
    for k, g in uni.groupby(key_col, sort=False, dropna=False):
        xs = np.sort(g["x"].unique())
        ys = np.sort(g["y"].unique())
        m = np.zeros((xs.size, ys.size), dtype=np.int64)
        xi = np.searchsorted(xs, g["x"].to_numpy())
        yi = np.searchsorted(ys, g["y"].to_numpy())
        m[xi, yi] = g["n"].to_numpy(dtype=np.int64)
        # strictly-smaller-in-both prefix: P[i,j] = Σ_{i'<i, j'<j} m
        cum = m.cumsum(axis=0).cumsum(axis=1)
        P = np.zeros_like(cum)
        P[1:, 1:] = cum[:-1, :-1]
        C = int((m * P).sum())
        # discordant: strictly smaller x, strictly larger y
        cum_y_rev = m[:, ::-1].cumsum(axis=0).cumsum(axis=1)[:, ::-1]
        Q = np.zeros_like(cum_y_rev)
        Q[1:, :-1] = cum_y_rev[:-1, 1:]
        D = int((m * Q).sum())
        n = int(m.sum())
        n0 = n * (n - 1) // 2
        tx = m.sum(axis=1)
        ty = m.sum(axis=0)
        n1 = int((tx * (tx - 1) // 2).sum())
        n2 = int((ty * (ty - 1) // 2).sum())
        tau = np.nan
        den = float(n0 - n1) * float(n0 - n2)
        if den > 0:
            tau = round((C - D) / np.sqrt(den), 6)
        rows.append((k, n, tau))
    return pd.DataFrame(rows, columns=[key_col, "n", "tau"])
