"""Mergeable quantile sketch — the 100-TB path for percentile zonal stats.

The reference keeps EVERY valid pixel in RAM to compute exact percentiles
(``/root/reference/runner.py:502-508`` — its worst scaling hazard); the
engine's exact path bounds that per group (stages/zonal.py).  At 10^12
rows even per-group bags are too big, so this module provides a weighted
histogram sketch (Ben-Haim & Tom-Tov streaming-histogram style: fixed
centroid budget, merge = concat + compact): one sketch per (group, batch)
is emitted from ``map_batches`` — constant size per batch — and sketches
merge associatively in a tiny groupby, exactly like the sum/count
partials.  Quantiles interpolate the cumulative weight curve; error is
bounded by the centroid budget (tested ≤ ~1% of the value RANGE at
B=256 on unimodal data).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard
from .guard import tree_combine

# below guard.DRIVER_ROWS: each row carries a histogram or HLL register array
DRIVER_SKETCH_ROWS = 100_000


class HistSketch:
    """Weighted centroid histogram with a fixed budget ``b``."""

    __slots__ = ("b", "centroids", "weights")

    def __init__(self, b: int = 256, centroids=None, weights=None):
        self.b = int(b)
        self.centroids = (
            np.asarray(centroids, dtype=np.float64)
            if centroids is not None
            else np.empty(0, np.float64)
        )
        self.weights = (
            np.asarray(weights, dtype=np.float64)
            if weights is not None
            else np.empty(0, np.float64)
        )

    @classmethod
    def from_values(cls, values: np.ndarray, b: int = 256) -> "HistSketch":
        """Vectorized build: ≤ b weighted centroids.

        Batches with ≤ b values store EXACT distinct (value, count)
        centroids (round-3: equal-width histogram bins were merging
        distinct tail values even when the whole batch fit the budget,
        costing ~4 ranks of tail accuracy); only larger batches pay the
        lossy histogram."""
        v = np.asarray(values, dtype=np.float64)
        v = v[np.isfinite(v)]
        if v.size == 0:
            return cls(b)
        if v.size <= b:
            u, c = np.unique(v, return_counts=True)
            return cls(b, u, c.astype(np.float64))
        lo, hi = float(v.min()), float(v.max())
        if lo == hi:
            return cls(b, [lo], [float(v.size)])
        counts, edges = np.histogram(v, bins=b)
        nz = counts > 0
        # centroid = mean of values in the bin (weighted by actual sums for
        # accuracy, not bin midpoints)
        sums, _ = np.histogram(v, bins=edges, weights=v)
        return cls(b, sums[nz] / counts[nz], counts[nz].astype(np.float64))

    def merge(self, other: "HistSketch") -> "HistSketch":
        c = np.concatenate([self.centroids, other.centroids])
        w = np.concatenate([self.weights, other.weights])
        return HistSketch(self.b, c, w)._compact()

    def _compact(self) -> "HistSketch":
        if self.centroids.size <= self.b:
            return self
        order = np.argsort(self.centroids)
        c, w = self.centroids[order], self.weights[order]
        # merge adjacent centroids into b buckets of ~equal weight
        cw = np.cumsum(w)
        total = cw[-1]
        bucket = np.minimum(
            (cw - w / 2) / total * self.b, self.b - 1
        ).astype(np.int64)
        sums = np.bincount(bucket, weights=c * w, minlength=self.b)
        wts = np.bincount(bucket, weights=w, minlength=self.b)
        nz = wts > 0
        return HistSketch(self.b, sums[nz] / wts[nz], wts[nz])

    def quantile(self, q) -> np.ndarray:
        """Percentile estimates (q in [0, 100]) by interpolating the
        cumulative weight at centroid positions."""
        q = np.atleast_1d(np.asarray(q, dtype=np.float64))
        if self.centroids.size == 0:
            return np.full(q.shape, np.nan)
        order = np.argsort(self.centroids)
        c, w = self.centroids[order], self.weights[order]
        cw = np.cumsum(w) - w / 2.0
        total = w.sum()
        pos = q / 100.0 * total
        return np.interp(pos, cw, c)

    # --- serialization for Arrow transport ---
    def to_arrays(self) -> tuple[list[float], list[float]]:
        return self.centroids.tolist(), self.weights.tolist()


def sketch_batch(
    batch: pa.Table,
    *,
    key_col: str = "group_key",
    value_col: str = "value",
    b: int = 256,
) -> pa.Table:
    """map_batches stage: (key, value) rows → one serialized sketch row per
    key per batch (constant output size regardless of batch rows)."""
    # dictionary-encode the key column: the per-group masking below then
    # runs on machine int codes, never per-batch Python-object arrays
    kcol = batch[key_col]
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    enc = kcol.dictionary_encode()
    codes = np.asarray(enc.indices, dtype=np.int64)
    kdict = enc.dictionary.to_pylist()  # tiny: one entry per distinct key
    vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    out_k, out_c, out_w = [], [], []
    for ci in np.unique(codes).tolist():
        sk = HistSketch.from_values(vals[codes == ci], b)
        c, w = sk.to_arrays()
        out_k.append(kdict[ci])
        out_c.append(c)
        out_w.append(w)
    return pa.table(
        {
            "group_key": pa.array(out_k, pa.string()),
            "centroids": pa.array(out_c, pa.list_(pa.float64())),
            "weights": pa.array(out_w, pa.list_(pa.float64())),
        }
    )


def _merge_sketch_rows(g: pd.DataFrame, b: int) -> pd.DataFrame:
    """(group, centroids, weights) rows of ONE group → one merged row."""
    acc = HistSketch(b)
    for c, w in zip(g["centroids"], g["weights"]):
        acc = acc.merge(HistSketch(b, c, w))
    c, w = acc.to_arrays()
    return pd.DataFrame(
        {"group_key": [g["group_key"].iloc[0]], "centroids": [c], "weights": [w]}
    )


def approx_group_percentiles(
    values_ds, plist: list[float], *, b: int = 256
) -> dict[str, list[float]]:
    """Distributed approximate grouped percentiles: per-batch sketches →
    groupby merge (sketches are tiny and mergeable, so the shuffle moves
    O(groups × blocks × b) floats — never the raw values).

    Above ``DRIVER_SKETCH_ROWS`` sketch rows (many groups × many blocks) a
    distributed per-group combine runs first (round-3: the tree-combine
    VERDICT suggested), so the driver always merges ≤ one row per group."""
    plist = sorted(set(float(p) for p in plist))
    sketches = values_ds.map_batches(
        sketch_batch, batch_format="pyarrow", fn_kwargs={"b": b}
    ).materialize()
    if sketches.count() > DRIVER_SKETCH_ROWS:
        sketches = sketches.groupby("group_key").map_groups(
            lambda g: _merge_sketch_rows(g, b), batch_format="pandas"
        )

    df = sketches.to_pandas()
    out: dict[str, list[float]] = {}
    for k, g in df.groupby("group_key", sort=False):
        merged = _merge_sketch_rows(g, b)
        acc = HistSketch(
            b, merged["centroids"].iloc[0], merged["weights"].iloc[0]
        )
        out[k] = acc.quantile(plist).tolist()
    return out


# ---------------------------------------------------------------------------
# HyperLogLog approximate distinct count — the 100-TB COUNT(DISTINCT) path
# ---------------------------------------------------------------------------

HLL_B = 12  # 2^12 = 4096 registers → σ ≈ 1.04/√m ≈ 1.6 % standard error


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (public domain, Steele et al.) — a strong
    64-bit mixer so register index and rank bits are independent."""
    z = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def hll_registers(values: np.ndarray, b: int = HLL_B) -> np.ndarray:
    """Values (int64) → HLL register array (uint8, size 2^b): register =
    max rank of the (64-b)-bit suffix, rank = leading-zeros + 1.
    Vectorized; merge across batches is an elementwise max."""
    m = 1 << b
    regs = np.zeros(m, dtype=np.uint8)
    if values.size == 0:
        return regs
    h = _splitmix64(np.asarray(values, dtype=np.int64).view(np.uint64))
    idx = (h >> np.uint64(64 - b)).astype(np.int64)
    suffix = h << np.uint64(b)  # remaining 64-b bits at the top
    # leading zeros of the suffix within 64-b bits, via bit-length
    nz = suffix != 0
    ranks = np.empty(h.size, dtype=np.uint8)
    ranks[~nz] = 64 - b + 1  # all-zero suffix → max rank
    if nz.any():
        s = suffix[nz]
        # log2 via float conversion is exact for the top bit position
        top = np.floor(np.log2(s.astype(np.float64))).astype(np.int64)
        top = np.minimum(top, 63)  # guard float rounding at 2^63
        lz = 63 - top
        ranks[nz] = (lz + 1).astype(np.uint8)
    np.maximum.at(regs, idx, ranks)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected HLL estimate (Flajolet et al. 2007), with the
    small-range linear-counting correction."""
    m = float(regs.size)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting
    return float(est)


def approx_distinct_by_group(
    ds,
    *,
    key_col: str,
    value_col: str,
    b: int = HLL_B,
) -> pd.DataFrame:
    """Approximate COUNT(DISTINCT value) per key → (key, approx_distinct).

    Per-batch HLL registers per key (constant size regardless of rows) →
    elementwise-max merge.  The shuffle moves O(groups × blocks × 2^b)
    bytes, never the values; above ``DRIVER_SKETCH_ROWS`` register rows the
    merge runs as a distributed per-group ``map_groups`` first."""

    def partial(batch: pa.Table) -> pa.Table:
        kcol = batch[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        enc = kcol.dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64)
        kdict = enc.dictionary.to_pylist()
        vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        out_k, out_r = [], []
        for ci in np.unique(codes).tolist():
            out_k.append(kdict[ci])
            out_r.append(hll_registers(vals[codes == ci], b))
        off = pa.array(
            np.arange(0, (len(out_k) + 1) * (1 << b), 1 << b, dtype=np.int32)
        )
        return pa.table(
            {
                "key": pa.array(out_k, pa.string()),
                "regs": pa.ListArray.from_arrays(
                    off, pa.array(np.concatenate(out_r) if out_r else
                                  np.empty(0, np.uint8), pa.uint8())
                ),
            }
        )

    def merge_rows(g: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(1 << b, dtype=np.uint8)
        for r in g["regs"]:
            acc = np.maximum(acc, np.asarray(r, dtype=np.uint8))
        return pd.DataFrame({"key": [g["key"].iloc[0]], "regs": [acc.tolist()]})

    parts = ds.map_batches(partial, batch_format="pyarrow").materialize()
    if parts.count() > DRIVER_SKETCH_ROWS:
        parts = parts.groupby("key").map_groups(merge_rows, batch_format="pandas")
    df = parts.to_pandas()
    rows = []
    for k, g in df.groupby("key", sort=False):
        acc = np.zeros(1 << b, dtype=np.uint8)
        for r in g["regs"]:
            acc = np.maximum(acc, np.asarray(r, dtype=np.uint8))
        rows.append({"key": k, "approx_distinct": hll_estimate(acc)})
    return (
        pd.DataFrame(rows).sort_values("key").reset_index(drop=True)
        if rows
        else pd.DataFrame({"key": pd.Series(dtype=str),
                           "approx_distinct": pd.Series(dtype=float)})
    )


# ---------------------------------------------------------------------------
# Misra–Gries / Space-Saving heavy hitters — round-5 operator
# ---------------------------------------------------------------------------

def mg_decrement(tokens: np.ndarray, counts: np.ndarray, m: int):
    """Keep ≤ ``m`` counters: subtract the (m+1)-th largest count from all
    and drop non-positive — the Misra–Gries step.  Each such event removes
    ≥ (m+1)·d total mass, which is what bounds the cumulative undercount
    by N/(m+1) over ANY merge tree (Agarwal et al., Mergeable Summaries)."""
    if tokens.size <= m:
        return tokens, counts
    # (m+1)-th largest via partition
    d = np.partition(counts, counts.size - (m + 1))[counts.size - (m + 1)]
    kept = counts - d
    pos = kept > 0
    return tokens[pos], kept[pos]


def mg_merge(tok_list, cnt_list, m: int):
    """k-way merge of MG summaries: sum by token, one decrement step."""
    toks = np.concatenate(tok_list)
    cnts = np.concatenate(cnt_list)
    order = np.argsort(toks, kind="stable")
    toks, cnts = toks[order], cnts[order]
    new = np.concatenate([[True], toks[1:] != toks[:-1]])
    gid = np.cumsum(new) - 1
    sums = np.bincount(gid, weights=cnts).astype(np.int64)
    return mg_decrement(toks[new], sums, m)


def heavy_hitters(
    ds,
    *,
    text_col: str = "text",
    m: int = 256,
) -> pd.DataFrame:
    """→ DataFrame(token, est) — a merged Misra–Gries summary of ≤ ``m``
    counters over the corpus's whitespace tokens (shared doc_frequency
    tokenization).  Guarantees, for N = total token occurrences:

    * ``est ≤ exact`` for every reported token (pure undercount);
    * ``exact − est ≤ N/(m+1)``;
    * every token with ``exact > N/(m+1)`` IS reported.

    Shape: per-batch exact counts → per-batch MG summary (≤ m rows) →
    associative k-way summary merges.  Partial volume is blocks × m rows;
    above the driver budget ``guard.tree_combine`` k-way merges fanned-in
    blocks first.  The final merge folds on the driver."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
        toks = pc.list_flatten(pc.split_pattern_regex(t, r"\s+"))
        toks = toks.filter(pc.not_equal(toks, ""))
        if len(toks) == 0:
            return pa.table(
                {"token": pa.array([], pa.string()),
                 "est": pa.array([], pa.int64())}
            )
        g = pa.table({"token": toks}).group_by("token").aggregate(
            [("token", "count")]
        )
        tk = g["token"].to_numpy(zero_copy_only=False)
        ct = g["token_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        tk, ct = mg_decrement(tk, ct, m)
        return pa.table(
            {"token": pa.array(tk, pa.string()), "est": pa.array(ct, pa.int64())}
        )

    def merge_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"token": pa.array([], pa.string()),
                 "est": pa.array([], pa.int64())}
            )
        tk, ct = mg_merge(
            [t["token"].to_numpy(zero_copy_only=False)],
            [t["est"].to_numpy(zero_copy_only=False).astype(np.int64)],
            m,
        )
        return pa.table(
            {"token": pa.array(tk, pa.string()), "est": pa.array(ct, pa.int64())}
        )

    df, _ = tree_combine(ds.map_batches(partial, batch_format="pyarrow"), merge_block)
    if len(df) == 0:
        return pd.DataFrame(
            {"token": pd.Series(dtype=str), "est": pd.Series(dtype="int64")}
        )
    tk, ct = mg_merge(
        [df["token"].to_numpy()], [df["est"].to_numpy().astype(np.int64)], m
    )
    out = pd.DataFrame({"token": tk, "est": ct})
    return out.sort_values("token").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Exact fixed-bin histogram — the distribution-profiling pass of a corpus
# (sequence-length / quality-score / price distributions before choosing
# packing budgets or filter thresholds).  Unlike HistSketch above this is
# EXACT for a caller-fixed [lo, hi) range: per-batch np.bincount partials
# (≤ bins rows each, regardless of batch size), one vocabulary-sized hash
# aggregate, nothing corpus-sized ever shuffles or lands on the driver.
# ---------------------------------------------------------------------------


def histogram_batch(
    batch: pa.Table,
    *,
    value_col: str,
    lo: float,
    hi: float,
    bins: int,
) -> pa.Table:
    """One batch → non-empty (bin, n) partial rows.

    Bin arithmetic is pinned to what a SQL oracle reproduces bit-exactly:
    ``floor((v - lo) / w)`` with ``w = (hi - lo) / bins``, all float64 —
    identical expressions in DuckDB give identical bins, including the
    boundary case where rounding lands a v just under ``hi`` in bin
    ``bins`` (kept, not clamped, so both sides agree).  Values outside
    [lo, hi) and non-finite values are dropped on BOTH sides."""
    v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    w = (hi - lo) / bins
    m = np.isfinite(v) & (v >= lo) & (v < hi)
    idx = np.floor((v[m] - lo) / w).astype(np.int64)
    counts = np.bincount(idx, minlength=bins + 1)
    nz = np.nonzero(counts)[0]
    return pa.table(
        {"bin": nz.astype(np.int64), "n": counts[nz].astype(np.int64)}
    )


def histogram_ds(
    ds,
    *,
    value_col: str,
    lo: float,
    hi: float,
    bins: int = 32,
):
    """Exact histogram of ``value_col`` over ``bins`` equal-width bins in
    [lo, hi): Dataset of (bin:int64, n:int64), non-empty bins only,
    unordered (callers sort).

    Shape: in-batch ``np.bincount`` partials → coalesce the slim partials
    (aggregate partition count follows input block count; more partitions
    than distinct bins emits schemaless empties — sandbox lesson #22) →
    one ``groupby(bin).sum`` over ≤ bins+1 keys.  At 100 TB the shuffle
    moves blocks×bins rows of two int64s — nothing scales with row count."""
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        histogram_batch,
        batch_format="pyarrow",
        fn_kwargs={"value_col": value_col, "lo": lo, "hi": hi, "bins": bins},
    ).repartition(guard.shuffle_partitions())
    agg = partials.groupby("bin").aggregate(Sum("n", alias_name="n"))

    def norm(b: pa.Table) -> pa.Table:
        if "bin" not in b.column_names:
            return pa.table(
                {"bin": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "bin": pc.cast(b["bin"], pa.int64()),
                "n": pc.cast(b["n"], pa.int64()),
            }
        )

    return agg.map_batches(norm, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Count-min sketch (Cormode & Muthukrishnan 2005) — fixed-memory per-key
# frequency estimates over a stream, completing the sketch family (HLL =
# distinct, t-digest = quantiles, Misra-Gries = heavy hitters, CMS =
# point frequencies).  One (depth × width) int64 count matrix per block
# (the mergeable fixed-size-partial shape); merge = elementwise SUM (a
# linear sketch, unlike HLL's max).  Estimates NEVER under-count; the
# over-count per row is bounded by the colliding mass.
# ---------------------------------------------------------------------------

CMS_DEPTH = 4
CMS_WIDTH = 16_384
# fixed odd multipliers + offsets (splitmix-derived, seeded once)
_CMS_A = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)
_CMS_B = np.array(
    [0x2545F4914F6CDD1D, 0x27D4EB2F165667C5, 0x94D049BB133111EB, 0xBF58476D1CE4E5B9],
    dtype=np.uint64,
)


def cms_rows(values: np.ndarray, depth: int = CMS_DEPTH, width: int = CMS_WIDTH):
    """int64 values → per-row bucket indices (depth, n) uint64."""
    v = np.asarray(values, dtype=np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        hashed = v[None, :] * _CMS_A[:depth, None] + _CMS_B[:depth, None]
    return (hashed >> np.uint64(40)) % np.uint64(width)


def cms_partial(values: np.ndarray, depth: int = CMS_DEPTH, width: int = CMS_WIDTH):
    """→ (depth, width) int64 count matrix for one batch."""
    m = np.zeros((depth, width), dtype=np.int64)
    if values.size == 0:
        return m
    idx = cms_rows(values, depth, width)
    for r in range(depth):
        m[r] += np.bincount(idx[r].astype(np.int64), minlength=width)
    return m


def cms_build(ds, *, key_col: str, depth: int = CMS_DEPTH, width: int = CMS_WIDTH):
    """One streaming pass → the merged (depth, width) matrix + total row
    count.  Driver traffic = blocks × depth × width int64 (512 KB at the
    defaults), independent of stream size."""

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = cms_partial(vals, depth, width)
        return pa.table(
            {
                "m": pa.array([m.ravel().tolist()], pa.list_(pa.int64())),
                "n": pa.array([int(vals.size)], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    m = np.zeros((depth, width), dtype=np.int64)
    if len(parts.columns) == 0 or len(parts) == 0:  # zero-block input
        return m, 0
    for c in parts["m"]:
        m += np.asarray(c, dtype=np.int64).reshape(depth, width)
    return m, int(parts["n"].sum())


def cms_estimate(m: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Point estimates: min over rows — ≥ true count always."""
    depth, width = m.shape
    idx = cms_rows(keys, depth, width)
    ests = np.stack([m[r, idx[r].astype(np.int64)] for r in range(depth)])
    return ests.min(axis=0)


def group_histogram(
    ds,
    *,
    key_col: str,
    value_col: str,
    lo: float,
    hi: float,
    n_bins: int = 10,
) -> "pd.DataFrame":
    """Exact equi-width histogram PER GROUP → DataFrame(key, bin, n) for
    every (group, bin 0..n_bins−1) cell (zero cells included) — the 2-D
    extension of :func:`histogram_ds`.  Bin = ``floor((v − lo)/w)``
    clamped to [0, n_bins−1]; values outside [lo, hi] clamp into the edge
    bins (SQL ``least/greatest`` parity, same float expression both
    sides).

    One pass of per-(group, bin) count partials (each block emits ≤
    groups × n_bins rows) → ``guard.group_sums`` → driver grid fill (a
    NULL key is its own group, last)."""
    import pandas as pd

    w = (hi - lo) / n_bins

    def partials(b: pa.Table) -> pa.Table:
        kcol = b[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        v = pc.cast(b[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        bins = np.floor((v - lo) / w)
        bins = np.minimum(np.maximum(bins, 0.0), n_bins - 1).astype(np.int64)
        codes = np.asarray(
            kcol.dictionary_encode(null_encoding="encode").indices, dtype=np.int64
        )
        packed = codes * n_bins + bins
        cnt = np.bincount(packed)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                key_col: kcol.take(pa.array(_first_index_of(codes, nz // n_bins))),
                "bin": pa.array(nz % n_bins, pa.int64()),
                "n": pa.array(cnt[nz].astype(np.int64), pa.int64()),
            }
        )

    agg = guard.group_sums(
        ds.map_batches(partials, batch_format="pyarrow"), [key_col, "bin"], ["n"]
    )
    keys = agg[key_col].drop_duplicates()
    out = pd.DataFrame(
        {
            key_col: np.repeat(keys.to_numpy(), n_bins),
            "bin": np.tile(np.arange(n_bins, dtype=np.int64), len(keys)),
        }
    )
    out = out.merge(agg, on=[key_col, "bin"], how="left")
    out["n"] = out["n"].fillna(0).astype(np.int64)
    return out


def _first_index_of(codes: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """First row index holding each wanted dictionary code (vectorized)."""
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    pos = np.searchsorted(sorted_codes, wanted, side="left")
    return order[pos]
