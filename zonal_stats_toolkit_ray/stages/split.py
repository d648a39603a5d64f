"""Training-data set operations: deterministic train/val splitting and
benchmark decontamination.

Both are standard large-corpus pipeline stages (north-rule "operations a
large-scale training-data pipeline would need"):

* :func:`split_assign_batch` — hash-based split assignment: a pure
  function of the id (Knuth multiplicative hash mod 2^32 against a
  fraction threshold), so the split is stable across runs, partitionings
  and cluster sizes, and is reproducible in SQL for the oracle.
* :func:`decontaminate` — mark documents sharing any word n-gram with a
  (small) benchmark set: the benchmark's n-gram hash set is built once,
  broadcast via ``ray.put``, and each batch checks membership with one
  vectorized ``np.isin`` over its own n-gram hashes.  The classic
  eval-set decontamination shape: benchmark ≪ corpus, corpus streams.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.metrics import note
from .dedup import word_ngram_hashes

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(0xFFFFFFFF)


def split_hash32(ids: np.ndarray) -> np.ndarray:
    """Knuth multiplicative hash of int64 ids → uint32 (as uint64 values);
    matches the oracle SQL ``(doc_id * 2654435761) % 4294967296``."""
    with np.errstate(over="ignore"):
        return (ids.astype(np.uint64) * _KNUTH) & _M32


def split_assign_batch(
    batch: pa.Table, *, id_col: str = "doc_id", val_fraction: float = 0.1
) -> pa.Table:
    """map_batches stage: adds ``split`` ("train" | "val") — val iff
    hash32(id) < val_fraction · 2^32.  Deterministic, order-independent,
    and exactly reproducible in integer SQL."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    h = split_hash32(ids)
    thresh = np.uint64(int(val_fraction * float(1 << 32)))
    is_val = h < thresh
    split = np.where(is_val, "val", "train")
    return batch.append_column("split", pa.array(split.tolist(), pa.string()))


def train_val_split(
    ds, *, id_col: str = "doc_id", val_fraction: float = 0.1
):
    """→ Dataset with a ``split`` column.  Filter downstream with
    ``ds.filter`` / per-batch masks; no shuffle, no materialization."""
    return ds.map_batches(
        split_assign_batch,
        batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "val_fraction": val_fraction},
    )


def benchmark_ngram_hashes(texts: pa.Array | pa.ChunkedArray, n: int) -> np.ndarray:
    """The benchmark side's distinct word n-gram hashes (driver-side; the
    benchmark set is small by definition)."""
    h, _ = word_ngram_hashes(texts, n)
    return np.unique(h)


def decontaminate(
    ds,
    benchmark_hashes: np.ndarray,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
):
    """→ Dataset(id, contaminated bool): True iff the document shares any
    word ``n``-gram with the benchmark.  The hash set ships once via
    ``ray.put`` (zero-copy plasma reads per task); each batch computes its
    own n-gram hashes vectorized and one ``np.isin`` per batch decides."""
    import ray

    bench = np.unique(np.asarray(benchmark_hashes, dtype=np.uint64))
    bench_ref = ray.put(bench) if ray.is_initialized() else bench

    def check(b: pa.Table) -> pa.Table:
        bh = bench_ref if isinstance(bench_ref, np.ndarray) else ray.get(bench_ref)
        h, d = word_ngram_hashes(b[text_col], n)
        hits = np.isin(h, bh)
        contaminated = np.zeros(len(b), dtype=bool)
        if hits.any():
            np.logical_or.at(contaminated, d[hits], True)
        return pa.table(
            {
                id_col: b[id_col],
                "contaminated": pa.array(contaminated),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        check, batch_format="pyarrow"
    )


def stratified_sample(
    ds,
    fractions: dict[str, float],
    *,
    id_col: str = "doc_id",
    strata_col: str = "lang",
    default_fraction: float = 0.0,
):
    """Deterministic per-stratum downsampling (class rebalancing): keep a
    row iff hash32(id) < fraction[stratum] · 2^32.  No shuffle, no
    randomness — the kept set is a pure function of (id, stratum), so
    reruns and different partitionings sample identically and the oracle
    reproduces it with integer SQL.  ``fractions`` is tiny (one entry per
    stratum) and travels in the task closure."""
    fr = {str(k): float(v) for k, v in fractions.items()}

    def keep(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = split_hash32(ids)
        strata = np.asarray(b[strata_col].to_pylist(), dtype=object)
        uniq, codes = np.unique(strata, return_inverse=True)
        per_stratum = np.array(
            [int(fr.get(s, default_fraction) * float(1 << 32)) for s in uniq.tolist()],
            dtype=np.uint64,
        )  # O(#strata) Python, O(rows) vectorized gather
        return b.filter(pa.array(h < per_stratum[codes]))

    return ds.map_batches(keep, batch_format="pyarrow")


def global_quantile(ds, *, value_col: str, percentiles: list[float]) -> list[float]:
    """EXACT global percentiles of a numeric column, distributed: one
    logical group fanned over salt buckets (the skew-safe
    ``salted_group_percentiles`` shuffle from the zonal path — no single
    worker ever holds the whole column).  Values ride the float32 value-bag
    path shared with the zonal reduce (exact for integer columns < 2^24
    and for float32-native data)."""
    import pyarrow.compute as pc

    from .zonal import salted_group_percentiles

    def rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "group_key": pa.array(["g"] * len(b), pa.string()),
                "value": pc.cast(b[value_col], pa.float32()),
            }
        )

    vals = ds.select_columns([value_col]).map_batches(rows, batch_format="pyarrow")
    gp = salted_group_percentiles(vals, [float(p) for p in percentiles])
    return [float(v) for v in gp.get("g", [float("nan")] * len(percentiles))]


def quantile_filter(
    ds,
    *,
    value_col: str,
    q: float = 90.0,
    keep: str = "ge",
):
    """Global-quantile threshold filter — "keep documents at or above the
    corpus p90 of this signal" (quality-score gating, length filtering).

    Two passes by design: a SLIM pass (value column only, pruned at the
    read) computes the exact global percentile via the salted distributed
    shuffle, then the full rows stream through a vectorized compare
    against the broadcast scalar threshold.  ``keep``: "ge" | "gt" |
    "le" | "lt".  The threshold is noted as ``split.quantile_filter``
    (``value_col`` / ``threshold``)."""
    import pyarrow.compute as pc

    ops = {
        "ge": pc.greater_equal,
        "gt": pc.greater,
        "le": pc.less_equal,
        "lt": pc.less,
    }
    if keep not in ops:
        raise ValueError(f"keep must be one of {sorted(ops)}")
    thr = global_quantile(ds, value_col=value_col, percentiles=[q])[0]
    note("split.quantile_filter", value_col=value_col, threshold=thr)
    cmp = ops[keep]

    def flt(b: pa.Table, *, _t=thr) -> pa.Table:
        return b.filter(cmp(pc.cast(b[value_col], pa.float64()), pa.scalar(_t)))

    return ds.map_batches(flt, batch_format="pyarrow")


def sample_n_per_group(
    ds,
    *,
    n: int,
    key_col: str,
    id_col: str = "doc_id",
):
    """Deterministic FIXED-COUNT per-group sample (the reservoir-sampling
    use case, made reproducible): keep the ``n`` rows with the smallest
    Knuth id hash in each group, ranked.  A pure function of (id, key) —
    partition-independent, SQL-expressible (ROW_NUMBER over the same hash)
    — unlike a true reservoir, reruns and backfills select identical rows.

    Composes the grouped-top-k kernel: local per-batch top-n by negated
    hash → blocks × groups × n driver merge.  Returns
    (key, sample_rank, id) sorted."""
    from .rank import topk_per_group

    def add_key(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = split_hash32(ids).astype(np.float64)  # < 2^32: float64-exact
        return b.append_column("__neg_hash", pa.array(-h, pa.float64()))

    withk = ds.select_columns([key_col, id_col]).map_batches(
        add_key, batch_format="pyarrow"
    )
    out = topk_per_group(
        withk, key_col=key_col, value_col="__neg_hash", id_col=id_col, k=n
    )
    out = out.rename(columns={"rank": "sample_rank"}).drop(columns=["__neg_hash"])
    return out[[key_col, "sample_rank", id_col]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# Bloom-filter decontamination (round 4) — the scale path for benchmark
# sets too large to broadcast exactly.  A Bloom filter at 1% FP is ~1.2
# bytes/element vs 8 bytes/element for the exact uint64 hash set (~7×),
# and the guarantee direction is the SAFE one for decontamination: no
# false negatives — every truly contaminated document is flagged; a small
# FP fraction of clean documents is over-flagged (cheap: they are merely
# dropped from training).
# ---------------------------------------------------------------------------

class BloomFilter:
    """Vectorized Bloom filter over uint64 keys.  Double hashing: probe i
    uses ``(h1 + i·h2) mod m`` (Kirsch–Mitzenmacher), with h2 a SplitMix64
    remix of the key, so adds and lookups are pure NumPy over all keys at
    once — no per-element Python."""

    def __init__(self, capacity: int, fp_rate: float = 0.01):
        capacity = max(1, int(capacity))
        ln2 = np.log(2.0)
        m = int(np.ceil(-capacity * np.log(fp_rate) / (ln2 * ln2)))
        self.m = max(64, m)
        self.k = max(1, int(round(self.m / capacity * ln2)))
        self.bits = np.zeros((self.m + 63) // 64, dtype=np.uint64)

    @staticmethod
    def _h2(h: np.ndarray) -> np.ndarray:
        # SplitMix64 finalizer — independent second hash stream; forced
        # odd so probe strides never collapse to 0
        z = h.astype(np.uint64)
        with np.errstate(over="ignore"):
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return (z ^ (z >> np.uint64(31))) | np.uint64(1)

    def _probes(self, h: np.ndarray, i: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            idx = (h.astype(np.uint64) + np.uint64(i) * self._h2(h)) % np.uint64(self.m)
        return idx

    def add_many(self, h: np.ndarray) -> None:
        h = np.asarray(h, dtype=np.uint64)
        for i in range(self.k):
            idx = self._probes(h, i)
            np.bitwise_or.at(
                self.bits, (idx >> np.uint64(6)).astype(np.int64),
                np.uint64(1) << (idx & np.uint64(63)),
            )

    def contains_many(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.uint64)
        out = np.ones(h.size, dtype=bool)
        for i in range(self.k):
            idx = self._probes(h, i)
            word = self.bits[(idx >> np.uint64(6)).astype(np.int64)]
            out &= (word >> (idx & np.uint64(63))) & np.uint64(1) != 0
        return out


def decontaminate_bloom(
    ds,
    benchmark_hashes: np.ndarray,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
    fp_rate: float = 0.01,
):
    """Bloom-filter variant of :func:`decontaminate` → Dataset(id,
    contaminated).  Supersets the exact answer (no false negatives; FP
    fraction ≈ ``fp_rate`` of clean docs' n-grams).  The filter is built
    once on the driver from the benchmark hash set and broadcast via
    ``ray.put`` — at web scale ship only the bit array, never the raw
    benchmark set."""
    import ray

    from .dedup import word_ngram_hashes  # noqa: F401  (shared kernel import path)

    bench = np.unique(np.asarray(benchmark_hashes, dtype=np.uint64))
    bf = BloomFilter(bench.size, fp_rate=fp_rate)
    bf.add_many(bench)
    ref = ray.put((bf.bits, bf.m, bf.k)) if ray.is_initialized() else (bf.bits, bf.m, bf.k)

    def check(b: pa.Table, _r=ref) -> pa.Table:
        import ray as _ray

        bits, m, k = _ray.get(_r) if not isinstance(_r, tuple) else _r
        f = BloomFilter.__new__(BloomFilter)
        f.bits, f.m, f.k = bits, m, k
        from .dedup import word_ngram_hashes as _wn

        h, d = _wn(b[text_col], n)
        hits = f.contains_many(h)
        contaminated = np.zeros(len(b), dtype=bool)
        if hits.any():
            np.logical_or.at(contaminated, d[hits], True)
        return pa.table(
            {id_col: b[id_col], "contaminated": pa.array(contaminated)}
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        check, batch_format="pyarrow"
    )


def mixture_sample(
    ds,
    *,
    key_col: str = "source",
    id_col: str = "doc_id",
    weights: dict[str, float] | None = None,
):
    """Deterministic mixture balancing (round-5 operator): subsample each
    ``key_col`` stratum so the output composition matches the target
    ``weights`` at the largest total that needs NO upsampling —
    ``T = min_s(count_s / w_s)``, per-stratum keep-rate ``w_s·T/count_s``
    (the limiting stratum keeps everything).  ``weights=None`` means equal
    targets, where the rate reduces to ``min_count / count_s`` — the exact
    expression the SQL oracle evaluates, so engine and oracle agree on the
    float64 threshold bit-for-bit.

    Selection is the Knuth-hash Bernoulli filter of ``train_val_split``:
    keep iff ``hash32(id) < floor(rate · 2^32)`` — order-independent,
    shuffle-free, reproducible, and composable with the other split ops
    (the same document is kept or dropped regardless of partitioning).

    Shape: one tiny per-stratum count aggregate (partial in-batch — rows
    shuffled = strata × blocks) → rates broadcast in the closure (strata
    are few by definition) → one vectorized filter pass.  No corpus-sized
    state, no shuffle of data rows."""
    counts = (
        ds.map_batches(
            lambda t: pa.table(
                {key_col: t[key_col]}
            ).group_by(key_col).aggregate([(key_col, "count")]),
            batch_format="pyarrow",
        )
        .to_pandas()
        .groupby(key_col)[f"{key_col}_count"]
        .sum()
    )
    if len(counts) == 0:
        return ds
    if weights is None:
        min_c = float(counts.min())
        thresholds = {
            k: int(np.floor(min_c / float(c) * 4294967296.0))
            for k, c in counts.items()
        }
    else:
        missing = set(counts.index) - set(weights)
        if missing:
            raise ValueError(f"weights missing strata: {sorted(missing)}")
        total = float(min(float(counts[k]) / float(w) for k, w in weights.items()
                          if k in counts.index))
        thresholds = {
            k: int(
                np.floor(
                    min(1.0, float(weights[k]) * total / float(counts[k]))
                    * 4294967296.0
                )
            )
            for k in counts.index
        }

    def keep(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = split_hash32(ids)
        kcol = b[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        enc = kcol.dictionary_encode()
        kdict = enc.dictionary.to_pylist()
        thr_by_code = np.array(
            [thresholds.get(k, 0) for k in kdict], dtype=np.uint64
        )
        codes = np.asarray(enc.indices, dtype=np.int64)
        mask = h < thr_by_code[codes]
        return b.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def weighted_sample(
    ds,
    *,
    id_col: str = "doc_id",
    weight_col: str = "n_chars",
    expected_k: float = 100.0,
):
    """Deterministic weighted Bernoulli sample: row i is kept iff
    hash32(id_i) < (expected_k · w_i / W) · 2^32, where W = Σw — inclusion
    probability proportional to weight, expected sample size ``expected_k``,
    stable across runs / partitionings / cluster sizes (a pure function of
    the id, like :func:`split_assign_batch`).

    This is the importance-weighted corpus-sampling shape (sample documents
    proportional to length / quality) chosen over Efraimidis–Spirakis
    top-k because every comparison is ``uint32 < float64`` with both sides
    derived from exact integers — a SQL oracle reproduces it bit-for-bit,
    with no libm ``ln`` last-ulp ordering hazard at the k-boundary.

    Two passes by design: a SLIM pruned pass sums the weight column
    (driver scalar), then rows stream through a vectorized compare.  Rows
    with w_i ≥ W/expected_k are kept with probability 1 (threshold ≥ 2^32).
    """
    import pyarrow.compute as pc

    w_total = float(
        ds.select_columns([weight_col]).sum(weight_col)  # slim exact pass
    )
    if w_total <= 0:
        return ds.filter(lambda _: False)
    scale = 4294967296.0

    def keep(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = b[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        h = split_hash32(ids).astype(np.float64)
        thr = (expected_k * w / w_total) * scale
        return b.filter(pa.array(h < thr))

    return ds.map_batches(keep, batch_format="pyarrow")
