"""Per-group top-k (heavy-hitter extraction) — round-3 operator.

The classic training-data shape: "highest-quality N documents per
language", "top N events per type".  Ray Data has ``Dataset.sort`` +
``limit`` (global) but no grouped top-k; a full groupby-sort would
shuffle the corpus.  Instead each batch keeps only its LOCAL top-k per
group (vectorized lexsort, no Python row loop); the slim local winners
then tree-combine (the kernel is associative, ``guard.tree_combine``)
until they fit a driver merge — the driver frame is bounded by the
driver budget regardless of #groups × #blocks.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.metrics import note
from . import guard
from .guard import tree_combine


def topk_per_group_batch(
    batch: pa.Table,
    *,
    key_col: str,
    value_col: str,
    id_col: str,
    k: int,
) -> pa.Table:
    """Local top-k rows per key within one batch: sort by (key, -value,
    id) with one lexsort, then keep the first k of each key run.

    NaN values are dropped (ADVICE r3: np.lexsort and SQL ``ORDER BY value
    DESC`` disagree on NaN placement, so rows with NaN ``value_col`` are
    excluded from ranking entirely — document/filter rather than diverge
    from the oracle).  ±inf remain orderable and are kept."""
    if len(batch) == 0:
        return batch
    nan_mask = pc.is_nan(pc.cast(batch[value_col], pa.float64()))
    if pc.any(nan_mask).as_py():
        batch = batch.filter(pc.invert(pc.fill_null(nan_mask, True)))
        if len(batch) == 0:
            return batch
    kcol = batch[key_col]
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    enc = kcol.dictionary_encode()
    codes = np.asarray(enc.indices, dtype=np.int64)
    vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, -vals, codes))
    sc = codes[order]
    # rank within each key run (runs are contiguous after the sort)
    starts = np.flatnonzero(np.concatenate([[True], sc[1:] != sc[:-1]]))
    run_of = np.searchsorted(starts, np.arange(sc.size), side="right") - 1
    rank = np.arange(sc.size) - starts[run_of]
    keep = order[rank < k]
    return batch.take(pa.array(np.sort(keep)))


def mode_batch(
    batch: pa.Table, *, key_col: str, value_col: str, n_col: str = "n"
) -> pa.Table:
    """Local argmax per key over (key, value, n) count rows: keep the row
    with the highest ``n`` per key, ties broken by ascending ``value``
    (deterministic, matches ``ROW_NUMBER … ORDER BY n DESC, value ASC``).
    Associative — safe to re-apply over concatenations of its own output."""
    if len(batch) == 0:
        return batch
    kcol = batch[key_col]
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    codes = np.asarray(kcol.dictionary_encode().indices, dtype=np.int64)
    counts = batch[n_col].to_numpy(zero_copy_only=False).astype(np.int64)
    vcol = batch[value_col]
    if isinstance(vcol, pa.ChunkedArray):
        vcol = vcol.combine_chunks()
    # tie-break ascending value: encode value order as a sortable int rank
    vrank = np.asarray(pc.rank(vcol, sort_keys="ascending", tiebreaker="dense"))
    order = np.lexsort((vrank, -counts, codes))
    sc = codes[order]
    first = np.concatenate([[True], sc[1:] != sc[:-1]])
    return batch.take(pa.array(np.sort(order[first])))


def mode_per_group(
    ds,
    *,
    key_col: str,
    value_col: str,
) -> pd.DataFrame:
    """Most frequent ``value_col`` per ``key_col`` (the modal category —
    e.g. dominant language per source/host) → DataFrame(key, mode_value, n).

    Shape: in-batch (key, value) count partials (distinct pairs per block,
    never input rows) → one hash aggregate over the pair universe → a local
    argmax kernel per output block (≤ #keys rows each) → ``guard.tree_combine``
    (the kernel is associative, so above the driver budget it re-applies
    over fanned-in blocks — mode per *host* on a web corpus has 10⁷–10⁸
    keys × hundreds of blocks) → driver merge of ≤ max(budget, #keys) rows
    with the SAME kernel.  Ties break to the smallest value
    (deterministic)."""
    from ray.data.aggregate import Sum

    def pair_partials(b: pa.Table) -> pa.Table:
        t = pa.table({key_col: b[key_col], value_col: b[value_col]})
        g = t.group_by([key_col, value_col]).aggregate([([], "count_all")])
        return pa.table(
            {
                key_col: g[key_col],
                value_col: g[value_col],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    pairs = (
        ds.map_batches(pair_partials, batch_format="pyarrow")
        .repartition(guard.shuffle_partitions())
        .groupby([key_col, value_col])
        .aggregate(Sum("n", alias_name="n"))
    )
    kw = dict(key_col=key_col, value_col=value_col)
    frame, levels = tree_combine(
        pairs.map_batches(mode_batch, fn_kwargs=kw, batch_format="pyarrow"),
        functools.partial(mode_batch, **kw),
    )
    note("rank.mode_per_group", driver_rows=len(frame), tree_levels=levels)
    if len(frame) == 0:
        return pd.DataFrame(columns=[key_col, "mode_value", "n"])
    top = mode_batch(pa.Table.from_pandas(frame, preserve_index=False), **kw)
    out = top.to_pandas().rename(columns={value_col: "mode_value"})
    out["n"] = out["n"].astype("int64")
    return (
        out.sort_values(key_col).reset_index(drop=True)[[key_col, "mode_value", "n"]]
    )


def topk_per_group(
    ds,
    *,
    key_col: str,
    value_col: str,
    id_col: str,
    k: int = 10,
) -> pd.DataFrame:
    """Exact grouped top-k → (key, rank, id, value), rank 1-based, ties
    broken by ascending id (deterministic).

    Local top-k per batch → ``guard.tree_combine``: above the driver
    budget the (associative) local kernel re-applies over fanned-in
    blocks, each level shrinking the per-group candidates toward k, so the
    driver frame is ≤ max(budget, #groups × k) instead of the unbounded
    #blocks × #groups × k — the same collect as ``reduce_partials`` in
    stages/zonal.py.  Rows with NaN ``value_col`` are excluded (see
    :func:`topk_per_group_batch`)."""
    kw = dict(key_col=key_col, value_col=value_col, id_col=id_col, k=k)
    frame, levels = tree_combine(
        ds.map_batches(topk_per_group_batch, fn_kwargs=kw, batch_format="pyarrow"),
        functools.partial(topk_per_group_batch, **kw),
    )
    note("rank.topk_per_group", driver_rows=len(frame), tree_levels=levels)
    if len(frame) == 0:
        return pd.DataFrame(columns=[key_col, "rank", id_col, value_col])
    # final exact merge: one more application of the local kernel over the
    # whole driver frame (vectorized — no Python loop over groups), then
    # rank within key runs
    top = topk_per_group_batch(
        pa.Table.from_pandas(frame, preserve_index=False), **kw
    )
    out = top.to_pandas()
    out = out.sort_values(
        [key_col, value_col, id_col], ascending=[True, False, True], kind="stable"
    ).reset_index(drop=True)
    starts = np.flatnonzero(
        np.concatenate([[True], out[key_col].to_numpy()[1:] != out[key_col].to_numpy()[:-1]])
    )
    run_of = np.searchsorted(starts, np.arange(len(out)), side="right") - 1
    out["rank"] = (np.arange(len(out)) - starts[run_of] + 1).astype(np.int64)
    return out[[key_col, "rank", id_col, value_col]]


def weighted_median_by_group(
    ds,
    *,
    key_col: str,
    value_col: str,
    weight_col: str,
    q: float = 0.5,
) -> "pd.DataFrame":
    """Exact lower weighted q-quantile per group → DataFrame(key, wq):
    the smallest value v with cumweight(≤ v) ≥ q · totalweight, weights
    summed in value order — the SQL cumulative-weight window definition.

    Shape: the (key, value) universe with its weight sums
    (``guard.universe``) → driver per-key cumsum + searchsorted on the
    universe-sized frame.  Exact whenever the DISTINCT (key, value)
    universe is bounded (integer quantities, prices in cents, categorical
    scores — the weighted-median use cases); for unbounded continuous
    values the universe approaches the input and the salted percentile
    machinery (stages/zonal.py: salted_group_percentiles) is the right
    tool, which the universe cap says.  A NULL key is a group of its own,
    last."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: b[key_col],
                value_col: pc.cast(b[value_col], pa.float64()),
                "w": pc.cast(b[weight_col], pa.float64()),
            }
        )

    uni = guard.universe(
        ds.map_batches(project, batch_format="pyarrow"),
        [key_col, value_col],
        sums=["w"],
        what="weighted_median_by_group",
    )
    rows = []
    for k, g in uni.groupby(key_col, sort=False, dropna=False):
        cw = np.cumsum(g["w"].to_numpy())
        tw = cw[-1]
        i = int(np.searchsorted(cw, q * tw, side="left"))
        # cw[i] may still be < q*tw by fp representation; SQL's >= test
        while cw[i] < q * tw:
            i += 1
        rows.append((k, g[value_col].to_numpy()[i]))
    return pd.DataFrame(rows, columns=[key_col, "wq"])


def winsorized_mean_by_group(
    ds,
    *,
    key_col: str,
    value_col: str,
    q_lo: float = 0.05,
    q_hi: float = 0.95,
) -> "pd.DataFrame":
    """Winsorized mean per group — the robust-statistics readout: clip
    each group's values at its own exact [q_lo, q_hi] quantiles
    (``quantile_cont`` linear interpolation), then average →
    DataFrame(key, n, lo, hi, wmean).

    ONE input pass: the (key, value) count universe (``guard.universe``);
    both the interpolated quantiles (``guard.quantile_cont``) AND the
    clipped mean finalize from the universe frame — ``Σ count·clip(value)``
    needs no second corpus read.  Exact for bounded distinct-value
    universes (ints, prices); for unbounded continuous values use the
    salted percentile machinery instead (stages/zonal.py).  A NULL key is
    a group of its own, last."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({key_col: b[key_col], "v": pc.cast(b[value_col], pa.float64())})

    uni = guard.universe(
        ds.map_batches(project, batch_format="pyarrow"),
        [key_col, "v"],
        what="winsorized_mean_by_group",
    )
    rows = []
    for key, g in uni.groupby(key_col, sort=False, dropna=False):
        v = g["v"].to_numpy(dtype=np.float64)
        c = g["n"].to_numpy(dtype=np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        lo = guard.quantile_cont(v, cum, q_lo)
        hi = guard.quantile_cont(v, cum, q_hi)
        clipped = np.clip(v, lo, hi)
        wmean = float((clipped * c).sum() / n)
        rows.append((key, n, lo, hi, wmean))
    return pd.DataFrame(rows, columns=[key_col, "n", "lo", "hi", "wmean"])


def rrf_fuse(
    rankings: "list[pd.DataFrame]",
    *,
    query_col: str,
    doc_col: str,
    rank_col: str = "rank",
    k: int = 60,
    top_n: int = 10,
) -> "pd.DataFrame":
    """Reciprocal Rank Fusion (Cormack, Clarke & Büttcher, SIGIR 2009):
    merge ranked lists per query by ``score(d) = Σ_lists 1/(k + rank_d)``
    → DataFrame(query, doc, score, rrf_rank ≤ top_n) — the standard
    hybrid-retrieval combiner (BM25 list ⊕ ANN list).

    Pure result-space arithmetic: inputs are top-k lists (queries × k
    rows each — produced distributed by topk_per_group / bm25_topk /
    knn), so fusion itself is driver-sized by construction.  Ties break
    by ascending doc id (ROW_NUMBER parity)."""
    import pandas as pd

    u = pd.concat(
        [r[[query_col, doc_col, rank_col]] for r in rankings], ignore_index=True
    )
    u["__s"] = 1.0 / (k + u[rank_col].to_numpy(dtype=np.float64))
    s = (
        u.groupby([query_col, doc_col], as_index=False)["__s"]
        .sum()
        .rename(columns={"__s": "score"})
    )
    s = s.sort_values(
        [query_col, "score", doc_col], ascending=[True, False, True], kind="stable"
    ).reset_index(drop=True)
    s["rrf_rank"] = s.groupby(query_col).cumcount() + 1
    out = s[s["rrf_rank"] <= top_n].reset_index(drop=True)
    return out


def gini_by_group(
    ds,
    *,
    key_col: str,
    value_col: str,
) -> "pd.DataFrame":
    """Gini coefficient per group → DataFrame(key, n, gini 6dp) — the
    inequality/concentration readout (host traffic concentration, spend
    skew): ``G = Σ (2·rank − n − 1)·x / (n · Σx)`` over each group's
    ascending values.

    Exactness: the rank-weighted sum over a tie block is invariant to
    rank assignment within the block, so it computes in closed form from
    the (key, value) count universe (``guard.universe``) —
    ``x·(2·(c·cum_before + c(c+1)/2) − c(n+1))`` per distinct value — all
    int64 when values are integral (cast upstream), making the result
    bit-identical to the SQL ROW_NUMBER form.  A NULL key is a group of
    its own, last."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({key_col: b[key_col], "v": pc.cast(b[value_col], pa.float64())})

    uni = guard.universe(
        ds.map_batches(project, batch_format="pyarrow"),
        [key_col, "v"],
        what="gini_by_group",
    )
    rows = []
    for k, g in uni.groupby(key_col, sort=False, dropna=False):
        v = g["v"].to_numpy(dtype=np.float64)
        c = g["n"].to_numpy(dtype=np.float64)
        n = c.sum()
        cum_before = np.concatenate([[0.0], np.cumsum(c)[:-1]])
        w = 2.0 * (c * cum_before + c * (c + 1.0) / 2.0) - c * (n + 1.0)
        num = float((v * w).sum())
        den = n * float((v * c).sum())
        rows.append((k, int(n), round(num / den, 6) if den else np.nan))
    return pd.DataFrame(rows, columns=[key_col, "n", "gini"])


def topk_dense_per_group(
    ds,
    *,
    key_col: str,
    value_col: str,
    k: int,
):
    """ALL rows whose value is among each group's top-``k`` DISTINCT
    values — SQL ``DENSE_RANK() ≤ k`` semantics (ties included, unlike
    :func:`topk_per_group`'s ROW_NUMBER form) → streaming Dataset.

    Shape: the distinct (key, value) universe aggregates distributed
    (in-batch drop-duplicates combiner); each group's k-th largest
    distinct value broadcasts as a threshold; the output is ONE
    vectorized ``value ≥ threshold`` filter pass — rows never shuffle,
    and the result streams (ties can make it arbitrarily large)."""
    import ray
    import pyarrow as pa
    import pyarrow.compute as pc

    from .joins import distinct_rows

    uni = (
        distinct_rows(
            ds.select_columns([key_col, value_col]),
            [key_col, value_col],
        )
        .to_pandas()  # (key, value)-universe-sized
        .sort_values([key_col, value_col], ascending=[True, False], kind="stable")
    )
    # threshold per group = smallest of its top-k distinct values (the
    # whole group's min when it has fewer than k distinct values)
    t = (
        uni.groupby(key_col, sort=False)
        .head(k)
        .groupby(key_col, sort=False)[value_col]
        .min()
    )
    keys = pa.array(t.index.astype(str), pa.string())
    vals = t.to_numpy(dtype=np.float64)
    ref = ray.put((keys, vals))

    def keep(b: pa.Table, *, _ref=ref) -> pa.Table:
        ks, vs = ray.get(_ref)
        idx = pc.index_in(
            pc.cast(b[key_col], pa.string()), value_set=ks
        ).to_numpy(zero_copy_only=False)
        v = pc.cast(b[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        return b.filter(pa.array(v >= vs[idx]))

    return ds.map_batches(keep, batch_format="pyarrow")


def ndcg_at_k(
    ranking: "pd.DataFrame",
    rels: "pd.DataFrame",
    *,
    query_col: str,
    doc_col: str,
    rank_col: str,
    rel_col: str,
    k: int = 10,
) -> "pd.DataFrame":
    """NDCG@k per query → DataFrame(query, dcg, idcg, ndcg 6dp):
    ``DCG = Σ_{i≤k} rel_i / log2(i + 1)`` over the ranking's order,
    ideal DCG from the same relevance multiset sorted descending —
    the standard retrieval-quality readout for fused/learned rankers.

    Result-space arithmetic (rankings are queries × k rows, produced
    distributed upstream); unjudged docs carry relevance 0."""
    import pandas as pd

    r = ranking[ranking[rank_col] <= k].merge(
        rels, on=[query_col, doc_col], how="left"
    )
    r[rel_col] = r[rel_col].fillna(0.0)
    r["g"] = r[rel_col] / np.log2(r[rank_col].to_numpy(dtype=np.float64) + 1.0)
    dcg = r.groupby(query_col, sort=True)["g"].sum()
    ideal = rels.sort_values(
        [query_col, rel_col], ascending=[True, False], kind="stable"
    ).copy()
    ideal["i"] = ideal.groupby(query_col).cumcount() + 1
    ideal = ideal[ideal["i"] <= k]
    ideal["g"] = ideal[rel_col] / np.log2(
        ideal["i"].to_numpy(dtype=np.float64) + 1.0
    )
    idcg = ideal.groupby(query_col, sort=True)["g"].sum()
    out = pd.DataFrame(
        {
            query_col: dcg.index,
            "dcg": dcg.to_numpy(),
            "idcg": idcg.reindex(dcg.index).fillna(0.0).to_numpy(),
        }
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        out["ndcg"] = np.round(
            np.where(out["idcg"] > 0, out["dcg"] / out["idcg"], 0.0), 6
        )
    out["dcg"] = np.round(out["dcg"], 6)
    out["idcg"] = np.round(out["idcg"], 6)
    return out.reset_index(drop=True)
