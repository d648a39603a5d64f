"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the library) calls ray.init()/ray.shutdown().

``queries()`` exposes one callable per implemented operator/pipeline from
SURVEY.md §2 plus the training-data operators (dedup family with
certificates, similarity search, text analysis, HTML extraction,
tumbling/hopping/session windows, split/sample/shuffle/decontaminate set
ops, multimodal plumbing).  ``oracle_sql()`` provides the
DuckDB-equivalent SQL for every SQL-expressible query — column names
match 1:1.  Approximate/heuristic operators additionally ship CERTIFICATE
queries: deterministic pass/fail rows (accuracy bound, recall on
guaranteed-recall inputs, structural properties) against all-TRUE SQL, so
a quality regression breaks the value hash.  The remaining rows-only
entries (LSH dedup row output, IVF top-k, language ID, multimodal,
config/resume jobs) are gated by golden-oracle/pytest conformance in
tests/.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# library imports must resolve no matter the driver's cwd
_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# Deterministic integer geocode used by the SQL-checkable grid-zonal
# queries: pure int64 arithmetic reproducible in both NumPy and DuckDB.
#   lon_centi = (doc_id * 9973) % 36000      lon = lon_centi/100 - 180
#   lat_centi = (doc_id * 9931) % 18000      lat = lat_centi/100 - 90
#   zone_id   = (lat_centi // 3000) * 12 + (lon_centi // 3000)   (30° grid)
_GEO_SQL = (
    "((doc_id * 9931) % 18000) // 3000 * 12 + ((doc_id * 9973) % 36000) // 3000"
)


def _grid_zone_batch(batch: pa.Table) -> pa.Table:
    doc_id = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lon_c = (doc_id * 9973) % 36000
    lat_c = (doc_id * 9931) % 18000
    zone = (lat_c // 3000) * 12 + (lon_c // 3000)
    return batch.append_column("zone_id", pa.array(zone, pa.int64()))


# ---------------------------------------------------------------------------
# query implementations (each takes sf_dir, returns Dataset/DataFrame/Table)
# ---------------------------------------------------------------------------


def q_zonal_grid_join(sf_dir: str):
    """Spatial-join rows: every doc with its grid-zone assignment (J1
    analogue in SQL-checkable form)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    return ds.map_batches(_grid_zone_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "zone_id"]
    )


def q_zonal_grid_stats(sf_dir: str):
    """Grouped zonal statistics per grid zone (A1+A2+A3 analogue): count /
    sum / min / max / avg of n_chars.  Two-level reduce: vectorized partials
    per batch, then a tiny groupby-merge shuffle."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def partials(b: pa.Table) -> pa.Table:
        b = _grid_zone_batch(b)
        z = b["zone_id"].to_numpy(zero_copy_only=False)
        v = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, codes = np.unique(z, return_inverse=True)
        k = uniq.size
        return pa.table(
            {
                "zone_id": pa.array(uniq, pa.int64()),
                "n_docs": pa.array(np.bincount(codes, minlength=k).astype(np.int64)),
                "sum_nchars": pa.array(
                    np.bincount(codes, weights=v, minlength=k).astype(np.int64)
                ),
                "min_nchars": pa.array(
                    np.minimum.reduceat(
                        v[np.argsort(codes, kind="stable")],
                        np.searchsorted(np.sort(codes), np.arange(k)),
                    ).astype(np.int64)
                ),
                "max_nchars": pa.array(
                    np.maximum.reduceat(
                        v[np.argsort(codes, kind="stable")],
                        np.searchsorted(np.sort(codes), np.arange(k)),
                    ).astype(np.int64)
                ),
            }
        )

    p = ds.map_batches(partials, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n_docs"].sum())
        s = int(g["sum_nchars"].sum())
        return pd.DataFrame(
            {
                "zone_id": [int(g["zone_id"].iloc[0])],
                "n_docs": [n],
                "sum_nchars": [s],
                "min_nchars": [int(g["min_nchars"].min())],
                "max_nchars": [int(g["max_nchars"].max())],
                "avg_nchars": [s / n],
            }
        )

    out = p.groupby("zone_id").map_groups(merge, batch_format="pandas").to_pandas()
    return out.sort_values("zone_id").reset_index(drop=True)


def q_zonal_grid_percentiles(sf_dir: str):
    """Exact grouped percentiles per grid zone (A4 analogue), float64 path
    so it matches quantile_cont bit-for-bit (rounded to 6dp both sides)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    z = ds.map_batches(_grid_zone_batch, batch_format="pyarrow")

    def pcts(g: pd.DataFrame) -> pd.DataFrame:
        v = g["n_chars"].to_numpy(dtype=np.float64)
        p = np.percentile(v, [5.0, 50.0, 95.0])
        return pd.DataFrame(
            {
                "zone_id": [int(g["zone_id"].iloc[0])],
                "p5": [round(float(p[0]), 6)],
                "p50": [round(float(p[1]), 6)],
                "p95": [round(float(p[2]), 6)],
            }
        )

    out = z.groupby("zone_id").map_groups(pcts, batch_format="pandas").to_pandas()
    return out.sort_values("zone_id").reset_index(drop=True)


def q_groupby_lineitem(sf_dir: str):
    """TPC-H-Q1-shaped grouped aggregate — true A1/A2 partial+final over a
    600k-row fact table: each batch combines to (group, partial) rows with
    one vectorized Arrow ``group_by`` (6 groups × blocks rows move, never
    600k), then a tiny driver merge.  Round 4: replaced the native
    sort-aggregate (the full-row shuffle cost ~2× the partial+final wall
    at this group cardinality; at ANY scale the shuffled volume here is
    blocks×groups).  Integer-valued doubles → exact sums."""
    import ray.data as rd

    cutoff = pd.Timestamp("1998-09-02")

    def part(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less_equal(b["l_shipdate"], pa.scalar(cutoff)))
        if len(b) == 0:
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.float64()),
                    "min_qty": pa.array([], pa.float64()),
                    "max_qty": pa.array([], pa.float64()),
                    "count_order": pa.array([], pa.int64()),
                }
            )
        g = (
            pa.table(
                {
                    "rf": b["l_returnflag"],
                    "ls": b["l_linestatus"],
                    "q": b["l_quantity"],
                }
            )
            .group_by(["rf", "ls"])
            .aggregate([("q", "sum"), ("q", "min"), ("q", "max"), ("q", "count")])
        )
        return pa.table(
            {
                "l_returnflag": g["rf"],
                "l_linestatus": g["ls"],
                "sum_qty": pc.cast(g["q_sum"], pa.float64()),
                "min_qty": g["q_min"],
                "max_qty": g["q_max"],
                "count_order": pc.cast(g["q_count"], pa.int64()),
            }
        )

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_shipdate"],
    )
    p = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    out = (
        p.groupby(["l_returnflag", "l_linestatus"], sort=False)
        .agg(
            sum_qty=("sum_qty", "sum"),
            min_qty=("min_qty", "min"),
            max_qty=("max_qty", "max"),
            count_order=("count_order", "sum"),
        )
        .reset_index()
    )
    out["avg_qty"] = out["sum_qty"] / out["count_order"]
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def q_filter_project(sf_dir: str):
    """Filter + projection + computed column (M5/M6 analogue), fully
    vectorized Arrow."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderstatus"],
    )

    def f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["o_totalprice"], 400000.0))
        t = t.append_column(
            "price_k", pc.divide(t["o_totalprice"], 1000.0)
        )
        return t.select(["o_orderkey", "o_totalprice", "price_k"])

    return ds.map_batches(f, batch_format="pyarrow")


def q_topk_orders(sf_dir: str):
    """Top-k with deterministic tie-break (O-ops; sort is the shuffle)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    out = ds.sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    ).limit(10)
    return out.to_pandas()


def q_join_broadcast(sf_dir: str):
    """Broadcast hash join (J2 analogue: small side shipped once via
    ray.put, looked up vectorized per batch) + grouped aggregate."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    cust = (
        rd.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        )
        .to_pandas()
    )
    lut_keys = cust["c_custkey"].to_numpy(np.int64)
    order = np.argsort(lut_keys)
    seg_ref = ray.put(
        (lut_keys[order], cust["c_mktsegment"].to_numpy()[order])
    )

    class AttachSegment:
        def __init__(self, ref):
            ks, vs = ray.get(ref)
            self.keys = ks
            self.vals = vs

        def __call__(self, t: pa.Table) -> pa.Table:
            ck = t["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.keys, ck)
            pos = np.clip(pos, 0, len(self.keys) - 1)
            ok = self.keys[pos] == ck
            seg = np.where(ok, self.vals[pos], None)
            return t.append_column("c_mktsegment", pa.array(seg.tolist(), pa.string()))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    joined = orders.map_batches(
        AttachSegment,
        fn_constructor_kwargs={"ref": seg_ref},
        batch_format="pyarrow",
        concurrency=2,
    )
    out = (
        joined.groupby("c_mktsegment")
        .aggregate(
            Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="revenue")
        )
        .to_pandas()
    )
    out["revenue"] = out["revenue"].round(2)
    return out.sort_values("c_mktsegment").reset_index(drop=True)


def q_pages(sf_dir: str):
    """The pages corpus itself (url construction + text passthrough) —
    value-hash match against SQL-constructed urls verifies the per-row
    byte-identity invariant of `text` per `url` (input_hint)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.sources.pages import docs_batch_to_pages

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    return ds.map_batches(docs_batch_to_pages, batch_format="pyarrow").select_columns(
        ["url", "text", "lang"]
    )


def q_semi_join(sf_dir: str):
    """Broadcast semi join (ray_guide: ship the key set once, filter
    vectorized per batch): lineitems of orders above a price threshold,
    then a grouped rollup."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum
    from zonal_stats_toolkit_ray.stages.joins import semi_join

    hot = (
        rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
        .map_batches(
            lambda t: t.filter(pc.greater(t["o_totalprice"], 300000.0)).select(
                ["o_orderkey"]
            ),
            batch_format="pyarrow",
        )
        .to_pandas()["o_orderkey"]
        .to_numpy()
    )
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_quantity"],
    )
    kept = semi_join(li, hot, "l_orderkey")
    out = (
        kept.groupby("l_returnflag")
        .aggregate(Count(alias_name="n_rows"), Sum("l_quantity", alias_name="sum_qty"))
        .to_pandas()
    )
    return out.sort_values("l_returnflag").reset_index(drop=True)


def q_hash_join(sf_dir: str):
    """lineitem ⋈ orders on orderkey → distributed grouped rollup.  At real
    scale neither side is broadcastable: both hash-shuffle into buckets and
    matching buckets join pairwise (Ray Dataset.join).  At testdata scale
    `hash_join`'s smallness probe (round 4) detects the small orders build
    side and routes to the broadcast fallback — same rows either way
    (tests/test_joins.py pins both paths to pandas merge)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    )
    j = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey", num_partitions=8)

    # rollup via per-batch partials + tiny driver merge — the join already
    # paid one hash shuffle; a second full groupby shuffle would double the
    # fixed cost to merge a handful of status rows
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby("o_orderstatus", sort=False)
            .agg(n_rows=("o_orderstatus", "size"), sum_qty=("l_quantity", "sum"))
            .reset_index()
        )

    p = j.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        p.groupby("o_orderstatus", sort=False)
        .agg(n_rows=("n_rows", "sum"), sum_qty=("sum_qty", "sum"))
        .reset_index()
    )
    out["n_rows"] = out["n_rows"].astype("int64")
    out["sum_qty"] = out["sum_qty"].round(6)
    return out.sort_values("o_orderstatus").reset_index(drop=True)


def q_left_join(sf_dir: str):
    """customer LEFT OUTER JOIN orders — the null-preserving join path
    (round-4): customers without orders survive with null order columns.
    Same engine as `hash_join` (broadcast fallback below threshold, native
    hash-shuffle join above); nulls coalesced to sentinels IN THE ENGINE so
    the compared frame has stable integer dtypes (Arrow int64-with-null →
    pandas float64 would hash differently than DuckDB's)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import hash_join

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )
    j = hash_join(cust, orders, on="c_custkey", right_on="o_custkey", how="left")

    def finalize(b: pa.Table) -> pa.Table:
        ok = pc.fill_null(pc.cast(b["o_orderkey"], pa.int64()), -1)
        tp = pc.round(pc.fill_null(b["o_totalprice"], 0.0), 6)
        return pa.table(
            {
                "c_custkey": b["c_custkey"],
                "c_nationkey": b["c_nationkey"],
                "o_orderkey": ok,
                "o_totalprice": tp,
            }
        )

    out = (
        j.map_batches(finalize, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["c_custkey", "o_orderkey"])
        .reset_index(drop=True)
    )
    return out


def q_full_join(sf_dir: str):
    """Even-custkey customers FULL OUTER JOIN orders — both unmatched
    directions survive (customers with no orders, orders whose customer was
    filtered out).  Always the native hash-shuffle path: a per-batch
    broadcast probe cannot know a build row is globally unmatched, so
    ``hash_join`` refuses ``broadcast=True`` for full outer (tested).  Ray
    coalesces the join key into the left column name; null payloads are
    coalesced to sentinels IN THE ENGINE for stable integer dtypes."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import hash_join

    cust = (
        rd.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        .map_batches(
            lambda b: b.filter(
                pc.equal(pc.bit_wise_and(b["c_custkey"], 1), 0)
            ),
            batch_format="pyarrow",
        )
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )
    j = hash_join(cust, orders, on="c_custkey", right_on="o_custkey", how="full_outer")

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(b["c_custkey"], pa.int64()),
                "c_nationkey": pc.fill_null(pc.cast(b["c_nationkey"], pa.int64()), -1),
                "o_orderkey": pc.fill_null(pc.cast(b["o_orderkey"], pa.int64()), -1),
                "o_totalprice": pc.round(pc.fill_null(b["o_totalprice"], 0.0), 6),
            }
        )

    return (
        j.map_batches(finalize, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["c_custkey", "o_orderkey"])
        .reset_index(drop=True)
    )


def q_normalize_text(sf_dir: str):
    """Unicode normalization pass (NFC → lower → collapse whitespace →
    trim), the canonical pre-dedup cleanup: four Arrow kernels per batch,
    oracle = the identical DuckDB scalar chain (kernel parity documented in
    stages/text.py:normalize_text_batch)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.text import normalize_text_batch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(normalize_text_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "norm_text", "n_norm_chars"])


def q_asof_join(sf_dir: str):
    """Per-user as-of self join on events: attach the most recent prior (or
    simultaneous) 'click' value to every event; grouped rollup keeps the
    compared result small and float-stable (counts + rounded sums)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import asof_join_self

    ds = rd.read_parquet(f"{sf_dir}/events.parquet")
    joined = asof_join_self(ds)  # Dataset — the join output streams

    # distributed rollup: per-batch partials (rows = #event_types per
    # block) → tiny driver merge; the corpus-sized join never materializes
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.assign(has_click=b["last_click_value"].notna())
            .groupby("event_type", sort=False)
            .agg(
                n_events=("event_type", "size"),
                n_with_click=("has_click", "sum"),
                sum_click_value=("last_click_value", "sum"),
            )
            .reset_index()
        )

    p = joined.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        p.groupby("event_type", sort=False)
        .agg(
            n_events=("n_events", "sum"),
            n_with_click=("n_with_click", "sum"),
            sum_click_value=("sum_click_value", "sum"),
        )
        .reset_index()
    )
    out["n_events"] = out["n_events"].astype("int64")
    out["n_with_click"] = out["n_with_click"].astype("int64")
    out["sum_click_value"] = out["sum_click_value"].round(6)
    return out.sort_values("event_type").reset_index(drop=True)


def q_next_click(sf_dir: str):
    """FORWARD as-of (next-click attribution): attach the NEXT 'click'
    value (smallest click ts ≥ event ts, same user; ties at the same ts
    → max value, the engine's deterministic rule) to every event — by
    TIME REFLECTION ts' = T0 − ts over the chunked backward as-of join
    (sandbox lesson 37: a forward frame is a trailing frame on reflected
    time; no new shuffle shape).  Same grouped rollup as q_asof_join.
    Oracle: min-following-click window + max-value-at-ts join in SQL."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import asof_join_self

    T0 = pd.Timestamp("2030-01-01").value // 1000  # epoch µs, past all data

    def reflect(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": pc.cast(
                    pc.subtract(pa.scalar(T0, pa.int64()), us), pa.timestamp("us")
                ),
                "event_type": t["event_type"],
                "value": t["value"],
            }
        )

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    ).map_batches(reflect, batch_format="pyarrow")
    joined = asof_join_self(ds)  # backward on reflected = forward on real

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.assign(has_click=b["last_click_value"].notna())
            .groupby("event_type", sort=False)
            .agg(
                n_events=("event_type", "size"),
                n_with_click=("has_click", "sum"),
                sum_next_value=("last_click_value", "sum"),
            )
            .reset_index()
        )

    p = joined.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        p.groupby("event_type", sort=False)
        .agg(
            n_events=("n_events", "sum"),
            n_with_click=("n_with_click", "sum"),
            sum_next_value=("sum_next_value", "sum"),
        )
        .reset_index()
    )
    out["n_events"] = out["n_events"].astype("int64")
    out["n_with_click"] = out["n_with_click"].astype("int64")
    out["sum_next_value"] = out["sum_next_value"].round(6)
    return out.sort_values("event_type").reset_index(drop=True)


def q_range_join(sf_dir: str):
    """Broadcast point-in-interval range join (round-3 operator): every
    'click' event joined to the 1-hour windows opened by the same user's
    'signup' events.  The interval side is day-bucketed, packed into one
    sorted composite key array and broadcast once; each event batch
    resolves candidates with two vectorized searchsorted calls — no
    shuffle.  Oracle: the equivalent non-equi SQL join."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import range_join_broadcast

    iv = pq.read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    iv = iv.filter(pc.equal(iv["event_type"], "signup"))
    start = pc.cast(pc.cast(iv["ts"], pa.timestamp("us")), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    intervals = pa.table(
        {
            "user_id": iv["user_id"],
            "start_us": pa.array(start, pa.int64()),
            "end_us": pa.array(start + 3_600_000_000, pa.int64()),
            "window_start": pa.array(start, pa.int64()),
        }
    )
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    clicks = ds.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")),
        batch_format="pyarrow",
    )
    joined = range_join_broadcast(
        clicks,
        intervals,
        key_col="user_id",
        ts_col="ts",
        interval_key_col="user_id",
        start_col="start_us",
        end_col="end_us",
        payload_cols=["window_start"],
    )
    return joined.select_columns(["event_id", "window_start", "value"])


def q_topk_events(sf_dir: str):
    """Grouped top-k (heavy hitters, round-3 operator): top 5 events per
    event_type by value, ties by ascending event_id.  Local top-k per
    batch → driver merges blocks × groups × k slim rows.  Oracle:
    ROW_NUMBER() window."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.rank import topk_per_group

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    out = topk_per_group(
        ds, key_col="event_type", value_col="value", id_col="event_id", k=5
    )
    out["value"] = out["value"].round(6)
    return out


def q_approx_distinct_cert(sf_dir: str):
    """HyperLogLog approximate COUNT(DISTINCT user_id) per event_type with
    a hash-checkable error certificate: |HLL − exact| / exact ≤ 0.05
    (m=4096 registers → σ ≈ 1.6 %, and the shipped cardinalities sit in
    the near-exact linear-counting regime — measured < 1 % on every sf
    dir).  The exact side is an independent in-query distinct count; the
    oracle asserts every group row is TRUE."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.sketch import approx_distinct_by_group

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    est = approx_distinct_by_group(ds, key_col="event_type", value_col="user_id")

    def pairs(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    exact = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .to_pandas()
        .drop_duplicates()
        .groupby("event_type")["user_id"]
        .nunique()
    )
    rows = []
    for _, r in est.iterrows():
        ex = float(exact[r["key"]])
        rows.append(
            {
                "event_type": r["key"],
                "distinct_ok": bool(abs(r["approx_distinct"] - ex) / ex <= 0.05),
            }
        )
    return pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)


def q_approx_percentiles(sf_dir: str):
    """Mergeable-sketch grouped percentiles with a HASH-CHECKABLE
    bounded-error certificate (round-2: was rows-only).  The sketch values
    themselves are approximate, so the emitted row per zone is the
    pass/fail of the accuracy bound |sketch − exact| / value_range ≤ 0.02
    (the same bound tests/test_sketch.py gates) against an independent
    ``np.percentile`` ground truth; the oracle simply asserts every zone
    row is TRUE — a sketch regression flips rows to FALSE and breaks the
    value hash."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.sketch import approx_group_percentiles

    PL = [5.0, 50.0, 95.0]
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    z = ds.map_batches(_grid_zone_batch, batch_format="pyarrow")
    vals = z.map_batches(
        lambda t: pa.table(
            {
                "group_key": pc.cast(t["zone_id"], pa.string()),
                "value": pc.cast(t["n_chars"], pa.float64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    res = approx_group_percentiles(vals, PL)

    # independent ground truth (tiny at verification scale; the sketch
    # remains the scale path — this check is the certificate).  Bound in
    # RANK space: the estimate must sit within 2 positions + 2%·n of the
    # target rank in the group's sorted values (a value-space bound is
    # meaningless for tiny groups where the histogram interpolates between
    # a handful of points).
    vdf = vals.to_pandas()
    rows = []
    for k in sorted(res, key=lambda kv: int(kv)):
        est = np.asarray(res[k], dtype=np.float64)
        v = np.sort(vdf.loc[vdf["group_key"] == k, "value"].to_numpy())
        n = v.size
        ok = True
        for p, e in zip(PL, est):
            lo = np.searchsorted(v, e, side="left")
            hi = np.searchsorted(v, e, side="right")
            target = p / 100.0 * n
            d = 0.0 if lo <= target <= hi else min(abs(target - lo), abs(target - hi))
            ok &= d <= 2.0 + 0.02 * n
        rows.append({"zone_id": int(k), "within_tol": bool(ok)})
    return pd.DataFrame(rows)


def q_anti_join(sf_dir: str):
    """Broadcast ANTI join: customers with NO orders above a threshold —
    the blocklist-filter shape (key set shipped once, inverted membership
    test per batch)."""
    import ray.data as rd
    from ray.data.aggregate import Count
    from zonal_stats_toolkit_ray.stages.joins import semi_join

    hot = (
        rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
        .map_batches(
            lambda t: t.filter(pc.greater(t["o_totalprice"], 400000.0)).select(
                ["o_custkey"]
            ),
            batch_format="pyarrow",
        )
        .to_pandas()["o_custkey"]
        .unique()
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    cold = semi_join(cust, hot, "c_custkey", anti=True)
    out = (
        cold.groupby("c_mktsegment")
        .aggregate(Count(alias_name="n_customers"))
        .to_pandas()
    )
    if len(out) == 0:
        return pd.DataFrame(
            {"c_mktsegment": pd.Series(dtype=object),
             "n_customers": pd.Series(dtype=np.int64)}
        )
    return out.sort_values("c_mktsegment").reset_index(drop=True)


def q_union_distinct(sf_dir: str):
    """Set operators: union of two filtered order subsets → distinct rows →
    grouped count (Dataset.union + dedup via groupby)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    big = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus", "o_totalprice"]
    ).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 350000.0)),
        batch_format="pyarrow",
    )
    prio = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice", "o_orderpriority"],
    ).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")).select(
            ["o_orderkey", "o_orderstatus", "o_totalprice"]
        ),
        batch_format="pyarrow",
    )
    both = big.union(prio)

    # distinct via in-batch drop_duplicates combiner + native hash
    # aggregate — NOT per-group map_groups head(1), which costs a pandas
    # callback per key (~one group per row; measured 7× slower on the
    # exact-dedup path).  Rows with equal o_orderkey are identical by
    # construction, so Min(o_orderstatus) reproduces the row.
    from ray.data.aggregate import Min

    combined = both.map_batches(
        lambda df: df.drop_duplicates("o_orderkey"), batch_format="pandas"
    )
    distinct = combined.groupby("o_orderkey").aggregate(
        Min("o_orderstatus", alias_name="o_orderstatus")
    )

    # second-level rollup via per-batch partials + driver merge — the
    # distinct step already paid the only necessary shuffle; counting a
    # handful of statuses doesn't warrant another
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby("o_orderstatus", sort=False)
            .size()
            .rename("n_orders")
            .reset_index()
        )

    p = distinct.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        p.groupby("o_orderstatus", sort=False)
        .agg(n_orders=("n_orders", "sum"))
        .reset_index()
    )
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("o_orderstatus").reset_index(drop=True)


def q_distinct_langs(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    vals = sorted(ds.unique("lang"))
    return pd.DataFrame({"lang": vals})


def q_dedup_exact(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.dedup import exact_dedup
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = exact_dedup(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_token_stats(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.text import token_stats_batch
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(token_stats_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "n_chars", "n_tokens", "n_punct"]
    )


def q_quality_score(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.text import quality_score_batch
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(quality_score_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "alpha_ratio", "punct_ratio", "quality_score"]
    )

    def r(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "alpha_ratio": pc.round(t["alpha_ratio"], 9),
                "punct_ratio": pc.round(t["punct_ratio"], 9),
                "quality_score": pc.round(t["quality_score"], 9),
            }
        )

    return out.map_batches(r, batch_format="pyarrow")


def q_pii_scrub(sf_dir: str):
    """PII redaction (``stages/text.py:pii_scrub_batch``): the corpus has
    no contact details, so the fixture PLANTS deterministic emails / IPs /
    phone numbers keyed by doc_id (same construction in the SQL oracle),
    then scrubs with the shared RE2 patterns.  Counts per pattern are taken
    on the pre-scrub text; both engines run RE2, so replacement semantics
    agree byte-for-byte."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.text import pii_scrub_batch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = pd.Series(pc.fill_null(t["text"], "").to_pandas(), dtype=str)
        ids_s = pd.Series(ids).astype(str)
        em = np.where(ids % 3 == 0, " contact user" + ids_s + "@mail.example", "")
        ph = np.where(
            ids % 5 == 0,
            " call 555-01" + pd.Series(ids % 100).astype(str).str.zfill(2),
            "",
        )
        ip = np.where(ids % 7 == 0, " from 10.0.0." + pd.Series(ids % 250).astype(str), "")
        return pa.table(
            {"doc_id": t["doc_id"], "text": pa.array((s + em + ph + ip).tolist())}
        )

    out = ds.map_batches(plant, batch_format="pyarrow").map_batches(
        pii_scrub_batch, batch_format="pyarrow"
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_curation_pipeline(sf_dir: str):
    """Flagship composed TRAINING-DATA CURATION pipeline — the shape a
    100-TB corpus actually runs, end to end in one streaming plan chain:

      quality gate (exact global p25 of n_chars, salted distributed
      percentile) → exact dedup (min-id winner per text, partial+final
      aggregate) → benchmark decontamination (8-gram broadcast set) →
      deterministic train/val split (hash of id).

    Returns (doc_id, split) of the surviving documents.  Every stage is a
    tested operator (quantile_filter / exact_dedup / decontaminate /
    train_val_split); this query certifies their COMPOSITION against one
    DuckDB oracle that mirrors stage order exactly."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.dedup import exact_dedup
    from zonal_stats_toolkit_ray.stages.joins import hash_join
    from zonal_stats_toolkit_ray.stages.split import (
        benchmark_ngram_hashes,
        decontaminate,
        quantile_filter,
        split_assign_batch,
    )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    )
    bench_texts = (
        ds.map_batches(
            lambda t: t.filter(pc.less(t["doc_id"], 5)), batch_format="pyarrow"
        )
        .select_columns(["text"])
        .to_pandas()
    )
    bh = benchmark_ngram_hashes(pa.array(bench_texts["text"], pa.string()), 8)

    # materialize the gated set once: it feeds BOTH the dedup winners and
    # the winner join (two consumers of one filter result)
    gated = (
        quantile_filter(ds, value_col="n_chars", q=25.0, keep="ge")
        .select_columns(["doc_id", "text"])
        .materialize()
    )
    winners = exact_dedup(gated).select_columns(["doc_id"]).materialize()
    kept = hash_join(gated, winners, on="doc_id")
    cont = decontaminate(kept, bh, n=8)
    out = cont.map_batches(
        lambda t: t.filter(pc.invert(t["contaminated"])), batch_format="pyarrow"
    ).map_batches(
        split_assign_batch,
        batch_format="pyarrow",
        fn_kwargs={"id_col": "doc_id", "val_fraction": 0.1},
    )
    return (
        out.select_columns(["doc_id", "split"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_normalize_by_group(sf_dir: str):
    """Per-group z-score + min-max normalization
    (``stages/normalize.py:normalize_by_group``): events.value normalized
    within event_type.  Variance via the clamped sum-of-squares identity so
    the oracle reproduces the arithmetic exactly (same sums, same algebra,
    same clamp)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.normalize import normalize_by_group

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    out = normalize_by_group(ds, group_col="event_type", value_col="value")
    return (
        out.select_columns(["event_id", "event_type", "zscore", "minmax"])
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def q_boilerplate_lines(sf_dir: str):
    """C4-style line-level boilerplate removal
    (``stages/text.py:remove_boilerplate_lines``): lines occurring in ≥3
    distinct documents are dropped corpus-wide.  The corpus is single-line
    token soup, so the fixture PLANTS shared banner/footer lines keyed by
    doc_id plus one always-unique tail line (same construction in SQL)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.text import remove_boilerplate_lines

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = pd.Series(pc.fill_null(t["text"], "").to_pandas(), dtype=str)
        ids_s = pd.Series(ids).astype(str)
        banner = np.where(ids % 2 == 0, "\ncookie banner accept all", "")
        footer = np.where(ids % 9 == 0, "\ncopyright 2024 example", "")
        tail = "\nunique tail " + ids_s
        return pa.table(
            {"doc_id": t["doc_id"], "text": pa.array((s + banner + footer + tail).tolist())}
        )

    out = remove_boilerplate_lines(
        ds.map_batches(plant, batch_format="pyarrow"), min_docs=3
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_window_events(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.window import windowed_aggregate
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet")
    out = windowed_aggregate(ds, every="hour")
    out["sum_value"] = out["sum_value"].round(6)
    out["min_value"] = out["min_value"].round(6)
    out["max_value"] = out["max_value"].round(6)
    return out


def q_hopping_windows(sf_dir: str):
    """Hopping (overlapping) windows: 1-hour windows every 30 min over the
    events stream — each event lands in 2 windows (round-2 operator; the
    streaming-window shape Ray Data lacks natively)."""
    from zonal_stats_toolkit_ray.stages.window import hopping_aggregate
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    out = hopping_aggregate(ds, length_s=3600, hop_s=1800)
    out["sum_value"] = out["sum_value"].round(6)
    return out


def q_window_ranks(sf_dir: str):
    """Distributed SQL window functions (round-5): per-user ROW_NUMBER /
    RANK / PERCENT_RANK / running SUM over value order — range sort, one
    block-summary pass, driver run-stitch (tie chains across blocks), one
    vectorized rank pass.  Values floored to plant ties (floor is bit-exact
    in Arrow and DuckDB, unlike round's half-even vs half-away)."""
    from zonal_stats_toolkit_ray.stages.winfunc import window_ranks
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )

    def fl(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("value"), "value", pc.floor(t["value"])
        )

    out = (
        window_ranks(ds.map_batches(fl, batch_format="pyarrow"))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    out["pct_rank"] = out["pct_rank"].round(6)
    out["run_sum"] = out["run_sum"].round(6)
    return out[
        ["event_id", "user_id", "row_num", "rnk", "pct_rank", "run_sum", "ntile"]
    ]


def q_common_passages(sf_dir: str):
    """Exact duplicate-passage detection (round-5; Lee et al. 2021 shape):
    distinct (8-word-window hash, doc) pairs → docs-per-window aggregate →
    shared-window semi-join feedback (broadcast / native-join dual regime)
    → per-doc shared-window count.  Window hashes ride as bit-cast int64;
    the oracle recomputes the windows as STRINGS (collision-free check)."""
    from zonal_stats_toolkit_ray.stages.passages import common_passages
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return common_passages(ds, n=8)


def q_mixture_sample(sf_dir: str):
    """Mixture balancing (round-5): downsample every source stratum to the
    equal-target composition with the Knuth-hash Bernoulli filter — one
    tiny count aggregate, rates in the closure, one filter pass.  The
    equal-weight rate ``min_count/count_s`` is evaluated with the same
    float64 expression in the SQL oracle, so the kept-row set matches
    exactly."""
    from zonal_stats_toolkit_ray.stages.split import mixture_sample
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    out = mixture_sample(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_heavy_hitters_cert(sf_dir: str):
    """Misra–Gries heavy hitters (round-5 sketch) with a hash-checkable
    guarantee certificate.  The corpus vocabulary is near-uniform (no
    natural heavy hitter at any sf), so the fixture PLANTS deterministic
    skew keyed by doc_id — ``zz0`` ×8 on every doc, ``zz1`` ×4 on even
    ids, ``zz2`` ×2 on ids % 4 == 0 (same construction in the SQL oracle);
    planted vocab (34) exceeds m=24, so the decrement path runs, and zz0 /
    zz1 exceed the N/(m+1) coverage threshold at every sf while zz2 and
    the near-uniform naturals sit below it.

    Certified (integer arithmetic, no float thresholds): every token with
    exact·(m+1) > N is reported; and globally, summary ≤ m rows with
    est ≤ exact and (exact − est)·(m+1) ≤ N for every reported token."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.sketch import heavy_hitters

    M = 24
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = pd.Series(pc.fill_null(t["text"], "").to_pandas(), dtype=str)
        aug = (
            s
            + " "
            + "zz0 " * 8
            + np.where(ids % 2 == 0, "zz1 " * 8, "")
            + np.where(ids % 4 == 0, "zz2 " * 2, "")
        )
        return pa.table({"doc_id": t["doc_id"], "text": pa.array(aug.tolist())})

    aug = ds.map_batches(plant, batch_format="pyarrow").materialize()
    summ = heavy_hitters(aug, m=M)
    est = dict(zip(summ["token"], summ["est"].astype(int)))

    # independent exact counts (vocabulary-sized at verification scale)
    def counts(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(t["text"], "")), r"\s+")
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        g = pa.table({"token": toks}).group_by("token").aggregate(
            [("token", "count")]
        )
        return pa.table(
            {"token": g["token"], "c": pc.cast(g["token_count"], pa.int64())}
        )

    exact = (
        aug.map_batches(counts, batch_format="pyarrow")
        .to_pandas()
        .groupby("token")["c"]
        .sum()
    )
    n_total = int(exact.sum())
    rows = [
        {
            "token": "__summary__",
            "present_ok": bool(len(summ) <= M),
            "bound_ok": bool(
                all(
                    e <= exact[t] and (exact[t] - e) * (M + 1) <= n_total
                    for t, e in est.items()
                )
            ),
        }
    ]
    for t in sorted(exact.index[exact * (M + 1) > n_total]):
        rows.append(
            {
                "token": t,
                "present_ok": bool(t in est),
                "bound_ok": bool(
                    t in est
                    and est[t] <= exact[t]
                    and (exact[t] - est[t]) * (M + 1) <= n_total
                ),
            }
        )
    return pd.DataFrame(rows).sort_values("token").reset_index(drop=True)


def q_bigram_pmi(sf_dir: str):
    """Collocation mining (round-5 operator): corpus-wide adjacent-bigram
    PMI over the shared doc_frequency tokenization — tagged unigram+bigram
    count partials, one slim aggregate, min-count prune BEFORE scoring,
    broadcast unigram lookup (hash-join regime above threshold), local
    top-n.  Ordering = 6-dp-rounded pmi DESC, a, b on both sides."""
    from zonal_stats_toolkit_ray.stages.colloc import bigram_pmi
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return bigram_pmi(ds, min_count=5, top_n=20)


def q_rolling_stats(sf_dir: str):
    """Per-user trailing-1-hour rolling count+sum over the events stream
    (round-5 operator): distributed sort by (user, ts, id) → block-local
    int64-µs searchsorted windows + O(blocks)-bounded boundary context —
    the SQL RANGE-frame shape Ray Data has no native operator for, without
    ever materializing a key on one worker."""
    from zonal_stats_toolkit_ray.stages.rolling import rolling_window_stats
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    out = (
        rolling_window_stats(ds, window_s=3600.0)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    out["roll_sum"] = out["roll_sum"].round(6)
    return out[["event_id", "user_id", "roll_n", "roll_sum"]]


def q_ewma(sf_dir: str):
    """Per-user EWMA (pandas adjust=False recurrence, α=1/3) over the
    events stream (round-5 operator, stages/rolling.py:ewma_by_key):
    distributed EXACT affine scan — range sort, O(blocks) head/tail run
    summaries, driver carry chain, one vectorized zero-carry rescan per
    block.  Oracle: the closed form ``y_i = q^{i−1}x_1 + Σ α q^{i−j}x_j``
    as a per-key self-join power sum (different summation order, 6 dp).

    α = 1/3 deliberately: a TERMINATING-decimal α (0.3) makes low-rn
    rows' exact values land on the 6-dp .5 rounding boundary, where
    numpy's half-even and DuckDB's half-away conventions disagree;
    1/3's non-terminating expansion keeps every value off the boundary
    (engine↔SQL fp divergence is ~1e-13 vs the 5e-7 boundary gap)."""
    from zonal_stats_toolkit_ray.stages.rolling import ewma_by_key
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    out = (
        ewma_by_key(ds, alpha=1.0 / 3.0)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    out["ewma"] = out["ewma"].round(6)
    return out[["event_id", "user_id", "ewma"]]


def q_pagerank(sf_dir: str):
    """PageRank (3 fixed power iterations, d=0.85, dangling mass
    redistributed uniformly) over the customer→supplier order graph
    (stages/pagerank.py): node universe + out-degrees + per-iteration
    (hash join → r/deg projection → groupby-sum → left join update) all
    as Dataset ops — nothing node- or edge-sized on the driver.  Oracle:
    the identical update unrolled as chained CTEs in SQL; ranks scaled
    by N so 6-dp rounding keeps ~6 significant digits."""
    from zonal_stats_toolkit_ray.stages.joins import hash_join
    from zonal_stats_toolkit_ray.stages.pagerank import pagerank
    import ray.data as rd

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    edges = hash_join(
        li, orders, on="l_orderkey", right_on="o_orderkey", how="inner"
    ).map_batches(
        lambda t: pa.table(
            {
                "src": pc.cast(t["o_custkey"], pa.int64()),
                "dst": pc.add(
                    pc.cast(t["l_suppkey"], pa.int64()), pa.scalar(1_000_000, pa.int64())
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = (
        pagerank(edges, iterations=3)
        .to_pandas()  # node-sized result
        .sort_values("node")
        .reset_index(drop=True)
    )
    out["node"] = out["node"].astype("int64")
    out["rank_scaled"] = out["rank_scaled"].round(6)
    return out


def q_hits(sf_dir: str):
    """HITS hubs & authorities (2 fixed iterations, L2-normalized per
    half-step) over the customer→supplier order graph
    (stages/pagerank.py:hits) — per half-step one hash join + one
    groupby-sum + one left join; norms are scalar aggregates.  Oracle:
    the identical unrolled update in SQL."""
    from zonal_stats_toolkit_ray.stages.joins import hash_join
    from zonal_stats_toolkit_ray.stages.pagerank import hits
    import ray.data as rd

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    edges = hash_join(
        li, orders, on="l_orderkey", right_on="o_orderkey", how="inner"
    ).map_batches(
        lambda t: pa.table(
            {
                "src": pc.cast(t["o_custkey"], pa.int64()),
                "dst": pc.add(
                    pc.cast(t["l_suppkey"], pa.int64()), pa.scalar(1_000_000, pa.int64())
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = (
        hits(edges, iterations=2)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    out["node"] = out["node"].astype("int64")
    out["hub"] = out["hub"].round(6)
    out["authority"] = out["authority"].round(6)
    return out


def q_keyness(sf_dir: str):
    """Per-language distinctive terms by smoothed log-odds keyness
    (stages/text.py:keyness_terms — Monroe et al. "fightin' words" with a
    rest-of-corpus reference): (group, token) occurrence partials → one
    vocab×groups aggregate → token-total hash join → vectorized scoring →
    tree-combined grouped top-5.  Oracle: the identical formula in SQL,
    ranked on the 6-dp-rounded score (lesson 38: log-of-rational scores
    never sit on a decimal rounding boundary)."""
    from zonal_stats_toolkit_ray.stages.text import keyness_terms
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"]
    )
    return keyness_terms(ds, group_col="lang", top_n=5)


_PCA_ORACLE_DIR = "/tmp/graft_pca_oracle"


def q_pca_project(sf_dir: str):
    """Distributed PCA over embeddings (stages/pca.py): one moment-partial
    pass (fixed (d + d² + 1)-double row per block, driver eigh on the d×d
    covariance), then a broadcast-components projection pass.  The engine
    exports (dim, mean, c1..c4); the oracle re-derives every projection
    with a parallel-unnest dot product — a full value oracle."""
    from zonal_stats_toolkit_ray.stages.pca import (
        pca_project,
        pca_train,
        write_pca_oracle,
    )
    import ray.data as rd

    os.makedirs(_PCA_ORACLE_DIR, exist_ok=True)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    mean, comps, _ = pca_train(ds, k=4)
    write_pca_oracle(mean, comps, os.path.join(_PCA_ORACLE_DIR, "components.parquet"))
    out = pca_project(ds, mean, comps).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def q_twap(sf_dir: str):
    """Time-weighted average value per user (stages/intervals.py:
    twap_by_key — step-function integral over the event stream): per-run
    partials with a last-value carry, boundary segments stitched in
    block-adjacency order.  Oracle = LEAD window integral."""
    from zonal_stats_toolkit_ray.stages.intervals import twap_by_key
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "value", "event_id"],
    )
    return twap_by_key(ds)


def q_bfs_hops(sf_dir: str):
    """Level-synchronous BFS (stages/graph.py:bfs_hops) over the
    q_pagerank deterministic 3-out-regular graph: min hop distance from
    node 0 within 3 hops; each level is one streaming edge pass with a
    broadcast sorted frontier.  Oracle = WITH RECURSIVE + MIN(hops)."""
    from zonal_stats_toolkit_ray.stages.graph import bfs_hops
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = ds.count()

    def edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([ids, ids, ids])
        dst = np.concatenate(
            [(ids * 3 + 1) % n, (ids * 4 + 2) % n, (ids * 5 + 3) % n]
        )
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    e = ds.map_batches(edges, batch_format="pyarrow")
    return bfs_hops(e, 0, max_hops=3)


def q_cms_counts_cert(sf_dir: str):
    """Count-min sketch certificate (stages/sketch.py:cms_build): build
    the 4×16384 linear sketch over events.user_id in one fixed-partial
    pass, estimate every distinct key, and check the CMS guarantees
    against exact distributed counts: est ≥ true (always) and
    est − true ≤ 4·N/width (the per-row collision-mass bound, min over 4
    independent rows; deterministic for fixed data + hash constants)."""
    from zonal_stats_toolkit_ray.stages.sketch import (
        CMS_WIDTH,
        cms_build,
        cms_estimate,
    )
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    m, n = cms_build(ds, key_col="user_id")
    true = (
        ds.groupby("user_id")
        .aggregate(Count(alias_name="true_n"))
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    keys = true["user_id"].to_numpy().astype(np.int64)
    est = cms_estimate(m, keys)
    tn = true["true_n"].to_numpy().astype(np.int64)
    slack = 4.0 * n / CMS_WIDTH
    ok = (est >= tn) & (est - tn <= slack)
    return pd.DataFrame({"user_id": keys, "ok": ok})


def q_assign_sessions(sf_dir: str):
    """Row-level session enrichment (stages/window.py:assign_sessions):
    every event gains its session's start via broadcast per-user sorted
    session starts + searchsorted (join-filter regime above threshold)."""
    from zonal_stats_toolkit_ray.stages.window import assign_sessions
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    out = assign_sessions(ds, gap_seconds=1800.0).to_pandas()
    out["session_start"] = out["session_start"].round(6)
    return out.sort_values("event_id").reset_index(drop=True)


def q_profile_events(sf_dir: str):
    """Table profiler (stages/profile.py): per-column n/null/exact-
    distinct/min/max/mean in one fixed-partial pass + one slim distinct
    aggregate per column over pruned single-column reads."""
    from zonal_stats_toolkit_ray.stages.profile import profile_table
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet")
    return profile_table(ds, ["user_id", "event_type", "value", "props"])


def q_event_transitions(sf_dir: str):
    """Markov transition matrix of per-user event-type sequences
    (stages/intervals.py:event_transitions): one (user, ts, event_id)
    sort, in-block pair-count partials, O(runs) boundary stitch; p =
    row-normalized probabilities.  Oracle = LAG window + count."""
    from zonal_stats_toolkit_ray.stages.intervals import event_transitions
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"],
    )
    return event_transitions(ds)


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix (stages/cohort.py): integer epoch-week
    cohorts (MIN-week per user via slim partials + hash aggregate),
    dual-regime join back, distinct (cohort, offset, user) combiner →
    tiny count.  SQL twin is exact integer arithmetic."""
    from zonal_stats_toolkit_ray.stages.cohort import cohort_retention
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return cohort_retention(ds)


def q_bm25_topk(sf_dir: str):
    """BM25 keyword retrieval (stages/bm25.py): stats pass (per-term df,
    avgdl as fixed partials) + broadcast-idf scoring pass with per-block
    top-k; oracle recomputes every score in SQL with the identical
    operation order — fully self-contained (no exported table)."""
    from zonal_stats_toolkit_ray.stages.bm25 import bm25_topk
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bm25_topk(ds, ["data", "merge", "window"], k=20)


def q_similarity_join(sf_dir: str):
    """Exact cross-corpus set-similarity join (stages/simjoin.py): word
    trigram Jaccard ≥ 0.7 between the corpus and a planted near-dup side
    (every 7th doc with its last token dropped — same construction in the
    SQL twin).  Shared-gram inverted-index join: COUNT per pair IS the
    intersection; string grams (not hashes) keep the oracle exact."""
    from zonal_stats_toolkit_ray.stages.simjoin import similarity_join
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def mk_b(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = ids % 7 == 0
        s = pd.Series(t["text"].to_pandas()[m]).fillna("").str.lower().str.split()
        keep = s.str.len() >= 4
        return pa.table(
            {
                "doc_id": pa.array(ids[m][keep.to_numpy()]),
                "text": pa.array(
                    s[keep].str[:-1].str.join(" ").to_numpy(dtype=object),
                    pa.string(),
                ),
            }
        )

    b = ds.map_batches(mk_b, batch_format="pyarrow")
    out = similarity_join(ds, b, threshold=0.7, n=3)
    return out


def q_nb_classify(sf_dir: str):
    """Naive Bayes char-bigram classifier (stages/lm.py:nb_train/
    nb_classify — the fastText-shaped supervised filter): one training
    pass of per-(block, label) fixed-512KB count partials + priors, one
    broadcast-tables scoring pass, argmax posterior per doc.  The engine
    exports (idx, label, logp) + (label, logprior); the oracle re-derives
    every doc's winning label and score from the raw text — a full value
    oracle over a TRAINED model."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.lm import (
        nb_classify,
        nb_train,
        write_nb_oracle,
    )

    os.makedirs(_CHARLM_ORACLE_DIR, exist_ok=True)
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    model = nb_train(ds)
    write_nb_oracle(
        model,
        os.path.join(_CHARLM_ORACLE_DIR, "nb_model.parquet"),
        os.path.join(_CHARLM_ORACLE_DIR, "nb_priors.parquet"),
    )
    out = nb_classify(ds, model).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_df_by_lang(sf_dir: str):
    """Per-language document-frequency top-10
    (stages/text.py:doc_frequency_by_group): grouped distinct partials →
    one (lang, token) hash aggregate → per-block grouped top-n lexsort →
    bounded driver merge."""
    from zonal_stats_toolkit_ray.stages.text import doc_frequency_by_group
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    return doc_frequency_by_group(ds, top_n=10)


def q_triangle_stats(sf_dir: str):
    """Distributed triangle counting + local clustering coefficient
    (stages/triangles.py — degree-oriented wedge-close): canonical
    distinct edges, degree-vector broadcast, per-apex wedge generation,
    dual-regime hash-join close.  Fixture: the q_pagerank 3-out-regular
    deterministic graph (dst = (id·m + c) mod N), identical integer
    construction in the SQL oracle's 3-way self-join."""
    from zonal_stats_toolkit_ray.stages.triangles import triangle_stats
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = ds.count()

    def edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([ids, ids, ids])
        dst = np.concatenate(
            [(ids * 3 + 1) % n, (ids * 4 + 2) % n, (ids * 5 + 3) % n]
        )
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    e = ds.map_batches(edges, batch_format="pyarrow")
    return triangle_stats(e).sort_values("node").reset_index(drop=True)


def q_kmeans_assign(sf_dir: str):
    """Distributed Euclidean k-means (stages/kmeans.py): k-means++ init on
    an unbiased hash sample, then 5 full-corpus Lloyd passes (one fixed
    k·d-double partial per block per pass, driver update), assignments via
    broadcast centroids.  Oracle re-derives every argmin from the exported
    (cid, dim, w) table with ROW_NUMBER over SUM((v-w)^2)."""
    from zonal_stats_toolkit_ray.stages.kmeans import (
        kmeans_assign,
        kmeans_fit,
        write_centroids_oracle,
    )
    import ray.data as rd

    os.makedirs(_PCA_ORACLE_DIR, exist_ok=True)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cent, _ = kmeans_fit(ds, k=8, iters=5)
    write_centroids_oracle(cent, os.path.join(_PCA_ORACLE_DIR, "centroids.parquet"))
    out = kmeans_assign(ds, cent).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def q_char_entropy(sf_dir: str):
    """Per-doc codepoint Shannon entropy (stages/text.py:char_entropy_batch):
    one UTF-32 decode + np.unique + scatter-add per batch; full DuckDB
    value oracle via the string_split/unicode() unnest (char_lm pattern)."""
    from zonal_stats_toolkit_ray.stages.text import char_entropy_batch
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(char_entropy_batch, batch_format="pyarrow")


def q_interval_coverage(sf_dir: str):
    """Gaps-and-islands interval union per user (stages/intervals.py):
    each event covers [ts, ts + 60*|value|] seconds; connected intervals
    merge into islands via the sorted-block + boundary-stitch shape
    (session_windows' scale path), then a partials reduce reports island
    count / covered seconds / longest island per user."""
    from zonal_stats_toolkit_ray.stages.intervals import interval_coverage
    from zonal_stats_toolkit_ray.stages.window import _ts_seconds
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def mk_iv(b: pa.Table) -> pa.Table:
        s = _ts_seconds(b["ts"])
        e = s + 60.0 * np.abs(b["value"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "user_id": b["user_id"],
                "start": pa.array(s, pa.float64()),
                "end": pa.array(e, pa.float64()),
            }
        )

    out = interval_coverage(ds.map_batches(mk_iv, batch_format="pyarrow"))
    out["covered_s"] = out["covered_s"].round(6)
    out["max_island_s"] = out["max_island_s"].round(6)
    return out.sort_values("user_id").reset_index(drop=True)


def q_event_gaps(sf_dir: str):
    """Per-user LAG-gap statistics (stages/intervals.py:event_gaps): one
    distributed (user, ts) sort, per-block vectorized diff partials, tiny
    boundary stitch — never a per-key event materialization."""
    from zonal_stats_toolkit_ray.stages.intervals import event_gaps
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    out = event_gaps(ds)
    out["avg_gap_s"] = out["avg_gap_s"].round(6)
    out["max_gap_s"] = out["max_gap_s"].round(6)
    return out.sort_values("user_id").reset_index(drop=True)


def q_sessions(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.window import session_windows
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet")
    sess = session_windows(ds, gap_seconds=1800.0)  # streaming Dataset

    def fmt(b: pd.DataFrame) -> pd.DataFrame:
        b = b[["user_id", "n_events", "start", "end"]].copy()
        b["start"] = b["start"].round(6)
        b["end"] = b["end"].round(6)
        return b

    return sess.map_batches(fmt, batch_format="pandas")


def q_knn_brute(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.knn import knn_brute
    import ray.data as rd
    import pyarrow.parquet as pq

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    t0 = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    qvec = np.asarray(t0.filter(pc.equal(t0["vec_id"], 0))["embedding"][0].as_py())
    res = knn_brute(ds, {"query_id": [0], "matrix": qvec[None, :]}, k=10)
    res = res[["rank", "vec_id", "score"]].copy()
    res["score"] = res["score"].round(5)
    return res


def q_knn_ivf(sf_dir: str):
    """IVF ANN top-10 with a SCORE re-derivation oracle (round 5, VERDICT
    r4 #7 — shrink no_oracle): the engine exports its chosen (rank,
    vec_id) rows to the flagship oracle dir; the SQL recomputes each
    returned neighbor's cosine score from the embeddings table
    (list_cosine_similarity, the knn_brute oracle arithmetic) for EXACTLY
    those rows and must match to 5 dp.  This SQL-verifies the engine's
    distance arithmetic on every row it returned; recall vs brute force
    (the approximate part SQL cannot re-derive) stays certified by
    knn_ivf_cert."""
    from zonal_stats_toolkit_ray.stages.knn import knn_ivf
    import ray.data as rd
    import pyarrow.parquet as pq

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    t0 = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qvec = np.asarray(t0.filter(pc.equal(t0["vec_id"], 0))["embedding"][0].as_py())
    out = knn_ivf(
        ds, {"query_id": [0], "matrix": qvec[None, :]}, k=10, nlist=8, nprobe=4
    )
    d = _reset_oracle_dir("knn_ivf")
    res = out[["rank", "vec_id", "score"]].copy()
    res["rank"] = res["rank"].astype("int64")
    res["vec_id"] = res["vec_id"].astype("int64")
    res["score"] = pd.to_numeric(res["score"]).round(5)
    pq.write_table(
        pa.table(
            {
                "rank": pa.array(res["rank"].to_numpy(), pa.int64()),
                "vec_id": pa.array(res["vec_id"].to_numpy(), pa.int64()),
            }
        ),
        os.path.join(d, "rows.parquet"),
    )
    return res.sort_values("rank").reset_index(drop=True)


def q_dedup_minhash(sf_dir: str):
    """MinHash-LSH near-dup rows with a PAIRS-CC oracle (round 5, VERDICT
    r4 #7): the engine exports its VERIFIED duplicate pairs; the oracle
    re-derives the connected components of exactly those pairs with a
    recursive CTE (min-member canonical ids) over the documents universe —
    an independent SQL re-clustering of the engine's union-find /
    distributed min-label propagation.  Candidate recall stays pinned by
    dedup_minhash_cert."""
    from zonal_stats_toolkit_ray.stages.dedup import minhash_dedup
    import ray.data as rd

    d = _reset_oracle_dir("dedup_minhash")
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = minhash_dedup(
        ds, threshold=0.7, pairs_sink=os.path.join(d, "pairs")
    ).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["cluster_id"] = out["cluster_id"].astype("int64")
    out["is_duplicate"] = out["is_duplicate"].astype(bool)
    return out.sort_values("doc_id").reset_index(drop=True)


def _dedup_rows_with_pairs_oracle(sf_dir: str, name: str, fn) -> pd.DataFrame:
    """Shared round-5 PAIRS-CC export (VERDICT r4 #7): run the dedup with
    ``pairs_sink`` into the flagship oracle dir and normalize the rows
    frame; the oracle re-clusters the exported verified pairs with a
    recursive CTE (see the dedup_minhash SQL shape)."""
    d = _reset_oracle_dir(name)
    out = fn(os.path.join(d, "pairs")).to_pandas()
    id_col = "doc_id" if "doc_id" in out.columns else "vec_id"
    out[id_col] = out[id_col].astype("int64")
    out["cluster_id"] = out["cluster_id"].astype("int64")
    out["is_duplicate"] = out["is_duplicate"].astype(bool)
    return out.sort_values(id_col).reset_index(drop=True)


def q_dedup_simhash(sf_dir: str):
    """SimHash near-dup rows with the PAIRS-CC oracle (see
    q_dedup_minhash; recall pinned by dedup_simhash_cert)."""
    from zonal_stats_toolkit_ray.stages.dedup import simhash_dedup
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return _dedup_rows_with_pairs_oracle(
        sf_dir,
        "dedup_simhash",
        lambda sink: simhash_dedup(ds, max_hamming=3, pairs_sink=sink),
    )


def q_dedup_ngram(sf_dir: str):
    """Word-ngram Jaccard near-dup rows with the PAIRS-CC oracle (see
    q_dedup_minhash; recall pinned by dedup_ngram_cert)."""
    from zonal_stats_toolkit_ray.stages.dedup import ngram_jaccard_dedup
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return _dedup_rows_with_pairs_oracle(
        sf_dir,
        "dedup_ngram",
        lambda sink: ngram_jaccard_dedup(ds, threshold=0.8, pairs_sink=sink),
    )


def q_dedup_embedding(sf_dir: str):
    """Embedding-cosine near-dup rows with the PAIRS-CC oracle over the
    embeddings id universe (recall pinned by dedup_embedding_cert)."""
    from zonal_stats_toolkit_ray.stages.dedup import embedding_dedup
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return _dedup_rows_with_pairs_oracle(
        sf_dir,
        "dedup_embedding",
        lambda sink: embedding_dedup(ds, threshold=0.99, pairs_sink=sink),
    )


def _cocluster_cert(sf_dir: str, dedup_fn) -> pd.DataFrame:
    """Shared certificate: verbatim-duplicate texts MUST co-cluster — for
    identical texts the LSH signatures are identical, so they collide in
    every band, are always candidate pairs and pass any verify threshold.
    Emits one (doc_id, cocluster_ok) row per doc; a recall regression in
    banding/verify/union-find flips rows to FALSE and breaks the driver's
    value hash (the oracle asserts all-TRUE)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.geocode import hash64_utf8

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    comp = dedup_fn(ds).to_pandas()
    docs = ds.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "content_hash": pa.array(hash64_utf8(t["text"]), pa.uint64()),
            }
        ),
        batch_format="pyarrow",
    ).to_pandas()
    df = docs.merge(comp[["doc_id", "cluster_id"]], on="doc_id")
    ok_by_hash = df.groupby("content_hash")["cluster_id"].nunique() == 1
    df["cocluster_ok"] = df["content_hash"].map(ok_by_hash)
    return (
        df[["doc_id", "cocluster_ok"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_dedup_minhash_cert(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.dedup import minhash_dedup

    return _cocluster_cert(sf_dir, lambda ds: minhash_dedup(ds, threshold=0.7))


def q_dedup_simhash_cert(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.dedup import simhash_dedup

    return _cocluster_cert(sf_dir, lambda ds: simhash_dedup(ds, max_hamming=3))


def q_dedup_ngram_cert(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.dedup import ngram_jaccard_dedup

    return _cocluster_cert(sf_dir, lambda ds: ngram_jaccard_dedup(ds, threshold=0.8))


def q_zone_knn_cert(sf_dir: str):
    """zone-kNN certificate, hash-checked: for every page, (a) the k
    bbox-distances come back sorted ascending, (b) distance 0 appears iff
    the point lies inside at least one zone bbox, and (c) exactly k
    neighbors return.  Verified against an independent NumPy bbox-distance
    computation; the oracle asserts all-TRUE per doc."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.sources.pages import docs_batch_to_pages
    from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones
    from zonal_stats_toolkit_ray.stages.geocode import geocode_batch
    from zonal_stats_toolkit_ray.stages.join import ZoneKNN

    zones = synth_zones(seed=42, n_zones=24)
    zs = ZoneSet(zones)
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    pages = ds.map_batches(docs_batch_to_pages, batch_format="pyarrow")
    pts = pages.map_batches(geocode_batch, batch_format="pyarrow")
    out = pts.map_batches(
        ZoneKNN,
        fn_constructor_kwargs={"zones": zones, "k": 3},
        batch_format="pyarrow",
        concurrency=2,
    ).select_columns(["url", "lon", "lat", "knn_fids", "knn_dists"]).to_pandas()
    # url = https://<source>.example/doc/<doc_id> (deterministic) → recover id
    out["doc_id"] = out["url"].str.rsplit("/", n=1).str[-1].astype("int64")

    lon = out["lon"].to_numpy()
    lat = out["lat"].to_numpy()
    inside_any = np.zeros(len(out), dtype=bool)
    for j in range(zs.n_parts):
        inside_any |= (
            (lon >= zs.minx[j]) & (lon <= zs.maxx[j])
            & (lat >= zs.miny[j]) & (lat <= zs.maxy[j])
        )
    ok = []
    for i, (fids, dists) in enumerate(zip(out["knn_fids"], out["knn_dists"])):
        d = np.asarray(dists, dtype=np.float64)
        row_ok = (
            len(d) == 3
            and bool(np.all(np.diff(d) >= 0))
            and bool(np.isclose(d[0], 0.0, atol=1e-12) == inside_any[i])
        )
        ok.append(bool(row_ok))
    res = pd.DataFrame({"doc_id": out["doc_id"].to_numpy(np.int64), "knn_ok": ok})
    return res.sort_values("doc_id").reset_index(drop=True)


def q_dedup_embedding_cert(sf_dir: str):
    """Embedding near-dup recall certificate: plant exact copies of the 10
    lowest-id vectors (vec_id + 1e6) into the corpus — identical vectors
    share every multi-probe LSH bucket and have cosine 1, so each copy
    MUST co-cluster with its source; a bucketing/verify/union regression
    flips rows FALSE and breaks the value hash."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.dedup import embedding_dedup

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    head = ds.limit(10).to_pandas().sort_values("vec_id").reset_index(drop=True)
    planted = pa.table(
        {
            "vec_id": pa.array(head["vec_id"].to_numpy(np.int64) + 1_000_000),
            "embedding": pa.array(
                [list(map(float, v)) for v in head["embedding"]],
                pa.list_(pa.float32()),
            ),
        }
    )
    both = ds.select_columns(["vec_id", "embedding"]).union(rd.from_arrow(planted))
    comp = embedding_dedup(both, threshold=0.99).to_pandas()
    cl = dict(zip(comp["vec_id"].astype(np.int64), comp["cluster_id"].astype(np.int64)))
    rows = [
        {
            "planted_id": int(v) + 1_000_000,
            "cocluster_ok": bool(cl[int(v) + 1_000_000] == cl[int(v)]),
        }
        for v in head["vec_id"]
    ]
    return pd.DataFrame(rows).sort_values("planted_id").reset_index(drop=True)


def q_semdedup_cert(sf_dir: str):
    """SemDeDup certificate (``stages/semdedup.py`` — k-means cluster →
    within-cluster cosine dedup, Abbas et al. 2023): plant exact copies of
    the 10 lowest-id vectors (vec_id + 1e6).  An identical vector gets the
    identical k-means assignment and cosine 1 with its source, so each copy
    MUST land in the source's near-dup component (``cocluster_ok``) and be
    flagged as the duplicate — its id is higher than every corpus id, so
    the keep-min-id rule keeps the source (``planted_flagged``).  A
    clustering/kernel/regime regression flips rows FALSE and breaks the
    value hash."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.semdedup import semdedup

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    head = ds.limit(10).to_pandas().sort_values("vec_id").reset_index(drop=True)
    planted = pa.table(
        {
            "vec_id": pa.array(head["vec_id"].to_numpy(np.int64) + 1_000_000),
            "embedding": pa.array(
                [list(map(float, v)) for v in head["embedding"]],
                pa.list_(pa.float32()),
            ),
        }
    )
    both = ds.select_columns(["vec_id", "embedding"]).union(rd.from_arrow(planted))
    out = semdedup(both, nlist=16, threshold=0.99).to_pandas()
    canon = dict(zip(out["vec_id"].astype(np.int64), out["canonical_id"].astype(np.int64)))
    dup = dict(zip(out["vec_id"].astype(np.int64), out["is_duplicate"].astype(bool)))
    rows = [
        {
            "planted_id": int(v) + 1_000_000,
            "cocluster_ok": bool(canon[int(v) + 1_000_000] == canon[int(v)]),
            "planted_flagged": bool(dup[int(v) + 1_000_000]),
        }
        for v in head["vec_id"]
    ]
    return pd.DataFrame(rows).sort_values("planted_id").reset_index(drop=True)


_CHARLM_ORACLE_DIR = "/tmp/graft_charlm_oracle"


def q_char_lm_score(sf_dir: str):
    """Char-bigram LM quality scoring (``stages/lm.py`` — the CCNet/KenLM
    perplexity-filter shape): train the hashed bigram model on the corpus
    itself (one fixed-512KB-partial pass), write the model table to the
    fixed oracle path, score every doc in bits/bigram.  The oracle SQL
    re-derives every doc's score from the model parquet + ``documents``
    (parallel-unnest zip of adjacent codepoints) and must match to 6 dp —
    a REAL value oracle, not a certificate."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.lm import (
        char_lm_score,
        train_char_lm,
        write_model_parquet,
    )

    os.makedirs(_CHARLM_ORACLE_DIR, exist_ok=True)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    model = train_char_lm(ds)
    write_model_parquet(model, os.path.join(_CHARLM_ORACLE_DIR, "model.parquet"))
    out = char_lm_score(ds, model=model).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_dsir_weights(sf_dir: str):
    """DSIR importance weights (``stages/lm.py:dsir_logweight`` — Xie et
    al. 2023 data selection): target domain = the English documents, raw =
    the whole corpus; every doc scored by the summed log2 ratio of hashed
    char-bigram probabilities.  The engine exports the per-bucket ratio
    table; the oracle SQL re-derives every doc's weight from ``documents``
    and must match to 6 dp.  (The synthetic corpus's character
    distribution is flat across ``lang`` labels, so weights here mostly
    track length; real discrimination is proven in
    ``tests/test_lm.py::test_dsir_upweights_target_like_docs``.)"""
    import pyarrow.compute as _pc
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.lm import dsir_logweight, train_char_lm

    os.makedirs(_CHARLM_ORACLE_DIR, exist_ok=True)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    target = ds.map_batches(
        lambda t: t.filter(_pc.equal(t["lang"], "en")), batch_format="pyarrow"
    )
    table = train_char_lm(target) - train_char_lm(ds)
    import pyarrow.parquet as _pq

    _pq.write_table(
        pa.table(
            {
                "idx": pa.array(np.arange(table.size, dtype=np.int64)),
                "logr": pa.array(table.astype(np.float64)),
            }
        ),
        os.path.join(_CHARLM_ORACLE_DIR, "dsir_table.parquet"),
    )
    out = dsir_logweight(ds, None, ratio_table=table).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_pack_sequences(sf_dir: str):
    """Fixed-budget sequence packing (``stages/pack.py`` — the last step of
    every LM data pipeline): distributed prefix scan (range sort + block
    summaries + broadcast base offsets) assigns each doc its pack id and
    offset under contiguous straddle-chunked concatenation.  Oracle = one
    window-function SQL."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.pack import pack_sequences

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    out = pack_sequences(ds, budget=2048).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_dedup_incremental(sf_dir: str):
    """Incremental exact dedup of a synthetic "new crawl" shard against a
    persisted corpus content index (``stages/incremental.py`` — the shape
    the reference lacks: ``runner.py`` recomputes every job from scratch).
    Corpus = docs with ``doc_id % 4 != 0``; shard = the ``% 4 == 0`` docs
    plus planted re-crawls — copies of corpus docs (``% 8 == 1``, id+1e6 →
    corpus-canonical dupes) and second copies of shard docs (``% 8 == 4``,
    id+2e6 → intra-shard dupes).  The hive-partitioned index is REBUILT
    per call under /tmp (clean-rebuild contract), so the query is
    deterministic."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.incremental import (
        content_index_write,
        incremental_dedup,
    )

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def corpus_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.take(pa.array(np.flatnonzero((ids & 3) != 0)))

    def shard_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        parts = []
        for mask, shift in (
            ((ids & 3) == 0, 0),
            ((ids & 7) == 1, 1_000_000),
            ((ids & 7) == 4, 2_000_000),
        ):
            idx = np.flatnonzero(mask)
            parts.append(
                pa.table(
                    {
                        "doc_id": pa.array(ids[idx] + shift),
                        "text": t["text"].take(pa.array(idx)),
                    }
                )
            )
        return pa.concat_tables(parts)

    index_dir = os.path.join(
        "/tmp/graft_incr_index", os.path.basename(os.path.normpath(sf_dir))
    )
    content_index_write(
        docs.map_batches(corpus_batch, batch_format="pyarrow"), index_dir
    )
    out = incremental_dedup(
        docs.map_batches(shard_batch, batch_format="pyarrow"), index_dir
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_knn_ivf_cert(sf_dir: str):
    """IVF recall certificate: recall@10 vs exact brute force must be
    ≥ 0.5 per query with nprobe=4 of nlist=8 (measured 0.6-0.9 across all
    shipped scale factors; the bound leaves margin for list-assignment
    jitter while still catching a broken quantizer or probe path)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.knn import knn_brute, knn_ivf

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    head = emb.limit(4).to_pandas()
    qm = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    qids = head["vec_id"].to_numpy(np.int64)
    queries = {"query_id": qids, "matrix": qm}
    brute = knn_brute(emb, queries, k=10)
    ivf = knn_ivf(emb, queries, k=10, nlist=8, nprobe=4)
    rows = []
    for qid in qids:
        b = set(brute.loc[brute["query_id"] == qid, "vec_id"])
        a = set(ivf.loc[ivf["query_id"] == qid, "vec_id"])
        rows.append(
            {"query_id": int(qid), "recall_ok": bool(len(a & b) / max(len(b), 1) >= 0.5)}
        )
    return pd.DataFrame(rows).sort_values("query_id").reset_index(drop=True)


def q_stratified_sample(sf_dir: str):
    """Per-stratum deterministic downsampling (class rebalancing): keep
    10% of English docs and 50% of every other language — kept set is a
    pure function of (doc_id, lang), hash-checked row-for-row in SQL."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.split import stratified_sample

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    out = stratified_sample(
        ds, {"en": 0.1}, strata_col="lang", default_fraction=0.5
    )
    return out.select_columns(["doc_id", "lang"])


def q_deterministic_shuffle(sf_dir: str):
    """Reproducible training-data shuffle: global Dataset.sort on the
    Knuth id hash — same order every run on any partitioning (the standard
    seeded-shuffle for training exports).  Emits (doc_id, shuffle_key);
    the oracle reproduces the key in integer SQL, pinning the order."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.split import split_hash32

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def key(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column(
            "shuffle_key", pa.array(split_hash32(ids).astype(np.int64))
        )

    return ds.map_batches(key, batch_format="pyarrow").sort("shuffle_key")


def q_train_val_split(sf_dir: str):
    """Deterministic hash-based train/val split (training-data set op):
    split is a pure function of doc_id (Knuth multiplicative hash), stable
    across runs/partitionings — per-doc assignment hash-checked in SQL."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.split import train_val_split

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return train_val_split(ds, val_fraction=0.1).select_columns(["doc_id", "split"])


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (training-data set op): docs sharing any
    word 8-gram with the benchmark slice (doc_id < 5) are flagged.  The
    benchmark n-gram hash set broadcasts once; each batch checks its own
    vectorized n-gram hashes with one np.isin."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.split import (
        benchmark_ngram_hashes,
        decontaminate,
    )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    bench_texts = (
        ds.map_batches(
            lambda t: t.filter(pc.less(t["doc_id"], 5)), batch_format="pyarrow"
        )
        .select_columns(["text"])
        .to_pandas()
    )
    bh = benchmark_ngram_hashes(pa.array(bench_texts["text"], pa.string()), 8)
    return decontaminate(ds, bh, n=8)


def q_decontaminate_bloom_cert(sf_dir: str):
    """Bloom-filter decontamination certificate
    (``stages/split.py:decontaminate_bloom``): per document,
    ``no_false_negative`` = (exact contaminated ⇒ bloom contaminated) —
    the Bloom guarantee direction that makes it safe for decontamination.
    ``fp_budget_ok`` certifies the FILTER's false-positive rate, measured
    on 100k deterministic synthetic probe keys not in the benchmark set,
    ≤ 3× nominal (doc-level over-flagging is ~ngrams-per-doc × this rate
    by construction, so the filter-level bound is the meaningful one).
    All-TRUE oracle."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.split import (
        BloomFilter,
        benchmark_ngram_hashes,
        decontaminate,
        decontaminate_bloom,
    )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    bench_texts = (
        ds.map_batches(
            lambda t: t.filter(pc.less(t["doc_id"], 5)), batch_format="pyarrow"
        )
        .select_columns(["text"])
        .to_pandas()
    )
    bh = benchmark_ngram_hashes(pa.array(bench_texts["text"], pa.string()), 8)
    fp_rate = 0.01
    exact = decontaminate(ds, bh, n=8).to_pandas().set_index("doc_id")["contaminated"]
    bloom = (
        decontaminate_bloom(ds, bh, n=8, fp_rate=fp_rate)
        .to_pandas()
        .set_index("doc_id")["contaminated"]
    )
    exact, bloom = exact.sort_index(), bloom.sort_index()
    no_fn = (~exact) | bloom

    bf = BloomFilter(bh.size, fp_rate=fp_rate)  # same construction as the op
    bf.add_many(bh)
    probes = BloomFilter._h2(np.arange(100_000, dtype=np.uint64))
    probes = probes[~np.isin(probes, bh)]
    measured = float(bf.contains_many(probes).mean())
    fp_ok = bool(measured <= 3 * fp_rate)
    return pd.DataFrame(
        {
            "doc_id": exact.index.to_numpy(),
            "no_false_negative": no_fn.to_numpy(),
            "fp_budget_ok": fp_ok,
        }
    ).sort_values("doc_id").reset_index(drop=True)


def q_html_extract(sf_dir: str):
    """HTML→text extraction with the input-hint invariant hash-checked:
    extracted text must be byte-identical per url to the corpus text (the
    oracle reconstructs (url, text) straight from the documents table, so
    any extraction drift breaks the value hash)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.sources.pages import docs_batch_to_pages
    from zonal_stats_toolkit_ray.stages.text import html_extract_batch

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    pages = ds.map_batches(docs_batch_to_pages, batch_format="pyarrow")
    out = pages.map_batches(html_extract_batch, batch_format="pyarrow")
    return out.map_batches(
        lambda t: pa.table({"url": t["url"], "text": t["extracted_text"]}),
        batch_format="pyarrow",
    )


def q_lang_id(sf_dir: str):
    from zonal_stats_toolkit_ray.stages.text import LangId
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(LangId, batch_format="pyarrow", concurrency=2).select_columns(
        ["doc_id", "lang_pred"]
    )


def q_fingerprint(sf_dir: str):
    """Rolling-hash document fingerprint, SQL-checkable (round-2: was
    rows-only): the uint64 min-rolling-hash is reinterpreted as int64
    (two's complement) so the DuckDB oracle — the same Rabin-Karp windows
    written as a HUGEINT list comprehension — hash-matches exactly."""
    from zonal_stats_toolkit_ray.stages.text import fingerprint_batch
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_i64(t: pa.Table) -> pa.Table:
        fp = t["fingerprint"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "fingerprint_i64": pa.array(fp.view(np.int64)),
            }
        )

    out = ds.map_batches(fingerprint_batch, batch_format="pyarrow").map_batches(
        to_i64, batch_format="pyarrow"
    )
    return out


def q_sample_per_group(sf_dir: str):
    """Deterministic fixed-count per-group sampling (reproducible
    'reservoir': 20 docs per language by smallest Knuth id hash, ranked).
    Composes the grouped top-k kernel; oracle = ROW_NUMBER over the same
    integer hash."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.split import sample_n_per_group

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return sample_n_per_group(ds, n=20, key_col="lang")


def q_repetition_ratio(sf_dir: str):
    """Gopher-style within-document repetition quality signal (round-3):
    1 − distinct/total word 8-grams per doc.  Vectorized off the shared
    word-n-gram kernel; oracle = the list_distinct/len SQL equivalent."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.text import repetition_ratio_batch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(repetition_ratio_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "rep_ratio"])


def q_inverted_lookup(sf_dir: str):
    """Disk-partitioned inverted index (round-4): build hive-partitioned
    postings (token-hash buckets), then look up a fixed token list reading
    ONLY the probed buckets.  Oracle = distinct unnest + IN list."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.invindex import (
        inverted_index_write,
        token_lookup,
    )

    idx = "/tmp/graft_invindex"
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    inverted_index_write(ds, idx, num_buckets=16)
    stats: dict = {}
    out = token_lookup(
        idx, ["spark", "merge", "window", "zzz-absent"], stats_out=stats
    )
    assert stats["buckets_probed"] <= 4 <= stats["dirs_total"]  # pruned read
    return out


def q_tfidf_top_terms(sf_dir: str):
    """Per-document top-5 TF-IDF terms (round-4): corpus DF pass →
    broadcast vocabulary (auto; hash-join regime above threshold) →
    in-batch scoring + per-doc top-k, tfidf = tf·ln(N/df), token-ascending
    tie-break.  Oracle = unnest + window-function SQL."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.text import tfidf_top_terms

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = tfidf_top_terms(ds, k=5).to_pandas()
    out["tfidf"] = out["tfidf"].round(6)
    return out.sort_values(["doc_id", "rank"]).reset_index(drop=True)


def q_url_host_stats(sf_dir: str):
    """Per-domain corpus profile (round-4): URL host extraction (Arrow RE2
    off the pages url column) → two-level (host, lang) partial aggregate →
    per-host pages / chars / distinct-lang counts.  The C4/CCNet-style
    domain bookkeeping pass; oracle = GROUP BY on the source-derived
    host."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.sources.pages import docs_batch_to_pages
    from zonal_stats_toolkit_ray.stages.web import host_stats

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    pages = ds.map_batches(docs_batch_to_pages, batch_format="pyarrow")
    return host_stats(pages)


def q_quantile_filter(sf_dir: str):
    """Global-quantile threshold filter (round-4): keep docs at/above the
    corpus p90 of n_chars.  Slim pass (value column only) computes the
    exact global percentile via the salted distributed shuffle; full rows
    then stream through a broadcast-scalar compare."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.split import quantile_filter

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    out = quantile_filter(ds, value_col="n_chars", q=90.0, keep="ge")
    return out.select_columns(["doc_id", "n_chars"])


def q_knn_ivf_partitioned_cert(sf_dir: str):
    """Partitioned-IVF-index certificate (round-3): build the
    hive-partitioned index on disk, query through partition-PRUNED reads
    (only probed ivf_list directories are opened; the read-pruning
    mechanism itself is asserted via ``stats_out`` in
    tests/TestPartitionedIVF), and assert recall@10 ≥ 0.5 vs brute force
    per query — same bound as knn_ivf_cert."""
    import shutil
    import tempfile

    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.knn import (
        ivf_write_partitioned,
        knn_brute,
        knn_ivf_partitioned,
    )

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    head = emb.limit(4).to_pandas()
    qm = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    qids = head["vec_id"].to_numpy(np.int64)
    queries = {"query_id": qids, "matrix": qm}
    idx = tempfile.mkdtemp(prefix="graft_ivf_")
    try:
        ivf_write_partitioned(emb, idx, nlist=8)
        ivf = knn_ivf_partitioned(idx, queries, k=10, nprobe=4)
    finally:
        shutil.rmtree(idx, ignore_errors=True)  # a full embeddings copy
    brute = knn_brute(emb, queries, k=10)
    rows = []
    for qid in qids:
        b = set(brute.loc[brute["query_id"] == qid, "vec_id"])
        a = set(ivf.loc[ivf["query_id"] == qid, "vec_id"])
        rows.append(
            {"query_id": int(qid), "recall_ok": bool(len(a & b) / max(len(b), 1) >= 0.5)}
        )
    return pd.DataFrame(rows).sort_values("query_id").reset_index(drop=True)


def q_doc_frequency(sf_dir: str):
    """Corpus document-frequency / vocabulary stats (round-3 operator):
    top-50 tokens by the number of distinct documents containing them
    (the IDF numerator).  In-batch distinct-doc partials → one vocabulary
    hash aggregate → local top-n per block → tiny merge.  Oracle: unnest +
    list_distinct + GROUP BY in SQL."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.text import document_frequency

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return document_frequency(ds, top_n=50)


def q_histogram(sf_dir: str):
    """Exact fixed-bin histogram of lineitem extended price over
    [0, 100000) × 25 bins — the distribution-profiling pass run before
    choosing packing budgets / filter thresholds.  Per-batch np.bincount
    partials (≤ bins rows each) → one ≤ bins-key aggregate; bin arithmetic
    (float64 floor((v-lo)/w)) matches the SQL oracle bit-exactly
    (stages/sketch.py:histogram_batch)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.sketch import histogram_ds

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    out = histogram_ds(ds, value_col="l_extendedprice", lo=0.0, hi=100000.0, bins=25)
    return (
        out.to_pandas().sort_values("bin").reset_index(drop=True)
    )


def q_weighted_sample(sf_dir: str):
    """Deterministic length-weighted Bernoulli sample (inclusion
    probability ∝ n_chars, expected 100 rows): slim pass sums the weight,
    then a pure hash32(id)-vs-threshold compare per batch — exact-integer
    arithmetic both sides, no libm ordering hazard
    (stages/split.py:weighted_sample)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.split import weighted_sample

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    out = weighted_sample(ds, expected_k=100.0)
    return (
        out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def q_rollup(sf_dir: str):
    """GROUP BY ROLLUP(lang, source) over documents — every aggregation
    grain from one pass over the input: finest-grain in-batch partials →
    one hash aggregate, coarser levels re-aggregate the group-sized frame
    (stages/rollup.py).  sum over the integer n_chars stays exact in
    float64, so no rounding-mode divergence vs the oracle."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.rollup import rollup_sum_count

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source", "n_chars"]
    )
    return rollup_sum_count(ds, keys=["lang", "source"], value_col="n_chars")


def q_corr_by_group(sf_dir: str):
    """Pearson correlation + OLS regression of l_extendedprice on
    l_quantity per l_returnflag — the bivariate extension of the zonal
    (sum, sumsq) moment shape (stages/bivar.py:grouped_corr): one pass of
    in-batch six-moment partials, one group-count-sized hash aggregate,
    driver finalize.  Sample semantics match SQL corr/regr_slope; 6-dp
    rounding absorbs summation-order float drift."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.bivar import grouped_corr

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    out = grouped_corr(
        ds, keys=["l_returnflag"], x_col="l_quantity", y_col="l_extendedprice"
    )
    for c in ("corr", "slope", "intercept"):
        out[c] = out[c].round(6)
    return out


def q_mode_per_group(sf_dir: str):
    """Modal category per group (dominant lang per source,
    stages/rank.py:mode_per_group): (key, value) count partials → pair
    aggregate → associative per-block argmax → blocks×keys driver merge.
    Ties break to the smallest value, matching the ROW_NUMBER oracle."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.rank import mode_per_group

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang"]
    )
    return mode_per_group(ds, key_col="source", value_col="lang")


def _plant_messy_urls(t: pa.Table) -> pa.Table:
    """Fixture: deterministic MESSY urls keyed by doc_id (mixed-case scheme
    and host, default :443 ports, tracking params, trailing slashes,
    fragments) — many doc_ids share one canonical target (doc_id % 50).
    The SQL oracle constructs the identical strings (see _canonical_sql)."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    src = t["source"].to_pandas().astype(str)
    ids_s = pd.Series(ids).astype(str)
    base_s = pd.Series(ids % 50).astype(str)
    scheme = np.where(ids % 2 == 0, "HTTPS://", "https://")
    host = np.where(ids % 3 == 0, src.str.upper(), src) + ".Example.com"
    port = np.where(ids % 5 == 0, ":443", "")
    q = np.select(
        [ids % 4 == 1, ids % 4 == 2, ids % 4 == 3],
        ["/", "?utm_source=x" + ids_s, "?id=" + base_s + "&utm_campaign=c"],
        default="",
    )
    frag = np.where(ids % 7 == 0, "#frag", "")
    url = scheme + host + port + "/page/" + base_s + q + frag
    return pa.table({"doc_id": t["doc_id"], "url": pa.array(url.tolist(), pa.string())})


def q_canonical_url(sf_dir: str):
    """URL canonicalization (stages/web.py:canonicalize_url_batch): strip
    fragment + tracking params, lowercase scheme/authority, drop default
    ports, trim trailing slashes — one chain of vectorized RE2 kernels per
    batch.  The oracle SQL is GENERATED from the same CANONICAL_* pattern
    constants, so the two cannot drift."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.web import canonicalize_url_batch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    out = ds.map_batches(_plant_messy_urls, batch_format="pyarrow").map_batches(
        canonicalize_url_batch, batch_format="pyarrow"
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_dedup_canonical(sf_dir: str):
    """Canonicalize-then-dedup composition — the crawl re-fetch collapse:
    messy url variants → canonical form → exact dedup keyed on the
    canonical string (min-doc_id winner, stages/dedup.py:exact_dedup's
    hash-partitioned partial+final aggregate)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.dedup import exact_dedup
    from zonal_stats_toolkit_ray.stages.web import canonicalize_url_batch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    canon = ds.map_batches(_plant_messy_urls, batch_format="pyarrow").map_batches(
        canonicalize_url_batch, batch_format="pyarrow"
    )
    out = exact_dedup(canon, id_col="doc_id", text_col="canonical_url")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_dedup_revisits(sf_dir: str):
    """Windowed re-crawl dedup: keep the FIRST fetch per (url, time
    window) — the crawl-frontier collapse for repeatedly-fetched pages.
    Pure partial+final aggregate: in-batch (url, window) min/count partials
    → one pair-universe hash aggregate; nothing row-sized shuffles.
    Fixture: urls collide on doc_id % 100 (revisits), warc_ts is the
    deterministic 1 s/doc ramp, window = 60 s."""
    import ray.data as rd
    from ray.data.aggregate import Min, Sum
    from zonal_stats_toolkit_ray.sources.pages import _EPOCH_2024

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    win_us = 60_000_000

    def partials(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = t["source"].to_pandas().astype(str)
        url = ("https://" + src + ".example/doc/" + pd.Series(ids % 100).astype(str))
        ts = _EPOCH_2024 + ids * 1_000_000
        win = ts // win_us
        p = pa.table(
            {
                "url": pa.array(url.tolist(), pa.string()),
                "win": pa.array(win),
                "first_id": pa.array(ids),
            }
        )
        g = p.group_by(["url", "win"]).aggregate(
            [("first_id", "min"), ("first_id", "count")]
        )
        return pa.table(
            {
                "url": g["url"],
                "win": g["win"],
                "first_id": g["first_id_min"],
                "n_fetches": pc.cast(g["first_id_count"], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partials, batch_format="pyarrow")
        .repartition(4)
        .groupby(["url", "win"])
        .aggregate(Min("first_id", alias_name="first_id"),
                   Sum("n_fetches", alias_name="n_fetches"))
        .to_pandas()
    )
    out["first_id"] = out["first_id"].astype("int64")
    out["n_fetches"] = out["n_fetches"].astype("int64")
    return out.sort_values(["url", "win"]).reset_index(drop=True)[
        ["url", "win", "first_id", "n_fetches"]
    ]


def q_bloom_semi_join(sf_dir: str):
    """Bloom-filter semi join (stages/joins.py:bloom_semi_join): the build
    side's keys compress to a fixed bit array built DISTRIBUTED (one
    OR-mergeable partial per block), the probe side pre-filters against the
    broadcast bits, and a hash join over the survivors removes Bloom false
    positives — so the result is EXACT and the oracle is the plain semi
    join.  fp_rate is set high (0.2) to guarantee FPs actually occur and
    the verify stage is exercised."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import bloom_semi_join

    hot = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 300000.0)).select(
            ["o_orderkey"]
        ),
        batch_format="pyarrow",
    )
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    )
    out = bloom_semi_join(li, hot, on="l_orderkey", right_on="o_orderkey", fp_rate=0.2)
    return (
        out.to_pandas()
        .sort_values(["l_orderkey", "l_linenumber"])
        .reset_index(drop=True)
    )


def q_string_agg(sf_dir: str):
    """Ordered string_agg per group (stages/rollup.py:string_agg_sorted):
    range sort splits hot keys across blocks, one vectorized binary_join
    per block, ordered driver stitch of ≤ keys×blocks fragments."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.rollup import string_agg_sorted

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "lang"])
    return string_agg_sorted(ds, key_col="source", val_col="lang")


def q_connected_components(sf_dir: str):
    """Distributed connected components over an edge Dataset
    (stages/dedup.py:distributed_connected_components — min-label
    propagation + driver pointer jumping; edges never reach the driver).
    This is the dedup clustering engine exposed directly, hash-checked
    against a WITH RECURSIVE reachability oracle.  Fixture: chain edges
    (i, i−1) for i % 10 ≠ 0 → components of 10 consecutive ids (diameter 9
    exercises multiple propagation rounds)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.dedup import (
        distributed_connected_components,
    )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = ids % 10 != 0
        return pa.table({"a": pa.array(ids[m]), "b": pa.array(ids[m] - 1)})

    cc = distributed_connected_components(
        ds.map_batches(edges, batch_format="pyarrow")
    )
    return cc.sort_values("doc_id").reset_index(drop=True)


def q_mad_by_group(sf_dir: str):
    """Exact per-group median + median absolute deviation (robust
    dispersion) — two passes of the salted grouped-percentile machinery
    over ONE materialized slim projection (stages/bivar.py:mad_by_group).
    l_quantity is integral, so float32 percentile downcasting is exact and
    both engines interpolate identically."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.bivar import mad_by_group

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )
    out = mad_by_group(ds, key_col="l_returnflag", value_col="l_quantity")
    out["median"] = out["median"].round(6)
    out["mad"] = out["mad"].round(6)
    return out.sort_values("l_returnflag").reset_index(drop=True)


def q_spatial_bbox(sf_dir: str):
    """Z-order partitioned spatial layout (stages/spatial_index.py): points
    hive-partitioned by the Morton code of their coarse grid cell; a bbox
    query reads ONLY intersecting ``zb=`` partitions (pruning at the read —
    asserted) then applies the exact vectorized filter.  Coordinates are a
    deterministic integer function of doc_id (identical IEEE arithmetic in
    the SQL oracle), so the pruned result must equal a full-scan filter."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.spatial_index import (
        spatial_bbox_query,
        spatial_write_partitioned,
    )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = (ids * 7919 % 36000) / 100.0 - 180.0
        lat = (ids * 104729 % 18000) / 100.0 - 90.0
        return pa.table(
            {"doc_id": t["doc_id"], "lon": pa.array(lon), "lat": pa.array(lat)}
        )

    idx = "/tmp/graft_spatial_index"
    spatial_write_partitioned(
        ds.map_batches(plant, batch_format="pyarrow"), idx, grid_bits=3
    )
    stats: dict = {}
    out = spatial_bbox_query(
        idx, (-60.0, -30.0, 20.0, 40.0),
        columns=["doc_id", "lon", "lat"], stats_out=stats,
    )
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert stats["buckets_probed"] < stats["dirs_total"], stats  # pruned read
    return df[["doc_id", "lon", "lat"]]


def q_cube(sf_dir: str):
    """GROUP BY CUBE(lang, source) — every grouping subset from ONE input
    pass (stages/rollup.py:cube_sum_count): finest-grain partials → hash
    aggregate → each coarser grouping set re-aggregates the group-sized
    frame (sum/count associative)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.rollup import cube_sum_count

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source", "n_chars"]
    )
    return cube_sum_count(ds, keys=["lang", "source"], value_col="n_chars")


def q_except_distinct(sf_dir: str):
    """SQL EXCEPT: (status, priority) pairs of big orders minus pairs of
    urgent orders (stages/joins.py:except_distinct) — both sides collapse
    distributed to distinct universes; only universe-sized frames reach the
    driver anti-merge."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import except_distinct

    cols = ["o_orderstatus", "o_orderpriority"]
    big = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=cols + ["o_totalprice"]
    ).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 200000.0)).select(cols),
        batch_format="pyarrow",
    )
    urgent = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=cols
    ).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")),
        batch_format="pyarrow",
    )
    from zonal_stats_toolkit_ray.stages.joins import except_distinct as _ed

    return _ed(big, urgent, cols)


def q_distinct_count(sf_dir: str):
    """Exact COUNT(DISTINCT) per group: suppliers per returnflag —
    two-level distinct (in-batch drop-duplicates combiner → pair hash
    aggregate → per-key count); only the distinct pair universe shuffles
    (stages/joins.py:distinct_rows)."""
    import ray.data as rd
    from ray.data.aggregate import Count
    from zonal_stats_toolkit_ray.stages.joins import distinct_rows

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_suppkey"]
    )
    pairs = distinct_rows(ds, ["l_returnflag", "l_suppkey"])
    out = (
        pairs.groupby("l_returnflag")
        .aggregate(Count(alias_name="n_supp"))
        .to_pandas()
    )
    out["n_supp"] = out["n_supp"].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


def q_three_way_join(sf_dir: str):
    """Three-table join chain lineitem ⋈ orders ⋈ customer → per-segment
    revenue rollup.  Each hash_join auto-routes (broadcast fallback under
    threshold, native shuffle above); the rollup is in-batch partials +
    driver merge so the joined rows never re-shuffle."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    j1 = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey")
    j2 = hash_join(j1, cust, on="o_custkey", right_on="c_custkey")

    def partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(
            b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"])
        )
        t = pa.table({"c_mktsegment": b["c_mktsegment"], "rev": rev})
        g = t.group_by("c_mktsegment").aggregate([("rev", "sum"), ("rev", "count")])
        return pa.table(
            {
                "c_mktsegment": g["c_mktsegment"],
                "revenue": g["rev_sum"],
                "n_items": pc.cast(g["rev_count"], pa.int64()),
            }
        )

    p = j2.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = (
        p.groupby("c_mktsegment", as_index=False)
        .agg(revenue=("revenue", "sum"), n_items=("n_items", "sum"))
    )
    out["revenue"] = out["revenue"].round(2)
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values("c_mktsegment").reset_index(drop=True)[
        ["c_mktsegment", "n_items", "revenue"]
    ]


def q_funnel_stages(sf_dir: str):
    """Per-user funnel (view → click → purchase) as a distributed fold
    (stages/funnel.py): range sort splits hot users across blocks, each
    block emits a composable transition VECTOR per user-run, the driver
    folds user×block×4 summary ints.  Strict (ts, event_id) order makes
    duplicate timestamps deterministic — same total order as the oracle's
    ROW_NUMBER."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.funnel import funnel_stages

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return funnel_stages(ds, steps=["view", "click", "purchase"])


def q_pivot_counts(sf_dir: str):
    """Wide count pivot: sources × languages (stages/rollup.py:pivot_counts)
    — the generic form of the reference's wide CSV pivot (runner.py:973-1019,
    groups × rasters).  Categories are EXPLICIT (schema is a function of the
    call, not the data); only pair-universe count partials shuffle."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.rollup import pivot_counts

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "lang"])
    return pivot_counts(
        ds,
        index_col="source",
        columns_col="lang",
        categories=["de", "en", "es", "fr", "zh"],
    )


def q_link_graph(sf_dir: str):
    """Host-level link graph from raw html (stages/web.py:link_graph) —
    the PageRank/domain-signal input step.  The synthetic corpus html has
    no anchors, so the fixture PLANTS ``doc_id % 4`` deterministic
    ``<a href=…>`` tags per page (same construction in the SQL oracle via
    unnest(generate_series)); extraction is Arrow split kernels + numpy
    offset math (no extract-all regex exists in pyarrow), and only
    edge-universe-sized (src_host, dst_host) count partials ever shuffle."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.sources.pages import docs_batch_to_pages
    from zonal_stats_toolkit_ray.stages.web import link_graph

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )

    def plant(t: pa.Table) -> pa.Table:
        p = docs_batch_to_pages(t)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        anchors = np.full(len(ids), "", dtype=object)
        for i in range(3):
            a = (
                '<a href="https://host'
                + pd.Series((ids * 7 + i) % 20).astype(str)
                + f'.example.com/p{i}">x</a>'
            )
            anchors = anchors + np.where(ids % 4 > i, a.to_numpy(dtype=object), "")
        html = pc.binary_join_element_wise(
            pc.cast(p["html"], pa.string()),
            pa.array(anchors.tolist(), pa.string()),
            "",
        )
        return p.set_column(
            p.schema.get_field_index("html"), "html", pc.cast(html, pa.binary())
        )

    pages = ds.map_batches(plant, batch_format="pyarrow")
    return link_graph(pages)


def q_json_extract_agg(sf_dir: str):
    """Flat-JSON scalar extraction over the events payload column + a
    per-event-type rollup (n, sum_k, avg_k).  Extraction is one RE2 kernel
    per batch (stages/web.py:json_scalar_batch — exactly json_extract for
    flat machine-emitted props; nested JSON documented out of scope);
    rollup is in-batch partials → one group-count-sized aggregate.  avg_k
    is the raw float64 division (identical arithmetic in the oracle — no
    rounding, so no tie-mode divergence)."""
    import ray.data as rd
    from ray.data.aggregate import Sum
    from zonal_stats_toolkit_ray.stages.web import json_scalar_batch

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def partials(b: pa.Table) -> pa.Table:
        b = json_scalar_batch(b, json_col="props", key="k", out_col="k")
        t = pa.table({"event_type": b["event_type"], "k": b["k"]})
        g = t.group_by("event_type").aggregate([("k", "sum"), ("k", "count")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "sum_k": pc.cast(g["k_sum"], pa.int64()),
                "n": pc.cast(g["k_count"], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .repartition(4)
        .groupby("event_type")
        .aggregate(Sum("sum_k", alias_name="sum_k"), Sum("n", alias_name="n"))
    )
    df = agg.to_pandas()  # event-type-sized
    df["sum_k"] = df["sum_k"].astype("int64")
    df["n"] = df["n"].astype("int64")
    df["avg_k"] = df["sum_k"].astype("float64") / df["n"].astype("float64")
    return (
        df.sort_values("event_type")[["event_type", "n", "sum_k", "avg_k"]]
        .reset_index(drop=True)
    )


def q_chunk_documents(sf_dir: str):
    """Overlapping context-window chunking (size=800, stride=500 codepoints)
    — the splitting pass that feeds embedding / training pipelines.  Pure
    per-batch flat-map, vectorized over chunk index (never rows); codepoint
    slicing ≡ SQL substr (stages/text.py:chunk_documents_batch)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.text import chunk_documents

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = chunk_documents(ds, size=800, stride=500)
    return (
        out.to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )


def q_assemble_chunks(sf_dir: str):
    """Chunk → reassemble roundtrip: split documents into overlapping
    windows (size=800, stride=500) then rebuild each doc from its chunks
    (stages/text.py:assemble_chunks — sorted-block vectorized assembly,
    O(blocks) boundary-fragment stitch).  The oracle is the identity over
    non-empty documents, so the hash check proves the reassembly is
    byte-exact."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.text import assemble_chunks, chunk_documents

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    chunks = chunk_documents(ds, size=800, stride=500)
    out = assemble_chunks(chunks, stride=500)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_simhash_sigs(sf_dir: str):
    """SimHash signatures per document (rows-only: token-level bit votes
    need modular exponentiation DuckDB lacks; gated by pytest + the
    dedup_simhash pipeline instead)."""
    from zonal_stats_toolkit_ray.stages.text import simhash_batch
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(simhash_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "simhash"])


def _pages_pipeline(sf_dir: str, percentiles=(5.0, 95.0), rows_sink: str | None = None):
    """Flagship pipeline (north_star): pages → geocode → H3-style cells →
    R-tree PIP spatial join (actor pool) → salted zonal reduce → grouped
    stats over the quality-score value column.  ``rows_sink`` exports the
    slim joined rows for the DuckDB reduce oracle (VERDICT r3 #4)."""
    import ray
    import ray.data as rd
    from zonal_stats_toolkit_ray.pipelines.zonal import join_points, zonal_stats_points
    from zonal_stats_toolkit_ray.sources.pages import docs_batch_to_pages
    from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones
    from zonal_stats_toolkit_ray.stages.text import quality_score_batch

    zones = synth_zones(seed=42, n_zones=24)
    zs = ZoneSet(zones)
    zones_ref = ray.put(zones) if ray.is_initialized() else zones
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    pages = ds.map_batches(docs_batch_to_pages, batch_format="pyarrow")
    pages = pages.map_batches(quality_score_batch, batch_format="pyarrow")
    joined = join_points(pages, zones_ref)
    df = zonal_stats_points(
        joined, "quality_score", zs, percentiles=list(percentiles),
        rows_sink=rows_sink,
    )
    return df


# fixed export root for the flagship reduce oracles: the oracle SQL is a
# static string, so the engine queries write their joined rows here (cleared
# per call) and the SQL reads the same paths — the driver always runs the
# Ray query before its oracle
_FLAGSHIP_ORACLE_DIR = "/tmp/graft_flagship_oracle"


def _reset_oracle_dir(name: str) -> str:
    import shutil

    d = os.path.join(_FLAGSHIP_ORACLE_DIR, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d, exist_ok=True)
    return d


def _write_group_universe(path: str, groups, *, fid_map=None):
    """Oracle side-inputs: the zone-set's group universe (for empty-group
    default rows) and optionally the fid→group map — INPUT metadata (the
    zones are synthesized in-query; they are not derivable from the
    testdata tables in SQL)."""
    import pyarrow.parquet as pq

    from zonal_stats_toolkit_ray.functions.scalars import encode_group_key

    gv = sorted(groups, key=lambda v: (v is None, str(v)))
    pq.write_table(
        pa.table(
            {
                "group_key": pa.array(
                    encode_group_key(gv).tolist(), pa.string()
                ),
                "group_value": pa.array(
                    ["" if g is None else str(g) for g in gv], pa.string()
                ),
            }
        ),
        os.path.join(path, "groups.parquet"),
    )
    if fid_map is not None:
        fids, fgroups = fid_map
        pq.write_table(
            pa.table(
                {
                    "fid": pa.array(np.asarray(fids, dtype=np.int64)),
                    "group_value": pa.array(
                        ["" if g is None else str(g) for g in fgroups],
                        pa.string(),
                    ),
                }
            ),
            os.path.join(path, "fid_groups.parquet"),
        )


_STAT_ROUND = ["min", "max", "sum", "stdev", "p5", "p95"]


def _round_stats_frame(df: pd.DataFrame) -> pd.DataFrame:
    """6-dp rounding on float stat columns for the value-hash compare (the
    engine reduces in a different float-addition order than DuckDB)."""
    out = df.copy()
    for c in _STAT_ROUND:
        if c in out.columns:
            out[c] = pd.to_numeric(out[c]).round(6)
    return out


def q_zonal_pages(sf_dir: str):
    """Flagship with a REDUCE oracle (round 4, VERDICT r3 #4): the engine
    writes its slim joined (group_key, value, nodata) rows + the group
    universe to a fixed path; the oracle SQL re-aggregates those rows in
    DuckDB (count/nodata/valid/sum/min/max/stdev-with-Q3-clamp, float32
    quantile_cont percentiles) and must match the engine's reduce to 6 dp.
    The JOIN itself is hash-checked separately by the zonal_grid_* row
    fixtures."""
    from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones

    d = _reset_oracle_dir("pages")
    zs = ZoneSet(synth_zones(seed=42, n_zones=24))
    _write_group_universe(d, zs.unique_groups)
    df = _pages_pipeline(sf_dir, rows_sink=os.path.join(d, "rows"))
    out = _round_stats_frame(df)
    out["group_value"] = out["group_value"].map(lambda g: "" if g is None else str(g))
    return out.reset_index(drop=True)  # finalize's Q8 order ('' last)


def q_zone_knn(sf_dir: str):
    """Zone-kNN with a DISTANCE re-derivation oracle (round 5, VERDICT r4
    #7): the engine exports its geocoded points and the zone-part bboxes
    (INPUT metadata — zones are synthesized in-query, not derivable from
    testdata in SQL); the oracle cross-joins them, computes the same bbox
    min-distance ``sqrt(max(minx−x, x−maxx, 0)² + …)`` in SQL, ranks the
    3 smallest per doc, and must match the engine's (doc_id, rank, dist)
    rows to 6 dp.  Ties at equal distance carry equal dist values, so the
    compare is tie-order-robust; fid correctness/zero-iff-inside stays
    certified by zone_knn_cert."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from zonal_stats_toolkit_ray.sources.pages import docs_batch_to_pages
    from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones
    from zonal_stats_toolkit_ray.stages.geocode import geocode_batch
    from zonal_stats_toolkit_ray.stages.join import ZoneKNN

    zones = synth_zones(seed=42, n_zones=24)
    zs = ZoneSet(zones)
    d = _reset_oracle_dir("zone_knn")
    pq.write_table(
        pa.table(
            {
                "part_id": pa.array(np.arange(zs.n_parts, dtype=np.int64)),
                "minx": pa.array(np.asarray(zs.minx, np.float64)),
                "maxx": pa.array(np.asarray(zs.maxx, np.float64)),
                "miny": pa.array(np.asarray(zs.miny, np.float64)),
                "maxy": pa.array(np.asarray(zs.maxy, np.float64)),
            }
        ),
        os.path.join(d, "parts.parquet"),
    )
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    pages = ds.map_batches(docs_batch_to_pages, batch_format="pyarrow")
    pts = pages.map_batches(geocode_batch, batch_format="pyarrow")
    out = pts.map_batches(
        ZoneKNN,
        fn_constructor_kwargs={"zones": zones, "k": 3},
        batch_format="pyarrow",
        concurrency=2,
    ).select_columns(["url", "lon", "lat", "knn_dists"]).to_pandas()
    out["doc_id"] = out["url"].str.rsplit("/", n=1).str[-1].astype("int64")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(out["doc_id"].to_numpy(np.int64)),
                "lon": pa.array(out["lon"].to_numpy(np.float64)),
                "lat": pa.array(out["lat"].to_numpy(np.float64)),
            }
        ),
        os.path.join(d, "points.parquet"),
    )
    k = 3
    dists = np.stack(
        [np.asarray(v, dtype=np.float64) for v in out["knn_dists"]]
    )
    long = pd.DataFrame(
        {
            "doc_id": np.repeat(out["doc_id"].to_numpy(np.int64), k),
            "rank": np.tile(np.arange(1, k + 1, dtype=np.int64), len(out)),
            "dist": np.round(dists.ravel(), 6),
        }
    )
    return long.sort_values(["doc_id", "rank"]).reset_index(drop=True)


def q_config_job(sf_dir: str):
    """Config-driven multi-job run (reference main() parity: INI validation,
    raster glob, zonal stats, Q8/Q9 pivot, timestamped CSV) — returns the
    produced CSV as a table (deterministic; rows-only check)."""
    import tempfile
    from pathlib import Path

    import pyarrow.parquet as pq

    from zonal_stats_toolkit_ray.geom.window import GridSpec
    from zonal_stats_toolkit_ray.pipelines.runner import run_config
    from zonal_stats_toolkit_ray.sources.raster import write_tiles
    from zonal_stats_toolkit_ray.sources.zones import synth_zones

    root = Path(tempfile.mkdtemp(prefix="graft_cfg_"))
    grid = GridSpec(
        x0=-180.0, y0=90.0, dx=3.75, dy=-3.75, width=96, height=48,
        nodata=-9999.0, tile_size=32,
    )
    pq.write_table(synth_zones(seed=42, n_zones=12), root / "zones.parquet")
    write_tiles(str(root / "rasterA.parquet"), grid, seed=1)
    write_tiles(str(root / "rasterB.parquet"), grid, seed=2)
    (root / "work").mkdir()
    (root / "out").mkdir()
    cfg = root / "job.ini"
    cfg.write_text(
        f"""[project]
name = job
global_work_dir = {root}/work
global_output_dir = {root}/out

[job:demo]
agg_vector = {root}/zones.parquet
agg_field = group_value
operations = avg,stdev,valid_count,total_count,p5,p95
row_col_order = agg_field,base_raster
base_raster_pattern = {root}/raster*.parquet
"""
    )
    outs = run_config(str(cfg), timestamp="2026_01_01_00_00_00")
    # round 5 (VERDICT r4 #7): deterministic MANIFEST DIGEST with a
    # constant-SQL oracle — the job is sf-independent (it synthesizes its
    # own zones/rasters with pinned seeds and timestamp), so the produced
    # CSV bytes are a pure function of the engine; any regression in INI
    # parsing, stats, Q8/Q9 pivot or CSV formatting changes the sha256 and
    # breaks the driver's value hash.  Values are 6-dp-stable (the CSV
    # writer already rounds).
    import hashlib

    body = Path(outs[0]).read_bytes()
    df = pd.read_csv(outs[0])
    return pd.DataFrame(
        {
            "csv_name": [os.path.basename(outs[0])],
            "n_rows": np.array([len(df)], dtype=np.int64),
            "n_cols": np.array([df.shape[1]], dtype=np.int64),
            "sha256": [hashlib.sha256(body).hexdigest()],
        }
    )


def q_pages_job_resume(sf_dir: str):
    """Checkpointed partitioned pages-zonal job (north_rule resume) with a
    REDUCE oracle (round 5, VERDICT r4 #7): the job's own per-partition
    ``joined`` parquet outputs (written into the flagship oracle dir) are
    re-aggregated by the SQL — count/valid/sum/min/max/Q3-clamped stdev
    per group over the union of all partitions — and must match the
    engine's resumed finalize to 6 dp; the resume behavior itself is
    pinned by constant skip-count columns (3 completed, then 3 skipped)
    that the SQL asserts literally.  Pages carry no nodata (value =
    utf8_length), so nodata_count is identically 0 on both sides."""
    import shutil

    from zonal_stats_toolkit_ray.pipelines.pages_job import run_pages_job
    from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones

    d = _reset_oracle_dir("pjob")
    out = os.path.join(d, "job")
    shutil.rmtree(out, ignore_errors=True)
    zones = synth_zones(seed=42, n_zones=16)
    _write_group_universe(d, ZoneSet(zones).unique_groups)
    first = run_pages_job(
        f"{sf_dir}/documents.parquet", zones, out, n_partitions=3
    )
    second = run_pages_job(
        f"{sf_dir}/documents.parquet", zones, out, n_partitions=3
    )
    df = _round_stats_frame(second["stats"].copy())
    df["group_value"] = df["group_value"].map(
        lambda g: "" if g is None else str(g)
    )
    for c in ("count", "nodata_count", "valid_count"):
        df[c] = df[c].astype("int64")
    df["first_run_completed"] = np.int64(len(first["report"]["completed"]))
    df["second_run_skipped"] = np.int64(len(second["report"]["skipped"]))
    return df.reset_index(drop=True)


def q_media_pipeline(sf_dir: str):
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.multimodal import media_pipeline, synth_media_table

    ds = rd.from_arrow(synth_media_table(256, seed=42))
    out = media_pipeline(ds, dim=16, n_frames=4)
    return out.select_columns(["media_id", "kind", "features", "frame_offsets_ms"])


def q_media_pipeline_cert(sf_dir: str):
    """Media-pipeline determinism certificate (round-3, VERDICT #8): the
    feature/frame plumbing must be a pure function of the input — two
    independently-constructed runs over the same synthetic media table
    (different partitioning) must agree row-for-row, AND the features must
    match an independent pure-Python reimplementation of the deterministic
    fake kernel (Horner base-31 prefix hash ⊕ len<<32 → nibble-shifted
    bytes / 255).  Emits (media_id, features_ok, frames_ok); the oracle is
    the all-TRUE expectation over the same 256 ids."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.multimodal import (
        media_pipeline,
        synth_media_table,
    )

    tbl = synth_media_table(256, seed=42)
    run1 = (
        media_pipeline(rd.from_arrow(tbl), dim=16, n_frames=4)
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    run2 = (
        media_pipeline(rd.from_arrow(tbl).repartition(7), dim=16, n_frames=4)
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    M64 = (1 << 64) - 1
    payloads = tbl["payload"].to_pylist()
    durs = tbl["duration_ms"].to_pylist()
    feats_ok, frames_ok = [], []
    for i in range(len(tbl)):
        # independent reference: pure-Python ints, no shared kernel code
        h = 0
        for b in payloads[i][:64]:
            h = (h * 31 + b) & M64
        h ^= (len(payloads[i]) << 32) & M64
        want_feats = [((h >> (4 * j)) & 0xFF) / 255.0 for j in range(16)]
        want_frames = [int(durs[i] * (j + 0.5) / 4) for j in range(4)]
        f1 = np.asarray(run1.loc[i, "features"], dtype=np.float64)
        f2 = np.asarray(run2.loc[i, "features"], dtype=np.float64)
        feats_ok.append(
            bool(
                np.allclose(f1, want_feats, atol=1e-6)
                and np.array_equal(f1, f2)
            )
        )
        o1 = list(run1.loc[i, "frame_offsets_ms"])
        o2 = list(run2.loc[i, "frame_offsets_ms"])
        frames_ok.append(bool(o1 == want_frames and o1 == o2))
    return pd.DataFrame(
        {
            "media_id": np.arange(256, dtype=np.int64),
            "features_ok": feats_ok,
            "frames_ok": frames_ok,
        }
    )


def q_simhash_sigs_cert(sf_dir: str):
    """SimHash signature certificate (round-3, VERDICT #8): the vectorized
    batch kernel must equal a second, independent pure-Python SimHash
    (whitespace tokens → Java-31 token hash → per-bit majority vote) on a
    SQL-expressible subset (doc_id < 100).  Emits (doc_id, sig_ok); the
    oracle is the all-TRUE expectation over the same ids."""
    import ray.data as rd
    import pyarrow.compute as pc
    from zonal_stats_toolkit_ray.stages.text import simhash_batch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sub = ds.map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], 100)), batch_format="pyarrow"
    ).map_batches(simhash_batch, batch_format="pyarrow")
    got = sub.select_columns(["doc_id", "text", "simhash"]).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    M64 = (1 << 64) - 1
    ok = []
    for _, r in got.iterrows():
        votes = [0] * 64
        for tok in r["text"].lower().split():
            h = 0
            for b in tok.encode():
                h = (h * 31 + b) & M64
            for bit in range(64):
                votes[bit] += 1 if (h >> bit) & 1 else -1
        want = 0
        for bit in range(64):
            if votes[bit] > 0:
                want |= 1 << bit
        ok.append(bool(int(r["simhash"]) == want))
    return pd.DataFrame({"doc_id": got["doc_id"].to_numpy(np.int64), "sig_ok": ok})


def q_zonal_raster(sf_dir: str):
    """Raster-path zonal statistics (the reference's native flow) over a
    synthetic tiled raster — grouped stats table in reference row order.

    Round 4 (VERDICT r3 #4): the engine exports its per-pixel
    (fid, value, nodata) rows — including the Q4 fallback-window pixels —
    plus the fid→group map and group universe; the oracle SQL
    re-aggregates them in DuckDB and must match the engine's reduce to
    6 dp.  The pixel→zone assignment itself is pinned by the geometry /
    golden-oracle pytest fixtures."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.geom.window import GridSpec
    from zonal_stats_toolkit_ray.pipelines.zonal import zonal_stats_raster
    from zonal_stats_toolkit_ray.sources.raster import synth_tiles_table
    from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones

    grid = GridSpec(
        x0=-180.0, y0=90.0, dx=1.875, dy=-1.875, width=192, height=96,
        nodata=-9999.0, tile_size=64,
    )
    zs = ZoneSet(synth_zones(seed=42, n_zones=24))
    d = _reset_oracle_dir("raster")
    _write_group_universe(
        d,
        zs.unique_groups,
        fid_map=(zs.all_fids, [zs.fid_to_group[f] for f in zs.all_fids]),
    )
    tiles = rd.from_arrow(synth_tiles_table(grid, seed=42))
    stats = zonal_stats_raster(
        tiles, grid, zs, percentiles=[5.0, 95.0],
        rows_sink=os.path.join(d, "rows"),
    )
    rows = []
    for gv in sorted(stats, key=lambda v: (v is None, str(v))):
        rows.append({"group_value": "" if gv is None else str(gv), **stats[gv]})
    return _round_stats_frame(pd.DataFrame(rows))


def q_ab_test(sf_dir: str):
    """Welch's t-test per event_type (stages/bivar.py:ab_test): variant =
    user_id % 2, metric = value.  Per-(group, variant) three-moment
    partials → one hash aggregate → driver finalize; the oracle re-derives
    t and the Welch–Satterthwaite dof with the identical algebra."""
    from zonal_stats_toolkit_ray.stages.bivar import ab_test
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "value"]
    )

    def add_variant(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column("variant", pa.array(u % 2, pa.int64()))

    out = ab_test(
        ds.map_batches(add_variant, batch_format="pyarrow"),
        group_col="event_type",
        variant_col="variant",
        value_col="value",
    )
    for c in ["mean_a", "mean_b", "t_stat", "dof"]:
        out[c] = out[c].round(6)
    return out.sort_values("event_type").reset_index(drop=True)


def q_intersect_distinct(sf_dir: str):
    """SQL INTERSECT: (status, priority) pairs of big orders ∩ pairs of
    urgent orders (stages/joins.py:intersect_distinct) — both sides
    collapse distributed to distinct universes; only universe-sized frames
    reach the driver inner-merge."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import intersect_distinct

    cols = ["o_orderstatus", "o_orderpriority"]
    big = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=cols + ["o_totalprice"]
    ).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 200000.0)).select(cols),
        batch_format="pyarrow",
    )
    urgent = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=cols).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")),
        batch_format="pyarrow",
    )
    return intersect_distinct(big, urgent, cols)


def q_vocab_ids(sf_dir: str):
    """Frequency-ranked vocabulary id assignment (stages/text.py:
    vocabulary_ids): distributed (token, df) aggregate → ONE range sort →
    two-pass block-offset scan for contiguous ROW_NUMBER ids; nothing
    vocabulary-sized lands on the driver."""
    from zonal_stats_toolkit_ray.stages.text import vocabulary_ids
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    out = vocabulary_ids(ds).to_pandas()
    return out.sort_values("token_id").reset_index(drop=True)


def q_skyline(sf_dir: str):
    """2-D Pareto frontier of (l_quantity, l_extendedprice), both
    maximized (stages/pareto.py:skyline): associative per-block frontier
    reduction + driver finalize.  Oracle = per-x max → strictly-increasing
    running-max window filter."""
    from zonal_stats_toolkit_ray.stages.pareto import skyline
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_extendedprice"]
    )
    out = skyline(ds, x_col="l_quantity", y_col="l_extendedprice")
    out["y"] = out["y"].round(6)
    return out


def q_weighted_median(sf_dir: str):
    """Exact lower weighted median of l_quantity per returnflag, weighted
    by trunc(l_extendedprice) (stages/rank.py:weighted_median_by_group):
    (key, value) weight partials → one hash aggregate → driver cumweight
    scan.  Integer-valued weights keep the cumulative sums exact in
    float64 on both sides, so the >= threshold test is bit-identical to
    the SQL window."""
    from zonal_stats_toolkit_ray.stages.rank import weighted_median_by_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    ).map_batches(
        lambda t: t.set_column(
            t.column_names.index("l_extendedprice"),
            "l_extendedprice",
            pc.floor(t["l_extendedprice"]),
        ),
        batch_format="pyarrow",
    )
    return weighted_median_by_group(
        ds,
        key_col="l_returnflag",
        value_col="l_quantity",
        weight_col="l_extendedprice",
    )


def q_max_streak(sf_dir: str):
    """Longest consecutive-active-days streak per user
    (stages/intervals.py:max_streak_by_key): distributed distinct
    (user, day) → [d, d+1] closed intervals → interval_union island
    stitch → per-key max.  Oracle = classic day − ROW_NUMBER islands."""
    from zonal_stats_toolkit_ray.stages.intervals import max_streak_by_key
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return max_streak_by_key(ds)


def q_dup_spans(sf_dir: str):
    """Duplicated 8-gram span coverage per doc (stages/dupspan.py) — the
    Lee et al. 2022 exact-substring dedup signal: positional string grams
    → distributed df aggregate → dup-gram filter (dual regime) →
    interval-union span merge → per-doc covered-token counts.  Integer
    columns only (the ratio is derivable; integer outputs keep the oracle
    hash free of divide-then-round boundary effects)."""
    from zonal_stats_toolkit_ray.stages.dupspan import dup_span_coverage
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = dup_span_coverage(ds, n=8)
    return out[["doc_id", "n_tokens", "covered"]]


def q_rolling_median(sf_dir: str):
    """Per-user rolling median over a 10-row SQL ROWS frame
    (stages/rolling.py:rolling_rows_median): one (user, ts, id) range
    sort, O(blocks × k) boundary context chained across blocks on the
    driver, block-local pandas rolling kernel.  Oracle = median(...) OVER
    (... ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)."""
    from zonal_stats_toolkit_ray.stages.rolling import rolling_rows_median
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    out = rolling_rows_median(ds, k=10).to_pandas()
    out["roll_med"] = out["roll_med"].round(6)
    return out.sort_values("event_id").reset_index(drop=True)


def q_edit_join(sf_dir: str):
    """PassJoin edit-distance self-join (stages/editjoin.py): all doc
    pairs whose 24-char text prefixes are within Levenshtein distance 2 —
    segment-pigeonhole equality join for candidates, vectorized
    across-pairs DP verify.  Oracle = brute levenshtein() with a length
    prefilter."""
    from zonal_stats_toolkit_ray.stages.editjoin import edit_distance_join
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "s": pc.utf8_slice_codeunits(
                    pc.fill_null(t["text"], ""), 0, 24
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return edit_distance_join(ds, id_col="doc_id", str_col="s", k=2)


def q_ohlc(sf_dir: str):
    """Daily OHLC per user (stages/ohlc.py): open/close are ARGMIN/ARGMAX
    aggregates over (ts, id) — associative partials, no sort; tree
    combine above threshold.  Oracle = ROW_NUMBER first/last rows."""
    from zonal_stats_toolkit_ray.stages.ohlc import ohlc
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    out = ohlc(ds, bucket_s=86400)
    for c in ["open", "high", "low", "close"]:
        out[c] = out[c].round(6)
    return out


def q_cusum(sf_dir: str):
    """Per-user CUSUM anomaly scan (stages/cusum.py): the clamped
    recurrence max(0, s+x) as a distributed (running-sum, running-min)
    scan over ONE range sort; int64 arithmetic (x = floor(value·1000) −
    10000) makes the result bit-identical to the SQL window closed form
    p − min(0, running-min p)."""
    from zonal_stats_toolkit_ray.stages.cusum import cusum_by_key
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    ).map_batches(
        lambda t: t.append_column(
            "x",
            pa.array(
                np.floor(
                    t["value"].to_numpy(zero_copy_only=False) * 1000.0
                ).astype(np.int64)
                - 10_000,
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    )
    out = cusum_by_key(ds).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_assortativity(sf_dir: str):
    """In-degree assortativity of the deterministic 3-out-regular doc
    graph (stages/graph.py:degree_assortativity): one degree aggregate,
    two dual-regime joins, one six-moment corr pass.  Oracle = the same
    edge construction + corr() in SQL."""
    from zonal_stats_toolkit_ray.stages.graph import degree_assortativity
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = ds.count()

    def edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([ids, ids, ids])
        dst = np.concatenate(
            [(ids * 3 + 1) % n, (ids * 4 + 2) % n, (ids * 5 + 3) % n]
        )
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    out = degree_assortativity(ds.map_batches(edges, batch_format="pyarrow"))
    out["assort"] = out["assort"].round(6)
    return out


_EXPECT_RULES = (
    ("not_null", "user_id"),
    ("not_null", "value"),
    ("in_range", "value", 0.0, 100.0),
    ("accepted_values", "event_type", ("click", "view", "purchase")),
    ("matches_regex", "props", r'^\{"k"'),
    ("unique", "event_id"),
    ("unique", "user_id"),
)


def _expect_sql() -> str:
    """SQL twin GENERATED from _EXPECT_RULES (the pii_scrub pattern —
    engine and oracle cannot drift)."""
    from zonal_stats_toolkit_ray.stages.expect import rule_label

    parts = []
    for rule in _EXPECT_RULES:
        kind, col = rule[0], rule[1]
        if kind == "not_null":
            expr = f"SUM(CASE WHEN {col} IS NULL THEN 1 ELSE 0 END)"
        elif kind == "in_range":
            expr = (
                f"SUM(CASE WHEN {col} < {rule[2]} OR {col} > {rule[3]} "
                "THEN 1 ELSE 0 END)"
            )
        elif kind == "accepted_values":
            vals = ", ".join(f"'{v}'" for v in rule[2])
            expr = (
                f"SUM(CASE WHEN {col} IS NOT NULL AND {col} NOT IN ({vals}) "
                "THEN 1 ELSE 0 END)"
            )
        elif kind == "matches_regex":
            # DuckDB single-quoted literals take backslashes verbatim —
            # only quotes need doubling
            pat = rule[2].replace("'", "''")
            expr = (
                f"SUM(CASE WHEN {col} IS NOT NULL AND NOT "
                f"regexp_matches({col}, '{pat}') THEN 1 ELSE 0 END)"
            )
        elif kind == "unique":
            expr = f"COUNT(*) - COUNT(DISTINCT {col})"
        lbl = rule_label(rule)
        parts.append(
            f"SELECT '{lbl}' AS rule, CAST(coalesce({expr}, 0) AS BIGINT) "
            f"AS violations, CAST(coalesce({expr}, 0) AS BIGINT) = 0 "
            "AS passed FROM events"
        )
    return "\nUNION ALL\n".join(parts)


def q_expectations(sf_dir: str):
    """Data-quality expectations over events (stages/expect.py): one
    fixed-partial scan pass for the row rules + one pruned distinct
    aggregate per uniqueness rule; SQL twin generated from the same rule
    tuple."""
    from zonal_stats_toolkit_ray.stages.expect import expect
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet")
    out = expect(ds, list(_EXPECT_RULES))
    return out.sort_values("rule").reset_index(drop=True)


def q_weekly_growth(sf_dir: str):
    """Week-over-week deltas per user (stages/cohort.py:weekly_growth):
    integer weekly-sum partials → one hash aggregate → LAG on the
    keys×weeks universe frame.  Integer totals keep both sides exact."""
    from zonal_stats_toolkit_ray.stages.cohort import weekly_growth
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return weekly_growth(ds)


def q_silhouette(sf_dir: str):
    """Centroid-based silhouette per embedding (stages/kmeans.py:
    silhouette): broadcast centroids, one streaming pass of (x−c)²
    distance cubes.  The engine exports the fitted centroids; the oracle
    re-derives da/db/s per vector from them — a full value oracle."""
    from zonal_stats_toolkit_ray.stages.kmeans import (
        kmeans_fit,
        silhouette,
        write_centroids_oracle,
    )
    import ray.data as rd

    os.makedirs(_PCA_ORACLE_DIR, exist_ok=True)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cent, _ = kmeans_fit(ds, k=8, iters=5)
    write_centroids_oracle(
        cent, os.path.join(_PCA_ORACLE_DIR, "sil_centroids.parquet")
    )
    out = silhouette(ds, cent).to_pandas()
    out["s"] = out["s"].round(6)
    return out.sort_values("vec_id").reset_index(drop=True)


def q_zonal_mode(sf_dir: str):
    """Majority zonal statistic — the dominant language per grid zone
    (the raster MAJORITY/mode statistic the reference's VALID_OPERATIONS
    lacks, runner.py:23-38): grid-zone assignment + the distributed
    mode_per_group pair-count kernel."""
    from zonal_stats_toolkit_ray.stages.rank import mode_per_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    ).map_batches(_grid_zone_batch, batch_format="pyarrow")
    out = mode_per_group(ds, key_col="zone_id", value_col="lang")
    return out.sort_values("zone_id").reset_index(drop=True)


def q_resample_locf(sf_dir: str):
    """Daily resample with forward fill per user (stages/resample.py):
    distributed daily-close partials (the OHLC argmax kernel), then the
    calendar grid + LOCF on the keys×days universe frame.  Oracle =
    generate_series grid ASOF-joined to the daily closes."""
    from zonal_stats_toolkit_ray.stages.resample import resample_daily_locf
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    out = resample_daily_locf(ds)
    out["close"] = out["close"].round(6)
    return out


def q_vocab_overlap(sf_dir: str):
    """Pairwise vocabulary overlap between languages (stages/text.py:
    vocab_overlap): one text pass of distinct (lang, token) partials →
    global universe → self hash-join on token for intersections.  Integer
    outputs (inter, sizes); Jaccard is derivable."""
    from zonal_stats_toolkit_ray.stages.text import vocab_overlap
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    return vocab_overlap(ds)


def q_phrase_search(sf_dir: str):
    """Inverted-index phrase search (stages/invindex.py:phrase_search):
    the query phrase is doc 0's first three tokens (data-derived, so ≥1
    match exists at every sf); AND over pruned posting-bucket reads, then
    a consecutive-token substring verify over candidates only."""
    from zonal_stats_toolkit_ray.stages.invindex import phrase_search
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    head = (
        ds.filter(expr="doc_id == 0").take(1)[0]["text"].lower().split()
    )
    phrase = " ".join(head[:3])
    return phrase_search(ds, phrase, index_dir="/tmp/graft_phrase_idx")


def q_upsert_latest(sf_dir: str):
    """Latest-record-wins compaction (stages/incremental.py:
    latest_by_key) — the CDC MERGE/upsert reduce: base orders + a
    synthesized update shard (keys % 7, repriced, higher source
    priority); per-key ARGMAX over full rows, associative tree combine.
    Oracle = ROW_NUMBER ... ORDER BY src DESC = 1."""
    from zonal_stats_toolkit_ray.stages.incremental import latest_by_key
    import ray.data as rd

    base = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(
        lambda t: t.append_column(
            "src", pa.array(np.zeros(len(t), dtype=np.int64))
        ),
        batch_format="pyarrow",
    )
    def make_updates(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        f = t.filter(pa.array(k % 7 == 0))
        return pa.table(
            {
                "o_orderkey": f["o_orderkey"],
                "o_totalprice": pc.add(f["o_totalprice"], 1000.0),
                "src": pa.array(np.ones(len(f), dtype=np.int64)),
            }
        )

    upd = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(make_updates, batch_format="pyarrow")
    out = latest_by_key(
        base.union(upd), key_col="o_orderkey", order_cols=["src"]
    )
    out["o_totalprice"] = out["o_totalprice"].round(6)
    return out[["o_orderkey", "o_totalprice", "src"]]


def q_user_entropy(sf_dir: str):
    """Per-user event-type Shannon entropy (stages/profile.py:
    group_entropy): (key, category) count partials → hash aggregate →
    universe-frame finalize; SQL-identical −Σ p·log2 p."""
    from zonal_stats_toolkit_ray.stages.profile import group_entropy
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    out = group_entropy(ds)
    out["entropy"] = out["entropy"].round(6)
    return out


def q_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS — the generic form cube/rollup specialize
    (stages/rollup.py:grouping_sets_sum_count): one finest-grain pass,
    each requested set re-aggregates the universe frame."""
    from zonal_stats_toolkit_ray.stages.rollup import grouping_sets_sum_count
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )
    out = grouping_sets_sum_count(
        ds,
        keys=["l_returnflag", "l_linestatus"],
        value_col="l_quantity",
        sets=[["l_returnflag", "l_linestatus"], ["l_returnflag"], []],
    )
    out["sum_v"] = out["sum_v"].round(6)
    return out


def q_winsor_mean(sf_dir: str):
    """Winsorized mean of n_chars per language (stages/rank.py:
    winsorized_mean_by_group): exact interpolated [p5, p95] clip + mean,
    all from ONE (key, value) universe aggregate."""
    from zonal_stats_toolkit_ray.stages.rank import winsorized_mean_by_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    out = winsorized_mean_by_group(ds, key_col="lang", value_col="n_chars")
    for c in ["lo", "hi", "wmean"]:
        out[c] = out[c].round(6)
    return out


def q_star_join(sf_dir: str):
    """TPC-H Q5-shape star join: lineitem ⋈ orders(1996) ⋈ customer ⋈
    supplier ⋈ nation ⋈ region('ASIA'), local-supplier predicate
    (c_nationkey = s_nationkey), revenue per nation.  Five dual-regime
    hash_joins (dimensions auto-broadcast, fact joins shuffle) + in-batch
    revenue partials — the joined rows never re-shuffle."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.joins import hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(
                    t["o_orderdate"], pa.scalar(pd.Timestamp("1996-01-01"))
                ),
                pc.less(t["o_orderdate"], pa.scalar(pd.Timestamp("1997-01-01"))),
            )
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    supp = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nat = rd.read_parquet(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    reg = rd.read_parquet(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).map_batches(
        lambda t: t.filter(pc.equal(t["r_name"], "ASIA")).select(["r_regionkey"]),
        batch_format="pyarrow",
    )
    j = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey")
    j = hash_join(j, cust, on="o_custkey", right_on="c_custkey")
    j = hash_join(j, supp, on="l_suppkey", right_on="s_suppkey")
    j = j.map_batches(
        lambda t: t.filter(pc.equal(t["c_nationkey"], t["s_nationkey"])),
        batch_format="pyarrow",
    )
    j = hash_join(j, nat, on="s_nationkey", right_on="n_nationkey")
    j = hash_join(j, reg, on="n_regionkey", right_on="r_regionkey")

    def partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(
            b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"])
        )
        t = pa.table({"n_name": b["n_name"], "rev": rev})
        g = t.group_by("n_name").aggregate([("rev", "sum"), ("rev", "count")])
        return pa.table(
            {
                "n_name": g["n_name"],
                "revenue": g["rev_sum"],
                "n_items": pc.cast(g["rev_count"], pa.int64()),
            }
        )

    p = j.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = p.groupby("n_name", as_index=False).agg(
        revenue=("revenue", "sum"), n_items=("n_items", "sum")
    )
    out["revenue"] = out["revenue"].round(2)
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values("n_name").reset_index(drop=True)[
        ["n_name", "n_items", "revenue"]
    ]


def q_embedding_profile(sf_dir: str):
    """Per-dimension embedding distribution profile (stages/profile.py:
    embedding_profile): fixed (d × 5)-double partials per block, driver
    merge; population σ with the reference's clamp."""
    from zonal_stats_toolkit_ray.stages.profile import embedding_profile
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    out = embedding_profile(ds)
    for c in ["mean", "std", "min", "max"]:
        out[c] = out[c].round(6)
    return out


def q_incremental_rollup(sf_dir: str):
    """Materialized-view maintenance (stages/incremental.py:
    incremental_rollup): fold two event shards (even/odd event_id) into
    persisted state one after the other; integer totals make the two
    increments bit-identical to the full-recompute oracle."""
    import shutil

    from zonal_stats_toolkit_ray.stages.incremental import incremental_rollup
    import ray.data as rd

    state = "/tmp/graft_incr_rollup"
    shutil.rmtree(state, ignore_errors=True)

    def shard(parity: int):
        return rd.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
        ).map_batches(
            lambda t, p=parity: t.filter(
                pa.array(
                    t["event_id"].to_numpy(zero_copy_only=False) % 2 == p
                )
            ).select(["event_type", "value"]),
            batch_format="pyarrow",
        )

    incremental_rollup(
        shard(0), state, key_cols=["event_type"], value_col="value"
    )
    out = incremental_rollup(
        shard(1), state, key_cols=["event_type"], value_col="value"
    )
    return out


def q_snapshot_diff(sf_dir: str):
    """Table-snapshot diff (stages/joins.py:snapshot_diff): old = orders;
    new = orders with keys %7 repriced (changed), %11==3 dropped
    (removed), and a shifted-key shard appended (added).  One full outer
    hash join with presence markers; only diff rows reach the driver."""
    from zonal_stats_toolkit_ray.stages.joins import snapshot_diff
    import ray.data as rd

    old = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def make_new(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        keep = k % 11 != 3
        k2, v2 = k[keep], v[keep].copy()
        v2 = np.where(k2 % 7 == 0, v2 + 1000.0, v2)
        add = k % 13 == 5
        ka = k[add] + 10_000_000
        va = v[add]
        return pa.table(
            {
                "o_orderkey": pa.array(
                    np.concatenate([k2, ka]), pa.int64()
                ),
                "o_totalprice": pa.array(
                    np.concatenate([v2, va]), pa.float64()
                ),
            }
        )

    new = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(make_new, batch_format="pyarrow")
    return snapshot_diff(
        old, new, key_col="o_orderkey", compare_cols=["o_totalprice"]
    )


def q_kwic(sf_dir: str):
    """Keyword-in-context concordance for 'spark' (stages/text.py:kwic):
    embarrassingly parallel tokenize + match + ±3-token snippets."""
    from zonal_stats_toolkit_ray.stages.text import kwic
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = kwic(ds, "spark", window=3).to_pandas()
    return out.sort_values(["doc_id", "pos"]).reset_index(drop=True)


def q_mad_outliers(sf_dir: str):
    """Robust per-group outlier detection: events whose |value − median|
    exceeds 3×MAD of their event_type (stages/bivar.py:mad_by_group +
    broadcast threshold filter).  Values scale to integer cents
    (round(value·100)), so medians/MADs and the 3×MAD comparison are
    exact integer/half-integer arithmetic on both sides."""
    from zonal_stats_toolkit_ray.stages.bivar import mad_by_group
    import ray
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    ).map_batches(
        lambda t: t.append_column(
            "cents",
            pa.array(
                np.rint(
                    t["value"].to_numpy(zero_copy_only=False) * 100.0
                ).astype(np.int64),
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    )
    stats = mad_by_group(ds, key_col="event_type", value_col="cents")
    lut = {
        r.event_type: (float(r.median), float(r.mad))
        for r in stats.itertuples(index=False)
    }
    ref = ray.put(lut)

    def flag(t: pa.Table, *, _ref=ref) -> pa.Table:
        m = ray.get(_ref)
        et = t["event_type"].to_pylist()
        med = np.array([m[e][0] for e in et])
        mad = np.array([m[e][1] for e in et])
        v = t["cents"].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = np.abs(v - med) > 3.0 * mad
        return t.select(["event_id", "event_type", "cents"]).filter(
            pa.array(keep)
        )

    out = ds.map_batches(flag, batch_format="pyarrow").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_ols2(sf_dir: str):
    """Two-feature OLS per returnflag (stages/bivar.py:ols2_by_group):
    floor(price) ~ quantity + discount·100 — all inputs integral, so the
    nine moment sums are exact float64 integers and the Cramer finalize
    (same parenthesization as the SQL) is bit-identical to the oracle."""
    from zonal_stats_toolkit_ray.stages.bivar import ols2_by_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount", "l_extendedprice"],
    ).map_batches(
        lambda t: pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "x1": pc.cast(t["l_quantity"], pa.float64()),
                "x2": pa.array(
                    np.rint(
                        t["l_discount"].to_numpy(zero_copy_only=False) * 100.0
                    )
                ),
                "y": pc.floor(pc.cast(t["l_extendedprice"], pa.float64())),
            }
        ),
        batch_format="pyarrow",
    )
    out = ols2_by_group(
        ds, key_col="l_returnflag", x1_col="x1", x2_col="x2", y_col="y"
    )
    for c in ["b0", "b1", "b2"]:
        out[c] = out[c].round(6)
    return out


def q_target_encode(sf_dir: str):
    """Leave-one-out target encoding of event_type against floor(value)
    (stages/bivar.py:target_encode_loo): one category aggregate broadcast,
    vectorized per-batch encode; integral targets ⇒ exact sums."""
    from zonal_stats_toolkit_ray.stages.bivar import target_encode_loo
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    ).map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "v": pc.floor(pc.cast(t["value"], pa.float64())),
            }
        ),
        batch_format="pyarrow",
    )
    out = (
        target_encode_loo(
            ds, key_col="event_id", cat_col="event_type", value_col="v"
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    out["te"] = out["te"].round(6)
    return out[["event_id", "event_type", "te"]]


def q_benford(sf_dir: str):
    """Benford first-digit audit of events.value (stages/profile.py:
    benford_digits): fixed 9-counter partials per block; expected counts
    from total · log10(1 + 1/d)."""
    from zonal_stats_toolkit_ray.stages.profile import benford_digits
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return benford_digits(ds)


def q_chi2(sf_dir: str):
    """Chi-square independence of event_type × variant (user_id % 2)
    (stages/profile.py:chi2_independence): contingency count partials →
    universe aggregate → SQL-identical (o−e)²/e statistic."""
    from zonal_stats_toolkit_ray.stages.profile import chi2_independence
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    ).map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                "variant": pa.array(
                    t["user_id"].to_numpy(zero_copy_only=False) % 2, pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return chi2_independence(ds, row_col="event_type", col_col="variant")


def q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining (stages/knn.py:hard_negatives):
    for each of the first 100 embeddings, the nearest vector with a
    DIFFERENT label — broadcast query pack, per-batch (x−c)² cube with a
    label mask, blocks×nq driver merge.  Oracle = unnest distance join +
    ROW_NUMBER."""
    from zonal_stats_toolkit_ray.stages.knn import hard_negatives
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    qdf = ds.filter(expr="vec_id < 100").to_pandas()
    queries = {
        "query_id": qdf["vec_id"].to_numpy(),
        "matrix": np.stack(
            [np.asarray(v, dtype=np.float64) for v in qdf["embedding"]]
        ),
        "label": qdf["label"].to_numpy(),
    }
    out = hard_negatives(ds, queries)
    return out.sort_values("query_id").reset_index(drop=True)


def q_psi(sf_dir: str):
    """Population Stability Index of events.value between even- and
    odd-user segments (stages/profile.py:psi_drift): reference-decile
    bins + Laplace-smoothed PSI terms, all from ONE (segment, value)
    count-universe aggregate."""
    from zonal_stats_toolkit_ray.stages.profile import psi_drift
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    ).map_batches(
        lambda t: pa.table(
            {
                "seg": pa.array(
                    t["user_id"].to_numpy(zero_copy_only=False) % 2, pa.int64()
                ),
                "value": t["value"],
            }
        ),
        batch_format="pyarrow",
    )
    return psi_drift(ds, value_col="value", seg_col="seg", ref_segment=0)


def q_encode_corpus(sf_dir: str):
    """Corpus → frequency-ranked token-id sequences (stages/text.py:
    encode_corpus): distributed vocabulary build + broadcast index_in
    encode + vectorized ListArray/binary_join rebuild."""
    from zonal_stats_toolkit_ray.stages.text import encode_corpus
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = encode_corpus(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_rrf_fusion(sf_dir: str):
    """Reciprocal Rank Fusion of two per-lang top-20 rankings
    (stages/rank.py:rrf_fuse over two distributed topk_per_group lists):
    list A by n_chars, list B by a deterministic pseudo-relevance hash;
    score = Σ 1/(60 + rank), top-10 per lang."""
    from zonal_stats_toolkit_ray.stages.rank import rrf_fuse, topk_per_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    ).map_batches(
        lambda t: t.append_column(
            "pseudo",
            pa.array(
                (t["doc_id"].to_numpy(zero_copy_only=False) * 7919) % 1000,
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    )

    def ranked(value_col: str) -> pd.DataFrame:
        top = topk_per_group(
            ds, key_col="lang", value_col=value_col, id_col="doc_id", k=20
        )
        top = top.sort_values(
            ["lang", value_col, "doc_id"],
            ascending=[True, False, True],
            kind="stable",
        ).reset_index(drop=True)
        top["rank"] = top.groupby("lang").cumcount() + 1
        return top[["lang", "doc_id", "rank"]]

    out = rrf_fuse(
        [ranked("n_chars"), ranked("pseudo")],
        query_col="lang",
        doc_col="doc_id",
    )
    out["score"] = out["score"].round(6)
    return out.sort_values(["lang", "rrf_rank"]).reset_index(drop=True)


def q_quantile_transform(sf_dir: str):
    """ECDF transform of events.value (stages/normalize.py:
    quantile_transform): one value-universe aggregate, broadcast cum
    table, vectorized searchsorted.  Oracle = CUME_DIST() window."""
    from zonal_stats_toolkit_ray.stages.normalize import quantile_transform
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    out = quantile_transform(ds).to_pandas()
    out["ecdf"] = out["ecdf"].round(6)
    return out.sort_values("event_id").reset_index(drop=True)


def q_entity_resolution(sf_dir: str):
    """Entity resolution: PassJoin edit-distance pairs (text prefixes,
    k=2) → distributed connected components → canonical id per doc
    (min id of the fuzzy-match cluster; singletons stay themselves).
    Oracle = levenshtein pair edges + WITH RECURSIVE reachability."""
    from zonal_stats_toolkit_ray.stages.dedup import (
        distributed_connected_components,
    )
    from zonal_stats_toolkit_ray.stages.editjoin import edit_distance_join
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    strs = docs.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "s": pc.utf8_slice_codeunits(pc.fill_null(t["text"], ""), 0, 24),
            }
        ),
        batch_format="pyarrow",
    )
    pairs = edit_distance_join(strs, id_col="doc_id", str_col="s", k=2)
    ids = docs.select_columns(["doc_id"]).to_pandas()
    if len(pairs):
        cc = distributed_connected_components(
            rd.from_pandas(pairs[["a", "b"]].astype(np.int64))
        )
        out = ids.merge(cc, on="doc_id", how="left")
        out["canonical_id"] = (
            out["cluster_id"].fillna(out["doc_id"]).astype(np.int64)
        )
    else:
        out = ids.copy()
        out["canonical_id"] = out["doc_id"]
    return (
        out[["doc_id", "canonical_id"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_negative_samples(sf_dir: str):
    """word2vec/NCE negative sampling (stages/text.py:negative_samples):
    5 deterministic draws per doc from the unigram^0.75 distribution via
    Knuth-hash uniforms through the broadcast inverse CDF."""
    from zonal_stats_toolkit_ray.stages.text import negative_samples
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = negative_samples(ds, per_doc=5).to_pandas()
    return out.sort_values(["doc_id", "j"]).reset_index(drop=True)


def q_gini(sf_dir: str):
    """Gini concentration of l_quantity per returnflag (stages/rank.py:
    gini_by_group): closed-form tie-block rank algebra over the
    (key, value) count universe — integer-exact vs the SQL ROW_NUMBER
    form."""
    from zonal_stats_toolkit_ray.stages.rank import gini_by_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )
    return gini_by_group(ds, key_col="l_returnflag", value_col="l_quantity")


def q_range_layout(sf_dir: str):
    """Range-sorted layout with manifest pruning (stages/sorted_layout.py
    — the Iceberg sort-order zone-map pattern): orders sorted by
    o_totalprice into per-block files; a [100k, 150k] range query reads
    ONLY overlapping files (asserted) and must equal the full-scan
    filter."""
    from zonal_stats_toolkit_ray.stages.sorted_layout import (
        range_read,
        sorted_layout_write,
    )
    import ray.data as rd

    out = "/tmp/graft_sorted_layout"
    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    sorted_layout_write(ds, out, key_col="o_totalprice")
    stats: dict = {}
    res = (
        range_read(out, 100_000.0, 150_000.0, stats_out=stats)
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    assert stats["files_read"] <= stats["files_total"]  # pruning telemetry
    res["o_totalprice"] = res["o_totalprice"].round(6)
    return res[["o_orderkey", "o_totalprice"]]


def q_auc(sf_dir: str):
    """Per-variant ROC AUC of value against is-purchase (stages/bivar.py:
    auc_by_group): Mann–Whitney midrank form from the (group, score)
    count universe — exact half-integer arithmetic vs the SQL
    RANK()+COUNT() window."""
    from zonal_stats_toolkit_ray.stages.bivar import auc_by_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"],
    ).map_batches(
        lambda t: pa.table(
            {
                "grp": pa.array(
                    t["user_id"].to_numpy(zero_copy_only=False) % 2, pa.int64()
                ),
                "y": pc.cast(
                    pc.equal(t["event_type"], "purchase"), pa.int64()
                ),
                "value": t["value"],
            }
        ),
        batch_format="pyarrow",
    )
    return auc_by_group(
        ds, group_col="grp", label_col="y", score_col="value"
    )


def q_csv_jsonl_source(sf_dir: str):
    """Source-format coverage: export two event shards (even event_ids →
    CSV, odd → JSONL — integer/string columns, lossless roundtrip), read
    them back with ray.data.read_csv / read_json, union, and aggregate.
    Oracle = the same counts straight off the parquet."""
    import shutil

    import ray.data as rd

    base = "/tmp/graft_altsrc"
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(f"{base}/csv", exist_ok=True)
    os.makedirs(f"{base}/jsonl", exist_ok=True)
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type"],
    )

    def shard(parity: int):
        return ds.map_batches(
            lambda t, p=parity: t.filter(
                pa.array(t["event_id"].to_numpy(zero_copy_only=False) % 2 == p)
            ),
            batch_format="pyarrow",
        )

    shard(0).write_csv(f"{base}/csv")
    shard(1).write_json(f"{base}/jsonl")
    back = rd.read_csv(f"{base}/csv").union(rd.read_json(f"{base}/jsonl"))

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.select(["event_type", "user_id"])
            .group_by("event_type")
            .aggregate([("user_id", "count"), ("user_id", "sum")])
        )
        return pa.table(
            {
                "event_type": g["event_type"],
                "n": pc.cast(g["user_id_count"], pa.int64()),
                "sum_user": pc.cast(g["user_id_sum"], pa.int64()),
            }
        )

    p = back.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = (
        p.groupby("event_type", as_index=False)[["n", "sum_user"]]
        .sum()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    out["n"] = out["n"].astype(np.int64)
    out["sum_user"] = out["sum_user"].astype(np.int64)
    return out


def q_zonal_algebra(sf_dir: str):
    """Raster map algebra + zonal statistics: the NDVI-shape normalized
    difference of two synthetic bands (sources/raster.py:raster_algebra —
    one tile-key hash join + one vectorized buffer pass, Q2 isclose
    nodata propagation), reduced by the flagship zonal pipeline with the
    rows_sink export oracle (the q_zonal_raster pattern).  The algebra
    kernel itself is pytest-pinned (brute numpy equality)."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.geom.window import GridSpec
    from zonal_stats_toolkit_ray.pipelines.zonal import zonal_stats_raster
    from zonal_stats_toolkit_ray.sources.raster import (
        raster_algebra,
        synth_tiles_table,
    )
    from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones

    grid = GridSpec(
        x0=-180.0, y0=90.0, dx=1.875, dy=-1.875, width=192, height=96,
        nodata=-9999.0, tile_size=64,
    )
    zs = ZoneSet(synth_zones(seed=42, n_zones=24))
    d = _reset_oracle_dir("algebra")
    _write_group_universe(
        d,
        zs.unique_groups,
        fid_map=(zs.all_fids, [zs.fid_to_group[f] for f in zs.all_fids]),
    )
    a = rd.from_arrow(synth_tiles_table(grid, seed=42))
    b = rd.from_arrow(synth_tiles_table(grid, seed=43))
    derived = raster_algebra(
        a, b, nodata_a=-9999.0, nodata_b=-9999.0, nodata_out=-9999.0
    )
    stats = zonal_stats_raster(
        derived, grid, zs, percentiles=[5.0, 95.0],
        rows_sink=os.path.join(d, "rows"),
    )
    rows = []
    for gv in sorted(stats, key=lambda v: (v is None, str(v))):
        rows.append({"group_value": "" if gv is None else str(gv), **stats[gv]})
    return _round_stats_frame(pd.DataFrame(rows))


def q_cdc_apply(sf_dir: str):
    """CDC log application with tombstones: a synthetic change log over
    orders (seq 0 = insert; seq 1 = repriced update for keys %7; seq 2 =
    DELETE for keys %13==5) reduced by latest_by_key, then delete rows
    drop — the MERGE-with-deletes compaction.  Oracle = ROW_NUMBER DESC
    + op <> 'D'."""
    from zonal_stats_toolkit_ray.stages.incremental import latest_by_key
    import ray.data as rd

    def log_rows(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        parts = [
            pa.table(
                {
                    "k": pa.array(k, pa.int64()),
                    "v": pa.array(v, pa.float64()),
                    "seq": pa.array(np.zeros(k.size, dtype=np.int64)),
                    "op": pa.array(["U"] * k.size, pa.string()),
                }
            )
        ]
        upd = k % 7 == 0
        parts.append(
            pa.table(
                {
                    "k": pa.array(k[upd], pa.int64()),
                    "v": pa.array(v[upd] + 1000.0, pa.float64()),
                    "seq": pa.array(np.ones(upd.sum(), dtype=np.int64)),
                    "op": pa.array(["U"] * int(upd.sum()), pa.string()),
                }
            )
        )
        dele = k % 13 == 5
        parts.append(
            pa.table(
                {
                    "k": pa.array(k[dele], pa.int64()),
                    "v": pa.array(np.zeros(int(dele.sum())), pa.float64()),
                    "seq": pa.array(np.full(int(dele.sum()), 2, dtype=np.int64)),
                    "op": pa.array(["D"] * int(dele.sum()), pa.string()),
                }
            )
        )
        return pa.concat_tables(parts).combine_chunks()

    log = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(log_rows, batch_format="pyarrow")
    latest = latest_by_key(log, key_col="k", order_cols=["seq"])
    out = latest[latest["op"] != "D"][["k", "v", "seq"]].reset_index(drop=True)
    out["v"] = out["v"].round(6)
    return out


def q_association_rules(sf_dir: str):
    """Market-basket association rules over (user, event_type) baskets
    (stages/cohort.py:association_rules): distributed distinct universe,
    one self hash-join for co-occurrence counts, integer-exact
    confidence/lift."""
    from zonal_stats_toolkit_ray.stages.cohort import association_rules
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return association_rules(ds)


def q_group_histogram(sf_dir: str):
    """Per-event_type equi-width histogram of value over [0, 500), 10
    bins (stages/sketch.py:group_histogram): (group, bin) count partials
    → one hash aggregate → zero-filled grid."""
    from zonal_stats_toolkit_ray.stages.sketch import group_histogram
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return group_histogram(
        ds, key_col="event_type", value_col="value", lo=0.0, hi=500.0
    )


def q_topk_dense(sf_dir: str):
    """DENSE_RANK ≤ 3 per returnflag on l_quantity (stages/rank.py:
    topk_dense_per_group): distinct-value universe → broadcast k-th
    threshold → one streaming filter pass (ties included)."""
    from zonal_stats_toolkit_ray.stages.rank import topk_dense_per_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity"],
    )
    out = (
        topk_dense_per_group(
            ds, key_col="l_returnflag", value_col="l_quantity", k=3
        )
        .to_pandas()
        .sort_values(["l_orderkey", "l_linenumber"])
        .reset_index(drop=True)
    )
    return out


def q_impute_median(sf_dir: str):
    """Group-median imputation (stages/normalize.py:impute_group_median):
    values planted NULL (event_id % 17 == 0) fill with their
    event_type's exact median of the remaining values."""
    from zonal_stats_toolkit_ray.stages.normalize import impute_group_median
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    ).map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "value": pc.if_else(
                    pa.array(
                        t["event_id"].to_numpy(zero_copy_only=False) % 17 == 0
                    ),
                    pa.scalar(None, pa.float64()),
                    pc.cast(t["value"], pa.float64()),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = impute_group_median(
        ds, id_col="event_id", key_col="event_type", value_col="value"
    ).to_pandas()
    out["v_filled"] = out["v_filled"].round(6)
    return out.sort_values("event_id").reset_index(drop=True)


def q_ndcg(sf_dir: str):
    """NDCG@10 of the RRF-fused ranking against graded relevance
    (rel = 21 − rank in the n_chars list) — stages/rank.py:ndcg_at_k over
    the distributed rankings of q_rrf_fusion."""
    from zonal_stats_toolkit_ray.stages.rank import ndcg_at_k, rrf_fuse, topk_per_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    ).map_batches(
        lambda t: t.append_column(
            "pseudo",
            pa.array(
                (t["doc_id"].to_numpy(zero_copy_only=False) * 7919) % 1000,
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    )

    def ranked(value_col: str) -> pd.DataFrame:
        top = topk_per_group(
            ds, key_col="lang", value_col=value_col, id_col="doc_id", k=20
        )
        top = top.sort_values(
            ["lang", value_col, "doc_id"],
            ascending=[True, False, True],
            kind="stable",
        ).reset_index(drop=True)
        top["rank"] = top.groupby("lang").cumcount() + 1
        return top[["lang", "doc_id", "rank"]]

    ra = ranked("n_chars")
    rb = ranked("pseudo")
    fused = rrf_fuse([ra, rb], query_col="lang", doc_col="doc_id")
    rels = ra.copy()
    rels["rel"] = (21 - rels["rank"]).astype(np.float64)
    out = ndcg_at_k(
        fused.rename(columns={"rrf_rank": "rank"}),
        rels[["lang", "doc_id", "rel"]],
        query_col="lang",
        doc_col="doc_id",
        rank_col="rank",
        rel_col="rel",
        k=10,
    )
    return out.sort_values("lang").reset_index(drop=True)


def q_kaplan_meier(sf_dir: str):
    """Kaplan–Meier time-to-first-purchase per variant (stages/cohort.py:
    kaplan_meier): per-user (first event, first purchase, last event)
    min/max partials → duration days (censored at last activity) →
    product-limit curve; identical operation order to the SQL windowed
    product()."""
    from zonal_stats_toolkit_ray.stages.cohort import kaplan_meier
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    BIG = np.int64(1) << 62

    def partials(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        is_p = pc.equal(t["event_type"], "purchase").to_numpy(
            zero_copy_only=False
        )
        p_ts = np.where(is_p, ts, BIG)
        tb = pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "a": pa.array(ts, pa.int64()),
                "b": pa.array(ts, pa.int64()),
                "p": pa.array(p_ts, pa.int64()),
            }
        )
        g = tb.group_by("user_id").aggregate(
            [("a", "min"), ("b", "max"), ("p", "min")]
        )
        return g.rename_columns(["user_id", "a_min", "a_max", "p_min"])

    users = (
        rd.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
        )
        .map_batches(partials, batch_format="pyarrow")
        .repartition(4)
        .groupby("user_id")
        .aggregate(
            Min("a_min", alias_name="a_min"),
            Max("a_max", alias_name="a_max"),
            Min("p_min", alias_name="p_min"),
        )
        .to_pandas()  # user-universe-sized
    )
    day = 86_400_000_000
    has_p = users["p_min"].to_numpy() < BIG
    t = np.where(
        has_p,
        (users["p_min"].to_numpy() - users["a_min"].to_numpy()) // day,
        (users["a_max"].to_numpy() - users["a_min"].to_numpy()) // day,
    ).astype(np.int64)
    frame = pd.DataFrame(
        {
            "grp": (users["user_id"].to_numpy() % 2).astype(np.int64),
            "t": t,
            "event": has_p.astype(np.int64),
        }
    )
    return kaplan_meier(
        rd.from_pandas(frame),
        group_col="grp",
        duration_col="t",
        event_col="event",
    )


def q_spearman(sf_dir: str):
    """Spearman rank correlation of quantity vs extendedprice per
    returnflag (stages/bivar.py:spearman_by_group): broadcast midrank
    maps + one six-moment pass; half-integer ranks keep both sides
    exact."""
    from zonal_stats_toolkit_ray.stages.bivar import spearman_by_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return spearman_by_group(
        ds, key_col="l_returnflag", x_col="l_quantity", y_col="l_extendedprice"
    )


def q_kendall_tau(sf_dir: str):
    """Kendall τ-b of quantity vs discount·100 per returnflag
    (stages/bivar.py:kendall_tau_by_group): exact C/D from 2-D prefix
    sums over the joint contingency — int64 throughout, the SQL twin
    counts the same cell pairs."""
    from zonal_stats_toolkit_ray.stages.bivar import kendall_tau_by_group
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount"],
    ).map_batches(
        lambda t: pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "x": pc.cast(t["l_quantity"], pa.float64()),
                "y": pa.array(
                    np.rint(
                        t["l_discount"].to_numpy(zero_copy_only=False) * 100.0
                    )
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return kendall_tau_by_group(
        ds, key_col="l_returnflag", x_col="x", y_col="y"
    )


def q_mutual_info(sf_dir: str):
    """Mutual information between event_type and variant (stages/
    profile.py:mutual_information): one contingency pass, SQL-identical
    p·ln(p/(pq)) terms."""
    from zonal_stats_toolkit_ray.stages.profile import mutual_information
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    ).map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                "variant": pa.array(
                    t["user_id"].to_numpy(zero_copy_only=False) % 2, pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return mutual_information(ds, row_col="event_type", col_col="variant")


def q_ks_test(sf_dir: str):
    """Two-sample KS statistic between even/odd user segments
    (stages/profile.py:ks_test): exact cumulative fractions from one
    (segment, value) count-universe aggregate."""
    from zonal_stats_toolkit_ray.stages.profile import ks_test
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    ).map_batches(
        lambda t: pa.table(
            {
                "seg": pa.array(
                    t["user_id"].to_numpy(zero_copy_only=False) % 2, pa.int64()
                ),
                "value": t["value"],
            }
        ),
        batch_format="pyarrow",
    )
    return ks_test(ds, value_col="value", seg_col="seg", ref_segment=0)


def q_cramers_v(sf_dir: str):
    """Cramér's V of event_type × variant (stages/profile.py:cramers_v):
    χ² reuse + pruned distinct cardinalities; SQL computes V from the
    identically-rounded χ²."""
    from zonal_stats_toolkit_ray.stages.profile import cramers_v
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    ).map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                "variant": pa.array(
                    t["user_id"].to_numpy(zero_copy_only=False) % 2, pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return cramers_v(ds, row_col="event_type", col_col="variant")


def q_bounce_rate(sf_dir: str):
    """Sessionized bounce counts per user: single-event sessions over the
    scale-safe chunked sessionizer (stages/window.py:session_windows) →
    per-user (n_sessions, bounces) — integer outputs, rate derivable."""
    from zonal_stats_toolkit_ray.stages.window import session_windows
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    sess = session_windows(ds, gap_seconds=1800.0)

    def mark(t: pa.Table) -> pa.Table:
        if "n_events" not in t.column_names:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                }
            )
        b = pc.cast(pc.equal(t["n_events"], 1), pa.int64())
        return pa.table({"user_id": t["user_id"], "b": b})

    out = (
        sess.map_batches(mark, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Count(alias_name="n_sessions"), Sum("b", alias_name="bounces"))
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    out["n_sessions"] = out["n_sessions"].astype(np.int64)
    out["bounces"] = out["bounces"].astype(np.int64)
    return out


def q_churn_labels(sf_dir: str):
    """ML label engineering: retained = another event by the SAME user
    within 7 days (inclusive window [t, t+7d]).  A FORWARD window via
    time REFLECTION: ts' = T0 − ts turns the trailing RANGE kernel
    (stages/rolling.py:rolling_window_stats, tied-timestamp peers
    included) into a forward one — no new shuffle shape.  Oracle = COUNT
    OVER RANGE ... 7 DAYS FOLLOWING ≥ 2."""
    from zonal_stats_toolkit_ray.stages.rolling import rolling_window_stats
    import ray.data as rd

    T0 = pd.Timestamp("2030-01-01").value // 1000  # epoch µs, past all data

    def reflect(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        us = us.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": pa.array(T0 - us, pa.timestamp("us")),
                "value": pa.array(np.zeros(len(t))),
            }
        )

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    ).map_batches(reflect, batch_format="pyarrow")
    out = rolling_window_stats(ds, window_s=7 * 86400.0).to_pandas()
    out["retained"] = (out["roll_n"] >= 2).astype(np.int64)
    return (
        out[["event_id", "user_id", "retained"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def q_readability(sf_dir: str):
    """Flesch-style readability per doc (stages/text.py:
    readability_batch): three RE2 count kernels + the standard formula;
    embarrassingly parallel."""
    from zonal_stats_toolkit_ray.stages.text import readability_batch
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(readability_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_arrival_rate(sf_dir: str):
    """Per-user Poisson arrival-rate MLE, events/day: inter-arrival gaps
    telescope, so λ = (n − 1) / span_days needs only (count, min ts,
    max ts) — one partial+final aggregate, nothing row-sized moves.
    Users with one event yield NULL."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    agg = (
        ds.groupby("user_id")
        .aggregate(
            Count(alias_name="n"),
            Min("ts", alias_name="t0"),
            Max("ts", alias_name="t1"),
        )
        .to_pandas()
    )
    n = agg["n"].to_numpy(dtype=np.int64)
    span_days = (
        agg["t1"].astype("datetime64[us]").astype(np.int64)
        - agg["t0"].astype("datetime64[us]").astype(np.int64)
    ).to_numpy() / 86_400_000_000.0
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where((n > 1) & (span_days > 0), (n - 1) / span_days, np.nan)
    out = pd.DataFrame(
        {
            "user_id": agg["user_id"].astype(np.int64),
            "n": n,
            "rate_per_day": np.round(lam, 6),
        }
    )
    return out.sort_values("user_id").reset_index(drop=True)


def q_ttr(sf_dir: str):
    """Type-token ratio per doc (unigram lexical diversity — the
    companion to the 8-gram repetition_ratio): distinct/total token
    counts via the shared flatten kernel; integer outputs."""
    from zonal_stats_toolkit_ray.stages.text import doc_frequency_batch
    import ray.data as rd

    def per_doc(b: pa.Table) -> pa.Table:
        t = pc.utf8_lower(pc.fill_null(b["text"], ""))
        toks = pc.split_pattern_regex(t, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        counts = (
            pc.list_value_length(toks)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(ne))
        doc_of = doc_of[ne]
        total = np.bincount(doc_of, minlength=counts.size).astype(np.int64)
        d = (
            pa.table({"d": pa.array(doc_of), "g": flat})
            .group_by(["d", "g"])
            .aggregate([])
        )
        dd = d["d"].to_numpy(zero_copy_only=False)
        distinct = np.bincount(dd, minlength=counts.size).astype(np.int64)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tokens": pa.array(total, pa.int64()),
                "n_types": pa.array(distinct, pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(per_doc, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# contract functions
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 (driver smoke check)."""
    return _pages_pipeline("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # SQL-checkable relational / zonal operators
        "zonal_grid_join": q_zonal_grid_join,
        "zonal_grid_stats": q_zonal_grid_stats,
        "zonal_grid_percentiles": q_zonal_grid_percentiles,
        "groupby_lineitem": q_groupby_lineitem,
        "filter_project": q_filter_project,
        "topk_orders": q_topk_orders,
        "join_broadcast": q_join_broadcast,
        "semi_join": q_semi_join,
        "hash_join": q_hash_join,
        "left_join": q_left_join,
        "full_join": q_full_join,
        "normalize_text": q_normalize_text,
        "asof_join": q_asof_join,
        "range_join": q_range_join,
        "topk_events": q_topk_events,
        "approx_distinct_cert": q_approx_distinct_cert,
        "doc_frequency": q_doc_frequency,
        "histogram": q_histogram,
        "chunk_documents": q_chunk_documents,
        "assemble_chunks": q_assemble_chunks,
        "json_extract_agg": q_json_extract_agg,
        "rollup": q_rollup,
        "corr_by_group": q_corr_by_group,
        "mode_per_group": q_mode_per_group,
        "link_graph": q_link_graph,
        "pivot_counts": q_pivot_counts,
        "funnel_stages": q_funnel_stages,
        "canonical_url": q_canonical_url,
        "dedup_canonical": q_dedup_canonical,
        "cube": q_cube,
        "spatial_bbox": q_spatial_bbox,
        "mad_by_group": q_mad_by_group,
        "connected_components": q_connected_components,
        "string_agg": q_string_agg,
        "bloom_semi_join": q_bloom_semi_join,
        "dedup_revisits": q_dedup_revisits,
        "except_distinct": q_except_distinct,
        "intersect_distinct": q_intersect_distinct,
        "ab_test": q_ab_test,
        "vocab_ids": q_vocab_ids,
        "skyline": q_skyline,
        "weighted_median": q_weighted_median,
        "max_streak": q_max_streak,
        "dup_spans": q_dup_spans,
        "rolling_median": q_rolling_median,
        "edit_join": q_edit_join,
        "ohlc": q_ohlc,
        "cusum": q_cusum,
        "assortativity": q_assortativity,
        "expectations": q_expectations,
        "weekly_growth": q_weekly_growth,
        "silhouette": q_silhouette,
        "zonal_mode": q_zonal_mode,
        "resample_locf": q_resample_locf,
        "vocab_overlap": q_vocab_overlap,
        "phrase_search": q_phrase_search,
        "upsert_latest": q_upsert_latest,
        "user_entropy": q_user_entropy,
        "grouping_sets": q_grouping_sets,
        "winsor_mean": q_winsor_mean,
        "star_join": q_star_join,
        "embedding_profile": q_embedding_profile,
        "incremental_rollup": q_incremental_rollup,
        "snapshot_diff": q_snapshot_diff,
        "kwic": q_kwic,
        "mad_outliers": q_mad_outliers,
        "ols2": q_ols2,
        "target_encode": q_target_encode,
        "benford": q_benford,
        "chi2": q_chi2,
        "hard_negatives": q_hard_negatives,
        "psi": q_psi,
        "encode_corpus": q_encode_corpus,
        "rrf_fusion": q_rrf_fusion,
        "quantile_transform": q_quantile_transform,
        "entity_resolution": q_entity_resolution,
        "negative_samples": q_negative_samples,
        "gini": q_gini,
        "range_layout": q_range_layout,
        "auc": q_auc,
        "csv_jsonl_source": q_csv_jsonl_source,
        "zonal_algebra": q_zonal_algebra,
        "cdc_apply": q_cdc_apply,
        "association_rules": q_association_rules,
        "group_histogram": q_group_histogram,
        "topk_dense": q_topk_dense,
        "impute_median": q_impute_median,
        "ndcg": q_ndcg,
        "kaplan_meier": q_kaplan_meier,
        "spearman": q_spearman,
        "kendall_tau": q_kendall_tau,
        "mutual_info": q_mutual_info,
        "ks_test": q_ks_test,
        "cramers_v": q_cramers_v,
        "bounce_rate": q_bounce_rate,
        "churn_labels": q_churn_labels,
        "readability": q_readability,
        "arrival_rate": q_arrival_rate,
        "ttr": q_ttr,
        "distinct_count": q_distinct_count,
        "three_way_join": q_three_way_join,
        "weighted_sample": q_weighted_sample,
        "repetition_ratio": q_repetition_ratio,
        "url_host_stats": q_url_host_stats,
        "quantile_filter": q_quantile_filter,
        "tfidf_top_terms": q_tfidf_top_terms,
        "inverted_lookup": q_inverted_lookup,
        "knn_ivf_partitioned_cert": q_knn_ivf_partitioned_cert,
        "sample_per_group": q_sample_per_group,
        "pages": q_pages,
        "union_distinct": q_union_distinct,
        "anti_join": q_anti_join,
        "distinct_langs": q_distinct_langs,
        "approx_percentiles": q_approx_percentiles,
        "dedup_exact": q_dedup_exact,
        "dedup_incremental": q_dedup_incremental,
        "token_stats": q_token_stats,
        "quality_score": q_quality_score,
        "pii_scrub": q_pii_scrub,
        "boilerplate_lines": q_boilerplate_lines,
        "normalize_by_group": q_normalize_by_group,
        "curation_pipeline": q_curation_pipeline,
        "window_events": q_window_events,
        "hopping_windows": q_hopping_windows,
        "sessions": q_sessions,
        "rolling_stats": q_rolling_stats,
        "ewma": q_ewma,
        "pagerank": q_pagerank,
        "hits": q_hits,
        "keyness": q_keyness,
        "next_click": q_next_click,
        "interval_coverage": q_interval_coverage,
        "event_gaps": q_event_gaps,
        "char_entropy": q_char_entropy,
        "pca_project": q_pca_project,
        "kmeans_assign": q_kmeans_assign,
        "triangle_stats": q_triangle_stats,
        "df_by_lang": q_df_by_lang,
        "nb_classify": q_nb_classify,
        "similarity_join": q_similarity_join,
        "bm25_topk": q_bm25_topk,
        "cohort_retention": q_cohort_retention,
        "event_transitions": q_event_transitions,
        "profile_events": q_profile_events,
        "assign_sessions": q_assign_sessions,
        "cms_counts_cert": q_cms_counts_cert,
        "bfs_hops": q_bfs_hops,
        "twap": q_twap,
        "bigram_pmi": q_bigram_pmi,
        "heavy_hitters_cert": q_heavy_hitters_cert,
        "mixture_sample": q_mixture_sample,
        "common_passages": q_common_passages,
        "window_ranks": q_window_ranks,
        "knn_brute": q_knn_brute,
        # non-SQL-expressible pipelines (rows-only checks; pytest gates)
        "zonal_pages": q_zonal_pages,
        "zonal_raster": q_zonal_raster,
        "zone_knn": q_zone_knn,
        "knn_ivf": q_knn_ivf,
        "dedup_minhash": q_dedup_minhash,
        "dedup_simhash": q_dedup_simhash,
        "dedup_ngram": q_dedup_ngram,
        "dedup_embedding": q_dedup_embedding,
        "dedup_minhash_cert": q_dedup_minhash_cert,
        "dedup_simhash_cert": q_dedup_simhash_cert,
        "dedup_ngram_cert": q_dedup_ngram_cert,
        "zone_knn_cert": q_zone_knn_cert,
        "dedup_embedding_cert": q_dedup_embedding_cert,
        "semdedup_cert": q_semdedup_cert,
        "char_lm_score": q_char_lm_score,
        "dsir_weights": q_dsir_weights,
        "pack_sequences": q_pack_sequences,
        "knn_ivf_cert": q_knn_ivf_cert,
        "stratified_sample": q_stratified_sample,
        "deterministic_shuffle": q_deterministic_shuffle,
        "train_val_split": q_train_val_split,
        "decontaminate": q_decontaminate,
        "decontaminate_bloom_cert": q_decontaminate_bloom_cert,
        "html_extract": q_html_extract,
        "lang_id": q_lang_id,
        "fingerprint": q_fingerprint,
        # round-3: the raw rows-only `simhash_sigs` / `media_pipeline`
        # entries were SUBSUMED by their `_cert` twins (same pipelines,
        # plus an independent reference check, hash-checked against an
        # all-TRUE oracle) — q_simhash_sigs / q_media_pipeline remain
        # importable for callers
        "simhash_sigs_cert": q_simhash_sigs_cert,
        "media_pipeline_cert": q_media_pipeline_cert,
        "config_job": q_config_job,
        "pages_job_resume": q_pages_job_resume,
    }


_P257 = [257**k for k in range(8)]
_FP_WIN = " + ".join(
    f"unicode(substr(text, i+{j}, 1))::HUGEINT * {_P257[7-j]}::HUGEINT"
    for j in range(8)
)
_P31_LIST = "[" + ",".join(str(31**k) for k in range(7)) + "]"
# independent DuckDB implementation of the engine's Rabin-Karp fingerprint
# (window=8, base 257, min over windows; short docs fall back to the base-31
# full-text hash) — valid for ASCII corpora where code points == bytes,
# which the driver testdata is; HUGEINT % 2^64 reproduces uint64 wraparound
_FINGERPRINT_SQL = f"""
    WITH d AS (SELECT doc_id, text, length(text) AS n FROM documents)
    SELECT doc_id,
      CAST(CASE WHEN fp >= 9223372036854775808::HUGEINT
                THEN fp - 18446744073709551616::HUGEINT ELSE fp END AS BIGINT)
        AS fingerprint_i64
    FROM (
      SELECT doc_id,
        CASE WHEN n >= 8 THEN
          list_min([({_FP_WIN}) % 18446744073709551616::HUGEINT
                    for i in generate_series(1, n-7)])
        ELSE
          COALESCE(list_sum([
            unicode(substr(text, i, 1))::HUGEINT * ({_P31_LIST}[n-i+1])::HUGEINT
            for i in generate_series(1, n)]), 0)
          % 18446744073709551616::HUGEINT
        END AS fp
      FROM d)
    ORDER BY doc_id
"""


def _pii_sql() -> str:
    """DuckDB twin of q_pii_scrub, generated from the SAME pattern tuple
    the engine scrubs with (DuckDB's regex engine is also RE2, so counts
    and replacements agree byte-for-byte).  Counts are taken on the
    pre-scrub text; replacements nest in pattern order."""
    from zonal_stats_toolkit_ray.stages.text import DEFAULT_PII_PATTERNS

    repl_expr = "text"
    counts = []
    for name, rx, repl in DEFAULT_PII_PATTERNS:
        repl_expr = f"regexp_replace({repl_expr}, '{rx}', '{repl}', 'g')"
        counts.append(f"len(regexp_extract_all(text, '{rx}')) AS n_{name}")
    return f"""
        WITH aug AS (
          SELECT doc_id,
            text
            || CASE WHEN doc_id % 3 = 0
                 THEN ' contact user' || doc_id || '@mail.example' ELSE '' END
            || CASE WHEN doc_id % 5 = 0
                 THEN ' call 555-01' || lpad(CAST(doc_id % 100 AS VARCHAR), 2, '0')
                 ELSE '' END
            || CASE WHEN doc_id % 7 = 0
                 THEN ' from 10.0.0.' || CAST(doc_id % 250 AS VARCHAR) ELSE '' END
            AS text
          FROM documents)
        SELECT doc_id, {repl_expr} AS text, {', '.join(counts)}
        FROM aug ORDER BY doc_id
    """


_MESSY_URL_SQL = """
    (CASE WHEN doc_id % 2 = 0 THEN 'HTTPS://' ELSE 'https://' END)
    || (CASE WHEN doc_id % 3 = 0 THEN upper(source) ELSE source END)
    || '.Example.com'
    || (CASE WHEN doc_id % 5 = 0 THEN ':443' ELSE '' END)
    || '/page/' || CAST(doc_id % 50 AS VARCHAR)
    || (CASE WHEN doc_id % 4 = 1 THEN '/'
             WHEN doc_id % 4 = 2 THEN '?utm_source=x' || CAST(doc_id AS VARCHAR)
             WHEN doc_id % 4 = 3 THEN '?id=' || CAST(doc_id % 50 AS VARCHAR)
                                     || '&utm_campaign=c'
             ELSE '' END)
    || (CASE WHEN doc_id % 7 = 0 THEN '#frag' ELSE '' END)
"""


def _canonical_sql(select: str) -> str:
    """DuckDB twin of canonicalize_url_batch, GENERATED from the same
    CANONICAL_* constants (both engines are RE2 — byte-identical rewrites).
    ``select`` is the final projection over CTE ``c(doc_id, url,
    canonical_url)``."""
    from zonal_stats_toolkit_ray.stages.web import (
        CANONICAL_PORT_PATTERN,
        CANONICAL_PRE_PATTERN,
        CANONICAL_REST_STEPS,
        CANONICAL_STEPS,
    )

    s = "url"
    for pat, repl, g in CANONICAL_STEPS:
        flag = ", 'g'" if g else ""
        s = f"regexp_replace({s}, '{pat}', '{repl}'{flag})"
    pre = f"lower(regexp_extract(s, '({CANONICAL_PRE_PATTERN})', 1))"
    pre = f"regexp_replace({pre}, '{CANONICAL_PORT_PATTERN}', '')"
    rest = f"regexp_replace(s, '{CANONICAL_PRE_PATTERN}', '')"
    for pat, repl, g in CANONICAL_REST_STEPS:
        flag = ", 'g'" if g else ""
        rest = f"regexp_replace({rest}, '{pat}', '{repl}'{flag})"
    return f"""
        WITH raw AS (SELECT doc_id, {_MESSY_URL_SQL} AS url FROM documents),
        st AS (SELECT doc_id, url, {s} AS s FROM raw),
        c AS (SELECT doc_id, url,
                     CASE WHEN regexp_matches(s, '{CANONICAL_PRE_PATTERN}')
                          THEN {pre} || {rest}
                          ELSE s END AS canonical_url
              FROM st)
        {select}
    """


def oracle_sql() -> dict[str, str]:
    return {
        "pii_scrub": _pii_sql(),
        "boilerplate_lines": """
            WITH aug AS (
              SELECT doc_id,
                text
                || CASE WHEN doc_id % 2 = 0
                     THEN chr(10) || 'cookie banner accept all' ELSE '' END
                || CASE WHEN doc_id % 9 = 0
                     THEN chr(10) || 'copyright 2024 example' ELSE '' END
                || chr(10) || 'unique tail ' || doc_id
                AS text
              FROM documents),
            lines AS (
              SELECT doc_id,
                     unnest(l) AS line,
                     unnest(generate_series(1, len(l))) AS ord
              FROM (SELECT doc_id, string_split(text, chr(10)) AS l FROM aug)
            ),
            df AS (
              SELECT line, count(DISTINCT doc_id) AS ndocs
              FROM lines WHERE line != '' GROUP BY line
            ),
            marked AS (
              SELECT doc_id, ord, line,
                     (line != '' AND line IN (SELECT line FROM df WHERE ndocs >= 3)) AS is_b
              FROM lines
            )
            SELECT doc_id,
              COALESCE(string_agg(CASE WHEN NOT is_b THEN line END,
                                  chr(10) ORDER BY ord), '') AS text,
              CAST(sum(CASE WHEN is_b THEN 1 ELSE 0 END) AS BIGINT) AS n_removed
            FROM marked GROUP BY doc_id ORDER BY doc_id
        """,
        "zonal_grid_join": f"""
            SELECT doc_id, {_GEO_SQL} AS zone_id FROM documents
        """,
        "fingerprint": _FINGERPRINT_SQL,
        "deterministic_shuffle": """
            SELECT doc_id,
                   (doc_id * 2654435761) % 4294967296 AS shuffle_key
            FROM documents ORDER BY shuffle_key
        """,
        "html_extract": """
            SELECT 'https://' || source || '.example/doc/'
                   || CAST(doc_id AS VARCHAR) AS url,
                   text
            FROM documents ORDER BY url
        """,
        "dedup_embedding_cert": """
            SELECT vec_id + 1000000 AS planted_id, TRUE AS cocluster_ok
            FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 10)
            ORDER BY planted_id
        """,
        "semdedup_cert": """
            SELECT vec_id + 1000000 AS planted_id, TRUE AS cocluster_ok,
                   TRUE AS planted_flagged
            FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 10)
            ORDER BY planted_id
        """,
        "char_lm_score": """
            WITH cp AS (
              SELECT doc_id,
                     list_transform(string_split(text, ''), c -> unicode(c)) AS l
              FROM documents
            ),
            pairs AS (
              SELECT doc_id, (a * 257 + b) % 65536 AS idx
              FROM (SELECT doc_id, unnest(l[:len(l)-1]) AS a, unnest(l[2:]) AS b
                    FROM cp WHERE len(l) >= 2)
            ),
            scored AS (
              SELECT p.doc_id, COUNT(*) AS n_bigrams,
                     ROUND(-SUM(m.logp) / COUNT(*), 6) AS bits
              FROM pairs p
              JOIN read_parquet('/tmp/graft_charlm_oracle/model.parquet') m
                USING (idx)
              GROUP BY p.doc_id
            )
            SELECT d.doc_id,
                   COALESCE(s.n_bigrams, 0) AS n_bigrams,
                   COALESCE(s.bits, 0.0) AS bits
            FROM documents d LEFT JOIN scored s USING (doc_id)
            ORDER BY d.doc_id
        """,
        "pack_sequences": """
            SELECT doc_id, n_chars,
                   CAST(COALESCE(SUM(n_chars) OVER w, 0) // 2048 AS BIGINT)
                       AS pack_id,
                   CAST(COALESCE(SUM(n_chars) OVER w, 0) % 2048 AS BIGINT)
                       AS pack_offset
            FROM documents
            WINDOW w AS (ORDER BY doc_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
            ORDER BY doc_id
        """,
        "dsir_weights": """
            WITH cp AS (
              SELECT doc_id,
                     list_transform(string_split(text, ''), c -> unicode(c)) AS l
              FROM documents
            ),
            pairs AS (
              SELECT doc_id, (a * 257 + b) % 65536 AS idx
              FROM (SELECT doc_id, unnest(l[:len(l)-1]) AS a, unnest(l[2:]) AS b
                    FROM cp WHERE len(l) >= 2)
            ),
            scored AS (
              SELECT p.doc_id, COUNT(*) AS n_bigrams,
                     ROUND(SUM(m.logr), 6) AS logw
              FROM pairs p
              JOIN read_parquet('/tmp/graft_charlm_oracle/dsir_table.parquet') m
                USING (idx)
              GROUP BY p.doc_id
            )
            SELECT d.doc_id,
                   COALESCE(s.n_bigrams, 0) AS n_bigrams,
                   COALESCE(s.logw, 0.0) AS logw
            FROM documents d LEFT JOIN scored s USING (doc_id)
            ORDER BY d.doc_id
        """,
        "media_pipeline_cert": """
            SELECT CAST(i AS BIGINT) AS media_id,
                   TRUE AS features_ok, TRUE AS frames_ok
            FROM generate_series(0, 255) t(i) ORDER BY media_id
        """,
        "range_join": """
            SELECT e.event_id,
                   epoch_us(s.ts) AS window_start,
                   e.value
            FROM events e
            JOIN events s
              ON s.event_type = 'signup'
             AND e.user_id = s.user_id
             AND e.ts >= s.ts
             AND e.ts < s.ts + INTERVAL 1 HOUR
            WHERE e.event_type = 'click'
            ORDER BY e.event_id, window_start
        """,
        "topk_events": """
            SELECT event_type, CAST(rank AS BIGINT) AS rank, event_id,
                   round(value, 6) AS value
            FROM (
              SELECT event_type, event_id, value,
                     ROW_NUMBER() OVER (
                       PARTITION BY event_type
                       ORDER BY value DESC, event_id
                     ) AS rank
              FROM events)
            WHERE rank <= 5
            ORDER BY event_type, rank
        """,
        "approx_distinct_cert": """
            SELECT event_type, TRUE AS distinct_ok
            FROM (SELECT DISTINCT event_type FROM events)
            ORDER BY event_type
        """,
        "repetition_ratio": r"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS w
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(w) >= 8 THEN
                  [array_to_string(w[i:i+7], ' ') for i in generate_series(1, len(w)-7)]
                WHEN len(w) > 0 THEN [array_to_string(w, ' ')]
                ELSE [] END AS g
              FROM toks
            )
            SELECT doc_id,
              CASE WHEN len(g) = 0 THEN 0.0
                   ELSE 1.0 - len(list_distinct(g))::DOUBLE / len(g) END AS rep_ratio
            FROM grams ORDER BY doc_id
        """,
        "knn_ivf_partitioned_cert": """
            SELECT vec_id AS query_id, TRUE AS recall_ok
            FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 4)
            ORDER BY query_id
        """,
        "decontaminate_bloom_cert": """
            SELECT doc_id, TRUE AS no_false_negative, TRUE AS fp_budget_ok
            FROM documents ORDER BY doc_id
        """,
        "normalize_by_group": """
            WITH m AS (
              SELECT event_type,
                     count(value)::DOUBLE AS n,
                     sum(value) AS s,
                     sum(value * value) AS ss,
                     min(value) AS mn,
                     max(value) AS mx
              FROM events GROUP BY event_type
            ),
            mm AS (
              SELECT event_type, s / n AS mean,
                     greatest(ss / n - (s / n) * (s / n), 0) AS var,
                     mn, mx - mn AS rng
              FROM m
            )
            SELECT e.event_id, e.event_type,
                   round(CASE WHEN var > 0
                         THEN (e.value - mean) / sqrt(var) ELSE 0 END, 6) AS zscore,
                   round(CASE WHEN rng > 0
                         THEN (e.value - mn) / rng ELSE 0 END, 6) AS minmax
            FROM events e JOIN mm USING (event_type)
            ORDER BY e.event_id
        """,
        "sample_per_group": """
            SELECT lang, CAST(sample_rank AS BIGINT) AS sample_rank, doc_id
            FROM (
              SELECT lang, doc_id,
                     ROW_NUMBER() OVER (
                       PARTITION BY lang
                       ORDER BY (doc_id * 2654435761) % 4294967296, doc_id
                     ) AS sample_rank
              FROM documents)
            WHERE sample_rank <= 20
            ORDER BY lang, sample_rank
        """,
        "histogram": """
            SELECT CAST(floor((l_extendedprice - 0.0) / (100000.0 / 25))
                        AS BIGINT) AS bin,
                   count(*) AS n
            FROM lineitem
            WHERE isfinite(l_extendedprice)
              AND l_extendedprice >= 0.0 AND l_extendedprice < 100000.0
            GROUP BY bin ORDER BY bin
        """,
        "weighted_sample": """
            SELECT doc_id, lang, n_chars
            FROM documents
            WHERE CAST((doc_id * 2654435761) % 4294967296 AS DOUBLE) <
                  ((100.0 * n_chars) /
                   (SELECT CAST(sum(n_chars) AS DOUBLE) FROM documents))
                  * 4294967296.0
            ORDER BY doc_id
        """,
        "rollup": """
            SELECT coalesce(lang, '__ALL__') AS lang,
                   coalesce(source, '__ALL__') AS source,
                   count(*) AS n,
                   CAST(sum(n_chars) AS DOUBLE) AS sum_v
            FROM documents
            GROUP BY ROLLUP(lang, source)
            ORDER BY lang, source, n
        """,
        "corr_by_group": """
            SELECT l_returnflag,
                   count(*) AS n,
                   round(corr(l_quantity, l_extendedprice), 6) AS corr,
                   round(regr_slope(l_extendedprice, l_quantity), 6) AS slope,
                   round(regr_intercept(l_extendedprice, l_quantity), 6)
                       AS intercept
            FROM lineitem
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "canonical_url": _canonical_sql(
            "SELECT doc_id, url, canonical_url FROM c ORDER BY doc_id"
        ),
        "dedup_canonical": _canonical_sql(
            "SELECT min(doc_id) AS doc_id, count(*) AS n_dupes "
            "FROM c GROUP BY canonical_url ORDER BY doc_id"
        ),
        "dedup_revisits": """
            SELECT 'https://' || source || '.example/doc/'
                       || CAST(doc_id % 100 AS VARCHAR) AS url,
                   (1704067200000000 + doc_id * 1000000) // 60000000 AS win,
                   min(doc_id) AS first_id,
                   count(*) AS n_fetches
            FROM documents
            GROUP BY url, win
            ORDER BY url, win
        """,
        "bloom_semi_join": """
            SELECT l_orderkey, l_linenumber, l_quantity
            FROM lineitem
            WHERE l_orderkey IN (
                SELECT o_orderkey FROM orders WHERE o_totalprice > 300000.0)
            ORDER BY l_orderkey, l_linenumber
        """,
        "string_agg": """
            SELECT source,
                   string_agg(lang, ',' ORDER BY lang) AS agg,
                   count(*) AS n
            FROM documents GROUP BY source ORDER BY source
        """,
        "connected_components": """
            WITH RECURSIVE e AS (
              SELECT doc_id AS a, doc_id - 1 AS b
              FROM documents WHERE doc_id % 10 != 0),
            ue AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
            lab(node, label) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT ue.a, lab.label FROM lab JOIN ue ON lab.node = ue.b)
            SELECT node AS doc_id, min(label) AS cluster_id
            FROM lab GROUP BY node ORDER BY node
        """,
        "mad_by_group": """
            WITH m AS (
              SELECT l_returnflag, median(l_quantity) AS med
              FROM lineitem GROUP BY l_returnflag)
            SELECT m.l_returnflag,
                   round(m.med, 6) AS median,
                   round(median(abs(l_quantity - m.med)), 6) AS mad
            FROM lineitem l JOIN m ON l.l_returnflag = m.l_returnflag
            GROUP BY m.l_returnflag, m.med
            ORDER BY m.l_returnflag
        """,
        "spatial_bbox": """
            SELECT doc_id, lon, lat FROM (
                SELECT doc_id,
                       CAST(doc_id * 7919 % 36000 AS DOUBLE) / 100.0 - 180.0
                           AS lon,
                       CAST(doc_id * 104729 % 18000 AS DOUBLE) / 100.0 - 90.0
                           AS lat
                FROM documents)
            WHERE lon >= -60.0 AND lon <= 20.0
              AND lat >= -30.0 AND lat <= 40.0
            ORDER BY doc_id
        """,
        "cube": """
            SELECT coalesce(lang, '__ALL__') AS lang,
                   coalesce(source, '__ALL__') AS source,
                   count(*) AS n,
                   CAST(sum(n_chars) AS DOUBLE) AS sum_v
            FROM documents
            GROUP BY CUBE(lang, source)
            ORDER BY lang, source, n
        """,
        "except_distinct": """
            SELECT o_orderstatus, o_orderpriority
            FROM orders WHERE o_totalprice > 200000.0
            EXCEPT
            SELECT o_orderstatus, o_orderpriority
            FROM orders WHERE o_orderpriority = '1-URGENT'
            ORDER BY o_orderstatus, o_orderpriority
        """,
        "intersect_distinct": """
            SELECT o_orderstatus, o_orderpriority
            FROM orders WHERE o_totalprice > 200000.0
            INTERSECT
            SELECT o_orderstatus, o_orderpriority
            FROM orders WHERE o_orderpriority = '1-URGENT'
            ORDER BY o_orderstatus, o_orderpriority
        """,
        "skyline": """
            WITH d AS (
              SELECT DISTINCT CAST(l_quantity AS DOUBLE) AS x,
                              CAST(l_extendedprice AS DOUBLE) AS y
              FROM lineitem
            ), g AS (
              SELECT x, MAX(y) AS y FROM d GROUP BY x
            ), s AS (
              SELECT x, y,
                     MAX(y) OVER (ORDER BY x DESC
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                           AND 1 PRECEDING) AS pm
              FROM g
            )
            SELECT x, round(y, 6) AS y FROM s
            WHERE pm IS NULL OR y > pm ORDER BY x
        """,
        "weighted_median": """
            WITH w AS (
              SELECT l_returnflag, CAST(l_quantity AS DOUBLE) AS v,
                     SUM(floor(l_extendedprice)) AS w
              FROM lineitem GROUP BY 1, 2
            ), c AS (
              SELECT l_returnflag, v,
                     SUM(w) OVER (PARTITION BY l_returnflag ORDER BY v) AS cw,
                     SUM(w) OVER (PARTITION BY l_returnflag) AS tw
              FROM w
            )
            SELECT l_returnflag, MIN(v) AS wq FROM c
            WHERE cw >= 0.5 * tw GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "assortativity": """
            WITH n AS (SELECT count(*)::BIGINT AS cnt FROM documents),
            e AS (
              SELECT doc_id AS src, (doc_id*3+1) % cnt AS dst
              FROM documents CROSS JOIN n
              UNION ALL
              SELECT doc_id, (doc_id*4+2) % cnt FROM documents CROSS JOIN n
              UNION ALL
              SELECT doc_id, (doc_id*5+3) % cnt FROM documents CROSS JOIN n
            ),
            ind AS (
              SELECT dst AS node, count(*)::BIGINT AS indeg FROM e GROUP BY dst
            ),
            j AS (
              SELECT coalesce(a.indeg, 0)::DOUBLE AS x,
                     coalesce(b.indeg, 0)::DOUBLE AS y
              FROM e LEFT JOIN ind a ON a.node = e.src
                     LEFT JOIN ind b ON b.node = e.dst
            )
            SELECT CAST(count(*) AS BIGINT) AS n_edges,
                   round(corr(x, y), 6) AS assort
            FROM j
        """,
        "expectations": _expect_sql() + " ORDER BY rule",
        "ttr": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            )
            SELECT doc_id,
                   CAST(len(w) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(w)) AS BIGINT) AS n_types
            FROM toks ORDER BY doc_id
        """,
        "arrival_rate": """
            SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                   CASE WHEN count(*) > 1
                        AND epoch(max(ts)) > epoch(min(ts))
                        THEN round((count(*) - 1)
                               / ((epoch(max(ts)) - epoch(min(ts)))
                                  / 86400.0), 6)
                        END AS rate_per_day
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "readability": r"""
            WITH c AS (
              SELECT doc_id,
                     len(regexp_extract_all(text, '\S+')) AS n_words,
                     len(regexp_extract_all(text, '[.!?]+')) AS n_sents,
                     len(regexp_extract_all(lower(text), '[aeiouy]+'))
                         AS n_syll
              FROM documents
            )
            SELECT doc_id,
                   CAST(n_words AS BIGINT) AS n_words,
                   CAST(n_sents AS BIGINT) AS n_sents,
                   CAST(n_syll AS BIGINT) AS n_syll,
                   round(206.835
                         - 1.015 * (CAST(n_words AS DOUBLE)
                                    / greatest(CAST(n_sents AS DOUBLE), 1.0))
                         - 84.6 * (CAST(n_syll AS DOUBLE)
                                   / greatest(CAST(n_words AS DOUBLE), 1.0)),
                         6) AS flesch
            FROM c ORDER BY doc_id
        """,
        "churn_labels": """
            SELECT event_id, user_id,
                   CASE WHEN COUNT(*) OVER (
                     PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN CURRENT ROW
                               AND INTERVAL 7 DAYS FOLLOWING) >= 2
                        THEN 1 ELSE 0 END AS retained
            FROM events ORDER BY event_id
        """,
        "bounce_rate": """
            WITH d AS (
                SELECT user_id, epoch(ts) AS t,
                       CASE WHEN epoch(ts) - lag(epoch(ts)) OVER w > 1800.0
                            OR lag(epoch(ts)) OVER w IS NULL
                            THEN 1 ELSE 0 END AS new_sess
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), s AS (
                SELECT user_id, t,
                       sum(new_sess) OVER (PARTITION BY user_id
                                           ORDER BY t) AS sid
                FROM d
            ), per AS (
                SELECT user_id, sid, count(*) AS ne
                FROM s GROUP BY user_id, sid
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(SUM(CASE WHEN ne = 1 THEN 1 ELSE 0 END) AS BIGINT)
                       AS bounces
            FROM per GROUP BY user_id ORDER BY user_id
        """,
        "cramers_v": """
            WITH c AS (
              SELECT event_type AS r, CAST(user_id % 2 AS BIGINT) AS c2,
                     CAST(count(*) AS DOUBLE) AS o
              FROM events GROUP BY 1, 2
            ), rr AS (SELECT DISTINCT r FROM c),
            cc AS (SELECT DISTINCT c2 FROM c),
            cells AS (
              SELECT rr.r, cc.c2, COALESCE(c.o, 0.0) AS o
              FROM rr CROSS JOIN cc
              LEFT JOIN c ON c.r = rr.r AND c.c2 = cc.c2
            ), rt AS (SELECT r, SUM(o) AS rt FROM cells GROUP BY r),
            ct AS (SELECT c2, SUM(o) AS ct FROM cells GROUP BY c2),
            t AS (SELECT SUM(o) AS n FROM cells),
            x AS (
              SELECT round(SUM(
                       (cells.o - rt.rt * ct.ct / t.n)
                       * (cells.o - rt.rt * ct.ct / t.n)
                       / (rt.rt * ct.ct / t.n)), 6) AS chi2,
                     CAST(((SELECT count(*) FROM rr) - 1)
                          * ((SELECT count(*) FROM cc) - 1) AS BIGINT)
                         AS dof,
                     CAST(MAX(t.n) AS BIGINT) AS n,
                     CAST(least((SELECT count(*) FROM rr) - 1,
                                (SELECT count(*) FROM cc) - 1) AS DOUBLE)
                         AS k
              FROM cells JOIN rt ON cells.r = rt.r
                         JOIN ct ON cells.c2 = ct.c2
                         CROSS JOIN t
            )
            SELECT round(sqrt(chi2 / (CAST(n AS DOUBLE) * k)), 6) AS v,
                   chi2, dof, n
            FROM x
        """,
        "ks_test": """
            WITH b AS (
              SELECT value AS v,
                     CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END AS a
              FROM events
            ), c AS (
              SELECT v, SUM(a) AS ca, SUM(1 - a) AS cb FROM b GROUP BY v
            ), t AS (
              SELECT CAST(SUM(ca) AS DOUBLE) AS na,
                     CAST(SUM(cb) AS DOUBLE) AS nb
              FROM c
            ), w AS (
              SELECT v,
                     SUM(ca) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED
                                   PRECEDING AND CURRENT ROW) AS cuma,
                     SUM(cb) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED
                                   PRECEDING AND CURRENT ROW) AS cumb
              FROM c
            ), d AS (
              SELECT w.v,
                     abs(CAST(cuma AS DOUBLE) / t.na
                         - CAST(cumb AS DOUBLE) / t.nb) AS diff
              FROM w, t
            ), m AS (
              SELECT v, diff,
                     ROW_NUMBER() OVER (ORDER BY diff DESC, v) AS rn
              FROM d
            )
            SELECT round(m.diff, 6) AS d, m.v AS at_value,
                   CAST(t.na AS BIGINT) AS n_a, CAST(t.nb AS BIGINT) AS n_b
            FROM m, t WHERE m.rn = 1
        """,
        "mutual_info": """
            WITH c AS (
              SELECT event_type AS r, CAST(user_id % 2 AS BIGINT) AS c2,
                     CAST(count(*) AS DOUBLE) AS o
              FROM events GROUP BY 1, 2
            ), t AS (SELECT SUM(o) AS n FROM c),
            rt AS (SELECT r, SUM(o) AS rt FROM c GROUP BY r),
            ct AS (SELECT c2, SUM(o) AS ct FROM c GROUP BY c2)
            SELECT round(SUM((c.o / t.n)
                     * ln((c.o / t.n)
                          / ((rt.rt / t.n) * (ct.ct / t.n)))), 6) AS mi,
                   CAST(MAX(t.n) AS BIGINT) AS n
            FROM c JOIN rt ON rt.r = c.r
                   JOIN ct ON ct.c2 = c.c2
                   CROSS JOIN t
        """,
        "kendall_tau": """
            WITH b AS (
              SELECT l_returnflag AS k,
                     CAST(l_quantity AS DOUBLE) AS x,
                     round(l_discount * 100) AS y
              FROM lineitem
            ), cells AS (
              SELECT k, x, y, CAST(count(*) AS BIGINT) AS n
              FROM b GROUP BY 1, 2, 3
            ), cd AS (
              SELECT a.k,
                     CAST(COALESCE(SUM(a.n * c.n) FILTER (
                       c.x < a.x AND c.y < a.y), 0) AS DOUBLE) AS c_pairs,
                     CAST(COALESCE(SUM(a.n * c.n) FILTER (
                       c.x < a.x AND c.y > a.y), 0) AS DOUBLE) AS d_pairs
              FROM cells a JOIN cells c ON a.k = c.k
              GROUP BY a.k
            ), marg AS (
              SELECT k,
                     CAST(SUM(n) AS DOUBLE) AS n,
                     CAST(SUM(n) * (SUM(n) - 1) / 2 AS DOUBLE) AS n0,
                     CAST((SELECT SUM(tx * (tx - 1) / 2) FROM (
                       SELECT SUM(n) AS tx FROM cells c2
                       WHERE c2.k = cells.k GROUP BY c2.x)) AS DOUBLE) AS n1,
                     CAST((SELECT SUM(ty * (ty - 1) / 2) FROM (
                       SELECT SUM(n) AS ty FROM cells c3
                       WHERE c3.k = cells.k GROUP BY c3.y)) AS DOUBLE) AS n2
              FROM cells GROUP BY k
            )
            SELECT marg.k AS l_returnflag, CAST(marg.n AS BIGINT) AS n,
                   round((cd.c_pairs - cd.d_pairs)
                         / sqrt((marg.n0 - marg.n1) * (marg.n0 - marg.n2)),
                         6) AS tau
            FROM marg JOIN cd ON cd.k = marg.k ORDER BY marg.k
        """,
        "spearman": """
            WITH b AS (
              SELECT l_returnflag AS k,
                     CAST(l_quantity AS DOUBLE) AS x,
                     CAST(l_extendedprice AS DOUBLE) AS y
              FROM lineitem
            ), r AS (
              SELECT k,
                     RANK() OVER (PARTITION BY k ORDER BY x)
                       + (COUNT(*) OVER (PARTITION BY k, x) - 1) / 2.0 AS xr,
                     RANK() OVER (PARTITION BY k ORDER BY y)
                       + (COUNT(*) OVER (PARTITION BY k, y) - 1) / 2.0 AS yr
              FROM b
            )
            SELECT k AS l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
                   round(corr(xr, yr), 6) AS rho
            FROM r GROUP BY k ORDER BY k
        """,
        "kaplan_meier": """
            WITH u AS (
              SELECT user_id, CAST(user_id % 2 AS BIGINT) AS grp,
                     min(ts) AS a_min, max(ts) AS a_max,
                     min(ts) FILTER (event_type = 'purchase') AS p_min
              FROM events GROUP BY user_id
            ), d2 AS (
              SELECT grp,
                     CASE WHEN p_min IS NOT NULL
                          THEN CAST(floor((epoch(p_min) - epoch(a_min))
                                          / 86400.0) AS BIGINT)
                          ELSE CAST(floor((epoch(a_max) - epoch(a_min))
                                          / 86400.0) AS BIGINT) END AS t,
                     CASE WHEN p_min IS NOT NULL THEN 1 ELSE 0 END AS d
              FROM u
            ), km AS (
              SELECT grp, t, SUM(d) AS d, SUM(1 - d) AS c
              FROM d2 GROUP BY grp, t
            ), w AS (
              SELECT grp, t, d, c,
                     COALESCE(SUM(d + c) OVER (
                       PARTITION BY grp ORDER BY t
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0) AS bef,
                     SUM(d + c) OVER (PARTITION BY grp) AS total
              FROM km
            ), f AS (
              SELECT grp, t, d, CAST(total - bef AS BIGINT) AS n_risk
              FROM w WHERE d > 0
            )
            SELECT grp, t, n_risk, CAST(d AS BIGINT) AS d,
                   round(product(1.0 - CAST(d AS DOUBLE) / n_risk) OVER (
                     PARTITION BY grp ORDER BY t
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                     6) AS surv
            FROM f ORDER BY grp, t
        """,
        "ndcg": """
            WITH a AS (
              SELECT lang, doc_id,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY n_chars DESC, doc_id) AS r
              FROM documents QUALIFY r <= 20
            ), b AS (
              SELECT lang, doc_id,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY (doc_id * 7919) % 1000 DESC,
                                                 doc_id) AS r
              FROM documents QUALIFY r <= 20
            ), u AS (
              SELECT * FROM a UNION ALL SELECT * FROM b
            ), s AS (
              SELECT lang, doc_id, SUM(1.0 / (60 + r)) AS score
              FROM u GROUP BY 1, 2
            ), fused AS (
              SELECT lang, doc_id,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY score DESC, doc_id) AS rk
              FROM s QUALIFY rk <= 10
            ), rel AS (
              SELECT lang, doc_id, CAST(21 - r AS DOUBLE) AS rel FROM a
            ), dcg AS (
              SELECT fused.lang,
                     SUM(COALESCE(rel.rel, 0.0) / log2(fused.rk + 1.0)) AS dcg
              FROM fused LEFT JOIN rel USING (lang, doc_id)
              GROUP BY fused.lang
            ), ideal AS (
              SELECT lang, rel,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY rel DESC) AS i
              FROM rel QUALIFY i <= 10
            ), idcg AS (
              SELECT lang, SUM(rel / log2(i + 1.0)) AS idcg
              FROM ideal GROUP BY lang
            )
            SELECT dcg.lang, round(dcg.dcg, 6) AS dcg,
                   round(idcg.idcg, 6) AS idcg,
                   round(dcg.dcg / idcg.idcg, 6) AS ndcg
            FROM dcg JOIN idcg USING (lang) ORDER BY dcg.lang
        """,
        "impute_median": """
            WITH e AS (
              SELECT event_id, event_type,
                     CASE WHEN event_id % 17 = 0 THEN NULL
                          ELSE value END AS v
              FROM events
            ), m AS (
              SELECT event_type, median(v) AS med FROM e GROUP BY 1
            )
            SELECT e.event_id, e.event_type,
                   round(COALESCE(e.v, m.med), 6) AS v_filled
            FROM e JOIN m USING (event_type) ORDER BY e.event_id
        """,
        "topk_dense": """
            SELECT l_orderkey, l_linenumber, l_returnflag, l_quantity
            FROM (
              SELECT l_orderkey, l_linenumber, l_returnflag, l_quantity,
                     DENSE_RANK() OVER (PARTITION BY l_returnflag
                                        ORDER BY l_quantity DESC) AS dr
              FROM lineitem
            ) WHERE dr <= 3
            ORDER BY l_orderkey, l_linenumber
        """,
        "group_histogram": """
            WITH b AS (
              SELECT event_type,
                     CAST(least(greatest(floor((value - 0.0) / 50.0), 0),
                                9) AS BIGINT) AS bin
              FROM events
            ), g AS (
              SELECT event_type, bin, CAST(count(*) AS BIGINT) AS n
              FROM b GROUP BY 1, 2
            ), grid AS (
              SELECT t.event_type, s.bin
              FROM (SELECT DISTINCT event_type FROM events) t
              CROSS JOIN (SELECT unnest(generate_series(0, 9)) AS bin) s
            )
            SELECT grid.event_type, CAST(grid.bin AS BIGINT) AS bin,
                   COALESCE(g.n, 0) AS n
            FROM grid LEFT JOIN g USING (event_type, bin)
            ORDER BY grid.event_type, grid.bin
        """,
        "association_rules": """
            WITH d AS (
              SELECT DISTINCT user_id, event_type FROM events
            ), singles AS (
              SELECT event_type, CAST(count(*) AS BIGINT) AS n
              FROM d GROUP BY event_type
            ), baskets AS (
              SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS nb FROM d
            ), p AS (
              SELECT a.event_type AS antecedent, b.event_type AS consequent,
                     CAST(count(*) AS BIGINT) AS n_both
              FROM d a JOIN d b
                ON a.user_id = b.user_id
               AND a.event_type <> b.event_type
              GROUP BY 1, 2
            )
            SELECT p.antecedent, p.consequent, p.n_both,
                   sa.n AS n_ante, sc.n AS n_cons, baskets.nb AS baskets,
                   round(CAST(p.n_both AS DOUBLE) / sa.n, 6) AS confidence,
                   round(p.n_both * CAST(baskets.nb AS DOUBLE)
                         / (sa.n * sc.n), 6) AS lift
            FROM p
            JOIN singles sa ON sa.event_type = p.antecedent
            JOIN singles sc ON sc.event_type = p.consequent
            CROSS JOIN baskets
            ORDER BY p.antecedent, p.consequent
        """,
        "cdc_apply": """
            WITH log AS (
              SELECT o_orderkey AS k, o_totalprice AS v, 0 AS seq, 'U' AS op
              FROM orders
              UNION ALL
              SELECT o_orderkey, o_totalprice + 1000.0, 1, 'U' FROM orders
              WHERE o_orderkey % 7 = 0
              UNION ALL
              SELECT o_orderkey, 0.0, 2, 'D' FROM orders
              WHERE o_orderkey % 13 = 5
            ), r AS (
              SELECT k, v, seq, op,
                     ROW_NUMBER() OVER (PARTITION BY k
                                        ORDER BY seq DESC) AS rn
              FROM log
            )
            SELECT k, round(v, 6) AS v, CAST(seq AS BIGINT) AS seq
            FROM r WHERE rn = 1 AND op <> 'D' ORDER BY k
        """,
        "csv_jsonl_source": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(user_id) AS BIGINT) AS sum_user
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "auc": """
            WITH b AS (
              SELECT CAST(user_id % 2 AS BIGINT) AS grp,
                     CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y,
                     value AS s
              FROM events
            ), r AS (
              SELECT grp, y, s,
                     RANK() OVER (PARTITION BY grp ORDER BY s) AS rmin,
                     COUNT(*) OVER (PARTITION BY grp, s) AS c
              FROM b
            ), a AS (
              SELECT grp,
                     SUM(CASE WHEN y = 1
                              THEN rmin + (c - 1) / 2.0 ELSE 0 END) AS sp,
                     SUM(y) AS np, SUM(1 - y) AS nn
              FROM r GROUP BY grp
            )
            SELECT grp, CAST(np AS BIGINT) AS n_pos,
                   CAST(nn AS BIGINT) AS n_neg,
                   round((sp - np * (np + 1) / 2.0) / (np * nn), 6) AS auc
            FROM a ORDER BY grp
        """,
        "range_layout": """
            SELECT o_orderkey, round(o_totalprice, 6) AS o_totalprice
            FROM orders
            WHERE o_totalprice >= 100000.0 AND o_totalprice <= 150000.0
            ORDER BY o_orderkey
        """,
        "gini": """
            WITH b AS (
              SELECT l_returnflag AS k, CAST(l_quantity AS DOUBLE) AS v
              FROM lineitem
            ), r AS (
              SELECT k, v,
                     ROW_NUMBER() OVER (PARTITION BY k ORDER BY v) AS rn,
                     COUNT(*) OVER (PARTITION BY k) AS n,
                     SUM(v) OVER (PARTITION BY k) AS s
              FROM b
            )
            SELECT k AS l_returnflag, CAST(MAX(n) AS BIGINT) AS n,
                   round(SUM((2.0 * rn - n - 1) * v) / (MAX(n) * MAX(s)), 6)
                       AS gini
            FROM r GROUP BY k ORDER BY k
        """,
        "negative_samples": r"""
            WITH flat AS (
              SELECT doc_id,
                     unnest(list_distinct(list_filter(
                       string_split_regex(lower(text), '\s+'), x -> x <> ''
                     ))) AS token
              FROM documents
            ), df AS (
              SELECT token, COUNT(*) AS df FROM flat GROUP BY token
            ), c AS (
              SELECT token,
                     SUM(pow(CAST(df AS DOUBLE), 0.75)) OVER (
                       ORDER BY token
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                         AS cw
              FROM df
            ), tt AS (
              SELECT MAX(cw) AS tot FROM c
            ), draws AS (
              SELECT doc_id, t.j,
                     CAST(((doc_id * 5 + t.j) * 2654435761) % 4294967296
                          AS DOUBLE) / 4294967296.0 AS u
              FROM documents, generate_series(0, 4) AS t(j)
            )
            SELECT d.doc_id, CAST(d.j AS BIGINT) AS j,
                   (SELECT c.token FROM c, tt
                    WHERE c.cw > d.u * tt.tot
                    ORDER BY c.cw LIMIT 1) AS neg_token
            FROM draws d ORDER BY d.doc_id, d.j
        """,
        "entity_resolution": """
            WITH RECURSIVE s AS (
              SELECT doc_id, substr(text, 1, 24) AS s FROM documents
            ), e AS (
              SELECT a.doc_id AS a, b.doc_id AS b
              FROM s a JOIN s b
                ON a.doc_id < b.doc_id
               AND abs(len(a.s) - len(b.s)) <= 2
              WHERE levenshtein(a.s, b.s) <= 2
            ), ee AS (
              SELECT a, b FROM e UNION SELECT b, a FROM e
            ), reach AS (
              SELECT a AS node, b AS r FROM ee
              UNION
              SELECT reach.node, ee.b
              FROM reach JOIN ee ON ee.a = reach.r
            ), lab AS (
              SELECT node, LEAST(node, MIN(r)) AS canonical
              FROM reach GROUP BY node
            )
            SELECT d.doc_id,
                   COALESCE(lab.canonical, d.doc_id) AS canonical_id
            FROM documents d LEFT JOIN lab ON lab.node = d.doc_id
            ORDER BY d.doc_id
        """,
        "quantile_transform": """
            SELECT event_id,
                   round(CUME_DIST() OVER (ORDER BY value), 6) AS ecdf
            FROM events ORDER BY event_id
        """,
        "rrf_fusion": """
            WITH a AS (
              SELECT lang, doc_id,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY n_chars DESC, doc_id) AS r
              FROM documents QUALIFY r <= 20
            ), b AS (
              SELECT lang, doc_id,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY (doc_id * 7919) % 1000 DESC,
                                                 doc_id) AS r
              FROM documents QUALIFY r <= 20
            ), u AS (
              SELECT * FROM a UNION ALL SELECT * FROM b
            ), s AS (
              SELECT lang, doc_id, SUM(1.0 / (60 + r)) AS score
              FROM u GROUP BY 1, 2
            ), f AS (
              SELECT lang, doc_id, score,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY score DESC, doc_id)
                         AS rrf_rank
              FROM s
            )
            SELECT lang, doc_id, round(score, 6) AS score,
                   rrf_rank
            FROM f WHERE rrf_rank <= 10 ORDER BY lang, rrf_rank
        """,
        "encode_corpus": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ), flat AS (
              SELECT doc_id, unnest(w) AS token,
                     unnest(generate_series(1, len(w))) AS pos
              FROM toks
            ), df AS (
              SELECT token, COUNT(DISTINCT doc_id) AS df
              FROM flat GROUP BY token
            ), ids AS (
              SELECT token,
                     ROW_NUMBER() OVER (ORDER BY df DESC, token) AS tid
              FROM df
            )
            SELECT f.doc_id,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   string_agg(CAST(ids.tid AS VARCHAR), ' '
                              ORDER BY f.pos) AS id_seq
            FROM flat f JOIN ids USING (token)
            GROUP BY f.doc_id ORDER BY f.doc_id
        """,
        "psi": """
            WITH a AS (
              SELECT value AS v FROM events WHERE user_id % 2 = 0
            ), bb AS (
              SELECT value AS v FROM events WHERE user_id % 2 <> 0
            ), bl AS (
              SELECT unnest(quantile_cont(v,
                [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])) AS q
              FROM a
            ), ba AS (
              SELECT (SELECT COUNT(*) FROM bl WHERE a.v > bl.q) AS bin FROM a
            ), bbn AS (
              SELECT (SELECT COUNT(*) FROM bl WHERE bb.v > bl.q) AS bin FROM bb
            ), ga AS (SELECT bin, COUNT(*) AS na FROM ba GROUP BY bin),
            gb AS (SELECT bin, COUNT(*) AS nb FROM bbn GROUP BY bin),
            bins AS (SELECT unnest(generate_series(0, 9)) AS bin),
            j AS (
              SELECT bins.bin, COALESCE(ga.na, 0) AS na,
                     COALESCE(gb.nb, 0) AS nb
              FROM bins LEFT JOIN ga USING (bin) LEFT JOIN gb USING (bin)
            ), t AS (
              SELECT CAST(SUM(na) AS DOUBLE) AS ta,
                     CAST(SUM(nb) AS DOUBLE) AS tb
              FROM j
            )
            SELECT CAST(j.bin AS BIGINT) AS bin,
                   CAST(j.na AS BIGINT) AS na, CAST(j.nb AS BIGINT) AS nb,
                   round(((j.na + 0.5) / (t.ta + 5.0)
                          - (j.nb + 0.5) / (t.tb + 5.0))
                         * ln(((j.na + 0.5) / (t.ta + 5.0))
                              / ((j.nb + 0.5) / (t.tb + 5.0))), 6)
                       AS psi_term
            FROM j, t ORDER BY j.bin
        """,
        "hard_negatives": """
            WITH q AS (
              SELECT vec_id AS qid, label AS qlab,
                     unnest(CAST(embedding AS DOUBLE[])) AS qv,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings WHERE vec_id < 100
            ), c AS (
              SELECT vec_id AS cid, label AS clab,
                     unnest(CAST(embedding AS DOUBLE[])) AS cv,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings
            ), d AS (
              SELECT q.qid, c.cid,
                     SUM((q.qv - c.cv) * (q.qv - c.cv)) AS d2
              FROM q JOIN c USING (dim)
              WHERE q.qlab <> c.clab
              GROUP BY q.qid, c.cid
            ), r AS (
              SELECT d.qid, d.cid, d.d2,
                     ROW_NUMBER() OVER (PARTITION BY d.qid
                                        ORDER BY d.d2, d.cid) AS rn
              FROM d
            )
            SELECT r.qid AS query_id, r.cid AS neg_id,
                   CAST(e.label AS BIGINT) AS neg_label
            FROM r JOIN embeddings e ON e.vec_id = r.cid
            WHERE r.rn = 1 ORDER BY query_id
        """,
        "target_encode": """
            WITH b AS (
              SELECT event_id, event_type, floor(value) AS v FROM events
            ), a AS (
              SELECT event_type, CAST(COUNT(*) AS DOUBLE) AS n, SUM(v) AS s
              FROM b GROUP BY event_type
            )
            SELECT b.event_id, b.event_type,
                   CASE WHEN a.n > 1
                        THEN round((a.s - b.v) / (a.n - 1.0), 6)
                        ELSE NULL END AS te
            FROM b JOIN a USING (event_type) ORDER BY b.event_id
        """,
        "benford": """
            WITH v AS (
              SELECT CAST(round(value * 100) AS BIGINT) AS c
              FROM events WHERE value > 0
            ), d AS (
              SELECT CAST(substr(CAST(c AS VARCHAR), 1, 1) AS BIGINT)
                         AS digit
              FROM v WHERE c > 0
            ), g AS (
              SELECT digit, CAST(count(*) AS BIGINT) AS n
              FROM d GROUP BY digit
            ), t AS (
              SELECT CAST(SUM(n) AS DOUBLE) AS total FROM g
            )
            SELECT g.digit, g.n,
                   round(t.total * log10(1.0 + 1.0 / CAST(g.digit AS DOUBLE)),
                         6) AS expected_n
            FROM g, t WHERE g.digit BETWEEN 1 AND 9 ORDER BY g.digit
        """,
        "chi2": """
            WITH c AS (
              SELECT event_type AS r, CAST(user_id % 2 AS BIGINT) AS c2,
                     CAST(count(*) AS DOUBLE) AS o
              FROM events GROUP BY 1, 2
            ), rr AS (SELECT DISTINCT r FROM c),
            cc AS (SELECT DISTINCT c2 FROM c),
            cells AS (
              SELECT rr.r, cc.c2, COALESCE(c.o, 0.0) AS o
              FROM rr CROSS JOIN cc
              LEFT JOIN c ON c.r = rr.r AND c.c2 = cc.c2
            ), rt AS (SELECT r, SUM(o) AS rt FROM cells GROUP BY r),
            ct AS (SELECT c2, SUM(o) AS ct FROM cells GROUP BY c2),
            t AS (SELECT SUM(o) AS n FROM cells)
            SELECT round(SUM(
                     (cells.o - rt.rt * ct.ct / t.n)
                     * (cells.o - rt.rt * ct.ct / t.n)
                     / (rt.rt * ct.ct / t.n)), 6) AS chi2,
                   CAST(((SELECT count(*) FROM rr) - 1)
                        * ((SELECT count(*) FROM cc) - 1) AS BIGINT) AS dof,
                   CAST(MAX(t.n) AS BIGINT) AS n
            FROM cells JOIN rt ON cells.r = rt.r
                       JOIN ct ON cells.c2 = ct.c2
                       CROSS JOIN t
        """,
        "ols2": """
            WITH b AS (
              SELECT l_returnflag AS k,
                     CAST(l_quantity AS DOUBLE) AS x1,
                     CAST(round(l_discount * 100) AS DOUBLE) AS x2,
                     floor(CAST(l_extendedprice AS DOUBLE)) AS y
              FROM lineitem
            ), m AS (
              SELECT k, CAST(COUNT(*) AS DOUBLE) AS n,
                     SUM(x1) AS s1, SUM(x2) AS s2, SUM(y) AS sy,
                     SUM(x1 * x1) AS s11, SUM(x2 * x2) AS s22,
                     SUM(x1 * x2) AS s12,
                     SUM(x1 * y) AS s1y, SUM(x2 * y) AS s2y
              FROM b GROUP BY k
            ), c AS (
              SELECT k, n, sy, s1, s2,
                     s11 - s1 * (s1 / n) AS c11,
                     s22 - s2 * (s2 / n) AS c22,
                     s12 - s1 * (s2 / n) AS c12,
                     s1y - s1 * (sy / n) AS c1y,
                     s2y - s2 * (sy / n) AS c2y
              FROM m
            ), f AS (
              SELECT k, n, sy, s1, s2, c11, c22, c12, c1y, c2y,
                     c11 * c22 - c12 * c12 AS det
              FROM c
            )
            SELECT k AS l_returnflag, CAST(n AS BIGINT) AS n,
                   round((sy - ((c1y * c22 - c2y * c12) / det) * s1
                             - ((c2y * c11 - c1y * c12) / det) * s2) / n,
                         6) AS b0,
                   round((c1y * c22 - c2y * c12) / det, 6) AS b1,
                   round((c2y * c11 - c1y * c12) / det, 6) AS b2
            FROM f ORDER BY k
        """,
        "kwic": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ), p AS (
              SELECT doc_id, w,
                     unnest(w) AS tok,
                     unnest(generate_series(1, len(w))) AS pos
              FROM toks
            )
            SELECT doc_id, pos,
                   array_to_string(w[greatest(pos - 3, 1):pos + 3], ' ')
                       AS snippet
            FROM p WHERE tok = 'spark' ORDER BY doc_id, pos
        """,
        "mad_outliers": """
            WITH e AS (
              SELECT event_id, event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events
            ), m AS (
              SELECT event_type, median(cents) AS med FROM e GROUP BY 1
            ), d AS (
              SELECT e.event_id, e.event_type, e.cents,
                     abs(e.cents - m.med) AS dev
              FROM e JOIN m USING (event_type)
            ), md AS (
              SELECT event_type, median(dev) AS mad FROM d GROUP BY 1
            )
            SELECT d.event_id, d.event_type, d.cents
            FROM d JOIN md USING (event_type)
            WHERE d.dev > 3 * md.mad
            ORDER BY d.event_id
        """,
        "snapshot_diff": """
            WITH old AS (
              SELECT o_orderkey AS k, o_totalprice AS v FROM orders
            ), new AS (
              SELECT o_orderkey AS k,
                     CASE WHEN o_orderkey % 7 = 0
                          THEN o_totalprice + 1000.0
                          ELSE o_totalprice END AS v
              FROM orders WHERE o_orderkey % 11 <> 3
              UNION ALL
              SELECT o_orderkey + 10000000, o_totalprice FROM orders
              WHERE o_orderkey % 13 = 5
            )
            SELECT COALESCE(old.k, new.k) AS key,
                   CASE WHEN old.k IS NULL THEN 'added'
                        WHEN new.k IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM old FULL OUTER JOIN new ON old.k = new.k
            WHERE old.k IS NULL OR new.k IS NULL OR old.v <> new.v
            ORDER BY key, status
        """,
        "embedding_profile": """
            WITH e AS (
              SELECT unnest(CAST(embedding AS DOUBLE[])) AS v,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings
            )
            SELECT dim, CAST(count(*) AS BIGINT) AS n,
                   round(SUM(v) / count(*), 6) AS mean,
                   round(sqrt(greatest(
                     SUM(v * v) / count(*)
                       - (SUM(v) / count(*)) * (SUM(v) / count(*)),
                     0.0)), 6) AS std,
                   round(MIN(v), 6) AS min,
                   round(MAX(v), 6) AS max
            FROM e GROUP BY dim ORDER BY dim
        """,
        "incremental_rollup": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(floor(value) AS BIGINT)) AS BIGINT) AS total
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "star_join": """
            SELECT n_name,
                   CAST(count(*) AS BIGINT) AS n_items,
                   round(sum(l_extendedprice * (1.0 - l_discount)), 2)
                       AS revenue
            FROM lineitem
            JOIN orders   ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation   ON s_nationkey = n_nationkey
            JOIN region   ON n_regionkey = r_regionkey
            WHERE c_nationkey = s_nationkey
              AND r_name = 'ASIA'
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate <  TIMESTAMP '1997-01-01'
            GROUP BY n_name ORDER BY n_name
        """,
        "grouping_sets": """
            SELECT COALESCE(l_returnflag, '__ALL__') AS l_returnflag,
                   COALESCE(l_linestatus, '__ALL__') AS l_linestatus,
                   CAST(count(*) AS BIGINT) AS n,
                   round(SUM(l_quantity), 6) AS sum_v
            FROM lineitem
            GROUP BY GROUPING SETS ((l_returnflag, l_linestatus),
                                    (l_returnflag), ())
            ORDER BY 1, 2, 3
        """,
        "winsor_mean": """
            WITH b AS (
              SELECT lang, CAST(n_chars AS DOUBLE) AS v FROM documents
            ), q AS (
              SELECT lang,
                     quantile_cont(v, 0.05) AS lo,
                     quantile_cont(v, 0.95) AS hi
              FROM b GROUP BY lang
            )
            SELECT b.lang, CAST(count(*) AS BIGINT) AS n,
                   round(MIN(q.lo), 6) AS lo, round(MIN(q.hi), 6) AS hi,
                   round(avg(least(greatest(b.v, q.lo), q.hi)), 6) AS wmean
            FROM b JOIN q USING (lang) GROUP BY b.lang ORDER BY b.lang
        """,
        "upsert_latest": """
            WITH u AS (
              SELECT o_orderkey, o_totalprice, 0 AS src FROM orders
              UNION ALL
              SELECT o_orderkey, o_totalprice + 1000.0, 1 FROM orders
              WHERE o_orderkey % 7 = 0
            ), r AS (
              SELECT o_orderkey, o_totalprice, src,
                     ROW_NUMBER() OVER (PARTITION BY o_orderkey
                                        ORDER BY src DESC) AS rn
              FROM u
            )
            SELECT o_orderkey, round(o_totalprice, 6) AS o_totalprice,
                   CAST(src AS BIGINT) AS src
            FROM r WHERE rn = 1 ORDER BY o_orderkey
        """,
        "user_entropy": """
            WITH c AS (
              SELECT user_id, event_type, count(*)::DOUBLE AS n
              FROM events GROUP BY 1, 2
            ), t AS (
              SELECT user_id, SUM(n) AS tot FROM c GROUP BY 1
            )
            SELECT c.user_id, CAST(t.tot AS BIGINT) AS n,
                   round(SUM(-(c.n / t.tot) * log2(c.n / t.tot)), 6)
                       AS entropy
            FROM c JOIN t USING (user_id)
            GROUP BY c.user_id, t.tot ORDER BY c.user_id
        """,
        "phrase_search": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ), ph AS (
              SELECT array_to_string(w[1:3], ' ') AS phrase
              FROM toks WHERE doc_id = 0
            )
            SELECT t.doc_id
            FROM toks t, ph
            WHERE contains(' ' || array_to_string(t.w, ' ') || ' ',
                           ' ' || ph.phrase || ' ')
            ORDER BY t.doc_id
        """,
        "vocab_overlap": r"""
            WITH lt AS (
              SELECT DISTINCT lang, token FROM (
                SELECT lang,
                       unnest(list_filter(
                         string_split_regex(lower(text), '\s+'),
                         x -> x <> '')) AS token
                FROM documents
              )
            ), sz AS (
              SELECT lang, count(*) AS n FROM lt GROUP BY lang
            ), p AS (
              SELECT a.lang AS group_a, b.lang AS group_b,
                     count(*) AS inter
              FROM lt a JOIN lt b USING (token)
              WHERE a.lang < b.lang GROUP BY 1, 2
            )
            SELECT p.group_a, p.group_b,
                   CAST(p.inter AS BIGINT) AS inter,
                   CAST(sa.n AS BIGINT) AS size_a,
                   CAST(sb.n AS BIGINT) AS size_b
            FROM p JOIN sz sa ON sa.lang = p.group_a
                   JOIN sz sb ON sb.lang = p.group_b
            ORDER BY p.group_a, p.group_b
        """,
        "zonal_mode": f"""
            SELECT zone_id, lang AS mode_value, n
            FROM (
                SELECT {_GEO_SQL} AS zone_id, lang, count(*) AS n,
                       ROW_NUMBER() OVER (
                           PARTITION BY {_GEO_SQL}
                           ORDER BY count(*) DESC, lang ASC) AS rn
                FROM documents GROUP BY zone_id, lang)
            WHERE rn = 1 ORDER BY zone_id
        """,
        "resample_locf": """
            WITH b AS (
              SELECT user_id,
                     CAST(floor(epoch(ts) / 86400.0) AS BIGINT) AS day,
                     ts, event_id, value
              FROM events
            ), r AS (
              SELECT user_id, day, value,
                     ROW_NUMBER() OVER (PARTITION BY user_id, day
                                        ORDER BY ts DESC, event_id DESC) AS rn
              FROM b
            ), daily AS (
              SELECT user_id, day, value AS close FROM r WHERE rn = 1
            ), span AS (
              SELECT user_id, min(day) AS mn, max(day) AS mx
              FROM daily GROUP BY user_id
            ), g AS (
              SELECT user_id, unnest(generate_series(mn, mx)) AS day FROM span
            )
            SELECT g.user_id, g.day, round(d.close, 6) AS close
            FROM g ASOF JOIN daily d
              ON g.user_id = d.user_id AND g.day >= d.day
            ORDER BY g.user_id, g.day
        """,
        "weekly_growth": """
            WITH w AS (
              SELECT user_id,
                     CAST(floor(epoch(ts) / 604800.0) AS BIGINT) AS week,
                     CAST(SUM(CAST(floor(value) AS BIGINT)) AS BIGINT) AS total
              FROM events GROUP BY 1, 2
            )
            SELECT user_id, week, total,
                   LAG(total) OVER (PARTITION BY user_id ORDER BY week)
                       AS prev_total,
                   total - LAG(total) OVER (PARTITION BY user_id
                                            ORDER BY week) AS diff
            FROM w ORDER BY user_id, week
        """,
        "silhouette": """
            WITH e AS (
              SELECT vec_id,
                     unnest(CAST(embedding AS DOUBLE[])) AS v,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings
            ), d AS (
              SELECT e.vec_id, c.cid,
                     sqrt(SUM((e.v - c.w) * (e.v - c.w))) AS dist
              FROM e
              JOIN read_parquet('/tmp/graft_pca_oracle/sil_centroids.parquet') c
                USING (dim)
              GROUP BY e.vec_id, c.cid
            ), r AS (
              SELECT vec_id, cid, dist,
                     ROW_NUMBER() OVER (PARTITION BY vec_id
                                        ORDER BY dist, cid) AS rn
              FROM d
            ), a AS (
              SELECT vec_id, cid AS cluster_id, dist AS da FROM r WHERE rn = 1
            ), b AS (
              SELECT vec_id, MIN(dist) AS db FROM r WHERE rn > 1
              GROUP BY vec_id
            )
            SELECT a.vec_id, a.cluster_id,
                   round((b.db - a.da) / greatest(a.da, b.db), 6) AS s
            FROM a JOIN b USING (vec_id) ORDER BY a.vec_id
        """,
        "ohlc": """
            WITH b AS (
              SELECT user_id,
                     CAST(floor(epoch(ts) / 86400.0) AS BIGINT) AS bucket,
                     ts, event_id, value
              FROM events
            ), r AS (
              SELECT user_id, bucket, value,
                     ROW_NUMBER() OVER (PARTITION BY user_id, bucket
                                        ORDER BY ts, event_id) AS rn,
                     COUNT(*) OVER (PARTITION BY user_id, bucket) AS cnt
              FROM b
            )
            SELECT user_id, bucket,
                   round(MAX(CASE WHEN rn = 1 THEN value END), 6) AS open,
                   round(MAX(value), 6) AS high,
                   round(MIN(value), 6) AS low,
                   round(MAX(CASE WHEN rn = cnt THEN value END), 6) AS close,
                   CAST(MAX(cnt) AS BIGINT) AS n
            FROM r GROUP BY user_id, bucket ORDER BY user_id, bucket
        """,
        "cusum": """
            WITH x AS (
              SELECT event_id, user_id, ts,
                     CAST(floor(value * 1000) AS BIGINT) - 10000 AS x
              FROM events
            ), p AS (
              SELECT event_id, user_id, ts,
                     CAST(SUM(x) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id
                                       ROWS BETWEEN UNBOUNDED PRECEDING
                                                AND CURRENT ROW)
                          AS BIGINT) AS p
              FROM x
            ), m AS (
              SELECT event_id, user_id, p,
                     CAST(MIN(p) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id
                                       ROWS BETWEEN UNBOUNDED PRECEDING
                                                AND CURRENT ROW)
                          AS BIGINT) AS mp
              FROM p
            )
            SELECT event_id, user_id, p - least(0, mp) AS cusum
            FROM m ORDER BY event_id
        """,
        "edit_join": """
            WITH s AS (
              SELECT doc_id, substr(text, 1, 24) AS s FROM documents
            )
            SELECT a.doc_id AS a, b.doc_id AS b,
                   CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
            FROM s a JOIN s b
              ON a.doc_id < b.doc_id
             AND abs(len(a.s) - len(b.s)) <= 2
            WHERE levenshtein(a.s, b.s) <= 2
            ORDER BY a, b
        """,
        "rolling_median": """
            SELECT event_id, user_id,
                   round(median(value) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 9 PRECEDING AND CURRENT ROW), 6) AS roll_med
            FROM events ORDER BY event_id
        """,
        "dup_spans": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ), g AS (
              SELECT doc_id, len(w) AS nt,
                     CASE WHEN len(w) >= 8 THEN
                       [array_to_string(w[i:i+7], ' ')
                        for i in generate_series(1, len(w) - 7)]
                     ELSE [] END AS grams
              FROM toks
            ), pos AS (
              SELECT doc_id, unnest(grams) AS gram,
                     unnest(generate_series(1, len(grams))) AS pos
              FROM g
            ), dup AS (
              SELECT gram FROM (
                SELECT gram, COUNT(DISTINCT doc_id) AS df
                FROM pos GROUP BY gram
              ) WHERE df >= 2
            ), p AS (
              SELECT DISTINCT pos.doc_id, pos.pos
              FROM pos JOIN dup USING (gram)
            ), brk AS (
              SELECT doc_id, pos,
                     CASE WHEN pos > MAX(pos + 8) OVER (
                       PARTITION BY doc_id ORDER BY pos
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                     THEN 1 ELSE 0 END AS b
              FROM p
            ), grp AS (
              SELECT doc_id, pos,
                     SUM(b) OVER (PARTITION BY doc_id ORDER BY pos) AS gid
              FROM brk
            ), isl AS (
              SELECT doc_id, gid, MIN(pos) AS s, MAX(pos) + 8 AS e
              FROM grp GROUP BY 1, 2
            ), cov AS (
              SELECT doc_id, CAST(SUM(e - s) AS BIGINT) AS covered
              FROM isl GROUP BY doc_id
            )
            SELECT g.doc_id, g.nt AS n_tokens,
                   COALESCE(cov.covered, 0) AS covered
            FROM g LEFT JOIN cov USING (doc_id)
            ORDER BY g.doc_id
        """,
        "max_streak": """
            WITH d AS (
              SELECT DISTINCT user_id,
                     CAST(floor(epoch(ts) / 86400.0) AS BIGINT) AS day
              FROM events
            ), i AS (
              SELECT user_id, day,
                     day - ROW_NUMBER() OVER (PARTITION BY user_id
                                              ORDER BY day) AS grp
              FROM d
            ), c AS (
              SELECT user_id, grp, COUNT(*) AS cnt FROM i GROUP BY 1, 2
            )
            SELECT user_id, CAST(MAX(cnt) AS BIGINT) AS max_streak
            FROM c GROUP BY user_id ORDER BY user_id
        """,
        "ab_test": """
            WITH m AS (
              SELECT event_type, CAST(user_id % 2 AS BIGINT) AS variant,
                     CAST(COUNT(*) AS BIGINT) AS n,
                     SUM(value) AS s, SUM(value * value) AS ss
              FROM events GROUP BY 1, 2
            ), p AS (
              SELECT event_type,
                MAX(CASE WHEN variant = 0 THEN n END) AS n_a,
                MAX(CASE WHEN variant = 1 THEN n END) AS n_b,
                MAX(CASE WHEN variant = 0 THEN s END) AS s_a,
                MAX(CASE WHEN variant = 1 THEN s END) AS s_b,
                MAX(CASE WHEN variant = 0 THEN ss END) AS ss_a,
                MAX(CASE WHEN variant = 1 THEN ss END) AS ss_b
              FROM m GROUP BY event_type
            ), f AS (
              SELECT event_type, n_a, n_b,
                s_a / n_a AS mean_a, s_b / n_b AS mean_b,
                (ss_a - s_a * s_a / n_a) / (n_a - 1) AS v_a,
                (ss_b - s_b * s_b / n_b) / (n_b - 1) AS v_b
              FROM p
            ), g AS (
              SELECT event_type, n_a, n_b, mean_a, mean_b, v_a, v_b,
                     v_a / n_a + v_b / n_b AS se2
              FROM f
            )
            SELECT event_type, n_a, n_b,
              round(mean_a, 6) AS mean_a, round(mean_b, 6) AS mean_b,
              round((mean_a - mean_b) / sqrt(se2), 6) AS t_stat,
              round(se2 * se2 / ((v_a / n_a) * (v_a / n_a) / (n_a - 1)
                                + (v_b / n_b) * (v_b / n_b) / (n_b - 1)),
                    6) AS dof
            FROM g ORDER BY event_type
        """,
        "vocab_ids": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_distinct(list_filter(
                       string_split_regex(lower(text), '\s+'), x -> x <> ''
                     ))) AS token
              FROM documents
            ), df AS (
              SELECT token, COUNT(*) AS df FROM toks GROUP BY token
            )
            SELECT token, df,
                   ROW_NUMBER() OVER (ORDER BY df DESC, token) AS token_id
            FROM df ORDER BY token_id
        """,
        "distinct_count": """
            SELECT l_returnflag, count(DISTINCT l_suppkey) AS n_supp
            FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "three_way_join": """
            SELECT c_mktsegment,
                   count(*) AS n_items,
                   round(sum(l_extendedprice * (1.0 - l_discount)), 2)
                       AS revenue
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "funnel_stages": """
            WITH r AS (
              SELECT user_id, event_type,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS rn
              FROM events),
            p1 AS (SELECT user_id, min(rn) AS rn1 FROM r
                   WHERE event_type = 'view' GROUP BY user_id),
            p2 AS (SELECT r.user_id, min(rn) AS rn2 FROM r JOIN p1 USING (user_id)
                   WHERE event_type = 'click' AND rn > rn1 GROUP BY r.user_id),
            p3 AS (SELECT r.user_id, min(rn) AS rn3 FROM r JOIN p2 USING (user_id)
                   WHERE event_type = 'purchase' AND rn > rn2 GROUP BY r.user_id)
            SELECT u.user_id,
                   CASE WHEN rn3 IS NOT NULL THEN 3
                        WHEN rn2 IS NOT NULL THEN 2
                        WHEN rn1 IS NOT NULL THEN 1
                        ELSE 0 END AS stage
            FROM (SELECT DISTINCT user_id FROM events) u
            LEFT JOIN p1 USING (user_id)
            LEFT JOIN p2 USING (user_id)
            LEFT JOIN p3 USING (user_id)
            ORDER BY u.user_id
        """,
        "pivot_counts": """
            SELECT source,
                   count(*) FILTER (lang = 'de') AS n_de,
                   count(*) FILTER (lang = 'en') AS n_en,
                   count(*) FILTER (lang = 'es') AS n_es,
                   count(*) FILTER (lang = 'fr') AS n_fr,
                   count(*) FILTER (lang = 'zh') AS n_zh,
                   count(*) AS total
            FROM documents GROUP BY source ORDER BY source
        """,
        "link_graph": """
            SELECT src_host, dst_host, count(*) AS n_links
            FROM (
                SELECT source || '.example' AS src_host,
                       'host' || CAST((doc_id * 7 + unnest(generate_series(
                           0, CAST(doc_id % 4 AS BIGINT) - 1))) % 20 AS VARCHAR)
                           || '.example.com' AS dst_host
                FROM documents)
            GROUP BY src_host, dst_host
            ORDER BY src_host, dst_host
        """,
        "mode_per_group": """
            SELECT source, lang AS mode_value, n
            FROM (
                SELECT source, lang, count(*) AS n,
                       ROW_NUMBER() OVER (
                           PARTITION BY source
                           ORDER BY count(*) DESC, lang ASC) AS rn
                FROM documents GROUP BY source, lang)
            WHERE rn = 1 ORDER BY source
        """,
        "json_extract_agg": """
            SELECT event_type,
                   count(k) AS n,
                   CAST(sum(k) AS BIGINT) AS sum_k,
                   CAST(sum(k) AS DOUBLE) / count(k) AS avg_k
            FROM (SELECT event_type,
                         CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
                  FROM events)
            GROUP BY event_type ORDER BY event_type
        """,
        "chunk_documents": """
            SELECT doc_id, chunk_id,
                   substr(text, CAST(chunk_id * 500 + 1 AS BIGINT), 800)
                       AS chunk_text,
                   length(substr(text, CAST(chunk_id * 500 + 1 AS BIGINT), 800))
                       AS n_chars
            FROM (
                SELECT doc_id, text,
                       unnest(generate_series(0,
                           CAST(ceil(length(text) / 500.0) AS BIGINT) - 1))
                           AS chunk_id
                FROM documents WHERE length(text) > 0
            )
            ORDER BY doc_id, chunk_id
        """,
        "assemble_chunks": """
            SELECT doc_id, text AS doc_text, length(text) AS n_chars
            FROM documents WHERE length(text) > 0
            ORDER BY doc_id
        """,
        "doc_frequency": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_distinct(list_filter(
                       string_split_regex(lower(text), '\s+'), x -> x <> ''
                     ))) AS token
              FROM documents
            )
            SELECT token, COUNT(*) AS df
            FROM toks GROUP BY token
            ORDER BY df DESC, token LIMIT 50
        """,
        "simhash_sigs_cert": """
            SELECT doc_id, TRUE AS sig_ok FROM documents
            WHERE doc_id < 100 ORDER BY doc_id
        """,
        "stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE (doc_id * 2654435761) % 4294967296 <
                  CASE WHEN lang = 'en' THEN 429496729 ELSE 2147483648 END
            ORDER BY doc_id
        """,
        "train_val_split": """
            SELECT doc_id,
                   CASE WHEN (doc_id * 2654435761) % 4294967296 < 429496729
                        THEN 'val' ELSE 'train' END AS split
            FROM documents ORDER BY doc_id
        """,
        "curation_pipeline": r"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS w
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(w) >= 8 THEN
                  [array_to_string(w[i:i+7], ' ') for i in generate_series(1, len(w)-7)]
                WHEN len(w) > 0 THEN [array_to_string(w, ' ')]
                ELSE [] END AS g
              FROM toks
            ),
            bench AS (SELECT DISTINCT unnest(g) AS gram FROM grams WHERE doc_id < 5),
            gated AS (
              SELECT doc_id, text FROM documents
              WHERE CAST(n_chars AS DOUBLE) >= (
                SELECT quantile_cont(CAST(CAST(n_chars AS FLOAT) AS DOUBLE), 0.25)
                FROM documents)
            ),
            winners AS (SELECT min(doc_id) AS doc_id FROM gated GROUP BY text),
            flat AS (SELECT doc_id, unnest(g) AS gram FROM grams),
            hits AS (SELECT DISTINCT f.doc_id FROM flat f JOIN bench USING (gram)),
            survivors AS (
              SELECT w.doc_id FROM winners w
              LEFT JOIN hits h ON w.doc_id = h.doc_id
              WHERE h.doc_id IS NULL
            )
            SELECT doc_id,
                   CASE WHEN (doc_id * 2654435761) % 4294967296 < 429496729
                        THEN 'val' ELSE 'train' END AS split
            FROM survivors ORDER BY doc_id
        """,
        "decontaminate": r"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS w
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(w) >= 8 THEN
                  [array_to_string(w[i:i+7], ' ') for i in generate_series(1, len(w)-7)]
                WHEN len(w) > 0 THEN [array_to_string(w, ' ')]
                ELSE [] END AS g
              FROM toks
            ),
            bench AS (SELECT DISTINCT unnest(g) AS gram FROM grams WHERE doc_id < 5),
            flat AS (SELECT doc_id, unnest(g) AS gram FROM grams),
            hits AS (SELECT DISTINCT f.doc_id FROM flat f JOIN bench ON f.gram = bench.gram)
            SELECT d.doc_id, (h.doc_id IS NOT NULL) AS contaminated
            FROM documents d LEFT JOIN hits h ON d.doc_id = h.doc_id
            ORDER BY d.doc_id
        """,
        "hopping_windows": """
            WITH e AS (
                SELECT event_type,
                       CAST(floor(epoch(ts)) AS BIGINT) AS es,
                       value
                FROM events
            ),
            x AS (
                SELECT event_type,
                       (es // 1800) * 1800 - kk * 1800 AS window_start,
                       value
                FROM e CROSS JOIN (SELECT unnest([0, 1]) AS kk)
            )
            SELECT event_type, window_start,
                   count(*) AS n_events,
                   round(sum(value), 6) AS sum_value
            FROM x GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "dedup_minhash_cert": """
            SELECT doc_id, TRUE AS cocluster_ok FROM documents ORDER BY doc_id
        """,
        "dedup_simhash_cert": """
            SELECT doc_id, TRUE AS cocluster_ok FROM documents ORDER BY doc_id
        """,
        "dedup_ngram_cert": """
            SELECT doc_id, TRUE AS cocluster_ok FROM documents ORDER BY doc_id
        """,
        "zone_knn_cert": """
            SELECT doc_id, TRUE AS knn_ok FROM documents ORDER BY doc_id
        """,
        "knn_ivf_cert": """
            SELECT vec_id AS query_id, TRUE AS recall_ok
            FROM embeddings ORDER BY vec_id LIMIT 4
        """,
        # round-5 no_oracle conversions (VERDICT r4 #7): re-derive the
        # engine's returned distances/scores in SQL from exported rows
        # (the knn_ivf_partitioned_cert pattern), constant-pin the
        # sf-independent config job digest, and reduce-oracle the resumed
        # pages job from its own per-partition joined parquet.
        "knn_ivf": f"""
            WITH q AS (
                SELECT CAST(embedding AS DOUBLE[]) AS qe
                FROM embeddings WHERE vec_id = 0
            ),
            c AS (
                SELECT * FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/knn_ivf/rows.parquet')
            )
            SELECT c.rank, c.vec_id,
                   round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe), 5) AS score
            FROM c JOIN embeddings e USING (vec_id) CROSS JOIN q
            ORDER BY c.rank
        """,
        "dedup_minhash": f"""
            WITH RECURSIVE p AS (
                SELECT a, b
                FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/dedup_minhash/pairs/*.parquet')
            ),
            ee AS (SELECT a, b FROM p UNION SELECT b, a FROM p),
            reach AS (
                SELECT a AS node, b AS r FROM ee
                UNION
                SELECT reach.node, ee.b FROM reach JOIN ee ON ee.a = reach.r
            ),
            lab AS (
                SELECT node, LEAST(node, MIN(r)) AS canonical
                FROM reach GROUP BY node
            )
            SELECT d.doc_id,
                   COALESCE(lab.canonical, d.doc_id) AS cluster_id,
                   (COALESCE(lab.canonical, d.doc_id) <> d.doc_id) AS is_duplicate
            FROM documents d LEFT JOIN lab ON lab.node = d.doc_id
            ORDER BY d.doc_id
        """,
        "dedup_simhash": f"""
            WITH RECURSIVE p AS (
                SELECT a, b
                FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/dedup_simhash/pairs/*.parquet')
            ),
            ee AS (SELECT a, b FROM p UNION SELECT b, a FROM p),
            reach AS (
                SELECT a AS node, b AS r FROM ee
                UNION
                SELECT reach.node, ee.b FROM reach JOIN ee ON ee.a = reach.r
            ),
            lab AS (
                SELECT node, LEAST(node, MIN(r)) AS canonical
                FROM reach GROUP BY node
            )
            SELECT d.doc_id,
                   COALESCE(lab.canonical, d.doc_id) AS cluster_id,
                   (COALESCE(lab.canonical, d.doc_id) <> d.doc_id) AS is_duplicate
            FROM documents d LEFT JOIN lab ON lab.node = d.doc_id
            ORDER BY d.doc_id
        """,
        "dedup_ngram": f"""
            WITH RECURSIVE p AS (
                SELECT a, b
                FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/dedup_ngram/pairs/*.parquet')
            ),
            ee AS (SELECT a, b FROM p UNION SELECT b, a FROM p),
            reach AS (
                SELECT a AS node, b AS r FROM ee
                UNION
                SELECT reach.node, ee.b FROM reach JOIN ee ON ee.a = reach.r
            ),
            lab AS (
                SELECT node, LEAST(node, MIN(r)) AS canonical
                FROM reach GROUP BY node
            )
            SELECT d.doc_id,
                   COALESCE(lab.canonical, d.doc_id) AS cluster_id,
                   (COALESCE(lab.canonical, d.doc_id) <> d.doc_id) AS is_duplicate
            FROM documents d LEFT JOIN lab ON lab.node = d.doc_id
            ORDER BY d.doc_id
        """,
        "dedup_embedding": f"""
            WITH RECURSIVE p AS (
                SELECT a, b
                FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/dedup_embedding/pairs/*.parquet')
            ),
            ee AS (SELECT a, b FROM p UNION SELECT b, a FROM p),
            reach AS (
                SELECT a AS node, b AS r FROM ee
                UNION
                SELECT reach.node, ee.b FROM reach JOIN ee ON ee.a = reach.r
            ),
            lab AS (
                SELECT node, LEAST(node, MIN(r)) AS canonical
                FROM reach GROUP BY node
            )
            SELECT e.vec_id,
                   COALESCE(lab.canonical, e.vec_id) AS cluster_id,
                   (COALESCE(lab.canonical, e.vec_id) <> e.vec_id) AS is_duplicate
            FROM embeddings e LEFT JOIN lab ON lab.node = e.vec_id
            ORDER BY e.vec_id
        """,
        "zone_knn": f"""
            WITH d AS (
                SELECT p.doc_id, b.part_id,
                       sqrt(
                         greatest(b.minx - p.lon, p.lon - b.maxx, 0.0)
                           * greatest(b.minx - p.lon, p.lon - b.maxx, 0.0)
                         + greatest(b.miny - p.lat, p.lat - b.maxy, 0.0)
                           * greatest(b.miny - p.lat, p.lat - b.maxy, 0.0)
                       ) AS dist
                FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/zone_knn/points.parquet') p
                CROSS JOIN read_parquet('{_FLAGSHIP_ORACLE_DIR}/zone_knn/parts.parquet') b
            ),
            ranked AS (
                SELECT doc_id,
                       row_number() OVER (
                           PARTITION BY doc_id ORDER BY dist, part_id
                       ) AS rank,
                       dist
                FROM d
            )
            SELECT doc_id, CAST(rank AS BIGINT) AS rank, round(dist, 6) AS dist
            FROM ranked WHERE rank <= 3 ORDER BY doc_id, rank
        """,
        "config_job": """
            SELECT 'demo_2026_01_01_00_00_00.csv' AS csv_name,
                   CAST(7 AS BIGINT) AS n_rows,
                   CAST(19 AS BIGINT) AS n_cols,
                   '3f173a1666b6e9317eaddd4d5b2fc094385d9067e29bc67584d87279768887e1' AS sha256
        """,
        "pages_job_resume": f"""
            WITH r AS (
                SELECT group_value, value
                FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/pjob/job/p*/joined/*.parquet')
            ),
            a AS (
                SELECT group_value,
                       count(*) AS n,
                       sum(value) AS s,
                       min(value) AS mn,
                       max(value) AS mx,
                       sum(value * value) AS ss
                FROM r GROUP BY group_value
            )
            SELECT g.group_value,
                   round(a.mn, 6) AS min,
                   round(a.mx, 6) AS max,
                   coalesce(a.n, 0) AS count,
                   CAST(0 AS BIGINT) AS nodata_count,
                   coalesce(a.n, 0) AS valid_count,
                   round(coalesce(a.s, 0.0), 6) AS sum,
                   round(CASE WHEN a.n > 0 THEN sqrt(greatest(0.0,
                       a.ss / a.n - (a.s / a.n) * (a.s / a.n))) END, 6) AS stdev,
                   CAST(3 AS BIGINT) AS first_run_completed,
                   CAST(3 AS BIGINT) AS second_run_skipped
            FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/pjob/groups.parquet') g
            LEFT JOIN a ON a.group_value = g.group_value
            ORDER BY (g.group_value = ''), g.group_value
        """,
        "hash_join": """
            SELECT o.o_orderstatus,
                   count(*) AS n_rows,
                   round(sum(l.l_quantity), 6) AS sum_qty
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderstatus ORDER BY o.o_orderstatus
        """,
        "left_join": """
            SELECT c.c_custkey, c.c_nationkey,
                   coalesce(o.o_orderkey, -1) AS o_orderkey,
                   round(coalesce(o.o_totalprice, 0.0), 6) AS o_totalprice
            FROM customer c LEFT OUTER JOIN orders o
              ON c.c_custkey = o.o_custkey
            ORDER BY c.c_custkey, o_orderkey
        """,
        "full_join": """
            SELECT coalesce(c.c_custkey, o.o_custkey) AS c_custkey,
                   CAST(coalesce(c.c_nationkey, -1) AS BIGINT) AS c_nationkey,
                   coalesce(o.o_orderkey, -1) AS o_orderkey,
                   round(coalesce(o.o_totalprice, 0.0), 6) AS o_totalprice
            FROM (SELECT c_custkey, c_nationkey FROM customer
                  WHERE c_custkey % 2 = 0) c
            FULL OUTER JOIN orders o ON c.c_custkey = o.o_custkey
            ORDER BY c_custkey, o_orderkey
        """,
        "normalize_text": r"""
            SELECT doc_id,
                   trim(regexp_replace(lower(nfc_normalize(text)),
                                       '\s+', ' ', 'g')) AS norm_text,
                   length(trim(regexp_replace(lower(nfc_normalize(text)),
                                              '\s+', ' ', 'g'))) AS n_norm_chars
            FROM documents ORDER BY doc_id
        """,
        "approx_percentiles": f"""
            SELECT {_GEO_SQL} AS zone_id, TRUE AS within_tol
            FROM documents GROUP BY zone_id ORDER BY zone_id
        """,
        "inverted_lookup": r"""
            WITH toks AS (
              SELECT DISTINCT doc_id, t.tok AS token
              FROM documents, unnest(string_split_regex(lower(text), '\s+')) AS t(tok)
              WHERE t.tok <> ''
            )
            SELECT token, doc_id FROM toks
            WHERE token IN ('spark', 'merge', 'window', 'zzz-absent')
            ORDER BY token, doc_id
        """,
        "tfidf_top_terms": r"""
            WITH toks AS (
              SELECT doc_id, t.tok AS token, count(*) AS tf
              FROM documents, unnest(string_split_regex(lower(text), '\s+')) AS t(tok)
              WHERE t.tok <> '' GROUP BY doc_id, t.tok
            ),
            df AS (SELECT token, count(DISTINCT doc_id) AS df FROM toks GROUP BY token),
            scored AS (
              SELECT toks.doc_id, toks.token,
                     toks.tf * ln(CAST((SELECT count(*) FROM documents) AS DOUBLE)
                                  / df.df) AS tfidf
              FROM toks JOIN df USING (token)
            ),
            ranked AS (
              SELECT doc_id, token, tfidf,
                     row_number() OVER (
                       PARTITION BY doc_id ORDER BY tfidf DESC, token ASC
                     ) AS rank
              FROM scored
            )
            SELECT doc_id, CAST(rank AS BIGINT) AS rank, token,
                   round(tfidf, 6) AS tfidf
            FROM ranked WHERE rank <= 5 ORDER BY doc_id, rank
        """,
        "url_host_stats": """
            SELECT source || '.example' AS host,
                   count(*) AS n_pages,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars,
                   CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
            FROM documents GROUP BY host ORDER BY host
        """,
        "quantile_filter": """
            SELECT doc_id, n_chars FROM documents
            WHERE CAST(n_chars AS DOUBLE) >= (
              SELECT quantile_cont(CAST(CAST(n_chars AS FLOAT) AS DOUBLE), 0.9)
              FROM documents)
            ORDER BY doc_id
        """,
        # flagship REDUCE oracles (round 4, VERDICT r3 #4): re-aggregate the
        # engine's exported joined rows — written by the query immediately
        # before this SQL runs — reproducing count/nodata/valid/sum/min/max,
        # the Q3 stdev clamp, and float32 linear-interpolation percentiles.
        # The join itself is hash-checked by the zonal_grid_* fixtures.
        "zonal_pages": f"""
            WITH r AS (
              SELECT * FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/pages/rows/*.parquet')
            ),
            a AS (
              SELECT group_key,
                     count(*) AS count,
                     count(*) FILTER (WHERE nodata) AS nodata_count,
                     count(*) FILTER (WHERE NOT nodata) AS valid_count,
                     coalesce(sum(value) FILTER (WHERE NOT nodata), 0.0) AS sum,
                     min(value) FILTER (WHERE NOT nodata) AS min,
                     max(value) FILTER (WHERE NOT nodata) AS max,
                     sum(value * value) FILTER (WHERE NOT nodata) AS sumsq,
                     quantile_cont(CAST(CAST(value AS FLOAT) AS DOUBLE), 0.05)
                       FILTER (WHERE NOT nodata) AS p5,
                     quantile_cont(CAST(CAST(value AS FLOAT) AS DOUBLE), 0.95)
                       FILTER (WHERE NOT nodata) AS p95
              FROM r GROUP BY group_key
            )
            SELECT g.group_value,
                   round(a.min, 6) AS min,
                   round(a.max, 6) AS max,
                   coalesce(a.count, 0) AS count,
                   coalesce(a.nodata_count, 0) AS nodata_count,
                   coalesce(a.valid_count, 0) AS valid_count,
                   round(coalesce(a.sum, 0.0), 6) AS sum,
                   round(CASE WHEN a.valid_count > 0 THEN sqrt(greatest(0.0,
                       a.sumsq / a.valid_count
                       - (a.sum / a.valid_count) * (a.sum / a.valid_count)))
                     END, 6) AS stdev,
                   round(CAST(a.p5 AS DOUBLE), 6) AS p5,
                   round(CAST(a.p95 AS DOUBLE), 6) AS p95
            FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/pages/groups.parquet') g
            LEFT JOIN a ON a.group_key = g.group_key
            ORDER BY (g.group_value = ''), g.group_value
        """,
        "zonal_algebra": f"""
            WITH r AS (
              SELECT m.group_value, x.value, x.nodata
              FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/algebra/rows/*.parquet') x
              JOIN read_parquet('{_FLAGSHIP_ORACLE_DIR}/algebra/fid_groups.parquet') m
                ON x.group_key = m.fid
            ),
            a AS (
              SELECT group_value,
                     count(*) AS count,
                     count(*) FILTER (WHERE nodata) AS nodata_count,
                     count(*) FILTER (WHERE NOT nodata) AS valid_count,
                     coalesce(sum(value) FILTER (WHERE NOT nodata), 0.0) AS sum,
                     min(value) FILTER (WHERE NOT nodata) AS min,
                     max(value) FILTER (WHERE NOT nodata) AS max,
                     sum(value * value) FILTER (WHERE NOT nodata) AS sumsq,
                     quantile_cont(CAST(CAST(value AS FLOAT) AS DOUBLE), 0.05)
                       FILTER (WHERE NOT nodata) AS p5,
                     quantile_cont(CAST(CAST(value AS FLOAT) AS DOUBLE), 0.95)
                       FILTER (WHERE NOT nodata) AS p95
              FROM r GROUP BY group_value
            )
            SELECT g.group_value,
                   round(a.min, 6) AS min,
                   round(a.max, 6) AS max,
                   coalesce(a.count, 0) AS count,
                   coalesce(a.nodata_count, 0) AS nodata_count,
                   coalesce(a.valid_count, 0) AS valid_count,
                   round(coalesce(a.sum, 0.0), 6) AS sum,
                   round(CASE WHEN a.valid_count > 0 THEN sqrt(greatest(0.0,
                       a.sumsq / a.valid_count
                       - (a.sum / a.valid_count) * (a.sum / a.valid_count)))
                     END, 6) AS stdev,
                   round(CAST(a.p5 AS DOUBLE), 6) AS p5,
                   round(CAST(a.p95 AS DOUBLE), 6) AS p95
            FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/algebra/groups.parquet') g
            LEFT JOIN a ON a.group_value = g.group_value
            ORDER BY (g.group_value = ''), g.group_value
        """,
        "zonal_raster": f"""
            WITH r AS (
              SELECT m.group_value, x.value, x.nodata
              FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/raster/rows/*.parquet') x
              JOIN read_parquet('{_FLAGSHIP_ORACLE_DIR}/raster/fid_groups.parquet') m
                ON x.group_key = m.fid
            ),
            a AS (
              SELECT group_value,
                     count(*) AS count,
                     count(*) FILTER (WHERE nodata) AS nodata_count,
                     count(*) FILTER (WHERE NOT nodata) AS valid_count,
                     coalesce(sum(value) FILTER (WHERE NOT nodata), 0.0) AS sum,
                     min(value) FILTER (WHERE NOT nodata) AS min,
                     max(value) FILTER (WHERE NOT nodata) AS max,
                     sum(value * value) FILTER (WHERE NOT nodata) AS sumsq,
                     quantile_cont(CAST(CAST(value AS FLOAT) AS DOUBLE), 0.05)
                       FILTER (WHERE NOT nodata) AS p5,
                     quantile_cont(CAST(CAST(value AS FLOAT) AS DOUBLE), 0.95)
                       FILTER (WHERE NOT nodata) AS p95
              FROM r GROUP BY group_value
            )
            SELECT g.group_value,
                   round(a.min, 6) AS min,
                   round(a.max, 6) AS max,
                   coalesce(a.count, 0) AS count,
                   coalesce(a.nodata_count, 0) AS nodata_count,
                   coalesce(a.valid_count, 0) AS valid_count,
                   round(coalesce(a.sum, 0.0), 6) AS sum,
                   round(CASE WHEN a.valid_count > 0 THEN sqrt(greatest(0.0,
                       a.sumsq / a.valid_count
                       - (a.sum / a.valid_count) * (a.sum / a.valid_count)))
                     END, 6) AS stdev,
                   round(CAST(a.p5 AS DOUBLE), 6) AS p5,
                   round(CAST(a.p95 AS DOUBLE), 6) AS p95
            FROM read_parquet('{_FLAGSHIP_ORACLE_DIR}/raster/groups.parquet') g
            LEFT JOIN a ON a.group_value = g.group_value
            ORDER BY (g.group_value = ''), g.group_value
        """,
        "zonal_grid_stats": f"""
            SELECT {_GEO_SQL} AS zone_id,
                   count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_nchars,
                   min(n_chars) AS min_nchars,
                   max(n_chars) AS max_nchars,
                   avg(n_chars) AS avg_nchars
            FROM documents GROUP BY zone_id ORDER BY zone_id
        """,
        "zonal_grid_percentiles": f"""
            SELECT {_GEO_SQL} AS zone_id,
                   round(quantile_cont(n_chars, 0.05), 6) AS p5,
                   round(quantile_cont(n_chars, 0.50), 6) AS p50,
                   round(quantile_cont(n_chars, 0.95), 6) AS p95
            FROM documents GROUP BY zone_id ORDER BY zone_id
        """,
        "groupby_lineitem": """
            SELECT l_returnflag, l_linestatus,
                   sum(l_quantity) AS sum_qty,
                   min(l_quantity) AS min_qty,
                   max(l_quantity) AS max_qty,
                   count(*) AS count_order,
                   sum(l_quantity) / count(*) AS avg_qty
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "filter_project": """
            SELECT o_orderkey, o_totalprice, o_totalprice / 1000.0 AS price_k
            FROM orders WHERE o_totalprice > 400000.0
        """,
        "topk_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
        """,
        "join_broadcast": """
            SELECT c_mktsegment,
                   count(*) AS n_orders,
                   round(sum(o_totalprice), 2) AS revenue
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "distinct_langs": "SELECT DISTINCT lang FROM documents ORDER BY lang",
        "anti_join": """
            SELECT c_mktsegment, count(*) AS n_customers
            FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders WHERE o_totalprice > 400000.0
            )
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "union_distinct": """
            SELECT o_orderstatus, count(*) AS n_orders FROM (
                SELECT o_orderkey, o_orderstatus FROM orders
                WHERE o_totalprice > 350000.0
                UNION
                SELECT o_orderkey, o_orderstatus FROM orders
                WHERE o_orderpriority = '1-URGENT'
            ) GROUP BY o_orderstatus ORDER BY o_orderstatus
        """,
        "pages": """
            SELECT 'https://' || source || '.example/doc/' || doc_id AS url,
                   text, lang
            FROM documents
        """,
        "semi_join": """
            SELECT l_returnflag,
                   count(*) AS n_rows,
                   sum(l_quantity) AS sum_qty
            FROM lineitem
            WHERE l_orderkey IN (
                SELECT o_orderkey FROM orders WHERE o_totalprice > 300000.0
            )
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "asof_join": """
            WITH j AS (
                SELECT e.event_type, e.event_id, c.v AS last_click_value
                FROM events e
                ASOF LEFT JOIN (
                    SELECT user_id AS u, ts AS t, value AS v
                    FROM events WHERE event_type = 'click'
                ) c ON e.user_id = c.u AND e.ts >= c.t
            )
            SELECT event_type,
                   count(*) AS n_events,
                   CAST(count(last_click_value) AS BIGINT) AS n_with_click,
                   round(COALESCE(sum(last_click_value), 0.0), 6) AS sum_click_value
            FROM j GROUP BY event_type ORDER BY event_type
        """,
        "dedup_exact": """
            SELECT min(doc_id) AS doc_id, count(*) AS n_dupes
            FROM documents GROUP BY text ORDER BY doc_id
        """,
        "dedup_incremental": """
            WITH corpus AS (
                SELECT doc_id, text FROM documents WHERE doc_id % 4 != 0
            ),
            shard AS (
                SELECT doc_id, text FROM documents WHERE doc_id % 4 = 0
                UNION ALL
                SELECT doc_id + 1000000, text FROM documents WHERE doc_id % 8 = 1
                UNION ALL
                SELECT doc_id + 2000000, text FROM documents WHERE doc_id % 8 = 4
            ),
            cmin AS (SELECT text, min(doc_id) AS corpus_min FROM corpus GROUP BY text),
            smin AS (SELECT text, min(doc_id) AS shard_min FROM shard GROUP BY text)
            SELECT s.doc_id,
                   CAST(COALESCE(c.corpus_min, m.shard_min) AS BIGINT) AS canonical_id,
                   (COALESCE(c.corpus_min, m.shard_min) != s.doc_id) AS is_duplicate
            FROM shard s
            LEFT JOIN cmin c ON s.text = c.text
            JOIN smin m ON s.text = m.text
            ORDER BY s.doc_id
        """,
        "token_stats": r"""
            SELECT doc_id,
                   length(text) AS n_chars,
                   len(regexp_extract_all(text, '\S+')) AS n_tokens,
                   len(regexp_extract_all(text, '[.,!?;:]')) AS n_punct
            FROM documents
        """,
        "quality_score": r"""
            SELECT doc_id,
                   round(len(regexp_extract_all(text, '[A-Za-z]')) / (length(text) + 1.0), 9) AS alpha_ratio,
                   round(len(regexp_extract_all(text, '[.,!?;:]')) / (len(regexp_extract_all(text, '\S+')) + 1.0), 9) AS punct_ratio,
                   round((len(regexp_extract_all(text, '[A-Za-z]')) / (length(text) + 1.0))
                         * (1.0 - len(regexp_extract_all(text, '[.,!?;:]')) / (len(regexp_extract_all(text, '\S+')) + 1.0)), 9) AS quality_score
            FROM documents
        """,
        "window_events": """
            SELECT event_type, date_trunc('hour', ts) AS window_start,
                   count(*) AS n_events,
                   round(sum(value), 6) AS sum_value,
                   round(min(value), 6) AS min_value,
                   round(max(value), 6) AS max_value
            FROM events GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "window_ranks": """
            WITH e AS (
              SELECT event_id, user_id, floor(value) AS value FROM events
            )
            SELECT event_id, user_id,
              ROW_NUMBER() OVER (PARTITION BY user_id
                                 ORDER BY value, event_id) AS row_num,
              RANK() OVER (PARTITION BY user_id ORDER BY value) AS rnk,
              round(PERCENT_RANK() OVER (PARTITION BY user_id
                                         ORDER BY value), 6) AS pct_rank,
              round(SUM(value) OVER (PARTITION BY user_id
                    ORDER BY value, event_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                    6) AS run_sum,
              NTILE(4) OVER (PARTITION BY user_id
                             ORDER BY value, event_id) AS ntile
            FROM e ORDER BY event_id
        """,
        "common_passages": r"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(string_split_regex(lower(text), '\s+'),
                            x -> x <> '') AS w
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(w) >= 8 THEN
                  [array_to_string(w[i:i+7], ' ')
                   for i in generate_series(1, len(w)-7)]
                WHEN len(w) > 0 THEN [array_to_string(w, ' ')]
                ELSE [] END AS g
              FROM toks
            ),
            dg AS (SELECT DISTINCT doc_id, gram
                   FROM (SELECT doc_id, unnest(g) AS gram FROM grams)),
            c AS (SELECT gram, count(*) AS cnt FROM dg GROUP BY gram)
            SELECT dg.doc_id, count(*)::BIGINT AS n_shared
            FROM dg JOIN c ON dg.gram = c.gram
            WHERE c.cnt >= 2
            GROUP BY dg.doc_id ORDER BY dg.doc_id
        """,
        "mixture_sample": """
            WITH cnt AS (
              SELECT source, count(*)::BIGINT AS c FROM documents GROUP BY source
            ),
            t AS (SELECT min(c)::DOUBLE AS mc FROM cnt)
            SELECT d.doc_id, d.source
            FROM documents d
            JOIN cnt ON d.source = cnt.source
            CROSS JOIN t
            WHERE (d.doc_id * 2654435761) % 4294967296
                  < floor(t.mc / cnt.c::DOUBLE * 4294967296)
            ORDER BY d.doc_id
        """,
        "heavy_hitters_cert": r"""
            WITH aug AS (
              SELECT doc_id,
                     text || ' ' || repeat('zz0 ', 8)
                          || CASE WHEN doc_id % 2 = 0
                                  THEN repeat('zz1 ', 8) ELSE '' END
                          || CASE WHEN doc_id % 4 = 0
                                  THEN repeat('zz2 ', 2) ELSE '' END AS text
              FROM documents
            ),
            toks AS (
              SELECT unnest(list_filter(
                         string_split_regex(lower(text), '\s+'),
                         x -> x <> '')) AS t
              FROM aug
            ),
            cnt AS (SELECT t, count(*)::BIGINT AS c FROM toks GROUP BY t),
            tot AS (SELECT sum(c)::BIGINT AS n FROM cnt)
            SELECT token, TRUE AS present_ok, TRUE AS bound_ok FROM (
              SELECT '__summary__' AS token
              UNION ALL
              SELECT t FROM cnt, tot WHERE c * 25 > n
            ) ORDER BY token
        """,
        "bigram_pmi": r"""
            WITH w AS (
              SELECT list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS t
              FROM documents
            ),
            uni AS (
              SELECT tok, count(*)::BIGINT AS c
              FROM (SELECT unnest(t) AS tok FROM w) GROUP BY tok
            ),
            big AS (
              SELECT a, b, count(*)::BIGINT AS n_ab
              FROM (
                SELECT unnest(list_slice(t, 1, length(t)-1)) AS a,
                       unnest(list_slice(t, 2, length(t))) AS b
                FROM w WHERE length(t) >= 2
              ) GROUP BY a, b
            ),
            tot AS (SELECT (SELECT sum(c) FROM uni) AS nu,
                           (SELECT sum(n_ab) FROM big) AS nb)
            SELECT a, b, n_ab,
                   round(log2((n_ab::DOUBLE * nu * nu) /
                              (nb::DOUBLE * ca * cb)), 6) AS pmi
            FROM (
              SELECT big.a, big.b, big.n_ab, ua.c AS ca, ub.c AS cb,
                     tot.nu, tot.nb
              FROM big CROSS JOIN tot
              JOIN uni ua ON ua.tok = big.a
              JOIN uni ub ON ub.tok = big.b
              WHERE big.n_ab >= 5
            )
            ORDER BY pmi DESC, a, b LIMIT 20
        """,
        "rolling_stats": """
            SELECT event_id, user_id,
                   COUNT(*) OVER w AS roll_n,
                   round(SUM(value) OVER w, 6) AS roll_sum
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts
                         RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                                   AND CURRENT ROW)
            ORDER BY event_id
        """,
        "pagerank": """
            WITH e AS (
                SELECT o.o_custkey AS src,
                       1000000 + l.l_suppkey AS dst
                FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            ),
            nodes AS (
                SELECT src AS node FROM e UNION SELECT dst AS node FROM e
            ),
            nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
            deg AS (
                SELECT src, CAST(count(*) AS DOUBLE) AS deg FROM e GROUP BY src
            ),
            r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS r FROM nodes),
            d0 AS (
                SELECT coalesce(sum(r0.r), 0.0) AS dm
                FROM r0 LEFT JOIN deg ON r0.node = deg.src
                WHERE deg.src IS NULL
            ),
            c0 AS (
                SELECT e.dst AS node, sum(r0.r / deg.deg) AS s
                FROM e JOIN r0 ON e.src = r0.node JOIN deg ON e.src = deg.src
                GROUP BY e.dst
            ),
            r1 AS (
                SELECT nodes.node,
                       0.15 / (SELECT n FROM nn)
                       + 0.85 * (coalesce(c0.s, 0.0)
                                 + (SELECT dm FROM d0) / (SELECT n FROM nn)) AS r
                FROM nodes LEFT JOIN c0 ON nodes.node = c0.node
            ),
            d1 AS (
                SELECT coalesce(sum(r1.r), 0.0) AS dm
                FROM r1 LEFT JOIN deg ON r1.node = deg.src
                WHERE deg.src IS NULL
            ),
            c1 AS (
                SELECT e.dst AS node, sum(r1.r / deg.deg) AS s
                FROM e JOIN r1 ON e.src = r1.node JOIN deg ON e.src = deg.src
                GROUP BY e.dst
            ),
            r2 AS (
                SELECT nodes.node,
                       0.15 / (SELECT n FROM nn)
                       + 0.85 * (coalesce(c1.s, 0.0)
                                 + (SELECT dm FROM d1) / (SELECT n FROM nn)) AS r
                FROM nodes LEFT JOIN c1 ON nodes.node = c1.node
            ),
            d2 AS (
                SELECT coalesce(sum(r2.r), 0.0) AS dm
                FROM r2 LEFT JOIN deg ON r2.node = deg.src
                WHERE deg.src IS NULL
            ),
            c2 AS (
                SELECT e.dst AS node, sum(r2.r / deg.deg) AS s
                FROM e JOIN r2 ON e.src = r2.node JOIN deg ON e.src = deg.src
                GROUP BY e.dst
            ),
            r3 AS (
                SELECT nodes.node,
                       0.15 / (SELECT n FROM nn)
                       + 0.85 * (coalesce(c2.s, 0.0)
                                 + (SELECT dm FROM d2) / (SELECT n FROM nn)) AS r
                FROM nodes LEFT JOIN c2 ON nodes.node = c2.node
            )
            SELECT node, round(r * (SELECT n FROM nn), 6) AS rank_scaled
            FROM r3 ORDER BY node
        """,
        "next_click": """
            WITH x AS (
                SELECT event_id, event_type, user_id, ts,
                       CASE WHEN event_type = 'click' THEN ts END AS cts
                FROM events
            ),
            w AS (
                SELECT event_id, event_type, user_id,
                       min(cts) OVER (
                           PARTITION BY user_id ORDER BY ts
                           RANGE BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING
                       ) AS nts
                FROM x
            ),
            cmax AS (
                SELECT user_id, ts, max(value) AS mv FROM events
                WHERE event_type = 'click' GROUP BY user_id, ts
            ),
            v AS (
                SELECT w.event_id, w.event_type, cmax.mv
                FROM w LEFT JOIN cmax
                  ON cmax.user_id = w.user_id AND cmax.ts = w.nts
            )
            SELECT event_type, count(*) AS n_events,
                   CAST(count(mv) AS BIGINT) AS n_with_click,
                   round(coalesce(sum(mv), 0.0), 6) AS sum_next_value
            FROM v GROUP BY event_type ORDER BY event_type
        """,
        "keyness": r"""
            WITH toks AS (
                SELECT lang, t.tok AS token
                FROM documents,
                     unnest(string_split_regex(lower(text), '\s+')) AS t(tok)
                WHERE t.tok <> ''
            ),
            gt AS (
                SELECT lang, token, CAST(count(*) AS DOUBLE) AS c
                FROM toks GROUP BY lang, token
            ),
            tt AS (SELECT token, sum(c) AS ct FROM gt GROUP BY token),
            gg AS (SELECT lang, sum(c) AS cg FROM gt GROUP BY lang),
            tot AS (SELECT sum(c) AS call FROM gt),
            s AS (
                SELECT gt.lang, gt.token,
                       round(
                           ln((gt.c + 1.0) / (gg.cg - gt.c + 1.0))
                           - ln((tt.ct - gt.c + 1.0)
                                / ((SELECT call FROM tot) - gg.cg
                                   - (tt.ct - gt.c) + 1.0)),
                           6
                       ) AS score
                FROM gt JOIN tt USING (token) JOIN gg USING (lang)
            ),
            r AS (
                SELECT lang, token, score,
                       row_number() OVER (
                           PARTITION BY lang ORDER BY score DESC, token ASC
                       ) AS rank
                FROM s
            )
            SELECT lang, CAST(rank AS BIGINT) AS rank, token, score
            FROM r WHERE rank <= 5 ORDER BY lang, rank
        """,
        "hits": """
            WITH e AS (
                SELECT o.o_custkey AS src,
                       1000000 + l.l_suppkey AS dst
                FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            ),
            nodes AS (
                SELECT src AS node FROM e UNION SELECT dst AS node FROM e
            ),
            nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
            h0 AS (
                SELECT node, 1.0 / sqrt((SELECT n FROM nn)) AS h FROM nodes
            ),
            a1r AS (
                SELECT e.dst AS node, sum(h0.h) AS a
                FROM e JOIN h0 ON e.src = h0.node GROUP BY e.dst
            ),
            a1z AS (
                SELECT CASE WHEN sqrt(sum(a * a)) > 0
                            THEN sqrt(sum(a * a)) ELSE 1.0 END AS z
                FROM a1r
            ),
            a1 AS (
                SELECT nodes.node,
                       coalesce(a1r.a, 0.0) / (SELECT z FROM a1z) AS a
                FROM nodes LEFT JOIN a1r ON nodes.node = a1r.node
            ),
            h1r AS (
                SELECT e.src AS node, sum(a1.a) AS h
                FROM e JOIN a1 ON e.dst = a1.node GROUP BY e.src
            ),
            h1z AS (
                SELECT CASE WHEN sqrt(sum(h * h)) > 0
                            THEN sqrt(sum(h * h)) ELSE 1.0 END AS z
                FROM h1r
            ),
            h1 AS (
                SELECT nodes.node,
                       coalesce(h1r.h, 0.0) / (SELECT z FROM h1z) AS h
                FROM nodes LEFT JOIN h1r ON nodes.node = h1r.node
            ),
            a2r AS (
                SELECT e.dst AS node, sum(h1.h) AS a
                FROM e JOIN h1 ON e.src = h1.node GROUP BY e.dst
            ),
            a2z AS (
                SELECT CASE WHEN sqrt(sum(a * a)) > 0
                            THEN sqrt(sum(a * a)) ELSE 1.0 END AS z
                FROM a2r
            ),
            a2 AS (
                SELECT nodes.node,
                       coalesce(a2r.a, 0.0) / (SELECT z FROM a2z) AS a
                FROM nodes LEFT JOIN a2r ON nodes.node = a2r.node
            ),
            h2r AS (
                SELECT e.src AS node, sum(a2.a) AS h
                FROM e JOIN a2 ON e.dst = a2.node GROUP BY e.src
            ),
            h2z AS (
                SELECT CASE WHEN sqrt(sum(h * h)) > 0
                            THEN sqrt(sum(h * h)) ELSE 1.0 END AS z
                FROM h2r
            ),
            h2 AS (
                SELECT nodes.node,
                       coalesce(h2r.h, 0.0) / (SELECT z FROM h2z) AS h
                FROM nodes LEFT JOIN h2r ON nodes.node = h2r.node
            )
            SELECT h2.node, round(h2.h, 6) AS hub, round(a2.a, 6) AS authority
            FROM h2 JOIN a2 ON h2.node = a2.node
            ORDER BY h2.node
        """,
        "ewma": """
            WITH t AS (
                SELECT event_id, user_id, value,
                       row_number() OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS rn
                FROM events
            ),
            y AS (
                SELECT a.event_id, a.user_id,
                       sum(CASE WHEN b.rn = 1
                                THEN power(2.0 / 3.0, a.rn - 1) * b.value
                                ELSE (1.0 / 3.0)
                                     * power(2.0 / 3.0, a.rn - b.rn) * b.value
                           END) AS ewma
                FROM t a JOIN t b
                  ON a.user_id = b.user_id AND b.rn <= a.rn
                GROUP BY a.event_id, a.user_id
            )
            SELECT event_id, user_id, round(ewma, 6) AS ewma
            FROM y ORDER BY event_id
        """,
        "interval_coverage": """
            WITH iv AS (
                SELECT user_id, epoch(ts) AS s,
                       epoch(ts) + 60.0 * abs(value) AS e
                FROM events
            ), m AS (
                SELECT user_id, s, e,
                       MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                             AND 1 PRECEDING) AS cm
                FROM iv
            ), g AS (
                SELECT user_id, s, e,
                       SUM(CASE WHEN cm IS NULL OR s > cm THEN 1 ELSE 0 END)
                         OVER (PARTITION BY user_id ORDER BY s, e) AS gid
                FROM m
            ), isl AS (
                SELECT user_id, gid, MIN(s) AS st, MAX(e) AS en
                FROM g GROUP BY user_id, gid
            )
            SELECT user_id, COUNT(*) AS n_islands,
                   round(SUM(en - st), 6) AS covered_s,
                   round(MAX(en - st), 6) AS max_island_s
            FROM isl GROUP BY user_id ORDER BY user_id
        """,
        "twap": """
            WITH s AS (
              SELECT user_id, epoch(ts) AS t, value,
                     LEAD(epoch(ts)) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id) AS nt
              FROM events
            )
            SELECT user_id, COUNT(*) AS n_events,
                   ROUND(SUM((nt - t) * value) / (MAX(t) - MIN(t)), 6)
                       + 0.0 AS twap
            FROM s GROUP BY user_id HAVING COUNT(*) > 1
            ORDER BY user_id
        """,
        "bfs_hops": """
            WITH RECURSIVE n AS (SELECT COUNT(*) AS n FROM documents),
            e AS (
              SELECT doc_id AS s, (doc_id * 3 + 1) % (SELECT n FROM n) AS d
              FROM documents
              UNION ALL
              SELECT doc_id, (doc_id * 4 + 2) % (SELECT n FROM n)
              FROM documents
              UNION ALL
              SELECT doc_id, (doc_id * 5 + 3) % (SELECT n FROM n)
              FROM documents
            ),
            bfs AS (
              SELECT 0 AS node, 0 AS hops
              UNION ALL
              SELECT e.d, bfs.hops + 1
              FROM bfs JOIN e ON e.s = bfs.node
              WHERE bfs.hops < 3
            )
            SELECT node, MIN(hops) AS hops
            FROM bfs GROUP BY node ORDER BY node
        """,
        "cms_counts_cert": """
            SELECT DISTINCT user_id, TRUE AS ok FROM events ORDER BY user_id
        """,
        "assign_sessions": """
            WITH d AS (
                SELECT event_id, user_id, epoch(ts) AS t,
                       CASE WHEN epoch(ts) - lag(epoch(ts)) OVER w > 1800.0
                            OR lag(epoch(ts)) OVER w IS NULL
                            THEN 1 ELSE 0 END AS new_sess
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), s AS (
                SELECT event_id, user_id, t,
                       sum(new_sess) OVER (PARTITION BY user_id ORDER BY t)
                           AS sid
                FROM d
            )
            SELECT event_id, user_id,
                   round(MIN(t) OVER (PARTITION BY user_id, sid), 6)
                       AS session_start
            FROM s ORDER BY event_id
        """,
        "profile_events": """
            SELECT 'user_id' AS "column", COUNT(*) AS n,
                   COUNT(*) - COUNT(user_id) AS n_null,
                   COUNT(DISTINCT user_id) AS n_distinct,
                   ROUND(MIN(user_id) * 1.0, 6) + 0.0 AS min_value,
                   ROUND(MAX(user_id) * 1.0, 6) + 0.0 AS max_value,
                   ROUND(SUM(user_id) * 1.0 / COUNT(user_id), 6) + 0.0
                       AS mean_value
            FROM events
            UNION ALL
            SELECT 'event_type', COUNT(*), COUNT(*) - COUNT(event_type),
                   COUNT(DISTINCT event_type), NULL, NULL, NULL
            FROM events
            UNION ALL
            SELECT 'value', COUNT(*), COUNT(*) - COUNT(value),
                   COUNT(DISTINCT value),
                   ROUND(MIN(value), 6) + 0.0, ROUND(MAX(value), 6) + 0.0,
                   ROUND(SUM(value) / COUNT(value), 6) + 0.0
            FROM events
            UNION ALL
            SELECT 'props', COUNT(*), COUNT(*) - COUNT(props),
                   COUNT(DISTINCT props), NULL, NULL, NULL
            FROM events
        """,
        "event_transitions": """
            WITH s AS (
              SELECT user_id, event_type,
                     LAG(event_type) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id) AS prev
              FROM events
            ),
            c AS (
              SELECT prev AS from_type, event_type AS to_type,
                     COUNT(*) AS n
              FROM s WHERE prev IS NOT NULL
              GROUP BY prev, event_type
            )
            SELECT from_type, to_type, n,
                   ROUND(n * 1.0 / SUM(n) OVER (PARTITION BY from_type), 6)
                       + 0.0 AS p
            FROM c ORDER BY from_type, to_type
        """,
        "cohort_retention": """
            WITH w AS (
              SELECT user_id,
                     CAST(floor(epoch(ts) / 604800) AS BIGINT) AS wk
              FROM events
            ),
            f AS (
              SELECT user_id, MIN(wk) AS cohort_week FROM w GROUP BY user_id
            ),
            a AS (
              SELECT DISTINCT f.cohort_week,
                              w.wk - f.cohort_week AS week_offset,
                              w.user_id
              FROM w JOIN f USING (user_id)
            )
            SELECT cohort_week, week_offset, COUNT(*) AS n_users
            FROM a GROUP BY cohort_week, week_offset
            ORDER BY cohort_week, week_offset
        """,
        "bm25_topk": r"""
            WITH tok AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS l
              FROM documents
            ),
            q AS (SELECT unnest(['data', 'merge', 'window']) AS term),
            stats AS (
              SELECT COUNT(*) AS n, SUM(len(l)) * 1.0 / COUNT(*) AS avgdl
              FROM tok
            ),
            df AS (
              SELECT q.term, COUNT(*) AS df
              FROM q JOIN tok ON list_contains(tok.l, q.term)
              GROUP BY q.term
            ),
            tf AS (
              SELECT tok.doc_id, q.term,
                     len(list_filter(tok.l, x -> x = q.term)) * 1.0 AS tf,
                     len(tok.l) * 1.0 AS dl
              FROM tok, q WHERE list_contains(tok.l, q.term)
            ),
            sc AS (
              SELECT tf.doc_id,
                     SUM(ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                         * (tf.tf * (1.2 + 1.0))
                         / (tf.tf + 1.2 * (1.0 - 0.75
                                           + 0.75 * tf.dl / s.avgdl))
                        ) AS score
              FROM tf JOIN df USING (term) CROSS JOIN stats s
              GROUP BY tf.doc_id
            )
            SELECT doc_id, ROUND(score, 6) + 0.0 AS score
            FROM sc ORDER BY score DESC, doc_id LIMIT 20
        """,
        "similarity_join": r"""
            WITH tok AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS l
              FROM documents
            ),
            a AS (
              SELECT doc_id AS a_id,
                     list_distinct(list_transform(
                       generate_series(1, len(l) - 2),
                       i -> l[i] || chr(31) || l[i+1] || chr(31) || l[i+2]
                     )) AS gs
              FROM tok WHERE len(l) >= 3
            ),
            b AS (
              SELECT doc_id AS b_id,
                     list_distinct(list_transform(
                       generate_series(1, len(l) - 3),
                       i -> l[i] || chr(31) || l[i+1] || chr(31) || l[i+2]
                     )) AS gs
              FROM tok WHERE doc_id % 7 = 0 AND len(l) >= 4
            ),
            ua AS (SELECT a_id, len(gs) AS na, unnest(gs) AS g FROM a),
            ub AS (SELECT b_id, len(gs) AS nb, unnest(gs) AS g FROM b),
            p AS (
              SELECT a_id, b_id, any_value(na) AS na, any_value(nb) AS nb,
                     COUNT(*) AS inter
              FROM ua JOIN ub USING (g) GROUP BY a_id, b_id
            )
            SELECT a_id, b_id, inter, na, nb,
                   ROUND(inter * 1.0 / (na + nb - inter), 6) + 0.0 AS jaccard
            FROM p WHERE inter * 1.0 / (na + nb - inter) >= 0.7
            ORDER BY a_id, b_id
        """,
        "nb_classify": """
            WITH cp AS (
              SELECT doc_id,
                     list_transform(string_split(text, ''), c -> unicode(c)) AS l
              FROM documents
            ),
            pairs AS (
              SELECT doc_id, (a * 257 + b) % 65536 AS idx
              FROM (SELECT doc_id, unnest(l[:len(l)-1]) AS a, unnest(l[2:]) AS b
                    FROM cp WHERE len(l) >= 2)
            ),
            sc AS (
              SELECT p.doc_id, m.label,
                     pr.logprior + SUM(m.logp) AS score,
                     COUNT(*) AS nb
              FROM pairs p
              JOIN read_parquet('/tmp/graft_charlm_oracle/nb_model.parquet') m
                USING (idx)
              JOIN read_parquet('/tmp/graft_charlm_oracle/nb_priors.parquet') pr
                USING (label)
              GROUP BY p.doc_id, m.label, pr.logprior
            ),
            r AS (
              SELECT doc_id, label, score / (nb + 1.0) AS avg_logp,
                     ROW_NUMBER() OVER (PARTITION BY doc_id
                                        ORDER BY score DESC, label) AS rn
              FROM sc
            ),
            fb AS (
              SELECT label, logprior
              FROM read_parquet('/tmp/graft_charlm_oracle/nb_priors.parquet')
              ORDER BY logprior DESC, label LIMIT 1
            )
            SELECT d.doc_id,
                   COALESCE(r.label, (SELECT label FROM fb)) AS pred_label,
                   ROUND(COALESCE(r.avg_logp, (SELECT logprior FROM fb)), 6)
                       + 0.0 AS avg_logp
            FROM documents d
            LEFT JOIN r ON r.doc_id = d.doc_id AND r.rn = 1
            ORDER BY d.doc_id
        """,
        "df_by_lang": r"""
            WITH toks AS (
              SELECT lang,
                     unnest(list_distinct(list_filter(
                       string_split_regex(lower(text), '\s+'), x -> x <> ''
                     ))) AS token,
                     doc_id
              FROM documents
            ), df AS (
              SELECT lang, token, COUNT(DISTINCT doc_id) AS df
              FROM toks GROUP BY lang, token
            ), r AS (
              SELECT lang, token, df,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY df DESC, token) AS rn
              FROM df
            )
            SELECT lang, token, df FROM r WHERE rn <= 10
            ORDER BY lang, df DESC, token
        """,
        "triangle_stats": """
            WITH n AS (SELECT COUNT(*) AS n FROM documents),
            raw AS (
              SELECT doc_id AS s, (doc_id * 3 + 1) % (SELECT n FROM n) AS d
              FROM documents
              UNION ALL
              SELECT doc_id, (doc_id * 4 + 2) % (SELECT n FROM n)
              FROM documents
              UNION ALL
              SELECT doc_id, (doc_id * 5 + 3) % (SELECT n FROM n)
              FROM documents
            ),
            e AS (
              SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b
              FROM raw WHERE s <> d
            ),
            deg AS (
              SELECT node, COUNT(*) AS degree FROM (
                SELECT a AS node FROM e UNION ALL SELECT b FROM e
              ) GROUP BY node
            ),
            tri AS (
              SELECT e1.a AS x, e1.b AS y, e2.b AS z
              FROM e e1
              JOIN e e2 ON e2.a = e1.b
              JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            ),
            pern AS (
              SELECT node, COUNT(*) AS triangles FROM (
                SELECT x AS node FROM tri
                UNION ALL SELECT y FROM tri
                UNION ALL SELECT z FROM tri
              ) GROUP BY node
            )
            SELECT d.node, d.degree,
                   COALESCE(p.triangles, 0) AS triangles,
                   ROUND(CASE WHEN d.degree >= 2
                              THEN 2.0 * COALESCE(p.triangles, 0)
                                   / (d.degree * (d.degree - 1.0))
                              ELSE 0.0 END, 6) + 0.0 AS clustering
            FROM deg d LEFT JOIN pern p USING (node)
            ORDER BY d.node
        """,
        "kmeans_assign": """
            WITH e AS (
              SELECT vec_id,
                     unnest(CAST(embedding AS DOUBLE[])) AS v,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings
            ), d AS (
              SELECT e.vec_id, c.cid, SUM((e.v - c.w) * (e.v - c.w)) AS d2
              FROM e
              JOIN read_parquet('/tmp/graft_pca_oracle/centroids.parquet') c
                USING (dim)
              GROUP BY e.vec_id, c.cid
            ), r AS (
              SELECT vec_id, cid,
                     ROW_NUMBER() OVER (PARTITION BY vec_id
                                        ORDER BY d2, cid) AS rn
              FROM d
            )
            SELECT vec_id, cid AS cluster_id FROM r WHERE rn = 1
            ORDER BY vec_id
        """,
        "pca_project": """
            WITH e AS (
              SELECT vec_id,
                     unnest(CAST(embedding AS DOUBLE[])) AS v,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings
            )
            SELECT e.vec_id,
                   ROUND(SUM((e.v - m.mean) * m.c1), 6) + 0.0 AS pc1,
                   ROUND(SUM((e.v - m.mean) * m.c2), 6) + 0.0 AS pc2,
                   ROUND(SUM((e.v - m.mean) * m.c3), 6) + 0.0 AS pc3,
                   ROUND(SUM((e.v - m.mean) * m.c4), 6) + 0.0 AS pc4
            FROM e
            JOIN read_parquet('/tmp/graft_pca_oracle/components.parquet') m
              USING (dim)
            GROUP BY e.vec_id ORDER BY e.vec_id
        """,
        "char_entropy": """
            WITH cp AS (
              SELECT doc_id,
                     unnest(list_transform(string_split(text, ''),
                                           c -> unicode(c))) AS u
              FROM documents WHERE len(text) > 0
            ), cnt AS (
              SELECT doc_id, u, COUNT(*) AS c FROM cp GROUP BY doc_id, u
            ), tot AS (
              SELECT doc_id, SUM(c) AS big_l, COUNT(*) AS n_distinct
              FROM cnt GROUP BY doc_id
            ), ent AS (
              SELECT c.doc_id, t.n_distinct,
                     ROUND(-SUM((c.c / t.big_l) * log2(c.c / t.big_l)), 6)
                         + 0.0 AS entropy_bits
              FROM cnt c JOIN tot t USING (doc_id)
              GROUP BY c.doc_id, t.n_distinct
            )
            SELECT d.doc_id,
                   COALESCE(e.n_distinct, 0) AS n_distinct,
                   COALESCE(e.entropy_bits, 0.0) AS entropy_bits
            FROM documents d LEFT JOIN ent e USING (doc_id)
            ORDER BY d.doc_id
        """,
        "event_gaps": """
            WITH d AS (
                SELECT user_id, epoch(ts) AS t,
                       epoch(ts) - lag(epoch(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts) AS gap
                FROM events
            )
            SELECT user_id, COUNT(*) AS n_events, COUNT(gap) AS n_gaps,
                   round(AVG(gap), 6) AS avg_gap_s,
                   round(MAX(gap), 6) AS max_gap_s
            FROM d GROUP BY user_id ORDER BY user_id
        """,
        "sessions": """
            WITH d AS (
                SELECT user_id, epoch(ts) AS t,
                       CASE WHEN epoch(ts) - lag(epoch(ts)) OVER w > 1800.0
                            OR lag(epoch(ts)) OVER w IS NULL
                            THEN 1 ELSE 0 END AS new_sess
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), s AS (
                SELECT user_id, t,
                       sum(new_sess) OVER (PARTITION BY user_id ORDER BY t) AS sid
                FROM d
            )
            SELECT user_id, count(*) AS n_events,
                   round(min(t), 6) AS start, round(max(t), 6) AS "end"
            FROM s GROUP BY user_id, sid ORDER BY user_id, start
        """,
        "knn_brute": """
            WITH q AS (
                SELECT CAST(embedding AS DOUBLE[]) AS qe
                FROM embeddings WHERE vec_id = 0
            ),
            scored AS (
                SELECT e.vec_id,
                       round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe), 5) AS score
                FROM embeddings e CROSS JOIN q
            ),
            ranked AS (
                SELECT row_number() OVER (ORDER BY score DESC, vec_id ASC) AS rank,
                       vec_id, score
                FROM scored
            )
            SELECT rank, vec_id, score FROM ranked WHERE rank <= 10 ORDER BY rank
        """,
    }
