"""Exact set-similarity join between two document datasets — the
cross-corpus fuzzy matcher (benchmark decontamination against a training
corpus, re-crawl reconciliation, near-dup audit across snapshots).

Semantics: word n-gram Jaccard over DISTINCT gram sets; emit every cross
pair (a, b) with J(a, b) ≥ threshold, exactly.  Docs with fewer than
``n`` tokens have no grams and never pair.

Algebra (the inverted-index / PPJoin-without-prefix shape): one shared
gram ⇒ one candidate row, so ``COUNT(*) GROUP BY (a, b)`` over the gram
join IS the intersection size — no per-pair re-tokenization, no verify
pass.  Set sizes ride along each gram row; Jaccard = inter / (|A| + |B|
− inter) computes from three integers, bit-identical to the SQL oracle's
division.

Grams are the token STRINGS joined with ``\\x1f`` (not 64-bit hashes):
byte-identical to what SQL can build with ``list_transform``, so the
oracle needs no hash reimplementation and collisions cannot skew counts.

Scale: the gram join explodes on ultra-common grams (a gram shared by
10⁴ docs per side contributes 10⁸ pair rows).  ``gram_df_cap`` drops
grams whose GLOBAL document frequency exceeds the cap (one extra slim
aggregate + broadcast stop-gram set) — the standard stopword-gram
mitigation; it can only LOWER recall for pairs whose entire overlap is
ultra-common grams, and is off by default (exact).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard

_SEP = "\x1f"


def doc_gram_rows(
    batch: pa.Table,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    size_col: str = "nset",
) -> pa.Table:
    """documents → one row per DISTINCT (doc, gram): (id, g, nset) where
    nset is the doc's distinct-gram-set size (repeated per row so the
    downstream pair aggregate needs no second lookup).  Vectorized:
    Arrow split → shifted-slice ``binary_join_element_wise`` → arrow
    group_by distinct."""
    t = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
    toks = pc.split_pattern_regex(t, r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    doc_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(ne))
    doc_of = doc_of[ne]
    m = len(flat)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "g": pa.array([], pa.string()),
            size_col: pa.array([], pa.int64()),
        }
    )
    if m < n:
        return empty
    parts = [flat.slice(j, m - n + 1) for j in range(n)]
    grams = pc.binary_join_element_wise(*parts, _SEP)
    ok = doc_of[: m - n + 1] == doc_of[n - 1 :]
    grams = grams.filter(pa.array(ok))
    gdoc = doc_of[: m - n + 1][ok]
    if len(grams) == 0:
        return empty
    distinct = (
        pa.table({"d": pa.array(gdoc), "g": grams})
        .group_by(["d", "g"])
        .aggregate([])
    )
    d = distinct["d"].to_numpy(zero_copy_only=False)
    sizes = np.bincount(d, minlength=counts.size)
    return pa.table(
        {
            id_col: pa.array(ids[d]),
            "g": distinct["g"],
            size_col: pa.array(sizes[d].astype(np.int64)),
        }
    )


def similarity_join(
    ds_a,
    ds_b,
    *,
    threshold: float,
    n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    gram_df_cap: int | None = None,
) -> pd.DataFrame:
    """→ DataFrame(a_id, b_id, inter, na, nb, jaccard) for every cross
    pair with word-``n``-gram Jaccard ≥ ``threshold`` (6-dp rounded
    jaccard; the filter uses the unrounded exact division).

    The output is result-sized (pairs above threshold), collected to the
    driver — similarity joins are reporting/filter-list operators; keep
    the Dataset form by stopping before ``to_pandas`` if a downstream
    stage consumes it."""
    from ray.data.aggregate import Count, Max

    def rows_a(b: pa.Table) -> pa.Table:
        t = doc_gram_rows(b, id_col=id_col, text_col=text_col, n=n, size_col="na")
        return t.rename_columns(["a_id", "g", "na"])

    def rows_b(b: pa.Table) -> pa.Table:
        t = doc_gram_rows(b, id_col=id_col, text_col=text_col, n=n, size_col="nb")
        return t.rename_columns(["b_id", "g", "nb"])

    ga = ds_a.map_batches(rows_a, batch_format="pyarrow")
    gb = ds_b.map_batches(rows_b, batch_format="pyarrow")

    if gram_df_cap is not None:
        import ray
        from ray.data.aggregate import Sum

        def df_partial(t: pa.Table, col: str) -> pa.Table:
            g = t.group_by("g").aggregate([(col, "count")])
            return pa.table(
                {"g": g["g"], "c": pc.cast(g[f"{col}_count"], pa.int64())}
            )

        both = ga.map_batches(
            lambda t: df_partial(t, "a_id"), batch_format="pyarrow"
        ).union(gb.map_batches(lambda t: df_partial(t, "b_id"), batch_format="pyarrow"))
        hot = (
            both.repartition(guard.shuffle_partitions())
            .groupby("g")
            .aggregate(Sum("c", alias_name="df"))
            .filter(lambda r: r["df"] > gram_df_cap)
            .to_pandas()
        )
        stop = set(hot["g"].tolist())
        stop_ref = ray.put(stop) if ray.is_initialized() else stop

        def drop_hot(t: pa.Table, *, _r=stop_ref) -> pa.Table:
            s = ray.get(_r) if ray.is_initialized() else _r
            if not s:
                return t
            mask = ~np.isin(
                np.asarray(t["g"].to_pandas(), dtype=object), list(s)
            )
            return t.filter(pa.array(mask))

        ga = ga.map_batches(drop_hot, batch_format="pyarrow")
        gb = gb.map_batches(drop_hot, batch_format="pyarrow")

    from .joins import hash_join

    cand = hash_join(ga, gb, on="g", how="inner")

    def score_filter(t: pa.Table) -> pa.Table:
        """Jaccard + threshold filter per aggregated block — only
        above-threshold pairs (the result) ever reach the driver."""
        empty = pa.table(
            {
                "a_id": pa.array([], pa.int64()),
                "b_id": pa.array([], pa.int64()),
                "inter": pa.array([], pa.int64()),
                "na": pa.array([], pa.int64()),
                "nb": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
        if "a_id" not in t.column_names or len(t) == 0:
            return empty
        inter = t["inter"].to_numpy(zero_copy_only=False).astype(np.int64)
        na = t["na"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = t["nb"].to_numpy(zero_copy_only=False).astype(np.int64)
        j = inter / (na + nb - inter)
        keep = j >= threshold
        return pa.table(
            {
                "a_id": pc.cast(pa.array(
                    t["a_id"].to_numpy(zero_copy_only=False)[keep]
                ), pa.int64()),
                "b_id": pc.cast(pa.array(
                    t["b_id"].to_numpy(zero_copy_only=False)[keep]
                ), pa.int64()),
                "inter": pa.array(inter[keep]),
                "na": pa.array(na[keep]),
                "nb": pa.array(nb[keep]),
                "jaccard": pa.array(np.round(j[keep], 6) + 0.0),
            }
        )

    out = (
        cand.groupby(["a_id", "b_id"])
        .aggregate(
            Count(alias_name="inter"),
            Max("na", alias_name="na"),
            Max("nb", alias_name="nb"),
        )
        .map_batches(score_filter, batch_format="pyarrow")
        .to_pandas()
    )
    if len(out.columns) == 0:  # zero-block dataset (no shared gram at all)
        out = pd.DataFrame(
            {
                "a_id": pd.Series(dtype="int64"),
                "b_id": pd.Series(dtype="int64"),
                "inter": pd.Series(dtype="int64"),
                "na": pd.Series(dtype="int64"),
                "nb": pd.Series(dtype="int64"),
                "jaccard": pd.Series(dtype="float64"),
            }
        )
    return out.sort_values(["a_id", "b_id"]).reset_index(drop=True)
