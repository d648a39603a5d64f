"""Collocation mining: pointwise mutual information over adjacent word
bigrams of the corpus.

The phrase-detection pass of a training-data pipeline (word2vec-style
phrase joining, vocabulary curation): count unigrams and within-document
adjacent bigrams corpus-wide, score each frequent bigram with
``PMI = log2( P(a,b) / (P(a)·P(b)) )`` and keep the global top-n.

Shape (all slim, one shuffle):

1. one ``map_batches`` pass emits TAGGED count partials — ``(kind, a, b,
   n)`` rows where kind 0 = unigram (b = ""), kind 1 = bigram — both
   computed with Arrow kernels off the same tokenization as
   ``doc_frequency`` (lower → regex split → drop empties; a document
   never spans batches, so in-batch ``group_by`` partials sum
   associatively);
2. partials coalesce (sandbox lesson #22: keep aggregate partitions ≪
   distinct keys) and one hash aggregate merges them — shuffled rows =
   distinct (kind, a, b) per block, never token instances;
3. bigrams are pruned to ``n_ab ≥ min_count`` FIRST (the mass of the
   bigram table dies here), then scored against the unigram counts:
   broadcast lookup when the vocabulary fits (``ray.put`` once, searchsorted
   per batch), hash-join twice above ``guard.DRIVER_ROWS`` entries — the
   same dual regime as ``tfidf_top_terms``;
4. per-batch local top-n → blocks×n driver merge (n is user-small).

Ordering contract (matches the SQL oracle): score rounded to 6 dp, then
(pmi DESC, a ASC, b ASC) — rounding first makes the top-n cut
deterministic on both sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard

_PARTIAL_SCHEMA = pa.schema(
    [
        ("kind", pa.int8()),
        ("a", pa.string()),
        ("b", pa.string()),
        ("n", pa.int64()),
    ]
)


def bigram_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """documents → tagged (kind, a, b, n) count partials for this batch."""
    t = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
    toks = pc.split_pattern_regex(t, r"\s+")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    doc_ids = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
    nonempty = pc.not_equal(flat, "")
    flat = flat.filter(nonempty)
    doc_ids = doc_ids[nonempty.to_numpy(zero_copy_only=False)]
    if len(flat) == 0:
        return _PARTIAL_SCHEMA.empty_table()
    uni = (
        pa.table({"a": flat})
        .group_by("a")
        .aggregate([("a", "count")])
    )
    parts = [
        pa.table(
            {
                "kind": pa.array(np.zeros(len(uni), np.int8), pa.int8()),
                "a": uni["a"],
                "b": pa.array([""] * len(uni), pa.string()),
                "n": pc.cast(uni["a_count"], pa.int64()),
            },
            schema=_PARTIAL_SCHEMA,
        )
    ]
    adj = np.flatnonzero(doc_ids[1:] == doc_ids[:-1])
    if adj.size:
        idx = pa.array(adj)
        big = (
            pa.table(
                {"a": flat.take(idx), "b": flat.take(pa.array(adj + 1))}
            )
            .group_by(["a", "b"])
            .aggregate([("a", "count")])
        )
        parts.append(
            pa.table(
                {
                    "kind": pa.array(np.ones(len(big), np.int8), pa.int8()),
                    "a": big["a"],
                    "b": big["b"],
                    "n": pc.cast(big["a_count"], pa.int64()),
                },
                schema=_PARTIAL_SCHEMA,
            )
        )
    return pa.concat_tables(parts)


def bigram_pmi(
    ds,
    *,
    text_col: str = "text",
    min_count: int = 5,
    top_n: int = 20,
) -> pd.DataFrame:
    """→ DataFrame(a, b, n_ab, pmi): the corpus's ``top_n`` adjacent-word
    bigrams by PMI among those with count ≥ ``min_count``.

    PMI is computed in float64 with the exact operand order of the SQL
    oracle — ``(n_ab · N_u · N_u) / (N_b · c_a · c_b)`` — then rounded to
    6 dp BEFORE the (pmi DESC, a, b) ordering, so the top-n boundary is
    identical on both sides.
    """
    import ray
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        bigram_count_batch, batch_format="pyarrow", fn_kwargs={"text_col": text_col}
    ).repartition(guard.shuffle_partitions())
    agg = partials.groupby(["kind", "a", "b"]).aggregate(
        Sum("n", alias_name="n")
    ).materialize()
    if agg.count() == 0:
        return pd.DataFrame(
            {"a": [], "b": [], "n_ab": pd.Series([], dtype="int64"), "pmi": []}
        )

    # totals: one tiny per-kind aggregate
    tot = (
        agg.map_batches(
            lambda t: pa.table(
                {
                    "kind": t["kind"],
                    "n": t["n"],
                }
            ).group_by("kind").aggregate([("n", "sum")]),
            batch_format="pyarrow",
        )
        .to_pandas()
        .groupby("kind")["n_sum"]
        .sum()
    )
    n_uni = float(tot.get(0, 0))
    n_big = float(tot.get(1, 0))
    if n_big == 0:
        return pd.DataFrame(
            {"a": [], "b": [], "n_ab": pd.Series([], dtype="int64"), "pmi": []}
        )

    uni = agg.filter(expr="kind == 0").select_columns(["a", "n"]).materialize()
    big = agg.filter(expr=f"kind == 1 and n >= {int(min_count)}").materialize()

    n_vocab = uni.count()
    if n_vocab <= guard.DRIVER_ROWS:
        udf = uni.to_pandas()
        order = np.argsort(udf["a"].to_numpy())
        vocab_sorted = udf["a"].to_numpy()[order]
        counts_sorted = udf["n"].to_numpy()[order].astype(np.float64)
        ref = ray.put((vocab_sorted, counts_sorted))

        def score(t: pa.Table, *, _ref=ref) -> pa.Table:
            vs, cs = ray.get(_ref)
            if len(t) == 0:
                return pa.table(
                    {
                        "a": pa.array([], pa.string()),
                        "b": pa.array([], pa.string()),
                        "n_ab": pa.array([], pa.int64()),
                        "pmi": pa.array([], pa.float64()),
                    }
                )
            a = t["a"].to_numpy(zero_copy_only=False)
            b = t["b"].to_numpy(zero_copy_only=False)
            n_ab = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
            ca = cs[np.searchsorted(vs, a)]
            cb = cs[np.searchsorted(vs, b)]
            pmi = np.log2((n_ab * n_uni * n_uni) / (n_big * ca * cb))
            return pa.table(
                {
                    "a": t["a"],
                    "b": t["b"],
                    "n_ab": pc.cast(t["n"], pa.int64()),
                    "pmi": pa.array(np.round(pmi, 6), pa.float64()),
                }
            )

        scored = big.map_batches(score, batch_format="pyarrow")
    else:
        # join regime: frequent-bigram table ⋈ unigram counts on each side
        # (two slim joins over pruned rows; see stages/joins.py notes on
        # materializing between chained native joins)
        ua = uni.map_batches(
            lambda t: t.rename_columns(["a", "ca"]), batch_format="pyarrow"
        )
        ub = uni.map_batches(
            lambda t: t.rename_columns(["b", "cb"]), batch_format="pyarrow"
        )
        npart = guard.shuffle_partitions()
        j1 = big.select_columns(["a", "b", "n"]).join(
            ua, join_type="inner", num_partitions=npart, on=("a",)
        ).materialize()
        j2 = j1.join(
            ub, join_type="inner", num_partitions=npart, on=("b",)
        ).materialize()

        def score_j(t: pa.Table) -> pa.Table:
            n_ab = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
            ca = t["ca"].to_numpy(zero_copy_only=False).astype(np.float64)
            cb = t["cb"].to_numpy(zero_copy_only=False).astype(np.float64)
            pmi = np.log2((n_ab * n_uni * n_uni) / (n_big * ca * cb))
            return pa.table(
                {
                    "a": t["a"],
                    "b": t["b"],
                    "n_ab": pc.cast(t["n"], pa.int64()),
                    "pmi": pa.array(np.round(pmi, 6), pa.float64()),
                }
            )

        scored = j2.map_batches(score_j, batch_format="pyarrow")

    def local_top(t: pa.Table) -> pa.Table:
        if len(t) <= top_n:
            return t
        df = t.to_pandas()
        df = df.sort_values(
            ["pmi", "a", "b"], ascending=[False, True, True], kind="stable"
        ).head(top_n)
        return pa.Table.from_pandas(df, preserve_index=False)

    merged = scored.map_batches(local_top, batch_format="pyarrow").to_pandas()
    out = merged.sort_values(
        ["pmi", "a", "b"], ascending=[False, True, True], kind="stable"
    ).head(top_n)
    out["n_ab"] = out["n_ab"].astype("int64")
    return out.reset_index(drop=True)
