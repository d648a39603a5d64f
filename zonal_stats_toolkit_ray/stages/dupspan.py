"""Duplicated n-gram span coverage — the exact-substring dedup signal of
"Deduplicating Training Data Makes Language Models Better" (Lee et al.
2022): for every document, the fraction of its token positions covered by
a word n-gram that also appears in at least ``min_docs − 1`` OTHER
documents.  Corpora use it to drop or trim documents dominated by
boilerplate shared across pages.

Distributed shape (streams end-to-end, no corpus-sized driver state):

1. ONE pass over the text emits positional gram rows ``(doc_id, pos,
   gram)`` plus one ``pos = 0`` header row per doc carrying its token
   count (single-pass: the header rides the same table, so the text is
   never re-read).  Grams are the ' '-joined lowered whitespace tokens —
   STRING grams, so the SQL twin is the same expression (the simjoin
   lesson).
2. Gram document frequency: a doc's rows live in one batch, so an
   in-batch ``group_by(gram)`` over its distinct (doc, gram) pairs is a
   correct df partial; one hash aggregate sums them (gram-vocabulary
   rows, never gram instances).  Grams with df ≥ ``min_docs`` are the
   duplicated set.
3. Dual regime: the dup-gram set broadcasts (ray.put + ``is_in``) within
   ``guard.DRIVER_ROWS`` grams; above it, the dual-regime native hash
   join on the gram string keeps everything distributed (exact — no
   sketch false positives on the dedup signal).
4. Duplicated positions become closed intervals [pos, pos + n] and
   :func:`interval_union`'s island stitch merges overlapping/touching
   spans per doc; covered tokens = Σ island lengths.
5. A dual-regime left join attaches covered counts to the per-doc
   headers; coverage = covered / n_tokens (0 when no duplicated span or
   the doc has < n tokens).

Reference parity: none in runner.py — LLM-pipeline surface (SURVEY §2
graft extensions).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.metrics import note
from . import guard

_GRAM_SEP = " "  # tokens contain no whitespace, so space-join is collision-free


def positional_gram_rows(
    batch: pa.Table,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
) -> pa.Table:
    """documents → (doc_id, pos, g): one row per n-gram START position
    (1-based over the doc's non-empty lowered whitespace tokens), plus a
    ``pos = 0`` header row per doc with ``g = ''`` and the doc's token
    count in ``ntok``.  Fully vectorized (Arrow split → shifted-slice
    binary_join — the simjoin kernel with positions added)."""
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
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ntok = np.bincount(doc_of, minlength=counts.size).astype(np.int64)
    header = pa.table(
        {
            id_col: pa.array(ids, pa.int64()),
            "pos": pa.array(np.zeros(ids.size, dtype=np.int64)),
            "g": pa.array([""] * ids.size, pa.string()),
            "ntok": pa.array(ntok, pa.int64()),
        }
    )
    m = len(flat)
    if m < n:
        return header
    # position of each token within its doc (0-based): arange − run start
    starts = np.flatnonzero(np.r_[True, doc_of[1:] != doc_of[:-1]])
    seg = np.cumsum(np.r_[True, doc_of[1:] != doc_of[:-1]]) - 1
    tok_pos = np.arange(doc_of.size, dtype=np.int64) - starts[seg]
    parts = [flat.slice(j, m - n + 1) for j in range(n)]
    grams = pc.binary_join_element_wise(*parts, _GRAM_SEP)
    ok = doc_of[: m - n + 1] == doc_of[n - 1 :]
    grams = grams.filter(pa.array(ok))
    gdoc = doc_of[: m - n + 1][ok]
    gpos = tok_pos[: m - n + 1][ok] + 1  # 1-based, SQL generate_series parity
    if len(grams) == 0:
        return header
    rows = pa.table(
        {
            id_col: pa.array(ids[gdoc], pa.int64()),
            "pos": pa.array(gpos, pa.int64()),
            "g": grams,
            "ntok": pa.array(np.zeros(len(grams), dtype=np.int64)),
        }
    )
    return pa.concat_tables([header, rows]).combine_chunks()


def dup_span_coverage(
    docs,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
    min_docs: int = 2,
) -> pd.DataFrame:
    """→ DataFrame(doc_id, n_tokens, covered, coverage) per the module
    docstring, sorted by doc_id.  ``coverage`` is rounded to 6 dp."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .intervals import interval_union
    from .joins import hash_join

    rows = docs.map_batches(
        positional_gram_rows,
        batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "text_col": text_col, "n": n},
    ).materialize()  # read the text exactly once; headers + grams reused below

    headers = rows.map_batches(
        lambda t: t.filter(pc.equal(t["pos"], 0)).select([id_col, "ntok"]),
        batch_format="pyarrow",
    )
    # batch_size=None: batch == block.  A doc's gram rows are contiguous
    # within one block (one input batch → one output table), and the df
    # partial below is only correct if every (doc, gram) pair is seen by
    # exactly one batch — a doc split across batches would double-count.
    g_rows = rows.map_batches(
        lambda t: t.filter(pc.greater(t["pos"], 0)).select([id_col, "pos", "g"]),
        batch_format="pyarrow",
        batch_size=None,
    )

    # gram df: a doc's rows never span batches, so in-batch distinct
    # (doc, gram) → per-gram count is a correct df partial
    def df_partial(t: pa.Table) -> pa.Table:
        d = t.select([id_col, "g"]).group_by([id_col, "g"]).aggregate([])
        g = d.group_by("g").aggregate([([id_col], "count")])
        return pa.table(
            {"g": g["g"], "df": pc.cast(g[f"{id_col}_count"], pa.int64())}
        )

    dup = (
        g_rows.map_batches(df_partial, batch_format="pyarrow", batch_size=None)
        .repartition(guard.shuffle_partitions())
        .groupby("g")
        .aggregate(Sum("df", alias_name="df"))
        .map_batches(
            lambda t: (
                t.filter(pc.greater_equal(t["df"], min_docs)).select(["g"])
                if "g" in t.column_names
                else pa.table({"g": pa.array([], pa.string())})
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_dup = dup.count()
    if n_dup <= guard.DRIVER_ROWS:
        regime = "broadcast"
        dup_set = (
            dup.to_pandas()["g"].to_numpy() if n_dup else np.array([], dtype=object)
        )
        ref = ray.put(pa.array(dup_set, pa.string()))

        def keep_dup(t: pa.Table, *, _ref=ref) -> pa.Table:
            mask = pc.is_in(t["g"], value_set=ray.get(_ref))
            return t.filter(mask).select([id_col, "pos"])

        dup_pos = g_rows.map_batches(keep_dup, batch_format="pyarrow")
    else:
        # string grams can't ride bloom_semi_join's int64 bit-array; the
        # exact scale path is the dual-regime hash join on the gram
        # (hash-partitioned both sides — dup is vocabulary-sized)
        regime = "hash_join"
        dup_pos = hash_join(
            g_rows, dup, on="g", how="inner", broadcast=False
        ).select_columns([id_col, "pos"])

    def to_iv(t: pa.Table) -> pa.Table:
        if "pos" not in t.column_names:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "start": pa.array([], pa.float64()),
                    "end": pa.array([], pa.float64()),
                }
            )
        p = t["pos"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                id_col: t[id_col],
                "start": pa.array(p, pa.float64()),
                "end": pa.array(p + float(n), pa.float64()),
            }
        )

    islands = interval_union(
        dup_pos.map_batches(to_iv, batch_format="pyarrow"),
        key_col=id_col,
        start_col="start",
        end_col="end",
    )

    def island_len(t: pa.Table) -> pa.Table:
        if "start" not in t.column_names:
            return pa.table(
                {id_col: pa.array([], pa.int64()), "covered": pa.array([], pa.int64())}
            )
        s = t["start"].to_numpy(zero_copy_only=False)
        e = t["end"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: t[id_col],
                "covered": pa.array(np.rint(e - s).astype(np.int64), pa.int64()),
            }
        )

    def norm_cov(t: pa.Table) -> pa.Table:
        # the sort-aggregate emits SCHEMALESS blocks when its input is
        # empty (no duplicated gram anywhere) — normalize so the join's
        # acero kernel always sees (doc_id, covered) [sandbox lesson #22]
        if id_col not in t.column_names:
            return pa.table(
                {id_col: pa.array([], pa.int64()), "covered": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                id_col: pc.cast(t[id_col], pa.int64()),
                "covered": pc.cast(t["covered"], pa.int64()),
            }
        )

    covered = (
        islands.map_batches(island_len, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("covered", alias_name="covered"))
        .map_batches(norm_cov, batch_format="pyarrow")
    )
    # attach to headers: covered is ≤ docs-sized; headers is docs-sized —
    # the dual-regime hash_join handles both scales (left outer).  A
    # zero-row right side has no blocks for the native join to resolve
    # the key field from, so short-circuit it (count is cheap: covered is
    # already post-aggregate).
    covered = covered.materialize()
    if covered.count() == 0:
        joined = headers.to_pandas()
        joined["covered"] = np.int64(0)
    else:
        joined = hash_join(headers, covered, on=id_col, how="left").to_pandas()
    note("dupspan.dup_span_coverage", dup_grams=int(n_dup), regime=regime)
    if len(joined.columns) == 0:  # zero-doc input
        return pd.DataFrame({id_col: [], "n_tokens": [], "covered": [], "coverage": []})
    joined["covered"] = joined["covered"].fillna(0).astype(np.int64)
    nt = joined["ntok"].to_numpy().astype(np.int64)
    cov = joined["covered"].to_numpy()
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(nt > 0, cov / np.maximum(nt, 1), 0.0)
    out = pd.DataFrame(
        {
            id_col: joined[id_col].astype(np.int64),
            "n_tokens": nt,
            "covered": cov,
            "coverage": np.round(frac, 6),
        }
    )
    return out.sort_values(id_col).reset_index(drop=True)
