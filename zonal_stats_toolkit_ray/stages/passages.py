"""Corpus-internal exact duplicate-passage detection.

The word-window flavor of exact-substring dedup (Lee et al. 2021,
"Deduplicating Training Data Makes Language Models Better"): find every
8-word window that occurs verbatim in ≥ 2 distinct documents and report,
per document, how many of its distinct windows are shared.  Downstream
curation either drops the flagged spans or weights the docs; the
detection pass here is the distributed part.

Shape (slim end to end — window HASHES move, text never does):

1. ``word_ngram_hashes`` (shared with decontaminate / ngram dedup) per
   batch → per-doc distinct ``(h, doc_id)`` pairs, hashes bit-reinterpreted
   int64 for multi-shuffle transport (sandbox lesson: uint64 ≥ 2^63 keys
   become pickled-object blocks after a sort-aggregate);
2. one hash aggregate counts docs per window (in-batch distinct makes the
   per-batch pairs globally unique — a doc never spans batches);
3. windows with ≥ 2 docs feed back as a semi-join: broadcast ``pc.is_in``
   within ``guard.DRIVER_ROWS`` shared hashes, native hash join above;
4. a final slim aggregate counts shared windows per doc.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard

_PAIR_SCHEMA = pa.schema([("h", pa.int64()), ("doc_id", pa.int64())])


def passage_pairs_batch(
    batch: pa.Table, *, text_col: str = "text", id_col: str = "doc_id", n: int = 8
) -> pa.Table:
    """documents → distinct (window-hash, doc_id) pairs for this batch."""
    from .split import word_ngram_hashes

    h, d = word_ngram_hashes(batch[text_col], n)
    if h.size == 0:
        return _PAIR_SCHEMA.empty_table()
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    t = pa.table(
        {"h": pa.array(h.view(np.int64), pa.int64()),
         "doc_id": pa.array(ids[d], pa.int64())}
    )
    return t.group_by(["h", "doc_id"]).aggregate([]).cast(_PAIR_SCHEMA)


def common_passages(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 8,
) -> pd.DataFrame:
    """→ DataFrame(doc_id, n_shared): per document, the number of its
    distinct word ``n``-grams that appear verbatim in at least one OTHER
    document.  Docs with no shared window are omitted (match the SQL
    oracle's inner join).

    ``guard.DRIVER_ROWS`` picks the shared-window feedback regime:
    ``ray.put`` + per-batch ``pc.is_in`` when the shared set fits, native
    hash join on the slim (h) table above it (regime equality tested)."""
    from ray.data.aggregate import Count

    pairs = ds.map_batches(
        passage_pairs_batch,
        batch_format="pyarrow",
        fn_kwargs={"text_col": text_col, "id_col": id_col, "n": n},
    ).materialize()

    agg = (
        pairs.repartition(guard.shuffle_partitions())
        .groupby("h")
        .aggregate(Count(alias_name="cnt"))
        .filter(expr="cnt >= 2")
        .select_columns(["h"])
        .materialize()
    )
    n_shared_windows = agg.count()
    if n_shared_windows == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "n_shared": pd.Series(dtype="int64"),
            }
        )
    if n_shared_windows <= guard.DRIVER_ROWS:
        from .joins import semi_join

        keys = agg.to_pandas()["h"].to_numpy()
        hits = semi_join(pairs, keys, "h")
    else:
        hits = pairs.join(
            agg, join_type="inner", num_partitions=guard.shuffle_partitions(),
            on=("h",),
        ).materialize()

    out = (
        hits.groupby("doc_id")
        .aggregate(Count(alias_name="n_shared"))
        .to_pandas()
    )
    out["n_shared"] = out["n_shared"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)
