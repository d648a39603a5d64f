"""Disk-partitioned inverted index over the document corpus — round 4.

The text-search analogue of the partitioned IVF layout
(``stages/knn.py:ivf_write_partitioned``): postings (token, doc_id) are
hive-partitioned on disk by a hash bucket of the token, so a lookup reads
ONLY the buckets its query tokens hash to — a buckets-touched/num_buckets
fraction of the index leaves storage, no full scan per query.  This is the
100-TB shape for "which documents contain these tokens" (benchmark-overlap
audits, targeted corpus slicing, lightweight boolean search).

Tokenization is the shared corpus rule (``text.doc_frequency_batch``:
lower → ``\\s+`` split → drop empties), so index postings agree with the
DF/TF-IDF operators and with the SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.metrics import note
from .geocode import hash64_utf8


def token_bucket(tokens: pa.Array | pa.ChunkedArray, num_buckets: int) -> np.ndarray:
    """Stable token → bucket id (uint64 utf8 hash mod num_buckets) — the
    partitioning function shared by build and lookup."""
    return (hash64_utf8(tokens) % np.uint64(num_buckets)).astype(np.int32)


def postings_batch(
    batch: pa.Table,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 64,
) -> pa.Table:
    """documents → distinct (bucket, token, doc_id) posting rows."""
    t = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
    toks = pc.split_pattern_regex(t, r"\s+")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    idx = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
    nonempty = pc.not_equal(flat, "")
    flat = flat.filter(nonempty)
    idx = idx[nonempty.to_numpy(zero_copy_only=False)]
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)[idx]
    pairs = pa.table({"token": flat, "doc_id": pa.array(ids)})
    distinct = pairs.group_by(["token", "doc_id"]).aggregate([])
    tok = distinct["token"]
    if isinstance(tok, pa.ChunkedArray):
        tok = tok.combine_chunks()
    return pa.table(
        {
            "bucket": pa.array(token_bucket(tok, num_buckets), pa.int32()),
            "token": tok,
            "doc_id": distinct["doc_id"],
        }
    )


def inverted_index_write(
    ds,
    index_dir: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 64,
) -> None:
    """Build the hive-partitioned inverted index: one ``bucket=N``
    directory per token-hash bucket.  CLEAN REBUILD (same rationale as the
    IVF builder: appending into a failed build's survivors would duplicate
    postings).  ``num_buckets`` bounds lookup read amplification
    (1/num_buckets of the index per query token) and should scale with
    corpus size; each bucket directory holds one file per producing block,
    so the build streams and a failed build is re-runnable."""
    import json
    import os
    import shutil

    if os.path.isdir(index_dir):
        for name in os.listdir(index_dir):
            if name.startswith("bucket="):
                shutil.rmtree(os.path.join(index_dir, name))
    postings = ds.map_batches(
        postings_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(id_col=id_col, text_col=text_col, num_buckets=num_buckets),
    )
    postings.write_parquet(index_dir, partition_cols=["bucket"])
    with open(os.path.join(index_dir, "_meta.json"), "w") as f:
        json.dump({"num_buckets": num_buckets}, f)


def token_lookup(
    index_dir: str,
    tokens: list[str],
    *,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """(token, doc_id) postings for the query tokens, token/doc ascending.
    Reads ONLY the buckets the query tokens hash to (pruning at the read —
    noted as ``invindex.token_lookup``: ``buckets_probed`` / ``dirs_total``
    / ``files_read``, asserted in tests).  ``num_buckets`` defaults
    to the index's recorded ``_meta.json`` (build/lookup must agree)."""
    import json
    import os

    import ray.data as rd

    if num_buckets is None:
        with open(os.path.join(index_dir, "_meta.json")) as f:
            num_buckets = int(json.load(f)["num_buckets"])
    toks = sorted(set(tokens))
    if not toks:
        return pd.DataFrame({"token": pd.Series(dtype=object),
                             "doc_id": pd.Series(dtype=np.int64)})
    buckets = np.unique(token_bucket(pa.array(toks, pa.string()), num_buckets))
    # expand partition dirs to member files: read_parquet treats a path
    # LIST as files (sandbox lesson, ROUND3_NOTES)
    paths = [
        os.path.join(d, f)
        for b in buckets.tolist()
        if os.path.isdir(d := os.path.join(index_dir, f"bucket={b}"))
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    note(
        "invindex.token_lookup",
        buckets_probed=int(buckets.size),
        dirs_total=sum(d.startswith("bucket=") for d in os.listdir(index_dir)),
        files_read=len(paths),
    )
    if not paths:
        return pd.DataFrame({"token": pd.Series(dtype=object),
                             "doc_id": pd.Series(dtype=np.int64)})
    ds = rd.read_parquet(paths, columns=["token", "doc_id"])
    tok_ref = pa.array(toks, pa.string())
    out = ds.map_batches(
        lambda b, _t=tok_ref: b.filter(pc.is_in(b["token"], _t)),
        batch_format="pyarrow",
    ).to_pandas()  # query-token-sized result, not bucket-sized
    if out.empty:  # all-empty blocks can surface a column-less frame
        return pd.DataFrame({"token": pd.Series(dtype=object),
                             "doc_id": pd.Series(dtype=np.int64)})
    return out.sort_values(["token", "doc_id"], kind="stable").reset_index(drop=True)


def phrase_search(
    ds,
    phrase: str,
    *,
    index_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    build: bool = True,
    num_buckets: int = 16,
) -> pd.DataFrame:
    """Exact multi-token phrase search → DataFrame(doc_id) of documents
    whose whitespace-normalized lowered token stream contains ``phrase``
    as a CONSECUTIVE token run.

    Two-stage (the classic inverted-index phrase plan): candidate docs
    must contain ALL the phrase's distinct tokens — an AND over pruned
    posting-bucket reads (:func:`token_lookup`; only the probed buckets
    leave disk) — then a vectorized verify re-reads ONLY the candidate
    docs' text and substring-matches the space-joined normalized stream
    (`` phrase ``-in-`` s `` ≡ consecutive-token containment, since
    tokens contain no whitespace)."""
    import ray

    if build:
        inverted_index_write(
            ds, index_dir, id_col=id_col, text_col=text_col, num_buckets=num_buckets
        )
    toks = sorted({t for t in phrase.lower().split() if t})
    post = token_lookup(index_dir, toks)
    if post.empty:
        return pd.DataFrame({id_col: pd.Series(dtype=np.int64)})
    hits = post.groupby(id_col)["token"].nunique()
    cand = hits.index[hits == len(toks)].to_numpy().astype(np.int64)
    if cand.size == 0:
        return pd.DataFrame({id_col: pd.Series(dtype=np.int64)})
    cref = ray.put(pa.array(np.sort(cand), pa.int64()))
    needle = " " + " ".join(phrase.lower().split()) + " "

    def verify(b: pa.Table, *, _c=cref) -> pa.Table:
        keep = pc.is_in(pc.cast(b[id_col], pa.int64()), value_set=ray.get(_c))
        b = b.filter(keep)
        if len(b) == 0:
            return pa.table({id_col: pa.array([], pa.int64())})
        s = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.utf8_lower(pc.fill_null(b[text_col], "")), r"\s+", " "
            )
        )
        pad = pa.array([" "] * len(b))
        padded = pc.binary_join_element_wise(pad, s, pad, "")
        ok = pc.match_substring(padded, needle)
        return pa.table(
            {id_col: pc.cast(b[id_col], pa.int64()).filter(ok)}
        )

    out = (
        ds.map_batches(verify, batch_format="pyarrow")
        .to_pandas()  # result-sized
        .sort_values(id_col)
        .reset_index(drop=True)
    )
    return out
