"""Incremental deduplication against a persisted corpus content index —
the incremental-crawl shape (round 4).

A 100-TB corpus is not deduped from scratch every crawl: the corpus keeps a
slim on-disk CONTENT INDEX (one ``(content_hash, doc_id)`` row per distinct
document text, ~16 bytes/doc), and each new shard dedups against that index
plus itself, then appends only its genuinely-new hashes.  This module is
the exact-dedup analogue of the partitioned IVF (``knn.py``) and inverted
index (``invindex.py``) layouts: hive-partitioned by a hash bucket so a
shard lookup reads ONLY the buckets its hashes touch.

Semantics (corpus precedence):
* ``canonical_id`` for a shard doc = the minimum corpus ``doc_id`` holding
  the same text if one exists (the corpus saw it FIRST — even a corpus id
  numerically larger than the shard id wins), else the minimum shard
  ``doc_id`` with that text.
* ``is_duplicate`` = ``canonical_id != doc_id``.

Two regimes, gated by ``guard.DRIVER_ROWS`` like the LSH dedup machinery
(``dedup.py:lsh_candidate_pairs``):
* shard-distinct ≤ ``guard.DRIVER_ROWS`` (the normal incremental case —
  shard ≪ corpus): the distinct shard hashes are broadcast once via
  ``ray.put``; the pruned index read semi-joins against them per batch, the
  corpus-match map comes back shard-distinct-sized, and the final pass is
  one vectorized ``searchsorted`` lookup per batch.  No shuffle touches the
  corpus index beyond the pruned read.
* above the budget: corpus-min and shard-min maps are unioned with a
  priority-encoded id (corpus entries sort below shard entries), reduced by
  a hash-partitioned ``groupby().Min``, and hash-joined back onto the shard
  rows (``joins.hash_join``, ``broadcast=False`` — the canonical map is
  shard-distinct-sized, i.e. too big to broadcast by assumption).

Reference parity: the reference toolkit has no incremental mode (each
``runner.py`` job recomputes from its inputs); this operator is part of the
training-data-pipeline extension surface (SURVEY §2.6).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.metrics import note
from . import guard
from .dedup import content_hash_batch
from .guard import tree_combine

# priority bit for the corpus-precedence min: corpus entries keep their raw
# id, shard entries are offset by 2^62, so an integer Min picks the corpus
# id whenever one exists.  Requires 0 <= doc_id < 2^62.
_SHARD_PRI = np.int64(1) << np.int64(62)


def _meta_path(index_dir: str) -> str:
    return os.path.join(index_dir, "_meta.json")


def read_index_meta(index_dir: str) -> dict:
    with open(_meta_path(index_dir)) as f:
        return json.load(f)


def hash_rows_batch(
    batch: pa.Table,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 64,
) -> pa.Table:
    """documents → (bucket, content_hash, doc_id) rows.  Bucket is a pure
    function of the hash so build, append and lookup agree by construction.

    The hash travels as a BIT-REINTERPRETED int64 (``uint64.view(int64)``):
    Ray's sort-aggregate rebuilds key columns from Python ints, and a
    uint64 value ≥ 2^63 overflows that rebuild into pickled-object blocks
    that no downstream sort/groupby can consume.  Equality (all this module
    needs) is preserved by the reinterpretation; the bucket is taken from
    the unsigned view before it."""
    b = content_hash_batch(batch, text_col=text_col)
    h = b["content_hash"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "bucket": pa.array((h % np.uint64(num_buckets)).astype(np.int32)),
            "content_hash": pa.array(h.view(np.int64), pa.int64()),
            id_col: b[id_col],
        }
    )


def _min_partial(batch: pa.Table, *, id_col: str) -> pa.Table:
    """In-batch combiner: one (bucket, content_hash, min id) row per
    distinct hash — the shuffle then moves one row per distinct hash per
    block, not one per document."""
    h = batch["content_hash"].to_numpy(zero_copy_only=False).astype(np.int64)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    uniq, codes = np.unique(h, return_inverse=True)
    mn = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(mn, codes, ids)
    cols = {
        "content_hash": pa.array(uniq, pa.int64()),
        id_col: pa.array(mn),
    }
    if "bucket" in batch.column_names:
        # bucket is a pure function of the hash, so any occurrence's value
        # is the group's value — take each hash's first occurrence
        bk = batch["bucket"].to_numpy(zero_copy_only=False)
        first = np.zeros(uniq.size, dtype=np.int64)
        first[codes[::-1]] = np.arange(len(h) - 1, -1, -1)
        cols = {"bucket": pa.array(bk[first].astype(np.int32)), **cols}
    return pa.table(cols)


def content_index_write(
    ds,
    index_dir: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 64,
) -> None:
    """Build the hive-partitioned content index: one ``bucket=N`` directory
    per hash bucket, rows ``(content_hash, doc_id)`` with in-batch distinct
    combine (duplicates WITHIN the corpus collapse to the min id per block;
    cross-block duplicates are tolerated — every reader takes a min).

    CLEAN REBUILD like the IVF / inverted-index builders: appending into a
    failed build's survivors would duplicate rows with no way to tell a
    finished bucket from a partial one.  Incremental growth goes through
    :func:`incremental_dedup` ``update_index=True``, which appends only
    genuinely-new hashes."""
    if os.path.isdir(index_dir):
        for name in os.listdir(index_dir):
            if name.startswith("bucket="):
                shutil.rmtree(os.path.join(index_dir, name))
    os.makedirs(index_dir, exist_ok=True)
    rows = ds.map_batches(
        hash_rows_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(id_col=id_col, text_col=text_col, num_buckets=num_buckets),
    ).map_batches(
        _min_partial, batch_format="pyarrow", fn_kwargs=dict(id_col=id_col)
    )
    rows.write_parquet(index_dir, partition_cols=["bucket"])
    with open(_meta_path(index_dir), "w") as f:
        json.dump({"num_buckets": num_buckets, "id_col": id_col}, f)


def _index_files(index_dir: str, buckets: np.ndarray | None) -> tuple[list[str], int]:
    """Parquet member files for the probed buckets (``None`` = all), plus
    the total bucket-dir count for telemetry.  read_parquet treats a path
    LIST as files, so partition dirs are expanded here (sandbox lesson,
    ROUND3_NOTES)."""
    dirs_total = 0
    want = None if buckets is None else {int(b) for b in np.asarray(buckets).tolist()}
    paths: list[str] = []
    for name in sorted(os.listdir(index_dir)):
        if not name.startswith("bucket="):
            continue
        dirs_total += 1
        if want is not None and int(name.split("=", 1)[1]) not in want:
            continue
        d = os.path.join(index_dir, name)
        paths.extend(
            os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
        )
    return paths, dirs_total


def incremental_dedup(
    ds_new,
    index_dir: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    update_index: bool = False,
):
    """Dedup a new shard against the persisted corpus content index AND
    itself → Dataset ``(doc_id, canonical_id, is_duplicate)`` (one row per
    shard doc).

    ``update_index=True`` appends the shard's genuinely-new hashes (those
    with no corpus match) to the index with their min shard id, so the next
    shard sees this one as corpus.  Only new hashes are appended — the
    canonical id of an existing hash never changes across increments.

    Notes ``incremental.incremental_dedup``: ``regime`` and the pruned
    read (``buckets_probed`` / ``dirs_total`` / ``files_read``; the
    broadcast regime adds ``shard_distinct`` / ``corpus_matches``)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Min

    meta = read_index_meta(index_dir)
    num_buckets = int(meta["num_buckets"])

    # ONE slim projection of the shard, materialized once: shard-min
    # aggregation, the final lookup pass, and the optional index append all
    # read it (the dedup.py single-pass contract, VERDICT r3 #3)
    slim = ds_new.map_batches(
        hash_rows_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(id_col=id_col, text_col=text_col, num_buckets=num_buckets),
    ).materialize()

    # distinct-per-block partials, NO global shard-min aggregate: the
    # per-hash min is taken exactly once downstream — an np reduce on the
    # driver (broadcast regime) or the canonical-map groupby Min (join
    # regime).  A global aggregate here would be a barrier costing as much
    # as the canonical reduce itself (measured 17 s on a 2M-row shard) and
    # the join regime would pay it twice (probe + consume).  limit() DOES
    # early-stop a pure map chain, so the smallness probe is cheap; its
    # count is an upper bound on shard-distinct (cross-block duplicates),
    # making the regime gate conservative.
    partial = slim.map_batches(
        _min_partial, batch_format="pyarrow", fn_kwargs=dict(id_col=id_col)
    ).select_columns(["content_hash", id_col])

    thr = guard.DRIVER_ROWS
    small = partial.limit(thr + 1).count() <= thr

    if small:
        pdf = partial.to_pandas()  # partial-rows-sized ≈ shard-distinct
        ph = pdf["content_hash"].to_numpy().astype(np.int64)
        pid = pdf[id_col].to_numpy().astype(np.int64)
        shard_hashes, codes = np.unique(ph, return_inverse=True)  # sorted
        shard_ids = np.full(shard_hashes.size, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(shard_ids, codes, pid)

        buckets = np.unique(
            (shard_hashes.view(np.uint64) % np.uint64(num_buckets)).astype(np.int64)
        )
        paths, dirs_total = _index_files(index_dir, buckets)

        corpus = pd.DataFrame(
            {"content_hash": pd.Series(dtype=np.int64), id_col: pd.Series(dtype=np.int64)}
        )
        if paths and shard_hashes.size:
            href = ray.put(pa.array(shard_hashes, pa.int64()))

            def probe(batch: pa.Table, _h=href) -> pa.Table:
                keep = pc.is_in(batch["content_hash"], ray.get(_h))
                return _min_partial(batch.filter(keep), id_col=id_col)

            matches = (
                rd.read_parquet(paths, columns=["content_hash", id_col])
                .map_batches(probe, batch_format="pyarrow")
                .groupby("content_hash")
                .aggregate(Min(id_col, alias_name=id_col))
            ).to_pandas()  # ≤ shard-distinct-sized by the is_in filter
            if len(matches):
                corpus = matches
        c_hashes = corpus["content_hash"].to_numpy().astype(np.int64)
        c_ids = corpus[id_col].to_numpy().astype(np.int64)
        note(
            "incremental.incremental_dedup", regime="broadcast",
            buckets_probed=int(buckets.size), dirs_total=dirs_total, files_read=len(paths),
            shard_distinct=int(shard_hashes.size), corpus_matches=int(c_hashes.size),
        )

        # canonical per distinct shard hash: corpus min wins when present
        canonical = shard_ids.copy()
        in_corpus = np.zeros(shard_hashes.size, dtype=bool)
        if c_hashes.size:
            pos = np.searchsorted(shard_hashes, c_hashes)
            # every corpus match came FROM the shard-hash filter, so pos hits
            canonical[pos] = c_ids
            in_corpus[pos] = True

        lut_ref = ray.put((shard_hashes, canonical))

        def lookup(batch: pa.Table, _lut=lut_ref) -> pa.Table:
            hashes, canon = ray.get(_lut)
            h = batch["content_hash"].to_numpy(zero_copy_only=False).astype(np.int64)
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            cix = np.searchsorted(hashes, h)
            cid = canon[cix]
            return pa.table(
                {
                    id_col: pa.array(ids),
                    "canonical_id": pa.array(cid),
                    "is_duplicate": pa.array(cid != ids),
                }
            )

        result = slim.map_batches(lookup, batch_format="pyarrow")

        if update_index:
            _append_new_hashes(
                index_dir,
                num_buckets,
                id_col,
                shard_hashes[~in_corpus],
                shard_ids[~in_corpus],
            )
        return result

    # ---- join regime: shard too big to broadcast ----------------------
    paths, dirs_total = _index_files(index_dir, None)
    note(
        "incremental.incremental_dedup", regime="join",
        buckets_probed=dirs_total, dirs_total=dirs_total, files_read=len(paths),
    )

    def enc_corpus(batch: pa.Table) -> pa.Table:
        b = _min_partial(batch, id_col=id_col)
        return pa.table(
            {
                "content_hash": b["content_hash"],
                "enc": b[id_col],  # priority 0: raw id
            }
        )

    def enc_shard(batch: pa.Table) -> pa.Table:
        # consumes the distinct-per-block PARTIALS — duplicate hashes
        # across blocks are fine, the canonical groupby Min reduces them
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= int(_SHARD_PRI)):
            raise ValueError("incremental_dedup requires 0 <= doc_id < 2^62")
        return pa.table(
            {
                "content_hash": batch["content_hash"],
                "enc": pa.array(ids + _SHARD_PRI),
            }
        )

    sides = [partial.map_batches(enc_shard, batch_format="pyarrow")]
    if paths:
        sides.append(
            rd.read_parquet(paths, columns=["content_hash", id_col]).map_batches(
                enc_corpus, batch_format="pyarrow"
            )
        )
    unioned = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]
    canon_map = unioned.groupby("content_hash").aggregate(
        Min("enc", alias_name="enc")
    )
    # corpus hashes with no shard doc are dead weight for the probe join —
    # but the canonical map is keyed by hash and the join below is INNER on
    # the shard rows, so they simply never match; semi-filtering them here
    # would cost another pass over the shard side.  Repartition first: a
    # sort-aggregate with more partitions than distinct keys emits
    # SCHEMALESS empties that crash the join aggregator (sandbox lesson
    # 20/22).  Materialize: chained join-feeding plans deadlock otherwise
    # (sandbox lesson 17).
    from .joins import hash_join

    canon_map = canon_map.repartition(guard.shuffle_partitions()).materialize()

    joined = hash_join(
        slim.select_columns(["content_hash", id_col]),
        canon_map,
        on="content_hash",
        broadcast=False,  # shard-distinct-sized by assumption of this regime
    )

    def finish(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        enc = batch["enc"].to_numpy(zero_copy_only=False).astype(np.int64)
        cid = np.where(enc >= int(_SHARD_PRI), enc - int(_SHARD_PRI), enc)
        return pa.table(
            {
                id_col: pa.array(ids),
                "canonical_id": pa.array(cid),
                "is_duplicate": pa.array(cid != ids),
            }
        )

    result = joined.map_batches(finish, batch_format="pyarrow")

    if update_index:
        # genuinely-new hashes = canonical entries that stayed shard-priority
        def new_rows(batch: pa.Table) -> pa.Table:
            enc = batch["enc"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = enc >= int(_SHARD_PRI)
            h = batch["content_hash"].to_numpy(zero_copy_only=False).astype(np.int64)[m]
            return pa.table(
                {
                    "bucket": pa.array(
                        (h.view(np.uint64) % np.uint64(num_buckets)).astype(np.int32)
                    ),
                    "content_hash": pa.array(h, pa.int64()),
                    id_col: pa.array(enc[m] - int(_SHARD_PRI)),
                }
            )

        canon_map.map_batches(new_rows, batch_format="pyarrow").write_parquet(
            index_dir, partition_cols=["bucket"]
        )
    return result


def _append_new_hashes(
    index_dir: str,
    num_buckets: int,
    id_col: str,
    hashes: np.ndarray,
    ids: np.ndarray,
) -> None:
    """Append (hash, id) rows into the existing hive layout.  Ray's parquet
    writer names files per producing block UUID, so appends never collide
    with existing bucket files."""
    import ray.data as rd

    if hashes.size == 0:
        return
    tab = pa.table(
        {
            "bucket": pa.array(
                (hashes.view(np.uint64) % np.uint64(num_buckets)).astype(np.int32)
            ),
            "content_hash": pa.array(hashes, pa.int64()),
            id_col: pa.array(ids.astype(np.int64)),
        }
    )
    rd.from_arrow(tab).write_parquet(index_dir, partition_cols=["bucket"])


def latest_by_key(
    ds,
    *,
    key_col: str,
    order_cols: list[str],
):
    """Latest-record-wins compaction (the CDC / MERGE-upsert reduce):
    keep, per key, the single row with the LARGEST ``order_cols`` tuple
    (e.g. (source_priority, updated_at)) — SQL ``ROW_NUMBER() OVER
    (PARTITION BY key ORDER BY order_cols DESC...) = 1``.

    Order tuples must be unique per key (make the last order column a
    unique id — same contract as every deterministic tiebreak here).

    Shape: per-key ARGMAX over full rows is associative — each block
    reduces to ≤ keys-per-block winner ROWS (one lexsort per batch, rows
    carried whole, no payload reshuffle); winners re-reduce with the same
    kernel in ``guard.tree_combine`` above the driver budget and the
    survivor set is the merged table."""
    import pandas as pd

    def winners(b: pa.Table) -> pa.Table:
        if key_col not in b.column_names:
            return b
        arrs = [
            b[c].to_numpy(zero_copy_only=False) for c in reversed(order_cols)
        ]
        kcol = b[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        codes = np.asarray(kcol.dictionary_encode().indices, dtype=np.int64)
        order = np.lexsort(tuple(arrs) + (codes,))
        ck = codes[order]
        last = np.r_[ck[1:] != ck[:-1], True]
        return b.take(pa.array(order[np.flatnonzero(last)]))

    df, _ = tree_combine(ds.map_batches(winners, batch_format="pyarrow"), winners)
    if len(df.columns) == 0:
        return df
    final = (
        df.sort_values([key_col] + order_cols, kind="stable")
        .groupby(key_col, sort=True)
        .tail(1)
    )
    return final.sort_values(key_col).reset_index(drop=True)


def incremental_rollup(
    new_ds,
    state_dir: str,
    *,
    key_cols: list[str],
    value_col: str,
) -> "pd.DataFrame":
    """Incremental grouped aggregate with PERSISTED state — the
    materialized-view-maintenance shape: fold a NEW shard's (key, n,
    total) partials into the on-disk state and return the current
    totals.  ``value_col`` is floored to int64, so totals are exact and
    two increments are bit-identical to one full recompute (tested).

    The new shard aggregates DISTRIBUTED (in-batch partials →
    ``guard.group_sums``); only the group-universe frame touches the
    driver and the state file.  The state write is atomic (tmp + ``os.replace``), so a
    crashed update never corrupts the previous state; apply-at-most-once
    per shard is the caller's checkpoint contract (pair with
    ``state/checkpoint.py`` manifests, as ``run_pages_job`` does)."""
    import os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    key_cols = list(key_cols)

    def partials(b: pa.Table) -> pa.Table:
        x = np.floor(
            pc.cast(b[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        t = pa.table(
            {
                **{k: b[k] for k in key_cols},
                "x": pa.array(x, pa.int64()),
            }
        )
        g = t.group_by(key_cols).aggregate([("x", "sum"), ("x", "count")])
        return pa.table(
            {
                **{k: g[k] for k in key_cols},
                "n": pc.cast(g["x_count"], pa.int64()),
                "total": pc.cast(g["x_sum"], pa.int64()),
            }
        )

    new_agg = guard.group_sums(  # group-universe-sized
        new_ds.map_batches(partials, batch_format="pyarrow"), key_cols, ["n", "total"]
    )
    os.makedirs(state_dir, exist_ok=True)
    state_path = os.path.join(state_dir, "state.parquet")
    if os.path.exists(state_path):
        prev = pq.read_table(state_path).to_pandas()
        merged = (
            pd.concat([prev, new_agg], ignore_index=True)
            .groupby(key_cols, as_index=False, dropna=False)[["n", "total"]]
            .sum()
        )
    else:
        merged = new_agg
    merged = merged.sort_values(key_cols, kind="stable").reset_index(drop=True)
    merged["n"] = merged["n"].astype(np.int64)
    merged["total"] = merged["total"].astype(np.int64)
    tmp = state_path + ".tmp"
    pq.write_table(pa.Table.from_pandas(merged, preserve_index=False), tmp)
    os.replace(tmp, state_path)  # atomic: a crash leaves the old state
    return merged
