"""Similarity search over an embedding column (list<float>).

* :func:`knn_brute` — exact cosine top-k: the (small) query matrix is
  broadcast once with ``ray.put``; each batch does ONE NumPy matmul against
  it and emits only its local top-k rows per query, so the driver merges
  #blocks × k rows, never the corpus.
* :class:`IVFIndex` / :func:`knn_ivf` — the scale path: coarse quantizer
  (seeded k-means on a sample) partitions vectors into ``nlist`` buckets;
  queries probe the ``nprobe`` nearest centroids only.  Recall vs brute is
  tested, not assumed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.metrics import note


def _stack_vectors(col) -> np.ndarray:
    """list<float> Arrow column → (n, d) float64 matrix without a Python
    row loop (flat values buffer reshape; embeddings are fixed-length)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks() if col.num_chunks != 1 else col.chunk(0)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(col)
    if n == 0:
        return flat.reshape(0, 0)
    d = flat.size // n
    return flat.reshape(n, d)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


# per-worker-process cache of broadcast query/centroid payloads (same
# rationale as the join's zone cache: long-lived task workers, one fetch)
_REF_CACHE: dict = {}


def _cached_ref(obj):
    try:
        import ray

        if isinstance(obj, ray.ObjectRef):
            key = obj.hex()
            if key not in _REF_CACHE:
                if len(_REF_CACHE) > 8:
                    _REF_CACHE.clear()
                _REF_CACHE[key] = ray.get(obj)
            return _REF_CACHE[key]
    except ImportError:
        pass
    return obj


def _put_maybe(obj):
    """Broadcast ``obj`` once via ``ray.put`` when Ray is importable (the
    batch fns resolve it through ``_cached_ref``); pass through otherwise."""
    try:
        import ray

        return ray.put(obj)
    except ImportError:
        return obj


def _merge_local_topk(local: pd.DataFrame, k: int, id_col: str) -> pd.DataFrame:
    """Driver merge of per-block local top-k rows → (query_id, rank, id,
    score): the ONE place the tie-break (score desc, id asc) and rank
    dtype live for brute, IVF and partitioned-IVF search."""
    out = []
    for qid, g in local.groupby("query_id"):
        g = g.sort_values(["score", id_col], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1)
        out.append(g)
    if not out:
        return pd.DataFrame(columns=["query_id", "rank", id_col, "score"])
    res = pd.concat(out, ignore_index=True)
    return res[["query_id", "rank", id_col, "score"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)


def brute_topk_batch(
    batch: pa.Table,
    queries_ref,
    k: int,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Stateless map_batches stage: per-batch exact cosine top-k against the
    broadcast query matrix.  Emits (query_id, vec_id, score) local-top-k
    rows — the driver merges #blocks × k rows, never the corpus."""
    queries = _cached_ref(queries_ref)
    qids = np.asarray(queries["query_id"], dtype=np.int64)
    q = _normalize(np.asarray(queries["matrix"], dtype=np.float64))
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    m = _normalize(_stack_vectors(batch[vec_col]))
    scores = m @ q.T  # (n, nq)
    k = min(int(k), m.shape[0])
    out_q, out_id, out_s = [], [], []
    for qi in range(q.shape[0]):
        s = scores[:, qi]
        top = np.argpartition(-s, k - 1)[:k] if k < s.size else np.arange(s.size)
        out_q.append(np.full(top.size, qids[qi], dtype=np.int64))
        out_id.append(ids[top])
        out_s.append(s[top])
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_id)),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        }
    )


def knn_brute(
    ds,
    queries: dict,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    broadcast: bool = True,
) -> pd.DataFrame:
    """Exact top-k: per-batch local top-k → tiny driver merge.

    ``queries`` = {"query_id": [...], "matrix": (nq, d) array-like}.
    Ties break by ascending id (deterministic).  Returns
    (query_id, rank, vec_id, score) sorted."""
    ref = queries
    if broadcast:
        try:
            import ray

            ref = ray.put(queries)
        except ImportError:
            pass
    local = ds.map_batches(
        brute_topk_batch,
        fn_kwargs=dict(queries_ref=ref, k=k, id_col=id_col, vec_col=vec_col),
        batch_format="pyarrow",
    ).to_pandas()
    return _merge_local_topk(local, k, id_col)


# ---------------------------------------------------------------------------
# IVF (inverted-file) approximate search — the 100-TB-scale path
# ---------------------------------------------------------------------------

def hash_sample(
    ds, sample_size: int, *, id_col: str = "vec_id", vec_col: str = "embedding"
) -> np.ndarray:
    """Deterministic UNBIASED sample of ``sample_size`` vectors: the rows
    with the globally smallest ``hash(id)`` values.  A Knuth-multiplied id
    hash is pseudorandom, so the global bottom-k by hash is a uniform random
    sample regardless of row order — unlike ``ds.limit(n)``, which reads the
    FIRST blocks only and trains centroids on whatever cluster happens to be
    at the head of the file.  Each batch emits only its local bottom-k, so
    driver traffic is ≤ blocks × sample_size slim rows."""

    def local_bottom(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)  # Knuth/Fibonacci
        kk = min(sample_size, h.size)
        if kk == 0:
            return pa.table({"h": pa.array([], pa.uint64()), vec_col: b[vec_col].slice(0, 0)})
        top = np.argpartition(h, kk - 1)[:kk] if kk < h.size else np.arange(h.size)
        return pa.table(
            {"h": pa.array(h[top], pa.uint64()), vec_col: b[vec_col].take(pa.array(top))}
        )

    local = ds.select_columns([id_col, vec_col]).map_batches(
        local_bottom, batch_format="pyarrow"
    ).to_pandas()
    order = np.argsort(local["h"].to_numpy())[:sample_size]
    return np.stack(local[vec_col].to_numpy()[order]).astype(np.float64)


def train_centroids(sample: np.ndarray, nlist: int, seed: int = 42, iters: int = 10) -> np.ndarray:
    """Small seeded k-means (Lloyd) on a driver-side sample — the classic
    IVF coarse quantizer training step.  Seeds with k-means++ (Arthur &
    Vassilvitskii 2007): each next center is drawn proportional to squared
    distance from the existing centers, so the init spreads across the
    data instead of depending on sample row order."""
    rng = np.random.default_rng(seed)
    sample = _normalize(np.asarray(sample, dtype=np.float64))
    k = min(nlist, sample.shape[0])
    # --- k-means++ seeding (cosine distance = 1 - dot on unit vectors) ---
    first = int(rng.integers(sample.shape[0]))
    chosen = [first]
    d2 = np.maximum(1.0 - sample @ sample[first], 0.0) ** 2
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            nxt = int(rng.integers(sample.shape[0]))
        else:
            nxt = int(rng.choice(sample.shape[0], p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.maximum(1.0 - sample @ sample[nxt], 0.0) ** 2)
    cent = sample[chosen].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(cent.shape[0]):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_assign_batch(batch: pa.Table, centroids_ref, vec_col: str = "embedding") -> pa.Table:
    """Stateless map_batches stage: adds ``ivf_list`` (nearest-centroid id)
    — the partition key that co-locates similar vectors."""
    cent = np.asarray(_cached_ref(centroids_ref), dtype=np.float64)
    m = _normalize(_stack_vectors(batch[vec_col]))
    assign = np.argmax(m @ cent.T, axis=1).astype(np.int32)
    return batch.append_column("ivf_list", pa.array(assign, pa.int32()))


def ivf_topk_batch(
    batch: pa.Table,
    queries_ref,
    k: int,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Stateless map_batches stage: per-batch cosine top-k restricted to
    each query's probed IVF lists.  The batch is first cut down to the
    union of all probed lists (one vectorized ``isin``), scored with one
    matmul, then masked per query.  Emits (query_id, id, score) local-top-k
    rows only."""
    payload = _cached_ref(queries_ref)
    qids = np.asarray(payload["query_id"], dtype=np.int64)
    qm = np.asarray(payload["matrix"], dtype=np.float64)  # already normalized
    probe = np.asarray(payload["probe"])  # (nq, nprobe)
    lists = batch["ivf_list"].to_numpy(zero_copy_only=False)
    union_mask = np.isin(lists, np.unique(probe))
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }
    )
    if not union_mask.any():
        return empty
    ids = batch[id_col].to_numpy(zero_copy_only=False)[union_mask]
    lists = lists[union_mask]
    m = _normalize(_stack_vectors(batch[vec_col]))[union_mask]
    scores = m @ qm.T  # (n_survivors, nq)
    out_q, out_id, out_s = [], [], []
    for qi in range(qm.shape[0]):
        qmask = np.isin(lists, probe[qi])
        if not qmask.any():
            continue
        s = scores[qmask, qi]
        cand_ids = ids[qmask]
        kk = min(int(k), s.size)
        top = np.argpartition(-s, kk - 1)[:kk] if kk < s.size else np.arange(s.size)
        out_q.append(np.full(top.size, qids[qi], dtype=np.int64))
        out_id.append(cand_ids[top])
        out_s.append(s[top])
    if not out_q:
        return empty
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_id)),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        }
    )


def knn_ivf(
    ds,
    queries: dict,
    k: int = 10,
    *,
    nlist: int = 16,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    sample_size: int = 2048,
    seed: int = 42,
) -> pd.DataFrame:
    """IVF-style ANN: train coarse centroids on a sample, assign lists,
    scan only the ``nprobe`` closest lists per query."""
    # unbiased hash-based sample (NOT limit(): that reads only the first
    # blocks and biases centroids toward file order on clustered input)
    sample = hash_sample(ds, sample_size, id_col=id_col, vec_col=vec_col)
    cent = train_centroids(sample, nlist, seed)
    cent_ref = _put_maybe(cent)
    assigned = ds.map_batches(
        ivf_assign_batch,
        fn_kwargs=dict(centroids_ref=cent_ref, vec_col=vec_col),
        batch_format="pyarrow",
    )
    qm = _normalize(np.asarray(queries["matrix"], dtype=np.float64))
    qids = np.asarray(queries["query_id"], dtype=np.int64)
    probe = np.argsort(-(qm @ cent.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    payload = {"query_id": qids, "matrix": qm, "probe": probe}
    payload_ref = _put_maybe(payload)

    # per-batch local top-k over the probed lists only (round-2 fix: the
    # old version pulled every vector in the probed lists to the driver —
    # ~nprobe/nlist of the corpus; now the driver merges #blocks × k rows
    # exactly like knn_brute)
    local = assigned.map_batches(
        ivf_topk_batch,
        fn_kwargs=dict(queries_ref=payload_ref, k=k, id_col=id_col, vec_col=vec_col),
        batch_format="pyarrow",
    ).to_pandas()
    return _merge_local_topk(local, k, id_col)


# ---------------------------------------------------------------------------
# partitioned IVF index — the ANN STORAGE path (build once, prune reads)
# ---------------------------------------------------------------------------

def ivf_write_partitioned(
    ds,
    index_dir: str,
    *,
    nlist: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    sample_size: int = 2048,
    seed: int = 42,
) -> np.ndarray:
    """Build a DISK-partitioned IVF index: train centroids (unbiased hash
    sample + k-means++), assign every vector a list, write hive-partitioned
    Parquet (one directory per ``ivf_list``) plus the centroid table.

    This is the 100-TB similarity-search layout: queries touch ONLY their
    probed lists' partitions at the READ (``knn_ivf_partitioned``), so a
    nprobe/nlist fraction of the corpus leaves storage — no index rebuild
    and no full scan per query batch.

    The build is a CLEAN REBUILD: stale ``ivf_list=*`` partitions and the
    centroid table in ``index_dir`` are removed first (appending into
    survivors of a failed build would duplicate every vector and silently
    halve effective top-k).  Incremental maintenance at real scale would
    version the index directory instead."""
    import os
    import shutil

    import pyarrow.parquet as pq

    if os.path.isdir(index_dir):
        for name in os.listdir(index_dir):
            if name.startswith("ivf_list=") or name == "_centroids.parquet":
                full = os.path.join(index_dir, name)
                if os.path.isdir(full):
                    shutil.rmtree(full)
                else:
                    os.remove(full)
    sample = hash_sample(ds, sample_size, id_col=id_col, vec_col=vec_col)
    cent = train_centroids(sample, nlist, seed)
    cent_ref = _put_maybe(cent)
    assigned = ds.map_batches(
        ivf_assign_batch,
        fn_kwargs=dict(centroids_ref=cent_ref, vec_col=vec_col),
        batch_format="pyarrow",
    )
    assigned.write_parquet(index_dir, partition_cols=["ivf_list"])
    pq.write_table(
        pa.table(
            {
                "list_id": pa.array(np.arange(cent.shape[0], dtype=np.int32)),
                "centroid": pa.array(
                    [row.tolist() for row in cent], pa.list_(pa.float64())
                ),
            }
        ),
        f"{index_dir}/_centroids.parquet",
    )
    return cent


def knn_ivf_partitioned(
    index_dir: str,
    queries: dict,
    k: int = 10,
    *,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Query a partitioned IVF index: read ONLY the probed lists' partition
    directories (pruning at the read — the non-probed corpus never leaves
    storage), then the same per-batch local-top-k → tiny-merge shape as
    ``knn_ivf``.  Notes the read pruning as ``knn.knn_ivf_partitioned``:
    ``probed_lists`` / ``dirs_total`` / ``files_read`` (tests assert the
    read touched exactly the probed union)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    cent_tbl = pq.read_table(f"{index_dir}/_centroids.parquet")
    order = np.argsort(cent_tbl["list_id"].to_numpy())
    cent = np.stack(
        [np.asarray(v) for v in cent_tbl["centroid"].to_pylist()]
    )[order]
    qm = _normalize(np.asarray(queries["matrix"], dtype=np.float64))
    qids = np.asarray(queries["query_id"], dtype=np.int64)
    probe = np.argsort(-(qm @ cent.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    probed_lists = np.unique(probe)
    # expand to files: a path LIST is treated as files by read_parquet
    paths = [
        os.path.join(d, f)
        for li in probed_lists.tolist()
        if os.path.isdir(d := os.path.join(index_dir, f"ivf_list={li}"))
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    note(
        "knn.knn_ivf_partitioned",
        probed_lists=int(probed_lists.size),
        dirs_total=sum(d.startswith("ivf_list=") for d in os.listdir(index_dir)),
        files_read=len(paths),
    )
    if not paths:
        return pd.DataFrame(columns=["query_id", "rank", id_col, "score"])
    ds = rd.read_parquet(paths, columns=[id_col, vec_col])

    payload = {"query_id": qids, "matrix": qm, "probe": probe}

    # reuse the existing probed-list top-k kernel: re-attach ivf_list with
    # one matmul per batch (cheaper and dtype-stable vs re-reading the hive
    # partition column), then per-batch local top-k over probed lists
    assigned = ds.map_batches(
        ivf_assign_batch,
        fn_kwargs=dict(centroids_ref=_put_maybe(cent), vec_col=vec_col),
        batch_format="pyarrow",
    )
    local = assigned.map_batches(
        ivf_topk_batch,
        fn_kwargs=dict(
            queries_ref=_put_maybe(payload), k=k, id_col=id_col, vec_col=vec_col
        ),
        batch_format="pyarrow",
    ).to_pandas()
    return _merge_local_topk(local, k, id_col)


def hard_negatives(
    ds,
    queries: dict,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
) -> pd.DataFrame:
    """Contrastive hard-negative mining: for every query vector, the
    single nearest corpus vector with a DIFFERENT label →
    DataFrame(query_id, neg_id, neg_label) — the negative-pair selection
    pass of contrastive/metric training.

    ``queries`` = {"query_id": [...], "matrix": (nq, d), "label": [...]}.
    Same shape as :func:`knn_brute` (broadcast query pack, per-batch
    distance cube, blocks × nq driver merge) with a vectorized label
    mask; distances use the (x − c)² expansion (argmin/SQL-ROW_NUMBER
    near-tie parity, ties by ascending id)."""
    import ray

    qid = np.asarray(queries["query_id"], dtype=np.int64)
    qm = np.asarray(queries["matrix"], dtype=np.float64)
    ql = np.asarray(queries["label"], dtype=np.int64)
    ref = ray.put((qid, qm, ql))

    def local_best(b: pa.Table, *, _ref=ref) -> pa.Table:
        _qid, _qm, _ql = _cached_ref(_ref)
        from .pca import _batch_matrix

        x = _batch_matrix(b[vec_col])
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        labs = b[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "neg_id": pa.array([], pa.int64()),
                "neg_label": pa.array([], pa.int64()),
                "d2": pa.array([], pa.float64()),
            }
        )
        if x.size == 0:
            return empty
        out_q, out_i, out_l, out_d = [], [], [], []
        step = max(1, int(2_000_000 // max(1, x.shape[0])))
        for s in range(0, _qm.shape[0], step):
            e = min(_qm.shape[0], s + step)
            d2 = ((_qm[s:e, None, :] - x[None, :, :]) ** 2).sum(axis=2)
            mask = _ql[s:e, None] == labs[None, :]
            d2 = np.where(mask, np.inf, d2)
            # deterministic argmin with id tiebreak: order columns by id
            order = np.argsort(ids, kind="stable")
            d2o = d2[:, order]
            j = np.argmin(d2o, axis=1)  # first (lowest id) on ties
            best = d2o[np.arange(e - s), j]
            ok = np.isfinite(best)
            out_q.append(_qid[s:e][ok])
            out_i.append(ids[order][j][ok])
            out_l.append(labs[order][j][ok])
            out_d.append(best[ok])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "neg_id": pa.array(np.concatenate(out_i), pa.int64()),
                "neg_label": pa.array(np.concatenate(out_l), pa.int64()),
                "d2": pa.array(np.concatenate(out_d), pa.float64()),
            }
        )

    local = ds.map_batches(local_best, batch_format="pyarrow").to_pandas()
    if local.empty:
        return pd.DataFrame(columns=["query_id", "neg_id", "neg_label"])
    # blocks × nq driver merge: per query the globally smallest (d2, id)
    local = local.sort_values(
        ["query_id", "d2", "neg_id"], kind="stable"
    ).groupby("query_id", as_index=False).first()
    return local[["query_id", "neg_id", "neg_label"]].reset_index(drop=True)
