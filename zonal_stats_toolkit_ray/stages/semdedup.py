"""SemDeDup — semantic deduplication via k-means clustering of embeddings
(Abbas et al. 2023, arXiv:2303.09540), the curation step between exact/LSH
dedup and model training: cluster the corpus embeddings with a coarse
k-means, then remove near-duplicates WITHIN each cluster by pairwise cosine
similarity.  Clustering turns the O(n²) global pairwise problem into
``nlist`` independent O((n/nlist)²) problems that shuffle once and run in
parallel — the same partition-then-local-work shape as the IVF index
(``knn.py:ivf_write_partitioned``).

Reference parity: the reference toolkit (``runner.py``) has no embedding
operators at all; this is part of the training-data-pipeline extension
surface (SURVEY §2.6) alongside :func:`~.dedup.embedding_dedup` (LSH
bucketing — recall-oriented) — SemDeDup trades a trained quantizer for
bounded per-bucket work and a tunable cluster count.

Output contract matches the dedup family: one row per input vector,
``(id, cluster_id, canonical_id, is_duplicate)`` where ``canonical_id`` is
the minimum id of the vector's near-duplicate component inside its cluster
and ``cluster_id`` is the k-means cluster index.

Scale design (100 TB):
* centroids train on a driver-side UNBIASED sample (``knn.hash_sample`` —
  global bottom-k by id hash, never ``limit()``) and broadcast once via
  ``ray.put``; assignment is one matmul per batch.
* the only shuffle is the per-cluster ``groupby``; ``nlist`` must be sized
  so a cluster fits one worker (paper uses 50k clusters for LAION-scale —
  the same rule as every ``map_groups`` stage here, documented assumption).
* identical vectors collapse to ONE representative per cluster before any
  pairwise work (byte-level star grouping), so a verbatim-duplicate flood
  costs O(n), not C(n, 2) — the hot-bucket lesson from ``dedup.py``.
* clusters whose representative count exceeds ``max_cluster_pairwise``
  sub-split by seeded random-hyperplane signs; exact duplicates always
  share a sub-bucket (identical signs), so only NEAR-dup recall degrades —
  the ``bucket_cap`` tradeoff, documented here rather than hidden.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.metrics import note
from .knn import _normalize, _put_maybe, _cached_ref, _stack_vectors, hash_sample, train_centroids

# below guard.DRIVER_ROWS: each row the driver collects carries an embedding
DRIVER_VECTORS = 200_000
# sub-split a cluster's representative set above this size
DEFAULT_MAX_CLUSTER_PAIRWISE = 8_192


def _dedup_cluster(
    ids: np.ndarray,
    mat: np.ndarray,
    threshold: float,
    max_pairwise: int,
    seed: int,
    cluster_id: int,
) -> np.ndarray:
    """Within-cluster near-dup resolution → canonical id per row (aligned
    with ``ids``).  Pure NumPy; shared verbatim by the driver and the
    ``map_groups`` regimes so they are equal by construction."""
    n = ids.size
    if n <= 1:
        return ids.copy()

    # --- star grouping: identical vectors (byte-equal rows) share one
    # representative = their min id; duplicates of it need no pairwise ---
    cont = np.ascontiguousarray(mat)
    void = cont.view([("", cont.dtype)] * cont.shape[1]).ravel()
    _, rep_inverse = np.unique(void, return_inverse=True)
    n_groups = int(rep_inverse.max()) + 1
    group_min = np.full(n_groups, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(group_min, rep_inverse, ids)
    # one row index per group (any member works — rows in a group are
    # byte-identical): last write wins over id-descending order = the row
    # with the group's min id, keeping the choice deterministic
    order = np.argsort(ids, kind="stable")
    first_idx = np.zeros(n_groups, dtype=np.int64)
    first_idx[rep_inverse[order[::-1]]] = order[::-1]

    rep_rows = first_idx  # row index per representative group
    rep_ids = group_min  # min id per group
    reps = _normalize(cont[rep_rows].astype(np.float64, copy=False))
    m = rep_ids.size

    # --- sub-split oversized representative sets (near-dup recall
    # tradeoff; identical vectors were already collapsed above) ---
    if m > max_pairwise:
        bits = int(np.ceil(np.log2(m / max_pairwise)))
        rng = np.random.default_rng(np.uint64(seed) ^ np.uint64(cluster_id))
        planes = rng.standard_normal((bits, reps.shape[1]))
        signs = (reps @ planes.T) > 0
        sub = np.zeros(m, dtype=np.int64)
        for b in range(bits):
            sub |= signs[:, b].astype(np.int64) << b
    else:
        sub = np.zeros(m, dtype=np.int64)

    # --- pairwise cosine + union-find per sub-bucket over representatives ---
    parent = np.arange(m, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in np.unique(sub):
        sel = np.flatnonzero(sub == s)
        if sel.size <= 1:
            continue
        sims = reps[sel] @ reps[sel].T
        ai, bi = np.nonzero(np.triu(sims >= threshold, k=1))
        for a, b in zip(sel[ai], sel[bi]):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                # union by min id keeps find() results id-monotone
                if rep_ids[ra] <= rep_ids[rb]:
                    parent[rb] = ra
                else:
                    parent[ra] = rb

    comp_canon = np.empty(m, dtype=np.int64)
    for g in range(m):
        comp_canon[g] = rep_ids[find(g)]
    return comp_canon[rep_inverse]


def _result_table(
    ids: np.ndarray, clusters: np.ndarray, canonical: np.ndarray, id_col: str
) -> pa.Table:
    return pa.table(
        {
            id_col: pa.array(ids.astype(np.int64)),
            "cluster_id": pa.array(clusters.astype(np.int32), pa.int32()),
            "canonical_id": pa.array(canonical.astype(np.int64)),
            "is_duplicate": pa.array(canonical != ids),
        }
    )


def semdedup(
    ds,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    nlist: int = 64,
    threshold: float = 0.95,
    seed: int = 42,
    sample_size: int = 4_096,
    kmeans_iters: int = 10,
    max_cluster_pairwise: int = DEFAULT_MAX_CLUSTER_PAIRWISE,
):
    """SemDeDup over an embedding column → Dataset ``(id, cluster_id,
    canonical_id, is_duplicate)``.

    Regimes:
    * total rows ≤ ``DRIVER_VECTORS``: the slim ``(cluster, id, vec)``
      frame collects to the driver and every cluster runs through the
      shared NumPy kernel locally (no shuffle at all).
    * above: one ``groupby(cluster_id).map_groups`` shuffle; each cluster
      dedups on a worker.  ``nlist`` must be sized so the largest cluster
      fits a worker's heap (documented partitioning assumption).

    Both regimes call :func:`_dedup_cluster` and are equal by construction
    (tested).  Notes ``semdedup.semdedup``: ``regime``, ``rows`` and
    ``n_clusters`` (``None`` in the grouped regime, which never counts
    them on the driver)."""
    from .dedup import _slim_input

    slim = _slim_input(ds, [id_col, vec_col])

    sample = hash_sample(slim, sample_size, id_col=id_col, vec_col=vec_col)
    cent = train_centroids(sample, nlist, seed=seed, iters=kmeans_iters)
    cent_ref = _put_maybe(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = np.asarray(_cached_ref(cent_ref), dtype=np.float64)
        m = _normalize(_stack_vectors(batch[vec_col]))
        a = np.argmax(m @ c.T, axis=1).astype(np.int32)
        return pa.table(
            {
                "cluster_id": pa.array(a, pa.int32()),
                id_col: batch[id_col],
                vec_col: batch[vec_col],
            }
        )

    assigned = slim.map_batches(assign, batch_format="pyarrow")

    total = slim.count()
    small = total <= DRIVER_VECTORS

    if small:
        pdf = assigned.to_pandas()
        ids_all = pdf[id_col].to_numpy().astype(np.int64)
        cl_all = pdf["cluster_id"].to_numpy().astype(np.int32)
        mat_all = np.stack(pdf[vec_col].to_numpy()).astype(np.float64)
        canon = np.empty_like(ids_all)
        clusters = np.unique(cl_all)
        for c in clusters:
            sel = np.flatnonzero(cl_all == c)
            canon[sel] = _dedup_cluster(
                ids_all[sel], mat_all[sel], threshold, max_cluster_pairwise, seed, int(c)
            )
        note("semdedup.semdedup", regime="driver", rows=int(total), n_clusters=clusters.size)
        import ray.data as rd

        return rd.from_arrow(_result_table(ids_all, cl_all, canon, id_col))

    def per_cluster(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy().astype(np.int64)
        mat = np.stack(df[vec_col].to_numpy()).astype(np.float64)
        c = int(df["cluster_id"].iloc[0])
        canon = _dedup_cluster(ids, mat, threshold, max_cluster_pairwise, seed, c)
        return _result_table(ids, df["cluster_id"].to_numpy(), canon, id_col).to_pandas()

    note("semdedup.semdedup", regime="grouped", rows=int(total), n_clusters=None)
    return assigned.groupby("cluster_id").map_groups(per_cluster, batch_format="pandas")
