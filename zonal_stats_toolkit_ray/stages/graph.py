"""Graph traversal and structure statistics over an edge Dataset.

* ``bfs_hops`` — level-synchronous BFS: each level is one streaming pass
  over the edges with the frontier broadcast via ``ray.put``; driver
  state is node-universe-bounded (``node_driver_threshold``).
* ``degree_assortativity`` — in-degree correlation over every edge, from
  one degree aggregate, two dual-regime hash joins and one moment pass.

PageRank and HITS live in ``pagerank.py``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def bfs_hops(
    edges,
    source: int,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_hops: int = 3,
    node_driver_threshold: int = 50_000_000,
) -> pd.DataFrame:
    """Minimum hop distance from ``source`` over the directed edge
    Dataset → DataFrame(node, hops) for every node reached within
    ``max_hops`` (the recursive-CTE reachability shape, level-synchronous
    BFS): each level is ONE streaming pass over the edges with the
    current frontier broadcast as a sorted array; per batch one
    ``isin``-style searchsorted + a sparse distinct-destination partial.
    Driver state is two node-universe-bounded arrays (the
    ``node_driver_threshold`` contract) — the edge list never materializes."""
    import ray

    slim = edges.select_columns([src_col, dst_col]).materialize()
    dist = {int(source): 0}
    frontier = np.array([source], dtype=np.int64)
    for level in range(1, max_hops + 1):
        if frontier.size > node_driver_threshold:
            raise ValueError("frontier exceeds node_driver_threshold")
        f_ref = ray.put(np.sort(frontier))

        def reach(t: pa.Table, *, _f=f_ref) -> pa.Table:
            f = ray.get(_f) if ray.is_initialized() else _f
            if len(t) == 0:
                return pa.table({"d": pa.array([], pa.int64())})
            s = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
            d = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
            idx = np.searchsorted(f, s)
            idx = np.minimum(idx, f.size - 1)
            hit = f[idx] == s
            return pa.table({"d": pa.array(np.unique(d[hit]))})

        parts = slim.map_batches(reach, batch_format="pyarrow").to_pandas()
        if len(parts.columns) == 0 or len(parts) == 0:
            break
        cand = np.unique(parts["d"].to_numpy().astype(np.int64))
        new = np.array([c for c in cand.tolist() if c not in dist], dtype=np.int64)
        if new.size == 0:
            break
        for c in new.tolist():
            dist[c] = level
        frontier = new
    out = pd.DataFrame(
        {"node": list(dist.keys()), "hops": list(dist.values())}
    ).astype({"node": "int64", "hops": "int64"})
    return out.sort_values("node").reset_index(drop=True)


def degree_assortativity(edges, *, src_col: str = "src", dst_col: str = "dst"):
    """Directed in-degree assortativity: Pearson correlation, over every
    edge, of (in-degree of src, in-degree of dst) → DataFrame(n_edges,
    assort).  Positive ⇒ popular pages link to popular pages.

    Shape: one count aggregate builds the node-sized in-degree table;
    two dual-regime :func:`hash_join`\\ s (auto-broadcast when the degree
    table is small, hash-partitioned otherwise) attach degrees to both
    endpoints (missing ⇒ 0); the correlation is ONE pass of six-moment
    partials (stages/bivar.py) — the edge stream never lands anywhere."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from .bivar import finalize_bivar
    from .joins import hash_join

    indeg = (
        edges.groupby(dst_col)
        .aggregate(Count(alias_name="indeg"))
        .map_batches(
            lambda t: (
                pa.table(
                    {
                        "node": pc.cast(t[dst_col], pa.int64()),
                        "indeg": pc.cast(t["indeg"], pa.int64()),
                    }
                )
                if dst_col in t.column_names
                else pa.table(
                    {
                        "node": pa.array([], pa.int64()),
                        "indeg": pa.array([], pa.int64()),
                    }
                )
            ),
            batch_format="pyarrow",
        )
    )
    j1 = hash_join(edges, indeg, on=src_col, right_on="node", how="left")
    j1 = j1.map_batches(
        lambda t: pa.table(
            {
                src_col: t[src_col],
                dst_col: t[dst_col],
                "x": pc.cast(pc.fill_null(t["indeg"], 0), pa.float64()),
            }
        ),
        batch_format="pyarrow",
    )
    j2 = hash_join(j1, indeg, on=dst_col, right_on="node", how="left")

    def moments(t: pa.Table) -> pa.Table:
        from .bivar import bivar_partials_batch

        t = pa.table(
            {
                "_g": pa.array(np.zeros(len(t), dtype=np.int64)),
                "x": t["x"],
                "y": pc.cast(pc.fill_null(t["indeg"], 0), pa.float64()),
            }
        )
        return bivar_partials_batch(t, keys=["_g"], x_col="x", y_col="y")

    from ray.data.aggregate import Sum

    merged = (
        j2.map_batches(moments, batch_format="pyarrow")
        .repartition(2)
        .groupby("_g")
        .aggregate(*[Sum(m, alias_name=m) for m in ["n", "sx", "sy", "sxx", "syy", "sxy"]])
        .to_pandas()
    )
    fin = finalize_bivar(merged)
    return pd.DataFrame(
        {
            "n_edges": fin["n"].astype(np.int64),
            "assort": fin["corr"].astype(np.float64),
        }
    )
