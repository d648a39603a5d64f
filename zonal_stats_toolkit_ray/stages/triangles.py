"""Distributed triangle counting / local clustering coefficient over an
edge Dataset — the graph-structure signal a web-curation pipeline uses on
the host link graph (spam farms have anomalous clustering; PageRank's
sibling, ``pagerank.py``).

Algorithm: the standard degree-oriented wedge-close (node-iterator++,
Schank & Wagner 2005; MapReduce form Suri & Vassilvitskii 2011):

1. canonicalize edges to distinct (a < b) pairs (in-batch combiner + one
   slim hash aggregate — ``joins.distinct_rows``);
2. degrees via endpoint-count partials (node-universe-sized, driver-held
   under ``node_driver_threshold``, like ``graph.bfs_hops``);
3. orient every edge from its lower-(degree, id) endpoint to the higher —
   each node's out-degree is then O(√m) on real graphs, which bounds the
   wedge explosion that id-orientation would let a hub node cause;
4. wedges per apex (``groupby(u).map_groups``: all out-neighbor pairs,
   emitted in canonical (min, max) form);
5. close wedges against the canonical edge set with the dual-regime
   ``joins.hash_join`` on a packed ``a·2³² + b`` key (broadcast when the
   edge universe is small, native shuffle join when not).

Each triangle is found exactly once (its apex is its unique
lowest-(degree, id) vertex).  Per-node triangle counts come from
3-endpoint bincount partials; clustering = 2T / (deg·(deg−1)).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import guard
from .joins import distinct_rows, hash_join

_PACK = np.int64(1) << np.int64(32)


def _canon_factory(src_col: str, dst_col: str):
    def canon(t: pa.Table) -> pa.Table:
        s = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        m = a != b  # drop self-loops
        return pa.table({"a": pa.array(a[m]), "b": pa.array(b[m])})

    return canon


def triangle_stats(
    edges,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    node_driver_threshold: int = 50_000_000,
) -> pd.DataFrame:
    """→ DataFrame(node, degree, triangles, clustering) over the
    undirected simple graph induced by the edge Dataset (direction,
    multi-edges and self-loops are normalized away).  Node ids must fit
    int64 with ids < 2³¹ (packed closing key)."""
    import ray

    ce = distinct_rows(
        edges.map_batches(_canon_factory(src_col, dst_col), batch_format="pyarrow"),
        ["a", "b"],
    ).materialize()

    # --- degrees (node universe on the driver, node_driver_threshold) ---
    def ends(t: pa.Table) -> pa.Table:
        nodes = np.concatenate(
            [
                t["a"].to_numpy(zero_copy_only=False),
                t["b"].to_numpy(zero_copy_only=False),
            ]
        ).astype(np.int64)
        u, c = np.unique(nodes, return_counts=True)
        return pa.table({"node": pa.array(u), "c": pa.array(c.astype(np.int64))})

    deg_df = guard.group_sums(  # node-ascending
        ce.map_batches(ends, batch_format="pyarrow"), ["node"], ["c"]
    )
    n_nodes = len(deg_df)
    if n_nodes == 0:
        return pd.DataFrame(
            {
                "node": pd.Series(dtype="int64"),
                "degree": pd.Series(dtype="int64"),
                "triangles": pd.Series(dtype="int64"),
                "clustering": pd.Series(dtype="float64"),
            }
        )
    if n_nodes > node_driver_threshold:
        raise ValueError(
            f"node universe ({n_nodes}) exceeds node_driver_threshold — "
            "triangle_stats holds the degree vector driver-side"
        )
    nodes = deg_df["node"].to_numpy().astype(np.int64)
    deg = deg_df["c"].to_numpy().astype(np.int64)
    if nodes.size and int(nodes[-1]) >= (1 << 31):
        raise ValueError("node ids must be < 2^31 for the packed wedge key")
    deg_ref = ray.put((nodes, deg))

    # --- orient by (degree, id) ascending ---
    def orient(t: pa.Table, *, _ref=deg_ref) -> pa.Table:
        nd, dg = ray.get(_ref) if ray.is_initialized() else _ref
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        da = dg[np.searchsorted(nd, a)]
        db = dg[np.searchsorted(nd, b)]
        # a < b always, so (deg, id) order reduces to: a first unless
        # deg_a > deg_b
        swap = da > db
        u = np.where(swap, b, a)
        v = np.where(swap, a, b)
        return pa.table({"u": pa.array(u), "v": pa.array(v)})

    oriented = ce.map_batches(orient, batch_format="pyarrow")

    # --- wedges per apex ---
    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        vs = np.sort(g["v"].to_numpy().astype(np.int64))
        if vs.size < 2:
            return pd.DataFrame(
                {
                    "k": pd.Series(dtype="int64"),
                    "apex": pd.Series(dtype="int64"),
                }
            )
        i, j = np.triu_indices(vs.size, k=1)
        lo, hi = vs[i], vs[j]  # vs sorted → lo < hi, canonical
        return pd.DataFrame(
            {
                "k": lo * _PACK + hi,
                "apex": np.full(lo.size, int(g["u"].iloc[0]), dtype=np.int64),
            }
        )

    wedge_ds = oriented.groupby("u").map_groups(wedges, batch_format="pandas")

    def keyed_edges(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"k": pa.array(a * _PACK + b)})

    closing = ce.map_batches(keyed_edges, batch_format="pyarrow")
    tri = hash_join(wedge_ds, closing, on="k", how="inner")

    # --- per-node triangle counts: 3-endpoint partials, driver merge ---
    def tri_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"node": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
            )
        k = t["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        apex = t["apex"].to_numpy(zero_copy_only=False).astype(np.int64)
        endpoints = np.concatenate([apex, k // _PACK, k % _PACK])
        u, c = np.unique(endpoints, return_counts=True)
        return pa.table({"node": pa.array(u), "c": pa.array(c.astype(np.int64))})

    parts = guard.group_sums(
        tri.map_batches(tri_partial, batch_format="pyarrow"), ["node"], ["c"]
    )
    tri_counts = np.zeros(nodes.size, dtype=np.int64)
    idx = np.searchsorted(nodes, parts["node"].to_numpy().astype(np.int64))
    tri_counts[idx] = parts["c"].to_numpy().astype(np.int64)
    denom = deg.astype(np.float64) * (deg - 1).astype(np.float64)
    clustering = np.where(deg >= 2, 2.0 * tri_counts / np.maximum(denom, 1.0), 0.0)
    return pd.DataFrame(
        {
            "node": nodes,
            "degree": deg,
            "triangles": tri_counts,
            "clustering": np.round(clustering, 6) + 0.0,
        }
    )


def triangle_stats_reference(edges_df: pd.DataFrame) -> pd.DataFrame:
    """Driver-side brute force for test equality (O(n·d²))."""
    a = np.minimum(edges_df["src"], edges_df["dst"]).astype(np.int64)
    b = np.maximum(edges_df["src"], edges_df["dst"]).astype(np.int64)
    m = a != b
    ce = set(zip(a[m].tolist(), b[m].tolist()))
    adj: dict[int, set] = {}
    for x, y in ce:
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    rows = []
    for node in sorted(adj):
        nb = sorted(adj[node])
        t = 0
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                if (nb[i], nb[j]) in ce:
                    t += 1
        d = len(nb)
        c = 2.0 * t / (d * (d - 1)) if d >= 2 else 0.0
        rows.append((node, d, t, round(c, 6) + 0.0))
    return pd.DataFrame(rows, columns=["node", "degree", "triangles", "clustering"])
