"""Distributed PageRank (fixed-iteration power method) — round-5 operator.

THE webtext link-graph primitive (Page et al. 1999): the stationary
rank of a random surfer with damping d and uniform teleport,
``r'(v) = (1−d)/N + d·(Σ_{u→v} r(u)/deg(u) + D/N)`` where D is the
dangling mass (rank held by nodes with no out-edges, redistributed
uniformly — the standard convention).

Ray-Data-first shape — every step is a Dataset op, nothing node- or
edge-sized ever reaches the driver:

* node universe: one distinct over src ∪ dst (in-batch combiner);
* out-degrees: one ``groupby(src).count`` (edge-partials only);
* edges pre-join their src degree ONCE (`hash_join`), so each iteration
  is exactly: ranks ⋈ edges (hash join on src) → per-batch ``r/deg``
  projection → ``groupby(dst).Sum`` → nodes LEFT JOIN sums → one
  vectorized update pass.  The two scalars per iteration (total and
  contributed mass, whose difference is the dangling mass D) are Ray
  ``sum()`` aggregates.
* ranks materialize per iteration (node-sized, distributed) so the
  lazy graph stays one-iteration deep.

Iterations are FIXED (default 3) so the result is a deterministic
closed form the DuckDB oracle can replicate by unrolling the same
update as chained CTEs (see __ray_entry__ ``pagerank`` SQL).

Output ranks are scaled by N (mean 1.0) so 6-dp rounding keeps ~6
significant digits regardless of graph size.

Reference parity: the reference has no graph operators (runner.py is
zonal statistics); SURVEY §2 training-data extension family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import guard


def pagerank(
    edges,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    damping: float = 0.85,
    iterations: int = 3,
):
    """edges Dataset(src, dst int64, pre-deduplicated or not — duplicate
    edges count as parallel links, matching the SQL oracle's choice of
    input) → Dataset(node, rank_scaled = rank·N).
    """
    from ray.data.aggregate import Count, Sum

    from .joins import distinct_rows, hash_join

    d = float(damping)
    its = int(iterations)
    def _as_node(col: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"node": pc.cast(t[col], pa.int64())})

        return f

    nodes = distinct_rows(
        edges.map_batches(_as_node(src_col), batch_format="pyarrow").union(
            edges.map_batches(_as_node(dst_col), batch_format="pyarrow")
        ),
        ["node"],
    ).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        import pandas as pd
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({"node": [], "rank_scaled": []}))
    inv_n = 1.0 / float(n_nodes)

    deg = (
        edges.map_batches(
            lambda t: pa.table({src_col: pc.cast(t[src_col], pa.int64())}),
            batch_format="pyarrow",
        )
        .repartition(guard.shuffle_partitions())
        .groupby(src_col)
        .aggregate(Count(alias_name="deg"))
    )
    # edges carry their src degree from here on (ONE join, reused per iter)
    ej = hash_join(
        edges.map_batches(
            lambda t: pa.table(
                {
                    src_col: pc.cast(t[src_col], pa.int64()),
                    dst_col: pc.cast(t[dst_col], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        deg,
        on=src_col,
        right_on=src_col,
        how="inner",
    ).materialize()

    ranks = nodes.map_batches(
        lambda t, _v=inv_n: t.append_column(
            "r", pa.array(np.full(len(t), _v, np.float64))
        ),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(its):
        total = ranks.sum("r")
        contrib = hash_join(
            ej,
            ranks,
            on=src_col,
            right_on="node",
            how="inner",
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t[dst_col],
                    "c": pc.divide(
                        pc.cast(t["r"], pa.float64()),
                        pc.cast(t["deg"], pa.float64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        sums = (
            contrib.repartition(guard.shuffle_partitions())
            .groupby("node")
            .aggregate(Sum("c", alias_name="c"))
        ).materialize()
        contributed = sums.sum("c") if sums.count() else 0.0
        dangling = max(0.0, float(total) - float(contributed or 0.0))
        base = (1.0 - d) * inv_n + d * dangling * inv_n

        joined = hash_join(
            nodes,
            sums,
            on="node",
            right_on="node",
            how="left_outer",
        )

        def update(t: pa.Table, *, _b=base, _d=d) -> pa.Table:
            if "node" not in t.column_names:
                return pa.table(
                    {"node": pa.array([], pa.int64()), "r": pa.array([], pa.float64())}
                )
            s = pc.fill_null(pc.cast(t["c"], pa.float64()), 0.0) if "c" in t.column_names else pa.array(
                np.zeros(len(t), np.float64)
            )
            r = pc.add(pc.multiply(s, _d), _b)
            return pa.table(
                {"node": pc.cast(t["node"], pa.int64()), "r": pc.cast(r, pa.float64())}
            )

        ranks = joined.map_batches(update, batch_format="pyarrow").materialize()

    return ranks.map_batches(
        lambda t, _n=float(n_nodes): pa.table(
            {
                "node": t["node"],
                "rank_scaled": pc.multiply(pc.cast(t["r"], pa.float64()), _n),
            }
        ),
        batch_format="pyarrow",
    )


def hits(
    edges,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iterations: int = 2,
):
    """HITS hubs & authorities (Kleinberg 1999), fixed iterations →
    Dataset(node, hub, authority), L2-normalized each half-step — the
    link-analysis companion of :func:`pagerank`, same pure-Dataset
    machinery: per half-step ONE hash join (scores onto edges) + ONE
    groupby-sum + ONE left join back onto the node universe; the L2 norm
    is a scalar aggregate.  Starts from uniform h = 1/√N.  Fixed
    ``iterations`` keeps the result a deterministic closed form the SQL
    oracle unrolls (see __ray_entry__ ``hits``)."""
    import math

    from ray.data.aggregate import Sum

    from .joins import distinct_rows, hash_join

    def _as_node(col: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"node": pc.cast(t[col], pa.int64())})

        return f

    e = edges.map_batches(
        lambda t: pa.table(
            {
                src_col: pc.cast(t[src_col], pa.int64()),
                dst_col: pc.cast(t[dst_col], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    nodes = distinct_rows(
        e.map_batches(_as_node(src_col), batch_format="pyarrow").union(
            e.map_batches(_as_node(dst_col), batch_format="pyarrow")
        ),
        ["node"],
    ).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        import pandas as pd
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({"node": [], "hub": [], "authority": []}))

    def _const(ds_nodes, name: str, v: float):
        return ds_nodes.map_batches(
            lambda t, _v=v, _n=name: t.append_column(
                _n, pa.array(np.full(len(t), _v, np.float64))
            ),
            batch_format="pyarrow",
        ).materialize()

    def _propagate(scores, score_col, on_col, emit_col):
        """scores(node, score_col) ⋈ edges on ``on_col`` → sum per the
        OTHER endpoint → (node, emit_col) over the full node universe."""
        other = dst_col if on_col == src_col else src_col
        contrib = hash_join(
            e, scores, on=on_col, right_on="node"
        ).map_batches(
            lambda t, _o=other, _s=score_col: pa.table(
                {"node": t[_o], "c": pc.cast(t[_s], pa.float64())}
            ),
            batch_format="pyarrow",
        )
        sums = (
            contrib.repartition(guard.shuffle_partitions())
            .groupby("node")
            .aggregate(Sum("c", alias_name="c"))
        ).materialize()
        joined = hash_join(
            nodes, sums, on="node", right_on="node",
            how="left_outer",
        )

        def fill(t: pa.Table, *, _n=emit_col) -> pa.Table:
            if "node" not in t.column_names:
                return pa.table(
                    {"node": pa.array([], pa.int64()), _n: pa.array([], pa.float64())}
                )
            c = (
                pc.fill_null(pc.cast(t["c"], pa.float64()), 0.0)
                if "c" in t.column_names
                else pa.array(np.zeros(len(t), np.float64))
            )
            return pa.table({"node": pc.cast(t["node"], pa.int64()), _n: c})

        return joined.map_batches(fill, batch_format="pyarrow").materialize()

    def _l2_scale(scores, col):
        ss = scores.map_batches(
            lambda t, _c=col: pa.table(
                {"s2": pc.multiply(pc.cast(t[_c], pa.float64()), pc.cast(t[_c], pa.float64()))}
            ),
            batch_format="pyarrow",
        ).sum("s2")
        nrm = math.sqrt(float(ss)) or 1.0
        return scores.map_batches(
            lambda t, _c=col, _n=nrm: t.set_column(
                t.schema.get_field_index(_c), _c,
                pc.divide(pc.cast(t[_c], pa.float64()), _n),
            ),
            batch_format="pyarrow",
        ).materialize()

    h = _const(nodes, "h", 1.0 / math.sqrt(float(n_nodes)))
    a = None
    for _ in range(int(iterations)):
        a = _l2_scale(_propagate(h, "h", src_col, "a"), "a")
        h = _l2_scale(_propagate(a, "a", dst_col, "h"), "h")

    out = hash_join(
        h, a, on="node", right_on="node"
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "node": pc.cast(t["node"], pa.int64()),
                "hub": pc.cast(t["h"], pa.float64()),
                "authority": pc.cast(t["a"], pa.float64()),
            }
        ),
        batch_format="pyarrow",
    )
