"""2-D skyline (Pareto frontier) — distinct (x, y) pairs not dominated by
any other pair, both dimensions maximized.

Dominance (distinct pairs): q dominates p iff qx ≥ px ∧ qy ≥ py ∧ q ≠ p.
Equivalently p is skyline iff py is the max y at x = px AND py strictly
exceeds the max y over all x' > px — which is what both the vectorized
kernel and the SQL oracle compute (per-x max → sort x desc → strictly-
increasing running max filter).

Distributed shape: the skyline operator is ASSOCIATIVE — every global
skyline point is a skyline point of any subset containing it, so
``skyline(S ∪ T) ⊆ skyline(S) ∪ skyline(T)``.  Each block reduces to its
local frontier (one lexsort + cummax, no Python loops), candidate volume
is Σ per-block frontier sizes (≤ distinct-x per block); above the driver
budget ``guard.tree_combine`` re-applies the associative kernel over
fanned-in blocks before the driver finalize.

Reference parity: no counterpart in runner.py — part of the analytics
surface (SURVEY §2 graft extensions).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.metrics import note
from .guard import tree_combine


def skyline_batch(b: pa.Table, *, x_col: str, y_col: str) -> pa.Table:
    """Local Pareto frontier of one batch → (x, y) float64 rows.

    Vectorized: per-x max via lexsort + run boundaries, then the strictly-
    increasing-y suffix filter over x descending.  NULL / non-finite rows
    are excluded (SQL comparison semantics: they can neither dominate nor
    be ranked)."""
    x = pc.cast(b[x_col], pa.float64()).to_numpy(zero_copy_only=False)
    y = pc.cast(b[y_col], pa.float64()).to_numpy(zero_copy_only=False)
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    empty = pa.table(
        {"x": pa.array([], pa.float64()), "y": pa.array([], pa.float64())}
    )
    if x.size == 0:
        return empty
    # per-x max y: sort by (x, y), the last row of each x-run is its max
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    last = np.concatenate([xs[1:] != xs[:-1], [True]])
    ux, uy = xs[last], ys[last]  # x ascending, uy = max y at that x
    # skyline: walking x DESCENDING, keep rows where y strictly exceeds the
    # running max so far (max over strictly larger x)
    rev = uy[::-1]
    run = np.maximum.accumulate(rev)
    keep_rev = np.concatenate([[True], rev[1:] > run[:-1]])
    keep = keep_rev[::-1]
    return pa.table(
        {"x": pa.array(ux[keep], pa.float64()), "y": pa.array(uy[keep], pa.float64())}
    )


def skyline(ds, *, x_col: str, y_col: str) -> pd.DataFrame:
    """Global 2-D skyline → DataFrame(x, y) ascending by x.

    One input pass reduces every block to its local frontier; candidates
    re-reduce with the same kernel in ``guard.tree_combine`` while they
    exceed the driver budget; the final frontier-sized frame finalizes on
    the driver with the same kernel."""
    cand = ds.map_batches(
        skyline_batch,
        batch_format="pyarrow",
        fn_kwargs={"x_col": x_col, "y_col": y_col},
    )
    df, rounds = tree_combine(
        cand, functools.partial(skyline_batch, x_col="x", y_col="y")
    )
    note("pareto.skyline", candidate_rows=len(df), combine_rounds=rounds)
    if len(df.columns) == 0:  # zero-block pipeline (sandbox lesson #27)
        return pd.DataFrame({"x": [], "y": []})
    out = skyline_batch(pa.Table.from_pandas(df), x_col="x", y_col="y").to_pandas()
    return out.sort_values("x").reset_index(drop=True)
