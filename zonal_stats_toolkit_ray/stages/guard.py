"""The regime rule: what reaches the driver, and the task floor.

**Driver budget** (``DRIVER_ROWS``).  Every dual-regime operator counts
the slim rows it would hold on the driver (ids, keys, int64 pairs,
vocabulary entries, session starts, pending islands, partial rows) and
takes its driver regime — collect to the driver, or ``ray.put`` from it
as a broadcast — only while that count is within ``DRIVER_ROWS``; above
it the operator stays distributed (hash join, groupby, Dataset result).
Collecting rows and broadcasting them cost the driver the same, so one
budget covers both.  The value is read as ``guard.DRIVER_ROWS`` on the
driver at call time (never bound by ``from … import`` or a default
argument), so tests force either regime by patching it.  The cut-offs
that bound rows which are not slim, or the driver's compute, are module
constants next to their operators: ``dedup.VERIFY_DRIVER_PAIRS`` (the
pairs the driver verifies itself, for every LSH dedup variant — one
shared verify tail), ``semdedup.DRIVER_VECTORS`` and
``sketch.DRIVER_SKETCH_ROWS``.

**Tree combine** (``tree_combine``).  Every partial-aggregate operator
(zonal partials, OHLC, skyline, mode, top-k, TF-IDF, keyness, latest-by-key,
Misra-Gries) reduces each block to associative partial rows and merges
them on the driver.  While the partials exceed ``DRIVER_ROWS`` rows it
re-applies the operator's combine kernel over blocks merged ``FAN_IN`` at
a time, then collects.

**Guards that raise** instead of routing, where no distributed path
exists: the universe cap (``collect_universe``, ``max_universe``) of the
value-universe statistics family (weighted_median / gini / AUC / KS /
quantile_transform / winsorized_mean / group-median impute), which
finalizes on the driver from a distributed ``(key, value)`` count
aggregate and fails fast naming ``salted_group_percentiles`` when the
universe approaches the corpus; the boundary-row cap of
``rolling.rolling_window_stats``; the vocabulary cap of
``text.encode_corpus``; and the node-universe cap of ``graph.bfs_hops``
and ``triangles.triangle_stats``.

**Task floor** (``TASK_ROWS``).  A Ray task costs ~15 ms of fixed
overhead and a page row of the point join ~20 µs, so the join's encode
map gets ``batch_size=TASK_ROWS``: Ray bundles whole blocks up to that
many rows and fusion carries the floor to the fused maps (≤ ``ceil(n /
TASK_ROWS)`` tasks for ``n`` rows), unless the input's Read streams
unsplit into its maps, a fusion the batch size would undo.  Pixel maps
are not covered.
"""

from __future__ import annotations

DEFAULT_MAX_UNIVERSE = 5_000_000

# driver budget: slim rows any operator collects to or broadcasts from the
# driver; tree combine: blocks merged into one per level
DRIVER_ROWS = 1_000_000
FAN_IN = 8
# task floor: the fewest input rows one task of the point join runs over
TASK_ROWS = 6_000


def collect_universe(uni_ds, *, max_universe: int | None, what: str):
    """Materialize a distributed universe aggregate and collect it to the
    driver ONLY if its row count is within ``max_universe`` (None disables
    the guard) → pandas DataFrame.

    The count runs on the materialized dataset — metadata, not a fetch —
    so nothing universe-sized reaches the driver before the check, and the
    aggregate's work is reused by the collect when it passes."""
    m = uni_ds.materialize()
    n = m.count()
    if max_universe is not None and n > max_universe:
        raise ValueError(
            f"{what}: the distinct (key, value) universe has {n:,} rows, "
            f"over max_universe={max_universe:,} — for continuous values "
            "the universe approaches the corpus and the exact driver "
            "finalize does not scale. Use salted_group_percentiles "
            "(stages/zonal.py) for quantile-family readouts, or round/bin "
            "the value column to bound the universe; raise max_universe "
            "only if the driver is provisioned for the frame."
        )
    return m.to_pandas()


def tree_combine(ds, kernel):
    """Collect the partial rows of ``ds`` to the driver → (DataFrame,
    combine levels run).

    ``kernel`` is the operator's associative combine: a pyarrow table of
    partial rows in, the same schema with rows merged out.  While the
    partials exceed ``DRIVER_ROWS`` and span more than one block, one level
    repartitions to ``blocks // FAN_IN`` blocks and applies ``kernel`` to
    each whole block.  The target block count drops every level, so the
    loop ends at one block at the latest.  Below the budget this is one
    materialize, one count and one ``to_pandas``.  The caller still runs
    its final merge on the returned frame."""
    m = ds.materialize()
    n = m.count()
    nb = m.num_blocks()
    levels = 0
    while n > DRIVER_ROWS and nb > 1:
        nb = max(1, nb // FAN_IN)
        m = (
            m.repartition(nb)
            .map_batches(kernel, batch_format="pyarrow", batch_size=None)
            .materialize()
        )
        n = m.count()
        levels += 1
    return m.to_pandas(), levels
