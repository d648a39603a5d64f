"""The two guards on what reaches the driver, and the task floor.

**Universe cap** (``collect_universe``).  The value-universe statistics
family (weighted_median / gini / AUC / KS / quantile_transform /
winsorized_mean / group-median impute) finalizes on the driver from a
DISTRIBUTED ``(key, value)`` count aggregate.  That is exact and cheap
whenever the distinct-value universe is bounded (integer quantities,
prices in cents, categorical scores) — but for continuous inputs the
universe approaches the row count and the driver frame becomes
corpus-sized.  The universe dataset is materialized distributed, its row
count (block metadata, no fetch) is checked BEFORE ``to_pandas``, and an
over-budget universe fails fast naming the scale-safe alternative
(``salted_group_percentiles``, stages/zonal.py — or pre-rounding/binning
the value column, which bounds the universe by construction).

**Tree budget** (``tree_combine``).  Every partial-aggregate operator
(zonal partials, OHLC, skyline, mode, top-k, TF-IDF, keyness, latest-by-key,
Misra-Gries) reduces each block to associative partial rows and merges
them on the driver.  One primitive bounds that merge: while the partials
exceed ``DRIVER_ROWS`` rows it re-applies the operator's combine kernel
over blocks merged ``FAN_IN`` at a time, then collects.  Both constants
are the only settings; there is no per-operator threshold.

**Task floor** (``TASK_ROWS``).  A Ray task costs ~15 ms of fixed
overhead and a page row of the point join ~20 µs, so the join's encode
map gets ``batch_size=TASK_ROWS``: Ray bundles whole blocks up to that
many rows and fusion carries the floor to the fused maps (≤ ``ceil(n /
TASK_ROWS)`` tasks for ``n`` rows), unless the input's Read streams
unsplit into its maps, a fusion the batch size would undo.  Pixel maps
are not covered.

Reference parity: the reference (runner.py) has no statistics operators
at all and merges its zonal partials on the driver; both guards belong to
the engine's scale path.
"""

from __future__ import annotations

DEFAULT_MAX_UNIVERSE = 5_000_000

# tree budget: partial rows the driver collects without a combine level,
# and the number of blocks merged into one per level
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
