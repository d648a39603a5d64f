"""The regime rule: what reaches the driver, the task floor and the shuffle
width.

**Driver budget** (``DRIVER_ROWS``).  Every dual-regime operator counts
the slim rows it would hold on the driver (ids, keys, int64 pairs,
vocabulary entries, session starts, partial rows) and
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
a time, then collects.  Operators whose partials are grouped SUMS (moment
and count partials: bivar, cohort, graph, incremental, profile, rollup,
sketch, text, triangles, web) merge through ``group_sums``, the tree
combine with one Arrow ``group_by`` sum kernel: a NULL key is its own
group and −0.0 equals +0.0, as in SQL ``GROUP BY``.  Two kinds of
aggregate stay native Ray ``groupby`` shuffles: results that stay a
Dataset (vocabularies, distinct rows, PageRank, ``hash_join``), and
aggregates filtered before the collect (boilerplate lines, similarity
join candidates).

**Value universe** (``universe``).  The order-statistics family —
weighted median, winsorized mean, Gini, AUC, Spearman, Kendall τ,
quantile transform, group-median impute, KS, PSI, entropy, χ² and mutual
information — finalizes exactly on the driver from one (key, value)
universe: the row count and sums per distinct key tuple, counted by the
``group_sums`` kernel and merged by the tree combine.  That universe is
the one guard that raises on size: above ``DEFAULT_MAX_UNIVERSE`` rows
(read at call time) a continuous value column has made it approach the
corpus, and it fails naming ``salted_group_percentiles``; the driver
holds at most ``DRIVER_ROWS`` of its rows before the check.
``quantile_cont`` is the family's one SQL quantile interpolation.

**Guards that raise** instead of routing, where no distributed path
exists: the universe cap above; the boundary rows of
``rolling.rolling_window_stats``, which raise above ``DRIVER_ROWS``; the
vocabulary cap of ``text.encode_corpus``; and the node-universe cap of
``graph.bfs_hops`` and ``triangles.triangle_stats``.

**Task floor** (``TASK_ROWS``).  A Ray task costs ~15 ms of fixed
overhead and a page row of the point join ~20 µs, so the join's encode
map gets ``batch_size=TASK_ROWS``: Ray bundles whole blocks up to that
many rows and fusion carries the floor to the fused maps (≤ ``ceil(n /
TASK_ROWS)`` tasks for ``n`` rows), unless the input's Read streams
unsplit into its maps, a fusion the batch size would undo.  Pixel maps
are not covered.

**Shuffle width** (``shuffle_partitions``).  Every native shuffle — hash
join, distinct rows, the native ``groupby`` aggregates above — runs at one
partition per cluster CPU (at least 2, at most 64), read at call time: a
native join reserves one aggregator actor per partition, and far more
aggregators than CPUs stall the scheduler (one 32-partition join never
completed on a 4-CPU session, 8 partitions ran).  No operator takes a
per-call partition count; tests force a width by patching
``guard.shuffle_partitions``.
"""

from __future__ import annotations

import functools

import pandas as pd
import pyarrow as pa

# driver budget: slim rows any operator collects to or broadcasts from the
# driver; tree combine: blocks merged into one per level
DRIVER_ROWS = 1_000_000
FAN_IN = 8
# task floor: the fewest input rows one task of the point join runs over
TASK_ROWS = 6_000
# universe cap: the most distinct key tuples a value universe may hold
DEFAULT_MAX_UNIVERSE = 5_000_000


def shuffle_partitions() -> int:
    """Partition count of a native shuffle: one per cluster CPU (4 without
    a Ray session), at least 2 and at most 64."""
    try:
        import ray

        n = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    except ImportError:
        n = 4
    return max(2, min(64, n))


def _tree_levels(ds, kernel):
    """The combine levels of ``tree_combine`` → (materialized partials,
    their row count, levels run); nothing reaches the driver."""
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
    return m, n, levels


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
    m, _, levels = _tree_levels(ds, kernel)
    return m.to_pandas(), levels


def _group_sum_batch(t: pa.Table, *, keys: list[str], sums: list[str]) -> pa.Table:
    """The grouped-sum kernel: rows with equal ``keys`` collapse to one
    row, every ``sums`` column summed.  As in SQL, NULL is a key of its
    own and −0.0 and +0.0 are one float key.

    Arrow groups on non-null dictionary indices, one per key column:
    pyarrow 16's ``group_by`` splits equal key tuples when a NULL sits in
    keys of different widths (64 rows of (NULL string, 1.0) gave 5
    groups)."""
    if not set(keys).issubset(t.column_names):  # schemaless empty block
        return t
    import pyarrow.compute as pc

    codes = {}
    for k in keys:
        col = t[k].combine_chunks()
        if pa.types.is_floating(col.type):
            col = pc.add(col, pa.scalar(0, col.type))  # −0.0 + 0 = +0.0
        codes[k] = pc.dictionary_encode(col, null_encoding="encode")
    g = pa.table(
        {**{k: d.indices for k, d in codes.items()}, **{c: t[c] for c in sums}}
    ).group_by(keys, use_threads=False).aggregate([(c, "sum") for c in sums])
    return pa.table(
        {
            **{k: d.dictionary.take(g[k]) for k, d in codes.items()},
            **{c: g[f"{c}_sum"] for c in sums},
        }
    )


def _merged(frame: pd.DataFrame, keys: list[str], sums: list[str]) -> pd.DataFrame:
    """The driver merge of collected partial rows: the grouped-sum kernel
    once more, then sorted by ``keys`` ascending with NULLs last."""
    if not set(keys + sums).issubset(frame.columns):
        return pd.DataFrame({c: [] for c in keys + sums})
    t = _group_sum_batch(
        pa.Table.from_pandas(frame[keys + sums], preserve_index=False),
        keys=keys,
        sums=sums,
    )
    t = t.sort_by([(k, "ascending") for k in keys], null_placement="at_end")
    return t.to_pandas()


def group_sums(partials_ds, keys, sums) -> pd.DataFrame:
    """Merge the partial rows of ``partials_ds`` → DataFrame(keys…,
    sums…): one row per distinct key tuple, each ``sums`` column summed,
    sorted by ``keys`` ascending with NULLs last (SQL ``GROUP BY … ORDER
    BY … NULLS LAST``).

    The kernel merges each batch, then ``tree_combine`` merges the
    blocks with it, and it runs once more on the collected frame.  Extra
    columns are ignored.  An empty input gives an empty frame with the
    key and sum columns."""
    keys, sums = list(keys), list(sums)
    kernel = functools.partial(_group_sum_batch, keys=keys, sums=sums)
    frame, _ = tree_combine(
        partials_ds.map_batches(kernel, batch_format="pyarrow"), kernel
    )
    return _merged(frame, keys, sums)


def _count_batch(t: pa.Table, *, keys: list[str], sums: list[str]) -> pa.Table:
    """One block's universe: a count column ``n`` of ones, then the
    grouped-sum kernel (``sums`` includes ``n``)."""
    import numpy as np

    if set(keys).issubset(t.column_names):
        t = t.append_column("n", pa.array(np.ones(len(t), dtype=np.int64)))
    return _group_sum_batch(t, keys=keys, sums=sums)


def _cap_universe(rows: int, what: str) -> None:
    cap = DEFAULT_MAX_UNIVERSE
    if rows > cap:
        raise ValueError(
            f"{what}: the distinct (key, value) universe has {rows:,} rows, "
            f"over max_universe={cap:,} — for continuous values "
            "the universe approaches the corpus and the exact driver "
            "finalize does not scale. Use salted_group_percentiles "
            "(stages/zonal.py) for quantile-family readouts, or round/bin "
            "the value column to bound the universe; raise "
            "guard.DEFAULT_MAX_UNIVERSE only if the driver is provisioned "
            "for the frame."
        )


def universe(ds, keys, *, sums=(), what: str) -> pd.DataFrame:
    """The value universe of ``ds`` → DataFrame(keys…, n, sums…): one row
    per distinct key tuple with its row count ``n`` and each ``sums``
    column summed, sorted by ``keys`` with NULLs last — the partial
    aggregate that the order-statistics family (quantiles, ranks,
    contingency tables) finalizes exactly on the driver.

    ``ds`` is the operator's projection; extra columns are ignored.  Each
    block counts itself with the ``group_sums`` kernel, and the tree
    combine merges the blocks.  A universe of more than
    ``DEFAULT_MAX_UNIVERSE`` rows (read at call time) raises naming
    ``salted_group_percentiles``, and the driver holds at most
    ``DRIVER_ROWS`` of its rows before that check: when the combine ends
    on one block above the budget, the block's row count is checked
    before the collect; otherwise the exact count after the driver
    merge."""
    keys, sums = list(keys), ["n", *sums]
    kernel = functools.partial(_group_sum_batch, keys=keys, sums=sums)
    m, rows, _ = _tree_levels(
        ds.map_batches(
            functools.partial(_count_batch, keys=keys, sums=sums),
            batch_format="pyarrow",
        ),
        kernel,
    )
    if rows > DRIVER_ROWS:
        _cap_universe(rows, what)
    frame = _merged(m.to_pandas(), keys, sums)
    _cap_universe(len(frame), what)
    return frame


def quantile_cont(values, cum, q: float) -> float:
    """SQL ``quantile_cont`` over one universe slice: the q-quantile,
    linearly interpolated at rank ``q·(n−1)``, of the ascending distinct
    ``values`` each repeated as their cumulative counts ``cum`` say."""
    import numpy as np

    r = q * (int(cum[-1]) - 1)
    k = int(np.floor(r))
    frac = r - k
    vk = values[int(np.searchsorted(cum, k, side="right"))]
    if frac == 0.0:
        return float(vk)
    vj = values[int(np.searchsorted(cum, k + 1, side="right"))]
    return float(vk + frac * (vj - vk))
