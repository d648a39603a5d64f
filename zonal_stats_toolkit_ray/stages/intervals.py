"""Interval-union coverage and inter-event-gap statistics over the
timestamped ``events`` stream.

Two classic gaps-and-islands operators the reference's GDAL pipeline has no
analogue for but any event/crawl-log curation pipeline needs (coverage
auditing, burst detection, crawl-politeness gap checks):

* :func:`interval_union` — per key, merge the connected components of a set
  of intervals (the SQL "islands" pattern: ``MAX(end) OVER (... ROWS
  UNBOUNDED PRECEDING AND 1 PRECEDING)`` + a cumulative new-island flag)
  and report island count, total covered seconds and the longest island.
* :func:`event_gaps` — per key, COUNT/AVG/MAX of the ``LAG``-style gaps
  between consecutive event timestamps.

Both run as one keyed block scan (``stages/scan.py``): a
distributed sort by (key, ts) range-partitions the stream — a hot key
SPLITS across blocks, unlike a hash groupby — each sorted block reduces
its key runs with vectorized NumPy, and the driver chains one edge row
per block into the carry of the next.  :func:`event_transitions` and
:func:`twap_by_key` ride on the same scan.

Why the boundary invariant holds for islands: within a sorted block, a
middle island M precedes the block's last island L, and L opened because
``L.start > running_max(end)`` — so ``M.end < L.start``.  Every row of the
NEXT block has ``start >= L.start`` (range partitioning on sort keys),
hence M can never connect forward; symmetrically only the first island can
connect backward.  A connected union of intervals is itself one interval,
so merged islands stay (start, end) pairs and covered = end - start.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard
from .scan import block_scan, group_chain
from .window import _ts_seconds


# ---------------------------------------------------------------------------
# interval_union
# ---------------------------------------------------------------------------


def interval_union(
    ds,
    *,
    key_col: str = "user_id",
    start_col: str = "start",
    end_col: str = "end",
):
    """Union the intervals [start, end] per key into connected islands.

    Returns the per-island Dataset ``(key, n_intervals, start, end)`` —
    corpus-sized, so it streams.  Touching intervals (next.start ==
    prev.end) CONNECT (the closed-interval convention, matching the SQL
    ``start > cummax(end)`` island break).

    One keyed block scan (``stages/scan.py``) over the (key, start, end)
    sort, with the open island ``(start, E = running max end, n)`` as the
    carry:

    * edge: the first key run's first and last island start, running max
      end and row count, and the last run's last island — one row;
    * chain: exactly the leading islands of a block with ``start ≤ E``
      merge into the carry.  A later island opened because its start
      exceeds the running max of the block's earlier ends, and it also
      exceeds ``E``, so nothing it reaches was reachable before.  An
      interval's end is not bounded by the sort, so one giant interval can
      swallow whole blocks: a one-run block whose last island merges
      passes the grown island on;
    * apply: islands per block (segmented running max), the carry merged
      into the leading ones, the last island left out when a later block
      continues it."""

    def islands(b: pa.Table, starts, ends):
        """→ (start, first row, last row, end) of every island in block
        order.  The running max of ``end`` restarts per key run: a cummax
        of run-banded ranks of ``end``."""
        st = b[start_col].to_numpy(zero_copy_only=False).astype(np.float64)
        en = b[end_col].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(en, kind="stable")
        rank = np.empty(en.size, dtype=np.int64)
        rank[order] = np.arange(en.size)
        run = np.repeat(np.arange(starts.size, dtype=np.int64), ends - starts)
        band = run * en.size
        cm = en[order[np.maximum.accumulate(band + rank) - band]]
        new = np.zeros(en.size, dtype=bool)
        new[starts] = True
        new[1:] |= st[1:] > cm[:-1]
        i0 = np.flatnonzero(new)
        i1 = np.r_[i0[1:], en.size] - 1
        return st, i0, i1, cm[i1]

    def edge(b: pa.Table, starts, ends) -> list:
        st, i0, i1, e = islands(b, starts, ends)
        k = np.searchsorted(i0, ends[0]) - 1  # first run's last island
        n = int(i1[-1] - i0[-1] + 1)
        return [(st[0], st[i0[k]], e[k], int(ends[0]), st[i0[-1]], e[-1], n)]

    def step(open_, blk):
        first, last, top, rows, start, end, n = blk.edge[0]
        if open_ is None or first > open_[1]:
            return None, (start, end, n)
        if blk.one_run and last <= open_[1]:
            return open_, (open_[0], max(open_[1], top), open_[2] + rows)
        return open_, (start, end, n)

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        st, i0, i1, end = islands(b, starts, ends)
        start, n = st[i0], i1 - i0 + 1
        joined, later = carry or (None, False)
        keep = np.ones(i0.size, dtype=bool)
        if joined is not None:
            m = int(np.sum((i0 < ends[0]) & (start <= joined[1])))
            start[m - 1] = joined[0]
            end[m - 1] = max(joined[1], end[m - 1])
            n[m - 1] = joined[2] + n[:m].sum()
            keep[: m - 1] = False
        keep[-1] &= not later
        return pa.table(
            {
                key_col: b[key_col].take(pa.array(i0[keep])),
                "n_intervals": pa.array(n[keep], pa.int64()),
                "start": pa.array(start[keep], pa.float64()),
                "end": pa.array(end[keep], pa.float64()),
            }
        )

    return block_scan(
        ds,
        op="intervals.interval_union",
        key=key_col,
        order=[start_col, end_col],
        cols=[key_col, start_col, end_col],
        edge=edge,
        chain=lambda blocks: group_chain(blocks, step),
        apply=apply,
    )


def interval_coverage(
    ds,
    *,
    key_col: str = "user_id",
    start_col: str = "start",
    end_col: str = "end",
) -> pd.DataFrame:
    """Per-key coverage summary over the island Dataset: island count,
    total covered seconds, longest island.  The reduce is the standard
    in-batch partials → driver merge (one row per key per block); a NULL
    key is a key of its own, sorted last."""
    islands = interval_union(
        ds, key_col=key_col, start_col=start_col, end_col=end_col
    )

    def partials(t: pa.Table) -> pa.Table:
        cov = pc.subtract(t["end"], t["start"])
        df = pd.DataFrame(
            {
                "k": t[key_col].to_pandas(),
                "n": t["n_intervals"].to_pandas(),
                "cov": cov.to_pandas(),
            }
        )
        g = df.groupby("k", sort=False, dropna=False).agg(
            n_islands=("n", "size"),
            covered_s=("cov", "sum"),
            max_island_s=("cov", "max"),
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    p = islands.map_batches(partials, batch_format="pyarrow").to_pandas()
    out = (
        p.groupby("k", sort=True, dropna=False)  # NULL key kept, last
        .agg(
            n_islands=("n_islands", "sum"),
            covered_s=("covered_s", "sum"),
            max_island_s=("max_island_s", "max"),
        )
        .reset_index()
        .rename(columns={"k": key_col})
    )
    out["n_islands"] = out["n_islands"].astype("int64")
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# event_gaps
# ---------------------------------------------------------------------------


def _key_frame(out, key_col: str, cols: dict) -> pd.DataFrame:
    """The per-key rows of a block scan → DataFrame sorted by key, NULL
    last; an empty scan gives the typed empty frame of ``cols``."""
    df = out.to_pandas()
    if key_col not in df.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return df.sort_values(key_col, kind="stable").reset_index(drop=True)


def _open_key_kernels(runs, merge):
    """(edge, chain, partials) of a per-key scan whose carry is the open
    key's partial: ``runs`` gives per-run partial arrays, ``merge(a, b)``
    folds ``b`` in after ``a``, and ``partials`` merges the carry into the
    first run and gives the runs the block emits."""

    def edge(b: pa.Table, starts, ends) -> list:
        return [tuple(x[-1].item() for x in runs(b, starts, ends))]

    def step(open_, blk):
        last = blk.edge[0]
        if open_ is not None and blk.one_run:
            return open_, merge(open_, last)
        return open_, last

    def partials(b: pa.Table, starts, ends, carry):
        p = runs(b, starts, ends)
        joined, later = carry or (None, False)
        if joined is not None:
            for x, v in zip(p, merge(joined, [x[0] for x in p])):
                x[0] = v
        return p, np.arange(starts.size - 1 if later else starts.size)

    return edge, (lambda blocks: group_chain(blocks, step)), partials


def event_gaps(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
) -> pd.DataFrame:
    """Per-key inter-event gap statistics (count / avg / max of the LAG
    diffs) — the crawl-politeness / burstiness audit → DataFrame(key,
    n_events, n_gaps, avg_gap_s, max_gap_s) sorted by key, NULL last.

    One keyed block scan (``stages/scan.py``) over the (key, ts) sort.
    The carry is the open key's running partial ``(n_events, n_gaps,
    sum_gap, max_gap, first_ts, last_ts)``; the edge is the block's last
    run's partial.  A block merges the carry into its first run (one more
    gap, ``first_ts − carry last_ts``) and emits every run except a last
    one that continues into the next block, so each key comes out as
    exactly one row.

    Tie robustness: rows with equal (key, ts) produce the same gap
    MULTISET under any tie order, so count/avg/max match the SQL ``LAG``
    oracle regardless of how the distributed sort breaks ties.
    """

    def runs(b: pa.Table, starts, ends) -> list:
        """Per-run partials as arrays, in the carry's field order."""
        ts = _ts_seconds(b[ts_col])
        gap = np.r_[-np.inf, np.diff(ts)]
        gap[starts] = -np.inf  # no gap into a run's first row
        n = ends - starts
        return [
            n,
            n - 1,
            np.add.reduceat(np.where(np.isneginf(gap), 0.0, gap), starts),
            np.maximum.reduceat(gap, starts),
            ts[starts],
            ts[ends - 1],
        ]

    def merge(a, b):
        d = b[4] - a[5]  # the gap between the two runs
        n, gaps, total = a[0] + b[0], a[1] + b[1] + 1, a[2] + b[2] + d
        return n, gaps, total, max(a[3], b[3], d), a[4], b[5]

    edge, chain, partials = _open_key_kernels(runs, merge)

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        p, keep = partials(b, starts, ends, carry)
        n, ng, sg, mg = (x[keep] for x in p[:4])
        has = ng > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(has, sg / ng, np.nan)
        return pa.table(
            {
                key_col: b[key_col].take(pa.array(starts[keep])),
                "n_events": pa.array(n, pa.int64()),
                "n_gaps": pa.array(ng, pa.int64()),
                "avg_gap_s": pa.array(avg, pa.float64()),
                "max_gap_s": pa.array(np.where(has, mg, np.nan), pa.float64()),
            }
        )

    out = block_scan(
        ds,
        op="intervals.event_gaps",
        key=key_col,
        order=[ts_col],
        cols=[key_col, ts_col],
        edge=edge,
        chain=chain,
        apply=apply,
    )
    return _key_frame(
        out,
        key_col,
        {key_col: "int64", "n_events": "int64", "n_gaps": "int64",
         "avg_gap_s": "float64", "max_gap_s": "float64"},
    )


# ---------------------------------------------------------------------------
# event_transitions — the Markov transition matrix of per-key event
# sequences (funnel/journey mining; the sequence-statistics sibling of
# event_gaps, on the same keyed block scan).
# ---------------------------------------------------------------------------


def event_transitions(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
) -> pd.DataFrame:
    """Global Markov transition counts over per-key event sequences
    ordered by (ts, id) → DataFrame(from_type, to_type, n, p) with p =
    n / Σ n over the from_type row (6-dp).

    One keyed block scan (``stages/scan.py``) over the (key, ts, id)
    sort: the edge is the block's last type, the carry the last type
    before a block whose first run continues that key.  Each block counts
    its in-run pairs plus the one boundary pair (≤ types² rows per block),
    and ``guard.group_sums`` merges the counts."""

    def edge(b: pa.Table, starts, ends) -> list:
        return [b[type_col][len(b) - 1].as_py()]

    def chain(blocks) -> list:
        return [
            (prev.edge[0],) if blk.cont else None
            for prev, blk in zip([None, *blocks], blocks)
        ]

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        t = b[type_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        enc = t.dictionary_encode(null_encoding="encode")
        codes = np.asarray(enc.indices, dtype=np.int64)
        inner = np.ones(codes.size, dtype=bool)
        inner[starts] = False  # a pair (i−1, i) inside one run
        k = len(enc.dictionary)
        pair, cnt = np.unique(
            codes[:-1][inner[1:]] * k + codes[1:][inner[1:]], return_counts=True
        )
        frm = enc.dictionary.take(pa.array(pair // k))
        to = enc.dictionary.take(pa.array(pair % k))
        if carry is not None:
            frm = pa.concat_arrays([frm, pa.array([carry[0]], t.type)])
            to = pa.concat_arrays([to, t.slice(0, 1)])
            cnt = np.r_[cnt, 1]
        return pa.table(
            {"from_type": frm, "to_type": to, "n": pa.array(cnt, pa.int64())}
        )

    out = guard.group_sums(
        block_scan(
            ds,
            op="intervals.event_transitions",
            key=key_col,
            order=[ts_col, id_col],
            cols=[key_col, ts_col, type_col, id_col],
            edge=edge,
            chain=chain,
            apply=apply,
        ),
        ["from_type", "to_type"],
        ["n"],
    )
    out["n"] = out["n"].astype("int64")
    tot = out.groupby("from_type")["n"].transform("sum")
    out["p"] = np.round(out["n"] / tot, 6) + 0.0
    return out


# ---------------------------------------------------------------------------
# twap — time-weighted average value per key (each event's value holds
# until the next event; the step-function integral / total-span ratio).
# ---------------------------------------------------------------------------


def twap_by_key(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    id_col: str = "event_id",
) -> pd.DataFrame:
    """→ DataFrame(key, n_events, twap): Σ (t_{i+1} − t_i)·v_i / (t_last −
    t_first) per key, events ordered by (ts, id), sorted by key (NULL
    last).  Keys with a single event are excluded (no span).

    One keyed block scan (``stages/scan.py``) over the (key, ts, id) sort,
    shaped like :func:`event_gaps`: the carry is the open key's partial
    ``(n, segsum, first_ts, last_ts, last_val)``, and merging it into a
    block's first run adds the boundary segment ``(first_ts − last_ts) ·
    last_val``."""

    def runs(b: pa.Table, starts, ends) -> list:
        ts = _ts_seconds(b[ts_col])
        v = b[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        seg = np.r_[0.0, np.diff(ts) * v[:-1]]
        seg[starts] = 0.0  # no segment into a run's first row
        n, last = ends - starts, ends - 1
        return [n, np.add.reduceat(seg, starts), ts[starts], ts[last], v[last]]

    def merge(a, b):
        return (a[0] + b[0], a[1] + b[1] + (b[2] - a[3]) * a[4], a[2], b[3], b[4])

    edge, chain, partials = _open_key_kernels(runs, merge)

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        p, keep = partials(b, starts, ends, carry)
        keep = keep[p[0][keep] > 1]
        n, segsum, first, last = (x[keep] for x in p[:4])
        with np.errstate(invalid="ignore", divide="ignore"):
            twap = np.round(segsum / (last - first), 6) + 0.0
        return pa.table(
            {
                key_col: b[key_col].take(pa.array(starts[keep])),
                "n_events": pa.array(n, pa.int64()),
                "twap": pa.array(twap, pa.float64()),
            }
        )

    out = block_scan(
        ds,
        op="intervals.twap_by_key",
        key=key_col,
        order=[ts_col, id_col],
        cols=[key_col, ts_col, val_col, id_col],
        edge=edge,
        chain=chain,
        apply=apply,
    )
    return _key_frame(
        out, key_col, {key_col: "int64", "n_events": "int64", "twap": "float64"}
    )


def max_streak_by_key(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    unit_us: int = 86_400_000_000,
):
    """Longest run of CONSECUTIVE active periods (days by default) per key
    → DataFrame(key, max_streak) — the classic gaps-and-islands streak.

    Composition over existing distributed kernels, no new shuffle shapes:
    distinct (key, period) via the in-batch-combiner distinct (only the
    per-block distinct universe shuffles), each period becomes the closed
    interval [p, p+1] — consecutive periods TOUCH and connect under
    ``interval_union``'s block-scan carry (giant intervals included) —
    and the streak is the island length.  The final per-key max is a
    groupby over the islands Dataset (island rows ≤ distinct periods)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    from .joins import distinct_rows

    def to_period(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b[ts_col], pa.timestamp("us")), pa.int64())
        us = us.to_numpy(zero_copy_only=False)
        return pa.table(
            {key_col: b[key_col], "period": pa.array(us // unit_us, pa.int64())}
        )

    periods = distinct_rows(
        ds.select_columns([key_col, ts_col]).map_batches(
            to_period, batch_format="pyarrow"
        ),
        [key_col, "period"],
    )

    def to_iv(b: pa.Table) -> pa.Table:
        if "period" not in b.column_names:  # schemaless empty block
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "start": pa.array([], pa.float64()),
                    "end": pa.array([], pa.float64()),
                }
            )
        p = b["period"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                key_col: b[key_col],
                "start": pa.array(p, pa.float64()),
                "end": pa.array(p + 1.0, pa.float64()),
            }
        )

    islands = interval_union(
        periods.map_batches(to_iv, batch_format="pyarrow"),
        key_col=key_col,
        start_col="start",
        end_col="end",
    )

    def streaks(b: pa.Table) -> pa.Table:
        if "start" not in b.column_names:
            return pa.table(
                {key_col: pa.array([], pa.int64()), "streak": pa.array([], pa.int64())}
            )
        s = b["start"].to_numpy(zero_copy_only=False)
        e = b["end"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key_col: b[key_col],
                "streak": pa.array(np.rint(e - s).astype(np.int64), pa.int64()),
            }
        )

    out = (
        islands.map_batches(streaks, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Max("streak", alias_name="max_streak"))
        .to_pandas()
    )
    return out.sort_values(key_col).reset_index(drop=True)
