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

Both use the scale-safe sorted-block shape proven by
``window.session_windows`` (VERDICT r3 #7): a distributed sort by
(key, ts) range-partitions the stream — a hot key SPLITS across blocks,
unlike a hash groupby — each sorted block reduces its key runs with pure
vectorized NumPy, and only O(1)-per-block boundary state is stitched in a
second pass (driver within ``guard.DRIVER_ROWS``, per-key ``map_groups``
above it).

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
from .window import _ts_seconds


# ---------------------------------------------------------------------------
# interval_union
# ---------------------------------------------------------------------------


def _island_schema(key_type: pa.DataType) -> pa.Schema:
    return pa.schema(
        [
            ("__key", key_type),
            ("n_intervals", pa.int64()),
            ("start", pa.float64()),
            ("end", pa.float64()),
            ("pending", pa.bool_()),
        ]
    )


def _block_islands_factory(key_col: str, start_col: str, end_col: str):
    """Per-block island kernel: rows arrive sorted by (key, start, end);
    a new island opens when start > running max(end) of the current key."""

    def block_islands(b: pa.Table) -> pa.Table:
        kcol = b[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        if len(b) == 0:
            return _island_schema(kcol.type).empty_table()
        st = b[start_col].to_numpy(zero_copy_only=False).astype(np.float64)
        en = b[end_col].to_numpy(zero_copy_only=False).astype(np.float64)
        codes = np.asarray(kcol.dictionary_encode().indices, dtype=np.int64)
        # running max(end) that RESETS per key run: subtract a per-run
        # offset large enough to dominate, cummax, add back.  Simpler and
        # branch-free: cummax within runs via segmented trick — compute
        # global cummax of (en - LARGE*code) then add back LARGE*code.
        # Floats lose precision at LARGE scale, so instead do the reset
        # with np.maximum.accumulate on a copy where run starts are -inf.
        run_start = np.ones(len(b), dtype=bool)
        run_start[1:] = codes[1:] != codes[:-1]
        # cummax of en within each key run:
        cm = en.copy()
        starts_idx = np.flatnonzero(run_start)
        # Vectorized segmented cummax: accumulate, then at each run start
        # restart.  np.maximum.accumulate has no segment support, so use
        # the standard trick: subtract per-run base AFTER accumulate is
        # wrong; loop over runs would be O(runs).  Runs per block = keys
        # per block (bounded by block rows, typically few): a Python loop
        # over run slices on a 100k-row block with 1k keys is fine, but a
        # hot single-key block needs the vectorized path — so handle the
        # common "one run" case without looping and only slice otherwise.
        if starts_idx.size == 1:
            np.maximum.accumulate(cm, out=cm)
        else:
            bounds = np.append(starts_idx, len(b))
            for i in range(starts_idx.size):
                s, e = bounds[i], bounds[i + 1]
                np.maximum.accumulate(cm[s:e], out=cm[s:e])
        new = run_start.copy()
        new[1:] |= st[1:] > cm[:-1]
        isl_start = np.flatnonzero(new)
        isl_end = np.append(isl_start[1:] - 1, len(b) - 1)
        n_isl = isl_start.size
        # island end = running-max end at the island's last row
        isl_en = cm[isl_end]
        pending = np.zeros(n_isl, dtype=bool)
        pending[0] = True
        pending[-1] = True
        return pa.table(
            {
                "__key": kcol.take(pa.array(isl_start)),
                "n_intervals": pa.array(
                    (isl_end - isl_start + 1).astype(np.int64), pa.int64()
                ),
                "start": pa.array(st[isl_start], pa.float64()),
                "end": pa.array(isl_en, pa.float64()),
                "pending": pa.array(pending),
            },
            schema=_island_schema(kcol.type),
        )

    return block_islands


def _stitch_islands_factory(key_col: str):
    """Merge boundary islands of one or more keys: sorted by (key, start),
    an island connects to the running union when start <= running max(end).
    Input is tiny (<= 2 islands per block)."""

    def stitch(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["__key", "start", "end"], kind="stable").reset_index(
            drop=True
        )
        key_arr = df["__key"].to_numpy()
        st = df["start"].to_numpy()
        en = df["end"].to_numpy()
        run_start = np.ones(len(df), dtype=bool)
        run_start[1:] = key_arr[1:] != key_arr[:-1]
        cm = en.copy()
        bounds = np.append(np.flatnonzero(run_start), len(df))
        for i in range(bounds.size - 1):
            s, e = bounds[i], bounds[i + 1]
            np.maximum.accumulate(cm[s:e], out=cm[s:e])
        new = run_start.copy()
        new[1:] |= st[1:] > cm[:-1]
        gid = np.cumsum(new) - 1
        out = (
            pd.DataFrame(
                {
                    "g": gid,
                    "__key": df["__key"],
                    "n_intervals": df["n_intervals"],
                    "start": st,
                    "end": cm,  # per-group max = last row's running max
                }
            )
            .groupby("g", sort=True)
            .agg(
                __key=("__key", "first"),
                n_intervals=("n_intervals", "sum"),
                start=("start", "min"),
                end=("end", "max"),
            )
            .reset_index(drop=True)
        )
        return out.rename(columns={"__key": key_col})[
            [key_col, "n_intervals", "start", "end"]
        ]

    return stitch


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

    Cross-block merge is a two-step stitch.  Unlike sessions, an
    interval's END is not bounded by the sort key, so a giant interval at
    the tail of block k can swallow islands deep inside later blocks —
    the pending (block-edge) islands alone are NOT a sufficient merge
    set.  Step 1 stitches the pending islands into per-key stitched
    islands S.  Step 2 routes every final (block-interior) island F that
    OVERLAPS some S (predecessor-by-start test) back into a second
    stitch.  One absorb pass is exact: a final island's end is bounded
    by the next island's start in its own block (the cummax break), so
    absorbing F can never extend S far enough to newly reach an island
    that didn't already overlap S.  Within ``guard.DRIVER_ROWS`` pending
    islands the stitch runs on the driver; above it, per key in one
    ``map_groups``.
    """
    import ray.data as rd

    srt = ds.select_columns([key_col, start_col, end_col]).sort(
        [key_col, start_col, end_col]
    )
    parts = srt.map_batches(
        _block_islands_factory(key_col, start_col, end_col),
        batch_format="pyarrow",
    ).materialize()

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: t["__key"],
                "n_intervals": t["n_intervals"],
                "start": t["start"],
                "end": t["end"],
            }
        )

    finals = parts.map_batches(
        lambda t: t.filter(pc.invert(t["pending"])), batch_format="pyarrow"
    )
    pend = parts.map_batches(
        lambda t: t.filter(t["pending"]), batch_format="pyarrow"
    ).materialize()
    stitch = _stitch_islands_factory(key_col)
    n_pending = pend.count()  # <= 2 islands per block, whatever the skew
    if n_pending == 0:
        return finals.map_batches(finalize, batch_format="pyarrow")
    key_type = pend.schema().base_schema.field("__key").type
    out_schema = pa.schema(
        [
            (key_col, key_type),
            ("n_intervals", pa.int64()),
            ("start", pa.float64()),
            ("end", pa.float64()),
        ]
    )
    if n_pending > guard.DRIVER_ROWS:
        # Skew regime: stitch per key (<= 2 rows per block per key).  The
        # absorb routing below needs the stitched islands broadcast; at
        # this scale route via a groupby instead: tag pending + finals and
        # stitch per key in one map_groups (exact — the per-key stitch is
        # a full sequential union of everything it is handed).
        tagged = pend.union(finals)  # identical schemas (pending col unused)
        return tagged.groupby("__key").map_groups(
            lambda d: pa.Table.from_pandas(
                stitch(d), schema=out_schema, preserve_index=False
            ),
            batch_format="pandas",
        )

    s0 = stitch(pend.to_pandas())  # merged pending islands, per key sorted
    # broadcast per-key stitched interval arrays for the absorb test
    lut: dict = {}
    for k, g in s0.groupby(key_col, sort=False):
        lut[k] = (g["start"].to_numpy(), g["end"].to_numpy())
    import ray as _ray

    lut_ref = _ray.put(lut)

    def route(t: pa.Table) -> pa.Table:
        """Adds __absorb: True when the final island overlaps a stitched
        island of its key (predecessor by start; starts are sorted)."""
        if len(t) == 0:
            return t.append_column("__absorb", pa.array([], pa.bool_()))
        lu = _ray.get(lut_ref)
        keys = t["__key"].to_pandas().to_numpy()
        st = t["start"].to_numpy(zero_copy_only=False)
        absorb = np.zeros(len(t), dtype=bool)
        for k in pd.unique(keys):
            ent = lu.get(k)
            if ent is None:
                continue
            m = keys == k
            idx = np.searchsorted(ent[0], st[m], side="right") - 1
            ok = idx >= 0
            hit = np.zeros(idx.size, dtype=bool)
            hit[ok] = st[m][ok] <= ent[1][idx[ok]]
            absorb[m] = hit
        return t.append_column("__absorb", pa.array(absorb))

    routed = finals.map_batches(route, batch_format="pyarrow").materialize()
    kept = routed.map_batches(
        lambda t: t.filter(pc.invert(t["__absorb"])).drop_columns(["__absorb"]),
        batch_format="pyarrow",
    ).map_batches(finalize, batch_format="pyarrow")
    absorbed = routed.map_batches(
        lambda t: t.filter(t["__absorb"]).drop_columns(["__absorb"]),
        batch_format="pyarrow",
    ).to_pandas()
    if len(absorbed):
        both = pd.concat([pend.to_pandas().drop(columns=["pending"]), absorbed])
        both = both.drop(columns=["pending"], errors="ignore")
        s_final = stitch(both)
    else:
        s_final = s0
    stitched = rd.from_arrow(
        pa.Table.from_pandas(s_final, schema=out_schema, preserve_index=False)
    )
    return kept.union(stitched)


def interval_coverage(
    ds,
    *,
    key_col: str = "user_id",
    start_col: str = "start",
    end_col: str = "end",
) -> pd.DataFrame:
    """Per-key coverage summary over the island Dataset: island count,
    total covered seconds, longest island.  The reduce is the standard
    in-batch partials → driver merge (one row per key per block)."""
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
        g = df.groupby("k", sort=False).agg(
            n_islands=("n", "size"),
            covered_s=("cov", "sum"),
            max_island_s=("cov", "max"),
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    p = islands.map_batches(partials, batch_format="pyarrow").to_pandas()
    out = (
        p.groupby("k", sort=True)
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

_GAP_SCHEMA_FIXED = [
    ("n_events", pa.int64()),
    ("n_gaps", pa.int64()),
    ("sum_gap", pa.float64()),
    ("max_gap", pa.float64()),
    ("first_ts", pa.float64()),
    ("last_ts", pa.float64()),
]


def _gap_schema(key_type: pa.DataType) -> pa.Schema:
    return pa.schema([("__key", key_type)] + _GAP_SCHEMA_FIXED)


def _block_gaps_factory(key_col: str, ts_col: str):
    """Per-block gap partials: one row per key run (a key appears as ONE
    contiguous run per sorted block) with the run's internal LAG-gap
    count/sum/max plus first/last ts for cross-block stitching."""

    def block_gaps(b: pa.Table) -> pa.Table:
        kcol = b[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        if len(b) == 0:
            return _gap_schema(kcol.type).empty_table()
        ts = _ts_seconds(b[ts_col])
        codes = np.asarray(kcol.dictionary_encode().indices, dtype=np.int64)
        run_start = np.ones(len(b), dtype=bool)
        run_start[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(run_start)
        ends = np.append(starts[1:] - 1, len(b) - 1)
        diffs = np.diff(ts)
        internal = ~run_start[1:]  # diff i = ts[i+1]-ts[i], internal iff same run
        gd = np.where(internal, diffs, 0.0)
        cum = np.concatenate([[0.0], np.cumsum(gd)])
        sum_gap = cum[ends] - cum[starts]
        # segmented max over internal diffs (runs per block are few; the
        # single-run hot-key case stays loop-free)
        n_runs = starts.size
        max_gap = np.full(n_runs, -np.inf)
        if n_runs == 1:
            if len(b) > 1:
                max_gap[0] = diffs.max()
        else:
            for i in range(n_runs):
                s, e = starts[i], ends[i]
                if e > s:
                    max_gap[i] = diffs[s:e].max()
        return pa.table(
            {
                "__key": kcol.take(pa.array(starts)),
                "n_events": pa.array(
                    (ends - starts + 1).astype(np.int64), pa.int64()
                ),
                "n_gaps": pa.array((ends - starts).astype(np.int64), pa.int64()),
                "sum_gap": pa.array(sum_gap, pa.float64()),
                "max_gap": pa.array(max_gap, pa.float64()),
                "first_ts": pa.array(ts[starts], pa.float64()),
                "last_ts": pa.array(ts[ends], pa.float64()),
            },
            schema=_gap_schema(kcol.type),
        )

    return block_gaps


def _merge_gap_partials(df: pd.DataFrame, key_col: str) -> pd.DataFrame:
    """Combine per-(block, key) run partials: sorted by (key, first_ts),
    consecutive runs of one key contribute a boundary gap
    first_ts[i+1] - last_ts[i] (blocks are contiguous time ranges after
    the sort, so run order by first_ts IS block adjacency order)."""
    df = df.sort_values(["__key", "first_ts"], kind="stable").reset_index(drop=True)
    key_arr = df["__key"].to_numpy()
    same = np.zeros(len(df), dtype=bool)
    if len(df) > 1:
        same[1:] = key_arr[1:] == key_arr[:-1]
    bgap = np.where(
        same, df["first_ts"].to_numpy() - np.roll(df["last_ts"].to_numpy(), 1), np.nan
    )
    df = df.assign(__bgap=bgap)
    g = (
        df.groupby("__key", sort=True)
        .agg(
            n_events=("n_events", "sum"),
            n_gaps=("n_gaps", "sum"),
            sum_gap=("sum_gap", "sum"),
            max_gap=("max_gap", "max"),
            _bn=("__bgap", "count"),
            _bs=("__bgap", "sum"),
            _bm=("__bgap", "max"),
        )
        .reset_index()
    )
    g["n_gaps"] = (g["n_gaps"] + g["_bn"]).astype("int64")
    g["sum_gap"] = g["sum_gap"] + g["_bs"].fillna(0.0)
    g["max_gap"] = np.maximum(g["max_gap"], g["_bm"].fillna(-np.inf))
    g["n_events"] = g["n_events"].astype("int64")
    return g.drop(columns=["_bn", "_bs", "_bm"]).rename(columns={"__key": key_col})


def event_gaps(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
) -> pd.DataFrame:
    """Per-key inter-event gap statistics (count / avg / max of the LAG
    diffs) — the crawl-politeness / burstiness audit.  One sorted pass
    emits one tiny partial row per (block, key run); the merge is
    driver-side within ``guard.DRIVER_ROWS`` partial rows and a
    per-key ``map_groups`` (each key holds <= blocks rows) above.

    Tie robustness: rows with equal (key, ts) produce the same gap
    MULTISET under any tie order, so count/avg/max match the SQL ``LAG``
    oracle regardless of how the distributed sort breaks ties.
    """
    srt = ds.select_columns([key_col, ts_col]).sort([key_col, ts_col])
    parts = srt.map_batches(
        _block_gaps_factory(key_col, ts_col), batch_format="pyarrow"
    ).materialize()
    n = parts.count()
    if n <= guard.DRIVER_ROWS:
        merged = _merge_gap_partials(parts.to_pandas(), key_col)
    else:
        merged = (
            parts.groupby("__key")
            .map_groups(
                lambda d: _merge_gap_partials(d, key_col), batch_format="pandas"
            )
            .to_pandas()
            .sort_values(key_col)
            .reset_index(drop=True)
        )
    out = merged[[key_col, "n_events", "n_gaps", "sum_gap", "max_gap"]].copy()
    out["avg_gap_s"] = np.where(
        out["n_gaps"] > 0, out["sum_gap"] / out["n_gaps"], np.nan
    )
    out["max_gap_s"] = np.where(out["n_gaps"] > 0, out["max_gap"], np.nan)
    return out[[key_col, "n_events", "n_gaps", "avg_gap_s", "max_gap_s"]]


# ---------------------------------------------------------------------------
# event_transitions — the Markov transition matrix of per-key event
# sequences (funnel/journey mining; the sequence-statistics sibling of
# event_gaps, same sorted-block + boundary-stitch machinery).
# ---------------------------------------------------------------------------


def _block_transitions_factory(key_col: str, ts_col: str, type_col: str, id_col: str):
    def block_trans(b: pa.Table) -> pa.Table:
        """Per-block partials: (from, to, n) counts of consecutive-type
        pairs inside key runs, PLUS one boundary row per key run
        (first_ts/first_id/first_type/last_type) for cross-block stitch.
        Both shapes ride one table with a discriminator column."""
        empty = pa.table(
            {
                "__key": pa.array([], pa.int64()),
                "from_type": pa.array([], pa.string()),
                "to_type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "first_ts": pa.array([], pa.float64()),
                "first_id": pa.array([], pa.int64()),
                "is_boundary": pa.array([], pa.bool_()),
            }
        )
        if len(b) == 0:
            return empty
        kcol = b[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        tcol = b[type_col]
        if isinstance(tcol, pa.ChunkedArray):
            tcol = tcol.combine_chunks()
        enc = tcol.dictionary_encode()
        tcodes = np.asarray(enc.indices, dtype=np.int64)
        tdict = enc.dictionary.to_pylist()
        keys = kcol.to_numpy(zero_copy_only=False).astype(np.int64)
        ts = _ts_seconds(b[ts_col])
        eids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        run_start = np.ones(len(b), dtype=bool)
        run_start[1:] = keys[1:] != keys[:-1]
        internal = ~run_start[1:]
        frm = tcodes[:-1][internal]
        to = tcodes[1:][internal]
        K = np.int64(len(tdict))
        pairkey = frm * K + to
        up, cnt = np.unique(pairkey, return_counts=True)
        starts = np.flatnonzero(run_start)
        ends = np.append(starts[1:] - 1, len(b) - 1)
        n_pairs = up.size
        n_runs = starts.size
        return pa.table(
            {
                "__key": pa.array(
                    np.concatenate([np.full(n_pairs, -1, np.int64), keys[starts]])
                ),
                "from_type": pa.array(
                    [tdict[i] for i in (up // K).tolist()]
                    + [tdict[i] for i in tcodes[starts].tolist()],
                    pa.string(),
                ),
                "to_type": pa.array(
                    [tdict[i] for i in (up % K).tolist()]
                    + [tdict[i] for i in tcodes[ends].tolist()],
                    pa.string(),
                ),
                "n": pa.array(
                    np.concatenate([cnt.astype(np.int64), np.zeros(n_runs, np.int64)])
                ),
                "first_ts": pa.array(
                    np.concatenate([np.zeros(n_pairs), ts[starts]]), pa.float64()
                ),
                "first_id": pa.array(
                    np.concatenate([np.zeros(n_pairs, np.int64), eids[starts]])
                ),
                "is_boundary": pa.array(
                    np.concatenate(
                        [np.zeros(n_pairs, bool), np.ones(n_runs, bool)]
                    )
                ),
            }
        )

    return block_trans


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
    n / Σ n over the from_type row (6-dp).  One distributed sort; counts
    are in-block partials; only O(2 per block-run) boundary rows stitch
    on the driver (boundary rows carry from/to types of the run edges —
    for a boundary row ``from_type`` holds the run's FIRST type and
    ``to_type`` its LAST)."""
    srt = ds.select_columns([key_col, ts_col, type_col, id_col]).sort(
        [key_col, ts_col, id_col]
    )
    parts = srt.map_batches(
        _block_transitions_factory(key_col, ts_col, type_col, id_col),
        batch_format="pyarrow",
    ).to_pandas()
    counts = (
        parts[~parts["is_boundary"]]
        .groupby(["from_type", "to_type"], sort=False)["n"]
        .sum()
        .to_dict()
    )
    bd = parts[parts["is_boundary"]].sort_values(
        ["__key", "first_ts", "first_id"], kind="stable"
    )
    keys = bd["__key"].to_numpy()
    same = np.zeros(len(bd), dtype=bool)
    if len(bd) > 1:
        same[1:] = keys[1:] == keys[:-1]
    # cross-block transition: previous run's LAST type → this run's FIRST
    prev_last = np.roll(bd["to_type"].to_numpy(dtype=object), 1)
    cur_first = bd["from_type"].to_numpy(dtype=object)
    for f, t in zip(prev_last[same], cur_first[same]):
        counts[(f, t)] = counts.get((f, t), 0) + 1
    if not counts:
        return pd.DataFrame(
            {
                "from_type": pd.Series(dtype="object"),
                "to_type": pd.Series(dtype="object"),
                "n": pd.Series(dtype="int64"),
                "p": pd.Series(dtype="float64"),
            }
        )
    out = pd.DataFrame(
        [(f, t, n) for (f, t), n in counts.items()],
        columns=["from_type", "to_type", "n"],
    ).sort_values(["from_type", "to_type"]).reset_index(drop=True)
    tot = out.groupby("from_type")["n"].transform("sum")
    out["p"] = np.round(out["n"] / tot, 6) + 0.0
    out["n"] = out["n"].astype("int64")
    return out


# ---------------------------------------------------------------------------
# twap — time-weighted average value per key (each event's value holds
# until the next event; the step-function integral / total-span ratio).
# Same sorted-block + boundary-merge machinery as event_gaps, with a
# value carry: boundary segments are weighted by the PREVIOUS run's last
# value.
# ---------------------------------------------------------------------------


def _block_twap_factory(key_col: str, ts_col: str, val_col: str, id_col: str):
    def block_twap(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "__key": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "segsum": pa.array([], pa.float64()),
                "first_ts": pa.array([], pa.float64()),
                "first_id": pa.array([], pa.int64()),
                "last_ts": pa.array([], pa.float64()),
                "last_val": pa.array([], pa.float64()),
            }
        )
        if len(b) == 0:
            return empty
        keys = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = _ts_seconds(b[ts_col])
        vals = b[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        eids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        run_start = np.ones(len(b), dtype=bool)
        run_start[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(run_start)
        ends = np.append(starts[1:] - 1, len(b) - 1)
        seg = np.where(~run_start[1:], np.diff(ts) * vals[:-1], 0.0)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        segsum = cum[ends] - cum[starts]
        return pa.table(
            {
                "__key": pa.array(keys[starts]),
                "n_events": pa.array((ends - starts + 1).astype(np.int64)),
                "segsum": pa.array(segsum, pa.float64()),
                "first_ts": pa.array(ts[starts], pa.float64()),
                "first_id": pa.array(eids[starts]),
                "last_ts": pa.array(ts[ends], pa.float64()),
                "last_val": pa.array(vals[ends], pa.float64()),
            }
        )

    return block_twap


def twap_by_key(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    id_col: str = "event_id",
) -> pd.DataFrame:
    """→ DataFrame(key, n_events, twap): Σ (t_{i+1} − t_i)·v_i / (t_last −
    t_first) per key, events ordered by (ts, id).  Keys with a single
    event are excluded (no span).  One distributed sort; per-run
    partials; boundary segments stitched in (first_ts, first_id) order
    (block adjacency — sort tuples are unique via the id column)."""
    srt = ds.select_columns([key_col, ts_col, val_col, id_col]).sort(
        [key_col, ts_col, id_col]
    )
    parts = srt.map_batches(
        _block_twap_factory(key_col, ts_col, val_col, id_col),
        batch_format="pyarrow",
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame(
            {
                key_col: pd.Series(dtype="int64"),
                "n_events": pd.Series(dtype="int64"),
                "twap": pd.Series(dtype="float64"),
            }
        )
    parts = parts.sort_values(["__key", "first_ts", "first_id"], kind="stable")
    keys = parts["__key"].to_numpy()
    same = np.zeros(len(parts), dtype=bool)
    if len(parts) > 1:
        same[1:] = keys[1:] == keys[:-1]
    bseg = np.where(
        same,
        (parts["first_ts"].to_numpy() - np.roll(parts["last_ts"].to_numpy(), 1))
        * np.roll(parts["last_val"].to_numpy(), 1),
        0.0,
    )
    parts = parts.assign(__bseg=bseg)
    g = (
        parts.groupby("__key", sort=True)
        .agg(
            n_events=("n_events", "sum"),
            segsum=("segsum", "sum"),
            bsum=("__bseg", "sum"),
            first_ts=("first_ts", "min"),
            last_ts=("last_ts", "max"),
        )
        .reset_index()
    )
    g = g[g["n_events"] > 1].reset_index(drop=True)
    span = g["last_ts"] - g["first_ts"]
    g["twap"] = np.round((g["segsum"] + g["bsum"]) / span, 6) + 0.0
    g["n_events"] = g["n_events"].astype("int64")
    return g.rename(columns={"__key": key_col})[[key_col, "n_events", "twap"]]


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
    ``interval_union``'s island stitch (giant-interval absorb included) —
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
