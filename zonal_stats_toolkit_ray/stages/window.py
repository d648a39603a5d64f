"""Windowed aggregates over the timestamped ``events`` stream table.

Ray Data has no event-time windowing; the engine implements the standard
batch shapes (ray_guide streaming section): tumbling / hopping windows as a
vectorized timestamp-truncate ``map_batches`` + partial-aggregate →
groupby-merge (same two-level reduce as the zonal path), and session
windows as per-key ``map_groups`` over ts-sorted groups.  Oracle SQL:
``date_trunc`` / window functions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard


def tumbling_window_batch(
    batch: pa.Table,
    *,
    ts_col: str = "ts",
    every: str = "hour",
) -> pa.Table:
    """Adds ``window_start`` = ts truncated to the window (calendar unit)."""
    w = pc.floor_temporal(batch[ts_col], unit=every)
    return batch.append_column("window_start", w)


def windowed_aggregate(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    every: str = "hour",
) -> pd.DataFrame:
    """Tumbling-window grouped aggregate: (key, window) → n_events,
    sum_value, min_value, max_value.  Partial per batch, tiny merge shuffle."""

    def partials(b: pa.Table) -> pa.Table:
        b = tumbling_window_batch(b, ts_col=ts_col, every=every)
        df = pd.DataFrame(
            {
                "key": b[key_col].to_pandas(),
                "w": b["window_start"].to_pandas(),
                "v": b[value_col].to_pandas(),
            }
        )
        g = df.groupby(["key", "w"], sort=False).agg(
            n_events=("v", "size"),
            sum_value=("v", "sum"),
            min_value=("v", "min"),
            max_value=("v", "max"),
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    p = ds.map_batches(partials, batch_format="pyarrow")
    # final merge of the tiny partials frame on the driver (one row per
    # (key, window, block) — a distributed shuffle's fixed cost dwarfs it)
    pdf = p.to_pandas()
    out = (
        pdf.groupby(["key", "w"], sort=False)
        .agg(
            n_events=("n_events", "sum"),
            sum_value=("sum_value", "sum"),
            min_value=("min_value", "min"),
            max_value=("max_value", "max"),
        )
        .reset_index()
        .rename(columns={"key": key_col, "w": "window_start"})
    )
    return out.sort_values([key_col, "window_start"]).reset_index(drop=True)


def hopping_aggregate(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    length_s: int = 3600,
    hop_s: int = 1800,
) -> pd.DataFrame:
    """HOPPING (sliding) window grouped aggregate: windows of ``length_s``
    starting every ``hop_s`` (overlapping when hop < length), keyed by
    epoch-second window_start.  Each event belongs to exactly
    ``length_s // hop_s`` windows, so the batch stage replicates rows that
    many times with vectorized arithmetic (np.repeat + per-copy offsets),
    partial-aggregates in-batch, and the tiny (key, window, block) partial
    rows merge on the driver — same two-level shape as the tumbling path.
    Oracle SQL: cross join against ``unnest(range(length/hop))``.
    """
    if length_s % hop_s != 0:
        raise ValueError("length_s must be a multiple of hop_s")
    k = length_s // hop_s

    def partials(b: pa.Table) -> pa.Table:
        # normalize the timestamp unit explicitly (same rule as
        # session_windows): an Arrow version surfacing timestamp[ns] would
        # otherwise shift every window start by 1000×
        es = (
            pc.cast(pc.cast(b[ts_col], pa.timestamp("us")), pa.int64())
            .to_numpy(zero_copy_only=False)
            // 1_000_000
        )  # → epoch seconds
        base = (es // hop_s) * hop_s
        ws = np.repeat(base, k) - np.tile(
            np.arange(k, dtype=np.int64) * hop_s, es.size
        )
        # dictionary-encode the (low-cardinality) key so the hot groupby
        # runs on machine ints, not per-batch Python-object arrays
        kcol = b[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        enc = kcol.dictionary_encode()
        codes = np.repeat(
            np.asarray(enc.indices, dtype=np.int64), k
        )
        vals = np.repeat(
            b[value_col].to_numpy(zero_copy_only=False).astype(np.float64), k
        )
        df = pd.DataFrame({"kc": codes, "ws": ws, "v": vals})
        g = (
            df.groupby(["kc", "ws"], sort=False)
            .agg(n_events=("v", "size"), sum_value=("v", "sum"))
            .reset_index()
        )
        kdict = enc.dictionary.to_pylist()  # tiny: one entry per distinct key
        g["key"] = [kdict[i] for i in g.pop("kc")]
        return pa.Table.from_pandas(
            g[["key", "ws", "n_events", "sum_value"]], preserve_index=False
        )

    p = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    out = (
        p.groupby(["key", "ws"], sort=False)
        .agg(n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
        .reset_index()
        .rename(columns={"key": key_col, "ws": "window_start"})
    )
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values([key_col, "window_start"]).reset_index(drop=True)


def _ts_seconds(col) -> np.ndarray:
    """timestamp column → float64 epoch seconds with an explicit unit
    normalization (arrow→pandas may surface [us] or [ns] depending on
    versions; a raw int64 view would be off by 1000× in one of them)."""
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        return (
            pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
            .to_numpy(zero_copy_only=False)
            / 1e6
        )
    return np.asarray(col).astype("datetime64[us]").astype("int64") / 1e6


def _sessions_schema(key_type: pa.DataType) -> pa.Schema:
    return pa.schema(
        [
            ("__key", key_type),
            ("n_events", pa.int64()),
            ("start", pa.float64()),
            ("end", pa.float64()),
            ("pending", pa.bool_()),
        ]
    )


def session_windows(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    gap_seconds: float = 1800.0,
):
    """Session windowing per key: a new session starts when the gap to the
    previous event exceeds ``gap_seconds``.  Returns the per-session
    **Dataset** (one row per session — corpus-sized, so it streams).

    A distributed sort by (key, ts) range-partitions the events (a hot
    key SPLITS across blocks — the range partitioner cuts between equal
    keys at different timestamps, unlike a hash groupby which lands a
    10^8-event bot user on one worker), each sorted block sessionizes its
    key runs with pure vectorized NumPy, and only the first/last session
    of each block — the ones that may continue in a neighboring block —
    are stitched in a second pass (two boundary sessions per block,
    independent of event count, stitched on the driver within
    ``guard.DRIVER_ROWS`` and per key above; a session spanning a block
    edge merges iff its gap ≤ threshold, chains across any number of
    blocks).  Results are exactly equal to :func:`session_windows_ref`
    (tests pin equality, including a one-key stress)."""

    def finalize(b: pa.Table) -> pa.Table:
        dur = pc.subtract(b["end"], b["start"])
        return pa.table(
            {
                key_col: b["__key"],
                "n_events": b["n_events"],
                "start": b["start"],
                "end": b["end"],
                "duration_s": dur,
            }
        )

    srt = ds.select_columns([key_col, ts_col]).sort([key_col, ts_col])

    def block_sessions(b: pa.Table) -> pa.Table:
        # rows arrive sorted by (key, ts) within the block
        kcol = b[key_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        if len(b) == 0:
            return _sessions_schema(kcol.type).empty_table()
        ts = _ts_seconds(b[ts_col])
        # key-run boundaries without materializing Python objects: compare
        # the dictionary codes (works for any key dtype)
        codes = np.asarray(kcol.dictionary_encode().indices, dtype=np.int64)
        new = np.ones(len(b), dtype=bool)
        new[1:] = (codes[1:] != codes[:-1]) | ((ts[1:] - ts[:-1]) > gap_seconds)
        starts = np.flatnonzero(new)
        ends = np.concatenate([starts[1:] - 1, [len(b) - 1]])
        n_sessions = starts.size
        pending = np.zeros(n_sessions, dtype=bool)
        pending[0] = True  # may continue the previous block's last session
        pending[-1] = True  # may continue into the next block
        return pa.table(
            {
                "__key": kcol.take(pa.array(starts)),
                "n_events": pa.array(
                    (ends - starts + 1).astype(np.int64), pa.int64()
                ),
                "start": pa.array(ts[starts], pa.float64()),
                "end": pa.array(ts[ends], pa.float64()),
                "pending": pa.array(pending),
            },
            schema=_sessions_schema(kcol.type),
        )

    parts = srt.map_batches(block_sessions, batch_format="pyarrow").materialize()
    finals = parts.map_batches(
        lambda t: t.filter(pc.invert(t["pending"])), batch_format="pyarrow"
    ).map_batches(finalize, batch_format="pyarrow")
    pend = parts.map_batches(
        lambda t: t.filter(t["pending"]), batch_format="pyarrow"
    )

    def stitch_frame(df: pd.DataFrame) -> pd.DataFrame:
        """Merge boundary sessions: sorted by (key, start); non-overlapping
        intervals of one key merge when start − prev_end ≤ gap — the SAME
        cumsum grouping as event sessionization, over interval rows."""
        df = df.sort_values(["__key", "start"], kind="stable").reset_index(drop=True)
        key_arr = df["__key"].to_numpy()
        st = df["start"].to_numpy()
        en = df["end"].to_numpy()
        new = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            new[1:] = (key_arr[1:] != key_arr[:-1]) | (
                (st[1:] - en[:-1]) > gap_seconds
            )
        gid = np.cumsum(new) - 1
        out = (
            pd.DataFrame(
                {
                    "g": gid,
                    "__key": df["__key"],
                    "n_events": df["n_events"],
                    "start": st,
                    "end": en,
                }
            )
            .groupby("g", sort=True)
            .agg(
                __key=("__key", "first"),
                n_events=("n_events", "sum"),
                start=("start", "min"),
                end=("end", "max"),
            )
            .reset_index(drop=True)
        )
        out["duration_s"] = out["end"] - out["start"]
        return out.rename(columns={"__key": key_col})[
            [key_col, "n_events", "start", "end", "duration_s"]
        ]

    import ray.data as rd

    pend = pend.materialize()
    n_pending = pend.count()  # ≤ 2 sessions per block, whatever the skew
    if n_pending == 0:
        return finals
    if n_pending <= guard.DRIVER_ROWS:
        stitched = rd.from_pandas(stitch_frame(pend.to_pandas()))
    else:
        # per-key stitch: rows per key ≤ 2 × blocks containing that key —
        # bounded by the block count, never by the key's event count
        stitched = pend.groupby("__key").map_groups(
            stitch_frame, batch_format="pandas"
        )
    return finals.union(stitched)


def session_windows_ref(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    gap_seconds: float = 1800.0,
):
    """Per-key ``map_groups`` reference of :func:`session_windows` for
    tests (O(key) materialization)."""

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ts_col)
        ts = _ts_seconds(g[ts_col])
        new = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            new[1:] = (ts[1:] - ts[:-1]) > gap_seconds
        sid = np.cumsum(new)
        out = (
            pd.DataFrame({"sid": sid, "ts": ts})
            .groupby("sid")
            .agg(n_events=("ts", "size"), start=("ts", "min"), end=("ts", "max"))
            .reset_index(drop=True)
        )
        out[key_col] = g[key_col].iloc[0]
        out["duration_s"] = out["end"] - out["start"]
        return out[[key_col, "n_events", "start", "end", "duration_s"]]

    return ds.groupby(key_col).map_groups(sessions, batch_format="pandas")


def assign_sessions(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    id_col: str = "event_id",
    gap_seconds: float = 1800.0,
):
    """Per-EVENT session enrichment: every event row gains its session's
    start time (the row-level inverse of :func:`session_windows`, which
    emits one row per session).  → Dataset (id, key, session_start).

    Regimes: sessions (from the scale-safe chunked sessionizer) are
    session-universe-sized; within ``guard.DRIVER_ROWS`` they broadcast
    as per-key sorted start arrays and each event batch does one
    ``searchsorted`` per key present (rightmost start ≤ ts).  Above it,
    fall back to a hash join on the key + an in-batch interval filter
    (start ≤ ts ≤ end) — more rows moved, no driver state."""
    import ray
    import ray.data as rd

    sess = session_windows(
        ds, ts_col=ts_col, key_col=key_col, gap_seconds=gap_seconds
    ).materialize()
    n_sess = sess.count()
    if n_sess <= guard.DRIVER_ROWS:
        sp = sess.select_columns([key_col, "start"]).to_pandas()
        lut = {
            k: np.sort(g["start"].to_numpy())
            for k, g in sp.groupby(key_col, sort=False)
        }
        ref = ray.put(lut) if ray.is_initialized() else lut

        def attach(t: pa.Table, *, _r=ref) -> pa.Table:
            lu = ray.get(_r) if ray.is_initialized() else _r
            if len(t) == 0:
                return pa.table(
                    {
                        id_col: pa.array([], pa.int64()),
                        key_col: pa.array([], pa.int64()),
                        "session_start": pa.array([], pa.float64()),
                    }
                )
            keys = t[key_col].to_pandas().to_numpy()
            ts = _ts_seconds(t[ts_col])
            out = np.empty(len(t), dtype=np.float64)
            for k in pd.unique(keys):
                m = keys == k
                starts = lu[k]
                idx = np.searchsorted(starts, ts[m], side="right") - 1
                out[m] = starts[idx]
            return pa.table(
                {
                    id_col: t[id_col],
                    key_col: t[key_col],
                    "session_start": pa.array(out, pa.float64()),
                }
            )

        return ds.map_batches(attach, batch_format="pyarrow")

    from .joins import hash_join

    def slim(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t[id_col],
                key_col: t[key_col],
                "__ts": pa.array(_ts_seconds(t[ts_col]), pa.float64()),
            }
        )

    ev = ds.map_batches(slim, batch_format="pyarrow")
    joined = hash_join(
        ev,
        sess.select_columns([key_col, "start", "end"]),
        on=key_col,
        broadcast=False,
    )

    def infilter(t: pa.Table) -> pa.Table:
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        st = t["start"].to_numpy(zero_copy_only=False)
        en = t["end"].to_numpy(zero_copy_only=False)
        m = (st <= ts) & (ts <= en)
        t = t.filter(pa.array(m))
        return pa.table(
            {
                id_col: t[id_col],
                key_col: t[key_col],
                "session_start": t["start"],
            }
        )

    return joined.map_batches(infilter, batch_format="pyarrow")
