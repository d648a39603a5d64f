"""Windowed aggregates over the timestamped ``events`` stream table.

Ray Data has no event-time windowing; the engine implements the standard
batch shapes (ray_guide streaming section): tumbling / hopping windows as a
vectorized timestamp-truncate ``map_batches`` + partial-aggregate →
groupby-merge (same two-level reduce as the zonal path), and session
windows as one keyed block scan over the (key, ts) sort
(``stages/scan.py``).  Oracle SQL: ``date_trunc`` / window functions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard
from .scan import block_scan, group_chain


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

    One keyed block scan (``stages/scan.py``) over the (key, ts) sort — a
    hot key splits across blocks, so no key lands on one worker — with
    the open session as the carry:

    * edge: the block's first session start and its last session
      (start, end, n), one row per block;
    * chain: the carry into a block is the session left open before it,
      if the block's first session starts within ``gap_seconds`` of its
      end.  Only the first session can join it: sessions inside a block
      are already more than the gap apart.  A block that is one session
      and joins passes the grown session on;
    * apply: sessionize the block with vectorized NumPy, merge the carry
      into its first session, and leave out its last session when a
      later block continues it (the block where a session ends emits it).

    Results are exactly equal to :func:`session_windows_ref` (tests pin
    equality, including a one-key stress)."""

    def sessions(b: pa.Table, starts):
        ts = _ts_seconds(b[ts_col])
        new = np.zeros(ts.size, dtype=bool)
        new[starts] = True
        new[1:] |= (ts[1:] - ts[:-1]) > gap_seconds
        i0 = np.flatnonzero(new)
        return ts, i0, np.r_[i0[1:], ts.size] - 1

    def edge(b: pa.Table, starts, ends) -> list:
        ts, i0, i1 = sessions(b, starts)
        n = int(i1[-1] - i0[-1] + 1)
        return [(ts[0], ts[i0[-1]], ts[-1], n, i0.size == 1)]

    def step(open_, blk):
        first, start, end, n, single = blk.edge[0]
        if open_ is None or first - open_[1] > gap_seconds:
            return None, (start, end, n)
        return open_, ((open_[0], end, open_[2] + n) if single else (start, end, n))

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        ts, i0, i1 = sessions(b, starts)
        start, end, n = ts[i0], ts[i1], i1 - i0 + 1
        joined, later = carry or (None, False)
        if joined is not None:
            start[0], n[0] = joined[0], n[0] + joined[2]
        keep = slice(0, i0.size - 1 if later else i0.size)
        return pa.table(
            {
                key_col: b[key_col].take(pa.array(i0[keep])),
                "n_events": pa.array(n[keep], pa.int64()),
                "start": pa.array(start[keep], pa.float64()),
                "end": pa.array(end[keep], pa.float64()),
                "duration_s": pa.array(end[keep] - start[keep], pa.float64()),
            }
        )

    return block_scan(
        ds,
        op="window.session_windows",
        key=key_col,
        order=[ts_col],
        cols=[key_col, ts_col],
        edge=edge,
        chain=lambda blocks: group_chain(blocks, step),
        apply=apply,
    )


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
