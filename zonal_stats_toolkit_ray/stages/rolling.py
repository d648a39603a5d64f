"""Per-key rolling (sliding) time-range aggregates over an event stream.

The feature-engineering shape ("events per user in the trailing hour")
the reference's grouped aggregations can't express: for every event row,
aggregate over ALL rows of the same key whose timestamp lies in
``[t − window, t]`` — value-interval semantics, identical to SQL's
``RANGE BETWEEN INTERVAL w PRECEDING AND CURRENT ROW`` frame (both bounds
inclusive; tied timestamps are peers and always co-frame, so the result
is independent of tie order).

Distributed form (the scale path — no per-key materialization): one
keyed block scan (``stages/scan.py``) over the (key, ts, id) sort.  Ray's
RANGE sort splits a hot key across blocks, so a 10^8-event bot user never
lands on one worker.  Each block's edge is its **boundary rows** — the
last key run's trailing ``window`` of rows (backward context for later
blocks) and the first run's leading tied-timestamp peers (forward peers
for earlier blocks) — O(blocks × rows-per-window), never O(rows).  The
chain hands each block the context and peers of its edge keys, and the
block computes every window with two ``np.searchsorted`` calls over a
run-packed int64 composite of microsecond timestamps — exact integer
comparisons, so the window bounds match SQL's interval arithmetic
bit-for-bit.

All arithmetic on timestamps is int64 microseconds; the composite packs
each key run into its own offset band (gap ≥ window + 2) so one global
searchsorted per block answers every row without Python-level run loops
and without the run_id × global-span product that would overflow int64.

Reference parity: the reference has no streaming/window operator at all
(runner.py aggregates whole zones); this is part of the training-data
pipeline surface (SURVEY §2 extensions).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard
from .scan import block_scan, ts_us as _ts_us


def _combined(col):
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def _window_sums(
    ts_us: np.ndarray,
    vals: np.ndarray,
    run_starts: np.ndarray,
    query_idx: np.ndarray,
    window_us: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Given rows sorted by (key-run, ts), per-run-packed composite window
    sums/counts for the rows at ``query_idx``.

    ``run_starts`` marks the first index of each key run.  Each run is
    packed into its own offset band with a gap > window so a single
    searchsorted over the whole block answers all queries and a query's
    ``t − window`` probe can never bleed into the previous run.
    """
    n = ts_us.size
    run_ends = np.concatenate([run_starts[1:], [n]])
    run_min = ts_us[run_starts]
    run_max = ts_us[run_ends - 1]
    span = (run_max - run_min).astype(np.int64)
    # offset band per run: previous bands + window + 2 of clearance
    bands = np.concatenate(
        [[0], np.cumsum(span + np.int64(window_us) + 2)[:-1]]
    )
    run_of = np.zeros(n, dtype=np.int64)
    run_of[run_starts[1:]] = 1
    run_of = np.cumsum(run_of)
    comp = ts_us - run_min[run_of] + bands[run_of]
    q_comp = comp[query_idx]
    hi = np.searchsorted(comp, q_comp, side="right")
    lo = np.searchsorted(comp, q_comp - np.int64(window_us), side="left")
    cs = np.concatenate([[0.0], np.cumsum(vals)])
    return (hi - lo).astype(np.int64), cs[hi] - cs[lo]


def rolling_window_stats(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    window_s: float = 3600.0,
):
    """→ Dataset(id, key, roll_n, roll_sum): per-row trailing-window count
    and sum over same-key rows with ts ∈ [t − window, t] (inclusive,
    tied-timestamp peers always included — SQL RANGE frame semantics).

    ``value_col`` must be finite (same contract as grouped top-k: NaN
    ordering under SQL frames is not replicated).

    One keyed block scan (``stages/scan.py``) over the (key, ts, id) sort:

    * edge: the only rows another block can need — the last key run's
      rows within ``window`` of its last ts (backward context, INCLUSIVE
      lower bound: a later block can hold a row tied with the last ts,
      whose frame reaches exactly ``window`` back) and the first run's
      rows tied at its first ts (peers of an earlier block's last rows);
    * chain: per block, the context rows of the key it opens with (through
      blocks shorter than the window) and the tied peers that open later
      blocks.  Edge rows are O(blocks × window density), never O(keys);
      past ``guard.DRIVER_ROWS`` of them the call raises (widen blocks:
      the bound is per block, never per key);
    * apply: the context before the block's first run and the peers after
      its last keep the (run, ts) order, so one ``_window_sums`` answers
      every row.
    """
    window_us = int(round(float(window_s) * 1e6))

    def _v(b: pa.Table) -> np.ndarray:
        return b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)

    def edge(b: pa.Table, starts, ends) -> list:
        ts, v = _ts_us(b[ts_col]), _v(b)
        head = np.searchsorted(ts[: ends[0]], ts[0], side="right")
        tail = starts[-1] + np.searchsorted(ts[starts[-1]:], ts[-1] - window_us)
        rows = np.r_[0:head, max(head, tail) : ts.size]
        return [(int(ts[i]), float(v[i]), i < head, i >= tail) for i in rows]

    def chain(blocks) -> list:
        n_bnd = sum(len(blk.edge) for blk in blocks)
        if n_bnd > guard.DRIVER_ROWS:
            raise ValueError(
                f"boundary rows ({n_bnd}) exceed guard.DRIVER_ROWS "
                f"({guard.DRIVER_ROWS}); widen blocks — the bound grows with "
                "blocks × window density, not with corpus size"
            )
        backs, ctx = [], []
        for blk in blocks:
            back = ctx if blk.cont else []
            backs.append(back)
            tail = [r[:2] for r in blk.edge if r[3]]
            lo = tail[-1][0] - window_us
            ctx = [r for r in (back if blk.one_run else []) + tail if r[0] >= lo]
        fwds = [[] for _ in blocks]
        for i in range(len(blocks) - 1, 0, -1):
            blk = blocks[i]
            t0 = blk.edge[0][0]
            whole = blk.one_run and blk.edge[-1][0] == t0  # one tie group
            peers = [r[:2] for r in blk.edge if r[2]] + (fwds[i] if whole else [])
            if blk.cont and blocks[i - 1].edge[-1][0] == t0:
                fwds[i - 1] = peers
        return [(bk, fw) if bk or fw else None for bk, fw in zip(backs, fwds)]

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        back, fwd = carry or ([], [])
        bt = np.array([r[0] for r in back], dtype=np.int64)
        ft = np.array([r[0] for r in fwd], dtype=np.int64)
        ts = np.r_[bt, _ts_us(b[ts_col]), ft]
        vals = np.r_[[r[1] for r in back], _v(b), [r[1] for r in fwd]]
        q = np.arange(bt.size, bt.size + len(b))
        roll_n, roll_sum = _window_sums(
            ts, vals, np.r_[0, starts[1:] + bt.size], q, window_us
        )
        return pa.table(
            {
                id_col: pa.array(
                    b[id_col].to_numpy(zero_copy_only=False), pa.int64()
                ),
                key_col: b[key_col],
                "roll_n": pa.array(roll_n, pa.int64()),
                "roll_sum": pa.array(roll_sum, pa.float64()),
            }
        )

    return block_scan(
        ds,
        op="rolling.rolling_window_stats",
        key=key_col,
        order=[ts_col, id_col],
        cols=[key_col, ts_col, value_col, id_col],
        edge=edge,
        chain=chain,
        apply=apply,
    )


def rolling_window_stats_ref(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    window_s: float = 3600.0,
) -> pd.DataFrame:
    """Reference form: per-key ``map_groups`` with the same int64-µs window
    kernel — O(key) materialization, used to pin the chunked form's
    equality in tests (and fine when no key is hot)."""
    window_us = int(round(float(window_s) * 1e6))

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ts_col, kind="stable")
        ts = np.asarray(g[ts_col]).astype("datetime64[us]").astype(np.int64)
        vals = g[value_col].to_numpy(dtype=np.float64)
        n, s = _window_sums(
            ts, vals, np.array([0], dtype=np.int64),
            np.arange(ts.size), window_us,
        )
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                key_col: g[key_col].to_numpy(),
                "roll_n": n,
                "roll_sum": s,
            }
        )

    return (
        ds.select_columns([key_col, ts_col, value_col, id_col])
        .groupby(key_col)
        .map_groups(per_key, batch_format="pandas")
        .to_pandas()
    )


def ewma_by_key(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    alpha: float = 0.3,
):
    """Per-key exponentially weighted moving average (pandas
    ``ewm(adjust=False)`` / the streaming-feature recurrence
    ``y_i = α·x_i + (1−α)·y_{i−1}``, ``y_0 = x_0``) over (ts, id) order →
    Dataset(id, key, ewma) — round-5 operator.

    An EXACT affine scan: the recurrence composes, ``y_end = S + q^n·c``
    with ``q = 1−α`` and S the zero-carry local scan of n rows.  It runs
    as one keyed block scan (``stages/scan.py``) over the (key, ts, id)
    sort:

    * edge: the block's last key run's (n, S, first x) — one row per block;
    * chain: the carry into a block is the previous block's y_end when its
      first run continues that key; y_end chains the carry through a
      one-run block, else restarts at the last run's first x (``y_0 =
      x_0`` ⇔ carrying the first value itself);
    * apply: every run computes ``l_i + q^{i+1}·c`` from a vectorized
      zero-carry scan (float64 rescaled cumsum), c = the carry for the
      first run and the run's own first x otherwise.

    Reference parity: no streaming operator exists in the reference
    (runner.py aggregates whole zones); SURVEY §2 extension family."""
    a = float(alpha)
    q = 1.0 - a

    def _zero_scan(x: np.ndarray) -> np.ndarray:
        """l_i = α·x_i + q·l_{i−1}, l_{−1} = 0, vectorized:
        l_i = q^i · Σ_{j≤i} α·x_j / q^j  (rescaled cumsum — stable for
        block-sized n; q^i underflow ⇒ the carry term is 0 anyway)."""
        n = x.size
        if q <= 0.0:  # alpha == 1: y_i = x_i
            return a * x
        i = np.arange(n, dtype=np.float64)
        with np.errstate(over="ignore", under="ignore"):
            qi = q ** i
            s = np.cumsum(a * x / np.where(qi > 0, qi, 1.0))
            out = qi * s
        # q^i underflow (≈ i > 2000 at q=0.7) poisons the rescaling —
        # rerun as chunks sized so q^chunk stays comfortably normal (each
        # chunk restarts the scale at q^0 and carries the previous l)
        if qi[-1] == 0.0 or not np.all(np.isfinite(out)):
            step = max(1, min(512, int(-500.0 / np.log(q))))
            out = np.empty(n, dtype=np.float64)
            c = 0.0
            for s0 in range(0, n, step):
                e0 = min(n, s0 + step)
                seg = x[s0:e0]
                ii = np.arange(seg.size, dtype=np.float64)
                qi = q ** ii
                out[s0:e0] = qi * np.cumsum(a * seg / qi) + qi * q * c
                c = out[e0 - 1]
        return out

    def _x(b: pa.Table) -> np.ndarray:
        return _combined(b[value_col]).to_numpy(zero_copy_only=False).astype(np.float64)

    def edge(b: pa.Table, starts, ends) -> list:
        x = _x(b)[starts[-1]:]
        return [(x.size, float(_zero_scan(x)[-1]), float(x[0]))]

    def chain(blocks) -> list:
        carries, y_end = [], None
        for blk in blocks:
            n, s_end, x_first = blk.edge[0]
            c_in = y_end if blk.cont else None
            carries.append(c_in)
            c_last = c_in if blk.one_run and c_in is not None else x_first
            # y_end = l_{n−1} + q^n · c  (y_i = l_i + q^{i+1} c at i = n−1)
            y_end = s_end + (q ** n) * c_last
        return carries

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        x = _x(b)
        out = np.empty(len(b), dtype=np.float64)
        for ri, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
            seg = x[s:e]
            # a run starting here: y_{-1} := x_0 gives y_0 = x_0
            c = carry if ri == 0 and carry is not None else seg[0]
            i = np.arange(seg.size, dtype=np.float64)
            with np.errstate(under="ignore"):
                out[s:e] = _zero_scan(seg) + (q ** (i + 1.0)) * c
        return pa.table(
            {
                id_col: pa.array(
                    _combined(b[id_col]).to_numpy(zero_copy_only=False), pa.int64()
                ),
                key_col: b[key_col],
                "ewma": pa.array(out, pa.float64()),
            }
        )

    return block_scan(
        ds,
        op="rolling.ewma_by_key",
        key=key_col,
        order=[ts_col, id_col],
        cols=[key_col, ts_col, value_col, id_col],
        edge=edge,
        chain=chain,
        apply=apply,
    )


def rolling_rows_median(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    k: int = 10,
):
    """Per-key rolling MEDIAN over a ROWS frame — SQL's
    ``median(v) OVER (PARTITION BY key ORDER BY ts, id
    ROWS BETWEEN k−1 PRECEDING AND CURRENT ROW)`` — → Dataset(id, key,
    roll_med).  ``value_col`` must be non-null; ``id_col`` unique (the
    deterministic tiebreak).

    Unlike the RANGE-frame sums above, a ROWS frame needs exactly the
    k−1 predecessor ROWS of each row's key.  It runs as one keyed block
    scan (``stages/scan.py``) over the (key, ts, id) sort: each block's
    edge is the last min(k−1, run length) values of its last key run; the
    driver chains, per block, the last k−1 values of the key it opens
    with (across blocks shorter than k−1) — O(blocks × k) rows whatever
    the key skew; the apply pass prepends them to the block's first run
    and computes the rolling median per run with pandas' C kernel
    (mean-of-two-middles on even windows, the quantile_cont 0.5
    convention DuckDB uses)."""

    def _v(b: pa.Table) -> np.ndarray:
        return pc.cast(b[value_col], pa.float64()).to_numpy(zero_copy_only=False)

    def edge(b: pa.Table, starts, ends) -> list:
        return _v(b)[max(starts[-1], len(b) - (k - 1)) :].tolist()

    def chain(blocks) -> list:
        carries, tail = [], []
        for blk in blocks:
            carries.append(np.asarray(tail) if blk.cont and tail else None)
            if not (blk.cont and blk.one_run):
                tail = []
            tail = (tail + blk.edge)[-(k - 1) :] if k > 1 else []
        return carries

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        ctx = np.empty(0) if carry is None else carry
        runs = np.repeat(np.arange(starts.size), ends - starts)
        med = (
            pd.DataFrame(
                {
                    "r": np.concatenate([np.zeros(ctx.size, np.int64), runs]),
                    "v": np.concatenate([ctx, _v(b)]),
                }
            )
            .groupby("r", sort=False)["v"]
            .rolling(k, min_periods=1)
            .median()
            .to_numpy()[ctx.size :]
        )
        return pa.table(
            {
                id_col: pa.array(b[id_col].to_numpy().astype(np.int64), pa.int64()),
                key_col: b[key_col],
                "roll_med": pa.array(med, pa.float64()),
            }
        )

    return block_scan(
        ds,
        op="rolling.rolling_rows_median",
        key=key_col,
        order=[ts_col, id_col],
        cols=[key_col, ts_col, id_col, value_col],
        edge=edge,
        chain=chain,
        apply=apply,
    )
