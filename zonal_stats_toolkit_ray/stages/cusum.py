"""Per-key CUSUM anomaly scores — the classic clamped running recurrence
``s_i = max(0, s_{i−1} + x_i)`` over each key's (ts, id)-ordered stream.

A clamped recurrence looks sequential, but the closed form makes it a
SCAN: with prefix sums ``p_i = Σ_{j≤i} x_j`` and ``p_0 = 0``,

    s_i = p_i − min_{0 ≤ j ≤ i} p_j

so CUSUM is (running sum, running min of the running sum) — both
associative.  It runs as one keyed block scan (``stages/scan.py``) over
the (key, ts, id) sort:

* edge: the block's last key run's total S and minimum inclusive local
  prefix M — one row per block;
* chain: per key in block order, carry (P = prefix sum before the run,
  m = min prefix so far, seeded 0 for ``p_0``), then m = min(m, P + M),
  P += S;
* apply: local cumsum and running min per run, the carry (P, m) added to
  the first run: s = (P + locp) − min(m, P + locmin).  Runs that start
  inside the block take (0, 0).

All arithmetic is int64 (callers pre-scale values), so the result is
bit-identical to the SQL window form whatever the block layout.

Reference parity: none in runner.py — streaming-analytics surface
(SURVEY §2 graft extensions).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .scan import block_scan


def _i64(col) -> np.ndarray:
    return col.to_numpy().astype(np.int64)


def cusum_by_key(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    x_col: str = "x",
):
    """→ Dataset(id, key, cusum): the per-row CUSUM of the INT64 column
    ``x_col`` per key in (ts, id) order.  ``id_col`` must be unique (the
    deterministic tiebreak); pre-scale/shift floats into ``x_col``
    upstream — integer arithmetic is what makes the scan exact."""

    def edge(b: pa.Table, starts, ends) -> list:
        p = np.cumsum(_i64(b[x_col])[starts[-1]:])
        return [(int(p[-1]), int(p.min()))]

    def chain(blocks) -> list:
        carries, P, m = [], 0, 0
        for blk in blocks:
            if not blk.cont:
                P, m = 0, 0
            carries.append((P, m))
            if not blk.one_run:
                P, m = 0, 0
            S, M = blk.edge[0]
            P, m = P + S, min(m, P + M)
        return carries

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        x = _i64(b[x_col])
        cs = np.concatenate([[0], np.cumsum(x)])
        locp = cs[1:] - np.repeat(cs[starts], ends - starts)
        # running min of local prefix within each run: cummin with resets —
        # subtract a per-run step bigger than the value range so cummin
        # never crosses runs.  The step is sized to the block's actual
        # range; if runs × step would overflow int64 (huge sums AND many
        # runs), fall back to an O(runs) loop of vectorized accumulates.
        seg = np.repeat(np.arange(starts.size, dtype=np.int64), ends - starts)
        rng = int(locp.max()) - min(int(locp.min()), 0) + 1
        if starts.size * rng < (1 << 62):
            BIG = np.int64(rng)
            shifted = locp - seg * BIG
            locmin = np.minimum.accumulate(shifted) + seg * BIG
        else:
            locmin = np.empty_like(locp)
            for st, en in zip(starts, ends):
                locmin[st:en] = np.minimum.accumulate(locp[st:en])
        Pr = np.zeros(x.size, dtype=np.int64)
        Mr = np.zeros(x.size, dtype=np.int64)
        Pr[: ends[0]], Mr[: ends[0]] = carry
        mn = np.minimum(Mr, Pr + locmin)
        return pa.table(
            {
                id_col: pa.array(_i64(b[id_col]), pa.int64()),
                key_col: b[key_col],
                "cusum": pa.array(Pr + locp - mn, pa.int64()),
            }
        )

    return block_scan(
        ds,
        op="cusum.cusum_by_key",
        key=key_col,
        order=[ts_col, id_col],
        cols=[key_col, ts_col, id_col, x_col],
        edge=edge,
        chain=chain,
        apply=apply,
    )
