"""Distributed SQL window functions: per-key ROW_NUMBER / RANK /
PERCENT_RANK / running SUM.

Ray Data has no window-function operator.  These run as one keyed block
scan (``stages/scan.py``) over the (key, value, id) sort:

* edge: per block, the first and the last key run's row count, value
  sum, head and tail values and the tail's tied-row count — at most two
  rows per block;
* chain: per key in block order, the prefix row count, prefix value sum
  and the count of earlier rows TIED with a run's head value (the only
  cross-block fact RANK needs; ties chain across any number of
  single-valued runs), plus the partition size of the block's first and
  last run;
* apply: run and value-group boundaries by diff+cumsum, all outputs
  vectorized, the carry added to the first run; a run that starts and
  ends inside the block is its own partition.

Exact SQL semantics: ROW_NUMBER orders by (value, id); RANK /
PERCENT_RANK order by value alone (ties share the min rank,
pct = (rank−1)/(n−1), 0 for single-row partitions); the running sum is
the ROWS UNBOUNDED PRECEDING..CURRENT ROW frame over (value, id) order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .scan import block_scan


def _np(col):
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False)


def _ntile(row_num: np.ndarray, n: np.ndarray, t: int) -> np.ndarray:
    """SQL NTILE(t) from 1-based row_num and partition size n: the first
    n % t buckets hold n//t + 1 rows, the rest n//t."""
    q, r = np.divmod(n, t)
    big = (q + 1) * r  # rows covered by the oversized buckets
    in_big = row_num <= big
    return np.where(
        in_big,
        (row_num - 1) // np.maximum(q + 1, 1),
        r + (row_num - 1 - big) // np.maximum(q, 1),
    ).astype(np.int64) + 1


def window_ranks(
    ds,
    *,
    key_col: str = "user_id",
    value_col: str = "value",
    id_col: str = "event_id",
    ntile: int = 4,
):
    """→ Dataset(id, key, row_num, rnk, pct_rank, run_sum, ntile) per the
    module docstring.  ``value_col`` must be non-null and finite;
    ``id_col`` must be unique (it is the deterministic sort tiebreak).

    NTILE(``ntile``) is SQL-exact over the (value, id) row order: the
    first n%t buckets get n//t+1 rows — a pure elementwise function of
    (row_num, partition size), so it adds zero shuffle or stitch state."""

    def edge(b: pa.Table, starts, ends) -> list:
        vals = _np(b[value_col]).astype(np.float64)
        cs = np.concatenate([[0.0], np.cumsum(vals)])
        rows = []
        for s, e in sorted({(starts[0], ends[0]), (starts[-1], ends[-1])}):
            # tail tie count: the run is value-sorted, so the rows tied
            # with its last value are its last rows
            tail_eq = e - s - np.searchsorted(vals[s:e], vals[e - 1])
            rows.append(
                (int(e - s), float(cs[e] - cs[s]), vals[s], vals[e - 1], int(tail_eq))
            )
        return rows

    def chain(blocks) -> list:
        """Per block [prefix rows, prefix rows tied with the first run's
        head value, prefix value sum, partition size of the first run,
        partition size of the last run]."""
        carries, open_slots = [], []
        cnt, tot, tie_v, tie_n = 0, 0.0, None, 0

        def restart():
            """Close the open partition: its size fills the waiting slots."""
            nonlocal cnt, tot, tie_v, tie_n
            for c, i in open_slots:
                c[i] = cnt
            open_slots.clear()
            cnt, tot, tie_v, tie_n = 0, 0.0, None, 0

        def fold(run):
            nonlocal cnt, tot, tie_v, tie_n
            n, s, _, tail_v, tail_eq = run
            # ties chain across any number of single-valued runs
            if tie_v == tail_v and tail_eq == n:
                tie_n += n
            else:
                tie_v, tie_n = tail_v, tail_eq
            cnt, tot = cnt + n, tot + s

        for blk in blocks:
            if not blk.cont:
                restart()
            first = blk.edge[0]
            c = [cnt, tie_n if tie_v == first[2] else 0, tot, 0, 0]
            carries.append(c)
            open_slots.append((c, 3))
            fold(first)
            if not blk.one_run:
                restart()
                fold(blk.edge[-1])
            open_slots.append((c, 4))
        restart()
        return carries

    def apply(b: pa.Table, starts, ends, carry) -> pa.Table:
        p_cnt, p_eq, p_sum, n_first, n_last = carry
        vals = _np(b[value_col]).astype(np.float64)
        ids = _np(b[id_col]).astype(np.int64)
        # the prefix is 0 but for the first run; the partition size is the
        # run length but for the edge runs
        n_k = ends - starts
        n_k[-1], n_k[0] = n_last, n_first
        run_of = np.repeat(np.arange(starts.size), ends - starts)
        local_rn = np.arange(len(b)) - starts[run_of]
        new_vg = np.concatenate(
            [[True], (run_of[1:] != run_of[:-1]) | (vals[1:] != vals[:-1])]
        )
        vg_first = np.flatnonzero(new_vg)[np.cumsum(new_vg) - 1]
        local_lt = vg_first - starts[run_of]
        cs = np.cumsum(vals)
        run_cs_base = cs[starts] - vals[starts]
        first = run_of == 0
        p_cnt, p_eq = np.where(first, p_cnt, 0), np.where(first, p_eq, 0)
        p_sum, n_k = np.where(first, p_sum, 0.0), n_k[run_of]
        at_head = vals == vals[starts][run_of]
        rnk = p_cnt - np.where(at_head, p_eq, 0) + local_lt + 1
        row_num = p_cnt + local_rn + 1
        pct = np.where(n_k > 1, (rnk - 1) / np.maximum(n_k - 1, 1), 0.0)
        run_sum = p_sum + (cs - run_cs_base[run_of])
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                key_col: b[key_col],
                "row_num": pa.array(row_num, pa.int64()),
                "rnk": pa.array(rnk, pa.int64()),
                "pct_rank": pa.array(pct, pa.float64()),
                "run_sum": pa.array(run_sum, pa.float64()),
                "ntile": pa.array(_ntile(row_num, n_k, ntile), pa.int64()),
            }
        )

    return block_scan(
        ds,
        op="winfunc.window_ranks",
        key=key_col,
        order=[value_col, id_col],
        cols=[key_col, value_col, id_col],
        edge=edge,
        chain=chain,
        apply=apply,
    )


def window_ranks_ref(
    ds,
    *,
    key_col: str = "user_id",
    value_col: str = "value",
    id_col: str = "event_id",
    ntile: int = 4,
) -> pd.DataFrame:
    """Per-key map_groups reference (O(key) materialization) for tests."""

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([value_col, id_col], kind="stable")
        v = g[value_col].to_numpy(dtype=np.float64)
        nk = len(g)
        new_v = np.concatenate([[True], v[1:] != v[:-1]])
        first = np.flatnonzero(new_v)[np.cumsum(new_v) - 1]
        rnk = first + 1
        row_num = np.arange(1, nk + 1, dtype=np.int64)
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                key_col: g[key_col].to_numpy(),
                "row_num": row_num,
                "rnk": rnk.astype(np.int64),
                "pct_rank": (rnk - 1) / max(nk - 1, 1) if nk > 1
                else np.zeros(nk),
                "run_sum": np.cumsum(v),
                "ntile": _ntile(row_num, np.full(nk, nk, dtype=np.int64), ntile),
            }
        )

    return (
        ds.select_columns([key_col, value_col, id_col])
        .groupby(key_col)
        .map_groups(per_key, batch_format="pandas")
        .to_pandas()
    )
