"""Sequence packing for training-data preparation, built on a distributed
prefix scan — the operator that turns a curated corpus into fixed-budget
training sequences (the "pack documents into 2k/4k/8k-token rows" step
every LM data pipeline runs last).

Packing rule (deterministic, streaming-friendly): documents are taken in
``order_col`` order; with ``cum_before`` = total size of all earlier docs,

    pack_id     = cum_before // budget
    pack_offset = cum_before %  budget

i.e. contiguous concatenation chunked at budget boundaries (a doc may
straddle two packs).  This is the scan-expressible form — greedy first-fit
("never split a doc") is a running RESET, which no window function and no
two-pass scan can express; the straddle-chunked form is what block-sparse
packing pipelines actually use, and it is exactly reproducible in SQL
(`SUM() OVER (ORDER BY ...)`), which gives the operator a full value
oracle.

The underlying :func:`attach_running_total` is the unkeyed case of the
keyed block scan (``stages/scan.py``) over the ``order_col`` sort: each
block's edge is its size total, whether it holds a duplicate order key,
and its first and last order key (one row per block); the chain is the
exclusive prefix of the totals, and it raises on an order key shared by
two blocks (equal keys may split across a block boundary and would make
the bases ambiguous); the apply pass adds ``base + in-block exclusive
cumsum``.  Driver traffic = O(blocks), never the corpus.

Reference parity: the reference toolkit has no ordering-sensitive
operators beyond output sort (``runner.py:981-997``); this is
training-data extension surface (SURVEY §2.6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .scan import block_scan


def attach_running_total(ds, *, size_col: str, order_col: str):
    """Adds ``cum_before`` (int64): the sum of ``size_col`` over all rows
    strictly before this row in ``order_col`` order.  Returns the dataset
    sorted by ``order_col``.  Requires unique order keys (ValueError)."""

    def edge(b: pa.Table, starts, ends) -> list:
        keys = b[order_col].to_numpy()
        return [
            (
                int(b[size_col].to_numpy().astype(np.int64).sum()),
                bool(np.any(keys[1:] == keys[:-1])),  # sorted: dups adjacent
                b[order_col][0].as_py(),
                b[order_col][-1].as_py(),
            )
        ]

    def chain(blocks) -> list:
        bases, total, prev_hi = [], 0, None
        for blk in blocks:
            size, dup, lo, hi = blk.edge[0]
            if dup or (prev_hi is not None and lo <= prev_hi):
                raise ValueError(
                    f"attach_running_total requires unique {order_col!r} keys: "
                    "duplicates within or across sorted blocks"
                )
            bases.append(total)
            total, prev_hi = total + size, hi
        return bases

    def apply(b: pa.Table, starts, ends, base) -> pa.Table:
        sizes = b[size_col].to_numpy().astype(np.int64)
        cum = base + np.concatenate([[0], np.cumsum(sizes)[:-1]])
        return b.append_column("cum_before", pa.array(cum.astype(np.int64)))

    return block_scan(
        ds,
        op="pack.attach_running_total",
        key=None,
        order=[order_col],
        cols=None,
        edge=edge,
        chain=chain,
        apply=apply,
    )


def pack_sequences(
    ds,
    *,
    budget: int,
    size_col: str = "n_chars",
    id_col: str = "doc_id",
):
    """Pack documents into fixed-``budget`` sequences in ``id_col`` order →
    Dataset ``(id, size, pack_id, pack_offset)`` (straddle-chunked rule,
    see module docstring).  One range-sort shuffle + two block-local
    passes; driver traffic is block-count-sized."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    with_cum = attach_running_total(ds, size_col=size_col, order_col=id_col)

    def finish(b: pa.Table) -> pa.Table:
        cum = b["cum_before"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: b[id_col],
                size_col: b[size_col],
                "pack_id": pa.array(cum // np.int64(budget)),
                "pack_offset": pa.array(cum % np.int64(budget)),
            }
        )

    return with_cum.map_batches(finish, batch_format="pyarrow")
