"""One keyed block scan: sort → edge summary → carry chain → block apply.

Ray Data has no scan operator.  The operators that carry state along a
sorted stream all run through :func:`block_scan`, which builds one from a
range sort and two whole-block passes:

* running values per row — ``cusum.cusum_by_key``,
  ``winfunc.window_ranks``, ``rolling.ewma_by_key``,
  ``rolling.rolling_rows_median``, ``rolling.rolling_window_stats``,
  ``pack.attach_running_total`` and ``joins.asof_join_self``;
* one row per session, island or key — ``window.session_windows``,
  ``intervals.interval_union``, ``intervals.event_gaps``,
  ``intervals.event_transitions`` and ``intervals.twap_by_key``: a
  session, island or key that continues into the next block is emitted
  by the block where it ends, so no pending rows are stitched afterwards.

1. **Sort** by ``(key, *order)`` and ``materialize`` once, so both passes
   read the same blocks.  The range partitioner splits a hot key across
   blocks, so no key is ever gathered on one worker.  The sort is
   NULL-safe: it runs on ``(key IS NULL, key with NULL filled)``, so a
   NULL key is one partition of its own, sorted last, as in SQL
   ``PARTITION BY``.  ``key=None`` scans one partition.
2. **Edge pass** (``batch_size=None``: a batch is one whole sorted block).
   The block splits into key runs (:func:`key_runs`, NULL-encoding
   dictionary codes).  A run that starts and ends inside the block is a
   whole partition and needs no carry; only the first run can continue an
   earlier block and only the last can continue into a later one.  The
   operator's ``edge(b, starts, ends)`` returns the rows another block
   needs: facts of the first and last run, or a bounded tail.
3. **Chain** on the driver, over the blocks in global order: the sort
   tuple of each block's first row.  Two blocks must not share it, or
   one block's carry would be taken for the other's.  An order that ends
   in a unique id makes it unique (an unkeyed scan needs unique order
   values, and its chain checks them).  ``session_windows``,
   ``interval_union``, ``event_gaps`` and ``asof_join_self`` sort on no
   id: their first rows are unique only because Ray's range sort keeps
   equal sort tuples in one output block (4,000 rows of one (key, ts)
   sorted into one block; Ray does this today but does not promise it).
   Two blocks that do share a first-row tuple raise a ``ValueError``.
   Each block reaches the operator's ``chain(blocks)`` as a
   :class:`Block`; the chain returns one carry per block (None: no
   carry).  The driver holds O(blocks) rows (O(blocks × window density)
   for the rolling window), never O(keys); ``summary_rows`` (edge rows)
   and ``blocks`` are noted under the operator's ``op``.
4. **Apply pass** (whole blocks again).  The carries broadcast once; each
   block finds its own by its first-row sort tuple, and
   ``apply(b, starts, ends, carry)`` returns its output rows, adding the
   carry to the first run (and whatever the chain learned of the last).

Ray's sort makes empty blocks without columns; both passes pass them over.
The kernels see the block without the sort's helper columns.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.metrics import note

_KEY_NULL = "__scan_key_null"
_KEY_FILLED = "__scan_key"


class Block(NamedTuple):
    """One sorted block as the chain sees it."""

    cont: bool  # its first run continues the previous block's last run
    one_run: bool  # one key run: its first run is also its last
    edge: list  # the operator's edge rows


def ts_us(col) -> np.ndarray:
    """Timestamp column → int64 epoch microseconds (explicit unit: Arrow
    may surface [us] or [ns] depending on the version)."""
    return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64()).to_numpy(
        zero_copy_only=False
    )


def key_runs(kcol) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the runs of equal values in a sorted, non-empty
    key column; NULL is a value of its own."""
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    codes = np.asarray(
        kcol.dictionary_encode(null_encoding="encode").indices, dtype=np.int64
    )
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    return starts, np.r_[starts[1:], codes.size]


def group_chain(blocks: list[Block], step: Callable) -> list:
    """The chain of a scan that emits one row per group (session, island,
    key) where a group can continue across blocks.  ``step(open, blk)``
    takes the group left open by the blocks before (None when ``blk``
    opens a new key) and returns ``(joined, left_open)``: ``open`` if the
    block's first group extends it (else None), and the group the block
    leaves open.  → per block None or ``(joined, ends_later)``: the apply
    merges ``joined`` into its first group and, when ``ends_later``, does
    not emit its last group, which a later block emits."""
    joined, open_ = [], None
    for blk in blocks:
        j, open_ = step(open_ if blk.cont else None, blk)
        joined.append(j)
    later = [j is not None for j in joined[1:]] + [False]
    return [
        None if j is None and not e else (j, e) for j, e in zip(joined, later)
    ]


def _with_sort_key(t: pa.Table, *, key: str) -> pa.Table:
    if key not in t.column_names:  # schema-less empty block
        return t
    k = t[key]
    if pa.types.is_null(k.type):  # a block whose keys are all NULL
        k = k.cast(pa.int8())
    text = pa.types.is_string(k.type) or pa.types.is_large_string(k.type)
    fill = pa.scalar("" if text else 0).cast(k.type)
    return t.append_column(_KEY_NULL, pc.is_null(k)).append_column(
        _KEY_FILLED, pc.fill_null(k, fill)
    )


def block_scan(
    ds,
    *,
    op: str,
    key: str | None,
    order: list[str],
    cols: list[str] | None,
    edge: Callable[[pa.Table, np.ndarray, np.ndarray], list],
    chain: Callable[[list[Block]], list[Any]],
    apply: Callable[[pa.Table, np.ndarray, np.ndarray, Any], pa.Table],
):
    """Scan ``ds`` per ``key`` in ``order`` (module docstring) → the
    Dataset of ``apply``'s rows, in sort order.  ``cols`` projects the
    input first (None keeps every column)."""
    import ray

    if cols is not None:
        ds = ds.select_columns(cols)
    if key is None:
        sort_cols, helpers = list(order), []
    else:
        ds = ds.map_batches(
            _with_sort_key, fn_kwargs={"key": key}, batch_size=None,
            batch_format="pyarrow",
        )
        helpers = [_KEY_NULL, _KEY_FILLED]
        sort_cols = [*helpers, *order]
    srt = ds.sort(sort_cols).materialize()

    def split(b: pa.Table):
        """→ (first-row sort tuple, the kernels' block, starts, ends)."""
        lead = tuple(b[c][0].as_py() for c in sort_cols)
        b = b.drop_columns(helpers)
        if key is None:
            return lead, b, np.array([0]), np.array([len(b)])
        return lead, b, *key_runs(b[key])

    def edge_pass(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"rec": pa.array([], pa.binary())})
        lead, kb, starts, ends = split(b)
        last = tuple(b[c][len(b) - 1].as_py() for c in helpers)
        first = lead[: len(helpers)]
        rec = (lead, first, last, starts.size == 1, edge(kb, starts, ends))
        return pa.table({"rec": pa.array([pickle.dumps(rec)], pa.binary())})

    recs = sorted(
        (
            pickle.loads(r["rec"])
            for r in srt.map_batches(
                edge_pass, batch_size=None, batch_format="pyarrow"
            ).take_all()
        ),
        key=lambda r: r[0],
    )
    for a, b in zip(recs, recs[1:]):
        if a[0] == b[0]:
            raise ValueError(
                f"{op}: two sorted blocks start with the same sort tuple "
                f"{a[0]!r}, so their carries cannot be told apart; the range "
                "sort split a run of equal sort tuples across blocks"
            )
    blocks, prev_last = [], None
    for _, first, last, one_run, rows in recs:
        blocks.append(Block(first == prev_last, one_run, rows))
        prev_last = last
    note(op, summary_rows=sum(len(b.edge) for b in blocks), blocks=srt.num_blocks())
    carries = chain(blocks)
    ref = ray.put({r[0]: c for r, c in zip(recs, carries) if c is not None})

    def apply_pass(b: pa.Table, *, _ref=ref) -> pa.Table:
        if len(b) == 0:
            return pa.table({})
        lead, kb, starts, ends = split(b)
        return apply(kb, starts, ends, ray.get(_ref).get(lead))

    return srt.map_batches(apply_pass, batch_size=None, batch_format="pyarrow")
