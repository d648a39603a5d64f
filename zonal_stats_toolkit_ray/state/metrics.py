"""One run-scoped record of what the engine did (north_rule: per-partition
lineage + metrics; the reference only logs progress).

An entry is ``(op, fields)``: ``op`` is ``"<module>.<function>"`` and the
fields say what it chose and moved (regime, driver rows, tree levels, files
read, ``wall_s``, ...).  ``recording()`` binds a fresh ``RunStats`` to the
current context; ``note`` appends to it and does nothing when none is
bound.  Executor threads start with an empty context, so submit work
through ``contextvars.copy_context().run`` to keep it recorded.

Notes are recorded on the driver only: a UDF that runs in a Ray task
(``map_batches``, ``map_groups``) runs in a worker process where no record
is bound, so what it notes there is lost.  Read a note back with
``rec.last("rank.topk_per_group")["driver_rows"]``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar


class RunStats(list):
    """Append-only list of ``(op, fields)`` entries, in note order."""

    def all(self, op: str) -> list[dict]:
        return [fields for o, fields in self if o == op]

    def last(self, op: str) -> dict:
        return self.all(op)[-1]


_CURRENT: ContextVar[RunStats | None] = ContextVar("run_stats", default=None)


@contextmanager
def recording():
    """Bind a fresh ``RunStats`` for the body of the ``with`` and yield it."""
    rec = RunStats()
    token = _CURRENT.set(rec)
    try:
        yield rec
    finally:
        _CURRENT.reset(token)


def note(op: str, **fields) -> None:
    """Append ``(op, fields)`` to the bound record; no-op when none is."""
    rec = _CURRENT.get()
    if rec is not None:
        rec.append((op, fields))


@contextmanager
def span(op: str, **fields):
    """Note ``op`` with ``fields`` and the body's ``wall_s`` when it exits."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        note(op, wall_s=time.perf_counter() - t0, **fields)
