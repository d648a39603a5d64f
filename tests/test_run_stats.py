"""The run record (``state.metrics``): a ``recording()`` sees only the
notes of its own context, and with no record bound a note is a no-op."""

import threading

import pandas as pd
import pytest

import ray.data as rd

from zonal_stats_toolkit_ray.stages.rank import topk_per_group
from zonal_stats_toolkit_ray.state import metrics


def _topk(n_groups: int) -> pd.DataFrame:
    # one block, 3 rows per group: the driver frame is n_groups × k rows
    df = pd.DataFrame(
        {
            "grp": [g for g in range(n_groups) for _ in range(3)],
            "event_id": range(3 * n_groups),
            "value": [float(i % 3) for i in range(3 * n_groups)],
        }
    )
    return topk_per_group(
        rd.from_pandas(df), key_col="grp", value_col="value", id_col="event_id", k=2
    )


def test_threads_keep_separate_records(ray_session):
    barrier = threading.Barrier(2)
    records: dict[int, metrics.RunStats] = {}

    def run(n_groups: int) -> None:
        with metrics.recording() as rec:
            barrier.wait(timeout=60)
            _topk(n_groups)
        records[n_groups] = rec

    with metrics.recording() as main:
        threads = [threading.Thread(target=run, args=(n,)) for n in (3, 7)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
    assert main == []  # a new thread starts with an empty context
    assert sorted(records) == [3, 7]
    for n_groups, rec in records.items():
        [entry] = rec.all("rank.topk_per_group")
        assert entry == {"driver_rows": 2 * n_groups, "tree_levels": 0}
        assert len(rec) == 1


def test_no_record_bound_is_a_no_op(ray_session):
    assert metrics.note("anything", rows=1) is None
    out = _topk(4)
    assert len(out) == 8
    with metrics.recording() as rec:
        pass
    assert rec == []
    with pytest.raises(IndexError):
        rec.last("rank.topk_per_group")


def test_span_notes_wall_time_and_nests_records():
    with metrics.recording() as outer:
        with metrics.recording() as inner:
            with metrics.span("op", stage="a"):
                pass
        metrics.note("op", stage="b")
    assert [f["stage"] for f in inner.all("op")] == ["a"]
    assert inner.last("op")["wall_s"] >= 0
    assert outer.all("op") == [{"stage": "b"}]
