"""Incremental dedup against the persisted content index
(stages/incremental.py): semantics, regime equality, pruned reads,
index-update canonical stability."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from zonal_stats_toolkit_ray.state import metrics


def _docs(rows):
    import ray.data as rd

    ids, texts = zip(*rows)
    return rd.from_arrow(
        pa.table({"doc_id": pa.array(list(ids), pa.int64()), "text": pa.array(list(texts))})
    )


def _run(shard, index_dir, **kw):
    from zonal_stats_toolkit_ray.stages.incremental import incremental_dedup

    return (
        incremental_dedup(shard, index_dir, **kw)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


class TestIncrementalDedup:
    def test_basic_semantics_and_corpus_precedence(self, ray_session, tmp_path):
        from zonal_stats_toolkit_ray.stages.incremental import content_index_write

        idx = str(tmp_path / "idx")
        # corpus id 100 holds "X": corpus precedence means it beats the
        # NUMERICALLY SMALLER shard id 5
        corpus = _docs([(100, "X"), (101, "Q"), (102, "Q")])
        content_index_write(corpus, idx, num_buckets=8)

        shard = _docs([(5, "X"), (6, "Y"), (7, "Y"), (9, "Z")])
        out = _run(shard, idx)
        exp = pd.DataFrame(
            {
                "doc_id": [5, 6, 7, 9],
                "canonical_id": [100, 6, 6, 9],
                "is_duplicate": [True, False, True, False],
            }
        )
        pd.testing.assert_frame_equal(out, exp)

    def test_regimes_equal(self, ray_session, tmp_path, monkeypatch):
        from zonal_stats_toolkit_ray.stages import guard
        from zonal_stats_toolkit_ray.stages.incremental import content_index_write

        idx = str(tmp_path / "idx")
        rng = np.random.default_rng(7)
        corpus_rows = [(int(i), f"corpus text {int(rng.integers(0, 40))}") for i in range(0, 60)]
        shard_rows = [(int(100 + i), f"corpus text {int(rng.integers(0, 80))}") for i in range(50)]
        content_index_write(_docs(corpus_rows), idx, num_buckets=8)

        with metrics.recording() as rec:
            out_b = _run(_docs(shard_rows), idx)
            monkeypatch.setattr(guard, "DRIVER_ROWS", 0)
            out_j = _run(_docs(shard_rows), idx)
        stats_b, stats_j = rec.all("incremental.incremental_dedup")
        assert stats_b["regime"] == "broadcast"
        assert stats_j["regime"] == "join"
        pd.testing.assert_frame_equal(out_b, out_j)

        # independent pandas reference
        cor = pd.DataFrame(corpus_rows, columns=["doc_id", "text"])
        sha = pd.DataFrame(shard_rows, columns=["doc_id", "text"])
        cmin = cor.groupby("text")["doc_id"].min()
        smin = sha.groupby("text")["doc_id"].min()
        canon = sha["text"].map(cmin).fillna(sha["text"].map(smin)).astype(np.int64)
        exp = pd.DataFrame(
            {
                "doc_id": sha["doc_id"].to_numpy(),
                "canonical_id": canon.to_numpy(),
                "is_duplicate": canon.to_numpy() != sha["doc_id"].to_numpy(),
            }
        ).sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(out_b, exp)

    def test_pruned_read_touches_only_shard_buckets(self, ray_session, tmp_path):
        from zonal_stats_toolkit_ray.stages.incremental import content_index_write

        idx = str(tmp_path / "idx")
        corpus = _docs([(i, f"doc number {i}") for i in range(300)])
        content_index_write(corpus, idx, num_buckets=32)

        with metrics.recording() as rec:
            _run(_docs([(1000, "doc number 3")]), idx)
        stats = rec.last("incremental.incremental_dedup")
        assert stats["buckets_probed"] == 1
        assert stats["dirs_total"] > 16  # 300 distinct hashes fill most of 32
        total_files = sum(
            len(fs)
            for d, _, fs in os.walk(idx)
            if os.path.basename(d).startswith("bucket=")
        )
        assert stats["files_read"] < total_files

    @pytest.mark.parametrize("driver_rows", [2_000_000, 0])
    def test_update_index_canonical_stability(
        self, ray_session, tmp_path, monkeypatch, driver_rows
    ):
        from zonal_stats_toolkit_ray.stages import guard
        from zonal_stats_toolkit_ray.stages.incremental import (
            content_index_write,
            incremental_dedup,
        )

        # the driver budget picks the regime: broadcast (2M) or join (0)
        monkeypatch.setattr(guard, "DRIVER_ROWS", driver_rows)
        idx = str(tmp_path / f"idx{driver_rows}")
        content_index_write(_docs([(1, "alpha"), (2, "beta")]), idx, num_buckets=4)

        # shard 1: one corpus dup, one new text — append only the new hash
        out1 = _run(
            _docs([(10, "alpha"), (11, "gamma")]),
            idx,
            update_index=True,
        )
        assert out1.loc[out1.doc_id == 10, "is_duplicate"].item()
        assert not out1.loc[out1.doc_id == 11, "is_duplicate"].item()

        # shard 2 re-presents all three texts: canonical ids must be the
        # ORIGINAL owners — corpus doc 1 for "alpha" (NOT shard-1 doc 10,
        # which must not have been appended), shard-1 doc 11 for "gamma"
        out2 = _run(
            _docs([(20, "alpha"), (21, "gamma"), (22, "delta")]),
            idx,
        )
        exp = pd.DataFrame(
            {
                "doc_id": [20, 21, 22],
                "canonical_id": [1, 11, 22],
                "is_duplicate": [True, True, False],
            }
        )
        pd.testing.assert_frame_equal(out2, exp)

    def test_no_corpus_match_and_empty_buckets(self, ray_session, tmp_path):
        from zonal_stats_toolkit_ray.stages.incremental import content_index_write

        idx = str(tmp_path / "idx")
        content_index_write(_docs([(1, "only corpus doc")]), idx, num_buckets=16)
        with metrics.recording() as rec:
            out = _run(_docs([(50, "brand new"), (51, "brand new"), (52, "other")]), idx)
        assert rec.last("incremental.incremental_dedup")["corpus_matches"] == 0
        exp = pd.DataFrame(
            {
                "doc_id": [50, 51, 52],
                "canonical_id": [50, 50, 52],
                "is_duplicate": [False, True, False],
            }
        )
        pd.testing.assert_frame_equal(out, exp)

    def test_rebuild_is_clean(self, ray_session, tmp_path):
        """content_index_write over an existing index must not leave stale
        bucket files behind (same contract as the IVF/inverted builders)."""
        from zonal_stats_toolkit_ray.stages.incremental import content_index_write

        idx = str(tmp_path / "idx")
        content_index_write(_docs([(i, f"old {i}") for i in range(100)]), idx, num_buckets=4)
        content_index_write(_docs([(1, "new")]), idx, num_buckets=4)
        out = _run(_docs([(9, "old 3"), (10, "new")]), idx)
        exp = pd.DataFrame(
            {
                "doc_id": [9, 10],
                "canonical_id": [9, 1],
                "is_duplicate": [False, True],
            }
        )
        pd.testing.assert_frame_equal(out, exp)

