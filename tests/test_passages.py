"""common_passages: exact duplicate-passage detection."""

import numpy as np
import pandas as pd
import pandas.testing as pt

import ray.data as rd

from zonal_stats_toolkit_ray.stages.passages import common_passages


class TestCommonPassages:
    def test_planted_shared_passage(self, ray_session):
        shared = "alpha beta gamma delta epsilon zeta eta theta"  # 8 words
        docs = [
            f"unique{i} words here only " * 3 + (shared if i in (2, 5) else "")
            for i in range(8)
        ]
        df = pd.DataFrame({"doc_id": np.arange(8, dtype=np.int64), "text": docs})
        ds = rd.from_pandas(df).repartition(4)
        out = common_passages(ds, n=8)
        # docs 2 and 5 share windows; the "unique{i} words here only"
        # repetitions inside one doc do NOT count (distinct per doc, and
        # not present in any other doc with the unique prefix)
        assert set(out["doc_id"]) == {2, 5}
        assert (out["n_shared"] >= 1).all()

    def test_regime_equality(self, ray_session, monkeypatch):
        from zonal_stats_toolkit_ray.stages import guard

        ds = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
        )
        a = common_passages(ds)
        monkeypatch.setattr(guard, "DRIVER_ROWS", 0)
        b = common_passages(ds)
        pt.assert_frame_equal(a, b)

    def test_no_shared(self, ray_session):
        docs = [f"totally unique doc {i} " * 5 for i in range(4)]
        df = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64), "text": docs})
        out = common_passages(rd.from_pandas(df), n=8)
        assert len(out) == 0
        assert list(out.columns) == ["doc_id", "n_shared"]

    def test_short_doc_fallback_whole_doc_gram(self, ray_session):
        # docs under n tokens hash as one whole-doc gram (word_ngram_hashes
        # fallback): two identical 3-word docs must flag each other
        df = pd.DataFrame(
            {
                "doc_id": np.array([1, 2, 3], dtype=np.int64),
                "text": ["tiny doc here", "tiny doc here", "another short one"],
            }
        )
        out = common_passages(rd.from_pandas(df), n=8)
        assert set(out["doc_id"]) == {1, 2}
        assert (out["n_shared"] == 1).all()
