"""Unit tests for ab_test (Welch's t), intersect_distinct, and
vocabulary_ids (frequency-ranked vocab id assignment)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


class TestABTest:
    def test_matches_scipy_style_reference(self, rd):
        from zonal_stats_toolkit_ray.stages.bivar import ab_test

        rng = np.random.default_rng(7)
        n = 4000
        g = rng.integers(0, 3, n)
        variant = rng.integers(0, 2, n)
        # variant 1 of group 2 has a real effect
        v = rng.normal(10.0, 2.0, n) + (g == 2) * variant * 0.5
        df = pd.DataFrame(
            {"grp": np.char.add("g", g.astype(str)), "variant": variant, "v": v}
        )
        out = ab_test(
            rd.from_pandas(df).repartition(7),
            group_col="grp",
            variant_col="variant",
            value_col="v",
        )
        for _, row in out.iterrows():
            sub = df[df["grp"] == row["grp"]]
            a = sub[sub["variant"] == 0]["v"].to_numpy()
            b = sub[sub["variant"] == 1]["v"].to_numpy()
            ma, mb = a.mean(), b.mean()
            va, vb = a.var(ddof=1), b.var(ddof=1)
            se2 = va / len(a) + vb / len(b)
            t = (ma - mb) / np.sqrt(se2)
            assert row["n_a"] == len(a) and row["n_b"] == len(b)
            assert abs(row["mean_a"] - ma) < 1e-9
            assert abs(row["t_stat"] - t) < 1e-7
            dof = se2 * se2 / (
                (va / len(a)) ** 2 / (len(a) - 1) + (vb / len(b)) ** 2 / (len(b) - 1)
            )
            assert abs(row["dof"] - dof) < 1e-5
        # the planted effect shows up as a large |t| only in group 2
        byg = out.set_index("grp")
        assert abs(byg.loc["g2", "t_stat"]) > 3.0
        assert abs(byg.loc["g0", "t_stat"]) < 3.0

    def test_degenerate_groups_null(self, rd):
        from zonal_stats_toolkit_ray.stages.bivar import ab_test

        df = pd.DataFrame(
            {
                "grp": ["only_a", "only_a", "tiny", "tiny", "tiny"],
                "variant": [0, 0, 0, 1, 1],
                "v": [1.0, 2.0, 3.0, 4.0, 5.0],
            }
        )
        out = ab_test(
            rd.from_pandas(df), group_col="grp", variant_col="variant", value_col="v"
        ).set_index("grp")
        assert np.isnan(out.loc["only_a", "t_stat"])  # missing variant
        assert np.isnan(out.loc["tiny", "t_stat"])  # n_a < 2
        assert out.loc["only_a", "n_b"] == 0


class TestIntersectDistinct:
    def test_matches_pandas(self, rd):
        from zonal_stats_toolkit_ray.stages.joins import intersect_distinct

        rng = np.random.default_rng(3)
        a = pd.DataFrame(
            {"x": rng.integers(0, 20, 500), "y": rng.integers(0, 3, 500)}
        )
        b = pd.DataFrame(
            {"x": rng.integers(10, 30, 500), "y": rng.integers(0, 3, 500)}
        )
        got = intersect_distinct(
            rd.from_pandas(a).repartition(5), rd.from_pandas(b).repartition(3),
            ["x", "y"],
        )
        want = (
            a.drop_duplicates()
            .merge(b.drop_duplicates(), on=["x", "y"])
            .sort_values(["x", "y"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.astype({"x": np.int64, "y": np.int64}), want.astype(np.int64)
        )

    def test_empty_intersection(self, rd):
        from zonal_stats_toolkit_ray.stages.joins import intersect_distinct

        a = pd.DataFrame({"x": [1, 2]})
        b = pd.DataFrame({"x": [3, 4]})
        got = intersect_distinct(rd.from_pandas(a), rd.from_pandas(b), ["x"])
        assert len(got) == 0


class TestVocabularyIds:
    def test_large_vocab_multi_block(self, rd, monkeypatch):
        """10k distinct tokens across 16 blocks — ids must be the global
        ROW_NUMBER over (df DESC, token ASC) even though assignment is
        block-local (stresses the block-offset scan, unlike the 31-token
        corpus fixture)."""
        from zonal_stats_toolkit_ray.stages import guard
        from zonal_stats_toolkit_ray.stages.text import vocabulary_ids

        monkeypatch.setattr(guard, "shuffle_partitions", lambda: 8)
        rng = np.random.default_rng(11)
        # token tNNNN appears in (NNNN % 37) + 1 docs → heavy df ties
        docs = []
        tok_docs = {}
        for i in range(10_000):
            tok = f"t{i:05d}"
            tok_docs[tok] = i % 37 + 1
        # build doc texts: round-robin tokens into docs
        n_docs = 40
        buckets = [[] for _ in range(n_docs)]
        for tok, k in tok_docs.items():
            choice = rng.choice(n_docs, size=k, replace=False)
            for d in choice:
                buckets[d].append(tok)
        docs = [" ".join(b) for b in buckets]
        ds = rd.from_pandas(pd.DataFrame({"text": docs})).repartition(16)
        out = (
            vocabulary_ids(ds)
            .to_pandas()
            .sort_values("token_id")
            .reset_index(drop=True)
        )
        assert len(out) == 10_000
        # contiguous 1-based ids
        assert out["token_id"].tolist() == list(range(1, 10_001))
        # df values correct
        got_df = dict(zip(out["token"], out["df"]))
        assert got_df == tok_docs
        # global order: df desc, token asc
        ref = sorted(tok_docs.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [t for t, _ in ref] == out["token"].tolist()

    def test_repeated_token_in_doc_counts_once(self, rd):
        from zonal_stats_toolkit_ray.stages.text import vocabulary_ids

        ds = rd.from_pandas(
            pd.DataFrame({"text": ["a a a b", "b c", "  c   b  "]})
        )
        out = vocabulary_ids(ds).to_pandas().sort_values("token_id")
        assert out["token"].tolist() == ["b", "a", "c"] or out["token"].tolist() == [
            "b",
            "c",
            "a",
        ]
        # b in 3 docs, a in 1, c in 2 → order b(3), c(2), a(1)
        assert out["token"].tolist() == ["b", "c", "a"]
        assert out["df"].tolist() == [3, 2, 1]
        assert out["token_id"].tolist() == [1, 2, 3]
