"""bigram_pmi collocation mining: kernel determinism, regime equality,
and a hand-computable fixture."""

import numpy as np
import pandas as pd
import pandas.testing as pt
import pyarrow as pa

import ray.data as rd

from zonal_stats_toolkit_ray.stages.colloc import bigram_count_batch, bigram_pmi


class TestBigramCountBatch:
    def test_counts_and_doc_boundaries(self):
        b = pa.table({"text": ["a b a b", "b a", None, ""]})
        out = bigram_count_batch(b).to_pandas()
        uni = out[out["kind"] == 0].set_index("a")["n"]
        big = out[out["kind"] == 1].set_index(["a", "b"])["n"]
        assert uni["a"] == 3 and uni["b"] == 3
        # "a b" twice in doc0; "b a" once in doc0 + once in doc1 — the
        # doc0→doc1 boundary must NOT create a ("b","b") bigram
        assert big[("a", "b")] == 2
        assert big[("b", "a")] == 2
        assert ("b", "b") not in big.index

    def test_empty_batch_schema(self):
        b = pa.table({"text": pa.array([], pa.string())})
        out = bigram_count_batch(b)
        assert out.schema.names == ["kind", "a", "b", "n"]


class TestBigramPmi:
    def test_hand_fixture(self, ray_session):
        # "x y" always adjacent (PMI high), "x z" never adjacent
        docs = ["x y", "x y", "x y", "w v", "w q", "v q"] * 2
        ds = rd.from_pandas(pd.DataFrame({"text": docs})).repartition(3)
        out = bigram_pmi(ds, min_count=2, top_n=5)
        assert list(out.iloc[0][["a", "b"]]) == ["x", "y"]
        # exact PMI: n_ab=6, nu=24, nb=12, ca=cb=6 → log2(6·24²/(12·36))
        expect = round(float(np.log2((6 * 24.0 * 24.0) / (12.0 * 6.0 * 6.0))), 6)
        assert out.iloc[0]["pmi"] == expect
        assert out.iloc[0]["n_ab"] == 6

    def test_regime_equality(self, ray_session, monkeypatch):
        from zonal_stats_toolkit_ray.stages import guard

        ds = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet", columns=["text"]
        )
        a = bigram_pmi(ds, min_count=5, top_n=10)
        monkeypatch.setattr(guard, "DRIVER_ROWS", 0)
        b = bigram_pmi(ds, min_count=5, top_n=10)
        pt.assert_frame_equal(a, b, check_like=True)

    def test_min_count_prunes(self, ray_session):
        docs = ["a b", "a b", "c d"]
        ds = rd.from_pandas(pd.DataFrame({"text": docs}))
        out = bigram_pmi(ds, min_count=2, top_n=10)
        assert set(zip(out["a"], out["b"])) == {("a", "b")}

    def test_empty_corpus(self, ray_session):
        ds = rd.from_pandas(pd.DataFrame({"text": ["", None]}))
        out = bigram_pmi(ds, min_count=1, top_n=5)
        assert len(out) == 0


class TestKeyness:
    def test_matches_bruteforce_logodds(self, ray_session, force_tree):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from zonal_stats_toolkit_ray.stages import text
        from zonal_stats_toolkit_ray.stages.text import keyness_terms

        rng = np.random.default_rng(31)
        vocab = [f"w{i}" for i in range(30)]
        rows = []
        for g, bias in (("a", 0), ("b", 10), ("c", 20)):
            for _ in range(40):
                idx = (rng.integers(0, 12, 8) + bias) % 30
                rows.append({"lang": g, "text": " ".join(vocab[i] for i in idx)})
        # NULL-lang documents count in the token and corpus totals but
        # score no rows (the SQL twin's JOIN on lang drops them)
        rows += [{"lang": None, "text": "w1 w2 w2 w29"}, {"lang": None, "text": "w5"}]
        df = pd.DataFrame(rows)
        levels = force_tree(text)  # force at least one tree level
        for parts in (1, 5):
            got = keyness_terms(
                rd.from_pandas(df).repartition(parts),
                group_col="lang",
                top_n=3,
            )
            assert levels[-1] >= 1, levels
            # brute force
            toks = (
                df.assign(tok=df["text"].str.lower().str.split())
                .explode("tok")
            )
            gt = (
                toks.groupby(["lang", "tok"], dropna=False)
                .size().rename("c").reset_index()
            )
            tt = gt.groupby("tok")["c"].sum()
            call = float(gt["c"].sum())
            gt = gt[gt["lang"].notna()].reset_index(drop=True)
            gg = gt.groupby("lang")["c"].sum()
            sc = []
            for _, r in gt.iterrows():
                c, cg, ct = float(r["c"]), float(gg[r["lang"]]), float(tt[r["tok"]])
                s = np.log((c + 1) / (cg - c + 1)) - np.log(
                    (ct - c + 1) / (call - cg - (ct - c) + 1)
                )
                sc.append(round(s, 6))
            gt["score"] = sc
            want = (
                gt.sort_values(
                    ["lang", "score", "tok"], ascending=[True, False, True]
                )
                .groupby("lang")
                .head(3)
                .reset_index(drop=True)
            )
            m = got.merge(
                want, left_on=["lang", "token"], right_on=["lang", "tok"]
            )
            assert len(m) == len(got) == 9
            assert np.allclose(m["score_x"], m["score_y"])
