"""Unit tests for vocab_overlap and inverted-index phrase_search."""

import numpy as np
import pandas as pd
import pytest
from zonal_stats_toolkit_ray.state import metrics


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


class TestVocabOverlap:
    def test_matches_set_reference(self, rd):
        from zonal_stats_toolkit_ray.stages.text import vocab_overlap

        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(60)]
        rows = []
        for i in range(200):
            lang = ["en", "fr", "de"][i % 3]
            rows.append((lang, " ".join(rng.choice(words, rng.integers(2, 15)))))
        df = pd.DataFrame(rows, columns=["lang", "text"])
        got = vocab_overlap(rd.from_pandas(df).repartition(5))
        vocab = {
            l: set(w for t in g["text"] for w in t.lower().split())
            for l, g in df.groupby("lang")
        }
        import itertools

        for a, b in itertools.combinations(sorted(vocab), 2):
            row = got[(got["group_a"] == a) & (got["group_b"] == b)]
            assert len(row) == 1
            assert row["inter"].iloc[0] == len(vocab[a] & vocab[b])
            assert row["size_a"].iloc[0] == len(vocab[a])
            assert row["size_b"].iloc[0] == len(vocab[b])

    def test_disjoint_groups_absent(self, rd):
        from zonal_stats_toolkit_ray.stages.text import vocab_overlap

        df = pd.DataFrame(
            {"lang": ["en", "fr"], "text": ["alpha beta", "gamma delta"]}
        )
        got = vocab_overlap(rd.from_pandas(df))
        assert len(got) == 0  # no shared token → no pair row


class TestPhraseSearch:
    def test_consecutive_run_required(self, rd, tmp_path):
        from zonal_stats_toolkit_ray.stages.invindex import phrase_search

        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "the quick brown fox jumps",
                    "quick   Brown\tfox here",  # whitespace/case normalize
                    "brown quick fox",  # tokens present, wrong order
                    "quick brownfox",  # no token boundary
                ],
            }
        )
        got = phrase_search(
            rd.from_pandas(df),
            "quick brown fox",
            index_dir=str(tmp_path / "idx"),
        )
        assert got["doc_id"].tolist() == [0, 1]

    def test_pruned_bucket_reads(self, rd, tmp_path):
        from zonal_stats_toolkit_ray.stages.invindex import phrase_search

        df = pd.DataFrame(
            {
                "doc_id": np.arange(50),
                "text": [f"common filler w{i} quick brown" for i in range(50)],
            }
        )
        with metrics.recording() as rec:
            got = phrase_search(
                rd.from_pandas(df).repartition(4),
                "quick brown",
                index_dir=str(tmp_path / "idx2"),
                num_buckets=32,
            )
        assert got["doc_id"].tolist() == list(range(50))
        stats = rec.last("invindex.token_lookup")
        assert stats["buckets_probed"] <= 2 < stats["dirs_total"]


class TestEncodeCorpus:
    def test_roundtrip_decode(self, rd):
        from zonal_stats_toolkit_ray.stages.text import encode_corpus, vocabulary_ids

        df = pd.DataFrame(
            {
                "doc_id": [1, 2, 3],
                "text": ["b a b", "  a   c ", ""],
            }
        )
        ds = rd.from_pandas(df)
        vocab = vocabulary_ids(ds).to_pandas()
        id2tok = dict(zip(vocab["token_id"], vocab["token"]))
        got = (
            encode_corpus(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert got["doc_id"].tolist() == [1, 2]  # empty doc omitted
        # decode back
        dec = [
            " ".join(id2tok[int(i)] for i in s.split()) for s in got["id_seq"]
        ]
        assert dec == ["b a b", "a c"]
        assert got["n_tokens"].tolist() == [3, 2]
        # most frequent token gets id 1: a appears in 2 docs, b in 1
        assert id2tok[1] == "a"

    def test_multi_block_vocab_consistency(self, rd):
        from zonal_stats_toolkit_ray.stages.text import encode_corpus

        rng = np.random.default_rng(13)
        words = [f"w{i:03d}" for i in range(200)]
        texts = [" ".join(rng.choice(words, 20)) for _ in range(300)]
        df = pd.DataFrame({"doc_id": np.arange(300), "text": texts})
        got = (
            encode_corpus(rd.from_pandas(df).repartition(8))
            .to_pandas()
            .sort_values("doc_id")
        )
        # every doc encodes to exactly 20 ids; ids are globally consistent
        assert (got["n_tokens"] == 20).all()
        first = {}
        ok = True
        for txt, seq in zip(texts, got["id_seq"]):
            for w, i in zip(txt.split(), seq.split()):
                if w in first and first[w] != i:
                    ok = False
                first[w] = i
        assert ok


class TestNegativeSamples:
    def test_distribution_follows_df_power(self, rd):
        from zonal_stats_toolkit_ray.stages.text import negative_samples

        # token 'hot' in ~all docs, 'cold' in few → hot drawn far more often
        rng = np.random.default_rng(7)
        texts = []
        for i in range(400):
            toks = ["hot"]
            if i % 40 == 0:
                toks.append("cold")
            toks.append(f"mid{i % 20}")
            texts.append(" ".join(toks))
        df = pd.DataFrame({"doc_id": np.arange(400), "text": texts})
        got = negative_samples(
            rd.from_pandas(df).repartition(4), per_doc=10
        ).to_pandas()
        counts = got["neg_token"].value_counts()
        assert counts.get("hot", 0) > 10 * counts.get("cold", 1)
        assert len(got) == 4000
        # deterministic: re-run identical
        again = negative_samples(rd.from_pandas(df), per_doc=10).to_pandas()
        a = got.sort_values(["doc_id", "j"]).reset_index(drop=True)
        b = again.sort_values(["doc_id", "j"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
