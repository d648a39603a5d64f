"""Unit tests for duplicated n-gram span coverage (stages/dupspan.py)."""

import numpy as np
import pandas as pd
import pytest
from zonal_stats_toolkit_ray.state import metrics


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


def brute_coverage(texts: dict[int, str], n: int = 8, min_docs: int = 2):
    toks = {
        d: [w for w in t.lower().split() if w != ""] for d, t in texts.items()
    }
    gram_docs: dict[tuple, set] = {}
    for d, w in toks.items():
        for i in range(len(w) - n + 1):
            gram_docs.setdefault(tuple(w[i : i + n]), set()).add(d)
    out = {}
    for d, w in toks.items():
        covered = set()
        for i in range(len(w) - n + 1):
            if len(gram_docs[tuple(w[i : i + n])]) >= min_docs:
                covered.update(range(i, i + n))
        out[d] = (len(w), len(covered), len(covered) / len(w) if w else 0.0)
    return out


def make_corpus(rng, n_docs=60):
    words = [f"w{i}" for i in range(50)]
    shared_a = " ".join(rng.choice(words, 12))  # a 12-token boilerplate
    shared_b = " ".join(rng.choice(words, 9))
    texts = {}
    for d in range(n_docs):
        body = " ".join(rng.choice(words, rng.integers(3, 40)))
        parts = [body]
        if d % 3 == 0:
            parts.insert(rng.integers(0, 2), shared_a)
        if d % 5 == 0:
            parts.append(shared_b)
        texts[d] = " ".join(parts)
    return texts


class TestDupSpanCoverage:
    def test_matches_bruteforce(self, rd):
        from zonal_stats_toolkit_ray.stages.dupspan import dup_span_coverage

        rng = np.random.default_rng(17)
        texts = make_corpus(rng)
        df = pd.DataFrame(
            {"doc_id": list(texts.keys()), "text": list(texts.values())}
        )
        got = dup_span_coverage(
            rd.from_pandas(df).repartition(7), n=8
        ).set_index("doc_id")
        want = brute_coverage(texts)
        for d, (nt, cov, frac) in want.items():
            assert got.loc[d, "n_tokens"] == nt
            assert got.loc[d, "covered"] == cov, d
            assert abs(got.loc[d, "coverage"] - frac) < 1e-6
        # boilerplate actually detected somewhere
        assert (got["covered"] > 0).any()

    def test_join_regime_matches_broadcast(self, rd, monkeypatch):
        from zonal_stats_toolkit_ray.stages.dupspan import dup_span_coverage

        rng = np.random.default_rng(23)
        texts = make_corpus(rng, n_docs=40)
        df = pd.DataFrame(
            {"doc_id": list(texts.keys()), "text": list(texts.values())}
        )
        ds = rd.from_pandas(df).repartition(5)
        a = dup_span_coverage(ds, n=8)
        from zonal_stats_toolkit_ray.stages import guard

        monkeypatch.setattr(guard, "DRIVER_ROWS", 0)
        with metrics.recording() as rec:
            b = dup_span_coverage(ds, n=8)
        assert rec.last("dupspan.dup_span_coverage")["regime"] == "hash_join"
        pd.testing.assert_frame_equal(a, b)

    def test_short_docs_and_no_dups(self, rd):
        from zonal_stats_toolkit_ray.stages.dupspan import dup_span_coverage

        df = pd.DataFrame(
            {
                "doc_id": [1, 2, 3],
                "text": ["a b c", "d e f g h i j k", "x y z q r s t u v"],
            }
        )
        got = dup_span_coverage(rd.from_pandas(df), n=8)
        assert got["covered"].tolist() == [0, 0, 0]
        assert got["coverage"].tolist() == [0.0, 0.0, 0.0]
        assert got["n_tokens"].tolist() == [3, 8, 9]

    def test_overlapping_spans_union(self, rd):
        from zonal_stats_toolkit_ray.stages.dupspan import dup_span_coverage

        # two docs share a 10-token run → 3 overlapping 8-grams each,
        # union = 10 tokens, not 24
        shared = " ".join(f"s{i}" for i in range(10))
        df = pd.DataFrame(
            {
                "doc_id": [1, 2],
                "text": [f"u1 u2 {shared} u3", f"{shared} v1 v2 v3"],
            }
        )
        got = dup_span_coverage(rd.from_pandas(df), n=8).set_index("doc_id")
        assert got.loc[1, "covered"] == 10
        assert got.loc[2, "covered"] == 10
