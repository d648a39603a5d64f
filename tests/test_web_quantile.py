"""Round-4 operators: URL host extraction / per-domain stats and the
global-quantile filter."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from zonal_stats_toolkit_ray.stages.split import global_quantile, quantile_filter
from zonal_stats_toolkit_ray.stages.web import host_stats, url_host_batch
from zonal_stats_toolkit_ray.state import metrics


class TestUrlHost:
    def test_extract_variants(self):
        b = pa.table(
            {
                "url": [
                    "https://a.example/doc/1",
                    "http://b.example:8080/x?q=1",
                    "ftp://c.example/",
                    "not a url",
                    None,
                ]
            }
        )
        out = url_host_batch(b)
        assert out["host"].to_pylist() == [
            "a.example",
            "b.example:8080",
            "c.example",
            None,
            None,
        ]

    def test_host_stats_vs_pandas(self, ray_session):
        rng = np.random.default_rng(4)
        n = 3000
        hosts = rng.integers(0, 12, n)
        df = pd.DataFrame(
            {
                "url": [f"https://h{h}.example/p/{i}" for i, h in enumerate(hosts)],
                "text": ["x" * int(k) for k in rng.integers(1, 200, n)],
                "lang": rng.choice(["en", "de", "fr"], n),
            }
        )
        got = host_stats(rd.from_pandas(df).repartition(5))
        want = (
            df.assign(host=[f"h{h}.example" for h in hosts], chars=df["text"].str.len())
            .groupby("host")
            .agg(
                n_pages=("url", "size"),
                total_chars=("chars", "sum"),
                n_langs=("lang", "nunique"),
            )
            .reset_index()
            .sort_values("host")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestQuantileFilter:
    def test_matches_numpy_threshold(self, ray_session):
        rng = np.random.default_rng(8)
        vals = rng.integers(10, 5000, 20_000)
        df = pd.DataFrame({"doc_id": np.arange(vals.size), "n_chars": vals})
        ds = rd.from_pandas(df).repartition(8)
        with metrics.recording() as rec:
            out = quantile_filter(ds, value_col="n_chars", q=90.0).to_pandas()
        thr = np.percentile(vals.astype(np.float32), 90.0)
        want = df[df["n_chars"].astype(np.float64) >= thr]
        assert set(out["doc_id"]) == set(want["doc_id"])
        stats = rec.last("split.quantile_filter")
        assert stats["value_col"] == "n_chars"
        assert stats["threshold"] == pytest.approx(float(thr))

    def test_keep_modes_and_validation(self, ray_session):
        df = pd.DataFrame({"doc_id": np.arange(100), "v": np.arange(100.0)})
        ds = rd.from_pandas(df)
        lo = quantile_filter(ds, value_col="v", q=50.0, keep="lt").to_pandas()
        hi = quantile_filter(ds, value_col="v", q=50.0, keep="ge").to_pandas()
        assert len(lo) + len(hi) == 100
        assert lo["v"].max() < hi["v"].min()
        with pytest.raises(ValueError):
            quantile_filter(ds, value_col="v", q=50.0, keep="between")

    def test_global_quantile_multi(self, ray_session):
        rng = np.random.default_rng(2)
        vals = rng.normal(0, 1, 50_000).astype(np.float32)
        ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(6)
        got = global_quantile(ds, value_col="v", percentiles=[5.0, 50.0, 95.0])
        want = np.percentile(vals, [5.0, 50.0, 95.0])
        assert np.allclose(got, want, atol=1e-6)


class TestTfidf:
    def test_regimes_equal_and_ranked(self, ray_session, force_tree):
        """Broadcast-vocabulary and hash-join+tree regimes must produce
        identical per-doc top-k TF-IDF rows."""
        from zonal_stats_toolkit_ray.stages import text
        from zonal_stats_toolkit_ray.stages.text import tfidf_top_terms

        ds = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
        )

        def norm(o):
            df = o.to_pandas() if hasattr(o, "to_pandas") else o
            return df.sort_values(["doc_id", "rank"]).reset_index(drop=True)

        a = norm(tfidf_top_terms(ds, k=5))
        levels = force_tree(text, driver_rows=10)
        b = norm(tfidf_top_terms(ds, k=5))  # the budget of 10 also joins the vocabulary
        assert levels and levels[0] >= 1, levels
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert (a.groupby("doc_id")["rank"].min() == 1).all()
        assert (a.groupby("doc_id")["rank"].max() <= 5).all()
        # within a doc, tfidf non-increasing with rank
        for _, g in a.groupby("doc_id"):
            v = g.sort_values("rank")["tfidf"].to_numpy()
            assert (np.diff(v) <= 1e-12).all()


class TestInvertedIndex:
    def test_build_lookup_pruning_and_rebuild(self, ray_session, tmp_path):
        from zonal_stats_toolkit_ray.stages.invindex import (
            inverted_index_write,
            token_lookup,
        )

        idx = str(tmp_path / "idx")
        ds = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
        )
        inverted_index_write(ds, idx, num_buckets=8)
        with metrics.recording() as rec:
            out = token_lookup(idx, ["spark", "merge"])
        stats = rec.last("invindex.token_lookup")
        # pruned read: at most one bucket per distinct query token
        assert stats["buckets_probed"] <= 2
        assert stats["dirs_total"] >= stats["buckets_probed"]
        # exact postings vs pandas
        df = ds.to_pandas()
        want = set()
        for _, r in df.iterrows():
            toks = set(w for w in str(r["text"]).lower().split() if w)
            for t in ("spark", "merge"):
                if t in toks:
                    want.add((t, int(r["doc_id"])))
        got = set(zip(out["token"], out["doc_id"].astype(int)))
        assert got == want
        # clean rebuild: a second build must not duplicate postings
        inverted_index_write(ds, idx, num_buckets=8)
        out2 = token_lookup(idx, ["spark", "merge"])
        assert len(out2) == len(out)
        # absent token → empty frame with schema
        empty = token_lookup(idx, ["zzz-definitely-absent"])
        assert len(empty) == 0 and list(empty.columns) == ["token", "doc_id"]


class TestMixtureSample:
    def test_equal_weights_balance(self, ray_session):
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.split import mixture_sample

        # skewed strata: 4000 / 1000 / 500 rows
        n = [4000, 1000, 500]
        df = pd.DataFrame(
            {
                "doc_id": np.arange(sum(n), dtype=np.int64),
                "source": np.repeat(["a", "b", "c"], n),
            }
        )
        ds = rd.from_pandas(df).repartition(8)
        out = mixture_sample(ds).to_pandas()
        got = out.groupby("source").size()
        # every stratum lands within 4 sigma of the 500-row target; the
        # limiting stratum keeps (nearly) everything
        for s, kept in got.items():
            assert abs(kept - 500) < 4 * np.sqrt(500), (s, kept)
        assert got["c"] == 500  # rate 1 stratum: floor leaves hash < 2^32

    def test_weighted_mode(self, ray_session):
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.split import mixture_sample

        df = pd.DataFrame(
            {
                "doc_id": np.arange(3000, dtype=np.int64),
                "source": np.repeat(["a", "b"], [2000, 1000]),
            }
        )
        ds = rd.from_pandas(df)
        # target 3:1 — limiting stratum is a (2000/0.75 ≈ 2667 → T=2667):
        # a keeps everything (rate 1), b keeps 0.25·T ≈ 667
        out = mixture_sample(ds, weights={"a": 0.75, "b": 0.25}).to_pandas()
        got = out.groupby("source").size()
        assert got["a"] == 2000
        assert abs(got["b"] - 667) < 4 * np.sqrt(667)

    def test_deterministic_and_partition_independent(self, ray_session):
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.split import mixture_sample

        df = pd.DataFrame(
            {
                "doc_id": np.arange(2000, dtype=np.int64),
                "source": np.where(np.arange(2000) % 3 == 0, "x", "y"),
            }
        )
        a = (
            mixture_sample(rd.from_pandas(df).repartition(2))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        b = (
            mixture_sample(rd.from_pandas(df).repartition(16))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_missing_weight_raises(self, ray_session):
        import pytest
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.split import mixture_sample

        df = pd.DataFrame({"doc_id": [1, 2], "source": ["a", "b"]})
        with pytest.raises(ValueError, match="missing strata"):
            mixture_sample(rd.from_pandas(df), weights={"a": 1.0}).to_pandas()


class TestJsonScalar:
    def test_types_and_missing_keys(self, ray_session):
        import pyarrow as pa

        from zonal_stats_toolkit_ray.stages.web import json_scalar_batch

        t = pa.table(
            {
                "props": [
                    '{"k": 87, "name": "ann", "score": 1.5}',
                    '{"k": -3, "name": "b\\"ob", "score": -2e3}',
                    '{"other": 1}',          # key absent -> null
                    '{"k": [1,2]}',          # non-scalar -> null
                    None,                     # null json -> null
                ]
            }
        )
        k = json_scalar_batch(t, json_col="props", key="k")["k"].to_pylist()
        assert k == [87, -3, None, None, None]
        s = json_scalar_batch(
            t, json_col="props", key="name", value_type="string"
        )["name"].to_pylist()
        assert s[0] == "ann" and s[2] is None
        f = json_scalar_batch(
            t, json_col="props", key="score", value_type="float"
        )["score"].to_pylist()
        assert f[0] == 1.5 and f[1] == -2000.0 and f[3] is None


class TestLinkGraph:
    def test_extract_links_matches_re(self, ray_session):
        import re

        from zonal_stats_toolkit_ray.stages.web import extract_links_batch

        htmls = [
            b'<html><a href="https://a.com/x">1</a><a href="http://b.org/">2</a></html>',
            b"<html>no anchors</html>",
            b'<a href="/relative/path">rel</a><a href="https://c.net:8080/p?q=1">c</a>',
            b'<a href="broken',  # no closing quote: piece runs to end
            b"",
        ]
        urls = [f"https://src{i}.example/doc/{i}" for i in range(len(htmls))]
        batch = pa.table(
            {"url": pa.array(urls), "html": pa.array(htmls, pa.binary())}
        )
        got = extract_links_batch(batch).to_pandas()
        want = []
        for u, h in zip(urls, htmls):
            for m in re.findall(r'href="([^"]*)', h.decode()):
                am = re.match(r"^[A-Za-z][A-Za-z0-9+.\-]*://([^/?#]+)", m)
                want.append(
                    (re.match(r"https://([^/]+)", u).group(1),
                     am.group(1) if am else None, m)
                )
        assert list(map(tuple, got.itertuples(index=False))) == want
        # authority parsing: port kept, relative href -> null dst
        assert got.loc[3, "dst_host"] == "c.net:8080"
        assert got.loc[2, "dst_host"] is None or pd.isna(got.loc[2, "dst_host"])

    def test_link_graph_aggregates(self, ray_session):
        import ray.data as rd

        from zonal_stats_toolkit_ray.stages.web import link_graph

        rows = []
        for i in range(200):
            anchors = "".join(
                f'<a href="https://h{(i + j) % 5}.com/p">x</a>' for j in range(i % 3)
            )
            rows.append(
                {
                    "url": f"https://s{i % 4}.example/doc/{i}",
                    "html": f"<html>{anchors}</html>".encode(),
                }
            )
        df = pd.DataFrame(rows)
        got = link_graph(rd.from_pandas(df).repartition(6))
        # brute force
        import re

        edges = {}
        for r in rows:
            src = re.match(r"https://([^/]+)", r["url"]).group(1)
            for href in re.findall(r'href="([^"]*)"', r["html"].decode()):
                dst = re.match(r"^[A-Za-z][A-Za-z0-9+.\-]*://([^/?#]+)", href).group(1)
                edges[(src, dst)] = edges.get((src, dst), 0) + 1
        want = (
            pd.DataFrame(
                [(s, d, n) for (s, d), n in edges.items()],
                columns=["src_host", "dst_host", "n_links"],
            )
            .sort_values(["src_host", "dst_host"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)


class TestCanonicalUrl:
    def _canon(self, urls):
        from zonal_stats_toolkit_ray.stages.web import canonicalize_url_batch

        t = pa.table({"url": pa.array(urls, pa.string())})
        return canonicalize_url_batch(t)["canonical_url"].to_pylist()

    def test_cases(self, ray_session):
        cases = {
            "HTTPS://WWW.Site.COM:443/A/b/?utm_source=x&id=3#frag":
                "https://www.site.com/A/b/?id=3",
            "http://a.com:80/": "http://a.com",
            "http://a.com:8080/p": "http://a.com:8080/p",  # non-default port kept
            "https://a.com/p?utm_campaign=c": "https://a.com/p",
            "https://a.com/p?utm_a=1&utm_b=2": "https://a.com/p",
            "https://a.com/p?id=1&fbclid=xyz&q=2": "https://a.com/p?id=1&q=2",
            "https://a.com///": "https://a.com",
            "relative/path?utm_source=s": "relative/path",  # no authority: steps 1-3 only
            "https://a.com/p": "https://a.com/p",
        }
        got = self._canon(list(cases))
        assert got == list(cases.values()), list(zip(cases, got))

    def test_idempotent(self, ray_session):
        urls = [
            "HTTPS://X.Com:443/a/?utm_source=1&k=2#f",
            "http://y.org:80//",
            "https://z.net/p?id=1",
        ]
        once = self._canon(urls)
        assert self._canon(once) == once
