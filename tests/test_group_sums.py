"""``guard.group_sums``: the one grouped-sum merge of partial aggregates.

* the merge itself: a NULL key is its own group, rows sorted by key with
  NULLs last, empty and schemaless-empty blocks, tree levels;
* SQL ``GROUP BY`` semantics end to end: a NULL key on a ≥4-block input
  through four migrated operators, checked against DuckDB's
  ``GROUP BY … ORDER BY … NULLS LAST``;
* both regimes of the merge (``guard.DRIVER_ROWS = 0`` forces tree levels)
  give the same rows for migrated operators of six modules;
* native shuffles cut wider than their key count (schemaless empty
  partitions) still give the right rows.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from zonal_stats_toolkit_ray.stages import guard

_KEYS = ["a", None, "b", "c", None, "a", "d"]


def _events(n=420, seed=3) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "k": [_KEYS[i % len(_KEYS)] for i in range(n)],
            "cat": rng.choice(["x", "y", "z"], n),
            "x": rng.integers(0, 50, n).astype(np.float64),
            "y": rng.normal(0, 1, n).round(3),
        }
    )


def _blocks(df: pd.DataFrame, n: int = 4):
    ds = rd.from_pandas(df).repartition(n).materialize()
    assert ds.num_blocks() >= n
    return ds


def _keys(col: pd.Series) -> list:
    """Key column → list with every NULL (None or NaN) as None."""
    return [None if pd.isna(v) else v for v in col]


def _duck(sql: str, **tables) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    for name, df in tables.items():
        con.register(name, df)
    return con.execute(sql).df()


class TestGroupSums:
    def test_null_key_own_group_sorted_last(self, ray_session):
        df = pd.DataFrame(
            {
                "k": ["b", None, "a", "b", None, "a"] * 4,
                "j": [1, 2, 1, 1, 2, 1] * 4,
                "n": np.arange(24, dtype=np.int64),
                "s": np.linspace(0.0, 1.0, 24),
            }
        )
        got = guard.group_sums(_blocks(df), ["k", "j"], ["n", "s"])
        want = (
            df.groupby(["k", "j"], dropna=False)[["n", "s"]].sum().reset_index()
            .sort_values(["k", "j"], na_position="last").reset_index(drop=True)
        )
        assert _keys(got["k"]) == ["a", "b", None]
        assert got["n"].tolist() == want["n"].tolist()
        np.testing.assert_allclose(got["s"], want["s"], rtol=1e-12)

    def test_empty_input_keeps_columns(self, ray_session):
        ds = rd.from_pandas(pd.DataFrame({"k": ["a"], "n": [1]})).filter(
            expr="n > 5"
        )
        got = guard.group_sums(ds, ["k"], ["n"])
        assert len(got) == 0 and list(got.columns) == ["k", "n"]

    def test_schemaless_empty_blocks_and_tree_levels(
        self, ray_session, monkeypatch
    ):
        df = pd.DataFrame({"k": np.arange(200) % 7, "n": np.ones(200, np.int64)})

        def partials(t: pa.Table) -> pa.Table:
            return t if t["k"][0].as_py() % 2 else pa.table({})

        ds = rd.from_pandas(df).repartition(20).map_batches(
            partials, batch_format="pyarrow", batch_size=None
        )
        default = guard.group_sums(ds, ["k"], ["n"])
        monkeypatch.setattr(guard, "DRIVER_ROWS", 0)
        forced = guard.group_sums(ds, ["k"], ["n"])
        pd.testing.assert_frame_equal(default, forced)
        assert default["n"].sum() == sum(
            len(b) for b in np.array_split(df["k"].to_numpy(), 20) if b[0] % 2
        )


class TestNullKeyGroupBy:
    """A NULL key is its own group at every migrated site (SQL GROUP BY);
    Ray's native sort-shuffle raised ``TypeError`` comparing None with str."""

    def test_group_entropy(self, ray_session):
        from zonal_stats_toolkit_ray.stages.profile import group_entropy

        df = _events()
        got = group_entropy(_blocks(df), key_col="k", cat_col="cat")
        want = _duck(
            """
            WITH c AS (SELECT k, cat, count(*) AS n FROM t GROUP BY k, cat),
            s AS (SELECT k, sum(n) AS tot FROM c GROUP BY k)
            SELECT c.k, s.tot AS n,
                   -sum((c.n / s.tot) * log2(c.n / s.tot)) AS entropy
            FROM c JOIN s ON c.k IS NOT DISTINCT FROM s.k
            GROUP BY c.k, s.tot ORDER BY c.k NULLS LAST
            """,
            t=df,
        )
        assert _keys(got["k"]) == _keys(want["k"])
        assert got["n"].tolist() == want["n"].astype(np.int64).tolist()
        np.testing.assert_allclose(got["entropy"], want["entropy"], rtol=1e-12)

    def test_grouped_corr(self, ray_session):
        from zonal_stats_toolkit_ray.stages.bivar import grouped_corr

        df = _events()
        got = grouped_corr(_blocks(df), keys=["k"], x_col="x", y_col="y")
        want = _duck(
            """
            SELECT k, count(*) AS n, corr(y, x) AS corr,
                   regr_slope(y, x) AS slope, regr_intercept(y, x) AS intercept
            FROM t GROUP BY k ORDER BY k NULLS LAST
            """,
            t=df,
        )
        assert _keys(got["k"]) == _keys(want["k"])
        assert got["n"].tolist() == want["n"].astype(np.int64).tolist()
        for c in ("corr", "slope", "intercept"):
            np.testing.assert_allclose(got[c], want[c], rtol=1e-9)

    def test_pivot_counts(self, ray_session):
        from zonal_stats_toolkit_ray.stages.rollup import pivot_counts

        df = _events()
        got = pivot_counts(
            _blocks(df), index_col="k", columns_col="cat", categories=["x", "y", "z"]
        )
        want = _duck(
            """
            SELECT k, count(*) FILTER (WHERE cat = 'x') AS n_x,
                   count(*) FILTER (WHERE cat = 'y') AS n_y,
                   count(*) FILTER (WHERE cat = 'z') AS n_z, count(*) AS total
            FROM t GROUP BY k ORDER BY k NULLS LAST
            """,
            t=df,
        )
        assert _keys(got["k"]) == _keys(want["k"])
        for c in ("n_x", "n_y", "n_z", "total"):
            assert got[c].tolist() == want[c].astype(np.int64).tolist(), c

    def test_link_graph(self, ray_session):
        from zonal_stats_toolkit_ray.stages.web import (
            extract_links_batch,
            link_graph,
        )

        hosts = ["a.org", "b.org", "c.org"]
        pages = pd.DataFrame(
            {
                # every 3rd page URL has no scheme → NULL src_host
                "url": [
                    f"https://{hosts[i % 3]}/p{i}" if i % 3 else f"page{i}"
                    for i in range(40)
                ],
                "html": [
                    f'<a href="https://{hosts[(i + 1) % 3]}/x">'
                    f'<a href="http://{hosts[i % 2]}/y"><a href="/rel">'
                    for i in range(40)
                ],
            }
        )
        got = link_graph(_blocks(pages))
        links = extract_links_batch(pa.Table.from_pandas(pages)).to_pandas()
        want = _duck(
            """
            SELECT src_host, dst_host, count(*) AS n_links FROM l
            WHERE dst_host IS NOT NULL
            GROUP BY src_host, dst_host ORDER BY src_host NULLS LAST, dst_host
            """,
            l=links,
        )
        assert got["src_host"].isna().any()
        assert _keys(got["src_host"]) == _keys(want["src_host"])
        assert got["dst_host"].tolist() == want["dst_host"].tolist()
        assert got["n_links"].tolist() == want["n_links"].astype(np.int64).tolist()


def _regime_cases():
    from zonal_stats_toolkit_ray.stages import (
        bivar,
        cohort,
        profile,
        rollup,
        sketch,
        text,
        triangles,
        web,
    )

    ev = _events(600, seed=9).assign(
        k=lambda d: d["k"].fillna("n"),
        t=lambda d: (d["x"] % 13).astype(np.int64),
        e=lambda d: (d["y"] > 0).astype(np.int64),
        variant=lambda d: np.arange(len(d)) % 2,
    )
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(60, dtype=np.int64),
            "lang": [["en", "de", "fr"][i % 3] for i in range(60)],
            "text": [" ".join(words[(i + j) % 6] for j in range(i % 5 + 1)) for i in range(60)],
        }
    )
    edges = pd.DataFrame(
        {"src": np.arange(80) % 17, "dst": (np.arange(80) * 7 + 3) % 17}
    )
    pages = pd.DataFrame(
        {
            "url": [f"https://h{i % 5}.org/p{i}" for i in range(50)],
            "html": [f'<a href="https://h{(i * 3) % 5}.org/">' for i in range(50)],
        }
    )
    return [
        ("bivar.grouped_corr", ev, lambda ds: bivar.grouped_corr(ds, keys=["k"], x_col="x", y_col="y")),
        ("bivar.ab_test", ev, lambda ds: bivar.ab_test(ds, group_col="k", variant_col="variant", value_col="y")),
        ("profile.group_entropy", ev, lambda ds: profile.group_entropy(ds, key_col="k", cat_col="cat")),
        ("rollup.rollup_sum_count", ev, lambda ds: rollup.rollup_sum_count(ds, keys=["k", "cat"], value_col="y")),
        ("cohort.kaplan_meier", ev, lambda ds: cohort.kaplan_meier(ds, group_col="k", duration_col="t", event_col="e")),
        ("sketch.group_histogram", ev, lambda ds: sketch.group_histogram(ds, key_col="k", value_col="x", lo=0.0, hi=50.0)),
        ("text.vocab_overlap", docs, lambda ds: text.vocab_overlap(ds)),
        ("triangles.triangle_stats", edges, lambda ds: triangles.triangle_stats(ds)),
        ("web.link_graph", pages, lambda ds: web.link_graph(ds)),
    ]


@pytest.mark.parametrize("case", range(9))
def test_regimes_identical(ray_session, monkeypatch, case):
    """The driver regime and forced tree levels (``DRIVER_ROWS = 0``) of
    each migrated operator: counts equal exactly, float sums to 1e-12."""
    name, df, run = _regime_cases()[case]
    ds = rd.from_pandas(df).repartition(8).materialize()
    levels = []
    tree = guard.tree_combine

    def spy(d, kernel):
        frame, n = tree(d, kernel)
        levels.append(n)
        return frame, n

    monkeypatch.setattr(guard, "tree_combine", spy)
    default = run(ds)
    assert set(levels) == {0}, (name, levels)
    monkeypatch.setattr(guard, "DRIVER_ROWS", 0)
    forced = run(ds)
    assert max(levels) >= 1, (name, levels)
    assert list(default.columns) == list(forced.columns), name
    assert len(default) == len(forced) > 0, name
    for c in default.columns:
        a, b = default[c], forced[c]
        if pd.api.types.is_float_dtype(a):
            np.testing.assert_allclose(a, b, rtol=1e-12, equal_nan=True, err_msg=name)
        else:
            assert a.tolist() == b.tolist(), (name, c)


def test_native_shuffle_wider_than_its_keys(ray_session, monkeypatch):
    """A native aggregate cut into more partitions than it has keys emits
    schemaless empty partitions; the operators still return every row."""
    from zonal_stats_toolkit_ray.stages.joins import distinct_rows, except_distinct
    from zonal_stats_toolkit_ray.stages.text import document_frequency

    monkeypatch.setattr(guard, "shuffle_partitions", lambda: 16)
    docs = rd.from_pandas(
        pd.DataFrame({"text": ["a b", "b c", "a", "c a b"] * 3})
    ).repartition(6)
    df = document_frequency(docs, top_n=10)
    assert dict(zip(df["token"], df["df"])) == {"a": 9, "b": 9, "c": 6}
    a = rd.from_pandas(pd.DataFrame({"x": [1, 2, 3, 1, 2]})).repartition(5)
    b = rd.from_pandas(pd.DataFrame({"x": [2, 2]})).repartition(2)
    assert except_distinct(a, b, ["x"])["x"].tolist() == [1, 3]
    assert sorted(distinct_rows(a, ["x"]).to_pandas()["x"]) == [1, 2, 3]
