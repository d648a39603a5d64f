"""``guard.group_sums`` and ``guard.universe``: the one grouped-sum merge
of partial aggregates and the value universe built on its kernel.

* the merge itself: a NULL key is its own group, −0.0 and +0.0 one float
  key, rows sorted by key with NULLs last, empty and schemaless-empty
  blocks, tree levels;
* SQL ``GROUP BY`` / ``PARTITION BY`` semantics end to end: a NULL key on
  a ≥4-block input through the grouped-sum and universe operators,
  checked against DuckDB (``GROUP BY … ORDER BY … NULLS LAST``,
  ``quantile_cont``, ``median``) or pandas ``groupby(dropna=False)``;
* both regimes of the merge (``guard.DRIVER_ROWS = 0`` forces tree levels)
  give the same rows for the migrated operators of six modules and the
  13 universe operators;
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


def _by_key(df: pd.DataFrame):
    """pandas ``groupby("k")`` with NULL a group of its own, sorted last."""
    return df.groupby("k", dropna=False, sort=True)


def _tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall τ-b by brute force over all pairs."""
    iu = np.triu_indices(len(x), 1)
    s = np.sign(x[:, None] - x[None, :])[iu] * np.sign(y[:, None] - y[None, :])[iu]
    n0 = len(x) * (len(x) - 1) // 2
    n1, n2 = (sum(t * (t - 1) // 2 for t in pd.Series(v).value_counts()) for v in (x, y))
    return float(((s > 0).sum() - (s < 0).sum()) / np.sqrt(float(n0 - n1) * (n0 - n2)))


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

    def test_signed_zero_float_keys_are_one_group(self, ray_session):
        df = pd.DataFrame({"k": [0.0, -0.0] * 6, "n": np.ones(12, np.int64)})
        got = guard.group_sums(_blocks(df), ["k"], ["n"])
        assert got["k"].tolist() == [0.0] and got["n"].tolist() == [12]
        assert not np.signbit(got["k"]).any()

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
    Ray's native sort-shuffle raised ``TypeError`` comparing None with str,
    and Arrow's multi-key ``group_by`` split the NULL group of a string key
    next to a float key."""

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

    def test_weighted_median_by_group(self, ray_session):
        from zonal_stats_toolkit_ray.stages.rank import weighted_median_by_group

        df = _events().assign(w=lambda d: d["y"].abs() + 0.25)
        got = weighted_median_by_group(
            _blocks(df), key_col="k", value_col="x", weight_col="w"
        )
        want = []
        for _, g in _by_key(df):
            vals = np.sort(g["x"].unique())
            cw = np.array([g["w"][g["x"] <= v].sum() for v in vals])
            want.append(vals[np.argmax(cw >= 0.5 * g["w"].sum())])
        assert _keys(got["k"]) == _keys(_by_key(df).size().index)
        assert got["wq"].tolist() == want

    def test_winsorized_mean_by_group(self, ray_session):
        from zonal_stats_toolkit_ray.stages.rank import winsorized_mean_by_group

        df = _events()
        got = winsorized_mean_by_group(_blocks(df), key_col="k", value_col="x")
        want = _duck(
            """
            WITH q AS (
                SELECT k, count(*) AS n, quantile_cont(x, 0.05) AS lo,
                       quantile_cont(x, 0.95) AS hi
                FROM t GROUP BY k
            )
            SELECT q.k, q.n, q.lo, q.hi,
                   avg(least(greatest(t.x, q.lo), q.hi)) AS wmean
            FROM t JOIN q ON t.k IS NOT DISTINCT FROM q.k
            GROUP BY q.k, q.n, q.lo, q.hi ORDER BY q.k NULLS LAST
            """,
            t=df,
        )
        assert _keys(got["k"]) == _keys(want["k"])
        assert got["n"].tolist() == want["n"].astype(np.int64).tolist()
        for c in ("lo", "hi", "wmean"):
            np.testing.assert_allclose(got[c], want[c], rtol=1e-12, err_msg=c)

    def test_gini_by_group(self, ray_session):
        from zonal_stats_toolkit_ray.stages.rank import gini_by_group

        df = _events()
        got = gini_by_group(_blocks(df), key_col="k", value_col="x")
        want = []
        for _, g in _by_key(df):
            x = np.sort(g["x"].to_numpy())
            n = x.size
            w = 2.0 * np.arange(1, n + 1) - n - 1
            want.append(round(float((w * x).sum() / (n * x.sum())), 6))
        assert _keys(got["k"]) == _keys(_by_key(df).size().index)
        assert got["n"].tolist() == _by_key(df).size().tolist()
        np.testing.assert_allclose(got["gini"], want, rtol=0, atol=1e-6)

    def test_auc_by_group(self, ray_session):
        from zonal_stats_toolkit_ray.stages.bivar import auc_by_group

        df = _events().assign(label=lambda d: (d["y"] > 0).astype(np.int64))
        got = auc_by_group(
            _blocks(df), group_col="k", label_col="label", score_col="x"
        )
        want = []
        for _, g in _by_key(df):
            r = g["x"].rank().to_numpy()
            pos = g["label"].to_numpy() == 1
            n_pos, n_neg = pos.sum(), (~pos).sum()
            u = r[pos].sum() - n_pos * (n_pos + 1) / 2.0
            want.append((n_pos, n_neg, round(u / (n_pos * n_neg), 6)))
        assert _keys(got["k"]) == _keys(_by_key(df).size().index)
        assert list(zip(got["n_pos"], got["n_neg"])) == [w[:2] for w in want]
        np.testing.assert_allclose(got["auc"], [w[2] for w in want], atol=1e-6)

    def test_impute_group_median(self, ray_session):
        from zonal_stats_toolkit_ray.stages.normalize import impute_group_median

        df = _events().assign(
            id=lambda d: np.arange(len(d), dtype=np.int64),
            x=lambda d: d["x"].where(d.index % 5 != 0),
        )
        got = impute_group_median(
            _blocks(df), id_col="id", key_col="k", value_col="x"
        ).to_pandas().sort_values("id", ignore_index=True)
        want = _duck(
            """
            SELECT id, k, coalesce(x, median(x) OVER (PARTITION BY k)) AS v_filled
            FROM t ORDER BY id
            """,
            t=df,
        )
        assert _keys(got["k"]) == _keys(want["k"])
        assert got["v_filled"].notna().all()
        np.testing.assert_allclose(got["v_filled"], want["v_filled"], rtol=1e-12)

    def test_spearman_by_group(self, ray_session):
        from zonal_stats_toolkit_ray.stages.bivar import spearman_by_group

        df = _events()
        got = spearman_by_group(_blocks(df), key_col="k", x_col="x", y_col="y")
        want = [
            np.corrcoef(g["x"].rank(), g["y"].rank())[0, 1] for _, g in _by_key(df)
        ]
        assert _keys(got["k"]) == _keys(_by_key(df).size().index)
        assert got["n"].tolist() == _by_key(df).size().tolist()
        np.testing.assert_allclose(got["rho"], want, rtol=0, atol=1e-6)

    def test_kendall_tau_by_group(self, ray_session):
        from zonal_stats_toolkit_ray.stages.bivar import kendall_tau_by_group

        df = _events()
        got = kendall_tau_by_group(_blocks(df), key_col="k", x_col="x", y_col="y")
        want = [_tau_b(g["x"].to_numpy(), g["y"].to_numpy()) for _, g in _by_key(df)]
        assert _keys(got["k"]) == _keys(_by_key(df).size().index)
        assert got["n"].tolist() == _by_key(df).size().tolist()
        np.testing.assert_allclose(got["tau"], want, rtol=0, atol=1e-6)

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
        normalize,
        profile,
        rank,
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
    uv = ev.assign(
        event_id=lambda d: np.arange(len(d), dtype=np.int64),
        w=lambda d: d["y"].abs() + 0.25,
        xn=lambda d: d["x"].where(d.index % 5 != 0),
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
        # the value-universe family (guard.universe)
        ("rank.weighted_median_by_group", uv, lambda ds: rank.weighted_median_by_group(ds, key_col="k", value_col="x", weight_col="w")),
        ("rank.winsorized_mean_by_group", uv, lambda ds: rank.winsorized_mean_by_group(ds, key_col="k", value_col="x")),
        ("rank.gini_by_group", uv, lambda ds: rank.gini_by_group(ds, key_col="k", value_col="x")),
        ("normalize.quantile_transform", uv, lambda ds: _by_id(normalize.quantile_transform(ds, id_col="event_id", value_col="x"))),
        ("normalize.impute_group_median", uv, lambda ds: _by_id(normalize.impute_group_median(ds, id_col="event_id", key_col="k", value_col="xn"))),
        ("bivar.auc_by_group", uv, lambda ds: bivar.auc_by_group(ds, group_col="k", label_col="e", score_col="x")),
        ("bivar.spearman_by_group", uv, lambda ds: bivar.spearman_by_group(ds, key_col="k", x_col="x", y_col="y")),
        ("bivar.kendall_tau_by_group", uv, lambda ds: bivar.kendall_tau_by_group(ds, key_col="k", x_col="x", y_col="t")),
        ("profile.ks_test", uv, lambda ds: profile.ks_test(ds, value_col="x", seg_col="k", ref_segment="a")),
        ("profile.psi_drift", uv, lambda ds: profile.psi_drift(ds, value_col="y", seg_col="k", ref_segment="a")),
        ("profile.chi2_independence", uv, lambda ds: profile.chi2_independence(ds, row_col="k", col_col="cat")),
        ("profile.mutual_information", uv, lambda ds: profile.mutual_information(ds, row_col="k", col_col="cat")),
    ]


def _by_id(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values("event_id", ignore_index=True)


@pytest.mark.parametrize("case", range(21))
def test_regimes_identical(ray_session, monkeypatch, case):
    """The driver regime and forced tree levels (``DRIVER_ROWS = 0``) of
    each migrated operator: counts equal exactly, float sums to 1e-12."""
    name, df, run = _regime_cases()[case]
    ds = rd.from_pandas(df).repartition(8).materialize()
    levels = []
    tree = guard._tree_levels  # the loop of tree_combine and of universe

    def spy(d, kernel):
        m, rows, n = tree(d, kernel)
        levels.append(n)
        return m, rows, n

    monkeypatch.setattr(guard, "_tree_levels", spy)
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
