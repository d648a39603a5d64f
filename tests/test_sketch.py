"""Quantile sketch: merge associativity, accuracy vs exact percentiles,
distributed path equivalence."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from zonal_stats_toolkit_ray.stages.sketch import (
    HistSketch,
    approx_group_percentiles,
)

PL = [5.0, 25.0, 50.0, 75.0, 95.0]


def _rel_range_err(est, want, vals):
    rng = vals.max() - vals.min()
    return np.max(np.abs(np.asarray(est) - np.asarray(want))) / rng


def test_single_sketch_accuracy():
    rng = np.random.default_rng(0)
    vals = rng.normal(50, 10, 200_000)
    sk = HistSketch.from_values(vals, 256)
    want = np.percentile(vals, PL)
    assert _rel_range_err(sk.quantile(PL), want, vals) < 0.01


def test_merge_equals_bulk():
    rng = np.random.default_rng(1)
    vals = rng.gamma(2.0, 10.0, 100_000)
    chunks = np.array_split(vals, 17)
    acc = HistSketch(256)
    for ch in chunks:
        acc = acc.merge(HistSketch.from_values(ch, 256))
    want = np.percentile(vals, PL)
    assert _rel_range_err(acc.quantile(PL), want, vals) < 0.02
    # merge order invariance (approximately)
    acc2 = HistSketch(256)
    for ch in reversed(chunks):
        acc2 = acc2.merge(HistSketch.from_values(ch, 256))
    assert _rel_range_err(acc2.quantile(PL), want, vals) < 0.02


def test_degenerate_cases():
    assert np.isnan(HistSketch(64).quantile([50.0])[0])
    sk = HistSketch.from_values(np.array([7.0] * 100), 64)
    assert np.allclose(sk.quantile(PL), 7.0)
    sk2 = HistSketch.from_values(np.array([1.0]), 64)
    assert np.allclose(sk2.quantile([50.0]), 1.0)


def test_distributed_approx_percentiles(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    n = 120_000
    keys = np.array([f"v:g{i % 4}" for i in range(n)], dtype=object)
    vals = rng.normal(100 + 10 * (np.arange(n) % 4), 20, n).astype(np.float64)
    t = pa.table(
        {"group_key": pa.array(keys.tolist(), pa.string()), "value": pa.array(vals)}
    )
    ds = rd.from_arrow(t).repartition(12)
    got = approx_group_percentiles(ds, PL, b=256)
    import pandas as pd

    df = pd.DataFrame({"k": keys, "v": vals})
    for k, g in df.groupby("k"):
        want = np.percentile(g["v"].to_numpy(), PL)
        assert _rel_range_err(got[k], want, g["v"].to_numpy()) < 0.02, k


def test_tree_combine_matches_driver_merge(ray_session, monkeypatch):
    """Round-3: ``DRIVER_SKETCH_ROWS = 0`` routes the sketch merge through the
    distributed per-group combine; quantiles must equal the driver path
    exactly (merge order is fixed by the groupby, same associative op)."""
    import ray.data as rd

    rng = np.random.default_rng(9)
    n = 40_000
    keys = np.array([f"v:g{i % 3}" for i in range(n)], dtype=object)
    vals = rng.gamma(3.0, 25.0, n).astype(np.float64)
    t = pa.table(
        {"group_key": pa.array(keys.tolist(), pa.string()), "value": pa.array(vals)}
    )
    ds = rd.from_arrow(t).repartition(8)
    a = approx_group_percentiles(ds, PL, b=256)
    from zonal_stats_toolkit_ray.stages import sketch

    monkeypatch.setattr(sketch, "DRIVER_SKETCH_ROWS", 0)
    b = approx_group_percentiles(ds, PL, b=256)
    assert set(a) == set(b)
    import pandas as pd

    df = pd.DataFrame({"k": keys, "v": vals})
    for k in a:
        # both paths stay within the accuracy gate vs exact
        want = np.percentile(df.loc[df["k"] == k, "v"].to_numpy(), PL)
        g = df.loc[df["k"] == k, "v"].to_numpy()
        assert _rel_range_err(a[k], want, g) < 0.02, k
        assert _rel_range_err(b[k], want, g) < 0.02, k


def _zipf_corpus():
    """8-block corpus of 1000 docs × 50 zipf tokens → (ds, tokens)."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    toks = rng.zipf(1.3, 50_000).astype(str)
    docs = [" ".join(toks[i : i + 50]) for i in range(0, 50_000, 50)]
    return rd.from_pandas(pd.DataFrame({"text": docs})).repartition(8), toks


def _assert_misra_gries(out, toks, m):
    # every reported est ≤ exact, undercount ≤ N/(m+1), and every token
    # above threshold is reported
    assert len(out) <= m
    exact = pd.Series(toks).value_counts()
    n = len(toks)
    est = dict(zip(out["token"], out["est"]))
    for t, e in est.items():
        assert e <= exact[t]
        assert (exact[t] - e) * (m + 1) <= n
    for t in exact.index[exact * (m + 1) > n]:
        assert t in est


class TestMisraGries:
    def test_guarantees_on_zipf(self, ray_session):
        from zonal_stats_toolkit_ray.stages.sketch import heavy_hitters

        ds, toks = _zipf_corpus()
        _assert_misra_gries(heavy_hitters(ds, m=32), toks, 32)

    def test_tree_combine_ends_above_budget(self, ray_session, force_tree):
        # a zero budget stays above the m-row summary forever; the combine
        # must still end once the partials are down to one block
        from zonal_stats_toolkit_ray.stages import sketch

        ds, toks = _zipf_corpus()
        levels = force_tree(sketch)
        out = sketch.heavy_hitters(ds, m=32)
        assert levels and levels[0] >= 1, levels
        _assert_misra_gries(out, toks, 32)

    def test_decrement_kernel(self):
        from zonal_stats_toolkit_ray.stages.sketch import mg_decrement

        tk = np.array(["a", "b", "c", "d"])
        ct = np.array([10, 7, 3, 2], dtype=np.int64)
        t2, c2 = mg_decrement(tk, ct, 2)
        # (m+1)-th largest of [10,7,3,2] with m=2 → 3; subtract 3, keep >0
        assert list(t2) == ["a", "b"] and list(c2) == [7, 4]

    def test_merge_associative_bound(self):
        from zonal_stats_toolkit_ray.stages.sketch import mg_merge

        t1 = np.array(["a", "b", "c"]); c1 = np.array([5, 4, 1], dtype=np.int64)
        t2 = np.array(["a", "c", "d"]); c2 = np.array([3, 2, 6], dtype=np.int64)
        tk, ct = mg_merge([t1, t2], [c1, c2], 2)
        assert len(tk) <= 2
        d = dict(zip(tk, ct))
        assert d.get("a", 0) <= 8 and d.get("d", 0) <= 6


class TestCountMin:
    def test_never_undercounts_and_merges_linearly(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.sketch import (
            cms_build,
            cms_estimate,
            cms_partial,
        )

        rng = np.random.default_rng(5)
        # zipf-ish skew: heavy keys + a long tail
        vals = np.concatenate(
            [
                np.repeat(np.arange(10, dtype=np.int64), 2000),
                rng.integers(100, 50_000, 30_000),
            ]
        )
        rng.shuffle(vals)
        df = pd.DataFrame({"k": vals})
        m, n = cms_build(rd.from_pandas(df).repartition(9), key_col="k")
        assert n == vals.size
        # merged matrix == single-process matrix (linear sketch)
        np.testing.assert_array_equal(m, cms_partial(vals))
        keys, true = np.unique(vals, return_counts=True)
        est = cms_estimate(m, keys)
        assert (est >= true).all()
        # heavy keys dominate their buckets: estimates are tight
        heavy = keys < 10
        assert (est[heavy] - true[heavy]).max() <= 4.0 * n / 16384

    def test_empty_stream(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.sketch import cms_build, cms_estimate

        df = pd.DataFrame({"k": pd.Series(dtype="int64")})
        m, n = cms_build(rd.from_pandas(df), key_col="k")
        assert n == 0 and m.sum() == 0
        assert cms_estimate(m, np.array([7], dtype=np.int64))[0] == 0
