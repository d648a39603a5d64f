"""Unit tests for target encoding, Benford audit, chi-square test."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


class TestTargetEncode:
    def test_leave_one_out(self, rd):
        from zonal_stats_toolkit_ray.stages.bivar import target_encode_loo

        df = pd.DataFrame(
            {
                "id": [1, 2, 3, 4],
                "cat": ["a", "a", "a", "b"],
                "v": [10.0, 20.0, 30.0, 7.0],
            }
        )
        got = (
            target_encode_loo(
                rd.from_pandas(df), key_col="id", cat_col="cat", value_col="v"
            )
            .to_pandas()
            .sort_values("id")
        )
        # a: row 1 → (20+30)/2=25; row 2 → 20; row 3 → 15; b singleton → NaN
        assert got["te"].tolist()[:3] == [25.0, 20.0, 15.0]
        assert np.isnan(got["te"].tolist()[3])

    def test_no_leakage_vs_global_mean(self, rd):
        from zonal_stats_toolkit_ray.stages.bivar import target_encode_loo

        rng = np.random.default_rng(5)
        df = pd.DataFrame(
            {
                "id": np.arange(1000),
                "cat": rng.choice(["x", "y", "z"], 1000),
                "v": rng.integers(0, 100, 1000).astype(float),
            }
        )
        got = (
            target_encode_loo(
                rd.from_pandas(df).repartition(4),
                key_col="id",
                cat_col="cat",
                value_col="v",
            )
            .to_pandas()
            .set_index("id")
        )
        for _, r in df.sample(50, random_state=0).iterrows():
            others = df[(df["cat"] == r["cat"]) & (df["id"] != r["id"])]["v"]
            assert abs(got.loc[r["id"], "te"] - others.mean()) < 1e-9


class TestBenford:
    def test_counts_and_expected(self, rd):
        from zonal_stats_toolkit_ray.stages.profile import benford_digits

        # values engineered across magnitudes incl. the 0.6 libm hazard
        v = np.array([0.6, 0.06, 6.0, 60.0, 1.23, 12.3, 0.01, 999.99, -5.0, 0.0])
        df = pd.DataFrame({"value": v})
        got = benford_digits(rd.from_pandas(df)).set_index("digit")
        assert got.loc[6, "n"] == 4
        assert got.loc[1, "n"] == 3  # 1.23, 12.3, 0.01
        assert got.loc[9, "n"] == 1
        total = got["n"].sum()
        assert total == 8  # negatives/zero excluded
        assert abs(got.loc[1, "expected_n"] - total * np.log10(2)) < 1e-6


class TestChi2:
    def test_independent_is_small_dependent_is_large(self, rd):
        from zonal_stats_toolkit_ray.stages.profile import chi2_independence

        rng = np.random.default_rng(7)
        n = 6000
        r = rng.choice(["a", "b", "c"], n)
        ind = rng.choice([0, 1], n)
        dep = np.where(r == "a", 1, rng.choice([0, 1], n))
        d_ind = pd.DataFrame({"r": r, "c": ind})
        d_dep = pd.DataFrame({"r": r, "c": dep})
        g1 = chi2_independence(rd.from_pandas(d_ind), row_col="r", col_col="c")
        g2 = chi2_independence(rd.from_pandas(d_dep), row_col="r", col_col="c")
        assert g1["dof"][0] == 2 and g2["dof"][0] == 2
        assert g1["chi2"][0] < 15 < g2["chi2"][0]

    def test_matches_scipy_formula(self, rd):
        from zonal_stats_toolkit_ray.stages.profile import chi2_independence

        df = pd.DataFrame(
            {"r": ["x", "x", "y", "y", "y", "x"], "c": [0, 1, 0, 1, 1, 1]}
        )
        got = chi2_independence(rd.from_pandas(df), row_col="r", col_col="c")
        o = pd.crosstab(df["r"], df["c"]).to_numpy().astype(float)
        e = o.sum(1, keepdims=True) * o.sum(0, keepdims=True) / o.sum()
        want = ((o - e) ** 2 / e).sum()
        assert abs(got["chi2"][0] - want) < 1e-6


class TestHardNegatives:
    def test_matches_bruteforce(self, rd):
        from zonal_stats_toolkit_ray.stages.knn import hard_negatives

        rng = np.random.default_rng(11)
        n, d = 300, 8
        x = rng.normal(0, 1, (n, d))
        labels = rng.integers(0, 3, n)
        df = pd.DataFrame(
            {
                "vec_id": np.arange(n),
                "embedding": [list(map(float, r)) for r in x],
                "label": labels,
            }
        )
        q = {"query_id": np.arange(20), "matrix": x[:20], "label": labels[:20]}
        got = hard_negatives(rd.from_pandas(df).repartition(5), q)
        for i in range(20):
            d2 = ((x[i] - x) ** 2).sum(axis=1)
            d2[labels == labels[i]] = np.inf
            want = int(np.argmin(d2))
            assert got[got["query_id"] == i]["neg_id"].iloc[0] == want
            assert labels[want] != labels[i]


class TestPsiDrift:
    def test_no_drift_near_zero_shifted_large(self, rd):
        from zonal_stats_toolkit_ray.stages.profile import psi_drift

        rng = np.random.default_rng(3)
        n = 20_000
        same = pd.DataFrame(
            {
                "seg": rng.integers(0, 2, n),
                "value": np.round(rng.normal(50, 10, n), 2),
            }
        )
        g1 = psi_drift(
            rd.from_pandas(same).repartition(4),
            value_col="value",
            seg_col="seg",
            ref_segment=0,
        )
        assert g1["psi_term"].sum() < 0.01  # same distribution
        shifted = same.copy()
        shifted.loc[shifted["seg"] == 1, "value"] += 8.0
        g2 = psi_drift(
            rd.from_pandas(shifted),
            value_col="value",
            seg_col="seg",
            ref_segment=0,
        )
        assert g2["psi_term"].sum() > 0.2  # conventional drift threshold
        # reference counts split evenly into its own deciles
        na = g1["na"].to_numpy()
        assert na.max() - na.min() <= na.mean() * 0.1


class TestAucByGroup:
    def test_matches_pairwise_definition(self, rd):
        from zonal_stats_toolkit_ray.stages.bivar import auc_by_group

        rng = np.random.default_rng(13)
        n = 3000
        grp = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        # scores correlated with label → AUC > 0.5; heavy ties via rounding
        s = np.round(y * 1.0 + rng.normal(0, 1.5, n), 1)
        df = pd.DataFrame({"g": grp, "y": y, "s": s})
        got = auc_by_group(
            rd.from_pandas(df).repartition(5),
            group_col="g",
            label_col="y",
            score_col="s",
        ).set_index("g")
        for k, gg in df.groupby("g"):
            pos = gg[gg["y"] == 1]["s"].to_numpy()
            neg = gg[gg["y"] == 0]["s"].to_numpy()
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            want = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert abs(got.loc[k, "auc"] - want) < 1e-6
            assert got.loc[k, "auc"] > 0.6

    def test_degenerate_group_null(self, rd):
        from zonal_stats_toolkit_ray.stages.bivar import auc_by_group

        df = pd.DataFrame({"g": ["a"] * 3, "y": [1, 1, 1], "s": [1.0, 2.0, 3.0]})
        got = auc_by_group(
            rd.from_pandas(df), group_col="g", label_col="y", score_col="s"
        )
        assert np.isnan(got["auc"][0])


class TestKaplanMeier:
    def test_matches_lifelines_style_reference(self, rd):
        from zonal_stats_toolkit_ray.stages.cohort import kaplan_meier

        rng = np.random.default_rng(3)
        n = 500
        df = pd.DataFrame(
            {
                "grp": rng.integers(0, 2, n),
                "t": rng.integers(0, 30, n),
                "event": rng.integers(0, 2, n),
            }
        )
        got = kaplan_meier(
            rd.from_pandas(df).repartition(4),
            group_col="grp",
            duration_col="t",
            event_col="event",
        )
        for k, g in df.groupby("grp"):
            s = 1.0
            sub = got[got["grp"] == k].set_index("t")
            for t in sorted(g["t"].unique()):
                at_risk = int((g["t"] >= t).sum())
                d = int(((g["t"] == t) & (g["event"] == 1)).sum())
                if d > 0:
                    s *= 1.0 - d / at_risk
                    assert sub.loc[t, "n_risk"] == at_risk
                    assert sub.loc[t, "d"] == d
                    assert abs(sub.loc[t, "surv"] - s) < 1e-6
        # survival is non-increasing
        for _, g in got.groupby("grp"):
            assert (np.diff(g["surv"].to_numpy()) <= 1e-12).all()

    def test_all_censored(self, rd):
        from zonal_stats_toolkit_ray.stages.cohort import kaplan_meier

        df = pd.DataFrame({"grp": [1, 1], "t": [5, 9], "event": [0, 0]})
        got = kaplan_meier(
            rd.from_pandas(df), group_col="grp", duration_col="t", event_col="event"
        )
        assert len(got) == 0  # no event times → no curve rows


def _signed_zero_ties(n=4000, seed=11) -> pd.DataFrame:
    """x = round(2·N(0,1)) and y = round(x + N(0,1)) in two groups: about
    a tenth of each column is −0.0 and as many +0.0, one tie in SQL."""
    rng = np.random.default_rng(seed)
    x = np.round(2 * rng.normal(0, 1, n))
    y = np.round(x + rng.normal(0, 1, n))
    df = pd.DataFrame({"k": rng.choice(["a", "b"], n), "x": x, "y": y})
    assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
    return df


def _check_spearman(rd, df, blocks):
    from zonal_stats_toolkit_ray.stages.bivar import spearman_by_group

    got = spearman_by_group(
        rd.from_pandas(df).repartition(blocks), key_col="k", x_col="x", y_col="y"
    ).set_index("k")
    for key, g in df.groupby("k"):
        xr = pd.Series(g["x"]).rank().to_numpy()
        yr = pd.Series(g["y"]).rank().to_numpy()
        want = np.corrcoef(xr, yr)[0, 1]
        assert got.loc[key, "n"] == len(g)
        assert abs(got.loc[key, "rho"] - want) < 1e-6
        assert got.loc[key, "rho"] > 0.5


def _check_kendall(rd, df, blocks):
    from zonal_stats_toolkit_ray.stages.bivar import kendall_tau_by_group

    got = kendall_tau_by_group(
        rd.from_pandas(df).repartition(blocks), key_col="k", x_col="x", y_col="y"
    ).set_index("k")
    for key, g in df.groupby("k"):
        xv, yv = g["x"].to_numpy(), g["y"].to_numpy()
        dx = np.sign(xv[:, None] - xv[None, :])
        dy = np.sign(yv[:, None] - yv[None, :])
        iu = np.triu_indices(len(xv), 1)
        s = dx[iu] * dy[iu]
        C = int((s > 0).sum())
        D = int((s < 0).sum())
        n0 = len(xv) * (len(xv) - 1) // 2
        n1 = sum(
            t * (t - 1) // 2 for t in pd.Series(xv).value_counts()
        )
        n2 = sum(
            t * (t - 1) // 2 for t in pd.Series(yv).value_counts()
        )
        want = (C - D) / np.sqrt(float(n0 - n1) * float(n0 - n2))
        assert got.loc[key, "n"] == len(g)
        assert abs(got.loc[key, "tau"] - want) < 1e-6
        assert got.loc[key, "tau"] > 0.3  # planted monotone trend


class TestSpearman:
    def test_matches_scipy_definition(self, rd):
        rng = np.random.default_rng(7)
        n = 2000
        k = rng.choice(["a", "b"], n)
        x = rng.integers(0, 40, n).astype(float)
        y = x + rng.normal(0, 8, n).round(1)  # monotone-ish, heavy x ties
        _check_spearman(rd, pd.DataFrame({"k": k, "x": x, "y": y}), 5)

    def test_signed_zeros_tie(self, rd):
        _check_spearman(rd, _signed_zero_ties(), 5)

    def test_perfect_monotone(self, rd):
        from zonal_stats_toolkit_ray.stages.bivar import spearman_by_group

        df = pd.DataFrame(
            {"k": ["m"] * 50, "x": np.arange(50.0), "y": np.exp(np.arange(50.0) / 10)}
        )
        got = spearman_by_group(
            rd.from_pandas(df), key_col="k", x_col="x", y_col="y"
        )
        assert got["rho"].tolist() == [1.0]


class TestKendallTau:
    def test_matches_scipy_style_bruteforce(self, rd):
        rng = np.random.default_rng(9)
        n = 600
        k = rng.choice(["a", "b"], n)
        x = rng.integers(0, 8, n).astype(float)
        y = np.clip(x + rng.integers(-3, 4, n), 0, 10).astype(float)
        _check_kendall(rd, pd.DataFrame({"k": k, "x": x, "y": y}), 4)

    def test_signed_zeros_tie(self, rd):
        _check_kendall(rd, _signed_zero_ties(), 4)


class TestMutualInfo:
    def test_independent_zero_dependent_positive(self, rd):
        from zonal_stats_toolkit_ray.stages.profile import mutual_information

        rng = np.random.default_rng(5)
        n = 8000
        r = rng.choice(["a", "b", "c"], n)
        ind = rng.choice([0, 1], n)
        dep = np.where(r == "a", 1, 0)
        mi_ind = mutual_information(
            rd.from_pandas(pd.DataFrame({"r": r, "c": ind})),
            row_col="r",
            col_col="c",
        )["mi"][0]
        mi_dep = mutual_information(
            rd.from_pandas(pd.DataFrame({"r": r, "c": dep})),
            row_col="r",
            col_col="c",
        )["mi"][0]
        assert mi_ind < 0.01 < mi_dep
        # dep is a deterministic function of r → MI = H(dep)
        p = dep.mean()
        h = -(p * np.log(p) + (1 - p) * np.log(1 - p))
        assert abs(mi_dep - h) < 0.01


class TestKsTest:
    def test_identical_small_shifted_large(self, rd):
        from zonal_stats_toolkit_ray.stages.profile import ks_test

        rng = np.random.default_rng(3)
        n = 10_000
        seg = rng.integers(0, 2, n)
        same = pd.DataFrame(
            {"seg": seg, "value": np.round(rng.normal(0, 1, n), 2)}
        )
        d1 = ks_test(
            rd.from_pandas(same).repartition(4),
            value_col="value",
            seg_col="seg",
            ref_segment=0,
        )["d"][0]
        shifted = same.copy()
        shifted.loc[shifted["seg"] == 1, "value"] += 1.0
        d2 = ks_test(
            rd.from_pandas(shifted),
            value_col="value",
            seg_col="seg",
            ref_segment=0,
        )["d"][0]
        assert d1 < 0.05 < d2
        # scipy-style reference on the shifted case
        from itertools import chain

        a = shifted[shifted["seg"] == 0]["value"].to_numpy()
        b = shifted[shifted["seg"] == 1]["value"].to_numpy()
        vals = np.unique(np.concatenate([a, b]))
        fa = np.searchsorted(np.sort(a), vals, side="right") / len(a)
        fb = np.searchsorted(np.sort(b), vals, side="right") / len(b)
        want = np.abs(fa - fb).max()
        assert abs(d2 - want) < 1e-6
