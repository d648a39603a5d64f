"""interval_union / interval_coverage / event_gaps — equality against a
single-process brute force, including a hot-key stress where one key spans
many sorted blocks (the block scan's carry)."""

import numpy as np
import pandas as pd
import pytest


def _brute_coverage(df: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for k, g in df.groupby("user_id"):
        g = g.sort_values(["start", "end"]).reset_index(drop=True)
        islands = []
        cur_s, cur_e = None, None
        for s, e in zip(g["start"], g["end"]):
            if cur_s is None or s > cur_e:
                if cur_s is not None:
                    islands.append((cur_s, cur_e))
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        islands.append((cur_s, cur_e))
        cov = [e - s for s, e in islands]
        rows.append((k, len(islands), sum(cov), max(cov)))
    return pd.DataFrame(
        rows, columns=["user_id", "n_islands", "covered_s", "max_island_s"]
    ).sort_values("user_id").reset_index(drop=True)


def _brute_gaps(df: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for k, g in df.groupby("user_id"):
        ts = np.sort(g["ts_s"].to_numpy())
        d = np.diff(ts)
        rows.append(
            (
                k,
                len(ts),
                len(d),
                float(d.mean()) if d.size else np.nan,
                float(d.max()) if d.size else np.nan,
            )
        )
    return pd.DataFrame(
        rows, columns=["user_id", "n_events", "n_gaps", "avg_gap_s", "max_gap_s"]
    ).sort_values("user_id").reset_index(drop=True)


def _mk_intervals(n, n_keys, seed=7):
    rng = np.random.default_rng(seed)
    k = rng.integers(0, n_keys, n)
    s = rng.uniform(0, 1e5, n)
    dur = rng.uniform(0, 500, n)
    return pd.DataFrame({"user_id": k, "start": s, "end": s + dur})


@pytest.mark.parametrize("n_keys", [1, 3, 40])
def test_interval_coverage_matches_brute(ray_session, n_keys):
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.intervals import interval_coverage

    df = _mk_intervals(5000, n_keys)
    ds = rd.from_pandas(df).repartition(16)
    got = (
        interval_coverage(ds)
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    exp = _brute_coverage(df)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, atol=1e-9)


def test_interval_union_hot_key_spans_blocks(ray_session):
    """One key, 60k intervals over 32 blocks — every block boundary is a
    potential island split; islands must chain across blocks."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.intervals import interval_union

    rng = np.random.default_rng(3)
    s = np.sort(rng.uniform(0, 1e6, 60_000))
    # alternate long overlapping runs and hard gaps
    dur = np.where(rng.random(60_000) < 0.9, 40.0, 0.5)
    df = pd.DataFrame({"user_id": np.zeros(60_000, dtype=np.int64),
                       "start": s, "end": s + dur})
    ds = rd.from_pandas(df).repartition(32)
    got = interval_union(ds).to_pandas().sort_values("start").reset_index(drop=True)
    exp = _brute_coverage(df)
    assert len(got) == int(exp["n_islands"].iloc[0])
    assert got["n_intervals"].sum() == 60_000
    np.testing.assert_allclose(
        (got["end"] - got["start"]).sum(), exp["covered_s"].iloc[0], rtol=1e-12
    )


def test_interval_union_giant_interval_absorbs_interior_islands(ray_session):
    """A huge interval near the start swallows islands that are interior
    (non-boundary) in later sorted blocks: the carry passes through every
    block it covers."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.intervals import interval_coverage

    rng = np.random.default_rng(9)
    s = rng.uniform(0, 1e5, 4000)
    df = pd.DataFrame(
        {"user_id": np.zeros(4000, dtype=np.int64), "start": s, "end": s + 1.0}
    )
    # giant interval covering [0, 60000]: everything below 60000 is ONE
    # island — ~60% of the rows, so it spans about 9 of the 16 sorted blocks
    df.loc[0, ["start", "end"]] = (0.0, 60_000.0)
    assert (df["start"] <= 60_000.0).sum() >= 3 * len(df) // 16
    ds = rd.from_pandas(df).repartition(16)
    got = interval_coverage(ds)
    exp = _brute_coverage(df)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp, check_dtype=False, atol=1e-9
    )


def test_event_gaps_matches_brute_with_skew(ray_session):
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.intervals import event_gaps

    rng = np.random.default_rng(11)
    # key 0 is pathologically hot (spans many blocks); keys 1..9 sparse;
    # key 99 has a single event (NaN gap stats)
    k = np.concatenate(
        [np.zeros(20_000, dtype=np.int64), rng.integers(1, 10, 500), [99]]
    )
    tus = (rng.uniform(0, 1e6, k.size) * 1e6).astype("int64")
    df = pd.DataFrame(
        {"user_id": k, "ts": pd.to_datetime(tus, unit="us"), "ts_s": tus / 1e6}
    )
    ds = rd.from_pandas(df[["user_id", "ts"]]).repartition(24)
    got = event_gaps(ds).sort_values("user_id").reset_index(drop=True)
    exp = _brute_gaps(df)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, atol=1e-9)


def test_event_gaps_tie_robust(ray_session):
    """Duplicate (key, ts) rows: gap multiset is permutation-invariant."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.intervals import event_gaps

    ts = pd.to_datetime([0, 1000, 1000, 1000, 5000], unit="s")
    df = pd.DataFrame({"user_id": [1] * 5, "ts": ts})
    ds = rd.from_pandas(df).repartition(3)
    got = event_gaps(ds)
    assert got["n_gaps"].iloc[0] == 4
    assert got["max_gap_s"].iloc[0] == 4000.0
    assert abs(got["avg_gap_s"].iloc[0] - 1250.0) < 1e-9


def test_event_transitions_matches_brute_hot_key(ray_session):
    """One hot user spanning many blocks: every cross-block boundary is a
    transition that only the stitch can count."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.intervals import event_transitions

    rng = np.random.default_rng(21)
    n = 15_000
    k = np.concatenate(
        [np.zeros(n - 300, dtype=np.int64), rng.integers(1, 5, 300)]
    )
    tus = (rng.uniform(0, 1e6, k.size) * 1e6).astype("int64")
    types = rng.choice(["a", "b", "c"], size=k.size)
    df = pd.DataFrame(
        {
            "user_id": k,
            "ts": pd.to_datetime(tus, unit="us"),
            "event_type": types,
            "event_id": np.arange(k.size, dtype=np.int64),
        }
    )
    got = event_transitions(rd.from_pandas(df).repartition(24))

    s = df.sort_values(["user_id", "ts", "event_id"])
    prev_t = s.groupby("user_id")["event_type"].shift(1)
    pairs = pd.DataFrame({"f": prev_t, "t": s["event_type"]}).dropna()
    exp = (
        pairs.groupby(["f", "t"]).size().reset_index(name="n")
        .rename(columns={"f": "from_type", "t": "to_type"})
        .sort_values(["from_type", "to_type"]).reset_index(drop=True)
    )
    tot = exp.groupby("from_type")["n"].transform("sum")
    exp["p"] = (exp["n"] / tot).round(6)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert got["n"].sum() == len(pairs)


def test_assign_sessions_regime_equivalence(ray_session, monkeypatch):
    """Broadcast searchsorted regime == join-filter regime, including a
    hot user, and every event's session contains it."""
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages import guard
    from zonal_stats_toolkit_ray.stages.window import assign_sessions

    rng = np.random.default_rng(17)
    n = 6000
    k = np.concatenate(
        [np.zeros(n - 200, dtype=np.int64), rng.integers(1, 8, 200)]
    )
    tus = (rng.uniform(0, 3e5, n) * 1e6).astype("int64")
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": k,
            "ts": pd.to_datetime(tus, unit="us"),
        }
    )
    ds = rd.from_pandas(df).repartition(12)
    a = (
        assign_sessions(ds, gap_seconds=600.0)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(guard, "DRIVER_ROWS", 0)
    b = (
        assign_sessions(ds, gap_seconds=600.0)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b, check_dtype=False, atol=0)
    assert len(a) == n
    # session_start <= event ts always
    ts_s = df.sort_values("event_id")["ts"].astype("int64").to_numpy() / 1e9
    assert (a["session_start"].to_numpy() <= ts_s + 1e-9).all()


def test_twap_matches_brute_hot_key(ray_session):
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.intervals import twap_by_key

    rng = np.random.default_rng(23)
    n = 12_000
    k = np.concatenate(
        [np.zeros(n - 400, dtype=np.int64), rng.integers(1, 6, 399), [42]]
    )
    tus = (rng.uniform(0, 1e6, n) * 1e6).astype("int64")
    v = rng.uniform(-5, 50, n).round(3)
    df = pd.DataFrame(
        {
            "user_id": k,
            "ts": pd.to_datetime(tus, unit="us"),
            "value": v,
            "event_id": np.arange(n, dtype=np.int64),
        }
    )
    got = twap_by_key(rd.from_pandas(df).repartition(20))

    s = df.assign(t=df["ts"].astype("int64") / 1e6).sort_values(
        ["user_id", "t", "event_id"]
    )
    rows = []
    for kk, g in s.groupby("user_id"):
        if len(g) < 2:
            continue  # single-event key (user 42) excluded
        t = g["t"].to_numpy()
        vv = g["value"].to_numpy()
        tw = float(np.sum(np.diff(t) * vv[:-1]) / (t[-1] - t[0]))
        rows.append((kk, len(g), round(tw, 6)))
    exp = pd.DataFrame(rows, columns=["user_id", "n_events", "twap"])
    pd.testing.assert_frame_equal(
        got, exp.reset_index(drop=True), check_dtype=False, atol=2e-6
    )
    assert 42 not in set(got["user_id"])


def test_bfs_hops_small_graph(ray_session):
    import ray.data as rd
    from zonal_stats_toolkit_ray.stages.graph import bfs_hops

    # 0→1→2→3→4 chain plus shortcut 0→3: hops = min path
    df = pd.DataFrame({"src": [0, 1, 2, 3, 0], "dst": [1, 2, 3, 4, 3]})
    out = bfs_hops(rd.from_pandas(df).repartition(2), 0, max_hops=4)
    assert dict(zip(out["node"], out["hops"])) == {0: 0, 1: 1, 2: 2, 3: 1, 4: 2}
    # max_hops truncates
    out2 = bfs_hops(rd.from_pandas(df), 0, max_hops=1)
    assert dict(zip(out2["node"], out2["hops"])) == {0: 0, 1: 1, 3: 1}
