"""Round-3 operators: broadcast range join, grouped top-k, HLL approximate
distinct — brute-force cross-checks plus distributed-path equivalence."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from zonal_stats_toolkit_ray.stages.joins import range_join_broadcast
from zonal_stats_toolkit_ray.stages.rank import topk_per_group
from zonal_stats_toolkit_ray.state import metrics
from zonal_stats_toolkit_ray.stages.sketch import (
    approx_distinct_by_group,
    hll_estimate,
    hll_registers,
)


class TestRangeJoin:
    def _brute(self, ev: pd.DataFrame, iv: pd.DataFrame) -> set:
        out = set()
        for _, e in ev.iterrows():
            for _, s in iv.iterrows():
                if (
                    e["user_id"] == s["user_id"]
                    and s["start_us"] <= e["ts_us"] < s["end_us"]
                ):
                    out.add((int(e["event_id"]), int(s["start_us"])))
        return out

    def test_matches_bruteforce(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(7)
        n_ev, n_iv = 2000, 120
        day_us = 86_400_000_000
        ev = pd.DataFrame(
            {
                "event_id": np.arange(n_ev, dtype=np.int64),
                "user_id": rng.integers(0, 20, n_ev),
                "ts_us": rng.integers(0, 30 * day_us, n_ev),
            }
        )
        # mixed widths: sub-hour to multi-day spans (exercises day bucketing)
        starts = rng.integers(0, 30 * day_us, n_iv)
        widths = rng.integers(1_000_000, 3 * day_us, n_iv)
        iv = pd.DataFrame(
            {
                "user_id": rng.integers(0, 20, n_iv),
                "start_us": starts,
                "end_us": starts + widths,
            }
        )
        intervals = pa.table(
            {
                "user_id": pa.array(iv["user_id"].to_numpy(np.int64)),
                "start_us": pa.array(iv["start_us"].to_numpy(np.int64)),
                "end_us": pa.array(iv["end_us"].to_numpy(np.int64)),
                "window_start": pa.array(iv["start_us"].to_numpy(np.int64)),
            }
        )
        ds = rd.from_pandas(ev).repartition(4)
        got = range_join_broadcast(
            ds,
            intervals,
            key_col="user_id",
            ts_col="ts_us",
            interval_key_col="user_id",
            start_col="start_us",
            end_col="end_us",
            payload_cols=["window_start"],
        ).to_pandas()
        got_pairs = set(zip(got["event_id"].astype(int), got["window_start"].astype(int)))
        assert got_pairs == self._brute(ev, iv)
        assert len(got_pairs) > 50  # the fixture actually exercises matches

    def test_string_payload_with_empty_batches(self, ray_session):
        """String payloads must keep their Arrow type even when some
        batches produce zero matches (a numpy-object path would emit a
        null-typed column and break schema unification)."""
        import ray.data as rd

        intervals = pa.table(
            {
                "user_id": pa.array([1], pa.int64()),
                "start_us": pa.array([100], pa.int64()),
                "end_us": pa.array([200], pa.int64()),
                "label": pa.array(["win-A"], pa.string()),
            }
        )
        ev = pd.DataFrame(
            {
                "event_id": np.arange(100, dtype=np.int64),
                # only event 0 matches; most batches after repartition are empty-match
                "user_id": np.where(np.arange(100) == 0, 1, 999),
                "ts_us": np.full(100, 150, dtype=np.int64),
            }
        )
        got = range_join_broadcast(
            rd.from_pandas(ev).repartition(8),
            intervals,
            key_col="user_id",
            ts_col="ts_us",
            interval_key_col="user_id",
            start_col="start_us",
            end_col="end_us",
            payload_cols=["label"],
        ).to_pandas()
        assert len(got) == 1
        assert got["label"].iloc[0] == "win-A"

    def test_huge_keys_no_composite_collision(self, ray_session):
        """Snowflake-scale keys overflow the int64 composite (key*day_span
        + day); the exact filter re-checks key equality, so wrapped
        collisions must never join a row to another key's interval —
        verified against brute force."""
        import ray.data as rd

        rng = np.random.default_rng(13)
        day_us = 86_400_000_000
        n_ev, n_iv = 500, 60
        keys_pool = rng.integers(2**60, 2**62, 8).astype(np.int64)
        ev = pd.DataFrame(
            {
                "event_id": np.arange(n_ev, dtype=np.int64),
                "user_id": rng.choice(keys_pool, n_ev),
                "ts_us": rng.integers(0, 30 * day_us, n_ev),
            }
        )
        starts = rng.integers(0, 30 * day_us, n_iv)
        iv = pd.DataFrame(
            {
                "user_id": rng.choice(keys_pool, n_iv),
                "start_us": starts,
                "end_us": starts + rng.integers(1_000_000, 5 * day_us, n_iv),
            }
        )
        intervals = pa.table(
            {
                "user_id": pa.array(iv["user_id"].to_numpy(np.int64)),
                "start_us": pa.array(iv["start_us"].to_numpy(np.int64)),
                "end_us": pa.array(iv["end_us"].to_numpy(np.int64)),
                "window_start": pa.array(iv["start_us"].to_numpy(np.int64)),
            }
        )
        got = range_join_broadcast(
            rd.from_pandas(ev).repartition(3),
            intervals,
            key_col="user_id",
            ts_col="ts_us",
            interval_key_col="user_id",
            start_col="start_us",
            end_col="end_us",
            payload_cols=["window_start"],
        ).to_pandas()
        got_pairs = set(zip(got["event_id"].astype(int), got["window_start"].astype(int)))
        assert got_pairs == self._brute(ev, iv)

    def test_empty_sides(self, ray_session):
        import ray.data as rd

        intervals = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "start_us": pa.array([], pa.int64()),
                "end_us": pa.array([], pa.int64()),
                "window_start": pa.array([], pa.int64()),
            }
        )
        ev = pd.DataFrame(
            {"event_id": [1], "user_id": [3], "ts_us": [1_000_000]}
        )
        got = range_join_broadcast(
            rd.from_pandas(ev),
            intervals,
            key_col="user_id",
            ts_col="ts_us",
            interval_key_col="user_id",
            start_col="start_us",
            end_col="end_us",
            payload_cols=["window_start"],
        ).to_pandas()
        assert len(got) == 0


class TestTopK:
    def test_matches_pandas(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(5)
        df = pd.DataFrame(
            {
                "event_id": np.arange(5000, dtype=np.int64),
                "event_type": rng.choice(["a", "b", "c"], 5000),
                "value": rng.normal(size=5000).round(3),  # rounding makes ties
            }
        )
        got = topk_per_group(
            rd.from_pandas(df).repartition(6),
            key_col="event_type",
            value_col="value",
            id_col="event_id",
            k=7,
        )
        want_rows = []
        for key, g in df.groupby("event_type"):
            g = g.sort_values(["value", "event_id"], ascending=[False, True]).head(7)
            want_rows.append(g)
        want = pd.concat(want_rows)
        for key in ("a", "b", "c"):
            gk = got[got["event_type"] == key]
            wk = want[want["event_type"] == key]
            assert np.array_equal(
                gk.sort_values("rank")["event_id"].to_numpy(),
                wk["event_id"].to_numpy(),
            ), key
        assert got["rank"].tolist() == [1, 2, 3, 4, 5, 6, 7] * 3

    def test_tree_combine_bounds_driver_frame(self, ray_session, force_tree):
        """With a low driver budget the tree combine must engage and the
        driver frame must stay ≤ groups × k — never the unbounded
        blocks × groups × k."""
        import ray.data as rd

        rng = np.random.default_rng(11)
        n, n_groups, k = 120_000, 100_000, 2
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                # ≥100k distinct groups (the "top-k per domain" hazard)
                "grp": rng.integers(0, n_groups, n),
                "value": rng.normal(size=n),
            }
        )
        force_tree(driver_rows=30_000)
        with metrics.recording() as rec:
            got = topk_per_group(
                rd.from_pandas(df).repartition(16),
                key_col="grp",
                value_col="value",
                id_col="event_id",
                k=k,
            )
        present = df["grp"].nunique()
        stats = rec.last("rank.topk_per_group")
        assert stats["tree_levels"] >= 1
        assert stats["driver_rows"] <= present * k
        # exactness survives the tree: spot-check 200 random groups
        want = {
            key: g.sort_values(["value", "event_id"], ascending=[False, True])
            .head(k)["event_id"]
            .tolist()
            for key, g in df.groupby("grp")
        }
        for key in rng.choice(df["grp"].unique(), 200, replace=False):
            gk = got[got["grp"] == key].sort_values("rank")
            assert gk["event_id"].tolist() == want[int(key)], key

    def test_nan_values_excluded(self, ray_session):
        """ADVICE r3: NaN value rows are dropped (SQL and lexsort disagree
        on NaN order); finite rows still rank exactly."""
        import ray.data as rd

        df = pd.DataFrame(
            {
                "event_id": np.arange(8, dtype=np.int64),
                "g": ["a"] * 4 + ["b"] * 4,
                "value": [1.0, np.nan, 3.0, 2.0, np.nan, np.nan, 5.0, 4.0],
            }
        )
        got = topk_per_group(
            rd.from_pandas(df).repartition(2),
            key_col="g",
            value_col="value",
            id_col="event_id",
            k=2,
        )
        assert got[got["g"] == "a"]["event_id"].tolist() == [2, 3]
        assert got[got["g"] == "b"]["event_id"].tolist() == [6, 7]


class TestHLL:
    def test_estimate_accuracy_and_merge(self):
        rng = np.random.default_rng(1)
        for n in (50, 1000, 50_000, 500_000):
            vals = rng.integers(0, 10**12, n)
            exact = len(np.unique(vals))
            regs = hll_registers(vals)
            est = hll_estimate(regs)
            assert abs(est - exact) / exact < 0.05, (n, est, exact)
            # merge associativity: split into 3 parts, elementwise max
            parts = np.array_split(vals, 3)
            acc = np.zeros_like(regs)
            for p in parts:
                acc = np.maximum(acc, hll_registers(p))
            assert np.array_equal(acc, regs)

    def test_grouped_distributed_matches_driver(self, ray_session, monkeypatch):
        import ray.data as rd

        from zonal_stats_toolkit_ray.stages import sketch

        rng = np.random.default_rng(3)
        df = pd.DataFrame(
            {
                "k": rng.choice(["x", "y"], 20_000),
                "v": rng.integers(0, 5000, 20_000),
            }
        )
        ds = rd.from_pandas(df).repartition(5)
        a = approx_distinct_by_group(ds, key_col="k", value_col="v")
        monkeypatch.setattr(sketch, "DRIVER_SKETCH_ROWS", 0)
        b = approx_distinct_by_group(ds, key_col="k", value_col="v")
        pd.testing.assert_frame_equal(a, b)
        exact = df.groupby("k")["v"].nunique()
        for _, r in a.iterrows():
            assert abs(r["approx_distinct"] - exact[r["key"]]) / exact[r["key"]] < 0.05


class TestDocFrequency:
    def test_matches_pandas_with_topn_ties(self, ray_session):
        """Large vocabulary + ties at the top-n boundary: DF counts distinct
        docs (repeats within a doc count once), ordering (df desc, token
        asc) is deterministic, and the per-block local top-n path agrees
        with the global answer."""
        import ray.data as rd

        from zonal_stats_toolkit_ray.stages.text import document_frequency

        rng = np.random.default_rng(11)
        vocab = [f"tok{i:03d}" for i in range(300)]
        docs = []
        for d in range(800):
            words = rng.choice(vocab, size=rng.integers(3, 30))
            words = np.concatenate([words, words[:2]])  # in-doc repeats
            docs.append(" ".join(words))
        df = pd.DataFrame({"doc_id": np.arange(800), "text": docs})
        got = document_frequency(
            rd.from_pandas(df).repartition(6), top_n=40
        )
        want_counts = {}
        for text in docs:
            for tok in set(text.lower().split()):
                want_counts[tok] = want_counts.get(tok, 0) + 1
        want = sorted(want_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:40]
        assert list(zip(got["token"], got["df"].astype(int))) == want

    def test_null_text_contributes_no_tokens(self, ray_session):
        """Null text rows must behave like the SQL oracle (unnest of a NULL
        list emits no rows), not crash the batch kernel."""
        import ray.data as rd

        from zonal_stats_toolkit_ray.stages.text import document_frequency

        tbl = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(["a b a", None, "b c"], pa.string()),
            }
        )
        got = document_frequency(rd.from_arrow(tbl), top_n=10)
        assert dict(zip(got["token"], got["df"].astype(int))) == {"a": 1, "b": 2, "c": 1}


class TestRepetitionRatio:
    def test_matches_python_reference(self, ray_session):
        import ray.data as rd

        from zonal_stats_toolkit_ray.stages.text import repetition_ratio_batch

        docs = [
            "a b c d e f g h i j",              # 10 tokens, all grams distinct
            "x y " * 40,                          # heavy repetition
            "one two three",                      # <8 tokens → single gram
            "",                                   # empty
            None,                                 # null
            "w1 w2 w3 w4 w5 w6 w7 w8",           # exactly one 8-gram
        ]
        tbl = pa.table(
            {
                "doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
                "text": pa.array(docs, pa.string()),
            }
        )
        got = (
            rd.from_arrow(tbl)
            .map_batches(repetition_ratio_batch, batch_format="pyarrow")
            .to_pandas()
            .sort_values("doc_id")
        )

        def ref(t):
            if t is None:
                return 0.0
            ws = [w for w in t.lower().split() if w]
            if not ws:
                return 0.0
            if len(ws) < 8:
                grams = [" ".join(ws)]
            else:
                grams = [" ".join(ws[i : i + 8]) for i in range(len(ws) - 7)]
            return 1.0 - len(set(grams)) / len(grams)

        for i, t in enumerate(docs):
            assert np.isclose(got["rep_ratio"].iloc[i], ref(t)), (i, t)
        assert got["rep_ratio"].iloc[1] > 0.9  # repetitive doc scores high
        assert got["rep_ratio"].iloc[0] == 0.0


class TestPartitionedIVF:
    def test_build_query_recall_and_pruned_read(self, ray_session, tmp_path):
        import os

        import ray.data as rd

        from zonal_stats_toolkit_ray.stages.knn import (
            ivf_write_partitioned,
            knn_brute,
            knn_ivf_partitioned,
        )

        emb = rd.read_parquet("/root/testdata/sf0.01/embeddings.parquet")
        idx = str(tmp_path / "ivf")
        cent = ivf_write_partitioned(emb, idx, nlist=8)
        assert cent.shape[0] == 8
        # hive layout: one dir per list + the centroid table
        dirs = [d for d in os.listdir(idx) if d.startswith("ivf_list=")]
        assert 1 <= len(dirs) <= 8
        assert os.path.exists(os.path.join(idx, "_centroids.parquet"))

        head = emb.limit(3).to_pandas()
        qm = np.stack(head["embedding"].to_numpy()).astype(np.float64)
        queries = {"query_id": head["vec_id"].to_numpy(np.int64), "matrix": qm}
        got = knn_ivf_partitioned(idx, queries, k=10, nprobe=4)
        brute = knn_brute(emb, queries, k=10)
        for qid in queries["query_id"]:
            b = set(brute.loc[brute["query_id"] == qid, "vec_id"])
            a = set(got.loc[got["query_id"] == qid, "vec_id"])
            assert len(a & b) / len(b) >= 0.5, qid

        # the READ is pruned: one query probing 3 of 8 lists must touch
        # only those partitions (mechanism check via the run record)
        one = {"query_id": queries["query_id"][:1], "matrix": qm[:1]}
        with metrics.recording() as rec:
            knn_ivf_partitioned(idx, one, k=5, nprobe=3)
        stats = rec.last("knn.knn_ivf_partitioned")
        assert stats["probed_lists"] == 3
        assert stats["dirs_total"] >= stats["probed_lists"]
        assert 0 < stats["files_read"] < sum(
            len(os.listdir(os.path.join(idx, d)))
            for d in os.listdir(idx)
            if d.startswith("ivf_list=")
        ) or stats["dirs_total"] == 3

    def test_rebuild_into_same_dir_does_not_duplicate(self, ray_session, tmp_path):
        """ivf_write_partitioned is a CLEAN rebuild: building twice into
        the same dir must not append duplicate vectors (which would halve
        effective top-k)."""
        import ray.data as rd

        from zonal_stats_toolkit_ray.stages.knn import (
            ivf_write_partitioned,
            knn_ivf_partitioned,
        )

        emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
        n = emb.count()
        idx = str(tmp_path / "ivf")
        ivf_write_partitioned(emb, idx, nlist=4)
        ivf_write_partitioned(emb, idx, nlist=4)  # rebuild, same dir
        head = emb.limit(1).to_pandas()
        queries = {
            "query_id": head["vec_id"].to_numpy(np.int64),
            "matrix": np.stack(head["embedding"].to_numpy()).astype(np.float64),
        }
        got = knn_ivf_partitioned(idx, queries, k=10, nprobe=4)
        assert got["vec_id"].is_unique  # duplicates would repeat ids
        # total rows across partitions == corpus size exactly once
        import pyarrow.parquet as pq
        import os as _os

        total = sum(
            pq.read_metadata(_os.path.join(idx, d, f)).num_rows
            for d in _os.listdir(idx)
            if d.startswith("ivf_list=")
            for f in _os.listdir(_os.path.join(idx, d))
            if f.endswith(".parquet")
        )
        assert total == n


def test_sample_n_per_group_deterministic(ray_session):
    """Fixed-count per-group sample: partition-independent, reproducible,
    exactly n per group (or group size if smaller)."""
    import ray.data as rd

    from zonal_stats_toolkit_ray.stages.split import sample_n_per_group, split_hash32

    rng = np.random.default_rng(4)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(3000, dtype=np.int64),
            "lang": rng.choice(["en", "de", "zz"], 3000, p=[0.6, 0.39, 0.01]),
        }
    )
    a = sample_n_per_group(rd.from_pandas(df).repartition(5), n=15, key_col="lang")
    b = sample_n_per_group(rd.from_pandas(df).repartition(2), n=15, key_col="lang")
    pd.testing.assert_frame_equal(a, b)  # partitioning never changes the sample
    for lang, g in df.groupby("lang"):
        want_n = min(15, len(g))
        got = a[a["lang"] == lang]
        assert len(got) == want_n, lang
        h = split_hash32(g["doc_id"].to_numpy(np.int64))
        order = np.lexsort((g["doc_id"].to_numpy(), h))[:want_n]
        assert np.array_equal(
            got.sort_values("sample_rank")["doc_id"].to_numpy(),
            g["doc_id"].to_numpy()[order],
        ), lang


class TestBivarMode:
    def test_grouped_corr_matches_pandas(self, ray_session):
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.bivar import grouped_corr

        rng = np.random.default_rng(7)
        n = 5000
        key = rng.choice(["a", "b", "c"], n)
        x = rng.normal(10, 3, n)
        y = 2.5 * x + rng.normal(0, 4, n)
        df = pd.DataFrame({"k": key, "x": x, "y": y})
        got = grouped_corr(
            rd.from_pandas(df).repartition(7), keys=["k"], x_col="x", y_col="y"
        )
        for _, row in got.iterrows():
            g = df[df["k"] == row["k"]]
            assert row["n"] == len(g)
            assert abs(row["corr"] - g["x"].corr(g["y"])) < 1e-9
            sl, ic = np.polyfit(g["x"], g["y"], 1)
            assert abs(row["slope"] - sl) < 1e-7
            assert abs(row["intercept"] - ic) < 1e-6

    def test_grouped_corr_degenerate_and_nulls(self, ray_session):
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.bivar import grouped_corr

        df = pd.DataFrame(
            {
                "k": ["const", "const", "single", "nulls", "nulls", "nulls"],
                "x": [5.0, 5.0, 1.0, 1.0, None, 3.0],
                "y": [1.0, 2.0, 2.0, 2.0, 9.0, 4.0],
            }
        )
        got = grouped_corr(rd.from_pandas(df), keys=["k"], x_col="x", y_col="y")
        got = got.set_index("k")
        # zero x-variance: corr/slope NULL like SQL
        assert np.isnan(got.loc["const", "corr"])
        assert np.isnan(got.loc["const", "slope"])
        # single row: n < 2 -> NULL
        assert got.loc["single", "n"] == 1
        assert np.isnan(got.loc["single", "corr"])
        # null x excluded from n (SQL aggregate semantics)
        assert got.loc["nulls", "n"] == 2
        assert abs(got.loc["nulls", "corr"] - 1.0) < 1e-12

    def test_mode_per_group_tie_break_and_partitioning(self, ray_session):
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.rank import mode_per_group

        # exact tie between "b" and "a" in key k1 -> smallest value wins
        df = pd.DataFrame(
            {
                "k": ["k1"] * 4 + ["k2"] * 3,
                "v": ["b", "b", "a", "a", "z", "z", "y"],
            }
        )
        for parts in (1, 3):
            got = mode_per_group(
                rd.from_pandas(df).repartition(parts), key_col="k", value_col="v"
            ).set_index("k")
            assert got.loc["k1", "mode_value"] == "a"
            assert got.loc["k1", "n"] == 2
            assert got.loc["k2", "mode_value"] == "z"
            assert got.loc["k2", "n"] == 2

    def test_mode_per_group_many_values(self, ray_session):
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.rank import mode_per_group

        rng = np.random.default_rng(3)
        df = pd.DataFrame(
            {
                "k": rng.integers(0, 50, 20000).astype(str),
                "v": rng.integers(0, 400, 20000).astype(str),
            }
        )
        got = mode_per_group(
            rd.from_pandas(df).repartition(9), key_col="k", value_col="v"
        )
        want = (
            df.groupby(["k", "v"], as_index=False)
            .size()
            .sort_values(["k", "size", "v"], ascending=[True, False, True])
            .groupby("k", as_index=False)
            .first()
        )
        merged = got.merge(want, on="k")
        assert (merged["mode_value"] == merged["v"]).all()
        assert (merged["n"] == merged["size"]).all()

    def test_mode_per_group_tree_combine_bounds_driver(
        self, ray_session, force_tree, monkeypatch
    ):
        # stress: ≥100k keys across many blocks — the driver frame must
        # stay ≤ max(driver budget, #keys), with at least one tree level
        # applied, and the result must still be exact.
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.rank import mode_per_group

        n_keys = 100_000
        rng = np.random.default_rng(29)
        # each key appears 3x with 2 distinct values -> mode = the doubled one
        keys = np.repeat(np.arange(n_keys, dtype=np.int64), 3)
        vals = np.where(
            np.arange(3 * n_keys) % 3 == 2, keys + 1_000_000, keys
        )  # value==key twice, key+1e6 once -> mode is `key`
        perm = rng.permutation(keys.size)
        df = pd.DataFrame({"k": keys[perm], "v": vals[perm]})
        thr = 50_000  # below the ~100k local-mode candidates: forces a level
        force_tree(driver_rows=thr)
        from zonal_stats_toolkit_ray.stages import guard

        monkeypatch.setattr(guard, "shuffle_partitions", lambda: 16)
        with metrics.recording() as rec:
            got = mode_per_group(
                rd.from_pandas(df).repartition(32), key_col="k", value_col="v"
            )
        stats = rec.last("rank.mode_per_group")
        assert stats["tree_levels"] >= 1
        assert stats["driver_rows"] <= max(thr, n_keys)
        assert len(got) == n_keys
        assert (got["mode_value"].to_numpy() == got["k"].to_numpy()).all()
        assert (got["n"] == 2).all()


class TestMad:
    def test_mad_matches_pandas_both_regimes(self, ray_session, force_tree):
        import ray.data as rd
        from zonal_stats_toolkit_ray.stages.bivar import mad_by_group

        rng = np.random.default_rng(17)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], 4000),
                "v": rng.integers(0, 1000, 4000).astype(np.float64),
            }
        )
        want = {}
        for k, g in df.groupby("k"):
            med = np.percentile(g["v"], 50)
            want[k] = (med, np.percentile(np.abs(g["v"] - med), 50))
        for regime in ("one_task", "salted"):
            if regime == "salted":
                force_tree()  # zero driver budget: the salted shuffle
            got = mad_by_group(
                rd.from_pandas(df).repartition(6), key_col="k", value_col="v"
            )
            for _, row in got.iterrows():
                m, d = want[row["k"]]
                assert abs(row["median"] - m) < 1e-9, (regime, row)
                assert abs(row["mad"] - d) < 1e-9, (regime, row)
