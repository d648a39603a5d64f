"""SemDeDup (stages/semdedup.py): kernel semantics, regime equivalence,
identical-vector flood, sub-split recall on exact dups, determinism."""

import numpy as np
import pyarrow as pa
import pytest
from zonal_stats_toolkit_ray.state import metrics


def _mk_ds(ids, mat):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.asarray(ids, dtype=np.int64)),
                "embedding": pa.array(
                    [list(map(float, r)) for r in mat], pa.list_(pa.float32())
                ),
            }
        )
    )


def _random_corpus(n, d, seed, n_exact=10, n_near=10):
    """n base vectors + planted exact copies (+1e6 ids) and near copies
    (+2e6 ids, tiny perturbation → cosine > 0.999)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, d))
    ids = np.arange(n, dtype=np.int64)
    ex_ids = ids[:n_exact] + 1_000_000
    near = base[:n_near] + 1e-4 * rng.standard_normal((n_near, d))
    near_ids = ids[:n_near] + 2_000_000
    all_ids = np.concatenate([ids, ex_ids, near_ids])
    all_mat = np.vstack([base, base[:n_exact], near])
    return all_ids, all_mat


class TestSemDedupKernel:
    def test_star_near_and_negative(self):
        from zonal_stats_toolkit_ray.stages.semdedup import _dedup_cluster

        ids = np.array([5, 1, 9, 3], dtype=np.int64)
        mat = np.array(
            [[1, 0], [1, 0], [0, 1], [0.999, 0.0447]], dtype=np.float64
        )
        canon = _dedup_cluster(ids, mat, 0.95, 8192, 42, 0)
        assert dict(zip(ids.tolist(), canon.tolist())) == {5: 1, 1: 1, 9: 9, 3: 1}

    def test_transitive_component_min_id(self):
        # a~b and b~c but a!~c: one component, canonical = min id for all
        from zonal_stats_toolkit_ray.stages.semdedup import _dedup_cluster

        a = np.array([1.0, 0.0])
        b = np.array([np.cos(0.08), np.sin(0.08)])
        c = np.array([np.cos(0.16), np.sin(0.16)])
        thr = np.cos(0.1)  # a·b, b·c above; a·c below
        ids = np.array([30, 10, 20], dtype=np.int64)
        canon = _dedup_cluster(ids, np.vstack([a, b, c]), thr, 8192, 42, 0)
        assert canon.tolist() == [10, 10, 10]


class TestSemDedup:
    def test_regimes_equal_and_planted_found(self, ray_session, monkeypatch):
        from zonal_stats_toolkit_ray.stages import semdedup as sd
        from zonal_stats_toolkit_ray.stages.semdedup import semdedup

        ids, mat = _random_corpus(400, 16, seed=7)
        with metrics.recording() as rec:
            a = (
                semdedup(_mk_ds(ids, mat), nlist=8, threshold=0.99)
                .to_pandas()
                .sort_values("vec_id")
                .reset_index(drop=True)
            )
            monkeypatch.setattr(sd, "DRIVER_VECTORS", 10)
            b = (
                semdedup(_mk_ds(ids, mat), nlist=8, threshold=0.99)
                .to_pandas()
                .sort_values("vec_id")
                .reset_index(drop=True)
            )
        s1, s2 = rec.all("semdedup.semdedup")
        assert s1["regime"] == "driver" and s2["regime"] == "grouped"
        assert s1["rows"] == s2["rows"] == len(ids)
        assert 1 <= s1["n_clusters"] <= 8 and s2["n_clusters"] is None
        assert a.equals(b)
        got = dict(zip(a["vec_id"], a["canonical_id"]))
        flag = dict(zip(a["vec_id"], a["is_duplicate"]))
        for i in range(10):
            assert got[i + 1_000_000] == got[i] and flag[i + 1_000_000]
            assert got[i + 2_000_000] == got[i] and flag[i + 2_000_000]
        # base vectors are random 16-dim: none should collide at 0.99
        base = a[a["vec_id"] < 1_000_000]
        assert not base["is_duplicate"].any()

    def test_identical_flood_is_linear(self, ray_session):
        # 30k byte-identical vectors collapse to ONE representative: no
        # pairwise blowup, every copy flagged to the min id
        import time

        from zonal_stats_toolkit_ray.stages.semdedup import semdedup

        n = 30_000
        ids = np.arange(n, dtype=np.int64) + 5
        mat = np.tile(np.arange(8, dtype=np.float64), (n, 1))
        t0 = time.time()
        out = semdedup(
            _mk_ds(ids, mat), nlist=4, threshold=0.95, max_cluster_pairwise=64
        ).to_pandas()
        assert time.time() - t0 < 60
        assert (out["canonical_id"] == 5).all()
        assert int(out["is_duplicate"].sum()) == n - 1

    def test_subsplit_keeps_exact_dups(self, ray_session):
        # force the hyperplane sub-split (reps >> max_cluster_pairwise) and
        # verify exact duplicates are still caught (identical signs)
        from zonal_stats_toolkit_ray.stages.semdedup import semdedup

        rng = np.random.default_rng(3)
        n = 2_000
        base = rng.standard_normal((n, 12))
        ids = np.arange(n, dtype=np.int64)
        all_ids = np.concatenate([ids, ids[:50] + 1_000_000])
        all_mat = np.vstack([base, base[:50]])
        out = semdedup(
            _mk_ds(all_ids, all_mat),
            nlist=2,
            threshold=0.999,
            max_cluster_pairwise=100,
        ).to_pandas()
        got = dict(zip(out["vec_id"], out["canonical_id"]))
        for i in range(50):
            assert got[i + 1_000_000] == got[i]

    def test_deterministic(self, ray_session):
        from zonal_stats_toolkit_ray.stages.semdedup import semdedup

        ids, mat = _random_corpus(200, 16, seed=11)
        runs = [
            semdedup(_mk_ds(ids, mat), nlist=8, threshold=0.99)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
            for _ in range(2)
        ]
        assert runs[0].equals(runs[1])
