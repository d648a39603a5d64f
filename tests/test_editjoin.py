"""Unit tests for the PassJoin edit-distance self-join."""

import numpy as np
import pandas as pd
import pytest
from zonal_stats_toolkit_ray.state import metrics


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


def brute_pairs(strings: dict[int, str], k: int):
    import itertools

    def lev(a, b):
        if len(a) < len(b):
            a, b = b, a
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(
                    min(cur[j - 1] + 1, prev[j] + 1, prev[j - 1] + (ca != cb))
                )
            prev = cur
        return prev[-1]

    out = {}
    for a, b in itertools.combinations(sorted(strings), 2):
        d = lev(strings[a], strings[b])
        if d <= k:
            out[(a, b)] = d
    return out


def make_strings(rng, n=300):
    alpha = list("abcdefgh")
    out = {}
    base = ["".join(rng.choice(alpha, rng.integers(8, 20))) for _ in range(40)]
    for i in range(n):
        s = list(rng.choice(base))
        # mutate 0-3 positions / insert / delete
        for _ in range(rng.integers(0, 4)):
            op = rng.integers(0, 3)
            if op == 0 and s:
                s[rng.integers(0, len(s))] = rng.choice(alpha)
            elif op == 1:
                s.insert(rng.integers(0, len(s) + 1), rng.choice(alpha))
            elif s:
                del s[rng.integers(0, len(s))]
        out[i] = "".join(s)
    return out


class TestEditDistanceJoin:
    def test_matches_bruteforce(self, rd):
        from zonal_stats_toolkit_ray.stages.editjoin import edit_distance_join

        rng = np.random.default_rng(31)
        strings = make_strings(rng)
        df = pd.DataFrame(
            {"doc_id": list(strings), "s": [strings[i] for i in strings]}
        )
        got = edit_distance_join(
            rd.from_pandas(df).repartition(6), id_col="doc_id", str_col="s", k=2
        )
        want = brute_pairs(strings, 2)
        got_pairs = {
            (a, b): d for a, b, d in zip(got["a"], got["b"], got["dist"])
        }
        assert got_pairs == want
        assert len(want) > 20  # fixture actually has near-dups

    def test_short_strings_complete(self, rd):
        from zonal_stats_toolkit_ray.stages.editjoin import edit_distance_join

        strings = {0: "a", 1: "ab", 2: "abc", 3: "abcd", 4: "xyz", 5: "", 6: "b"}
        df = pd.DataFrame({"doc_id": list(strings), "s": list(strings.values())})
        got = edit_distance_join(
            rd.from_pandas(df), id_col="doc_id", str_col="s", k=2
        )
        want = brute_pairs(strings, 2)
        got_pairs = {
            (a, b): d for a, b, d in zip(got["a"], got["b"], got["dist"])
        }
        assert got_pairs == want

    def test_join_regime_matches_broadcast(self, rd, monkeypatch):
        from zonal_stats_toolkit_ray.stages import guard
        from zonal_stats_toolkit_ray.stages.editjoin import edit_distance_join

        rng = np.random.default_rng(37)
        strings = make_strings(rng, n=150)
        df = pd.DataFrame(
            {"doc_id": list(strings), "s": [strings[i] for i in strings]}
        )
        ds = rd.from_pandas(df).repartition(4)
        a = edit_distance_join(ds, id_col="doc_id", str_col="s", k=2)
        monkeypatch.setattr(guard, "DRIVER_ROWS", 0)
        with metrics.recording() as rec:
            b = edit_distance_join(ds, id_col="doc_id", str_col="s", k=2)
        assert rec.last("editjoin.edit_distance_join")["regime"] == "join"
        pd.testing.assert_frame_equal(a, b)

    def test_k1_and_identical_strings(self, rd):
        from zonal_stats_toolkit_ray.stages.editjoin import edit_distance_join

        strings = {0: "hello", 1: "hello", 2: "hallo", 3: "world"}
        df = pd.DataFrame({"doc_id": list(strings), "s": list(strings.values())})
        got = edit_distance_join(
            rd.from_pandas(df), id_col="doc_id", str_col="s", k=1
        )
        want = brute_pairs(strings, 1)
        got_pairs = {
            (a, b): d for a, b, d in zip(got["a"], got["b"], got["dist"])
        }
        assert got_pairs == want  # (0,1,0), (0,2,1), (1,2,1)
