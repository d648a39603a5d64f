"""The driver guards of stages/guard.py.

Universe cap: a continuous value column whose distinct universe exceeds
``guard.DEFAULT_MAX_UNIVERSE`` fails fast with guidance naming the
salted-percentile alternative, and the driver holds at most
``guard.DRIVER_ROWS`` universe rows before that check, while bounded
inputs are unaffected.

Tree budget: the levels of ``tree_combine`` (``guard._tree_levels``) are
the one repartition-and-recombine loop in the package; they end on any
kernel, and no other ``while`` loop repartitions.

One value universe: the 13 order-statistics operators each call
``guard.universe`` and keep only their projection and finalize — no own
Arrow ``group_by`` kernel, native ``groupby`` of their Dataset,
``repartition``, ``max_universe`` keyword or ``quantile_cont`` copy.

One regime rule: no function takes a per-call ``*_threshold`` knob (a
regime switch reads ``guard.DRIVER_ROWS`` or a module constant), except
the guards that raise and one kernel parameter, and nothing freezes
``DRIVER_ROWS`` before call time.

One shuffle width and one grouped-sum merge: no function takes a
``num_partitions`` knob, no ``.repartition()`` outside guard.py gets a
literal width, and no native ``groupby(…).aggregate(Sum…)`` result is
collected with ``.to_pandas()`` (a summed aggregate the driver collects
merges in ``guard.group_sums``).

One run record: telemetry goes through ``state.metrics.note``; no module
keeps a ``LAST_*`` global, no function takes ``stats_out``, and no stage
module rebinds a global.
"""

import ast
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

import ray.data as rd


def _continuous_df(n=200_000, seed=13):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "k": rng.integers(0, 8, n).astype(str),
            "v": rng.normal(0, 1, n),  # effectively all-distinct
            "w": rng.uniform(0.5, 2.0, n),
            "y": rng.integers(0, 2, n),
        }
    )


class TestUniverseGuard:
    def test_weighted_median_fails_fast_with_guidance(self, ray_session, monkeypatch):
        from zonal_stats_toolkit_ray.stages import guard
        from zonal_stats_toolkit_ray.stages.rank import weighted_median_by_group

        monkeypatch.setattr(guard, "DEFAULT_MAX_UNIVERSE", 50_000)
        ds = rd.from_pandas(_continuous_df()).repartition(8)
        with pytest.raises(ValueError, match="salted_group_percentiles"):
            weighted_median_by_group(ds, key_col="k", value_col="v", weight_col="w")

    def test_gini_auc_ks_qt_winsor_guarded(self, ray_session, monkeypatch):
        from zonal_stats_toolkit_ray.stages import guard
        from zonal_stats_toolkit_ray.stages.bivar import auc_by_group
        from zonal_stats_toolkit_ray.stages.normalize import quantile_transform
        from zonal_stats_toolkit_ray.stages.profile import ks_test
        from zonal_stats_toolkit_ray.stages.rank import (
            gini_by_group,
            winsorized_mean_by_group,
        )

        monkeypatch.setattr(guard, "DEFAULT_MAX_UNIVERSE", 50_000)
        ds = rd.from_pandas(_continuous_df()).repartition(8)
        for call in (
            lambda: gini_by_group(ds, key_col="k", value_col="v"),
            lambda: winsorized_mean_by_group(ds, key_col="k", value_col="v"),
            lambda: auc_by_group(ds, group_col="k", label_col="y", score_col="v"),
            lambda: ks_test(ds, value_col="v", seg_col="k", ref_segment="0"),
            lambda: quantile_transform(ds, id_col="event_id", value_col="v"),
        ):
            with pytest.raises(ValueError, match="max_universe"):
                call()

    def test_bounded_universe_unaffected(self, ray_session):
        # integer-valued (bounded) inputs pass the guard and stay exact
        from zonal_stats_toolkit_ray.stages.rank import gini_by_group

        df = _continuous_df(20_000)
        df["v"] = np.round(df["v"] * 10).astype(np.int64).astype(np.float64)
        out = gini_by_group(
            rd.from_pandas(df).repartition(4), key_col="k", value_col="v"
        )
        assert len(out) == 8 and out["n"].sum() == 20_000

    def test_impute_group_median_guarded(self, ray_session, monkeypatch):
        from zonal_stats_toolkit_ray.stages import guard
        from zonal_stats_toolkit_ray.stages.normalize import impute_group_median

        df = _continuous_df(20_000)
        df.loc[::7, "v"] = np.nan
        ds = rd.from_pandas(df).repartition(4)
        kw = dict(id_col="event_id", key_col="k", value_col="v")
        out = impute_group_median(ds, **kw).to_pandas()
        assert len(out) == 20_000 and out["v_filled"].notna().all()
        # the universe is checked against the shared default bound
        monkeypatch.setattr(guard, "DEFAULT_MAX_UNIVERSE", 1_000)
        with pytest.raises(ValueError, match="max_universe=1,000"):
            impute_group_median(ds, **kw)


def test_universe_cap_checked_before_the_collect(ray_session, monkeypatch):
    # the combine ends on one block above the driver budget: its row count
    # is checked before anything reaches the driver
    from zonal_stats_toolkit_ray.stages import guard

    monkeypatch.setattr(guard, "DRIVER_ROWS", 1_000)
    monkeypatch.setattr(guard, "DEFAULT_MAX_UNIVERSE", 5_000)
    ds = rd.from_pandas(pd.DataFrame({"v": np.arange(20_000.0)})).repartition(8)
    collected = []
    to_pandas = rd.Dataset.to_pandas

    def spy(self, *a, **kw):
        collected.append(self.count())
        return to_pandas(self, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "to_pandas", spy)
    with pytest.raises(ValueError, match="max_universe=5,000"):
        guard.universe(ds, ["v"], what="test")
    assert collected == []
    monkeypatch.setattr(guard, "DEFAULT_MAX_UNIVERSE", 20_000)
    uni = guard.universe(ds, ["v"], what="test")
    assert collected == [20_000] and uni["n"].tolist() == [1] * 20_000


class TestTreeCombine:
    def test_levels_end_even_when_the_kernel_does_not_shrink(
        self, ray_session, force_tree
    ):
        # an identity kernel never gets under a zero budget: the block count
        # alone must end the loop (20 → 2 → 1 blocks), rows intact
        from zonal_stats_toolkit_ray.stages import guard

        force_tree()
        ds = rd.from_pandas(pd.DataFrame({"x": np.arange(200)})).repartition(20)
        frame, levels = guard.tree_combine(ds, lambda t: t)
        assert levels == 2
        assert sorted(frame["x"]) == list(range(200))


def _repartitioning_while_loops(tree: ast.AST):
    """Yield the enclosing function name of every ``while`` loop whose body
    calls ``.repartition(``."""

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.While) and any(
            isinstance(c, ast.Call)
            and isinstance(c.func, ast.Attribute)
            and c.func.attr == "repartition"
            for c in ast.walk(node)
        ):
            yield fn
        for child in ast.iter_child_nodes(node):
            yield from visit(child, fn)

    yield from visit(tree, None)


def test_tree_combine_is_the_only_repartition_loop():
    pkg = Path(__file__).resolve().parents[1] / "zonal_stats_toolkit_ray"
    found = [
        (str(path.relative_to(pkg)), fn)
        for path in sorted(pkg.rglob("*.py"))
        for fn in _repartitioning_while_loops(ast.parse(path.read_text()))
    ]
    assert found == [("stages/guard.py", "_tree_levels")], found


# (module, function, parameter) → why it may stay a per-call keyword
_THRESHOLD_EXEMPT = {
    ("stages/text.py", "encode_corpus", "vocab_broadcast_threshold"):
        "raises past the cap: the encoding needs the whole vocabulary",
    ("stages/graph.py", "bfs_hops", "node_driver_threshold"):
        "raises past the cap: the frontier state lives on the driver",
    ("stages/triangles.py", "triangle_stats", "node_driver_threshold"):
        "raises past the cap: the degree table lives on the driver",
    ("sources/zones.py", "assign_points_cached", "refine_threshold"):
        "a kernel parameter (points per hot cell), not a regime switch",
}


def _package_trees():
    pkg = Path(__file__).resolve().parents[1] / "zonal_stats_toolkit_ray"
    for path in sorted(pkg.rglob("*.py")):
        yield str(path.relative_to(pkg)), ast.parse(path.read_text())


def _mentions_driver_rows(node) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id == "DRIVER_ROWS")
        or (isinstance(n, ast.Attribute) and n.attr == "DRIVER_ROWS")
        for n in ast.walk(node)
    )


def test_no_per_call_regime_thresholds():
    found = set()
    frozen = []
    for rel, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                a.name == "DRIVER_ROWS" for a in node.names
            ):
                frozen.append((rel, node.lineno, "from-import"))
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            params += [x for x in (a.vararg, a.kwarg) if x]
            for arg in params:
                if arg.arg.endswith(("_threshold", "_threshold_rows")):
                    found.add((rel, getattr(node, "name", "<lambda>"), arg.arg))
            for d in a.defaults + [d for d in a.kw_defaults if d is not None]:
                if _mentions_driver_rows(d):
                    frozen.append((rel, node.lineno, "default argument"))
    assert found == set(_THRESHOLD_EXEMPT), found ^ set(_THRESHOLD_EXEMPT)
    assert frozen == [], frozen


def _telemetry_breaks(rel: str, tree) -> list:
    """What bypasses the one run record (``state.metrics``): a module-level
    ``LAST_*`` name, a ``stats_out`` parameter, any ``StageMetrics``, or a
    ``global`` statement under ``stages/``."""
    out = []
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        for t in targets:
            if isinstance(t, ast.Name) and t.id.startswith("LAST_"):
                out.append((rel, node.lineno, t.id))
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg == "stats_out":
            out.append((rel, node.lineno, "stats_out"))
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        name = name or getattr(node, "name", None)
        if name == "StageMetrics":
            out.append((rel, node.lineno, "StageMetrics"))
        if isinstance(node, ast.Global) and rel.startswith("stages/"):
            out.append((rel, node.lineno, "global"))
    return out


def test_one_run_record():
    breaks = [b for rel, tree in _package_trees() for b in _telemetry_breaks(rel, tree)]
    assert breaks == []


@pytest.mark.parametrize(
    "rel, src",
    [
        ("stages/x.py", "LAST_STATS: dict = {}"),
        ("pipelines/x.py", "LAST_STATS = {}"),
        ("stages/x.py", "def f(ds, *, stats_out=None):\n    pass"),
        ("state/x.py", "class StageMetrics:\n    pass"),
        ("pipelines/x.py", "from ..state.metrics import StageMetrics"),
        ("stages/x.py", "def f():\n    global _CACHE"),
    ],
)
def test_run_record_check_catches_each_break(rel, src):
    assert _telemetry_breaks(rel, ast.parse(src))


# names only the shared LSH tail (``dedup._near_dup``) may reference
_NEAR_DUP_TAIL = {
    "_fetch_rows_by_id",
    "_verify_pairs_via_join",
    "connected_components",
    "distributed_connected_components",
    "lsh_candidate_pairs",
}


def test_dedup_variants_share_one_tail():
    path = Path(__file__).resolve().parents[1] / "zonal_stats_toolkit_ray/stages/dedup.py"
    fns = {
        n.name: n
        for n in ast.parse(path.read_text()).body
        if isinstance(n, ast.FunctionDef)
    }

    def refs(fn) -> set:
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(fn)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    for name in ("minhash_dedup", "simhash_dedup", "ngram_jaccard_dedup", "embedding_dedup"):
        assert refs(fns[name]) & _NEAR_DUP_TAIL == set(), name
        assert "_near_dup" in refs(fns[name]), name
    users = {name for name, fn in fns.items() if refs(fn) & (_NEAR_DUP_TAIL - {name})}
    assert users == {"_near_dup"}, users


# the operators that run through the one keyed block scan (stages/scan.py)
_SCAN_OPERATORS = {
    "stages/cusum.py": ("cusum_by_key",),
    "stages/winfunc.py": ("window_ranks",),
    "stages/rolling.py": ("ewma_by_key", "rolling_rows_median", "rolling_window_stats"),
    "stages/pack.py": ("attach_running_total",),
    "stages/joins.py": ("asof_join_self",),
    "stages/window.py": ("session_windows",),
    "stages/intervals.py": (
        "interval_union",
        "event_gaps",
        "event_transitions",
        "twap_by_key",
    ),
}


def _scan_plumbing(fn) -> list:
    """The ``.sort(``, ``.map_groups(``, ``ray.put`` and ``ray.get`` calls
    inside ``fn``."""
    out = []
    for n in ast.walk(fn):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)):
            continue
        owner = n.func.value
        on_ray = (isinstance(owner, ast.Name) and "ray" in owner.id) or (
            isinstance(owner, ast.Call) and getattr(owner.func, "id", "") == "__import__"
        )
        if n.func.attr in ("sort", "map_groups") or (
            n.func.attr in ("put", "get") and on_ray
        ):
            out.append(n.func.attr)
    return out


def test_scan_operators_share_one_block_scan():
    trees = dict(_package_trees())
    for rel, names in _SCAN_OPERATORS.items():
        fns = {n.name: n for n in trees[rel].body if isinstance(n, ast.FunctionDef)}
        for name in names:
            assert _scan_plumbing(fns[name]) == [], (rel, name)
            assert any(
                isinstance(n, ast.Name) and n.id == "block_scan"
                for n in ast.walk(fns[name])
            ), (rel, name)
    assert set(_scan_plumbing(trees["stages/scan.py"])) == {"sort", "put", "get"}


@pytest.mark.parametrize(
    "src",
    [
        "def f(ds):\n    return ds.sort(['k']).materialize()",
        "def f(x):\n    import ray\n    return ray.put(x)",
        "def f(r):\n    import ray as _ray\n    return _ray.get(r)",
        "def f(r):\n    return __import__('ray').get(r)",
        "def f(ds, g):\n    return ds.groupby('k').map_groups(g)",
    ],
)
def test_scan_check_catches_own_plumbing(src):
    assert _scan_plumbing(ast.parse(src))


def _is_sum_aggregate(node) -> bool:
    """``<…>.aggregate(…)`` with a ``Sum(…)`` among its arguments."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "aggregate"
        and any(
            isinstance(n, ast.Call)
            and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) == "Sum"
            for a in node.args
            for n in ast.walk(a)
        )
    )


def _shuffle_rule_breaks(rel: str, tree: ast.AST):
    """Yield (rule, function, line) for every ``num_partitions`` parameter,
    literal ``.repartition(<int>)`` (outside guard.py) and summed native
    aggregate that is ``.to_pandas()``'d — chained or through a local
    name."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        a = fn.args
        if any(x.arg == "num_partitions" for x in a.posonlyargs + a.args + a.kwonlyargs):
            yield "num_partitions", name, fn.lineno
        if isinstance(fn, ast.Lambda):
            continue
        summed = {
            n.targets[0].id
            for n in ast.walk(fn)
            if isinstance(n, ast.Assign)
            and len(n.targets) == 1
            and isinstance(n.targets[0], ast.Name)
            and _is_sum_aggregate(n.value)
        }
        for n in ast.walk(fn):
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)):
                continue
            if (
                n.func.attr == "repartition"
                and rel != "stages/guard.py"
                and any(
                    isinstance(x, ast.Constant) and isinstance(x.value, int)
                    for x in n.args
                )
            ):
                yield "literal repartition", name, n.lineno
            v = n.func.value
            if n.func.attr == "to_pandas" and (
                _is_sum_aggregate(v) or (isinstance(v, ast.Name) and v.id in summed)
            ):
                yield "Sum aggregate to_pandas", name, n.lineno


def test_one_shuffle_width_and_one_grouped_sum_merge():
    found = sorted(
        {
            (rel, *brk)
            for rel, tree in _package_trees()
            for brk in _shuffle_rule_breaks(rel, tree)
        }
    )
    assert found == [], found


def test_shuffle_rule_check_catches_each_break():
    # the checker itself: each pattern it exists to reject is found
    src = """
def a(ds, *, num_partitions=4):
    return ds
def b(ds):
    return ds.repartition(4)
def c(ds):
    return ds.groupby("k").aggregate(Sum("n", alias_name="n")).to_pandas()
def d(ds):
    agg = ds.repartition(guard.shuffle_partitions()).groupby("k").aggregate(
        *[Sum(m) for m in ["n"]]
    )
    return agg.to_pandas()
def e(ds):
    return ds.groupby("k").aggregate(Count()).to_pandas()
"""
    got = sorted(
        (rule, fn) for rule, fn, _ in _shuffle_rule_breaks("stages/x.py", ast.parse(src))
    )
    assert got == [
        ("Sum aggregate to_pandas", "c"),
        ("Sum aggregate to_pandas", "d"),
        ("literal repartition", "b"),
        ("num_partitions", "a"),
    ]


# the value-universe family: each operator keeps its projection and its
# finalize, and counts through the one guarded universe (guard.universe)
_UNIVERSE_OPERATORS = {
    "stages/rank.py": (
        "weighted_median_by_group",
        "winsorized_mean_by_group",
        "gini_by_group",
    ),
    "stages/normalize.py": ("quantile_transform", "impute_group_median"),
    "stages/bivar.py": ("auc_by_group", "spearman_by_group", "kendall_tau_by_group"),
    "stages/profile.py": (
        "ks_test",
        "group_entropy",
        "chi2_independence",
        "psi_drift",
        "mutual_information",
    ),
}


def _root_name(node):
    """The name a call/attribute chain starts from (``ds`` of
    ``ds.map_batches(f).groupby(k)``), else None."""
    while isinstance(node, (ast.Call, ast.Attribute, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _universe_plumbing(fn) -> list:
    """What a universe operator may not write itself: an Arrow
    ``.group_by(`` kernel, a ``.groupby(`` on its Dataset (first)
    parameter, a ``.repartition(``, a Ray ``Sum`` aggregate, a
    ``max_universe`` name or a ``floor`` (an own ``quantile_cont``)."""
    params = fn.args.posonlyargs + fn.args.args
    ds = params[0].arg if params else None
    out = []
    for n in ast.walk(fn):
        name = getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "arg", None)
        if name in ("max_universe", "Sum", "floor"):
            out.append(name)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            attr = n.func.attr
            if attr in ("group_by", "repartition") or (
                attr == "groupby" and _root_name(n.func.value) == ds
            ):
                out.append(attr)
    return out


def _calls_universe(fn) -> bool:
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "universe"
        and getattr(n.func.value, "id", None) == "guard"
        for n in ast.walk(fn)
    )


def test_universe_family_shares_one_guarded_universe():
    trees = dict(_package_trees())
    for rel, names in _UNIVERSE_OPERATORS.items():
        fns = {n.name: n for n in trees[rel].body if isinstance(n, ast.FunctionDef)}
        for name in names:
            assert _universe_plumbing(fns[name]) == [], (rel, name)
            assert _calls_universe(fns[name]), (rel, name)
    knobs = [
        (rel, fn.name)
        for rel, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            a.arg == "max_universe"
            for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        )
    ]
    assert knobs == [], knobs


@pytest.mark.parametrize(
    "src",
    [
        # the native count chain gini_by_group had
        "def gini_by_group(ds, *, key_col, value_col):\n"
        "    uni = guard.universe(ds, [key_col], what='g')\n"
        "    return ds.map_batches(f).repartition(guard.shuffle_partitions())"
        ".groupby([key_col, 'v']).aggregate(Sum('c', alias_name='c'))",
        "def f(ds):\n    return guard.universe(ds.groupby('k').count(), ['k'], what='f')",
        "def f(ds):\n    g = pa.table({}).group_by(['k']).aggregate([([], 'count_all')])",
        "def f(ds, *, max_universe=None):\n    return guard.universe(ds, ['k'], what='f')",
        "def f(ds):\n    r = q * (n - 1)\n    k = int(np.floor(r))",
    ],
)
def test_universe_check_catches_own_plumbing(src):
    assert _universe_plumbing(ast.parse(src).body[0])
