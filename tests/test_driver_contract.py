"""Simulate the driver exactly: a FRESH process does ray.init, imports
__ray_entry__, and calls entry() + sample queries.  Catches any
library-side ray.init()/shutdown() contract violations.  Ray-free
guards also reject shadowed names in the entry module and engine names
that the benchmark's tracer can no longer find."""

import ast
import collections
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ENTRY = Path(__file__).resolve().parent.parent / "__ray_entry__.py"

SCRIPT = r"""
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
import importlib.util, sys
spec = importlib.util.spec_from_file_location("__ray_entry__", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
sys.modules["__ray_entry__"] = mod
spec.loader.exec_module(mod)

res = mod.entry()
import pandas as pd
assert len(res) >= 0 and "group_value" in res.columns

q = mod.queries()
o = mod.oracle_sql()
assert set(o) <= set(q), "every oracle key must have a query"
out = q["zonal_grid_stats"]("/root/testdata/sf0.001")
n1 = len(out if isinstance(out, pd.DataFrame) else out.to_pandas())
out2 = q["dedup_exact"]("/root/testdata/sf0.001")
n2 = len(out2 if isinstance(out2, pd.DataFrame) else out2.to_pandas())
assert ray.is_initialized(), "queries must not shut ray down"
print({"entry_rows": len(res), "zonal_grid": n1, "dedup": n2, "n_queries": len(q), "n_oracles": len(o)})
ray.shutdown()
"""


def test_driver_contract_fresh_process():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ENTRY)],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=ENTRY.parent,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    last = out.stdout.strip().splitlines()[-1]
    assert "entry_rows" in last, out.stdout


def _repeated(names) -> list:
    return sorted(n for n, c in collections.Counter(names).items() if c > 1)


def test_entry_module_has_no_shadowed_names():
    """A second ``def`` of a module-level name, or a repeated key in the
    ``queries()`` / ``oracle_sql()`` dict literals, silently replaces the
    first: the dead copy keeps being read, reviewed and maintained while
    no query runs it."""
    tree = ast.parse(ENTRY.read_text(encoding="utf-8"))
    defs = [
        n.name
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert _repeated(defs) == [], "module-level names defined twice"
    registries = {
        n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)
        and n.name in ("queries", "oracle_sql")
    }
    assert set(registries) == {"queries", "oracle_sql"}
    for name, fn in registries.items():
        (registry,) = [
            n.value
            for n in ast.walk(fn)
            if isinstance(n, ast.Return) and isinstance(n.value, ast.Dict)
        ]
        keys = [k.value for k in registry.keys if isinstance(k, ast.Constant)]
        assert _repeated(keys) == [], f"{name}() repeats keys"


def test_perfbench_trace_targets_resolve():
    """Every ``perfbench/trace.py`` ``TARGETS`` entry (module + attribute
    path) names an existing callable, resolved the way ``install()`` looks
    it up but without patching anything: renaming or deleting a traced
    engine function otherwise surfaces only in a ``--trace 1`` run."""
    path = ENTRY.parent / "perfbench" / "trace.py"
    spec = importlib.util.spec_from_file_location("_perfbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.TARGETS
    missing = []
    for mod_name, attr_path, *_ in trace.TARGETS:
        owner = importlib.import_module(mod_name)
        *outer, attr = attr_path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        found = (
            owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        )
        if not callable(found):
            missing.append(f"{mod_name}:{attr_path}")
    assert missing == [], missing
