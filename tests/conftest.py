import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract: tests own
    their Ray session; library code never calls ray.init)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def force_tree(monkeypatch):
    """→ ``force(*modules, driver_rows=0)``: sets the tree-combine driver
    budget (``guard.DRIVER_ROWS``) and spies on each module's
    ``tree_combine``; returns the list that gets the level count of every
    call."""
    from zonal_stats_toolkit_ray.stages import guard

    def force(*modules, driver_rows=0):
        levels: list[int] = []
        monkeypatch.setattr(guard, "DRIVER_ROWS", driver_rows)
        for mod in modules:

            def spy(ds, kernel, _combine=mod.tree_combine):
                frame, n = _combine(ds, kernel)
                levels.append(n)
                return frame, n

            monkeypatch.setattr(mod, "tree_combine", spy)
        return levels

    return force


@pytest.fixture(scope="session")
def ray_entry_module(ray_session):
    """__ray_entry__ loaded ONCE under its canonical module name (Ray
    workers must be able to resolve functions pickled from it)."""
    import importlib.util
    import sys

    if "__ray_entry__" in sys.modules:
        return sys.modules["__ray_entry__"]
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["__ray_entry__"] = mod
    spec.loader.exec_module(mod)
    return mod
