"""Driver-process set-up: ``warm_lazy_imports`` caches an import Ray's
read path probes lazily, before concurrent driver threads start."""

from __future__ import annotations


def warm_lazy_imports() -> None:
    """Pre-resolve imports Ray's read path probes lazily, so concurrent
    driver threads can't race a repeatedly-failing import.

    Ray probes ``from fsspec.implementations.http import HTTPFileSystem``
    on every dataset creation and catches only ModuleNotFoundError; when
    aiohttp is absent the failed import is never cached (failed imports
    are removed from sys.modules), and a second thread can observe the
    half-initialized module — a plain ImportError Ray does not catch.
    Installing a minimal stub caches the outcome once; the stub class is
    only ever an isinstance target (False for real filesystems)."""
    try:  # pragma: no cover - depends on installed extras
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
    except ModuleNotFoundError:
        import sys
        import types

        mod = types.ModuleType("fsspec.implementations.http")

        class _StubHTTPFileSystem:  # never constructed; type-check target only
            pass

        mod.HTTPFileSystem = _StubHTTPFileSystem
        sys.modules.setdefault("fsspec.implementations.http", mod)
    except Exception:
        pass
