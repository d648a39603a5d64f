"""Same driver-style oracle gate at sf0.01 — the scale the driver actually
uses for CORRECTNESS_r{N}.json."""

from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from test_queries_oracle import _normalize, _to_df

SF = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def duck01():
    import duckdb

    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings"
    ).split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con


@pytest.fixture(scope="module")
def entrymod01(ray_entry_module):
    return ray_entry_module


def _names():
    import importlib.util

    entry = Path(__file__).resolve().parents[1] / "__ray_entry__.py"
    spec = importlib.util.spec_from_file_location("_re_probe2", entry)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return sorted(mod.oracle_sql().keys())


@pytest.mark.parametrize("name", _names())
def test_query_matches_oracle_sf001(name, duck01, entrymod01):
    got = _normalize(_to_df(entrymod01.queries()[name](SF)))
    want = _normalize(duck01.sql(entrymod01.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want), (len(got), len(want))
    for c in got.columns:
        a, w = got[c], want[c]
        if pd.api.types.is_float_dtype(w):
            assert np.allclose(
                a.to_numpy(), w.to_numpy(), rtol=0, atol=0, equal_nan=True
            ), (name, c)
        else:
            assert a.equals(w), (name, c)
