"""Property-based randomized tests (SURVEY §5.2 #3, FIXTURES §7 invariants):
seed-pinned hypothesis strategies over random convex polygons, grids, and
coordinates."""

import numpy as np
from hypothesis import given, settings, strategies as st

from zonal_stats_toolkit_ray.geom import cellid
from zonal_stats_toolkit_ray.geom.pip import points_in_ring
from zonal_stats_toolkit_ray.geom.strtree import STRTree
from zonal_stats_toolkit_ray.stages.zonal import grouped_partials, nodata_mask

finite_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
finite_lng = st.floats(min_value=-180.0, max_value=179.999999, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(lat=finite_lat, lng=finite_lng, res=st.integers(0, 29))
def test_cell_roundtrip_stable(lat, lng, res):
    c = cellid.latlng_to_cell(lat, lng, res)
    clat, clng = cellid.cell_to_latlng(c)
    assert cellid.latlng_to_cell(clat, clng, res) == c
    x0, y0, x1, y1 = cellid.cell_to_bbox(c)
    assert x0 <= clng <= x1 and y0 <= clat <= y1
    if res > 0:
        p = cellid.cell_to_parent(c, res - 1)
        assert int(cellid.get_resolution(p)) == res - 1
        kids = cellid.cell_to_children(p)
        assert int(c) in {int(k) for k in np.ravel(kids)}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), nv=st.integers(3, 40))
def test_convex_pip_matches_halfplane(seed, nv):
    """For a convex polygon, even-odd PIP must agree with the all-half-plane
    test (an independent characterization of convex containment)."""
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
    if np.unique(ang).size < 3:
        return
    rad = rng.uniform(1.0, 5.0)
    rx, ry = rad * np.cos(ang), rad * np.sin(ang)
    px = rng.uniform(-6, 6, 300)
    py = rng.uniform(-6, 6, 300)
    got = points_in_ring(px, py, rx, ry)
    # half-plane test (counter-clockwise ring by construction)
    inside = np.ones(px.shape, dtype=bool)
    for i in range(nv):
        x1, y1 = rx[i], ry[i]
        x2, y2 = rx[(i + 1) % nv], ry[(i + 1) % nv]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        inside &= cross > 0
    strict_out = np.ones(px.shape, dtype=bool)
    for i in range(nv):
        x1, y1 = rx[i], ry[i]
        x2, y2 = rx[(i + 1) % nv], ry[(i + 1) % nv]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        strict_out &= cross >= 0
    # points strictly inside must be in; points strictly outside must be out
    assert got[inside].all()
    assert not got[~strict_out].any()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 200))
def test_strtree_point_candidates_complete(seed, n):
    rng = np.random.default_rng(seed)
    cx, cy = rng.uniform(-100, 100, n), rng.uniform(-50, 50, n)
    w, h = rng.uniform(0.1, 8, n), rng.uniform(0.1, 8, n)
    tree = STRTree(cx - w, cy - h, cx + w, cy + h, leaf_size=7)
    px, py = rng.uniform(-110, 110, 100), rng.uniform(-60, 60, 100)
    pt, it = tree.query_points(px, py)
    got = set(zip(pt.tolist(), it.tolist()))
    for j in range(n):
        m = (px >= cx[j] - w[j]) & (px <= cx[j] + w[j]) & (py >= cy[j] - h[j]) & (py <= cy[j] + h[j])
        for i in np.nonzero(m)[0]:
            assert (int(i), j) in got


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 500),
    k=st.integers(1, 6),
    nodata=st.one_of(st.none(), st.just(-999.0)),
)
def test_partials_invariants(seed, n, k, nodata):
    """count == Σ assigned; valid == count − nodata; sum/min/max consistent
    (FIXTURES §7 invariant 3); partition-count invariance of the merge."""
    rng = np.random.default_rng(seed)
    keys = np.array([f"v:g{i}" for i in rng.integers(0, k, n)], dtype=object)
    vals = rng.normal(0, 100, n)
    if nodata is not None:
        vals[rng.random(n) < 0.2] = nodata
    t = grouped_partials(keys, vals, nodata)
    d = t.to_pydict()
    assert sum(d["count"]) == n
    nd = nodata_mask(vals, nodata)
    for i, key in enumerate(d["group_key"]):
        m = keys == key
        assert d["count"][i] == int(m.sum())
        assert d["nodata_count"][i] == int((m & nd).sum())
        valid = vals[m & ~nd]
        if valid.size:
            assert np.isclose(d["sum"][i], valid.sum())
            assert np.isclose(d["min"][i], valid.min())
            assert np.isclose(d["max"][i], valid.max())
            assert d["min"][i] <= d["sum"][i] / valid.size <= d["max"][i] + 1e-9
        else:
            assert np.isnan(d["min"][i]) and np.isnan(d["max"][i])
            assert d["sum"][i] == 0.0
    # partition invariance: merging partials of two halves == one partial
    import pandas as pd

    from zonal_stats_toolkit_ray.stages.zonal import _merge_partials

    h1 = grouped_partials(keys[: n // 2], vals[: n // 2], nodata) if n // 2 else None
    h2 = grouped_partials(keys[n // 2 :], vals[n // 2 :], nodata)
    parts = [p.to_pandas() for p in (h1, h2) if p is not None and len(p)]
    if parts:
        both = pd.concat(parts, ignore_index=True)
        merged = _merge_partials(both).sort_values("group_key")
        one = t.to_pandas().sort_values("group_key").reset_index(drop=True)
        merged = merged.reset_index(drop=True)
        assert np.array_equal(merged["count"].to_numpy(), one["count"].to_numpy())
        assert np.allclose(
            merged["sum"].to_numpy(), one["sum"].to_numpy(), equal_nan=True
        )
        assert np.allclose(
            merged["min"].to_numpy(dtype=float),
            one["min"].to_numpy(dtype=float),
            equal_nan=True,
        )


# ---- round-2 kernels ------------------------------------------------------

from zonal_stats_toolkit_ray.geom.crs import (  # noqa: E402
    CRS,
    LONLAT,
    WEBMERC,
    transform_points,
)
from zonal_stats_toolkit_ray.stages.dedup import word_ngram_hashes  # noqa: E402
from zonal_stats_toolkit_ray.stages.split import split_hash32  # noqa: E402

import pyarrow as pa  # noqa: E402


@settings(max_examples=50, deadline=None)
@given(
    lon=st.floats(min_value=-179.9, max_value=179.9, allow_nan=False),
    lat=st.floats(min_value=-84.9, max_value=84.9, allow_nan=False),
    a=st.floats(min_value=0.5, max_value=3.0),
    e=st.floats(min_value=0.5, max_value=3.0),
    c=st.floats(min_value=-100.0, max_value=100.0),
    f=st.floats(min_value=-100.0, max_value=100.0),
)
def test_crs_roundtrip_property(lon, lat, a, e, c, f):
    """src→dst→src recovers the point for every CRS pair (webmerc within
    its latitude domain; affine with nonsingular diagonal)."""
    aff = CRS(kind="affine", affine=(a, 0.1, c, -0.2, e, f))
    pt = (np.array([lon]), np.array([lat]))
    for dst in (WEBMERC, aff, CRS(axis_order="yx")):
        x, y = transform_points(LONLAT, dst, *pt)
        lon2, lat2 = transform_points(dst, LONLAT, x, y)
        assert np.isclose(lon2[0], lon, atol=1e-8)
        assert np.isclose(lat2[0], lat, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    docs=st.lists(
        st.lists(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
                min_size=1,
                max_size=6,
            ),
            min_size=0,
            max_size=12,
        ),
        min_size=1,
        max_size=8,
    ),
    n=st.integers(2, 4),
)
def test_word_ngram_counts_property(docs, n):
    """Per-doc n-gram count == max(tokens-n+1, 1 if any tokens else 0); and
    identical docs yield identical hash multisets (the dedup invariant)."""
    texts = [" ".join(ws) for ws in docs]
    arr = pa.array(texts + texts, pa.string())  # duplicate every doc
    h, d = word_ngram_hashes(arr, n)
    m = len(texts)
    for i, ws in enumerate(docs):
        k = len([w for w in ws if w])
        want = (k - n + 1) if k >= n else (1 if k > 0 else 0)
        mine = np.sort(h[d == i])
        twin = np.sort(h[d == i + m])
        assert mine.size == want
        assert np.array_equal(mine, twin)


@settings(max_examples=50, deadline=None)
@given(ids=st.lists(st.integers(0, 2**40), min_size=1, max_size=50))
def test_split_hash_matches_sql_arithmetic(ids):
    """split_hash32 must equal the oracle's (id * 2654435761) % 2^32 for
    any id — the contract the SQL oracles rely on."""
    arr = np.asarray(ids, dtype=np.int64)
    got = split_hash32(arr)
    want = np.array([(i * 2654435761) % (1 << 32) for i in ids], dtype=np.uint64)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# round-3 kernels
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 400), nsig=st.integers(1, 20))
def test_hot_bucket_pairs_properties(seed, n, nsig):
    """Hot-bucket sub-split invariants: (a) emitted pairs are a SUBSET of
    the uncapped all-pairs graph; (b) identical-signature members connect
    to their group min (star); (c) permutation of input rows doesn't change
    the pair set; (d) ordering a < b holds."""
    import pandas as pd

    from zonal_stats_toolkit_ray.stages import dedup as D

    rng = np.random.default_rng(seed)
    ids = rng.choice(10_000, size=n, replace=False).astype(np.int64)
    sig = rng.integers(0, nsig, n).astype(np.uint64)
    df = pd.DataFrame(
        {
            "band": np.zeros(n, np.int32),
            "band_hash": np.full(n, 5, np.uint64),
            "sig_hash": sig,
            "doc_id": ids,
        }
    )
    cap = 16  # force the hot path for most draws
    pairs = D._pairs_from_bands_df(df, "doc_id", bucket_cap=cap)
    assert (pairs["a"] < pairs["b"]).all()
    got = set(zip(pairs["a"], pairs["b"]))
    allp = {(int(min(a, b)), int(max(a, b)))
            for i, a in enumerate(ids) for b in ids[i + 1:]}
    assert got <= allp
    if n > cap:
        # star property per signature group
        for s in np.unique(sig):
            grp = np.sort(ids[sig == s])
            mn = int(grp[0])
            for other in grp[1:]:
                assert (mn, int(other)) in got
    else:
        assert got == allp  # small bucket: exact all-pairs
    # permutation invariance
    perm = rng.permutation(n)
    pairs2 = D._pairs_from_bands_df(df.iloc[perm].reset_index(drop=True),
                                    "doc_id", bucket_cap=cap)
    assert got == set(zip(pairs2["a"], pairs2["b"]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 500), k=st.integers(1, 8))
def test_topk_batch_matches_pandas(seed, n, k):
    import pandas as pd
    import pyarrow as pa

    from zonal_stats_toolkit_ray.stages.rank import topk_per_group_batch

    rng = np.random.default_rng(seed)
    df = pd.DataFrame(
        {
            "k": rng.choice(list("abc"), n) if n else pd.Series(dtype=str),
            "id": rng.choice(100_000, size=n, replace=False).astype(np.int64)
            if n
            else pd.Series(dtype=np.int64),
            "v": rng.integers(0, 5, n).astype(np.float64)
            if n
            else pd.Series(dtype=np.float64),  # small int values force ties
        }
    )
    out = topk_per_group_batch(
        pa.Table.from_pandas(df, preserve_index=False),
        key_col="k", value_col="v", id_col="id", k=k,
    ).to_pandas()
    for key, g in df.groupby("k"):
        want = g.sort_values(["v", "id"], ascending=[False, True]).head(k)
        got = out[out["k"] == key].sort_values(["v", "id"], ascending=[False, True])
        assert np.array_equal(got["id"].to_numpy(), want["id"].to_numpy()), key


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30_000))
def test_hll_error_bound_property(seed, n):
    from zonal_stats_toolkit_ray.stages.sketch import hll_estimate, hll_registers

    rng = np.random.default_rng(seed)
    vals = rng.integers(-(2**62), 2**62, n)
    exact = len(np.unique(vals))
    est = hll_estimate(hll_registers(vals))
    assert abs(est - exact) / exact < 0.08  # 5σ of the m=4096 bound
