"""Skew-handling paths: salted exact percentiles == unsalted; hot-cell
resolution splitting == plain assignment."""

import numpy as np
import pandas as pd
import pyarrow as pa

from zonal_stats_toolkit_ray.geom import cellid
from zonal_stats_toolkit_ray.sources.zones import ZoneSet, synth_zones
from zonal_stats_toolkit_ray.stages import zonal as Z


def test_salted_percentiles_match_unsalted(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    n = 50_000
    keys = np.array(["v:g%d" % (i % 3) for i in range(n)], dtype=object)
    vals = rng.normal(100, 25, n).astype(np.float32)
    t = pa.table(
        {"group_key": pa.array(keys.tolist(), pa.string()), "value": pa.array(vals)}
    )
    ds = rd.from_arrow(t).repartition(8)
    plist = [5.0, 50.0, 95.0]
    plain = Z.group_percentiles_ds(ds, plist)  # within budget: one unsalted task
    salted = Z.salted_group_percentiles(ds, plist)
    assert set(plain) == set(salted)
    for k in plain:
        assert np.allclose(plain[k], salted[k], rtol=0, atol=0), (
            k,
            plain[k],
            salted[k],
        )
    # and both equal the direct numpy percentile
    df = pd.DataFrame({"k": keys, "v": vals})
    for k, g in df.groupby("k"):
        want = np.percentile(g["v"].to_numpy(dtype=np.float32), plist)
        assert np.allclose(salted[k], want)


def test_hot_cell_resolution_splitting_equivalence():
    zs = ZoneSet(synth_zones(seed=42, n_zones=48, n_groups=12))
    rng = np.random.default_rng(1)
    centers = np.stack([rng.uniform(-150, 150, 20), rng.uniform(-70, 70, 20)], axis=1)
    px = np.clip(
        np.concatenate([c[0] + rng.normal(0, 2, 4000) for c in centers]),
        -179.9, 179.9,
    )
    py = np.clip(
        np.concatenate([c[1] + rng.normal(0, 1, 4000) for c in centers]),
        -89.9, 89.9,
    )
    fine = cellid.latlng_to_cell(py, px, 12)
    coarse = cellid.cell_to_parent(fine, 6)
    want = zs.assign_points(px, py)
    got = zs.assign_points_cached(
        px, py, coarse, fine_cells=fine, refine_threshold=256
    )
    assert np.array_equal(got, want)
    # cache warm second call identical
    got2 = zs.assign_points_cached(px, py, coarse, fine_cells=fine)
    assert np.array_equal(got2, want)
