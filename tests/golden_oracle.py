"""Test-only golden oracle: a dense, single-process NumPy reimplementation of
the reference's ``fast_zonal_statistics`` semantics
(``/root/reference/runner.py:264-926``, SURVEY.md §3.3 steps 1-15, quirks
Q1-Q9).  Deliberately structured like the reference (burn → block stats →
fallback → rollup → percentiles → finalize) and deliberately NOT sharing the
engine's aggregation code, so engine-vs-oracle comparisons are meaningful.

One documented deviation: sums accumulate in float64 (the reference sums
float32 blocks with np.sum then accumulates in Python floats); tests compare
floats with np.isclose.
"""

from __future__ import annotations

import numpy as np

from zonal_stats_toolkit_ray.geom.pip import points_in_ring
from zonal_stats_toolkit_ray.geom.window import GridSpec, envelope_to_window


def _percentile_keys(plist):
    return [f"p{int(p) if float(p).is_integer() else p}" for p in plist]


def oracle_zonal_statistics(
    arr: np.ndarray,
    grid: GridSpec,
    zones_table,
    percentile_list=None,
    ignore_nodata: bool = True,
) -> dict:
    """arr: dense (height, width) float32 raster.  zones_table: the engine's
    Arrow zones table (fid/part/group/ring columns).  Returns
    {group_value: stats-dict} with the reference's exact fields."""
    plist = sorted(set(float(p) for p in (percentile_list or [])))
    pkeys = _percentile_keys(plist)
    nodata = grid.nodata

    fid = zones_table["zone_fid"].to_numpy()
    groups = zones_table["group_value"].to_pylist()
    ring_x = [np.asarray(r, float) for r in zones_table["ring_x"].to_pylist()]
    ring_y = [np.asarray(r, float) for r in zones_table["ring_y"].to_pylist()]
    fid_to_group = dict(zip(fid.tolist(), groups))
    all_fids = sorted(fid_to_group)
    unique_groups = set(fid_to_group.values())

    # --- extent-intersection fast path (runner.py:409-450) ---
    minx = min(float(r.min()) for r in ring_x)
    maxx = max(float(r.max()) for r in ring_x)
    miny = min(float(r.min()) for r in ring_y)
    maxy = max(float(r.max()) for r in ring_y)
    r_minx, r_miny, r_maxx, r_maxy = grid.bbox
    if maxx < r_minx or minx > r_maxx or maxy < r_miny or miny > r_maxy:
        empty = {
            "min": None,
            "max": None,
            "count": 0,
            "nodata_count": 0,
            "valid_count": 0,
            "sum": 0.0,
            "stdev": None,
            **{k: None for k in pkeys},
        }
        return {g: dict(empty) for g in unique_groups}

    # --- FID burn: pixel-center containment, later parts overwrite
    #     (ALL_TOUCHED=FALSE attribute burn, runner.py:463-469, 599-606) ---
    gx, gy = grid.pixel_centers(0, 0, grid.width, grid.height)
    fid_raster = np.full(arr.shape, -1, dtype=np.int64)
    for j in range(len(fid)):
        rx, ry = ring_x[j], ring_y[j]
        c0 = max(int((rx.min() - grid.x0) / grid.dx) - 1, 0)
        c1 = min(int(np.ceil((rx.max() - grid.x0) / grid.dx)) + 1, grid.width)
        if grid.dy < 0:
            r0 = max(int((ry.max() - grid.y0) / grid.dy) - 1, 0)
            r1 = min(int(np.ceil((ry.min() - grid.y0) / grid.dy)) + 1, grid.height)
        else:
            r0 = max(int((ry.min() - grid.y0) / grid.dy) - 1, 0)
            r1 = min(int(np.ceil((ry.max() - grid.y0) / grid.dy)) + 1, grid.height)
        if c0 >= c1 or r0 >= r1:
            continue
        sub_x = gx[r0:r1, c0:c1].ravel()
        sub_y = gy[r0:r1, c0:c1].ravel()
        inside = points_in_ring(sub_x, sub_y, rx, ry).reshape(r1 - r0, c1 - c0)
        fid_raster[r0:r1, c0:c1][inside] = fid[j]

    # --- per-FID aggregate (runner.py:620-692) ---
    aggregate_stats: dict[int, dict] = {}
    fid_value_bags: dict[int, list] | None = {} if plist else None
    valid_fid_mask = fid_raster != -1
    vals = arr[valid_fid_mask]
    fids_of_vals = fid_raster[valid_fid_mask]
    for f in np.unique(fids_of_vals):
        block = vals[fids_of_vals == f]
        nd = (
            np.isclose(block, nodata)
            if nodata is not None
            else np.zeros(block.shape, bool)
        )
        st = {
            "min": None,
            "max": None,
            "count": int(block.size),
            "nodata_count": int(np.count_nonzero(nd)),
            "sum": 0.0,
            "sumsq": 0.0,
        }
        vb = block[~nd] if ignore_nodata else block
        if vb.size:
            st["min"] = float(vb.min())
            st["max"] = float(vb.max())
            st["sum"] = float(vb.sum(dtype=np.float64))
            st["sumsq"] = float(np.sum(vb.astype(np.float64) ** 2))
            if fid_value_bags is not None:
                fid_value_bags.setdefault(int(f), []).append(
                    vb.astype(np.float32, copy=False)
                )
        aggregate_stats[int(f)] = st

    # --- bbox-window fallback for unset FIDs (runner.py:697-811, quirk Q4) ---
    unset = [f for f in all_fids if f not in aggregate_stats]
    for f in unset:
        for j in range(len(fid)):
            if fid[j] != f:
                continue
            env = (
                float(ring_x[j].min()),
                float(ring_x[j].max()),
                float(ring_y[j].min()),
                float(ring_y[j].max()),
            )
            w = envelope_to_window(env, grid)
            if w is None:
                continue
            xoff, yoff, wx, wy = w
            block = arr[yoff : yoff + wy, xoff : xoff + wx]
            nd = (
                np.isclose(block, nodata)
                if nodata is not None
                else np.zeros(block.shape, bool)
            )
            # NOTE: with ignore_nodata=False the reference would append the
            # 2-D window block to the 1-D value bags and crash in
            # np.concatenate (latent, unreachable: its job runner always
            # passes True, runner.py:954-963).  We take the evident intent:
            # the flattened pixel multiset.
            vb = block[~nd] if ignore_nodata else block.ravel()
            st = {
                "count": int(block.size),
                "nodata_count": int(np.count_nonzero(nd)),
            }
            if vb.size == 0:
                st.update({"min": 0.0, "max": 0.0, "sum": 0.0, "sumsq": 0.0})
            else:
                st.update(
                    {
                        "min": float(vb.min()),
                        "max": float(vb.max()),
                        "sum": float(vb.sum(dtype=np.float64)),
                        "sumsq": float(np.sum(vb.astype(np.float64) ** 2)),
                    }
                )
            aggregate_stats[f] = st  # per-part overwrite: last part wins
            if fid_value_bags is not None and vb.size:
                fid_value_bags.setdefault(f, []).append(
                    vb.astype(np.float32, copy=False)
                )
    for f in all_fids:
        aggregate_stats.setdefault(
            f,
            {
                "min": None,
                "max": None,
                "count": 0,
                "nodata_count": 0,
                "sum": 0.0,
                "sumsq": 0.0,
            },
        )

    # --- FID → group rollup (runner.py:848-889) ---
    grouped: dict = {}
    group_chunks: dict = {}
    for f in all_fids:
        gv = fid_to_group[f]
        s = aggregate_stats[f]
        g = grouped.setdefault(
            gv,
            {
                "min": None,
                "max": None,
                "count": 0,
                "nodata_count": 0,
                "valid_count": 0,
                "sum": 0.0,
                "sumsq": 0.0,
                "stdev": None,
                **{k: None for k in pkeys},
            },
        )
        g["count"] += s["count"]
        g["nodata_count"] += s["nodata_count"]
        g["sum"] += s["sum"]
        g["sumsq"] += s["sumsq"]
        fv = s["count"] - s["nodata_count"]
        if fv > 0:
            if g["min"] is None:
                g["min"], g["max"] = s["min"], s["max"]
            else:
                g["min"] = min(g["min"], s["min"])
                g["max"] = max(g["max"], s["max"])
        if fid_value_bags is not None:
            ch = fid_value_bags.get(f)
            if ch:
                group_chunks.setdefault(gv, []).extend(ch)

    if plist:
        for gv, chunks in group_chunks.items():
            v = np.concatenate(chunks)
            for k, pv in zip(pkeys, np.percentile(v, plist).tolist()):
                grouped[gv][k] = pv

    for gv, g in grouped.items():
        valid_count = g["count"] - g["nodata_count"]
        g["valid_count"] = valid_count
        if valid_count > 0:
            mean = g["sum"] / valid_count
            var = g["sumsq"] / valid_count - mean * mean
            if var < 0:
                var = 0.0
            g["stdev"] = float(np.sqrt(var))
        else:
            g["stdev"] = None
        del g["sumsq"]
    return grouped
