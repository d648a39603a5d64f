"""End-to-end zonal statistics pipelines (points path and raster path).

Points path (the graft's primary corpus flow, SURVEY §3.4):
    pages → geocode → cell-encode → spatial join (stateless tasks with a
    per-worker index cache) → per-batch partials → group merge (the shuffle
    moves only tiny partials) → finalize (+ exact percentiles via a
    raw-value path when requested).

Raster path (the reference's native flow, ``runner.py:264-926``): tiles →
per-tile pixel-center assignment (a scanline burn of each zone part's
edge-row crossings, ``ZoneSet.assign_grid``; no per-pixel index lookup or
point-in-polygon loop) + per-FID partials → FID merge → quirk-Q4
bbox-window fallback for zero-pixel FIDs → FID→group rollup → finalize.
Replicates quirks Q1-Q9 (SURVEY §2.9) for row-identical output.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.scalars import GROUP_KEY_NULL, group_label, percentile_keys
from ..geom.window import GridSpec, envelope_to_window
from ..sources.zones import ZoneSet
from ..stages import zonal as Z
from ..stages.geocode import geocode_batch
from ..stages.cells import cell_encode_batch


def _all_group_keys(zs: ZoneSet) -> list[str]:
    from ..functions.scalars import _KEY_PREFIX

    return [
        GROUP_KEY_NULL if g is None else _KEY_PREFIX + str(g)
        for g in zs.unique_groups
    ]


def join_points(
    ds,
    zones,
    *,
    cell_res: int = 12,
    batch_size: int | None = None,
    shortcut_res: int | None = 7,
    geocode: bool = True,
    zones_crs=None,
    points_crs=None,
):
    """pages/points Dataset → joined Dataset with zone_fid + group_value.

    ``zones`` may be a ZoneSet / Arrow table / ray.ObjectRef (broadcast once
    with ``ray.put`` for multi-stage reuse).

    ``zones_crs``/``points_crs`` (geom.crs.CRS, both optional) reproduce
    the reference's M1 decision (``runner.py:307-341``): when both are
    given and differ after axis normalization — or the zones CRS is
    missing (None) while ``points_crs`` is set — the zones table is
    reprojected into the points frame before the index builds.  Requires
    ``zones`` as a table/ZoneSet (not a pre-broadcast ObjectRef).

    The join runs as stateless tasks on Ray's persistent shared workers
    with a per-process ZoneSet cache: the index builds once per worker
    process, and no actor processes are spawned.

    ``batch_size=None`` (default) keeps block-sized batches: an explicit
    batch size larger than the *input* rows-per-block would coalesce many
    blocks into one task, collapsing the stage to a single worker
    (observed: a 64-block input ran as ONE 11-second task with
    batch_size=32768)."""
    from ..stages.join import spatial_join_batch

    if points_crs is not None:
        from ..geom.crs import prepare_zones
        from ..sources.zones import ZoneSet as _ZS

        tbl = zones.table if isinstance(zones, _ZS) else zones
        if not isinstance(tbl, pa.Table):
            raise TypeError(
                "zones_crs/points_crs reprojection needs zones as a table or "
                "ZoneSet, not a pre-broadcast ObjectRef"
            )
        zones = prepare_zones(tbl, zones_crs, points_crs)
    if geocode:
        ds = ds.map_batches(geocode_batch, batch_format="pyarrow")
    ds = ds.map_batches(
        cell_encode_batch, batch_format="pyarrow", fn_kwargs={"res": cell_res}
    )
    return ds.map_batches(
        spatial_join_batch,
        fn_kwargs={"zones": zones, "shortcut_res": shortcut_res},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def zonal_stats_points(
    joined_ds,
    value_col: str,
    zs: ZoneSet,
    *,
    nodata: float | None = None,
    percentiles: list[float] = (),
    rows_sink: str | None = None,
) -> pd.DataFrame:
    """Joined points Dataset → final grouped stats frame (small), with the
    reference's stat fields / empty-group defaults / Q8 row order.

    When percentiles are requested there are two consumers (partials +
    raw-value shuffle); a lazy Dataset would re-execute the whole upstream
    join for each.  The joined rows are therefore first reduced to a slim
    (group_key, value, nodata) projection and THAT is materialized — a few
    bytes per row, never the wide page columns — so the join runs exactly
    once.

    ``rows_sink`` (round 4, VERDICT r3 #4): write the slim joined rows to
    this Parquet directory so an external oracle (DuckDB) can reproduce
    the REDUCE independently — splitting join verification (covered by the
    join-row fixtures) from aggregation verification.  Requires
    percentiles (the only path that materializes slim rows)."""
    if rows_sink is not None and not percentiles:
        raise ValueError("rows_sink requires percentiles")
    gp = None
    if percentiles:
        slim = joined_ds.map_batches(
            Z.rows_batch,
            batch_format="pyarrow",
            fn_kwargs={"value_col": value_col, "nodata": nodata},
        ).materialize()
        if rows_sink is not None:
            slim.write_parquet(rows_sink)
        if slim.count() <= 2_000_000:
            # small assigned-row set: one driver pass computes partials AND
            # percentiles (each extra Dataset execution costs ~0.5 s of
            # executor startup — pure fixed overhead at this size)
            merged, gp = Z.stats_from_rows_df(slim.to_pandas(), list(percentiles))
        else:
            merged = Z.reduce_partials(
                slim.map_batches(Z.partials_from_rows, batch_format="pyarrow")
            )
            gp = Z.group_percentiles_ds(
                slim.map_batches(Z.values_from_rows, batch_format="pyarrow"),
                list(percentiles),
            )
    else:
        merged = Z.reduce_partials(
            joined_ds.map_batches(
                Z.partial_stats_batch,
                batch_format="pyarrow",
                fn_kwargs={"value_col": value_col, "nodata": nodata},
            )
        )
    return Z.finalize_group_stats(
        merged,
        all_group_keys=_all_group_keys(zs),
        percentiles=list(percentiles),
        group_percentiles=gp,
    )


# ---------------------------------------------------------------------------
# raster path
# ---------------------------------------------------------------------------


def _list_col_buffers(col) -> tuple[np.ndarray, np.ndarray]:
    """list<float32> column → (flat float32 values, int offsets) zero-copy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks() if col.num_chunks != 1 else col.chunk(0)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float32, copy=False)
    offs = np.asarray(col.offsets) - col.offsets[0].as_py()
    return flat, offs


# NOTE: FID shuffle keys stay int64 end-to-end (PARTIAL_SCHEMA_INT /
# ROWS_SCHEMA_INT): FIDs are never null, so they never need the string
# encoding that nullable group_values use — a per-pixel Python-object
# string key was pure overhead (round-2 fix, VERDICT item 5).


def _tile_fid_pixels(batch: pa.Table, zones, grid: GridSpec):
    """Yield ``(fids, values)`` of the zone-assigned pixels of each tile in
    the batch.  Pixel centers burn through ``ZoneSet.assign_grid`` — the
    scanline form of the reference's FID rasterize — so a tile costs its
    edge-row crossings plus its pixels, not pixels × edges.  The zones
    ObjectRef resolves through the per-worker-process cache (see
    stages/join.py)."""
    from ..sources.raster import tile_window
    from ..stages.join import _cached_zoneset

    zs = _cached_zoneset(zones)
    txs = batch["tile_x"].to_numpy()
    tys = batch["tile_y"].to_numpy()
    flat, offs = _list_col_buffers(batch["values"])
    for i in range(len(batch)):
        col0, row0, ncols, nrows = tile_window(grid, int(txs[i]), int(tys[i]))
        gx, gy = grid.pixel_centers(col0, row0, ncols, nrows)
        fids = zs.assign_grid(gx[0], gy[:, 0]).ravel()
        m = fids != -1
        if m.any():
            yield fids[m], flat[offs[i] : offs[i + 1]][m]


def tile_fid_partials_batch(
    batch: pa.Table, zones, grid: GridSpec, ignore_nodata: bool = True
) -> pa.Table:
    """Stateless-task stage: raster tiles → per-(tile, FID) partial
    aggregates.  Partials are keyed by FID (not group) because the Q4
    fallback and the rollup's min/max-merge condition operate per FID
    (``runner.py:848-889``)."""
    out = [
        Z.grouped_partials(
            fids, v.astype(np.float64), grid.nodata, ignore_nodata=ignore_nodata
        )
        for fids, v in _tile_fid_pixels(batch, zones, grid)
    ]
    if not out:
        return Z.PARTIAL_SCHEMA_INT.empty_table()
    return pa.concat_tables(out)


def tile_fid_pixels_batch(batch: pa.Table, zones, grid: GridSpec) -> pa.Table:
    """Stateless-task stage: raster tiles → slim (fid_key, value, nodata)
    pixel rows (one assignment pass feeding both partials and
    percentiles)."""
    keys_out, vals_out, nd_out = [], [], []
    for fids, v in _tile_fid_pixels(batch, zones, grid):
        keys_out.append(fids)
        vals_out.append(v.astype(np.float64))
        nd_out.append(Z.nodata_mask(v, grid.nodata))
    if not keys_out:
        return Z.ROWS_SCHEMA_INT.empty_table()
    return pa.table(
        {
            "group_key": pa.array(np.concatenate(keys_out), pa.int64()),
            "value": pa.array(np.concatenate(vals_out), pa.float64()),
            "nodata": pa.array(np.concatenate(nd_out)),
        },
        schema=Z.ROWS_SCHEMA_INT,
    )


def _fetch_windows(tiles_ds, grid: GridSpec, windows: list[tuple[int, int, int, int]]):
    """Read only the tiles touched by the given pixel windows (small side)
    and return a dict (tile_x, tile_y) → dense 2-D float32 tile array."""
    from ..sources.raster import tile_window

    ts = grid.tile_size
    needed = set()
    for xoff, yoff, wx, wy in windows:
        for ty in range(yoff // ts, (yoff + wy - 1) // ts + 1):
            for tx in range(xoff // ts, (xoff + wx - 1) // ts + 1):
                needed.add((tx, ty))
    if not needed:
        return {}
    tx_arr = pa.array([t[0] for t in needed], pa.int32())
    ty_arr = pa.array([t[1] for t in needed], pa.int32())

    def pick(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.and_(pc.is_in(b["tile_x"], tx_arr), pc.is_in(b["tile_y"], ty_arr))
        return b.filter(m)

    rows = tiles_ds.map_batches(pick, batch_format="pyarrow").take_all()
    out = {}
    for r in rows:
        tx, ty = int(r["tile_x"]), int(r["tile_y"])
        _, _, ncols, nrows = tile_window(grid, tx, ty)
        out[(tx, ty)] = np.asarray(r["values"], dtype=np.float32).reshape(nrows, ncols)
    return out


def _read_window(
    tile_map, grid: GridSpec, xoff: int, yoff: int, wx: int, wy: int
) -> np.ndarray:
    ts = grid.tile_size
    out = np.empty((wy, wx), dtype=np.float32)
    for ty in range(yoff // ts, (yoff + wy - 1) // ts + 1):
        for tx in range(xoff // ts, (xoff + wx - 1) // ts + 1):
            tile = tile_map[(tx, ty)]
            r0 = max(yoff, ty * ts)
            r1 = min(yoff + wy, ty * ts + tile.shape[0])
            c0 = max(xoff, tx * ts)
            c1 = min(xoff + wx, tx * ts + tile.shape[1])
            out[r0 - yoff : r1 - yoff, c0 - xoff : c1 - xoff] = tile[
                r0 - ty * ts : r1 - ty * ts, c0 - tx * ts : c1 - tx * ts
            ]
    return out



def _window_partials_batch(
    batch: pa.Table, specs_ref, grid: GridSpec, ignore_nodata: bool = True
) -> pa.Table:
    """Stateless-task stage for the DISTRIBUTED Q4 fallback: for every
    (fallback window × tile) intersection in the batch, emit one partial
    stats row keyed by window id.  The reference runs this pass serially on
    one process (runner.py:697-811); windows tile-partition cleanly, so the
    window aggregates merge associatively."""
    from ..sources.raster import tile_window

    specs = specs_ref
    try:
        import ray

        if isinstance(specs, ray.ObjectRef):
            specs = ray.get(specs)
    except ImportError:
        pass
    wid, xoff, yoff, wx, wy = (np.asarray(a) for a in specs)
    txs = batch["tile_x"].to_numpy()
    tys = batch["tile_y"].to_numpy()
    flat, offs = _list_col_buffers(batch["values"])
    out = {k: [] for k in ("win_id", "count", "nodata_count", "sum", "sumsq", "min", "max")}
    for i in range(len(batch)):
        col0, row0, ncols, nrows = tile_window(grid, int(txs[i]), int(tys[i]))
        hit = np.flatnonzero(
            (xoff < col0 + ncols)
            & (xoff + wx > col0)
            & (yoff < row0 + nrows)
            & (yoff + wy > row0)
        )
        if hit.size == 0:
            continue
        tile = flat[offs[i] : offs[i + 1]].reshape(nrows, ncols)
        for h in hit.tolist():
            c0 = max(int(xoff[h]), col0)
            c1 = min(int(xoff[h] + wx[h]), col0 + ncols)
            r0 = max(int(yoff[h]), row0)
            r1 = min(int(yoff[h] + wy[h]), row0 + nrows)
            block = tile[r0 - row0 : r1 - row0, c0 - col0 : c1 - col0]
            nd = Z.nodata_mask(block, grid.nodata)
            valid = block[~nd] if ignore_nodata else block.ravel()
            out["win_id"].append(int(wid[h]))
            out["count"].append(block.size)
            out["nodata_count"].append(int(np.count_nonzero(nd)))
            if valid.size:
                out["sum"].append(float(valid.sum(dtype=np.float64)))
                out["sumsq"].append(float(np.sum(valid.astype(np.float64) ** 2)))
                out["min"].append(float(valid.min()))
                out["max"].append(float(valid.max()))
            else:
                out["sum"].append(0.0)
                out["sumsq"].append(0.0)
                out["min"].append(np.nan)
                out["max"].append(np.nan)
    return pa.table(
        {
            "win_id": pa.array(out["win_id"], pa.int64()),
            "count": pa.array(out["count"], pa.int64()),
            "nodata_count": pa.array(out["nodata_count"], pa.int64()),
            "sum": pa.array(out["sum"], pa.float64()),
            "sumsq": pa.array(out["sumsq"], pa.float64()),
            "min": pa.array(out["min"], pa.float64()),
            "max": pa.array(out["max"], pa.float64()),
        }
    )



def _window_values_batch(
    batch: pa.Table, specs_ref, grid: GridSpec, ignore_nodata: bool = True
) -> pa.Table:
    """Distributed fallback VALUES pass: (group_key, value float32) rows of
    the valid pixels of each fallback window × tile intersection, keyed by
    the first spec array (the window's owning fid) — feeds the percentile
    value bags when the fallback set is large (reference appends each
    part-window's valid pixels to the bag, runner.py:805-811; percentile
    over the multiset is order-independent, so distributed collection is
    exact)."""
    from ..sources.raster import tile_window

    specs = specs_ref
    try:
        import ray

        if isinstance(specs, ray.ObjectRef):
            specs = ray.get(specs)
    except ImportError:
        pass
    key, xoff, yoff, wx, wy = (np.asarray(a) for a in specs)
    txs = batch["tile_x"].to_numpy()
    tys = batch["tile_y"].to_numpy()
    flat, offs = _list_col_buffers(batch["values"])
    out_k, out_v = [], []
    for i in range(len(batch)):
        col0, row0, ncols, nrows = tile_window(grid, int(txs[i]), int(tys[i]))
        hit = np.flatnonzero(
            (xoff < col0 + ncols)
            & (xoff + wx > col0)
            & (yoff < row0 + nrows)
            & (yoff + wy > row0)
        )
        if hit.size == 0:
            continue
        tile = flat[offs[i] : offs[i + 1]].reshape(nrows, ncols)
        for h in hit.tolist():
            c0 = max(int(xoff[h]), col0)
            c1 = min(int(xoff[h] + wx[h]), col0 + ncols)
            r0 = max(int(yoff[h]), row0)
            r1 = min(int(yoff[h] + wy[h]), row0 + nrows)
            block = tile[r0 - row0 : r1 - row0, c0 - col0 : c1 - col0]
            valid = (
                block[~Z.nodata_mask(block, grid.nodata)]
                if ignore_nodata
                else block.ravel()
            )
            if valid.size:
                out_k.append(np.full(valid.size, key[h], dtype=np.int64))
                out_v.append(valid.astype(np.float32, copy=False).ravel())
    if not out_k:
        return Z.VALUES_SCHEMA_INT.empty_table()
    return pa.table(
        [pa.array(np.concatenate(out_k)), pa.array(np.concatenate(out_v))],
        schema=Z.VALUES_SCHEMA_INT,
    )


def _broadcast_specs(win_specs):
    """``(key, xoff, yoff, wx, wy)`` window tuples → one tuple of int64
    arrays for the window sweeps, ``ray.put`` once when a session is up."""
    import ray

    specs = tuple(np.array(win_specs, dtype=np.int64).T.copy())
    return ray.put(specs) if ray.is_initialized() else specs


def _window_stats_distributed(
    tiles_ds,
    grid: GridSpec,
    win_specs,
    *,
    ignore_nodata: bool = True,
    tree_threshold: int = 200_000,
) -> dict[int, dict]:
    """Distributed full-window stats for the Q4 fallback windows: one pass
    over the tiles → per-(window, tile) partial rows → associative merge.
    Returns {win_id: {count, nodata_count, sum, sumsq, min, max}} with the
    reference's empty-valid zeros.

    The merge reuses the ``reduce_partials`` reduction tree (round-3,
    VERDICT #4): the partial rows are keyed by ``group_key`` (= win_id, an
    int — same schema as the zonal partials) and above ``tree_threshold``
    rows a distributed pre-combine level shrinks the frame before the
    driver groupby, so 10^5 fallback windows × 10^5 tiles no longer
    funnel one row each through the driver."""
    parts = tiles_ds.map_batches(
        _window_partials_batch,
        fn_kwargs={
            "specs_ref": _broadcast_specs(win_specs),
            "grid": grid,
            "ignore_nodata": ignore_nodata,
        },
        batch_format="pyarrow",
    ).map_batches(
        # win_id → the partials schema key, renamed BY NAME (a positional
        # rename would silently relabel a stats column if the partial
        # table's column order ever changed)
        lambda t: t.rename_columns(
            ["group_key" if c == "win_id" else c for c in t.column_names]
        ),
        batch_format="pyarrow",
    )
    merged = Z.reduce_partials(parts, tree_threshold=tree_threshold)
    out: dict[int, dict] = {}
    for _, r in merged.iterrows():
        count = int(r["count"])
        ndc = int(r["nodata_count"])
        # zeros apply when the VALUE BAG is empty: with ignore_nodata=False
        # every pixel is in the bag (reference runner.py:778-793)
        valid = count - ndc if ignore_nodata else count
        st = {"count": count, "nodata_count": ndc}
        if valid <= 0:
            st.update({"min": 0.0, "max": 0.0, "sum": 0.0, "sumsq": 0.0})
        else:
            st.update(
                {
                    "min": float(r["min"]),
                    "max": float(r["max"]),
                    "sum": float(r["sum"]),
                    "sumsq": float(r["sumsq"]),
                }
            )
        out[int(r["group_key"])] = st
    return out


def _fid_group_ordinals(
    batch: pa.Table, fids: np.ndarray, ords: np.ndarray
) -> pa.Table:
    """(fid, value) rows → (ordinal of the fid's group, value) rows;
    ``fids`` is sorted and ``ords[i]`` is the group ordinal of ``fids[i]``."""
    pos = np.searchsorted(fids, batch["group_key"].to_numpy(zero_copy_only=False))
    return pa.table([pa.array(ords[pos]), batch["value"]], schema=Z.VALUES_SCHEMA_INT)


def _raster_group_percentiles(
    value_parts: list, zs: ZoneSet, plist: list[float], driver_threshold: int
) -> dict:
    """Exact percentiles per group value over the union of the (fid,
    value) Datasets in ``value_parts``.  Each fid maps to its group's
    ordinal in ``zs.unique_groups`` — an int64 key, so no per-pixel
    strings reach the shuffle — and ``group_percentiles_ds`` picks the
    driver reduce or the salted distributed one by ``driver_threshold``."""
    ordinal = {g: i for i, g in enumerate(zs.unique_groups)}
    ords = np.array([ordinal[zs.fid_to_group[f]] for f in zs.all_fids], np.int64)
    # map, then materialize: an empty map_batches output has no schema
    # (Ray never runs the UDF), so empty parts are dropped before the union
    parts = [
        p.map_batches(
            _fid_group_ordinals,
            fn_kwargs={"fids": zs._lut_fids, "ords": ords},
            batch_format="pyarrow",
        ).materialize()
        for p in value_parts
    ]
    parts = [p for p in parts if p.count() > 0]
    if not parts:
        return {}
    values = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    gp = Z.group_percentiles_ds(values, plist, driver_threshold=driver_threshold)
    return {zs.unique_groups[int(k)]: [float(v) for v in pv] for k, pv in gp.items()}


def simplified_zones(table: pa.Table, tolerance: float):
    """Quirk Q6: Douglas-Peucker-simplify the zones at ``tolerance`` →
    ``(ZoneSet, broadcast ref)``; the ref is None without a Ray session."""
    import ray

    from ..geom.simplify import simplify_zones_table

    zs = ZoneSet(simplify_zones_table(table, tolerance))
    return zs, ray.put(zs.table) if ray.is_initialized() else None


def zonal_stats_raster(
    tiles_ds,
    grid: GridSpec,
    zs: ZoneSet,
    *,
    percentiles: list[float] = (),
    zones_ref=None,
    simplify_tolerance: float | None = None,
    polygons_might_overlap: bool = False,
    ignore_nodata: bool = True,
    percentile_driver_threshold: int = 2_000_000,
    rows_sink: str | None = None,
) -> dict:
    """Full reference-semantics zonal statistics over a tiled raster.

    Returns {group_value: {min,max,count,nodata_count,valid_count,sum,
    stdev,p*}} exactly like ``fast_zonal_statistics`` (``runner.py:926``).

    ``rows_sink`` (round 4, VERDICT r3 #4): export the per-pixel
    (group_key=fid, value, nodata) rows — including the Q4 bbox-window
    fallback pixels for zero-pixel FIDs — to a Parquet directory so an
    external oracle reproduces the reduce independently.  Only supported
    in percentile mode (pixels materialize there) with single-part
    fallback zones on the ≤16-window driver path, where the Q4 overwrite
    semantics degenerate to plain aggregation; raises otherwise.

    ``simplify_tolerance``: reference quirk Q6 — DP-simplify rings before
    joining (the reference always uses 0.5 × pixel width; default off here
    because fixtures are simplification-stable).  ``polygons_might_overlap``
    is accepted for API parity with ``fast_zonal_statistics``; the engine's
    join resolves overlap per point with the same highest-FID-wins rule in
    both modes, so no disjoint-set partitioning is ever needed (SURVEY O3).

    Percentile value bags — assigned pixels and fallback-window pixels
    alike — reduce in one place (``_raster_group_percentiles``);
    ``percentile_driver_threshold`` is its driver-or-salted-shuffle cut.
    """
    if simplify_tolerance is not None and simplify_tolerance > 0:
        # the incoming broadcast handle refers to the UNsimplified zones;
        # re-broadcast the simplified table so tasks still read from plasma
        zs, zones_ref = simplified_zones(zs.table, simplify_tolerance)
    plist = sorted(set(float(p) for p in percentiles))
    pkeys = percentile_keys(plist)

    # --- empty-intersection fast path (runner.py:409-450) ---
    v_minx = float(np.min(zs.minx))
    v_maxx = float(np.max(zs.maxx))
    v_miny = float(np.min(zs.miny))
    v_maxy = float(np.max(zs.maxy))
    r_minx, r_miny, r_maxx, r_maxy = grid.bbox
    if v_maxx < r_minx or v_minx > r_maxx or v_maxy < r_miny or v_miny > r_maxy:
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
        return {g: dict(empty) for g in zs.unique_groups}

    zones_arg = zones_ref if zones_ref is not None else zs.table

    # --- per-tile FID partials → distributed merge.  With percentiles the
    # pixel assignment runs once into slim materialized pixel rows and both
    # consumers derive from them; without, partials aggregate inside the
    # task (single pass, nothing materialized). ---
    if rows_sink is not None and not plist:
        raise ValueError("rows_sink requires percentile mode (pixels rows)")
    # (fid, value float32) Datasets whose union is the percentile value bags
    value_parts = []
    if plist:
        pixels = tiles_ds.map_batches(
            tile_fid_pixels_batch,
            fn_kwargs={"zones": zones_arg, "grid": grid},
            batch_format="pyarrow",
        ).materialize()
        if rows_sink is not None:
            pixels.write_parquet(rows_sink)
        partials = pixels.map_batches(
            Z.partials_from_rows,
            batch_format="pyarrow",
            fn_kwargs={"ignore_nodata": ignore_nodata},
        )
        value_parts.append(
            pixels.map_batches(
                Z.values_from_rows,
                batch_format="pyarrow",
                fn_kwargs={"ignore_nodata": ignore_nodata},
            )
        )
    else:
        partials = tiles_ds.map_batches(
            tile_fid_partials_batch,
            fn_kwargs={
                "zones": zones_arg,
                "grid": grid,
                "ignore_nodata": ignore_nodata,
            },
            batch_format="pyarrow",
        )
    merged = Z.reduce_partials(partials)

    fid_stats: dict[int, dict] = {}
    for _, r in merged.iterrows():
        fid_stats[int(r["group_key"])] = {
            "min": None if pd.isna(r["min"]) else float(r["min"]),
            "max": None if pd.isna(r["max"]) else float(r["max"]),
            "count": int(r["count"]),
            "nodata_count": int(r["nodata_count"]),
            "sum": float(r["sum"]),
            "sumsq": float(r["sumsq"]),
        }

    # --- quirk-Q4 bbox-window fallback for zero-pixel FIDs
    #     (runner.py:697-811: whole envelope window, unmasked by geometry,
    #     per-part OVERWRITE so the last part wins) ---
    unset = [f for f in zs.all_fids if f not in fid_stats]
    if unset:
        unset_set = set(unset)
        part_rows: dict[int, list[int]] = {f: [] for f in unset}
        for j in range(zs.n_parts):
            f = int(zs.fid[j])
            if f in unset_set:
                part_rows[f].append(j)
        # (win_id, fid, part-order) + pixel window per fallback part
        win_specs: list[tuple[int, int, int, int, int]] = []
        win_owner: list[tuple[int, int]] = []
        for f in unset:
            for order_idx, j in enumerate(part_rows[f]):
                env = (
                    float(zs.minx[j]),
                    float(zs.maxx[j]),
                    float(zs.miny[j]),
                    float(zs.maxy[j]),
                )
                w = envelope_to_window(env, grid)
                if w is not None:
                    win_specs.append((len(win_specs), *w))
                    win_owner.append((f, order_idx))

        if rows_sink is not None and win_specs:
            # oracle export is only sound where Q4's overwrite semantics
            # degenerate to plain aggregation: one window per fallback FID,
            # driver path (pixels available to export)
            fids_in_specs = [f for f, _ in win_owner]
            if len(win_specs) > 16 or len(set(fids_in_specs)) != len(fids_in_specs):
                raise ValueError(
                    "rows_sink oracle export requires ≤16 single-part "
                    "fallback windows (Q4 overwrite is not aggregation-"
                    "equivalent otherwise)"
                )
        if win_specs and len(win_specs) > 16:
            # DISTRIBUTED fallback (engine improvement over the reference's
            # serial pass, runner.py:697-811): one tile sweep computes every
            # window's stats
            win_stats = _window_stats_distributed(
                tiles_ds, grid, win_specs, ignore_nodata=ignore_nodata
            )
            # apply per fid in part order: later parts OVERWRITE (quirk Q4)
            for (f, _order), (win_id, *_rest) in zip(win_owner, win_specs):
                st = win_stats.get(win_id)
                if st is not None:
                    fid_stats[f] = dict(st)
            if plist:
                # the fallback windows' value bags, from a second sweep that
                # keys each window's pixels by its owning fid (exact:
                # percentile over the multiset is append-order-independent)
                owned = [(f, *w[1:]) for (f, _), w in zip(win_owner, win_specs)]
                value_parts.append(
                    tiles_ds.map_batches(
                        _window_values_batch,
                        fn_kwargs={
                            "specs_ref": _broadcast_specs(owned),
                            "grid": grid,
                            "ignore_nodata": ignore_nodata,
                        },
                        batch_format="pyarrow",
                    )
                )
        elif win_specs:
            # driver path (small window sets / percentile mode, which also
            # needs the raw valid values appended per part)
            fb_rows: list[pa.Table] = []
            fb_fids: list[np.ndarray] = []
            fb_vals: list[np.ndarray] = []
            tile_map = _fetch_windows(
                tiles_ds, grid, [w[1:] for w in win_specs]
            )
            for (f, _order), (_wid, xoff, yoff, wx, wy) in zip(win_owner, win_specs):
                block = _read_window(tile_map, grid, xoff, yoff, wx, wy)
                nd = Z.nodata_mask(block, grid.nodata)
                if rows_sink is not None:
                    fb_rows.append(
                        pa.table(
                            {
                                "group_key": pa.array(
                                    np.full(block.size, f, dtype=np.int64)
                                ),
                                "value": pa.array(
                                    block.ravel().astype(np.float64), pa.float64()
                                ),
                                "nodata": pa.array(nd.ravel()),
                            },
                            schema=Z.ROWS_SCHEMA_INT,
                        )
                    )
                valid = block[~nd] if ignore_nodata else block.ravel()
                st = {
                    "count": block.size,
                    "nodata_count": int(np.count_nonzero(nd)),
                }
                if valid.size == 0:
                    st.update({"min": 0.0, "max": 0.0, "sum": 0.0, "sumsq": 0.0})
                else:
                    st.update(
                        {
                            "min": float(valid.min()),
                            "max": float(valid.max()),
                            "sum": float(valid.sum(dtype=np.float64)),
                            "sumsq": float(
                                np.sum(
                                    valid.astype(np.float64) ** 2, dtype=np.float64
                                )
                            ),
                        }
                    )
                fid_stats[f] = st  # overwrite (=), not accumulate — quirk Q4
                if plist and valid.size:
                    # stats overwrite per part, but value bags APPEND per
                    # part (runner.py:805-811)
                    fb_fids.append(np.full(valid.size, f, dtype=np.int64))
                    fb_vals.append(valid.astype(np.float32, copy=False))
            if fb_vals:
                import ray.data as rd

                value_parts.append(
                    rd.from_arrow(
                        pa.table(
                            [
                                pa.array(np.concatenate(fb_fids)),
                                pa.array(np.concatenate(fb_vals)),
                            ],
                            schema=Z.VALUES_SCHEMA_INT,
                        )
                    )
                )

        if rows_sink is not None and win_specs and fb_rows:
            import os as _os

            import pyarrow.parquet as _pq

            _pq.write_table(
                pa.concat_tables(fb_rows),
                _os.path.join(rows_sink, "fallback_windows.parquet"),
            )

    # FIDs still unset get the zeroed default (runner.py:813-815, 491-500)
    default_fid = {
        "min": None,
        "max": None,
        "count": 0,
        "nodata_count": 0,
        "sum": 0.0,
        "sumsq": 0.0,
    }
    for f in zs.all_fids:
        fid_stats.setdefault(f, dict(default_fid))

    # --- FID → group rollup (runner.py:848-889) ---
    grouped: dict = {}
    for f in zs.all_fids:
        gv = zs.fid_to_group[f]
        s = fid_stats[f]
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
        g["sumsq"] += s.get("sumsq", 0.0)
        fid_valid = s["count"] - s["nodata_count"]
        if fid_valid > 0:
            if g["min"] is None:
                g["min"], g["max"] = s["min"], s["max"]
            else:
                g["min"] = min(g["min"], s["min"])
                g["max"] = max(g["max"], s["max"])

    if plist:
        gp = _raster_group_percentiles(
            value_parts, zs, plist, percentile_driver_threshold
        )
        for gv, pv in gp.items():
            grouped[gv].update(zip(pkeys, pv))

    # --- finalize (runner.py:906-917) ---
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


# ---------------------------------------------------------------------------
# pivot + CSV sink (runner.py:966-1025, quirks Q8/Q9)
# ---------------------------------------------------------------------------


def pivot_stats(
    raster_stats_by_stem: dict[str, dict],
    raster_stems: list[str],
    row_col_order: str,
    agg_field: str,
) -> tuple[list[str], list[dict]]:
    """Wide pivot with the reference's exact column/row ordering."""
    all_groups: set = set()
    stat_fields = None
    for stem in raster_stems:
        stats = raster_stats_by_stem[stem]
        all_groups.update(stats.keys())
        if stat_fields is None and stats:
            stat_fields = list(next(iter(stats.values())).keys())
    if stat_fields is None:
        stat_fields = ["min", "max", "count", "nodata_count", "sum"]

    parts = [p.strip() for p in row_col_order.split(",") if p.strip()]
    ordered_groups = sorted(all_groups, key=lambda v: (v is None, str(v)))
    rows: list[dict] = []
    if parts == ["agg_field", "base_raster"]:
        first_col = agg_field
        columns = [f"{f}_{stem}" for stem in raster_stems for f in stat_fields]
        for gv in ordered_groups:
            row = {first_col: group_label(gv)}
            for stem in raster_stems:
                s = raster_stats_by_stem[stem][gv]
                for f in stat_fields:
                    row[f"{f}_{stem}"] = s[f]
            rows.append(row)
    elif parts == ["base_raster", "agg_field"]:
        first_col = "base_raster"
        columns = [
            f"{f}_{group_label(gv)}" for gv in ordered_groups for f in stat_fields
        ]
        for stem in raster_stems:
            row = {first_col: stem}
            stats = raster_stats_by_stem[stem]
            for gv in ordered_groups:
                lbl = group_label(gv)
                for f in stat_fields:
                    row[f"{f}_{lbl}"] = stats[gv][f]
            rows.append(row)
    else:
        raise ValueError(
            "row_col_order must be 'agg_field,base_raster' or 'base_raster,agg_field'"
        )
    return [first_col] + columns, rows


def write_pivot_csv(path, header: list[str], rows: list[dict]) -> None:
    import csv
    from pathlib import Path

    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=header)
        w.writeheader()
        w.writerows(rows)
