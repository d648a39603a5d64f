"""End-to-end zonal statistics pipelines (points path and raster path).

Points path (the graft's primary corpus flow, SURVEY §3.4):
    pages → geocode → cell-encode → spatial join (stateless tasks with a
    per-worker index cache) → per-batch partials → group merge (only tiny
    partials move) → finalize; with percentiles, slim rows materialize and
    one Ray task computes partials and percentiles from their block refs.

Raster path (the reference's native flow, ``runner.py:264-926``): tiles of
one or more bands (rasters sharing a grid and tile layout) → per-tile
pixel-center assignment, once for all bands (a scanline burn of each zone
part's edge-row crossings, ``ZoneSet.assign_grid``; no per-pixel index
lookup or point-in-polygon loop) + per-FID partials of each band → FID
merge (one Ray task over the wide pixel rows' block refs when percentiles
materialize them, one band at a time) → quirk-Q4 bbox-window fallback for
zero-pixel FIDs, one window set for all bands → FID→group rollup →
finalize.  Replicates quirks Q1-Q9 (SURVEY §2.9) for row-identical output.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.scalars import GROUP_KEY_NULL, group_label, percentile_keys
from ..geom.window import GridSpec, envelope_to_window
from ..sources.raster import band_col
from ..sources.zones import ZoneSet
from ..stages import guard
from ..stages import zonal as Z
from ..stages.geocode import geocode_batch
from ..stages.cells import cell_encode_batch

# quirk-Q4 fallback: up to this many bbox windows are read on the driver;
# more are swept over the tiles in one distributed pass
_DRIVER_WINDOWS = 16


def _all_group_keys(zs: ZoneSet) -> list[str]:
    from ..functions.scalars import _KEY_PREFIX

    return [
        GROUP_KEY_NULL if g is None else _KEY_PREFIX + str(g)
        for g in zs.unique_groups
    ]


def _read_fused(ds) -> bool:
    """Whether Ray Data's planner runs ``ds``'s Read, unsplit, in the tasks
    of its last maps; a row floor would undo that fusion."""
    from ray.data._internal.execution.operators.input_data_buffer import InputDataBuffer
    from ray.data._internal.logical.operators.read_operator import Read
    from ray.data._internal.logical.optimizers import get_execution_plan

    if not isinstance(ds._logical_plan.sources()[0], Read):
        return False
    last = get_execution_plan(ds._logical_plan).dag
    return all(isinstance(d, InputDataBuffer) for d in last.input_dependencies) and (
        last.get_additional_split_factor() == 1
    )


def join_points(
    ds,
    zones,
    *,
    cell_res: int = 12,
    shortcut_res: int | None = 7,
    geocode: bool = True,
    zones_crs=None,
    points_crs=None,
):
    """pages/points Dataset → joined Dataset with zone_fid + group_value.

    ``zones`` may be a ZoneSet / Arrow table / ray.ObjectRef.  A table or
    a ZoneSet's table is broadcast here with one ``ray.put`` when a Ray
    session is up, so every join task of the call shares its worker's
    cached ZoneSet (pass a ref to share it across calls).

    ``zones_crs``/``points_crs`` (geom.crs.CRS, both optional) reproduce
    the reference's M1 decision (``runner.py:307-341``): when both are
    given and differ after axis normalization — or the zones CRS is
    missing (None) while ``points_crs`` is set — the zones table is
    reprojected into the points frame before the index builds.  Requires
    ``zones`` as a table/ZoneSet (not a pre-broadcast ObjectRef).

    The join runs as stateless tasks on Ray's persistent shared workers
    with a per-process ZoneSet cache: the index builds once per worker
    process, and no actor processes are spawned.

    Its tasks, fused with the caller's maps and the zonal maps after it,
    get whole blocks of ``guard.TASK_ROWS`` rows or more (the task floor,
    ``stages/guard.py``) unless the input's Read streams into its maps."""
    from ..stages.join import spatial_join_batch

    if points_crs is not None:
        from ..geom.crs import prepare_zones

        tbl = zones.table if isinstance(zones, ZoneSet) else zones
        if not isinstance(tbl, pa.Table):
            raise TypeError(
                "zones_crs/points_crs reprojection needs zones as a table or "
                "ZoneSet, not a pre-broadcast ObjectRef"
            )
        zones = prepare_zones(tbl, zones_crs, points_crs)
    import ray

    if isinstance(zones, (pa.Table, ZoneSet)) and ray.is_initialized():
        zones = ray.put(zones.table if isinstance(zones, ZoneSet) else zones)
    task_rows = None if _read_fused(ds) else guard.TASK_ROWS
    if geocode:
        ds = ds.map_batches(geocode_batch, batch_format="pyarrow")
    # the floor rides on the encode, not the join: Ray slices that map's input
    # to the floor and merges its output into one block for the join
    ds = ds.map_batches(
        cell_encode_batch, batch_format="pyarrow", fn_kwargs={"res": cell_res},
        batch_size=task_rows, zero_copy_batch=True,
    )
    return ds.map_batches(
        spatial_join_batch,
        fn_kwargs={"zones": zones, "shortcut_res": shortcut_res},
        batch_format="pyarrow",
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
    percentile value bags); a lazy Dataset would re-execute the whole
    upstream join for each.  The joined rows are therefore first reduced
    to a slim (group_key, value, nodata) projection and THAT is
    materialized — a few bytes per row, never the wide page columns — so
    the join runs exactly once, in ``join_points``' tasks and under its
    task floor.  Up to ``guard.DRIVER_ROWS`` slim rows
    (read at call time, from block metadata) ONE Ray task over their block
    refs computes partials and percentiles (``stats_from_rows_df``), so no
    row reaches the driver; above it, the partials tree combine and
    ``group_percentiles_ds``.  Both regimes run the same partials and
    percentile kernels.

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
        if slim.count() <= guard.DRIVER_ROWS:
            merged, gp = Z.one_task(
                Z.stats_from_rows_df, slim.to_arrow_refs(), list(percentiles)
            )
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


def _wide_rows(chunks, nodata: tuple) -> pa.Table:
    """``(int64 keys, [float32 values of each band])`` chunks → one table
    of wide rows: ``group_key``, then each band's float64 ``value`` and its
    ``nodata`` flag (``band_col`` names; the flag is taken on the float32
    values, quirk Q2).  One band gives ``ROWS_SCHEMA_INT`` slim rows."""
    chunks = list(chunks)
    keys = np.concatenate([k for k, _ in chunks] + [np.empty(0, np.int64)])
    cols = {"group_key": pa.array(keys, pa.int64())}
    for b, nd in enumerate(nodata):
        v = np.concatenate([vs[b] for _, vs in chunks] + [np.empty(0, np.float32)])
        cols[band_col("value", b)] = pa.array(v.astype(np.float64))
        cols[band_col("nodata", b)] = pa.array(Z.nodata_mask(v, nd))
    return pa.table(cols)


def _per_band(rows: pa.Table, n_bands: int, fn, bands=None) -> pa.Table:
    """``fn`` of each band's slim ``(group_key, value, nodata)`` projection
    of wide rows (zero-copy), its ``group_key`` rekeyed ``key × n_bands +
    band`` (int64) so that one merge or shuffle serves every band; one band
    keeps its keys."""
    parts = []
    for b in range(n_bands) if bands is None else bands:
        cols = [rows["group_key"], rows[band_col("value", b)], rows[band_col("nodata", b)]]
        t = fn(pa.table(cols, schema=Z.ROWS_SCHEMA_INT))
        if n_bands > 1:
            key = pa.array(t["group_key"].to_numpy() * n_bands + b, pa.int64())
            t = t.set_column(0, "group_key", key)
        parts.append(t)
    return pa.concat_tables(parts)


def _band_partials(rows: pa.Table, n_bands: int, ignore_nodata: bool = True) -> pa.Table:
    """Wide rows → ``PARTIAL_SCHEMA_INT`` partials of every band."""
    return _per_band(rows, n_bands, lambda t: Z.partials_from_rows(t, ignore_nodata=ignore_nodata))


def _rows_band_partials(n_bands: int, *tables: pa.Table, ignore_nodata: bool = True):
    """One-task body of the fid partials, the wide-row form of
    ``Z.rows_partials``: ``_band_partials`` per block, then one merge."""
    parts = [_band_partials(t, n_bands, ignore_nodata) for t in tables if t.num_rows]
    return Z._merge_partials(pa.concat_tables(parts).to_pandas()) if parts else pd.DataFrame()


def _tile_fid_pixels(batch: pa.Table, zones, grid: GridSpec, n_bands: int):
    """Yield ``(fids, [values of each band])`` of the zone-assigned pixels
    of each tile in the batch.  Pixel centers burn through
    ``ZoneSet.assign_grid`` — the scanline form of the reference's FID
    rasterize — once per tile for all bands, so a tile costs its edge-row
    crossings plus its pixels, not pixels × edges.  The zones ObjectRef
    resolves through the per-worker-process cache (see stages/join.py)."""
    from ..sources.raster import tile_window
    from ..stages.join import _cached_zoneset

    zs = _cached_zoneset(zones)
    txs = batch["tile_x"].to_numpy()
    tys = batch["tile_y"].to_numpy()
    bands = [_list_col_buffers(batch[band_col("values", b)]) for b in range(n_bands)]
    for i in range(len(batch)):
        col0, row0, ncols, nrows = tile_window(grid, int(txs[i]), int(tys[i]))
        gx, gy = grid.pixel_centers(col0, row0, ncols, nrows)
        fids = zs.assign_grid(gx[0], gy[:, 0]).ravel()
        m = fids != -1
        if m.any():
            yield fids[m], [flat[offs[i] : offs[i + 1]][m] for flat, offs in bands]


def tile_fid_partials_batch(
    batch: pa.Table, zones, grid: GridSpec, nodata: tuple, ignore_nodata: bool = True
) -> pa.Table:
    """Stateless-task stage: raster tiles (one ``nodata`` per band) → the
    batch's per-FID partial aggregates of every band (``_band_partials``
    of its pixel rows).  Partials are keyed by FID (not group) because the
    Q4 fallback and the rollup's min/max-merge condition operate per FID
    (``runner.py:848-889``)."""
    rows = _wide_rows(_tile_fid_pixels(batch, zones, grid, len(nodata)), nodata)
    return _band_partials(rows, len(nodata), ignore_nodata)


def tile_fid_pixels_batch(batch: pa.Table, zones, grid: GridSpec, nodata: tuple) -> pa.Table:
    """Stateless-task stage: raster tiles (one ``nodata`` per band) → wide
    pixel rows (``_wide_rows``; one band gives the slim ``(group_key,
    value, nodata)`` rows).  One burn per tile feeds every band."""
    return _wide_rows(_tile_fid_pixels(batch, zones, grid, len(nodata)), nodata)


def _fetch_windows(tiles_ds, grid: GridSpec, windows: list[tuple[int, int, int, int]]):
    """Read only the tiles touched by the given pixel windows (small side)
    → one Arrow table of those tiles (materialized before ``to_arrow_refs``,
    which on a lazy Dataset runs the pipeline again for its schema)."""
    import pyarrow.compute as pc
    import ray

    from ..sources.raster import TILES_SCHEMA

    ts = grid.tile_size
    needed = set()
    for xoff, yoff, wx, wy in windows:
        for ty in range(yoff // ts, (yoff + wy - 1) // ts + 1):
            for tx in range(xoff // ts, (xoff + wx - 1) // ts + 1):
                needed.add((tx, ty))
    tx_arr = pa.array([t[0] for t in needed], pa.int32())
    ty_arr = pa.array([t[1] for t in needed], pa.int32())

    def pick(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_in(b["tile_x"], tx_arr), pc.is_in(b["tile_y"], ty_arr))
        return b.filter(m)

    picked = tiles_ds.map_batches(pick, batch_format="pyarrow").materialize()
    tables = [t for t in ray.get(picked.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else TILES_SCHEMA.empty_table()


def _window_blocks(batch: pa.Table, specs, grid: GridSpec, n_bands: int):
    """Yield ``(keys, [values of each band])`` for every (window × tile)
    intersection of the tiles in ``batch``: the spec's key once per pixel
    and each band's row-major float32 pixels.  ``specs`` is the ``(key,
    xoff, yoff, wx, wy)`` array tuple of ``_broadcast_specs`` (or its
    ObjectRef)."""
    from ..sources.raster import tile_window
    from ..stages.joins import _resolve_ref

    if not batch.num_rows:
        return
    key, xoff, yoff, wx, wy = (np.asarray(a) for a in _resolve_ref(specs))
    txs = batch["tile_x"].to_numpy()
    tys = batch["tile_y"].to_numpy()
    bands = [_list_col_buffers(batch[band_col("values", b)]) for b in range(n_bands)]
    for i in range(len(batch)):
        col0, row0, ncols, nrows = tile_window(grid, int(txs[i]), int(tys[i]))
        hit = np.flatnonzero(
            (xoff < col0 + ncols)
            & (xoff + wx > col0)
            & (yoff < row0 + nrows)
            & (yoff + wy > row0)
        )
        tiles = [flat[offs[i] : offs[i + 1]].reshape(nrows, ncols) for flat, offs in bands]
        for h in hit.tolist():
            c0 = max(int(xoff[h]), col0) - col0
            c1 = min(int(xoff[h] + wx[h]), col0 + ncols) - col0
            r0 = max(int(yoff[h]), row0) - row0
            r1 = min(int(yoff[h] + wy[h]), row0 + nrows) - row0
            yield (
                np.full((r1 - r0) * (c1 - c0), key[h], np.int64),
                [t[r0:r1, c0:c1].ravel() for t in tiles],
            )


def _window_partials_batch(
    batch: pa.Table, specs_ref, grid: GridSpec, nodata: tuple, ignore_nodata: bool = True
) -> pa.Table:
    """Q4 fallback partials: one partials row (``PARTIAL_SCHEMA_INT``) per
    window touched by the batch's tiles and band, keyed ``spec key ×
    bands + band`` (``_band_partials`` over ``_window_values_batch``).
    The reference runs this pass serially on one process
    (runner.py:697-811); windows tile-partition cleanly, so the window
    aggregates merge associatively (``_merge_partials``)."""
    rows = _window_values_batch(batch, specs_ref, grid, nodata)
    return _band_partials(rows, len(nodata), ignore_nodata)


def _window_values_batch(batch: pa.Table, specs_ref, grid: GridSpec, nodata: tuple) -> pa.Table:
    """Q4 fallback VALUES: wide rows (``_wide_rows``, like the tile
    pixels) of each window × tile intersection, keyed by the spec's key
    (the window's owning fid) — the percentile value bags (the reference
    appends each part-window's pixels to the bag, runner.py:805-811;
    percentile over the multiset is order-independent, so distributed
    collection is exact).  ``Z.values_from_rows`` drops the nodata values
    when ``ignore_nodata``, as it does for the pixels."""
    return _wide_rows(_window_blocks(batch, specs_ref, grid, len(nodata)), nodata)


def _broadcast_specs(win_specs):
    """``(key, xoff, yoff, wx, wy)`` window tuples → one tuple of int64
    arrays for the window passes, ``ray.put`` once when a session is up."""
    import ray

    specs = tuple(np.array(win_specs, dtype=np.int64).T.copy())
    return ray.put(specs) if ray.is_initialized() else specs


def _window_stats(merged: pd.DataFrame, ignore_nodata: bool) -> dict[int, dict]:
    """Merged window partials → {key: {count, nodata_count, min, max, sum,
    sumsq}}.  A window whose value bag is empty gets zeros (reference
    runner.py:778-793); with ``ignore_nodata=False`` every pixel is in
    the bag."""
    out: dict[int, dict] = {}
    for r in merged.to_dict("records"):
        st = {"count": int(r["count"]), "nodata_count": int(r["nodata_count"])}
        bag = st["count"] - st["nodata_count"] if ignore_nodata else st["count"]
        st.update(
            {k: float(r[k]) if bag > 0 else 0.0 for k in ("min", "max", "sum", "sumsq")}
        )
        out[int(r["group_key"])] = st
    return out


def _window_stats_distributed(
    tiles_ds,
    grid: GridSpec,
    win_specs,
    nodata: tuple,
    *,
    ignore_nodata: bool = True,
) -> dict[int, dict]:
    """Q4 fallback stats of more than ``_DRIVER_WINDOWS`` windows in one
    distributed pass over the tiles: ``_window_partials_batch`` per block,
    then ``reduce_partials`` (above the driver budget its tree combine
    shrinks the frame first, so 10^5 windows × 10^5 tiles never funnel
    one row each through the driver) and ``_window_stats``, keyed ``window
    × bands + band``."""
    parts = tiles_ds.map_batches(
        _window_partials_batch,
        fn_kwargs={
            "specs_ref": _broadcast_specs(win_specs),
            "grid": grid,
            "ignore_nodata": ignore_nodata,
            "nodata": nodata,
        },
        batch_format="pyarrow",
    )
    return _window_stats(Z.reduce_partials(parts), ignore_nodata)


def _fid_group_ordinals(
    batch: pa.Table, fids: np.ndarray, ords: np.ndarray
) -> pa.Table:
    """(fid, value) rows → (ordinal of the fid's group, value) rows;
    ``fids`` is sorted and ``ords[i]`` is the group ordinal of ``fids[i]``."""
    pos = np.searchsorted(fids, batch["group_key"].to_numpy(zero_copy_only=False))
    return pa.table([pa.array(ords[pos]), batch["value"]], schema=Z.VALUES_SCHEMA_INT)


def _band_values(rows: pa.Table, fids, ords, n_bands: int, bands, ignore_nodata: bool = True):
    """Wide rows → ``VALUES_SCHEMA_INT`` value rows of ``bands``, keyed by
    the group ordinal (``Z.values_from_rows``, ``_fid_group_ordinals``)."""
    def values(t: pa.Table) -> pa.Table:
        return _fid_group_ordinals(Z.values_from_rows(t, ignore_nodata=ignore_nodata), fids, ords)

    return _per_band(rows, n_bands, values, bands)


def _group_bag_percentiles(
    plist: list[float], fids, ords, n_bands: int, *tables: pa.Table,
    ignore_nodata: bool = True,
) -> dict:
    """One-task body of the raster percentiles: wide row blocks → {group
    ordinal × n_bands + band: percentiles}, one band's bags at a time."""
    tables = [t for t in tables if t.num_rows]  # Ray Data may emit column-less empty blocks
    gp: dict = {}
    for b in range(n_bands):
        gp.update(Z._bag_percentiles(
            plist, *(_band_values(t, fids, ords, n_bands, [b], ignore_nodata) for t in tables)
        ))
    return gp


def _raster_group_percentiles(
    refs: list, n_rows: int, zs: ZoneSet, plist: list[float], n_bands: int,
    ignore_nodata: bool,
) -> list[dict]:
    """Exact percentiles per band and group value over the wide row blocks
    behind ``refs`` (tile pixels and Q4 window rows, ``n_rows`` in all):
    ONE Ray task up to ``guard.DRIVER_ROWS`` rows, one salted shuffle over
    every band's values above."""
    ordinal = {g: i for i, g in enumerate(zs.unique_groups)}
    ords = np.array([ordinal[zs.fid_to_group[f]] for f in zs.all_fids], np.int64)
    if not n_rows:
        gp = {}
    elif n_rows <= guard.DRIVER_ROWS:
        gp = Z.one_task(
            _group_bag_percentiles, refs, plist, zs._lut_fids, ords, n_bands,
            ignore_nodata=ignore_nodata,
        )
    else:
        import ray.data as rd

        values = rd.from_arrow_refs(refs).map_batches(
            _band_values,
            fn_kwargs={
                "fids": zs._lut_fids, "ords": ords, "n_bands": n_bands,
                "bands": range(n_bands), "ignore_nodata": ignore_nodata,
            },
            batch_format="pyarrow",
        )
        gp = Z.salted_group_percentiles(values, plist)
    out: list[dict] = [{} for _ in range(n_bands)]
    for k, pv in gp.items():
        g, b = divmod(int(k), n_bands)
        out[b][zs.unique_groups[g]] = [float(v) for v in pv]
    return out


def simplified_zones(table: pa.Table, tolerance: float):
    """Quirk Q6: Douglas-Peucker-simplify the zones at ``tolerance`` →
    ``(ZoneSet, broadcast ref)``; the ref is None without a Ray session."""
    import ray

    from ..geom.simplify import simplify_zones_table

    zs = ZoneSet(simplify_zones_table(table, tolerance))
    return zs, ray.put(zs.table) if ray.is_initialized() else None


def _fid_stats(merged: pd.DataFrame, n_bands: int) -> list[dict[int, dict]]:
    """Merged partials keyed ``fid × n_bands + band`` → per band {fid:
    min, max, count, nodata_count, sum, sumsq}."""
    out: list[dict] = [{} for _ in range(n_bands)]
    for r in merged.to_dict("records"):
        f, b = divmod(int(r["group_key"]), n_bands)
        out[b][f] = {
            "min": None if pd.isna(r["min"]) else float(r["min"]),
            "max": None if pd.isna(r["max"]) else float(r["max"]),
            "count": int(r["count"]),
            "nodata_count": int(r["nodata_count"]),
            "sum": float(r["sum"]),
            "sumsq": float(r["sumsq"]),
        }
    return out


def _group_stats(zs: ZoneSet, fid_stats: dict, group_pct: dict, pkeys: list) -> dict:
    """One band's FID stats → {group_value: stats}: FIDs still unset get the
    zeroed default (runner.py:813-815, 491-500), then the FID → group
    rollup (runner.py:848-889), the percentiles and the finalize
    (runner.py:906-917)."""
    grouped: dict = {}
    for f in zs.all_fids:
        gv = zs.fid_to_group[f]
        s = fid_stats.get(f) or Z.empty_stats(())
        g = grouped.setdefault(gv, {**Z.empty_stats(pkeys), "sumsq": 0.0})
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
    for gv, pv in group_pct.items():
        grouped[gv].update(zip(pkeys, pv))
    for g in grouped.values():
        g["valid_count"] = g["count"] - g["nodata_count"]
        g["stdev"] = Z.pop_stdev(g["sum"], g.pop("sumsq"), g["valid_count"])
    return grouped


def zonal_stats_bands(
    tiles_ds,
    grid: GridSpec,
    nodata: tuple,
    zs: ZoneSet,
    *,
    percentiles: list[float] = (),
    zones_ref=None,
    ignore_nodata: bool = True,
    rows_sink: str | None = None,
) -> list[dict]:
    """Zonal statistics of the bands of one tile pass (``tile_x``,
    ``tile_y`` and a ``band_col`` values column per band, one ``nodata``
    per band: ``sources.raster.read_bands``) → a ``zonal_stats_raster``
    result per band.  Each tile burns once into wide pixel rows (fid, then
    a value and a nodata column per band); the burn depends only on the
    grid and the zones, so one set of quirk-Q4 windows serves every band.
    Up to ``guard.DRIVER_ROWS`` materialized rows (block metadata) two Ray
    tasks over their block refs reduce one band's ``(group_key, value,
    nodata)`` projection at a time (partials, then the pixel and Q4 window
    bags); above it, and without percentiles, one tree combine and one
    salted shuffle run.  Every regime keys band b of key k as ``k × bands
    + b``.  ``rows_sink`` (see ``zonal_stats_raster``) gets the wide rows."""
    n_bands = len(nodata)
    plist = sorted(set(float(p) for p in percentiles))
    pkeys = percentile_keys(plist)

    # --- empty-intersection fast path (runner.py:409-450) ---
    v_minx = float(np.min(zs.minx))
    v_maxx = float(np.max(zs.maxx))
    v_miny = float(np.min(zs.miny))
    v_maxy = float(np.max(zs.maxy))
    r_minx, r_miny, r_maxx, r_maxy = grid.bbox
    if v_maxx < r_minx or v_minx > r_maxx or v_maxy < r_miny or v_miny > r_maxy:
        return [{g: Z.empty_stats(pkeys) for g in zs.unique_groups} for _ in nodata]

    zones_arg = zones_ref if zones_ref is not None else zs.table

    # --- per-tile FID partials → merge.  With percentiles the pixel
    # assignment runs once into wide materialized pixel rows, and both the
    # fid partials and the value bags reduce from their block refs;
    # without, partials aggregate inside the task (single pass, nothing
    # materialized). ---
    if rows_sink is not None and not plist:
        raise ValueError("rows_sink requires percentile mode (pixels rows)")
    # wide row blocks whose union is the percentile value bags, and their
    # row count
    value_refs: list = []
    n_values = 0
    tile_kw = {"zones": zones_arg, "grid": grid, "nodata": nodata}
    if plist:
        pixels = tiles_ds.map_batches(
            tile_fid_pixels_batch, fn_kwargs=tile_kw, batch_format="pyarrow"
        ).materialize()
        if rows_sink is not None:
            pixels.write_parquet(rows_sink)
        n_values = pixels.count()
        value_refs = pixels.to_arrow_refs()
    if plist and n_values <= guard.DRIVER_ROWS:
        merged = Z.one_task(
            _rows_band_partials, value_refs, n_bands, ignore_nodata=ignore_nodata
        )
    else:
        if plist:
            partials = pixels.map_batches(
                _band_partials,
                fn_kwargs={"n_bands": n_bands, "ignore_nodata": ignore_nodata},
                batch_format="pyarrow",
            )
        else:
            partials = tiles_ds.map_batches(
                tile_fid_partials_batch,
                fn_kwargs={**tile_kw, "ignore_nodata": ignore_nodata},
                batch_format="pyarrow",
            )
        merged = Z.reduce_partials(partials)
    fid_stats = _fid_stats(merged, n_bands)

    # --- quirk-Q4 bbox-window fallback for zero-pixel FIDs
    #     (runner.py:697-811: whole envelope window, unmasked by geometry,
    #     per-part OVERWRITE so the last part wins) ---
    unset = [f for f in zs.all_fids if f not in fid_stats[0]]
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
            single_part = len(set(fids_in_specs)) == len(fids_in_specs)
            if len(win_specs) > _DRIVER_WINDOWS or not single_part:
                raise ValueError(
                    f"rows_sink oracle export requires ≤{_DRIVER_WINDOWS} "
                    "single-part fallback windows (Q4 overwrite is not "
                    "aggregation-equivalent otherwise)"
                )
        if win_specs:
            # window stats (keyed window × bands + band) and value bags
            # come from the zonal kernels: above _DRIVER_WINDOWS windows
            # one distributed sweep over all tiles (engine improvement over
            # the reference's serial pass, runner.py:697-811), else the
            # same batch functions on the driver over the tiles the
            # windows touch; the value bags key each window's pixels by
            # its owning fid
            owned_ref = (
                _broadcast_specs([(f, *w[1:]) for (f, _), w in zip(win_owner, win_specs)])
                if plist
                else None
            )
            if len(win_specs) > _DRIVER_WINDOWS:
                win_stats = _window_stats_distributed(
                    tiles_ds, grid, win_specs, nodata, ignore_nodata=ignore_nodata
                )
                if plist:
                    # every window pixel is one row (windows lie inside the grid)
                    n_values += sum(w[3] * w[4] for w in win_specs)
                    # materialized first (see _fetch_windows)
                    value_refs += tiles_ds.map_batches(
                        _window_values_batch,
                        fn_kwargs={"specs_ref": owned_ref, "grid": grid, "nodata": nodata},
                        batch_format="pyarrow",
                    ).materialize().to_arrow_refs()
            else:
                tiles = _fetch_windows(tiles_ds, grid, [w[1:] for w in win_specs])
                parts = _window_partials_batch(
                    tiles, _broadcast_specs(win_specs), grid, nodata, ignore_nodata
                )
                win_stats = _window_stats(
                    Z._merge_partials(parts.to_pandas()), ignore_nodata
                )
                if plist:
                    import ray

                    rows = _window_values_batch(tiles, owned_ref, grid, nodata)
                    n_values += rows.num_rows
                    value_refs.append(ray.put(rows))
                    if rows_sink is not None:
                        pq.write_table(rows, f"{rows_sink}/fallback_windows.parquet")
            # per fid in part order: later parts OVERWRITE the stats (quirk
            # Q4) while every part's values join the bag (runner.py:805-811)
            for (f, _order), (win_id, *_rest) in zip(win_owner, win_specs):
                for b, stats in enumerate(fid_stats):
                    st = win_stats.get(win_id * n_bands + b)
                    if st is not None:
                        stats[f] = dict(st)

    group_pct = (
        _raster_group_percentiles(value_refs, n_values, zs, plist, n_bands, ignore_nodata)
        if plist
        else [{}] * n_bands
    )
    return [_group_stats(zs, s, gp, pkeys) for s, gp in zip(fid_stats, group_pct)]


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
    rows_sink: str | None = None,
) -> dict:
    """Full reference-semantics zonal statistics over a tiled raster
    (``(tile_x, tile_y, values)`` rows, nodata ``grid.nodata``): the
    one-band case of ``zonal_stats_bands``.

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
    """
    if simplify_tolerance is not None and simplify_tolerance > 0:
        # the incoming broadcast handle refers to the UNsimplified zones;
        # re-broadcast the simplified table so tasks still read from plasma
        zs, zones_ref = simplified_zones(zs.table, simplify_tolerance)
    (stats,) = zonal_stats_bands(
        tiles_ds, grid, (grid.nodata,), zs, percentiles=percentiles, zones_ref=zones_ref,
        ignore_nodata=ignore_nodata, rows_sink=rows_sink,
    )
    return stats


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
