"""Synthetic raster tiles: Arrow-chunked windowed reads of a raster grid.

Replaces GDAL block IO (``/root/reference/runner.py:542-545, 634-635``):
one table row = one tile window ``(tile_x, tile_y, values:list<float32>)``
over a :class:`~zonal_stats_toolkit_ray.geom.window.GridSpec`.  Pixel values
are a pure function of *global* pixel coordinates and the seed, so any
tiling of the same grid yields identical data — this is what lets the Ray
engine (tile-parallel) and the golden oracle (one dense array) agree
bit-for-bit.

~5% of pixels are exact nodata and ~1% are ``nodata*(1+1e-6)`` — different
from nodata under ``==`` in float32 but equal under ``np.isclose`` — to pin
the reference's tolerance-based nodata rule (quirk Q2,
``runner.py:644-647``).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..geom.window import GridSpec

TILES_SCHEMA = pa.schema(
    [
        ("tile_x", pa.int32()),
        ("tile_y", pa.int32()),
        ("values", pa.list_(pa.float32())),
    ]
)

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)


def _hash_u01(cols: np.ndarray, rows: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic uniform [0,1) from integer pixel coords (splitmix-style)."""
    with np.errstate(over="ignore"):
        h = (
            cols.astype(np.uint64) * _M1
            ^ rows.astype(np.uint64) * _M2
            ^ (np.uint64(salt & 0xFFFFFFFFFFFFFFFF) * _M3)
        )
        h ^= h >> np.uint64(30)
        h *= _M2
        h ^= h >> np.uint64(27)
        h *= _M3
        h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def field_values(cols: np.ndarray, rows: np.ndarray, grid: GridSpec, seed: int) -> np.ndarray:
    """float32 pixel values for global (col, row) coords: smooth field + noise,
    with the seeded nodata / near-nodata pattern injected."""
    c = cols.astype(np.float64)
    r = rows.astype(np.float64)
    v = (
        10.0 * np.sin(c * 0.011)
        + 7.0 * np.cos(r * 0.017)
        + 3.0 * np.sin((c + r) * 0.005)
        + 20.0
        + 8.0 * _hash_u01(cols, rows, seed)
    ).astype(np.float32)
    if grid.nodata is not None:
        u = _hash_u01(cols, rows, seed + 1)
        nd = np.float32(grid.nodata)
        v = np.where(u < 0.05, nd, v)
        # near-nodata: equal under np.isclose, unequal under == (quirk Q2)
        v = np.where((u >= 0.05) & (u < 0.06), np.float32(grid.nodata * (1 + 1e-6)), v)
    return v


def dense_array(grid: GridSpec, seed: int) -> np.ndarray:
    """The whole raster as one (height, width) float32 array (oracle side)."""
    cols, rows = np.meshgrid(
        np.arange(grid.width, dtype=np.int64),
        np.arange(grid.height, dtype=np.int64),
    )
    return field_values(cols, rows, grid, seed)


def tile_window(grid: GridSpec, tile_x: int, tile_y: int) -> tuple[int, int, int, int]:
    """(col0, row0, ncols, nrows) pixel window of a tile (edge tiles clipped)."""
    ts = grid.tile_size
    col0, row0 = tile_x * ts, tile_y * ts
    return col0, row0, min(ts, grid.width - col0), min(ts, grid.height - row0)


def synth_tiles_table(grid: GridSpec, seed: int = 42) -> pa.Table:
    """All tiles of the grid as one Arrow table (row-major values per tile)."""
    ts = grid.tile_size
    ntx = -(-grid.width // ts)
    nty = -(-grid.height // ts)
    txs, tys, vals = [], [], []
    for ty in range(nty):
        for tx in range(ntx):
            col0, row0, ncols, nrows = tile_window(grid, tx, ty)
            cols, rows = np.meshgrid(
                col0 + np.arange(ncols, dtype=np.int64),
                row0 + np.arange(nrows, dtype=np.int64),
            )
            v = field_values(cols, rows, grid, seed)
            txs.append(tx)
            tys.append(ty)
            vals.append(v.ravel())
    flat = np.concatenate(vals) if vals else np.empty(0, np.float32)
    offsets = np.zeros(len(vals) + 1, dtype=np.int32)
    np.cumsum([v.size for v in vals], out=offsets[1:])
    values = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat, pa.float32()))
    return pa.table(
        {
            "tile_x": pa.array(txs, pa.int32()),
            "tile_y": pa.array(tys, pa.int32()),
            "values": values,
        },
        schema=TILES_SCHEMA,
    )


def grid_meta_json(grid: GridSpec) -> str:
    return json.dumps(
        {
            "x0": grid.x0,
            "y0": grid.y0,
            "dx": grid.dx,
            "dy": grid.dy,
            "width": grid.width,
            "height": grid.height,
            "nodata": grid.nodata,
            "tile_size": grid.tile_size,
        }
    )


def write_tiles(path: str, grid: GridSpec, seed: int = 42) -> None:
    """Write the tiles table with the grid spec in Parquet key-value metadata
    (the analogue of the reference's raster-info read, ``runner.py:295-305``)."""
    t = synth_tiles_table(grid, seed)
    t = t.replace_schema_metadata({b"grid_spec": grid_meta_json(grid).encode()})
    pq.write_table(t, path)


def write_tiles_dir(
    path: str, grid: GridSpec, seed: int = 42, *, shards: int = 4
) -> None:
    """Write the raster as a DIRECTORY of Parquet shards (the 100-TB
    layout: one file per tile-range shard; ``ray.data.read_parquet`` on
    the directory streams shards as independent read tasks and a resumable
    writer can skip finished shards).  Every shard carries the grid spec
    in its key-value metadata, so :func:`read_grid_spec` works on the
    directory too.  Tiles are row-major round-robin across shards —
    re-sharding the same grid yields identical data (values are a pure
    function of global pixel coords)."""
    import os

    t = synth_tiles_table(grid, seed)
    t = t.replace_schema_metadata({b"grid_spec": grid_meta_json(grid).encode()})
    os.makedirs(path, exist_ok=True)
    n = len(t)
    shards = max(1, min(shards, n))
    for s in range(shards):
        idx = list(range(s, n, shards))
        pq.write_table(t.take(idx), f"{path}/part-{s:04d}.parquet")


def _tile_files(path: str) -> list[str]:
    """A tiles file, or a shard directory's Parquet files in name order."""
    import os

    if not os.path.isdir(path):
        return [path]
    files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".parquet")]
    if not files:
        raise FileNotFoundError(f"no parquet shards in raster dir {path!r}")
    return files


def read_grid_spec(path: str) -> GridSpec:
    """Grid spec from Parquet key-value metadata — a single tiles file or
    a directory of shards (first shard's metadata; all shards carry it)."""
    md = pq.read_schema(_tile_files(path)[0]).metadata or {}
    spec = json.loads(md[b"grid_spec"].decode())
    return GridSpec(**spec)


def band_col(name: str, band: int) -> str:
    """Column ``name`` of band ``band`` in a band group's tiles or pixel
    rows; band 0 keeps the one-raster name (``values``, ``value``, ...)."""
    return name if band == 0 else f"{name}_{band}"


def group_rasters(paths: list[str]) -> list[tuple[GridSpec, list[int], list, list]]:
    """Rasters readable as the bands of one tile pass → ``(first band's
    grid, indices into paths, nodata per band, read units per band)`` per
    group, in first-seen order.  Bands share the ``GridSpec`` but ``nodata``
    and the ``(tile_x, tile_y)`` sequence of every ``(file, row group,
    tiles, uncompressed bytes)`` unit (only those two columns are read)."""
    import dataclasses

    groups: dict[tuple, tuple] = {}
    for i, path in enumerate(paths):
        grid = read_grid_spec(path)
        units, layout = [], []
        for f in _tile_files(path):
            with pq.ParquetFile(f) as pf:
                for rg in range(pf.num_row_groups):
                    t = pf.read_row_group(rg, columns=["tile_x", "tile_y"])
                    layout.append(tuple(t[c].to_numpy().tobytes() for c in ("tile_x", "tile_y")))
                    md = pf.metadata.row_group(rg)
                    units.append((f, rg, md.num_rows, md.total_byte_size))
        key = (dataclasses.replace(grid, nodata=None), tuple(layout))
        _, members, nodata, band_units = groups.setdefault(key, (grid, [], [], []))
        members.append(i)
        nodata.append(grid.nodata)
        band_units.append(units)
    return list(groups.values())


def _read_rows(file: str, row_group: int, lo: int, hi: int, columns: list[str]) -> pa.Table:
    """Rows ``[lo, hi)`` of one row group, decoded batch by batch so that
    only those rows are kept."""
    out, at = [], 0
    with pq.ParquetFile(file) as pf:
        for b in pf.iter_batches(batch_size=hi - lo, row_groups=[row_group], columns=columns):
            if at + b.num_rows > lo:
                out.append(b.slice(max(lo - at, 0), hi - max(lo, at)))
            at += b.num_rows
            if at >= hi:
                break
        schema = pa.schema([pf.schema_arrow.field(c) for c in columns])
    return pa.Table.from_batches(out, schema)


def _read_band_units(batch: pa.Table) -> pa.Table:
    """:func:`read_bands` items → their tile ranges, a values column per band."""
    out = []
    for files, rgs, lo, hi in zip(*(batch[c].to_pylist() for c in ("files", "rgs", "lo", "hi"))):
        t = _read_rows(files[0], rgs[0], lo, hi, list(TILES_SCHEMA.names))
        for b in range(1, len(files)):
            v = _read_rows(files[b], rgs[b], lo, hi, ["values"])["values"]
            t = t.append_column(band_col("values", b), v)
        out.append(t)
    return pa.concat_tables(out)


def read_bands(units: list[list[tuple]]):
    """One band group's tiles (its :func:`group_rasters` units) as one
    Dataset with a values column per band (:func:`band_col`).  A block is
    a tile range of one unit, read for every band by one task that fuses
    with the maps over it.  Units split into ranges so that there are at
    least as many blocks as ``read_parquet`` makes of one band (Ray's read
    parallelism) or one per tile, whichever is fewer; a split unit is
    decoded up to its range once per range."""
    import ray
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    nbytes = max(sum(u[3] for u in us) for us in units)
    n_blocks = max(
        min(ctx.read_op_min_num_blocks, nbytes // ctx.target_min_block_size),
        nbytes // (ctx.target_max_block_size or nbytes + 1),
        2 * int(ray.cluster_resources().get("CPU", 1)),
    )
    step = max(1, -(-sum(u[2] for u in units[0]) // n_blocks))
    items = [
        {"files": [us[k][0] for us in units], "rgs": [us[k][1] for us in units],
         "lo": lo, "hi": min(lo + step, n)}
        for k, (_, _, n, _) in enumerate(units[0])
        for lo in range(0, n, step)
    ]
    return rd.from_items(items, override_num_blocks=len(items) or None).map_batches(
        _read_band_units, batch_format="pyarrow"
    )


def raster_algebra(
    tiles_a,
    tiles_b,
    *,
    nodata_a: float,
    nodata_b: float,
    nodata_out: float,
    op: str = "normdiff",
):
    """Raster map algebra over two aligned tiled rasters → derived tiles
    Dataset with the same (tile_x, tile_y, values) layout — the raster
    calculator the reference delegates to ecoshard/GDAL
    (``raster_calculator``-shape; runner.py itself only consumes single
    rasters).  ``op='normdiff'`` computes the NDVI-style normalized
    difference ``(a − b) / (a + b)``.

    Semantics (Q2 parity): an input pixel is nodata under ``np.isclose``
    to its band's nodata (runner.py:644-647); any pixel where either
    input is nodata — or the op is undefined (a + b == 0) — emits
    ``nodata_out``.

    Shape: ONE dual-regime hash join on the packed tile key aligns the
    two bands (tiles are the unit of IO, so the join moves tile rows,
    never pixels individually); the arithmetic is one vectorized pass
    over the flattened value buffers, offsets preserved."""
    import pyarrow.compute as pc

    from ..stages.joins import hash_join

    if op != "normdiff":  # pragma: no cover
        raise ValueError(f"unknown op {op!r}")

    def pack(t: pa.Table, prefix: str) -> pa.Table:
        tx = t["tile_x"].to_numpy(zero_copy_only=False).astype(np.int64)
        ty = t["tile_y"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "tkey": pa.array(tx * 1_000_000 + ty, pa.int64()),
                f"{prefix}tile_x": t["tile_x"],
                f"{prefix}tile_y": t["tile_y"],
                f"{prefix}values": t["values"],
            }
        )

    a = tiles_a.map_batches(lambda t: pack(t, ""), batch_format="pyarrow")
    b = tiles_b.map_batches(lambda t: pack(t, "b_"), batch_format="pyarrow")
    j = hash_join(a, b, on="tkey", how="inner")

    def derive(t: pa.Table) -> pa.Table:
        va = t["values"]
        vb = t["b_values"]
        if isinstance(va, pa.ChunkedArray):
            va = va.combine_chunks()
        if isinstance(vb, pa.ChunkedArray):
            vb = vb.combine_chunks()
        # offsets may be a non-zero-based slice view after the join's
        # take — slice the child buffers and rebase explicitly
        oa = va.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ob = vb.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        fa = (
            va.values.to_numpy(zero_copy_only=False)[oa[0] : oa[-1]]
            .astype(np.float64)
        )
        fb = (
            vb.values.to_numpy(zero_copy_only=False)[ob[0] : ob[-1]]
            .astype(np.float64)
        )
        bad = (
            np.isclose(fa, nodata_a)
            | np.isclose(fb, nodata_b)
            | (fa + fb == 0.0)
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (fa - fb) / (fa + fb)
        out = np.where(bad, np.float64(nodata_out), out).astype(np.float32)
        rebased = (oa - oa[0]).astype(np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(rebased, pa.int32()), pa.array(out, pa.float32())
        )
        return pa.table(
            {
                "tile_x": t["tile_x"],
                "tile_y": t["tile_y"],
                "values": lists,
            },
            schema=TILES_SCHEMA,
        )

    return j.map_batches(derive, batch_format="pyarrow")
