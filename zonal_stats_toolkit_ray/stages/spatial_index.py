"""Z-order (Morton) partitioned spatial layout — round 4.

The spatial analogue of the partitioned IVF / inverted-index layouts
(`stages/knn.py:ivf_write_partitioned`, `stages/invindex.py`): points are
hive-partitioned on disk by the Morton code of their coarse grid cell, so
a bbox query reads ONLY the partitions whose cell intersects the box —
pruning at the read, never a full corpus scan.  This is how a 100-TB point
table serves the reference's extent-intersection fast path
(runner.py:409-450) and any windowed zonal job without touching
out-of-window shards; Z-ordering (vs plain row-major cells) keeps
spatially adjacent buckets byte-adjacent on disk, which matters once
buckets are object-store ranges.

All coordinate→cell math is integer and shared verbatim between build and
query (the token_bucket contract), so prune decisions are exact — the
query still applies the precise bbox filter inside ``map_batches``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.metrics import note

LON_RANGE = (-180.0, 180.0)
LAT_RANGE = (-90.0, 90.0)


def _interleave_bits(x: np.ndarray, y: np.ndarray, bits: int) -> np.ndarray:
    """Morton-interleave two uint arrays of ``bits`` significant bits each
    → uint64 codes (x in even positions, y in odd)."""
    out = np.zeros(x.shape, dtype=np.uint64)
    x = x.astype(np.uint64)
    y = y.astype(np.uint64)
    for b in range(bits):
        out |= ((x >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b)
        out |= ((y >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b + 1)
    return out


def _grid_coords(
    lon: np.ndarray, lat: np.ndarray, grid_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """lon/lat → integer coarse-grid coordinates in [0, 2^grid_bits)."""
    n = 1 << grid_bits
    gx = np.floor((lon - LON_RANGE[0]) / (LON_RANGE[1] - LON_RANGE[0]) * n)
    gy = np.floor((lat - LAT_RANGE[0]) / (LAT_RANGE[1] - LAT_RANGE[0]) * n)
    gx = np.clip(gx, 0, n - 1).astype(np.uint64)
    gy = np.clip(gy, 0, n - 1).astype(np.uint64)
    return gx, gy


def zorder_bucket(
    lon: np.ndarray, lat: np.ndarray, *, grid_bits: int = 3
) -> np.ndarray:
    """Point → Z-order bucket id (int32), the shared build/query
    partitioning function.  ``grid_bits`` b gives 4^b buckets."""
    gx, gy = _grid_coords(np.asarray(lon, np.float64), np.asarray(lat, np.float64), grid_bits)
    return _interleave_bits(gx, gy, grid_bits).astype(np.int32)


def spatial_write_partitioned(
    ds,
    index_dir: str,
    *,
    lon_col: str = "lon",
    lat_col: str = "lat",
    grid_bits: int = 3,
) -> None:
    """Write ``ds`` hive-partitioned by Z-order bucket (``zb=N`` dirs).
    CLEAN REBUILD (a failed build's survivors would duplicate rows).  One
    file per producing block per bucket, so the build streams; grid_bits
    sizes read amplification (a bbox touching k cells reads k/4^b of the
    data) against small-file overhead."""
    import json
    import os
    import shutil

    if os.path.isdir(index_dir):
        for name in os.listdir(index_dir):
            if name.startswith("zb="):
                shutil.rmtree(os.path.join(index_dir, name))

    def tag(b: pa.Table) -> pa.Table:
        zb = zorder_bucket(
            b[lon_col].to_numpy(zero_copy_only=False),
            b[lat_col].to_numpy(zero_copy_only=False),
            grid_bits=grid_bits,
        )
        return b.append_column("zb", pa.array(zb, pa.int32()))

    ds.map_batches(tag, batch_format="pyarrow").write_parquet(
        index_dir, partition_cols=["zb"]
    )
    with open(os.path.join(index_dir, "_meta.json"), "w") as f:
        json.dump({"grid_bits": grid_bits}, f)


def bbox_buckets(
    minx: float, miny: float, maxx: float, maxy: float, *, grid_bits: int
) -> np.ndarray:
    """Z buckets whose coarse cell intersects the bbox (build/query shared
    integer math — prune decisions are exact)."""
    gx0, gy0 = _grid_coords(np.array([minx]), np.array([miny]), grid_bits)
    gx1, gy1 = _grid_coords(np.array([maxx]), np.array([maxy]), grid_bits)
    xs = np.arange(int(gx0[0]), int(gx1[0]) + 1, dtype=np.uint64)
    ys = np.arange(int(gy0[0]), int(gy1[0]) + 1, dtype=np.uint64)
    gx, gy = np.meshgrid(xs, ys)
    return np.unique(
        _interleave_bits(gx.ravel(), gy.ravel(), grid_bits).astype(np.int32)
    )


def spatial_bbox_query(
    index_dir: str,
    bbox: tuple[float, float, float, float],
    *,
    columns: list[str] | None = None,
    lon_col: str = "lon",
    lat_col: str = "lat",
    grid_bits: int | None = None,
):
    """Rows inside the (closed) bbox → Dataset.  Reads ONLY intersecting
    ``zb=`` partitions (noted as ``spatial_index.spatial_bbox_query``:
    ``buckets_probed`` / ``dirs_total`` / ``files_read``, asserted in
    tests), then applies the exact vectorized bbox filter per batch."""
    import json
    import os

    import ray.data as rd

    if grid_bits is None:
        with open(os.path.join(index_dir, "_meta.json")) as f:
            grid_bits = int(json.load(f)["grid_bits"])
    minx, miny, maxx, maxy = bbox
    buckets = bbox_buckets(minx, miny, maxx, maxy, grid_bits=grid_bits)
    paths = [
        os.path.join(d, f)
        for b in buckets.tolist()
        if os.path.isdir(d := os.path.join(index_dir, f"zb={b}"))
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    note(
        "spatial_index.spatial_bbox_query",
        buckets_probed=int(buckets.size),
        dirs_total=sum(d.startswith("zb=") for d in os.listdir(index_dir)),
        files_read=len(paths),
    )
    if not paths:
        return rd.from_arrow(
            pa.table({lon_col: pa.array([], pa.float64()),
                      lat_col: pa.array([], pa.float64())})
        )
    read_cols = columns
    if read_cols is not None:
        read_cols = list(dict.fromkeys(read_cols + [lon_col, lat_col]))
    ds = rd.read_parquet(paths, columns=read_cols)

    def precise(b: pa.Table) -> pa.Table:
        lon = b[lon_col]
        lat = b[lat_col]
        m = pc.and_(
            pc.and_(pc.greater_equal(lon, minx), pc.less_equal(lon, maxx)),
            pc.and_(pc.greater_equal(lat, miny), pc.less_equal(lat, maxy)),
        )
        out = b.filter(m)
        return out.select(columns) if columns is not None else out

    return ds.map_batches(precise, batch_format="pyarrow")
