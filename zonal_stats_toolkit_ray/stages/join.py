"""Spatial join stage: point/cell → zone assignment as stateless tasks.

Replaces the reference's ``gdal.RasterizeLayer`` FID burn + block pairing
(``/root/reference/runner.py:599-606, 634-641``) with an R-tree-accelerated
point-in-polygon test: the (small) zones table is broadcast once via
``ray.put``; each worker process deserializes it and builds a
:class:`~zonal_stats_toolkit_ray.sources.zones.ZoneSet` (STR R-tree +
rings) once, in a per-process cache (``_cached_zoneset``), not per batch.
Batches flow through :func:`spatial_join_batch` as zero-copy Arrow tables.

Semantics match the reference's pixel-center containment with
highest-FID-wins tie-break on overlap (quirks Q5, SURVEY.md §2.9).
An interior-cell shortcut (coarse cell fully inside one zone ⇒ dictionary
hit, boundary cells ⇒ PIP) amortizes across batches via the cached
ZoneSet's cell cache.

``ZoneKNN`` exposes kNN lookups against the same R-tree (north_star).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom import cellid
from ..sources.zones import ZoneSet


def _resolve_zones(zones) -> ZoneSet:
    """Accept a ZoneSet, an Arrow table, IPC bytes, or a Ray ObjectRef of any
    of those (the ObjectRef form is the broadcast-once path)."""
    try:
        import ray

        if isinstance(zones, ray.ObjectRef):
            zones = ray.get(zones)
    except ImportError:
        pass
    if isinstance(zones, ZoneSet):
        return zones
    if isinstance(zones, pa.Table):
        return ZoneSet(zones)
    if isinstance(zones, (bytes, bytearray)):
        return ZoneSet.from_ipc(bytes(zones))
    raise TypeError(f"cannot build ZoneSet from {type(zones)}")


# Per-worker-process ZoneSet cache for the stateless-task join path: a Ray
# task worker is a long-lived process reused across tasks and datasets, so
# the broadcast zones are fetched + indexed once per process — the same
# amortization an actor pool gives, WITHOUT spawning fresh processes (in
# this sandbox a new Python process pays seconds of slow page-fault
# imports, so per-run actor pools dominated small-job wall time).
_ZS_CACHE: dict = {}


def _cached_zoneset(zones) -> ZoneSet:
    try:
        import ray

        if isinstance(zones, ray.ObjectRef):
            key = zones.hex()
            zs = _ZS_CACHE.get(key)
            if zs is None:
                zs = _resolve_zones(zones)
                _ZS_CACHE.clear()  # one live zones table per worker is typical
                _ZS_CACHE[key] = zs
            return zs
    except ImportError:
        pass
    return _resolve_zones(zones)


def _join_batch(
    batch: pa.Table,
    zs: ZoneSet,
    *,
    lon_col: str,
    lat_col: str,
    cell_col: str | None,
    shortcut_res: int | None,
    drop_unassigned: bool,
) -> pa.Table:
    lon = batch[lon_col].to_numpy(zero_copy_only=False)
    lat = batch[lat_col].to_numpy(zero_copy_only=False)
    fids = None
    if shortcut_res is not None and cell_col is not None and (
        cell_col in batch.column_names
    ):
        cells = batch[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        if len(cells) and int(cellid.get_resolution(cells).min()) < shortcut_res:
            coarse = None  # cells coarser than the shortcut res: no-op
        else:
            coarse = cellid.cell_to_parent(cells, shortcut_res)
        # the per-cell dictionary path only pays when points CLUSTER (few
        # distinct coarse cells, amortized across the worker's lifetime);
        # scattered points would turn it into a per-point Python loop, so
        # fall through to the vectorized tree query
        if coarse is not None and np.unique(coarse).size <= 0.25 * coarse.size:
            fids = zs.assign_points_cached(lon, lat, coarse, fine_cells=cells)
    if fids is None:
        fids = zs.assign_points(lon, lat)
    batch = batch.append_column("zone_fid", pa.array(fids, pa.int64()))
    batch = batch.append_column("group_value", zs.groups_for_fids(fids))
    if drop_unassigned:
        batch = batch.filter(pa.compute.not_equal(batch["zone_fid"], -1))
    return batch


def spatial_join_batch(
    batch: pa.Table,
    zones,
    *,
    lon_col: str = "lon",
    lat_col: str = "lat",
    cell_col: str | None = "cell_id",
    shortcut_res: int | None = 7,
    drop_unassigned: bool = False,
) -> pa.Table:
    """Stateless-task spatial join: pass with
    ``ds.map_batches(spatial_join_batch, fn_kwargs=dict(zones=ref))``.
    The zones ObjectRef resolves through a per-worker-process cache, so the
    R-tree builds once per worker, and the stage runs on Ray's persistent
    shared task workers (no actor-pool process spin-up)."""
    zs = _cached_zoneset(zones)
    return _join_batch(
        batch,
        zs,
        lon_col=lon_col,
        lat_col=lat_col,
        cell_col=cell_col,
        shortcut_res=shortcut_res,
        drop_unassigned=drop_unassigned,
    )


class ZoneKNN:
    """map_batches actor: k nearest zones per point against the same STR
    R-tree (bbox min-distance, exact best-first).  Adds ``knn_fids``
    (list<int64>) and ``knn_dists`` (list<float64>)."""

    def __init__(self, zones, *, k: int = 3, lon_col: str = "lon", lat_col: str = "lat"):
        self.zs = _resolve_zones(zones)
        self.k = int(k)
        self.lon_col = lon_col
        self.lat_col = lat_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        part_idx, dists = self.zs.tree.knn_points(lon, lat, self.k)
        # map part indices (already item ids = row fids via tree order) — the
        # tree stores item ids == part row positions; convert to zone fids
        fids = np.where(part_idx >= 0, self.zs.fid[np.clip(part_idx, 0, None)], -1)
        n, k = fids.shape
        off = pa.array(np.arange(0, (n + 1) * k, k, dtype=np.int32))
        batch = batch.append_column(
            "knn_fids",
            pa.ListArray.from_arrays(off, pa.array(fids.ravel(), pa.int64())),
        )
        batch = batch.append_column(
            "knn_dists",
            pa.ListArray.from_arrays(off, pa.array(dists.ravel(), pa.float64())),
        )
        return batch
