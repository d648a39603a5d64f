"""Multi-job driver: config → N zonal-stats jobs → pivoted CSVs.

The engine's analogue of the reference's ``main()`` + ``run_zonal_stats_job``
(``runner.py:929-1101`` in the reference): parse/validate the INI config,
then run each job — zonal statistics of every raster (tiles parquet) in
the job's glob list, rasters that share a grid and tile layout read,
burned and reduced together as bands of one tile pass — and pivot per
``row_col_order`` into ``<stem>_<timestamp>.csv``.  Jobs run as
concurrent driver threads on one Ray session (``run_config``; the
reference used one OS process per job, ``runner.py:1075-1077``).  The
timestamp is injectable for deterministic tests (``runner.py:1079-1091``
uses wall clock).
"""

from __future__ import annotations

from pathlib import Path

from ..sources.config import parse_and_validate_config
from ..sources.raster import group_rasters, read_bands
from ..state.metrics import span

# zonal_stats_raster: perfbench/trace.py patches it under this module too
from .zonal import pivot_stats, simplified_zones, write_pivot_csv, zonal_stats_bands
from .zonal import zonal_stats_raster  # noqa: F401


def run_job(job: dict, *, timestamp: str | None = None) -> Path:
    """One job: rasters → band groups (``group_rasters``: same grid but
    nodata, same tile layout) → one ``zonal_stats_bands`` pass per group
    → pivot → CSV.  Returns the CSV path (timestamped like
    ``runner.py:1079-1091`` when a timestamp is given).  Notes a
    ``runner.run_job`` span per band group and one for the CSV write."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    name = Path(job["output_csv"]).stem
    zones_table = pq.read_table(job["agg_vector"])
    agg = job["agg_field"]
    if agg != "group_value":
        # group by the job's zones column (as strings, nulls kept): the
        # ZoneSet and the pivot read ``group_value``
        groups = pc.cast(zones_table[agg], pa.string())
        if "group_value" in zones_table.column_names:
            zones_table = zones_table.drop_columns(["group_value"])
        zones_table = zones_table.append_column("group_value", groups)
    # quirk Q6: the reference simplifies the vector at half a pixel before
    # rasterizing each raster (runner.py:297-298, 349-365).  The tolerance
    # is grid-bound, so rasters that share a pixel width share one
    # simplified ZoneSet and one broadcast (workers cache it by ref).
    zones_by_tol: dict[float, tuple] = {}

    paths = job["base_raster_path_list"]
    stems = [Path(p).stem for p in paths]
    raster_stats_by_stem: dict[str, dict] = {}
    for grid, members, nodata, units in group_rasters(paths):
        tol = 0.5 * abs(grid.dx)
        if tol not in zones_by_tol:
            zones_by_tol[tol] = simplified_zones(zones_table, tol)
        zs, zones_ref = zones_by_tol[tol]
        rasters = [stems[i] for i in members]
        with span("runner.run_job", job=name, stage="zonal", rasters=rasters):
            bands = zonal_stats_bands(
                read_bands(units), grid, tuple(nodata), zs,
                percentiles=job["percentile_list"], zones_ref=zones_ref,
            )
        raster_stats_by_stem.update(zip(rasters, bands))

    header, rows = pivot_stats(raster_stats_by_stem, stems, job["row_col_order"], agg)
    out = Path(job["output_csv"])
    if timestamp:
        out = out.with_name(f"{out.stem}_{timestamp}{out.suffix}")
    with span("runner.run_job", job=name, stage="csv_write"):
        write_pivot_csv(out, header, rows)
    return out


def run_config(
    cfg_path: str,
    *,
    timestamp: str | None = None,
    concurrent_jobs: int | None = None,
) -> list[Path]:
    """Parse + validate + run every job in the config.  The caller owns the
    Ray session (driver contract).

    Jobs run CONCURRENTLY (reference parity: one worker process per
    ``[job:*]`` section, ``runner.py:1075-1077``) — here as driver threads
    each driving its own Ray Data pipeline, so N small jobs overlap instead
    of serializing; the Ray scheduler interleaves their tasks.  Output
    order matches config order regardless of completion order.
    ``concurrent_jobs=1`` restores serial execution.  Each job runs in a
    copy of the caller's context, so its notes reach the caller's record."""
    cfg = parse_and_validate_config(cfg_path)
    jobs = cfg["job_list"]
    if concurrent_jobs is None:
        concurrent_jobs = len(jobs)
    if concurrent_jobs <= 1 or len(jobs) <= 1:
        return [run_job(job, timestamp=timestamp) for job in jobs]
    from concurrent.futures import ThreadPoolExecutor
    from contextvars import copy_context

    from ..state.resources import warm_lazy_imports

    warm_lazy_imports()

    with ThreadPoolExecutor(max_workers=concurrent_jobs) as ex:
        futs = [ex.submit(copy_context().run, run_job, job, timestamp=timestamp) for job in jobs]
        return [f.result() for f in futs]
