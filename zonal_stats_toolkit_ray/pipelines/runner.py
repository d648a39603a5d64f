"""Multi-job driver: config → N zonal-stats jobs → pivoted CSVs.

The engine's analogue of the reference's ``main()`` + ``run_zonal_stats_job``
(``/root/reference/runner.py:929-1101``): parse/validate the INI config,
then run each job — for every raster (tiles parquet) in the job's glob
list, compute full-quirk zonal statistics and pivot per ``row_col_order``
into ``<stem>_<timestamp>.csv``.  Jobs run sequentially on one Ray session
(intra-job parallelism comes from Ray Data; the reference instead used one
OS process per job, ``runner.py:1075-1077``).  The timestamp is injectable
for deterministic tests (``runner.py:1079-1091`` uses wall clock).
"""

from __future__ import annotations

from pathlib import Path

from ..sources.config import parse_and_validate_config
from ..sources.raster import read_grid_spec
from ..state.metrics import StageMetrics
from .zonal import pivot_stats, simplified_zones, write_pivot_csv, zonal_stats_raster


def run_job(job: dict, *, timestamp: str | None = None, metrics: StageMetrics | None = None) -> Path:
    """One job: loop rasters → zonal stats → pivot → CSV.  Returns the CSV
    path (timestamped like ``runner.py:1079-1091`` when a timestamp is
    given)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    metrics = metrics or StageMetrics()
    zones_table = pq.read_table(job["agg_vector"])
    # quirk Q6: the reference simplifies the vector at half a pixel before
    # rasterizing each raster (runner.py:297-298, 349-365).  The tolerance
    # is grid-bound, so rasters that share a pixel width share one
    # simplified ZoneSet and one broadcast (workers cache it by ref).
    zones_by_tol: dict[float, tuple] = {}

    raster_stats_by_stem: dict[str, dict] = {}
    stems: list[str] = []
    for raster_path in job["base_raster_path_list"]:
        stem = Path(raster_path).stem
        stems.append(stem)
        grid = read_grid_spec(raster_path)
        tol = 0.5 * abs(grid.dx)
        if tol not in zones_by_tol:
            zones_by_tol[tol] = simplified_zones(zones_table, tol)
        zs, zones_ref = zones_by_tol[tol]
        tiles = rd.read_parquet(raster_path)
        with metrics.timed(f"zonal:{stem}"):
            raster_stats_by_stem[stem] = zonal_stats_raster(
                tiles,
                grid,
                zs,
                percentiles=job["percentile_list"],
                zones_ref=zones_ref,
            )

    header, rows = pivot_stats(
        raster_stats_by_stem, stems, job["row_col_order"], job["agg_field"]
    )
    out = Path(job["output_csv"])
    if timestamp:
        out = out.with_name(f"{out.stem}_{timestamp}{out.suffix}")
    with metrics.timed("csv_write"):
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
    ``concurrent_jobs=1`` restores serial execution."""
    cfg = parse_and_validate_config(cfg_path)
    jobs = cfg["job_list"]
    if concurrent_jobs is None:
        concurrent_jobs = len(jobs)
    if concurrent_jobs <= 1 or len(jobs) <= 1:
        return [run_job(job, timestamp=timestamp) for job in jobs]
    from concurrent.futures import ThreadPoolExecutor

    from ..state.resources import warm_lazy_imports

    warm_lazy_imports()

    with ThreadPoolExecutor(max_workers=concurrent_jobs) as ex:
        futs = [ex.submit(run_job, job, timestamp=timestamp) for job in jobs]
        return [f.result() for f in futs]
