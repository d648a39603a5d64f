"""A job's ``agg_field`` picks the zones column its rows are grouped by:
two jobs on one zones file that differ only in ``agg_field`` each match
the label-raster oracle of ``perfbench/oracle.py`` for their own column."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import gen, oracle
from zonal_stats_toolkit_ray.geom.simplify import simplify_zones_table
from zonal_stats_toolkit_ray.sources.config import parse_and_validate_config
from zonal_stats_toolkit_ray.sources.zones import synth_zones

PLIST = [5.0, 50.0, 95.0]


def _expected_cells(zones, grid, rasters, field):
    zones = zones.set_column(
        zones.schema.get_field_index("group_value"), "group_value", zones[field]
    )
    simple = simplify_zones_table(zones, 0.5 * abs(grid.dx))
    lab = oracle.label_raster(simple, grid)
    stats = {
        p.stem: oracle.raster_group_stats(
            simple, lab, oracle.dense_values(p, grid), grid, PLIST
        )
        for p in rasters
    }
    return oracle.pivot_cells(stats, [p.stem for p in rasters], "agg_field,base_raster")


def test_agg_field_groups_by_its_column(ray_session, tmp_path):
    from zonal_stats_toolkit_ray.pipelines.runner import run_job

    grid = gen.world_grid(192, tile_size=64)
    zones = synth_zones(seed=42, n_zones=24)
    # a coarser zones attribute: three labels and a null, constant per FID
    labels = np.array(["north", "south", "west", None], dtype=object)
    continent = pa.array(labels[zones["zone_fid"].to_numpy() % 4].tolist(), pa.string())
    zones = zones.append_column("continent", continent)
    pq.write_table(zones, tmp_path / "zones.parquet")
    rasters = gen.write_rasters(tmp_path, grid, seed=3, n=2)
    jobs = "".join(
        f"[job:{field}]\n"
        f"agg_vector = {tmp_path / 'zones.parquet'}\n"
        f"agg_field = {field}\n"
        "operations = min,max,avg,sum,total_count,valid_count,stdev,p5,p50,p95\n"
        "row_col_order = agg_field,base_raster\n"
        f"base_raster_pattern = {tmp_path / 'raster*.parquet'}\n\n"
        for field in ("group_value", "continent")
    )
    cfg = tmp_path / "agg.ini"
    cfg.write_text(
        "[project]\nname = agg\n"
        f"global_work_dir = {tmp_path / 'work'}\n"
        f"global_output_dir = {tmp_path / 'out'}\n\n" + jobs
    )
    got = {
        job["agg_field"]: oracle.read_pivot_csv(run_job(job))
        for job in parse_and_validate_config(str(cfg))["job_list"]
    }
    for field in ("group_value", "continent"):
        assert oracle.same_cells(got[field], _expected_cells(zones, grid, rasters, field)), field
    assert {r for r, _ in got["continent"]} == {"north", "south", "west", ""}
    assert pc.count_distinct(zones["group_value"]).as_py() > 4
