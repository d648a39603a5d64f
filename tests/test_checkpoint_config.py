"""Checkpoint/resume semantics, config validation parity, and the
config-driven multi-job runner (CSV end-to-end)."""

import csv
import shutil
from pathlib import Path

import numpy as np
import pytest

from zonal_stats_toolkit_ray.geom.window import GridSpec
from zonal_stats_toolkit_ray.sources.config import ConfigError, parse_and_validate_config
from zonal_stats_toolkit_ray.sources.raster import write_tiles
from zonal_stats_toolkit_ray.sources.zones import synth_zones
from zonal_stats_toolkit_ray.state import metrics
from zonal_stats_toolkit_ray.state.checkpoint import CheckpointManifest, fingerprint, run_partitioned

GRID = GridSpec(
    x0=-180.0, y0=90.0, dx=3.75, dy=-3.75, width=96, height=48,
    nodata=-9999.0, tile_size=32,
)


class TestCheckpoint:
    def test_resume_skips_completed(self, tmp_path):
        calls = []

        def run(spec, out_dir):
            calls.append(spec)
            (Path(out_dir) / "data.txt").write_text(str(spec))
            return {"rows": spec}

        parts = [(f"p{i}", i) for i in range(5)]
        r1 = run_partitioned(parts, run, tmp_path / "out")
        assert r1["completed"] == [f"p{i}" for i in range(5)]
        assert len(calls) == 5

        # rerun: everything skipped, outputs untouched
        r2 = run_partitioned(parts, run, tmp_path / "out")
        assert r2["completed"] == [] and len(r2["skipped"]) == 5
        assert len(calls) == 5

    def test_kill_and_resume(self, tmp_path):
        """FIXTURES.md invariant 6: kill after K partitions → rerun
        recomputes only the remainder; output identical."""
        calls = []

        def run_fail_after_2(spec, out_dir):
            if len(calls) >= 2:
                raise RuntimeError("killed")
            calls.append(spec)
            (Path(out_dir) / "data.txt").write_text(str(spec))
            return {"rows": spec}

        parts = [(f"p{i}", i) for i in range(4)]
        with pytest.raises(RuntimeError):
            run_partitioned(parts, run_fail_after_2, tmp_path / "out")
        assert len(calls) == 2

        def run_ok(spec, out_dir):
            calls.append(spec)
            (Path(out_dir) / "data.txt").write_text(str(spec))
            return {"rows": spec}

        r = run_partitioned(parts, run_ok, tmp_path / "out")
        assert len(r["skipped"]) == 2 and len(r["completed"]) == 2
        assert len(calls) == 4  # only the remainder recomputed
        for i in range(4):
            assert (tmp_path / "out" / f"p=p{i}".replace("p=", "part=") / "data.txt").read_text() == str(i)

    def test_stale_fingerprint_recomputes(self, tmp_path):
        def run(spec, out_dir):
            (Path(out_dir) / "d").write_text("x")
            return {}

        run_partitioned([("a", 1)], run, tmp_path / "o", code_version="v1")
        r = run_partitioned([("a", 2)], run, tmp_path / "o", code_version="v1")
        assert r["completed"] == ["a"]  # spec changed → fingerprint changed
        r = run_partitioned([("a", 2)], run, tmp_path / "o", code_version="v2")
        assert r["completed"] == ["a"]  # code changed → recompute

    def test_manifest_records_metrics(self, tmp_path):
        def run(spec, out_dir):
            (Path(out_dir) / "d").write_text("x")
            return {"rows": 42, "stage_metrics": {"join": {"wall_s": 1.0}}}

        run_partitioned([("a", 1)], run, tmp_path / "o")
        rec = CheckpointManifest(tmp_path / "o").load()["a"]
        assert rec["rows"] == 42 and "wall_s" in rec
        assert rec["stage_metrics"]["join"]["wall_s"] == 1.0


@pytest.fixture(scope="module")
def config_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    zones = synth_zones(seed=42, n_zones=12)
    import pyarrow.parquet as pq

    zpath = root / "zones.parquet"
    pq.write_table(zones, zpath)
    write_tiles(str(root / "rasterA.parquet"), GRID, seed=1)
    write_tiles(str(root / "rasterB.parquet"), GRID, seed=2)
    (root / "work").mkdir()
    (root / "out").mkdir()
    cfg = root / "myproj.ini"
    cfg.write_text(
        f"""[project]
name = myproj
global_work_dir = {root}/work
global_output_dir = {root}/out
log_level = INFO

[job:biomes]
agg_vector = {zpath}
agg_field = group_value
operations = avg,stdev,valid_count,total_count,p5,p95,median,p2.5
row_col_order = agg_field,base_raster
base_raster_pattern = {root}/raster*.parquet
"""
    )
    return root, cfg


class TestConfig:
    def test_valid_config(self, config_env):
        root, cfg = config_env
        parsed = parse_and_validate_config(cfg)
        job = parsed["job_list"][0]
        assert job["tag"] == "biomes"
        assert len(job["base_raster_path_list"]) == 2
        # quirk Q1: median validated but only pN mined
        assert job["percentile_list"] == [5.0, 95.0, 2.5]

    def test_name_stem_mismatch(self, config_env, tmp_path):
        root, cfg = config_env
        bad = tmp_path / "other.ini"
        bad.write_text(cfg.read_text())
        with pytest.raises(ConfigError, match="stem"):
            parse_and_validate_config(bad)

    def test_duplicate_tag(self, config_env, tmp_path):
        root, cfg = config_env
        text = cfg.read_text().replace("myproj", "dup")
        bad = tmp_path / "dup.ini"
        bad.write_text(text + "\n[job:biomes]\nagg_vector = x\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_and_validate_config(bad)

    def test_invalid_operation(self, config_env, tmp_path):
        root, cfg = config_env
        bad = tmp_path / "badop.ini"
        bad.write_text(cfg.read_text().replace("avg,", "bogus,").replace("myproj", "badop"))
        with pytest.raises(ValueError):
            parse_and_validate_config(bad)

    def test_missing_pattern(self, config_env, tmp_path):
        root, cfg = config_env
        bad = tmp_path / "nopat.ini"
        bad.write_text(
            cfg.read_text()
            .replace("raster*.parquet", "nonexistent*.parquet")
            .replace("myproj", "nopat")
        )
        with pytest.raises(ConfigError, match="matched no files"):
            parse_and_validate_config(bad)


def test_run_config_end_to_end(ray_session, config_env):
    from zonal_stats_toolkit_ray.pipelines.runner import run_config
    from zonal_stats_toolkit_ray.sources.raster import dense_array
    from golden_oracle import oracle_zonal_statistics
    import pyarrow.parquet as pq

    root, cfg = config_env
    outs = run_config(str(cfg), timestamp="2026_01_01_00_00_00")
    assert len(outs) == 1
    out = outs[0]
    assert out.name == "biomes_2026_01_01_00_00_00.csv"
    with out.open() as f:
        rows = list(csv.DictReader(f))
    # cross-check one cell against the oracle (run_job applies the Q6
    # half-pixel simplify by default, so the oracle gets the same zones)
    from zonal_stats_toolkit_ray.geom.simplify import simplify_zones_table

    zones = simplify_zones_table(
        pq.read_table(root / "zones.parquet"), 0.5 * abs(GRID.dx)
    )
    want = oracle_zonal_statistics(dense_array(GRID, seed=1), GRID, zones, [5.0, 95.0, 2.5])
    groups = sorted(want, key=lambda v: (v is None, str(v)))
    assert [r["group_value"] for r in rows] == [
        "" if g is None else str(g) for g in groups
    ]
    g0 = groups[0]
    assert np.isclose(float(rows[0]["sum_rasterA"]), want[g0]["sum"])
    assert int(rows[0]["count_rasterA"]) == want[g0]["count"]
    assert "p2.5_rasterB" in rows[0]


def test_run_config_two_jobs_concurrent(ray_session, config_env):
    """VERDICT item 9: ≥2 jobs run concurrently (reference parity with one
    process per [job:*], runner.py:1075-1077) and produce the same CSVs as
    a serial run; both jobs reduce percentiles, so two percentile tasks
    run at once."""
    from zonal_stats_toolkit_ray.pipelines.runner import run_config

    root, cfg = config_env
    two = root / "twojobs.ini"
    text = cfg.read_text().replace("myproj", "twojobs")
    text += """
[job:second]
agg_vector = %s
agg_field = group_value
operations = avg,valid_count,p50
row_col_order = base_raster,agg_field
base_raster_pattern = %s/rasterA.parquet
""" % (root / "zones.parquet", root)
    two.write_text(text)

    with metrics.recording() as rec:
        outs = run_config(str(two), timestamp="2026_01_02_00_00_00")
    # the job threads run in copies of this context: one record holds the
    # spans of both jobs
    spans = {(s["job"], s["stage"]) for s in rec.all("runner.run_job")}
    assert {("biomes", "csv_write"), ("second", "csv_write")} <= spans
    assert {job for job, _ in spans} == {"biomes", "second"}
    assert [o.name for o in outs] == [
        "biomes_2026_01_02_00_00_00.csv",
        "second_2026_01_02_00_00_00.csv",
    ]
    concurrent_content = [o.read_text() for o in outs]

    outs_serial = run_config(
        str(two), timestamp="2026_01_03_00_00_00", concurrent_jobs=1
    )
    serial_content = [o.read_text() for o in outs_serial]
    assert concurrent_content == serial_content
