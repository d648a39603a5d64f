"""Checkpointed, resumable pages-zonal job — the 100-TB blueprint.

Output layout (ray_guide "Sources & sinks" + north_rule resume):

    out_dir/
      part=<pid>/joined/*.parquet   # joined pages (url, …, zone_fid, group_value)
      part=<pid>/partials/*.parquet # per-batch zonal partials for this shard
      manifest.jsonl                # lineage: fingerprint, rows, wall_s, metrics

Each partition is one shard of the input (here: a ``doc_id % N`` slice of
one file; at scale: one input file / row-group range per partition).  A
killed run resumes by skipping manifest-complete partitions (anti-join of
the partition list vs the manifest — see state/checkpoint.py) and the
final reduce reads only the small partials, so completed shards are never
re-joined.

A partition's maps fuse into ``join_points``' tasks of ``guard.TASK_ROWS``
rows read or more, not one task per read block.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.pages import docs_batch_to_pages
from ..sources.zones import ZoneSet
from ..stages import zonal as Z
from ..state.checkpoint import run_partitioned
from .zonal import _all_group_keys, join_points


def _run_partition(spec: dict, out_dir: str) -> dict:
    import ray.data as rd

    ds = rd.read_parquet(
        spec["docs_path"], columns=["doc_id", "text", "lang", "source"]
    )
    pid, n = spec["mod"], spec["n_partitions"]

    def shard(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % n == pid))

    ds = ds.map_batches(shard, batch_format="pyarrow")
    pages = ds.map_batches(docs_batch_to_pages, batch_format="pyarrow")
    pages = pages.map_batches(
        lambda t: t.append_column(
            "value", pc.cast(pc.utf8_length(t["text"]), pa.float64())
        ),
        batch_format="pyarrow",
    )
    zones_table = pa.ipc.open_stream(Path(spec["zones_ipc"]).read_bytes()).read_all()
    joined = join_points(pages, zones_table)
    joined = joined.materialize()
    joined.write_parquet(f"{out_dir}/joined")
    partials = joined.map_batches(
        Z.partial_stats_batch,
        batch_format="pyarrow",
        fn_kwargs={"value_col": "value"},
    )
    partials.write_parquet(f"{out_dir}/partials")
    return {"rows": joined.count()}


def run_pages_job(
    docs_path: str,
    zones_table: pa.Table,
    out_dir: str,
    *,
    n_partitions: int = 4,
    concurrency: int = 2,
    partition_concurrency: int = 1,
) -> dict:
    """Partitioned, resumable run.  Returns the final grouped-stats frame
    plus the checkpoint report.

    ``partition_concurrency > 1`` overlaps that many partitions (driver
    threads; manifest/publish are concurrency-safe, see
    state/checkpoint.py) — at 100-TB scale partitions are the unit of both
    parallelism and resume, so they must not serialize.

    ``concurrency`` is read by no stage; it stays in each partition spec
    so the spec fingerprints of existing outputs (and thus their resume)
    do not change."""
    import hashlib

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    zones_ipc = out / "zones.arrow"
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, zones_table.schema) as w:
        w.write_table(zones_table)
    ipc_bytes = sink.getvalue().to_pybytes()
    zones_sha = hashlib.sha256(ipc_bytes).hexdigest()[:16]
    # rewrite when the passed table differs — a rerun into the same out_dir
    # with different zones must not silently reuse the stale file (and the
    # content hash below feeds the partition fingerprint so manifest entries
    # from the old zones are invalidated too)
    if not zones_ipc.exists() or (
        hashlib.sha256(zones_ipc.read_bytes()).hexdigest()[:16] != zones_sha
    ):
        zones_ipc.write_bytes(ipc_bytes)

    docs_p = Path(docs_path)
    docs_stat = (
        {"size": docs_p.stat().st_size, "mtime_ns": docs_p.stat().st_mtime_ns}
        if docs_p.is_file()
        else None
    )

    parts = [
        (
            f"mod{i:03d}",
            {
                "docs_path": docs_path,
                "docs_stat": docs_stat,
                "mod": i,
                "n_partitions": n_partitions,
                "zones_ipc": str(zones_ipc),
                "zones_sha": zones_sha,
                "concurrency": concurrency,
            },
        )
        for i in range(n_partitions)
    ]
    report = run_partitioned(
        parts, _run_partition, out, max_concurrent=partition_concurrency
    )

    # final reduce over the (tiny) per-partition partials only — restricted
    # to THIS run's partition ids: a rerun into the same out_dir with a
    # smaller n_partitions must not silently merge orphan part=* dirs left
    # by the previous partitioning (double-counting rows)
    import ray.data as rd

    partial_paths = sorted(
        str(p)
        for pid, _ in parts
        for p in out.glob(f"part={pid}/partials/*.parquet")
    )
    partials = rd.read_parquet(partial_paths)
    merged = Z.reduce_partials(partials)
    zs = ZoneSet(zones_table)
    stats = Z.finalize_group_stats(merged, all_group_keys=_all_group_keys(zs))
    return {"stats": stats, "report": report}
