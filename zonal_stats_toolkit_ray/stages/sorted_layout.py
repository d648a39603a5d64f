"""Range-sorted Parquet layout with a min/max manifest — the sort-order
file-pruning pattern (Iceberg/Delta "zone maps" for one sort key): data
is written as one file per sorted block plus a manifest of per-file
[min, max] key ranges; a range query reads ONLY the overlapping files
(binary-search over the manifest), then applies the exact filter.

Completes the storage-layout trio: hash buckets (stages/invindex.py),
Z-order space (stages/spatial_index.py), and now a linear sort key.

Write: ONE range sort (Ray's sort, so a hot key spans files instead of
bloating one), then a ``batch_size=None`` pass where each task writes its
own block file (streaming — no driver materialization) and returns a
(file, min, max, rows) manifest row; the driver persists the tiny
manifest atomically.  Clean rebuild (the invindex rationale: appending
into a failed build's survivors would duplicate rows).

Read: manifest rows are sorted and non-overlapping-ish (block ranges may
touch at boundaries); ``range_read`` selects files with
``file_max >= lo AND file_min <= hi`` and records pruning telemetry.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.metrics import note

MANIFEST = "_manifest.json"


def sorted_layout_write(ds, out_dir: str, *, key_col: str) -> dict:
    """Write the range-sorted layout → manifest dict (also persisted)."""
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.endswith(".parquet") or name == MANIFEST:
                os.remove(os.path.join(out_dir, name))
    os.makedirs(out_dir, exist_ok=True)
    srt = ds.sort(key_col).materialize()

    def write_block(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table(
                {
                    "file": pa.array([], pa.string()),
                    "min": pa.array([], pa.float64()),
                    "max": pa.array([], pa.float64()),
                    "rows": pa.array([], pa.int64()),
                }
            )
        k = pc.cast(b[key_col], pa.float64()).to_numpy(zero_copy_only=False)
        name = f"part-{uuid.uuid4().hex}.parquet"
        pq.write_table(b, os.path.join(out_dir, name))
        # NaN keys sort last, so k[-1] can be NaN — record FINITE bounds
        # (nanmin/nanmax) or ±inf for an all-NaN file so `e["max"] >= lo`
        # never wrongly prunes the file holding the largest finite keys
        # (ADVICE r4).  range_read's [lo, hi] is a finite interval, so an
        # all-NaN file (bounds -inf/+inf here) is read and its NaN rows are
        # dropped by the row filter — conservative, never wrong.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            kmin, kmax = np.nanmin(k), np.nanmax(k)
        if np.isnan(kmin):  # all-NaN file
            kmin, kmax = -np.inf, np.inf
        return pa.table(
            {
                "file": pa.array([name], pa.string()),
                "min": pa.array([float(kmin)], pa.float64()),
                "max": pa.array([float(kmax)], pa.float64()),
                "rows": pa.array([len(b)], pa.int64()),
            }
        )

    entries = (
        srt.map_batches(write_block, batch_size=None, batch_format="pyarrow")
        .to_pandas()  # files-sized
        .sort_values("min", kind="stable")
        .reset_index(drop=True)
    )
    manifest = {
        "key_col": key_col,
        "files": entries.to_dict("records"),
    }
    tmp = os.path.join(out_dir, MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(out_dir, MANIFEST))
    return manifest


def range_read(
    out_dir: str,
    lo: float,
    hi: float,
):
    """Dataset of rows with ``lo <= key <= hi``, reading ONLY manifest
    files whose [min, max] overlaps — pruning at the read (noted as
    ``sorted_layout.range_read``: ``files_total`` / ``files_read``)."""
    import ray.data as rd

    with open(os.path.join(out_dir, MANIFEST)) as f:
        manifest = json.load(f)
    key_col = manifest["key_col"]
    files = manifest["files"]
    hit = [e for e in files if e["max"] >= lo and e["min"] <= hi]
    note("sorted_layout.range_read", files_total=len(files), files_read=len(hit))
    if not hit:
        return rd.from_items([])  # empty
    ds = rd.read_parquet([os.path.join(out_dir, e["file"]) for e in hit])
    return ds.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t[key_col], lo), pc.less_equal(t[key_col], hi)
            )
        ),
        batch_format="pyarrow",
    )
