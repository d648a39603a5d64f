"""Edit-distance (Levenshtein ≤ k) self-join via PassJoin segment
pigeonholing (Li, Deng, Feng — "PassJoin: A Partition-based Method for
Similarity Joins", VLDB 2011): find every string pair within edit
distance k without comparing all pairs.

Pigeonhole: partition each string r into k+1 contiguous segments.  If
ed(r, s) ≤ k, at least one segment of r appears in s VERBATIM (k edits
can destroy at most k of the k+1 segments), and its match position is
shifted by at most k.  So candidates come from an EQUALITY join:

* index side — one row per (len(r), segment-slot i, segment text);
* probe side — for every source length l ∈ [len(s) − k, len(s) + k] and
  slot i, every substring of s of that slot's length starting within
  ±k of the slot's position (a superset of PassJoin's tightened windows
  — completeness is what matters; the verify removes the rest).

Both enumerations are vectorized per distinct string length (strings of
equal length share all slice bounds, so each (length, slot, shift) is
one Arrow ``utf8_slice_codeunits`` call over that length's rows — no
per-row Python).  Candidates dedup distributed, then a vectorized
across-pairs Levenshtein DP (O(L²) iterations of pair-vector numpy ops)
verifies.  Strings shorter than k+1 can't host k+1 non-empty segments;
they fall back to an all-pairs bucket among strings of length ≤ 2k —
any match partner of such a string is itself ≤ 2k long, so the bucket
is complete and tiny.

Scale: the equality join is the one exchange (the LSH-bucket shape of
stages/dedup.py with exact completeness instead of probabilistic
recall); candidates, not the corpus, reach the verify.  All arithmetic
is on Unicode codepoints — identical to SQL ``levenshtein``/``substr``.

Reference parity: none in runner.py — data-curation surface (SURVEY §2
graft extensions).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.metrics import note
from . import guard

_KEY_SEP = "\x1f"


def _segments(length: int, k: int) -> list[tuple[int, int]]:
    """PassJoin even partition of a length-``length`` string into k+1
    (start, seg_len) slots: the first (k+1 − length % (k+1)) segments get
    the floor length, the rest the ceil."""
    m = k + 1
    base, rem = divmod(length, m)
    out = []
    pos = 0
    for i in range(m):
        ln = base + (1 if i >= m - rem else 0)
        out.append((pos, ln))
        pos += ln
    return out


def _levenshtein_pairs(a: list[str], b: list[str], cap: int = 4096) -> np.ndarray:
    """Levenshtein distance for each (a[i], b[i]) pair — the classic DP,
    vectorized ACROSS pairs: O(maxlen²) iterations of numpy ops over the
    pair axis.  ``cap`` guards the quadratic cost per pair."""
    n = len(a)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    la = np.array([len(s) for s in a], dtype=np.int64)
    lb = np.array([len(s) for s in b], dtype=np.int64)
    ma, mb = int(la.max()), int(lb.max())
    if ma > cap or mb > cap:
        raise ValueError(f"string length exceeds DP cap ({cap})")
    # codepoint matrices, padded with distinct sentinels so pad never matches
    A = np.full((n, ma), -1, dtype=np.int64)
    B = np.full((n, mb), -2, dtype=np.int64)
    for i, s in enumerate(a):
        if s:
            A[i, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    for i, s in enumerate(b):
        if s:
            B[i, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    prev = np.broadcast_to(np.arange(mb + 1, dtype=np.int64), (n, mb + 1)).copy()
    for i in range(1, ma + 1):
        cur = np.empty((n, mb + 1), dtype=np.int64)
        cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(1, mb + 1):
            cost = (ai != B[:, j - 1]).astype(np.int64)
            cur[:, j] = np.minimum(
                np.minimum(cur[:, j - 1] + 1, prev[:, j] + 1),
                prev[:, j - 1] + cost,
            )
        # rows where i > la keep their prev values (string a already ended)
        done = i > la
        if done.any():
            cur[done] = prev[done]
        prev = cur
    return prev[np.arange(n), lb]


def _index_rows(b: pa.Table, *, id_col: str, str_col: str, k: int) -> pa.Table:
    """(key, id) rows: key = len ␟ slot ␟ segment, per k+1 slots."""
    s = pc.fill_null(b[str_col], "")
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    ln = pc.utf8_length(s).to_numpy(zero_copy_only=False).astype(np.int64)
    ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    keys, out_ids = [], []
    for L in np.unique(ln):
        L = int(L)
        if L < k + 1:
            continue  # short-string fallback bucket handles these
        mask = ln == L
        sub = s.filter(pa.array(mask))
        sub_ids = ids[mask]
        for i, (pos, sl) in enumerate(_segments(L, k)):
            seg = pc.utf8_slice_codeunits(sub, pos, pos + sl)
            key = pc.binary_join_element_wise(
                pa.array([f"{L}{_KEY_SEP}{i}{_KEY_SEP}"] * len(sub)), seg, ""
            )
            keys.append(key)
            out_ids.append(sub_ids)
    if not keys:
        return pa.table(
            {"key": pa.array([], pa.string()), "rid": pa.array([], pa.int64())}
        )
    return pa.table(
        {
            "key": pa.concat_arrays([k_.combine_chunks() if isinstance(k_, pa.ChunkedArray) else k_ for k_ in keys]),
            "rid": pa.array(np.concatenate(out_ids), pa.int64()),
        }
    )


def _probe_rows(b: pa.Table, *, id_col: str, str_col: str, k: int) -> pa.Table:
    """(key, id) rows: every substring of s that could equal slot i of a
    length-l source, for l ∈ [len(s) − k, len(s) + k], start ∈ ±k of the
    slot position (clamped to valid range)."""
    s = pc.fill_null(b[str_col], "")
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    ln = pc.utf8_length(s).to_numpy(zero_copy_only=False).astype(np.int64)
    ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    keys, out_ids = [], []
    for Ls in np.unique(ln):
        Ls = int(Ls)
        mask = ln == Ls
        sub = s.filter(pa.array(mask))
        sub_ids = ids[mask]
        for l in range(max(Ls - k, k + 1), Ls + k + 1):
            for i, (pos, sl) in enumerate(_segments(l, k)):
                lo = max(pos - k, 0)
                hi = min(pos + k, Ls - sl)
                for st in range(lo, hi + 1):
                    piece = pc.utf8_slice_codeunits(sub, st, st + sl)
                    key = pc.binary_join_element_wise(
                        pa.array([f"{l}{_KEY_SEP}{i}{_KEY_SEP}"] * len(sub)),
                        piece,
                        "",
                    )
                    keys.append(key)
                    out_ids.append(sub_ids)
    if not keys:
        return pa.table(
            {"key": pa.array([], pa.string()), "pid": pa.array([], pa.int64())}
        )
    return pa.table(
        {
            "key": pa.concat_arrays([k_.combine_chunks() if isinstance(k_, pa.ChunkedArray) else k_ for k_ in keys]),
            "pid": pa.array(np.concatenate(out_ids), pa.int64()),
        }
    )


def edit_distance_join(
    ds,
    *,
    id_col: str = "doc_id",
    str_col: str = "s",
    k: int = 2,
) -> pd.DataFrame:
    """All pairs (a < b) with ``levenshtein ≤ k`` → DataFrame(a, b, dist),
    sorted.  See the module docstring for the PassJoin shape.

    The verify's payload attach is dual-regime: id → string dict
    broadcasts within ``guard.DRIVER_ROWS`` ids; above it the
    strings hash-join onto the pair Dataset (the stages/dedup.py
    join-verify shape)."""
    import ray
    from ray.data.aggregate import Count

    from .joins import distinct_rows, hash_join

    slim = ds.select_columns([id_col, str_col]).materialize()  # one upstream read
    idx = slim.map_batches(
        _index_rows,
        batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "str_col": str_col, "k": k},
    )
    prb = slim.map_batches(
        _probe_rows,
        batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "str_col": str_col, "k": k},
    )
    joined = hash_join(idx, prb, on="key", how="inner", broadcast=False)

    def canon(t: pa.Table) -> pa.Table:
        if "rid" not in t.column_names:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
            )
        r = t["rid"].to_numpy(zero_copy_only=False)
        p = t["pid"].to_numpy(zero_copy_only=False)
        ne = r != p
        r, p = r[ne], p[ne]
        return pa.table(
            {
                "a": pa.array(np.minimum(r, p), pa.int64()),
                "b": pa.array(np.maximum(r, p), pa.int64()),
            }
        )

    pairs = distinct_rows(
        joined.map_batches(canon, batch_format="pyarrow"),
        ["a", "b"],
    ).to_pandas()

    # short-string fallback: strings with len < k+1 all-pair against the
    # ≤ 2k-length bucket (their only possible partners)
    def shorts(t: pa.Table) -> pa.Table:
        ln = pc.utf8_length(pc.fill_null(t[str_col], ""))
        return t.filter(pc.less_equal(ln, 2 * k))

    sh = slim.map_batches(shorts, batch_format="pyarrow").to_pandas()
    if len(sh):
        tiny_ids = sh[id_col].to_numpy()
        has_tiny = (
            pc.utf8_length(pa.array(sh[str_col].astype(str))).to_numpy(
                zero_copy_only=False
            )
            < k + 1
        ).any()
        if has_tiny:
            ii, jj = np.triu_indices(len(tiny_ids), 1)
            extra = pd.DataFrame(
                {
                    "a": np.minimum(tiny_ids[ii], tiny_ids[jj]),
                    "b": np.maximum(tiny_ids[ii], tiny_ids[jj]),
                }
            )
            pairs = pd.concat([pairs, extra], ignore_index=True).drop_duplicates()

    n_cand = len(pairs)
    n_ids = slim.count()
    if n_ids <= guard.DRIVER_ROWS:
        regime = "broadcast"
        pl = slim.to_pandas()
        lut = dict(zip(pl[id_col].to_numpy(), pl[str_col].astype(str)))
        sa = [lut[i] for i in pairs["a"]]
        sb = [lut[i] for i in pairs["b"]]
    else:
        regime = "join"
        import ray.data as rd

        pds = rd.from_pandas(pairs) if len(pairs) else None
        if pds is None:
            sa, sb = [], []
        else:
            # both build sides hold the n_ids > guard.DRIVER_ROWS payload
            # rows, so hash_join's broadcast probe could only say no
            j1 = hash_join(
                pds, slim, on="a", right_on=id_col, how="inner", broadcast=False
            )
            j2 = hash_join(
                j1, slim.map_batches(
                    lambda t: t.rename_columns([id_col, f"{str_col}_b"]),
                    batch_format="pyarrow",
                ),
                on="b",
                right_on=id_col,
                how="inner",
                broadcast=False,
            ).to_pandas()
            pairs = j2[["a", "b"]].reset_index(drop=True)
            sa = j2[str_col].astype(str).tolist()
            sb = j2[f"{str_col}_b"].astype(str).tolist()
    if len(pairs):
        dist = _levenshtein_pairs(sa, sb)
        keep = dist <= k
        out = pd.DataFrame(
            {
                "a": pairs["a"].to_numpy()[keep],
                "b": pairs["b"].to_numpy()[keep],
                "dist": dist[keep].astype(np.int64),
            }
        )
    else:
        out = pd.DataFrame({"a": [], "b": [], "dist": []}, dtype=np.int64)
    note(
        "editjoin.edit_distance_join",
        candidate_pairs=int(n_cand), matched_pairs=len(out), regime=regime,
    )
    return out.sort_values(["a", "b"]).reset_index(drop=True)
