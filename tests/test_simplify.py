"""Douglas-Peucker ring simplification (reference M2/Q6 parity)."""

import numpy as np

from zonal_stats_toolkit_ray.geom.pip import points_in_ring
from zonal_stats_toolkit_ray.geom.simplify import _simplify_flat, simplify_zones_table
from zonal_stats_toolkit_ray.sources.zones import synth_zones


def simplify_ring(ring_x, ring_y, tolerance):
    """One ring through the table kernel → (x, y), closing vertex absent."""
    rx = np.asarray(ring_x, dtype=np.float64)
    ry = np.asarray(ring_y, dtype=np.float64)
    return _simplify_flat(rx, ry, np.array([rx.size]), tolerance)[:2]


def test_collinear_points_removed():
    # square with redundant midpoints on each edge
    rx = np.array([0.0, 5.0, 10.0, 10.0, 10.0, 5.0, 0.0, 0.0])
    ry = np.array([0.0, 0.0, 0.0, 5.0, 10.0, 10.0, 10.0, 5.0])
    sx, sy = simplify_ring(rx, ry, 0.01)
    assert sx.size == 4
    assert set(zip(sx.tolist(), sy.tolist())) == {
        (0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0),
    }


def test_zero_tolerance_noop():
    rng = np.random.default_rng(2)
    ang = np.sort(rng.uniform(0, 2 * np.pi, 12))
    rx, ry = 5 * np.cos(ang), 5 * np.sin(ang)
    sx, sy = simplify_ring(rx, ry, 0.0)
    assert sx.size == 12


def test_containment_mostly_preserved():
    rng = np.random.default_rng(3)
    ang = np.sort(rng.uniform(0, 2 * np.pi, 64))
    rx, ry = 10 * np.cos(ang), 10 * np.sin(ang)
    sx, sy = simplify_ring(rx, ry, 0.05)
    assert 3 <= sx.size < 64
    px = rng.uniform(-11, 11, 3000)
    py = rng.uniform(-11, 11, 3000)
    a = points_in_ring(px, py, rx, ry)
    b = points_in_ring(px, py, sx, sy)
    # tolerance 0.05 on a radius-10 circle: <2% of samples may flip
    assert (a != b).mean() < 0.02


def test_simplify_zones_table_shapes():
    zt = synth_zones(seed=42, n_zones=8)
    st = simplify_zones_table(zt, 0.5)
    assert st.num_rows == zt.num_rows
    assert st["zone_fid"].to_pylist() == zt["zone_fid"].to_pylist()
    for r0, r1 in zip(zt["ring_x"].to_pylist(), st["ring_x"].to_pylist()):
        assert len(r1) <= len(r0) + 1


# --- the per-segment stack recursion the batched kernel replaced, verbatim:
# the reference for bit-identity -------------------------------------------


def _dp_mask(x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Iterative Douglas-Peucker keep-mask for an open polyline."""
    n = x.size
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    tol2 = tol * tol
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        ax, ay = x[i], y[i]
        bx, by = x[j], y[j]
        dx, dy = bx - ax, by - ay
        seg2 = dx * dx + dy * dy
        px = x[i + 1 : j]
        py = y[i + 1 : j]
        if seg2 == 0.0:
            d2 = (px - ax) ** 2 + (py - ay) ** 2
        else:
            t = ((px - ax) * dx + (py - ay) * dy) / seg2
            t = np.clip(t, 0.0, 1.0)
            d2 = (px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2
        kmax = int(np.argmax(d2))
        if d2[kmax] > tol2:
            mid = i + 1 + kmax
            keep[mid] = True
            stack.append((i, mid))
            stack.append((mid, j))
    return keep


def _reference_simplify_ring(ring_x, ring_y, tolerance):
    rx = np.asarray(ring_x, dtype=np.float64)
    ry = np.asarray(ring_y, dtype=np.float64)
    closed = rx.size >= 2 and rx[0] == rx[-1] and ry[0] == ry[-1]
    if closed:
        rx, ry = rx[:-1], ry[:-1]
    if tolerance <= 0 or rx.size < 4:
        return rx, ry
    a = int(np.argmin(rx + ry))
    rx = np.roll(rx, -a)
    ry = np.roll(ry, -a)
    b = int(np.argmax(rx + ry))
    m1 = _dp_mask(rx[: b + 1], ry[: b + 1], tolerance)
    x2 = np.concatenate([rx[b:], rx[:1]])
    y2 = np.concatenate([ry[b:], ry[:1]])
    m2 = _dp_mask(x2, y2, tolerance)
    keep = np.zeros(rx.size, dtype=bool)
    keep[: b + 1] = m1
    keep[b:] |= m2[:-1]
    keep[0] |= m2[-1]
    out_x, out_y = rx[keep], ry[keep]
    if out_x.size < 3:
        return rx, ry
    return out_x, out_y


def _fuzz_rings(seed: int, count: int):
    """Seeded adversarial rings: noisy, rounded (exact d² ties), duplicate
    consecutive vertices, coincident anchors, collinear, NaN, tiny, open
    and closed."""
    rng = np.random.default_rng(seed)
    rings = []
    for k in range(count):
        n = int(rng.integers(1, 60))
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        rad = rng.uniform(3, 6, n)
        x, y = rad * np.cos(ang), rad * np.sin(ang)
        kind = k % 7
        if kind == 1:  # one decimal: many exactly tied distances
            x, y = np.round(x, 1), np.round(y, 1)
        elif kind == 2:  # duplicate consecutive vertices
            rep = rng.integers(1, 4, n)
            x, y = np.repeat(x, rep), np.repeat(y, rep)
        elif kind == 3:  # every vertex on x + y = 0: anchors coincide
            x = np.round(rng.uniform(-3, 3, n), 1)
            y = -x
        elif kind == 4:  # collinear
            x = np.linspace(0.0, 5.0, n)
            y = 2.0 * x + 1.0
        elif kind == 5 and n > 2:  # a NaN vertex
            (x if rng.random() < 0.5 else y)[int(rng.integers(0, n))] = np.nan
        elif kind == 6:  # integer lattice: ties everywhere
            x, y = np.round(x), np.round(y)
        if x.size and rng.random() < 0.5:
            x, y = np.r_[x, x[0]], np.r_[y, y[0]]
        rings.append((x, y))
    return rings


def test_simplify_ring_matches_per_segment_reference():
    for seed in range(3):
        for x, y in _fuzz_rings(seed, 300):
            for tol in (0.0, 0.05, 0.5, 2.0):
                got = simplify_ring(x, y, tol)
                want = _reference_simplify_ring(x, y, tol)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)


def test_simplify_zones_table_matches_per_ring_reference():
    import pyarrow as pa

    from zonal_stats_toolkit_ray.sources.zones import zones_table

    rings = [r for r in _fuzz_rings(7, 120) if r[0].size and not np.isnan(r[0]).any()
             and not np.isnan(r[1]).any()]
    zt = zones_table(
        list(range(len(rings))), [0] * len(rings),
        [None if i % 5 == 0 else f"g{i % 3}" for i in range(len(rings))], rings,
    )
    tol = 0.3
    want = zones_table(
        zt["zone_fid"].to_pylist(), zt["part_idx"].to_pylist(), zt["group_value"].to_pylist(),
        [_reference_simplify_ring(x, y, tol) for x, y in rings],
    )
    assert simplify_zones_table(zt, tol).equals(want)
    # sliced list columns (offsets not starting at 0) and several chunks
    assert simplify_zones_table(zt.slice(3), tol).equals(want.slice(3))
    chunked = pa.concat_tables([zt.slice(0, 10), zt.slice(10, 1), zt.slice(11)])
    assert chunked["ring_x"].num_chunks == 3
    assert simplify_zones_table(chunked, tol).equals(want)
    assert simplify_zones_table(zt.slice(0, 0), tol).equals(want.slice(0, 0))
