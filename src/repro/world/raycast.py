"""Vectorized ray casting and line tracing on occupancy grids.

Both kernels are whole-array numpy passes with no Python loop over
rays, and both reproduce their scalar definitions bit for bit:

* :func:`cast_rays` marches every ray in fixed world-space steps of
  half a cell. The ``(N, steps)`` grid of sample points is built with
  ``np.add.accumulate``, which sums left to right, so every sample is
  the same float as the running ``px += dx`` of a one-ray march; each
  ray's first blocking sample is found with ``argmax``.
* :func:`trace_lines` runs the integer Bresenham recurrence for all
  lines in lockstep, one numpy step per cell along the longest line.
"""

from __future__ import annotations

import numpy as np

from repro.world.grid import CellState, OccupancyGrid


def cast_rays(
    grid: OccupancyGrid,
    x: float,
    y: float,
    angles: np.ndarray,
    max_range: float,
    hit_unknown: bool = False,
) -> np.ndarray:
    """Cast rays from (x, y) at world ``angles`` and return hit ranges.

    Parameters
    ----------
    grid:
        The map to cast against.
    x, y:
        Ray origin in world meters.
    angles:
        (N,) array of world-frame ray directions in radians.
    max_range:
        Rays that hit nothing within this distance return ``max_range``.
    hit_unknown:
        When True, UNKNOWN cells stop rays too (used by SLAM map
        building); when False rays pass through unknown space (used by
        the ground-truth sensor where the true map has no unknowns).

    Returns
    -------
    (N,) float64 array of ranges in meters, clipped to ``max_range``.
    Sample ``i`` (1-based) of a ray lies ``i`` half-cell steps out; a
    ray stops at its first sample in an occupied cell (or an unknown
    one, with ``hit_unknown``) or off the grid, and reports ``i * step``.
    """
    if max_range <= 0:
        raise ValueError(f"max_range must be positive, got {max_range}")
    angles = np.atleast_1d(np.asarray(angles, dtype=np.float64))
    n = angles.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)

    step = 0.5 * grid.resolution
    n_steps = int(np.ceil(max_range / step)) + 1

    r = _sample_cells(y, np.sin(angles) * step, n_steps, grid.origin.y, grid.resolution)
    c = _sample_cells(x, np.cos(angles) * step, n_steps, grid.origin.x, grid.resolution)
    inb = (r >= 0) & (r < grid.rows) & (c >= 0) & (c < grid.cols)
    occupied = int(CellState.OCCUPIED)
    vals = np.full(r.shape, occupied, dtype=np.int8)  # world border is solid
    vals[inb] = grid.data[r[inb], c[inb]]
    hit = vals == occupied
    if hit_unknown:
        hit |= vals == int(CellState.UNKNOWN)

    first = hit.argmax(axis=1)
    hits = hit[np.arange(n), first]
    ranges = np.full(n, max_range, dtype=np.float64)
    ranges[hits] = np.minimum((first[hits] + 1) * step, max_range)
    return ranges


def _sample_cells(
    start: float, delta: np.ndarray, n_steps: int, origin: float, res: float
) -> np.ndarray:
    """Cell index along one axis of samples 1..n_steps of every ray.

    Column 0 holds the start and every later column one step, so the
    running sum along a row holds sample i in column i. The arithmetic
    runs in place to keep one ``(N, steps)`` float buffer alive.
    """
    pos = np.empty((len(delta), n_steps + 1))
    pos[:, 0] = start
    pos[:, 1:] = delta[:, None]
    np.add.accumulate(pos, axis=1, out=pos)
    pos -= origin
    pos /= res
    pos += 0.5
    np.floor(pos, out=pos)
    return pos[:, 1:].astype(np.int64)


def trace_lines(
    r0: int,
    c0: int,
    r1: np.ndarray,
    c1: np.ndarray,
    include_end: np.ndarray,
    shape: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """In-grid cells of the Bresenham lines (r0,c0)->(r1[k],c1[k]).

    Every line follows the classic integer recurrence: with
    ``dr = |r1 - r0|``, ``dc = |c1 - c0|`` and ``err = dc - dr``, each
    step computes ``e2 = 2 * err``, moves one column (``err -= dr``)
    if ``e2 > -dr`` and one row (``err += dc``) if ``e2 < dc``. A line
    reaches its endpoint after exactly ``max(dr, dc)`` steps; all lines
    take their steps in lockstep.

    Line ``k`` contributes its cells from (r0,c0) on, without its
    endpoint unless ``include_end[k]``, kept where they fall inside a
    ``shape = (rows, cols)`` grid; endpoints may lie off the grid.
    Returns ``(rows, cols)`` index arrays, with repeats where lines
    share cells.
    """
    r1 = np.asarray(r1, dtype=np.int64)
    c1 = np.asarray(c1, dtype=np.int64)
    dr = np.abs(r1 - r0)
    dc = np.abs(c1 - c0)
    sr = np.where(r1 >= r0, 1, -1)
    sc = np.where(c1 >= c0, 1, -1)
    length = np.maximum(dr, dc)
    n_steps = int(length.max()) if length.size else 0
    # cells[k] is every line's cell after k steps
    rows = np.empty((n_steps + 1, len(r1)), dtype=np.int64)
    cols = np.empty_like(rows)
    rows[0], cols[0] = r0, c0
    err = dc - dr
    for k in range(1, n_steps + 1):
        e2 = 2 * err
        step_c = e2 > -dr
        step_r = e2 < dc
        err += dc * step_r - dr * step_c
        cols[k] = cols[k - 1] + sc * step_c
        rows[k] = rows[k - 1] + sr * step_r
    k = np.arange(n_steps + 1)[:, None]
    on_line = (k < length) | ((k == length) & include_end)
    rr, cc = rows[on_line], cols[on_line]
    ok = (rr >= 0) & (rr < shape[0]) & (cc >= 0) & (cc < shape[1])
    return rr[ok], cc[ok]
