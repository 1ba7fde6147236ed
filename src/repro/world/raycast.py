"""Vectorized ray casting and line tracing on occupancy grids.

Both kernels are whole-array numpy passes with no Python loop over
rays, and both reproduce their scalar definitions bit for bit:

* :func:`cast_rays` marches every ray in fixed world-space steps of
  half a cell. The ``(N, steps)`` grid of sample points is built with
  ``np.add.accumulate``, which sums left to right, so every sample is
  the same float as the running ``px += dx`` of a one-ray march. Its
  cells are read from a copy of the grid with a one-cell occupied
  border, into which every off-grid sample is clipped; each ray's
  first blocking sample is found with ``argmax``.
* :func:`trace_lines` evaluates the closed form of the integer
  Bresenham recurrence for every line and step in one broadcast.
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
    # The world border is solid: every off-grid sample clips into the
    # occupied frame around a copy of the grid (grids are mutable, so
    # the copy is made on every call).
    occupied = int(CellState.OCCUPIED)
    framed = np.full((grid.rows + 2, grid.cols + 2), occupied, dtype=grid.data.dtype)
    framed[1:-1, 1:-1] = grid.data
    r += 1
    np.clip(r, 0, grid.rows + 1, out=r)
    c += 1
    np.clip(c, 0, grid.cols + 1, out=c)
    r *= grid.cols + 2  # r becomes the flat index into the frame
    r += c
    vals = framed.take(r)
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
    reaches its endpoint after exactly ``max(dr, dc)`` steps.

    The recurrence has a closed form, evaluated for every line and step
    at once: along its major axis a line moves one cell per step, and
    after ``k`` steps it has moved
    ``#{j >= 0 : (2j + 1) * major < 2k * minor}`` cells along its minor
    axis (``dr == dc`` moves both axes every step).

    Line ``k`` contributes its cells from (r0,c0) on, without its
    endpoint unless ``include_end[k]``, kept where they fall inside a
    ``shape = (rows, cols)`` grid; endpoints may lie off the grid.
    Returns ``(rows, cols)`` index arrays, ordered by step and then by
    line, with repeats where lines share cells.
    """
    r1 = np.asarray(r1, dtype=np.int64)
    c1 = np.asarray(c1, dtype=np.int64)
    dr = np.abs(r1 - r0)
    dc = np.abs(c1 - c0)
    length = np.maximum(dr, dc)
    n_steps = int(length.max()) if length.size else 0
    # row k holds every line's cell after k steps
    k = np.arange(n_steps + 1)[:, None]
    # ceil((2k * minor - major) / (2 * major)), at least 0
    minor_moved = -((length - 2 * k * np.minimum(dr, dc)) // (2 * np.maximum(length, 1)))
    np.maximum(minor_moved, 0, out=minor_moved)
    rows = r0 + np.where(r1 >= r0, 1, -1) * np.where(dr >= dc, k, minor_moved)
    cols = c0 + np.where(c1 >= c0, 1, -1) * np.where(dc >= dr, k, minor_moved)
    on_line = (k < length) | ((k == length) & include_end)
    rr, cc = rows[on_line], cols[on_line]
    ok = (rr >= 0) & (rr < shape[0]) & (cc >= 0) & (cc < shape[1])
    return rr[ok], cc[ok]
