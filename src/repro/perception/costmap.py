"""Layered 2-D costmap (reimplementation of ROS ``costmap_2d``).

Three layers, combined by maximum, exactly as the paper describes the
CostmapGen node:

* **static layer** — lethal cost wherever the a-priori map is occupied;
* **obstacle layer** — marks lidar returns as lethal and ray-traces
  free space to clear stale obstacles;
* **inflation layer** — exponentially decaying cost around every
  lethal cell out to the inflation radius, so planners keep clearance.

Both passes are fully vectorized, per the HPC guide's no-Python-loops
rule: clearing traces every beam in one closed-form integer Bresenham
pass (:func:`~repro.world.raycast.trace_lines`) and clears all its
cells with one scatter; inflation is a distance transform
(:func:`scipy.ndimage.distance_transform_edt`) plus a masked
exponential, run only over the window that the cells whose lethal
state changed can reach. The window's costs go into a copy of the cost
array, never into the array a published message may still hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.world.geometry import Pose2D
from repro.world.grid import CellState, OccupancyGrid
from repro.world.lidar import LidarScan
from repro.world.raycast import trace_lines


class CostValues:
    """Cost constants (ROS costmap_2d conventions)."""

    FREE = 0
    INSCRIBED = 253
    LETHAL = 254
    UNKNOWN = 255


@dataclass(frozen=True)
class InflationConfig:
    """Inflation layer parameters."""

    robot_radius_m: float = 0.105
    inflation_radius_m: float = 0.35
    cost_scaling: float = 8.0  # exponential decay rate (1/m)


class LayeredCostmap:
    """Static + obstacle + inflation costmap over a fixed extent.

    Parameters
    ----------
    static_map:
        A-priori map (``None`` for the SLAM/exploration case — the
        static layer then starts unknown and is updated from SLAM).
    rows, cols, resolution, origin:
        Extent when no static map is given; ignored otherwise.
    inflation:
        Inflation layer parameters.
    """

    def __init__(
        self,
        static_map: OccupancyGrid | None = None,
        rows: int = 200,
        cols: int = 200,
        resolution: float = 0.05,
        origin: Pose2D = Pose2D(),
        inflation: InflationConfig = InflationConfig(),
    ) -> None:
        if static_map is not None:
            self.grid_template = static_map
            rows, cols = static_map.rows, static_map.cols
            resolution = static_map.resolution
            origin = static_map.origin
            self._static_lethal = static_map.occupied_mask().copy()
        else:
            self.grid_template = OccupancyGrid.empty(
                rows, cols, resolution, origin, fill=CellState.UNKNOWN
            )
            self._static_lethal = np.zeros((rows, cols), dtype=bool)
        self.rows, self.cols = rows, cols
        self.resolution = resolution
        self.origin = origin
        self.inflation = inflation
        self._obstacle_lethal = np.zeros((rows, cols), dtype=bool)
        self.cost = np.zeros((rows, cols), dtype=np.uint8)
        #: The combined lethal mask ``cost`` was computed from; ``None``
        #: makes the next recompute cover the whole map.
        self._lethal: np.ndarray | None = None
        # A cell's cost depends only on lethal cells within this many
        # cells of it (Chebyshev), since both radii bound its nonzero costs.
        self._pad = math.ceil(
            max(inflation.robot_radius_m, inflation.inflation_radius_m) / resolution
        )
        self.updates = 0
        self._recompute()

    # ------------------------------------------------------------------
    # Layer updates
    # ------------------------------------------------------------------
    def set_static_from(self, grid: OccupancyGrid) -> None:
        """Replace the static layer (e.g. from a fresh SLAM map)."""
        if grid.data.shape != (self.rows, self.cols):
            raise ValueError(
                f"static map shape {grid.data.shape} != costmap {(self.rows, self.cols)}"
            )
        self._static_lethal = grid.occupied_mask().copy()
        self._recompute()

    def update_from_scan(self, scan: LidarScan, pose: Pose2D) -> None:
        """Obstacle-layer update: mark returns, clear along beams.

        ``pose`` is the sensor pose the scan was taken from (the
        localization estimate, not ground truth).
        """
        res = self.resolution
        r0 = int(np.floor((pose.y - self.origin.y) / res + 0.5))
        c0 = int(np.floor((pose.x - self.origin.x) / res + 0.5))

        m = scan.valid_mask()
        world_angles = scan.angles[m] + pose.theta
        ranges = scan.ranges[m]
        ex = pose.x + ranges * np.cos(world_angles)
        ey = pose.y + ranges * np.sin(world_angles)
        rows_hit = np.floor((ey - self.origin.y) / res + 0.5).astype(np.int64)
        cols_hit = np.floor((ex - self.origin.x) / res + 0.5).astype(np.int64)

        # Max-range beams saw free space out to their far end.
        miss_angles = scan.angles[~m] + pose.theta
        mr = scan.range_max * 0.999
        mex = pose.x + mr * np.cos(miss_angles)
        mey = pose.y + mr * np.sin(miss_angles)
        mrows = np.floor((mey - self.origin.y) / res + 0.5).astype(np.int64)
        mcols = np.floor((mex - self.origin.x) / res + 0.5).astype(np.int64)

        # Clear along every beam in one Bresenham pass: a return's own
        # cell is kept, a max-range beam's far cell cleared.
        rr, cc = trace_lines(
            r0,
            c0,
            np.concatenate([rows_hit, mrows]),
            np.concatenate([cols_hit, mcols]),
            np.repeat([False, True], [len(rows_hit), len(mrows)]),
            (self.rows, self.cols),
        )
        self._obstacle_lethal[rr, cc] = False

        # Mark hits lethal (vectorized).
        ok = (
            (rows_hit >= 0)
            & (rows_hit < self.rows)
            & (cols_hit >= 0)
            & (cols_hit < self.cols)
        )
        self._obstacle_lethal[rows_hit[ok], cols_hit[ok]] = True

        self.updates += 1
        self._recompute()

    def _recompute(self) -> None:
        """Re-inflate around the cells whose lethal state changed.

        Only cells within ``pad`` of a changed cell can change cost, and
        their nearest lethal cells within the radius lie within
        ``2 * pad`` of it, so the distance transform runs on the changed
        cells' bounding box dilated by ``2 * pad`` and the box dilated by
        ``pad`` is written back. Distances depend only on integer
        offsets, so the window gives those cells the costs a whole-map
        transform gives them.
        """
        lethal = self._static_lethal | self._obstacle_lethal
        if self._lethal is None:
            self.cost = self._inflate(lethal)
            self._lethal = lethal
            return
        changed = lethal ^ self._lethal
        self._lethal = lethal
        rows = np.flatnonzero(changed.any(axis=1))
        if rows.size == 0:
            return
        cols = np.flatnonzero(changed.any(axis=0))
        pad = self._pad
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
        er0, er1 = max(r0 - 2 * pad, 0), min(r1 + 2 * pad, self.rows)
        ec0, ec1 = max(c0 - 2 * pad, 0), min(c1 + 2 * pad, self.cols)
        wr0, wr1 = max(r0 - pad, 0), min(r1 + pad, self.rows)
        wc0, wc1 = max(c0 - pad, 0), min(c1 + pad, self.cols)
        window = self._inflate(lethal[er0:er1, ec0:ec1])
        # A copy: a published GridMsg may still hold the old array.
        cost = self.cost.copy()
        cost[wr0:wr1, wc0:wc1] = window[wr0 - er0 : wr1 - er0, wc0 - ec0 : wc1 - ec0]
        self.cost = cost

    def _inflate(self, lethal: np.ndarray) -> np.ndarray:
        """Costs of a lethal mask's cells, as if it were the whole map."""
        cost = np.zeros(lethal.shape, dtype=np.uint8)
        if lethal.any():
            # Distance (m) from every cell to the nearest lethal cell.
            dist = ndimage.distance_transform_edt(~lethal, sampling=self.resolution)
            infl = self.inflation
            cost_f = np.zeros_like(dist)
            inside = dist <= infl.robot_radius_m
            ring = (~inside) & (dist <= infl.inflation_radius_m)
            cost_f[ring] = (CostValues.INSCRIBED - 1) * np.exp(
                -infl.cost_scaling * (dist[ring] - infl.robot_radius_m)
            )
            cost = cost_f.astype(np.uint8)
            cost[inside] = CostValues.INSCRIBED
            cost[lethal] = CostValues.LETHAL
        return cost

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cost_at_world(self, x: float, y: float) -> int:
        """Cost of the cell containing (x, y); LETHAL out of bounds."""
        r = int(np.floor((y - self.origin.y) / self.resolution + 0.5))
        c = int(np.floor((x - self.origin.x) / self.resolution + 0.5))
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            return CostValues.LETHAL
        return int(self.cost[r, c])

    def costs_at_world(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cost_at_world` for an (N, 2) array."""
        pts = np.asarray(xy, dtype=np.float64)
        r = np.floor((pts[:, 1] - self.origin.y) / self.resolution + 0.5).astype(np.int64)
        c = np.floor((pts[:, 0] - self.origin.x) / self.resolution + 0.5).astype(np.int64)
        out = np.full(pts.shape[0], CostValues.LETHAL, dtype=np.int64)
        ok = (r >= 0) & (r < self.rows) & (c >= 0) & (c < self.cols)
        out[ok] = self.cost[r[ok], c[ok]]
        return out

    def is_traversable_world(self, x: float, y: float) -> bool:
        """True when the robot center can occupy (x, y)."""
        return self.cost_at_world(x, y) < CostValues.INSCRIBED

    def lethal_mask(self) -> np.ndarray:
        """Combined lethal mask of static + obstacle layers."""
        return self._static_lethal | self._obstacle_lethal


class CostmapSnapshot:
    """An immutable costmap view reconstructed from a GridMsg payload.

    When Path Tracking and CostmapGen run on different hosts, the cost
    array travels as a message; the receiver plans against this
    snapshot. It exposes the same query surface the planners use on a
    live :class:`LayeredCostmap`.
    """

    def __init__(self, cost: np.ndarray, resolution: float, origin: Pose2D) -> None:
        self.cost = np.asarray(cost, dtype=np.uint8)
        self.rows, self.cols = self.cost.shape
        self.resolution = float(resolution)
        self.origin = origin

    def cost_at_world(self, x: float, y: float) -> int:
        """Cost of the cell containing (x, y); LETHAL out of bounds."""
        r = int(np.floor((y - self.origin.y) / self.resolution + 0.5))
        c = int(np.floor((x - self.origin.x) / self.resolution + 0.5))
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            return CostValues.LETHAL
        return int(self.cost[r, c])

    def costs_at_world(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized cost lookup for an (N, 2) world-point array."""
        pts = np.asarray(xy, dtype=np.float64)
        r = np.floor((pts[:, 1] - self.origin.y) / self.resolution + 0.5).astype(np.int64)
        c = np.floor((pts[:, 0] - self.origin.x) / self.resolution + 0.5).astype(np.int64)
        out = np.full(pts.shape[0], CostValues.LETHAL, dtype=np.int64)
        ok = (r >= 0) & (r < self.rows) & (c >= 0) & (c < self.cols)
        out[ok] = self.cost[r[ok], c[ok]]
        return out

    def is_traversable_world(self, x: float, y: float) -> bool:
        """True when the robot center can occupy (x, y)."""
        return self.cost_at_world(x, y) < CostValues.INSCRIBED


#: Reference cycles per costmap update beam (marking + clearing work).
CYCLES_PER_BEAM = 1.2e6
#: Reference cycles for the inflation recompute, per map cell touched.
CYCLES_PER_CELL_INFLATION = 25.0
#: Fixed overhead per update (layer bookkeeping, locking).
CYCLES_UPDATE_BASE = 2.0e5


def costmap_update_cycles(n_beams: int, n_cells: int) -> float:
    """Modeled reference-cycle cost of one CostmapGen update.

    Calibrated so a 360-beam update over a 200x200 window costs
    ~0.43 G cycles (~0.31 s on the Pi): the CG : PT per-invocation
    ratio then reproduces Table II's 37% : 60% with-map split.
    """
    if n_beams < 0 or n_cells < 0:
        raise ValueError("counts must be non-negative")
    return CYCLES_UPDATE_BASE + CYCLES_PER_BEAM * n_beams + CYCLES_PER_CELL_INFLATION * n_cells
