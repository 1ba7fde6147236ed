"""Occupancy grids.

The grid stores one int8 per cell: FREE (0), OCCUPIED (100) or
UNKNOWN (-1), matching ROS ``nav_msgs/OccupancyGrid`` conventions so
the costmap and planners translate directly from their ROS
counterparts. World coordinates are meters with the grid's ``origin``
at the center of cell (0, 0); indices are (row=y, col=x).
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from repro.world.geometry import Pose2D


class CellState(IntEnum):
    """Cell occupancy values (ROS OccupancyGrid convention)."""

    FREE = 0
    OCCUPIED = 100
    UNKNOWN = -1


class OccupancyGrid:
    """A 2-D occupancy grid map.

    Parameters
    ----------
    data:
        (rows, cols) int8 array of :class:`CellState` values.
    resolution:
        Cell edge length in meters.
    origin:
        World pose of cell (0, 0)'s center. Only translation is used;
        rotated maps are not supported (the paper's maps are axis-aligned).
    """

    def __init__(
        self,
        data: np.ndarray,
        resolution: float = 0.05,
        origin: Pose2D = Pose2D(),
    ) -> None:
        arr = np.asarray(data, dtype=np.int8)
        if arr.ndim != 2:
            raise ValueError(f"grid data must be 2-D, got shape {arr.shape}")
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        if abs(origin.theta) > 1e-12:
            raise ValueError("rotated grid origins are not supported")
        self.data = arr
        self.resolution = float(resolution)
        self.origin = origin

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls,
        rows: int,
        cols: int,
        resolution: float = 0.05,
        origin: Pose2D = Pose2D(),
        fill: CellState = CellState.FREE,
    ) -> OccupancyGrid:
        """An all-``fill`` grid of the given shape."""
        return cls(np.full((rows, cols), int(fill), dtype=np.int8), resolution, origin)

    @classmethod
    def from_ascii(
        cls, art: str, resolution: float = 0.05, origin: Pose2D = Pose2D()
    ) -> OccupancyGrid:
        """Build a grid from ASCII art.

        ``#`` = occupied, ``.`` or space = free, ``?`` = unknown. The
        first text line is the *top* row of the map (highest y), as a
        human would draw it.
        """
        lines = [ln for ln in art.splitlines() if ln.strip("\n")]
        if not lines:
            raise ValueError("empty ascii map")
        width = max(len(ln) for ln in lines)
        rows = len(lines)
        data = np.full((rows, width), int(CellState.FREE), dtype=np.int8)
        for r, line in enumerate(lines):
            for c, ch in enumerate(line):
                if ch == "#":
                    data[rows - 1 - r, c] = int(CellState.OCCUPIED)
                elif ch == "?":
                    data[rows - 1 - r, c] = int(CellState.UNKNOWN)
        return cls(data, resolution, origin)

    def copy(self) -> OccupancyGrid:
        """Deep copy (data array is copied)."""
        return OccupancyGrid(self.data.copy(), self.resolution, self.origin)

    # ------------------------------------------------------------------
    # Shape & coordinate transforms
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of rows (y extent in cells)."""
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        """Number of columns (x extent in cells)."""
        return self.data.shape[1]

    @property
    def width_m(self) -> float:
        """Map width (x) in meters."""
        return self.cols * self.resolution

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """World (x, y) in meters -> (row, col). No bounds check."""
        col = int(np.floor((x - self.origin.x) / self.resolution + 0.5))
        row = int(np.floor((y - self.origin.y) / self.resolution + 0.5))
        return row, col

    def cell_to_world(self, row: int, col: int) -> tuple[float, float]:
        """Cell (row, col) -> world coordinates of the cell center."""
        return (
            self.origin.x + col * self.resolution,
            self.origin.y + row * self.resolution,
        )

    def world_to_cells(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`world_to_cell` for an (N, 2) array -> (N, 2) [row, col]."""
        pts = np.asarray(xy, dtype=np.float64)
        cols = np.floor((pts[:, 0] - self.origin.x) / self.resolution + 0.5).astype(np.int64)
        rows = np.floor((pts[:, 1] - self.origin.y) / self.resolution + 0.5).astype(np.int64)
        return np.stack([rows, cols], axis=1)

    def in_bounds(self, row: int, col: int) -> bool:
        """Whether (row, col) indexes a real cell."""
        return 0 <= row < self.rows and 0 <= col < self.cols

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state_at_world(self, x: float, y: float) -> CellState:
        """Occupancy state at a world point; out of bounds -> OCCUPIED.

        Treating the map border as occupied keeps planners and the
        ray caster from escaping the world.
        """
        row, col = self.world_to_cell(x, y)
        if not self.in_bounds(row, col):
            return CellState.OCCUPIED
        return CellState(int(self.data[row, col]))

    def is_free_world(self, x: float, y: float) -> bool:
        """True when the world point lies in a FREE cell."""
        return self.state_at_world(x, y) == CellState.FREE

    def occupied_mask(self) -> np.ndarray:
        """Boolean (rows, cols) mask of occupied cells."""
        return self.data == int(CellState.OCCUPIED)

    def unknown_mask(self) -> np.ndarray:
        """Boolean mask of unknown cells."""
        return self.data == int(CellState.UNKNOWN)

    def free_mask(self) -> np.ndarray:
        """Boolean mask of free cells."""
        return self.data == int(CellState.FREE)

    def known_fraction(self) -> float:
        """Fraction of cells that are not UNKNOWN (exploration progress)."""
        return float(np.mean(self.data != int(CellState.UNKNOWN)))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def fill_rect_world(
        self, x0: float, y0: float, x1: float, y1: float, state: CellState
    ) -> None:
        """Set every cell whose center lies in the world rectangle."""
        r0, c0 = self.world_to_cell(min(x0, x1), min(y0, y1))
        r1, c1 = self.world_to_cell(max(x0, x1), max(y0, y1))
        r0, c0 = max(r0, 0), max(c0, 0)
        r1, c1 = min(r1, self.rows - 1), min(c1, self.cols - 1)
        if r1 >= r0 and c1 >= c0:
            self.data[r0 : r1 + 1, c0 : c1 + 1] = int(state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OccupancyGrid({self.rows}x{self.cols} @ {self.resolution}m, "
            f"origin=({self.origin.x:.2f},{self.origin.y:.2f}))"
        )
