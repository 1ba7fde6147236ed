"""Grid path search: A* (Hart/Nilsson/Raphael) and Dijkstra.

8-connected search over a cost array. Cells at or above a lethal
threshold are impassable; sub-lethal cost is added to the edge weight
so paths prefer clearance (what the inflation layer is for). A* with a
zero-weight heuristic *is* Dijkstra, so both share one implementation,
matching how ROS global_planner offers the two algorithms the paper
lists.

The search runs on plain Python values over flat cell indices: the
grid gets a one-cell frame that starts closed, so a neighbour is one
precomputed index offset away with no bounds test. Heap entries are
``(f, index)``; an index grows with ``(row, col)``, so ties pop in
row-major order.
"""

from __future__ import annotations

import heapq
import math
from array import array

import numpy as np

#: Edge weight multiplier applied to the average cell cost.
COST_WEIGHT = 0.04


class PlanningError(Exception):
    """No path exists between the requested endpoints."""


_NEIGHBORS = [
    (-1, -1, math.sqrt(2)), (-1, 0, 1.0), (-1, 1, math.sqrt(2)),
    (0, -1, 1.0), (0, 1, 1.0),
    (1, -1, math.sqrt(2)), (1, 0, 1.0), (1, 1, math.sqrt(2)),
]


def _search(
    cost: np.ndarray,
    start: tuple[int, int],
    goal: tuple[int, int],
    lethal_threshold: int,
    heuristic_weight: float,
) -> list[tuple[int, int]]:
    rows, cols = cost.shape
    sr, sc = start
    gr, gc = goal
    if not (0 <= sr < rows and 0 <= sc < cols):
        raise PlanningError(f"start {start} out of bounds")
    if not (0 <= gr < rows and 0 <= gc < cols):
        raise PlanningError(f"goal {goal} out of bounds")
    # Python numbers: a uint8 costmap's ints cannot overflow in edge sums
    framed = np.pad(cost, 1)
    costs = framed.ravel().tolist()
    width = cols + 2
    # flat indices of start and goal in the framed grid; the goal's row and col
    source, tr, tc = (sr + 1) * width + sc + 1, gr + 1, gc + 1
    target = tr * width + tc
    if costs[source] >= lethal_threshold:
        raise PlanningError(f"start {start} is in lethal space")
    if costs[target] >= lethal_threshold:
        raise PlanningError(f"goal {goal} is in lethal space")

    border = np.ones(framed.shape, dtype=np.uint8)  # the frame starts closed
    border[1:-1, 1:-1] = 0
    closed = bytearray(border.tobytes())
    g = array("d", [math.inf]) * len(costs)
    g[source] = 0.0
    parent = array("q", [-1]) * len(costs)
    moves = [(dr, dc, dr * width + dc, step) for dr, dc, step in _NEIGHBORS]
    diag = math.sqrt(2) - 1
    half_weight = COST_WEIGHT * 0.5
    pop, push = heapq.heappop, heapq.heappush

    # octile distance (admissible for 8-connected unit grids), as
    # max + diag * min
    a, b = abs(sr - gr), abs(sc - gc)
    heap = [(heuristic_weight * (a + diag * b if a > b else b + diag * a), source)]
    while heap:
        _, n = pop(heap)
        if closed[n]:
            continue
        closed[n] = 1
        if n == target:
            break
        base = g[n]
        here = costs[n]
        r, c = divmod(n, width)
        for dr, dc, off, step in moves:
            m = n + off
            if closed[m]:
                continue
            cell_cost = costs[m]
            if cell_cost >= lethal_threshold:
                continue
            new_g = base + step * (1.0 + half_weight * (cell_cost + here))
            if new_g < g[m]:
                g[m] = new_g
                parent[m] = n
                a, b = abs(r + dr - tr), abs(c + dc - tc)
                h = heuristic_weight * (a + diag * b if a > b else b + diag * a)
                push(heap, (new_g + h, m))

    if not closed[target]:
        raise PlanningError(f"no path from {start} to {goal}")

    path = [(gr, gc)]
    n = target
    while n != source:
        n = parent[n]
        r, c = divmod(n, width)
        path.append((r - 1, c - 1))
    path.reverse()
    return path


def astar(
    cost: np.ndarray,
    start: tuple[int, int],
    goal: tuple[int, int],
    lethal_threshold: int = 253,
) -> list[tuple[int, int]]:
    """A* shortest path over a cost grid; returns [(row, col), ...].

    Raises :class:`PlanningError` when no path exists.
    """
    return _search(np.asarray(cost), start, goal, lethal_threshold, heuristic_weight=1.0)


def dijkstra(
    cost: np.ndarray,
    start: tuple[int, int],
    goal: tuple[int, int],
    lethal_threshold: int = 253,
) -> list[tuple[int, int]]:
    """Dijkstra shortest path (A* with a zero heuristic)."""
    return _search(np.asarray(cost), start, goal, lethal_threshold, heuristic_weight=0.0)


def path_length(path: list[tuple[int, int]], resolution: float = 1.0) -> float:
    """Euclidean length of a cell path in world units."""
    if len(path) < 2:
        return 0.0
    arr = np.asarray(path, dtype=float)
    return float(np.sum(np.hypot(*(np.diff(arr, axis=0).T))) * resolution)
