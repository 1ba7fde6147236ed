"""Tests for A*/Dijkstra search, the global planner, and frontier exploration."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perception import CostValues, LayeredCostmap
from repro.planning import (
    FrontierExplorer,
    GlobalPlanner,
    PlanningError,
    astar,
    dijkstra,
    exploration_cycles,
    find_frontiers,
    plan_cycles,
)
from repro.planning.search import _NEIGHBORS, COST_WEIGHT, path_length
from repro.world import CellState, OccupancyGrid, Pose2D, box_world, open_world


def free_grid(n=20):
    return np.zeros((n, n), dtype=np.uint8)


def walled_grid(n=20):
    """Free grid with a vertical wall and one gap."""
    g = free_grid(n)
    g[:, n // 2] = 254
    g[n // 2, n // 2] = 0  # the gap
    return g


def _reference_search(cost, start, goal, lethal_threshold, heuristic_weight):
    """The search as it indexed numpy arrays per cell: float64 costs,
    (rows, cols) g and parent arrays, and (f, r, c) heap keys."""
    cost = np.asarray(cost, dtype=np.float64)
    rows, cols = cost.shape
    sr, sc = start
    gr, gc = goal
    if not (0 <= sr < rows and 0 <= sc < cols):
        raise PlanningError(f"start {start} out of bounds")
    if not (0 <= gr < rows and 0 <= gc < cols):
        raise PlanningError(f"goal {goal} out of bounds")
    if cost[sr, sc] >= lethal_threshold:
        raise PlanningError(f"start {start} is in lethal space")
    if cost[gr, gc] >= lethal_threshold:
        raise PlanningError(f"goal {goal} is in lethal space")

    g = np.full((rows, cols), np.inf)
    g[sr, sc] = 0.0
    parent = np.full((rows, cols, 2), -1, dtype=np.int32)
    closed = np.zeros((rows, cols), dtype=bool)

    def h(r, c):
        dr, dc = abs(r - gr), abs(c - gc)
        return heuristic_weight * (max(dr, dc) + (math.sqrt(2) - 1) * min(dr, dc))

    heap = [(h(sr, sc), sr, sc)]
    while heap:
        _, r, c = heapq.heappop(heap)
        if closed[r, c]:
            continue
        closed[r, c] = True
        if (r, c) == (gr, gc):
            break
        base = g[r, c]
        for dr, dc, step in _NEIGHBORS:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols) or closed[nr, nc]:
                continue
            cell_cost = cost[nr, nc]
            if cell_cost >= lethal_threshold:
                continue
            new_g = base + step * (1.0 + COST_WEIGHT * 0.5 * (cell_cost + cost[r, c]))
            if new_g < g[nr, nc]:
                g[nr, nc] = new_g
                parent[nr, nc] = (r, c)
                heapq.heappush(heap, (new_g + h(nr, nc), nr, nc))

    if not closed[gr, gc]:
        raise PlanningError(f"no path from {start} to {goal}")

    path = [(gr, gc)]
    r, c = gr, gc
    while (r, c) != (sr, sc):
        r, c = int(parent[r, c, 0]), int(parent[r, c, 1])
        path.append((r, c))
    path.reverse()
    return path


def _outcome(search, *args, **kwargs):
    try:
        return repr(search(*args, **kwargs))
    except PlanningError as exc:
        return f"PlanningError: {exc}"


class TestSearch:
    def test_straight_line(self):
        path = astar(free_grid(), (0, 0), (0, 9))
        assert path[0] == (0, 0) and path[-1] == (0, 9)
        assert len(path) == 10

    def test_diagonal_uses_diagonal_moves(self):
        path = astar(free_grid(), (0, 0), (9, 9))
        assert len(path) == 10  # pure diagonal

    def test_wall_forces_through_gap(self):
        g = walled_grid()
        path = astar(g, (5, 2), (5, 17))
        assert (10, 10) in path  # the only gap

    def test_dijkstra_same_cost_as_astar(self):
        g = walled_grid()
        pa = astar(g, (3, 2), (16, 17))
        pd = dijkstra(g, (3, 2), (16, 17))
        # both optimal: path lengths agree (ties may differ in shape)
        assert abs(path_length(pa) - path_length(pd)) < 1e-9

    def test_no_path_raises(self):
        g = free_grid()
        g[:, 10] = 254  # complete wall
        with pytest.raises(PlanningError):
            astar(g, (5, 2), (5, 15))

    def test_start_goal_validation(self):
        g = free_grid()
        with pytest.raises(PlanningError):
            astar(g, (-1, 0), (5, 5))
        with pytest.raises(PlanningError):
            astar(g, (0, 0), (99, 99))
        g[3, 3] = 254
        with pytest.raises(PlanningError):
            astar(g, (3, 3), (5, 5))
        with pytest.raises(PlanningError):
            astar(g, (5, 5), (3, 3))

    def test_prefers_low_cost_corridor(self):
        g = free_grid(11)
        g[5, :] = 0
        g[0:5, :] = 200  # expensive band above
        path = astar(g, (5, 0), (5, 10))
        assert all(r == 5 for r, c in path)

    def test_start_equals_goal(self):
        path = astar(free_grid(), (4, 4), (4, 4))
        assert path == [(4, 4)]

    @given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14), st.integers(0, 14))
    @settings(max_examples=30, deadline=None)
    def test_path_connects_endpoints_8connected(self, r0, c0, r1, c1):
        path = astar(free_grid(15), (r0, c0), (r1, c1))
        assert path[0] == (r0, c0) and path[-1] == (r1, c1)
        for (a, b), (c, d) in zip(path, path[1:]):
            assert max(abs(a - c), abs(b - d)) == 1

    @given(
        shape=st.tuples(st.integers(1, 16), st.integers(1, 16)),
        grid_seed=st.integers(0, 2**32 - 1),
        # few distinct values: many equal-cost ties
        values=st.sampled_from(
            [(0,), (0, 1), (0, 40, 200, 252), (0.0, 0.5, 3.25, 252.75), tuple(range(253))]
        ),
        lethal_share=st.sampled_from([0.0, 0.1, 0.3]),
        wall=st.sampled_from(["none", "closed", "gap"]),
        as_float=st.booleans(),
        lethal_threshold=st.sampled_from([253, 200, 256]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_indexed_reference(
        self, shape, grid_seed, values, lethal_share, wall, as_float, lethal_threshold
    ):
        rng = np.random.default_rng(grid_seed)
        dtype = np.float64 if as_float or isinstance(values[0], float) else np.uint8
        cost = rng.choice(np.asarray(values, dtype=dtype), size=shape)
        cost[rng.random(shape) < lethal_share] = 254
        if wall != "none":
            col = int(rng.integers(shape[1]))
            cost[:, col] = 254
            if wall == "gap":
                cost[int(rng.integers(shape[0])), col] = values[0]
        # mostly free endpoints on the grid; sometimes off it, in lethal
        # space, or one cell for both
        start, goal = [tuple(int(v) for v in rng.integers(0, shape)) for _ in range(2)]
        if rng.random() < 0.1:
            goal = start
        for r, c in (start, goal):
            if rng.random() < 0.8:
                cost[r, c] = values[-1]
        if rng.random() < 0.1:
            goal = (goal[0], int(rng.choice([-1, shape[1]])))
        for search, weight in ((astar, 1.0), (dijkstra, 0.0)):
            got = _outcome(search, cost, start, goal, lethal_threshold=lethal_threshold)
            want = _outcome(_reference_search, cost, start, goal, lethal_threshold, weight)
            assert got == want

    @pytest.mark.parametrize("search, weight", [(astar, 1.0), (dijkstra, 0.0)])
    def test_matches_numpy_indexed_reference_on_a_costmap(self, search, weight):
        cost = LayeredCostmap(static_map=box_world(8.0)).cost
        for start, goal in [((20, 20), (140, 140)), ((140, 30), (30, 150)), ((80, 20), (80, 21))]:
            assert search(cost, start, goal) == _reference_search(cost, start, goal, 253, weight)

    def test_path_length(self):
        assert path_length([(0, 0), (0, 3)], resolution=0.5) == pytest.approx(1.5)
        assert path_length([(0, 0)]) == 0.0


class TestGlobalPlanner:
    def test_plans_around_box(self):
        cm = LayeredCostmap(static_map=box_world(10.0))
        gp = GlobalPlanner(cm)
        path = gp.plan(Pose2D(2, 2, 0), Pose2D(8, 8, 0))
        assert np.allclose(path[0], [2, 2], atol=0.2)
        assert np.allclose(path[-1], [8, 8], atol=0.2)
        # no waypoint enters the lethal box
        for x, y in path:
            assert cm.cost_at_world(x, y) < CostValues.INSCRIBED

    def test_simplify_drops_collinear(self):
        cm = LayeredCostmap(static_map=open_world(10.0))
        gp = GlobalPlanner(cm)
        path = gp.plan(Pose2D(2, 5, 0), Pose2D(8, 5, 0))
        assert len(path) <= 4  # straight line collapses

    def test_snaps_endpoint_out_of_inflation(self):
        cm = LayeredCostmap(static_map=box_world(10.0))
        gp = GlobalPlanner(cm)
        # goal right at the box face (inside inflation)
        path = gp.plan(Pose2D(2, 2, 0), Pose2D(3.95, 5.0, 0))
        assert cm.cost_at_world(*path[-1]) < CostValues.INSCRIBED

    def test_unreachable_goal_raises(self):
        cm = LayeredCostmap(static_map=box_world(10.0))
        gp = GlobalPlanner(cm)
        with pytest.raises(PlanningError):
            gp.plan(Pose2D(2, 2, 0), Pose2D(5.0, 5.0, 0))  # box center

    def test_dijkstra_variant(self):
        cm = LayeredCostmap(static_map=box_world(10.0))
        gp = GlobalPlanner(cm, algorithm="dijkstra")
        path = gp.plan(Pose2D(2, 2, 0), Pose2D(8, 8, 0))
        assert len(path) >= 2

    def test_unknown_algorithm_rejected(self):
        cm = LayeredCostmap(static_map=open_world(5.0))
        with pytest.raises(ValueError):
            GlobalPlanner(cm, algorithm="bfs")

    def test_plan_cycles_model(self):
        assert plan_cycles(100, 40000, "dijkstra") > plan_cycles(100, 40000, "astar")
        with pytest.raises(ValueError):
            plan_cycles(-1, 0)


class TestFrontiers:
    def half_known_map(self):
        # the left half of the arena is explored; the only frontier is
        # the vertical free/unknown boundary at x ~ 2.0
        g = OccupancyGrid.empty(40, 40, resolution=0.1, fill=CellState.UNKNOWN)
        g.fill_rect_world(0.0, 0.0, 2.0, 4.0, CellState.FREE)
        return g

    def test_finds_frontier_at_known_boundary(self):
        g = self.half_known_map()
        fr = find_frontiers(g, Pose2D(1.0, 2.0, 0))
        assert len(fr) >= 1
        # the centroid sits near the free/unknown boundary at x ~ 2.0
        xs = [f.centroid_xy[0] for f in fr]
        assert any(1.6 < x < 2.4 for x in xs)

    def test_no_frontiers_in_fully_known_map(self):
        fr = find_frontiers(open_world(5.0), Pose2D(2, 2, 0))
        assert fr == []

    def test_min_size_filters_slivers(self):
        g = self.half_known_map()
        assert len(find_frontiers(g, Pose2D(1, 2, 0), min_size_cells=10_000)) == 0

    def test_utility_prefers_big_close(self):
        from repro.planning.frontier import Frontier

        big_close = Frontier((1.0, 0.0), 100, 1.0)
        small_far = Frontier((9.0, 0.0), 10, 9.0)
        assert big_close.utility() > small_far.utility()

    def test_explorer_issues_goal_then_exhausts(self):
        g = self.half_known_map()
        ex = FrontierExplorer()
        goal = ex.next_goal(g, Pose2D(1, 2, 0))
        assert goal is not None
        # mark everything known: no goals remain
        g.data[g.data == int(CellState.UNKNOWN)] = int(CellState.FREE)
        assert ex.next_goal(g, Pose2D(1, 2, 0)) is None

    def test_blacklist_skips_region(self):
        g = self.half_known_map()
        ex = FrontierExplorer()
        goal = ex.next_goal(g, Pose2D(1, 2, 0))
        ex.blacklist((goal.x, goal.y))
        nxt = ex.next_goal(g, Pose2D(1, 2, 0))
        if nxt is not None:
            assert np.hypot(nxt.x - goal.x, nxt.y - goal.y) >= ex.blacklist_radius_m

    def test_exploration_cycles_model(self):
        assert exploration_cycles(40000) > exploration_cycles(100)
        with pytest.raises(ValueError):
            exploration_cycles(-1)
