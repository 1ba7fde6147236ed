"""Tests for geometry, occupancy grids, ray casting and the lidar."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import seeded_rng
from repro.world import (
    CellState,
    LDS01_SPEC,
    Lidar,
    OccupancyGrid,
    Pose2D,
    angle_diff,
    box_world,
    cast_rays,
    corridor_world,
    intel_lab_world,
    normalize_angle,
    obstacle_course_world,
    open_world,
    rot2d,
    transform_points,
)
from repro.world.raycast import trace_lines

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestAngles:
    @given(angles)
    def test_normalize_range(self, theta):
        n = normalize_angle(theta)
        assert -math.pi < n <= math.pi

    @given(angles)
    def test_normalize_preserves_direction(self, theta):
        n = normalize_angle(theta)
        assert math.isclose(math.cos(n), math.cos(theta), abs_tol=1e-9)
        assert math.isclose(math.sin(n), math.sin(theta), abs_tol=1e-9)

    def test_angle_diff_wraps(self):
        assert math.isclose(angle_diff(math.pi - 0.1, -math.pi + 0.1), -0.2, abs_tol=1e-9)

    def test_angle_diff_simple(self):
        assert math.isclose(angle_diff(1.0, 0.25), 0.75)


class TestPose2D:
    def test_compose_identity(self):
        p = Pose2D(1.0, 2.0, 0.5)
        q = p.compose(Pose2D())
        assert math.isclose(q.x, p.x) and math.isclose(q.y, p.y)

    def test_compose_translation_rotates(self):
        p = Pose2D(0, 0, math.pi / 2)
        q = p.compose(Pose2D(1, 0, 0))
        assert math.isclose(q.x, 0, abs_tol=1e-12)
        assert math.isclose(q.y, 1, abs_tol=1e-12)

    @given(
        st.floats(-10, 10), st.floats(-10, 10), angles,
        st.floats(-10, 10), st.floats(-10, 10), angles,
    )
    def test_inverse_cancels_compose(self, x1, y1, t1, x2, y2, t2):
        a = Pose2D(x1, y1, normalize_angle(t1))
        b = Pose2D(x2, y2, normalize_angle(t2))
        rel = b.relative_to(a)
        back = a.compose(rel)
        assert math.isclose(back.x, b.x, abs_tol=1e-8)
        assert math.isclose(back.y, b.y, abs_tol=1e-8)
        assert abs(angle_diff(back.theta, b.theta)) < 1e-8

    def test_distance_heading(self):
        a, b = Pose2D(0, 0, 0), Pose2D(3, 4, 0)
        assert math.isclose(a.distance_to(b), 5.0)
        assert math.isclose(a.heading_to(b), math.atan2(4, 3))

    def test_array_roundtrip(self):
        p = Pose2D(1, 2, 0.3)
        q = Pose2D.from_array(p.as_array())
        assert math.isclose(q.x, p.x) and math.isclose(q.y, p.y)
        assert abs(angle_diff(q.theta, p.theta)) < 1e-12


class TestTransforms:
    def test_rot2d_orthonormal(self):
        R = rot2d(0.7)
        assert np.allclose(R @ R.T, np.eye(2))

    def test_transform_points_matches_compose(self):
        pose = Pose2D(1.0, -2.0, 0.9)
        pts = np.array([[0.5, 0.25], [-1.0, 2.0]])
        out = transform_points(pts, pose)
        for i, (px, py) in enumerate(pts):
            q = pose.compose(Pose2D(px, py, 0))
            assert np.allclose(out[i], [q.x, q.y])

    def test_transform_points_bad_shape(self):
        with pytest.raises(ValueError):
            transform_points(np.zeros((3, 3)), Pose2D())


class TestOccupancyGrid:
    def test_empty_fill(self):
        g = OccupancyGrid.empty(4, 5, fill=CellState.UNKNOWN)
        assert g.rows == 4 and g.cols == 5
        assert g.unknown_mask().all()

    def test_from_ascii_orientation(self):
        # '#' on the first text line must land at the TOP (max row).
        g = OccupancyGrid.from_ascii("#..\n...\n")
        assert g.data[1, 0] == int(CellState.OCCUPIED)
        assert g.data[0, 0] == int(CellState.FREE)

    def test_world_cell_roundtrip(self):
        g = OccupancyGrid.empty(20, 20, resolution=0.1)
        for xy in [(0.0, 0.0), (0.95, 1.35), (1.99, 0.51)]:
            r, c = g.world_to_cell(*xy)
            wx, wy = g.cell_to_world(r, c)
            assert abs(wx - xy[0]) <= 0.05 + 1e-9
            assert abs(wy - xy[1]) <= 0.05 + 1e-9

    def test_world_to_cells_vectorized_matches_scalar(self):
        g = OccupancyGrid.empty(30, 30, resolution=0.07)
        pts = seeded_rng(3).uniform(0, 2, size=(50, 2))
        cells = g.world_to_cells(pts)
        for (x, y), (r, c) in zip(pts, cells):
            assert (r, c) == g.world_to_cell(x, y)

    def test_out_of_bounds_is_occupied(self):
        g = OccupancyGrid.empty(10, 10, resolution=0.1)
        assert g.state_at_world(-5.0, 0.0) == CellState.OCCUPIED
        assert g.state_at_world(0.5, 99.0) == CellState.OCCUPIED

    def test_fill_rect_world(self):
        g = OccupancyGrid.empty(20, 20, resolution=0.1)
        g.fill_rect_world(0.5, 0.5, 1.0, 1.0, CellState.OCCUPIED)
        assert g.state_at_world(0.7, 0.7) == CellState.OCCUPIED
        assert g.state_at_world(1.5, 1.5) == CellState.FREE

    def test_fill_rect_clips_to_bounds(self):
        g = OccupancyGrid.empty(10, 10, resolution=0.1)
        g.fill_rect_world(-5, -5, 50, 50, CellState.OCCUPIED)
        assert g.occupied_mask().all()

    def test_known_fraction(self):
        g = OccupancyGrid.empty(2, 2, fill=CellState.UNKNOWN)
        g.data[0, 0] = int(CellState.FREE)
        assert g.known_fraction() == 0.25

    def test_copy_is_deep(self):
        g = OccupancyGrid.empty(5, 5)
        h = g.copy()
        h.data[0, 0] = int(CellState.OCCUPIED)
        assert g.data[0, 0] == int(CellState.FREE)

    def test_rotated_origin_rejected(self):
        with pytest.raises(ValueError):
            OccupancyGrid(np.zeros((2, 2), dtype=np.int8), origin=Pose2D(0, 0, 0.4))

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            OccupancyGrid.empty(2, 2, resolution=0.0)


def _reference_cast_rays(grid, x, y, angles, max_range, hit_unknown):
    """cast_rays as a stepping loop: every live ray advances one
    half-cell step per iteration (``px += dx``) until it hits."""
    n = angles.shape[0]
    step = 0.5 * grid.resolution
    dx = np.cos(angles) * step
    dy = np.sin(angles) * step
    px = np.full(n, x, dtype=np.float64)
    py = np.full(n, y, dtype=np.float64)
    ranges = np.full(n, max_range, dtype=np.float64)
    alive = np.ones(n, dtype=bool)
    for i in range(1, int(np.ceil(max_range / step)) + 2):
        if not alive.any():
            break
        px[alive] += dx[alive]
        py[alive] += dy[alive]
        idx = np.nonzero(alive)[0]
        r = np.floor((py[idx] - grid.origin.y) / grid.resolution + 0.5).astype(np.int64)
        c = np.floor((px[idx] - grid.origin.x) / grid.resolution + 0.5).astype(np.int64)
        oob = (r < 0) | (r >= grid.rows) | (c < 0) | (c >= grid.cols)
        vals = np.empty(idx.shape[0], dtype=np.int8)
        vals[oob] = int(CellState.OCCUPIED)
        vals[~oob] = grid.data[r[~oob], c[~oob]]
        hit = vals == int(CellState.OCCUPIED)
        if hit_unknown:
            hit |= vals == int(CellState.UNKNOWN)
        ranges[idx[hit]] = np.minimum(i * step, max_range)
        alive[idx[hit]] = False
    return ranges


def bresenham_cells(r0, c0, r1, c1):
    """All grid cells on the segment (r0,c0)->(r1,c1), endpoints
    included, one line at a time: the classic integer Bresenham loop
    whose closed form trace_lines evaluates for all lines. Returns a
    (K, 2) int64 array of [row, col]."""
    cells = []
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r1 >= r0 else -1
    sc = 1 if c1 >= c0 else -1
    err = dc - dr
    r, c = r0, c0
    while True:
        cells.append((r, c))
        if r == r1 and c == c1:
            break
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr
    return np.asarray(cells, dtype=np.int64)


def _reference_trace_lines(r0, c0, r1, c1, include_end, shape):
    """trace_lines as the lockstep loop: all lines step through the
    integer Bresenham recurrence together, one numpy step per cell."""
    r1 = np.asarray(r1, dtype=np.int64)
    c1 = np.asarray(c1, dtype=np.int64)
    dr = np.abs(r1 - r0)
    dc = np.abs(c1 - c0)
    sr = np.where(r1 >= r0, 1, -1)
    sc = np.where(c1 >= c0, 1, -1)
    length = np.maximum(dr, dc)
    n_steps = int(length.max()) if length.size else 0
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


class TestRaycast:
    def test_hits_wall_at_expected_distance(self):
        g = open_world(10.0, resolution=0.05)
        # from center (5,5), wall along +x is at x=9.975 edge; occupied col at ~9.975
        r = cast_rays(g, 5.0, 5.0, np.array([0.0]), max_range=20.0)
        assert 4.7 < r[0] < 5.1

    def test_max_range_when_clear(self):
        g = open_world(20.0, resolution=0.05)
        r = cast_rays(g, 10.0, 10.0, np.array([0.0]), max_range=2.0)
        assert r[0] == 2.0

    def test_many_angles_vectorized(self):
        g = box_world(10.0)
        a = np.linspace(-np.pi, np.pi, 90, endpoint=False)
        r = cast_rays(g, 2.0, 2.0, a, max_range=15.0)
        assert r.shape == (90,)
        assert (r > 0).all() and (r <= 15.0).all()

    def test_ray_toward_box_shorter_than_away(self):
        g = box_world(10.0)  # box occupies [4,6]^2
        toward = cast_rays(g, 3.0, 5.0, np.array([0.0]), 15.0)[0]
        away = cast_rays(g, 3.0, 5.0, np.array([np.pi]), 15.0)[0]
        assert toward < away
        assert 0.8 < toward < 1.3  # box face at x=4

    def test_unknown_blocking_flag(self):
        g = OccupancyGrid.empty(40, 40, resolution=0.1, fill=CellState.UNKNOWN)
        g.fill_rect_world(0.5, 0.5, 3.5, 3.5, CellState.FREE)
        blocked = cast_rays(g, 2.0, 2.0, np.array([0.0]), 10.0, hit_unknown=True)[0]
        passed = cast_rays(g, 2.0, 2.0, np.array([0.0]), 10.0, hit_unknown=False)[0]
        assert blocked < passed

    def test_empty_angles(self):
        g = open_world(5.0)
        assert cast_rays(g, 2, 2, np.empty(0), 3.0).shape == (0,)

    def test_bad_max_range(self):
        with pytest.raises(ValueError):
            cast_rays(open_world(5.0), 2, 2, np.array([0.0]), 0.0)
        with pytest.raises(ValueError):
            cast_rays(open_world(5.0), 2, 2, np.empty(0), 0.0)

    @given(
        rows=st.integers(1, 24),
        cols=st.integers(1, 24),
        grid_seed=st.integers(0, 2**32 - 1),
        resolution=st.sampled_from([0.05, 0.1, 0.25, 0.3]),
        origin=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        # the ray origin in half cells from the grid origin, on or off the
        # grid; on a half-cell point axis-aligned and diagonal rays run
        # along cell boundaries, where any re-rounded step shows
        start=st.tuples(st.integers(-8, 60), st.integers(-8, 60)),
        jitter=st.one_of(
            st.just((0.0, 0.0)), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
        ),
        ray_angles=st.lists(
            st.one_of(
                st.floats(-10.0, 10.0), st.sampled_from([k * np.pi / 4 for k in range(-8, 9)])
            ),
            min_size=1,
            max_size=12,
        ),
        max_range=st.floats(1e-3, 6.0),
        hit_unknown=st.booleans(),
    )
    def test_matches_stepping_loop(
        self, rows, cols, grid_seed, resolution, origin, start, jitter, ray_angles,
        max_range, hit_unknown,
    ):
        states = np.array(
            [int(CellState.FREE)] * 3 + [int(CellState.OCCUPIED), int(CellState.UNKNOWN)],
            dtype=np.int8,
        )
        data = np.random.default_rng(grid_seed).choice(states, size=(rows, cols))
        g = OccupancyGrid(data, resolution, Pose2D(*origin))
        x = origin[0] + (start[0] + jitter[0]) * resolution / 2
        y = origin[1] + (start[1] + jitter[1]) * resolution / 2
        a = np.array(ray_angles)
        got = cast_rays(g, x, y, a, max_range, hit_unknown)
        want = _reference_cast_rays(g, x, y, a, max_range, hit_unknown)
        assert got.tobytes() == want.tobytes()

    @given(
        shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        origin=st.tuples(st.integers(-5, 25), st.integers(-5, 25)),
        lines=st.lists(
            st.tuples(st.integers(-15, 35), st.integers(-15, 35), st.booleans()),
            max_size=12,
        ),
    )
    def test_trace_lines_is_union_of_bresenham_lines(self, shape, origin, lines):
        r0, c0 = origin
        r1 = np.array([ln[0] for ln in lines], dtype=np.int64)
        c1 = np.array([ln[1] for ln in lines], dtype=np.int64)
        to_end = np.array([ln[2] for ln in lines], dtype=bool)
        rr, cc = trace_lines(r0, c0, r1, c1, to_end, shape)
        want = set()
        for a, b, keep_end in lines:
            cells = bresenham_cells(r0, c0, a, b)
            want |= {
                (r, c)
                for r, c in (cells if keep_end else cells[:-1]).tolist()
                if 0 <= r < shape[0] and 0 <= c < shape[1]
            }
        assert set(zip(rr.tolist(), cc.tolist())) == want
        # the same cells in the same order as the lockstep loop
        loop_rr, loop_cc = _reference_trace_lines(r0, c0, r1, c1, to_end, shape)
        assert rr.tobytes() == loop_rr.tobytes() and cc.tobytes() == loop_cc.tobytes()

    @pytest.mark.parametrize("include_end", [False, True])
    def test_trace_lines_matches_lockstep_loop_exhaustively(self, include_end):
        # every endpoint within 80 cells of the origin, one fan per
        # endpoint row, on a grid that holds every cell; same cells in
        # the same order as the loop
        span = np.arange(-80, 81)
        to_end = np.full(span.size, include_end)
        for dr in span:
            r1, c1 = np.full(span.size, 80 + dr), 80 + span
            got = trace_lines(80, 80, r1, c1, to_end, (161, 161))
            want = _reference_trace_lines(80, 80, r1, c1, to_end, (161, 161))
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
    def test_bresenham_endpoints_and_connectivity(self, r0, c0, r1, c1):
        cells = bresenham_cells(r0, c0, r1, c1)
        assert tuple(cells[0]) == (r0, c0)
        assert tuple(cells[-1]) == (r1, c1)
        steps = np.abs(np.diff(cells, axis=0))
        assert (steps.max(axis=1) == 1).all()  # 8-connected, no jumps
        # one step per cell of the longer axis (trace_lines relies on it)
        assert len(cells) == max(abs(r1 - r0), abs(c1 - c0)) + 1


class TestMaps:
    def test_open_world_walled(self):
        g = open_world(5.0)
        assert g.data[0, :].min() == int(CellState.OCCUPIED)
        assert g.data[-1, :].min() == int(CellState.OCCUPIED)

    def test_box_world_center_blocked(self):
        g = box_world(10.0)
        assert g.state_at_world(5.0, 5.0) == CellState.OCCUPIED

    def test_corridor_dimensions(self):
        g = corridor_world(12.0, 2.0, 0.1)
        assert g.cols == 120 and g.rows == 20

    def test_obstacle_course_deterministic(self):
        a = obstacle_course_world(seed=3)
        b = obstacle_course_world(seed=3)
        assert (a.data == b.data).all()
        c = obstacle_course_world(seed=4)
        assert (a.data != c.data).any()

    def test_intel_lab_has_structure(self):
        g = intel_lab_world()
        frac = g.occupied_mask().mean()
        assert 0.1 < frac < 0.6
        assert g.rows > 100 and g.cols > 200


class TestLidar:
    def test_scan_shape_and_bounds(self):
        g = open_world(8.0)
        scan = Lidar(g).scan(Pose2D(4, 4, 0))
        assert scan.ranges.shape == (360,)
        assert (scan.ranges <= LDS01_SPEC.range_max).all()

    def test_scan_size_matches_paper(self):
        g = open_world(8.0)
        scan = Lidar(g).scan(Pose2D(4, 4, 0))
        # paper: max message is the 2.94 KB laser scan
        assert 2800 < scan.size_bytes() < 3100

    def test_noise_reproducible(self):
        g = box_world(8.0)
        s1 = Lidar(g, rng=seeded_rng(5)).scan(Pose2D(2, 2, 0))
        s2 = Lidar(g, rng=seeded_rng(5)).scan(Pose2D(2, 2, 0))
        assert np.allclose(s1.ranges, s2.ranges)

    def test_noiseless_when_no_rng(self):
        g = box_world(8.0)
        s1 = Lidar(g).scan(Pose2D(2, 2, 0))
        s2 = Lidar(g).scan(Pose2D(2, 2, 0))
        assert (s1.ranges == s2.ranges).all()

    def test_points_in_sensor_frame(self):
        g = open_world(6.0)
        scan = Lidar(g).scan(Pose2D(3, 3, 0))
        pts = scan.points()
        m = scan.valid_mask()
        assert pts.shape == (int(m.sum()), 2)
        # every point radius equals its range
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), scan.ranges[m])

    def test_heading_rotates_scan(self):
        g = box_world(10.0)  # box at center
        s_facing = Lidar(g).scan(Pose2D(3.0, 5.0, 0.0))
        s_away = Lidar(g).scan(Pose2D(3.0, 5.0, np.pi))
        # beam index for sensor-frame angle 0 differs in world effect
        idx0 = np.argmin(np.abs(s_facing.angles - 0))
        assert s_facing.ranges[idx0] < s_away.ranges[idx0]
