"""Tests for costmap, likelihood field, AMCL and GMapping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from repro.middleware.messages import ScanMsg
from repro.perception import (
    Amcl,
    AmclConfig,
    CostValues,
    GMapping,
    GMappingConfig,
    LayeredCostmap,
    LikelihoodField,
    costmap_update_cycles,
)
from repro.perception.amcl import amcl_update_cycles
from repro.perception.costmap import CostmapSnapshot, InflationConfig
from repro.perception.gmapping import gmapping_scan_cycles
from repro.sim.rng import seeded_rng
from repro.vehicle import LGV
from repro.world import CellState, Lidar, OccupancyGrid, Pose2D, box_world, open_world
from tests.test_world import bresenham_cells


def drive_and_scan(world, start, n=10, v=0.2, w=0.3, seed=1):
    """Produce (scans, odom deltas, truth poses) by driving an LGV."""
    bot = LGV(world, start=start, rng=seeded_rng(seed))
    scans, deltas, truths = [], [], []
    last = bot.odom_pose
    for _ in range(n):
        bot.set_command(v, w)
        for _ in range(10):
            bot.step(0.05)
        scans.append(bot.scan())
        deltas.append(bot.odom_pose.relative_to(last))
        truths.append(bot.pose)
        last = bot.odom_pose
    return scans, deltas, truths


class TestLayeredCostmap:
    def test_static_layer_from_map(self):
        cm = LayeredCostmap(static_map=box_world(10.0))
        assert cm.cost_at_world(5.0, 5.0) == CostValues.LETHAL

    def test_inflation_ring_around_lethal(self):
        cm = LayeredCostmap(static_map=box_world(10.0))
        # just outside the box face at x=4: inscribed or inflated
        assert cm.cost_at_world(3.93, 5.0) >= 100
        # well away from anything: free
        assert cm.cost_at_world(2.0, 7.5) < 50

    def test_obstacle_marking_from_scan(self):
        world = open_world(8.0)
        cm = LayeredCostmap(static_map=open_world(8.0))
        # place a phantom obstacle in the真 world and scan it
        world.fill_rect_world(4.8, 3.9, 5.2, 4.1, CellState.OCCUPIED)
        scan = Lidar(world).scan(Pose2D(3.0, 4.0, 0.0))
        before = cm.cost_at_world(4.8, 4.0)
        cm.update_from_scan(scan, Pose2D(3.0, 4.0, 0.0))
        after = cm.cost_at_world(4.8, 4.0)
        assert before < CostValues.LETHAL
        assert after == CostValues.LETHAL

    def test_clearing_removes_stale_obstacle(self):
        world = open_world(8.0)
        cm = LayeredCostmap(static_map=open_world(8.0))
        world.fill_rect_world(4.8, 3.9, 5.2, 4.1, CellState.OCCUPIED)
        scan = Lidar(world).scan(Pose2D(3.0, 4.0, 0.0))
        cm.update_from_scan(scan, Pose2D(3.0, 4.0, 0.0))
        # the visible face is lethal; cells behind it are inscribed
        assert cm.cost_at_world(4.9, 4.0) >= CostValues.INSCRIBED
        # obstacle disappears; new scan ray-traces through
        world.fill_rect_world(4.8, 3.9, 5.2, 4.1, CellState.FREE)
        scan2 = Lidar(world).scan(Pose2D(3.0, 4.0, 0.0))
        cm.update_from_scan(scan2, Pose2D(3.0, 4.0, 0.0))
        assert cm.cost_at_world(4.9, 4.0) < CostValues.LETHAL

    def test_out_of_bounds_is_lethal(self):
        cm = LayeredCostmap(static_map=open_world(5.0))
        assert cm.cost_at_world(-10.0, 0.0) == CostValues.LETHAL

    def test_costs_at_world_vectorized_matches_scalar(self):
        cm = LayeredCostmap(static_map=box_world(8.0))
        pts = seeded_rng(2).uniform(0, 8, size=(40, 2))
        vec = cm.costs_at_world(pts)
        for (x, y), c in zip(pts, vec):
            assert c == cm.cost_at_world(x, y)

    def test_snapshot_equivalent_to_live(self):
        cm = LayeredCostmap(static_map=box_world(8.0))
        snap = CostmapSnapshot(cm.cost, cm.resolution, cm.origin)
        pts = seeded_rng(3).uniform(0, 8, size=(30, 2))
        assert (snap.costs_at_world(pts) == cm.costs_at_world(pts)).all()

    def test_static_shape_mismatch_rejected(self):
        cm = LayeredCostmap(static_map=open_world(5.0))
        with pytest.raises(ValueError):
            cm.set_static_from(OccupancyGrid.empty(3, 3))

    def test_update_cycles_model(self):
        assert costmap_update_cycles(360, 40000) > costmap_update_cycles(90, 40000)
        with pytest.raises(ValueError):
            costmap_update_cycles(-1, 0)


def _reference_cost(cm):
    """LayeredCostmap._recompute as it inflated the whole map on every update."""
    lethal = cm.lethal_mask()
    cost = np.zeros_like(cm.cost, dtype=np.uint8)
    if lethal.any():
        dist = ndimage.distance_transform_edt(~lethal, sampling=cm.resolution)
        infl = cm.inflation
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


def _random_grid(rng, shape, resolution, p_occupied):
    data = np.where(rng.random(shape) < p_occupied, CellState.OCCUPIED, CellState.FREE)
    return OccupancyGrid(data.astype(np.int8), resolution, Pose2D())


class TestWindowedInflation:
    @given(
        resolution=st.sampled_from([0.025, 0.05, 0.1, 0.25]),
        inflation=st.sampled_from(
            [
                InflationConfig(),
                InflationConfig(robot_radius_m=0.2, inflation_radius_m=0.6, cost_scaling=3.0),
                InflationConfig(robot_radius_m=0.05, inflation_radius_m=0.15, cost_scaling=15.0),
                # radii that are whole multiples of a resolution: a cell
                # exactly ``pad`` cells from a lethal one still has a cost
                InflationConfig(robot_radius_m=0.25, inflation_radius_m=0.5, cost_scaling=4.0),
                # the robot radius alone reaches past the inflation radius
                InflationConfig(robot_radius_m=0.5, inflation_radius_m=0.25),
            ]
        ),
        shape=st.tuples(st.integers(4, 64), st.integers(4, 64)),
        with_static=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.sampled_from(["flip", "replace", "static", "scan", "snapshot", "restore", "none"]),
            min_size=1,
            max_size=14,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_whole_map_inflation(
        self, resolution, inflation, shape, with_static, seed, ops
    ):
        from repro.workloads.pipeline import CostmapGenNode

        rng = np.random.default_rng(seed)
        rows, cols = shape
        if with_static:
            cm = LayeredCostmap(
                static_map=_random_grid(rng, shape, resolution, 0.02), inflation=inflation
            )
        else:
            cm = LayeredCostmap(rows=rows, cols=cols, resolution=resolution, inflation=inflation)
        node = CostmapGenNode(cm)
        world = _random_grid(rng, shape, resolution, 0.01)
        lidar = Lidar(world)
        snap = None
        assert cm.cost.tobytes() == _reference_cost(cm).tobytes()
        for op in ops:
            if op == "flip":  # a few cells near each other change state
                r, c = int(rng.integers(rows)), int(rng.integers(cols))
                h, w = rng.integers(1, 4, size=2)
                block = cm._obstacle_lethal[r : r + h, c : c + w]
                block ^= rng.random(block.shape) < 0.7
                cm._recompute()
            elif op == "replace":
                cm._obstacle_lethal = rng.random(shape) < rng.choice([0.0, 0.01, 0.1])
                cm._recompute()
            elif op == "static":
                cm.set_static_from(_random_grid(rng, shape, resolution, 0.02))
            elif op == "scan":
                xy = rng.uniform(0, 1, size=2) * [cols, rows] * resolution
                pose = Pose2D(xy[0], xy[1], rng.uniform(-np.pi, np.pi))
                node.on_scan(ScanMsg(scan=lidar.scan(pose)))
            elif op == "snapshot":
                snap = node.snapshot()
            elif op == "restore":
                node.restore(snap)
                # restore rewrites the cost array itself; the next update
                # must re-inflate the whole map, as the reference does
                cm._recompute()
            else:
                cm._recompute()
            assert cm.cost.tobytes() == _reference_cost(cm).tobytes(), op

    def test_restore_then_scan_matches_whole_map_inflation(self):
        from repro.workloads.pipeline import CostmapGenNode

        world = box_world(8.0)
        lidar = Lidar(world)
        cm = LayeredCostmap(rows=120, cols=120, resolution=0.05)  # 6 m of the 8 m world
        node = CostmapGenNode(cm)
        poses = [Pose2D(1.5 + 0.4 * i, 2.0 + 0.2 * i, 0.3 * i) for i in range(8)]
        node.on_scan(ScanMsg(scan=lidar.scan(poses[0])))
        snap = node.snapshot()
        for pose in poses[1:5]:
            node.on_scan(ScanMsg(scan=lidar.scan(pose)))
        node.restore(snap)
        assert cm._lethal is None
        for pose in poses[5:]:
            node.on_scan(ScanMsg(scan=lidar.scan(pose)))
            assert cm.cost.tobytes() == _reference_cost(cm).tobytes()

    def test_published_costmap_keeps_its_bytes(self):
        # a remote planner reads the GridMsg after the network delay,
        # while the costmap keeps updating
        from repro.workloads.pipeline import CostmapGenNode

        world = open_world(8.0)
        lidar = Lidar(world)
        node = CostmapGenNode(LayeredCostmap(static_map=open_world(8.0)))
        world.fill_rect_world(4.8, 3.9, 5.2, 4.1, CellState.OCCUPIED)
        node.on_scan(ScanMsg(scan=lidar.scan(Pose2D(3.0, 4.0, 0.0))))
        (_, published), = node._pub_buffer
        held = published.data.tobytes()
        world.fill_rect_world(4.8, 3.9, 5.2, 4.1, CellState.FREE)
        world.fill_rect_world(4.8, 4.9, 5.2, 5.1, CellState.OCCUPIED)
        node.on_scan(ScanMsg(scan=lidar.scan(Pose2D(3.0, 4.0, 0.3))))
        assert node.costmap.cost.tobytes() != held  # the map did change
        assert published.data.tobytes() == held


class TestLikelihoodField:
    def test_distance_zero_on_obstacle(self):
        g = box_world(8.0)
        f = LikelihoodField(g)
        r, c = g.world_to_cell(4.0, 4.0)  # inside the box
        assert f.dist[r, c] == 0.0

    def test_likelihood_higher_near_obstacles(self):
        g = box_world(8.0)
        f = LikelihoodField(g)
        on = f.likelihoods(np.array([[3.2, 4.0]]))[0]  # box face
        off = f.likelihoods(np.array([[1.6, 1.6]]))[0]  # open space
        assert on > off

    def test_log_likelihood_prefers_true_pose(self):
        g = box_world(8.0)
        f = LikelihoodField(g)
        scan = Lidar(g).scan(Pose2D(2.0, 2.0, 0.3))
        from repro.world.geometry import transform_points

        good = f.log_likelihood(transform_points(scan.points(), Pose2D(2.0, 2.0, 0.3)))
        bad = f.log_likelihood(transform_points(scan.points(), Pose2D(2.6, 2.6, 0.3)))
        assert good > bad

    def test_empty_points(self):
        f = LikelihoodField(box_world(5.0))
        assert f.log_likelihood(np.empty((0, 2))) == 0.0

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            LikelihoodField(box_world(5.0), sigma_m=0.0)


class TestAmcl:
    def test_tracks_driving_robot(self):
        world = box_world(8.0)
        scans, deltas, truths = drive_and_scan(world, Pose2D(2, 2, 0))
        amcl = Amcl(world, AmclConfig(n_particles=250), seeded_rng(4), initial_pose=Pose2D(2, 2, 0))
        for scan, delta in zip(scans, deltas):
            amcl.predict(delta)
            amcl.update(scan)
        assert amcl.estimate().distance_to(truths[-1]) < 0.15

    def test_covariance_shrinks_with_updates(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0))
        amcl = Amcl(
            world, AmclConfig(n_particles=250), seeded_rng(4),
            initial_pose=Pose2D(2, 2, 0), initial_std=(0.5, 0.5, 0.3),
        )
        before = amcl.covariance_trace()
        for scan, delta in zip(scans, deltas):
            amcl.predict(delta)
            amcl.update(scan)
        assert amcl.covariance_trace() < before

    def test_global_init_without_pose(self):
        world = box_world(8.0)
        amcl = Amcl(world, AmclConfig(n_particles=100), seeded_rng(0))
        # all particles start in free space
        for x, y in amcl.particles[:, :2]:
            assert world.is_free_world(x, y)

    def test_kld_adapts_particle_count(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=8)
        amcl = Amcl(world, AmclConfig(n_particles=500), seeded_rng(4), initial_pose=Pose2D(2, 2, 0))
        n0 = amcl.n_particles
        for scan, delta in zip(scans, deltas):
            amcl.predict(delta)
            amcl.update(scan)
        # converged cloud needs fewer particles
        assert amcl.n_particles <= n0
        assert amcl.n_particles >= amcl.config.min_particles

    def test_weights_stay_normalized(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=5)
        amcl = Amcl(world, AmclConfig(n_particles=150), seeded_rng(4), initial_pose=Pose2D(2, 2, 0))
        for scan, delta in zip(scans, deltas):
            amcl.predict(delta)
            amcl.update(scan)
            assert np.sum(amcl.weights) == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=5)

        def run():
            a = Amcl(world, AmclConfig(n_particles=150), seeded_rng(4), initial_pose=Pose2D(2, 2, 0))
            for scan, delta in zip(scans, deltas):
                a.predict(delta)
                a.update(scan)
            return a.estimate()

        assert run() == run()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AmclConfig(n_particles=10, min_particles=50)
        with pytest.raises(ValueError):
            AmclConfig(beams_used=0)

    def test_cycle_model(self):
        assert amcl_update_cycles(600, 40) > amcl_update_cycles(300, 40)
        with pytest.raises(ValueError):
            amcl_update_cycles(-1, 40)


class TestGMapping:
    def make(self, n_particles=8):
        cfg = GMappingConfig(n_particles=n_particles, rows=170, cols=170)
        return GMapping(cfg, rng=seeded_rng(3), initial_pose=Pose2D(2, 2, 0))

    def test_builds_map_and_tracks(self):
        world = box_world(8.0)
        scans, deltas, truths = drive_and_scan(world, Pose2D(2, 2, 0), n=12)
        slam = self.make()
        for scan, delta in zip(scans, deltas):
            est = slam.process(scan, delta)
        assert est.distance_to(truths[-1]) < 0.25
        m = slam.map_estimate()
        assert m.known_fraction() > 0.1
        assert m.occupied_mask().sum() > 50

    def test_map_marks_true_walls(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=12)
        slam = self.make()
        for scan, delta in zip(scans, deltas):
            slam.process(scan, delta)
        m = slam.map_estimate()
        # the box face toward the robot should be mapped occupied
        r, c = m.world_to_cell(3.2, 3.2)
        window = m.data[r - 8 : r + 8, c - 8 : c + 8]
        assert (window == int(CellState.OCCUPIED)).any()

    def test_weights_normalized_after_update(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=6)
        slam = self.make()
        for scan, delta in zip(scans, deltas):
            slam.process(scan, delta)
            assert slam.weights.sum() == pytest.approx(1.0)

    def test_neff_recorded(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=5)
        slam = self.make()
        for scan, delta in zip(scans, deltas):
            slam.process(scan, delta)
        assert len(slam.neff_history) == 5
        assert all(1.0 <= n <= 8.0 + 1e-9 for n in slam.neff_history)

    def test_state_bytes_scales_with_particles(self):
        s8 = self.make(n_particles=8)
        s4 = self.make(n_particles=4)
        assert s8.state_bytes() == 2 * s4.state_bytes()

    def test_cycle_model_linear_in_particles(self):
        c10 = gmapping_scan_cycles(10)
        c100 = gmapping_scan_cycles(100)
        assert c100 > 9 * c10 * 0.9
        with pytest.raises(ValueError):
            gmapping_scan_cycles(-1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GMappingConfig(n_particles=0)


# ----------------------------------------------------------------------
# Batched kernels against one-item-at-a-time reference copies
# ----------------------------------------------------------------------
class _RefParticle:
    def __init__(self, pose, log_odds, weight, rng):
        self.pose, self.log_odds, self.weight, self.rng = pose, log_odds, weight, rng
        self.match_score = 0.0


class _ReferenceGMapping:
    """The per-particle GMapping the batched kernels replaced: a list of
    particles, one hill climb and one ``_score`` call per candidate, and
    ``np.unique`` for the map cells."""

    def __init__(self, config, rng, initial_pose):
        from repro.sim.rng import split_rng

        self.config = config
        streams = split_rng(rng, config.n_particles)
        self.particles = [
            _RefParticle(
                initial_pose.as_array(),
                np.zeros((config.rows, config.cols), dtype=np.float32),
                1.0 / config.n_particles,
                streams[i],
            )
            for i in range(config.n_particles)
        ]
        self.scans_processed = 0
        self.resamples = 0
        self.neff_history = []

    def process(self, scan, delta):
        from repro.world.geometry import normalize_angle

        cfg = self.config
        match_pts, match_r = GMapping._subsample(self, scan, cfg.match_beams)
        map_pts, map_r = GMapping._subsample(self, scan, cfg.map_beams)
        for p in self.particles:
            trans = np.hypot(delta.x, delta.y)
            rot = abs(delta.theta)
            dx = delta.x + p.rng.normal(0, cfg.alpha_trans * trans + 1e-4)
            dy = delta.y + p.rng.normal(0, cfg.alpha_trans * trans + 1e-4)
            dth = delta.theta + p.rng.normal(
                0, cfg.alpha_rot * rot + cfg.alpha_trans * trans + 1e-4
            )
            th = p.pose[2]
            c, s = np.cos(th), np.sin(th)
            p.pose[0] += c * dx - s * dy
            p.pose[1] += s * dx + c * dy
            p.pose[2] = normalize_angle(th + dth)
        for p in self.particles:
            self._scan_match(p, match_r, match_pts)
        scores = np.array([p.match_score for p in self.particles])
        w = np.array([p.weight for p in self.particles])
        w = w * np.exp(cfg.weight_scale * (scores - scores.max()))
        w /= w.sum()
        for p, wi in zip(self.particles, w):
            p.weight = float(wi)
        self.neff_history.append(self._neff())
        if self._neff() < cfg.resample_neff_frac * len(self.particles):
            self._resample()
        for p in self.particles:
            self._map_update(p, map_r, map_pts)
        self.scans_processed += 1
        best = max(self.particles, key=lambda p: p.weight)
        return Pose2D.from_array(best.pose)

    def _neff(self):
        w = np.array([p.weight for p in self.particles])
        return float(1.0 / np.sum(w**2))

    def _scan_match(self, p, ranges, angles):
        from repro.world.geometry import normalize_angle

        if len(ranges) == 0 or self.scans_processed == 0:
            p.match_score = 0.0
            return
        cfg = self.config
        step_t, step_r = cfg.search_step_m, cfg.search_step_rad
        pose = p.pose.copy()
        best = self._score(p.log_odds, pose, ranges, angles)
        for _ in range(cfg.search_rounds):
            improved = True
            while improved:
                improved = False
                for d in (
                    (step_t, 0.0, 0.0),
                    (-step_t, 0.0, 0.0),
                    (0.0, step_t, 0.0),
                    (0.0, -step_t, 0.0),
                    (0.0, 0.0, step_r),
                    (0.0, 0.0, -step_r),
                ):
                    cand = pose + np.asarray(d)
                    s = self._score(p.log_odds, cand, ranges, angles)
                    if s > best:
                        best, pose = s, cand
                        improved = True
            step_t *= 0.5
            step_r *= 0.5
        pose[2] = normalize_angle(pose[2])
        p.pose = pose
        p.match_score = best / max(len(ranges), 1)

    def _score(self, log_odds, pose, ranges, angles):
        cfg = self.config
        th = pose[2] + angles
        ex = pose[0] + ranges * np.cos(th)
        ey = pose[1] + ranges * np.sin(th)
        r = np.floor((ey - cfg.origin.y) / cfg.resolution + 0.5).astype(np.int64)
        c = np.floor((ex - cfg.origin.x) / cfg.resolution + 0.5).astype(np.int64)
        ok = (r >= 0) & (r < cfg.rows) & (c >= 0) & (c < cfg.cols)
        if not ok.any():
            return -1e9
        probs = 1.0 / (1.0 + np.exp(-log_odds[r[ok], c[ok]]))
        return float(np.sum(probs) - 0.5 * np.sum(~ok))

    def _resample(self):
        n = len(self.particles)
        w = np.array([p.weight for p in self.particles])
        positions = (self.particles[0].rng.random() + np.arange(n)) / n
        cumsum = np.cumsum(w)
        cumsum[-1] = 1.0
        idx = np.searchsorted(cumsum, positions)
        snapshot = [
            (self.particles[i].pose.copy(), self.particles[i].log_odds.copy(),
             self.particles[i].match_score)
            for i in idx
        ]
        for p, (pose, lo, ms) in zip(self.particles, snapshot):
            p.pose, p.log_odds, p.match_score = pose, lo, ms
            p.weight = 1.0 / n
        self.resamples += 1

    def _map_update(self, p, ranges, angles):
        from repro.perception.gmapping import L_CLAMP, L_FREE, L_OCC

        if len(ranges) == 0:
            return
        cfg = self.config
        th = p.pose[2] + angles
        cth, sth = np.cos(th), np.sin(th)
        step = cfg.resolution
        n_steps = int(np.ceil(ranges.max() / step))
        lo = p.log_odds.ravel()
        if n_steps >= 1:
            ts = (np.arange(n_steps) + 0.5) * step
            live = ts[:, None] < (ranges[None, :] - 0.5 * step)
            px = p.pose[0] + ts[:, None] * cth[None, :]
            py = p.pose[1] + ts[:, None] * sth[None, :]
            r = np.floor((py - cfg.origin.y) / cfg.resolution + 0.5).astype(np.int64)
            c = np.floor((px - cfg.origin.x) / cfg.resolution + 0.5).astype(np.int64)
            ok = live & (r >= 0) & (r < cfg.rows) & (c >= 0) & (c < cfg.cols)
            flat = np.unique(r[ok] * cfg.cols + c[ok])
            lo[flat] = np.maximum(lo[flat] + np.float32(L_FREE), -L_CLAMP)
        ex = p.pose[0] + ranges * cth
        ey = p.pose[1] + ranges * sth
        r = np.floor((ey - cfg.origin.y) / cfg.resolution + 0.5).astype(np.int64)
        c = np.floor((ex - cfg.origin.x) / cfg.resolution + 0.5).astype(np.int64)
        ok = (r >= 0) & (r < cfg.rows) & (c >= 0) & (c < cfg.cols)
        flat = np.unique(r[ok] * cfg.cols + c[ok])
        lo[flat] = np.minimum(lo[flat] + np.float32(L_OCC), L_CLAMP)


def _reference_update_from_scan(cm, scan, pose):
    """LayeredCostmap.update_from_scan with one bresenham_cells call per beam."""
    res = cm.resolution
    r0 = int(np.floor((pose.y - cm.origin.y) / res + 0.5))
    c0 = int(np.floor((pose.x - cm.origin.x) / res + 0.5))
    m = scan.valid_mask()
    wa = scan.angles[m] + pose.theta
    ex = pose.x + scan.ranges[m] * np.cos(wa)
    ey = pose.y + scan.ranges[m] * np.sin(wa)
    rows_hit = np.floor((ey - cm.origin.y) / res + 0.5).astype(np.int64)
    cols_hit = np.floor((ex - cm.origin.x) / res + 0.5).astype(np.int64)
    mr = scan.range_max * 0.999
    ma = scan.angles[~m] + pose.theta
    mrows = np.floor((pose.y + mr * np.sin(ma) - cm.origin.y) / res + 0.5).astype(np.int64)
    mcols = np.floor((pose.x + mr * np.cos(ma) - cm.origin.x) / res + 0.5).astype(np.int64)
    lethal = cm._obstacle_lethal.copy()
    beams = [(rh, ch, False) for rh, ch in zip(rows_hit, cols_hit)]
    beams += [(rh, ch, True) for rh, ch in zip(mrows, mcols)]
    for rh, ch, to_end in beams:
        cells = bresenham_cells(r0, c0, int(rh), int(ch))
        if not to_end:
            cells = cells[:-1]
        rr, cc = cells[:, 0], cells[:, 1]
        ok = (rr >= 0) & (rr < cm.rows) & (cc >= 0) & (cc < cm.cols)
        lethal[rr[ok], cc[ok]] = False
    ok = (rows_hit >= 0) & (rows_hit < cm.rows) & (cols_hit >= 0) & (cols_hit < cm.cols)
    lethal[rows_hit[ok], cols_hit[ok]] = True
    return lethal


class TestBatchedKernelsMatchReference:
    @pytest.mark.parametrize(
        "n_particles, weight_scale", [(1, 3.0), (8, 3.0), (8, 40.0)]
    )
    def test_gmapping_bit_identical_to_per_particle(self, n_particles, weight_scale):
        # a 3 m map around a robot in an 8 m world: many beam endpoints
        # (and whole candidates' scans) leave the map
        world = box_world(8.0)
        start = Pose2D(1.5, 1.5, 0.5)
        scans, deltas, _ = drive_and_scan(world, start, n=12)
        cfg = GMappingConfig(
            n_particles=n_particles, rows=60, cols=60, weight_scale=weight_scale
        )
        ref = _ReferenceGMapping(cfg, seeded_rng(3), start)
        new = GMapping(cfg, rng=seeded_rng(3), initial_pose=start)
        for scan, delta in zip(scans, deltas):
            assert new.process(scan, delta) == ref.process(scan, delta)
            assert np.array_equal(new.poses, [p.pose for p in ref.particles])
            assert np.array_equal(new.weights, [p.weight for p in ref.particles])
            assert np.array_equal(new.match_scores, [p.match_score for p in ref.particles])
            assert new.log_odds.tobytes() == np.stack(
                [p.log_odds for p in ref.particles]
            ).tobytes()
        assert new.neff_history == ref.neff_history
        assert new.resamples == ref.resamples
        if weight_scale > 3.0:
            assert ref.resamples >= 1  # the resample copy is exercised

    def test_costmap_clearing_matches_per_beam_bresenham(self):
        world = box_world(8.0)
        lidar = Lidar(world)
        rng = seeded_rng(11)
        cm = LayeredCostmap(rows=120, cols=120, resolution=0.05)  # 6 m of the 8 m world
        for _ in range(12):
            truth = Pose2D(*rng.uniform(0.5, 7.5, size=2), rng.uniform(-3, 3))
            belief = Pose2D(truth.x + rng.normal(0, 0.2), truth.y, truth.theta)
            expect = _reference_update_from_scan(cm, lidar.scan(truth), belief)
            cm.update_from_scan(lidar.scan(truth), belief)
            assert np.array_equal(cm._obstacle_lethal, expect)


class TestSlamNodeCheckpoint:
    def test_restore_returns_filter_to_snapshot(self):
        from repro.workloads.pipeline import SlamNode

        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=6)
        slam = GMapping(
            GMappingConfig(n_particles=4, rows=100, cols=100, weight_scale=40.0),
            rng=seeded_rng(2), initial_pose=Pose2D(2, 2, 0),
        )
        node = SlamNode(slam)
        for scan, delta in zip(scans[:3], deltas[:3]):
            slam.process(scan, delta)
        snap = node.snapshot()
        before = (slam.poses.copy(), slam.log_odds.copy(), slam.weights.copy())
        for scan, delta in zip(scans[3:], deltas[3:]):
            slam.process(scan, delta)
        assert not np.array_equal(slam.log_odds, before[1])
        node.restore(snap)
        node.restore(snap)  # idempotent
        assert np.array_equal(slam.poses, before[0])
        assert np.array_equal(slam.log_odds, before[1])
        assert np.array_equal(slam.weights, before[2])
        slam.log_odds[0, 0, 0] = 5.0  # the snapshot does not alias live state
        assert snap["log_odds"][0, 0, 0] == before[1][0, 0, 0]
