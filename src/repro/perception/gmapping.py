"""Rao-Blackwellized particle-filter SLAM (reimplementation of GMapping).

Each particle carries a pose hypothesis and its own occupancy map
(log-odds). Per scan the filter runs, exactly as the original:

1. motion update from odometry (sampled noise, per-particle RNG);
2. ``scanMatch`` — hill-climbing pose refinement of every particle
   against its own map (the paper measures 98% of SLAM time here);
3. ``updateTreeWeights`` — weight normalization + Neff;
4. selective ``resample`` when Neff drops;
5. map integration of the scan into every particle's map.

The particle set is stored as stacked arrays — ``poses (P, 3)``,
``log_odds (P, rows, cols)``, ``weights (P,)``, ``match_scores (P,)`` —
so resampling is one fancy-index copy. ``scanMatch`` climbs every
particle at once: each pass scores, in one broadcast, the directions
left in every climbing particle's pass and takes the first that
improves, which is the move a one-particle-at-a-time climb makes. The
score sums each candidate's endpoint probabilities as one row of an
equal-length block, the same pairwise float32 sum a 1-D ``np.sum``
gives, so the result is bit-identical to scoring candidates one by
one. Only the motion update stays per particle, because every particle
slot owns an independent RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.rng import seeded_rng, split_rng
from repro.world.geometry import Pose2D, normalize_angle
from repro.world.grid import CellState, OccupancyGrid
from repro.world.lidar import LidarScan

#: Log-odds increments per observation.
L_OCC = 0.9
L_FREE = -0.4
L_CLAMP = 10.0

#: scanMatch's hill-climb directions in the order it tries them, as
#: unit moves in (x, y, theta): +x, -x, +y, -y, +theta, -theta.
_DIRECTIONS = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.float64
)


@dataclass(frozen=True)
class GMappingConfig:
    """GMapping tuning parameters."""

    n_particles: int = 30
    rows: int = 240
    cols: int = 240
    resolution: float = 0.05
    origin: Pose2D = Pose2D()
    match_beams: int = 60  # beams used by scanMatch
    map_beams: int = 180  # beams used for map integration
    search_step_m: float = 0.05
    search_step_rad: float = 0.04
    search_rounds: int = 3
    alpha_trans: float = 0.06
    alpha_rot: float = 0.06
    resample_neff_frac: float = 0.5
    weight_scale: float = 3.0

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.match_beams < 1 or self.map_beams < 1:
            raise ValueError("beam counts must be >= 1")


class GMapping:
    """Serial RBPF SLAM front end over stacked particle arrays.

    Attributes
    ----------
    poses:
        ``(P, 3)`` float64 ``[x, y, theta]`` per particle.
    log_odds:
        ``(P, rows, cols)`` float32 private map per particle.
    weights, match_scores:
        ``(P,)`` float64 normalized weight and last scanMatch score.
    rngs:
        One generator per particle slot. Resampling copies poses and
        maps between slots but never streams, so the filter is
        deterministic under any resample pattern.
    """

    def __init__(
        self,
        config: GMappingConfig = GMappingConfig(),
        rng: np.random.Generator | None = None,
        initial_pose: Pose2D = Pose2D(),
    ) -> None:
        self.config = config
        master = rng if rng is not None else seeded_rng(0)
        n = config.n_particles
        self.rngs = split_rng(master, n)
        self.poses = np.tile(initial_pose.as_array(), (n, 1))
        self.log_odds = np.zeros((n, config.rows, config.cols), dtype=np.float32)
        self.weights = np.full(n, 1.0 / n)
        self.match_scores = np.zeros(n)
        self.scans_processed = 0
        self.resamples = 0
        self.neff_history: list[float] = []
        # scanMatch move per (round, direction): the round's step on the
        # direction's axis and +0.0 on the other two
        steps = 0.5 ** np.arange(config.search_rounds)[:, None] * [
            config.search_step_m, config.search_step_m, config.search_step_rad
        ]
        self._moves = _DIRECTIONS * steps[:, None, :]

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------
    def process(self, scan: LidarScan, odom_delta: Pose2D) -> Pose2D:
        """Process one (scan, odometry-increment) pair; returns the
        current best pose estimate."""
        match_pts, match_r = self._subsample(scan, self.config.match_beams)
        map_pts_a, map_r = self._subsample(scan, self.config.map_beams)

        self._motion_update(odom_delta)
        self._scan_match(match_r, match_pts)

        self._update_tree_weights()
        if self._neff() < self.config.resample_neff_frac * len(self.weights):
            self._resample()

        self._map_update(map_r, map_pts_a)

        self.scans_processed += 1
        return self.estimate()

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def _subsample(self, scan: LidarScan, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Pick ~n valid beams; returns (angles, ranges)."""
        m = scan.valid_mask()
        idx = np.nonzero(m)[0]
        if len(idx) == 0:
            return np.empty(0), np.empty(0)
        take = idx[:: max(1, len(idx) // n)][:n]
        return scan.angles[take], scan.ranges[take]

    def _motion_update(self, delta: Pose2D) -> None:
        """Sample every particle's odometry noise from its own stream."""
        cfg = self.config
        trans = np.hypot(delta.x, delta.y)
        rot = abs(delta.theta)
        sd_t = cfg.alpha_trans * trans + 1e-4
        sd_r = cfg.alpha_rot * rot + cfg.alpha_trans * trans + 1e-4
        for rng, pose in zip(self.rngs, self.poses):
            dx = delta.x + rng.normal(0, sd_t)
            dy = delta.y + rng.normal(0, sd_t)
            dth = delta.theta + rng.normal(0, sd_r)
            th = pose[2]
            c, s = np.cos(th), np.sin(th)
            pose[0] += c * dx - s * dy
            pose[1] += s * dx + c * dy
            pose[2] = normalize_angle(th + dth)

    # -- scanMatch ------------------------------------------------------
    def _scan_match(self, ranges: np.ndarray, angles: np.ndarray) -> None:
        """Hill-climbing pose refinement of every particle against its
        own map, all climbing at once.

        This is the paper's 98%-of-SLAM-time hot spot. A particle's
        climb runs ``search_rounds`` rounds of passes over the six
        directions, halving the steps each round; a pass takes each
        direction that improves the score and goes on from the new
        pose, and a round repeats its pass until one improves
        nothing. Each loop iteration scores, for every particle still
        climbing, the directions left in its pass from its current pose,
        and takes the first that improves the score.
        """
        if len(ranges) == 0 or self.scans_processed == 0:
            self.match_scores[:] = 0.0
            return
        n_dirs = len(_DIRECTIONS)
        poses = self.poses
        n = len(poses)
        best = self._score(np.arange(n), poses, ranges, angles)
        rnd = np.zeros(n, dtype=np.int64)  # search round
        nxt = np.zeros(n, dtype=np.int64)  # next direction in the pass
        improved = np.zeros(n, dtype=bool)  # the pass moved
        climbing = np.flatnonzero(rnd < self.config.search_rounds)
        while climbing.size:
            left = n_dirs - nxt[climbing]
            row = np.repeat(climbing, left)
            first = np.repeat(np.cumsum(left) - left, left)
            d = np.arange(row.size) - first + nxt[row]
            cand = poses[row] + self._moves[rnd[row], d]
            s = self._score(row, cand, ranges, angles)
            # rows are grouped, so a row's first improving candidate is
            # the first improving entry of its group
            up = np.flatnonzero(s > best[row])
            up = up[np.diff(row[up], prepend=-1) != 0]
            nxt[climbing] = n_dirs
            moved = row[up]
            poses[moved] = cand[up]
            best[moved] = s[up]
            improved[moved] = True
            nxt[moved] = d[up] + 1
            done = climbing[nxt[climbing] == n_dirs]
            rnd[done[~improved[done]]] += 1
            nxt[done] = 0
            improved[done] = False
            climbing = climbing[rnd[climbing] < self.config.search_rounds]
        for pose in poses:
            pose[2] = normalize_angle(pose[2])
        self.match_scores[:] = best / max(len(ranges), 1)

    def _score(self, owners: np.ndarray, poses: np.ndarray, ranges, angles) -> np.ndarray:
        """Endpoint-occupancy score of each pose candidate ``poses[k]``
        against the map of particle ``owners[k]``.

        Endpoints off the map cost 0.5 each; a candidate with every
        endpoint off the map scores -1e9.
        """
        th = poses[:, 2:3] + angles
        ex = poses[:, 0:1] + ranges * np.cos(th)
        ey = poses[:, 1:2] + ranges * np.sin(th)
        r, c, ok = self._cells(ex, ey)
        row = np.nonzero(ok)[0]
        lo = self.log_odds[owners[row], r[ok], c[ok]]
        # occupancy probability of each endpoint cell
        probs = 1.0 / (1.0 + np.exp(-lo))
        # Left-align every candidate's in-map probabilities in a row of
        # ``packed``, rows sorted by their count, and sum each block of
        # equal-count rows along its rows: a row's sum is then exactly
        # the pairwise sum np.sum gives it alone (np.add.reduceat, or
        # summing zero-padded rows, is not).
        n_ok = np.count_nonzero(ok, axis=1)
        order = np.argsort(n_ok, kind="stable")
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))
        packed = np.zeros(ok.shape, dtype=np.float32)
        packed[slot[row], (np.cumsum(ok, axis=1) - 1)[ok]] = probs
        counts = n_ok[order]
        cuts = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(order)]
        sums = np.empty(len(order), dtype=np.float32)
        for a, b in zip(cuts, cuts[1:]):
            sums[a:b] = packed[a:b, : counts[a]].sum(axis=1)
        score = sums[slot].astype(np.float64) - 0.5 * (ok.shape[1] - n_ok)
        score[n_ok == 0] = -1e9
        return score

    # -- weights / resampling --------------------------------------------
    def _update_tree_weights(self) -> None:
        """Normalize weights from match scores (gmapping's
        updateTreeWeights analog)."""
        cfg = self.config
        scores = self.match_scores
        w = self.weights * np.exp(cfg.weight_scale * (scores - scores.max()))
        total = w.sum()
        if total <= 0 or not np.isfinite(total):
            w = np.full(len(w), 1.0 / len(w))
        else:
            w /= total
        self.weights = w
        self.neff_history.append(self._neff())

    def _neff(self) -> float:
        return float(1.0 / np.sum(self.weights**2))

    def _resample(self) -> None:
        """Selective low-variance resampling; maps are deep-copied."""
        n = len(self.weights)
        # The resample draw uses particle 0's stream (deterministic).
        positions = (self.rngs[0].random() + np.arange(n)) / n
        cumsum = np.cumsum(self.weights)
        cumsum[-1] = 1.0
        idx = np.searchsorted(cumsum, positions)
        self.poses = self.poses[idx]
        self.log_odds = self.log_odds[idx]
        self.match_scores = self.match_scores[idx]
        self.weights = np.full(n, 1.0 / n)
        self.resamples += 1

    # -- map integration ---------------------------------------------------
    def _map_update(self, ranges, angles) -> None:
        """Vectorized beam integration into every particle's log-odds
        map.

        Every beam is sampled at half-cell steps short of its endpoint;
        the distinct free cells get one batched decrement, the distinct
        endpoint cells one batched increment.
        """
        if len(ranges) == 0:
            return
        step = self.config.resolution
        n_steps = int(np.ceil(ranges.max() / step))
        # the (distance, beam) pairs of every free-space sample
        ts = (np.arange(n_steps) + 0.5) * step
        s, b = np.nonzero(ts[:, None] < (ranges[None, :] - 0.5 * step))
        t = ts[s]
        for pose, grid in zip(self.poses, self.log_odds):
            lo = grid.ravel()
            th = pose[2] + angles
            cth, sth = np.cos(th), np.sin(th)
            free = self._distinct_cells(pose[0] + t * cth[b], pose[1] + t * sth[b])
            lo[free] = np.maximum(lo[free] + np.float32(L_FREE), -L_CLAMP)
            hit = self._distinct_cells(pose[0] + ranges * cth, pose[1] + ranges * sth)
            lo[hit] = np.minimum(lo[hit] + np.float32(L_OCC), L_CLAMP)

    def _cells(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map row and column of each world point, and whether it is on
        the map."""
        cfg = self.config
        r = np.floor((y - cfg.origin.y) / cfg.resolution + 0.5).astype(np.int64)
        c = np.floor((x - cfg.origin.x) / cfg.resolution + 0.5).astype(np.int64)
        # a negative index reads as a huge unsigned one
        ok = (r.view(np.uint64) < cfg.rows) & (c.view(np.uint64) < cfg.cols)
        return r, c, ok

    def _distinct_cells(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sorted distinct flat indices of the map cells holding the
        world points (x, y): what ``np.unique`` returns, by a boolean
        scatter instead of a sort."""
        r, c, ok = self._cells(x, y)
        seen = np.zeros(self.config.rows * self.config.cols, dtype=bool)
        seen[r[ok] * self.config.cols + c[ok]] = True
        return np.flatnonzero(seen)

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def best_index(self) -> int:
        """Index of the highest-weight particle (the first on ties)."""
        return int(np.argmax(self.weights))

    def estimate(self) -> Pose2D:
        """Pose of the best particle."""
        return Pose2D.from_array(self.poses[self.best_index()])

    def map_estimate(self) -> OccupancyGrid:
        """Best particle's map thresholded into an OccupancyGrid."""
        cfg = self.config
        lo = self.log_odds[self.best_index()]
        data = np.full(lo.shape, int(CellState.UNKNOWN), dtype=np.int8)
        data[lo < -0.2] = int(CellState.FREE)
        data[lo > 0.2] = int(CellState.OCCUPIED)
        return OccupancyGrid(data, cfg.resolution, cfg.origin)

    def state_bytes(self) -> int:
        """Serialized size of the full particle set (migration cost)."""
        per = self.log_odds[0].nbytes + 3 * 8 + 8
        return len(self.weights) * per


#: Pose candidates scanMatch evaluates per particle (hill-climb budget).
SCANMATCH_EVALS = 120
#: Reference cycles per beam per score evaluation (trig, gather, exp).
CYCLES_PER_BEAM_EVAL = 8.8e3
#: Reference cycles of map integration per particle.
CYCLES_MAP_UPDATE_PER_PARTICLE = 1.0e6
#: Fixed per-scan overhead (weights, resampling checks).
CYCLES_SCAN_BASE = 5.0e5


def gmapping_scan_cycles(n_particles: int, match_beams: int = 60) -> float:
    """Modeled reference-cycle cost of one GMapping scan.

    Per particle: ~120 hill-climb score evaluations x beams x per-beam
    math, plus map integration. 30 particles x 60 beams -> ~1.9 G
    cycles (~1.4 s on the Pi), linear in particles — the Fig. 9
    workload knob. scanMatch is ~98% of the total, matching the
    paper's measurement; SLAM then dominates the without-map cycle
    breakdown as in Table II.
    """
    if n_particles < 0 or match_beams < 0:
        raise ValueError("counts must be non-negative")
    scanmatch = SCANMATCH_EVALS * CYCLES_PER_BEAM_EVAL * match_beams
    return CYCLES_SCAN_BASE + n_particles * (scanmatch + CYCLES_MAP_UPDATE_PER_PARTICLE)
