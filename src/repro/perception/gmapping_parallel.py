"""Thread-parallel GMapping (paper §V, Fig. 6).

The paper's acceleration: a pool of N threads, each responsible for
M/N particles' ``scanMatch`` (and here also their map integration —
both are particle-independent). Each thread runs the batched kernels
of :class:`~repro.perception.gmapping.GMapping` on its chunk of
particle indices. Because every particle owns a private
RNG stream, the parallel filter produces *bit-identical* state to the
serial one; only wall-clock time changes. That property is asserted by
the test suite and is what lets the modeled speedups of
:class:`~repro.compute.executor.ExecutionModel` stand in for real
hardware in the cross-platform figures.
"""

from __future__ import annotations

import numpy as np

from repro.compute.threadpool import WorkerPool
from repro.perception.gmapping import GMapping, GMappingConfig
from repro.world.geometry import Pose2D


class ParallelGMapping(GMapping):
    """GMapping with thread-pooled scanMatch / map integration."""

    def __init__(
        self,
        config: GMappingConfig = GMappingConfig(),
        rng: np.random.Generator | None = None,
        initial_pose: Pose2D = Pose2D(),
        n_threads: int = 4,
    ) -> None:
        super().__init__(config, rng, initial_pose)
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.n_threads = n_threads
        self._pool = WorkerPool(n_threads)

    def _scan_match_all(self, ranges, angles, indices: np.ndarray) -> None:
        def run_chunk(_i: int, a: int, b: int) -> None:
            self._scan_match(indices[a:b], ranges, angles)

        self._pool.map_chunks(run_chunk, len(indices))

    def _map_update_all(self, ranges, angles, indices: np.ndarray) -> None:
        def run_chunk(_i: int, a: int, b: int) -> None:
            self._map_update(indices[a:b], ranges, angles)

        self._pool.map_chunks(run_chunk, len(indices))

    def close(self) -> None:
        """Release pool threads."""
        self._pool.shutdown()

    def __enter__(self) -> ParallelGMapping:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
