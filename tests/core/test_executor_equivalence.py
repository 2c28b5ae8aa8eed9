"""Draw-identity contract of the process execution tier.

``executor="processes"`` is not a statistical cousin of the thread tier —
it is pinned **draw-identical** to ``executor="threads"`` at the same
``(seed, workers=k)``: shard contexts (numpy Generators pickle with their
state) run the same module-level kernels in spawn workers against a
zero-copy shared-memory view of the static coupling matrix, and the
advanced RNG states are written back, so every array any caller sees is
bit-for-bit the thread-tier array — across settles, AIS, PCD training,
stateful call sequences, and reprogramming (which must invalidate the
shared segment).  Shutdown hygiene rides along: no leaked shared-memory
segments, clean pool teardown under ``pytest -W error``, and a pool
broken by a dead worker is retried on a fresh one without changing a draw.
"""

import glob
import os
import signal
import time

import numpy as np
import pytest

from helpers import procjobs
from repro.analog.noise import NoiseConfig
from repro.config import ComputeSpec, EstimatorSpec, SamplerSpec, TrainerSpec
from repro.core import GibbsSamplerTrainer
from repro.core.gradient_follower import BoltzmannGradientFollower
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import (
    AISEstimator,
    BernoulliRBM,
    average_log_probability,
    estimate_log_partition,
)
from repro.utils import parallel
from repro.utils.parallel import ProcessShardedExecutor, shutdown_process_pools

# Like tests/core/test_parallel_equivalence.py, this module exercises the
# legacy kwarg-style constructors on purpose (they are pinned bit-identical
# to the spec path); opt out of the repro-internal deprecation error gate.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.utils.deprecation.ReproDeprecationWarning"
)

N_VISIBLE, N_HIDDEN = 12, 7
WORKERS = 2  # one spawn pool, reused by every test in this module

CORNERS = {
    "ideal": dict(),
    "noisy": dict(
        noise_config=NoiseConfig(variation_rms=0.1, noise_rms=0.1),
        comparator_offset_rms=0.05,
    ),
    "float32": dict(dtype="float32"),
}


def _substrate(seed=5, **kwargs):
    substrate = BipartiteIsingSubstrate(
        N_VISIBLE, N_HIDDEN, input_bits=None, rng=seed, **kwargs
    )
    rng = np.random.default_rng(1)
    substrate.program(
        rng.normal(0, 0.3, (N_VISIBLE, N_HIDDEN)),
        rng.normal(0, 0.2, N_VISIBLE),
        rng.normal(0, 0.2, N_HIDDEN),
    )
    return substrate


def _hidden(seed, rows=9):
    return (np.random.default_rng(seed).random((rows, N_HIDDEN)) < 0.5).astype(float)


def _tiny_ais_rbm():
    rbm = BernoulliRBM(8, 5, rng=0)
    rng = np.random.default_rng(2)
    rbm.set_parameters(
        rng.normal(0, 0.3, (8, 5)), rng.normal(0, 0.2, 8), rng.normal(0, 0.2, 5)
    )
    return rbm


def _gs_spec(executor):
    return TrainerSpec(
        kind="gs",
        learning_rate=0.1,
        cd_k=1,
        batch_size=10,
        sampler=SamplerSpec(chains=6, persistent=True),
        compute=ComputeSpec(workers=WORKERS, executor=executor),
    )


class TestSettleDrawIdentity:
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_settle_batch_matches_threads(self, corner):
        h = _hidden(3)
        v_t, h_t = _substrate(**CORNERS[corner]).settle_batch(
            h, 4, workers=WORKERS, executor="threads"
        )
        v_p, h_p = _substrate(**CORNERS[corner]).settle_batch(
            h, 4, workers=WORKERS, executor="processes"
        )
        np.testing.assert_array_equal(v_t, v_p)
        np.testing.assert_array_equal(h_t, h_p)

    def test_stateful_call_sequences_match(self):
        """Worker-side RNG advancement is written back into the parent's
        shard contexts, so whole call *sequences* replay the thread tier."""
        outs = {}
        for executor in ("threads", "processes"):
            substrate = _substrate()
            h = _hidden(3)
            run = []
            for steps in (2, 1, 3):
                v, h = substrate.settle_batch(
                    h, steps, workers=WORKERS, executor=executor
                )
                run.append((v, h))
            outs[executor] = run
        for (v_t, h_t), (v_p, h_p) in zip(outs["threads"], outs["processes"]):
            np.testing.assert_array_equal(v_t, v_p)
            np.testing.assert_array_equal(h_t, h_p)

    def test_gibbs_chain_matches_threads(self):
        h = _hidden(4)
        v_t, h_t = _substrate().gibbs_chain(
            h, 3, workers=WORKERS, executor="threads"
        )
        v_p, h_p = _substrate().gibbs_chain(
            h, 3, workers=WORKERS, executor="processes"
        )
        np.testing.assert_array_equal(v_t, v_p)
        np.testing.assert_array_equal(h_t, h_p)

    def test_reprogram_invalidates_the_shared_segment(self):
        """The shared static matrix is published once per program; writing
        new weights must drop it so workers never settle against stale
        couplings."""
        outs = {}
        for executor in ("threads", "processes"):
            substrate = _substrate()
            h = _hidden(3)
            first = substrate.settle_batch(h, 2, workers=WORKERS, executor=executor)
            rng = np.random.default_rng(9)
            substrate.program(
                rng.normal(0, 0.4, (N_VISIBLE, N_HIDDEN)),
                rng.normal(0, 0.1, N_VISIBLE),
                rng.normal(0, 0.1, N_HIDDEN),
            )
            second = substrate.settle_batch(h, 2, workers=WORKERS, executor=executor)
            outs[executor] = (first, second)
        for index in range(2):
            np.testing.assert_array_equal(
                outs["threads"][index][0], outs["processes"][index][0]
            )
            np.testing.assert_array_equal(
                outs["threads"][index][1], outs["processes"][index][1]
            )

    def test_paper_scale_float32_settles_match_threads(self):
        """784x500 float32 with p=64: shard GEMMs large enough for OpenBLAS
        to thread, whose last bits depend on the thread count -- the tiers
        must run the same BLAS thread budget to stay draw-identical here.
        (A mismatch flips a latch only rarely; the spawn workers' budget
        itself is pinned in tests/utils/test_parallel.py.)"""
        outs = {}
        for executor in ("threads", "processes"):
            substrate = BipartiteIsingSubstrate(
                784, 500, input_bits=None, rng=5, dtype="float32"
            )
            rng = np.random.default_rng(1)
            substrate.program(
                rng.normal(0, 0.1, (784, 500)),
                rng.normal(0, 0.1, 784),
                rng.normal(0, 0.1, 500),
            )
            h = (np.random.default_rng(2).random((64, 500)) < 0.5).astype(float)
            run = []
            for _ in range(3):
                v, h = substrate.settle_batch(h, 3, workers=WORKERS, executor=executor)
                run.append((v, h))
            outs[executor] = run
        for (v_t, h_t), (v_p, h_p) in zip(outs["threads"], outs["processes"]):
            np.testing.assert_array_equal(v_t, v_p)
            np.testing.assert_array_equal(h_t, h_p)

    def test_env_default_routes_to_processes(self, monkeypatch):
        h = _hidden(3)
        explicit = _substrate().settle_batch(
            h, 3, workers=WORKERS, executor="processes"
        )
        monkeypatch.setenv("REPRO_EXECUTOR", "processes")
        via_env = _substrate().settle_batch(h, 3, workers=WORKERS)
        np.testing.assert_array_equal(explicit[0], via_env[0])
        np.testing.assert_array_equal(explicit[1], via_env[1])


class TestEstimatorAndTrainerDrawIdentity:
    @staticmethod
    def _ais_result(executor):
        estimator = AISEstimator(
            spec=EstimatorSpec(
                chains=20,
                betas=40,
                compute=ComputeSpec(workers=WORKERS, executor=executor),
            ),
            rng=7,
        )
        return estimator.estimate_log_partition(_tiny_ais_rbm())

    def test_ais_matches_threads(self):
        threads = self._ais_result("threads")
        processes = self._ais_result("processes")
        np.testing.assert_array_equal(threads.log_weights, processes.log_weights)
        assert threads.log_partition == processes.log_partition

    def test_average_log_probability_matches_threads(self):
        rbm = _tiny_ais_rbm()
        data = (np.random.default_rng(4).random((6, 8)) < 0.5).astype(float)
        threads = average_log_probability(
            rbm, data, n_chains=12, n_betas=25, rng=7, workers=WORKERS,
            executor="threads",
        )
        processes = average_log_probability(
            rbm, data, n_chains=12, n_betas=25, rng=7, workers=WORKERS,
            executor="processes",
        )
        assert threads == processes

    def test_pcd_training_matches_threads(self, tiny_binary_data):
        weights = {}
        for executor in ("threads", "processes"):
            rbm = BernoulliRBM(16, 6, rng=0)
            GibbsSamplerTrainer(spec=_gs_spec(executor), rng=1).train(
                rbm, tiny_binary_data, epochs=2
            )
            weights[executor] = rbm.weights.copy()
        np.testing.assert_array_equal(weights["threads"], weights["processes"])

    def test_bgf_particle_refresh_matches_threads(self):
        particles = {}
        for executor in ("threads", "processes"):
            machine = BoltzmannGradientFollower(N_VISIBLE, N_HIDDEN, rng=3)
            rng = np.random.default_rng(1)
            machine.initialize(
                rng.normal(0, 0.2, (N_VISIBLE, N_HIDDEN)),
                np.zeros(N_VISIBLE),
                np.zeros(N_HIDDEN),
            )
            machine.refresh_particles(3, workers=WORKERS, executor=executor)
            particles[executor] = machine.particles
        np.testing.assert_array_equal(
            particles["threads"], particles["processes"]
        )


def _break_process_pool():
    """SIGKILL the cached pool's workers; return it once marked broken."""
    pool = parallel._process_pool(WORKERS)
    pids = set(
        ProcessShardedExecutor(WORKERS).map(procjobs.worker_pid, range(2 * WORKERS))
    )
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool._broken
    return pool


class TestBrokenPoolRetry:
    """The retry after a dead worker re-ships the same shard RNG states
    (callers write them back only after the map returns), so a call that
    hit a broken pool draws exactly what the thread tier draws -- and so
    does the next call in the sequence."""

    def test_settle_retry_is_draw_identical(self):
        h = _hidden(3)
        threads = _substrate()
        expected = [
            threads.settle_batch(h, 3, workers=WORKERS, executor="threads")
            for _ in range(2)
        ]
        substrate = _substrate()
        broken = _break_process_pool()
        got = [
            substrate.settle_batch(h, 3, workers=WORKERS, executor="processes")
            for _ in range(2)
        ]
        assert parallel._PROC_POOLS.get(WORKERS) is not broken
        for (v_t, h_t), (v_p, h_p) in zip(expected, got):
            np.testing.assert_array_equal(v_t, v_p)
            np.testing.assert_array_equal(h_t, h_p)

    def test_ais_retry_is_draw_identical(self):
        expected = TestEstimatorAndTrainerDrawIdentity._ais_result("threads")
        broken = _break_process_pool()
        got = TestEstimatorAndTrainerDrawIdentity._ais_result("processes")
        assert parallel._PROC_POOLS.get(WORKERS) is not broken
        np.testing.assert_array_equal(expected.log_weights, got.log_weights)
        assert expected.log_partition == got.log_partition


class TestShutdownHygiene:
    def test_no_leaked_shared_memory_segments(self):
        """Settling, reprogramming, and dropping substrates must leave no
        orphaned ``/dev/shm`` segments behind (the finalizer backstop and
        the explicit invalidation paths both unlink)."""
        before = set(glob.glob("/dev/shm/psm_*"))
        substrate = _substrate()
        h = _hidden(3)
        substrate.settle_batch(h, 2, workers=WORKERS, executor="processes")
        rng = np.random.default_rng(9)
        substrate.program(
            rng.normal(0, 0.4, (N_VISIBLE, N_HIDDEN)),
            rng.normal(0, 0.1, N_VISIBLE),
            rng.normal(0, 0.1, N_HIDDEN),
        )
        substrate.settle_batch(h, 2, workers=WORKERS, executor="processes")
        del substrate
        rbm = _tiny_ais_rbm()
        estimate_log_partition(
            rbm, n_chains=12, n_betas=10, rng=7, workers=WORKERS,
            executor="processes",
        )
        after = set(glob.glob("/dev/shm/psm_*"))
        assert after <= before  # nothing new left behind

    def test_pool_shutdown_is_clean_and_restartable(self):
        h = _hidden(3)
        first = _substrate().settle_batch(h, 2, workers=WORKERS, executor="processes")
        shutdown_process_pools()
        # A fresh pool spins up transparently and draws identically.
        second = _substrate().settle_batch(h, 2, workers=WORKERS, executor="processes")
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
