"""The training workloads: ``bgf-stream`` and ``gs-ais``.

Both drive the public API (``repro.api.build_trainer`` /
``build_estimator``) in the paper presets' compute tier (float32,
``workers="auto"``), time equal-size training blocks after a warm-up block,
and check the trained model against the untrained one on the test split.
Each has two legs: ``bgf-stream`` the ci shape (a) and the paper shape (b),
``gs-ais`` GS training (a) and AIS (b).  Every timed block is followed by a
calibration (see ``common.calibration_kernel``; ``numpy_call_kernel`` for
the 49x32 leg), and the legs' times are given at the reference host speed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from common import (
    BlockTimer,
    Checks,
    calibration_kernel,
    interleave,
    numpy_call_kernel,
    peak_rss_mb,
    repeat_setup,
    run_calibration_ms,
    seeds,
)
from spans import Tracer, rows_of_first_arg, traced

from repro.analog.charge_pump import ChargePumpUpdater
from repro.api import build_estimator, build_trainer
from repro.config import ComputeSpec, EstimatorSpec, TrainerSpec
import repro.datasets as datasets
from repro.core import gibbs_sampler, gradient_follower
from repro.ising.bipartite import BipartiteIsingSubstrate
from repro.rbm.ais import AISEstimator
from repro.rbm.metrics import reconstruction_error
from repro.rbm.rbm import BernoulliRBM
from repro.utils.parallel import ShardedExecutor

#: The paper presets' compute tier (fig7/table4 ``--preset paper``).
COMPUTE = ComputeSpec(dtype="float32", workers="auto")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Timing windows per leg; the legs alternate window by window.
ROUNDS = 5
#: Time split between GS and AIS after the GS blocks the snapshot needs.
AIS_SHARES = (0.25, 0.75)
#: The synthetic datasets are the fig7/table4 presets' (seed 0 for mnist,
#: 1 for kmnist); the workload seed drives model init, trainer streams and
#: row order.
DATASET_SEEDS = {"mnist": 0, "kmnist": 1}

BGF_WHY = (
    "sequential BGF loop: leg a = 49x32 (per-sample dispatch), leg b = "
    "784x200 (charge pumps); no batched PCD, AIS or serving"
)
GS_WHY = (
    "leg a = PCD-64 GS training at 784x500 (batched settles, thread "
    "executor), leg b = AIS 64x500 (BLAS sweep); the BGF loop is idle"
)


@dataclass(frozen=True)
class Shape:
    """One model/data configuration trained in blocks."""

    label: str
    dataset: str
    scale: str
    n_hidden: int
    block_rows: int
    quality_blocks: int  # timed blocks before the held-out check
    kernel: Callable[[], float] = calibration_kernel  # the host-speed calibration


#: Full size: the ci shape (Table 1 mnist pooled to 7x7) and the paper
#: shape (Table 1 mnist 784x200) of the BGF, and the 784x500 kmnist GS.
SIZES = {
    "full": {
        "bgf": (
            Shape("ci", "mnist", "ci", 32, 50, 32, numpy_call_kernel),
            Shape("paper", "mnist", "paper", 200, 50, 40),
        ),
        "gs": Shape("gs", "kmnist", "paper", 500, 500, 60),
        "gs_chains": 64,
        "ais": (64, 500, 3),  # chains, betas, minimum estimates
    },
    "tiny": {
        "bgf": (
            Shape("ci", "mnist", "ci", 32, 50, 32, numpy_call_kernel),
            Shape("paper", "mnist", "ci", 16, 50, 32),
        ),
        "gs": Shape("gs", "kmnist", "ci", 32, 100, 40),
        "gs_chains": 8,
        "ais": (8, 20, 2),
    },
}


def _load(shape: Shape):
    data = datasets.load_benchmark_dataset(
        shape.dataset, scale=shape.scale, seed=DATASET_SEEDS[shape.dataset]
    )
    return data.binarized()


def _fresh_rbm(train_x: np.ndarray, n_hidden: int, seed: int) -> BernoulliRBM:
    rbm = BernoulliRBM(train_x.shape[1], n_hidden, rng=seed)
    rbm.init_visible_bias_from_data(train_x)
    return rbm


class Blocks:
    """Equal-size row blocks cycling through a seeded permutation."""

    def __init__(self, train_x: np.ndarray, rows: int, seed: int):
        self.x = train_x[np.random.default_rng(seed).permutation(train_x.shape[0])]
        self.rows = rows
        self.per_epoch = self.x.shape[0] // rows

    def __getitem__(self, i: int) -> np.ndarray:
        start = (i % self.per_epoch) * self.rows
        return self.x[start : start + self.rows]


# ---------------------------------------------------------------------- #
# Tracing: which public functions are wrapped, under which span names
# ---------------------------------------------------------------------- #
def install_training_spans(tracer: Tracer) -> None:
    """Wrap the layer boundaries both training workloads cross."""
    tracer.wrap(datasets, "load_benchmark_dataset", "datasets.load")
    tracer.wrap(gradient_follower.BGFTrainer, "train", "bgf.train")
    tracer.wrap(gradient_follower.BoltzmannGradientFollower, "run", "bgf.run", rows_of_first_arg)
    tracer.wrap(gradient_follower.BoltzmannGradientFollower, "read_out", "bgf.read_out")
    tracer.wrap(ChargePumpUpdater, "apply_sample", "analog.pump")
    tracer.wrap(ChargePumpUpdater, "apply_bias_sample", "analog.pump")
    sub = BipartiteIsingSubstrate
    tracer.wrap(sub, "settle_batch", "ising.settle_batch", rows_of_first_arg)
    tracer.wrap(sub, "gibbs_chain", "ising.gibbs_chain")
    tracer.wrap(sub, "invalidate_effective_weights", "ising.invalidate")
    tracer.wrap(sub, "program_trusted", "ising.program_trusted")
    tracer.wrap(sub, "read_parameters", "ising.read_parameters")
    tracer.wrap(BernoulliRBM, "reconstruct", "rbm.reconstruct")
    tracer.wrap(gibbs_sampler.GibbsSamplerTrainer, "train", "gs.train")
    machine = gibbs_sampler.GibbsSamplerMachine
    tracer.wrap(machine, "positive_phase", "gs.positive_phase", rows_of_first_arg)
    tracer.wrap(machine, "negative_phase_chains", "gs.negative_phase_chains")
    tracer.wrap(AISEstimator, "estimate_log_partition", "ais.estimate")
    _wrap_sharded_map(tracer)


def _wrap_sharded_map(tracer: Tracer) -> None:
    """Span each ``ShardedExecutor.map`` and measure its shards' busy time.

    ``parallel.shard_wait`` accumulates, per call, the map's wall-clock
    minus the mean busy time of its shards (the time shards spent waiting
    for a core, for BLAS threads or for the slowest sibling).
    """
    original = ShardedExecutor.map

    def timed_map(self, fn, items):
        busy, lock = [], threading.Lock()

        def shard(item):
            start = time.perf_counter_ns()
            try:
                return fn(item)
            finally:
                with lock:
                    busy.append(time.perf_counter_ns() - start)

        start = time.perf_counter_ns()
        result = original(self, shard, items)
        wall = time.perf_counter_ns() - start
        if busy:
            tracer.work["parallel.shard_wait"] += wall - sum(busy) / len(busy)
        return result

    tracer.patch(ShardedExecutor, "map", timed_map)
    tracer.wrap(ShardedExecutor, "map", "parallel.map")


def count_probe(run_block, rows: int) -> Dict[str, float]:
    """Exact per-row counts of one block, traced on its own.

    Runs outside every timed region, in traced and untraced runs alike,
    so the untraced run reports the same structural counts as the traced
    one, by the same definitions.
    """
    tracer = Tracer()
    with traced(tracer, install_training_spans):
        run_block()
    counts = {
        name: value
        for name, (value, _) in ising_layer_metrics(tracer, rows).items()
        if name != "ising.settle_ms"
    }
    counts["analog.pump_calls_per_row"] = tracer.calls["analog.pump"] / rows
    return counts


def ising_layer_metrics(tracer: Tracer, rows: float) -> Dict[str, tuple]:
    settles = tracer.calls["ising.settle_batch"]
    rebuilds = tracer.calls["ising.invalidate"] + tracer.calls["ising.program_trusted"]
    return {
        "ising.settle_calls_per_row": (settles / rows, "count"),
        "ising.settle_ms": (
            tracer.total_ns("ising.settle_batch", "ising.gibbs_chain") / 1e6 / settles,
            "ms",
        ),
        "ising.rows_per_settle": (tracer.work["ising.settle_batch"] / settles, "rows"),
        "ising.cache_rebuilds_per_settle": (rebuilds / settles, "count"),
    }


def datasets_layer_metrics(tracer: Tracer) -> Dict[str, tuple]:
    loads = tracer.calls["datasets.load"]
    return {"datasets.load_s": (tracer.total_ns("datasets.load") / 1e9 / loads, "s")}


def _finite(rbm: BernoulliRBM) -> bool:
    return all(
        bool(np.all(np.isfinite(a))) for a in (rbm.weights, rbm.visible_bias, rbm.hidden_bias)
    )


def _check_quality(checks: Checks, label: str, finite: bool, mse: float, init_mse: float):
    checks.check(finite, f"{label}: trained weights not finite")
    checks.check(
        mse < init_mse,
        f"{label}: held-out recon MSE {mse:.5f} does not beat the untrained model's {init_mse:.5f}",
    )


# ---------------------------------------------------------------------- #
# bgf-stream
# ---------------------------------------------------------------------- #
def _bgf_build(shape: Shape, seed_list):
    data = _load(shape)
    rbm = _fresh_rbm(data.train_x, shape.n_hidden, seed_list[0])
    trainer = build_trainer(
        TrainerSpec.bgf(0.1, reference_batch_size=10, compute=COMPUTE), rng=seed_list[1]
    )
    blocks = Blocks(data.train_x, shape.block_rows, seed_list[2])
    init_mse = reconstruction_error(rbm, data.test_x)
    trainer.train(rbm, blocks[0], epochs=1)  # warm-up block
    return data, rbm, trainer, blocks, init_mse


def run_bgf_stream(seed: int, seconds: float, size: str, tracer: Optional[Tracer]):
    shapes = SIZES[size]["bgf"]
    seed_lists = {shape.label: seeds(seed + index, 3) for index, shape in enumerate(shapes)}
    checks = Checks()
    exact: Dict[str, float] = {}

    # Structural counts first, on a build of its own, before any timing.
    _, rbm, trainer, blocks, _ = _bgf_build(shapes[0], seed_lists[shapes[0].label])
    exact.update(count_probe(lambda: trainer.train(rbm, blocks[1], epochs=1), shapes[0].block_rows))

    with traced(tracer, install_training_spans):
        metrics, samples = _bgf_measure(shapes, seed_lists, seconds, checks, exact)
    layer: Dict[str, tuple] = {}
    if tracer is not None:
        rows = tracer.work["bgf.run"]
        layer.update(
            {
                "bgf.run_ms_per_row": (tracer.self_ns().get("bgf.run", 0) / 1e6 / rows, "ms"),
                "bgf.readout_ms": (
                    tracer.total_ns(
                        "ising.read_parameters",
                        "bgf.read_out",
                        "rbm.reconstruct",
                        under="bgf.train",
                    )
                    / 1e6
                    / tracer.calls["bgf.train"],
                    "ms",
                ),
                "bgf.host_interactions_per_row": (exact["bgf.host_interactions_per_row"], "count"),
                "analog.pump_calls_per_row": (tracer.calls["analog.pump"] / rows, "count"),
                "analog.pump_ms": (tracer.total_ns("analog.pump") / 1e6 / rows, "ms"),
            }
        )
        layer.update(ising_layer_metrics(tracer, rows))
        layer.update(datasets_layer_metrics(tracer))
    return metrics, layer, checks, {"exact": exact, "samples": samples}


def _bgf_measure(shapes, seed_lists, seconds, checks: Checks, exact):
    built, setup_s = repeat_setup(
        lambda: {s.label: _bgf_build(s, seed_lists[s.label]) for s in shapes}, SETUPS
    )
    timers, quality = {}, {}
    for shape in shapes:
        _, rbm, trainer, blocks, _ = built[shape.label]

        def step(i, rbm=rbm, trainer=trainer, blocks=blocks):
            trainer.train(rbm, blocks[i + 1], epochs=1)

        def after(i, shape=shape):
            if i + 1 == shape.quality_blocks:
                data, rbm = built[shape.label][:2]
                quality[shape.label] = (reconstruction_error(rbm, data.test_x), _finite(rbm))

        timers[shape.label] = BlockTimer(step, after, shape.kernel)
    interleave(list(timers.values()), seconds, ROUNDS)
    for shape in shapes:
        timers[shape.label].run(0.0, min_blocks=shape.quality_blocks)

    metrics: Dict[str, tuple] = {"setup_s": (setup_s, "s")}
    samples: Dict[str, object] = {}
    rows_trained = host_interactions = 0
    for leg, shape in zip("ab", shapes):
        timer = timers[shape.label]
        _, _, trainer, _, init_mse = built[shape.label]
        mse, finite = quality[shape.label]
        checks.ops(len(timer.durations))
        _check_quality(checks, f"bgf.{shape.label}", finite, mse, init_mse)
        metrics[f"{leg}.ms_per_op"] = (timer.ms_per_op(shape.block_rows), "ms")
        metrics[f"{leg}.raw_ms_per_op"] = (timer.raw_ms_per_op(shape.block_rows), "ms")
        metrics[f"{leg}.calibration_ms"] = (timer.calibration_ms(), "ms")
        metrics[f"bgf.{shape.label}.heldout_recon_mse"] = (mse, "mse")
        exact[f"bgf.{shape.label}.heldout_recon_mse"] = mse
        samples[f"bgf.{shape.label}"] = {
            "leg": leg,
            "blocks": len(timer.durations),
            "windows": len(timer.windows),
            "rows_per_block": shape.block_rows,
        }
        rows_trained += (len(timer.durations) + 1) * shape.block_rows
        host_interactions += trainer.machine.host.total_host_interactions
    exact["bgf.host_interactions_per_row"] = host_interactions / rows_trained
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return metrics, samples


# ---------------------------------------------------------------------- #
# gs-ais
# ---------------------------------------------------------------------- #
def _gs_build(shape: Shape, chains: int, ais: tuple, seed_list):
    data = _load(shape)
    rbm = _fresh_rbm(data.train_x, shape.n_hidden, seed_list[0])
    trainer = build_trainer(
        TrainerSpec.gs(
            0.1, cd_k=1, batch_size=50, chains=chains, persistent=True, compute=COMPUTE
        ),
        rng=seed_list[1],
    )
    blocks = Blocks(data.train_x, shape.block_rows, seed_list[2])
    estimator = build_estimator(
        EstimatorSpec(chains=ais[0], betas=ais[1], compute=COMPUTE),
        rng=seed_list[3],
        base_visible_bias=AISEstimator.base_bias_from_data(data.train_x),
    )
    init_mse = reconstruction_error(rbm, data.test_x)
    trainer.train(rbm, blocks[0], epochs=1, reset_chains=False)  # warm-up block
    return data, rbm, trainer, blocks, estimator, init_mse


def run_gs_ais(seed: int, seconds: float, size: str, tracer: Optional[Tracer]):
    config = SIZES[size]
    shape, chains, ais = config["gs"], config["gs_chains"], config["ais"]
    seed_list = seeds(seed, 4)
    checks = Checks()
    exact: Dict[str, float] = {}

    _, rbm, trainer, blocks, _, _ = _gs_build(shape, chains, ais, seed_list)
    exact.update(
        count_probe(
            lambda: trainer.train(rbm, blocks[1], epochs=1, reset_chains=False), shape.block_rows
        )
    )

    with traced(tracer, install_training_spans):
        metrics, samples = _gs_measure(shape, chains, ais, seed_list, seconds, checks, exact)
    layer: Dict[str, tuple] = {}
    if tracer is not None:
        batches = tracer.calls["gs.positive_phase"]
        maps = tracer.calls["parallel.map"]
        gs_maps = sum(
            1
            for name, _, _, parent in tracer.spans
            if name == "parallel.map" and tracer.has_ancestor(parent, {"gs.train"})
        )
        layer.update(
            {
                "gs.positive_ms_per_batch": (
                    tracer.total_ns("gs.positive_phase") / 1e6 / batches,
                    "ms",
                ),
                "gs.negative_ms_per_batch": (
                    tracer.total_ns("gs.negative_phase_chains") / 1e6 / batches,
                    "ms",
                ),
                "gs.host_interactions_per_row": (exact["gs.host_interactions_per_row"], "count"),
                "ais.estimate_ms": (
                    tracer.total_ns("ais.estimate") / 1e6 / tracer.calls["ais.estimate"],
                    "ms",
                ),
                "ais.log_partition": (exact["ais.log_partition"], "nats"),
                "ais.effective_sample_size": (exact["ais.effective_sample_size"], "chains"),
                "parallel.map_calls": (gs_maps / batches, "count"),
                "parallel.map_ms": (tracer.total_ns("parallel.map") / 1e6 / maps, "ms"),
                "parallel.shard_wait_ms": (
                    tracer.work["parallel.shard_wait"] / 1e6 / maps,
                    "ms",
                ),
            }
        )
        layer.update(ising_layer_metrics(tracer, tracer.work["gs.positive_phase"]))
        layer.update(datasets_layer_metrics(tracer))
    return metrics, layer, checks, {"exact": exact, "samples": samples}


def _gs_measure(shape, chains, ais, seed_list, seconds, checks: Checks, exact):
    (data, rbm, trainer, blocks, estimator, init_mse), setup_s = repeat_setup(
        lambda: _gs_build(shape, chains, ais, seed_list), SETUPS
    )
    snapshot: Dict[str, BernoulliRBM] = {}

    def train_block(i):
        trainer.train(rbm, blocks[i + 1], epochs=1, reset_chains=False)

    def after(i):
        if i + 1 == shape.quality_blocks:
            snapshot["rbm"] = rbm.copy()

    results = []

    def estimate(_i):
        # AIS runs on the snapshot, so one seed estimates one model.
        results.append(estimator.estimate_log_partition(snapshot["rbm"]))

    # The snapshot comes first (AIS needs it); its blocks count as timed
    # GS blocks and their time counts against the run's seconds.
    gs_timer, ais_timer = BlockTimer(train_block, after), BlockTimer(estimate)
    start = time.perf_counter()
    gs_timer.run(0.0, min_blocks=shape.quality_blocks)
    # AIS estimates are few and long, so they get most of the rest.
    interleave(
        [gs_timer, ais_timer], seconds - (time.perf_counter() - start), ROUNDS, AIS_SHARES
    )
    ais_timer.run(0.0, min_blocks=ais[2])

    model = snapshot["rbm"]
    mse = reconstruction_error(model, data.test_x)
    checks.ops(len(gs_timer.durations) + len(ais_timer.durations))
    _check_quality(checks, "gs", _finite(model), mse, init_mse)
    for result in results:
        checks.check(bool(np.isfinite(result.log_partition)), "ais: log Z not finite")
    rows_trained = (len(gs_timer.durations) + 1) * shape.block_rows
    exact["gs.heldout_recon_mse"] = mse
    exact["gs.host_interactions_per_row"] = (
        trainer.machine.host.total_host_interactions / rows_trained
    )
    exact["ais.log_partition"] = results[0].log_partition
    exact["ais.effective_sample_size"] = results[0].effective_sample_size
    metrics = {
        "setup_s": (setup_s, "s"),
        "a.ms_per_op": (gs_timer.ms_per_op(shape.block_rows), "ms"),
        # An estimate takes seconds: scale by the whole run's calibration.
        "b.ms_per_op": (
            ais_timer.ms_per_op(ais[0] * ais[1], run_calibration_ms([gs_timer, ais_timer])),
            "ms",
        ),
        "a.raw_ms_per_op": (gs_timer.raw_ms_per_op(shape.block_rows), "ms"),
        "b.raw_ms_per_op": (ais_timer.raw_ms_per_op(ais[0] * ais[1]), "ms"),
        "calibration_ms": (run_calibration_ms([gs_timer, ais_timer]), "ms"),
        "gs.heldout_recon_mse": (mse, "mse"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    samples = {
        "gs": {
            "leg": "a",
            "blocks": len(gs_timer.durations),
            "windows": len(gs_timer.windows),
            "rows_per_block": shape.block_rows,
        },
        "ais": {
            "leg": "b",
            "estimates": len(ais_timer.durations),
            "windows": len(ais_timer.windows),
            "chains": ais[0],
            "betas": ais[1],
        },
    }
    return metrics, samples
