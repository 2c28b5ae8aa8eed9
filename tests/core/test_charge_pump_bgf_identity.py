"""End-to-end pin: the row-gathered charge pump trains the same BGF as the
frozen full-matrix update.

A float32 BGF streams a few data blocks twice from the same seed — once
with the production ``apply_sample`` / ``apply_bias_sample``, once with the
oracle formulas of ``tests/reference/charge_pump_oracle.py`` installed in
their place — and the coupling array, both bias vectors and the persistent
particles must come out identical (``np.array_equal``: the row-gathered
update may leave a ``-0.0`` where the full-array add wrote ``+0.0``).
"""

import numpy as np
import pytest

from reference.charge_pump_oracle import oracle_apply_bias_sample, oracle_apply_sample
from repro.analog import ChargePumpUpdater
from repro.analog.noise import NoiseConfig
from repro.core import BGFConfig, BoltzmannGradientFollower

N_VISIBLE, N_HIDDEN, BLOCK_ROWS, BLOCKS = 49, 24, 40, 3

CORNERS = {
    "ideal": dict(config=BGFConfig(step_size=0.01), noise_config=None),
    "noisy": dict(config=BGFConfig(step_size=0.01), noise_config=NoiseConfig(0.1, 0.1)),
    # A narrow range and large steps drive many couplings into the
    # saturation roll-off and onto the rails, where the clamp matters.
    "rails": dict(
        config=BGFConfig(step_size=0.2, weight_range=(-0.3, 0.3)),
        noise_config=NoiseConfig(0.1, 0.3),
    ),
}


def _data(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    prototypes = (rng.random((4, N_VISIBLE)) < 0.2).astype(float)
    rows = prototypes[rng.integers(0, 4, BLOCK_ROWS * BLOCKS)]
    return np.where(rng.random(rows.shape) < 0.05, 1.0 - rows, rows)


def _train(corner: str) -> BoltzmannGradientFollower:
    machine = BoltzmannGradientFollower(
        N_VISIBLE, N_HIDDEN, rng=7, dtype="float32", **CORNERS[corner]
    )
    rng = np.random.default_rng(3)
    machine.initialize(
        rng.normal(0.0, 0.1, (N_VISIBLE, N_HIDDEN)),
        rng.normal(0.0, 0.1, N_VISIBLE),
        rng.normal(0.0, 0.1, N_HIDDEN),
    )
    data = _data(5)
    for block in range(BLOCKS):
        machine.run(data[block * BLOCK_ROWS : (block + 1) * BLOCK_ROWS])
    return machine


@pytest.mark.parametrize("corner", sorted(CORNERS))
def test_bgf_training_matches_full_matrix_oracle(corner, monkeypatch):
    new = _train(corner)
    with monkeypatch.context() as patch:
        patch.setattr(ChargePumpUpdater, "apply_sample", oracle_apply_sample)
        patch.setattr(ChargePumpUpdater, "apply_bias_sample", oracle_apply_bias_sample)
        old = _train(corner)

    assert new.substrate.weights.dtype == np.float32
    assert np.array_equal(new.substrate.weights, old.substrate.weights)
    assert np.array_equal(new.substrate.visible_bias, old.substrate.visible_bias)
    assert np.array_equal(new.substrate.hidden_bias, old.substrate.hidden_bias)
    assert np.array_equal(new.particles, old.particles)
    # The run really trained: the couplings moved off their initial values.
    assert not np.array_equal(new.substrate.weights, _initial_weights(corner))


def _initial_weights(corner: str) -> np.ndarray:
    lo, hi = CORNERS[corner]["config"].weight_range
    rng = np.random.default_rng(3)
    return np.clip(rng.normal(0.0, 0.1, (N_VISIBLE, N_HIDDEN)), lo, hi).astype(np.float32)
