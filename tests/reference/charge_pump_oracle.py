"""Full-matrix charge-pump update, frozen as the oracle for the trusted kernels.

These are the per-sample update formulas of
:class:`repro.analog.ChargePumpUpdater` as they were before the weight update
was restricted to the rows with ``v_i = 1``: every call computes the headroom,
the steps and the ``v h^T`` gate over the whole ``(n, m)`` array, adds, and
clips the whole array.  Both functions take the pump as their first argument,
so a test can install them as methods (``monkeypatch.setattr(
ChargePumpUpdater, "apply_sample", oracle_apply_sample)``) or call them on a
twin pump built with the same seed.
"""

from __future__ import annotations

import numpy as np


def oracle_apply_sample(pump, weights, v_bits, h_bits, *, positive):
    """Full-array ``apply_sample``: the weights move by ``steps * v h^T``."""
    lo, hi = pump.weight_range
    steps = pump._base_steps
    if pump.saturation:
        remaining = (hi - weights) / (hi - lo) if positive else (weights - lo) / (hi - lo)
        steps = steps * np.clip(remaining / pump.saturation_margin, 0.0, 1.0)
    if pump.noise_rms > 0:
        steps = steps * (1.0 + pump._rng.normal(0.0, pump.noise_rms, size=pump.shape))
    delta = steps * (v_bits[:, None] * h_bits[None, :])
    if positive:
        weights += delta
    else:
        weights -= delta
    np.clip(weights, lo, hi, out=weights)
    return weights


def oracle_apply_bias_sample(pump, biases, active, *, positive):
    """Full-vector ``apply_bias_sample`` with the ``np.clip`` clamp."""
    lo, hi = pump.weight_range
    if pump.saturation:
        headroom = (hi - biases) / (hi - lo) if positive else (biases - lo) / (hi - lo)
        steps = pump.step_size * np.clip(headroom, 0.0, 1.0)
    else:
        steps = np.full_like(biases, pump.step_size)
    if pump.noise_rms > 0:
        steps = steps * (1.0 + pump._rng.normal(0.0, pump.noise_rms, size=biases.shape))
    delta = steps * active
    biases += delta if positive else -delta
    np.clip(biases, lo, hi, out=biases)
    return biases
