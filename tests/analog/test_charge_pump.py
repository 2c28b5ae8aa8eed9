"""Tests for the charge-pump weight-update model (the BGF's f_ij)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.charge_pump_oracle import oracle_apply_bias_sample, oracle_apply_sample
from repro.analog import ChargePumpUpdater
from repro.utils.validation import ValidationError


def _pump(**kwargs) -> ChargePumpUpdater:
    defaults = dict(shape=(4, 3), step_size=0.1, weight_range=(-1.0, 1.0), rng=0)
    defaults.update(kwargs)
    return ChargePumpUpdater(**defaults)


class TestConfiguration:
    def test_invalid_shape(self):
        with pytest.raises(ValidationError):
            ChargePumpUpdater((0, 3), 0.1)

    def test_invalid_step(self):
        with pytest.raises(ValidationError):
            ChargePumpUpdater((2, 2), 0.0)

    def test_invalid_range(self):
        with pytest.raises(ValidationError):
            ChargePumpUpdater((2, 2), 0.1, weight_range=(1.0, -1.0))

    def test_invalid_margin(self):
        with pytest.raises(ValidationError):
            ChargePumpUpdater((2, 2), 0.1, saturation_margin=0.0)


class TestBasicUpdates:
    def test_positive_phase_increments_only_active_units(self):
        pump = _pump(saturation=False)
        weights = np.zeros((4, 3))
        correlation = np.zeros((4, 3))
        correlation[1, 2] = 1.0
        pump.apply(weights, correlation, positive=True)
        assert weights[1, 2] == pytest.approx(0.1)
        assert np.count_nonzero(weights) == 1

    def test_negative_phase_decrements(self):
        pump = _pump(saturation=False)
        weights = np.zeros((4, 3))
        correlation = np.ones((4, 3))
        pump.apply(weights, correlation, positive=False)
        np.testing.assert_allclose(weights, -0.1)

    def test_weights_modified_in_place(self):
        pump = _pump()
        weights = np.zeros((4, 3))
        out = pump.apply(weights, np.ones((4, 3)), positive=True)
        assert out is weights

    def test_inactive_units_untouched(self):
        pump = _pump()
        weights = np.full((4, 3), 0.3)
        pump.apply(weights, np.zeros((4, 3)), positive=True)
        np.testing.assert_allclose(weights, 0.3)

    def test_correlation_must_be_binary(self):
        pump = _pump()
        with pytest.raises(ValidationError):
            pump.apply(np.zeros((4, 3)), np.full((4, 3), 0.5), positive=True)

    def test_shape_mismatch_rejected(self):
        pump = _pump()
        with pytest.raises(ValidationError):
            pump.apply(np.zeros((3, 4)), np.zeros((3, 4)), positive=True)


class TestSaturationNonlinearity:
    def test_weights_never_exceed_range(self):
        pump = _pump(step_size=0.3)
        weights = np.zeros((4, 3))
        for _ in range(50):
            pump.apply(weights, np.ones((4, 3)), positive=True)
        assert weights.max() <= 1.0 + 1e-12

    def test_step_shrinks_near_positive_rail(self):
        pump = _pump(saturation_margin=0.5)
        far = pump.step_matrix(np.zeros((4, 3)), positive=True)
        near = pump.step_matrix(np.full((4, 3), 0.9), positive=True)
        assert np.all(near < far)

    def test_step_constant_in_linear_region(self):
        """The designed pump transfers a fixed charge packet away from the rails."""
        pump = _pump(saturation_margin=0.25)
        low = pump.step_matrix(np.full((4, 3), -0.2), positive=True)
        mid = pump.step_matrix(np.zeros((4, 3)), positive=True)
        np.testing.assert_allclose(low, mid)

    def test_decrement_saturates_at_negative_rail(self):
        pump = _pump(step_size=0.3)
        weights = np.zeros((4, 3))
        for _ in range(50):
            pump.apply(weights, np.ones((4, 3)), positive=False)
        assert weights.min() >= -1.0 - 1e-12

    def test_no_saturation_mode_clips_hard(self):
        pump = _pump(saturation=False, step_size=0.4)
        weights = np.full((4, 3), 0.9)
        pump.apply(weights, np.ones((4, 3)), positive=True)
        np.testing.assert_allclose(weights, 1.0)


class TestVariationAndNoise:
    def test_static_variation_gives_per_unit_steps(self):
        pump = _pump(variation_rms=0.3, rng=1)
        steps = pump.step_matrix(np.zeros((4, 3)), positive=True)
        assert np.std(steps) > 0.0

    def test_static_variation_is_static(self):
        pump = _pump(variation_rms=0.3, rng=2)
        a = pump.step_matrix(np.zeros((4, 3)), positive=True)
        b = pump.step_matrix(np.zeros((4, 3)), positive=True)
        np.testing.assert_array_equal(a, b)

    def test_dynamic_noise_varies_updates(self):
        pump = _pump(noise_rms=0.3, rng=3)
        weights_a = np.zeros((4, 3))
        weights_b = np.zeros((4, 3))
        pump.apply(weights_a, np.ones((4, 3)), positive=True)
        pump.apply(weights_b, np.ones((4, 3)), positive=True)
        assert not np.allclose(weights_a, weights_b)

    def test_expected_update_close_to_nominal_under_noise(self):
        pump = _pump(step_size=0.004, noise_rms=0.2, rng=4, saturation=False)
        weights = np.zeros((4, 3))
        n_updates = 200
        for _ in range(n_updates):
            pump.apply(weights, np.ones((4, 3)), positive=True)
        np.testing.assert_allclose(weights / n_updates, 0.004, rtol=0.1)


class TestBiasUpdates:
    def test_bias_increment_and_decrement(self):
        pump = _pump(saturation=False)
        biases = np.zeros(4)
        active = np.array([1.0, 0.0, 1.0, 0.0])
        pump.apply_bias(biases, active, positive=True)
        np.testing.assert_allclose(biases, [0.1, 0.0, 0.1, 0.0])
        pump.apply_bias(biases, active, positive=False)
        np.testing.assert_allclose(biases, 0.0, atol=1e-12)

    def test_bias_respects_range(self):
        pump = _pump(step_size=0.5)
        biases = np.zeros(3)
        for _ in range(20):
            pump.apply_bias(biases, np.ones(3), positive=True)
        assert biases.max() <= 1.0 + 1e-12

    def test_bias_shape_mismatch(self):
        pump = _pump()
        with pytest.raises(ValidationError):
            pump.apply_bias(np.zeros(3), np.zeros(4), positive=True)


# ---------------------------------------------------------------------- #
# Trusted per-sample kernels vs the frozen full-matrix oracle
# ---------------------------------------------------------------------- #
_RANGES = [(-1.0, 1.0), (-4.0, 4.0), (-0.3, 0.7)]


def _rail_heavy_values(rng, shape, lo, hi, dtype):
    """Values in ``[lo, hi]`` with many exactly at, a ulp from, or within the
    saturation roll-off of either rail; the rest uniform inside."""
    span = hi - lo
    candidates = np.array(
        [
            lo,
            hi,
            np.nextafter(lo, hi),
            np.nextafter(hi, lo),
            lo + 0.01 * span,
            hi - 0.01 * span,
            lo + 0.2 * span,
            hi - 0.2 * span,
            0.0 if lo < 0.0 < hi else lo,
        ]
    )
    values = rng.uniform(lo, hi, shape)
    pick = rng.random(shape) < 0.5
    values[pick] = candidates[rng.integers(0, candidates.size, shape)][pick]
    # The kernels' precondition: the stored array already lies in range
    # (BoltzmannGradientFollower.initialize clips before programming).
    return np.clip(values, lo, hi).astype(dtype)


def _bits(rng, size, mode, dtype):
    if mode == "zeros":
        return np.zeros(size, dtype=dtype)
    if mode == "ones":
        return np.ones(size, dtype=dtype)
    return (rng.random(size) < 0.35).astype(dtype)


def _assert_same_up_to_zero_sign(got, want):
    """Identical values and dtype; the only bit difference allowed is the sign
    of a zero (an untouched ``-0.0`` the full-array ``w + 0.0`` turned into
    ``+0.0``)."""
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    differ = got.view(f"u{got.itemsize}") != want.view(f"u{want.itemsize}")
    assert np.all(got[differ] == 0.0)


_pump_case = dict(
    n=st.integers(1, 12),
    m=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    weight_range=st.sampled_from(_RANGES),
    saturation=st.booleans(),
    margin=st.sampled_from([0.05, 0.25, 1.0]),
    step_size=st.sampled_from([1e-3, 0.05, 0.7]),
    variation_rms=st.sampled_from([0.0, 0.3]),
    noise_rms=st.sampled_from([0.0, 0.3, 1.5]),
    dtype=st.sampled_from([np.float32, np.float64]),
    phases=st.lists(st.booleans(), min_size=1, max_size=4),
)


def _twin_pumps(shape, seed, weight_range, saturation, margin, step_size,
                variation_rms, noise_rms):
    kwargs = dict(
        step_size=step_size,
        weight_range=weight_range,
        saturation=saturation,
        saturation_margin=margin,
        variation_rms=variation_rms,
        noise_rms=noise_rms,
    )
    return (
        ChargePumpUpdater(shape, rng=seed, **kwargs),
        ChargePumpUpdater(shape, rng=seed, **kwargs),
    )


class TestTrustedKernelsMatchOracle:
    """apply_sample / apply_bias_sample land the oracle's exact values and
    leave the pump's stream where the full-matrix update left it."""

    @settings(max_examples=150, deadline=None)
    @given(
        v_mode=st.sampled_from(["random", "zeros", "ones"]),
        h_mode=st.sampled_from(["random", "zeros", "ones"]),
        **_pump_case,
    )
    def test_apply_sample(self, n, m, seed, weight_range, saturation, margin,
                          step_size, variation_rms, noise_rms, dtype, phases,
                          v_mode, h_mode):
        pump, oracle = _twin_pumps((n, m), seed, weight_range, saturation, margin,
                                   step_size, variation_rms, noise_rms)
        rng = np.random.default_rng(seed)
        weights = _rail_heavy_values(rng, (n, m), *weight_range, dtype)
        expected = weights.copy()
        for positive in phases:
            v_bits = _bits(rng, n, v_mode, np.float64)
            h_bits = _bits(rng, m, h_mode, dtype)
            out = pump.apply_sample(weights, v_bits, h_bits, positive=positive)
            oracle_apply_sample(oracle, expected, v_bits, h_bits, positive=positive)
            assert out is weights
            _assert_same_up_to_zero_sign(weights, expected)
            assert pump._rng.bit_generator.state == oracle._rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(mode=st.sampled_from(["random", "zeros", "ones"]), **_pump_case)
    def test_apply_bias_sample(self, n, m, seed, weight_range, saturation, margin,
                               step_size, variation_rms, noise_rms, dtype, phases,
                               mode):
        pump, oracle = _twin_pumps((n, 1), seed, weight_range, saturation, margin,
                                   step_size, variation_rms, noise_rms)
        rng = np.random.default_rng(seed)
        biases = _rail_heavy_values(rng, n, *weight_range, dtype)
        expected = biases.copy()
        for positive in phases:
            active = _bits(rng, n, mode, dtype)
            out = pump.apply_bias_sample(biases, active, positive=positive)
            oracle_apply_bias_sample(oracle, expected, active, positive=positive)
            assert out is biases
            _assert_same_up_to_zero_sign(biases, expected)
            assert pump._rng.bit_generator.state == oracle._rng.bit_generator.state

    def test_untouched_rows_keep_their_bits(self):
        """Rows with v_i = 0 are not rewritten at all, so a -0.0 survives."""
        pump = _pump(noise_rms=0.2)
        weights = np.full((4, 3), -0.0)
        weights[1] = 0.5
        pump.apply_sample(weights, np.array([0.0, 1.0, 0.0, 0.0]), np.ones(3),
                          positive=True)
        assert np.all(np.signbit(weights[[0, 2, 3]]))
        assert np.all(weights[1] > 0.5)
