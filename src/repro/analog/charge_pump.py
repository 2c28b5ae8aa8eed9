"""Charge-redistribution weight-update circuit of the BGF coupling unit (App. B.4).

In the Boltzmann gradient follower every coupling unit carries a training
circuit: a CMOS charge pump that moves a small, accurately-controlled packet
of charge onto (positive phase) or off (negative phase) the gate capacitor
holding the coupling weight, *only when* the corresponding product
``v_i * h_j`` is 1 for the current sample.  The behavioral model captures
the properties the paper calls out:

* the increment direction is set by the phase (positive / negative sample),
* the step size is set by the capacitor ratio (our ``step_size``, playing
  the role of the learning rate ``alpha`` for an effective minibatch of 1),
* the update is *non-linear in the stored weight* — charge redistribution
  moves less charge as the gate voltage approaches the rail — which is the
  ``f_ij(.)`` in the paper's Eq. 12,
* per-unit static variation and per-update dynamic noise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.numerics import as_float_array
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError, check_binary, check_positive


class ChargePumpUpdater:
    """In-place weight adjuster modelling the per-coupling charge pump.

    Parameters
    ----------
    shape:
        Shape of the coupling array it serves, ``(n_visible, n_hidden)``.
    step_size:
        Nominal weight change per qualifying sample (the hardware
        equivalent of the learning rate at minibatch size 1).
    weight_range:
        ``(w_min, w_max)`` representable by the gate voltage.  Updates
        saturate smoothly toward these rails.
    saturation:
        If True (default), apply the charge-redistribution non-linearity
        ``f_ij``: the step is constant over most of the range (the circuit
        is designed so the transferred charge packet is nearly independent
        of the stored voltage) and rolls off linearly to zero within the
        last ``saturation_margin`` fraction of headroom before either rail.
        If False the step is constant until hard clipping (an idealized
        pump).
    saturation_margin:
        Fraction of the weight range over which the roll-off happens (only
        meaningful when ``saturation`` is True).
    variation_rms:
        RMS fractional mismatch of the per-unit step size (static, drawn
        once at construction).
    noise_rms:
        RMS fractional noise on every individual update (dynamic).
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        step_size: float = 1e-3,
        *,
        weight_range: Tuple[float, float] = (-1.0, 1.0),
        saturation: bool = True,
        saturation_margin: float = 0.25,
        variation_rms: float = 0.0,
        noise_rms: float = 0.0,
        rng: SeedLike = None,
    ):
        if len(shape) != 2 or shape[0] <= 0 or shape[1] <= 0:
            raise ValidationError(f"shape must be a positive 2-tuple, got {shape}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.step_size = check_positive(step_size, name="step_size")
        lo, hi = float(weight_range[0]), float(weight_range[1])
        if hi <= lo:
            raise ValidationError(f"weight_range must be increasing, got ({lo}, {hi})")
        self.weight_range = (lo, hi)
        self.saturation = bool(saturation)
        if not 0.0 < saturation_margin <= 1.0:
            raise ValidationError(
                f"saturation_margin must be in (0, 1], got {saturation_margin}"
            )
        self.saturation_margin = float(saturation_margin)
        self.variation_rms = check_positive(variation_rms, name="variation_rms", strict=False)
        self.noise_rms = check_positive(noise_rms, name="noise_rms", strict=False)
        self._rng = as_rng(rng)
        if self.variation_rms > 0:
            self._unit_gain = 1.0 + self._rng.normal(0.0, self.variation_rms, size=self.shape)
            self._unit_gain = np.maximum(self._unit_gain, 0.05)
        else:
            self._unit_gain = np.ones(self.shape, dtype=np.float64)
        # step_size and the static per-unit gain never change after
        # construction, so their product is precomputed once; every update
        # path reads this (and must never mutate it).
        self._base_steps = self.step_size * self._unit_gain

    # ------------------------------------------------------------------ #
    def _headroom(self, weights: np.ndarray, positive: bool) -> np.ndarray:
        """Charge-redistribution factor f_ij in [0, 1].

        Full-strength transfer while more than ``saturation_margin`` of the
        range remains toward the target rail; linear roll-off to zero at
        the rail itself.
        """
        lo, hi = self.weight_range
        span = hi - lo
        if positive:
            remaining = (hi - weights) / span
        else:
            remaining = (weights - lo) / span
        return np.clip(remaining / self.saturation_margin, 0.0, 1.0)

    def _weight_steps(
        self, weights: np.ndarray, positive: bool, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-unit steps incl. saturation and update noise (single source of
        the weight update law, shared by :meth:`apply` and :meth:`apply_sample`).

        With ``rows`` given, ``weights`` holds only those rows of the coupling
        array and the steps are computed for them alone; the full ``shape``
        block of update noise is still drawn and then indexed, so the noise
        stream advances exactly as for a full-array update.  May return
        ``_base_steps`` itself when ``rows`` is None and no factor applies —
        callers must then treat the result as read-only.
        """
        steps = self._base_steps if rows is None else self._base_steps[rows]
        if self.saturation:
            steps = steps * self._headroom(weights, positive)
        if self.noise_rms > 0:
            noise = self._rng.normal(0.0, self.noise_rms, size=self.shape)
            steps = steps * (1.0 + (noise if rows is None else noise[rows]))
        return steps

    def _bias_steps(self, biases: np.ndarray, positive: bool) -> np.ndarray:
        """Per-unit bias steps (single source of the bias update law, shared
        by :meth:`apply_bias` and :meth:`apply_bias_sample`).

        The bias headroom deliberately omits the ``saturation_margin``
        division used for weights: the clamp column rolls off linearly over
        the whole range.
        """
        lo, hi = self.weight_range
        if self.saturation:
            headroom = (hi - biases) / (hi - lo) if positive else (biases - lo) / (hi - lo)
            headroom = np.clip(headroom, 0.0, 1.0)
            steps = self.step_size * headroom
        else:
            steps = np.full_like(biases, self.step_size)
        if self.noise_rms > 0:
            steps = steps * (1.0 + self._rng.normal(0.0, self.noise_rms, size=biases.shape))
        return steps

    def step_matrix(self, weights: np.ndarray, positive: bool) -> np.ndarray:
        """Effective per-unit step sizes for the current weights and phase."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != self.shape:
            raise ValidationError(
                f"weights shape {weights.shape} does not match updater shape {self.shape}"
            )
        if self.saturation:
            return self._base_steps * self._headroom(weights, positive)
        return self._base_steps.copy()

    def apply(
        self,
        weights: np.ndarray,
        correlation: np.ndarray,
        *,
        positive: bool,
    ) -> np.ndarray:
        """Apply one sample's update in place and return the weights.

        Parameters
        ----------
        weights:
            Coupling array, modified in place.
        correlation:
            The binary outer product ``v_i * h_j`` of the current sample
            (1 enables the charge transfer for that unit, 0 leaves it).
        positive:
            True for the positive (increment) phase, False for the negative
            (decrement) phase — the ``Phase`` control signal of Fig. 14.
        """
        # Preserve tier-dtype arrays as-is: coercing a float32 coupling array
        # to float64 would silently copy it and strand the in-place update on
        # the copy (the float32 substrate tier owns its weights directly).
        weights = as_float_array(weights)
        correlation = check_binary(correlation, name="correlation")
        if weights.shape != self.shape or correlation.shape != self.shape:
            raise ValidationError(
                "weights and correlation must both have shape "
                f"{self.shape}; got {weights.shape} and {correlation.shape}"
            )
        steps = self._weight_steps(weights, positive)
        delta = np.where(correlation > 0, steps, 0.0)
        if positive:
            weights += delta
        else:
            weights -= delta
        np.clip(weights, self.weight_range[0], self.weight_range[1], out=weights)
        return weights

    # ------------------------------------------------------------------ #
    # Trusted per-sample kernels (the BGF streaming fast path)
    # ------------------------------------------------------------------ #
    def apply_sample(
        self,
        weights: np.ndarray,
        v_bits: np.ndarray,
        h_bits: np.ndarray,
        *,
        positive: bool,
    ) -> np.ndarray:
        """Apply one sample's update from the raw bit vectors, in place.

        Trusted fast path used by the BGF streaming kernel: ``v_bits`` and
        ``h_bits`` come straight from the substrate's latches (binary by
        construction), so the binary re-validation, the explicit
        ``np.outer`` correlation matrix, and the ``np.where`` gating of
        :meth:`apply` are all skipped.  Charge moves only where
        ``v_i * h_j = 1``, so only the rows with ``v_i = 1`` are gathered,
        stepped (their steps times ``h_bits``), clamped and scattered back;
        every other row is left untouched.

        Precondition: ``weights`` already lie in ``weight_range`` (which
        ``BoltzmannGradientFollower.initialize`` guarantees by clipping),
        because the untouched rows are not re-clipped.
        """
        rows = np.flatnonzero(v_bits)
        active = weights[rows]
        # A fresh array whenever ``rows`` is given, so the in-place gating
        # below cannot write through to ``_base_steps``.
        steps = self._weight_steps(active, positive, rows)
        steps *= h_bits
        if positive:
            active += steps
        else:
            active -= steps
        lo, hi = self.weight_range
        np.maximum(active, lo, out=active)
        np.minimum(active, hi, out=active)
        weights[rows] = active
        return weights

    def apply_bias_sample(
        self,
        biases: np.ndarray,
        active: np.ndarray,
        *,
        positive: bool,
    ) -> np.ndarray:
        """Trusted counterpart of :meth:`apply_bias` for binary ``active`` bits."""
        steps = self._bias_steps(biases, positive)
        delta = steps * active
        biases += delta if positive else -delta
        np.maximum(biases, self.weight_range[0], out=biases)
        np.minimum(biases, self.weight_range[1], out=biases)
        return biases

    def apply_bias(
        self,
        biases: np.ndarray,
        active: np.ndarray,
        *,
        positive: bool,
    ) -> np.ndarray:
        """Apply the analogous update to a bias vector (clamp-unit column of 1s).

        The bias row/column of Fig. 4 is a coupling column whose other node
        is permanently 1, so the same charge-pump law applies with the
        node's own binary state gating the transfer.
        """
        biases = as_float_array(biases)
        active = check_binary(active, name="active")
        if biases.shape != active.shape:
            raise ValidationError("biases and active must have the same shape")
        steps = self._bias_steps(biases, positive)
        delta = np.where(active > 0, steps, 0.0)
        biases += delta if positive else -delta
        np.clip(biases, self.weight_range[0], self.weight_range[1], out=biases)
        return biases
