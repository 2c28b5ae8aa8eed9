"""Exact maximum-likelihood training for small RBMs.

Appendix A of the paper compares the bias of CD-k and the BGF training rule
against true maximum-likelihood (ML) learning on a 12×4 RBM, where the
model expectation ⟨v_i h_j⟩_model (Eq. 10) can be computed exactly by
enumeration.  This trainer implements that exact gradient ascent.
"""

from __future__ import annotations

import numpy as np

from repro.rbm.partition import MAX_ENUMERATION_BITS, enumerate_states
from repro.rbm.rbm import BernoulliRBM, TrainingHistory
from repro.utils.numerics import (
    is_sparse,
    logsumexp,
    safe_sparse_dot,
    sparse_mean,
    sparse_mean_squared_error,
)
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import (
    ValidationError,
    check_data_matrix,
    check_has_rows,
    check_positive,
)


class MaximumLikelihoodTrainer:
    """Exact gradient-ascent trainer (tractable only for tiny RBMs).

    Parameters
    ----------
    learning_rate:
        Gradient step size.
    """

    def __init__(self, learning_rate: float = 0.1, *, rng: SeedLike = None):
        self.learning_rate = check_positive(learning_rate, name="learning_rate")
        self._rng = as_rng(rng)

    @staticmethod
    def model_expectations(rbm: BernoulliRBM) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact ⟨v_i h_j⟩, ⟨v_i⟩ and ⟨h_j⟩ under the model distribution.

        Enumerates visible configurations (2**n_visible of them); the hidden
        layer is marginalized analytically via P(h | v).
        """
        if rbm.n_visible > MAX_ENUMERATION_BITS:
            raise ValidationError(
                "model_expectations requires n_visible <= "
                f"{MAX_ENUMERATION_BITS}, got {rbm.n_visible}"
            )
        v_states = enumerate_states(rbm.n_visible)
        log_unnorm = -rbm.free_energy(v_states)
        log_z = logsumexp(log_unnorm)
        p_v = np.exp(log_unnorm - log_z)  # (2**n_visible,)
        h_probs = rbm.hidden_activation_probability(v_states)  # (2**nv, n_hidden)

        vh = (v_states * p_v[:, None]).T @ h_probs  # (n_visible, n_hidden)
        v_mean = p_v @ v_states
        h_mean = p_v @ h_probs
        return vh, v_mean, h_mean

    @staticmethod
    def data_expectations(rbm: BernoulliRBM, data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact ⟨v_i h_j⟩_data, ⟨v_i⟩_data, ⟨h_j⟩_data (Eq. 9).

        ``data`` may be dense or scipy-sparse CSR; the sparse accumulation
        matches the dense one at float tolerance.
        """
        if not is_sparse(data):
            data = np.atleast_2d(np.asarray(data, dtype=float))
        h_probs = rbm.hidden_activation_probability(data)
        n = data.shape[0]
        vh = safe_sparse_dot(data.T, h_probs) / n
        return vh, sparse_mean(data, axis=0), np.mean(h_probs, axis=0)

    def train(
        self,
        rbm: BernoulliRBM,
        data: np.ndarray,
        *,
        iterations: int = 1000,
        record_every: int = 0,
    ) -> TrainingHistory:
        """Run exact gradient ascent on the data log likelihood.

        Parameters
        ----------
        iterations:
            Number of full-batch gradient steps (the paper uses 1000).
        record_every:
            If positive, record reconstruction error every that many steps.
        """
        data = check_has_rows(check_data_matrix(data, name="data"))
        if data.shape[1] != rbm.n_visible:
            raise ValidationError(
                f"data has {data.shape[1]} features; RBM has {rbm.n_visible} visible units"
            )
        if iterations < 1:
            raise ValidationError(f"iterations must be >= 1, got {iterations}")

        def _recon_error() -> float:
            recon = rbm.reconstruct(data)
            if is_sparse(data):
                return float(sparse_mean_squared_error(data, recon))
            return float(np.mean((data - recon) ** 2))

        history = TrainingHistory()
        data_vh, data_v, data_h = self.data_expectations(rbm, data)
        for step in range(iterations):
            model_vh, model_v, model_h = self.model_expectations(rbm)
            rbm.weights += self.learning_rate * (data_vh - model_vh)
            rbm.visible_bias += self.learning_rate * (data_v - model_v)
            rbm.hidden_bias += self.learning_rate * (data_h - model_h)
            # The data-side hidden expectations depend on the weights, so they
            # must be refreshed after each update.
            data_vh, data_v, data_h = self.data_expectations(rbm, data)
            if record_every and (step + 1) % record_every == 0:
                history.record(step, _recon_error())
        if not len(history):
            history.record(iterations - 1, _recon_error())
        return history
