"""Persistent contrastive divergence (PCD) with ``p`` particles.

The Boltzmann gradient follower keeps ``p`` persistent hidden-state
particles for the negative phase (Sec. 3.3, citing Tieleman 2008).  This
module provides the software reference for that training style: the
negative-phase Markov chains are never re-initialized from the data but
persist across updates, each minibatch advancing one (or more) of them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.rbm.rbm import BernoulliRBM, TrainingHistory
from repro.utils.batching import minibatches
from repro.utils.numerics import (
    bernoulli_sample,
    is_sparse,
    safe_sparse_dot,
    sparse_mean,
    sparse_mean_squared_error,
    to_dense,
)
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import (
    ValidationError,
    check_data_matrix,
    check_has_rows,
    check_positive,
)


class PCDTrainer:
    """Persistent CD trainer.

    Parameters
    ----------
    learning_rate:
        Gradient step size.
    n_particles:
        Number of persistent fantasy particles (``p`` in the paper).
    gibbs_steps:
        Gibbs steps applied to each particle per parameter update.
    batch_size:
        Minibatch size for the positive phase.
    persistent:
        ``True`` (default) keeps the fantasy particles alive across updates
        — classic PCD.  ``False`` re-seeds the particles from the current
        minibatch's rows (cycled when ``n_particles`` exceeds the batch)
        before every advance, i.e. CD statistics with a decoupled particle
        count — the software mirror of the Gibbs-sampler trainer's
        ``persistent`` knob.

    RNG stream order
    ----------------
    The trainer's generator is consumed in a fixed order: (1) one
    ``(n_particles, n_visible)`` uniform block when the particles are
    (re)initialized at ``train`` entry (persistent mode only); (2) one
    shuffle permutation per epoch; (3) per update, the particle advance
    draws one ``(p, n_hidden)`` block then alternating ``(p, n_visible)`` /
    ``(p, n_hidden)`` blocks per Gibbs step.  All particles share each
    block, decorrelated by row; nothing touches NumPy's global RNG.
    """

    def __init__(
        self,
        learning_rate: float = 0.05,
        *,
        n_particles: int = 10,
        gibbs_steps: int = 1,
        batch_size: int = 10,
        weight_decay: float = 0.0,
        persistent: bool = True,
        rng: SeedLike = None,
    ):
        self.learning_rate = check_positive(learning_rate, name="learning_rate")
        if n_particles < 1:
            raise ValidationError(f"n_particles must be >= 1, got {n_particles}")
        if gibbs_steps < 1:
            raise ValidationError(f"gibbs_steps must be >= 1, got {gibbs_steps}")
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        self.n_particles = int(n_particles)
        self.gibbs_steps = int(gibbs_steps)
        self.batch_size = int(batch_size)
        self.weight_decay = check_positive(weight_decay, name="weight_decay", strict=False)
        self.persistent = bool(persistent)
        self._rng = as_rng(rng)
        self._particles_v: Optional[np.ndarray] = None

    @property
    def particles(self) -> Optional[np.ndarray]:
        """Current visible states of the persistent particles (or ``None``)."""
        return None if self._particles_v is None else self._particles_v.copy()

    def restore_particles(self, particles: np.ndarray) -> None:
        """Adopt a saved particle pool (e.g. an artifact's ``chain_state``).

        Subsequent ``train``/``partial_fit`` calls continue from these
        fantasy particles instead of re-initializing, so a PCD run resumed
        from an artifact keeps its equilibrated negative-phase state.
        """
        particles = np.asarray(particles, dtype=float)
        if particles.ndim != 2:
            raise ValidationError(
                f"particles must be 2-D (n_particles, n_visible), got"
                f" ndim={particles.ndim}"
            )
        if particles.shape[0] != self.n_particles:
            raise ValidationError(
                f"got {particles.shape[0]} particles; this trainer runs"
                f" n_particles={self.n_particles}"
            )
        self._particles_v = particles.copy()

    def _init_particles(self, rbm: BernoulliRBM) -> None:
        self._particles_v = (
            self._rng.random((self.n_particles, rbm.n_visible)) < 0.5
        ).astype(np.float64)

    def _advance_particles(self, rbm: BernoulliRBM) -> tuple[np.ndarray, np.ndarray]:
        """Advance every particle by ``gibbs_steps`` full Gibbs steps."""
        assert self._particles_v is not None
        v = self._particles_v
        h = bernoulli_sample(rbm.hidden_activation_probability(v), self._rng)
        for _ in range(self.gibbs_steps):
            v = bernoulli_sample(rbm.visible_activation_probability(h), self._rng)
            h = bernoulli_sample(rbm.hidden_activation_probability(v), self._rng)
        self._particles_v = v
        return v, h

    def _ensure_particles(self, rbm: BernoulliRBM, reset_particles: bool) -> None:
        """(Re)initialize the persistent particle pool when needed.

        Documented RNG order: the init block is the first draw from the
        trainer stream in a ``train()`` call — and in the first
        ``partial_fit`` of a streamed run.
        """
        if not self.persistent:
            return
        if reset_particles or self._particles_v is None:
            self._init_particles(rbm)
        elif self._particles_v.shape[1] != rbm.n_visible:
            raise ValidationError(
                "persistent particles do not match the RBM's visible size"
            )

    def _update_from_batch(self, rbm: BernoulliRBM, batch) -> None:
        """One PCD update: positive statistics, particle advance, in-place step.

        The single update body behind ``train`` and ``partial_fit``.
        ``batch`` may be dense or scipy-sparse CSR: the positive phase uses
        hidden probabilities (no RNG draw), so the data term dispatches
        through the sparse-dense kernels while the particle chains stay
        dense.
        """
        h_pos_prob = rbm.hidden_activation_probability(batch)
        if not self.persistent:
            # CD-style re-seed: particles restart from the minibatch
            # rows (cycled) instead of persisting across updates.
            seed_rows = np.resize(np.arange(batch.shape[0]), self.n_particles)
            seed = batch[seed_rows]
            self._particles_v = to_dense(seed) if is_sparse(seed) else seed.copy()
        v_neg, h_neg = self._advance_particles(rbm)
        h_neg_prob = rbm.hidden_activation_probability(v_neg)

        batch_n = batch.shape[0]
        grad_w = (
            safe_sparse_dot(batch.T, h_pos_prob) / batch_n
            - v_neg.T @ h_neg_prob / self.n_particles
        )
        grad_bv = sparse_mean(batch, axis=0) - np.mean(v_neg, axis=0)
        grad_bh = np.mean(h_pos_prob, axis=0) - np.mean(h_neg_prob, axis=0)
        if self.weight_decay:
            grad_w = grad_w - self.weight_decay * rbm.weights

        rbm.weights += self.learning_rate * grad_w
        rbm.visible_bias += self.learning_rate * grad_bv
        rbm.hidden_bias += self.learning_rate * grad_bh

    def partial_fit(self, rbm: BernoulliRBM, batch, *, reset_particles: bool = False):
        """Apply one PCD update to ``rbm`` — the streaming entry point.

        The fantasy particles carry across calls exactly as they carry
        across minibatches inside ``train``: feeding the batches of
        ``minibatches(data, batch_size, shuffle=False)`` through
        ``partial_fit`` one at a time is bit-identical to ``train(rbm,
        data, epochs=1, shuffle=False)`` under the same seed (both consume
        the trainer RNG in the same order — particle init on the first
        call, then one advance per batch).  ``batch`` may be dense or
        scipy-sparse CSR.  Returns ``self``.
        """
        batch = check_data_matrix(batch, name="batch", n_features=rbm.n_visible)
        self._ensure_particles(rbm, reset_particles)
        self._update_from_batch(rbm, batch)
        return self

    def train(
        self,
        rbm: BernoulliRBM,
        data: np.ndarray,
        *,
        epochs: int = 10,
        shuffle: bool = True,
        reset_particles: bool = True,
    ) -> TrainingHistory:
        """Train ``rbm`` in place with persistent CD.

        ``data`` may be dense or scipy-sparse CSR; sparse runs agree with
        the dense expansion at float tolerance under the same seed.
        """
        data = check_has_rows(check_data_matrix(data, name="data"))
        if data.shape[1] != rbm.n_visible:
            raise ValidationError(
                f"data has {data.shape[1]} features but the RBM has "
                f"{rbm.n_visible} visible units"
            )
        if epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {epochs}")
        self._ensure_particles(rbm, reset_particles)

        history = TrainingHistory()
        for epoch in range(epochs):
            for batch in minibatches(data, self.batch_size, shuffle=shuffle, rng=self._rng):
                self._update_from_batch(rbm, batch)

            recon = rbm.reconstruct(data)
            if is_sparse(data):
                recon_error = float(sparse_mean_squared_error(data, recon))
            else:
                recon_error = float(np.mean((data - recon) ** 2))
            history.record(epoch, recon_error)
        return history
