"""Regression: training on a zero-row data matrix is rejected at ``train``.

An empty batch used to "succeed": no update ran, the epoch recorded a NaN
reconstruction error, and numpy emitted two RuntimeWarnings (mean of an
empty slice).  Every trainer now raises ValidationError before touching
the model.
"""

import warnings

import numpy as np
import pytest

from repro.api import build_trainer
from repro.config import TrainerSpec
from repro.rbm import BernoulliRBM, MaximumLikelihoodTrainer, PCDTrainer
from repro.utils.validation import ValidationError

SPECS = {
    "cd": TrainerSpec.cd(0.1),
    "gs": TrainerSpec.gs(0.1),
    "bgf": TrainerSpec.bgf(0.1),
}


def _assert_rejected(trainer, rbm, **train_kwargs):
    before = rbm.weights.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="no rows"):
            trainer.train(rbm, np.empty((0, rbm.n_visible)), **train_kwargs)
    assert np.array_equal(rbm.weights, before)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_train_rejects_empty_data(kind):
    _assert_rejected(
        build_trainer(SPECS[kind], rng=0), BernoulliRBM(6, 4, rng=0), epochs=1
    )


def test_pcd_train_rejects_empty_data():
    _assert_rejected(PCDTrainer(0.1, rng=0), BernoulliRBM(6, 4, rng=0), epochs=1)


def test_exact_ml_train_rejects_empty_data():
    _assert_rejected(
        MaximumLikelihoodTrainer(0.1), BernoulliRBM(6, 4, rng=0), iterations=1
    )
