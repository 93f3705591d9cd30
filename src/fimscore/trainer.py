"""Deterministic maximum-likelihood training with a held-out fit split.

The split convention matters downstream: the rows are shuffled once with
the config seed and the last ceil(FIT_FRACTION * n) rows become the fit
split. Those rows are reserved for calibrating detectors and typicality
constants and never reach an optimizer update. Per-epoch batch order
comes from child streams of the same seed, so two runs with identical
config and data produce bit-identical parameters.

Optimization is Adam run as ascent on the mean log-likelihood of each
batch, with the fixed settings BETA1, BETA2 and EPS. Only full batches
are used each epoch, so the train split must hold at least one; the
remainder rows simply wait for the next epoch's shuffle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, DomainError, InsufficientDataError, NonFiniteError
from .models import DiagGaussianModel
from .numcore import Rng

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
FIT_FRACTION = 0.1


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise DomainError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")


@dataclass
class TrainResult:
    model: object
    train_rows: np.ndarray
    fit_rows: np.ndarray
    loss_curve: list = field(default_factory=list)
    initial_loglik: float = float("nan")


def split_rows(data: np.ndarray, rng: Rng):
    """Shuffle rows once, reserve the last ceil(FIT_FRACTION * n) as fit."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    n_fit = math.ceil(FIT_FRACTION * n)
    if n_fit < 1 or n_fit >= n:
        raise InsufficientDataError(
            f"cannot carve a fit split of {n_fit} rows out of {n}"
        )
    shuffled = rng.shuffled(data)
    return shuffled[: n - n_fit], shuffled[n - n_fit :]


def train(model, data: np.ndarray, config: TrainConfig) -> TrainResult:
    """Adam ascent on mean batch log-likelihood; returns the trained copy.

    The input model is left untouched. The loss curve holds the mean
    train-split log-likelihood after each epoch. A non-finite batch loss
    or gradient aborts with the offending epoch and batch index.
    """
    config.validate()
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DomainError(f"training data must be 2-D, got shape {data.shape}")
    root = Rng(config.seed)
    train_rows, fit_rows = split_rows(data, root)
    n_train = train_rows.shape[0]
    if n_train < config.batch_size:
        raise InsufficientDataError(f"the train split holds {n_train} rows, fewer "
                                    f"than one batch of {config.batch_size}")

    theta = model.params.flat()
    work = model.with_params(model.params.from_flat(theta))
    initial = float(np.mean(work.log_likelihood_batch(train_rows)))

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    curve = []
    n_batches = n_train // config.batch_size
    for epoch in range(config.epochs):
        order = root.child(1 + epoch).permutation(n_train)
        for b in range(n_batches):
            idx = order[b * config.batch_size : (b + 1) * config.batch_size]
            batch = train_rows[idx]
            try:
                loss_sum, grad = work.loglik_and_grad_sum(batch)
                if not math.isfinite(loss_sum):
                    raise NonFiniteError("non-finite loss")
            except NonFiniteError as exc:
                raise NonFiniteError(f"{exc} at epoch {epoch}, batch {b}") from exc
            g = grad.flat() / config.batch_size
            step += 1
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** step)
            v_hat = v / (1.0 - BETA2 ** step)
            theta = theta + config.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
            work = model.with_params(model.params.from_flat(theta))
        curve.append(float(np.mean(work.log_likelihood_batch(train_rows))))
    return TrainResult(work, train_rows, fit_rows, curve, initial)


def analytic_mle_gaussian(data: np.ndarray) -> DiagGaussianModel:
    """Closed-form MLE: per-column mean and biased (divide-by-n) variance."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise InsufficientDataError(
            f"analytic MLE needs a 2-D array with >= 2 rows, got {data.shape}"
        )
    mu = data.mean(axis=0)
    var = data.var(axis=0)
    bad = np.nonzero(var <= 0.0)[0]
    if bad.size:
        raise DegenerateDataError(
            f"column {int(bad[0])} has zero variance; Gaussian MLE undefined"
        )
    return DiagGaussianModel(mu, 0.5 * np.log(var))
