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
remainder rows simply wait for the next epoch's shuffle. The loop builds
one working model over its own copy of the parameters and steps that
buffer, with the Adam moments, in place; the trained model it returns is
a fresh read-only copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, InsufficientDataError, NonFiniteError, require_finite,
                     require_int, require_positive)
from .models import layer_fail
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
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", None)):
            require_int(getattr(self, name), name, low)
        require_positive(self.learning_rate, "learning_rate")


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
    train-split log-likelihood after each epoch. A non-finite data row is
    refused before the split, by its row and column; a non-finite batch
    loss, gradient or updated parameter aborts with the offending epoch
    and batch index.
    """
    config.validate()
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DomainError(f"training data must be 2-D, got shape {data.shape}")
    require_finite(data, lambda i: NonFiniteError(
        f"training data row {i[0]} has a non-finite value in column {i[1]}"))
    root = Rng(config.seed)
    train_rows, fit_rows = split_rows(data, root)
    n_train = train_rows.shape[0]
    if n_train < config.batch_size:
        raise InsufficientDataError(f"the train split holds {n_train} rows, fewer "
                                    f"than one batch of {config.batch_size}")

    work = model.with_params(model.params.from_flat(model.params.flat()))
    theta = work.params.flat()  # work's own copy, which each step updates in place
    theta.flags.writeable = True
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
            step += 1
            try:
                loss_sum, grad = work.loglik_and_grad_sum(batch)
                if not math.isfinite(loss_sum):
                    raise NonFiniteError("non-finite loss")
                g = grad.flat() / config.batch_size
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                m_hat = m / (1.0 - BETA1 ** step)
                v_hat = v / (1.0 - BETA2 ** step)
                theta += config.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
                require_finite(theta, layer_fail(work.params.layer_of))
            except NonFiniteError as exc:
                raise NonFiniteError(f"{exc} at epoch {epoch}, batch {b}") from exc
        curve.append(float(np.mean(work.log_likelihood_batch(train_rows))))
    final = model.with_params(model.params.from_flat(theta))
    return TrainResult(final, train_rows, fit_rows, curve, initial)
