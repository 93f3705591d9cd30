import math

import numpy as np
import pytest

from fimscore.data import generate
from fimscore.errors import (
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
    NonFiniteError,
)
from fimscore.models import (
    CouplingFlowModel,
    DiagGaussianModel,
    LayeredParams,
    model_checksum,
)
from fimscore.numcore import Rng
from fimscore.trainer import TrainConfig, TrainResult, analytic_mle_gaussian, split_rows, train


def test_analytic_mle_two_points():
    m = analytic_mle_gaussian(np.array([[0.0], [2.0]]))
    assert m.params["mu"][0] == 1.0
    # biased variance: ((0-1)^2 + (2-1)^2) / 2 = 1
    assert m.params["log_sigma"][0] == 0.0


def test_analytic_mle_rejects_constant_column():
    with pytest.raises(DegenerateDataError) as exc:
        analytic_mle_gaussian(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert "column 0" in str(exc.value)


def test_analytic_mle_needs_rows():
    with pytest.raises(InsufficientDataError):
        analytic_mle_gaussian(np.array([[1.0]]))


def test_analytic_mle_consistency():
    rng = Rng(50)
    data = np.column_stack([1.0 + 0.5 * rng.normals(100_000),
                            -2.0 + 3.0 * rng.normals(100_000)])
    m = analytic_mle_gaussian(data)
    assert np.max(np.abs(m.params["mu"] - [1.0, -2.0])) < 0.03
    sig = np.exp(m.params["log_sigma"])
    assert np.max(np.abs(sig / [0.5, 3.0] - 1.0)) < 0.02


def test_split_sizes_and_content():
    data = np.arange(25.0).reshape(25, 1)
    train_rows, fit_rows = split_rows(data, Rng(0))
    assert fit_rows.shape[0] == 3  # ceil(0.1 * 25)
    assert train_rows.shape[0] == 22
    merged = sorted(np.concatenate([train_rows, fit_rows]).ravel().tolist())
    assert merged == list(range(25))


def test_split_rejects_degenerate_fractions():
    """ceil(0.1 * n) fit rows leave none to train on at n = 1, and carve
    none at n = 0."""
    for n in (0, 1):
        with pytest.raises(InsufficientDataError):
            split_rows(np.zeros((n, 1)), Rng(0))


def test_gaussian_training_recovers_parameters():
    rng = Rng(100)
    data = 3.0 + 2.0 * rng.normals(10_000).reshape(-1, 1)
    cfg = TrainConfig(epochs=60, batch_size=128, learning_rate=2e-2, seed=0)
    res = train(DiagGaussianModel.standard(1), data, cfg)
    mu = res.model.params["mu"][0]
    sigma = float(np.exp(res.model.params["log_sigma"][0]))
    assert abs(mu - 3.0) < 0.08
    assert abs(sigma - 2.0) < 0.08
    # Adam should land near the closed-form optimum of its own train split
    mle = analytic_mle_gaussian(res.train_rows)
    assert abs(mu - mle.params["mu"][0]) < 0.08


def test_zero_epochs_returns_initial_model():
    data = Rng(7).normals(600).reshape(-1, 2)
    start = DiagGaussianModel(np.array([0.5, -0.5]), np.array([0.1, 0.2]))
    res = train(start, data, TrainConfig(epochs=0, seed=3, batch_size=16))
    assert res.loss_curve == []
    assert model_checksum(res.model) == model_checksum(start)
    assert np.isfinite(res.initial_loglik)


def test_training_is_deterministic():
    data = generate("rings", 1500, seed=9).points
    cfg = TrainConfig(epochs=5, batch_size=64, learning_rate=3e-3, seed=4)
    runs = []
    for _ in range(2):
        flow = CouplingFlowModel.init_random(2, Rng(4).child(0), n_blocks=2,
                                             hidden=8)
        runs.append(train(flow, data, cfg))
    assert model_checksum(runs[0].model) == model_checksum(runs[1].model)
    assert runs[0].loss_curve == runs[1].loss_curve
    assert np.array_equal(runs[0].fit_rows, runs[1].fit_rows)


def test_loss_curve_trends_upward():
    data = generate("two_moons", 2000, seed=5).points
    flow = CouplingFlowModel.init_random(2, Rng(0).child(0), n_blocks=4,
                                         hidden=16)
    res = train(flow, data, TrainConfig(epochs=40, batch_size=128,
                                        learning_rate=3e-3, seed=0))
    curve = np.array(res.loss_curve)
    assert curve[-1] > res.initial_loglik
    # averaged over 10-epoch windows the trend is monotone over the run
    w = curve.reshape(4, 10).mean(axis=1)
    assert np.all(np.diff(w) > -0.02)
    assert w[-1] > w[0]


def test_flow_beats_gaussian_on_curved_data():
    data = generate("two_moons", 2000, seed=5).points
    flow = CouplingFlowModel.init_random(2, Rng(0).child(0), n_blocks=4,
                                         hidden=16)
    res = train(flow, data, TrainConfig(epochs=40, batch_size=128,
                                        learning_rate=3e-3, seed=0))
    mle = analytic_mle_gaussian(res.train_rows)
    flow_ll = float(np.mean(res.model.log_likelihood_batch(res.fit_rows)))
    gauss_ll = float(np.mean(mle.log_likelihood_batch(res.fit_rows)))
    assert flow_ll > gauss_ll + 0.2


def test_input_model_is_left_untouched():
    data = Rng(8).normals(1000).reshape(-1, 2)
    start = DiagGaussianModel.standard(2)
    before = model_checksum(start)
    train(start, data, TrainConfig(epochs=3, batch_size=32, seed=1))
    assert model_checksum(start) == before


class _BlowupModel:
    """Finite objective for the first few batches, then NaN.

    The call counter is shared across the clones the trainer makes
    through with_params.
    """

    def __init__(self, fail_at_call, counter=None):
        self.params = LayeredParams([("w", np.zeros(2))])
        self.counter = counter if counter is not None else {"calls": 0}
        self.fail_at = fail_at_call

    def with_params(self, params):
        clone = _BlowupModel(self.fail_at, self.counter)
        clone.params = params
        return clone

    def log_likelihood_batch(self, x):
        return np.zeros(x.shape[0])

    def loglik_and_grad_sum(self, x):
        self.counter["calls"] += 1
        if self.counter["calls"] >= self.fail_at:
            return float("nan"), self.params
        return 0.0, self.params


def test_nonfinite_loss_names_epoch_and_batch():
    data = np.zeros((44, 2))  # 40 train rows -> 2 batches of 16 per epoch
    stub = _BlowupModel(fail_at_call=4)
    with pytest.raises(NonFiniteError) as exc:
        train(stub, data, TrainConfig(epochs=3, batch_size=16, seed=0))
    assert "epoch 1" in str(exc.value) and "batch 1" in str(exc.value)


def test_nonfinite_gradient_names_epoch_batch_and_layer():
    data = Rng(4).normals(300).reshape(-1, 1)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as exc:
        train(DiagGaussianModel([0.0], [-400.0]), data,
              TrainConfig(epochs=1, batch_size=32, seed=0))
    msg = str(exc.value)
    assert "epoch 0" in msg and "batch 0" in msg and "'mu'" in msg


def test_config_validation():
    for field, value in (
        ("epochs", -1),
        ("batch_size", 0),
        ("learning_rate", 0.0),
        ("learning_rate", math.inf),
    ):
        with pytest.raises(DomainError, match=field):
            TrainConfig(**{field: value}).validate()


def test_train_requires_enough_rows():
    with pytest.raises(InsufficientDataError):
        train(DiagGaussianModel.standard(1), np.zeros((10, 1)),
              TrainConfig(batch_size=128))


def test_train_split_must_hold_one_batch():
    """140 rows keep 14 for fit and leave 126 to train on: no full batch
    of 128, so no optimizer step could run."""
    rows = Rng(7).normals(280).reshape(140, 2)
    with pytest.raises(InsufficientDataError) as exc:
        train(DiagGaussianModel.standard(2), rows,
              TrainConfig(epochs=3, batch_size=128))
    assert "126 rows" in str(exc.value) and "128" in str(exc.value)


def test_result_fields():
    data = Rng(3).normals(900).reshape(-1, 1) + 4.0
    res = train(DiagGaussianModel.standard(1), data,
                TrainConfig(epochs=2, batch_size=100, seed=0))
    assert isinstance(res, TrainResult)
    assert len(res.loss_curve) == 2
    assert res.train_rows.shape[0] + res.fit_rows.shape[0] == 900
