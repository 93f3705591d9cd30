import hashlib
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
from fimscore.trainer import TrainConfig, TrainResult, split_rows, train

from gaussian_mle import analytic_mle_gaussian


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
        clone = type(self)(self.fail_at, self.counter)
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
    with pytest.raises(NonFiniteError) as exc:
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
        ("learning_rate", True),  # would train at rate 1.0
        ("learning_rate", "0.1"),  # would fail inside the comparison
        ("seed", 2.5),  # would train as seed 2
        ("seed", True),
    ):
        with pytest.raises(DomainError, match=field):
            TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
@pytest.mark.parametrize("value", [2.5, True, "3"])
def test_config_counts_must_be_integers(field, value):
    """A float, bool or string count is a DomainError naming its field,
    from ``validate`` and from ``train`` before any work."""
    with pytest.raises(DomainError, match=field):
        TrainConfig(**{field: value}).validate()
    flow = CouplingFlowModel.init_random(2, Rng(0).child(0), n_blocks=2, hidden=4)
    with pytest.raises(DomainError, match=field):
        train(flow, Rng(1).normals(400).reshape(-1, 2),
              TrainConfig(**{"epochs": 1, "batch_size": 16, field: value}))


@pytest.mark.parametrize("seed", [-3, np.int64(7)])
def test_config_accepts_negative_and_numpy_seeds(seed):
    TrainConfig(seed=seed).validate()


def test_training_in_place_leaves_no_shared_buffer(monkeypatch):
    """The loop steps one theta buffer in place. The input model's buffer
    keeps its bytes, and the returned parameters are a read-only copy
    that shares memory with neither it nor any buffer the loop stepped
    or read gradients from. Two runs agree byte for byte."""
    data = generate("two_moons", 600, seed=3).points
    seen = []
    plain = CouplingFlowModel.loglik_and_grad_sum

    def spy(self, x):
        loss, grad = plain(self, x)
        seen.extend([self.params.flat(), grad.flat()])
        return loss, grad

    monkeypatch.setattr(CouplingFlowModel, "loglik_and_grad_sum", spy)
    flow = CouplingFlowModel.init_random(2, Rng(5).child(0), n_blocks=2, hidden=4)
    before = flow.params.flat().tobytes()
    cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=1e-2, seed=2)
    runs = [train(flow, data, cfg) for _ in range(2)]
    assert flow.params.flat().tobytes() == before
    assert seen
    for res in runs:
        flat = res.model.params.flat()
        assert not flat.flags.writeable
        assert flat.tobytes() != before
        for other in [flow.params.flat(), res.train_rows, res.fit_rows] + seen:
            assert not np.shares_memory(flat, other)
    assert runs[0].model.params.flat().tobytes() == runs[1].model.params.flat().tobytes()
    assert runs[0].loss_curve == runs[1].loss_curve


class _RunawayModel(_BlowupModel):
    """Finite loss and a gradient of ones, so a huge learning rate carries
    theta past the largest float on the second step."""

    def loglik_and_grad_sum(self, x):
        return 0.0, self.params.from_flat(np.ones(2))


def test_nonfinite_theta_names_epoch_batch_and_layer():
    data = np.zeros((44, 2))  # 39 train rows -> 2 batches of 16 per epoch
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as exc:
        train(_RunawayModel(fail_at_call=math.inf), data,
              TrainConfig(epochs=1, batch_size=16, learning_rate=1e308, seed=0))
    msg = str(exc.value)
    assert "epoch 0" in msg and "batch 1" in msg and "'w'" in msg


@pytest.mark.parametrize("row", [5, 17])  # row 17 lands in the fit split
def test_nonfinite_data_row_is_named_before_the_split(row):
    points = generate("two_moons", 200, seed=1).points.copy()
    points[row, 1] = np.nan
    with pytest.raises(NonFiniteError, match=f"^training data row {row} has a "
                                             "non-finite value in column 1$"):
        train(DiagGaussianModel.standard(2), points,
              TrainConfig(epochs=1, batch_size=16, seed=0))


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


TRAIN_PINS = {
    "flow_d4_K3_H5": "a2e1039d9d5ef952440b4a9e2bfdbe61b20f3ba6dc0b3663e1be9224cffa7b3c",
    "flow_d2_K4_H16": "1369a58186323a246c255b24be4a52fabac413efef615a45fdb5d8d916102bee",
    "diag_gaussian": "36134bf132b3e9099abf8fd58727d2f881e6cbd4d25f9420ab74615fa5b23d18",
    "diag_gaussian_d1": "8d82d9a2bed3a30bb947b9dc01a307302b67024a503bcf8be34c743bc31e5ec8",
    "flow_d2_K2_H1": "4a2a455cace59f80f8486e1765acd25719fb4cf369a0c4a9c3d8b51fda0c4228",
}


@pytest.mark.parametrize("case", sorted(TRAIN_PINS))
def test_three_epoch_training_bits_are_pinned(case):
    """sha256 of the trained parameters and the loss curve after 3 epochs,
    for a d = 4 flow, the CLI walkthrough's d = 2 K = 4 H = 16 flow and the
    diagonal Gaussian. A faster step must keep every bit of training. The
    d = 1 Gaussian and the H = 1 flow have bias layers one column wide,
    whose batch sum numpy takes pairwise, not row by row as for wider ones."""
    moons = generate("two_moons", 1200, seed=5).points
    model, rows = {
        "flow_d4_K3_H5": lambda: (
            CouplingFlowModel.init_random(4, Rng(1).child(0), n_blocks=3, hidden=5),
            np.column_stack([moons, generate("rings", 1200, seed=6).points])),
        "flow_d2_K4_H16": lambda: (
            CouplingFlowModel.init_random(2, Rng(2).child(0), n_blocks=4, hidden=16), moons),
        "diag_gaussian": lambda: (DiagGaussianModel.standard(2), moons),
        "diag_gaussian_d1": lambda: (DiagGaussianModel.standard(1), moons[:, :1]),
        "flow_d2_K2_H1": lambda: (
            CouplingFlowModel.init_random(2, Rng(3).child(0), n_blocks=2, hidden=1), moons),
    }[case]()
    res = train(model, rows, TrainConfig(epochs=3, batch_size=128, learning_rate=3e-3, seed=7))
    digest = hashlib.sha256(res.model.params.flat().tobytes())
    digest.update(np.asarray(res.loss_curve).tobytes())
    assert digest.hexdigest() == TRAIN_PINS[case]
