import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fimscore.detector import (
    Q_CLAMP,
    VAR_FLOOR,
    DetectorModel,
    fisher_method_score,
    fit_detector,
    load_detector,
    ood_score,
    save_detector,
)
from fimscore.errors import DatasetFormatError, DomainError, InsufficientDataError
from fimscore.evaluation import auroc
from fimscore.numcore import Rng

# -ln(phi(0)) for a unit Gaussian evaluated at its mean: 0.5 * ln(2 pi)
HALF_LOG_2PI = 0.9189385332046727
LN_2 = 0.6931471805599453


def unit_detector(n_layers):
    return DetectorModel(np.zeros(n_layers), np.ones(n_layers), n_fit=10)


def test_fit_two_rows_by_hand():
    det = fit_detector(np.array([[0.0], [2.0]]))
    assert det.mu[0] == 1.0
    assert det.sigma2[0] == 1.0  # biased variance
    assert det.n_fit == 2


def test_fit_floors_constant_layer():
    det = fit_detector(np.array([[3.0, 1.0], [3.0, 2.0]]))
    assert det.sigma2[0] == VAR_FLOOR


def test_fit_requires_two_rows():
    with pytest.raises(InsufficientDataError):
        fit_detector(np.array([[1.0, 2.0]]))


def test_fit_rejects_nonfinite():
    with pytest.raises(DomainError):
        fit_detector(np.array([[0.0], [float("inf")]]))


def test_fit_large_sample_consistency():
    rng = Rng(1)
    f = 2.0 + 0.5 * rng.normals(20_000).reshape(10_000, 2)
    det = fit_detector(f)
    assert np.max(np.abs(det.mu - 2.0)) < 3 * 0.5 / math.sqrt(10_000)
    assert np.max(np.abs(det.sigma2 - 0.25)) < 0.01


def test_ood_score_at_mean():
    det = unit_detector(1)
    assert abs(ood_score(det, np.zeros(1)) - HALF_LOG_2PI) < 1e-14
    det2 = unit_detector(2)
    assert abs(ood_score(det2, np.zeros(2)) - 2 * HALF_LOG_2PI) < 1e-14


def test_ood_score_minimized_at_mean():
    det = DetectorModel(np.array([1.0, -2.0]), np.array([0.5, 2.0]), 5)
    base = ood_score(det, det.mu)
    rng = Rng(2)
    for _ in range(100):
        other = det.mu + rng.normals(2)
        assert ood_score(det, other) >= base


def test_ood_score_matrix_form():
    det = unit_detector(2)
    rows = Rng(3).normals(10).reshape(5, 2)
    for score in (ood_score, fisher_method_score):
        out = score(det, rows)
        assert out.shape == (5,)
        assert np.ndim(score(det, rows[0])) == 0
        assert abs(out[0] - score(det, rows[0])) < 1e-14


def test_width_mismatch():
    # only a (layers,) row or a (batches, layers) matrix is scoreable
    for bad in (np.zeros(3), np.zeros((3, 1)), np.float64(0.0), np.zeros((1, 3, 2))):
        for score in (ood_score, fisher_method_score):
            with pytest.raises(DomainError):
                score(unit_detector(2), bad)


def test_fisher_score_at_mean():
    # at the mean both tails are 1/2, so each layer contributes ln 2
    det = unit_detector(1)
    assert abs(fisher_method_score(det, np.zeros(1)) - LN_2) < 1e-14
    det3 = unit_detector(3)
    assert abs(fisher_method_score(det3, np.zeros(3)) - 3 * LN_2) < 1e-14


def test_fisher_score_two_sigma():
    # q = 1 - Phi(2); value checked against mpmath erfc at 40 digits
    det = unit_detector(1)
    got = fisher_method_score(det, np.array([2.0]))
    assert abs(got - 3.783184333682032) < 1e-12


@given(st.floats(min_value=-40, max_value=40))
@settings(max_examples=60, deadline=None)
def test_fisher_score_symmetric(z):
    det = unit_detector(1)
    a = fisher_method_score(det, np.array([z]))
    b = fisher_method_score(det, np.array([-z]))
    assert a == b  # evaluated as Phi(-|z|), symmetric by construction


def test_fisher_score_deep_tail_accuracy():
    # -ln Phi(-10) from mpmath: 53.23128515051247
    det = unit_detector(1)
    got = fisher_method_score(det, np.array([10.0]))
    assert abs(got - 53.23128515051247) < 1e-9


def test_fisher_score_clamped_finite():
    det = unit_detector(1)
    got = fisher_method_score(det, np.array([1e6]))
    assert math.isfinite(got)
    assert got <= -math.log(Q_CLAMP) + 1e-9


def test_scores_increase_with_distance():
    det = unit_detector(1)
    xs = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    nll = [ood_score(det, np.array([x])) for x in xs]
    fis = [fisher_method_score(det, np.array([x])) for x in xs]
    assert all(np.diff(nll) > 0) and all(np.diff(fis) > 0)


RECORD = {"batch_size": 5, "layer_names": ["a", "b"], "model_checksum": "deadbeef"}


def test_save_load_roundtrip(tmp_path):
    det = DetectorModel(np.array([0.5, -1.0]), np.array([2.0, 0.25]), 7)
    path = str(tmp_path / "det.json")
    save_detector(det, path, RECORD)
    back, record = load_detector(path)
    assert np.array_equal(back.mu, det.mu)
    assert np.array_equal(back.sigma2, det.sigma2)
    assert back.n_fit == 7
    assert record == RECORD


def test_load_detector_errors(tmp_path):
    path = str(tmp_path / "det.json")
    with open(path, "w") as fh:
        fh.write("{broken")
    with pytest.raises(DatasetFormatError):
        load_detector(path)
    good = {"mu": [0.0, 1.0], "sigma2": [1.0, 2.0], "n_fit": 2, **RECORD}
    missing = [{k: v for k, v in good.items() if k != key} for key in RECORD]
    for obj in missing + [
        {**good, "sigma2": [1.0]},
        {**good, "sigma2": [0.0, 1.0]},
        {"mu": [0.0]},
        {**good, "mu": [float("nan"), 0.0]},
        {**good, "sigma2": [float("inf"), 1.0]},
        {**good, "sigma2": [float("nan"), 1.0]},
        {**good, "model_checksum": None},
        {**good, "model_checksum": 5},
        {**good, "layer_names": "ab"},
        {**good, "layer_names": ["a"]},
        {**good, "layer_names": ["a", 2]},
        {**good, "batch_size": 0},
        {**good, "batch_size": True},
        {**good, "batch_size": 5.0},
        {**good, "batch_size": "5"},
        {**good, "n_fit": True},
        {**good, "n_fit": 2.7},
        {**good, "n_fit": -4},
        {**good, "mu": ["1.5", 1.0]},
        {**good, "sigma2": [True, 2.0]},
        {**good, "mu": [None, 1.0]},
        {**good, "mu": [10 ** 400, 1.0]},  # no float holds it
    ]:
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(DatasetFormatError, match="det.json"):
            load_detector(path)
    with open(path, "w") as fh:
        json.dump({**good, "sigma2": [1.0, "2"]}, fh)
    with pytest.raises(DatasetFormatError,
                       match="det.json' is malformed: sigma2 entry 1 must be a number"):
        load_detector(path)
    with open(path, "w") as fh:  # a zero-layer detector would score every batch 0
        json.dump({**good, "mu": [], "sigma2": [], "layer_names": []}, fh)
    with pytest.raises(DatasetFormatError, match="det.json' is malformed: .* at least one layer"):
        load_detector(path)


def test_scores_follow_per_layer_standardization():
    """Shifting and rescaling one feature column, with the detector refit
    on the transformed fit set, leaves every score unchanged up to float
    noise and the induced ranking identical.

    The detector standardizes per layer, so an affine change of a
    feature column (as produced by reparameterizing one weight layer)
    cancels out.
    """
    rng = Rng(11)
    fit = rng.normals(400).reshape(200, 2)
    test = rng.normals(80).reshape(40, 2) + 0.5

    det = fit_detector(fit)
    base_nll = ood_score(det, test)
    base_fis = fisher_method_score(det, test)

    scale, shift = 3.0, -2.0
    fit2 = fit.copy()
    fit2[:, 1] = scale * fit2[:, 1] + shift
    test2 = test.copy()
    test2[:, 1] = scale * test2[:, 1] + shift
    det2 = fit_detector(fit2)

    nll2 = ood_score(det2, test2)
    fis2 = fisher_method_score(det2, test2)
    # NLL shifts by the constant ln|scale| per rescaled layer
    assert np.max(np.abs((nll2 - base_nll) - math.log(scale))) < 1e-9
    assert np.max(np.abs(fis2 - base_fis)) < 1e-9

    flags = np.concatenate([np.zeros(20), np.ones(20)])
    assert auroc(base_nll[flags == 0], base_nll[flags == 1]) == \
        auroc(nll2[flags == 0], nll2[flags == 1])
