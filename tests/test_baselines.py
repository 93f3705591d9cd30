import re

import numpy as np
import pytest

from fimscore.baselines import (entropy_estimate, fit_typicality, likelihood_score,
                                typicality_score)
from fimscore.errors import DomainError, InsufficientDataError, NonFiniteError
from fimscore.gradfeatures import feature_sweep, gradient_features
from fimscore.models import DiagGaussianModel
from fimscore.numcore import Rng

# 0.5 * ln(2 pi): negative log-density of a unit Gaussian at its mean
HALF_LOG_2PI = 0.9189385332046727
# differential entropy of a standard normal: 0.5 * ln(2 pi e)
STD_NORMAL_ENTROPY = 1.4189385332046727


def _means(model, batches):
    """Per-batch mean log-likelihoods from the feature sweep, the scorers'
    input; one (size, dim) batch gives a scalar."""
    batches = np.asarray(batches, dtype=np.float64)
    if batches.ndim == 2:
        return _means(model, batches[None])[0]
    loglik = feature_sweep(model, batches.reshape(-1, batches.shape[2]), batches.shape[1:2])[1]
    return loglik.reshape(batches.shape[:2]).mean(axis=-1)


def test_likelihood_score_singleton():
    m = DiagGaussianModel.standard(1)
    assert abs(likelihood_score(_means(m, [[0.0]])) - HALF_LOG_2PI) < 1e-14


def test_likelihood_score_is_batch_mean():
    m = DiagGaussianModel.standard(2)
    batch = Rng(1).normals(10).reshape(5, 2)
    want = -float(np.mean(m.log_likelihood_batch(batch)))
    assert likelihood_score(_means(m, batch)) == want


def test_batch_set_scores_match_single_batches():
    m = DiagGaussianModel.standard(2)
    batches = Rng(5).normals(24).reshape(4, 3, 2)
    h_hat = -2.5
    lik = likelihood_score(_means(m, batches))
    typ = typicality_score(h_hat, _means(m, batches))
    assert lik.shape == typ.shape == (4,)
    for i, batch in enumerate(batches):
        assert lik[i] == likelihood_score(_means(m, batch))
        assert typ[i] == typicality_score(h_hat, _means(m, batch))


def test_likelihood_score_grows_away_from_mode():
    m = DiagGaussianModel.standard(1)
    scores = [likelihood_score(_means(m, [[x]])) for x in (0.0, 1.0, 2.0, 5.0)]
    assert all(np.diff(scores) > 0)


def test_entropy_estimate_matches_gaussian_entropy():
    m = DiagGaussianModel.standard(1)
    draws = m.sample(Rng(2), 200_000)
    h_hat = fit_typicality(m, draws)
    assert abs(h_hat - (-STD_NORMAL_ENTROPY)) < 0.01


def test_fit_typicality_requires_rows():
    m = DiagGaussianModel.standard(1)
    with pytest.raises(InsufficientDataError):
        fit_typicality(m, np.zeros((0, 1)))
    for shape in ((300,), (), (2, 3, 1)):  # rows that are not (rows, dim)
        with pytest.raises(DomainError, match=rf"must be 2-D, got shape {re.escape(str(shape))}"):
            fit_typicality(m, np.zeros(shape))


def test_entropy_estimate_refuses_no_rows_and_non_finite_ones():
    """H_hat is the mean of one or more finite log-likelihoods; an empty or a
    non-finite set is refused naming its source and, for the latter, the row."""
    assert entropy_estimate(np.array([-1.0, -2.0, -4.5]), "fit rows") == -2.5
    with pytest.raises(InsufficientDataError, match="^fit rows: no row to estimate H_hat"):
        entropy_estimate(np.zeros(0), "fit rows")
    for bad in (-np.inf, np.inf, np.nan):
        with pytest.raises(NonFiniteError, match=r"^split 'a': the log-likelihood of row 2 is "
                                                 r"not finite$"):
            entropy_estimate(np.array([0.0, -1.0, bad, bad]), "split 'a'")
    m = DiagGaussianModel.standard(2)
    with pytest.raises(NonFiniteError, match="typicality fit rows"):
        fit_typicality(m, np.array([[0.0, 0.0], [1e200, 0.0]]))


class _ConstantModel:
    """Reports a fixed log-likelihood for every point."""

    def __init__(self, value):
        self.value = value

    def log_likelihood_batch(self, x):
        return np.full(np.asarray(x).shape[0], self.value)


def test_typicality_score_absolute_deviation():
    """Batches whose mean log-likelihood sits 2 above, 2 below and at H_hat,
    as a batch set and one at a time; the constant model's H_hat is its
    constant."""
    assert fit_typicality(_ConstantModel(-3.0), np.zeros((4, 1))) == -3.0
    means = np.array([-1.0, -5.0, -3.0])
    assert typicality_score(-3.0, means).tolist() == [2.0, 2.0, 0.0]
    assert [typicality_score(-3.0, v) for v in means] == [2.0, 2.0, 0.0]


def test_typicality_flags_too_likely_batches():
    """A batch pinned at the mode is atypical even though its likelihood
    is maximal; the likelihood baseline ranks it as the least anomalous."""
    m = DiagGaussianModel.standard(2)
    fit = m.sample(Rng(3), 5000)
    h_hat = fit_typicality(m, fit)
    at_mode = np.zeros((10, 2))
    typical = m.sample(Rng(4), 10)
    assert typicality_score(h_hat, _means(m, at_mode)) > \
        typicality_score(h_hat, _means(m, typical))
    assert likelihood_score(_means(m, at_mode)) < likelihood_score(_means(m, typical))


def test_likelihood_depends_on_representation_features_do_not():
    """Rescaling the data representation shifts likelihood scores by the
    log-determinant but leaves gradient features of the rescaled model's
    own parameters comparable: the score contrast between two batches is
    preserved for features, flipped or shifted for likelihoods."""
    m = DiagGaussianModel(np.zeros(1), np.zeros(1))
    scale = 10.0
    m_scaled = DiagGaussianModel(np.zeros(1), np.log([scale]))

    batch = np.array([[0.5], [1.0]])
    batch_scaled = scale * batch

    # likelihood under the rescaled representation shifts by ln(scale)
    shift = likelihood_score(_means(m_scaled, batch_scaled)) - \
        likelihood_score(_means(m, batch))
    assert abs(shift - np.log(scale)) < 1e-12

    # per-layer squared gradient norms are invariant: z is unchanged and
    # the mu-gradient rescales with the parameterization itself
    f = gradient_features(m, batch)
    f_scaled = gradient_features(m_scaled, batch_scaled)
    assert abs(f[1] - f_scaled[1]) < 1e-12  # log_sigma layer sees same z
