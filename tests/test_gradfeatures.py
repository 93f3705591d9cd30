import math

import numpy as np
import pytest

from fimscore.errors import DatasetFormatError, DomainError, NonFiniteError
from fimscore.gradfeatures import (
    DEFAULT_FLOOR,
    batch_view,
    feature_matrix,
    gradient_features,
    layer_correlation_profile,
    load_features,
    log_features,
    save_features,
)
from fimscore.models import DiagGaussianModel, CouplingFlowModel
from fimscore.numcore import Rng
from fimscore.trainer import analytic_mle_gaussian


def test_gaussian_single_point_by_hand():
    # standard normal, x = (3, 4): mu-grad = z = (3, 4), f_mu = 25;
    # log_sigma-grad = z^2 - 1 = (8, 15), f = 64 + 225
    m = DiagGaussianModel.standard(2)
    f = gradient_features(m, np.array([[3.0, 4.0]]))
    assert f.tolist() == [25.0, 289.0]


def test_mu_feature_vanishes_at_mle():
    data = np.array([[0.0], [2.0]])
    m = analytic_mle_gaussian(data)
    f = gradient_features(m, data)
    assert f[0] == 0.0
    lf = log_features(f)
    assert lf[0] == math.log(DEFAULT_FLOOR)


def test_batch_feature_is_norm_of_summed_scores():
    """Dual route: one grouped backward pass over several batches must
    agree with summing each batch's per-sample score vectors and taking
    norms."""
    m = CouplingFlowModel.init_random(2, Rng(3), n_blocks=3, hidden=8)
    for size in (1, 3, 7):
        batches = batch_view(m.sample(Rng(4), 4 * size), size)
        f = feature_matrix(m, batches)
        assert f.shape == (4, len(m.params.names))
        for row, batch in zip(f, batches):
            per = m.score_batch(batch)
            want = np.array([float(np.sum(g.sum(axis=0) ** 2)) for _, g in per])
            assert np.max(np.abs(row - want) / np.maximum(want, 1e-12)) < 1e-10
            assert np.max(np.abs(gradient_features(m, batch) - row) / row) < 1e-12


def test_log_features_values():
    lf = log_features(np.array([math.e ** 2, 25.0, 0.0]))
    assert abs(lf[0] - 2.0) < 1e-12
    assert abs(lf[1] - 3.2188758248682006) < 1e-14  # ln 25
    assert abs(lf[2] - (-690.7755278982137)) < 1e-10  # ln 1e-300


def test_log_features_validation():
    with pytest.raises(DomainError):
        log_features(np.array([-1.0]))
    with pytest.raises(DomainError):
        log_features(np.array([1.0]), floor=0.0)


def test_feature_matrix_shape_and_empty():
    m = DiagGaussianModel.standard(2)
    rows = Rng(5).normals(24).reshape(12, 2)
    fm = feature_matrix(m, batch_view(rows, 4))
    assert fm.shape == (3, 2)
    with pytest.raises(DomainError):
        feature_matrix(m, [])


def test_batch_view_contiguity_and_remainder():
    rows = np.arange(22.0).reshape(11, 2)
    batches = batch_view(rows, 3)
    assert len(batches) == 3  # 2 remainder rows dropped
    assert np.array_equal(batches[1], rows[3:6])
    with pytest.raises(DomainError):
        batch_view(rows, 0)


def test_correlation_profile_duplicated_column():
    col = Rng(6).normals(500)
    profile, excluded = layer_correlation_profile(np.column_stack([col, col]))
    assert excluded == []
    assert abs(profile[0] - 1.0) < 1e-12


def test_correlation_profile_independent_columns():
    f = Rng(7).normals(30_000).reshape(10_000, 3)
    profile, excluded = layer_correlation_profile(f)
    assert excluded == []
    assert np.max(np.abs(profile)) < 0.05


def test_correlation_profile_matches_pairwise_loop():
    f = Rng(9).normals(200 * 7).reshape(200, 7) @ Rng(10).normals(49).reshape(7, 7)
    f[:, 3] = 1.5
    profile, excluded = layer_correlation_profile(f)
    assert excluded == [3]
    for d in range(1, 7):
        want = [np.corrcoef(f[:, a], f[:, a + d])[0, 1]
                for a in range(7 - d) if 3 not in (a, a + d)]
        assert abs(profile[d - 1] - np.mean(want)) <= 1e-12


def test_correlation_profile_excludes_constant_columns():
    col = Rng(8).normals(400)
    f = np.column_stack([col, np.full(400, 2.0)])
    profile, excluded = layer_correlation_profile(f)
    assert excluded == [1]
    assert np.isnan(profile[0])
    with pytest.raises(DomainError):
        layer_correlation_profile(np.zeros((1, 3)))


def test_feature_scales_quadratically_under_reparameterization():
    """Replacing mu by 2*phi doubles the gradient, quadrupling the
    mu-layer feature; checked against finite differences on phi."""
    m = DiagGaussianModel(np.array([1.0, -0.5]), np.array([0.3, -0.1]))
    batch = m.sample(Rng(9), 5)
    f_mu = gradient_features(m, batch)[0]

    def obj(phi):
        shifted = DiagGaussianModel(2.0 * phi, m.params["log_sigma"])
        return float(shifted.log_likelihood_batch(batch).sum())

    phi0 = m.params["mu"] / 2.0
    from fimscore.numcore import finite_diff_grad

    g_phi = finite_diff_grad(obj, phi0, h=1e-6)
    f_phi = float(np.sum(g_phi ** 2))
    assert abs(f_phi - 4.0 * f_mu) / (4.0 * f_mu) < 1e-5


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "features.csv")
    f = np.abs(Rng(10).normals(12)).reshape(4, 3)
    meta = {"batch_size": 5, "model_checksum": "abc", "floor": 1e-300}
    save_features(path, f, meta)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "batch_id,layer_0,layer_1,layer_2"
    back, meta_back = load_features(path)
    assert np.array_equal(back, f)
    assert meta_back == meta


def test_load_features_errors(tmp_path):
    path = str(tmp_path / "f.csv")
    with open(path, "w") as fh:
        fh.write("x,y\n1,2\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_features(path)
    assert exc.value.row == 0

    with open(path, "w") as fh:
        fh.write("batch_id,layer_0\n0,1.0\n1,2.0,3.0\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_features(path)
    assert exc.value.row == 2

    with open(path, "w") as fh:
        fh.write("batch_id,layer_0\n0,notanumber\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_features(path)
    assert exc.value.row == 1


def test_missing_sidecar_gives_none_meta(tmp_path):
    path = str(tmp_path / "bare.csv")
    save_features(path, np.ones((2, 2)), {"k": 1})
    import os

    os.remove(path + ".json")
    back, meta = load_features(path)
    assert meta is None and back.shape == (2, 2)


def test_nonfinite_gradient_names_layer():
    m = DiagGaussianModel(np.array([0.0]), np.array([-400.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError) as exc:
            gradient_features(m, np.array([[3.0]]))
    assert "mu" in str(exc.value)
