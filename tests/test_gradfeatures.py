import math
import tracemalloc

import numpy as np
import pytest

from fimscore.data import json_text, read_json, save_csv, write_atomic
from fimscore.errors import DatasetFormatError, DomainError, InsufficientDataError, NonFiniteError
from fimscore.fim import mc_fim_slice, score_columns
from fimscore.gradfeatures import (
    FLOOR,
    batch_view,
    feature_sweep,
    gradient_features,
    load_features,
    log_features,
    save_features,
)
from fimscore.models import DiagGaussianModel, CouplingFlowModel, model_checksum
from fimscore.numcore import Rng

from gaussian_mle import analytic_mle_gaussian


def _sweep(m, batches):
    """feature_sweep of a (batches, size, dim) array as one-size rows: the
    batches' features and their mean log-likelihoods."""
    features, loglik = feature_sweep(m, batches.reshape(-1, batches.shape[2]), batches.shape[1:2])
    return features, loglik.reshape(batches.shape[:2]).mean(axis=-1)


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
    assert lf[0] == math.log(FLOOR)


def test_batch_feature_is_norm_of_summed_scores():
    """Dual route: one grouped backward pass over several batches must
    agree with summing each batch's per-sample score vectors and taking
    norms."""
    m = CouplingFlowModel.init_random(2, Rng(3), n_blocks=3, hidden=8)
    for size in (1, 3, 7):
        batches = batch_view(m.sample(Rng(4), 4 * size), size)
        f = _sweep(m, batches)[0]
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


def test_feature_matrix_shape_and_empty():
    m = DiagGaussianModel.standard(2)
    rows = Rng(5).normals(24).reshape(12, 2)
    fm = feature_sweep(m, rows, [4])[0]
    assert fm.shape == (3, 2)
    with pytest.raises(DomainError):
        feature_sweep(m, [], [4])


@pytest.mark.parametrize("call", [lambda m: feature_sweep(m, np.empty((0, 2)), [0]),
                                  lambda m: gradient_features(m, np.empty((0, 2)))])
def test_empty_batch_is_refused_by_shape(call):
    """A batch of no rows is named by feature_sweep's own shape check, not
    by a size check deep in sweep_chunks."""
    with pytest.raises(DomainError, match=r"each size in \[0\], got shape \(0, 2\)"):
        call(DiagGaussianModel.standard(2))


def test_batch_view_contiguity_and_remainder():
    rows = np.arange(22.0).reshape(11, 2)
    batches = batch_view(rows, 3)
    assert len(batches) == 3  # 2 remainder rows dropped
    assert np.array_equal(batches[1], rows[3:6])
    assert np.array_equal(batch_view(rows, np.int64(3)), batches)
    with pytest.raises(DomainError, match="^batch size must be >= 1, got 0$"):
        batch_view(rows, 0)
    for size in (2.5, 3.0, np.float64(3), True, "3"):
        with pytest.raises(DomainError, match="^batch size must be an integer, got "):
            batch_view(rows, size)
    with pytest.raises(InsufficientDataError,
                       match="^split 'x' with 11 rows yields no batch of size 12$"):
        batch_view(rows, 12, "split 'x'")


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
    from finite_diff import finite_diff_grad

    g_phi = finite_diff_grad(obj, phi0, h=1e-6)
    f_phi = float(np.sum(g_phi ** 2))
    assert abs(f_phi - 4.0 * f_mu) / (4.0 * f_mu) < 1e-5


RECORD = {"batch_size": 5, "layer_names": ["a", "b", "c"], "model_checksum": "abc"}


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "features.csv")
    f = np.abs(Rng(10).normals(8)).reshape(4, 2)
    model = DiagGaussianModel.standard(2)
    save_features(path, f, model, 3)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "batch_id,layer_0,layer_1"
    back, record = load_features(path)
    assert np.array_equal(back, f)
    assert record == {"batch_size": 3, "layer_names": ["mu", "log_sigma"],
                      "model_checksum": model_checksum(model)}


def test_save_features_builds_the_record_of_the_model_and_batch_size(tmp_path):
    """The sidecar holds the model's checksum and layer names and the batch
    size as a JSON int, also when the size comes in as a numpy integer."""
    path = str(tmp_path / "features.csv")
    model = CouplingFlowModel.init_random(2, Rng(3), n_blocks=1, hidden=4)
    width = len(model.params.names)
    save_features(path, np.ones((2, width)), model, np.int64(5))
    assert read_json(path + ".json") == {"batch_size": 5, "layer_names": model.params.names,
                                         "model_checksum": model_checksum(model)}
    assert load_features(path)[1] == read_json(path + ".json")


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
    assert exc.value.row == 2 and path in str(exc.value)

    with open(path, "w") as fh:
        fh.write("batch_id,layer_0\n0,notanumber\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_features(path)
    assert exc.value.row == 1 and path in str(exc.value)

    with open(path, "w") as fh:
        fh.write("batch_id,layer_0\n0,1.0\n")
    for sidecar in (b'{"batch_size": 2', b"[1]", b"\xff\xfe"):
        with open(path + ".json", "wb") as fh:
            fh.write(sidecar)
        with pytest.raises(DatasetFormatError, match="f.csv.json"):
            load_features(path)


def test_load_features_rejects_mistyped_sidecar_fields(tmp_path):
    """Each entry of the provenance record is checked: a sidecar with one
    entry missing or mistyped, or a name count other than the CSV width,
    is refused when read."""
    path = str(tmp_path / "f.csv")
    bad = [{k: v for k, v in RECORD.items() if k != key} for key in RECORD]
    for key, value in (("model_checksum", 5), ("model_checksum", None),
                       ("layer_names", "abc"), ("layer_names", ["a", "b", 1]),
                       ("layer_names", ["a", "b"]), ("batch_size", 0),
                       ("batch_size", False), ("batch_size", 5.0)):
        bad.append({**RECORD, key: value})
    save_csv(path, np.ones((2, 4)), ["batch_id", "layer_0", "layer_1", "layer_2"])
    for record in bad:
        write_atomic(path + ".json", json_text(record))
        with pytest.raises(DatasetFormatError, match="f.csv.json"):
            load_features(path)


def test_nonfinite_gradient_names_layer():
    """sigma = e^-400: at x = 3 the mu factor z / sigma overflows. Feature
    and gradient rows keep every factor, so sweep_chunks' one output check
    names mu; score_columns drops mu's factor, so its sink's factor check
    names it. The model's own draws keep every factor finite, and
    mc_fim_slice's s^T s overflows."""
    m = DiagGaussianModel(np.array([0.0]), np.array([-400.0]))
    calls = [lambda: gradient_features(m, np.array([[3.0]])),
             lambda: feature_sweep(m, np.array([[3.0]]), [1]),
             lambda: score_columns(m, np.array([[3.0]]), [("log_sigma", 0)]),
             lambda: m.grad_groups(np.array([[3.0]]), 1),
             lambda: mc_fim_slice(m, ["mu"], Rng(0), 8)]
    for call in calls:
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError) as exc:
                call()
        assert "'mu'" in str(exc.value)


def jittered_flow(dim, hidden, seed=0):
    m = CouplingFlowModel.init_random(dim, Rng(seed), n_blocks=6, hidden=hidden)
    noise = 0.2 * Rng(seed + 1).normals(m.params.n_params)
    return m.with_params(m.params.from_flat(m.params.flat() + noise))


@pytest.mark.parametrize("batch_size", [1, 5, 25])
@pytest.mark.parametrize("make", [
    lambda: DiagGaussianModel(np.array([0.5, -1.0, 2.0]), np.array([0.1, -0.3, 0.4])),
    lambda: jittered_flow(2, 32),  # the golden flow's shape
    lambda: jittered_flow(16, 64),
], ids=["gaussian", "flow_d2_h32", "flow_d16_h64"])
def test_features_match_materialised_gradients(make, batch_size):
    """Per-layer group sums of the factors against the squared columns of
    grad_groups rows, at most 1e-12 relative."""
    m = make()
    batches = 1.5 * Rng(8).normals(30 * batch_size * m.dim).reshape(30, batch_size, m.dim)
    grads = m.grad_groups(batches.reshape(-1, m.dim), batch_size)[0]
    want = np.stack([np.sum(np.square(v.reshape(30, -1)), axis=1)
                     for v in m.params.views(grads)], axis=1)
    np.testing.assert_allclose(_sweep(m, batches)[0], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("make,zero_row,layer", [
    (lambda: DiagGaussianModel(np.array([0.5, -1.0, 2.0]), np.array([0.1, -0.3, 0.4])),
     [0.5, -1.0, 2.0], "mu"),  # x = mu: the mu factor z / sigma is exactly 0
    (lambda: jittered_flow(2, 32), [0.7, 0.0], "block0.w_in"),  # block 0's input is 0
], ids=["gaussian", "flow_d2_h32"])
def test_single_row_features_of_zero_and_scaled_rows(make, zero_row, layer):
    """At B = 1 each layer's feature is ||a||^2 ||b||^2 of the row's factors:
    a zero factor gives exactly 0.0, which log_features raises to FLOOR, and
    rows scaled from 1e-3 to 1e3 match the squared grad_groups columns
    within 1e-12 relative."""
    m = make()
    scaled = 1.5 * Rng(8).normals(7 * m.dim).reshape(7, m.dim) * np.logspace(-3, 3, 7)[:, None]
    rows = np.concatenate([np.array([zero_row]), scaled])
    features = feature_sweep(m, rows, [1])[0]
    j = m.params.names.index(layer)
    assert features[0, j] == 0.0
    assert log_features(features)[0, j] == math.log(FLOOR)
    assert np.all(np.delete(features[0], j) > 0.0)
    grads = m.grad_groups(rows, 1)[0]
    want = np.stack([np.sum(np.square(v.reshape(len(rows), -1)), axis=1)
                     for v in m.params.views(grads)], axis=1)
    np.testing.assert_allclose(features, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("batch_size", [1, 5])
@pytest.mark.parametrize("make", [
    lambda: DiagGaussianModel(np.array([0.5, -1.0, 2.0]), np.array([0.1, -0.3, 0.4])),
    lambda: jittered_flow(2, 32),
    lambda: jittered_flow(16, 64),
], ids=["gaussian", "flow_d2_h32", "flow_d16_h64"])
def test_sweep_mean_loglik_is_bitwise_the_likelihood_pass(chunk_spy, make, batch_size):
    """feature_sweep's per-batch mean log-likelihood is the mean of
    log_likelihood_batch rows bit for bit, over the same rows: all of them
    in one chunk, each chunk's own when four chunks split them. Across the
    two splits it agrees to 1e-12 relative, because BLAS picks its product
    kernel by row count (the d = 16 flow's K = 64 products differ in their
    last bits between 40 and 150 rows). Its features repeat on a second sweep."""
    m = make()
    batches = 1.5 * Rng(9).normals(30 * batch_size * m.dim).reshape(30, batch_size, m.dim)

    def likelihood_means(groups):
        part = batches[groups]
        return m.log_likelihood_batch(part.reshape(-1, m.dim)).reshape(
            part.shape[:2]).mean(-1)

    want = likelihood_means(slice(None))
    per_chunk = np.concatenate([likelihood_means(slice(g, g + 8)) for g in range(0, 30, 8)])
    features, means = _sweep(m, batches)
    assert np.array_equal(means, want)
    assert np.array_equal(features, _sweep(m, batches)[0])
    sizes = chunk_spy(m, 8, batch_size)
    chunked = _sweep(m, batches)[1]
    assert sizes == [8, 8, 8, 6]
    assert np.array_equal(chunked, per_chunk)
    np.testing.assert_allclose(chunked, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("batch_size", [1, 2])
def test_feature_matrix_chunk_boundaries_match_one_chunk(chunk_spy, batch_size):
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=2, hidden=8)
    batches = Rng(6).normals(20 * batch_size).reshape(10, batch_size, 2)
    whole = _sweep(m, batches)[0]
    sizes = chunk_spy(m, 3, batch_size)
    chunked = _sweep(m, batches)[0]
    assert sizes == [3, 3, 3, 1]
    np.testing.assert_allclose(chunked, whole, rtol=1e-10, atol=0)


def test_sizes_share_lcm_aligned_chunks(chunk_spy):
    """Batch sizes 2 and 3 over 40 rows, capped at 7 groups of the smallest
    size a chunk: every chunk but the last holds a multiple of lcm(2, 3) = 6
    rows, so no batch straddles two chunks. Each size's features are within
    1e-12 relative of its own one-chunk sweep, remainder rows dropped, and
    the log-likelihood covers all 40 rows."""
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=2, hidden=8)
    rows = Rng(6).normals(80).reshape(40, 2)
    want = [feature_sweep(m, rows[:40 // size * size], [size])[0] for size in (2, 3)]
    loglik = m.log_likelihood_batch(rows)
    sizes = chunk_spy(m, 7)
    *features, chunked = feature_sweep(m, rows, [2, 3])
    assert sizes == [12, 12, 12, 4]
    for got, ref in zip(features, want):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(chunked, loglik, rtol=1e-12, atol=0)


def test_feature_matrix_memory_is_bounded_by_the_chunk():
    """10,000 single-row batches of the K = 6, H = 32 flow (P = 780): the
    (rows, P) gradient matrix alone would be 62 MB; chunked rows keep the
    peak under 24 MB."""
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=6, hidden=32)
    batches = Rng(7).normals(20_000).reshape(10_000, 1, 2)
    tracemalloc.start()
    _sweep(m, batches)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 24e6


def test_feature_matrix_memory_holds_at_large_batches():
    """2,000 batches of 25 rows of the K = 6, H = 32 flow: a chunk of 1,344
    groups spans 33,600 rows, whose six hidden activations would take 52 MB
    if the forward cached them all; the backward remakes them one block at
    a time instead, and the peak stays under 56 MB (51.5 MB measured)."""
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=6, hidden=32)
    batches = Rng(7).normals(100_000).reshape(2_000, 25, 2)
    tracemalloc.start()
    _sweep(m, batches)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 56e6
