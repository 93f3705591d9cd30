import json
import math

import numpy as np
import pytest

from fimscore.errors import DatasetFormatError, DomainError, NonFiniteError
from fimscore.models import (
    CouplingFlowModel,
    DiagGaussianModel,
    LayeredParams,
    load_model,
    model_checksum,
    sample,
    save_model,
    score,
)
from fimscore.numcore import Rng, finite_diff_grad, std_normal_cdf

# -ln(sqrt(2 pi)), checked against mpmath at 40 digits
STD_NORMAL_LL_AT_0 = -0.9189385332046727


def zero_flow(dim=2, n_blocks=3, hidden=4):
    """All-zero parameters make every coupling block the identity map."""
    items = []
    half = dim // 2
    for k in range(n_blocks):
        items.append((f"block{k}.w_in", np.zeros((hidden, half))))
        items.append((f"block{k}.b_in", np.zeros(hidden)))
        items.append((f"block{k}.w_out", np.zeros((dim, hidden))))
        items.append((f"block{k}.b_out", np.zeros(dim)))
    return CouplingFlowModel(dim, LayeredParams(items), n_blocks, hidden)


def warped_flow(seed=3, dim=2, n_blocks=2, hidden=8, jitter=0.3):
    """Small flow pushed away from the near-identity init."""
    rng = Rng(seed)
    m = CouplingFlowModel.init_random(dim, rng, n_blocks=n_blocks, hidden=hidden)
    flat = m.params.flat() + jitter * rng.normals(m.params.n_params)
    return m.with_params(m.params.from_flat(flat))


def mean_score(m, rng, n):
    """Monte Carlo mean of the flat score over n draws from the model."""
    draws = sample(m, rng, n)
    return np.concatenate(
        [g.mean(axis=0).reshape(-1) for _, g in m.score_batch(draws)])


def test_standard_gaussian_loglik_at_origin():
    m = DiagGaussianModel.standard(1)
    assert abs(m.log_likelihood_batch(np.array([0.0]))[0] - STD_NORMAL_LL_AT_0) < 1e-14
    m2 = DiagGaussianModel.standard(2)
    assert abs(m2.log_likelihood_batch(np.zeros(2))[0] - 2 * STD_NORMAL_LL_AT_0) < 1e-14


def test_gaussian_loglik_closed_form():
    m = DiagGaussianModel(np.array([1.0, -2.0]), np.log([0.5, 2.0]))
    x = np.array([1.5, 0.0])
    z = (x - np.array([1.0, -2.0])) / np.array([0.5, 2.0])
    want = float(np.sum(-np.log([0.5, 2.0]) - 0.5 * np.log(2 * np.pi) - 0.5 * z * z))
    assert abs(m.log_likelihood_batch(x)[0] - want) < 1e-14


def test_gaussian_score_closed_form():
    m = DiagGaussianModel(np.array([2.0]), np.array([0.0]))
    g = score(m, np.array([2.0]))
    assert g["mu"][0] == 0.0
    assert g["log_sigma"][0] == -1.0
    g2 = score(m, np.array([3.0]))
    assert abs(g2["mu"][0] - 1.0) < 1e-14  # z / sigma = 1
    assert abs(g2["log_sigma"][0] - 0.0) < 1e-14  # z^2 - 1


def test_zero_flow_is_standard_normal():
    m = zero_flow()
    pts = Rng(4).normals(20).reshape(10, 2)
    base = DiagGaussianModel.standard(2)
    got = m.log_likelihood_batch(pts)
    want = base.log_likelihood_batch(pts)
    assert np.max(np.abs(got - want)) < 1e-14


def test_zero_flow_sampling_is_identity_on_base_noise():
    m = zero_flow()
    got = sample(m, Rng(8), 50)
    want = Rng(8).normals(100).reshape(50, 2)
    assert np.array_equal(got, want)


def test_flow_density_integrates_to_one():
    """Trapezoid quadrature of exp(loglik) over a wide grid, within 1%."""
    m = warped_flow()
    draws = sample(m, Rng(10), 2000)
    lo = draws.min(axis=0) - 4.0
    hi = draws.max(axis=0) + 4.0
    nx = 400
    xs = np.linspace(lo[0], hi[0], nx)
    ys = np.linspace(lo[1], hi[1], nx)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    dens = np.exp(m.log_likelihood_batch(grid)).reshape(nx, nx)
    trap = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    total = trap(trap(dens, ys, axis=1), xs)
    assert abs(total - 1.0) < 0.01


def test_flow_invertibility():
    m = warped_flow(seed=6, n_blocks=4, hidden=16)
    x = sample(m, Rng(12), 100)
    z, logdet, _ = m._forward(x)
    # invert by re-running the sampling chain on z
    y = np.array(z)
    half = m.dim // 2
    for k in range(m.n_blocks - 1, -1, -1):
        w_in, b_in, w_out, b_out = m._block_params(k)
        tsl, csl = m._halves(k)
        h = np.tanh(y[:, csl] @ w_in.T + b_in)
        o = h @ w_out.T + b_out
        s = np.clip(o[:, :half], -m.clamp, m.clamp)
        y[:, tsl] = (y[:, tsl] - o[:, half:]) * np.exp(-s)
    assert np.max(np.abs(y - x)) < 1e-9


def test_flow_logdet_matches_independent_forward():
    """Re-derive z and logdet with a from-scratch loop and compare."""
    m = warped_flow(seed=9, n_blocks=3, hidden=8)
    x = sample(m, Rng(14), 30)
    z = np.array(x)
    logdet = np.zeros(len(x))
    half = m.dim // 2
    for k in range(m.n_blocks):
        w_in = m.params[f"block{k}.w_in"]
        b_in = m.params[f"block{k}.b_in"]
        w_out = m.params[f"block{k}.w_out"]
        b_out = m.params[f"block{k}.b_out"]
        if k % 2 == 0:
            act, cond = z[:, :half].copy(), z[:, half:].copy()
        else:
            act, cond = z[:, half:].copy(), z[:, :half].copy()
        h = np.tanh(cond @ w_in.T + b_in)
        o = h @ w_out.T + b_out
        s = np.clip(o[:, :half], -m.clamp, m.clamp)
        out = act * np.exp(s) + o[:, half:]
        if k % 2 == 0:
            z = np.column_stack([out, cond])
        else:
            z = np.column_stack([cond, out])
        logdet += s.sum(axis=1)
    want = (-0.5 * m.dim * np.log(2 * np.pi) - 0.5 * np.sum(z * z, axis=1)
            + logdet)
    got = m.log_likelihood_batch(x)
    assert np.max(np.abs(got - want)) < 1e-10


def test_gaussian_sampling_moments():
    m = DiagGaussianModel(np.array([1.0, -2.0]), np.log([0.5, 2.0]))
    draws = sample(m, Rng(21), 100_000)
    assert np.max(np.abs(draws.mean(axis=0) - [1.0, -2.0])) < 0.03
    var = draws.var(axis=0)
    assert np.max(np.abs(var / [0.25, 4.0] - 1.0)) < 0.05


def test_zero_flow_sampling_distribution():
    draws = sample(zero_flow(), Rng(22), 10_000)[:, 0]
    draws.sort()
    ecdf = np.arange(1, len(draws) + 1) / len(draws)
    ks = np.max(np.abs(ecdf - std_normal_cdf(draws)))
    assert ks < 0.02


def test_expected_score_single_draw_reduces_to_score():
    m = warped_flow(seed=5)
    got = mean_score(m, Rng(30), 1)
    x = sample(m, Rng(30), 1)
    want = score(m, x[0])
    assert np.max(np.abs(got - want.flat())) < 1e-14


def test_expected_score_near_zero_gaussian():
    m = DiagGaussianModel(np.array([1.0, -1.0]), np.array([0.2, -0.3]))
    est = mean_score(m, Rng(31), 100_000)
    assert np.max(np.abs(est)) < 0.02


def test_expected_score_near_zero_flow():
    m = warped_flow(seed=7)
    est = mean_score(m, Rng(32), 20_000)
    # crude per-coordinate scale from a second, independent batch
    draws = sample(m, Rng(33), 20_000)
    per = np.concatenate(
        [g.reshape(len(draws), -1) for _, g in m.score_batch(draws)], axis=1)
    se = per.std(axis=0).mean() / math.sqrt(20_000)
    assert np.max(np.abs(est)) < 10 * max(se, 1e-3)


def test_score_matches_finite_differences():
    for m in (DiagGaussianModel(np.array([0.5, -0.5]), np.array([0.1, -0.2])),
              warped_flow(seed=11, n_blocks=2, hidden=4)):
        x = sample(m, Rng(40), 3)
        flat0 = m.params.flat()

        def obj(flat, m=m, x=x):
            return float(m.with_params(m.params.from_flat(flat))
                         .log_likelihood_batch(x).sum())

        fd = finite_diff_grad(obj, flat0, h=1e-6)
        got = m.grad_sum_batch(x).flat()
        denom = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(got - fd) / denom) < 1e-5


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    for m in (DiagGaussianModel(np.array([0.25]), np.array([-0.5])),
              warped_flow(seed=13)):
        path = str(tmp_path / "model.json")
        save_model(m, path)
        back = load_model(path)
        assert model_checksum(back) == model_checksum(m)
        x = sample(m, Rng(44), 5)
        assert np.array_equal(back.log_likelihood_batch(x),
                              m.log_likelihood_batch(x))


def test_checkpoint_hyper_keys(tmp_path):
    m = CouplingFlowModel.init_random(2, Rng(1), n_blocks=2, hidden=5, clamp=3.0)
    path = str(tmp_path / "m.json")
    save_model(m, path)
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["type"] == "coupling_flow"
    assert obj["dims"] == 2
    assert obj["hyper"] == {"K": 2, "H": 5, "c": 3.0}
    names = [e["name"] for e in obj["layers"]]
    assert names[:4] == ["block0.w_in", "block0.b_in", "block0.w_out",
                         "block0.b_out"]
    back = load_model(path)
    assert back.n_blocks == 2 and back.hidden == 5 and back.clamp == 3.0


def test_malformed_checkpoints(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(DatasetFormatError):
        load_model(path)
    for obj in (
        {"type": "diag_gaussian"},  # missing fields
        {"type": "nope", "dims": 1, "hyper": {}, "layers": []},
        {"type": "diag_gaussian", "dims": 1, "hyper": {},
         "layers": [{"name": "mu", "shape": [2], "values": [0.0]},
                    {"name": "log_sigma", "shape": [2], "values": [0.0, 0.0]}]},
    ):
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(DatasetFormatError):
            load_model(path)


def test_layered_params_invariants():
    p = LayeredParams([("a", np.ones((2, 2))), ("b", np.zeros(3))])
    assert p.n_params == 7
    assert p.names == ["a", "b"]
    flat = p.flat()
    assert flat.shape == (7,)
    q = p.from_flat(np.arange(7.0))
    assert q["a"].shape == (2, 2) and q["b"].shape == (3,)
    assert np.array_equal(q.flat(), np.arange(7.0))
    with pytest.raises(DomainError):
        p.from_flat(np.zeros(6))
    with pytest.raises(DomainError):
        LayeredParams([("a", [1.0]), ("a", [2.0])])
    with pytest.raises(NonFiniteError):
        LayeredParams([("a", [float("inf")])])
    with pytest.raises(ValueError):
        p["a"][0, 0] = 5.0  # arrays are read-only


def test_flow_constructor_validation():
    with pytest.raises(DomainError):
        zero_flow(dim=3)
    with pytest.raises(DomainError):
        CouplingFlowModel(2, LayeredParams([("x", np.zeros(2))]), 1, 4)


def test_batch_shape_validation():
    m = DiagGaussianModel.standard(2)
    with pytest.raises(DomainError):
        m.log_likelihood_batch(np.zeros((3, 5)))
    with pytest.raises(DomainError):
        sample(m, Rng(0), 0)
