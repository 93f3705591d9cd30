import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fimscore.errors import DegenerateDataError, DomainError, SingularMatrixError
from fimscore.models import CouplingFlowModel, DiagGaussianModel, score
from fimscore.numcore import Rng, finite_diff_grad
from fimscore.representation import (
    AffineTransform,
    DiagonalAffine,
    ElementwiseMonotone,
    RgbHsvPixelwise,
    check_gradient_invariance,
    dequantize,
    hsv_to_rgb,
    identity_transform,
    random_affine,
    rgb_hsv_jacobian,
    rgb_hsv_logdet,
    rgb_to_hsv,
    scale_shift_transform,
    tv,
    tv_log_volume,
    tv_volume_mc,
)


def random_pixels(rng, n):
    """Strictly non-gray pixels: base noise plus a guaranteed channel gap."""
    p = 0.2 + 0.6 * rng.uniforms(3 * n).reshape(n, 3)
    p[:, 0] += 0.05  # break exact ties so max > min everywhere
    return np.clip(p, 0.01, 0.99)


def test_affine_logdet_constant():
    t = AffineTransform(2.0 * np.eye(3), np.ones(3))
    assert abs(t.logdet(np.zeros(3)) - 3 * math.log(2.0)) < 1e-14
    x = np.array([0.5, -1.0, 2.0])
    out, ld = t.forward(x), t.logdet(x)
    assert np.allclose(out, 2.0 * x + 1.0)
    assert ld == t.logdet(np.zeros(3))
    # a permutation has determinant -1: the log-det is of its absolute value
    swap = AffineTransform(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
    assert abs(swap.logdet(np.zeros(2))) < 1e-14


def test_affine_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        AffineTransform(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))
    for a, b in ((np.array([[1.0, 0.0], [0.0, math.nan]]), np.zeros(2)),
                 (np.eye(2), np.array([math.inf, 0.0]))):
        with pytest.raises(DomainError, match="finite"):
            AffineTransform(a, b)


def test_identity_transform_is_noop():
    t = identity_transform(4)
    x = Rng(1).normals(4)
    assert np.array_equal(t.forward(x), x)
    assert t.logdet(x) == 0.0


def test_scale_shift_uses_diagonal_form():
    t = scale_shift_transform(3072, scale=2.0, shift=1.0)
    assert isinstance(t, DiagonalAffine)
    x = Rng(2).normals(3072)
    assert abs(t.logdet(x) - 3072 * math.log(2.0)) < 1e-9
    assert np.max(np.abs(t.inverse(t.forward(x)) - x)) < 1e-12
    for bad in ({"scale": 0.0}, {"scale": math.nan}, {"scale": math.inf},
                {"shift": -math.inf}):
        with pytest.raises(DomainError):
            scale_shift_transform(3, **bad)


def test_diagonal_affine_negative_scale():
    t = DiagonalAffine(np.array([-2.0, 0.5]), np.zeros(2))
    assert abs(t.logdet(np.zeros(2)) - (math.log(2.0) + math.log(0.5))) < 1e-14


def test_roundtrips_all_transforms():
    rng = Rng(3)
    x = rng.normals(6)
    transforms = [
        identity_transform(6),
        scale_shift_transform(6, 3.0, -2.0),
        random_affine(6, Rng(7)),
        ElementwiseMonotone("tanh_warp", 0.5),
        ElementwiseMonotone("exp"),
    ]
    for t in transforms:
        back = t.inverse(t.forward(x))
        assert np.max(np.abs(back - x)) < 1e-9


ROWS = Rng(20).normals(30).reshape(5, 6)


@pytest.mark.parametrize("transform,x", [
    (identity_transform(6), ROWS),
    (scale_shift_transform(6, 1.7, -0.4), ROWS),
    (random_affine(6, Rng(7)), ROWS),
    (ElementwiseMonotone("exp"), ROWS),
    (ElementwiseMonotone("tanh_warp", 0.5), ROWS),
    (RgbHsvPixelwise(), random_pixels(Rng(21), 10).reshape(5, 6)),
], ids=["identity", "scale_shift", "random_affine", "exp", "tanh_warp", "rgb_hsv"])
def test_transforms_map_rows_like_single_points(transform, x):
    t = transform.forward(x)
    back = transform.inverse(t)
    ld = transform.logdet(x)
    assert t.shape == back.shape == x.shape
    assert ld.shape == (5,)
    for i in range(5):
        assert np.max(np.abs(t[i] - transform.forward(x[i]))) <= 1e-12
        assert np.max(np.abs(back[i] - transform.inverse(t[i]))) <= 1e-12
        assert abs(ld[i] - transform.logdet(x[i])) <= 1e-12


def test_elementwise_monotone_logdet():
    t = ElementwiseMonotone("exp")
    x = np.array([0.0, 1.0, -1.0])
    assert abs(t.logdet(x) - x.sum()) < 1e-14
    with pytest.raises(DomainError):
        t.inverse(np.array([-1.0]))
    with pytest.raises(DomainError):
        ElementwiseMonotone("cube")
    with pytest.raises(DomainError):
        ElementwiseMonotone("tanh_warp", a=2.0)


def test_monotone_logdet_matches_finite_differences():
    t = ElementwiseMonotone("tanh_warp", 0.7)
    x = np.array([0.3, -1.2, 2.0])
    # diagonal map: log-det is the sum of ln of coordinatewise slopes
    slopes = [
        finite_diff_grad(lambda v, i=i: float(t.forward(v)[i]), x, h=1e-6)[i]
        for i in range(3)
    ]
    assert abs(t.logdet(x) - float(np.sum(np.log(slopes)))) < 1e-8


def test_hsv_roundtrip():
    pix = random_pixels(Rng(4), 500)
    back = hsv_to_rgb(rgb_to_hsv(pix))
    assert np.max(np.abs(back - pix)) < 1e-12


def test_hsv_ranges():
    hsv = rgb_to_hsv(random_pixels(Rng(5), 300))
    assert hsv.min() >= 0.0
    assert np.all(hsv[:, 0] < 1.0)
    assert np.all(hsv[:, 1] <= 1.0) and np.all(hsv[:, 2] <= 1.0)


def test_hsv_jacobian_matches_finite_differences():
    pix = random_pixels(Rng(6), 1000)
    for p in pix[:40]:
        jac = rgb_hsv_jacobian(p)
        for out_idx in range(3):
            fd = finite_diff_grad(
                lambda q, k=out_idx: float(rgb_to_hsv(q[None, :])[0, k]),
                p, h=1e-7)
            assert np.max(np.abs(jac[out_idx] - fd)) < 1e-4


def test_hsv_logdet_matches_jacobian_determinants():
    pix = random_pixels(Rng(7), 50)
    want = sum(math.log(abs(np.linalg.det(rgb_hsv_jacobian(p)))) for p in pix)
    assert abs(rgb_hsv_logdet(pix) - want) < 1e-9


def test_hsv_rejects_gray_pixels():
    with pytest.raises(DegenerateDataError):
        rgb_to_hsv(np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(DegenerateDataError):
        rgb_hsv_jacobian(np.array([0.0, 0.0, 0.0]))


def test_dequantize_unsticks_gray_pixels():
    gray = np.full((10, 3), 0.5)
    jittered = dequantize(gray, Rng(8))
    hsv = rgb_to_hsv(jittered)  # no longer singular
    assert hsv.shape == (10, 3)
    assert np.max(np.abs(jittered - gray)) < 0.02  # 1/255-scale noise


def test_dequantize_moments():
    x = np.zeros((2000, 3))
    out = dequantize(x, Rng(9))
    assert abs(out.mean()) < 1e-3
    assert abs(out.std() * 255.0 - 1.0) < 0.05


def test_pixelwise_transform_flat_vectors():
    t = RgbHsvPixelwise()
    flat = random_pixels(Rng(10), 9).reshape(-1)
    out = t.forward(flat)
    assert out.shape == (27,)
    assert np.max(np.abs(t.inverse(out) - flat)) < 1e-12
    with pytest.raises(DomainError):
        t.forward(np.zeros(7))


def test_pixelwise_logdet_factorizes():
    """The flat-map log-det equals the slogdet of the full 27x27 block
    Jacobian assembled from per-pixel 3x3 blocks."""
    pix = random_pixels(Rng(11), 9)
    t = RgbHsvPixelwise()
    full = np.zeros((27, 27))
    for i, p in enumerate(pix):
        full[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = rgb_hsv_jacobian(p)
    _, want = np.linalg.slogdet(full)
    got = t.logdet(pix.reshape(-1))
    assert abs(got - want) < 1e-10


def test_gradient_invariance_report():
    m = DiagGaussianModel(np.array([0.2, -0.1]), np.array([0.1, 0.3]))
    pts = m.sample(Rng(12), 10)
    rep = check_gradient_invariance(m, random_affine(2, Rng(13)), pts)
    assert rep["n_points"] == 10
    assert rep["max_grad_discrepancy"] <= 1e-10
    assert rep["max_loglik_residual"] <= 1e-9
    assert len(rep["per_point"]) == 10


def test_gradient_invariance_rgb_hsv():
    """Flat RGB rows of two non-gray pixels each, D = 6."""
    m = DiagGaussianModel(np.full(6, 0.5), np.full(6, math.log(0.5)))
    pts = random_pixels(Rng(22), 40).reshape(20, 6)
    rep = check_gradient_invariance(m, RgbHsvPixelwise(), pts)
    assert rep["n_points"] == 20
    assert rep["max_grad_discrepancy"] <= 1e-10
    assert rep["max_loglik_residual"] <= 1e-9
    got = [(r["grad_discrepancy"], r["loglik_residual"], r["logdet"])
           for r in rep["per_point"]]
    want = _pointwise_invariance(m, RgbHsvPixelwise(), pts)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12


def _pointwise_invariance(model, transform, pts):
    """(grad discrepancy, loglik residual, logdet) per point, one point
    and four model calls at a time."""
    rows = []
    for x in pts:
        t, ld = transform.forward(x), transform.logdet(x)
        x_back = transform.inverse(t)
        gd = np.max(np.abs(score(model, x).flat() - score(model, x_back).flat()))
        ll_t = model.log_likelihood_batch(x_back)[0] - transform.logdet(x_back)
        lr = abs((model.log_likelihood_batch(x)[0] - ll_t) - ld)
        rows.append((gd, lr, ld))
    return rows


@pytest.mark.parametrize("transform", [random_affine(2, Rng(14)),
                                       ElementwiseMonotone("exp")],
                         ids=["affine", "exp"])
def test_invariance_batched_matches_pointwise(transform, monkeypatch):
    models = [DiagGaussianModel(np.array([0.2, -0.1]), np.array([0.1, 0.3])),
              CouplingFlowModel.init_random(2, Rng(15), n_blocks=3, hidden=8)]
    for i, model in enumerate(models):
        pts = model.sample(Rng(16 + i), 50)
        rep = check_gradient_invariance(model, transform, pts)
        want = _pointwise_invariance(model, transform, pts)
        got = [(r["grad_discrepancy"], r["loglik_residual"], r["logdet"])
               for r in rep["per_point"]]
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12
        calls = []
        monkeypatch.setattr(model, "grad_groups", lambda x, g, orig=model.grad_groups:
                            calls.append(len(x)) or orig(x, g))
        for n in (5, 50):
            calls.clear()
            check_gradient_invariance(model, transform, pts[:n])
            assert calls == [n, n]


def test_tv_by_hand():
    assert tv(np.array([1.0, 3.0, 2.0])) == 4.0
    assert tv(np.array([0.0])) == 0.0
    assert tv(np.array([-2.0])) == 2.0
    with pytest.raises(DomainError):
        tv(np.zeros((2, 2)))


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                max_size=30))
@settings(max_examples=50, deadline=None)
def test_tv_triangle_bounds(vals):
    x = np.array(vals)
    # TV dominates the sup norm: every coordinate is reached from 0
    # through the increments that TV sums
    assert tv(x) >= np.max(np.abs(x)) - 1e-9
    assert tv(2.0 * x) == pytest.approx(2.0 * tv(x), rel=1e-12)


def test_tv_log_volume_small_cases():
    # d = 1: the set is |x| <= alpha, length 2 alpha
    assert abs(tv_log_volume(1.0, 1) - math.log(2.0)) < 1e-14
    # d = 2: cross-polytope volume (2 alpha)^2 / 2
    assert abs(tv_log_volume(0.5, 2) - math.log(0.5)) < 1e-14
    with pytest.raises(DomainError):
        tv_log_volume(0.0, 3)
    with pytest.raises(DomainError):
        tv_log_volume(1.0, 0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(DomainError):
            tv_log_volume(alpha, 3)
    # 2 alpha overflows here, ln 2 + ln alpha does not
    assert tv_log_volume(1e308, 3) == pytest.approx(
        3 * (math.log(2.0) + 308 * math.log(10.0)) - math.log(6.0), rel=1e-15)


def test_tv_log_volume_reference_value():
    got = tv_log_volume(102.9, 784) / math.log(10.0)
    assert abs(got - (-116.76204304591401)) < 1e-9


def test_tv_volume_mc_agrees_with_closed_form():
    for d in (2, 3, 4):
        vol, se = tv_volume_mc(1.3, d, Rng(14), n=200_000)
        want = math.exp(tv_log_volume(1.3, d))
        assert abs(vol - want) < 3.0 * se
    with pytest.raises(DomainError):
        tv_volume_mc(1.0, 9, Rng(0))
    with pytest.raises(DomainError, match="not finite"):
        tv_volume_mc(1e308, 3, Rng(0), n=100)  # (2 alpha)^d overflows
