import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fimscore.errors import (DegenerateDataError, DomainError, NonFiniteError,
                             SingularMatrixError)
from fimscore.models import CouplingFlowModel, DiagGaussianModel, score
from fimscore.numcore import Rng
from fimscore.representation import (
    AffineTransform,
    ElementwiseMonotone,
    RgbHsvPixelwise,
    check_gradient_invariance,
    dequantize,
    identity_transform,
    random_affine,
    rgb_hsv_jacobian,
    scale_shift_transform,
    tv,
    tv_log_volume,
    tv_volume_mc,
)

from finite_diff import finite_diff_grad


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
    """The scale-shift map is the affine map of a diagonal matrix: 2x + 1
    forward and (t - 1) / 2 back, bit for bit."""
    t = scale_shift_transform(5, scale=2.0, shift=1.0)
    assert isinstance(t, AffineTransform)
    assert np.array_equal(t.a, np.diag(np.full(5, 2.0)))
    x = Rng(2).normals(200).reshape(40, 5)
    assert np.array_equal(t.forward(x), 2.0 * x + 1.0)
    assert np.array_equal(t.inverse(x), (x - 1.0) / 2.0)
    assert np.array_equal(t.forward(x[3]), 2.0 * x[3] + 1.0)
    assert abs(t.logdet(x[0]) - 5 * math.log(2.0)) < 1e-14


@pytest.mark.parametrize("bad", [
    {"scale": 0.0}, {"scale": -0.0}, {"scale": math.nan}, {"scale": math.inf},
    {"scale": -math.inf}, {"shift": math.nan}, {"shift": math.inf},
    {"shift": -math.inf},
])
def test_scale_shift_rejects_zero_and_non_finite(bad):
    with pytest.raises(DomainError):
        scale_shift_transform(3, **bad)


def test_diagonal_affine_negative_scale():
    """log |det| of a diagonal map with a negative scale, and its inverse."""
    t = AffineTransform(np.diag([-2.0, 0.5]), np.zeros(2))
    assert abs(t.logdet(np.zeros(2)) - (math.log(2.0) + math.log(0.5))) < 1e-14
    x = np.array([1.5, -3.0])
    assert np.array_equal(t.forward(x), [-3.0, -1.5])
    assert np.array_equal(t.inverse(t.forward(x)), x)


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


# sha256 of forward(pixels) and of logdet(pixels) on random_pixels(Rng(s), 1000),
# recorded from the earlier (n, 3) pixel functions with numpy 2.4.6, so any
# change to the forward map or the log-det bits shows here
HSV_DIGESTS = {
    0: ("a903d234a0230ac5b7aabec672f35d0c6cc688db2ebd8bbe359c53e73a44d248",
        "4e481efddf4aa0680b5c8fdb07323c4299ae710adb7cdc72560fc85731c2ea5e"),
    1: ("724140e1edc19c199817cb45fe747dd693a77c2d9d5d158eca67b5faa8c2a59f",
        "20af1df92153439a4cd7e17a4eb984cb0931c1d9de9c1eb1c1b42433e192b2d0"),
    2: ("02b496b6f239268b73d400227508a5ba0dd2a1b9de2cc9ec8491000dc573ffe2",
        "34b3d80c13a6840f64c90657ad5a0d856492786a195f679a837a740b04a93c03"),
    3: ("113679fe8e6c779bb7025b6be21646ea49d7701e3fca123ad3d35bce8e83f055",
        "30b7807ae0a18bdc51d5ac9ae9c5ff472ad3f737af7c3aefac9f4836a9606fb4"),
    4: ("1c828ee346b043ab4a917682a8c31b91785888a92a29ac98de7d179e2ae4cfc6",
        "9f5dd85c55a1373af86e77a369a8381b00610f3d3c9e6df9d9235b97b207bd1c"),
}


@pytest.mark.parametrize("seed", sorted(HSV_DIGESTS))
def test_hsv_forward_and_logdet_pinned(seed):
    pix = random_pixels(Rng(seed), 1000)
    t = RgbHsvPixelwise()
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                for a in (t.forward(pix), t.logdet(pix)))
    assert got == HSV_DIGESTS[seed]


def test_hsv_roundtrip():
    t = RgbHsvPixelwise()
    for seed in range(5):
        pix = random_pixels(Rng(seed), 100_000)
        assert np.max(np.abs(t.inverse(t.forward(pix)) - pix)) <= 2e-15


def test_hsv_inverse_at_sextant_boundaries():
    """At H = j/6 the RGB is the j-th corner of the hue hexagon, with
    m = V (1 - S) for the low channels."""
    t = RgbHsvPixelwise()
    for s, v in ((0.3, 0.9), (0.75, 0.5), (1.0, 0.2), (0.123456789, 0.987654321)):
        m = v * (1.0 - s)
        corners = [(v, m, m), (v, v, m), (m, v, m), (m, v, v), (m, m, v), (v, m, v)]
        for j, corner in enumerate(corners):
            got = t.inverse(np.array([j / 6.0, s, v]))
            assert np.max(np.abs(got - corner)) <= 1e-15


def test_hsv_hue_is_periodic():
    """H and H + 1 give the same RGB: exactly where H + 1 is exact, and to
    rounding of H + 1 elsewhere."""
    t = RgbHsvPixelwise()
    dyadic = np.stack([np.arange(64) / 64.0, np.full(64, 0.7), np.full(64, 0.9)], axis=1)
    hsv = t.forward(random_pixels(Rng(9), 1000))
    for base, tol in ((dyadic, 0.0), (hsv, 2e-15)):
        shifted = base + np.array([1.0, 0.0, 0.0])
        assert np.max(np.abs(t.inverse(shifted) - t.inverse(base))) <= tol


def test_hsv_ranges():
    hsv = RgbHsvPixelwise().forward(random_pixels(Rng(5), 300))
    assert hsv.min() >= 0.0
    assert np.all(hsv[:, 0] < 1.0)
    assert np.all(hsv[:, 1] <= 1.0) and np.all(hsv[:, 2] <= 1.0)


def test_hsv_jacobian_matches_finite_differences():
    pix = random_pixels(Rng(6), 1000)
    for p in pix[:40]:
        jac = rgb_hsv_jacobian(p)
        for out_idx in range(3):
            fd = finite_diff_grad(
                lambda q, k=out_idx: float(RgbHsvPixelwise().forward(q)[k]),
                p, h=1e-7)
            assert np.max(np.abs(jac[out_idx] - fd)) < 1e-4


def test_hsv_logdet_matches_jacobian_determinants():
    pix = random_pixels(Rng(7), 50)
    want = sum(math.log(abs(np.linalg.det(rgb_hsv_jacobian(p)))) for p in pix)
    assert abs(RgbHsvPixelwise().logdet(pix.reshape(-1)) - want) < 1e-9


def test_hsv_rejects_gray_pixels():
    gray = np.array([0.2, 0.6, 0.9, 0.5, 0.5, 0.5])
    with pytest.raises(DegenerateDataError):
        RgbHsvPixelwise().forward(gray)
    with pytest.raises(DegenerateDataError):
        RgbHsvPixelwise().logdet(gray)
    with pytest.raises(DegenerateDataError):
        rgb_hsv_jacobian(np.array([0.0, 0.0, 0.0]))


def test_dequantize_unsticks_gray_pixels():
    gray = np.full((10, 3), 0.5)
    jittered = dequantize(gray, Rng(8))
    hsv = RgbHsvPixelwise().forward(jittered)  # no longer singular
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


def test_gradient_invariance_names_a_point_the_transform_overflows():
    """exp overflows at 800: a NonFiniteError names the point, and no
    RuntimeWarning escapes."""
    m = DiagGaussianModel(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    pts = np.array([[0.5, 1.0], [800.0, 0.0]])
    with pytest.raises(NonFiniteError, match="^the transform maps point 1 to a "
                                             "non-finite value$"):
        check_gradient_invariance(m, ElementwiseMonotone("exp"), pts)


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
    for empty in (np.float64(1.0), np.zeros(0), np.zeros((2, 0))):
        with pytest.raises(DomainError):
            tv(empty)


def test_tv_over_rows_matches_a_loop_over_rows():
    x = Rng(8).normals(7 * 5 * 4).reshape(7, 5, 4)
    rows = tv(x)
    assert rows.shape == (7, 5)
    for i in range(7):
        assert np.array_equal(rows[i], [tv(r) for r in x[i]])


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


def test_tv_log_volume_half_alpha_is_minus_log_factorial():
    """At alpha = 1/2 the cube factor is 1, so the log-volume is -ln d!."""
    assert tv_log_volume(0.5, 1) == 0.0
    assert abs(tv_log_volume(0.5, 2) + math.log(2.0)) < 1e-15
    # ln 10! computed exactly from the integer factorial
    assert abs(tv_log_volume(0.5, 10) + 15.104412573075515) < 1e-12


@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(1, 10_000))
@settings(max_examples=100, deadline=None)
def test_tv_log_volume_dimension_recurrence(alpha, d):
    """V_{d+1} / V_d = 2 alpha / (d + 1)."""
    step = tv_log_volume(alpha, d + 1) - tv_log_volume(alpha, d)
    scale = abs(tv_log_volume(alpha, d)) + d * abs(math.log(2.0 * alpha)) + 1.0
    assert abs(step - (math.log(2.0 * alpha) - math.log(d + 1.0))) <= 4e-15 * scale


def test_tv_log_volume_against_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for alpha in (0.5, 1.3, 102.9, 1e6):
        for d in (1, 2, 3, 20, 784, 10_000, 1_000_000):
            want = float(d * mp.log(2 * mp.mpf(alpha)) - mp.loggamma(d + 1))
            assert abs(tv_log_volume(alpha, d) - want) <= 1e-12 * max(1.0, abs(want))


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
    for alpha in (-1.0, 0.0, math.inf, math.nan, True):
        for volume in (tv_log_volume, lambda a, d: tv_volume_mc(a, d, Rng(0), n=100)):
            with pytest.raises(DomainError,
                               match=f"^alpha must be positive and finite, got {alpha}$"):
                volume(alpha, 3)


def test_tv_volume_mc_pinned_values():
    """Criterion 09's draws give these estimates to the last bit."""
    want = {1: (2.6, 1.3000000000000001e-05),
            2: (3.3879092, 0.007557889071875612),
            3: (2.94758308, 0.014683064087678993)}
    for d, pinned in want.items():
        assert tv_volume_mc(1.3, d, Rng(60 + d)) == pinned


def test_tv_volume_mc_error_covers_a_run_without_hits():
    """At d = 8 these 50,000 draws hit nothing; the variance floor of one
    hit in n keeps the exact volume within 3 standard errors."""
    vol, se = tv_volume_mc(1.3, 8, Rng(4), n=50_000)
    want = math.exp(tv_log_volume(1.3, 8))
    assert vol == 0.0
    assert abs(vol - want) <= 3.0 * se
