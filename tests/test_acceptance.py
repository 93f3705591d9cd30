"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins a stated tolerance and shows up as its own pass/fail
line under ``pytest -v``. The detection-benchmark criteria share one
trained flow (the golden reference run at the default seed); everything
else is self-contained.

Criterion 02 checks the exact-information Gaussian score test against
its chi-square reference with dof = 6 at D = 3. The mean clause uses
the per-draw statistic, whose mean is exactly dof. The variance clause
uses the batch statistic over n = 100 draws, whose variance is
12 + 60/n. The per-draw statistic has variance 72, so a single draw is
not chi-square; the reference holds only as n grows (derivation in the
variance test's docstring).
"""

import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from fimscore.data import generate
from fimscore.detector import fisher_method_score, fit_detector, ood_score
from fimscore.evaluation import PairingReport, auroc, render_grid, run_pairings
from fimscore.fim import (
    diag_dominance,
    exact_score_test_gaussian,
    mc_fim_slice,
    normalize_fim,
    prior_diag_from_samples,
    sherman_morrison_score,
)
from fimscore.gradfeatures import feature_sweep, log_features
from fimscore.models import CouplingFlowModel, DiagGaussianModel, score
from fimscore.numcore import Rng
from fimscore.representation import (
    ElementwiseMonotone,
    RgbHsvPixelwise,
    check_gradient_invariance,
    dequantize,
    identity_transform,
    random_affine,
    rgb_hsv_jacobian,
    scale_shift_transform,
    tv_log_volume,
    tv_volume_mc,
)
from fimscore.trainer import TrainConfig, train

from finite_diff import finite_diff_grad

LN10 = 2.302585092994046

OOD_TESTS = ("uniform_square", "rings", "gauss_grid")


@pytest.fixture(scope="module")
def golden():
    """Golden reference run: flow trained on two_moons, full pairing grid.

    Everything is pinned: dataset seeds 1-4, init stream Rng(0).child(0),
    the training config, and the evaluation seed. Build time is recorded
    so the benchmark criterion can assert its runtime budget.
    """
    t0 = time.monotonic()
    moons = generate("two_moons", 10_000, seed=1)
    datasets = {
        "two_moons": moons,
        "uniform_square": generate("uniform_square", 10_000, seed=2, side=4.0),
        "rings": generate("rings", 10_000, seed=3, radii=(2.0, 3.0)),
        "gauss_grid": generate("gauss_grid", 10_000, seed=4),
    }
    flow = CouplingFlowModel.init_random(2, Rng(0).child(0))
    cfg = TrainConfig(epochs=400, batch_size=128, learning_rate=3e-3, seed=0)
    rows = np.vstack([moons.rows("train"), moons.rows("fit")])
    result = train(flow, rows, cfg)
    entries = {"two_moons": (result.model, result.fit_rows)}
    evals = {name: ds.rows("eval") for name, ds in datasets.items()}
    reports = run_pairings(entries, evals, batch_sizes=[1, 5],
                           n_eval_batches=200, seed=0)
    seconds = time.monotonic() - t0
    return {
        "model": result.model,
        "fit_rows": result.fit_rows,
        "entries": entries,
        "evals": evals,
        "reports": reports,
        "seconds": seconds,
    }


def _cell(report: PairingReport, method: str, batch_size: int, test: str) -> float:
    hits = [r for r in report.rows
            if r["method"] == method and r["batch_size"] == batch_size
            and r["test"] == test]
    assert len(hits) == 1
    return float(hits[0]["auroc"])


def test_criterion_01_gradient_invariance():
    """Score unchanged by invertible re-coding; likelihood shifts by the
    log-det. 3 models x 5 transforms x 20 points, grad <= 1e-10 and
    |delta ll - logdet| <= 1e-9, under 10 s."""
    t0 = time.monotonic()
    models = [
        DiagGaussianModel([0.3, -0.6], np.log([0.8, 1.7])),
        CouplingFlowModel.init_random(2, Rng(11), n_blocks=2, hidden=8),
        CouplingFlowModel.init_random(2, Rng(12), n_blocks=4, hidden=16),
    ]
    transforms = [
        identity_transform(2),
        scale_shift_transform(2, scale=1.7, shift=-0.4),
        random_affine(2, Rng(5)),
        ElementwiseMonotone("exp"),
        ElementwiseMonotone("tanh_warp", a=0.5),
    ]
    for i, model in enumerate(models):
        points = model.sample(Rng(40 + i), 20)
        for transform in transforms:
            rep = check_gradient_invariance(model, transform, points)
            assert rep["n_points"] == 20
            assert rep["max_grad_discrepancy"] <= 1e-10
            assert rep["max_loglik_residual"] <= 1e-9
    assert time.monotonic() - t0 < 10.0


@pytest.fixture(scope="module")
def chi2_stats():
    """Exact score statistics of an analytic-MLE D=3 Gaussian on 1e4
    draws from the fitted model, plus the build wall time."""
    t0 = time.monotonic()
    rng = Rng(21)
    true = DiagGaussianModel([0.4, -1.0, 2.5], np.log([0.7, 1.0, 1.6]))
    sample = true.sample(rng, 4000)
    mle = DiagGaussianModel(sample.mean(axis=0), 0.5 * np.log(sample.var(axis=0)))
    draws = mle.sample(rng, 10_000)
    stats, dof = exact_score_test_gaussian(mle, draws)
    return stats, dof, time.monotonic() - t0


def test_criterion_02_chi_square_calibration_mean(chi2_stats):
    """Mean of the exact score statistic within 5% of dof = 6, under 5 s."""
    stats, dof, seconds = chi2_stats
    assert dof == 6
    assert stats.shape == (10_000,)
    mean = float(stats.mean())
    assert abs(mean - 6.0) <= 0.05 * 6.0, f"mean {mean:.3f} vs 6 +/- 0.3"
    assert seconds < 5.0


@pytest.fixture(scope="module")
def chi2_batch_stats():
    """Batch score statistics of the same analytic-MLE D=3 Gaussian on
    10,000 batches of n = 100 draws from the fitted model, plus the build
    wall time."""
    t0 = time.monotonic()
    rng = Rng(21)
    true = DiagGaussianModel([0.4, -1.0, 2.5], np.log([0.7, 1.0, 1.6]))
    sample = true.sample(rng, 4000)
    mle = DiagGaussianModel(sample.mean(axis=0), 0.5 * np.log(sample.var(axis=0)))
    draws = mle.sample(rng, 10_000 * 100).reshape(10_000, 100, 3)
    stats, dof = exact_score_test_gaussian(mle, draws)
    return stats, dof, time.monotonic() - t0


def test_criterion_02_chi_square_calibration_variance(chi2_batch_stats):
    """Variance of the batch score statistic within 15% of 2*dof = 12,
    under 5 s.

    The chi-square reference holds for Rao's score test as the sample
    grows, not for a single draw. Let u be the whitened score of one
    draw at the fitted parameters: per coordinate (z, (z^2 - 1)/sqrt 2)
    with z standard normal, so |u|^2 is a sum of D terms (z^4 + 1)/2,
    each with mean 2 and second moment 24 + 4 = 28. Hence
    E|u|^2 = k = dof = 6 and E|u|^4 = D * 28 + D (D - 1) * 4 = 108.
    The batch statistic
    S_n^T (n F)^{-1} S_n is |sum_i u_i|^2 / n, whose exact variance is
    2k + (E|u|^4 - k^2 - 2k) / n = 12 + 60/n: 72 for one draw (the
    per-draw statistic), 12.6 at n = 100. n = 100 puts the expected
    value well inside the band 10.2-13.8; n = 50 gives 13.2, too near
    its upper edge for 10,000 batches.
    """
    stats, dof, seconds = chi2_batch_stats
    assert dof == 6
    assert stats.shape == (10_000,)
    var = float(stats.var())
    assert abs(var - 2.0 * dof) <= 0.15 * 2.0 * dof, (
        f"variance {var:.2f} vs chi-square reference {2 * dof} +/- "
        f"{0.15 * 2 * dof:.1f}; expected 12 + 60/n = 12.6 at n = 100"
    )
    assert seconds < 5.0


def test_criterion_03_sherman_morrison_equivalence():
    """50 random instances (P <= 64, N <= 50) match a dense-inverse
    oracle to relative 1e-8; peak memory stays far below any P x P
    array on a large-P instance. Under 5 s."""
    t0 = time.monotonic()
    gen = np.random.default_rng(2024)
    for _ in range(50):
        p = int(gen.integers(1, 65))
        n = int(gen.integers(0, 51))
        a0 = 0.5 + gen.random(p)
        samples = gen.standard_normal((n, p))
        s_x = gen.standard_normal(p)
        got = sherman_morrison_score(samples, a0, s_x)
        dense = np.diag(a0) + samples.T @ samples
        want = float(s_x @ np.linalg.solve(dense, s_x))
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
        scaled = sherman_morrison_score(samples, a0, s_x,
                                        scale_convention="n_plus_1")
        assert abs(scaled - (n + 1) * got) <= 1e-10 * max(1.0, abs(scaled))

    p_big = 200_000
    big = np.random.default_rng(7).standard_normal((3, p_big))
    s_x = np.random.default_rng(8).standard_normal(p_big)
    a0 = prior_diag_from_samples(big, p_big)
    tracemalloc.start()
    sherman_morrison_score(big, a0, s_x)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 50 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
    assert time.monotonic() - t0 < 5.0


def test_criterion_04_mc_fim_gaussian():
    """Monte Carlo FIM slice of a diagonal Gaussian at N = 1e5: diagonal
    within 5% of the analytic diag(1/sigma^2, 2) entrywise; every
    computed slice symmetric and PSD. Under 30 s."""
    t0 = time.monotonic()
    sigma = np.array([0.5, 1.0, 1.5])
    model = DiagGaussianModel([0.3, -1.2, 0.7], np.log(sigma))
    slices = [
        mc_fim_slice(model, ["mu", "log_sigma"], Rng(7), 100_000),
        mc_fim_slice(model, ["mu"], Rng(9), 20_000),
    ]
    target = np.concatenate([1.0 / sigma**2, [2.0, 2.0, 2.0]])
    got = np.diag(slices[0].matrix)
    assert np.all(np.abs(got - target) <= 0.05 * target), (
        f"diag {got} vs {target}"
    )
    for sl in slices:
        f = sl.matrix
        assert np.max(np.abs(f - f.T)) <= 1e-12
        assert float(np.linalg.eigvalsh(f).min()) >= -1e-10
        c = normalize_fim(f)
        assert np.allclose(np.diag(c), 1.0, atol=1e-12)
    assert time.monotonic() - t0 < 30.0


def test_criterion_05_diagonal_dominance(golden):
    """Normalized FIM slice of the trained flow, seeded default layer
    pick, N = 1024: mean off-diagonal |C| below 0.5 (dominance ratio
    above 2). Probe under 2 min."""
    model = golden["model"]
    t0 = time.monotonic()
    root = Rng(0)
    names = model.params.names
    layers = [names[int(i)] for i in root.child(0).permutation(len(names))[:2]]
    assert len(set(layers)) == 2
    sl = mc_fim_slice(model, layers, root, 1024)
    diag_mean, offdiag_mean = diag_dominance(normalize_fim(sl.matrix))
    assert diag_mean == 1.0
    assert offdiag_mean < 0.5, f"mean off-diagonal {offdiag_mean:.4f}"
    assert time.monotonic() - t0 < 120.0


def test_criterion_06_detection_benchmark(golden):
    """Flow trained on two_moons vs uniform_square/rings/gauss_grid:
    our score at B=5 reaches AUROC >= 0.95 on each pairing, never loses
    to its own B=1, and matches or beats typicality on at least 2 of 3
    pairings. Whole run (training included) under 10 min."""
    report = golden["reports"][0]
    assert report.train == "two_moons"
    for name in OOD_TESTS:
        assert _cell(report, "ours", 5, name) >= 0.95, name
        assert _cell(report, "ours", 5, name) >= _cell(report, "ours", 1, name), name
    wins = sum(
        _cell(report, "ours", 5, name) >= _cell(report, "typicality", 5, name)
        for name in OOD_TESTS
    )
    assert wins >= 2, f"ours >= typicality on only {wins} of 3 pairings"
    assert golden["seconds"] < 600.0


def test_criterion_07_layer_rescale_invariance(golden):
    """Adding per-layer constants to fit and test log-features moves
    every OOD score by <= 1e-9 and leaves AUROC bit-identical. Constant
    offsets in log space are exactly per-layer rescalings of the raw
    squared norms, so both scores must shrug them off."""
    model = golden["model"]
    lf_fit = log_features(feature_sweep(model, golden["fit_rows"], [5])[0])
    lf_in = log_features(feature_sweep(model, golden["evals"]["two_moons"][:500], [5])[0])
    lf_out = log_features(
        feature_sweep(model, golden["evals"]["uniform_square"][:500], [5])[0]
    )
    shift = np.linspace(-3.0, 2.0, lf_fit.shape[1])
    det0 = fit_detector(lf_fit)
    det1 = fit_detector(lf_fit + shift)
    for score_fn in (ood_score, fisher_method_score):
        s0_in = np.asarray(score_fn(det0, lf_in))
        s0_out = np.asarray(score_fn(det0, lf_out))
        s1_in = np.asarray(score_fn(det1, lf_in + shift))
        s1_out = np.asarray(score_fn(det1, lf_out + shift))
        assert np.max(np.abs(s1_in - s0_in)) <= 1e-9
        assert np.max(np.abs(s1_out - s0_out)) <= 1e-9
        assert auroc(s0_in, s0_out) == auroc(s1_in, s1_out)


def test_criterion_08_auroc_oracle():
    """Rank-sum AUROC equals the O(n^2) pairwise count with half-credit
    ties, exactly, on 100 random tie-rich instances with n <= 500."""
    gen = np.random.default_rng(99)
    for _ in range(100):
        n_in = int(gen.integers(1, 501))
        n_out = int(gen.integers(1, 501))
        if gen.random() < 0.5:
            a = gen.integers(0, 8, n_in).astype(np.float64)
            b = gen.integers(0, 8, n_out).astype(np.float64)
        else:
            a = np.round(gen.standard_normal(n_in), 1)
            b = np.round(gen.standard_normal(n_out) + 0.5, 1)
        pairwise = float(
            np.mean((b[None, :] > a[:, None]) + 0.5 * (b[None, :] == a[:, None]))
        )
        assert auroc(a, b) == pairwise


def test_criterion_09_tv_volume():
    """log10 volume of the TV ball at (alpha=102.9, d=784) within 0.01
    of -116.76; Monte Carlo cross-check agrees within 3 standard errors
    for every d <= 3."""
    got = tv_log_volume(102.9, 784) / LN10
    assert abs(got - (-116.76204304591401)) <= 0.01
    for d in (1, 2, 3):
        analytic = float(np.exp(tv_log_volume(1.3, d)))
        estimate, se = tv_volume_mc(1.3, d, Rng(60 + d))
        assert abs(estimate - analytic) <= 3.0 * max(se, 1e-12), (
            f"d={d}: mc {estimate:.6f} vs analytic {analytic:.6f}, se {se:.2e}"
        )


def test_criterion_10_rgb_hsv_jacobian():
    """Analytic per-pixel log-det vs central finite differences within
    1e-4 on 1e4 random dequantized pixels; the image-level log-det
    factorizes into the per-pixel sum to 1e-10."""
    rng = Rng(0)
    levels = np.floor(rng.uniforms(30_000) * 256.0).clip(0, 255)
    pixels = dequantize(levels.reshape(10_000, 3) / 255.0, rng)

    # the map is piecewise smooth (argmax/argmin switches, hue wrap);
    # confirm every pixel sits far from a boundary relative to the step
    h = 1e-8
    s = np.sort(pixels, axis=1)
    assert float(np.min(s[:, 1:] - s[:, :-1])) > 100.0 * h
    assert float(s[:, 2].min()) > 0.0
    amax = pixels.argmax(axis=1)
    r, g, b = pixels[:, 0], pixels[:, 1], pixels[:, 2]
    num = np.where(amax == 0, g - b, np.where(amax == 1, b - r, r - g))
    assert float(np.min(np.abs(num))) > 100.0 * h

    hsv = RgbHsvPixelwise()
    jac_fd = np.empty((10_000, 3, 3))
    for c in range(3):
        step = np.zeros(3)
        step[c] = h
        jac_fd[:, :, c] = (hsv.forward(pixels + step) - hsv.forward(pixels - step)) / (2 * h)
    m = jac_fd
    det_fd = (
        m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
        - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
        + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
    )
    logdet_fd = np.log(np.abs(det_fd))
    logdet_an = np.array(
        [float(np.linalg.slogdet(rgb_hsv_jacobian(p))[1]) for p in pixels]
    )
    worst = float(np.max(np.abs(logdet_fd - logdet_an)))
    assert worst <= 1e-4, f"worst per-pixel log-det gap {worst:.2e}"

    total = float(hsv.logdet(pixels.reshape(-1)))
    assert abs(total - float(logdet_an.sum())) <= 1e-10 * max(1.0, abs(total))


def test_criterion_11_fisher_method_grids(golden):
    """Both scoring rules appear in the report grid, and a repeat run of
    the harness reproduces report JSON and grids byte for byte. The report
    bytes are also pinned, so a change that moves them shows here (pinned
    with numpy 2.4.6, with one BLAS thread and with the default count).
    No ordering between the methods is asserted."""
    reports = golden["reports"]
    assert hashlib.sha256(reports[0].to_json().encode()).hexdigest() == \
        "87d93b8d69e39488959deb943c8cc494d56461d26ec7473022a9fa6641a6373f"
    repeat = run_pairings(golden["entries"], golden["evals"], batch_sizes=[1, 5],
                          n_eval_batches=200, seed=0)
    assert len(repeat) == len(reports) == 1
    assert repeat[0].to_json() == reports[0].to_json()
    for method in ("ours", "fisher"):
        for bsz in (1, 5):
            grid = render_grid(reports, method, bsz)
            for name in OOD_TESTS:
                assert name in grid
            assert grid == render_grid(repeat, method, bsz)


def test_contained_pairing_reproduces_the_likelihood_paradox(golden):
    """Nalisnick et al. (arXiv:1810.09136) on the golden flow: a two_moons
    set with a fifth of the noise sits on the flow's density ridge, so its
    batches get the higher likelihood and the likelihood score ranks them
    below the in-distribution batches (AUROC < 0.5 at B = 5 and 25). A
    separate call, so criterion 11's pinned reports do not move. Nothing is
    asserted about our score against typicality on this pairing."""
    evals = {"two_moons": golden["evals"]["two_moons"],
             "contained": generate("two_moons", 10_000, seed=5, noise=0.02).rows("eval")}
    report, = run_pairings(golden["entries"], evals, batch_sizes=[1, 5, 25],
                           n_eval_batches=200, seed=0)
    for bsz in (5, 25):
        assert _cell(report, "likelihood", bsz, "contained") < 0.5, bsz


def test_criterion_12_gradient_oracle():
    """Every model type passes a central finite-difference check on the
    score at 20 random (theta, x) pairs, relative error <= 1e-5 per
    coordinate."""
    models = [
        DiagGaussianModel([0.4, -0.2, 1.1], np.log([0.6, 1.0, 1.9])),
        CouplingFlowModel.init_random(2, Rng(31), n_blocks=2, hidden=8),
        CouplingFlowModel.init_random(2, Rng(32), n_blocks=4, hidden=16),
    ]
    for m, base in enumerate(models):
        rng = Rng(500 + m)
        flat0 = base.params.flat()
        for _ in range(20):
            flat = flat0 + 0.2 * rng.normals(flat0.size)
            x = 1.5 * rng.normals(base.dim)
            model = base.with_params(base.params.from_flat(flat))
            analytic = score(model, x).flat()

            def loglik(w, base=base, x=x):
                trial = base.with_params(base.params.from_flat(w))
                return float(trial.log_likelihood_batch(x)[0])

            fd = finite_diff_grad(loglik, flat)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)
            assert float(rel.max()) <= 1e-5
