import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from fimscore import models
from fimscore.errors import DatasetFormatError, DomainError, NonFiniteError
from fimscore.fim import score_columns
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
from fimscore.numcore import Rng, std_normal_cdf

from finite_diff import finite_diff_grad

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


def test_score_takes_exactly_one_point():
    """One point as a vector or a one-row array; any other row count is
    refused naming the shape, not read as its first row or an IndexError."""
    m = DiagGaussianModel(np.array([2.0]), np.array([0.0]))
    assert np.array_equal(score(m, np.array([[3.0]])).flat(), score(m, np.array([3.0])).flat())
    for x in (np.array([[3.0], [1.0]]), np.empty((0, 1))):
        with pytest.raises(DomainError, match=rf"one point, got shape \({len(x)}, 1\)"):
            score(m, x)


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
    z, logdet, _ = m._chain(x)
    # invert block by block from the last: block k transforms half k % 2
    half = m.dim // 2
    y = [z[:, :half], z[:, half:]]
    for k in range(m.n_blocks - 1, -1, -1):
        w_in, b_in, w_out, b_out = (m.params[f"block{k}.{n}"]
                                    for n in ("w_in", "b_in", "w_out", "b_out"))
        h = np.tanh(y[1 - k % 2] @ w_in.T + b_in)
        o = h @ w_out.T + b_out
        s = np.clip(o[:, :half], -m.clamp, m.clamp)
        y[k % 2] = (y[k % 2] - o[:, half:]) * np.exp(-s)
    assert np.max(np.abs(np.hstack(y) - x)) < 1e-9


# sha256 of sample(warped_flow(seed=21, dim=d, ...), Rng(5), 64), recorded with
# numpy 2.4.6 from the sampler that wrote each block's half through slices
SAMPLE_DIGESTS = {
    (2, 3, 8): "f7e460e1d0883f23b4082208f868a070d2cdf71cee9b0aa3250883e58f4b4919",
    (4, 4, 8): "8290e483b8bbf88f4d9dfc33ab5b0de26372427fc5d7ed5593008b214e66cf23",
}


@pytest.mark.parametrize("dim, n_blocks, hidden", sorted(SAMPLE_DIGESTS))
def test_flow_samples_pinned(dim, n_blocks, hidden):
    m = warped_flow(seed=21, dim=dim, n_blocks=n_blocks, hidden=hidden)
    x = sample(m, Rng(5), 64)
    assert hashlib.sha256(x.tobytes()).hexdigest() == SAMPLE_DIGESTS[dim, n_blocks, hidden]


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


def test_clamp_saturation_matches_np_clip_and_finite_differences():
    """With b_in = 0, a zero conditioner input makes h = 0, so s_raw is
    b_out's scale entry exactly: block 0's b_out puts it at +c and block 1's
    at -c, and the transformed coordinate stays 0 into block 1. Other rows
    land inside the clamp or beyond it. The forward equals a from-scratch
    np.clip forward bit for bit, and grad_groups rows off the clamp's kink
    match central differences."""
    c, half = 1.0, 1
    rng = Rng(53)
    items = []
    for k, b_s in enumerate((c, -c)):
        items += [(f"block{k}.w_in", rng.normals(3).reshape(3, 1)),
                  (f"block{k}.b_in", np.zeros(3)),
                  (f"block{k}.w_out", rng.normals(6).reshape(2, 3)),
                  (f"block{k}.b_out", np.array([b_s, 0.0]))]
    m = CouplingFlowModel(2, LayeredParams(items), 2, 3, clamp=c)
    x = np.vstack([[0.0, 0.0], [0.7, 0.0], [-1.2, 0.0], Rng(54).normals(40).reshape(20, 2)])

    z, logdet, s_raws = x.copy(), np.zeros(len(x)), []
    for k in range(2):
        w_in, b_in, w_out, b_out = (m.params[f"block{k}.{n}"]
                                    for n in ("w_in", "b_in", "w_out", "b_out"))
        tsl, csl = (slice(0, 1), slice(1, 2)) if k == 0 else (slice(1, 2), slice(0, 1))
        o = np.dot(np.tanh(np.dot(z[:, csl], w_in.T) + b_in), w_out.T) + b_out
        s_raws.append(o[:, 0])
        s = np.clip(o[:, :half], -c, c)
        z[:, tsl] = z[:, tsl] * np.exp(s) + o[:, half:]
        logdet += s.sum(axis=1)
    want = -0.5 * 2 * math.log(2.0 * math.pi) - 0.5 * np.sum(z * z, axis=1) + logdet

    s_raws = np.column_stack(s_raws)
    assert np.all(s_raws[:3, 0] == c) and s_raws[0, 1] == -c
    off_kink = np.all(np.abs(np.abs(s_raws) - c) > 1e-3, axis=1)
    inside = off_kink & np.all(np.abs(s_raws) < c, axis=1)
    assert inside.sum() >= 3 and (off_kink & ~inside).sum() >= 3
    assert np.array_equal(m.log_likelihood_batch(x), want)
    assert np.array_equal(m.factor_sweep(x)[0], want)

    grads, _ = m.grad_groups(x, 1)
    flat0 = m.params.flat()
    for r in np.flatnonzero(off_kink):

        def obj(flat, xr=x[r:r + 1]):
            return float(m.with_params(m.params.from_flat(flat)).log_likelihood_batch(xr)[0])

        fd = finite_diff_grad(obj, flat0, h=1e-6)
        assert np.max(np.abs(grads[r] - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6


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


def test_grad_groups_rows_are_group_sums():
    """Each grouped row equals the batch-summed gradient of its group."""
    for m in (DiagGaussianModel(np.array([0.5, -0.5]), np.array([0.1, -0.2])),
              warped_flow(seed=12, n_blocks=3, hidden=5)):
        x = sample(m, Rng(41), 12)
        for size in (1, 3, 12):
            grads, loglik = m.grad_groups(x, size)
            assert grads.shape == (12 // size, m.params.n_params)
            assert np.array_equal(loglik, m.log_likelihood_batch(x))
            for g, row in enumerate(grads):
                want = m.grad_sum_batch(x[g * size : (g + 1) * size]).flat()
                assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))
        for size in (0, 5, 13):
            with pytest.raises(DomainError):
                m.grad_groups(x, size)


@pytest.mark.parametrize("dim", [4, 6])
def test_flow_gradients_beyond_dim_2(dim):
    """Past dim 2 the conditioner input has several columns, so the input
    product sums over them. Grouped gradients still match central
    differences, and samples have a finite log-likelihood."""
    m = warped_flow(seed=14, dim=dim, n_blocks=3, hidden=5)
    x = sample(m, Rng(42), 6)
    assert np.all(np.isfinite(m.log_likelihood_batch(x)))
    flat0 = m.params.flat()
    for size in (1, 3):
        grads, _ = m.grad_groups(x, size)
        for g, row in enumerate(grads):

            def obj(flat, xg=x[g * size : (g + 1) * size]):
                return float(m.with_params(m.params.from_flat(flat))
                             .log_likelihood_batch(xg).sum())

            fd = finite_diff_grad(obj, flat0, h=1e-6)
            assert np.max(np.abs(row - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6


@pytest.mark.parametrize("rows", [1, 128, 8100])
def test_likelihood_pass_is_bitwise_the_sweep_loglik(rows):
    """``log_likelihood_batch`` runs the forward with no cache; its values
    are those of the cached forward that ``factor_sweep`` runs."""
    for m in (warped_flow(seed=15, dim=2, n_blocks=6, hidden=32),
              warped_flow(seed=16, dim=4, n_blocks=3, hidden=5),
              DiagGaussianModel(np.array([0.5, -0.5]), np.array([0.1, -0.2]))):
        x = sample(m, Rng(46), rows)
        assert np.array_equal(m.log_likelihood_batch(x), m.factor_sweep(x)[0])


def test_likelihood_pass_holds_one_hidden_layer_at_a_time():
    """10,000 rows of the K = 6, H = 32 flow: the cache-free forward peaks
    at about 3.5 MB. Each hidden array is 2.56 MB, so a second one alive
    while the next block makes its own (about 6 MB), or a cached forward
    (about 5.2 MB), breaks the bound."""
    m = CouplingFlowModel.init_random(2, Rng(47))
    x = sample(m, Rng(48), 10_000)
    m.log_likelihood_batch(x[:10])
    tracemalloc.start()
    m.log_likelihood_batch(x)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 4.2e6, f"peak {peak / 1e6:.2f} MB"


def test_one_group_of_many_rows_sums_vector_layers_one_by_one():
    """One group of 20,000 rows of the K = 6, H = 32 flow peaks at about
    30 MB: each vector layer is summed into the row as its factor comes.
    Holding every vector factor for one joined reduce would take about
    65 MB."""
    m = CouplingFlowModel.init_random(2, Rng(47))
    x = sample(m, Rng(48), 20_000)
    m.grad_groups(x[:10], 10)
    tracemalloc.start()
    m.grad_groups(x, len(x))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 40e6, f"peak {peak / 1e6:.2f} MB"


def test_remade_hidden_activations_give_the_cached_gradients(monkeypatch):
    """A sweep too large to cache its hidden activations remakes them in
    the backward; its gradient rows equal the cached sweep's bit for bit."""
    m = warped_flow(seed=19, dim=2, n_blocks=6, hidden=32)
    x = sample(m, Rng(50), 40)
    cached = m.grad_groups(x, 1)[0]
    monkeypatch.setattr(models, "HIDDEN_CACHE_FLOATS", 0)
    assert np.array_equal(m.grad_groups(x, 1)[0], cached)


def test_remade_hidden_activations_give_the_cached_draw_scores(monkeypatch):
    """A draw sweep too large to cache its hidden activations remakes them in
    the backward from the inverse chain's cache; its score rows at every
    weight equal the cached sweep's bit for bit."""
    m = warped_flow(seed=19, dim=2, n_blocks=6, hidden=32)
    z = Rng(50).normals(80).reshape(40, 2)
    every = [(name, i) for name, a in m.params for i in range(a.size)]
    cached = score_columns(m, z, every, draws=True)
    monkeypatch.setattr(models, "HIDDEN_CACHE_FLOATS", 0)
    assert np.array_equal(score_columns(m, z, every, draws=True), cached)


@pytest.mark.parametrize("size", [1, 2])
def test_grad_groups_runs_the_chunked_sweep(chunk_spy, size):
    """grad_groups is a sink of sweep_chunks: capped at three groups a
    chunk, ten groups take four sweeps, and each chunk's rows are bit for
    bit those of grad_groups on that chunk alone."""
    m = warped_flow(seed=20, dim=2, n_blocks=2, hidden=8)
    x = sample(m, Rng(51), 10 * size)
    per_chunk = [m.grad_groups(x[i:i + 3 * size], size) for i in range(0, len(x), 3 * size)]
    sizes = chunk_spy(m, 3, size)
    grads, loglik = m.grad_groups(x, size)
    assert sizes == [3, 3, 3, 1]
    assert np.array_equal(grads, np.vstack([g for g, _ in per_chunk]))
    assert np.array_equal(loglik, np.concatenate([ll for _, ll in per_chunk]))


def test_training_step_is_one_sweep(chunk_spy):
    """A 128-row loglik_and_grad_sum is one group, so it is one factor_sweep
    call even when a chunk is capped at a single group."""
    m = warped_flow(seed=21, dim=2, n_blocks=6, hidden=32)
    sizes = chunk_spy(m, 1, 128)
    m.loglik_and_grad_sum(sample(m, Rng(52), 128))
    assert sizes == [1]


def test_loglik_and_grad_sum_hands_out_the_checked_row():
    """``loglik_and_grad_sum`` returns the one-group ``grad_groups`` row
    itself, read-only and bit for bit, with the summed log-likelihood."""
    for m, rows in ((warped_flow(seed=17, dim=2, n_blocks=6, hidden=32), 128),
                    (warped_flow(seed=18, dim=4, n_blocks=3, hidden=5), 24)):
        x = sample(m, Rng(49), rows)
        grads, loglik = m.grad_groups(x, len(x))
        total, grad = m.loglik_and_grad_sum(x)
        assert not grad.flat().flags.writeable
        assert np.array_equal(grad.flat(), grads[0])
        assert total == float(loglik.sum())


def _full_rows(m, factors, n):
    """Per-row gradients built from a factor stream, one outer product a row."""
    out = np.empty((n, m.params.n_params))
    views = m.params.views(out)
    for i, a, b in factors:
        views[i][...] = a if b is None else a[:, :, None] * b[:, None, :]
    return out


@pytest.mark.parametrize("dim, n_blocks, hidden", [(2, 6, 32), (4, 3, 5)])
def test_draw_sweep_scores_the_model_draws(dim, n_blocks, hidden):
    """The draw sweep runs only the inverse chain, yet its draws are
    ``sample``'s bytes, and its per-row scores and log-likelihoods are the
    forward route's (``grad_groups(x, 1)`` at those draws): scores within
    1e-9 of each row's largest entry, log-likelihoods within 1e-9 relative.
    Measured: 2.4e-13 and 1.8e-13 at d = 2, where draws reach |x| = 109, and
    2.1e-15 and 5.2e-16 at d = 4."""
    m = warped_flow(seed=23, dim=dim, n_blocks=n_blocks, hidden=hidden)
    n = 300
    x, loglik, factors = m.draw_sweep(Rng(7).normals(n * dim).reshape(n, dim))
    assert np.array_equal(x, sample(m, Rng(7), n))
    grads, want = m.grad_groups(x, 1)
    rows = _full_rows(m, factors, n)
    scale = np.max(np.abs(grads), axis=1, keepdims=True)
    assert np.max(np.abs(rows - grads) / scale) <= 1e-9
    assert np.max(np.abs(loglik - want) / np.abs(want)) <= 1e-9


def test_gaussian_draw_sweep_is_sample_then_factor_sweep():
    m = DiagGaussianModel(np.array([0.5, -0.5]), np.array([0.1, -0.2]))
    x, loglik, factors = m.draw_sweep(Rng(9).normals(40).reshape(20, 2))
    assert np.array_equal(x, sample(m, Rng(9), 20))
    want, want_factors = m.factor_sweep(x)
    assert np.array_equal(loglik, want)
    for (i, a, _), (j, b, _) in zip(factors, want_factors, strict=True):
        assert i == j and np.array_equal(a, b)


@pytest.mark.parametrize("dim", [2, 4])
def test_passes_never_write_their_input(dim):
    """The flow's forward keeps views of ``x`` as its first halves. Every
    pass runs on a read-only ``x``, gives a writable copy's values, and
    leaves ``x``'s bytes as they were."""
    m = warped_flow(seed=22, dim=dim, n_blocks=3, hidden=5)
    x = sample(m, Rng(53), 12)
    before, copy = x.tobytes(), x.copy()
    x.flags.writeable = False
    assert np.array_equal(m.log_likelihood_batch(x), m.log_likelihood_batch(copy))
    loglik, factors = m.factor_sweep(x)
    assert len(list(factors)) == len(m.params.names)
    for size in (1, len(x)):
        for got, want in zip(m.grad_groups(x, size), m.grad_groups(copy, size)):
            assert np.array_equal(got, want)
    assert x.tobytes() == before


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
        {"type": "diag_gaussian", "dims": 1, "hyper": {}, "layers": []},
        {"type": "diag_gaussian", "dims": 1, "hyper": {},  # no log_sigma
         "layers": [{"name": "mu", "shape": [1], "values": [0.0]}]},
    ):
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(DatasetFormatError):
            load_model(path)
    save_model(DiagGaussianModel.standard(2), path)
    with open(path) as fh:
        good = json.load(fh)
    for dims in (2.5, "2", True):  # a whole dims field, never coerced
        with open(path, "w") as fh:
            json.dump({**good, "dims": dims}, fh)
        with pytest.raises(DatasetFormatError, match="is malformed: dims"):
            load_model(path)
    mu, log_sigma = good["layers"]
    save_model(zero_flow(n_blocks=1), path)
    with open(path) as fh:
        flow = json.load(fh)
    w_in = flow["layers"][0]
    for obj, message in (
        ({**good, "layers": [mu, log_sigma, {**mu, "name": "x"}]}, "layout mismatch"),
        ({**good, "hyper": {"K": 3}}, "'K' is not a diag_gaussian hyperparameter"),
        ({**good, "layers": [{**mu, "shape": [2.7]}, log_sigma]}, "'mu' shape must be an int"),
        ({**good, "layers": [{**mu, "shape": [True, 2]}, log_sigma]}, "'mu' shape must be an int"),
        ({**good, "layers": [{**mu, "values": ["1.5", 0.0]}, log_sigma]},
         "layer 'mu' values entry 0 must be a number, got '1.5'"),
        ({**good, "layers": [mu, {**log_sigma, "values": [0.0, True]}]},
         "layer 'log_sigma' values entry 1 must be a number, got True"),
        ({**good, "layers": [{**mu, "values": [None, 0.0]}, log_sigma]}, "entry 0 must be a number"),
        ({**flow, "layers": [{**w_in, "shape": [1, 4]}] + flow["layers"][1:]}, "layout mismatch"),
        ({**flow, "dims": 3}, "flow dimension must be even"),
    ):
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(DatasetFormatError, match=f"bad.json' is malformed: .*{message}"):
            load_model(path)


@pytest.mark.parametrize("hyper,field", [
    ([], ""), ({"K": "x"}, "K"), ({"K": None}, "K"), ({"K": float("inf")}, "K"),
    ({}, ""), ({"K": 2, "H": 5}, "c"), ({"K": 2.5, "H": 4, "c": 5.0}, "K"),
    ({"K": 2, "H": 4.9, "c": 5.0}, "H"), ({"K": True, "H": 4, "c": 5.0}, "K"),
    ({"K": 2, "H": 4, "c": True}, "c"), ({"K": 2, "H": 4, "c": "5"}, "c"),
    ({"K": 2, "H": 4, "c": float("inf")}, "c"), ({"K": 2, "H": 4, "c": float("nan")}, "c"),
    ({"K": 2, "H": 4, "c": 5.0, "Z": 1}, "'Z' is not a coupling_flow hyperparameter")],
    ids=["list", "string", "null", "inf", "empty", "no_clamp", "float_K", "float_H",
         "bool_K", "bool_c", "string_c", "inf_c", "nan_c", "unknown_key"])
def test_malformed_checkpoint_hyper(tmp_path, hyper, field):
    """A hyper value that is missing or of the wrong JSON type is refused,
    naming its field: no count is rounded and no bool or string is coerced.
    ``json.dump`` writes an infinite or NaN clamp as Infinity or NaN, which
    reads back as a float and is refused as not finite."""
    path = str(tmp_path / "model.json")
    save_model(zero_flow(n_blocks=2), path)
    with open(path) as fh:
        obj = json.load(fh)
    obj["hyper"] = hyper
    with open(path, "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(DatasetFormatError, match=f"is malformed: '?{field}"):
        load_model(path)


def test_every_family_rebuilds_through_build():
    """``with_params`` and the checkpoint loader give back the model's checksum
    for every registered family."""
    examples = {DiagGaussianModel.type_name: DiagGaussianModel([0.25, -1.0], [-0.5, 0.1]),
                CouplingFlowModel.type_name: warped_flow(seed=13)}
    assert sorted(examples) == sorted(models._MODEL_TYPES)
    for m in examples.values():
        assert model_checksum(m.with_params(m.params)) == model_checksum(m)
        back = models.model_from_dict(models.checkpoint_dict(m))
        assert model_checksum(back) == model_checksum(m)


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
    with pytest.raises(ValueError):
        flat[0] = 5.0  # so is the flat buffer
    assert p.flat() is flat  # returned without copying
    assert p.offsets.tolist() == [0, 4]
    for _, a in p:
        assert np.shares_memory(a, flat)
    src = np.arange(7.0)
    q = p.from_flat(src)
    src[:] = -1.0  # from_flat copied its input
    assert np.array_equal(q.flat(), np.arange(7.0))
    with pytest.raises(NonFiniteError, match="layer 'b'"):
        p.from_flat([0.0, 1.0, 2.0, 3.0, 4.0, float("nan"), 6.0])
    with pytest.raises(DomainError, match="no layer named 'nope'"):
        p["nope"]


def test_flow_constructor_validation():
    with pytest.raises(DomainError):
        zero_flow(dim=3)
    with pytest.raises(DomainError):
        CouplingFlowModel(2, LayeredParams([("x", np.zeros(2))]), 1, 4)


def test_batch_shape_validation():
    m = DiagGaussianModel.standard(2)
    with pytest.raises(DomainError):
        m.log_likelihood_batch(np.zeros((3, 5)))
    for bad in (np.nan, np.inf):
        x = np.zeros((4, 2))
        x[2, 1], x[3, 0] = bad, bad  # the first bad entry in row order is named
        with pytest.raises(NonFiniteError, match="input point 2 .* column 1$"):
            m.grad_groups(x, 1)
    with pytest.raises(DomainError):
        sample(m, Rng(0), 0)
    with pytest.raises(DomainError):
        DiagGaussianModel(np.zeros(0), np.zeros(0))  # no empty layer reaches reduceat
