import math
import re
import tracemalloc

import numpy as np
import pytest

from fimscore.errors import DegenerateDataError, DomainError, NonFiniteError
from fimscore.fim import (
    MAX_PER_LAYER,
    MAX_PROBE_LAYERS,
    diag_dominance,
    exact_score_test_gaussian,
    mc_fim_slice,
    normalize_fim,
    prior_diag_from_samples,
    score_columns,
    select_weights,
    sherman_morrison_score,
)
from fimscore.models import CouplingFlowModel, DiagGaussianModel, sample
from fimscore.numcore import Rng

from pcg_reference import randint


def test_select_weights_constraints():
    # w_out of the H = 32 flow holds 2 * 32 = 64 weights, over the cap
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=2, hidden=32)
    wm = select_weights(m.params, ["block0.w_out"], Rng(1))
    assert len(wm) == MAX_PER_LAYER == 50
    idxs = [i for _, i in wm]
    assert idxs == sorted(idxs)
    assert len(set(idxs)) == MAX_PER_LAYER
    assert all(0 <= i < 64 for i in idxs)
    # a layer smaller than the cap contributes all of its weights
    wm2 = select_weights(m.params, ["block0.b_out"], Rng(1))
    assert len(wm2) == 2


def test_select_weights_is_seeded():
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=2, hidden=32)
    a = select_weights(m.params, ["block0.w_out", "block1.w_out"], Rng(3))
    b = select_weights(m.params, ["block0.w_out", "block1.w_out"], Rng(3))
    assert a == b
    c = select_weights(m.params, ["block0.w_out", "block1.w_out"], Rng(4))
    assert a != c


def test_select_weights_errors():
    m = DiagGaussianModel.standard(2)
    with pytest.raises(DomainError):
        select_weights(m.params, [], Rng(0))
    too_many = ["mu"] * (MAX_PROBE_LAYERS + 1)
    with pytest.raises(DomainError):
        select_weights(m.params, too_many, Rng(0))
    with pytest.raises(DomainError):
        select_weights(m.params, ["nope"], Rng(0))
    with pytest.raises(DomainError, match="'mu' repeats"):
        select_weights(m.params, ["mu", "mu"], Rng(0))


def test_slice_rejects_empty_sample():
    m = DiagGaussianModel.standard(2)
    for n in (0, -1):
        with pytest.raises(DomainError, match="sample count"):
            mc_fim_slice(m, ["mu"], Rng(0), n)


def test_single_draw_slice_is_rank_one():
    m = DiagGaussianModel(np.array([0.5, -1.0]), np.array([0.2, -0.4]))
    sl = mc_fim_slice(m, ["mu"], Rng(7), n=1)
    # replicate the documented rng consumption order by hand
    r = Rng(7)
    r.permutation(2)
    x = m.sample(r, 1)
    s = dict(m.score_batch(x))["mu"][0]
    assert np.array_equal(sl.matrix, np.outer(s, s))
    assert sl.n_samples == 1
    assert sl.weight_map == [("mu", 0), ("mu", 1)]


def test_gaussian_slice_matches_analytic_diagonal():
    # per-coordinate information: 1/sigma^2 for mu, 2 for log sigma
    sigma = np.array([0.5, 2.0])
    m = DiagGaussianModel(np.zeros(2), np.log(sigma))
    sl = mc_fim_slice(m, ["mu", "log_sigma"], Rng(10), n=40_000)
    want = np.concatenate([1.0 / sigma ** 2, [2.0, 2.0]])
    got = np.diag(sl.matrix)
    assert np.max(np.abs(got / want - 1.0)) < 0.05
    # mu/log_sigma cross terms are zero by symmetry
    off = sl.matrix[:2, 2:]
    assert np.max(np.abs(off)) < 0.05


def test_slice_is_symmetric_psd():
    m = CouplingFlowModel.init_random(2, Rng(1), n_blocks=2, hidden=32)
    sl = mc_fim_slice(m, ["block0.b_in", "block1.w_out"], Rng(2), n=500)
    f = sl.matrix
    # b_in has hidden = 32 weights, w_out's dim * hidden = 64 are capped at 50
    assert f.shape == (82, 82)
    assert np.max(np.abs(f - f.T)) < 1e-14
    # PSD up to roundoff; eigvalsh used as an independent oracle
    assert np.linalg.eigvalsh(f).min() > -1e-10


def test_normalize_by_hand():
    c = normalize_fim(np.array([[4.0, 2.0], [2.0, 1.0]]))
    assert np.max(np.abs(c - 1.0)) < 1e-14
    c2 = normalize_fim(np.array([[4.0, 0.0], [0.0, 9.0]]))
    assert np.array_equal(c2, np.eye(2))


def test_normalize_unit_diagonal_property():
    m = DiagGaussianModel.standard(3)
    sl = mc_fim_slice(m, ["mu", "log_sigma"], Rng(5), n=200)
    c = normalize_fim(sl.matrix)
    assert np.max(np.abs(np.diag(c) - 1.0)) < 1e-12
    assert np.max(np.abs(c)) <= 1.0 + 1e-12


def test_normalize_rejects_zero_diagonal():
    with pytest.raises(DegenerateDataError) as exc:
        normalize_fim(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert "entry 1" in str(exc.value)
    with pytest.raises(DomainError):
        normalize_fim(np.zeros((2, 3)))
    # a 0 x 0 slice has no diagonal to normalize or average
    for refuse in (normalize_fim, diag_dominance):
        with pytest.raises(DomainError, match=r"square matrix required, got shape \(0, 0\)"):
            refuse(np.zeros((0, 0)))


@pytest.mark.parametrize("bad, where", [
    ([[np.nan, 0.0], [0.0, 1.0]], "(0, 0)"),
    ([[1.0, 0.5], [np.inf, 1.0]], "(1, 0)"),
    ([[1.0, 0.0], [0.0, np.inf]], "(1, 1)"),
])
def test_non_finite_matrix_is_refused_by_entry(bad, where):
    """A NaN diagonal would normalize to NaNs, an off-diagonal infinity would
    pass through and an infinite diagonal would divide inf by inf: each is
    refused naming its first entry in row order."""
    for refuse in (normalize_fim, diag_dominance):
        with pytest.raises(NonFiniteError, match=re.escape(f"matrix entry {where} is not finite")):
            refuse(np.array(bad))


def test_diag_dominance_examples():
    d, o = diag_dominance(np.eye(4))
    assert (d, o) == (1.0, 0.0)
    d, o = diag_dominance(np.ones((3, 3)))
    assert (d, o) == (1.0, 1.0)
    d, o = diag_dominance(np.array([[2.0]]))
    assert (d, o) == (2.0, 0.0)


def test_exact_score_test_values():
    m = DiagGaussianModel.standard(1)
    stat, dof = exact_score_test_gaussian(m, np.array([0.0]))
    assert stat == 0.5  # t = 0 contributes (0 - 1)^2 / 2
    assert dof == 2
    stat, dof = exact_score_test_gaussian(m, np.array([1.0]))
    assert stat == 1.0  # t = 1 contributes t only


def test_exact_score_test_batched():
    m = DiagGaussianModel(np.array([1.0, 2.0]), np.log([0.5, 2.0]))
    pts = m.sample(Rng(20), 6)
    stats, dof = exact_score_test_gaussian(m, pts)
    assert stats.shape == (6,) and dof == 4
    one, _ = exact_score_test_gaussian(m, pts[2])
    assert one == stats[2]
    with pytest.raises(DomainError):
        exact_score_test_gaussian(m, np.zeros(3))


def test_exact_score_test_mean_matches_dof():
    # E[t] = 1 and E[(t-1)^2] = 2 per coordinate, so E[stat] = 2 * dim
    m = DiagGaussianModel(np.array([0.0, 1.0, -1.0]), np.array([0.1, -0.2, 0.0]))
    draws = m.sample(Rng(21), 10_000)
    stats, dof = exact_score_test_gaussian(m, draws)
    assert dof == 6
    assert abs(stats.mean() - dof) / dof < 0.05
    assert stats.min() > 0.0


def test_exact_score_test_batch_of_one_matches_per_draw():
    m = DiagGaussianModel(np.array([1.0, 2.0]), np.log([0.5, 2.0]))
    pts = m.sample(Rng(22), 7)
    per_draw, dof = exact_score_test_gaussian(m, pts)
    batch, batch_dof = exact_score_test_gaussian(m, pts[:, None, :])
    assert batch.shape == (7,) and batch_dof == dof == 4
    assert np.allclose(batch, per_draw, rtol=1e-12, atol=0.0)


def test_exact_score_test_batch_by_hand():
    # mu = 1, sigma = 2, n = 2. Batch 0: z = 1, -1, so sum z = 0 and
    # sum (z^2 - 1) = 0. Batch 1: z = 2, 0, so sum z = 2 and
    # sum (z^2 - 1) = 3 - 1 = 2, giving 2^2 / 2 + 2^2 / (2 * 2) = 3.
    m = DiagGaussianModel(np.array([1.0]), np.log([2.0]))
    x = np.array([[[3.0], [-1.0]], [[5.0], [1.0]]])
    stats, dof = exact_score_test_gaussian(m, x)
    assert dof == 2
    assert stats[0] == 0.0
    assert stats[1] == pytest.approx(3.0, rel=1e-12)


def test_exact_score_test_batch_variance_curve():
    """The batch statistic's variance follows 12 + 60/n at D = 3 (derived
    in criterion 02's variance test) within 10% for n = 1, 2, 5 and 20,
    on 400,000 draws per n from the acceptance fixture's fitted Gaussian.
    Over seeds 21-40 the worst deviations were 3.0%, 2.8%, 4.0% and 5.5%."""
    rng = Rng(21)
    true = DiagGaussianModel([0.4, -1.0, 2.5], np.log([0.7, 1.0, 1.6]))
    sample = true.sample(rng, 4000)
    mle = DiagGaussianModel(sample.mean(axis=0), 0.5 * np.log(sample.var(axis=0)))
    for n in (1, 2, 5, 20):
        draws = mle.sample(rng, 400_000).reshape(400_000 // n, n, 3)
        stats, dof = exact_score_test_gaussian(mle, draws)
        want = 2.0 * dof + 60.0 / n
        var = float(stats.var())
        assert abs(var - want) <= 0.10 * want, f"n = {n}: variance {var:.2f} vs {want:.1f}"


def test_exact_score_test_batch_errors(chunk_spy):
    m = DiagGaussianModel.standard(2)
    with pytest.raises(DomainError):
        exact_score_test_gaussian(m, np.zeros((4, 5, 3)))
    with pytest.raises(DomainError):
        exact_score_test_gaussian(m, np.zeros((4, 0, 2)))
    # a model with no log_sigma layer is refused, naming it, before any sweep
    flow = CouplingFlowModel.init_random(2, Rng(0), n_blocks=1, hidden=4)
    sizes = chunk_spy(flow, 1)
    with pytest.raises(DomainError, match="no layer named 'log_sigma'"):
        exact_score_test_gaussian(flow, np.zeros((3, 2)))
    assert sizes == []


def test_prior_diag_fallbacks():
    assert np.array_equal(prior_diag_from_samples([], 3), np.ones(3))
    s = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert np.array_equal(prior_diag_from_samples(s, 2), np.array([5.0, 1.0]))
    assert np.array_equal(prior_diag_from_samples(np.empty((0, 3)), 3), np.ones(3))
    # samples of another width than p are refused, naming both
    for bad in (np.ones((3, 2)), np.ones(5)):
        with pytest.raises(DomainError, match=re.escape(f"width 5, got shape {bad.shape}")):
            prior_diag_from_samples(bad, 5)


def test_sherman_morrison_frozen_example():
    # A = I + [1,0][1,0]^T = diag(2, 1); s_x = (1, 1):
    # q = 1/2 + 1 = 1.5
    q = sherman_morrison_score([np.array([1.0, 0.0])], np.ones(2),
                               np.array([1.0, 1.0]))
    assert abs(q - 1.5) < 1e-14


def test_sherman_morrison_no_updates_is_diag_solve():
    a0 = np.array([2.0, 5.0])
    sx = np.array([2.0, 5.0])
    q = sherman_morrison_score([], a0, sx)
    assert abs(q - (4.0 / 2.0 + 25.0 / 5.0)) < 1e-14


def _check_against_dense(samples, a0, sx):
    dense = np.diag(a0)
    for s in samples:
        dense = dense + np.outer(s, s)
    want = float(sx @ np.linalg.solve(dense, sx))
    got = sherman_morrison_score(samples, a0, sx)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_sherman_morrison_matches_dense_solve():
    rng = Rng(30)
    for trial in range(25):
        p = 3 + randint(rng, 18)
        n = randint(rng, 7)
        a0 = 0.5 + rng.uniforms(p) * 2.0
        samples = [rng.normals(p) for _ in range(n)]
        sx = rng.normals(p)
        _check_against_dense(samples, a0, sx)
    # more samples than parameters, then a prior diagonal spanning six decades
    for a0, n in [(0.5 + rng.uniforms(3) * 2.0, 40),
                  (0.5 + rng.uniforms(5) * 2.0, 60),
                  (np.logspace(-3.0, 3.0, 12), 30)]:
        samples = [rng.normals(a0.size) for _ in range(n)]
        _check_against_dense(samples, a0, rng.normals(a0.size))


def test_sherman_morrison_scale_convention():
    rng = Rng(31)
    a0 = np.ones(4)
    samples = [rng.normals(4) for _ in range(3)]
    sx = rng.normals(4)
    raw = sherman_morrison_score(samples, a0, sx, "raw")
    scaled = sherman_morrison_score(samples, a0, sx, "n_plus_1")
    assert abs(scaled - 4.0 * raw) < 1e-12
    with pytest.raises(DomainError):
        sherman_morrison_score(samples, a0, sx, "bogus")


def test_sherman_morrison_validation():
    with pytest.raises(DomainError):
        sherman_morrison_score([], np.array([1.0, -1.0]), np.ones(2))
    with pytest.raises(DomainError):
        sherman_morrison_score([], np.ones(2), np.ones(3))
    with pytest.raises(DomainError):
        sherman_morrison_score([np.ones(3)], np.ones(2), np.ones(2))
    # a ragged list is located by sample, not left to numpy
    with pytest.raises(DomainError, match="gradient sample 1 has shape"):
        sherman_morrison_score([np.ones(2), np.ones(3)], np.ones(2), np.ones(2))
    bad = np.array([1.0, np.nan])
    with pytest.raises(NonFiniteError, match=r"grad_samples\[2\]"):
        sherman_morrison_score([np.ones(2), np.ones(2), bad], np.ones(2), np.ones(2))
    with pytest.raises(NonFiniteError, match="a0_diag"):
        sherman_morrison_score([], np.array([1.0, np.inf]), np.ones(2))
    with pytest.raises(NonFiniteError, match="s_x"):
        sherman_morrison_score([np.ones(2)], np.ones(2), bad)


def test_sherman_morrison_avoids_dense_memory():
    """P = 100k with 3 updates: a dense P x P matrix would need 80 GB;
    the Woodbury solve should stay in the tens of megabytes."""
    p = 100_000
    rng = Rng(32)
    samples = [rng.normals(p) for _ in range(3)]
    a0 = np.ones(p)
    sx = rng.normals(p)
    tracemalloc.start()
    sherman_morrison_score(samples, a0, sx)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 50 * 1024 * 1024


PROBE_LAYERS = ["block0.w_out", "block5.w_out"]


def test_slice_chunk_boundaries_match_one_chunk(chunk_spy):
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=2, hidden=8)
    whole = mc_fim_slice(m, ["block0.w_in", "block1.w_out"], Rng(4), 10)
    sizes = chunk_spy(m, 3)
    chunked = mc_fim_slice(m, ["block0.w_in", "block1.w_out"], Rng(4), 10)
    assert sizes == [3, 3, 3, 1]
    assert chunked.weight_map == whole.weight_map
    np.testing.assert_allclose(chunked.matrix, whole.matrix, rtol=1e-10, atol=0)


def test_score_columns_equal_grad_groups_columns(chunk_spy):
    """Probed columns are single products of the backward factors, so they
    equal the per-sample grad_groups columns of the same rows exactly, in
    one chunk or in four: a vector layer (b_in), a weight layer with q = 2
    (w_in at d = 4) and one with q = 8 (w_out)."""
    m = CouplingFlowModel.init_random(4, Rng(2), n_blocks=2, hidden=8)
    noise = 0.3 * Rng(3).normals(m.params.n_params)
    m = m.with_params(m.params.from_flat(m.params.flat() + noise))
    x = m.sample(Rng(4), 10)
    weight_map = ([("block0.b_in", i) for i in range(8)]
                  + [("block1.w_in", i) for i in (0, 3, 4, 15)]
                  + [("block0.w_out", i) for i in (1, 8, 31)])
    start = dict(zip(m.params.names, m.params.offsets.tolist()))
    cols = [start[name] + i for name, i in weight_map]
    assert np.array_equal(score_columns(m, x, weight_map), m.grad_groups(x, 1)[0][:, cols])
    per_chunk = np.vstack([m.grad_groups(x[i:i + 3], 1)[0][:, cols] for i in range(0, 10, 3)])
    sizes = chunk_spy(m, 3)
    assert np.array_equal(score_columns(m, x, weight_map), per_chunk)
    assert sizes == [3, 3, 3, 1]


def test_one_chunk_slice_is_bitwise_the_whole_sweep():
    """n = 1024 fits one chunk, so the slice is the Gram of the probed columns
    of a single draw sweep of its base normals, read here as single products
    of that sweep's own factors. Over seven chunks at n = 8,192 it matches the
    forward route, score columns at ``sample``'s draws, within 1e-12 of its
    largest entry (3.3e-16 measured)."""
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=6, hidden=32)
    n = 1024
    got = mc_fim_slice(m, PROBE_LAYERS, Rng(9), n)
    rng = Rng(9)
    weight_map = select_weights(m.params, PROBE_LAYERS, rng)
    _, _, factors = m.draw_sweep(rng.normals(n * m.dim).reshape(n, m.dim))
    layers = {m.params.names[i]: a if b is None else a[:, :, None] * b[:, None, :]
              for i, a, b in factors}
    s = np.stack([layers[name].reshape(n, -1)[:, idx] for name, idx in weight_map], axis=1)
    assert got.weight_map == weight_map
    assert np.array_equal(got.matrix, (s.T @ s) / n)

    n = 8192
    got = mc_fim_slice(m, PROBE_LAYERS, Rng(9), n).matrix
    rng = Rng(9)
    select_weights(m.params, PROBE_LAYERS, rng)
    s = score_columns(m, sample(m, rng, n), weight_map)
    assert np.max(np.abs(got - (s.T @ s) / n)) <= 1e-12 * np.max(np.abs(got))


def test_gaussian_slice_is_bitwise_the_forward_route(chunk_spy):
    """The Gaussian's draw sweep is its sample followed by its factor_sweep,
    so its slices keep every bit of the forward route, over four chunks too."""
    m = DiagGaussianModel(np.array([0.5, -1.0]), np.array([0.2, -0.4]))
    rng = Rng(8)
    weight_map = select_weights(m.params, ["mu", "log_sigma"], rng)
    s = score_columns(m, sample(m, rng, 10), weight_map)
    sizes = chunk_spy(m, 3)
    assert np.array_equal(mc_fim_slice(m, ["mu", "log_sigma"], Rng(8), 10).matrix,
                          (s.T @ s) / 10)
    assert sizes == [3, 3, 3, 1]


def test_non_finite_draw_is_named_by_its_row_across_chunks(chunk_spy):
    """sigma = exp(709) overflows a draw only where |z| > 2.2. Capped at three
    rows a chunk, the slice names the draw ``sample`` names from the same
    normals, by its row in the whole sweep, past the first chunks."""
    m = DiagGaussianModel([0.0, 0.0], [709.0, 0.0])
    rng = Rng(5)
    select_weights(m.params, ["mu"], rng)
    with pytest.raises(NonFiniteError, match=r"^model draw \d+ is not finite$") as want:
        sample(m, rng, 100)
    row = int(str(want.value).split()[2])
    sizes = chunk_spy(m, 3)
    with pytest.raises(NonFiniteError) as got:
        mc_fim_slice(m, ["mu"], Rng(5), 100)
    assert str(got.value) == str(want.value)
    assert row >= 3 and sizes == [3] * (row // 3 + 1)


@pytest.mark.parametrize("weight_map, message", [
    ([], "weight map is empty"),
    ([("block0.w_in", 0), ("block0.w_in", 99)],
     r"weight map entry \('block0.w_in', 99\) is outside its layer"),
    ([("block0.w_in", -1)], r"weight map entry \('block0.w_in', -1\) must be >= 0"),
    ([("block0.w_in", 1.5)], r"weight map entry \('block0.w_in', 1.5\) must be an integer"),
])
def test_score_columns_refuses_a_bad_weight_map(weight_map, message):
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=1, hidden=4)
    with pytest.raises(DomainError, match=message):
        score_columns(m, np.zeros((3, 2)), weight_map)


def test_slice_memory_is_bounded_by_the_chunk():
    """8,192 draws of the K = 6, H = 32 flow (P = 780): the (n, P) score
    matrix alone would be 51 MB; chunked rows keep the peak under 24 MB."""
    m = CouplingFlowModel.init_random(2, Rng(0), n_blocks=6, hidden=32)
    tracemalloc.start()
    mc_fim_slice(m, PROBE_LAYERS, Rng(1), 8192)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 24e6
