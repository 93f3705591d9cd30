import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fimscore import baselines, detector
from fimscore.baselines import fit_typicality
from fimscore.detector import fit_detector
from fimscore.errors import DomainError, InsufficientDataError
from fimscore.evaluation import FITS, METHODS, auroc, render_grid, run_pairings
from fimscore.gradfeatures import batch_view, feature_sweep, log_features
from fimscore.models import CouplingFlowModel
from fimscore.numcore import Rng

from gaussian_mle import analytic_mle_gaussian
from pcg_reference import randint

finite_scores = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40)
# integer-valued scores keep strict order exactly representable under
# the affine transforms used in the invariance test
integer_scores = st.lists(
    st.integers(min_value=-10**6, max_value=10**6).map(float),
    min_size=1, max_size=40)


def test_auroc_hand_examples():
    assert auroc([0.0, 1.0], [2.0, 3.0]) == 1.0
    assert auroc([2.0, 3.0], [0.0, 1.0]) == 0.0
    assert auroc([0.0], [0.0]) == 0.5
    # pooled 0,1,1,2 -> tied pair gets average rank 2.5
    assert auroc([0.0, 1.0], [1.0, 2.0]) == 0.875


def test_auroc_matches_quadratic_oracle():
    rng = Rng(40)
    for _ in range(100):
        n_in = 1 + randint(rng, 12)
        n_out = 1 + randint(rng, 12)
        # integer scores force plenty of ties
        a = np.array([float(randint(rng, 6)) for _ in range(n_in)])
        b = np.array([float(randint(rng, 6)) for _ in range(n_out)])
        pairwise = np.mean(
            (b[None, :] > a[:, None]) + 0.5 * (b[None, :] == a[:, None])
        )
        assert abs(auroc(a, b) - pairwise) < 1e-12


@given(finite_scores, finite_scores)
@settings(max_examples=60, deadline=None)
def test_auroc_complement_identity(a, b):
    assert abs(auroc(a, b) + auroc(b, a) - 1.0) < 1e-12


@given(integer_scores, integer_scores)
@settings(max_examples=60, deadline=None)
def test_auroc_monotone_invariance(a, b):
    base = auroc(a, b)
    f = lambda x: 3.0 * np.asarray(x) + 7.0
    assert abs(auroc(f(a), f(b)) - base) < 1e-12


def rank_sum_auroc(scores_in, scores_out):
    """The earlier rank-sum form: average ranks of the pooled scores, U off
    the out-scores' rank sum."""
    a = np.asarray(scores_in, dtype=np.float64)
    b = np.asarray(scores_out, dtype=np.float64)
    _, run, counts = np.unique(np.concatenate([a, b]), return_inverse=True,
                               return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[run]
    rank_sum_out = float(ranks[a.size :].sum())
    u_out = rank_sum_out - b.size * (b.size + 1) / 2.0
    return u_out / (a.size * b.size)


# small integer values (and both zeros) so that ties are common
tied_scores = st.lists(
    st.one_of(st.integers(min_value=-4, max_value=4).map(float),
              st.sampled_from([0.0, -0.0])),
    min_size=1, max_size=30)


@given(tied_scores, tied_scores)
@settings(max_examples=200, deadline=None)
def test_auroc_equals_rank_sum_form_bit_for_bit(a, b):
    assert auroc(a, b) == rank_sum_auroc(a, b)
    assert type(auroc(a, b)) is float


@pytest.mark.parametrize("a,b", [
    ([0.0], [-0.0]), ([-0.0], [0.0, -0.0, 1.0]), ([0.0, -0.0], [-0.0]),
    ([1.0], [1.0]), ([2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 2.0, 3.0], [2.0]),
    ([-0.0, 0.0, 5.0], [0.0, -1.0]),
])
def test_auroc_signed_zeros_and_one_element_sides(a, b):
    assert auroc(a, b) == rank_sum_auroc(a, b)
    assert auroc(b, a) == rank_sum_auroc(b, a)


def test_auroc_validation():
    with pytest.raises(InsufficientDataError):
        auroc([], [1.0])
    with pytest.raises(DomainError):
        auroc([float("nan")], [1.0])
    # a side that is not 1-D is refused, naming both shapes
    with pytest.raises(DomainError, match=r"got shapes \(2, 2\) and \(1, 2\)"):
        auroc([[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6]])
    with pytest.raises(DomainError, match=r"got shapes \(\) and \(1,\)"):
        auroc(0.1, [0.5])


def test_auroc_null_near_half():
    rng = Rng(41)
    a = rng.normals(200)
    b = rng.normals(200)
    # same distribution on both sides: 3 standard errors around 1/2
    assert abs(auroc(a, b) - 0.5) < 3.0 * 0.0289


def _two_gaussian_setup(n=600):
    rng = Rng(42)
    near = rng.normals(2 * n).reshape(n, 2)
    far = 5.0 + rng.normals(2 * n).reshape(n, 2)
    entries = {}
    evals = {}
    for name, rows in (("near", near), ("far", far)):
        fit, ev = rows[: n // 2], rows[n // 2 :]
        entries[name] = (analytic_mle_gaussian(fit), fit)
        evals[name] = ev
    return entries, evals


def test_run_pairings_structure_and_separation():
    entries, evals = _two_gaussian_setup()
    reports = run_pairings(entries, evals, batch_sizes=[1, 2],
                           n_eval_batches=50, seed=0)
    assert [r.train for r in reports] == ["far", "near"]
    for r in reports:
        assert set(r.metadata) >= {"seed", "batch_sizes", "methods",
                                   "model_checksum", "n_fit_rows"}
        assert len(r.rows) == 1 * len(METHODS) * 2  # one test row, two sizes
        for row in r.rows:
            assert row["method"] in METHODS
            assert 0.0 <= row["auroc"] <= 1.0
            assert row["n_in"] == 50 and row["n_out"] == 50
    # distributions 5 sigma apart: likelihood separates them essentially
    # perfectly at either batch size
    near_report = [r for r in reports if r.train == "near"][0]
    lik = [row["auroc"] for row in near_report.rows
           if row["method"] == "likelihood"]
    assert min(lik) > 0.95


def test_run_pairings_deterministic_and_order_free():
    entries, evals = _two_gaussian_setup()
    a = run_pairings(entries, evals, batch_sizes=[2], n_eval_batches=20, seed=3)
    flipped_entries = dict(reversed(list(entries.items())))
    flipped_evals = dict(reversed(list(evals.items())))
    b = run_pairings(flipped_entries, flipped_evals, batch_sizes=[2],
                     n_eval_batches=20, seed=3)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    # two models of one dimension: each report is its model's run alone
    entries, evals = _two_flow_setup()
    both = run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=20)
    for report in both:
        alone = run_pairings({report.train: entries[report.train]}, evals,
                             batch_sizes=[1, 5], n_eval_batches=20)
        assert [r.to_json() for r in alone] == [report.to_json()]


def test_run_pairings_thin_fit_split_skips_column():
    entries, evals = _two_gaussian_setup()
    model, fit = entries["near"]
    entries["near"] = (model, fit[:5])  # one batch of 5, below the minimum
    reports = run_pairings(entries, evals, batch_sizes=[5], n_eval_batches=10)
    near = [r for r in reports if r.train == "near"][0]
    assert all(row["auroc"] is None for row in near.rows)
    assert all("need >= 2" in row["skipped"] for row in near.rows)


def test_run_pairings_thin_eval_split_skips_only_its_cells():
    entries, evals = _two_gaussian_setup()
    evals["far"] = evals["far"][:200]
    evals["near"] = evals["near"][:3]  # no batch of size 5
    reports = {r.train: r for r in run_pairings(
        entries, evals, batch_sizes=[1, 5], n_eval_batches=10)}
    for train in ("far", "near"):
        rows = reports[train].rows
        assert len(rows) == len(METHODS) * 2
        for row in rows:
            if row["batch_size"] == 1:
                assert row["auroc"] is not None
            else:
                # far: the thin test row is skipped; near: its own in-
                # distribution split is thin, so the whole column is
                assert row["auroc"] is None
                assert row["skipped"] == \
                    "eval split 'near' with 3 rows yields no batch of size 5"


def test_run_pairings_one_dimensional_split_skips_only_its_cells():
    """A 1-D eval split, or 1-D fit rows, is refused by batch_view with a
    DomainError naming it: the grid skips the cells that read it and
    scores every other cell."""
    entries, evals = _two_gaussian_setup()
    evals["flat"] = evals["far"][:, 0].copy()
    runs = [run_pairings(entries, evals, batch_sizes=[5], n_eval_batches=10)]
    entries["near"] = (entries["near"][0], entries["near"][1][:, 0].copy())
    runs.append(run_pairings(entries, evals, batch_sizes=[5], n_eval_batches=10))
    for k, reports in enumerate(runs):
        for report in reports:
            for row in report.rows:
                if k == 1 and report.train == "near":
                    assert row["skipped"] == \
                        "fit split of 'near' must be 2-D (rows, dim), got shape (300,)"
                elif row["test"] == "flat":
                    assert row["skipped"] == \
                        "eval split 'flat' must be 2-D (rows, dim), got shape (300,)"
                else:
                    assert 0.0 <= row["auroc"] <= 1.0


def test_run_pairings_zero_dimensional_fit_rows_skip_their_column():
    """0-D fit rows hold no row: their column's cells are skipped, naming the
    fit split, and the other column is scored."""
    entries, evals = _two_gaussian_setup()
    entries["near"] = (entries["near"][0], np.float64(3.0))
    for methods in (tuple(METHODS), ("typicality",)):
        reports = {r.train: r for r in run_pairings(entries, evals, batch_sizes=[5],
                                                    n_eval_batches=10, methods=methods)}
        assert reports["near"].metadata["n_fit_rows"] == 0
        assert all(row["auroc"] is None and row["skipped"] ==
                   "fit split of 'near' must be 2-D (rows, dim), got shape ()"
                   for row in reports["near"].rows)
        assert all(row["auroc"] is not None for row in reports["far"].rows)


def test_run_pairings_wrong_width_split_names_it():
    """A split of another width than the model's is skipped naming the split
    and its own shape, not the shape of the batches cut from it."""
    entries, evals = _two_gaussian_setup()
    evals["wide"] = np.zeros((25, 3))
    runs = [run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=10)]
    entries["near"] = (entries["near"][0], np.zeros((40, 3)))
    for methods in (tuple(METHODS), ("typicality",)):
        runs.append(run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=10,
                                 methods=methods))
    for k, reports in enumerate(runs):
        for report in reports:
            for row in report.rows:
                if k >= 1 and report.train == "near":
                    assert row["skipped"] == ("fit split of 'near' must have 2 columns, "
                                              "got shape (40, 3)")
                elif row["test"] == "wide":
                    assert row["skipped"] == ("eval split 'wide' must have 2 columns, "
                                              "got shape (25, 3)")
                else:
                    assert 0.0 <= row["auroc"] <= 1.0


def _two_flow_setup():
    entries, evals = {}, {}
    for k, (name, shift) in enumerate((("near", 0.0), ("far", 5.0))):
        rows = shift + Rng(50 + k).normals(1200).reshape(600, 2)
        model = CouplingFlowModel.init_random(2, Rng(60 + k), n_blocks=2, hidden=8)
        entries[name], evals[name] = (model, rows[:300]), rows[300:]
    return entries, evals


def _count_flow_passes(monkeypatch):
    """Counts of the flows' factor_sweep and log_likelihood_batch calls."""
    calls = {"factor_sweep": 0, "log_likelihood_batch": 0}
    for name in calls:
        original = getattr(CouplingFlowModel, name)

        def counted(self, x, name=name, original=original):
            calls[name] += 1
            return original(self, x)

        monkeypatch.setattr(CouplingFlowModel, name, counted)
    return calls


def test_run_pairings_sweeps_each_batch_set_once(monkeypatch):
    """One factor_sweep per batch set: per column, one of its fit split for
    every batch size and H_hat; per column and batch size, its own eval
    split and the other one. No likelihood pass. Neither count grows with
    the number of eval batches. Flows keep the two counts apart: a
    Gaussian's likelihood pass is itself a factor_sweep."""
    entries, evals = _two_flow_setup()
    calls = _count_flow_passes(monkeypatch)
    for n_batches in (10, 50):
        calls.update(factor_sweep=0, log_likelihood_batch=0)
        reports = run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=n_batches)
        assert all(row["auroc"] is not None for r in reports for row in r.rows)
        assert calls == {"factor_sweep": 2 * (1 + 2 * 2), "log_likelihood_batch": 0}


def _spy_fits(monkeypatch):
    """The (log features, detector) of every fit_detector call, and every
    H_hat that typicality_score reads, in call order."""
    fitted, h_hats = [], []
    fit, score = detector.fit_detector, baselines.typicality_score

    def fit_spy(logf):
        fitted.append((logf, fit(logf)))
        return fitted[-1][1]

    monkeypatch.setattr(detector, "fit_detector", fit_spy)
    monkeypatch.setattr(baselines, "typicality_score",
                        lambda h_hat, ll: h_hats.append(h_hat) or score(h_hat, ll))
    return fitted, h_hats


def test_run_pairings_fit_split_sweep_gives_the_per_size_fits(monkeypatch):
    """A one-chunk fit split, swept once for B = 1, 5 and 25: each size's
    detector and H_hat are bit for bit those fit from that size's own
    feature sweep of its batches and from the likelihood pass of the rows."""
    entries, evals = _two_flow_setup()
    fitted, h_hats = _spy_fits(monkeypatch)
    run_pairings(entries, evals, batch_sizes=[1, 5, 25], n_eval_batches=10)
    for k, name in enumerate(sorted(entries)):  # columns in name order
        model, fit_rows = entries[name]
        for (_, got), size in zip(fitted[3 * k:3 * k + 3], (1, 5, 25)):
            rows = batch_view(fit_rows, size).reshape(-1, model.dim)
            want = fit_detector(log_features(feature_sweep(model, rows, [size])[0]))
            assert np.array_equal(got.mu, want.mu) and np.array_equal(got.sigma2, want.sigma2)
            assert got.n_fit == want.n_fit == len(fit_rows) // size
        assert set(h_hats[6 * k:6 * k + 6]) == {fit_typicality(model, fit_rows)}


def test_run_pairings_fit_split_remainder_rows(monkeypatch):
    """303 fit rows at B = 1 and 5: B = 1 fits on all of them, B = 5 on 60
    batches of the first 300, with features within 1e-12 relative of each
    size's own sweep (ln f within 1e-12 absolute)."""
    entries, evals = _two_flow_setup()
    model, fit_rows = entries["near"]
    fit_rows = np.vstack([fit_rows, evals["near"][:3]])
    fitted, _ = _spy_fits(monkeypatch)
    run_pairings({"near": (model, fit_rows)}, evals, batch_sizes=[1, 5], n_eval_batches=10)
    for (logf, det), size in zip(fitted, (1, 5)):
        assert det.n_fit == 303 // size
        rows = fit_rows[:303 // size * size]
        want = log_features(feature_sweep(model, rows, [size])[0])
        np.testing.assert_allclose(logf, want, rtol=0, atol=1e-12)


def test_run_pairings_one_fit_batch_reads_the_shared_pass(monkeypatch):
    """9 fit rows at B = 1 and 5 take one fit-split factor_sweep: B = 1's detector
    is bit for bit the one fit from its own sweep, and B = 5, one batch, reads the
    same pass and is refused by fit_detector, skipping its cells."""
    entries, evals = _two_flow_setup()
    model, fit_rows = entries["near"][0], entries["near"][1][:9]
    swept = []
    sweep = CouplingFlowModel.factor_sweep
    monkeypatch.setattr(CouplingFlowModel, "factor_sweep",
                        lambda self, x: swept.append(len(x)) or sweep(self, x))
    fitted, _ = _spy_fits(monkeypatch)
    [report] = run_pairings({"near": (model, fit_rows)}, evals, batch_sizes=[1, 5],
                            n_eval_batches=10, methods=("ours", "fisher"))
    assert swept == [9, 10, 10]  # the fit split, then B = 1's near and far eval batches
    [(_, got)] = fitted
    want = fit_detector(log_features(feature_sweep(model, fit_rows, [1])[0]))
    assert np.array_equal(got.mu, want.mu) and np.array_equal(got.sigma2, want.sigma2)
    for row in report.rows:
        if row["batch_size"] == 1:
            assert 0.0 <= row["auroc"] <= 1.0
        else:
            assert row["auroc"] is None
            assert row["skipped"] == "need >= 2 fit batches to estimate variances, got 1"


def test_run_pairings_fit_split_without_a_batch_of_one_size(monkeypatch):
    """7 fit rows at B = 1 and 9: the feature sweep refuses the shared pass before
    any model pass, so B = 1 passes its own batches and is scored, and B = 9 is
    skipped naming the fit split. H_hat needs no batch: a typicality-only grid
    fits it from the one likelihood pass of every fit row and scores both sizes."""
    entries, evals = _two_flow_setup()
    model, fit_rows = entries["near"][0], entries["near"][1][:7]
    calls = _count_flow_passes(monkeypatch)
    [report] = run_pairings({"near": (model, fit_rows)}, evals, batch_sizes=[1, 9],
                            n_eval_batches=10, methods=("ours",))
    assert calls == {"factor_sweep": 1 + 2, "log_likelihood_batch": 0}
    assert [row["auroc"] is None for row in report.rows] == [False, True]
    assert report.rows[1]["skipped"] == "fit split of 'near' with 7 rows yields no batch of size 9"
    _, h_hats = _spy_fits(monkeypatch)
    calls.update(factor_sweep=0)
    [report] = run_pairings({"near": (model, fit_rows)}, evals, batch_sizes=[1, 9],
                            n_eval_batches=10, methods=("typicality",))
    assert calls == {"factor_sweep": 0, "log_likelihood_batch": 1 + 2 * 2}
    assert all(0.0 <= row["auroc"] <= 1.0 for row in report.rows)
    assert set(h_hats) == {fit_typicality(model, fit_rows)}


def test_run_pairings_fit_errors_stop_only_their_batch_size():
    """When the shared fit sweep fails, each batch size sweeps its own
    batches: B = 5 log_sigma sums that overflow skip only B = 5, and a NaN
    in the rows past the last batch of 5 skips only B = 1, each with the
    error of that size's own sweep."""
    entries, evals = _two_gaussian_setup()
    model, fit_rows = entries["near"]
    huge = fit_rows.copy()
    huge[5:10, 0] = 1e307 ** 0.25  # (z^2 - 1)^2 finite per row, (5 z^2)^2 is not
    tail_nan = np.vstack([fit_rows, [[0.0, np.nan]]])
    for rows, methods, bad_size, message in (
            (huge, tuple(METHODS), 5,
             "layer 'log_sigma' has non-finite entries in the group of input rows 5 to 9"),
            (tail_nan, ("ours",), 1, "input point 300 has a non-finite value in column 1")):
        entries["near"] = (model, rows)
        reports = {r.train: r for r in run_pairings(
            entries, evals, batch_sizes=[1, 5], n_eval_batches=10, methods=methods)}
        for row in reports["near"].rows:
            if row["batch_size"] == bad_size:
                assert row["auroc"] is None and row["skipped"] == message
            else:
                assert row["auroc"] is not None
        assert all(row["auroc"] is not None for row in reports["far"].rows)


@pytest.mark.parametrize("methods", [("likelihood",), ("typicality", "likelihood")])
def test_run_pairings_non_finite_score_skips_only_its_cells(methods):
    """An eval row with a finite input but a log-likelihood of -inf gives
    its batches a score that is not finite: the cells that read that split
    are skipped with auroc's reason, and every other cell is scored as in a
    run without that split."""
    entries, evals = _two_gaussian_setup()
    without = run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=10,
                           methods=methods)
    evals["overflow"] = evals["far"][:10].copy()  # sorts last; 10 rows, all read
    evals["overflow"][3] = (1e200, 0.0)
    reports = run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=10,
                           methods=methods)
    for got, want in zip(reports, without):
        assert [row for row in got.rows if row["test"] != "overflow"] == want.rows
        bad = [row for row in got.rows if row["test"] == "overflow"]
        assert len(bad) == 2 * len(methods)
        for row in bad:
            assert row["auroc"] is None
            assert re.fullmatch(r"scores_out entry \d+ is not finite", row["skipped"])


@pytest.mark.parametrize("n_fit,near_eval,methods,passes", [
    # one fit batch per size: the shared sweep serves both sizes, and
    # fit_detector refuses each
    (9, "whole", tuple(METHODS), {"factor_sweep": 1, "log_likelihood_batch": 0}),
    # no eval batch of either size: only the shared fit pass is made
    (300, "thin", tuple(METHODS), {"factor_sweep": 1, "log_likelihood_batch": 0}),
    # an in-distribution pass that fails: H_hat, then one pass per size
    (300, "nan", ("typicality", "likelihood"), {"factor_sweep": 0, "log_likelihood_batch": 3}),
])
def test_run_pairings_failing_column_passes_once_per_size(monkeypatch, n_fit, near_eval,
                                                          methods, passes):
    """A column that fails costs at most one fit pass and one in-distribution
    pass per batch size, however many test splits it has."""
    entries, evals = _two_flow_setup()
    model, fit_rows = entries["near"]
    if near_eval == "thin":
        evals["near"] = evals["near"][:3]
    elif near_eval == "nan":
        evals["near"] = np.where(np.arange(2) == 1, np.nan, evals["near"])
    calls = _count_flow_passes(monkeypatch)
    for n_tests in (1, 4):
        splits = {**evals, **{f"test{k}": evals["far"] for k in range(1, n_tests)}}
        calls.update(factor_sweep=0, log_likelihood_batch=0)
        [report] = run_pairings({"near": (model, fit_rows[:n_fit])}, splits,
                                batch_sizes=[5, 9], n_eval_batches=10, methods=methods)
        assert len(report.rows) == n_tests * 2 * len(methods)
        assert all(row["auroc"] is None for row in report.rows)
        assert calls == passes


@pytest.mark.parametrize("methods,passes", [
    (("likelihood",), 2 * 2 * 2),  # per column and batch size: two eval sets
    (("typicality", "likelihood"), 2 * 2 * 2 + 2),  # plus H_hat per column
])
def test_run_pairings_subset_fits_and_sweeps_only_its_methods(monkeypatch, methods,
                                                             passes):
    """Without "ours" or "fisher" no detector is fit and no batch set gets a
    factor_sweep: one likelihood pass per batch set scores it. The rows are
    the full run's rows for those methods, bit for bit."""
    entries, evals = _two_flow_setup()
    full = run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=50)
    calls = _count_flow_passes(monkeypatch)
    subset = run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=50,
                          methods=methods)
    assert calls == {"factor_sweep": 0, "log_likelihood_batch": passes}
    for got, want in zip(subset, full):
        assert got.rows == [row for row in want.rows if row["method"] in methods]
        assert all(row["auroc"] is not None for row in got.rows)


def test_run_pairings_likelihood_alone_scores_a_thin_fit_split():
    """A fit split too thin for a detector skips the full grid's column,
    but the likelihood score reads no fit: a likelihood-only run scores
    those cells, as a run with the whole fit split does."""
    entries, evals = _two_flow_setup()
    whole = run_pairings(entries, evals, batch_sizes=[5], n_eval_batches=10)
    model, fit = entries["near"]
    entries["near"] = (model, fit[:5])  # one batch of 5, below the minimum
    full = run_pairings(entries, evals, batch_sizes=[5], n_eval_batches=10)
    assert [r.train for r in full] == ["far", "near"]
    assert all("need >= 2" in row["skipped"] for row in full[1].rows)
    alone = run_pairings(entries, evals, batch_sizes=[5], n_eval_batches=10,
                         methods=("likelihood",))
    for got, want in zip(alone, whole):
        assert got.rows == [row for row in want.rows if row["method"] == "likelihood"]
        assert all(0.0 <= row["auroc"] <= 1.0 for row in got.rows)


def test_run_pairings_non_finite_h_hat_names_the_fit_split():
    """A fit row with a finite input but a log-likelihood of -inf makes H_hat
    non-finite: its one function refuses it naming the fit split and the row,
    so each typicality cell of that column is skipped with that reason, not
    as a non-finite eval score, and the other column is scored."""
    entries, evals = _two_gaussian_setup()
    model, fit = entries["near"]
    entries["near"] = (model, fit.copy())
    entries["near"][1][7] = (1e200, 0.0)
    reports = {r.train: r for r in run_pairings(entries, evals, batch_sizes=[1, 5],
                                                n_eval_batches=10, methods=("typicality",))}
    assert len(reports["near"].rows) == 2
    for row in reports["near"].rows:
        assert row["auroc"] is None
        assert row["skipped"] == "fit split of 'near': the log-likelihood of row 7 is not finite"
    assert all(row["auroc"] is not None for row in reports["far"].rows)


# statistic -> (a toy fit of a fit split's statistic, a toy score of a batch set's)
_TOYS = {
    "logf": (lambda logf: logf.mean(axis=0), lambda mu, logf: np.abs(logf - mu).sum(axis=1)),
    "ll": (lambda ll: float(np.median(ll)), lambda med, ll: np.abs(np.median(ll, axis=-1) - med)),
}


def _add_toy(monkeypatch, stat):
    """Adds, for this test only, a fit kind "toy_fit" to FITS and a method "toy"
    reading it to METHODS, both on statistic ``stat``; returns every statistic
    the toy fit is given, in call order."""
    fit, score = _TOYS[stat]
    given = []
    monkeypatch.setitem(FITS, "toy_fit", (stat, lambda v, source: given.append(v) or fit(v)))
    monkeypatch.setitem(METHODS, "toy", ("toy_fit", stat, score))
    return given


@pytest.mark.parametrize("stat,passes", [
    ("logf", {"factor_sweep": 2 * (1 + 2 * 2), "log_likelihood_batch": 0}),
    ("ll", {"factor_sweep": 0, "log_likelihood_batch": 2 * (1 + 2 * 2)}),
])
def test_run_pairings_fits_and_scores_a_method_added_to_both_tables(monkeypatch, stat, passes):
    """A method and a fit kind added to METHODS and FITS, and nowhere else, are
    fit and scored with the passes of a grid of a built-in method on the same
    statistic: per column, its fit split's one pass, then per batch size its
    fit reads that pass's statistic (one size's log features, or every fit
    row's log-likelihood) and each eval batch set is passed once."""
    entries, evals = _two_flow_setup()
    given = _add_toy(monkeypatch, stat)
    calls = _count_flow_passes(monkeypatch)
    reports = run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=10,
                           methods=("toy",))
    assert calls == passes
    assert all(0.0 <= row["auroc"] <= 1.0 and row["n_in"] == row["n_out"] == 10
               for r in reports for row in r.rows)
    for k, name in enumerate(sorted(entries)):  # columns in name order
        model, fit_rows = entries[name]
        for got, size in zip(given[2 * k:2 * k + 2], (1, 5)):
            rows = batch_view(fit_rows, size).reshape(-1, model.dim)
            want = (log_features(feature_sweep(model, rows, [size])[0]) if stat == "logf"
                    else model.log_likelihood_batch(fit_rows))
            assert np.array_equal(got, want)


def test_run_pairings_fits_an_added_method_from_its_own_pass(monkeypatch):
    """The toy method on log features, with a fit split whose shared pass fails
    on a NaN in the row past the last batch of 5: B = 1 passes its own batches
    and is skipped with that pass's error, B = 5 passes its own whole batches,
    is fit from them and scored; the other column is fit from its shared pass."""
    entries, evals = _two_gaussian_setup()
    model, fit_rows = entries["near"]
    entries["near"] = (model, np.vstack([fit_rows, [[0.0, np.nan]]]))
    given = _add_toy(monkeypatch, "logf")
    reports = {r.train: r for r in run_pairings(entries, evals, batch_sizes=[1, 5],
                                                n_eval_batches=10, methods=("toy",))}
    for row in reports["near"].rows:
        if row["batch_size"] == 1:
            assert row["skipped"] == "input point 300 has a non-finite value in column 1"
        else:
            assert 0.0 <= row["auroc"] <= 1.0
    assert all(row["auroc"] is not None for row in reports["far"].rows)
    assert len(given) == 3  # far at B = 1 and 5, then near at B = 5
    assert np.array_equal(given[2], log_features(feature_sweep(model, fit_rows, [5])[0]))


def test_run_pairings_validation():
    entries, evals = _two_gaussian_setup()
    with pytest.raises(InsufficientDataError):
        run_pairings(entries, {"near": evals["near"]})
    with pytest.raises(DomainError):
        run_pairings(entries, evals, methods=("ours", "nope"))
    # two eval splits present, but the trained "far" column has none
    missing = {"near": evals["near"], "other": evals["near"]}
    with pytest.raises(DomainError):
        run_pairings(entries, missing)
    with pytest.raises(DomainError, match="batch sizes must be distinct, 5 repeats"):
        run_pairings(entries, evals, batch_sizes=[5, 1, 5])
    with pytest.raises(DomainError, match="methods must be distinct, 'ours' repeats"):
        run_pairings(entries, evals, methods=("ours", "ours"))
    for kwargs in ({"batch_sizes": [1, 2.5]}, {"batch_sizes": [True]},
                   {"batch_sizes": [np.float64(5)]}, {"batch_sizes": ["5"]},
                   {"n_eval_batches": 2.5}, {"n_eval_batches": True},
                   {"seed": 2.5}, {"seed": True}, {"seed": "3"}):
        with pytest.raises(DomainError, match="must be an integer, got"):
            run_pairings(entries, evals, **kwargs)
    for kwargs in ({"batch_sizes": []}, {"methods": ()}):
        with pytest.raises(DomainError, match="must not be empty"):
            run_pairings(entries, evals, **kwargs)


def test_run_pairings_rejects_eval_batch_count_below_one():
    entries, evals = _two_gaussian_setup()
    for n_batches in (0, -1):
        with pytest.raises(DomainError, match="eval batch count"):
            run_pairings(entries, evals, n_eval_batches=n_batches)


def test_run_pairings_stores_numpy_integers_as_int():
    entries, evals = _two_gaussian_setup()
    got = run_pairings(entries, evals, batch_sizes=np.array([2, 1]),
                       n_eval_batches=np.int64(10), seed=np.int64(3))
    want = run_pairings(entries, evals, batch_sizes=[2, 1], n_eval_batches=10, seed=3)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    assert all(type(r.metadata["seed"]) is int for r in got)
    assert all(type(row["batch_size"]) is int for r in got for row in r.rows)


def test_render_grid_contents():
    entries, evals = _two_gaussian_setup()
    model, fit = entries["near"]
    entries["near"] = (model, fit[:1])  # one fit batch: too thin to calibrate
    reports = run_pairings(entries, evals, batch_sizes=[1], n_eval_batches=10)
    grid = render_grid(reports, "likelihood", 1)
    assert "method=likelihood B=1" in grid
    assert "far" in grid and "near" in grid
    assert "-----" in grid  # skipped cell placeholder
    lines = grid.strip().split("\n")
    assert len(lines) == 2 + 1 + 2  # header, column row, rule, two test rows


def test_render_grid_filters_by_batch_size():
    entries, evals = _two_gaussian_setup()
    reports = run_pairings(entries, evals, batch_sizes=[1, 2],
                           n_eval_batches=10)
    g1 = render_grid(reports, "ours", 1)
    g2 = render_grid(reports, "ours", 2)
    assert g1 != g2 and "B=1" in g1 and "B=2" in g2
