import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fimscore.errors import DomainError, InsufficientDataError
from fimscore.evaluation import METHODS, auroc, render_grid, run_pairings
from fimscore.models import DiagGaussianModel
from fimscore.numcore import Rng
from fimscore.trainer import analytic_mle_gaussian

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
        n_in = 1 + rng.randint(12)
        n_out = 1 + rng.randint(12)
        # integer scores force plenty of ties
        a = np.array([float(rng.randint(6)) for _ in range(n_in)])
        b = np.array([float(rng.randint(6)) for _ in range(n_out)])
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


def test_auroc_validation():
    with pytest.raises(InsufficientDataError):
        auroc([], [1.0])
    with pytest.raises(DomainError):
        auroc([float("nan")], [1.0])


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


def test_run_pairings_missing_checkpoint_skips_cells():
    entries, evals = _two_gaussian_setup()
    entries["near"] = (None, entries["near"][1])
    reports = run_pairings(entries, evals, batch_sizes=[1], n_eval_batches=10)
    near = [r for r in reports if r.train == "near"][0]
    assert near.metadata["model_checksum"] == ""
    assert all(row["auroc"] is None for row in near.rows)
    assert all(row["skipped"] == "missing checkpoint" for row in near.rows)
    far = [r for r in reports if r.train == "far"][0]
    assert all(row["auroc"] is not None for row in far.rows)


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


def test_run_pairings_scores_each_batch_set_in_one_call(monkeypatch):
    """Likelihood calls per grid do not grow with the number of batches."""
    entries, evals = _two_gaussian_setup()
    calls = []
    original = DiagGaussianModel.log_likelihood_batch

    def counted(self, x):
        calls.append(len(x))
        return original(self, x)

    monkeypatch.setattr(DiagGaussianModel, "log_likelihood_batch", counted)
    counts = []
    for n_batches in (10, 50):
        calls.clear()
        run_pairings(entries, evals, batch_sizes=[1, 5], n_eval_batches=n_batches)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


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


def test_run_pairings_rejects_eval_batch_count_below_one():
    entries, evals = _two_gaussian_setup()
    for n_batches in (0, -1):
        with pytest.raises(DomainError, match="eval batch count"):
            run_pairings(entries, evals, n_eval_batches=n_batches)


def test_render_grid_contents():
    entries, evals = _two_gaussian_setup()
    entries["near"] = (None, entries["near"][1])
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
