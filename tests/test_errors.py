"""The shared argument checks: require_int for counts and require_finite for
arrays, and that every count and every non-finite scan in the package goes
through them."""

import json
import math
import pathlib
import re

import numpy as np
import pytest

import fimscore
from fimscore.data import (checkerboard, gauss_grid, generate, rings, save_csv, save_dmat,
                           two_moons, uniform_square)
from fimscore.detector import (fisher_method_score, fit_detector, load_detector,
                               ood_score)
from fimscore.errors import (DatasetFormatError, DomainError, NonFiniteError,
                             require_finite, require_int)
from fimscore.evaluation import auroc
from fimscore.fim import mc_fim_slice, sherman_morrison_score
from fimscore.models import (CouplingFlowModel, DiagGaussianModel, LayeredParams, sample,
                             sweep_chunks)
from fimscore.numcore import Rng
from fimscore.representation import AffineTransform, tv_log_volume, tv_volume_mc

GAUSS = DiagGaussianModel.standard(2)
FLOW_PARAMS = CouplingFlowModel.init_random(2, Rng(0), n_blocks=1, hidden=3).params

COUNTS = {
    "two_moons n": ("n", lambda v: two_moons(v, Rng(0))),
    "rings n": ("n", lambda v: rings(v, Rng(0))),
    "gauss_grid n": ("n", lambda v: gauss_grid(v, Rng(0))),
    "gauss_grid k": ("k", lambda v: gauss_grid(10, Rng(0), k=v)),
    "checkerboard n": ("n", lambda v: checkerboard(v, Rng(0))),
    "checkerboard cells": ("cells", lambda v: checkerboard(10, Rng(0), cells=v)),
    "uniform_square n": ("n", lambda v: uniform_square(v, Rng(0))),
    "generate n": ("n", lambda v: generate("two_moons", v, 0)),
    "generate seed": ("seed", lambda v: generate("two_moons", 100, v)),
    "sample n": ("sample count", lambda v: sample(GAUSS, Rng(0), v)),
    "mc_fim_slice n": ("sample count", lambda v: mc_fim_slice(GAUSS, ["mu"], Rng(0), v)),
    "flow dim": ("flow dimension", lambda v: CouplingFlowModel.init_random(v, Rng(0))),
    "flow n_blocks": ("n_blocks",
                      lambda v: CouplingFlowModel.init_random(2, Rng(0), n_blocks=v)),
    "flow hidden": ("hidden", lambda v: CouplingFlowModel.init_random(2, Rng(0), hidden=v)),
    "flow constructor n_blocks": ("n_blocks",
                                  lambda v: CouplingFlowModel(2, FLOW_PARAMS, v, 3)),
    "tv_log_volume d": ("dimension", lambda v: tv_log_volume(1.0, v)),
    "tv_volume_mc d": ("dimension", lambda v: tv_volume_mc(1.0, v, Rng(0), 100)),
    "tv_volume_mc n": ("sample count", lambda v: tv_volume_mc(1.0, 2, Rng(0), v)),
    "Rng seed": ("seed", lambda v: Rng(v)),
    "Rng stream": ("stream", lambda v: Rng(0, stream=v)),
    "Rng child index": ("child index", lambda v: Rng(0).child(v)),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("case", sorted(COUNTS))
def test_count_arguments_refuse_non_integers(case, value):
    name, call = COUNTS[case]
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)


DRAW_COUNTS = {  # case: (name, lowest count, call)
    "Rng.uniforms": ("uniform count", 0, lambda v: Rng(0).uniforms(v)),
    "Rng.normals": ("normal count", 0, lambda v: Rng(0).normals(v)),
    "Rng.permutation": ("permutation length", 0, lambda v: Rng(0).permutation(v)),
    "DiagGaussianModel.sample": ("sample count", 1, lambda v: GAUSS.sample(Rng(0), v)),
    "CouplingFlowModel.sample": ("sample count", 1,
                                 lambda v: CouplingFlowModel(2, FLOW_PARAMS, 1, 3).sample(Rng(0), v)),
}


@pytest.mark.parametrize("value", [2.5, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("case", sorted(DRAW_COUNTS))
def test_draw_counts_are_checked_where_they_are_drawn(case, value):
    """Counts that reach an Rng draw or a model's own sample directly, not
    through models.sample, are refused there naming the count. An Rng draw of
    0 is empty; a model draws at least one sample."""
    name, low, call = DRAW_COUNTS[case]
    want = (f"^{name} must be >= {low}, got -1$" if value == -1
            else f"^{name} must be an integer, got {value!r}$")
    with pytest.raises(DomainError, match=want):
        call(value)
    if low:
        with pytest.raises(DomainError, match=f"^{name} must be >= 1, got 0$"):
            call(0)
    else:
        assert call(0).shape == (0,)


def test_require_int_bounds_and_types():
    got = require_int(np.int64(3), "k", 1)
    assert got == 3 and type(got) is int
    with pytest.raises(DomainError, match="^k must be >= 1, got 0$"):
        require_int(0, "k", 1)
    for bad in (2.0, "2", None, np.float64(2.0), False):
        with pytest.raises(DomainError, match="^k must be an integer, got "):
            require_int(bad, "k", 1)


def test_require_finite_names_the_first_entry_in_row_order():
    def fail(index):
        return DomainError(f"at {index}")

    for arr in (np.zeros(0), np.zeros((3, 0)), np.arange(6.0).reshape(2, 3), np.float64(2.0)):
        require_finite(arr, fail)
    x = np.zeros((3, 4))
    x[1, 3], x[2, 0] = np.nan, -np.inf  # row order names (1, 3), not column 0
    with pytest.raises(DomainError, match=r"^at \(1, 3\)$"):
        require_finite(x, fail)
    with pytest.raises(DomainError, match=r"^at \(\)$"):
        require_finite(np.float64(np.inf), fail)
    with pytest.raises(DomainError, match=r"^at \(2,\)$"):
        require_finite(np.array([0.0, 1.0, np.nan, np.inf]), fail)


def test_sweep_check_names_the_first_bad_entry_in_row_order():
    """Two rows, each with a bad column: sweep_chunks names the layer of the
    row-order first bad entry, not that of the lowest bad column."""
    params = LayeredParams([("a", np.zeros(2)), ("b", np.zeros(2))])

    def sink(factors, out):
        out[:] = 0.0
        out[0, 3], out[1, 0] = np.nan, np.nan

    with pytest.raises(NonFiniteError, match="^layer 'b' has non-finite entries at input row 0$"):
        sweep_chunks(GAUSS, np.zeros((2, 2)), [1], sink, 4, params.layer_of)


def _finite_sites(tmp_path):
    """(name, call, type, message) for each finite site that names a location."""
    x = np.zeros((4, 2))
    x[2, 1] = np.nan
    det = fit_detector(np.array([[0.0, 1.0], [1.0, 0.0]]))
    det_path = str(tmp_path / "det.json")
    with open(det_path, "w") as fh:
        json.dump({"mu": [0.0, 1.0], "sigma2": [1.0, float("inf")], "n_fit": 2,
                   "batch_size": 1, "layer_names": ["a", "b"], "model_checksum": "x"}, fh)
    with np.errstate(over="ignore", invalid="ignore"):
        pts = two_moons(100, Rng(0), noise=1e308)
    first = int(np.argwhere(~np.isfinite(pts))[0][0])
    return [
        ("_as_batch", lambda: GAUSS.log_likelihood_batch(x), NonFiniteError,
         "^input point 2 has a non-finite value in column 1$"),
        ("LayeredParams", lambda: LayeredParams([("a", [1.0]), ("b", [0.0, np.inf])]),
         NonFiniteError, "^layer 'b' has non-finite entries$"),
        ("save_dmat", lambda: save_dmat(str(tmp_path / "m.dmat"), np.array([[0], [np.inf]])),
         DatasetFormatError, "non-finite value inf .* at row 1, column 0$"),
        ("save_csv", lambda: save_csv(str(tmp_path / "m.csv"), np.array([[0, 1], [2, -np.inf]])),
         DatasetFormatError, "m.csv' has non-finite value -inf .* at row 2, column 1$"),
        ("generate", lambda: generate("two_moons", 100, 0, noise=1e308), DomainError,
         f"gives non-finite points, first at row {first}$"),
        ("fit_detector", lambda: fit_detector(np.array([[0.0, 1.0], [0.0, np.nan]])),
         DomainError, "^log feature of batch 1, layer 1 is not finite$"),
        ("ood_score", lambda: ood_score(det, np.array([np.nan, 0.0])), DomainError,
         "^log feature of batch 0, layer 0 is not finite$"),
        ("fisher_method_score", lambda: fisher_method_score(det, np.array([[0.0, 0.0],
                                                                          [0.0, -np.inf]])),
         DomainError, "^log feature of batch 1, layer 1 is not finite$"),
        ("load_detector", lambda: load_detector(det_path), DatasetFormatError,
         "sigma2 entry 1 is not finite$"),
        ("auroc", lambda: auroc([0.0, 1.0], [2.0, np.nan, 3.0]), DomainError,
         "^scores_out entry 1 is not finite$"),
        ("sherman_morrison a0", lambda: sherman_morrison_score([], np.array([1.0, np.nan]),
                                                              np.ones(2)),
         NonFiniteError, "^a0_diag entry 1 is not finite$"),
        ("sherman_morrison samples",
         lambda: sherman_morrison_score([np.ones(2), [0.0, np.inf]], np.ones(2), np.ones(2)),
         NonFiniteError, r"^grad_samples\[1\] is not finite$"),
        ("AffineTransform", lambda: AffineTransform(np.eye(2), np.array([0.0, np.nan])),
         DomainError, r"^affine b\[1\] is not finite$"),
    ]


def test_finite_sites_raise_their_type_with_the_location(tmp_path):
    for name, call, kind, message in _finite_sites(tmp_path):
        with pytest.raises(kind, match=message):
            call()
    assert not (tmp_path / "m.dmat").exists() and not (tmp_path / "m.csv").exists()


def test_detector_scores_refuse_non_finite_features():
    det = fit_detector(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for score in (ood_score, fisher_method_score):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="layer 1 is not finite$"):
                score(det, np.array([0.0, bad]))


def test_isfinite_is_called_only_in_errors():
    src = pathlib.Path(fimscore.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if re.search(r"\bnp\.isfinite\b", p.read_text()))
    assert users == ["errors.py"]


def test_flow_refuses_a_non_finite_clamp():
    for clamp in (math.inf, math.nan, 0.0, True, "5", None):
        with pytest.raises(DomainError, match="^clamp must be positive and finite, got "):
            CouplingFlowModel.init_random(2, Rng(0), n_blocks=1, hidden=3, clamp=clamp)
