import math
import struct

import numpy as np
import pytest

from fimscore.data import (
    GENERATORS,
    TAG_EVAL,
    TAG_FIT,
    TAG_TRAIN,
    checkerboard,
    gauss_grid,
    generate,
    json_text,
    load_csv,
    load_dmat,
    rings,
    save_csv,
    save_dmat,
    two_moons,
    uniform_square,
)
from fimscore.errors import DatasetFormatError, DomainError, NonFiniteError
from fimscore.numcore import Rng


def test_uniform_square_moments():
    pts = uniform_square(50_000, Rng(1), side=2.0)
    assert np.max(np.abs(pts)) <= 1.0
    assert np.max(np.abs(pts.mean(axis=0))) < 0.01
    # variance of U(-1, 1) is 1/3
    assert np.max(np.abs(pts.var(axis=0) - 1.0 / 3.0)) < 0.01


def test_two_moons_noiseless_geometry():
    # every noiseless point lies on one of the two unit circles:
    # centered at the origin (upper) or at (1, 0.5) (lower)
    pts = two_moons(5000, Rng(2), noise=0.0)
    r_upper = np.sum(pts ** 2, axis=1)
    r_lower = np.sum((pts - np.array([1.0, 0.5])) ** 2, axis=1)
    resid = np.minimum(np.abs(r_upper - 1.0), np.abs(r_lower - 1.0))
    assert np.max(resid) < 1e-12
    # both moons are populated
    assert 2000 < np.sum(np.abs(r_upper - 1.0) < 1e-9) < 3000


def test_rings_noiseless_radii():
    pts = rings(4000, Rng(3), radii=(2.0, 3.0), noise=0.0)
    r = np.sqrt(np.sum(pts ** 2, axis=1))
    close = np.minimum(np.abs(r - 2.0), np.abs(r - 3.0))
    assert np.max(close) < 1e-12
    # both rings actually used
    assert np.sum(r < 2.5) > 1000 and np.sum(r > 2.5) > 1000


def test_gauss_grid_centers():
    pts = gauss_grid(20_000, Rng(4), k=2, spacing=4.0, sigma=0.01)
    # with tiny sigma every point sits within a whisker of a center
    centers = np.array([[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]])
    d = np.min(np.linalg.norm(pts[:, None, :] - centers[None], axis=2), axis=1)
    assert np.max(d) < 0.1
    assert abs(pts.mean()) < 0.05  # equal weights -> centered


def test_checkerboard_occupancy():
    pts = checkerboard(20_000, Rng(5), cells=2, side=4.0)
    assert np.max(np.abs(pts)) <= 2.0
    # 2x2 board: black cells are the lower-left and upper-right quadrants
    in_black = ((pts[:, 0] < 0) & (pts[:, 1] < 0)) | ((pts[:, 0] >= 0) &
                                                      (pts[:, 1] >= 0))
    assert np.all(in_black)


def test_generator_parameter_validation():
    with pytest.raises(DomainError):
        two_moons(0, Rng(0))
    with pytest.raises(DomainError):
        two_moons(10, Rng(0), noise=-0.1)
    with pytest.raises(DomainError):
        two_moons(10, Rng(0), noise=float("nan"))
    with pytest.raises(DomainError):
        rings(10, Rng(0), radii=(0.0, 1.0))
    with pytest.raises(DomainError):
        gauss_grid(10, Rng(0), k=0)
    with pytest.raises(DomainError):
        checkerboard(10, Rng(0), cells=1)
    with pytest.raises(DomainError):
        uniform_square(10, Rng(0), side=-1.0)


def test_generate_determinism_and_partition():
    a = generate("rings", 103, seed=9)
    b = generate("rings", 103, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.tags, b.tags)
    c = generate("rings", 103, seed=10)
    assert not np.array_equal(a.points, c.points)

    # ceil split sizes: 83 train, 11 fit, 9 eval
    assert a.rows("train").shape[0] == math.ceil(0.8 * 103)
    assert a.rows("fit").shape[0] == math.ceil(0.1 * 103)
    assert (a.rows("train").shape[0] + a.rows("fit").shape[0]
            + a.rows("eval").shape[0]) == 103


def test_generate_validation():
    with pytest.raises(DomainError):
        generate("nope", 100, seed=0)
    with pytest.raises(DomainError):
        a = generate("rings", 100, seed=0)
        a.rows("test")


def test_all_generators_produce_finite_2d_points():
    for name, gen in GENERATORS.items():
        pts = gen(500, Rng(11))
        assert pts.shape == (500, 2)
        assert np.all(np.isfinite(pts))


def test_dmat_roundtrip_bit_exact(tmp_path):
    path = str(tmp_path / "m.dmat")
    m = Rng(12).normals(60).reshape(20, 3)
    m[0, 0] = -0.0
    m[1, 1] = 1e-310  # subnormal survives the round trip
    save_dmat(path, m)
    back = load_dmat(path)
    assert back.shape == (20, 3)
    assert np.array_equal(m.view(np.uint64), back.view(np.uint64))


def test_dmat_error_messages(tmp_path):
    path = str(tmp_path / "m.dmat")
    save_dmat(path, np.ones((4, 2)))
    blob = open(path, "rb").read()

    with open(path, "wb") as fh:
        fh.write(blob[:-8])  # drop one value
    with pytest.raises(DatasetFormatError) as exc:
        load_dmat(path)
    assert "expected" in str(exc.value) and "4x2" in str(exc.value)

    with open(path, "wb") as fh:
        fh.write(b"XXXX" + blob[4:])
    with pytest.raises(DatasetFormatError):
        load_dmat(path)

    with open(path, "wb") as fh:
        fh.write(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(DatasetFormatError) as exc:
        load_dmat(path)
    assert "version 99" in str(exc.value)

    with open(path, "wb") as fh:
        fh.write(b"DM")
    with pytest.raises(DatasetFormatError):
        load_dmat(path)

    for bad in (np.nan, np.inf, -np.inf):
        m = np.ones((4, 2))
        m[2, 1] = bad
        with pytest.raises(DatasetFormatError) as saved:
            save_dmat(path, m)
        with open(path, "wb") as fh:  # the bytes save_dmat refused to write
            fh.write(blob[:24] + m.astype("<f8").tobytes())
        with pytest.raises(DatasetFormatError) as loaded:
            load_dmat(path)
        for exc in (saved, loaded):
            assert (exc.value.row, exc.value.col) == (2, 1)
            assert "non-finite" in str(exc.value)


def test_json_text_rejects_non_finite():
    assert json_text({"b": [1.5], "a": None}) == '{\n "a": null,\n "b": [\n  1.5\n ]\n}\n'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteError):
            json_text({"x": [1.0, {"y": bad}]})


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "t.csv")
    m = np.array([[1.5, -2.25], [0.0, 1e-17]])
    save_csv(path, m, header=["a", "b"])
    with open(path) as fh:
        assert fh.readline().strip() == "a,b"
    back = load_csv(path)
    assert np.array_equal(back, m)


def test_csv_error_locations(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_csv(path)
    assert exc.value.row == 2

    with open(path, "w") as fh:
        fh.write("a,b\n1.0,zzz\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_csv(path)
    assert exc.value.row == 1 and exc.value.col == 1

    with open(path, "w") as fh:
        fh.write("a,b\n")
    with pytest.raises(DatasetFormatError):
        load_csv(path)

    for cell in ("nan", "inf", "-inf"):
        with open(path, "w") as fh:
            fh.write(f"a,b\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(DatasetFormatError) as exc:
            load_csv(path)
        assert exc.value.row == 2 and exc.value.col == 1
