import errno
import hashlib
import math
import re
import struct
import warnings

import numpy as np
import pytest

from fimscore.data import (
    GENERATORS,
    MAX_GRID_SIDE,
    TAG_EVAL,
    TAG_FIT,
    TAG_TRAIN,
    checkerboard,
    gauss_grid,
    generate,
    json_text,
    load_csv,
    load_dmat,
    read_json,
    recording,
    rings,
    save_csv,
    save_dmat,
    two_moons,
    uniform_square,
    write_atomic,
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


def test_grid_generators_build_only_the_chosen_cells():
    """Both grid generators equal the full-table construction bit for bit
    at small sizes, and a grid far too large to tabulate still yields n
    rows."""
    for k in range(1, 9):
        rng = Rng(k)
        choice = (rng.uniforms(300) * (k * k)).astype(int)
        offs = (np.arange(k) - (k - 1) / 2.0) * 1.5
        centers = np.stack([np.repeat(offs, k), np.tile(offs, k)], axis=1)
        table = centers[choice] + 0.15 * rng.normals(600).reshape(300, 2)
        assert np.array_equal(gauss_grid(300, Rng(k), k=k), table)
    for cells in range(2, 12):
        rng = Rng(cells)
        occ = np.asarray([(i, j) for i in range(cells) for j in range(cells)
                          if (i + j) % 2 == 0], dtype=np.float64)
        pick = (rng.uniforms(300) * len(occ)).astype(int)
        u = np.stack([rng.uniforms(300), rng.uniforms(300)], axis=1)
        cell = 4.0 / cells
        table = occ[pick] * cell - 2.0 + u * cell
        assert np.array_equal(checkerboard(300, Rng(cells), cells=cells), table)
    wide = gauss_grid(200, Rng(0), k=100_000)
    board = checkerboard(200, Rng(0), cells=1_000_000)
    assert wide.shape == board.shape == (200, 2) and np.all(np.isfinite(wide))
    assert np.max(np.abs(board)) <= 2.0


def test_generator_parameter_validation():
    with pytest.raises(DomainError):
        two_moons(0, Rng(0))
    with pytest.raises(DomainError):
        two_moons(10, Rng(0), noise=-0.1)
    with pytest.raises(DomainError):
        two_moons(10, Rng(0), noise=float("nan"))
    with pytest.raises(DomainError):
        rings(10, Rng(0), radii=(0.0, 1.0))
    # a positive, finite scalar is refused for not being a list
    with pytest.raises(DomainError, match=r"^radii must be a non-empty list, got the scalar 1.0$"):
        rings(10, Rng(0), radii=1)
    with pytest.raises(DomainError, match=r"^radii must be a non-empty list, got shape \(0,\)$"):
        rings(10, Rng(0), radii=())
    with pytest.raises(DomainError):
        gauss_grid(10, Rng(0), k=0)
    with pytest.raises(DomainError):
        gauss_grid(10, Rng(0), k=2.5)
    with pytest.raises(DomainError):
        gauss_grid(10, Rng(0), k=MAX_GRID_SIDE + 1)  # indices past 2**53
    with pytest.raises(DomainError):
        checkerboard(10, Rng(0), cells=1)
    with pytest.raises(DomainError):
        checkerboard(10, Rng(0), cells=4.0)
    with pytest.raises(DomainError):
        checkerboard(10, Rng(0), cells=MAX_GRID_SIDE + 1)
    with pytest.raises(DomainError):
        uniform_square(10, Rng(0), side=-1.0)


@pytest.mark.parametrize("gen,params,name", [
    (gauss_grid, {"spacing": math.inf}, "spacing"),
    (gauss_grid, {"sigma": math.inf}, "sigma"),
    (checkerboard, {"side": math.inf}, "side"),
    (uniform_square, {"side": math.inf}, "side"),
    (two_moons, {"noise": math.inf}, "noise"),
    (rings, {"noise": math.inf}, "noise"),
    (rings, {"radii": (1.0, math.inf)}, "radii"),
    (rings, {"radii": (1.0, math.nan)}, "radii"),
    # a noise that is not a number: a tuple (gen-data's v1:v2), a bool, a string
    (two_moons, {"noise": (1.0, 2.0)}, "noise must be >= 0 and finite, got (1.0, 2.0)"),
    (rings, {"noise": (1.0, 2.0)}, "noise must be >= 0 and finite, got (1.0, 2.0)"),
    (two_moons, {"noise": True}, "noise must be >= 0 and finite, got True"),
    (rings, {"noise": True}, "noise must be >= 0 and finite, got True"),
    (two_moons, {"noise": "0.1"}, "noise must be >= 0 and finite, got '0.1'"),
])
def test_generators_refuse_non_finite_parameters_before_drawing(gen, params, name):
    """An infinite or non-number scale is refused naming it, with no numpy
    warning and no draw from the stream."""
    rng = Rng(0)
    state = rng._state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(name)):
            gen(10, rng, **params)
    assert rng._state == state


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


def test_generate_refuses_an_empty_split():
    """ceil(0.8 n) train and ceil(0.1 n) fit rows leave fit or eval with
    no row for n in 1-9 and 11-14."""
    for n in list(range(1, 10)) + list(range(11, 15)):
        split = "fit" if n < 5 else "eval"
        with pytest.raises(DomainError, match=f"n = {n} leaves the {split} split empty"):
            generate("two_moons", n, seed=0)
    for n in (10, 15, 16):
        ds = generate("two_moons", n, seed=0)
        assert all(len(ds.rows(tag)) >= 1 for tag in ("train", "fit", "eval"))


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
    assert "version 99" in str(exc.value) and path in str(exc.value)

    # with one side 0 a bare header passes the length check; the other side
    # is too large for a numpy dimension
    for rows, cols in ((0, 1 << 62), (1 << 62, 0), (0, (1 << 64) - 1)):
        with open(path, "wb") as fh:
            fh.write(blob[:8] + struct.pack("<QQ", rows, cols))
        with pytest.raises(DatasetFormatError) as exc:
            load_dmat(path)
        assert path in str(exc.value) and f"{rows}x{cols}" in str(exc.value)

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


def test_read_json_refuses_a_too_deep_nest(tmp_path):
    path = str(tmp_path / "deep.json")
    with open(path, "w") as fh:
        fh.write("[" * 100_000 + "]" * 100_000)
    with pytest.raises(DatasetFormatError, match="deep.json' is not valid JSON"):
        read_json(path)


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


@pytest.mark.parametrize("header", [["a"], ["a", "b", "c"], ["a", "b,c"], ["a\nb", "c"]])
def test_save_csv_refuses_a_header_load_csv_would_misread(tmp_path, header):
    """One name per column, none with a comma or a newline; nothing is written."""
    with pytest.raises(DomainError, match=r"^CSV header \[.*\] must give 2 names, "
                                          "none holding a comma or a newline$"):
        save_csv(str(tmp_path / "t.csv"), np.zeros((2, 2)), header=header)
    assert list(tmp_path.iterdir()) == []


def test_csv_error_locations(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_csv(path)
    assert exc.value.row == 2 and path in str(exc.value)

    with open(path, "w") as fh:
        fh.write("a,b\n1.0,zzz\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_csv(path)
    assert exc.value.row == 1 and exc.value.col == 1 and path in str(exc.value)

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


def test_csv_reads_crlf_line_ends(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"a,b\r\n1.0,2.0\r\n3.0,4.0\r\n")
    assert np.array_equal(load_csv(str(path)), [[1.0, 2.0], [3.0, 4.0]])


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_recording_notes_the_bytes_each_file_held(tmp_path):
    mat, obj, out = (str(tmp_path / n) for n in ("m.dmat", "o.json", "w.txt"))
    save_dmat(mat, np.eye(2))
    write_atomic(obj, json_text({"a": 1}))
    load_dmat(mat)  # outside the block: not recorded
    with recording() as record:
        load_dmat(mat)
        read_json(obj)
        first = _digest(mat)
        save_dmat(mat, np.ones((3, 2)))
        load_dmat(mat)  # a second read keeps the first digest
        write_atomic(out, "x\n")
    assert record == {
        "inputs": {mat: first, obj: _digest(obj)},
        "artifacts": {mat: _digest(mat), out: _digest(out)},
    }
    assert first != _digest(mat)
    read_json(obj)
    write_atomic(out, "y\n")
    assert record["inputs"] == {mat: first, obj: _digest(obj)}
    assert out in record["artifacts"] and record["artifacts"][out] != _digest(out)


def test_recording_stops_when_its_block_raises(tmp_path):
    path = str(tmp_path / "m.dmat")
    save_dmat(path, np.eye(2))
    with pytest.raises(DomainError):
        with recording() as record:
            load_dmat(path)
            raise DomainError("boom")
    assert record == {"inputs": {path: _digest(path)}, "artifacts": {}}
    load_dmat(path)
    save_dmat(str(tmp_path / "n.dmat"), np.eye(2))
    assert record == {"inputs": {path: _digest(path)}, "artifacts": {}}


@pytest.mark.parametrize("name, code, error", [
    ("missing/f.txt", errno.ENOENT, FileNotFoundError),  # opening the tmp file fails
    ("taken", errno.EISDIR, IsADirectoryError),  # the rename onto a directory fails
])
def test_failed_write_names_the_path_given_and_leaves_no_tmp_file(tmp_path, name,
                                                                  code, error):
    (tmp_path / "taken").mkdir()
    path = str(tmp_path / name)
    with pytest.raises(error) as exc:
        write_atomic(path, "x\n")
    assert exc.value.errno == code
    assert exc.value.filename == path
    assert ".tmp" not in str(exc.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
