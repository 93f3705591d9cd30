"""Synthetic 2-D distributions, matrix files, and the atomic file writer.

Every generator consumes randomness from a passed-in stream in a
documented order, so a (distribution, seed, n, params) tuple pins the
dataset bit-for-bit:

  two_moons      n side uniforms, n angle uniforms, 2n noise normals
  rings          n ring-choice uniforms, n angle uniforms, n radial normals
  gauss_grid     n center-choice uniforms, 2n offset normals
  checkerboard   n cell-choice uniforms, n x-offset uniforms, n y-offset
  uniform_square 2n coordinate uniforms

``generate`` additionally tags each row train/fit/eval by a shuffled
partition in the fractions of ``SPLIT`` (the permutation is drawn after
the points), so eval rows never mix into training.

The on-disk matrix format is DMAT: magic "DMAT", little-endian u32
version (=1), u64 rows, u64 cols, then rows*cols float64 values in
row-major order. Round-trips are exact. CSV (header row, numeric cells)
is supported for interchange. Both loaders reject a malformed or
non-finite cell with its row and column. JSON artifacts share one
format, ``json_text``, and one reader, ``read_json(path, parse)``: a
refusal of the loader's ``parse`` reads ``'<path>' is malformed: ...``.

Every artifact the package writes goes through ``write_atomic``, so a
reader never sees a half-written file, and every file it reads goes
through ``read_bytes``; text goes on through ``read_text`` or
``read_json``, so undecodable bytes, bad JSON or a JSON top level other
than an object fail as a DatasetFormatError naming the file. Those two
functions are therefore the one place that sees which files a run
touched: inside ``recording()`` they note the SHA-256 of the bytes each
file held when first read and of the bytes last written to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (DatasetFormatError, DomainError, NonFiniteError, require_finite,
                     require_int, require_positive)
from .numcore import Rng

DMAT_MAGIC = b"DMAT"
DMAT_VERSION = 1

TAG_TRAIN, TAG_FIT, TAG_EVAL = 0, 1, 2
TAG_NAMES = {"train": TAG_TRAIN, "fit": TAG_FIT, "eval": TAG_EVAL}
SPLIT = (0.8, 0.1, 0.1)  # train, fit, eval fractions of a generated dataset
MAX_GRID_SIDE = 1 << 26  # k*k cell indices stay exact in float64 (< 2**53)


def _require_noise(noise) -> float:
    """``noise`` as a float; a bool, a non-number or one not >= 0 and finite is refused."""
    if isinstance(noise, bool) or not isinstance(noise, numbers.Real) or not 0 <= noise < math.inf:
        raise DomainError(f"noise must be >= 0 and finite, got {noise!r}")
    return float(noise)


def two_moons(n: int, rng: Rng, noise: float = 0.1) -> np.ndarray:
    """The classic pair of interleaved half circles of radius 1.

    Upper moon: (cos t, sin t); lower moon: (1 - cos t, 0.5 - sin t),
    t uniform on [0, pi], Gaussian noise added per coordinate.
    """
    n = require_int(n, "n", 1)
    noise = _require_noise(noise)
    lower = rng.uniforms(n) < 0.5
    t = rng.uniforms(n) * math.pi
    eps = noise * rng.normals(2 * n).reshape(n, 2)
    x = np.where(lower, 1.0 - np.cos(t), np.cos(t))
    y = np.where(lower, 0.5 - np.sin(t), np.sin(t))
    return np.stack([x, y], axis=1) + eps


def rings(n: int, rng: Rng, radii=(1.0, 2.0), noise: float = 0.05) -> np.ndarray:
    """Concentric circles with radial Gaussian jitter."""
    n = require_int(n, "n", 1)
    noise = _require_noise(noise)
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or radii.size < 1:
        got = f"the scalar {radii}" if radii.ndim == 0 else f"shape {radii.shape}"
        raise DomainError(f"radii must be a non-empty list, got {got}")
    if not np.all((radii > 0) & (radii < math.inf)):
        raise DomainError(f"radii must be positive and finite, got {radii}")
    idx = (rng.uniforms(n) * radii.size).astype(int)
    ang = rng.uniforms(n) * 2.0 * math.pi
    r = radii[idx] + noise * rng.normals(n)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def gauss_grid(n: int, rng: Rng, k: int = 3, spacing: float = 1.5,
               sigma: float = 0.15) -> np.ndarray:
    """Mixture of k*k equal-weight Gaussians on a centered square grid."""
    n, k = require_int(n, "n", 1), require_int(k, "k", 1)
    spacing, sigma = require_positive(spacing, "spacing"), require_positive(sigma, "sigma")
    if k > MAX_GRID_SIDE:
        raise DomainError(f"invalid grid: k={k} exceeds {MAX_GRID_SIDE}")
    # center c sits at grid row c // k, column c % k; only the chosen
    # centers are built
    choice = (rng.uniforms(n) * (k * k)).astype(int)
    centers = (np.stack([choice // k, choice % k], axis=1) - (k - 1) / 2.0) * spacing
    return centers + sigma * rng.normals(2 * n).reshape(n, 2)


def checkerboard(n: int, rng: Rng, cells: int = 4, side: float = 4.0) -> np.ndarray:
    """Uniform on the black cells of a cells x cells board over a square."""
    n, cells = require_int(n, "n", 1), require_int(cells, "cells", 2)
    side = require_positive(side, "side")
    if cells > MAX_GRID_SIDE:
        raise DomainError(f"invalid board: cells={cells} exceeds {MAX_GRID_SIDE}")
    # black cells (i + j even) in row-major order: each pair of rows holds
    # `up` cells of the even row (j = 0, 2, ...) then the odd row's (j = 1,
    # 3, ...); only the picked ones are built
    up = (cells + 1) // 2
    pick = (rng.uniforms(n) * ((cells * cells + 1) // 2)).astype(int)
    pair, r = np.divmod(pick, cells)
    odd = r >= up
    i = 2 * pair + odd
    j = np.where(odd, 2 * (r - up) + 1, 2 * r)
    ux = rng.uniforms(n)
    uy = rng.uniforms(n)
    cell = side / cells
    base = np.stack([i, j], axis=1).astype(np.float64) * cell - side / 2.0
    return base + np.stack([ux, uy], axis=1) * cell


def uniform_square(n: int, rng: Rng, side: float = 2.0) -> np.ndarray:
    """Uniform on the centered axis-aligned square of the given side."""
    n = require_int(n, "n", 1)
    side = require_positive(side, "side")
    return (rng.uniforms(2 * n).reshape(n, 2) - 0.5) * side


GENERATORS = {
    "two_moons": two_moons,
    "rings": rings,
    "gauss_grid": gauss_grid,
    "checkerboard": checkerboard,
    "uniform_square": uniform_square,
}


@dataclass
class Dataset:
    points: np.ndarray
    tags: np.ndarray

    def rows(self, tag: str) -> np.ndarray:
        if tag not in TAG_NAMES:
            raise DomainError(f"unknown split tag '{tag}'")
        return self.points[self.tags == TAG_NAMES[tag]]


def generate(dist: str, n: int, seed: int, **params) -> Dataset:
    """Sample a named distribution and tag rows train/fit/eval.

    One Rng(seed) drives everything: the generator's documented draws
    first, then one permutation that assigns the first ceil(train*n)
    shuffled positions to train, the next ceil(fit*n) to fit, and the
    rest to eval, with the fractions of SPLIT. An n that leaves a split
    with no row, or parameters that overflow a point, is a DomainError.
    """
    if dist not in GENERATORS:
        raise DomainError(
            f"unknown distribution '{dist}'; choose from {sorted(GENERATORS)}"
        )
    rng = Rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        points = GENERATORS[dist](n, rng, **params)
    require_finite(points, lambda i: DomainError(
        f"'{dist}' with parameters {params} gives non-finite points, first at row {i[0]}"))
    n_train = math.ceil(SPLIT[0] * n)
    n_fit = min(n - n_train, math.ceil(SPLIT[1] * n))
    for tag, count in zip(TAG_NAMES, (n_train, n_fit, n - n_train - n_fit)):
        if count == 0:
            raise DomainError(f"n = {n} leaves the {tag} split empty at fractions {SPLIT}")
    perm = rng.permutation(n)
    tags = np.full(n, TAG_EVAL, dtype=np.uint8)
    tags[perm[:n_train]] = TAG_TRAIN
    tags[perm[n_train : n_train + n_fit]] = TAG_FIT
    return Dataset(points, tags)


_record = None  # {"inputs": {}, "artifacts": {}} while recording() is active


@contextlib.contextmanager
def recording():
    """Yield ``{"inputs": {}, "artifacts": {}}``, filled until the block
    ends (also by an exception) with ``path -> sha256`` of what each
    ``read_bytes`` read, the first read of a path winning, and of what
    each ``write_atomic`` wrote, the last write winning."""
    global _record
    _record = {"inputs": {}, "artifacts": {}}
    try:
        yield _record
    finally:
        _record = None


def write_atomic(path: str, contents) -> None:
    """Write ``contents`` (str as UTF-8, or bytes) to ``path`` atomically.

    The bytes go to ``path + ".tmp"``, which then replaces ``path`` by
    ``os.replace``; if any step fails the tmp file is removed, and an
    OSError about the tmp file is raised again naming ``path``.
    """
    if isinstance(contents, str):
        contents = contents.encode("utf-8")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(contents)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
    if _record is not None:
        _record["artifacts"][path] = hashlib.sha256(contents).hexdigest()


def read_bytes(path: str) -> bytes:
    """The bytes of ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if _record is not None and path not in _record["inputs"]:
        _record["inputs"][path] = hashlib.sha256(blob).hexdigest()
    return blob


def read_text(path: str) -> str:
    """The UTF-8 text of ``path``, with universal newlines."""
    try:
        return io.TextIOWrapper(io.BytesIO(read_bytes(path)), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"'{path}' is not UTF-8 text: {exc}") from exc


def read_json(path: str, parse=lambda obj: obj):
    """``parse`` of the JSON object in ``path``; a FimscoreError, KeyError, TypeError
    or the like that ``parse`` raises becomes a DatasetFormatError naming the file."""
    try:
        obj = json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DatasetFormatError(f"'{path}' is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"'{path}' must hold a JSON object")
    try:
        return parse(obj)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"'{path}' is malformed: {exc}") from exc


def json_text(obj) -> str:
    """The artifact form of ``obj``: indent 1, sorted keys, final newline.
    NaN and infinity are not JSON, so a non-finite number is an error."""
    try:
        return json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteError(f"artifact holds a non-finite number: {exc}") from exc


def save_dmat(path: str, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DomainError(f"DMAT stores 2-D matrices, got shape {m.shape}")
    _check_finite(path, m, first_row=0)
    header = DMAT_MAGIC + struct.pack("<IQQ", DMAT_VERSION, *m.shape)
    write_atomic(path, header + np.ascontiguousarray(m, dtype="<f8").tobytes())


def load_dmat(path: str) -> np.ndarray:
    blob = read_bytes(path)
    if len(blob) < 24:
        raise DatasetFormatError(f"'{path}' is too short to be a DMAT file")
    if blob[:4] != DMAT_MAGIC:
        raise DatasetFormatError(f"'{path}' has bad magic {blob[:4]!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != DMAT_VERSION:
        raise DatasetFormatError(f"'{path}' has unsupported DMAT version {version}")
    rows, cols = struct.unpack("<QQ", blob[8:24])
    if max(rows, cols) > np.iinfo(np.intp).max // 8:  # a zero side passes the length check
        raise DatasetFormatError(f"'{path}' declares {rows}x{cols}, too large for an array")
    expected = 24 + rows * cols * 8
    if len(blob) != expected:
        raise DatasetFormatError(
            f"'{path}' has {len(blob)} bytes, expected {expected} for "
            f"{rows}x{cols}"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=24).reshape(rows, cols)
    _check_finite(path, data, first_row=0)
    return data.astype(np.float64)


def _check_finite(path: str, data: np.ndarray, first_row: int) -> None:
    """Locate the first non-finite cell; data row 0 is file row first_row."""
    require_finite(data, lambda index: DatasetFormatError(
        f"'{path}' has non-finite value {data[index]} (data rows count "
        f"from {first_row}, columns from 0)", row=index[0] + first_row, col=index[1]))


def save_csv(path: str, matrix: np.ndarray, header=None) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DomainError(f"CSV export needs a 2-D matrix, got shape {m.shape}")
    _check_finite(path, m, first_row=1)  # as load_csv counts rows: the header is row 0
    if header is None:
        header = [f"c{j}" for j in range(m.shape[1])]
    if len(header) != m.shape[1] or any("," in h or "\n" in h for h in header):
        raise DomainError(f"CSV header {list(header)!r} must give {m.shape[1]} names, "
                          "none holding a comma or a newline")
    lines = [",".join(header)]
    for row in m:
        lines.append(",".join(repr(float(v)) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def load_csv(path: str) -> np.ndarray:
    """Numeric CSV with one header row; errors carry row/column locations."""
    return _parse_csv(read_text(path), path)


def _parse_csv(text: str, path: str) -> np.ndarray:
    """The numeric cells of ``text``, a CSV read from ``path``, as load_csv
    checks them."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if len(lines) < 2:
        raise DatasetFormatError(f"'{path}' has no data rows", row=0)
    width = len(lines[0].split(","))
    out = []
    for r, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != width:
            raise DatasetFormatError(
                f"'{path}': expected {width} fields, got {len(parts)}", row=r
            )
        vals = []
        for c, part in enumerate(parts):
            try:
                vals.append(float(part))
            except ValueError as exc:
                raise DatasetFormatError(
                    f"'{path}': cannot parse {part!r} as float", row=r, col=c
                ) from exc
        out.append(vals)
    matrix = np.asarray(out, dtype=np.float64)
    _check_finite(path, matrix, first_row=1)
    return matrix
