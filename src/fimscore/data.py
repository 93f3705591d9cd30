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
format, ``json_text``.

Every artifact the package writes goes through ``write_atomic``, so a
reader never sees a half-written file, and every text artifact it reads
goes through ``read_text`` or ``read_json``, so undecodable bytes, bad
JSON or a JSON top level other than an object fail as a
DatasetFormatError naming the file.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError, DomainError, NonFiniteError
from .numcore import Rng

DMAT_MAGIC = b"DMAT"
DMAT_VERSION = 1

TAG_TRAIN, TAG_FIT, TAG_EVAL = 0, 1, 2
TAG_NAMES = {"train": TAG_TRAIN, "fit": TAG_FIT, "eval": TAG_EVAL}
SPLIT = (0.8, 0.1, 0.1)  # train, fit, eval fractions of a generated dataset


def two_moons(n: int, rng: Rng, noise: float = 0.1) -> np.ndarray:
    """The classic pair of interleaved half circles of radius 1.

    Upper moon: (cos t, sin t); lower moon: (1 - cos t, 0.5 - sin t),
    t uniform on [0, pi], Gaussian noise added per coordinate.
    """
    _check_n_noise(n, noise)
    lower = rng.uniforms(n) < 0.5
    t = rng.uniforms(n) * math.pi
    eps = noise * rng.normals(2 * n).reshape(n, 2)
    x = np.where(lower, 1.0 - np.cos(t), np.cos(t))
    y = np.where(lower, 0.5 - np.sin(t), np.sin(t))
    return np.stack([x, y], axis=1) + eps


def rings(n: int, rng: Rng, radii=(1.0, 2.0), noise: float = 0.05) -> np.ndarray:
    """Concentric circles with radial Gaussian jitter."""
    _check_n_noise(n, noise)
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or radii.size < 1 or np.any(radii <= 0):
        raise DomainError(f"radii must be positive, got {radii}")
    idx = (rng.uniforms(n) * radii.size).astype(int)
    ang = rng.uniforms(n) * 2.0 * math.pi
    r = radii[idx] + noise * rng.normals(n)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def gauss_grid(n: int, rng: Rng, k: int = 3, spacing: float = 1.5,
               sigma: float = 0.15) -> np.ndarray:
    """Mixture of k*k equal-weight Gaussians on a centered square grid."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if k < 1 or not spacing > 0 or not sigma > 0:
        raise DomainError(f"invalid grid: k={k}, spacing={spacing}, sigma={sigma}")
    choice = (rng.uniforms(n) * (k * k)).astype(int)
    offs = (np.arange(k) - (k - 1) / 2.0) * spacing
    centers = np.stack(
        [np.repeat(offs, k), np.tile(offs, k)], axis=1
    )
    return centers[choice] + sigma * rng.normals(2 * n).reshape(n, 2)


def checkerboard(n: int, rng: Rng, cells: int = 4, side: float = 4.0) -> np.ndarray:
    """Uniform on the black cells of a cells x cells board over a square."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if cells < 2 or not side > 0:
        raise DomainError(f"invalid board: cells={cells}, side={side}")
    occupied = [(i, j) for i in range(cells) for j in range(cells)
                if (i + j) % 2 == 0]
    occ = np.asarray(occupied, dtype=np.float64)
    pick = (rng.uniforms(n) * len(occupied)).astype(int)
    ux = rng.uniforms(n)
    uy = rng.uniforms(n)
    cell = side / cells
    base = occ[pick] * cell - side / 2.0
    return base + np.stack([ux, uy], axis=1) * cell


def uniform_square(n: int, rng: Rng, side: float = 2.0) -> np.ndarray:
    """Uniform on the centered axis-aligned square of the given side."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not side > 0:
        raise DomainError(f"side must be positive, got {side}")
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
    rest to eval, with the fractions of SPLIT.
    """
    if dist not in GENERATORS:
        raise DomainError(
            f"unknown distribution '{dist}'; choose from {sorted(GENERATORS)}"
        )
    rng = Rng(seed)
    points = GENERATORS[dist](n, rng, **params)
    perm = rng.permutation(n)
    n_train = math.ceil(SPLIT[0] * n)
    n_fit = math.ceil(SPLIT[1] * n)
    tags = np.full(n, TAG_EVAL, dtype=np.uint8)
    tags[perm[:n_train]] = TAG_TRAIN
    tags[perm[n_train : min(n, n_train + n_fit)]] = TAG_FIT
    return Dataset(points, tags)


def write_atomic(path: str, contents) -> None:
    """Write ``contents`` (str as UTF-8, or bytes) to ``path`` atomically.

    The bytes go to ``path + ".tmp"``, which then replaces ``path`` by
    ``os.replace``; if any step fails the tmp file is removed.
    """
    if isinstance(contents, str):
        contents = contents.encode("utf-8")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(contents)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise


def read_text(path: str) -> str:
    """The UTF-8 text of ``path``, with universal newlines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"'{path}' is not UTF-8 text: {exc}") from exc


def read_json(path: str) -> dict:
    """The JSON object stored in ``path``."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"'{path}' is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"'{path}' must hold a JSON object")
    return obj


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
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 24:
        raise DatasetFormatError(f"'{path}' is too short to be a DMAT file")
    if blob[:4] != DMAT_MAGIC:
        raise DatasetFormatError(f"'{path}' has bad magic {blob[:4]!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != DMAT_VERSION:
        raise DatasetFormatError(f"unsupported DMAT version {version}")
    rows, cols = struct.unpack("<QQ", blob[8:24])
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
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = (int(i) for i in bad[0])
        raise DatasetFormatError(
            f"'{path}' has non-finite value {data[r, c]} (data rows count "
            f"from {first_row}, columns from 0)", row=r + first_row, col=c
        )


def save_csv(path: str, matrix: np.ndarray, header=None) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DomainError(f"CSV export needs a 2-D matrix, got shape {m.shape}")
    if header is None:
        header = [f"c{j}" for j in range(m.shape[1])]
    lines = [",".join(header)]
    for row in m:
        lines.append(",".join(repr(float(v)) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def load_csv(path: str) -> np.ndarray:
    """Numeric CSV with one header row; errors carry row/column locations."""
    lines = [ln for ln in read_text(path).split("\n") if ln.strip()]
    if len(lines) < 2:
        raise DatasetFormatError(f"'{path}' has no data rows", row=0)
    width = len(lines[0].split(","))
    out = []
    for r, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != width:
            raise DatasetFormatError(
                f"expected {width} fields, got {len(parts)}", row=r
            )
        vals = []
        for c, part in enumerate(parts):
            try:
                vals.append(float(part))
            except ValueError as exc:
                raise DatasetFormatError(
                    f"cannot parse {part!r} as float", row=r, col=c
                ) from exc
        out.append(vals)
    matrix = np.asarray(out, dtype=np.float64)
    _check_finite(path, matrix, first_row=1)
    return matrix


def _check_n_noise(n: int, noise: float) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not noise >= 0:
        raise DomainError(f"noise must be >= 0, got {noise}")
