"""Input re-parameterizations and what they do to likelihoods.

An invertible transform T changes densities by the usual factor,
log p_T(T(x)) = log p_X(x) - log |det dT/dx|, and the log-det term does
not depend on model parameters. The parameter gradient of the
pushed-forward objective at T(x) therefore equals the score at the
preimage, which ``check_gradient_invariance`` verifies numerically by
round-tripping points through the transform. Likelihood VALUES shift by
the log-det, which is why the likelihood baseline is not representation
invariant while gradient features are.

Every transform maps one point (d,) or an array of rows (n, d); its
logdet gives one value per row, of shape ``x.shape[:-1]``.

Transforms provided: dense affine maps (log-det from numpy's slogdet),
named elementwise monotone maps with analytic derivatives, and a
pixelwise RGB-to-HSV conversion. For HSV the per-pixel 3x3 Jacobian is
analytic, piecewise by hue sextant, and its absolute determinant has
the closed form 1 / (6 * V * C) with V the max channel and C = V - min;
gray pixels (C = 0) are singular, which is what dequantization noise is
for.

Total variation of a flat vector is TV(x) = |x_1| + sum |x_i - x_{i-1}|,
and the set {TV <= alpha} in R^d has volume (2 alpha)^d / d!,
giving the exact log-volume used to reason about how little mass such
sets can hold in high dimension.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDataError, DomainError, SingularMatrixError
from .models import score  # unused here, but the benchmark tracer wraps this name
from .numcore import Rng, lgamma


class AffineTransform:
    """t = A x + b with A invertible; log-det is constant in x."""

    name = "affine"

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise DomainError(f"affine matrix must be square, got {self.a.shape}")
        if self.b.shape != (self.a.shape[0],):
            raise DomainError(
                f"offset shape {self.b.shape} does not match matrix {self.a.shape}"
            )
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise DomainError("affine matrix and offset entries must be finite")
        sign, self._logdet = np.linalg.slogdet(self.a)
        if sign == 0.0:
            raise SingularMatrixError(f"affine matrix of shape {self.a.shape} is singular")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.a.T + self.b

    def inverse(self, t: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.a, (np.asarray(t, dtype=np.float64) - self.b).T).T

    def logdet(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x)[:-1], self._logdet)


class DiagonalAffine:
    """t = s * x + b with nonzero per-coordinate scales.

    Same contract as AffineTransform restricted to diagonal maps, but
    with no dense matrix: memory and time stay O(d), so it serves at
    image dimensions where a d x d matrix and its solve would not.
    """

    name = "diagonal_affine"

    def __init__(self, scale: np.ndarray, shift: np.ndarray):
        self.scale = np.asarray(scale, dtype=np.float64)
        self.shift = np.asarray(shift, dtype=np.float64)
        if self.scale.ndim != 1 or self.shift.shape != self.scale.shape:
            raise DomainError(
                f"scale and shift must be equal-length vectors, got "
                f"{self.scale.shape} and {self.shift.shape}"
            )
        if not (np.all(np.isfinite(self.scale)) and np.all(np.isfinite(self.shift))):
            raise DomainError("diagonal scales and shifts must be finite")
        if np.any(self.scale == 0.0):
            raise DomainError("diagonal scales must be nonzero")
        self._logdet = float(np.sum(np.log(np.abs(self.scale))))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(x, dtype=np.float64) + self.shift

    def inverse(self, t: np.ndarray) -> np.ndarray:
        return (np.asarray(t, dtype=np.float64) - self.shift) / self.scale

    def logdet(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x)[:-1], self._logdet)


class ElementwiseMonotone:
    """Named strictly monotone scalar map applied coordinatewise.

    'exp':       t = e^x            (inverse ln; requires t > 0)
    'tanh_warp': t = x + a tanh(x)  (inverse by Newton, a in (0, 1])
    """

    def __init__(self, fname: str, a: float = 0.5):
        if fname not in ("exp", "tanh_warp"):
            raise DomainError(f"unknown elementwise map '{fname}'")
        if fname == "tanh_warp" and not 0.0 < a <= 1.0:
            raise DomainError(f"tanh_warp strength must be in (0, 1], got {a}")
        self.name = fname
        self.a = float(a)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.name == "exp":
            return np.exp(x)
        return x + self.a * np.tanh(x)

    def _deriv(self, x: np.ndarray) -> np.ndarray:
        if self.name == "exp":
            return np.exp(x)
        return 1.0 + self.a * (1.0 - np.tanh(x) ** 2)

    def inverse(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if self.name == "exp":
            if np.any(t <= 0.0):
                raise DomainError("exp inverse requires strictly positive input")
            return np.log(t)
        x = t.copy()
        tol = 1e-15 * np.maximum(1.0, np.max(np.abs(t), axis=-1))
        for _ in range(60):
            resid = self.forward(x) - t
            if np.all(np.max(np.abs(resid), axis=-1) <= tol):
                break
            x = x - resid / self._deriv(x)
        return x

    def logdet(self, x: np.ndarray) -> np.ndarray:
        return np.sum(np.log(self._deriv(np.asarray(x, dtype=np.float64))), axis=-1)


def rgb_to_hsv(pixels: np.ndarray) -> np.ndarray:
    """Vectorized RGB -> HSV on an (n, 3) array; H, S, V all in [0, 1)."""
    p = _pixels(pixels)
    r, g, b = p[:, 0], p[:, 1], p[:, 2]
    v = p.max(axis=1)
    c = v - p.min(axis=1)
    _require_nonsingular(v, c)
    amax = p.argmax(axis=1)
    h6 = np.where(
        amax == 0, (g - b) / c, np.where(amax == 1, (b - r) / c + 2.0, (r - g) / c + 4.0)
    )
    h = (h6 / 6.0) % 1.0
    return np.stack([h, 1.0 - (v - c) / v, v], axis=1)


def hsv_to_rgb(pixels: np.ndarray) -> np.ndarray:
    """Inverse of rgb_to_hsv on an (n, 3) array."""
    p = _pixels(pixels)
    h, s, v = p[:, 0], p[:, 1], p[:, 2]
    h6 = (h % 1.0) * 6.0
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    lo = v * (1.0 - s)
    q = v * (1.0 - f * s)
    t = v * (1.0 - (1.0 - f) * s)
    table = np.stack([
        np.stack([v, t, lo], axis=1),
        np.stack([q, v, lo], axis=1),
        np.stack([lo, v, t], axis=1),
        np.stack([lo, q, v], axis=1),
        np.stack([t, lo, v], axis=1),
        np.stack([v, lo, q], axis=1),
    ])
    return table[i, np.arange(p.shape[0])]


def rgb_hsv_jacobian(pixel: np.ndarray) -> np.ndarray:
    """Analytic 3x3 Jacobian d(H,S,V)/d(r,g,b) for one non-gray pixel.

    Piecewise by which channel is the max: V depends on the argmax
    channel alone, S = 1 - min/V touches argmax and argmin, and the hue
    numerator (one of g-b, b-r, r-g) plus the chroma denominator give
    the H row by the quotient rule.
    """
    p = np.asarray(pixel, dtype=np.float64)
    if p.shape != (3,):
        raise DomainError(f"pixel must have 3 channels, got shape {p.shape}")
    v = float(p.max())
    c = float(v - p.min())
    _require_nonsingular(np.array([v]), np.array([c]))
    amax = int(p.argmax())
    amin = int(p.argmin())
    num_pairs = {0: (1, 2), 1: (2, 0), 2: (0, 1)}
    jac = np.zeros((3, 3))
    jac[2, amax] = 1.0
    jac[1, amax] = (v - c) / (v * v)
    jac[1, amin] += -1.0 / v
    plus, minus = num_pairs[amax]
    num = p[plus] - p[minus]
    dnum = np.zeros(3)
    dnum[plus] += 1.0
    dnum[minus] -= 1.0
    dc = np.zeros(3)
    dc[amax] += 1.0
    dc[amin] -= 1.0
    jac[0] = (dnum * c - num * dc) / (6.0 * c * c)
    return jac


def rgb_hsv_logdet(pixels: np.ndarray) -> float:
    """Sum over pixels of ln |det J| = -sum ln(6 V C); exact and vectorized."""
    return float(np.sum(_pixel_logdets(_pixels(pixels))))


def _pixel_logdets(p: np.ndarray) -> np.ndarray:
    """-ln(6 V C) of each pixel on the last axis of p."""
    v = p.max(axis=-1)
    c = v - p.min(axis=-1)
    _require_nonsingular(v, c)
    return -np.log(6.0 * v * c)


class RgbHsvPixelwise:
    """Flat RGB rows (..., 3k) -> flat HSV rows, pixel by pixel."""

    name = "rgb_hsv"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return rgb_to_hsv(_flat_pixels(x).reshape(-1, 3)).reshape(np.shape(x))

    def inverse(self, t: np.ndarray) -> np.ndarray:
        return hsv_to_rgb(_flat_pixels(t).reshape(-1, 3)).reshape(np.shape(t))

    def logdet(self, x: np.ndarray) -> np.ndarray:
        return np.sum(_pixel_logdets(_flat_pixels(x)), axis=-1)


def _pixels(pixels: np.ndarray) -> np.ndarray:
    p = np.asarray(pixels, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise DomainError(f"expected an (n, 3) pixel array, got shape {p.shape}")
    return p


def _flat_pixels(x: np.ndarray) -> np.ndarray:
    """(..., 3k) flat pixel rows as a (..., k, 3) view."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] % 3 != 0:
        raise DomainError(
            f"flat pixel vector length must be a multiple of 3, got {x.shape}"
        )
    return x.reshape(x.shape[:-1] + (-1, 3))


def _require_nonsingular(v: np.ndarray, c: np.ndarray) -> None:
    if np.any(v <= 0.0) or np.any(c <= 0.0):
        raise DegenerateDataError(
            "gray or black pixel (max = min or max = 0): the HSV map is "
            "singular there; dequantize first"
        )


def identity_transform(dim: int) -> AffineTransform:
    return AffineTransform(np.eye(dim), np.zeros(dim))


def scale_shift_transform(dim: int, scale: float = 2.0,
                          shift: float = 1.0) -> DiagonalAffine:
    return DiagonalAffine(scale * np.ones(dim), shift * np.ones(dim))


def random_affine(dim: int, rng: Rng) -> AffineTransform:
    """Well-conditioned seeded affine map: I plus 0.3 / sqrt(dim) times
    standard Gaussian noise."""
    a = np.eye(dim) + 0.3 * rng.normals(dim * dim).reshape(dim, dim) / math.sqrt(dim)
    b = rng.normals(dim)
    return AffineTransform(a, b)


def check_gradient_invariance(model, transform, points: np.ndarray) -> dict:
    """Compare the score with the gradient of the pushed-forward objective.

    Map every point forward, recover the preimages, and evaluate the
    parameter gradient there (the log-det term has no parameter
    dependence, so that IS the pushed-forward gradient). Also check that
    likelihood values shift by exactly the log-det. Both discrepancies
    are zero up to arithmetic rounding. Nothing loops over points: the
    transform and the model each take all points, or all preimages, in
    one call.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[0] == 0:
        raise DomainError("gradient invariance needs at least one point")
    lds = transform.logdet(pts)
    backs = transform.inverse(transform.forward(pts))
    # evaluate the transformed-space density entirely from t: invert,
    # then use the log-det at the recovered preimage, so the identity
    # is not assumed by construction
    lds_back = transform.logdet(backs)
    g_direct, ll_x = model.grad_groups(pts, 1)
    g_pushed, ll_back = model.grad_groups(backs, 1)
    grad_disc = np.max(np.abs(g_direct - g_pushed), axis=1)
    ll_resid = np.abs((ll_x - (ll_back - lds_back)) - lds)
    per_point = [{"grad_discrepancy": gd, "loglik_residual": lr, "logdet": ld}
                 for gd, lr, ld in zip(grad_disc.tolist(), ll_resid.tolist(),
                                       lds.tolist())]
    return {
        "max_grad_discrepancy": float(grad_disc.max()),
        "max_loglik_residual": float(ll_resid.max()),
        "n_points": int(pts.shape[0]),
        "per_point": per_point,
    }


def dequantize(x: np.ndarray, rng: Rng, scale: float = 1.0 / 255.0) -> np.ndarray:
    """x + scale * eps with eps standard normal, drawn in row-major order."""
    x = np.asarray(x, dtype=np.float64)
    return x + scale * rng.normals(x.size).reshape(x.shape)


def tv(x: np.ndarray) -> float:
    """|x_1| + sum_i |x_i - x_{i-1}| for a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise DomainError(f"tv expects a nonempty flat vector, got shape {x.shape}")
    return float(abs(x[0]) + np.sum(np.abs(np.diff(x))))


def tv_log_volume(alpha: float, d: int) -> float:
    """ln volume of {x in R^d : TV(x) <= alpha} = d ln(2 alpha) - ln d!.

    The set is the image of the L1 ball of radius alpha under the
    unit-determinant map from increments back to values, hence the
    cross-polytope volume (2 alpha)^d / d!.
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    # ln 2 + ln alpha, not ln(2 alpha): 2 alpha overflows above ~9e307
    return d * (math.log(2.0) + math.log(alpha)) - lgamma(d + 1.0)


def tv_volume_mc(alpha: float, d: int, rng: Rng, n: int = 200000):
    """Monte Carlo cross-check of the TV ball volume for small d.

    Since TV(x) <= alpha forces every |x_i| <= alpha, sampling the
    enclosing cube [-alpha, alpha]^d is exact: the estimate is the hit
    fraction times (2 alpha)^d. Returns (volume, standard_error).
    """
    if d > 8:
        raise DomainError("Monte Carlo cross-check is meant for small d (<= 8)")
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    try:
        cube = (2.0 * alpha) ** d
    except OverflowError:
        cube = math.inf
    if not math.isfinite(cube):
        raise DomainError(f"the enclosing cube volume (2 * {alpha})^{d} is not finite")
    u = rng.uniforms(n * d).reshape(n, d)
    pts = (2.0 * u - 1.0) * alpha
    tvs = np.abs(pts[:, 0]) + np.sum(np.abs(np.diff(pts, axis=1)), axis=1)
    frac = float(np.mean(tvs <= alpha))
    se = cube * math.sqrt(max(frac * (1.0 - frac), 1e-12) / n)
    return cube * frac, se
