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

Transforms provided: affine maps t = A x + b (log-det from numpy's
slogdet; the scale-shift map is the diagonal case), named elementwise
monotone maps with analytic derivatives, and ``RgbHsvPixelwise``, the
one RGB <-> HSV conversion, over flat rows (..., 3k) of k pixels. Its
per-pixel 3x3 Jacobian (``rgb_hsv_jacobian``) is analytic, piecewise by
hue sextant, with |det| = 1 / (6 V C), V the max channel and C = V - min;
gray pixels (C = 0) are singular, which is what dequantization is for.

Total variation over the last axis is TV(x) = |x_1| + sum |x_i - x_{i-1}|,
and the set {TV <= alpha} in R^d has volume (2 alpha)^d / d!, giving the
exact log-volume used to reason about how little mass such sets can
hold in high dimension.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DegenerateDataError, DomainError, NonFiniteError, SingularMatrixError,
                     require_finite, require_int, require_positive)
from .models import score  # unused here, but the benchmark tracer wraps this name
from .numcore import Rng


class AffineTransform:
    """t = A x + b with A invertible; log-det is constant in x."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise DomainError(f"affine matrix must be square, got {self.a.shape}")
        if self.b.shape != (self.a.shape[0],):
            raise DomainError(
                f"offset shape {self.b.shape} does not match matrix {self.a.shape}"
            )
        for name, v in (("A", self.a), ("b", self.b)):
            require_finite(v, lambda i: DomainError(f"affine {name}{list(i)} is not finite"))
        sign, self._logdet = np.linalg.slogdet(self.a)
        if sign == 0.0:
            raise SingularMatrixError(f"affine matrix of shape {self.a.shape} is singular")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.a.T + self.b

    def inverse(self, t: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.a, (np.asarray(t, dtype=np.float64) - self.b).T).T

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
    v, c = _value_chroma(p)
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


class RgbHsvPixelwise:
    """Flat RGB rows (..., 3k) -> flat HSV rows, pixel by pixel; H, S, V
    all in [0, 1)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        p = _flat_pixels(x)
        v, c = _value_chroma(p)
        r, g, b = p[..., 0], p[..., 1], p[..., 2]
        amax = p.argmax(axis=-1)
        h6 = np.where(
            amax == 0, (g - b) / c, np.where(amax == 1, (b - r) / c + 2.0, (r - g) / c + 4.0)
        )
        hsv = np.stack([(h6 / 6.0) % 1.0, 1.0 - (v - c) / v, v], axis=-1)
        return hsv.reshape(np.shape(x))

    def inverse(self, t: np.ndarray) -> np.ndarray:
        """Each channel straight from the hue ramp: V (1 - S clip(min(k, 4 - k),
        0, 1)) with k = (n + 6 H) mod 6 and n = 5, 3, 1 for R, G, B."""
        p = _flat_pixels(t)
        h, s, v = p[..., 0:1], p[..., 1:2], p[..., 2:3]
        k = (np.array([5.0, 3.0, 1.0]) + 6.0 * h) % 6.0
        rgb = v * (1.0 - s * np.clip(np.minimum(k, 4.0 - k), 0.0, 1.0))
        return rgb.reshape(np.shape(t))

    def logdet(self, x: np.ndarray) -> np.ndarray:
        """Sum over pixels of ln |det J| = -ln(6 V C), one value per row."""
        v, c = _value_chroma(_flat_pixels(x))
        return np.sum(-np.log(6.0 * v * c), axis=-1)


def _flat_pixels(x: np.ndarray) -> np.ndarray:
    """(..., 3k) flat pixel rows as a (..., k, 3) view."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] % 3 != 0:
        raise DomainError(
            f"flat pixel vector length must be a multiple of 3, got {x.shape}"
        )
    return x.reshape(x.shape[:-1] + (-1, 3))


def _value_chroma(p: np.ndarray):
    """V = max and C = max - min of each pixel on the last axis of p."""
    v = p.max(axis=-1)
    c = v - p.min(axis=-1)
    if np.any(v <= 0.0) or np.any(c <= 0.0):
        raise DegenerateDataError(
            "gray or black pixel (max = min or max = 0): the HSV map is "
            "singular there; dequantize first"
        )
    return v, c


def identity_transform(dim: int) -> AffineTransform:
    return AffineTransform(np.eye(dim), np.zeros(dim))


def scale_shift_transform(dim: int, scale: float = 2.0,
                          shift: float = 1.0) -> AffineTransform:
    # np.diag, not scale * np.eye: inf * 0 would warn before the
    # finiteness check could reject an infinite scale
    return AffineTransform(np.diag(np.full(dim, scale)), np.full(dim, shift))


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
    one call. A point the transform maps to a non-finite value or log-det
    is a NonFiniteError naming it.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[0] == 0:
        raise DomainError("gradient invariance needs at least one point")
    g_direct, ll_x = model.grad_groups(pts, 1)  # names a non-finite input point
    with np.errstate(all="ignore"):  # an overflow is named below, not warned
        t, lds = transform.forward(pts), transform.logdet(pts)
    for what, v in (("value", t), ("log-det", lds)):
        require_finite(v, lambda i: NonFiniteError(
            f"the transform maps point {i[0]} to a non-finite {what}"))
    # evaluate the transformed-space density entirely from t: invert,
    # then use the log-det at the recovered preimage, so the identity
    # is not assumed by construction
    backs = transform.inverse(t)
    lds_back = transform.logdet(backs)
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


def tv(x: np.ndarray):
    """|x_1| + sum_i |x_i - x_{i-1}| over the last axis: one value for a
    flat vector, one per row of an (n, d) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DomainError(f"tv expects a nonempty last axis, got shape {x.shape}")
    return np.abs(x[..., 0]) + np.sum(np.abs(np.diff(x, axis=-1)), axis=-1)


def tv_log_volume(alpha: float, d: int) -> float:
    """ln volume of {x in R^d : TV(x) <= alpha} = d ln(2 alpha) - ln d!.

    The set is the image of the L1 ball of radius alpha under the
    unit-determinant map from increments back to values, hence the
    cross-polytope volume (2 alpha)^d / d!.
    """
    require_positive(alpha, "alpha")
    d = require_int(d, "dimension", 1)
    # ln 2 + ln alpha, not ln(2 alpha): 2 alpha overflows above ~9e307
    return d * (math.log(2.0) + math.log(alpha)) - math.lgamma(d + 1.0)


def tv_volume_mc(alpha: float, d: int, rng: Rng, n: int = 200000):
    """Monte Carlo cross-check of the TV ball volume for small d.

    Since TV(x) <= alpha forces every |x_i| <= alpha, sampling the
    enclosing cube [-alpha, alpha]^d is exact: the estimate is the hit
    fraction times (2 alpha)^d. Returns (volume, standard_error); the
    hit-fraction variance is floored at one hit in n, so a run with no
    hit (or no miss) still reports an error bar that covers the truth.
    """
    require_positive(alpha, "alpha")
    d, n = require_int(d, "dimension", 1), require_int(n, "sample count", 1)
    if d > 8:
        raise DomainError("Monte Carlo cross-check is meant for small d (<= 8)")
    try:
        cube = (2.0 * alpha) ** d
    except OverflowError:
        cube = math.inf
    if not math.isfinite(cube):
        raise DomainError(f"the enclosing cube volume (2 * {alpha})^{d} is not finite")
    u = rng.uniforms(n * d).reshape(n, d)
    pts = (2.0 * u - 1.0) * alpha
    frac = float(np.mean(tv(pts) <= alpha))
    se = cube * math.sqrt(max(frac * (1.0 - frac), 1.0 / n) / n)
    return cube * frac, se
