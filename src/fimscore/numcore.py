"""Deterministic numeric kernels: PRNG and special functions.

The random generator is PCG32 (64-bit LCG state, xorshift-rotate output)
so that streams are reproducible bit-for-bit across platforms and runs.
Bulk generation uses the closed form of the LCG orbit,

    state_i = a^i * state_0 + c * (a^(i-1) + ... + a + 1)   (mod 2^64),

evaluated with wrapping uint64 cumulative products/sums, and is exactly
the sequence the scalar stepper produces.

Special functions defer to the C library through ``math`` where that
meets the accuracy contract.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_PCG_MULT = 6364136223846793005
_INV_2_53 = 1.0 / (1 << 53)
_SQRT2 = math.sqrt(2.0)


def _splitmix64(z: int) -> int:
    """One step of splitmix64; used only to derive seeds for child streams."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """PCG32 stream with bulk draws and child-stream derivation.

    Seeding follows the reference generator: the increment is
    ``(stream << 1) | 1`` and the seed is absorbed between two steps.
    Child streams are keyed by (seed, stream, index) through splitmix64,
    so they never depend on how far the parent has been advanced and two
    distinct indexes never share state.

    Draw conventions (all documented so callers can be replayed):
      * ``uniform``  consumes two 32-bit outputs -> 53-bit double in [0, 1).
      * ``normals``  Box-Muller; n draws consume 2*ceil(n/2) uniforms.
      * ``randint``  floor(uniform * bound); bias is 2^-53 per draw.
      * ``permutation`` Fisher-Yates from the top, n-1 randint draws.
    """

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed) & _MASK64
        stream = int(stream) & _MASK64
        self.seed = seed
        self.stream = stream
        self._inc = ((stream << 1) | 1) & _MASK64
        self._state = 0
        self._step()
        self._state = (self._state + seed) & _MASK64
        self._step()
        self._derive_key = _splitmix64(seed) ^ _splitmix64(stream + 0x632BE59BD9B4E019)

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK64

    @staticmethod
    def _output(old: int) -> int:
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def next_u32(self) -> int:
        old = self._state
        self._step()
        return self._output(old)

    def _bulk_u32(self, n: int) -> np.ndarray:
        """n successive 32-bit outputs, bit-identical to n next_u32 calls."""
        if n <= 0:
            return np.empty(0, dtype=np.uint64)
        a = np.uint64(_PCG_MULT)
        with np.errstate(over="ignore"):
            powers = np.empty(n, dtype=np.uint64)
            powers[0] = 1
            if n > 1:
                np.multiply.accumulate(
                    np.full(n - 1, a, dtype=np.uint64), out=powers[1:]
                )
            geo = np.zeros(n, dtype=np.uint64)
            if n > 1:
                np.add.accumulate(powers[:-1], out=geo[1:])
            olds = powers * np.uint64(self._state) + geo * np.uint64(self._inc)
            self._state = (int(olds[-1]) * _PCG_MULT + self._inc) & _MASK64
            xorshifted = ((olds >> np.uint64(18)) ^ olds) >> np.uint64(27)
            xorshifted = xorshifted & np.uint64(0xFFFFFFFF)
            rot = (olds >> np.uint64(59)).astype(np.uint64)
            left = (np.uint64(32) - rot) & np.uint64(31)
            out = (xorshifted >> rot) | (xorshifted << left)
            return out & np.uint64(0xFFFFFFFF)

    def uniform(self) -> float:
        hi = self.next_u32()
        lo = self.next_u32()
        return (((hi << 32) | lo) >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each from two consecutive 32-bit outputs."""
        raw = self._bulk_u32(2 * n)
        hi = raw[0::2]
        lo = raw[1::2]
        with np.errstate(over="ignore"):
            bits = (hi << np.uint64(32)) | lo
        return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller; consumes 2*ceil(n/2) uniforms."""
        if n <= 0:
            return np.empty(0, dtype=np.float64)
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        u1 = u[0::2]
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound) as floor(uniform * bound)."""
        if bound <= 0:
            raise DomainError(f"randint bound must be positive, got {bound}")
        return int(self.uniform() * bound)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); consumes n-1 randint draws."""
        perm = np.arange(n)
        if n <= 1:
            return perm
        js = self.uniforms(n - 1)
        for k, i in enumerate(range(n - 1, 0, -1)):
            j = int(js[k] * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def shuffled(self, rows: np.ndarray) -> np.ndarray:
        """Rows of a 2-D array in permuted order (copy; input untouched)."""
        return np.asarray(rows)[self.permutation(len(rows))]

    def child(self, index: int) -> "Rng":
        """Independent stream number ``index`` derived from this generator's
        construction key (not from its current position)."""
        if index < 0:
            raise DomainError(f"child index must be >= 0, got {index}")
        k = _splitmix64(self._derive_key ^ _splitmix64(index + 1))
        return Rng(seed=_splitmix64(k), stream=_splitmix64(k ^ 0x9E3779B97F4A7C15))


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0; absolute error well under 1e-12 on [0.5, 1e6]."""
    if not x > 0.0:
        raise DomainError(f"lgamma requires x > 0, got {x}")
    return math.lgamma(x)


def std_normal_cdf(z):
    """Standard normal CDF via erfc, accurate in both tails.

    Accepts a scalar or an ndarray; arrays are evaluated elementwise
    (sizes here are small: one value per model layer).
    """
    if np.isscalar(z) or np.ndim(z) == 0:
        return 0.5 * math.erfc(-float(z) / _SQRT2)
    arr = np.asarray(z, dtype=np.float64)
    flat = arr.reshape(-1)
    out = np.fromiter(
        (0.5 * math.erfc(-v / _SQRT2) for v in flat), dtype=np.float64, count=flat.size
    )
    return out.reshape(arr.shape)


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    This is the independent oracle every hand-derived backward pass is
    checked against, so it deliberately stays dumb: one (f(x+h e_i) -
    f(x-h e_i)) / 2h evaluation per coordinate.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DomainError(f"finite_diff_grad expects a flat vector, got ndim={x.ndim}")
    if not h > 0.0:
        raise DomainError(f"finite difference step must be positive, got {h}")
    grad = np.empty_like(x)
    probe = x.copy()
    for i in range(x.size):
        orig = probe[i]
        probe[i] = orig + h
        fp = float(f(probe))
        probe[i] = orig - h
        fm = float(f(probe))
        probe[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise DomainError(f"objective not finite at probe for coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad
