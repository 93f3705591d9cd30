"""Deterministic numeric kernels: PRNG and normal CDF.

The random generator is PCG32 (64-bit LCG state, xorshift-rotate output)
so that streams are reproducible bit-for-bit across platforms and runs.
Every draw goes through one bulk path, the closed form of the LCG orbit,

    state_i = a^i * state_0 + c * (a^(i-1) + ... + a + 1)   (mod 2^64),

evaluated with wrapping uint64 cumulative products/sums. The scalar
reference in tests/pcg_reference.py, one LCG step per output, checks it.

The normal CDF defers to the C library's erfc through ``math``, per element.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import require_int

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
      * ``uniforms`` top 53 bits of two 32-bit outputs (first high) / 2^53.
      * ``normals``  Box-Muller; n draws consume 2*ceil(n/2) uniforms.
      * ``permutation`` Fisher-Yates from the top: for i = n-1 .. 1 swap i
        with floor(u * (i + 1)), the u taken in order from uniforms(n - 1).
    """

    def __init__(self, seed: int, stream: int = 0):
        seed = require_int(seed, "seed") & _MASK64
        stream = require_int(stream, "stream") & _MASK64
        self._inc = ((stream << 1) | 1) & _MASK64
        self._state = 0
        self._step()
        self._state = (self._state + seed) & _MASK64
        self._step()
        self._derive_key = _splitmix64(seed) ^ _splitmix64(stream + 0x632BE59BD9B4E019)

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK64

    def _bulk_u32(self, n: int) -> np.ndarray:
        """The next n 32-bit outputs (XSH-RR of the n states before each step)."""
        if n <= 0:
            return np.empty(0, dtype=np.uint64)
        a = np.uint64(_PCG_MULT)
        with np.errstate(over="ignore"):
            powers = np.empty(n, dtype=np.uint64)
            powers[0] = 1
            np.multiply.accumulate(np.full(n - 1, a, dtype=np.uint64), out=powers[1:])
            geo = np.zeros(n, dtype=np.uint64)
            np.add.accumulate(powers[:-1], out=geo[1:])
            olds = powers * np.uint64(self._state) + geo * np.uint64(self._inc)
            self._state = (int(olds[-1]) * _PCG_MULT + self._inc) & _MASK64
            xorshifted = ((olds >> np.uint64(18)) ^ olds) >> np.uint64(27)
            xorshifted = xorshifted & np.uint64(0xFFFFFFFF)
            rot = (olds >> np.uint64(59)).astype(np.uint64)
            left = (np.uint64(32) - rot) & np.uint64(31)
            out = (xorshifted >> rot) | (xorshifted << left)
            return out & np.uint64(0xFFFFFFFF)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each from two consecutive 32-bit outputs."""
        raw = self._bulk_u32(2 * require_int(n, "uniform count", 0))
        hi = raw[0::2]
        lo = raw[1::2]
        with np.errstate(over="ignore"):
            bits = (hi << np.uint64(32)) | lo
        return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller; consumes 2*ceil(n/2) uniforms."""
        m = (require_int(n, "normal count", 0) + 1) // 2
        u = self.uniforms(2 * m)
        u1 = u[0::2]
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); consumes n-1 uniforms."""
        n = require_int(n, "permutation length", 0)
        js = (self.uniforms(max(n - 1, 0)) * np.arange(n, 1, -1)).astype(np.int64).tolist()
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def shuffled(self, rows: np.ndarray) -> np.ndarray:
        """Rows of a 2-D array in permuted order (copy; input untouched)."""
        return np.asarray(rows)[self.permutation(len(rows))]

    def child(self, index: int) -> "Rng":
        """Independent stream number ``index`` derived from this generator's
        construction key (not from its current position)."""
        index = require_int(index, "child index", 0)
        k = _splitmix64(self._derive_key ^ _splitmix64(index + 1))
        return Rng(seed=_splitmix64(k), stream=_splitmix64(k ^ 0x9E3779B97F4A7C15))


def std_normal_cdf(z):
    """Standard normal CDF 0.5 erfc(-z / sqrt 2), accurate in both tails, of a
    scalar or an ndarray (shape kept): one C-library ``math.erfc`` per element."""
    t = -np.asarray(z, dtype=np.float64) / _SQRT2
    return 0.5 * np.fromiter(map(math.erfc, t.ravel().tolist()), float, t.size).reshape(t.shape)

