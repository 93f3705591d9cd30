"""Likelihood models with hand-derived parameter gradients.

Two model families live here. A diagonal Gaussian in (mu, log sigma)
parameterization, whose score has a closed form, serves as the exactly
solvable testbed. A stack of affine coupling blocks is the desk-scale
flow: each block passes half the coordinates through untouched, feeds
them to a one-hidden-layer tanh conditioner, and applies the resulting
scale/shift to the other half. Scales are exp(clamp(s, -c, c)) so the
map is invertible for every finite input.

Backward passes are derived by hand per architecture and verified
against central finite differences in the tests; there is no autodiff
tape. Both a per-sample score and a single contracted backward pass for
the batch-summed objective are provided, and they agree by linearity.

Checkpoints are canonical JSON (type, dims, hyper, named layers with
shapes and row-major values). Python's shortest-repr float serialization
makes save/load round-trips bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .data import write_atomic
from .errors import DatasetFormatError, DomainError, NonFiniteError
from .numcore import Rng

_LOG_2PI = math.log(2.0 * math.pi)


class LayeredParams:
    """Ordered, named parameter layers (also used for gradient vectors).

    Layers keep their order and shapes; ``flat``/``from_flat`` give the
    row-major concatenated view used by the optimizer and the finite
    difference oracle. Arrays are stored read-only; updates go through
    ``from_flat`` or construction of a new instance.
    """

    def __init__(self, items):
        names = []
        arrays = []
        for name, arr in items:
            a = np.array(arr, dtype=np.float64)
            if not np.all(np.isfinite(a)):
                raise NonFiniteError(f"layer '{name}' has non-finite entries")
            a.flags.writeable = False
            names.append(str(name))
            arrays.append(a)
        if len(set(names)) != len(names):
            raise DomainError("layer names must be unique")
        self.names = names
        self.arrays = arrays

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(zip(self.names, self.arrays))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[self.names.index(name)]

    @property
    def n_params(self) -> int:
        return int(sum(a.size for a in self.arrays))

    def flat(self) -> np.ndarray:
        return np.concatenate([a.reshape(-1) for a in self.arrays])

    def from_flat(self, flat: np.ndarray) -> "LayeredParams":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise DomainError(
                f"flat vector has size {flat.shape}, expected ({self.n_params},)"
            )
        out = []
        pos = 0
        for name, a in self:
            out.append((name, flat[pos : pos + a.size].reshape(a.shape)))
            pos += a.size
        return LayeredParams(out)


class DiagGaussianModel:
    """Independent Gaussian per coordinate; layers 'mu' and 'log_sigma'.

    Closed forms used throughout (z = (x - mu) / sigma):
        log p(x)        = sum_i [-log sigma_i - log(2 pi)/2 - z_i^2 / 2]
        d/d mu_i        = z_i / sigma_i
        d/d log sigma_i = z_i^2 - 1
    """

    type_name = "diag_gaussian"

    def __init__(self, mu, log_sigma):
        self.params = LayeredParams([("mu", mu), ("log_sigma", log_sigma)])
        mu_a, ls_a = self.params.arrays
        if mu_a.ndim != 1 or mu_a.shape != ls_a.shape:
            raise DomainError(
                f"mu and log_sigma must be equal-length vectors, got "
                f"{mu_a.shape} and {ls_a.shape}"
            )
        self.dim = mu_a.size
        self.hyper = {}

    @classmethod
    def standard(cls, dim: int) -> "DiagGaussianModel":
        return cls(np.zeros(dim), np.zeros(dim))

    def with_params(self, params: LayeredParams) -> "DiagGaussianModel":
        return DiagGaussianModel(params["mu"], params["log_sigma"])

    def _z(self, x: np.ndarray):
        mu, ls = self.params.arrays
        sigma = np.exp(ls)
        return (x - mu) / sigma, sigma

    def log_likelihood_batch(self, x: np.ndarray) -> np.ndarray:
        x = _as_batch(x, self.dim)
        z, sigma = self._z(x)
        ls = self.params["log_sigma"]
        return np.sum(-ls - 0.5 * _LOG_2PI - 0.5 * z * z, axis=1)

    def score_batch(self, x: np.ndarray):
        x = _as_batch(x, self.dim)
        z, sigma = self._z(x)
        return [("mu", z / sigma), ("log_sigma", z * z - 1.0)]

    def grad_sum_batch(self, x: np.ndarray) -> LayeredParams:
        grads = self.score_batch(x)
        return LayeredParams([(n, g.sum(axis=0)) for n, g in grads])

    def loglik_and_grad_sum(self, x: np.ndarray):
        return float(self.log_likelihood_batch(x).sum()), self.grad_sum_batch(x)

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        """n draws; consumes n*dim normals in row-major (sample, coord) order."""
        mu, ls = self.params.arrays
        z = rng.normals(n * self.dim).reshape(n, self.dim)
        return mu + np.exp(ls) * z


class CouplingFlowModel:
    """Affine coupling flow; 4 layers per block (w_in, b_in, w_out, b_out).

    Block k transforms the first half of the coordinates when k is even
    and the second half when k is odd. With ``cond`` the pass-through
    half and ``act`` the transformed half:

        h = tanh(w_in @ cond + b_in)
        (s_raw, t) = split(w_out @ h + b_out)
        s = clip(s_raw, -c, c)
        act' = act * exp(s) + t,   per-block log-det = sum(s)

    The data-to-base map applies blocks 0..K-1 in order; log-likelihood
    is the standard normal log-density of the output plus the summed
    log-dets. Sampling runs the exact inverse chain in reverse order.
    """

    type_name = "coupling_flow"

    def __init__(self, dim: int, params: LayeredParams, n_blocks: int = 6,
                 hidden: int = 32, clamp: float = 5.0):
        if dim < 2 or dim % 2 != 0:
            raise DomainError(f"flow dimension must be even and >= 2, got {dim}")
        if n_blocks < 1 or hidden < 1 or not clamp > 0:
            raise DomainError(
                f"invalid hyperparameters: n_blocks={n_blocks}, hidden={hidden}, "
                f"clamp={clamp}"
            )
        self.dim = dim
        self.n_blocks = n_blocks
        self.hidden = hidden
        self.clamp = float(clamp)
        self.hyper = {"K": n_blocks, "H": hidden, "c": self.clamp}
        half = dim // 2
        expected = []
        for k in range(n_blocks):
            expected.append((f"block{k}.w_in", (hidden, half)))
            expected.append((f"block{k}.b_in", (hidden,)))
            expected.append((f"block{k}.w_out", (dim, hidden)))
            expected.append((f"block{k}.b_out", (dim,)))
        got = [(n, a.shape) for n, a in params]
        if got != expected:
            raise DomainError(
                f"flow layer layout mismatch: got {got[:3]}..., expected "
                f"{expected[:3]}..."
            )
        self.params = params

    @classmethod
    def init_random(cls, dim: int, rng: Rng, n_blocks: int = 6, hidden: int = 32,
                    clamp: float = 5.0) -> "CouplingFlowModel":
        """Seeded init: w_in ~ N(0, 1/half), w_out ~ N(0, (0.01)^2/hidden),
        biases zero. The small output scale keeps the initial map near the
        identity while leaving all layers trainable."""
        half = dim // 2
        items = []
        for k in range(n_blocks):
            w_in = rng.normals(hidden * half).reshape(hidden, half) / math.sqrt(half)
            w_out = 0.01 * rng.normals(dim * hidden).reshape(dim, hidden) / math.sqrt(hidden)
            items.append((f"block{k}.w_in", w_in))
            items.append((f"block{k}.b_in", np.zeros(hidden)))
            items.append((f"block{k}.w_out", w_out))
            items.append((f"block{k}.b_out", np.zeros(dim)))
        return cls(dim, LayeredParams(items), n_blocks, hidden, clamp)

    def with_params(self, params: LayeredParams) -> "CouplingFlowModel":
        return CouplingFlowModel(self.dim, params, self.n_blocks, self.hidden,
                                 self.clamp)

    def _block_params(self, k: int):
        p = self.params
        return (p[f"block{k}.w_in"], p[f"block{k}.b_in"],
                p[f"block{k}.w_out"], p[f"block{k}.b_out"])

    def _halves(self, k: int):
        """(transformed slice, pass-through slice) for block k."""
        half = self.dim // 2
        if k % 2 == 0:
            return slice(0, half), slice(half, self.dim)
        return slice(half, self.dim), slice(0, half)

    def _forward(self, x: np.ndarray):
        """Data-to-base pass; caches per-block intermediates for backward."""
        b = x.shape[0]
        half = self.dim // 2
        z = np.array(x, dtype=np.float64)
        logdet = np.zeros(b)
        cache = []
        for k in range(self.n_blocks):
            w_in, b_in, w_out, b_out = self._block_params(k)
            tsl, csl = self._halves(k)
            act = z[:, tsl].copy()
            cond = z[:, csl].copy()
            h = np.tanh(cond @ w_in.T + b_in)
            o = h @ w_out.T + b_out
            s_raw = o[:, :half]
            t = o[:, half:]
            s = np.clip(s_raw, -self.clamp, self.clamp)
            es = np.exp(s)
            z[:, tsl] = act * es + t
            logdet += s.sum(axis=1)
            cache.append((act, cond, h, s_raw, es))
        return z, logdet, cache

    def log_likelihood_batch(self, x: np.ndarray) -> np.ndarray:
        x = _as_batch(x, self.dim)
        z, logdet, _ = self._forward(x)
        base = -0.5 * self.dim * _LOG_2PI - 0.5 * np.sum(z * z, axis=1)
        return base + logdet

    def _backward(self, x: np.ndarray, per_sample: bool):
        """Gradients of log-likelihood w.r.t. every layer.

        Reverse sweep over the cached forward pass. ``g`` carries
        d loglik / d z_current per sample; each block adds 1 to ds for
        its own log-det term, zeroed where the clamp is active.
        """
        x = _as_batch(x, self.dim)
        bsz = x.shape[0]
        half = self.dim // 2
        z, logdet, cache = self._forward(x)
        loglik = -0.5 * self.dim * _LOG_2PI - 0.5 * np.sum(z * z, axis=1) + logdet
        g = -z
        grads = {}
        for k in range(self.n_blocks - 1, -1, -1):
            w_in, b_in, w_out, b_out = self._block_params(k)
            tsl, csl = self._halves(k)
            act, cond, h, s_raw, es = cache[k]
            g_act_out = g[:, tsl]
            g_cond_out = g[:, csl]
            inside = (np.abs(s_raw) < self.clamp).astype(np.float64)
            ds = (g_act_out * act * es + 1.0) * inside
            do = np.concatenate([ds, g_act_out], axis=1)
            dh = do @ w_out
            du = dh * (1.0 - h * h)
            if per_sample:
                grads[f"block{k}.w_out"] = np.einsum("bi,bh->bih", do, h)
                grads[f"block{k}.b_out"] = do
                grads[f"block{k}.w_in"] = np.einsum("bh,bj->bhj", du, cond)
                grads[f"block{k}.b_in"] = du
            else:
                grads[f"block{k}.w_out"] = do.T @ h
                grads[f"block{k}.b_out"] = do.sum(axis=0)
                grads[f"block{k}.w_in"] = du.T @ cond
                grads[f"block{k}.b_in"] = du.sum(axis=0)
            g_new = np.empty((bsz, self.dim))
            g_new[:, tsl] = g_act_out * es
            g_new[:, csl] = du @ w_in + g_cond_out
            g = g_new
        items = [(name, grads[name]) for name in self.params.names]
        return items, loglik

    def score_batch(self, x: np.ndarray):
        return self._backward(x, per_sample=True)[0]

    def grad_sum_batch(self, x: np.ndarray) -> LayeredParams:
        """Gradient of the batch-summed log-likelihood in one backward pass
        (the per-sample axis is contracted inside each block)."""
        return LayeredParams(self._backward(x, per_sample=False)[0])

    def loglik_and_grad_sum(self, x: np.ndarray):
        """Summed log-likelihood and its parameter gradient from one pass."""
        items, loglik = self._backward(x, per_sample=False)
        return float(loglik.sum()), LayeredParams(items)

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        """n draws; consumes n*dim base normals, then inverts the chain."""
        half = self.dim // 2
        z = rng.normals(n * self.dim).reshape(n, self.dim)
        for k in range(self.n_blocks - 1, -1, -1):
            w_in, b_in, w_out, b_out = self._block_params(k)
            tsl, csl = self._halves(k)
            cond = z[:, csl]
            h = np.tanh(cond @ w_in.T + b_in)
            o = h @ w_out.T + b_out
            s = np.clip(o[:, :half], -self.clamp, self.clamp)
            z[:, tsl] = (z[:, tsl] - o[:, half:]) * np.exp(-s)
        return z


_MODEL_TYPES = {
    DiagGaussianModel.type_name: DiagGaussianModel,
    CouplingFlowModel.type_name: CouplingFlowModel,
}


def _as_batch(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise DomainError(f"expected points of dimension {dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("input points contain non-finite values")
    return x


def score(model, x) -> LayeredParams:
    """Parameter gradient of log-likelihood at a single point."""
    return LayeredParams([(n, g[0]) for n, g in model.score_batch(x)])


def sample(model, rng: Rng, n: int) -> np.ndarray:
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    return model.sample(rng, n)


def checkpoint_dict(model) -> dict:
    return {
        "type": model.type_name,
        "dims": model.dim,
        "hyper": model.hyper,
        "layers": [
            {"name": n, "shape": list(a.shape), "values": a.reshape(-1).tolist()}
            for n, a in model.params
        ],
    }


def checkpoint_bytes(model) -> bytes:
    """Canonical serialization: sorted keys, no whitespace, repr floats."""
    return json.dumps(checkpoint_dict(model), sort_keys=True,
                      separators=(",", ":")).encode()


def model_checksum(model) -> str:
    return hashlib.sha256(checkpoint_bytes(model)).hexdigest()


def save_model(model, path: str) -> None:
    write_atomic(path, json.dumps(checkpoint_dict(model), indent=1) + "\n")


def model_from_dict(obj: dict):
    try:
        mtype = obj["type"]
        dims = int(obj["dims"])
        hyper = obj.get("hyper", {})
        layers = obj["layers"]
        items = []
        for entry in layers:
            values = np.asarray(entry["values"], dtype=np.float64)
            shape = tuple(int(s) for s in entry["shape"])
            if values.size != int(np.prod(shape)):
                raise DatasetFormatError(
                    f"layer '{entry['name']}' has {values.size} values for "
                    f"shape {shape}"
                )
            items.append((entry["name"], values.reshape(shape)))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DatasetFormatError):
            raise
        raise DatasetFormatError(f"malformed checkpoint: {exc}") from exc
    if mtype not in _MODEL_TYPES:
        raise DatasetFormatError(f"unknown model type '{mtype}'")
    params = LayeredParams(items)
    if mtype == DiagGaussianModel.type_name:
        model = DiagGaussianModel(params["mu"], params["log_sigma"])
    else:
        model = CouplingFlowModel(
            dims, params,
            n_blocks=int(hyper.get("K", 6)),
            hidden=int(hyper.get("H", 32)),
            clamp=float(hyper.get("c", 5.0)),
        )
    if model.dim != dims:
        raise DatasetFormatError(f"dims field {dims} disagrees with layers")
    return model


def load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"checkpoint is not valid JSON: {exc}") from exc
    return model_from_dict(obj)
