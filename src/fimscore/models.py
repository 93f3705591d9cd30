"""Likelihood models with hand-derived parameter gradients.

Two model families live here. A diagonal Gaussian in (mu, log sigma)
parameterization, whose score has a closed form, serves as the exactly
solvable testbed. A stack of affine coupling blocks is the desk-scale
flow: each block passes half the coordinates through untouched, feeds
them to a one-hidden-layer tanh conditioner, and applies the resulting
scale/shift to the other half. Scales are exp(clamp(s, -c, c)) so the
map is invertible for every finite input.

Backward passes are derived by hand per architecture and verified against
central finite differences in the tests; there is no autodiff tape. Each model
has one backward pass, ``factor_sweep(x)``: per layer, row factors a, b whose
products a_r b_r^T (a_r for a vector layer) are the per-row gradients;
``draw_sweep(z)`` is the model's draws from base normals z and that pass at
them. ``sweep_chunks`` drives either one: it hands each chunk's factors to a
sink, checks the filled rows once and keeps the per-row log-likelihood;
``grad_groups`` is its full-row sink, one reduce per vector layer straight
into the row. The flow's block table holds weights only; one chain routine
runs its blocks either way over two halves, block k making a new half k % 2,
so its input is never written, and caches h for the backward within
HIDDEN_CACHE_FLOATS; ``log_likelihood_batch`` and ``sample`` cache none.

Checkpoints are JSON (type, dims, hyper, named layers with shapes and
row-major values), written through ``data`` and read by ``read_json(path,
model_from_dict)``, which names the file in a refusal. The loader and
``with_params`` both call the family's ``build(dims, layers, **hyper)``; the
layers must fit the family's one layout, and a flow's hyper gives K, H and c,
none defaulted. The checksum hashes a compact sorted-key form. Python's
shortest-repr float serialization makes save/load round-trips bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .data import json_text, read_json, write_atomic
from .errors import (DomainError, NonFiniteError, require_finite, require_int,
                     require_numbers, require_positive)
from .numcore import Rng

_LOG_2PI = math.log(2.0 * math.pi)
CHUNK_FLOATS = 1 << 20  # gradient floats the groups of one sweep_chunks chunk span
HIDDEN_CACHE_FLOATS = 1 << 18  # hidden activations a flow sweep may cache


def layer_fail(layer_of, where=lambda i: ""):
    """The require_finite failure naming ``layer_of(j)``, j the bad column, then ``where(i)``."""
    return lambda i: NonFiniteError(f"layer '{layer_of(i[-1])}' has non-finite entries{where(i)}")


class LayeredParams:
    """Ordered, named parameter layers (also used for gradient vectors):
    read-only row-major views over one flat buffer, made on first use, which
    ``flat`` returns without copying. ``offsets`` holds each layer's start;
    ``from_flat`` copies a vector into a new instance with this layout."""

    def __init__(self, items):
        items = [(str(name), np.asarray(a, dtype=np.float64)) for name, a in items]
        self.names = [name for name, _ in items]
        if len(set(self.names)) != len(self.names):
            raise DomainError("layer names must be unique")
        self.offsets = np.cumsum([0] + [a.size for _, a in items])[:-1]
        self._layout = [(start, start + a.size, a.shape)
                        for start, (_, a) in zip(self.offsets.tolist(), items)]
        self._adopt(np.concatenate([np.empty(0)] + [a.reshape(-1) for _, a in items]))
        require_finite(self._buf, layer_fail(self.layer_of))

    def _adopt(self, buf: np.ndarray) -> None:
        buf.flags.writeable = False
        self._buf, self._arrays = buf, None

    @property
    def arrays(self) -> list:
        if self._arrays is None:
            self._arrays = self.views(self._buf)
        return self._arrays

    def __iter__(self):
        return iter(zip(self.names, self.arrays))

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise DomainError(f"no layer named '{name}'")
        return self.arrays[self.names.index(name)]

    @property
    def n_params(self) -> int:
        return self._buf.size

    def flat(self) -> np.ndarray:
        return self._buf

    def views(self, buf: np.ndarray) -> list:
        """Views of each layer's columns of ``buf``, shaped (*leading axes, *layer)."""
        return [buf[..., start:stop].reshape(buf.shape[:-1] + shape)
                for start, stop, shape in self._layout]

    def layer_of(self, col: int) -> str:
        return self.names[np.searchsorted(self.offsets, col, side="right") - 1]

    def from_flat(self, flat: np.ndarray) -> "LayeredParams":
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise DomainError(f"flat vector has shape {flat.shape}, want ({self.n_params},)")
        require_finite(flat, layer_fail(self.layer_of))
        return self._over(flat)

    def _over(self, buf: np.ndarray) -> "LayeredParams":
        """A new instance with this layout over ``buf`` itself, unchecked."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)  # shares names, offsets and layout
        out._adopt(buf)
        return out


def group_sums(a: np.ndarray, b, group_size: int, out=None) -> np.ndarray:
    """Sum of a_r b_r^T over each group of ``group_size`` consecutive rows,
    shape (groups, p, q); of a_r alone, shape (groups, p), when b is None."""
    a_g = a.reshape(-1, group_size, a.shape[1])
    if b is None:
        return a_g.sum(axis=1, out=out)
    # the same operands contract over a size-1 axis at G = 1: an outer product
    return (np.multiply if group_size == 1 else np.matmul)(
        a_g.transpose(0, 2, 1), b.reshape(-1, group_size, b.shape[1]), out=out)


def _grad_groups(self, x: np.ndarray, group_size: int):
    """``(grads, loglik)``: a flat gradient row per group of rows, loglik per row."""
    if (n := len(np.atleast_2d(x))) % require_int(group_size, "group size", 1):
        raise DomainError(f"{n} rows do not split into groups of {group_size}")

    def sink(factors, out):
        # one group (every trainer step): each sum goes straight into its slice of the row
        views = self.params.views(out) if len(out) > 1 else None
        for i, a, b in factors:
            start, stop, shape = self.params._layout[i]
            if views is not None:
                group_sums(a, b, group_size, out=views[i])
            elif b is not None:
                np.dot(a.T, b, out=out[0, start:stop].reshape(shape))
            else:
                np.add.reduce(a, axis=0, out=out[0, start:stop])

    return sweep_chunks(self, x, [group_size], sink, self.params.n_params, self.params.layer_of)


def _with_params(self, params: LayeredParams):
    """A model of this family, dimension and hyper over ``params``."""
    return self.build(self.dim, params, **self.hyper)


def _check_layout(params: LayeredParams, layout: list) -> None:
    """DomainError unless ``params`` holds exactly the (name, shape) layers of ``layout``."""
    got = [(n, a.shape) for n, a in params]
    if got != layout:
        raise DomainError(f"layer layout mismatch: got {got[:3]}..., expected {layout[:3]}...")


def _log_likelihood_batch(self, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # the caller names a non-finite value
        return self.factor_sweep(_as_batch(x, self.dim))[0]


def _score_batch(self, x: np.ndarray) -> list:
    """Per-row scores as (layer name, array of shape (rows, *layer shape))."""
    return list(zip(self.params.names, self.params.views(self.grad_groups(x, 1)[0])))


def _grad_sum_batch(self, x: np.ndarray) -> LayeredParams:
    """Gradient of the batch-summed log-likelihood."""
    return _loglik_and_grad_sum(self, x)[1]


def _loglik_and_grad_sum(self, x: np.ndarray):
    """Summed log-likelihood and its parameter gradient from one pass."""
    x = np.atleast_2d(x)  # grad_groups validates it
    grads, loglik = self.grad_groups(x, x.shape[0])
    return float(np.add.reduce(loglik)), self.params._over(grads[0])  # checked, not copied


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
        self.dim, self.hyper = require_int(np.size(mu), "Gaussian dimension", 1), {}
        _check_layout(self.params, self._layout(self.dim))

    @staticmethod
    def _layout(dim: int) -> list:
        return [("mu", (dim,)), ("log_sigma", (dim,))]

    @classmethod
    def standard(cls, dim: int) -> "DiagGaussianModel":
        return cls(np.zeros(dim), np.zeros(dim))

    @classmethod
    def build(cls, dim: int, params: LayeredParams, **hyper) -> "DiagGaussianModel":
        """The Gaussian over exactly the layers of ``_layout(dim)``; it has no hyper."""
        _check_layout(params, cls._layout(dim))
        return cls(*params.arrays)

    def factor_sweep(self, x: np.ndarray):
        """``(loglik, factors)`` of a checked (rows, dim) array: mu (z / sigma,
        None), then log_sigma (z^2 - 1, None), each made when reached."""
        mu, ls = self.params.arrays
        sigma = np.exp(ls)
        z = (x - mu) / sigma
        loglik = np.sum(-ls - 0.5 * _LOG_2PI - 0.5 * z * z, axis=1)
        return loglik, self._factors(z, sigma)

    def draw_sweep(self, z: np.ndarray):
        """``(x, loglik, factors)``: ``sample``'s draws x of base normals z, then x's sweep."""
        x = self._draw(z)
        return (x, *self.factor_sweep(x))

    @staticmethod
    def _factors(z: np.ndarray, sigma: np.ndarray):
        yield 0, z / sigma, None
        yield 1, z * z - 1.0, None

    with_params = _with_params
    log_likelihood_batch = _log_likelihood_batch
    grad_groups = _grad_groups
    score_batch = _score_batch
    grad_sum_batch = _grad_sum_batch
    loglik_and_grad_sum = _loglik_and_grad_sum

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        """n draws; consumes n*dim normals in row-major (sample, coord) order."""
        n = require_int(n, "sample count", 1)
        return self._draw(rng.normals(n * self.dim).reshape(n, self.dim))

    def _draw(self, z: np.ndarray) -> np.ndarray:
        return self.params["mu"] + np.exp(self.params["log_sigma"]) * z


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
        dim, n_blocks, hidden, clamp = self._hyper(dim, n_blocks, hidden, clamp)
        self.dim, self.n_blocks, self.hidden, self.clamp = dim, n_blocks, hidden, clamp
        self.hyper = {"K": n_blocks, "H": hidden, "c": clamp}
        _check_layout(params, self._layout(dim, n_blocks, hidden))
        self.params = params
        self._blocks = tuple(tuple(params.arrays[4 * k:4 * k + 4]) for k in range(n_blocks))

    @staticmethod
    def _layout(dim: int, n_blocks: int, hidden: int) -> list:
        """(name, shape) of every layer, block by block: w_in, b_in, w_out, b_out."""
        half = dim // 2
        return [(f"block{k}.{name}", shape) for k in range(n_blocks) for name, shape in
                (("w_in", (hidden, half)), ("b_in", (hidden,)),
                 ("w_out", (dim, hidden)), ("b_out", (dim,)))]

    @staticmethod
    def _hyper(dim, n_blocks, hidden, clamp):
        """Checked ``(dim, n_blocks, hidden, clamp)``, the clamp as a float."""
        if require_int(dim, "flow dimension") < 2 or dim % 2 != 0:
            raise DomainError(f"flow dimension must be even and >= 2, got {dim}")
        return (int(dim), require_int(n_blocks, "n_blocks", 1),
                require_int(hidden, "hidden", 1), require_positive(clamp, "clamp"))

    @classmethod
    def init_random(cls, dim: int, rng: Rng, n_blocks: int = 6, hidden: int = 32,
                    clamp: float = 5.0) -> "CouplingFlowModel":
        """Seeded init in layout order: w_in ~ N(0, 1/half), w_out ~
        N(0, (0.01)^2/hidden), biases zero. The small output scale keeps the
        initial map near the identity while leaving all layers trainable."""
        dim, n_blocks, hidden, clamp = cls._hyper(dim, n_blocks, hidden, clamp)
        layers = []
        for name, shape in cls._layout(dim, n_blocks, hidden):
            if len(shape) == 1:  # a bias
                layers.append((name, np.zeros(shape)))
                continue
            z = rng.normals(math.prod(shape)).reshape(shape)
            layers.append((name, (z if name.endswith("w_in") else 0.01 * z) / math.sqrt(shape[1])))
        return cls(dim, LayeredParams(layers), n_blocks, hidden, clamp)

    @classmethod
    def build(cls, dim: int, params: LayeredParams, **hyper) -> "CouplingFlowModel":
        """The flow of hyper K, H and c, none defaulted, over ``params``."""
        return cls(dim, params, require_int(hyper["K"], "K"), require_int(hyper["H"], "H"),
                   hyper["c"])

    with_params = _with_params

    @staticmethod
    def _hidden(w_in: np.ndarray, b_in: np.ndarray, cond: np.ndarray) -> np.ndarray:
        """tanh(cond @ w_in.T + b_in), built in one buffer."""
        h = np.dot(cond, w_in.T)  # np.matmul is slow on dim 2's outer product
        return np.tanh(np.add(h, b_in, out=h), out=h)

    def _block(self, k: int, cond: np.ndarray):
        """Block k's conditioner on ``cond``: ``(h, s_raw, s, t)``, s clamped."""
        w_in, b_in, w_out, b_out = self._blocks[k]
        h, half, c = self._hidden(w_in, b_in, cond), self.dim // 2, self.clamp
        o = np.dot(h, w_out.T)
        o += b_out
        s_raw = o[:, :half]  # s below is np.clip's values, without its wrapper
        return h, s_raw, np.minimum(np.maximum(s_raw, -c), c), o[:, half:]

    def _chain(self, z: np.ndarray, inverse=False, keep=True):
        """``(out, logdet, cache)`` of blocks 0..K-1 data to base, or with ``inverse``
        of blocks K-1..0 base to data, over two halves, never writing ``z``; logdet
        is data to base. With ``keep``, cache[k] is block k's (act, cond, s_raw, es,
        h), act on the data side, h None unless rows * K * H <= HIDDEN_CACHE_FLOATS."""
        keep_h = keep and len(z) * self.n_blocks * self.hidden <= HIDDEN_CACHE_FLOATS
        z = [z[:, :self.dim // 2], z[:, self.dim // 2:]]
        logdet, cache = np.zeros(len(z[0])), [None] * self.n_blocks
        for k in range(self.n_blocks)[::-1 if inverse else 1]:
            act, cond = z[k % 2], z[1 - k % 2]
            h, s_raw, s, t = self._block(k, cond)
            es = np.exp(s)
            z[k % 2] = (act - t) * np.exp(-s) if inverse else act * es + t  # sample's bytes
            logdet += np.add.reduce(s, axis=1)
            if keep:
                cache[k] = (z[k % 2] if inverse else act, cond, s_raw, es, h if keep_h else None)
            del h
        return np.concatenate(z, axis=1), logdet, cache

    def factor_sweep(self, x: np.ndarray):
        """``(loglik, factors)`` of a checked (rows, dim) array: the per-row
        log-likelihood, and a generator of ``(layer index, a, b)`` from the
        last block to the first: w_out (do, h), b_out (do, None), w_in
        (du, cond), b_in (du, None). ``g`` carries d loglik / d z_current
        per row; each block adds 1 to ds for its log-det term, zeroed where
        the clamp is active; the backward remakes each h ``_chain`` dropped."""
        z, logdet, cache = self._chain(x)
        return self._loglik(z, logdet), self._factors(-z, cache)

    def draw_sweep(self, z: np.ndarray):
        """``(x, loglik, factors)``: ``factor_sweep`` at ``sample``'s draws x of base normals z."""
        x, logdet, cache = self._chain(z, inverse=True)
        return x, self._loglik(z, logdet), self._factors(-z, cache)

    def log_likelihood_batch(self, x: np.ndarray) -> np.ndarray:
        """Per-row log-likelihood from a forward that caches nothing."""
        with np.errstate(over="ignore", invalid="ignore"):  # the caller names a non-finite value
            z, logdet, _ = self._chain(_as_batch(x, self.dim), keep=False)
            return self._loglik(z, logdet)

    def _loglik(self, z: np.ndarray, logdet: np.ndarray) -> np.ndarray:
        return -0.5 * self.dim * _LOG_2PI - 0.5 * np.add.reduce(z * z, axis=1) + logdet

    def _factors(self, g: np.ndarray, cache: list):
        g = [g[:, :self.dim // 2], g[:, self.dim // 2:]]
        for k in range(self.n_blocks - 1, -1, -1):
            w_in, b_in, w_out, _ = self._blocks[k]
            act, cond, s_raw, es, h = cache.pop()
            if h is None:
                h = self._hidden(w_in, b_in, cond)
            g_act_out = g[k % 2]
            ds = (g_act_out * act * es + 1.0) * (np.abs(s_raw) < self.clamp)
            do = np.concatenate([ds, g_act_out], axis=1)
            du = (do @ w_out) * (1.0 - h * h)
            yield 4 * k + 2, do, h
            yield 4 * k + 3, do, None
            yield 4 * k, du, cond
            yield 4 * k + 1, du, None
            if k:  # block 0's g is read by no later block
                g[k % 2], g[1 - k % 2] = g_act_out * es, g[1 - k % 2] + du @ w_in

    grad_groups = _grad_groups
    score_batch = _score_batch
    grad_sum_batch = _grad_sum_batch
    loglik_and_grad_sum = _loglik_and_grad_sum

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        """n draws; consumes n*dim base normals, then inverts the chain."""
        n = require_int(n, "sample count", 1)
        z = rng.normals(n * self.dim).reshape(n, self.dim)
        return self._chain(z, inverse=True, keep=False)[0]


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
    require_finite(x, lambda index: NonFiniteError(
        "input point {} has a non-finite value in column {}".format(*index)))
    return x


def sweep_chunks(model, x: np.ndarray, sizes, sink, width: int, name_of, draws=False):
    """``(*outs, loglik)``: per size G of ``sizes``, a (len(x) // G, width) array, a
    row per whole contiguous group of G rows, that ``sink(factors, *outs)`` fills chunk
    by chunk from the chunk's (i, a, b) stream; then each row's log-likelihood. A
    chunk's rows are a multiple of every size: at most CHUNK_FLOATS // P groups of the
    smallest, or one multiple. A NaN or inf in column j is a NonFiniteError naming
    ``name_of(j)`` and the group's input rows; a sink that drops factors checks them.
    With ``draws``, x is base normals, a chunk is a ``draw_sweep`` and a bad draw is
    named by its row, as ``sample`` names it."""
    x = _as_batch(x, model.dim)
    align = math.lcm(*sizes)
    step = align * max(1, min(sizes) * (CHUNK_FLOATS // model.params.n_params) // align)
    outs, loglik = [np.empty((len(x) // g, width)) for g in sizes], np.empty(len(x))
    sweep = model.draw_sweep if draws else model.factor_sweep
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the layer
        for start in range(0, len(x), step):  # the sink consumes the factors in here
            *drawn, loglik[start:start + step], factors = sweep(x[start:start + step])
            for d in drawn:  # checked before the sink reads a bad draw's factors
                require_finite(d, lambda i: NonFiniteError(
                    f"model draw {start + i[0]} is not finite"))
            sink(factors, *[out[start // g:(start + step) // g] for out, g in zip(outs, sizes)])
    for out, g in zip(outs, sizes):  # the failing group's input rows, counted from 0
        require_finite(out, layer_fail(name_of, lambda i: f" at input row {i[0]}" if g == 1
                       else f" in the group of input rows {i[0] * g} to {i[0] * g + g - 1}"))
    return (*outs, loglik)


def score(model, x) -> LayeredParams:
    """Parameter gradient of log-likelihood at a single point."""
    if len(x := _as_batch(x, model.dim)) != 1:
        raise DomainError(f"score takes one point, got shape {x.shape}")
    return model.params.from_flat(model.grad_groups(x, 1)[0][0])


def sample(model, rng: Rng, n: int) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the draw
        x = model.sample(rng, n)  # the model's own sample checks n
    require_finite(x, lambda index: NonFiniteError(f"model draw {index[0]} is not finite"))
    return x


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
    write_atomic(path, json_text(checkpoint_dict(model)))


def model_from_dict(obj: dict):
    """The model a checkpoint dict holds, made by its family's ``build``, whose
    hyper must be exactly the checkpoint's; ``read_json`` reports a refusal."""
    family = _MODEL_TYPES.get(obj["type"])
    if family is None:
        raise DomainError(f"unknown model type '{obj['type']}'")
    dims = require_int(obj["dims"], "dims")
    items = []
    for entry in obj["layers"]:
        name = entry["name"]
        values = require_numbers(entry["values"], f"layer '{name}' values")
        shape = tuple(require_int(s, f"layer '{name}' shape", 0) for s in entry["shape"])
        if values.size != math.prod(shape):
            raise DomainError(f"layer '{name}' has {values.size} values for shape {shape}")
        items.append((name, values.reshape(shape)))
    model = family.build(dims, LayeredParams(items), **obj["hyper"])
    for key in sorted(obj["hyper"].keys() - model.hyper.keys()):
        raise DomainError(f"'{key}' is not a {obj['type']} hyperparameter")
    return model


def load_model(path: str):
    return read_json(path, model_from_dict)
