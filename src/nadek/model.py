"""Architecture definition and the k-step iterative inference pass.

The model reconstructs the missing components of a partially observed
binary vector by running ``k`` iterations of a small encoder/decoder
network whose weights are shared across iterations.  One iteration with a
single hidden layer (``n=2``) is

    h_t = phi(W v_{t-1} + c)
    v_t = m * sigmoid(V h_t + b) + (1 - m) * x

where ``m`` marks missing components with 1 and observed components stay
clamped to their input values at every step.  With ``n=3`` a second
encoder layer ``h2_t = phi(W2 h1_t + c2)`` feeds the decoder instead.
The output ``v_k`` is read as the factorial conditional distribution over
the missing components.

The pass runs on a block of rows (shape ``(B, D)``, one row being a block
of one) with a mask per row; every product is written ``act @ W.T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import ContractError, Rng, _as_data, _is_binary, _sigmoid, clamp_prob, sigmoid_vec
from .numerics import single_threaded_blas

__all__ = [
    "ModelParams",
    "StructureConfig",
    "Trajectory",
    "forward",
    "init_params",
]

ACTIVATIONS = ("tanh", "sigmoid")


@dataclass(frozen=True)
class StructureConfig:
    """Shape of the network: input width, hidden widths, step count.

    A second hidden layer of width ``hidden2`` exists when it is given.
    """

    D: int
    hidden1: int
    k: int = 1
    hidden2: int | None = None
    activation: str = "tanh"

    def __post_init__(self):
        if self.D < 1 or self.hidden1 < 1 or self.k < 1:
            raise ContractError("D, hidden1 and k must all be >= 1")
        if self.hidden2 is not None and self.hidden2 < 1:
            raise ContractError("hidden2 must be >= 1 when given")
        if self.activation not in ACTIVATIONS:
            raise ContractError(f"activation must be one of {ACTIVATIONS}")

    @property
    def n(self) -> int:
        """Weight matrices applied per iteration: 2 for one hidden layer, 3 for two."""
        return 2 if self.hidden2 is None else 3


@dataclass(frozen=True)
class ModelParams:
    """Learned tensors. W2/c2 are present exactly for n=3 structures.

    Shapes: W is hidden1 x D, c is hidden1, V is D x (last hidden width),
    b is D, W2 is hidden2 x hidden1, c2 is hidden2.

    Construction copies the given tensors into one new contiguous float64
    ``vector``, in canonical order, and binds each field to its C-order
    view of it, so a whole-model operation is one pass over the vector.
    The fields are frozen: a tensor is written into (``params.W[...] += d``),
    never rebound.
    """

    W: np.ndarray
    c: np.ndarray
    V: np.ndarray
    b: np.ndarray
    W2: np.ndarray | None = None
    c2: np.ndarray | None = None
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.W2 is None) != (self.c2 is None):
            raise ContractError("W2 and c2 must be given together")
        given = self.tensors()
        shapes = {name: np.shape(t) for name, t in given.items()}
        vector = np.empty(sum(math.prod(shape) for shape in shapes.values()))
        for name, view in _tile(vector, shapes).items():
            view[...] = given[name]
            object.__setattr__(self, name, view)
        object.__setattr__(self, "vector", vector)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, so the fields stay views of a vector
        return ModelParams, (self.W, self.c, self.V, self.b, self.W2, self.c2)

    def tensors(self) -> dict[str, np.ndarray]:
        """Named tensors in canonical (serialization) order."""
        out = {"W": self.W, "c": self.c}
        if self.W2 is not None:
            out["W2"] = self.W2
            out["c2"] = self.c2
        out["V"] = self.V
        out["b"] = self.b
        return out

    def zeros_like(self) -> "ModelParams":
        """Zero tensors of the same shapes, e.g. optimizer state.

        The zeros are written, not mapped lazily as ``np.zeros`` would: an
        in-place update reads each lazy page before writing it, faulting it
        twice.
        """
        return ModelParams(**{n: np.broadcast_to(0.0, t.shape) for n, t in self.tensors().items()})

    def copy(self) -> "ModelParams":
        return ModelParams(**self.tensors())

    def check_shapes(self, config: StructureConfig) -> None:
        want = expected_shapes(config)
        got = {name: t.shape for name, t in self.tensors().items()}
        if got != want:
            raise ContractError(f"parameter shapes {got} do not match config {want}")


class _Net(NamedTuple):
    """A model restricted to the coordinates a staircase or a walk has in play.

    Fields as in ModelParams, but ``c`` may be one row per block row, and
    the arrays are whatever slices the caller made.
    """

    W: np.ndarray
    c: np.ndarray
    V: np.ndarray
    b: np.ndarray
    W2: np.ndarray | None
    c2: np.ndarray | None


def _tile(vector: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views of ``vector`` of the given shapes, consecutive in the given order."""
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = vector[start : start + size].reshape(shape)
        start += size
    return views


def expected_shapes(config: StructureConfig) -> dict[str, tuple[int, ...]]:
    last_hidden = config.hidden2 if config.n == 3 else config.hidden1
    shapes = {"W": (config.hidden1, config.D), "c": (config.hidden1,)}
    if config.n == 3:
        shapes["W2"] = (config.hidden2, config.hidden1)
        shapes["c2"] = (config.hidden2,)
    shapes["V"] = (config.D, last_hidden)
    shapes["b"] = (config.D,)
    return shapes


@dataclass
class Trajectory:
    """Full unrolled state of one inference run, kept for backprop.

    ``v_states`` holds v_0 .. v_k (k+1 B x D blocks, shaped like the
    input); ``h_states`` holds one tuple of hidden activations per step
    (one array for n=2, two for n=3).
    Observed coordinates of every v_t for t >= 1 equal the input bit
    exactly; missing coordinates are sigmoid outputs in (0, 1).
    """

    v_states: list[np.ndarray]
    h_states: list[tuple[np.ndarray, ...]]
    mask: np.ndarray

    @property
    def k_used(self) -> int:
        """Number of inference steps the run took."""
        return len(self.h_states)


#: Draws per chunk of an init fill, so no full-size temporary exists.
_INIT_CHUNK = 1 << 16


def init_params(config: StructureConfig, rng: Rng) -> ModelParams:
    """Draw weights uniform in [-s, s] with s = sqrt(6/(fan_in+fan_out)).

    Biases start at zero.  Matrices are filled row-major in canonical
    tensor order from the given stream, a chunk of whole rows at a time,
    so a fixed seed reproduces the initialization exactly.
    """
    shapes = expected_shapes(config)
    params = ModelParams(**{name: np.broadcast_to(0.0, shape) for name, shape in shapes.items()})
    for t in params.tensors().values():
        if t.ndim == 1:
            continue
        fan_out, fan_in = t.shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        low, high = -bound, bound
        step = max(1, _INIT_CHUNK // fan_in)
        for start in range(0, fan_out, step):
            rows = t[start : start + step]
            # the same arithmetic as Rng.uniform, one chunk of rows at a time
            rows[...] = low + (high - low) * rng.uniform_array(rows.shape)
    return params


def _check_rows(x, D: int, name: str) -> np.ndarray:
    """``x`` as uint8 bytes or float64 values, once it is checked to be a
    non-empty rows x D matrix of 0/1 values."""
    x = _as_data(x)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != D:
        raise ContractError(f"{name} must be a non-empty matrix with {D} columns")
    if not _is_binary(x):
        raise ContractError(f"{name} must be exactly binary (0/1)")
    return x


def _check_mean(mean, D: int) -> np.ndarray:
    """``mean`` as float64, once it is checked to hold D values."""
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (D,):
        raise ContractError(f"mean{mean.shape} does not match D={D}")
    return mean


def forward(
    params: ModelParams,
    config: StructureConfig,
    x: np.ndarray,
    m: np.ndarray,
    mean: np.ndarray,
) -> Trajectory:
    """Run the k-step inference iteration and record the full trajectory.

    ``x`` is a B x D block of 0/1 values, B >= 1, and ``m`` its mask of
    the same shape (1 marks a missing component).  To run a different step count at inference
    time, pass ``dataclasses.replace(config, k=...)``.  BLAS runs on one
    thread, so the bits do not depend on its thread count.
    """
    params.check_shapes(config)
    x = _check_rows(x, config.D, "input").astype(np.float64, copy=False)
    m = _check_rows(m, config.D, "mask").astype(np.float64, copy=False)
    if m.shape != x.shape:
        raise ContractError(f"mask{m.shape} does not match input{x.shape}")
    mean = _check_mean(mean, config.D)
    with single_threaded_blas():
        return _forward(params, config, x, m, mean, _trajectory_buffers(config, len(x)), np.empty(x.shape))


def _forward(
    params: ModelParams,
    config: StructureConfig,
    x: np.ndarray,
    m: np.ndarray,
    mean: np.ndarray,
    out: _Buffers,
    keep_x: np.ndarray,
) -> Trajectory:
    """The body of :func:`forward`, unchecked: the caller has checked what it checks.

    The trajectory is written into ``out`` (see :func:`_trajectory_buffers`),
    and ``keep_x``, a block shaped like ``x``, is free again on return, as
    is ``out.e`` when given.
    """
    np.subtract(1.0, m, out=keep_x)
    keep_x *= x
    # v_0: the mean at missing coordinates, x at observed ones
    v = np.multiply(m, mean, out=out.v[0])
    v += keep_x
    a1 = np.matmul(v, params.W.T, out=out.h[0][0])
    a1 += params.c
    top = _steps(params, config, a1, m, keep_x, out)
    _decode(params, top, m, keep_x, out.v[-1], out.e)
    return Trajectory(v_states=list(out.v), h_states=list(out.h), mask=m)


class _Buffers(NamedTuple):
    """Where the steps write: ``h[t]`` takes step t's hidden activations
    (one block per hidden layer, steps counted from 0), ``v[t]`` the state
    v_t that step t reads, decoded before it for t >= 1, and ``e`` the
    sigmoid's temporary, shaped like a state, or None for a new one at
    each decode.  A trajectory gives each state and step its own arrays,
    v_0 .. v_k; a staircase or a walk repeats one set for every step."""

    h: list[tuple[np.ndarray, ...]]
    v: list[np.ndarray]
    e: np.ndarray | None


def _trajectory_buffers(config: StructureConfig, rows: int, e: np.ndarray | None = None) -> _Buffers:
    """New buffers for the trajectory of a ``rows``-row block, with ``e`` as the sigmoid's temporary."""
    blocks = [tuple(np.empty((rows, w)) for w in _widths(config)) for _ in range(config.k)]
    return _Buffers(blocks, [np.empty((rows, config.D)) for _ in range(config.k + 1)], e)


def _widths(config: StructureConfig) -> tuple[int, ...]:
    """Widths of the hidden layers, first to last."""
    return (config.hidden1,) if config.n == 2 else (config.hidden1, config.hidden2)


def _step_space(config: StructureConfig, rows: int, cols: int) -> list[np.ndarray]:
    """Flat storage for the buffers of blocks of up to ``rows`` x ``cols``."""
    return [np.empty(rows * w) for w in (*_widths(config), cols)]


#: Columns per chunk of a column gather, so no weight-sized temporary exists.
_GATHER_COLS = 16


def _gather_columns(source: np.ndarray, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``source[:, cols]`` copied into ``out``, a few columns at a time.

    ``out`` keeps its own memory order, so a caller chooses the layout its
    products read; the only temporary is one chunk of columns.
    """
    for start in range(0, len(cols), _GATHER_COLS):
        out[:, start : start + _GATHER_COLS] = source[:, cols[start : start + _GATHER_COLS]]
    return out


def _step_buffers(config: StructureConfig, space: list[np.ndarray], rows: int, cols: int) -> _Buffers:
    """One set of C-contiguous buffers for a ``rows`` x ``cols`` block,
    cut from the front of ``space`` and repeated for every step."""
    *hidden, v = (flat[: rows * w].reshape(rows, w) for flat, w in zip(space, (*_widths(config), cols)))
    return _Buffers([tuple(hidden)] * config.k, [v] * config.k, None)


def _decode(
    params: ModelParams, top: np.ndarray, m: np.ndarray, keep_x: np.ndarray,
    out: np.ndarray, e: np.ndarray | None,
) -> np.ndarray:
    """The state v_t a step decodes to from its top hidden activations, in ``out``.

    The sigmoid's temporary goes into ``e``, shaped like ``out``, or into a
    new array when ``e`` is None.  ``m`` and ``keep_x`` may cover only the
    first columns of the block: the columns past them are missing in every
    row, where the clamp m * s + keep_x is s itself.
    """
    s = np.matmul(top, params.V.T, out=out)
    s += params.b
    _sigmoid(s, s, np.empty_like(s) if e is None else e)
    clamped = s[:, : m.shape[1]]
    clamped *= m
    clamped += keep_x
    return s


def _steps(
    params: ModelParams,
    config: StructureConfig,
    a1: np.ndarray,
    m: np.ndarray,
    keep_x: np.ndarray,
    out: _Buffers,
) -> np.ndarray:
    """The config.k steps from step 1's hidden pre-activation ``a1``, unchecked.

    Step t writes its hidden activations into out.h[t], after decoding the
    state v_t between steps into out.v[t] when t >= 1.  ``a1`` may be
    out.h[0][0] itself.  Returns the last step's top activations; that
    step is not decoded, so a caller reads it only where it needs it.
    ``params`` may be a _Net, the model restricted to the coordinates still
    in play: its ``c`` then carries the contribution of the coordinates
    left out because they are observed throughout, as one vector or one
    row per block row.  Inputs must satisfy what :func:`forward` checks.
    """
    phi = np.tanh if config.activation == "tanh" else sigmoid_vec
    a, top = a1, None
    for t, hidden in enumerate(out.h):
        if t:
            v = _decode(params, top, m, keep_x, out.v[t], out.e)
            a = np.matmul(v, params.W.T, out=hidden[0])
            a += params.c
        top = phi(a, out=hidden[0])
        if config.n == 3:
            a2 = np.matmul(top, params.W2.T, out=hidden[1])
            a2 += params.c2
            top = phi(a2, out=hidden[1])
    return top


def _conditionals(
    params: ModelParams,
    config: StructureConfig,
    a1: np.ndarray,
    m: np.ndarray,
    keep_x: np.ndarray,
    out: _Buffers,
    cols: np.ndarray,
) -> np.ndarray:
    """Clamped P(x = 1) of row r at coordinate cols[r], after the k steps into ``out``.

    The last step is decoded at that one coordinate per row, as the row-wise
    dot product V[cols[r]] . h_k[r] + b[cols[r]].
    """
    top = _steps(params, config, a1, m, keep_x, out)
    z = np.einsum("ij,ij->i", params.V[cols], top) + params.b[cols]
    return clamp_prob(sigmoid_vec(z))
