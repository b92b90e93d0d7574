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

import numpy as np

from .numerics import ContractError, Rng, clamp_prob, sigmoid_vec

__all__ = [
    "ModelParams",
    "StructureConfig",
    "Trajectory",
    "build_input",
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


@dataclass
class ModelParams:
    """Learned tensors. W2/c2 are present exactly for n=3 structures.

    Shapes: W is hidden1 x D, c is hidden1, V is D x (last hidden width),
    b is D, W2 is hidden2 x hidden1, c2 is hidden2.

    Every ModelParams the package builds (``init_params``, ``zeros_like``,
    ``copy``, ``load_checkpoint`` and the gradients of ``backward``) holds
    its tensors as views of one private contiguous float64 vector, in
    canonical order, so a whole-model operation is one pass over it.  One
    built from separate arrays keeps them as given and has no vector, nor
    does a ``dataclasses.replace`` of one that has.
    """

    W: np.ndarray
    c: np.ndarray
    V: np.ndarray
    b: np.ndarray
    W2: np.ndarray | None = None
    c2: np.ndarray | None = None
    _flat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def tensors(self) -> dict[str, np.ndarray]:
        """Named tensors in canonical (serialization) order."""
        out = {"W": self.W, "c": self.c}
        if self.W2 is not None:
            out["W2"] = self.W2
            out["c2"] = self.c2
        out["V"] = self.V
        out["b"] = self.b
        return out

    def _vector(self) -> np.ndarray | None:
        """The backing vector, or None when a tensor is no longer a view of it."""
        flat = self._flat
        if flat is None or any(t.base is not flat for t in self.tensors().values()):
            return None
        return flat

    def zeros_like(self) -> "ModelParams":
        """Zero tensors of the same shapes, e.g. optimizer state.

        The zeros are written, not mapped lazily as ``np.zeros`` would: an
        in-place update reads each lazy page before writing it, faulting it
        twice.
        """
        zeros = _flat_params({name: t.shape for name, t in self.tensors().items()})
        zeros._flat.fill(0.0)
        return zeros

    def copy(self) -> "ModelParams":
        out = _flat_params({name: t.shape for name, t in self.tensors().items()})
        for t, src in zip(out.tensors().values(), self.tensors().values()):
            t[...] = src
        return out

    def check_shapes(self, config: StructureConfig) -> None:
        want = expected_shapes(config)
        got = {name: t.shape for name, t in self.tensors().items()}
        if got != want:
            raise ContractError(f"parameter shapes {got} do not match config {want}")


def _flat_params(
    shapes: dict[str, tuple[int, ...]], flat: np.ndarray | None = None
) -> ModelParams:
    """Params whose tensors of the given shapes tile ``flat`` in the given order.

    ``flat`` is a new uninitialized vector when None.
    """
    if flat is None:
        flat = np.empty(sum(math.prod(shape) for shape in shapes.values()))
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    params = ModelParams(**views)
    params._flat = flat
    return params


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
    params = _flat_params(expected_shapes(config))
    for t in params.tensors().values():
        if t.ndim == 1:
            t.fill(0.0)
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


def _check_binary(v: np.ndarray, name: str) -> None:
    if not np.all((v == 0.0) | (v == 1.0)):
        raise ContractError(f"{name} must be exactly binary (0/1)")


def _check_input(
    x: np.ndarray, m: np.ndarray, mean: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x``, ``m`` and ``mean`` as float64, once their shapes and 0/1 values are checked."""
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if x.shape != m.shape or x.ndim != 2 or mean.shape != x.shape[1:]:
        raise ContractError(
            f"build_input length mismatch: x{x.shape} m{m.shape} mean{mean.shape}"
        )
    _check_binary(m, "mask")
    _check_binary(x, "input")
    return x, m, mean


def build_input(x: np.ndarray, m: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Initial state v_0: empirical mean at missing slots, x elsewhere.

    ``x`` and ``m`` are B x D blocks of the same shape; ``mean`` is one
    row of length D, shared by every row.
    """
    x, m, mean = _check_input(x, m, mean)
    return m * mean + (1.0 - m) * x


def forward(
    params: ModelParams,
    config: StructureConfig,
    x: np.ndarray,
    m: np.ndarray,
    mean: np.ndarray,
) -> Trajectory:
    """Run the k-step inference iteration and record the full trajectory.

    ``x`` is a B x D block and ``m`` its mask of the same shape (1 marks
    a missing component).  To run a different step count at inference
    time, pass ``dataclasses.replace(config, k=...)``.
    """
    params.check_shapes(config)
    return _forward(params, config, *_check_input(x, m, mean))


def _forward(
    params: ModelParams,
    config: StructureConfig,
    x: np.ndarray,
    m: np.ndarray,
    mean: np.ndarray,
) -> Trajectory:
    """The body of :func:`forward`, unchecked: the caller has checked what it checks."""
    keep_x = (1.0 - m) * x
    # the operands build_input sums, so v_0 has its bits
    v = m * mean + keep_x
    a1 = v @ params.W.T + params.c
    h_states, v_states = _steps(params, config, a1, m, keep_x)
    v_states = [v, *v_states, _decode(params, h_states[-1][-1], m, keep_x)]
    return Trajectory(v_states=v_states, h_states=h_states, mask=m)


def _decode(params: ModelParams, top: np.ndarray, m: np.ndarray, keep_x: np.ndarray) -> np.ndarray:
    """The state v_t a step decodes to from its top hidden activations."""
    return m * sigmoid_vec(top @ params.V.T + params.b) + keep_x


def _steps(
    params: ModelParams,
    config: StructureConfig,
    a1: np.ndarray,
    m: np.ndarray,
    keep_x: np.ndarray,
) -> tuple[list[tuple[np.ndarray, ...]], list[np.ndarray]]:
    """The config.k steps from step 1's hidden pre-activation ``a1``, unchecked.

    Returns every step's hidden activations and the states v_1 .. v_{k-1}
    between the steps; the last step's output is not decoded, so a caller
    reads it only where it needs it.  ``params`` may be the model restricted
    to the coordinates still in play: its ``c`` then carries the
    contribution of the coordinates left out because they are observed
    throughout, as one vector or one row per block row.  Inputs must
    satisfy what :func:`forward` checks.
    """
    phi = np.tanh if config.activation == "tanh" else sigmoid_vec
    h_states: list[tuple[np.ndarray, ...]] = []
    v_states: list[np.ndarray] = []
    a = a1
    for t in range(config.k):
        if t:
            v_states.append(_decode(params, h_states[-1][-1], m, keep_x))
            a = v_states[-1] @ params.W.T + params.c
        h1 = phi(a)
        h_states.append((h1, phi(h1 @ params.W2.T + params.c2)) if config.n == 3 else (h1,))
    return h_states, v_states


def _conditionals(
    params: ModelParams,
    config: StructureConfig,
    a1: np.ndarray,
    m: np.ndarray,
    keep_x: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Clamped P(x = 1) of row r at coordinate cols[r], after the k steps.

    The last step is decoded at that one coordinate per row, as the row-wise
    dot product V[cols[r]] . h_k[r] + b[cols[r]].
    """
    top = _steps(params, config, a1, m, keep_x)[0][-1][-1]
    z = np.einsum("ij,ij->i", params.V[cols], top) + params.b[cols]
    return clamp_prob(sigmoid_vec(z))
