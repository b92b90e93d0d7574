"""Low-level numeric kernels and the deterministic RNG.

Everything here is 64-bit floating point, in numpy float64 arrays of
row-major (C) order.  The kernels below are pure, so values can be shared
read-only across threads.

Reproducibility rules observed by this module:

* ``log_sum_exp`` reduces its terms in a canonical (sorted) order, so its
  result is bit-identical under any permutation of the inputs.
* All randomness in the package flows through :class:`Rng`, a small
  xoshiro256** generator implemented here from scratch.  Identical seeds
  give identical streams on any platform, and named child streams are
  derived from the seed alone so consumers cannot perturb each other.
* A matrix-matrix product (GEMM) can give different bits at different BLAS
  thread counts, and a row's result can change with the block it sits in.
  Every block product therefore runs inside :func:`single_threaded_blas`,
  on blocks whose rows are fixed by the inputs alone (see
  :data:`BLOCK_ROWS`), and :func:`map_in_order` hands whole units of such
  blocks to worker threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "ContractError",
    "PROB_EPS",
    "Rng",
    "clamp_prob",
    "log_sum_exp",
    "map_in_order",
    "sigmoid_vec",
    "single_threaded_blas",
]


class ContractError(ValueError):
    """A caller violated a documented precondition."""


#: Probabilities are clipped to [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-12

#: Rows per block where the inputs do not fix the block (scoring staircases,
#: draw walks, validation chunks); a seed reproduces runs at this value.
BLOCK_ROWS = 100


def sigmoid_vec(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for |x| up to 700.

    Large negative inputs are evaluated as exp(x)/(1+exp(x)) so the result
    stays positive down to the subnormal range instead of overflowing.
    Below roughly -745 the value underflows to exactly 0.0; callers that
    take logs must go through :func:`clamp_prob`, which covers that case.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def clamp_prob(p):
    """Clip probabilities to [PROB_EPS, 1 - PROB_EPS] (scalar or array)."""
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) via max-shift, exact for a single element.

    The shifted exponentials are summed in ascending order of value, which
    makes the result bit-identical under permutation of the inputs.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ContractError("log_sum_exp needs a non-empty 1-D collection")
    if arr.size == 1:
        return float(arr[0])
    hi = float(np.max(arr))
    shifted = np.sort(arr - hi)
    total = 0.0
    for t in shifted:
        total += math.exp(t)
    return hi + math.log(total)


# Setter and getter names in the OpenBLAS that numpy wheels bundle: the
# scipy-openblas build of numpy 2, then the 64-bit-integer build of numpy 1.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


@functools.cache
def _openblas_threads():
    """(set, get) thread-count functions of numpy's bundled OpenBLAS, or None.

    The wheel keeps the library next to the package (``numpy.libs`` on
    Linux, ``numpy/.dylibs`` on macOS); loading it again by path returns the
    copy numpy already uses.
    """
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter = getattr(lib, set_name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter = getattr(lib, get_name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return setter, getter
    return None


@contextlib.contextmanager
def single_threaded_blas():
    """Run the body with BLAS on one thread; restore the old count after.

    Pins numpy's bundled OpenBLAS through ctypes, whatever
    ``OPENBLAS_NUM_THREADS`` said when numpy loaded.  With any other BLAS
    this does nothing, and the thread count must be fixed through that
    library's own environment variable instead.
    """
    controls = _openblas_threads()
    if controls is None:
        yield
        return
    setter, getter = controls
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


def map_in_order(fn, items, threads: int = 1) -> list:
    """``[fn(item) for item in items]``, on ``threads`` worker threads if > 1.

    BLAS is pinned to one thread before any worker starts, so a worker that
    pins it again restores one thread, not the caller's count, on exit.
    Each item must be a whole unit of work whose result does not depend on
    which worker runs it or on what runs beside it.
    """
    with single_threaded_blas():
        if threads <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3


def _splitmix64(z: int) -> int:
    # Finalizer of the splitmix64 sequence; full 64-bit avalanche.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** generator with named, independently seeded sub-streams.

    State is seeded from a single 64-bit integer through four successive
    splitmix64 outputs.  Child streams are derived from the *seed*, never
    from the evolving state:

        child_seed = splitmix64(splitmix64(seed ^ fnv1a64(name)) ^ index)

    so ``rng.stream("masks")`` yields the same stream no matter how much
    the parent has been consumed, and distinct names or indices give
    decorrelated streams.
    """

    __slots__ = ("seed", "_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ContractError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        z = seed
        state = []
        for _ in range(4):
            z = (z + 0x9E3779B97F4A7C15) & _MASK64
            state.append(_splitmix64(z))
        if not any(state):  # all-zero state is the one forbidden configuration
            state[0] = 1
        self._s0, self._s1, self._s2, self._s3 = state

    def stream(self, name: str, index: int = 0) -> "Rng":
        """Derive an independent child generator for (name, index)."""
        child = _splitmix64(_splitmix64(self.seed ^ _fnv1a64(name.encode("utf-8"))) ^ (index & _MASK64))
        return Rng(child)

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) (multiply-shift bounding)."""
        if n <= 0:
            raise ContractError("next_below needs n >= 1")
        return (self.next_uint64() * n) >> 64

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()

    def bernoulli(self, p: float) -> int:
        return 1 if self.next_float() < p else 0

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> np.ndarray:
        items = list(range(n))
        self.shuffle(items)
        return np.array(items, dtype=np.int64)

    def uniform_array(self, shape) -> np.ndarray:
        """Array of uniforms in [0, 1), filled in row-major order."""
        flat = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(flat.size):
            flat[i] = self.next_float()
        return flat.reshape(shape)
