"""Low-level numeric kernels and the deterministic RNG.

Everything here is 64-bit floating point, in numpy float64 arrays of
row-major (C) order; only 0/1 data may be held one byte per value (uint8)
until a block of it is widened to float64.  The kernels below are pure,
so values can be shared read-only across threads.

Reproducibility rules observed by this module:

* ``log_sum_exp`` reduces its terms in a canonical (sorted) order, so its
  result is bit-identical under any permutation of the inputs.
* All randomness in the package flows through :class:`Rng`, a
  counter-based splitmix64 generator implemented here from scratch: draw
  c of a stream is a pure function of (key, c), so bulk draws, of one
  stream or of a block of streams, are numpy array arithmetic and equal
  the same number of scalar draws bit for bit.
  Identical seeds give identical streams on any platform, and named
  child streams are derived from the seed alone so consumers cannot
  perturb each other.
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


def _as_data(a) -> np.ndarray:
    """``a`` as an array: uint8 (0/1 data, one byte per value) as it is, anything else as float64."""
    a = np.asarray(a)
    return a if a.dtype == np.uint8 else a.astype(np.float64, copy=False)


def _is_binary(v: np.ndarray) -> bool:
    """Whether every value of ``v`` is 0 or 1; a uint8 array is checked on its bytes."""
    if v.dtype == np.uint8:
        return bool(v.max(initial=0) <= 1)
    return bool(np.all((v == 0.0) | (v == 1.0)))


def sigmoid_vec(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function as exp(min(x, 0)) / (1 + exp(-|x|)).

    For x >= 0 this is 1/(1+exp(-x)) and for x < 0 it is exp(x)/(1+exp(x)),
    so no exponential overflows and the result stays positive down to the
    subnormal range.  One formula covers both signs, with no branch or
    gather, and gives the same bits as evaluating each sign separately.
    Both exponentials come from one: e = exp(min(x, -x)) is exp(-|x|), and
    exp(min(x, 0)) is max(e, [x >= 0]), that is e where x < 0 and 1.0
    elsewhere, since 0 <= e <= 1 (a NaN passes through min and max as it
    is, as through min(x, 0)).
    Below roughly -745 the value underflows to exactly 0.0; callers that
    take logs must go through :func:`clamp_prob`, which covers that case.
    The result is written into ``out``, which may be ``v`` itself, and
    returned; without ``out`` it goes into a new array and ``v`` is left
    as it is.
    """
    v = np.asarray(v, dtype=np.float64)
    if out is None:
        # the result is allocated before the temporary, as in the two-exp form:
        # the other order raised the peak RSS of paper-shape training by ~0.3 MB
        out = np.empty_like(v)
    return _sigmoid(v, out, np.empty_like(v))


def _sigmoid(v: np.ndarray, out: np.ndarray, e: np.ndarray) -> np.ndarray:
    """:func:`sigmoid_vec` of float64 ``v`` into ``out``, through ``e``, a buffer shaped like ``v``."""
    np.negative(v, out=e)
    np.minimum(v, e, out=e)
    np.exp(e, out=e)
    # the last read of v, so out may be v
    np.greater_equal(v, 0.0, out=out, casting="unsafe")
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return out


def clamp_prob(p):
    """Clip probabilities to [PROB_EPS, 1 - PROB_EPS] (scalar or array)."""
    return _clamp(p, None)


def _clamp(p, out: np.ndarray | None):
    """:func:`clamp_prob` of ``p`` into ``out``, or into a new result when None."""
    return np.minimum(np.maximum(p, PROB_EPS, out=out), 1.0 - PROB_EPS, out=out)


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
_MASK32 = (1 << 32) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GAMMA_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)


def _splitmix64(z: int) -> int:
    """Finalizer of the splitmix64 sequence; full 64-bit avalanche."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """The mixing steps of :func:`_splitmix64` (all but its first increment)
    on a uint64 array, in place; array products wrap mod 2^64."""
    z ^= z >> 30
    z *= _MIX1_U64
    z ^= z >> 27
    z *= _MIX2_U64
    z ^= z >> 31
    return z


@functools.lru_cache(maxsize=256)
def _fnv1a64(name: str) -> int:
    """FNV-1a of the name's UTF-8 bytes, computed once per name while it stays cached."""
    h = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _to_unit(u):
    """Uniform in [0, 1) from the top 53 bits of a 64-bit draw.

    Takes a Python int, or a uint64 array of draws, which it overwrites.
    """
    if isinstance(u, int):
        return (u >> 11) * (2.0 ** -53)
    u >>= 11
    f = u.astype(np.float64)
    f *= 2.0 ** -53
    return f


def _below(u, n):
    """Uniform integers in [0, n): the high 64 bits of u * n.

    ``u`` is a 64-bit draw (Python int or uint64 array) and ``n`` an int or
    an integer array of bounds in [1, 2^32) that broadcasts against u.  The
    product is assembled from the 32-bit halves of u, so no partial result
    leaves 64 bits.
    """
    if isinstance(n, np.ndarray):
        lo, hi = int(n.min(initial=1)), int(n.max(initial=1))
        n = n.astype(np.uint64)
    else:
        n = lo = hi = int(n)
    if lo < 1 or hi > _MASK32:
        raise ContractError("bounded draws need 1 <= n < 2^32")
    return ((u >> 32) * n + (((u & _MASK32) * n) >> 32)) >> 32


def _draws(rngs, n: int) -> np.ndarray:
    """The next n draws of each generator, as a len(rngs) x n uint64 block.

    One keyed pass makes every entry: entry (r, i) is draw counter_r + i
    of generator r, ``seed_r + (counter_r + i + 1) * GAMMA`` mod 2^64
    through the mixing steps.  Each counter advances by n, in row order,
    so a generator listed twice gives its rows consecutive windows.
    """
    starts = []
    for rng in rngs:
        # draw counter + i with the first increment of _splitmix64 already added
        starts.append((rng.seed + (rng.counter + 1) * _GAMMA) & _MASK64)
        rng.counter += n
    # one broadcast product, then added to in place: each further temporary
    # of the block's size slowed training's large single-generator draws
    # (65,536 values) by about a third
    z = np.arange(n, dtype=np.uint64) * np.full((len(rngs), 1), _GAMMA_U64)
    z += np.array(starts, dtype=np.uint64)[:, None]
    return _mix64_inplace(z)


def _permutations(rngs, n: int) -> np.ndarray:
    """One Fisher-Yates shuffle of 0..n-1 per generator, as a len(rngs) x n int64 block.

    Swap i, for i from n - 1 down to 1, exchanges slot i with a slot below
    i + 1.  All rows' swap bounds come from one :func:`_draws` block; each
    row then swaps as a list.
    """
    js = _below(_draws(rngs, max(n - 1, 0)), np.arange(n, 1, -1)).tolist()
    rows = []
    for row in js:
        items = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), row):
            items[i], items[j] = items[j], items[i]
        rows.append(items)
    return np.array(rows, dtype=np.int64).reshape(len(rngs), n)


class Rng:
    """Counter-based splitmix64 generator with named, independent sub-streams.

    The state is a key (the seed) and a counter.  Draw c, counting from 0,
    is ``_splitmix64((key + c * 0x9E3779B97F4A7C15) mod 2^64)``, which is
    output c of the splitmix64 sequence seeded with the key (the finalizer
    adds one more increment first), so any draw can be computed without
    the ones before it.  Bulk methods return draws c .. c+n-1 as numpy
    arrays and advance the counter by n; they give the same bits as n
    scalar draws.  Child streams are derived from the *seed*, never from
    the counter:

        child_seed = splitmix64(splitmix64(seed ^ fnv1a64(name)) ^ index)

    so ``rng.stream("masks")`` yields the same stream no matter how much
    the parent has been consumed, and distinct names or indices give
    decorrelated streams.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ContractError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self.counter = 0

    def stream(self, name: str, index: int = 0) -> "Rng":
        """Derive an independent child generator for (name, index)."""
        child = _splitmix64(_splitmix64(self.seed ^ _fnv1a64(name)) ^ (index & _MASK64))
        return Rng(child)

    def next_uint64(self) -> int:
        c = self.counter
        self.counter = c + 1
        return _splitmix64((self.seed + c * _GAMMA) & _MASK64)

    def uint64_array(self, n: int) -> np.ndarray:
        """The next n draws as a uint64 array; the counter advances by n."""
        return _draws([self], n)[0]

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return _to_unit(self.next_uint64())

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) for 1 <= n < 2^32 (multiply-shift bounding)."""
        return _below(self.next_uint64(), n)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()

    def bernoulli(self, p: float) -> int:
        return 1 if self.next_float() < p else 0

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: item i becomes old item p[i], for p the next ``permutation``."""
        items[:] = [items[i] for i in self.permutation(len(items)).tolist()]

    def permutation(self, n: int) -> np.ndarray:
        """A Fisher-Yates shuffle of 0..n-1, its n - 1 swap bounds from one bulk draw."""
        return _permutations([self], n)[0]

    def uniform_array(self, shape) -> np.ndarray:
        """Array of uniforms in [0, 1), filled in row-major order."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        return _to_unit(self.uint64_array(math.prod(shape))).reshape(shape)
