"""Exact likelihood evaluation under fixed orderings and ordering ensembles.

The joint probability of a binary vector under one ordering is the chain
product of conditionals: for each position d the model is run with the
components after d masked missing, and only the o_d-th output coordinate
is read.  An ensemble treats a set of orderings as a uniform mixture,
scoring log p(x) = logsumexp_o(log p(x|o)) - log |O|.  For small D an
exhaustive enumeration over all 2^D vectors doubles as a normalization
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, StructureConfig, _check_mean, _check_rows, _conditionals, _Net
from .model import _step_buffers, _step_space
from .numerics import BLOCK_ROWS, ContractError, Rng, log_sum_exp, map_in_order
from .numerics import single_threaded_blas

__all__ = [
    "EnsembleSpec",
    "EvalReport",
    "Ordering",
    "draw_orderings",
    "ensemble_log_prob",
    "enumerate_distribution",
    "identity_ordering",
    "log_prob_ordering",
    "ordering_stats",
    "render_report",
]

ENUM_MAX_D = 20


@dataclass(frozen=True)
class Ordering:
    """A visit order over coordinates: perm[d] is visited at position d."""

    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(int(i) for i in self.perm))
        if tuple(sorted(self.perm)) != tuple(range(len(self.perm))):
            raise ContractError("perm is not a permutation of 0..D-1")
        if len(self.perm) == 0:
            raise ContractError("ordering must be non-empty")


def identity_ordering(D: int) -> Ordering:
    return Ordering(perm=tuple(range(D)))


@dataclass(frozen=True)
class EnsembleSpec:
    """The ordering set O of a uniform mixture."""

    orderings: tuple[Ordering, ...]

    def __post_init__(self):
        if len(self.orderings) == 0:
            raise ContractError("ensemble needs at least one ordering")
        lengths = {len(o.perm) for o in self.orderings}
        if len(lengths) != 1:
            raise ContractError("orderings have mixed lengths")


def draw_orderings(D: int, count: int, seed: int) -> EnsembleSpec:
    """Uniform orderings without replacement, by seeded shuffles.

    Duplicates are rejected and redrawn, so the set is distinct; count
    may not exceed D!.
    """
    if count < 1:
        raise ContractError("count must be >= 1")
    if count > math.factorial(D):
        raise ContractError(f"cannot draw {count} distinct orderings of {D} items")
    rng = Rng(seed).stream("orderings")
    seen: set[tuple[int, ...]] = set()
    out: list[Ordering] = []
    while len(out) < count:
        perm = tuple(rng.permutation(D))
        if perm in seen:
            continue
        seen.add(perm)
        out.append(Ordering(perm=perm))
    return EnsembleSpec(orderings=tuple(out))


def log_prob_ordering(
    params: ModelParams,
    config: StructureConfig,
    x: np.ndarray,
    o: Ordering,
    mean: np.ndarray,
) -> float:
    """log p(x | o) as the chain sum of per-position conditionals.

    The D positions are scored as a staircase, BLOCK_ROWS positions per
    block: row d has perm[:d] observed, and only its output at perm[d] is
    read.  Every row of the block starting at position s sees perm[:s]
    observed, so the block runs in visit order on the D - s coordinates
    still missing, with the shared prefix folded into the hidden bias:
    c + W[:, perm[:s]] @ x[perm[:s]].  Row j's input differs from row
    j - 1's in one coordinate (x in place of the mean), so step 1's
    pre-activations are one product at the mean plus an exclusive cumsum
    of W[:, j] * (x_j - mean_j); the last step is read at one coordinate
    per row.  The blocks depend on (x, o) alone, so the result has the
    same bits whatever else is being scored beside it.
    """
    xs, mean = _checked(params, config, [x], [o], mean)
    with single_threaded_blas():
        return _Staircase(params, config, mean).log_prob(xs[0], o)


def _checked(
    params: ModelParams,
    config: StructureConfig,
    xs,
    orderings,
    mean,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``xs`` (uint8 bytes as they are, else float64) and ``mean`` as
    float64, once the orderings' lengths, the rows, the mean and the params
    are checked, in that order."""
    if any(len(o.perm) != config.D for o in orderings):
        raise ContractError("ordering length does not match D")
    xs = _check_rows(xs, config.D, "x")
    mean = _check_mean(mean, config.D)
    params.check_shapes(config)
    return xs, mean


class _Staircase:
    """One worker's workspace for scoring (x, ordering) pairs of one model.

    It holds W's columns (as the rows of W.T), V's rows, b and the mean in
    the visit order of the ordering scored last, gathered once per
    ordering, and one set of block buffers that every block of every pair
    reuses.  ``WT``, W transposed, may be shared by the workspaces of one
    call: it is only read.  A workspace serves one thread at a time.
    """

    def __init__(
        self,
        params: ModelParams,
        config: StructureConfig,
        mean: np.ndarray,
        WT: np.ndarray | None = None,
    ):
        self.params, self.config, self.mean = params, config, mean
        self.WT = np.ascontiguousarray(params.W.T) if WT is None else WT
        self.ordering = self.perm = None
        self.WT_o, self.V_o = np.empty_like(self.WT), np.empty_like(params.V)
        self.b_o, self.mean_o = np.empty(config.D), np.empty(config.D)
        rows = min(BLOCK_ROWS, config.D)
        self.space = _step_space(config, rows, config.D)
        # row j of a block has its first j columns observed, and only those
        self.mask = (np.arange(rows) >= np.arange(rows)[:, None]) * 1.0
        self.observed = 1.0 - self.mask
        self.keep_x = np.empty(rows * rows)

    def log_prob(self, x: np.ndarray, o: Ordering) -> float:
        """log p(x | o) as :func:`log_prob_ordering` computes it, unchecked."""
        if o is not self.ordering:
            self.perm, self.ordering = np.array(o.perm), o
            for source, out in (
                (self.WT, self.WT_o),
                (self.params.V, self.V_o),
                (self.params.b, self.b_o),
                (self.mean, self.mean_o),
            ):
                # a permutation's indices are all in range, so "clip" clips
                # nothing; it spares take the copy of out its default mode makes
                np.take(source, self.perm, axis=0, out=out, mode="clip")
        params, config, D = self.params, self.config, self.config.D
        # W in visit order, in the F order of a column gather W[:, perm]: the
        # bits of its matrix-vector products and few-row GEMMs depend on it
        W, mean = self.WT_o.T, self.mean_o
        x = x[self.perm].astype(np.float64, copy=False)
        dx = x - mean
        total = 0.0
        for start in range(0, D, BLOCK_ROWS):
            end = min(start + BLOCK_ROWS, D)
            n = end - start
            c = params.c + W[:, :start] @ x[:start]
            net = _Net(W[:, start:], c, self.V_o[start:], self.b_o[start:], params.W2, params.c2)
            out = _step_buffers(config, self.space, n, D - start)
            # step 1's pre-activations, in the buffer that step 1 overwrites
            a1 = out.h[0][0]
            a1[0] = 0.0
            step = np.multiply(self.WT_o[start : end - 1], dx[start : end - 1, None], out=a1[1:])
            np.cumsum(step, axis=0, out=step)
            a1 += c + net.W @ mean[start:]
            keep_x = self.keep_x[: n * n].reshape(n, n)
            np.multiply(self.observed[:n, :n], x[start:end], out=keep_x)
            p = _conditionals(net, config, a1, self.mask[:n, :n], keep_x, out, np.arange(n))
            total += float(np.sum(np.where(x[start:end] == 1.0, np.log(p), np.log(1.0 - p))))
        return total


def ensemble_log_prob(
    params: ModelParams,
    config: StructureConfig,
    x: np.ndarray,
    spec: EnsembleSpec,
    mean: np.ndarray,
) -> float:
    """log p(x) under the uniform mixture of the ensemble's orderings."""
    return ordering_stats(params, config, np.atleast_2d(x), spec, mean).ensemble_mean()


@dataclass
class EvalReport:
    """Per-(sample, ordering) log-probs plus the three spread aggregates.

    A variance aggregate is None when its direction has fewer than two
    entries to difference.
    """

    matrix: np.ndarray
    mean: float
    sd_over_orderings: float | None
    sd_over_samples: float | None

    def ensemble_mean(self) -> float:
        """Mean over samples of the uniform-mixture log-prob."""
        n_orderings = self.matrix.shape[1]
        per_sample = [
            log_sum_exp(row) - math.log(n_orderings) for row in self.matrix
        ]
        return float(np.mean(per_sample))


def stats_from_matrix(matrix: np.ndarray) -> EvalReport:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ContractError("log-prob matrix must be 2-D and non-empty")
    n_samples, n_orderings = matrix.shape
    mean = float(matrix.mean())
    sd_o = None
    if n_orderings >= 2:
        sd_o = float(math.sqrt(np.mean(np.var(matrix, axis=1, ddof=1))))
    sd_x = None
    if n_samples >= 2:
        sd_x = float(math.sqrt(np.mean(np.var(matrix, axis=0, ddof=1))))
    return EvalReport(
        matrix=matrix, mean=mean, sd_over_orderings=sd_o, sd_over_samples=sd_x
    )


def ordering_stats(
    params: ModelParams,
    config: StructureConfig,
    samples: np.ndarray,
    spec: EnsembleSpec,
    mean: np.ndarray,
    threads: int = 1,
) -> EvalReport:
    """Fill the log-prob matrix over samples x orderings and aggregate it.

    The pairs, in ordering-major order, are split into one run of
    consecutive pairs for each of up to ``threads`` workers, and each run
    is scored on a workspace of its own.  Pair i is row i % n under
    ordering i // n, for n samples, so no list of the pairs is made.  A
    pair's bits depend neither on the workspace nor on what it scored
    before, so the matrix is the same at any thread count.  Aggregates use
    unbiased (n-1) variances: the mean over samples of the across-ordering
    variance, and the mean over orderings of the across-sample variance,
    each reported as a square root.
    """
    samples, mean = _checked(params, config, samples, spec.orderings, mean)
    WT = np.ascontiguousarray(params.W.T)
    # ordering-major, so a worker gathers each of its orderings once
    n = samples.shape[0]
    logs = np.empty(len(spec.orderings) * n)
    parts = max(1, min(threads, logs.size))
    runs = [range(logs.size * j // parts, logs.size * (j + 1) // parts) for j in range(parts)]

    def score(run: range) -> None:
        staircase = _Staircase(params, config, mean, WT)
        for i in run:
            logs[i] = staircase.log_prob(samples[i % n], spec.orderings[i // n])

    map_in_order(score, runs, threads)
    # in C order: the aggregates' sums follow memory order, and so do their bits
    return stats_from_matrix(np.ascontiguousarray(logs.reshape(-1, n).T))


def _fmt_aggregate(value: float | None) -> str:
    return "absent" if value is None else f"{value:.6f}"


def render_report(report: EvalReport) -> str:
    """Text table: header, one tab-separated row per sample, aggregates."""
    n_orderings = report.matrix.shape[1]
    lines = ["sample\t" + "\t".join(f"o{j}" for j in range(n_orderings))]
    for si, row in enumerate(report.matrix):
        lines.append(str(si) + "\t" + "\t".join(f"{v:.6f}" for v in row))
    lines.append(f"# mean {report.mean:.6f}")
    lines.append(f"# sd_over_orderings {_fmt_aggregate(report.sd_over_orderings)}")
    lines.append(f"# sd_over_samples {_fmt_aggregate(report.sd_over_samples)}")
    return "\n".join(lines) + "\n"


def enumerate_distribution(
    params: ModelParams,
    config: StructureConfig,
    o: Ordering,
    mean: np.ndarray,
) -> np.ndarray:
    """Exact probability of every binary vector, indexed by bit pattern.

    Entry j of the table is the probability of the vector whose i-th
    coordinate is bit i of j (coordinate 0 least significant).  Exhaustive
    in 2^D, so D is capped; the 2^D pairs share one workspace.
    """
    D = config.D
    if D > ENUM_MAX_D:
        raise ContractError(
            f"enumeration over 2^{D} vectors refused (limit D <= {ENUM_MAX_D})"
        )
    bits = (np.arange(2**D)[:, None] >> np.arange(D)) & 1
    bits, mean = _checked(params, config, bits, [o], mean)
    staircase = _Staircase(params, config, mean)
    with single_threaded_blas():
        return np.exp([staircase.log_prob(x, o) for x in bits])
