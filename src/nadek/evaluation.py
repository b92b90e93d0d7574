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
from .model import _gather_columns, _step_buffers, _step_space
from .numerics import BLOCK_ROWS, ContractError, Rng, log_sum_exp, map_in_order

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
    # insertion-ordered: a redrawn duplicate keeps its first place
    perms: dict[tuple[int, ...], None] = {}
    while len(perms) < count:
        perms[tuple(rng.permutation(D))] = None
    return EnsembleSpec(orderings=tuple(Ordering(perm=perm) for perm in perms))


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
    return float(_log_probs(params, config, [x], (o,), mean)[0])


def _log_probs(
    params: ModelParams,
    config: StructureConfig,
    rows,
    orderings,
    mean,
    threads: int = 1,
) -> np.ndarray:
    """log p(x | o) of every (row, ordering) pair, as one float64 vector.

    Pair i is row i % n under ordering i // n, for n rows, so no list of
    the pairs is made, and a worker gathers each of its orderings once.
    The orderings' lengths, the rows, the mean and the params are checked
    first, in that order.  The pairs are split into one run of
    consecutive pairs for each of up to ``threads`` workers, and each run
    is scored on a workspace of its own (see :class:`_Staircase`): a
    worker holds two weight-sized copies in visit order, gathered from
    ``params``, and nothing of the weights is copied for the call as a
    whole.  BLAS runs on one thread (see :func:`map_in_order`).  A pair's
    bits depend neither on the workspace nor on what it scored before, so
    the vector is the same at any thread count.
    """
    if any(len(o.perm) != config.D for o in orderings):
        raise ContractError("ordering length does not match D")
    rows = _check_rows(rows, config.D, "x")
    mean = _check_mean(mean, config.D)
    params.check_shapes(config)
    n = rows.shape[0]
    logs = np.empty(len(orderings) * n)
    parts = max(1, min(threads, logs.size))
    runs = [range(logs.size * j // parts, logs.size * (j + 1) // parts) for j in range(parts)]

    def score(run: range) -> None:
        staircase = _Staircase(params, config, mean)
        for i in run:
            logs[i] = staircase.log_prob(rows[i % n], orderings[i // n])

    map_in_order(score, runs, threads)
    return logs


class _Staircase:
    """One worker's workspace for scoring (x, ordering) pairs of one model.

    It holds W's columns (as the rows of ``WT_o``), V's rows, b and the
    mean in the visit order of the ordering scored last, gathered straight
    from the params once per ordering (the weights a few columns at a
    time, as :func:`model._gather_columns` does), and one set of block
    buffers that every block of every pair reuses.  Those two weight-sized
    copies are all it holds of the weights; nothing is shared between
    workspaces, and a workspace serves one thread at a time.
    """

    def __init__(self, params: ModelParams, config: StructureConfig, mean: np.ndarray):
        self.params, self.config, self.mean = params, config, mean
        self.ordering = self.perm = None
        self.WT_o, self.V_o = np.empty(params.W.shape[::-1]), np.empty_like(params.V)
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
            _gather_columns(self.params.W, self.perm, self.WT_o.T)
            _gather_columns(self.params.V.T, self.perm, self.V_o.T)
            self.b_o, self.mean_o = self.params.b[self.perm], self.mean[self.perm]
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

    The pairs are scored in ordering-major order on up to ``threads``
    workers (see :func:`_log_probs`), so the matrix is the same at any
    thread count.  Aggregates use unbiased (n-1) variances: the mean over
    samples of the across-ordering variance, and the mean over orderings
    of the across-sample variance, each reported as a square root.
    """
    logs = _log_probs(params, config, samples, spec.orderings, mean, threads)
    # in C order: the aggregates' sums follow memory order, and so do their bits
    return stats_from_matrix(np.ascontiguousarray(logs.reshape(len(spec.orderings), -1).T))


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
    in 2^D, so D is capped; the 2^D pairs share one workspace, and the
    vectors are one 2^D x D table of bytes, scored as every scorer's pairs
    are (see :func:`_log_probs`).
    """
    D = config.D
    if D > ENUM_MAX_D:
        raise ContractError(
            f"enumeration over 2^{D} vectors refused (limit D <= {ENUM_MAX_D})"
        )
    # bit i of j, least significant first, from j's four little-endian bytes
    j = np.arange(2**D, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(j, axis=1, count=D, bitorder="little")
    logs = _log_probs(params, config, bits, (o,), mean)
    return np.exp(logs, out=logs)
