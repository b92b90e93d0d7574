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

from .model import ModelParams, StructureConfig, _check_binary, _conditionals, _Net
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
    D = config.D
    if len(o.perm) != D:
        raise ContractError("ordering length does not match D")
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if x.shape != (D,) or mean.shape != (D,):
        raise ContractError("x and mean must have length D")
    _check_binary(x, "x")
    params.check_shapes(config)
    perm = np.array(o.perm)
    W, V, b = params.W[:, perm], params.V[perm], params.b[perm]
    x, mean = x[perm], mean[perm]
    total = 0.0
    with single_threaded_blas():
        for start in range(0, D, BLOCK_ROWS):
            rows = np.arange(min(BLOCK_ROWS, D - start))
            c = params.c + W[:, :start] @ x[:start]
            sub = _Net(W[:, start:], c, V[start:], b[start:], params.W2, params.c2)
            a1 = np.zeros((len(rows), len(c)))
            step = W[:, start + rows[:-1]].T * (x - mean)[start + rows[:-1], None]
            np.cumsum(step, axis=0, out=a1[1:])
            a1 += c + sub.W @ mean[start:]
            mask = (np.arange(D - start) >= rows[:, None]).astype(np.float64)
            keep_x = (1.0 - mask) * x[start:]
            p = _conditionals(sub, config, a1, mask, keep_x, rows)
            total += float(np.sum(np.where(x[start + rows] == 1.0, np.log(p), np.log(1.0 - p))))
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

    Each (sample, ordering) pair is one unit of work for ``threads``
    workers, so the matrix is the same at any thread count.  Aggregates
    use unbiased (n-1) variances: the mean over samples of the
    across-ordering variance, and the mean over orderings of the
    across-sample variance, each reported as a square root.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ContractError("samples must be a non-empty matrix")
    pairs = [(x, o) for x in samples for o in spec.orderings]
    logs = map_in_order(lambda xo: log_prob_ordering(params, config, *xo, mean), pairs, threads)
    return stats_from_matrix(np.reshape(logs, (samples.shape[0], len(spec.orderings))))


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
    in 2^D, so D is capped.
    """
    D = config.D
    if D > ENUM_MAX_D:
        raise ContractError(
            f"enumeration over 2^{D} vectors refused (limit D <= {ENUM_MAX_D})"
        )
    bits = (np.arange(2**D)[:, None] >> np.arange(D)) & 1
    return np.exp([log_prob_ordering(params, config, x, o, mean) for x in bits])
