"""Dataset ingestion and iteration for whitespace-separated text matrices.

One sample per line, values in [0, 1], optionally gzip-compressed
(by file extension).  Real-valued data can be binarized once up front by
per-entry Bernoulli sampling with a recorded seed.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass

import numpy as np

from .numerics import ContractError, Rng

__all__ = [
    "Dataset",
    "binarize_by_sampling",
    "empirical_mean",
    "load_text_matrix",
    "minibatches",
    "save_text_matrix",
]


class DataError(ValueError):
    """Malformed or out-of-contract dataset content."""


@dataclass
class Dataset:
    """An immutable count x D matrix of values in [0, 1]."""

    samples: np.ndarray
    D: int
    name: str
    is_binary: bool

    def __post_init__(self):
        self.samples.setflags(write=False)

    def __len__(self) -> int:
        return self.samples.shape[0]


def _open_text(path: str, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


def load_text_matrix(path: str, name: str | None = None) -> Dataset:
    """Parse a text matrix; errors carry the 1-based offending line number."""
    rows: list[np.ndarray] = []
    width = None
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                row = np.array([float(f) for f in fields])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: non-numeric field") from exc
            if width is None:
                width = row.shape[0]
            elif row.shape[0] != width:
                raise DataError(
                    f"{path}: line {lineno}: expected {width} fields, got {row.shape[0]}"
                )
            if np.any(row < 0.0) or np.any(row > 1.0):
                raise DataError(f"{path}: line {lineno}: value outside [0, 1]")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    samples = np.vstack(rows)
    return Dataset(
        samples=samples,
        D=samples.shape[1],
        name=name if name is not None else str(path),
        is_binary=bool(np.all((samples == 0.0) | (samples == 1.0))),
    )


def save_text_matrix(path: str, samples: np.ndarray) -> None:
    """Write one sample per line; binary values print as 0/1 exactly."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ContractError("samples must be a 2-D matrix")
    with _open_text(path, "w") as fh:
        for row in samples:
            fh.write(" ".join(_fmt_value(v) for v in row))
            fh.write("\n")


def _fmt_value(v: float) -> str:
    if v == 0.0:
        return "0"
    if v == 1.0:
        return "1"
    return repr(float(v))


def binarize_by_sampling(data: Dataset, rng: Rng) -> Dataset:
    """Replace each value by a Bernoulli draw with that probability.

    Draws scan the matrix row-major, so a fixed seed yields one fixed
    binarized dataset.
    """
    out = np.empty_like(data.samples)
    flat_in = data.samples.reshape(-1)
    flat_out = out.reshape(-1)
    for i in range(flat_in.size):
        flat_out[i] = float(rng.bernoulli(flat_in[i]))
    return Dataset(samples=out, D=data.D, name=data.name + ":binarized", is_binary=True)


def empirical_mean(data: Dataset) -> np.ndarray:
    if len(data) < 1:
        raise ContractError("empirical mean of an empty dataset")
    return data.samples.mean(axis=0)


def minibatches(
    count: int, size: int, rng: Rng | None = None, shuffle: bool = True
) -> list[np.ndarray]:
    """Index blocks covering 0..count-1; the last block may be short."""
    if size < 1:
        raise ContractError("minibatch size must be >= 1")
    if count < 1:
        raise ContractError("cannot batch an empty dataset")
    if shuffle:
        if rng is None:
            raise ContractError("shuffled minibatches need a generator")
        order = rng.permutation(count)
    else:
        order = np.arange(count)
    return [order[start : start + size] for start in range(0, count, size)]
