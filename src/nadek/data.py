"""Dataset ingestion and iteration for whitespace-separated text matrices.

One sample per line, values in [0, 1], optionally gzip-compressed
(by file extension).  Real-valued data can be binarized once up front by
per-entry Bernoulli sampling with a recorded seed.  Every file the
package writes goes through :func:`atomic_write`.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import os
from dataclasses import dataclass

import numpy as np

from .numerics import ContractError, Rng

__all__ = [
    "Dataset",
    "atomic_write",
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


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """Yield a file for the new contents of ``path``; replace it in one step.

    The contents go to a temporary file in the target's directory, which
    ``os.replace`` moves over the target once the body finishes.  If the
    body raises, the temporary file is removed and the target keeps its
    previous bytes.  A symbolic link is followed, so the file it points
    to is replaced and the link stays.  The target must be a regular file
    (or not exist yet) in a directory the caller can create files in; the
    new file gets the default mode, not the old file's.  Nothing is synced
    to disk: this guards against a failure of the writing process, not
    against power loss.
    """
    path = os.path.realpath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb" if binary else "x") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_text_matrix(path: str, name: str | None = None) -> Dataset:
    """Parse a text matrix; errors carry the 1-based offending line number."""
    rows: list[np.ndarray] = []
    width = None
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
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
            # written so that NaN, which fails every comparison, fails it too
            if not np.all((row >= 0.0) & (row <= 1.0)):
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
    """Write one sample per line; binary values print as 0/1 exactly.

    The file is replaced in one step (see :func:`atomic_write`); a path
    ending in ``.gz`` is written gzip-compressed.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ContractError("samples must be a 2-D matrix")
    gz = str(path).endswith(".gz")
    with atomic_write(path, binary=gz) as out:
        if gz:
            out = io.TextIOWrapper(gzip.GzipFile(filename=path, mode="wb", fileobj=out))
        with out:
            for row in samples:
                out.write(" ".join(_fmt_value(v) for v in row))
                out.write("\n")


def _fmt_value(v: float) -> str:
    if v == 0.0:
        return "0"
    if v == 1.0:
        return "1"
    return repr(float(v))


def binarize_by_sampling(data: Dataset, rng: Rng) -> Dataset:
    """Replace each value by a Bernoulli draw with that probability.

    One bulk draw scans the matrix row-major and entry i is 1 when its
    uniform falls below the value, so a fixed seed yields one fixed
    binarized dataset.
    """
    out = (rng.uniform_array(data.samples.shape) < data.samples).astype(np.float64)
    return Dataset(samples=out, D=data.D, name=data.name + ":binarized", is_binary=True)


def empirical_mean(data: Dataset) -> np.ndarray:
    if len(data) < 1:
        raise ContractError("empirical mean of an empty dataset")
    return data.samples.mean(axis=0)


def minibatches(count: int, size: int, rng: Rng) -> list[np.ndarray]:
    """Index blocks of one shuffle of 0..count-1; the last block may be short."""
    if size < 1:
        raise ContractError("minibatch size must be >= 1")
    if count < 1:
        raise ContractError("cannot batch an empty dataset")
    order = rng.permutation(count)
    return [order[start : start + size] for start in range(0, count, size)]
