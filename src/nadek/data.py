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
import zlib
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


# Characters of text parsed at a time: whole lines, so the strings alive
# at once stay bounded whatever the width of a line.
_CHUNK_CHARS = 1 << 16


class DataError(ValueError):
    """Malformed or out-of-contract dataset content."""


@dataclass
class Dataset:
    """An immutable count x D matrix of values in [0, 1]."""

    samples: np.ndarray
    name: str

    def __post_init__(self):
        self.samples.setflags(write=False)

    @property
    def D(self) -> int:
        return self.samples.shape[1]

    @property
    def is_binary(self) -> bool:
        return bool(np.all((self.samples == 0.0) | (self.samples == 1.0)))

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
    """Parse a text matrix; errors carry the 1-based offending line number.

    Blank lines are skipped but counted.  A field is any literal Python's
    ``float`` accepts.  The first failing line in file order is reported,
    and within a line a non-numeric field comes before a wrong field
    count, which comes before a value outside [0, 1] (NaN included).

    The file is read a chunk of whole lines at a time.  A chunk of plain
    0/1 text (ASCII ``0`` and ``1`` fields, each one character, between
    spaces, tabs and newlines) is parsed from its bytes; any other chunk
    goes through ``float`` field by field.  Both give the same values and
    the same errors.
    """
    chunks: list[np.ndarray] = []
    width = None
    lineno = 0
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        while lines := _read_lines(fh, path):
            # lines end in "\n" except the file's last, so no field spans two lines
            text = "".join(lines)
            counts, values = _binary_fields(text) or _float_fields(lines, text)
            filled = counts > 0
            if width is None and filled.any():
                width = int(counts[filled.argmax()])
            # written so that NaN, which fails every comparison, fails it too
            if (
                values is None
                or np.any(filled & (counts != width))
                or not np.all((values >= 0.0) & (values <= 1.0))
            ):
                offset, reason = _first_fault(lines, width)
                raise DataError(f"{path}: line {lineno + offset}: {reason}")
            if values.size:
                chunks.append(values.reshape(-1, width))
            lineno += len(lines)
    if not chunks:
        raise DataError(f"{path}: empty dataset")
    return Dataset(samples=np.concatenate(chunks), name=name if name is not None else str(path))


def _binary_fields(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Field count of each line and the values of plain 0/1 text; else None.

    Plain means ASCII bytes that are either a ``0`` or ``1`` standing
    alone or a space, tab or newline (the file is read with universal
    newlines, so every line ends in ``\n``).  Anything else, such as
    ``00``, ``1.0``, a form feed or a non-ASCII space, is left to the
    float path.
    """
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), np.uint8)
    digit = (raw | 1) == ord("1")
    newline = raw == ord("\n")
    separator = newline | (raw == ord(" ")) | (raw == ord("\t"))
    if not np.all(digit | separator) or np.any(digit[1:] & digit[:-1]):
        return None
    fields = np.flatnonzero(digit)
    # fields before each line end; the chunk's last byte ends its last line
    ends = np.searchsorted(fields, np.flatnonzero(newline[:-1]))
    counts = np.diff(ends, prepend=0, append=fields.size)
    values = raw.take(fields) - ord("0")
    return counts, values.astype(np.float64)


def _float_fields(lines: list[str], text: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Field count of each line and the values as ``float`` reads them (None if one fails)."""
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    try:
        values = np.array(text.split(), dtype=np.float64)
    except ValueError:
        values = None
    return counts, values


def _read_lines(fh, path) -> list[str]:
    """The next whole lines of about ``_CHUNK_CHARS`` characters; [] at the end."""
    try:
        return fh.readlines(_CHUNK_CHARS)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DataError(f"{path}: corrupt or truncated gzip data ({exc})") from exc


def _first_fault(lines: list[str], width: int) -> tuple[int, str]:
    """1-based position in ``lines`` and reason of the first line that fails."""
    for offset, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            row = [float(f) for f in fields]
        except ValueError:
            return offset, "non-numeric field"
        if len(row) != width:
            return offset, f"expected {width} fields, got {len(row)}"
        if not all(0.0 <= v <= 1.0 for v in row):
            return offset, "value outside [0, 1]"
    raise AssertionError("chunk failed as a whole but no line of it fails")


def save_text_matrix(path: str, samples: np.ndarray) -> None:
    """Write one sample per line, with one space between fields.

    0.0 and -0.0 print as ``0``, 1.0 as ``1`` and any other value as its
    ``repr``, which reads back bit for bit.  A matrix of only 0s and 1s is
    formatted as one byte array, any other value by value; the bytes are
    the same either way.  The file is replaced in one step (see
    :func:`atomic_write`); a path ending in ``.gz`` is written
    gzip-compressed.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ContractError("samples must be a 2-D matrix")
    gz = str(path).endswith(".gz")
    with atomic_write(path, binary=gz) as out:
        if gz:
            out = io.TextIOWrapper(gzip.GzipFile(filename=path, mode="wb", fileobj=out))
        with out:
            if np.all((samples == 0.0) | (samples == 1.0)):
                out.write(_binary_text(samples))
            else:
                for row in samples:
                    out.write(" ".join(_fmt_value(v) for v in row))
                    out.write("\n")


def _binary_text(samples: np.ndarray) -> str:
    """Rows of 0/1 values as text: digits joined by spaces, each row ending in a newline."""
    rows, D = samples.shape
    text = np.full((rows, max(2 * D, 1)), ord(" "), np.uint8)
    text[:, 0 : 2 * D : 2] = samples == 1.0
    text[:, 0 : 2 * D : 2] += ord("0")
    text[:, -1] = ord("\n")
    return text.tobytes().decode("ascii")


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
    return Dataset(samples=out, name=data.name + ":binarized")


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
