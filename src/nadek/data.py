"""Ingestion and iteration of whitespace-separated text matrices.

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
import stat
import zlib

import numpy as np

from .numerics import ContractError, Rng, _as_data, _is_binary

__all__ = [
    "atomic_write",
    "binarize_by_sampling",
    "load_text_matrix",
    "minibatches",
    "save_text_matrix",
]


# Characters of text parsed at a time: whole lines, so the strings alive
# at once stay bounded whatever the width of a line.
_CHUNK_CHARS = 1 << 16


class DataError(ValueError):
    """Malformed or out-of-contract dataset content."""


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


def load_text_matrix(path: str) -> np.ndarray:
    """The rows x D matrix of a text file, read-only; errors carry the
    1-based offending line number.

    Blank lines are skipped but counted.  A field is any literal Python's
    ``float`` accepts.  The first failing line in file order is reported,
    and within a line a non-numeric field comes before a wrong field
    count, which comes before a value outside [0, 1] (NaN included).

    A file of plain 0/1 text (ASCII ``0`` and ``1`` fields, each one
    character, between spaces, tabs and newlines) loads as uint8, one byte
    per value; any other file as float64.  The core takes either and
    widens uint8 to float64 a block at a time.  A file in the layout
    :func:`save_text_matrix` writes for a 0/1 matrix is read from its bytes
    straight into the result (see :func:`_canonical_bits`).  Any other file
    is read a chunk of whole lines at a time: a chunk of plain 0/1 text is
    parsed from its bytes, any other chunk goes through ``float`` field by
    field.  All paths give the same values and the same errors.
    """
    gz = str(path).endswith(".gz")
    # one open for either path, so a pipe is read once
    with (gzip.open if gz else open)(path, "rb") as fh:
        samples = None if gz else _canonical_bits(fh)
        if samples is None:
            samples = _parsed_text(io.TextIOWrapper(fh), path)
    samples.setflags(write=False)
    return samples


def _canonical_bits(fh) -> np.ndarray | None:
    """The rows of a file in the 0/1 layout save_text_matrix writes, as uint8; else None.

    The layout: single ``0``/``1`` digits between single spaces, every line
    2D bytes ending in ``\n``, no blank line.  The first line gives the
    width and the file size the row count; whole rows are then read about
    ``_CHUNK_CHARS`` bytes at a time into one buffer, and each chunk is
    checked and converted on strided views of it.  ``fh`` is a binary file
    at its start.  One that is not a regular file is left unread; for a
    file that leaves the layout anywhere, ``fh`` is put back at its start
    and the result is None.
    """
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        return None
    samples = _layout_rows(fh, info.st_size)
    if samples is None:
        fh.seek(0)
    return samples


def _layout_rows(fh, size: int) -> np.ndarray | None:
    """The rows of regular file ``fh`` of ``size`` bytes, or None once it leaves the layout."""
    width = len(fh.readline())
    if width < 2 or width % 2 or size % width:
        return None
    rows, D = size // width, width // 2
    # the bytes between a row's digits: spaces, then the newline
    gaps = np.full(D, ord(" "), np.uint8)
    gaps[-1] = ord("\n")
    step = min(rows, max(1, _CHUNK_CHARS // width))
    buffer = np.empty((step, width), np.uint8)
    samples = np.empty((rows, D), np.uint8)
    fh.seek(0)
    for lo in range(0, rows, step):
        raw = buffer[: min(step, rows - lo)]
        if fh.readinto(raw) != raw.nbytes:
            return None
        out = np.subtract(raw[:, ::2], ord("0"), out=samples[lo : lo + len(raw)])
        # a byte below "0" wraps to at least 208
        if out.max() > 1 or np.any(raw[:, 1::2] != gaps):
            return None
    return None if fh.read(1) else samples


def _parsed_text(fh, path: str) -> np.ndarray:
    """The matrix of text file ``fh``, parsed a chunk of whole lines at a time."""
    chunks: list[np.ndarray] = []
    width = None
    lineno = 0
    plain = True
    while lines := _read_lines(fh, path):
        # lines end in "\n" except the file's last, so no field spans two lines
        text = "".join(lines)
        fields = _binary_fields(text)
        plain = plain and fields is not None
        counts, values = fields or _float_fields(lines, text)
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
    return np.concatenate(chunks, dtype=np.uint8 if plain else np.float64)


def _binary_fields(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Field count of each line and the uint8 values of plain 0/1 text; else None.

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
    return counts, raw.take(fields) - ord("0")


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
    gzip-compressed, with no time in its header, so the same matrix always
    gives the same bytes.
    """
    samples = _as_data(samples)
    if samples.ndim != 2:
        raise ContractError("samples must be a 2-D matrix")
    gz = str(path).endswith(".gz")
    with atomic_write(path, binary=gz) as out:
        if gz:
            out = io.TextIOWrapper(gzip.GzipFile(filename=path, mode="wb", fileobj=out, mtime=0))
        with out:
            if _is_binary(samples):
                out.write(_binary_text(samples))
            else:
                for row in samples:
                    out.write(" ".join(_fmt_value(v) for v in row))
                    out.write("\n")


def _binary_text(samples: np.ndarray) -> str:
    """Rows of 0/1 values as text: digits joined by spaces, each row ending in a newline."""
    rows, D = samples.shape
    text = np.full((rows, max(2 * D, 1)), ord(" "), np.uint8)
    text[:, 0 : 2 * D : 2] = samples == 1
    text[:, 0 : 2 * D : 2] += ord("0")
    text[:, -1] = ord("\n")
    return text.tobytes().decode("ascii")


def _fmt_value(v: float) -> str:
    if v == 0.0:
        return "0"
    if v == 1.0:
        return "1"
    return repr(float(v))


def binarize_by_sampling(samples: np.ndarray, rng: Rng) -> np.ndarray:
    """Replace each value by a Bernoulli draw with that probability, as a read-only float64 matrix.

    One bulk draw scans the matrix row-major and entry i is 1 when its
    uniform falls below the value, so a fixed seed yields one fixed
    binarized matrix.
    """
    out = (rng.uniform_array(samples.shape) < samples).astype(np.float64)
    out.setflags(write=False)
    return out


def minibatches(count: int, size: int, rng: Rng) -> list[np.ndarray]:
    """Index blocks of one shuffle of 0..count-1; the last block may be short."""
    if size < 1:
        raise ContractError("minibatch size must be >= 1")
    if count < 1:
        raise ContractError("cannot batch an empty dataset")
    order = rng.permutation(count)
    return [order[start : start + size] for start in range(0, count, size)]
