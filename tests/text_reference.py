"""Line-by-line references of the text matrix loader and writer.

The loader takes one line at a time: split, ``float`` each field, check
the field count, then the range, and returns float64.  The package reads
a file in the writer's 0/1 layout from its bytes, parses any other a
chunk of lines with a few numpy calls (from the bytes when the chunk is
plain 0/1 text) and scans line by line only inside a chunk that failed;
it keeps plain 0/1 text as uint8.  Tests require the two to return the
same values or raise the same message.  The writer formats one value at
a time; the package writes a 0/1 matrix from one byte array, and tests
require the same file bytes.
"""

import gzip
import io

import numpy as np

from nadek.data import DataError


def load_text_matrix(path: str) -> np.ndarray:
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
    return np.vstack(rows)


def save_text_matrix(path: str, samples: np.ndarray) -> None:
    """Write one sample per line, one value at a time; a gzip header holds time 0."""
    samples = np.asarray(samples, dtype=np.float64)
    gz = str(path).endswith(".gz")
    with open(path, "wb" if gz else "w") as out:
        if gz:
            out = io.TextIOWrapper(gzip.GzipFile(filename=path, mode="wb", fileobj=out, mtime=0))
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
