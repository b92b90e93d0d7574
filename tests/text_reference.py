"""Line-by-line reference of the text matrix loader.

One line at a time: split, ``float`` each field, check the field count,
then the range.  The package parses a chunk of lines with a few numpy
calls and scans line by line only inside a chunk that failed; tests
require the two to return the same bits or raise the same message.
"""

import gzip

import numpy as np

from nadek.data import DataError, Dataset


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
    return Dataset(samples=np.vstack(rows), name=name if name is not None else str(path))
