"""Bit-exact model persistence.

Layout: one ASCII header line `NADEK1 n=<n> k=<k> D=<D> h1=<..> [h2=<..>]
act=<tanh|sigmoid>`, one ASCII metadata line of key=value pairs, then the
parameter tensors as raw row-major little-endian 64-bit floats in fixed
order (W, c, [W2, c2,] V, b).  Loading a checkpoint and saving it again
reproduces the file byte for byte.
"""

from __future__ import annotations

import numpy as np

from .data import atomic_write
from .model import ModelParams, StructureConfig, _flat_params, expected_shapes

__all__ = [
    "CheckpointError",
    "CheckpointMagicError",
    "CheckpointShapeError",
    "CheckpointTruncatedError",
    "decode_mean",
    "encode_mean",
    "load_checkpoint",
    "save_checkpoint",
]

MAGIC = "NADEK1"


class CheckpointError(ValueError):
    """Base for unreadable checkpoint files."""


class CheckpointMagicError(CheckpointError):
    """The file does not start with the format's magic token."""


class CheckpointShapeError(CheckpointError):
    """Header fields are malformed or disagree with the payload size."""


class CheckpointTruncatedError(CheckpointError):
    """The payload ends before all declared tensors."""


def _header_line(config: StructureConfig) -> str:
    parts = [MAGIC, f"n={config.n}", f"k={config.k}", f"D={config.D}", f"h1={config.hidden1}"]
    if config.n == 3:
        parts.append(f"h2={config.hidden2}")
    parts.append(f"act={config.activation}")
    return " ".join(parts)


def encode_mean(mean: np.ndarray) -> str:
    """Comma-joined repr floats; repr round-trips real64 exactly."""
    return ",".join(repr(float(v)) for v in np.asarray(mean))


def decode_mean(text: str) -> np.ndarray:
    return np.array([float(f) for f in text.split(",")])


def save_checkpoint(
    path: str,
    params: ModelParams,
    config: StructureConfig,
    metadata: dict[str, str] | None = None,
) -> None:
    """Write header, metadata and tensors; identical inputs give identical bytes.

    Metadata values must be free of whitespace and newlines; keys keep
    their given order.  A tensor with a non-finite entry, which
    load_checkpoint would reject, is refused before the file is opened.
    """
    params.check_shapes(config)
    for name, tensor in params.tensors().items():
        if not np.all(np.isfinite(tensor)):
            raise CheckpointShapeError(f"{path}: tensor {name} has non-finite entries")
    metadata = metadata or {}
    for key, value in metadata.items():
        if any(ch.isspace() for ch in key + value) or "=" in key:
            raise CheckpointShapeError(f"metadata pair {key!r}={value!r} not encodable")
    meta_line = " ".join(f"{k}={v}" for k, v in metadata.items())
    with atomic_write(path, binary=True) as fh:
        fh.write((_header_line(config) + "\n").encode("ascii"))
        fh.write((meta_line + "\n").encode("ascii"))
        for tensor in params.tensors().values():
            fh.write(np.ascontiguousarray(tensor, dtype="<f8"))


def _parse_header(line: bytes, path: str) -> StructureConfig:
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointMagicError(f"{path}: header is not ASCII") from exc
    tokens = text.split()
    if not tokens or tokens[0] != MAGIC:
        raise CheckpointMagicError(f"{path}: missing {MAGIC} magic token")
    fields: dict[str, str] = {}
    for token in tokens[1:]:
        if "=" not in token:
            raise CheckpointShapeError(f"{path}: malformed header field {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        n = int(fields.pop("n"))
        k = int(fields.pop("k"))
        D = int(fields.pop("D"))
        h1 = int(fields.pop("h1"))
        h2 = int(fields.pop("h2")) if "h2" in fields else None
        act = fields.pop("act")
    except (KeyError, ValueError) as exc:
        raise CheckpointShapeError(f"{path}: incomplete or non-numeric header") from exc
    if fields:
        raise CheckpointShapeError(f"{path}: unknown header fields {sorted(fields)}")
    try:
        config = StructureConfig(D=D, hidden1=h1, k=k, hidden2=h2, activation=act)
    except ValueError as exc:
        raise CheckpointShapeError(f"{path}: inconsistent header ({exc})") from exc
    if n != config.n:
        raise CheckpointShapeError(f"{path}: inconsistent header (n={n} with h2={h2})")
    return config


def load_checkpoint(path: str) -> tuple[ModelParams, StructureConfig, dict[str, str]]:
    """Inverse of save_checkpoint, with distinct errors per failure kind.

    The payload is converted by one copy into the backing vector of the
    returned params.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    # offsets into the blob, not partitions of it: each partition copies the payload
    header_end = blob.find(b"\n")
    if header_end < 0:
        raise CheckpointTruncatedError(f"{path}: no header line")
    config = _parse_header(blob[:header_end], path)
    meta_end = blob.find(b"\n", header_end + 1)
    if meta_end < 0:
        raise CheckpointTruncatedError(f"{path}: no metadata line")
    meta_line = blob[header_end + 1 : meta_end]
    try:
        meta_text = meta_line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointShapeError(f"{path}: metadata is not ASCII") from exc
    metadata: dict[str, str] = {}
    for token in meta_text.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise CheckpointShapeError(f"{path}: malformed metadata field {token!r}")
        metadata[key] = value

    shapes = expected_shapes(config)
    expected_bytes = sum(int(np.prod(s)) for s in shapes.values()) * 8
    offset = meta_end + 1
    payload_bytes = len(blob) - offset
    if payload_bytes < expected_bytes:
        raise CheckpointTruncatedError(
            f"{path}: payload holds {payload_bytes} bytes, tensors need {expected_bytes}"
        )
    if payload_bytes > expected_bytes:
        raise CheckpointShapeError(
            f"{path}: {payload_bytes - expected_bytes} trailing bytes after tensors"
        )
    flat = np.frombuffer(blob, dtype="<f8", count=expected_bytes // 8, offset=offset)
    params = _flat_params(shapes, flat.astype(np.float64))
    if not np.isfinite(params._flat).all():
        name = next(n for n, t in params.tensors().items() if not np.isfinite(t).all())
        raise CheckpointShapeError(f"{path}: tensor {name} has non-finite entries")
    return params, config, metadata
