"""Bit-exact model persistence.

Layout: one ASCII header line `NADEK1 n=<n> k=<k> D=<D> h1=<..> [h2=<..>]
act=<tanh|sigmoid>`, one ASCII metadata line of key=value pairs, then the
parameter tensors as raw row-major little-endian 64-bit floats in fixed
order (W, c, [W2, c2,] V, b).  Loading a checkpoint and saving it again
reproduces the file byte for byte: a header or metadata line that its
parsed values would not re-encode to, such as one with a repeated or
reordered field, a zero-padded number or a doubled space, is refused.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .data import atomic_write
from .model import ModelParams, StructureConfig, expected_shapes

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


def _meta_line(metadata: dict[str, str]) -> str:
    return " ".join(f"{k}={v}" for k, v in metadata.items())


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
    _check_finite(params, path)
    metadata = metadata or {}
    for key, value in metadata.items():
        if any(ch.isspace() for ch in key + value) or "=" in key:
            raise CheckpointShapeError(f"metadata pair {key!r}={value!r} not encodable")
    with atomic_write(path, binary=True) as fh:
        fh.write((_header_line(config) + "\n").encode("ascii"))
        fh.write((_meta_line(metadata) + "\n").encode("ascii"))
        fh.write(params.vector.astype("<f8", copy=False))


def _parse_header(line: bytes, path: str) -> StructureConfig:
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointMagicError(f"{path}: header is not ASCII") from exc
    tokens = text.split()
    if not tokens or tokens[0] != MAGIC:
        raise CheckpointMagicError(f"{path}: missing {MAGIC} magic token")
    # only the fields the config needs are read: a line with any other
    # field, a token without "=" or an n that disagrees with h2 does not
    # re-encode to itself, so the canonical comparison refuses it
    fields = dict(token.partition("=")[::2] for token in tokens[1:])
    try:
        h2 = int(fields["h2"]) if "h2" in fields else None
        config = StructureConfig(
            D=int(fields["D"]), hidden1=int(fields["h1"]), k=int(fields["k"]),
            hidden2=h2, activation=fields["act"],
        )
    except (KeyError, ValueError) as exc:
        raise CheckpointShapeError(f"{path}: incomplete, non-numeric or inconsistent header ({exc})") from exc
    if text != _header_line(config):
        raise CheckpointShapeError(f"{path}: header {text!r} is not in canonical form")
    return config


def load_checkpoint(path: str) -> tuple[ModelParams, StructureConfig, dict[str, str]]:
    """Inverse of save_checkpoint, with distinct errors per failure kind.

    The two text lines are read one at a time, and the payload straight into
    the backing vector of the returned params, so the load holds no other
    copy of it.  A regular file's payload size is checked before that
    vector is made; a pipe's as it is read.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise CheckpointTruncatedError(f"{path}: no header line")
        config = _parse_header(header[:-1], path)
        meta_line = fh.readline()
        if not meta_line.endswith(b"\n"):
            raise CheckpointTruncatedError(f"{path}: no metadata line")
        try:
            meta_text = meta_line[:-1].decode("ascii")
        except UnicodeDecodeError as exc:
            raise CheckpointShapeError(f"{path}: metadata is not ASCII") from exc
        # a token without "=" re-encodes with one, so the comparison refuses it
        metadata = dict(token.partition("=")[::2] for token in meta_text.split())
        if meta_text != _meta_line(metadata):
            raise CheckpointShapeError(f"{path}: metadata line is not in canonical form")

        shapes = expected_shapes(config)
        expected_bytes = sum(int(np.prod(s)) for s in shapes.values()) * 8
        if fh.seekable():
            _check_payload(path, os.fstat(fh.fileno()).st_size - fh.tell(), expected_bytes)
        params = ModelParams(**{name: np.broadcast_to(0.0, shape) for name, shape in shapes.items()})
        # a buffered readinto stops short only at the end of the file
        got = fh.readinto(params.vector.view(np.uint8))
        _check_payload(path, got + len(fh.read()), expected_bytes)
    if sys.byteorder == "big":
        params.vector.byteswap(inplace=True)
    _check_finite(params, path)
    return params, config, metadata


def _check_payload(path: str, payload_bytes: int, expected_bytes: int) -> None:
    """Raise unless the payload holds exactly the tensors' bytes."""
    if payload_bytes < expected_bytes:
        raise CheckpointTruncatedError(
            f"{path}: payload holds {payload_bytes} bytes, tensors need {expected_bytes}"
        )
    if payload_bytes > expected_bytes:
        raise CheckpointShapeError(
            f"{path}: {payload_bytes - expected_bytes} trailing bytes after tensors"
        )


def _check_finite(params: ModelParams, path: str) -> None:
    """Raise naming the first tensor with a non-finite entry, after one pass over the vector."""
    if not np.isfinite(params.vector).all():
        name = next(n for n, t in params.tensors().items() if not np.isfinite(t).all())
        raise CheckpointShapeError(f"{path}: tensor {name} has non-finite entries")
