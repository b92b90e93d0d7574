"""Output checks.  Each returns a list of problems; empty means the output passed.

The checks hold for any correct program, whatever its random streams:
they test formats, ranges, exact identities (observed bits, the ensemble
inequality, manifest digests) and byte-for-byte repeatability, never
pinned values.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

HISTORY = re.compile(r"^epoch (\d+) phase (pretrain|finetune) train (\S+) valid (\S+)$")
PRINT_TOL = 1e-6  # the CLI prints log-probs with 6 decimals


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_binary(path: str, shape: tuple[int, int]) -> tuple[np.ndarray | None, list[str]]:
    try:
        data = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        return None, [f"{path}: unreadable ({exc})"]
    if data.shape != shape:
        return None, [f"{path}: shape {data.shape}, expected {shape}"]
    if not np.all((data == 0.0) | (data == 1.0)):
        return None, [f"{path}: values are not all 0/1"]
    return data, []


def check_train(stdout: str, out: str, inputs, shape, epochs: int) -> list[str]:
    from nadek import load_checkpoint

    problems = []
    try:
        with open(out + ".history.log") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"history unreadable ({exc})"]
    if len(lines) != epochs:
        problems.append(f"history has {len(lines)} epochs, expected {epochs}")
    for line in lines:
        m = HISTORY.match(line)
        if m is None or not all(math.isfinite(float(v)) for v in m.group(3, 4)):
            problems.append(f"bad history line {line!r}")
    if stdout.splitlines()[-1:] != [f"checkpoint {out}"]:
        problems.append("stdout does not end with the checkpoint line")
    try:
        params, config, _ = load_checkpoint(out)
    except (OSError, ValueError) as exc:
        return problems + [f"checkpoint unreadable ({exc})"]
    if (config.D, config.hidden1, config.k) != tuple(shape):
        problems.append(f"checkpoint shape {(config.D, config.hidden1, config.k)} != {shape}")
    try:
        with open(out + ".manifest.json") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"manifest unreadable ({exc})"]
    if manifest.get("inputs") != {p: sha256(p) for p in inputs}:
        problems.append("manifest input digests do not match the input files")
    return problems


def read_report(path: str) -> np.ndarray:
    """The (rows x orderings) log-prob table of an eval report."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split("\t")[1:]] for ln in body])


def printed_value(stdout: str, name: str) -> float | None:
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] == name:
            return float(fields[1])
    return None


def check_eval(stdout: str, report: str, shape) -> list[str]:
    try:
        table = read_report(report)
    except (OSError, ValueError) as exc:
        return [f"report unreadable ({exc})"]
    if table.shape != tuple(shape):
        return [f"report table shape {table.shape}, expected {tuple(shape)}"]
    problems = []
    if not np.all(np.isfinite(table)) or not np.all(table < 0.0):
        problems.append("report entries must be finite and < 0")
    per = printed_value(stdout, "per_ordering_mean_log_prob")
    ens = printed_value(stdout, "ensemble_mean_log_prob")
    if per is None or ens is None:
        return problems + ["stdout lacks the per-ordering or ensemble mean"]
    if abs(per - float(table.mean())) > PRINT_TOL:
        problems.append(f"printed mean {per} disagrees with the report table")
    if ens < per - PRINT_TOL:
        problems.append(f"ensemble mean {ens} < per-ordering mean {per} (Jensen)")
    return problems


def check_samples(stdout: str, out: str, shape) -> list[str]:
    return _load_binary(out, tuple(shape))[1]


def check_inpaint(stdout: str, out: str, rows: str, observed: int) -> list[str]:
    given = np.loadtxt(rows, ndmin=2)
    filled, problems = _load_binary(out, given.shape)
    if filled is not None and not np.array_equal(filled[:, :observed], given[:, :observed]):
        problems.append("inpaint changed observed bits")
    return problems


def check_reference(report: str, model: str, rows: str, seed: int) -> list[str]:
    """Recompute one (row, ordering) pair with the block reference.

    The reference must agree with the report entry to print precision and
    with the package's own ``log_prob_ordering`` (where it exists) to 1e-9.
    """
    import nadek
    from nadek.checkpoint import decode_mean

    import reference

    table = read_report(report)
    n_rows, n_orderings = table.shape
    r, o = seed % n_rows, (seed // n_rows) % n_orderings
    params, config, metadata = nadek.load_checkpoint(model)
    mean = decode_mean(metadata["mean"])
    x = np.loadtxt(rows, ndmin=2)[r]
    perm = nadek.draw_orderings(config.D, n_orderings, seed).orderings[o].perm
    want = reference.log_prob_ordering(
        params.W, params.c, params.V, params.b, mean, config.k, x, perm, config.activation
    )
    problems = []
    if abs(want - table[r, o]) > PRINT_TOL:
        problems.append(f"report pair ({r},{o}) = {table[r, o]}, reference {want}")
    direct = getattr(nadek, "log_prob_ordering", None)
    if direct is not None:
        got = direct(params, config, x, nadek.Ordering(perm=perm), mean)
        if abs(got - want) > 1e-9:
            problems.append(f"log_prob_ordering = {got!r}, reference {want!r}")
    return problems
