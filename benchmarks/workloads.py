"""Workload definitions: generated inputs and the CLI commands of one round.

Inputs come only from numpy's own ``Generator`` seeded by the workload
seed, never from the package RNG, so a change to the package's generator
leaves the inputs alone.  Data rows are a mixture of Bernoulli prototypes
with 5% independent bit flips.  Score and sample checkpoints are written
with uniform +-sqrt(6/(fan_in+fan_out)) weights and zero biases.

One round is the fixed command sequence of a workload; a run repeats
rounds in a closed loop (one client, one command at a time).
"""

from __future__ import annotations

import functools
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

import checks

PROTOTYPES = 8
PROTOTYPE_DENSITY = 0.25
FLIP = 0.05


@dataclass(frozen=True)
class Command:
    kind: str  # train | eval | sample | inpaint
    argv: tuple[str, ...]
    items: int  # work units this command completes
    outputs: tuple[str, ...]  # files whose bytes must repeat for the same seed
    check: object = field(compare=False)  # check(stdout) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # train | score | sample
    D: int
    hidden1: int
    k: int
    rows: int  # training rows, scored rows, or inpainted rows
    valid_rows: int = 0
    pretrain_epochs: int = 0
    epochs: int = 0
    orderings: int = 0
    count: int = 0
    probe: tuple[str, ...] = ("paper",)  # speed-probe kernels that scale its rounds

    @property
    def params(self) -> int:
        return 2 * self.D * self.hidden1 + self.hidden1 + self.D


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-desk",
            kind="train", D=16, hidden1=32, k=2, rows=2000, valid_rows=500, epochs=1,
            probe=("python", "desk"),
        ),
        Workload(
            name="train-paper",
            kind="train", D=784, hidden1=500, k=5, rows=100, valid_rows=25,
            pretrain_epochs=1, epochs=1, probe=("python", "desk", "paper"),
        ),
        Workload(
            name="score-paper",
            kind="score", D=784, hidden1=500, k=5, rows=2, orderings=2,
        ),
        Workload(
            name="sample-paper",
            kind="sample", D=784, hidden1=500, k=5, rows=2, count=2,
        ),
    )
}


def generator(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode())])


def prototype_rows(gen: np.random.Generator, n: int, D: int) -> np.ndarray:
    protos = gen.random((PROTOTYPES, D)) < PROTOTYPE_DENSITY
    pick = gen.integers(PROTOTYPES, size=n)
    flips = gen.random((n, D)) < FLIP
    return (protos[pick] ^ flips).astype(np.float64)


def write_matrix(path: str, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(" ".join("1" if v else "0" for v in row))
            fh.write("\n")


def random_model(gen: np.random.Generator, D: int, hidden1: int):
    """Uniform Glorot-style weights, zero biases, as nadek.ModelParams."""
    from nadek import ModelParams

    s = np.sqrt(6.0 / (D + hidden1))
    return ModelParams(
        W=gen.uniform(-s, s, (hidden1, D)),
        c=np.zeros(hidden1),
        V=gen.uniform(-s, s, (D, hidden1)),
        b=np.zeros(D),
    )


def paths(workdir: str) -> dict[str, str]:
    names = {
        "train": "train.amat", "valid": "valid.amat", "rows": "rows.amat",
        "model": "model.ckpt", "obs": "observed.txt", "out": "out.ckpt",
        "report": "report.txt", "samples": "samples.amat", "filled": "filled.amat",
    }
    return {k: os.path.join(workdir, v) for k, v in names.items()}


def prepare(workload: Workload, seed: int, workdir: str) -> None:
    """Generate the inputs for ``seed`` and write them under ``workdir``."""
    from nadek import StructureConfig, save_checkpoint
    from nadek.checkpoint import encode_mean

    os.makedirs(workdir, exist_ok=True)
    p = paths(workdir)
    gen = generator(workload, seed)
    if workload.kind == "train":
        rows = prototype_rows(gen, workload.rows + workload.valid_rows, workload.D)
        write_matrix(p["train"], rows[: workload.rows])
        write_matrix(p["valid"], rows[workload.rows :])
        return
    # the stored mean comes from a training-like sample of the same mixture
    reference = prototype_rows(gen, 500, workload.D)
    write_matrix(p["rows"], prototype_rows(gen, workload.rows, workload.D))
    params = random_model(gen, workload.D, workload.hidden1)
    config = StructureConfig(D=workload.D, hidden1=workload.hidden1, k=workload.k)
    metadata = {"seed": str(seed), "mean": encode_mean(reference.mean(axis=0))}
    save_checkpoint(p["model"], params, config, metadata)
    if workload.kind == "sample":
        with open(p["obs"], "w") as fh:
            fh.write(" ".join(str(i) for i in range(workload.D // 2)) + "\n")


def commands(workload: Workload, seed: int, workdir: str) -> list[Command]:
    """The CLI commands of one round, with their checks."""
    p = paths(workdir)
    w = workload
    s = str(seed)
    if w.kind == "train":
        argv = [
            "train", "--data", p["train"], "--valid", p["valid"], "--out", p["out"],
            "--hidden1", str(w.hidden1), "--k", str(w.k), "--batch", "100",
            "--epochs", str(w.epochs), "--seed", s,
        ]
        if w.pretrain_epochs:
            argv += ["--mode", "pretrain-then-finetune", "--pretrain-epochs", str(w.pretrain_epochs)]
        else:
            argv += ["--mode", "finetune-only"]
        out = p["out"]
        return [Command(
            kind="train", argv=tuple(argv), items=w.rows * (w.pretrain_epochs + w.epochs),
            outputs=(out, out + ".history.log", out + ".manifest.json"),
            check=functools.partial(
                checks.check_train, out=out, inputs=(p["train"], p["valid"]),
                shape=(w.D, w.hidden1, w.k), epochs=w.pretrain_epochs + w.epochs,
            ),
        )]
    if w.kind == "score":
        argv = [
            "eval", "--model", p["model"], "--data", p["rows"], "--orderings", str(w.orderings),
            "--ensemble", "--threads", "1", "--report", p["report"], "--seed", s,
        ]
        return [Command(
            kind="eval", argv=tuple(argv), items=w.rows * w.orderings, outputs=(p["report"],),
            check=functools.partial(
                checks.check_eval, report=p["report"], shape=(w.rows, w.orderings)
            ),
        )]
    sample = [
        "sample", "--model", p["model"], "--count", str(w.count), "--out", p["samples"],
        "--threads", "1", "--seed", s,
    ]
    inpaint = [
        "inpaint", "--model", p["model"], "--data", p["rows"], "--obs-file", p["obs"],
        "--out", p["filled"], "--seed", s,
    ]
    return [
        Command(
            kind="sample", argv=tuple(sample), items=w.count, outputs=(p["samples"],),
            check=functools.partial(checks.check_samples, out=p["samples"], shape=(w.count, w.D)),
        ),
        Command(
            kind="inpaint", argv=tuple(inpaint), items=w.rows, outputs=(p["filled"],),
            check=functools.partial(
                checks.check_inpaint, out=p["filled"], rows=p["rows"], observed=w.D // 2
            ),
        ),
    ]
