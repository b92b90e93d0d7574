#!/usr/bin/env python3
"""Byte-identity gate: every CLI output of a base revision against the working tree.

    python3 tools/same_bytes.py --base HEAD --seeds 31 32

Both sides run from copies in one temporary directory, exported as
``tools/ab_pairs.py`` exports them (the base with ``git archive``, the
working tree from the files git lists).  For each seed, the inputs are
drawn with numpy's ``Generator`` (a Bernoulli mixture of a few prototypes)
and written into one run directory per side.  A fixed suite of
``python -m nadek.cli`` commands then runs in each run directory, with
``PYTHONPATH`` set to that side's ``src`` alone; a side that imports
``nadek`` from anywhere else (an installed copy) stops the run with exit
status 1 before its suite starts:

* ``train`` at the desk shape with pretraining, weight decay and patience;
  with n=3 and sigmoid units; at D=784 with h=40; and from a ``.gz``
  training file with a tab-separated validation file;
* ``eval`` and ``stats`` at 1 and 2 threads, with ``--ensemble`` and with
  ``--k-override``, and ``eval`` of the D=784 model;
* ``sample`` at 2 threads with ``--pgm``;
* ``inpaint`` with and without ``--trace``;
* ``enumcheck``.

Every command's exit status, standard output and standard error, and every
file in the run directories, must be byte-identical between the sides.
Each difference, and each command that exits non-zero on either side, is
printed with its path relative to the run directory; the exit status is 1
if there is any, else 0.  No digests are checked in: bits may differ
between numpy and BLAS builds, so the gate compares two trees on one
machine.  A run of two seeds takes about 15 s on a 2-vCPU host.  On
SIGTERM the running command is stopped and the temporary directory
deleted, as in ``tools/ab_pairs.py``.
"""

from __future__ import annotations

import argparse
import gzip
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_pairs import _exit_on_sigterm, export, export_worktree  # noqa: E402


def _matrix(rng: np.random.Generator, rows: int, D: int, sep: str = " ") -> str:
    """0/1 rows from a mixture of four prototypes with 5% bit flips, as text."""
    prototypes = rng.random((4, D)) < 0.5
    bits = prototypes[rng.integers(0, 4, rows)] ^ (rng.random((rows, D)) < 0.05)
    return "".join(sep.join(map(str, row)) + "\n" for row in bits.astype(int).tolist())


def inputs(seed: int) -> dict[str, bytes]:
    """The input files of one seed, by name."""
    rng = np.random.default_rng(seed)
    files = {
        "desk.amat": _matrix(rng, 400, 16),
        "desk-valid.amat": _matrix(rng, 100, 16),
        "small.amat": _matrix(rng, 200, 10),
        "small-valid.amat": _matrix(rng, 50, 10),
        "wide.amat": _matrix(rng, 100, 784),
        "wide-valid.amat": _matrix(rng, 30, 784),
        "tab-valid.amat": _matrix(rng, 60, 16, sep="\t"),
    }
    out = {name: text.encode("ascii") for name, text in files.items()}
    out["gz.amat.gz"] = gzip.compress(_matrix(rng, 300, 16).encode("ascii"), mtime=0)
    out["obs.txt"] = b"0 3 5 7 12\n"
    out["obs-small.txt"] = b"8 1 4\n"
    return out


def suite(seed: int) -> list[list[str]]:
    """The command lines of one seed, each run as ``python -m nadek.cli``."""
    s = ["--seed", str(seed)]
    return [
        ["train", "--data", "desk.amat", "--valid", "desk-valid.amat", "--out", "desk.ckpt",
         "--hidden1", "32", "--k", "2", "--pretrain-epochs", "2", "--epochs", "4",
         "--weight-decay", "0.001", "--patience", "2", "--batch", "50", *s],
        ["train", "--data", "small.amat", "--valid", "small-valid.amat", "--out", "small.ckpt",
         "--hidden1", "12", "--hidden2", "8", "--k", "3", "--activation", "sigmoid",
         "--epochs", "3", "--batch", "20", *s],
        ["train", "--data", "wide.amat", "--valid", "wide-valid.amat", "--out", "wide.ckpt",
         "--hidden1", "40", "--k", "2", "--pretrain-epochs", "1", "--epochs", "1", *s],
        ["train", "--data", "gz.amat.gz", "--valid", "tab-valid.amat", "--out", "gz.ckpt",
         "--hidden1", "16", "--epochs", "2", "--batch", "64", *s],
        ["eval", "--model", "desk.ckpt", "--data", "desk-valid.amat", "--orderings", "4",
         "--ensemble", "--threads", "1", "--report", "eval-t1.txt", *s],
        ["eval", "--model", "desk.ckpt", "--data", "desk-valid.amat", "--orderings", "4",
         "--ensemble", "--threads", "2", "--report", "eval-t2.txt", *s],
        ["eval", "--model", "small.ckpt", "--data", "small-valid.amat", "--orderings", "3",
         "--k-override", "5", "--report", "eval-k5.txt", *s],
        ["eval", "--model", "wide.ckpt", "--data", "wide-valid.amat", "--orderings", "2",
         "--threads", "2", "--report", "eval-wide.txt", *s],
        ["stats", "--model", "desk.ckpt", "--data", "desk-valid.amat", "--orderings", "3",
         "--threads", "1", "--out", "stats-t1.txt", *s],
        ["stats", "--model", "gz.ckpt", "--data", "tab-valid.amat", "--orderings", "3",
         "--threads", "2", "--out", "stats-t2.txt", *s],
        ["sample", "--model", "desk.ckpt", "--count", "150", "--out", "samples.amat",
         "--threads", "2", "--pgm", "samples.pgm", "--grid", "10x15", "--img-w", "4",
         "--img-h", "4", *s],
        ["inpaint", "--model", "desk.ckpt", "--data", "desk-valid.amat", "--obs-file", "obs.txt",
         "--out", "inpaint.amat", *s],
        ["inpaint", "--model", "small.ckpt", "--data", "small-valid.amat", "--obs-file", "obs-small.txt",
         "--out", "inpaint-trace.amat", "--trace", *s],
        ["enumcheck", "--model", "small.ckpt"],
    ]


def run_side(tree: Path, run_dir: Path, seed: int) -> dict[str, bytes]:
    """Write the seed's inputs into ``run_dir``, run the suite there on the
    package in ``tree``, and return every command's exit status and output,
    and every file of ``run_dir``, by name."""
    run_dir.mkdir(parents=True)
    for name, data in inputs(seed).items():
        (run_dir / name).write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    # an installed nadek (say, an editable install of either tree) must not
    # shadow the side's own copy, or both sides would run the same code
    where = subprocess.run(
        [sys.executable, "-c", "import nadek; print(nadek.__file__)"],
        cwd=run_dir, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"{tree.name} side imports nadek from {where}, not from its own src")
    results = {}
    for i, argv in enumerate(suite(seed)):
        proc = subprocess.run(
            [sys.executable, "-m", "nadek.cli", *argv], cwd=run_dir, env=env, capture_output=True
        )
        tag = f"[{i}] {argv[0]}"
        results[f"{tag} status"] = str(proc.returncode).encode()
        results[f"{tag} stdout"] = proc.stdout.replace(os.fsencode(tree), b"<tree>")
        results[f"{tag} stderr"] = proc.stderr.replace(os.fsencode(tree), b"<tree>")
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            results[str(path.relative_to(run_dir))] = path.read_bytes()
    return results


def compare(base: Path, new: Path, seeds: list[int], work: Path) -> list[str]:
    """One line per difference or failed command between the trees ``base`` and ``new``."""
    problems = []
    for seed in seeds:
        a = run_side(base, work / "base-run" / str(seed), seed)
        b = run_side(new, work / "new-run" / str(seed), seed)
        for name in sorted(a.keys() | b.keys()):
            if a.get(name) != b.get(name):
                problems.append(f"seed {seed}: {name} differs")
            elif name.endswith(" status") and a[name] != b"0":
                problems.append(f"seed {seed}: {name} is {a[name].decode()} on both sides")
        print(f"seed {seed}: compared {len(a)} outputs", file=sys.stderr, flush=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[31, 32])
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        work = Path(tmp)
        (work / "base").mkdir()
        sha = export(args.base, work / "base")
        export_worktree(work / "new")
        problems = compare(work / "base", work / "new", args.seeds, work)
    for line in problems:
        print(line)
    seeds = " ".join(map(str, args.seeds))
    print(f"{len(problems)} differences against {sha[:12]} at seeds {seeds}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
