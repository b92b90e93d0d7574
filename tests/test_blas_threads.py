"""Training output does not depend on the BLAS thread count.

A 100-row matrix-matrix product gives different bits under
OPENBLAS_NUM_THREADS=1 and =2 at this shape, so the checkpoint is only
byte-stable because training pins BLAS to one thread.  Each run is a
fresh interpreter, since OpenBLAS reads the variable when numpy loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nadek
from nadek import Rng

SRC = str(Path(nadek.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_rows(path, count, D, seed):
    rng = Rng(seed).stream("rows")
    rows = np.array([[rng.bernoulli(0.3) for _ in range(D)] for _ in range(count)])
    path.write_text("".join(" ".join(str(v) for v in r) + "\n" for r in rows))
    return str(path)


def _train(tmp_path, data, valid, threads):
    out = tmp_path / f"threads{threads}.ckpt"
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({name: str(threads) for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = [
        sys.executable, "-m", "nadek.cli", "train", "--data", data, "--valid", valid,
        "--out", str(out), "--hidden1", "100", "--k", "2", "--epochs", "2",
        "--batch", "100", "--seed", "4",
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    history = [line for line in proc.stdout.splitlines() if line.startswith("epoch ")]
    return out.read_bytes(), history


def test_checkpoint_bytes_equal_at_one_and_two_blas_threads(tmp_path):
    data = _write_rows(tmp_path / "train.amat", 200, 196, seed=1)
    valid = _write_rows(tmp_path / "valid.amat", 100, 196, seed=2)
    one = _train(tmp_path, data, valid, 1)
    two = _train(tmp_path, data, valid, 2)
    assert len(one[1]) == 2 and one[1] == two[1]
    assert one[0] == two[0]
