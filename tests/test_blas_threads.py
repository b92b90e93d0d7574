"""Outputs do not depend on the BLAS thread count.

A 100-row matrix-matrix product gives different bits under
OPENBLAS_NUM_THREADS=1 and =2 at this shape, so checkpoints, reports,
samples and inpainted rows are only byte-stable because every block
product runs with BLAS pinned to one thread.  Each run is a fresh
interpreter, since OpenBLAS reads the variable when numpy loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from conftest import random_model

import nadek
from nadek import Rng, save_checkpoint
from nadek.checkpoint import encode_mean

SRC = str(Path(nadek.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_rows(path, count, D, seed):
    rng = Rng(seed).stream("rows")
    rows = np.array([[rng.bernoulli(0.3) for _ in range(D)] for _ in range(count)])
    path.write_text("".join(" ".join(str(v) for v in r) + "\n" for r in rows))
    return str(path)


# the report prints 6 decimals, so the log-probs are also compared in full
EXACT = """
import sys
import numpy as np
import nadek
from nadek.checkpoint import decode_mean
params, config, meta = nadek.load_checkpoint(sys.argv[1])
rows = nadek.load_text_matrix(sys.argv[2])
for o in nadek.draw_orderings(config.D, 2, seed=5).orderings:
    for x in rows:
        print(repr(nadek.log_prob_ordering(params, config, x, o, decode_mean(meta["mean"]))))
"""


# one pretraining step's forward and backward on a 100-row block
BLOCK = """
import hashlib
import sys
import nadek
from nadek.checkpoint import decode_mean
from nadek.training import backward
params, config, meta = nadek.load_checkpoint(sys.argv[1])
x = nadek.load_text_matrix(sys.argv[2])
m = nadek.load_text_matrix(sys.argv[3])
traj = nadek.forward(params, config, x, m, decode_mean(meta["mean"]))
grads = backward(params, config, traj, x, "pretrain")
for a in (*traj.v_states, grads.vector):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""


def _python(argv, threads):
    """Run ``python argv`` with every BLAS thread variable set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({name: str(threads) for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli(argv, threads):
    return _python(["-m", "nadek.cli", *argv], threads)


def _train(tmp_path, data, valid, threads, extra=()):
    out = tmp_path / f"threads{threads}.ckpt"
    stdout = _cli(
        [
            "train", "--data", data, "--valid", valid, "--out", str(out),
            "--hidden1", "100", "--k", "2", "--epochs", "2", "--batch", "100", "--seed", "4",
            *extra,
        ],
        threads,
    )
    history = [line for line in stdout.splitlines() if line.startswith("epoch ")]
    return out.read_bytes(), history


def test_checkpoint_bytes_equal_at_one_and_two_blas_threads(tmp_path):
    data = _write_rows(tmp_path / "train.amat", 200, 196, seed=1)
    valid = _write_rows(tmp_path / "valid.amat", 100, 196, seed=2)
    one = _train(tmp_path, data, valid, 1)
    two = _train(tmp_path, data, valid, 2)
    assert len(one[1]) == 2 and one[1] == two[1]
    assert one[0] == two[0]


def test_pretrained_checkpoint_bytes_equal_at_one_and_two_blas_threads(tmp_path):
    # the pretraining backward scores every step, not only the last
    data = _write_rows(tmp_path / "train.amat", 200, 196, seed=1)
    valid = _write_rows(tmp_path / "valid.amat", 100, 196, seed=2)
    one = _train(tmp_path, data, valid, 1, ("--pretrain-epochs", "1"))
    two = _train(tmp_path, data, valid, 2, ("--pretrain-epochs", "1"))
    assert [line.split()[3] for line in one[1]] == ["pretrain", "finetune", "finetune"]
    assert one[1] == two[1]
    assert one[0] == two[0]


def test_report_and_sample_bytes_equal_at_one_and_two_blas_threads(tmp_path):
    params, cfg = random_model(196, 100, k=2, seed=6)
    model = str(tmp_path / "model.ckpt")
    save_checkpoint(model, params, cfg, {"mean": encode_mean(np.full(196, 0.3))})
    data = _write_rows(tmp_path / "rows.amat", 3, 196, seed=3)
    # 120 rows: inpaint blocks of 100 and 20, each with its own observed-set fold
    inpaint_rows = _write_rows(tmp_path / "inpaint.amat", 120, 196, seed=4)
    obs = tmp_path / "obs.txt"
    obs.write_text(" ".join(str(i) for i in range(0, 196, 2)) + "\n")
    outputs = {}
    for threads in (1, 2):
        report = tmp_path / f"report{threads}.txt"
        samples = tmp_path / f"samples{threads}.amat"
        filled = tmp_path / f"filled{threads}.amat"
        stdout = _cli(
            ["eval", "--model", model, "--data", data, "--orderings", "2", "--ensemble",
             "--report", str(report), "--seed", "5"],
            threads,
        )
        _cli(
            ["sample", "--model", model, "--count", "3", "--out", str(samples), "--seed", "5"],
            threads,
        )
        _cli(
            ["inpaint", "--model", model, "--data", inpaint_rows, "--obs-file", str(obs),
             "--out", str(filled), "--seed", "5"],
            threads,
        )
        exact = _python(["-c", EXACT, model, data], threads)
        outputs[threads] = (
            stdout, report.read_bytes(), samples.read_bytes(), exact, filled.read_bytes()
        )
    assert len(outputs[1][3].split()) == 6
    assert outputs[1] == outputs[2]


def test_forward_and_backward_bits_equal_at_one_and_two_blas_threads(tmp_path):
    # the public entry points, called outside any command that pins BLAS
    params, cfg = random_model(196, 100, k=2, seed=6)
    model = str(tmp_path / "model.ckpt")
    save_checkpoint(model, params, cfg, {"mean": encode_mean(np.full(196, 0.3))})
    rows = _write_rows(tmp_path / "rows.amat", 100, 196, seed=7)
    mask = _write_rows(tmp_path / "mask.amat", 100, 196, seed=8)
    one = _python(["-c", BLOCK, model, rows, mask], 1)
    two = _python(["-c", BLOCK, model, rows, mask], 2)
    assert len(one.split()) == cfg.k + 2
    assert one == two
