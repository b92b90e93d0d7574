"""Acceptance gate: nine checks with pinned tolerances.

Each check prints one PASS/FAIL line.  Runs under pytest, or standalone:

    python3 tests/test_acceptance.py
"""

import itertools
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import four_pattern_data, random_model

from nadek import (
    Ordering,
    Rng,
    StructureConfig,
    TrainConfig,
    draw_orderings,
    ensemble_log_prob,
    enumerate_distribution,
    forward,
    init_params,
    inpaint,
    load_checkpoint,
    log_prob_ordering,
    sample_from_mixture,
    save_checkpoint,
    train,
)
from nadek.checkpoint import (
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
)
from nadek.cli import build_parser
from nadek.numerics import clamp_prob
from nadek.sampling import ancestral_sample
from nadek.training import backward, pretrain_loss, sample_mask, stochastic_loss

_CACHE = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _splits():
    if "splits" not in _CACHE:
        _CACHE["splits"] = (
            four_pattern_data(2000, 101),
            four_pattern_data(500, 102),
            four_pattern_data(500, 103),
        )
    return _CACHE["splits"]


def test_criterion_1_normalization():
    start = time.perf_counter()
    order_rng = Rng(1001).stream("orders")
    worst = 0.0
    for i in range(10):
        params, cfg = random_model(D=8, hidden1=16, k=3, seed=200 + i, spread=1.5)
        mean = 0.2 + 0.6 * order_rng.uniform_array(8)
        o = Ordering(perm=tuple(order_rng.permutation(8)))
        table = enumerate_distribution(params, cfg, o, mean)
        worst = max(worst, abs(float(table.sum()) - 1.0))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-8 and elapsed < 5.0,
        f"max |sum p - 1| = {worst:.2e} over 10 settings at D=8, k=3 "
        f"in {elapsed:.2f}s (bounds 1e-8, 5s)",
    )


def test_criterion_2_estimator_unbiasedness():
    D = 4
    params, cfg = random_model(D=D, hidden1=5, k=2, seed=300, spread=1.2)
    mean_rng = Rng(301).stream("mean")
    mean = 0.2 + 0.6 * mean_rng.uniform_array(D)
    perms = list(itertools.permutations(range(D)))
    worst = 0.0
    for x in ([1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]):
        x = np.array(x)
        exact = float(
            np.mean([-log_prob_ordering(params, cfg, x, Ordering(perm=p), mean) for p in perms])
        )
        total = 0.0
        for perm in perms:
            for d in range(1, D + 1):
                mask = np.ones(D)
                for i in perm[: d - 1]:
                    mask[i] = 0.0
                traj = forward(params, cfg, x, mask, mean)
                total += stochastic_loss(traj, x)
        estimate = total / (len(perms) * D)
        worst = max(worst, abs(estimate - exact))
    _report(
        2,
        worst < 1e-10,
        f"|avg stochastic loss - order-averaged NLL| = {worst:.2e} "
        f"over all 24 orderings x all d at D=4 (bound 1e-10)",
    )


def _fd_worst(n: int, k: int, objective: str, seed: int) -> float:
    D = 5
    kwargs = dict(D=D, hidden1=4, k=k, seed=seed, spread=1.0)
    if n == 3:
        kwargs.update(n=3, hidden2=3)
    params, cfg = random_model(**kwargs)
    rng = Rng(seed).stream("case")
    x = np.array([float(rng.next_below(2)) for _ in range(D)])
    mean = 0.2 + 0.6 * rng.uniform_array(D)
    m = sample_mask(rng, D, 1)[0]
    traj = forward(params, cfg, x, m, mean)
    grads = backward(params, cfg, traj, x, objective)

    def loss() -> float:
        t = forward(params, cfg, x, m, mean)
        return stochastic_loss(t, x) if objective == "finetune" else pretrain_loss(t, x)

    h = 1e-5
    worst = 0.0
    live = params.tensors()
    for name, grad in grads.tensors().items():
        tensor = live[name]
        for idx in np.ndindex(tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + h
            plus = loss()
            tensor[idx] = orig - h
            minus = loss()
            tensor[idx] = orig
            numeric = (plus - minus) / (2.0 * h)
            analytic = float(grad[idx])
            rel = abs(analytic - numeric) / max(1e-6, abs(analytic), abs(numeric))
            worst = max(worst, rel)
    return worst


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    seed = 310
    for n in (2, 3):
        for k in (1, 3, 5):
            for objective in ("finetune", "pretrain"):
                seed += 1
                worst = max(worst, _fd_worst(n, k, objective, seed))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst < 1e-4 and elapsed < 60.0,
        f"max fd relative error = {worst:.2e} over n in {{2,3}} x k in {{1,3,5}} "
        f"x both objectives in {elapsed:.1f}s (bounds 1e-4, 60s)",
    )


def _index3(x: np.ndarray) -> int:
    return int(x[0]) | (int(x[1]) << 1) | (int(x[2]) << 2)


@pytest.mark.slow
def test_criterion_4_sampling_correctness():
    D = 3
    params, cfg = random_model(D=D, hidden1=6, k=2, seed=400, spread=1.5)
    mean = np.array([0.35, 0.5, 0.65])
    n = 100000

    o = Ordering(perm=(2, 0, 1))
    table = enumerate_distribution(params, cfg, o, mean)
    rng = Rng(401).stream("draws")
    counts = np.zeros(8)
    for _ in range(n):
        counts[_index3(ancestral_sample(params, cfg, o, mean, rng))] += 1
    tv_ancestral = 0.5 * float(np.sum(np.abs(counts / n - table)))

    # conditional target: with component 0 clamped to 1, the sampler mixes
    # the two missing-component orders uniformly; each term is the joint of
    # that ordering restricted to x0=1 and renormalized
    expected = np.zeros(4)
    for perm in ((0, 1, 2), (0, 2, 1)):
        joint = enumerate_distribution(params, cfg, Ordering(perm=perm), mean)
        restricted = np.array([joint[1], joint[3], joint[5], joint[7]])
        expected += 0.5 * restricted / restricted.sum()
    x_obs = np.array([1.0, 0.0, 0.0])
    rng = Rng(402).stream("draws")
    counts = np.zeros(4)
    for _ in range(n):
        out = inpaint(params, cfg, x_obs, [0], mean, rng)
        counts[int(out[1]) | (int(out[2]) << 1)] += 1
    tv_conditional = 0.5 * float(np.sum(np.abs(counts / n - expected)))

    _report(
        4,
        tv_ancestral < 0.01 and tv_conditional < 0.01,
        f"TV(1e5 ancestral, enumerated) = {tv_ancestral:.4f}, "
        f"TV(1e5 conditional, renormalized enumeration) = {tv_conditional:.4f} "
        f"(bound 0.01 each)",
    )


def test_criterion_5_ensemble_jensen():
    D = 6
    params, cfg = random_model(D=D, hidden1=5, k=2, seed=500, spread=1.5)
    mean = np.full(D, 0.5)
    spec = draw_orderings(D, 5, seed=501)
    rng = Rng(502).stream("vectors")
    worst_slack = -math.inf
    for _ in range(20):
        x = np.array([float(rng.next_below(2)) for _ in range(D)])
        logs = [log_prob_ordering(params, cfg, x, o, mean) for o in spec.orderings]
        ens = ensemble_log_prob(params, cfg, x, spec, mean)
        worst_slack = max(worst_slack, float(np.mean(logs)) - ens)
    _report(
        5,
        worst_slack <= 1e-12,
        f"max (mean per-ordering - ensemble) = {worst_slack:.2e} over 20 vectors "
        f"(must be <= 1e-12)",
    )


def _ensemble_mean(params, cfg, rows, mean, spec) -> float:
    return float(
        np.mean([ensemble_log_prob(params, cfg, x, spec, mean) for x in rows])
    )


def test_criterion_6_learning_beats_baseline():
    start = time.perf_counter()
    train_rows, valid_rows, test_rows = _splits()
    structure = StructureConfig(D=16, hidden1=32, k=2)
    config = TrainConfig(
        minibatch_size=100,
        pretrain_epochs=0,
        finetune_epochs=300,
        weight_decay=0.0,
        patience=0,
        seed=7,
        rho=0.95,
        epsilon=1e-6,
    )
    result = train(structure, train_rows, valid_rows, config, "finetune_only")
    spec = draw_orderings(16, 8, seed=42)
    model_score = _ensemble_mean(result.params, structure, test_rows, result.mean, spec)

    mu = clamp_prob(train_rows.mean(axis=0))
    baseline = float(
        np.mean(test_rows @ np.log(mu) + (1.0 - test_rows) @ np.log(1.0 - mu))
    )
    margin = model_score - baseline
    elapsed = time.perf_counter() - start
    _report(
        6,
        margin >= 1.0 and elapsed < 600.0,
        f"test ensemble log-prob {model_score:.4f} vs Bernoulli baseline "
        f"{baseline:.4f}, margin {margin:.4f} nats in {elapsed:.0f}s "
        f"(bounds >= 1.0, < 600s)",
    )


@pytest.mark.slow
def test_criterion_7_more_steps_help():
    train_rows, valid_rows, _ = _splits()
    spec = draw_orderings(16, 8, seed=42)
    medians = {}
    for k in (1, 3):
        structure = StructureConfig(D=16, hidden1=32, k=k)
        scores = []
        for seed in (1, 2, 3):
            config = TrainConfig(
                minibatch_size=100,
                pretrain_epochs=0,
                finetune_epochs=100,
                weight_decay=0.0,
                patience=0,
                seed=seed,
                rho=0.95,
                epsilon=1e-6,
            )
            result = train(structure, train_rows, valid_rows, config, "finetune_only")
            scores.append(
                _ensemble_mean(result.params, structure, valid_rows, result.mean, spec)
            )
        medians[k] = float(np.median(scores))
    _report(
        7,
        medians[3] >= medians[1],
        f"validation ensemble median over 3 seeds: k=3 {medians[3]:.4f} vs "
        f"k=1 {medians[1]:.4f} (k=3 must match or beat k=1)",
    )


def test_criterion_8_checkpoint_round_trip():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        params, cfg = random_model(D=6, hidden1=4, k=2, n=3, hidden2=3, seed=800)
        path = tmp / "model.ckpt"
        save_checkpoint(path, params, cfg, {"epochs": "3"})
        loaded, loaded_cfg, _ = load_checkpoint(path)
        exact = loaded_cfg == cfg and all(
            np.array_equal(loaded.tensors()[name], tensor)
            for name, tensor in params.tensors().items()
        )
        resaved = tmp / "again.ckpt"
        save_checkpoint(resaved, loaded, loaded_cfg, {"epochs": "3"})
        exact = exact and path.read_bytes() == resaved.read_bytes()

        raw = path.read_bytes()
        errors = []
        for corrupt in (b"BADMAGIC" + raw[6:], raw[:-3], raw + b"\x00" * 8):
            bad = tmp / "bad.ckpt"
            bad.write_bytes(corrupt)
            try:
                load_checkpoint(bad)
                errors.append(None)
            except (CheckpointMagicError, CheckpointShapeError, CheckpointTruncatedError) as exc:
                errors.append(type(exc))
        distinct = errors == [
            CheckpointMagicError,
            CheckpointTruncatedError,
            CheckpointShapeError,
        ]
    _report(
        8,
        exact and distinct,
        f"round trip bit-exact: {exact}; corruption errors "
        f"{[None if e is None else e.__name__ for e in errors]}",
    )


FULL_SCALE_RECIPES = {
    "binary-images 1HL, 5 steps, 500 hidden": [
        "train", "--data", "train.amat", "--valid", "valid.amat",
        "--out", "nade5_1hl.ckpt", "--hidden1", "500", "--k", "5",
        "--mode", "pretrain-then-finetune", "--pretrain-epochs", "1000",
        "--epochs", "1000", "--batch", "100", "--seed", "1",
    ],
    "binary-images 2HL, 5 steps, 500+500 hidden": [
        "train", "--data", "train.amat", "--valid", "valid.amat",
        "--out", "nade5_2hl.ckpt", "--hidden1", "500", "--hidden2", "500",
        "--k", "5", "--mode", "pretrain-then-finetune",
        "--pretrain-epochs", "1000", "--epochs", "2000",
        "--weight-decay", "0.00122", "--batch", "100", "--seed", "1",
    ],
    "silhouettes 1HL, 5 steps, 4000 hidden": [
        "train", "--data", "train.amat", "--valid", "valid.amat",
        "--out", "nade5_4000h.ckpt", "--hidden1", "4000", "--k", "5",
        "--epochs", "1000", "--weight-decay", "0.0068",
        "--batch", "100", "--seed", "1",
    ],
    "ensemble evaluation, 128 orderings": [
        "eval", "--model", "nade5_2hl.ckpt", "--data", "test.amat",
        "--orderings", "128", "--ensemble", "--report", "eval_report.txt",
    ],
}


def test_criterion_9_full_scale_cli_parses():
    # full runs need 500-4000 hidden units and 1000+ epochs, so the gate
    # only proves each documented command line parses; checks 1-8 carry
    # the correctness burden
    parser = build_parser()
    ok = True
    for argv in FULL_SCALE_RECIPES.values():
        args = parser.parse_args(argv)
        ok = ok and args.command in ("train", "eval")
    a = parser.parse_args(FULL_SCALE_RECIPES["binary-images 2HL, 5 steps, 500+500 hidden"])
    ok = ok and a.hidden1 == 500 and a.hidden2 == 500 and a.k == 5
    ok = ok and a.pretrain_epochs == 1000 and a.epochs == 2000
    ok = ok and abs(a.weight_decay - 0.00122) < 1e-12
    e = parser.parse_args(FULL_SCALE_RECIPES["ensemble evaluation, 128 orderings"])
    ok = ok and e.orderings == 128 and e.ensemble
    _report(
        9,
        ok,
        f"{len(FULL_SCALE_RECIPES)} documented full-scale command lines parse; "
        f"full runs excluded from the gate by design",
    )


if __name__ == "__main__":
    names = sorted(n for n in dir() if n.startswith("test_criterion_"))
    failures = 0
    for name in names:
        try:
            globals()[name]()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
