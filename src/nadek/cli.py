"""Non-interactive command line: train, eval, sample, inpaint, stats, enumcheck.

Every run takes a single --seed and derives all randomness from named
sub-streams, writes its artifacts to files, and reports through stdout
lines that are stable enough to parse.  Exit codes: 0 success, 1 runtime
or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .checkpoint import (
    CheckpointError,
    decode_mean,
    encode_mean,
    load_checkpoint,
    save_checkpoint,
)
from .data import DataError, atomic_write, load_text_matrix, save_text_matrix
from .evaluation import (
    EvalReport,
    draw_orderings,
    enumerate_distribution,
    identity_ordering,
    ordering_stats,
    render_report,
)
from .model import ModelParams, StructureConfig, forward
from .numerics import BLOCK_ROWS, ContractError, Rng, _is_binary
from .sampling import inpaint, sample_from_mixture
from .training import EPSILON, RHO, TrainConfig, train

__all__ = ["main"]


class UsageError(Exception):
    """Flag combination that argparse alone cannot reject."""


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path: str, command: str, flags: dict, inputs: list[str]) -> None:
    """Record everything needed to reproduce the run bit-exactly."""
    manifest = {
        "command": command,
        "flags": flags,
        "inputs": {p: _sha256(p) for p in inputs},
        "version": __version__,
    }
    with atomic_write(path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_binary_dataset(path: str, D: int | None = None) -> np.ndarray:
    """The 0/1 matrix in ``path``, checked to be D columns wide when D is given."""
    ds = load_text_matrix(path)
    if not _is_binary(ds):
        raise DataError(f"{path}: values must be binary 0/1 for this command")
    if D is not None and ds.shape[1] != D:
        raise DataError(f"{path}: dataset width {ds.shape[1]} does not match model dimension {D}")
    return ds


def _load_model(path: str) -> tuple[ModelParams, StructureConfig, np.ndarray]:
    params, config, metadata = load_checkpoint(path)
    if "mean" not in metadata:
        raise CheckpointError(f"{path}: checkpoint metadata lacks the training mean")
    mean = decode_mean(metadata["mean"])
    if mean.shape != (config.D,):
        raise CheckpointError(f"{path}: stored mean length does not match D")
    if not np.all((mean >= 0.0) & (mean <= 1.0)):
        raise CheckpointError(f"{path}: stored mean must be finite and within [0, 1]")
    return params, config, mean


def write_pgm(path: str, pixels: np.ndarray) -> None:
    """Binary (P5) grayscale image, 8 bits per pixel."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ContractError("PGM pixels must be a 2-D array")
    h, w = pixels.shape
    with atomic_write(path, binary=True) as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.astype(np.uint8).tobytes())


def _pgm_grid(
    vectors: np.ndarray, rows: int, cols: int, img_w: int, img_h: int
) -> np.ndarray:
    grid = np.zeros((rows * img_h, cols * img_w), dtype=np.uint8)
    for i, vec in enumerate(vectors):
        r, c = divmod(i, cols)
        tile = np.round(255.0 * vec.reshape(img_h, img_w)).astype(np.uint8)
        grid[r * img_h : (r + 1) * img_h, c * img_w : (c + 1) * img_w] = tile
    return grid


def cmd_train(args) -> int:
    if args.mode == "finetune-only" and args.pretrain_epochs > 0:
        raise UsageError("--mode finetune-only conflicts with --pretrain-epochs > 0")
    train_ds = _load_binary_dataset(args.data)
    valid_ds = _load_binary_dataset(args.valid)
    D = train_ds.shape[1]
    if valid_ds.shape[1] != D:
        raise DataError(f"{args.valid}: width {valid_ds.shape[1]} does not match training width {D}")
    structure = StructureConfig(
        D=D,
        hidden1=args.hidden1,
        k=args.k,
        hidden2=args.hidden2,
        activation=args.activation,
    )
    config = TrainConfig(
        minibatch_size=args.batch,
        pretrain_epochs=args.pretrain_epochs,
        finetune_epochs=args.epochs,
        weight_decay=args.weight_decay,
        patience=args.patience,
        seed=args.seed,
        rho=args.rho,
        epsilon=args.epsilon,
    )
    result = train(structure, train_ds, valid_ds, config)
    for line in result.history:
        print(line)
    metadata = {
        "epochs": str(result.epochs_run),
        "best_valid": "none" if result.best_valid is None else repr(result.best_valid),
        "seed": str(args.seed),
        "mean": encode_mean(result.mean),
    }
    save_checkpoint(args.out, result.params, structure, metadata)
    with atomic_write(args.out + ".history.log") as fh:
        for line in result.history:
            fh.write(line + "\n")
    write_manifest(
        args.out + ".manifest.json", "train", vars(args), [args.data, args.valid]
    )
    print(f"checkpoint {args.out}")
    return 0


def _score(args, report_path: str, k_override: int | None) -> EvalReport:
    """Score every (row, ordering) pair of the data and write the report."""
    params, config, mean = _load_model(args.model)
    ds = _load_binary_dataset(args.data, config.D)
    if k_override is not None:
        config = dataclasses.replace(config, k=k_override)
    spec = draw_orderings(config.D, args.orderings, args.seed)
    report = ordering_stats(params, config, ds, spec, mean, args.threads)
    with atomic_write(report_path) as fh:
        fh.write(render_report(report))
    return report


def cmd_eval(args) -> int:
    report = _score(args, args.report, args.k_override)
    print(f"per_ordering_mean_log_prob {report.mean:.6f}")
    if args.ensemble:
        print(f"ensemble_mean_log_prob {report.ensemble_mean():.6f}")
    return 0


def cmd_sample(args) -> int:
    params, config, mean = _load_model(args.model)
    if args.count < 0:
        raise UsageError("--count must be >= 0")
    if args.pgm is not None:
        if args.grid is None or args.img_w is None or args.img_h is None:
            raise UsageError("--pgm needs --grid, --img-w and --img-h")
        if min(args.img_w, args.img_h, *args.grid) < 1:
            raise UsageError("--grid, --img-w and --img-h must all be >= 1")
        if args.img_w * args.img_h != config.D:
            raise UsageError(
                f"--img-w * --img-h must equal D={config.D}, got {args.img_w * args.img_h}"
            )
        rows, cols = args.grid
        if rows * cols < args.count:
            raise UsageError(f"grid {rows}x{cols} too small for {args.count} samples")
    vectors = np.empty((0, config.D))
    if args.count:
        vectors = sample_from_mixture(params, config, args.count, mean, Rng(args.seed), args.threads)
    save_text_matrix(args.out, vectors)
    if args.pgm is not None:
        rows, cols = args.grid
        write_pgm(args.pgm, _pgm_grid(vectors, rows, cols, args.img_w, args.img_h))
    print(f"samples {args.out}")
    return 0


def _read_obs_indices(path: str) -> list[int]:
    """The file's whitespace-separated indices; :func:`inpaint` checks them."""
    with open(path) as fh:
        fields = fh.read().split()
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise DataError(f"{path}: observed indices must be integers") from exc


def cmd_inpaint(args) -> int:
    params, config, mean = _load_model(args.model)
    ds = _load_binary_dataset(args.data, config.D)
    obs = _read_obs_indices(args.obs_file)
    rngs = [Rng(args.seed).stream("inpaint", i) for i in range(len(ds))]
    out_rows = inpaint(params, config, ds, obs, mean, rngs)
    save_text_matrix(args.out, out_rows)
    if args.trace:
        # every intermediate reconstruction v_0 .. v_k of each row, run in
        # BLOCK_ROWS blocks in row order
        masks = np.ones((min(BLOCK_ROWS, len(ds)), config.D))
        masks[:, obs] = 0.0
        with atomic_write(args.out + ".trace") as fh:
            for start in range(0, len(ds), BLOCK_ROWS):
                rows = ds[start : start + BLOCK_ROWS]
                m = masks[: len(rows)]
                traj = forward(params, config, rows, m, mean)
                for r in range(len(rows)):
                    fh.write(f"# sample {start + r}\n")
                    for v in traj.v_states:
                        fh.write(" ".join(f"{val:.6f}" for val in v[r]) + "\n")
    print(f"inpainted {args.out}")
    return 0


def cmd_stats(args) -> int:
    report = _score(args, args.out, None)
    print("\n".join(report.aggregate_lines()))
    return 0


def cmd_enumcheck(args) -> int:
    params, config, mean = _load_model(args.model)
    table = enumerate_distribution(params, config, identity_ordering(config.D), mean)
    residual = abs(float(table.sum()) - 1.0)
    print(f"normalization_residual {residual:.3e}")
    return 0 if residual < 1e-8 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    ``parse_args`` leaves a parser as it found it, so each call of
    :func:`main` shares this one.
    """
    parser = argparse.ArgumentParser(
        prog="nadek",
        description="Iterative-inference autoregressive density model over binary vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def non_negative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    def grid(text: str) -> tuple[int, int]:
        try:
            r, c = text.lower().split("x")
            return int(r), int(c)
        except ValueError as exc:
            raise argparse.ArgumentTypeError("grid must look like 4x8") from exc

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--data", required=True, help="training matrix (.amat or .amat.gz)")
    p.add_argument("--valid", required=True, help="validation matrix")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--hidden1", required=True, type=positive_int)
    p.add_argument("--hidden2", type=positive_int, help="adds a second layer per step")
    p.add_argument("--k", type=positive_int, default=1, help="inference steps per conditional")
    p.add_argument("--activation", choices=["tanh", "sigmoid"], default="tanh")
    p.add_argument("--epochs", type=non_negative_int, default=0, help="fine-tuning epochs")
    p.add_argument("--pretrain-epochs", type=non_negative_int, default=0)
    p.add_argument("--mode", choices=["pretrain-then-finetune", "finetune-only"])
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--batch", type=positive_int, default=100)
    p.add_argument(
        "--patience", type=non_negative_int, default=0, help="0 disables early stopping"
    )
    p.add_argument("--rho", type=float, default=RHO)
    p.add_argument("--epsilon", type=float, default=EPSILON)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="exact log-likelihood under sampled orderings")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--orderings", type=positive_int, default=8)
    p.add_argument("--ensemble", action="store_true", help="also print the mixture value")
    p.add_argument("--k-override", type=positive_int, help="inference steps at evaluation time")
    p.add_argument("--report", default="eval_report.txt")
    p.add_argument("--threads", type=positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sample", help="draw vectors from the model")
    p.add_argument("--model", required=True)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", help="also write a PGM image grid to this path")
    p.add_argument("--grid", type=grid, help="tile layout RxC for --pgm")
    p.add_argument("--img-w", type=int, help="tile width for --pgm")
    p.add_argument("--img-h", type=int, help="tile height for --pgm")
    p.add_argument("--threads", type=positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("inpaint", help="fill missing components of each data row")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--obs-file", required=True, help="whitespace-separated observed indices")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true", help="write per-step reconstructions")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("stats", help="log-prob spread over orderings and samples")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--orderings", type=positive_int, default=8)
    p.add_argument("--out", default="stats_report.txt")
    p.add_argument("--threads", type=positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("enumcheck", help="exhaustive normalization residual (small D)")
    p.add_argument("--model", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_* function is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, ContractError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
