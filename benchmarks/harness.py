"""Run one workload of the nadek benchmark and report its metrics.

Set-up imports the package from the checkout's ``src`` and generates the
inputs, several times, reporting the median.  The timed section is a
closed loop of rounds, each the workload's fixed CLI command sequence run
in-process through ``nadek.cli.main``; only the command calls are timed.
A speed probe between rounds scales each round to the reference machine
speed (see probe.py).  Every command's outputs are checked and must
repeat byte for byte.

With ``--trace 1`` the rounds alternate untraced and traced; the traced
rounds give the per-layer split and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from probe import Probe, slowdown
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, commands, paths, prepare

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "scaled_items_per_s": "items/s", "peak_rss_mb": "MB"}
SETUP_PROBE = ("python",)

# function-level metrics and their units; layer_metrics derives the values
LAYER_FUNCTIONS = {
    "training.mask_s": "s",
    "numerics.rng_s": "s",
    "training.backward_s": "s",
    "training.backward_gflop": "GFLOP",
    "training.backward_bytes": "bytes",
    "training.adadelta_s": "s",
    "training.adadelta_calls": "count",
    "training.adadelta_gflop": "GFLOP",
    "training.adadelta_bytes": "bytes",
    "training.valid_s": "s",
    "model.init_s": "s",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "model.forward_rows": "count",
    "model.forward_gflop": "GFLOP",
    "model.forward_weight_bytes": "bytes",
    "model.forward_gflop_per_s": "GFLOP/s",
    "numerics.matvec_s": "s",
    "numerics.sigmoid_s": "s",
    "numerics.tanh_s": "s",
    "evaluation.pairs": "count",
    "evaluation.forward_calls_per_pair": "count",
    "evaluation.orderings_s": "s",
    "evaluation.report_s": "s",
    "sampling.samples": "count",
    "sampling.inpaint_rows": "count",
    "data.load_s": "s",
    "data.save_s": "s",
    "data.bytes": "bytes",
    "checkpoint.load_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

RNG_METHODS = ("stream", "permutation", "shuffle", "uniform_array")
REPORT_CALLABLES = (
    "evaluation.stats_from_matrix",
    "evaluation.render_report",
    "evaluation.EvalReport.ensemble_mean",
    "evaluation.EvalReport.per_ordering_mean",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(LAYER_FUNCTIONS)
    return units


def layer_metrics(agg: dict, rounds: int, workload, cmds, overhead_frac: float) -> dict:
    """Per-round layer metrics from tracer aggregates.

    ``agg`` maps (callable, parent) to [calls, inclusive_s, self_s, counter].
    Kernel flops and bytes are computed from the workload's shapes and the
    observed call and row counts (one hidden layer, tanh): a forward step
    is two (D x h) matvecs and reads W and V; a backward step adds two
    outer-product accumulations and two transposed matvecs, reading W and
    V and reading and writing their gradient accumulators; an AdaDelta
    step does about 16 flops per parameter over 7 float64 arrays.
    """

    def total(key):
        return sum(v[1] for (k, _), v in agg.items() if k == key)

    def calls(key):
        return sum(v[0] for (k, _), v in agg.items() if k == key)

    def counter(key):
        return sum(v[3] for (k, _), v in agg.items() if k == key)

    D, h, k = workload.D, workload.hidden1, workload.k
    forward_rows = counter("model.forward")
    forward_s = total("model.forward")
    forward_gflop = forward_rows * 4 * D * h * k / 1e9
    pairs = sum(c.items for c in cmds if c.kind == "eval")
    eval_forwards = sum(
        v[0] for (key, parent), v in agg.items()
        if key == "model.forward" and parent.startswith("evaluation.")
    )
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v[2] for (key, _), v in agg.items() if key.split(".")[0] == layer)
        values[f"{layer}.calls"] = sum(v[0] for (key, _), v in agg.items() if key.split(".")[0] == layer)
    values.update({
        "training.mask_s": total("training.sample_mask"),
        "numerics.rng_s": sum(
            v[2] for (key, _), v in agg.items() if key in {f"numerics.Rng.{m}" for m in RNG_METHODS}
        ),
        "training.backward_s": total("training.backward"),
        "training.backward_gflop": counter("training.backward") * 8 * D * h * k / 1e9,
        "training.backward_bytes": calls("training.backward") * 48 * D * h * k,
        "training.adadelta_s": total("training.adadelta_step"),
        "training.adadelta_calls": calls("training.adadelta_step"),
        "training.adadelta_gflop": calls("training.adadelta_step") * 16 * workload.params / 1e9,
        "training.adadelta_bytes": calls("training.adadelta_step") * 56 * workload.params,
        "training.valid_s": total("training.validation_score"),
        "model.init_s": total("model.init_params"),
        "model.forward_s": forward_s,
        "model.forward_calls": calls("model.forward"),
        "model.forward_rows": forward_rows,
        "model.forward_gflop": forward_gflop,
        "model.forward_weight_bytes": calls("model.forward") * 16 * D * h * k,
        "numerics.matvec_s": total("numerics.matvec"),
        "numerics.sigmoid_s": total("numerics.sigmoid_vec"),
        "numerics.tanh_s": total("numerics.tanh_vec"),
        "evaluation.orderings_s": total("evaluation.draw_orderings"),
        "evaluation.report_s": sum(total(key) for key in REPORT_CALLABLES),
        "data.load_s": total("data.load_text_matrix"),
        "data.save_s": total("data.save_text_matrix"),
        "data.bytes": counter("data.load_text_matrix") + counter("data.save_text_matrix"),
        "checkpoint.load_s": total("checkpoint.load_checkpoint"),
        "checkpoint.save_s": total("checkpoint.save_checkpoint"),
        "checkpoint.bytes": counter("checkpoint.load_checkpoint") + counter("checkpoint.save_checkpoint"),
    })
    per_round = {name: value / rounds for name, value in values.items()}
    # rates and per-round counts of work are not divided again
    per_round["model.forward_gflop_per_s"] = forward_gflop / forward_s if forward_s > 0 else 0.0
    per_round["evaluation.pairs"] = pairs
    per_round["evaluation.forward_calls_per_pair"] = eval_forwards / rounds / pairs if pairs else 0.0
    per_round["sampling.samples"] = sum(c.items for c in cmds if c.kind == "sample")
    per_round["sampling.inpaint_rows"] = sum(c.items for c in cmds if c.kind == "inpaint")
    per_round["trace.overhead_frac"] = overhead_frac
    units = per_layer_units()
    return {name: {"value": per_round[name], "unit": unit} for name, unit in units.items()}


# -- set-up ------------------------------------------------------------------


def import_package():
    """Import ``nadek.cli`` afresh from the checkout's ``src``.

    Dropping the cached modules first makes every set-up repeat pay the
    package's import cost, so set-up time includes it.  The import always
    compiles the sources: bytecode caches are looked up under a directory
    that is never created and none are written, so a ``__pycache__`` left
    in ``src`` by a test run, current or stale, cannot change set-up time.
    """
    for name in [m for m in sys.modules if m == "nadek" or m.startswith("nadek.")]:
        del sys.modules[name]
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix = str(ROOT / WORK_DIR / "no-bytecode")
    sys.dont_write_bytecode = True
    try:
        cli = importlib.import_module("nadek.cli")
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    if Path(cli.__file__).resolve().parent != (ROOT / "src" / "nadek").resolve():
        raise SystemExit(f"error: imported nadek from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def set_up(workload, seed: int, workdir: str):
    """Import the package and write the inputs; return (cli module, seconds)."""
    t0 = perf_counter()
    cli = import_package()
    prepare(workload, seed, workdir)
    return cli, perf_counter() - t0


# -- running commands --------------------------------------------------------


def run_command(cli, cmd, tracer=None) -> tuple[float, list[str]]:
    """Time one CLI command in-process; return (seconds, problems)."""
    buf = io.StringIO()
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:  # argparse rejects flags by exiting
        rc = exc.code
    except Exception as exc:  # a crashing command is a failed operation, not a crashed run
        rc = f"exception {exc!r}"
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.span(cmd.kind, t0, t0 + seconds)
    if rc != 0:
        return seconds, [f"{cmd.kind}: exit status {rc}"]
    try:
        problems = cmd.check(buf.getvalue())
    except Exception as exc:  # a check that cannot parse the output fails the operation
        problems = [f"{cmd.kind}: check raised {exc!r}"]
    return seconds, problems


def measure(cli, cmds, seconds: float, slowdown, tracer=None, min_rounds: int = 1):
    """Closed loop of rounds until ``seconds`` of wall time have passed.

    ``slowdown()`` is probed before the first round and after every round.
    Returns (rounds, ops).  A round is {"traced", "seconds", "items",
    "slowdown", "scaled_s"}, where slowdown is the mean of the two probes
    around the round and scaled_s = seconds / slowdown.  An op is one
    command: {"round", "kind", "seconds", "problems", "digests"}.  With a
    tracer, odd rounds are traced.
    """
    rounds, ops = [], []
    first_digests: list[dict | None] = [None] * len(cmds)
    before = slowdown()
    start = perf_counter()
    i = 0
    while i < min_rounds or perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 1
        round_s = 0.0
        for j, cmd in enumerate(cmds):
            dt, problems = run_command(cli, cmd, tracer if traced else None)
            round_s += dt
            digests = {}
            if not problems:
                try:
                    digests = {p: checks.sha256(p) for p in cmd.outputs}
                except OSError as exc:
                    problems = [f"{cmd.kind}: output missing ({exc})"]
            if digests:
                if first_digests[j] is None:
                    first_digests[j] = digests
                elif digests != first_digests[j]:
                    problems = [f"{cmd.kind}: output bytes differ from round 0"]
            ops.append({"round": i, "kind": cmd.kind, "seconds": dt, "problems": problems, "digests": digests})
        after = slowdown()
        factor = (before + after) / 2
        rounds.append({
            "traced": traced, "seconds": round_s, "items": sum(c.items for c in cmds),
            "slowdown": factor, "scaled_s": round_s / factor,
        })
        before = after
        i += 1
    return rounds, ops


def check_repeatable(ops: list[dict], store: Path, source: str) -> None:
    """Compare round 0's output digests with an earlier run of the same
    sources and seed, then record them.  Mismatches fail the op."""
    outputs = {}
    for op in ops:
        if op["round"] == 0:
            outputs.update(op["digests"])
    previous = None
    if store.exists():
        previous = json.loads(store.read_text())
    if previous is not None and previous.get("source") == source:
        for op in ops:
            if op["round"] != 0:
                continue
            for path, digest in op["digests"].items():
                old = previous["outputs"].get(path)
                if old is not None and old != digest:
                    op["problems"].append(f"{path}: bytes differ from an earlier run")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"source": source, "outputs": outputs}, sort_keys=True) + "\n")


# -- run record --------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "nadek").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def run_record(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "python": sys.version.split()[0],
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
    }


# -- entry points ------------------------------------------------------------


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    record = run_record(args)
    record["loadavg_start"] = os.getloadavg()
    probe = Probe()
    readings = []  # every probe reading, in order; round i lies between i and i + 1

    def read_slowdown(kernels):
        readings.append(probe.read())
        return slowdown(readings[-1], kernels)

    workdir = os.path.join(WORK_DIR, workload.name)
    setups = []
    before = read_slowdown(SETUP_PROBE)
    for _ in range(SETUP_REPEATS):
        cli, seconds = set_up(workload, args.seed, workdir)
        after = read_slowdown(SETUP_PROBE)
        setups.append({"seconds": seconds, "slowdown": (before + after) / 2})
        before = after
    setup_readings, readings = readings, []
    cmds = commands(workload, args.seed, workdir)

    tracer = Tracer() if args.trace else None
    rounds, ops = measure(
        cli, cmds, args.seconds, lambda: read_slowdown(workload.probe), tracer,
        min_rounds=2 if tracer else 1,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_repeatable(
        ops, Path(OUT_DIR) / "digests" / f"{workload.name}-seed{args.seed}.json", record["source_sha256"]
    )
    if workload.kind == "score":
        first = next(op for op in ops if op["kind"] == "eval")
        if not first["problems"]:
            p = paths(workdir)
            first["problems"] += checks.check_reference(p["report"], p["model"], p["rows"], args.seed)

    plain = [r for r in rounds if not r["traced"]]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(u["seconds"] / u["slowdown"] for u in setups),
            "scaled_items_per_s": statistics.median(r["items"] / r["scaled_s"] for r in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        traced = [r for r in rounds if r["traced"]]
        overhead = (
            statistics.median(r["scaled_s"] for r in traced)
            / statistics.median(r["scaled_s"] for r in plain) - 1.0
        )
        metrics = layer_metrics(tracer.aggregates(), len(traced), workload, cmds, overhead)

    failed = sum(1 for op in ops if op["problems"])
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED round {op['round']} {op['kind']}: {problem}", file=sys.stderr)
    record.update({
        "loadavg_end": os.getloadavg(),
        "setups": setups,
        "raw_items_per_s": {
            "median": statistics.median(r["items"] / r["seconds"] for r in plain),
            "best": max(r["items"] / r["seconds"] for r in plain),
        },
        "rounds": rounds,
        "probe_readings": {"setup": setup_readings, "rounds": readings},
        "ops": [{k: op[k] for k in ("round", "kind", "seconds", "problems")} for op in ops],
        "metrics": metrics,
    })
    if tracer is not None:
        record["spans"] = tracer.spans
        record["aggregates"] = sorted(
            ({"callable": k, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2], "counter": v[3]}
             for (k, p), v in tracer.aggregates().items()),
            key=lambda e: -e["self_s"],
        )
    out = Path(OUT_DIR) / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"record {out}")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of metrics by name."""
    status = 0
    print(f"{'workload':14} {'metric':34} {'value':>14}  unit")
    for name in WORKLOADS:
        argv = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:14} run failed with status {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:14} {metric:34} {m['value']:14.6g}  {m['unit']}")
        print(f"{name:14} {'failed_frac':34} {result['failed'] / result['attempted']:14.6g}  ratio")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nadek benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)
