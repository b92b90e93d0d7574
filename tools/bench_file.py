#!/usr/bin/env python3
"""One ``BENCH_<pr>.json`` from benchmark runs of the working tree.

    python3 tools/bench_file.py --pr 29 --seeds 31 47 --seconds 8

For every workload of BENCHMARK.json and every given seed, in that order,
one run of

    python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0

goes in the working tree itself, each in a fresh process, as
``tools/ab_pairs.py`` runs them.  The file, written at the root of the
tree, holds per workload every end-to-end metric's unit, direction,
value in each run (in seed order) and median over the runs, and each
run's failed and attempted operation counts.  Beside them it holds the
seeds and seconds, the commit (``git rev-parse HEAD``), and, from the
first run's record in ``.bench_out/``, the Python and numpy versions, the
``*_NUM_THREADS`` variables the runs saw and the digest of the package
source they measured (which tells a tree with uncommitted changes from
its commit).  Progress goes to standard error; standard output is the
file's path.

The file holds neither a host probe (whether two single-threaded GEMM
loops overlap on the host) nor the Tier-1 wall time; measure those apart.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import ab_pairs

ROOT = Path(__file__).resolve().parent.parent

#: Fields of a run's record that describe the environment of every run.
RECORD_FIELDS = ("python", "numpy", "thread_env", "source_sha256")


def git_rev() -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True, capture_output=True, text=True,
    ).stdout.strip()


def assemble(results: dict[str, list[dict]], better: dict[str, str], env: dict) -> dict:
    """The file's content: ``env``'s fields, then each workload's runs.

    ``results`` maps a workload to its runs' final JSON lines, in seed
    order, and ``better`` each end-to-end metric to its direction.
    """
    workloads = {}
    for name, runs in results.items():
        metrics = {}
        for metric, direction in better.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            metrics[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "better": direction,
                "median": statistics.median(values),
                "values": values,
            }
        workloads[name] = {
            "metrics": metrics,
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
        }
    return {**env, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    signal.signal(signal.SIGTERM, ab_pairs._exit_on_sigterm)
    results: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = []
        for seed in args.seeds:
            run = argparse.Namespace(workload=workload, seed=seed, seconds=args.seconds)
            results[workload].append(ab_pairs.run(ROOT, run))
            rate = results[workload][-1]["metrics"]["scaled_items_per_s"]["value"]
            print(f"{workload} seed {seed}: scaled_items_per_s {rate:.6g}", file=sys.stderr, flush=True)
    first = f"{spec['workloads'][0]['name']}-seed{args.seeds[0]}-trace0.json"
    record = json.loads((ROOT / ".bench_out" / first).read_text())
    env = {
        "git_rev": git_rev(),
        **{field: record[field] for field in RECORD_FIELDS},
        "seeds": args.seeds,
        "seconds": args.seconds,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(assemble(results, better, env), indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
