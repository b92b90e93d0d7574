#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a base revision against the working tree.

    python3 tools/ab_pairs.py --base HEAD --workload train-desk --seed 31 --pairs 10

Both sides run from copies in one temporary directory, which is deleted at
exit, on SIGTERM too (which also stops the running benchmark): the base
revision is exported with ``git archive``, and the working tree by copying
the files ``git ls-files -co --exclude-standard`` names (tracked and
untracked, not ignored), skipping deleted ones.  So neither
side carries build or run leftovers that the other lacks.  Each pair runs

    python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0

once in the base copy and once in the working-tree copy, each in a fresh
process; the base runs first in even pairs and second in odd ones, so a
drift of the host's speed falls on both sides.  Progress goes to standard
error.  Standard output is one JSON object: for every end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the ratio of the medians
(working tree over base), the pairs the working tree won (strictly
better, in the metric's direction), and whether those support a claimed
gain, plus each side's raw values and failed operation counts.  A gain
holds when the working tree won at least 9 of every 10 pairs and its
median beats the base's, in the metric's direction, by more than the
base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; return the full commit id."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def export_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into ``dest``."""
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "-co", "--exclude-standard"],
        check=True, capture_output=True,
    ).stdout.split(b"\0")
    for name in filter(None, names):
        src, target = ROOT / os.fsdecode(name), dest / os.fsdecode(name)
        if not os.path.lexists(src):  # deleted in the working tree
            continue
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, target, follow_symlinks=False)


def run(tree: Path, args) -> dict:
    """One benchmark run in ``tree``; its final JSON line."""
    argv = [
        sys.executable, "benchmarks/run.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run failed with status {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(results: dict[str, list[dict]], better: dict[str, str]) -> dict:
    metrics = {}
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in results["base"]]
        new = [r["metrics"][name]["value"] for r in results["new"]]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        gap = sign * (statistics.median(new) - statistics.median(base))
        base_spread = spread(base)
        metrics[name] = {
            "better": direction,
            "base": base_spread,
            "new": spread(new),
            "ratio": statistics.median(new) / statistics.median(base),
            "wins": wins,
            "gain_holds": 10 * wins >= 9 * len(base) and gap > base_spread["q3"] - base_spread["q1"],
            "values": {"base": base, "new": new},
        }
    return metrics


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds like any exception: subprocess.run kills the running
    # child and the temporary directory is deleted on the way out
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {"base": [], "new": []}
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "new": Path(tmp) / "new"}
        trees["base"].mkdir()
        sha = export(args.base, trees["base"])
        export_worktree(trees["new"])
        for pair in range(args.pairs):
            order = ("base", "new") if pair % 2 == 0 else ("new", "base")
            for side in order:
                results[side].append(run(trees[side], args))
            readings = {
                side: results[side][-1]["metrics"]["scaled_items_per_s"]["value"] for side in order
            }
            print(f"pair {pair + 1}/{args.pairs} {readings}", file=sys.stderr, flush=True)
    out = {
        "base": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "metrics": summary(results, better),
        "failed": {side: [r["failed"] for r in rs] for side, rs in results.items()},
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in results.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
