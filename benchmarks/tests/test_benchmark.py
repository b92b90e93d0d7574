"""Tests of the benchmark itself: tracer, inputs, failure counting, metric names.

Run with ``python3 -m pytest benchmarks/tests`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
import reference
import tracer as tracer_mod
import workloads
from nadek import cli, evaluation, model, numerics, training

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_SCORE = workloads.Workload(
    name="tiny-score", kind="score", D=8, hidden1=6, k=2, rows=3, orderings=2
)
TINY_SAMPLE = workloads.Workload(
    name="tiny-sample", kind="sample", D=8, hidden1=6, k=2, rows=2, count=2
)


def _package_sites():
    """(module, attribute, object) for every package-module attribute that is traceable."""
    targets = {id(raw): raw for owner, _, raw in tracer_mod.discover().values()}
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "nadek" or name.startswith("nadek.")):
            for attr, obj in vars(mod).items():
                if id(obj) in targets and targets[id(obj)] is obj:
                    sites.append((mod, attr, obj))
    return sites


def test_tracer_patches_and_restores_every_binding_site():
    sites = _package_sites()
    copies = {m.__name__ for m, attr, obj in sites if obj is model.forward}
    assert {"nadek", "nadek.model", "nadek.training", "nadek.evaluation", "nadek.sampling", "nadek.cli"} <= copies
    stream = vars(numerics.Rng)["stream"]
    zeros_like = vars(training.Gradients)["zeros_like"]

    t = tracer_mod.Tracer()
    with t:
        for mod, attr, obj in sites:
            patched = getattr(mod, attr)
            assert patched is not obj and patched.__wrapped__ is obj, f"{mod.__name__}.{attr}"
        assert vars(numerics.Rng)["stream"].__wrapped__ is stream
        assert isinstance(vars(training.Gradients)["zeros_like"], classmethod)
        grads = training.Gradients.zeros_like(model.init_params(model.StructureConfig(D=2, hidden1=2), numerics.Rng(0)))
        assert grads.W.shape == (2, 2)

    for mod, attr, obj in sites:
        assert getattr(mod, attr) is obj, f"{mod.__name__}.{attr} not restored"
    assert vars(numerics.Rng)["stream"] is stream
    assert vars(training.Gradients)["zeros_like"] is zeros_like
    agg = t.aggregates()
    assert agg[("training.Gradients.zeros_like", tracer_mod.ROOT)][0] == 1


def test_per_draw_rng_methods_stay_unwrapped():
    originals = {m: vars(numerics.Rng)[m] for m in ("next_uint64", "next_float", "next_below", "uniform", "bernoulli")}
    with tracer_mod.Tracer():
        for name, fn in originals.items():
            assert vars(numerics.Rng)[name] is fn, name
        for name in harness.RNG_METHODS:
            assert hasattr(vars(numerics.Rng)[name], "__wrapped__"), name


def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(tmp_path):
    for workload in workloads.WORKLOADS.values():
        runs = {}
        for label, seed in (("a", 7), ("b", 7), ("c", 8)):
            d = tmp_path / workload.name / label
            workloads.prepare(workload, seed, str(d))
            runs[label] = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        assert runs["a"] == runs["b"], workload.name
        assert runs["a"] != runs["c"], workload.name


def test_nonzero_exit_counts_as_failed(tmp_path):
    (cmd,) = workloads.commands(TINY_SCORE, 1, str(tmp_path / "missing"))
    rounds, ops = harness.measure(cli, [cmd], 0.0, lambda: 1.0)
    assert len(ops) == 1 and ops[0]["problems"] == ["eval: exit status 1"]


def test_corrupted_outputs_count_as_failed(tmp_path):
    workloads.prepare(TINY_SAMPLE, 2, str(tmp_path))
    sample_cmd, inpaint_cmd = workloads.commands(TINY_SAMPLE, 2, str(tmp_path))
    calls = []

    def corrupting_check(stdout):
        calls.append(stdout)
        if len(calls) == 2:  # second round: damage the file after the command wrote it
            with open(sample_cmd.outputs[0], "a") as fh:
                fh.write("\n")
        return sample_cmd.check(stdout)

    cmd = workloads.Command(sample_cmd.kind, sample_cmd.argv, sample_cmd.items, sample_cmd.outputs, corrupting_check)
    rounds, ops = harness.measure(cli, [cmd, inpaint_cmd], 0.0, lambda: 1.0, min_rounds=2)
    assert [bool(op["problems"]) for op in ops] == [False, False, True, False]

    p = workloads.paths(str(tmp_path))
    samples = np.loadtxt(p["samples"], ndmin=2)
    samples[0, 0] = 2.0
    np.savetxt(p["samples"], samples, fmt="%g")
    assert checks.check_samples("", p["samples"], samples.shape)

    filled = np.loadtxt(p["filled"], ndmin=2)
    filled[0, 0] = 1.0 - filled[0, 0]
    np.savetxt(p["filled"], filled, fmt="%g")
    assert checks.check_inpaint("", p["filled"], p["rows"], TINY_SAMPLE.D // 2)

    report = tmp_path / "report.txt"
    report.write_text("sample\to0\to1\n0\t-1.0\tnan\n")
    assert checks.check_eval("per_ordering_mean_log_prob -1.0\nensemble_mean_log_prob -1.0\n", str(report), (1, 2))


def test_rounds_are_scaled_by_the_probes_around_them(tmp_path):
    workloads.prepare(TINY_SCORE, 1, str(tmp_path))
    probes = iter([1.0, 3.0, 2.0])
    rounds, ops = harness.measure(
        cli, workloads.commands(TINY_SCORE, 1, str(tmp_path)), 0.0, lambda: next(probes), min_rounds=2
    )
    assert [r["slowdown"] for r in rounds] == [2.0, 2.5]
    for r in rounds:
        assert r["scaled_s"] == r["seconds"] / r["slowdown"]


def test_earlier_run_with_other_bytes_fails_the_op(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("x\n")
    store = tmp_path / "digests.json"
    op = {"round": 0, "problems": [], "digests": {str(out): checks.sha256(str(out))}}
    harness.check_repeatable([op], store, "src1")
    assert op["problems"] == []
    op["digests"] = {str(out): "0" * 64}
    harness.check_repeatable([op], store, "src1")
    assert op["problems"]
    op["problems"] = []
    harness.check_repeatable([op], store, "src2")  # other sources: no comparison
    assert op["problems"] == []


def test_reference_matches_package_walk():
    gen = np.random.default_rng(0)
    params = workloads.random_model(gen, 8, 6)
    params.b[:] = gen.normal(size=8)
    config = model.StructureConfig(D=8, hidden1=6, k=3)
    mean = gen.random(8)
    x = (gen.random(8) < 0.5).astype(float)
    perm = tuple(gen.permutation(8))
    want = evaluation.log_prob_ordering(params, config, x, evaluation.Ordering(perm=perm), mean)
    got = reference.log_prob_ordering(params.W, params.c, params.V, params.b, mean, 3, x, perm)
    assert abs(got - want) < 1e-12


def test_metric_names_match_benchmark_json(tmp_path):
    assert harness.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert harness.per_layer_units() == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for workload in workloads.WORKLOADS.values():
        cmds = workloads.commands(workload, 0, str(tmp_path))
        metrics = harness.layer_metrics({}, 1, workload, cmds, 0.0)
        assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_its_kind(trace, kind):
    argv = [sys.executable, "benchmarks/run.py", "--workload", "train-desk", "--seed", "0",
            "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}


COUNT_COMPILES = """
import importlib.machinery, sys
sys.path[:0] = ["benchmarks", "src"]
compiled = []
source_to_code = importlib.machinery.SourceFileLoader.source_to_code
def counting(self, data, path, *args, **kwargs):
    compiled.append(path)
    return source_to_code(self, data, path, *args, **kwargs)
importlib.machinery.SourceFileLoader.source_to_code = counting
import harness
for _ in range(2):
    compiled.clear()
    harness.import_package()
    print(sum(1 for path in compiled if "nadek" in path))
"""


@pytest.mark.parametrize("cached", [False, True])
def test_set_up_compiles_the_package_whatever_the_bytecode_cache(tmp_path, cached):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src" / "nadek", tmp_path / "src" / "nadek", ignore=shutil.ignore_patterns("__pycache__"))
    package = tmp_path / "src" / "nadek"
    if cached:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(package)], check=True)
    modules = len(list(package.glob("*.py")))
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_COMPILES], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(modules)] * 2
    assert (package / "__pycache__").exists() == cached
    assert not (tmp_path / harness.WORK_DIR).exists()


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "benchmarks/run.py", "--workload", "train-desk", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
