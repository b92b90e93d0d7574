"""tools/bench_file.py: the BENCH file it assembles from canned runs."""

import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import ab_pairs  # noqa: E402
import bench_file  # noqa: E402

BETTER = {"setup_s": "lower", "scaled_items_per_s": "higher"}
UNITS = {"setup_s": "s", "scaled_items_per_s": "items/s"}


def _result(setup_s, rate, failed=0, attempted=4):
    """A run's final JSON line, as benchmarks/run.py prints it."""
    values = {"setup_s": setup_s, "scaled_items_per_s": rate}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()},
    }


def test_each_workload_holds_every_run_and_the_medians():
    results = {
        "desk": [_result(0.5, 100.0), _result(0.7, 140.0, failed=1), _result(0.6, 90.0)],
        "paper": [_result(2.0, 1.5, attempted=2)],
    }
    env = {"git_rev": "0" * 40, "seeds": [1, 2, 3]}
    got = bench_file.assemble(results, BETTER, env)
    assert list(got) == ["git_rev", "seeds", "workloads"]
    assert got["git_rev"] == "0" * 40 and got["seeds"] == [1, 2, 3]
    desk = got["workloads"]["desk"]
    assert desk["metrics"] == {
        "setup_s": {"unit": "s", "better": "lower", "median": 0.6, "values": [0.5, 0.7, 0.6]},
        "scaled_items_per_s": {
            "unit": "items/s", "better": "higher", "median": 100.0, "values": [100.0, 140.0, 90.0],
        },
    }
    assert desk["failed"] == [0, 1, 0] and desk["attempted"] == [4, 4, 4]
    paper = got["workloads"]["paper"]
    assert paper["metrics"]["setup_s"]["median"] == 2.0
    assert paper["failed"] == [0] and paper["attempted"] == [2]


def test_main_runs_every_workload_at_every_seed_and_writes_the_file(tmp_path, monkeypatch, capsys):
    spec = {
        "workloads": [{"name": "desk"}, {"name": "paper"}],
        "end_to_end": [{"name": n, "better": b} for n, b in BETTER.items()],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    record = {"python": "3.x", "numpy": "2.x", "thread_env": {"OMP_NUM_THREADS": "1"}, "source_sha256": "ab"}
    calls = []

    def run(tree, args):
        calls.append((tree, args.workload, args.seed, args.seconds))
        out = tree / ".bench_out" / f"{args.workload}-seed{args.seed}-trace0.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({**record, "seed": args.seed}))
        return _result(0.1 * args.seed, 10.0 * args.seed)

    monkeypatch.setattr(bench_file, "ROOT", tmp_path)
    monkeypatch.setattr(bench_file, "git_rev", lambda: "f" * 40)
    monkeypatch.setattr(ab_pairs, "run", run)
    # the test process keeps its own SIGTERM handling
    monkeypatch.setattr(bench_file.signal, "signal", lambda *args: None)
    assert bench_file.main(["--pr", "7", "--seeds", "3", "1", "--seconds", "2"]) == 0
    assert calls == [
        (tmp_path, "desk", 3, 2.0), (tmp_path, "desk", 1, 2.0),
        (tmp_path, "paper", 3, 2.0), (tmp_path, "paper", 1, 2.0),
    ]
    out = tmp_path / "BENCH_7.json"
    assert capsys.readouterr().out == f"{out}\n"
    got = json.loads(out.read_text())
    assert {k: got[k] for k in ("git_rev", "seeds", "seconds")} == {
        "git_rev": "f" * 40, "seeds": [3, 1], "seconds": 2.0,
    }
    assert {k: got[k] for k in bench_file.RECORD_FIELDS} == record
    assert got["workloads"]["paper"]["metrics"]["scaled_items_per_s"]["values"] == [30.0, 10.0]
