"""tools/same_bytes.py reports nothing for equal trees and every output a one-ulp change moves."""

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import same_bytes  # noqa: E402


def _desk_suite(seed):
    s = ["--seed", str(seed)]
    return [
        ["train", "--data", "desk.amat", "--valid", "desk-valid.amat", "--out", "desk.ckpt",
         "--hidden1", "8", "--k", "2", "--epochs", "1", *s],
        ["sample", "--model", "desk.ckpt", "--count", "3", "--out", "samples.amat", *s],
    ]


def _tree(dest, patch=None):
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if patch:
        numerics = dest / "src" / "nadek" / "numerics.py"
        text = numerics.read_text()
        assert text.count(patch[0]) == 1
        numerics.write_text(text.replace(*patch))
    return dest


@pytest.fixture
def desk_only(monkeypatch):
    monkeypatch.setattr(same_bytes, "suite", _desk_suite)


def test_equal_trees_report_nothing(tmp_path, desk_only):
    base, same = _tree(tmp_path / "base"), _tree(tmp_path / "same")
    assert same_bytes.compare(base, same, [31], tmp_path) == []


def test_scaled_sigmoid_reports_the_files_it_changes(tmp_path, desk_only):
    # every sigmoid output scaled by (1 + 1e-15), five ulps of a value near 1
    scaled = ("    out /= e\n    return out\n", "    out /= e\n    out *= 1.0 + 1e-15\n    return out\n")
    base, changed = _tree(tmp_path / "base"), _tree(tmp_path / "changed", scaled)
    problems = same_bytes.compare(base, changed, [31], tmp_path)
    assert "seed 31: desk.ckpt differs" in problems
    # the inputs are equal, and every command succeeds on both sides
    assert not [p for p in problems if "status" in p or "desk.amat" in p or "valid" in p]


def test_a_side_importing_another_copy_stops_the_run(tmp_path):
    # a side whose nadek resolves outside its own src (here a link to this
    # checkout's) would run the other side's code: the run stops instead
    elsewhere = tmp_path / "elsewhere"
    (elsewhere / "src").mkdir(parents=True)
    (elsewhere / "src" / "nadek").symlink_to(ROOT / "src" / "nadek")
    with pytest.raises(SystemExit, match="not from its own src"):
        same_bytes.run_side(elsewhere, tmp_path / "run", 31)
