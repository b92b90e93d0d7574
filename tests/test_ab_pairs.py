"""tools/ab_pairs.py: its gain verdict, and its clean-up when it is stopped."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import ab_pairs  # noqa: E402

# exports stubbed out; each benchmark run is a child that records its pid and sleeps
DRIVER = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
import ab_pairs
ab_pairs.export = lambda rev, dest: "0" * 40
ab_pairs.export_worktree = lambda dest: dest.mkdir()
child = "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(60)"

def run(tree, args):
    subprocess.run([sys.executable, "-c", child, sys.argv[2]])
    raise AssertionError("the sleeping run was not stopped")

ab_pairs.run = run
ab_pairs.main(["--workload", "train-desk", "--seed", "1"])
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_removes_the_temporary_trees_and_stops_the_run(tmp_path):
    pidfile = tmp_path / "child.pid"
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.Popen([sys.executable, "-c", DRIVER, str(TOOLS), str(pidfile)], env=env)
    try:
        deadline = time.monotonic() + 30
        while not (pidfile.exists() and pidfile.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        assert [p.name.startswith("ab_pairs-") for p in tmp_path.iterdir() if p.is_dir()] == [True]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert [p.name for p in tmp_path.iterdir()] == ["child.pid"]
    assert not _alive(int(pidfile.read_text()))


def _results(base, new):
    """Runs of one metric, as summary reads them."""
    return {
        side: [{"metrics": {"m": {"value": v}}} for v in values]
        for side, values in (("base", base), ("new", new))
    }


def test_a_gain_holds_on_nine_of_ten_wins_and_a_gap_past_the_base_spread():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]
    new = [110.0] * 9 + [98.0]
    got = ab_pairs.summary(_results(base, new), {"m": "higher"})["m"]
    assert got["wins"] == 9 and got["gain_holds"] is True
    # the same runs fall short in the other direction
    assert ab_pairs.summary(_results(base, new), {"m": "lower"})["m"]["gain_holds"] is False


def test_a_gain_does_not_hold_when_the_gap_is_within_the_base_spread():
    # every pair won, but the medians differ by 1 against an interquartile range of 10
    base = [90.0, 95.0, 100.0, 105.0, 110.0, 90.0, 95.0, 100.0, 105.0, 110.0]
    new = [v + 1.0 for v in base]
    got = ab_pairs.summary(_results(base, new), {"m": "higher"})["m"]
    assert got["wins"] == 10 and got["gain_holds"] is False
