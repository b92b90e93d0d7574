"""End-to-end command line coverage through main(argv)."""

import hashlib
import json
import re

import numpy as np
import pytest
from conftest import random_model

from nadek import Rng, StructureConfig, init_params, load_checkpoint, save_checkpoint
from nadek.checkpoint import encode_mean
from nadek.cli import main
from nadek.model import ModelParams, expected_shapes


def _write_data(path, rows):
    rows = np.asarray(rows, dtype=np.float64)
    path.write_text("".join(" ".join(str(int(v)) for v in r) + "\n" for r in rows))
    return path


def _toy_rows(count, seed=0):
    rng = Rng(seed).stream("toy")
    base = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=np.float64)
    out = np.empty((count, 6))
    for i in range(count):
        out[i] = base[rng.next_below(2)]
        j = rng.next_below(6)
        if rng.next_float() < 0.1:
            out[i, j] = 1.0 - out[i, j]
    return out

def _checkpoint(tmp_path, name="model.ckpt", mean=None, zero=False, **kwargs):
    params, cfg = random_model(**kwargs)
    if zero:
        params = ModelParams(
            **{n: np.zeros(s) for n, s in expected_shapes(cfg).items()}
        )
    if mean is None:
        mean = np.full(cfg.D, 0.5)
    p = tmp_path / name
    save_checkpoint(p, params, cfg, {"mean": encode_mean(mean)})
    return p, params, cfg


class TestTrain:
    def test_end_to_end(self, tmp_path, capsys):
        data = _write_data(tmp_path / "train.amat", _toy_rows(40, seed=1))
        valid = _write_data(tmp_path / "valid.amat", _toy_rows(12, seed=2))
        out = tmp_path / "m.ckpt"
        rc = main(
            [
                "train", "--data", str(data), "--valid", str(valid),
                "--out", str(out), "--hidden1", "8", "--k", "2",
                "--epochs", "4", "--batch", "8", "--seed", "3",
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert f"checkpoint {out}" in stdout
        history = re.findall(
            r"epoch (\d+) phase (\w+) train (-?[\d.]+) valid (-?[\d.]+)", stdout
        )
        assert [int(h[0]) for h in history] == [1, 2, 3, 4]
        assert all(h[1] == "finetune" for h in history)

        params, cfg, meta = load_checkpoint(out)
        assert cfg == StructureConfig(D=6, hidden1=8, k=2)
        assert meta["epochs"] == "4"
        assert meta["seed"] == "3"
        # history rounds to 6 places; metadata keeps full precision
        assert abs(float(meta["best_valid"]) - min(float(h[3]) for h in history)) < 1e-6

        log_lines = (tmp_path / "m.ckpt.history.log").read_text().splitlines()
        assert len(log_lines) == 4

        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["flags"]["hidden1"] == 8
        for path, digest in manifest["inputs"].items():
            assert digest == hashlib.sha256(open(path, "rb").read()).hexdigest()

    def test_zero_epochs_keeps_init(self, tmp_path, capsys):
        data = _write_data(tmp_path / "train.amat", _toy_rows(10))
        valid = _write_data(tmp_path / "valid.amat", _toy_rows(4))
        out = tmp_path / "m.ckpt"
        rc = main(
            [
                "train", "--data", str(data), "--valid", str(valid),
                "--out", str(out), "--hidden1", "5", "--epochs", "0",
                "--seed", "11",
            ]
        )
        assert rc == 0
        params, cfg, meta = load_checkpoint(out)
        fresh = init_params(cfg, Rng(11).stream("init"))
        for name, tensor in fresh.tensors().items():
            assert np.array_equal(params.tensors()[name], tensor)
        assert meta["best_valid"] == "none"

    def test_missing_required_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--valid", "v.amat", "--out", "m", "--hidden1", "4"])
        assert exc.value.code == 2

    def test_mode_conflict(self, tmp_path, capsys):
        data = _write_data(tmp_path / "t.amat", _toy_rows(4))
        rc = main(
            [
                "train", "--data", str(data), "--valid", str(data),
                "--out", str(tmp_path / "m"), "--hidden1", "4",
                "--mode", "finetune-only", "--pretrain-epochs", "2",
            ]
        )
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_width_mismatch(self, tmp_path, capsys):
        data = _write_data(tmp_path / "t.amat", _toy_rows(4))
        valid = _write_data(tmp_path / "v.amat", [[0, 1], [1, 0]])
        rc = main(
            [
                "train", "--data", str(data), "--valid", str(valid),
                "--out", str(tmp_path / "m"), "--hidden1", "4",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_zero_model_known_value(self, tmp_path, capsys):
        # every conditional is exactly one half, so each of the 784 bits
        # contributes log(1/2)
        ckpt, _, _ = _checkpoint(tmp_path, zero=True, D=784, hidden1=1, seed=0)
        rng = Rng(21).stream("rows")
        rows = np.array([[float(rng.next_below(2)) for _ in range(784)] for _ in range(2)])
        data = _write_data(tmp_path / "d.amat", rows)
        report = tmp_path / "report.txt"
        rc = main(
            [
                "eval", "--model", str(ckpt), "--data", str(data),
                "--orderings", "3", "--report", str(report),
            ]
        )
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("per_ordering_mean_log_prob ")
        assert abs(float(line.split()[1]) + 543.427390) < 1e-3
        body = report.read_text().splitlines()
        assert body[0] == "sample\to0\to1\to2"
        assert len(body) == 2 + 1 + 3

    def test_single_ordering_ensemble_equals_mean(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=5, hidden1=4, k=2, seed=22)
        data = _write_data(tmp_path / "d.amat", [[1, 0, 1, 0, 1], [0, 0, 1, 1, 0]])
        rc = main(
            [
                "eval", "--model", str(ckpt), "--data", str(data),
                "--orderings", "1", "--ensemble",
                "--report", str(tmp_path / "r.txt"),
            ]
        )
        assert rc == 0
        out = dict(l.split() for l in capsys.readouterr().out.splitlines())
        assert out["per_ordering_mean_log_prob"] == out["ensemble_mean_log_prob"]

    def test_k_override(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=5, hidden1=4, k=3, seed=23, spread=1.5)
        data = _write_data(tmp_path / "d.amat", [[1, 0, 1, 0, 1]])
        argv = [
            "eval", "--model", str(ckpt), "--data", str(data),
            "--orderings", "2", "--report", str(tmp_path / "r.txt"),
        ]
        main(argv)
        base = capsys.readouterr().out
        main(argv + ["--k-override", "3"])
        same = capsys.readouterr().out
        main(argv + ["--k-override", "1"])
        fewer = capsys.readouterr().out
        assert same == base
        assert fewer != base

    def test_threads_preserve_order(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=5, hidden1=4, k=2, seed=24)
        rows = [[1, 0, 1, 0, 1], [0, 1, 1, 0, 0], [1, 1, 1, 1, 0]]
        data = _write_data(tmp_path / "d.amat", rows)
        r1 = tmp_path / "r1.txt"
        r4 = tmp_path / "r4.txt"
        base = ["eval", "--model", str(ckpt), "--data", str(data), "--orderings", "3"]
        main(base + ["--report", str(r1), "--threads", "1"])
        main(base + ["--report", str(r4), "--threads", "4"])
        assert r1.read_text() == r4.read_text()
        # 250 samples span three draw blocks
        s1 = tmp_path / "s1.amat"
        s4 = tmp_path / "s4.amat"
        base = ["sample", "--model", str(ckpt), "--count", "250", "--seed", "9"]
        assert main(base + ["--out", str(s1), "--threads", "1"]) == 0
        assert main(base + ["--out", str(s4), "--threads", "4"]) == 0
        assert len(s1.read_text().splitlines()) == 250
        assert s1.read_bytes() == s4.read_bytes()

    def test_dims_mismatch(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=5, hidden1=4, seed=25)
        data = _write_data(tmp_path / "d.amat", [[1, 0, 1]])
        rc = main(
            [
                "eval", "--model", str(ckpt), "--data", str(data),
                "--report", str(tmp_path / "r.txt"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--count", "3", "--out", "s.amat", "--threads", "0"],
        ["stats", "--data", "d.amat", "--orderings", "0"],
        ["eval", "--data", "d.amat", "--k-override", "0"],
    ],
)
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    ckpt, _, _ = _checkpoint(tmp_path, D=5, hidden1=4, seed=38)
    _write_data(tmp_path / "d.amat", [[1, 0, 1, 0, 1]])
    argv = [str(tmp_path / a) if a.endswith("amat") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--model", str(ckpt)] + argv[1:])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


class TestSample:
    def test_count_zero(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=4, hidden1=3, seed=26)
        out = tmp_path / "s.amat"
        rc = main(["sample", "--model", str(ckpt), "--count", "0", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""

    def test_deterministic_binary_output(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=4, hidden1=3, k=2, seed=27)
        a = tmp_path / "a.amat"
        b = tmp_path / "b.amat"
        for out in (a, b):
            rc = main(
                [
                    "sample", "--model", str(ckpt), "--count", "8",
                    "--out", str(out), "--seed", "5",
                ]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        rows = [l.split() for l in a.read_text().splitlines()]
        assert len(rows) == 8
        assert set(v for r in rows for v in r) <= {"0", "1"}

    def test_pgm_output(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=6, hidden1=3, seed=28)
        img = tmp_path / "s.pgm"
        rc = main(
            [
                "sample", "--model", str(ckpt), "--count", "8",
                "--out", str(tmp_path / "s.amat"), "--pgm", str(img),
                "--grid", "2x4", "--img-w", "3", "--img-h", "2",
            ]
        )
        assert rc == 0
        raw = img.read_bytes()
        assert raw.startswith(b"P5\n12 4\n255\n")
        pixels = raw.split(b"255\n", 1)[1]
        assert len(pixels) == 12 * 4
        assert set(pixels) <= {0, 255}

    @pytest.mark.parametrize(
        "extra",
        [
            ["--pgm", "x.pgm"],
            ["--pgm", "x.pgm", "--grid", "2x4", "--img-w", "2", "--img-h", "2"],
            ["--pgm", "x.pgm", "--grid", "1x2", "--img-w", "3", "--img-h", "2"],
        ],
    )
    def test_pgm_usage_errors(self, tmp_path, capsys, extra):
        ckpt, _, _ = _checkpoint(tmp_path, D=6, hidden1=3, seed=29)
        rc = main(
            [
                "sample", "--model", str(ckpt), "--count", "8",
                "--out", str(tmp_path / "s.amat"),
            ]
            + extra
        )
        assert rc == 2
        assert "usage error" in capsys.readouterr().err


class TestInpaint:
    def test_observed_kept(self, tmp_path, capsys):
        ckpt, _, cfg = _checkpoint(tmp_path, D=6, hidden1=4, k=2, seed=30)
        rows = _toy_rows(5, seed=6)
        data = _write_data(tmp_path / "d.amat", rows)
        obs = tmp_path / "obs.txt"
        obs.write_text("0 3\n")
        out = tmp_path / "filled.amat"
        rc = main(
            [
                "inpaint", "--model", str(ckpt), "--data", str(data),
                "--obs-file", str(obs), "--out", str(out),
            ]
        )
        assert rc == 0
        filled = np.array(
            [[float(v) for v in l.split()] for l in out.read_text().splitlines()]
        )
        assert filled.shape == rows.shape
        assert np.array_equal(filled[:, [0, 3]], rows[:, [0, 3]])
        assert np.all((filled == 0.0) | (filled == 1.0))

    def test_all_observed_verbatim(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=6, hidden1=4, seed=31)
        rows = _toy_rows(3, seed=7)
        data = _write_data(tmp_path / "d.amat", rows)
        obs = tmp_path / "obs.txt"
        obs.write_text("0 1 2 3 4 5\n")
        out = tmp_path / "filled.amat"
        rc = main(
            [
                "inpaint", "--model", str(ckpt), "--data", str(data),
                "--obs-file", str(obs), "--out", str(out),
            ]
        )
        assert rc == 0
        filled = np.array(
            [[float(v) for v in l.split()] for l in out.read_text().splitlines()]
        )
        assert np.array_equal(filled, rows)

    def test_trace_blocks(self, tmp_path, capsys):
        ckpt, _, cfg = _checkpoint(tmp_path, D=6, hidden1=4, k=3, seed=32)
        data = _write_data(tmp_path / "d.amat", _toy_rows(2, seed=8))
        obs = tmp_path / "obs.txt"
        obs.write_text("1 4\n")
        out = tmp_path / "filled.amat"
        rc = main(
            [
                "inpaint", "--model", str(ckpt), "--data", str(data),
                "--obs-file", str(obs), "--out", str(out), "--trace",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "filled.amat.trace").read_text().splitlines()
        assert lines[0] == "# sample 0"
        headers = [l for l in lines if l.startswith("#")]
        values = [l for l in lines if not l.startswith("#")]
        assert headers == ["# sample 0", "# sample 1"]
        assert len(values) == 2 * (cfg.k + 1)
        assert all(len(l.split()) == 6 for l in values)

    def test_bad_obs_indices(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=6, hidden1=4, seed=33)
        data = _write_data(tmp_path / "d.amat", _toy_rows(2))
        obs = tmp_path / "obs.txt"
        obs.write_text("0 9\n")
        rc = main(
            [
                "inpaint", "--model", str(ckpt), "--data", str(data),
                "--obs-file", str(obs), "--out", str(tmp_path / "o.amat"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_report_and_stdout(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=5, hidden1=4, k=2, seed=34)
        data = _write_data(tmp_path / "d.amat", [[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]])
        out = tmp_path / "stats.txt"
        rc = main(
            [
                "stats", "--model", str(ckpt), "--data", str(data),
                "--orderings", "4", "--out", str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0].startswith("mean ")
        assert stdout[1].startswith("sd_over_orderings ")
        assert stdout[2].startswith("sd_over_samples ")
        body = out.read_text().splitlines()
        assert body[0] == "sample\to0\to1\to2\to3"
        assert body[-1].startswith("# sd_over_samples ")


class TestEnumcheck:
    def test_small_model_normalizes(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, D=6, hidden1=4, k=2, seed=35, spread=1.5)
        rc = main(["enumcheck", "--model", str(ckpt)])
        assert rc == 0
        assert "normalization_residual" in capsys.readouterr().out

    def test_refuses_wide_model(self, tmp_path, capsys):
        ckpt, _, _ = _checkpoint(tmp_path, zero=True, D=21, hidden1=1, seed=0)
        rc = main(["enumcheck", "--model", str(ckpt)])
        assert rc == 1
        assert "refused" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = main(["enumcheck", "--model", str(tmp_path / "nope.ckpt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestModelLoading:
    def test_checkpoint_without_mean(self, tmp_path, capsys):
        params, cfg = random_model(D=4, hidden1=3, seed=36)
        p = tmp_path / "bare.ckpt"
        save_checkpoint(p, params, cfg, {"epochs": "1"})
        data = _write_data(tmp_path / "d.amat", [[1, 0, 1, 0]])
        rc = main(
            [
                "eval", "--model", str(p), "--data", str(data),
                "--report", str(tmp_path / "r.txt"),
            ]
        )
        assert rc == 1
        assert "mean" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_stored_mean_outside_unit_interval(self, tmp_path, capsys, command):
        # a NaN or out-of-range mean would score as nan or draw all-zero rows
        ckpt, _, _ = _checkpoint(
            tmp_path, mean=np.array([np.nan, 0.5, 1.5]), D=3, hidden1=2, seed=39
        )
        data = _write_data(tmp_path / "d.amat", [[1, 0, 1]])
        argv = {
            "eval": ["--data", str(data), "--report", str(tmp_path / "r.txt")],
            "sample": ["--count", "2", "--out", str(tmp_path / "s.amat")],
        }[command]
        rc = main([command, "--model", str(ckpt)] + argv)
        assert rc == 1
        assert "mean" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists() and not (tmp_path / "s.amat").exists()
