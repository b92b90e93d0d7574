"""Text matrix IO, binarization, and minibatch slicing."""

import gzip
import os

import numpy as np
import pytest

from nadek import Rng, binarize_by_sampling, empirical_mean, load_text_matrix
from nadek import data
from nadek.data import DataError, Dataset, atomic_write, minibatches, save_text_matrix
from nadek.numerics import ContractError


def _dataset(samples):
    samples = np.asarray(samples, dtype=np.float64)
    return Dataset(samples=samples, name="t")


class TestLoad:
    def test_binary_matrix(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("0 1\n1 0\n")
        ds = load_text_matrix(p)
        assert ds.D == 2
        assert len(ds) == 2
        assert ds.is_binary
        assert np.array_equal(ds.samples, [[0.0, 1.0], [1.0, 0.0]])

    def test_real_valued_matrix(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("0.5 1\n0.25 0\n")
        ds = load_text_matrix(p)
        assert not ds.is_binary
        assert ds.samples[0, 0] == 0.5

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("0 1\n\n1 0\n\n")
        assert len(load_text_matrix(p)) == 2

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("0 1\n1\n")
        with pytest.raises(DataError, match="line 2"):
            load_text_matrix(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("0 1\n1 x\n")
        with pytest.raises(DataError, match="line 2"):
            load_text_matrix(p)

    def test_out_of_range(self, tmp_path):
        p = tmp_path / "m.amat"
        for text in ("0 1\n1 1.5\n", "0 1\n1 nan\n"):
            p.write_text(text)
            with pytest.raises(DataError, match="line 2"):
                load_text_matrix(p)

    def test_negative_rejected(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("-0.25 1\n")
        with pytest.raises(DataError):
            load_text_matrix(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("")
        with pytest.raises(DataError):
            load_text_matrix(p)

    def test_name_defaults_to_path(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("0 1\n")
        assert load_text_matrix(p).name == str(p)
        assert load_text_matrix(p, name="train").name == "train"

    def test_gzip_transparent(self, tmp_path):
        p = tmp_path / "m.amat.gz"
        with gzip.open(p, "wt") as fh:
            fh.write("1 0 1\n0 1 0\n")
        ds = load_text_matrix(p)
        assert ds.D == 3
        assert np.array_equal(ds.samples, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


class TestSave:
    def test_round_trip_binary(self, tmp_path):
        p = tmp_path / "m.amat"
        mat = np.array([[0.0, 1.0], [1.0, 1.0]])
        save_text_matrix(p, mat)
        assert p.read_text() == "0 1\n1 1\n"
        assert np.array_equal(load_text_matrix(p).samples, mat)

    def test_round_trip_real_exact(self, tmp_path):
        # repr round trip keeps float64 values bit-exact
        p = tmp_path / "m.amat"
        mat = np.array([[1.0 / 3.0, 0.1], [0.7, 2.0 ** -40]])
        save_text_matrix(p, mat)
        back = load_text_matrix(p).samples
        assert np.array_equal(back, mat)

    def test_round_trip_gzip(self, tmp_path):
        p = tmp_path / "m.amat.gz"
        mat = np.array([[1.0, 0.0, 1.0]])
        save_text_matrix(p, mat)
        assert np.array_equal(load_text_matrix(p).samples, mat)

    def test_non_matrix_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            save_text_matrix(tmp_path / "m.amat", np.zeros(3))


class TestAtomicWrite:
    def test_replaces_target(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old\n")
        with atomic_write(p) as fh:
            fh.write("new\n")
        assert p.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_symlink_target_is_written_through(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        with atomic_write(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert real.read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]

    @pytest.mark.parametrize("binary", [False, True])
    def test_failure_keeps_previous_bytes(self, tmp_path, binary):
        p = tmp_path / "out.bin"
        p.write_bytes(b"previous contents\n")
        with pytest.raises(RuntimeError):
            with atomic_write(p, binary=binary) as fh:
                fh.write(b"partial" if binary else "partial")
                fh.flush()
                raise RuntimeError("interrupted")
        assert p.read_bytes() == b"previous contents\n"
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("name", ["m.amat", "m.amat.gz"])
    def test_matrix_write_failing_mid_row_keeps_previous_file(self, tmp_path, monkeypatch, name):
        p = tmp_path / name
        save_text_matrix(p, np.array([[0.0, 1.0], [1.0, 1.0]]))
        before = p.read_bytes()
        calls = []

        def failing(v):
            calls.append(v)
            if len(calls) == 5:
                raise RuntimeError("interrupted")
            return "0"

        monkeypatch.setattr(data, "_fmt_value", failing)
        with pytest.raises(RuntimeError):
            save_text_matrix(p, np.zeros((3, 2)))
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == [name]


class TestBinarize:
    def test_extremes_pass_through(self):
        ds = _dataset([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        out = binarize_by_sampling(ds, Rng(1).stream("bin"))
        assert np.array_equal(out.samples, ds.samples)
        assert out.is_binary
        assert out.name == "t:binarized"

    def test_deterministic(self):
        ds = _dataset(np.full((4, 5), 0.3))
        a = binarize_by_sampling(ds, Rng(2).stream("bin"))
        b = binarize_by_sampling(ds, Rng(2).stream("bin"))
        assert np.array_equal(a.samples, b.samples)
        assert np.all((a.samples == 0.0) | (a.samples == 1.0))

    def test_threshold_statistics(self):
        # p=0.3 per entry; over 1e6 entries the empirical rate sits well
        # inside 3 sigma (~0.0014)
        ds = _dataset(np.full((1, 1000000), 0.3))
        out = binarize_by_sampling(ds, Rng(3).stream("bin"))
        assert abs(float(out.samples.mean()) - 0.3) < 0.002


class TestMean:
    def test_known_values(self):
        ds = _dataset([[0.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(empirical_mean(ds), [0.5, 1.0])

    def test_empty_rejected(self):
        ds = Dataset(samples=np.zeros((0, 3)), name="t")
        with pytest.raises(ContractError):
            empirical_mean(ds)


class TestMinibatches:
    def test_block_sizes(self):
        blocks = minibatches(10, 3, rng=Rng(4).stream("mb"))
        assert [len(b) for b in blocks] == [3, 3, 3, 1]

    def test_seeded_identical(self):
        a = np.concatenate(minibatches(6, 2, rng=Rng(5).stream("mb")))
        b = np.concatenate(minibatches(6, 2, rng=Rng(5).stream("mb")))
        assert np.array_equal(a, b)

    def test_shuffle_is_permutation(self):
        out = np.concatenate(minibatches(7, 3, rng=Rng(6).stream("mb")))
        assert sorted(out.tolist()) == list(range(7))

    def test_shuffle_requires_rng(self):
        # the generator is a required argument: there is no unshuffled form
        with pytest.raises(TypeError):
            minibatches(3, 2)

    def test_bad_size(self):
        with pytest.raises(ContractError):
            minibatches(3, 0, Rng(7).stream("mb"))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            minibatches(0, 2, Rng(7).stream("mb"))


class TestDataset:
    def test_samples_read_only(self):
        ds = _dataset(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ds.samples[0, 0] = 1.0
