"""Persistence format: byte-exact round trips and corruption diagnostics."""

import os
import threading

import numpy as np
import pytest
from conftest import random_model, traced_peak

from nadek import Rng, StructureConfig, init_params, load_checkpoint, save_checkpoint
from nadek.checkpoint import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    decode_mean,
    encode_mean,
)
from nadek.model import ModelParams, expected_shapes


def _zeros_params(config):
    return ModelParams(
        **{name: np.zeros(shape) for name, shape in expected_shapes(config).items()}
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(D=6, hidden1=4, k=2, seed=10),
            dict(D=5, hidden1=3, k=3, hidden2=4, seed=11),
            dict(D=4, hidden1=2, k=1, activation="sigmoid", seed=12),
        ],
    )
    def test_tensors_exact(self, tmp_path, kwargs):
        params, cfg = random_model(**kwargs)
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, params, cfg, {"epochs": "7"})
        loaded, loaded_cfg, meta = load_checkpoint(p)
        assert loaded_cfg == cfg
        assert meta == {"epochs": "7"}
        for name, tensor in params.tensors().items():
            assert np.array_equal(loaded.tensors()[name], tensor)
            # a writable copy owned by numpy, not a view of the bytes read from the file
            root = loaded.tensors()[name]
            while isinstance(root, np.ndarray) and root.base is not None:
                root = root.base
            assert loaded.tensors()[name].flags.writeable and isinstance(root, np.ndarray)

    def test_resave_identical_bytes(self, tmp_path):
        params, cfg = random_model(D=6, hidden1=4, k=2, hidden2=3, seed=13)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(a, params, cfg, {"seed": "13", "epochs": "0"})
        loaded, loaded_cfg, meta = load_checkpoint(a)
        save_checkpoint(b, loaded, loaded_cfg, meta)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_loads_through_a_pipe(self, tmp_path):
        # a non-seekable path (a pipe, as from `--model <(zcat m.ckpt.gz)`) loads too
        params, cfg = random_model(D=6, hidden1=4, k=2, hidden2=3, seed=14)
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, params, cfg, {"seed": "14"})
        r, w = os.pipe()
        writer = threading.Thread(target=lambda: (os.write(w, p.read_bytes()), os.close(w)))
        writer.start()
        try:
            loaded, _, _ = load_checkpoint(f"/proc/self/fd/{r}")
        finally:
            writer.join()
            os.close(r)
        for name, tensor in params.tensors().items():
            assert np.array_equal(loaded.tensors()[name], tensor)

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        # the payload is read straight into the params' vector: the only
        # other allocation of its size is the finite check's one byte per value
        cfg = StructureConfig(D=300, hidden1=200, k=2)
        params = init_params(cfg, Rng(16).stream("init"))
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, params, cfg, {"seed": "16"})
        (loaded, _, _), peak = traced_peak(load_checkpoint, p)
        assert np.array_equal(loaded.vector, params.vector)
        assert peak < 1.25 * params.vector.nbytes

    def test_payload_size_arithmetic(self, tmp_path):
        # W(500x784)+c(500)+V(784x500)+b(784) = 785284 values, 8 bytes each
        cfg = StructureConfig(D=784, hidden1=500, k=5)
        params = _zeros_params(cfg)
        p = tmp_path / "big.ckpt"
        save_checkpoint(p, params, cfg)
        header = b"NADEK1 n=2 k=5 D=784 h1=500 act=tanh\n"
        payload = 785284 * 8
        assert p.stat().st_size == len(header) + 1 + payload
        assert p.read_bytes().startswith(header)

    def test_empty_metadata_line(self, tmp_path):
        params, cfg = random_model(D=3, hidden1=2, seed=14)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, params, cfg)
        _, _, meta = load_checkpoint(p)
        assert meta == {}


class TestMeanCodec:
    def test_exact_round_trip(self):
        mean = np.array([0.0, 1.0, 1.0 / 3.0, 0.1, 2.0 ** -40])
        assert np.array_equal(decode_mean(encode_mean(mean)), mean)

    def test_no_whitespace(self):
        assert " " not in encode_mean(np.array([0.5, 0.25]))


class TestCorruption:
    def _good(self, tmp_path):
        params, cfg = random_model(D=4, hidden1=3, k=2, seed=15)
        p = tmp_path / "good.ckpt"
        save_checkpoint(p, params, cfg, {"epochs": "3"})
        return p

    def test_bad_magic(self, tmp_path):
        p = self._good(tmp_path)
        raw = p.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XADEK1" + raw[6:])
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(bad)

    def test_truncated_payload(self, tmp_path):
        p = self._good(tmp_path)
        raw = p.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:-5])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(bad)

    def test_missing_metadata_line(self, tmp_path):
        p = self._good(tmp_path)
        header = p.read_bytes().split(b"\n", 1)[0]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(header)
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(bad)

    def test_trailing_bytes(self, tmp_path):
        p = self._good(tmp_path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointShapeError, match="trailing"):
            load_checkpoint(bad)

    def test_non_numeric_header_field(self, tmp_path):
        p = self._good(tmp_path)
        raw = p.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(b"h1=3", b"h1=abc", 1))
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(bad)

    def test_unknown_header_field(self, tmp_path):
        p = self._good(tmp_path)
        raw = p.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(b"act=tanh", b"act=tanh z=1", 1))
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(bad)

    @pytest.mark.parametrize(
        "old, new",
        [(b" h2=3", b""), (b"n=3", b"n=2"), (b"n=3", b"n=4")],
        ids=["n3-without-h2", "n2-with-h2", "n4"],
    )
    def test_header_n_must_match_h2(self, tmp_path, old, new):
        params, cfg = random_model(D=4, hidden1=3, hidden2=3, seed=16)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, params, cfg)
        raw = p.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(old, new, 1))
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(bad)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"k=2", b"k=5 k=2"),
            (b"k=2", b"k=02"),
            (b"k=2 D=4", b"D=4 k=2"),
            (b"k=2 D=4", b"k=2  D=4"),
            (b"k=2 D=4", b"k=2 x D=4"),
            (b"epochs=3", b"epochs=9 epochs=3"),
            (b"epochs=3", b" epochs=3"),
            (b"epochs=3", b"epochs=3 note"),
        ],
        ids=[
            "repeated-field",
            "zero-padded",
            "reordered",
            "doubled-space",
            "header-token-without-equals",
            "repeated-metadata-key",
            "metadata-leading-space",
            "metadata-token-without-equals",
        ],
    )
    def test_non_canonical_lines_refused(self, tmp_path, old, new):
        # each would load and re-save to other bytes; a repeated field would
        # silently take its last value
        raw = self._good(tmp_path).read_bytes()
        assert raw.count(old) == 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(old, new, 1))
        with pytest.raises(CheckpointShapeError, match="canonical"):
            load_checkpoint(bad)

    def test_non_finite_payload(self, tmp_path):
        p = self._good(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[-8:] = np.array([np.nan]).tobytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointShapeError, match="non-finite"):
            load_checkpoint(bad)

    def test_error_classes_distinct(self):
        classes = {CheckpointMagicError, CheckpointShapeError, CheckpointTruncatedError}
        assert len(classes) == 3
        for cls in classes:
            assert issubclass(cls, CheckpointError)
            assert issubclass(cls, ValueError)

    def test_non_finite_tensor_refused_before_writing(self, tmp_path):
        # the loader would reject the file, so it is never written, and an
        # existing file at the path keeps its bytes
        params, cfg = random_model(D=3, hidden1=2, seed=17)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, params, cfg)
        before = p.read_bytes()
        for value in (np.nan, np.inf, -np.inf):
            bad = params.copy()
            bad.V[1, 0] = value
            with pytest.raises(CheckpointShapeError, match="tensor V has non-finite"):
                save_checkpoint(p, bad, cfg)
            assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_unwritable_metadata(self, tmp_path):
        params, cfg = random_model(D=3, hidden1=2, seed=17)
        with pytest.raises(CheckpointShapeError):
            save_checkpoint(tmp_path / "m.ckpt", params, cfg, {"note": "two words"})
        with pytest.raises(CheckpointShapeError):
            save_checkpoint(tmp_path / "m.ckpt", params, cfg, {"a=b": "c"})
