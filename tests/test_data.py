"""Text matrix IO, binarization, the data mean, and minibatch slicing."""

import gzip
import os
import re
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import text_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nadek import Rng, StructureConfig, TrainConfig, binarize_by_sampling, load_text_matrix, train
from nadek import data
from nadek.data import DataError, atomic_write, minibatches, save_text_matrix
from nadek.numerics import ContractError, _is_binary


def _assert_read_only(samples):
    """Writing into ``samples`` raises."""
    assert not samples.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        samples[0, 0] = 1


class TestLoad:
    def test_binary_matrix(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("0 1\n1 0\n")
        ds = load_text_matrix(p)
        assert ds.shape == (2, 2)
        assert _is_binary(ds)
        assert np.array_equal(ds, [[0.0, 1.0], [1.0, 0.0]])

    def test_real_valued_matrix(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("0.5 1\n0.25 0\n")
        ds = load_text_matrix(p)
        assert not _is_binary(ds)
        assert ds[0, 0] == 0.5

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

    def test_gzip_transparent(self, tmp_path):
        p = tmp_path / "m.amat.gz"
        with gzip.open(p, "wt") as fh:
            fh.write("1 0 1\n0 1 0\n")
        ds = load_text_matrix(p)
        assert ds.shape == (2, 3)
        assert np.array_equal(ds, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


VALID_FIELDS = st.one_of(
    st.sampled_from(
        ["0", "1", "00", "01", "001", "0.0", "1.0", "-0", "+1", "1e0", "0_1", ".5", "5E-1", "\u0661"]
    ),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
)
PLAIN_FIELDS = st.sampled_from(["0", "1"])
DIGIT_RUNS = st.sampled_from(["0", "1", "00", "01", "001"])
FAULT_FIELDS = {
    "non-numeric": st.sampled_from(["x", "0x1", "1_", "0..5", "--1", "1,0", "nanx", "1e"]),
    "range": st.sampled_from(
        ["1.5", "-0.25", "nan", "inf", "-inf", "2", "10", "11", "1_0", "-1e-300"]
    ),
}
# form feed and the three after it split fields as str.split does, but only
# spaces, tabs and newlines separate plain 0/1 text
SEPARATORS = [" ", "\t", "  ", " \t", "\x0c", "\xa0", "\x1c", "\u2003"]


def _outcome(load, path):
    """Shape and float64 bytes of the samples, or the DataError message."""
    try:
        samples = load(path)
    except DataError as exc:
        return str(exc)
    return samples.shape, samples.astype(np.float64).tobytes()


def _plain(path):
    """Whether the file's text holds only lone 0/1 digits, spaces, tabs and newlines."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        text = fh.read()
    return set(text) <= set("01 \t\n") and re.search("[01][01]", text) is None


def _same_as_reference(path):
    """The reference's values or message; plain 0/1 text loads as read-only uint8, any other as read-only float64."""
    expected = _outcome(text_reference.load_text_matrix, path)
    assert _outcome(load_text_matrix, path) == expected
    if not isinstance(expected, str):
        samples = load_text_matrix(path)
        assert samples.dtype == (np.uint8 if _plain(path) else np.float64)
        _assert_read_only(samples)
    return expected


def _add_fault(fields, kind, field, at):
    """Apply one fault kind to a row's fields; a blank line holds one blank field."""
    fields = list(fields)
    if kind == "count":
        if len(fields) > 1 and at % 2:
            del fields[at % len(fields)]
        else:
            fields.append("1")
    else:
        fields[at % len(fields)] = field
    return fields


def _write(path, rows, newline="\n", sep=" ", final_newline=True):
    """Write rows of fields as text, gzipped for a .gz path."""
    lines = [sep.join(r) for r in rows]
    text = newline.join(lines) + (newline if final_newline and lines else "")
    raw = text.encode("utf-8")
    path.write_bytes(gzip.compress(raw) if str(path).endswith(".gz") else raw)
    return path


@st.composite
def matrix_files(draw):
    """Rows of fields, blank lines among them, with up to three faults anywhere."""
    width = draw(st.sampled_from([1, 2, 3, 5, 784]))
    # plain 0/1 text, plain text but for runs of digits, or any literal float reads
    field = draw(st.sampled_from([PLAIN_FIELDS, DIGIT_RUNS, VALID_FIELDS]))
    rows = []
    for _ in range(draw(st.integers(0, 3 if width == 784 else 40))):
        if draw(st.integers(0, 4)) == 0:
            rows.append([draw(st.sampled_from(["", " ", "\t", " \t "]))])
        else:
            fields = draw(st.lists(field, min_size=width, max_size=width))
            fields[0] = draw(st.sampled_from(["", " ", "\t"])) + fields[0]
            fields[-1] += draw(st.sampled_from(["", " ", "\t ", "  "]))
            rows.append(fields)
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["non-numeric", "count", "range"]))
            at = draw(st.integers(0, len(rows) - 1))
            bad = draw(FAULT_FIELDS[kind]) if kind in FAULT_FIELDS else None
            rows[at] = _add_fault(rows[at], kind, bad, draw(st.integers(0, 2 * width)))
    return rows


class TestAgainstReference:
    """The chunked loader returns the line-by-line reference's bits or message."""

    @given(
        rows=matrix_files(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        sep=st.sampled_from(SEPARATORS),
        final_newline=st.booleans(),
        gz=st.booleans(),
        chunk=st.one_of(st.integers(1, 200), st.just(data._CHUNK_CHARS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_files(self, tmp_path_factory, rows, newline, sep, final_newline, gz, chunk):
        path = tmp_path_factory.mktemp("gen") / ("m.amat.gz" if gz else "m.amat")
        _write(path, rows, newline, sep, final_newline)
        with mock.patch.object(data, "_CHUNK_CHARS", chunk):
            _same_as_reference(path)

    @pytest.mark.parametrize("where", ["first", "last", "before boundary", "after boundary"])
    @pytest.mark.parametrize(
        "kind, field, reason",
        [
            ("non-numeric", "x", "non-numeric field"),
            ("count", None, "expected 3 fields, got 4"),
            ("range", "nan", "value outside [0, 1]"),
        ],
    )
    def test_fault_position(self, tmp_path, where, kind, field, reason):
        rows = [["0", "1", "0.5"]] * 10
        line = {"first": 1, "last": 10, "before boundary": 5, "after boundary": 6}[where]
        rows[line - 1] = _add_fault(rows[line - 1], kind, field, 0)
        path = _write(tmp_path / "m.amat", rows)
        chunk = 5 * len("0 1 0.5\n") - 1
        with open(path) as fh:
            assert len(fh.readlines(chunk)) == 5  # lines 5 and 6 sit in different chunks
        if kind == "count" and where == "first":
            # the first row sets the width, so the second row is the one that disagrees
            line, reason = 2, "expected 4 fields, got 3"
        with mock.patch.object(data, "_CHUNK_CHARS", chunk):
            assert _same_as_reference(path) == f"{path}: line {line}: {reason}"

    @pytest.mark.parametrize(
        "faults, line, reason",
        [
            # (line, kind, field) in file order; the first failing line wins
            ([(3, "range", "2"), (5, "count", None), (7, "non-numeric", "x")], 3,
             "value outside [0, 1]"),
            ([(4, "non-numeric", "x"), (6, "range", "2")], 4, "non-numeric field"),
            # within one line: non-numeric, then field count, then range
            ([(2, "count", None), (2, "non-numeric", "x")], 2, "non-numeric field"),
            ([(2, "range", "-1"), (2, "count", None)], 2, "expected 3 fields, got 4"),
        ],
    )
    def test_first_failing_line_wins(self, tmp_path, faults, line, reason):
        rows = [["0", "1", "0.5"]] * 8
        for at, kind, field in faults:
            rows[at - 1] = _add_fault(rows[at - 1], kind, field, 0)
        path = _write(tmp_path / "m.amat", rows)
        for chunk in (1, 30, data._CHUNK_CHARS):
            with mock.patch.object(data, "_CHUNK_CHARS", chunk):
                assert _same_as_reference(path) == f"{path}: line {line}: {reason}"

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n\r\n  "])
    def test_no_rows(self, tmp_path, text):
        path = tmp_path / "m.amat"
        path.write_text(text)
        assert _same_as_reference(path) == f"{path}: empty dataset"

    @pytest.mark.parametrize("name", ["m.amat", "m.amat.gz"])
    def test_wide_file_over_several_chunks(self, tmp_path, name):
        rows = np.random.default_rng(7).random((60, 784))
        rows[::2] = rows[::2] < 0.5
        fields = [[data._fmt_value(v) for v in r] for r in rows]
        assert sum(len(" ".join(r)) + 1 for r in fields) > 2 * data._CHUNK_CHARS
        path = _write(tmp_path / name, fields)
        shape, raw = _same_as_reference(path)
        assert shape == rows.shape
        assert raw == rows.tobytes()


class TestPlainBinaryText:
    """Plain 0/1 text is parsed from its bytes into uint8: the float path is never called."""

    ROWS = [["0", "1", "1"], ["\t1", "0", "0 "], [""], ["1", "1", "1\t"], [" \t "], ["0", "0", "1"]]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("name", ["m.amat", "m.amat.gz"])
    @pytest.mark.parametrize("chunk", [1, data._CHUNK_CHARS])
    def test_no_float_parse(self, tmp_path, newline, final_newline, name, chunk):
        samples = np.array([[0, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 1]], dtype=np.float64)
        faulty = self.ROWS[:4] + [["0", "1"]] + self.ROWS[4:]
        path = tmp_path / name
        for rows, outcome in (
            (self.ROWS, (samples.shape, samples.tobytes())),
            (faulty, f"{path}: line 5: expected 3 fields, got 2"),
        ):
            _write(path, rows, newline, final_newline=final_newline)
            with (
                mock.patch.object(data, "_CHUNK_CHARS", chunk),
                mock.patch.object(data, "_float_fields", side_effect=AssertionError("float path")),
            ):
                assert _same_as_reference(path) == outcome


CANONICAL = "0 1 1\n1 0 0\n0 0 1\n"


def _canonical_text(bits):
    return "".join(" ".join(str(v) for v in row) + "\n" for row in bits)


def _no_text_parse():
    """Make both chunk parsers raise, so a load that reaches them fails."""
    stop = AssertionError("parsed as text")
    return mock.patch.multiple(
        data,
        _binary_fields=mock.Mock(side_effect=stop),
        _float_fields=mock.Mock(side_effect=stop),
    )


class TestCanonicalLayout:
    """The 0/1 layout save_text_matrix writes is read from its bytes into uint8."""

    @given(
        D=st.integers(1, 40),
        rows=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.one_of(st.integers(1, 200), st.just(data._CHUNK_CHARS)),
    )
    @example(D=1, rows=1, seed=0, chunk=data._CHUNK_CHARS)
    @example(D=1, rows=30, seed=1, chunk=1)
    @example(D=40, rows=1, seed=2, chunk=1)
    @settings(max_examples=60, deadline=None)
    def test_generated_files(self, tmp_path_factory, D, rows, seed, chunk):
        bits = (np.random.default_rng(seed).random((rows, D)) < 0.4).astype(np.uint8)
        path = tmp_path_factory.mktemp("canonical") / "m.amat"
        path.write_text(_canonical_text(bits))
        want = text_reference.load_text_matrix(path)
        with mock.patch.object(data, "_CHUNK_CHARS", chunk), _no_text_parse():
            got = load_text_matrix(path)
        assert got.dtype == np.uint8 and got.shape == (rows, D)
        _assert_read_only(got)
        assert got.astype(np.float64).tobytes() == want.tobytes()
        assert np.array_equal(got, bits)

    def test_written_matrix_is_read_from_bytes(self, tmp_path):
        bits = np.random.default_rng(3).random((50, 7)) < 0.5
        path = tmp_path / "m.amat"
        save_text_matrix(path, bits.astype(np.float64))
        with _no_text_parse():
            assert np.array_equal(load_text_matrix(path), bits)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("no final newline", CANONICAL[:-1]),
            ("crlf", CANONICAL.replace("\n", "\r\n")),
            ("tab", CANONICAL.replace("1 0 0", "1\t0 0")),
            ("double space", CANONICAL.replace("0 0 1", "0  0 1")),
            ("trailing space", CANONICAL.replace("\n", " \n")),
            ("blank line", CANONICAL.replace("\n", "\n\n", 1)),
            ("a 2", CANONICAL.replace("1 0 0", "1 0 2")),
            ("short row then long row", "0 1 1\n1 0\n1 0 0 1\n"),
            ("touching digits", "0 1 1\n1 00 \n0 0 1\n"),
            ("gz", None),
        ],
    )
    def test_near_canonical_files_take_the_text_path(self, tmp_path, name, text):
        path = tmp_path / ("m.amat.gz" if text is None else "m.amat")
        if text is None:
            path.write_bytes(gzip.compress(CANONICAL.encode()))
        else:
            path.write_bytes(text.encode())
        with mock.patch.object(data, "_parsed_text", wraps=data._parsed_text) as parsed:
            _same_as_reference(path)
        assert parsed.called

    def test_a_pipe_is_read_once(self, tmp_path):
        path = tmp_path / "m.fifo"
        os.mkfifo(path)
        script = (
            "import sys\n"
            "from nadek import load_text_matrix\n"
            "samples = load_text_matrix(sys.argv[1])\n"
            "print(samples.dtype, samples.tolist())\n"
        )
        proc = _python(script, path)
        try:
            path.write_text(CANONICAL)  # waits for the loader to open the pipe
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, err
        assert out == "uint8 [[0, 1, 1], [1, 0, 0], [0, 0, 1]]\n"

    def test_load_rss_is_about_one_byte_per_value(self, tmp_path):
        path = tmp_path / "m.amat"
        bits = np.random.default_rng(5).random((5000, 784)) < 0.3
        save_text_matrix(path, bits.astype(np.uint8))
        script = (
            "import resource, sys\n"
            "from nadek import load_text_matrix\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "samples = load_text_matrix(sys.argv[1])\n"
            "print(peak() - before, samples.dtype, samples.shape)\n"
        )
        proc = _python(script, path)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        rise_kb, dtype, *shape = out.split()
        assert (dtype, " ".join(shape)) == ("uint8", "(5000, 784)")
        # ru_maxrss counts kilobytes; the matrix alone is 3.9 MB
        assert int(rise_kb) <= 10 * 1024


def _python(script, *args):
    """A fresh interpreter running ``script`` on the package under test."""
    src = os.path.dirname(os.path.dirname(data.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = [sys.executable, "-c", script, *map(str, args)]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


class TestUnreadable:
    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "m.amat.gz"
        whole = gzip.compress(b"0 1 1 0\n" * 4000)
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(DataError, match=f"^{path}: corrupt or truncated gzip data"):
            load_text_matrix(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "m.amat"
        path.write_bytes(b"0 1\n1 \xe9\n")
        with pytest.raises(DataError, match=f"^{path}: not utf-8 text"):
            load_text_matrix(path)


class TestSave:
    def test_round_trip_binary(self, tmp_path):
        p = tmp_path / "m.amat"
        mat = np.array([[0.0, 1.0], [1.0, 1.0]])
        save_text_matrix(p, mat)
        assert p.read_text() == "0 1\n1 1\n"
        assert np.array_equal(load_text_matrix(p), mat)

    def test_round_trip_real_exact(self, tmp_path):
        # repr round trip keeps float64 values bit-exact
        p = tmp_path / "m.amat"
        mat = np.array([[1.0 / 3.0, 0.1], [0.7, 2.0 ** -40]])
        save_text_matrix(p, mat)
        back = load_text_matrix(p)
        assert np.array_equal(back, mat)

    def test_round_trip_gzip(self, tmp_path):
        p = tmp_path / "m.amat.gz"
        mat = np.array([[1.0, 0.0, 1.0]])
        save_text_matrix(p, mat)
        assert np.array_equal(load_text_matrix(p), mat)

    @pytest.mark.parametrize(
        "samples",
        [
            [[0.0, -0.0, 1.0], [1.0, 1.0, -0.0]],
            [[0.0, 0.5, 1.0], [-0.0, 1.0 / 3.0, 2.0 ** -40]],
            [[1.0, 0.0, 1.0, 1.0]],
            [[0.0], [1.0], [-0.0]],
            [[0.25], [1.0]],
            np.zeros((0, 3)),
            np.zeros((2, 0)),
        ],
    )
    @pytest.mark.parametrize("name", ["m.amat", "m.amat.gz"])
    def test_bytes_equal_value_by_value_writer(self, tmp_path, samples, name):
        samples = np.asarray(samples, dtype=np.float64)
        (tmp_path / "ref").mkdir()
        save_text_matrix(tmp_path / name, samples)
        text_reference.save_text_matrix(tmp_path / "ref" / name, samples)
        assert (tmp_path / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_non_matrix_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            save_text_matrix(tmp_path / "m.amat", np.zeros(3))

    @pytest.mark.parametrize("samples", [np.eye(3), np.full((2, 2), 0.5)])
    def test_gzip_bytes_do_not_depend_on_time(self, tmp_path, monkeypatch, samples):
        saved = []
        for i, now in enumerate((1_000_000_000.0, 1_700_000_001.1)):
            monkeypatch.setattr(gzip, "time", SimpleNamespace(time=lambda now=now: now))
            (tmp_path / str(i)).mkdir()
            save_text_matrix(tmp_path / str(i) / "m.amat.gz", samples)
            saved.append((tmp_path / str(i) / "m.amat.gz").read_bytes())
        assert saved[0] == saved[1]

    def test_bytes_write_as_their_float_values(self, tmp_path):
        bits = np.random.default_rng(4).random((20, 9)) < 0.5
        for dtype in (np.uint8, np.float64):
            save_text_matrix(tmp_path / f"{np.dtype(dtype).name}.amat", bits.astype(dtype))
        assert (tmp_path / "uint8.amat").read_bytes() == (tmp_path / "float64.amat").read_bytes()


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
            # not 0/1, so written value by value
            save_text_matrix(p, np.full((3, 2), 0.5))
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == [name]


class TestBinarize:
    def test_extremes_pass_through(self):
        samples = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        out = binarize_by_sampling(samples, Rng(1).stream("bin"))
        assert out.dtype == np.float64
        assert np.array_equal(out, samples)
        assert _is_binary(out)
        _assert_read_only(out)

    def test_deterministic(self):
        samples = np.full((4, 5), 0.3)
        a = binarize_by_sampling(samples, Rng(2).stream("bin"))
        b = binarize_by_sampling(samples, Rng(2).stream("bin"))
        assert np.array_equal(a, b)
        # the values this seed has always given
        want = [[1, 0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 1, 1, 0, 0], [1, 0, 1, 0, 0]]
        assert a.dtype == np.float64
        assert np.array_equal(a, want)
        _assert_read_only(a)

    def test_threshold_statistics(self):
        # p=0.3 per entry; over 1e6 entries the empirical rate sits well
        # inside 3 sigma (~0.0014)
        out = binarize_by_sampling(np.full((1, 1000000), 0.3), Rng(3).stream("bin"))
        assert abs(float(out.mean()) - 0.3) < 0.002


def _mean(samples, valid=None):
    """The training mean a run with no epochs stores for ``samples``."""
    structure = StructureConfig(D=samples.shape[1], hidden1=1, k=1)
    valid = samples[:1] if valid is None else valid
    return train(structure, samples, valid, TrainConfig(finetune_epochs=0)).mean


class TestMean:
    """The mean :func:`train` returns, which the CLI stores in a checkpoint."""

    def test_known_values(self):
        assert np.array_equal(_mean(np.array([[0.0, 1.0], [1.0, 1.0]])), [0.5, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            _mean(np.zeros((0, 3)), valid=np.zeros((1, 3)))

    @pytest.mark.parametrize("rows", [1, 7, 5000, 50000])
    def test_bytes_give_the_float64_bits(self, rows):
        bits = np.random.default_rng(rows).integers(0, 2, size=(rows, 784), dtype=np.uint8)
        got = _mean(bits)
        # each column's mean is its own reduction, so the float64 matrix is
        # widened a slice of columns at a time
        want = np.concatenate([
            _mean(bits[:, lo : lo + 98].astype(np.float64)) for lo in range(0, 784, 98)
        ])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got.view(np.int64), (bits.sum(axis=0) / rows).view(np.int64))


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
    """A dataset is its matrix: read-only, uint8 for plain 0/1 text."""

    def test_samples_read_only(self, tmp_path):
        p = tmp_path / "m.amat"
        p.write_text("0 1\n1 0.5\n")
        _assert_read_only(load_text_matrix(p))
        _assert_read_only(binarize_by_sampling(load_text_matrix(p), Rng(4).stream("bin")))

    def test_is_binary_on_bytes(self):
        assert _is_binary(np.eye(3, dtype=np.uint8))
        assert not _is_binary(np.full((2, 2), 2, np.uint8))
        assert _is_binary(np.zeros((0, 2), np.uint8))
