"""The compiled row parse of a data table against the Python parser.

Plain rows (numbers as ``repr`` writes them, the table's delimiter, the
header's width) are parsed chunk by chunk by ``parse_rows`` in
``_sweep.c``, each by ``parse_row``; from the first row that is not
plain, ``io._parse_rows`` reads on.  Both must give the same doubles, and
every other input the same table or the same error, wherever the chunks
end.
"""
import io
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivas import _sweep
from bivas import io as bio
from bivas.exceptions import DimensionMismatch, NaNPresent, NonNumeric

from conftest import HAVE_COMPILER

needs_kernel = pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")


def parse_row(text, width, delimiter=","):
    """The kernel's row parse of ``text``: the values, or None when the row
    is not plain."""
    raw = text.encode()
    out = np.empty(width)
    status = _sweep.kernel().parse_row(raw, len(raw), ord(delimiter), width,
                                       out.ctypes.data)
    return out if status == 0 else None


def bits(values):
    return [struct.pack("<d", float(v)) for v in values]


# every double, with subnormals, -0.0, integers and exponents near +-308
doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-5e-308, max_value=5e-308, allow_nan=False),
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.tuples(st.floats(1.0, 10.0, exclude_max=True), st.integers(-324, 308),
              st.booleans()).map(lambda t: (-1 if t[2] else 1)
                                 * float(f"{t[0]!r}e{t[1]}")),
).filter(np.isfinite)


@needs_kernel
class TestParseRow:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(values=st.lists(doubles, min_size=1, max_size=8),
           delimiter=st.sampled_from([",", "\t"]),
           ending=st.sampled_from(["", "\n", "\r\n"]))
    def test_repr_cells_equal_float(self, values, delimiter, ending):
        cells = [repr(v) for v in values]
        got = parse_row(delimiter.join(cells) + ending, len(cells), delimiter)
        assert got is not None
        assert bits(got) == bits(map(float, cells))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(cell=st.from_regex(r"[-+]?[0-9]{1,30}(\.[0-9]{1,30})?"
                              r"([eE][-+]?[0-9]{1,4})?", fullmatch=True))
    def test_long_cells_round_as_float(self, cell):
        # more digits than a double holds, and exponents past its range:
        # the same double as float(), or a refusal when that is not finite
        got = parse_row(cell, 1)
        want = float(cell)
        if np.isfinite(want):
            assert got is not None and bits(got) == bits([want])
        else:
            assert got is None

    @pytest.mark.parametrize("row", [
        '"1.0",2.0', " 1.0,2.0", "1.0 ,2.0", "1.0,2.0 ", "nan,2.0",
        "inf,2.0", "-inf,2.0", "1e999,2.0", "1_000,2.0", "0x1p3,2.0",
        "1.,2.0", ".5,2.0", "+,2.0", "1e,2.0", "1e+,2.0", "1.0e5.0,2.0",
        "1.0;2.0", "1.0,2.0,", "1.0", "1.0,2.0,3.0", ",2.0", "1.0,,",
        "", "\n", "1.0,2.0\r", "1.0,2.0\n\n", "1.0,2.0\r\r\n", "1.0\t2.0",
        "1.0,2.0\x00", "１.0,2.0",
    ])
    def test_rejects_what_is_not_plain(self, row):
        assert parse_row(row, 2) is None

    def test_rejects_another_delimiter(self):
        assert parse_row("1.0,2.0", 2, "\t") is None
        assert bits(parse_row("1.0\t-2e-3\r\n", 2, "\t")) == bits([1.0, -2e-3])


def same_as_float(cells):
    """Parse ``cells`` as one long row, in one call, and compare each value
    with float()'s, bit for bit."""
    got = parse_row(",".join(cells), len(cells))
    assert got is not None
    want = [float(c) for c in cells]
    bad = [(c, g, w) for c, g, w in zip(cells, got, want)
           if bits([g]) != bits([w])]
    assert bad == [], bad[:5]


def _with_point(digits, places):
    """The integer string ``digits`` with its last ``places`` digits after a
    decimal point."""
    if places == 0:
        return digits
    digits = digits.rjust(places + 1, "0")
    return digits[:-places] + "." + digits[-places:]


@needs_kernel
class TestExactConversion:
    """Cells of at most 19 significant digits and a decimal exponent within
    +-27 are rounded in integers (``decimal_to_double``), the rest by
    strtod; each row holds about 100k cells at the edges of those cases."""

    def test_ties_and_their_neighbours(self):
        # (2^53 + 2i + 1) 2^-j lies halfway between two doubles; written
        # exactly it must round to even, and one unit more or less in its
        # last digit must round away from the tie
        rng = np.random.default_rng(1)
        cells = []
        for j in range(5):
            for i in rng.integers(0, 2 ** 52, 7000):
                w = (2 ** 53 + 2 * int(i) + 1) * 5 ** j
                cells += [_with_point(str(w + d), j) for d in (0, -1, 1)]
        same_as_float(cells)

    def test_next_to_two_to_the_53(self):
        cells = [repr(2 ** 53 + d) for d in range(-3, 4)]
        cells += [c + ".0" for c in cells] + [c + "e0" for c in cells]
        cells += ["9007199254740993e-16", "90071992547409930e-1",
                  "-9007199254740993"]
        same_as_float(cells)

    def test_nineteen_against_twenty_digits(self):
        # 19 significant digits take the integer path, 20 go to strtod;
        # a trailing zero counts as a digit
        rng = np.random.default_rng(2)
        cells = []
        for q in rng.integers(-30, 31, 25000):
            w = str(int(rng.integers(10 ** 18, 10 ** 19, dtype=np.uint64)))
            cells += [f"{w}e{q}", f"{w}{int(rng.integers(10))}e{q - 1}",
                      f"{w}0e{q - 1}", _with_point(w + "0", 1)]
        cells += ["18446744073709551615", "18446744073709551616",
                  "9999999999999999999", "10000000000000000000",
                  "1844674407370955161.5", "18446744073709551615e-27"]
        same_as_float(cells)

    def test_exponents_at_the_edges(self):
        # the decimal exponent at +-22 (the last exact power of ten as a
        # double), +-27 (the last on the integer path) and +-28, whether
        # it comes from the exponent, the fraction or both
        rng = np.random.default_rng(3)
        cells = []
        for q in rng.choice([-28, -27, -23, -22, -21, 21, 22, 23, 27, 28],
                            12500):
            nd = int(rng.integers(1, 20))
            w = str(int(rng.integers(10 ** (nd - 1), 10 ** nd,
                                     dtype=np.uint64)))
            places = int(rng.integers(0, nd + 1))
            cells += [f"{w}e{q}", f"{_with_point(w, places)}e{q + places}"]
        same_as_float(cells)

    def test_leading_and_trailing_zeros(self):
        # leading zeros are not significant digits; trailing ones are
        rng = np.random.default_rng(4)
        cells = ["000123.4500", "-00.0012e3", "0" * 30 + "1234",
                 "0." + "0" * 26 + "1", "0." + "0" * 27 + "1",
                 "0." + "0" * 30 + "12345678901234567890"]
        for _ in range(20000):
            nd = int(rng.integers(1, 20))
            w = str(int(rng.integers(10 ** (nd - 1), 10 ** nd,
                                     dtype=np.uint64)))
            lead, trail = (int(k) for k in rng.integers(0, 12, 2))
            text = "0" * lead + _with_point(w + "0" * trail,
                                            int(rng.integers(0, nd + trail)))
            cells += [text, "-" + text, f"{text}e{int(rng.integers(-9, 9))}"]
        same_as_float(cells)

    def test_eight_digit_runs(self):
        # runs of 7, 8, 9 and 15-20 significant digits, which the kernel
        # reads 8 at a time and then one by one, after runs of 0-17
        # leading zeros that end on either side of an 8-byte boundary; in
        # the integer part, in the fraction, and split by the point at
        # every place
        rng = np.random.default_rng(5)
        cells = ["99999999", "100000000", "10000000.00000001",
                 "12345678901234567890", "0.1234567812345678",
                 "00000000" * 3 + "1", "0." + "00000000" * 3 + "1"]
        for nd in (7, 8, 9, 15, 16, 17, 18, 19, 20):
            for lead in range(18):
                zeros = "0" * lead
                for _ in range(8):
                    digits = str(rng.integers(1, 10)) + "".join(
                        map(str, rng.integers(0, 10, nd - 1)))
                    k = int(rng.integers(0, nd + 1))
                    cells += [zeros + digits, "0." + zeros + digits,
                              f"-{zeros}{digits[:k] or '0'}.{digits[k:] or '0'}",
                              f"{zeros}{digits}e-{lead + nd}",
                              f"{zeros}{digits[:k] or '0'}."
                              f"{(zeros + digits[k:]) or '0'}"
                              f"E{int(rng.integers(-30, 31))}"]
        same_as_float(cells)

    def test_zeros_keep_their_sign(self):
        cells = ["-0.0", "-0e5", "0e-400", "0", "+0", "-0", "0.000",
                 "-000.000e999", "0e99999999999999999999", "+0.0E-0"]
        same_as_float(cells)
        assert [np.signbit(v) for v in parse_row(",".join(cells), 10)] \
            == [c.startswith("-") for c in cells]

    def test_exponent_past_the_integer_path(self):
        # a long fraction against an exponent past 10^5: the exponent read
        # stops growing there, so such a cell must go to strtod
        tiny = "0." + "0" * 99999 + "1"
        assert bits(parse_row(tiny + "e100005", 1)) == bits([1e5])
        assert parse_row(tiny + "e1000000", 1) is None


def _write(tmp_path, header, body, *, inline, suffix=".csv"):
    """A table of ``header`` (x0 and x1 are the predictors) and ``body``,
    with an inline group row or a sidecar map."""
    sep = "\t" if suffix == ".tsv" else ","
    path = tmp_path / f"t{suffix}"
    names = header.split(sep)
    preds = [nm for nm in names if nm.strip('"').startswith("x")]
    head = header + "\n"
    if inline:
        head += sep.join("group" if nm == "y" else "a" if nm in preds else ""
                         for nm in names) + "\n"
    path.write_bytes((head + body).encode())
    groups = None
    if not inline:
        groups = tmp_path / "g.csv"
        groups.write_text("predictor,group\n" + "".join(
            f"{nm.strip(chr(34))},a\n" for nm in preds))
        groups = str(groups)
    return str(path), groups


def _refuse_python_parser(monkeypatch):
    """Fail the test if a row of the table reaches the Python parser."""
    parse_rows = bio._parse_rows

    def checked(rows, *args):
        rows = list(rows)
        assert rows == [], "a plain row reached the Python parser"
        return parse_rows(iter(rows), *args)
    monkeypatch.setattr(bio, "_parse_rows", checked)


BASE = [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]


class TestBothPaths:
    @pytest.mark.parametrize("suffix", [".csv", ".tsv"])
    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_tables_read_equal(self, tmp_path, monkeypatch, kernel_path,
                                      seed, inline, suffix):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        values = rng.standard_normal((n, p + 2)) \
            * 10.0 ** rng.integers(-300, 300, (n, p + 2))
        values[rng.random((n, p + 2)) < 0.1] = -0.0
        values[rng.random((n, p + 2)) < 0.1] = 5e-324
        sep = "\t" if suffix == ".tsv" else ","
        header = sep.join(["y", "z"] + [f"x{j}" for j in range(p)])
        body = "".join(sep.join(repr(float(v)) for v in row) + "\n"
                       for row in values)
        path, groups = _write(tmp_path, header, body, inline=inline,
                              suffix=suffix)
        if kernel_path == "compiled":
            _refuse_python_parser(monkeypatch)
        table = bio.read_design_table(path, groups)
        assert bits(table.y) == bits(values[:, 0])
        assert bits(table.Z.ravel()) == bits(values[:, 1])
        assert bits(table.X.ravel()) == bits(values[:, 2:].ravel())
        assert table.predictor_names == [f"x{j}" for j in range(p)]
        assert table.covariate_names == ["z"]
        assert table.groups == ["a"] * p

    # body -> the rows it holds, or the error class and message, with {1}
    # and {2} standing for the row numbers of the first and second data row
    CASES = {
        "quoted-cells": ('"1.0",2.0,"3.5",4.0\n5.0,6.0,7.0,"8.0"\n',
                         [[1.0, 2.0, 3.5, 4.0], BASE[1]]),
        "leading-space": (" 1.0,2.0,3.0,4.0\n5.0,6.0,7.0,8.0\n", BASE),
        "trailing-space": ("1.0,2.0,3.0,4.0 \n5.0,6.0,7.0,8.0\n", BASE),
        "nan": ("1.0,2.0,3.0,4.0\n5.0,6.0,nan,8.0\n",
                (NaNPresent, "row {2}, column 'x0' holds 'nan', "
                             "not a finite number")),
        "inf": ("1.0,2.0,inf,4.0\n5.0,6.0,7.0,8.0\n",
                (NaNPresent, "row {1}, column 'x0' holds 'inf', "
                             "not a finite number")),
        "1e999": ("1.0,2.0,3.0,4.0\n5.0,1e999,7.0,8.0\n",
                  (NaNPresent, "row {2}, column 'z' holds '1e999', "
                               "not a finite number")),
        "underscore": ("1.0,2.0,1_000,4.0\n5.0,6.0,7.0,8.0\n",
                       [[1.0, 2.0, 1000.0, 4.0], BASE[1]]),
        "crlf": ("1.0,2.0,3.0,4.0\r\n5.0,6.0,7.0,8.0\r\n", BASE),
        "no-final-newline": ("1.0,2.0,3.0,4.0\n5.0,6.0,7.0,8.0", BASE),
        "blank-lines": ("1.0,2.0,3.0,4.0\n\n\n5.0,6.0,7.0,8.0\n\n", BASE),
        "blank-crlf-lines": ("\r\n1.0,2.0,3.0,4.0\r\n\r\n5.0,6.0,7.0,8.0\r\n"
                             "\r\n", BASE),
        "lone-cr-ending": ("1.0,2.0,3.0,4.0\r5.0,6.0,7.0,8.0\n", BASE),
        "cr-cr-lf-ending": ("1.0,2.0,3.0,4.0\r\r\n5.0,6.0,7.0,8.0\n", BASE),
        "short-last-row": ("1.0,2.0,3.0,4.0\n5.0,6.0,7.0\n",
                           (DimensionMismatch, "row {2} has 3 cells, "
                                               "expected 4")),
        "text": ("1.0,2.0,3.0,4.0\n5.0,6.0,abc,8.0\n",
                 (NonNumeric, "row {2}: cannot parse 'abc' as a number")),
    }
    PLAIN = ("crlf", "no-final-newline", "blank-lines", "blank-crlf-lines")

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    @pytest.mark.parametrize("header", ["y,z,x0,x1", 'y,z,"x0",x1'],
                             ids=["plain-header", "quoted-header"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_same_table_or_error(self, tmp_path, monkeypatch, kernel_path,
                                 case, header, inline):
        body, want = self.CASES[case]
        path, groups = _write(tmp_path, header, body, inline=inline)
        if kernel_path == "compiled" and case in self.PLAIN:
            _refuse_python_parser(monkeypatch)
        if isinstance(want, tuple):
            exc, text = want
            first = 3 if inline else 2
            with pytest.raises(exc) as info:
                bio.read_design_table(path, groups)
            assert str(info.value) == f"{path}: " + text.format(
                None, first, first + 1)
            return
        table = bio.read_design_table(path, groups)
        np.testing.assert_array_equal(
            np.column_stack([table.y, table.Z, table.X]), want)
        assert table.predictor_names == ["x0", "x1"]
        assert table.covariate_names == ["z"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_table_from_a_pipe(self, kernel_path):
        # a pipe cannot be read twice: the Python parser reads on from the
        # first row that is not plain
        r, w = os.pipe()
        os.write(w, b'y,x0,x1\ngroup,a,a\n1.0,2.0,3.0\n"4.0",5.0,6.5\n'
                    b'7.0,8.0,9.0\n')
        os.close(w)
        try:
            table = bio.read_design_table(f"/dev/fd/{r}")
        finally:
            os.close(r)
        np.testing.assert_array_equal(table.y, [1.0, 4.0, 7.0])
        np.testing.assert_array_equal(table.X, [[2.0, 3.0], [5.0, 6.5],
                                                [8.0, 9.0]])


class TestBothPathsInSmallChunks(TestBothPaths):
    """Every case above again with the table read a few bytes at a time, so
    that rows, "\\r\\n" endings and blank lines fall across the edges of the
    chunks, and of the text reads of the header and the Python parser."""

    @pytest.fixture(autouse=True, params=[1, 3, 8])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(bio, "CHUNK_BYTES", request.param)


def parse_rows(data, width, room, at_eof=True, delimiter=","):
    """The kernel's parse of the rows in ``data``: (status, the rows it
    wrote, the bytes it took)."""
    raw = data.encode() + b"\0"
    out = np.empty((max(room, 1), width))
    done = np.zeros(2, np.int64)
    status = _sweep.kernel().parse_rows(raw, len(raw) - 1, at_eof,
                                        ord(delimiter), width, out.ctypes.data,
                                        room, done.ctypes.data)
    return status, out[:done[0]].tolist(), int(done[1])


@needs_kernel
class TestParseRows:
    def test_blank_lines_are_skipped(self):
        data = "\n\r\n1.0,2.0\n\n\r\n3.0,4.0\r\n\n"
        assert parse_rows(data, 2, 5) == (0, [[1.0, 2.0], [3.0, 4.0]],
                                          len(data))

    def test_stops_when_the_block_is_full(self):
        # at the next whole row, after the blank lines before it
        assert parse_rows("1.0,2.0\n\n3.0,4.0\n", 2, 1) == (1, [[1.0, 2.0]], 9)
        assert parse_rows("\n1.0,2.0\n", 2, 0) == (1, [], 1)

    def test_waits_for_the_rest_of_a_row(self):
        for tail in ("3.0", "3.0,4.0", "3.0,4.0\r", "\r"):
            assert parse_rows("1.0,2.0\n" + tail, 2, 5, at_eof=False) \
                == (0, [[1.0, 2.0]], 8)
        # at the end of the file, the last row needs no ending
        assert parse_rows("1.0,2.0\n3.0,4.0", 2, 5) \
            == (0, [[1.0, 2.0], [3.0, 4.0]], 15)

    @pytest.mark.parametrize("at_eof", [True, False])
    @pytest.mark.parametrize("bad", ["3.0,4.0\r5.0,6.0\n", "3.0,4.0\r\r\n",
                                     "\r3.0,4.0\n", '3.0,"4.0"\n', "3.0\n"])
    def test_stops_at_a_row_that_is_not_plain(self, bad, at_eof):
        # a "\r" that no "\n" follows is a line ending only csv reads
        assert parse_rows("1.0,2.0\n\n" + bad, 2, 5, at_eof) \
            == (-1, [[1.0, 2.0]], 9)

    def test_lone_cr_at_the_end_of_the_file(self):
        assert parse_rows("1.0,2.0\r", 2, 5) == (-1, [], 0)


def _table(rows, ending="\n"):
    """A csv table of y, z, x0 and x1 with an inline group row, and its
    values; row i holds repr'd doubles of about 20 characters."""
    values = np.random.default_rng(len(rows)).standard_normal((len(rows), 4))
    lines = ["y,z,x0,x1", "group,,a,a"] + [
        row if isinstance(row, str) else ",".join(map(repr, values[i].tolist()))
        for i, row in enumerate(rows)]
    return ending.join(lines) + ending, values


class TestChunkEdges:
    """Tables whose rows, line endings and first non-plain row fall at or
    across the edges of the chunks the kernel parses."""

    def test_row_longer_than_a_chunk(self, tmp_path, monkeypatch, kernel_path):
        rng = np.random.default_rng(9)
        p = bio.CHUNK_BYTES // 8        # about 20 bytes a cell
        values = rng.standard_normal((3, p + 1))
        path, groups = _write(
            tmp_path, ",".join(["y"] + [f"x{j}" for j in range(p)]),
            "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()),
            inline=False)
        assert os.path.getsize(path) > 3 * 2 * bio.CHUNK_BYTES
        if kernel_path == "compiled":
            _refuse_python_parser(monkeypatch)
        table = bio.read_design_table(path, groups)
        assert bits(table.X.ravel()) == bits(values[:, 1:].ravel())
        assert bits(table.y) == bits(values[:, 0])

    @needs_kernel
    def test_crlf_and_blank_lines_at_every_chunk_edge(self, tmp_path,
                                                      monkeypatch):
        # every chunk size up to two rows puts a chunk's edge between some
        # "\r" and its "\n", and at each side of a blank line
        text, values = _table([None, "", None, "", "", None, None],
                              ending="\r\n")
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        values = values[[0, 2, 5, 6]]
        _refuse_python_parser(monkeypatch)
        for chunk in range(1, 2 * len(text) // 9):
            monkeypatch.setattr(bio, "CHUNK_BYTES", chunk)
            table = bio.read_design_table(str(path))
            assert bits(np.column_stack([table.y, table.Z, table.X]).ravel()) \
                == bits(values.ravel()), chunk

    @staticmethod
    def _read_from(source, text, path):
        """Read the table ``text`` from a file at ``path`` or from a pipe;
        the pipe's writer runs in a thread, since the table may not fit in
        its buffer, and stops when the reader closes its end early."""
        if source == "file":
            path.write_bytes(text.encode())
            return bio.read_design_table(str(path))
        r, w = os.pipe()

        def write():
            with open(w, "wb") as fh:
                try:
                    fh.write(text.encode())
                except BrokenPipeError:
                    pass
        writer = threading.Thread(target=write)
        writer.start()
        try:
            return bio.read_design_table(f"/dev/fd/{r}")
        finally:
            os.close(r)
            writer.join(timeout=60)
            assert not writer.is_alive()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_non_plain_row_in_a_later_chunk(self, tmp_path, monkeypatch,
                                            kernel_path, source):
        # 4000 rows of about 80 bytes span several chunks: the kernel
        # parses the rows before the quoted one, the Python parser from it
        rows = [None] * 4000
        rows[3000] = '"1.5",2.5,3.5,4.5'
        text, values = _table(rows)
        values[3000] = [1.5, 2.5, 3.5, 4.5]
        assert len(text) > 3 * bio.CHUNK_BYTES
        handed = []
        python_parser = bio._parse_rows

        def spy(rows, header, path, first_line, block, n):
            handed.append(n)
            return python_parser(rows, header, path, first_line, block, n)
        monkeypatch.setattr(bio, "_parse_rows", spy)
        table = self._read_from(source, text, tmp_path / "t.csv")
        assert bits(np.column_stack([table.y, table.Z, table.X]).ravel()) \
            == bits(values.ravel())
        assert handed == [3000 if kernel_path == "compiled" else 0]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("source", ["file", "pipe"])
    @pytest.mark.parametrize("bad, error, message", [
        ("1.0,2.0,abc,4.0", NonNumeric,
         "row 3003: cannot parse 'abc' as a number"),
        ("1.0,2.0,3.0", DimensionMismatch, "row 3003 has 3 cells, expected 4"),
        ("1.0,nan,3.0,4.0", NaNPresent,
         "row 3003, column 'z' holds 'nan', not a finite number"),
    ], ids=["text", "short", "nan"])
    def test_error_in_a_later_chunk(self, tmp_path, kernel_path, source, bad,
                                    error, message):
        # row numbers count the header, the group row and the blank-free
        # rows the kernel parsed before the bad one
        rows = [None] * 4000
        rows[3000] = bad
        text, _ = _table(rows)
        with pytest.raises(error) as info:
            self._read_from(source, text, tmp_path / "t.csv")
        assert str(info.value).endswith(": " + message)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8192])
    def test_text_lines_split_as_open_splits(self, monkeypatch, chunk):
        # the header, the group row and the Python parser's lines: the
        # lines a text file opened with newline="" gives, "\r\n" kept
        # whole when a read ends between its two bytes
        monkeypatch.setattr(bio, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(chunk)
        for _ in range(50):
            data = bytes(rng.choice(list(b"\r\na,\xc3\xa9"),
                                    int(rng.integers(0, 40))).tolist())
            data = data.decode("utf-8", "ignore").encode()
            want = list(io.TextIOWrapper(io.BytesIO(data), newline=""))
            assert list(bio._Lines(io.BytesIO(data))) == want, data

    def test_lone_cr_line_endings(self, tmp_path, kernel_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"y,z,x0,x1\rgroup,,a,a\r1.0,2.0,3.0,4.0\r"
                         b"5.0,6.0,7.0,8.0\r")
        table = bio.read_design_table(str(path))
        np.testing.assert_array_equal(
            np.column_stack([table.y, table.Z, table.X]), BASE)
        assert table.predictor_names == ["x0", "x1"]

    @needs_kernel
    def test_lone_cr_table_goes_to_python_unread(self, tmp_path, monkeypatch):
        # the kernel gives such a table up at its first data row, before
        # it reads a chunk of it: the file is not buffered whole first
        text, values = _table([None] * 4000, ending="\r")
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        unparsed = []
        parse_chunks = bio._parse_chunks

        def spy(*args):
            block, n, rest = parse_chunks(*args)
            unparsed.append((n, len(rest)))
            return block, n, rest
        monkeypatch.setattr(bio, "_parse_chunks", spy)
        table = bio.read_design_table(str(path))
        assert bits(np.column_stack([table.y, table.Z, table.X]).ravel()) \
            == bits(values.ravel())
        assert len(unparsed) == 1 and unparsed[0][0] == 0
        assert unparsed[0][1] <= bio.CHUNK_BYTES < len(text) // 4
