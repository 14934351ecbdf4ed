"""The compiled row parse of a data table against the Python parser.

Plain rows (numbers as ``repr`` writes them, the table's delimiter, the
header's width) are parsed by ``parse_row`` in ``_sweep.c``; from the
first row that is not plain, ``io._parse_rows`` reads on.  Both must give
the same doubles, and every other input the same table or the same error.
"""
import os
import struct

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
        "short-last-row": ("1.0,2.0,3.0,4.0\n5.0,6.0,7.0\n",
                           (DimensionMismatch, "row {2} has 3 cells, "
                                               "expected 4")),
        "text": ("1.0,2.0,3.0,4.0\n5.0,6.0,abc,8.0\n",
                 (NonNumeric, "row {2}: cannot parse 'abc' as a number")),
    }
    PLAIN = ("crlf", "no-final-newline")

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
