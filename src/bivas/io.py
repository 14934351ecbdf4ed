"""File formats: delimited data tables, group maps and model artifacts.

Data tables are CSV or TSV with a header row.  Predictor columns are
declared either by a sidecar group map (two columns: predictor name, group
label) or by an inline group row -- a row directly under the header whose
response cell is the literal word ``group``; cells of that row name each
predictor's group and empty cells mark covariates.  Every CSV file is
written through one helper (:func:`_write_csv`), and every numeric value
with ``repr``, which round-trips doubles exactly.
"""
from __future__ import annotations

import codecs
import contextlib
import csv
import ctypes
import dataclasses
import errno
import json
import locale
import math
import os
import re
import stat
from typing import NamedTuple

import numpy as np

from . import _sweep
from .designs import (
    GroupedDesign,
    ModelParams,
    MultiTaskData,
    MultiTaskParams,
    validate_design,
)
from .exceptions import BivasError, DimensionMismatch, NaNPresent, NonNumeric
from .grid import GridFit, PosteriorSummary, SelectionReport

GROUP_ROW_MARKER = "group"
CHUNK_BYTES = 1 << 16       # bytes of a data table read at a time
# metrics that `bivas evaluate` leaves empty when a replicate's truth makes
# them undefined; an empty cell in any other column is a broken file
OPTIONAL_METRICS = ("auc", "group_auc")


def _delimiter(path: str) -> str:
    return "\t" if str(path).endswith(".tsv") else ","


def _fmt(x) -> str:
    return repr(float(x))


@contextlib.contextmanager
def decoding(path: str):
    """Raise a decode error in the block, bytes that are not text or text
    that is not JSON, as an OSError (EILSEQ) naming ``path``, as a file
    that cannot be read is named."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"byte 0x{exc.object[exc.start]:02x} is "
                      f"not {exc.encoding} text", path) from None
    except json.JSONDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not JSON: {exc}", path) from None


def _rows(fh, path: str):
    """The non-blank rows of an open delimited table, read lazily."""
    return (row for row in csv.reader(fh, delimiter=_delimiter(path)) if row)


class _Lines:
    """The lines of the binary file ``fh``, after the bytes ``start``,
    split and decoded as ``open(path, newline="")`` splits and decodes
    them: each ends at "\\n", "\\r\\n" or a lone "\\r" and keeps its
    ending.  With ``keep``, ``taken`` holds the bytes of the lines yielded
    since it was last cleared, and :meth:`rest` gives them back with the
    bytes read and not yet yielded, so that a caller can read on from
    there as bytes."""

    _END = re.compile(rb"\r\n?|\n")

    def __init__(self, fh, start: bytes = b"", *, keep: bool = False):
        self.fh, self.pending, self.pos, self.eof = fh, start, 0, False
        self.taken = [] if keep else None
        self.decode = codecs.getincrementaldecoder(
            locale.getpreferredencoding(False))().decode

    def __iter__(self):
        return self

    def __next__(self) -> str:
        while True:
            end = self._END.search(self.pending, self.pos)
            # a "\r" at the end of the bytes read may begin a "\r\n"
            if end and (self.eof or end.end() < len(self.pending)
                        or end.group() != b"\r"):
                line = self.pending[self.pos:end.end()]
                break
            if self.eof:
                line = self.pending[self.pos:]
                if not line:
                    self.decode(b"", True)      # a truncated character fails
                    raise StopIteration
                break
            # 8 KiB at a time, as open()'s text files read, or as many
            # bytes as an unfinished line holds, so that a long line is
            # read in linear time
            rest = self.pending[self.pos:]
            more = self.fh.read(max(min(CHUNK_BYTES, 8192), len(rest)))
            self.pending, self.pos = rest + more, 0
            self.eof = not more
        self.pos += len(line)
        if self.taken is not None:
            self.taken.append(line)
        return self.decode(line)

    def rest(self) -> bytes:
        """The bytes of the lines in ``taken``, then those read and not yet
        yielded, handed over: both are dropped here."""
        rest = b"".join(self.taken) + self.pending[self.pos:]
        self.taken.clear()
        self.pending, self.pos = b"", 0
        return rest


def read_group_map(path: str, response: str | None = None) -> dict:
    """Sidecar group map: name -> label, one predictor per row; a short
    row, a repeated name or a row naming the ``response`` column fails
    with its row number (non-blank rows, the header being row 1)."""
    with open(path, newline="") as fh, decoding(path):
        rows = list(_rows(fh, path))
    if not rows:
        raise NonNumeric(f"{path}: empty table")
    if len(rows[0]) < 2:
        raise NonNumeric(f"{path}: group map needs two columns")
    labels, line_of = {}, {}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) < 2:
            raise NonNumeric(f"{path}: row {line} has one cell, expected "
                             f"two (predictor, group)")
        name = row[0]
        if name == response:
            raise NonNumeric(f"{path}: row {line} names the response column "
                             f"{name!r}, which cannot be a predictor")
        if name in labels:
            raise NonNumeric(f"{path}: row {line} names predictor {name!r} "
                             f"again (first on row {line_of[name]})")
        labels[name], line_of[name] = row[1], line
    return labels


class DesignTable(NamedTuple):
    """A data table split into response, covariates and predictors."""

    y: np.ndarray                 # (n,); zeros when the table has no response
    Z: np.ndarray                 # (n, r); one intercept column if no covariates
    X: np.ndarray                 # (n, p)
    groups: list                  # p raw group labels
    predictor_names: list
    covariate_names: list


def read_design_table(data_path: str, groups_path: str | None = None, *,
                      response: str = "y",
                      require_response: bool = True) -> DesignTable:
    """Read a data table plus group declaration into numeric blocks.

    Columns named in the group declaration become predictors; every other
    non-response column is a covariate.  When no covariate columns exist an
    intercept column of ones is injected.  With ``require_response=False``
    a table without the response column loads with y = 0 (prediction-only
    data; needs the sidecar group map, since the inline marker lives in the
    response cell).  No two header cells may hold the same name, at least
    one data row must follow, and every cell must parse as a finite
    number.  The header and the inline group row are read as text, as
    ``open(data_path, newline="")`` reads them; the data rows are parsed
    from the file's bytes a chunk at a time as they are read
    (:func:`_read_rows`), so neither the file nor any row is held as
    strings.  y, and Z or X when their columns are adjacent in the header,
    are views of the one parsed block.
    """
    with open(data_path, "rb") as fh, decoding(data_path):
        lines = _Lines(fh, keep=True)
        rows = _rows(lines, data_path)
        header = next(rows, None)
        if header is None:
            raise NonNumeric(f"{data_path}: empty table")
        column = {name: j for j, name in enumerate(header)}
        if len(column) < len(header):
            twice = next(nm for j, nm in enumerate(header) if column[nm] != j)
            raise DimensionMismatch(
                f"{data_path}: the header names column {twice!r} twice")
        resp_idx = column.get(response)
        if resp_idx is None and require_response:
            raise DimensionMismatch(
                f"{data_path}: no response column named {response!r}")

        inline: dict = {}
        first_line = 2      # row number of the first data row, for messages
        lines.taken.clear()
        first = next(rows, [])
        if resp_idx is not None \
                and first[resp_idx:resp_idx + 1] == [GROUP_ROW_MARKER]:
            inline = {name: cell for name, cell in zip(header, first)
                      if name != response and cell != ""}
            first_line = 3
            lines.taken.clear()
        if groups_path is not None:
            group_label_of = read_group_map(groups_path, response)   # sidecar wins
        elif inline:
            group_label_of = inline
        else:
            raise DimensionMismatch(
                f"{data_path}: no group map given and no inline group row found")
        missing = [name for name in group_label_of if name not in column]
        if missing:
            more = len(missing) - 5
            raise DimensionMismatch(
                f"{data_path}: group map names absent from table: "
                f"{missing[:5]}" + (f" and {more} more" if more > 0 else ""))
        parsed = _read_rows(fh, lines.rest(), header, data_path, first_line)
    if not parsed.shape[0]:
        raise DimensionMismatch(f"{data_path}: no data rows")

    pred_names = [name for name in header
                  if name != response and name in group_label_of]
    covar_names = [name for name in header
                   if name != response and name not in group_label_of]
    n = parsed.shape[0]
    y = parsed[:, resp_idx] if resp_idx is not None else np.zeros(n)
    X = _columns(parsed, [column[nm] for nm in pred_names])
    if covar_names:
        Z = _columns(parsed, [column[nm] for nm in covar_names])
    else:
        Z = np.ones((n, 1))
        covar_names = ["intercept"]
    groups = [group_label_of[nm] for nm in pred_names]
    return DesignTable(y, Z, X, groups, pred_names, covar_names)


def _columns(parsed: np.ndarray, idx: list) -> np.ndarray:
    """``parsed[:, idx]``: a view when ``idx`` is a run of adjacent
    columns in order, so the block is not copied, and a copy otherwise."""
    if idx and idx == list(range(idx[0], idx[0] + len(idx))):
        return parsed[:, idx[0]:idx[0] + len(idx)]
    return parsed[:, idx]


def columns_by_name(block: np.ndarray, have, names, path: str, kind: str):
    """The columns of ``block``, named ``have``, that ``names`` name, in
    that order, as one Fortran-ordered copy (the transpose of a gather of
    the transpose's rows), as a design holds them; the first name ``have``
    lacks fails, naming the table ``path`` and the ``kind`` of column."""
    column = {nm: j for j, nm in enumerate(have)}
    for nm in names:
        if nm not in column:
            raise BivasError(f"{path}: no {kind} column {nm!r}, which the "
                             f"model needs")
    return block.T[[column[nm] for nm in names]].T


def _read_rows(fh, start: bytes, header, path: str,
               first_line: int) -> np.ndarray:
    """The data rows in the bytes ``start`` and then the rest of the binary
    file ``fh`` as an (n, len(header)) float array; the first row is row
    ``first_line``.

    The file is read ``CHUNK_BYTES`` at a time, and one call of the
    compiled ``parse_rows`` (``_sweep.c``) parses the whole rows of plain
    finite numbers in each chunk (``parse_row`` there says which are
    plain), giving the doubles ``float()`` gives, and skips blank lines as
    csv does; the unfinished row at a chunk's end is carried into the next
    read.  From the first row it does not take, or from the start when
    there is no kernel, :func:`_parse_rows` reads on: the bytes not yet
    parsed and then the rest of the file, as text (:class:`_Lines`), so
    every message comes from it and the file is never read twice.  Both
    write each row straight into one block, trimmed at the end.  When the
    file has a size, the block is sized from it and the first row's
    length (again from the mean row length if rows remain); otherwise it
    grows by an eighth (:func:`_room`).
    """
    block, n = np.empty((0, len(header))), 0
    lib = _sweep.kernel()
    if lib is not None:
        block, n, start = _parse_chunks(lib, fh, start, len(header),
                                        ord(_delimiter(path)))
    return _parse_rows(_rows(_Lines(fh, start), path), header, path,
                       first_line + n, block, n)


def _parse_chunks(lib, fh, start: bytes, width: int, delim: int):
    """Parse the plain rows of ``start`` and then of ``fh``, one
    ``parse_rows`` call per chunk read, until a row that is not plain or
    the end of the file.  Returns the block they were written to, the rows
    parsed and the bytes read and not parsed."""
    size = os.fstat(fh.fileno())
    size = size.st_size if stat.S_ISREG(size.st_mode) else None
    offset = fh.tell() - len(start) if size is not None else 0  # of buf[0]
    block, n = np.empty((0, width)), 0
    buf = bytearray(start + b"\0")     # the bytes, and a NUL after them
    base, pos, have, at_eof = _address(buf), 0, len(start), False
    done = (ctypes.c_int64 * 2)()
    while True:
        status = lib.parse_rows(base + pos, have - pos, at_eof, delim, width,
                                block.ctypes.data + block.strides[0] * n,
                                block.shape[0] - n, done)
        n, pos = n + done[0], pos + done[1]
        if status == 1:             # block full: a whole row waits at pos
            if not n:
                first = offset + pos
            rows = _grown(n)
            left = size - offset - pos if size is not None else 0
            if left > 0:            # the rows left, at the mean row length
                per_row = ((offset + pos - first) / n if n else
                           (buf.find(b"\n", pos, have) + 1 or have) - pos)
                rows = n + max(1, math.ceil(left / per_row))
            if n:
                block.resize((rows, width), refcheck=False)
            else:       # resize would write zeros over the whole new block
                block = np.empty((rows, width))
            continue
        if status == -1 or at_eof:
            return block, n, bytes(buf[pos:have])
        # an unfinished row at pos: move it to the front, and read at least
        # as much again after it
        tail, room = have - pos, max(CHUNK_BYTES, have - pos)
        if tail + room + 1 > len(buf):
            grown = bytearray(2 * room + 1)
            ctypes.memmove(_address(grown), base + pos, tail)
            buf, base = grown, _address(grown)
        else:
            ctypes.memmove(base, base + pos, tail)
        offset, pos = offset + pos, 0
        got = fh.readinto(memoryview(buf)[tail:tail + room])
        at_eof, have = not got, tail + got
        buf[have] = 0


def _address(buf: bytearray) -> int:
    """The address of ``buf``'s bytes, which stay where they are while no
    call changes its length."""
    return ctypes.addressof((ctypes.c_char * len(buf)).from_buffer(buf))


def _grown(n: int) -> int:
    """The rows of a block of ``n`` rows grown by an eighth, at least 64."""
    return max(64, n + n // 8)


def _room(block: np.ndarray, n: int) -> np.ndarray:
    """``block``, grown in place (:func:`_grown`) when row ``n`` is past
    its end.  No view of it may be held across the call."""
    if n == block.shape[0]:
        block.resize((_grown(n), block.shape[1]), refcheck=False)
    return block


def _parse_rows(rows, header, path: str, first_line: int,
                block: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` rows of ``block`` and then ``rows``, each parsed
    into ``block`` as it is read, as an (n, len(header)) float array,
    ``block`` itself trimmed in place; ``rows`` are numbered from
    ``first_line`` in messages.

    A row of the wrong length or with a cell that is not a number fails at
    once.  A non-finite cell fails only after every row has parsed, naming
    the first one.
    """
    width = len(header)
    bad = None      # (row number, column, cell) of the first non-finite cell
    for line, row in enumerate(rows, start=first_line):
        where = f"{path}: row {line}"
        if len(row) != width:
            raise DimensionMismatch(
                f"{where} has {len(row)} cells, expected {width}")
        try:
            values = np.fromiter(map(float, row), np.float64, width)
        except ValueError:
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    raise NonNumeric(f"{where}: cannot parse {cell!r} as a "
                                     f"number") from None
        if bad is None and not np.isfinite(values).all():
            j = int(np.argmin(np.isfinite(values)))
            bad = (line, header[j], row[j])
        _room(block, n)[n] = values
        n += 1
    if bad is not None:
        raise NaNPresent(f"{path}: row {bad[0]}, column {bad[1]!r} holds "
                         f"{bad[2]!r}, not a finite number")
    block.resize((n, width), refcheck=False)
    return block


def load_design(data_path: str, groups_path: str | None = None, *,
                response: str = "y", standardize: bool = False) -> GroupedDesign:
    """Load a data table plus group declaration (:func:`read_design_table`)
    into a GroupedDesign."""
    table = read_design_table(data_path, groups_path, response=response)
    return validate_design(table.y, table.Z, table.X, table.groups,
                           standardize=standardize,
                           predictor_names=table.predictor_names,
                           covariate_names=table.covariate_names)


def load_multitask(paths, *, response: str = "y") -> MultiTaskData:
    """Load one table per task; predictor columns are the shared features.

    Every task table must carry an inline group row (or simply mark which
    columns are predictors with it); predictor names must agree across
    tasks in the same order.
    """
    tables = [read_design_table(p, None, response=response) for p in paths]
    names = tables[0].predictor_names
    for t, p in zip(tables, paths):
        if t.predictor_names != names:
            raise DimensionMismatch(
                f"{p}: predictor columns disagree with the first task")
    return MultiTaskData([(t.y, t.Z, t.X) for t in tables],
                         predictor_names=names,
                         covariate_names=[t.covariate_names for t in tables])


def _write_csv(path: str, head: list, body, *, delimiter: str = ",",
               mode: str = "w"):
    """Write the rows of ``head`` and then those of ``body``, each a list
    of cells, to the delimited file ``path``."""
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerows(head)
        writer.writerows(body)


def write_design_csv(path: str, design: GroupedDesign, *, response: str = "y"):
    """Write a design back to CSV with an inline group row."""
    header = [response] + design.covariate_names + design.predictor_names
    marker = [GROUP_ROW_MARKER] + [""] * design.r \
        + [str(design.group_labels[k]) for k in design.group_of]
    rows = ([_fmt(v) for v in (design.y[i], *design.Z[i], *design.X[i])]
            for i in range(design.n))
    _write_csv(path, [header, marker], rows, delimiter=_delimiter(path))


def write_group_map(path: str, design: GroupedDesign):
    _write_csv(path, [["predictor", "group"]], (
        [name, str(design.group_labels[k])]
        for name, k in zip(design.predictor_names, design.group_of)),
        delimiter=_delimiter(path))


# ---------------------------------------------------------------------------
# model artifacts
# ---------------------------------------------------------------------------

def _to_json(value):
    """Arrays and lists of arrays as nested lists; scalars unchanged."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_to_json(v) for v in value]
    return value


def model_to_dict(gridfit: GridFit, summary: PosteriorSummary,
                  design, options: dict) -> dict:
    """JSON-ready model artifact: aggregated parameters, grid table and the
    per-variable posterior arrays needed for prediction."""
    grid_table = [
        {"pi": float(pi), "elbo": float(e), "weight": float(w),
         "iterations": int(res.iterations), "converged": bool(res.converged)}
        for pi, e, w, res in zip(gridfit.pi_values, gridfit.elbos,
                                 gridfit.weights, gridfit.results)
    ]
    p = summary.params
    model = {
        "model": "multitask" if gridfit.multitask else "group",
        "options": options,
        "grid": grid_table,
        "params": {f.name: _to_json(getattr(p, f.name))
                   for f in dataclasses.fields(p)},
        "predictors": design.predictor_names,
        "covariates": design.covariate_names,
    }
    if not gridfit.multitask:
        model["group_labels"] = [str(lab) for lab in design.group_labels]
        model["group_of"] = design.group_of.tolist()
        model["standardize"] = None if design.x_center is None else {
            "center": design.x_center.tolist(), "scale": design.x_scale.tolist()}
    model["posterior"] = {
        name: getattr(summary, name).tolist()
        for name in ("pi_tilde", "alpha_tilde", "mu_tilde", "effect")
    }
    return model


def summary_from_model(model: dict) -> PosteriorSummary:
    """The :class:`PosteriorSummary` a model artifact was written from (the
    inverse of :func:`model_to_dict`; every double round-trips exactly);
    a multi-task ``group_of`` is rebuilt from ``alpha_tilde``'s shape."""
    post = {key: np.asarray(val, float) for key, val in model["posterior"].items()}
    multitask = model["model"] == "multitask"
    params = (MultiTaskParams if multitask else ModelParams)(**model["params"])
    return PosteriorSummary(
        pi_tilde=post["pi_tilde"], alpha_tilde=post["alpha_tilde"],
        mu_tilde=post["mu_tilde"], effect=post["effect"],
        group_fdr=1.0 - post["pi_tilde"], var_fdr=1.0 - post["alpha_tilde"],
        params=params, group_of=np.indices(post["alpha_tilde"].shape)[0]
        if multitask else np.asarray(model["group_of"]),
    )


def write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def require_keys(path: str, obj, keys, where: str = ""):
    """Raise a one-line error naming ``path`` and the first of ``keys``
    that the JSON object ``obj`` (at ``where`` in the file) lacks."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise BivasError(f"{path}: missing key '{where}{key}'")


def read_json(path: str, required=()) -> dict:
    """Read a JSON file whose top-level object must hold ``required``."""
    with open(path) as fh, decoding(path):
        payload = json.load(fh)
    require_keys(path, payload, required)
    return payload


def _check_layout(summary: PosteriorSummary, model: dict):
    """Raise a ValueError unless ``group_of`` is (predictors,), or
    (predictors, tasks) for a multi-task model, the variable arrays share
    its shape and it holds integers in [0, K) reaching K - 1, K being the
    length of ``pi_tilde``, and ``covariates`` lists one name per entry of
    ``params.omega`` (per task, one list per task)."""
    multitask = model["model"] == "multitask"
    group_of, K, omega = summary.group_of, summary.pi_tilde.shape, summary.params.omega
    tasks, names = (omega, model["covariates"]) if multitask \
        else ([omega], [model["covariates"]])
    want = (len(model["predictors"]),) + ((len(omega),) if multitask else ())
    shapes = [getattr(summary, a).shape for a in ("alpha_tilde", "mu_tilde", "effect")]
    if group_of.shape != want or shapes != [want] * 3 or len(K) != 1 \
            or group_of.dtype.kind not in "iu" or not group_of.size \
            or group_of.min() < 0 or group_of.max() != K[0] - 1:
        raise ValueError(
            f"want group_of, alpha_tilde, mu_tilde and effect of shape {want}, "
            f"group_of holding integers in [0, K) reaching K - 1 for the K "
            f"entries of pi_tilde; got shapes {group_of.shape}, "
            f"{', '.join(map(str, shapes))} and {K}")
    if list(map(len, names)) != list(map(len, tasks)):
        raise ValueError("want covariates to name each entry of params.omega")


def read_model(path: str) -> tuple[dict, PosteriorSummary]:
    """Read a ``model.json``, checking every key that
    :func:`summary_from_model` and the CLI read from it, and that its
    values build a summary of one layout (:func:`_check_layout`) and a
    standardization of one number per predictor: a malformed file fails
    with one line naming it.  Returns the model and its summary."""
    model = read_json(path, ("model", "params", "posterior", "predictors",
                             "covariates"))
    multitask = model["model"] == "multitask"
    require_keys(path, model, () if multitask else ("group_of",))
    params = MultiTaskParams if multitask else ModelParams
    require_keys(path, model["params"],
                 [f.name for f in dataclasses.fields(params)], "params.")
    require_keys(path, model["posterior"],
                 ("pi_tilde", "alpha_tilde", "mu_tilde", "effect"), "posterior.")
    std = model.get("standardize")
    if std is not None:
        require_keys(path, std, ("center", "scale"), "standardize.")
    try:
        summary = summary_from_model(model)
        _check_layout(summary, model)
        for key in ("center", "scale") if std is not None else ():
            if np.asarray(std[key], float).shape != (len(model["predictors"]),):
                raise ValueError(f"standardize.{key} needs one number per predictor")
    except (TypeError, ValueError, IndexError) as exc:
        raise BivasError(f"{path}: malformed model: {exc}") from None
    return model, summary


def write_posterior_csv(path: str, summary: PosteriorSummary, design):
    """Per-variable table: id, group, posteriors, effect, fdr columns."""
    _write_csv(path, [["id", "group", "pi_tilde", "alpha_tilde", "mu_tilde",
                       "effect", "group_fdr", "var_fdr"]], (
        [name, str(design.group_labels[k])] + [_fmt(v) for v in (
            summary.pi_tilde[k], summary.alpha_tilde[j], summary.mu_tilde[j],
            summary.effect[j], summary.group_fdr[k], summary.var_fdr[j])]
        for j, (name, k) in enumerate(zip(design.predictor_names,
                                          design.group_of))))


def write_groups_csv(path: str, summary: PosteriorSummary, design):
    _write_csv(path, [["group", "pi_tilde", "fdr"]], (
        [str(design.group_labels[k]), _fmt(pi), _fmt(fdr)]
        for k, (pi, fdr) in enumerate(zip(summary.pi_tilde,
                                          summary.group_fdr))))


def selection_to_dict(report: SelectionReport, summary: PosteriorSummary,
                      design) -> dict:
    """The selected groups and variables with their local fdr; a variable
    of a multi-task model names its task, and its group is its feature."""
    variables = []
    for at in np.argwhere(report.variables):
        entry = {"predictor": design.predictor_names[at[0]]}
        if summary.multitask:
            entry["task"] = int(at[1])
        entry["fdr"] = float(summary.var_fdr[tuple(at)])
        variables.append(entry)
    names = design.predictor_names if summary.multitask \
        else [str(lab) for lab in design.group_labels]
    groups = [{"group": names[k], "fdr": float(summary.group_fdr[k])}
              for k in np.flatnonzero(report.groups)]
    return {"threshold": report.threshold, "groups": groups,
            "variables": variables}


def write_predictions_csv(path: str, yhat):
    _write_csv(path, [["prediction"]],
               ([_fmt(v)] for v in np.asarray(yhat, float).ravel()))


def truth_to_dict(truth, extra: dict | None = None) -> dict:
    """A simulation's truth, field by field, then the ``extra`` keys."""
    payload = {f.name: _to_json(getattr(truth, f.name))
               for f in dataclasses.fields(truth)}
    payload.update(extra or {})
    return payload


def append_metrics_csv(path: str, row: dict):
    """Append one metrics row, writing the header when the file is new."""
    _write_csv(path, [] if os.path.exists(path) else [list(row)],
               [[_fmt(v) if isinstance(v, float) else v for v in row.values()]],
               mode="a")


def read_metrics(paths) -> dict:
    """Each metric's values over the metrics files ``paths``, in the order
    they first appear; an empty cell of an ``OPTIONAL_METRICS`` metric is
    skipped, and any other cell that is not a number fails, naming its
    file, line and column."""
    values: dict[str, list[float]] = {}
    for path in paths:
        with open(path, newline="") as fh, decoding(path):
            reader = csv.DictReader(fh)
            for row in reader:
                for key, val in row.items():
                    column = values.setdefault(key, [])
                    if val == "" and key in OPTIONAL_METRICS:
                        continue
                    try:
                        column.append(float(val))
                    except (TypeError, ValueError):
                        raise NonNumeric(
                            f"{path}: line {reader.line_num}, column {key!r} "
                            f"holds {val!r}, not a number") from None
    return values


def write_report_csv(path: str, values: dict):
    """One row per metric: the mean, sd (0 for one value) and count of its
    ``values``, or empty cells and a count of 0 when it has none."""
    _write_csv(path, [["metric", "mean", "sd", "n"]], (
        [key, _fmt(np.mean(v)), _fmt(np.std(v, ddof=1) if len(v) > 1 else 0.0),
         len(v)] if v else [key, "", "", 0]
        for key, v in values.items()))
