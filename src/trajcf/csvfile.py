"""The CSV format: `read_input`, `write_wide`, `write_trajectories` and the
cell rules they share.

Three CSV layouts are auto-detected by the first header cell:

* ``t``    — trajectory layout: first column sample times, one curve per
             subsequent column, header carries the ids;
* ``coef`` — coefficient layout: row k holds coefficient k of every curve,
             one curve per column;
* ``id``   — wide coefficient layout: one curve per row, ``id,c1,...,cn``.

`float_table` is the package's one entry to numpy's C text reader:
`read_input` parses CSV files with it and `modelfile.load` the rows of S.

The writers match csv.writer's default dialect byte for byte; an id cell
is quoted by `csv_cell`.  Floats are written as their ``repr``, and
`float_text` is the shortest text that reads back as a float.
"""

from __future__ import annotations

import csv
import io
import re
import warnings

import numpy as np

from .errors import InputError


def float_text(x: float) -> str:
    """The shortest text that reads back as ``x``: repr without a trailing ".0"."""
    return repr(float(x)).removesuffix(".0")


_CSV_SPECIAL = re.compile('[,"\r\n]')


def csv_cell(text: str) -> str:
    """``text`` quoted as csv.writer quotes a cell that is not alone in its
    row (QUOTE_MINIMAL): the id cell of a report or of a data file."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def float_table(lines: list[str], delimiter=None, usecols=None) -> np.ndarray | None:
    """The lines as one float array, a row per line, by numpy's C text reader.

    `modelfile.load`'s S rows and `read_input`'s CSV files both come
    through here, so one replacement of this name reaches both readers.
    None when that reader raises or returns another number of rows (it
    skips blank lines).  A cell it accepts is one Python's ``float``
    accepts, with the same value; it rejects some that ``float`` accepts
    (``1_000``, non-ASCII digits).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an input of blank lines warns
            table = np.loadtxt(lines, dtype=float, delimiter=delimiter, comments=None,
                               ndmin=2, usecols=usecols)
    except ValueError:
        return None
    return table if table.shape[0] == len(lines) else None


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_rows(path: str, text: str) -> list[list[str]]:
    try:
        rows = [row for row in csv.reader(io.StringIO(text, newline=""))
                if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: file is empty")
    return rows


def _cell_float(cell: str, path: str, row: int, col: int) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise InputError(
            f"{path}: row {row + 1}, column {col + 1}: not a number: {cell!r}"
        ) from exc


def _row_floats(cells, path: str, row: int, first_col: int) -> np.ndarray:
    """The cells of one row as floats; a bad cell is named as `_cell_float` names it."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return np.array([_cell_float(c, path, row, first_col + j) for j, c in enumerate(cells)])


def read_input(path: str):
    """Parse any accepted layout.

    Returns ``("traj", ids, times, values)`` with values shaped (M, K), or
    ``("coef", ids, coeffs)`` with coeffs shaped (K, n).  Numeric cells
    accept exactly what Python's ``float`` accepts: numpy's C reader
    (`_parse_table`) parses the file when it can, and `_parse_cells`, one
    ``float`` per cell, parses the files it declines and names what is wrong.
    Both only split the text into cells and convert them; `_layout` alone
    reads the header cell and applies the layouts' rules.  A file may name
    no curves or hold no data: the caller decides what that means.
    """
    text = _read_text(path)
    parsed = _parse_table(path, text)
    return _parse_cells(path, text) if parsed is None else parsed


def _layout(path: str, header: list[str], first_cells: list[str], floats):
    """The parsed file from its header row, the first cell of each data row
    and ``floats(first)``, the data rows as floats from column ``first`` on
    (1 in the ``id`` layout, whose first column holds the ids); None where
    ``floats`` gives None.  A trajectory file needs at least 2 sample rows,
    and row k of a ``coef`` file must say k."""
    head = header[0].strip().lower()
    if head not in ("t", "coef", "id"):
        raise InputError(f"{path}: unrecognized header cell {header[0]!r} "
                         "(expected 't', 'coef', or 'id')")
    table = floats(1 if head == "id" else 0)
    if table is None:
        return None
    ids = [c.strip() for c in (first_cells if head == "id" else header[1:])]
    if head == "id":
        return "coef", ids, table
    if head == "t":
        if len(table) == 1:
            raise InputError(f"{path}: trajectories need at least 2 sample rows")
        return "traj", ids, table[:, 0], table[:, 1:]
    for r, k in enumerate(table[:, 0].tolist(), start=1):
        if k != r:
            raise InputError(f"{path}: row {r + 1} says coefficient {float_text(k)}, "
                             f"expected {r}")
    return "coef", ids, table[:, 1:].T


def _parse_table(path: str, text: str):
    """What `_parse_cells` returns for the text, by numpy's C reader; None
    for every file the two could split or convert differently: quoted
    cells, lone carriage returns, NUL characters, cells over the csv
    module's field limit, a blank first row, blank or ragged rows, and
    cells the C reader rejects."""
    text = text.replace("\r\n", "\n") if "\r" in text else text
    if '"' in text or "\x00" in text or "\r" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or not lines[0].replace(",", "").strip():  # csv skips a blank row
        return None
    limit = csv.field_size_limit()
    if any(len(cell) >= limit for ln in lines if len(ln) >= limit for cell in ln.split(",")):
        return None
    header, body = lines[0].split(","), lines[1:]
    width = len(header)

    def floats(first: int) -> np.ndarray | None:  # usecols hide the extra cells of a longer row
        if first and (width < 2 or text.count(",") != len(lines) * (width - 1)):
            return None
        table = float_table(body, ",", range(first, width) if first else None)
        return table if table is not None and table.shape[1] == width - first else None

    return _layout(path, header, [ln.partition(",")[0] for ln in body], floats)


def _parse_cells(path: str, text: str):
    """`read_input` with one Python ``float`` per cell."""
    rows = _read_rows(path, text)
    header, body = rows[0], rows[1:]
    width = len(header)

    def floats(first: int) -> np.ndarray:
        table = np.empty((len(body), width - first))
        for r, row in enumerate(body, start=1):
            if len(row) != width:
                raise InputError(f"{path}: row {r + 1} has {len(row)} cells, expected {width}")
            table[r - 1] = _row_floats(row[first:], path, r, first)
        return table

    return _layout(path, header, [row[0] for row in body], floats)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

# Data rows are joined here rather than by csv.writer, which costs more than
# the repr of each cell; they match its default dialect byte for byte.  The
# wide writer formats CSV_BLOCK_ROWS rows at a time, so its Python floats and
# strings stay block-sized; no byte depends on it.
_CSV_EOL = "\r\n"
CSV_BLOCK_ROWS = 1024


def write_wide(path: str, ids, coeffs: np.ndarray) -> None:
    """Coefficient rows in the ``id`` layout, one curve per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["id"] + [f"c{k}" for k in range(1, coeffs.shape[1] + 1)])
        for s in range(0, coeffs.shape[0], CSV_BLOCK_ROWS):
            rows = coeffs[s:s + CSV_BLOCK_ROWS].tolist()
            fh.write("".join(",".join([csv_cell(i or ""), *map(repr, row)]) + _CSV_EOL
                             for i, row in zip(ids[s:s + CSV_BLOCK_ROWS], rows)))


def write_trajectories(path: str, ids, times, values) -> None:
    """Curves sampled at ``times``, ``values`` (T, K) one curve per column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t"] + list(ids))
        for t, row in zip(times.tolist(), values):
            fh.write(",".join(map(repr, [t, *row.tolist()])) + _CSV_EOL)
