"""The model file, format v1: `save`, `load` and `dumps`.

A model file is UTF-8 text.  Its first line is the format header
"trajcf model 1"; then one "key value" line per field (d, n, m, epsilon,
N, domain, the basis ordering and the operation that made the model); a
line "S"; the m rows of S, one line each; and last a line "checksum sha256
<hex>" over every line before it.  Every float is written with 17
significant digits, so the text reads back to the same bits.

`save` ranks the cells of S by one sort of their bit patterns, formats each
distinct value once and builds the text of S a row at a time from an int32
rank matrix filled by panels of PANEL_ROWS rows (S mirrors its bits, so
each panel copies the part right of its diagonal block from the panels
below), so it never holds an m x m array of Python objects.
`load` reads a path or a text file object once, a line at a time, hashing
every line but the last (the checksum line) as it passes.  It allocates S
only once d, n and m agree with the basis, fills it PANEL_ROWS lines at a
time and drops it at the first row that does not fit (`_read_matrix`), so
it never holds the file's text whole.  It raises nothing before the end of
the file, then reports the first problem in a fixed order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
from typing import TYPE_CHECKING

import numpy as np

from . import csvfile as _csvfile
from .basis import BasisEnumeration, enumerate_basis
from .errors import InputError
from .projection import check_domain

if TYPE_CHECKING:
    from .model import ChristoffelModel

# Rows per panel where an m x m array is walked by panels of rows for memory
# alone (checking that S is symmetric in `model`, ranking S in `save`,
# parsing S in `load`): no value depends on it.  `model._cd_from_factor`'s
# panels set the order of a sum, so they have their own CD_PANEL_ROWS.
PANEL_ROWS = 128

_FORMAT_HEADER = "trajcf model 1"
_BASIS_ORDERING = "graded-lex"


def _format_float(x: float) -> str:
    return "%.17g" % x


def _header(model: ChristoffelModel) -> str:
    return "\n".join([
        _FORMAT_HEADER,
        f"d {model.d}",
        f"n {model.n}",
        f"m {model.size}",
        f"epsilon {_format_float(model.epsilon)}",
        f"N {model.sample_count}",
        f"domain {_format_float(model.domain[0])} {_format_float(model.domain[1])}",
        f"basis {_BASIS_ORDERING}",
        f"created-by {model.provenance}",
        "S",
    ]) + "\n"


def _distinct(bits: np.ndarray) -> np.ndarray:
    """The distinct entries of an int64 array, ascending: one sort of a copy,
    keeping the first entry of each run."""
    ranked = np.sort(bits, axis=None)
    first = np.empty(ranked.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return ranked[first]


def _ranks(bits: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """The index in ``distinct`` of every cell of the square ``bits``, as an
    int32 matrix filled by panels of PANEL_ROWS rows from the bottom up.

    A panel s:e searches its cells left of e; right of e it copies the
    transpose of the panels below, since a model's S mirrors its bits.
    """
    m = bits.shape[0]
    R = np.empty((m, m), dtype=np.int32)
    for s in reversed(range(0, m, PANEL_ROWS)):
        e = min(s + PANEL_ROWS, m)
        R[s:e, :e] = np.searchsorted(distinct, bits[s:e, :e])
        R[s:e, e:] = R[e:, s:e].T
    return R


def _matrix_rows(S: np.ndarray) -> list[str]:
    """The text of each row of S, newline included.

    Each distinct value of S is formatted once.  Keying on the bit pattern
    keeps -0.0 apart from 0.0; the text is that of `_format_float` per cell.
    Besides the rows' text, this holds the distinct values' texts, an int32
    rank per cell and one row of cells at a time.
    """
    bits = np.ascontiguousarray(S, dtype=np.float64).view(np.int64)
    distinct = _distinct(bits)
    text = np.array([_format_float(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return [" ".join(text[ranks].tolist()) + "\n" for ranks in _ranks(bits, distinct)]


def save(model: ChristoffelModel, sink) -> None:
    """Write the model as a self-describing text document.

    All floats use 17 significant digits, so the decimal text round-trips
    float64 values bit-exactly; a sha256 checksum of the payload guards
    against truncation and corruption.  ``sink`` is a path or a text file
    object.  S is ranked by panels of rows and formatted a row at a time,
    so besides the file's text `save` holds about half the size of S (an
    int32 rank per cell) and the texts of its distinct values.  The whole
    text is built before a path is opened, so a failure leaves an existing
    file as it was.
    """
    chunks = [_header(model), *_matrix_rows(model.moment_sum)]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
    chunks.append(f"checksum sha256 {digest.hexdigest()}\n")
    if hasattr(sink, "write"):
        for chunk in chunks:
            sink.write(chunk)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _parse_scalar(fields: dict, key: str, conv):
    if key not in fields:
        raise InputError(f"model file is missing the '{key}' field")
    try:
        return conv(fields[key])
    except ValueError as exc:
        raise InputError(f"model file field '{key}' is malformed: {fields[key]!r}") from exc


def _parse_matrix_cells(rows: list[str]) -> list[list[float]]:
    """The rows of S, one Python `float` per cell."""
    matrix_rows = []
    for ln in rows:
        try:
            matrix_rows.append([float(x) for x in ln.split()])
        except ValueError as exc:
            raise InputError(f"model file matrix row is malformed: {ln!r}") from exc
    return matrix_rows


def _read_matrix(lines, fields: dict) -> tuple[np.ndarray | None, int, BasisEnumeration | None]:
    """S (None unless its rows filled it), the row count and the basis, from
    the S rows ``lines`` of a model file whose fields before "S" are ``fields``.

    S is allocated only if the fields' d, n and m agree with the basis, and
    filled PANEL_ROWS lines at a time by `csvfile.float_table`, or by
    `_parse_matrix_cells` where that declines, so S gets the values, and bad
    text the message, of ``float``.  It is dropped at the first row that does
    not fit; each later line is parsed alone and counted, never stored.
    """
    S = basis = None
    with contextlib.suppress(InputError):
        m = _parse_scalar(fields, "m", int)
        basis = enumerate_basis(_parse_scalar(fields, "d", int), _parse_scalar(fields, "n", int))
        if m == len(basis):
            S = np.empty((m, m))
    rows = 0
    while panel := list(itertools.islice(lines, 1 if S is None else PANEL_ROWS)):
        table = _csvfile.float_table(panel)
        cells = _parse_matrix_cells(panel) if table is None else table
        start, rows = rows, rows + len(panel)
        if S is not None and rows <= len(S) and all(len(r) == len(S) for r in cells):
            S[start:rows] = cells
        else:
            S = None
    return (S if S is not None and rows == len(S) else None), rows, basis


def _read_model(fh) -> tuple[dict[str, str], np.ndarray | None, int, BasisEnumeration | None]:
    """The fields, S, the S row count and the basis of the model file open
    as the text file ``fh``, read once, a line at a time.

    The lines, as ``str.splitlines`` gives them (it also breaks at \\x0c,
    \\x1c, \\u2028 and the like), are the header, the fields, "S", the S
    rows (`_read_matrix`) and the checksum line, the one line not hashed.
    Nothing is raised before the end of the file; then the first problem
    of: text not UTF-8, an empty file, the header, the checksum line, the
    checksum, a malformed S row.
    """
    digest = hashlib.sha256()
    last = None
    blank = True

    def payload():
        """Every line but the last, hashed as it passes; the last stays in ``last``."""
        nonlocal last, blank
        for ln in (part for chunk in fh for part in chunk.splitlines()):
            if last is not None:
                digest.update(last.encode("utf-8"))
                digest.update(b"\n")
                yield last
            blank = blank and (not ln or ln.isspace())
            last = ln

    fields: dict[str, str] = {}
    error = None
    lines = payload()
    try:
        first = next(lines, None)  # the header, or None in a file of one line
        for ln in lines:
            if ln.strip() == "S":
                break
            key, _, value = ln.partition(" ")
            fields[key] = value
        try:
            S, rows, basis = _read_matrix(lines, fields)  # no rows if "S" is missing
        except InputError as exc:  # a malformed row: raised once the checksum is checked
            error = exc
            for _ in lines:  # the rest is hashed unparsed
                pass
    except UnicodeDecodeError as exc:
        raise InputError(f"model file is not UTF-8 text: {exc}") from exc
    if blank:
        raise InputError("model file is empty")
    first = last if first is None else first
    if first != _FORMAT_HEADER:  # quoted to 80 characters: the file may be any text
        raise InputError(
            f"unsupported model format header {first[:80]!r}{'...' * (len(first) > 80)} "
            f"(expected {_FORMAT_HEADER!r})"
        )
    if not last.startswith("checksum sha256 "):
        raise InputError("model file is missing its checksum line (truncated?)")
    if digest.hexdigest() != last.split()[-1]:
        raise InputError("model file checksum mismatch: payload corrupted")
    if error is not None:
        raise error
    return fields, S, rows, basis


def load(source) -> ChristoffelModel:
    """Read a model written by `save`.

    ``source`` is a path or a text file object, read once, a line at a time
    (`_read_model`): S is parsed by panels of lines into the array it is
    kept in, so the file's text is never held whole.  The model's own
    checks of S, N and eps report as "model file ..." after the file's.
    The model is not factored here: its first CD value takes W, so a
    model read for its fields or its spectrum is never factored, and S/N +
    eps*I that does not factor raises there.
    """
    # `model` imports this module to re-export `load` and `save`, so this
    # module imports `model` only here, when `load` runs, not at its top.
    from .model import ChristoffelModel

    with (contextlib.nullcontext(source) if hasattr(source, "read")
          else open(source, "r", encoding="utf-8")) as fh:
        fields, S, rows, bas = _read_model(fh)
    d = _parse_scalar(fields, "d", int)
    n = _parse_scalar(fields, "n", int)
    m = _parse_scalar(fields, "m", int)
    eps = _parse_scalar(fields, "epsilon", float)
    N = _parse_scalar(fields, "N", int)
    dom_text = _parse_scalar(fields, "domain", str)
    try:
        lo, hi = map(float, dom_text.split())  # two cells, each a float
    except ValueError as exc:
        raise InputError(f"model file domain is malformed: {dom_text!r}") from exc
    domain = check_domain((lo, hi))  # the rule fit --domain applies
    ordering = fields.get("basis", "")
    if ordering != _BASIS_ORDERING:
        raise InputError(f"unsupported basis ordering {ordering!r}")

    if bas is None:
        bas = enumerate_basis(d, n)
    if m != len(bas):
        raise InputError(
            f"model file says m = {m} but degree pair ({d}, {n}) has "
            f"{len(bas)} monomials"
        )
    if S is None or S.shape != (m, m):
        raise InputError(f"model file moment matrix is not {m} x {m} ({rows} rows found)")
    S.setflags(write=False)  # the model keeps it without a copy
    try:
        # Preserve the original creator so save(load(f)) reproduces f's bytes.
        model = ChristoffelModel(
            basis=bas, epsilon=eps, sample_count=N, moment_sum=S,
            domain=domain, provenance=fields.get("created-by", "fit"),
        )
    except InputError as exc:
        raise InputError(f"model file {exc}") from exc
    return model


def dumps(model: ChristoffelModel) -> str:
    """The exact text `save` would write (handy for byte-level tests)."""
    buf = io.StringIO()
    save(model, buf)
    return buf.getvalue()
