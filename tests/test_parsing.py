"""Numeric text to arrays: numpy's C reader against the per-cell parse.

`cli._read_input` and `model.load` parse with `np.loadtxt` and fall back to
one Python ``float`` per cell wherever that reader declines.  These tests
generate inputs, clean and dirty, and check that both routes give the same
ids and the same value bits, or the same error message.
"""

import csv
import hashlib
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import assert_same_text, load_both_ways
from trajcf import cli, model as model_mod
from trajcf.errors import InputError, TrajcfError
from trajcf.model import TrajectoryDataset, dumps, fit, load

FLOAT_ONLY_CELLS = ["1_000", "١٢", "٣.٥", "1_0.5"]  # float reads them, loadtxt does not
# Cells with odd spacing or values, and cells neither reader accepts.
ODD_CELLS = FLOAT_ONLY_CELLS + [
    " 1.5 ", "infinity", "-Infinity", "nan", "-nan", "1e500", "-1e500",
    "1.5\x0c", "\x0b2", " 1.5", "1.5\xa0", "\u20031",
    "", " ", "abc", "+.5", "1.", "0x10", "1e", "1,5",
]
PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x),
    st.integers(-1000, 1000).map(str),
)
ODD_IDS = ['"x,y"', '"q""uote"', " b ", "", "été", "g 1"]
PLAIN_IDS = st.sampled_from(["a", "g0001", "outlier", "c2"])


@st.composite
def csv_texts(draw):
    """A CSV file in one of the three layouts; `clean` files avoid every
    odd cell, id, row and line ending, so the C reader parses them."""
    clean = draw(st.booleans())
    cells = PLAIN_CELLS if clean else st.one_of(PLAIN_CELLS, st.sampled_from(ODD_CELLS))
    ids = PLAIN_IDS if clean else st.one_of(PLAIN_IDS, st.sampled_from(ODD_IDS))
    layout = draw(st.sampled_from(["t", "coef", "id"]))
    width = draw(st.integers(1, 4))
    head = layout if clean else draw(st.sampled_from([layout, layout.upper(), f" {layout} "]))
    lines = [",".join([head] + [draw(ids) for _ in range(width - 1)])]
    for r in range(1, draw(st.integers(0, 5)) + 1):
        if layout == "id":
            first = draw(ids)
        elif layout == "coef":
            first = str(r) if clean else draw(st.sampled_from([str(r), f"{r}.0", f" {r} ", str(r + 1)]))
        else:
            first = draw(cells)
        row = [first] + [draw(cells) for _ in range(width - 1)]
        if not clean and draw(st.integers(0, 5)) == 0:  # a ragged row
            row = row[:-1] if draw(st.booleans()) else row + [draw(cells)]
        lines.append(",".join(row))
    if not clean:
        for extra in draw(st.lists(st.sampled_from(["", "  ", " , ", "\x0c", ","]), max_size=2)):
            lines.insert(draw(st.integers(1, len(lines))), extra)
    ending = "\n" if clean else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + (ending if draw(st.booleans()) else "")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except TrajcfError as exc:
        return type(exc).__name__, str(exc)


def _bits(a) -> tuple:
    a = np.asarray(a, dtype=float)
    return a.shape, np.ascontiguousarray(a).view(np.int64).tobytes()


def _same_parse(got, want) -> bool:
    if got[0] != "ok" or want[0] != "ok":
        return got == want
    (kind, ids, *arrays), (kind2, ids2, *arrays2) = got[1], want[1]
    return (kind, ids) == (kind2, ids2) and [_bits(a) for a in arrays] == [_bits(a) for a in arrays2]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_csv_reader_matches_the_per_cell_parse(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(cli._read_input, str(path))
    want = _outcome(cli._parse_cells, str(path), text)
    assert _same_parse(got, want), (got, want)
    # the per-cell parse reads the text as csv read the file before
    with open(path, newline="", encoding="utf-8") as fh:
        from_file = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if from_file:
        assert cli._read_rows(str(path), text) == from_file


@pytest.mark.parametrize("text", [
    "id,c1,c2\na,1,2\nb,-0.5,1e-300\n",
    "id,c1,c2\r\na, 1.5 ,infinity\r\nb,nan,1e500\r\n",
    "coef,a,b\n1,0.1,0.2\n2,0.3,0.4",
    "t,x,y\n-1,0,1\n0.5,2,3\n1,4,5\n",
    "T,x\n-1,0\n1,1\n",
])
def test_well_formed_files_take_the_c_reader(tmp_path, text):
    parsed = cli._parse_table(text)
    assert parsed is not None
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    assert _same_parse(("ok", parsed), _outcome(cli._parse_cells, str(path), text))


@pytest.mark.parametrize("text", [
    "id,c1\na,1_000\n",              # float accepts, loadtxt does not
    "id,c1\na,١\n",
    'id,c1\n"a,b",1\n',              # a quoted id
    "id,c1\na,1\n\nb,2\n",           # a blank row
    "id,c1\na,1\nb,2,3\n",           # a ragged row
    "coef,a\n2,0.5\n",               # a misnumbered row
    "t,x\n0,1\n",                    # one sample row
    "id,c1\ra,1\r",                  # lone carriage returns
])
def test_files_the_c_reader_declines_fall_back(tmp_path, text):
    assert cli._parse_table(text) is None
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _same_parse(_outcome(cli._read_input, str(path)),
                       _outcome(cli._parse_cells, str(path), text))


# --- the S block of a model file ---------------------------------------------------

BASE_MODEL = dumps(fit(TrajectoryDataset.from_coefficients(
    np.random.default_rng(90).normal(size=(40, 2))), 1, 2))   # m = 3


def reseal(payload: str) -> str:
    """A model text with the checksum `load` computes for this payload."""
    digest = hashlib.sha256(("\n".join(payload.splitlines()) + "\n").encode("utf-8")).hexdigest()
    return payload + f"checksum sha256 {digest}\n"


@st.composite
def model_texts(draw):
    """A model file whose S block has new cells and spacing: plain numbers
    only, cells only ``float`` reads, or any odd cell, row and line."""
    mode = draw(st.sampled_from(["plain", "float-only", "dirty"]))
    cells_of = {"plain": PLAIN_CELLS, "float-only": st.sampled_from(FLOAT_ONLY_CELLS),
                "dirty": st.one_of(PLAIN_CELLS, st.sampled_from(ODD_CELLS))}[mode]
    lines = BASE_MODEL.splitlines()[:-1]
    start = lines.index("S") + 1
    rows = []
    for ln in lines[start:]:
        cells = ln.split()
        for j in range(len(cells)):
            if draw(st.integers(0, 3)) == 0:
                cells[j] = draw(cells_of)
        if mode == "dirty" and draw(st.integers(0, 3)) == 0:
            cells = cells[:-1]                       # a row of m - 1 cells
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        rows.append(pad + sep.join(cells) + draw(st.sampled_from(["", " "])))
    if mode == "dirty":
        for extra in draw(st.lists(st.sampled_from(["", "   ", "\x0c", "\x0c1 2 3"]), max_size=2)):
            rows.insert(draw(st.integers(0, len(rows))), extra)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return reseal(ending.join(lines[:start] + rows) + ending)


def _same_model(got, want) -> bool:
    if got[0] != "ok" or want[0] != "ok":
        return got == want
    return all(_bits(getattr(got[1], f)) == _bits(getattr(want[1], f))
               for f in ("moment_sum", "inverse_factor"))


@settings(max_examples=300, deadline=None)
@given(text=model_texts())
def test_model_matrix_reader_matches_the_per_cell_parse(text):
    got = _outcome(load, io.StringIO(text))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "_float_table", lambda *args, **kwargs: None)
        want = _outcome(load, io.StringIO(text))
    assert _same_model(got, want), (got, want)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=model_texts())
def test_streaming_load_matches_the_all_lines_reader(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    streamed, read = load_both_ways(path)
    assert streamed == read, (streamed, read)


def test_a_saved_model_takes_the_c_reader():
    rows = BASE_MODEL.splitlines()[:-1]
    S = model_mod._float_table(rows[rows.index("S") + 1:])
    assert S is not None and S.shape == (3, 3)
    assert _bits(S) == _bits(load(io.StringIO(BASE_MODEL)).moment_sum)


def test_blank_line_in_the_matrix_keeps_the_shape_error():
    lines = BASE_MODEL.splitlines()[:-1]
    lines.insert(lines.index("S") + 2, "")
    with pytest.raises(InputError, match="not 3 x 3"):
        load(io.StringIO(reseal("\n".join(lines) + "\n")))


# --- load from a path: S streamed by panels against the all-lines reader ------------

WIDE_MODEL = dumps(fit(TrajectoryDataset.from_coefficients(
    np.random.default_rng(91).normal(size=(400, 17))), 2, 17))   # m = 171: two panels


def _edited(edit, sealed=True):
    lines = WIDE_MODEL.splitlines()[:-1]
    first = lines.index("S") + 1
    text = edit(lines, first)
    return reseal(text) if sealed else text + WIDE_MODEL.splitlines(keepends=True)[-1]


def _cell(row, value):
    def edit(lines, first):
        cells = lines[first + row].split()
        cells[3] = value(cells[3]) if callable(value) else value
        lines[first + row] = " ".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def _field(old, new):
    def edit(lines, first):
        lines[lines.index(old)] = new
        return "\n".join(lines) + "\n"
    return edit


def _mark(mark, row):
    def edit(lines, first):
        lines[first + row] = lines[first + row][:7] + mark + lines[first + row][7:]
        return "\n".join(lines) + "\n"
    return edit


STREAMED_CASES = {
    "saved": WIDE_MODEL,
    "crlf": WIDE_MODEL.replace("\n", "\r\n"),
    "malformed-cell": _edited(_cell(140, "1.5x")),
    "float-only-cell": _edited(_cell(140, lambda cell: re.sub(r"(\d)(\d)", r"\1_\2", cell, 1))),
    "nan-cell": _edited(_cell(3, "nan")),
    "one-row-short": _edited(lambda lines, first: "\n".join(lines[:-1]) + "\n"),
    "one-row-too-many": _edited(lambda lines, first: "\n".join(lines + [lines[-1]]) + "\n"),
    "blank-line-in-S": _edited(lambda lines, first: "\n".join(
        lines[:first + 130] + [""] + lines[first + 130:]) + "\n"),
    "m-disagrees": _edited(_field("m 171", "m 170")),
    "m-above-cap": _edited(_field("m 171", "m 20000")),
    "d-above-cap": _edited(_field("d 2", "d 1000000")),
    "bad-epsilon": _edited(_field(WIDE_MODEL.splitlines()[4], "epsilon x")),
    "wide-domain": _edited(_field("domain -1 1", "domain -1e308 1e308")),
    "no-S-marker": _edited(lambda lines, first: "\n".join(lines[:first - 1] + lines[first:]) + "\n"),
    "truncated-in-S": WIDE_MODEL[:len(WIDE_MODEL) // 2],
    "truncated-in-S-resealed": reseal(WIDE_MODEL[:WIDE_MODEL.index("\n", len(WIDE_MODEL) // 2) + 1]),
    "checksum-corrupted": WIDE_MODEL[:-3] + "00\n",
    "line-after-checksum": WIDE_MODEL + "0\n",
    "x0c-in-S": _edited(_mark("\x0c", 150), sealed=False),
    "x0c-in-S-resealed": _edited(_mark("\x0c", 150)),
    "x1c-in-S-resealed": _edited(_mark("\x1c", 20)),
    "u2028-in-S-resealed": _edited(_mark("\u2028", 150)),
    "u2028-in-S": _edited(_mark("\u2028", 150), sealed=False),
}


@pytest.mark.parametrize("name", list(STREAMED_CASES))
def test_streamed_load_gives_the_values_or_the_message_of_the_all_lines_reader(tmp_path, name):
    path = tmp_path / "m.txt"
    path.write_bytes(STREAMED_CASES[name].encode("utf-8"))
    streamed, read = load_both_ways(path)
    assert streamed == read, (streamed[:2], read[:2])
    accepted = name in ("saved", "crlf", "bad-epsilon", "wide-domain", "nan-cell")
    assert (model_mod._stream_document(path) is not None) == accepted
    assert (read[0] == "ok") == (name in ("saved", "crlf", "float-only-cell"))


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
def test_a_streamed_model_saves_back_byte_for_byte(tmp_path, symmetric):
    text = WIDE_MODEL if symmetric else _edited(_cell(140, lambda cell: "%.17g" % np.nextafter(
        float(cell), np.inf)))      # S[140, 3] is one ulp off S[3, 140], as in a hand edit
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    assert model_mod._stream_document(path) is not None
    model = load(path)
    assert (model.moment_sum[140, 3] == model.moment_sum[3, 140]) == symmetric
    assert_same_text(dumps(model), text)


def test_a_streamed_load_enumerates_its_basis_once(tmp_path, monkeypatch):
    path = tmp_path / "m.txt"
    path.write_bytes(WIDE_MODEL.encode("utf-8"))
    calls = []
    enumerate_basis = model_mod.enumerate_basis
    monkeypatch.setattr(model_mod, "enumerate_basis",
                        lambda d, n: calls.append((d, n)) or enumerate_basis(d, n))
    model = load(path)
    assert calls == [(model.d, model.n)]


def test_a_file_that_is_not_utf8_in_S_gives_the_same_message(tmp_path):
    data = WIDE_MODEL.encode("utf-8")
    at = data.index(b"\n", len(data) // 2) + 3
    path = tmp_path / "m.txt"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    streamed, read = load_both_ways(path)
    assert streamed == read and "not UTF-8" in read[1]


@pytest.mark.parametrize("name", ["m-above-cap", "d-above-cap", "m-disagrees"])
def test_a_header_that_disagrees_with_its_basis_allocates_no_matrix(tmp_path, name):
    import tracemalloc
    path = tmp_path / "m.txt"
    path.write_bytes(STREAMED_CASES[name].encode("utf-8"))
    tracemalloc.start()
    try:
        assert model_mod._stream_document(path) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000   # S at m = 171 is 234 kB; at m = 20000, 3.2 GB
