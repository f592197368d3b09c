"""Numeric text to arrays: numpy's C reader against the per-cell parse.

`cli._read_input` and `model.load` parse with `np.loadtxt` and fall back to
one Python ``float`` per cell wherever that reader declines.  These tests
generate inputs, clean and dirty, and check that both routes give the same
ids and the same value bits, or the same error message.

`model.load` reads a model file once, a line at a time, and parses S by
panels of lines.  The all-lines reader it replaced, kept as a test-only
oracle (`helpers.read_model_whole`), holds every line and parses S whole;
`load` must give the model, or the error, that `load` with the oracle
gives, from a path and from a file object.
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
from trajcf import cli, model as model_mod, modelfile
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
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    parsed = cli._parse_table(str(path), text)
    assert parsed is not None
    assert _same_parse(("ok", parsed), _outcome(cli._parse_cells, str(path), text))


@pytest.mark.parametrize("text", [
    "id,c1\na,1_000\n",              # float accepts, loadtxt does not
    "id,c1\na,١\n",
    'id,c1\n"a,b",1\n',              # a quoted id
    "id,c1\na,1\n\nb,2\n",           # a blank row
    "id,c1\na,1\nb,2,3\n",           # a ragged row
    "id,c1\ra,1\r",                  # lone carriage returns
    " , \nt,x\n0,1\n1,2\n",           # a blank first row, which csv skips
])
def test_files_the_c_reader_declines_fall_back(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert cli._parse_table(str(path), text) is None
    assert _same_parse(_outcome(cli._read_input, str(path)),
                       _outcome(cli._parse_cells, str(path), text))


LAYOUT_RULE_BREAKS = {
    "coef,a\n2,0.5\n": "row 2 says coefficient 2, expected 1",
    "coef,a\n1.0000001,0.5\n": "row 2 says coefficient 1.0000001, expected 1",  # not "1"
    "t,x\n0,1\n": "trajectories need at least 2 sample rows",
}


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("text", list(LAYOUT_RULE_BREAKS))
def test_a_layout_rule_gives_one_message_by_either_route(tmp_path, text, ending):
    message = LAYOUT_RULE_BREAKS[text]
    text = text.replace("\n", ending)
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = ("InputError", f"{path}: {message}")
    assert _outcome(cli._parse_table, str(path), text) == want
    assert _outcome(cli._parse_cells, str(path), text) == want


@pytest.mark.parametrize("excess", [-1, 0, 1])
@pytest.mark.parametrize("layout", ["id", "t"])
def test_a_cell_at_the_csv_field_limit(tmp_path, layout, excess):
    limit = csv.field_size_limit()
    long_id = "a" * (limit + excess)
    text = (f"id,c1\n{long_id},1\n" if layout == "id"
            else f"t,{long_id}\n-1,0\n1,1\n")
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    got = _outcome(cli._read_input, str(path))
    assert _same_parse(got, _outcome(cli._parse_cells, str(path), text))
    # the C reader takes cells below the limit; csv takes one at the limit
    assert (cli._parse_table(str(path), text) is not None) == (excess < 0)
    if excess > 0:
        assert got == ("InputError", f"{path}: field larger than field limit ({limit})")
    else:
        assert got[0] == "ok" and got[1][1] == [long_id]


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


def _load_factored(source):
    """`load`, then the factor: a file whose factor breaks down is an outcome too."""
    return model_mod._factored(load(source))


def _same_model(got, want) -> bool:
    if got[0] != "ok" or want[0] != "ok":
        return got == want
    return all(_bits(getattr(got[1], f)) == _bits(getattr(want[1], f))
               for f in ("moment_sum", "inverse_factor"))


@settings(max_examples=300, deadline=None)
@given(text=model_texts())
def test_model_matrix_reader_matches_the_per_cell_parse(text):
    got = _outcome(_load_factored, io.StringIO(text))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelfile, "float_table", lambda *args, **kwargs: None)
        want = _outcome(_load_factored, io.StringIO(text))
    assert _same_model(got, want), (got, want)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=model_texts(), as_file=st.booleans())
def test_streaming_load_matches_the_all_lines_reader(tmp_path, text, as_file):
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    once, whole = load_both_ways(path, as_file)
    assert once == whole, (once, whole)


def test_a_saved_model_takes_the_c_reader():
    rows = BASE_MODEL.splitlines()[:-1]
    S = modelfile.float_table(rows[rows.index("S") + 1:])
    assert S is not None and S.shape == (3, 3)
    assert _bits(S) == _bits(load(io.StringIO(BASE_MODEL)).moment_sum)


def test_blank_line_in_the_matrix_keeps_the_shape_error():
    lines = BASE_MODEL.splitlines()[:-1]
    lines.insert(lines.index("S") + 2, "")
    with pytest.raises(InputError, match="not 3 x 3"):
        load(io.StringIO(reseal("\n".join(lines) + "\n")))


# --- S read by panels against the all-lines reader ----------------------------------

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


def _fills_S(path) -> bool:
    """Whether the reader parses the file's S into an m x m array."""
    try:
        with open(path, encoding="utf-8") as fh:
            return modelfile._read_model(fh)[1] is not None
    except InputError:
        return False


@pytest.mark.parametrize("name", list(STREAMED_CASES))
def test_streamed_load_gives_the_values_or_the_message_of_the_all_lines_reader(tmp_path, name):
    path = tmp_path / "m.txt"
    path.write_bytes(STREAMED_CASES[name].encode("utf-8"))
    once, whole = load_both_ways(path)
    assert once == whole, (once[:2], whole[:2])
    assert load_both_ways(path, as_file=True) == (once, whole)
    filled = name in ("saved", "crlf", "float-only-cell", "bad-epsilon", "wide-domain", "nan-cell")
    assert _fills_S(path) == filled
    assert (whole[0] == "ok") == (name in ("saved", "crlf", "float-only-cell"))


def test_a_streamed_model_saves_back_byte_for_byte(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(WIDE_MODEL.encode("utf-8"))
    assert _fills_S(path)
    assert_same_text(dumps(load(path)), WIDE_MODEL)


def test_a_streamed_model_one_ulp_off_symmetric_is_rejected(tmp_path):
    # S[140, 3], in the second panel, is one ulp off S[3, 140], as in a hand edit
    text = _edited(_cell(140, lambda cell: "%.17g" % np.nextafter(float(cell), np.inf)))
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _fills_S(path)
    once, whole = load_both_ways(path)
    assert once == whole == ("InputError", "model file moment matrix is not symmetric")


def test_a_streamed_load_enumerates_its_basis_once(tmp_path, monkeypatch):
    path = tmp_path / "m.txt"
    path.write_bytes(WIDE_MODEL.encode("utf-8"))
    calls = []
    enumerate_basis = modelfile.enumerate_basis
    monkeypatch.setattr(modelfile, "enumerate_basis",
                        lambda d, n: calls.append((d, n)) or enumerate_basis(d, n))
    model = load(path)
    assert calls == [(model.d, model.n)]


def test_a_file_that_is_not_utf8_in_S_gives_the_same_message(tmp_path):
    data = WIDE_MODEL.encode("utf-8")
    at = data.index(b"\n", len(data) // 2) + 3
    path = tmp_path / "m.txt"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    once, whole = load_both_ways(path)
    assert once == whole and "not UTF-8" in whole[1]


@pytest.mark.parametrize("width", [80, 81])
def test_a_wrong_header_is_quoted_to_80_characters(tmp_path, width):
    path = tmp_path / "m.txt"
    path.write_text("x" * width + "\nchecksum sha256 0\n", encoding="utf-8")
    once, whole = load_both_ways(path)
    quoted = repr("x" * 80) + "..." * (width > 80)
    assert once == whole == ("InputError", f"unsupported model format header {quoted} "
                                           "(expected 'trajcf model 1')")


def test_a_file_object_that_is_not_utf8_is_an_input_error(tmp_path):
    data = WIDE_MODEL.encode("utf-8")
    at = data.index(b"\n", len(data) // 2) + 3
    bad = data[:at] + b"\xff" + data[at:]
    path = tmp_path / "m.txt"
    path.write_bytes(bad)
    with pytest.raises(InputError, match="model file is not UTF-8 text: ") as from_file:
        load(io.TextIOWrapper(io.BytesIO(bad), encoding="utf-8"))
    with pytest.raises(InputError) as from_path:
        load(path)
    assert str(from_file.value) == str(from_path.value)


@pytest.mark.parametrize("name", ["m-above-cap", "d-above-cap", "m-disagrees"])
def test_a_header_that_disagrees_with_its_basis_allocates_no_matrix(tmp_path, name):
    import tracemalloc
    path = tmp_path / "m.txt"
    path.write_bytes(STREAMED_CASES[name].encode("utf-8"))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="m = |the cap"):
            load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000   # S at m = 171 is 234 kB; at m = 20000, 3.2 GB
