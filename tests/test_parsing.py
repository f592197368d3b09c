"""Numeric text to arrays: numpy's C reader against the per-cell parse.

`cli._read_input` and `model.load` parse with `np.loadtxt` and fall back to
one Python ``float`` per cell wherever that reader declines.  These tests
generate inputs, clean and dirty, and check that both routes give the same
ids and the same value bits, or the same error message.
"""

import csv
import hashlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
