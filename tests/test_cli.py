"""End-to-end command-line tests, run in-process through main(argv)."""

import csv
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_same_text
from trajcf.cli import CSV_BLOCK_ROWS, _write_trajectory_csv, _write_wide_csv, main
from trajcf.errors import InputError
from trajcf.model import cd_value, cd_values, load
from trajcf.projection import project
from trajcf.synth import generate_example1


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A generated family plus a fitted model, shared read-only."""
    root = tmp_path_factory.mktemp("cliws")
    prefix = root / "e1"
    assert main(["synth", "example1", "--count", "120", "--seed", "0",
                 "--output", str(prefix)]) == 0
    model = root / "model.txt"
    assert main(["fit", "--input", str(prefix) + "_data.csv",
                 "--output", str(model), "--degree-d", "4", "--degree-n", "4"]) == 0
    return {
        "root": root,
        "data": str(prefix) + "_data.csv",
        "curves": str(prefix) + "_curves.csv",
        "outlier": str(prefix) + "_outlier.csv",
        "nominal": str(prefix) + "_nominal.csv",
        "model": str(model),
    }


# --- synth -----------------------------------------------------------------------

def test_synth_writes_the_four_artifacts(ws):
    for key in ("data", "curves", "outlier", "nominal"):
        lines = Path(ws[key]).read_text(encoding="utf-8").splitlines()
        assert lines, key
    data_lines = Path(ws["data"]).read_text(encoding="utf-8").splitlines()
    assert len(data_lines) == 121                       # header + one row per curve
    assert data_lines[0] == "id,c1,c2,c3,c4,c5"
    outlier_lines = Path(ws["outlier"]).read_text(encoding="utf-8").splitlines()
    assert len(outlier_lines) == 2
    assert outlier_lines[1].startswith("outlier,")


def test_synth_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        assert main(["synth", "example1", "--count", "25", "--seed", "3",
                     "--output", str(d / "x")]) == 0
    for suffix in ("_data.csv", "_curves.csv", "_outlier.csv", "_nominal.csv"):
        assert_same_text((a / ("x" + suffix)).read_bytes(), (b / ("x" + suffix)).read_bytes())


@pytest.mark.parametrize("flags, flag", [
    (["--count", "3", "--seed", str(2**64)], "--seed"),
    (["--count", "100000000000000000000"], "--count"),
    (["--count", str(2**62)], "--count"),
])
def test_synth_with_a_huge_seed_or_count_is_an_input_error(tmp_path, capsys, flags, flag):
    # numpy refuses each of these while computing a shape, before allocating
    assert main(["synth", "example1", *flags, "--output", str(tmp_path / "x")]) == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_synth_with_a_radius_whose_curves_overflow_is_an_input_error(tmp_path, capsys, example):
    # example1's outlier radius, 10 x 1e308, overflows; example2's curves do
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["synth", example, "--count", "3", "--radius=1e308",
                     "--output", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "--radius" in err and "1e+308" in err
    assert not list(tmp_path.iterdir())


def _csv_writer_wide(path, ids, coeffs):
    """The wide writer as it was, one csv.writer row per curve: the oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"c{k}" for k in range(1, coeffs.shape[1] + 1)])
        for i, row in zip(ids, coeffs.tolist()):
            writer.writerow([i or ""] + [repr(x) for x in row])


def _csv_writer_trajectory(path, ids, times, values):
    """The trajectory writer as it was, one csv.writer row per time: the oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(ids))
        for t, row in zip(times.tolist(), values):
            writer.writerow([repr(t)] + [repr(x) for x in row.tolist()])


_AWKWARD_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\rlf", "", None, "plain", ' lead']
_AWKWARD_VALUES = [-0.0, 5e-324, 1e22, 1e-07, math.inf, -math.inf, math.nan, 0.1, -1.5e-300]


@pytest.mark.parametrize("ids, coeffs", [
    (_AWKWARD_IDS, np.resize(np.array(_AWKWARD_VALUES), (len(_AWKWARD_IDS), 5))),
    ([], np.empty((0, 5))),                              # zero rows
], ids=["cells", "no-rows"])
def test_wide_writer_matches_csv_writer_byte_for_byte(tmp_path, ids, coeffs):
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    _write_wide_csv(str(ours), ids, coeffs)
    _csv_writer_wide(str(oracle), ids, coeffs)
    assert_same_text(ours.read_bytes(), oracle.read_bytes())


@pytest.mark.parametrize("ids, times, values", [
    (_AWKWARD_IDS[:-2] + ["", "x"], np.array(_AWKWARD_VALUES),
     np.resize(np.array(_AWKWARD_VALUES[::-1]), (len(_AWKWARD_VALUES), len(_AWKWARD_IDS)))),
    ([], np.array(_AWKWARD_VALUES), np.empty((len(_AWKWARD_VALUES), 0))),  # zero curves
    (["a", "b"], np.empty(0), np.empty((0, 2))),                             # zero rows
    ([], np.empty(0), np.empty((0, 0))),
], ids=["cells", "no-curves", "no-rows", "nothing"])
def test_trajectory_writer_matches_csv_writer_byte_for_byte(tmp_path, ids, times, values):
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    _write_trajectory_csv(str(ours), ids, times, values)
    _csv_writer_trajectory(str(oracle), ids, times, values)
    assert_same_text(ours.read_bytes(), oracle.read_bytes())


def test_synth_files_match_the_csv_writer_oracle(tmp_path):
    # two whole blocks of the wide writer and one of a single row
    exp = generate_example1(2 * CSV_BLOCK_ROWS + 1, 2)
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    data = exp.dataset
    _write_wide_csv(str(ours), data.ids, data.coefficient_matrix(5))
    _csv_writer_wide(str(oracle), data.ids, data.coefficient_matrix(5))
    assert_same_text(ours.read_bytes(), oracle.read_bytes())
    _write_trajectory_csv(str(ours), data.ids, data.times, data.values)
    _csv_writer_trajectory(str(oracle), data.ids, data.times, data.values)
    assert_same_text(ours.read_bytes(), oracle.read_bytes())


def test_trajectory_writer_memory_stays_row_sized(tmp_path):
    # Formatting the whole (33, 11000) table at once peaks near 27 MB, and
    # raised the benchmark's peak RSS with it; a row at a time stays near 1 MB.
    data = generate_example1(11000, 0).dataset
    tracemalloc.start()
    try:
        _write_trajectory_csv(str(tmp_path / "c.csv"), data.ids, data.times, data.values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_synth_memory_stays_near_one_copy_of_the_samples(tmp_path):
    # The samples are one (33, N) array filled by row blocks and kept by the
    # dataset uncopied, and the text is made a block of rows at a time (about
    # 2 x the samples); whole-array temporaries and a copy reach 4.67 x.
    count = 20000
    tracemalloc.start()
    try:
        assert main(["synth", "example1", "--count", str(count),
                     "--output", str(tmp_path / "x")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (33 * count * 8)


# --- fit -------------------------------------------------------------------------

def test_fit_reports_the_basis_dimension(ws, tmp_path, capsys):
    out = tmp_path / "m2.txt"
    assert main(["fit", "--input", ws["data"], "--output", str(out),
                 "--degree-d", "4", "--degree-n", "4"]) == 0
    text = capsys.readouterr().out
    assert "m=70" in text and "N=120" in text
    # same input, same flags: the model file is byte-identical
    assert_same_text(out.read_bytes(), Path(ws["model"]).read_bytes())


@pytest.mark.parametrize("d, n", [(4, 4), (8, 5)])
def test_fit_prints_the_effective_dimension_as_the_in_sample_mean_cd(tmp_path, capsys, d, n):
    prefix = str(tmp_path / "e1")
    assert main(["synth", "example1", "--count", "2000", "--seed", "0", "--output", prefix]) == 0
    out = str(tmp_path / "m.txt")
    capsys.readouterr()
    assert main(["fit", "--input", prefix + "_data.csv", "--output", out,
                 "--degree-d", str(d), "--degree-n", str(n)]) == 0
    fitted = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("# fitted:"))
    printed = float(fitted.split("effective_dimension=")[1])
    in_sample = cd_values(load(out), generate_example1(2000, seed=0).dataset.coefficient_matrix(n))
    assert printed == pytest.approx(float(np.mean(in_sample)), rel=1e-8)


def test_fit_accepts_the_trajectory_layout(ws, tmp_path):
    out = tmp_path / "mcurves.txt"
    assert main(["fit", "--input", ws["curves"], "--output", str(out),
                 "--degree-d", "2", "--degree-n", "3"]) == 0
    assert load(str(out)).sample_count == 120


def test_fit_accepts_the_coefficient_row_layout(tmp_path, capsys):
    src = tmp_path / "rows.csv"
    src.write_text("coef,a,b\n1,0.5,0.25\n2,0.1,-0.1\n")
    out = tmp_path / "m.txt"
    assert main(["fit", "--input", str(src), "--output", str(out),
                 "--degree-d", "2", "--degree-n", "2"]) == 0
    assert "N=2" in capsys.readouterr().out


def test_fit_rejects_misnumbered_coefficient_rows(tmp_path):
    src = tmp_path / "rows.csv"
    src.write_text("coef,a\n2,0.5\n")
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "m.txt"),
                 "--degree-d", "1", "--degree-n", "1"]) == 2


def test_fit_empty_file_is_an_input_error(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("")
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "m.txt")]) == 2


@pytest.mark.parametrize("text, message", [
    ("t,a\n", "the file holds no trajectories"),
    ("id,c1,c2,c3,c4\n", "the file holds no coefficient data"),
])
@pytest.mark.parametrize("command", ["fit", "score", "baseline"])
def test_an_empty_reference_file_gets_a_message_true_for_every_command(
        ws, tmp_path, capsys, command, text, message):
    empty = tmp_path / "empty.csv"
    empty.write_text(text)
    argv = {
        "fit": ["fit", "--input", str(empty), "--output", str(tmp_path / "m.txt")],
        "score": ["score", "--model", ws["model"], "--input", ws["outlier"]],
        "baseline": ["baseline", "--model", ws["model"], "--input", ws["outlier"]],
    }[command]
    if command != "fit":
        argv += ["--calibration", str(empty)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"trajcf: input error: {empty}: {message}\n"


def test_fit_unknown_header_is_an_input_error(tmp_path):
    src = tmp_path / "odd.csv"
    src.write_text("foo,bar\n1,2\n")
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "m.txt")]) == 2


def test_fit_nonnumeric_cell_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("id,c1\np,abc\n")
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "m.txt"),
                 "--degree-n", "1"]) == 2
    assert "not a number" in capsys.readouterr().err


def test_fit_missing_file_is_an_input_error(tmp_path):
    assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                 "--output", str(tmp_path / "m.txt")]) == 2


def test_fit_singular_at_zero_epsilon_is_a_numerical_error(tmp_path, capsys):
    src = tmp_path / "flat.csv"
    src.write_text("id,c1\na,1.0\nb,1.0\n")
    rc = main(["fit", "--input", str(src), "--output", str(tmp_path / "m.txt"),
               "--degree-d", "1", "--degree-n", "1", "--epsilon", "0"])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_fit_rejects_bad_domain_syntax(ws, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", ws["data"], "--output", str(tmp_path / "m.txt"),
              "--domain", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["fit", "score"])
def test_a_domain_whose_width_overflows_is_refused(ws, tmp_path, capsys, command):
    # It passes "finite and lo < hi", but mapping times onto [-1, 1] computes
    # 2 * (t - lo), which overflowed into a misleading non-finite-coefficient
    # error (a RuntimeWarning traceback under -W error).
    src = tmp_path / "three.csv"
    src.write_text("t,a\n-1,0\n0,1\n1,0\n")
    argv = {"fit": ["fit", "--input", str(src), "--output", str(tmp_path / "m.txt"),
                    "--degree-d", "1", "--degree-n", "1"],
            "score": ["score", "--model", ws["model"], "--input", ws["outlier"]]}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--domain=-1e308:1e308"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "domain needs a finite width 2 * (hi - lo), got '-1e308:1e308'" in err
    assert not (tmp_path / "m.txt").exists()


# --- score -----------------------------------------------------------------------

def test_score_training_set_summary(ws, tmp_path, capsys):
    # at epsilon = 0 the in-sample mean CD equals the basis dimension
    sharp = tmp_path / "sharp.txt"
    assert main(["fit", "--input", ws["data"], "--output", str(sharp),
                 "--degree-d", "4", "--degree-n", "4", "--epsilon", "0"]) == 0
    capsys.readouterr()
    assert main(["score", "--model", str(sharp), "--input", ws["data"]]) == 0
    text = capsys.readouterr().out
    assert "# note: no calibration data given" in text
    summary = [ln for ln in text.splitlines() if ln.startswith("# summary:")][0]
    assert "probes=120" in summary
    mean = float(summary.split("mean_cd=")[1])
    assert mean == pytest.approx(70.0, rel=1e-6)


def test_score_flags_the_designated_outlier(ws, tmp_path):
    rep = tmp_path / "rep.csv"
    assert main(["score", "--model", ws["model"], "--input", ws["outlier"],
                 "--calibration", ws["data"], "--output", str(rep)]) == 0
    lines = rep.read_text().splitlines()
    assert lines[0] == "id,cd,christoffel,threshold,verdict,baseline_l2"
    fields = lines[1].split(",")
    assert fields[0] == "outlier" and fields[4] == "Outlier"
    # the CSV round-trips floats exactly, so the CLI score equals the
    # library score on the same model file, bit for bit
    exp = generate_example1(120, seed=0)
    expected = cd_value(load(ws["model"]), exp.outlier)
    assert float(fields[1]) == expected


def test_a_probe_whose_cd_equals_tau_is_an_inlier(ws, tmp_path, capsys):
    # the 1-quantile of the calibration file is its largest CD value, so
    # scoring that file against itself puts one probe exactly at tau
    rep = tmp_path / "rep.csv"
    assert main(["score", "--model", ws["model"], "--input", ws["data"],
                 "--calibration", ws["data"], "--threshold-quantile", "1",
                 "--output", str(rep)]) == 0
    rows = [ln.split(",") for ln in rep.read_text().splitlines()[1:]]
    ties = [r for r in rows if float(r[1]) == float(r[3])]
    assert len(ties) >= 1 and {r[4] for r in rows} == {"Inlier"}
    assert "outliers=0 inliers=120" in capsys.readouterr().out


def test_score_quantile_needs_calibration_data(ws):
    assert main(["score", "--model", ws["model"], "--input", ws["outlier"],
                 "--threshold-quantile", "0.99"]) == 2


def test_score_rejects_two_threshold_rules(ws):
    assert main(["score", "--model", ws["model"], "--input", ws["outlier"],
                 "--threshold-quantile", "0.99", "--threshold-multiple", "5",
                 "--calibration", ws["data"]]) == 2


@pytest.mark.parametrize("alpha, message", [
    ("nan", "threshold multiple must be finite, got nan"),
    ("1e308", "threshold multiple 1e+308 times the basis dimension m = "),
])
def test_score_names_a_threshold_multiple_that_is_not_finite_or_overflows(ws, capsys, alpha, message):
    assert main(["score", "--model", ws["model"], "--input", ws["outlier"],
                 "--threshold-multiple", alpha]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_score_short_probe_is_a_mismatch(ws, tmp_path):
    src = tmp_path / "short.csv"
    src.write_text("id,c1,c2,c3\np,0.1,0.2,0.3\n")
    assert main(["score", "--model", ws["model"], "--input", str(src)]) == 4


def test_score_domain_flag_must_match_the_model(ws, capsys):
    assert main(["score", "--model", ws["model"], "--input", ws["outlier"],
                 "--domain", "0:1"]) == 4
    assert "mismatch" in capsys.readouterr().err


def test_score_zero_probes_is_an_empty_report(ws, tmp_path, capsys):
    src = tmp_path / "none.csv"
    src.write_text("id,c1,c2,c3,c4,c5\n")
    rep = tmp_path / "rep.csv"
    assert main(["score", "--model", ws["model"], "--input", str(src),
                 "--output", str(rep)]) == 0
    assert rep.read_text().splitlines() == ["id,cd,christoffel,threshold,verdict,baseline_l2"]
    assert "probes=0" in capsys.readouterr().out


def test_score_side_artifacts(ws, tmp_path):
    hist = tmp_path / "hist.txt"
    over = tmp_path / "overlay.csv"
    assert main(["score", "--model", ws["model"], "--input", ws["data"],
                 "--histogram-out", str(hist), "--overlay-out", str(over)]) == 0
    hlines = hist.read_text().splitlines()
    assert len(hlines) == 50
    counts = [int(ln.split()[2]) for ln in hlines]
    assert sum(counts) == 120
    edges = [float(ln.split()[0]) for ln in hlines]
    assert edges == sorted(edges)
    olines = over.read_text().splitlines()
    assert len(olines) == 202 and olines[0].startswith("t,")


# --- update / downdate --------------------------------------------------------------

def _concat_wide(dst, first, second):
    a = Path(first).read_text(encoding="utf-8").splitlines()
    b = Path(second).read_text(encoding="utf-8").splitlines()
    dst.write_text("\n".join(a + b[1:]) + "\n")


def test_update_matches_a_fresh_fit(ws, tmp_path):
    assert main(["synth", "example1", "--count", "40", "--seed", "1",
                 "--output", str(tmp_path / "b")]) == 0
    base = tmp_path / "base.txt"
    assert main(["fit", "--input", ws["data"], "--output", str(base),
                 "--degree-d", "4", "--degree-n", "4", "--epsilon", "1e-6"]) == 0
    upd = tmp_path / "upd.txt"
    assert main(["update", "--model", str(base), "--input",
                 str(tmp_path / "b_data.csv"), "--output", str(upd)]) == 0
    both = tmp_path / "both.csv"
    _concat_wide(both, ws["data"], str(tmp_path / "b_data.csv"))
    ref = tmp_path / "ref.txt"
    assert main(["fit", "--input", str(both), "--output", str(ref),
                 "--degree-d", "4", "--degree-n", "4", "--epsilon", "1e-6"]) == 0
    m_upd, m_ref = load(str(upd)), load(str(ref))
    assert m_upd.sample_count == m_ref.sample_count == 160
    probes = generate_example1(10, seed=5).dataset.coefficient_matrix(4)
    got, want = cd_values(m_upd, probes), cd_values(m_ref, probes)
    assert np.max(np.abs(got - want) / want) <= 1e-8


def test_update_with_no_rows_is_the_identity(ws, tmp_path):
    src = tmp_path / "none.csv"
    src.write_text("id,c1,c2,c3,c4,c5\n")
    out = tmp_path / "same.txt"
    assert main(["update", "--model", ws["model"], "--input", str(src),
                 "--output", str(out)]) == 0
    assert_same_text(out.read_bytes(), Path(ws["model"]).read_bytes())


@pytest.mark.parametrize("header", ["id", "id,c1", "coef", "t", "t\n-1\n1"])
@pytest.mark.parametrize("command", ["score", "baseline", "update", "downdate"])
def test_a_probe_file_with_no_rows_is_no_probes_whatever_its_width(ws, tmp_path, capsys,
                                                                   header, command):
    src = tmp_path / "none.csv"
    src.write_text(header + "\n")
    out = tmp_path / "out"
    argv = [command, "--model", ws["model"], "--input", str(src), "--output", str(out)]
    if command == "baseline":
        argv += ["--calibration", ws["data"]]
    assert main(argv) == 0, capsys.readouterr().err
    if command in ("score", "baseline"):
        header = "id,cd,christoffel,threshold,verdict,baseline_l2"
        if command == "baseline":
            header += ",naive_fraction"
        assert out.read_text().splitlines() == [header]
        assert "probes=0" in capsys.readouterr().out
    else:
        assert_same_text(out.read_bytes(), Path(ws["model"]).read_bytes())


@pytest.mark.parametrize("text, message", [
    ("t,a,b", "the file names curves but holds no sample rows"),
    ("coef,a", "the file names curves but holds no coefficients"),
    ("id\na\nb", "the file names curves but holds no coefficients"),
])
@pytest.mark.parametrize("command", ["score", "baseline", "update", "downdate"])
def test_a_probe_file_that_names_curves_but_holds_no_data_is_an_input_error(
        ws, tmp_path, capsys, command, text, message):
    src = tmp_path / "ids.csv"
    src.write_text(text + "\n")
    argv = [command, "--model", ws["model"], "--input", str(src), "--output", str(tmp_path / "out")]
    if command == "baseline":
        argv += ["--calibration", ws["data"]]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"trajcf: input error: {src}: {message}\n"


@pytest.mark.parametrize("command, code", [("score", 4), ("baseline", 4),
                                           ("update", 2), ("downdate", 2)])
def test_a_file_without_curves_still_has_its_times_checked_against_the_domain(
        ws, tmp_path, capsys, command, code):
    src = tmp_path / "late.csv"
    src.write_text("t\n5\n6\n")
    argv = [command, "--model", ws["model"], "--input", str(src), "--output", str(tmp_path / "out")]
    if command == "baseline":
        argv += ["--calibration", ws["data"]]
    capsys.readouterr()
    assert main(argv) == code
    assert f"{src}: sample times [5, 6] leave the domain [-1, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("times, message", [
    (["1", "0"], "trajectory times must be strictly increasing"),
    (["0", "0"], "trajectory times must be strictly increasing"),
    (["nan", "0"], "trajectory times contain non-finite entries"),
], ids=["decreasing", "repeated", "nan"])
@pytest.mark.parametrize("command", ["score", "baseline", "update", "downdate"])
def test_a_file_without_curves_still_has_its_grid_checked(ws, tmp_path, capsys,
                                                          command, times, message):
    # as a file with one curve on the same grid is
    out = tmp_path / "out"
    for header, cell in (("t", ""), ("t,a", ",0.5")):
        src = tmp_path / "grid.csv"
        src.write_text("\n".join([header] + [t + cell for t in times]) + "\n")
        argv = [command, "--model", ws["model"], "--input", str(src), "--output", str(out)]
        if command == "baseline":
            argv += ["--calibration", ws["data"]]
        capsys.readouterr()
        assert main(argv) == 2, header
        assert capsys.readouterr().err.startswith(f"trajcf: input error: {message}"), header
    assert not out.exists()


def test_update_then_downdate_round_trips(ws, tmp_path):
    assert main(["synth", "example1", "--count", "15", "--seed", "2",
                 "--output", str(tmp_path / "c")]) == 0
    extra = str(tmp_path / "c_data.csv")
    up = tmp_path / "up.txt"
    down = tmp_path / "down.txt"
    assert main(["update", "--model", ws["model"], "--input", extra,
                 "--output", str(up)]) == 0
    assert main(["downdate", "--model", str(up), "--input", extra,
                 "--output", str(down)]) == 0
    m0, m2 = load(ws["model"]), load(str(down))
    assert m2.sample_count == m0.sample_count
    probes = generate_example1(10, seed=5).dataset.coefficient_matrix(4)
    got, want = cd_values(m2, probes), cd_values(m0, probes)
    assert np.max(np.abs(got - want) / want) <= 1e-8


# --- baseline --------------------------------------------------------------------

def test_baseline_member_probe(ws, tmp_path):
    data_lines = Path(ws["data"]).read_text(encoding="utf-8").splitlines()
    member = tmp_path / "member.csv"
    member.write_text("\n".join(data_lines[:2]) + "\n")
    rep = tmp_path / "rep.csv"
    assert main(["baseline", "--model", ws["model"], "--input", str(member),
                 "--calibration", ws["data"], "--delta", "0",
                 "--output", str(rep)]) == 0
    lines = rep.read_text().splitlines()
    assert lines[0].endswith(",naive_fraction")
    fields = lines[1].split(",")
    assert fields[0] == "g0000"
    assert float(fields[5]) == 0.0          # zero distance to itself
    assert float(fields[6]) == 0.0          # delta = 0 can never flag a node
    assert fields[4] == "Inlier"


def test_baseline_scores_the_outlier(ws, tmp_path, capsys):
    rep = tmp_path / "rep.csv"
    assert main(["baseline", "--model", ws["model"], "--input", ws["outlier"],
                 "--calibration", ws["data"], "--output", str(rep)]) == 0
    text = capsys.readouterr().out
    assert "delta_source=in-cloud-floor" in text
    fields = rep.read_text().splitlines()[1].split(",")
    assert fields[4] == "Outlier"
    assert float(fields[5]) > 0.0
    assert 0.0 <= float(fields[6]) <= 1.0


def test_baseline_default_delta_flags_no_sampled_reference_curve(tmp_path, capsys):
    # The cloud and the probes are the same interpolated samples, so the
    # default delta (the cloud's floor) flags no node of a reference curve.
    rng = np.random.default_rng(0)
    t = np.linspace(-1.0, 1.0, 41)
    phase, z = rng.uniform(0.0, 2.0 * np.pi, 30), rng.standard_normal(30)
    values = np.sin(5.0 * t[:, None] + phase) * (1.0 + 0.05 * z)
    curves, model, rep = tmp_path / "wig.csv", tmp_path / "model.txt", tmp_path / "rep.csv"
    ids = [f"w{i:02d}" for i in range(30)]
    _write_trajectory_csv(str(curves), ids, t, values)
    assert main(["fit", "--input", str(curves), "--output", str(model), "--degree-d", "2"]) == 0
    assert main(["baseline", "--model", str(model), "--input", str(curves),
                 "--calibration", str(curves), "--output", str(rep)]) == 0
    assert "delta_source=in-cloud-floor" in capsys.readouterr().out
    rows = [line.split(",") for line in rep.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ids
    assert [float(r[5]) for r in rows] == [0.0] * 30   # baseline_l2 to itself
    assert [float(r[6]) for r in rows] == [0.0] * 30   # naive_fraction


def test_baseline_quad_points_is_the_projection_m_as_in_score(ws, tmp_path, capsys):
    # Sampled probes and calibration: --quad-points moves the projection and
    # nothing else, and the header prints that M.  Both baseline grids are fixed.
    def run(command, *flags):
        rep = tmp_path / f"{command}{len(flags)}.csv"
        capsys.readouterr()
        assert main([command, "--model", ws["model"], "--input", ws["curves"],
                     "--calibration", ws["curves"], *flags, "--output", str(rep)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        fields = dict(kv.split("=", 1) for kv in header.split(" | ")[1].split())
        return fields, [line.split(",") for line in rep.read_text().splitlines()[1:]]

    header, rows = run("baseline", "--quad-points", "65")
    _, scored = run("score", "--quad-points", "65")
    default_header, default_rows = run("baseline")
    assert [r[:5] for r in rows] == [r[:5] for r in scored]
    assert [r[1] for r in rows] != [r[1] for r in default_rows]  # M reached the projection
    assert header["delta"] == default_header["delta"]
    assert [r[6] for r in rows] == [r[6] for r in default_rows]
    assert (header["quad_points"], default_header["quad_points"]) == ("65", "256")


def test_report_ids_are_quoted_as_csv_cells(ws, tmp_path):
    # an id holding a comma or a quote must stay one cell of the report
    rows = list(csv.reader(Path(ws["data"]).read_text(encoding="utf-8").splitlines()))
    ids = ["a,b", 'q"x']
    src = tmp_path / "probes.csv"
    with src.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0]] + [[i, *row[1:]] for i, row in zip(ids, rows[1:])])
    for command, width in ((["score"], 6), (["baseline", "--calibration", ws["data"]], 7)):
        out = tmp_path / f"{command[0]}.csv"
        assert main([*command, "--model", ws["model"], "--input", str(src),
                     "--output", str(out)]) == 0
        report = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert [len(r) for r in report] == [width] * 3
        assert [r[0] for r in report[1:]] == ids


def test_baseline_requires_calibration(ws):
    assert main(["baseline", "--model", ws["model"], "--input", ws["outlier"]]) == 2


# --- info ------------------------------------------------------------------------

def test_info_prints_the_metadata(ws, capsys):
    assert main(["info", "--model", ws["model"]]) == 0
    text = capsys.readouterr().out
    assert "m 70" in text
    assert "N 120" in text
    assert "domain -1:1" in text
    assert "provenance fit" in text


def test_the_domain_info_prints_is_the_one_score_accepts(ws, tmp_path, capsys):
    model = tmp_path / "narrow.txt"
    assert main(["fit", "--input", ws["data"], "--output", str(model),
                 "--domain", "0:0.1234567"]) == 0
    assert "domain=0:0.1234567" in capsys.readouterr().out
    assert main(["info", "--model", str(model)]) == 0
    domain = next(ln.split()[1] for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("domain "))
    assert domain == "0:0.1234567"
    assert main(["score", "--model", str(model), "--input", ws["outlier"],
                 "--domain", domain]) == 0


@pytest.mark.parametrize("command", ["info", "score"])
def test_a_wrong_model_file_gives_a_short_error(ws, tmp_path, capsys, command):
    # a data file of many curves passed as --model: the message quotes only
    # the start of its first line, however long that line is
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("t" * 10**6 + "\n0.5\n", encoding="utf-8")
    probes = [] if command == "info" else ["--input", ws["outlier"]]
    assert main([command, "--model", str(wrong), *probes]) == 2
    err = capsys.readouterr().err
    assert "unsupported model format header" in err and len(err) < 300


# --- factorizations per command ----------------------------------------------------

def test_each_command_factors_each_model_it_scores_or_writes_once(ws, tmp_path, monkeypatch):
    # load does not factor, so update takes one Cholesky, downdate one plus
    # its eigenvalue check, and info only the spectrum it prints; baseline
    # factors the model and the point cloud
    calls = {"cholesky": 0, "eigvalsh": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    updated, model = str(tmp_path / "u.txt"), ws["model"]
    expected = [
        (["fit", "--input", ws["data"], "--output", str(tmp_path / "f.txt"),
          "--degree-d", "4", "--degree-n", "4"], 1, 0),
        (["score", "--model", model, "--input", ws["outlier"]], 1, 0),
        (["update", "--model", model, "--input", ws["outlier"], "--output", updated], 1, 0),
        (["downdate", "--model", updated, "--input", ws["outlier"],
          "--output", str(tmp_path / "d.txt")], 1, 1),
        (["info", "--model", model], 0, 1),
        (["baseline", "--model", model, "--input", ws["outlier"],
          "--calibration", ws["data"]], 2, 0),
    ]
    for argv, cholesky, eigvalsh in expected:
        for name in calls:
            calls[name] = 0
        assert main(argv) == 0, argv[0]
        assert calls == {"cholesky": cholesky, "eigvalsh": eigvalsh}, argv[0]


# --- batched data plane ------------------------------------------------------------

REPORT_HEADER = "id,cd,christoffel,threshold,verdict,baseline_l2"


@pytest.mark.parametrize("text", ["t\n", "t\n-1\n0\n1\n"])
def test_trajectory_file_without_curves_gives_header_only_reports(ws, tmp_path, text):
    src = tmp_path / "none.csv"
    src.write_text(text)
    rep, brep = tmp_path / "rep.csv", tmp_path / "brep.csv"
    assert main(["score", "--model", ws["model"], "--input", str(src),
                 "--output", str(rep)]) == 0
    assert rep.read_text().splitlines() == [REPORT_HEADER]
    assert main(["baseline", "--model", ws["model"], "--input", str(src),
                 "--calibration", ws["data"], "--output", str(brep)]) == 0
    assert brep.read_text().splitlines() == [REPORT_HEADER + ",naive_fraction"]


def test_curve_ids_without_sample_rows_are_an_input_error(ws, tmp_path):
    src = tmp_path / "ids.csv"
    src.write_text("t,a,b\n")
    assert main(["score", "--model", ws["model"], "--input", str(src)]) == 2


def test_nan_sample_is_an_input_error_naming_the_curve(ws, tmp_path, capsys):
    src = tmp_path / "nan.csv"
    src.write_text("t,a,b\n-1,0.1,0.2\n0,0.3,nan\n1,0.5,0.6\n")
    for argv in (["score", "--model", ws["model"]],
                 ["fit", "--output", str(tmp_path / "m.txt")]):
        capsys.readouterr()
        assert main(argv + ["--input", str(src)]) == 2
        assert "id='b'" in capsys.readouterr().err


def test_non_finite_coefficient_row_is_an_input_error_naming_the_row(ws, tmp_path, capsys):
    src = tmp_path / "inf.csv"
    src.write_text("id,c1,c2,c3,c4\na,0.1,0.2,0.3,0.4\nb,0.1,inf,0.3,0.4\n")
    model, out = ws["model"], str(tmp_path / "m.txt")
    for argv in (["fit", "--input", str(src), "--output", out],
                 ["score", "--model", model, "--input", str(src)],
                 ["update", "--model", model, "--input", str(src), "--output", out],
                 ["downdate", "--model", model, "--input", str(src), "--output", out],
                 ["baseline", "--model", model, "--input", str(src), "--calibration", ws["data"]],
                 ["score", "--model", model, "--input", ws["outlier"], "--calibration", str(src)],
                 ["baseline", "--model", model, "--input", ws["outlier"], "--calibration", str(src)]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "non-finite entries (id='b')" in capsys.readouterr().err, argv


def test_probe_times_outside_the_model_domain(ws, tmp_path):
    src = tmp_path / "late.csv"
    src.write_text("t,a\n0,0.1\n1,0.2\n2,0.3\n")
    assert main(["score", "--model", ws["model"], "--input", str(src)]) == 4
    assert main(["update", "--model", ws["model"], "--input", str(src),
                 "--output", str(tmp_path / "u.txt")]) == 2


def test_times_past_the_domain_are_reported_with_every_digit(tmp_path, capsys):
    # six significant digits printed "[0, 0.123457] leave the domain [0, 0.123457]"
    rng = np.random.default_rng(5)

    def write(name, end, curves):
        rows = zip(np.linspace(0.0, end, 12).tolist(), *rng.standard_normal((curves, 12)).tolist())
        path = tmp_path / name
        path.write_text("t," + ",".join(f"c{j}" for j in range(curves)) + "\n"
                        + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        return str(path)

    model = str(tmp_path / "model.txt")
    assert main(["fit", "--input", write("ref.csv", 0.1234567, 40), "--output", model,
                 "--degree-d", "2", "--degree-n", "2", "--domain", "0:0.1234567"]) == 0
    late = write("late.csv", 0.1234568, 2)
    capsys.readouterr()
    assert main(["score", "--model", model, "--input", late]) == 4
    assert (f"{late}: sample times [0, 0.1234568] leave the domain [0, 0.1234567]"
            in capsys.readouterr().err)


def test_sample_times_may_pass_either_end_of_the_domain_by_1e_12_of_its_width(tmp_path):
    # the domain is 10 wide, so a tolerance of 1e-12 that forgot the width would refuse 5e-12
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 10.0, 12)

    def write(name, times, curves):
        values = rng.standard_normal((times.size, curves))
        _write_trajectory_csv(str(tmp_path / name), [f"c{j}" for j in range(curves)], times, values)
        return str(tmp_path / name), values

    model = str(tmp_path / "model.txt")
    assert main(["fit", "--input", write("ref.csv", grid, 30)[0], "--output", model,
                 "--degree-d", "1", "--degree-n", "2", "--domain", "0:10"]) == 0
    for past, accepted in ((0.5e-12, True), (2e-12, False)):
        for end, sign in ((0, -1.0), (-1, 1.0)):
            times = grid.copy()
            times[end] += sign * past * 10.0
            probe, values = write("probe.csv", times, 4)
            out = str(tmp_path / "out.txt")
            codes = (main(["fit", "--input", probe, "--output", out, "--degree-d", "1",
                           "--degree-n", "2", "--domain", "0:10"]),
                     main(["score", "--model", model, "--input", probe]),
                     main(["update", "--model", model, "--input", probe, "--output", out]))
            assert codes == ((0, 0, 0) if accepted else (2, 4, 2)), (past, end)
            if accepted:
                assert project(times, values, 2, domain=(0.0, 10.0)).shape == (4, 2)
            else:
                with pytest.raises(InputError, match="leave the declared domain"):
                    project(times, values, 2, domain=(0.0, 10.0))


def test_downdate_batch_with_a_row_never_absorbed_is_a_numerical_error(ws, tmp_path, capsys):
    lines = Path(ws["data"]).read_text(encoding="utf-8").splitlines()
    src = tmp_path / "mixed.csv"
    src.write_text("\n".join(lines[:4] + ["stranger,3.0,3.0,-3.0,3.0,0.0"]) + "\n")
    assert main(["downdate", "--model", ws["model"], "--input", str(src),
                 "--output", str(tmp_path / "d.txt")]) == 3
    assert "semidefinite" in capsys.readouterr().err


def test_scoring_evaluates_monomials_once_per_stage_whatever_the_probe_count(
        ws, tmp_path, monkeypatch):
    import trajcf.basis
    import trajcf.model
    import trajcf.scoring

    calls = []
    original = trajcf.basis.eval_monomial_matrix

    def counting(coeffs, basis):
        calls.append(len(coeffs))
        return original(coeffs, basis)

    monkeypatch.setattr(trajcf.model, "eval_monomial_matrix", counting)
    monkeypatch.setattr(trajcf.scoring, "eval_monomial_matrix", counting)
    lines = Path(ws["data"]).read_text(encoding="utf-8").splitlines()
    counts = []
    for k in (7, 70):
        src = tmp_path / f"probes{k}.csv"
        src.write_text("\n".join(lines[: k + 1]) + "\n")
        calls.clear()
        assert main(["score", "--model", ws["model"], "--input", str(src),
                     "--calibration", ws["data"], "--output", str(tmp_path / "r.csv")]) == 0
        counts.append(len(calls))
        assert k in calls
    assert counts[0] == counts[1]


def test_fit_on_overflowing_coefficients_is_a_numerical_error(tmp_path, capsys):
    src = tmp_path / "huge.csv"
    src.write_text("id,c1,c2\na,1e80,-1e80\nb,2e80,1e80\nc,-1e80,3e80\n")
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "m.txt"),
                 "--degree-d", "4", "--degree-n", "2"]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "Traceback" not in err


def test_fit_whose_default_epsilon_overflows_is_a_numerical_error(tmp_path, capsys):
    # every cell of S is finite, but trace(S) is not
    src = tmp_path / "huge.csv"
    a = "5.16e153"
    src.write_text(f"id,c1,c2,c3\nu,{a},{a},{a}\nv,-{a},{a},-{a}\nw,{a},-{a},{a}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--input", str(src), "--output", str(tmp_path / "m.txt"),
                     "--degree-d", "1", "--degree-n", "3"]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "default epsilon" in err and "non-finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.txt").exists()


def _resealed(path, payload):
    """Write model payload lines to path under a valid checksum; return path."""
    import hashlib
    text = "\n".join(payload) + "\n"
    path.write_text(text + f"checksum sha256 {hashlib.sha256(text.encode()).hexdigest()}\n")
    return str(path)


def test_model_with_nan_moments_is_an_input_error(ws, tmp_path):
    payload = Path(ws["model"]).read_text(encoding="utf-8").splitlines()[:-1]
    row = payload.index("S") + 2
    cells = payload[row].split()
    cells[1] = "nan"
    payload[row] = " ".join(cells)
    bad = _resealed(tmp_path / "nan-model.txt", payload)
    assert main(["score", "--model", bad, "--input", ws["outlier"]]) == 2


def test_linear_algebra_failure_exits_as_a_numerical_error(ws, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr("trajcf.model._cholesky_in_place", fail)
    assert main(["score", "--model", ws["model"], "--input", ws["outlier"]]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "Matrix is not positive definite" in err
    assert "Traceback" not in err


def test_a_model_file_with_indefinite_moments_exits_as_a_numerical_error(ws, tmp_path, capsys):
    # A negative diagonal cell of S makes S/N + eps*I indefinite at the
    # file's eps > 0; the Cholesky factorization itself breaks down, at the
    # first CD value, since load does not factor.
    payload = Path(ws["model"]).read_text(encoding="utf-8").splitlines()[:-1]
    row = payload.index("S") + 1
    cells = payload[row].split()
    cells[0] = "-1"
    payload[row] = " ".join(cells)
    bad = _resealed(tmp_path / "indefinite.txt", payload)
    assert float(load(ws["model"]).epsilon) > 0.0
    assert main(["score", "--model", bad, "--input", ws["outlier"]]) == 3
    err = capsys.readouterr().err
    assert "Matrix is not positive definite" in err and "Traceback" not in err
    # info reads only the spectrum, whose smallest eigenvalue is negative
    assert main(["info", "--model", bad]) == 0
    out = capsys.readouterr().out
    smallest = next(ln for ln in out.splitlines() if ln.startswith("smallest_eigenvalue "))
    assert float(smallest.split()[1]) < 0.0


def _one_ulp_up(ws, tmp_path, cells):
    """The shared model file with each (row, column) cell of S one ulp up,
    resealed."""
    payload = Path(ws["model"]).read_text(encoding="utf-8").splitlines()[:-1]
    first = payload.index("S") + 1
    for i, j in cells:
        row = payload[first + i].split()
        row[j] = "%.17g" % np.nextafter(float(row[j]), np.inf)
        payload[first + i] = " ".join(row)
    return _resealed(tmp_path / "edited.txt", payload)


@pytest.mark.parametrize("command", ["info", "score", "update"])
def test_a_model_file_whose_moment_matrix_is_not_symmetric_is_an_input_error(
        ws, tmp_path, capsys, command):
    bad = _one_ulp_up(ws, tmp_path, [(3, 10)])
    argv = {
        "info": ["info", "--model", bad],
        "score": ["score", "--model", bad, "--input", ws["outlier"]],
        "update": ["update", "--model", bad, "--input", ws["outlier"],
                   "--output", str(tmp_path / "updated.txt")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "model file moment matrix is not symmetric" in err and "Traceback" not in err
    assert not (tmp_path / "updated.txt").exists()
    # the same edit of both mirrors keeps S symmetric, and the file loads
    assert main(["info", "--model", _one_ulp_up(ws, tmp_path, [(3, 10), (10, 3)])]) == 0


@pytest.mark.parametrize("target, command", [
    ("trajcf.synth.generate_example1", ["synth", "example1", "--count", "5"]),
    ("trajcf.model.fit", ["fit", "--input", None, "--degree-d", "2", "--degree-n", "2"]),
], ids=["synth", "fit"])
def test_running_out_of_memory_is_an_input_error(ws, tmp_path, monkeypatch, capsys, target, command):
    # synth example1 --count 2**56 raises numpy's _ArrayMemoryError, a MemoryError
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 EiB for an array with shape "
                          "(72057594037927936, 33) and data type float64")

    monkeypatch.setattr(target, exhausted)
    out = tmp_path / "out"
    argv = [ws["data"] if arg is None else arg for arg in command] + ["--output", str(out)]
    assert main(argv) == 2
    assert ("trajcf: input error: not enough memory: Unable to allocate 2.00 EiB"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


# --- overflowing probes -------------------------------------------------------------

OVERFLOW_ROWS = "id,c1,c2,c3,c4,c5\nbig80,1e80,-1e80,1e80,0,1e80\nbig200,1e200,0,0,0,0\n"


def test_overflowing_probes_are_scored_outliers(ws, tmp_path):
    src = tmp_path / "huge.csv"
    src.write_text(OVERFLOW_ROWS)
    for command in (["score"], ["baseline", "--calibration", ws["data"]]):
        out = tmp_path / f"{command[0]}.csv"
        assert main([*command, "--model", ws["model"], "--input", str(src),
                     "--output", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["big80", "big200"]
        for r in rows:
            assert (r[1], r[2], r[4]) == ("inf", "0.0", "Outlier")


def test_overflowing_rows_raise_no_warnings(ws, tmp_path):
    import warnings
    src = tmp_path / "huge.csv"
    src.write_text(OVERFLOW_ROWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["score", "--model", ws["model"], "--input", str(src),
                     "--output", str(tmp_path / "s.csv"),
                     "--histogram-out", str(tmp_path / "h.txt"),
                     "--overlay-out", str(tmp_path / "o.csv")]) == 0
        assert main(["baseline", "--model", ws["model"], "--input", str(src),
                     "--calibration", ws["data"], "--output", str(tmp_path / "b.csv")]) == 0
        for command in ("update", "downdate"):
            assert main([command, "--model", ws["model"], "--input", str(src),
                         "--output", str(tmp_path / "u.txt")]) == 3
        assert main(["fit", "--input", str(src), "--output", str(tmp_path / "f.txt")]) == 3
    # the two probes whose CD value overflowed sit in a last, open bin
    assert (tmp_path / "h.txt").read_text().splitlines()[-1].endswith(" inf 2")


HUGE_ROW = "huge,1e308,1e308,-1e308,1e308,0\n"


@pytest.mark.parametrize("rows, probe_ids, dropped", [
    (OVERFLOW_ROWS + HUGE_ROW, ["big80", "big200", "huge"], ["huge"]),
    ("id,c1,c2,c3,c4,c5\n" + HUGE_ROW, ["huge"], ["huge"]),
    # finite samples whose slope between two samples overflows
    ("t,ok,steep\n-1,0.5,1e308\n0,0.25,-1e308\n1,0.0,1e308\n", ["ok", "steep"], ["steep"]),
], ids=["some", "all", "samples"])
def test_overlay_leaves_out_curves_that_are_not_finite(ws, tmp_path, capsys,
                                                       rows, probe_ids, dropped):
    # an overlay with no curve left is a "t" column alone, which scores as no probes
    src, over, rep = tmp_path / "probes.csv", tmp_path / "overlay.csv", tmp_path / "rep.csv"
    src.write_text(rows)
    kept = [i for i in probe_ids if i not in dropped]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["score", "--model", ws["model"], "--input", str(src),
                     "--output", str(rep), "--overlay-out", str(over)]) == 0
        out = capsys.readouterr().out
        # the report still scores every probe
        assert [ln.split(",")[0] for ln in rep.read_text().splitlines()[1:]] == probe_ids
        assert (f"# note: overlay leaves out {len(dropped)} probe(s) whose curve is not "
                f"finite: {', '.join(map(repr, dropped))}") in out.splitlines()
        lines = over.read_text().splitlines()
        assert lines[0].split(",") == ["t", *kept] and len(lines) == 202
        assert main(["score", "--model", ws["model"], "--input", str(over),
                     "--output", str(tmp_path / "again.csv")]) == 0
    again = (tmp_path / "again.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in again[1:]] == kept
    assert f"probes={len(kept)}" in capsys.readouterr().out


# Finite, strictly increasing samples whose interpolation divides by zero or
# overflows: each command finishes without a RuntimeWarning.

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_samples_further_apart_than_the_float_range_score_as_far_away(ws, tmp_path):
    src, rep = tmp_path / "big.csv", tmp_path / "rep.csv"
    src.write_text("t,a\n-1,1e308\n0,-1e308\n1,1e308\n")  # the slopes overflow
    assert main(["baseline", "--model", ws["model"], "--input", str(src),
                 "--calibration", ws["curves"], "--output", str(rep)]) == 0
    fields = rep.read_text().splitlines()[1].split(",")
    assert fields[:2] + fields[4:] == ["a", "inf", "Outlier", "inf", "1.0"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_times_that_collapse_onto_one_unit_time_are_scored(tmp_path):
    src, model = tmp_path / "tiny.csv", str(tmp_path / "m.txt")
    src.write_text("t,a,b\n0,1,2\n1e-300,2,3\n1,3,1\n")  # 0 and 1e-300 both map to -1
    assert main(["fit", "--input", str(src), "--domain", "0:1", "--degree-d", "1",
                 "--degree-n", "2", "--output", model]) == 0
    over = tmp_path / "overlay.csv"
    assert main(["score", "--model", model, "--input", str(src), "--calibration", str(src),
                 "--output", str(tmp_path / "s.csv"), "--overlay-out", str(over)]) == 0
    lines = over.read_text().splitlines()
    assert lines[0] == "t,a,b" and len(lines) == 202
    rep = tmp_path / "b.csv"
    assert main(["baseline", "--model", model, "--input", str(src), "--calibration", str(src),
                 "--output", str(rep)]) == 0
    rows = [ln.split(",") for ln in rep.read_text().splitlines()[1:]]
    assert [(r[0], r[5], r[6]) for r in rows] == [("a", "0.0", "0.0"), ("b", "0.0", "0.0")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_domain_far_wider_than_the_grid_fits(tmp_path):
    src, model = tmp_path / "wide.csv", tmp_path / "m.txt"
    src.write_text("t,a,b\n-1,1,2\n0,2,3\n1,3,1\n")  # all three map to unit time 0
    assert main(["fit", "--input", str(src), "--domain=-1e300:1e300", "--degree-d", "1",
                 "--degree-n", "2", "--output", str(model)]) == 0
    assert load(str(model)).sample_count == 2


# --- option values and degree caps -------------------------------------------------

@pytest.mark.parametrize("command", ["fit", "score", "baseline"])
def test_zero_quadrature_points_is_an_input_error(ws, tmp_path, command):
    args = {
        "fit": ["fit", "--output", str(tmp_path / "m.txt")],
        "score": ["score", "--model", ws["model"]],
        "baseline": ["baseline", "--model", ws["model"], "--calibration", ws["data"]],
    }[command]
    assert main(args + ["--input", ws["curves"], "--quad-points", "0"]) == 2


def test_bad_quadrature_points_on_coefficient_rows_are_an_input_error(ws, tmp_path, capsys):
    # no quadrature runs for coefficient rows, but the option is checked as for curves
    capsys.readouterr()
    assert main(["fit", "--input", ws["data"], "--output", str(tmp_path / "m.txt"),
                 "--quad-points", "-5"]) == 2
    assert "quadrature point count must be an integer >= 2, got -5" in capsys.readouterr().err
    assert main(["score", "--model", ws["model"], "--input", ws["data"],
                 "--quad-points", "0"]) == 2
    assert "quadrature point count must be an integer >= 2, got 0" in capsys.readouterr().err


def test_headers_print_the_quadrature_points_used(ws, tmp_path, capsys):
    def header(argv):
        capsys.readouterr()
        assert main(argv + ["--output", str(tmp_path / "out")]) == 0
        return capsys.readouterr().out.splitlines()[0]

    assert "quad_points=64 " in header(["fit", "--input", ws["curves"], "--quad-points", "64"])
    assert "quad_points=256 " in header(["fit", "--input", ws["curves"]])
    score = ["score", "--model", ws["model"], "--input", ws["curves"]]
    assert "quad_points=64 " in header(score + ["--quad-points", "64"])
    assert "quad_points=256 " in header(score)
    baseline = ["baseline", "--model", ws["model"], "--input", ws["outlier"],
                "--calibration", ws["data"]]
    assert "quad_points=65 " in header(baseline + ["--quad-points", "65"])
    assert "quad_points=256 " in header(baseline)


def test_fit_with_a_huge_degree_pair_is_an_input_error(ws, tmp_path, capsys):
    assert main(["fit", "--input", ws["data"], "--output", str(tmp_path / "m.txt"),
                 "--degree-d", "200000", "--degree-n", "100000"]) == 2
    assert "more than 10000 monomials" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [["d"], ["d", "n"]])
def test_model_with_a_huge_degree_is_an_input_error(ws, tmp_path, capsys, fields):
    payload = Path(ws["model"]).read_text(encoding="utf-8").splitlines()[:-1]
    for key in fields:
        payload[payload.index(f"{key} 4")] = f"{key} 1000000"
    bad = _resealed(tmp_path / "huge-degree.txt", payload)
    assert main(["info", "--model", bad]) == 2
    assert "more than 10000 monomials" in capsys.readouterr().err


@pytest.mark.parametrize("line, edited, message", [
    ("domain -1 1", "domain 1 1", "invalid domain interval"),
    ("domain -1 1", "domain nan 1", "invalid domain interval"),
    ("domain -1 1", "domain -1 1e400", "invalid domain interval"),
    ("domain -1 1", "domain -1e308 1e308",
     "invalid domain interval (-1e+308, 1e+308): its width overflows"),
    ("N 120", "N 1" + "0" * 400, "beyond float range"),
], ids=["empty-domain", "nan-domain", "inf-domain", "wide-domain", "huge-N"])
@pytest.mark.parametrize("command", ["info", "score"])
def test_model_with_a_field_fit_never_writes_is_an_input_error(
        ws, tmp_path, capsys, line, edited, message, command):
    # fit --domain refuses each of these domains, so load must too; S / N
    # needs N as a float.
    payload = Path(ws["model"]).read_text(encoding="utf-8").splitlines()[:-1]
    payload[payload.index(line)] = edited
    bad = _resealed(tmp_path / "bad-field.txt", payload)
    overlay = tmp_path / "overlay.csv"
    argv = ["info", "--model", bad]
    if command == "score":
        argv = ["score", "--model", bad, "--input", ws["outlier"], "--overlay-out", str(overlay)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not overlay.exists()
