"""Byte-level fuzzing of the command line's inputs.

Model files (with the checksum re-sealed, so the parser behind it is
reached) and CSV files get random bytes replaced, inserted or deleted, and
then go through ``score``, ``update``, ``fit`` and ``info``.  Every run must
end in a documented exit code -- 0, 2, 3 or 4 -- and never in an uncaught
exception.  A mutated model file must also load to the same model, or fail
with the same message, as `load` with the all-lines reader it replaced
gives, from a path and from a file object.
"""

import contextlib
import csv
import hashlib
import io
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import load_both_ways
from trajcf import cli

EXIT_CODES = {0, 2, 3, 4}

CHUNKS = st.one_of(
    st.binary(min_size=1, max_size=3),
    st.sampled_from([b"\n", b"\r", b"\r\n", b" ", b",", b"-", b"e", b"9", b"0", b".",
                     b"nan", b"inf", b"1e500", b"\x00", b"\xff", b'"', b"\x0c", b"_"]),
)
MUTATIONS = st.lists(
    st.tuples(st.one_of(st.integers(0, 300), st.integers(0, 1 << 20)),
              st.sampled_from(["replace", "insert", "delete"]), CHUNKS),
    min_size=1, max_size=4,
)


def mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for position, op, chunk in mutations:
        i = position % (len(out) + 1)
        if op == "replace":
            out[i:i + len(chunk)] = chunk
        elif op == "insert":
            out[i:i] = chunk
        else:
            del out[i:i + len(chunk)]
    return bytes(out)


def reseal(data: bytes) -> bytes:
    """The bytes with their last line replaced by the checksum `load`
    expects; bytes that are not UTF-8 text are left as they are."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return data
    payload = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return (payload + f"checksum sha256 {digest}\n").encode("utf-8")


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A (2, 2) model fitted on 25 synth rows, and the synth CSV files."""
    d = tmp_path_factory.mktemp("fuzz")
    assert run(["synth", "example1", "--count", "25", "--seed", "4", "--output", str(d / "e")]) == 0
    assert run(["fit", "--input", str(d / "e_data.csv"), "--degree-d", "2", "--degree-n", "2",
                "--output", str(d / "model.txt")]) == 0
    rows = [ln.split(",") for ln in (d / "e_data.csv").read_text().splitlines()[1:6]]
    (d / "e_coef.csv").write_text("\n".join(   # the same rows in the coefficient-row layout
        [",".join(["coef"] + [r[0] for r in rows])]
        + [",".join([str(k)] + [r[k] for r in rows]) for k in range(1, 4)]) + "\n")
    assert run(["update", "--model", str(d / "model.txt"), "--input", str(d / "e_coef.csv"),
                "--output", str(d / "out.txt")]) == 0
    return d


FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@FUZZ
@given(mutations=MUTATIONS, sealed=st.booleans())
def test_mutated_model_files_end_in_a_documented_exit_code(inputs, mutations, sealed):
    data = mutate((inputs / "model.txt").read_bytes(), mutations)
    bad = inputs / "bad_model.txt"
    bad.write_bytes(reseal(data) if sealed else data)
    rows = str(inputs / "e_data.csv")
    for argv in (
        ["info", "--model", str(bad)],
        ["score", "--model", str(bad), "--input", str(inputs / "e_outlier.csv"),
         "--calibration", rows],
        ["score", "--model", str(bad), "--input", str(inputs / "e_curves.csv")],
        ["update", "--model", str(bad), "--input", rows, "--output", str(inputs / "out.txt")],
    ):
        assert run(argv) in EXIT_CODES, argv


@FUZZ
@given(mutations=MUTATIONS, sealed=st.booleans(), as_file=st.booleans())
def test_mutated_model_files_load_alike_streamed_or_read_whole(inputs, mutations, sealed, as_file):
    data = mutate((inputs / "model.txt").read_bytes(), mutations)
    bad = inputs / "bad_model.txt"
    bad.write_bytes(reseal(data) if sealed else data)
    once, whole = load_both_ways(bad, as_file)
    assert once == whole, (once[:2], whole[:2])


@FUZZ
@given(name=st.sampled_from(["e_data.csv", "e_curves.csv", "e_coef.csv"]), mutations=MUTATIONS)
def test_mutated_csv_files_end_in_a_documented_exit_code(inputs, name, mutations):
    bad = inputs / f"bad_{name}"
    bad.write_bytes(mutate((inputs / name).read_bytes(), mutations))
    model = str(inputs / "model.txt")
    for argv in (
        ["fit", "--input", str(bad), "--degree-d", "2", "--degree-n", "2",
         "--output", str(inputs / "fit.txt")],
        ["score", "--model", model, "--input", str(bad), "--calibration", str(bad)],
        ["update", "--model", model, "--input", str(bad), "--output", str(inputs / "out.txt")],
    ):
        assert run(argv) in EXIT_CODES, argv


# Finite coefficients whose curves overflow: Clenshaw's sums reach inf, and inf - inf.
HUGE_PROBES = "id,c1,c2,c3,c4,c5\nhuge,1e308,1e308,-1e308,1e308,0\nplain,0,0.2,0.2,0.2,0\n"


@pytest.mark.parametrize("command", ["score", "baseline"])
def test_probes_whose_curves_overflow_score_as_far_away(inputs, tmp_path, command):
    probes = tmp_path / "huge.csv"
    probes.write_text(HUGE_PROBES)
    report = tmp_path / "report.csv"
    extra = ["--overlay-out", str(tmp_path / "overlay.csv")] if command == "score" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([command, "--model", str(inputs / "model.txt"), "--input", str(probes),
                    "--calibration", str(inputs / "e_data.csv"), "--output", str(report),
                    *extra]) == 0
    huge, plain = csv.DictReader(report.read_text().splitlines())
    assert (huge["cd"], huge["verdict"]) == ("inf", "Outlier")
    if command == "baseline":
        assert (huge["baseline_l2"], huge["naive_fraction"]) == ("inf", "1.0")
        assert float(plain["baseline_l2"]) < 1.0
