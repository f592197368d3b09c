"""Exact counts from the benchmark's span tracer on tiny inputs.

    python3 -m pytest perfbench/test_tracer.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from trajcf import cli, model, projection, scoring  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


@pytest.fixture
def seven(tmp_path):
    """synth files with 7 curves, and a (4, 4) model fitted on their rows."""
    prefix = tmp_path / "e"
    assert cli.main(["synth", "example1", "--count", "7", "--seed", "3",
                     "--output", str(prefix)]) == 0
    assert cli.main(["fit", "--input", f"{prefix}_data.csv",
                     "--output", str(tmp_path / "rows.txt")]) == 0
    return prefix


def test_fitting_seven_curves_projects_seven_times_and_factors_once(tmp_path, seven):
    with Tracer() as trace:
        assert cli.main(["fit", "--input", f"{seven}_curves.csv",
                         "--output", str(tmp_path / "m.txt")]) == 0
    m = layer_metrics(trace)
    assert m["projection.project_calls"] == 7
    assert m["model.factorizations"] == 1
    assert m["basis.monomial_calls"] == 1
    assert m["basis.monomial_rows"] == 7
    assert m["basis.monomial_mb"] == 7 * 70 * 8 / 1e6
    # thin SVD of the 7 scaled rows stacked on sqrt(eps) * I (77 x 70)
    assert m["model.factor_gflop"] == pytest.approx((14 * 77 * 70**2 + 8 * 70**3) / 1e9)
    assert m["model.cd_calls"] == m["scoring.classify_calls"] == 0
    assert m["cli.fit_s"] > 0 and m["cli.read_input_s"] > 0 and m["model.save_s"] > 0


def test_scoring_rows_counts_each_probe_once(tmp_path, seven):
    with Tracer() as trace:
        assert cli.main(["score", "--model", str(tmp_path / "rows.txt"),
                         "--input", f"{seven}_data.csv", "--calibration", f"{seven}_data.csv",
                         "--output", str(tmp_path / "r.csv")]) == 0
    m = layer_metrics(trace)
    assert m["projection.project_calls"] == 0
    assert m["model.factorizations"] == 1            # the eigh in load
    assert m["model.factor_gflop"] == pytest.approx(9 * 70**3 / 1e9)
    assert m["scoring.classify_calls"] == 7
    assert m["model.cd_calls"] == 7 + 1              # classify per probe, calibrate once
    assert m["model.cd_rows"] == 7 + 7
    assert m["basis.monomial_calls"] == 8
    assert m["basis.rows_per_call"] == 14 / 8


def test_bindings_are_restored_and_outside_factorizations_ignored():
    before = (cli.project, model.eval_monomial_matrix, scoring.eval_monomial_matrix,
              np.linalg.svd, scoring.PointwiseChristoffel.__dict__["fit"])
    with Tracer() as trace:
        assert cli.project is projection.project is not before[0]
        assert model.eval_monomial_matrix is scoring.eval_monomial_matrix is not before[1]
        np.linalg.svd(np.eye(3))
    after = (cli.project, model.eval_monomial_matrix, scoring.eval_monomial_matrix,
             np.linalg.svd, scoring.PointwiseChristoffel.__dict__["fit"])
    assert all(a is b for a, b in zip(after, before))
    assert layer_metrics(trace)["model.factorizations"] == 0


def test_self_time_leaves_out_nested_spans():
    trace = Tracer()
    trace.spans.extend([
        ["cli.main", 0.0, 10.0, -1],
        ["cli.read_input", 1.0, 3.0, 0],
        ["model.fit", 3.0, 9.0, 0],
        ["model.factor", 4.0, 8.0, 2],
    ])
    m = layer_metrics(trace)
    assert m["cli.self_s"] == 2.0
    assert m["cli.read_input_s"] == 2.0
    assert m["model.self_s"] == 2.0
    assert m["model.factor_s"] == 4.0
