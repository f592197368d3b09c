"""The benchmark's workloads: inputs, command sequences and output checks.

Every input is made by ``trajcf synth`` and cut from its CSV files, so the
program only ever reads CSV files.  Each workload then runs a fixed sequence
of CLI commands; each command carries a check of its outputs that returns
the problems it found (an empty list when the outputs are correct).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev

from trajcf.model import TrajectoryDataset, cd_values, load
from trajcf.projection import SampledTrajectory

QUANTILE = "0.999"
OUTLIER_ID = "outlier"  # id of the designated outlier in synth's files


@dataclass(frozen=True)
class Command:
    name: str
    argv: list[str]
    check: Callable[[str], list[str]]  # captured stdout -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    d: int
    n: int
    train: int  # N, the curves or rows the model is fitted on
    held: int   # the new curves or rows that are scored or absorbed
    prepare: Callable[["Workload", str, Path], dict]  # synth prefix, dir -> inputs
    commands: Callable[["Workload", dict, Path, "Checks"], list[Command]]

    @property
    def m(self) -> int:
        return math.comb(self.d + self.n, self.n)

    @property
    def synth_count(self) -> int:
        return self.train + self.held


# ---------------------------------------------------------------------------
# reading and cutting synth's files
# ---------------------------------------------------------------------------

def _lines(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _write(path: Path, lines) -> str:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _outlier_coeffs(prefix: str) -> np.ndarray:
    row = _lines(f"{prefix}_outlier.csv")[1].split(",")
    if row[0] != OUTLIER_ID:
        raise ValueError(f"{prefix}_outlier.csv: expected the row {OUTLIER_ID!r}, got {row[0]!r}")
    return np.array([float(x) for x in row[1:]])


def _curve_columns(prefix: str):
    """Rows of synth's trajectory CSV split into cells, and its sample times."""
    rows = [line.split(",") for line in _lines(f"{prefix}_curves.csv")]
    return rows, np.array([float(r[0]) for r in rows[1:]])


def _cut_curves(path: Path, rows, columns, extra=None) -> tuple[str, list[str]]:
    """Trajectory CSV of the given curve columns, plus an optional
    (id, values) curve at the end."""
    picks = [0] + [1 + j for j in columns]
    lines = []
    for k, row in enumerate(rows):
        cells = [row[j] for j in picks]
        if extra is not None:
            cells.append(extra[0] if k == 0 else repr(float(extra[1][k - 1])))
        lines.append(",".join(cells))
    return _write(path, lines), lines[0].split(",")[1:]


def _cut_rows(path: Path, lines, start, stop, extra=()) -> tuple[str, list[str]]:
    """Wide coefficient CSV of data rows [start, stop), then ``extra`` rows."""
    body = lines[1 + start: 1 + stop] + list(extra)
    return _write(path, [lines[0]] + body), [ln.split(",", 1)[0] for ln in body]


def _series_values(coeffs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The orthonormal Chebyshev series c1 + sum_k sqrt(2) c_k T_{k-1} at times."""
    series = coeffs.copy()
    series[1:] *= math.sqrt(2.0)
    return chebyshev.chebval(times, series)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_model_header(path) -> dict[str, str]:
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() == "S":
                break
            key, _, value = line.rstrip("\n").partition(" ")
            fields[key] = value
    return fields


def read_moment_sum(path) -> np.ndarray:
    lines = _lines(path)
    start = lines.index("S") + 1
    return np.array([[float(x) for x in ln.split()] for ln in lines[start:-1]])


class Checks:
    """Output checks, with the library's reference scores cached per
    content of the model and probe files."""

    def __init__(self) -> None:
        self._reference: dict[tuple[str, str], np.ndarray] = {}

    def library_cds(self, model_path: str, probe_path: str) -> np.ndarray:
        """CD values of every probe from the library's ``cd_values`` on the
        loaded model, curves projected by the library as the CLI does."""
        key = tuple(hashlib.sha256(Path(f).read_bytes()).hexdigest()
                    for f in (model_path, probe_path))
        if key not in self._reference:
            model = load(model_path)
            rows = [ln.split(",") for ln in _lines(probe_path)]
            if rows[0][0] == "t":
                times = np.array([float(r[0]) for r in rows[1:]])
                values = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
                curves = [SampledTrajectory(times=times, values=values[:, j], id=pid,
                                            domain=model.domain)
                          for j, pid in enumerate(rows[0][1:])]
                coeffs = TrajectoryDataset.from_trajectories(curves, model.n).coefficient_matrix(model.n)
            else:
                coeffs = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
            self._reference[key] = cd_values(model, coeffs)
        return self._reference[key]

    def model(self, path: str, N: int, m: int) -> Callable[[str], list[str]]:
        def check(stdout: str) -> list[str]:
            fields = read_model_header(path)
            problems = []
            if fields.get("N") != str(N):
                problems.append(f"{path}: N is {fields.get('N')}, expected {N}")
            if fields.get("m") != str(m):
                problems.append(f"{path}: m is {fields.get('m')}, expected {m}")
            return problems
        return check

    def report(self, path: str, model_path: str, probe_path: str, probe_ids: list[str],
               in_reference: frozenset[str] | None = None) -> Callable[[str], list[str]]:
        """Checks of a score report, or of a baseline report when the
        reference set ``in_reference`` is given."""
        def check(stdout: str) -> list[str]:
            problems = []
            if f"threshold=quantile({QUANTILE})" not in stdout:
                problems.append(f"{path}: threshold is not the {QUANTILE} quantile")
            lines = _lines(path)
            rows = [ln.split(",") for ln in lines[1:]]
            ids = [r[0] for r in rows]
            if ids != probe_ids:
                return problems + [f"{path}: {len(ids)} rows do not match the "
                                   f"{len(probe_ids)} probes"]
            cds = np.array([float(r[1]) for r in rows])
            for r, cd in zip(rows, cds):
                expected = "Outlier" if cd > float(r[3]) else "Inlier"
                if r[4] != expected:
                    problems.append(f"{path}: {r[0]} has verdict {r[4]} at cd={r[1]}, threshold={r[3]}")
            if rows[ids.index(OUTLIER_ID)][4] != "Outlier":
                problems.append(f"{path}: the designated outlier is not flagged")
            reference = self.library_cds(model_path, probe_path)
            if not np.allclose(cds, reference, rtol=1e-8, atol=0.0):
                worst = float(np.max(np.abs(cds - reference) / np.abs(reference)))
                problems.append(f"{path}: cd differs from library cd_values (rel {worst:.3g})")
            if in_reference is not None:
                for r in rows:
                    if r[0] in in_reference and float(r[5]) != 0.0:
                        problems.append(f"{path}: {r[0]} is a reference curve but baseline_l2={r[5]}")
                    if not 0.0 <= float(r[6]) <= 1.0:
                        problems.append(f"{path}: {r[0]} has naive_fraction={r[6]}")
            return problems[:10]
        return check

    def round_trip(self, path: str, fitted_path: str) -> Callable[[str], list[str]]:
        """After update then downdate of the same rows, S and N are the fit's."""
        def check(stdout: str) -> list[str]:
            problems = []
            before, after = read_model_header(fitted_path), read_model_header(path)
            if after.get("N") != before.get("N"):
                problems.append(f"{path}: N is {after.get('N')}, fitted {before.get('N')}")
            S0, S1 = read_moment_sum(fitted_path), read_moment_sum(path)
            if S0.shape != S1.shape or np.max(np.abs(S1 - S0)) > 1e-9 * np.max(np.abs(S0)):
                problems.append(f"{path}: S after downdate differs from the fitted S")
            return problems
        return check


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------
# Each input is cut from one synth call of ``train + held`` curves: the first
# ``train`` are the reference set, the next ``held`` the new curves or rows.

REFERENCE_CURVES = 1_000      # the database of the nearest-L2 baseline
REFERENCE_PROBE_STEP = 50     # every 50th reference curve is also a probe
HELD_BASELINE_PROBES = 9      # plus 9 held-out curves and the outlier


def _curves_inputs(w: "Workload", prefix: str, dest: Path) -> dict:
    rows, times = _curve_columns(prefix)
    outlier = (OUTLIER_ID, _series_values(_outlier_coeffs(prefix), times))
    held_range = range(w.train, w.train + w.held)
    train, _ = _cut_curves(dest / "train.csv", rows, range(w.train))
    held, held_ids = _cut_curves(dest / "held.csv", rows, held_range, outlier)
    reference, ref_ids = _cut_curves(dest / "reference.csv", rows, range(REFERENCE_CURVES))
    probes, probe_ids = _cut_curves(
        dest / "probes.csv", rows,
        [*range(0, REFERENCE_CURVES, REFERENCE_PROBE_STEP), *held_range[:HELD_BASELINE_PROBES]],
        outlier)
    return {"train": train, "held": held, "held_ids": held_ids,
            "reference": reference, "reference_ids": frozenset(ref_ids),
            "probes": probes, "probe_ids": probe_ids}


def _rows_inputs(w: "Workload", prefix: str, dest: Path) -> dict:
    lines = _lines(f"{prefix}_data.csv")
    outlier_row = _lines(f"{prefix}_outlier.csv")[1]
    train, _ = _cut_rows(dest / "train.csv", lines, 0, w.train)
    new, _ = _cut_rows(dest / "new.csv", lines, w.train, w.train + w.held)
    held, held_ids = _cut_rows(dest / "held.csv", lines, w.train, w.train + w.held, [outlier_row])
    return {"train": train, "new": new, "held": held, "held_ids": held_ids}


def _fit(w: "Workload", inp: dict, model: str, checks: Checks) -> Command:
    return Command("fit", ["fit", "--input", inp["train"], "--output", model,
                           "--degree-d", str(w.d), "--degree-n", str(w.n)],
                   checks.model(model, N=w.train, m=w.m))


def _score(inp: dict, model: str, report: str, checks: Checks) -> Command:
    return Command("score", ["score", "--model", model, "--input", inp["held"],
                             "--calibration", inp["train"], "--threshold-quantile", QUANTILE,
                             "--output", report],
                   checks.report(report, model, inp["held"], inp["held_ids"]))


def _curves_commands(w: "Workload", inp: dict, out: Path, checks: Checks) -> list[Command]:
    model, report, breport = str(out / "model.txt"), str(out / "score.csv"), str(out / "baseline.csv")
    return [
        _fit(w, inp, model, checks),
        _score(inp, model, report, checks),
        Command("baseline", ["baseline", "--model", model, "--input", inp["probes"],
                             "--calibration", inp["reference"],
                             "--threshold-quantile", QUANTILE, "--output", breport],
                checks.report(breport, model, inp["probes"], inp["probe_ids"],
                              in_reference=inp["reference_ids"])),
    ]


def _fit_score_commands(w: "Workload", inp: dict, out: Path, checks: Checks) -> list[Command]:
    model = str(out / "model.txt")
    return [_fit(w, inp, model, checks), _score(inp, model, str(out / "score.csv"), checks)]


def _maintain_commands(w: "Workload", inp: dict, out: Path, checks: Checks) -> list[Command]:
    fitted, updated, restored = (str(out / f"{s}.txt") for s in ("fit", "update", "downdate"))
    return [
        _fit(w, inp, fitted, checks),
        Command("update", ["update", "--model", fitted, "--input", inp["new"],
                           "--output", updated],
                checks.model(updated, N=w.train + w.held, m=w.m)),
        Command("downdate", ["downdate", "--model", updated, "--input", inp["new"],
                             "--output", restored],
                checks.round_trip(restored, fitted)),
        _score(inp, restored, str(out / "score.csv"), checks),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("curves",
             "sampled-curve pipeline at (4,4): CSV parse, one projection per curve, "
             "per-probe classify and nearest-L2 loops; factorization is negligible at m=70",
             d=4, n=4, train=3_000, held=3_000,
             prepare=_curves_inputs, commands=_curves_commands),
    Workload("coef-m1287",
             "coefficient rows at (8,5), m=1287: large monomial matrices, O(N m^2) "
             "Gram/SVD and O(m^3) factorizations in fit and load; no projection",
             d=8, n=5, train=2_000, held=1_000,
             prepare=_rows_inputs, commands=_fit_score_commands),
    Workload("maintain",
             "update then downdate of 1000 rows at (4,4): about 2000 small "
             "factorizations instead of one large one, then a score of the round trip",
             d=4, n=4, train=10_000, held=1_000,
             prepare=_rows_inputs, commands=_maintain_commands),
)}
