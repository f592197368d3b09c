"""Command-line front end.

Subcommands: fit, score, update, downdate, synth, baseline, info.  Exit
codes: 0 success, 2 input error, 3 numerical error, 4 model/probe
mismatch.  Every run prints a header line with the effective settings
(including defaulted ones) so results are auditable; no timestamps or
other run-varying text is ever emitted, which makes all artifacts
byte-reproducible.

Three CSV layouts are auto-detected by the first header cell:

* ``t``    — trajectory layout: first column sample times, one curve per
             subsequent column, header carries the ids;
* ``coef`` — coefficient layout: row k holds coefficient k of every curve,
             one curve per column;
* ``id``   — wide coefficient layout: one curve per row, ``id,c1,...,cn``.

``score`` and ``baseline`` take every probe's CD value from one
`model.cd_values` call and render the report from that array with
`scoring.report_lines`; the summary and the histogram read the same array.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import model as _model
from . import scoring as _scoring
from . import synth as _synth
from .errors import InputError, MismatchError, NumericalError
from .model import TrajectoryDataset
from .projection import (
    DomainWidthError,
    check_domain,
    default_quad_points,
    project,
    quad_point_count,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4


# ---------------------------------------------------------------------------
# CSV plumbing
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


def _read_input(path: str):
    """Parse any accepted layout.

    Returns ``("traj", ids, times, values)`` with values shaped (M, K), or
    ``("coef", ids, coeffs)`` with coeffs shaped (K, n).  Numeric cells
    accept exactly what Python's ``float`` accepts: numpy's C reader
    (`_parse_table`) parses the file when it can, and `_parse_cells`, one
    ``float`` per cell, parses the files it declines and names what is wrong.
    Both only split the text into cells and convert them; `_layout` alone
    reads the header cell and applies the layouts' rules.  A file may name
    no curves or hold no data: `_read_dataset` decides what that means.
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
            raise InputError(f"{path}: row {r + 1} says coefficient {_scoring.float_text(k)}, "
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
        table = _model._float_table(body, ",", range(first, width) if first else None)
        return table if table is not None and table.shape[1] == width - first else None

    return _layout(path, header, [ln.partition(",")[0] for ln in body], floats)


def _parse_cells(path: str, text: str):
    """`_read_input` with one Python ``float`` per cell."""
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


def _read_dataset(path: str, domain, n: int, quad_points, outside=InputError,
                  reference: bool = False) -> TrajectoryDataset:
    """The file at ``path`` as a dataset: curves projected to n coefficients
    in one pass, or coefficient rows as given.  A ``reference`` set that
    names no curve or holds no data is an input error, as is any file that
    names curves but holds no data; any other file that names no curves is
    an empty dataset, though `project` still checks its sample times.
    Sample times past an end of ``domain`` by more than 1e-12 of
    its width (`projection._check_grid`'s rule) raise ``outside``."""
    parsed = _read_input(path)
    kind, ids, data = parsed[:3]
    held = data.size if kind == "traj" else data.shape[1]
    if reference and not (ids and held):
        raise InputError(f"{path}: the file holds no "
                         + ("trajectories" if kind == "traj" else "coefficient data"))
    if ids and not held:
        raise InputError(f"{path}: the file names curves but holds no "
                         + ("sample rows" if kind == "traj" else "coefficients"))
    if kind == "coef":
        if quad_points is not None:  # unused by coefficient rows, but checked as for curves
            quad_point_count(n, quad_points)
        return TrajectoryDataset(data, ids=ids, domain=domain)
    times, values = data, parsed[3]
    lo, hi = domain
    span = hi - lo
    if times.size and (times[0] < lo - 1e-12 * span or times[-1] > hi + 1e-12 * span):
        first, last, lo, hi = map(_scoring.float_text, (times[0], times[-1], lo, hi))
        raise outside(f"{path}: sample times [{first}, {last}] leave the domain [{lo}, {hi}]")
    coeffs = project(times, values, n, quad_points, domain, ids=ids)
    return TrajectoryDataset(coeffs, ids=ids, domain=domain, times=times, values=values)


# Data rows are joined here rather than by csv.writer, which costs more than
# the repr of each cell; they match its default dialect byte for byte.  The
# wide writer formats CSV_BLOCK_ROWS rows at a time, so its Python floats and
# strings stay block-sized; no byte depends on it.
_CSV_EOL = "\r\n"
CSV_BLOCK_ROWS = 1024


def _write_wide_csv(path: str, ids, coeffs: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["id"] + [f"c{k}" for k in range(1, coeffs.shape[1] + 1)])
        for s in range(0, coeffs.shape[0], CSV_BLOCK_ROWS):
            rows = coeffs[s:s + CSV_BLOCK_ROWS].tolist()
            fh.write("".join(",".join([_scoring.csv_cell(i or ""), *map(repr, row)]) + _CSV_EOL
                             for i, row in zip(ids[s:s + CSV_BLOCK_ROWS], rows)))


def _write_trajectory_csv(path: str, ids, times, values) -> None:
    """Curves sampled at ``times``, ``values`` (T, K) one curve per column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t"] + list(ids))
        for t, row in zip(times.tolist(), values):
            fh.write(",".join(map(repr, [t, *row.tolist()])) + _CSV_EOL)


def _write_histogram(path: str, cds) -> None:
    cds = np.asarray(cds, dtype=float)
    finite = cds[np.isfinite(cds)]
    if finite.size == 0:
        edges = np.array([0.0, 1.0])
        counts = np.array([0])
    else:
        lo, hi = float(finite.min()), float(finite.max())
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, 51)
        counts, _ = np.histogram(finite, bins=edges)
    if finite.size < cds.size:  # probes whose CD value overflowed get a last, open bin
        edges = np.append(edges, np.inf)
        counts = np.append(counts, cds.size - finite.size)
    with open(path, "w", encoding="utf-8") as fh:
        for i, cnt in enumerate(counts):
            fh.write(f"{float(edges[i])!r} {float(edges[i + 1])!r} {int(cnt)}\n")


def _write_overlay(path: str, probes: TrajectoryDataset) -> list:
    """Plot-ready curves: 201 uniformly spaced points across the domain.

    A probe whose curve is not finite at all 201 points (huge coefficients,
    or samples whose slopes overflow) is left out, so the file stays a
    trajectory file that `score` reads back; returns the ids left out.
    """
    lo, hi = probes.domain
    t = np.linspace(lo, hi, 201)
    curves = probes.on_nodes(np.linspace(-1.0, 1.0, 201))
    finite = np.isfinite(curves).all(axis=1)
    kept = [i for i, ok in zip(probes.ids, finite.tolist()) if ok]
    _write_trajectory_csv(path, kept, t, curves[finite].T)
    return [i for i, ok in zip(probes.ids, finite.tolist()) if not ok]


# ---------------------------------------------------------------------------
# shared option plumbing
# ---------------------------------------------------------------------------

def _domain_arg(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"domain must look like lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"domain must be numeric lo:hi, got {text!r}")
    try:
        return check_domain((lo, hi))
    except DomainWidthError:
        raise argparse.ArgumentTypeError(f"domain needs a finite width 2 * (hi - lo), got {text!r}")
    except InputError:
        raise argparse.ArgumentTypeError(f"domain needs lo < hi, got {text!r}")


def _header(command: str, pairs) -> None:
    rendered = " ".join(f"{k}={v}" for k, v in pairs)
    print(f"# trajcf {command} | {rendered}")


def _quad_points(args, n: int) -> int:
    """The projection's M: the --quad-points given, or the default for n."""
    return default_quad_points(n) if args.quad_points is None else args.quad_points


def _resolve_threshold(model, args, calibration: TrajectoryDataset | None):
    if args.threshold_multiple is not None and args.threshold_quantile is not None:
        raise InputError("choose one of --threshold-quantile / --threshold-multiple")
    if args.threshold_multiple is not None:
        return _scoring.calibrate(model, None, method="multiple",
                                  param=args.threshold_multiple), ""
    if calibration is not None:
        q = _scoring.DEFAULT_QUANTILE if args.threshold_quantile is None else args.threshold_quantile
        return _scoring.calibrate(model, calibration, method="quantile", param=q), ""
    if args.threshold_quantile is not None:
        raise InputError("--threshold-quantile needs --calibration data to take a quantile of")
    thr = _scoring.calibrate(model, None, method="multiple")
    return thr, f"no calibration data given; defaulting to {thr.method}"


def _load_calibration(args, model) -> TrajectoryDataset | None:
    """The --calibration file as a dataset, or None without one."""
    if args.calibration is None:
        return None
    return _read_dataset(args.calibration, model.domain, model.n, args.quad_points,
                         reference=True)


def _emit_report(lines: list[str], output: str | None) -> None:
    if output is None:
        for ln in lines:
            print(ln)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    eps_text = "auto(1e-8*trace/m)" if args.epsilon is None else repr(args.epsilon)
    _header("fit", [
        ("input", args.input), ("output", args.output),
        ("d", args.degree_d), ("n", args.degree_n),
        ("epsilon", eps_text), ("quad_points", _quad_points(args, args.degree_n)),
        ("domain", ":".join(map(_scoring.float_text, args.domain))),
    ])
    dataset = _read_dataset(args.input, args.domain, args.degree_n, args.quad_points,
                            reference=True)
    model = _model.fit(dataset, args.degree_d, args.degree_n, epsilon=args.epsilon)
    _model.save(model, args.output)
    print(f"# fitted: m={model.size} N={model.sample_count} "
          f"epsilon={model.epsilon!r} "
          f"effective_dimension={model.effective_dimension()!r}")
    print(f"# wrote {args.output}")
    return EXIT_OK


def cmd_score(args) -> int:
    model = _model.load(args.model)
    if args.domain is not None and tuple(args.domain) != model.domain:
        raise MismatchError(
            f"probe domain {args.domain} does not match the model domain {model.domain}"
        )
    calibration = _load_calibration(args, model)
    threshold, note = _resolve_threshold(model, args, calibration)
    _header("score", [
        ("model", args.model), ("input", args.input),
        ("epsilon", repr(model.epsilon)),
        ("quad_points", _quad_points(args, model.n)),
        ("threshold", threshold.method), ("tau", repr(threshold.value)),
    ])
    if note:
        print(f"# note: {note}")
    probes = _read_dataset(args.input, model.domain, model.n, args.quad_points, MismatchError)
    cds = _model.cd_values(model, probes.coeffs)
    n_out = _scoring.verdicts(cds, threshold.value).count("Outlier")
    lines = _scoring.report_lines(probes.ids, cds, threshold.value)
    _emit_report([_scoring.report_header(), *lines], args.output)
    if args.histogram_out:
        _write_histogram(args.histogram_out, cds)
        print(f"# wrote histogram {args.histogram_out}")
    if args.overlay_out:
        dropped = _write_overlay(args.overlay_out, probes)
        if dropped:
            print(f"# note: overlay leaves out {len(dropped)} probe(s) whose curve is not "
                  f"finite: {', '.join(map(repr, dropped))}")
        print(f"# wrote overlay {args.overlay_out}")
    mean = float(np.mean(cds)) if cds.size else float("nan")
    print(f"# summary: probes={cds.size} outliers={n_out} "
          f"inliers={cds.size - n_out} mean_cd={mean!r}")
    return EXIT_OK


def _absorb(args, op, command: str) -> int:
    model = _model.load(args.model)
    _header(command, [
        ("model", args.model), ("input", args.input), ("output", args.output),
    ])
    batch = _read_dataset(args.input, model.domain, model.n, args.quad_points)
    model = op(model, batch.coeffs)
    _model.save(model, args.output)
    print(f"# absorbed={len(batch.ids)} N={model.sample_count}")
    print(f"# wrote {args.output}")
    return EXIT_OK


def cmd_update(args) -> int:
    return _absorb(args, _model.update, "update")


def cmd_downdate(args) -> int:
    return _absorb(args, _model.downdate, "downdate")


def cmd_synth(args) -> int:
    _header("synth", [
        ("example", args.example), ("count", args.count), ("seed", args.seed),
        ("radius", repr(args.radius)), ("output", args.output),
    ])
    if args.example == "example1":
        exp = _synth.generate_example1(args.count, args.seed, radius=args.radius)
    else:
        exp = _synth.generate_example2(args.count, args.seed, radius=args.radius)
    paths = [f"{args.output}_{part}.csv" for part in ("data", "curves", "outlier", "nominal")]
    data_path, curves_path, outlier_path, nominal_path = paths
    _write_wide_csv(data_path, exp.dataset.ids, exp.dataset.coeffs)
    _write_trajectory_csv(curves_path, exp.dataset.ids, exp.dataset.times, exp.dataset.values)
    _write_wide_csv(outlier_path, ["outlier"], exp.outlier[None, :])
    _write_wide_csv(nominal_path, ["nominal"], exp.nominal[None, :])
    for p in paths:
        print(f"# wrote {p}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    model = _model.load(args.model)
    calibration = _load_calibration(args, model)
    if calibration is None:
        raise InputError("baseline scoring needs --calibration (the reference database)")
    threshold, note = _resolve_threshold(model, args, calibration)
    cloud = _scoring.PointwiseChristoffel.fit(calibration, args.baseline_degree)
    delta = cloud.cloud_floor if args.delta is None else args.delta
    _header("baseline", [
        ("model", args.model), ("input", args.input), ("calibration", args.calibration),
        ("threshold", threshold.method), ("tau", repr(threshold.value)),
        ("baseline_degree", args.baseline_degree),
        ("quad_points", _quad_points(args, model.n)),
        ("delta", repr(delta)),
        ("delta_source", "in-cloud-floor" if args.delta is None else "flag"),
    ])
    if note:
        print(f"# note: {note}")
    probes = _read_dataset(args.input, model.domain, model.n, args.quad_points, MismatchError)
    l2 = _scoring.nearest_trajectory_score(calibration, probes)
    cds = _model.cd_values(model, probes.coeffs)
    fractions = cloud.fraction_below(probes, delta)
    lines = _scoring.report_lines(probes.ids, cds, threshold.value, l2)
    _emit_report([_scoring.report_header() + ",naive_fraction",
                  *(f"{ln},{frac!r}" for ln, frac in zip(lines, fractions.tolist()))],
                 args.output)
    print(f"# summary: probes={cds.size}")
    return EXIT_OK


def cmd_info(args) -> int:
    model = _model.load(args.model)
    _header("info", [("model", args.model)])
    print(f"d {model.d}")
    print(f"n {model.n}")
    print(f"m {model.size}")
    print(f"epsilon {model.epsilon!r}")
    print(f"N {model.sample_count}")
    print("domain " + ":".join(map(_scoring.float_text, model.domain)))
    spectrum = model.spectrum()
    print(f"smallest_eigenvalue {float(spectrum[0])!r}")
    print(f"largest_eigenvalue {float(spectrum[-1])!r}")
    print(f"provenance {model.provenance}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp, *, model=False, input_=False, output=False):
    if model:
        sp.add_argument("--model", required=True, help="model file path")
    if input_:
        sp.add_argument("--input", required=True, help="input CSV path")
    if output:
        sp.add_argument("--output", help="output path (default: stdout for reports)")
    sp.add_argument("--quad-points", type=int, default=None,
                    help="quadrature point count M of the projection (default: max(256, 8n))")


def _add_threshold_flags(sp):
    sp.add_argument("--threshold-quantile", type=float, default=None,
                    help="nearest-rank quantile over --calibration data (default 0.999)")
    sp.add_argument("--threshold-multiple", type=float, default=None,
                    help="threshold = multiple * basis dimension")
    sp.add_argument("--calibration", default=None,
                    help="CSV of reference data for quantile calibration / baselines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajcf",
        description="Detect abnormal trajectories against a reference database "
                    "via Christoffel-Darboux scores on orthonormal coefficient embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model from a trajectory/coefficient CSV")
    _add_common(p_fit, input_=True)
    p_fit.add_argument("--output", required=True, help="model file to write")
    p_fit.add_argument("--degree-d", type=int, default=4, help="algebraic degree bound (default 4)")
    p_fit.add_argument("--degree-n", type=int, default=4, help="harmonic degree bound (default 4)")
    p_fit.add_argument("--epsilon", type=float, default=None,
                       help="diagonal shift; default auto = 1e-8 * trace(S/N)/m; 0 demands nonsingularity")
    p_fit.add_argument("--domain", type=_domain_arg, default=(-1.0, 1.0),
                       help="time domain lo:hi of the input curves (default -1:1)")
    p_fit.set_defaults(func=cmd_fit)

    p_score = sub.add_parser("score", help="score probe trajectories against a model")
    _add_common(p_score, model=True, input_=True, output=True)
    _add_threshold_flags(p_score)
    p_score.add_argument("--domain", type=_domain_arg, default=None,
                         help="expected probe domain lo:hi; must match the model")
    p_score.add_argument("--histogram-out", default=None,
                         help="write 'lo hi count' histogram bins of the probe CD values")
    p_score.add_argument("--overlay-out", default=None,
                         help="write probe curves sampled at 201 uniform points (trajectory CSV)")
    p_score.set_defaults(func=cmd_score)

    p_update = sub.add_parser("update", help="absorb new trajectories into a model")
    _add_common(p_update, model=True, input_=True)
    p_update.add_argument("--output", required=True, help="model file to write")
    p_update.set_defaults(func=cmd_update)

    p_down = sub.add_parser("downdate", help="remove absorbed trajectories from a model")
    _add_common(p_down, model=True, input_=True)
    p_down.add_argument("--output", required=True, help="model file to write")
    p_down.set_defaults(func=cmd_downdate)

    p_synth = sub.add_parser("synth", help="generate the bundled synthetic experiments")
    p_synth.add_argument("example", choices=("example1", "example2"),
                         help="which synthetic family to generate")
    p_synth.add_argument("--count", type=int, default=1000, help="number of reference curves")
    p_synth.add_argument("--seed", type=int, default=0, help="generator seed")
    p_synth.add_argument("--radius", type=float, default=_synth.DEFAULT_RADIUS,
                         help="inlier perturbation radius (default 0.1)")
    p_synth.add_argument("--output", required=True,
                         help="path prefix; writes <prefix>_{data,curves,outlier,nominal}.csv")
    p_synth.set_defaults(func=cmd_synth)

    p_base = sub.add_parser("baseline", help="score probes with the CD model and both baselines")
    _add_common(p_base, model=True, input_=True, output=True)
    _add_threshold_flags(p_base)
    p_base.add_argument("--baseline-degree", type=int, default=4,
                        help="total degree of the bivariate pointwise model (default 4)")
    p_base.add_argument("--delta", type=float, default=None,
                        help="pointwise cutoff; default: smallest in-cloud pointwise value")
    p_base.set_defaults(func=cmd_baseline)

    p_info = sub.add_parser("info", help="print a model file's metadata")
    p_info.add_argument("--model", required=True, help="model file path")
    p_info.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"trajcf: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"trajcf: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MismatchError as exc:
        print(f"trajcf: model/probe mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except np.linalg.LinAlgError as exc:
        print(f"trajcf: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"trajcf: i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"trajcf: input error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
