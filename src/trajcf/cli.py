"""Command-line front end.

Subcommands: fit, score, update, downdate, synth, baseline, info.  Exit
codes: 0 success, 2 input error, 3 numerical error, 4 model/probe
mismatch.  Every run prints a header line with the effective settings
(including defaulted ones) so results are auditable; no timestamps or
other run-varying text is ever emitted, which makes all artifacts
byte-reproducible.

Input and output CSV files are read and written by `csvfile`, which knows
the three layouts; `_read_dataset` applies the CLI's rules to what it reads.

``score`` and ``baseline`` take every probe's CD value from one
`model.cd_values` call and render the report from that array with
`scoring.report_lines`; the summary and the histogram read the same array.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import csvfile as _csvfile
from . import model as _model
from . import modelfile as _modelfile
from . import scoring as _scoring
from . import synth as _synth
from .csvfile import read_input as _read_input  # the name perfbench's tracer wraps
from .errors import InputError, MismatchError, NumericalError
from .dataset import TrajectoryDataset
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
# input and output files
# ---------------------------------------------------------------------------

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
        first, last, lo, hi = map(_csvfile.float_text, (times[0], times[-1], lo, hi))
        raise outside(f"{path}: sample times [{first}, {last}] leave the domain [{lo}, {hi}]")
    coeffs = project(times, values, n, quad_points, domain, ids=ids)
    return TrajectoryDataset(coeffs, ids=ids, domain=domain, times=times, values=values)


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
        if not np.all(edges[1:] > edges[:-1]):  # too few floats from lo to hi for 50 bins
            top = max(abs(lo), abs(hi))
            width = 128 * (top - float(np.nextafter(top, 0.0)))
            if math.isfinite(lo + width):
                hi = max(hi, lo + width)
            else:
                lo = hi - width
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
    _csvfile.write_trajectories(path, kept, t, curves[finite].T)
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"domain needs finite lo and hi, got {text!r}")
    try:
        return check_domain((lo, hi))
    except DomainWidthError:
        raise argparse.ArgumentTypeError(f"domain needs a finite width 2 * (hi - lo), got {text!r}")
    except InputError:
        raise argparse.ArgumentTypeError(f"domain needs lo < hi, got {text!r}")


def _joined_domains(argv: list[str]) -> list[str]:
    """``argv`` with each ``--domain lo:hi`` whose lo starts with '-' joined
    into ``--domain=lo:hi``: argparse reads such a value as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--domain" and arg.startswith("-") and ":" in arg:
            out[-1] = f"--domain={arg}"
        else:
            out.append(arg)
    return out


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
        ("domain", ":".join(map(_csvfile.float_text, args.domain))),
    ])
    dataset = _read_dataset(args.input, args.domain, args.degree_n, args.quad_points,
                            reference=True)
    model = _model.fit(dataset, args.degree_d, args.degree_n, epsilon=args.epsilon)
    _modelfile.save(model, args.output)
    print(f"# fitted: m={model.size} N={model.sample_count} "
          f"epsilon={model.epsilon!r} "
          f"effective_dimension={model.effective_dimension()!r}")
    print(f"# wrote {args.output}")
    return EXIT_OK


def cmd_score(args) -> int:
    model = _modelfile.load(args.model)
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
    model = _modelfile.load(args.model)
    _header(command, [
        ("model", args.model), ("input", args.input), ("output", args.output),
    ])
    batch = _read_dataset(args.input, model.domain, model.n, args.quad_points)
    model = op(model, batch.coeffs)
    _modelfile.save(model, args.output)
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
    _csvfile.write_wide(data_path, exp.dataset.ids, exp.dataset.coeffs)
    _csvfile.write_trajectories(curves_path, exp.dataset.ids, exp.dataset.times, exp.dataset.values)
    _csvfile.write_wide(outlier_path, ["outlier"], exp.outlier[None, :])
    _csvfile.write_wide(nominal_path, ["nominal"], exp.nominal[None, :])
    for p in paths:
        print(f"# wrote {p}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    model = _modelfile.load(args.model)
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
    model = _modelfile.load(args.model)
    _header("info", [("model", args.model)])
    print(f"d {model.d}")
    print(f"n {model.n}")
    print(f"m {model.size}")
    print(f"epsilon {model.epsilon!r}")
    print(f"N {model.sample_count}")
    print("domain " + ":".join(map(_csvfile.float_text, model.domain)))
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
    args = parser.parse_args(_joined_domains(sys.argv[1:] if argv is None else list(argv)))
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
