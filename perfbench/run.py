"""trajcf benchmark: seeded workloads through the real CLI, checked outputs.

    python3 perfbench/run.py --workload curves --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from anywhere; the program is imported from ``src/`` beside this
directory, and all scratch files go to ``.perfbench_work/`` at the root.
Each run makes its inputs with ``trajcf synth`` from ``--seed``, then runs
the workload's command sequence through ``trajcf.cli.main(argv)`` (stdout
captured) again and again for ``--seconds`` and reports medians, the
times rescaled to reference seconds by a calibration loop timed between
commands.  With ``--trace 1`` it then runs the sequence once more under
the span tracer and reports per-layer metrics instead.  The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: on a machine with few shared cores, a second thread
# measures the scheduler more than the program.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
# Median time of Calibration.measure() on the machine the benchmark was tuned
# on (2 shared vCPUs, x86-64); the *_ref_s metrics are wall seconds rescaled
# by CALIBRATION_REF_S / (this run's median of it).  See README.md.
CALIBRATION_REF_S = 0.020
CALIBRATE_EVERY_S = 0.4  # one calibration per this much command time, at least one per command

sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    from trajcf import cli
    from tracer import COMPUTED, Tracer, layer_metrics
    from workloads import WORKLOADS, Checks
except ImportError as exc:
    sys.exit(f"perfbench: cannot import trajcf from {ROOT / 'src'}: {exc}")


class SetupError(RuntimeError):
    pass


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall seconds of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def warm_up() -> None:
    """Touch the BLAS and LAPACK paths the commands use before any timing."""
    a = np.random.default_rng(0).standard_normal((300, 300))
    np.linalg.eigh(a @ a.T)
    np.linalg.svd(a, full_matrices=False)


class Calibration:
    """A fixed mix of the kinds of work the commands do -- interpreter loop,
    small numpy calls, a memory stream and a BLAS product -- timed after
    every command, once per CALIBRATE_EVERY_S of its time, so that each run
    samples the machine's speed over the same stretch of time as the
    commands themselves, and samples it more where the commands run longer."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(33)
        self.stream = rng.standard_normal(1_000_000)
        self.out = np.empty_like(self.stream)
        self.matrix = rng.standard_normal((300, 300))
        self.seconds: list[float] = []

    def after(self, command_s: float) -> None:
        for _ in range(1 + int(command_s / CALIBRATE_EVERY_S)):
            self.measure()

    def measure(self) -> None:
        start = time.perf_counter()
        total = 0.0
        for i in range(60_000):
            total += i * 0.5
        for _ in range(1_000):
            np.dot(self.small, self.small * 2.0 + 1.0)
        for _ in range(2):
            np.multiply(self.stream, 1.0001, out=self.out)
        for _ in range(3):
            self.matrix @ self.matrix
        self.seconds.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns this run's wall seconds into reference seconds."""
        return CALIBRATION_REF_S / statistics.median(self.seconds)


def set_up(workload, seed: int, dest: Path):
    """Inputs of one run: synth, then cut its files.  Returns (inputs, s)."""
    dest.mkdir(parents=True)
    start = time.perf_counter()
    prefix = str(dest / "synth")
    code, _, err, _ = run_cli(["synth", "example1", "--count", str(workload.synth_count),
                               "--seed", str(seed), "--output", prefix])
    if code != 0:
        raise SetupError(f"synth exited {code}: {err.strip()}")
    inputs = workload.prepare(workload, prefix, dest)
    return inputs, time.perf_counter() - start


def run_sequence(workload, inputs, out: Path, checks: Checks, log: list[str],
                 calibration: Calibration | None = None):
    """One pass of the workload's commands, each followed by calibrations
    when a calibration is given.  Returns (seconds per command, commands
    attempted, commands failed)."""
    out.mkdir(parents=True, exist_ok=True)
    seconds, failed = {}, 0
    commands = workload.commands(workload, inputs, out, checks)
    for command in commands:
        gc.collect()  # each command starts from a collected heap, as in a fresh process
        code, stdout, stderr, seconds[command.name] = run_cli(command.argv)
        if calibration is not None:
            calibration.after(seconds[command.name])
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()}"]
        else:
            try:
                problems = command.check(stdout)
            except Exception:  # unreadable output is a failed check
                problems = [traceback.format_exc()]
        if problems:
            failed += 1
            log.extend(f"{workload.name} {command.name}: {p}" for p in problems)
    return seconds, len(commands), failed


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def environment(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed,
        "d": workload.d, "n": workload.n,
        "m": workload.m, "N": workload.train,
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": git_commit(),
    }


def measure(workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    checks, log, calibration = Checks(), [], Calibration()
    warm_up()
    setup_s, passes, attempted, failed = [], [], 0, 0

    def measured() -> float:  # checks and set-ups do not count
        return sum(sum(p.values()) for p in passes)

    # Set-ups alternate with the first passes, so that their median samples
    # several stretches of the machine's load, not one.
    while len(setup_s) < SETUP_REPEATS or measured() < seconds:
        if len(setup_s) < SETUP_REPEATS:
            inputs, took = set_up(workload, seed, run_dir / f"setup{len(setup_s)}")
            setup_s.append(took)
        if measured() < seconds:
            times, tried, bad = run_sequence(workload, inputs, run_dir / "out", checks, log,
                                             calibration)
            passes.append(times)
            attempted, failed = attempted + tried, failed + bad
    result = {"passes": passes, "setup_s": setup_s, "log": log,
              "calibration_s": calibration.seconds, "scale": calibration.scale()}
    if trace:
        with Tracer() as setup_trace:
            set_up(workload, seed, run_dir / "setup-traced")
        with Tracer() as command_trace:
            times, tried, bad = run_sequence(workload, inputs, run_dir / "out", checks, log)
        attempted, failed = attempted + tried, failed + bad
        result.update(traced_total_s=sum(times.values()),
                      trace=command_trace, setup_trace=setup_trace)
    result.update(attempted=attempted, failed=failed)
    return result


def median_of(passes, name: str) -> float:
    return statistics.median(p[name] for p in passes)


def single(args) -> int:
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        r = measure(workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in r["log"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    spec = json.loads(SPEC.read_text())
    passes = r["passes"]
    total_s = statistics.median(sum(p.values()) for p in passes)
    print(f"workload {workload.name}, seed {args.seed}: {len(passes)} passes of "
          + ", ".join(f"{sum(p.values()):.3f}" for p in passes) + " s; times are medians over passes")
    if args.trace:
        declared = spec["per_layer"]
        metrics = layer_metrics(r["trace"])
        metrics["synth.generate_s"] = layer_metrics(r["setup_trace"])["synth.generate_s"]
        metrics["trace.overhead_s"] = r["traced_total_s"] - total_s
        trace_file = WORK / "traces" / f"{workload.name}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"setup": r["setup_trace"].spans,
                                          "commands": r["trace"].spans}))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        declared = spec["end_to_end"]
        metrics = {"setup_s": statistics.median(r["setup_s"]),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                   "calibration_s": statistics.median(r["calibration_s"])}
        wall = {"total_s": total_s, **{f"{name}_s": median_of(passes, name) for name in passes[0]}}
        metrics.update({f"{name[:-2]}_ref_s": value * r["scale"] for name, value in wall.items()})
        metrics.update(wall)
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in metrics.items():
        # per-command times of a single workload are printed only, see README
        tag = "  (computed)" if name in COMPUTED else "" if name in units else "  (printed only)"
        print(f"  {name:<28} {value:>14.6f} {units.get(name, 's')}{tag}")
    error_rate = r["failed"] / r["attempted"]
    print(f"  {'error_rate':<28} {error_rate:>14.6f} ({r['failed']} of {r['attempted']} commands)")
    print("env " + json.dumps(environment(workload, args.seed)))
    print(json.dumps({
        "correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            code = child.returncode or 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    return run_all(args) if args.workload == "all" else single(args)


if __name__ == "__main__":
    sys.exit(main())
