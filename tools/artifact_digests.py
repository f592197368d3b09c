"""Digests of every file and stdout a fixed trajcf CLI pipeline writes.

    python tools/artifact_digests.py --seed 0 [--src DIR]

Runs, in a new temporary directory and through ``trajcf.cli.main``:
``synth`` (two families of curves) -> ``fit`` (curves at (4, 4) and
coefficient rows at (8, 5)) -> ``score`` (with ``--histogram-out`` and
``--overlay-out``; with the default threshold; and with
``--threshold-multiple 10``, the report printed to stdout) -> ``update``
-> ``downdate`` -> ``baseline`` -> ``info``.  Every path is relative to
that directory, so the output does not depend on where it is.  Prints one
``sha256  name`` line per command's stdout (``<step>.stdout``) and per
file the command wrote, in pipeline order.  Two checkouts that write the
same bytes print the same lines, so a change that must not alter any
output is checked by diffing two runs; see README.md.  ``--src`` imports
trajcf from another source tree (default: the ``src/`` beside this
script).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pipeline(seed: int) -> list[tuple[str, list[str]]]:
    """The (step, argv) pairs of the pipeline at ``seed``."""
    return [
        ("synth-ref", ["synth", "example1", "--count", "300", "--seed", str(seed),
                       "--output", "ref"]),
        ("synth-new", ["synth", "example2", "--count", "40", "--seed", str(seed + 1),
                       "--output", "new"]),
        ("fit-curves", ["fit", "--input", "ref_curves.csv", "--output", "curves.model",
                        "--degree-d", "4", "--degree-n", "4"]),
        ("fit-coef", ["fit", "--input", "ref_data.csv", "--output", "coef.model",
                      "--degree-d", "8", "--degree-n", "5"]),
        ("score-curves", ["score", "--model", "curves.model", "--input", "new_curves.csv",
                          "--calibration", "ref_curves.csv", "--output", "score_curves.csv",
                          "--histogram-out", "histogram.txt", "--overlay-out", "overlay.csv"]),
        ("score-coef", ["score", "--model", "coef.model", "--input", "ref_outlier.csv",
                        "--output", "score_coef.csv"]),
        ("score-stdout", ["score", "--model", "curves.model", "--input", "new_curves.csv",
                          "--threshold-multiple", "10"]),
        ("update", ["update", "--model", "curves.model", "--input", "new_curves.csv",
                    "--output", "updated.model"]),
        ("downdate", ["downdate", "--model", "updated.model", "--input", "new_curves.csv",
                      "--output", "downdated.model"]),
        ("baseline", ["baseline", "--model", "curves.model", "--input", "new_curves.csv",
                      "--calibration", "ref_curves.csv", "--output", "baseline.csv"]),
        ("info", ["info", "--model", "downdated.model"]),
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(seed: int) -> list[str]:
    """The ``sha256  name`` lines of one run of the pipeline at ``seed``."""
    from trajcf import cli

    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="trajcf-digests-") as tmp:
        os.chdir(tmp)
        try:
            for step, argv in pipeline(seed):
                before = set(os.listdir("."))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                if code != 0:
                    sys.exit(f"artifact_digests: step {step} exited with {code}")
                lines.append(f"{_sha256(out.getvalue().encode('utf-8'))}  {step}.stdout")
                for name in sorted(set(os.listdir(".")) - before):
                    lines.append(f"{_sha256(Path(name).read_bytes())}  {name}")
        finally:
            os.chdir(cwd)
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="synth seed (default 0)")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to import trajcf from (default: src/ of this checkout)")
    args = parser.parse_args()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(args.src).resolve()))
    for line in digests(args.seed):
        print(line)


if __name__ == "__main__":
    main()
