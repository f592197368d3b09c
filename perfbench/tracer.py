"""In-memory span tracer for the trajcf package.

A span is recorded around each call to a traced function: its name, start,
end and the index of the span that was open when it began (its parent).
Counters recorded at the same boundaries give the work done (rows, bytes,
floating-point operations) next to the time it took.

Each traced function is replaced at every binding in a ``trajcf`` module
that refers to it, because several modules import by name: ``cli`` holds
its own ``project``, ``model`` and ``scoring`` their own
``eval_monomial_matrix``.  The ``numpy.linalg`` factorizations are wrapped
as well and recorded only when called from code inside ``trajcf``, so the
count survives the removal of a helper such as ``_factor_from_moments``.

Use as a context manager; leaving it restores every binding.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name)
FUNCTIONS = (
    ("trajcf.cli", "main", "cli.main"),
    ("trajcf.cli", "_read_input", "cli.read_input"),
    ("trajcf.cli", "cmd_fit", "cli.fit"),
    ("trajcf.cli", "cmd_score", "cli.score"),
    ("trajcf.cli", "cmd_baseline", "cli.baseline"),
    ("trajcf.cli", "cmd_update", "cli.update"),
    ("trajcf.cli", "cmd_downdate", "cli.downdate"),
    ("trajcf.cli", "cmd_synth", "cli.synth"),
    ("trajcf.projection", "project", "projection.project"),
    ("trajcf.basis", "eval_monomial_matrix", "basis.monomial"),
    ("trajcf.model", "fit", "model.fit"),
    ("trajcf.model", "update", "model.update"),
    ("trajcf.model", "downdate", "model.downdate"),
    ("trajcf.model", "cd_value", "model.cd"),
    ("trajcf.model", "cd_values", "model.cd"),
    ("trajcf.model", "load", "model.load"),
    ("trajcf.model", "save", "model.save"),
    ("trajcf.scoring", "classify", "scoring.classify"),
    ("trajcf.scoring", "calibrate", "scoring.calibrate"),
    ("trajcf.scoring", "nearest_trajectory_score", "scoring.nearest_l2"),
    ("trajcf.synth", "generate_example1", "synth.generate"),
    ("trajcf.synth", "generate_example2", "synth.generate"),
)

# (module, class, method, span name); classmethods keep their binding.
METHODS = (
    ("trajcf.model", "TrajectoryDataset", "from_trajectories", "model.dataset"),
    ("trajcf.model", "TrajectoryDataset", "from_coefficients", "model.dataset"),
    ("trajcf.scoring", "PointwiseChristoffel", "fit", "scoring.pointwise"),
    ("trajcf.scoring", "PointwiseChristoffel", "fraction_below", "scoring.pointwise"),
)

FACTOR_SPAN = "model.factor"

# Metrics derived from array shapes rather than measured.
COMPUTED = ("model.factor_gflop", "basis.monomial_mb")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _monomial_work(args, kwargs):
    rows = np.shape(_arg(args, kwargs, 0, "coeffs"))[0]
    m = len(_arg(args, kwargs, 1, "basis"))
    return {"basis.monomial_rows": rows, "basis.monomial_bytes": 8 * rows * m}


def _cd_value_work(args, kwargs):
    return {"model.cd_rows": 1}


def _cd_values_work(args, kwargs):
    return {"model.cd_rows": np.shape(_arg(args, kwargs, 1, "coeff_matrix"))[0]}


_COUNTERS = {
    ("trajcf.basis", "eval_monomial_matrix"): _monomial_work,
    ("trajcf.model", "cd_value"): _cd_value_work,
    ("trajcf.model", "cd_values"): _cd_values_work,
}


def _svd_flop(r, c, full_matrices=True, compute_uv=True, **_):
    big, small = max(r, c), min(r, c)
    if not compute_uv:
        return 4 * big * small ** 2 - 4 * small ** 3 / 3
    if full_matrices:
        return 4 * big ** 2 * small + 8 * big * small ** 2 + 9 * small ** 3
    return 14 * big * small ** 2 + 8 * small ** 3


def _square(flop_of_n):
    return lambda r, c, **_: flop_of_n(c)


# Floating-point operations of the LAPACK routines behind numpy.linalg, from
# the counts in Golub & Van Loan, Matrix Computations (4th ed.), sections
# 5.2, 4.2, 8.3 and figure 8.6.1.  They are computed, not measured.
FACTORIZATIONS = {
    "svd": _svd_flop,
    "eigh": _square(lambda n: 9 * n ** 3),
    "eigvalsh": _square(lambda n: 4 * n ** 3 / 3),
    "eig": _square(lambda n: 25 * n ** 3),
    "eigvals": _square(lambda n: 10 * n ** 3),
    "cholesky": _square(lambda n: n ** 3 / 3),
    "qr": lambda r, c, **_: 4 * max(r, c) * min(r, c) ** 2 - 4 * min(r, c) ** 3 / 3,
}


def _factor_work(flop_of):
    def work(args, kwargs):
        a = np.asarray(_arg(args, kwargs, 0, "a"))
        r, c = a.shape[-2:]
        batch = math.prod(a.shape[:-2])
        options = dict(zip(("full_matrices", "compute_uv"), args[1:]))
        options.update(kwargs)
        return {"model.factor_flop": batch * flop_of(r, c, **options)}
    return work


class Tracer:
    """Records spans and counters while active (``with Tracer() as t``)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name, work=None, only_from_trajcf=False):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_from_trajcf:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if caller.partition(".")[0] != "trajcf":
                    return fn(*args, **kwargs)
            if work is not None:
                for key, value in work(args, kwargs).items():
                    counters[key] += value
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in list(sys.modules.items())
                   if name.partition(".")[0] == "trajcf" and mod is not None]
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            traced = self._wrap(original, span, _COUNTERS.get((modname, attr)))
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._set(mod, key, traced)
        for modname, clsname, attr, span in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, span)))
            else:
                self._set(cls, attr, self._wrap(raw, span))
        for attr, flop_of in FACTORIZATIONS.items():
            original = getattr(np.linalg, attr)
            self._set(np.linalg, attr, self._wrap(
                original, FACTOR_SPAN, _factor_work(flop_of), only_from_trajcf=True))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times, calls and counts from a finished trace.

    ``*_s`` metrics named after a function are inclusive: they contain the
    spans nested inside.  ``<layer>.self_s`` is the time the layer's spans
    do not hand to a nested span; the CSV parse and the factorizations are
    reported on their own and left out of the ``cli`` and ``model`` self
    times.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    for name, start, end, parent in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    own = defaultdict(float)
    for index, (name, start, end, _) in enumerate(tracer.spans):
        if name not in ("cli.read_input", FACTOR_SPAN):
            own[name.partition(".")[0]] += end - start - child[index]
    c = tracer.counters
    monomial_calls = calls["basis.monomial"]
    return {
        "cli.read_input_s": total["cli.read_input"],
        "cli.self_s": own["cli"],
        "cli.fit_s": total["cli.fit"],
        "cli.score_s": total["cli.score"],
        "projection.project_calls": calls["projection.project"],
        "projection.project_s": total["projection.project"],
        "basis.monomial_calls": monomial_calls,
        "basis.monomial_rows": int(c["basis.monomial_rows"]),
        "basis.rows_per_call": c["basis.monomial_rows"] / monomial_calls if monomial_calls else 0.0,
        "basis.monomial_s": total["basis.monomial"],
        "basis.monomial_mb": c["basis.monomial_bytes"] / 1e6,
        "model.factorizations": calls[FACTOR_SPAN],
        "model.factor_s": total[FACTOR_SPAN],
        "model.factor_gflop": c["model.factor_flop"] / 1e9,
        "model.cd_calls": calls["model.cd"],
        "model.cd_rows": int(c["model.cd_rows"]),
        "model.cd_s": total["model.cd"],
        "model.load_s": total["model.load"],
        "model.save_s": total["model.save"],
        "model.self_s": own["model"],
        "scoring.classify_calls": calls["scoring.classify"],
        "scoring.classify_s": total["scoring.classify"],
        "scoring.calibrate_s": total["scoring.calibrate"],
        "scoring.nearest_l2_calls": calls["scoring.nearest_l2"],
        "scoring.nearest_l2_s": total["scoring.nearest_l2"],
        "scoring.pointwise_s": total["scoring.pointwise"],
        "scoring.self_s": own["scoring"],
        "synth.generate_s": total["synth.generate"],
    }
