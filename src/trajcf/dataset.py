"""The dataset container: a set of curves as coefficient rows.

A `TrajectoryDataset` is what `model.fit` is fitted on and what every
score reads its probes from.  It holds one (N, k) array of orthonormal
coefficient rows and, for curves sampled on one shared grid, the grid and
the samples they were projected from.  Its arrays are read-only
(`read_only_array`), so a model or a report built from a dataset never
sees a later write to the caller's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import projection as _projection
from .errors import InputError
from .projection import check_domain


def read_only_array(a) -> np.ndarray:
    """``a`` as a read-only float64 array.

    A float64 ndarray that owns its data and is already read-only is
    returned as it is: a caller that freezes an array it made hands it
    over (as `synth` does).  Anything else is copied, so a caller's
    writable array, or a view of one, stays the caller's.
    """
    if (type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata
            and not a.flags.writeable):
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TrajectoryDataset:
    """A set of curves: one (N, k) array of coefficient rows.

    Row i holds the first k orthonormal coefficients of curve i, and
    ``ids`` labels the rows (None for an unlabelled row).  When the rows
    were projected from curves sampled on one grid, ``times`` (T,) holds
    that grid and ``values`` (T, N) the samples, one curve per column;
    both are None for coefficient rows.  The arrays are read-only: a
    float64 array that owns its data and is already read-only is kept as
    handed over, anything else is copied (`read_only_array`).  The rows
    and the samples are checked once for finiteness, and the grid as
    `projection.project` checks it.  A dataset may be empty (a probe file
    may hold no curves); `fit` refuses one.
    """

    coeffs: np.ndarray
    ids: tuple | None = None
    domain: tuple[float, float] = (-1.0, 1.0)
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        try:
            C = read_only_array(self.coeffs)
        except (TypeError, ValueError) as exc:
            raise InputError(f"coefficient rows must form an (N, k) array: {exc}") from exc
        if C.ndim != 2:
            raise InputError(f"coefficient rows must form an (N, k) array, got shape {C.shape}")
        N = C.shape[0]
        if N and C.shape[1] == 0:
            raise InputError(f"coefficient rows must be non-empty, got shape {C.shape}")
        ids = (None,) * N if self.ids is None else tuple(self.ids)
        if len(ids) != N:
            raise InputError(f"{N} coefficient rows need as many ids")
        finite = np.isfinite(C).all(axis=1)
        if not finite.all():
            raise InputError(
                f"coefficient vector contains non-finite entries (id={ids[int(np.argmin(finite))]!r})"
            )
        if self.values is not None:
            t = read_only_array(self.times)
            V = read_only_array(self.values)
            if t.ndim != 1 or V.shape != (t.size, N):
                raise InputError(
                    f"samples of {N} curves on {t.size} times must form a "
                    f"({t.size}, {N}) array, got shape {V.shape}"
                )
            if N or t.size:  # as `project`: only no grid and no curves goes unchecked
                _projection.check_samples(t, V, self.domain, ids)
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", V)
        elif self.times is not None:
            raise InputError("sample times need their values")
        object.__setattr__(self, "coeffs", C)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "domain", check_domain(self.domain))

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def coefficient_matrix(self, n: int) -> np.ndarray:
        """First n coefficients of every row, (N, n): a read-only view."""
        if self.coeffs.shape[1] < n:
            raise InputError(
                f"{len(self)} coefficient vector(s) have fewer than {n} entries"
                + (f" (first offender: {self.ids[0] or '#0'})" if self.ids else "")
            )
        return self.coeffs[:, :n]

    def on_nodes(self, nodes) -> np.ndarray:
        """Every curve at unit-interval nodes, (N, M): sampled curves by
        linear interpolation, coefficient rows as truncated series."""
        nodes = np.asarray(nodes, dtype=float)
        if len(self) == 0:
            return np.empty((0, nodes.size))
        if self.values is not None:
            return _projection.values_on_nodes(
                _projection.unit_times(self.times, self.domain), self.values, nodes)
        return _projection.reconstruct_batch(self.coeffs, nodes)

    @classmethod
    def from_coefficients(cls, coeffs, domain=(-1.0, 1.0), ids=None) -> "TrajectoryDataset":
        """Build a dataset from an (N, k) array or nested sequence."""
        return cls(coeffs, ids=ids, domain=domain)

    @classmethod
    def from_trajectories(cls, trajectories, n: int, quad_points: int | None = None) -> "TrajectoryDataset":
        """Project curves to n coefficients with one `projection.project` call.

        The curves must share one domain and one sample grid; the dataset
        keeps the grid and the samples.
        """
        trajectories = tuple(trajectories)
        if not trajectories:
            raise InputError("a trajectory dataset cannot be empty")
        first = trajectories[0]
        for tr in trajectories:
            if tr.domain != first.domain:
                raise InputError(
                    f"trajectories mix domains {first.domain} and {tr.domain}; "
                    "project them separately"
                )
            if not np.array_equal(tr.times, first.times):
                raise InputError(
                    f"trajectory {tr.id!r} is not sampled on the grid of {first.id!r}; "
                    "a dataset holds one sample grid"
                )
        ids = [tr.id for tr in trajectories]
        values = np.stack([tr.values for tr in trajectories], axis=1)
        C = _projection.project(first.times, values, n, quad_points, first.domain, ids=ids)
        return cls(C, ids=ids, domain=first.domain, times=first.times, values=values)
