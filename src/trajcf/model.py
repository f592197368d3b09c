"""Empirical moment matrix, its factorization, and the anomaly kernel.

Given reference curves embedded as coefficient vectors g_1 .. g_N, the model
of order (d, n) averages outer products of their monomial vectors,

    M = (1/N) * sum_i v(g_i) v(g_i)^T          (m x m, m = binomial(n+d, n)),

optionally shifted to M + eps*I, and exposes the quadratic form

    cd_value(h) = v(h)^T (M + eps*I)^{-1} v(h),

whose reciprocal (the Christoffel value) is small off the data's support and
of order m on it: the in-sample average of cd_value is exactly m when
eps = 0.  That dichotomy is the anomaly score.

Numerically the model keeps the raw sum S = N*M (exact bookkeeping for
updates and persistence), N and eps; from them it derives one Cholesky
factor: the inverse W = L^{-1} of the lower-triangular L with
L L^T = M + eps*I, so that cd_value(h) = ||W v(h)||^2.  The model derives
W from S, N and eps in one place, its `inverse_factor` property, so a
fitted model, its saved and reloaded copy and any model built or replaced
with the same fields have bit-identical factors and scores.  `fit`,
`update` and `downdate` take W before they return, so they raise where
S/N + eps*I does not factor; `load` leaves W to the first CD value.  No
spectrum is needed to score; only the eps = 0 singularity check,
downdate's positive-semidefiniteness check and `ChristoffelModel.spectrum`
compute one.

The model's constructor is the one place its fields are checked, whoever
builds it (`fit`, `load`, `update`, `downdate`, ``dataclasses.replace`` or
a caller): S is a finite, bit-symmetric m x m array that the model alone
holds, N is at least 1 and eps is finite and >= 0.  The code behind it
relies on that and checks none of it again; numpy sums S bit-symmetric
(`_frozen_sum`).

W is built in one m x m array: S/N is shifted, factored and inverted
there in place.  The factorization runs the gufunc behind
np.linalg.cholesky with W as its output (`_cholesky_in_place`), because
the public function returns a new array and so holds its input, its result
and LAPACK's working copy at once; in place it holds W and that one copy,
with the same bits.  A factorization therefore holds S, W and one LAPACK
copy of W.  The call is still made through np.linalg.cholesky, on a view
type that numpy's ``__array_function__`` protocol hands the work to, so
anything that wraps the public function still sees it.

Rows are never turned into one N x m monomial matrix.  `_moment_sum`
(fit, update and downdate) evaluates the monomials of MOMENT_BLOCK_ROWS
rows at a time and adds that block's V^T V to S.  `_cd_rows` (every CD
value) evaluates a chunk of whole CD_BLOCK_ROWS-row blocks at a time,
about CD_CHUNK_FLOATS monomial values, so memory is O(m^2 + chunk * m)
whatever N is.  The rows past the last whole block are padded with zero
rows to CD_BLOCK_ROWS, so every product has one shape and a probe gets the
same bits alone or in any batch.  The chunk meets W in panels of
CD_PANEL_ROWS rows, W[s:e, :e], which skip W's zero upper triangle; each
panel is one matmul over the chunk's stack of blocks.

Model files are bounded the same way.  `save` ranks the cells of S by one
sort of their bit patterns, formats each distinct value once and builds
the text of S a row at a time from an int32 rank matrix filled by panels
of PANEL_ROWS rows (S mirrors its bits, so each panel copies the part
right of its diagonal block from the panels below), so it never holds an
m x m array of Python objects.
`load` reads a path or a text file object once, a line at a time, hashing
every line but the last (the checksum line) as it passes.  It allocates S
only once d, n and m agree with the basis, fills it PANEL_ROWS lines at a
time and drops it at the first row that does not fit (`_read_matrix`), so
it never holds the file's text whole.  It raises nothing before the end of
the file, then reports the first problem in a fixed order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from . import projection as _projection
from .basis import BasisEnumeration, enumerate_basis, eval_monomial_matrix
from .errors import InputError, MismatchError, NumericalError
from .projection import check_domain, coeff_array

# Relative eigenvalue floor below which an unregularized moment matrix is
# declared singular.  Legitimate dense datasets sit many decades above it.
SINGULAR_RCOND = 1e-15

# Scale factor of the default regularization eps = 1e-8 * trace(S/N) / m.
DEFAULT_EPSILON_SCALE = 1e-8

# Rows per panel where an m x m array is walked by panels of rows for memory
# alone (checking that S is symmetric, ranking S in `save`, parsing S in
# `load`): no value depends on it.  `_cd_from_factor`'s panels set the order
# of a sum, so they have their own CD_PANEL_ROWS.
PANEL_ROWS = 128

_FORMAT_HEADER = "trajcf model 1"
_BASIS_ORDERING = "graded-lex"


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

def _read_only_array(a) -> np.ndarray:
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
    handed over, anything else is copied (`_read_only_array`).  The rows
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
            C = _read_only_array(self.coeffs)
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
            t = _read_only_array(self.times)
            V = _read_only_array(self.values)
            if t.ndim != 1 or V.shape != (t.size, N):
                raise InputError(
                    f"samples of {N} curves on {t.size} times must form a "
                    f"({t.size}, {N}) array, got shape {V.shape}"
                )
            if N or t.size:  # as `project`: only no grid and no curves goes unchecked
                _projection._check_samples(t, V, self.domain, ids)
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


# ---------------------------------------------------------------------------
# factorization helpers
# ---------------------------------------------------------------------------

def default_epsilon(moment_sum: np.ndarray, sample_count: int) -> float:
    """Scale-relative default shift: 1e-8 * trace(S/N) / m.  A trace that
    overflows is a NumericalError."""
    m = moment_sum.shape[0]
    with np.errstate(over="ignore"):  # reported just below
        trace = float(np.trace(moment_sum))
    if not math.isfinite(trace):
        raise NumericalError(
            "the default epsilon 1e-8 * trace(S/N) / m is non-finite: the moment "
            "matrix's trace overflows, as the monomials of these coefficients do"
        )
    return DEFAULT_EPSILON_SCALE * trace / (sample_count * m)


def _frozen_sum(S: np.ndarray) -> np.ndarray:
    """A freshly summed S, checked finite and frozen, so a model takes it
    without a copy.

    S is already bit-symmetric, as a model requires.  numpy's matmul sees
    that V^T V multiplies one buffer by its own transpose, computes one
    triangle with a BLAS syrk call and mirrors it; its loop without a BLAS
    computes cell (i, j) and cell (j, i) from the same products in the
    same order.  A sum or difference of bit-symmetric arrays is
    bit-symmetric cell by cell.  The model's constructor still checks it
    (`_is_bit_symmetric`).
    """
    if not np.all(np.isfinite(S)):
        raise NumericalError(
            "the moment matrix has non-finite entries: the monomials of these "
            "coefficients overflow at this degree"
        )
    S.setflags(write=False)
    return S


def _is_bit_symmetric(S: np.ndarray) -> bool:
    """Whether the square S mirrors its bits: compared as int64 a panel of
    PANEL_ROWS rows at a time, so -0.0 opposite 0.0 is asymmetric and no
    temporary exceeds one panel."""
    bits = S.view(np.int64)
    for s in range(0, S.shape[0], PANEL_ROWS):
        e = s + PANEL_ROWS
        if not np.array_equal(bits[s:e, s:], bits[s:, s:e].T):
            return False
    return True


def _shifted_moments(S: np.ndarray, N: int, eps: float) -> np.ndarray:
    """S/N + eps*I as a new array: symmetric, as a model's S is."""
    M = S / N
    if eps > 0.0:
        M.flat[::M.shape[0] + 1] += eps
    return M


def _require_invertible(M: np.ndarray) -> None:
    """Fail unless the unregularized moment matrix M clears the eigenvalue floor."""
    s = np.linalg.eigvalsh(M)
    smin, smax = float(s[0]), float(s[-1])
    if smax <= 0.0 or smin <= SINGULAR_RCOND * smax:
        raise NumericalError(
            f"moment matrix is numerically singular at epsilon = 0 "
            f"(smallest eigenvalue {smin:.6e}, largest {smax:.6e}); "
            f"refit with epsilon > 0"
        )


# Largest diagonal block `_invert_lower` hands to np.linalg.inv whole.
INVERSE_LEAF_ROWS = 64


def _invert_lower(L: np.ndarray) -> None:
    """Overwrite the nonsingular lower-triangular L with its inverse, by the
    two-block recursion

        [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]].

    numpy has no triangular solve, and one full-size np.linalg.inv (an LU
    with pivoting) costs several times more than these matrix products.
    """
    m = L.shape[0]
    if m <= INVERSE_LEAF_ROWS:
        L[...] = np.tril(np.linalg.inv(L))  # the LU's pivoting leaves rounding above
        return
    h = m // 2
    _invert_lower(L[:h, :h])
    _invert_lower(L[h:, h:])
    np.negative(L[h:, h:] @ (L[h:, :h] @ L[:h, :h]), out=L[h:, :h])


class _FactorInPlace(np.ndarray):
    """A view of a matrix that np.linalg.cholesky factors into its own memory.

    numpy hands a call whose argument defines ``__array_function__`` to that
    method (NEP 18) instead of its own body, so np.linalg.cholesky runs the
    gufunc behind it, the same LAPACK call with the same bits, with the
    view's memory as its output.  Any other numpy function treats it as a
    plain array.
    """

    def __array_function__(self, func, types, args, kwargs):
        if func.__name__ != "cholesky":
            return super().__array_function__(func, types, args, kwargs)
        M = self.view(np.ndarray)
        try:
            with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
                _umath_linalg.cholesky_lo(M, out=M, signature="d->d")
        except FloatingPointError as exc:
            raise np.linalg.LinAlgError("Matrix is not positive definite") from exc
        return M


def _cholesky_in_place(M: np.ndarray) -> None:
    """Overwrite the symmetric positive definite M with its lower Cholesky
    factor L (zeros above the diagonal).

    The public function allocates a new result, so its input, its result
    and the gufunc's LAPACK copy would be alive at once; in place only M
    and that copy are.  The call still goes through np.linalg.cholesky, so
    whatever wraps that function (a profiler, perfbench's tracer, a test
    that fakes a breakdown) sees every factorization.  A breakdown raises
    LinAlgError with numpy's message.
    """
    np.linalg.cholesky(M.view(_FactorInPlace))


def _factor_from_moments(S: np.ndarray, N: int, eps: float) -> np.ndarray:
    """The inverse Cholesky factor W = L^{-1} of S/N + eps*I (lower triangular).

    S, N and eps are a model's fields, so S is finite and symmetric.  At
    eps = 0 the matrix must first clear the eigenvalue floor; a Cholesky
    breakdown at any eps is a NumericalError.  W is the only m x m array
    made: S/N is shifted, factored (`_cholesky_in_place`) and inverted in
    it, so besides S and W this holds one LAPACK copy of W during the
    factorization and half of W in `_invert_lower`'s products.
    """
    W = _shifted_moments(S, N, eps)
    if eps == 0.0:
        _require_invertible(W)
    try:
        _cholesky_in_place(W)
    except np.linalg.LinAlgError as exc:
        advice = "refit with epsilon > 0" if eps == 0.0 else "refit with a larger epsilon"
        raise NumericalError(
            f"the moment matrix is not numerically positive definite at "
            f"epsilon = {eps!r} (Cholesky factorization failed: {exc}); {advice}"
        ) from exc
    _invert_lower(W)
    return W


# Rows of V summed per block in `_moment_sum`: besides S it holds one block's
# monomials, MOMENT_BLOCK_ROWS x m floats, whatever the number of rows.
MOMENT_BLOCK_ROWS = 1024


def _moment_sum(C: np.ndarray, basis: BasisEnumeration) -> np.ndarray:
    """S = V^T V over the monomial rows V of the coefficient rows C, summed
    block by block.  Overflow is left in S for the caller to report."""
    m = len(basis)
    S = np.zeros((m, m))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, C.shape[0], MOMENT_BLOCK_ROWS):
            V = eval_monomial_matrix(C[start:start + MOMENT_BLOCK_ROWS], basis)
            S += V.T @ V
    return S


# Rows per block in `_cd_rows`, and rows per panel of W in `_cd_from_factor`.
# Every block is padded to CD_BLOCK_ROWS rows, so its products have one shape.
CD_BLOCK_ROWS = 256
CD_PANEL_ROWS = 128

# Monomial values `_cd_rows` evaluates at once: a chunk of whole blocks,
# CD_BLOCK_ROWS * max(1, CD_CHUNK_FLOATS // (CD_BLOCK_ROWS * m)) rows, so
# 4352 at m = 15, 768 at m = 70 and one block from m = 257 on.  No value
# depends on it.
CD_CHUNK_FLOATS = 2 ** 16


def _cd_from_factor(W: np.ndarray, Vt: np.ndarray) -> np.ndarray:
    """Quadratic forms ||W v||^2 = v^T (L L^T)^{-1} v for each column v of
    each block of the (blocks, m, CD_BLOCK_ROWS) stack Vt, shaped (blocks,
    CD_BLOCK_ROWS).

    W is lower triangular, so z = W v is taken by panels of rows,
    z[s:e] = W[s:e, :e] v[:e], and the zero upper triangle is never read.
    A panel is one matmul over the stack, which numpy runs as the same
    (e - s) x e by e x CD_BLOCK_ROWS product for each block, and panels are
    added in order, so a block's values do not depend on the others.
    """
    m = W.shape[0]
    out = np.zeros((Vt.shape[0], Vt.shape[2]))
    for s in range(0, m, CD_PANEL_ROWS):
        e = min(s + CD_PANEL_ROWS, m)
        Z = W[s:e, :e] @ Vt[:, :e]
        Z *= Z
        out += Z.sum(axis=1)
    return out


def _cd_rows(model: ChristoffelModel, C: np.ndarray) -> np.ndarray:
    """`_cd_from_factor` of the model's monomial rows of the coefficient
    rows C, evaluated a chunk of whole CD_BLOCK_ROWS-row blocks at a time.

    A chunk's monomials come as the transpose of a C-ordered (m, rows)
    array, which is viewed without a copy as a stack of (m, CD_BLOCK_ROWS)
    blocks.  The rows past the last whole block are evaluated alone and
    padded with zero columns to one block, so every product has one shape
    and a row's value does not depend on the batch it came in.  A row whose
    monomials overflowed (an inf or nan entry) scores inf: the diagonal of
    W is nonzero, so the entry reaches its panel's product.
    """
    W = model.inverse_factor  # a loaded model factors here, before any block is allocated
    m, N = W.shape[0], C.shape[0]
    whole = N - N % CD_BLOCK_ROWS
    step = CD_BLOCK_ROWS * max(1, CD_CHUNK_FLOATS // (CD_BLOCK_ROWS * m))
    edges = sorted({*range(0, whole, step), whole, N})
    out = np.empty(N)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf is a valid verdict
        for start, stop in zip(edges, edges[1:]):
            k = stop - start
            # V outlives its padded copy, as in a loop of single blocks: at
            # m = 1287 (one block per chunk) freeing it first raised the
            # benchmark's peak RSS by up to 8 MB through heap layout alone.
            V = eval_monomial_matrix(C[start:stop], model.basis).T
            Vt = V
            if k < CD_BLOCK_ROWS:  # the rows past the last whole block
                Vt = np.zeros((m, CD_BLOCK_ROWS))
                Vt[:, :k] = V
            out[start:stop] = _cd_from_factor(
                W, Vt.reshape(m, -1, CD_BLOCK_ROWS).transpose(1, 0, 2)).ravel()[:k]
    # An overflowed row sums to inf, or to nan where an inf meets a zero of W
    # or an opposite inf; a finite row whose product overflows can give nan too.
    out[np.isnan(out)] = np.inf
    return out


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChristoffelModel:
    """Fitted anomaly model of order (d, n), the degree pair of its basis.

    Immutable: update/downdate return new instances, so concurrent readers
    are never invalidated.  `inverse_factor` is derived from the fields.

    The constructor checks the fields, each failure an InputError, in this
    order: S is (m, m) for the m monomials of ``basis``, finite and
    bit-symmetric; 1 <= N <= the largest float; eps is finite and >= 0;
    the domain passes `check_domain`.  S is kept read-only: an owned
    read-only float64 array is kept as handed over, anything else is
    copied (`_read_only_array`), so no later write to the caller's array
    reaches the model or its cached factor.
    """

    basis: BasisEnumeration
    epsilon: float
    sample_count: int
    moment_sum: np.ndarray = field(repr=False)       # S = sum_i v(g_i) v(g_i)^T
    domain: tuple[float, float] = (-1.0, 1.0)
    provenance: str = "fit"

    def __post_init__(self) -> None:
        S = _read_only_array(self.moment_sum)
        m = len(self.basis)
        if S.shape != (m, m):
            raise InputError(f"moment matrix is not {m} x {m} (shape {S.shape})")
        if not np.all(np.isfinite(S)):
            raise InputError("moment matrix has non-finite entries")
        if not _is_bit_symmetric(S):
            raise InputError("moment matrix is not symmetric")
        N = self.sample_count
        if N < 1:
            raise InputError(f"sample count must be >= 1, got {N}")
        if N > sys.float_info.max:  # S / N takes N as a float
            raise InputError(f"sample count has {len(str(N))} digits, beyond float range")
        eps = self.epsilon
        if eps < 0.0 or not math.isfinite(eps):
            raise InputError(f"epsilon must be finite and >= 0, got {eps}")
        object.__setattr__(self, "moment_sum", S)
        object.__setattr__(self, "domain", check_domain(self.domain))

    @cached_property
    def inverse_factor(self) -> np.ndarray:
        """W = L^{-1}, L L^T = S/N + eps*I (read-only), factored on first use."""
        W = _factor_from_moments(self.moment_sum, self.sample_count, self.epsilon)
        W.setflags(write=False)
        return W

    @property
    def d(self) -> int:
        """Algebraic degree bound."""
        return self.basis.d

    @property
    def n(self) -> int:
        """Harmonic degree bound: the coefficients a probe needs."""
        return self.basis.n

    @property
    def size(self) -> int:
        """Basis dimension m = binomial(n + d, n)."""
        return len(self.basis)

    def moment_matrix(self) -> np.ndarray:
        """The averaged (unregularized) moment matrix S / N."""
        return self.moment_sum / self.sample_count

    def effective_dimension(self) -> float:
        """m - eps * trace((S/N + eps*I)^{-1}) = sum_i (1 - eps/s_i) over the
        eigenvalues s_i of S/N + eps*I: the in-sample mean CD value.  It is m
        at eps = 0 and needs no spectrum, since the trace is ||W||_F^2."""
        return self.size - self.epsilon * float(np.vdot(self.inverse_factor, self.inverse_factor))

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of S/N + eps*I, ascending: an O(m^3) eigensolve for
        reports; scoring never needs it."""
        M = _shifted_moments(self.moment_sum, self.sample_count, self.epsilon)
        return np.linalg.eigvalsh(M)

    def _probe_rows(self, coeffs) -> np.ndarray:
        """The first n coefficients of one or many probes, (K, n), with
        mismatch checks.  A batch of no rows is no probes, whatever its width."""
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise MismatchError(f"probe array has unsupported shape {arr.shape}")
        if arr.shape[0] == 0:
            return np.empty((0, self.n))
        if arr.shape[1] < self.n:
            raise MismatchError(
                f"probe supplies {arr.shape[1]} coefficients but the model "
                f"has harmonic degree {self.n}"
            )
        return arr[:, : self.n]

    def _probe_matrix(self, coeffs) -> np.ndarray:
        """Monomial vectors of one or many probes, with mismatch checks."""
        return eval_monomial_matrix(self._probe_rows(coeffs), self.basis)


def fit(data: TrajectoryDataset, d: int, n: int, epsilon: float | None = None) -> ChristoffelModel:
    """Fit a model of order (d, n) on a reference dataset.

    Parameters
    ----------
    data : TrajectoryDataset
    d, n : int
        Algebraic / harmonic degree bounds.
    epsilon : float or None
        Diagonal shift applied to S/N.  None selects the scale-relative
        default 1e-8 * trace(S/N) / m; 0.0 demands a numerically
        nonsingular moment matrix and fails loudly otherwise.

    Raises
    ------
    InputError
        Empty dataset, short coefficient vectors, invalid degrees or
        epsilon (the model's own check), basis cap exceeded.
    NumericalError
        Singular moment matrix at epsilon = 0, a Cholesky breakdown,
        monomials that overflow, or a default epsilon that does.
    """
    N = len(data)
    if N == 0:
        raise InputError("a trajectory dataset cannot be empty")
    bas = enumerate_basis(d, n)
    S = _frozen_sum(_moment_sum(data.coefficient_matrix(bas.n), bas))
    eps = default_epsilon(S, N) if epsilon is None else float(epsilon)
    return _factored(ChristoffelModel(
        basis=bas, epsilon=eps, sample_count=N, moment_sum=S,
        domain=data.domain, provenance="fit",
    ))


def cd_value(model: ChristoffelModel, c) -> float:
    """Anomaly score v(c)^T (S/N + eps*I)^{-1} v(c); always >= 0."""
    C = model._probe_rows(coeff_array(c))
    return float(_cd_rows(model, C)[0])


def cd_values(model: ChristoffelModel, coeff_matrix) -> np.ndarray:
    """Vectorized `cd_value` over the rows of an (N, >=n) array."""
    C = model._probe_rows(coeff_matrix)
    return _cd_rows(model, C)


def christoffel_value(model: ChristoffelModel, c) -> float:
    """Reciprocal score 1 / cd_value; 0.0 if the score overflows.

    With the constant monomial in the basis and eps = 0 the value lies in
    [0, 1]: the constant polynomial 1 is feasible for the variational
    characterization, and the empirical measure has mass 1.
    """
    return _reciprocal(cd_value(model, c))


def _reciprocal(cd):
    """The Christoffel values 1 / cd of a CD value or an array of them
    (a float or an array back): 0.0 where cd overflowed to inf (or nan),
    inf where it is 0."""
    cd = np.asarray(cd, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(np.isfinite(cd), np.where(cd > 0.0, 1.0 / cd, np.inf), 0.0)
    return out if out.ndim else float(out)


def kernel(model: ChristoffelModel, c1, c2) -> float:
    """Evaluation kernel v(c1)^T (S/N + eps*I)^{-1} v(c2) (symmetric)."""
    V1 = model._probe_matrix(coeff_array(c1))
    V2 = model._probe_matrix(coeff_array(c2))
    W = model.inverse_factor
    return float(np.dot(W @ V1[0], W @ V2[0]))


def extremal_polynomial(model: ChristoffelModel, h) -> np.ndarray:
    """Coefficients (monomial basis) of the minimizer attaining the
    Christoffel value at h.

    The returned w satisfies w . v(h) = 1, and at eps = 0 its empirical
    second moment (1/N) sum_i (w . v(g_i))^2 equals christoffel_value(h).
    """
    V = model._probe_matrix(coeff_array(h))
    W = model.inverse_factor
    z = W @ V[0]
    cd = float(np.dot(z, z))
    if cd <= 0.0 or not math.isfinite(cd):
        raise NumericalError(f"cannot normalize the extremal polynomial: CD value {cd!r}")
    return W.T @ z / cd


# ---------------------------------------------------------------------------
# updates
# ---------------------------------------------------------------------------

def update(model: ChristoffelModel, c_new) -> ChristoffelModel:
    """Absorb one trajectory or a (k, n) batch: S += V^T V, N += k, refactorize once.

    Exact bookkeeping plus one O(m^3) refactorization: with eps > 0 the
    regularized matrix is not a low-rank perturbation of its predecessor
    (the shift rescales with N), so refactorizing is the correct default.
    An empty batch returns ``model`` itself.  For the eps = 0 fast path
    see `cd_value_after_update`.
    """
    C = model._probe_rows(c_new)
    if C.shape[0] == 0:
        return model
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported by _frozen_sum
        S = _frozen_sum(model.moment_sum + _moment_sum(C, model.basis))
    return _refactored(model, S, model.sample_count + C.shape[0], "update")


def downdate(model: ChristoffelModel, c_old) -> ChristoffelModel:
    """Remove one absorbed trajectory or a (k, n) batch: S -= V^T V, N -= k,
    refactorize once.

    Fails if fewer than one trajectory would remain, if the final S is not
    positive semidefinite (a row was never absorbed) or, at eps = 0, if it
    is singular.  Both matrix checks run once, on the final S.  An empty
    batch returns ``model`` itself.
    """
    C = model._probe_rows(c_old)
    if C.shape[0] == 0:
        return model
    N = model.sample_count - C.shape[0]
    if N < 1:
        raise InputError(
            f"cannot downdate below one absorbed trajectory "
            f"({C.shape[0]} removed from {model.sample_count})"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported by _frozen_sum
        S = _frozen_sum(model.moment_sum - _moment_sum(C, model.basis))
    smin_S = float(np.linalg.eigvalsh(S)[0])
    tol = 1e-10 * max(float(np.trace(S)), 1.0)
    if smin_S < -tol:
        raise NumericalError(
            f"downdate breaks positive semidefiniteness (eigenvalue {smin_S:.6e}); "
            f"the trajectory does not belong to the absorbed set"
        )
    return _refactored(model, S, N, "downdate")


def _refactored(model: ChristoffelModel, S: np.ndarray, N: int, operation: str) -> ChristoffelModel:
    """The model with the symmetric moment sum S over N trajectories, refactorized."""
    return _factored(replace(model, sample_count=N, moment_sum=S, provenance=operation))


def _factored(model: ChristoffelModel) -> ChristoffelModel:
    """``model`` with its factor taken, so its maker raises a breakdown."""
    model.inverse_factor  # a cached property: taking it factors the model
    return model


def cd_value_after_update(model: ChristoffelModel, c_new, probe) -> float:
    """CD value the probe would get after absorbing c_new, without
    refactorizing.

    Rank-one identity on N*M + v0 v0^T (exact only at eps = 0, where the
    regularizer does not interfere):

        cd'(g) = (N+1) * [ cd(g)/N - (K(g, g0)/N)^2 / (1 + cd(g0)/N) ].
    """
    if model.epsilon != 0.0:
        raise InputError("the rank-one fast path is exact only at epsilon = 0")
    N = model.sample_count
    cd_g = cd_value(model, probe)
    cd_0 = cd_value(model, c_new)
    k = kernel(model, probe, c_new)
    return (N + 1) * (cd_g / N - (k / N) ** 2 / (1.0 + cd_0 / N))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    return "%.17g" % x


def _header(model: ChristoffelModel) -> str:
    return "\n".join([
        _FORMAT_HEADER,
        f"d {model.d}",
        f"n {model.n}",
        f"m {model.size}",
        f"epsilon {_format_float(model.epsilon)}",
        f"N {model.sample_count}",
        f"domain {_format_float(model.domain[0])} {_format_float(model.domain[1])}",
        f"basis {_BASIS_ORDERING}",
        f"created-by {model.provenance}",
        "S",
    ]) + "\n"


def _distinct(bits: np.ndarray) -> np.ndarray:
    """The distinct entries of an int64 array, ascending: one sort of a copy,
    keeping the first entry of each run."""
    ranked = np.sort(bits, axis=None)
    first = np.empty(ranked.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return ranked[first]


def _ranks(bits: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """The index in ``distinct`` of every cell of the square ``bits``, as an
    int32 matrix filled by panels of PANEL_ROWS rows from the bottom up.

    A panel s:e searches its cells left of e; right of e it copies the
    transpose of the panels below, since a model's S mirrors its bits.
    """
    m = bits.shape[0]
    R = np.empty((m, m), dtype=np.int32)
    for s in reversed(range(0, m, PANEL_ROWS)):
        e = min(s + PANEL_ROWS, m)
        R[s:e, :e] = np.searchsorted(distinct, bits[s:e, :e])
        R[s:e, e:] = R[e:, s:e].T
    return R


def _matrix_rows(S: np.ndarray) -> list[str]:
    """The text of each row of S, newline included.

    Each distinct value of S is formatted once.  Keying on the bit pattern
    keeps -0.0 apart from 0.0; the text is that of `_format_float` per cell.
    Besides the rows' text, this holds the distinct values' texts, an int32
    rank per cell and one row of cells at a time.
    """
    bits = np.ascontiguousarray(S, dtype=np.float64).view(np.int64)
    distinct = _distinct(bits)
    text = np.array([_format_float(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return [" ".join(text[ranks].tolist()) + "\n" for ranks in _ranks(bits, distinct)]


def save(model: ChristoffelModel, sink) -> None:
    """Write the model as a self-describing text document.

    All floats use 17 significant digits, so the decimal text round-trips
    float64 values bit-exactly; a sha256 checksum of the payload guards
    against truncation and corruption.  ``sink`` is a path or a text file
    object.  S is ranked by panels of rows and formatted a row at a time,
    so besides the file's text `save` holds about half the size of S (an
    int32 rank per cell) and the texts of its distinct values.  The whole
    text is built before a path is opened, so a failure leaves an existing
    file as it was.
    """
    chunks = [_header(model), *_matrix_rows(model.moment_sum)]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
    chunks.append(f"checksum sha256 {digest.hexdigest()}\n")
    if hasattr(sink, "write"):
        for chunk in chunks:
            sink.write(chunk)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _parse_scalar(fields: dict, key: str, conv):
    if key not in fields:
        raise InputError(f"model file is missing the '{key}' field")
    try:
        return conv(fields[key])
    except ValueError as exc:
        raise InputError(f"model file field '{key}' is malformed: {fields[key]!r}") from exc


def _parse_matrix_cells(rows: list[str]) -> list[list[float]]:
    """The rows of S, one Python `float` per cell."""
    matrix_rows = []
    for ln in rows:
        try:
            matrix_rows.append([float(x) for x in ln.split()])
        except ValueError as exc:
            raise InputError(f"model file matrix row is malformed: {ln!r}") from exc
    return matrix_rows


def _float_table(lines: list[str], delimiter=None, usecols=None) -> np.ndarray | None:
    """The lines as one float array, a row per line, by numpy's C text reader.

    None when that reader raises or returns another number of rows (it
    skips blank lines).  A cell it accepts is one Python's ``float``
    accepts, with the same value; it rejects some that ``float`` accepts
    (``1_000``, non-ASCII digits).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an input of blank lines warns
            table = np.loadtxt(lines, dtype=float, delimiter=delimiter, comments=None,
                               ndmin=2, usecols=usecols)
    except ValueError:
        return None
    return table if table.shape[0] == len(lines) else None


def _read_matrix(lines, fields: dict) -> tuple[np.ndarray | None, int, BasisEnumeration | None]:
    """S (None unless its rows filled it), the row count and the basis, from
    the S rows ``lines`` of a model file whose fields before "S" are ``fields``.

    S is allocated only if the fields' d, n and m agree with the basis, and
    filled PANEL_ROWS lines at a time by `_float_table`, or by
    `_parse_matrix_cells` where that declines, so S gets the values, and bad
    text the message, of ``float``.  It is dropped at the first row that does
    not fit; each later line is parsed alone and counted, never stored.
    """
    S = basis = None
    with contextlib.suppress(InputError):
        m = _parse_scalar(fields, "m", int)
        basis = enumerate_basis(_parse_scalar(fields, "d", int), _parse_scalar(fields, "n", int))
        if m == len(basis):
            S = np.empty((m, m))
    rows = 0
    while panel := list(itertools.islice(lines, 1 if S is None else PANEL_ROWS)):
        table = _float_table(panel)
        cells = _parse_matrix_cells(panel) if table is None else table
        start, rows = rows, rows + len(panel)
        if S is not None and rows <= len(S) and all(len(r) == len(S) for r in cells):
            S[start:rows] = cells
        else:
            S = None
    return (S if S is not None and rows == len(S) else None), rows, basis


def _read_model(fh) -> tuple[dict[str, str], np.ndarray | None, int, BasisEnumeration | None]:
    """The fields, S, the S row count and the basis of the model file open
    as the text file ``fh``, read once, a line at a time.

    The lines, as ``str.splitlines`` gives them (it also breaks at \\x0c,
    \\x1c, \\u2028 and the like), are the header, the fields, "S", the S
    rows (`_read_matrix`) and the checksum line, the one line not hashed.
    Nothing is raised before the end of the file; then the first problem
    of: text not UTF-8, an empty file, the header, the checksum line, the
    checksum, a malformed S row.
    """
    digest = hashlib.sha256()
    last = None
    blank = True

    def payload():
        """Every line but the last, hashed as it passes; the last stays in ``last``."""
        nonlocal last, blank
        for ln in (part for chunk in fh for part in chunk.splitlines()):
            if last is not None:
                digest.update(last.encode("utf-8"))
                digest.update(b"\n")
                yield last
            blank = blank and (not ln or ln.isspace())
            last = ln

    fields: dict[str, str] = {}
    error = None
    lines = payload()
    try:
        first = next(lines, None)  # the header, or None in a file of one line
        for ln in lines:
            if ln.strip() == "S":
                break
            key, _, value = ln.partition(" ")
            fields[key] = value
        try:
            S, rows, basis = _read_matrix(lines, fields)  # no rows if "S" is missing
        except InputError as exc:  # a malformed row: raised once the checksum is checked
            error = exc
            for _ in lines:  # the rest is hashed unparsed
                pass
    except UnicodeDecodeError as exc:
        raise InputError(f"model file is not UTF-8 text: {exc}") from exc
    if blank:
        raise InputError("model file is empty")
    first = last if first is None else first
    if first != _FORMAT_HEADER:  # quoted to 80 characters: the file may be any text
        raise InputError(
            f"unsupported model format header {first[:80]!r}{'...' * (len(first) > 80)} "
            f"(expected {_FORMAT_HEADER!r})"
        )
    if not last.startswith("checksum sha256 "):
        raise InputError("model file is missing its checksum line (truncated?)")
    if digest.hexdigest() != last.split()[-1]:
        raise InputError("model file checksum mismatch: payload corrupted")
    if error is not None:
        raise error
    return fields, S, rows, basis


def load(source) -> ChristoffelModel:
    """Read a model written by `save`.

    ``source`` is a path or a text file object, read once, a line at a time
    (`_read_model`): S is parsed by panels of lines into the array it is
    kept in, so the file's text is never held whole.  The model's own
    checks of S, N and eps report as "model file ..." after the file's.
    The model is not factored here: its first CD value takes W, so a
    model read for its fields or its spectrum is never factored, and S/N +
    eps*I that does not factor raises there.
    """
    with (contextlib.nullcontext(source) if hasattr(source, "read")
          else open(source, "r", encoding="utf-8")) as fh:
        fields, S, rows, bas = _read_model(fh)
    d = _parse_scalar(fields, "d", int)
    n = _parse_scalar(fields, "n", int)
    m = _parse_scalar(fields, "m", int)
    eps = _parse_scalar(fields, "epsilon", float)
    N = _parse_scalar(fields, "N", int)
    dom_text = _parse_scalar(fields, "domain", str)
    try:
        lo, hi = map(float, dom_text.split())  # two cells, each a float
    except ValueError as exc:
        raise InputError(f"model file domain is malformed: {dom_text!r}") from exc
    domain = check_domain((lo, hi))  # the rule fit --domain applies
    ordering = fields.get("basis", "")
    if ordering != _BASIS_ORDERING:
        raise InputError(f"unsupported basis ordering {ordering!r}")

    if bas is None:
        bas = enumerate_basis(d, n)
    if m != len(bas):
        raise InputError(
            f"model file says m = {m} but degree pair ({d}, {n}) has "
            f"{len(bas)} monomials"
        )
    if S is None or S.shape != (m, m):
        raise InputError(f"model file moment matrix is not {m} x {m} ({rows} rows found)")
    S.setflags(write=False)  # the model keeps it without a copy
    try:
        # Preserve the original creator so save(load(f)) reproduces f's bytes.
        model = ChristoffelModel(
            basis=bas, epsilon=eps, sample_count=N, moment_sum=S,
            domain=domain, provenance=fields.get("created-by", "fit"),
        )
    except InputError as exc:
        raise InputError(f"model file {exc}") from exc
    return model


def dumps(model: ChristoffelModel) -> str:
    """The exact text `save` would write (handy for byte-level tests)."""
    buf = io.StringIO()
    save(model, buf)
    return buf.getvalue()
