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
S/N + eps*I does not factor; `modelfile.load` leaves W to the first CD
value.  No spectrum is needed to score; only the eps = 0 singularity
check, downdate's positive-semidefiniteness check and
`ChristoffelModel.spectrum` compute one.

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
whatever N is.  A chunk's coefficient rows are padded with zero rows to
whole blocks by `whole_blocks`, the helper that pads `project`'s curves,
so every product has one shape and a probe gets the same bits alone or in
any batch.  The chunk meets W in panels of CD_PANEL_ROWS rows, W[s:e, :e],
which skip W's zero upper triangle; each panel is one matmul over the
chunk's stack of blocks.

The model file, its reader and its writer live in `modelfile`, and the
dataset container in `dataset`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .basis import BasisEnumeration, enumerate_basis, eval_monomial_matrix
from .dataset import TrajectoryDataset, read_only_array
from .errors import InputError, MismatchError, NumericalError
from .modelfile import PANEL_ROWS, dumps, load, save  # noqa: F401  (re-exported, see below)
from .projection import check_domain, coeff_array, whole_blocks

# `TrajectoryDataset`, `load`, `save`, `dumps` and `PANEL_ROWS` stay names of
# this module, where the benchmark and callers find them: perfbench's tracer
# wraps `load`, `save` and the dataset's constructors here, and its workloads
# import `TrajectoryDataset` and `load` from here.  They are the objects of
# `dataset` and `modelfile` themselves, not wrappers, so what the tracer
# times is what the CLI calls.

# Relative eigenvalue floor below which an unregularized moment matrix is
# declared singular.  Legitimate dense datasets sit many decades above it.
SINGULAR_RCOND = 1e-15

# Scale factor of the default regularization eps = 1e-8 * trace(S/N) / m.
DEFAULT_EPSILON_SCALE = 1e-8


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
# Every block is padded to CD_BLOCK_ROWS rows (`whole_blocks`), so its
# products have one shape.
CD_BLOCK_ROWS = 256
CD_PANEL_ROWS = 128

# Monomial values `_cd_rows` evaluates at once: a chunk of whole blocks,
# CD_BLOCK_ROWS * max(1, CD_CHUNK_FLOATS // (CD_BLOCK_ROWS * m)) rows, so
# 4352 at m = 15, 768 at m = 70 and one block from m = 257 on.  No value
# depends on it.
CD_CHUNK_FLOATS = 2 ** 16


def _factor_panels(W: np.ndarray, Vt: np.ndarray):
    """z = W v for each column v of each block of the (blocks, m,
    CD_BLOCK_ROWS) stack Vt, one panel of CD_PANEL_ROWS rows at a time.

    W is lower triangular, so z is taken by panels of rows,
    z[s:e] = W[s:e, :e] v[:e], and the zero upper triangle is never read.
    A panel is one matmul over the stack, which numpy runs as the same
    (e - s) x e by e x CD_BLOCK_ROWS product for each block, so a block's
    values do not depend on the others.  Yields the (blocks, e - s,
    CD_BLOCK_ROWS) panels in order.
    """
    m = W.shape[0]
    for s in range(0, m, CD_PANEL_ROWS):
        e = min(s + CD_PANEL_ROWS, m)
        yield W[s:e, :e] @ Vt[:, :e]


def _cd_from_factor(W: np.ndarray, Vt: np.ndarray, Ut: np.ndarray | None = None) -> np.ndarray:
    """Quadratic forms ||W v||^2 = v^T (L L^T)^{-1} v for each column v of
    each block of the stack Vt, shaped (blocks, CD_BLOCK_ROWS); with a stack
    Ut of the same shape, the bilinear forms (W v) . (W u) of the columns
    u of Ut in the same places.

    Both take z = W v by `_factor_panels` and add the panels' sums in
    order, so a column paired with itself gives its quadratic form bit for
    bit.
    """
    out = np.zeros((Vt.shape[0], Vt.shape[2]))
    others = None if Ut is None else _factor_panels(W, Ut)
    for Z in _factor_panels(W, Vt):
        Z *= Z if others is None else next(others)
        out += Z.sum(axis=1)
    return out


def _monomial_stack(model: ChristoffelModel, C: np.ndarray) -> np.ndarray:
    """The monomials of the coefficient rows C, padded with zero rows to
    whole blocks (`whole_blocks`), as a (blocks, m, CD_BLOCK_ROWS) stack:
    the transpose of a C-ordered (m, rows) array, viewed without a copy.  A
    pad row's monomials are (1, 0, ..., 0); its values are dropped, and no
    other row's column of a product depends on it."""
    V = eval_monomial_matrix(whole_blocks(C, CD_BLOCK_ROWS), model.basis).T
    return V.reshape(V.shape[0], -1, CD_BLOCK_ROWS).transpose(1, 0, 2)


def _cd_rows(model: ChristoffelModel, C: np.ndarray) -> np.ndarray:
    """`_cd_from_factor` of the model's monomial rows of the coefficient
    rows C, evaluated a chunk of whole CD_BLOCK_ROWS-row blocks at a time
    (`_monomial_stack`), so a row's value does not depend on the batch it
    came in.  A row whose monomials overflowed (an inf or nan entry) scores
    inf: the diagonal of W is nonzero, so the entry reaches its panel's
    product.
    """
    W = model.inverse_factor  # a loaded model factors here, before any block is allocated
    step = CD_BLOCK_ROWS * max(1, CD_CHUNK_FLOATS // (CD_BLOCK_ROWS * W.shape[0]))
    out = np.empty(C.shape[0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf is a valid verdict
        for start in range(0, C.shape[0], step):
            rows = C[start:start + step]
            Vt = _monomial_stack(model, rows)
            out[start:start + len(rows)] = _cd_from_factor(W, Vt).ravel()[:len(rows)]
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
    copied (`read_only_array`), so no later write to the caller's array
    reaches the model or its cached factor.
    """

    basis: BasisEnumeration
    epsilon: float
    sample_count: int
    moment_sum: np.ndarray = field(repr=False)       # S = sum_i v(g_i) v(g_i)^T
    domain: tuple[float, float] = (-1.0, 1.0)
    provenance: str = "fit"

    def __post_init__(self) -> None:
        S = read_only_array(self.moment_sum)
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
    return reciprocal(cd_value(model, c))


def reciprocal(cd):
    """The Christoffel values 1 / cd of a CD value or an array of them
    (a float or an array back): 0.0 where cd overflowed to inf (or nan),
    inf where it is 0."""
    cd = np.asarray(cd, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(np.isfinite(cd), np.where(cd > 0.0, 1.0 / cd, np.inf), 0.0)
    return out if out.ndim else float(out)


def _probe_stack(model: ChristoffelModel, c) -> np.ndarray:
    """The monomials of one probe as `_cd_rows` stacks them: one padded block."""
    return _monomial_stack(model, model._probe_rows(coeff_array(c)))


def kernel(model: ChristoffelModel, c1, c2) -> float:
    """Evaluation kernel v(c1)^T (S/N + eps*I)^{-1} v(c2) (symmetric).

    It is summed as `cd_values` sums, so kernel(c, c) is cd_value(c) bit
    for bit.
    """
    W = model.inverse_factor
    return float(_cd_from_factor(W, _probe_stack(model, c1), _probe_stack(model, c2))[0, 0])


def extremal_polynomial(model: ChristoffelModel, h) -> np.ndarray:
    """Coefficients (monomial basis) of the minimizer attaining the
    Christoffel value at h.

    The returned w satisfies w . v(h) = 1, and at eps = 0 its empirical
    second moment (1/N) sum_i (w . v(g_i))^2 equals christoffel_value(h).
    z = W v(h) comes from the panel products of `cd_values`.
    """
    W = model.inverse_factor
    z = np.concatenate([Z[0, :, 0] for Z in _factor_panels(W, _probe_stack(model, h))])
    cd = cd_value(model, h)
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
