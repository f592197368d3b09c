"""Monomial basis of the polynomial space P_{d,n}.

P_{d,n} collects polynomials in the first ``n`` coefficient variables
``c_1 .. c_n`` (a trajectory's leading orthonormal-expansion coefficients)
with total degree at most ``d``.  A monomial is identified by a multi-index
``a``: the exponent it assigns to each variable,

    c^a = c_1**a[0] * c_2**a[1] * ... * c_n**a[n-1].

The enumeration order is graded lexicographic: total degree ascending, and
within one grade the exponent tuples in descending lexicographic order, so
the constant monomial always comes first.  For (d=2, n=2) that is

    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).

The count is binomial(n + d, n).  Everything here is a pure function of its
arguments; results are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# Hard ceiling on binomial(n+d, n); the dense m x m factorization downstream
# is O(m^3) and this keeps it within a desk-scale budget.
MAX_BASIS_SIZE = 10_000


@dataclass(frozen=True)
class MultiIndex:
    """Exponent sequence of one monomial.

    Parameters
    ----------
    exponents : tuple of int
        ``exponents[k]`` is the power of the (k+1)-th coefficient variable.
        All entries are >= 0.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any((not isinstance(e, (int, np.integer))) or e < 0 for e in self.exponents):
            raise InputError(f"multi-index entries must be non-negative integers: {self.exponents}")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))

    @property
    def total_degree(self) -> int:
        """Sum of the exponents (the monomial's algebraic degree)."""
        return sum(self.exponents)

    @property
    def support_length(self) -> int:
        """Index of the last nonzero exponent plus one (0 for the constant)."""
        for k in range(len(self.exponents) - 1, -1, -1):
            if self.exponents[k] != 0:
                return k + 1
        return 0

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        a, b = self.exponents, other.exponents
        if len(a) < len(b):
            a, b = b, a
        return MultiIndex(tuple(x + y for x, y in zip(a, b[: len(a)] + (0,) * (len(a) - len(b)))))


@dataclass(frozen=True)
class BasisEnumeration:
    """All monomials of P_{d,n} in graded lexicographic order.

    Attributes
    ----------
    degree_pair : (int, int)
        ``(d, n)``: algebraic degree bound and number of variables.
    indices : tuple of MultiIndex
        The ordered monomials; ``indices[0]`` is the constant.
    """

    degree_pair: tuple[int, int]
    indices: tuple[MultiIndex, ...]
    # Dense (m, n) int array of the same exponents, kept alongside the
    # MultiIndex view because batched evaluation wants an array.
    exponent_array: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.exponent_array is None:
            arr = np.array([ix.exponents for ix in self.indices], dtype=np.int64)
            object.__setattr__(self, "exponent_array", arr)
        self.exponent_array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def d(self) -> int:
        return self.degree_pair[0]

    @property
    def n(self) -> int:
        return self.degree_pair[1]


def basis_size(d: int, n: int) -> int:
    """Dimension of P_{d,n}: binomial(n + d, n)."""
    return math.comb(n + d, n)


def _grade(total: int, slots: int):
    """Yield all exponent tuples of length ``slots`` summing to ``total``,
    in descending lexicographic order."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _grade(total - first, slots - 1):
            yield (first,) + rest


def enumerate_basis(d: int, n: int) -> BasisEnumeration:
    """Enumerate the monomial basis of P_{d,n}.

    Parameters
    ----------
    d : int
        Algebraic degree bound, >= 0.
    n : int
        Number of coefficient variables, >= 1.

    Returns
    -------
    BasisEnumeration
        binomial(n + d, n) multi-indices, graded lexicographic, constant
        monomial first.

    Raises
    ------
    InputError
        If ``d < 0``, ``n < 1``, either is not an integer, or the basis
        size would exceed ``MAX_BASIS_SIZE``.
    """
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise InputError(f"algebraic degree must be an integer, got {d!r}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InputError(f"harmonic degree must be an integer, got {n!r}")
    if d < 0:
        raise InputError(f"algebraic degree must be >= 0, got {d}")
    if n < 1:
        raise InputError(f"harmonic degree must be >= 1, got {n}")
    m = basis_size(d, n)
    if m > MAX_BASIS_SIZE:
        raise InputError(
            f"basis of degree pair ({d}, {n}) has {m} monomials, "
            f"exceeding the cap of {MAX_BASIS_SIZE}"
        )
    indices = tuple(
        MultiIndex(expo) for total in range(d + 1) for expo in _grade(total, int(n))
    )
    assert len(indices) == m
    return BasisEnumeration(degree_pair=(int(d), int(n)), indices=indices)


def eval_monomial(c, a: MultiIndex) -> float:
    """Evaluate one monomial c^a at a coefficient vector.

    Parameters
    ----------
    c : array_like
        Coefficient vector; must cover the support of ``a``.
    a : MultiIndex
        The exponents.

    Returns
    -------
    float
        ``prod_k c[k] ** a[k]``; the empty product is 1.0.
    """
    c = np.asarray(c, dtype=float)
    support = a.support_length
    if c.ndim != 1 or c.size < support:
        raise InputError(
            f"coefficient vector of length {c.size} cannot be raised to a "
            f"multi-index supported on {support} variables"
        )
    if support == 0:
        return 1.0
    expo = np.asarray(a.exponents[:support], dtype=np.int64)
    return float(np.prod(c[:support] ** expo))


def eval_monomial_vector(c, basis: BasisEnumeration) -> np.ndarray:
    """Evaluate the full monomial vector v_{d,n}(c).

    Returns a vector of length ``len(basis)`` whose i-th entry is the i-th
    basis monomial at ``c``; entry 0 (the constant) is always 1.
    """
    c = np.asarray(c, dtype=float)
    n = basis.n
    if c.ndim != 1 or c.size < n:
        raise InputError(
            f"coefficient vector has {c.size} entries but the basis needs {n}"
        )
    return eval_monomial_matrix(c[None, :], basis)[0]


def eval_monomial_matrix(coeffs, basis: BasisEnumeration) -> np.ndarray:
    """Evaluate monomial vectors for a batch of coefficient vectors.

    Parameters
    ----------
    coeffs : array_like, shape (N, >= n)
        One coefficient vector per row.
    basis : BasisEnumeration

    Returns
    -------
    ndarray, shape (N, len(basis))
        Row i is ``eval_monomial_vector(coeffs[i], basis)``.

    Notes
    -----
    Powers of each variable are tabulated once up to the largest exponent
    that occurs, then gathered per monomial, so the cost is O(N * m) gathers
    rather than O(N * m * d) exponentiations.
    """
    C = np.asarray(coeffs, dtype=float)
    if C.ndim != 2 or C.shape[1] < basis.n:
        raise InputError(
            f"coefficient matrix of shape {C.shape} does not provide "
            f"{basis.n} variables"
        )
    if not np.all(np.isfinite(C[:, : basis.n])):
        raise InputError("coefficient vectors contain non-finite entries")
    expo = basis.exponent_array
    N = C.shape[0]
    out = np.ones((N, len(basis)), dtype=float)
    # Large coefficients overflow to inf (and inf * 0 to nan): fitting
    # rejects such a moment matrix and scoring gives such a row cd = inf.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(basis.n):
            top = int(expo[:, k].max())
            if top == 0:
                continue
            powers = np.empty((N, top + 1), dtype=float)
            powers[:, 0] = 1.0
            for p in range(1, top + 1):
                powers[:, p] = powers[:, p - 1] * C[:, k]
            out *= powers[:, expo[:, k]]
    return out
