"""Monomial basis of the polynomial space P_{d,n}.

P_{d,n} collects polynomials in the first ``n`` coefficient variables
``c_1 .. c_n`` (a trajectory's leading orthonormal-expansion coefficients)
with total degree at most ``d``.  A monomial is identified by its row of
exponents ``a``, one per variable,

    c^a = c_1**a[0] * c_2**a[1] * ... * c_n**a[n-1].

The enumeration order is graded lexicographic: total degree ascending, and
within one grade the exponent rows in descending lexicographic order, so
the constant monomial always comes first.  For (d=2, n=2) that is

    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).

The count is binomial(n + d, n); `BasisEnumeration.exponent_array` holds
the rows and `eval_monomial_matrix` evaluates them.  Everything here is a
pure function of its arguments; results are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import InputError

# Hard ceiling on binomial(n+d, n); the dense m x m factorization downstream
# is O(m^3) and this keeps it within a desk-scale budget.
MAX_BASIS_SIZE = 10_000


@dataclass(frozen=True)
class BasisEnumeration:
    """All monomials of P_{d,n} in graded lexicographic order.

    Attributes
    ----------
    degree_pair : (int, int)
        ``(d, n)``: algebraic degree bound and number of variables.
    exponent_array : ndarray of int64, shape (m, n), read-only
        Row i holds the exponents of the i-th monomial; row 0 is the
        constant.
    """

    degree_pair: tuple[int, int]
    exponent_array: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        self.exponent_array.setflags(write=False)

    def __len__(self) -> int:
        return self.exponent_array.shape[0]

    @property
    def d(self) -> int:
        return self.degree_pair[0]

    @property
    def n(self) -> int:
        return self.degree_pair[1]


def basis_size(d: int, n: int) -> int:
    """Dimension of P_{d,n}: binomial(n + d, n)."""
    return math.comb(n + d, n)


def _require_within_cap(d: int, n: int) -> None:
    """Raise `InputError` if binomial(n + d, n) > MAX_BASIS_SIZE, or if the
    exponent rows would be wider than the cap (only possible at d = 0).

    The binomial is built one factor at a time: the partial products
    binomial(max(d, n) + i, i), i = 1 .. min(d, n), never decrease, so a
    huge degree pair fails at the first one past the cap.
    """
    size = 1
    for i in range(1, min(d, n) + 1):
        size = size * (max(d, n) + i) // i
        if size > MAX_BASIS_SIZE:
            raise InputError(
                f"basis of degree pair ({d}, {n}) has more than "
                f"{MAX_BASIS_SIZE} monomials, the cap"
            )
    if n > MAX_BASIS_SIZE:
        raise InputError(f"harmonic degree {n} exceeds the cap of {MAX_BASIS_SIZE}")


def _grade(total: int, slots: int) -> np.ndarray:
    """Exponent rows, shape (k, slots), of every monomial of degree ``total``,
    in descending lexicographic order.

    A monomial is the multiset of its variables' indices, and
    `combinations_with_replacement` lists those multisets in ascending
    lexicographic order, which is descending order of the exponent rows.
    """
    combos = list(combinations_with_replacement(range(slots), total))
    rows = np.zeros((len(combos), slots), dtype=np.int64)
    variables = np.array(combos, dtype=np.int64).reshape(len(combos), total)
    np.add.at(rows, (np.arange(len(combos))[:, None], variables), 1)
    return rows


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
        binomial(n + d, n) exponent rows, graded lexicographic, constant
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
    d, n = int(d), int(n)
    _require_within_cap(d, n)
    expo = np.vstack([_grade(total, n) for total in range(d + 1)])
    return BasisEnumeration(degree_pair=(d, n), exponent_array=expo)


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
        Row i holds every basis monomial at ``coeffs[i]``; column 0 (the
        constant) is 1.

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
