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

The count is binomial(n + d, n).  `BasisEnumeration` stores each monomial
of degree >= 1 as its parent, the monomial with the last variable of its
multiset removed, times that variable; `eval_monomial_matrix` evaluates
the basis one grade at a time from those pairs, and
`BasisEnumeration.exponents` derives the exponent rows on request.
Everything here is a pure function of its arguments; results are safe to
share across threads.
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
class BasisEnumeration:
    """All monomials of P_{d,n} in graded lexicographic order.

    Only ``degree_pair`` is given; the other attributes follow from it and
    are built, once, on construction, so no basis can disagree with its
    degrees.

    Attributes
    ----------
    degree_pair : (int, int)
        ``(d, n)``: algebraic degree bound, >= 0, and number of variables,
        >= 1.  Anything else, or a basis of more than ``MAX_BASIS_SIZE``
        monomials, raises `InputError`.
    parents, variables : ndarray of intp, shape (m,), read-only
        Monomial i >= 1 is monomial ``parents[i]`` times variable
        ``variables[i]`` (0-based), the largest variable of its multiset;
        the parent lies in the grade below.  Entry 0, the constant, holds 0
        in both.
    grade_starts : tuple of int, length d + 2
        Grade g occupies indices ``grade_starts[g]:grade_starts[g + 1]``;
        the last entry is m.
    """

    degree_pair: tuple[int, int]
    parents: np.ndarray = field(init=False, repr=False, compare=False)
    variables: np.ndarray = field(init=False, repr=False, compare=False)
    grade_starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d, n = self.degree_pair
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
        # Grade g extends each monomial of grade g - 1 by every variable no
        # smaller than its last (the constant by every variable).  That lists
        # the multisets of variable indices in ascending lexicographic order,
        # which is descending order of their exponent rows.
        parents, variables, starts = [0], [0], [0, 1]
        for _ in range(d):
            for p in range(starts[-2], starts[-1]):
                for v in range(variables[p], n):
                    parents.append(p)
                    variables.append(v)
            starts.append(len(parents))
        object.__setattr__(self, "degree_pair", (d, n))
        object.__setattr__(self, "grade_starts", tuple(starts))
        for name, seq in (("parents", parents), ("variables", variables)):
            arr = np.array(seq, dtype=np.intp)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.grade_starts[-1]

    @property
    def d(self) -> int:
        return self.degree_pair[0]

    @property
    def n(self) -> int:
        return self.degree_pair[1]

    def exponents(self) -> np.ndarray:
        """Exponent rows, a new (m, n) int64 array: row i holds the
        exponents of monomial i, row 0 the constant's zeros.

        Built on request, one grade at a time from the parents; evaluation
        never needs it, and at n in the thousands it is the largest object
        here by far.
        """
        expo = np.zeros((len(self), self.n), dtype=np.int64)
        for lo, hi in zip(self.grade_starts[1:-1], self.grade_starts[2:]):
            expo[lo:hi] = expo[self.parents[lo:hi]]
            expo[np.arange(lo, hi), self.variables[lo:hi]] += 1
        return expo


def basis_size(d: int, n: int) -> int:
    """Dimension of P_{d,n}: binomial(n + d, n)."""
    return math.comb(n + d, n)


def _require_within_cap(d: int, n: int) -> None:
    """Raise `InputError` if binomial(n + d, n) > MAX_BASIS_SIZE, or if the
    number of variables exceeds the cap (only possible alone at d = 0).

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


def enumerate_basis(d: int, n: int) -> BasisEnumeration:
    """The binomial(n + d, n) monomials of P_{d,n}, graded lexicographic,
    constant first: ``BasisEnumeration((d, n))``, which checks d and n."""
    return BasisEnumeration((d, n))


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
    The matrix is filled as its transpose, one monomial per row, and
    returned as a transposed (Fortran-ordered) view.  Row 0 is set to 1,
    then each grade is filled with one product of its parents' rows,
    filled the grade before, and its variables' rows of ``coeffs.T``:
    O(N * m) multiplications on whole contiguous rows, and no temporary
    larger than one grade.
    """
    C = np.asarray(coeffs, dtype=float)
    if C.ndim != 2 or C.shape[1] < basis.n:
        raise InputError(
            f"coefficient matrix of shape {C.shape} does not provide "
            f"{basis.n} variables"
        )
    if not np.all(np.isfinite(C[:, : basis.n])):
        raise InputError("coefficient vectors contain non-finite entries")
    Ct = np.ascontiguousarray(C[:, : basis.n].T)
    out = np.empty((len(basis), C.shape[0]), dtype=float)
    out[0] = 1.0
    starts = basis.grade_starts
    # Large coefficients overflow to inf (and inf * 0 to nan): fitting
    # rejects such a moment matrix and scoring gives such a row cd = inf.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(starts[1:-1], starts[2:]):
            np.multiply(out[basis.parents[lo:hi]], Ct[basis.variables[lo:hi]], out=out[lo:hi])
    return out.T
