import itertools
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcf.basis import (
    MAX_BASIS_SIZE,
    BasisEnumeration,
    basis_size,
    enumerate_basis,
    eval_monomial_matrix,
)
from trajcf.errors import InputError


def _monomial(c, a) -> float:
    """c^a: the column of exponent row ``a`` in the monomial matrix of c."""
    bas = enumerate_basis(sum(a), len(a))
    col = bas.exponents().tolist().index(list(a))
    return float(eval_monomial_matrix([c], bas)[0, col])


def test_count_matches_binomial_for_known_pairs():
    assert len(enumerate_basis(4, 2)) == 15
    assert len(enumerate_basis(0, 5)) == 1
    assert len(enumerate_basis(2, 2)) == 6
    assert len(enumerate_basis(4, 4)) == 70


def test_exhaustive_counts_small_grid():
    for d in range(0, 7):
        for n in range(1, 7):
            assert len(enumerate_basis(d, n)) == math.comb(n + d, n)


def test_degree_zero_is_only_the_constant():
    bas = enumerate_basis(0, 5)
    assert bas.exponents().tolist() == [[0, 0, 0, 0, 0]]


def test_graded_lex_order_d2_n2():
    bas = enumerate_basis(2, 2)
    assert bas.exponents().tolist() == [
        [0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2],
    ]


def test_order_matches_a_sorted_reference():
    # graded lexicographic: every exponent tuple of total degree <= d, by
    # degree ascending, then descending lexicographic within a degree
    for d in range(0, 6):
        for n in range(1, 5):
            want = sorted((a for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d),
                          key=lambda a: (sum(a), [-x for x in a]))
            assert enumerate_basis(d, n).exponents().tolist() == [list(a) for a in want]


def test_enumeration_is_deterministic():
    a = enumerate_basis(3, 3)
    b = enumerate_basis(3, 3)
    assert a == b
    assert np.array_equal(a.exponents(), b.exponents())


def test_constant_first_and_degrees_ascending():
    bas = enumerate_basis(5, 3)
    degrees = bas.exponents().sum(axis=1).tolist()
    assert degrees[0] == 0
    assert degrees == sorted(degrees)


def test_nesting_is_prefix_closed_as_sets():
    def padded_set(bas, width):
        return {tuple(row) + (0,) * (width - len(row)) for row in bas.exponents().tolist()}

    small = padded_set(enumerate_basis(2, 2), 4)
    assert small <= padded_set(enumerate_basis(3, 2), 4)
    assert small <= padded_set(enumerate_basis(2, 4), 4)
    assert small <= padded_set(enumerate_basis(4, 4), 4)


def test_rejects_bad_degree_pairs():
    with pytest.raises(InputError):
        enumerate_basis(2, 0)
    with pytest.raises(InputError):
        enumerate_basis(-1, 2)
    with pytest.raises(InputError):
        enumerate_basis(2.5, 2)


def test_rejects_oversized_basis():
    assert basis_size(100, 4) > MAX_BASIS_SIZE
    with pytest.raises(InputError, match="cap"):
        enumerate_basis(100, 4)


@pytest.mark.parametrize("d, n", [(200_000, 100_000), (10**6, 10**6), (1, 10**6), (0, 10**7)])
def test_huge_degree_pairs_fail_at_once(d, n):
    # the cap check never builds the exact binomial, which for these pairs
    # has tens of thousands of digits (or takes seconds to compute)
    t0 = time.perf_counter()
    with pytest.raises(InputError, match="cap") as info:
        enumerate_basis(d, n)
    assert time.perf_counter() - t0 < 0.5
    assert len(str(info.value)) < 120


def test_many_variables_enumerate_without_deep_recursion():
    bas = enumerate_basis(1, 2000)
    assert len(bas) == 2001 and bas.exponents().shape == (2001, 2000)
    np.testing.assert_array_equal(bas.exponents()[1:], np.eye(2000, dtype=np.int64))
    assert enumerate_basis(0, 5000).exponents().tolist() == [[0] * 5000]


def test_eval_monomial_examples():
    assert _monomial([3.0, -2.0], (0, 0)) == 1.0
    # the square of the second coefficient of sqrt(2)*t is 1
    assert _monomial([0.0, 1.0], (0, 2)) == 1.0
    assert _monomial([2.0, 3.0], (3, 1)) == 24.0


def test_monomial_vector_examples():
    bas22 = enumerate_basis(2, 2)
    assert np.array_equal(
        eval_monomial_matrix(np.zeros((1, 5)), bas22)[0], [1, 0, 0, 0, 0, 0]
    )
    assert np.array_equal(
        eval_monomial_matrix([[1.0, 1.0]], bas22)[0], np.ones(6)
    )
    bas12 = enumerate_basis(1, 2)
    assert np.array_equal(eval_monomial_matrix([[2.0, 3.0]], bas12)[0], [1, 2, 3])


def test_monomial_vector_leading_entry_is_one():
    rng = np.random.default_rng(7)
    bas = enumerate_basis(3, 4)
    V = eval_monomial_matrix(rng.normal(size=(20, 4)), bas)
    assert np.all(V[:, 0] == 1.0)


def test_matrix_agrees_with_vector():
    # each row of a batch equals the product formula prod_k c[k] ** a[k]
    rng = np.random.default_rng(11)
    bas = enumerate_basis(4, 3)
    C = rng.normal(size=(8, 3))
    V = eval_monomial_matrix(C, bas)
    for i in range(8):
        want = np.prod(C[i] ** bas.exponents(), axis=1)
        np.testing.assert_allclose(V[i], want, rtol=1e-13)
        np.testing.assert_array_equal(V[i], eval_monomial_matrix(C[i:i + 1], bas)[0])


@pytest.mark.parametrize("d", range(0, 7))
@pytest.mark.parametrize("n", range(1, 6))
def test_matrix_matches_the_power_product_formula(d, n):
    # each monomial is d or fewer roundings from the exact value, as is the
    # reference prod_k c[k] ** a[k]; the tolerance is set from that count
    rng = np.random.default_rng(100 * d + n)
    bas = enumerate_basis(d, n)
    C = rng.uniform(-3.0, 3.0, size=(40, n))
    want = np.prod(C[:, None, :] ** bas.exponents()[None, :, :], axis=2)
    rtol = 4 * d * np.finfo(float).eps
    np.testing.assert_allclose(eval_monomial_matrix(C, bas), want, rtol=rtol, atol=0.0)


def test_the_parent_of_a_monomial_drops_its_last_variable():
    bas = enumerate_basis(4, 3)
    expo = bas.exponents()
    for i in range(1, len(bas)):
        grown = expo[bas.parents[i]].copy()
        grown[bas.variables[i]] += 1
        assert grown.tolist() == expo[i].tolist()
        assert not expo[i, bas.variables[i] + 1:].any()
    degrees = expo.sum(axis=1)
    for g, (lo, hi) in enumerate(zip(bas.grade_starts, bas.grade_starts[1:])):
        assert (degrees[lo:hi] == g).all()


def test_a_replaced_degree_pair_rebuilds_the_arrays():
    bas = replace(enumerate_basis(2, 2), degree_pair=(3, 2))
    want = enumerate_basis(3, 2)
    assert len(bas) == len(want) == 10
    assert bas.grade_starts == want.grade_starts
    np.testing.assert_array_equal(bas.parents, want.parents)
    np.testing.assert_array_equal(bas.variables, want.variables)
    assert not bas.parents.flags.writeable and not bas.variables.flags.writeable


def test_only_the_degree_pair_can_be_passed_in():
    bas = enumerate_basis(2, 2)
    with pytest.raises(TypeError):
        BasisEnumeration((2, 2), bas.parents, bas.variables, bas.grade_starts)
    with pytest.raises(ValueError, match="parents"):
        replace(bas, parents=bas.parents)
    with pytest.raises(InputError, match="harmonic degree must be >= 1"):
        BasisEnumeration((2, 0))


def test_many_variables_enumerate_in_bounded_memory():
    # the exponent rows of (1, 9999) alone would be 800 MB
    tracemalloc.start()
    try:
        bas = enumerate_basis(1, 9999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bas) == 10_000
    assert peak < 10e6


def test_matrix_rejects_nonfinite():
    bas = enumerate_basis(2, 2)
    with pytest.raises(InputError):
        eval_monomial_matrix([[1.0, np.nan]], bas)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_monomials_are_multiplicative(n, data):
    # for every pair of exponent rows a, b with a + b in the basis, the
    # column of a + b is the product of the columns of a and b
    bas = enumerate_basis(4, n)
    coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    c = [data.draw(coords) for _ in range(n)]
    v = eval_monomial_matrix([c], bas)[0]
    rows = bas.exponents().tolist()
    column = {tuple(row): k for k, row in enumerate(rows)}
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            k = column.get(tuple(x + y for x, y in zip(a, b)))
            if k is not None:
                assert v[k] == pytest.approx(v[i] * v[j], rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3), st.integers(1, 3),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.data(),
)
def test_scaling_covariance_per_index(d, n, s, data):
    bas = enumerate_basis(d, n)
    coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    c = np.array([data.draw(coords) for _ in range(n)])
    v = eval_monomial_matrix(c[None, :], bas)[0]
    v_scaled = eval_monomial_matrix(s * c[None, :], bas)[0]
    for degree, a, b in zip(bas.exponents().sum(axis=1).tolist(), v, v_scaled):
        assert b == pytest.approx(s ** degree * a, rel=1e-12, abs=1e-12)

