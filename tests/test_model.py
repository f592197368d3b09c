import io
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import assert_same_text
from trajcf.errors import InputError, MismatchError, NumericalError
from trajcf.model import (
    ChristoffelModel,
    TrajectoryDataset,
    cd_value,
    cd_value_after_update,
    cd_values,
    christoffel_value,
    default_epsilon,
    downdate,
    dumps,
    extremal_polynomial,
    fit,
    kernel,
    load,
    save,
    update,
)
from trajcf.model import _cholesky_in_place, _factor_from_moments, _shifted_moments
from trajcf.basis import enumerate_basis, eval_monomial_matrix
from trajcf.projection import (
    SampledTrajectory,
    chebyshev_quadrature_nodes,
    project_samples,
    reconstruct_batch,
    unit_times,
)


def gaussian_dataset(N, n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return TrajectoryDataset.from_coefficients(scale * rng.normal(size=(N, n)))


# --- fit -------------------------------------------------------------------

def test_single_constant_trajectory_is_singular_without_shift():
    data = TrajectoryDataset.from_coefficients([[1.0]])
    with pytest.raises(NumericalError, match="singular"):
        fit(data, 1, 1, epsilon=0.0)


def test_constant_monomial_diagonal_is_one():
    model = fit(gaussian_dataset(23, 3, seed=5), 2, 3)
    assert model.moment_matrix()[0, 0] == 1.0


def test_unused_coordinate_zeroes_row_and_column():
    rng = np.random.default_rng(2)
    C = np.column_stack([rng.normal(size=40), rng.normal(size=40), np.zeros(40)])
    model = fit(TrajectoryDataset.from_coefficients(C), 1, 3)
    M = model.moment_matrix()
    assert np.max(np.abs(M[-1, :])) == 0.0
    assert np.max(np.abs(M[:, -1])) == 0.0


def test_fit_validates_epsilon_and_empty_data():
    data = gaussian_dataset(10, 2, seed=0)
    with pytest.raises(InputError):
        fit(data, 2, 2, epsilon=-1.0)
    with pytest.raises(InputError, match="cannot be empty"):
        fit(TrajectoryDataset(np.empty((0, 2))), 2, 2)


def test_fit_rejects_short_coefficient_vectors():
    data = TrajectoryDataset.from_coefficients([[1.0, 2.0]], ids=["a"])
    with pytest.raises(InputError, match="fewer than"):
        fit(data, 1, 3)


def test_default_epsilon_is_scale_relative():
    model = fit(gaussian_dataset(50, 2, seed=1), 2, 2)
    S = model.moment_sum
    expected = 1e-8 * np.trace(S / 50) / 6
    assert model.epsilon == pytest.approx(expected, rel=1e-12)
    assert default_epsilon(S, 50) == model.epsilon


def test_singular_fit_reports_eigenvalue():
    # coefficients confined to a line make degree-2 monomials dependent
    rng = np.random.default_rng(4)
    x = rng.normal(size=30)
    data = TrajectoryDataset.from_coefficients(np.column_stack([x, 2.0 * x]))
    with pytest.raises(NumericalError, match="eigenvalue"):
        fit(data, 2, 2, epsilon=0.0)


def test_moment_sum_is_positive_semidefinite():
    for seed in range(4):
        model = fit(gaussian_dataset(30, 3, seed=seed), 2, 3)
        w = np.linalg.eigvalsh(model.moment_sum)
        assert w[0] >= -1e-10 * np.trace(model.moment_sum)


# --- cd_value against frozen oracles ---------------------------------------

def test_cd_matches_cofactor_inverse_oracle():
    # 3 samples {0.3, -0.7, 1.2} at (d, n) = (1, 1):
    # M = [[1, 4/15], [4/15, 101/150]], det = 271/450, and the quadratic
    # forms evaluate to the exact rationals below.
    data = TrajectoryDataset.from_coefficients([[0.3], [-0.7], [1.2]])
    model = fit(data, 1, 1, epsilon=0.0)
    expected = {
        0.3: 543 / 542,
        -0.7: 1383 / 542,
        1.2: 663 / 271,
    }
    for c, cd in expected.items():
        assert cd_value(model, [c]) == pytest.approx(cd, rel=1e-12)
    mean = np.mean(cd_values(model, np.array([[0.3], [-0.7], [1.2]])))
    assert mean == pytest.approx(2.0, rel=1e-12)  # in-sample mean = basis size


def test_identity_moment_matrix_gives_squared_norm():
    # samples {+1, -1} at (d, n) = (1, 1) average to the identity matrix
    model = fit(TrajectoryDataset.from_coefficients([[1.0], [-1.0]]), 1, 1, epsilon=0.0)
    np.testing.assert_allclose(model.moment_matrix(), np.eye(2), atol=1e-15)
    for c in (0.0, 0.6, -1.3):
        assert cd_value(model, [c]) == pytest.approx(1.0 + c * c, rel=1e-12)
    # v(0) is the unit constant vector: reciprocal score is exactly 1
    assert christoffel_value(model, [0.0]) == pytest.approx(1.0, rel=1e-12)


def test_training_scores_lie_in_unit_interval():
    data = gaussian_dataset(60, 2, seed=9)
    model = fit(data, 2, 2, epsilon=0.0)
    for row in data.coeffs:
        lam = christoffel_value(model, row)
        assert 0.0 < lam <= 1.0 + 1e-12


def test_christoffel_value_overflow_returns_zero():
    model = fit(gaussian_dataset(30, 2, seed=3), 1, 2, epsilon=0.0)
    # the monomial 1e160 meets W's O(1) entries: its square overflows
    assert math.isinf(cd_value(model, [1e160, 1.0]))
    assert christoffel_value(model, [1e160, 1.0]) == 0.0


def test_probe_shorter_than_model_is_a_mismatch():
    model = fit(gaussian_dataset(30, 3, seed=1), 1, 3)
    with pytest.raises(MismatchError):
        cd_value(model, [1.0, 2.0])


# --- kernel ----------------------------------------------------------------

def test_kernel_diagonal_and_symmetry():
    model = fit(gaussian_dataset(40, 2, seed=12), 2, 2, epsilon=0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = rng.normal(size=2), rng.normal(size=2)
        assert kernel(model, a, a) == pytest.approx(cd_value(model, a), rel=1e-12)
        assert kernel(model, a, b) == pytest.approx(kernel(model, b, a), rel=1e-12)


def test_empirical_reproducing_property():
    data = gaussian_dataset(50, 2, seed=21)
    model = fit(data, 2, 2, epsilon=0.0)
    C = data.coefficient_matrix(2)
    rng = np.random.default_rng(1)
    bas = enumerate_basis(2, 2)
    V = eval_monomial_matrix(C, bas)
    for _ in range(5):
        w = rng.normal(size=len(bas))       # a random polynomial p = w . v
        h = rng.normal(size=2)
        lhs = np.mean((V @ w) * np.array([kernel(model, g, h) for g in C]))
        rhs = w @ eval_monomial_matrix(h[None, :], bas)[0]
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


# --- extremal polynomial ----------------------------------------------------

def test_extremal_polynomial_normalization_and_moment():
    data = gaussian_dataset(60, 2, seed=30)
    model = fit(data, 2, 2, epsilon=0.0)
    bas = enumerate_basis(2, 2)
    rng = np.random.default_rng(2)
    C = data.coefficient_matrix(2)
    V = eval_monomial_matrix(C, bas)
    for _ in range(5):
        h = rng.normal(size=2)
        w = extremal_polynomial(model, h)
        vh = eval_monomial_matrix(h[None, :], bas)[0]
        assert w @ vh == pytest.approx(1.0, rel=1e-10)
        second_moment = np.mean((V @ w) ** 2)
        assert second_moment == pytest.approx(christoffel_value(model, h), rel=1e-8)


def test_extremal_polynomial_identity_model():
    model = fit(TrajectoryDataset.from_coefficients([[1.0], [-1.0]]), 1, 1, epsilon=0.0)
    w = extremal_polynomial(model, [0.5])
    v = np.array([1.0, 0.5])
    np.testing.assert_allclose(w, v / (v @ v), rtol=1e-12)


# --- update / downdate ------------------------------------------------------

def test_update_equals_refit():
    rng = np.random.default_rng(40)
    C = rng.normal(size=(30, 2))
    eps = 1e-6
    incremental = fit(TrajectoryDataset.from_coefficients(C[:-1]), 2, 2, epsilon=eps)
    incremental = update(incremental, C[-1])
    scratch = fit(TrajectoryDataset.from_coefficients(C), 2, 2, epsilon=eps)
    np.testing.assert_allclose(
        incremental.moment_sum, scratch.moment_sum, rtol=1e-14, atol=1e-14
    )
    probes = rng.normal(size=(20, 2))
    np.testing.assert_allclose(
        cd_values(incremental, probes), cd_values(scratch, probes), rtol=1e-8
    )
    assert incremental.sample_count == 30


def test_update_then_downdate_round_trips():
    rng = np.random.default_rng(41)
    data = gaussian_dataset(25, 2, seed=41)
    model = fit(data, 2, 2)
    extra = rng.normal(size=2)
    back = downdate(update(model, extra), extra)
    assert back.sample_count == model.sample_count
    np.testing.assert_allclose(back.moment_sum, model.moment_sum,
                               rtol=1e-14, atol=1e-14 * np.abs(model.moment_sum).max())
    probes = rng.normal(size=(10, 2))
    np.testing.assert_allclose(cd_values(back, probes), cd_values(model, probes), rtol=1e-8)


def test_rank_one_identity_matches_refactorization():
    data = gaussian_dataset(60, 2, seed=42)
    model = fit(data, 2, 2, epsilon=0.0)
    rng = np.random.default_rng(5)
    newcomer = rng.normal(size=2)
    grown = update(model, newcomer)
    for _ in range(10):
        probe = rng.normal(size=2)
        fast = cd_value_after_update(model, newcomer, probe)
        assert fast == pytest.approx(cd_value(grown, probe), rel=1e-8)


def test_rank_one_identity_demands_zero_epsilon():
    model = fit(gaussian_dataset(30, 2, seed=43), 2, 2)  # default eps > 0
    with pytest.raises(InputError):
        cd_value_after_update(model, [0.1, 0.2], [0.3, 0.4])


def test_downdate_to_single_sample_leaves_rank_one():
    C = np.array([[0.4, -1.1], [0.9, 0.3]])
    model = fit(TrajectoryDataset.from_coefficients(C), 2, 2)
    shrunk = downdate(model, C[1])
    assert shrunk.sample_count == 1
    w = np.linalg.eigvalsh(shrunk.moment_sum)
    assert w[-2] <= 1e-12 * w[-1]  # one nonzero eigenvalue remains


def test_downdate_rejects_foreign_trajectory():
    model = fit(gaussian_dataset(2, 2, seed=44), 2, 2)
    with pytest.raises(NumericalError, match="semidefinite"):
        downdate(model, [5.0, -7.0])


def test_downdate_needs_at_least_two_samples():
    model = fit(TrajectoryDataset.from_coefficients([[0.5, 0.5]]), 1, 2)
    with pytest.raises(InputError):
        downdate(model, [0.5, 0.5])


def test_update_monotonicity_of_sample_count():
    model = fit(gaussian_dataset(10, 2, seed=45), 1, 2)
    grown = update(model, [0.0, 0.0])
    assert grown.sample_count == 11
    assert model.sample_count == 10  # original untouched (persistent style)


# --- persistence ------------------------------------------------------------

def test_save_load_round_trip_text_and_scores():
    data = gaussian_dataset(40, 2, seed=50)
    model = fit(data, 2, 2)
    text = dumps(model)
    reloaded = load(io.StringIO(text))
    assert_same_text(dumps(reloaded), text)  # byte-identical resave
    assert reloaded.sample_count == model.sample_count
    assert reloaded.epsilon == model.epsilon
    assert reloaded.domain == model.domain
    np.testing.assert_array_equal(reloaded.moment_sum, model.moment_sum)
    rng = np.random.default_rng(6)
    for _ in range(10):
        probe = rng.normal(size=2)
        assert cd_value(reloaded, probe) == pytest.approx(
            cd_value(model, probe), rel=1e-12
        )


def test_save_load_file_round_trip(tmp_path):
    model = fit(gaussian_dataset(10, 2, seed=51), 1, 2)
    path = tmp_path / "model.txt"
    save(model, path)
    reloaded = load(path)
    np.testing.assert_array_equal(reloaded.moment_sum, model.moment_sum)


def test_load_rejects_bad_header():
    with pytest.raises(InputError, match="format"):
        load(io.StringIO("something else\nd 1\n"))


def test_load_rejects_empty_payload():
    with pytest.raises(InputError, match="empty"):
        load(io.StringIO(""))


def test_load_rejects_corrupted_payload():
    model = fit(gaussian_dataset(10, 2, seed=52), 1, 2)
    text = dumps(model)
    lines = text.splitlines()
    # tamper with one matrix entry but keep the stated checksum
    lines[10] = lines[10].replace(lines[10].split()[0], "99.0", 1)
    with pytest.raises(InputError, match="checksum"):
        load(io.StringIO("\n".join(lines) + "\n"))


def test_load_rejects_truncation():
    model = fit(gaussian_dataset(10, 2, seed=53), 1, 2)
    text = dumps(model)
    with pytest.raises(InputError, match="checksum|truncated"):
        load(io.StringIO(text[: len(text) // 2]))


def test_load_rejects_size_mismatch():
    import hashlib
    model = fit(gaussian_dataset(10, 2, seed=54), 1, 2)
    text = dumps(model)
    payload_lines = text.splitlines()[:-1]
    tampered = [ln if not ln.startswith("m ") else "m 5" for ln in payload_lines]
    payload = "\n".join(tampered) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    with pytest.raises(InputError, match="monomials"):
        load(io.StringIO(payload + f"checksum sha256 {digest}\n"))


# --- dataset container -------------------------------------------------------

def test_dataset_from_trajectories_projects():
    x = np.linspace(-1, 1, 65)
    trajs = [
        SampledTrajectory(times=x, values=np.ones_like(x), id="one"),
        SampledTrajectory(times=x, values=math.sqrt(2) * x, id="lin"),
    ]
    data = TrajectoryDataset.from_trajectories(trajs, n=2)
    C = data.coefficient_matrix(2)
    np.testing.assert_allclose(C[0], [1, 0], atol=1e-6)
    np.testing.assert_allclose(C[1], [0, 1], atol=1e-6)


def test_dataset_rejects_mixed_domains():
    a = SampledTrajectory(times=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]), domain=(0, 1))
    b = SampledTrajectory(times=np.array([0.0, 2.0]), values=np.array([0.0, 1.0]), domain=(0, 2))
    with pytest.raises(InputError, match="domain"):
        TrajectoryDataset.from_trajectories([a, b], n=2)


def test_dataset_rejects_a_second_sample_grid():
    x = np.linspace(-1, 1, 9)
    a = SampledTrajectory(times=x, values=x, id="a")
    b = SampledTrajectory(times=x ** 3, values=x, id="b")
    c = SampledTrajectory(times=x[:-1], values=x[:-1], id="c")
    for other in (b, c):
        with pytest.raises(InputError, match=f"trajectory '{other.id}' is not sampled on the grid"):
            TrajectoryDataset.from_trajectories([a, a, other], n=2)


def test_on_nodes_interpolates_samples_as_np_interp_does():
    rng = np.random.default_rng(41)
    times = np.sort(rng.uniform(0.2, 1.9, 12))          # nodes beyond both ends clamp
    trajs = [SampledTrajectory(times=times, values=rng.normal(size=12), id=f"p{k}",
                               domain=(0.0, 2.0)) for k in range(5)]
    data = TrajectoryDataset.from_trajectories(trajs, n=4)
    nodes = chebyshev_quadrature_nodes(97)
    got = data.on_nodes(nodes)
    assert got.shape == (5, 97)
    for row, tr in zip(got, trajs):
        want = np.interp(nodes, unit_times(tr.times, tr.domain), tr.values)
        assert row.tolist() == want.tolist()


def test_on_nodes_evaluates_coefficient_rows_as_series():
    C = np.random.default_rng(42).normal(size=(6, 4))
    nodes = chebyshev_quadrature_nodes(33)
    got = TrajectoryDataset.from_coefficients(C).on_nodes(nodes)
    assert got.tolist() == reconstruct_batch(C, nodes).tolist()


def test_empty_dataset_is_allowed_but_cannot_be_fitted():
    empty = TrajectoryDataset(np.empty((0, 4)))
    assert len(empty) == 0 and empty.ids == ()
    assert empty.on_nodes(chebyshev_quadrature_nodes(16)).shape == (0, 16)
    sampled = TrajectoryDataset(np.empty((0, 4)), times=np.linspace(-1, 1, 5),
                                values=np.empty((5, 0)))
    assert sampled.on_nodes(np.linspace(-1, 1, 7)).shape == (0, 7)
    with pytest.raises(InputError, match="cannot be empty"):
        fit(empty, 2, 4)


def test_dataset_samples_need_one_column_per_row():
    t = np.linspace(-1, 1, 5)
    with pytest.raises(InputError, match="must form a \\(5, 2\\) array, got shape \\(5, 3\\)"):
        TrajectoryDataset(np.zeros((2, 3)), times=t, values=np.zeros((5, 3)))
    with pytest.raises(InputError, match="sample times need their values"):
        TrajectoryDataset(np.zeros((2, 3)), times=t)


def test_dataset_keeps_ids():
    data = TrajectoryDataset.from_coefficients([[1.0], [2.0]], ids=["a", "b"])
    assert data.ids == ("a", "b")


def _retag(text: str, edit) -> str:
    """A model file's text with ``edit`` applied to its payload lines and
    the checksum recomputed, so only the edit is wrong."""
    import hashlib
    payload = "\n".join(edit(text.splitlines()[:-1])) + "\n"
    return payload + f"checksum sha256 {hashlib.sha256(payload.encode()).hexdigest()}\n"


def test_load_rejects_non_finite_moments_behind_a_valid_checksum():
    model = fit(gaussian_dataset(10, 3, seed=55), 1, 3)  # m = 4

    def poison(lines):
        row = lines.index("S") + 2
        cells = lines[row].split()
        cells[1] = "nan"
        lines[row] = " ".join(cells)
        return lines

    with pytest.raises(InputError, match="non-finite"):
        load(io.StringIO(_retag(dumps(model), poison)))


def test_fit_with_overflowing_monomials_is_a_numerical_error():
    data = TrajectoryDataset.from_coefficients(np.full((5, 2), 1e80) * [[1.0, -1.0]])
    with pytest.raises(NumericalError, match="non-finite"):
        fit(data, 4, 2)


def test_a_moment_sum_beyond_half_the_float_range_is_a_numerical_error():
    # every cell of S is finite, but the trace behind the default epsilon
    # overflows: it is reported as fit reports overflowing monomials,
    # without a RuntimeWarning
    import warnings
    data = TrajectoryDataset.from_coefficients(
        [[5.7e153, 5.7e153], [-5.7e153, 5.0e153], [5.7e153, -5.7e153]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite"):
            fit(data, 1, 2)


def test_a_default_epsilon_that_overflows_is_a_numerical_error():
    # S is finite, but its trace is not: the default epsilon would be inf,
    # which is no epsilon the caller gave
    import warnings
    a = 5.16e153
    data = TrajectoryDataset.from_coefficients([[a, a, a], [-a, a, -a], [a, -a, a]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite") as info:
            fit(data, 1, 3)
    assert "default epsilon" in str(info.value)


@pytest.mark.parametrize("d, n", [(0, 1), (4, 4), (3, 12), (8, 5)])
def test_moment_sums_and_their_updates_are_bit_symmetric(d, n):
    # fit, update and downdate take S as numpy sums it, so every sum and
    # every S +/- sum must mirror its bits; the row counts straddle the
    # blocks of MOMENT_BLOCK_ROWS
    from trajcf.model import MOMENT_BLOCK_ROWS, _is_bit_symmetric, _moment_sum
    assert MOMENT_BLOCK_ROWS == 1024
    basis = enumerate_basis(d, n)
    rng = np.random.default_rng(len(basis))
    change = _moment_sum(rng.normal(size=(5, n)), basis)
    for rows in (1, 1023, 1024, 1025, 2049, 3001):
        for scale in (1e-3, 1.0, 30.0):
            S = _moment_sum(scale * rng.normal(size=(rows, n)), basis)
            for summed in (S, S + change, S - change):
                assert np.all(np.isfinite(summed))
                assert _is_bit_symmetric(summed), (rows, scale)


# --- batched update / downdate -------------------------------------------------

def test_batch_update_and_downdate_match_the_sequential_loop():
    rng = np.random.default_rng(60)
    model = fit(gaussian_dataset(200, 3, seed=60), 3, 3)
    rows = rng.normal(size=(25, 3))
    looped = model
    for row in rows:
        looped = update(looped, row)
    batched = update(model, rows)
    assert batched.sample_count == looped.sample_count == 225
    probes = rng.normal(size=(40, 3))
    np.testing.assert_allclose(cd_values(batched, probes), cd_values(looped, probes), rtol=1e-10)

    back_looped = looped
    for row in rows[:10]:
        back_looped = downdate(back_looped, row)
    back_batched = downdate(batched, rows[:10])
    assert back_batched.sample_count == back_looped.sample_count == 215
    np.testing.assert_allclose(cd_values(back_batched, probes), cd_values(back_looped, probes),
                               rtol=1e-10)


def test_batch_downdate_with_a_row_never_absorbed_breaks_semidefiniteness():
    rng = np.random.default_rng(61)
    data = rng.normal(size=(30, 2))
    model = fit(TrajectoryDataset.from_coefficients(data), 2, 2)
    batch = np.vstack([data[:3], [[6.0, -5.0]]])
    with pytest.raises(NumericalError, match="semidefinite"):
        downdate(model, batch)


def test_batch_downdate_below_one_trajectory_is_an_input_error():
    data = np.random.default_rng(62).normal(size=(4, 2))
    model = fit(TrajectoryDataset.from_coefficients(data), 1, 2)
    assert downdate(model, data[:3]).sample_count == 1
    with pytest.raises(InputError, match="below one"):
        downdate(model, data)


def test_empty_batches_leave_the_model_as_it_is():
    model = fit(gaussian_dataset(10, 2, seed=63), 1, 2)
    assert update(model, np.empty((0, 2))) is model
    assert downdate(model, np.empty((0, 2))) is model


# --- one factorization path ---------------------------------------------------

@pytest.fixture(scope="module")
def example1_data():
    from trajcf.synth import generate_example1
    return generate_example1(400, seed=7).dataset


@pytest.mark.parametrize("d, n, epsilon", [(4, 4, 0.0), (4, 4, None), (6, 4, None)])
def test_fit_and_its_reloaded_copy_are_bit_identical(example1_data, d, n, epsilon):
    model = fit(example1_data, d, n, epsilon=epsilon)
    reloaded = load(io.StringIO(dumps(model)))
    np.testing.assert_array_equal(reloaded.inverse_factor, model.inverse_factor)
    probes = np.vstack([example1_data.coefficient_matrix(n)[:50],
                        np.random.default_rng(70).normal(size=(20, n))])
    np.testing.assert_array_equal(cd_values(reloaded, probes), cd_values(model, probes))
    assert model.provenance == reloaded.provenance == "fit"


def test_a_replaced_epsilon_scores_as_the_saved_copy_does():
    from trajcf.synth import generate_example1
    exp = generate_example1(500, 0)
    model = replace(fit(exp.dataset, 4, 4), epsilon=1e-3)
    reloaded = load(io.StringIO(dumps(model)))
    assert cd_value(model, exp.outlier) == cd_value(reloaded, exp.outlier)
    mean_cd = float(np.mean(cd_values(model, exp.dataset.coeffs)))
    assert model.effective_dimension() == pytest.approx(mean_cd, rel=1e-9)


def test_a_replaced_moment_sum_gives_the_factor_of_the_fit(example1_data):
    half = TrajectoryDataset.from_coefficients(example1_data.coeffs[:200])
    want = fit(half, 2, 3)
    model = replace(fit(example1_data, 2, 3), moment_sum=want.moment_sum,
                    sample_count=want.sample_count, epsilon=want.epsilon)
    _assert_bits_equal(model.inverse_factor, want.inverse_factor)
    assert not model.inverse_factor.flags.writeable


def test_the_factor_cannot_be_passed_in():
    model = fit(gaussian_dataset(30, 2, seed=3), 1, 2)
    fields = dict(basis=model.basis, epsilon=model.epsilon, sample_count=model.sample_count,
                  moment_sum=model.moment_sum)
    with pytest.raises(TypeError, match="inverse_factor"):
        ChristoffelModel(**fields, inverse_factor=model.inverse_factor)
    with pytest.raises(TypeError, match="inverse_factor"):
        replace(model, inverse_factor=model.inverse_factor)


def _field_cases():
    """(edit of a (2, 2) model's fields, expected message): each edit
    gives fields that contradict each other or the paper's M."""
    def cell(*edits):
        def edit(fields):
            S = np.array(fields["moment_sum"])
            for (i, j), value in edits:
                S[i, j] = value
            return dict(fields, moment_sum=S)
        return edit

    def with_(**kw):
        return lambda fields: dict(fields, **kw)

    not_symmetric = r"moment matrix is not symmetric"
    bad_eps = r"epsilon must be finite and >= 0, got "
    return [
        pytest.param(with_(moment_sum=np.eye(3)), r"moment matrix is not 6 x 6 \(shape \(3, 3\)\)",
                     id="short-S"),
        pytest.param(with_(epsilon=-1.0), bad_eps + r"-1\.0", id="negative-eps"),
        pytest.param(with_(epsilon=math.nan), bad_eps + "nan", id="nan-eps"),
        pytest.param(with_(epsilon=math.inf), bad_eps + "inf", id="inf-eps"),
        pytest.param(with_(sample_count=0), r"sample count must be >= 1, got 0", id="no-samples"),
        pytest.param(cell(((4, 4), math.nan)), r"moment matrix has non-finite entries", id="nan-cell"),
        pytest.param(cell(((0, 2), 0.25)), not_symmetric, id="edited-cell"),
        pytest.param(cell(((1, 3), -0.0), ((3, 1), 0.0)), not_symmetric, id="signed-zeros"),
        pytest.param(with_(domain=(1.0, -1.0)), r"invalid domain interval \(1\.0, -1\.0\)",
                     id="reversed-domain"),
    ]


@pytest.fixture(scope="module")
def model_m6():
    return fit(gaussian_dataset(30, 2, seed=64), 2, 2)


@pytest.mark.parametrize("how", ["direct", "replace"])
@pytest.mark.parametrize("edit, message", _field_cases())
def test_a_model_with_inconsistent_fields_is_an_input_error(model_m6, how, edit, message):
    # each of these built a model that scored, from part of S or with a
    # shift that is no regularization
    fields = dict(basis=model_m6.basis, epsilon=model_m6.epsilon,
                  sample_count=model_m6.sample_count, moment_sum=model_m6.moment_sum,
                  domain=model_m6.domain)
    bad = edit(fields)
    with pytest.raises(InputError, match=f"^{message}$"):
        if how == "direct":
            ChristoffelModel(**bad)
        else:
            replace(model_m6, **{k: v for k, v in bad.items() if v is not fields[k]})


def test_a_model_owns_its_moment_sum(model_m6):
    probes = np.random.default_rng(65).normal(size=(5, 2))
    want = cd_values(model_m6, probes)
    fields = dict(basis=model_m6.basis, epsilon=model_m6.epsilon,
                  sample_count=model_m6.sample_count)
    # a caller's writable array is copied and stays writable
    S = np.array(model_m6.moment_sum)
    model = ChristoffelModel(**fields, moment_sum=S)
    assert S.flags.writeable and not model.moment_sum.flags.writeable
    S *= 3.0
    _assert_bits_equal(cd_values(model, probes), want)
    # so is a view: a write to its base reaches neither S nor the cached factor
    base = np.zeros((2,) + S.shape)
    base[1] = model_m6.moment_sum
    model = replace(model_m6, moment_sum=base[1])
    _assert_bits_equal(cd_values(model, probes), want)
    base[1] *= 3.0
    _assert_bits_equal(cd_values(model, probes), want)
    _assert_bits_equal(cd_values(replace(model), probes), want)
    # an owned read-only float64 array is handed over, as fit, load, update
    # and downdate hand theirs
    frozen = np.array(model_m6.moment_sum)
    frozen.setflags(write=False)
    assert ChristoffelModel(**fields, moment_sum=frozen).moment_sum is frozen
    assert replace(model_m6, epsilon=0.5).moment_sum is model_m6.moment_sum
    assert not update(model_m6, probes).moment_sum.flags.writeable


def test_every_fit_at_zero_epsilon_that_succeeds_also_loads(example1_data):
    outcomes = []
    for d in range(1, 7):
        for n in (2, 3, 5):
            try:
                model = fit(example1_data, d, n, epsilon=0.0)
            except NumericalError:
                outcomes.append(False)
                continue
            reloaded = load(io.StringIO(dumps(model)))
            np.testing.assert_array_equal(reloaded.inverse_factor, model.inverse_factor)
            outcomes.append(True)
    assert any(outcomes) and not all(outcomes)  # both sides of the singularity test occur


def test_cholesky_breakdown_is_a_numerical_error(example1_data, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr("trajcf.model._cholesky_in_place", fail)
    with pytest.raises(NumericalError, match="refit with epsilon > 0"):
        fit(example1_data, 2, 2, epsilon=0.0)


def _refined_cd(A, V):
    """v^T A^{-1} v for each column v of V, by an LU solve refined with
    long-double residuals: a reference independent of the model's factor."""
    X = np.linalg.solve(A, V)
    A_long, V_long = A.astype(np.longdouble), V.astype(np.longdouble)
    for _ in range(3):
        X = X + np.linalg.solve(A, (V_long - A_long @ X.astype(np.longdouble)).astype(float))
    return np.einsum("ij,ij->j", V_long, X.astype(np.longdouble)).astype(float)


def test_cd_values_match_a_refined_solve_at_degree_8():
    # (8, 5): m = 1287 and cond(S/N + eps*I) near 1e11, where scores from a
    # symmetric eigendecomposition are about 1e-6 off and a Cholesky factor's 1e-9
    from trajcf.synth import generate_example1
    exp = generate_example1(2000, seed=0)
    model = fit(exp.dataset, 8, 5)
    probes = np.vstack([exp.dataset.coefficient_matrix(5)[:20],
                        generate_example1(20, seed=100).dataset.coefficient_matrix(5),
                        exp.outlier[None, :5]])
    A = model.moment_matrix()
    A = (A + A.T) / 2.0 + model.epsilon * np.eye(model.size)
    reference = _refined_cd(A, model._probe_matrix(probes).T)
    np.testing.assert_allclose(cd_values(model, probes), reference, rtol=1e-8)


def _crafted(moment_sum):
    """A model whose moment sum is ``moment_sum``, on a basis of as many
    monomials as it has rows: degree pair (1, k - 1), or (0, 1) for k = 1."""
    k = len(moment_sum)
    basis = enumerate_basis(1, k - 1) if k > 1 else enumerate_basis(0, 1)
    return ChristoffelModel(basis=basis, epsilon=1e-3, sample_count=10,
                            moment_sum=moment_sum, provenance="fit")


_SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1.0 / 3.0, 0.1, -7.0, 2.0 ** -1022, 1e-300]


def test_payload_formats_every_cell_as_the_per_cell_loop_does():
    rng = np.random.default_rng(72)
    # 16 cells from 11 values, mirrored bit for bit
    S = np.array(_SPECIAL_VALUES)[rng.integers(len(_SPECIAL_VALUES), size=(4, 4))]
    S[0] = [-0.0, 0.0, 5e-324, 1.7976931348623157e308]
    S = np.where(np.triu(np.ones((4, 4), dtype=bool)), S, S.T)
    lines = dumps(_crafted(S)).splitlines()[:-1]
    rows = lines[lines.index("S") + 1:]
    assert rows == [" ".join("%.17g" % x for x in row) for row in S.tolist()]
    assert rows[0].split()[:2] == ["-0", "0"]


def test_an_asymmetric_moment_sum_in_a_hand_edited_file_is_rejected():
    text = dumps(fit(gaussian_dataset(30, 3, seed=73), 1, 3))

    def skew(lines, cells_at=((0, 2),)):
        for i, j in cells_at:
            row = lines.index("S") + 1 + i
            cells = lines[row].split()
            cells[j] = "%.17g" % (float(cells[j]) + 0.25)
            lines[row] = " ".join(cells)
        return lines

    with pytest.raises(InputError, match="^model file moment matrix is not symmetric$"):
        load(io.StringIO(_retag(text, skew)))
    # an edit of both mirrors keeps S symmetric, and the file loads and saves back
    edited = _retag(text, lambda lines: skew(lines, ((0, 2), (2, 0))))
    model = load(io.StringIO(edited))
    assert model.moment_sum[0, 2] == model.moment_sum[2, 0]
    assert_same_text(dumps(model), edited)


def _argsort_payload_lines(model):
    """The payload lines as an argsort ranking of every cell and one m x m
    gather of texts wrote them: the reference for the panelled writer."""
    lines = [
        "trajcf model 1", f"d {model.d}", f"n {model.n}", f"m {model.size}",
        f"epsilon {model.epsilon:.17g}", f"N {model.sample_count}",
        f"domain {model.domain[0]:.17g} {model.domain[1]:.17g}",
        "basis graded-lex", f"created-by {model.provenance}", "S",
    ]
    S = np.ascontiguousarray(model.moment_sum, dtype=np.float64)
    bits = S.view(np.int64).ravel()
    order = np.argsort(bits, kind="stable")
    ranked = bits[order]
    new = np.empty(ranked.size, dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    cells = np.empty(bits.size, dtype=np.intp)
    cells[order] = np.cumsum(new) - 1
    text = np.array(["%.17g" % x for x in ranked[new].view(np.float64).tolist()], dtype=object)
    lines.extend(" ".join(row) for row in text[cells.reshape(S.shape)].tolist())
    return lines


def _argsort_document(model):
    import hashlib
    payload = "\n".join(_argsort_payload_lines(model)) + "\n"
    return payload + f"checksum sha256 {hashlib.sha256(payload.encode('utf-8')).hexdigest()}\n"


def _special_matrix(size, symmetric, seed):
    """A size x size matrix of special values; a symmetric one mirrors its
    upper triangle bit for bit, so -0.0 stays -0.0."""
    rng = np.random.default_rng(seed)
    A = np.array(_SPECIAL_VALUES)[rng.integers(len(_SPECIAL_VALUES), size=(size, size))]
    if symmetric:
        A = np.where(np.triu(np.ones((size, size), dtype=bool)), A, A.T)
    return A


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("size", [1, 127, 128, 129, 300])
def test_model_file_matches_the_argsort_writer_byte_for_byte(size, symmetric):
    # The writer copies each panel's mirror image, so it needs a bit-symmetric
    # S; a model refuses any other, so none reaches the writer.
    from trajcf.model import PANEL_ROWS
    assert PANEL_ROWS == 128  # the sizes straddle one panel edge
    S = _special_matrix(size, symmetric, seed=size + 1000 * symmetric)
    if not symmetric and size > 1:
        with pytest.raises(InputError, match="^moment matrix is not symmetric$"):
            _crafted(S)
        return
    model = _crafted(S)
    assert_same_text(dumps(model), _argsort_document(model))


def test_signed_zeros_in_different_panels_keep_their_signs():
    S = np.random.default_rng(76).normal(size=(300, 300))
    S = S + S.T
    S[5, 0] = S[0, 5] = -0.0                # first panel only
    S[250, 200] = S[200, 250] = 0.0         # a later panel
    S[270, 10] = S[10, 270] = -0.0          # a mirror pair across panels
    model = _crafted(S)
    text = dumps(model)
    assert_same_text(text, _argsort_document(model))
    rows = text.splitlines()[10:-1]
    assert rows[0].split()[5] == rows[5].split()[0] == "-0"
    assert rows[200].split()[250] == rows[250].split()[200] == "0"
    assert rows[270].split()[10] == rows[10].split()[270] == "-0"
    parsed = np.array([[float(x) for x in row.split()] for row in rows])
    np.testing.assert_array_equal(parsed, S)
    np.testing.assert_array_equal(np.signbit(parsed), np.signbit(S))


def test_dumps_is_the_bytes_save_writes_to_a_path(tmp_path):
    model = fit(gaussian_dataset(200, 3, seed=77), 4, 3)
    path = tmp_path / "m.txt"
    save(model, path)
    assert_same_text(path.read_bytes().decode("utf-8"), dumps(model))
    assert_same_text(dumps(model), _argsort_document(model))


@pytest.mark.parametrize("mark", ["\x0c", "\x1c", "\u2028"], ids=["x0c", "x1c", "u2028"])
@pytest.mark.parametrize("where", ["header", "matrix"])
@pytest.mark.parametrize("rehash", [False, True], ids=["stated", "rehashed"])
def test_a_line_break_inside_a_line_fails_the_checksum(tmp_path, mark, where, rehash):
    # str.splitlines breaks at these marks too, so the lines no longer join
    # back to the bytes the checksum covers, whichever checksum the file states
    import hashlib
    lines = dumps(fit(gaussian_dataset(30, 3, seed=78), 2, 3)).splitlines()
    row = 8 if where == "header" else 12
    lines[row] = lines[row][:4] + mark + lines[row][4:]
    payload = "\n".join(lines[:-1]) + "\n"
    if rehash:
        lines[-1] = f"checksum sha256 {hashlib.sha256(payload.encode('utf-8')).hexdigest()}"
    text = payload + lines[-1] + "\n"
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    for source in (io.StringIO(text), path):
        with pytest.raises(InputError, match="checksum mismatch"):
            load(source)


@pytest.fixture(scope="module")
def model_m1287():
    from trajcf.synth import generate_example1
    return fit(generate_example1(2000, seed=0).dataset, 8, 5)


def _traced(f, *args):
    """f(*args) and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_save_memory_stays_under_twice_the_moment_sum(model_m1287, tmp_path):
    # An argsort ranking of every cell and one m x m gather of texts peaked
    # at 5.3 x S.nbytes here; int32 ranks and text a row at a time, near 1.3
    _, peak = _traced(save, model_m1287, tmp_path / "m.txt")
    assert peak < 2 * model_m1287.moment_sum.nbytes


def test_load_memory_stays_under_three_times_the_moment_sum(model_m1287, tmp_path):
    # Counting the S it keeps.  With the text, its stripped copy, its lines
    # and their rejoined payload alive together load peaked at 5.4 x
    # S.nbytes; with the lines alone, dropped before the factorization, near
    # 3.5; parsing S a panel at a time into its array and factoring in W,
    # near 2.5; leaving the factor to the first CD value, near 1.2
    path = tmp_path / "m.txt"
    save(model_m1287, path)
    reloaded, peak = _traced(load, path)
    assert peak < 3 * model_m1287.moment_sum.nbytes
    np.testing.assert_array_equal(reloaded.moment_sum, model_m1287.moment_sum)
    np.testing.assert_array_equal(reloaded.inverse_factor, model_m1287.inverse_factor)


def test_factorization_memory_stays_under_twice_the_moment_sum(model_m1287):
    # W, and half of W in the inverse's block products.  S / N, its
    # symmetrized copy and np.linalg.cholesky's result peaked at 2.5 x S.nbytes
    S = model_m1287.moment_sum
    W, peak = _traced(_factor_from_moments, S, model_m1287.sample_count, model_m1287.epsilon)
    assert peak < 2 * S.nbytes
    np.testing.assert_array_equal(W, model_m1287.inverse_factor)


# --- the factorization against the one it replaced ---------------------------------

def _oracle_shifted_moments(S, N, eps):
    """S/N + eps*I as the out-of-place build computed it."""
    M = S / N
    M = (M + M.T) / 2.0
    if eps > 0.0:
        M.flat[::M.shape[0] + 1] += eps
    return M


def _oracle_factor_from_moments(S, N, eps):
    """W by np.linalg.cholesky of the out-of-place build: the reference."""
    from trajcf.model import _invert_lower, _require_invertible
    assert np.all(np.isfinite(S))  # as a model's S is
    M = _oracle_shifted_moments(S, N, eps)
    if eps == 0.0:
        _require_invertible(M)
    try:
        W = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        advice = "refit with epsilon > 0" if eps == 0.0 else "refit with a larger epsilon"
        raise NumericalError(
            f"the moment matrix is not numerically positive definite at "
            f"epsilon = {eps!r} (Cholesky factorization failed: {exc}); {advice}"
        ) from exc
    _invert_lower(W)
    return W


def _spd(size, symmetric, seed):
    """A well-conditioned positive definite matrix, or one plus a small
    asymmetric part (a sum the BLAS rounded unevenly), with cells of mixed
    sign and scale."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(size, size))
    A = G @ G.T / size + np.eye(size)
    if not symmetric and size > 1:
        A += 1e-3 * rng.normal(size=(size, size))
        A[-1, 0] = -0.0  # beside a positive cell when size > 1
    return A * 37.0


def _assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


@pytest.mark.parametrize("eps", [0.0, 1e-3], ids=["eps0", "eps"])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("size", [1, 2, 127, 128, 129, 300])
def test_factor_matches_the_out_of_place_build_bit_for_bit(size, symmetric, eps):
    # Neither the factor nor fit, update and downdate symmetrize S: numpy
    # sums it bit-symmetric.  The model's guard refuses an asymmetric sum,
    # so only its average can reach the factor; either S gives the bits of
    # the build that averaged S/N with its transpose itself.
    from trajcf.model import PANEL_ROWS, _is_bit_symmetric
    assert PANEL_ROWS == 128  # the sizes straddle one panel edge
    summed = _spd(size, symmetric, seed=size + 1000 * symmetric)
    assert _is_bit_symmetric(summed) == (symmetric or size == 1)
    S = summed if symmetric else (summed + summed.T) / 2.0
    assert _is_bit_symmetric(S)
    _assert_bits_equal(_shifted_moments(S, 7, eps), _oracle_shifted_moments(S, 7, eps))
    _assert_bits_equal(_factor_from_moments(S, 7, eps), _oracle_factor_from_moments(S, 7, eps))


@pytest.mark.parametrize("eps", [0.0, None], ids=["eps0", "default"])
def test_fitted_factor_and_spectrum_match_the_out_of_place_build(model_m1287, eps):
    S, N = model_m1287.moment_sum, model_m1287.sample_count
    eps = model_m1287.epsilon if eps is None else eps
    try:
        want = _oracle_factor_from_moments(S, N, eps)
    except NumericalError as exc:
        with pytest.raises(NumericalError, match=re.escape(str(exc))):
            _factor_from_moments(S, N, eps)
    else:
        _assert_bits_equal(_factor_from_moments(S, N, eps), want)
    model = replace(model_m1287, epsilon=eps)
    _assert_bits_equal(model.spectrum(), np.linalg.eigvalsh(_oracle_shifted_moments(S, N, eps)))


def test_a_pairwise_sum_that_overflows_is_still_a_numerical_error():
    # L[1, 1]^2 = S[1, 1] - L[1, 0]^2 overflows inside the factorization, at
    # eps > 0; at eps = 0 the eigenvalue floor refuses S first
    S = np.array([[1e-300, 1e300], [1e300, 1.0]])
    with pytest.raises(NumericalError, match="numerically singular at epsilon = 0"):
        _factor_from_moments(S, 1, 0.0)
    with pytest.raises(NumericalError, match="Matrix is not positive definite"):
        _factor_from_moments(S, 1, 1e-3)


def test_in_place_cholesky_matches_numpy_bit_for_bit():
    # It calls the gufunc behind np.linalg.cholesky: a numpy release that
    # changed either would show here.
    rng = np.random.default_rng(91)
    for size in (1, 2, 5, 64, 129, 300):
        G = rng.normal(size=(size, size))
        A = G @ G.T + size * np.eye(size)
        L = A.copy()
        _cholesky_in_place(L)
        _assert_bits_equal(L, np.linalg.cholesky(A))


def test_every_factorization_is_a_call_of_numpys_public_cholesky(example1_data, monkeypatch):
    # Profilers and perfbench's tracer count factorizations by wrapping
    # np.linalg.cholesky; the in-place path must still go through it.
    model = fit(example1_data, 2, 3)
    calls = []
    public = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return public(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    _assert_bits_equal(fit(example1_data, 2, 3).inverse_factor, model.inverse_factor)
    _assert_bits_equal(load(io.StringIO(dumps(model))).inverse_factor, model.inverse_factor)
    assert calls == [(model.size, model.size)] * 2

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(NumericalError, match="Matrix is not positive definite"):
        fit(example1_data, 2, 3)


def test_indefinite_moments_at_positive_epsilon_are_a_numerical_error():
    S = np.diag([4.0, 1.0, -2.0])
    with pytest.raises(NumericalError, match="Matrix is not positive definite.*larger epsilon"):
        _factor_from_moments(S, 1, 1e-3)


def test_overflowing_probes_score_inf_and_are_outliers():
    from trajcf.scoring import calibrate, classify_batch
    model = fit(gaussian_dataset(200, 3, seed=74), 4, 3)
    probes = np.array([[0.1, -0.2, 0.3], [1e80, -1e80, 1e80], [1e200, 0.0, 0.0]])
    cds = cd_values(model, probes)
    assert cds[0] == pytest.approx(cd_value(model, probes[0]), rel=1e-12)
    assert cds[1] == cds[2] == math.inf
    assert christoffel_value(model, probes[1]) == christoffel_value(model, probes[2]) == 0.0
    reports = classify_batch(model, calibrate(model, method="multiple"), probes)
    assert [r.verdict for r in reports[1:]] == ["Outlier", "Outlier"]
    assert [r.christoffel for r in reports[1:]] == [0.0, 0.0]


# --- the dataset's array -------------------------------------------------------

def test_dataset_holds_one_read_only_copy_of_the_rows():
    C = np.random.default_rng(95).normal(size=(6, 4))
    data = TrajectoryDataset.from_coefficients(C, ids=[f"r{i}" for i in range(6)])
    C[0, 0] = 99.0                                      # the caller's array stays theirs
    assert data.coeffs[0, 0] != 99.0 and not data.coeffs.flags.writeable
    head = data.coefficient_matrix(2)
    assert head.shape == (6, 2) and np.shares_memory(head, data.coeffs)
    assert data.ids == tuple(f"r{i}" for i in range(6))
    assert data.times is None and data.values is None
    assert all(np.array_equal(data.coeffs[i], C[i]) for i in range(1, 6))


def test_dataset_from_trajectories_keeps_the_curves():
    x = np.linspace(-1, 1, 33)
    trajs = [SampledTrajectory(times=x, values=x ** k, id=f"p{k}") for k in range(3)]
    data = TrajectoryDataset.from_trajectories(trajs, n=3)
    assert np.array_equal(data.times, x) and not data.times.flags.writeable
    assert all(np.array_equal(data.values[:, k], tr.values) for k, tr in enumerate(trajs))
    assert data.values.shape == (33, 3) and not data.values.flags.writeable
    assert data.ids == ("p0", "p1", "p2")


@pytest.mark.parametrize("rows, ids, message", [
    ([[1.0, 2.0], [3.0]], None, "must form an"),
    ([[1.0], [2.0]], ["a"], "as many ids"),
    ([[1.0], [np.inf]], ["a", "b"], "non-finite entries \\(id='b'\\)"),
    ([1.0, 2.0], None, "an \\(N, k\\) array, got shape \\(2,\\)"),
    (np.empty((3, 0)), None, "non-empty"),
    (np.zeros((2, 3, 4)), None, "an \\(N, k\\) array, got shape \\(2, 3, 4\\)"),
])
def test_dataset_rejects_rows_that_are_not_one_finite_array(rows, ids, message):
    with pytest.raises(InputError, match=message):
        TrajectoryDataset.from_coefficients(rows, ids=ids)


@pytest.mark.parametrize("times, values, message", [
    ([1.0, 0.0, -1.0], [[0.0], [1.0], [0.0]], "strictly increasing \\(id='g'\\)"),
    ([-1.0, 0.0, 2.0], [[0.0], [1.0], [0.0]], "leave the declared domain"),
    ([-1.0, 0.0, 1.0], [[0.0], [np.nan], [0.0]], "non-finite entries \\(id='g'\\)"),
], ids=["reversed", "outside-domain", "nan"])
def test_dataset_checks_its_sample_grid_as_projection_does(times, values, message):
    # a reversed grid would put [0.5, 0.5] on these nodes as [0, 0]
    with pytest.raises(InputError, match=message):
        TrajectoryDataset(np.zeros((1, 2)), ids=["g"], times=times, values=values)
    with pytest.raises(InputError, match=message):
        project_samples(times, values, 2, domain=(-1.0, 1.0), ids=["g"])


def test_dataset_of_no_curves_keeps_any_grid():
    # a probe file with no curves still scores as no probes
    data = TrajectoryDataset(np.empty((0, 2)), times=[1.0, 0.0], values=np.empty((2, 0)))
    assert len(data) == 0 and data.on_nodes([0.0, 0.5]).shape == (0, 2)


@pytest.mark.parametrize("domain", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (-1.0, math.inf),
                                    (-1e308, 1e308), (-5e307, 5e307)])
def test_dataset_rejects_a_domain_that_load_rejects(domain):
    # so fit never writes a model file that load refuses
    with pytest.raises(InputError, match="invalid domain interval"):
        TrajectoryDataset.from_coefficients([[0.5, 0.1]], domain=domain)


# --- the row-blocked data plane ----------------------------------------------------

@pytest.fixture(scope="module", params=[(3, 4), (4, 4), (8, 5)], ids=["m35", "m70", "m1287"])
def fitted_example1(request):
    """A model fitted on 2000 example1 rows, and 300 held-out probe rows."""
    from trajcf.synth import generate_example1
    d, n = request.param
    model = fit(generate_example1(2000, seed=0).dataset, d, n)
    return model, generate_example1(300, seed=9).dataset.coefficient_matrix(n)


def test_panelled_cd_values_match_a_dense_product(fitted_example1):
    model, probes = fitted_example1
    Z = model._probe_matrix(probes) @ model.inverse_factor.T
    np.testing.assert_allclose(cd_values(model, probes), np.einsum("ij,ij->i", Z, Z), rtol=1e-12)


def test_a_probes_cd_value_does_not_depend_on_its_batch(fitted_example1):
    # every block is padded to one shape, so a probe gets the same bits alone,
    # in a chunk of any size or at any position of a larger batch
    model, probes = fitted_example1
    whole = cd_values(model, probes)
    for i in range(0, len(probes), 10):
        assert cd_value(model, probes[i]) == whole[i]
    for k in (4, 16, 100):
        chunks = [cd_values(model, probes[s:s + k]) for s in range(0, len(probes), k)]
        np.testing.assert_array_equal(np.concatenate(chunks), whole)


@pytest.mark.parametrize("d, n", [(4, 4), (8, 5)])
def test_blocked_moment_sum_matches_one_product(d, n):
    from trajcf.model import MOMENT_BLOCK_ROWS
    from trajcf.synth import generate_example1
    C = generate_example1(2 * MOMENT_BLOCK_ROWS + 500, seed=4).dataset.coefficient_matrix(n)
    V = eval_monomial_matrix(C, enumerate_basis(d, n))
    S = fit(TrajectoryDataset.from_coefficients(C), d, n).moment_sum
    want = V.T @ V
    assert np.max(np.abs(S - want)) <= 1e-15 * np.max(np.abs(want))


# --- CD values a chunk of blocks at a time ---------------------------------------

def _per_block_cd_values(model, C):
    """CD values one zero-padded CD_BLOCK_ROWS-row block at a time: one
    monomial evaluation per block and one 2-D product per panel of W."""
    from trajcf.model import CD_BLOCK_ROWS, CD_PANEL_ROWS
    W = model.inverse_factor
    m = W.shape[0]
    out = np.empty(len(C))
    for start in range(0, len(C), CD_BLOCK_ROWS):
        V = eval_monomial_matrix(C[start:start + CD_BLOCK_ROWS], model.basis)
        Vt = np.zeros((m, CD_BLOCK_ROWS))
        Vt[:, :len(V)] = V.T
        cd = np.zeros(CD_BLOCK_ROWS)
        for s in range(0, m, CD_PANEL_ROWS):
            e = min(s + CD_PANEL_ROWS, m)
            Z = W[s:e, :e] @ Vt[:e]
            Z *= Z
            cd += Z.sum(axis=0)
        out[start:start + len(V)] = cd[:len(V)]
    return out


def _chunk_rows(m):
    from trajcf.model import CD_BLOCK_ROWS, CD_CHUNK_FLOATS
    return CD_BLOCK_ROWS * max(1, CD_CHUNK_FLOATS // (CD_BLOCK_ROWS * m))


@pytest.fixture(scope="module")
def cloud_model():
    """A model at the pointwise cloud's basis, (4, 2) with m = 15, and probe
    rows that fill three chunks, two more whole blocks and part of one."""
    from trajcf.model import CD_BLOCK_ROWS
    model = fit(gaussian_dataset(3000, 2, seed=21), 4, 2)
    rows = 3 * _chunk_rows(model.size) + 2 * CD_BLOCK_ROWS + 100
    return model, gaussian_dataset(rows, 2, seed=22, scale=1.5).coeffs


def test_chunked_cd_values_match_the_per_block_loop_bit_for_bit(cloud_model):
    model, probes = cloud_model
    assert _chunk_rows(model.size) == 4352
    np.testing.assert_array_equal(cd_values(model, probes), _per_block_cd_values(model, probes))


@pytest.mark.parametrize("budget", ["one block", "four times the default"])
def test_cd_values_do_not_depend_on_the_chunk_budget(cloud_model, monkeypatch, budget):
    from trajcf import model as model_module
    model, probes = cloud_model
    want = cd_values(model, probes)
    floats = (model_module.CD_BLOCK_ROWS * model.size if budget == "one block"
              else 4 * model_module.CD_CHUNK_FLOATS)
    monkeypatch.setattr(model_module, "CD_CHUNK_FLOATS", floats)
    np.testing.assert_array_equal(cd_values(model, probes), want)


def test_cd_values_memory_stays_within_the_output_and_four_chunks(cloud_model, model_m1287):
    # a chunk's monomials, one panel's products and a grade of the evaluation
    # peak near 2.8 chunks; evaluating every row at once would hold 15.5 MB of
    # monomials at m = 15 and 30.9 MB at m = 1287, where a chunk is one block
    model, _ = cloud_model
    for fitted, rows in ((model, 129_000), (model_m1287, 3000)):
        probes = gaussian_dataset(rows, fitted.n, seed=23, scale=0.5).coeffs
        fitted.inverse_factor  # factored outside the trace
        out, peak = _traced(cd_values, fitted, probes)
        chunk = 8 * fitted.size * _chunk_rows(fitted.size)
        assert peak < out.nbytes + 4 * chunk, (fitted.size, peak, out.nbytes, chunk)
