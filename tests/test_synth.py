import math

import numpy as np
import pytest

from trajcf.errors import InputError
from trajcf.model import fit, cd_value, default_epsilon
from trajcf.projection import SampledTrajectory, chebyshev_quadrature_nodes, reconstruct_batch
from trajcf.synth import (
    CURVE_BLOCK_ROWS,
    CURVE_SAMPLE_POINTS,
    NOMINAL_COEFFS,
    PERTURBED_COORDS,
    _stream,
    generate_example1,
    generate_example2,
    sample_ball,
)


# --- ball sampling ---------------------------------------------------------------

def test_ball_draws_never_leave_the_ball():
    rng = np.random.default_rng(0)
    for dim, radius in ((1, 0.5), (3, 2.0), (4, 0.1)):
        draws = np.stack([sample_ball(dim, radius, rng) for _ in range(20_000)])
        norms = np.linalg.norm(draws, axis=1)
        assert norms.max() <= radius
        assert norms.min() > 0.0


def test_ball_radius_zero_is_the_origin():
    rng = np.random.default_rng(1)
    assert np.array_equal(sample_ball(4, 0.0, rng), np.zeros(4))


def test_ball_radial_law():
    # for the uniform ball law, (|x| / r)**dim is uniform on (0, 1)
    rng = np.random.default_rng(2)
    dim, radius = 4, 0.1
    draws = np.stack([sample_ball(dim, radius, rng) for _ in range(100_000)])
    u = (np.linalg.norm(draws, axis=1) / radius) ** dim
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.mean(u < 0.25) - 0.25) < 0.01


def test_ball_rejects_bad_parameters():
    rng = np.random.default_rng(3)
    with pytest.raises(InputError):
        sample_ball(0, 1.0, rng)
    with pytest.raises(InputError):
        sample_ball(3, -1.0, rng)
    with pytest.raises(InputError):
        sample_ball(3, math.inf, rng)


# --- family generation -----------------------------------------------------------

def test_generation_is_deterministic():
    a = generate_example1(40, seed=11)
    b = generate_example1(40, seed=11)
    Ca = a.dataset.coefficient_matrix(5)
    Cb = b.dataset.coefficient_matrix(5)
    assert np.array_equal(Ca, Cb)
    assert np.array_equal(a.outlier, b.outlier)


def test_outlier_and_nominal_are_read_only_rows():
    for exp in (generate_example1(10, seed=2), generate_example2(10, seed=2)):
        for row in (exp.outlier, exp.nominal):
            assert type(row) is np.ndarray and row.shape == (5,)
            assert not row.flags.writeable
        assert exp.nominal.tolist() == list(NOMINAL_COEFFS)


def test_per_index_streams_make_prefixes_agree():
    # trajectory i depends only on (seed, i), not on how many others exist
    small = generate_example1(30, seed=5).dataset.coefficient_matrix(5)
    large = generate_example1(60, seed=5).dataset.coefficient_matrix(5)
    assert np.array_equal(small, large[:30])


def _one_generator_per_curve(N, seed, radius=0.1):
    """The family as first built, one Philox stream per curve added row by
    row: the oracle for the re-keyed generator."""
    coords = np.asarray(PERTURBED_COORDS)
    C = np.tile(np.asarray(NOMINAL_COEFFS), (N, 1))
    for i in range(N):
        C[i, coords] += sample_ball(coords.size, radius, _stream(seed, i))
    return C


@pytest.mark.parametrize("generate", [generate_example1, generate_example2])
@pytest.mark.parametrize("N", [1, 2, 300, 2 * CURVE_BLOCK_ROWS + 1])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_re_keyed_generator_matches_one_stream_per_curve(generate, N, seed):
    # 2 * CURVE_BLOCK_ROWS + 1 curves are evaluated in two whole blocks and
    # one of a single row: the samples keep the bits of one call on all rows.
    exp = generate(N, seed)
    C = _one_generator_per_curve(N, seed)
    assert exp.dataset.coeffs.tobytes() == C.tobytes()
    nodes = np.sort(chebyshev_quadrature_nodes(CURVE_SAMPLE_POINTS))
    assert exp.dataset.values.tobytes() == reconstruct_batch(C, nodes).T.tobytes()


def test_different_seeds_differ():
    a = generate_example1(10, seed=0).dataset.coefficient_matrix(5)
    b = generate_example1(10, seed=1).dataset.coefficient_matrix(5)
    assert not np.array_equal(a, b)


def test_inliers_stay_in_the_small_ball():
    exp = generate_example1(500, seed=4)
    C = exp.dataset.coefficient_matrix(5)
    g0 = np.asarray(NOMINAL_COEFFS)
    assert np.allclose(C[:, 4], 0.0, atol=0.0)          # fifth coordinate untouched
    dist = np.linalg.norm(C - g0, axis=1)
    assert dist.max() <= 0.1
    assert dist.min() > 0.0


def test_outlier_uses_the_larger_radius():
    exp = generate_example1(200, seed=9)
    g0 = np.asarray(NOMINAL_COEFFS)
    eta = exp.outlier - g0
    assert eta[4] == 0.0
    assert np.linalg.norm(eta) <= 1.0


def test_curves_match_their_coefficients():
    exp = generate_example1(5, seed=2)
    data = exp.dataset
    traj = SampledTrajectory(data.times, data.values[:, 3], id=data.ids[3])
    coeffs = data.coeffs[3]
    assert traj.times.size == CURVE_SAMPLE_POINTS
    assert np.all(np.diff(traj.times) > 0)
    assert np.allclose(traj.values, reconstruct_batch(coeffs[None, :], traj.times)[0], atol=1e-14)
    assert traj.id == exp.dataset.ids[3] == "g0003"


def test_nominal_curve_is_the_average_of_three_waves():
    exp = generate_example1(1, seed=0)
    t = np.linspace(-1.0, 1.0, 7)
    target = (np.polynomial.chebyshev.chebval(t, [0, 1])
              + np.polynomial.chebyshev.chebval(t, [0, 0, 1])
              + np.polynomial.chebyshev.chebval(t, [0, 0, 0, 1])) / 3.0
    assert np.allclose(reconstruct_batch(exp.nominal[None, :], t)[0], target, atol=1e-15)


def test_second_family_outlier_carries_the_extra_harmonic():
    exp = generate_example2(50, seed=0)
    assert exp.outlier[4] == pytest.approx(0.1 / math.sqrt(2.0), rel=1e-15)
    assert exp.outlier[:4] == pytest.approx(list(NOMINAL_COEFFS[:4]), abs=0.0)


def test_second_family_drives_a_vanishing_moment_row():
    # the inliers' fifth coordinate is identically zero, so the fitted
    # moment matrix at harmonic degree 5 has an exactly vanishing last
    # row/column and the extra-harmonic outlier scores enormously.
    exp = generate_example2(300, seed=0)
    model = fit(exp.dataset, 1, 5)
    M = model.moment_matrix()
    assert np.max(np.abs(M[-1, :])) <= 1e-14
    assert np.max(np.abs(M[:, -1])) <= 1e-14
    assert cd_value(model, exp.outlier) > 6000.0


def test_default_epsilon_matches_the_trace_rule():
    exp = generate_example1(100, seed=6)
    model = fit(exp.dataset, 2, 3)
    expected = default_epsilon(model.moment_sum, model.sample_count)
    assert model.epsilon == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(
        1e-8 * np.trace(model.moment_matrix()) / model.size, rel=1e-12
    )


# --- parameter validation ----------------------------------------------------------

def test_spec_validation():
    for generate in (generate_example1, generate_example2):
        with pytest.raises(InputError, match="radius must be > 0"):
            generate(10, seed=0, radius=-1.0)
        with pytest.raises(InputError, match="radius must be > 0"):
            generate(10, seed=0, radius=math.inf)  # refused as a radius, not as an overflow
        with pytest.raises(InputError, match="--count"):
            generate(0, seed=0)
        with pytest.raises(InputError, match="--seed"):
            generate(10, seed=-1)


@pytest.mark.parametrize("count, seed, flag", [
    (3, 2**64, "--seed"),
    (10**20, 0, "--count"),
    (2**62, 0, "--count"),
])
def test_spec_rejects_a_seed_or_count_numpy_cannot_hold(count, seed, flag):
    for generate in (generate_example1, generate_example2):
        with pytest.raises(InputError, match=flag):
            generate(count, seed=seed)


def test_generator_rejects_bad_counts():
    with pytest.raises(InputError):
        generate_example1(0, seed=0)
    with pytest.raises(InputError):
        generate_example2(-3, seed=0)
