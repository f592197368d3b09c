import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as cheb

from trajcf.errors import InputError
from trajcf.model import TrajectoryDataset, cd_value, fit
from trajcf.projection import (
    DomainWidthError,
    SampledTrajectory,
    check_domain,
    chebyshev_quadrature_nodes,
    coeff_array,
    default_quad_points,
    project,
    reconstruct_batch,
    unit_times,
    values_on_nodes,
)


def _traj_on_cheb_nodes(f, M=256, domain=(-1.0, 1.0)):
    """Sample f exactly at the quadrature nodes (ascending), so the
    piecewise-linear resampling step is exact at those nodes."""
    x = np.sort(chebyshev_quadrature_nodes(M))
    lo, hi = domain
    t = lo + (x + 1.0) * (hi - lo) / 2.0
    return SampledTrajectory(times=t, values=f(x), domain=domain)


def _project_one(traj, n, quad_points=None):
    """One curve's (n,) coefficient row: a one-column `project` call."""
    return project(traj.times, traj.values[:, None], n, quad_points, traj.domain, ids=[traj.id])[0]


# --- nodes -----------------------------------------------------------------

def test_node_closed_forms():
    np.testing.assert_allclose(
        chebyshev_quadrature_nodes(2), [math.sqrt(2) / 2, -math.sqrt(2) / 2], atol=1e-15
    )
    np.testing.assert_allclose(
        chebyshev_quadrature_nodes(3), [math.sqrt(3) / 2, 0.0, -math.sqrt(3) / 2], atol=1e-15
    )


def test_node_counts():
    for M in range(2, 513):
        assert chebyshev_quadrature_nodes(M).size == M


def test_single_node_rejected():
    with pytest.raises(InputError):
        chebyshev_quadrature_nodes(1)


def test_nodes_descending_in_unit_interval():
    t = chebyshev_quadrature_nodes(64)
    assert np.all(np.diff(t) < 0)
    assert t.min() > -1 and t.max() < 1


# --- projection ------------------------------------------------------------

def test_project_returns_one_row_per_curve():
    traj = _traj_on_cheb_nodes(np.cos, domain=(0.0, 3.0))
    C = project(traj.times, traj.values[:, None], 5, None, traj.domain)
    assert type(C) is np.ndarray and C.shape == (1, 5) and C.dtype == float
    assert TrajectoryDataset.from_trajectories([traj], 5).coeffs.tolist() == C.tolist()


def test_project_constant():
    c = _project_one(_traj_on_cheb_nodes(lambda x: np.ones_like(x)), n=6, quad_points=256)
    np.testing.assert_allclose(c, [1, 0, 0, 0, 0, 0], atol=1e-14)


def test_project_normalized_linear():
    c = _project_one(_traj_on_cheb_nodes(lambda x: math.sqrt(2) * x), n=6, quad_points=256)
    np.testing.assert_allclose(c, [0, 1, 0, 0, 0, 0], atol=1e-14)


def test_project_two_t_squared():
    # 2t^2 = 1 + T_2(t): coefficients (1, 0, sqrt(2)/2, 0, ...)
    c = _project_one(_traj_on_cheb_nodes(lambda x: 2.0 * x**2), n=6, quad_points=256)
    np.testing.assert_allclose(
        c, [1, 0, math.sqrt(2) / 2, 0, 0, 0], atol=1e-13
    )


def test_project_two_t_squared_uniform_grid():
    # same target through genuine piecewise-linear resampling: small bias
    t = np.linspace(-1, 1, 4097)
    traj = SampledTrajectory(times=t, values=2.0 * t**2)
    c = _project_one(traj, n=4)
    np.testing.assert_allclose(
        c, [1, 0, math.sqrt(2) / 2, 0], atol=1e-6
    )


def test_project_then_reconstruct_polynomial():
    poly = lambda x: 0.3 - 0.5 * x + 0.8 * x**3
    c = _project_one(_traj_on_cheb_nodes(poly, M=256), n=4, quad_points=256)
    grid = np.linspace(-1, 1, 1001)
    err = np.max(np.abs(reconstruct_batch(c[None, :], grid)[0] - poly(grid)))
    assert err <= 1e-10


def test_project_affine_domain_mapping():
    # f(t) = 1 on [0, 10] must project identically to f = 1 on [-1, 1]
    traj = SampledTrajectory(times=np.linspace(0, 10, 33), values=np.ones(33), domain=(0, 10))
    c = _project_one(traj, n=3)
    np.testing.assert_allclose(c, [1, 0, 0], atol=1e-14)


def test_discrete_orthonormality():
    for M in (8, 32, 256):
        n = 8
        nodes = chebyshev_quadrature_nodes(M)
        E = cheb.chebvander(nodes, n - 1)
        E[:, 1:] *= math.sqrt(2)
        G = E.T @ E / M
        np.testing.assert_allclose(G, np.eye(n), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_projection_is_linear_on_common_grids(alpha, beta):
    x = np.sort(chebyshev_quadrature_nodes(64))
    f = np.sin(2.0 * x)
    g = x**2 - 0.3
    combined = SampledTrajectory(times=x, values=alpha * f + beta * g)
    cf = _project_one(SampledTrajectory(times=x, values=f), 5, 64)
    cg = _project_one(SampledTrajectory(times=x, values=g), 5, 64)
    cc = _project_one(combined, 5, 64)
    np.testing.assert_allclose(cc, alpha * cf + beta * cg, atol=1e-10)


def test_truncated_energy_is_monotone_in_n():
    traj = _traj_on_cheb_nodes(lambda x: np.exp(x) * np.cos(3 * x), M=256)
    norms = []
    for n in range(1, 9):
        c = _project_one(traj, n, quad_points=256)
        norms.append(float(np.sum(c * c)))
    assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))


def test_project_input_validation():
    traj = _traj_on_cheb_nodes(lambda x: x, M=16)
    with pytest.raises(InputError):
        _project_one(traj, 0)
    with pytest.raises(InputError):
        _project_one(traj, 8, quad_points=4)  # coarser than n
    bad = SampledTrajectory(times=np.array([-0.5, 0.5]), values=np.array([1.0, np.nan]))
    with pytest.raises(InputError):
        _project_one(bad, 2)


# --- resampling ------------------------------------------------------------

def _resample(traj, nodes):
    """One curve's piecewise-linear values at unit-interval nodes."""
    return values_on_nodes(unit_times(traj.times, traj.domain), traj.values[:, None], nodes)[0]


def test_resample_midpoint_of_line():
    traj = SampledTrajectory(times=np.array([-1.0, 1.0]), values=np.array([0.0, 2.0]))
    assert _resample(traj, [0.0])[0] == pytest.approx(1.0)


def test_resample_hits_sample_times_exactly():
    t = np.array([-0.9, -0.2, 0.4, 0.8])
    v = np.array([1.0, -2.0, 0.5, 3.0])
    traj = SampledTrajectory(times=t, values=v)
    np.testing.assert_array_equal(_resample(traj, t), v)


def test_resample_clamps_beyond_range():
    traj = SampledTrajectory(times=np.array([-0.5, 0.5]), values=np.array([2.0, 7.0]))
    out = _resample(traj, [-0.9, 0.9])
    assert out[0] == 2.0 and out[1] == 7.0


# --- reconstruction --------------------------------------------------------

def test_reconstruct_constant():
    assert reconstruct_batch([[1.0, 0.0, 0.0]], [0.37])[0, 0] == pytest.approx(1.0)


def test_reconstruct_linear_unit():
    assert reconstruct_batch([[0.0, 1.0]], [1 / math.sqrt(2)])[0, 0] == pytest.approx(1.0)


def test_reconstruct_batch_matches_scalar():
    # each row is the series c_1 + sum_{k>=2} c_k sqrt(2) T_{k-1}, and a
    # one-row call gives the same values
    rng = np.random.default_rng(3)
    C = rng.normal(size=(5, 6))
    t = np.linspace(-1, 1, 17)
    batch = reconstruct_batch(C, t)
    scale = np.r_[1.0, np.full(5, math.sqrt(2.0))]
    for i in range(5):
        np.testing.assert_allclose(batch[i], cheb.chebval(t, C[i] * scale), rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(batch[i], reconstruct_batch(C[i:i + 1], t)[0])


# --- containers ------------------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(InputError):
        SampledTrajectory(times=np.array([0.0]), values=np.array([1.0]))
    with pytest.raises(InputError):
        SampledTrajectory(times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        SampledTrajectory(times=np.array([0.0, 1.0]), values=np.array([1.0]))
    with pytest.raises(InputError):
        SampledTrajectory(times=np.array([0.0, 2.0]), values=np.array([1.0, 2.0]),
                          domain=(0.0, 1.0))


def test_coefficient_vector_validation():
    row = coeff_array([1.0, 2.0])
    assert row.shape == (2,) and row.tolist() == [1.0, 2.0]
    with pytest.raises(InputError):
        coeff_array(np.zeros((2, 2)))
    rows = np.random.default_rng(3).normal(size=(20, 2))
    model = fit(TrajectoryDataset.from_coefficients(rows), 1, 2)
    with pytest.raises(InputError, match="non-finite"):
        cd_value(model, np.array([np.inf, 0.0]))


def test_default_quad_point_rule():
    assert default_quad_points(4) == 256
    assert default_quad_points(64) == 512


# --- shared-grid projection ------------------------------------------------------

@pytest.mark.parametrize("domain", [(-1.0, 1.0), (2.0, 7.5)])
def test_shared_grid_projection_equals_per_curve_project(domain):
    # the grid covers only part of the domain, so the end nodes are clamped
    lo, hi = domain
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(lo + 0.15 * (hi - lo), hi - 0.1 * (hi - lo), 41))
    values = rng.normal(size=(41, 12))
    ids = [f"c{k}" for k in range(12)]
    C = project(times, values, 6, None, domain, ids=ids)
    assert C.shape == (12, 6)
    nodes = chebyshev_quadrature_nodes(256)
    E = cheb.chebvander(nodes, 5)
    E[:, 1:] *= math.sqrt(2.0)
    for k in range(12):
        traj = SampledTrajectory(times=times, values=values[:, k], id=ids[k], domain=domain)
        assert C[k].tobytes() == _project_one(traj, 6).tobytes()  # the same bits alone
        t = unit_times(traj.times, traj.domain)
        direct = E.T @ np.interp(nodes, t, values[:, k]) / 256
        np.testing.assert_allclose(C[k], direct, rtol=0, atol=1e-14)


def test_shared_grid_projection_names_a_curve_with_non_finite_samples():
    values = np.ones((5, 3))
    values[2, 1] = np.nan
    with pytest.raises(InputError, match="'b'"):
        project(np.linspace(-1, 1, 5), values, 2, ids=["a", "b", "c"])


def test_shared_grid_projection_of_no_curves_is_empty():
    assert project(np.linspace(-1, 1, 5), np.empty((5, 0)), 3).shape == (0, 3)
    assert project(np.empty(0), np.empty((0, 0)), 3).shape == (0, 3)


@pytest.mark.parametrize("times, message", [
    ([1.0, 0.0], "strictly increasing \\(id=None\\)"),
    ([0.0, 0.0], "strictly increasing \\(id=None\\)"),
    ([math.nan, 0.0], "non-finite entries"),
    ([0.5], "at least 2 samples"),
], ids=["decreasing", "repeated", "nan", "one-sample"])
def test_shared_grid_of_no_curves_is_still_checked(times, message):
    with pytest.raises(InputError, match=message):
        project(times, np.empty((len(times), 0)), 3, ids=[])


def test_values_on_nodes_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(4)
    for T, M in ((33, 256), (300, 129), (2, 5)):
        xp = np.sort(rng.uniform(-0.8, 0.9, T))
        nodes = np.concatenate([chebyshev_quadrature_nodes(M), xp, [-1.0, 1.0]])
        values = rng.normal(size=(T, 4))
        got = values_on_nodes(xp, values, nodes)
        for k in range(4):
            np.testing.assert_array_equal(got[k], np.interp(nodes, xp, values[:, k]))


def test_the_widest_accepted_domain_maps_its_times_without_overflow():
    lo, hi = check_domain((-4e307, 4e307))       # 2 * (hi - lo) = 1.6e308
    t = unit_times(np.array([lo, 0.0, hi]), (lo, hi))
    assert np.all(np.isfinite(t)) and t[0] == -1.0 and t[-1] == 1.0
    with pytest.raises(DomainWidthError, match="width overflows"):
        check_domain((-5e307, 5e307))            # 2 * (hi - lo) = inf
    for bad in [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(InputError) as info:
            check_domain(bad)
        assert not isinstance(info.value, DomainWidthError)
