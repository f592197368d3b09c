import math
import re

import numpy as np
import pytest

from trajcf.errors import InputError
from trajcf.model import TrajectoryDataset, cd_value, cd_values, christoffel_value, fit
from trajcf.projection import (
    SampledTrajectory,
    chebyshev_quadrature_nodes,
    reconstruct_batch,
    unit_times,
    values_on_nodes,
)
from trajcf.scoring import (
    POINTWISE_QUAD_POINTS,
    PointwiseChristoffel,
    Threshold,
    calibrate,
    classify,
    csv_cell,
    nearest_distances,
    nearest_rank,
    nearest_rank_quantile,
    nearest_trajectory_score,
    report_header,
    report_lines,
    verdicts,
)
from trajcf.synth import generate_example1


@pytest.fixture(scope="module")
def small_family():
    exp = generate_example1(200, seed=7)
    model = fit(exp.dataset, 2, 4)
    return exp, model


# --- thresholds ---------------------------------------------------------------

def test_nearest_rank_quantile_examples():
    assert nearest_rank_quantile([1.0, 2.0, 3.0], 0.5) == 2.0
    assert nearest_rank_quantile([3.0, 1.0, 2.0], 1.0) == 3.0
    assert nearest_rank_quantile([1.0, 2.0, 3.0], 1 / 3) == 1.0
    with pytest.raises(InputError):
        nearest_rank_quantile([], 0.5)
    with pytest.raises(InputError):
        nearest_rank_quantile([1.0], 0.0)


def test_calibrate_quantile_one_is_the_max(small_family):
    exp, model = small_family
    thr = calibrate(model, exp.dataset, method="quantile", param=1.0)
    C = exp.dataset.coefficient_matrix(model.n)
    assert thr.value == pytest.approx(max(cd_value(model, c) for c in C), rel=1e-12)
    assert thr.method == "quantile(1)"


def test_calibrate_multiple_is_alpha_times_dimension():
    exp = generate_example1(100, seed=3)
    model = fit(exp.dataset, 4, 4)  # dimension 70
    thr = calibrate(model, None, method="multiple", param=3.0)
    assert thr.value == 210.0


@pytest.mark.parametrize("method, param", [
    ("quantile", 0.999), ("quantile", 1.0), ("quantile", 0.9999999), ("quantile", 1e-05),
    ("multiple", 10.0), ("multiple", 10.0000001), ("multiple", 123456789.0), ("multiple", 1e20),
])
def test_a_threshold_label_reads_back_as_its_parameter(small_family, method, param):
    exp, model = small_family
    label = calibrate(model, exp.dataset, method=method, param=param).method
    assert label.startswith(f"{method}(") and label.endswith(")")
    assert float(label[len(method) + 1:-1]) == param
    if param in (0.999, 1.0, 10.0):  # as the 6-digit format printed them
        assert label == f"{method}({param:g})"


def test_calibrate_rejects_bad_inputs(small_family):
    _, model = small_family
    with pytest.raises(InputError):
        calibrate(model, None, method="quantile")
    with pytest.raises(InputError):
        calibrate(model, None, method="multiple", param=0.5)
    with pytest.raises(InputError):
        calibrate(model, None, method="median")


@pytest.mark.parametrize("alpha, message", [
    (float("nan"), "threshold multiple must be finite, got nan"),
    (float("inf"), "threshold multiple must be finite, got inf"),
    (1e308, "threshold multiple 1e+308 times the basis dimension m = 15 overflows"),
])
def test_calibrate_names_a_multiple_that_is_not_finite_or_overflows(small_family, alpha, message):
    _, model = small_family
    with pytest.raises(InputError, match=re.escape(message)):
        calibrate(model, None, method="multiple", param=alpha)


def test_threshold_must_be_positive():
    with pytest.raises(InputError):
        Threshold(value=0.0, method="quantile(0.5)")


# --- classification ------------------------------------------------------------

def test_tie_with_threshold_is_an_inlier(small_family):
    exp, model = small_family
    probe = exp.dataset.coeffs[0]
    cd = cd_value(model, probe)
    thr = Threshold(value=cd, method="quantile(1)")
    assert classify(model, thr, probe) == "Inlier"


def test_verdict_depends_only_on_the_comparison(small_family):
    exp, model = small_family
    thr = calibrate(model, exp.dataset)
    probe = exp.outlier
    by_comparison = "Outlier" if cd_value(model, probe) > thr.value else "Inlier"
    assert classify(model, thr, probe) == by_comparison == "Outlier"


def test_christoffel_value_is_the_reciprocal_of_cd(small_family):
    exp, model = small_family
    assert christoffel_value(model, exp.outlier) == pytest.approx(
        1.0 / cd_value(model, exp.outlier), rel=1e-12)


def test_report_derives_its_verdict_and_reciprocal():
    assert verdicts([2.0, 3.0, 3.5], 3.0) == ["Inlier", "Inlier", "Outlier"]  # a tie is an inlier
    assert [ln.split(",")[2] for ln in report_lines([None, None], [math.inf, 0.0], 3.0)] == [
        "0.0", "inf"]


def test_report_line_column_order():
    assert report_header() == "id,cd,christoffel,threshold,verdict,baseline_l2"
    assert report_lines(["x"], [2.0], 3.0) == ["x,2.0,0.5,3.0,Inlier,"]


def _per_row_line(id_, cd, tau, baseline_l2):
    """A report line rendered field by field, with the scalar reciprocal
    and verdict rules written out."""
    christoffel = 0.0 if not math.isfinite(cd) else 1.0 / cd if cd > 0.0 else math.inf
    return ",".join([csv_cell(id_ or ""), repr(cd), repr(christoffel), repr(tau),
                     "Outlier" if cd > tau else "Inlier",
                     "" if baseline_l2 is None else repr(baseline_l2)])


_REPORT_IDS = [None, "", "a,b", 'q"x', "two\nlines"]


@pytest.mark.parametrize("baseline_l2", [None, 0.0, math.inf], ids=["no-l2", "l2-0", "l2-inf"])
@pytest.mark.parametrize("cd", [0.0, math.inf, 5e-324, 1e308])
def test_report_lines_match_the_per_row_text(cd, baseline_l2):
    tau = 1e308  # the largest cd ties with tau
    cds = np.full(len(_REPORT_IDS), cd)
    l2 = None if baseline_l2 is None else [baseline_l2] * len(_REPORT_IDS)
    want = [_per_row_line(i, cd, tau, baseline_l2) for i in _REPORT_IDS]
    assert report_lines(_REPORT_IDS, cds, tau, l2) == want


# --- nearest-trajectory baseline -------------------------------------------------

def test_member_probe_scores_zero(small_family):
    exp, _ = small_family
    data = exp.dataset
    member_curve = SampledTrajectory(data.times, data.values[:, 3])
    probes = TrajectoryDataset.from_trajectories([member_curve], 4)
    assert nearest_trajectory_score(exp.dataset, probes).tolist() == [0.0]


def test_constant_against_zero_database():
    data = TrajectoryDataset.from_coefficients([[0.0, 0.0]])
    for c in (0.7, -1.2):
        probe = TrajectoryDataset(np.array([[c, 0.0]]))
        assert nearest_trajectory_score(data, probe)[0] == pytest.approx(abs(c), rel=1e-12)


def test_empty_database_is_refused_by_every_baseline():
    empty = TrajectoryDataset(np.empty((0, 2)))
    probe = TrajectoryDataset(np.array([[0.5, 0.0]]))
    with pytest.raises(InputError, match="non-empty database"):
        nearest_trajectory_score(empty, probe)
    with pytest.raises(InputError, match="non-empty database"):
        PointwiseChristoffel.fit(empty, d2=2)


def test_nearest_matches_exhaustive_distances():
    rng = np.random.default_rng(17)
    C = rng.normal(size=(6, 3))
    data = TrajectoryDataset.from_coefficients(C)
    probe = rng.normal(size=3)
    nodes = chebyshev_quadrature_nodes(256)
    pv = reconstruct_batch(probe[None, :], nodes)[0]
    brute = min(
        math.sqrt(float(np.mean((pv - reconstruct_batch(row[None, :], nodes)[0]) ** 2)))
        for row in C
    )
    got = nearest_trajectory_score(data, TrajectoryDataset(probe[None, :]))
    assert got.shape == (1,) and got[0] == pytest.approx(brute, rel=1e-12)


def test_union_takes_the_min():
    d1 = TrajectoryDataset.from_coefficients([[0.0, 0.0]])
    d2 = TrajectoryDataset.from_coefficients([[1.0, 0.0]])
    union = TrajectoryDataset(np.vstack([d1.coeffs, d2.coeffs]))
    probe = TrajectoryDataset(np.array([[0.9, 0.0]]))
    s1 = nearest_trajectory_score(d1, probe)[0]
    s2 = nearest_trajectory_score(d2, probe)[0]
    assert nearest_trajectory_score(union, probe)[0] == pytest.approx(min(s1, s2), rel=1e-12)


# --- pointwise baseline ----------------------------------------------------------

def test_pointwise_baseline_is_the_fitted_model_of_the_point_cloud(small_family):
    exp, _ = small_family
    data = TrajectoryDataset(exp.dataset.coeffs[:40])
    cloud = PointwiseChristoffel.fit(data, d2=3)
    G = data.on_nodes(cloud.nodes)
    points = np.stack([np.tile(cloud.nodes, len(data)), G.ravel()], axis=1)
    model = fit(TrajectoryDataset(points), 3, 2)
    assert (cloud.model.d, cloud.model.n, cloud.model.sample_count) == (
        3, 2, 40 * POINTWISE_QUAD_POINTS)
    assert cloud.model.epsilon == model.epsilon
    np.testing.assert_array_equal(cloud.model.inverse_factor, model.inverse_factor)
    assert cloud.cloud_floor == 1.0 / cd_values(model, points).max()
    probes = np.vstack([G[:3], reconstruct_batch(exp.outlier[None, :], cloud.nodes)])
    pairs = np.stack([np.tile(cloud.nodes, 4), probes.ravel()], axis=1)
    np.testing.assert_array_equal(cloud.profiles(probes).ravel(), 1.0 / cd_values(model, pairs))


def test_naive_fraction_zero_for_delta_zero(small_family):
    exp, _ = small_family
    cloud = PointwiseChristoffel.fit(exp.dataset, d2=3)
    assert cloud.fraction_below(TrajectoryDataset(exp.outlier[None, :]), 0.0).tolist() == [0.0]


def test_member_probe_stays_above_the_floor(small_family):
    # the floor is the largest delta that never flags the reference data,
    # so any whisker below it keeps every member clean
    exp, _ = small_family
    cloud = PointwiseChristoffel.fit(exp.dataset, d2=3)
    member = TrajectoryDataset(exp.dataset.coeffs[:1])
    assert cloud.fraction_below(member, 0.99 * cloud.cloud_floor).tolist() == [0.0]


def test_cloud_floor_is_positive(small_family):
    exp, _ = small_family
    cloud = PointwiseChristoffel.fit(exp.dataset, d2=3)
    assert cloud.cloud_floor > 0.0
    lam = cloud.profiles(reconstruct_batch(exp.dataset.coeffs[1:2], cloud.nodes))[0]
    assert np.all(np.isfinite(lam)) and np.all(lam > 0.0)


def test_naive_rejects_negative_delta(small_family):
    exp, _ = small_family
    cloud = PointwiseChristoffel.fit(exp.dataset, d2=3)
    with pytest.raises(InputError):
        cloud.fraction_below(TrajectoryDataset(exp.outlier[None, :]), -0.1)


def test_naive_accepts_curve_probes(small_family):
    exp, _ = small_family
    traj = SampledTrajectory(exp.dataset.times, exp.dataset.values[:, 2])
    probes = TrajectoryDataset.from_trajectories([traj], 4)
    frac = PointwiseChristoffel.fit(exp.dataset, d2=3).fraction_below(probes, 1e-12)
    assert frac.tolist() == [0.0]


# --- batch forms ------------------------------------------------------------------

def test_classify_row_by_row_equals_verdicts_of_cd_values(small_family):
    exp, model = small_family
    thr = calibrate(model, exp.dataset)
    C = np.vstack([exp.dataset.coefficient_matrix(4)[:20], exp.outlier[None, :4]])
    batch = verdicts(cd_values(model, C), thr.value)
    assert [classify(model, thr, row) for row in C] == batch
    assert batch[-1] == "Outlier"


def test_nearest_distances_batch_keeps_members_at_exactly_zero(small_family):
    exp, _ = small_family
    data = exp.dataset
    curves = [SampledTrajectory(data.times, data.values[:, i]) for i in range(len(data))]
    nodes = chebyshev_quadrature_nodes(256)

    def on_nodes(tr):
        return values_on_nodes(unit_times(tr.times, tr.domain), tr.values[:, None], nodes)[0]

    G = np.stack([on_nodes(tr) for tr in curves])
    shifted = SampledTrajectory(times=curves[3].times, values=curves[3].values + 0.05)
    probes = np.vstack([G[[5, 17, 100]], on_nodes(shifted)])
    got = nearest_distances(G, probes)
    assert got[:3].tolist() == [0.0, 0.0, 0.0]
    alone = nearest_trajectory_score(exp.dataset, TrajectoryDataset.from_trajectories([shifted], 4))
    assert got[3] == alone[0] > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert nearest_distances(G, np.full((1, 256), 1e200))[0] == math.inf


def test_pointwise_fractions_batch_equals_one_probe_at_a_time(small_family):
    exp, _ = small_family
    cloud = PointwiseChristoffel.fit(exp.dataset, d2=3)
    probes = np.vstack([exp.outlier, exp.dataset.coeffs[:5]])
    delta = 2.0 * cloud.cloud_floor
    batch = cloud.fraction_below(TrajectoryDataset(probes), delta)
    assert batch.tolist() == [cloud.fraction_below(TrajectoryDataset(p[None, :]), delta)[0]
                              for p in probes]


def test_profiles_refuse_probes_on_another_number_of_nodes(small_family):
    exp, _ = small_family
    cloud = PointwiseChristoffel.fit(TrajectoryDataset(exp.dataset.coeffs[:40]), d2=3)
    row = reconstruct_batch(exp.outlier[None, :], cloud.nodes)
    np.testing.assert_array_equal(cloud.profiles(row[0]), cloud.profiles(row))
    assert cloud.profiles(row[0]).shape == (1, POINTWISE_QUAD_POINTS)
    for bad in (np.hstack([row, row]), np.zeros((1, 100)), np.zeros(100)):
        with pytest.raises(InputError, match=f"on {bad.shape[-1]} nodes .* the cloud's 129"):
            cloud.profiles(bad)


def test_nearest_distances_refuse_probes_on_another_grid():
    G = np.zeros((3, 256))
    with pytest.raises(InputError, match=r"shape \(2, 129\) .* 256 nodes"):
        nearest_distances(G, np.zeros((2, 129)))
    with pytest.raises(InputError, match=r"shape \(256,\) .* 256 nodes"):
        nearest_distances(G, np.zeros(256))


# --- nearest-rank quantile --------------------------------------------------------

@pytest.mark.parametrize("q, count, rank", [
    (0.035, 200, 7),     # 0.035 * 200 rounds to 7.000000000000001
    (0.017, 3000, 51),
    (0.034, 1500, 51),
    (0.5, 3, 2),
    (1 / 3, 3, 1),
    (1.0, 5, 5),
    (0.001, 10, 1),      # never below rank 1
])
def test_nearest_rank_takes_the_product_with_the_decimal_q(q, count, rank):
    assert nearest_rank(q, count) == rank
    assert nearest_rank_quantile(np.arange(1.0, count + 1.0), q) == float(rank)


def test_nearest_rank_differs_from_the_float_product_only_where_it_rounds_up():
    k, N = np.meshgrid(np.arange(1, 1001), np.arange(1, 3001), indexing="ij")
    float_rank = np.ceil(k / 1000 * N).astype(np.int64)
    exact_rank = -(-k * N // 1000)
    changed = np.flatnonzero(float_rank != exact_rank)
    assert changed.size == 755
    assert np.all(float_rank.flat[changed] == exact_rank.flat[changed] + 1)
    sample = np.random.default_rng(80).choice(k.size, 5_000, replace=False)
    for i in np.concatenate([changed, sample]).tolist():
        assert nearest_rank(int(k.flat[i]) / 1000, int(N.flat[i])) == exact_rank.flat[i]


@pytest.mark.parametrize("q", [0.9, 0.95, 0.99, 0.999])
def test_common_quantiles_keep_their_float_product_rank(q):
    assert all(nearest_rank(q, N) == math.ceil(q * N) for N in range(1, 100_001))
