import math

import numpy as np
import pytest

from trajcf.errors import InputError
from trajcf.model import TrajectoryDataset, cd_value, cd_values, fit
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
    ScoreReport,
    Threshold,
    calibrate,
    classify,
    classify_batch,
    nearest_distances,
    nearest_rank,
    nearest_rank_quantile,
    nearest_trajectory_score,
    report_header,
    report_line,
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


def test_threshold_must_be_positive():
    with pytest.raises(InputError):
        Threshold(value=0.0, method="quantile(0.5)")


# --- classification ------------------------------------------------------------

def test_tie_with_threshold_is_an_inlier(small_family):
    exp, model = small_family
    probe = exp.dataset.coeffs[0]
    cd = cd_value(model, probe)
    thr = Threshold(value=cd, method="quantile(1)")
    assert classify(model, thr, probe).verdict == "Inlier"


def test_verdict_depends_only_on_the_comparison(small_family):
    exp, model = small_family
    thr = calibrate(model, exp.dataset)
    probe = exp.outlier
    plain = classify(model, thr, probe)
    decorated = classify(model, thr, probe, baseline_l2=12345.0)
    assert plain.verdict == decorated.verdict == "Outlier"
    assert decorated.baseline_l2 == 12345.0


def test_report_reciprocal_and_id(small_family):
    exp, model = small_family
    thr = calibrate(model, exp.dataset)
    rep = classify(model, thr, exp.outlier)
    assert rep.id is None  # a row carries no id; classify_batch takes ids
    assert rep.christoffel == pytest.approx(1.0 / rep.cd, rel=1e-12)


def test_report_derives_its_verdict_and_reciprocal():
    verdicts = [ScoreReport(id=None, cd=cd, threshold=3.0).verdict for cd in (2.0, 3.0, 3.5)]
    assert verdicts == ["Inlier", "Inlier", "Outlier"]  # a tie is an inlier
    assert ScoreReport(id=None, cd=math.inf, threshold=3.0).christoffel == 0.0
    assert ScoreReport(id=None, cd=0.0, threshold=3.0).christoffel == math.inf


def test_report_line_column_order():
    rep = ScoreReport(id="x", cd=2.0, threshold=3.0)
    assert report_header() == "id,cd,christoffel,threshold,verdict,baseline_l2"
    assert report_line(rep) == "x,2.0,0.5,3.0,Inlier,"


# --- nearest-trajectory baseline -------------------------------------------------

def test_member_probe_scores_zero(small_family):
    exp, _ = small_family
    data = exp.dataset
    member_curve = SampledTrajectory(data.times, data.values[:, 3])
    assert nearest_trajectory_score(exp.dataset, member_curve) == 0.0


def test_constant_against_zero_database():
    data = TrajectoryDataset.from_coefficients([[0.0, 0.0]])
    for c in (0.7, -1.2):
        probe = np.array([c, 0.0])
        assert nearest_trajectory_score(data, probe) == pytest.approx(abs(c), rel=1e-12)


def test_empty_database_is_refused_by_every_baseline():
    empty = TrajectoryDataset(np.empty((0, 2)))
    probe = np.array([0.5, 0.0])
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
    got = nearest_trajectory_score(data, probe)
    assert got == pytest.approx(brute, rel=1e-12)


def test_union_takes_the_min():
    d1 = TrajectoryDataset.from_coefficients([[0.0, 0.0]])
    d2 = TrajectoryDataset.from_coefficients([[1.0, 0.0]])
    union = TrajectoryDataset(np.vstack([d1.coeffs, d2.coeffs]))
    probe = np.array([0.9, 0.0])
    s1 = nearest_trajectory_score(d1, probe)
    s2 = nearest_trajectory_score(d2, probe)
    assert nearest_trajectory_score(union, probe) == pytest.approx(min(s1, s2), rel=1e-12)


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
    assert cloud.fraction_below(exp.outlier, 0.0) == 0.0


def test_member_probe_stays_above_the_floor(small_family):
    # the floor is the largest delta that never flags the reference data,
    # so any whisker below it keeps every member clean
    exp, _ = small_family
    cloud = PointwiseChristoffel.fit(exp.dataset, d2=3)
    member = exp.dataset.coeffs[0]
    assert cloud.fraction_below(member, 0.99 * cloud.cloud_floor) == 0.0


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
        cloud.fraction_below(exp.outlier, -0.1)


def test_naive_accepts_curve_probes(small_family):
    exp, _ = small_family
    traj = SampledTrajectory(exp.dataset.times, exp.dataset.values[:, 2])
    frac = PointwiseChristoffel.fit(exp.dataset, d2=3).fraction_below(traj, 1e-12)
    assert frac == 0.0


# --- batch forms ------------------------------------------------------------------

def test_classify_batch_equals_classify_row_by_row(small_family):
    exp, model = small_family
    thr = calibrate(model, exp.dataset)
    C = np.vstack([exp.dataset.coefficient_matrix(4)[:20], exp.outlier[None, :4]])
    ids = [f"p{i}" for i in range(len(C))]
    batch = classify_batch(model, thr, C, ids=ids, baseline_l2=np.arange(len(C)))
    for i, rep in enumerate(batch):
        single = classify(model, thr, C[i], baseline_l2=float(i))
        assert (rep.id, rep.verdict) == (ids[i], single.verdict)
        assert rep.baseline_l2 == single.baseline_l2
        assert rep.cd == pytest.approx(single.cd, rel=1e-12)
    assert batch[-1].verdict == "Outlier"


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
    assert got[3] == nearest_trajectory_score(exp.dataset, shifted) > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert nearest_distances(G, np.full((1, 256), 1e200))[0] == math.inf


def test_pointwise_fractions_batch_equals_one_probe_at_a_time(small_family):
    exp, _ = small_family
    cloud = PointwiseChristoffel.fit(exp.dataset, d2=3)
    probes = [exp.outlier] + list(exp.dataset.coeffs[:5])
    values = np.vstack([reconstruct_batch(row[None, :], cloud.nodes) for row in probes])
    delta = 2.0 * cloud.cloud_floor
    batch = cloud.fractions_below(values, delta)
    assert batch.tolist() == [cloud.fraction_below(p, delta) for p in probes]


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
