"""Acceptance gate: eleven numbered end-to-end checks.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion with the measured quantities; each line also lands in the assert
message on failure.  All randomness is seeded, so the measured numbers are
bit-stable across runs.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from trajcf.basis import eval_monomial_matrix
from trajcf.cli import main
from trajcf.model import (
    TrajectoryDataset,
    cd_value,
    cd_value_after_update,
    cd_values,
    christoffel_value,
    extremal_polynomial,
    fit,
    kernel,
    update,
)
from trajcf.scoring import PointwiseChristoffel, calibrate, classify
from trajcf.synth import NOMINAL_COEFFS, generate_example1, generate_example2


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=None)
def _family(seed: int, count: int = 1000):
    return generate_example1(count, seed)


@functools.lru_cache(maxsize=None)
def _sharp_model_seed0():
    return fit(_family(0).dataset, 4, 4, epsilon=0.0)


def _gaussian_coeffs(count: int, n: int, seed: int, scale: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((count, n))


def test_c01_in_sample_mean_equals_basis_dimension():
    t0 = time.perf_counter()
    exp = _family(0)
    model = _sharp_model_seed0()
    cds = cd_values(model, exp.dataset.coefficient_matrix(4))
    mean = float(np.mean(cds))
    elapsed = time.perf_counter() - t0
    rel = abs(mean - 70.0) / 70.0
    ok = rel <= 1e-8 and elapsed < 5.0
    _report(1, ok, f"in-sample mean cd = {mean!r} vs 70 (rel err {rel:.3e}, "
                   f"tol 1e-08), {elapsed:.2f}s (< 5s)")


def test_c02_held_out_inliers_score_near_dimension():
    t0 = time.perf_counter()
    model = _sharp_model_seed0()
    fresh = _family(1)
    cds = cd_values(model, fresh.dataset.coefficient_matrix(4))
    mean = float(np.mean(cds))
    elapsed = time.perf_counter() - t0
    ok = 49.0 <= mean <= 105.0 and elapsed < 5.0
    _report(2, ok, f"held-out mean cd = {mean:.3f} (window [49, 105]), "
                   f"{elapsed:.2f}s (< 5s)")


def test_c03_outliers_standout_across_seeds():
    t0 = time.perf_counter()
    hits = 0
    worst = math.inf
    for seed in range(100):
        exp = generate_example1(1000, seed)
        model = fit(exp.dataset, 4, 4, epsilon=0.0)
        cd = cd_value(model, exp.outlier)
        worst = min(worst, cd)
        hits += cd >= 700.0
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 60.0
    _report(3, ok, f"outlier cd >= 700 for {hits}/100 seeds (need >= 95; "
                   f"smallest seen {worst:.1f}), {elapsed:.1f}s (< 60s)")


def test_c04_unused_harmonic_gives_vanishing_moments_and_huge_score():
    t0 = time.perf_counter()
    exp = generate_example2(1000, seed=0)
    model = fit(exp.dataset, 1, 5)
    M = model.moment_matrix()
    edge = max(float(np.max(np.abs(M[-1, :]))), float(np.max(np.abs(M[:, -1]))))
    cd = cd_value(model, exp.outlier)
    elapsed = time.perf_counter() - t0
    ok = edge <= 1e-14 and cd > 6000.0 and elapsed < 5.0
    _report(4, ok, f"last moment row/col max |entry| = {edge:.2e} (<= 1e-14), "
                   f"outlier cd = {cd:.3e} (> 6000), {elapsed:.2f}s (< 5s)")


def test_c05_score_solves_the_constrained_quadratic_program():
    dims = [(1, 1), (2, 2), (1, 3), (4, 2), (2, 3)]
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(50):
        d, n = dims[k % len(dims)]
        data = TrajectoryDataset.from_coefficients(_gaussian_coeffs(80, n, 1000 + k))
        model = fit(data, d, n, epsilon=1e-8)
        h = 0.5 * rng.standard_normal(n)
        m = model.size
        M_reg = model.moment_matrix() + model.epsilon * np.eye(m)
        v = eval_monomial_matrix(h[None, :], model.basis)[0]
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = 2.0 * M_reg
        kkt[:m, m] = v
        kkt[m, :m] = v
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        p = np.linalg.solve(kkt, rhs)[:m]
        lam_qp = float(p @ M_reg @ p)
        lam = christoffel_value(model, h)
        worst = max(worst, abs(lam - lam_qp) / lam_qp)
        # the reported minimizer must be feasible and attain the same value
        w = extremal_polynomial(model, h)
        assert abs(float(w @ v) - 1.0) <= 1e-10
        worst = max(worst, abs(float(w @ M_reg @ w) - lam_qp) / lam_qp)
    ok = worst <= 1e-8
    _report(5, ok, f"quadratic-program cross-check over 50 instances: "
                   f"max rel err {worst:.3e} (tol 1e-08)")


def test_c06_kernel_reproduces_every_basis_polynomial():
    data = TrajectoryDataset.from_coefficients(_gaussian_coeffs(80, 3, 7))
    model = fit(data, 2, 3, epsilon=0.0)
    C = data.coefficient_matrix(3)
    V = eval_monomial_matrix(C, model.basis)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal(model.size)
        h = 0.5 * rng.standard_normal(3)
        p_at = V @ w
        k_at = np.array([kernel(model, c, h) for c in C])
        got = float(np.mean(p_at * k_at))
        want = float(w @ eval_monomial_matrix(h[None, :], model.basis)[0])
        worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
    ok = worst <= 1e-8
    _report(6, ok, f"empirical reproducing identity over 20 random (poly, probe) "
                   f"pairs: max rel err {worst:.3e} (tol 1e-08)")


def test_c07_update_matches_refit_and_the_rank_one_shortcut():
    C = _gaussian_coeffs(301, 3, 5)
    base = TrajectoryDataset.from_coefficients(C[:300])
    full = TrajectoryDataset.from_coefficients(C)
    probes = _gaussian_coeffs(100, 3, 6)

    model_eps = fit(base, 2, 3, epsilon=1e-6)
    upd = update(model_eps, C[300])
    ref = fit(full, 2, 3, epsilon=1e-6)
    got, want = cd_values(upd, probes), cd_values(ref, probes)
    worst_upd = float(np.max(np.abs(got - want) / want))

    model0 = fit(base, 2, 3, epsilon=0.0)
    ref0 = fit(full, 2, 3, epsilon=0.0)
    want0 = cd_values(ref0, probes)
    fast = np.array([cd_value_after_update(model0, C[300], p) for p in probes])
    worst_fast = float(np.max(np.abs(fast - want0) / want0))

    ok = worst_upd <= 1e-8 and worst_fast <= 1e-8
    _report(7, ok, f"update vs refit max rel err {worst_upd:.3e}; rank-one "
                   f"shortcut vs refit max rel err {worst_fast:.3e} (tol 1e-08)")


def test_c08_richer_bases_never_raise_the_christoffel_value():
    data = TrajectoryDataset.from_coefficients(_gaussian_coeffs(500, 3, 8))
    chain = [(1, 2), (2, 2), (2, 3), (3, 3)]
    models = [fit(data, d, n, epsilon=0.0) for d, n in chain]
    probes = _gaussian_coeffs(50, 3, 9)
    worst = -math.inf
    for p in probes:
        lams = [christoffel_value(mod, p[: mod.n]) for mod in models]
        for a, b in zip(lams, lams[1:]):
            worst = max(worst, b - a)
    ok = worst <= 1e-12
    _report(8, ok, f"chain {chain}: max increase of the Christoffel value "
                   f"along the chain {worst:.3e} (slack 1e-12)")


def test_c09_score_grows_geometrically_with_degree_outside_support():
    # default regularization: at degree 6 the empirical moment matrix of a
    # radius-0.1 family sits below the relative-eigenvalue floor, so an
    # unregularized fit correctly refuses to invert it
    t0 = time.perf_counter()
    exp = _family(0)
    u = np.full(4, 0.5)
    probe = np.asarray(NOMINAL_COEFFS[:4]) + 0.62 * u / np.linalg.norm(u)
    logs = []
    for d in range(1, 7):
        model = fit(exp.dataset, d, 4)
        logs.append(math.log2(cd_value(model, probe)))
    increments = np.diff(logs)
    slope = float((logs[-1] - logs[0]) / (len(logs) - 1))
    floor = 0.5 * 0.5 / 0.7
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(increments > 0.0)) and slope >= floor
    _report(9, ok, f"log2 cd over degrees 1..6: increments "
                   f"{np.array2string(increments, precision=3)}, mean slope "
                   f"{slope:.3f} (>= {floor:.3f}), {elapsed:.1f}s")


def test_c10_functional_score_beats_the_pointwise_baseline():
    exp = _family(276)
    model = fit(exp.dataset, 4, 4, epsilon=0.0)
    tau = calibrate(model, exp.dataset, method="quantile", param=0.999)
    verdict = classify(model, tau, exp.outlier)
    cloud = PointwiseChristoffel.fit(exp.dataset, d2=4)
    frac = cloud.fraction_below(TrajectoryDataset(exp.outlier[None, :]), cloud.cloud_floor)[0]
    cd = cd_value(model, exp.outlier)
    ok = verdict == "Outlier" and frac < 0.05
    _report(10, ok, f"outlier cd = {cd:.3e} vs tau = {tau.value:.1f} -> {verdict}; "
                    f"pointwise baseline flags fraction {frac:.3f} of nodes (< 0.05)")


def test_c11_cli_pipeline_is_byte_reproducible(tmp_path):
    t0 = time.perf_counter()
    artifacts = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        prefix = str(d / "e1")
        model = str(d / "model.txt")
        report = str(d / "report.csv")
        hist = str(d / "hist.txt")
        assert main(["synth", "example1", "--count", "150", "--seed", "7",
                     "--output", prefix]) == 0
        assert main(["fit", "--input", prefix + "_data.csv", "--output", model,
                     "--degree-d", "4", "--degree-n", "4"]) == 0
        assert main(["score", "--model", model, "--input", prefix + "_outlier.csv",
                     "--calibration", prefix + "_data.csv",
                     "--histogram-out", hist, "--output", report]) == 0
        artifacts.append([prefix + "_data.csv", prefix + "_curves.csv",
                          prefix + "_outlier.csv", prefix + "_nominal.csv",
                          model, report, hist])
    mismatched = [
        a.rsplit("/", 1)[-1]
        for a, b in zip(*artifacts)
        if Path(a).read_bytes() != Path(b).read_bytes()
    ]
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    _report(11, ok, f"two full synth->fit->score runs: "
                    f"{'all 7 artifacts byte-identical' if ok else 'mismatch in ' + ', '.join(mismatched)}, "
                    f"{elapsed:.1f}s")
