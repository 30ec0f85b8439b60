"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import LEGAL_MASK, random_station_state, sample_cascade, states_equal_up_to_phase
from pdcbell.bell import (
    ChshSettings,
    OPTIMAL_SETTINGS,
    chsh_decomposition,
    chsh_from_tables,
    chsh_operator_expectation,
    optimize_angles,
)
from pdcbell.fock import STATION_LABELS, StateVector
from pdcbell.lhv import (
    Feasible,
    Infeasible,
    LhvModel,
    N_STRATEGIES,
    lhv_feasible,
    synthesize_tables,
    verify_certificate,
)
from pdcbell.measurement import (
    FAVORABLE_MASK,
    OutcomeClass,
    PolarizerAngle,
    joint_distribution,
    marginal,
)
from pdcbell.montecarlo import (
    RunConfig,
    estimate_correlators,
    run_experiment,
    station_response,
)
from pdcbell.optics import build_experiment_state

SQRT2 = math.sqrt(2.0)


def report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {name}" + (f' ({detail})' if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_state_construction():
    state = build_experiment_state()
    expected = StateVector(
        {
            (1, 0, 0, 1): 0.5,
            (0, 1, 1, 0): -0.5,
            (1, 1, 0, 0): 0.5j,
            (0, 0, 1, 1): 0.5j,
        },
        STATION_LABELS,
    )
    equal, phase = states_equal_up_to_phase(expected, state, tol=1e-12)
    report(
        "criterion 1: state construction reproduces the four amplitudes",
        equal,
        f"global phase {phase:+.3e}",
    )


def test_criterion_2_chsh_violation():
    psi = build_experiment_state()
    start = time.time()
    _, value = optimize_angles(psi)
    elapsed = time.time() - start
    tables = [joint_distribution(psi, xi, eta) for xi, eta in OPTIMAL_SETTINGS.setting_pairs()]
    at_derived = chsh_from_tables(tables).total
    ok = (
        abs(value - (1 + SQRT2)) <= 1e-6
        and abs(at_derived - (1 + SQRT2)) <= 1e-9
        and elapsed < 10.0
    )
    report(
        "criterion 2: CHSH violation 1+sqrt(2)",
        ok,
        f"optimized {value:.9f}, derived settings {at_derived:.12f}, {elapsed:.1f}s",
    )


def test_criterion_3_decomposition():
    psi = build_experiment_state()
    at_optimal = chsh_decomposition(psi, OPTIMAL_SETTINGS)
    ok = (
        abs(at_optimal.unfavorable_part - 2.0) <= 1e-12
        and abs(at_optimal.favorable_part - 2 * SQRT2) <= 1e-9
    )
    rng = np.random.default_rng(2024)
    max_violation = 0.0
    for _ in range(100):
        settings = ChshSettings.from_radians(*(rng.random(4) * math.pi))
        result = chsh_decomposition(psi, settings)
        identity_gap = abs(
            result.total - 0.5 * (result.unfavorable_part + result.favorable_part)
        )
        max_violation = max(max_violation, identity_gap)
    ok = ok and max_violation <= 1e-12
    report(
        "criterion 3: block decomposition",
        ok,
        f"unfav {at_optimal.unfavorable_part:.15f}, fav {at_optimal.favorable_part:.12f}, "
        f"identity residual {max_violation:.2e}",
    )


def test_criterion_4_vacuum_dilution_run():
    p_pair = 0.01
    config = RunConfig(
        total_time=0.04,
        bin_width=1e-8,
        pair_probability=p_pair,
        settings=OPTIMAL_SETTINGS,
        seed=20240817,
    )
    assert config.n_bins == 4_000_000
    start = time.time()
    log = run_experiment(config)
    reportdata = estimate_correlators(log)
    elapsed = time.time() - start
    value, stderr = reportdata.chsh, reportdata.chsh_stderr

    vacuum_sigma = math.sqrt(p_pair * (1 - p_pair) / config.n_bins)
    n0_share = reportdata.n_vacuum / reportdata.n_bins
    vacuum_ok = abs(n0_share - (1 - p_pair)) <= 3 * vacuum_sigma
    expected = 2 + p_pair * (SQRT2 - 1)
    estimate_ok = abs(value - expected) <= 3 * stderr
    resolvable = value - 2.0 >= 3 * stderr
    ok = vacuum_ok and estimate_ok and resolvable and elapsed < 60.0
    report(
        "criterion 4: vacuum-diluted counting run",
        ok,
        f"N0/N {n0_share:.6f}, chsh {value:.6f} +/- {stderr:.6f}, "
        f"target {expected:.6f}, {elapsed:.1f}s",
    )


def test_criterion_5_lhv_infeasibility():
    psi = build_experiment_state()
    start = time.time()
    tables = [joint_distribution(psi, xi, eta) for xi, eta in OPTIMAL_SETTINGS.setting_pairs()]
    verdict = lhv_feasible(tables)
    infeasible_ok = isinstance(verdict, Infeasible)
    gap_ok = False
    if infeasible_ok:
        check = verify_certificate(verdict.certificate, tables)
        gap_ok = check.gap > 0.0

    rng = np.random.default_rng(77)
    feasible_count = 0
    worst_error = 0.0
    for _ in range(20):
        weights = rng.random(N_STRATEGIES)
        model = LhvModel(weights / weights.sum())
        settings = ChshSettings.from_radians(*(rng.random(4) * math.pi))
        result = lhv_feasible(synthesize_tables(model, settings))
        if isinstance(result, Feasible) and result.reconstruction_error <= 1e-7:
            feasible_count += 1
            worst_error = max(worst_error, result.reconstruction_error)
    elapsed = time.time() - start
    ok = infeasible_ok and gap_ok and feasible_count == 20 and elapsed < 30.0
    report(
        "criterion 5: local-model infeasibility with verified certificate",
        ok,
        f"gap verified {gap_ok}, 20/20 round trips (worst error {worst_error:.2e}), {elapsed:.1f}s",
    )


def test_criterion_6_cascade_detector():
    start = time.time()
    ok = True
    details = []
    one, pair = OutcomeClass.SINGLE_PARA - 1, OutcomeClass.DOUBLE_PARA - 1
    for n in (2, 4, 8, 16):
        same_arm = station_response(1.0, n)[one, pair]  # a same-port pair read as one photon
        exact = same_arm == 1.0 / n
        sampled = sample_cascade(n, efficiency=1.0, trials=100_000, seed=100 + n)[one]
        sigma = math.sqrt((1.0 / n) * (1 - 1.0 / n) / 100_000)
        within = abs(sampled - same_arm) <= 3 * sigma
        ok = ok and exact and within
        details.append(f"n={n}: {sampled:.5f} vs 1/{n}")
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    report("criterion 6: cascade same-arm statistics", ok, "; ".join(details))


def test_criterion_7_property_suites():
    psi = build_experiment_state()
    rng = np.random.default_rng(4096)
    tol = 1e-9
    normalization_ok = True
    no_signaling_ok = True
    blocks_ok = True
    unfavorable_law_ok = True
    favorable_correlator_ok = True
    paths_ok = True

    for _ in range(100):
        xi = PolarizerAngle(rng.random() * math.pi)
        eta = PolarizerAngle(rng.random() * math.pi)
        dist = joint_distribution(psi, xi, eta)
        normalization_ok &= abs(dist.probs.sum() - 1.0) <= tol
        blocks_ok &= bool(np.all(np.abs(dist.probs[~LEGAL_MASK]) <= 1e-12))

        eta_other = PolarizerAngle(rng.random() * math.pi)
        other = joint_distribution(psi, xi, eta_other)
        no_signaling_ok &= bool(
            np.all(np.abs(marginal(dist, 1) - marginal(other, 1)) <= tol)
        )

        local = marginal(
            joint_distribution(
                StateVector({(1, 1, 0, 0): 1.0}, STATION_LABELS), xi, eta
            ),
            1,
        )
        angle = xi.angle
        unfavorable_law_ok &= abs(local[3] - math.cos(2 * angle) ** 2) <= tol
        unfavorable_law_ok &= abs(local[4] - math.sin(2 * angle) ** 2 / 2) <= tol
        unfavorable_law_ok &= abs(local[5] - math.sin(2 * angle) ** 2 / 2) <= tol

        favorable = dist.probs[FAVORABLE_MASK].reshape(2, 2)
        signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        favorable_correlator = float((signs * favorable).sum()) / favorable.sum()
        favorable_correlator_ok &= (
            abs(favorable_correlator - (-math.cos(2 * (xi.angle - eta.angle)))) <= tol
        )

        state = random_station_state(rng)
        settings = ChshSettings.from_radians(*(rng.random(4) * math.pi))
        tables = [joint_distribution(state, x, e) for x, e in settings.setting_pairs()]
        by_tables = chsh_from_tables(tables).total
        by_operators = chsh_operator_expectation(state, settings)
        paths_ok &= abs(by_tables - by_operators) <= 1e-12

    checks = {
        "normalization": normalization_ok,
        "no-signaling": no_signaling_ok,
        "block structure": blocks_ok,
        "unfavorable local law": unfavorable_law_ok,
        "favorable correlator": favorable_correlator_ok,
        "path equivalence": paths_ok,
    }
    report(
        "criterion 7: randomized property suites",
        all(checks.values()),
        ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()),
    )
