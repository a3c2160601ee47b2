"""End-to-end acceptance suite.

One test per criterion, each asserted at its fixed tolerance (in nats) and
announced with a pass line.  Expected total runtime is well under a minute.
"""

import math

import numpy as np

from holevo_bounds.bounds import full_report, shannon_bound
from holevo_bounds.cli import run_bounds_suite, run_fei_suite
from holevo_bounds.ensemble import holevo_quantity
from holevo_bounds.entropy import relative_entropy, von_neumann_entropy
from holevo_bounds.gallery import (
    OscillatorEnsembleSpec,
    orthogonal_ensemble,
    oscillator_closed_form,
    oscillator_ensemble,
    random_mixed_state,
    trine_ensemble,
)
from holevo_bounds.linalg import trace_norm

from helpers import cyclic_orbit_ensemble, great_circle_spec
from holevo_bounds.gallery import discretize_continuous

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def _announce(line: str) -> None:
    print(f"PASS: {line}")


def test_trine_ensemble_reproduces_closed_form_values():
    report = full_report(trine_ensemble())
    assert abs(report.chi - LN2) <= 1e-9
    assert abs(report.shannon_bound - (0.5 * LN3 + LN2)) <= 1e-9
    expected_refined = (math.sqrt(3.0) / 4.0) * LN3 + LN2 - 0.25
    assert abs(report.diameter_bound - expected_refined) <= 1e-9
    assert abs(report.plus_diameter - math.sqrt(3.0) / 2.0) <= 1e-9
    assert abs(report.pinsker_term - 0.5) <= 1e-9
    assert abs(report.aux_bound - report.chi) <= 1e-9
    _announce(
        "trine ensemble: chi, both refined bounds, diameter and spread match "
        "their closed forms"
    )


def test_orthogonal_families_attain_equality():
    for m in range(2, 9):
        report = full_report(orthogonal_ensemble(m))
        assert abs(report.chi - math.log(m)) <= 1e-9
        assert abs(report.chi_plus - math.log(m)) <= 1e-9
        expected_minus = math.log(m) - math.log(m - 1) if m > 1 else 0.0
        assert abs(report.chi_minus - expected_minus) <= 1e-9
        assert abs(report.aux_bound - report.chi) <= 1e-9
    _announce(
        "orthogonal equiprobable families m=2..8: chi = ln m, the auxiliary "
        "ensembles have their closed-form chi, and the bound is exactly tight"
    )


def test_oscillator_two_computation_paths_agree():
    grid = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0)
    for n_mean in grid:
        chi_series, chi_hat_series = oscillator_closed_form(n_mean, term_tol=1e-10)
        mu, _ = oscillator_ensemble(OscillatorEnsembleSpec(n_mean, tail_tol=1e-9))
        chi_matrix = holevo_quantity(mu)
        assert abs(chi_series - chi_matrix) <= 1e-6
        assert chi_hat_series >= chi_series
        estimate_matrix, _ = shannon_bound(mu)
        assert abs(chi_hat_series - estimate_matrix) <= 1e-6
    _announce(
        "oscillator family: series and truncated-matrix paths agree to 1e-6 "
        "for chi and its upper estimate over eight mean photon numbers"
    )


def test_entropic_inequality_random_pairs():
    result = run_fei_suite(trials=1000, seed=20260810)
    assert result.passed, result.violations[:1]
    assert result.worst["slack"] >= -1e-8
    _announce(
        f"entropic inequality holds on 1000 random pairs "
        f"(worst slack {result.worst['slack']:.3e})"
    )


def test_random_ensemble_soundness_ordering_and_average_identity():
    result = run_bounds_suite(trials=1000, seed=987654321)
    assert result.passed, result.violations[:1]
    worst_bound_slack = min(
        value for key, value in result.worst.items() if key.startswith("slack.")
    )
    assert worst_bound_slack >= -1e-8
    assert result.worst["average_match_residual"] <= 1e-9
    _announce(
        f"1000 random ensembles: every bound >= chi (worst slack "
        f"{worst_bound_slack:.3e}), orderings hold, auxiliary averages "
        f"coincide (worst residual {result.worst['average_match_residual']:.3e})"
    )


def test_internal_lemma_slacks_on_equal_distance_families():
    ensembles = [trine_ensemble()]
    ensembles += [orthogonal_ensemble(m) for m in range(2, 7)]
    ensembles.append(discretize_continuous(great_circle_spec(12)))
    ensembles += [
        cyclic_orbit_ensemble(dim, seed=100 * dim + k)
        for dim in (2, 3, 4, 5, 6)
        for k in range(4)
    ]
    worst_pinsker = math.inf
    worst_audenaert = math.inf
    for mu in ensembles:
        report = full_report(mu)
        worst_pinsker = min(worst_pinsker, report.slacks["pinsker_lemma"])
        worst_audenaert = min(worst_audenaert, report.slacks["audenaert_lemma"])
    assert worst_pinsker >= -1e-8
    assert worst_audenaert >= -1e-8
    _announce(
        f"equal-distance families: chi(mu-) >= spread term (worst "
        f"{worst_pinsker:.3e}) and chi(mu+) <= diameter * weight entropy "
        f"(worst {worst_audenaert:.3e})"
    )


def test_entropy_kernel_oracles():
    rng = np.random.default_rng(424242)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        rho = random_mixed_state(dim, int(rng.integers(1, dim + 1)), rng)
        spectrum = np.linalg.eigvalsh(rho.mat)
        positive = spectrum[spectrum > 0]
        oracle = float(-(positive * np.log(positive)).sum())
        assert abs(von_neumann_entropy(rho) - oracle) <= 1e-10
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        rho = random_mixed_state(dim, dim, rng)
        sigma = random_mixed_state(dim, dim, rng)
        gap = trace_norm(rho - sigma)
        assert relative_entropy(rho, sigma) >= 0.5 * gap * gap - 1e-9
    _announce(
        "entropy kernel: spectrum-Shannon oracle (200 states) and the "
        "quadratic lower bound on relative entropy (200 full-rank pairs)"
    )


def test_orthogonal_family_bound_gap_shrinks_with_dimension():
    gaps = []
    for d in (2, 4, 16, 64):
        mu = orthogonal_ensemble(d)
        first, _ = shannon_bound(mu)
        gap = first - holevo_quantity(mu)
        expected = -(1.0 - 1.0 / d) * math.log(1.0 - 1.0 / d)
        assert abs(gap - expected) <= 1e-9
        gaps.append(gap)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    _announce(
        "orthogonal families d=2,4,16,64: probability-metric bound exceeds "
        "chi by exactly -(1-1/d) ln(1-1/d), shrinking toward 0"
    )
