"""Tests for the entropic inequality checker and the four Holevo bounds."""

import dataclasses
import math

import numpy as np
import pytest

from holevo_bounds.bounds import (
    SLACK_KEYS,
    BoundReport,
    aux_bound,
    count_bound,
    diameter_bound,
    fei_check,
    full_report,
    pinsker_term,
    plus_diameter,
    shannon_bound,
)
from holevo_bounds.ensemble import (
    AuxiliaryDecomposition,
    DiscreteEnsemble,
    build_auxiliary,
    holevo_quantity,
)
from holevo_bounds.gallery import (
    OscillatorEnsembleSpec,
    orthogonal_ensemble,
    oscillator_ensemble,
    random_ensemble,
    random_mixed_state,
    random_pure_state,
    trine_ensemble,
)
from holevo_bounds.entropy import binary_entropy, shannon_entropy
from holevo_bounds.linalg import DensityOperator, jordan_parts, trace_distance

from helpers import count_constructions, count_eigensolves, cyclic_orbit_ensemble

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def _single_state_ensemble(dim=2):
    return DiscreteEnsemble(np.array([1.0]), (DensityOperator(np.eye(dim) / dim),))


def _identical_states_ensemble():
    rho = DensityOperator.from_pure([1.0, 2.0j])
    return DiscreteEnsemble(np.array([0.4, 0.6]), (rho, rho))


def _dead_zone_ensemble():
    # eps_i = 5e-11 > EPS_ZERO_TOL, but every Jordan-part eigenvalue is
    # below PSD_TOL: the report treats the ensemble as degenerate.
    states = tuple(DensityOperator(np.diag([0.5 + s, 0.5 - s])) for s in (5e-11, -5e-11))
    return DiscreteEnsemble(np.array([0.5, 0.5]), states)


def _manual_aux(taus_plus, taus_minus, probs, weights):
    taus_plus = tuple(taus_plus)
    taus_minus = tuple(taus_minus)
    probs = np.asarray(probs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mu_minus = DiscreteEnsemble(weights, taus_minus)
    omega = DensityOperator(
        sum(w * t.mat for w, t in zip(weights, taus_minus))
    )
    return AuxiliaryDecomposition(
        probs=probs,
        eps=np.full(probs.size, 0.5),
        eps_av=0.5,
        retained=tuple(range(probs.size)),
        weights=weights,
        tau_plus=taus_plus,
        tau_minus=taus_minus,
        mu_plus=DiscreteEnsemble(weights, taus_plus),
        mu_minus=mu_minus,
        omega=omega,
        average_match_residual=0.0,
        plus_vectors=(None,) * len(taus_plus),
    )


def test_fei_identical_states():
    rho = DensityOperator(np.eye(3) / 3)
    report = fei_check(rho, rho)
    assert report.slack == 0.0
    assert report.lhs == report.rhs
    assert math.isclose(report.lhs, math.log(3.0), abs_tol=1e-12)


def test_fei_orthogonal_pure_states():
    rho = DensityOperator.from_pure([1.0, 0.0])
    sigma = DensityOperator.from_pure([0.0, 1.0])
    report = fei_check(rho, sigma)
    assert math.isclose(report.eps, 1.0, abs_tol=1e-12)
    # Both sides vanish: pure states, and h(1) = 0.
    assert abs(report.lhs) <= 1e-12
    assert abs(report.rhs) <= 1e-12
    assert abs(report.slack) <= 1e-12


def test_fei_random_full_rank_pair():
    rng = np.random.default_rng(2)
    rho = random_mixed_state(4, 4, rng)
    sigma = random_mixed_state(4, 4, rng)
    assert fei_check(rho, sigma).slack >= -1e-8


def test_fei_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        fei_check(DensityOperator(np.eye(2) / 2), DensityOperator(np.eye(3) / 3))


def test_fei_random_pairs_property():
    rng = np.random.default_rng(19)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        rho = random_pure_state(dim, rng) if rng.integers(2) else random_mixed_state(
            dim, int(rng.integers(1, dim + 1)), rng
        )
        sigma = random_pure_state(dim, rng) if rng.integers(2) else random_mixed_state(
            dim, int(rng.integers(1, dim + 1)), rng
        )
        report = fei_check(rho, sigma)
        assert report.slack >= -1e-8
        assert 0.0 <= report.eps <= 1.0


def test_aux_bound_orthogonal_three():
    # Closed form: (2/3) ln 2 + h(2/3), which collapses to ln 3 = chi.
    first, second = aux_bound(orthogonal_ensemble(3))
    h_two_thirds = LN3 - (2.0 / 3.0) * LN2
    assert math.isclose(first, (2.0 / 3.0) * LN2 + h_two_thirds, abs_tol=1e-10)
    assert math.isclose(first, LN3, abs_tol=1e-10)
    assert first <= second + 1e-12


def test_aux_bound_trine_is_tight():
    first, second = aux_bound(trine_ensemble())
    assert math.isclose(first, LN2, abs_tol=1e-10)
    assert math.isclose(second, LN2, abs_tol=1e-10)


def test_aux_bound_single_state():
    assert aux_bound(_single_state_ensemble()) == (0.0, 0.0)


def test_shannon_bound_trine():
    first, second = shannon_bound(trine_ensemble())
    assert math.isclose(first, 0.5 * LN3 + LN2, abs_tol=1e-10)
    assert math.isclose(second, 0.5 * LN3 + LN2, abs_tol=1e-10)


def test_shannon_bound_orthogonal_leading_term():
    # With uniform weights over d members the leading term is (1-1/d) ln d.
    d = 5
    first, _ = shannon_bound(orthogonal_ensemble(d))
    eps = 1.0 - 1.0 / d
    h_eps = -(eps * math.log(eps)) - (1.0 / d) * math.log(1.0 / d)
    assert math.isclose(first, eps * math.log(d) + h_eps, abs_tol=1e-10)


def test_shannon_bound_single_state():
    assert shannon_bound(_single_state_ensemble()) == (0.0, 0.0)


def test_count_bound_values():
    first, second = count_bound(trine_ensemble())
    assert math.isclose(first, 0.5 * LN3 + LN2, abs_tol=1e-10)
    assert count_bound(_single_state_ensemble()) == (0.0, 0.0)
    # Two orthogonal equiprobable pure states: (1/2) ln 2 + h(1/2).
    first, _ = count_bound(orthogonal_ensemble(2))
    assert math.isclose(first, 0.5 * LN2 + LN2, abs_tol=1e-10)


def test_plus_diameter_trine():
    aux = build_auxiliary(trine_ensemble())
    assert math.isclose(plus_diameter(aux), math.sqrt(3.0) / 2.0, abs_tol=1e-10)


def test_plus_diameter_orthogonal_supports():
    aux = build_auxiliary(orthogonal_ensemble(4))
    assert math.isclose(plus_diameter(aux), 1.0, abs_tol=1e-10)


def test_plus_diameter_single_member():
    rho = DensityOperator.from_pure([1.0, 0.0])
    sigma = DensityOperator.from_pure([0.0, 1.0])
    aux = _manual_aux([rho], [sigma], [1.0], [1.0])
    assert plus_diameter(aux) == 0.0


def test_pinsker_term_trine():
    aux = build_auxiliary(trine_ensemble())
    assert math.isclose(pinsker_term(aux), 0.5, abs_tol=1e-10)
    # All member distances are equal, so both weightings coincide.
    assert math.isclose(pinsker_term(aux, reweighted=True), 0.5, abs_tol=1e-10)


def test_pinsker_term_equal_minus_parts():
    sigma = DensityOperator.from_pure([0.0, 1.0])
    rho = DensityOperator.from_pure([1.0, 0.0])
    aux = _manual_aux([rho, rho], [sigma, sigma], [0.5, 0.5], [0.5, 0.5])
    assert pinsker_term(aux) == 0.0


def test_pinsker_term_two_orthogonal():
    # tau_i^- are the two orthogonal states and omega their midpoint, so each
    # trace-norm gap is 1 and D = (1/2)(1/2 + 1/2) = 1/2 by direct evaluation.
    mu = orthogonal_ensemble(2)
    aux = build_auxiliary(mu)
    oracle = 0.0
    for p, tau in zip([0.5, 0.5], aux.tau_minus):
        gap = float(np.abs(np.linalg.eigvalsh(tau.mat - aux.omega.mat)).sum())
        oracle += p * gap * gap
    oracle *= 0.5
    assert math.isclose(oracle, 0.5, abs_tol=1e-12)
    assert math.isclose(pinsker_term(aux), oracle, abs_tol=1e-12)


def test_diameter_bound_trine():
    expected = (math.sqrt(3.0) / 4.0) * LN3 + LN2 - 0.25
    assert math.isclose(diameter_bound(trine_ensemble()), expected, abs_tol=1e-10)


def test_diameter_bound_single_state():
    assert diameter_bound(_single_state_ensemble()) == 0.0


def test_diameter_bound_dominates_chi_random_qubits():
    rng = np.random.default_rng(29)
    for _ in range(20):
        mu = random_ensemble(3, 2, rng)
        assert diameter_bound(mu) >= holevo_quantity(mu) - 1e-8


def test_full_report_trine():
    report = full_report(trine_ensemble())
    assert math.isclose(report.chi, LN2, abs_tol=1e-10)
    assert abs(report.slacks["aux_bound"]) <= 1e-10
    assert math.isclose(report.shannon_bound, 0.5 * LN3 + LN2, abs_tol=1e-10)
    assert math.isclose(
        report.diameter_bound, (math.sqrt(3.0) / 4.0) * LN3 + LN2 - 0.25, abs_tol=1e-10
    )
    assert math.isclose(report.plus_diameter, math.sqrt(3.0) / 2.0, abs_tol=1e-10)
    assert math.isclose(report.pinsker_term, 0.5, abs_tol=1e-10)
    assert set(report.slacks) == set(SLACK_KEYS)


def test_full_report_orthogonal_five():
    report = full_report(orthogonal_ensemble(5))
    assert math.isclose(report.chi, math.log(5.0), abs_tol=1e-10)
    assert abs(report.slacks["aux_bound"]) <= 1e-9


def test_full_report_single_state_all_zeros():
    report = full_report(_single_state_ensemble())
    assert report.chi == 0.0
    assert report.aux_bound == 0.0
    assert report.shannon_bound == 0.0
    assert report.count_bound == 0.0
    assert report.diameter_bound == 0.0
    assert report.plus_diameter == 0.0
    assert report.pinsker_term == 0.0
    assert all(v == 0.0 for v in report.slacks.values())


def test_full_report_identical_states_all_zeros():
    report = full_report(_identical_states_ensemble())
    assert report.chi <= 1e-12
    assert report.aux_bound == 0.0
    assert report.diameter_bound == 0.0


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(_dead_zone_ensemble(), id="dead-zone"),
        pytest.param(_identical_states_ensemble(), id="identical-states"),
        pytest.param(trine_ensemble(), id="trine"),
    ]
    + [
        pytest.param(random_ensemble(m, d, seed), id=f"random-{m}-{d}-{seed}")
        for m, d, seed in ((3, 2, 1), (5, 4, 2), (4, 6, 3))
    ],
)
def test_bound_functions_read_full_report(mu):
    report = full_report(mu)
    assert aux_bound(mu) == (report.aux_bound, report.aux_bound_hvariant)
    assert shannon_bound(mu) == (report.shannon_bound, report.shannon_bound_hvariant)
    assert count_bound(mu) == (
        report.count_bound, report.count_bound - report.hbar + report.h_of_eps_av
    )
    assert diameter_bound(mu) == report.diameter_bound


def test_bound_orderings_random():
    rng = np.random.default_rng(37)
    for _ in range(150):
        m = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 9))
        report = full_report(random_ensemble(m, dim, rng))
        assert report.aux_bound <= report.shannon_bound + 1e-9
        assert report.diameter_bound <= report.shannon_bound + 1e-9
        assert report.shannon_bound <= report.count_bound + 1e-9
        assert report.aux_bound <= report.aux_bound_hvariant + 1e-12
        assert report.shannon_bound <= report.shannon_bound_hvariant + 1e-12
        assert report.hbar <= report.h_of_eps_av + 1e-12
        assert 0.0 <= report.plus_diameter <= 1.0
        assert 0.0 <= report.pinsker_term <= 2.0 + 1e-12
        for key in ("aux_bound", "shannon_bound", "count_bound", "diameter_bound"):
            assert report.slacks[key] >= -1e-8


def test_bounds_sound_for_mixed_rank_members():
    # Ensembles mixing pure and low-rank members stress the Jordan split
    # with rank-deficient differences.
    rng = np.random.default_rng(43)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.ones(m))
        states = tuple(
            random_pure_state(dim, rng)
            if rng.integers(2)
            else random_mixed_state(dim, int(rng.integers(1, dim + 1)), rng)
            for _ in range(m)
        )
        report = full_report(DiscreteEnsemble(probs, states))
        for key in ("aux_bound", "shannon_bound", "count_bound", "diameter_bound"):
            assert report.slacks[key] >= -1e-8
        assert report.average_match_residual <= 1e-9


def test_internal_lemma_slacks_equal_distance_families():
    reports = [full_report(trine_ensemble())]
    reports += [full_report(orthogonal_ensemble(m)) for m in (2, 4)]
    reports += [full_report(cyclic_orbit_ensemble(d, seed=d)) for d in (3, 4)]
    for report in reports:
        assert report.slacks["pinsker_lemma"] >= -1e-8
        assert report.slacks["audenaert_lemma"] >= -1e-8


def _haar_pure_ensemble(m: int, dim: int, seed: int) -> DiscreteEnsemble:
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(m))
    return DiscreteEnsemble(probs, tuple(random_pure_state(dim, rng) for _ in range(m)))


@pytest.mark.parametrize(
    "mu, ceiling",
    [
        # Ceilings are today's counts, each within 2m + 4 + m(m-1)/2.
        # Lower them as the pipeline improves; never raise one silently.
        # Pure members have rank-1 positive parts, so their diameter pairs
        # cost no eigensolve: Haar-pure sits at 2m + 4.  Diagonal operators
        # are solved in closed form: the orthogonal and oscillator ensembles
        # make none, and the trine only for its two non-diagonal members.
        pytest.param(trine_ensemble(), 4, id="trine"),
        pytest.param(random_ensemble(6, 8, 0), 31, id="random-6-8-0"),
        pytest.param(orthogonal_ensemble(8), 0, id="orthogonal-8"),
        pytest.param(_haar_pure_ensemble(7, 5, 4), 18, id="haar-pure-7-5-4"),
        pytest.param(
            oscillator_ensemble(OscillatorEnsembleSpec(0.5))[0], 0, id="oscillator-0.5"
        ),
    ],
)
def test_full_report_eigensolve_budget(monkeypatch, mu, ceiling):
    calls = count_eigensolves(monkeypatch)
    full_report(mu)
    m = mu.size
    assert ceiling <= 2 * m + 4 + m * (m - 1) // 2
    assert len(calls) <= ceiling, f"{len(calls)} eigensolves"


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(random_ensemble(6, 8, 0), id="random-6-8-0"),
        pytest.param(_haar_pure_ensemble(7, 5, 4), id="haar-pure-7-5-4"),
        pytest.param(oscillator_ensemble(OscillatorEnsembleSpec(0.5))[0], id="oscillator-0.5"),
    ],
)
def test_full_report_checks_only_the_averages(monkeypatch, mu):
    # Input is validated once, when mu is built.  A report checks only the
    # three averages (mu's, mu_plus's and mu_minus's), whose spectra need a
    # solve anyway; every difference and Jordan part is derived unchecked.
    calls = count_constructions(monkeypatch)
    full_report(mu)
    assert len(calls) <= 3, calls


def test_degenerate_report_reuses_member_distances(monkeypatch):
    # One solve validates the average and one eigh per member finds the
    # degeneracy; its distances are read from the exception, not re-solved.
    mu = _identical_states_ensemble()
    calls = count_eigensolves(monkeypatch)
    report = full_report(mu)
    assert len(calls) <= 3, f"{len(calls)} eigensolves"
    assert report.eps_av <= 1e-12
    assert report.diameter_bound == 0.0


def _scan_diameter(aux: AuxiliaryDecomposition) -> float:
    """The exhaustive per-pair trace_distance scan, without early exit."""
    taus = aux.tau_plus
    return min(
        1.0,
        max(
            (trace_distance(taus[i], taus[j])
             for i in range(len(taus)) for j in range(i + 1, len(taus))),
            default=0.0,
        ),
    )


def _mixed_rank_ensemble(n_pure: int, n_full: int, dim: int, seed: int) -> DiscreteEnsemble:
    rng = np.random.default_rng(seed)
    states = [random_pure_state(dim, rng) for _ in range(n_pure)]
    states += [random_mixed_state(dim, dim, rng) for _ in range(n_full)]
    return DiscreteEnsemble(rng.dirichlet(np.ones(len(states))), tuple(states))


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(random_ensemble(m, d, seed), id=f"random-{m}-{d}-{seed}")
        for m, d, seed in ((5, 4, 0), (6, 8, 1), (9, 6, 2), (12, 16, 3), (4, 3, 4))
    ]
    + [
        pytest.param(_haar_pure_ensemble(m, d, seed), id=f"haar-pure-{m}-{d}-{seed}")
        for m, d, seed in ((7, 5, 4), (12, 9, 5), (20, 4, 6))
    ]
    + [
        pytest.param(random_ensemble(m, 2, seed), id=f"qubit-{m}-{seed}")
        for m, seed in ((4, 7), (9, 8))
    ]
    + [pytest.param(orthogonal_ensemble(6), id="orthogonal-6")],
)
def test_plus_diameter_matches_exhaustive_scan(mu):
    aux = build_auxiliary(mu)
    assert abs(plus_diameter(aux) - _scan_diameter(aux)) <= 1e-12


def test_plus_diameter_qubit_parts_are_rank_one():
    # rho_i - avg is traceless at d = 2, so every positive part is pure.
    aux = build_auxiliary(random_ensemble(6, 2, 11))
    assert all(vec is not None for vec in aux.plus_vectors)


def test_plus_diameter_runs_both_stages(monkeypatch):
    # 4 pure and 3 full-rank members: the 6 pure pairs come from the Gram
    # matrix and the other 15 from stacked solves, all in one call.
    aux = build_auxiliary(_mixed_rank_ensemble(4, 3, 5, seed=12))
    assert [vec is not None for vec in aux.plus_vectors] == [True] * 4 + [False] * 3
    calls = count_eigensolves(monkeypatch)
    got = plus_diameter(aux)
    assert len(calls) == 21 - 6
    assert abs(got - _scan_diameter(aux)) <= 1e-12


def test_plus_diameter_orthogonal_stops_at_ceiling(monkeypatch):
    aux = build_auxiliary(orthogonal_ensemble(6))
    calls = count_eigensolves(monkeypatch)
    assert plus_diameter(aux) == 1.0
    assert calls == []


def test_plus_diameter_without_vectors_solves_every_pair(monkeypatch):
    aux = dataclasses.replace(build_auxiliary(trine_ensemble()), plus_vectors=(None,) * 3)
    calls = count_eigensolves(monkeypatch)
    assert math.isclose(plus_diameter(aux), math.sqrt(3.0) / 2.0, abs_tol=1e-10)
    assert len(calls) == 3


def _fresh_entropy(mat: np.ndarray) -> float:
    w = np.linalg.eigvalsh(mat)
    w = w[w > 1e-14]
    return max(0.0, float(-(w * np.log(w)).sum()))


def _fresh_chi(probs, mats) -> float:
    avg = sum(p * mat for p, mat in zip(probs, mats))
    members = sum(p * _fresh_entropy(mat) for p, mat in zip(probs, mats))
    return max(0.0, _fresh_entropy(avg) - members)


def _trace_norm(mat: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(mat)).sum())


def _reference_report(mu: DiscreteEnsemble) -> dict:
    """Every BoundReport field from trace_distance and jordan_parts per
    member and fresh eigvalsh entropies; no spectrum kept by a state is
    read, and the diameter scan is exhaustive."""
    probs = mu.probs
    avg = DensityOperator(sum(p * s.mat for p, s in zip(probs, mu.states)))
    eps = np.array([min(trace_distance(s, avg), 1.0) for s in mu.states])
    eps_av = float(probs @ eps)
    hbar = float(sum(p * binary_entropy(e) for p, e in zip(probs, eps)))
    h_av = binary_entropy(min(eps_av, 1.0))
    kept, plus, minus = [], [], []
    for i, state in enumerate(mu.states):
        if eps[i] <= 1e-12:
            continue
        a_plus, a_minus = jordan_parts(state - avg)
        kept.append(i)
        plus.append(a_plus.mat / a_plus.trace())
        minus.append(a_minus.mat / a_minus.trace())
    weights = probs[kept] * eps[kept]
    weights = weights / weights.sum()
    chi = _fresh_chi(probs, [s.mat for s in mu.states])
    chi_plus = _fresh_chi(weights, plus)
    chi_minus = _fresh_chi(weights, minus)
    omega = sum(w * t for w, t in zip(weights, minus))
    residual = _trace_norm(sum(w * t for w, t in zip(weights, plus)) - omega)
    diameter = min(
        1.0,
        max(
            (0.5 * _trace_norm(plus[i] - plus[j])
             for i in range(len(plus)) for j in range(i + 1, len(plus))),
            default=0.0,
        ),
    )
    gaps = np.array([_trace_norm(t - omega) for t in minus])
    pinsker = 0.5 * float(probs[kept] @ gaps**2)
    weight_entropy = shannon_entropy(weights)
    bounds = {
        "aux_bound": eps_av * (chi_plus - chi_minus) + hbar,
        "aux_bound_hvariant": eps_av * (chi_plus - chi_minus) + h_av,
        "shannon_bound": eps_av * weight_entropy + hbar,
        "shannon_bound_hvariant": eps_av * weight_entropy + h_av,
        "count_bound": eps_av * math.log(mu.size) + hbar,
        "diameter_bound": eps_av * diameter * weight_entropy + hbar - eps_av * pinsker,
    }
    slacks = {key: value - chi for key, value in bounds.items()}
    slacks["pinsker_lemma"] = chi_minus - pinsker
    slacks["audenaert_lemma"] = diameter * weight_entropy - chi_plus
    return dict(
        chi=chi,
        chi_plus=chi_plus,
        chi_minus=chi_minus,
        eps_av=eps_av,
        hbar=hbar,
        h_of_eps_av=h_av,
        plus_diameter=diameter,
        pinsker_term=pinsker,
        pinsker_term_reweighted=0.5 * float(weights @ gaps**2),
        average_match_residual=residual,
        slacks=slacks,
        **bounds,
    )


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(random_ensemble(m, d, seed), id=f"random-{m}-{d}-{seed}")
        for m, d, seed in ((3, 2, 1), (6, 8, 0), (5, 4, 2), (8, 6, 3))
    ]
    + [pytest.param(_haar_pure_ensemble(7, 5, 4), id="haar-pure-7-5-4")],
)
def test_full_report_matches_fresh_reference(mu):
    report = full_report(mu)
    reference = _reference_report(mu)
    for field in dataclasses.fields(BoundReport):
        got, want = getattr(report, field.name), reference[field.name]
        if field.name == "slacks":
            assert list(got) == list(want)
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-12, key
        else:
            assert abs(got - want) <= 1e-12, field.name


def _diagonal_mixed_ensemble(m: int, dim: int, seed: int) -> DiscreteEnsemble:
    """Full-support diagonal states: every positive part has rank > 1."""
    rng = np.random.default_rng(seed)
    states = tuple(DensityOperator(np.diag(rng.dirichlet(np.ones(dim)))) for _ in range(m))
    return DiscreteEnsemble(rng.dirichlet(np.ones(m)), states)


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(random_ensemble(6, 8, 0), id="random-6-8-0"),
        pytest.param(random_ensemble(5, 2, 3), id="qubit-5-3"),
        pytest.param(_diagonal_mixed_ensemble(4, 6, 2), id="diagonal-mixed-4-6"),
        pytest.param(_haar_pure_ensemble(3, 6, 1), id="haar-pure-3-6-1"),
        pytest.param(_mixed_rank_ensemble(2, 2, 5, seed=12), id="mixed-rank-2-2-5"),
        pytest.param(
            DiscreteEnsemble(
                np.array([0.3, 0.7]),
                tuple(random_mixed_state(6, 2, seed) for seed in (21, 22)),
            ),
            id="rank-2-of-6",
        ),
    ],
)
def test_handed_over_spectra_match_fresh_eigvalsh(mu):
    # tau_i^(+/-) take their spectra from the member's eigh, not from a
    # solve of their own: compare with one, on LAPACK members, diagonal
    # parts of rank > 1 and members whose differences are rank-deficient.
    aux = build_auxiliary(mu)
    for tau in aux.tau_plus + aux.tau_minus:
        assert not tau.mat.flags.writeable and not tau.spectrum.flags.writeable
        assert np.max(np.abs(tau.spectrum - np.linalg.eigvalsh(tau.mat))) <= 1e-12
        assert abs(tau.spectrum.sum() - 1.0) <= 1e-12


def _rotated(mu: DiscreteEnsemble, seed: int) -> DiscreteEnsemble:
    """U mu U^dag for a seeded Haar-random unitary U."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((mu.dim, mu.dim)) + 1j * rng.standard_normal((mu.dim, mu.dim))
    q, r = np.linalg.qr(g)
    u = q * (r.diagonal() / np.abs(r.diagonal()))
    return DiscreteEnsemble(
        mu.probs, tuple(DensityOperator(u @ s.mat @ u.conj().T) for s in mu.states)
    )


def test_diagonal_mixed_ensemble_reaches_stacked_diameter_stage():
    # No positive part has rank 1, so every diameter pair is solved stacked.
    aux = build_auxiliary(_diagonal_mixed_ensemble(4, 6, 2))
    assert aux.plus_vectors == (None,) * 4
    assert plus_diameter(aux) < 1.0


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(orthogonal_ensemble(8), id="orthogonal-8"),
        pytest.param(oscillator_ensemble(OscillatorEnsembleSpec(1.0))[0], id="oscillator-1"),
        pytest.param(_diagonal_mixed_ensemble(4, 6, 2), id="diagonal-mixed-4-6"),
    ],
)
def test_diagonal_reports_match_dense_path(monkeypatch, mu):
    # Rotating the ensemble changes no report field, and takes every
    # operator off the diagonal: the dense path is the oracle.  The floor
    # on its solves only proves that the dense path ran.
    rotated = _rotated(mu, seed=mu.dim)
    calls = count_eigensolves(monkeypatch)
    report = full_report(mu)
    diagonal_calls = len(calls)
    reference = full_report(rotated)
    assert len(calls) - diagonal_calls >= 2 * mu.size
    for field in dataclasses.fields(BoundReport):
        got, want = getattr(report, field.name), getattr(reference, field.name)
        if field.name == "slacks":
            assert list(got) == list(want)
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-10, key
        else:
            assert abs(got - want) <= 1e-10, field.name
