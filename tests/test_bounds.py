"""Tests for the entropic inequality checker and the four Holevo bounds."""

import dataclasses
import importlib.util
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holevo_bounds.bounds import (
    SLACK_KEYS,
    BoundReport,
    aux_bound,
    count_bound,
    diameter_bound,
    fei_check,
    fei_checks,
    full_report,
    full_reports,
    pinsker_term,
    plus_diameter,
    shannon_bound,
    _upper_pairs,
)
from holevo_bounds.ensemble import (
    EPS_ZERO_TOL,
    AuxiliaryDecomposition,
    DegenerateEnsembleError,
    DiscreteEnsemble,
    build_auxiliary,
    holevo_quantity,
    member_epsilons,
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
from holevo_bounds.entropy import binary_entropy, relative_entropy, shannon_entropy
from holevo_bounds import bounds, ensemble, linalg
from holevo_bounds.linalg import (
    DensityOperator,
    EigensolverError,
    pair_trace_distances,
    trace_distance,
)

from helpers import (
    count_constructions,
    count_derived,
    count_eigensolves,
    count_materializations,
    cyclic_orbit_ensemble,
    diagonal_average_ensemble,
    fail_second_stack,
    jordan_parts,
)

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
    return AuxiliaryDecomposition(
        probs=probs,
        eps=np.full(probs.size, 0.5),
        eps_av=0.5,
        retained=tuple(range(probs.size)),
        weights=weights,
        mu_plus=DiscreteEnsemble(weights, taus_plus),
        mu_minus=mu_minus,
        average_match_residual=0.0,
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


def test_values_only_callers_never_call_eigh(monkeypatch):
    # fei_check and a dense member_epsilons read spectra only: one eigvalsh
    # per dense difference, and no eigh, which also builds eigenvectors.
    rng = np.random.default_rng(3)
    rho, sigma = random_mixed_state(4, 4, rng), random_mixed_state(4, 2, rng)
    mu = random_ensemble(6, 8, 0)
    mu.average
    calls = count_eigensolves(monkeypatch)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    fei_check(rho, sigma)
    assert calls == [4]
    member_epsilons(mu)
    assert calls == [4] + [8] * 6


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
        # cost no eigensolve: Haar-pure sits at 2m + 4.  Ensembles of
        # diagonal members are rows, solved in closed form: the orthogonal
        # and oscillator ensembles make none.  The trine is a stack, so its
        # three members take one member solve each and the three gaps of D
        # one each, |0><0| too.
        pytest.param(trine_ensemble(), 6, id="trine"),
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
def test_full_report_makes_no_checked_construction(monkeypatch, mu):
    # Input is validated once, when mu is built.  Everything a report derives
    # from it (the averages of mu, mu_plus and mu_minus, every difference and
    # Jordan part, and the ensembles mu_plus and mu_minus) is built unchecked.
    calls = count_constructions(monkeypatch)
    full_report(mu)
    assert calls == []


def test_gallery_families_make_no_checked_construction(monkeypatch):
    # The basis-state families are exact by construction: building them and
    # reporting on them checks nothing.
    calls = count_constructions(monkeypatch)
    full_report(orthogonal_ensemble(16))
    full_report(oscillator_ensemble(OscillatorEnsembleSpec(3.0))[0])
    assert calls == []


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


def _is_rank_one(tau: DensityOperator) -> bool:
    """At most one spectrum entry is above PSD_TOL, in whatever order."""
    return bool(np.count_nonzero(tau.spectrum > linalg.PSD_TOL) <= 1)


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
    assert all(_is_rank_one(tau) for tau in aux.tau_plus)


def test_plus_diameter_runs_both_stages(monkeypatch):
    # 4 pure and 3 full-rank members: the 6 pure pairs come from the Gram
    # matrix and the other 15 from stacked solves, all in one call.
    aux = build_auxiliary(_mixed_rank_ensemble(4, 3, 5, seed=12))
    assert [_is_rank_one(tau) for tau in aux.tau_plus] == [True] * 4 + [False] * 3
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
    # Three dense rank-2 parts at d = 3: no Gram stage, one solve per pair.
    taus = [random_mixed_state(3, 2, seed) for seed in (31, 32, 33)]
    assert not any(_is_rank_one(tau) for tau in taus)
    aux = _manual_aux(taus, taus, [1 / 3] * 3, [1 / 3] * 3)
    calls = count_eigensolves(monkeypatch)
    got = plus_diameter(aux)
    assert len(calls) == 3
    assert abs(got - _scan_diameter(aux)) <= 1e-12


def _row_blocks(m: int, block: int) -> list[tuple[int, int]]:
    """The rows [start, stop) of each block of at least `block` pairs of
    np.triu_indices(m, 1), whole rows each, the last block excepted: the
    reference for _upper_pairs with first = _PAIR_BLOCK = block."""
    out, start = [], 0
    while start < m - 1:
        stop, count = start, 0
        while stop < m - 1 and count < block:
            count += m - 1 - stop
            stop += 1
        out.append((start, stop))
        start = stop
    return out


# The first block sizes of _upper_pairs that each test takes, beside the
# patched _PAIR_BLOCK itself: rows start at 64 pairs (bounds._ROW_PAIRS).
_FIRSTS = (1, 5, 64)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 12])
@pytest.mark.parametrize("block", [1, 2, 5, 1 << 15])
def test_upper_pairs_follow_triu_order(monkeypatch, m, block):
    # Blocks of whole rows in triu order: block k holds at least
    # min(first 2^k, _PAIR_BLOCK) pairs, the last excepted, and a first block
    # of _PAIR_BLOCK gives blocks of _PAIR_BLOCK from the first on.
    monkeypatch.setattr(bounds, "_PAIR_BLOCK", block)
    first, second = np.triu_indices(m, 1)
    for start in (*_FIRSTS, block):
        blocks = list(_upper_pairs(m, 0, start))
        assert np.array_equal(np.concatenate([f for f, _ in blocks] or [first]), first)
        assert np.array_equal(np.concatenate([s for _, s in blocks] or [second]), second)
        for k, (f, _) in enumerate(blocks[:-1]):
            assert len(f) >= min(start << k, block)
        for (f, _), (g, _) in zip(blocks, blocks[1:]):
            assert f[-1] < g[0]  # whole rows: no row spans two blocks
    rows = [(int(f[0]), int(f[-1]) + 1) for f, _ in _upper_pairs(m, 0, block)]
    assert rows == _row_blocks(m, block)


@pytest.mark.parametrize("m", [2, 3, 7, 256])
@pytest.mark.parametrize("block", [1, 5, 1 << 15])
def test_upper_pairs_add_the_offset(monkeypatch, m, block):
    monkeypatch.setattr(bounds, "_PAIR_BLOCK", block)
    first, second = np.triu_indices(m, 1)
    for start in (*_FIRSTS, block):
        for offset in (0, 5):
            blocks = list(_upper_pairs(m, offset, start))
            assert all(f.dtype == first.dtype and s.dtype == second.dtype for f, s in blocks)
            assert np.array_equal(np.concatenate([f for f, _ in blocks]), first + offset)
            assert np.array_equal(np.concatenate([s for _, s in blocks]), second + offset)
            for k, (f, _) in enumerate(blocks[:-1]):
                assert len(f) >= min(start << k, block)


def test_multi_block_scan_forms_one_gram_matrix(monkeypatch):
    # 9 pure and 3 full-rank members: a scan in blocks of about 4 pairs
    # forms the Gram matrix of the rank-1 parts once, and gives the
    # single-block diameter bit for bit.
    aux = build_auxiliary(_mixed_rank_ensemble(9, 3, 6, seed=14))
    taus = aux.tau_plus
    assert sum(_is_rank_one(tau) for tau in taus) == 9
    grams = []
    original = linalg.pure_trace_distances

    def counted(vectors):
        grams.append(vectors.shape)
        return original(vectors)

    monkeypatch.setattr(linalg, "pure_trace_distances", counted)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_PAIR_BLOCK", 4)
        blocks = list(_upper_pairs(len(taus), 0, bounds._PAIR_BLOCK))
    assert len(blocks) > 3
    scanned = max(
        float(d.max())
        for _, d in linalg.pair_trace_distances(
            [(aux.mu_plus._members, aux.mu_plus._spectra, iter(blocks))]
        )
    )
    assert grams == [(6, 9)]
    assert scanned == plus_diameter(aux)
    assert len(grams) == 2  # the single-block scan forms its own


def test_plus_diameter_never_holds_every_pair_index():
    # 1,000 orthogonal members reach the ceiling in their first stack, so the
    # scan must not build all m(m-1)/2 index pairs (16 bytes each) first, nor
    # a block of 2^15 pairs: its first block is one row, of 999 pairs, and
    # the peak is its first stack's temporaries (0.43 MB; 1.87 MB when the
    # first block held 2^15 pairs).
    m = 1000
    aux = build_auxiliary(orthogonal_ensemble(m))
    tracemalloc.start()
    try:
        assert plus_diameter(aux) == 1.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75e6, f"peak {peak} bytes"


@pytest.mark.parametrize("case", ["orthogonal-1000", "oscillator-3"])
def test_row_scan_at_the_ceiling_takes_one_block(monkeypatch, case):
    # Diagonal positive parts that reach C = 1 in their first stack: the scan
    # takes one block of _upper_pairs, and no later one is built.
    mu = (orthogonal_ensemble(1000) if case == "orthogonal-1000"
          else oscillator_ensemble(OscillatorEnsembleSpec(3.0))[0])
    aux = build_auxiliary(mu)
    assert aux.mu_plus.diagonals is not None
    taken, original = [], bounds._upper_pairs

    def counted(m, offset, first):
        for pairs in original(m, offset, first):
            taken.append(len(pairs[0]))
            yield pairs

    monkeypatch.setattr(bounds, "_upper_pairs", counted)
    assert plus_diameter(aux) == 1.0
    assert len(taken) == 1 and taken[0] < aux.mu_plus.size * (aux.mu_plus.size - 1) // 2


def _block_supported_ensemble(m: int, block: int, seed: int) -> DiscreteEnsemble:
    """m states of full rank on mutually orthogonal blocks of `block`
    dimensions, each rotated within its block so that none is diagonal:
    every positive part has rank `block` and every pair is at distance 1."""
    rng = np.random.default_rng(seed)
    dim = m * block
    states = []
    for i in range(m):
        g = rng.standard_normal((block, block)) + 1j * rng.standard_normal((block, block))
        mat = np.zeros((dim, dim), dtype=complex)
        mat[i * block:(i + 1) * block, i * block:(i + 1) * block] = g @ g.conj().T
        states.append(DensityOperator(mat / mat.trace().real))
    return DiscreteEnsemble(rng.dirichlet(np.ones(m)), tuple(states))


def _count_in_order_calls(monkeypatch) -> list[int]:
    """Wrap linalg._solved_in_order so that every call appends its worker
    count to the returned list: a call per scan that starts threads."""
    calls: list[int] = []
    original = linalg._solved_in_order

    def counted(solve, tasks, workers):
        calls.append(workers)
        return original(solve, tasks, workers)

    monkeypatch.setattr(linalg, "_solved_in_order", counted)
    return calls


@pytest.mark.parametrize("rows", [None, 48], ids=["default-rows", "48-rows"])
@pytest.mark.parametrize("seed", [0, 1])
def test_worker_stacks_match_one_worker(monkeypatch, rows, seed):
    # 276 pairs at d = 12 take 2 stacks of 171 matrices by default, and 69
    # stacks of 4 at 48 rows.  D's 24 gaps are mu-'s member distances, one
    # member-stage block of 24 matrices, solved on the calling thread.  Two
    # workers must give the values of one, bit for bit, and the exhaustive
    # scan's to 1e-12.
    if rows is not None:
        monkeypatch.setattr(linalg, "_STACK_ROWS", rows)
    mu = random_ensemble(24, 12, seed)
    monkeypatch.setattr(linalg, "_WORKERS", 1)
    single = build_auxiliary(mu)
    expected = (plus_diameter(single), single.minus_gaps)
    monkeypatch.setattr(linalg, "_WORKERS", 2)
    threaded = _count_in_order_calls(monkeypatch)
    aux = build_auxiliary(mu)
    before = threading.active_count()
    assert (plus_diameter(aux), aux.minus_gaps) == expected
    assert threading.active_count() == before
    assert threaded == [2]
    assert abs(expected[0] - _scan_diameter(aux)) <= 1e-12
    for gap, tau in zip(expected[1], aux.tau_minus):
        assert abs(gap - 2.0 * trace_distance(tau, aux.omega)) <= 1e-12
    assert pinsker_term(aux) == pinsker_term(single)


def test_worker_stacks_stop_at_ceiling(monkeypatch):
    # 24 rank-2 parts on orthogonal blocks, d = 48: 276 pairs in 7 stacks of
    # 43.  The first stack reaches the ceiling; the scan returns with at most
    # one more stack solved and no worker left running.
    mu = _block_supported_ensemble(24, 2, seed=5)
    aux = build_auxiliary(mu)
    assert all(not _is_rank_one(tau) and tau.diagonal is None for tau in aux.tau_plus)
    monkeypatch.setattr(linalg, "_WORKERS", 2)
    threaded = _count_in_order_calls(monkeypatch)
    calls = count_eigensolves(monkeypatch)
    before = threading.active_count()
    assert plus_diameter(aux) == 1.0
    assert threading.active_count() == before
    assert threaded == [2]
    assert 43 <= len(calls) <= 2 * 43


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(trine_ensemble(), id="trine"),
        pytest.param(random_ensemble(6, 8, 0), id="random-6-8-0"),
        pytest.param(random_ensemble(12, 16, 1), id="random-12-16-1"),
        pytest.param(orthogonal_ensemble(64), id="orthogonal-64"),
        pytest.param(oscillator_ensemble(OscillatorEnsembleSpec(3.0))[0], id="oscillator-3"),
    ],
)
def test_one_stack_and_diagonal_reports_start_no_thread(monkeypatch, mu):
    # Pairs that fit one dense stack, and stacks of diagonals, are solved
    # on the calling thread.
    monkeypatch.setattr(linalg, "_WORKERS", 2)
    threaded = _count_in_order_calls(monkeypatch)
    full_report(mu)
    assert threaded == []


def test_worker_failure_is_an_eigensolver_error(monkeypatch):
    # The second stacked solve raises LinAlgError on a worker thread.
    mu = random_ensemble(24, 12, 0)
    aux = build_auxiliary(mu)
    monkeypatch.setattr(linalg, "_WORKERS", 2)
    monkeypatch.setattr(linalg, "_STACK_ROWS", 48)
    stacked = fail_second_stack(monkeypatch)
    before = threading.active_count()
    with pytest.raises(EigensolverError, match="stacked eigenvalue computation failed"):
        plus_diameter(aux)
    assert threading.active_count() == before
    assert len(stacked) < 69


@pytest.mark.parametrize("workers", [1, 2])
def test_member_failure_in_a_later_block_names_the_member(monkeypatch, workers):
    # Member stage blocks of two matrices: member 5's slice of the third
    # stacked eigh gets eigenvectors scaled by 1.5, so its residual is
    # ||2.25 V^dag V - I||_max = 1.25.  Two workers solve the blocks on
    # threads, and are joined before the error reaches the caller.
    mu = random_ensemble(6, 8, 0)
    target = mu.matrices[5] - mu.average.mat
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 2 * 16 * 8 * 8)
    monkeypatch.setattr(linalg, "_STACK_ROWS", 1)
    monkeypatch.setattr(linalg, "_WORKERS", workers)
    threaded = _count_in_order_calls(monkeypatch)
    stacks = []

    def member_five_inaccurate(a, *args, _eigh=np.linalg.eigh, **kwargs):
        stacks.append(len(a))
        w, v = _eigh(a, *args, **kwargs)
        for k, mat in enumerate(a):
            if np.array_equal(mat, target):
                v[k] *= 1.5
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", member_five_inaccurate)
    before = threading.active_count()
    pattern = r"^member 5: eigendecomposition residual 1\.250e\+00"
    with pytest.raises(EigensolverError, match=pattern) as exc:
        build_auxiliary(mu)
    assert threading.active_count() == before
    assert stacks == [2, 2, 2]
    assert threaded == ([] if workers == 1 else [2])
    assert exc.value.dim == 8
    assert exc.value.residual == pytest.approx(1.25, abs=1e-12)


def _report_values(mu: DiscreteEnsemble) -> tuple:
    """Every BoundReport field and every D gap of `mu`."""
    report = full_report(mu)
    fields = [getattr(report, field.name) for field in dataclasses.fields(report)]
    return fields, build_auxiliary(mu).minus_gaps


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(random_ensemble(20, 32, 1), id="random-20-32-1"),
        pytest.param(trine_ensemble(), id="trine"),
        pytest.param(diagonal_average_ensemble(4, 0), id="diagonal-average"),
    ],
)
def test_member_blocks_match_default_blocking(monkeypatch, mu):
    # Member stage blocks of one matrix, or of a size that splits m
    # unevenly, solved on one worker or on two, give every report field, D
    # gap and member distance of the default blocking (four matrices a block
    # at d = 32, one block at smaller d) bit for bit, and so does fei_check
    # on a pair of dense members.  The diagonal-average ensemble's exactly
    # diagonal members take their solves in the blocks like the others.
    m, d = mu.size, mu.dim
    pair = tuple(state for state in mu.states if state.diagonal is None)[:2]
    expected = _report_values(mu), fei_check(*pair), member_epsilons(mu)[0]
    monkeypatch.setattr(linalg, "_STACK_ROWS", 1)
    for matrices in (1, 2 if m % 2 else 3):
        assert matrices == 1 or m % matrices
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", matrices * 16 * d * d)
        for workers in (1, 2):
            monkeypatch.setattr(linalg, "_WORKERS", workers)
            threaded = _count_in_order_calls(monkeypatch)
            build_auxiliary(mu)
            assert threaded == ([] if workers == 1 else [2])
            values, fei, eps = _report_values(mu), fei_check(*pair), member_epsilons(mu)[0]
            assert values == expected[0] and fei == expected[1]
            assert np.array_equal(eps, expected[2])


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
        a_plus, a_minus = jordan_parts((state - avg).mat)
        kept.append(i)
        plus.append(a_plus / np.trace(a_plus).real)
        minus.append(a_minus / np.trace(a_minus).real)
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
        assert np.max(np.abs(np.sort(tau.spectrum) - np.linalg.eigvalsh(tau.mat))) <= 1e-12
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


def test_diagonal_mixed_ensemble_reaches_stacked_diameter_stage(monkeypatch):
    # No positive part has rank 1, so no diameter pair comes from the Gram
    # matrix: every pair takes the stacked stage, whose chunks of diagonal
    # differences are L1 norms and cost no eigensolve.
    aux = build_auxiliary(_diagonal_mixed_ensemble(4, 6, 2))
    assert not any(_is_rank_one(tau) for tau in aux.tau_plus)
    calls = count_eigensolves(monkeypatch)
    assert plus_diameter(aux) < 1.0
    assert calls == []


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(orthogonal_ensemble(8), id="orthogonal-8"),
        pytest.param(oscillator_ensemble(OscillatorEnsembleSpec(1.0))[0], id="oscillator-1"),
        pytest.param(oscillator_ensemble(OscillatorEnsembleSpec(3.0))[0], id="oscillator-3"),
        pytest.param(_diagonal_mixed_ensemble(4, 6, 2), id="diagonal-mixed-4-6"),
        # One diagonal member and two dense ones around a diagonal average:
        # the report mixes vector and matrix operators.
        pytest.param(trine_ensemble(), id="trine"),
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
    _assert_reports_match(report, reference, 1e-10)


def _assert_reports_match(report: BoundReport, reference: BoundReport, tol: float) -> None:
    """Every field and slack of `report` within `tol` of `reference`'s."""
    for field in dataclasses.fields(BoundReport):
        got, want = getattr(report, field.name), getattr(reference, field.name)
        if field.name == "slacks":
            assert list(got) == list(want)
            for key in want:
                assert abs(got[key] - want[key]) <= tol, key
        else:
            assert abs(got - want) <= tol, field.name


@st.composite
def _diagonal_ensembles(draw) -> DiscreteEnsemble:
    """Ensembles of m, d in 1..12 diagonal members, whose entries and
    probabilities are small integers over their sums: zero entries are exact
    and no difference lies near a tolerance.  Some have a duplicated member,
    a member equal to the average (inside the dead zone), or only identical
    members (degenerate)."""
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    counts = st.lists(st.integers(0, 3), min_size=d, max_size=d).filter(any)
    rows = np.array([draw(counts) for _ in range(m)], dtype=float)
    rows /= rows.sum(axis=1, keepdims=True)
    probs = np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), dtype=float)
    probs /= probs.sum()
    kind = draw(st.sampled_from(["plain", "duplicate", "average", "identical"]))
    if kind == "duplicate" and m > 1:
        rows[draw(st.integers(1, m - 1))] = rows[0]
    elif kind == "average" and m > 1:
        rows[0] = probs[1:] @ rows[1:] / probs[1:].sum()
    elif kind == "identical":
        rows[:] = rows[0]
    return DiscreteEnsemble(probs, tuple(DensityOperator.from_diagonal(row) for row in rows))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_diagonal_ensembles())
def test_diagonal_stage_matches_dense_path_on_drawn_ensembles(mu):
    # The whole-array stage of a diagonal ensemble against the per-member
    # dense path on its rotation: every report field and D gap, or, on a
    # degenerate ensemble, the distances the error carries.
    rotated = _rotated(mu, seed=mu.dim)
    assert mu.diagonals is not None
    assert rotated.diagonals is None or mu.dim == 1
    _assert_reports_match(full_report(mu), full_report(rotated), 1e-10)
    try:
        aux = build_auxiliary(mu)
    except DegenerateEnsembleError as exc:
        with pytest.raises(DegenerateEnsembleError) as reference:
            build_auxiliary(rotated)
        assert abs(exc.eps_av - reference.value.eps_av) <= 1e-10
        assert np.max(np.abs(exc.eps - reference.value.eps)) <= 1e-10
        return
    reference = build_auxiliary(rotated)
    assert aux.retained == reference.retained
    assert np.max(np.abs(np.subtract(aux.minus_gaps, reference.minus_gaps))) <= 1e-10


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(oscillator_ensemble(OscillatorEnsembleSpec(10.0))[0], id="oscillator-10"),
        pytest.param(orthogonal_ensemble(64), id="orthogonal-64"),
    ],
)
def test_commuting_report_builds_no_matrix(monkeypatch, mu):
    # Every member is kept as its diagonal, and so is every operator the
    # report derives: no d x d matrix, no eigensolve, and no check.
    assert all(state.diagonal is not None for state in mu.states)
    builds = count_materializations(monkeypatch)
    solves = count_eigensolves(monkeypatch)
    checks = count_constructions(monkeypatch)
    full_report(mu)
    assert builds == []
    assert solves == []
    assert checks == []


@pytest.mark.parametrize(
    "small, large",
    [
        pytest.param(orthogonal_ensemble(16), orthogonal_ensemble(64), id="orthogonal-16-64"),
        pytest.param(
            oscillator_ensemble(OscillatorEnsembleSpec(3.0))[0],
            oscillator_ensemble(OscillatorEnsembleSpec(10.0))[0],
            id="oscillator-3-10",
        ),
    ],
)
def test_commuting_report_derives_no_member_object(monkeypatch, small, large):
    # A row-backed ensemble, its mu+ and its mu- hold their members as
    # arrays: a report builds the same few derived objects (averages,
    # ensembles, differences) whatever the number of members.
    calls = count_derived(monkeypatch)
    counts = []
    for mu in (small, large):
        del calls[:]
        full_report(mu)
        counts.append(len(calls))
    assert large.size > 2 * small.size
    assert counts[0] == counts[1] < small.size, counts


def test_batch_derives_no_object_per_ensemble(monkeypatch):
    # A batch's per-ensemble values are arrays over its group, and each
    # report is built from them at the end: 100 small dense ensembles derive
    # no more operators, states or ensembles than 10 do.
    calls = count_derived(monkeypatch)
    counts = []
    for count in (10, 100):
        mus = [random_ensemble(4, 5, seed) for seed in range(count)]
        del calls[:]
        full_reports(mus)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_ensembles_get_their_diagonals_three_ways():
    # The gallery keeps the np.eye whose rows are its members; build_auxiliary
    # keeps the arrays whose rows are tau_i^(+/-); an ensemble of
    # from_diagonal members stacks its members' diagonals when it is built.
    # A row-backed ensemble builds its states on their first read, as
    # read-only views of its rows, and keeps them; aux reads its tau_i^(+/-)
    # and omega through mu+ and mu-.  The reports agree bit for bit.
    for mu in (orthogonal_ensemble(16), oscillator_ensemble(OscillatorEnsembleSpec(3.0))[0]):
        aux = build_auxiliary(mu)
        for ensemble in (mu, aux.mu_plus, aux.mu_minus):
            rows = ensemble.diagonals
            assert rows.shape == (ensemble.size, ensemble.dim) and not rows.flags.writeable
            assert "states" not in vars(ensemble)
            states = ensemble.states
            assert ensemble.states is states and len(states) == ensemble.size
            for row, s in zip(rows, states):
                assert np.shares_memory(s.diagonal, row) and np.array_equal(s.diagonal, row)
                assert not s.diagonal.flags.writeable and s.spectrum is s.diagonal
        assert aux.tau_plus is aux.mu_plus.states and aux.tau_minus is aux.mu_minus.states
        assert aux.omega is aux.mu_minus.average
        stacked = DiscreteEnsemble(
            mu.probs, tuple(DensityOperator.from_diagonal(s.diagonal) for s in mu.states)
        )
        assert "diagonals" in vars(stacked)
        assert np.array_equal(stacked.diagonals, mu.diagonals)
        assert not np.shares_memory(stacked.diagonals, stacked.states[0].diagonal)
        _assert_reports_match(full_report(stacked), full_report(mu), 0.0)
        assert build_auxiliary(stacked).minus_gaps == aux.minus_gaps
    # One member of the trine is diagonal and two are dense: it is a stack,
    # which every stage treats as dense
    # (test_full_report_eigensolve_budget[trine]).
    trine = trine_ensemble()
    assert trine.states[0].diagonal is not None and trine.diagonals is None


def _diagonal_pairs():
    rng = np.random.default_rng(41)
    pairs = []
    for dim in (2, 3, 5, 8):
        rho, sigma = (rng.dirichlet(np.ones(dim)) for _ in range(2))
        pairs.append((rho, sigma))
    rho = rng.dirichlet(np.ones(4))
    pairs.append((np.r_[rho[:3], 0.0] / rho[:3].sum(), rho))  # supp(rho) in supp(sigma)
    pairs.append((np.array([0.0, 0.3, 0.7]), np.array([0.5, 0.5, 0.0])))  # not: S = inf
    pairs.append((np.array([0.2, 0.8]), np.array([0.2, 0.8])))  # the dead zone
    return pairs


@pytest.mark.parametrize("rho, sigma", _diagonal_pairs())
def test_diagonal_pairs_match_their_rotations(rho, sigma):
    # fei_check and relative_entropy on operators kept as diagonals, against
    # the dense path on the same pair in a rotated basis.
    pair = DiscreteEnsemble(
        np.array([0.5, 0.5]),
        (DensityOperator.from_diagonal(rho), DensityOperator.from_diagonal(sigma)),
    )
    rotated = _rotated(pair, seed=len(rho))
    assert all(s.diagonal is not None for s in pair.states)
    assert all(s.diagonal is None for s in rotated.states)
    got, want = fei_check(*pair.states), fei_check(*rotated.states)
    for field in dataclasses.fields(got):
        assert abs(getattr(got, field.name) - getattr(want, field.name)) <= 1e-12, field.name
    got_s, want_s = relative_entropy(*pair.states), relative_entropy(*rotated.states)
    assert got_s == want_s or abs(got_s - want_s) <= 1e-12


def _load_checker():
    """benchmarks/checker.py, the numpy-only reference that shares no code
    with the package, loaded from its file without importing `benchmarks`."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "checker.py"
    spec = importlib.util.spec_from_file_location("_benchmark_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()

# The member kinds that a representation or method path keys on.
_MEMBER_KINDS = ("basis", "diagonal", "pure", "low-rank", "full-rank", "rotated", "repeat")


@st.composite
def _mixed_kind_ensembles(draw, dims=(3, 2, 4, 5, 6, 1)) -> DiscreteEnsemble:
    """Ensembles of 2-7 members at d in `dims` that mix every member kind a
    path keys on: diagonal basis states and diagonal mixed states (kept as
    vectors), dense pure states (the rank-1 Gram closed form), dense
    low-rank and full-rank Ginibre states, dense rotations of diagonal
    states by one unitary shared by the ensemble (dense but commuting), and
    repeats of earlier members.  Probabilities are small integers over
    their sum, so members tie.  Some ensembles gain a last member equal to
    the average of the others, which leaves the average unchanged and so
    lies in the dead zone; some gain that average plus a traceless Hermitian
    perturbation of norm 1e-11, whose distance to the average exceeds
    EPS_ZERO_TOL while every eigenvalue of its difference lies below
    PSD_TOL, so that the dead zone drops it by its parts' traces alone."""
    dim = draw(st.sampled_from(dims))
    kinds = draw(st.lists(st.sampled_from(_MEMBER_KINDS), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary = np.linalg.qr(g)[0]
    states = []
    for kind in kinds:
        if kind == "repeat" and states:
            states.append(states[rng.integers(len(states))])
        elif kind in ("diagonal", "rotated"):
            entries = rng.integers(0, 3, dim).astype(float)
            entries[rng.integers(dim)] += 1.0
            entries /= entries.sum()
            if kind == "diagonal":
                states.append(DensityOperator.from_diagonal(entries))
            else:
                states.append(DensityOperator((unitary * entries) @ unitary.conj().T))
        elif kind == "pure":
            states.append(random_pure_state(dim, rng))
        elif kind in ("low-rank", "full-rank"):
            rank = dim if kind == "full-rank" else int(rng.integers(1, max(dim - 1, 1) + 1))
            states.append(random_mixed_state(dim, rank, rng))
        else:  # a basis state, or a repeat with nothing to repeat yet
            states.append(DensityOperator.from_diagonal(np.eye(dim)[rng.integers(dim)]))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(states), max_size=len(states)))
    probs = np.array(counts, dtype=float) / sum(counts)
    last = draw(st.sampled_from((None, "average", "near-average")))
    if last is not None:
        centre = sum(p * s.mat for p, s in zip(probs, states))
        if last == "near-average":
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = h + h.conj().T - np.trace(h + h.conj().T).real / dim * np.eye(dim)
            norm = np.abs(np.linalg.eigvalsh(h)).max()
            centre = centre + (1e-11 / norm if norm > 0 else 0.0) * h
        states.append(DensityOperator(centre))
        counts.append(draw(st.integers(1, 3)))
        probs = np.array(counts, dtype=float) / sum(counts)
    return DiscreteEnsemble(probs, tuple(states))


@settings(derandomize=True, deadline=None)
@given(_mixed_kind_ensembles(), st.booleans())
def test_drawn_ensembles_match_independent_checker(mu, worker_stacks):
    # Every report field and slack against benchmarks/checker's numpy-only
    # reference on the dense matrices, and degeneracy exactly when the
    # checker finds no member outside the dead zone, or (a test the checker
    # does not make) a mean member distance at most EPS_ZERO_TOL.  Half the
    # draws solve their member stage blocks and dense pair stacks one matrix
    # at a time on two worker threads.
    mats = np.stack([state.mat for state in mu.states])
    try:
        reference = checker.reference_report(mu.probs, mats, dense=True)
    except ValueError:
        reference = None
    if reference is None or reference["eps_av"] <= EPS_ZERO_TOL:
        with pytest.raises(DegenerateEnsembleError):
            build_auxiliary(mu)
        return
    with pytest.MonkeyPatch.context() as patch:
        if worker_stacks:
            patch.setattr(linalg, "_STACK_ROWS", 1)
            patch.setattr(linalg, "_BLOCK_BYTES", 1)
            patch.setattr(linalg, "_WORKERS", 2)
        report = full_report(mu)
    for field in dataclasses.fields(BoundReport):
        if field.name == "slacks":
            assert list(report.slacks) == list(reference["slacks"])
            for key, want in reference["slacks"].items():
                assert abs(report.slacks[key] - want) <= 1e-9, key
        else:
            assert abs(getattr(report, field.name) - reference[field.name]) <= 1e-9, field.name


@settings(derandomize=True, deadline=None)
@given(st.lists(_mixed_kind_ensembles(), min_size=1, max_size=6))
def test_batched_reports_match_one_at_a_time(mus):
    # full_reports groups the ensembles by dimension and member kind and runs
    # each stage once per group, over their arrays end to end, the pairs of
    # C and D of all its ensembles in one pass each.  Every field equals that
    # of each ensemble's report alone, degenerate and dead-zone ensembles
    # included, and the batch solves as many matrices as its ensembles alone.
    for mu in mus:
        mu.average  # built before anything is counted
    with pytest.MonkeyPatch.context() as patch:
        calls = count_eigensolves(patch)
        batch = full_reports(mus)
        batched = len(calls)
        del calls[:]
        alone = [full_report(mu) for mu in mus]
        assert len(calls) == batched
    # Within 1e-12, and in fact bit for bit: every value is reduced from its
    # own ensemble's rows in its own order.
    for report, want in zip(batch, alone):
        assert _fields(report) == _fields(want)


def test_batch_of_diagonal_and_dense_centres_matches_each_alone():
    # Two stacks of one dimension in one member stage: the first ensemble's
    # average is diagonal, the second's is not.  Every member of a stack,
    # |0><0| too, takes an eigensolve, in the batch as alone.
    zero, one = DensityOperator.from_pure([1.0, 0.0]), DensityOperator.from_pure([0.0, 1.0])
    plus = DensityOperator.from_pure([1.0, 1.0])
    minus = DensityOperator.from_pure([1.0, -1.0])
    diagonal = DiscreteEnsemble(np.full(4, 0.25), (plus, minus, zero, one))
    dense = DiscreteEnsemble(np.array([0.5, 0.5]), (zero, plus))
    assert diagonal.matrices is not None and dense.matrices is not None
    assert diagonal.average.diagonal is not None and dense.average.diagonal is None
    batch = full_reports([diagonal, dense])
    assert [_fields(report) for report in batch] == [
        _fields(full_report(diagonal)), _fields(full_report(dense))]


@settings(derandomize=True, deadline=None)
@given(
    st.lists(_mixed_kind_ensembles(dims=(6,)), max_size=4), st.integers(0, 4), st.integers(0, 99)
)
def test_batched_scans_stop_inside_stacks_of_their_own(mus, at, seed):
    # At d = 6, stacks of 2 matrix differences and of 3 diagonal ones: an
    # array of more pairs is cut into stacks of its own, next to the shared
    # stacks of the drawn ensembles' small arrays.  Three rank-2 parts on
    # orthogonal blocks (3 dense pairs, 2 stacks) and six basis states (15
    # diagonal pairs, 5 stacks) put C at 1 in their first stack, so their
    # scans stop there, inside their own stacks.  Every report equals its
    # ensemble's alone, bit for bit, and the batch solves as many matrices.
    mus = list(mus)
    blocks = min(at, len(mus))
    mus.insert(blocks, _block_supported_ensemble(3, 2, seed))
    basis = blocks + 1
    mus.insert(basis, orthogonal_ensemble(6))
    for mu in mus:
        mu.average  # built before anything is counted
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_STACK_ROWS", 2 * 6)
        patch.setattr(linalg, "_STACK_BYTES", 3 * 8 * 6)
        calls = count_eigensolves(patch)
        batch = full_reports(mus)
        batched = len(calls)
        del calls[:]
        alone = [full_report(mu) for mu in mus]
        assert len(calls) == batched
    for report, want in zip(batch, alone):
        assert _fields(report) == _fields(want)
    assert batch[blocks].plus_diameter >= 1.0 - 1e-12 and batch[basis].plus_diameter == 1.0


def _late_pair_ensemble(m: int, x: int, y: int, orthogonal: bool, seed: int) -> DiscreteEnsemble:
    """m diagonal states at d = 8 whose positive parts overlap pairwise but
    for members x and y, which are orthogonal when `orthogonal` is set.

    The other members have entries 1/4 at 0 and 1, none at 2 and 3, and
    random ones after; x is (1/4, 0, 3/4, 0, ...) and y (0, 1/4, 0, 3/4, ...)
    or, unless `orthogonal`, (0, 1/4, 3/4, 0, ...).  The others lie above the
    average at 0 and 1, x at 0 and 2, and y at 1 and 3 (or 2), so C = 1 at
    the pair (x, y) alone, and otherwise C < 1."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((m, 8))
    rows[:, :2] = 0.25
    rows[:, 4:] = 0.5 * rng.dirichlet(np.ones(4), size=m)
    rows[x] = [0.25, 0.0, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0]
    rows[y] = [0.0, 0.25, 0.0, 0.75, 0.0, 0.0, 0.0, 0.0] if orthogonal else [
        0.0, 0.25, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0]
    counts = rng.integers(1, 4, size=m)
    return DiscreteEnsemble(counts / counts.sum(), tuple(map(DensityOperator.from_diagonal, rows)))


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(3, 40), st.integers(0, 39), st.integers(0, 39),
                          st.booleans(), st.integers(0, 99)), min_size=1, max_size=4))
def test_batched_row_scans_match_each_alone(draws):
    # Diagonal ensembles of d = 8 and different m, with one dense one: the
    # rows' scans start at _ROW_PAIRS pairs and double, the matrices' take
    # _PAIR_BLOCK from the first block.  An orthogonal pair (x, y) puts C = 1
    # in the block that holds it, often past the first, and the scan takes
    # no block after it; without it C < 1 and the scan takes every block.
    # Every report equals its ensemble's alone, bit for bit, and every C is
    # within 1e-12 of the exhaustive scans.
    mus, late = [], []
    for m, x, y, orthogonal, seed in draws:
        x, y = sorted((x % m, y % m))
        y = y if y > x else (x + 1) % m
        mus.append(_late_pair_ensemble(m, x, y, orthogonal, seed))
        late.append((min(x, y), max(x, y)) if orthogonal else None)
    mus.append(random_ensemble(5, 8, draws[0][4]))
    taken = {}  # each scan's (first, blocks taken) by its offset and kind
    original = bounds._upper_pairs

    def counted(m, offset, first):
        key = (offset, first)
        taken[key] = [first, 0]
        for pairs in original(m, offset, first):
            taken[key][1] += 1
            yield pairs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_upper_pairs", counted)
        batch = full_reports(mus)
    assert sorted(first for first, _ in taken.values()) == (
        [bounds._ROW_PAIRS] * len(draws) + [bounds._PAIR_BLOCK])
    offset = 0
    for mu, report, pair in zip(mus, batch, late):
        assert _fields(report) == _fields(full_report(mu))
        aux = build_auxiliary(mu)
        assert aux.mu_plus.diagonals is not None and aux.mu_plus.size == mu.size
        assert abs(report.plus_diameter - _scan_diameter(aux)) <= 1e-12
        blocks = list(original(mu.size, 0, bounds._ROW_PAIRS))
        every = pair_trace_distances([(aux.mu_plus._members, aux.mu_plus._spectra, blocks)])
        assert abs(report.plus_diameter - min(1.0, max(d.max() for _, d in every))) <= 1e-12
        if pair is None:
            assert report.plus_diameter < 1.0 - 1e-12
            want = len(blocks)
        else:
            assert report.plus_diameter >= 1.0 - 1e-12
            want = next(k for k, (f, _) in enumerate(blocks) if f[-1] >= pair[0]) + 1
        assert taken[(offset, bounds._ROW_PAIRS)][1] == want
        offset += mu.size


def test_failed_pair_stack_names_its_pair(monkeypatch):
    # LAPACK fails on one pair difference of C's stack and on one member
    # difference of D's (tau_2^- - omega), in the stack and alone: the stack
    # is solved again one matrix at a time, and the error names the pair, or
    # for D, mu-'s member.
    aux = build_auxiliary(random_ensemble(6, 8, 0))
    plus, minus = aux.mu_plus.matrices, aux.mu_minus.matrices
    targets = [plus[1] - plus[3], minus[2] - aux.omega.mat]
    original = np.linalg.eigvalsh

    def pair_fails(a, *args, **kwargs):
        for mat in np.reshape(a, (-1, 8, 8)):
            if any(np.array_equal(mat, target) for target in targets):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", pair_fails)
    pattern = r"^pair \(1, 3\): eigenvalue computation failed at dim 8"
    with pytest.raises(EigensolverError, match=pattern):
        plus_diameter(aux)
    pattern = r"^member 2: eigenvalue computation failed at dim 8"
    with pytest.raises(EigensolverError, match=pattern):
        aux.minus_gaps


def test_failed_member_solve_in_a_batch_names_its_member(monkeypatch):
    # LAPACK fails on member 2 of the second ensemble of a batch, in the
    # batch's stacked member stage and alone: the error names the member by
    # its index in its own ensemble.
    mus = [random_ensemble(4, 3, 1), random_ensemble(5, 3, 2)]
    for mu in mus:
        mu.average
    target = mus[1].matrices[2] - mus[1].average.mat
    original = np.linalg.eigh

    def member_fails(a, *args, **kwargs):
        if any(np.array_equal(mat, target) for mat in np.reshape(a, (-1, 3, 3))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", member_fails)
    with pytest.raises(EigensolverError, match="^member 2: eigendecomposition failed at dim 3"):
        full_reports(mus)


def _dense_ensemble_of_diagonal_parts(seed: int) -> DiscreteEnsemble:
    """A dense ensemble at d = 3 about a diagonal average whose retained
    parts are all diagonal: its two dense members lie in the dead zone
    (their off-diagonal entries cancel in the average and are below
    PSD_TOL).  It is a stack, so its mu+ and mu- are stacks too."""
    rng = np.random.default_rng(seed)
    diagonals, probs = rng.dirichlet(np.ones(3), size=5), rng.dirichlet(np.ones(5))
    centre = np.diag(probs @ diagonals).astype(complex)
    off = np.zeros((3, 3), dtype=complex)
    off[0, 2] = off[2, 0] = 1e-11
    states = [DensityOperator.from_diagonal(row) for row in diagonals]
    states += [DensityOperator(centre + off), DensityOperator(centre - off)]
    return DiscreteEnsemble(np.append(0.8 * probs, [0.1, 0.1]), tuple(states))


@pytest.mark.parametrize("seed", range(6))
def test_stack_of_diagonal_parts_keeps_stacked_parts(seed):
    # A stack whose retained parts are all diagonal keeps its mu+ and mu- as
    # stacks, and every stage takes them as dense: its report matches its
    # rotation's, and in a batch with a dense ensemble each report equals
    # its ensemble's alone, bit for bit.
    mu = _dense_ensemble_of_diagonal_parts(seed)
    aux = build_auxiliary(mu)
    assert mu.matrices is not None and len(aux.retained) == 5
    assert all(tau.diagonal is not None for tau in aux.tau_plus + aux.tau_minus)
    assert aux.mu_plus.matrices is not None and aux.mu_minus.matrices is not None
    report = full_report(mu)
    _assert_reports_match(report, full_report(_rotated(mu, seed)), 1e-10)
    mus = [random_ensemble(3, 3, seed), mu]
    batch = full_reports(mus)
    assert _fields(batch[1]) == _fields(report)
    assert _fields(batch[0]) == _fields(full_report(mus[0]))


@settings(derandomize=True, deadline=None)
@given(st.lists(_mixed_kind_ensembles(), max_size=4), st.integers(0, 99))
def test_minus_gaps_are_twice_member_distances_of_mu_minus(mus, seed):
    # omega is mu-'s average, so each gap ||tau_i^- - omega||_1 of D is
    # twice the member distance of tau_i^- in mu-, bit for bit.  The drawn
    # ensembles are joined by a dense one, a diagonal one and a dense one
    # whose retained parts are all diagonal.  The identity holds for the
    # gaps that build_auxiliary's decomposition computes, for those of a
    # decomposition built by hand, whose mu- is checked from its states, and
    # for those that one full_reports batch computes from its group arrays,
    # which equal those of each ensemble alone.
    mus = [*mus, random_ensemble(4, 3, seed), orthogonal_ensemble(2 + seed % 5),
           _dense_ensemble_of_diagonal_parts(seed)]
    auxes = []
    for mu in mus:
        try:
            auxes.append(build_auxiliary(mu))
        except DegenerateEnsembleError:
            auxes.append(None)
    assert [aux.mu_minus.diagonals is None for aux in auxes[-3:]] == [True, False, True]
    for aux in filter(None, auxes):
        assert aux.minus_gaps == tuple(2 * member_epsilons(aux.mu_minus)[0])
        manual = _manual_aux(aux.tau_plus, aux.tau_minus, aux.probs[list(aux.retained)],
                             aux.weights)
        assert "states" in vars(manual.mu_minus)
        assert manual.minus_gaps == tuple(2 * member_epsilons(manual.mu_minus)[0])
        assert np.allclose(manual.minus_gaps, aux.minus_gaps, rtol=0.0, atol=1e-12)
    groups = []  # each group of the batch, its arrays, and the gaps D took from them

    def kept(group):
        groups.append([group, ensemble._auxiliaries(group), None])
        return groups[-1][1]

    def gaps_of(*arrays):
        groups[-1][2] = ensemble._minus_gaps(*arrays)
        return groups[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_auxiliaries", kept)
        patch.setattr(bounds, "_minus_gaps", gaps_of)
        batch = full_reports(mus)
    assert sum(len(group) for group, _, _ in groups) == len(mus)
    for report, mu in zip(batch, mus):
        assert _fields(report) == _fields(full_report(mu))
    # full_reports groups the ensembles; match each one's mu- by its eps.
    alone = {tuple(aux.eps.tolist()): aux for aux in filter(None, auxes)}
    for group, parts, all_gaps in groups:
        starts = np.cumsum([0] + [mu.size for mu in group])
        for k, e in enumerate(parts.live):
            a, b = parts.cuts[k], parts.cuts[k + 1]
            mu_minus = ensemble._from_rows(
                parts.weights[a:b], parts.minus_rows[a:b], parts.minus[a:b],
                average=ensemble._row_state(parts.omega_spectra[k], parts.omegas[k]))
            gaps = tuple(all_gaps[a:b].tolist())
            assert gaps == tuple(2 * member_epsilons(mu_minus)[0])
            assert gaps == alone[tuple(parts.eps[starts[e]:starts[e + 1]].tolist())].minus_gaps


def test_fei_checks_batch_matches_each_pair_alone():
    # One batch of diagonal pairs, dense pairs and mixed ones at d = 3 and
    # d = 5, with an identical pair (the dead zone) between kept ones of
    # each group: each kept pair reads its own row of the group's member
    # stage, and every report equals fei_check of its pair alone, bit for
    # bit.
    rng = np.random.default_rng(7)
    pairs = []
    for dim in (3, 5):
        diagonal = [DensityOperator.from_diagonal(rng.dirichlet(np.ones(dim))) for _ in range(3)]
        dense = [random_mixed_state(dim, dim, rng) for _ in range(3)]
        pairs += [(diagonal[0], diagonal[1]), (dense[0], dense[1]), (diagonal[2], diagonal[2]),
                  (dense[2], dense[2]), (diagonal[1], diagonal[0]), (dense[1], dense[2]),
                  (diagonal[0], dense[2])]
    batch = fei_checks(pairs)
    assert batch == [fei_check(*pair) for pair in pairs]
    dead = [report.eps == report.slack == 0.0 for report in batch]
    assert dead == [False, False, True, True, False, False, False] * 2


def test_pooled_pairs_match_each_scan():
    # Pure members' positive parts have rank 1, so their pairs take the Gram
    # closed form; an entry of a Gram matrix depends on the matrix's size in
    # its last bits, so each array of a pass over several keeps its own
    # table.  Every distance of that pass is its own scan's, bit for bit.
    mus = [_haar_pure_ensemble(m, 8, seed) for seed, m in enumerate((9, 12, 4, 11))]
    mus += [random_ensemble(5, 8, 1), diagonal_average_ensemble(8, 2)]
    parts = [build_auxiliary(mu).mu_plus for mu in mus]
    arrays, start = [], 0  # each array's pairs, of its rows in a pass over all of them
    for mu in parts:
        first, second = np.triu_indices(mu.size, 1)
        arrays.append((mu._members, mu._spectra, [(first + start, second + start)]))
        start += mu.size

    def distances(arrays):  # the distances of their pairs, end to end
        out = np.empty(sum(len(blocks[0][0]) for _, _, blocks in arrays))
        for positions, values in pair_trace_distances(arrays):
            out[positions] = values
        return out

    alone = [distances([(mu._members, mu._spectra, [np.triu_indices(mu.size, 1)])])
             for mu in parts]
    assert np.array_equal(distances(arrays), np.concatenate(alone))


@settings(derandomize=True, deadline=None)
@given(st.lists(_mixed_kind_ensembles(dims=(4,)), min_size=1, max_size=4), st.integers(1, 4))
def test_pass_in_blocks_matches_each_scan(mus, block):
    # Each mu+ in blocks of about `block` pairs, so a pass over several takes
    # rounds in which arrays run out, or stop, at different blocks; stacks
    # of 2 matrix and 3 diagonal differences, so that arrays take stacks of
    # their own next to shared ones.  Each array's distances, and with
    # running maxima its maximum, equal those of its pass alone, bit for
    # bit; the pass solves as many matrices as the arrays alone, and takes
    # as many of each array's blocks, none after its maximum reaches the
    # ceiling.
    parts = []
    for mu in mus:
        try:
            parts.append(build_auxiliary(mu).mu_plus)
        except DegenerateEnsembleError:
            pass

    def counted(blocks, k, taken, maxima):  # the blocks, counting those taken
        for pairs in blocks:  # none once the array's maximum reaches the ceiling
            assert maxima is None or maxima[k] < 1.0 - 1e-12
            taken[k] += 1
            yield pairs

    def scan(kind, maxima=None):  # each array's distances in its order, solves, blocks taken
        arrays, start, taken = [], 0, [0] * len(kind)
        for k, mu in enumerate(kind):
            blocks = list(_upper_pairs(mu.size, start, bounds._PAIR_BLOCK))
            arrays.append((mu._members, mu._spectra, blocks))
            start += mu.size
        # Each position of the pass, a round at a time, as (array, its own position).
        sizes = [[len(first) for first, _ in a[2]] for a in arrays]
        layout, done = [], [0] * len(kind)
        for r in range(max(map(len, sizes))):
            for k, own in enumerate(sizes):
                if r < len(own):
                    layout += [(k, done[k] + n) for n in range(own[r])]
                    done[k] += own[r]
        out, before = [np.full(n, np.nan) for n in done], len(calls)
        arrays = [(*a[:2], counted(a[2], k, taken, maxima)) for k, a in enumerate(arrays)]
        for positions, distances in pair_trace_distances(arrays, maxima):
            for p, value in zip(positions.tolist(), distances.tolist()):
                if maxima is None:  # else stopped arrays leave the later rounds
                    k, n = layout[p]
                    out[k][n] = value
        return out, len(calls) - before, taken

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_STACK_ROWS", 2 * 4)
        patch.setattr(linalg, "_STACK_BYTES", 3 * 8 * 4)
        patch.setattr(bounds, "_PAIR_BLOCK", block)
        calls = count_eigensolves(patch)
        for index in linalg._groups(mu._members.ndim for mu in parts):
            kind = [parts[t] for t in index if parts[t].size > 1]
            if not kind:
                continue
            together, solved, taken = scan(kind)
            alone = [scan([mu]) for mu in kind]
            assert solved == sum(a[1] for a in alone) and taken == [a[2][0] for a in alone]
            for got, a in zip(together, alone):
                assert np.array_equal(got, a[0][0])
            maxima, single = [0.0] * len(kind), [[0.0] for _ in kind]
            _, solved, taken = scan(kind, maxima)
            alone = [scan([mu], one) for mu, one in zip(kind, single)]
            assert solved == sum(a[1] for a in alone) and taken == [a[2][0] for a in alone]
            assert maxima == [one for one, in single]


def test_batched_diameter_stops_where_its_scan_stops(monkeypatch):
    # Two basis states whose positive parts are orthogonal and of rank 1 put
    # C at 1 in the Gram pairs, so the scan of this ensemble alone stops
    # before its dense pairs: in a batch, the pass over all of them skips
    # them too, solving the same matrices and giving the same C.
    psi = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
    mirror = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)
    states = (DensityOperator.from_diagonal([1.0, 0.0, 0.0]),
              DensityOperator.from_diagonal([0.0, 0.0, 1.0]),
              DensityOperator.from_pure(psi), DensityOperator.from_pure(mirror),
              DensityOperator(np.eye(3) / 3.0))
    stops = DiscreteEnsemble(np.full(5, 0.2), states)
    mus = [random_ensemble(4, 3, 5), stops, random_ensemble(3, 3, 6)]
    for mu in mus:
        mu.average
    calls = count_eigensolves(monkeypatch)
    batch = full_reports(mus)
    batched = len(calls)
    del calls[:]
    alone = [full_report(mu) for mu in mus]
    assert len(calls) == batched
    assert batch[1].plus_diameter == 1.0
    for report, want in zip(batch, alone):
        assert _fields(report) == _fields(want)


def test_batched_diameter_skips_gram_pairs_past_the_ceiling(monkeypatch):
    # Positive parts whose first row of pairs, a block of its own at a
    # _PAIR_BLOCK of 4, ends in [1 - 1e-12, 1) at a dense pair: the scan
    # stops after that block, before a Gram pair at distance 1 (two
    # orthogonal pure states off the diagonal) and the other pairs of a
    # rank-2 part.  A pass over it and others skips those too, so C stays
    # below 1.
    monkeypatch.setattr(bounds, "_PAIR_BLOCK", 4)
    mu = _near_ceiling_parts()
    every = pair_trace_distances([(mu._members, mu._spectra, _upper_pairs(mu.size, 0, 4))])
    assert max(float(distances.max()) for _, distances in every) >= 1.0
    auxes = [build_auxiliary(random_ensemble(4, 3, 5)), _PlusParts(mu),
             build_auxiliary(random_ensemble(3, 3, 6))]
    calls = count_eigensolves(monkeypatch)
    batch = _diameters_of(auxes)
    batched = len(calls)
    del calls[:]
    alone = [_diameters_of([aux])[0] for aux in auxes]
    assert len(calls) == batched
    assert batch == alone
    assert 1.0 - 1e-12 <= batch[1] < 1.0


def test_batched_diameter_leaves_a_stopped_scans_pairs_out_of_shared_stacks(monkeypatch):
    # The same parts, in one block, between two ensembles with dense pairs:
    # their Gram pair at distance 1 stops their scan before its seven dense
    # pairs, so the dense pairs of the two others share a stack around the
    # gap it leaves, or would, the stack ends there, and the batch solves
    # what each scan alone solves.
    auxes = [build_auxiliary(random_ensemble(4, 3, 0)), _PlusParts(_near_ceiling_parts()),
             build_auxiliary(random_ensemble(5, 3, 3))]
    calls = count_eigensolves(monkeypatch)
    batch = _diameters_of(auxes)
    batched = len(calls)
    del calls[:]
    alone = [_diameters_of([aux])[0] for aux in auxes]
    assert len(calls) == batched == 6 + 7
    assert batch == alone


def test_worker_stack_solved_past_the_ceiling_is_left_out(monkeypatch):
    # Dense rank-2 parts a, b at distance 1 - 5e-13 and c orthogonal to a,
    # one pair a stack: (a, b) reaches the ceiling, and two workers solve
    # (a, c), at distance 1, meanwhile.  That stack is left out, so C is
    # the one-worker scan's, below 1.
    rng = np.random.default_rng(11)

    def block_state(rows):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        mat = np.zeros((4, 4), dtype=complex)
        mat[rows, rows] = u @ (g @ g.conj().T) @ u.conj().T
        return mat / mat.trace().real

    a, c = block_state(slice(0, 2)), block_state(slice(2, 4))
    b = (1.0 - 5e-13) * block_state(slice(2, 4)) + 5e-13 * a
    parts = _PlusParts(DiscreteEnsemble(np.full(3, 1 / 3), tuple(map(DensityOperator, (a, b, c)))))
    monkeypatch.setattr(linalg, "_STACK_ROWS", 4)
    monkeypatch.setattr(linalg, "_WORKERS", 1)
    single = _diameters_of([parts])[0]
    monkeypatch.setattr(linalg, "_WORKERS", 2)
    calls, threaded = count_eigensolves(monkeypatch), _count_in_order_calls(monkeypatch)
    assert _diameters_of([parts])[0] == single
    assert threaded == [2] and len(calls) == 2
    assert 1.0 - 1e-12 <= single < 1.0


def _near_ceiling_parts() -> DiscreteEnsemble:
    """Positive parts at d = 3, one stack: |0><0| and a rank-2 diagonal part
    at distance 1 - 1e-13 (a dense pair), two orthogonal pure states off the
    diagonal (a Gram pair at distance 1), and a dense rank-2 part."""
    psi = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
    mirror = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)
    near = 1e-13
    parts = (DensityOperator.from_diagonal([1.0, 0.0, 0.0]),
             DensityOperator.from_diagonal([near, 0.5 - near / 2, 0.5 - near / 2]),
             DensityOperator.from_pure(psi), DensityOperator.from_pure(mirror),
             DensityOperator(0.5 * DensityOperator.from_pure(psi).mat + np.diag([0, 0, 0.5])))
    return DiscreteEnsemble(np.full(5, 0.2), parts)


@dataclasses.dataclass
class _PlusParts:
    """The one field of an AuxiliaryDecomposition that C reads."""

    mu_plus: DiscreteEnsemble


def _diameters_of(auxes) -> list[float]:
    """bounds._diameters of the mu_plus arrays of `auxes`, joined end to end
    as a report group holds its parts."""
    plus = [aux.mu_plus for aux in auxes]
    starts = np.cumsum([0] + [mu.size for mu in plus]).tolist()
    return bounds._diameters(np.concatenate([mu._members for mu in plus]),
                             np.concatenate([mu._spectra for mu in plus]), starts)


def _fields(report: BoundReport) -> list:
    """Every field of a report, its slacks in order."""
    return [getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "slacks"] + [
        *report.slacks.items()
    ]
