"""Tests for the named ensembles, the oscillator family, the quadrature
discretizer, and the random generators."""

import math
import tracemalloc

import numpy as np
import pytest

from holevo_bounds import gallery, linalg
from holevo_bounds.bounds import aux_bound, full_report, shannon_bound
from holevo_bounds.ensemble import average_state, holevo_quantity, member_epsilons
from holevo_bounds.entropy import gibbs_entropy
from holevo_bounds.gallery import (
    ContinuousFamilySpec,
    OscillatorEnsembleSpec,
    discretize_continuous,
    orthogonal_ensemble,
    oscillator_closed_form,
    oscillator_ensemble,
    random_ensemble,
    random_mixed_state,
    random_pure_state,
    trine_ensemble,
)
from holevo_bounds.linalg import DensityOperator

from helpers import great_circle_spec

LN2 = math.log(2.0)


def test_trine_shape_and_average():
    mu = trine_ensemble()
    assert mu.size == 3
    assert mu.dim == 2
    np.testing.assert_allclose(mu.probs, np.full(3, 1 / 3), atol=1e-15)
    np.testing.assert_allclose(average_state(mu).mat, np.eye(2) / 2, atol=1e-12)


def test_trine_chi():
    assert math.isclose(holevo_quantity(trine_ensemble()), LN2, abs_tol=1e-12)


def test_trine_pairwise_overlaps():
    # Tr(rho_i rho_j) = |<psi_i|psi_j>|^2 = 1/4 for distinct members.
    mu = trine_ensemble()
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = float((mu.states[i].mat @ mu.states[j].mat).trace().real)
            assert math.isclose(overlap, 0.25, abs_tol=1e-12)


def test_orthogonal_validation_and_small_cases():
    with pytest.raises(ValueError):
        orthogonal_ensemble(0)
    single = orthogonal_ensemble(1)
    assert single.size == 1
    assert holevo_quantity(single) == 0.0


def test_orthogonal_three():
    mu = orthogonal_ensemble(3)
    assert math.isclose(holevo_quantity(mu), math.log(3.0), abs_tol=1e-12)
    eps, eps_av = member_epsilons(mu)
    np.testing.assert_allclose(eps, 2.0 / 3.0, atol=1e-12)
    assert math.isclose(eps_av, 2.0 / 3.0, abs_tol=1e-12)


def test_orthogonal_four_bound_is_tight():
    mu = orthogonal_ensemble(4)
    first, _ = aux_bound(mu)
    assert abs(first - holevo_quantity(mu)) <= 1e-9


def test_oscillator_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        OscillatorEnsembleSpec(0.0)
    with pytest.raises(ValueError, match="tail_tol"):
        OscillatorEnsembleSpec(1.0, tail_tol=2.0)
    with pytest.raises(ValueError, match="cutoff"):
        OscillatorEnsembleSpec(1.0, cutoff=-1)


@pytest.mark.parametrize("n_mean", [math.inf, 1e20, 1e300])
def test_oscillator_spec_rejects_unusable_means(n_mean):
    # An infinite N has no geometric ratio, and from about N = 1e16 on
    # N/(N+1) rounds to 1, where no cutoff drops a finite tail.
    with pytest.raises(ValueError, match="mean photon number") as excinfo:
        OscillatorEnsembleSpec(n_mean)
    assert repr(n_mean) in str(excinfo.value)


@pytest.mark.parametrize("n_mean", [math.inf, 1e20, 1e300, math.nan])
def test_oscillator_closed_form_rejects_unusable_means(n_mean):
    # The series needs the ratio q = N/(N+1) below 1, as the ensemble does;
    # at N = 1e20 q rounds to 1 and the tail bound divided by 1 - q = 0.
    with pytest.raises(ValueError, match="mean photon number") as excinfo:
        oscillator_closed_form(n_mean)
    assert repr(n_mean) in str(excinfo.value)


def test_oscillator_closed_form_names_mean_past_term_cap(monkeypatch):
    # The series needs about N ln(1 / term_tol) terms.  Past the cap that is
    # an input error naming N and the cap, not a RuntimeError.
    monkeypatch.setattr(gallery, "_MAX_SERIES_TERMS", 1000)
    oscillator_closed_form(10.0)
    with pytest.raises(ValueError, match=r"mean photon number 100: .*cap of 1000 terms"):
        oscillator_closed_form(100.0)


def test_oscillator_insufficient_cutoff():
    # At mean occupation 1 the ratio is 1/2, so cutoff 0 drops mass 1/2.
    with pytest.raises(ValueError, match="need cutoff >="):
        oscillator_ensemble(OscillatorEnsembleSpec(1.0, cutoff=0))


def test_oscillator_tail_mass_and_normalization():
    spec = OscillatorEnsembleSpec(1.0, cutoff=30, tail_tol=1e-6)
    mu, tail = oscillator_ensemble(spec)
    assert math.isclose(tail, 0.5**31, rel_tol=1e-12)
    assert mu.size == 31
    assert math.isclose(float(mu.probs.sum()), 1.0, abs_tol=1e-12)
    # Renormalized geometric weights.
    assert math.isclose(mu.probs[1] / mu.probs[0], 0.5, rel_tol=1e-12)


def test_oscillator_auto_cutoff_respects_tail_tol():
    spec = OscillatorEnsembleSpec(1.0, tail_tol=1e-12)
    mu, tail = oscillator_ensemble(spec)
    assert tail < 1e-12
    assert 0.5 ** mu.size < 1e-12 <= 0.5 ** (mu.size - 1)


def test_oscillator_chi_matches_thermal_entropy():
    mu, _ = oscillator_ensemble(OscillatorEnsembleSpec(1.0, tail_tol=1e-12))
    assert abs(holevo_quantity(mu) - gibbs_entropy(1.0)) <= 1e-6


def test_oscillator_member_epsilons_closed_form():
    # Distance of member n to the thermal average is 1 - (1-q) q^n.
    # Truncation perturbs the average by at most the tail mass; the measured
    # deviation at tail_tol 1e-12 stays below 5e-13 for every member.
    n_mean = 1.0
    q = n_mean / (n_mean + 1.0)
    mu, _ = oscillator_ensemble(OscillatorEnsembleSpec(n_mean, tail_tol=1e-12))
    eps, _ = member_epsilons(mu)
    for n in range(mu.size):
        expected = 1.0 - (1.0 - q) * q**n
        assert abs(eps[n] - expected) <= 1e-9


def test_oscillator_closed_form_values():
    chi, chi_hat = oscillator_closed_form(1.0)
    assert math.isclose(chi, 2 * LN2, abs_tol=1e-15)
    assert chi_hat >= chi
    # Mean member distance equals 2q/(1+q): 2/3 at mean occupation 1.
    mu, _ = oscillator_ensemble(OscillatorEnsembleSpec(1.0, tail_tol=1e-12))
    _, eps_av = member_epsilons(mu)
    assert abs(eps_av - 2.0 / 3.0) <= 1e-9


def test_oscillator_closed_form_validation():
    with pytest.raises(ValueError):
        oscillator_closed_form(0.0)
    with pytest.raises(ValueError):
        oscillator_closed_form(1.0, term_tol=0.0)


@pytest.mark.parametrize("n_mean", [0.5, 2.0])
def test_oscillator_two_paths_agree(n_mean):
    chi_series, chi_hat_series = oscillator_closed_form(n_mean, term_tol=1e-10)
    mu, _ = oscillator_ensemble(OscillatorEnsembleSpec(n_mean, tail_tol=1e-10))
    assert abs(holevo_quantity(mu) - chi_series) <= 1e-6
    first, _ = shannon_bound(mu)
    assert abs(first - chi_hat_series) <= 1e-6


def test_discretize_single_point():
    rho = DensityOperator(np.eye(2) / 2)
    spec = ContinuousFamilySpec(points=(0.0,), weights=np.array([1.0]), state_at=lambda _: rho)
    mu = discretize_continuous(spec)
    assert mu.size == 1
    np.testing.assert_allclose(mu.states[0].mat, rho.mat)


def test_discretize_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        ContinuousFamilySpec(points=(), weights=np.array([]), state_at=lambda _: None)


def test_discretize_weight_count_mismatch():
    with pytest.raises(ValueError, match="weights"):
        ContinuousFamilySpec(
            points=(0.0, 1.0), weights=np.array([1.0]), state_at=lambda _: None
        )


def test_great_circle_epsilons_and_bound():
    mu = discretize_continuous(great_circle_spec(64))
    eps, eps_av = member_epsilons(mu)
    np.testing.assert_allclose(eps, 0.5, atol=1e-12)
    chi = holevo_quantity(mu)
    first, _ = aux_bound(mu)
    assert first >= chi - 1e-9
    # The circle is another equality family: every member is at distance 1/2.
    assert math.isclose(chi, LN2, abs_tol=1e-12)
    assert math.isclose(first, LN2, abs_tol=1e-9)


def test_discretize_constant_family_gives_zero_bounds():
    rho = DensityOperator.from_pure([1.0, 1.0j])
    spec = ContinuousFamilySpec(
        points=tuple(range(5)), weights=np.full(5, 0.2), state_at=lambda _: rho
    )
    report = full_report(discretize_continuous(spec))
    assert report.chi <= 1e-12
    assert report.aux_bound == 0.0
    assert report.shannon_bound == 0.0
    assert report.diameter_bound == 0.0


def test_random_pure_state_properties():
    rho = random_pure_state(4, seed=5)
    assert math.isclose(rho.trace(), 1.0, abs_tol=1e-12)
    spectrum = np.linalg.eigvalsh(rho.mat)
    assert abs(spectrum[-1] - 1.0) <= 1e-12
    assert np.all(spectrum[:-1] <= 1e-12)


def test_random_mixed_state_full_rank():
    rho = random_mixed_state(4, 4, seed=6)
    spectrum = np.linalg.eigvalsh(rho.mat)
    assert spectrum[0] > 1e-10
    assert math.isclose(rho.trace(), 1.0, abs_tol=1e-12)


def test_random_generator_validation():
    with pytest.raises(ValueError):
        random_pure_state(0, seed=1)
    with pytest.raises(ValueError):
        random_mixed_state(4, 5, seed=1)
    with pytest.raises(ValueError):
        random_mixed_state(4, 0, seed=1)
    with pytest.raises(ValueError):
        random_ensemble(0, 2, seed=1)


def test_random_ensemble_seed_determinism():
    first = random_ensemble(3, 2, seed=123)
    second = random_ensemble(3, 2, seed=123)
    np.testing.assert_array_equal(first.probs, second.probs)
    for a, b in zip(first.states, second.states):
        np.testing.assert_array_equal(a.mat, b.mat)
    third = random_ensemble(3, 2, seed=124)
    assert not np.array_equal(first.probs, third.probs)


@pytest.mark.parametrize("m, dim", [(1, 1), (2, 3), (6, 8), (12, 16)])
def test_random_ensemble_is_its_members_drawn_one_at_a_time(m, dim):
    # One draw of every member at once is the stream of m random_mixed_state
    # calls: the same probabilities, matrices and spectra, element for
    # element, and the generator left at the same draw.
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    mu = random_ensemble(m, dim, rng)
    probs = reference.dirichlet(np.ones(m))
    states = [random_mixed_state(dim, dim, reference) for _ in range(m)]
    assert "states" not in vars(mu) and mu.diagonals is None
    assert np.array_equal(mu.probs, probs)
    assert np.array_equal(mu.matrices, np.stack([state.mat for state in states]))
    assert np.array_equal(mu._spectra, np.stack([state.spectrum for state in states]))
    assert rng.random() == reference.random()


def test_random_generators_accept_shared_generator():
    rng = np.random.default_rng(9)
    a = random_pure_state(3, rng)
    b = random_pure_state(3, rng)
    assert not np.allclose(a.mat, b.mat)


@pytest.mark.parametrize("m, dim, seed", [(97, 97, 3), (6, 8, 0)])
def test_random_ensemble_draws_a_block_at_a_time(m, dim, seed):
    # Drawn and formed a member-stage block at a time, the ensemble is the
    # one drawn at once: the same probabilities, matrices and spectra, bit
    # for bit, and the generator left at the same draw.
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(m))
    draws = rng.standard_normal((m, 2, dim, dim))
    g = draws[:, 0] + 1j * draws[:, 1]
    mats = g @ g.conj().swapaxes(1, 2)
    mats /= mats.trace(axis1=1, axis2=2).real[:, None, None]
    spectra, _ = linalg._check_states(mats, range(m))
    generator = np.random.default_rng(seed)
    mu = random_ensemble(m, dim, generator)
    assert np.array_equal(mu.probs, probs)
    assert np.array_equal(mu.matrices, mats)
    assert np.array_equal(mu._spectra, spectra)
    assert generator.standard_normal() == rng.standard_normal()


def test_random_ensemble_peak_memory():
    # The member stack and one block of draws and products, against three
    # m d^2 complex arrays when drawn at once (43.8 MB here) and 29.3 MB when
    # each member was its own checked state.
    block = max(linalg._BLOCK_BYTES, 16 * 97 * 97)
    tracemalloc.start()
    try:
        random_ensemble(97, 97, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 29.3e6 + block, f"{peak / 1e6:.1f} MB"
