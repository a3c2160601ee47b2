"""Tests for ensembles, the Holevo quantity, and the auxiliary decomposition."""

import math
import tracemalloc

import numpy as np
import pytest

from holevo_bounds.bounds import full_report
from holevo_bounds.cli import load_ensemble_file, write_ensemble_file
from holevo_bounds.ensemble import (
    AuxiliaryDecomposition,
    DegenerateEnsembleError,
    DiscreteEnsemble,
    average_state,
    build_auxiliary,
    holevo_quantity,
    mean_binary_entropy,
    member_epsilons,
    _member_parts,
    _from_rows,
)
from holevo_bounds.entropy import relative_entropy, shannon_entropy
from holevo_bounds.gallery import (
    OscillatorEnsembleSpec, orthogonal_ensemble, oscillator_ensemble, random_ensemble,
    random_mixed_state, trine_ensemble,
)
from holevo_bounds.linalg import (
    DensityOperator, EigensolverError, _is_diagonal, trace_distance, trace_norm,
)

from helpers import count_eigensolves, diagonal_average_ensemble

LN2 = math.log(2.0)


def _two_state_plus_average_ensemble(seed=9):
    # Third member equals the ensemble average, so its distance is zero.
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sigma = DensityOperator(g1 @ g1.conj().T / (g1 @ g1.conj().T).trace().real)
    tau = DensityOperator(g2 @ g2.conj().T / (g2 @ g2.conj().T).trace().real)
    middle = DensityOperator((sigma.mat + tau.mat) / 2.0)
    return DiscreteEnsemble(np.array([0.25, 0.25, 0.5]), (sigma, tau, middle))


def test_ensemble_validation():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValueError, match="at least one state"):
        DiscreteEnsemble(np.array([1.0]), ())
    with pytest.raises(ValueError, match="probabilities for"):
        DiscreteEnsemble(np.array([0.5, 0.5]), (rho,))
    with pytest.raises(ValueError, match="dim"):
        DiscreteEnsemble(np.array([0.5, 0.5]), (rho, DensityOperator(np.eye(3) / 3)))
    with pytest.raises(TypeError, match="not a DensityOperator"):
        DiscreteEnsemble(np.array([1.0]), (np.eye(2) / 2,))
    with pytest.raises(ValueError, match="labels"):
        DiscreteEnsemble(np.array([1.0]), (rho,), labels=("a", "b"))


def test_average_single_state():
    rho = DensityOperator.from_pure([1.0, 2.0])
    mu = DiscreteEnsemble(np.array([1.0]), (rho,))
    np.testing.assert_allclose(average_state(mu).mat, rho.mat, atol=1e-15)


def test_average_trine_is_maximally_mixed():
    np.testing.assert_allclose(average_state(trine_ensemble()).mat, np.eye(2) / 2, atol=1e-12)


def test_average_orthogonal_is_uniform_diagonal():
    mu = orthogonal_ensemble(4)
    np.testing.assert_allclose(average_state(mu).mat, np.eye(4) / 4, atol=1e-15)


def test_holevo_single_state_is_zero():
    rho = DensityOperator(np.eye(2) / 2)
    assert holevo_quantity(DiscreteEnsemble(np.array([1.0]), (rho,))) == 0.0


def test_holevo_trine():
    assert math.isclose(holevo_quantity(trine_ensemble()), LN2, abs_tol=1e-12)


def test_holevo_orthogonal_four():
    assert math.isclose(holevo_quantity(orthogonal_ensemble(4)), math.log(4.0), abs_tol=1e-12)


def test_holevo_matches_relative_entropy_sum():
    # chi = sum p_i D(rho_i || average) whenever the average has full support.
    rng = np.random.default_rng(71)
    for trial in range(60):
        mu = random_ensemble(int(rng.integers(2, 6)), int(rng.integers(2, 6)), rng)
        avg = average_state(mu)
        oracle = sum(
            p * relative_entropy(s, avg) for p, s in zip(mu.probs, mu.states)
        )
        assert math.isclose(holevo_quantity(mu), oracle, abs_tol=1e-8)


def test_holevo_upper_bounds():
    rng = np.random.default_rng(73)
    for _ in range(60):
        m = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 7))
        mu = random_ensemble(m, dim, rng)
        chi = holevo_quantity(mu)
        assert chi >= 0.0
        assert chi <= shannon_entropy(mu.probs) + 1e-9
        assert chi <= math.log(dim) + 1e-9


def test_member_epsilons_trine():
    eps, eps_av = member_epsilons(trine_ensemble())
    np.testing.assert_allclose(eps, 0.5, atol=1e-12)
    assert math.isclose(eps_av, 0.5, abs_tol=1e-12)


def test_member_epsilons_orthogonal():
    for m in (2, 3, 6):
        eps, eps_av = member_epsilons(orthogonal_ensemble(m))
        np.testing.assert_allclose(eps, 1.0 - 1.0 / m, atol=1e-12)
        assert math.isclose(eps_av, 1.0 - 1.0 / m, abs_tol=1e-12)


def test_member_epsilons_identical_states():
    rho = DensityOperator(np.eye(2) / 2)
    mu = DiscreteEnsemble(np.array([0.5, 0.5]), (rho, rho))
    eps, eps_av = member_epsilons(mu)
    assert np.all(eps <= 1e-13)
    assert eps_av <= 1e-13


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(random_ensemble(6, 8, 0), id="random-6-8-0"),
        pytest.param(random_ensemble(20, 32, 1), id="random-20-32-1"),
        pytest.param(trine_ensemble(), id="trine"),
        pytest.param(orthogonal_ensemble(8), id="orthogonal-8"),
        pytest.param(oscillator_ensemble(OscillatorEnsembleSpec(3.0))[0], id="oscillator-3"),
        pytest.param(diagonal_average_ensemble(4, 0), id="diagonal-average"),
    ],
)
def test_member_epsilons_match_each_trace_distance(mu):
    # Read from the member array, each distance is the trace_distance of its
    # state to the average, bit for bit: a diagonal member of a dense stack
    # about a diagonal average takes an eigensolve, whose values are its
    # entries.
    eps, eps_av = member_epsilons(mu)
    want = np.clip([trace_distance(state, mu.average) for state in mu.states], 0.0, 1.0)
    assert np.array_equal(eps, want) and not eps.flags.writeable
    assert eps_av == float(mu.probs @ want)


def test_member_epsilons_reads_the_member_array(monkeypatch):
    # One eigensolve per member of a dense ensemble (its average built
    # first), and no state object built on an ensemble backed by rows.
    mu = random_ensemble(6, 8, 0)
    mu.average
    calls = count_eigensolves(monkeypatch)
    member_epsilons(mu)
    assert calls == [8] * 6
    commuting = orthogonal_ensemble(64)
    member_epsilons(commuting)
    assert calls == [8] * 6
    assert "states" not in vars(commuting)


def test_diagonal_member_epsilons_allocate_no_m_by_d_array():
    # oscillator:30 has m = d = 843, so one m x d float array takes 5.7 MB:
    # the member rows are subtracted from the average a block at a time.
    mu, _ = oscillator_ensemble(OscillatorEnsembleSpec(30.0))
    mu.average
    tracemalloc.start()
    try:
        member_epsilons(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (mu.size, mu.dim) == (843, 843)
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_dense_member_epsilons_name_the_member_whose_solve_fails(monkeypatch):
    # LAPACK fails on member 2's difference only, in its stack and alone.
    mu = random_ensemble(5, 3, 2)
    target = mu.matrices[2] - mu.average.mat
    original = np.linalg.eigvalsh

    def member_fails(a, *args, **kwargs):
        if any(np.array_equal(mat, target) for mat in np.reshape(a, (-1, 3, 3))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", member_fails)
    with pytest.raises(EigensolverError, match="^member 2: eigenvalue computation failed at dim 3"):
        member_epsilons(mu)


def test_mean_binary_entropy_values():
    assert math.isclose(mean_binary_entropy(trine_ensemble()), LN2, abs_tol=1e-12)
    assert math.isclose(mean_binary_entropy(orthogonal_ensemble(2)), LN2, abs_tol=1e-12)
    rho = DensityOperator(np.eye(2) / 2)
    mu = DiscreteEnsemble(np.array([0.5, 0.5]), (rho, rho))
    assert mean_binary_entropy(mu) <= 1e-12


def test_build_auxiliary_orthogonal_family():
    # mu_plus recovers the ensemble itself; mu_minus holds the complementary
    # states (m * average - rho_i) / (m - 1).
    for m in (2, 3, 5):
        mu = orthogonal_ensemble(m)
        aux = build_auxiliary(mu)
        assert aux.retained == tuple(range(m))
        np.testing.assert_allclose(aux.weights, np.full(m, 1.0 / m), atol=1e-12)
        avg = average_state(mu)
        for i in range(m):
            np.testing.assert_allclose(aux.tau_plus[i].mat, mu.states[i].mat, atol=1e-10)
            expected_minus = (m * avg.mat - mu.states[i].mat) / (m - 1)
            np.testing.assert_allclose(aux.tau_minus[i].mat, expected_minus, atol=1e-10)


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(oscillator_ensemble(OscillatorEnsembleSpec(3.0))[0], id="oscillator-3"),
        pytest.param(orthogonal_ensemble(16), id="orthogonal-16"),
    ],
)
def test_diagonal_spectrum_is_the_diagonal(mu):
    # A state kept as its diagonal keeps no second, sorted copy: its spectrum
    # is the diagonal array, for the members, every tau_i^(+/-) and the
    # averages of mu and mu^(+/-).
    aux = build_auxiliary(mu)
    states = (
        *mu.states, *aux.tau_plus, *aux.tau_minus,
        mu.average, aux.mu_plus.average, aux.mu_minus.average,
    )
    assert len(states) == 3 * mu.size + 3
    for state in states:
        assert state.diagonal is not None and state.spectrum is state.diagonal


def test_commuting_member_stage_holds_one_copy_per_state():
    # oscillator:10 has m = d = 290.  The members and the two auxiliary
    # ensembles hold 3 m d floats when each state keeps only its diagonal;
    # a sorted spectrum copy per state would double that.
    tracemalloc.start()
    try:
        mu, _ = oscillator_ensemble(OscillatorEnsembleSpec(10.0))
        aux = build_auxiliary(mu)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m, d = mu.size, mu.dim
    assert (m, d) == (290, 290) and len(aux.tau_plus) == m
    assert held <= 4 * m * d * 8, f"held {held} bytes, {held / (m * d * 8):.2f} m d floats"


def test_diagonal_member_stage_allocates_no_m_by_d_temporary():
    # oscillator:30 has m = d = 843.  The stage writes tau_i^(+/-) straight
    # into two m x d arrays, a block of rows at a time: its peak is those
    # two arrays and its blocks.  A stage on the whole m x d array at once
    # peaks at 3 to 4 m d floats.
    mu, _ = oscillator_ensemble(OscillatorEnsembleSpec(30.0))
    mu.average
    tracemalloc.start()
    try:
        aux = build_auxiliary(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m, d = mu.size, mu.dim
    assert (m, d) == (843, 843) and len(aux.tau_plus) == m
    assert peak <= 2.5 * m * d * 8, f"peak {peak} bytes, {peak / (m * d * 8):.2f} m d floats"


def test_dense_ensembles_are_one_stack(tmp_path):
    # A dense ensemble built from states stacks their matrices once, when
    # it is built; one drawn by random_ensemble or loaded from a file enters
    # as its checked stack, whose slices its states' matrices are.  mu+ and
    # mu- hold theirs as stacks whose slices are their states' matrices,
    # one per retained member.
    commuting = orthogonal_ensemble(4)
    assert commuting.matrices is None and commuting.diagonals is not None
    write_ensemble_file(tmp_path / "dense.json", random_ensemble(5, 4, 2))
    loaded = load_ensemble_file(tmp_path / "dense.json")
    for mu, from_states in ((random_ensemble(6, 8, 0), False), (trine_ensemble(), True),
                            (loaded, False)):
        m, d = mu.size, mu.dim
        assert ("states" in vars(mu)) == from_states
        assert mu.diagonals is None and "matrices" in vars(mu)
        assert mu.matrices.shape == (m, d, d) and not mu.matrices.flags.writeable
        assert all(np.array_equal(mat, s.mat) for mat, s in zip(mu.matrices, mu.states))
        shared = [np.shares_memory(mat, s.mat) for mat, s in zip(mu.matrices, mu.states)]
        assert shared == [not from_states] * m
        aux = build_auxiliary(mu)
        for part in (aux.mu_plus, aux.mu_minus):
            assert part.diagonals is None and not part.matrices.flags.writeable
            assert "states" not in vars(part)
            for k, state in enumerate(part.states):
                assert np.shares_memory(state.mat, part.matrices[k])
        assert len(aux.mu_minus.matrices.base) == aux.mu_minus.size


def test_dense_report_peak_memory():
    # 12 Haar-pure members at d = 128: the report holds the stacks of mu+ and
    # mu-, and one member block of mu- at a time for D's gaps, and copies
    # none of them whole (3.26 m d^2 complex entries measured).
    rng = np.random.default_rng(0)
    m, d = 12, 128
    vectors = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    states = tuple(DensityOperator.from_pure(v) for v in vectors)
    mu = DiscreteEnsemble(rng.dirichlet(np.ones(m)), states)
    mu.average
    tracemalloc.start()
    try:
        full_report(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.6 * m * d * d * 16, f"peak {peak / (m * d * d * 16):.2f} m d^2 complex"


def test_build_auxiliary_trine():
    mu = trine_ensemble()
    aux = build_auxiliary(mu)
    np.testing.assert_allclose(aux.weights, np.full(3, 1 / 3), atol=1e-12)
    for i in range(3):
        np.testing.assert_allclose(aux.tau_plus[i].mat, mu.states[i].mat, atol=1e-10)
        np.testing.assert_allclose(aux.tau_minus[i].mat, np.eye(2) - mu.states[i].mat, atol=1e-10)
    assert aux.average_match_residual <= 1e-12


def test_build_auxiliary_single_state_raises():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(DegenerateEnsembleError):
        build_auxiliary(DiscreteEnsemble(np.array([1.0]), (rho,)))


def test_build_auxiliary_identical_states_raises():
    rho = DensityOperator.from_pure([1.0, 1.0j])
    mu = DiscreteEnsemble(np.array([0.3, 0.7]), (rho, rho))
    with pytest.raises(DegenerateEnsembleError):
        build_auxiliary(mu)


def test_build_auxiliary_drops_zero_distance_member():
    mu = _two_state_plus_average_ensemble()
    aux = build_auxiliary(mu)
    assert aux.retained == (0, 1)
    assert aux.eps[2] <= 1e-12
    assert len(aux.tau_plus) == 2
    # The retained members' weights p_i eps_i, renormalized to sum 1: equal
    # here, since both have p_i = 1/4 and the average is their midpoint.
    raw = aux.probs[:2] * aux.eps[:2]
    assert np.array_equal(aux.weights, raw / raw.sum())
    np.testing.assert_allclose(aux.weights, [0.5, 0.5])
    assert math.isclose(float(aux.weights.sum()), 1.0, abs_tol=1e-15)
    # The dropped member contributes nothing: the identity still holds.
    assert aux.average_match_residual <= 1e-9


def test_auxiliary_invariants_random():
    rng = np.random.default_rng(97)
    for trial in range(500):
        m = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 7))
        mu = random_ensemble(m, dim, rng)
        aux = build_auxiliary(mu)
        # Average-state identity for the two auxiliary ensembles.
        assert aux.average_match_residual <= 1e-9
        # eps_i match the definition and eps_av their mean.
        eps, eps_av = member_epsilons(mu)
        np.testing.assert_allclose(aux.eps, eps, atol=1e-12)
        assert abs(aux.eps_av - float(mu.probs @ eps)) <= 1e-12
        avg = average_state(mu)
        for pos, i in enumerate(aux.retained):
            tau_p, tau_m = aux.tau_plus[pos], aux.tau_minus[pos]
            assert abs(tau_p.trace() - 1.0) <= 1e-10
            assert abs(tau_m.trace() - 1.0) <= 1e-10
            # Orthogonal supports.
            assert np.max(np.abs(tau_p.mat @ tau_m.mat)) <= 1e-9
            # eps_i tau_i^+ - eps_i tau_i^- reassembles rho_i - average.
            delta = mu.states[i].mat - avg.mat
            recon = eps[i] * (tau_p.mat - tau_m.mat)
            assert np.max(np.abs(recon - delta)) <= 1e-9


def test_auxiliary_decomposition_is_plain_data():
    aux = build_auxiliary(trine_ensemble())
    assert isinstance(aux, AuxiliaryDecomposition)
    assert aux.mu_plus.size == aux.mu_minus.size == 3
    assert math.isclose(trace_norm(aux.omega - average_state(aux.mu_minus)), 0.0, abs_tol=1e-15)


def test_exactly_diagonal_dense_difference_takes_lapack(monkeypatch):
    # Dense states whose off-diagonal entries cancel exactly: the difference
    # is dense, so LAPACK solves it, and it must agree with the same
    # difference between the two diagonals kept as vectors.  Identical
    # states give eps = 0.
    base = DensityOperator(0.5 * random_mixed_state(3, 3, 11).mat + np.eye(3) / 6.0)
    shifted = DensityOperator(base.mat + np.diag([0.05, -0.02, -0.03]))
    calls = count_eigensolves(monkeypatch)
    for rho, sigma in ((shifted, base), (base, base)):
        diff = rho - sigma
        assert diff.diagonal is None
        assert np.count_nonzero(diff.mat - np.diag(diff.mat.diagonal())) == 0
        del calls[:]
        got = _member_parts(rho.mat[None], sigma.mat[None])
        assert calls == [3]
        rho_d, sigma_d = (DensityOperator.from_diagonal(s.mat.diagonal().real) for s in (rho, sigma))
        assert np.array_equal((rho_d - sigma_d).diagonal, diff.mat.diagonal().real)
        want = _member_parts(rho_d.diagonal[None], sigma_d.diagonal[None])
        assert calls == [3]
        assert abs(got[0][0] - want[0][0]) <= 1e-12
        assert got[1].tolist() == want[1].tolist() == ([] if rho is base else [0])
        if rho is base:
            continue
        # The dense difference is rotated back into stacks; the diagonal one is not.
        assert got[4] is not None and want[4] is None and want[5] is None
        for rows, oracle_rows, mats in zip(got[2:4], want[2:4], got[4:6]):
            part = _from_rows(np.ones(1), rows[:1], mats[:1]).states[0]
            oracle = _from_rows(np.ones(1), oracle_rows[:1]).states[0]
            # The dense part's eigenvectors permute the basis, so the part is
            # exactly diagonal, and kept as its diagonal too.
            assert _is_diagonal(part.mat) and part.diagonal is not None
            assert oracle.diagonal is not None
            assert np.max(np.abs(part.mat - oracle.mat)) <= 1e-12
            assert oracle.spectrum is oracle.diagonal
            assert np.max(np.abs(np.sort(part.spectrum) - np.sort(oracle.spectrum))) <= 1e-12
    assert got[0][0] == 0.0
