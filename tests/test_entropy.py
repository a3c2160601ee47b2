"""Tests for the entropy functions (all values in nats)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holevo_bounds.entropy import (
    as_probability_vector,
    binary_entropy,
    eta,
    gibbs_entropy,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from holevo_bounds.linalg import DensityOperator, trace_norm

from helpers import count_eigensolves, count_materializations, random_hermitian

LN2 = math.log(2.0)


def _random_full_rank(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return DensityOperator(mat / mat.trace().real)


def test_eta_endpoints():
    assert eta(0.0) == 0.0
    assert eta(1.0) == 0.0


def test_eta_at_inverse_e():
    # Closed form: -(1/e) ln(1/e) = 1/e.
    assert math.isclose(eta(1.0 / math.e), 1.0 / math.e, abs_tol=1e-15)


def test_eta_domain():
    with pytest.raises(ValueError):
        eta(-0.1)
    with pytest.raises(ValueError):
        eta(1.1)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_eta_bounded(x):
    val = eta(x)
    assert 0.0 <= val <= 1.0 / math.e + 1e-15


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert math.isclose(binary_entropy(0.5), LN2, abs_tol=1e-15)
    # h(2/3) = ln 3 - (2/3) ln 2, evaluated directly.
    expected = math.log(3.0) - (2.0 / 3.0) * LN2
    assert math.isclose(binary_entropy(1.0 - 1.0 / 3.0), expected, abs_tol=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetric_and_bounded(p):
    val = binary_entropy(p)
    assert 0.0 <= val <= LN2 + 1e-15
    assert math.isclose(val, binary_entropy(1.0 - p), abs_tol=1e-12)


def test_shannon_entropy_values():
    assert shannon_entropy([1.0]) == 0.0
    assert math.isclose(shannon_entropy(np.full(3, 1 / 3)), math.log(3.0), abs_tol=1e-12)
    assert math.isclose(shannon_entropy([0.5, 0.5]), LN2, abs_tol=1e-15)


def test_probability_vector_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        as_probability_vector([1.2, -0.2])
    with pytest.raises(ValueError, match="sum"):
        as_probability_vector([0.5, 0.4])
    with pytest.raises(ValueError, match="1-d"):
        as_probability_vector([[0.5, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        as_probability_vector([math.nan, 1.0])
    out = as_probability_vector([0.25, 0.75])
    assert not out.flags.writeable


def test_von_neumann_pure_state():
    assert von_neumann_entropy(DensityOperator.from_pure([1.0, 1.0j, 0.0])) <= 1e-12


def test_von_neumann_maximally_mixed():
    assert math.isclose(von_neumann_entropy(DensityOperator(np.eye(2) / 2)), LN2, abs_tol=1e-12)


def test_von_neumann_truncated_thermal_state():
    # Geometric spectrum with ratio 1/2 (mean occupation 1): entropy 2 ln 2.
    levels = np.arange(48)
    weights = 0.5**(levels + 1)
    weights = weights / weights.sum()
    rho = DensityOperator(np.diag(weights).astype(complex))
    assert math.isclose(von_neumann_entropy(rho), 2 * LN2, abs_tol=1e-6)
    assert math.isclose(gibbs_entropy(1.0), 2 * LN2, abs_tol=1e-15)


def test_von_neumann_matches_spectrum_shannon():
    rng = np.random.default_rng(31)
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        rho = _random_full_rank(dim, rng)
        spectrum = np.linalg.eigvalsh(rho.mat)
        positive = spectrum[spectrum > 0]
        oracle = float(-(positive * np.log(positive)).sum())
        assert math.isclose(von_neumann_entropy(rho), oracle, abs_tol=1e-10)


def test_relative_entropy_identical_states():
    rng = np.random.default_rng(3)
    rho = _random_full_rank(4, rng)
    assert relative_entropy(rho, rho) <= 1e-12


def test_relative_entropy_pure_vs_mixed():
    # D(rho || I/2) = ln 2 for any qubit pure state.
    rho = DensityOperator.from_pure([1.0, 1.0])
    sigma = DensityOperator(np.eye(2) / 2)
    assert math.isclose(relative_entropy(rho, sigma), LN2, abs_tol=1e-12)


def test_relative_entropy_support_violation():
    rho = DensityOperator.from_pure([1.0, 0.0])
    sigma = DensityOperator.from_pure([0.0, 1.0])
    assert relative_entropy(rho, sigma) == math.inf


def test_relative_entropy_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        relative_entropy(DensityOperator(np.eye(2) / 2), DensityOperator(np.eye(3) / 3))


def test_relative_entropy_pinsker():
    rng = np.random.default_rng(17)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        rho = _random_full_rank(dim, rng)
        sigma = _random_full_rank(dim, rng)
        gap = trace_norm(rho - sigma)
        assert relative_entropy(rho, sigma) >= 0.5 * gap * gap - 1e-9


def test_relative_entropy_of_diagonals_builds_nothing(monkeypatch):
    # sigma kept as its diagonal is read in O(d): no eigensolve, and no d x d
    # matrix for either state.
    rng = np.random.default_rng(53)
    p, q = rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(40))
    rho, sigma = DensityOperator.from_diagonal(p), DensityOperator.from_diagonal(q)
    solves = count_eigensolves(monkeypatch)
    builds = count_materializations(monkeypatch)
    got = relative_entropy(rho, sigma)
    assert solves == [] and builds == []
    assert abs(got - float((p * (np.log(p) - np.log(q))).sum())) <= 1e-12


def test_relative_entropy_against_double_eigenbasis_oracle():
    # Brute-force expansion over both eigenbases:
    # D = sum_ij |<u_i|v_j>|^2 a_i (ln a_i - ln b_j).
    rng = np.random.default_rng(41)
    for _ in range(40):
        dim = int(rng.integers(2, 6))
        rho = _random_full_rank(dim, rng)
        sigma = _random_full_rank(dim, rng)
        wr, vr = np.linalg.eigh(rho.mat)
        ws, vs = np.linalg.eigh(sigma.mat)
        oracle = 0.0
        for i in range(dim):
            ai = max(float(wr[i]), 0.0)
            if ai <= 1e-14:
                continue
            for j in range(dim):
                overlap = abs(np.vdot(vr[:, i], vs[:, j])) ** 2
                oracle += overlap * ai * (math.log(ai) - math.log(float(ws[j])))
        assert math.isclose(relative_entropy(rho, sigma), oracle, abs_tol=1e-8)


def test_mixing_bound():
    # S(average) <= sum p_i S(rho_i) + H(p) for any ensemble.
    rng = np.random.default_rng(53)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.ones(m))
        states = [_random_full_rank(dim, rng) for _ in range(m)]
        avg = DensityOperator(sum(p * s.mat for p, s in zip(probs, states)))
        lhs = von_neumann_entropy(avg)
        rhs = sum(p * von_neumann_entropy(s) for p, s in zip(probs, states))
        rhs += shannon_entropy(probs)
        assert lhs <= rhs + 1e-9


def test_gibbs_entropy_values():
    assert gibbs_entropy(0.0) == 0.0
    assert math.isclose(gibbs_entropy(1.0), 2 * LN2, abs_tol=1e-15)
    # g(2) = 3 ln 3 - 2 ln 2, evaluated directly.
    assert math.isclose(gibbs_entropy(2.0), 3 * math.log(3.0) - 2 * LN2, abs_tol=1e-14)
    with pytest.raises(ValueError):
        gibbs_entropy(-0.5)


@given(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
def test_gibbs_entropy_increasing(n, step):
    assert gibbs_entropy(n + step) > gibbs_entropy(n)


def test_entropy_kernel_on_random_hermitian_spectra():
    # Spectra of shifted random Hermitians exercise weights spread over [0, 1].
    rng = np.random.default_rng(67)
    for _ in range(20):
        a = random_hermitian(4, rng, scale=0.1)
        mat = a.mat + np.eye(4)
        rho = DensityOperator(mat / mat.trace().real)
        val = von_neumann_entropy(rho)
        assert 0.0 <= val <= math.log(4.0) + 1e-12
