"""Tests for the dense Hermitian matrix kernel."""

import dataclasses
import math

import numpy as np
import pytest

from holevo_bounds import linalg
from holevo_bounds.gallery import random_mixed_state, random_pure_state
from holevo_bounds.linalg import (
    DensityOperator,
    EigensolverError,
    HermitianOperator,
    hermitian_eig,
    hermitian_eigenvalues,
    jordan_parts,
    pair_trace_distances,
    pure_trace_distances,
    trace_distance,
    trace_norm,
)

from helpers import count_eigensolves, random_hermitian

TRINE_FIRST = DensityOperator.from_pure([1.0, 0.0])
TRINE_SECOND = DensityOperator.from_pure([-0.5, math.sqrt(3.0) / 2.0])


def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        HermitianOperator(np.zeros((2, 3)))


def test_rejects_vector_input():
    with pytest.raises(ValueError, match="square"):
        HermitianOperator(np.zeros(4))


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetrizes_rounding_noise():
    base = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 2.0]])
    noisy = base + np.array([[0.0, 3e-11], [-3e-11, 0.0]])
    op = HermitianOperator(noisy)
    assert np.max(np.abs(op.mat - op.mat.conj().T)) == 0.0
    np.testing.assert_allclose(op.mat, base, atol=1e-10)


def test_operator_matrix_is_read_only():
    op = HermitianOperator(np.eye(2))
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_arithmetic_and_dim_mismatch():
    a = HermitianOperator(np.eye(2))
    b = HermitianOperator(np.diag([1.0, -1.0]))
    np.testing.assert_allclose((a - b).mat, np.diag([0.0, 2.0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        a - HermitianOperator(np.eye(3))


def test_derived_operators_are_read_only():
    rho = random_mixed_state(4, 2, 3)
    sigma = random_mixed_state(4, 4, 5)
    plus, minus = jordan_parts(rho - sigma)
    diag_plus, diag_minus = jordan_parts(HermitianOperator(np.diag([0.5, -0.25, 0.0])))
    for op in (rho - sigma, plus, minus, diag_plus, diag_minus):
        assert not op.mat.flags.writeable
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0


def test_density_operator_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityOperator(np.diag([1.5, -0.5]))


def test_density_operator_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.diag([0.6, 0.6]))


def test_density_operator_accepts_solver_noise_negatives():
    DensityOperator(np.diag([1.0 + 5e-11, -5e-11]))


def test_from_pure_normalizes():
    rho = DensityOperator.from_pure([2.0, 0.0])
    np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="nonzero"):
        DensityOperator.from_pure([0.0, 0.0])


def test_eig_diagonal():
    system = hermitian_eig(HermitianOperator(np.diag([1.0, 0.0])))
    np.testing.assert_allclose(system.eigenvalues, [0.0, 1.0])


def test_eig_scalar_matrix():
    system = hermitian_eig(DensityOperator(np.eye(2) / 2.0))
    np.testing.assert_allclose(system.eigenvalues, [0.5, 0.5])


def test_eig_half_pauli_x():
    # 2x2 closed form: eigenvalues -1/2 and 1/2.
    op = HermitianOperator(np.array([[0.0, 0.5], [0.5, 0.0]]))
    system = hermitian_eig(op)
    np.testing.assert_allclose(system.eigenvalues, [-0.5, 0.5], atol=1e-14)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8, 17, 32):
        a = random_hermitian(dim, rng)
        system = hermitian_eig(a)
        recon = (system.eigenvectors * system.eigenvalues) @ system.eigenvectors.conj().T
        assert np.max(np.abs(recon - a.mat)) <= 1e-10
        gram = system.eigenvectors.conj().T @ system.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        assert np.all(np.diff(system.eigenvalues) >= 0.0)


def test_eigensolver_failure_is_wrapped(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    # Not diagonal: a diagonal input is solved without LAPACK.
    op = HermitianOperator(np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(EigensolverError) as excinfo:
        hermitian_eig(op)
    assert excinfo.value.dim == 3


DIAGONAL_ENTRIES = [0.5, -2.0, 0.0, 0.5, 3.0, -2.0, 0.0, 1e-11, -1e-11, 0.5]


def test_diagonal_eigenvalues_match_lapack(monkeypatch):
    op = HermitianOperator(np.diag(DIAGONAL_ENTRIES))
    expected = np.linalg.eigvalsh(op.mat)
    calls = count_eigensolves(monkeypatch)
    values = hermitian_eigenvalues(op)
    system = hermitian_eig(op)
    assert calls == []
    np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(system.eigenvalues, expected, rtol=0.0, atol=1e-15)


def test_diagonal_eigenvectors_are_a_permutation():
    op = HermitianOperator(np.diag(DIAGONAL_ENTRIES))
    system = hermitian_eig(op)
    v = system.eigenvectors
    dim = len(DIAGONAL_ENTRIES)
    assert set(np.unique(v)) == {0.0, 1.0}
    assert np.array_equal(np.abs(v).sum(axis=0), np.ones(dim))
    assert np.array_equal(np.abs(v).sum(axis=1), np.ones(dim))
    assert np.array_equal(v[system.order, np.arange(dim)], np.ones(dim))
    assert np.array_equal((v * system.eigenvalues) @ v.conj().T, op.mat)
    assert np.array_equal(v.conj().T @ v, np.eye(dim))


def test_diagonal_residual_is_checked():
    # A Hermitian operator's diagonal is real after symmetrization; an
    # imaginary diagonal entry is the one residual the closed form can have.
    class Raw:
        mat = np.diag([1.0, 2.0 + 1e-6j, 0.0])
        dim = 3

    with pytest.raises(EigensolverError) as excinfo:
        hermitian_eig(Raw())
    assert excinfo.value.residual == pytest.approx(1e-6)


def test_tiny_off_diagonal_entry_takes_lapack(monkeypatch):
    # Away from the corner entry, so the full off-diagonal count decides.
    mat = np.diag([0.25, 0.5, 0.25]).astype(complex)
    mat[0, 1] = mat[1, 0] = 1e-300
    op = HermitianOperator(mat)
    calls = count_eigensolves(monkeypatch)
    assert hermitian_eig(op).order is None
    assert calls == [3]
    hermitian_eigenvalues(op)
    assert calls == [3, 3]


def test_diagonal_jordan_split_matches_dense_formula():
    # The same eigensystem without its permutation goes through the dense
    # (V w) V^dag formula; the dead-zone entries +-1e-11 join neither part.
    system = hermitian_eig(HermitianOperator(np.diag(DIAGONAL_ENTRIES)))
    plus, minus = linalg.jordan_split(system)
    dense_plus, dense_minus = linalg.jordan_split(dataclasses.replace(system, order=None))
    assert np.array_equal(plus.mat, dense_plus.mat)
    assert np.array_equal(minus.mat, dense_minus.mat)
    kept = np.where(np.abs(DIAGONAL_ENTRIES) > linalg.PSD_TOL, DIAGONAL_ENTRIES, 0.0)
    assert np.array_equal(plus.mat - minus.mat, np.diag(kept))


def test_trace_norm_examples():
    assert trace_norm(HermitianOperator(np.zeros((3, 3)))) == 0.0
    rho = DensityOperator.from_pure([1.0, 1.0j])
    assert math.isclose(trace_norm(rho), 1.0, abs_tol=1e-12)
    assert math.isclose(
        trace_norm(HermitianOperator(np.diag([0.5, -0.5]))), 1.0, abs_tol=1e-14
    )


def test_trace_distance_identical_states():
    rho = DensityOperator(np.eye(2) / 2.0)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure():
    rho = DensityOperator.from_pure([1.0, 0.0])
    sigma = DensityOperator.from_pure([0.0, 1.0])
    assert math.isclose(trace_distance(rho, sigma), 1.0, abs_tol=1e-12)


def test_trace_distance_trine_pair():
    # Overlap 1/4 between the two vectors gives distance sqrt(3)/2.
    expected = math.sqrt(3.0) / 2.0
    assert math.isclose(trace_distance(TRINE_FIRST, TRINE_SECOND), expected, abs_tol=1e-12)


def test_trace_distance_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        trace_distance(DensityOperator(np.eye(2) / 2), DensityOperator(np.eye(3) / 3))


def test_pure_trace_distances_match_dense():
    rng = np.random.default_rng(31)
    vectors = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    vectors /= np.linalg.norm(vectors, axis=0)
    vectors[:, 5] = 3j * vectors[:, 0]  # column 0's state, not normalized
    states = [DensityOperator.from_pure(v) for v in vectors.T]
    distances = pure_trace_distances(vectors)
    for i in range(6):
        for j in range(6):
            assert abs(distances[i, j] - trace_distance(states[i], states[j])) <= 1e-12
    trine = np.array([[1.0, -0.5], [0.0, math.sqrt(3.0) / 2.0]])
    expected = math.sqrt(3.0) / 2.0
    assert math.isclose(pure_trace_distances(trine)[0, 1], expected, abs_tol=1e-15)


def test_pair_trace_distances_in_chunks(monkeypatch):
    rng = np.random.default_rng(37)
    dim = 4
    states = [random_pure_state(dim, rng) for _ in range(3)]
    states += [random_mixed_state(dim, dim, rng) for _ in range(3)]
    first, second = np.triu_indices(len(states), 1)
    # Room for two differences per stack: 15 pairs take 8 eigvalsh calls.
    monkeypatch.setattr(linalg, "_STACK_BYTES", 2 * 16 * dim * dim)
    solves = count_eigensolves(monkeypatch)
    chunks = list(pair_trace_distances([s.mat for s in states], first, second))
    assert [len(c) for c in chunks] == [2] * 7 + [1]
    assert len(solves) == 15
    for (i, j), got in zip(zip(first, second), np.concatenate(chunks)):
        assert abs(got - trace_distance(states[i], states[j])) <= 1e-12
    assert list(pair_trace_distances([], first[:0], second[:0])) == []


def test_pair_trace_distances_failure_is_wrapped(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    mats = [np.eye(3) / 3, np.diag([1.0, 0.0, 0.0])]
    with pytest.raises(EigensolverError) as excinfo:
        next(pair_trace_distances(mats, np.array([0]), np.array([1])))
    assert excinfo.value.dim == 3


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(23)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        states = []
        for _ in range(3):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mat = g @ g.conj().T
            states.append(DensityOperator(mat / mat.trace().real))
        a, b, c = states
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_jordan_diagonal_split():
    plus, minus = jordan_parts(HermitianOperator(np.diag([0.5, -0.5])))
    np.testing.assert_allclose(plus.mat, np.diag([0.5, 0.0]), atol=1e-14)
    np.testing.assert_allclose(minus.mat, np.diag([0.0, 0.5]), atol=1e-14)


def test_jordan_psd_input_has_empty_negative_part():
    rho = DensityOperator.from_pure([1.0, 2.0j, -1.0])
    plus, minus = jordan_parts(rho)
    np.testing.assert_allclose(plus.mat, rho.mat, atol=1e-12)
    assert trace_norm(minus) <= 1e-12


def test_jordan_trine_member_difference():
    # First trine state minus the ensemble average I/2: parts of trace 1/2.
    delta = TRINE_FIRST - DensityOperator(np.eye(2) / 2.0)
    plus, minus = jordan_parts(delta)
    assert math.isclose(plus.trace(), 0.5, abs_tol=1e-12)
    assert math.isclose(minus.trace(), 0.5, abs_tol=1e-12)


def test_jordan_random_properties():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(dim, rng)
        plus, minus = jordan_parts(a)
        assert np.max(np.abs(plus.mat - minus.mat - a.mat)) <= 1e-10
        assert hermitian_eigenvalues(plus)[0] >= -1e-12
        assert hermitian_eigenvalues(minus)[0] >= -1e-12
        assert abs(plus.trace() + minus.trace() - trace_norm(a)) <= 1e-10
        assert np.max(np.abs(plus.mat @ minus.mat)) <= 1e-10
