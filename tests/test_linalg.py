"""Tests for the dense Hermitian matrix kernel."""

import math
import sys
import threading

import numpy as np
import pytest

import holevo_bounds
from holevo_bounds import ensemble, linalg
from holevo_bounds.ensemble import DiscreteEnsemble, build_auxiliary
from holevo_bounds.entropy import relative_entropy
from holevo_bounds.gallery import random_mixed_state, random_pure_state
from holevo_bounds.linalg import (
    DensityOperator,
    EigensolverError,
    HermitianOperator,
    pair_trace_distances,
    pure_trace_distances,
    trace_distance,
    trace_norm,
)

from helpers import count_eigensolves, jordan_parts, random_hermitian

TRINE_FIRST = DensityOperator.from_pure([1.0, 0.0])
TRINE_SECOND = DensityOperator.from_pure([-0.5, math.sqrt(3.0) / 2.0])


def _eig(op):
    """linalg._eigh of the one matrix of `op`: (ascending values, vectors)."""
    w, v = linalg._eigh(op.mat[None])
    return w[0], v[0]


def test_public_names_resolve():
    # Every exported name resolves; the eigen-kernel wrappers that no
    # library code called are gone from the package and from linalg.
    for name in holevo_bounds.__all__:
        assert getattr(holevo_bounds, name) is not None
    for name in ("hermitian_eig", "EigenSystem", "hermitian_eigenvalues", "jordan_parts"):
        assert name not in holevo_bounds.__all__
        assert not hasattr(holevo_bounds, name) and not hasattr(linalg, name)


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
    # A difference, and the Jordan parts that the member stage derives,
    # dense and kept as diagonals.
    rho = random_mixed_state(4, 2, 3)
    sigma = random_mixed_state(4, 4, 5)
    half = np.array([0.5, 0.5])
    dense = build_auxiliary(DiscreteEnsemble(half, (rho, sigma)))
    diagonal = build_auxiliary(DiscreteEnsemble(half, (
        DensityOperator.from_diagonal([0.75, 0.25, 0.0]),
        DensityOperator.from_diagonal([0.25, 0.25, 0.5]),
    )))
    assert dense.tau_plus[0].diagonal is None and diagonal.tau_plus[0].diagonal is not None
    parts = (*dense.tau_plus, *dense.tau_minus, *diagonal.tau_plus, *diagonal.tau_minus)
    for op in (rho - sigma, *parts):
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


def test_from_diagonal_checks_its_values():
    rho = DensityOperator.from_diagonal([0.25, 0.0, 0.75])
    assert rho.dim == 3 and rho.trace() == 1.0
    assert rho.spectrum is rho.diagonal  # the diagonal itself, in its own order
    np.testing.assert_array_equal(rho.spectrum, [0.25, 0.0, 0.75])
    assert not rho.diagonal.flags.writeable
    np.testing.assert_array_equal(rho.mat, np.diag([0.25, 0.0, 0.75]))
    assert not rho.mat.flags.writeable and rho.mat is rho.mat
    DensityOperator.from_diagonal(np.array([1.0 + 5e-11, -5e-11]))
    for values, message in (
        ([[0.5, 0.5]], "1-d"),
        ([], "1-d"),
        ([0.5, 0.5 + 1e-3j], "real"),
        ([0.5, np.nan], "finite"),
        ([1.5, -0.5], "positive semidefinite"),
        ([0.6, 0.6], "trace"),
    ):
        with pytest.raises(ValueError, match=message):
            DensityOperator.from_diagonal(values)
    # A checked matrix with no off-diagonal entry is kept as its diagonal too.
    op = HermitianOperator(np.diag([2.0, -1.0]).astype(complex))
    np.testing.assert_array_equal(op.diagonal, [2.0, -1.0])
    assert HermitianOperator(np.array([[1.0, 0.5], [0.5, 1.0]])).diagonal is None


def test_from_diagonal_owns_its_values():
    # The checked state keeps a copy: the caller's array stays writable, and
    # writing to it afterwards cannot change the state.
    v = np.array([0.5, 0.5])
    DensityOperator.from_diagonal(v)
    assert v.flags.writeable
    base = np.eye(3)
    rho = DensityOperator.from_diagonal(base[0])
    base[0, 0], base[0, 1] = 5.0, -4.0
    np.testing.assert_array_equal(rho.diagonal, [1.0, 0.0, 0.0])
    assert rho.spectrum is rho.diagonal and rho.trace() == 1.0


def test_eig_diagonal():
    values, _ = _eig(HermitianOperator(np.diag([1.0, 0.0])))
    np.testing.assert_allclose(values, [0.0, 1.0])


def test_eig_scalar_matrix():
    values, _ = _eig(DensityOperator(np.eye(2) / 2.0))
    np.testing.assert_allclose(values, [0.5, 0.5])


def test_eig_half_pauli_x():
    # 2x2 closed form: eigenvalues -1/2 and 1/2.
    op = HermitianOperator(np.array([[0.0, 0.5], [0.5, 0.0]]))
    values, _ = _eig(op)
    np.testing.assert_allclose(values, [-0.5, 0.5], atol=1e-14)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8, 17, 32):
        a = random_hermitian(dim, rng)
        values, vectors = _eig(a)
        recon = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(recon - a.mat)) <= 1e-10
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        assert np.all(np.diff(values) >= 0.0)


def test_eigensolver_failure_is_wrapped(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    # Not diagonal: a diagonal input is solved without LAPACK.
    op = HermitianOperator(np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(EigensolverError) as excinfo:
        _eig(op)
    assert excinfo.value.dim == 3
    # The values-only solve of one matrix: no "stacked" in its message.
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    with pytest.raises(EigensolverError, match="^eigenvalue computation failed at dim 3"):
        trace_norm(op)
    # The check of a state names no member either.
    with pytest.raises(EigensolverError, match="^eigenvalue computation failed at dim 3"):
        DensityOperator(op.mat / 3.0)


def test_failed_state_stack_is_solved_one_matrix_at_a_time(monkeypatch):
    # LAPACK fails on the stack but on none of its matrices alone: the checks
    # pass with each matrix's own spectrum, as when they are checked in turn.
    states = [random_mixed_state(4, rank, 11 + rank) for rank in (1, 2, 4)]
    mats = np.stack([state.mat for state in states])
    original = np.linalg.eigvalsh

    def stacks_fail(a, *args, **kwargs):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", stacks_fail)
    spectra, flat = linalg._check_states(mats, range(3))
    assert flat == [False] * 3
    assert np.array_equal(spectra, np.stack([state.spectrum for state in states]))


def test_solved_in_order_under_thread_switching():
    # More workers than cores and a switch interval of 1 us: every task runs
    # exactly once, results arrive in order, and stopping after any prefix
    # leaves no worker running.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    runs: list[int] = []
    outcome: dict[int, list[int]] = {}

    def solve(task):
        runs.append(task)  # list.append is atomic
        return task * task

    def consume():
        for stop in (200, 57, 1, 0):
            got = []
            for value in linalg._solved_in_order(solve, range(200), workers=4):
                if len(got) == stop:
                    break
                got.append(value)
            outcome[stop] = got

    before = threading.active_count()
    try:
        consumer = threading.Thread(target=consume)
        consumer.start()
        consumer.join(timeout=60)
        assert not consumer.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert outcome[200] == [k * k for k in range(200)]
    assert sorted(runs[:200]) == list(range(200))  # the first call's tasks
    for stop in (57, 1, 0):
        assert outcome[stop] == [k * k for k in range(stop)]
    # Each task solved once per call; a stopped call started at most its
    # 4 workers' worth of tasks beyond the ones it yielded.
    assert len(runs) <= 200 + (57 + 4) + (1 + 4) + (0 + 4)
    assert len(runs) >= 200 + 57 + 1
    assert threading.active_count() == before


def test_solved_in_order_raises_in_turn():
    def solve(task):
        if task == 3:
            raise ValueError("task 3")
        return task

    got = []
    before = threading.active_count()
    with pytest.raises(ValueError, match="task 3"):
        for value in linalg._solved_in_order(solve, range(10), workers=2):
            got.append(value)
    assert got == [0, 1, 2]
    assert threading.active_count() == before


DIAGONAL_ENTRIES = [0.5, -2.0, 0.0, 0.5, 3.0, -2.0, 0.0, 1e-11, -1e-11, 0.5]


def test_diagonal_eigenvalues_match_lapack(monkeypatch):
    # The values of an operator kept as its diagonal are that array, unsorted,
    # which trace_norm reads with no solve; its full eigensystem is one
    # LAPACK call on its mat.
    op = HermitianOperator(np.diag(DIAGONAL_ENTRIES))
    expected = np.linalg.eigvalsh(op.mat)
    calls = count_eigensolves(monkeypatch)
    values = op.diagonal
    assert trace_norm(op) == float(np.abs(values).sum()) and calls == []
    lapack, _ = _eig(op)
    assert calls == [len(DIAGONAL_ENTRIES)]
    np.testing.assert_allclose(np.sort(values), expected, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(lapack, expected, rtol=0.0, atol=1e-15)


def test_diagonal_residual_is_checked():
    # A Hermitian operator's diagonal is real after symmetrization, so only
    # an unchecked matrix can carry an imaginary diagonal entry.
    # LAPACK reads the entry's real part; the reconstruction residual then
    # catches it.
    with pytest.raises(EigensolverError) as excinfo:
        linalg._eigh(np.diag([1.0, 2.0 + 1e-6j, 0.0])[None])
    assert excinfo.value.residual == pytest.approx(1e-6)


def test_tiny_off_diagonal_entry_takes_lapack(monkeypatch):
    # Away from the corner entry, so the full off-diagonal count decides.
    mat = np.diag([0.25, 0.5, 0.25]).astype(complex)
    mat[0, 1] = mat[1, 0] = 1e-300
    op, state = HermitianOperator(mat), DensityOperator(mat)
    assert op.diagonal is None and state.diagonal is None
    calls = count_eigensolves(monkeypatch)
    trace_norm(op)
    assert calls == [3]
    relative_entropy(state, state)
    assert calls == [3, 3]


def test_diagonal_jordan_split_matches_dense_formula():
    # The member stage's sign split of a member kept as its diagonal, about
    # a zero centre, against the same matrix about a dense zero centre,
    # which LAPACK splits by the (V w) V^dag formula; the dead-zone entries
    # +-1e-11 join neither part.
    entries = np.array(DIAGONAL_ENTRIES)
    zero = HermitianOperator.from_diagonal(np.zeros(entries.size))
    dense_zero = linalg._derived(HermitianOperator, mat=zero.mat.copy())
    assert zero.diagonal is not None and dense_zero.diagonal is None
    eps, kept, plus, minus, no_stack, _ = ensemble._member_parts(entries[None], zero.diagonal[None])
    dense_eps, dense_kept, _, _, dense_plus, dense_minus = ensemble._member_parts(
        np.diag(entries).astype(complex)[None], dense_zero.mat[None])
    assert no_stack is None and dense_plus is not None
    assert np.array_equal(eps, dense_eps) and np.array_equal(kept, dense_kept)
    assert np.array_equal(np.diag(plus[0]), dense_plus[0])
    assert np.array_equal(np.diag(minus[0]), dense_minus[0])
    assert np.array_equal(plus[0] > 0.0, entries > linalg.PSD_TOL)
    assert np.array_equal(minus[0] > 0.0, entries < -linalg.PSD_TOL)


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


def _scan(states, blocks):
    """pair_trace_distances of one array, `states`, whose member array is
    held as an ensemble holds it: the m x d array of their diagonals when
    every state is kept as one, else the (m, d, d) stack of their matrices."""
    diagonal = all(state.diagonal is not None for state in states)
    members = np.stack([state.diagonal if diagonal else state.mat for state in states])
    spectra = np.stack([state.spectrum for state in states])
    return pair_trace_distances([(members, spectra, blocks)])


def test_pair_trace_distances_in_chunks(monkeypatch):
    rng = np.random.default_rng(37)
    dim = 4
    states = [random_pure_state(dim, rng) for _ in range(3)]
    states += [random_mixed_state(dim, dim, rng) for _ in range(3)]
    first, second = np.triu_indices(len(states), 1)
    pure_pairs = (second < 3).sum()
    assert pure_pairs == 3
    solves = count_eigensolves(monkeypatch)
    # The 3 pairs of pure states take one closed-form stack at no solve.  A
    # dense stack holds the fewest matrices whose rows reach _STACK_ROWS:
    # two differences of 4 rows for 8 rows, three for 9.  The other 12 pairs
    # take 6 or 4 stacks, and one eigensolve per pair either way.
    for rows, sizes in ((2 * dim, [3] + [2] * 6), (2 * dim + 1, [3] + [3] * 4)):
        monkeypatch.setattr(linalg, "_STACK_ROWS", rows)
        solves.clear()
        chunks = list(_scan(states, [(first, second)]))
        assert [len(d) for _, d in chunks] == sizes
        positions = np.concatenate([p for p, _ in chunks])
        assert np.array_equal(positions[:3], np.flatnonzero(second < 3))
        assert np.array_equal(np.sort(positions), np.arange(15))
        assert len(solves) == 15 - pure_pairs
        for k, got in zip(positions, np.concatenate([d for _, d in chunks])):
            assert abs(got - trace_distance(states[first[k]], states[second[k]])) <= 1e-12
    # A stack of diagonals holds at most _STACK_BYTES and needs no solve.
    diagonals = [DensityOperator.from_diagonal(rng.dirichlet(np.ones(dim))) for _ in states]
    monkeypatch.setattr(linalg, "_STACK_BYTES", 2 * 8 * dim)
    solves.clear()
    chunks = list(_scan(diagonals, [(first, second)]))
    assert [len(d) for _, d in chunks] == [2] * 7 + [1]
    assert solves == []
    for (i, j), got in zip(zip(first, second), np.concatenate([d for _, d in chunks])):
        assert got == 0.5 * np.abs(diagonals[i].diagonal - diagonals[j].diagonal).sum()
    empty = np.empty((0, dim))
    assert list(pair_trace_distances([(empty, empty, [(first[:0], second[:0])])])) == []


def test_pair_trace_distances_mixes_stack_kinds(monkeypatch):
    # A stack holds Gram and dense pairs only: its diagonal members take
    # dense stacks like the others, one solve a pair, and only its pairs of
    # two rank-1 members cost none.  An m x d array of rows takes vector
    # stacks of its pairs at no solve.  Every position is filled once,
    # whichever stack holds it.
    rng = np.random.default_rng(41)
    dim = 5
    diagonals = [DensityOperator.from_diagonal(rng.dirichlet(np.ones(dim))) for _ in range(4)]
    ops = [*diagonals, random_mixed_state(dim, 2, rng), random_pure_state(dim, rng)]
    ops[2:2] = [random_mixed_state(dim, dim, rng), random_pure_state(dim, rng)]
    monkeypatch.setattr(linalg, "_STACK_ROWS", 2 * dim)
    monkeypatch.setattr(linalg, "_STACK_BYTES", 3 * 8 * dim)
    solves = count_eigensolves(monkeypatch)
    for states, free in ((ops, 1), (diagonals, 6)):
        first, second = np.triu_indices(len(states), 1)
        order = rng.permutation(first.size)
        first, second = first[order], second[order]
        solves.clear()
        stacks = list(_scan(states, [(first, second)]))
        assert len(solves) == first.size - free
        seen = np.zeros(first.size, dtype=int)
        for positions, distances in stacks:
            seen[positions] += 1
            for k, got in zip(positions, distances):
                assert abs(got - trace_distance(states[first[k]], states[second[k]])) <= 1e-12
        assert np.all(seen == 1)


def test_pair_trace_distances_picks_each_pairs_method(monkeypatch):
    # Shuffled pairs in two blocks over diagonal rank-1, dense pure and dense
    # mixed states, one stack: a pair of rank-1 states costs no solve, every
    # other pair one.  No two pure states are equal, where the closed
    # form's square root would amplify rounding.
    rng = np.random.default_rng(47)
    dim = 5
    ops = [DensityOperator.from_diagonal(np.eye(dim)[k]) for k in (0, 3)]
    ops += [random_pure_state(dim, rng) for _ in range(3)]
    ops += [random_mixed_state(dim, rank, rng) for rank in (2, dim)]
    order = rng.permutation(len(ops))
    ops = [ops[k] for k in order]
    first, second = np.triu_indices(len(ops), 1)
    shuffle = rng.permutation(first.size)
    first, second = first[shuffle], second[shuffle]
    rank_one = order < 5
    free = rank_one[first] & rank_one[second]
    assert free.sum() == 10
    monkeypatch.setattr(linalg, "_STACK_ROWS", 2 * dim)
    solves = count_eigensolves(monkeypatch)
    cut = first.size // 2
    blocks = [(first[:cut], second[:cut]), (first[cut:], second[cut:])]
    stacks = list(_scan(ops, blocks))
    assert len(solves) == first.size - free.sum()
    seen = np.zeros(first.size, dtype=int)
    for positions, distances in stacks:
        seen[positions] += 1
        for k, got in zip(positions, distances):
            assert abs(got - trace_distance(ops[first[k]], ops[second[k]])) <= 1e-12
    assert np.all(seen == 1)


def test_pair_trace_distances_failure_is_wrapped(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    rng = np.random.default_rng(43)
    # Dense states: a pair of diagonals would take the vector stack instead.
    ops = [random_mixed_state(3, 3, rng), random_pure_state(3, rng)]
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    with pytest.raises(EigensolverError) as excinfo:
        next(_scan(ops, [(np.array([0]), np.array([1]))]))
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
    plus, minus = jordan_parts(np.diag([0.5, -0.5]))
    np.testing.assert_allclose(plus, np.diag([0.5, 0.0]), atol=1e-14)
    np.testing.assert_allclose(minus, np.diag([0.0, 0.5]), atol=1e-14)


def test_jordan_psd_input_has_empty_negative_part():
    rho = DensityOperator.from_pure([1.0, 2.0j, -1.0])
    plus, minus = jordan_parts(rho.mat)
    np.testing.assert_allclose(plus, rho.mat, atol=1e-12)
    assert trace_norm(HermitianOperator(minus)) <= 1e-12


def test_jordan_trine_member_difference():
    # First trine state minus the ensemble average I/2: parts of trace 1/2.
    delta = TRINE_FIRST - DensityOperator(np.eye(2) / 2.0)
    plus, minus = jordan_parts(delta.mat)
    assert math.isclose(np.trace(plus).real, 0.5, abs_tol=1e-12)
    assert math.isclose(np.trace(minus).real, 0.5, abs_tol=1e-12)


def test_jordan_random_properties():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(dim, rng)
        plus, minus = jordan_parts(a.mat)
        assert np.max(np.abs(plus - minus - a.mat)) <= 1e-10
        assert np.linalg.eigvalsh(plus)[0] >= -1e-12
        assert np.linalg.eigvalsh(minus)[0] >= -1e-12
        assert abs(np.trace(plus).real + np.trace(minus).real - trace_norm(a)) <= 1e-10
        assert np.max(np.abs(plus @ minus)) <= 1e-10


def test_state_stack_is_checked_block_by_block(monkeypatch):
    # Blocks of two matrices: each matrix is symmetrized and solved exactly
    # as a DensityOperator built from it alone, and a fault in a later block
    # is named after the faults of the blocks before it.
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 2 * 16 * 3 * 3)
    rng = np.random.default_rng(4)
    mats = np.stack([random_mixed_state(3, 1 + k % 3, rng).mat for k in range(5)])
    mats[:, 0, 1] += 1e-12  # Hermitian only within HERMITICITY_TOL
    mats[2] = np.diag([0.25, 0.25, 0.5])
    states = [DensityOperator(mat) for mat in mats]
    stack = mats.copy()
    spectra, flat = linalg._check_states(stack, range(5))
    assert flat == [False, False, True, False, False]
    assert np.array_equal(stack, np.stack([state.mat for state in states]))
    assert np.array_equal(spectra, np.stack([state.spectrum for state in states]))
    faulty = mats.copy()
    faulty[3, 0, 1] += 1e-9
    with pytest.raises(ValueError, match="^member 3: matrix is not Hermitian"):
        linalg._check_states(faulty.copy(), range(5))
    faulty[1] *= 1.0 + 2e-9
    with pytest.raises(ValueError, match="^member 1: state trace"):
        linalg._check_states(faulty, range(5))


def test_state_fault_before_a_failed_solve_is_named_first(monkeypatch):
    # LAPACK fails on member 2 alone, and member 1 is not positive: checked
    # in turn, member 1 fails first, so the single solves before the failed
    # one are checked before its error is raised.
    rng = np.random.default_rng(5)
    mats = np.stack([random_mixed_state(3, 3, rng).mat for _ in range(4)])
    mats[1] = np.diag([0.5 + 1e-9, 0.5, -1e-9]).astype(complex) + 1e-3 * (1 - np.eye(3))
    target = mats[2].copy()
    original = np.linalg.eigvalsh

    def member_two_fails(a, *args, **kwargs):
        if any(np.array_equal(mat, target) for mat in np.reshape(a, (-1, 3, 3))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", member_two_fails)
    with pytest.raises(ValueError, match="^member 1: state is not positive semidefinite"):
        linalg._check_states(mats.copy(), range(4))
    mats[1] = np.eye(3) / 3.0
    with pytest.raises(EigensolverError, match="^member 2: eigenvalue computation failed"):
        linalg._check_states(mats, range(4))


@pytest.mark.parametrize("stack_matrices", [1, 2, 64])
def test_diagonal_flags_match_each_matrix(monkeypatch, stack_matrices):
    # The whole-stack test gives _is_diagonal's flag for every matrix, also
    # when its blocks cut the stack: a NaN or a tiny entry off the diagonal,
    # or one that leaves the corner 0, keeps a matrix dense; a NaN or a 0 on
    # the diagonal does not.
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", stack_matrices * 16 * 3 * 3)
    mats = np.zeros((10, 3, 3), dtype=complex)
    mats[0] = np.diag([0.2, 0.3, 0.5])
    mats[1] = random_mixed_state(3, 2, 7).mat
    mats[2] = np.diag([1.0, 0.0, 0.0])
    mats[3, 0, 1] = 1e-300
    mats[4] = np.diag([np.nan, 0.5, 0.5])
    mats[5, 2, 1] = np.nan
    mats[6, 1, 2] = 1e-20j
    mats[7, 2, 0] = 0.1
    mats[9] = np.diag([0.0, 0.0, 1.0 + 1e-9j])
    flags = linalg._diagonal_flags(mats)
    assert flags.tolist() == [linalg._is_diagonal(mat) for mat in mats]
    assert flags.tolist() == [True, False, True, False, True, False, False, False, True, True]
    one = np.full((4, 1, 1), 0.5 + 0j)
    one[2] = 0.0
    assert linalg._diagonal_flags(one).tolist() == [True] * 4
    assert linalg._diagonal_flags(mats[:0]).tolist() == []
