"""Shared generators for the test suites."""

from __future__ import annotations

import cmath
import math

import numpy as np

from holevo_bounds import ensemble, linalg
from holevo_bounds import (
    ContinuousFamilySpec,
    DensityOperator,
    DiscreteEnsemble,
    HermitianOperator,
    random_mixed_state,
)


def count_eigensolves(monkeypatch) -> list[int]:
    """Wrap np.linalg.eigvalsh and eigh so that every matrix they solve
    appends its dimension to the returned list.  A stacked call of shape
    (..., d, d) appends one entry per matrix, prod(shape[:-2]) in all, so
    batching cannot hide solves."""
    calls: list[int] = []
    for solver in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, solver)

        def counted(a, *args, _original=original, **kwargs):
            shape = np.shape(a)
            calls.extend([shape[-1]] * math.prod(shape[:-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, solver, counted)
    return calls


def fail_second_stack(monkeypatch) -> list[int]:
    """Wrap np.linalg.eigvalsh so that its second stacked call (an input of
    shape (n, d, d)) raises LinAlgError; returns the list of stack sizes
    seen, the failing one included."""
    stacked: list[int] = []
    original = np.linalg.eigvalsh

    def second_stack_fails(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacked.append(len(a))
            if len(stacked) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", second_stack_fails)
    return stacked


def count_constructions(monkeypatch) -> list[str]:
    """Wrap the checking constructors, the __post_init__ of
    HermitianOperator, DensityOperator and DiscreteEnsemble, so that every
    checked construction appends its class name to the returned list, once:
    a DensityOperator built from its diagonal runs HermitianOperator's too,
    which appends nothing then.  Objects built by linalg._derived call
    none of them."""
    calls: list[str] = []
    for cls in (HermitianOperator, DensityOperator, DiscreteEnsemble):

        def counted(self, _original=cls.__post_init__, _cls=cls):
            if type(self) is _cls:
                calls.append(_cls.__name__)
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


def count_materializations(monkeypatch) -> list[tuple[str, int]]:
    """Wrap linalg._materialize, through which an operator kept as its
    diagonal builds its d x d `mat`, so that every build appends
    (field name, d) to the returned list."""
    calls: list[tuple[str, int]] = []
    original = linalg._materialize

    def counted(owner, name, mat):
        calls.append((name, mat.shape[0]))
        return original(owner, name, mat)

    monkeypatch.setattr(linalg, "_materialize", counted)
    return calls


def count_derived(monkeypatch) -> list[str]:
    """Wrap linalg._derived, the unchecked constructor of every derived
    operator, state and ensemble, in each module that calls it, so that
    every call appends the class name it builds to the returned list."""
    calls: list[str] = []
    original = linalg._derived

    def counted(cls, **fields):
        calls.append(cls.__name__)
        return original(cls, **fields)

    for module in (linalg, ensemble):
        assert module._derived is original
        monkeypatch.setattr(module, "_derived", counted)
    return calls


def jordan_parts(mat) -> tuple[np.ndarray, np.ndarray]:
    """The dense oracle of the split of a Hermitian matrix A into PSD parts
    (A_plus, A_minus) with A = A_plus - A_minus, from numpy alone: one
    np.linalg.eigh, and V diag(w) V^dag, symmetrized, of the eigenvalues
    above PSD_TOL and of the negated ones; eigenvalues within [-PSD_TOL,
    PSD_TOL] join neither part.  The library's own split is its member
    stage, ensemble._member_parts."""
    w, v = np.linalg.eigh(np.asarray(mat))
    parts = []
    for values in (w, -w):
        part = (v * np.where(values > linalg.PSD_TOL, values, 0.0)) @ v.conj().T
        parts.append(0.5 * (part + part.conj().T))
    return parts[0], parts[1]


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianOperator:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(scale * (a + a.conj().T) / 2.0)


def cyclic_orbit_ensemble(dim: int, seed) -> DiscreteEnsemble:
    """Equiprobable orbit of a random state under the cyclic shift.

    The average is shift-invariant, so every member sits at the same trace
    distance from it: an ensemble with equal member distances by symmetry.
    """
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim + 1))
    base = random_mixed_state(dim, rank, rng)
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    states = []
    mat = base.mat
    for _ in range(dim):
        states.append(DensityOperator(mat))
        mat = shift @ mat @ shift.conj().T
    return DiscreteEnsemble(np.full(dim, 1.0 / dim), tuple(states))


def diagonal_average_ensemble(dim: int, seed) -> DiscreteEnsemble:
    """A dense ensemble whose average is exactly diagonal: a state whose only
    off-diagonal entries are (0, 1) and (1, 0), its mirror Z rho Z under
    Z = diag(1, -1, 1, ...) at the same probability, which cancels them in
    the average, and two exactly diagonal members."""
    rng = np.random.default_rng(seed)
    mat = np.diag(rng.dirichlet(np.ones(dim))).astype(complex)
    mat[0, 1] = 0.5 * math.sqrt(mat[0, 0].real * mat[1, 1].real) * cmath.exp(2j * rng.random())
    mat[1, 0] = mat[0, 1].conjugate()
    mirror = mat.copy()
    mirror[0, 1], mirror[1, 0] = -mat[0, 1], -mat[1, 0]
    states = [DensityOperator(mat), DensityOperator(mirror)]
    states += [DensityOperator.from_diagonal(rng.dirichlet(np.ones(dim))) for _ in range(2)]
    return DiscreteEnsemble(np.array([0.3, 0.3, 0.25, 0.15]), tuple(states))


def great_circle_spec(n_points: int) -> ContinuousFamilySpec:
    """Uniform quadrature over the equator of the qubit Bloch sphere."""
    angles = tuple(2.0 * math.pi * k / n_points for k in range(n_points))

    def state_at(theta):
        amp = 1.0 / math.sqrt(2.0)
        return DensityOperator.from_pure([amp, amp * cmath.exp(1j * theta)])

    return ContinuousFamilySpec(
        points=angles, weights=np.full(n_points, 1.0 / n_points), state_at=state_at
    )
