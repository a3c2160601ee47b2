"""Shared generators for the test suites."""

from __future__ import annotations

import cmath
import math

import numpy as np

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


def count_constructions(monkeypatch) -> list[str]:
    """Wrap HermitianOperator.__post_init__, the checking constructor, so
    that every checked construction appends its class name to the returned
    list.  DensityOperator's check calls it too; operators built by
    HermitianOperator._derived do not."""
    calls: list[str] = []
    original = HermitianOperator.__post_init__

    def counted(self):
        calls.append(type(self).__name__)
        original(self)

    monkeypatch.setattr(HermitianOperator, "__post_init__", counted)
    return calls


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


def great_circle_spec(n_points: int) -> ContinuousFamilySpec:
    """Uniform quadrature over the equator of the qubit Bloch sphere."""
    angles = tuple(2.0 * math.pi * k / n_points for k in range(n_points))

    def state_at(theta):
        amp = 1.0 / math.sqrt(2.0)
        return DensityOperator.from_pure([amp, amp * cmath.exp(1j * theta)])

    return ContinuousFamilySpec(
        points=angles, weights=np.full(n_points, 1.0 / n_points), state_at=state_at
    )
