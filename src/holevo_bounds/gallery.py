"""Named ensembles and generators.

Contains the worked families with known closed-form values (trine states,
orthogonal equiprobable pure states, the truncated thermal-oscillator
ensemble), a quadrature discretizer that turns a parameterized continuous
family into a DiscreteEnsemble, and seeded random generators used by the
property suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import DiscreteEnsemble, _from_rows
from .entropy import as_probability_vector, binary_entropy, eta, gibbs_entropy
from .linalg import DensityOperator, _check_states, _projector, _stacks

_MAX_SERIES_TERMS = 1_000_000


def trine_ensemble() -> DiscreteEnsemble:
    """Three equiprobable qubit pure states 120 degrees apart on a great
    circle; their average is I/2 and their Holevo quantity is ln 2.  The
    rounded states are checked, and |0><0| is kept as a diagonal."""
    half_root3 = math.sqrt(3.0) / 2.0
    vectors = ((1.0, 0.0), (-0.5, half_root3), (-0.5, -half_root3))
    states = tuple(DensityOperator.from_pure(v) for v in vectors)
    labels = tuple(f"trine-{k}" for k in (1, 2, 3))
    return DiscreteEnsemble(np.full(3, 1.0 / 3.0), states, labels=labels)


def orthogonal_ensemble(m: int) -> DiscreteEnsemble:
    """m mutually orthogonal equiprobable pure states (the standard basis of
    dimension m).  The auxiliary-ensemble bound is exactly tight here.  The
    ensemble holds the exact projectors as the rows of one np.eye(m), its
    diagonals, and builds no member object until its states are read: a
    family too large for memory fails at once."""
    if m < 1:
        raise ValueError(f"need at least one state, got m={m}")
    labels = tuple(f"e{k}" for k in range(m))
    return _from_rows(np.full(m, 1.0 / m), np.eye(m), labels=labels)


@dataclass(frozen=True)
class OscillatorEnsembleSpec:
    """Truncated geometric ensemble of Fock states.

    mean_photon_number fixes the geometric ratio q = N/(N+1); cutoff is the
    highest retained level, auto-chosen as the smallest n whose dropped tail
    mass q^(n+1) falls below tail_tol when left as None.
    """

    mean_photon_number: float
    cutoff: int | None = None
    tail_tol: float = 1e-12

    def __post_init__(self):
        _geometric_ratio(self.mean_photon_number)
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must be in (0, 1), got {self.tail_tol!r}")
        if self.cutoff is not None and (
            not isinstance(self.cutoff, int) or self.cutoff < 0
        ):
            raise ValueError(f"cutoff must be a nonnegative integer, got {self.cutoff!r}")

    @property
    def ratio(self) -> float:
        return self.mean_photon_number / (self.mean_photon_number + 1.0)


def _geometric_ratio(n_mean: float) -> float:
    """The ratio q = N/(N+1) of the oscillator ensemble with mean photon
    number N; raises ValueError, naming N, unless N is positive and finite
    and q is below 1."""
    if not n_mean > 0.0:
        raise ValueError(f"mean photon number must be positive, got {n_mean!r}")
    if not math.isfinite(n_mean):
        raise ValueError(f"mean photon number must be finite, got {n_mean!r}")
    q = n_mean / (n_mean + 1.0)
    if not q < 1.0:
        raise ValueError(
            f"mean photon number {n_mean!r} is too large: "
            "its geometric ratio N/(N+1) rounds to 1"
        )
    return q


def _auto_cutoff(q: float, tail_tol: float) -> int:
    n = max(0, math.ceil(math.log(tail_tol) / math.log(q)) - 1)
    while q ** (n + 1) >= tail_tol:
        n += 1
    while n > 0 and q**n < tail_tol:
        n -= 1
    return n


def oscillator_ensemble(spec: OscillatorEnsembleSpec) -> tuple[DiscreteEnsemble, float]:
    """Build the truncated oscillator ensemble; returns (ensemble, tail mass).

    Probabilities are the geometric weights (1-q) q^n renormalized over
    {0..cutoff}; states are the Fock projectors |n><n| at dimension cutoff+1,
    held as orthogonal_ensemble's are.  The dropped tail mass is reported.
    Raises ValueError when an explicit cutoff leaves tail mass >= tail_tol.
    """
    q = spec.ratio
    cutoff = spec.cutoff if spec.cutoff is not None else _auto_cutoff(q, spec.tail_tol)
    tail = q ** (cutoff + 1)
    if tail >= spec.tail_tol:
        raise ValueError(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} >= tail_tol "
            f"{spec.tail_tol:.1e}; need cutoff >= {_auto_cutoff(q, spec.tail_tol)}"
        )
    dim = cutoff + 1
    levels = np.arange(dim)
    probs = (1.0 - q) * q**levels
    probs = probs / probs.sum()
    labels = tuple(f"n={k}" for k in range(dim))
    return _from_rows(probs, np.eye(dim), labels=labels), float(tail)


def oscillator_closed_form(
    mean_photon_number: float, term_tol: float = 1e-10
) -> tuple[float, float]:
    """Series values (chi, chi_hat) for the infinite oscillator ensemble.

    chi is the thermal-state entropy g(N).  chi_hat is the probability-metric
    upper estimate a H({lam_n (1 - lam_n) / a}) + sum_n lam_n h(1 - lam_n),
    with lam_n = (1-q) q^n the member probabilities; a = 2q/(1+q) equals both
    sum_n lam_n (1 - lam_n) and the mean member distance, since the distance
    of member n to the thermal average is exactly 1 - lam_n.

    Both series are summed until a closed-form geometric bound on the
    remainder drops below term_tol, so chi_hat carries at most term_tol of
    truncation error.  Raises ValueError, naming N, when that takes more
    than _MAX_SERIES_TERMS terms: at term_tol 1e-10, from about N = 4.25e4.
    """
    n_mean = float(mean_photon_number)
    q = _geometric_ratio(n_mean)
    if not term_tol > 0.0:
        raise ValueError(f"term_tol must be positive, got {term_tol!r}")
    a = 2.0 * q / (1.0 + q)
    chi = gibbs_entropy(n_mean)
    log_q = math.log(q)
    weight_series = 0.0
    binary_series = 0.0
    lam = 1.0 - q
    for _ in range(_MAX_SERIES_TERMS):
        weight_series += eta(lam * (1.0 - lam) / a)
        binary_series += lam * binary_entropy(1.0 - lam)
        lam *= q
        # Remainder bounds with lam now the first dropped member weight:
        # the binary series tail is at most ln(2) sum_{k} lam q^k, and the
        # weight series tail is dominated termwise by eta(lam q^k / a) once
        # lam/a <= 1/e (eta is increasing below 1/e).
        tail_binary = math.log(2.0) * lam / (1.0 - q)
        c = lam / a
        if c <= 1.0 / math.e:
            tail_weight = eta(c) / (1.0 - q) + c * (-log_q) * q / (1.0 - q) ** 2
            if a * tail_weight + tail_binary < term_tol:
                break
    else:
        raise ValueError(
            f"mean photon number {n_mean:g}: the series does not converge below "
            f"{term_tol:.1e} within its cap of {_MAX_SERIES_TERMS} terms"
        )
    return chi, a * weight_series + binary_series


@dataclass(frozen=True, eq=False)
class ContinuousFamilySpec:
    """Finite quadrature for a parameterized family of states: sample points,
    probability weights, and a map from point to state."""

    points: tuple
    weights: np.ndarray
    state_at: Callable[[object], DensityOperator]

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ValueError("quadrature grid must not be empty")
        weights = as_probability_vector(self.weights)
        if weights.size != len(points):
            raise ValueError(f"{weights.size} weights for {len(points)} grid points")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)


def discretize_continuous(spec: ContinuousFamilySpec) -> DiscreteEnsemble:
    """Evaluate the family on its grid and package it as a DiscreteEnsemble,
    to which every discrete bound then applies directly."""
    states = tuple(spec.state_at(x) for x in spec.points)
    labels = tuple(f"x={x}" for x in spec.points)
    return DiscreteEnsemble(spec.weights, states, labels=labels)


def random_pure_state(dim: int, seed) -> DensityOperator:
    """Haar-uniform pure state: the projector onto a normalized standard
    complex Gaussian vector.  `seed` is anything numpy's default_rng accepts,
    including an existing Generator for sequential draws."""
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    return DensityOperator(_pure(dim, np.random.default_rng(seed)))


def _pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The unchecked matrix of random_pure_state(dim, rng), from its draws."""
    return _projector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_mixed_state(dim: int, rank: int, seed) -> DensityOperator:
    """Ginibre-induced state G G^dag / Tr(G G^dag) with G of shape (dim, rank),
    through the checking constructor, which symmetrizes the rounded product."""
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    return DensityOperator(_ginibre(1, dim, rank, np.random.default_rng(seed))[0])


def _ginibre(count: int, dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """The unchecked matrices of count calls of random_mixed_state(dim, rank,
    rng), from the same draws (each G's real part, then its imaginary part),
    as one (count, dim, dim) stack: drawn and formed a block of
    _stacks(count, dim, "eigh") at a time, so no temporary outgrows a
    block."""
    mats = np.empty((count, dim, dim), dtype=complex)
    for block in _stacks(count, dim, "eigh")[0]:
        part = mats[block]
        draws = rng.standard_normal((len(part), 2, dim, rank))
        g = draws[:, 0] + 1j * draws[:, 1]
        np.matmul(g, g.conj().swapaxes(1, 2), out=part)
        part /= part.trace(axis1=1, axis2=2).real[:, None, None]
    return mats


def random_ensemble(m: int, dim: int, seed) -> DiscreteEnsemble:
    """m full-rank Ginibre states with flat-Dirichlet probabilities;
    deterministic for a fixed integer seed.  The states are those of m
    calls of random_mixed_state(dim, dim, rng), from the same draws, formed
    as one (m, dim, dim) stack a block at a time (_ginibre) and checked as
    one (linalg._check_states): the ensemble holds the stack and builds no
    member object until its states are read."""
    if m < 1:
        raise ValueError(f"need at least one state, got m={m}")
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    probs, mats = _random_members(m, dim, np.random.default_rng(seed))
    spectra, _ = _check_states(mats, range(m))
    return _from_rows(probs, spectra, mats)


def _random_members(m: int, dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The probabilities and the unchecked member matrices of
    random_ensemble(m, dim, rng), from its draws."""
    return as_probability_vector(rng.dirichlet(np.ones(m))), _ginibre(m, dim, dim, rng)
