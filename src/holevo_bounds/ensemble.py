"""Ensembles of quantum states and their auxiliary decompositions.

An ensemble pairs a probability vector with density operators of a common
dimension.  From it we derive the average state, the Holevo quantity, the
per-member trace distances to the average, and the two auxiliary ensembles
built from the normalized positive and negative parts of rho_i - average.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import as_probability_vector, binary_entropy, von_neumann_entropy
from .linalg import (
    PSD_TOL, DensityOperator, EigenSystem, hermitian_eig, jordan_split, trace_distance,
    trace_norm,
)

# Member distances at or below this count as exactly zero.
EPS_ZERO_TOL = 1e-12
# Largest average_match_residual that `verify bounds` accepts: the trace-norm
# gap between the two auxiliary ensembles' averages, 0 in exact arithmetic.
AVERAGE_MATCH_TOL = 1e-9


class DegenerateEnsembleError(ValueError):
    """Every state equals the average: the auxiliary ensembles are undefined
    (and every bound is trivially 0, which equals the Holevo quantity).

    build_auxiliary attaches the member distances `eps` and their mean
    `eps_av` it computed before finding the degeneracy.
    """

    def __init__(
        self, message: str, *, eps: np.ndarray | None = None, eps_av: float | None = None
    ):
        super().__init__(message)
        self.eps = eps
        self.eps_av = eps_av


@dataclass(frozen=True, eq=False)
class DiscreteEnsemble:
    """A probability vector over same-dimension density operators."""

    probs: np.ndarray
    states: tuple[DensityOperator, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        probs = as_probability_vector(self.probs)
        states = tuple(self.states)
        if not states:
            raise ValueError("ensemble needs at least one state")
        if len(states) != probs.size:
            raise ValueError(f"{probs.size} probabilities for {len(states)} states")
        for k, state in enumerate(states):
            if not isinstance(state, DensityOperator):
                raise TypeError(f"member {k} is not a DensityOperator")
            if state.dim != states[0].dim:
                raise ValueError(f"member {k} has dim {state.dim}, expected {states[0].dim}")
        if self.labels is not None:
            labels = tuple(str(label) for label in self.labels)
            if len(labels) != len(states):
                raise ValueError(
                    f"{len(labels)} labels for {len(states)} states"
                )
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @cached_property
    def average(self) -> DensityOperator:
        """average_state(self), built on first use and kept."""
        return average_state(self)


def average_state(mu: DiscreteEnsemble) -> DensityOperator:
    """The probability-weighted mixture sum(p_i rho_i)."""
    acc = np.zeros((mu.dim, mu.dim), dtype=complex)
    for p, state in zip(mu.probs, mu.states):
        acc += p * state.mat
    return DensityOperator(acc)


def holevo_quantity(mu: DiscreteEnsemble) -> float:
    """The Holevo quantity S(average) - sum(p_i S(rho_i)), in nats.

    Always finite at finite dimension; nonnegative, and bounded by both the
    Shannon entropy of the probabilities and ln(dim).
    """
    avg = von_neumann_entropy(mu.average)
    members = sum(p * von_neumann_entropy(s) for p, s in zip(mu.probs, mu.states))
    val = avg - float(members)
    return val if val > 0.0 else 0.0


def member_epsilons(mu: DiscreteEnsemble) -> tuple[np.ndarray, float]:
    """Trace distances of the members to the average, and their mean.

    Returns (eps, eps_av) with eps_i = (1/2)||rho_i - average||_1 clipped to
    [0, 1] and eps_av = sum(p_i eps_i).
    """
    eps = np.clip([trace_distance(s, mu.average) for s in mu.states], 0.0, 1.0)
    eps.setflags(write=False)
    return eps, float(mu.probs @ eps)


def mean_binary_entropy(mu: DiscreteEnsemble) -> float:
    """Mean binary entropy sum(p_i h(eps_i)) of the member distances.

    By concavity of h this never exceeds h(eps_av).
    """
    return _h_terms(mu.probs, *member_epsilons(mu))[0]


def _h_terms(probs: np.ndarray, eps: np.ndarray, eps_av: float) -> tuple[float, float]:
    """hbar = sum(p_i h(eps_i)) and its concavity ceiling h(eps_av)."""
    hbar = float(sum(p * binary_entropy(e) for p, e in zip(probs, eps)))
    return hbar, binary_entropy(min(eps_av, 1.0))


def normalized_parts(
    system: EigenSystem,
) -> tuple[float, DensityOperator | None, DensityOperator | None]:
    """(eps, tau_plus, tau_minus) for the difference of two states whose
    eigendecomposition is `system`: eps is its trace distance, clipped to 1,
    and tau_plus/tau_minus its positive and negative parts, each normalized
    to unit trace.  Both parts are None in the dead zone, where eps or the
    trace of either part is at most EPS_ZERO_TOL: the difference is then
    numerically indistinguishable from zero.  The parts are not re-validated:
    their spectra are the split eigenvalues of `system` over their traces.
    """
    eps = min(0.5 * float(np.abs(system.eigenvalues).sum()), 1.0)
    if eps <= EPS_ZERO_TOL:
        return eps, None, None
    plus, minus = jordan_split(system)
    tr_plus, tr_minus = plus.trace(), minus.trace()
    if min(tr_plus, tr_minus) <= EPS_ZERO_TOL:
        return eps, None, None
    w = system.eigenvalues  # ascending, so the negative part's is reversed
    spec_plus = np.where(w > PSD_TOL, w, 0.0) / tr_plus
    spec_minus = np.where(w < -PSD_TOL, -w, 0.0)[::-1] / tr_minus
    tau_plus = DensityOperator._derived(plus.mat / tr_plus, spectrum=spec_plus)
    tau_minus = DensityOperator._derived(minus.mat / tr_minus, spectrum=spec_minus)
    return eps, tau_plus, tau_minus


def distance_weights(probs: np.ndarray, eps: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Weights p_i eps_i / eps_av of the auxiliary ensembles.

    Members with eps_i <= EPS_ZERO_TOL carry zero weight and are dropped;
    returns (retained original indices, weights renormalized to exact sum 1).
    """
    keep = np.flatnonzero(eps > EPS_ZERO_TOL)
    raw = probs[keep] * eps[keep]
    return tuple(int(i) for i in keep), raw / raw.sum()


@dataclass(frozen=True, eq=False)
class AuxiliaryDecomposition:
    """Normalized Jordan parts of every rho_i - average, as two ensembles.

    tau_plus/tau_minus/weights cover only the retained members (those with
    eps_i > EPS_ZERO_TOL); `retained` maps their positions back to original
    member indices, and `probs`/`eps` keep the full original vectors.  The
    averages of mu_plus and mu_minus coincide in exact arithmetic; `omega` is
    the computed average of mu_minus and `average_match_residual` the
    trace-norm gap to the average of mu_plus.

    `plus_vectors` runs parallel to tau_plus.  Where the positive part of
    rho_i - average has rank 1 (exactly one eigenvalue above PSD_TOL, as
    for every pure member), tau_i^+ is the pure state of the unit vector
    kept there; elsewhere the entry is None.
    """

    probs: np.ndarray
    eps: np.ndarray
    eps_av: float
    retained: tuple[int, ...]
    weights: np.ndarray
    tau_plus: tuple[DensityOperator, ...]
    tau_minus: tuple[DensityOperator, ...]
    mu_plus: DiscreteEnsemble
    mu_minus: DiscreteEnsemble
    omega: DensityOperator
    average_match_residual: float
    plus_vectors: tuple[np.ndarray | None, ...]

    @cached_property
    def minus_gaps(self) -> tuple[float, ...]:
        """Trace-norm gaps ||tau_i^minus - omega||_1, one eigensolve per
        retained member on first use, then kept."""
        return tuple(trace_norm(tau - self.omega) for tau in self.tau_minus)


def build_auxiliary(mu: DiscreteEnsemble) -> AuxiliaryDecomposition:
    """Construct the auxiliary ensembles {p_i eps_i / eps_av, tau_i^(+/-)}.

    tau_i^+ and tau_i^- are the positive and negative parts of
    rho_i - average, each normalized to unit trace (the trace of either part
    equals eps_i in exact arithmetic).  Raises DegenerateEnsembleError when
    eps_av <= EPS_ZERO_TOL.

    Eigensolves: at most m + 4 for m members.  One for mu's average unless
    mu holds it already; one eigh per member, solved one at a time, which
    gives eps_i, both Jordan parts, the spectra of tau_i^(+/-) and, for a
    rank-1 positive part, the unit vector kept in `plus_vectors`; one each
    for the averages of mu_plus and mu_minus, and one for their residual.
    """
    eps = np.zeros(mu.size)
    tau_plus: list[DensityOperator] = []
    tau_minus: list[DensityOperator] = []
    plus_vectors: list[np.ndarray | None] = []
    usable: list[int] = []
    for i, state in enumerate(mu.states):
        system = hermitian_eig(state - mu.average)
        eps[i], plus, minus = normalized_parts(system)
        if plus is None:
            continue
        usable.append(i)
        tau_plus.append(plus)
        tau_minus.append(minus)
        # Eigenvalues ascend and the positive part is nonzero, so the largest
        # is above PSD_TOL; the part has rank 1 when no other one is.
        vec = None
        if system.eigenvalues[-2] <= PSD_TOL:
            vec = system.eigenvectors[:, -1].copy()  # keeps no view of system
            vec.setflags(write=False)
        plus_vectors.append(vec)
        del system  # free before the next member's solve: peak memory
    eps.setflags(write=False)
    eps_av = float(mu.probs @ eps)
    if eps_av <= EPS_ZERO_TOL:
        raise DegenerateEnsembleError(
            f"mean member distance {eps_av:.3e} is below {EPS_ZERO_TOL:.0e}; "
            "all states equal the average",
            eps=eps,
            eps_av=eps_av,
        )
    if not usable:
        raise DegenerateEnsembleError(
            "every member difference lies inside the eigenvalue dead zone",
            eps=eps,
            eps_av=eps_av,
        )
    retained, weights = distance_weights(
        mu.probs, np.where(np.isin(np.arange(mu.size), usable), eps, 0.0)
    )
    mu_plus = DiscreteEnsemble(weights, tuple(tau_plus))
    mu_minus = DiscreteEnsemble(weights, tuple(tau_minus))
    return AuxiliaryDecomposition(
        probs=mu.probs,
        eps=eps,
        eps_av=eps_av,
        retained=retained,
        weights=weights,
        tau_plus=mu_plus.states,
        tau_minus=mu_minus.states,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        omega=mu_minus.average,
        average_match_residual=trace_norm(mu_plus.average - mu_minus.average),
        plus_vectors=tuple(plus_vectors),
    )
