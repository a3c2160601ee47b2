"""Upper bounds on the Holevo quantity, and the entropic inequality behind
them, evaluated into slack-carrying reports.

Four bounds are provided, all proven upper bounds on chi:

  aux_bound       eps_av (chi(mu+) - chi(mu-)) + hbar  (tight: equality for
                  orthogonal equiprobable pure ensembles)
  shannon_bound   eps_av H({p_i eps_i / eps_av}) + hbar
  count_bound     eps_av ln(m) + hbar                  (m ensemble states)
  diameter_bound  eps_av C H({p_i eps_i / eps_av}) + hbar - eps_av D

where hbar is the mean binary entropy of the member distances, C is the
trace-distance diameter of the normalized positive parts, and D is a
Pinsker-style spread of the negative parts around their barycenter.  Each
bound also has a variant with hbar replaced by h(eps_av) (never smaller, by
concavity).

full_report is the one place where these formulas are evaluated; the four
functions named above return its fields, so each call costs one report.
Every pair distance behind C and D comes from linalg.pair_trace_distances.

Reports carry measured slacks rather than enforcing the inequalities, so a
violating instance can still be inspected and serialized by the verification
suites.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, fields

import numpy as np

from .ensemble import (
    AuxiliaryDecomposition,
    DegenerateEnsembleError,
    DiscreteEnsemble,
    _h_terms,
    _member_parts,
    build_auxiliary,
    holevo_quantity,
)
from .entropy import _entropy_of_weights, binary_entropy, von_neumann_entropy
from .linalg import DensityOperator, pair_trace_distances

# The bound fields of BoundReport, in report order; each has a slack.
BOUND_KEYS = (
    "aux_bound",
    "aux_bound_hvariant",
    "shannon_bound",
    "shannon_bound_hvariant",
    "count_bound",
    "diameter_bound",
)
SLACK_KEYS = BOUND_KEYS + ("pinsker_lemma", "audenaert_lemma")


@dataclass(frozen=True)
class FeiReport:
    """Both sides of the entropic inequality
    S(rho) + eps S(tau_minus) <= S(sigma) + eps S(tau_plus) + h(eps)
    for a pair of states, with slack = rhs - lhs."""

    eps: float
    lhs: float
    rhs: float
    slack: float


def fei_check(rho: DensityOperator, sigma: DensityOperator) -> FeiReport:
    """Evaluate the entropic inequality for (rho, sigma).

    eps is the trace distance and tau_plus/tau_minus the unit-trace positive
    and negative parts of rho - sigma.  Only their spectra are read: the
    member stage (ensemble._member_parts) of rho, as a one-row array, about
    sigma gives them from one eigensolve, with no part rotated back.  The slack
    is nonnegative for all pairs of states, up to floating point.  In the
    dead zone (either part's trace at most EPS_ZERO_TOL) both sides are S(rho), slack 0.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    row = rho.mat if rho.diagonal is None or sigma.diagonal is None else rho.diagonal
    eps, retained, plus_rows, minus_rows, *_ = _member_parts(row[None], sigma, rotate=False)
    eps = float(eps[0])
    if not retained:
        s = von_neumann_entropy(rho)
        return FeiReport(eps=eps, lhs=s, rhs=s, slack=0.0)
    lhs = von_neumann_entropy(rho) + eps * _entropy_of_weights(minus_rows[0])
    rhs = von_neumann_entropy(sigma) + eps * _entropy_of_weights(plus_rows[0]) + binary_entropy(eps)
    return FeiReport(eps=eps, lhs=lhs, rhs=rhs, slack=rhs - lhs)


def plus_diameter(aux: AuxiliaryDecomposition) -> float:
    """Largest pairwise trace distance among the positive-part states; in
    [0, 1].  Exact: every pair is evaluated unless the metric ceiling
    1 - 1e-12 is reached first.

    pair_trace_distances decides each pair's method: a pair of rank-1 parts
    (every pure member's) takes a closed form, and a pair of diagonal parts
    a vector difference, gathered from mu_plus's member array, both at no
    eigensolve; every other pair takes one.
    The pairs are generated in blocks of rows, so a scan that stops early
    never holds all m(m-1)/2 of them.  The ceiling is checked after each
    stack.
    """
    ceiling = 1.0 - 1e-12
    best, mu = 0.0, aux.mu_plus
    # Closed on an early exit: its worker threads are joined first.
    with closing(pair_trace_distances(mu._members, _upper_pairs(mu.size), mu._spectra)) as stacks:
        for _, distances in stacks:
            best = max(best, float(distances.max()))
            if best >= ceiling:
                break
    return min(best, 1.0)


# Fewest pairs in a block of _upper_pairs, the last excepted: 2^15 pairs,
# 512 KB of indices.
_PAIR_BLOCK = 1 << 15


def _upper_pairs(m: int, block: int = _PAIR_BLOCK) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The index pairs (i, j), 0 <= i < j < m, in np.triu_indices(m, 1)
    order, as blocks of whole rows i with at least `block` pairs each (the
    last block may hold fewer)."""
    start = 0
    while start < m - 1:
        stop, count = start, 0
        while stop < m - 1 and count < block:
            count += m - 1 - stop
            stop += 1
        rows = np.arange(start, stop)
        first, second = np.nonzero(rows[:, None] < np.arange(m))
        yield first + start, second
        start = stop


def pinsker_term(aux: AuxiliaryDecomposition, *, reweighted: bool = False) -> float:
    """Half the weighted mean squared trace-norm spread of the negative parts
    around their barycenter: (1/2) sum_i w_i ||tau_i^minus - omega||_1^2.

    By default w_i are the original member probabilities (dropped members
    contribute zero, matching the eps_i -> 0 limit of their weight); with
    reweighted=True the mu_minus weights p_i eps_i / eps_av are used instead.
    The reweighted form is the termwise Pinsker lower bound on chi(mu_minus);
    the two coincide whenever all member distances are equal.  Both forms
    read the gaps kept on `aux`, so only the first call solves for them.
    """
    w = aux.weights if reweighted else aux.probs[list(aux.retained)]
    return 0.5 * float(w @ np.square(aux.minus_gaps))


@dataclass(frozen=True, eq=False)
class BoundReport:
    """chi, every bound, the intermediate quantities, and per-inequality
    slacks (bound minus chi, plus the two internal lemma slacks).

    hbar is the mean binary entropy of the member distances and h_of_eps_av
    its concavity ceiling h(eps_av); chi_plus/chi_minus are the Holevo
    quantities of the two auxiliary ensembles.
    """

    chi: float
    chi_plus: float
    chi_minus: float
    eps_av: float
    hbar: float
    h_of_eps_av: float
    aux_bound: float
    aux_bound_hvariant: float
    shannon_bound: float
    shannon_bound_hvariant: float
    count_bound: float
    diameter_bound: float
    plus_diameter: float
    pinsker_term: float
    pinsker_term_reweighted: float
    average_match_residual: float
    slacks: dict[str, float]


def full_report(mu: DiscreteEnsemble) -> BoundReport:
    """Evaluate chi and every bound on `mu` once.

    A degenerate ensemble (every member difference is numerically zero)
    yields 0 for every field but chi, eps_av, hbar and h_of_eps_av.  Slack
    entries "pinsker_lemma" (chi(mu-) - D) and "audenaert_lemma"
    (C H(weights) - chi(mu+)) expose the two internal inequalities behind
    diameter_bound.

    Every value comes from one build_auxiliary analysis and the spectra it
    kept.  Eigensolves for m members, counted per matrix of a stack: at most
    2m + 4 (build_auxiliary's m + 4, one stacked eigh per block of members,
    and m for D) plus, for the diameter C, one per pair that is neither a
    pair of rank-1 positive parts nor a pair of diagonal ones, at most
    m(m-1)/2.  A degenerate ensemble takes one per member after the
    average.  An ensemble of exactly diagonal members takes none, and builds
    no d x d matrix.  Memory: besides mu, the stacks of mu_plus and mu_minus
    (2m + 1 matrices), one member block's temporaries while they are built,
    and then the buffers of the pair stacks of C and D; linalg._stacks
    sizes all of these.
    """
    chi = holevo_quantity(mu)
    try:
        aux = build_auxiliary(mu)
    except DegenerateEnsembleError as exc:
        eps_av = exc.eps_av
        hbar, h_av = _h_terms(mu.probs, exc.eps, eps_av)
        kept = {"chi": chi, "eps_av": eps_av, "hbar": hbar, "h_of_eps_av": h_av}
        zeros = {f.name: 0.0 for f in fields(BoundReport) if f.name not in kept}
        return BoundReport(**zeros | kept | {"slacks": dict.fromkeys(SLACK_KEYS, 0.0)})
    eps_av = aux.eps_av
    hbar, h_av = _h_terms(aux.probs, aux.eps, eps_av)
    chi_plus = holevo_quantity(aux.mu_plus)
    chi_minus = holevo_quantity(aux.mu_minus)
    weight_entropy = _entropy_of_weights(aux.weights)
    diameter = plus_diameter(aux)
    pinsker = pinsker_term(aux)
    core = eps_av * (chi_plus - chi_minus)
    lead = eps_av * weight_entropy
    bounds = {
        "aux_bound": core + hbar,
        "aux_bound_hvariant": core + h_av,
        "shannon_bound": lead + hbar,
        "shannon_bound_hvariant": lead + h_av,
        "count_bound": eps_av * math.log(mu.size) + hbar,
        "diameter_bound": eps_av * diameter * weight_entropy + hbar - eps_av * pinsker,
    }
    slacks = {key: value - chi for key, value in bounds.items()}
    slacks["pinsker_lemma"] = chi_minus - pinsker
    slacks["audenaert_lemma"] = diameter * weight_entropy - chi_plus
    return BoundReport(
        chi=chi,
        chi_plus=chi_plus,
        chi_minus=chi_minus,
        eps_av=eps_av,
        hbar=hbar,
        h_of_eps_av=h_av,
        plus_diameter=diameter,
        pinsker_term=pinsker,
        pinsker_term_reweighted=pinsker_term(aux, reweighted=True),
        average_match_residual=aux.average_match_residual,
        slacks=slacks,
        **bounds,
    )


def aux_bound(mu: DiscreteEnsemble) -> tuple[float, float]:
    """(aux_bound, aux_bound_hvariant) of full_report(mu)."""
    report = full_report(mu)
    return report.aux_bound, report.aux_bound_hvariant


def shannon_bound(mu: DiscreteEnsemble) -> tuple[float, float]:
    """(shannon_bound, shannon_bound_hvariant) of full_report(mu)."""
    report = full_report(mu)
    return report.shannon_bound, report.shannon_bound_hvariant


def count_bound(mu: DiscreteEnsemble) -> tuple[float, float]:
    """count_bound of full_report(mu), and its variant with hbar replaced by
    h(eps_av)."""
    report = full_report(mu)
    return report.count_bound, report.count_bound - report.hbar + report.h_of_eps_av


def diameter_bound(mu: DiscreteEnsemble) -> float:
    """diameter_bound of full_report(mu)."""
    return full_report(mu).diameter_bound
