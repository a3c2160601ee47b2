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

Reports carry measured slacks rather than enforcing the inequalities, so a
violating instance can still be inspected and serialized by the verification
suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .ensemble import (
    AuxiliaryDecomposition,
    DegenerateEnsembleError,
    DiscreteEnsemble,
    _h_terms,
    build_auxiliary,
    holevo_quantity,
    normalized_parts,
)
from .entropy import binary_entropy, shannon_entropy, von_neumann_entropy
from .linalg import (
    DensityOperator,
    hermitian_eig,
    pair_trace_distances,
    pure_trace_distances,
)

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
    and negative parts of rho - sigma, from one eigendecomposition.  The slack
    is nonnegative for all pairs of states, up to floating point.  When
    rho - sigma is numerically zero (the dead zone of normalized_parts) both
    sides collapse to S(rho) and the slack is 0.
    """
    eps, tau_plus, tau_minus = normalized_parts(hermitian_eig(rho - sigma))
    if tau_plus is None:
        s = von_neumann_entropy(rho)
        return FeiReport(eps=eps, lhs=s, rhs=s, slack=0.0)
    lhs = von_neumann_entropy(rho) + eps * von_neumann_entropy(tau_minus)
    rhs = (
        von_neumann_entropy(sigma)
        + eps * von_neumann_entropy(tau_plus)
        + binary_entropy(eps)
    )
    return FeiReport(eps=eps, lhs=lhs, rhs=rhs, slack=rhs - lhs)


def plus_diameter(aux: AuxiliaryDecomposition) -> float:
    """Largest pairwise trace distance among the positive-part states; in
    [0, 1].  Exact: every pair is evaluated unless the metric ceiling
    1 - 1e-12 is reached first.

    Pairs of rank-1 positive parts (an entry in aux.plus_vectors) take the
    closed form sqrt(1 - |<a|b>|^2) from one Gram matrix, with no
    eigensolve.  Every other pair's difference is solved in stacked chunks,
    one eigvalsh call per chunk.  The ceiling is checked after the Gram
    stage and after each chunk.
    """
    ceiling = 1.0 - 1e-12
    taus = aux.tau_plus
    vectors = aux.plus_vectors
    pure = np.array([v is not None for v in vectors], dtype=bool)
    best = 0.0
    if pure.sum() > 1:
        columns = np.stack([v for v in vectors if v is not None], axis=1)
        distances = pure_trace_distances(columns)
        best = float(distances[np.triu_indices(len(distances), 1)].max())
        if best >= ceiling:
            return min(best, 1.0)
    first, second = np.triu_indices(len(taus), 1)
    dense = ~(pure[first] & pure[second])
    mats = [tau.mat for tau in taus]
    for chunk in pair_trace_distances(mats, first[dense], second[dense]):
        best = max(best, float(chunk.max()))
        if best >= ceiling:
            break
    return min(best, 1.0)


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
    return 0.5 * sum(float(wi) * gap * gap for wi, gap in zip(w, aux.minus_gaps))


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
    kept.  Eigensolves for m members: at most 2m + 4 (build_auxiliary's
    m + 4, and m for D) plus, for the diameter C, one per pair that is not
    a pair of rank-1 positive parts, at most m(m-1)/2.  A degenerate
    ensemble takes one per member after the average.
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
    weight_entropy = shannon_entropy(aux.weights)
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
