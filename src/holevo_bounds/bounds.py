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

full_reports is the one place where these formulas are evaluated, once per
group of ensembles of one dimension; full_report is its batch of one, and
the four functions named above return its fields, so each call costs one
report.  Every pair distance behind C comes from
linalg.pair_trace_distances, one pass per group and member kind, which
gives each pair the method linalg._pair_methods gives it and stops each
ensemble's scan where its report alone stops it.  The gaps behind D are
twice the member distances of mu-, whose average is the barycenter.

Reports carry measured slacks rather than enforcing the inequalities, so a
violating instance can still be inspected and serialized by the verification
suites.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate
from dataclasses import dataclass, fields

import numpy as np

from .ensemble import (
    AuxiliaryDecomposition,
    DegenerateEnsembleError,
    DiscreteEnsemble,
    _auxiliaries,
    _h_terms,
    _holevo_quantities,
    _member_parts,
    _minus_gaps,
)
from .entropy import _entropy_of_weights, binary_entropy, von_neumann_entropy
from .linalg import DensityOperator, _groups, pair_trace_distances

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
    """Evaluate the entropic inequality for (rho, sigma): fei_checks of one
    pair.

    eps is the trace distance and tau_plus/tau_minus the unit-trace positive
    and negative parts of rho - sigma.  Only their spectra are read: the
    values-only member stage (ensemble._member_parts, rotate unset) of rho,
    as a one-row array, about sigma gives them from one eigvalsh, with no
    eigenvector and no part rotated back.  The slack
    is nonnegative for all pairs of states, up to floating point.  In the
    dead zone (either part's trace at most EPS_ZERO_TOL) both sides are S(rho), slack 0.
    """
    return fei_checks([(rho, sigma)])[0]


def fei_checks(pairs) -> list[FeiReport]:
    """fei_check of each (rho, sigma) of `pairs`, with one member stage per
    group of pairs of one dimension, taken as rows when rho and sigma are
    both diagonal and as matrices otherwise: the rhos, one row each, each
    about its own sigma (_member_parts' segments), so the dense differences
    of a group are solved for values only, in stacks of _stacks(n, d,
    "eigh").  Each value is that of its pair alone.  Raises ValueError for a
    pair of two dimensions, before anything is solved."""
    keys = []
    for rho, sigma in pairs:
        if rho.dim != sigma.dim:
            raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
        keys.append((rho.dim, rho.diagonal is not None and sigma.diagonal is not None))
    out = [None] * len(pairs)
    for index in _groups(keys):
        rows = keys[index[0]][1]
        members = np.stack([pairs[k][0].diagonal if rows else pairs[k][0].mat for k in index])
        centres = [pairs[k][1] for k in index]
        eps, kept, plus_rows, minus_rows, *_ = _member_parts(
            members, centres, np.arange(len(index)), rotate=False
        )
        retained = np.zeros(len(index), dtype=bool)
        retained[kept] = True
        rank = (np.cumsum(retained) - 1).tolist()  # each retained pair's row of plus_rows
        for j, k in enumerate(index):
            rho, sigma = pairs[k]
            eps_j, s = float(eps[j]), von_neumann_entropy(rho)
            if not retained[j]:
                out[k] = FeiReport(eps=eps_j, lhs=s, rhs=s, slack=0.0)
                continue
            lhs = s + eps_j * _entropy_of_weights(minus_rows[rank[j]])
            rhs = (von_neumann_entropy(sigma) + eps_j * _entropy_of_weights(plus_rows[rank[j]])
                   + binary_entropy(eps_j))
            out[k] = FeiReport(eps=eps_j, lhs=lhs, rhs=rhs, slack=rhs - lhs)
    return out


def plus_diameter(aux: AuxiliaryDecomposition) -> float:
    """Largest pairwise trace distance among the positive-part states; in
    [0, 1].  Exact: every pair is evaluated unless the metric ceiling
    linalg._CEILING (1 - 1e-12) is reached first.  _diameters of one
    ensemble: pair_trace_distances decides each pair's method and where the
    scan stops.  The pairs are generated in blocks of rows (_upper_pairs),
    so a scan that stops early never holds all m(m-1)/2 of them.
    """
    return _diameters([aux])[0]


def _diameters(auxes) -> list[float]:
    """plus_diameter of each of `auxes`, of one dimension: one
    pair_trace_distances pass with running maxima per member kind of the
    mu_plus arrays, over their pairs in _upper_pairs' blocks.  The blocks
    of rows (diagonal parts) start at _ROW_PAIRS pairs and double; those of
    matrix stacks hold _PAIR_BLOCK pairs from the first on."""
    best = [0.0] * len(auxes)
    for index in _groups(aux.mu_plus._members.ndim for aux in auxes):
        mus, maxima = [auxes[t].mu_plus for t in index], [0.0] * len(index)
        first = _ROW_PAIRS if mus[0]._members.ndim == 2 else _PAIR_BLOCK
        starts = accumulate((mu.size for mu in mus), initial=0)
        arrays = [(mu._members, mu._spectra, _upper_pairs(mu.size, start, first))
                  for mu, start in zip(mus, starts)]
        for _ in pair_trace_distances(arrays, maxima):
            pass  # the scan raises maxima[k] to the C of mus[k]
        for t, value in zip(index, maxima):
            best[t] = min(value, 1.0)
    return best


# Largest target of a block of _upper_pairs (2^15 pairs, 512 KB of
# indices), and a matrix scan's first: each further block is one more round
# of dense stacks, and a first block of 64 pairs made C 15% slower at 40 x 48.
_PAIR_BLOCK = 1 << 15
# A row scan's first target.  Its pairs take no eigensolve and the commuting
# examples reach C = 1 at their first pair, so they stop before building the
# rest; from one row, a C = 1 pair a few rows in took twice as long.
_ROW_PAIRS = 64


def _upper_pairs(m: int, offset: int, first: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The index pairs (offset + i, offset + j), 0 <= i < j < m, in
    np.triu_indices(m, 1) order, as blocks of whole rows i: the first holds
    at least `first` pairs, and each later one at least min(twice the one
    before, _PAIR_BLOCK); the last may hold fewer.  With first = _PAIR_BLOCK
    each block ends at the first row that reaches _PAIR_BLOCK pairs."""
    block, start = first, 0
    while start < m - 1:
        stop, count = start, 0
        while stop < m - 1 and count < block:
            count += m - 1 - stop
            stop += 1
        rows = np.arange(start, stop)
        i, j = (rows[:, None] < np.arange(m)).nonzero()
        yield i + (start + offset), j + offset if offset else j
        start, block = stop, min(2 * count, _PAIR_BLOCK)


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
    """Evaluate chi and every bound on `mu` once: full_reports of one
    ensemble.

    A degenerate ensemble (every member difference is numerically zero)
    yields 0 for every field but chi, eps_av, hbar and h_of_eps_av.  Slack
    entries "pinsker_lemma" (chi(mu-) - D) and "audenaert_lemma"
    (C H(weights) - chi(mu+)) expose the two internal inequalities behind
    diameter_bound.

    Every value comes from one build_auxiliary analysis and the spectra it
    kept.  Eigensolves for m members, counted per matrix of a stack: at most
    2m + 4 (build_auxiliary's m + 4, one stacked eigh per block of members,
    and m for D, one per dense difference of mu_minus's member stage) plus,
    for the diameter C, one per pair that is neither a pair of rank-1
    positive parts nor a pair of diagonal ones, at most m(m-1)/2.  A
    degenerate ensemble takes one per member after the average.  An
    ensemble of exactly diagonal members takes none, and builds no d x d
    matrix.  Memory: besides mu, the stacks of mu_plus and mu_minus (2m
    matrices), one member block's temporaries while they are built, and
    then the buffers of C's pair stacks or of D's member blocks;
    linalg._stacks sizes all of these.  A batch of one joins no arrays:
    each stage reads mu's own.
    """
    return full_reports([mu])[0]


def full_reports(ensembles) -> list[BoundReport]:
    """full_report of each of `ensembles`, in one pass per group of
    ensembles of one dimension and member kind (rows or matrices).

    Each stage runs once per group, over the group's arrays end to end: the
    averages, the member stage (_auxiliaries), chi of mu, mu_plus and mu_minus
    (_holevo_quantities), the pairs of C (_diameters) and the gaps of D
    (_minus_gaps, mu_minus's member distances); the dense matrices of a
    stage are solved in the stacks that linalg._stacks plans, or for C,
    linalg._pair_stacks.  A matrix's eigenvalues do not depend on its stack,
    and every per-ensemble value is reduced from that ensemble's own rows in
    its own order, so each report equals full_report of its ensemble alone,
    bit for bit, with the same eigensolves: the batch's count is the sum of
    its ensembles' counts.  Memory, one group at a time: its member arrays
    once more, joined, its part stacks, and its part arrays joined again,
    those of mu_plus for C and the stacks of mu_minus for D; a batch of one
    joins nothing.  The first error raised
    stops the batch; evaluate its ensembles one at a time to find which one
    raised it.
    """
    reports = [None] * len(ensembles)
    for index in _groups((mu.dim, mu._members.ndim) for mu in ensembles):
        for k, report in zip(index, _group_reports([ensembles[k] for k in index])):
            reports[k] = report
    return reports


def _group_reports(mus) -> list[BoundReport]:
    """full_reports of ensembles of one dimension and member kind."""
    chis = _holevo_quantities(mus)
    auxes = _auxiliaries(mus)
    live = [aux for aux in auxes if not isinstance(aux, DegenerateEnsembleError)]
    chi_plus = _holevo_quantities([aux.mu_plus for aux in live])
    chi_minus = _holevo_quantities([aux.mu_minus for aux in live])
    diameters = _diameters(live)
    for aux, gaps in zip(live, _minus_gaps(live)):
        object.__setattr__(aux, "minus_gaps", gaps)
    # A DegenerateEnsembleError carries the member distances too.
    h_terms = _h_terms([(mu.probs, aux.eps, aux.eps_av) for mu, aux in zip(mus, auxes)])
    values = iter(zip(live, chi_plus, chi_minus, diameters))
    return [
        _degenerate_report(chi, aux.eps_av, *h) if isinstance(aux, DegenerateEnsembleError)
        else _report(mu, chi, *h, *next(values))
        for mu, chi, aux, h in zip(mus, chis, auxes, h_terms)
    ]


def _degenerate_report(chi: float, eps_av: float, hbar: float, h_av: float) -> BoundReport:
    kept = {"chi": chi, "eps_av": eps_av, "hbar": hbar, "h_of_eps_av": h_av}
    zeros = {f.name: 0.0 for f in fields(BoundReport) if f.name not in kept}
    return BoundReport(**zeros | kept | {"slacks": dict.fromkeys(SLACK_KEYS, 0.0)})


def _report(mu, chi, hbar, h_av, aux, chi_plus, chi_minus, diameter) -> BoundReport:
    eps_av = aux.eps_av
    weight_entropy = _entropy_of_weights(aux.weights)
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
