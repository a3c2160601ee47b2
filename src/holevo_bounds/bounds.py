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
group of ensembles of one dimension and member kind: all rows (every
member exactly diagonal) or all stacks, which every stage treats as dense.
full_report is its batch of one, and the four functions named above return
its fields, so each call costs one report.  Every pair distance behind C
comes from linalg.pair_trace_distances, one pass per group, which gives
each pair the method linalg._pair_methods gives it and stops each
ensemble's scan where its report alone stops it.  The gaps behind D are
twice the member distances of mu-, whose average is the barycenter.

Reports carry measured slacks rather than enforcing the inequalities, so a
violating instance can still be inspected and serialized by the verification
suites.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate
from dataclasses import dataclass, fields

import numpy as np

from .ensemble import (
    AuxiliaryDecomposition,
    DiscreteEnsemble,
    _auxiliaries,
    _h_terms,
    _holevo_quantities,
    _member_parts,
    _minus_gaps,
)
from .entropy import _weight_entropies, binary_entropy
from .linalg import DensityOperator, _freeze, _groups, _joined, pair_trace_distances

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
    "eigh").  The entropies of a group's rhos, sigmas and parts come from
    one _weight_entropies pass, and both sides are arrays over the group;
    only h(eps) is taken a pair at a time.  Each value is that of its pair
    alone, bit for bit.  Raises ValueError for a pair of two dimensions,
    before anything is solved."""
    keys = []
    for rho, sigma in pairs:
        if rho.dim != sigma.dim:
            raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
        keys.append((rho.dim, rho.diagonal is not None and sigma.diagonal is not None))
    out = [None] * len(pairs)
    for index in _groups(keys):
        rows = keys[index[0]][1]
        states = [pairs[k][0] for k in index] + [pairs[k][1] for k in index]
        members = np.stack([state.diagonal if rows else state.mat for state in states])
        n, d = len(index), members.shape[-1]
        eps, kept, plus_rows, minus_rows, *_ = _member_parts(
            members[:n], members[n:], range(n), rotate=False
        )
        spectra = np.concatenate([np.stack([state.spectrum for state in states]),
                                  plus_rows, minus_rows])
        s_rho, s_sigma, h_plus, h_minus = np.split(
            _weight_entropies(spectra.ravel(), [d] * len(spectra)), [n, 2 * n, 2 * n + len(kept)])
        # Both sides are S(rho) in the dead zone, and as fei_check's formula elsewhere.
        lhs, rhs, eps_kept = s_rho.copy(), s_rho.copy(), eps[kept]
        lhs[kept] = s_rho[kept] + eps_kept * h_minus
        rhs[kept] = (s_sigma[kept] + eps_kept * h_plus
                     + [binary_entropy(value) for value in eps_kept.tolist()])
        columns = (eps.tolist(), lhs.tolist(), rhs.tolist(), (rhs - lhs).tolist())
        for k, values in zip(index, zip(*columns)):
            out[k] = FeiReport(*values)
    return out


def plus_diameter(aux: AuxiliaryDecomposition) -> float:
    """Largest pairwise trace distance among the positive-part states; in
    [0, 1].  Exact: every pair is evaluated unless the metric ceiling
    linalg._CEILING (1 - 1e-12) is reached first.  _diameters of one
    mu_plus array: pair_trace_distances decides each pair's method and
    where the scan stops.  The pairs are generated in blocks of rows
    (_upper_pairs), so a scan that stops early never holds all m(m-1)/2 of
    them.
    """
    mu = aux.mu_plus
    return _diameters(mu._members, mu._spectra, [0, mu.size])[0]


def _diameters(members: np.ndarray, spectra: np.ndarray, starts) -> list[float]:
    """plus_diameter of each mu_plus array, rows starts[k] up to starts[k +
    1] of the joined `members` and their `spectra`, of one dimension and
    kind: one pair_trace_distances pass with running maxima over the pairs
    of each array in _upper_pairs' blocks.  The blocks of rows start at
    _ROW_PAIRS pairs and double; those of matrix stacks hold _PAIR_BLOCK
    pairs from the first on."""
    if len(starts) < 2:
        return []
    maxima = [0.0] * (len(starts) - 1)
    first = _ROW_PAIRS if members.ndim == 2 else _PAIR_BLOCK
    arrays = [(members[a:b], spectra[a:b], _upper_pairs(b - a, a, first))
              for a, b in zip(starts, starts[1:])]
    for _ in pair_trace_distances(arrays, maxima):
        pass  # the scan raises maxima[k] to the C of array k
    return [min(value, 1.0) for value in maxima]


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
    each block ends at the first row that reaches _PAIR_BLOCK pairs.  The
    first block comes from _first_pairs, built once per (m, first)."""
    block, start = first, 0
    while start < m - 1:
        stop, i, j = _row_pairs(m, start, block) if start else _first_pairs(m, first)
        yield (i + offset, j + offset) if offset else (i, j)
        start, block = stop, min(2 * len(i), _PAIR_BLOCK)


def _row_pairs(m: int, start: int, block: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(stop, i, j): the pairs (i, j) of rows start up to stop of the upper
    triangle of m rows, the fewest whole rows that hold `block` pairs."""
    stop, count = start, 0
    while stop < m - 1 and count < block:
        count += m - 1 - stop
        stop += 1
    i, j = (np.arange(start, stop)[:, None] < np.arange(m)).nonzero()
    i += start
    return stop, i, j


# A report batch's mu+ arrays mostly share a few sizes, so their first
# blocks are built once; an entry holds at most _PAIR_BLOCK pairs and one
# row more, at 16 bytes a pair.
@lru_cache(maxsize=16)
def _first_pairs(m: int, first: int) -> tuple[int, np.ndarray, np.ndarray]:
    """_row_pairs(m, 0, first), its arrays read-only."""
    stop, i, j = _row_pairs(m, 0, first)
    return stop, _freeze(i), _freeze(j)


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
    return _pinsker(w, np.square(aux.minus_gaps))


def _pinsker(weights, squares) -> float:
    """(1/2) weights @ squares: the D term of one ensemble."""
    return 0.5 * float(weights @ squares)


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
    kept.  Eigensolves for m members of a stack, counted per matrix: at
    most 2m + 4 (build_auxiliary's m + 4, one stacked eigh per block of
    members, and m for D, one per member of mu_minus's stack) plus, for the
    diameter C, one per pair that is not a pair of rank-1 positive parts,
    at most m(m-1)/2.  A degenerate ensemble takes one per member after the
    average.  An ensemble of rows (every member exactly diagonal) takes
    none, and builds no d x d matrix.  Memory: besides mu, the stacks of
    mu_plus and mu_minus (2m matrices), one member block's temporaries
    while they are built, and then the buffers of C's pair stacks or of D's
    member blocks; linalg._stacks sizes all of these.  A batch of one joins no arrays:
    each stage reads mu's own.
    """
    return full_reports([mu])[0]


def full_reports(ensembles) -> list[BoundReport]:
    """full_report of each of `ensembles`, in one pass per group of
    ensembles of one dimension and member kind (rows or stacks); the mu_plus
    and mu_minus of a group are of its kind too.

    Each stage runs once per group, over the group's arrays end to end: the
    averages and the member stage (_auxiliaries, which returns them as
    group arrays), chi of mu, mu_plus and mu_minus from one entropy pass
    (_holevo_quantities), the pairs of C (_diameters) and the gaps of D
    (_minus_gaps, mu_minus's member distances), both read from the member
    stage's joined part arrays; the matrices of a stage are solved in the
    stacks that linalg._stacks plans, or for C, linalg._pair_stacks.  Every
    per-ensemble value is an array over the group (_group_reports), and
    each BoundReport is built once, at the end: no mu_plus, mu_minus or
    AuxiliaryDecomposition is built.  A matrix's eigenvalues do not depend
    on its stack, and every per-ensemble sum is reduced from that
    ensemble's own rows in its own order, so each report equals full_report
    of its ensemble alone, bit for bit, with the same eigensolves: the
    batch's count is the sum of its ensembles' counts.  Memory, one group
    at a time: its member arrays once more, joined, and its part arrays and
    stacks; a batch of one joins nothing.  The first error raised stops the
    batch; evaluate its ensembles one at a time to find which one raised
    it.
    """
    reports = [None] * len(ensembles)
    for index in _groups((mu.dim, mu._members.ndim) for mu in ensembles):
        for k, report in zip(index, _group_reports([ensembles[k] for k in index])):
            reports[k] = report
    return reports


def _group_reports(mus) -> list[BoundReport]:
    """full_reports of ensembles of one dimension and member kind.  Every
    value is an array over the group, of its ensembles or of the live ones
    (_Parts.live, those with parts), until each BoundReport is built at the
    end; only the dot products and h(eps_av) go an ensemble at a time."""
    parts = _auxiliaries(mus)
    live, cuts = parts.live, parts.cuts
    segments = list(zip(cuts, cuts[1:]))
    starts = [0, *accumulate(mu.size for mu in mus)]
    # chi of mu, mu_plus and mu_minus, from one entropy pass.
    weights = [parts.weights[a:b] for a, b in segments]
    chis = _holevo_quantities(
        [_joined([mu._spectra for mu in mus]), parts.plus_rows, parts.minus_rows],
        [mu.probs for mu in mus] + weights + weights,
        starts + [starts[-1] + c for c in cuts[1:]] + [starts[-1] + cuts[-1] + c for c in cuts[1:]],
        np.concatenate([parts.spectra, parts.plus_spectra, parts.omega_spectra]),
    )
    plus_at, minus_at = len(mus), len(mus) + len(live)
    chi, chi_plus, chi_minus = chis[:plus_at], chis[plus_at:minus_at], chis[minus_at:]
    hbar, h_av = _h_terms([mu.probs for mu in mus], parts.eps, starts, parts.eps_av)
    kept_chi, kept_hbar, kept_h_av, eps_av = np.array([chi, hbar, h_av, parts.eps_av])[:, live]
    diameter = np.array(_diameters(parts.plus, parts.plus_rows, cuts))
    squares = np.square(_minus_gaps(parts.minus, parts.omegas, cuts))
    pinsker, reweighted = np.array([[_pinsker(w[a:b], squares[a:b]) for a, b in segments]
                                    for w in (parts.probs, parts.weights)])
    weight_entropy = _weight_entropies(parts.weights, [b - a for a, b in segments])
    logs = [math.log(mus[e].size) for e in live]
    core, lead = eps_av * (chi_plus - chi_minus), eps_av * weight_entropy
    bounds = [  # in BOUND_KEYS order
        core + kept_hbar,
        core + kept_h_av,
        lead + kept_hbar,
        lead + kept_h_av,
        eps_av * logs + kept_hbar,
        eps_av * diameter * weight_entropy + kept_hbar - eps_av * pinsker,
    ]
    # BoundReport's fields in order, then the slacks, one row each.
    table = np.array([kept_chi, chi_plus, chi_minus, eps_av, kept_hbar, kept_h_av, *bounds,
                      diameter, pinsker, reweighted, parts.residuals,
                      *(bound - kept_chi for bound in bounds),
                      chi_minus - pinsker, diameter * weight_entropy - chi_plus])  # the two lemmas
    rows, width = iter(table.T.tolist()), len(BOUND_KEYS) + 10  # fields before the slacks
    reports = []
    for error, *scalars in zip(parts.errors, chi.tolist(), parts.eps_av, hbar, h_av):
        if error is not None:
            reports.append(_degenerate_report(*scalars))
            continue
        row = next(rows)
        reports.append(BoundReport(*row[:width], dict(zip(SLACK_KEYS, row[width:]))))
    return reports


def _degenerate_report(chi: float, eps_av: float, hbar: float, h_av: float) -> BoundReport:
    kept = {"chi": chi, "eps_av": eps_av, "hbar": hbar, "h_of_eps_av": h_av}
    zeros = {f.name: 0.0 for f in fields(BoundReport) if f.name not in kept}
    return BoundReport(**zeros | kept | {"slacks": dict.fromkeys(SLACK_KEYS, 0.0)})


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
