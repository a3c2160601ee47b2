"""Ensembles of quantum states and their auxiliary decompositions.

An ensemble pairs a probability vector with density operators of a common
dimension, and holds its members as one array, stacked once when it is
built (or handed over by _from_rows).  From it we derive the average
state, the Holevo quantity, the per-member trace distances to the average,
and the two auxiliary ensembles built from the normalized positive and
negative parts of rho_i - average.  One member stage, _member_parts,
computes those parts for member rows (by their entries) and member stacks
(by eigensolves) alike, for any number of ensembles at once, each a
segment of rows about its own average; with values only (no
eigenvectors), it gives the member distances of a stack (_distances) and
bounds.fei_checks' spectra.  The gaps of D are twice the member distances
of mu-, whose average is omega.  A batch of ensembles is held as group
arrays (_Parts), with no ensemble object per mu+ or mu-.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .entropy import as_probability_vector, binary_entropy, _row_entropies, _weight_entropies
from .linalg import (
    PSD_TOL, DensityOperator, _derived, _eigh, _eigvalsh, _freeze, _is_diagonal,
    _joined, _solved, _spectral_sum, _stacked_eigvalsh, _stacks,
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
    """A probability vector over same-dimension density operators.  Report
    stages read the members as one read-only array, `diagonals` or else
    `matrices`, and their spectra as the rows of `_spectra`: stacked once by
    the checking constructor, or handed over by _from_rows, whose ensemble
    builds `states` on first read, as views of them."""

    probs: np.ndarray
    states: tuple[DensityOperator, ...]
    labels: tuple[str, ...] | None = None
    # The members' diagonals as the rows of one m x d array, or None when any
    # member is dense; then their matrices as one (m, d, d) stack, else None.
    diagonals: np.ndarray | None = field(init=False, repr=False)
    matrices: np.ndarray | None = field(init=False, repr=False)
    # The members' spectra, in any order, as one m x d array.
    _spectra: np.ndarray = field(init=False, repr=False)

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
        dense = any(state.diagonal is None for state in states)
        diagonals = None if dense else _freeze(np.stack([state.diagonal for state in states]))
        matrices = _freeze(np.stack([state.mat for state in states])) if dense else None
        spectra = _freeze(np.stack([state.spectrum for state in states])) if dense else diagonals
        object.__setattr__(self, "diagonals", diagonals)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "_spectra", spectra)

    def __getattr__(self, name):
        # Reached only for a field not set on the instance: the `states` of an
        # ensemble built by _from_rows, kept once built.
        if name != "states":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        states = tuple(map(_row_state, self._spectra, self._members))
        object.__setattr__(self, "states", states)
        return states

    @property
    def size(self) -> int:
        return self.probs.size

    @property
    def dim(self) -> int:
        return self._spectra.shape[1]

    @cached_property
    def average(self) -> DensityOperator:
        """average_state(self), built on first use and kept."""
        return average_state(self)

    @property
    def _members(self) -> np.ndarray:
        return self.matrices if self.diagonals is None else self.diagonals


def _row_state(row: np.ndarray, member: np.ndarray) -> DensityOperator:
    """The state, built unchecked, with the spectrum `row` that is `member`:
    a diagonal, or a matrix, kept as its diagonal too if exactly diagonal."""
    if member.ndim == 1:
        return _derived(DensityOperator, diagonal=row, spectrum=row)
    diagonal = member.diagonal().real if _is_diagonal(member) else None
    return _derived(DensityOperator, mat=member, diagonal=diagonal, spectrum=row)


def _from_rows(probs: np.ndarray, rows: np.ndarray, members: np.ndarray | None = None, **fields):
    """The ensemble, built unchecked, whose member k has the spectrum rows[k]
    and is members[k]: a matrix of an (m, d, d) stack, or a diagonal (by
    default rows[k]).  `fields` sets the others (labels, or an average)."""
    members = rows if members is None else members
    dense = members.ndim == 3
    return _derived(
        DiscreteEnsemble, probs=probs, _spectra=rows, **fields,
        diagonals=None if dense else members, matrices=members if dense else None,
    )


def average_state(mu: DiscreteEnsemble) -> DensityOperator:
    """The mixture sum(p_i rho_i), built unchecked (_mixtures): a diagonal
    (its own spectrum) when the members or their sum are exactly diagonal,
    else dense with one eigvalsh."""
    sums, spectra, _ = _mixtures([(mu.probs, mu._members)])
    return _row_state(spectra[0], sums[0])


def _mixtures(items) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mixtures of each (probs, members) of `items`, of one dimension
    and kind, as arrays (sums, spectra, flat): probs @ the rows, each its
    own spectrum, or an einsum that sums the matrices in member order, one
    item at a time.  flat marks the sums that are exactly diagonal
    (_is_diagonal), whose spectra are their diagonals; the others are
    solved together (_stacked_eigvalsh)."""
    members = items[0][1]
    sums = np.empty((len(items), *members.shape[1:]), members.dtype)
    flat = np.ones(len(items), dtype=bool)
    for k, (probs, members) in enumerate(items):
        if members.ndim == 2:
            sums[k] = probs @ members
        else:
            sums[k] = np.einsum("k,kij->ij", probs, members)
            flat[k] = _is_diagonal(sums[k])
    if sums.ndim == 2:
        return sums, sums, flat
    spectra = sums.diagonal(axis1=1, axis2=2).real.copy()
    if not flat.all():
        spectra[~flat] = _stacked_eigvalsh(sums[~flat])
    return sums, spectra, flat


def _centres(mus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The averages of `mus`, of one dimension and kind, as _mixtures gives
    them; an average an ensemble holds already is read, not built again."""
    held = [vars(mu).get("average") for mu in mus]
    if all(average is None for average in held):
        return _mixtures([(mu.probs, mu._members) for mu in mus])
    todo = [(mu.probs, mu._members) for mu, average in zip(mus, held) if average is None]
    built = zip(*_mixtures(todo)) if todo else iter(())
    rows = mus[0].diagonals is not None
    columns = [next(built) if average is None else (
        average.diagonal if rows else average.mat, average.spectrum, average.diagonal is not None)
        for average in held]
    return tuple(map(np.array, zip(*columns)))


def _centre(mu: DiscreteEnsemble) -> np.ndarray:
    """mu's average as the one centre of a member stage: its diagonal when
    mu is rows, else its matrix."""
    average = mu.average
    return (average.diagonal if mu.diagonals is not None else average.mat)[None]


def holevo_quantity(mu: DiscreteEnsemble) -> float:
    """The Holevo quantity S(average) - sum(p_i S(rho_i)), in nats.

    Always finite at finite dimension; nonnegative, and bounded by both the
    Shannon entropy of the probabilities and ln(dim).  The members'
    entropies are read from their spectra array, a block of rows at a time.
    """
    return float(_holevo_quantities([mu._spectra], [mu.probs], [0, mu.size],
                                    mu.average.spectrum[None])[0])


def _holevo_quantities(arrays, weights, starts, averages) -> np.ndarray:
    """chi of each ensemble k whose member spectra are the rows starts[k] up
    to starts[k + 1] of `arrays` end to end, with probabilities weights[k]
    and the spectrum averages[k] of its average: S(average) - weights[k] @
    the members' entropies, clipped at 0.  The entropies come from one
    pass over each array's rows (_row_entropies) and one over the averages
    (_weight_entropies); only the dot products go an ensemble at a time."""
    entropies = np.concatenate([_row_entropies(rows) for rows in arrays])
    chi = _weight_entropies(averages.ravel(), [averages.shape[1]] * len(averages))
    chi -= [float(w @ entropies[a:b]) for w, a, b in zip(weights, starts, starts[1:])]
    return np.where(chi > 0.0, chi, 0.0)


def member_epsilons(mu: DiscreteEnsemble) -> tuple[np.ndarray, float]:
    """Trace distances of the members to the average, and their mean.

    Returns (eps, eps_av) with eps_i = (1/2)||rho_i - average||_1 clipped to
    [0, 1] and eps_av = sum(p_i eps_i): _distances of one ensemble, the one
    path of D's gaps too.  Each eps_i is the trace_distance of member i to
    the average, bit for bit.
    """
    eps = _distances(mu._members, _centre(mu), [0, mu.size])
    eps.setflags(write=False)
    return eps, float(mu.probs @ eps)


def _distances(members: np.ndarray, centres: np.ndarray, starts) -> np.ndarray:
    """The trace distance of each member of `members`, of one dimension and
    kind, to its centre, clipped to 1: rows starts[k] up to starts[k + 1]
    take centres[k].  A stack takes one values-only member stage
    (_member_parts, rotate unset); rows are subtracted from their centre a
    _stacks block at a time, so no m x d temporary is made."""
    eps = np.empty(len(members))
    if members.ndim == 3 and len(members):
        return _member_parts(members, centres, starts[:-1], rotate=False)[0]
    for centre, first, stop in zip(centres, starts, starts[1:]):
        rows, out = members[first:stop], eps[first:stop]
        for block in _stacks(len(rows), rows.shape[1])[0]:
            np.minimum(0.5 * np.abs(rows[block] - centre).sum(axis=1), 1.0, out=out[block])
    return eps


def mean_binary_entropy(mu: DiscreteEnsemble) -> float:
    """Mean binary entropy sum(p_i h(eps_i)) of the member distances.

    By concavity of h this never exceeds h(eps_av).
    """
    eps, eps_av = member_epsilons(mu)
    return _h_terms([mu.probs], eps, [0, mu.size], [eps_av])[0][0]


def _h_terms(weights, eps, starts, eps_av) -> tuple[list[float], list[float]]:
    """(hbar, h(eps_av)) of each ensemble k whose member distances are
    eps[starts[k]:starts[k + 1]], with probabilities weights[k] and mean
    eps_av[k]: hbar = weights[k] @ the row entropies of [eps_i, 1 - eps_i],
    from one pass over every row, and its concavity ceiling."""
    entropies = _row_entropies(np.column_stack((eps, 1.0 - eps)))
    hbar = [float(w @ entropies[a:b]) for w, a, b in zip(weights, starts, starts[1:])]
    return hbar, [binary_entropy(min(value, 1.0)) for value in eps_av]


@dataclass(frozen=True, eq=False)
class AuxiliaryDecomposition:
    """Normalized Jordan parts of every rho_i - average, as two ensembles.

    mu_plus/mu_minus/weights cover only the retained members, outside the
    dead zone (where either part's trace is at most EPS_ZERO_TOL); `retained`
    maps them back to original member indices, and `probs`/`eps` keep the
    full original vectors.  tau_plus, tau_minus and omega read the states of
    mu_plus and mu_minus and the average of mu_minus, which equals mu_plus's
    in exact arithmetic; `average_match_residual` is their computed gap.
    omega is mu_minus's centre, so the gaps of D are twice mu_minus's member
    distances (minus_gaps).
    """

    probs: np.ndarray
    eps: np.ndarray
    eps_av: float
    retained: tuple[int, ...]
    weights: np.ndarray
    mu_plus: DiscreteEnsemble
    mu_minus: DiscreteEnsemble
    average_match_residual: float

    tau_plus = property(lambda self: self.mu_plus.states)
    tau_minus = property(lambda self: self.mu_minus.states)
    omega = property(lambda self: self.mu_minus.average)

    @cached_property
    def minus_gaps(self) -> tuple[float, ...]:
        """Trace-norm gaps ||tau_i^minus - omega||_1 (_minus_gaps of mu_minus
        alone), computed on first use, then kept."""
        minus = self.mu_minus
        return tuple(_minus_gaps(minus._members, _centre(minus), [0, minus.size]).tolist())


def _minus_gaps(members: np.ndarray, omegas: np.ndarray, starts) -> np.ndarray:
    """The gaps ||tau_i^minus - omega||_1 of mu_minus arrays end to end, rows
    starts[k] up to starts[k + 1] about omegas[k]: omega is mu_minus's
    average, so each gap is twice a member distance of mu_minus
    (_distances)."""
    return 2.0 * _distances(members, omegas, starts)


def build_auxiliary(mu: DiscreteEnsemble) -> AuxiliaryDecomposition:
    """Construct the auxiliary ensembles {p_i eps_i / eps_av, tau_i^(+/-)}.

    tau_i^+ and tau_i^- are the positive and negative parts of
    rho_i - average, each normalized to unit trace (the trace of either part
    equals eps_i in exact arithmetic).  A member is dropped in the dead
    zone, where the trace of either part is at most EPS_ZERO_TOL, and the
    weights p_i eps_i of the others are renormalized to sum 1.  Raises
    DegenerateEnsembleError when eps_av <= EPS_ZERO_TOL or every member is
    dropped.  This is the view of one ensemble's _auxiliaries arrays:
    mu_plus and mu_minus are built by _from_rows from its part rows (their
    spectra) and part members, of mu's kind, with their averages; they
    build their states on first read.

    Eigensolves: at most m + 4 for m members, counted per matrix of a
    stack.  One for mu's average unless mu holds it already; one per member
    of a stack, which gives eps_i, the spectra of tau_i^(+/-) and the
    eigenvectors that rotate them back, one stacked eigh per block; one
    each for the averages of mu_plus and mu_minus, and one for their
    residual, unless exactly diagonal.  When mu.diagonals is not None the
    stage takes none and builds no d x d matrix: mu_plus and mu_minus keep
    _member_parts' row arrays as their diagonals.  Besides those two
    arrays, and the two stacks of parts with the kept members' eigenvectors
    before them, the stage holds one block's temporaries at a time (at most
    _STACK_BYTES for a block of rows, about five of _BLOCK_BYTES for a block
    of matrices, on each of the _WORKERS threads when _stacks threads
    them), and no m x d temporary.
    """
    parts = _auxiliaries([mu])
    if parts.errors[0] is not None:
        raise parts.errors[0]
    n = len(parts.weights)

    def side(rows, members, averages, spectra):
        return _from_rows(parts.weights, rows[:n], members[:n],
                          average=_row_state(spectra[0], averages[0]))

    return AuxiliaryDecomposition(
        probs=mu.probs,
        eps=parts.eps,
        eps_av=parts.eps_av[0],
        retained=tuple(parts.kept.tolist()),  # the rows of mu alone
        weights=parts.weights,
        mu_plus=side(parts.plus_rows, parts.plus, parts.pluses, parts.plus_spectra),
        mu_minus=side(parts.minus_rows, parts.minus, parts.omegas, parts.omega_spectra),
        average_match_residual=float(parts.residuals[0]),
    )


class _Parts(NamedTuple):
    """_auxiliaries' arrays for a group of E ensembles, of which L are live
    (not degenerate), with n parts in all: the first three per ensemble,
    eps per member, then live and cuts, the live ensembles and where each
    one's parts start (L + 1 offsets), then seven per part, and the rest per
    live ensemble."""

    spectra: np.ndarray  # each average's spectrum, E x d
    eps_av: list[float]
    errors: list  # each ensemble's DegenerateEnsembleError, or None
    eps: np.ndarray  # every member's distance to its average, end to end
    live: list[int]
    cuts: list[int]
    kept: np.ndarray  # each part's member, by its row in the group's members
    probs: np.ndarray  # each part's member probability
    weights: np.ndarray  # p_i eps_i / eps_av, summing to 1 per live ensemble
    plus_rows: np.ndarray  # the spectra of tau^+, n x d
    minus_rows: np.ndarray
    plus: np.ndarray  # tau^+ as members: an (n, d, d) stack, or plus_rows
    minus: np.ndarray
    pluses: np.ndarray  # the averages of mu_plus, as _mixtures gives them
    plus_spectra: np.ndarray
    omegas: np.ndarray  # the averages of mu_minus
    omega_spectra: np.ndarray
    residuals: np.ndarray  # average_match_residual, L of them


def _auxiliaries(mus) -> _Parts:
    """build_auxiliary of each ensemble of `mus`, of one dimension and all
    with member rows or all with member stacks, as group arrays (_Parts),
    each stage run once over all of them: their averages (_centres), one
    member stage over their member arrays end to end (_member_parts, one
    segment each), and the averages of mu_plus and mu_minus (omega) and
    their residuals, the dense ones solved as one stack each.  No object is
    built per ensemble but its DegenerateEnsembleError, not raised.
    Eigensolves and values are those of each ensemble alone: its scalars
    (eps_av, the weights' sum) are reduced from its own rows, in its own
    order, and the rest is elementwise."""
    starts = [0, *accumulate(mu.size for mu in mus)]
    centres, spectra, _ = _centres(mus)
    eps, kept, plus_rows, minus_rows, plus, minus = _member_parts(
        _joined([mu._members for mu in mus]), centres, starts[:-1]
    )
    eps.setflags(write=False)
    probs = _joined([mu.probs for mu in mus])[kept]
    raw = probs * eps[kept]
    first = np.searchsorted(kept, starts).tolist()  # each ensemble's first part
    eps_av, errors, live, totals, counts = [], [], [], [], []
    for e, mu in enumerate(mus):
        eps_e, lo, hi = eps[starts[e]:starts[e + 1]], first[e], first[e + 1]
        value = float(mu.probs @ eps_e)
        eps_av.append(value)
        if value <= EPS_ZERO_TOL or lo == hi:
            errors.append(DegenerateEnsembleError(
                f"mean member distance {value:.3e} is below {EPS_ZERO_TOL:.0e}; "
                "all states equal the average" if value <= EPS_ZERO_TOL
                else "every member difference lies inside the eigenvalue dead zone",
                eps=eps_e,
                eps_av=value,
            ))
            continue
        errors.append(None)
        live.append(e)
        totals.append(raw[lo:hi].sum())
        counts.append(hi - lo)
    plus, minus = (rows if stack is None else stack
                   for rows, stack in ((plus_rows, plus), (minus_rows, minus)))
    if sum(counts) < len(kept):
        # A degenerate ensemble with parts: only live ensembles' parts go on.
        keep = np.zeros(len(kept), dtype=bool)
        for e in live:
            keep[first[e]:first[e + 1]] = True
        kept, probs, raw, plus_rows, minus_rows, plus, minus = (
            array[keep] for array in (kept, probs, raw, plus_rows, minus_rows, plus, minus))
    cuts = [0, *accumulate(counts)]
    weights = raw / np.repeat(totals, counts)
    segments = list(zip(cuts, cuts[1:]))
    (pluses, plus_spectra, plus_flat), (omegas, omega_spectra, omega_flat) = (
        _mixtures([(weights[a:b], side[a:b]) for a, b in segments]) if live
        else (centres[:0], spectra[:0], np.ones(0, dtype=bool)) for side in (plus, minus))
    # Each residual is a trace norm: of the diagonal difference when both
    # averages are exactly diagonal, else of one eigvalsh's values.
    gaps = np.abs(plus_spectra - omega_spectra)
    dense = ~(plus_flat & omega_flat)
    if dense.any():
        gaps[dense] = np.abs(_stacked_eigvalsh(pluses[dense] - omegas[dense]))
    residuals = gaps.sum(axis=1)
    return _Parts(spectra, eps_av, errors, eps, live, cuts, kept, probs, weights, plus_rows,
                  minus_rows, plus, minus, pluses, plus_spectra, omegas, omega_spectra, residuals)


def _member_parts(members: np.ndarray, centres, starts=(0,), rotate: bool = True) -> tuple:
    """The member stage: the normalized Jordan parts of every member minus
    its centre, as (eps, kept, plus_rows, minus_rows, plus, minus), for a
    member array, m x d (about diagonal centres) or (m, d, d), that holds k
    segments: rows starts[e] up to the next start (the last up to m) take
    the state centres[e] as their centre.  An ensemble is one segment about
    its average; a batch of ensembles of one dimension and kind (or
    fei_checks' pairs, one row each) is their arrays end to end.

    eps_i is the trace distance, clipped to 1.  A member is dropped in the
    dead zone, where the trace of either part is at most EPS_ZERO_TOL; kept
    lists the n other rows, ascending.  Row q of plus_rows is the spectrum of
    the q-th kept member's tau^+: the signed eigenvalues of its difference,
    at or below PSD_TOL set to 0, over their sum.  minus_rows holds tau^-'s
    (the negated eigenvalues) the same way.  plus and minus are the same
    parts rotated back, two (n, d, d) stacks laid out as the rows, when the
    members are a stack and `rotate` is set; else both are None.

    The signed eigenvalues of an m x d array are its differences; a stack's
    come from one _eigh (_eigvalsh when `rotate` is unset) per block of
    _stacks(m, d, "eigh"), which names the member (its row in its segment)
    whose solve fails.  Each block is split, normalized and compacted to the
    front of plus_rows and minus_rows before the next is solved, keeping
    only its kept eigenvectors, so nothing of m x d is allocated besides the
    row arrays.  The two stacks are allocated after the solves, which keeps
    the dense-files benchmark's peak RSS down, and each block's parts are
    rotated back by one _spectral_sum per stack.
    """
    m, k, d = len(members), len(centres), members.shape[-1]
    eps, keep = np.empty(m), np.empty(m, dtype=bool)
    plus_rows, minus_rows = np.empty((m, d)), np.empty((m, d))
    rotated = []  # (first row, eigenvectors) of each block's kept parts
    stops = [*starts[1:], m]
    dense = members.ndim == 3
    if not dense:
        for centre, first, stop in zip(centres, starts, stops):
            np.subtract(members[first:stop], centre, out=plus_rows[first:stop])
        blocks = ((block, None) for block in _stacks(m, d)[0])
    else:
        owner = np.repeat(np.arange(k), [stop - first for first, stop in zip(starts, stops)])

        def solve(block):
            def name(j):  # a member's name is its row in its segment
                row = block.start + j
                return f"member {row - starts[owner[row]]}"

            diffs = members[block] - centres[owner[block]]
            return block, (_eigh(diffs, name) if rotate else (_eigvalsh(diffs, name), None))

        blocks = _solved(solve, *_stacks(m, d, "eigh"))
    n = 0  # the rows kept so far, compacted to the front of plus_rows and minus_rows
    for block, system in blocks:
        chunk = plus_rows[block]
        if system is not None:
            chunk[...] = system[0]
        negated = minus_rows[n:n + len(chunk)]  # scratch rows for tau^-
        eps[block] = np.minimum(0.5 * np.abs(chunk).sum(axis=1), 1.0)
        np.negative(chunk, out=negated)
        for part in (chunk, negated):
            np.copyto(part, 0.0, where=part <= PSD_TOL)
        traces = chunk.sum(axis=1), negated.sum(axis=1)
        kept = keep[block]
        np.greater(np.minimum(*traces), EPS_ZERO_TOL, out=kept)
        count = int(np.count_nonzero(kept))
        if count < len(chunk):
            chunk, negated, traces = chunk[kept], negated[kept], [t[kept] for t in traces]
        # n <= block.start: numpy buffers an overlap.
        np.divide(chunk, traces[0][:, None], out=plus_rows[n:n + count])
        np.divide(negated, traces[1][:, None], out=minus_rows[n:n + count])
        if rotate and system is not None and count:
            rotated.append((n, system[1] if count == len(kept) else system[1][kept]))
        n += count
        system = None  # the block's solve temporaries go before the next block is solved
    del chunk, negated, part  # no view of the arrays may outlive their resize
    plus_rows.resize((n, d), refcheck=False)
    minus_rows.resize((n, d), refcheck=False)
    plus = minus = None
    if rotate and dense:
        plus, minus = np.empty((n, d, d), complex), np.empty((n, d, d), complex)
        while rotated:  # each block's eigenvectors go once its parts are rotated back
            first, vectors = rotated.pop()
            rows = slice(first, first + len(vectors))
            _spectral_sum(vectors, plus_rows[rows], out=plus[rows])
            _spectral_sum(vectors, minus_rows[rows], out=minus[rows])
    return eps, np.flatnonzero(keep), plus_rows, minus_rows, plus, minus
