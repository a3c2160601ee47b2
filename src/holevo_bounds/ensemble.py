"""Ensembles of quantum states and their auxiliary decompositions.

An ensemble pairs a probability vector with density operators of a common
dimension.  From it we derive the average state, the Holevo quantity, the
per-member trace distances to the average, and the two auxiliary ensembles
built from the normalized positive and negative parts of rho_i - average.
One member stage, _member_parts, computes those parts for diagonal and
dense members alike, and for bounds.fei_check's single pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import as_probability_vector, binary_entropy, von_neumann_entropy, _row_entropies
from .linalg import (
    PSD_TOL, DensityOperator, _derived, _eigh, _eigvalsh, _freeze, _is_diagonal, _solved,
    _spectral_sum, _stacks, pair_trace_distances, trace_norm,
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
    stages read the members as one array, `diagonals` or else `matrices`; one
    built by _from_rows builds `states` on first read, as views of them."""

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

    def __getattr__(self, name):
        # Reached only for a field not set on the instance: the `states` of an
        # ensemble built by _from_rows, kept once built.
        if name != "states" or "matrices" not in vars(self):
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

    @cached_property
    def diagonals(self) -> np.ndarray | None:
        """The members' diagonals as the rows of one read-only m x d array,
        or None when any member is dense.  Stacked on first read and kept,
        unless the ensemble was built from its arrays (_from_rows)."""
        if any(state.diagonal is None for state in self.states):
            return None
        return _freeze(np.stack([state.diagonal for state in self.states]))

    @cached_property
    def matrices(self) -> np.ndarray | None:
        """The members' matrices as one read-only (m, d, d) stack, or None
        exactly when `diagonals` is not.  Stacked (copied) on first read."""
        if self.diagonals is not None:
            return None
        return _freeze(np.stack([state.mat for state in self.states]))

    @property
    def _members(self) -> np.ndarray:
        return self.matrices if self.diagonals is None else self.diagonals

    @cached_property
    def _spectra(self) -> np.ndarray:
        """The members' spectra, in any order, as one read-only m x d array."""
        rows = self.diagonals
        return rows if rows is not None else _freeze(np.stack([s.spectrum for s in self.states]))


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
    """The mixture sum(p_i rho_i), built unchecked: a diagonal (its own
    spectrum) when the members or their sum are exactly diagonal, else dense
    with one eigvalsh."""
    return _mixture(mu.probs, mu._members)


def _mixture(probs: np.ndarray, members: np.ndarray) -> DensityOperator:
    """average_state of a member array: probs @ diagonals, or an einsum that
    sums the matrices in member order."""
    if members.ndim == 2:
        diag = probs @ members
        return _derived(DensityOperator, diagonal=diag, spectrum=diag)
    acc = np.einsum("k,kij->ij", probs, members)
    if _is_diagonal(acc):
        diag = acc.diagonal().real.copy()
        return _derived(DensityOperator, mat=acc, diagonal=diag, spectrum=diag)
    return _derived(DensityOperator, mat=acc, spectrum=_eigvalsh(acc))


def holevo_quantity(mu: DiscreteEnsemble) -> float:
    """The Holevo quantity S(average) - sum(p_i S(rho_i)), in nats.

    Always finite at finite dimension; nonnegative, and bounded by both the
    Shannon entropy of the probabilities and ln(dim).  The members'
    entropies are read from their spectra array, a block of rows at a time.
    """
    val = von_neumann_entropy(mu.average) - float(mu.probs @ _row_entropies(mu._spectra))
    return val if val > 0.0 else 0.0


def member_epsilons(mu: DiscreteEnsemble) -> tuple[np.ndarray, float]:
    """Trace distances of the members to the average, and their mean.

    Returns (eps, eps_av) with eps_i = (1/2)||rho_i - average||_1 clipped to
    [0, 1] and eps_av = sum(p_i eps_i).  Read from the member array: by a
    row subtraction from diagonals, else by one stacked eigvalsh per stack
    of _stacks of matrices - average, with a member taken by its entries
    when it and the average are exactly diagonal (_by_entries).  Each eps_i
    is the trace_distance of member i to the average, bit for bit.
    """
    members, centre = mu._members, mu.average
    m, d = mu.size, mu.dim
    norms = np.empty(m)
    if members.ndim == 2:
        for block in _stacks(m, d)[0]:
            norms[block] = np.abs(members[block] - centre.diagonal).sum(axis=1)
    else:
        solved, flat = np.arange(m), _by_entries(members, centre)
        if flat is not None:
            rows = members.diagonal(axis1=1, axis2=2).real[flat]
            norms[flat] = np.abs(rows - centre.diagonal).sum(axis=1)
            solved = solved[~flat]

        def solve(index):
            diffs = members[index]
            diffs -= centre.mat
            return index, np.abs(_eigvalsh(diffs)).sum(axis=1)

        plan, workers = _stacks(solved.size, d, "eigvalsh")
        for index, values in _solved(solve, [solved[stack] for stack in plan], workers):
            norms[index] = values
    eps = np.clip(0.5 * norms, 0.0, 1.0)
    eps.setflags(write=False)
    return eps, float(mu.probs @ eps)


def mean_binary_entropy(mu: DiscreteEnsemble) -> float:
    """Mean binary entropy sum(p_i h(eps_i)) of the member distances.

    By concavity of h this never exceeds h(eps_av).
    """
    return _h_terms(mu.probs, *member_epsilons(mu))[0]


def _h_terms(probs: np.ndarray, eps: np.ndarray, eps_av: float) -> tuple[float, float]:
    """hbar = sum(p_i h(eps_i)), as probs @ the row entropies of
    [eps_i, 1 - eps_i], and its concavity ceiling h(eps_av)."""
    hbar = float(probs @ _row_entropies(np.column_stack((eps, 1.0 - eps))))
    return hbar, binary_entropy(min(eps_av, 1.0))


@dataclass(frozen=True, eq=False)
class AuxiliaryDecomposition:
    """Normalized Jordan parts of every rho_i - average, as two ensembles.

    mu_plus/mu_minus/weights cover only the retained members, outside the
    dead zone (where either part's trace is at most EPS_ZERO_TOL); `retained`
    maps them back to original member indices, and `probs`/`eps` keep the
    full original vectors.  tau_plus, tau_minus and omega read the states of
    mu_plus and mu_minus and the average of mu_minus, which equals mu_plus's
    in exact arithmetic; `average_match_residual` is their computed gap.
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
        """Trace-norm gaps ||tau_i^minus - omega||_1, twice the distances of
        the pairs (tau_i^minus, omega) from pair_trace_distances, with omega
        in its slot (build_auxiliary).  Computed on first use, then kept."""
        n = self.mu_minus.size
        gaps = np.empty(n)
        block = (np.arange(n), np.full(n, n))
        members, spectra = self.mu_minus._members, self.mu_minus._spectra
        if members.base is None:  # mu_minus was built from states: no slot
            omega = self.omega
            members = np.append(members, [omega.mat if members.ndim == 3 else omega.diagonal], 0)
            spectra = np.append(spectra, [omega.spectrum], 0)
        else:
            members, spectra = members.base, spectra.base
        for positions, distances in pair_trace_distances(members, [block], spectra):
            gaps[positions] = 2.0 * distances
        return tuple(float(gap) for gap in gaps)


def build_auxiliary(mu: DiscreteEnsemble) -> AuxiliaryDecomposition:
    """Construct the auxiliary ensembles {p_i eps_i / eps_av, tau_i^(+/-)}.

    tau_i^+ and tau_i^- are the positive and negative parts of
    rho_i - average, each normalized to unit trace (the trace of either part
    equals eps_i in exact arithmetic).  A member is dropped in the dead
    zone, where the trace of either part is at most EPS_ZERO_TOL, and the
    weights p_i eps_i of the others are renormalized to sum 1.  Raises
    DegenerateEnsembleError when eps_av <= EPS_ZERO_TOL or every member is
    dropped.  mu_plus and mu_minus are built by _from_rows from
    _member_parts' rows, their spectra, and build their states on first read.
    If any retained part is dense, _member_parts has rotated each back into
    a stack, one for each; omega takes the slot after tau^-'s in mu_minus's
    rows and stack.

    Eigensolves: at most m + 4 for m members, counted per matrix of a
    stack.  One for mu's average unless mu holds it already; one per member
    whose difference is dense, which gives eps_i and the spectra of
    tau_i^(+/-), solved a block of members at a time, one stacked eigh per
    block; one each for the averages of mu_plus and mu_minus, and one for
    their residual.  When every retained part is diagonal (always, when
    mu.diagonals is not None) the stage takes none and builds no d x d
    matrix: mu_plus and mu_minus keep _member_parts' row arrays as their
    diagonals.  Besides those two arrays, and the two stacks of dense parts
    with the kept members' eigenvectors before them, the stage holds one
    block's temporaries at a time (at most _STACK_BYTES for a block of
    rows, about five of _BLOCK_BYTES for a block of matrices, on each of the
    _WORKERS threads when _stacks threads them), and no m x d temporary.
    """
    eps, usable, plus_rows, minus_rows, plus, minus = _member_parts(mu._members, mu.average)
    eps.setflags(write=False)
    eps_av = float(mu.probs @ eps)
    if eps_av <= EPS_ZERO_TOL or not usable:
        raise DegenerateEnsembleError(
            f"mean member distance {eps_av:.3e} is below {EPS_ZERO_TOL:.0e}; "
            "all states equal the average" if eps_av <= EPS_ZERO_TOL
            else "every member difference lies inside the eigenvalue dead zone",
            eps=eps,
            eps_av=eps_av,
        )
    raw = mu.probs[usable] * eps[usable]
    weights = raw / raw.sum()
    n = len(usable)
    if plus is None:  # every retained part is diagonal
        plus, minus = plus_rows, minus_rows
    # omega's arrays are views of its slot, as tau^-'s are of theirs.
    average = _mixture(weights, minus[:n])
    minus_rows[n] = average.spectrum
    if minus is not minus_rows:
        minus[n] = average.mat
    omega = _row_state(_freeze(minus_rows)[n], _freeze(minus)[n])
    mu_plus = _from_rows(weights, plus_rows, plus)
    mu_minus = _from_rows(weights, minus_rows[:n], minus[:n], average=omega)
    return AuxiliaryDecomposition(
        probs=mu.probs,
        eps=eps,
        eps_av=eps_av,
        retained=tuple(usable),
        weights=weights,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        average_match_residual=trace_norm(mu_plus.average - omega),
    )


def _by_entries(members: np.ndarray, centre: DensityOperator) -> np.ndarray | None:
    """Which matrices of the (m, d, d) stack `members` have a difference from
    `centre` read from its entries, with no eigensolve: those exactly
    diagonal (_is_diagonal) when the centre is too.  None when the centre is
    dense, and every member's difference takes one."""
    if centre.diagonal is None:
        return None
    return np.fromiter(map(_is_diagonal, members), bool, len(members))


def _member_parts(members: np.ndarray, centre: DensityOperator, rotate: bool = True) -> tuple:
    """The member stage: the normalized Jordan parts of every member -
    centre, as (eps, retained, plus_rows, minus_rows, plus, minus), for an
    ensemble's member array: m x d (about a diagonal centre), or (m, d, d).

    eps_i is the trace distance, clipped to 1.  A member is dropped in the
    dead zone, where the trace of either part is at most EPS_ZERO_TOL.  Row
    k of plus_rows and minus_rows is the spectrum of the k-th retained
    member's tau^+ and tau^-: the signed eigenvalues of its difference, or
    their negatives, at or below PSD_TOL set to 0, over their sum;
    minus_rows has one more row, left for omega.  plus and minus are the
    same parts rotated back, an (n, d, d) and an (n + 1, d, d) stack whose
    last slot is left for omega, when `rotate` is set and any retained part
    is dense; else both are None (fei_check reads the spectra only).

    Step 1 gives the signed eigenvalues: in one subtraction from an array of
    diagonals, else, for each block of _stacks(m, d, "eigh"), from one
    stacked _eigh of the block's differences, which names the member whose
    solve fails.  A stacked member is taken by its entries when it and the
    centre are exactly diagonal (_by_entries); its eigenvectors are the
    basis.  Step 2 runs each block through whole-array operations and
    compacts the kept rows in place; a block's differences and residual
    temporaries go before the next block is solved, and only its kept
    eigenvectors are kept.  Nothing of m x d is allocated besides the row
    arrays, which are shrunk to n before any view of them is made.  Step 3
    allocates the two stacks and rotates each block's kept parts back into
    their slots, one _spectral_sum per block and stack, dropping the block's
    eigenvectors once done.  Allocated before the solves, the stacks raised
    the dense-files benchmark's peak RSS from 67.8 to 69.7 MB, and this
    order read 66.7 MB (in-process replays of seeds 21, 52 and 77, with
    blocks of at most 128 KB).
    """
    m, d = len(members), centre.dim
    eps, keep = np.empty(m), np.empty(m, dtype=bool)
    plus_rows, minus_rows = np.empty((m, d)), np.empty((m + 1, d))
    flat, rotated = None, []  # rotated: (first row, eigenvectors) of each block's kept parts
    if members.ndim == 2:
        np.subtract(members, centre.diagonal, out=plus_rows)
        blocks = ((block, None) for block in _stacks(m, d)[0])
    else:
        flat = _by_entries(members, centre)
        if flat is not None:
            plus_rows[flat] = members.diagonal(axis1=1, axis2=2).real[flat] - centre.diagonal

        def solve(block):
            if flat is None:
                return block, _eigh(members[block] - centre.mat, range(m)[block])
            solved = ~flat[block]
            index = np.flatnonzero(solved) + block.start
            values, vectors = _eigh(members[index] - centre.mat, index)
            if not rotate:
                return block, (values, None)
            # A part taken by its entries rotates back by the identity.
            basis = np.empty((solved.size, d, d), complex)
            basis[...] = np.eye(d)
            basis[solved] = vectors
            return block, (values, basis)

        blocks = _solved(solve, *_stacks(m, d, "eigh"))
    n = 0
    for block, system in blocks:
        chunk = plus_rows[block]
        if system is not None:
            chunk[slice(None) if flat is None else ~flat[block]] = system[0]
        negated = minus_rows[n:n + len(chunk)]
        eps[block] = np.minimum(0.5 * np.abs(chunk).sum(axis=1), 1.0)
        np.negative(chunk, out=negated)
        for part in (chunk, negated):
            np.copyto(part, 0.0, where=part <= PSD_TOL)
        traces = chunk.sum(axis=1), negated.sum(axis=1)
        kept = keep[block]
        np.greater(np.minimum(*traces), EPS_ZERO_TOL, out=kept)
        count = int(np.count_nonzero(kept))
        for part, out, trace in zip((chunk, negated), (plus_rows, minus_rows), traces):
            if count < len(chunk):
                part, trace = part[kept], trace[kept]
            # The rows kept so far end at n <= block.start: numpy buffers an overlap.
            np.divide(part, trace[:, None], out=out[n:n + count])
        if rotate and system is not None and count:
            rotated.append((n, system[1] if count == len(chunk) else system[1][kept]))
        n += count
        system = None  # the block's solve temporaries go before the next block is solved
    del chunk, negated, part  # no view of the arrays may outlive their resize
    plus_rows.resize((n, d), refcheck=False)
    minus_rows.resize((n + 1, d), refcheck=False)
    plus = minus = None
    if rotated and (flat is None or (keep & ~flat).any()):
        plus, minus = np.empty((n, d, d), complex), np.empty((n + 1, d, d), complex)
        while rotated:  # each block's eigenvectors go once its parts are rotated back
            first, vectors = rotated.pop()
            stop = first + len(vectors)
            for rows, mats in ((plus_rows, plus), (minus_rows, minus)):
                _spectral_sum(vectors, rows[first:stop], out=mats[first:stop])
    return eps, np.flatnonzero(keep).tolist(), plus_rows, minus_rows, plus, minus
