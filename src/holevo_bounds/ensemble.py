"""Ensembles of quantum states and their auxiliary decompositions.

An ensemble pairs a probability vector with density operators of a common
dimension, and holds its members as one array, stacked once when it is
built (or handed over by _from_rows).  From it we derive the average
state, the Holevo quantity, the per-member trace distances to the average,
and the two auxiliary ensembles built from the normalized positive and
negative parts of rho_i - average.  One member stage, _member_parts,
computes those parts for diagonal and dense members alike, for any number
of ensembles at once, each a segment of rows about its own average; with
values only (no eigenvectors), it gives member_epsilons of a stack and
bounds.fei_checks' spectra.  The gaps of D are the pair distances of each
tau_i^- and omega (linalg.pair_trace_distances).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .entropy import as_probability_vector, binary_entropy, von_neumann_entropy, _row_entropies
from .linalg import (
    PSD_TOL, DensityOperator, _derived, _diagonal_flags, _eigh, _eigvalsh, _freeze, _is_diagonal,
    _groups, _joined, _solved, _spectral_sum, _stacked_eigvalsh, _stacks, pair_trace_distances,
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
    """The mixture sum(p_i rho_i), built unchecked: a diagonal (its own
    spectrum) when the members or their sum are exactly diagonal, else dense
    with one eigvalsh."""
    return _mixtures([(mu.probs, mu._members)])[0]


def _mixtures(items) -> list[DensityOperator]:
    """average_state of each (probs, members) of `items`, of one dimension:
    probs @ diagonals, or an einsum that sums the matrices in member order,
    one item at a time; the dense sums are solved together
    (_stacked_eigvalsh)."""
    out, dense = [], []
    for probs, members in items:
        if members.ndim == 2:
            diag = probs @ members
            out.append(_derived(DensityOperator, diagonal=diag, spectrum=diag))
            continue
        acc = np.einsum("k,kij->ij", probs, members)
        if _is_diagonal(acc):
            diag = acc.diagonal().real.copy()
            out.append(_derived(DensityOperator, mat=acc, diagonal=diag, spectrum=diag))
        else:
            dense.append(len(out))
            out.append(acc)
    if dense:
        for k, spectrum in zip(dense, _stacked_eigvalsh([out[k] for k in dense])):
            out[k] = _derived(DensityOperator, mat=out[k], spectrum=spectrum)
    return out


def _averages(mus) -> None:
    """Give each ensemble of `mus`, of one dimension, its average, unless it
    holds it already: built by _mixtures, with the dense ones solved
    together."""
    missing = [mu for mu in mus if "average" not in vars(mu)]
    if missing:
        for mu, average in zip(missing, _mixtures([(mu.probs, mu._members) for mu in missing])):
            object.__setattr__(mu, "average", average)


def holevo_quantity(mu: DiscreteEnsemble) -> float:
    """The Holevo quantity S(average) - sum(p_i S(rho_i)), in nats.

    Always finite at finite dimension; nonnegative, and bounded by both the
    Shannon entropy of the probabilities and ln(dim).  The members'
    entropies are read from their spectra array, a block of rows at a time.
    """
    return _holevo_quantities([mu])[0]


def _holevo_quantities(mus) -> list[float]:
    """holevo_quantity of each ensemble of `mus`, of one dimension: the
    averages built together (_averages), and the members' entropies from
    one pass over their spectra, end to end."""
    if not mus:
        return []
    _averages(mus)
    entropies = _row_entropies(_joined([mu._spectra for mu in mus]))
    out, start = [], 0
    for mu in mus:
        val = von_neumann_entropy(mu.average) - float(mu.probs @ entropies[start:start + mu.size])
        out.append(val if val > 0.0 else 0.0)
        start += mu.size
    return out


def member_epsilons(mu: DiscreteEnsemble) -> tuple[np.ndarray, float]:
    """Trace distances of the members to the average, and their mean.

    Returns (eps, eps_av) with eps_i = (1/2)||rho_i - average||_1 clipped to
    [0, 1] and eps_av = sum(p_i eps_i).  A stack of matrices takes the
    values-only member stage (_member_parts, rotate unset) about the
    average; member rows are subtracted a _stacks block at a time, so no
    m x d temporary is made.  Each eps_i is the trace_distance of member i
    to the average, bit for bit.
    """
    members, centre = mu._members, mu.average
    if members.ndim == 3:
        eps = _member_parts(members, [centre], rotate=False)[0]
    else:
        eps = np.empty(mu.size)
        for block in _stacks(mu.size, mu.dim)[0]:
            norms = np.abs(members[block] - centre.diagonal).sum(axis=1)
            np.minimum(0.5 * norms, 1.0, out=eps[block])
    eps.setflags(write=False)
    return eps, float(mu.probs @ eps)


def mean_binary_entropy(mu: DiscreteEnsemble) -> float:
    """Mean binary entropy sum(p_i h(eps_i)) of the member distances.

    By concavity of h this never exceeds h(eps_av).
    """
    return _h_terms([(mu.probs, *member_epsilons(mu))])[0][0]


def _h_terms(items) -> list[tuple[float, float]]:
    """(hbar, h(eps_av)) of each (probs, eps, eps_av) of `items`: hbar =
    sum(p_i h(eps_i)), as probs @ the row entropies of [eps_i, 1 - eps_i],
    from one pass over every item's rows, and its concavity ceiling."""
    eps = _joined([item[1] for item in items])
    entropies = _row_entropies(np.column_stack((eps, 1.0 - eps)))
    out, start = [], 0
    for probs, eps, eps_av in items:
        hbar = float(probs @ entropies[start:start + len(eps)])
        out.append((hbar, binary_entropy(min(eps_av, 1.0))))
        start += len(eps)
    return out


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
    # mu_minus's members and spectra with omega in the slot after them, as
    # D reads them; None when mu_minus was built from its states.
    _minus_slots: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    tau_plus = property(lambda self: self.mu_plus.states)
    tau_minus = property(lambda self: self.mu_minus.states)
    omega = property(lambda self: self.mu_minus.average)

    @cached_property
    def minus_gaps(self) -> tuple[float, ...]:
        """Trace-norm gaps ||tau_i^minus - omega||_1 (_minus_gaps).  Computed
        on first use, then kept; a batch of reports sets them together."""
        return _minus_gaps([self])[0]


def _minus_gaps(auxes) -> list[tuple[float, ...]]:
    """minus_gaps of each of `auxes`, of one dimension: twice the distances
    of the pairs (tau_i^minus, omega), with omega in its slot
    (build_auxiliary), or appended to a copy when mu_minus was built from
    its states; one pair_trace_distances pass per member kind."""
    slots = []  # each ensemble's members and spectra, omega's last
    for aux in auxes:
        if aux._minus_slots is None:
            omega, members, spectra = aux.omega, aux.mu_minus._members, aux.mu_minus._spectra
            members = np.append(members, [omega.mat if members.ndim == 3 else omega.diagonal], 0)
            spectra = np.append(spectra, [omega.spectrum], 0)
            slots.append((members, spectra))
        else:
            slots.append(aux._minus_slots)
    gaps = [None] * len(auxes)
    for index in _groups(slot[0].ndim for slot in slots):
        arrays, start = [], 0  # each array's pairs (i, omega), of its rows in the pass
        for t in index:
            n = len(slots[t][0]) - 1
            arrays.append((*slots[t], [(np.arange(start, start + n), np.full(n, start + n))]))
            start += n + 1
        out = np.empty(start - len(index))  # the gaps of the kind's arrays, end to end
        for positions, distances in pair_trace_distances(arrays):
            out[positions] = 2.0 * distances
        values, start = out.tolist(), 0
        for t in index:
            n = auxes[t].mu_minus.size
            gaps[t], start = tuple(values[start:start + n]), start + n
    return gaps


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
    rows and stack.  This is _auxiliaries of a batch of one.

    Eigensolves: at most m + 4 for m members, counted per matrix of a
    stack.  One for mu's average unless mu holds it already; one per member
    whose difference is dense, which gives eps_i, the spectra of tau_i^(+/-)
    and the eigenvectors that rotate them back, one stacked eigh per block;
    one each for the averages of mu_plus and mu_minus, and one for
    their residual.  When every retained part is diagonal (always, when
    mu.diagonals is not None) the stage takes none and builds no d x d
    matrix: mu_plus and mu_minus keep _member_parts' row arrays as their
    diagonals.  Besides those two arrays, and the two stacks of dense parts
    with the kept members' eigenvectors before them, the stage holds one
    block's temporaries at a time (at most _STACK_BYTES for a block of
    rows, about five of _BLOCK_BYTES for a block of matrices, on each of the
    _WORKERS threads when _stacks threads them), and no m x d temporary.
    """
    aux = _auxiliaries([mu])[0]
    if isinstance(aux, DegenerateEnsembleError):
        raise aux
    return aux


def _auxiliaries(mus) -> list:
    """build_auxiliary of each ensemble of `mus`, of one dimension and all
    with member rows or all with member matrices, each stage run once over
    all of them: their averages (_averages), one member stage over their
    member arrays end to end (_member_parts, one segment each), and the
    averages of mu_plus and mu_minus and their residuals, the dense ones
    solved as one stack each.  Eigensolves and values are those of each
    ensemble alone: its scalars (eps_av, the weights) are reduced from its
    own rows, in its own order.  Returns, per ensemble, its
    AuxiliaryDecomposition, or its DegenerateEnsembleError, not raised."""
    _averages(mus)
    starts = [0, *accumulate(mu.size for mu in mus)]
    eps, kept, plus_rows, minus_rows, plus, minus, solved = _member_parts(
        _joined([mu._members for mu in mus]), [mu.average for mu in mus], starts[:-1]
    )
    eps.setflags(write=False)
    first = np.searchsorted(kept, starts).tolist()  # each ensemble's first kept row
    out, live = [None] * len(mus), []
    for e, mu in enumerate(mus):
        lo, hi = first[e], first[e + 1]
        eps_e = eps[starts[e]:starts[e + 1]]
        eps_av = float(mu.probs @ eps_e)
        if eps_av <= EPS_ZERO_TOL or lo == hi:
            out[e] = DegenerateEnsembleError(
                f"mean member distance {eps_av:.3e} is below {EPS_ZERO_TOL:.0e}; "
                "all states equal the average" if eps_av <= EPS_ZERO_TOL
                else "every member difference lies inside the eigenvalue dead zone",
                eps=eps_e,
                eps_av=eps_av,
            )
            continue
        usable = (kept[lo:hi] - starts[e]).tolist()
        raw = mu.probs[usable] * eps_e[usable]
        # An ensemble whose every retained part is diagonal keeps their rows.
        dense = plus is not None and bool(solved[starts[e]:starts[e + 1]].any())
        # Its tau^+ and tau^- members, omega's slot after the latter, and their rows.
        slots = slice(lo + e, hi + e + 1)
        arrays = ((plus if dense else plus_rows)[lo:hi], plus_rows[lo:hi],
                  (minus if dense else minus_rows)[slots], minus_rows[slots])
        live.append((e, usable, eps_e, eps_av, raw / raw.sum(), *arrays))
    pluses = _mixtures([(w, taus) for *_, w, taus, _, _, _ in live])
    # omega's arrays are views of its slot, as tau^-'s are of theirs.
    omegas = _mixtures([(w, slot[:-1]) for *_, w, _, _, slot, _ in live])
    for (*_, slot, rows), omega in zip(live, omegas):
        rows[-1] = omega.spectrum
        if slot.ndim == 3:
            slot[-1] = omega.mat
    _freeze(minus_rows)
    if minus is not None:
        _freeze(minus)
    omegas = [_row_state(rows[-1], slot[-1]) for *_, slot, rows in live]
    residuals = _trace_norms([average - omega for average, omega in zip(pluses, omegas)])
    for entry, average, omega, residual in zip(live, pluses, omegas, residuals):
        e, usable, eps_e, eps_av, weights, taus, rows, slot, slot_rows = entry
        out[e] = AuxiliaryDecomposition(
            probs=mus[e].probs,
            eps=eps_e,
            eps_av=eps_av,
            retained=tuple(usable),
            weights=weights,
            mu_plus=_from_rows(weights, rows, taus, average=average),
            mu_minus=_from_rows(weights, slot_rows[:-1], slot[:-1], average=omega),
            average_match_residual=residual,
            _minus_slots=(slot, slot_rows),
        )
    return out


def _trace_norms(ops) -> list[float]:
    """trace_norm of each Hermitian operator of `ops`, of one dimension: the
    dense ones solved together (_stacked_eigvalsh)."""
    out = [float(np.abs(op.diagonal).sum()) if op.diagonal is not None else None for op in ops]
    dense = [k for k, value in enumerate(out) if value is None]
    if dense:
        for k, values in zip(dense, _stacked_eigvalsh([ops[k].mat for k in dense])):
            out[k] = float(np.abs(values).sum())
    return out


def _member_parts(members: np.ndarray, centres, starts=(0,), rotate: bool = True) -> tuple:
    """The member stage: the normalized Jordan parts of every member minus
    its centre, as (eps, kept, plus_rows, minus_rows, plus, minus, solved),
    for a member array, m x d (about diagonal centres), or (m, d, d), that
    holds k segments: rows starts[e] up to the next start (the last up to m)
    take the state centres[e] as their centre.  An ensemble is one segment
    about its average; a batch of ensembles of one dimension and kind (or
    fei_checks' pairs, one row each) is their arrays end to end.

    eps_i is the trace distance, clipped to 1.  A member is dropped in the
    dead zone, where the trace of either part is at most EPS_ZERO_TOL; kept
    lists the n other rows, ascending.  Row q of plus_rows is the spectrum of
    the q-th kept member's tau^+: the signed eigenvalues of its difference,
    at or below PSD_TOL set to 0, over their sum.  minus_rows holds tau^-'s
    (the negated eigenvalues) the same way, with one more row per segment:
    the q-th kept member, of segment e, sits at row q + e, and its segment's
    last kept row is followed by a slot left for omega.  plus and minus are
    the same parts rotated back, an (n, d, d) and an (n + k, d, d) stack laid
    out as the rows, when `rotate` is set and any kept part is dense; else
    both are None (values-only callers read spectra).  solved says which
    members are kept and were taken by a solve (None for member rows).

    Step 1 gives the signed eigenvalues: in one subtraction from an array of
    diagonals, else, for each block of _stacks(m, d, "eigh"), from one
    stacked _eigh of the block's differences, or _eigvalsh (values only)
    when `rotate` is unset, which names the member (its index in its
    segment) whose solve fails.  A stacked member is taken by its entries
    when it and its centre are exactly diagonal (_diagonal_flags); its
    eigenvectors are the basis.  Step 2 runs each block through
    whole-array operations and compacts the kept rows in place, to the
    front of plus_rows and minus_rows; a block's differences and residual
    temporaries go before the next block is solved, and only its kept
    eigenvectors are kept.  Nothing of m x d is allocated besides the row
    arrays, which are shrunk before any view of them is made.  Step 3
    allocates the two stacks and rotates each block's kept parts back into
    the same rows, one _spectral_sum per block and stack, dropping the
    block's eigenvectors once done.  The stacks are allocated after the
    solves, which keeps the dense-files benchmark's peak RSS down.  Last,
    segment e's rows of minus_rows and minus move down by e, the last
    segment first, which opens each omega slot: one slice copy per segment
    after the first, none for one segment.
    """
    m, k, d = len(members), len(centres), centres[0].dim
    eps, keep = np.empty(m), np.empty(m, dtype=bool)
    plus_rows, minus_rows = np.empty((m, d)), np.empty((m + k, d))
    # rotated: (first row, eigenvectors) of each block's kept parts
    flat, rotated = None, []
    stops = [*starts[1:], m]
    if members.ndim == 2:
        for centre, first, stop in zip(centres, starts, stops):
            np.subtract(members[first:stop], centre.diagonal, out=plus_rows[first:stop])
        blocks = ((block, None) for block in _stacks(m, d)[0])
    else:
        owner = np.repeat(np.arange(k), [stop - first for first, stop in zip(starts, stops)])
        centred = [c.diagonal is not None for c in centres]
        if any(centred):
            flat = _diagonal_flags(members) & np.array(centred)[owner]
            diagonals = np.array([c.diagonal if c.diagonal is not None else np.zeros(d)
                                  for c in centres])
            rows = members.diagonal(axis1=1, axis2=2).real[flat]
            plus_rows[flat] = rows - diagonals[owner[flat]]
        mats = []  # the centres' matrices, read on the first solve

        def solve(block):
            if not mats:
                mats.append(np.array([c.mat for c in centres]))
            index = block if flat is None else np.flatnonzero(~flat[block]) + block.start

            def name(j):  # a member's name is its row in its segment
                row = np.arange(m)[index][j]
                return f"member {row - starts[owner[row]]}"

            diffs = members[index] - mats[0][owner[index]]
            if not rotate:
                return block, (_eigvalsh(diffs, name), None)
            values, vectors = _eigh(diffs, name)
            if flat is None:
                return block, (values, vectors)
            # A part taken by its entries rotates back by the identity.
            solved = ~flat[block]
            basis = np.empty((solved.size, d, d), complex)
            basis[...] = np.eye(d)
            basis[solved] = vectors
            return block, (values, basis)

        blocks = _solved(solve, *_stacks(m, d, "eigh"))
    n = 0  # the rows kept so far, compacted to the front of plus_rows and minus_rows
    for block, system in blocks:
        chunk = plus_rows[block]
        if system is not None:
            chunk[slice(None) if flat is None else ~flat[block]] = system[0]
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
    minus_rows.resize((n + k, d), refcheck=False)
    solved = None if members.ndim == 2 else keep if flat is None else keep & ~flat
    plus = minus = None
    if rotated and solved.any():
        plus, minus = np.empty((n, d, d), complex), np.empty((n + k, d, d), complex)
        while rotated:  # each block's eigenvectors go once its parts are rotated back
            first, vectors = rotated.pop()
            rows = slice(first, first + len(vectors))
            _spectral_sum(vectors, plus_rows[rows], out=plus[rows])
            _spectral_sum(vectors, minus_rows[rows], out=minus[rows])
    kept = np.flatnonzero(keep)
    first = np.searchsorted(kept, starts).tolist()
    # Segment e's tau^- rows move down by e, last segment first, which
    # leaves a slot for omega after each segment's rows.
    for e in range(k - 1, 0, -1):
        rows = slice(first[e], first[e + 1] if e + 1 < k else n)
        for array in (minus_rows,) if minus is None else (minus_rows, minus):
            array[rows.start + e:rows.stop + e] = array[rows]
    return eps, kept, plus_rows, minus_rows, plus, minus, solved
