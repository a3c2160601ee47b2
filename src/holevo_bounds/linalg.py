"""Complex Hermitian matrix kernel.

Everything downstream (entropies, ensemble bounds) reduces to the operations
here: checked operators, stacked eigensolves (_eigvalsh for values only,
_eigh with eigenvectors), trace norm and trace distance.  Matrices are
dense double-precision arrays; operators are immutable once constructed,
so all functions in this module are pure and safe to call concurrently.  An
exactly diagonal operator (every commuting ensemble in its shared basis) is
kept as its real diagonal: its eigenvalues are its entries, unsorted (no
reader of a spectrum depends on its order), and its differences and trace
distances to other diagonal operators O(d) vector operations, with no
LAPACK call and no d x d matrix.  That representation is set when the
operator is built: by the checking constructor, by from_diagonal, or by
_derived, which builds every derived object unchecked.  A dense operator
whose entries cancel to a diagonal stays dense and goes to LAPACK.  An
ensemble's members are one array, chosen once when it is built: the m x d
array of their diagonals when every member is exactly diagonal, else the
(m, d, d) stack of their matrices, which every report stage treats as
dense, its exactly diagonal matrices too.  Every stage that takes members
a stack at a time (the member stage, stacked _eigh, _eigvalsh and
_spectral_sum; the pair distances of C; the row blocks of whole-array
stages) is sized and threaded by one stack planner, _stacks, and runs its
stacks through _solved; a stack on which LAPACK fails is solved again one
matrix at a time (_each_alone) to name the matrix that fails alone.
_pair_methods alone picks how a pair's distance is computed: by a
gathered vector difference (rows), or, in a stack, by the rank-1 closed
form or a stacked eigensolve.  pair_trace_distances computes every pair
distance of C, for one member array or many in one pass, whose stacks end
where each array's scan alone would end them (_pair_stacks); it alone
decides where the scan stops.
_spectral_sum alone rebuilds the member stage's dense Jordan parts from
their eigenvectors.
Checked states enter as one stack too: _check_states runs
DensityOperator's checks on a whole (m, d, d) stack, which a loaded file
and a random ensemble hand to the ensemble as its matrices, and a
DensityOperator built from a matrix is its one-matrix case.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

# Max-entry deviation ||A - A^dag||_max accepted before symmetrization.
HERMITICITY_TOL = 1e-10
# Eigenvalues within [-PSD_TOL, PSD_TOL] are treated as exact zeros.
PSD_TOL = 1e-10
# Eigendecomposition residual accepted at desk-scale dimensions.
RECON_TOL = 1e-9
# |Tr(rho) - 1| accepted for density operators.
TRACE_TOL = 1e-9


class EigensolverError(RuntimeError):
    """Eigendecomposition failed, or its residual exceeded tolerance."""

    def __init__(self, message: str, *, dim: int, residual: float | None = None):
        super().__init__(message)
        self.dim = dim
        self.residual = residual


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Make an array the library has just allocated read-only, in place."""
    arr.setflags(write=False)
    return arr


def _materialize(owner, name: str, mat: np.ndarray) -> np.ndarray:
    """Keep `mat`, the d x d array an operator kept as its diagonal builds
    on the first read of its field `name`, frozen on `owner`."""
    object.__setattr__(owner, name, _freeze(mat))
    return mat


def _derived(cls, **fields):
    """An instance of the frozen dataclass `cls` with `fields`, which the
    library computed from checked objects: no __post_init__ runs, and each
    array, fresh or the library's own, is frozen in place."""
    obj = cls.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, _freeze(value) if isinstance(value, np.ndarray) else value)
    return obj


def _real_vector(values) -> np.ndarray:
    """`values` as a fresh 1-d float array, never the caller's; raises
    ValueError unless it is nonempty, real and finite."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a nonempty 1-d diagonal, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise ValueError("diagonal entries must be real")
        arr = arr.real
    arr = np.array(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("diagonal entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A complex square matrix, exactly Hermitian after construction.

    Input must be Hermitian to within HERMITICITY_TOL in the max-entry norm
    (file-sourced matrices carry rounding noise); it is then symmetrized to
    (A + A^dag)/2 and frozen.  Differences and Jordan parts take _derived.

    `diagonal` holds the real diagonal of an exactly diagonal operator, and
    is None for every other one.  The checking constructor sets it when every
    off-diagonal entry is exactly 0; from_diagonal builds an operator from it
    alone, and such an operator builds `mat` on its first read and keeps it.
    """

    mat: np.ndarray
    diagonal: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.diagonal is not None:  # from_diagonal: O(d), and no matrix
            object.__setattr__(self, "diagonal", _freeze(_real_vector(self.diagonal)))
            return
        mat = _square(self.mat)
        fault = _symmetrize(mat[None])[1]
        if fault is not None:
            raise fault
        if _is_diagonal(mat):
            object.__setattr__(self, "diagonal", _freeze(mat.diagonal().real.copy()))
        object.__setattr__(self, "mat", _freeze(mat))

    @classmethod
    def from_diagonal(cls, values):
        """The operator diag(values), kept as its diagonal: checked in O(d)
        by the same __post_init__ as a matrix, for real and finite entries
        (and, for a DensityOperator, positivity and unit trace), and copied,
        so the operator owns its diagonal."""
        op = cls.__new__(cls)
        object.__setattr__(op, "diagonal", values)
        op.__post_init__()
        return op

    def __getattr__(self, name):
        # Reached only for a field not set on the instance: the `mat` of an
        # operator built from its diagonal.
        if name != "mat" or self.diagonal is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return _materialize(self, "mat", np.diag(self.diagonal.astype(complex)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0] if self.diagonal is None else self.diagonal.size

    def trace(self) -> float:
        if self.diagonal is not None:
            return float(self.diagonal.sum())
        return float(self.mat.trace().real)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        # The difference of two exactly Hermitian matrices is exactly Hermitian.
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.diagonal is not None and other.diagonal is not None:
            return _derived(HermitianOperator, diagonal=self.diagonal - other.diagonal)
        return _derived(HermitianOperator, mat=self.mat - other.mat)


@dataclass(frozen=True, eq=False)
class DensityOperator(HermitianOperator):
    """A quantum state: Hermitian, positive semidefinite, unit trace.

    Eigenvalues down to -PSD_TOL are accepted (eigensolvers return tiny
    negatives for PSD matrices) and treated as zero by all consumers.
    `spectrum` keeps the eigenvalues that the positivity check computes,
    read-only, so von_neumann_entropy needs no second eigensolve: ascending
    when dense, the very `diagonal` array when diagonal, and read in any
    order.  The checks are those of _check_states, on a one-matrix stack.  A
    state the library derives is built by _derived, with its spectrum.
    """

    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.diagonal is not None:  # from_diagonal
            super().__post_init__()
            _raise_first_fault(self.diagonal[None], [float(self.diagonal.sum())])
            spectrum = self.diagonal
        else:  # _check_states of a one-matrix stack
            mat = _square(self.mat)
            spectra, flat = _check_states(mat[None])
            spectrum = spectra[0]
            if flat[0]:
                object.__setattr__(self, "diagonal", spectrum)
            object.__setattr__(self, "mat", _freeze(mat))
        object.__setattr__(self, "spectrum", _freeze(spectrum))

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityOperator":
        """Projector onto the normalized state vector `amplitudes`."""
        return cls(_projector(amplitudes))


def _projector(amplitudes) -> np.ndarray:
    """The matrix of the projector onto the normalized vector `amplitudes`,
    unchecked; raises ValueError for a zero vector."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("state vector must be nonzero")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def _is_diagonal(mat: np.ndarray) -> bool:
    """Every off-diagonal entry is exactly 0: one O(d^2) pass, no copy.

    The checking constructor and average_state keep such an operator as its
    diagonal.  Any nonzero off-diagonal entry, however small, keeps it
    dense.  A nonzero corner entry settles a dense operator before the pass.
    """
    dim = mat.shape[0]
    if dim > 1 and mat[dim - 1, 0] != 0:
        return False
    return np.count_nonzero(mat) == np.count_nonzero(mat.diagonal())


def _diagonal_flags(mats: np.ndarray) -> np.ndarray:
    """_is_diagonal of every matrix of the (m, d, d) stack `mats`, as m
    booleans: each matrix's nonzero count against its diagonal's, a _stacks
    block at a time, so a NaN off the diagonal keeps its matrix dense."""
    flags = np.empty(len(mats), dtype=bool)
    for part in _stacks(len(mats), mats.shape[-1], "eigh")[0]:
        block = mats[part]
        flags[part] = np.count_nonzero(block, axis=(1, 2)) == np.count_nonzero(
            block.diagonal(axis1=1, axis2=2), axis=1)
    return flags


def _eigvalsh(mats: np.ndarray, name: Callable[[int], str] | None = None) -> np.ndarray:
    """np.linalg.eigvalsh(mats), with LAPACK's failure as EigensolverError
    (_lapack), which names matrix k of a stack as name(k) names it."""
    return _lapack(np.linalg.eigvalsh, mats, name)


def _lapack(solver: Callable, mats: np.ndarray, name=None):
    """solver(mats), for np.linalg.eigvalsh or eigh, with LAPACK's failure as
    an EigensolverError: the one handler of a failed solve.  numpy does not
    say which matrix of a stack failed, so when `name` is given a failed
    stack is solved again one matrix at a time (_each_alone), and the error
    of the first matrix k that fails alone begins "{name(k)}: "; when none
    fails alone, or no `name` is given, the stack's own error is raised,
    naming none."""
    try:
        return solver(mats)
    except np.linalg.LinAlgError as exc:
        dim, eigenvalues = mats.shape[-1], solver is np.linalg.eigvalsh
        what = "eigenvalue computation" if eigenvalues else "eigendecomposition"
        if mats.ndim > 2 and name is not None:
            for k, (_, error) in enumerate(_each_alone(solver, mats, np.linalg.LinAlgError)):
                if error is not None:
                    raise EigensolverError(
                        f"{name(k)}: {what} failed at dim {dim}: {error}", dim=dim
                    ) from exc
        stacked = "stacked " if eigenvalues and mats.ndim > 2 else ""
        raise EigensolverError(f"{stacked}{what} failed at dim {dim}: {exc}", dim=dim) from exc


def _each_alone(solve: Callable, items: Iterable, errors=Exception) -> Iterator[tuple]:
    """solve(item) for each of `items` alone, in order, yielded as (result,
    None), or as (None, exc) when it raises one of `errors`: how a failed
    stack finds its failing matrix (_lapack, _check_states), and a failed
    batch of reports or checks its failing items (cli._batched)."""
    for item in items:
        try:
            yield solve(item), None
        except errors as exc:
            yield None, exc


def _eigh(mats: np.ndarray, name: Callable[[int], str] | None = None) -> tuple:
    """The eigendecomposition of every matrix of the (n, d, d) stack `mats`
    at one np.linalg.eigh call: the stacked (w, v), ascending values and
    unitary vectors.  Raises EigensolverError when LAPACK fails, or when a
    matrix's residual max(||V diag(w) V^dag - A||_max, ||V^dag V - I||_max),
    checked as stacked arrays, exceeds RECON_TOL.  The error of the first
    matrix k that fails begins "{name(k)}: " when `name` is given; when
    LAPACK fails on the stack, _lapack finds that matrix."""
    dim = mats.shape[-1]
    w, v = _lapack(np.linalg.eigh, mats, name)
    vh = v.conj().swapaxes(-1, -2)
    recon = np.abs((v * w[:, None, :]) @ vh - mats).max(axis=(1, 2))
    ortho = np.abs(vh @ v - np.eye(dim)).max(axis=(1, 2))
    residuals = np.maximum(recon, ortho)
    if residuals.max(initial=0.0) > RECON_TOL:  # an empty stack has none
        k = int(np.argmax(residuals > RECON_TOL))
        residual, prefix = float(residuals[k]), "" if name is None else f"{name(k)}: "
        raise EigensolverError(
            f"{prefix}eigendecomposition residual {residual:.3e} exceeds "
            f"{RECON_TOL:.0e} at dim {dim}",
            dim=dim,
            residual=residual,
        )
    return w, v


def _member(members: Sequence[int] | None, k: int | None) -> str:
    """The prefix that names matrix k of a stack as the member members[k]:
    none when the stack has no member names or no single matrix failed."""
    return "" if members is None or k is None else f"member {members[k]}: "


def _square(mat) -> np.ndarray:
    """`mat` as a fresh complex array, never the caller's; raises ValueError
    unless it is a square matrix of dimension at least 1."""
    mat = np.array(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    return mat


def _symmetrize(
    mats: np.ndarray, members: Sequence[int] | None = None
) -> tuple[int, ValueError | None]:
    """Check that each matrix A of the (m, d, d) complex stack `mats` is
    Hermitian within HERMITICITY_TOL in the max-entry norm, and replace it,
    in place, by (A + A^dag)/2, exactly Hermitian; a block of _stacks(m, d,
    "eigh") at a time, so no temporary holds more than one block.  Returns
    (stop, fault): the first matrix that is not Hermitian and its
    ValueError (named as _member names it), which ends the pass there, or
    (m, None)."""
    count, dim = len(mats), mats.shape[-1]
    for block in _stacks(count, dim, "eigh")[0]:
        part = mats[block]
        adjoint = part.conj().swapaxes(1, 2)
        deviation = np.abs(part - adjoint)
        if not deviation.max() <= HERMITICITY_TOL:  # NaN fails too
            worst = deviation.max(axis=(1, 2))
            k = int(np.argmin(worst <= HERMITICITY_TOL))
            stop = block.start + k
            part[:k] += adjoint[:k]
            part[:k] /= 2.0
            return stop, ValueError(
                f"{_member(members, stop)}matrix is not Hermitian: max |A - A^dag| = "
                f"{worst[k]:.3e} exceeds {HERMITICITY_TOL:.0e}"
            )
        part += adjoint
        part /= 2.0
    return count, None


def _check_states(
    mats: np.ndarray, members: Sequence[int] | None = None
) -> tuple[np.ndarray, list[bool]]:
    """DensityOperator's checks, in its order and at its tolerances, on every
    matrix of the (m, d, d) complex stack `mats`, which they symmetrize in
    place (_symmetrize): Hermiticity, then each matrix's eigenvalues, then
    positivity within PSD_TOL, then unit trace within TRACE_TOL.  Returns
    (spectra, flat): the m x d array of spectra, and a list of which
    matrices are exactly diagonal (_diagonal_flags).  A diagonal matrix's
    spectrum is its diagonal, at no eigensolve; every other's is ascending,
    from one stacked eigvalsh of those matrices.

    Raises the error of the first matrix k that fails a check, with its
    first failed check's message, which begins "member {members[k]}: " when
    `members` is given: a ValueError, or an EigensolverError when LAPACK
    fails on it.  When LAPACK fails on the stack, its matrices are solved
    again one at a time (_each_alone) up to the first that fails alone, and
    the matrices before that one are checked first; when none fails alone
    the checks go on with the single solves."""
    stop, fault = _symmetrize(mats, members)
    if not stop:
        raise fault
    checked = mats[:stop] if stop < len(mats) else mats
    if mats.shape[-1] > 1 and all(checked[:, -1, 0].tolist()):  # nonzero corners: all dense
        flat = [False] * stop
    else:
        flat = _diagonal_flags(checked).tolist()
    index = range(stop)  # the matrices solved
    if any(flat):  # a diagonal matrix's spectrum and trace are its diagonal's
        rows = checked.diagonal(axis1=1, axis2=2).real
        spectra, traces = rows.copy(), rows.sum(axis=1)
        index = () if all(flat) else np.flatnonzero(np.logical_not(flat))
    if len(index):
        solved = checked if len(index) == stop else checked[index]
        dense_traces = solved.trace(axis1=1, axis2=2).real
        try:
            values = _eigvalsh(solved)
        except EigensolverError:  # solved one at a time up to the first that fails
            values = np.zeros(solved.shape[:2])
            for k, (result, error) in enumerate(_each_alone(_eigvalsh, solved, EigensolverError)):
                if error is not None:
                    stop = int(index[k])
                    fault = EigensolverError(f"{_member(members, stop)}{error}", dim=error.dim)
                    break
                values[k] = result
        if solved is checked:
            spectra, traces = values, dense_traces
        else:
            spectra[index], traces[index] = values, dense_traces
    if stop < len(spectra):
        spectra, traces = spectra[:stop], traces[:stop]
    traces = traces.tolist()
    # |trace - 1| is largest at the smallest or the largest trace.  A NaN
    # that min, max or the first test meets fails this test, and takes
    # _raise_first_fault, which passes it as the checks of one state do.
    if fault is not None or not (
        spectra.min() >= -PSD_TOL
        and abs(min(traces) - 1.0) <= TRACE_TOL
        and abs(max(traces) - 1.0) <= TRACE_TOL
    ):
        _raise_first_fault(spectra, traces, members, fault)
    return spectra, flat


def _raise_first_fault(spectra: np.ndarray, traces, members=None, fault=None):
    """Raise the ValueError of the first state, given by the rows of its
    spectrum and its trace, that is not positive semidefinite within
    PSD_TOL, else whose trace is not 1 within TRACE_TOL; if there is none,
    raise `fault`, the error of the matrix after them, when given."""
    for k, (low, trace) in enumerate(zip(spectra.min(axis=1).tolist(), traces)):
        if low < -PSD_TOL:
            raise ValueError(
                f"{_member(members, k)}state is not positive semidefinite: "
                f"min eigenvalue {low:.3e}"
            )
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(
                f"{_member(members, k)}state trace {trace!r} is not 1 within {TRACE_TOL:.0e}"
            )
    if fault is not None:
        raise fault


def trace_norm(a: HermitianOperator) -> float:
    """Trace norm ||A||_1, the sum of absolute eigenvalues: the L1 norm of
    the diagonal when `a` is kept as one, else of one eigvalsh's values."""
    return float(np.abs(a.diagonal if a.diagonal is not None else _eigvalsh(a.mat)).sum())


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace distance (1/2)||rho - sigma||_1; in [0, 1] for states."""
    return 0.5 * trace_norm(rho - sigma)


def pure_trace_distances(vectors: np.ndarray) -> np.ndarray:
    """Pairwise trace distances sqrt(1 - |<a|b>|^2) between the pure states
    whose vectors are the nonzero columns of `vectors` (d x k), all from one
    k x k Gram matrix: O(k^2 d) work and no eigensolve (Nielsen & Chuang
    §9.2).  The Gram diagonal normalizes the columns."""
    gram = vectors.conj().T @ vectors
    norms = gram.diagonal().real
    overlaps = np.abs(gram) ** 2 / np.outer(norms, norms)  # nonnegative
    return np.sqrt(np.maximum(1.0 - overlaps, 0.0))


# Byte cap on one stack of rows of floats (2^14 floats at most): the diagonal
# pair differences and the row blocks of whole-array stages.  These stacks
# are solved serially, so a larger cap only computes more pairs before a
# caller's early exit.
_STACK_BYTES = 1 << 17
# Byte cap on one block of the member stage's d x d complex differences
# (2^12 entries at most, one matrix at least).  Each matrix of a block keeps
# about five temporaries of its size (eigenvectors, residual products,
# rotated parts), so a larger cap raises the peak RSS; much larger blocks
# also run slower.
_BLOCK_BYTES = 1 << 16
# A running maximum of trace distances at or above this stops a scan with
# `maxima` (pair_trace_distances): no distance exceeds 1, so the pairs left
# could raise it by no more than rounding.
_CEILING = 1.0 - 1e-12
# Fewest rows (matrices x d) in one stack of matrices solved for eigenvalues
# only: 43 matrices, 1.5 MB, at d = 48.  numpy's stacked solvers release the
# GIL only from about 500 rows, and smaller stacks gain less from threads.
_STACK_ROWS = 2048
# Stacks solved at once, each on a worker thread: two, or one when this
# process may use only one CPU.
_WORKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _stacks(count: int, dim: int, solver: str | None = None) -> tuple[list[slice], int]:
    """The one stack planner: how every stage that takes an ensemble's
    members a stack at a time (the member stage, the row blocks of
    whole-array stages, and, through _pair_stacks, the pair distances of C)
    sizes its stacks and threads them.  Returns consecutive
    slices of range(count), one per stack, and the number of threads to
    solve them on.

    A stack holds at least one item.  Rows of `dim` floats (solver None) go
    at most _STACK_BYTES to a stack; d x d complex matrices for "eigh", at
    most _BLOCK_BYTES; for "eigvalsh", which keeps one buffer per stack,
    the fewest matrices whose rows reach _STACK_ROWS.  Stacks of matrices
    that reach _STACK_ROWS rows, when there are two or more, are solved on
    up to _WORKERS threads (through _solved_in_order); every other plan on
    the calling thread.
    """
    size = _stack_size(dim, solver)
    stacks = [slice(start, start + size) for start in range(0, count, size)]
    threaded = solver is not None and size * dim >= _STACK_ROWS
    return stacks, min(_WORKERS, len(stacks)) if threaded else 1


def _stack_size(dim: int, solver: str | None = None) -> int:
    """The items of one stack of _stacks' plan."""
    if solver == "eigvalsh":
        return -(-_STACK_ROWS // dim)
    if solver == "eigh":
        return max(1, _BLOCK_BYTES // (16 * dim * dim))
    return max(1, _STACK_BYTES // (8 * dim))


def _joined(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays end to end along their first axis: the one array itself,
    with no copy, when there is one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _stacked_eigvalsh(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """_eigvalsh of each d x d matrix of `mats`, stacked in the stacks that
    _stacks plans, on its threads; one matrix is its own stack, a view."""
    stack = _joined([mat[None] for mat in mats])
    plan, workers = _stacks(len(stack), stack.shape[-1], "eigvalsh")
    return [row for values in _solved(lambda part: _eigvalsh(stack[part]), plan, workers)
            for row in values]


def _solved(solve: Callable, tasks: Sequence, workers: int) -> Iterator:
    """solve(task) for each of `tasks` in order, as _stacks planned them: on
    the calling thread, or through _solved_in_order."""
    return map(solve, tasks) if workers < 2 else _solved_in_order(solve, tasks, workers)


def pair_trace_distances(
    arrays: Sequence[tuple[np.ndarray, np.ndarray, Iterable]], maxima: list[float] | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Trace distances (1/2)||rho_i - rho_j||_1 of the pairs of one or more
    member arrays of one dimension and kind, all rows or all stacks (the
    diameter C's, for bounds._diameters), yielded a stack at a time as
    (positions, distances): distances[n] belongs to the pair at position
    positions[n] of the pairs taken a round at a time, each round the next
    block of every array still scanned; for one array, or for arrays of one
    block each, that is their blocks end to end.  Each of `arrays` is
    (members, spectra, blocks): a member array, m x d or (m, d, d), its
    m x d array of spectra, and an iterable of blocks (first, second) of its
    index pairs.  The arrays are joined end to end (one is read in place),
    and the pairs index that join: each array's rows follow those of the
    arrays before it.

    Each pair's method is decided by _pair_methods, in this order within a
    block.  A pair of rows of an m x d array goes in a stack of at most
    _STACK_BYTES of diagonal differences, gathered, at no eigensolve: a
    diagonal difference's eigenvalues are its entries.  A pair of two
    rank-1 members of a stack (at most one spectrum entry above PSD_TOL)
    takes the closed form pure_trace_distances at no eigensolve, from one
    Gram matrix per array of its every rank-1 member's largest-diagonal
    column (_gram_table), formed on first use and kept across blocks.
    Every other pair of a stack goes in a stack of the fewest matrix
    differences whose rows reach _STACK_ROWS, at one eigvalsh call, which
    then runs without the GIL.  The stacks are _pair_stacks'.  A matrix's
    eigenvalues do not depend on its stack, so neither do the distances.

    `maxima`, when given, holds each array's running maximum, raised as
    each stack is yielded and checked after each of the array's stacks and
    after its Gram pairs of a block.  Once it reaches _CEILING, the array's
    later pairs are dropped: each array gets the distances and the
    eigensolves of its scan alone.  Without `maxima` every pair is
    evaluated.  When the caller stops or a solve fails,
    the pending stacks are dropped and the workers joined before control
    returns to it; a pair that fails alone is named "pair (i, j)" by its
    rows in its array.
    """
    members = _joined([array[0] for array in arrays])
    # Whether each member of a stack has rank 1, read from its spectrum.
    rank_one = None if members.ndim == 2 else (
        _joined([array[1] for array in arrays]) > PSD_TOL).sum(axis=1) <= 1
    starts = [0, *accumulate(len(array[0]) for array in arrays)]
    blocks = [iter(array[2]) for array in arrays]
    live = (lambda t: True) if maxima is None else (lambda t: maxima[t] < _CEILING)
    tables, base, active = {}, 0, range(len(arrays))
    while True:  # a round: the next block of each array still scanned
        taken = [(t, block) for t in active
                 if live(t) and (block := next(blocks[t], None)) is not None]
        if not taken:
            return
        active, pairs = zip(*taken)
        firsts, seconds = zip(*pairs)
        first, second = _joined(firsts), _joined(seconds)
        edges = [0, *accumulate(map(len, firsts))]  # each array's first pair

        def name(p):  # a pair's name is its rows in its own array
            row = starts[active[bisect_right(edges, p) - 1]]
            return f"pair ({first[p] - row}, {second[p] - row})"

        for index, source in zip(_pair_methods(rank_one, first, second),
                                 (members, None, members)):
            if not index.size:
                continue
            # (t, lo, hi): index[lo:hi] are array t's pairs, unless it has stopped.
            cuts = index.searchsorted(edges).tolist()
            runs = [run for run in zip(active, cuts, cuts[1:]) if run[2] > run[1] and live(run[0])]
            if not runs:
                continue
            stacks = (_kind_distances(source, first, second, index, runs, live, name)
                      if source is not None else
                      _gram_stacks(members, rank_one, first, second, index, runs, starts, tables))
            for pieces, part, distances in stacks:
                if not live(pieces[0][0]):  # its own stack, solved on a worker before it stopped
                    continue
                if maxima is not None:  # pieces: (t, lo, hi), index[lo:hi] array t's
                    cuts = [lo - pieces[0][1] for _, lo, _ in pieces]
                    peaks = np.maximum.reduceat(distances, cuts).tolist()
                    for (t, _, _), peak in zip(pieces, peaks):
                        maxima[t] = max(maxima[t], peak)
                yield base + part, distances
        base += first.size


def _groups(keys: Iterable) -> list[list[int]]:
    """The indices of `keys` grouped by equal key: each group ascending, the
    groups in the order their keys first appear."""
    groups: dict = {}
    for t, key in enumerate(keys):
        groups.setdefault(key, []).append(t)
    return list(groups.values())


_NONE = _freeze(np.arange(0))  # no pairs


def _pair_methods(rank_one, first, second) -> tuple:
    """The one place that decides each pair's method: the positions of the
    pairs (first[k], second[k]) taken as a vector difference (pairs of
    rows), by the rank-1 closed form (two rank-1 members of a stack), and
    by an eigensolve (every other pair of a stack)."""
    if rank_one is None:  # pairs of rows
        return np.arange(len(first)), _NONE, _NONE
    by_gram = rank_one[first] & rank_one[second]
    return _NONE, by_gram.nonzero()[0], (~by_gram).nonzero()[0]


def _gram_table(members: np.ndarray, rank_one: np.ndarray) -> np.ndarray:
    """pure_trace_distances of every rank-1 member of a stack, in order, from
    its largest-diagonal column."""
    pure = np.flatnonzero(rank_one)
    columns = np.argmax(members.diagonal(axis1=1, axis2=2)[pure].real, axis=1)
    return pure_trace_distances(np.ascontiguousarray(members[pure, :, columns].T))


def _gram_stacks(members, rank_one, first, second, index, runs, starts, tables):
    """The rank-1 pairs (first[p], second[p]), p in `index`, of each run
    (t, lo, hi) of `runs` as a stack of _kind_distances' form, from the
    Gram table of array t alone (_gram_table, of its rows from starts[t]),
    formed on first use and kept in `tables` with its members' columns."""
    for t, lo, hi in runs:
        row, span = starts[t], slice(starts[t], starts[t + 1])
        if t not in tables:
            tables[t] = np.cumsum(rank_one[span]) - 1, _gram_table(members[span], rank_one[span])
        column, table = tables[t]
        part = index[lo:hi]
        yield [(t, lo, hi)], part, table[column[first[part] - row], column[second[part] - row]]


def _kind_distances(
    arrays: np.ndarray, first: np.ndarray, second: np.ndarray, index: np.ndarray,
    runs: list[tuple[int, int, int]], live: Callable[[int], bool], name: Callable[[int], str],
) -> Iterator[tuple]:
    """(pieces, part, distances) of each stack of _pair_stacks(runs): the
    trace distances of the pairs (first[p], second[p]) of rows of `arrays`,
    p in part, a slice of `index`, and the runs (t, lo, hi) of arrays t in
    it, index[lo:hi] array t's pairs.  A stack of an array's own is not
    built once live(t) fails.  The pairs are all of one stack kind: matrix
    differences, filled a pair at a time so that no temporary of a stack's
    size is made, when `arrays` is an (m, d, d) stack, else diagonal ones,
    gathered.  A pair p that fails alone is named name(p)."""
    dense = arrays.ndim == 3
    plan = _pair_stacks(runs, arrays.shape[-1], "eigvalsh" if dense else None)
    # Matrix differences, in two or more stacks, are solved on worker threads.
    workers = min(_WORKERS, len(plan)) if dense else 1
    if dense:  # one buffer per stack being filled or solved, allocated once, on
        # this thread: stacks allocated on the workers raised the peak RSS.
        size = max(pieces[-1][2] - pieces[0][1] for pieces in plan)
        buffers = [np.empty((size, *arrays.shape[1:]), complex) for _ in range(workers)]

    def distances(pieces):
        lo, hi = pieces[0][1], pieces[-1][2]
        part = index[lo:hi]
        i, j = first[part], second[part]
        if not dense:
            return pieces, part, np.add.reduce(np.abs(arrays[i] - arrays[j]), 1) * 0.5
        buffer = buffers.pop()
        try:
            diffs = buffer[:hi - lo]
            for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
                np.subtract(arrays[a], arrays[b], out=diffs[k])
            values = _eigvalsh(diffs, lambda k: name(part[k]))
            return pieces, part, np.add.reduce(np.abs(values), 1) * 0.5
        finally:
            buffers.append(buffer)

    return _solved(distances, (pieces for pieces in plan if live(pieces[0][0])), workers)


def _pair_stacks(runs: list[tuple[int, int, int]], dim: int, solver: str | None) -> list:
    """The stacks of the pairs of one kind of one or more arrays, each the
    list of the runs (t, lo, hi) of `runs` in it.  An array whose pairs fit
    one stack of _stacks goes whole into a stack shared with the arrays next
    to it while they fit; a larger array is cut where _stacks would cut its
    pairs alone, into stacks of its own.  So each array's stacks end where
    its scan alone ends them, and only a stack of an array's own can follow
    a check that stops it.  A shared stack also ends where `runs` skip the
    pairs of an array stopped before, so that its pairs are consecutive."""
    size = _stack_size(dim, solver)
    plan, shared, count = [], [], 0  # the shared stack being filled, and its pairs
    for t, lo, hi in runs:
        if shared and (count + hi - lo > size or lo > shared[-1][2]):
            plan.append(shared)
            shared, count = [], 0
        if hi - lo > size:  # _stacks(hi - lo, dim, solver)'s slices, from its first pair
            plan += [[(t, cut, min(cut + size, hi))] for cut in range(lo, hi, size)]
        else:
            shared.append((t, lo, hi))
            count += hi - lo
    if shared:
        plan.append(shared)
    return plan


def _solved_in_order(solve: Callable, tasks: Sequence, workers: int) -> Iterator:
    """solve(task) for each of `tasks`, yielded in order and computed on
    `workers` threads, with at most `workers` tasks started and not yet
    yielded.  A task's exception is raised in its turn.  When the consumer
    stops or an exception leaves, the tasks not started are cancelled and
    every worker is joined before control returns.  The workers call `solve`
    only, so it must touch nothing but private helpers and numpy."""
    # Imported on first use (about 5 ms), so runs that never solve two
    # stacks at once do not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        pending = deque()
        for task in tasks:  # the next task is taken after the consumer's turn
            pending.append(pool.submit(solve, task))
            if len(pending) == workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _spectral_sum(
    vectors: np.ndarray, values: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """V diag(values) V^dag for each eigenvector matrix V of the (n, d, d)
    stack `vectors` and its row of the n x d nonnegative `values`, written
    to `out` when given; symmetrized to (P + P^dag)/2, exactly Hermitian.
    Every column of V takes part, so a stack is one matmul."""
    part = np.matmul(vectors * values[..., None, :], vectors.conj().swapaxes(-1, -2), out=out)
    part += part.conj().swapaxes(-1, -2)
    part *= 0.5
    return part
