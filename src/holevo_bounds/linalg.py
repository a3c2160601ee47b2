"""Complex Hermitian matrix kernel.

Everything downstream (entropies, ensemble bounds) reduces to the operations
here: eigendecomposition, trace norm, trace distance, and the split of a
Hermitian operator into its positive and negative parts.  Matrices are dense
double-precision arrays; operators are immutable once constructed, so all
functions in this module are pure and safe to call concurrently.  An exactly
diagonal operator (every commuting ensemble in its shared basis) is kept as
its real diagonal: its eigenvalues are its entries, unsorted (no reader of
a spectrum depends on its order), its Jordan parts the split of its entries
by sign, and its differences and trace distances to other diagonal operators
O(d) vector operations, with no LAPACK call and no d x d matrix.  That
representation is set when the operator is built: by the checking
constructor, by from_diagonal, or by _derived, which builds every derived
object unchecked.  A dense operator whose entries cancel to a diagonal stays
dense and goes to LAPACK.  An ensemble's members are one array: the m x d
array of their diagonals, or the (m, d, d) stack of their matrices, where a
matrix with every off-diagonal entry exactly 0 (_is_diagonal) counts as
diagonal.  Every stage that takes members a stack at a time (the member
stage, stacked _eigh and _spectral_sum; member_epsilons; the pair
distances of C and D's gaps; the row blocks of whole-array stages) is
sized and threaded by one stack planner, _stacks, and runs its stacks
through _solved.  pair_trace_distances alone picks how a pair's distance
is computed: by a gathered vector difference, by the rank-1 closed form, or
by a stacked eigensolve.  _spectral_sum alone rebuilds dense Jordan parts
from their eigenvectors.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

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
        mat = np.asarray(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if mat.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        deviation = float(np.max(np.abs(mat - mat.conj().T)))
        if not deviation <= HERMITICITY_TOL:
            raise ValueError(
                f"matrix is not Hermitian: max |A - A^dag| = {deviation:.3e} "
                f"exceeds {HERMITICITY_TOL:.0e}"
            )
        mat = (mat + mat.conj().T) / 2.0
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
    order.  A state the library derives is built by _derived, with its spectrum.
    """

    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "spectrum", _freeze(hermitian_eigenvalues(self)))
        smallest = float(self.spectrum.min())
        if smallest < -PSD_TOL:
            raise ValueError(
                f"state is not positive semidefinite: min eigenvalue {smallest:.3e}"
            )
        tr = self.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"state trace {tr!r} is not 1 within {TRACE_TOL:.0e}")

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityOperator":
        """Projector onto the normalized state vector `amplitudes`."""
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ValueError("state vector must be nonzero")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues paired with a unitary matrix of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def hermitian_eigenvalues(a: HermitianOperator) -> np.ndarray:
    """Eigenvalues of `a` (values-only fast path): ascending from LAPACK, or,
    when `a` is kept as its diagonal, that diagonal array itself, unsorted."""
    return a.diagonal if a.diagonal is not None else _eigvalsh(a.mat)


def _eigvalsh(mats: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(mats), with LAPACK's failure as EigensolverError."""
    try:
        return np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:
        dim, what = mats.shape[-1], "stacked eigenvalue" if mats.ndim > 2 else "eigenvalue"
        raise EigensolverError(f"{what} computation failed at dim {dim}: {exc}", dim=dim) from exc


def hermitian_eig(a: HermitianOperator) -> EigenSystem:
    """Full eigendecomposition of `a` with a verified reconstruction.

    Raises EigensolverError when LAPACK fails or when the reconstruction
    residual max(||V diag(w) V^dag - A||_max, ||V^dag V - I||_max) exceeds
    RECON_TOL.  An `a` kept as its diagonal goes to LAPACK through `a.mat`
    too; the library itself splits such an operator by sign instead.
    """
    w, v = _eigh(a.mat[None])
    return EigenSystem(_freeze(w[0]), _freeze(v[0]))


def _eigh(mats: np.ndarray, members: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig of every matrix of the (n, d, d) stack `mats` at one
    np.linalg.eigh call: the stacked (w, v), each matrix's two residuals
    checked as stacked arrays.  The EigensolverError of the first matrix k
    that fails begins "member {members[k]}: " when `members` is given.  When
    LAPACK fails on a stack of several, its matrices are solved again one at
    a time to find that matrix."""
    dim = mats.shape[-1]
    try:
        w, v = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        k, error = 0, exc
        if len(mats) > 1:  # numpy does not say which matrix of a stack failed
            k = None
            for index, mat in enumerate(mats):
                try:
                    np.linalg.eigh(mat)
                except np.linalg.LinAlgError as one:
                    k, error = index, one
                    break
        raise EigensolverError(
            f"{_member(members, k)}eigendecomposition failed at dim {dim}: {error}", dim=dim
        ) from exc
    vh = v.conj().swapaxes(-1, -2)
    recon = np.abs((v * w[:, None, :]) @ vh - mats).max(axis=(1, 2))
    ortho = np.abs(vh @ v - np.eye(dim)).max(axis=(1, 2))
    residuals = np.maximum(recon, ortho)
    if residuals.max(initial=0.0) > RECON_TOL:  # an empty stack has none
        k = int(np.argmax(residuals > RECON_TOL))
        residual = float(residuals[k])
        raise EigensolverError(
            f"{_member(members, k)}eigendecomposition residual {residual:.3e} exceeds "
            f"{RECON_TOL:.0e} at dim {dim}",
            dim=dim,
            residual=residual,
        )
    return w, v


def _member(members: Sequence[int] | None, k: int | None) -> str:
    """The prefix that names matrix k of a stack as the member members[k]:
    none when the stack has no member names or no single matrix failed."""
    return "" if members is None or k is None else f"member {members[k]}: "


def trace_norm(a: HermitianOperator) -> float:
    """Trace norm ||A||_1, the sum of absolute eigenvalues: the L1 norm of
    the diagonal when `a` is kept as one."""
    return float(np.abs(hermitian_eigenvalues(a)).sum())


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
    overlaps = np.abs(gram) ** 2 / np.outer(norms, norms)
    return np.sqrt(np.clip(1.0 - overlaps, 0.0, 1.0))


# Byte cap on one stack of rows of floats (2^14 floats at most): the diagonal
# pair differences and the row blocks of whole-array stages.  These stacks
# are solved serially: a larger cap computes more pairs before a caller's
# early exit (a 1 MB cap cut commuting-examples from 171 to 138 ops/s).
_STACK_BYTES = 1 << 17
# Byte cap on one block of the member stage's d x d complex differences
# (2^12 entries at most, one matrix at least).  Each matrix of a block keeps
# about five temporaries of its size (eigenvectors, residual products,
# rotated parts).  On the dense-files benchmark (seed 51, 30 reports) the
# peak RSS read 66.9-67.0 MB with this cap, 67.5 MB at 128 KB and 70-72 MB
# at 256-512 KB, against 66.8-67.1 MB for one eigh per member; blocks of up
# to 128 KB ran as fast as this cap, and blocks of 512 KB or more slower.
_BLOCK_BYTES = 1 << 16
# Fewest rows (matrices x d) in one stack of matrices solved for eigenvalues
# only: 43 matrices, 1.5 MB, at d = 48.  numpy's stacked solvers release the
# GIL only from about 500 rows, and on the dense-files benchmark inputs
# stacks of 1024 rows gained less than 2048 and slowed the (12, 16) files.
_STACK_ROWS = 2048
# Stacks solved at once, each on a worker thread: two, or one when this
# process may use only one CPU.
_WORKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _stacks(count: int, dim: int, solver: str | None = None) -> tuple[list[slice], int]:
    """The one stack planner: how every stage that takes an ensemble's
    members a stack at a time (the member stage, member_epsilons, the pair
    distances of C and D's gaps, and the row blocks of whole-array stages)
    sizes its stacks and threads them.  Returns consecutive slices of
    range(count), one per stack, and the number of threads to solve them on.

    A stack holds at least one item.  Rows of `dim` floats (solver None) go
    at most _STACK_BYTES to a stack; d x d complex matrices for "eigh", at
    most _BLOCK_BYTES; for "eigvalsh", which keeps one buffer per stack,
    the fewest matrices whose rows reach _STACK_ROWS.  Stacks of matrices
    that reach _STACK_ROWS rows, when there are two or more, are solved on
    up to _WORKERS threads (through _solved_in_order); every other plan on
    the calling thread.
    """
    if solver == "eigvalsh":
        size = -(-_STACK_ROWS // dim)
    elif solver == "eigh":
        size = max(1, _BLOCK_BYTES // (16 * dim * dim))
    else:
        size = max(1, _STACK_BYTES // (8 * dim))
    stacks = [slice(start, start + size) for start in range(0, count, size)]
    threaded = solver is not None and size * dim >= _STACK_ROWS
    return stacks, min(_WORKERS, len(stacks)) if threaded else 1


def _solved(solve: Callable, tasks: Sequence, workers: int) -> Iterator:
    """solve(task) for each of `tasks` in order, as _stacks planned them: on
    the calling thread, or through _solved_in_order."""
    return map(solve, tasks) if workers < 2 else _solved_in_order(solve, tasks, workers)


def pair_trace_distances(
    members: np.ndarray, blocks: Iterable[tuple[np.ndarray, np.ndarray]], spectra: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Trace distances (1/2)||rho_i - rho_j||_1 of the index pairs
    (first[k], second[k]) of each block (first, second) of `blocks`, yielded
    a stack at a time as (positions, distances): distances[n] belongs to the
    pair at position positions[n] of the blocks taken end to end.  `members`
    is an ensemble's member array, m x d or (m, d, d), and `spectra` its
    m x d array of spectra.

    Each pair's method is decided here, and only here, in this order within
    a block.  A pair of two diagonal members (every row of an m x d array,
    and each _is_diagonal matrix of a stack) goes in a stack of at most
    _STACK_BYTES of diagonal differences, gathered from their diagonals, at
    no eigensolve: a diagonal difference's eigenvalues are its entries.
    A pair of two rank-1 members (at most one spectrum entry above PSD_TOL),
    not both diagonal, takes the closed form pure_trace_distances at no
    eigensolve, from one Gram matrix of every rank-1 member's
    largest-diagonal column, formed on first use and kept across blocks.
    Every other pair goes in a stack of the fewest matrix differences whose
    rows reach _STACK_ROWS, at one eigvalsh call, which then runs without
    the GIL; up to _WORKERS such stacks are solved at once on worker
    threads, and no thread starts when a block's pairs fit one stack.  A
    matrix's eigenvalues do not depend on its stack, so neither do the
    distances.  When the caller stops or a solve fails, the pending stacks
    are dropped and the workers joined before control returns to it.
    """
    if members.ndim == 2:
        rows, diagonal = members, np.ones(len(members), dtype=bool)
    else:
        rows = members.diagonal(axis1=1, axis2=2).real
        diagonal = np.array([_is_diagonal(mat) for mat in members], dtype=bool)
    rank_one = np.zeros_like(diagonal)
    if not diagonal.all():  # only a pair with a dense member can take the closed form
        rank_one = np.count_nonzero(spectra > PSD_TOL, axis=1) <= 1
    column = np.cumsum(rank_one) - 1  # each rank-1 member's column of the Gram matrix
    table, start = None, 0
    for first, second in blocks:
        by_vector = diagonal[first] & diagonal[second]
        by_gram = rank_one[first] & rank_one[second] & ~by_vector
        yield from _kind_distances(rows, first, second, np.flatnonzero(by_vector), start)
        positions = np.flatnonzero(by_gram)
        if positions.size:
            if table is None:
                pure = np.flatnonzero(rank_one)
                vectors = members[pure, :, np.argmax(rows[pure], axis=1)]
                table = pure_trace_distances(np.ascontiguousarray(vectors.T))
            yield start + positions, table[column[first[positions]], column[second[positions]]]
        dense = np.flatnonzero(~(by_vector | by_gram))
        yield from _kind_distances(members, first, second, dense, start)
        start += first.size


def _kind_distances(
    arrays: np.ndarray, first: np.ndarray, second: np.ndarray, positions: np.ndarray, start: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """pair_trace_distances for the pairs at `positions` of one block that
    starts at position `start`, all of one stack kind: matrix differences
    when `arrays` is an (m, d, d) stack, filled a pair at a time so that no
    temporary of a stack's size is made, else diagonal ones, gathered."""
    if not positions.size:
        return
    dense = arrays.ndim == 3
    plan, workers = _stacks(positions.size, arrays.shape[-1], "eigvalsh" if dense else None)
    stacks = [positions[stack] for stack in plan]
    # One buffer per stack being filled or solved, allocated on this thread:
    # stacks allocated on the workers raised dense-files' peak RSS by 7%.
    shape = (stacks[0].size, *arrays.shape[1:])
    buffers = [np.empty(shape, complex if dense else float) for _ in range(workers)]

    def distances(stack):
        buffer = buffers.pop()
        try:
            diffs = buffer[:stack.size]
            if not dense:
                np.subtract(arrays[first[stack]], arrays[second[stack]], out=diffs)
                return start + stack, 0.5 * np.abs(diffs).sum(axis=1)
            for k, (i, j) in enumerate(zip(first[stack].tolist(), second[stack].tolist())):
                np.subtract(arrays[i], arrays[j], out=diffs[k])
            return start + stack, 0.5 * np.abs(_eigvalsh(diffs)).sum(axis=1)
        finally:
            buffers.append(buffer)

    yield from _solved(distances, stacks, workers)


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
        for task in tasks:
            if len(pending) == workers:
                yield pending.popleft().result()
            pending.append(pool.submit(solve, task))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def jordan_parts(a: HermitianOperator) -> tuple[HermitianOperator, HermitianOperator]:
    """Split A into PSD parts (A_plus, A_minus) with A = A_plus - A_minus.

    The split follows the sign of the eigenvalues; eigenvalues within
    [-PSD_TOL, PSD_TOL] count as exact zeros and contribute to neither part.
    The two parts have orthogonal supports, so A_plus A_minus = 0 and
    Tr A_plus + Tr A_minus = ||A||_1 up to solver noise.  An `a` kept as its
    diagonal is split by the sign of its entries, into parts kept as
    diagonals, with no eigensystem.  Any other `a` takes one hermitian_eig,
    and its parts are _spectral_sum's of the split eigenvalues.
    """
    if a.diagonal is not None:
        return tuple(
            _derived(HermitianOperator, diagonal=np.where(w > PSD_TOL, w, 0.0))
            for w in (a.diagonal, -a.diagonal)
        )
    system = hermitian_eig(a)
    vectors = system.eigenvectors
    return tuple(
        _derived(HermitianOperator, mat=_spectral_sum(vectors, np.where(w > PSD_TOL, w, 0.0)))
        for w in (system.eigenvalues, -system.eigenvalues)
    )


def _spectral_sum(
    vectors: np.ndarray, values: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """V diag(values) V^dag for each eigenvector matrix V of `vectors`, a
    d x d matrix or an (n, d, d) stack, and its row of nonnegative `values`,
    written to `out` when given; symmetrized to (P + P^dag)/2, exactly
    Hermitian.  Every column of V takes part, so a stack is one matmul."""
    part = np.matmul(vectors * values[..., None, :], vectors.conj().swapaxes(-1, -2), out=out)
    part += part.conj().swapaxes(-1, -2)
    part *= 0.5
    return part
