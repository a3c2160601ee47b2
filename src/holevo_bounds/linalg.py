"""Dense complex Hermitian matrix kernel.

Everything downstream (entropies, ensemble bounds) reduces to the operations
here: eigendecomposition, trace norm, trace distance, and the split of a
Hermitian operator into its positive and negative parts.  Matrices are dense
double-precision arrays; operators are immutable once constructed, so all
functions in this module are pure and safe to call concurrently.  An exactly
diagonal operator (every commuting ensemble in its shared basis) is
decomposed in closed form, with no LAPACK call.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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


def _frozen(mat: np.ndarray, dtype) -> np.ndarray:
    out = np.array(mat, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense complex square matrix, exactly Hermitian after construction.

    Input must be Hermitian to within HERMITICITY_TOL in the max-entry norm
    (file-sourced matrices carry rounding noise); it is then symmetrized to
    (A + A^dag)/2 and frozen.
    """

    mat: np.ndarray

    def __post_init__(self):
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
        object.__setattr__(self, "mat", _frozen((mat + mat.conj().T) / 2.0, complex))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(self.mat.trace().real)

    def _check_same_dim(self, other: "HermitianOperator") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_dim(other)
        return HermitianOperator(self.mat + other.mat)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_dim(other)
        return HermitianOperator(self.mat - other.mat)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self.mat * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class DensityOperator(HermitianOperator):
    """A quantum state: Hermitian, positive semidefinite, unit trace.

    Eigenvalues down to -PSD_TOL are accepted (eigensolvers return tiny
    negatives for PSD matrices) and treated as zero by all consumers.
    `spectrum` keeps the ascending eigenvalues that the positivity check
    computes, read-only, so consumers such as von_neumann_entropy need no
    second eigensolve.
    """

    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "spectrum", _frozen(hermitian_eigenvalues(self), float))
        smallest = float(self.spectrum[0])
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
    """Ascending eigenvalues paired with a unitary matrix of eigenvectors.

    `order` is set when the operator was exactly diagonal: eigenvalue k is
    its diagonal entry order[k] and eigenvector k the basis vector
    e_order[k].  It is None for a LAPACK solution.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    order: np.ndarray | None = None


def _is_diagonal(mat: np.ndarray) -> bool:
    """Every off-diagonal entry is exactly 0: one O(d^2) pass, no copy.

    Such an operator's eigensystem is its sorted diagonal and the standard
    basis, so it needs no eigensolve.  Any nonzero off-diagonal entry, however
    small, sends the operator to LAPACK.  A nonzero corner entry settles a
    dense operator before the pass.
    """
    dim = mat.shape[0]
    if dim > 1 and mat[dim - 1, 0] != 0:
        return False
    return np.count_nonzero(mat) == np.count_nonzero(mat.diagonal())


def _diagonal_order(mat: np.ndarray) -> np.ndarray:
    """Indices that sort the real diagonal of `mat` ascending, ties in place.

    Python's list sort, not numpy's: the first call of a numpy sort kernel
    pages in 0.1-0.25 MB of its code, a peak-memory rise on every run.
    """
    entries = mat.diagonal().real.tolist()
    return np.array(sorted(range(len(entries)), key=entries.__getitem__), dtype=np.intp)


def hermitian_eigenvalues(a: HermitianOperator) -> np.ndarray:
    """Ascending eigenvalues of `a` (values-only fast path); the sorted
    diagonal when `a` is diagonal."""
    if _is_diagonal(a.mat):
        return a.mat.diagonal().real[_diagonal_order(a.mat)]
    try:
        return np.linalg.eigvalsh(a.mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigenvalue computation failed at dim {a.dim}: {exc}", dim=a.dim
        ) from exc


def _check_residual(residual: float, dim: int) -> None:
    if residual > RECON_TOL:
        raise EigensolverError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{RECON_TOL:.0e} at dim {dim}",
            dim=dim,
            residual=residual,
        )


def hermitian_eig(a: HermitianOperator) -> EigenSystem:
    """Full eigendecomposition of `a` with a verified reconstruction.

    Raises EigensolverError when LAPACK fails or when the reconstruction
    residual max(||V diag(w) V^dag - A||_max, ||V^dag V - I||_max) exceeds
    RECON_TOL.  A diagonal `a` is solved in closed form (see EigenSystem.order).
    """
    if _is_diagonal(a.mat):
        diag = a.mat.diagonal()
        order = _diagonal_order(a.mat)
        w = diag.real[order]
        # V is a permutation, so V^dag V = I and V diag(w) V^dag - A vanish
        # off the diagonal; on it they differ only by Im(A_kk).
        _check_residual(float(np.max(np.abs(diag[order] - w))), a.dim)
        v = np.zeros((a.dim, a.dim), dtype=complex)
        v[order, np.arange(a.dim)] = 1.0
        return EigenSystem(_frozen(w, float), _frozen(v, complex), _frozen(order, np.intp))
    try:
        w, v = np.linalg.eigh(a.mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigendecomposition failed at dim {a.dim}: {exc}", dim=a.dim
        ) from exc
    recon_err = float(np.max(np.abs((v * w) @ v.conj().T - a.mat)))
    ortho_err = float(np.max(np.abs(v.conj().T @ v - np.eye(a.dim))))
    _check_residual(max(recon_err, ortho_err), a.dim)
    return EigenSystem(_frozen(w, float), _frozen(v, complex))


def trace_norm(a: HermitianOperator) -> float:
    """Trace norm ||A||_1, the sum of absolute eigenvalues."""
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


# Byte cap on one stack of pair differences (2^13 complex entries).  The
# stack adds its whole size to peak memory, and on the dense-files benchmark
# inputs the diameter ran equally fast with caps from 128 KB to 1 MB.
_STACK_BYTES = 1 << 17


def pair_trace_distances(
    mats: Sequence[np.ndarray], first: np.ndarray, second: np.ndarray
) -> Iterator[np.ndarray]:
    """Trace distances (1/2)||A_i - A_j||_1 for the index pairs
    (first[k], second[k]) over the Hermitian d x d matrices `mats`.

    The differences are stacked into chunks of at most _STACK_BYTES, one
    eigvalsh call per chunk, and each chunk's distances are yielded before
    the next is solved, so a caller may stop early.
    """
    if not len(first):
        return
    dim = mats[0].shape[0]
    chunk = max(1, _STACK_BYTES // (16 * dim * dim))
    stack = np.empty((min(chunk, len(first)), dim, dim), dtype=complex)
    for start in range(0, len(first), chunk):
        block = stack[:len(first) - start]
        for k in range(len(block)):
            np.subtract(mats[first[start + k]], mats[second[start + k]], out=block[k])
        try:
            w = np.linalg.eigvalsh(block)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(
                f"stacked eigenvalue computation failed at dim {dim}: {exc}", dim=dim
            ) from exc
        yield 0.5 * np.abs(w).sum(axis=1)


def jordan_parts(a: HermitianOperator) -> tuple[HermitianOperator, HermitianOperator]:
    """Split A into PSD parts (A_plus, A_minus) with A = A_plus - A_minus.

    The split follows the sign of the eigenvalues; eigenvalues within
    [-PSD_TOL, PSD_TOL] count as exact zeros and contribute to neither part.
    The two parts have orthogonal supports, so A_plus A_minus = 0 and
    Tr A_plus + Tr A_minus = ||A||_1 up to solver noise.
    """
    return jordan_split(hermitian_eig(a))


def jordan_split(system: EigenSystem) -> tuple[HermitianOperator, HermitianOperator]:
    """jordan_parts of the operator whose eigendecomposition is `system`,
    for callers that also need its eigenvalues (one solve serves both)."""
    w, v = system.eigenvalues, system.eigenvectors
    if system.order is not None:
        diag = np.empty_like(w)
        diag[system.order] = w
        return (
            HermitianOperator(np.diag(np.where(diag > PSD_TOL, diag, 0.0))),
            HermitianOperator(np.diag(np.where(diag < -PSD_TOL, -diag, 0.0))),
        )
    pos = w > PSD_TOL
    neg = w < -PSD_TOL
    plus = (v[:, pos] * w[pos]) @ v[:, pos].conj().T
    minus = (v[:, neg] * (-w[neg])) @ v[:, neg].conj().T
    return HermitianOperator(plus), HermitianOperator(minus)
