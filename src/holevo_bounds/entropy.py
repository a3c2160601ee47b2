"""Scalar and matrix entropy functions, all in nats.

Entropy values are plain floats; math.inf marks a relative entropy whose
support condition fails.  Tiny negative results from floating point are
clipped to zero, and spectrum weights below ETA_FLOOR are treated as exact
zeros (eta is continuous at 0, and this avoids log underflow).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DensityOperator, PSD_TOL, _eigh, _stacks

# Spectrum weights at or below this are treated as exact zeros inside eta.
ETA_FLOOR = 1e-14
# Mass of rho tolerated outside supp(sigma) before relative entropy is +inf.
SUPPORT_TOL = 1e-10
# |sum(p) - 1| accepted for probability vectors.
PROB_TOL = 1e-9


def as_probability_vector(weights, *, tol: float = PROB_TOL) -> np.ndarray:
    """Validate `weights` as a probability vector; returns a read-only array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError(f"expected a nonempty 1-d weight vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    smallest = float(w.min())
    if smallest < 0.0:
        raise ValueError(f"weights must be nonnegative, got {smallest!r}")
    total = float(w.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"weights sum to {total!r}, not 1 within {tol:.0e}")
    out = np.array(w)
    out.setflags(write=False)
    return out


def eta(x: float) -> float:
    """-x ln x on [0, 1], with eta(0) = eta(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"eta is defined on [0, 1], got {x!r}")
    if x <= ETA_FLOOR:
        return 0.0
    val = -x * math.log(x)
    return val if val > 0.0 else 0.0


def binary_entropy(p: float) -> float:
    """eta(p) + eta(1 - p): symmetric in p <-> 1-p, maximal ln 2 at p = 1/2."""
    return eta(p) + eta(1.0 - p)


def _entropy_of_weights(w: np.ndarray) -> float:
    w = w[w > ETA_FLOOR]
    if w.size == 0:
        return 0.0
    val = float(-(w * np.log(w)).sum())
    return val if val > 0.0 else 0.0


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """_entropy_of_weights of every row of the 2-d `rows`, a block of rows at
    a time; entries at or below ETA_FLOOR are never passed to the log."""
    out = np.empty(rows.shape[0])
    for block in _stacks(*rows.shape)[0]:
        chunk = rows[block]
        logs = np.log(chunk, out=np.zeros_like(chunk), where=chunk > ETA_FLOOR)
        np.sum(np.multiply(chunk, logs, out=logs), axis=1, out=out[block])
    return np.maximum(-out, 0.0)


def shannon_entropy(weights) -> float:
    """Shannon entropy sum(eta(p_i)) of a probability vector.

    Zero exactly when the vector is a point mass.
    """
    return _entropy_of_weights(as_probability_vector(weights))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy of a state: the Shannon entropy of its spectrum.

    Bounded by ln(dim); zero for pure states.  Reads the spectrum kept by
    the state's validation, so it makes no eigensolve.
    """
    return _entropy_of_weights(rho.spectrum)


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Tr rho (ln rho - ln sigma) in nats, or +inf outside sigma's support.

    The support of sigma is its eigenspace above PSD_TOL.  If rho places more
    than SUPPORT_TOL of mass outside it, the result is math.inf; otherwise the
    value is computed on the support and clipped to be nonnegative.  A sigma
    kept as its diagonal is read in O(d), with no eigensolve: its eigenvectors
    are the basis vectors, so the overlaps are rho's diagonal.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if sigma.diagonal is not None:
        eigenvalues = sigma.diagonal
        overlaps = rho.diagonal if rho.diagonal is not None else rho.mat.diagonal().real
    else:
        w, v = _eigh(sigma.mat[None])
        eigenvalues, vectors = w[0], v[0]
        # <v_k| rho |v_k> for every eigenvector of sigma.
        overlaps = np.einsum("ji,jk,ki->i", vectors.conj(), rho.mat, vectors).real
    overlaps = np.clip(overlaps, 0.0, None)
    support = eigenvalues > PSD_TOL
    outside = float(overlaps[~support].sum())
    if outside > SUPPORT_TOL:
        return math.inf
    cross = float((overlaps[support] * np.log(eigenvalues[support])).sum())
    val = -von_neumann_entropy(rho) - cross
    return val if val > 0.0 else 0.0


def gibbs_entropy(mean_photon_number: float) -> float:
    """Entropy (N+1) ln(N+1) - N ln N of the thermal oscillator state with
    mean occupation N; strictly increasing, with value 0 at N = 0."""
    n = float(mean_photon_number)
    if n < 0.0:
        raise ValueError(f"mean photon number must be nonnegative, got {n!r}")
    if n == 0.0:
        return 0.0
    return (n + 1.0) * math.log(n + 1.0) - n * math.log(n)
