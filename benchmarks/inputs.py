"""Seeded inputs for the benchmark workloads.

Uses numpy and the standard library only, nothing from the package under
test: the program sees these inputs only as ensemble files and argv.  The
same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Member kinds of the dense-files workload, in equal shares.
DENSE_KINDS = ("pure", "rank", "full")
# (members m, dimension d) of the dense-files ensembles.  The shapes are
# fixed and the seed draws the matrices and probabilities, so every seed
# asks for the same amount of work.
DENSE_SHAPES = ((12, 16), (19, 24), (26, 32), (33, 40), (40, 48))

OSCILLATOR_MEANS = ("0.5", "1", "2", "3")
ORTHOGONAL_SIZES = (16, 32, 64)

VERIFY_TRIALS = 100


@dataclass(frozen=True)
class DenseEnsemble:
    """One generated ensemble: probabilities, states (m, d, d) and, for
    pure members, the unit state vectors (m, d)."""

    name: str
    kind: str
    probs: np.ndarray
    states: np.ndarray
    vectors: np.ndarray | None


def dense_ensemble(seed: int, index: int, kind: str, m: int, d: int) -> DenseEnsemble:
    rng = np.random.default_rng([seed, index])
    probs = rng.dirichlet(np.ones(m))
    vectors = None
    if kind == "pure":
        vectors = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        states = vectors[:, :, None] * vectors[:, None, :].conj()
    else:
        states = np.empty((m, d, d), dtype=complex)
        for i in range(m):
            rank = int(rng.integers(1, d + 1)) if kind == "rank" else d
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            mat = g @ g.conj().T
            states[i] = mat / mat.trace().real
    return DenseEnsemble(f"{kind}-m{m}-d{d}", kind, probs, states, vectors)


def dense_ensembles(seed: int) -> list[DenseEnsemble]:
    """The dense-files ensembles for `seed`, smallest shape first."""
    out = []
    for s, (m, d) in enumerate(DENSE_SHAPES):
        for k, kind in enumerate(DENSE_KINDS):
            out.append(dense_ensemble(seed, s * len(DENSE_KINDS) + k, kind, m, d))
    return out


def write_ensemble_file(path: str, mu: DenseEnsemble) -> int:
    """Write `mu` in the package's ensemble file format, one member at a
    time; returns the file size in bytes."""
    d = mu.states.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"version": 1, "dim": {d}, "members": [')
        for i, (p, state) in enumerate(zip(mu.probs, mu.states)):
            pairs = np.stack([state.real, state.imag], axis=-1).tolist()
            member = {"prob": float(p), "label": f"{mu.name}-{i}", "state": pairs}
            fh.write((", " if i else "") + json.dumps(member))
        fh.write("]}\n")
    return os.path.getsize(path)


def verify_seed(seed: int, round_index: int) -> int:
    """The --seed of verify round `round_index`: fresh for every round."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])
