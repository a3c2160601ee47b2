"""Independent reference checks for the benchmark's outputs.

Everything here is recomputed with numpy from the generated inputs, using
none of the package's code; only the package's tolerances are repeated.
`check_*` functions return a list of problems, empty when the output is
correct.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

# The package's tolerances.
PSD_TOL = 1e-10  # eigenvalues within this of 0 count as 0 in the Jordan split
ETA_FLOOR = 1e-14  # spectrum weights at or below this carry no entropy
EPS_ZERO_TOL = 1e-12  # member distances at or below this count as 0
FIELD_TOL = 1e-9  # agreement of a reported value with the reference
BOUND_TOL = 1e-8  # every bound >= chi - BOUND_TOL
ORDER_TOL = 1e-9  # aux <= shannon <= count and diameter <= shannon
HBAR_TOL = 1e-12  # hbar <= h(eps_av)
AVERAGE_MATCH_TOL = 1e-9  # trace-norm gap of the averages of mu+ and mu-
TAIL_TOL = 1e-12  # oscillator tail mass dropped by `example oscillator:N`

BOUND_FIELDS = (
    "aux_bound",
    "aux_bound_hvariant",
    "shannon_bound",
    "shannon_bound_hvariant",
    "count_bound",
    "diameter_bound",
)
# Report fields compared with the reference.  average_match_residual is
# solver noise on both sides; check_properties bounds it instead.
VALUE_FIELDS = BOUND_FIELDS + (
    "chi",
    "chi_plus",
    "chi_minus",
    "eps_av",
    "hbar",
    "h_of_eps_av",
    "plus_diameter",
    "pinsker_term",
    "pinsker_term_reweighted",
)


def _entropy(weights: np.ndarray) -> float:
    w = weights[weights > ETA_FLOOR]
    return max(0.0, float(-(w * np.log(w)).sum()))


def _binary_entropy(x: float) -> float:
    return sum(-t * math.log(t) for t in (x, 1.0 - x) if t > ETA_FLOOR)


class _Algebra:
    """Spectra and Jordan parts of Hermitian operators given as dense
    matrices (..., d, d) or, for commuting ensembles, as their diagonals
    (..., d) in the shared eigenbasis."""

    def __init__(self, dense: bool):
        self.dense = dense

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(x) if self.dense else x

    def trace_norm(self, x: np.ndarray) -> np.ndarray:
        return np.abs(self.spectrum(x)).sum(axis=-1)

    def entropy(self, x: np.ndarray) -> float:
        return _entropy(self.spectrum(x))

    def mix(self, weights: np.ndarray, states: np.ndarray) -> np.ndarray:
        return np.tensordot(weights, states, axes=1)

    def jordan(self, x: np.ndarray):
        """Spectra, positive parts and negative parts of a batch."""
        if not self.dense:
            return x, np.where(x > PSD_TOL, x, 0.0), np.where(x < -PSD_TOL, -x, 0.0)
        w, v = np.linalg.eigh(x)
        vh = v.conj().swapaxes(-1, -2)
        plus = (v * np.where(w > PSD_TOL, w, 0.0)[..., None, :]) @ vh
        minus = (v * np.where(w < -PSD_TOL, -w, 0.0)[..., None, :]) @ vh
        return w, plus, minus

    def trace(self, x: np.ndarray) -> np.ndarray:
        if self.dense:
            return np.trace(x, axis1=-2, axis2=-1).real
        return x.sum(axis=-1)

    def holevo(self, probs: np.ndarray, states: np.ndarray) -> float:
        members = sum(p * self.entropy(s) for p, s in zip(probs, states))
        return max(0.0, self.entropy(self.mix(probs, states)) - members)


def reference_report(probs, states, *, dense: bool) -> dict:
    """Every report field of the ensemble {probs, states}, from scratch.

    C is a brute-force scan over all pairs of positive parts, without the
    early exit the package takes at the metric ceiling.
    """
    alg = _Algebra(dense)
    probs = np.asarray(probs, dtype=float)
    states = np.asarray(states)
    m = probs.size
    avg = alg.mix(probs, states)
    chi = alg.holevo(probs, states)
    spectra, plus, minus = alg.jordan(states - avg)
    eps = np.clip(0.5 * np.abs(spectra).sum(axis=-1), 0.0, 1.0)
    eps_av = float(probs @ eps)
    hbar = sum(p * _binary_entropy(e) for p, e in zip(probs, eps))
    h_av = _binary_entropy(min(eps_av, 1.0))
    tr_plus, tr_minus = alg.trace(plus), alg.trace(minus)
    keep = (eps > EPS_ZERO_TOL) & (np.minimum(tr_plus, tr_minus) > EPS_ZERO_TOL)
    if not keep.any():
        raise ValueError("degenerate ensemble: no member differs from the average")
    shape = (-1,) + (1,) * (plus.ndim - 1)
    tau_plus = plus[keep] / tr_plus[keep].reshape(shape)
    tau_minus = minus[keep] / tr_minus[keep].reshape(shape)
    weights = probs[keep] * eps[keep]
    weights = weights / weights.sum()
    chi_plus = alg.holevo(weights, tau_plus)
    chi_minus = alg.holevo(weights, tau_minus)
    omega = alg.mix(weights, tau_minus)
    residual = float(alg.trace_norm(alg.mix(weights, tau_plus) - omega))
    diameter = 0.0
    for i in range(len(tau_plus) - 1):
        pair = 0.5 * alg.trace_norm(tau_plus[i + 1 :] - tau_plus[i])
        diameter = max(diameter, float(pair.max()))
    diameter = min(diameter, 1.0)
    gaps = alg.trace_norm(tau_minus - omega)
    pinsker = 0.5 * float(probs[keep] @ gaps**2)
    pinsker_rw = 0.5 * float(weights @ gaps**2)
    h_weights = _entropy(weights)
    aux = eps_av * (chi_plus - chi_minus)
    shannon = eps_av * h_weights
    count = eps_av * math.log(m)
    dia = eps_av * diameter * h_weights + hbar - eps_av * pinsker
    out = {
        "members": m,
        "dim": states.shape[-1],
        "chi": chi,
        "chi_plus": chi_plus,
        "chi_minus": chi_minus,
        "eps_av": eps_av,
        "hbar": hbar,
        "h_of_eps_av": h_av,
        "aux_bound": aux + hbar,
        "aux_bound_hvariant": aux + h_av,
        "shannon_bound": shannon + hbar,
        "shannon_bound_hvariant": shannon + h_av,
        "count_bound": count + hbar,
        "diameter_bound": dia,
        "plus_diameter": diameter,
        "pinsker_term": pinsker,
        "pinsker_term_reweighted": pinsker_rw,
        "average_match_residual": residual,
        "eps": eps,
    }
    out["slacks"] = {key: out[key] - chi for key in BOUND_FIELDS}
    out["slacks"]["pinsker_lemma"] = chi_minus - pinsker
    out["slacks"]["audenaert_lemma"] = diameter * h_weights - chi_plus
    return out


def _close(problems: list, what: str, got, want, tol: float = FIELD_TOL) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        problems.append(f"{what} = {got!r}, reference {want!r} (tolerance {tol:.0e})")


def check_properties(report: dict) -> list[str]:
    """The method's required properties, whatever the ensemble."""
    problems = []
    chi = report["chi"]
    for key in BOUND_FIELDS:
        if not report[key] >= chi - BOUND_TOL:
            problems.append(f"{key} {report[key]!r} is below chi {chi!r}")
    for small, large in (
        ("aux_bound", "shannon_bound"),
        ("shannon_bound", "count_bound"),
        ("diameter_bound", "shannon_bound"),
    ):
        if not report[small] <= report[large] + ORDER_TOL:
            problems.append(f"{small} {report[small]!r} exceeds {large} {report[large]!r}")
    if not report["hbar"] <= report["h_of_eps_av"] + HBAR_TOL:
        problems.append(f"hbar {report['hbar']!r} exceeds h(eps_av) {report['h_of_eps_av']!r}")
    if not report["average_match_residual"] <= AVERAGE_MATCH_TOL:
        problems.append(f"averages of mu+/mu- differ by {report['average_match_residual']!r}")
    if not 0.0 <= report["plus_diameter"] <= 1.0:
        problems.append(f"diameter C = {report['plus_diameter']!r} is outside [0, 1]")
    return problems


def check_report(report: dict, reference: dict) -> list[str]:
    """Compare every field of a report (nats) with the reference, and check
    the required properties."""
    problems = []
    try:
        for key in ("members", "dim"):
            if report[key] != reference[key]:
                problems.append(f"{key} = {report[key]!r}, expected {reference[key]}")
        for key in VALUE_FIELDS:
            _close(problems, key, report[key], reference[key])
        for key, value in reference["slacks"].items():
            _close(problems, f"slack {key}", report["slacks"][key], value)
        problems += check_properties(report)
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def parse_report(stdout: str) -> dict | str:
    """The JSON report a `report`/`example` command printed, or a problem."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(report, dict):
        return "output is not a JSON object"
    if report.get("log_base") != "natural":
        return f"log_base is {report.get('log_base')!r}, expected 'natural'"
    return report


def gram_holevo(probs: np.ndarray, vectors: np.ndarray) -> float:
    """chi of a pure-state ensemble: S(avg) from the m x m Gram matrix
    sqrt(p_i p_j) <psi_i|psi_j>, which shares avg's nonzero spectrum."""
    scaled = np.sqrt(probs)[:, None] * vectors
    return _entropy(np.linalg.eigvalsh(scaled.conj() @ scaled.T))


def dense_reference(mu) -> dict:
    """Reference fields for a generated dense ensemble (see inputs.py)."""
    reference = reference_report(mu.probs, mu.states, dense=True)
    if mu.vectors is not None:
        reference["gram_chi"] = gram_holevo(mu.probs, mu.vectors)
    return reference


def check_dense(report: dict, reference: dict) -> list[str]:
    problems = check_report(report, reference)
    if "gram_chi" in reference:
        _close(problems, "chi (Gram matrix)", report.get("chi"), reference["gram_chi"])
    return problems


def oscillator_probs(mean_photon_number: float) -> np.ndarray:
    """Geometric weights over 0..cutoff, cutoff the smallest level whose
    dropped tail mass q^(cutoff+1) is below TAIL_TOL, renormalized."""
    q = mean_photon_number / (mean_photon_number + 1.0)
    cutoff = 0
    while q ** (cutoff + 1) >= TAIL_TOL:
        cutoff += 1
    probs = (1.0 - q) * q ** np.arange(cutoff + 1)
    return probs / probs.sum()


def oscillator_reference(name: str) -> dict:
    """Reference for `example oscillator:N`: Fock projectors, so every
    member is a diagonal of the identity."""
    n_mean = float(name.split(":", 1)[1])
    probs = oscillator_probs(n_mean)
    reference = reference_report(probs, np.eye(probs.size), dense=False)
    reference["n_mean"] = n_mean
    reference["probs"] = probs
    return reference


def gibbs_entropy(n: float) -> float:
    """g(N) = (N+1) ln(N+1) - N ln N, chi of the untruncated oscillator."""
    return (n + 1.0) * math.log(n + 1.0) - n * math.log(n)


def oscillator_tail_error(n_mean: float, probs: np.ndarray) -> float:
    """Bound on |chi_truncated - g(N)| from the dropped tail mass t: the
    tail's own entropy, at most t (-ln lam_next + 1), plus the change from
    renormalizing, at most t (g(N) + 1)."""
    q = n_mean / (n_mean + 1.0)
    tail = q**probs.size
    lam_next = (1.0 - q) * tail
    return tail * (-math.log(lam_next) + gibbs_entropy(n_mean) + 2.0) + FIELD_TOL


def check_oscillator(report: dict, reference: dict) -> list[str]:
    problems = check_report(report, reference)
    probs, n_mean = reference["probs"], reference["n_mean"]
    if not np.allclose(reference["eps"], 1.0 - probs, rtol=0.0, atol=1e-12):
        problems.append("reference eps_n differs from 1 - p_n")
    _close(problems, "plus_diameter", report.get("plus_diameter"), 1.0)
    _close(
        problems,
        "chi vs g(N)",
        report.get("chi"),
        gibbs_entropy(n_mean),
        oscillator_tail_error(n_mean, probs),
    )
    return problems


def orthogonal_reference(name: str) -> dict:
    m = int(name.split(":", 1)[1])
    reference = reference_report(np.full(m, 1.0 / m), np.eye(m), dense=False)
    reference["m"] = m
    return reference


def check_orthogonal(report: dict, reference: dict) -> list[str]:
    problems = check_report(report, reference)
    log_m = math.log(reference["m"])
    for key in ("chi", "chi_plus", "aux_bound"):
        _close(problems, f"{key} vs ln m", report.get(key), log_m)
    return problems


# Worst values printed by each verify suite, with the side each must stay on.
_VERIFY_LIMITS = {
    "bounds": {
        **{f"slack.{key}": (">=", -BOUND_TOL) for key in BOUND_FIELDS},
        "order.aux_bound<=shannon_bound": (">=", -ORDER_TOL),
        "order.diameter_bound<=shannon_bound": (">=", -ORDER_TOL),
        "order.shannon_bound<=count_bound": (">=", -ORDER_TOL),
        "order.hbar<=h_of_eps_av": (">=", -HBAR_TOL),
        "average_match_residual": ("<=", AVERAGE_MATCH_TOL),
    },
    "fei": {"slack": (">=", -BOUND_TOL)},
    "tightness": {"abs(aux_bound - chi)": ("<=", FIELD_TOL)},
}
_WORST = re.compile(r"^  worst (.+) = (\S+)$")


def check_verify(suite: str, trials: int, exit_code: int, stdout: str) -> list[str]:
    """A verify suite's exit code and every printed worst value."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify {suite} exited with {exit_code}")
    lines = stdout.splitlines()
    expected_trials = 7 if suite == "tightness" else trials
    if not lines or lines[0] != f"suite {suite}: {expected_trials} trials":
        problems.append(f"unexpected header {lines[:1]!r}")
    if not lines or lines[-1] != "all inequalities hold within stated tolerances":
        problems.append(f"unexpected last line {lines[-1:]!r}")
    worst = {}
    for line in lines[1:-1]:
        match = _WORST.match(line)
        try:
            worst[match.group(1)] = float(match.group(2))
        except (AttributeError, ValueError):
            problems.append(f"unexpected line {line!r}")
    limits = _VERIFY_LIMITS[suite]
    if set(worst) != set(limits):
        problems.append(f"printed keys {sorted(worst)} differ from {sorted(limits)}")
    for key, (side, limit) in limits.items():
        value = worst.get(key, math.nan)
        ok = value >= limit if side == ">=" else value <= limit
        if not ok:
            problems.append(f"worst {key} = {value!r} is not {side} {limit:.0e}")
    return problems
