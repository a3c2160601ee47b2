"""Command-line front end.

Subcommands:

  report            evaluate every bound on an ensemble file (JSON or CSV out)
  example           evaluate a named built-in ensemble
  oscillator-curve  CSV of chi and its upper estimate over a grid of mean
                    photon numbers
  verify            run a randomized verification suite (fei, bounds,
                    tightness)

Exit codes: 0 success, 1 property violation, 2 input error, 3 numerical
failure (an eigensolver failed or exceeded its residual tolerance; `verify`
exits 3 when every failed trial failed numerically).  All
stored and checked tolerances are in nats; --log-base 2 rescales display
output only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bounds import BOUND_KEYS, BoundReport, fei_check, full_report
from .ensemble import AVERAGE_MATCH_TOL, DiscreteEnsemble
from .gallery import (
    OscillatorEnsembleSpec,
    orthogonal_ensemble,
    oscillator_closed_form,
    oscillator_ensemble,
    random_mixed_state,
    random_pure_state,
    random_ensemble,
    trine_ensemble,
)
from .linalg import DensityOperator, EigensolverError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

ENSEMBLE_FILE_VERSION = 1

# Report fields carrying entropy units (rescaled under --log-base 2); the
# remaining numeric fields (eps_av, plus_diameter, average_match_residual)
# are trace-norm quantities and stay fixed.
ENTROPY_FIELDS = (
    "chi",
    "chi_plus",
    "chi_minus",
    "hbar",
    "h_of_eps_av",
    *BOUND_KEYS,
    "pinsker_term",
    "pinsker_term_reweighted",
)
PLAIN_FIELDS = ("eps_av", "plus_diameter", "average_match_residual")


class EnsembleFileError(ValueError):
    """An ensemble file failed validation; the message names the first
    violated invariant."""


def ensemble_to_dict(mu: DiscreteEnsemble) -> dict:
    """Serialize an ensemble to the JSON file schema (complex entries as
    [re, im] pairs)."""
    members = []
    for k, (p, state) in enumerate(zip(mu.probs, mu.states)):
        entry = {
            "prob": float(p),
            "state": [
                [[float(z.real), float(z.imag)] for z in row] for row in state.mat
            ],
        }
        if mu.labels is not None:
            entry["label"] = mu.labels[k]
        members.append(entry)
    return {"version": ENSEMBLE_FILE_VERSION, "dim": mu.dim, "members": members}


def ensemble_from_dict(data: dict) -> DiscreteEnsemble:
    """Parse and validate the ensemble file schema into a DiscreteEnsemble."""
    if not isinstance(data, dict):
        raise EnsembleFileError("top level must be a JSON object")
    version = data.get("version")
    if version != ENSEMBLE_FILE_VERSION:
        raise EnsembleFileError(
            f"unsupported file version {version!r}, expected {ENSEMBLE_FILE_VERSION}"
        )
    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise EnsembleFileError(f"dim must be a positive integer, got {dim!r}")
    members = data.get("members")
    if not isinstance(members, list) or not members:
        raise EnsembleFileError("members must be a nonempty list")
    probs = []
    states = []
    labels = []
    have_labels = False
    for k, member in enumerate(members):
        if not isinstance(member, dict):
            raise EnsembleFileError(f"member {k} must be an object")
        prob = member.get("prob")
        if isinstance(prob, bool) or not isinstance(prob, (int, float)):
            raise EnsembleFileError(f"member {k}: prob must be a number")
        probs.append(float(prob))
        raw = member.get("state")
        try:
            arr = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise EnsembleFileError(f"member {k}: malformed state array: {exc}") from None
        if arr.shape != (dim, dim, 2):
            raise EnsembleFileError(
                f"member {k}: state must be a {dim}x{dim} array of [re, im] "
                f"pairs, got shape {arr.shape}"
            )
        mat = arr[..., 0] + 1j * arr[..., 1]
        try:
            states.append(DensityOperator(mat))
        except ValueError as exc:
            raise EnsembleFileError(f"member {k}: {exc}") from None
        label = member.get("label")
        if label is not None:
            have_labels = True
        labels.append(str(label) if label is not None else f"member-{k}")
    try:
        return DiscreteEnsemble(
            np.array(probs), tuple(states), labels=tuple(labels) if have_labels else None
        )
    except (TypeError, ValueError) as exc:
        raise EnsembleFileError(str(exc)) from None


def load_ensemble_file(path: str) -> DiscreteEnsemble:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise EnsembleFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise EnsembleFileError(f"{path} is not valid JSON: {exc}") from None
    return ensemble_from_dict(data)


def write_ensemble_file(path: str, mu: DiscreteEnsemble) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ensemble_to_dict(mu), fh)
        fh.write("\n")


def report_to_dict(
    report: BoundReport, *, log_base: str = "natural", members: int | None = None,
    dim: int | None = None,
) -> dict:
    """Flatten a BoundReport for output, optionally rescaled to bits."""
    if log_base not in ("natural", "2"):
        raise ValueError(f"log base must be 'natural' or '2', got {log_base!r}")
    scale = 1.0 if log_base == "natural" else 1.0 / math.log(2.0)
    out: dict = {"log_base": log_base}
    if members is not None:
        out["members"] = members
    if dim is not None:
        out["dim"] = dim
    for name in ENTROPY_FIELDS:
        out[name] = getattr(report, name) * scale
    for name in PLAIN_FIELDS:
        out[name] = getattr(report, name)
    out["slacks"] = {key: value * scale for key, value in report.slacks.items()}
    return out


def format_report_json(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def format_report_csv(data: dict) -> str:
    lines = ["field,value"]
    for key, value in data.items():
        if key == "slacks":
            for slack_key, slack_value in value.items():
                lines.append(f"slack.{slack_key},{slack_value:.17g}")
        elif isinstance(value, float):
            lines.append(f"{key},{value:.17g}")
        else:
            lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _print_report(mu: DiscreteEnsemble, args, **extra) -> int:
    """Print mu's report, followed by the `extra` output fields."""
    report = full_report(mu)
    data = report_to_dict(
        report, log_base=args.log_base, members=mu.size, dim=mu.dim
    )
    data.update(extra)
    if args.format == "json":
        sys.stdout.write(format_report_json(data))
    else:
        sys.stdout.write(format_report_csv(data))
    return EXIT_OK


def _cmd_report(args) -> int:
    mu = load_ensemble_file(args.path)
    return _print_report(mu, args)


def _parse_example_name(name: str) -> tuple[DiscreteEnsemble, dict]:
    """The named ensemble and the extra output fields that describe it: the
    oscillator's truncation tail mass, which the ensemble itself drops."""
    if name == "trine":
        return trine_ensemble(), {}
    if name.startswith("orthogonal:"):
        try:
            m = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad member count in {name!r}") from None
        return orthogonal_ensemble(m), {}
    if name.startswith("oscillator:"):
        try:
            n_mean = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad mean photon number in {name!r}") from None
        mu, tail_mass = oscillator_ensemble(OscillatorEnsembleSpec(n_mean))
        return mu, {"tail_mass": tail_mass}
    raise ValueError(
        f"unknown example {name!r}; use trine, orthogonal:<m> or oscillator:<N>"
    )


def _cmd_example(args) -> int:
    mu, extra = _parse_example_name(args.name)
    return _print_report(mu, args, **extra)


def _cmd_oscillator_curve(args) -> int:
    if not 0.0 < args.n_min < args.n_max:
        raise ValueError(
            f"need 0 < n-min < n-max, got n-min={args.n_min} n-max={args.n_max}"
        )
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps, got {args.steps}")
    grid = np.geomspace(args.n_min, args.n_max, args.steps)
    lines = ["N,chi,chi_hat,gap"]
    for n_mean in grid:
        chi, chi_hat = oscillator_closed_form(float(n_mean), term_tol=1e-10)
        lines.append(
            f"{n_mean:.12g},{chi:.12g},{chi_hat:.12g},{chi_hat - chi:.12g}"
        )
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.steps} rows to {args.out}")
    return EXIT_OK


@dataclass
class SuiteResult:
    """Outcome of a verification suite: per-inequality worst slacks and any
    failed trials.  Each entry of `violations` names its trial, its ensemble
    and its "kind": "violation" when an inequality failed beyond its
    tolerance, "numerical" when an eigensolver failed (EigensolverError)."""

    suite: str
    trials: int
    passed: bool
    worst: dict[str, float] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)


def _record_failure(
    result: SuiteResult, trial: int, kind: str, detail: str, mu: DiscreteEnsemble
) -> None:
    result.passed = False
    result.violations.append(
        {"trial": trial, "kind": kind, "detail": detail, "ensemble": ensemble_to_dict(mu)}
    )


def _min_into(worst: dict, key: str, value: float) -> None:
    worst[key] = min(worst.get(key, math.inf), value)


def _max_into(worst: dict, key: str, value: float) -> None:
    worst[key] = max(worst.get(key, -math.inf), value)


def _random_state(dim: int, rng: np.random.Generator) -> DensityOperator:
    if rng.integers(2) == 0:
        return random_pure_state(dim, rng)
    rank = int(rng.integers(1, dim + 1))
    return random_mixed_state(dim, rank, rng)


def run_fei_suite(trials: int, seed: int) -> SuiteResult:
    """Entropic-inequality suite: random state pairs (mixture of pure and
    mixed, dims 2..8) must give slack >= -1e-8."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="fei", trials=trials, passed=True)
    for trial in range(trials):
        dim = int(rng.integers(2, 9))
        rho = _random_state(dim, rng)
        sigma = _random_state(dim, rng)
        try:
            check = fei_check(rho, sigma)
        except EigensolverError as exc:
            kind, detail = "numerical", str(exc)
        else:
            _min_into(result.worst, "slack", check.slack)
            if check.slack >= -1e-8:
                continue
            kind, detail = "violation", f"slack {check.slack:.3e} below -1e-08"
        pair = DiscreteEnsemble(np.array([0.5, 0.5]), (rho, sigma))
        _record_failure(result, trial, kind, detail, pair)
    return result


_ORDERINGS = (
    # (smaller field, larger field, tolerance)
    ("aux_bound", "shannon_bound", 1e-9),
    ("diameter_bound", "shannon_bound", 1e-9),
    ("shannon_bound", "count_bound", 1e-9),
    ("hbar", "h_of_eps_av", 1e-12),
)


def run_bounds_suite(trials: int, seed: int) -> SuiteResult:
    """Soundness suite on random ensembles (m in 2..6, dim in 2..8):
    every bound >= chi - 1e-8, the bound orderings hold, and the two
    auxiliary-ensemble averages coincide to AVERAGE_MATCH_TOL in trace norm."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="bounds", trials=trials, passed=True)
    for trial in range(trials):
        m = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 9))
        mu = random_ensemble(m, dim, rng)
        try:
            report = full_report(mu)
        except EigensolverError as exc:
            _record_failure(result, trial, "numerical", str(exc), mu)
            continue
        problems = []
        for key in BOUND_KEYS:
            slack = report.slacks[key]
            _min_into(result.worst, f"slack.{key}", slack)
            if slack < -1e-8:
                problems.append(f"{key} slack {slack:.3e} below -1e-08")
        for small, large, tol in _ORDERINGS:
            gap = getattr(report, large) - getattr(report, small)
            _min_into(result.worst, f"order.{small}<={large}", gap)
            if gap < -tol:
                problems.append(f"{small} exceeds {large} by {-gap:.3e}")
        _max_into(result.worst, "average_match_residual", report.average_match_residual)
        if report.average_match_residual > AVERAGE_MATCH_TOL:
            problems.append(
                f"auxiliary averages differ by {report.average_match_residual:.3e}"
            )
        if problems:
            _record_failure(result, trial, "violation", "; ".join(problems), mu)
    return result


def run_tightness_suite(trials: int = 7, seed: int = 0) -> SuiteResult:
    """Equality-family suite: for every m in 2..8 the orthogonal equiprobable
    pure ensemble must satisfy |aux_bound - chi| <= 1e-9.  `trials` and
    `seed` are accepted for interface uniformity; the family is fixed."""
    result = SuiteResult(suite="tightness", trials=7, passed=True)
    for m in range(2, 9):
        mu = orthogonal_ensemble(m)
        report = full_report(mu)
        gap = abs(report.aux_bound - report.chi)
        _max_into(result.worst, "abs(aux_bound - chi)", gap)
        if gap > 1e-9:
            detail = f"m={m}: |aux_bound - chi| = {gap:.3e} above 1e-09"
            _record_failure(result, m, "violation", detail, mu)
    return result


_SUITES = {
    "fei": run_fei_suite,
    "bounds": run_bounds_suite,
    "tightness": run_tightness_suite,
}


def _cmd_verify(args) -> int:
    runner = _SUITES[args.suite]
    result = runner(args.trials, args.seed)
    print(f"suite {result.suite}: {result.trials} trials")
    for key in sorted(result.worst):
        print(f"  worst {key} = {result.worst[key]:.6e}")
    if result.passed:
        print("all inequalities hold within stated tolerances")
        return EXIT_OK
    failure_path = f"verify-{result.suite}-failure.json"
    with open(failure_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"suite": result.suite, "seed": args.seed, "violations": result.violations},
            fh,
            indent=2,
        )
    numerical = sum(v.get("kind") == "numerical" for v in result.violations)
    violations = len(result.violations) - numerical
    counts = [f"{violations} violation(s)"] if violations else []
    if numerical:
        counts.append(f"{numerical} numerical failure(s)")
    print(f"{' and '.join(counts)} written to {failure_path}", file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holevo-bounds",
        description=(
            "Holevo quantity of quantum-state ensembles and entropic upper "
            "bounds on it (values in nats unless --log-base 2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="evaluate all bounds on an ensemble file")
    report.add_argument("path", help="ensemble JSON file")
    report.add_argument("--log-base", choices=("natural", "2"), default="natural")
    report.add_argument("--format", choices=("json", "csv"), default="json")
    report.set_defaults(func=_cmd_report)

    example = sub.add_parser("example", help="evaluate a named built-in ensemble")
    example.add_argument("name", help="trine | orthogonal:<m> | oscillator:<N>")
    example.add_argument("--log-base", choices=("natural", "2"), default="natural")
    example.add_argument("--format", choices=("json", "csv"), default="json")
    example.set_defaults(func=_cmd_example)

    curve = sub.add_parser(
        "oscillator-curve",
        help="CSV of chi and its upper estimate over a mean-photon-number grid",
    )
    curve.add_argument("--n-min", type=float, required=True)
    curve.add_argument("--n-max", type=float, required=True)
    curve.add_argument("--steps", type=int, required=True)
    curve.add_argument("--out", required=True, help="output CSV path")
    curve.set_defaults(func=_cmd_oscillator_curve)

    verify = sub.add_parser("verify", help="run a randomized verification suite")
    verify.add_argument("suite", choices=sorted(_SUITES))
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EnsembleFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EigensolverError as exc:
        residual = "unknown" if exc.residual is None else f"{exc.residual:.3e}"
        reason = " ".join(str(exc).split())
        print(
            f"numerical failure at dim {exc.dim} (residual {residual}): {reason}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
