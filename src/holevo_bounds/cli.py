"""Command-line front end.

Subcommands:

  report            evaluate every bound on an ensemble file (JSON or CSV out)
  example           evaluate a named built-in ensemble
  oscillator-curve  CSV of chi and its upper estimate over a grid of mean
                    photon numbers
  verify            run a randomized verification suite (fei, bounds,
                    tightness)

Exit codes: 0 success, 1 property violation, 2 input error (including an
input too large for memory, such as an oscillator whose cutoff asks for more
members than fit, and an output path that cannot be written), 3 numerical
failure (an eigensolver failed or exceeded its residual tolerance).  `verify`
records a trial that raises any exception and goes on; it exits 1 when some
inequality failed, and 3 when every failed trial raised instead.  All stored
and checked tolerances are in nats; --log-base 2 rescales display output only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bounds import BOUND_KEYS, BoundReport, fei_checks, full_report, full_reports
from .ensemble import AVERAGE_MATCH_TOL, DiscreteEnsemble, _from_rows
from .entropy import as_probability_vector
from .gallery import (
    OscillatorEnsembleSpec,
    _ginibre,
    _pure,
    _random_members,
    orthogonal_ensemble,
    oscillator_closed_form,
    oscillator_ensemble,
    trine_ensemble,
)
from .linalg import (
    DensityOperator, EigensolverError, _check_states, _derived, _each_alone, _groups, _joined,
)

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
    [re, im] pairs), from its member array, one member at a time: no member
    object is built."""
    members, dim = mu._members, mu.dim
    pairs, diagonal = np.zeros((dim, dim, 2)), np.arange(dim)
    out = []
    for k, (p, member) in enumerate(zip(mu.probs.tolist(), members)):
        if members.ndim == 3:
            pairs[..., 0], pairs[..., 1] = member.real, member.imag
        else:  # the off-diagonal pairs stay [0.0, 0.0]
            pairs[diagonal, diagonal, 0] = member
        entry = {"prob": p, "state": pairs.tolist()}
        if mu.labels is not None:
            entry["label"] = mu.labels[k]
        out.append(entry)
    return {"version": ENSEMBLE_FILE_VERSION, "dim": dim, "members": out}


def ensemble_from_dict(data: dict) -> DiscreteEnsemble:
    """Parse and validate the ensemble file schema into a DiscreteEnsemble.

    The members' matrices are written into one (m, d, d) stack as they are
    parsed, and the stack is checked as one (linalg._check_states): it is
    the ensemble's `matrices`, or, when every member is exactly diagonal,
    gives its m x d `diagonals`.  The first faulty member is named, with
    its first failed check, as if each member were checked in turn: a fault
    found while parsing member j comes after the state checks of the
    members before it.  A state may be nested lists, as json gives it, or
    an (n, n, 2) float array, as load_ensemble_file gives one."""
    if not isinstance(data, dict):
        raise EnsembleFileError("top level must be a JSON object")
    version = data.get("version")
    if type(version) is not int or version != ENSEMBLE_FILE_VERSION:
        raise EnsembleFileError(
            f"unsupported file version {version!r}, expected {ENSEMBLE_FILE_VERSION}"
        )
    dim = data.get("dim")
    if type(dim) is not int or dim < 1:
        raise EnsembleFileError(f"dim must be a positive integer, got {dim!r}")
    members = data.get("members")
    if not isinstance(members, list) or not members:
        raise EnsembleFileError("members must be a nonempty list")
    probs = []
    labels = []
    have_labels = False
    stack = None  # allocated once the first state has its shape
    for k, member in enumerate(members):
        try:
            prob, arr = _parse_member(k, member, dim)
        except EnsembleFileError:
            if k:  # a state fault of a member before k is the first fault
                _checked_states(stack[:k])
            raise
        if stack is None:
            stack = np.empty((len(members), dim, dim), dtype=complex)
        np.add(arr[..., 0], 1j * arr[..., 1], out=stack[k])
        probs.append(prob)
        label = member.get("label")
        if label is not None:
            have_labels = True
        labels.append(str(label) if label is not None else f"member-{k}")
    spectra, flat = _checked_states(stack)
    try:
        probs = as_probability_vector(np.array(probs))
    except ValueError as exc:
        raise EnsembleFileError(str(exc)) from None
    labels = tuple(labels) if have_labels else None
    # An all-diagonal ensemble keeps its diagonals, its spectra, as one m x d array.
    return _from_rows(probs, spectra, None if all(flat) else stack, labels=labels)


def _parse_member(k: int, member, dim: int) -> tuple[float, np.ndarray]:
    """The prob and the d x d x 2 float array of [re, im] pairs of member k
    of an ensemble file; raises EnsembleFileError, naming member k, for
    every fault the state checks do not see."""
    if not isinstance(member, dict):
        raise EnsembleFileError(f"member {k} must be an object")
    prob = member.get("prob")
    if isinstance(prob, bool) or not isinstance(prob, (int, float)):
        raise EnsembleFileError(f"member {k}: prob must be a number")
    state = member.get("state")
    try:
        prob = float(prob)
        arr = np.asarray(state, dtype=float)
    except OverflowError:
        raise EnsembleFileError(f"member {k}: number too large for a float") from None
    except (TypeError, ValueError) as exc:
        raise EnsembleFileError(f"member {k}: malformed state array: {exc}") from None
    if arr.shape != (dim, dim, 2):
        raise EnsembleFileError(
            f"member {k}: state must be a {dim}x{dim} array of [re, im] "
            f"pairs, got shape {arr.shape}"
        )
    # A state's entries have modulus at most 1: a part beyond 2, or NaN,
    # cannot be one, and could overflow the arithmetic of the checks.
    if not np.all(np.abs(arr) <= 2.0):
        raise EnsembleFileError(
            f"member {k}: state entries must be finite and of modulus at most 1"
        )
    # numpy reads JSON true and false as 1 and 0, so only an entry that
    # reads 0 or 1 can have been one: those few are looked up.  A float
    # array, as the file reader gives a state of numbers, holds none.
    if isinstance(state, np.ndarray) and state.dtype == float:
        return prob, arr
    flagged = np.argwhere((arr == 0.0) | (arr == 1.0)).tolist()
    if any(type(state[i][j][c]) is bool for i, j, c in flagged):
        raise EnsembleFileError(f"member {k}: state entries must be numbers, not booleans")
    return prob, arr


def _checked_states(stack: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """linalg._check_states of a file's stack of member matrices, its
    ValueError as an EnsembleFileError that names the member."""
    try:
        return _check_states(stack, range(len(stack)))
    except ValueError as exc:
        raise EnsembleFileError(str(exc)) from None


def load_ensemble_file(path: str) -> DiscreteEnsemble:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = _read_ensemble_text(fh.read())
    except OSError as exc:
        raise EnsembleFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise EnsembleFileError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise EnsembleFileError(f"{path} is not valid JSON: {exc}") from None
    return ensemble_from_dict(data)


# json.loads' scanner, with its defaults, and JSON whitespace.
_SCAN = json.JSONDecoder().scan_once
_SKIP = json.decoder.WHITESPACE.match
# In the text of an array of arrays of numbers, "]]]" (JSON whitespace
# between) ends the array.
_STATE_END = re.compile(r"\][ \t\n\r]*\][ \t\n\r]*\]")
# A state's skeleton: each character a JSON number can hold as "0", and
# JSON whitespace deleted, in one bytes.translate pass.
_NUMBERS_AS_ZEROS = bytes.maketrans(b"123456789+-.eE", b"0" * 14)


def _read_ensemble_text(text: str):
    """json.loads(text), except that every member's "state" written as an
    n x n array of [re, im] pairs of numbers is an (n, n, 2) float array,
    read as one flat list of its numbers by json's own scanner: no Python
    list is built per matrix entry, and the floats are the same bit for bit.

    The top-level object, its "members" list and each member object are
    walked with json's scanner, which reads every other key and value.  A
    state of any other text is read by the scanner too, and any text that
    is not such an object, or not valid JSON, is read by json.loads(text)
    alone, so its values and its errors are json's."""
    try:
        data, end = _object(text, _SKIP(text, 0).end(), _top_value)
        if _SKIP(text, end).end() == len(text):
            return data
    except (ValueError, StopIteration, RecursionError):
        pass
    return json.loads(text)


def _items(text: str, idx: int, close: str, read) -> int:
    """Walk the items of the JSON object or array whose opening bracket is
    at text[idx], as json does: read(idx) reads the item at text[idx] and
    gives the index after it.  Returns the index after `close`."""
    idx = _SKIP(text, idx + 1).end()
    if text[idx:idx + 1] == close:
        return idx + 1
    while True:
        idx = _SKIP(text, read(idx)).end()
        if text[idx:idx + 1] == close:
            return idx + 1
        if text[idx:idx + 1] != ",":
            raise ValueError("no comma")
        idx = _SKIP(text, idx + 1).end()


def _object(text: str, idx: int, value) -> tuple[dict, int]:
    """The JSON object at text[idx], read as json reads one, and the index
    after it; value(text, key, start) reads each value, as _SCAN does."""
    if text[idx:idx + 1] != "{":
        raise ValueError("not an object")
    out = {}

    def pair(idx: int) -> int:
        if text[idx:idx + 1] != '"':
            raise ValueError("not a key")
        key, idx = _SCAN(text, idx)
        idx = _SKIP(text, idx).end()
        if text[idx:idx + 1] != ":":
            raise ValueError("no colon")
        out[key], idx = value(text, key, _SKIP(text, idx + 1).end())
        return idx

    return out, _items(text, idx, "}", pair)


def _top_value(text: str, key: str, idx: int) -> tuple:
    """A value of the top-level object: "members" as a list of member
    objects (_member_value), each other value as json reads it."""
    if key != "members" or text[idx:idx + 1] != "[":
        return _SCAN(text, idx)
    out = []

    def member(idx: int) -> int:
        if text[idx:idx + 1] == "{":
            item, idx = _object(text, idx, _member_value)
        else:
            item, idx = _SCAN(text, idx)
        out.append(item)
        return idx

    return out, _items(text, idx, "]", member)


def _member_value(text: str, key: str, idx: int) -> tuple:
    """A value of a member object: "state" as an (n, n, 2) float array when
    its text is an n x n array of [re, im] pairs of numbers, each other
    value as json reads it.

    The test is on the state's skeleton: its text with each number
    character as "0" and JSON whitespace deleted.  It must be an n x n
    array of pairs with a run of zeros between each pair's "[" and "," and
    between its "," and "]", so no number sits outside its slot.  The
    numbers are then the text with its brackets blanked, read as one JSON
    list: it reads only if each slot holds one JSON number.  The skeleton
    holds no JSON literal, so no entry can be a boolean.  A list that does
    not read, or whose numbers are no floats, leaves the state to the
    scanner."""
    if key == "state" and text[idx:idx + 1] == "[":
        quote = text.find('"', idx)  # a state of numbers ends before it
        end = _STATE_END.search(text, idx, quote if quote >= 0 else len(text))
        if end is not None:
            body = text[idx:end.end()]
            try:  # a non-ASCII state, or one that does not read, goes on
                skeleton = body.encode("ascii").translate(_NUMBERS_AS_ZEROS, b" \t\n\r")
                n = (skeleton.count(b",", 0, skeleton.find(b"]]")) + 1) // 2  # 2n - 1 in row 0
                row = rb"\[\[0+,0+\](?:,\[0+,0+\]){%d}\]" % (n - 1)
                if n and re.fullmatch(rb"\[%s(?:,%s){%d}\]" % (row, row, n - 1), skeleton):
                    flat = "[" + body[1:-1].replace("[", " ").replace("]", " ") + "]"
                    numbers = _SCAN(flat, 0)[0]
                    state = np.fromiter(numbers, float, len(numbers)).reshape(n, n, 2)
                    return state, end.end()
            except (ValueError, StopIteration, OverflowError):
                pass
    return _SCAN(text, idx)


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
    for name, value in (("n-min", args.n_min), ("n-max", args.n_max)):
        if not math.isfinite(value):
            raise ValueError(f"mean photon number {name} must be finite, got {value}")
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
    tolerance, "numerical" when an eigensolver failed (EigensolverError),
    "error" when the trial raised any other exception."""

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


def _failure_of(exc: Exception) -> tuple[str, str]:
    """(kind, detail) of a trial that raised `exc`."""
    if isinstance(exc, EigensolverError):
        return "numerical", str(exc)
    return "error", f"{type(exc).__name__}: {exc}"


def _min_into(worst: dict, key: str, value: float) -> None:
    worst[key] = min(worst.get(key, math.inf), value)


def _max_into(worst: dict, key: str, value: float) -> None:
    worst[key] = max(worst.get(key, -math.inf), value)


def _random_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The unchecked matrix of a random state: pure, or mixed of a random
    rank, from the draws of random_pure_state or random_mixed_state."""
    if rng.integers(2) == 0:
        return _pure(dim, rng)
    return _ginibre(1, dim, int(rng.integers(1, dim + 1)), rng)[0]


# Trials drawn, checked and evaluated at a time by run_fei_suite and
# run_bounds_suite: a chunk's states, stacks and reports are all that a run
# holds at once, whatever its trial count.
_CHUNK = 100


def _chunks(trials: int) -> Iterator[range]:
    """The trial numbers of a run, a chunk of _CHUNK at a time."""
    return (range(start, min(start + _CHUNK, trials)) for start in range(0, trials, _CHUNK))


def _checked_stacks(stacks: list[np.ndarray], named: bool) -> list[tuple]:
    """linalg._check_states of each unchecked (m, d, d) stack of `stacks`:
    (matrices, spectra, flat) of each, checked as one joined stack per
    dimension (_check_joined).  If that raises, each stack is checked alone
    (_batched) and the first faulty one's error is raised, its members named
    when `named`, as when each was checked as it was drawn."""
    out = _batched(functools.partial(_check_joined, named=named), stacks)
    for item in out:
        if isinstance(item, Exception):
            raise item
    return out


def _check_joined(stacks: list[np.ndarray], named: bool) -> list[tuple]:
    """_checked_stacks' batch: the stacks of each dimension joined and
    checked as one, with (matrices, spectra, flat) of each stack as views of
    the joined arrays.  A stack alone is checked in place, its members named
    when `named`."""
    out = [None] * len(stacks)
    for index in _groups(stack.shape[-1] for stack in stacks):
        joined = _joined([stacks[t] for t in index])
        alone = named and len(index) == 1
        spectra, flat = _check_states(joined, range(len(joined)) if alone else None)
        start = 0
        for t in index:
            stop = start + len(stacks[t])
            out[t] = joined[start:stop], spectra[start:stop], flat[start:stop]
            start = stop
    return out


def _batched(solve, items: list) -> list:
    """solve(items), for a batch function such as full_reports; if the batch
    raises, solve([item]) of each item alone (linalg._each_alone), which
    gives each item its result or the exception it raised, as when the
    trials ran one at a time."""
    try:
        return solve(items)
    except Exception:
        alone = _each_alone(lambda item: solve([item])[0], items)
        return [result if error is None else error for result, error in alone]


def run_fei_suite(trials: int, seed: int) -> SuiteResult:
    """Entropic-inequality suite: random state pairs (mixture of pure and
    mixed, dims 2..8) must give slack >= -1e-8.

    The pairs are drawn a chunk of _CHUNK trials at a time, in the random
    stream of drawing and checking one pair per trial; a chunk's states are
    checked as one stack per dimension (_checked_stacks) and its pairs
    evaluated in one batch (fei_checks).  A batch that raises is evaluated
    again one pair at a time (_batched), so a trial that raises is recorded
    with its own kind and detail."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="fei", trials=trials, passed=True)
    for chunk in _chunks(trials):
        mats = []
        for _ in chunk:
            dim = int(rng.integers(2, 9))
            mats += [_random_matrix(dim, rng), _random_matrix(dim, rng)]
        checked = _checked_stacks([mat[None] for mat in mats], named=False)
        del mats  # the states hold the checked copies
        states = [  # each as DensityOperator(mat) builds it
            _derived(DensityOperator, mat=mat, diagonal=row if flat else None, spectrum=row)
            for (mat,), (row,), (flat,) in checked
        ]
        pairs = list(zip(states[::2], states[1::2]))
        for trial, pair, check in zip(chunk, pairs, _batched(fei_checks, pairs)):
            if isinstance(check, Exception):
                kind, detail = _failure_of(check)
            else:
                _min_into(result.worst, "slack", check.slack)
                if check.slack >= -1e-8:
                    continue
                kind, detail = "violation", f"slack {check.slack:.3e} below -1e-08"
            pair = DiscreteEnsemble(np.array([0.5, 0.5]), pair)
            _record_failure(result, trial, kind, detail, pair)
        del checked, states, pairs  # the chunk's states go before the next is drawn
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
    auxiliary-ensemble averages coincide to AVERAGE_MATCH_TOL in trace norm.

    The ensembles are drawn a chunk of _CHUNK trials at a time, in the
    random stream of random_ensemble called once per trial; a chunk's
    members are checked as one stack per dimension (_checked_stacks), and
    its ensembles reported in one batch (full_reports).  A batch that raises
    is reported again one ensemble at a time (_batched), so a trial that
    raises is recorded with its own kind and detail."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="bounds", trials=trials, passed=True)
    for chunk in _chunks(trials):
        probs, stacks = [], []
        for _ in chunk:
            m = int(rng.integers(2, 7))
            draw = _random_members(m, int(rng.integers(2, 9)), rng)
            probs.append(draw[0])
            stacks.append(draw[1])
        checked = _checked_stacks(stacks, named=True)
        del stacks, draw  # the ensembles hold the checked copies
        ensembles = [_from_rows(p, rows, mats) for p, (mats, rows, _) in zip(probs, checked)]
        for trial, mu, report in zip(chunk, ensembles, _batched(full_reports, ensembles)):
            if isinstance(report, Exception):
                _record_failure(result, trial, *_failure_of(report), mu)
            else:
                _check_report(result, trial, mu, report)
        del checked, ensembles  # the chunk's ensembles go before the next is drawn
    return result


def _check_report(result: SuiteResult, trial: int, mu: DiscreteEnsemble, report) -> None:
    """Fold one trial's report into run_bounds_suite's result."""
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


def run_tightness_suite(trials: int = 7, seed: int = 0) -> SuiteResult:
    """Equality-family suite: for every m in 2..8 the orthogonal equiprobable
    pure ensemble must satisfy |aux_bound - chi| <= 1e-9.  `trials` and
    `seed` are accepted for interface uniformity; the family is fixed."""
    result = SuiteResult(suite="tightness", trials=7, passed=True)
    ensembles = [orthogonal_ensemble(m) for m in range(2, 9)]
    for m, mu, report in zip(range(2, 9), ensembles, full_reports(ensembles)):
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
    kinds = [v.get("kind", "violation") for v in result.violations]
    labels = {"violation": "violation(s)", "numerical": "numerical failure(s)", "error": "error(s)"}
    counts = [f"{kinds.count(kind)} {label}" for kind, label in labels.items() if kind in kinds]
    print(f"{' and '.join(counts)} written to {failure_path}", file=sys.stderr)
    return EXIT_VIOLATION if "violation" in kinds else EXIT_NUMERICAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a small report."""
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
    except (EnsembleFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        reason = " ".join(str(exc).split()) or "no detail"
        print(f"error: input too large for memory: {reason}", file=sys.stderr)
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
