"""Tests for the command-line interface and the ensemble file format."""

import json
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holevo_bounds import bounds, cli, linalg
from holevo_bounds.bounds import BOUND_KEYS, FeiReport, fei_check, full_report
from holevo_bounds.cli import (
    EXIT_NUMERICAL,
    EnsembleFileError,
    ensemble_from_dict,
    ensemble_to_dict,
    load_ensemble_file,
    main,
    report_to_dict,
    run_bounds_suite,
    run_fei_suite,
    run_tightness_suite,
    write_ensemble_file,
)
from holevo_bounds.ensemble import DiscreteEnsemble
from holevo_bounds.gallery import (
    orthogonal_ensemble,
    random_ensemble,
    random_mixed_state,
    random_pure_state,
    trine_ensemble,
)
from holevo_bounds.linalg import DensityOperator, EigensolverError

from helpers import count_eigensolves, fail_second_stack

LN2 = math.log(2.0)


@pytest.fixture
def trine_file(tmp_path):
    path = tmp_path / "trine.json"
    write_ensemble_file(str(path), trine_ensemble())
    return str(path)


def _report_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_report_trine_chi(trine_file, capsys):
    data = _report_json(capsys, ["report", trine_file])
    assert math.isclose(data["chi"], 0.6931471805599453, abs_tol=1e-9)
    assert data["log_base"] == "natural"
    assert data["members"] == 3
    assert data["dim"] == 2


def test_report_log_base_two(trine_file, capsys):
    data = _report_json(capsys, ["report", trine_file, "--log-base", "2"])
    assert math.isclose(data["chi"], 1.0, abs_tol=1e-9)
    # Dimensionless fields stay in natural units.
    assert math.isclose(data["eps_av"], 0.5, abs_tol=1e-9)
    assert math.isclose(data["plus_diameter"], math.sqrt(3.0) / 2.0, abs_tol=1e-9)


def test_report_csv_format(trine_file, capsys):
    code = main(["report", trine_file, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    fields = dict(line.split(",", 1) for line in lines[1:])
    assert math.isclose(float(fields["chi"]), LN2, abs_tol=1e-9)
    assert "slack.aux_bound" in fields


def test_report_malformed_prob_sum(tmp_path, capsys):
    data = ensemble_to_dict(trine_ensemble())
    for member in data["members"]:
        member["prob"] *= 0.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["report", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "sum" in captured.err


def test_report_non_psd_state_names_member(tmp_path, capsys):
    data = ensemble_to_dict(trine_ensemble())
    data["members"][1]["state"] = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["report", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "member 1" in captured.err


def test_report_bad_version(tmp_path, capsys):
    data = ensemble_to_dict(trine_ensemble())
    data["version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 2
    assert "version" in capsys.readouterr().err


def test_report_missing_file(capsys):
    assert main(["report", "/nonexistent/ensemble.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_report_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["report", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_report_file_not_utf8_names_its_path(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(json.dumps(ensemble_to_dict(trine_ensemble())).encode() + b"\xff")
    assert main(["report", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path} is not UTF-8 text: ")


def test_ensemble_file_round_trip(tmp_path):
    for mu in (trine_ensemble(), random_ensemble(3, 4, seed=77)):
        path = tmp_path / "roundtrip.json"
        write_ensemble_file(str(path), mu)
        back = load_ensemble_file(str(path))
        before = full_report(mu)
        after = full_report(back)
        for name in (
            "chi",
            "chi_plus",
            "chi_minus",
            "eps_av",
            "hbar",
            "aux_bound",
            "shannon_bound",
            "count_bound",
            "diameter_bound",
            "plus_diameter",
            "pinsker_term",
        ):
            assert abs(getattr(before, name) - getattr(after, name)) <= 1e-12


def test_report_rejects_boolean_prob(tmp_path, capsys):
    # JSON true is a Python bool, which is an int: it must not load as 1.0.
    data = {"version": 1, "dim": 1, "members": [{"prob": True, "state": [[[1.0, 0.0]]]}]}
    with pytest.raises(EnsembleFileError, match="prob must be a number"):
        ensemble_from_dict(data)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 2
    assert "member 0: prob" in capsys.readouterr().err


_PURE_QUBIT = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize(
    ("data", "named"),
    [
        ({"version": True, "dim": 2, "members": [{"prob": 1, "state": _PURE_QUBIT}]},
         "version True"),
        ({"version": 1, "dim": True, "members": [{"prob": 1, "state": _PURE_QUBIT}]},
         "dim must be a positive integer, got True"),
        ({"version": 1, "dim": 2, "members": [{"prob": 10**400, "state": _PURE_QUBIT}]},
         "member 0: number too large"),
        ({"version": 1, "dim": 2, "members": [
            {"prob": 1, "state": [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}]},
         "member 0: number too large"),
        ({"version": 1, "dim": 2, "members": [
            {"prob": 1, "state": [[[1.0, 0.0], [1e308, 0.0]], [[1e308, 0.0], [0.0, 0.0]]]}]},
         "member 0: state entries must be finite"),
        ({"version": 1, "dim": 2, "members": [{"prob": 1, "state": [
            [[True, False], [False, False]], [[False, False], [False, False]]]}]},
         "member 0: state entries must be numbers, not booleans"),
        ({"version": 1, "dim": 2, "members": [
            {"prob": 0.5, "state": _PURE_QUBIT},
            {"prob": 0.5, "state": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [True, 0.0]]]}]},
         "member 1: state entries must be numbers, not booleans"),
    ],
    ids=[
        "bool-version", "bool-dim", "huge-prob", "huge-state-entry", "overflowing-entry",
        "bool-state", "bool-state-entry",
    ],
)
def test_file_boundary_rejects_bools_and_huge_integers(tmp_path, capsys, data, named):
    # JSON true is a Python int, a 401-digit integer overflows float(), and
    # an entry of 1e308 overflows the Hermiticity check's arithmetic: each is
    # an input error with one line, not a load as 1, a traceback or a warning.
    with pytest.raises(EnsembleFileError, match=named):
        ensemble_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 2
    assert named in _single_error_line(capsys)


# JSON-like values that a file may hold where the schema wants something
# else: bools, integers too large for a float, NaN and infinities, strings,
# nulls, and lists and objects of them.
_NUMBERS = st.one_of(
    st.floats(-2.5, 2.5), st.integers(-3, 3), st.booleans(),
    st.sampled_from([10**400, -(10**400), 2**1100]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_JSON = st.recursive(
    st.one_of(st.none(), st.text(max_size=3), _NUMBERS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def _ensemble_dicts(draw):
    """A valid file of basis-state members with at most one field, drawn
    from version, dim, members, prob, label and state, replaced, with JSON
    booleans in place of state entries, or with one of three state faults
    at a drawn member: Hermitian only to 2e-10, an eigenvalue of -1e-9, or
    a trace of 1 +- 2e-9.  Returns (data, the member a state fault is at)."""
    dim, size = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    members = []
    for k in range(size):
        state = [[[float(i == j == k % dim), 0.0] for j in range(dim)] for i in range(dim)]
        members.append({"prob": 1.0 / size, "state": state})
    data = {"version": 1, "dim": dim, "members": members}
    field = draw(st.sampled_from(
        [None, "version", "dim", "members", "prob", "label", "state", "boolean",
         "hermitian", "negative", "trace"]
    ))
    faulty = None
    if field in ("version", "dim", "members"):
        data[field] = draw(_JSON)
    elif field == "boolean":
        # The same basis state with every entry, or one, as a JSON boolean.
        entries = [(i, j, c) for i in range(dim) for j in range(dim) for c in range(2)]
        for i, j, c in entries if draw(st.booleans()) else [draw(st.sampled_from(entries))]:
            pair = members[0]["state"][i][j]
            pair[c] = bool(pair[c])
    elif field == "state":
        # d x d arrays of [re, im] pairs of any numbers, or ragged lists.
        pair = st.lists(_NUMBERS, min_size=2, max_size=2)
        members[0]["state"] = draw(
            st.lists(st.lists(pair, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
            | st.lists(st.lists(_NUMBERS, max_size=3), max_size=3)
            | _JSON
        )
    elif field in ("hermitian", "negative", "trace"):
        faulty = draw(st.integers(0, size - 1))
        state, one = members[faulty]["state"], faulty % dim
        if field == "hermitian":  # an off-diagonal entry, or the imaginary part at d = 1
            state[0][dim - 1][0 if dim > 1 else 1] = 2e-10
        elif field == "negative":  # the spectrum {1 + 1e-9, -1e-9}, or {-1e-9} at d = 1
            state[one][one][0] = 1.0 + 1e-9 if dim > 1 else -1e-9
            other = (one + 1) % dim
            state[other][other][0] = -1e-9
        else:
            state[one][one][0] = 1.0 + draw(st.sampled_from([2e-9, -2e-9]))
    elif field is not None:
        members[0][field] = draw(_JSON)
    return data, faulty


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_ensemble_dicts())
def test_file_boundary_fuzz(drawn):
    # Whatever a file holds, loading it gives an ensemble or an input error,
    # a file with a boolean state entry never loads, and a file with one
    # state fault is an input error that names its member.
    data, faulty = drawn
    try:
        mu = ensemble_from_dict(data)
    except EnsembleFileError as exc:
        assert faulty is None or str(exc).startswith(f"member {faulty}: ")
        return
    assert faulty is None
    assert isinstance(mu, DiscreteEnsemble)
    assert not any(_holds_bool(member["state"]) for member in data["members"])


def _holds_bool(value) -> bool:
    """Whether a JSON value is, or holds at any depth, a boolean."""
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    if isinstance(value, dict):
        return any(map(_holds_bool, value.values()))
    return isinstance(value, bool)


# Offsets that keep a member's trace, or the probability sum, inside its
# 1e-9 tolerance, at either edge or at 1.
_EDGES = st.sampled_from([-0.9e-9, 0.0, 0.9e-9])


@st.composite
def _edge_ensemble_dicts(draw):
    """A valid file of diagonal basis states and dense pure states whose
    traces and probability sum are each drawn from 1 + _EDGES."""
    dim, size = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    prob = (1.0 + draw(_EDGES)) / size
    members = []
    for k in range(size):
        vec = np.zeros(dim, dtype=complex)
        if draw(st.booleans()):
            vec[k % dim] = 1.0
        else:
            parts = draw(st.lists(st.integers(-2, 2), min_size=2 * dim, max_size=2 * dim))
            vec += np.array(parts[:dim]) + 1j * np.array(parts[dim:])
            if not vec.any():
                vec[0] = 1.0
        state = (1.0 + draw(_EDGES)) * np.outer(vec, vec.conj()) / np.vdot(vec, vec).real
        pairs = np.stack([state.real, state.imag], axis=-1).tolist()
        members.append({"prob": prob, "state": pairs})
    return {"version": 1, "dim": dim, "members": members}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_edge_ensemble_dicts())
def test_tolerance_edge_files_report(data):
    # Whatever the file boundary accepts, the report takes: the average and
    # everything else it derives from the members are not checked again.
    try:
        mu = ensemble_from_dict(data)
    except EnsembleFileError:
        return
    full_report(mu)


def test_report_takes_file_at_tolerance_edges(tmp_path, capsys):
    # Each state's trace is 1 + 0.9e-9 and the probabilities sum to
    # 1 + 0.9e-9, both inside their 1e-9 tolerances, so the average's trace
    # is 1 + 1.8e-9.
    t = 1.0 + 0.9e-9
    zero = [0.0, 0.0]
    data = {
        "version": 1,
        "dim": 2,
        "members": [
            {"prob": 0.5, "state": [[[t, 0.0], zero], [zero, zero]]},
            {"prob": 0.5 + 0.9e-9, "state": [[zero, zero], [zero, [t, 0.0]]]},
        ],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data))
    report = _report_json(capsys, ["report", str(path)])
    assert math.isclose(report["chi"], LN2, abs_tol=1e-8)


def test_ensemble_dict_rejects_malformed_shapes():
    with pytest.raises(EnsembleFileError, match="top level"):
        ensemble_from_dict([1, 2, 3])
    with pytest.raises(EnsembleFileError, match="members"):
        ensemble_from_dict({"version": 1, "dim": 2, "members": []})
    with pytest.raises(EnsembleFileError, match="state must be"):
        ensemble_from_dict(
            {
                "version": 1,
                "dim": 2,
                "members": [{"prob": 1.0, "state": [[1.0, 0.0], [0.0, 0.0]]}],
            }
        )


def _json_load(path: str) -> DiscreteEnsemble:
    """load_ensemble_file as json alone reads the file: json.load of the
    text, then ensemble_from_dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise EnsembleFileError(f"{path} is not valid JSON: {exc}") from None
    return ensemble_from_dict(data)


def _load_outcome(load, path: str):
    """The bytes of the ensemble's matrices, spectra and probs, and its
    labels, or the type and message of the error that loading raised."""
    try:
        mu = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (mu.matrices, mu._spectra, mu.probs)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays], mu.labels


_LAYOUTS = {"default": {}, "compact": {"separators": (",", ":")}, "indent": {"indent": 1}}
_STATE_KEY = re.compile(r'"state": ?')


@st.composite
def _ensemble_texts(draw):
    """The text of an ensemble file: an _ensemble_dicts() or
    _edge_ensemble_dicts() example written with default separators, compact
    ones or indent=1, then one edit: a character of a state, or of the
    whole text, deleted or doubled, two adjacent characters of a state
    swapped (a number moved across a bracket, say), a label holding "]]]"
    or '"state": [[[' before or after the state, a non-ASCII label written
    as is, a second "state" key before or after the first, CRLF line ends,
    or text after the object."""
    data = draw(_ensemble_dicts().map(lambda drawn: drawn[0]) | _edge_ensemble_dicts())
    layout = _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))]
    edit = draw(st.sampled_from(
        [None, "delete", "double", "swap", "anywhere", "label", "non-ascii", "duplicate", "crlf",
         "after"]))
    members = data["members"]
    if edit in ("label", "non-ascii") and isinstance(members, list) and members:
        k = draw(st.integers(0, len(members) - 1))
        labels = (["]]]", '"state": [[[', 'x]]] "state": [[[[1.0, 0.0]]], "prob": 1}']
                  if edit == "label" else ["é", "状態 ]]]", " ", "\U0001f600"])
        label = draw(st.sampled_from(labels))
        if isinstance(members[k], dict):
            first = draw(st.booleans())
            members[k] = {"label": label, **members[k]} if first else {**members[k], "label": label}
    text = json.dumps(data, ensure_ascii=edit != "non-ascii", **layout) + "\n"
    keys = list(_STATE_KEY.finditer(text))
    if edit in ("delete", "double", "swap", "duplicate") and keys:
        key = draw(st.sampled_from(keys))
        end = json.JSONDecoder().raw_decode(text, key.end())[1]
        if edit == "duplicate":
            other = draw(st.sampled_from(
                [[[[0.5, 0.0]]], [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[1.0, 0.0]]]) | _JSON)
            other = f'"state"{layout.get("separators", (", ", ": "))[1]}{json.dumps(other)}'
            if draw(st.booleans()):
                text = f"{text[:key.start()]}{other}, {text[key.start():]}"
            else:
                text = f"{text[:end]}, {other}{text[end:]}"
        elif edit == "swap":
            # Integral numbers written as integers, so that a swap next to
            # a bracket can move a whole number across it.
            state = re.sub(r"\b(\d+)\.0\b", r"\1", text[key.end():end])
            marks = [mark.start() for mark in re.finditer(r"\d[\[\]]|[\[\]]\d", state)]
            if len(state) > 1:
                where = st.integers(0, len(state) - 2)
                i = draw(st.sampled_from(marks) | where if marks else where)
                state = state[:i] + state[i + 1] + state[i] + state[i + 2:]
            text = text[:key.end()] + state + text[end:]
        else:
            i = draw(st.integers(key.end(), end - 1))
            text = text[:i] + text[i] * (edit == "double") + text[i + 1:]
    elif edit == "anywhere":  # often a separator, a quote or a brace
        marks = [mark.start() for mark in re.finditer(r'[:,{}"]', text)]
        i = draw(st.sampled_from(marks) | st.integers(0, len(text) - 1))
        text = text[:i] + text[i] * draw(st.integers(0, 2)) + text[i + 1:]
    elif edit == "crlf":
        text = text.replace("\n", "\r\n")
    elif edit == "after":
        text += draw(st.sampled_from(["x", "{}", "]", " \t\r\n", "\f"]))
    return text


@settings(derandomize=True, deadline=None)
@given(_ensemble_texts())
def test_array_reader_matches_json(tmp_path_factory, text):
    # Whatever a file holds, the reader gives what json.load and
    # ensemble_from_dict give: the same arrays bit for bit and the same
    # labels, or the same error.
    path = str(tmp_path_factory.mktemp("reader") / "mu.json")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    assert _load_outcome(load_ensemble_file, path) == _load_outcome(_json_load, path)


_QUBIT_TEXT = (
    '{"version": 1, "dim": 2, "members": [{"prob": 0.5, "state": STATE}, '
    '{"prob": 0.5, "state": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]}'
)
_FIRST_STATE = "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]"


# Edits of _QUBIT_TEXT, each (old, new): files whose states or structure
# the reader must leave to json, or reject as json does.  The first two load.
_TEXT_EDITS = {
    "valid": ("STATE", _FIRST_STATE),
    "integers": ("STATE", "[[[1, 0], [0, 0]], [[0, 0], [0, 1e-400]]]"),
    "ragged": ("STATE", "[[[1.0, 0.0], [0.0]], [[0.0, 0.0, 0.0], [0.0, 0.0]]]"),  # 8 numbers
    "wide": ("STATE", "[[[1.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0]]]"),
    "boolean": ("STATE", "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [false, 0.0]]]"),
    "nan": ("STATE", "[[[1.0, 0.0], [NaN, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]"),
    "huge-integer": ("STATE", f"[[[1{'0' * 400}, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]"),
    "no-comma-in-pair": ("STATE", "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0 0.0]]]"),
    "minus-alone": ("STATE", "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -]]]"),
    # A number moved across a bracket (blank the brackets and 8 numbers
    # read), and two numbers in one slot.
    "number-before-bracket": ("STATE", "[[[1,0],0[,0]],[[0,0],[0,0]]]"),
    "number-after-bracket": ("STATE", "[[[1,]0,[0,0]],[[0,0],[0,0]]]"),
    "two-numbers-in-a-slot": ("STATE", "[[[1 0,0],[0,0]],[[0,0],[0,0]]]"),
    "number-as-key": ('{"prob": 0.5', '{1: 0.5, "prob": 0.5'),
    "no-colon": ('"prob": 0.5, "state": STATE', '"prob" 0.5, "state": STATE'),
    "colon-replaced": ('"prob": 0.5, "state": STATE', '"prob"= 0.5, "state": STATE'),
    "comma-replaced-in-member": ('"prob": 0.5, "state": STATE', '"prob": 0.5; "state": STATE'),
    "comma-replaced-between-members": ("STATE}, {", "STATE}; {"),
    "trailing-comma-in-member": ("STATE}", "STATE,}"),
    "trailing-comma-in-members": ("}]}", "},]}"),
    "no-comma-at-top": ('"dim": 2,', '"dim": 2'),
    "extra-data": ("}]}", "}]} x"),
    "extra-bracket": ("}]}", "}]}]"),
    "byte-order-mark": ('{"version"', '\ufeff{"version"'),
    "top-level-list": ('{"version"', '[{"version"'),
}


@pytest.mark.parametrize("edit", list(_TEXT_EDITS))
def test_array_reader_fails_as_json_does(tmp_path, edit):
    # Each file loads to json's values, or fails with json's message.
    old, new = _TEXT_EDITS[edit]
    text = _QUBIT_TEXT.replace(old, new).replace("STATE", _FIRST_STATE)
    path = tmp_path / "mu.json"
    path.write_text(text, encoding="utf-8")
    outcome = _load_outcome(load_ensemble_file, str(path))
    assert outcome == _load_outcome(_json_load, str(path))
    assert isinstance(outcome[0], list) == (edit in ("valid", "integers"))


def test_array_reader_reads_states_as_arrays(tmp_path, monkeypatch):
    # A file written by write_ensemble_file, the same with indent=1 and with
    # compact separators, and one in the benchmark's {"prob", "label",
    # "state"} layout, load with json.loads and json.load out of use, and
    # every state reaches ensemble_from_dict as an array.
    mu = random_ensemble(4, 3, 5)
    written = tmp_path / "written.json"
    write_ensemble_file(str(written), mu)
    pairs = np.stack([mu.matrices.real, mu.matrices.imag], axis=-1)
    members = [json.dumps({"prob": p, "label": f"rank-{i}", "state": pairs[i].tolist()})
               for i, p in enumerate(mu.probs.tolist())]
    layout = tmp_path / "layout.json"
    layout.write_text(f'{{"version": 1, "dim": 3, "members": [{", ".join(members)}]}}\n')
    indented, compact = tmp_path / "indented.json", tmp_path / "compact.json"
    indented.write_text(json.dumps(json.loads(written.read_text()), indent=1))
    compact.write_text(json.dumps(json.loads(written.read_text()), separators=(",", ":")))
    expected = _load_outcome(_json_load, str(written))

    def refuse(*args, **kwargs):
        raise AssertionError("the whole text went to json")

    states = []

    def from_dict(data):
        states.extend(member["state"] for member in data["members"])
        return ensemble_from_dict(data)

    monkeypatch.setattr(json, "loads", refuse)
    monkeypatch.setattr(json, "load", refuse)
    monkeypatch.setattr(cli, "ensemble_from_dict", from_dict)
    for path in (written, indented, compact, layout):
        states.clear()
        outcome = _load_outcome(load_ensemble_file, str(path))
        assert outcome[0] == expected[0]
        assert all(type(s) is np.ndarray and s.shape == (3, 3, 2) for s in states)
        assert len(states) == 4
    assert outcome[1] == tuple(f"rank-{i}" for i in range(4))


def test_example_trine(capsys):
    data = _report_json(capsys, ["example", "trine"])
    assert math.isclose(data["diameter_bound"], 0.9188602560081183, abs_tol=1e-9)


def test_example_orthogonal(capsys):
    data = _report_json(capsys, ["example", "orthogonal:4"])
    assert abs(data["slacks"]["aux_bound"]) <= 1e-9
    assert math.isclose(data["chi"], math.log(4.0), abs_tol=1e-9)


def test_example_oscillator(capsys):
    data = _report_json(capsys, ["example", "oscillator:1"])
    assert math.isclose(data["chi"], 2 * LN2, abs_tol=1e-4)


def test_example_oscillator_reports_tail_mass(capsys):
    data = _report_json(capsys, ["example", "oscillator:1"])
    assert 0.0 < data["tail_mass"] < 1e-12
    assert main(["example", "oscillator:1", "--format", "csv"]) == 0
    rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
    assert float(rows["tail_mass"]) == data["tail_mass"]
    assert "tail_mass" not in _report_json(capsys, ["example", "trine"])


def test_example_unknown_name(capsys):
    assert main(["example", "bell"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_example_bad_parameter(capsys):
    assert main(["example", "orthogonal:x"]) == 2


def _single_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("n_mean", ["inf", "1e20", "1e300"])
def test_example_oscillator_unusable_mean_is_input_error(capsys, n_mean):
    assert main(["example", f"oscillator:{n_mean}"]) == 2
    assert "mean photon number" in _single_error_line(capsys)


@pytest.mark.parametrize(
    ("n_max", "named"), [("1e20", "1e+20"), ("inf", "inf"), ("nan", "nan")]
)
def test_oscillator_curve_unusable_mean_is_input_error(capsys, tmp_path, n_max, named):
    out = tmp_path / "curve.csv"
    argv = ["oscillator-curve", "--n-min", "1", "--n-max", n_max, "--steps", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    line = _single_error_line(capsys)
    assert "mean photon number" in line and named in line
    assert not out.exists()


def test_oscillator_curve_past_series_cap_is_input_error(capsys, tmp_path):
    # At N = 5e4 the closed-form series needs more than its 1,000,000 terms.
    out = tmp_path / "curve.csv"
    argv = ["oscillator-curve", "--n-min", "1", "--n-max", "5e4", "--steps", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    line = _single_error_line(capsys)
    assert "mean photon number 50000" in line and "1000000 terms" in line
    assert not out.exists()


def test_unwritable_output_path_is_input_error(capsys, tmp_path):
    out = tmp_path / "missing" / "c.csv"
    argv = ["oscillator-curve", "--n-min", "1", "--n-max", "2", "--steps", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    line = _single_error_line(capsys)
    assert line.startswith("error: ") and str(out) in line
    assert not out.parent.exists()


def test_out_of_memory_is_input_error(capsys, monkeypatch):
    def too_large(spec):
        raise MemoryError("Unable to allocate 5.42 PiB for an array")

    monkeypatch.setattr(cli, "oscillator_ensemble", too_large)
    assert main(["example", "oscillator:1e6"]) == 2
    line = _single_error_line(capsys)
    assert line.startswith("error: input too large for memory")
    assert "5.42 PiB" in line


def test_parser_is_built_once_and_reused(capsys, trine_file):
    assert cli.build_parser() is cli.build_parser()
    first = _report_json(capsys, ["example", "trine"])
    assert main(["report", trine_file, "--format", "csv", "--log-base", "2"]) == 0
    assert capsys.readouterr().out.startswith("field,value\nlog_base,2\n")
    # Neither the csv format nor the log base of the call before carries over.
    assert _report_json(capsys, ["example", "trine"]) == first
    assert main(["verify", "tightness"]) == 0
    assert capsys.readouterr().out.startswith("suite tightness")
    assert _report_json(capsys, ["report", trine_file])["log_base"] == "natural"


def test_worker_failure_exits_numerical(capsys, monkeypatch, tmp_path):
    # The diameter of 24 members at d = 12 takes 2 stacks, solved on two
    # worker threads; the second stacked eigvalsh raises LinAlgError.
    path = tmp_path / "random.json"
    write_ensemble_file(str(path), random_ensemble(24, 12, 0))
    monkeypatch.setattr(linalg, "_WORKERS", 2)
    fail_second_stack(monkeypatch)
    before = threading.active_count()
    assert main(["report", str(path)]) == EXIT_NUMERICAL
    assert threading.active_count() == before
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure at dim 12 (residual unknown)")
    assert "stacked eigenvalue computation failed" in lines[0]


def _failing_eigh(a, *args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _inaccurate_eigh(a, *args, _eigh=np.linalg.eigh, **kwargs):
    w, v = _eigh(a, *args, **kwargs)
    return w, 2.0 * v


@pytest.mark.parametrize(
    "solver, residual",
    [(_failing_eigh, "residual unknown"), (_inaccurate_eigh, "residual 3.")],
    ids=["lapack-failure", "residual-too-large"],
)
def test_solver_failure_exits_numerical(capsys, monkeypatch, solver, residual):
    monkeypatch.setattr(np.linalg, "eigh", solver)
    assert main(["example", "trine"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "numerical failure at dim 2" in lines[0]
    assert residual in lines[0]


@pytest.mark.parametrize(
    "solver, reason",
    [(_failing_eigh, "member 3: eigendecomposition failed at dim 8"),
     (_inaccurate_eigh, "member 3: eigendecomposition residual 3.")],
    ids=["lapack-failure", "residual-too-large"],
)
def test_member_solver_failure_names_the_member(tmp_path, capsys, monkeypatch, solver, reason):
    # Only the member stage calls eigh, on stacks of member differences: the
    # fault hits member 3's slice of its stack, and member 3 alone when a
    # failed stack is solved again one matrix at a time.
    path = tmp_path / "random.json"
    write_ensemble_file(str(path), random_ensemble(6, 8, 0))
    mu = load_ensemble_file(str(path))
    target = mu.matrices[3] - mu.average.mat
    hits = []

    def member_three_fails(a, *args, _eigh=np.linalg.eigh, **kwargs):
        w, v = _eigh(a, *args, **kwargs)
        for k, mat in enumerate(np.reshape(a, (-1, 8, 8))):
            if np.array_equal(mat, target):
                hits.append(np.ndim(a))
                w.reshape(-1, 8)[k], v.reshape(-1, 8, 8)[k] = solver(mat)
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", member_three_fails)
    with pytest.raises(EigensolverError, match=reason) as exc:
        full_report(mu)
    assert exc.value.dim == 8
    assert (exc.value.residual is None) == (solver is _failing_eigh)
    assert hits == ([3, 2] if solver is _failing_eigh else [3])
    assert main(["report", str(path)]) == EXIT_NUMERICAL
    assert reason in _single_error_line(capsys)


def _qutrit_file(mats) -> dict:
    """An equiprobable ensemble file of the given 3 x 3 complex matrices."""
    members = [
        {"prob": 1.0 / len(mats), "state": np.stack([m.real, m.imag], axis=-1).tolist()}
        for m in mats
    ]
    return {"version": 1, "dim": 3, "members": members}


def _qutrit_states() -> list[np.ndarray]:
    """Two dense states, a diagonal one and a dense pure one, at d = 3."""
    psi = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3.0)
    phi = np.array([2.0, 0.0, 1.0 - 1.0j]) / np.sqrt(6.0)
    return [
        0.5 * np.outer(psi, psi.conj()) + np.eye(3) / 6.0,
        np.outer(phi, phi.conj()),
        np.diag([0.2, 0.3, 0.5]).astype(complex),
        np.full((3, 3), 1.0 / 3.0, dtype=complex),
    ]


_ROTATION = np.linalg.qr(np.array([[1, 2j, 0], [1, -1, 1j], [0, 1, 2]], dtype=complex))[0]
# Each fault alone makes a state fail exactly one check.
_STATE_FAULTS = {
    "non-hermitian": lambda mat: mat + np.array([[0, 2e-10, 0], [0, 0, 0], [0, 0, 0]]),
    "negative": lambda mat: (
        np.diag([0.5 + 1e-9, 0.5, -1e-9]).astype(complex)
        if np.count_nonzero(mat - np.diag(mat.diagonal())) == 0
        else _ROTATION @ np.diag([1.0 + 1e-9, 0.0, -1e-9]) @ _ROTATION.conj().T
    ),
    "trace": lambda mat: mat * (1.0 + 2e-9),
    "low-trace": lambda mat: mat * (1.0 - 2e-9),
}
_HERMITIAN = "matrix is not Hermitian: max |A - A^dag| = 2.000e-10 exceeds 1e-10"
_NEGATIVE = "state is not positive semidefinite: min eigenvalue -1.000e-09"


def _faulty_file(faults: dict, edits=()) -> dict:
    """_qutrit_file with the state fault faults[k] at each member k, then
    each edit(data) applied to the file's JSON."""
    mats = _qutrit_states()
    for k, fault in faults.items():
        mats[k] = _STATE_FAULTS[fault](mats[k])
    data = _qutrit_file(mats)
    for edit in edits:
        edit(data["members"])
    return data


def _set(k, key, value):
    return lambda members: members[k].__setitem__(key, value)


def _set_entry(k, i, j, c, value):
    return lambda members: members[k]["state"][i][j].__setitem__(c, value)


@pytest.mark.parametrize(
    ("data", "message"),
    [
        *[
            pytest.param(_faulty_file({k: fault}), f"member {k}: {message}", id=f"{fault}-{k}")
            for fault, message in (("non-hermitian", _HERMITIAN), ("negative", _NEGATIVE))
            for k in (1, 2, 3)
        ],
        pytest.param(_faulty_file({1: "trace"}),
                     "member 1: state trace 1.0000000020000002 is not 1 within 1e-09",
                     id="trace-1"),
        pytest.param(_faulty_file({2: "trace"}),
                     "member 2: state trace 1.000000002 is not 1 within 1e-09", id="trace-2"),
        pytest.param(_faulty_file({3: "trace"}),
                     "member 3: state trace 1.000000002 is not 1 within 1e-09", id="trace-3"),
        pytest.param(_faulty_file({2: "low-trace"}),
                     "member 2: state trace 0.9999999980000001 is not 1 within 1e-09", id="low-trace-2"),
        # Two faults: the state fault at i comes before the fault found while
        # parsing member j > i, as each member was checked in turn.
        pytest.param(
            _faulty_file({1: "trace"}, [_set(3, "state", [[[1.0, 0.0]] * 3] * 2)]),
            "member 1: state trace 1.0000000020000002 is not 1 within 1e-09",
            id="trace-1-shape-3",
        ),
        pytest.param(_faulty_file({1: "negative"}, [_set_entry(2, 0, 1, 1, False)]),
                     f"member 1: {_NEGATIVE}", id="negative-1-boolean-2"),
        pytest.param(_faulty_file({2: "non-hermitian"}, [_set(3, "prob", "x")]),
                     f"member 2: {_HERMITIAN}", id="non-hermitian-2-prob-3"),
        pytest.param(_faulty_file({0: "negative", 2: "non-hermitian"}),
                     f"member 0: {_NEGATIVE}", id="negative-0-non-hermitian-2"),
        pytest.param(_faulty_file({3: "trace"}, [_set_entry(1, 0, 0, 0, True)]),
                     "member 1: state entries must be numbers, not booleans",
                     id="boolean-1-trace-3"),
    ],
)
def test_state_faults_name_the_first_faulty_member(tmp_path, capsys, data, message):
    # The stacked check raises the message that checking the members one at
    # a time raised, for the same member: the lowest-index faulty one, with
    # its first failed check.
    with pytest.raises(EnsembleFileError) as exc:
        ensemble_from_dict(data)
    assert str(exc.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 2
    assert _single_error_line(capsys) == f"error: {message}"


def test_member_eigensolver_failure_at_load_names_the_member(tmp_path, capsys, monkeypatch):
    # LAPACK fails on the loaded stack, whose matrices are then solved one at
    # a time: only member 2's solve fails, and the error names it.
    mats = _qutrit_states()
    mats[2] = mats[1].T  # dense, as every member here but the diagonal one
    path = tmp_path / "members.json"
    path.write_text(json.dumps(_qutrit_file(mats)))
    target = load_ensemble_file(str(path)).matrices[2]
    shapes = []

    def member_two_fails(a, *args, _eigvalsh=np.linalg.eigvalsh, **kwargs):
        shapes.append(np.shape(a))
        if any(np.array_equal(mat, target) for mat in np.reshape(a, (-1, 3, 3))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return _eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", member_two_fails)
    with pytest.raises(EigensolverError) as exc:
        load_ensemble_file(str(path))
    assert str(exc.value) == (
        "member 2: eigenvalue computation failed at dim 3: Eigenvalues did not converge"
    )
    assert exc.value.dim == 3 and exc.value.residual is None
    assert shapes == [(4, 3, 3), (3, 3), (3, 3), (3, 3)]
    assert main(["report", str(path)]) == EXIT_NUMERICAL
    assert _single_error_line(capsys) == (
        "numerical failure at dim 3 (residual unknown): member 2: eigenvalue computation "
        "failed at dim 3: Eigenvalues did not converge"
    )


def test_loaded_file_is_one_checked_stack(tmp_path, monkeypatch):
    # A dense file loads as its checked stack: the states are views of it,
    # with no second copy, and the load solves each member once.  An
    # all-diagonal file loads as its m x d diagonals at no solve; a mixed
    # file solves exactly its dense members.
    dense = tmp_path / "dense.json"
    write_ensemble_file(str(dense), random_ensemble(5, 4, 2))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(_qutrit_file(_qutrit_states())))
    diagonal = tmp_path / "diagonal.json"
    write_ensemble_file(str(diagonal), orthogonal_ensemble(6))
    solves = count_eigensolves(monkeypatch)
    mu = load_ensemble_file(str(dense))
    assert solves == [4] * 5
    assert "matrices" in vars(mu) and "states" not in vars(mu)
    assert all(np.shares_memory(mu.matrices[k], mu.states[k].mat) for k in range(5))
    solves.clear()
    mu = load_ensemble_file(str(mixed))
    assert solves == [3] * 3 and mu.diagonals is None and mu.matrices.shape == (4, 3, 3)
    assert [state.diagonal is not None for state in mu.states] == [False, False, True, False]
    solves.clear()
    mu = load_ensemble_file(str(diagonal))
    assert solves == [] and mu.matrices is None
    assert np.array_equal(mu.diagonals, np.eye(6)) and mu.diagonals is mu._spectra


def test_ensemble_to_dict_reads_the_member_array(tmp_path):
    # Serializing reads the member array, a stack or diagonals, and builds
    # no member object; the file is byte for byte the one written from
    # the states' matrices, one [re, im] pair per entry.
    def from_states(mu):
        members = []
        for k, (p, state) in enumerate(zip(mu.probs, mu.states)):
            rows = [[[float(z.real), float(z.imag)] for z in row] for row in state.mat]
            members.append({"prob": float(p), "state": rows})
            if mu.labels is not None:
                members[-1]["label"] = mu.labels[k]
        return {"version": 1, "dim": mu.dim, "members": members}

    for mu in (random_ensemble(4, 3, 9), orthogonal_ensemble(5), trine_ensemble()):
        built = "states" in vars(mu)
        path = tmp_path / "mu.json"
        write_ensemble_file(str(path), mu)
        assert ("states" in vars(mu)) == built
        assert path.read_text() == json.dumps(from_states(mu)) + "\n"


def test_oscillator_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(
        ["oscillator-curve", "--n-min", "0.5", "--n-max", "2", "--steps", "3",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,chi,chi_hat,gap"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    grid = [float(row[0]) for row in rows]
    assert grid == pytest.approx([0.5, 1.0, 2.0], abs=1e-9)
    for row in rows:
        n_mean, chi, chi_hat, gap = map(float, row)
        assert gap >= 0.0
        assert math.isclose(chi_hat - chi, gap, abs_tol=1e-9)
    middle = rows[1]
    assert math.isclose(float(middle[1]), 1.3862943611198906, abs_tol=1e-9)


def test_oscillator_curve_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["oscillator-curve", "--n-min", "0.1", "--n-max", "10", "--steps", "5"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_oscillator_curve_rejects_bad_grid(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["oscillator-curve", "--n-min", "1", "--n-max", "2", "--steps", "1",
                 "--out", out]) == 2
    assert main(["oscillator-curve", "--n-min", "2", "--n-max", "1", "--steps", "3",
                 "--out", out]) == 2
    capsys.readouterr()


def test_verify_fei_small(capsys):
    assert main(["verify", "fei", "--trials", "40", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "worst slack" in out


def test_verify_bounds_small(capsys):
    assert main(["verify", "bounds", "--trials", "15", "--seed", "12"]) == 0
    out = capsys.readouterr().out
    assert "slack.aux_bound" in out


def test_verify_tightness(capsys):
    assert main(["verify", "tightness"]) == 0
    assert "aux_bound" in capsys.readouterr().out


def test_verify_zero_trials(capsys):
    assert main(["verify", "fei", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "everything"])
    assert excinfo.value.code == 2


def test_verify_violation_exit_code_and_failure_file(tmp_path, capsys, monkeypatch):
    import holevo_bounds.cli as cli

    def failing_suite(trials, seed):
        return cli.SuiteResult(
            suite="fei",
            trials=trials,
            passed=False,
            worst={"slack": -1.0},
            violations=[
                {
                    "trial": 0,
                    "detail": "slack -1.0 below -1e-08",
                    "ensemble": ensemble_to_dict(trine_ensemble()),
                }
            ],
        )

    monkeypatch.setitem(cli._SUITES, "fei", failing_suite)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "fei", "--trials", "5", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert "violation" in captured.err
    failure = json.loads((tmp_path / "verify-fei-failure.json").read_text())
    assert failure["seed"] == 3
    assert failure["violations"][0]["ensemble"]["dim"] == 2


def test_verify_failure_message_counts_every_violation(tmp_path, capsys, monkeypatch):
    import holevo_bounds.cli as cli

    def broken_fei_checks(pairs):
        return [FeiReport(eps=0.5, lhs=1.0, rhs=0.0, slack=-1.0) for _ in pairs]

    monkeypatch.setattr(cli, "fei_checks", broken_fei_checks)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "fei", "--trials", "3", "--seed", "5"]) == 1
    err = capsys.readouterr().err
    assert "3 violation(s) written to verify-fei-failure.json" in err
    failure = json.loads((tmp_path / "verify-fei-failure.json").read_text())
    assert [v["trial"] for v in failure["violations"]] == [0, 1, 2]


def _suite_draws(suite: str, seed: int, trials: int) -> list:
    """What `verify suite --seed seed` draws, one trial at a time, in its
    random stream: each trial's ensemble for bounds, its (rho, sigma) for fei."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        if suite == "bounds":
            m = int(rng.integers(2, 7))
            draws.append(random_ensemble(m, int(rng.integers(2, 9)), rng))
            continue
        dim, pair = int(rng.integers(2, 9)), []
        for _ in range(2):
            if rng.integers(2) == 0:
                pair.append(random_pure_state(dim, rng))
            else:
                pair.append(random_mixed_state(dim, int(rng.integers(1, dim + 1)), rng))
        draws.append(tuple(pair))
    return draws


def _trial_differences(suite: str, draw) -> np.ndarray:
    """The matrices that a trial's member stage hands to its solver: each
    member minus the average (eigh), or rho - sigma (eigvalsh)."""
    if suite == "bounds":
        return draw.matrices - draw.average.mat
    return (draw[0].mat - draw[1].mat)[None]


def _solve_fails_on(monkeypatch, targets: np.ndarray, error: Exception) -> None:
    """Make np.linalg.eigh and eigvalsh raise `error` on any input that
    holds one of the d x d matrices `targets`, in a stack or alone."""
    for solver in ("eigh", "eigvalsh"):

        def fails(a, *args, _original=getattr(np.linalg, solver), **kwargs):
            if np.shape(a)[-1] == targets.shape[-1]:
                for mat in np.reshape(a, (-1, *targets.shape[1:])):
                    if any(np.array_equal(mat, target) for target in targets):
                        raise error
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, solver, fails)


def _worst_without(suite: str, alone: str, draws: list, skip: int) -> dict:
    """The worst values a suite reports from its trials but `skip`, each
    trial evaluated alone by the function named `alone`, which evaluates a
    trial when its round's batch raises."""
    evaluate, worst = getattr(bounds, alone), {}
    for trial, draw in enumerate(draws):
        if trial == skip:
            continue
        if suite == "fei":
            cli._min_into(worst, "slack", evaluate(*draw).slack)
            continue
        report = evaluate(draw)
        for key in BOUND_KEYS:
            cli._min_into(worst, f"slack.{key}", report.slacks[key])
        for small, large, _ in cli._ORDERINGS:
            gap = getattr(report, large) - getattr(report, small)
            cli._min_into(worst, f"order.{small}<={large}", gap)
        cli._max_into(worst, "average_match_residual", report.average_match_residual)
    return worst


@pytest.mark.parametrize("suite, alone", [("bounds", "full_report"), ("fei", "fei_check")])
def test_verify_numerical_failure_is_recorded_per_trial(
    tmp_path, capsys, monkeypatch, suite, alone
):
    # LAPACK fails on trial 1's member differences only, in the round's
    # stacked member stage and again when trial 1 is reported alone: the
    # batch is reported again one trial at a time, trial 1 is recorded, and
    # the other trials still feed the worst values.
    draws = _suite_draws(suite, 7, 5)
    expected = _worst_without(suite, alone, draws, 1)
    error = np.linalg.LinAlgError("boom")
    _solve_fails_on(monkeypatch, _trial_differences(suite, draws[1]), error)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", suite, "--trials", "5", "--seed", "7"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out.startswith(f"suite {suite}: 5 trials")
    assert "1 numerical failure(s) written to" in captured.err
    failure = json.loads((tmp_path / f"verify-{suite}-failure.json").read_text())
    assert failure["seed"] == 7
    [entry] = failure["violations"]
    assert entry["trial"] == 1
    assert entry["kind"] == "numerical"
    assert "boom" in entry["detail"]
    assert ensemble_from_dict(entry["ensemble"]).size >= 2
    assert cli._SUITES[suite](5, 7).worst == expected


@pytest.mark.parametrize("error", [ZeroDivisionError, ValueError])
@pytest.mark.parametrize("suite, alone", [("bounds", "full_report"), ("fei", "fei_check")])
def test_verify_trial_error_is_recorded_per_trial(
    tmp_path, capsys, monkeypatch, suite, alone, error
):
    # Any exception in a trial is recorded with its ensemble and the suite
    # goes on: it neither escapes main nor reads as an input error.  Here
    # the solver raises it on trial 3's member differences only.
    draws = _suite_draws(suite, 7, 5)
    expected = _worst_without(suite, alone, draws, 3)
    _solve_fails_on(monkeypatch, _trial_differences(suite, draws[3]), error("boom"))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", suite, "--trials", "5", "--seed", "7"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out.startswith(f"suite {suite}: 5 trials")
    assert "1 error(s) written to" in captured.err
    failure = json.loads((tmp_path / f"verify-{suite}-failure.json").read_text())
    [entry] = failure["violations"]
    assert entry["trial"] == 3
    assert entry["kind"] == "error"
    assert entry["detail"] == f"{error.__name__}: boom"
    assert ensemble_from_dict(entry["ensemble"]).size >= 2
    assert cli._SUITES[suite](5, 7).worst == expected


def test_verify_violation_outranks_numerical_failure(tmp_path, capsys, monkeypatch):
    import holevo_bounds.cli as cli

    calls = []

    def numerical_then_violation(pairs):
        # The round's batch raises, and so does trial 0 alone.
        calls.append(len(pairs))
        if len(calls) <= 2:
            raise EigensolverError("eigendecomposition failed at dim 2: boom", dim=2)
        return [FeiReport(eps=0.5, lhs=1.0, rhs=0.0, slack=-1.0) for _ in pairs]

    monkeypatch.setattr(cli, "fei_checks", numerical_then_violation)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "fei", "--trials", "2", "--seed", "5"]) == 1
    assert calls == [2, 1, 1]
    assert "1 violation(s) and 1 numerical failure(s)" in capsys.readouterr().err
    failure = json.loads((tmp_path / "verify-fei-failure.json").read_text())
    assert [v["kind"] for v in failure["violations"]] == ["numerical", "violation"]


def _one_trial_at_a_time(suite: str, trials: int, seed: int) -> cli.SuiteResult:
    """The reference for a batched round: each trial drawn, checked and
    reported alone, in the round's random stream, as the suites did before
    they batched their rounds."""
    result = cli.SuiteResult(suite=suite, trials=trials, passed=True)
    for trial, draw in enumerate(_suite_draws(suite, seed, trials)):
        if suite == "fei":
            slack = fei_check(*draw).slack
            cli._min_into(result.worst, "slack", slack)
            if slack < -1e-8:
                pair = DiscreteEnsemble(np.array([0.5, 0.5]), draw)
                detail = f"slack {slack:.3e} below -1e-08"
                cli._record_failure(result, trial, "violation", detail, pair)
            continue
        report, problems = full_report(draw), []
        for key in BOUND_KEYS:
            slack = report.slacks[key]
            cli._min_into(result.worst, f"slack.{key}", slack)
            if slack < -1e-8:
                problems.append(f"{key} slack {slack:.3e} below -1e-08")
        for small, large, tol in cli._ORDERINGS:
            gap = getattr(report, large) - getattr(report, small)
            cli._min_into(result.worst, f"order.{small}<={large}", gap)
            if gap < -tol:
                problems.append(f"{small} exceeds {large} by {-gap:.3e}")
        residual = report.average_match_residual
        cli._max_into(result.worst, "average_match_residual", residual)
        if residual > cli.AVERAGE_MATCH_TOL:
            problems.append(f"auxiliary averages differ by {residual:.3e}")
        if problems:
            cli._record_failure(result, trial, "violation", "; ".join(problems), draw)
    return result


@pytest.mark.parametrize("suite", ["bounds", "fei"])
@pytest.mark.parametrize("trials, seed", [(100, 0), (100, 1), (22, 2475351561)])
@pytest.mark.parametrize("chunk", [100, 10])
def test_batched_suites_match_one_trial_at_a_time(monkeypatch, suite, trials, seed, chunk):
    # A run draws a chunk of trials, checks each dimension's states as one
    # stack and reports them in one batch, chunk after chunk in one random
    # stream; its worst values and failure records equal those of its
    # trials taken one at a time, exactly, with chunks of 10 too.
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    batched = cli._SUITES[suite](trials, seed)
    reference = _one_trial_at_a_time(suite, trials, seed)
    assert batched.worst == reference.worst
    assert batched.violations == reference.violations
    assert batched.passed == reference.passed
    if suite == "bounds" and seed == 2475351561:
        [entry] = batched.violations
        assert (entry["trial"], entry["detail"]) == (21, "auxiliary averages differ by 5.027e-09")


def test_failed_batch_is_reported_one_ensemble_at_a_time(monkeypatch):
    # The second stacked eigvalsh of a batch, the averages of its mu_plus,
    # fails; the batch raises, and reported one ensemble at a time (past the
    # failing call) every ensemble gets its own report.
    mus = [random_ensemble(m, 4, seed) for seed, m in enumerate((3, 5, 2, 4))]
    expected = [full_report(random_ensemble(m, 4, seed)) for seed, m in enumerate((3, 5, 2, 4))]
    stacked = fail_second_stack(monkeypatch)
    with pytest.raises(EigensolverError, match="^stacked eigenvalue computation failed at dim 4"):
        cli.full_reports(mus)
    assert stacked == [4, 4]
    stacked = fail_second_stack(monkeypatch)  # the batch fails again, at its mu_minus averages
    reports = cli._batched(cli.full_reports, mus)
    assert stacked[:2] == [4, 4] and len(stacked) > 2  # then each ensemble's own stacks
    for report, want in zip(reports, expected):
        assert report.slacks == want.slacks and report.chi == want.chi


def test_drawn_state_fault_stops_the_run_as_its_draw_does(monkeypatch):
    # LAPACK fails on member 1 of trial 3's drawn ensemble, in the chunk's
    # joined check and alone: the run raises the error that drawing that
    # ensemble alone raises, as when each trial was checked as it was drawn.
    target = _suite_draws("bounds", 7, 5)[3].matrices[1]
    original = np.linalg.eigvalsh

    def member_fails(a, *args, **kwargs):
        if np.shape(a)[-1] == len(target):
            if any(np.array_equal(mat, target) for mat in np.reshape(a, (-1, *target.shape))):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", member_fails)
    pattern = rf"^member 1: eigenvalue computation failed at dim {len(target)}"
    with pytest.raises(EigensolverError, match=pattern):
        _suite_draws("bounds", 7, 5)
    with pytest.raises(EigensolverError, match=pattern):
        run_bounds_suite(5, 7)


@pytest.mark.parametrize("suite", ["fei", "bounds"])
def test_suite_run_holds_one_chunk_at_a_time(suite):
    # A run draws, checks and reports a chunk of cli._CHUNK trials at a
    # time, and lets each chunk go before drawing the next, so the traced
    # peak of a 1,000-trial run is about that of its first chunk alone.
    run = cli._SUITES[suite]
    run(cli._CHUNK, 3)  # first-use allocations, outside the measure
    peaks = []
    for count in (cli._CHUNK, 1000):
        tracemalloc.start()
        try:
            run(count, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


# LAPACK calls and the matrices they solve, counted at numpy.linalg, for a
# 100-trial run at seed 0: ceilings, so that a change which splits a stack
# or solves a matrix twice fails here.
_SUITE_LAPACK = {
    "bounds": {"eigh": (7, 380), "eigvalsh": (48, 1707)},  # 55 calls, 2,087 matrices
    "fei": {"eigvalsh": (14, 300)},
}


@pytest.mark.parametrize("suite", sorted(_SUITE_LAPACK))
def test_suite_lapack_calls_stay_under_their_ceilings(monkeypatch, suite):
    solved = {}
    for solver in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, solver)

        def counted(a, *args, _original=original, _solver=solver, **kwargs):
            calls, matrices = solved.get(_solver, (0, 0))
            solved[_solver] = calls + 1, matrices + math.prod(np.shape(a)[:-2])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, solver, counted)
    assert cli._SUITES[suite](100, 0).passed
    ceilings = _SUITE_LAPACK[suite]
    assert solved.keys() <= ceilings.keys(), solved
    for solver, (calls, matrices) in solved.items():
        assert calls <= ceilings[solver][0] and matrices <= ceilings[solver][1], solved


def test_suite_results_are_structured():
    fei = run_fei_suite(trials=25, seed=1)
    assert fei.passed and fei.trials == 25 and "slack" in fei.worst
    bounds = run_bounds_suite(trials=10, seed=2)
    assert bounds.passed
    assert bounds.worst["average_match_residual"] <= 1e-9
    tight = run_tightness_suite()
    assert tight.passed


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known false violation: at trial 21 eps_av is about 2e-8, and the "
        "auxiliary averages, which divide by eps_av, amplify rounding to a "
        "5.0e-9 residual, above AVERAGE_MATCH_TOL"
    ),
)
def test_bounds_suite_seed_with_small_eps_av_passes():
    assert run_bounds_suite(22, 2475351561).passed


def test_report_to_dict_rejects_bad_base():
    report = full_report(trine_ensemble())
    with pytest.raises(ValueError, match="log base"):
        report_to_dict(report, log_base="10")


def test_report_dict_rescales_slacks():
    report = full_report(trine_ensemble())
    nats = report_to_dict(report)
    bits = report_to_dict(report, log_base="2")
    assert math.isclose(
        bits["slacks"]["shannon_bound"] * LN2, nats["slacks"]["shannon_bound"],
        abs_tol=1e-15,
    )


def test_labels_round_trip(tmp_path):
    mu = trine_ensemble()
    path = tmp_path / "labels.json"
    write_ensemble_file(str(path), mu)
    back = load_ensemble_file(str(path))
    assert back.labels == mu.labels


def test_ensemble_without_labels_round_trip(tmp_path):
    rho = DensityOperator(np.eye(2) / 2)
    sigma = DensityOperator.from_pure([1.0, 0.0])
    mu = DiscreteEnsemble(np.array([0.5, 0.5]), (rho, sigma))
    path = tmp_path / "nolabels.json"
    write_ensemble_file(str(path), mu)
    assert load_ensemble_file(str(path)).labels is None
