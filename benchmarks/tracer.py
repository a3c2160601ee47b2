"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps every public function of the package's modules at
each module attribute where callers look it up, the `__post_init__` of each
dataclass that validates its input, and `numpy.linalg.eigvalsh`/`eigh`.
Each call becomes a span (name, start, end, parent, operation id) held in
memory; eigensolves are counted per matrix, stacked inputs included, and
attributed to the innermost open span.  `layer_metrics` turns the spans into
the per-layer metrics, per operation.  Nothing here is imported by an
untraced run.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("linalg", "entropy", "ensemble", "bounds", "gallery", "cli")

# Span fields.
NAME, PARENT, OP, START, END, EIG, PAIRS = range(7)


def _possible_pairs(aux, *args, **kwargs) -> int:
    m = len(aux.tau_plus)
    return m * (m - 1) // 2


# Spans that record a number taken from their arguments: for the diameter
# scan, the m(m-1)/2 pairs it could evaluate.
_NOTES = {"bounds.plus_diameter": _possible_pairs}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.names: list[str] = []
        self.spans: list[list] = []
        self.op = -1
        self.eigensolves = 0
        self.eig_d3 = 0
        self.eig_ns = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        owners = [self.package, *self.modules.values()]
        for short, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._span(f"{short}.{attr}", obj)
                    for owner in owners:
                        for name, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(vars(owner), name, wrapped)
                            elif isinstance(value, dict):  # dispatch tables
                                for key, entry in list(value.items()):
                                    if entry is obj:
                                        self._patch(value, key, wrapped)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    hook = vars(obj)["__post_init__"]
                    setattr(obj, "__post_init__", self._span(f"{short}.{attr}", hook))
                    self._undo.append((obj, "__post_init__", hook))
        for name in ("eigvalsh", "eigh"):
            self._patch(vars(np.linalg), name, self._eigensolver(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def _patch(self, table: dict, name: str, value) -> None:
        self._undo.append((table, name, table[name]))
        table[name] = value

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, self.op, 0, 0, 0, None]
            if note is not None:
                span[PAIRS] = note(*args, **kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _eigensolver(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            count = int(np.prod(shape[:-2], dtype=np.int64))
            start = clock()
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.eig_ns += clock() - start
                self.eigensolves += count
                self.eig_d3 += count * shape[-1] ** 3
                if stack:
                    spans[stack[-1]][EIG] += count

        return counted

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: the name table, then one
        [name, parent, op, start_ns, end_ns, own eigensolves] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:PAIRS]) + "\n")

    def _inclusive(self) -> tuple[list[int], list[int], list[int]]:
        """Per span: duration, time covered by its children, and
        eigensolves including those of its descendants."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        children = [0] * len(spans)
        eig = [s[EIG] for s in spans]
        for i in range(len(spans) - 1, -1, -1):  # children come after parents
            parent = spans[i][PARENT]
            if parent >= 0:
                children[parent] += dur[i]
                eig[parent] += eig[i]
        return dur, children, eig

    def stages(self, root: str) -> dict[str, list[int]]:
        """[calls, eigensolves] of each function called directly by a span
        named `root`, and under `root` itself the totals of those spans."""
        _, _, eig = self._inclusive()
        root_id = self.names.index(root)
        out = {root: [0, 0]}
        for i, span in enumerate(self.spans):
            if span[NAME] == root_id:
                out[root][0] += 1
                out[root][1] += eig[i]
            elif span[PARENT] >= 0 and self.spans[span[PARENT]][NAME] == root_id:
                entry = out.setdefault(self.names[span[NAME]], [0, 0])
                entry[0] += 1
                entry[1] += eig[i]
        return out

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per operation over `ops` traced operations.

        `<fn>.s` and `<fn>.eigensolves` cover the calls not nested in
        another call of the same function, and module totals the calls not
        nested in the same module, so nothing is counted twice.  Self time
        is a span's duration minus its children's durations.
        """
        spans, names = self.spans, self.names
        module = [name.split(".", 1)[0] for name in names]
        dur, children, eig = self._inclusive()
        calls = defaultdict(int)
        total, own, fn_eig = defaultdict(int), defaultdict(int), defaultdict(int)
        mod_total, mod_own, mod_eig = defaultdict(int), defaultdict(int), defaultdict(int)
        pairs = possible = 0
        # -1 matches no span, should either function be renamed or removed.
        diameter = names.index("bounds.plus_diameter") if "bounds.plus_diameter" in names else -1
        distance = names.index("linalg.trace_distance") if "linalg.trace_distance" in names else -1
        for i, span in enumerate(spans):
            name = span[NAME]
            same_name = same_module = False
            parent = span[PARENT]
            while parent >= 0 and not (same_name and same_module):
                above = spans[parent][NAME]
                same_name = same_name or above == name
                same_module = same_module or module[above] == module[name]
                parent = spans[parent][PARENT]
            calls[names[name]] += 1
            own[names[name]] += dur[i] - children[i]
            mod_own[module[name]] += dur[i] - children[i]
            if not same_name:
                total[names[name]] += dur[i]
                fn_eig[names[name]] += eig[i]
            if not same_module:
                mod_total[module[name]] += dur[i]
                mod_eig[module[name]] += eig[i]
            if name == distance and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == diameter:
                pairs += 1
            if span[PAIRS] is not None:
                possible += span[PAIRS]

        def per_op(value, unit, scale=1.0):
            return value * scale / ops, unit

        def seconds(ns):
            return per_op(ns, "s", 1e-9)

        out = {
            "linalg.eigensolves": per_op(self.eigensolves, "count"),
            "linalg.eig_d3": per_op(self.eig_d3, "d3"),
            "linalg.eig_s": seconds(self.eig_ns),
            "linalg.density_validations": per_op(calls["linalg.DensityOperator"], "count"),
            "linalg.hermitian_constructions": per_op(
                calls["linalg.HermitianOperator"], "count"
            ),
            "linalg.trace_distance.calls": per_op(calls["linalg.trace_distance"], "count"),
            "linalg.jordan_parts.calls": per_op(calls["linalg.jordan_parts"], "count"),
            "linalg.jordan_parts.s": seconds(total["linalg.jordan_parts"]),
            "entropy.von_neumann_entropy.calls": per_op(
                calls["entropy.von_neumann_entropy"], "count"
            ),
            "entropy.von_neumann_entropy.s": seconds(total["entropy.von_neumann_entropy"]),
            "entropy.self_s": seconds(mod_own["entropy"]),
        }
        for fn in ("average_state", "member_epsilons", "holevo_quantity", "build_auxiliary"):
            key = f"ensemble.{fn}"
            out[f"{key}.calls"] = per_op(calls[key], "count")
            out[f"{key}.s"] = seconds(total[key])
            out[f"{key}.eigensolves"] = per_op(fn_eig[key], "count")
        out.update(
            {
                "bounds.full_report.s": seconds(total["bounds.full_report"]),
                "bounds.full_report.self_s": seconds(own["bounds.full_report"]),
                "bounds.plus_diameter.s": seconds(total["bounds.plus_diameter"]),
                "bounds.plus_diameter.eigensolves": per_op(
                    fn_eig["bounds.plus_diameter"], "count"
                ),
                "bounds.plus_diameter.pairs": per_op(pairs, "count"),
                "bounds.plus_diameter.pair_ratio": (pairs / possible if possible else 0.0, "ratio"),
                "bounds.pinsker_term.s": seconds(total["bounds.pinsker_term"]),
                "bounds.fei_check.calls": per_op(calls["bounds.fei_check"], "count"),
                "bounds.fei_check.s": seconds(total["bounds.fei_check"]),
                "gallery.s": seconds(mod_total["gallery"]),
                "gallery.eigensolves": per_op(mod_eig["gallery"], "count"),
                "cli.parse_s": seconds(total["cli.load_ensemble_file"]),
                "cli.parse.eigensolves": per_op(fn_eig["cli.load_ensemble_file"], "count"),
                "cli.format_s": seconds(
                    total["cli.report_to_dict"]
                    + total["cli.format_report_json"]
                    + total["cli.format_report_csv"]
                ),
                "cli.self_s": seconds(mod_own["cli"]),
            }
        )
        return out
