"""Self-test of the reference checker: it must pass correct outputs and
fail each output with one value perturbed beyond tolerance.

    python3 benchmarks/selftest.py

Run from the repository root; exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
import tempfile

from run import OUT_DIR, import_package, run_op


def perturbed(report: dict, path: tuple, change) -> dict:
    out = copy.deepcopy(report)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = change(target[path[-1]])
    return out


def main() -> int:
    root = os.getcwd()
    package = import_package(root)
    if package is None:
        return 2
    import checker
    import inputs

    cli = package.cli
    trine_diameter = math.sqrt(3.0) / 2.0
    cases = []  # (name, problems, expected to fail)

    def add(name, problems, should_fail):
        cases.append((name, problems, should_fail))

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(root, OUT_DIR))
    try:
        for index, kind in enumerate(inputs.DENSE_KINDS):
            mu = inputs.dense_ensemble(0, index, kind, 6, 5)
            path = os.path.join(workdir, f"{mu.name}.json")
            inputs.write_ensemble_file(path, mu)
            _, stdout, _ = run_op(cli, ["report", path, "--format", "json"])
            report = checker.parse_report(stdout)
            reference = checker.dense_reference(mu)
            add(f"{mu.name}: correct", checker.check_dense(report, reference), False)
            for label, field, change in (
                ("chi + 1e-6", ("chi",), lambda v: v + 1e-6),
                ("C = trine value", ("plus_diameter",), lambda v: trine_diameter),
                ("aux_bound - 1e-6", ("aux_bound",), lambda v: v - 1e-6),
                ("slack count_bound + 1e-6", ("slacks", "count_bound"), lambda v: v + 1e-6),
                ("mu+/mu- averages 1e-6 apart", ("average_match_residual",), lambda v: 1e-6),
            ):
                bad = perturbed(report, field, change)
                add(f"{mu.name}: {label}", checker.check_dense(bad, reference), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, build, check in (
        ("oscillator:1", checker.oscillator_reference, checker.check_oscillator),
        ("orthogonal:8", checker.orthogonal_reference, checker.check_orthogonal),
    ):
        _, stdout, _ = run_op(cli, ["example", name])
        report = checker.parse_report(stdout)
        reference = build(name)
        add(f"{name}: correct", check(report, reference), False)
        for label, field, change in (
            ("chi + 1e-6", ("chi",), lambda v: v + 1e-6),
            ("C = trine value", ("plus_diameter",), lambda v: trine_diameter),
            ("hbar + 1e-6", ("hbar",), lambda v: v + 1e-6),
        ):
            add(f"{name}: {label}", check(perturbed(report, field, change), reference), True)

    for suite in ("bounds", "fei", "tightness"):
        argv = ["verify", suite, "--trials", "20", "--seed", "3"]
        code, stdout, _ = run_op(cli, argv)
        add(f"verify {suite}: correct", checker.check_verify(suite, 20, code, stdout), False)
        add(f"verify {suite}: exit code 1", checker.check_verify(suite, 20, 1, stdout), True)
        lines = stdout.splitlines()
        worst = lines[1].split(" = ")[0]
        flipped = -1e-7 if "slack" in worst or "order" in worst else 1e-7
        bad = "\n".join([lines[0], f"{worst} = {flipped:.6e}", *lines[2:]])
        add(f"verify {suite}: {worst.strip()} = {flipped:.0e}",
            checker.check_verify(suite, 20, 0, bad), True)

    failures = 0
    for name, problems, should_fail in cases:
        ok = bool(problems) == should_fail
        failures += not ok
        verdict = "fails as it should" if should_fail else "passes"
        if not ok:
            verdict = "UNEXPECTED: " + (json.dumps(problems) if problems else "no problem found")
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}")
    print(f"{len(cases) - failures} of {len(cases)} checker cases behave as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
