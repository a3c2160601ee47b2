"""One-off reference figures for the baseline matrix.

    python3 benchmarks/baseline.py

Run from the repository root.  For each case it times `full_report` (or the
verify command) after one untimed warm-up call and reports the median and
minimum of the repeats, then runs it once more under the span tracer and
counts the eigensolves of each stage.  The table replaces the part of
benchmarks/README.md between the reference markers.  Nothing checks these
figures; they are for reading.  The whole matrix takes several minutes, most
of it in oscillator:10.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

from run import environment, import_package, run_op

BEGIN = "<!-- reference figures: begin -->"
END = "<!-- reference figures: end -->"


def cases(hb):
    import numpy as np

    def oscillator(n):
        return lambda: hb.oscillator_ensemble(hb.OscillatorEnsembleSpec(n))[0]

    def pure(m, d, seed):
        def build():
            rng = np.random.default_rng(seed)
            vectors = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            states = tuple(hb.DensityOperator.from_pure(v) for v in vectors)
            return hb.DiscreteEnsemble(np.full(m, 1.0 / m), states)

        return build

    return [
        ("trine", hb.trine_ensemble),
        ("random_ensemble(6, 8, 0)", lambda: hb.random_ensemble(6, 8, 0)),
        ("random_ensemble(20, 32, 1)", lambda: hb.random_ensemble(20, 32, 1)),
        ("oscillator:1", oscillator(1.0)),
        ("oscillator:3", oscillator(3.0)),
        ("orthogonal:64", lambda: hb.orthogonal_ensemble(64)),
        ("60 Haar-pure states, d=64 (seed 0)", pure(60, 64, 0)),
        ("random_ensemble(97, 97, 3)", lambda: hb.random_ensemble(97, 97, 3)),
        ("oscillator:10", oscillator(10.0)),
    ]


def measure(call, hb, root: str) -> dict:
    start = time.perf_counter()
    call()
    first = time.perf_counter() - start
    repeats = 7 if first < 0.5 else 5 if first < 5.0 else 3
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    from tracer import Tracer

    tracer = Tracer(hb)
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return {"first": first, "times": times, "stages": tracer.stages(root)}


def format_stages(stages: dict, root: str) -> str:
    parts = []
    for name, (calls, eig) in stages.items():
        if name != root and eig:
            short = name.split(".", 1)[1]
            parts.append(f"{short}{f' ×{calls}' if calls > 1 else ''} {eig}")
    return ", ".join(parts)


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f} ms" if seconds < 1.0 else f"{seconds:.2f} s"


def main() -> int:
    root_dir = os.getcwd()
    hb = import_package(root_dir)
    if hb is None:
        return 2
    rows = []
    for name, build in cases(hb):
        mu = build()
        result = measure(lambda: hb.full_report(mu), hb, "bounds.full_report")
        rows.append((name, f"{mu.size} | {mu.dim}", result, "bounds.full_report"))
        print(f"{name}: median {ms(statistics.median(result['times']))}", file=sys.stderr)
    argv = ["verify", "bounds", "--trials", "1000", "--seed", "0"]
    result = measure(lambda: run_op(hb.cli, argv), hb, "cli.run_bounds_suite")
    rows.append((" ".join(argv), "2–6 | 2–8", result, "cli.run_bounds_suite"))

    env = environment()
    lines = [
        BEGIN,
        "",
        f"Measured with `python3 benchmarks/baseline.py`: Python {env['python']}, "
        f"numpy {env['numpy']} on {env['blas']}, {env['nproc']} vCPUs, "
        f"{env['blas_threads']} BLAS thread.  Warm time is the median of the "
        "repeats after one untimed call; eigensolves are those of one traced call, "
        "by the function that `full_report` (or `run_bounds_suite`) calls directly.",
        "",
        "| case | m | d | first call | warm median | warm min | repeats "
        "| eigensolves | eigensolves by stage |",
        "| --- | --: | --: | --: | --: | --: | --: | --: | --- |",
    ]
    for name, shape, result, root in rows:
        times = result["times"]
        lines.append(
            f"| `{name}` | {shape} | {ms(result['first'])} | {ms(statistics.median(times))} "
            f"| {ms(min(times))} | {len(times)} | {result['stages'][root][1]} "
            f"| {format_stages(result['stages'], root)} |"
        )
    lines += ["", END]
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    head, rest = text.split(BEGIN, 1)
    tail = rest.split(END, 1)[1]
    with open(readme, "w", encoding="utf-8") as fh:
        fh.write(head + "\n".join(lines) + tail)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
