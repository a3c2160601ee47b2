"""Benchmark of the holevo-bounds command line, run the way its users run it.

    python3 benchmarks/run.py --workload dense-files --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload is a closed loop with one
caller: in-process calls of `holevo_bounds.cli.main(argv)`, one after the
other, in whole cycles of the same operations, until --seconds have passed.
Set-up (a fresh interpreter's import, input generation and untimed warm-up
operations) runs three times and reports its median.  Every operation's
output is then checked against an independent numpy reference (checker.py),
outside the timed region and outside set-up.

Times are wall times scaled to the machine's reference speed: a fixed numpy
kernel (speed.py) is timed between operations, and each operation's time is
divided by the kernel times around it.  The summary on standard error also
gives the unscaled figures.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the run then also replays its first
cycles under the span tracer (tracer.py) and reports the per-layer metrics
instead.  The tracer is imported only in that case.  Scratch files and span
dumps go to .bench_out/ in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import NamedTuple

# BLAS threads for every run: at most the machine's 2 vCPUs, and 1 is both
# faster and steadier at these matrix sizes.
BLAS_THREADS = 1
SETUP_REPEATS = 3
OUT_DIR = ".bench_out"


# inputs, checker, speed and tracer import numpy, so they are imported only
# after import_package has fixed the BLAS thread count.


class Op(NamedTuple):
    """One command: its argv and the key of its expected output."""

    argv: list[str]
    key: str


class Record(NamedTuple):
    cycle: int
    op: Op
    code: int | None  # None when cli.main raised
    stdout: str
    seconds: float  # wall time
    scaled: float  # wall time at the reference speed


class DenseFiles:
    """`report <file> --format json` on generated ensemble files: Haar-pure,
    random-rank and full-rank Ginibre members in equal shares."""

    name = "dense-files"
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.paths: dict[str, str] = {}
        self.sizes: dict[str, int] = {}
        self._references: dict[str, dict] = {}

    def prepare(self) -> None:
        import inputs

        for mu in inputs.dense_ensembles(self.seed):
            path = os.path.join(self.workdir, f"{mu.name}.json")
            self.sizes[mu.name] = inputs.write_ensemble_file(path, mu)
            self.paths[mu.name] = path

    def warmup(self) -> list[list[str]]:
        smallest = list(self.paths.values())[:3]
        return [["report", path, "--format", "json"] for path in smallest]

    def cycle(self, k: int) -> list[Op]:
        return [Op(["report", path, "--format", "json"], name) for name, path in self.paths.items()]

    def check(self, record: Record) -> list[str]:
        import checker
        import inputs

        if not self._references:
            for mu in inputs.dense_ensembles(self.seed):
                self._references[mu.name] = checker.dense_reference(mu)
        report = checker.parse_report(record.stdout)
        if isinstance(report, str):
            return [report]
        return checker.check_dense(report, self._references[record.op.key])


class CommutingExamples:
    """`example oscillator:N` and `example orthogonal:m`: every member is
    diagonal in the standard basis."""

    name = "commuting-examples"
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str):
        import inputs

        self.names = [f"oscillator:{n}" for n in inputs.OSCILLATOR_MEANS]
        self.names += [f"orthogonal:{m}" for m in inputs.ORTHOGONAL_SIZES]
        self._references: dict[str, dict] = {}

    def prepare(self) -> None:
        pass

    def warmup(self) -> list[list[str]]:
        return [["example", "oscillator:0.5"], ["example", "orthogonal:16"]]

    def cycle(self, k: int) -> list[Op]:
        return [Op(["example", name], name) for name in self.names]

    def check(self, record: Record) -> list[str]:
        import checker

        key = record.op.key
        oscillator = key.startswith("oscillator:")
        if key not in self._references:
            build = checker.oscillator_reference if oscillator else checker.orthogonal_reference
            self._references[key] = build(key)
        report = checker.parse_report(record.stdout)
        if isinstance(report, str):
            return [report]
        check = checker.check_oscillator if oscillator else checker.check_orthogonal
        return check(report, self._references[key])


class VerifySmall:
    """One round is `verify bounds`, `verify fei` and `verify tightness`,
    each round with a fresh seed drawn from the workload seed."""

    name = "verify-small"
    trace_cycles = 2

    def __init__(self, seed: int, workdir: str):
        import inputs

        self.seed = seed
        self.trials = str(inputs.VERIFY_TRIALS)
        self.round_seed = inputs.verify_seed

    def prepare(self) -> None:
        pass

    def warmup(self) -> list[list[str]]:
        seed = str(self.round_seed(self.seed, 0))
        return [
            ["verify", "bounds", "--trials", "10", "--seed", seed],
            ["verify", "fei", "--trials", "10", "--seed", seed],
            ["verify", "tightness"],
        ]

    def cycle(self, k: int) -> list[Op]:
        seed = str(self.round_seed(self.seed, k))
        return [
            Op(["verify", "bounds", "--trials", self.trials, "--seed", seed], "bounds"),
            Op(["verify", "fei", "--trials", self.trials, "--seed", seed], "fei"),
            Op(["verify", "tightness"], "tightness"),
        ]

    def check(self, record: Record) -> list[str]:
        import checker

        return checker.check_verify(record.op.key, int(self.trials), record.code, record.stdout)


WORKLOADS = {w.name: w for w in (DenseFiles, CommutingExamples, VerifySmall)}


def run_op(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """Call cli.main(argv) with its output captured; returns the exit code
    (None if it raised), the standard output and the wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an operation that raises counts as failed; keep going
        code = None
        traceback.print_exc(file=err)
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"failed: {' '.join(argv)}\n{err.getvalue()}")
    return code, out.getvalue(), elapsed


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }


def setup_once(workload, env: dict, probe) -> dict:
    """One set-up: import in a fresh interpreter, generate the inputs and
    run the warm-up operations.  Returns the seconds of each step."""
    from holevo_bounds import cli
    from speed import at_reference_speed

    probe_before = probe()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import holevo_bounds.cli"], env=env, check=True)
    imported = time.perf_counter()
    workload.prepare()
    generated = time.perf_counter()
    for argv in workload.warmup():
        code, _, _ = run_op(cli, argv)
        if code != 0:
            raise RuntimeError(f"warm-up operation failed: {argv}")
    done = time.perf_counter()
    return {
        "import_s": imported - start,
        "generate_s": generated - imported,
        "warmup_s": done - generated,
        "total_s": done - start,
        "scaled_s": at_reference_speed([done - start], [probe_before, probe()])[0],
    }


def run_cycles(cli, workload, probe, cycles, *, seconds: float | None = None, trace=None):
    """Run the whole cycles numbered in `cycles`, or only until `seconds`
    have passed, timing the speed probe between operations.  Returns the
    records and the wall seconds."""
    from speed import at_reference_speed

    runs = []  # (cycle, op, code, stdout, wall)
    probes = [probe()]
    start = time.perf_counter()
    for k in cycles:
        for op in workload.cycle(k):
            if trace is not None:
                trace.op = len(runs)
            runs.append((k, op, *run_op(cli, op.argv)))
            probes.append(probe())
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    scaled = at_reference_speed([r[-1] for r in runs], probes)
    records = [Record(*r, s) for r, s in zip(runs, scaled)]
    return records, elapsed


def import_package(root: str):
    """Import holevo_bounds from `root`/src with the BLAS thread count fixed,
    or print why not and return None."""
    src = os.path.join(root, "src")
    package_dir = os.path.join(src, "holevo_bounds")
    if not os.path.isfile(os.path.join(package_dir, "cli.py")):
        print(f"error: no src/holevo_bounds under {root}; run from the repository root",
              file=sys.stderr)
        return None
    # Must happen before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, src)
    import holevo_bounds
    import holevo_bounds.cli

    if os.path.dirname(os.path.abspath(holevo_bounds.__file__)) != package_dir:
        print(f"error: imported holevo_bounds from {holevo_bounds.__file__}", file=sys.stderr)
        return None
    return holevo_bounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    holevo_bounds = import_package(root)
    if holevo_bounds is None:
        return 2
    cli = holevo_bounds.cli

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUT_DIR))
    try:
        from speed import SpeedProbe

        workload = WORKLOADS[args.workload](args.seed, workdir)
        probe = SpeedProbe()
        setups = [setup_once(workload, dict(os.environ), probe) for _ in range(SETUP_REPEATS)]

        assert "tracer" not in sys.modules, "the tracer must not load in a timed run"
        # At least trace_cycles cycles, so a traced run can replay them.
        first = range(workload.trace_cycles)
        results, elapsed = run_cycles(cli, workload, probe, first)
        more, more_s = run_cycles(cli, workload, probe, itertools.count(len(first)),
                                  seconds=args.seconds - elapsed)
        results += more
        elapsed += more_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = [p for r in results if r.code == 0 for p in workload.check(r)]
        times = [r.scaled for r in results]
        failed = sum(1 for r in results if r.code != 0)
        metrics = {
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(s["scaled_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        summary = {
            "workload": args.workload,
            "seed": args.seed,
            "cycles": results[-1].cycle + 1,
            "ops": len(results),
            "op_p50_samples": len(times),
            "timed_s": elapsed,
            "unscaled_ops_per_s": len(results) / elapsed,
            "unscaled_op_p50_ms": statistics.median(r.seconds for r in results) * 1e3,
            "setups": setups,
            "environment": environment(),
        }
        if isinstance(workload, DenseFiles):
            summary["file_bytes"] = workload.sizes

        if args.trace:
            from tracer import Tracer

            tracer = Tracer(holevo_bounds)
            tracer.install()
            try:
                traced, _ = run_cycles(cli, workload, probe, first, trace=tracer)
            finally:
                tracer.uninstall()
            problems += [p for r in traced if r.code == 0 for p in workload.check(r)]
            failed += sum(1 for r in traced if r.code != 0)
            # Against the median untraced time of the same command.
            untraced = {}
            for r in results:
                untraced.setdefault(tuple(r.op.argv), []).append(r.scaled)
            untraced_s = sum(statistics.median(untraced[tuple(r.op.argv)]) for r in traced)
            traced_s = sum(r.scaled for r in traced)
            overhead = 100.0 * (traced_s / untraced_s - 1.0)
            layers = tracer.layer_metrics(len(traced))
            layers["trace.overhead_pct"] = (overhead, "%")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
            span_path = os.path.join(root, OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(span_path)
            summary.update(traced_ops=len(traced), spans=len(tracer.spans),
                           trace_overhead_pct=overhead, span_file=span_path)
            results += traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
