"""End-to-end benchmark of the reebdraw CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload layout_general --seed 1 --seconds 15 --trace 0

One client runs a closed loop in this process: every operation is one call
to ``reebdraw.cli.main([...])`` on a generated input file, writing its output
to a file.  Each operation has an input of its own: a workload draws rounds
of cases from the seed, as many rounds as ``--seconds`` holds at the
workload's reference round time, so a run does the same operations on every
commit.  Outputs are checked after the timed loop.  With ``--trace 0`` the
last line of stdout is the end-to-end metrics as JSON; with ``--trace 1``
half as many rounds run once untraced and once traced, and the JSON holds
the per-layer metrics.  The lines before it are a readable report.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9

_SETUP_CODE = """
import sys, time, json
sys.path[:0] = [sys.argv[1], sys.argv[2]]
start = time.perf_counter()
import reebdraw.cli
reebdraw.cli.build_parser()
elapsed = time.perf_counter() - start
import calib
print(json.dumps([elapsed, sorted(calib.kernel() for _ in range(3))[1]]))
"""


def import_program():
    """Import reebdraw from this checkout's source tree, never from elsewhere."""
    if not (SRC / "reebdraw" / "cli.py").is_file():
        raise SystemExit(f"bench: no reebdraw source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import reebdraw.cli

    if not Path(reebdraw.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported reebdraw from {reebdraw.cli.__file__}, not {SRC}")
    return reebdraw.cli


def measure_setup() -> list[float]:
    """Cold ``import reebdraw.cli`` plus ``build_parser()`` in fresh interpreters,
    in reference-speed seconds.  The kernel runs after the import, so the
    import pays for every module it loads.  The first start, which may
    compile bytecode, is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, kernel_s = json.loads(proc.stdout.splitlines()[-1])
        if i:
            samples.append(elapsed * calib.REFERENCE_S / kernel_s)
    return samples


class Loop:
    """Runs operations and keeps their timings, exit codes and output digests."""

    def __init__(self, cli, sampler: calib.Sampler | None):
        self.cli = cli
        self.sampler = sampler
        self.raw: list[float] = []
        self.factor: list[float] = []
        self.errors: dict[int, str] = {}
        self.digests: list[str] = []
        self.kernel_s = calib.kernel()

    def op(self, case) -> None:
        stderr = io.StringIO()
        before = self.kernel_s
        error = None
        if self.sampler:
            self.sampler.start()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                rc = self.cli.main(case.argv)
        except BaseException as exc:  # noqa: BLE001 - SystemExit from argparse included
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        during, stolen = self.sampler.stop() if self.sampler else ([], 0.0)
        self.kernel_s = calib.kernel()
        self.raw.append(elapsed - stolen)
        kernels = [before, *during, self.kernel_s]
        self.factor.append(calib.REFERENCE_S * len(kernels) / sum(kernels))
        if error is None and rc != 0:
            error = f"exit code {rc}: {stderr.getvalue().strip()}"
        digest = hashlib.sha256()
        if error is None:
            for path in case.outputs:
                digest.update(Path(path).read_bytes())
        else:
            self.errors[len(self.raw) - 1] = error
        self.digests.append(digest.hexdigest())

    def seconds(self) -> list[float]:
        return [t * f for t, f in zip(self.raw, self.factor)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, ordered[k]


def run(spec, seed: int, seconds: int, trace: bool) -> int:
    """Run one workload (a ``workloads.Workload``) and print its report and metrics."""
    cli = import_program()
    setup = [] if trace else measure_setup()
    work = ROOT / ".bench_work" / f"{spec.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rounds = max(spec.min_rounds, round(seconds / spec.round_s))
        if trace:  # every case runs twice, untraced and traced
            rounds = max(1, rounds // 2)
        cases = spec.make_cases(random.Random(seed), work, rounds)
        untraced = tracer = None
        # Kernel samples during an operation would land inside its spans, so
        # a traced run only times the kernel between operations.
        sampler = None if trace else calib.Sampler()
        with sampler or contextlib.nullcontext():
            loop = Loop(cli, sampler)
            if trace:
                from spans import Tracer, layer_metrics

                for case in cases:
                    loop.op(case)
                untraced, loop = loop, Loop(cli, sampler)
                tracer = Tracer()
                tracer.install()
            try:
                for i, case in enumerate(cases):
                    if tracer is not None:
                        tracer.op = i
                    loop.op(case)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Checks, outside the timed loop.  A traced run has run every case
        # twice, and both outputs must be identical.
        errors = dict(loop.errors)
        if untraced is not None:
            errors = {**untraced.errors, **errors}
            spec.note_trace(cases, tracer)
        for i, case in enumerate(cases):
            if i in errors:
                continue
            if untraced is not None and untraced.digests[i] != loop.digests[i]:
                errors[i] = "outputs differ between the untraced and traced runs"
                continue
            problem = spec.check(case)
            if problem:
                errors[i] = problem

        attempted, failed = len(cases), len(errors)
        lat = [math.inf if i in errors else t for i, t in enumerate(loop.seconds())]
        total_digest = hashlib.sha256("".join(loop.digests).encode()).hexdigest()
        crossings_total = sum(case.crossings or 0 for case in cases)
        print(f"workload {spec.name} seed {seed}: {attempted} operations, one client, closed loop"
              f" ({'untraced pass, then traced pass' if trace else 'untraced'})")
        print(f"output digest sha256 {total_digest}")
        for i, problem in sorted(errors.items()):
            print(f"FAILED {cases[i].name}: {problem}")
        for line in spec.report(cases, loop):
            print(line)

        if trace:
            probes = spec.probe_cases(random.Random(f"probe/{seed}"), work)
            probe_loop = Loop(cli, None)
            for case in probes:
                probe_loop.op(case)
            probe_failed = 0
            for i, case in enumerate(probes):
                problem = probe_loop.errors.get(i) or spec.check(case)
                if problem:
                    probe_failed += 1
                    print(f"defect probe {case.name}: {problem}")
            if probes:
                print(f"defect: {probe_failed} of {len(probes)} probed inputs fail")
            metrics = layer_metrics(tracer, loop.raw, loop.factor)
            traced_tp = attempted / sum(loop.seconds())
            untraced_tp = attempted / sum(untraced.seconds())
            metrics["trace.overhead_ratio"] = traced_tp / untraced_tp
            metrics["jsonio.bytes_in"] = statistics.mean(Path(c.source).stat().st_size for c in cases)
            metrics["jsonio.bytes_out"] = statistics.mean(Path(c.outputs[0]).stat().st_size for c in cases)
            metrics["trace.absent_names"] = len(tracer.absent)
            metrics["output.crossings_total"] = crossings_total
            metrics["output.fail_ratio"] = failed / attempted
            metrics["output.probe_failures"] = probe_failed
            for name in tracer.absent:
                print(f"absent: {name} (its metrics read 0)")
            units = PER_LAYER
            print(f"traced throughput {traced_tp:.4f} op/s vs untraced {untraced_tp:.4f} op/s")
        else:
            pct, tail_s = tail(lat)
            good = [t for t in lat if t != math.inf]
            metrics = {
                "latency_p50_s": statistics.median(lat),
                "latency_tail_s": tail_s,
                "throughput_ops_s": len(good) / sum(good) if good else 0.0,
                "setup_s": statistics.median(setup),
                "peak_rss_mib": peak_rss_mib,
            }
            units = END_TO_END
            print(f"latency_tail_s is p{pct:.1f} of {attempted} operations"
                  f" ({attempted - 1 - max(attempted - 11, 0)} beyond it);"
                  f" setup_s is the median of {len(setup)} fresh interpreters")
            print(f"raw wall: p50 {statistics.median(loop.raw):.4f} s, throughput"
                  f" {attempted / sum(loop.raw):.4f} op/s; reference-speed factor median"
                  f" {statistics.median(loop.factor):.3f}")
            print(f"fail_ratio {failed / attempted} ratio; crossings_total {crossings_total} count")
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
