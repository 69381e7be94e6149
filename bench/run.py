#!/usr/bin/env python3
"""Run one polyreglab benchmark workload and print its metrics.

    python3 bench/run.py --workload order-long --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each input is evaluated only after
the previous one returned.  The workload's job is repeated until
``--seconds`` have passed (at least ``MIN_JOBS`` times) and every output is
compared with an independent reference.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end times are calibrated against the machine's
speed (see ``Calibration``).  ``--self-test`` instead runs each workload
once with a deliberately wrong evaluator and fails unless the checks catch
it.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

from tracing import COUNT_METRICS, Tracer
from workloads import WORKLOADS, Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("words", "sexpr", "logic", "interp", "twoway", "pebble", "psi", "langlab")
MIN_JOBS = 3  # a run times at least this many jobs, whatever --seconds says
MIN_SETUPS = 5  # and sets up at least this many times; setup_s is the median

# The machine's speed drifts over seconds to minutes between a fast and a
# slow state, about 1.5 times slower, for all code at once.  So end-to-end
# times are calibrated against a fixed reference loop timed throughout the
# run (see ``Calibration``).  They read as seconds at nominal speed: the
# speed at which one pass of the loop takes this long, as on the baseline
# machine in its fast state.
REFERENCE_NOMINAL_S = 0.003

END_TO_END_UNITS = {
    "wall_s": "s",
    "input_p50_ms": "ms",
    "input_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Layer metrics that must be non-zero (or zero) on each workload: the
# layers each workload is meant to exercise, and the ones it must bypass.
LAYER_MATRIX = {
    "order-long": {
        "nonzero": (
            "logic.prepare_s", "logic.prepare_calls", "logic.queries",
            "interp.domain_s", "interp.domain_queries", "interp.order_s",
            "interp.order_queries", "interp.assembly_s", "interp.evals",
            "interp.out_letters", "psi.lift_s",
        ),
        "zero": ("twoway.runs",),
    },
    "image-dcomplete": {
        "nonzero": (
            "logic.prepare_s", "logic.prepare_calls", "logic.queries",
            "langlab.enumerate_self_s", "langlab.fn_calls", "langlab.distinct_ratio",
            "langlab.sample_io_s", "langlab.dcomplete_self_s", "psi.lift_s",
        ),
        "zero": ("twoway.runs",),
    },
    "pebble-2dft": {
        "nonzero": (
            "twoway.run_s", "twoway.runs", "twoway.out_letters",
            "pebble.apply_self_s", "pebble.calls_d0", "pebble.calls_d1",
            "pebble.calls_d2", "pebble.arg_letters", "langlab.growth_self_s",
            "langlab.fn_calls",
        ),
        "zero": ("logic.prepare_calls",),
    },
}


class ProgramMissing(Exception):
    pass


def drop_program() -> None:
    """Forget any earlier import of polyreglab."""
    for name in [m for m in sys.modules if m == "polyreglab" or m.startswith("polyreglab.")]:
        del sys.modules[name]


def import_program() -> SimpleNamespace:
    """Import polyreglab afresh from ``src/`` (dropping any earlier import,
    so repeated set-ups each pay for the import)."""
    if not os.path.isfile(os.path.join(SRC, "polyreglab", "__init__.py")):
        raise ProgramMissing(f"no polyreglab package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    drop_program()
    package = importlib.import_module("polyreglab")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"polyreglab imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"polyreglab.{m}") for m in MODULES})


class Checker:
    """Compares recorded outputs with the workload's reference, computing
    each reference once per distinct input.  Words are compared by their
    tokens, since every set-up imports the program afresh."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.expected: dict = {}

    def failures(self, P, state, records) -> int:
        failed = 0
        for kind, w, out in records:
            key = (kind, w.tokens)
            if key not in self.expected:
                expected = self.workload.reference(P, state, kind, w)
                self.expected[key] = None if expected is None else expected.tokens
            if out is None or out.tokens != self.expected[key]:
                failed += 1
        return failed


class Tally:
    """What the jobs of one run attempted, failed and measured."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def job(self, workload, P, state, rec: Recorder) -> float:
        t0 = perf_counter()
        try:
            self.problems += workload.job(P, state, rec)
        except Exception as exc:  # the raising input is counted as failed
            self.problems.append(f"job raised {type(exc).__name__}: {exc}")
        wall = perf_counter() - t0
        self.walls.append(wall)
        self.latencies += rec.latencies
        return wall

    def check(self, checker: Checker, P, state, rec: Recorder) -> None:
        self.attempted += len(rec.records)
        self.failed += checker.failures(P, state, rec.records)


def free_program() -> None:
    """Free the previous set-up's program and outputs before the next
    import, untimed, so that copies do not pile up in memory."""
    drop_program()
    gc.collect()


def set_up(workload, seed: int):
    P = import_program()
    return P, workload.prepare(P, seed)


def reference_loop() -> None:
    """Fixed pure-Python work that does not depend on the program."""
    counts: dict = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        [x for x in range(8) if x & 1]


class Calibration:
    """Slowness samples taken through a run, and the calibrated length of
    any stretch of time between them.

    A sample times seven passes of ``reference_loop``; its slowness is the
    median pass over ``REFERENCE_NOMINAL_S``.  ``maybe_sample`` takes one
    when ``INTERVAL_S`` have passed since the last, so long jobs are sampled
    inside as well as at their ends.  A stretch of time is cut at the gaps
    between samples; each piece is divided by the mean slowness of the two
    samples around it, and time spent sampling is left out.
    """

    INTERVAL_S = 0.5

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # start, end, slowness
        self.sample()

    def sample(self) -> None:
        start = perf_counter()
        times = []
        for _ in range(7):
            t0 = perf_counter()
            reference_loop()
            times.append(perf_counter() - t0)
        self.samples.append((start, perf_counter(), statistics.median(times) / REFERENCE_NOMINAL_S))

    def maybe_sample(self) -> None:
        if perf_counter() - self.samples[-1][1] >= self.INTERVAL_S:
            self.sample()

    def length(self, start: float, end: float, calibrated: bool = True) -> float:
        """Length of [start, end] without the time spent sampling, divided
        by slowness unless ``calibrated`` is false.  The stretch must lie
        between the first and the last sample."""
        total = 0.0
        k = bisect.bisect_right(self.samples, start, key=lambda s: s[1]) - 1
        while k + 1 < len(self.samples) and self.samples[k][1] < end:
            left, right = self.samples[k], self.samples[k + 1]
            overlap = min(end, right[0]) - max(start, left[1])
            if overlap > 0:
                total += overlap / ((left[2] + right[2]) / 2 if calibrated else 1.0)
            k += 1
        return total


def measure(workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Set up afresh before every job, so that set-up and jobs are both
    sampled across the whole run; every time is calibrated (see
    ``Calibration``)."""
    checker, tally, cal = Checker(workload), Tally(), Calibration()
    setups, jobs, timings = [], [], []
    deadline = perf_counter() + seconds
    while len(tally.walls) < MIN_JOBS or (not tally.problems and perf_counter() < deadline):
        free_program()
        t0 = perf_counter()
        P, state = set_up(workload, seed)
        setups.append((t0, perf_counter()))
        rec = Recorder(between=cal.maybe_sample)
        t0 = perf_counter()
        tally.job(workload, P, state, rec)
        jobs.append((t0, perf_counter()))
        timings.append((rec.starts, rec.latencies))
        cal.sample()
        tally.check(checker, P, state, rec)
        del P, state, rec
    while len(setups) < MIN_SETUPS:
        free_program()
        t0 = perf_counter()
        set_up(workload, seed)
        setups.append((t0, perf_counter()))
        cal.sample()
    latencies = [
        cal.length(t0, t0 + t) * 1000 for starts, times in timings for t0, t in zip(starts, times)
    ] or [0.0, 0.0]  # every input raised
    metrics = {
        "wall_s": statistics.median(cal.length(*job) for job in jobs),
        "input_p50_ms": statistics.median(latencies),
        "input_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(cal.length(*setup) for setup in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    raw_wall = statistics.median(cal.length(*job, calibrated=False) for job in jobs)
    raw_p50 = statistics.median(tally.latencies or [0.0]) * 1000
    slowness = [sample[2] for sample in cal.samples]
    tally.notes.append(
        f"uncalibrated wall_s={raw_wall:.6g} input_p50_ms={raw_p50:.6g} "
        f"slowness samples={len(slowness)} median={statistics.median(slowness):.4g} "
        f"min={min(slowness):.4g} max={max(slowness):.4g}"
    )
    return tally, {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def measure_traced(workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Alternate untraced and traced jobs; layer times are medians over the
    traced jobs, and counts must repeat exactly from one traced job to the
    next."""
    tracer = Tracer()
    P = import_program()
    tracer.install(P)
    state = workload.prepare(P, seed)
    setup_lift = tracer.profile()["psi.lift_s"]
    tracer.uninstall()
    checker = Checker(workload)
    tally = Tally()
    plain_walls, traced_walls, profiles = [], [], []
    plain_records = None
    deadline = perf_counter() + seconds
    while len(profiles) < 2 or (not tally.problems and perf_counter() < deadline):
        traced = len(plain_walls) > len(traced_walls)
        rec = Recorder()
        if traced:
            tracer.install(P)
            tracer.reset()
        try:
            wall = tally.job(workload, P, state, rec)
        finally:
            if traced:
                profiles.append(tracer.profile())
                tracer.uninstall()
        (traced_walls if traced else plain_walls).append(wall)
        tally.check(checker, P, state, rec)
        if plain_records is None:
            plain_records = rec.records
        elif rec.records != plain_records:
            tally.problems.append("outputs differ between traced and untraced jobs")
    layer = {name: statistics.median(p[name] for p in profiles) for name in profiles[0]}
    for name in (*COUNT_METRICS, "langlab.distinct_ratio"):
        if any(p[name] != profiles[0][name] for p in profiles):
            tally.problems.append(f"{name} differs between traced jobs")
        layer[name] = profiles[0][name]
    layer["psi.lift_s"] += setup_lift
    layer["trace.wall_s"] = statistics.median(traced_walls)
    layer["trace_overhead_frac"] = layer["trace.wall_s"] / statistics.median(plain_walls)
    matrix = LAYER_MATRIX[workload.name]
    tally.problems += [f"{n} is 0, expected non-zero" for n in matrix["nonzero"] if not layer[n]]
    tally.problems += [f"{n} is {layer[n]}, expected 0" for n in matrix["zero"] if layer[n]]
    return tally, {name: (value, layer_unit(name)) for name, value in layer.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def self_test(names) -> int:
    """Run each workload's job once with outputs corrupted; the reference
    check must count failures."""
    status = 0
    for name in names:
        workload = WORKLOADS[name]
        P, state = set_up(workload, 1)
        tally, rec = Tally(), Recorder(corrupt=True)
        tally.job(workload, P, state, rec)
        tally.check(Checker(workload), P, state, rec)
        failed_frac = tally.failed / tally.attempted
        caught = failed_frac > 0
        print(f"{name}: wrong evaluator gives failed_frac {failed_frac:.3f} ({'caught' if caught else 'MISSED'})")
        status |= 0 if caught else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test([args.workload] if args.workload else sorted(WORKLOADS))
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        run = measure_traced if args.trace else measure
        tally, metrics = run(workload, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(
        f"# workload={workload.name} seed={args.seed} trace={args.trace} jobs={len(tally.walls)} "
        f"inputs={tally.attempted} failed_frac={tally.failed / tally.attempted:.6f} "
        f"nproc={os.cpu_count()} python={platform.python_version()}"
    )
    for note in tally.notes:
        print(f"# {note}")
    for problem in tally.problems:
        print(f"# problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
