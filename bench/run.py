"""Run one benchmark workload against the ``chipfire`` sources of this checkout.

    python3 bench/run.py --workload rank-clifford --seed 1 --seconds 20 --trace 0

Workloads: ``rank-clifford``, ``sweep`` and ``cli-large`` (see the
``wl_*.py`` modules and README.md).  The op list is generated from the seed
and sized from ``--seconds`` before the program is imported; every run
executes the whole list, one op after another, in this single thread, and
checks each output right after its op, outside the op's timing, with code
independent of the program.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s``, ``op_p50_ms``,
``op_p90_ms``, ``setup_s`` and ``peak_rss_mb``.  The op list runs in
SETUPS equal segments, each on a fresh import of the program and a fresh
build of the inputs, so that the set-ups are spread over the whole run;
``setup_s`` is their median.  Every time in these metrics is paced: scaled
to a machine on which the benchmark's reference loop takes
REFERENCE_SECONDS (see ``Pace``), because the shared host this benchmark
was calibrated on runs the same Python code up to 1.7 times slower from
one second to the next.  The raw wall-clock figures go to standard error.
``--trace 1`` runs the same
ops with spans around the calls between modules, writes the spans to
``bench/out/spans-<workload>.bin`` and reports the per-layer metrics, with
``trace.overhead_pct`` measured on every fourth op, run both ways side by
side.  ``--smoke`` runs a tiny op list with every check.  ``--describe``
prints the make-up of the op list and runs nothing.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracer
import wl_cli_large
import wl_rank_clifford
import wl_sweep
from common import percentile

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = {wl.NAME: wl for wl in (wl_rank_clifford, wl_sweep, wl_cli_large)}
# An untraced run cuts its op list into SETUPS segments and sets up afresh
# before each, repeating a set-up until that segment's set-ups took
# SETUP_SECONDS, at most SETUP_REPEATS times; setup_s is the median of all.
SETUPS = 10
SETUP_SECONDS = 0.25
SETUP_REPEATS = 8
SETUP_SLICE = 1000  # specs built between two reference samples of a set-up
TRACE_SAMPLE = 4  # in a traced run every 4th op also runs untraced
REFERENCE_SECONDS = 0.8e-3  # the reference loop on a 2-core x86 VM
PACE_INTERVAL = 0.01  # seconds of timed work between two reference samples
PACE_WINDOW = 0.1  # seconds on each side of a timing whose samples pace it


class SetupError(Exception):
    pass


def import_program():
    """Import ``chipfire`` afresh from this checkout's sources."""
    for name in [m for m in sys.modules if m == "chipfire" or m.startswith("chipfire.")]:
        del sys.modules[name]
    try:
        cf = importlib.import_module("chipfire")
        importlib.import_module("chipfire.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import chipfire from {SRC}: {exc}") from exc
    if Path(cf.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported chipfire from {cf.__file__}, not from {SRC}")
    return cf


def set_up(workload, specs, pace=None):
    """Import the program afresh and build its input objects: (cf, objects,
    pieces), where pieces are the (start, seconds) of the import and of each
    slice of the build.  With ``pace`` the reference loop is sampled between
    slices, outside their timing, so that a long build is paced by the
    machine's speed along it.  The caller drops its previous build first,
    so that only one is alive at a time."""
    gc.unfreeze()
    gc.collect()  # every set-up starts from the same collector state
    start = time.perf_counter()
    cf = import_program()
    pieces = [(start, time.perf_counter() - start)]
    objects = []
    for first in range(0, len(specs), SETUP_SLICE):
        if pace is not None:
            pace.sample()
        start = time.perf_counter()
        objects += workload.build(cf, specs[first:first + SETUP_SLICE])
        pieces.append((start, time.perf_counter() - start))
    gc.collect()
    gc.freeze()  # the op list lives to the segment's end; keep it out of the collector's scans
    return cf, objects, pieces


def reference_loop() -> Fraction:
    """A fixed piece of interpreter work that uses nothing of the program:
    small-integer arithmetic, then exact fractions."""
    total = 0
    for i in range(7_000):
        total += i * i % 7
    harmonic = Fraction(total % 2)
    for i in range(1, 60):
        harmonic += Fraction(1, i)
    return harmonic


class Pace:
    """The machine's speed through the run, sampled by timing the reference
    loop after every PACE_INTERVAL seconds of timed work.  A timing is paced
    by REFERENCE_SECONDS over the median reference time sampled within
    PACE_WINDOW of it (and at least the samples just before and after it),
    so it reads what the same work takes on a machine of fixed speed.

    The reference loop was chosen by measurement on the 2-vCPU guest the
    benchmark was calibrated on: the same chunk of ops, about 0.1 s of
    ``rank-clifford`` or ``cli-large`` work, timed over and over for a
    minute, spread with a standard deviation of 0.22 in the logarithm of
    its time; paced by this loop, 0.07-0.09.  Pacing by small-integer
    arithmetic alone left 0.09-0.10, and by allocation or by random memory
    reads, more."""

    def __init__(self):
        self.when: list[float] = []
        self.took: list[float] = []
        self.unpaced = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self.took.append(time.perf_counter() - start)
        self.when.append(start)
        self.unpaced = 0.0

    def after(self, seconds: float) -> None:
        """Called after each timing, outside it."""
        self.unpaced += seconds
        if self.unpaced >= PACE_INTERVAL:
            self.sample()

    def paced(self, start: float, seconds: float) -> float:
        lo = max(0, bisect.bisect_left(self.when, start - PACE_WINDOW) - 1)
        hi = bisect.bisect_right(self.when, start + seconds + PACE_WINDOW) + 1
        return seconds * REFERENCE_SECONDS / statistics.median(self.took[lo:hi])


def resident_mb() -> float:
    """Resident memory of this process now (Linux)."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2**20


def timed(workload, cf, obj):
    """One op: (start, seconds, result), or (start, seconds, exception) when
    it fails."""
    start = time.perf_counter()
    try:
        result = workload.run(cf, obj)
    except Exception as exc:  # a failing op is counted, and the run goes on
        return start, time.perf_counter() - start, exc
    return start, time.perf_counter() - start, result


@dataclass
class Tally:
    starts: list = field(default_factory=list)  # every op, failed ones too
    seconds: list = field(default_factory=list)
    ok: list = field(default_factory=list)  # indices of the ops that did not fail
    failed: int = 0
    wrong: int = 0
    drifted: int = 0
    plain: float = 0.0  # the sampled ops, untraced
    with_spans: float = 0.0  # the same ops, traced


def run_ops(workload, cf, specs, objects, ops: range, tally: Tally, pace=None, spans=None) -> None:
    """Run the ops numbered ``ops`` once each, and check each output right
    after its op, outside its timing; problems are reported on standard
    error.  With ``pace`` the reference loop is sampled between ops.

    With ``spans`` every op runs traced, and every TRACE_SAMPLE-th op also
    runs untraced right beside it, alternately before and after, so that
    the overhead compares the same work at the same moment."""
    expected = getattr(workload, "expected_failure", lambda spec: False)
    for i in ops:
        spec, obj = specs[i], objects[i]
        if spans is None:
            start, seconds, result = timed(workload, cf, obj)
        else:
            sampled = i % TRACE_SAMPLE == 0
            untraced_first = i % (2 * TRACE_SAMPLE) == 0
            if sampled and untraced_first:
                tally.plain += timed(workload, cf, obj)[1]
            with spans:
                start, seconds, result = timed(workload, cf, obj)
            if sampled and not untraced_first:
                tally.plain += timed(workload, cf, obj)[1]
            if sampled:
                tally.with_spans += seconds
        if pace is not None:
            pace.after(seconds)
        tally.starts.append(start)
        tally.seconds.append(seconds)
        if isinstance(result, Exception):
            tally.failed += 1
            if not expected(spec):
                print(f"op {i} failed: {type(result).__name__}: {result}  {spec}", file=sys.stderr)
            continue
        tally.ok.append(len(tally.seconds) - 1)
        problem = workload.check(cf, spec, obj, result)
        if problem is not None:
            tally.wrong += 1
            if tally.wrong <= 5:
                print(f"op {i} wrong: {problem}", file=sys.stderr)
        if hasattr(workload, "drifted") and workload.drifted(spec, result):
            tally.drifted += 1


def report_problems(tally: Tally) -> None:
    if tally.wrong:
        print(f"{tally.wrong} of {len(tally.ok)} checked ops were wrong", file=sys.stderr)
    if tally.drifted:
        print(f"warning: {tally.drifted} ops drew other instances than the benchmark predicted; "
              "the sample is no longer stratified", file=sys.stderr)


def timings(seconds: list, ok: list, setups: list) -> dict:
    ok_seconds = [seconds[i] for i in ok]
    return {
        "ops_per_s": (len(ok) / sum(seconds), "1/s"),
        "op_p50_ms": (percentile(ok_seconds, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(ok_seconds, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def end_to_end(tally: Tally, setups: list, pace: Pace, baseline_mb: float) -> dict:
    """The paced end-to-end metrics; the wall-clock ones go to standard error."""
    wall = timings(tally.seconds, tally.ok, [sum(s for _, s in pieces) for pieces in setups])
    print("wall clock: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in wall.items()), file=sys.stderr)
    metrics = timings(
        [pace.paced(start, s) for start, s in zip(tally.starts, tally.seconds)],
        tally.ok,
        [sum(pace.paced(start, s) for start, s in pieces) for pieces in setups],
    )
    # the process's peak above what it held before the program was first
    # imported, so the benchmark's own inputs and interpreter are left out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - baseline_mb
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def per_layer(tally: Tally, spans: tracer.Tracer, workload_name: str) -> dict:
    spans.write(OUT / f"spans-{workload_name}.bin")
    for name in spans.missing:
        print(f"missing hook: {name}", file=sys.stderr)
    metrics = {
        name: (value, tracer.unit(name))
        for name, value in tracer.layer_metrics(spans.per_name()).items()
    }
    metrics["trace.overhead_pct"] = (100 * (tally.with_spans / tally.plain - 1), "%")
    metrics["trace.missing_hooks"] = (len(spans.missing), "count")
    metrics["trace.spans"] = (len(spans.start), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op list, every check")
    parser.add_argument("--describe", action="store_true", help="print the op list's make-up only")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]

    specs = workload.generate(args.seed, args.seconds, args.smoke)
    if args.describe:
        print(json.dumps(workload.describe(specs), indent=1))
        return 0

    sys.path.insert(0, str(SRC))
    gc.collect()
    baseline_mb = resident_mb()
    # a traced run sets up once; its hooks stay on the modules of that import
    segments = 1 if args.trace else min(SETUPS, len(specs))
    cuts = [len(specs) * k // segments for k in range(segments + 1)]
    tally, setups = Tally(), []
    pace = None if args.trace else Pace()
    for first, stop in zip(cuts, cuts[1:]):
        spent = 0.0
        for _ in range(1 if args.trace else SETUP_REPEATS):
            cf = objects = None  # release the previous build before the next
            if pace is not None:
                pace.sample()
            try:
                cf, objects, pieces = set_up(workload, specs, pace)
            except SetupError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if pace is not None:
                pace.sample()
            setups.append(pieces)
            spent += sum(s for _, s in pieces)
            if spent >= SETUP_SECONDS:
                break
        spans = tracer.Tracer() if args.trace else None
        run_ops(workload, cf, specs, objects, range(first, stop), tally, pace, spans)
    report_problems(tally)
    if spans is None:
        metrics = end_to_end(tally, setups, pace, baseline_mb)
    else:
        metrics = per_layer(tally, spans, args.workload)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": len(tally.seconds),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
