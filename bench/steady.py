"""Steadiness of the benchmark: run each workload several times and compare.

    python3 bench/steady.py --runs 10                # end-to-end spreads
    python3 bench/steady.py --runs 0 --trace         # per-layer figures, twice
    python3 bench/steady.py --runs 10 --trace --describe   # all README figures

For every workload, ``--runs`` untraced runs with seeds ``--first-seed``,
``--first-seed + 1``, ... each in its own process.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median, against the metric's bound in
BENCHMARK.json, and it checks that every run fails the same share of its
ops.  ``--trace`` runs each workload traced twice with the first seed,
prints the per-layer metrics and the tracing overhead, and checks that
every count (calls, candidates, chips, trials, methods, spans) repeats
exactly.  ``--describe`` prints the make-up of each workload's op list.
Exits 1 when a spread exceeds its bound, a share or a count differs, or a
run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = {"count", "calls/trial"}


def run(workload: str, seed: int, seconds: int, *flags: str) -> str:
    """Standard output of one run.py process."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), *flags]
    return subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout


def result(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return json.loads(run(workload, seed, seconds, "--trace", str(trace)).strip().splitlines()[-1])


def spreads(results: list[dict], bounds: dict) -> bool:
    ok = True
    print(f"  {'metric':12s} {'unit':4s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        within = spread <= bound
        ok &= within
        print(f"  {name:12s} {unit:4s} {median:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {bound:6.2f}"
              f"{'' if within else '  OVER BOUND'}   runs: {' '.join(f'{v:.4g}' for v in values)}")
    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"  failed/attempted: {sorted(shares)}")
    ok &= len({f / a for f, a in shares}) == 1
    ok &= all(r["correct"] for r in results)
    return ok


def traced_twice(workload: str, seed: int, seconds: int) -> bool:
    first, second = (result(workload, seed, seconds, 1) for _ in range(2))
    differing = [
        name for name, m in first["metrics"].items()
        if m["unit"] in COUNT_UNITS and m["value"] != second["metrics"][name]["value"]
    ]
    for name, m in first["metrics"].items():
        again = second["metrics"][name]["value"]
        flag = "  DIFFERS" if name in differing else ""
        print(f"  {name:32s} {m['value']:12.6g} {again:12.6g} {m['unit']}{flag}")
    return not differing and first["correct"] and second["correct"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload} (--seconds {seconds})", flush=True)
        if args.describe:
            print(run(workload, args.first_seed, seconds, "--describe").rstrip())
        if args.runs >= 4:
            results = [result(workload, args.first_seed + i, seconds, 0) for i in range(args.runs)]
            ok &= spreads(results, bounds)
        if args.trace:
            print(f"  traced twice, seed {args.first_seed}: first, second", flush=True)
            ok &= traced_twice(workload, args.first_seed, seconds)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
