"""Workload ``sweep``: the conformance battery on the criterion-7 configuration.

One op is ``chipfire.run_sweep`` of one trial (6 vertices, 12 edges, weight
2, value 4, the default cost cap) at one sweep seed.  Each trial makes five
to seven overlapping ``rank`` calls, most of whose time goes to degrees
above 2g - 2, and its oracle calls reuse the cached Laplacian inverse.

A trial's cost spans three orders of magnitude and is set by the instance
the sweep draws, so plain random sweep seeds give runs whose totals differ
by more than the regressions worth catching.  The benchmark therefore
predicts, for each candidate seed, the instance the sweep will draw first,
with its own copy of the draw, and takes a stratified sample of seeds over
(degree regime, estimated search size).  The prediction is checked after
every run against the resample count the sweep reports; if the program's
draw ever changes, the run warns and the sample is merely unstratified.
"""

from __future__ import annotations

import random

from common import stratified, top_level_cost

NAME = "sweep"

CONFIG = {"max_vertices": 6, "max_edges": 12, "max_weight": 2, "max_value": 4, "cost_cap": 6000}
ALWAYS_RUN = (
    "riemann-roch",
    "clifford",
    "class-invariance",
    "lower-bound",
    "monotonicity",
    "g0-comparison",
    "bullet-identity",
    "high-degree",
    "rank-zero-characterization",
    "reduce-canonical",
)
OPS_PER_SECOND = 39  # sizes a run to about --seconds on a 2-core x86 VM
POOL_FACTOR = 40


def predict_first_instance(seed: int) -> dict:
    """The first instance ``run_sweep`` draws for this seed under CONFIG:
    the same integer draws from ``random.Random(seed)`` in the same order,
    with the same cost guard and resampling."""
    rng = random.Random(seed)
    cap = CONFIG["cost_cap"]
    for resampled in range(1000):
        n = rng.randint(1, CONFIG["max_vertices"])
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        slack = CONFIG["max_edges"] - (n - 1)
        extra = rng.randint(0, min(slack, n + 1)) if slack > 0 else 0
        for _ in range(extra):
            i = rng.randrange(n)
            if n > 1 and rng.randrange(6):
                j = rng.randrange(n - 1)
                edges.append((i, j + 1 if j >= i else j))
            else:
                edges.append((i, i))
        weights = [
            rng.randint(1, CONFIG["max_weight"]) if rng.randrange(3) == 0 else 0 for _ in range(n)
        ]
        values = [rng.randint(-CONFIG["max_value"], CONFIG["max_value"]) for _ in range(n)]
        loops = sum(1 for a, b in edges if a == b)
        genus = sum(weights) + len(edges) - n + 1
        hat_n = n + sum(weights) + loops
        degree = sum(values)
        stripped_genus = len(edges) - loops - n + 1
        cost = 4 * top_level_cost(hat_n, degree, genus)
        cost += top_level_cost(hat_n, 2 * genus - 2 - degree, genus)
        cost += top_level_cost(hat_n, degree + 2, genus)
        cost += top_level_cost(n, degree, stripped_genus)
        if cost <= cap:
            regime = 0 if degree < 0 else (2 if degree > 2 * genus - 2 else 1)
            return {
                "resampled": resampled,
                "regime": regime,
                "cost": cost,
                "genus": genus,
                "degree": degree,
                "vertices": n,
            }
    raise RuntimeError(f"no affordable instance for sweep seed {seed}")


def generate(seed: int, seconds: int, smoke: bool) -> list[dict]:
    rng = random.Random(f"{NAME}:{seed}")
    count = 6 if smoke else max(100, round(seconds * OPS_PER_SECOND))
    pool = []
    for _ in range(POOL_FACTOR * count):
        sweep_seed = rng.randrange(1 << 31)
        pool.append({"seed": sweep_seed, **predict_first_instance(sweep_seed)})
    specs = stratified(pool, count, key=lambda s: (s["regime"], s["cost"]))
    rng.shuffle(specs)
    return specs


def build(cf, specs: list[dict]) -> list:
    return [cf.SweepConfig(trials=1, seed=spec["seed"], **CONFIG) for spec in specs]


def run(cf, config):
    return cf.run_sweep(config)


def check(cf, spec: dict, config, report) -> str | None:
    """No failures, the requested trial count, and every always-run check
    counted once per trial."""
    if report.failures:
        return f"sweep seed {spec['seed']} failed: {report.failures[0]}"
    if report.trials != config.trials:
        return f"sweep ran {report.trials} trials, asked for {config.trials}"
    for name in ALWAYS_RUN:
        if report.checks.get(name) != config.trials:
            return f"check {name!r} ran {report.checks.get(name)} times in {config.trials} trials"
    return None


def drifted(spec: dict, report) -> bool:
    """True when the sweep resampled its first instance a different number of
    times than predicted: its draw has changed and the sample of seeds is
    no longer stratified (still valid, only less steady)."""
    return report.resampled != spec["resampled"]


def describe(specs: list[dict]) -> dict:
    regimes = [sum(1 for s in specs if s["regime"] == r) for r in range(3)]
    return {
        "ops": len(specs),
        "trials": len(specs),
        "degree_below_0": regimes[0] / len(specs),
        "degree_0_to_2g-2": regimes[1] / len(specs),
        "degree_above_2g-2": regimes[2] / len(specs),
        "estimated_cost_median": sorted(s["cost"] for s in specs)[len(specs) // 2],
        "estimated_cost_max": max(s["cost"] for s in specs),
    }
