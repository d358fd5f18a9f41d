"""Workload ``rank-clifford``: library ``rank()`` calls in the Clifford range.

Every op is one ``chipfire.rank(D)`` on a seeded random connected graph
with ``0 <= deg D <= 2g - 2``.  No Riemann-Roch degree shortcut applies to
D or to K - D there, so the exhaustive search, with its many small
reductions and burns, does the work.

Three kinds of graph, with fixed shares of every run:

* ``oracle``: weightless, loopless, at most 6 vertices and degree small
  enough for ``brute_rank``, which shares no code with the engine;
* ``weighted``: vertex weights and loops, so the hat graph is larger than
  the graph;
* ``plain``: weightless, loopless, 7 to 10 vertices.

The estimated search size of D and of K - D (the top-level candidate count,
as the sweep's own cost guard estimates it) is capped: with a cap of
20,000 the slowest of 200 weighted instances took 1.25 s against a median
of 0.33 ms, and a run's total would hang on a handful of ops.  Within each
kind the ops are a stratified sample over that estimate, so every seed
draws the same mix of cheap and costly searches.
"""

from __future__ import annotations

import math
import random

from common import stratified, top_level_cost

NAME = "rank-clifford"

COST_CAP = 1500  # estimated candidates of D plus those of K - D
BRUTE_CAP = 4000  # estimated brute_rank work for oracle ops
SHARES = (("oracle", 10), ("weighted", 45), ("plain", 45))  # percent of the ops
OPS_PER_SECOND = 750  # sizes a run to about --seconds on a 2-core x86 VM
POOL_FACTOR = 2


def _draw(rng: random.Random, kind: str) -> dict:
    while True:
        if kind == "oracle":
            n, weighted = rng.randint(3, 6), False
        elif kind == "weighted":
            n, weighted = rng.randint(2, 6), True
        else:
            n, weighted = rng.randint(7, 10), False
        edges = [(rng.randrange(i), i, 1) for i in range(1, n)]
        for _ in range(rng.randint(1, n)):
            a, b = rng.sample(range(n), 2)
            edges.append((a, b, 1))
        weights = [0] * n
        if weighted:
            for _ in range(rng.randint(0, 2)):
                v = rng.randrange(n)
                edges.append((v, v, 1))
            for _ in range(rng.randint(0, 2)):
                weights[rng.randrange(n)] += rng.randint(1, 2)
            if not any(weights) and all(a != b for a, b, _ in edges):
                weights[rng.randrange(n)] = 1
        genus = sum(weights) + len(edges) - n + 1
        if genus < 2:
            continue
        hat_n = n + sum(weights) + sum(1 for a, b, _ in edges if a == b)
        degree = rng.randint(0, 2 * genus - 2)
        values = [0] * n
        for _ in range(degree):
            values[rng.randrange(n)] += 1
        for _ in range(rng.randint(0, 2)):  # moves that may leave D non-effective
            a, b = rng.sample(range(n), 2)
            values[a] -= 1
            values[b] += 1
        cost = top_level_cost(hat_n, degree, genus) + top_level_cost(
            hat_n, 2 * genus - 2 - degree, genus
        )
        if cost > COST_CAP:
            continue
        if kind == "oracle" and (
            degree > 8 or math.comb(degree + n - 1, n - 1) * (degree + 2) > BRUTE_CAP
        ):
            continue
        return {
            "kind": kind,
            "weights": weights,
            "edges": edges,
            "values": values,
            "genus": genus,
            "hat_n": hat_n,
            "degree": degree,
            "cost": cost,
        }


def generate(seed: int, seconds: int, smoke: bool) -> list[dict]:
    rng = random.Random(f"{NAME}:{seed}")
    total = 30 if smoke else 100 * max(1, round(seconds * OPS_PER_SECOND / 100))
    specs = []
    for kind, share in SHARES:
        count = total * share // 100
        pool = [_draw(rng, kind) for _ in range(POOL_FACTOR * count)]
        specs.extend(stratified(pool, count, key=lambda s: s["cost"]))
    rng.shuffle(specs)
    return specs


def build(cf, specs: list[dict]) -> list:
    out = []
    for spec in specs:
        ids = [f"v{i}" for i in range(len(spec["weights"]))]
        graph = cf.Graph(
            list(zip(ids, spec["weights"])),
            [(ids[a], ids[b], m) for a, b, m in spec["edges"]],
        )
        out.append(cf.Divisor(graph, spec["values"]))
    return out


def run(cf, divisor):
    return cf.rank(divisor)


def check(cf, spec: dict, divisor, result) -> str | None:
    """Clifford and the capacity bound, a well-formed witness on the hat
    graph, Riemann-Roch against an exhaustive K - D, and brute force where
    the oracle admits the input."""
    r = result.rank
    degree, genus = spec["degree"], spec["genus"]
    if divisor.degree != degree or divisor.graph.genus() != genus:
        return "input was not built as generated"
    if not cf.rank_lower_bound(divisor) <= r <= degree // 2:
        return f"rank {r} outside [lower bound, deg/2 = {degree // 2}]"
    witness = result.witness
    hat = cf.hat_graph(divisor.graph).target
    if witness is None or witness.graph != hat:
        return "witness missing or not on the hat graph"
    if not witness.is_effective or witness.degree != r + 1:
        return f"witness {witness!r} is not effective of degree {r + 1}"
    canonical = divisor.graph.canonical_divisor()
    dual = cf.rank(canonical - divisor, exhaustive=True).rank
    if r - dual != degree - genus + 1:
        return f"Riemann-Roch: r(D) = {r}, r(K-D) = {dual}, deg = {degree}, g = {genus}"
    if spec["kind"] == "oracle" and cf.brute_rank(divisor) != r:
        return f"brute_rank disagrees with rank {r}"
    return None


def describe(specs: list[dict]) -> dict:
    """Make-up of an op list, for the README."""
    kinds = {kind: sum(1 for s in specs if s["kind"] == kind) for kind, _ in SHARES}
    return {
        "ops": len(specs),
        "kinds": kinds,
        "weighted_or_looped_share": kinds["weighted"] / len(specs),
        "oracle_share": kinds["oracle"] / len(specs),
        "hat_vertices": [min(s["hat_n"] for s in specs), max(s["hat_n"] for s in specs)],
        "genus": [min(s["genus"] for s in specs), max(s["genus"] for s in specs)],
    }
