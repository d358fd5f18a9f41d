"""Seeded randomized property sweeps.

One sweep instance is a random connected graph plus a random divisor; each
instance is pushed through the full battery of conformance identities:
Riemann-Roch residual, Clifford, class invariance of the rank, the
capacity lower bound, monotonicity, the loop-stripped comparison, the
loop-subdivision identity, the high-degree formula, the rank-zero reduced
characterization, fast-path/exhaustive agreement on both the value and the
witness, and (within budget) agreement with the brute-force oracles.

The rank every check compares against, and the dual rank of the
Riemann-Roch check, are exhaustive (``exhaustive=True``), so no check is
answered by the theorem it tests; the shifted, bumped, stripped and
subdivided divisors are ranked with the fast paths, which cross-checks
those against the definition.

Randomness comes from ``random.Random(seed)`` using integer draws only
(Mersenne Twister; stable across platforms and supported Python versions),
so a sweep report is byte-identical for a fixed seed.  Because the
exhaustive rank search is exponential, instances whose worst-case
enumeration would be too large are resampled; the resample count is part
of the report.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field

from .divisor import (
    Divisor,
    FiringScript,
    apply_script,
    lift_divisor,
    rank_for_degree,
    rank_lower_bound,
)
from .errors import DomainError
from .graph import Graph, _checked, hat_graph, strip_weights_and_loops, subdivide_loops
from .oracle import (
    BRUTE_RANK_MAX_DEGREE,
    BRUTE_RANK_MAX_VERTICES,
    BRUTE_REDUCED_MAX_VERTICES,
    brute_is_reduced,
    brute_rank,
)
from .rank import METHOD_EXHAUSTIVE, _level_count, rank
from .reduction import _reduce_indices, is_reduced, reduce_divisor
from .textio import render_divisor, render_graph

CHECK_NAMES = (
    "riemann-roch",
    "clifford",
    "class-invariance",
    "lower-bound",
    "monotonicity",
    "g0-comparison",
    "bullet-identity",
    "high-degree",
    "rank-zero-characterization",
    "fast-path-agreement",
    "oracle-rank",
    "oracle-reduced",
    "reduce-canonical",
)


@dataclass(frozen=True)
class SweepConfig:
    trials: int = 500
    max_vertices: int = 6
    max_edges: int = 12  # total multiplicity, loops included
    max_weight: int = 2
    max_value: int = 4  # |d(v)| bound
    seed: int = 0
    cost_cap: int = 6000  # resample instances whose estimated search is larger

    def __post_init__(self):
        lows = {"trials": 0, "max_vertices": 1, "max_edges": 0, "max_weight": 0, "max_value": 0}
        operator.index(self.cost_cap)  # a TypeError for a non-integer count, as in Graph
        for name, low in lows.items():
            value = operator.index(getattr(self, name))
            if value < low:
                raise DomainError(f"sweep needs {name} >= {low}, got {value}")
        if self.max_edges < self.max_vertices - 1:  # every instance has a spanning tree
            low = self.max_vertices - 1
            raise DomainError(f"sweep needs max_edges >= max_vertices - 1 = {low}, got {self.max_edges}")


@dataclass
class SweepReport:
    config: SweepConfig
    trials: int = 0
    resampled: int = 0
    checks: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def random_connected_graph(
    rng: random.Random, max_vertices: int, max_edges: int, max_weight: int
) -> Graph:
    """A uniform-ish connected multigraph: a random spanning tree plus a few
    extra edges and loops, with sparse random weights."""
    n = _checked(rng, "random_connected_graph", random.Random).randint(1, max_vertices)
    ids = [f"v{i}" for i in range(n)]
    edges: list[tuple[str, str]] = []
    for i in range(1, n):
        edges.append((ids[rng.randrange(i)], ids[i]))
    slack = max_edges - (n - 1)
    extra = rng.randint(0, min(slack, n + 1)) if slack > 0 else 0
    for _ in range(extra):
        i = rng.randrange(n)
        if n > 1 and rng.randrange(6):
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            edges.append((ids[i], ids[j]))
        else:
            edges.append((ids[i], ids[i]))
    vertices = []
    for vid in ids:
        weight = rng.randint(1, max_weight) if max_weight > 0 and rng.randrange(3) == 0 else 0
        vertices.append((vid, weight))
    return Graph(vertices, edges)


def random_divisor(rng: random.Random, graph: Graph, max_value: int) -> Divisor:
    _checked(rng, "random_divisor", random.Random)
    n = _checked(graph, "random_divisor", Graph).vertex_count
    return Divisor(graph, [rng.randint(-max_value, max_value) for _ in range(n)])


def _search_cost(hat_vertices: int, degree: int, genus: int) -> int:
    """Upper bound on the number of enumeration candidates an exhaustive
    rank evaluation may visit, via the degree-to-max-rank map."""
    if degree < 0:
        return 1
    if hat_vertices == 1:
        return degree + 2
    top_level = rank_for_degree(degree, genus) + 1
    return _level_count(top_level, hat_vertices)


def _instance_cost(graph: Graph, divisor: Divisor) -> int:
    genus = graph.genus()
    hat_n = graph.vertex_count + genus - graph._loopless_genus  # plus the local genera
    degree = divisor.degree
    canonical_degree = 2 * genus - 2 - degree
    cost = 4 * _search_cost(hat_n, degree, genus)  # d, shift, bullet, fast-path re-run
    cost += _search_cost(hat_n, canonical_degree, genus)
    cost += _search_cost(hat_n, degree + 2, genus)  # monotone bump
    cost += _search_cost(graph.vertex_count, degree, graph._loopless_genus)  # the stripped graph
    return cost


class _Sweep:
    def __init__(self, config: SweepConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.report = SweepReport(
            config=config, checks={name: 0 for name in CHECK_NAMES}
        )

    def _draw_instance(self) -> tuple[Graph, Divisor]:
        cfg = self.config
        for _ in range(1000):
            graph = random_connected_graph(
                self.rng, cfg.max_vertices, cfg.max_edges, cfg.max_weight
            )
            divisor = random_divisor(self.rng, graph, cfg.max_value)
            if _instance_cost(graph, divisor) <= cfg.cost_cap:
                return graph, divisor
            self.report.resampled += 1
        raise DomainError(f"none of 1000 drawn instances fits cost_cap={cfg.cost_cap}")

    # -- the battery -----------------------------------------------------

    def _run_instance(self, trial: int, graph: Graph, divisor: Divisor) -> None:
        rng = self.rng
        report = self.report
        n = graph.vertex_count
        ids = graph.vertex_ids
        genus = graph.genus()
        degree = divisor.degree

        def check(name: str, *details: str | None) -> None:
            """Count one run of ``name`` and record a failure line for each
            detail that is not None (a detail is built only on failure)."""
            report.checks[name] += 1
            for detail in details:
                if detail is not None:
                    loc = render_graph(graph).replace("\n", "; ").strip("; ")
                    report.failures.append(
                        f"trial {trial}: {name}: {detail} [graph: {loc}] "
                        f"[divisor: {render_divisor(divisor) or '0'}]"
                    )

        # exhaustive, so that no check below is answered by the theorem it tests
        result = rank(divisor)
        exact = result if result.method == METHOD_EXHAUSTIVE else rank(divisor, exhaustive=True)
        value = exact.rank

        dual = rank(graph.canonical_divisor() - divisor, exhaustive=True).rank
        check(
            "riemann-roch",
            f"rank {value}, dual rank {dual}, degree {degree}, genus {genus}"
            if value - dual != degree - genus + 1 else None,
        )
        check(
            "clifford",
            f"rank {value} > {degree // 2}"
            if 0 <= degree <= 2 * genus - 2 and value >= 0 and value > degree // 2 else None,
        )

        script = FiringScript(graph, [rng.randint(0, 2) for _ in ids])
        shifted = divisor + apply_script(script)
        check(
            "class-invariance",
            "rank changed under a principal shift" if rank(shifted).rank != value else None,
        )

        bound = rank_lower_bound(divisor)
        check("lower-bound", f"rank {value} below capacity bound {bound}" if value < bound else None)

        bump_values = [0] * n
        bump_values[rng.randrange(n)] += 1
        bump_values[rng.randrange(n)] += 1
        bumped = divisor + Divisor(graph, bump_values)
        check("monotonicity", "rank dropped after adding chips" if rank(bumped).rank < value else None)

        stripped = strip_weights_and_loops(graph)
        # a weightless loopless graph is its own stripped graph, ranked above
        stripped_value = (
            result.rank if stripped is graph else rank(Divisor(stripped, divisor.values)).rank
        )
        check(
            "g0-comparison",
            f"stripped rank {stripped_value} vs rank {value}"
            if stripped_value < value or (stripped_value == -1) != (value == -1) else None,
        )

        subdivided, _ = subdivide_loops(graph)
        check(
            "bullet-identity",
            "rank changed under loop subdivision"
            if subdivided is not graph and rank(Divisor(subdivided, divisor.as_dict())).rank != value
            else None,
        )

        check(
            "high-degree",
            f"rank {value} outside [-1, max(-1, {degree})]"
            if not -1 <= value <= max(-1, degree) else None,
            f"negative degree {degree} but rank {value}" if degree < 0 and value != -1 else None,
            f"degree {degree} >= 2g-1 but rank {value} != {degree - genus}"
            if degree >= 2 * genus - 1 and value != degree - genus else None,
        )

        lifted = lift_divisor(hat_graph(graph), divisor)
        hat = lifted.graph
        zero_base = any(
            _reduce_indices(hat, list(lifted.values), u)[0][u] == 0 for u in range(hat.vertex_count)
        )
        check(
            "rank-zero-characterization",
            f"rank {value} but zero-at-base reduced representative exists: {zero_base}"
            if (value == 0) != zero_base else None,
        )

        if result is not exact:
            check(
                "fast-path-agreement",
                f"{result.method} gave {result.rank} with witness "
                f"{render_divisor(result.witness) or '0'}, exhaustive gave {value} "
                f"with witness {render_divisor(exact.witness) or '0'}"
                if (result.rank, result.witness) != (value, exact.witness) else None,
            )

        if stripped is graph and n <= BRUTE_RANK_MAX_VERTICES and degree <= BRUTE_RANK_MAX_DEGREE:
            check("oracle-rank", "brute-force rank disagrees" if brute_rank(divisor) != value else None)

        base = ids[rng.randrange(n)]
        if n <= BRUTE_REDUCED_MAX_VERTICES:
            check(
                "oracle-reduced",
                f"reducedness at {base} disagrees"
                if brute_is_reduced(divisor, base) != is_reduced(divisor, base) else None,
            )

        reduced, carrier = reduce_divisor(divisor, base)
        again, zero_script = reduce_divisor(reduced, base)
        stable = reduce_divisor(shifted, base)[0]
        check(
            "reduce-canonical",
            f"reduction at {base} misbehaved"
            if again != reduced
            or any(zero_script.levels)
            or not is_reduced(reduced, base)
            or divisor + apply_script(carrier) != reduced
            or stable != reduced
            else None,
        )

    def run(self) -> SweepReport:
        for trial in range(self.config.trials):
            graph, divisor = self._draw_instance()
            self._run_instance(trial, graph, divisor)
            self.report.trials += 1
        return self.report


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run the full property battery over seeded random instances."""
    return _Sweep(_checked(config, "run_sweep", SweepConfig)).run()
