"""Deliberately naive brute-force oracles and pinned fixtures.

Everything here validates the main engine and therefore shares no code
with :mod:`chipfire.reduction` or :mod:`chipfire.rank`: rank is evaluated
straight from its definition with equivalence decided by the oracle's
own exact Laplacian solve, and reducedness by enumerating every subset.
Budgets are hard-coded and exceeding them is an error, never silent
truncation.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .divisor import Divisor, _graph_of, _plain_graph_of, fire_set, iter_effective_values
from .errors import BudgetError, DomainError, FixtureError, InternalError, quoted
from .graph import Graph, _checked

BRUTE_RANK_MAX_VERTICES = 6
BRUTE_RANK_MAX_DEGREE = 8
BRUTE_REDUCED_MAX_VERTICES = 12


def _solve_reduced(graph: Graph, rhs: Sequence[int]) -> tuple[list[int], int]:
    """Solve the Laplacian system with the last vertex's row and column
    deleted, exactly and without fractions: returns ``(nums, det)`` with
    ``nums[i] / det`` the solution and ``det`` the number of spanning trees.
    ``rhs`` is indexed by vertex; its last entry is never read.

    Fraction-free (Bareiss) elimination on the negated reduced Laplacian,
    which is positive definite on a connected graph, so no pivot is ever
    zero: each step divides exactly by the previous pivot, the last pivot
    is the determinant, and back-substitution stays in the integers because
    ``det`` times the solution is integral (Cramer's rule).
    """
    m = graph.vertex_count - 1
    lap = graph.laplacian()
    rows = [[-x for x in lap[i][:m]] + [-rhs[i]] for i in range(m)]
    prev = 1
    for k in range(m):
        top = rows[k]
        pivot = top[k]
        if pivot == 0:
            raise InternalError("reduced Laplacian is singular on a connected graph")
        for i in range(k + 1, m):
            row = rows[i]
            f = row[k]
            row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    det = prev
    nums = [0] * m
    for i in range(m - 1, -1, -1):
        row = rows[i]
        acc = det * row[m] - sum(row[j] * nums[j] for j in range(i + 1, m))
        nums[i] = acc // row[i]
    return nums, det


def _class_signature(graph: Graph, values: list[int]):
    """Residues of the fraction-free reduced-Laplacian solve modulo its
    determinant; two divisors of equal degree are linearly equivalent
    exactly when their signatures agree."""
    nums, det = _solve_reduced(graph, values)
    return tuple(x % det for x in nums)


def _class_signatures(graph: Graph):
    """``_class_signature`` on one graph with one solve per vertex but the
    last: ``nums`` is ``det`` times the solution, so it is linear in the
    right-hand side and the signature of any values is the same integer
    combination of the unit vectors' solutions, taken modulo ``det``."""
    m = graph.vertex_count - 1
    det, columns = 1, []
    for i in range(m):
        nums, det = _solve_reduced(graph, [int(i == j) for j in range(m)])
        columns.append(nums)
    rows = list(zip(*columns))  # rows[k][i]: entry k of unit vector i's solution

    def signature(values: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(map(operator.mul, row, values)) % det for row in rows)

    return signature


def brute_rank(divisor: Divisor) -> int:
    """Rank straight from the definition, with no reduced divisors anywhere.

    For each k, every effective divisor e of degree k is subtracted and
    equivalence to an effective divisor is decided by comparing against all
    effective divisors of the remaining degree through the exact Laplacian
    solver.  Exponential on purpose; budget-limited to 6 vertices and
    degree 8.
    """
    graph = _plain_graph_of(divisor, "brute_rank")
    n = graph.vertex_count
    if n > BRUTE_RANK_MAX_VERTICES:
        raise BudgetError(
            f"brute_rank is limited to {BRUTE_RANK_MAX_VERTICES} vertices, got {n}"
        )
    degree = divisor.degree
    if degree > BRUTE_RANK_MAX_DEGREE:
        raise BudgetError(
            f"brute_rank is limited to degree {BRUTE_RANK_MAX_DEGREE}, got {degree}"
        )
    dvals = divisor.values
    signature = _class_signatures(graph)
    k = 0
    while True:
        remaining = degree - k
        if remaining < 0:
            return k - 1
        effective_signatures = set(map(signature, iter_effective_values(remaining, n)))
        for e in iter_effective_values(k, n):
            if signature([a - b for a, b in zip(dvals, e)]) not in effective_signatures:
                return k - 1
        k += 1


def brute_is_reduced(divisor: Divisor, base: str) -> bool:
    """Literal reducedness test: effective off the base, and every nonempty
    vertex set avoiding the base contains a vertex with fewer chips than
    its edges to the outside.  Enumerates all 2^(n-1) - 1 subsets."""
    graph = _graph_of(divisor, "brute_is_reduced", connected=False)
    n = graph.vertex_count
    if n > BRUTE_REDUCED_MAX_VERTICES:
        raise BudgetError(
            f"brute_is_reduced is limited to {BRUTE_REDUCED_MAX_VERTICES} vertices, got {n}"
        )
    u = graph.index(base)
    vals = divisor.values
    if any(vals[i] < 0 for i in range(n) if i != u):
        return False
    others = [i for i in range(n) if i != u]
    adj = graph._adj_items
    outward = graph._degrees  # edges leaving each vertex; loops excluded, as from adj
    for mask in range(1, 1 << len(others)):
        inside = [others[t] for t in range(len(others)) if mask >> t & 1]
        member = set(inside)
        for v in inside:
            to_outside = outward[v] - sum(m for w, m in adj[v] if w in member)
            if vals[v] < to_outside:
                break
        else:
            return False
    return True


# -- pinned fixtures ---------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """A pinned graph with named divisors and expected results.

    Every fixture re-derives its provenance checks when loaded (quoted
    principal divisors, genus) and loading fails hard on any mismatch.
    """

    name: str
    graph: Graph
    divisors: Mapping[str, Divisor] = field(hash=False)
    expected: Mapping[str, int] = field(hash=False)


def _check(fixture_name: str, condition: bool, what: str) -> None:
    if not condition:
        raise FixtureError(f"fixture {fixture_name!r} failed its self-check: {what}")


def _fixture(name: str, graph: Graph, example: Sequence[int] | None, expected: dict[str, int]) -> Fixture:
    """Check the graph's genus against ``expected["genus"]`` and build the
    fixture, with ``example`` as its ``"example"`` divisor unless None."""
    _check(name, graph.genus() == expected["genus"], f"genus must be {expected['genus']}")
    divisors = {} if example is None else {"example": Divisor(graph, example)}
    return Fixture(name=name, graph=graph, divisors=divisors, expected=expected)


def _dhar5() -> Fixture:
    graph = Graph(
        ["v0", "v1", "v2", "v3", "v4"],
        [
            ("v0", "v1", 2),
            ("v0", "v2", 2),
            ("v0", "v3", 2),
            ("v1", "v2", 2),
            ("v1", "v3", 1),
            ("v1", "v4", 1),
            ("v2", "v3", 1),
            ("v2", "v4", 1),
            ("v3", "v4", 2),
        ],
    )
    _check("dhar5", fire_set(graph, {"v3", "v4"}).values == (2, 2, 2, -4, -2),
           "firing {v3,v4} must give (2,2,2,-4,-2)")
    _check("dhar5", fire_set(graph, {"v1", "v2", "v4"}).values == (4, -3, -3, 4, -2),
           "firing {v1,v2,v4} must give (4,-3,-3,4,-2)")
    return _fixture("dhar5", graph, (0, 1, 2, 4, 4),
                    {"genus": 10, "rank": 2, "lower_bound": 0, "canonical_degree": 18})


def _weighted_binary() -> Fixture:
    graph = Graph([("v1", 1), ("v2", 2)], [("v1", "v2", 13)])
    return _fixture("weighted-binary", graph, (3, 4), {"genus": 15, "rank": 2, "lower_bound": 2})


def _three_component() -> Fixture:
    graph = Graph(["v1", "v2", "v3"], [("v1", "v3", 3), ("v2", "v3", 7)])
    _check("three-component", graph.multiplicity("v1", "v2") == 0,
           "v1 and v2 must not be adjacent")
    return _fixture("three-component", graph, (1, 2, 3), {"genus": 8, "rank": 2})


def _parametric(kind: str, genus: int) -> Fixture:
    """``binary(g)``: two vertices joined by g + 1 edges; ``rose(g)``: one vertex of weight g."""
    graph = Graph(["v1", "v2"], [("v1", "v2", genus + 1)]) if kind == "binary" else Graph([("v", genus)])
    return _fixture(f"{kind}({genus})", graph, None, {"genus": genus})


def _bullet_loop() -> Fixture:
    return _fixture("bullet-loop", Graph(["v"], [("v", "v")]), (1,), {"genus": 1, "rank": 0})


_NAMED = {"dhar5": _dhar5, "weighted-binary": _weighted_binary,
          "three-component": _three_component, "bullet-loop": _bullet_loop}
_PARAMETRIC = re.compile(r"(binary|rose)\((\d+)\)\Z")


def load_fixture(name: str) -> Fixture:
    """Load a pinned fixture by name, running its provenance self-checks.

    Known names: ``dhar5``, ``weighted-binary``, ``three-component``,
    ``bullet-loop``, and the parametric ``binary(g)`` and ``rose(g)``.
    """
    if _checked(name, "load_fixture", str) in _NAMED:
        return _NAMED[name]()
    match = _PARAMETRIC.match(name)
    if match:
        try:
            genus = int(match.group(2))
        except ValueError:  # past the interpreter's int-string limit
            raise DomainError(f"genus too large in fixture {quoted(name)}") from None
        return _parametric(match.group(1), genus)
    raise DomainError(f"unknown fixture {quoted(name)}")
