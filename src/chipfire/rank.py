"""Exact combinatorial (Baker-Norine) rank with fast paths, bounds, and
conformance checks.

The rank of a divisor on an arbitrary weighted looped graph is defined as
the rank of its lift to the hat graph, where the classical definition
applies: the largest k such that subtracting any effective divisor of
degree k leaves something equivalent to an effective divisor.  Equivalence
to an effective divisor is decided by a single reduction at a base vertex:
a class contains an effective divisor exactly when its base-reduced
representative is non-negative at the base, whatever the base; debt is
cheapest to clear at its own vertex, so ``_debt_base`` picks the base.

Bounds, then search.  Level k holds the classes of D - e for the
effective e of degree k, and the rank is one less than the first level
with a class that has no effective representative.  ``rank`` alone picks
the method and the level to start at; ``_Search.first_failing`` is the one
loop that searches up from it.  The exhaustive search starts at level 0.
Three exact fast paths know the rank r and start at level r + 1, which
must fail: ``reduced-negative`` is level 0 when the base-reduced values
are negative at the base (the exhaustive search's own first level, named
for its cause); ``rank-explicit`` starts at the minimal rank capacity plus
one, for an effective divisor reduced at a vertex attaining it (which
settles every divisor on a single vertex: it is reduced there, so its rank
is the degree formula); and ``riemann-roch``, when K - D has the smaller
degree (deg D >= g), ranks the dual K - D on the hat graph (canonical
value deg(v) - 2, minus the lifted values) by the same loop from level 0
and starts at r(K - D) + deg D - g + 2 (Baker-Norine; for weighted and
looped graphs through the hat graph, Amini-Caporaso).  Above degree
2g - 2 the dual has negative degree, so its search fails level 0 on the
reduction it was built with and takes no class step.  The class of
D - e - v depends only on the class of D - e, so level k + 1 is the set of
reductions of c - v over the classes c of level k and the vertices v, and
no level has more classes than the graph has spanning trees.  A level is
decided that way when expanding the previous level's classes costs less
than enumerating its tuples.  Otherwise, and always at the failing level
(so that the witness is the lexicographically smallest failing tuple), the
tuples are enumerated, under a budget on each level's candidate count.

One search is one ``_Search``: the hat graph (``hat_graph`` builds it once
per weighted or looped graph), the values, their base and base-reduced
representative (computed once), the budget, and a memo of class steps.
``rank`` and ``rank_geq`` each build one, and the Riemann-Roch route one
more for the dual.  Its level scan walks the level's prefix tree in lex
order (``_Search._walk``) with one loop body for every vertex, one class
step c - v (``_child``) per chip put on v; the last vertex takes the
chips left.  Only a step at an empty vertex off the base needs work, and
borrowing settles it with no burn.  The witness is certified by the full
reduction, which for the zero witness is the search's first one.  The
memo keeps the steps' answers for the search's levels and class
expansion, and goes with the search: no step is settled twice in one
search and none from another, so two representatives take two searches.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .divisor import (
    Divisor,
    _pointwise_values,
    degree_for_rank,
    iter_effective_values,
    rank_for_degree,
    rank_lower_bound,
)
from .errors import BudgetError, DomainError, InternalError
from .graph import Graph, hat_graph, strip_weights_and_loops, subdivide_loops
from .reduction import (
    _borrow,
    _burn,
    _debt_base,
    _reduce_indices,
    is_reduced,  # unused here, but bench/tracer.py hooks this name
    is_saturation,
    reduce_divisor,
    saturate,
)

DEFAULT_BUDGET = 10_000_000

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_RANK_EXPLICIT = "rank-explicit"
METHOD_REDUCED_NEGATIVE = "reduced-negative"
METHOD_RIEMANN_ROCH = "riemann-roch"

# one search's borrowed ``_child`` steps: (class, vertex) -> child class or None
_Memo = dict[tuple[tuple[int, ...], int], Optional[tuple[int, ...]]]


@dataclass(frozen=True)
class RankResult:
    """Rank value, a certified failing witness, and the path that produced it.

    ``witness`` is the lexicographically smallest effective divisor of
    degree ``rank + 1`` on the graph the search ran on (the hat graph for
    weighted or looped input) such that subtracting it leaves a class with
    no effective representative.  For rank -1 it is the zero divisor.
    """

    rank: int
    witness: Divisor
    method: str


def _require_weightless_loopless(graph: Graph, operation: str) -> None:
    if any(graph.weights) or any(graph._loops):
        raise DomainError(f"{operation} is defined on weightless loopless graphs; use rank()")


def _level_count(k: int, n: int) -> int:
    return math.comb(k + n - 1, n - 1)


def _check_budget(k: int, n: int, budget: int) -> int:
    """The candidate count of the degree-k level on n vertices; raises
    BudgetError over the budget, and TypeError for a non-integer budget."""
    count = _level_count(k, n)
    if count > operator.index(budget):
        raise BudgetError(
            f"degree-{k} enumeration needs {count} candidates, over the budget of {budget}",
            count=count,
            budget=budget,
        )
    return count


def _child(
    graph: Graph,
    base: int,
    memo: _Memo,
    c: tuple[int, ...],
    v: int,
) -> Optional[tuple[int, ...]]:
    """The base-reduced class of c - v for a base-reduced effective class
    c, or None when that class is negative at the base.

    c - v is already base-reduced when v is the base or c(v) > 0:
    subtracting a chip where there is one keeps c effective off the base
    and makes no set avoiding the base fireable.  When c(v) = 0 off the
    base, phase 1 of the reduction, the borrowing kernel ``_borrow``,
    settles c - v alone, with no burn after it.  The hat graph is loopless
    and the base is the sink: c base-reduced means deg - 1 - c is a
    recurrent sandpile (the superstable/recurrent duality of Holroyd,
    Levine, Meszaros, Peres, Propp and Wilson, arXiv:0801.3306); c - v is
    that sandpile plus a grain at v; borrowing, which topples a vertex in
    debt, is its stabilization; and a recurrent sandpile plus a grain
    stabilizes to a recurrent one, so the result is superstable again,
    that is base-reduced.  ``memo`` keeps these answers for the rest of
    the search, keyed by ``(c, v)``."""
    if c[v] or v == base:
        child = list(c)
        child[v] -= 1
        return tuple(child) if child[base] >= 0 else None
    key = c, v
    # the memo holds tuples and None, so False marks a step not taken yet
    found = memo.get(key, False)
    if found is not False:
        return found
    child = list(c)
    child[v] = -1
    _borrow(graph, child, base, deque((v,)), None)
    found = memo[key] = tuple(child) if child[base] >= 0 else None
    return found


class _Search:
    """One search for the first failing level of ``values`` on the
    weightless loopless ``graph``, under ``budget``.

    The base and the values' base-reduced representative are computed
    once, when the search is built.  ``memo`` holds the search's borrowed
    ``_child`` steps, shared by its levels and by the class expansion, and
    is dropped with the search."""

    __slots__ = ("graph", "values", "base", "base_reduced", "budget", "memo")

    def __init__(self, graph: Graph, values: tuple[int, ...], budget: int):
        self.graph = graph
        self.values = values
        self.base = _debt_base(values)
        self.base_reduced = tuple(_reduce_indices(graph, list(values), self.base)[0])
        self.budget = budget
        self.memo: _Memo = {}

    def first_failing(self, method: str, k: int) -> tuple[int, tuple[int, ...]]:
        """``(rank, failing)``, searching up from level ``k``: ``failing`` is
        the lex-first tuple of the first failing level, not yet certified.

        ``rank`` chose ``method`` and ``k``; only the exhaustive search may
        pass a level, as a fast path starts at the level that must fail.
        """
        classes = None
        while True:
            failing, classes = self.scan_level(k, classes)
            if failing is not None:
                return k - 1, failing
            if method != METHOD_EXHAUSTIVE:
                raise InternalError("no failing divisor found one degree above the computed rank")
            k += 1

    def expand_classes(self, previous: set[tuple[int, ...]]) -> Optional[set[tuple[int, ...]]]:
        """The base-reduced classes c - v for every class c in ``previous``
        and every vertex v, or None at the first one that is negative at the
        base; each is one ``_child`` step, answered from the memo when the
        level scan or an earlier expansion of this search already took it."""
        graph, base, memo = self.graph, self.base, self.memo
        n = graph.vertex_count
        children = set()
        for c in previous:
            for v in range(n):
                child = _child(graph, base, memo, c, v)
                if child is None:
                    return None
                children.add(child)
        return children

    def scan_level(
        self, k: int, previous: Optional[set[tuple[int, ...]]] = None
    ) -> tuple[Optional[tuple[int, ...]], Optional[set[tuple[int, ...]]]]:
        """Decide the degree-k level: ``(failing, classes)``.

        ``failing`` is the first (lex order) effective degree-k tuple e for
        which the class of the base-reduced values minus e has no effective
        representative, or None when there is none.  ``classes`` is the set
        of the level's classes as base-reduced tuples when the level passes
        and the set stayed small enough to be worth expanding, otherwise
        None.

        ``previous`` is the classes of the degree-(k-1) level.  When
        expanding them by every vertex costs less than enumerating the
        level, the level is decided from them; at the first class that
        fails, the level is enumerated instead (``_walk``), so ``failing``
        is the same either way.  The budget counts the level's candidates in
        both cases.
        """
        base, base_reduced = self.base, self.base_reduced
        n = self.graph.vertex_count
        count = _check_budget(k, n, self.budget)
        if sum(base_reduced) - k < 0:
            # every class at this level has negative degree, so every candidate
            # fails; the lex-smallest is all mass on the last vertex
            return (0,) * (n - 1) + (k,), None
        if previous is not None and len(previous) * n < count:
            children = self.expand_classes(previous)
            if children is not None:
                return None, children
        if n == 1:
            # the one candidate (k,) passes: its class, the values minus k, has
            # degree >= 0, and nothing on one vertex fires
            return None, {(base_reduced[0] - k,)}
        start = base_reduced if base_reduced[base] >= 0 else None
        # past this many classes, expanding them costs more than enumerating
        # the next level
        limit = _level_count(k + 1, n) // n
        classes: set[tuple[int, ...]] = set()
        failing = self._walk(0, start, k, [0] * n, classes, limit)
        if failing is not None:
            return failing, None
        return None, classes if len(classes) <= limit else None

    def _walk(
        self, t: int, c: Optional[tuple[int, ...]], m: int, e: list[int], classes: set, limit: int
    ) -> Optional[tuple[int, ...]]:
        """The first failing tuple with the prefix ``e[:t]``, or None.

        ``c`` is the class of the values minus that prefix (None when it
        has no effective representative) and ``m`` the chips left.  Before
        the last vertex the walk tries ``e[t] = 0..m``, taking one
        ``_child`` step at t between two tries; the last vertex takes all
        ``m`` chips, one step each, and the tuple's class joins ``classes``
        until they number more than ``limit``.  A prefix class that is None
        fails every extension: it is carried down to the subtree's first
        tuple, which is the lex-first failing tuple, so no step is taken
        from a None class.
        """
        graph, base, memo = self.graph, self.base, self.memo
        if t < len(e) - 1:
            for a in range(m + 1):
                if a:
                    c = _child(graph, base, memo, c, t)
                e[t] = a
                failing = self._walk(t + 1, c, m - a, e, classes, limit)
                if failing is not None:
                    return failing
            return None
        for _ in range(m):
            if c is None:
                break
            c = _child(graph, base, memo, c, t)
        if c is None:
            e[t] = m
            return tuple(e)
        if len(classes) <= limit:
            classes.add(c)
        return None

    def certify(self, failing: tuple[int, ...]) -> Divisor:
        """The failing tuple as a divisor, after re-running its check from
        the values rather than their base-reduced representative, which is
        the zero tuple's check, run once already when the search was built."""
        reduced = self.base_reduced
        if any(failing):
            check = [a - b for a, b in zip(self.values, failing)]
            reduced, _ = _reduce_indices(self.graph, check, self.base)
        if reduced[self.base] >= 0:
            raise InternalError("witness failed its certification re-run")
        return Divisor(self.graph, failing)


def rank(divisor: Divisor, *, budget: int = DEFAULT_BUDGET, exhaustive: bool = False) -> RankResult:
    """The combinatorial rank of a divisor on any connected graph.

    Bounds, then search: the method and the start level are chosen here, in
    this order, and one loop searches up from that level on the hat graph,
    which for a weightless loopless graph is the graph itself (no embedding
    is built).  With ``exhaustive=True`` the search starts at level 0.
    Otherwise ``reduced-negative`` (rank -1) when the class has no effective
    representative, ``rank-explicit`` (which answers every divisor on a
    single vertex) at the minimal rank capacity plus one, whose reduced test
    burns no vertex with fewer than deg - g' chips (g' the loopless genus),
    ``riemann-roch`` when deg(K - D) < deg D, which ranks K - D first, and
    else the exhaustive search.  A level is decided from the previous
    level's classes when that is cheaper than enumerating its candidates,
    and the failing level is always enumerated in lex order, so the value
    and witness are the same either way.  Raises BudgetError when a level
    it needs has more than ``budget`` candidates, however it is decided.
    """
    graph, values = divisor.graph, divisor.values
    graph.require_connected("rank")
    weighted = any(graph._weights) or any(graph._loops)  # or looped; else its own hat
    hat = (graph._hat[0] if graph._hat else hat_graph(graph).target) if weighted else graph
    lifted = values + (0,) * (hat.vertex_count - graph.vertex_count)  # zero on fresh ones
    search = _Search(hat, lifted, budget)
    if exhaustive:
        method, k = METHOD_EXHAUSTIVE, 0
    elif search.base_reduced[search.base] < 0:
        method, k = METHOD_REDUCED_NEGATIVE, 0
    elif (
        divisor.is_effective
        and (capacity := _pointwise_values(graph, values, rank_for_degree))  # never empty
        and next(_explicit_indices(graph, values, capacity), None) is not None
    ):
        method, k = METHOD_RANK_EXPLICIT, min(capacity) + 1
    elif (excess := divisor.degree - hat.genus()) >= 0:  # exactly when deg(K - D) < deg D
        dual = tuple(d - 2 - x for d, x in zip(hat._degrees, lifted))
        dual_rank, _ = _Search(hat, dual, budget).first_failing(METHOD_EXHAUSTIVE, 0)
        method, k = METHOD_RIEMANN_ROCH, dual_rank + excess + 2
    else:
        method, k = METHOD_EXHAUSTIVE, 0
    value, failing = search.first_failing(method, k)
    return RankResult(value, search.certify(failing), method)


def rank_geq(
    divisor: Divisor, k: int, *, budget: int = DEFAULT_BUDGET
) -> tuple[bool, Optional[Divisor]]:
    """Decide rank >= k on a weightless loopless connected graph.

    On failure, also return the lexicographically smallest effective
    degree-k divisor whose subtraction leaves no effective representative,
    certified as ``rank``'s witness is, by a full reduction from the input.
    """
    graph = divisor.graph
    _require_weightless_loopless(graph, "rank_geq")
    graph.require_connected("rank_geq")
    if k < 0:
        raise DomainError("rank_geq needs k >= 0")
    search = _Search(graph, divisor.values, budget)
    failing, _ = search.scan_level(k)
    if failing is None:
        return True, None
    return False, search.certify(failing)


def _explicit_indices(
    graph: Graph, values: tuple[int, ...], capacity: tuple[int, ...]
) -> Iterator[int]:
    """The indices, in order, where the effective ``values`` are reduced and
    their rank capacity ``capacity`` is least.  Reduced at i, they hold at most
    g' (loopless genus) chips off i (Baker-Norine): no burn below deg - g'."""
    floor_value, least = min(capacity), sum(values) - graph._loopless_genus
    for i, x in enumerate(values):
        if capacity[i] == floor_value and x >= least and max(_burn(graph, values, i)) < 0:
            yield i


def _iter_rank_explicit(divisor: Divisor) -> Iterator[str]:
    graph, values = divisor.graph, divisor.values
    graph.require_connected("rank_explicit_vertices")
    if divisor.is_effective:
        for i in _explicit_indices(graph, values, _pointwise_values(graph, values, rank_for_degree)):
            yield graph.vertex_ids[i]
        return
    base = _debt_base(values)
    reduced, _ = reduce_divisor(divisor, graph.vertex_ids[base])
    if reduced.values[base] < 0:
        yield graph.vertex_ids[0]


def rank_explicit_vertices(divisor: Divisor) -> tuple[str, ...]:
    """All vertices certifying the divisor as rank-explicit.

    An effective divisor qualifies at u when it is u-reduced and its rank
    capacity at u attains the global minimum; its rank then equals that
    minimum.  A non-effective divisor qualifies only through the rank -1
    test (no effective representative), reported at the first vertex.
    """
    return tuple(_iter_rank_explicit(divisor))


def rank_explicit_vertex(divisor: Divisor) -> Optional[str]:
    """The first vertex (declaration order) certifying rank-explicitness,
    or None; stops at the first qualifying vertex."""
    return next(_iter_rank_explicit(divisor), None)


def rank_lower_bound_certified(
    divisor: Divisor, r: int, *, budget: int = DEFAULT_BUDGET
) -> bool:
    """Certify rank >= r by the degree-demand test.

    True exactly when, for every effective divisor e of degree r on the
    original vertices, subtracting the pointwise degree demand of e leaves
    a divisor equivalent to an effective one (decided on the loop-stripped
    weightless graph, which has the same principal divisors).
    """
    if r < 0:
        raise DomainError("rank_lower_bound_certified needs r >= 0")
    graph = divisor.graph
    graph.require_connected("rank_lower_bound_certified")
    n = graph.vertex_count
    _check_budget(r, n, budget)
    genera = list(map(operator.add, graph.weights, graph._loops))
    for e in iter_effective_values(r, n):
        vals = [x - degree_for_rank(a, genus) for x, a, genus in zip(divisor.values, e, genera)]
        if min(vals) >= 0:
            continue
        base = _debt_base(vals)
        if _reduce_indices(graph, vals, base)[0][base] < 0:
            return False
    return True


def saturation_bound(divisor: Divisor, base: str, saturation: Optional[Graph] = None) -> int:
    """Upper bound for the rank from a saturation at the base.

    With no saturation supplied, the deterministic recipe saturation is
    built; a supplied graph is validated first.  Returns the divisor's
    minimum value plus the number of added edges.
    """
    graph = divisor.graph
    _require_weightless_loopless(graph, "saturation_bound")
    graph.require_connected("saturation_bound")
    if not divisor.is_effective:
        raise DomainError("saturation_bound needs an effective divisor")
    floor_value = rank_lower_bound(divisor)
    if divisor[base] != floor_value:
        raise DomainError(
            f"base {base!r} has value {divisor[base]}, but the divisor's minimum is {floor_value}"
        )
    if saturation is None:
        _, added = saturate(divisor, base)
    else:
        if not is_saturation(graph, saturation, divisor, base):
            raise DomainError("supplied graph is not a saturation for this divisor and base")
        added = saturation.edge_count - graph.edge_count
    return floor_value + added


def riemann_roch_residual(divisor: Divisor, *, budget: int = DEFAULT_BUDGET) -> int:
    """rank(d) - rank(K - d) - (deg d - genus + 1); zero on every connected
    graph."""
    graph = divisor.graph
    graph.require_connected("riemann_roch_residual")
    # Riemann-Roch is what this checks, so neither side may be ranked by it
    direct = rank(divisor, budget=budget, exhaustive=True).rank
    residual_class = graph.canonical_divisor() - divisor
    dual = rank(residual_class, budget=budget, exhaustive=True).rank
    return direct - dual - (divisor.degree - graph.genus() + 1)


def clifford_check(divisor: Divisor, *, budget: int = DEFAULT_BUDGET) -> bool:
    """rank <= floor(degree / 2) whenever 0 <= degree <= 2*genus - 2 and the
    rank is non-negative; vacuously true otherwise."""
    graph = divisor.graph
    graph.require_connected("clifford_check")
    degree = divisor.degree
    if not 0 <= degree <= 2 * graph.genus() - 2:
        return True
    value = rank(divisor, budget=budget).rank
    if value < 0:
        return True
    return value <= degree // 2


def binary_rank(genus: int, a: int, b: int) -> int:
    """Closed-form rank of the class of (a, b) on two vertices joined by
    genus + 1 parallel edges.

    Representatives shift by multiples of genus + 1 between the two
    coordinates, so an effective one exists exactly when the degree is at
    least ``a mod (genus + 1)``; otherwise the rank is -1.  With an
    effective representative normalized to 0 <= a <= b, the rank is a when
    b <= genus and a + b - genus when b >= genus + 1.  The case value is
    unique: a representative with both entries at most genus is the only
    effective one (any shift makes an entry negative), and every other
    effective representative gives degree - genus.  It is read at first
    entry ``a mod (genus + 1)`` and checked at second entry
    ``b mod (genus + 1)``.
    """
    genus, a, b = operator.index(genus), operator.index(a), operator.index(b)
    if genus < 0:
        raise DomainError("binary_rank needs genus >= 0")
    period = genus + 1
    degree = a + b
    if degree < a % period:
        return -1
    values = set()
    for x in (a % period, degree - b % period):
        lo, hi = sorted((x, degree - x))
        values.add(lo if hi <= genus else lo + hi - genus)
    if len(values) > 1:
        raise InternalError(f"binary_rank case values disagree across representatives: {values}")
    return values.pop()


def g0_comparison(divisor: Divisor, *, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(rank on the loop-stripped weightless graph, rank on the graph itself).

    The first is always at least the second, and they are -1 together.
    """
    graph = divisor.graph
    graph.require_connected("g0_comparison")
    stripped = strip_weights_and_loops(graph)
    on_stripped = divisor if stripped is graph else Divisor(stripped, divisor.values)
    # ranked first, so that a BudgetError is the stripped graph's
    stripped_value = rank(on_stripped, budget=budget).rank
    if stripped is graph:
        return stripped_value, stripped_value
    return stripped_value, rank(divisor, budget=budget).rank


def bullet_rank_identity(divisor: Divisor, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Rank is unchanged by subdividing every loop with a fresh vertex and
    extending the divisor by zero; returns the comparison outcome."""
    graph = divisor.graph
    graph.require_connected("bullet_rank_identity")
    subdivided, _ = subdivide_loops(graph)
    if subdivided is graph:
        return True
    extended = Divisor(subdivided, divisor.as_dict())
    return rank(extended, budget=budget).rank == rank(divisor, budget=budget).rank
