"""Dhar burning, reduced divisors, and graph saturation.

Reducedness ignores weights and loops entirely: the burning game is played
on the loop-stripped weightless graph, which has the same principal
divisors.  A divisor is reduced with respect to a base vertex u when it is
effective away from u and the fire started at u consumes every vertex.
Every divisor class has exactly one u-reduced representative, which is what
makes a single burn-and-check decide equivalence to an effective divisor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, InternalError
from .divisor import Divisor, FiringScript
from .graph import Graph


@dataclass(frozen=True)
class DharDecomposition:
    """Ordered burned layers plus the unburned remainder.

    ``layers[0]`` is the singleton base vertex; ``layers[j]`` holds the
    vertices burned on day j, i.e. those whose chip count is smaller than
    their edge count into the already-burned region.  ``unburned`` is empty
    exactly when the divisor is reduced with respect to the base.
    """

    layers: tuple[frozenset[str], ...]
    unburned: frozenset[str]

    @property
    def is_reduced(self) -> bool:
        return not self.unburned

    @property
    def burned(self) -> frozenset[str]:
        out: set[str] = set()
        for layer in self.layers:
            out |= layer
        return frozenset(out)


def _dhar_indices(
    graph: Graph, values: list[int], base: int
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Run the burning game from ``base``; loops and weights play no part.

    Returns the layers (day 0 is the base alone) and the unburned vertices,
    all as ascending index tuples.  ``values`` is read, never written, and
    must be non-negative off the base.  A vertex burns once its chips fall
    short of its edges into the burned region, and that edge count grows
    only when a neighbour burns; so day j+1 is found among the neighbours
    of day j alone, and each edge is looked at once from each end that
    burns (Dhar 1990).
    """
    adj_items = graph._adj_items
    room = list(values)  # chips minus edges into the burned region
    room[base] = -1
    layers: list[tuple[int, ...]] = []
    day = [base]
    while day:
        layers.append(tuple(day))
        nxt = []
        for v in day:
            for w, mult in adj_items[v]:
                r = room[w]
                if r >= 0:
                    r -= mult
                    room[w] = r
                    if r < 0:  # burns on the next day
                        nxt.append(w)
        day = sorted(nxt)
    return layers, tuple(v for v, r in enumerate(room) if r >= 0)


def _burn(graph: Graph, values: list[int], base: int) -> tuple[int, ...]:
    """The unburned remainder of the game, without layer bookkeeping: the
    same fire, on the same ``values``, spread from a worklist instead of
    day by day."""
    adj_items = graph._adj_items
    room = list(values)
    room[base] = -1
    stack = [base]
    left = len(room) - 1
    while stack:
        for w, mult in adj_items[stack.pop()]:
            r = room[w]
            if r >= 0:
                r -= mult
                room[w] = r
                if r < 0:
                    stack.append(w)
                    left -= 1
    if not left:
        return ()
    return tuple(v for v, r in enumerate(room) if r >= 0)


def _fire_indices(graph: Graph, values: list[int], members: tuple[int, ...]) -> int:
    """Fire a vertex set in place as many times as every member can afford.

    Each firing sends one chip along every edge leaving the set, so member v
    loses ``out(v)`` chips per firing; the set fires
    ``t = min(values[v] // out(v))`` times over the members with
    ``out(v) > 0``, which leaves every member non-negative.  Returns ``t``.
    Needs at least one edge leaving the set.
    """
    inside = set(members)
    outs: list[int] = []
    crossing: list[tuple[int, int]] = []
    for v in members:
        out = 0
        for w, mult in graph._adj_items[v]:
            if w not in inside:
                out += mult
                crossing.append((w, mult))
        outs.append(out)
    times = min(values[v] // out for v, out in zip(members, outs) if out)
    for v, out in zip(members, outs):
        values[v] -= out * times
    for w, mult in crossing:
        values[w] += mult * times
    return times


def _reduce_indices(
    graph: Graph, values: list[int], base: int
) -> tuple[list[int], list[int]]:
    """Transform ``values`` into the unique base-reduced representative.

    Phase 1 clears the debt off the base by least-action borrowing: a
    vertex in debt borrows (loses a firing level) ``k = ceil(debt / deg)``
    times at once, and a neighbour that crosses into debt is queued.  Each
    borrow is a legal toppling of the sandpile ``deg - 1 - D`` with the
    base as sink, so (abelian property, least action principle: Fey,
    Levine and Peres, 2010) the total borrowing is finite, the same in any
    order, and the least that makes D effective off the base.  The queue
    is FIFO because debt piles up on a vertex before its turn: 10^5 chips
    of debt opposite the base of a 30-cycle take 23k steps, 5.0M with a
    stack.  One chip of debt d steps from the base costs about n d steps,
    so callers that may choose put the base at the debt (``_debt_base``).
    Step guard: off the base the borrowing is b = G (D' - D), with D' the
    result and G >= 0, G(v, w) <= n - 1 as in phase 2's guard; a vertex
    ends below its degree if it borrows and only loses chips otherwise, so
    (D' - D)(w) <= deg(w) - 1 + debt(w), and every step borrows at least
    once: the steps number at most (n - 1)^2 sum(deg(w) - 1 + debt(w)).
    The guard is read from the graph's degree table and the initial debt
    off the base, (n - 1)^2 (sum(deg) - deg(base) - (n - 1) + debt), so
    setting it up costs no pass over the edges.

    Phase 2 repeatedly burns from the base and fires the unburned set U as
    many times as every member can afford, ``t = min(d(v) // out(v))`` over
    the members with ``out(v) > 0``, where ``out(v)`` counts the edges from
    v leaving U (Baker-Shokrieh, arXiv:1107.1313).  Surviving the burn
    means ``d(v) >= out(v)``, so ``t >= 1``, and after t firings every
    member still holds ``d(v) - t * out(v) >= 0``: effectivity off the base
    is preserved.  A lone pile on a cycle or a complete graph then moves in
    a few rounds, but the poorest member sets t, so several piles, or one
    on a grid, can still need rounds in proportion to their chips.

    Step guard.  Let D be the divisor when phase 2 starts, S its chips off
    the base and L the phase-2 firing script.  The base never fires, so
    L(base) = 0; the reduced divisor R is unique and the Laplacian's kernel
    is the constants, so L is fixed: off the base, L = G (D - R) with G the
    inverse of the reduced Laplacian.  G is non-negative and G(v, w) <= G(w, w),
    the effective resistance from w to the base, which is at most the
    n - 1 edges of a path; with R >= 0 this gives L(v) <= (n - 1) S.  Every
    round raises the level of each fired vertex by t >= 1, so the rounds
    number at most sum(L) <= (n - 1)^2 S; more means a broken kernel.

    Returns the reduced values and the accumulated firing levels (not yet
    normalized).  Mutates and returns ``values``.
    """
    n = graph.vertex_count
    levels = [0] * n
    adj_items = graph._adj_items

    debtors = deque([v for v, x in enumerate(values) if x < 0 and v != base])
    if debtors:
        degree = graph._degrees
        debt = -sum(values[v] for v in debtors)
        guard = (n - 1) ** 2 * (sum(degree) - degree[base] - (n - 1) + debt)
        while debtors:
            v = debtors.popleft()  # still in debt: only its own borrowing adds chips
            times = (degree[v] - 1 - values[v]) // degree[v]
            values[v] += degree[v] * times
            levels[v] -= times
            for w, mult in adj_items[v]:
                if 0 <= values[w] < mult * times and w != base:
                    debtors.append(w)
                values[w] -= mult * times
            guard -= 1
            if guard < 0:
                raise InternalError("debt clearing did not terminate within its step guard")

    guard = (n - 1) ** 2 * (sum(values) - values[base])
    rounds = 0
    while True:
        unburned = _burn(graph, values, base)
        if not unburned:
            break
        rounds += 1
        times = _fire_indices(graph, values, unburned)
        if times < 1 or rounds > guard:
            raise InternalError("reduction did not terminate within its step guard")
        for v in unburned:
            levels[v] += times
    return values, levels


def _debt_base(values: Sequence[int]) -> int:
    """The base for a reduction that may use any: the first vertex where the
    values are most negative, or the first vertex when they are effective."""
    low = min(values)
    return values.index(low) if low < 0 else 0


def _checked_base(divisor: Divisor, base: str, operation: str) -> int:
    graph = divisor.graph
    graph.require_connected(operation)
    return graph.index(base)


def _checked_effective_off_base(divisor: Divisor, base: str, operation: str) -> int:
    """``_checked_base``, refusing a divisor that is negative off the base."""
    u = _checked_base(divisor, base, operation)
    for v, x in enumerate(divisor.values):
        if x < 0 and v != u:
            vid = divisor.graph.vertex_ids[v]
            raise DomainError(f"divisor is negative at {vid!r}; only the base may be negative")
    return u


def dhar(divisor: Divisor, base: str) -> DharDecomposition:
    """The burning decomposition of the vertex set from ``base``.

    Requires the divisor to be effective away from the base.  The result
    depends only on the loop-stripped weightless graph.
    """
    graph = divisor.graph
    u = _checked_effective_off_base(divisor, base, "dhar")
    layers, unburned = _dhar_indices(graph, list(divisor.values), u)
    ids = graph.vertex_ids
    return DharDecomposition(
        layers=tuple(frozenset(ids[v] for v in layer) for layer in layers),
        unburned=frozenset(ids[v] for v in unburned),
    )


def is_reduced(divisor: Divisor, base: str) -> bool:
    """True when the divisor is effective off the base and the burn from the
    base consumes the whole graph."""
    graph = divisor.graph
    u = _checked_base(divisor, base, "is_reduced")
    if any(x < 0 for v, x in enumerate(divisor.values) if v != u):
        return False
    return not _burn(graph, list(divisor.values), u)


def reduce_divisor(divisor: Divisor, base: str) -> tuple[Divisor, FiringScript]:
    """The unique base-reduced representative of the divisor's class, with
    the canonical script carrying the input to it.

    Idempotent: reducing an already reduced divisor returns it unchanged
    together with the zero script.
    """
    graph = divisor.graph
    u = _checked_base(divisor, base, "reduce_divisor")
    values, levels = _reduce_indices(graph, list(divisor.values), u)
    return Divisor(graph, values), FiringScript(graph, levels).normalized()


def saturate(divisor: Divisor, base: str) -> tuple[Graph, int]:
    """Add edges at the base until the divisor becomes base-reduced.

    Uses the deterministic recipe: for every unburned vertex w of the burn
    from the base, add d(w) parallel edges between w and the base.  One
    round suffices on a connected graph: each such w then holds no more
    chips than its edges to the base, so it burns as soon as any other
    neighbour does, and the fire spreads from the old burned region to
    every vertex; a verification burn asserts it.
    Returns the saturated graph and the number of added edges counted
    with multiplicity.  Minimal saturations are not sought.
    """
    graph = divisor.graph
    u = _checked_effective_off_base(divisor, base, "saturate")
    extra = [
        (base, graph.vertex_ids[v], divisor.values[v])
        for v in _burn(graph, list(divisor.values), u)
        if divisor.values[v] > 0
    ]
    saturated = graph.with_extra_edges(extra) if extra else graph
    if _burn(saturated, list(divisor.values), u):
        raise InternalError("saturation recipe left vertices unburned")
    return saturated, sum(mult for _, _, mult in extra)


def is_saturation(original: Graph, candidate: Graph, divisor: Divisor, base: str) -> bool:
    """Check the three saturation conditions: the original is a spanning
    subgraph of the candidate, every extra edge touches the base, and the
    divisor is base-reduced on the candidate."""
    if divisor.graph != original:
        raise DomainError("divisor is not bound to the original graph")
    original.require_connected("is_saturation")
    if candidate.vertex_items != original.vertex_items:
        return False
    original.index(base)  # an unknown base raises before any edge is compared
    for (a, b), mult in original.edge_items():
        if candidate.multiplicity(a, b) < mult:
            return False
    for (a, b), mult in candidate.edge_items():
        extra = mult - original.multiplicity(a, b)
        if extra < 0:
            return False
        if extra > 0 and base not in (a, b):
            return False
    return is_reduced(Divisor(candidate, divisor.as_dict()), base)
