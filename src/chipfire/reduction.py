"""Dhar burning, reduced divisors, and graph saturation.

Reducedness ignores weights and loops entirely: the burning game is played
on the loop-stripped weightless graph, which has the same principal
divisors.  A divisor is reduced with respect to a base vertex u when it is
effective away from u and the fire started at u consumes every vertex.
Every divisor class has exactly one u-reduced representative, which is what
makes a single burn-and-check decide equivalence to an effective divisor.

The fire spreads only in ``_burn``; its ``room`` list gives Dhar's layers
and the firing rule of a reduction, its burn order reducedness (every
vertex burned) and, with the vertices it touched, a round's cut.  Debt
is cleared only in ``_borrow``, phase 1 of every reduction and the whole
of a rank search's class step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

from .errors import DomainError, InternalError
from .divisor import Divisor, FiringScript, _graph_of
from .graph import Graph, _checked


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


def _burn(graph: Graph, values: Sequence[int], base: int) -> tuple[list[int], list[int], list[int]]:
    """Play the burning game from ``base``; loops and weights play no part.

    Returns ``(room, order, touched)``.  ``room``: a vertex burned on day
    j holds ``-1 - j`` (day 0 is the base alone), an unburned one its chips
    minus its edges into the burned region (>= 0).  ``order``: the burned
    vertices as they burned, so the divisor is reduced exactly when it
    holds all n.  ``touched``: with repeats, each vertex that lost room to
    a burning neighbour and did not burn then; those still unburned are a
    reduction round's cut.  The two lists let a round read the burned
    region and its cut, not all of ``room``.  ``values`` is read, never
    written, and must be non-negative off the base.  A vertex burns once
    its chips fall short of its edges into the burned region, a count
    that grows only when a neighbour burns, so each edge is looked at once
    from each end that burns (Dhar 1990).  ``order`` is FIFO, so vertices
    are taken in nondecreasing day order, and a w that burns while v of
    day j is taken burns exactly on day j + 1: it had room against every
    earlier day and falls short against part of day j's region.
    """
    adj_items = graph._adj_items
    room = list(values)
    room[base] = -1
    order = [base]
    touched: list[int] = []
    for v in order:
        day = room[v] - 1  # the day after v's
        for w, mult in adj_items[v]:
            r = room[w]
            if r >= 0:
                r -= mult
                if r < 0:
                    room[w] = day
                    order.append(w)
                else:
                    room[w] = r
                    touched.append(w)
    return room, order, touched


def _dhar_indices(
    graph: Graph, values: Sequence[int], base: int
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """The burn's days grouped into layers (day 0 is the base alone) and
    the unburned vertices, all as ascending index tuples: ``_burn`` read in
    vertex order."""
    room = _burn(graph, values, base)[0]
    layers: list[list[int]] = [[] for _ in range(-min(room))]
    for v, r in enumerate(room):
        if r < 0:
            layers[-1 - r].append(v)
    return [tuple(layer) for layer in layers], tuple(v for v, r in enumerate(room) if r >= 0)


def _fire_indices(graph: Graph, values: list[int], room: list[int], members: Collection[int]) -> int:
    """Fire the unburned set of a burn in place as many times as every
    member can afford, and return that number t.

    ``room`` is ``_burn``'s result for these ``values``, so a neighbour w
    is burned exactly when ``room[w] < 0`` and an unburned v has
    ``out(v) = values[v] - room[v]`` edges into the burned region.
    ``members`` is the cut: the unburned vertices with ``out(v) > 0``, the
    only ones whose chips a firing of the whole unburned set moves, as an
    interior vertex sends and receives the same chips along its edges.
    Each firing costs a member ``out(v)`` chips, so ``t = min(values[v] //
    out(v))`` leaves every member non-negative.  Only the members'
    adjacency is read; the cut must not be empty.
    """
    adj_items = graph._adj_items
    times = min(values[v] // (values[v] - room[v]) for v in members)
    for v in members:
        values[v] -= (values[v] - room[v]) * times
        for w, mult in adj_items[v]:
            if room[w] < 0:
                values[w] += mult * times
    return times


def _borrow(
    graph: Graph, values: list[int], base: int, debtors: deque[int], levels: Optional[list[int]]
) -> None:
    """Clear the debt off the base by least-action borrowing, in place.

    ``debtors`` holds the vertices in debt off the base, each once.  A
    vertex in debt borrows (loses a firing level) ``k = ceil(debt / deg)``
    times at once, and a neighbour that crosses into debt is queued.  The
    lost levels are recorded in ``levels``, unless it is None: a class
    step of the rank search reads only the values.  Each
    borrow is a legal toppling of the sandpile ``deg - 1 - D`` with the
    base as sink, so (abelian property, least action principle: Fey,
    Levine and Peres, 2010) the total borrowing is finite, the same in any
    order, and the least that makes D effective off the base.  The queue
    is FIFO because debt piles up on a vertex before its turn: 10^5 chips
    of debt opposite the base of a 30-cycle take 23k steps, 5.0M with a
    stack.  One chip of debt d steps from the base costs about n d steps,
    so callers that may choose put the base at the debt (``_debt_base``).

    Step guard: off the base the borrowing is b = G (D' - D), with D' the
    result and G >= 0, G(v, w) <= n - 1 as in phase 2's guard of
    ``_reduce_indices``; a vertex ends below its degree if it borrows and
    only loses chips otherwise, so (D' - D)(w) <= deg(w) - 1 + debt(w),
    and every step borrows at least once: the steps number at most
    (n - 1)^2 sum(deg(w) - 1 + debt(w)) over w off the base.  The degrees
    sum to 2 (g' + n - 1), with g' the loopless genus, so the guard is
    (n - 1)^2 (2 g' + n - 1 - deg(base) + debt), and setting it up reads
    only the debtors: a class step of the rank search, one chip of debt
    at one vertex, pays O(n) for its copy of the values and nothing more.
    """
    n = len(values)
    degree = graph._degrees
    adj_items = graph._adj_items
    debt = -sum(map(values.__getitem__, debtors))
    guard = (n - 1) ** 2 * (2 * graph._loopless_genus + n - 1 - degree[base] + debt)
    while debtors:
        v = debtors.popleft()  # still in debt: only its own borrowing adds chips
        times = (degree[v] - 1 - values[v]) // degree[v]
        values[v] += degree[v] * times
        if levels is not None:
            levels[v] -= times
        for w, mult in adj_items[v]:
            lost = mult * times
            if 0 <= values[w] < lost and w != base:
                debtors.append(w)
            values[w] -= lost
        guard -= 1
        if guard < 0:
            raise InternalError("debt clearing did not terminate within its step guard")


def _reduce_indices(
    graph: Graph, values: list[int], base: int
) -> tuple[list[int], list[int]]:
    """Transform ``values`` into the unique base-reduced representative.

    Phase 1 clears the debt off the base by least-action borrowing, the
    kernel ``_borrow``, which the rank search's class steps share.

    Phase 2 repeatedly burns from the base and fires the unburned set U as
    many times as every member can afford, ``t = min(d(v) // out(v))`` over
    the members with ``out(v) > 0``, where ``out(v)`` counts the edges from
    v leaving U (Baker-Shokrieh, arXiv:1107.1313), read from the burn's
    ``room`` as ``d(v) - room(v)``.  Surviving the burn means
    ``d(v) >= out(v)``, so ``t >= 1``, and after t firings every member
    still holds ``d(v) - t * out(v) >= 0``: effectivity off the base is
    preserved.  Only the cut, the members with ``out(v) > 0``, gains or
    loses chips, and only it bounds t, so ``_fire_indices`` fires the cut
    alone.  Every member's level still rises by t, which a round records
    as -t on each burned vertex: a script is defined only up to an
    additive constant, and no caller reads the base's level.  The burn
    hands over its order and the vertices it touched: the pass ends when
    the order holds all n vertices, and the cut is the touched vertices
    still unburned.  So a round costs the burn's copy of the values plus
    the burned region and its cut, and makes no pass over all n vertices.
    The poorest member sets t, so several piles, or one on a grid, would
    need rounds in proportion to their chips.

    Halving keeps the chips of a firing pass bounded by the graph.  A
    base-reduced divisor holds at most g' chips off the base, with
    g' = non-loop edges - n + 1 (Baker-Norine, arXiv:math/0608360: off the
    base it is at most indeg_O - 1 for an acyclic orientation O whose only
    source is the base, and those values sum to g').  Write D = 2H + B with
    H = D >> 1 and B = D & 1, and firing by x as taking D to D - Lx, L the
    Laplacian.  If H - Lx = R is reduced then 2R + B = D - L(2x), and
    2R + B holds at most 2g' + n - 1 chips off the base.  So when D has
    more than that, phase 2 first reduces D >> s, the fewest halvings that
    bring it within the bound, and then for each lower bit doubles the
    result and its levels, adds that bit of D, ``(D >> (s - 1)) & 1``, and
    reduces again: every pass starts within 2g' + n - 1 chips, and the
    passes number log2 of the chips.  They run in a loop, as recursion
    would fail past about 2^1000 chips.  A divisor within the bound takes
    a single pass on D itself.  The bound is checked once the first round
    has fired on D, and D is then the divisor after that round: the many
    divisors that are reduced once their debt is cleared pay nothing for
    it, a small pile that one round settles is not halved (``[-1, 4]`` at
    the base of two vertices joined by two edges takes 2 burns, not the 4
    of halving first), and a pile still above the bound pays one round
    before the halving.

    Step guard, per pass, set when its first round fires.  Let D be the
    divisor when a pass starts, S its chips off the base and X the pass's
    firing script.  The base never fires, so X(base) = 0; the reduced
    divisor R is unique and the Laplacian's kernel is the constants, so X
    is fixed: off the base, X = G (D - R) with G the inverse of the
    reduced Laplacian.  G is non-negative and G(v, w) <= G(w, w), the
    effective resistance from w to the base, which is at most the n - 1
    edges of a path; with R >= 0 this gives X(v) <= (n - 1) S.  Every
    round raises the level of each fired vertex by t >= 1, so the pass's
    rounds number at most sum(X) <= (n - 1)^2 S; more means a broken
    kernel.

    Returns the reduced values and the accumulated firing levels, defined
    up to an additive constant and not normalized.  May mutate ``values``.
    """
    n = graph.vertex_count
    levels = [0] * n
    debtors = deque([v for v, x in enumerate(values) if x < 0 and v != base])
    if debtors:
        _borrow(graph, values, base, debtors, levels)

    pile, borrowed, shift = values, None, 0
    while True:
        rounds = 0
        while True:
            room, order, touched = _burn(graph, values, base)
            if len(order) == n:
                break
            if not rounds:
                guard = (n - 1) ** 2 * (sum(values) - values[base])
            rounds += 1
            times = _fire_indices(graph, values, room, {w for w in touched if room[w] >= 0})
            if times < 1 or rounds > guard:
                raise InternalError("reduction did not terminate within its step guard")
            for v in order:
                levels[v] -= times
            if values is pile and rounds == 1:  # halve a pile still above the bound
                chips = sum(values) - values[base]
                unit = 2 * graph._loopless_genus + n  # one more than the bound
                if chips >= unit:
                    shift = (chips // unit).bit_length()
                    borrowed = levels
                    values, levels, rounds = [x >> shift for x in pile], [0] * n, 0
        if not shift:
            break
        shift -= 1
        values = [2 * x + (d >> shift & 1) for x, d in zip(values, pile)]
        levels = [2 * x for x in levels]
    return values, levels if borrowed is None else [x + b for x, b in zip(levels, borrowed)]


def _debt_base(values: Sequence[int]) -> int:
    """The base for a reduction that may use any: the first vertex where the
    values are most negative, or the first vertex when they are effective."""
    low = min(values)
    return values.index(low) if low < 0 else 0


def _checked_base(divisor: Divisor, base: str, operation: str) -> tuple[Graph, int]:
    """The divisor's connected graph and the base's index."""
    graph = _graph_of(divisor, operation)
    return graph, graph.index(base)


def _checked_effective_off_base(divisor: Divisor, base: str, operation: str) -> tuple[Graph, int]:
    """``_checked_base``, refusing a divisor that is negative off the base."""
    graph, u = _checked_base(divisor, base, operation)
    for v, x in enumerate(divisor.values):
        if x < 0 and v != u:
            vid = graph.vertex_ids[v]
            raise DomainError(f"divisor is negative at {vid!r}; only the base may be negative")
    return graph, u


def dhar(divisor: Divisor, base: str) -> DharDecomposition:
    """The burning decomposition of the vertex set from ``base``.

    Requires the divisor to be effective away from the base.  The result
    depends only on the loop-stripped weightless graph.
    """
    graph, u = _checked_effective_off_base(divisor, base, "dhar")
    layers, unburned = _dhar_indices(graph, divisor.values, u)
    ids = graph.vertex_ids
    return DharDecomposition(
        layers=tuple(frozenset(ids[v] for v in layer) for layer in layers),
        unburned=frozenset(ids[v] for v in unburned),
    )


def is_reduced(divisor: Divisor, base: str) -> bool:
    """True when the divisor is effective off the base and the burn from the
    base consumes the whole graph."""
    graph, u = _checked_base(divisor, base, "is_reduced")
    if any(x < 0 for v, x in enumerate(divisor.values) if v != u):
        return False
    return len(_burn(graph, divisor.values, u)[1]) == graph.vertex_count


def reduce_divisor(divisor: Divisor, base: str) -> tuple[Divisor, FiringScript]:
    """The unique base-reduced representative of the divisor's class, with
    the canonical script carrying the input to it.

    Idempotent: reducing an already reduced divisor returns it unchanged
    together with the zero script.
    """
    graph, u = _checked_base(divisor, base, "reduce_divisor")
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
    graph, u = _checked_effective_off_base(divisor, base, "saturate")
    extra = [
        (base, graph.vertex_ids[v], divisor.values[v])
        for v, r in enumerate(_burn(graph, divisor.values, u)[0])
        if r >= 0 and divisor.values[v] > 0
    ]
    saturated = graph.with_extra_edges(extra) if extra else graph
    if len(_burn(saturated, divisor.values, u)[1]) < saturated.vertex_count:
        raise InternalError("saturation recipe left vertices unburned")
    return saturated, sum(mult for _, _, mult in extra)


def is_saturation(original: Graph, candidate: Graph, divisor: Divisor, base: str) -> bool:
    """Check the three saturation conditions: the original is a spanning
    subgraph of the candidate, every extra edge touches the base, and the
    divisor is base-reduced on the candidate."""
    for graph in (original, candidate):
        _checked(graph, "is_saturation", Graph)
    if _graph_of(divisor, "is_saturation") != original:
        raise DomainError("divisor is not bound to the original graph")
    if candidate.vertex_items != original.vertex_items:
        return False
    original.index(base)  # an unknown base raises before any edge is compared
    # the same vertex order, so both graphs name each edge by the same pair
    extra = dict(candidate.edge_items())
    for edge, mult in original.edge_items():
        extra[edge] = extra.get(edge, 0) - mult
    if any(mult < 0 or (mult and base not in edge) for edge, mult in extra.items()):
        return False
    return is_reduced(Divisor(candidate, divisor.as_dict()), base)
