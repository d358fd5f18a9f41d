"""Divisor arithmetic, principal divisors, firing scripts, and linear equivalence.

A divisor is an integer-valued function on the vertices of one fixed graph;
a firing script is an integer level function on the same vertices.  Firing
the script moves chips along every edge according to the level difference
of its endpoints, which realises the graph Laplacian.  Two divisors are
linearly equivalent when their difference is such a script image.

Everything here is exact: a divisor is principal exactly when its reduced
representative (:mod:`chipfire.reduction`) is zero, and the reduction's
own firing levels, verified against the Laplacian, are its script.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping
from typing import Iterator, Optional, Sequence, Union

from .errors import DomainError, InternalError
from .graph import Graph, HatEmbedding, _checked

Values = Union[Mapping[str, int], Sequence[int]]


def _coerce_values(graph: Graph, values: Values, operation: str) -> tuple[int, ...]:
    n = graph.vertex_count
    if isinstance(values, Mapping):
        out = [0] * n
        for key, val in values.items():
            out[graph.index(key)] = operator.index(val)
        return tuple(out)
    if type(values) is not list and type(values) is not tuple:  # the usual arguments pass at once
        _checked(values, operation, Iterable)
    seq = [operator.index(v) for v in values]
    if len(seq) != n:
        raise DomainError(f"expected {n} values, got {len(seq)}")
    return tuple(seq)


class _VertexMap:
    """Shared mechanics for integer functions on the vertices of one graph."""

    __slots__ = ("_graph", "_values")

    def __init__(self, graph: Graph, values: Values | None = None):
        self._graph = _checked(graph, type(self).__name__, Graph)
        self._values = (
            (0,) * graph.vertex_count
            if values is None
            else _coerce_values(graph, values, type(self).__name__)
        )

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    def __getitem__(self, vertex: str) -> int:
        return self._values[self._graph.index(vertex)]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self._graph.vertex_ids, self._values))

    def nonzero_items(self) -> tuple[tuple[str, int], ...]:
        return tuple(
            (v, x) for v, x in zip(self._graph.vertex_ids, self._values) if x
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._graph == other._graph and self._values == other._values

    def __hash__(self):
        return hash((type(self).__name__, self._graph, self._values))

    def __repr__(self):
        body = ", ".join(f"{v}={x}" for v, x in zip(self._graph.vertex_ids, self._values))
        return f"{type(self).__name__}({body})"

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        g = _same_graph(self, other, "+", type(self))
        return type(self)(g, [a + b for a, b in zip(self._values, other._values)])

    def __neg__(self):
        return type(self)(self._graph, [-a for a in self._values])


class Divisor(_VertexMap):
    """An integer chip configuration on the vertices of a graph."""

    @property
    def degree(self) -> int:
        return sum(self._values)

    @property
    def is_effective(self) -> bool:
        return all(v >= 0 for v in self._values)

    def contains(self, other: "Divisor") -> bool:
        """True when both divisors are effective and self - other is too."""
        _same_graph(self, other, "Divisor.contains")
        return (
            self.is_effective
            and other.is_effective
            and all(a >= b for a, b in zip(self._values, other._values))
        )

    def __sub__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        g = _same_graph(self, other, "-")
        return Divisor(g, [a - b for a, b in zip(self._values, other._values)])

    def __mul__(self, scalar):
        scalar = operator.index(scalar)
        return Divisor(self._graph, [scalar * a for a in self._values])

    __rmul__ = __mul__


class FiringScript(_VertexMap):
    """Integer firing levels per vertex; defined up to an additive constant."""

    @property
    def levels(self) -> tuple[int, ...]:
        return self._values

    def normalized(self) -> "FiringScript":
        """The equivalent script with minimum level zero (the canonical form);
        the empty script of the empty graph is its own."""
        lo = min(self._values, default=0)
        if lo == 0:
            return self
        return FiringScript(self._graph, [v - lo for v in self._values])


def _graph_of(divisor: object, operation: str, *, connected: bool = True, kind: type = Divisor) -> Graph:
    """``divisor``'s graph, after the entry check of every public call that
    takes one: a ``kind``, on a connected graph unless ``connected`` is false."""
    graph = _checked(divisor, operation, kind)._graph
    if connected:
        graph.require_connected(operation)
    return graph


def _plain_graph_of(divisor: object, operation: str) -> Graph:
    """``_graph_of``, refusing a graph with weights or loops."""
    graph = _graph_of(divisor, operation)
    if any(graph._weights) or any(graph._loops):
        raise DomainError(f"{operation} is defined on weightless loopless graphs; use rank()")
    return graph


def _same_graph(a: object, b: object, operation: str, kind: type = Divisor) -> Graph:
    """The graph both operands of ``operation``, each a ``kind``, are bound to."""
    graph = _graph_of(a, operation, connected=False, kind=kind)
    if _graph_of(b, operation, connected=False, kind=kind) != graph:
        raise DomainError("operands are bound to different graphs")
    return graph


# -- principal divisors ----------------------------------------------------


def _laplacian_image(graph: Graph, levels: Sequence[int]) -> list[int]:
    out = []
    for row, degree, x in zip(graph._adj_items, graph._degrees, levels):
        acc = -degree * x
        for j, mult in row:
            acc += mult * levels[j]
        out.append(acc)
    return out


def apply_script(script: FiringScript) -> Divisor:
    """The degree-zero divisor produced by firing every vertex its level's
    number of times; invariant under adding a constant to the script."""
    graph = _graph_of(script, "apply_script", connected=False, kind=FiringScript)
    return Divisor(graph, _laplacian_image(graph, script.levels))


def fire_set(graph: Graph, vertices: Iterable[str]) -> Divisor:
    """The principal divisor of firing a vertex set once.

    Each vertex of the set sends one chip along each edge leaving the set,
    so members lose their edge count to the complement and outsiders gain
    their edge count into the set.  Firing the empty set or all of V gives
    the zero divisor.
    """
    indicator = [0] * _checked(graph, "fire_set", Graph).vertex_count
    for i in graph._indices(vertices, "fire_set"):
        indicator[i] = 1
    return Divisor(graph, _laplacian_image(graph, indicator))


def principal_script(divisor: Divisor) -> Optional[FiringScript]:
    """The canonical (minimum level zero) script whose firing produces the
    divisor, or None when the divisor is not principal.

    It is principal exactly when it reduces to zero, at any base (here its
    first most negative vertex); it is then the firing of the reduction's
    levels, negated.
    """
    from .reduction import _debt_base, _reduce_indices

    graph = _graph_of(divisor, "principal_script")
    if divisor.degree != 0:
        return None
    reduced, levels = _reduce_indices(graph, list(divisor.values), _debt_base(divisor.values))
    if any(reduced):
        return None
    script = FiringScript(graph, [-x for x in levels]).normalized()
    if _laplacian_image(graph, script.levels) != list(divisor.values):
        raise InternalError("principal-divisor reduction failed verification")
    return script


def equivalence_script(d1: Divisor, d2: Divisor) -> Optional[FiringScript]:
    """A script x with d1 = d2 + firing(x), or None when d1 and d2 are not
    linearly equivalent."""
    _same_graph(d1, d2, "equivalence_script").require_connected("equivalence_script")
    return principal_script(d1 - d2)


def equivalent(d1: Divisor, d2: Divisor) -> bool:
    _same_graph(d1, d2, "equivalent").require_connected("equivalent")
    return principal_script(d1 - d2) is not None


def layer_decomposition(divisor: Divisor) -> tuple[frozenset[str], ...]:
    """Decompose a nonzero principal divisor as the level sets of its
    canonical script: firing level-set i exactly i times reproduces it.

    The first and last sets are nonempty; intermediate sets may be empty.
    """
    ids = _graph_of(divisor, "layer_decomposition").vertex_ids
    script = principal_script(divisor)
    if script is None:
        raise DomainError("divisor is not principal")
    levels = script.levels
    top = max(levels)
    if top == 0:
        raise DomainError("layer decomposition is undefined for the zero divisor")
    return tuple(
        frozenset(v for v, lv in zip(ids, levels) if lv == i) for i in range(top + 1)
    )


# -- degree/rank scalar maps ------------------------------------------------


def degree_for_rank(rank: int, genus: int) -> int:
    """Minimum degree forcing rank ``rank`` on a genus-``genus`` component:
    rank + min(rank, genus)."""
    rank = operator.index(rank)
    genus = operator.index(genus)
    if rank < 0 or genus < 0:
        raise DomainError("degree_for_rank needs non-negative arguments")
    return rank + min(rank, genus)


def rank_for_degree(degree: int, genus: int) -> int:
    """Maximum rank attainable in degree ``degree`` on a genus-``genus``
    component: max(degree - genus, floor(degree / 2))."""
    degree = operator.index(degree)
    genus = operator.index(genus)
    if degree < 0 or genus < 0:
        raise DomainError("rank_for_degree needs non-negative arguments")
    return max(degree - genus, degree // 2)


def _pointwise_values(graph: Graph, values: Sequence[int], scalar_map) -> tuple[int, ...]:
    """``_pointwise`` on values known to be non-negative, as a tuple."""
    return tuple(map(scalar_map, values, map(operator.add, graph._weights, graph._loops)))


def _pointwise(divisor: Divisor, scalar_map, operation: str) -> Divisor:
    """``scalar_map(value, weight + loops)`` at every vertex of an effective divisor."""
    graph = _graph_of(divisor, operation, connected=False)
    if not divisor.is_effective:
        raise DomainError(f"{operation} is defined for effective divisors only")
    return Divisor(graph, _pointwise_values(graph, divisor.values, scalar_map))


def degree_demand(divisor: Divisor) -> Divisor:
    """Pointwise degree_for_rank against each vertex's local genus.

    On a weightless loopless graph this is the identity.
    """
    return _pointwise(divisor, degree_for_rank, "degree_demand")


def rank_capacity(divisor: Divisor) -> Divisor:
    """Pointwise rank_for_degree against each vertex's local genus."""
    return _pointwise(divisor, rank_for_degree, "rank_capacity")


def rank_lower_bound(divisor: Divisor) -> int:
    """-1 for non-effective divisors, else the minimum of rank_capacity.

    Always a valid lower bound for the combinatorial rank.
    """
    if not _graph_of(divisor, "rank_lower_bound", connected=False).vertex_count:
        raise DomainError("rank_lower_bound needs a graph with at least one vertex")
    if not divisor.is_effective:
        return -1
    return min(_pointwise_values(divisor.graph, divisor.values, rank_for_degree))


def lift_divisor(embedding: HatEmbedding, divisor: Divisor) -> Divisor:
    """Carry a divisor to the hat graph: unchanged on original vertices,
    zero on every fresh vertex.  Degree is preserved."""
    _checked(embedding, "lift_divisor", HatEmbedding)
    if _graph_of(divisor, "lift_divisor", connected=False) != embedding.source:
        raise DomainError("divisor is not bound to the embedding's source graph")
    if embedding.is_trivial:
        return divisor
    extra = embedding.target.vertex_count - embedding.source.vertex_count
    return Divisor(embedding.target, divisor.values + (0,) * extra)


# -- enumeration -------------------------------------------------------------


def iter_effective_values(degree: int, size: int) -> Iterator[tuple[int, ...]]:
    """All non-negative integer tuples of the given length and sum, in
    lexicographic order: C(degree + size - 1, size - 1) of them, and none
    for a negative degree.  A tuple's successor moves one chip from its
    last nonzero entry j > 0 to entry j - 1 and the rest of entry j to the
    last entry, in place.  A non-integer degree or size raises TypeError."""
    degree, size = operator.index(degree), operator.index(size)
    if size < 1 or degree < 0:
        if degree == 0:
            yield ()
        return
    last = size - 1
    e = [0] * last + [degree]
    j = last if degree else 0  # the last nonzero entry, or 0
    while j:
        yield tuple(e)
        rest = e[j] - 1
        e[j] = 0
        e[j - 1] += 1
        e[last] = rest
        j = last if rest else j - 1
    yield tuple(e)
