"""Finite vertex-weighted multigraphs with loops, and their derived graphs.

Vertices keep their declaration order, and every matrix, enumeration, and
witness produced by this package is expressed in that order, so all outputs
are deterministic.  Graphs are immutable after construction and safe to
share between threads; derived graphs (hat, loop-stripped, loop-subdivided,
edge-augmented) are new values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

from .errors import DisconnectedError, DomainError, GraphError

VertexSpec = Union[str, Sequence]
EdgeSpec = Sequence


class Graph:
    """A finite multigraph with non-negative integer vertex weights and loops.

    ``vertices`` is an iterable of ids or ``(id, weight)`` pairs; ``edges``
    an iterable of ``(a, b)`` or ``(a, b, multiplicity)`` with ``a == b``
    meaning a loop.  Repeated edge entries accumulate multiplicity.

    The intersection pairing of two distinct vertices is the number of
    edges joining them; loops never contribute to it.  ``valency`` counts
    each loop twice, which is what makes the canonical divisor come out
    with total degree ``2*genus - 2``.

    Per-graph tables (adjacency rows, vertex degrees) are computed once at
    construction, which is safe because graphs are immutable.
    """

    __slots__ = (
        "_ids",
        "_index",
        "_weights",
        "_loops",
        "_adj",
        "_adj_items",
        "_degrees",
        "_connected",
        "_hash",
        "_edge_count",
    )

    def __init__(self, vertices: Iterable[VertexSpec], edges: Iterable[EdgeSpec] = ()):
        ids: list[str] = []
        weights: list[int] = []
        index: dict[str, int] = {}
        for spec in vertices:
            if isinstance(spec, str):
                vid, weight = spec, 0
            else:
                try:
                    vid, weight = spec
                except (TypeError, ValueError):
                    raise GraphError(f"bad vertex spec {spec!r}; expected id or (id, weight)") from None
            if not isinstance(vid, str) or not vid:
                raise GraphError(f"vertex id must be a non-empty string, got {vid!r}")
            if vid in index:
                raise GraphError(f"duplicate vertex id {vid!r}")
            weight = operator.index(weight)
            if weight < 0:
                raise GraphError(f"vertex {vid!r} has negative weight {weight}")
            index[vid] = len(ids)
            ids.append(vid)
            weights.append(weight)

        loops = [0] * len(ids)
        adj: list[dict[int, int]] = [dict() for _ in ids]
        for spec in edges:
            spec = tuple(spec)
            if len(spec) == 2:
                (a, b), mult = spec, 1
            elif len(spec) == 3:
                a, b, mult = spec
            else:
                raise GraphError(f"bad edge spec {spec!r}; expected (a, b) or (a, b, mult)")
            for endpoint in (a, b):
                if endpoint not in index:
                    raise GraphError(f"edge endpoint {endpoint!r} is not a declared vertex")
            mult = operator.index(mult)
            if mult < 1:
                raise GraphError(f"edge {a!r}-{b!r} has multiplicity {mult}; must be >= 1")
            i, j = index[a], index[b]
            if i == j:
                loops[i] += mult
            else:
                adj[i][j] = adj[i].get(j, 0) + mult
                adj[j][i] = adj[j].get(i, 0) + mult

        self._ids = tuple(ids)
        self._index = index
        self._weights = tuple(weights)
        self._loops = tuple(loops)
        self._adj = tuple(adj)
        self._adj_items = tuple(tuple(sorted(row.items())) for row in adj)
        self._degrees = tuple(sum(row.values()) for row in adj)  # loops excluded
        self._connected: bool | None = None
        self._hash: int | None = None
        self._edge_count = sum(self._degrees) // 2 + sum(loops)

    # -- basic structure ------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def vertex_items(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self._ids, self._weights))

    @property
    def vertex_count(self) -> int:
        return len(self._ids)

    @property
    def weights(self) -> tuple[int, ...]:
        return self._weights

    def index(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise GraphError(f"unknown vertex id {vertex!r}") from None

    def has_vertex(self, vertex: str) -> bool:
        return vertex in self._index

    def weight(self, vertex: str) -> int:
        return self._weights[self.index(vertex)]

    def loop_count(self, vertex: str) -> int:
        return self._loops[self.index(vertex)]

    def local_genus(self, vertex: str) -> int:
        """Weight plus number of loops: the genus concentrated at this vertex."""
        i = self.index(vertex)
        return self._weights[i] + self._loops[i]

    def multiplicity(self, a: str, b: str) -> int:
        """Number of edges joining a and b; for a == b, the loop count at a."""
        i, j = self.index(a), self.index(b)
        if i == j:
            return self._loops[i]
        return self._adj[i].get(j, 0)

    def edge_items(self) -> tuple[tuple[tuple[str, str], int], ...]:
        """All edges as ((a, b), multiplicity), loops as ((v, v), count), in index order."""
        out = []
        for i, vid in enumerate(self._ids):
            if self._loops[i]:
                out.append(((vid, vid), self._loops[i]))
            for j, mult in self._adj_items[i]:
                if j > i:
                    out.append(((vid, self._ids[j]), mult))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        """Total number of edges counted with multiplicity, loops included."""
        return self._edge_count

    def valency(self, vertex: str) -> int:
        """Number of edge endpoints at the vertex; each loop contributes 2."""
        i = self.index(vertex)
        return self._degrees[i] + 2 * self._loops[i]

    # -- connectivity ---------------------------------------------------

    def components(self) -> tuple[tuple[str, ...], ...]:
        n = len(self._ids)
        seen = [False] * n
        comps = []
        for start in range(n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(self._ids[v] for v in sorted(comp)))
        return tuple(comps)

    @property
    def is_connected(self) -> bool:
        """Exactly one component: the empty graph is not connected."""
        if self._connected is None:
            self._connected = len(self.components()) == 1
        return self._connected

    def require_connected(self, operation: str) -> None:
        if not self.is_connected:
            raise DisconnectedError(f"{operation} requires a connected graph")

    # -- invariants -----------------------------------------------------

    def genus(self) -> int:
        """Total weight plus first Betti number.

        The per-component formula summed with the 1-c correction telescopes
        to the same global expression, so no component split is needed.
        """
        return sum(self._weights) + self.edge_count - self.vertex_count + 1

    def intersection(self, a: Iterable[str], b: Iterable[str]) -> int:
        """Total multiplicity of edges with one endpoint in a and the other in b.

        The two sets must be disjoint; loops never contribute.
        """
        ai = frozenset(self.index(v) for v in a)
        bi = frozenset(self.index(v) for v in b)
        if ai & bi:
            raise DomainError("intersection requires disjoint vertex sets")
        if len(bi) < len(ai):
            ai, bi = bi, ai
        total = 0
        for i in ai:
            for j, mult in self._adj_items[i]:
                if j in bi:
                    total += mult
        return total

    def laplacian(self) -> tuple[tuple[int, ...], ...]:
        """Integer matrix L with L[i][j] the edge multiplicity for i != j and
        L[i][i] = -sum of row off-diagonals; applying it to the indicator
        vector of a vertex set Z yields the divisor obtained by firing Z.
        Loops contribute nowhere.
        """
        n = len(self._ids)
        rows = []
        for i in range(n):
            row = [0] * n
            for j, mult in self._adj_items[i]:
                row[j] = mult
            row[i] = -self._degrees[i]
            rows.append(tuple(row))
        return tuple(rows)

    def canonical_divisor(self):
        """The divisor with value valency(v) + 2*weight(v) - 2 at each vertex."""
        from .divisor import Divisor

        values = [
            deg + 2 * loops + 2 * weight - 2
            for deg, loops, weight in zip(self._degrees, self._loops, self._weights)
        ]
        return Divisor(self, values)

    # -- derived graphs -------------------------------------------------

    def with_extra_edges(self, edges: Iterable[EdgeSpec]) -> "Graph":
        """A new graph with the same vertices and the given edges added."""
        existing = [(a, b, m) for (a, b), m in self.edge_items()]
        return Graph(self.vertex_items, existing + [tuple(e) for e in edges])

    # -- equality -------------------------------------------------------

    def _key(self):
        return (self._ids, self._weights, self._loops, self._adj_items)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges, genus {self.genus()})"


@dataclass(frozen=True)
class HatEmbedding:
    """The weightless loopless surrogate of a graph.

    ``target`` is obtained from ``source`` by turning each unit of vertex
    weight into a loop and then subdividing every loop with a fresh vertex,
    so each unit of local genus at v becomes a 2-cycle v - v.zk - v.  The
    genus is preserved and ``added`` maps each original vertex to its fresh
    neighbours in creation order.
    """

    source: Graph
    target: Graph
    added: Mapping[str, tuple[str, ...]] = field(hash=False)

    @property
    def is_trivial(self) -> bool:
        return self.target is self.source


def _fresh_ids(graph: Graph, vertex: str, count: int) -> tuple[str, ...]:
    """``<vertex>.z<k>`` names, k from 1, skipping any id already present.

    The dot is reserved by the text grammar, so user input never collides;
    skipping keeps derived-of-derived graphs collision-free too.
    """
    out: list[str] = []
    k = 1
    while len(out) < count:
        name = f"{vertex}.z{k}"
        if not graph.has_vertex(name):
            out.append(name)
        k += 1
    return tuple(out)


def _hang_fresh(
    graph: Graph, weights: Sequence[int], counts: Sequence[int]
) -> tuple[Graph, dict[str, tuple[str, ...]]]:
    """The graph without its loops, with the given vertex weights, and
    ``counts[i]`` fresh weight-zero vertices hung on vertex i by double
    edges; returns it and the map from each vertex to its fresh ones."""
    vertices: list[tuple[str, int]] = list(zip(graph.vertex_ids, weights))
    edges: list[tuple[str, str, int]] = [
        (a, b, mult) for (a, b), mult in graph.edge_items() if a != b
    ]
    added: dict[str, tuple[str, ...]] = {}
    for v, count in zip(graph.vertex_ids, counts):
        fresh = _fresh_ids(graph, v, count)
        added[v] = fresh
        for z in fresh:
            vertices.append((z, 0))
            edges.append((v, z, 2))
    return Graph(vertices, edges), added


def hat_graph(graph: Graph) -> HatEmbedding:
    """Eliminate weights and loops without changing the genus.

    Weightless loopless graphs come back unchanged (same object).
    """
    genera = [graph.local_genus(v) for v in graph.vertex_ids]
    if not any(genera):
        return HatEmbedding(graph, graph, {v: () for v in graph.vertex_ids})
    return HatEmbedding(graph, *_hang_fresh(graph, [0] * graph.vertex_count, genera))


def strip_weights_and_loops(graph: Graph) -> Graph:
    """Same vertex set with all weights zeroed and all loops removed.

    This map does not preserve the combinatorial rank; it is the cheap
    simplification against which rank comparisons are made.
    """
    if not any(graph.weights) and not any(graph._loops):
        return graph
    zeros = [0] * graph.vertex_count
    return _hang_fresh(graph, zeros, zeros)[0]


def subdivide_loops(graph: Graph) -> tuple[Graph, dict[str, tuple[str, ...]]]:
    """Replace every loop by a 2-path through a fresh weight-zero vertex.

    Weights are untouched and the genus is preserved.  Returns the new
    graph and the map from each original vertex to its fresh midpoints.
    """
    if not any(graph._loops):
        return graph, {v: () for v in graph.vertex_ids}
    return _hang_fresh(graph, graph.weights, graph._loops)
