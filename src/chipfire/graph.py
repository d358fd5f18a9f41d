"""Finite vertex-weighted multigraphs with loops, and their derived graphs.

Vertices keep their declaration order, and every matrix, enumeration, and
witness produced by this package is expressed in that order, so all outputs
are deterministic.  Graphs are immutable after construction and safe to
share between threads; derived graphs (hat, loop-stripped, loop-subdivided,
edge-augmented) are new values, and a graph keeps its hat once built.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Union

from .errors import DisconnectedError, DomainError, GraphError

VertexSpec = Union[str, tuple, list]
EdgeSpec = Union[tuple, list]

_second = operator.itemgetter(1)


def _checked(value, operation: str, kind):
    """``value``, after the type check of every public call's argument: a
    ``DomainError`` naming ``operation`` unless it is a ``kind`` (a type or a
    tuple of types).  A string is no ``Iterable`` here: it is no collection
    of ids, specs or values, as ``"ab"`` is not ``{"a", "b"}``."""
    if not isinstance(value, kind) or (kind is Iterable and isinstance(value, str)):
        names = " or ".join(k.__name__ for k in kind) if isinstance(kind, tuple) else kind.__name__
        article = "an" if names[0] in "AEIOU" else "a"
        raise DomainError(f"{operation} expects {article} {names}, got {type(value).__name__}")
    return value


class Graph:
    """A finite multigraph with non-negative integer vertex weights and loops.

    ``vertices`` is an iterable of ids or ``(id, weight)`` pairs; ``edges``
    an iterable of ``(a, b)`` or ``(a, b, multiplicity)`` with ``a == b``
    meaning a loop.  A pair or edge is a tuple (a namedtuple too) or a list.
    Repeated edge entries accumulate multiplicity.

    The intersection pairing of two distinct vertices is the number of
    edges joining them; loops never contribute to it.  ``valency`` counts
    each loop twice, which is what makes the canonical divisor come out
    with total degree ``2*genus - 2``.

    Per-graph tables are computed once at construction, which is safe
    because graphs are immutable: one adjacency table (for each vertex, its
    ``(neighbour, multiplicity)`` pairs sorted by neighbour index, loops
    excluded), the loop counts, the vertex degrees and the loopless genus.
    """

    __slots__ = (
        "_ids",
        "_index",
        "_weights",
        "_loops",
        "_adj_items",
        "_degrees",
        "_loopless_genus",
        "_connected",
        "_hash",
        "_hat",
    )

    def __init__(self, vertices: Iterable[VertexSpec], edges: Iterable[EdgeSpec] = ()):
        for specs in (vertices, edges):
            if type(specs) is not list:  # the usual argument is tested first
                _checked(specs, "Graph", Iterable)
        ids: list[str] = []
        weights: list[int] = []
        index: dict[str, int] = {}
        for spec in vertices:  # the exact tuple, the usual spec, is tested first
            if (type(spec) is tuple or isinstance(spec, (tuple, list))) and len(spec) == 2:
                vid, weight = spec
            elif isinstance(spec, str):
                vid, weight = spec, 0
            else:
                raise GraphError(f"bad vertex spec {spec!r}; expected id or (id, weight)")
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
        for spec in edges:  # likewise; a string is no spec: "ab" is not ("a", "b")
            size = len(spec) if type(spec) is tuple or isinstance(spec, (tuple, list)) else 0
            if size == 2:
                (a, b), mult = spec, 1
            elif size == 3:
                a, b, mult = spec
            else:
                raise GraphError(f"bad edge spec {spec!r}; expected (a, b) or (a, b, mult)")
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                missing = a if i is None else b
                raise GraphError(f"edge endpoint {missing!r} is not a declared vertex")
            mult = operator.index(mult)
            if mult < 1:
                raise GraphError(f"edge {a!r}-{b!r} has multiplicity {mult}; must be >= 1")
            if i == j:
                loops[i] += mult
            else:
                adj[i][j] = adj[i].get(j, 0) + mult
                adj[j][i] = adj[j].get(i, 0) + mult

        self._set_tables(ids, weights, loops, [tuple(sorted(row.items())) for row in adj], index)

    def _set_tables(self, ids, weights, loops, adj_items, index=None) -> None:
        """Store valid tables and derive the rest: every graph ends here."""
        self._ids = ids = tuple(ids)
        self._index = dict(zip(ids, range(len(ids)))) if index is None else index
        self._weights = tuple(weights)
        self._loops = tuple(loops)
        self._adj_items = adj_items = tuple(adj_items)
        self._degrees = tuple([sum(map(_second, row)) for row in adj_items])  # loops excluded
        self._connected: bool | None = None
        self._hash: int | None = None
        # hat_graph's (target, added) once built; always None on a graph that is its own hat
        self._hat: tuple[Graph, dict[str, tuple[str, ...]]] | None = None
        # non-loop edges - n + 1: on a connected graph, the most chips a
        # base-reduced divisor holds off the base
        self._loopless_genus = sum(self._degrees) // 2 - len(ids) + 1

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
        except (KeyError, TypeError):  # an unhashable value is no vertex id either
            raise GraphError(f"unknown vertex id {vertex!r}") from None

    def _indices(self, vertices: Iterable[str], operation: str) -> frozenset[int]:
        """The indices of the vertex set that ``operation`` was handed."""
        return frozenset(map(self.index, _checked(vertices, operation, Iterable)))

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
        return next((mult for w, mult in self._adj_items[i] if w == j), 0)

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
        return self._loopless_genus + len(self._ids) - 1 + sum(self._loops)

    def valency(self, vertex: str) -> int:
        """Number of edge endpoints at the vertex; each loop contributes 2."""
        i = self.index(vertex)
        return self._degrees[i] + 2 * self._loops[i]

    # -- connectivity ---------------------------------------------------

    def _index_components(self) -> list[list[int]]:
        """The vertex indices of each component, in the order found."""
        seen = [False] * len(self._ids)
        comps = []
        for start in range(len(seen)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for v in comp:
                for w, _ in self._adj_items[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(comp)
        return comps

    def components(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(self._ids[v] for v in sorted(comp)) for comp in self._index_components())

    @property
    def is_connected(self) -> bool:
        """Exactly one component: the empty graph is not connected."""
        if self._connected is None:
            self._connected = len(self._index_components()) == 1
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
        return sum(self._weights) + sum(self._loops) + self._loopless_genus

    def intersection(self, a: Iterable[str], b: Iterable[str]) -> int:
        """Total multiplicity of edges with one endpoint in a and the other in b.

        The two sets must be disjoint; loops never contribute.
        """
        ai, bi = self._indices(a, "intersection"), self._indices(b, "intersection")
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
        return Graph(self.vertex_items, existing + list(_checked(edges, "with_extra_edges", Iterable)))

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


def _hang_fresh(
    graph: Graph, weights: Sequence[int], counts: Sequence[int]
) -> tuple[Graph, dict[str, tuple[str, ...]]]:
    """The graph without its loops, with the given vertex weights, and
    ``counts[i]`` fresh weight-zero vertices hung on vertex i by double
    edges, built from the graph's already valid tables; returns it and the
    map from each vertex to its fresh ones.  When that changes nothing (the
    same weights, no loops, nothing to hang) it is the graph itself.

    Fresh ids are ``<vertex>.z<k>``, k from 1, skipping taken ids: the text
    grammar reserves the dot, so user ids never collide, and derived graphs
    of derived graphs stay collision-free.  Fresh vertices come after every
    original one, so appending them keeps each row sorted."""
    added: dict[str, tuple[str, ...]] = dict.fromkeys(graph._ids, ())
    if tuple(weights) == graph._weights and not any(graph._loops) and not any(counts):
        return graph, added
    ids, rows = list(graph._ids), list(graph._adj_items)
    for i, (v, count) in enumerate(zip(graph._ids, counts)):
        if count:
            fresh, k = [], 0
            while len(fresh) < count:
                k += 1
                if f"{v}.z{k}" not in graph._index:
                    fresh.append(f"{v}.z{k}")
            added[v] = tuple(fresh)
            rows[i] += tuple((z, 2) for z in range(len(ids), len(ids) + count))
            rows.extend([((i, 2),)] * count)
            ids.extend(fresh)
    derived = Graph.__new__(Graph)
    derived._set_tables(ids, [*weights] + [0] * (len(ids) - len(weights)), [0] * len(ids), rows)
    return derived, added


def hat_graph(graph: Graph) -> HatEmbedding:
    """Eliminate weights and loops without changing the genus.

    Weightless loopless graphs come back unchanged (same object); any other
    graph builds its hat once and keeps the target and fresh-vertex map,
    which do not refer back to it.  Each call returns its own ``added``.
    """
    _checked(graph, "hat_graph", Graph)
    if graph._hat is None:
        genera = [w + loops for w, loops in zip(graph._weights, graph._loops)]
        hat = _hang_fresh(graph, [0] * graph.vertex_count, genera)
        if hat[0] is graph:  # a graph that is its own hat keeps no reference to itself
            return HatEmbedding(graph, graph, hat[1])
        graph._hat = hat
    return HatEmbedding(graph, graph._hat[0], dict(graph._hat[1]))


def strip_weights_and_loops(graph: Graph) -> Graph:
    """Same vertex set with all weights zeroed and all loops removed.

    This map does not preserve the combinatorial rank; it is the cheap
    simplification against which rank comparisons are made.
    """
    _checked(graph, "strip_weights_and_loops", Graph)
    zeros = [0] * graph.vertex_count
    return _hang_fresh(graph, zeros, zeros)[0]


def subdivide_loops(graph: Graph) -> tuple[Graph, dict[str, tuple[str, ...]]]:
    """Replace every loop by a 2-path through a fresh weight-zero vertex.

    Weights are untouched and the genus is preserved.  Returns the new
    graph and the map from each original vertex to its fresh midpoints.
    """
    _checked(graph, "subdivide_loops", Graph)
    return _hang_fresh(graph, graph.weights, graph._loops)
