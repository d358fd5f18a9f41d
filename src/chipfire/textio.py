"""Plain-text graph files and divisor literals.

Graph grammar, one directive per line, where a line ends at ``\\n``,
``\\r\\n`` or ``\\r``; blank lines and ``#`` comments are ignored::

    v <id> [<weight>]      # declare a vertex, weight >= 0, default 0
    e <id1> <id2> [<mult>] # declare edges, mult >= 1, default 1;
                           # id1 == id2 is a loop; repeated lines accumulate

Ids match ``[A-Za-z0-9_-]+`` (no dots, which are reserved for derived
vertices) and integers ``[+-]?[0-9]+``, in ASCII.  Divisor literals are
comma-separated ``id=int`` entries with omitted vertices equal to zero.
``parse_graph(render_graph(g))`` is the identity when every id of ``g``
matches the grammar.  A derived graph (hat, loop-subdivided) has dotted ids
such as ``v1.z1``, so its rendering, which is what ``chipfire hat`` and
``chipfire bullet`` print, does not parse back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from .divisor import Divisor, FiringScript
from .errors import ParseError, quoted
from .graph import Graph, _checked, _rows

_ID = re.compile(r"[A-Za-z0-9_-]+\Z")
_INT = re.compile(r"[+-]?[0-9]+\Z")


def _int(token: str, what: str, owner: str, line: int | None = None) -> int:
    """The integer a token spells, else ``ParseError``; a token past the
    int-string limit is refused too, and a long token is shortened."""
    if _INT.match(token):
        try:
            return int(token)
        except ValueError:
            pass
    reason = ": too many digits" if _INT.match(token) else ""
    raise ParseError(f"bad {what} {quoted(token)} for {owner}{reason}", line)


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph plus the source line of each vertex declaration."""

    graph: Graph
    vertex_lines: Mapping[str, int] = field(hash=False)


def parse_graph(text: str) -> GraphDocument:
    """Parse the line format into a graph, validating each line once: the
    graph's tables are built here, not by a second pass in ``Graph``."""
    _checked(text, "parse_graph", str)
    ids: list[str] = []
    weights: list[int] = []
    index: dict[str, int] = {}
    vertex_lines: dict[str, int] = {}
    loops: list[int] = []
    adj: list[dict[int, int]] = []
    # universal newlines only: str.splitlines would also end a line at \f, \x85, \u2028, ...
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "v":
            if len(tokens) not in (2, 3):
                raise ParseError(f"expected 'v <id> [<weight>]', got {quoted(line)}", lineno)
            vid = tokens[1]
            if not _ID.match(vid):
                raise ParseError(f"bad vertex id {quoted(vid)}", lineno)
            if vid in vertex_lines:
                raise ParseError(
                    f"duplicate vertex {quoted(vid)} (first declared on line {vertex_lines[vid]})",
                    lineno,
                )
            weight = 0
            if len(tokens) == 3:
                weight = _int(tokens[2], "weight", f"vertex {quoted(vid)}", lineno)
                if weight < 0:
                    raise ParseError(
                        f"negative weight {quoted(tokens[2])} for vertex {quoted(vid)}", lineno
                    )
            vertex_lines[vid] = lineno
            index[vid] = len(ids)
            ids.append(vid)
            weights.append(weight)
            loops.append(0)
            adj.append({})
        elif kind == "e":
            if len(tokens) not in (3, 4):
                raise ParseError(f"expected 'e <id1> <id2> [<mult>]', got {quoted(line)}", lineno)
            a, b = tokens[1], tokens[2]
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                endpoint = a if i is None else b  # a is reported before b
                if not _ID.match(endpoint):  # a declared id already matched _ID
                    raise ParseError(f"bad vertex id {quoted(endpoint)}", lineno)
                raise ParseError(f"edge endpoint {quoted(endpoint)} is not declared", lineno)
            mult = 1
            if len(tokens) == 4:
                mult = _int(tokens[3], "multiplicity", f"edge {quoted(a)}-{quoted(b)}", lineno)
                if mult < 1:
                    raise ParseError(
                        f"multiplicity {quoted(tokens[3])} for edge {quoted(a)}-{quoted(b)}; must be >= 1",
                        lineno,
                    )
            if i == j:
                loops[i] += mult
            else:
                adj[i][j] = adj[i].get(j, 0) + mult
                adj[j][i] = adj[j].get(i, 0) + mult
        else:
            raise ParseError(f"unknown directive {quoted(kind)}", lineno)
    graph = Graph.__new__(Graph)
    graph._set_tables(ids, weights, loops, _rows(adj), index)
    return GraphDocument(graph=graph, vertex_lines=vertex_lines)


def render_graph(graph: Graph) -> str:
    """Serialize a graph to the line format; parsing it back reproduces the
    graph exactly when its ids match the grammar (no derived, dotted ids)."""
    _checked(graph, "render_graph", Graph)
    lines = []
    for vid, weight in graph.vertex_items:
        lines.append(f"v {vid} {weight}" if weight else f"v {vid}")
    for (a, b), mult in graph.edge_items():
        lines.append(f"e {a} {b} {mult}" if mult != 1 else f"e {a} {b}")
    return "\n".join(lines) + "\n"


def parse_divisor(text: str, graph: Graph) -> Divisor:
    """Parse a comma-separated ``id=int`` literal against a graph; omitted
    vertices are zero and the empty string is the zero divisor."""
    _checked(text, "parse_divisor", str)
    _checked(graph, "parse_divisor", Graph)
    values: dict[str, int] = {}
    for chunk in text.split(","):
        entry = chunk.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ParseError(f"bad divisor entry {quoted(entry)}; expected id=int")
        vid, _, num = entry.partition("=")
        vid = vid.strip()
        num = num.strip()
        if not graph.has_vertex(vid):
            raise ParseError(f"unknown vertex id {quoted(vid)} in divisor literal")
        if vid in values:
            raise ParseError(f"duplicate vertex id {quoted(vid)} in divisor literal")
        values[vid] = _int(num, "integer", f"vertex {quoted(vid)}")
    return Divisor(graph, values)


def render_divisor(divisor: Divisor | FiringScript) -> str:
    """The canonical literal: nonzero entries in vertex order; empty for the
    zero divisor.  Firing scripts render the same way."""
    _checked(divisor, "render_divisor", (Divisor, FiringScript))
    return ",".join(f"{v}={x}" for v, x in divisor.nonzero_items())
