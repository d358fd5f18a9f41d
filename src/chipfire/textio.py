"""Plain-text graph files and divisor literals.

Graph grammar, one directive per line; blank lines and ``#`` comments are
ignored::

    v <id> [<weight>]      # declare a vertex, weight >= 0, default 0
    e <id1> <id2> [<mult>] # declare edges, mult >= 1, default 1;
                           # id1 == id2 is a loop; repeated lines accumulate

Ids match ``[A-Za-z0-9_-]+`` (no dots, which are reserved for derived
vertices).  Divisor literals are comma-separated ``id=int`` entries with
omitted vertices equal to zero.  ``parse_graph(render_graph(g))`` is the
identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from .divisor import Divisor, FiringScript
from .errors import ParseError
from .graph import Graph

_ID = re.compile(r"[A-Za-z0-9_-]+\Z")
_INT = re.compile(r"[+-]?\d+\Z")
_SHOWN = 40  # longest token quoted in full in an error message


def _int(token: str, what: str, owner: str, line: int | None = None) -> int:
    """The integer a token spells, else ``ParseError``; a token past the
    int-string limit is refused too, and a long token is shortened."""
    if _INT.match(token):
        try:
            return int(token)
        except ValueError:
            pass
    shown = repr(token) if len(token) <= _SHOWN else f"{token[:_SHOWN]!r}... ({len(token)} characters)"
    reason = ": too many digits" if _INT.match(token) else ""
    raise ParseError(f"bad {what} {shown} for {owner}{reason}", line)


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph plus the source line of each vertex declaration."""

    graph: Graph
    vertex_lines: Mapping[str, int] = field(hash=False)


def parse_graph(text: str) -> GraphDocument:
    vertices: list[tuple[str, int]] = []
    vertex_lines: dict[str, int] = {}
    edges: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "v":
            if len(tokens) not in (2, 3):
                raise ParseError(f"expected 'v <id> [<weight>]', got {line!r}", lineno)
            vid = tokens[1]
            if not _ID.match(vid):
                raise ParseError(f"bad vertex id {vid!r}", lineno)
            if vid in vertex_lines:
                raise ParseError(
                    f"duplicate vertex {vid!r} (first declared on line {vertex_lines[vid]})",
                    lineno,
                )
            weight = 0
            if len(tokens) == 3:
                weight = _int(tokens[2], "weight", f"vertex {vid!r}", lineno)
                if weight < 0:
                    raise ParseError(f"negative weight {weight} for vertex {vid!r}", lineno)
            vertex_lines[vid] = lineno
            vertices.append((vid, weight))
        elif kind == "e":
            if len(tokens) not in (3, 4):
                raise ParseError(f"expected 'e <id1> <id2> [<mult>]', got {line!r}", lineno)
            a, b = tokens[1], tokens[2]
            for endpoint in (a, b):
                if not _ID.match(endpoint):
                    raise ParseError(f"bad vertex id {endpoint!r}", lineno)
                if endpoint not in vertex_lines:
                    raise ParseError(f"edge endpoint {endpoint!r} is not declared", lineno)
            mult = 1
            if len(tokens) == 4:
                mult = _int(tokens[3], "multiplicity", f"edge {a!r}-{b!r}", lineno)
                if mult < 1:
                    raise ParseError(f"multiplicity {mult} for edge {a!r}-{b!r}; must be >= 1", lineno)
            edges.append((a, b, mult))
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    return GraphDocument(graph=Graph(vertices, edges), vertex_lines=vertex_lines)


def render_graph(graph: Graph) -> str:
    """Serialize a graph to the line format; parsing it back reproduces the
    graph exactly."""
    lines = []
    for vid, weight in graph.vertex_items:
        lines.append(f"v {vid} {weight}" if weight else f"v {vid}")
    for (a, b), mult in graph.edge_items():
        lines.append(f"e {a} {b} {mult}" if mult != 1 else f"e {a} {b}")
    return "\n".join(lines) + "\n"


def parse_divisor(text: str, graph: Graph) -> Divisor:
    """Parse a comma-separated ``id=int`` literal against a graph; omitted
    vertices are zero and the empty string is the zero divisor."""
    values: dict[str, int] = {}
    for chunk in text.split(","):
        entry = chunk.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ParseError(f"bad divisor entry {entry!r}; expected id=int")
        vid, _, num = entry.partition("=")
        vid = vid.strip()
        num = num.strip()
        if not graph.has_vertex(vid):
            raise ParseError(f"unknown vertex id {vid!r} in divisor literal")
        if vid in values:
            raise ParseError(f"duplicate vertex id {vid!r} in divisor literal")
        values[vid] = _int(num, "integer", f"vertex {vid!r}")
    return Divisor(graph, values)


def render_divisor(divisor: Divisor | FiringScript) -> str:
    """The canonical literal: nonzero entries in vertex order; empty for the
    zero divisor.  Firing scripts render the same way."""
    return ",".join(f"{v}={x}" for v, x in divisor.nonzero_items())
