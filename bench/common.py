"""Arithmetic and sampling shared by the workloads.

Everything here is the benchmark's own code: it imports nothing from
``chipfire``, so the checks built on it stay independent of the program
they check.  Graphs are plain adjacency lists over vertex indices.
"""

from __future__ import annotations

import math


def adjacency(n: int, edges) -> list[dict[int, int]]:
    """Neighbour multiplicities for edges ``(a, b, mult)``; loops are dropped,
    since they never move chips."""
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for a, b, mult in edges:
        if a != b:
            adj[a][b] = adj[a].get(b, 0) + mult
            adj[b][a] = adj[b].get(a, 0) + mult
    return adj


def fire(adj: list[dict[int, int]], levels) -> list[int]:
    """Chips gained at each vertex when every vertex fires its level's
    number of times: sum over neighbours w of mult * (level[w] - level[v])."""
    return [
        sum(mult * (levels[w] - levels[v]) for w, mult in row.items())
        for v, row in enumerate(adj)
    ]


def burn(adj: list[dict[int, int]], values, base: int):
    """Dhar's burning game from ``base``: day 0 burns the base alone, and a
    vertex burns on the next day once its chips are fewer than its edges
    into the burned region.  Returns (layers, unburned) as sorted index
    lists.  Only neighbours of the last day's fires are re-tested, since
    nothing else changed."""
    burned = {base}
    into = [0] * len(adj)
    layers = [[base]]
    frontier = [base]
    while frontier:
        touched = set()
        for v in frontier:
            for w, mult in adj[v].items():
                if w not in burned:
                    into[w] += mult
                    touched.add(w)
        frontier = sorted(w for w in touched if values[w] < into[w])
        if frontier:
            burned.update(frontier)
            layers.append(frontier)
    unburned = [v for v in range(len(adj)) if v not in burned]
    return layers, unburned


def stratified(pool: list, count: int, key) -> list:
    """``count`` items of ``pool``: the middle one of each of ``count`` equal
    blocks of the pool sorted by ``key``.  The sample then follows the
    pool's distribution of ``key`` quantile by quantile, so two seeds draw
    the same mix of cheap and costly inputs; the larger the pool, the closer
    two seeds' mixes are."""
    if count > len(pool):
        raise ValueError("stratified sample larger than its pool")
    ranked = sorted(pool, key=key)
    width = len(ranked) / count
    return [ranked[int((i + 0.5) * width)] for i in range(count)]


def percentile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation between order
    statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def top_level_cost(vertices: int, degree: int, genus: int) -> int:
    """Candidates at the highest level an exhaustive rank search of a divisor
    of this degree can reach: the rank is at most max(deg - g, deg // 2)."""
    if degree < 0:
        return 1
    if vertices == 1:
        return degree + 2
    top = max(degree - genus, degree // 2) + 1
    return math.comb(top + vertices - 1, vertices - 1)
