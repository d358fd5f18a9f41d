import random

import pytest
from hypothesis import strategies as st

import chipfire as cf


@pytest.fixture
def dhar5():
    return cf.load_fixture("dhar5")


@pytest.fixture
def weighted_binary():
    return cf.load_fixture("weighted-binary")


def recorded(monkeypatch, owner, name):
    """The calls made from now on to ``owner.name``, which still runs: one
    ``(args, kwargs)`` pair each, the positional arguments and the keyword
    arguments (an empty dict when there are none)."""
    calls = []
    function = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def binary_graph(genus):
    return cf.Graph(["v1", "v2"], [("v1", "v2", genus + 1)])


def cycle_graph(n):
    ids = [f"v{i}" for i in range(n)]
    return cf.Graph(ids, [(ids[i], ids[(i + 1) % n]) for i in range(n)])


def grid_graph(rows, cols, vertex="g{i}_{j}"):
    """The rows x cols grid, row by row: the vertex in row i and column j,
    whose row-major index is k, is ``vertex`` formatted with i, j and k."""
    ids = [vertex.format(i=i, j=j, k=i * cols + j) for i in range(rows) for j in range(cols)]
    return cf.Graph(ids, [(ids[k], ids[k + 1]) for k in range(len(ids)) if (k + 1) % cols] + [
        (ids[k], ids[k + cols]) for k in range(len(ids) - cols)
    ])


def tadpole_graph(n):
    """The path v0 - ... - v(n-1) whose last three vertices close a triangle."""
    ids = [f"v{i}" for i in range(n)]
    return cf.Graph(ids, [(ids[i], ids[i + 1]) for i in range(n - 1)] + [(ids[n - 3], ids[n - 1])])


@st.composite
def connected_graphs(draw, max_vertices=5, max_extra=4, max_weight=2, loops=True):
    n = draw(st.integers(1, max_vertices))
    ids = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((ids[draw(st.integers(0, i - 1))], ids[i]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(pairs, max_size=max_extra)):
        if i == j and not loops:
            continue
        edges.append((ids[i], ids[j]))
    weights = [draw(st.integers(0, max_weight)) for _ in ids]
    return cf.Graph(list(zip(ids, weights)), edges)


@st.composite
def graph_with_divisor(draw, max_vertices=5, max_extra=4, max_weight=2, lo=-3, hi=4, loops=True):
    graph = draw(connected_graphs(max_vertices, max_extra, max_weight, loops))
    values = [draw(st.integers(lo, hi)) for _ in graph.vertex_ids]
    return graph, cf.Divisor(graph, values)


def seeded_instances(seed, count, *, max_vertices=6, max_edges=10, max_weight=2, max_value=3):
    """Deterministic (graph, divisor) stream for the heavier randomized loops."""
    rng = random.Random(seed)
    for _ in range(count):
        graph = cf.random_connected_graph(rng, max_vertices, max_edges, max_weight)
        yield rng, graph, cf.random_divisor(rng, graph, max_value)
