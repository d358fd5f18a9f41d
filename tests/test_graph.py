import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import chipfire as cf
from conftest import binary_graph, connected_graphs


# -- construction and validation --------------------------------------------


def test_duplicate_vertex_rejected():
    with pytest.raises(cf.GraphError):
        cf.Graph(["a", "a"])


def test_negative_weight_rejected():
    with pytest.raises(cf.GraphError):
        cf.Graph([("a", -1)])


def test_unknown_endpoint_rejected():
    with pytest.raises(cf.GraphError):
        cf.Graph(["a"], [("a", "b")])


def test_zero_multiplicity_rejected():
    with pytest.raises(cf.GraphError):
        cf.Graph(["a", "b"], [("a", "b", 0)])


def test_repeated_edges_accumulate():
    g = cf.Graph(["a", "b"], [("a", "b"), ("a", "b", 2)])
    assert g.multiplicity("a", "b") == 3
    assert g.edge_count == 3


def test_non_integer_weight_rejected():
    with pytest.raises(TypeError):
        cf.Graph([("a", 1.5)])


# -- genus -------------------------------------------------------------------


def test_genus_single_weighted_vertex():
    for g in range(6):
        assert cf.Graph([("v", g)]).genus() == g


def test_genus_binary():
    for g in range(6):
        assert binary_graph(g).genus() == g


def test_genus_dhar5(dhar5):
    g = dhar5.graph
    assert g.edge_count == 14
    assert g.vertex_count == 5
    assert g.genus() == 10


def test_genus_disconnected_uses_component_formula():
    # two disjoint triangles: each component has genus 1
    g = cf.Graph(
        ["a", "b", "c", "x", "y", "z"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"), ("z", "x")],
    )
    assert len(g.components()) == 2
    assert g.genus() == 1  # 1 + 1 + 1 - 2


def test_empty_graph_is_not_connected():
    # connected means exactly one component, and the empty graph has none
    g = cf.Graph([])
    d = cf.Divisor(g, ())
    assert g.components() == () and not g.is_connected
    assert cf.Graph(["a"]).is_connected
    for call in (
        lambda: cf.rank(d),
        lambda: cf.rank_geq(d, 0),
        lambda: cf.brute_rank(d),
        lambda: cf.equivalent(d, d),
        lambda: cf.riemann_roch_residual(d),
    ):
        with pytest.raises(cf.DisconnectedError):
            call()
    with pytest.raises(cf.DomainError):
        cf.rank_lower_bound(d)
    empty_script = cf.FiringScript(g, ())
    assert empty_script.normalized() is empty_script


# -- adjacency accessors -----------------------------------------------------


def _seeded_multigraphs(seed, count):
    """Graphs with parallel edges, loops, isolated vertices and, often,
    several components."""
    rng = random.Random(seed)
    for _ in range(count):
        ids = [f"v{i}" for i in range(rng.randint(1, 9))]
        edges = [
            (rng.choice(ids), rng.choice(ids), rng.randint(1, 3))
            for _ in range(rng.randint(0, len(ids) + 2))
        ]
        yield cf.Graph(ids, edges)


def test_multiplicity_and_components_match_edge_items():
    shapes = set()  # which of the listed features the draws covered
    for g in _seeded_multigraphs(14, 300):
        ids = g.vertex_ids
        counts = {}
        parent = {v: v for v in ids}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for (a, b), mult in g.edge_items():
            counts[a, b] = counts.get((a, b), 0) + mult
            if a != b:
                counts[b, a] = counts.get((b, a), 0) + mult
            parent[find(a)] = find(b)
        for a in ids:
            for b in ids:
                assert g.multiplicity(a, b) == counts.get((a, b), 0)
        groups = {}
        for v in ids:
            groups.setdefault(find(v), []).append(v)
        assert g.components() == tuple(tuple(group) for group in groups.values())
        if len(groups) > 1:
            shapes.add("components")
        if any(all((v, w) not in counts for w in ids) for v in ids):
            shapes.add("isolated")
        if any(m > 1 for (a, b), m in counts.items() if a != b):
            shapes.add("parallel")
        if any(a == b for a, b in counts):
            shapes.add("loops")
    assert shapes == {"components", "isolated", "parallel", "loops"}
    assert "_adj" not in cf.Graph.__slots__


# -- valency -----------------------------------------------------------------


def test_valency_isolated():
    assert cf.Graph(["a"]).valency("a") == 0


def test_valency_loop_counts_twice():
    g = cf.Graph(["a", "b"], [("a", "a"), ("a", "b")])
    assert g.valency("a") == 3


def test_valency_dhar5_v4(dhar5):
    assert dhar5.graph.valency("v4") == 4


def test_valency_unknown_vertex(dhar5):
    with pytest.raises(cf.GraphError):
        dhar5.graph.valency("nope")


# -- intersection ------------------------------------------------------------


def test_intersection_dhar5(dhar5):
    g = dhar5.graph
    assert g.intersection({"v3"}, {"v0", "v1", "v2"}) == 4
    assert g.intersection({"v0"}, {"v3", "v4"}) == 2


def test_intersection_disjoint_components():
    g = cf.Graph(["a", "b"], [])
    assert g.intersection({"a"}, {"b"}) == 0


def test_intersection_rejects_overlap(dhar5):
    with pytest.raises(cf.DomainError):
        dhar5.graph.intersection({"v0", "v1"}, {"v1"})


# -- laplacian ---------------------------------------------------------------


def test_laplacian_single_vertex():
    assert cf.Graph(["a"]).laplacian() == ((0,),)


def test_laplacian_parallel_edges():
    g = cf.Graph(["a", "b"], [("a", "b", 4)])
    assert g.laplacian() == ((-4, 4), (4, -4))


def test_laplacian_matches_set_firing(dhar5):
    g = dhar5.graph
    lap = g.laplacian()
    indicator = [1 if v in {"v1", "v2", "v4"} else 0 for v in g.vertex_ids]
    image = tuple(
        sum(lap[i][j] * indicator[j] for j in range(5)) for i in range(5)
    )
    assert image == (4, -3, -3, 4, -2)
    assert cf.fire_set(g, {"v1", "v2", "v4"}).values == image


def test_laplacian_ignores_loops():
    g = cf.Graph(["a", "b"], [("a", "b", 2), ("a", "a", 3)])
    assert g.laplacian() == ((-2, 2), (2, -2))


# -- canonical divisor -------------------------------------------------------


def test_canonical_single_loop():
    g = cf.Graph(["a"], [("a", "a")])
    assert g.canonical_divisor().values == (0,)


def test_canonical_binary():
    for genus in range(1, 6):
        k = binary_graph(genus).canonical_divisor()
        assert k.values == (genus - 1, genus - 1)
        assert k.degree == 2 * genus - 2


def test_canonical_dhar5(dhar5):
    k = dhar5.graph.canonical_divisor()
    assert k.values == (4, 4, 4, 4, 2)
    assert k.degree == 18


# -- hat graph ---------------------------------------------------------------


def test_hat_trivial_on_plain_graph():
    g = binary_graph(3)
    emb = cf.hat_graph(g)
    assert emb.target is g
    assert all(zs == () for zs in emb.added.values())


def test_hat_of_weighted_vertex_is_rose():
    g = cf.Graph([("v", 4)])
    emb = cf.hat_graph(g)
    assert emb.target.vertex_count == 5
    assert emb.target.edge_count == 8
    assert emb.added["v"] == ("v.z1", "v.z2", "v.z3", "v.z4")
    for z in emb.added["v"]:
        assert emb.target.valency(z) == 2
        assert emb.target.multiplicity("v", z) == 2
    assert emb.target.genus() == 4


def test_hat_weighted_binary(weighted_binary):
    emb = cf.hat_graph(weighted_binary.graph)
    assert emb.target.vertex_count == 5
    assert emb.target.edge_count == 19
    assert emb.target.genus() == 15
    assert not any(emb.target.weights)


def test_hat_counts_loops_in_local_genus():
    g = cf.Graph([("v", 2)], [("v", "v", 3)])
    assert g.local_genus("v") == 5
    emb = cf.hat_graph(g)
    assert emb.target.vertex_count == 6
    assert emb.target.genus() == g.genus() == 5


def test_hat_after_bullet_keeps_ids_unique():
    g = cf.Graph([("v", 2)], [("v", "v", 2)])
    subdivided, added = cf.subdivide_loops(g)
    assert added["v"] == ("v.z1", "v.z2")
    emb = cf.hat_graph(subdivided)
    ids = emb.target.vertex_ids
    assert len(ids) == len(set(ids))
    assert emb.target.genus() == g.genus()


def test_hat_is_built_once_per_graph():
    g = cf.Graph([("v", 2), "w"], [("v", "w"), ("w", "w")])
    first, second = cf.hat_graph(g), cf.hat_graph(g)
    assert second.target is first.target
    # each call has its own fresh-vertex map: mutating one leaves the next intact
    first.added["v"] = ()
    del first.added["w"]
    assert cf.hat_graph(g).added == second.added == {"v": ("v.z1", "v.z2"), "w": ("w.z1",)}
    # the kept hat is no part of the graph's value
    fresh = cf.Graph([("v", 2), "w"], [("v", "w"), ("w", "w")])
    assert fresh._hat is None and g._hat is not None
    assert g == fresh and hash(g) == hash(fresh)
    assert cf.hat_graph(fresh).target == first.target


def test_hat_keeps_nothing_for_a_plain_graph():
    g = binary_graph(3)
    for _ in range(2):
        assert cf.hat_graph(g).target is g
        cf.rank(cf.Divisor(g, (1, 1)))
    assert g._hat is None


# -- loop stripping and subdivision ------------------------------------------


def test_strip_identity_on_plain_graph():
    g = binary_graph(2)
    assert cf.strip_weights_and_loops(g) is g


def test_strip_drops_loops_and_weights():
    g = cf.Graph([("v", 2)], [("v", "v", 3)])
    stripped = cf.strip_weights_and_loops(g)
    assert stripped.vertex_items == (("v", 0),)
    assert stripped.edge_count == 0


def test_strip_weighted_binary(weighted_binary):
    stripped = cf.strip_weights_and_loops(weighted_binary.graph)
    assert stripped.vertex_items == (("v1", 0), ("v2", 0))
    assert stripped.edge_count == 13


def test_subdivide_no_loops_is_identity():
    g = binary_graph(1)
    subdivided, added = cf.subdivide_loops(g)
    assert subdivided is g
    assert all(zs == () for zs in added.values())


def test_subdivide_single_loop():
    g = cf.Graph(["v"], [("v", "v")])
    subdivided, _ = cf.subdivide_loops(g)
    assert subdivided.vertex_count == 2
    assert subdivided.edge_count == 2
    assert subdivided.multiplicity("v", "v.z1") == 2


def test_subdivide_keeps_weights():
    g = cf.Graph([("v", 3)], [("v", "v", 2)])
    assert g.genus() == 5
    subdivided, added = cf.subdivide_loops(g)
    assert subdivided.weight("v") == 3
    assert subdivided.vertex_count == 3
    assert subdivided.edge_count == 4
    assert subdivided.genus() == 5
    assert added["v"] == ("v.z1", "v.z2")


def _rebuilt(g):
    """The same graph again, through the validating constructor."""
    return cf.Graph(g.vertex_items, [(a, b, m) for (a, b), m in g.edge_items()])


def _add_weights_and_loops(rng, g):
    vertices = [(v, w + rng.choice((0, 0, 1, 2))) for v, w in g.vertex_items]
    loops = [(v, v, rng.randint(1, 2)) for v in g.vertex_ids if rng.random() < 0.3]
    return cf.Graph(vertices, [(a, b, m) for (a, b), m in g.edge_items()] + loops)


def test_derived_graphs_from_tables_equal_the_validated_rebuild():
    rng = random.Random(18)
    skipped_taken_name = False
    for trial in range(1000):
        g = cf.random_connected_graph(rng, 6, 10, 2)
        if trial % 2:
            # derived-of-derived: fresh names must skip the ones already taken
            inner = cf.hat_graph(g).target if rng.random() < 0.5 else cf.subdivide_loops(g)[0]
            g = _add_weights_and_loops(rng, inner)
        hat = cf.hat_graph(g)
        subdivided, sub_added = cf.subdivide_loops(g)
        stripped = cf.strip_weights_and_loops(g)
        expected = (
            (hat.target, hat.added, [g.local_genus(v) for v in g.vertex_ids]),
            (subdivided, sub_added, [g.loop_count(v) for v in g.vertex_ids]),
            (stripped, {v: () for v in g.vertex_ids}, [0] * g.vertex_count),
        )
        for derived, added, counts in expected:
            rebuilt = _rebuilt(derived)
            assert derived == rebuilt and hash(derived) == hash(rebuilt)
            for table in ("_adj_items", "_degrees", "_loopless_genus", "_index"):
                assert getattr(derived, table) == getattr(rebuilt, table), table
            assert derived.vertex_ids == g.vertex_ids + sum(added.values(), ())
            assert list(added) == list(g.vertex_ids)
            for v, count in zip(g.vertex_ids, counts):
                fresh = added[v]
                assert len(fresh) == count
                i = derived.index(v)
                for z in fresh:
                    assert z.startswith(f"{v}.z") and not g.has_vertex(z)
                    k = derived.index(z)
                    assert derived._adj_items[k] == ((i, 2),)
                    # both double-edge pairs are the shared ones the constructor takes
                    assert derived._adj_items[k][0] is rebuilt._adj_items[k][0]
                    pair = next(p for p in derived._adj_items[i] if p[0] == k)
                    assert pair is next(p for p in rebuilt._adj_items[i] if p[0] == k)
                if fresh and g.has_vertex(f"{v}.z1"):
                    skipped_taken_name = True
    assert skipped_taken_name


def test_is_connected_agrees_with_components():
    assert not cf.Graph([]).is_connected
    assert cf.Graph([("a", 3)], [("a", "a")]).is_connected
    outcomes = set()
    for g in _seeded_multigraphs(18, 400):
        # is_connected is asked first, so its own search runs, not a cached answer
        outcomes.add(g.is_connected)
        assert g.is_connected == (len(g.components()) == 1)
    assert outcomes == {True, False}
    rng = random.Random(18)
    for _ in range(200):
        g = cf.random_connected_graph(rng, 9, 14, 2)
        assert g.is_connected and len(g.components()) == 1


# -- invariants --------------------------------------------------------------


def _rational_rank(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [x * inv for x in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[row])]
        row += 1
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_valency_sum_is_twice_edges(g):
    assert sum(g.valency(v) for v in g.vertex_ids) == 2 * g.edge_count


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_laplacian_row_and_column_sums_vanish(g):
    ids = g.vertex_ids
    derived = (
        cf.hat_graph(g).target,
        cf.strip_weights_and_loops(g),
        cf.subdivide_loops(g)[0],
        g.with_extra_edges([(ids[0], ids[-1]), (ids[-1], ids[-1], 2)]),
    )
    for h in (g, *derived):
        lap = h.laplacian()
        n = h.vertex_count
        assert all(sum(row) == 0 for row in lap)
        assert all(sum(lap[i][j] for i in range(n)) == 0 for j in range(n))
        # the degree table built at construction agrees with the edge list
        ends = [0] * n
        for (a, b), mult in h.edge_items():
            if a != b:
                ends[h.index(a)] += mult
                ends[h.index(b)] += mult
        for i, v in enumerate(h.vertex_ids):
            assert h._degrees[i] == ends[i] == -lap[i][i]
            assert h.valency(v) == h._degrees[i] + 2 * h.loop_count(v)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_laplacian_kernel_is_constants_for_connected(g):
    assert _rational_rank(g.laplacian()) == g.vertex_count - 1


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_hat_and_bullet_preserve_genus(g):
    assert cf.hat_graph(g).target.genus() == g.genus()
    subdivided, _ = cf.subdivide_loops(g)
    assert subdivided.genus() == g.genus()


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_canonical_degree(g):
    assert g.canonical_divisor().degree == 2 * g.genus() - 2


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=6))
def test_intersection_symmetry_and_boundary(g):
    ids = g.vertex_ids
    half = set(ids[::2])
    rest = set(ids) - half
    if half and rest:
        assert g.intersection(half, rest) == g.intersection(rest, half)
    for v in ids:
        others = set(ids) - {v}
        if others:
            assert g.intersection({v}, others) == g.valency(v) - 2 * g.loop_count(v)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_hat_target_is_plain_with_degree_two_midpoints(g):
    emb = cf.hat_graph(g)
    target = emb.target
    assert not any(target.weights)
    assert all(target.loop_count(v) == 0 for v in target.vertex_ids)
    expected_extra = sum(g.local_genus(v) for v in g.vertex_ids)
    assert target.vertex_count == g.vertex_count + expected_extra
    for v, zs in emb.added.items():
        assert len(zs) == g.local_genus(v)
        for z in zs:
            assert target.valency(z) == 2
            assert target.multiplicity(v, z) == 2


# -- input checks ----------------------------------------------------------


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([("a", 1, 2)], [], "bad vertex spec ('a', 1, 2); expected id or (id, weight)"),
        ([7], [], "bad vertex spec 7; expected id or (id, weight)"),
        ([""], [], "vertex id must be a non-empty string, got ''"),
        ([(3, 0)], [], "vertex id must be a non-empty string, got 3"),
        (["a"], [("a",)], "bad edge spec ('a',); expected (a, b) or (a, b, mult)"),
        (["a", "b"], [("a", "b", 1, 1)], "bad edge spec ('a', 'b', 1, 1); expected (a, b) or (a, b, mult)"),
        # an undeclared endpoint in either position; a is reported before b
        (["a", "b"], [("a", "x")], "edge endpoint 'x' is not a declared vertex"),
        (["a", "b"], [("x", "b")], "edge endpoint 'x' is not a declared vertex"),
        (["a", "b"], [("x", "y")], "edge endpoint 'x' is not a declared vertex"),
        (["a", "b"], [("x", "y", 0)], "edge endpoint 'x' is not a declared vertex"),
        # a string is never split into its characters, whatever its length
        (["a", "b"], ["ab"], "bad edge spec 'ab'; expected (a, b) or (a, b, mult)"),
        (["a", "b", "c"], ["abc"], "bad edge spec 'abc'; expected (a, b) or (a, b, mult)"),
        # nor is anything else that is no sequence
        (["a"], [5], "bad edge spec 5; expected (a, b) or (a, b, mult)"),
        (["a"], [None], "bad edge spec None; expected (a, b) or (a, b, mult)"),
        # a dict or set is no spec either: a dict would give its keys, a set
        # its items in hash order
        (["a", "b"], [{"a": 1, "b": 2}], "bad edge spec {'a': 1, 'b': 2}; expected (a, b) or (a, b, mult)"),
        (["a", "b"], [{("a", "b")}], "bad edge spec {('a', 'b')}; expected (a, b) or (a, b, mult)"),
        ([{"a": 1, "b": 2}], [], "bad vertex spec {'a': 1, 'b': 2}; expected id or (id, weight)"),
        ([{("a", 1)}], [], "bad vertex spec {('a', 1)}; expected id or (id, weight)"),
    ],
    ids=[
        "vertex triple", "vertex int", "vertex empty id", "vertex int id", "edge single", "edge quadruple",
        "edge unknown b", "edge unknown a", "edge unknown both", "edge unknown both zero mult",
        "edge string ab", "edge string abc", "edge int", "edge None", "edge dict", "edge set",
        "vertex dict", "vertex set",
    ],
)
def test_graph_input_checks(vertices, edges, message):
    with pytest.raises(cf.GraphError) as info:
        cf.Graph(vertices, edges)
    assert str(info.value) == message


def test_graph_takes_list_edge_specs():
    listed = cf.Graph(["a", "b"], [["a", "b"], ["a", "b", 2], ["b", "b"]])
    assert listed == cf.Graph(["a", "b"], [("a", "b", 3), ("b", "b")])


def test_graph_takes_list_vertex_specs_and_namedtuple_specs():
    Edge = collections.namedtuple("Edge", "a b mult")
    Vertex = collections.namedtuple("Vertex", "id weight")
    expected = cf.Graph([("a", 1), "b"], [("a", "b", 2), ("a", "a", 1)])
    assert cf.Graph([["a", 1], "b"], [["a", "b", 2], ["a", "a"]]) == expected
    assert cf.Graph([Vertex("a", 1), "b"], [Edge("a", "b", 2), Edge("a", "a", 1)]) == expected
    assert expected.with_extra_edges([Edge("a", "b", 1), ["b", "b"]]) == cf.Graph(
        [("a", 1), "b"], [("a", "b", 3), ("a", "a"), ("b", "b")]
    )


def test_vertex_sets_refuse_a_string():
    # "ab" is not the vertex set {"a", "b"}, as it is not the edge ("a", "b")
    g = cf.Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    for call, name in ((lambda: g.intersection("ab", "c"), "intersection"),
                       (lambda: g.intersection({"c"}, "ab"), "intersection"),
                       (lambda: cf.fire_set(g, "ab"), "fire_set")):
        with pytest.raises(cf.DomainError) as info:
            call()
        assert str(info.value) == f"{name} expects an Iterable, got str"
    assert g.intersection({"a", "b"}, {"c"}) == 2
    assert cf.fire_set(g, ["a", "b"]) == cf.Divisor(g, {"a": -1, "b": -1, "c": 2})


def test_index_refuses_an_unhashable_id():
    # a list is no vertex id: it is unknown, as a string that names no vertex is
    g = cf.Graph(["a", "b"], [("a", "b")])
    for call in (lambda: g.index([1]), lambda: cf.reduce_divisor(cf.Divisor(g), [1])):
        with pytest.raises(cf.GraphError) as info:
            call()
        assert str(info.value) == "unknown vertex id [1]"
    assert g.has_vertex([1]) is False


def test_graph_equals_no_other_type():
    g = cf.Graph(["a"])
    assert not g == 5 and g != 5


def test_graph_repr(dhar5):
    assert repr(dhar5.graph) == "Graph(5 vertices, 14 edges, genus 10)"
