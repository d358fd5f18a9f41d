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
