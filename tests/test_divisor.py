import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipfire as cf
from chipfire.oracle import _class_signature
from conftest import (
    binary_graph,
    connected_graphs,
    graph_with_divisor,
    seeded_instances,
    tadpole_graph,
)


# -- divisor basics ----------------------------------------------------------


def test_divisor_from_mapping_defaults_to_zero(dhar5):
    g = dhar5.graph
    d = cf.Divisor(g, {"v1": 1, "v3": 4})
    assert d.values == (0, 1, 0, 4, 0)
    assert d.degree == 5


def test_divisor_arithmetic(dhar5):
    g = dhar5.graph
    a = cf.Divisor(g, (1, 0, 2, 0, 0))
    b = cf.Divisor(g, (0, 1, 1, 0, 0))
    assert (a + b).values == (1, 1, 3, 0, 0)
    assert (a - b).values == (1, -1, 1, 0, 0)
    assert (2 * a).values == (2, 0, 4, 0, 0)
    assert (-a).values == (-1, 0, -2, 0, 0)
    assert a.contains(cf.Divisor(g, (1, 0, 0, 0, 0)))
    assert not b.contains(a)


def test_divisor_binding_mismatch(dhar5):
    other = binary_graph(1)
    with pytest.raises(cf.DomainError):
        dhar5.divisors["example"] + cf.Divisor(other, (0, 0))


def test_divisor_and_script_are_distinct_types(dhar5):
    g = dhar5.graph
    assert cf.Divisor(g, (0, 0, 0, 0, 0)) != cf.FiringScript(g, (0, 0, 0, 0, 0))


# -- set firing --------------------------------------------------------------


def test_fire_full_and_empty_sets_are_zero(dhar5):
    g = dhar5.graph
    assert cf.fire_set(g, set(g.vertex_ids)).values == (0,) * 5
    assert cf.fire_set(g, set()).values == (0,) * 5


def test_fire_set_quoted_values(dhar5):
    g = dhar5.graph
    assert cf.fire_set(g, {"v3", "v4"}).values == (2, 2, 2, -4, -2)
    assert cf.fire_set(g, {"v1", "v2", "v4"}).values == (4, -3, -3, 4, -2)


def test_fire_set_unknown_vertex(dhar5):
    with pytest.raises(cf.GraphError):
        cf.fire_set(dhar5.graph, {"bogus"})


# -- scripts -----------------------------------------------------------------


def test_constant_script_fires_to_zero(dhar5):
    g = dhar5.graph
    assert cf.apply_script(cf.FiringScript(g, (3,) * 5)).values == (0,) * 5


def test_indicator_script_matches_fire_set(dhar5):
    g = dhar5.graph
    z = {"v2", "v3"}
    script = cf.FiringScript(g, {v: 1 for v in z})
    assert cf.apply_script(script) == cf.fire_set(g, z)


def test_apply_script_invariant_under_constants(dhar5):
    g = dhar5.graph
    script = cf.FiringScript(g, (0, 1, 2, 3, 3))
    lifted = cf.FiringScript(g, (5, 6, 7, 8, 8))
    assert cf.apply_script(script) == cf.apply_script(lifted)
    assert lifted.normalized() == script


def test_staircase_script_decomposes_into_set_firings(dhar5):
    # levels (0,1,2,3,3) should equal firing {v1..v4}, then {v2,v3,v4}, then {v3,v4}
    g = dhar5.graph
    total = cf.apply_script(cf.FiringScript(g, (0, 1, 2, 3, 3)))
    by_sets = (
        cf.fire_set(g, {"v1", "v2", "v3", "v4"})
        + cf.fire_set(g, {"v2", "v3", "v4"})
        + cf.fire_set(g, {"v3", "v4"})
    )
    assert total == by_sets


# -- principal scripts -------------------------------------------------------


def test_zero_divisor_has_zero_script(dhar5):
    g = dhar5.graph
    script = cf.principal_script(cf.Divisor(g))
    assert script is not None
    assert script.levels == (0,) * 5


def test_principal_script_roundtrips_set_firing(dhar5):
    g = dhar5.graph
    for z in ({"v0"}, {"v1", "v3"}, {"v0", "v2", "v4"}):
        script = cf.principal_script(cf.fire_set(g, z))
        assert script is not None
        assert script.levels == tuple(1 if v in z else 0 for v in g.vertex_ids)


def test_half_integral_solution_is_not_principal():
    g = binary_graph(1)
    assert cf.principal_script(cf.Divisor(g, (1, -1))) is None


def test_nonzero_degree_is_not_principal(dhar5):
    assert cf.principal_script(cf.Divisor(dhar5.graph, {"v0": 1})) is None


def test_principal_script_requires_connected():
    g = cf.Graph(["a", "b"])
    with pytest.raises(cf.DisconnectedError):
        cf.principal_script(cf.Divisor(g, (0, 0)))


def test_solver_determinant_counts_spanning_trees():
    # matrix-tree theorem: the fraction-free solve's determinant is tau(G)
    from chipfire.oracle import _solve_reduced

    cycle = cf.Graph([f"c{i}" for i in range(7)], [(f"c{i}", f"c{(i + 1) % 7}") for i in range(7)])
    k5 = cf.Graph([f"k{i}" for i in range(5)], [(f"k{i}", f"k{j}") for i in range(5) for j in range(i)])
    grid = cf.Graph(
        [f"g{i}{j}" for i in range(3) for j in range(3)],
        [(f"g{i}{j}", f"g{i + 1}{j}") for i in range(2) for j in range(3)]
        + [(f"g{i}{j}", f"g{i}{j + 1}") for i in range(3) for j in range(2)],
    )
    for graph, tau in ((cycle, 7), (k5, 125), (grid, 192), (binary_graph(3), 4), (cf.Graph(["v"]), 1)):
        nums, det = _solve_reduced(graph, [0] * graph.vertex_count)
        assert det == tau
        assert nums == [0] * (graph.vertex_count - 1)


# -- layer decomposition ------------------------------------------------------


def test_layers_of_single_set_firing(dhar5):
    g = dhar5.graph
    layers = cf.layer_decomposition(cf.fire_set(g, {"v3", "v4"}))
    assert layers == (frozenset({"v0", "v1", "v2"}), frozenset({"v3", "v4"}))


def test_layers_of_summed_firings(dhar5):
    g = dhar5.graph
    t = cf.fire_set(g, {"v3", "v4"}) + cf.fire_set(g, {"v4"})
    assert cf.layer_decomposition(t) == (
        frozenset({"v0", "v1", "v2"}),
        frozenset({"v3"}),
        frozenset({"v4"}),
    )


def test_layers_allow_empty_intermediate(dhar5):
    g = dhar5.graph
    t = 2 * cf.fire_set(g, {"v3", "v4"})
    layers = cf.layer_decomposition(t)
    assert layers == (
        frozenset({"v0", "v1", "v2"}),
        frozenset(),
        frozenset({"v3", "v4"}),
    )


def test_layers_reject_non_principal_and_zero(dhar5):
    g = dhar5.graph
    with pytest.raises(cf.DomainError):
        cf.layer_decomposition(cf.Divisor(g, {"v0": 1, "v1": -1}))
    with pytest.raises(cf.DomainError):
        cf.layer_decomposition(cf.Divisor(g))


# -- equivalence -------------------------------------------------------------


def test_equivalence_is_reflexive(dhar5):
    d = dhar5.divisors["example"]
    script = cf.equivalence_script(d, d)
    assert script is not None
    assert script.levels == (0,) * 5


def test_quoted_equivalence_chain(dhar5):
    g = dhar5.graph
    d1 = dhar5.divisors["example"]
    d2 = cf.Divisor(g, (2, 3, 4, 0, 2))
    d3 = cf.Divisor(g, (6, 0, 1, 4, 0))
    for a, b in ((d1, d2), (d2, d3), (d1, d3)):
        script = cf.equivalence_script(a, b)
        assert script is not None
        assert b + cf.apply_script(script) == a


def test_inequivalent_divisors(dhar5):
    g = dhar5.graph
    assert not cf.equivalent(
        cf.Divisor(g, {"v0": 1}), cf.Divisor(g, {"v1": 1, "v2": 1})
    )


def test_equivalence_rejects_mismatched_graphs(dhar5):
    with pytest.raises(cf.DomainError):
        cf.equivalence_script(
            dhar5.divisors["example"], cf.Divisor(binary_graph(1), (0, 0))
        )


def test_equivalence_agrees_with_the_oracle_signature():
    # the engine decides equivalence by reduction, the oracle by its own
    # fraction-free solve; half the pairs are moved off their class
    principal = 0
    for rng, graph, d2 in seeded_instances(71, 300, max_vertices=7, max_edges=12, max_value=4):
        ids = graph.vertex_ids
        d1 = d2 + cf.apply_script(cf.FiringScript(graph, [rng.randint(0, 3) for _ in ids]))
        if rng.randrange(2):
            d1 = d1 + cf.Divisor(graph, {rng.choice(ids): 1}) - cf.Divisor(graph, {rng.choice(ids): 1})
        same = _class_signature(graph, list(d1.values)) == _class_signature(graph, list(d2.values))
        script = cf.equivalence_script(d1, d2)
        assert (script is not None) == same == cf.equivalent(d1, d2)
        if script is not None:
            assert d2 + cf.apply_script(script) == d1 and min(script.levels) == 0
        principal += same
    assert 100 < principal < 250


# -- scalar maps -------------------------------------------------------------


def test_degree_for_rank_values():
    assert cf.degree_for_rank(0, 7) == 0
    assert cf.degree_for_rank(3, 1) == 4
    assert cf.degree_for_rank(2, 5) == 4


def test_rank_for_degree_values():
    assert cf.rank_for_degree(4, 2) == 2
    assert cf.rank_for_degree(3, 1) == 2
    assert cf.rank_for_degree(5, 0) == 5


def test_scalar_maps_reject_negatives():
    with pytest.raises(cf.DomainError):
        cf.degree_for_rank(-1, 0)
    with pytest.raises(cf.DomainError):
        cf.rank_for_degree(0, -2)


def test_degree_rank_roundtrip():
    for e in range(51):
        for g in range(51):
            assert cf.rank_for_degree(cf.degree_for_rank(e, g), g) == e


def test_rank_degree_composition():
    for d in range(61):
        for g in range(31):
            expected = d - 1 if (d <= 2 * g - 1 and d % 2 == 1) else d
            assert cf.degree_for_rank(cf.rank_for_degree(d, g), g) == expected


# -- pointwise maps ----------------------------------------------------------


def test_degree_demand_examples(weighted_binary):
    g = weighted_binary.graph
    assert cf.degree_demand(cf.Divisor(g)).values == (0, 0)
    assert cf.degree_demand(cf.Divisor(g, (1, 1))).values == (2, 2)
    plain = binary_graph(4)
    d = cf.Divisor(plain, (2, 5))
    assert cf.degree_demand(d) == d


def test_rank_capacity_examples(weighted_binary):
    assert cf.rank_capacity(weighted_binary.divisors["example"]).values == (2, 2)
    plain = binary_graph(4)
    d = cf.Divisor(plain, (2, 5))
    assert cf.rank_capacity(d) == d
    rose = cf.Graph([("v", 3)])
    assert cf.rank_capacity(cf.Divisor(rose, (7,))).values == (4,)


def test_pointwise_maps_reject_non_effective(weighted_binary):
    bad = cf.Divisor(weighted_binary.graph, (-1, 2))
    with pytest.raises(cf.DomainError):
        cf.degree_demand(bad)
    with pytest.raises(cf.DomainError):
        cf.rank_capacity(bad)


def test_rank_lower_bound(dhar5, weighted_binary):
    assert cf.rank_lower_bound(cf.Divisor(dhar5.graph, (-1, 0, 0, 0, 0))) == -1
    assert cf.rank_lower_bound(dhar5.divisors["example"]) == 0
    assert cf.rank_lower_bound(weighted_binary.divisors["example"]) == 2


# -- hat lift ----------------------------------------------------------------


def test_lift_zero_and_identity(dhar5):
    g = dhar5.graph
    emb = cf.hat_graph(g)  # trivial: dhar5 is weightless loopless
    d = dhar5.divisors["example"]
    assert cf.lift_divisor(emb, d) is d


def test_lift_weighted_binary(weighted_binary):
    emb = cf.hat_graph(weighted_binary.graph)
    lifted = cf.lift_divisor(emb, weighted_binary.divisors["example"])
    assert lifted.values == (3, 4, 0, 0, 0)
    assert lifted.degree == 7
    assert cf.lift_divisor(emb, cf.Divisor(weighted_binary.graph)).values == (0,) * 5


def test_lift_rejects_foreign_divisor(weighted_binary, dhar5):
    emb = cf.hat_graph(weighted_binary.graph)
    with pytest.raises(cf.DomainError):
        cf.lift_divisor(emb, dhar5.divisors["example"])


# -- enumeration -------------------------------------------------------------


def test_effective_enumeration_is_lex_ordered():
    tuples = list(cf.iter_effective_values(3, 3))
    assert tuples[0] == (0, 0, 3)
    assert tuples == sorted(tuples)
    assert len(tuples) == 10
    assert all(sum(t) == 3 for t in tuples)


def test_effective_enumeration_of_negative_degree_is_empty():
    for size in (1, 2, 3):
        assert list(cf.iter_effective_values(-1, size)) == []
    assert list(cf.iter_effective_values(-3, 1)) == []
    assert list(cf.iter_effective_values(0, 1)) == [(0,)]
    assert list(cf.iter_effective_values(0, 0)) == [()]


def _recursive_effective_values(degree, size):
    """The enumeration by its recursive definition: each first entry in
    increasing order, then every tuple of the rest."""
    if size < 1:
        if degree == 0:
            yield ()
        return
    for first in range(degree + 1):
        for rest in _recursive_effective_values(degree - first, size - 1):
            yield (first,) + rest


def test_effective_enumeration_matches_a_recursive_reference():
    for degree in range(-2, 7):
        for size in range(-1, 7):
            expected = list(_recursive_effective_values(degree, size))
            assert list(cf.iter_effective_values(degree, size)) == expected, (degree, size)


def test_effective_enumeration_keeps_no_frame_per_entry():
    # 1,100 entries, past the interpreter's default recursion limit
    assert next(cf.iter_effective_values(0, 1100)) == (0,) * 1100
    assert list(cf.iter_effective_values(1, 1100))[-1] == (1,) + (0,) * 1099
    zero = cf.Divisor(tadpole_graph(1100))
    assert cf.rank_lower_bound_certified(zero, 0)
    assert not cf.rank_lower_bound_certified(zero, 1)


# -- property tests ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=6), st.data())
def test_set_firing_degree_zero_and_complement(g, data):
    ids = g.vertex_ids
    members = {v for v in ids if data.draw(st.booleans())}
    t = cf.fire_set(g, members)
    assert t.degree == 0
    complement = set(ids) - members
    assert (t + cf.fire_set(g, complement)).values == (0,) * g.vertex_count


@settings(max_examples=50, deadline=None)
@given(connected_graphs(max_vertices=5), st.data())
def test_principal_script_inverts_apply(g, data):
    levels = [data.draw(st.integers(0, 3)) for _ in g.vertex_ids]
    script = cf.FiringScript(g, levels).normalized()
    recovered = cf.principal_script(cf.apply_script(script))
    assert recovered == script


@settings(max_examples=50, deadline=None)
@given(connected_graphs(max_vertices=7), st.data())
def test_layer_decomposition_reconstructs(g, data):
    levels = [data.draw(st.integers(0, 4)) for _ in g.vertex_ids]
    t = cf.apply_script(cf.FiringScript(g, levels))
    if not any(t.values):
        return
    layers = cf.layer_decomposition(t)
    assert layers[0] and layers[-1]
    rebuilt = cf.Divisor(g)
    for i, layer in enumerate(layers):
        rebuilt = rebuilt + i * cf.fire_set(g, layer)
    assert rebuilt == t
    # the top layer obeys the restriction bound from the decomposition
    top = layers[-1]
    t_top = cf.fire_set(g, top)
    for v in top:
        assert t[v] <= t_top[v]


@settings(max_examples=50, deadline=None)
@given(graph_with_divisor(lo=0, hi=4), st.data())
def test_pointwise_maps_are_monotone(pair, data):
    g, d = pair
    bump = [data.draw(st.integers(0, 2)) for _ in g.vertex_ids]
    bigger = d + cf.Divisor(g, bump)
    assert all(
        a <= b
        for a, b in zip(cf.degree_demand(d).values, cf.degree_demand(bigger).values)
    )
    assert all(
        a <= b
        for a, b in zip(cf.rank_capacity(d).values, cf.rank_capacity(bigger).values)
    )


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=5), st.data())
def test_equivalence_is_symmetric_and_transitive(g, data):
    n = g.vertex_count
    base = cf.Divisor(g, [data.draw(st.integers(-2, 3)) for _ in range(n)])
    s1 = cf.FiringScript(g, [data.draw(st.integers(0, 2)) for _ in range(n)])
    s2 = cf.FiringScript(g, [data.draw(st.integers(0, 2)) for _ in range(n)])
    d1 = base + cf.apply_script(s1)
    d2 = base + cf.apply_script(s2)
    assert cf.equivalent(base, d1) and cf.equivalent(d1, base)
    assert cf.equivalent(d1, d2)
    assert cf.equivalent(base, d2)
    assert base.degree == d1.degree == d2.degree


# -- input checks and operators ----------------------------------------------


@pytest.mark.parametrize("kind", [cf.Divisor, cf.FiringScript])
def test_vertex_map_add_and_neg_keep_type_and_graph(dhar5, kind):
    g = dhar5.graph
    a = kind(g, (1, 0, 2, 0, -1))
    b = kind(g, (0, 1, 1, 0, 3))
    for result, values in ((a + b, (1, 1, 3, 0, 2)), (-a, (-1, 0, -2, 0, 1))):
        assert type(result) is kind
        assert result.graph is g
        assert result.values == values


@pytest.mark.parametrize(
    "make_left, make_right, error, message",
    [
        (
            lambda g: cf.Divisor(g, (0,) * 5),
            lambda g: cf.FiringScript(g, (0,) * 5),
            TypeError,
            "unsupported operand type(s) for +: 'Divisor' and 'FiringScript'",
        ),
        (
            lambda g: cf.FiringScript(g, (0,) * 5),
            lambda g: cf.Divisor(g, (0,) * 5),
            TypeError,
            "unsupported operand type(s) for +: 'FiringScript' and 'Divisor'",
        ),
        (
            lambda g: cf.Divisor(g, (0,) * 5),
            lambda g: 1,
            TypeError,
            "unsupported operand type(s) for +: 'Divisor' and 'int'",
        ),
        (
            lambda g: cf.FiringScript(g, (0,) * 5),
            lambda g: cf.FiringScript(binary_graph(1), (0, 0)),
            cf.DomainError,
            "operands are bound to different graphs",
        ),
    ],
)
def test_vertex_map_add_refuses_other_operands(dhar5, make_left, make_right, error, message):
    left, right = make_left(dhar5.graph), make_right(dhar5.graph)
    with pytest.raises(error) as info:
        left + right
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda g: cf.Divisor(g, (1, 2, 3, 4)), "expected 5 values, got 4"),
        (lambda g: cf.FiringScript(g, [0] * 6), "expected 5 values, got 6"),
        (lambda g: cf.Divisor("dhar5", (0,) * 5), "expected a Graph, got str"),
        (lambda g: cf.FiringScript(None), "expected a Graph, got NoneType"),
    ],
)
def test_vertex_map_input_checks(dhar5, make, message):
    with pytest.raises(cf.DomainError) as info:
        make(dhar5.graph)
    assert str(info.value) == message


def test_vertex_map_hash_and_repr(dhar5):
    g = dhar5.graph
    d = cf.Divisor(g, (0, 1, 0, -2, 0))
    assert len({d, cf.Divisor(g, {"v1": 1, "v3": -2})}) == 1
    assert repr(d) == "Divisor(v0=0, v1=1, v2=0, v3=-2, v4=0)"
    assert repr(cf.FiringScript(binary_graph(1), (2, 0))) == "FiringScript(v1=2, v2=0)"
