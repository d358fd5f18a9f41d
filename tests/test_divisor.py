import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipfire as cf
from chipfire.oracle import _class_signature
from conftest import (
    binary_graph,
    connected_graphs,
    cycle_graph,
    graph_with_divisor,
    grid_graph,
    seeded_instances,
    tadpole_graph,
)


# -- divisor basics ----------------------------------------------------------


def test_divisor_from_mapping_defaults_to_zero(dhar5):
    g = dhar5.graph
    d = cf.Divisor(g, {"v1": 1, "v3": 4})
    assert d.values == (0, 1, 0, 4, 0)
    assert d.degree == 5


def test_divisor_values_from_any_mapping_or_iterable(dhar5):
    # any collections.abc.Mapping is read by vertex id, and any other
    # iterable, a generator too, as values in declaration order
    g = dhar5.graph
    assert cf.Divisor(g, types.MappingProxyType({"v1": 1, "v3": 4})).values == (0, 1, 0, 4, 0)
    assert cf.Divisor(g, (i for i in range(5))).values == (0, 1, 2, 3, 4)


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

    k5 = cf.Graph([f"k{i}" for i in range(5)], [(f"k{i}", f"k{j}") for i in range(5) for j in range(i)])
    cases = ((cycle_graph(7), 7), (k5, 125), (grid_graph(3, 3), 192), (binary_graph(3), 4), (cf.Graph(["v"]), 1))
    for graph, tau in cases:
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


def test_effective_enumeration_takes_integers_only():
    # a float degree would never reach zero and enumerate forever
    with pytest.raises(TypeError):
        next(cf.iter_effective_values(1.5, 2))
    with pytest.raises(TypeError):
        next(cf.iter_effective_values(2, 2.0))
    tuples = list(cf.iter_effective_values(True, 2))
    assert tuples == [(0, 1), (1, 0)]
    assert all(type(x) is int for t in tuples for x in t)


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


def test_divisor_sub_refuses_another_operand(dhar5):
    with pytest.raises(TypeError) as info:
        cf.Divisor(dhar5.graph) - 1
    assert str(info.value) == "unsupported operand type(s) for -: 'Divisor' and 'int'"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda g: cf.Divisor(g, (1, 2, 3, 4)), "expected 5 values, got 4"),
        (lambda g: cf.FiringScript(g, [0] * 6), "expected 5 values, got 6"),
        (lambda g: cf.Divisor("dhar5", (0,) * 5), "Divisor expects a Graph, got str"),
        (lambda g: cf.FiringScript(None), "FiringScript expects a Graph, got NoneType"),
    ],
)
def test_vertex_map_input_checks(dhar5, make, message):
    with pytest.raises(cf.DomainError) as info:
        make(dhar5.graph)
    assert str(info.value) == message


# every public call that takes a divisor (a firing script for apply_script),
# each handed a string there
_WRONG_TYPE_CALLS = {
    "rank": lambda g, d: cf.rank("x"),
    "rank_geq": lambda g, d: cf.rank_geq("x", 0),
    "rank_explicit_vertices": lambda g, d: cf.rank_explicit_vertices("x"),
    "rank_explicit_vertex": lambda g, d: cf.rank_explicit_vertex("x"),
    "rank_lower_bound_certified": lambda g, d: cf.rank_lower_bound_certified("x", 0),
    "saturation_bound": lambda g, d: cf.saturation_bound("x", "a"),
    "riemann_roch_residual": lambda g, d: cf.riemann_roch_residual("x"),
    "clifford_check": lambda g, d: cf.clifford_check("x"),
    "g0_comparison": lambda g, d: cf.g0_comparison("x"),
    "bullet_rank_identity": lambda g, d: cf.bullet_rank_identity("x"),
    "principal_script": lambda g, d: cf.principal_script("x"),
    "brute_rank": lambda g, d: cf.brute_rank("x"),
    "dhar": lambda g, d: cf.dhar("x", "a"),
    "is_reduced": lambda g, d: cf.is_reduced("x", "a"),
    "reduce_divisor": lambda g, d: cf.reduce_divisor("x", "a"),
    "saturate": lambda g, d: cf.saturate("x", "a"),
    "is_saturation": lambda g, d: cf.is_saturation(g, g, "x", "a"),
    "degree_demand": lambda g, d: cf.degree_demand("x"),
    "rank_capacity": lambda g, d: cf.rank_capacity("x"),
    "rank_lower_bound": lambda g, d: cf.rank_lower_bound("x"),
    "lift_divisor": lambda g, d: cf.lift_divisor(cf.hat_graph(g), "x"),
    "brute_is_reduced": lambda g, d: cf.brute_is_reduced("x", "a"),
    "equivalence_script": lambda g, d: cf.equivalence_script("x", d),
    "equivalent": lambda g, d: cf.equivalent(d, "x"),
    "Divisor.contains": lambda g, d: d.contains("x"),
    "apply_script": lambda g, d: cf.apply_script("x"),
    "layer_decomposition": lambda g, d: cf.layer_decomposition("x"),
}


@pytest.mark.parametrize("name", list(_WRONG_TYPE_CALLS))
def test_calls_refuse_a_divisor_argument_of_another_type(name):
    g = cf.Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(cf.DomainError) as info:
        _WRONG_TYPE_CALLS[name](g, cf.Divisor(g))
    kind = "FiringScript" if name == "apply_script" else "Divisor"
    assert str(info.value) == f"{name} expects a {kind}, got str"


# every public call that takes a graph, a hat embedding, a divisor or script
# to render, a text to parse, the values of a new divisor or script, the
# vertex and edge collections of a new graph, a vertex set, a random
# generator, a sweep configuration or a fixture name, each handed a value of
# another type there, with the refusal it must raise; a string is no
# collection of ids, specs or values
_WRONG_GRAPH_CALLS = {
    "fire_set": (lambda d: cf.fire_set("x", []), "fire_set expects a Graph, got str"),
    "hat_graph": (lambda d: cf.hat_graph("x"), "hat_graph expects a Graph, got str"),
    "strip_weights_and_loops": (
        lambda d: cf.strip_weights_and_loops("x"),
        "strip_weights_and_loops expects a Graph, got str",
    ),
    "subdivide_loops": (lambda d: cf.subdivide_loops("x"), "subdivide_loops expects a Graph, got str"),
    "render_graph": (lambda d: cf.render_graph("x"), "render_graph expects a Graph, got str"),
    "parse_divisor": (lambda d: cf.parse_divisor("a=1", "x"), "parse_divisor expects a Graph, got str"),
    "lift_divisor": (lambda d: cf.lift_divisor("x", d), "lift_divisor expects a HatEmbedding, got str"),
    "render_divisor": (
        lambda d: cf.render_divisor("x"),
        "render_divisor expects a Divisor or FiringScript, got str",
    ),
    "Graph vertices": (lambda d: cf.Graph(5), "Graph expects an Iterable, got int"),
    "Graph edges": (lambda d: cf.Graph(["a"], 5), "Graph expects an Iterable, got int"),
    "parse_graph": (lambda d: cf.parse_graph(5), "parse_graph expects a str, got int"),
    "parse_divisor text": (lambda d: cf.parse_divisor(5, d.graph), "parse_divisor expects a str, got int"),
    "Divisor values": (lambda d: cf.Divisor(d.graph, 5), "Divisor expects an Iterable, got int"),
    "FiringScript values": (lambda d: cf.FiringScript(d.graph, 5), "FiringScript expects an Iterable, got int"),
    "Graph vertices string": (lambda d: cf.Graph("ab"), "Graph expects an Iterable, got str"),
    "Graph edges string": (lambda d: cf.Graph(["a", "b"], "ab"), "Graph expects an Iterable, got str"),
    "Divisor values string": (lambda d: cf.Divisor(d.graph, "12"), "Divisor expects an Iterable, got str"),
    "with_extra_edges": (lambda d: d.graph.with_extra_edges(5), "with_extra_edges expects an Iterable, got int"),
    "with_extra_edges string": (
        lambda d: d.graph.with_extra_edges("ab"),
        "with_extra_edges expects an Iterable, got str",
    ),
    "fire_set vertices": (lambda d: cf.fire_set(d.graph, 5), "fire_set expects an Iterable, got int"),
    "intersection": (lambda d: d.graph.intersection(5, ["a"]), "intersection expects an Iterable, got int"),
    "intersection string": (
        lambda d: d.graph.intersection(["a"], "bc"),
        "intersection expects an Iterable, got str",
    ),
    "random_connected_graph": (
        lambda d: cf.random_connected_graph("x", 3, 3, 0),
        "random_connected_graph expects a Random, got str",
    ),
    "random_divisor": (
        lambda d: cf.random_divisor(random.Random(1), "x", 3),
        "random_divisor expects a Graph, got str",
    ),
    "random_divisor rng": (lambda d: cf.random_divisor("x", d.graph, 3), "random_divisor expects a Random, got str"),
    "run_sweep": (lambda d: cf.run_sweep("x"), "run_sweep expects a SweepConfig, got str"),
    "load_fixture": (lambda d: cf.load_fixture(5), "load_fixture expects a str, got int"),
}


@pytest.mark.parametrize("name", list(_WRONG_GRAPH_CALLS))
def test_calls_refuse_a_graph_argument_of_another_type(name):
    g = cf.Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    call, message = _WRONG_GRAPH_CALLS[name]
    with pytest.raises(cf.DomainError) as info:
        call(cf.Divisor(g))
    assert str(info.value) == message


# every public call that needs a connected graph, each handed a divisor on
# two isolated vertices (and that graph where it takes one too)
_DISCONNECTED_CALLS = {
    "rank": lambda g, d: cf.rank(d),
    "rank_geq": lambda g, d: cf.rank_geq(d, 0),
    "rank_explicit_vertices": lambda g, d: cf.rank_explicit_vertices(d),
    "rank_explicit_vertex": lambda g, d: cf.rank_explicit_vertex(d),
    "rank_lower_bound_certified": lambda g, d: cf.rank_lower_bound_certified(d, 0),
    "saturation_bound": lambda g, d: cf.saturation_bound(d, "a"),
    "riemann_roch_residual": lambda g, d: cf.riemann_roch_residual(d),
    "clifford_check": lambda g, d: cf.clifford_check(d),
    "g0_comparison": lambda g, d: cf.g0_comparison(d),
    "bullet_rank_identity": lambda g, d: cf.bullet_rank_identity(d),
    "principal_script": lambda g, d: cf.principal_script(d),
    "brute_rank": lambda g, d: cf.brute_rank(d),
    "dhar": lambda g, d: cf.dhar(d, "a"),
    "is_reduced": lambda g, d: cf.is_reduced(d, "a"),
    "reduce_divisor": lambda g, d: cf.reduce_divisor(d, "a"),
    "saturate": lambda g, d: cf.saturate(d, "a"),
    "is_saturation": lambda g, d: cf.is_saturation(g, g, d, "a"),
    "equivalence_script": lambda g, d: cf.equivalence_script(d, d),
    "equivalent": lambda g, d: cf.equivalent(d, d),
    "layer_decomposition": lambda g, d: cf.layer_decomposition(d),
}


@pytest.mark.parametrize("name", list(_DISCONNECTED_CALLS))
def test_calls_refuse_a_disconnected_graph_by_name(name):
    g = cf.Graph(["a", "b"])
    with pytest.raises(cf.DisconnectedError) as info:
        _DISCONNECTED_CALLS[name](g, cf.Divisor(g))
    assert str(info.value) == f"{name} requires a connected graph"


def test_package_exports_each_public_name_once_in_order():
    # __init__.py names each export twice, in its imports and in __all__
    public = {
        name
        for name, value in vars(cf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert cf.__all__ == sorted(set(cf.__all__))
    assert set(cf.__all__) == public


def test_vertex_map_hash_and_repr(dhar5):
    g = dhar5.graph
    d = cf.Divisor(g, (0, 1, 0, -2, 0))
    assert len({d, cf.Divisor(g, {"v1": 1, "v3": -2})}) == 1
    assert repr(d) == "Divisor(v0=0, v1=1, v2=0, v3=-2, v4=0)"
    assert repr(cf.FiringScript(binary_graph(1), (2, 0))) == "FiringScript(v1=2, v2=0)"
