import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipfire as cf
import chipfire.reduction
from chipfire.oracle import _class_signature
from chipfire.reduction import _burn, _dhar_indices, _fire_indices
from conftest import (
    binary_graph,
    connected_graphs,
    cycle_graph,
    graph_with_divisor,
    grid_graph,
    recorded,
    seeded_instances,
    tadpole_graph,
)


# -- dhar --------------------------------------------------------------------


def test_dhar_dhar5_from_v0(dhar5):
    dec = cf.dhar(dhar5.divisors["example"], "v0")
    assert dec.layers == (frozenset({"v0"}), frozenset({"v1"}), frozenset({"v2"}))
    assert dec.unburned == frozenset({"v3", "v4"})
    assert not dec.is_reduced
    assert dec.burned == frozenset({"v0", "v1", "v2"})


def test_dhar_dhar5_from_v4(dhar5):
    dec = cf.dhar(dhar5.divisors["example"], "v4")
    assert dec.layers == (frozenset({"v4"}),)
    assert dec.unburned == frozenset({"v0", "v1", "v2", "v3"})


def test_dhar_star_burns_everything():
    g = cf.Graph(["c", "a", "b"], [("c", "a"), ("c", "b")])
    dec = cf.dhar(cf.Divisor(g), "c")
    assert dec.layers == (frozenset({"c"}), frozenset({"a", "b"}))
    assert dec.unburned == frozenset()
    assert dec.is_reduced


def test_dhar_rejects_negative_off_base(dhar5):
    d = cf.Divisor(dhar5.graph, {"v0": 5, "v2": -1})
    with pytest.raises(cf.DomainError):
        cf.dhar(d, "v0")
    # negative at the base itself is fine
    cf.dhar(cf.Divisor(dhar5.graph, {"v0": -3}), "v0")


def test_dhar_rejects_disconnected():
    g = cf.Graph(["a", "b"])
    with pytest.raises(cf.DisconnectedError):
        cf.dhar(cf.Divisor(g), "a")


def test_dhar_ignores_weights_and_loops(dhar5):
    g = dhar5.graph
    decorated = cf.Graph(
        [(v, 2) for v in g.vertex_ids],
        [(a, b, m) for (a, b), m in g.edge_items()] + [("v1", "v1", 3)],
    )
    d = cf.Divisor(decorated, dhar5.divisors["example"].values)
    dec = cf.dhar(d, "v0")
    assert dec.layers == (frozenset({"v0"}), frozenset({"v1"}), frozenset({"v2"}))
    assert dec.unburned == frozenset({"v3", "v4"})


# -- is_reduced ---------------------------------------------------------------


def test_is_reduced_dhar5(dhar5):
    assert not cf.is_reduced(dhar5.divisors["example"], "v0")


def test_is_reduced_weighted_binary(weighted_binary):
    d = weighted_binary.divisors["example"]
    assert cf.is_reduced(d, "v1")
    assert cf.is_reduced(d, "v2")


def test_reduced_stays_reduced_after_removing_chips_at_base(dhar5):
    g = dhar5.graph
    reduced, _ = cf.reduce_divisor(dhar5.divisors["example"], "v0")
    for n in range(4):
        shifted = reduced - cf.Divisor(g, {"v0": n})
        assert cf.is_reduced(shifted, "v0")


def _sparse_piles(rng, graph, divisor, base):
    """The divisor made effective off the base, with about half of those
    vertices emptied so that fires still spread between large piles."""
    return cf.Divisor(graph, [
        x if v == base else 0 if rng.random() < 0.5 else abs(x)
        for v, x in zip(graph.vertex_ids, divisor.values)
    ])


def test_is_reduced_matches_subset_oracle():
    for _, graph, divisor in seeded_instances(101, 150, max_vertices=5, max_edges=8):
        for base in graph.vertex_ids:
            assert cf.is_reduced(divisor, base) == cf.brute_is_reduced(divisor, base)
    for rng, graph, divisor in seeded_instances(102, 40, max_vertices=8, max_edges=14, max_value=500):
        for base in graph.vertex_ids:
            piles = _sparse_piles(rng, graph, divisor, base)
            assert cf.is_reduced(piles, base) == cf.brute_is_reduced(piles, base)


def test_reducedness_preserved_by_supergraphs():
    # adding edges anywhere keeps a reduced divisor reduced
    for rng, graph, divisor in seeded_instances(77, 80, max_vertices=5, max_edges=8):
        base = graph.vertex_ids[rng.randrange(graph.vertex_count)]
        reduced, _ = cf.reduce_divisor(divisor, base)
        ids = graph.vertex_ids
        extra = [
            (ids[rng.randrange(len(ids))], ids[rng.randrange(len(ids))])
            for _ in range(rng.randint(1, 3))
        ]
        bigger = graph.with_extra_edges(extra)
        assert cf.is_reduced(cf.Divisor(bigger, reduced.as_dict()), base)


def test_dhar_layer_characterization():
    # v burns on day j iff unburned before and short of chips against the burned set
    for rng, graph, divisor in seeded_instances(55, 60, max_vertices=6, max_edges=9):
        base = graph.vertex_ids[rng.randrange(graph.vertex_count)]
        effective_off = cf.Divisor(
            graph, [abs(x) if v != base else x for v, x in zip(graph.vertex_ids, divisor.values)]
        )
        _check_dhar_layers(graph, effective_off, base)
    for rng, graph, divisor in seeded_instances(56, 60, max_vertices=8, max_edges=14, max_value=500):
        base = graph.vertex_ids[rng.randrange(graph.vertex_count)]
        _check_dhar_layers(graph, _sparse_piles(rng, graph, divisor, base), base)


def _check_dhar_layers(graph, effective_off, base):
    dec = cf.dhar(effective_off, base)
    u = graph.index(base)
    layers, unburned = _dhar_indices(graph, list(effective_off.values), u)
    room, order, touched = _burn(graph, list(effective_off.values), u)
    assert tuple(v for v, r in enumerate(room) if r >= 0) == unburned
    assert dec.unburned == frozenset(graph.vertex_ids[v] for v in unburned)
    assert all(list(layer) == sorted(layer) for layer in layers)
    burned: set[str] = set()
    for j, layer in enumerate(dec.layers):
        assert layer, "layers are nonempty until termination"
        if j == 0:
            assert layer == frozenset({base})
        else:
            for v in graph.vertex_ids:
                should_burn = v not in burned and effective_off[v] < graph.intersection(
                    {v}, burned
                )
                assert (v in layer) == should_burn
        burned |= layer
    for v in dec.unburned:
        assert effective_off[v] >= graph.intersection({v}, burned)
    # room: -1 - day when burned, chips minus edges into the burned region when not
    for j, layer in enumerate(layers):
        assert all(room[v] == -1 - j for v in layer)
    for v in unburned:
        vid = graph.vertex_ids[v]
        assert room[v] == effective_off[vid] - graph.intersection({vid}, burned)
    # order: the burned vertices, each once, from the base in nondecreasing day
    assert order[0] == u
    assert sorted(order) == [v for v, r in enumerate(room) if r < 0]
    assert [-1 - room[v] for v in order] == sorted(-1 - room[v] for v in order)
    # the cut a reduction round fires: the touched vertices still unburned are
    # exactly the unburned ones with an edge into the burned region
    cut = {w for w in touched if room[w] >= 0}
    assert cut == {v for v in unburned if graph.intersection({graph.vertex_ids[v]}, burned)}
    assert (len(order) == graph.vertex_count) == cf.is_reduced(effective_off, base)


# -- reduce -------------------------------------------------------------------


def test_reduce_idempotent_on_reduced_input(dhar5):
    d, base = dhar5.divisors["example"], "v0"
    reduced, _ = cf.reduce_divisor(d, base)
    again, script = cf.reduce_divisor(reduced, base)
    assert again == reduced
    assert script.levels == (0,) * 5


def test_reduce_binary_genus_one():
    # firing the far vertex moves a chip along each parallel edge
    g = binary_graph(1)
    reduced, script = cf.reduce_divisor(cf.Divisor(g, (0, 2)), "v1")
    assert reduced.values == (2, 0)
    assert script.levels == (0, 1)
    assert cf.is_reduced(reduced, "v1")


def test_reduce_handles_deep_negativity():
    g = cf.Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    d = cf.Divisor(g, (0, -5, 1, -7))
    reduced, script = cf.reduce_divisor(d, "a")
    assert cf.is_reduced(reduced, "a")
    assert d + cf.apply_script(script) == reduced


def test_reduce_script_witnesses_equivalence(dhar5):
    d = dhar5.divisors["example"]
    reduced, script = cf.reduce_divisor(d, "v0")
    assert d + cf.apply_script(script) == reduced
    assert _class_signature(d.graph, list(d.values)) == _class_signature(d.graph, list(reduced.values))


def test_dhar5_divisor_is_reduced_on_two_edge_saturation(dhar5):
    g = dhar5.graph
    saturated = g.with_extra_edges([("v0", "v3"), ("v0", "v4")])
    d = cf.Divisor(saturated, dhar5.divisors["example"].as_dict())
    reduced, script = cf.reduce_divisor(d, "v0")
    assert reduced == d
    assert script.levels == (0,) * 5


def test_reduce_rejects_disconnected():
    g = cf.Graph(["a", "b"])
    with pytest.raises(cf.DisconnectedError):
        cf.reduce_divisor(cf.Divisor(g), "a")


def test_reduce_is_class_stable(monkeypatch):
    firings = []

    def recording_fire(graph, values, room, members):
        firings.append(_fire_indices(graph, values, room, members))
        return firings[-1]

    monkeypatch.setattr(chipfire.reduction, "_fire_indices", recording_fire)
    small = seeded_instances(42, 120, max_vertices=6, max_edges=9)
    large = seeded_instances(43, 60, max_vertices=8, max_edges=14, max_value=500)
    for rng, graph, divisor in itertools.chain(small, large):
        base = graph.vertex_ids[rng.randrange(graph.vertex_count)]
        reduced, script = cf.reduce_divisor(divisor, base)
        assert cf.is_reduced(reduced, base)
        # certified without the burning code: the subset test and the
        # oracle's exact solve
        assert cf.brute_is_reduced(reduced, base)
        assert _class_signature(graph, list(divisor.values)) == _class_signature(
            graph, list(reduced.values)
        )
        assert divisor + cf.apply_script(script) == reduced
        shift = cf.FiringScript(
            graph, [rng.randint(0, 2) for _ in graph.vertex_ids]
        )
        shifted = divisor + cf.apply_script(shift)
        assert cf.reduce_divisor(shifted, base)[0] == reduced
    assert min(firings) >= 1 and max(firings) > 1  # phase 2 fired in bulk


def test_reduce_big_piles_by_halving():
    # piles far above the halving bound 2g' + n - 1, so the reduction runs
    # its halving passes; checked without the burning code
    rng = random.Random(2026)
    checked = 0
    while checked < 40:
        graph = cf.random_connected_graph(rng, 8, 14, 2)
        n = graph.vertex_count
        if n < 2:
            continue
        checked += 1
        u = rng.randrange(n)
        base = graph.vertex_ids[u]
        values = list(cf.random_divisor(rng, graph, 3).values)
        for _ in range(rng.randint(1, 3)):
            values[rng.choice([v for v in range(n) if v != u])] += rng.randint(10**3, 10**6)
        divisor = cf.Divisor(graph, values)
        bound = 2 * cf.strip_weights_and_loops(graph).genus() + n - 1
        assert sum(values) - values[u] > bound
        reduced, script = cf.reduce_divisor(divisor, base)
        assert cf.brute_is_reduced(reduced, base)
        assert _class_signature(graph, values) == _class_signature(graph, list(reduced.values))
        assert divisor + cf.apply_script(script) == reduced
        shift = cf.FiringScript(graph, [rng.randint(0, 50) for _ in range(n)])
        assert cf.reduce_divisor(divisor + cf.apply_script(shift), base)[0] == reduced
        again, zero = cf.reduce_divisor(reduced, base)
        assert again == reduced and zero.levels == (0,) * n


def test_halving_bound_ignores_loops_and_weights():
    g = cf.Graph([("a", 2), "b", ("c", 1)], [("a", "b", 2), ("b", "c"), ("a", "a", 3), ("c", "c")])
    plain = cf.strip_weights_and_loops(g)
    assert g._loopless_genus == plain._loopless_genus == plain.genus() == 1
    looped = cf.reduce_divisor(cf.Divisor(g, {"c": 10**6}), "a")
    stripped = cf.reduce_divisor(cf.Divisor(plain, {"c": 10**6}), "a")
    assert [x.values for x in looped] == [x.values for x in stripped]


def test_halving_waits_for_the_first_round(monkeypatch):
    # 4 chips off the base reach the bound 2g' + n - 1 = 3, but one round
    # settles them: burn, fire twice, burn.  Halving before that round
    # would take two burns per bit
    burns = recorded(monkeypatch, chipfire.reduction, "_burn")
    reduced, script = cf.reduce_divisor(cf.Divisor(binary_graph(1), (-1, 4)), "v1")
    assert reduced.values == (3, 0)
    assert script.levels == (0, 2)
    assert len(burns) == 2


def test_debt_clearing_guard_trips_on_a_broken_degree_table():
    # with every degree halved a borrow gains one chip while its two
    # neighbours lose one each, so chips vanish and the debt never clears
    g = cycle_graph(5)
    g._degrees = (1,) * 5
    with pytest.raises(cf.InternalError, match="debt clearing did not terminate"):
        chipfire.reduction._reduce_indices(g, [0, 0, -3, 0, 0], 0)


def test_firing_guard_trips_when_a_round_moves_nothing(monkeypatch):
    monkeypatch.setattr(chipfire.reduction, "_fire_indices", lambda graph, values, room, members: 0)
    with pytest.raises(cf.InternalError, match="reduction did not terminate"):
        chipfire.reduction._reduce_indices(cycle_graph(5), [0, 2, 0, 0, 0], 0)


def _fire_every_unburned(graph, values, room, members, interior_rounds):
    """Reference round: the whole unburned set fires, interior vertices
    included, which lose 0 * t chips; ``members`` is ignored."""
    unburned = [v for v, r in enumerate(room) if r >= 0]
    out = [values[v] - room[v] for v in unburned]
    interior_rounds.append(0 in out)
    times = min(values[v] // k for v, k in zip(unburned, out) if k)
    for v, k in zip(unburned, out):
        values[v] -= k * times
        for w, mult in graph._adj_items[v]:
            if room[w] < 0:
                values[w] += mult * times
    return times


def _counted_reduction(monkeypatch, fire, graph, values, base):
    """``_reduce_indices`` with ``fire`` as its firing kernel: its values,
    unnormalized levels and the number of burns and firings."""
    monkeypatch.setattr(chipfire.reduction, "_fire_indices", fire)
    burns = recorded(monkeypatch, chipfire.reduction, "_burn")
    fires = recorded(monkeypatch, chipfire.reduction, "_fire_indices")
    values, levels = chipfire.reduction._reduce_indices(graph, list(values), base)
    monkeypatch.undo()
    return values, levels, {"burn": len(burns), "fire": len(fires)}


def test_firing_the_cut_is_the_round_of_the_whole_unburned_set(monkeypatch):
    # the same values, unnormalized levels, burns and firings as a round
    # that fires every unburned vertex, on multigraphs with parallel edges,
    # with and without debt and with piles that the reduction halves
    interior_rounds: list[bool] = []

    def reference(graph, values, room, members):
        return _fire_every_unburned(graph, values, room, members, interior_rounds)

    halved = 0
    for rng, graph, divisor in seeded_instances(19, 240, max_vertices=8, max_edges=14):
        n = graph.vertex_count
        edges = [e for e, _ in graph.edge_items() if e[0] != e[1]]
        if not edges:
            continue
        graph = graph.with_extra_edges(
            [(*rng.choice(edges), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        )
        base = rng.randrange(n)
        values = list(divisor.values)
        kind = rng.randrange(3)
        if kind:  # effective off the base
            values = [x if v == base else abs(x) for v, x in enumerate(values)]
        if kind == 2:  # piles far above the halving bound 2g' + n - 1
            for _ in range(rng.randint(1, 3)):
                values[rng.randrange(n)] += rng.randint(10**3, 10**6)
            halved += 1
        assert _counted_reduction(monkeypatch, _fire_indices, graph, values, base) == (
            _counted_reduction(monkeypatch, reference, graph, values, base)
        )
    assert halved > 50
    assert interior_rounds.count(True) > 100 and interior_rounds.count(False) > 100


@pytest.mark.parametrize(
    "graph, chips, base, burns, firings",
    [
        # one chip moves one vertex per round: firing the cut makes the
        # rounds cheaper, not fewer
        (tadpole_graph(1100), {"v0": 1}, "v1098", 1098, 1097),
        (tadpole_graph(1100), {"v0": 1, "v1098": -1}, "v1098", 1098, 1097),
        (cycle_graph(30), {"v7": 1000, "v20": 3}, "v0", 172, 166),
        (cycle_graph(30), {"v3": -5, "v11": 40, "v19": 40}, "v0", 36, 33),
        (grid_graph(8, 8, "v{k}"), {"v63": 1500}, "v0", 312, 307),
        (grid_graph(8, 8, "v{k}"), {"v9": 300, "v36": 300, "v54": 300}, "v63", 217, 213),
    ],
)
def test_firing_round_counts_are_pinned(monkeypatch, graph, chips, base, burns, firings):
    divisor = cf.Divisor(graph, chips)
    calls = _counted_reduction(monkeypatch, _fire_indices, graph, divisor.values, graph.index(base))[2]
    assert calls == {"burn": burns, "fire": firings}


# -- saturation ---------------------------------------------------------------


def test_saturate_reduced_input_adds_nothing(dhar5):
    g = dhar5.graph
    reduced, _ = cf.reduce_divisor(dhar5.divisors["example"], "v0")
    saturated, added = cf.saturate(reduced, "v0")
    assert added == 0
    assert saturated == g


def test_saturate_dhar5_recipe(dhar5):
    d = dhar5.divisors["example"]
    saturated, added = cf.saturate(d, "v0")
    assert added == 8  # 4 chips at v3 plus 4 at v4
    assert saturated.multiplicity("v0", "v3") == 6
    assert saturated.multiplicity("v0", "v4") == 4
    assert cf.is_saturation(dhar5.graph, saturated, d, "v0")


def test_two_edge_saturation_is_valid(dhar5):
    g = dhar5.graph
    d = dhar5.divisors["example"]
    assert cf.is_saturation(g, g.with_extra_edges([("v0", "v3"), ("v0", "v4")]), d, "v0")


def test_single_edge_saturations_at_v4(dhar5):
    g = dhar5.graph
    d = dhar5.divisors["example"]
    assert cf.is_saturation(g, g.with_extra_edges([("v0", "v4")]), d, "v4")
    assert cf.is_saturation(g, g.with_extra_edges([("v1", "v4")]), d, "v4")


def test_is_saturation_rejects_bad_candidates(dhar5):
    g = dhar5.graph
    d = dhar5.divisors["example"]
    # extra edge away from the base
    away = g.with_extra_edges([("v1", "v2", 9)])
    assert not cf.is_saturation(g, away, d, "v0")
    # no edges added: d is not v0-reduced on g itself
    assert not cf.is_saturation(g, g, d, "v0")
    # different vertex set
    assert not cf.is_saturation(g, binary_graph(1), d, "v0")
    # a single extra edge away from the base, though the divisor is reduced
    # at the base on the candidate
    path = cf.Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    one_extra = path.with_extra_edges([("b", "c")])
    assert cf.is_reduced(cf.Divisor(one_extra), "a")
    assert not cf.is_saturation(path, one_extra, cf.Divisor(path), "a")


def test_is_saturation_needs_every_original_edge():
    # one of the three parallel edges is missing from the candidate
    original = binary_graph(2)
    assert not cf.is_saturation(original, binary_graph(1), cf.Divisor(original, (0, 0)), "v1")


def test_is_saturation_refuses_a_divisor_on_another_graph(dhar5):
    with pytest.raises(cf.DomainError) as info:
        cf.is_saturation(dhar5.graph, dhar5.graph, cf.Divisor(binary_graph(1), (0, 0)), "v0")
    assert str(info.value) == "divisor is not bound to the original graph"


def test_is_saturation_refuses_a_candidate_that_is_no_graph(dhar5):
    with pytest.raises(cf.DomainError) as info:
        cf.is_saturation(dhar5.graph, "x", dhar5.divisors["example"], "v0")
    assert str(info.value) == "is_saturation expects a Graph, got str"


def test_is_saturation_refuses_an_original_that_is_no_graph(dhar5):
    with pytest.raises(cf.DomainError) as info:
        cf.is_saturation("x", dhar5.graph, dhar5.divisors["example"], "v0")
    assert str(info.value) == "is_saturation expects a Graph, got str"


def test_saturate_rejects_negative_off_base(dhar5):
    d = cf.Divisor(dhar5.graph, {"v1": -1})
    with pytest.raises(cf.DomainError):
        cf.saturate(d, "v0")


@settings(max_examples=40, deadline=None)
@given(graph_with_divisor(lo=0, hi=4, max_vertices=5), st.data())
def test_saturate_output_is_always_a_saturation(pair, data):
    graph, divisor = pair
    base = graph.vertex_ids[data.draw(st.integers(0, graph.vertex_count - 1))]
    saturated, added = cf.saturate(divisor, base)
    assert added == saturated.edge_count - graph.edge_count
    assert cf.is_saturation(graph, saturated, divisor, base)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=5), st.data())
def test_reduce_uniqueness_within_class(g, data):
    n = g.vertex_count
    d = cf.Divisor(g, [data.draw(st.integers(-2, 3)) for _ in range(n)])
    base = g.vertex_ids[data.draw(st.integers(0, n - 1))]
    script = cf.FiringScript(g, [data.draw(st.integers(0, 2)) for _ in range(n)])
    reduced, _ = cf.reduce_divisor(d, base)
    shifted_reduced, _ = cf.reduce_divisor(d + cf.apply_script(script), base)
    assert reduced == shifted_reduced
