import gc
import hashlib
import importlib
import math
import random
import time
from collections import Counter

import pytest

import chipfire as cf
from chipfire.oracle import BRUTE_RANK_MAX_DEGREE, BRUTE_RANK_MAX_VERTICES, _solve_reduced
from chipfire.reduction import _burn
from conftest import binary_graph, cycle_graph, grid_graph, seeded_instances


# -- rank_geq -----------------------------------------------------------------


def test_rank_geq_zero_for_effective(dhar5):
    ok, witness = cf.rank_geq(dhar5.divisors["example"], 0)
    assert ok and witness is None


def test_rank_geq_dhar5(dhar5):
    d = dhar5.divisors["example"]
    ok, _ = cf.rank_geq(d, 2)
    assert ok
    ok, witness = cf.rank_geq(d, 3)
    assert not ok
    assert witness is not None and witness.degree == 3 and witness.is_effective
    # the witness really fails: d - witness has no effective representative
    reduced, _ = cf.reduce_divisor(d - witness, "v0")
    assert reduced["v0"] < 0


def test_rank_geq_certifies_its_witness(dhar5, monkeypatch):
    d = dhar5.divisors["example"]
    # a degree-3 tuple whose subtraction leaves d effective: it does not fail
    passing = (0, 0, 0, 0, 3)
    assert (d - cf.Divisor(dhar5.graph, passing)).is_effective
    search = importlib.import_module("chipfire.rank")._Search
    monkeypatch.setattr(search, "scan_level", lambda self, k, previous=None: (passing, None))
    with pytest.raises(cf.InternalError, match="^witness failed its certification re-run$"):
        cf.rank_geq(d, 3)


def test_rank_geq_certifies_a_zero_witness(dhar5, monkeypatch):
    # the zero tuple's check reads the search's own base-reduced values, yet
    # still rejects a scan that fails level 0 of a class that is effective
    d = dhar5.divisors["example"] - cf.fire_set(dhar5.graph, ["v0"])
    assert not d.is_effective and cf.rank(d).rank >= 0
    search = importlib.import_module("chipfire.rank")._Search
    zero = (0,) * dhar5.graph.vertex_count
    monkeypatch.setattr(search, "scan_level", lambda self, k, previous=None: (zero, None))
    with pytest.raises(cf.InternalError, match="^witness failed its certification re-run$"):
        cf.rank_geq(d, 0)


def test_rank_minus_one_reduces_once(dhar5, monkeypatch):
    # a rank -1 witness is the zero divisor, whose check is the search's own
    # reduction, so it is not reduced a second time
    rank_module = importlib.import_module("chipfire.rank")
    reduce_indices = rank_module._reduce_indices
    calls = []

    def counting(*args):
        calls.append(args[2])
        return reduce_indices(*args)

    monkeypatch.setattr(rank_module, "_reduce_indices", counting)
    negative = cf.Divisor(dhar5.graph, {"v0": -1})
    for exhaustive in (False, True):
        calls.clear()
        result = cf.rank(negative, exhaustive=exhaustive)
        assert (result.rank, result.witness.values) == (-1, (0,) * 5)
        assert len(calls) == 1


def test_rank_geq_agrees_with_rank():
    # rank_geq scans one level with a search of its own; rank searches level
    # by level from 0, so the two share no class set and no memo
    checked = 0
    for _, graph, divisor in seeded_instances(1501, 600, max_weight=0):
        if any(graph.loop_count(v) for v in graph.vertex_ids):
            continue
        result = cf.rank(divisor, exhaustive=True)
        if result.rank >= 0:
            assert cf.rank_geq(divisor, result.rank) == (True, None)
        assert cf.rank_geq(divisor, result.rank + 1) == (False, result.witness)
        checked += 1
    assert checked >= 300


def test_rank_geq_past_the_degree_takes_no_class_step(dhar5, monkeypatch):
    # for k > deg D every class of level k has negative degree, so the
    # lex-first candidate, all k chips on the last vertex, fails with no
    # class step, however many candidates the level has
    rank_module = importlib.import_module("chipfire.rank")
    child = rank_module._child
    steps = []

    def counting(*args):
        steps.append(args)
        return child(*args)

    monkeypatch.setattr(rank_module, "_child", counting)
    path = cf.Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for divisor, k in ((dhar5.divisors["example"], 12), (cf.Divisor(path), 1), (cf.Divisor(path), 40)):
        assert 0 <= divisor.degree < k
        ok, witness = cf.rank_geq(divisor, k)
        n = divisor.graph.vertex_count
        assert not ok and witness.values == (0,) * (n - 1) + (k,)
    assert steps == []


def test_rank_geq_rejects_weighted_or_looped(weighted_binary):
    with pytest.raises(cf.DomainError):
        cf.rank_geq(weighted_binary.divisors["example"], 1)
    loopy = cf.Graph(["a"], [("a", "a")])
    with pytest.raises(cf.DomainError):
        cf.rank_geq(cf.Divisor(loopy, (1,)), 0)
    with pytest.raises(cf.DomainError):
        cf.rank_geq(cf.Divisor(binary_graph(1), (1, 1)), -1)


# -- rank ---------------------------------------------------------------------


def test_rank_dhar5(dhar5):
    # degree 11 against 7 for K - D on genus 10: ranked from the dual
    d = dhar5.divisors["example"]
    result = cf.rank(d)
    assert result.rank == 2
    assert result.method == "riemann-roch"
    assert result.witness is not None and result.witness.degree == 3
    exact = cf.rank(d, exhaustive=True)
    assert exact.method == "exhaustive"
    assert (result.rank, result.witness) == (exact.rank, exact.witness)


def test_rank_weighted_binary_both_paths(weighted_binary):
    d = weighted_binary.divisors["example"]
    fast = cf.rank(d)
    assert (fast.rank, fast.method) == (2, "rank-explicit")
    slow = cf.rank(d, exhaustive=True)
    assert (slow.rank, slow.method) == (2, "exhaustive")
    assert fast.witness.degree == slow.witness.degree == 3


def test_rank_fast_path_level_must_fail(monkeypatch):
    # a fast path that claims too low a rank starts the search at a level
    # that passes; the search must refuse rather than go on looking
    d = cf.Divisor(cf.Graph([("a", 2)]), (3,))
    assert cf.rank(d).rank == 1
    # zero capacities make rank-explicit claim rank 0; rank() computes the
    # capacities through the module's rank_for_degree binding
    monkeypatch.setattr(importlib.import_module("chipfire.rank"), "rank_for_degree", lambda x, g: 0)
    with pytest.raises(cf.InternalError, match="one degree above the computed rank"):
        cf.rank(d)
    assert cf.rank(d, exhaustive=True).rank == 1


def test_rank_runs_no_graph_constructor_on_weighted_looped_input(monkeypatch):
    # the hat graph is derived from the source's tables; a rebuild through
    # the validating constructor would be counted here
    g = cf.Graph([("a", 2), "b", ("c", 1)], [("a", "b"), ("b", "c", 2), ("a", "a"), ("c", "c", 2)])
    divisors = [cf.Divisor(g, v) for v in ((0, 1, 0), (3, 1, 0), (2, 2, 2), (-3, 0, 1), (9, 9, 9))]
    calls = []
    constructor = cf.Graph.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        constructor(self, *args, **kwargs)

    monkeypatch.setattr(cf.Graph, "__init__", counting)
    methods = {cf.rank(d).method for d in divisors}
    methods |= {cf.rank(d, exhaustive=True).method for d in divisors}
    assert methods == {"exhaustive", "rank-explicit", "reduced-negative", "riemann-roch"}
    assert calls == []
    cf.Graph(["x"])
    assert len(calls) == 1


def test_rank_three_component():
    fixture = cf.load_fixture("three-component")
    assert cf.rank(fixture.divisors["example"]).rank == 2


def test_rank_single_vertex_formula():
    # a divisor on one vertex is reduced there, so rank-explicitness gives
    # the degree formula, and a negative one is settled as reduced-negative
    for weight in range(4):
        for loops in range(3):
            g = cf.Graph([("v", weight)], [("v", "v", loops)] if loops else [])
            local = weight + loops
            for d0 in range(-2, 9):
                d = cf.Divisor(g, (d0,))
                result = cf.rank(d)
                expected = max(d0 - local, d0 // 2) if d0 >= 0 else -1
                assert result.rank == expected
                assert result.method == ("rank-explicit" if d0 >= 0 else "reduced-negative")
                exact = cf.rank(d, exhaustive=True)
                assert (result.rank, result.witness) == (exact.rank, exact.witness)


def test_rank_heavy_single_vertex_is_fast():
    # rank-explicit starts a heavy vertex at its failing level, so neither
    # call walks the levels below it
    start = time.perf_counter()
    assert cf.rank(cf.Divisor(cf.load_fixture("rose(18)").graph, (17,))).rank == 8
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    with pytest.raises(cf.BudgetError, match="degree-10 enumeration needs 30045015 candidates"):
        cf.rank(cf.Divisor(cf.load_fixture("rose(20)").graph, (19,)))
    assert time.perf_counter() - start < 0.1


def test_exhaustive_rank_on_one_vertex_steps_once_per_level(monkeypatch):
    # nothing on one vertex fires, so each level's one class is the values
    # minus the level and the search takes no class step at all, not the
    # N(N+1)/2 of stepping down from the values at every level
    rank_module = importlib.import_module("chipfire.rank")
    child = rank_module._child
    steps = []

    def counting(*args):
        steps.append(args[4])
        return child(*args)

    monkeypatch.setattr(rank_module, "_child", counting)
    n = 4000
    d = cf.Divisor(cf.Graph(["a"]), (n,))
    start = time.perf_counter()
    exact = cf.rank(d, exhaustive=True)
    assert time.perf_counter() - start < 1.0
    assert steps == []
    fast = cf.rank(d)
    assert fast.method == "rank-explicit"
    assert (exact.rank, exact.witness) == (fast.rank, fast.witness)
    assert (exact.rank, exact.witness.values) == (n, (n + 1,))


def test_rank_negative_class(dhar5):
    result = cf.rank(cf.Divisor(dhar5.graph, {"v0": -1}))
    assert result.rank == -1
    assert result.method == "reduced-negative"
    assert result.witness is not None and result.witness.degree == 0


def test_rank_requires_connected():
    g = cf.Graph(["a", "b"])
    with pytest.raises(cf.DisconnectedError):
        cf.rank(cf.Divisor(g))


# sha256 of (rank, method, witness literal) over 1,000 seeded instances,
# with the fast paths and without
_SEEDED_RANK_SHA256 = {
    False: "cb8f0f94447eb2c5120d12d08859b1e441b3ef1abf752046736e45be2f806a74",
    True: "a668b110ff2b91f045269503c54c646ab9cdfc305d491c37a90d92e3393fe4ae",
}


def test_seeded_rank_outputs_are_pinned():
    for exhaustive, expected in _SEEDED_RANK_SHA256.items():
        digest = hashlib.sha256()
        for _, _, divisor in seeded_instances(20260810, 1000):
            result = cf.rank(divisor, exhaustive=exhaustive)
            output = (result.rank, result.method, cf.render_divisor(result.witness))
            digest.update(repr(output).encode())
        assert digest.hexdigest() == expected


def test_rank_budget_guard(dhar5):
    with pytest.raises(cf.BudgetError) as info:
        cf.rank(dhar5.divisors["example"], budget=3)
    assert info.value.count is not None and info.value.count > 3
    assert info.value.budget == 3


def test_rank_budget_parity_with_exhaustive(dhar5):
    # the Riemann-Roch route scans the dual's levels and D's failing level
    # 3, all within what the exhaustive search scans, so both raise on the
    # same budgets with the same message
    d = dhar5.divisors["example"]
    level3 = math.comb(3 + 4, 4)
    for budget in range(level3 - 5, level3 + 5):
        outcomes = []
        for exhaustive in (False, True):
            try:
                outcomes.append(cf.rank(d, budget=budget, exhaustive=exhaustive).rank)
            except cf.BudgetError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], budget
        assert isinstance(outcomes[0], str) == (budget < level3)


def test_rank_budget_must_be_an_integer(dhar5, weighted_binary):
    # every budget reaches the per-level check, which refuses a non-integer
    # whatever the method; an integer budget keeps its message
    g = dhar5.graph
    divisors = [
        dhar5.divisors["example"],  # riemann-roch
        cf.Divisor(g, {"v0": -1}),  # reduced-negative
        cf.Divisor(g, {"v1": 1}),  # rank-explicit
        weighted_binary.divisors["example"],  # rank-explicit on a hat graph
    ]
    for d in divisors:
        for exhaustive in (False, True):
            with pytest.raises(TypeError):
                cf.rank(d, budget=1.5, exhaustive=exhaustive)
    with pytest.raises(TypeError):
        cf.rank_geq(dhar5.divisors["example"], 2, budget=100.0)
    with pytest.raises(TypeError):
        cf.rank_lower_bound_certified(dhar5.divisors["example"], 1, budget=1e9)
    with pytest.raises(cf.BudgetError) as info:
        cf.rank(dhar5.divisors["example"], budget=3)
    assert str(info.value) == "degree-1 enumeration needs 5 candidates, over the budget of 3"


def test_rank_witness_is_lex_smallest(dhar5):
    d = dhar5.divisors["example"]
    witness = cf.rank(d).witness
    g = dhar5.graph
    for e in cf.iter_effective_values(3, 5):
        candidate = cf.Divisor(g, e)
        reduced, _ = cf.reduce_divisor(d - candidate, "v0")
        failing = reduced["v0"] < 0
        if candidate == witness:
            assert failing
            break
        assert not failing


# -- class frontier -----------------------------------------------------------


def _banded_instances(seed, per_band, max_candidates=3000):
    """Sweep-generator divisors: ``per_band`` with 0 <= deg <= 2g-2 and as
    many above 2g-2, each with a lex scan of at most ``max_candidates``
    candidates at its failing level."""
    rng = random.Random(seed)
    bands = {"middle": [], "high": []}
    while any(len(found) < per_band for found in bands.values()):
        graph = cf.random_connected_graph(rng, 5, 9, 1)
        divisor = cf.random_divisor(rng, graph, 3)
        genus, degree = graph.genus(), divisor.degree
        if degree < 0:
            continue
        band = "high" if degree > 2 * genus - 2 else "middle"
        top = cf.rank_for_degree(degree, genus) + 1
        hat_n = cf.hat_graph(graph).target.vertex_count
        if len(bands[band]) < per_band and math.comb(top + hat_n - 1, hat_n - 1) <= max_candidates:
            bands[band].append(divisor)
    return bands["middle"] + bands["high"]


def _lex_rank(divisor):
    """Rank and witness by enumerating every level in lex order on the hat
    graph, reducing each candidate."""
    embedding = cf.hat_graph(divisor.graph)
    hat = embedding.target
    lifted = cf.lift_divisor(embedding, divisor)
    base = hat.vertex_ids[0]
    k = 0
    while True:
        for e in cf.iter_effective_values(k, hat.vertex_count):
            candidate = cf.Divisor(hat, e)
            reduced, _ = cf.reduce_divisor(lifted - candidate, base)
            if reduced[base] < 0:
                return k - 1, candidate
        k += 1


def test_rank_matches_lex_scan_and_brute_rank():
    brute_checked = 0
    for divisor in _banded_instances(501, 40):
        expected = _lex_rank(divisor)
        for exhaustive in (False, True):
            result = cf.rank(divisor, exhaustive=exhaustive)
            assert (result.rank, result.witness) == expected
        graph = divisor.graph
        if (
            not any(graph.weights)
            and not any(graph.loop_count(v) for v in graph.vertex_ids)
            and graph.vertex_count <= BRUTE_RANK_MAX_VERTICES
            and divisor.degree <= BRUTE_RANK_MAX_DEGREE
        ):
            assert cf.brute_rank(divisor) == expected[0]
            brute_checked += 1
    assert brute_checked >= 10


def test_scan_level_frontier_agrees_with_enumeration(monkeypatch):
    rank_module = importlib.import_module("chipfire.rank")
    search_type = rank_module._Search
    scan = search_type.scan_level
    expand = search_type.expand_classes
    expansions = []
    spanning_trees = {}
    decided_from_classes = 0

    def counting(search, previous, degree):
        children = expand(search, previous, degree)
        expansions.append(children)
        return children

    def level_classes(search, k):
        graph = search.graph
        return {
            cf.reduce_divisor(
                cf.Divisor(graph, search.values) - cf.Divisor(graph, e),
                graph.vertex_ids[search.base],
            )[0].values
            for e in cf.iter_effective_values(k, graph.vertex_count)
        }

    def checked(search, k, previous=None):
        nonlocal decided_from_classes
        graph = search.graph
        if graph not in spanning_trees:
            spanning_trees[graph] = _solve_reduced(graph, [0] * graph.vertex_count)[1]
        before = len(expansions)
        failing, classes = scan(search, k, previous)
        from_classes = failing is None and len(expansions) > before and expansions[-1] is not None
        if classes is not None:
            assert _with_base_values(search, k, classes) == level_classes(search, k)
            assert len(classes) <= spanning_trees[graph]
        # the search's memo answers exactly what a fresh one would
        fresh = search_type(graph, search.values, search.budget)
        assert scan(fresh, k, previous) == (failing, classes)
        if previous is not None:
            if from_classes:
                decided_from_classes += 1
            assert scan(search_type(graph, search.values, search.budget), k)[0] == failing
        return failing, classes

    # K4 with a path hung from v1: the path's vertices fall into v1's class,
    # so level 2 is expanded from four classes, and 2 v0 is equivalent to no
    # other effective divisor, so one class of level 2 is reached only by
    # subtracting the base
    ids = ["v0", "v1", "v2", "v3", "p1", "p2", "p3", "p4"]
    edges = [(a, b) for i, a in enumerate(ids[:4]) for b in ids[i + 1:4]]
    edges += [("v1", "p1"), ("p1", "p2"), ("p2", "p3"), ("p3", "p4")]
    pendant = cf.Divisor(cf.Graph(ids, edges), (2, 2, 2, 2, 0, 0, 0, 0))

    monkeypatch.setattr(search_type, "expand_classes", counting)
    monkeypatch.setattr(search_type, "scan_level", checked)
    for divisor in _banded_instances(502, 40) + [pendant]:
        cf.rank(divisor, exhaustive=True)
    assert decided_from_classes > 0


def _with_base_values(search, k, parts):
    """A level's classes as whole base-reduced tuples: each part off the base,
    which must be 0 at the base, with the base value that the level's degree
    implies put back."""
    if parts is None:
        return None
    base, degree = search.base, sum(search.values) - k
    assert all(part[base] == 0 for part in parts)
    return {part[:base] + (degree - sum(part),) + part[base + 1:] for part in parts}


def _reference_scan(search, k):
    """``(failing, classes)`` of the degree-k level of a search, reducing
    its values minus each tuple from scratch with ``reduce_divisor``; the
    class set is None past ``scan_level``'s limit on it."""
    graph = search.graph
    values = cf.Divisor(graph, search.values)
    base_id = graph.vertex_ids[search.base]
    classes = set()
    for e in cf.iter_effective_values(k, graph.vertex_count):
        reduced, _ = cf.reduce_divisor(values - cf.Divisor(graph, e), base_id)
        if reduced[base_id] < 0:
            return e, None
        classes.add(reduced.values)
    n = graph.vertex_count
    return None, classes if len(classes) <= math.comb(k + n, n - 1) // n else None


def _scan_cases(seed, count, max_candidates=1500):
    """``(hat, values, top)``: seeded weighted or looped instances of
    non-negative degree, lifted to their hat graphs, with ``top`` one above
    the rank and at most ``max_candidates`` candidates at that level."""
    cases = []
    for _, graph, divisor in seeded_instances(seed, 20 * count, max_value=4):
        if divisor.degree < 0:
            continue
        if not any(graph.weights) and not any(graph.loop_count(v) for v in graph.vertex_ids):
            continue
        embedding = cf.hat_graph(graph)
        hat, n = embedding.target, embedding.target.vertex_count
        top = cf.rank(divisor).rank + 1
        if math.comb(top + n - 1, n - 1) > max_candidates:
            continue
        cases.append((hat, cf.lift_divisor(embedding, divisor).values, top))
        if len(cases) == count:
            break
    return cases


def test_scan_level_matches_a_per_tuple_reference():
    search_type = importlib.import_module("chipfire.rank")._Search

    def scan_search(search, k):
        failing, parts = search.scan_level(k)
        return failing, _with_base_values(search, k, parts)

    def scan(graph, values, k):
        return scan_search(search_type(graph, values, 10**6), k)

    # one vertex: the hat is the graph, every step is at the base, and
    # level 4 is past the degree
    single = cf.Graph(["a"], [])
    # (2, -1) on two vertices joined by three edges has degree 1 and no
    # effective representative, so level 0 fails with a non-negative degree
    banana = binary_graph(2)
    banana_search = search_type(banana, (2, -1), 10**6)
    assert banana_search.base == 1
    assert banana_search.base_value < 0 and sum(banana_search.values) >= 0
    # a 5-cycle with the chord a-c: from the a-reduced (1, 0, 1, 1, 0), the
    # prefix (0, 0, 2) already has no effective representative, so a class
    # fails at coordinate 2, below n - 2, after every tuple before
    # (0, 0, 2, 0, 0) passed
    chord = cf.Graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("a", "c")],
    )
    assert cf.is_reduced(cf.Divisor(chord, (1, 0, 1, 1, 0)), "a")
    prefix, _ = cf.reduce_divisor(cf.Divisor(chord, (1, 0, -1, 1, 0)), "a")
    assert prefix["a"] < 0
    # (-1, 0, 0, 0, 1) is a-reduced and negative at a, so level 0 carries
    # a failing class through every coordinate
    assert cf.is_reduced(cf.Divisor(chord, (-1, 0, 0, 0, 1)), "a")
    cases = _scan_cases(503, 30) + [
        (single, (3,), 4),
        (banana, (2, -1), 2),
        (chord, (1, 0, 1, 1, 0), 2),
        (chord, (-1, 0, 0, 0, 1), 0),
    ]
    failures = 0
    for graph, values, top in cases:
        search = search_type(graph, values, 10**6)
        levels = list(range(top + 1))
        if sum(values) >= top:
            # one level past the degree takes the negative-degree branch
            levels.append(sum(values) + 1)
        for k in levels:
            expected = _reference_scan(search, k)
            # the search's memo, shared across levels, and a fresh one
            assert scan_search(search, k) == expected
            assert scan(graph, values, k) == expected
            failures += expected[0] is not None
        assert expected[0] is not None
    assert failures >= len(cases)
    assert scan(banana, (2, -1), 0) == ((0, 0), None)
    assert scan(single, (3,), 4) == ((4,), None)
    assert scan(chord, (1, 0, 1, 1, 0), 2) == ((0, 0, 2, 0, 0), None)
    assert scan(chord, (-1, 0, 0, 0, 1), 0) == ((0,) * 5, None)


def test_rank_search_leaves_no_cyclic_garbage():
    # a reference cycle left by the search would keep its step memo alive
    # until the collector happens to run, so memory would depend on timing
    divisors = list(_banded_instances(503, 12))
    gc.collect()
    gc.disable()
    try:
        for divisor in divisors:
            cf.rank(divisor, exhaustive=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _rank_and_drop_a_weighted_graph():
    graph = cf.Graph([("a", 2), "b", "c"], [("a", "b", 2), ("b", "c"), ("c", "c")])
    divisor = cf.Divisor(graph, (1, 0, 2))
    cf.rank(divisor)
    cf.rank(divisor, exhaustive=True)
    assert graph._hat is not None


def test_cached_hat_leaves_no_cyclic_garbage(monkeypatch):
    # the kept hat refers to nothing of its source graph, so a graph built,
    # ranked and dropped, or the graphs of a sweep, are freed by reference
    # counting alone; the test above keeps its graphs alive and would not
    # see a cycle through the kept hat
    graph_module = importlib.import_module("chipfire.graph")
    hang_fresh = graph_module._hang_fresh
    builds = Counter()

    def counting(*args):
        builds["_hang_fresh"] += 1
        return hang_fresh(*args)

    monkeypatch.setattr(graph_module, "_hang_fresh", counting)
    gc.collect()
    gc.disable()
    try:
        _rank_and_drop_a_weighted_graph()
        assert builds["_hang_fresh"] == 1
        assert gc.collect() == 0
        builds.clear()
        assert cf.run_sweep(cf.SweepConfig(trials=3, seed=5)).ok
        assert builds["_hang_fresh"] > 0  # a weighted or looped graph was hatted
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rank_builds_no_hat_for_a_weightless_loopless_graph(monkeypatch):
    # a weightless loopless graph is its own hat, so rank() never asks for
    # one; a weighted or looped graph builds its hat once, on its first rank
    rank_module = importlib.import_module("chipfire.rank")
    hat_graph = rank_module.hat_graph
    calls = []

    def counting(graph):
        calls.append(graph)
        return hat_graph(graph)

    monkeypatch.setattr(rank_module, "hat_graph", counting)
    plain = cf.Graph(["a", "b", "c"], [("a", "b", 2), ("b", "c"), ("a", "c")])
    methods = set()
    for values in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (-1, 0, 0), (3, 3, 3), (0, 1, -1)):
        for exhaustive in (False, True):
            methods.add(cf.rank(cf.Divisor(plain, values), exhaustive=exhaustive).method)
    assert methods == {"exhaustive", "rank-explicit", "reduced-negative", "riemann-roch"}
    assert calls == []
    for graph in (
        cf.Graph([("a", 1), "b"], [("a", "b")]),
        cf.Graph(["a", "b"], [("a", "b"), ("b", "b")]),
    ):
        for values in ((0, 0), (1, 0), (-1, 0), (2, 2)):
            cf.rank(cf.Divisor(graph, values))
        assert calls == [graph]
        calls.clear()


def test_exhaustive_rank_reduces_each_class_step_once_per_search(monkeypatch):
    # a class step reduces through the borrowing kernel alone, and the rest
    # through the full reduction: all three are counted where rank reaches
    # them, and the counts are pinned, so a scan that takes a class step
    # twice, or one it does not need, changes them; so are the searches
    # built, one per call and one more for a Riemann-Roch dual
    rank_module = importlib.import_module("chipfire.rank")
    calls = Counter()

    def counted(owner, name, key):
        function = getattr(owner, name)

        def counting(*args):
            calls[key] += 1
            return function(*args)

        monkeypatch.setattr(owner, name, counting)

    for name in ("_reduce_indices", "_borrow", "_child"):
        counted(rank_module, name, name)
    counted(rank_module._Search, "__init__", "_Search")

    all_ones = cf.Divisor(grid_graph(3, 4), (1,) * 12)
    counts = []
    for _ in range(2):
        calls.clear()
        result = cf.rank(all_ones, exhaustive=True)
        assert result.rank == 6
        assert result.witness.nonzero_items() == (("g2_2", 7),)
        counts.append(dict(calls))
    # 18,475 reductions when every candidate was reduced from scratch, and
    # 6,765 borrows when a step was keyed by its whole class: a level past
    # degree g repeats the classes of the one before off the base, with the
    # base value one lower, and a step keyed by the part off the base serves
    # both.  Of the 27,197 steps, 37 are level 7's failed expansion of level
    # 6's classes, which stops at the first failing class in set order.  The
    # same counts again show that nothing carried over from the first search
    assert counts[0] == {"_Search": 1, "_reduce_indices": 2, "_child": 27197, "_borrow": 3833}
    assert counts[1] == counts[0]
    calls.clear()
    assert cf.rank_geq(all_ones, 7) == (False, result.witness)
    assert calls["_Search"] == 1

    # genus 6 with a weight and a loop: K - D ranks first, on the hat graph,
    # and D's search starts one level above the rank that gives
    weighted = cf.Graph(
        [("a", 2), "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"), ("b", "b")],
    )
    calls.clear()
    result = cf.rank(cf.Divisor(weighted, (2, 2, 1, 1)))
    assert (result.rank, result.method) == (2, "riemann-roch")
    assert result.witness.nonzero_items() == (("a.z1", 1), ("a.z2", 1), ("b.z1", 1))
    assert calls == {"_Search": 2, "_reduce_indices": 3, "_child": 25, "_borrow": 14}

    # above degree 2g - 2, K - D has negative degree, so its search fails
    # level 0 on the reduction it was built with and takes no class step
    first_failing = rank_module._Search.first_failing
    steps_at_return = []

    def recording(self, method, k):
        found = first_failing(self, method, k)
        steps_at_return.append(calls["_child"])
        return found

    monkeypatch.setattr(rank_module._Search, "first_failing", recording)
    calls.clear()
    result = cf.rank(cf.Divisor(weighted, (6, 5, 2, -1)))  # degree 12, not effective
    assert (result.rank, result.method) == (6, "riemann-roch")
    assert result.witness.nonzero_items() == (("a.z1", 1), ("a.z2", 3), ("b.z1", 3))
    assert calls == {"_Search": 2, "_reduce_indices": 3, "_child": 57, "_borrow": 21}
    assert steps_at_return == [0, 57]  # the dual's search, then D's from level 7

    # a class with no effective representative fails level 0 on the search's
    # own reduction, whether or not rank calls it reduced-negative
    counts = []
    for exhaustive in (False, True):
        calls.clear()
        result = cf.rank(cf.Divisor(weighted, (3, -2, 0, 0)), exhaustive=exhaustive)
        counts.append((result.rank, result.method, dict(calls)))
    assert counts == [
        (-1, "reduced-negative", {"_Search": 1, "_reduce_indices": 1}),
        (-1, "exhaustive", {"_Search": 1, "_reduce_indices": 1}),
    ]


def test_class_step_does_not_read_the_base_value():
    # a step is given the class's part off the base alone: at two base
    # values, one low and one high, the full reduction of the class minus v
    # has the step's part off the base and the base value less the step's
    # loss, whether the step is fresh or from a memo that already holds it
    rank_module = importlib.import_module("chipfire.rank")
    child = rank_module._child
    rng = random.Random(1907)
    checked = borrowed = 0
    for hat, _, _ in _scan_cases(1907, 25):
        n = hat.vertex_count
        for _ in range(4):
            base = rng.randrange(n)
            base_id = hat.vertex_ids[base]
            drawn = [rng.randint(0, 3) for _ in range(n)]
            part = list(cf.reduce_divisor(cf.Divisor(hat, drawn), base_id)[0].values)
            part[base] = 0
            part = tuple(part)
            memo = {}
            for v in range(n):
                step_part, lost = child(hat, base, memo, part, v)
                assert (step_part, lost) == child(hat, base, memo, part, v)
                assert step_part[base] == 0 and lost >= 0
                for b in (rng.randint(0, 2), rng.randint(3, 9)):
                    c = list(part)
                    c[base] = b
                    c[v] -= 1
                    reduced = cf.reduce_divisor(cf.Divisor(hat, c), base_id)[0].values
                    assert reduced == step_part[:base] + (b - lost,) + step_part[base + 1:]
                checked += 1
                borrowed += v != base and not part[v]
    assert checked >= 500 and borrowed >= 100


def test_class_step_by_borrowing_alone_is_the_reduction(monkeypatch):
    # every step c - v with c(v) = 0 off the base that a search meets, on
    # weighted or looped hat graphs, checked against the full reduction
    rank_module = importlib.import_module("chipfire.rank")
    child = rank_module._child
    steps = {}

    def recording(graph, base, memo, part, v):
        if not part[v] and v != base:
            steps[graph, base, part, v] = None
        return child(graph, base, memo, part, v)

    monkeypatch.setattr(rank_module, "_child", recording)
    for hat, values, top in _scan_cases(1303, 30):
        search, classes = rank_module._Search(hat, values, 10**6), None
        for k in range(top + 1):
            _, classes = search.scan_level(k, classes)
    reaching_the_base = 0
    for graph, base, part, v in steps:
        base_id = graph.vertex_ids[base]
        assert part[base] == 0 and cf.is_reduced(cf.Divisor(graph, part), base_id)
        step_part, lost = child(graph, base, {}, part, v)
        assert step_part[base] == 0 and cf.is_reduced(cf.Divisor(graph, step_part), base_id)
        # the step never reads the base value, so any will do: at ``lost``
        # the class minus v is effective, one below it the class fails
        for b in (lost, lost - 1):
            c = list(part)
            c[base] = b
            c[v] -= 1
            reduced, _ = cf.reduce_divisor(cf.Divisor(graph, c), base_id)
            assert reduced.values == step_part[:base] + (b - lost,) + step_part[base + 1:]
        reaching_the_base += lost > 0
    assert len(steps) >= 500 and 0 < reaching_the_base < len(steps)

    # the step needs c reduced: on a path from the base, (3, 0, 5) is not,
    # and borrowing alone at the middle vertex leaves (2, 1, 4), from which
    # {b, c} can still fire
    path = cf.Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert not cf.is_reduced(cf.Divisor(path, (3, 0, 5)), "a")
    step_part, lost = child(path, 0, {}, (0, 0, 5), 1)
    assert (step_part, lost) == ((0, 1, 4), 1)
    step = (3 - lost,) + step_part[1:]
    assert not cf.is_reduced(cf.Divisor(path, step), "a")
    assert cf.reduce_divisor(cf.Divisor(path, step), "a")[0].values == (7, 0, 0)


# -- rank-explicit ------------------------------------------------------------


def test_rank_explicit_weighted_binary(weighted_binary):
    d = weighted_binary.divisors["example"]
    assert cf.rank_explicit_vertex(d) == "v1"
    assert cf.rank_explicit_vertices(d) == ("v1", "v2")


def test_rank_explicit_vertex_stops_at_first_hit(monkeypatch):
    # the zero divisor on a path is reduced at every vertex, so every vertex
    # qualifies; the first one must be found with a single burn
    n = 40
    g = cf.Graph([f"p{i}" for i in range(n)], [(f"p{i}", f"p{i + 1}") for i in range(n - 1)])
    calls = []

    def counting(graph, values, base):
        calls.append(base)
        return _burn(graph, values, base)

    # the package re-exports the rank() function under the module's name
    monkeypatch.setattr(importlib.import_module("chipfire.rank"), "_burn", counting)
    zero = cf.Divisor(g)
    assert cf.rank_explicit_vertex(zero) == "p0"
    assert calls == [0]
    calls.clear()
    assert cf.rank_explicit_vertices(zero) == g.vertex_ids
    assert len(calls) == n


def test_plain_graph_calls_check_connectivity_before_weights():
    # one entry check comes first for every call: a disconnected weighted
    # graph is refused as disconnected
    d = cf.Divisor(cf.Graph([("a", 1), "b"]))
    calls = {
        "rank_geq": lambda: cf.rank_geq(d, 0),
        "saturation_bound": lambda: cf.saturation_bound(d, "a"),
        "brute_rank": lambda: cf.brute_rank(d),
    }
    for name, call in calls.items():
        with pytest.raises(cf.DisconnectedError, match=rf"^{name} requires a connected graph$"):
            call()


def test_rank_explicit_errors_name_their_entry_point():
    zero = cf.Divisor(cf.Graph(["a", "b"]))
    for entry in (cf.rank_explicit_vertex, cf.rank_explicit_vertices):
        message = rf"^{entry.__name__} requires a connected graph$"
        with pytest.raises(cf.DisconnectedError, match=message):
            entry(zero)


def _explicit_by_definition(divisor):
    """Every minimum-capacity vertex at which the effective divisor is
    reduced, each tested by ``is_reduced``, with no vertex skipped."""
    capacity = cf.rank_capacity(divisor).values
    return tuple(
        v
        for v, c in zip(divisor.graph.vertex_ids, capacity)
        if c == min(capacity) and cf.is_reduced(divisor, v)
    )


def _clifford_range_divisors(seed, count):
    """Effective divisors spread at random in degree 0..2g-2, on the sweep
    generator's graphs, as the rank-clifford benchmark draws them."""
    rng = random.Random(seed)
    while count:
        graph = cf.random_connected_graph(rng, 7, 12, 2)
        if graph.genus() < 2:
            continue
        values = [0] * graph.vertex_count
        for _ in range(rng.randint(0, 2 * graph.genus() - 2)):
            values[rng.randrange(graph.vertex_count)] += 1
        count -= 1
        yield cf.Divisor(graph, values)


def test_rank_explicit_chip_bound_skips_only_unreduced_vertices(monkeypatch):
    # a divisor reduced at v has at most g' (the loopless genus) chips off v,
    # so skipping a vertex with fewer than deg - g' chips may not drop one
    burns = []

    def counting(graph, values, base):
        burns.append(base)
        return _burn(graph, values, base)

    monkeypatch.setattr(importlib.import_module("chipfire.rank"), "_burn", counting)
    effective = [d for _, _, d in seeded_instances(41, 300) if d.is_effective]
    effective += _clifford_range_divisors(42, 300)
    reference_burns = 0
    for d in effective:
        capacity = cf.rank_capacity(d).values
        reference_burns += capacity.count(min(capacity))
        assert cf.rank_explicit_vertices(d) == _explicit_by_definition(d), d
    assert len(effective) > 350
    # the bound ruled some candidates out, and not all of them
    assert 0 < len(burns) < reference_burns


def test_rank_explicit_chip_bound_can_rule_out_every_candidate(monkeypatch):
    # on a cycle g' = 1; every vertex of least capacity (value 0) holds fewer
    # than deg - g' = 1 chips, so none is burned, and none qualifies
    burns = []
    rank_module = importlib.import_module("chipfire.rank")
    monkeypatch.setattr(rank_module, "_burn", lambda *args: burns.append(args) or _burn(*args))
    g = cycle_graph(5)
    d = cf.Divisor(g, (1, 1, 0, 0, 0))
    assert _explicit_by_definition(d) == ()
    assert cf.rank_explicit_vertices(d) == ()
    assert cf.rank(d).method == "riemann-roch"
    assert burns == []


def test_rank_explicit_absent_for_binary_genus_one_class():
    g = binary_graph(1)
    # the class of (0,2) has rank 1, and no representative is rank-explicit
    for rep in ((0, 2), (2, 0)):
        assert cf.rank_explicit_vertex(cf.Divisor(g, rep)) is None
    assert cf.rank(cf.Divisor(g, (0, 2))).rank == 1


def test_rank_explicit_absent_on_dhar5(dhar5):
    assert cf.rank_explicit_vertex(dhar5.divisors["example"]) is None


def test_rank_explicit_non_effective(dhar5):
    g = dhar5.graph
    assert cf.rank_explicit_vertices(cf.Divisor(g, {"v0": -1})) == ("v0",)
    # a non-effective divisor whose class is effective is not certified
    d = dhar5.divisors["example"] + cf.fire_set(g, {"v0"})
    assert not d.is_effective
    assert cf.rank(d).rank == 2
    assert cf.rank_explicit_vertices(d) == ()


def test_rank_explicit_non_effective_reports_the_first_vertex(dhar5):
    # the reduction runs where the debt is, but the certificate names v0
    g = dhar5.graph
    assert cf.rank_explicit_vertices(cf.Divisor(g, {"v3": -1})) == ("v0",)
    assert cf.rank_explicit_vertex(cf.Divisor(g, {"v3": -2, "v4": 1})) == "v0"


# -- certified lower bound ----------------------------------------------------


def test_lower_bound_certified_trivial(dhar5):
    assert cf.rank_lower_bound_certified(dhar5.divisors["example"], 0)


def test_lower_bound_certified_weighted_binary(weighted_binary):
    g = weighted_binary.graph
    d = weighted_binary.divisors["example"]
    # the degree demands of the three degree-2 effective divisors
    assert cf.degree_demand(cf.Divisor(g, (2, 0))).values == (3, 0)
    assert cf.degree_demand(cf.Divisor(g, (1, 1))).values == (2, 2)
    assert cf.degree_demand(cf.Divisor(g, (0, 2))).values == (0, 4)
    assert cf.rank_lower_bound_certified(d, 2)
    assert not cf.rank_lower_bound_certified(d, 3)


def test_lower_bound_certified_when_reduction_pays_the_debt():
    # a candidate leaves debt, and the reduction finds an effective representative
    triangle = cf.Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    d = cf.Divisor(triangle, (2, 0, 0))
    assert cf.rank(d).rank == 1
    assert cf.rank_lower_bound_certified(d, 1)
    assert not cf.rank_lower_bound_certified(d, 2)
    weighted = cf.Divisor(cf.Graph([("a", 1), "b"], [("a", "b", 2)]), (3, 0))
    assert cf.rank(weighted).rank == 1
    assert cf.rank_lower_bound_certified(weighted, 1)


def test_lower_bound_certified_at_capacity_floor():
    for rng, graph, divisor in seeded_instances(9, 40, max_vertices=5, max_edges=8, max_value=3):
        effective = cf.Divisor(graph, [abs(x) for x in divisor.values])
        floor_value = cf.rank_lower_bound(effective)
        if floor_value >= 0:
            assert cf.rank_lower_bound_certified(effective, floor_value)


def test_lower_bound_certified_rejects_negative_r(dhar5):
    with pytest.raises(cf.DomainError):
        cf.rank_lower_bound_certified(dhar5.divisors["example"], -1)


# -- saturation bound ---------------------------------------------------------


def test_saturation_bound_reduced_case(dhar5):
    reduced, _ = cf.reduce_divisor(dhar5.divisors["example"], "v0")
    # v0 does not attain the minimum of the reduced divisor; build a case that does
    g = binary_graph(2)
    d = cf.Divisor(g, (1, 2))
    assert cf.is_reduced(d, "v1")
    assert cf.saturation_bound(d, "v1") == 1


def test_saturation_bound_dhar5(dhar5):
    g = dhar5.graph
    d = dhar5.divisors["example"]
    tight = cf.saturation_bound(d, "v0", g.with_extra_edges([("v0", "v3"), ("v0", "v4")]))
    assert tight == 2 == cf.rank(d).rank
    loose = cf.saturation_bound(d, "v0")
    assert loose == 8
    assert loose >= cf.rank(d).rank


def test_saturation_bound_validates_input(dhar5):
    g = dhar5.graph
    d = dhar5.divisors["example"]
    with pytest.raises(cf.DomainError):
        cf.saturation_bound(d, "v3")  # v3 does not attain the minimum
    with pytest.raises(cf.DomainError):
        cf.saturation_bound(d, "v0", g.with_extra_edges([("v1", "v2")]))


# -- conformance identities ---------------------------------------------------


def test_rr_residual_canonical_is_zero(dhar5):
    assert cf.riemann_roch_residual(dhar5.graph.canonical_divisor()) == 0


def test_rr_residual_dhar5(dhar5):
    d = dhar5.divisors["example"]
    assert cf.riemann_roch_residual(d) == 0
    dual = dhar5.graph.canonical_divisor() - d
    assert cf.rank(dual).rank == 0


def test_rr_residual_ranks_both_sides_exhaustively(dhar5, weighted_binary, monkeypatch):
    # the residual checks Riemann-Roch, so the Riemann-Roch route must not
    # answer either side
    module = importlib.import_module("chipfire.rank")
    original = module.rank
    calls = []

    def recording(divisor, **kwargs):
        calls.append(kwargs.get("exhaustive", False))
        return original(divisor, **kwargs)

    monkeypatch.setattr(module, "rank", recording)
    for d in (dhar5.divisors["example"], weighted_binary.divisors["example"]):
        assert cf.riemann_roch_residual(d) == 0
    assert calls == [True] * 4


def test_rr_residual_binary_sweep():
    for genus in range(1, 6):
        g = binary_graph(genus)
        k = g.canonical_divisor()
        for a in range(genus + 1):
            for b in range(a, genus + 1):
                d = cf.Divisor(g, (a, b))
                assert cf.riemann_roch_residual(d) == 0
                assert cf.rank(d).rank == a
                assert cf.rank(k - d).rank == genus - b - 1


def test_clifford_examples(dhar5):
    assert cf.clifford_check(dhar5.divisors["example"])
    g3 = binary_graph(3)
    assert cf.rank(cf.Divisor(g3, (1, 2))).rank == 1  # 1 <= floor(3/2)
    assert cf.clifford_check(cf.Divisor(g3, (1, 2)))
    # degree beyond 2g-2 is vacuous
    assert cf.clifford_check(cf.Divisor(g3, (9, 9)))
    # also just past it: degree 7 on K4 (genus 3, 2g - 2 = 4) has rank
    # 7 - 3 = 4 > floor(7 / 2), yet Clifford does not apply there
    ids = ["a", "b", "c", "d"]
    k4 = cf.Graph(ids, [(x, y) for i, x in enumerate(ids) for y in ids[i + 1:]])
    seven = cf.Divisor(k4, {"a": 7})
    assert cf.rank(seven).rank == 4
    assert cf.clifford_check(seven)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: cf.saturation_bound(cf.Divisor(binary_graph(2), (-1, 3)), "v1"),
            "saturation_bound needs an effective divisor",
        ),
        (lambda: cf.binary_rank(-1, 0, 0), "binary_rank needs genus >= 0"),
    ],
)
def test_rank_input_checks(call, message):
    with pytest.raises(cf.DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("args", [(2, 1.5, 2), (2, 1, 2.0), (1.0, 0, 2)])
def test_binary_rank_rejects_non_integers(args):
    with pytest.raises(TypeError):
        cf.binary_rank(*args)


def test_clifford_holds_vacuously_at_rank_minus_one():
    # degree 0 lies in [0, 2g - 2] on genus 2, but the class has no effective member
    d = cf.Divisor(binary_graph(2), (-1, 1))
    assert cf.rank(d).rank == -1
    assert cf.clifford_check(d)


# -- binary closed form -------------------------------------------------------


def test_binary_rank_examples():
    assert cf.binary_rank(1, 0, 2) == 1
    assert cf.binary_rank(3, 2, 5) == 4
    for genus in range(2, 6):
        for a in range(genus + 1):
            for b in range(a, genus + 1):
                assert cf.binary_rank(genus, a, b) == a


def test_binary_rank_negative_entries():
    g = binary_graph(2)
    cases = {
        (-1, -2): -1,  # negative degree
        (-1, 2): -1,  # degree 1 but no effective representative
        (-3, 4): 0,  # shifts to (0, 1)
        (-3, 7): 2,  # shifts to (0, 4); degree 4 >= 2g-1 so rank 4 - 2
    }
    for (a, b), expected in cases.items():
        assert cf.binary_rank(2, a, b) == expected
        assert cf.rank(cf.Divisor(g, (a, b))).rank == expected


def test_binary_rank_trees():
    g = binary_graph(0)
    for total in range(5):
        assert cf.binary_rank(0, total, 0) == total
        assert cf.rank(cf.Divisor(g, (total, 0))).rank == total
        assert cf.rank(cf.Divisor(g, (total - 2, 2))).rank == total


def test_binary_rank_agrees_with_shifted_representatives():
    # binary_rank also raises InternalError if its two representatives of
    # one class ever gave different case values
    for genus in range(10):
        period = genus + 1
        for a in range(-25, 26):
            for b in range(-25, 26):
                value = cf.binary_rank(genus, a, b)
                assert value == cf.binary_rank(genus, a - period, b + period)
                assert value == cf.binary_rank(genus, b, a)  # swap symmetry
    # negative entries against the exhaustive search, which uses no closed form
    for genus in range(4):
        g = binary_graph(genus)
        for a in range(-2 * genus - 3, 1):
            for b in range(-a - 1, -a + 2 * genus + 3):
                expected = cf.rank(cf.Divisor(g, (a, b)), exhaustive=True).rank
                assert cf.binary_rank(genus, a, b) == expected


# -- comparisons --------------------------------------------------------------


def test_g0_comparison_examples(dhar5):
    d = dhar5.divisors["example"]
    r0, r = cf.g0_comparison(d)
    assert r0 == r == 2  # already weightless loopless
    rose = cf.Graph([("v", 2)])
    assert cf.g0_comparison(cf.Divisor(rose, (2,))) == (2, 1)
    loop = cf.Graph(["v"], [("v", "v")])
    assert cf.g0_comparison(cf.Divisor(loop, (-1,))) == (-1, -1)


def test_bullet_identity_examples():
    loop = cf.Graph(["v"], [("v", "v")])
    assert cf.rank(cf.Divisor(loop, (1,))).rank == 0
    assert cf.bullet_rank_identity(cf.Divisor(loop, (1,)))
    plain = binary_graph(2)
    assert cf.bullet_rank_identity(cf.Divisor(plain, (1, 1)))


def test_rank_zero_characterization_small():
    # rank 0 iff some base-reduced representative vanishes at its base
    for rng, graph, divisor in seeded_instances(300, 40, max_vertices=4, max_edges=6, max_value=2):
        stripped = cf.strip_weights_and_loops(graph)
        d = cf.Divisor(stripped, divisor.values)
        value = cf.rank(d).rank
        zero_base = any(
            cf.reduce_divisor(d, u)[0][u] == 0 for u in stripped.vertex_ids
        )
        assert (value == 0) == zero_base


def test_rank_class_invariance_and_monotonicity_small(dhar5):
    g = dhar5.graph
    d = dhar5.divisors["example"]
    shifted = d + cf.fire_set(g, {"v1", "v2"})
    assert cf.rank(shifted).rank == 2
    assert cf.rank(d + cf.Divisor(g, {"v0": 1})).rank >= 2
