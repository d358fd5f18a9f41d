"""Acceptance suite: one test per criterion, each printing a pass line and
holding its stated wall-clock limit.  All equality checks are exact."""

import math
import random
import time

import chipfire as cf
from chipfire.oracle import _class_signature
from conftest import binary_graph, cycle_graph, grid_graph


class _Timer:
    def __init__(self, criterion, limit):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.criterion} exceeded its {self.limit}s limit ({elapsed:.2f}s)"
            )
            print(f"criterion {self.criterion}: PASS ({elapsed:.2f}s < {self.limit}s)")
        else:
            print(f"criterion {self.criterion}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_five_vertex_fixture():
    with _Timer(1, 1.0):
        fixture = cf.load_fixture("dhar5")  # load itself re-derives the pinned firings
        g = fixture.graph
        d = fixture.divisors["example"]

        assert cf.fire_set(g, {"v3", "v4"}).values == (2, 2, 2, -4, -2)
        assert cf.fire_set(g, {"v1", "v2", "v4"}).values == (4, -3, -3, 4, -2)

        from_v0 = cf.dhar(d, "v0")
        assert from_v0.layers == (frozenset({"v0"}), frozenset({"v1"}), frozenset({"v2"}))
        assert from_v0.unburned == frozenset({"v3", "v4"})
        from_v4 = cf.dhar(d, "v4")
        assert from_v4.layers == (frozenset({"v4"}),)
        assert from_v4.unburned == frozenset({"v0", "v1", "v2", "v3"})

        assert cf.rank(d).rank == 2

        step1 = cf.Divisor(g, (2, 3, 4, 0, 2))
        step2 = cf.Divisor(g, (6, 0, 1, 4, 0))
        witness1 = cf.equivalence_script(step1, d)
        witness2 = cf.equivalence_script(step2, step1)
        assert witness1 is not None and d + cf.apply_script(witness1) == step1
        assert witness2 is not None and step1 + cf.apply_script(witness2) == step2


def test_criterion_2_saturation_bounds():
    with _Timer(2, 1.0):
        fixture = cf.load_fixture("dhar5")
        g = fixture.graph
        d = fixture.divisors["example"]

        two_edge = g.with_extra_edges([("v0", "v3"), ("v0", "v4")])
        assert cf.is_reduced(cf.Divisor(two_edge, d.as_dict()), "v0")
        assert cf.is_saturation(g, two_edge, d, "v0")
        assert cf.saturation_bound(d, "v0", two_edge) == 2

        recipe_graph, recipe_m = cf.saturate(d, "v0")
        assert recipe_m == 8
        assert cf.is_saturation(g, recipe_graph, d, "v0")
        assert cf.saturation_bound(d, "v0") == 8

        value = cf.rank(d).rank
        assert value == 2
        assert 8 >= value and 2 >= value


def test_criterion_3_weighted_binary():
    with _Timer(3, 5.0):
        fixture = cf.load_fixture("weighted-binary")
        d = fixture.divisors["example"]

        assert cf.rank_capacity(d).values == (2, 2)
        assert cf.rank_explicit_vertices(d) == ("v1", "v2")

        fast = cf.rank(d)
        assert (fast.rank, fast.method) == (2, "rank-explicit")
        slow = cf.rank(d, exhaustive=True)
        assert (slow.rank, slow.method) == (2, "exhaustive")


def test_criterion_4_three_component():
    with _Timer(4, 10.0):
        fixture = cf.load_fixture("three-component")
        g = fixture.graph
        assert g.multiplicity("v1", "v3") == 3
        assert g.multiplicity("v2", "v3") == 7
        assert g.multiplicity("v1", "v2") == 0
        assert cf.rank(fixture.divisors["example"]).rank == 2

        for heavy in (7, 8, 9, 10):
            variant = cf.Graph(
                ["v1", "v2", "v3"], [("v1", "v3", 3), ("v2", "v3", heavy)]
            )
            assert cf.rank(cf.Divisor(variant, (1, 2, 3))).rank == 2


def test_criterion_5_binary_graphs():
    with _Timer(5, 30.0):
        assert cf.binary_rank(1, 0, 2) == 1
        for genus in range(1, 7):
            g = binary_graph(genus)
            for a in range(genus + 4):
                for b in range(a, genus + 4):
                    closed_form = cf.binary_rank(genus, a, b)
                    assert closed_form == (a if b <= genus else a + b - genus)
                    d = cf.Divisor(g, (a, b))
                    assert cf.rank(d).rank == closed_form
                    assert cf.rank(d, exhaustive=True).rank == closed_form
        assert cf.rank(cf.Divisor(binary_graph(1), (0, 2))).rank == 1
    with _Timer("binary_rank with 2 * 10^12 chips", 0.1):
        assert cf.binary_rank(0, 10**12, 10**12) == 2 * 10**12
        assert cf.binary_rank(7, -(10**12), 10**12 + 3) == 0


def test_criterion_6_rose_formula():
    with _Timer(6, 5.0):
        shapes = sorted(
            {
                (weight, loops)
                for total in range(6)
                for weight, loops in ((total, 0), (0, total), (total // 2, total - total // 2))
            }
        )
        for weight, loops in shapes:
            local = weight + loops
            g = cf.Graph(
                [("v", weight)], [("v", "v", loops)] if loops else []
            )
            for d0 in range(13):
                expected = max(d0 - local, d0 // 2)
                # the exhaustive hat-graph path keeps this non-circular
                assert cf.rank(cf.Divisor(g, (d0,)), exhaustive=True).rank == expected
                assert cf.rank(cf.Divisor(g, (d0,))).rank == expected
            assert cf.rank(cf.Divisor(g, (-1,))).rank == -1


def test_criterion_7_property_suite():
    with _Timer(7, 300.0):
        config = cf.SweepConfig(
            trials=500,
            max_vertices=6,
            max_edges=12,
            max_weight=2,
            max_value=4,
            seed=20260810,
        )
        report = cf.run_sweep(config)
        assert report.trials == 500
        assert report.failures == []
        for name in (
            "riemann-roch",
            "clifford",
            "class-invariance",
            "lower-bound",
            "monotonicity",
            "g0-comparison",
            "bullet-identity",
            "high-degree",
        ):
            assert report.checks[name] == 500
        # the whole seeded report is pinned: its resample count and every
        # check count
        assert report.resampled == 138
        assert report.checks == {
            "riemann-roch": 500,
            "clifford": 500,
            "class-invariance": 500,
            "lower-bound": 500,
            "monotonicity": 500,
            "g0-comparison": 500,
            "bullet-identity": 500,
            "high-degree": 500,
            "rank-zero-characterization": 500,
            "fast-path-agreement": 434,
            "oracle-rank": 124,
            "oracle-reduced": 500,
            "reduce-canonical": 500,
        }


def test_criterion_8_oracle_agreement():
    with _Timer(8, 600.0):
        rng = random.Random(88)

        rank_agreements = 0
        while rank_agreements < 200:
            graph = cf.strip_weights_and_loops(
                cf.random_connected_graph(rng, 6, 9, 0)
            )
            divisor = cf.random_divisor(rng, graph, 2)
            if not -4 <= divisor.degree <= 7:
                continue
            assert cf.brute_rank(divisor) == cf.rank(divisor).rank
            rank_agreements += 1

        reduced_agreements = 0
        while reduced_agreements < 500:
            graph = cf.random_connected_graph(rng, 8, 14, 2)
            divisor = cf.random_divisor(rng, graph, 4)
            base = graph.vertex_ids[rng.randrange(graph.vertex_count)]
            assert cf.brute_is_reduced(divisor, base) == cf.is_reduced(divisor, base)
            reduced_agreements += 1

        stability_checks = 0
        while stability_checks < 500:
            graph = cf.random_connected_graph(rng, 6, 10, 2)
            divisor = cf.random_divisor(rng, graph, 4)
            base = graph.vertex_ids[rng.randrange(graph.vertex_count)]
            reduced, script = cf.reduce_divisor(divisor, base)
            # certified by both independent oracles: the subset test and the
            # oracle's exact Laplacian solve (reducedness + equivalence pin
            # the output uniquely)
            assert cf.brute_is_reduced(reduced, base)
            assert _class_signature(graph, list(divisor.values)) == _class_signature(
                graph, list(reduced.values)
            )
            assert divisor + cf.apply_script(script) == reduced
            again, zero_script = cf.reduce_divisor(reduced, base)
            assert again == reduced and not any(zero_script.levels)
            shift = cf.FiringScript(
                graph, [rng.randint(0, 3) for _ in graph.vertex_ids]
            )
            shifted = divisor + cf.apply_script(shift)
            assert cf.reduce_divisor(shifted, base)[0] == reduced
            stability_checks += 1


def test_grid_equivalence_exact_solve():
    with _Timer("grid-10x10", 2.0):
        side = 10
        g = grid_graph(side, side, "v{i}_{j}")
        rng = random.Random(10)
        base = cf.Divisor(g, [rng.randint(-3, 5) for _ in g.vertex_ids])
        script = cf.FiringScript(g, [rng.randint(0, 6) for _ in g.vertex_ids])
        moved = base + cf.apply_script(script)
        assert cf.equivalence_script(moved, base) == script.normalized()
        # the grid is 2-edge-connected, so no two distinct points are equivalent
        corner_gap = cf.Divisor(g, {"v0_0": 1, f"v{side - 1}_{side - 1}": -1})
        assert cf.principal_script(corner_gap) is None
        assert not cf.equivalent(cf.Divisor(g, {"v0_0": 1}), cf.Divisor(g, {"v0_1": 1}))


def _check_reduction(divisor, base):
    reduced, script = cf.reduce_divisor(divisor, base)
    assert cf.is_reduced(reduced, base)
    assert divisor + cf.apply_script(script) == reduced
    return reduced


def test_reduce_cycle_time_independent_of_chip_count():
    with _Timer("C30 with 10^5 chips", 1.0):
        _check_reduction(cf.Divisor(cycle_graph(30), {"v7": 10**5}), "v0")


def test_reduce_complete_graph_time_independent_of_chip_count():
    with _Timer("K6 with 10^6 chips", 0.25):
        ids = [f"v{i}" for i in range(6)]
        k6 = cf.Graph(ids, [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]])
        _check_reduction(cf.Divisor(k6, {"v3": 10**6}), "v0")


def test_reduce_one_chip_of_debt_across_the_grid():
    with _Timer("20x20 grid, one chip of debt at the far corner", 1.0):
        grid = grid_graph(20, 20)
        _check_reduction(cf.Divisor(grid, {"g0_0": 1, "g19_19": -1}), "g0_0")


def test_reduce_debt_pile_time_independent_of_debt():
    with _Timer("8x8 grid, 10^5 chips of debt at the far corner", 1.0):
        _check_reduction(cf.Divisor(grid_graph(8, 8), {"g7_7": -(10**5)}), "g0_0")


def test_reduce_grid_pile_time_independent_of_chip_count():
    grid = grid_graph(8, 8)
    pile = cf.Divisor(grid, {"g7_7": 10**5})
    with _Timer("8x8 grid, 10^5 chips at the far corner", 1.0):
        reduced = _check_reduction(pile, "g0_0")
    assert _class_signature(grid, list(pile.values)) == _class_signature(grid, list(reduced.values))


def test_reduce_astronomical_pile():
    with _Timer("8x8 grid, 10^30 chips at the far corner", 1.0):
        _check_reduction(cf.Divisor(grid_graph(8, 8), {"g7_7": 10**30}), "g0_0")


def test_reduce_pile_past_the_recursion_limit():
    # 1,200 halvings: a recursive halving would overflow the stack
    with _Timer("C30 with 2^1200 chips", 1.0):
        _check_reduction(cf.Divisor(cycle_graph(30), {"v15": 2**1200}), "v0")


def test_equivalence_on_a_long_cycle():
    with _Timer("C1200, equivalence of two single chips", 0.1):
        ids = [f"c{i}" for i in range(1200)]
        cycle = cf.Graph(ids, [(ids[i], ids[(i + 1) % 1200]) for i in range(1200)])
        far, near = cf.Divisor(cycle, {"c600": 1}), cf.Divisor(cycle, {"c0": 1})
        assert not cf.equivalent(far, near)
    # the difference reduces to a nonzero divisor, so it is not principal
    assert any(_check_reduction(far - near, "c0").values)


def test_exhaustive_rank_weighted_cycle_from_classes():
    # genus 4, degree 14 > 2g - 2, rank 10: enumerating the passing levels
    # 0-10 on the 9-vertex hat graph visits C(19, 9) = 92,378 candidates
    with _Timer("weighted C6, exhaustive rank", 1.0):
        ids = [f"v{i}" for i in range(6)]
        cycle = cf.Graph(
            [(v, 1 - i % 2) for i, v in enumerate(ids)],
            [(ids[i], ids[(i + 1) % 6]) for i in range(6)],
        )
        assert cycle.genus() == 4
        result = cf.rank(cf.Divisor(cycle, (3, 2, 2, 2, 3, 2)), exhaustive=True)
        assert result.rank == 10
        assert cf.render_divisor(result.witness) == "v0.z1=1,v2.z1=1,v4.z1=9"


def test_exhaustive_rank_looped_k4_from_classes():
    with _Timer("weighted looped K4, exhaustive rank", 1.0):
        ids = ["v0", "v1", "v2", "v3"]
        edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        k4 = cf.Graph(list(zip(ids, (0, 1, 0, 1))), edges + [("v0", "v0"), ("v2", "v2")])
        assert k4.genus() == 7
        result = cf.rank(cf.Divisor(k4, (5, 4, 5, 4)), exhaustive=True)
        assert result.rank == 11
        assert cf.render_divisor(result.witness) == "v0.z1=1,v1.z1=1,v2.z1=3,v3.z1=7"


def _all_ones_on_grid(rows, cols):
    return cf.Divisor(grid_graph(rows, cols), [1] * (rows * cols))


def test_rank_all_ones_3x5_grid_from_the_dual():
    # deg 15 > 2g - 2 = 14: K - D has negative degree
    with _Timer("3x5 grid, all-ones rank", 1.0):
        result = cf.rank(_all_ones_on_grid(3, 5))
        assert (result.rank, result.method) == (7, "riemann-roch")


def test_rank_all_ones_4x4_grid_from_the_dual():
    # deg 16 = 2g - 2: K - D has degree 0
    with _Timer("4x4 grid, all-ones rank", 1.0):
        result = cf.rank(_all_ones_on_grid(4, 4))
        assert (result.rank, result.method) == (7, "riemann-roch")


def test_rank_all_ones_3x4_grid_matches_exhaustive():
    d = _all_ones_on_grid(3, 4)
    with _Timer("3x4 grid, all-ones rank", 1.0):
        fast = cf.rank(d)
    exact = cf.rank(d, exhaustive=True)
    assert (fast.method, exact.method) == ("riemann-roch", "exhaustive")
    assert (fast.rank, fast.witness) == (exact.rank, exact.witness) and fast.rank == 6


def test_rank_weighted_looped_stream_matches_exhaustive():
    # every degree from 0 to 2g + 2, so each fast path meets the definition
    rng = random.Random(31)
    routes = set()
    checked = 0
    with _Timer("weighted and looped stream, fast against exhaustive", 10.0):
        while checked < 300:
            graph = cf.random_connected_graph(rng, 4, 6, 2)
            hat_n = cf.hat_graph(graph).target.vertex_count
            if hat_n == graph.vertex_count:
                continue
            genus = graph.genus()
            degree = rng.randint(0, 2 * genus + 2)
            if math.comb(degree + hat_n, hat_n - 1) > 20_000:
                continue
            values = [rng.randint(-2, 2) for _ in graph.vertex_ids]
            while sum(values) != degree:
                values[rng.randrange(len(values))] += 1 if sum(values) < degree else -1
            d = cf.Divisor(graph, values)
            fast, exact = cf.rank(d), cf.rank(d, exhaustive=True)
            assert (fast.rank, fast.witness) == (exact.rank, exact.witness), (graph, d)
            routes.add(fast.method)
            checked += 1
    assert "riemann-roch" in routes
