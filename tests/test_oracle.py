import ast
from pathlib import Path

import pytest

import chipfire as cf
from chipfire.oracle import _class_signature, _class_signatures, _fixture
from conftest import binary_graph, seeded_instances


# -- brute rank ---------------------------------------------------------------


def test_brute_rank_negative_degree(dhar5):
    assert cf.brute_rank(cf.Divisor(dhar5.graph, {"v0": -1})) == -1


def test_brute_rank_binary_genus_two():
    assert cf.brute_rank(cf.Divisor(binary_graph(2), (1, 1))) == 1


def test_brute_rank_four_cycle():
    g = cf.Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert cf.brute_rank(cf.Divisor(g, (1, 0, 1, 0))) == 1


def test_brute_rank_budgets():
    big = cf.Graph([f"v{i}" for i in range(7)], [(f"v{i}", f"v{i+1}") for i in range(6)])
    with pytest.raises(cf.BudgetError):
        cf.brute_rank(cf.Divisor(big))
    with pytest.raises(cf.BudgetError):
        cf.brute_rank(cf.Divisor(binary_graph(1), (5, 4)))


def test_brute_rank_rejects_weighted(weighted_binary):
    with pytest.raises(cf.DomainError):
        cf.brute_rank(weighted_binary.divisors["example"])


def test_combined_signatures_equal_the_direct_solve():
    # one solve per unit vector, combined linearly, gives each vector's
    # residues of its own solve, with or without debt
    checked = 0
    for rng, graph, divisor in seeded_instances(191, 120, max_vertices=6, max_edges=10, max_value=9):
        plain = cf.strip_weights_and_loops(graph)
        signature = _class_signatures(plain)
        for values in (list(divisor.values), [abs(x) for x in divisor.values], [0] * plain.vertex_count):
            assert signature(values) == _class_signature(plain, values)
        checked += plain.vertex_count > 2
    assert checked > 60


# -- brute reducedness --------------------------------------------------------


def test_brute_is_reduced_singletons():
    # a divisor below every single-vertex cut is reduced anywhere it is effective
    g = binary_graph(2)
    assert cf.brute_is_reduced(cf.Divisor(g, (0, 0)), "v1")


def test_brute_is_reduced_dhar5(dhar5):
    d = dhar5.divisors["example"]
    assert not cf.brute_is_reduced(d, "v0")  # A = {v3, v4} survives
    saturated = dhar5.graph.with_extra_edges([("v0", "v3"), ("v0", "v4")])
    assert cf.brute_is_reduced(cf.Divisor(saturated, d.as_dict()), "v0")


def test_brute_is_reduced_budget():
    ids = [f"v{i}" for i in range(13)]
    chain = cf.Graph(ids, [(ids[i], ids[i + 1]) for i in range(12)])
    with pytest.raises(cf.BudgetError):
        cf.brute_is_reduced(cf.Divisor(chain), "v0")


# -- fixtures -----------------------------------------------------------------


def test_load_dhar5_self_checks():
    fixture = cf.load_fixture("dhar5")
    assert fixture.expected["genus"] == 10
    assert fixture.expected["rank"] == 2
    assert fixture.graph.vertex_ids == ("v0", "v1", "v2", "v3", "v4")


def test_load_weighted_binary():
    fixture = cf.load_fixture("weighted-binary")
    assert fixture.graph.genus() == 15
    assert fixture.graph.weights == (1, 2)
    assert fixture.divisors["example"].values == (3, 4)


def test_load_three_component():
    fixture = cf.load_fixture("three-component")
    assert fixture.graph.genus() == 8
    assert fixture.graph.multiplicity("v2", "v3") == 7


def test_load_parametric_fixtures():
    assert cf.load_fixture("binary(4)").graph.genus() == 4
    assert cf.load_fixture("rose(5)").graph.genus() == 5
    bullet = cf.load_fixture("bullet-loop")
    assert bullet.graph.genus() == 1
    assert cf.rank(bullet.divisors["example"]).rank == bullet.expected["rank"] == 0


def test_load_unknown_fixture():
    with pytest.raises(cf.DomainError):
        cf.load_fixture("nonesuch")
    with pytest.raises(cf.DomainError):
        cf.load_fixture("binary(-1)")
    # digits past the interpreter's int-string limit, name shortened in the message
    for huge in ("rose(" + "9" * 5000 + ")", "x" * 5000):
        with pytest.raises(cf.DomainError, match=r"'\.\.\. \(50\d\d characters\)$") as info:
            cf.load_fixture(huge)
        assert len(str(info.value)) < 200


def test_fixture_refuses_a_genus_its_graph_does_not_have():
    with pytest.raises(cf.FixtureError) as info:
        _fixture("wrong", binary_graph(2), (1, 1), {"genus": 3})
    assert str(info.value) == "fixture 'wrong' failed its self-check: genus must be 3"
    right = _fixture("right", binary_graph(2), None, {"genus": 2})
    assert (right.name, right.divisors, right.expected) == ("right", {}, {"genus": 2})


def test_fixture_expected_values_reproduce():
    for name in ("dhar5", "weighted-binary", "three-component"):
        fixture = cf.load_fixture(name)
        assert cf.rank(fixture.divisors["example"]).rank == fixture.expected["rank"]
        assert fixture.graph.genus() == fixture.expected["genus"]
    for genus in range(4):
        rose = cf.load_fixture(f"rose({genus})")
        for d0 in range(5):
            expected = max(d0 - genus, d0 // 2)
            assert cf.rank(cf.Divisor(rose.graph, (d0,))).rank == expected
    for genus in range(1, 5):
        plain = cf.load_fixture(f"binary({genus})")
        for a in range(genus + 2):
            for b in range(a, genus + 2):
                assert (
                    cf.rank(cf.Divisor(plain.graph, (a, b))).rank
                    == cf.binary_rank(genus, a, b)
                )


# -- oracle vs engine smoke (full runs live in the acceptance suite) ----------


def test_brute_rank_matches_engine_smoke():
    checked = 0
    for _, graph, divisor in seeded_instances(500, 60, max_vertices=5, max_edges=7, max_value=2):
        plain = cf.strip_weights_and_loops(graph)
        d = cf.Divisor(plain, divisor.values)
        if d.degree > cf.oracle.BRUTE_RANK_MAX_DEGREE:
            continue
        assert cf.brute_rank(d) == cf.rank(d).rank
        checked += 1
    assert checked >= 30


def test_oracle_shares_no_code_with_the_engine():
    package = Path(cf.__file__).parent
    imported = set()
    for node in ast.walk(ast.parse((package / "oracle.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("chipfire." if node.level else "") + (node.module or "")
            imported.add(module.rstrip("."))
            imported.update(f"{module.rstrip('.')}.{alias.name}" for alias in node.names)
    assert not imported & {"chipfire.reduction", "chipfire.rank"}, sorted(imported)
    definers = [
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_solve_reduced"
    ]
    assert definers == ["oracle.py"]
