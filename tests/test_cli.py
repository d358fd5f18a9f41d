import json

import pytest
from hypothesis import given, settings

import chipfire as cf
from chipfire.cli import main
from conftest import connected_graphs

DHAR5_TEXT = """\
# the five-vertex burning example
v v0
v v1
v v2
v v3
v v4
e v0 v1 2
e v0 v2 2
e v0 v3 2
e v1 v2 2
e v1 v3
e v1 v4
e v2 v3
e v2 v4
e v3 v4 2
"""


@pytest.fixture
def dhar5_file(tmp_path):
    path = tmp_path / "dhar5.graph"
    path.write_text(DHAR5_TEXT)
    return str(path)


@pytest.fixture
def weighted_binary_file(tmp_path):
    path = tmp_path / "wb.graph"
    path.write_text(cf.render_graph(cf.load_fixture("weighted-binary").graph))
    return str(path)


# -- parsing ------------------------------------------------------------------


def test_parse_minimal_graph():
    doc = cf.parse_graph("v a\nv b\ne a b 3\n")
    assert doc.graph.vertex_ids == ("a", "b")
    assert doc.graph.multiplicity("a", "b") == 3
    assert doc.vertex_lines == {"a": 1, "b": 2}


def test_parse_accumulates_multiplicity():
    doc = cf.parse_graph("v a\nv b\ne a b\ne a b 2\n")
    assert doc.graph.multiplicity("a", "b") == 3


def test_parse_render_roundtrip_dhar5(dhar5):
    g = dhar5.graph
    assert cf.parse_graph(cf.render_graph(g)).graph == g


def test_parse_render_roundtrip_weighted(weighted_binary):
    g = weighted_binary.graph
    assert cf.parse_graph(cf.render_graph(g)).graph == g


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=6, max_extra=5, max_weight=3))
def test_parse_render_roundtrip_random(g):
    assert cf.parse_graph(cf.render_graph(g)).graph == g


def test_parse_edge_before_vertex_reports_line_and_token():
    with pytest.raises(cf.ParseError) as info:
        cf.parse_graph("e a b\n")
    assert "'a'" in str(info.value)
    assert info.value.line == 1


def test_parse_errors_carry_line_numbers():
    cases = [
        ("v a\nv a\n", 2),  # duplicate
        ("v a\ne a a 0\n", 2),  # zero multiplicity
        ("v a.b\n", 1),  # dot in id
        ("v a -1\n", 1),  # negative weight
        ("w a\n", 1),  # unknown directive
        ("v a extra junk\n", 1),
    ]
    for text, line in cases:
        with pytest.raises(cf.ParseError) as info:
            cf.parse_graph(text)
        assert info.value.line == line


def test_parse_divisor_literals(dhar5):
    g = dhar5.graph
    assert cf.parse_divisor("", g).values == (0,) * 5
    assert cf.parse_divisor("v1=1, v2=2 ,v3=4,v4=4", g).values == (0, 1, 2, 4, 4)
    assert cf.parse_divisor("v0=-3", g).values == (-3, 0, 0, 0, 0)
    for bad in ("x=1", "v1=1,v1=2", "v1=one", "v1"):
        with pytest.raises(cf.ParseError) as info:
            cf.parse_divisor(bad, g)
        assert bad.split("=")[0].split(",")[0] in str(info.value)


def test_huge_integers_are_parse_errors(tmp_path, capsys):
    # longer than the interpreter's int-string limit: refused by the parser,
    # with the token shortened in the message
    huge = "9" * 5000
    for text in (f"v a {huge}\n", f"v a\nv b\ne a b {huge}\n"):
        with pytest.raises(cf.ParseError, match=r"too many digits") as info:
            cf.parse_graph(text)
        assert info.value.line == text.count("\n")
        assert len(str(info.value)) < 200
    path = tmp_path / "ab.graph"
    path.write_text("v a\nv b\ne a b\n")
    assert main(["reduce", str(path), "-d", f"a={huge}", "-u", "b"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad integer '{huge[:40]}'... (5000 characters) for vertex 'a': too many digits\n"
    path.write_text(f"v a {huge}\n")
    assert main(["genus", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: bad weight '9999")
    with pytest.raises(cf.ParseError, match=r"^bad integer 'x9+'\.\.\. \(5001 characters\) for vertex 'a'$"):
        cf.parse_divisor(f"a=x{huge}", cf.Graph(["a"]))


def test_render_divisor(dhar5):
    d = dhar5.divisors["example"]
    assert cf.render_divisor(d) == "v1=1,v2=2,v3=4,v4=4"
    assert cf.render_divisor(cf.Divisor(dhar5.graph)) == ""
    assert cf.parse_divisor(cf.render_divisor(d), dhar5.graph) == d


# -- commands -----------------------------------------------------------------


def test_cli_genus(dhar5_file, capsys):
    assert main(["genus", dhar5_file]) == 0
    assert capsys.readouterr().out.strip() == "genus = 10"


def test_cli_canonical_json(dhar5_file, capsys):
    assert main(["canonical", dhar5_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 18
    assert payload["divisor"]["v4"] == 2


def test_cli_rank_text(dhar5_file, capsys):
    assert main(["rank", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4"]) == 0
    out = capsys.readouterr().out
    assert "rank = 2" in out
    assert "witness:" in out


def test_cli_rank_method_tag(weighted_binary_file, capsys):
    assert main(["rank", weighted_binary_file, "-d", "v1=3,v2=4"]) == 0
    out = capsys.readouterr().out
    assert "rank = 2 (method: rank-explicit)" in out


def test_cli_rank_exhaustive_flag(weighted_binary_file, capsys):
    assert main(["rank", weighted_binary_file, "-d", "v1=3,v2=4", "--exhaustive", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2
    assert payload["method"] == "exhaustive"
    assert payload["witness_degree"] == 3
    # the witness lives on the hat graph, whose fresh vertices carry dotted ids
    assert set(payload["witness"]) == {"v1", "v2", "v1.z1", "v2.z1", "v2.z2"}


def test_cli_rank_json_schema(dhar5_file, capsys):
    assert main(["rank", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"rank", "method", "witness", "witness_degree"}


def test_cli_dhar(dhar5_file, capsys):
    assert main(["dhar", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4", "-u", "v0"]) == 0
    out = capsys.readouterr().out
    assert "layers: {v0} {v1} {v2}" in out
    assert "unburned: {v3,v4}" in out
    assert "reduced: no" in out


def test_cli_reduce(dhar5_file, capsys):
    assert main(["reduce", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4", "-u", "v0"]) == 0
    out = capsys.readouterr().out
    assert "reduced: v0=6,v2=1,v3=4" in out
    assert "script:" in out


def test_cli_equiv(dhar5_file, capsys):
    code = main(
        ["equiv", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4", "-e", "v0=2,v1=3,v2=4,v4=2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "equivalent: yes" in out
    assert "script:" in out


def test_cli_equiv_negative(dhar5_file, capsys):
    assert main(["equiv", dhar5_file, "-d", "v0=1", "-e", "v1=1"]) == 0
    assert "equivalent: no" in capsys.readouterr().out


def test_cli_saturate(dhar5_file, capsys):
    assert main(["saturate", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4", "-u", "v0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["added_edges"] == 8
    assert ["v0", "v3", 6] in payload["graph"]["edges"]


def test_cli_structural_commands(weighted_binary_file, capsys):
    assert main(["hat", weighted_binary_file, "--json"]) == 0
    hat = json.loads(capsys.readouterr().out)
    assert len(hat["vertices"]) == 5
    assert hat["genus"] == 15
    assert hat["added"]["v2"] == ["v2.z1", "v2.z2"]

    assert main(["g0", weighted_binary_file, "--json"]) == 0
    g0 = json.loads(capsys.readouterr().out)
    assert g0["vertices"] == [["v1", 0], ["v2", 0]]

    assert main(["bullet", weighted_binary_file, "--json"]) == 0
    bullet = json.loads(capsys.readouterr().out)
    assert bullet["vertices"] == [["v1", 1], ["v2", 2]]  # no loops to subdivide


WEIGHTED_LOOPED_TEXT = """\
v a 1
v b
v c 2
e a b 2
e a a
e b c
e c c 2
"""


@pytest.fixture
def weighted_looped_file(tmp_path):
    path = tmp_path / "wl.graph"
    path.write_text(WEIGHTED_LOOPED_TEXT)
    return str(path)


def test_cli_hat_exact_output(weighted_looped_file, capsys):
    assert main(["hat", weighted_looped_file]) == 0
    assert capsys.readouterr().out == (
        "v a\nv b\nv c\nv a.z1\nv a.z2\nv c.z1\nv c.z2\nv c.z3\nv c.z4\n"
        "e a b 2\ne a a.z1 2\ne a a.z2 2\ne b c\n"
        "e c c.z1 2\ne c c.z2 2\ne c c.z3 2\ne c c.z4 2\n"
        "# added for a: a.z1 a.z2\n"
        "# added for c: c.z1 c.z2 c.z3 c.z4\n"
    )
    assert main(["hat", weighted_looped_file, "--json"]) == 0
    expected = {
        "vertices": [[v, 0] for v in ("a", "b", "c", "a.z1", "a.z2", "c.z1", "c.z2", "c.z3", "c.z4")],
        "edges": [
            ["a", "b", 2], ["a", "a.z1", 2], ["a", "a.z2", 2], ["b", "c", 1],
            ["c", "c.z1", 2], ["c", "c.z2", 2], ["c", "c.z3", 2], ["c", "c.z4", 2],
        ],
        "genus": 7,
        "added": {"a": ["a.z1", "a.z2"], "b": [], "c": ["c.z1", "c.z2", "c.z3", "c.z4"]},
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_cli_bullet_exact_output(weighted_looped_file, capsys):
    assert main(["bullet", weighted_looped_file]) == 0
    assert capsys.readouterr().out == (
        "v a 1\nv b\nv c 2\nv a.z1\nv c.z1\nv c.z2\n"
        "e a b 2\ne a a.z1 2\ne b c\ne c c.z1 2\ne c c.z2 2\n"
        "# added for a: a.z1\n"
        "# added for c: c.z1 c.z2\n"
    )
    assert main(["bullet", weighted_looped_file, "--json"]) == 0
    expected = {
        "vertices": [["a", 1], ["b", 0], ["c", 2], ["a.z1", 0], ["c.z1", 0], ["c.z2", 0]],
        "edges": [["a", "b", 2], ["a", "a.z1", 2], ["b", "c", 1], ["c", "c.z1", 2], ["c", "c.z2", 2]],
        "genus": 7,
        "added": {"a": ["a.z1"], "b": [], "c": ["c.z1", "c.z2"]},
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_cli_g0_exact_output(weighted_looped_file, capsys):
    assert main(["g0", weighted_looped_file]) == 0
    assert capsys.readouterr().out == "v a\nv b\nv c\ne a b 2\ne b c\n"
    assert main(["g0", weighted_looped_file, "--json"]) == 0
    expected = {
        "vertices": [["a", 0], ["b", 0], ["c", 0]],
        "edges": [["a", "b", 2], ["b", "c", 1]],
        "genus": 1,
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_cli_rr_and_clifford(dhar5_file, capsys):
    assert main(["rr-check", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4"]) == 0
    assert "residual = 0" in capsys.readouterr().out
    assert main(["clifford", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_domain_errors_exit_one(dhar5_file, tmp_path, capsys):
    assert main(["rank", str(tmp_path / "missing.graph"), "-d", ""]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["rank", dhar5_file, "-d", "x=1"]) == 1
    assert "'x'" in capsys.readouterr().err

    disconnected = tmp_path / "disc.graph"
    disconnected.write_text("v a\nv b\n")
    assert main(["rank", str(disconnected), "-d", ""]) == 1
    assert "connected" in capsys.readouterr().err

    assert main(["dhar", dhar5_file, "-d", "v1=-1", "-u", "v0"]) == 1
    assert "'v1'" in capsys.readouterr().err


def test_cli_empty_graph_exits_one(tmp_path, capsys):
    empty = str(tmp_path / "empty.graph")
    (tmp_path / "empty.graph").write_text("# no vertices\n")
    for argv in (
        ["rank", empty, "-d", ""],
        ["rr-check", empty, "-d", ""],
        ["clifford", empty, "-d", ""],
        ["equiv", empty, "-d", "", "-e", ""],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "requires a connected graph" in captured.err


def test_cli_graph_file_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.graph"
    path.write_bytes("v caf\xe9\n".encode("latin-1"))
    assert main(["genus", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read graph file {str(path)!r}: ")


def test_cli_usage_errors_exit_two(dhar5_file, capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["rank", dhar5_file]) == 2  # missing -d
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_budget_error_reports_count(dhar5_file, capsys):
    assert main(["rank", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4", "--budget", "2"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "candidates" in err


def test_cli_sweep_deterministic(capsys):
    args = ["sweep", "--trials", "5", "--seed", "11", "--vertices", "4", "--max-edges", "6", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["trials"] == 5
    assert payload["ok"] is True
    assert payload["failures"] == []


def test_cli_sweep_text(capsys):
    assert main(["sweep", "--trials", "3", "--seed", "2", "--vertices", "4", "--max-edges", "5"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "check riemann-roch: 3 run" in out


def test_sweep_config_rejects_out_of_range_fields():
    for field, value in (
        ("trials", -1),
        ("max_vertices", 0),
        ("max_edges", -1),
        ("max_weight", -2),
        ("max_value", -1),
        ("max_edges", 4),  # fewer than a spanning tree on 6 vertices needs
        ("max_vertices", 20),
    ):
        with pytest.raises(cf.DomainError, match=field):
            cf.SweepConfig(**{field: value})
    with pytest.raises(cf.DomainError, match="max_edges >= max_vertices - 1 = 5, got 2"):
        cf.SweepConfig(max_edges=2)
    cf.SweepConfig()
    cf.SweepConfig(trials=0, max_vertices=1, max_edges=0, max_weight=0, max_value=0)


def test_cli_sweep_bad_options_exit_one(capsys):
    for option, value in (
        ("--vertices", "0"),
        ("--trials", "-1"),
        ("--max-edges", "-1"),
        ("--max-weight", "-1"),
        ("--max-edges", "2"),
        ("--vertices", "20"),  # the default --max-edges 12 cannot span 20 vertices
    ):
        assert main(["sweep", option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sweep needs ")


def test_sweep_cost_cap_too_small_is_a_domain_error():
    # no fixed floor works: every instance costs at least 7, and cap 7
    # still rejects every draw at seed 3
    for cap, seed in ((0, 0), (7, 3)):
        with pytest.raises(cf.DomainError, match=f"cost_cap={cap}"):
            cf.run_sweep(cf.SweepConfig(trials=1, cost_cap=cap, seed=seed))
