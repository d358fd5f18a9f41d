import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

import chipfire as cf
from chipfire.cli import main
from conftest import connected_graphs, cycle_graph, grid_graph, tadpole_graph

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
    # a line ends at \n, \r\n or \r only, so a form feed stays inside its comment
    for text in ("v a\nv b\ne a b 3\n", "v a\r\nv b\r\ne a b 3\r\n", "v a\rv b\re a b 3",
                 "v a # note\fv c\nv b\ne a b 3\n"):
        doc = cf.parse_graph(text)
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


def test_roundtrip_holds_on_grammar_ids_and_fails_on_derived_ids():
    g = cf.Graph([("a", 1), "b_2", "C-3"], [("a", "b_2", 2), ("b_2", "C-3"), ("a", "a")])
    assert cf.parse_graph(cf.render_graph(g)).graph == g
    hat = cf.hat_graph(cf.load_fixture("weighted-binary").graph).target
    with pytest.raises(cf.ParseError) as info:
        cf.parse_graph(cf.render_graph(hat))
    assert str(info.value) == "line 3: bad vertex id 'v1.z1'"


def test_parsed_tables_match_the_validating_constructor():
    # the parser builds a graph's tables itself; on texts with weights,
    # loops, repeated edges and multiplicities they are Graph's own
    rng = random.Random(19)
    for _ in range(300):
        ids = rng.sample(["a", "b_2", "x-y", "v10", "v9", "Q", "z0", "m"], rng.randint(1, 8))
        vertices = [(vid, rng.choice((0, 0, 1, 4))) for vid in ids]
        edges = [
            (rng.choice(ids), rng.choice(ids), rng.choice((1, 1, 2, 5)))
            for _ in range(rng.randint(0, 14))
        ]
        lines = ["# seeded"]
        for vid, weight in vertices:
            lines.append(f"v {vid} {weight}" if weight or rng.random() < 0.3 else f"v {vid}")
        for a, b, mult in edges:
            lines.append(f"e {a} {b} {mult}" if mult > 1 or rng.random() < 0.3 else f"e {a} {b}")
            if rng.random() < 0.2:
                lines.append("")
        parsed = cf.parse_graph("\n".join(lines) + "\n").graph
        built = cf.Graph(vertices, edges)
        assert parsed == built and hash(parsed) == hash(built)
        for table in ("_adj_items", "_index", "_degrees", "_loopless_genus"):
            assert getattr(parsed, table) == getattr(built, table)


def test_parse_edge_before_vertex_reports_line_and_token():
    with pytest.raises(cf.ParseError) as info:
        cf.parse_graph("e a b\n")
    assert "'a'" in str(info.value)
    assert info.value.line == 1


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("v a\nv b\ne a b.c\n", 3, "bad vertex id 'b.c'"),
        ("v a\nv b\ne a.c b\n", 3, "bad vertex id 'a.c'"),
        ("v a\ne a x\n", 2, "edge endpoint 'x' is not declared"),
        ("v a\ne x a\n", 2, "edge endpoint 'x' is not declared"),
        # endpoint a is reported before b, whichever error b has
        ("v a\ne x a.c\n", 2, "edge endpoint 'x' is not declared"),
        ("v a\ne a.c x\n", 2, "bad vertex id 'a.c'"),
    ],
)
def test_parse_edge_endpoint_errors_are_pinned(text, line, message):
    with pytest.raises(cf.ParseError) as info:
        cf.parse_graph(text)
    assert str(info.value) == f"line {line}: {message}"
    assert info.value.line == line


@pytest.mark.parametrize(
    "text, message",
    [
        ("v a\ne a\n", "line 2: expected 'e <id1> <id2> [<mult>]', got 'e a'"),
        ("v a\nv b\ne a b 1 2\n", "line 3: expected 'e <id1> <id2> [<mult>]', got 'e a b 1 2'"),
    ],
)
def test_parse_edge_token_count_is_checked(text, message):
    with pytest.raises(cf.ParseError) as info:
        cf.parse_graph(text)
    assert str(info.value) == message


def test_parse_errors_carry_line_numbers():
    cases = [
        ("v a\nv a\n", 2),  # duplicate
        ("v a\ne a a 0\n", 2),  # zero multiplicity
        ("v a.b\n", 1),  # dot in id
        ("v a -1\n", 1),  # negative weight
        ("w a\n", 1),  # unknown directive
        ("v a extra junk\n", 1),
        ("v a \u0663\n", 1),  # a non-ASCII digit
        ("v a\nv b\ne a b \u0661\u0660\n", 3),
        ("v a\u2028v b\n", 1),  # a line separator does not end a line
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
    for bad in ("x=1", "v1=1,v1=2", "v1=one", "v1", "v1=\u0661\u0660"):
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
    # in range of int() but not of the field: the same cut
    nines = "9" * 4000
    for text, message in (
        (f"v a -{nines}\n", f"line 1: negative weight '-{nines[:39]}'... (4001 characters) for vertex 'a'"),
        (
            f"v a\nv b\ne a b -{nines}\n",
            f"line 3: multiplicity '-{nines[:39]}'... (4001 characters) for edge 'a'-'b'; must be >= 1",
        ),
    ):
        with pytest.raises(cf.ParseError) as info:
            cf.parse_graph(text)
        assert str(info.value) == message


def test_long_tokens_are_cut_in_format_errors():
    long_line = "v a 1 " + "x" * 5000
    for text, head in (
        (long_line + "\n", "line 1: expected 'v <id> [<weight>]', got 'v a 1 xxx"),
        ("v " + "a." * 3000 + "\n", "line 1: bad vertex id 'a.a."),
        ("q" * 5000 + " a\n", "line 1: unknown directive 'qqq"),
        ("v a\ne a " + "b" * 5000 + "\n", "line 2: edge endpoint 'bbb"),
    ):
        with pytest.raises(cf.ParseError) as info:
            cf.parse_graph(text)
        assert str(info.value).startswith(head)
        assert "characters)" in str(info.value) and len(str(info.value)) < 150
    with pytest.raises(cf.ParseError, match=r"^unknown vertex id 'c{40}'\.\.\. \(6000 characters\) in") as info:
        cf.parse_divisor("c" * 6000 + "=1", cf.Graph(["a"]))
    assert len(str(info.value)) < 150
    # a token of 40 characters is quoted whole, as before the cut
    edge = "e a " + "b" * 38 + "\n"
    for text, message in (
        ("v " + "a." * 20 + "\n", "line 1: bad vertex id " + repr("a." * 20)),
        ("v a\n" + edge, "line 2: edge endpoint " + repr("b" * 38) + " is not declared"),
        ("v a 1 x\n", "line 1: expected 'v <id> [<weight>]', got 'v a 1 x'"),
    ):
        with pytest.raises(cf.ParseError) as info:
            cf.parse_graph(text)
        assert str(info.value) == message


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


def test_cli_rank_riemann_roch_method(dhar5_file, capsys):
    args = ["rank", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4", "--json"]
    assert main(args) == 0
    fast = json.loads(capsys.readouterr().out)
    assert fast["method"] == "riemann-roch"
    assert main(args + ["--exhaustive"]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert exact["method"] == "exhaustive"
    assert {k: fast[k] for k in ("rank", "witness")} == {k: exact[k] for k in ("rank", "witness")}


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


def test_cli_dhar_output_time_is_linear_in_the_layer_count(tmp_path, capsys):
    # a path burned from one end burns one vertex per layer; ordering each
    # layer by a scan of every vertex id took about 3 s at 8,000 vertices
    n = 8000
    path = tmp_path / "path.graph"
    vertices = "".join(f"v v{i}\n" for i in range(n))
    path.write_text(vertices + "".join(f"e v{i} v{i + 1}\n" for i in range(n - 1)))
    start = time.perf_counter()
    assert main(["dhar", str(path), "-d", "", "-u", "v0"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert "layers: " + " ".join(f"{{v{i}}}" for i in range(n)) in out
    assert "unburned: {}" in out
    assert elapsed < 1.0


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


def test_cli_reduce_big_pile_exact_output(tmp_path, capsys):
    # 10^4 chips on the 6x6 grid: more than 2g' + n - 1 = 85, so the
    # reduction halves the pile; the bytes are those of one unhalved pass
    grid = grid_graph(6, 6)
    path = tmp_path / "grid6.graph"
    path.write_text(cf.render_graph(grid))
    assert main(["reduce", str(path), "-d", "g5_5=10000", "-u", "g0_0", "--json"]) == 0
    reduced = cf.parse_divisor(
        "g0_0=9988,g0_2=2,g0_3=1,g2_0=2,g2_4=1,g3_0=1,g3_3=2,g3_5=1,g4_2=1,g5_3=1", grid
    )
    levels = (
        "g0_1=4994,g0_2=7980,g0_3=9938,g0_4=11190,g0_5=11816,g1_0=4994,g1_1=7002,g1_2=9010,"
        "g1_3=10645,g1_4=11816,g1_5=12442,g2_0=7980,g2_1=9010,g2_2=10413,g2_3=11816,g2_4=12987,"
        "g2_5=13694,g3_0=9938,g3_1=10645,g3_2=11816,g3_3=13219,g3_4=14623,g3_5=15653,g4_0=11190,"
        "g4_1=11816,g4_2=12987,g4_3=14623,g4_4=16633,g4_5=18643,g5_0=11816,g5_1=12442,g5_2=13694,"
        "g5_3=15653,g5_4=18643,g5_5=23643"
    )
    script = cf.FiringScript(grid, cf.parse_divisor(levels, grid).values)
    expected = {"reduced": reduced.as_dict(), "script": script.as_dict()}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
    assert cf.is_reduced(reduced, "g0_0")
    assert cf.Divisor(grid, {"g5_5": 10**4}) + cf.apply_script(script) == reduced


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
    # the refusal names the call the command made, not one inside it
    assert main(["equiv", str(disconnected), "-d", "", "-e", ""]) == 1
    assert capsys.readouterr().err == "error: equivalence_script requires a connected graph\n"

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


def test_cli_graph_file_with_utf8_bom(tmp_path, capsys):
    # Windows Notepad starts a UTF-8 file with a byte order mark
    path = tmp_path / "bom.graph"
    path.write_bytes(b"\xef\xbb\xbf" + DHAR5_TEXT.encode("utf-8"))
    assert main(["genus", str(path)]) == 0
    assert capsys.readouterr().out == "genus = 10\n"


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


def test_sweep_config_rejects_non_integer_counts():
    # a float count would otherwise fail later in range or randrange, or be
    # taken as it is (cost_cap); the seed goes to random.Random unchecked
    for field, value in (
        ("trials", 2.0),
        ("max_vertices", 3.0),
        ("max_edges", 12.0),
        ("max_weight", 2.0),
        ("max_value", 4.0),
        ("cost_cap", 6000.5),
    ):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            cf.SweepConfig(**{field: value})
    cf.SweepConfig(seed=2.5)


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


def test_sweep_flags_a_fast_witness_that_differs(monkeypatch):
    # fast-path agreement compares witnesses too: a Riemann-Roch route that
    # returned the right rank with another witness would be caught
    original = cf.rank

    def skewed(divisor, **kwargs):
        result = original(divisor, **kwargs)
        if result.method != "riemann-roch":
            return result
        values = result.witness.values
        rotated = cf.Divisor(result.witness.graph, values[1:] + values[:1])
        return cf.RankResult(result.rank, rotated, result.method)

    monkeypatch.setattr("chipfire.sweep.rank", skewed)
    report = cf.run_sweep(cf.SweepConfig(trials=40, seed=5))
    assert report.failures
    assert all(": fast-path-agreement: riemann-roch gave " in f for f in report.failures)


# -- verdicts, failure reports and the module entry point ----------------------

# six instances of SweepConfig(trials=6, seed=3), rendered as failure lines show them
_PINNED_SWEEP_INSTANCES = (
    ("v v0; v v1 1; e v0 v1 3", "v0=3,v1=4"),
    (
        "v v0; v v1; v v2; v v3; v v4; v v5; e v0 v1; e v0 v4; e v0 v5; e v1 v2; e v2 v2; "
        "e v2 v3; e v4 v4",
        "v0=2,v1=2,v2=3,v3=-2,v4=1,v5=-3",
    ),
    ("v v0; v v1; v v2; v v3 1; e v0 v1; e v0 v2; e v0 v3; e v1 v2 2; e v2 v3 2", "v2=-3,v3=-3"),
    ("v v0; v v1; e v0 v1 3", "v0=1,v1=4"),
    ("v v0 1", "v0=-1"),
    ("v v0 2; v v1; v v2; v v3; e v0 v1 2; e v0 v2; e v1 v2 3; e v2 v3 2", "v1=2,v2=-3,v3=-4"),
)
_SHIFT = "rank changed under a principal shift"
_NO_ZERO_BASE = "rank 0 but zero-at-base reduced representative exists: False"
_PINNED_SWEEP_FAILURES = (
    (0, "class-invariance", _SHIFT),
    (0, "high-degree", "degree 7 >= 2g-1 but rank 5 != 4"),
    (0, "fast-path-agreement",
     "riemann-roch gave 4 with witness v0=1,v1=1,v1.z1=3, exhaustive gave 5 with witness v0=1,v1=1,v1.z1=3"),
    (1, "class-invariance", _SHIFT),
    (1, "bullet-identity", "rank changed under loop subdivision"),
    (1, "high-degree", "degree 3 >= 2g-1 but rank 2 != 1"),
    (1, "fast-path-agreement",
     "riemann-roch gave 1 with witness v2.z1=1,v4.z1=1, exhaustive gave 2 with witness v2.z1=1,v4.z1=1"),
    (2, "class-invariance", _SHIFT),
    (2, "monotonicity", "rank dropped after adding chips"),
    (2, "g0-comparison", "stripped rank -1 vs rank 0"),
    (2, "high-degree", "rank 0 outside [-1, max(-1, -6)]"),
    (2, "high-degree", "negative degree -6 but rank 0"),
    (2, "rank-zero-characterization", _NO_ZERO_BASE),
    (2, "fast-path-agreement", "reduced-negative gave -1 with witness 0, exhaustive gave 0 with witness 0"),
    (3, "class-invariance", _SHIFT),
    (3, "g0-comparison", "stripped rank 3 vs rank 4"),
    (3, "high-degree", "degree 5 >= 2g-1 but rank 4 != 3"),
    (3, "fast-path-agreement",
     "riemann-roch gave 3 with witness v0=2,v1=2, exhaustive gave 4 with witness v0=2,v1=2"),
    (3, "oracle-rank", "brute-force rank disagrees"),
    (4, "class-invariance", _SHIFT),
    (4, "g0-comparison", "stripped rank -1 vs rank 0"),
    (4, "high-degree", "rank 0 outside [-1, max(-1, -1)]"),
    (4, "high-degree", "negative degree -1 but rank 0"),
    (4, "rank-zero-characterization", _NO_ZERO_BASE),
    (4, "fast-path-agreement", "reduced-negative gave -1 with witness 0, exhaustive gave 0 with witness 0"),
    (5, "class-invariance", _SHIFT),
    (5, "monotonicity", "rank dropped after adding chips"),
    (5, "g0-comparison", "stripped rank -1 vs rank 0"),
    (5, "high-degree", "rank 0 outside [-1, max(-1, -5)]"),
    (5, "high-degree", "negative degree -5 but rank 0"),
    (5, "rank-zero-characterization", _NO_ZERO_BASE),
    (5, "fast-path-agreement", "reduced-negative gave -1 with witness 0, exhaustive gave 0 with witness 0"),
)
_PINNED_SWEEP_CHECKS = {name: 6 for name in cf.sweep.CHECK_NAMES} | {"oracle-rank": 1}


def _pinned_sweep_lines():
    lines = []
    for trial, name, detail in _PINNED_SWEEP_FAILURES:
        graph, divisor = _PINNED_SWEEP_INSTANCES[trial]
        lines.append(f"trial {trial}: {name}: {detail} [graph: {graph}] [divisor: {divisor}]")
    return lines


@pytest.fixture
def exhaustive_rank_one_too_high(monkeypatch):
    """The sweep's exhaustive ranks come back one too high; fast ones are true."""
    original = cf.rank

    def skewed(divisor, **kwargs):
        result = original(divisor, **kwargs)
        if not kwargs.get("exhaustive"):
            return result
        return cf.RankResult(result.rank + 1, result.witness, result.method)

    monkeypatch.setattr("chipfire.sweep.rank", skewed)


def test_sweep_failure_lines_are_pinned(exhaustive_rank_one_too_high):
    report = cf.run_sweep(cf.SweepConfig(trials=6, seed=3))
    assert report.trials == 6 and report.resampled == 1
    assert report.checks == _PINNED_SWEEP_CHECKS
    assert list(report.checks) == list(cf.sweep.CHECK_NAMES)
    assert report.failures == _pinned_sweep_lines()
    assert not report.ok


def test_cli_sweep_failure_report_exits_one(exhaustive_rank_one_too_high, capsys):
    argv = ["sweep", "--trials", "6", "--seed", "3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = ["trials: 6 (seed 3, resampled 1)"]
    expected += [f"check {name}: {count} run" for name, count in _PINNED_SWEEP_CHECKS.items()]
    expected += ["failures: 32", *_pinned_sweep_lines(), "result: FAIL"]
    assert captured.out == "\n".join(expected) + "\n"

    assert main(argv + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "seed": 3,
        "trials": 6,
        "resampled": 1,
        "checks": _PINNED_SWEEP_CHECKS,
        "failures": _pinned_sweep_lines(),
        "ok": False,
    }


# the one instance of SweepConfig(trials=1, seed=1), as failure lines show it
_SEED1_INSTANCE = "[graph: v v0 1; v v1; e v0 v1 3] [divisor: v0=-4,v1=2]"
_SEED1_MISREDUCED = f"trial 0: reduce-canonical: reduction at v1 misbehaved {_SEED1_INSTANCE}"


def _seed1_failures():
    return cf.run_sweep(cf.SweepConfig(trials=1, seed=1)).failures


def test_sweep_flags_a_riemann_roch_residual(monkeypatch):
    # one chip too many on the canonical divisor, which only riemann-roch reads
    canonical = cf.Graph.canonical_divisor

    def one_too_many(graph):
        return canonical(graph) + cf.Divisor(graph, {graph.vertex_ids[0]: 1})

    monkeypatch.setattr(cf.Graph, "canonical_divisor", one_too_many)
    assert _seed1_failures() == [
        f"trial 0: riemann-roch: rank -1, dual rank 4, degree -2, genus 3 {_SEED1_INSTANCE}"
    ]


def test_sweep_flags_a_clifford_violation(exhaustive_rank_one_too_high):
    # v0 = 1 on one vertex of genus 3 (weight 2, one loop) has rank 0; one too high breaks Clifford
    report = cf.run_sweep(cf.SweepConfig(trials=4, seed=2))
    assert [line for line in report.failures if ": clifford: " in line] == [
        "trial 3: clifford: rank 1 > 0 [graph: v v0 2; e v0 v0] [divisor: v0=1]"
    ]


def test_sweep_flags_an_oracle_reducedness_disagreement(monkeypatch):
    brute = cf.sweep.brute_is_reduced
    monkeypatch.setattr("chipfire.sweep.brute_is_reduced", lambda divisor, base: not brute(divisor, base))
    assert _seed1_failures() == [f"trial 0: oracle-reduced: reducedness at v1 disagrees {_SEED1_INSTANCE}"]


def test_sweep_flags_a_reduction_script_that_misses(monkeypatch):
    # the right reduced divisor, with its firing script negated
    reduce = cf.sweep.reduce_divisor

    def negated_script(divisor, base):
        reduced, script = reduce(divisor, base)
        return reduced, -script

    monkeypatch.setattr("chipfire.sweep.reduce_divisor", negated_script)
    assert _seed1_failures() == [_SEED1_MISREDUCED]


def test_sweep_flags_a_reduction_that_depends_on_the_representative(monkeypatch):
    # right on the first divisor of each class (the drawn one) and on the
    # reduced divisor itself; any other representative comes back unreduced
    reduce = cf.sweep.reduce_divisor
    first = {}

    def unstable(divisor, base):
        reduced, script = reduce(divisor, base)
        if divisor in (first.setdefault((reduced, base), divisor), reduced):
            return reduced, script
        return divisor, cf.FiringScript(divisor.graph)

    monkeypatch.setattr("chipfire.sweep.reduce_divisor", unstable)
    assert _seed1_failures() == [_SEED1_MISREDUCED]


def test_cli_rr_check_violation_exits_one(dhar5_file, monkeypatch, capsys):
    monkeypatch.setattr("chipfire.cli.riemann_roch_residual", lambda divisor, **kwargs: 1)
    argv = ["rr-check", dhar5_file, "-d", "v1=1,v2=2,v3=4,v4=4"]
    assert main(argv) == 1
    assert capsys.readouterr().out == "riemann-roch residual = 1 (VIOLATION)\n"
    assert main(argv + ["--json"]) == 1
    out = capsys.readouterr().out
    assert out == json.dumps({"residual": 1, "ok": False}, indent=2) + "\n"


def test_cli_clifford_violation_exits_one(dhar5_file, monkeypatch, capsys):
    original = cf.rank

    def rank_equals_degree(divisor, **kwargs):
        result = original(divisor, **kwargs)
        return cf.RankResult(divisor.degree, result.witness, result.method)

    monkeypatch.setattr("chipfire.cli.rank", rank_equals_degree)
    argv = ["clifford", dhar5_file, "-d", "v1=1,v2=2"]  # degree 3 <= 2g-2 = 18
    assert main(argv) == 1
    assert capsys.readouterr().out == "clifford: rank 3 <= 1: VIOLATION\n"
    assert main(argv + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ok": False, "applicable": True, "rank": 3, "degree": 3, "genus": 10}


def test_cli_clifford_not_applicable_exits_zero(dhar5_file, capsys):
    argv = ["clifford", dhar5_file, "-d", "v0=19"]  # degree 19 > 2g-2 = 18
    assert main(argv) == 0
    assert capsys.readouterr().out == "clifford: not applicable (vacuously ok)\n"
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ok": True, "applicable": False, "rank": 9, "degree": 19, "genus": 10}


def _run_module(*args, stdout=subprocess.PIPE):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, "-m", "chipfire", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )


def test_module_entry_point(dhar5_file, tmp_path):
    done = _run_module("genus", dhar5_file)
    assert (done.returncode, done.stdout, done.stderr) == (0, "genus = 10\n", "")

    done = _run_module()
    assert done.returncode == 2
    assert done.stdout == "" and "usage: chipfire" in done.stderr

    done = _run_module("genus", str(tmp_path / "missing.graph"))
    assert done.returncode == 1
    assert done.stdout == "" and done.stderr.startswith("error: cannot read graph file ")


def test_closed_stdout_exits_one_quietly(dhar5_file):
    # the reader of stdout is gone before the first write
    for args in (["genus", dhar5_file], ["saturate", dhar5_file, "-d", "v1=3,v4=1", "-u", "v0"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _run_module(*args, stdout=write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")


def test_cli_builds_its_parser_once(dhar5_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["genus", dhar5_file]) == 0
    first = len(built)
    assert main(["reduce", dhar5_file, "-d", "v1=3", "-u", "v0"]) == 0
    assert main(["sweep", "--trials", "1", "--seed", "1"]) == 0
    assert len(built) == first


def test_importing_the_cli_builds_no_parser():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import chipfire.cli\n"
        "print(len(built))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def test_cli_repeated_calls_give_the_same_bytes(dhar5_file, monkeypatch, capsys):
    calls = [
        ["frobnicate"],
        ["rank", dhar5_file],  # missing -d
        ["--help"],
        ["rank", "--help"],
        ["genus", dhar5_file],
        ["rank", dhar5_file, "-d", "v1=1,v2=2", "--json"],
        ["reduce", dhar5_file, "-d", "v1=5,v2=-1", "-u", "v0", "--json"],
        ["sweep", "--trials", "2", "--seed", "1"],
    ]

    def run_all():
        outputs = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        return outputs

    first = run_all()
    assert [code for code, _, _ in first] == [2, 2, 0, 0, 0, 0, 0, 0]
    assert run_all() == first

    monkeypatch.setenv("COLUMNS", "200")
    assert main(["rank", "--help"]) == 0
    wide = capsys.readouterr().out
    monkeypatch.setenv("COLUMNS", "40")
    assert main(["rank", "--help"]) == 0
    narrow = capsys.readouterr().out
    assert narrow != wide
    assert max(len(line) for line in narrow.splitlines()) <= 40


# -- golden bytes of large reductions and the seeded sweep ------------------


# the larger graphs: cycles, grids, a complete graph and a 1,100-vertex
# path whose last three vertices close a triangle
_LARGE_GRAPHS = {
    "cycle30": lambda: cycle_graph(30),
    "grid8": lambda: grid_graph(8, 8, "v{k}"),
    "grid15": lambda: grid_graph(15, 15, "v{k}"),
    "complete20": lambda: cf.Graph(
        [f"v{v}" for v in range(20)], [(f"v{a}", f"v{b}") for a in range(20) for b in range(a + 1, 20)]
    ),
    "path1100": lambda: tadpole_graph(1100),
}

# sha256 of the --json standard output of `reduce` and of `equiv`.  The
# reduced divisor and the normalized script are unique, so any correct
# reduction prints these bytes, however many rounds it fires.
_LARGE_OUTPUT_SHA256 = {
    ("cycle30", 1000): (
        "a11c0b6459ca1d3d181d5c2d286e580d58f42d32247e557fd37767b061924679",
        "1a27703c1bcee22c311f5b7f2ccc8da6326c7037c34a78dd5120408bfd11cb0e",
    ),
    ("grid8", 1500): (
        "71506b9c48b1fc1815354e54783fe950fe84727ea54681d31d16f291ce7e536f",
        "feb3e0977809a536fb1f472e6b3810b1e5e8f8c0ab60b63a77afc6446e317d15",
    ),
    ("grid15", 300): (
        "9b93303a83010b750c0ee3784a0538f23061ce53459a7c1f38529b9849cc0b0c",
        "f8d7111d8d5cf1cd41d0ab5634167e6ec8d2deaabd2ffa8ffa03f49a56db7507",
    ),
    ("complete20", 5000): (
        "04e782e6273ea48aacccfa895215da8900f412ada561f81e3c35103da53d49bd",
        "08857f5259e1c513d2fe7a594219b000351c0acfe1203c7f8ffc49fa5c4849ba",
    ),
    ("path1100", 1): (
        "be409300e0798354842c5b0ed1c44063532c803fce831cb57d9e50503aad5dca",
        "17e838fde0a8c94e6246714c2b6b135569e794798759bf107784919e15c587aa",
    ),
}


def _large_inputs(name, chips):
    """The divisor and base for `reduce`, and a second divisor equivalent
    to the first for `equiv`: seeded chips and a seeded script of levels
    0-3, or on the path one chip at v0 against one at v1097."""
    graph = _LARGE_GRAPHS[name]()
    n = graph.vertex_count
    if name == "path1100":
        return graph, cf.Divisor(graph, {"v0": 1}), "v1098", cf.Divisor(graph, {"v1097": 1})
    rng = random.Random(f"{name}:{chips}")
    values = [0] * n
    for _ in range(chips):
        values[rng.randrange(n)] += 1
    divisor = cf.Divisor(graph, values)
    script = cf.FiringScript(graph, [rng.randint(0, 3) for _ in range(n)])
    return graph, divisor, f"v{rng.randrange(n)}", divisor + cf.apply_script(script)


@pytest.mark.parametrize("name, chips", list(_LARGE_OUTPUT_SHA256))
def test_cli_large_reduce_and_equiv_bytes_are_pinned(tmp_path, capsys, name, chips):
    graph, divisor, base, other = _large_inputs(name, chips)
    path = tmp_path / f"{name}.graph"
    path.write_text(cf.render_graph(graph))
    literal = cf.render_divisor(divisor)
    digests = []
    for argv in (
        ["reduce", str(path), "-d", literal, "-u", base, "--json"],
        ["equiv", str(path), "-d", literal, "-e", cf.render_divisor(other), "--json"],
    ):
        assert main(argv) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == _LARGE_OUTPUT_SHA256[name, chips]


_SWEEP_20260810_CHECKS = (
    ("riemann-roch", 500), ("clifford", 500), ("class-invariance", 500),
    ("lower-bound", 500), ("monotonicity", 500), ("g0-comparison", 500),
    ("bullet-identity", 500), ("high-degree", 500), ("rank-zero-characterization", 500),
    ("fast-path-agreement", 434), ("oracle-rank", 124), ("oracle-reduced", 500),
    ("reduce-canonical", 500),
)


def test_cli_seeded_sweep_output_is_pinned(capsys):
    # the whole report of the criterion-7 seed, byte for byte, as text and JSON
    argv = ["sweep", "--trials", "500", "--seed", "20260810"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "\n".join(
        ["trials: 500 (seed 20260810, resampled 138)"]
        + [f"check {name}: {count} run" for name, count in _SWEEP_20260810_CHECKS]
        + ["failures: 0", "result: PASS", ""]
    )
    assert main(argv + ["--json"]) == 0
    payload = {
        "seed": 20260810,
        "trials": 500,
        "resampled": 138,
        "checks": dict(_SWEEP_20260810_CHECKS),
        "failures": [],
        "ok": True,
    }
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
