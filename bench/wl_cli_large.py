"""Workload ``cli-large``: the command line on larger structured graphs.

Every op is one in-process ``chipfire.cli.main([..., "--json"])`` with its
standard output captured.  The graphs are plain-text files of cycles,
grids, complete graphs and paths closed by a triangle, from tens to over a
thousand vertices, and each invocation parses its file afresh, as a user's
does.  The subcommands are ``reduce`` (chip counts from tens to
thousands), ``dhar`` (burns of hundreds of vertices), ``equiv`` (the exact
solver, cold: every invocation builds its graph anew) and ``rank`` on
degree-0 divisors with no effective member, which the rank engine settles
without a search.

Every round holds the same ops; the seed only places the chips.  One op
of every round fails today and is counted as failed: ``rank`` on a
1,100-vertex path closed by a triangle raises ``RecursionError`` from the
recursive enumeration of effective divisors instead of answering -1.

Correct answers come from truths built into the inputs and from the
benchmark's own arithmetic (``common``), never from the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from common import adjacency, burn, fire

NAME = "cli-large"

ROUND_SECONDS = 3.3  # one full round on a 2-core x86 VM
GRAPH_DIR = Path(__file__).resolve().parent / "out" / "graphs"
# Reduce inputs on larger graphs stay effective: on the 15x15 grid one chip
# of debt far from the base makes a single reduction take 30-60 s.
DEBT_MAX_VERTICES = 64


def _cycle(n):
    return n, [(i, (i + 1) % n, 1) for i in range(n)], True


def _grid(a, b):
    edges = []
    for r in range(a):
        for c in range(b):
            v = r * b + c
            if c + 1 < b:
                edges.append((v, v + 1, 1))
            if r + 1 < a:
                edges.append((v, v + b, 1))
    return a * b, edges, True


def _complete(n):
    return n, [(i, j, 1) for i in range(n) for j in range(i + 1, n)], True


def _tadpole(n):
    """A path v0 - ... - v(n-1) whose last three vertices close a triangle."""
    return n, [(i, i + 1, 1) for i in range(n - 1)] + [(n - 3, n - 1, 1)], False


GRAPHS = {
    "cycle30": _cycle(30),
    "cycle300": _cycle(300),
    "grid4": _grid(4, 4),
    "grid6": _grid(6, 6),
    "grid8": _grid(8, 8),
    "grid15": _grid(15, 15),
    "complete10": _complete(10),
    "complete20": _complete(20),
    "tadpole300": _tadpole(300),
    "tadpole1100": _tadpole(1100),
}

# (command, graph, chips) of one round; equiv-no pairs need a bridgeless
# graph.  The ops fall into groups of similar cost (times on the reference
# machine), sized so that the median and the 90th percentile of a run land
# inside a group rather than at a gap between two, where they would jump.
ROUND = (
    # over 200 ms: the exact solver on the larger grids
    [("equiv-yes", "grid8", 20), ("equiv-yes", "grid6", 20), ("equiv-no", "grid6", 20)]
    # about 120 ms, holding the 90th percentile
    + [("equiv-yes", "cycle30", 20), ("equiv-no", "cycle30", 20)] * 2
    + [("reduce", "cycle30", 1000)]
    # 30 to 75 ms
    + [("equiv-yes", "complete20", 60), ("equiv-no", "complete20", 60)]
    + [("reduce", "grid8", 1500), ("reduce", "cycle30", 500), ("reduce", "grid15", 300), ("reduce", "grid6", 1000)]
    # about 20 ms, holding the median
    + [("equiv-yes", "grid4", 20), ("equiv-no", "grid4", 20)] * 3
    + [("rank", "tadpole300", 0)] * 4
    + [("reduce", "cycle30", 200), ("reduce", "grid8", 400)]
    # under 12 ms: burns, small or dense reductions, small solves
    + [("dhar", g, 0) for g in ("cycle300", "grid15", "tadpole300", "tadpole1100") for _ in range(2)]
    + [("reduce", "cycle30", 40), ("reduce", "grid6", 100), ("reduce", "grid8", 60), ("reduce", "grid15", 80)]
    + [("reduce", "complete10", 2000), ("reduce", "complete20", 5000)]
    + [("equiv-yes", "complete10", 30), ("equiv-no", "complete10", 30)]
    # the kept failing op
    + [("rank", "tadpole1100", 0)]
)
SMOKE_ROUND = [
    ("equiv-yes", "grid4", 20),
    ("equiv-no", "cycle30", 20),
    ("reduce", "cycle30", 200),
    ("reduce", "complete10", 500),
    ("dhar", "grid15", 0),
    ("dhar", "tadpole1100", 0),
    ("rank", "tadpole300", 0),
    ("rank", "tadpole1100", 0),
]


class CliFailed(Exception):
    """The command exited with a non-zero status."""


def _literal(values) -> str:
    return ",".join(f"v{i}={x}" for i, x in enumerate(values) if x) or "v0=0"


def _scatter(rng, n, chips):
    values = [0] * n
    for _ in range(chips):
        values[rng.randrange(n)] += 1
    return values


def _graph_file(directory: Path, name: str) -> str:
    path = directory / f"{name}.graph"
    if not path.exists():
        n, edges, _ = GRAPHS[name]
        lines = [f"v v{i}" for i in range(n)] + [f"e v{a} v{b}" for a, b, _ in edges]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _op(rng, directory: Path, command: str, name: str, chips: int) -> dict:
    n, edges, bridgeless = GRAPHS[name]
    path = _graph_file(directory, name)
    spec = {"command": command, "graph": name, "chips": chips}
    if command in ("equiv-yes", "equiv-no"):
        d2 = _scatter(rng, n, chips)
        d1 = [a + b for a, b in zip(d2, fire(adjacency(n, edges), [rng.randint(0, 3) for _ in range(n)]))]
        if command == "equiv-no":
            if not bridgeless:
                raise ValueError("a non-equivalent pair needs a bridgeless graph")
            u, v = rng.sample(range(n), 2)  # e_u - e_v is never principal here
            d1[u] += 1
            d1[v] -= 1
        spec.update(d1=d1, d2=d2)
        spec["argv"] = ["equiv", path, "-d", _literal(d1), "-e", _literal(d2), "--json"]
    elif command == "reduce":
        values = _scatter(rng, n, chips)
        if n <= DEBT_MAX_VERTICES:  # a little debt, so phase one of the reduction runs too
            for _ in range(3):
                values[rng.randrange(n)] -= rng.randint(1, max(1, chips // (3 * n)))
        spec.update(values=values, base=rng.randrange(n))
        spec["argv"] = ["reduce", path, "-d", _literal(values), "-u", f"v{spec['base']}", "--json"]
    elif command == "dhar":
        values = _scatter(rng, n, rng.randint(n // 4, n))
        spec.update(values=values, base=rng.randrange(n))
        spec["argv"] = ["dhar", path, "-d", _literal(values), "-u", f"v{spec['base']}", "--json"]
    elif command == "rank":
        if n == 1100:
            u, v = 0, 1098  # the kept failing op: fixed, whatever the seed
        else:
            u, v = rng.randrange(n - 2), rng.choice((n - 2, n - 1))
        # On the path every vertex up to v(n-3) is equivalent to v(n-3), and
        # e_v - e_(n-3) is not principal on the triangle: no effective member.
        values = [0] * n
        values[u] -= 1
        values[v] += 1
        spec["values"] = values
        spec["argv"] = ["rank", path, "-d", _literal(values), "--json"]
    else:
        raise ValueError(command)
    return spec


def generate(seed: int, seconds: int, smoke: bool) -> list[dict]:
    rng = random.Random(f"{NAME}:{seed}")
    directory = GRAPH_DIR
    directory.mkdir(parents=True, exist_ok=True)
    rounds = 1 if smoke else max(3, round(seconds / ROUND_SECONDS))  # at least 100 ops
    specs = []
    for _ in range(rounds):
        ops = [_op(rng, directory, *entry) for entry in (SMOKE_ROUND if smoke else ROUND)]
        rng.shuffle(ops)
        specs.extend(ops)
    return specs


def build(cf, specs: list[dict]) -> list:
    return [spec["argv"] for spec in specs]


def run(cf, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cf.cli.main(argv)
    if status != 0:
        raise CliFailed(f"exit status {status}")
    return out.getvalue()


def check(cf, spec: dict, argv, output: str) -> str | None:
    payload = json.loads(output)
    n, edges, _ = GRAPHS[spec["graph"]]
    adj = adjacency(n, edges)
    index = {f"v{i}": i for i in range(n)}

    def vector(mapping):
        out = [0] * n
        for vid, x in mapping.items():
            out[index[vid]] = x
        return out

    command = spec["command"]
    if command in ("equiv-yes", "equiv-no"):
        if payload["equivalent"] != (command == "equiv-yes"):
            return f"{command} pair reported equivalent={payload['equivalent']}"
        if command == "equiv-yes":
            moved = fire(adj, vector(payload["script"]))
            if [a + b for a, b in zip(spec["d2"], moved)] != spec["d1"]:
                return "equiv script does not carry d2 to d1"
        elif payload["script"] is not None:
            return "non-equivalent pair came with a script"
    elif command == "reduce":
        reduced = vector(payload["reduced"])
        moved = fire(adj, vector(payload["script"]))
        if [a + b for a, b in zip(spec["values"], moved)] != reduced:
            return "reduced divisor is not the input plus the script's firing"
        base = spec["base"]
        if any(x < 0 for v, x in enumerate(reduced) if v != base):
            return "reduced divisor is negative off the base"
        if burn(adj, reduced, base)[1]:
            return "reduced divisor does not burn completely"
    elif command == "dhar":
        layers, unburned = burn(adj, spec["values"], spec["base"])
        if [sorted(index[v] for v in layer) for layer in payload["layers"]] != layers:
            return "dhar layers differ from the burning game"
        if sorted(index[v] for v in payload["unburned"]) != unburned:
            return "dhar unburned set differs from the burning game"
        if payload["reduced"] != (not unburned):
            return "dhar reduced flag is wrong"
    elif command == "rank":
        if payload["rank"] != -1:
            return f"rank {payload['rank']} for a class with no effective member"
        if payload["witness_degree"] != 0 or any(payload["witness"].values()):
            return "rank -1 must come with the zero witness"
    return None


def expected_failure(spec: dict) -> bool:
    return spec["command"] == "rank" and spec["graph"] == "tadpole1100"


def describe(specs: list[dict]) -> dict:
    """Make-up of an op list, for the README: per command, the ops, the
    graphs with their vertex counts, and the range of chips (sum of
    absolute values of the input divisors)."""
    out: dict[str, dict] = {}
    for spec in specs:
        chips = sum(abs(x) for x in spec.get("values", spec.get("d1", ())))
        entry = out.setdefault(spec["command"], {"ops": 0, "graphs": set(), "chips": []})
        entry["ops"] += 1
        entry["graphs"].add(f"{spec['graph']} ({GRAPHS[spec['graph']][0]})")
        entry["chips"].append(chips)
    return {
        command: {"ops": e["ops"], "graphs": sorted(e["graphs"]), "chips": [min(e["chips"]), max(e["chips"])]}
        for command, e in out.items()
    }
