"""Command-line interface.

Every subcommand but ``sweep`` reads a plain-text graph file (see
:mod:`chipfire.textio`), which ``main`` loads once, together with the
``--divisor`` literal where the subcommand takes one.  Every subcommand
returns a JSON payload and its human-readable lines, and ``main`` alone
prints them: the lines, or with ``--json`` the payload as one stable JSON
object.  Exit codes: 0 success, 1 domain error (bad input data) or a
payload whose ``ok`` is false (``rr-check``, ``clifford``, ``sweep``), 2
usage error.  The argument parser is built on the first ``main`` call and
reused, so ``main`` can be called repeatedly in one process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Mapping

from .divisor import Divisor, equivalence_script
from .errors import ChipfireError
from .graph import Graph, hat_graph, strip_weights_and_loops, subdivide_loops
from .rank import DEFAULT_BUDGET, rank, riemann_roch_residual
from .reduction import dhar, reduce_divisor, saturate
from .sweep import SweepConfig, run_sweep
from .textio import parse_divisor, parse_graph, render_divisor, render_graph


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ChipfireError(f"cannot read graph file {path!r}: {exc}") from exc
    return parse_graph(text).graph


def _ordered(graph: Graph, members: Iterable[str]) -> list[str]:
    return sorted(set(members), key=graph.index)


def _set_text(graph: Graph, members: Iterable[str]) -> str:
    return "{" + ",".join(_ordered(graph, members)) + "}"


def _graph_payload(graph: Graph) -> dict:
    return {
        "vertices": [[v, w] for v, w in graph.vertex_items],
        "edges": [[a, b, m] for (a, b), m in graph.edge_items()],
        "genus": graph.genus(),
    }


def _cmd_genus(args, graph: Graph, _divisor) -> tuple[dict, list[str]]:
    value = graph.genus()
    return {"genus": value}, [f"genus = {value}"]


def _cmd_canonical(args, graph: Graph, _divisor) -> tuple[dict, list[str]]:
    divisor = graph.canonical_divisor()
    return (
        {"divisor": divisor.as_dict(), "degree": divisor.degree},
        [f"canonical divisor: {render_divisor(divisor) or '0'} (degree {divisor.degree})"],
    )


def _derived(derived: Graph, added: Mapping[str, tuple[str, ...]]) -> tuple[dict, list[str]]:
    """A derived graph plus the fresh vertices added for each original one."""
    payload = _graph_payload(derived)
    payload["added"] = {v: list(zs) for v, zs in added.items()}
    lines = [render_graph(derived).rstrip()]
    lines.extend(f"# added for {v}: {' '.join(zs)}" for v, zs in added.items() if zs)
    return payload, lines


def _cmd_hat(args, graph: Graph, _divisor) -> tuple[dict, list[str]]:
    embedding = hat_graph(graph)
    return _derived(embedding.target, embedding.added)


def _cmd_g0(args, graph: Graph, _divisor) -> tuple[dict, list[str]]:
    stripped = strip_weights_and_loops(graph)
    return _graph_payload(stripped), [render_graph(stripped).rstrip()]


def _cmd_bullet(args, graph: Graph, _divisor) -> tuple[dict, list[str]]:
    return _derived(*subdivide_loops(graph))


def _cmd_rank(args, _graph, divisor: Divisor) -> tuple[dict, list[str]]:
    result = rank(divisor, budget=args.budget, exhaustive=args.exhaustive)
    payload = {
        "rank": result.rank,
        "method": result.method,
        "witness": result.witness.as_dict(),
        "witness_degree": result.witness.degree,
    }
    lines = [
        f"rank = {result.rank} (method: {result.method})",
        f"witness: {render_divisor(result.witness) or '0'} (degree {result.witness.degree})",
    ]
    return payload, lines


def _cmd_reduce(args, _graph, divisor: Divisor) -> tuple[dict, list[str]]:
    reduced, script = reduce_divisor(divisor, args.base)
    return (
        {"reduced": reduced.as_dict(), "script": script.as_dict()},
        [f"reduced: {render_divisor(reduced) or '0'}", f"script: {render_divisor(script) or '0'}"],
    )


def _cmd_dhar(args, graph: Graph, divisor: Divisor) -> tuple[dict, list[str]]:
    decomposition = dhar(divisor, args.base)
    payload = {
        "layers": [_ordered(graph, layer) for layer in decomposition.layers],
        "unburned": _ordered(graph, decomposition.unburned),
        "reduced": decomposition.is_reduced,
    }
    lines = [
        "layers: " + " ".join(_set_text(graph, layer) for layer in decomposition.layers),
        f"unburned: {_set_text(graph, decomposition.unburned)}",
        f"reduced: {'yes' if decomposition.is_reduced else 'no'}",
    ]
    return payload, lines


def _cmd_equiv(args, graph: Graph, divisor: Divisor) -> tuple[dict, list[str]]:
    script = equivalence_script(divisor, parse_divisor(args.other, graph))
    payload = {
        "equivalent": script is not None,
        "script": script.as_dict() if script is not None else None,
    }
    lines = [f"equivalent: {'yes' if script is not None else 'no'}"]
    if script is not None:
        lines.append(f"script: {render_divisor(script) or '0'}")
    return payload, lines


def _cmd_saturate(args, _graph, divisor: Divisor) -> tuple[dict, list[str]]:
    saturated, added = saturate(divisor, args.base)
    return (
        {"added_edges": added, "graph": _graph_payload(saturated)},
        [f"added edges: m = {added}", render_graph(saturated).rstrip()],
    )


def _cmd_rr_check(args, _graph, divisor: Divisor) -> tuple[dict, list[str]]:
    residual = riemann_roch_residual(divisor, budget=args.budget)
    ok = residual == 0
    return (
        {"residual": residual, "ok": ok},
        [f"riemann-roch residual = {residual} ({'ok' if ok else 'VIOLATION'})"],
    )


def _cmd_clifford(args, graph: Graph, divisor: Divisor) -> tuple[dict, list[str]]:
    value = rank(divisor, budget=args.budget).rank
    applicable = 0 <= divisor.degree <= 2 * graph.genus() - 2 and value >= 0
    ok = not applicable or value <= divisor.degree // 2
    payload = {
        "ok": ok,
        "applicable": applicable,
        "rank": value,
        "degree": divisor.degree,
        "genus": graph.genus(),
    }
    if applicable:
        line = f"clifford: rank {value} <= {divisor.degree // 2}: {'ok' if ok else 'VIOLATION'}"
    else:
        line = "clifford: not applicable (vacuously ok)"
    return payload, [line]


def _cmd_sweep(args, _graph, _divisor) -> tuple[dict, list[str]]:
    config = SweepConfig(
        trials=args.trials,
        max_vertices=args.vertices,
        max_edges=args.max_edges,
        max_weight=args.max_weight,
        seed=args.seed,
    )
    report = run_sweep(config)
    payload = {
        "seed": config.seed,
        "trials": report.trials,
        "resampled": report.resampled,
        "checks": report.checks,
        "failures": report.failures,
        "ok": report.ok,
    }
    lines = [
        f"trials: {report.trials} (seed {config.seed}, resampled {report.resampled})",
    ]
    for name, count in report.checks.items():
        lines.append(f"check {name}: {count} run")
    lines.append(f"failures: {len(report.failures)}")
    lines.extend(report.failures)
    lines.append("result: PASS" if report.ok else "result: FAIL")
    return payload, lines


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first ``main`` call and reused.  Each ``func`` default
    holds its ``_cmd_*`` function, so patching ``cli._cmd_*`` after that call
    has no effect; the names those functions look up when run still can be."""
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Exact divisor theory on finite multigraphs: ranks, reduced divisors, burning.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, graph_file=True, divisor=False, base=False,
            other=False, budget=False):
        sub = commands.add_parser(name, help=help_text)
        if graph_file:
            sub.add_argument("graph", help="path to a plain-text graph file")
        if divisor:
            sub.add_argument("-d", "--divisor", required=True,
                             help="divisor literal, e.g. 'v1=1,v3=4'")
        if other:
            sub.add_argument("-e", "--other", required=True,
                             help="second divisor literal")
        if base:
            sub.add_argument("-u", "--base", required=True, help="base vertex id")
        if budget:
            sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                             help="max candidates per enumeration level")
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        sub.set_defaults(func=func)
        return sub

    add("genus", _cmd_genus, "total weight plus first Betti number")
    add("canonical", _cmd_canonical, "the canonical divisor and its degree")
    add("hat", _cmd_hat, "weightless loopless surrogate graph")
    add("g0", _cmd_g0, "loop-stripped weightless simplification")
    add("bullet", _cmd_bullet, "subdivide every loop with a fresh vertex")
    rank_cmd = add("rank", _cmd_rank, "combinatorial rank with witness", divisor=True, budget=True)
    rank_cmd.add_argument("--exhaustive", action="store_true",
                          help="skip fast paths; enumerate from the definition")
    add("reduce", _cmd_reduce, "unique base-reduced representative and script",
        divisor=True, base=True)
    add("dhar", _cmd_dhar, "burning decomposition from a base vertex",
        divisor=True, base=True)
    add("equiv", _cmd_equiv, "linear equivalence with witnessing script",
        divisor=True, other=True)
    add("saturate", _cmd_saturate, "recipe saturation at a base vertex",
        divisor=True, base=True)
    add("rr-check", _cmd_rr_check, "Riemann-Roch residual (must be zero)",
        divisor=True, budget=True)
    add("clifford", _cmd_clifford, "Clifford inequality verdict",
        divisor=True, budget=True)
    option = add("sweep", _cmd_sweep, "seeded randomized property suite", graph_file=False).add_argument
    option("--vertices", type=int, default=SweepConfig.max_vertices, help="max vertices per instance")
    option("--max-edges", type=int, default=SweepConfig.max_edges,
           help="max total edge multiplicity per instance")
    option("--max-weight", type=int, default=SweepConfig.max_weight, help="max vertex weight")
    option("--trials", type=int, default=SweepConfig.trials, help="number of instances")
    option("--seed", type=int, default=SweepConfig.seed, help="random seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        graph = _load_graph(args.graph) if "graph" in args else None
        divisor = parse_divisor(args.divisor, graph) if "divisor" in args else None
        payload, lines = args.func(args, graph, divisor)
    except ChipfireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; with stdout on devnull the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if payload.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
