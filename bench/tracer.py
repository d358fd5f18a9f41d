"""Spans around the calls from one ``chipfire`` module into another.

Each hook replaces a function where the calling module binds it (for
example ``chipfire.rank._reduce_indices``, the name through which ``rank``
reaches ``reduction``), so only calls made through that binding are
traced.  Every call becomes a span: name, start, end and parent span.
Spans are kept in flat arrays while the run lasts and written out when it
ends; per-layer metrics are computed from them afterwards.  A hooked name
that the program no longer has is reported as missing, and the run goes on
without it.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from pathlib import Path

# (module, attribute, span name).  The span name is <layer>.<operation>;
# spans of the same name nested in each other count once.
HOOKS = (
    ("chipfire", "rank", "rank.rank"),
    ("chipfire.sweep", "rank", "rank.rank"),
    ("chipfire.cli", "rank", "rank.rank"),
    ("chipfire.rank", "hat_graph", "graph.hat_graph"),
    ("chipfire.sweep", "hat_graph", "graph.hat_graph"),
    ("chipfire.rank", "_reduce_indices", "reduction.reduce"),
    ("chipfire.rank", "reduce_divisor", "reduction.reduce"),
    ("chipfire.sweep", "reduce_divisor", "reduction.reduce"),
    ("chipfire.cli", "reduce_divisor", "reduction.reduce"),
    ("chipfire.rank", "is_reduced", "reduction.is_reduced"),
    ("chipfire.sweep", "is_reduced", "reduction.is_reduced"),
    ("chipfire.reduction", "_burn", "reduction.dhar"),
    ("chipfire.reduction", "_dhar_indices", "reduction.dhar"),
    ("chipfire.cli", "dhar", "reduction.dhar"),
    ("chipfire.cli", "equivalence_script", "divisor.equivalence_script"),
    ("chipfire.divisor", "principal_script", "divisor.principal_script"),
    ("chipfire.sweep", "brute_rank", "oracle.brute_rank"),
    ("chipfire.sweep", "brute_is_reduced", "oracle.brute_is_reduced"),
    ("chipfire", "run_sweep", "sweep.run_sweep"),
    ("chipfire.sweep._Sweep", "_run_instance", "sweep.run_instance"),
    ("chipfire.cli", "parse_graph", "textio.parse_graph"),
    ("chipfire.cli", "main", "cli.main"),
)
# Generators are counted, not timed: their time belongs to the consumer.
COUNTED_GENERATORS = (("chipfire.rank", "iter_effective_values", "divisor.candidates"),)
# The per-layer metrics a traced run reports, whatever the workload.
PUBLISHED = (
    "reduction.reduce.calls",
    "reduction.reduce.s",
    "reduction.reduce.chips",
    "reduction.is_reduced.calls",
    "reduction.is_reduced.s",
    "reduction.dhar.calls",
    "reduction.dhar.s",
    "divisor.candidates",
    "divisor.principal_script.calls",
    "divisor.principal_script.s",
    "rank.rank.calls",
    "rank.rank.self_s",
    "rank.rank.calls_above_2g-2",
    "rank.method.exhaustive",
    "rank.method.formula",
    "rank.method.rank-explicit",
    "rank.method.reduced-negative",
    "graph.hat_graph.calls",
    "graph.hat_graph.s",
    "sweep.trials",
    "sweep.rank_calls_per_trial",
    "sweep.self_s",
    "oracle.brute_rank.calls",
    "oracle.brute_rank.s",
    "oracle.brute_is_reduced.s",
    "textio.parse_graph.calls",
    "textio.parse_graph.s",
    "cli.main.calls",
    "cli.main.self_s",
)


def _resolve(path: str):
    """The module or class object named by a dotted path, or None."""
    module_path, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        if not module_path:
            return None
    owner = _resolve(module_path)
    return getattr(owner, attr, None) if owner is not None else None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.outermost = array("B")  # 0 when an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._active: list[int] = []  # open spans per name
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._hooks: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        for owner_path, attr, name in HOOKS + COUNTED_GENERATORS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            wrap = self._counter if (owner_path, attr, name) in COUNTED_GENERATORS else self._span
            self._hooks.append((owner, attr, original, wrap(name, original)))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_ids[name]

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, names, parents, outer, starts, ends, active = (
            self._stack, self.span_name, self.parent, self.outermost,
            self.start, self.end, self._active,
        )
        # the input of a reduction (a Divisor first, or a values list second)
        # adds its absolute sum to reduction.reduce.chips
        chips = name == "reduction.reduce"
        is_rank = name == "rank.rank"
        add = self._add

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(active[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            if chips:
                first = args[0]
                values = first.values if hasattr(first, "values") else args[1]
                add("reduction.reduce.chips", sum(map(abs, values)))
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if is_rank:
                add(f"rank.method.{result.method}", 1)
                divisor = args[0]
                if divisor.degree > 2 * divisor.graph.genus() - 2:
                    add("rank.rank.calls_above_2g-2", 1)
            return result

        return traced

    def _counter(self, key: str, fn):
        add = self._add

        def counted(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:  # also when the consumer stops early and the generator is closed
                add(key, n)

        return counted

    def __enter__(self):
        """Install the hooks; leaving the block restores the originals."""
        for owner, attr, _, wrapper in self._hooks:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._hooks:
            setattr(owner, attr, original)
        return False

    def write(self, path: Path) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "l"], ["outermost", "B"], ["start", "d"], ["end", "d"]],
            "counts": self.counts,
            "missing": self.missing,
        }
        with path.open("wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.outermost, self.start, self.end):
                arr.tofile(out)

    def per_name(self) -> dict[str, float]:
        """Calls, time and self time per span name, plus the counters.

        A span's call and time count toward its name unless an enclosing
        span has the same name.  Self time is a span's time minus that of
        its direct children.
        """
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        self_time = [0.0] * k
        names, parents, outer = self.span_name, self.parent, self.outermost
        starts, ends = self.start, self.end
        for i in range(len(starts)):
            nid = names[i]
            dur = ends[i] - starts[i]
            self_time[nid] += dur
            if outer[i]:
                calls[nid] += 1
                total[nid] += dur
            p = parents[i]
            if p >= 0:
                self_time[names[p]] -= dur
        out: dict[str, float] = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.s"] = total[nid]
            out[f"{name}.self_s"] = self_time[nid]
        return out


def layer_metrics(per_name: dict[str, float]) -> dict[str, float]:
    """The PUBLISHED metrics from per-name figures; absent names read 0."""
    trials = per_name.get("sweep.run_instance.calls", 0)
    derived = {
        "sweep.trials": trials,
        "sweep.rank_calls_per_trial": per_name.get("rank.rank.calls", 0) / trials if trials else 0,
        "sweep.self_s": per_name.get("sweep.run_sweep.self_s", 0.0)
        + per_name.get("sweep.run_instance.self_s", 0.0),
    }
    return {name: derived[name] if name in derived else per_name.get(name, 0) for name in PUBLISHED}


def unit(name: str) -> str:
    if name == "sweep.rank_calls_per_trial":
        return "calls/trial"
    return "s" if name.endswith(("_s", ".s")) else "count"
