"""Tests of the benchmark itself: ``python -m pytest bench``.

Each workload runs in smoke mode (a tiny op list with every check), traced
and untraced, in its own process as the full benchmark does.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import adjacency, burn, fire, stratified  # noqa: E402
import run  # noqa: E402
import wl_sweep  # noqa: E402

END_TO_END = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
PER_LAYER = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    return done


@pytest.mark.parametrize("workload", ["rank-clifford", "sweep", "cli-large"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    # only the kept RecursionError op of cli-large fails
    assert result["failed"] == (1 if workload == "cli-large" else 0)
    assert set(result["metrics"]) == (PER_LAYER if trace == "1" else END_TO_END)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:  # a stale hook would read 0 in its layer's metrics
        assert result["metrics"]["trace.missing_hooks"]["value"] == 0, done.stderr


def test_same_seed_same_inputs():
    first = _run("--workload", "sweep", "--seed", "5", "--seconds", "1", "--describe")
    second = _run("--workload", "sweep", "--seed", "5", "--seconds", "1", "--describe")
    assert first.returncode == 0 and first.stdout == second.stdout


def _burn_by_rescan(adj, values, base):
    """The burning game by its definition: each day rescan every vertex."""
    burned, layers = {base}, [[base]]
    while True:
        day = [v for v in range(len(adj)) if v not in burned
               and values[v] < sum(m for w, m in adj[v].items() if w in burned)]
        if not day:
            return layers, [v for v in range(len(adj)) if v not in burned]
        burned.update(day)
        layers.append(day)


def test_burn_matches_the_definition():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = [(rng.randrange(i), i, rng.randint(1, 2)) for i in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) + (1,) for _ in range(rng.randint(0, n)) if n > 1]
        adj = adjacency(n, edges)
        values = [rng.randint(0, 3) for _ in range(n)]
        base = rng.randrange(n)
        assert burn(adj, values, base) == _burn_by_rescan(adj, values, base)
    cycle = adjacency(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert burn(cycle, [0, 0, 0, 0], 0) == ([[0], [1, 3], [2]], [])
    assert burn(cycle, [0, 0, 1, 1], 0) == ([[0], [1]], [2, 3])


def test_fire_conserves_chips():
    adj = [{1: 2}, {0: 2, 2: 1}, {1: 1}]
    assert fire(adj, [1, 0, 0]) == [-2, 2, 0]
    assert sum(fire(adj, [3, 1, 4])) == 0


def test_pace_scales_by_the_reference_samples_around_a_timing():
    pace = run.Pace()
    pace.when, pace.took = [0.0, 1.0, 2.0, 3.0], [1e-3, 1e-3, 2e-3, 2e-3]
    ref = run.REFERENCE_SECONDS
    # no sample within the window: the ones just before and after pace it
    assert pace.paced(0.5, 0.01) == pytest.approx(0.01 * ref / 1e-3)
    assert pace.paced(2.5, 0.01) == pytest.approx(0.01 * ref / 2e-3)
    assert pace.paced(1.5, 0.01) == pytest.approx(0.01 * ref / 1.5e-3)


def test_stratified_takes_one_per_block():
    picks = stratified(list(range(100)), 10, key=lambda x: -x)
    assert picks == [94, 84, 74, 64, 54, 44, 34, 24, 14, 4]


def test_sweep_prediction_matches_the_program():
    """The benchmark's copy of the sweep's first draw agrees with the sweep's
    own generators and resample count."""
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        import chipfire
    except ImportError:
        pytest.skip("chipfire sources not found")
    cfg = wl_sweep.CONFIG
    for seed in range(60):
        predicted = wl_sweep.predict_first_instance(seed)
        report = chipfire.run_sweep(chipfire.SweepConfig(trials=1, seed=seed, **cfg))
        assert report.resampled == predicted["resampled"]
        if predicted["resampled"] == 0:
            rng = random.Random(seed)
            graph = chipfire.random_connected_graph(
                rng, cfg["max_vertices"], cfg["max_edges"], cfg["max_weight"]
            )
            divisor = chipfire.random_divisor(rng, graph, cfg["max_value"])
            assert (graph.vertex_count, graph.genus(), divisor.degree) == (
                predicted["vertices"], predicted["genus"], predicted["degree"]
            )
