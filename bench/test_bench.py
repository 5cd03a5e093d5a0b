"""Self-tests of the benchmark: toy-sized workloads, and every check fed a corrupted result.

Run from the root of the repository with ``python3 -m pytest bench``.
"""

import dataclasses
import importlib.util
import json

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402
import harness  # noqa: E402
from dualmp import data, graphs, metrics, model, training  # noqa: E402
from tracing import Tracer  # noqa: E402

TOY_NODES = {"a4-train": 300, "edge-heavy-train": 300, "node-heavy-train": 600}


def toy(name: str) -> harness.Workload:
    workload = harness.WORKLOADS[name]
    return dataclasses.replace(workload, spec={**workload.spec, "num_nodes": TOY_NODES[name]}, epochs=20)


@pytest.fixture(scope="module")
def forward_case():
    """An untrained toy model's eval forward, with everything the checks need."""
    graph = data.generate_synthetic(toy("edge-heavy-train").synthetic_spec(3))
    config = model.TrainConfig(seed=3)
    dcm = model.DualChannelModel(graph, config, np.random.default_rng(3))
    out = dcm.forward(training=False)
    return {
        "graph": graph,
        "config": config,
        "params": dcm.params.snapshot(),
        "probs": out.probs.data.copy(),
        "partitions": out.partitions,
        "relations": harness.relation_edges(graph),
    }


def reference_check(case, probs=None, masks=None):
    return checks.check_reference_forward(
        case["probs"] if probs is None else probs,
        [p.hetero_mask for p in case["partitions"]] if masks is None else masks,
        case["params"],
        case["graph"].features,
        case["relations"],
        case["config"].residual_mix,
    )


# ---------------------------------------------------------------------------
# the benchmark definition and the workloads at toy size


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_a4_train_is_the_acceptance_fixture():
    path = run.ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("test_acceptance", path)
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    assert harness.WORKLOADS["a4-train"].spec == acceptance.A4_SPEC


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_workload_runs_and_passes_checks(name, trace, tmp_path):
    workload = toy(name)
    result = harness.run_workload(workload, seed=0, seconds=0, trace=trace, out_dir=tmp_path)
    assert result.correct, [c.line() for c in result.checks if not c.ok]
    assert result.failed == 0
    rounds = 2 if trace else 1
    assert result.attempted == workload.setup_reps + rounds * (workload.epochs + 1 + harness.SCORE_PASSES)
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    assert all(np.isfinite(value) for value, _ in result.metrics.values())
    assert (tmp_path / f"spans-{name}-seed0.jsonl").exists() == trace
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("work-")] == []


# ---------------------------------------------------------------------------
# each check passes on the program's result and fails on a corrupted one


def test_pairwise_auc_matches_rank_auc_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 20, size=300).astype(float)
    labels = (rng.random(300) < 0.2).astype(int)
    assert checks.mann_whitney_auc(scores, labels) == pytest.approx(metrics.roc_auc(scores, labels), abs=1e-12)


def test_auc_check_fails_on_permuted_scores(forward_case):
    graph, scores = forward_case["graph"], forward_case["probs"][:, 1]
    test = graph.split.test
    program_auc = metrics.roc_auc(scores[test], graph.labels[test])
    assert checks.check_auc(program_auc, scores, graph.labels, test).ok
    permuted = np.random.default_rng(1).permutation(scores)
    assert not checks.check_auc(program_auc, permuted, graph.labels, test).ok


def test_reference_forward_passes_on_program_output(forward_case):
    check = reference_check(forward_case)
    assert check.ok, check.detail


def test_reference_forward_fails_on_flipped_partition(forward_case):
    flipped = [~p.hetero_mask for p in forward_case["partitions"]]
    assert not reference_check(forward_case, masks=flipped).ok


def test_reference_forward_fails_on_perturbed_probabilities(forward_case):
    probs = forward_case["probs"].copy()
    probs[7] += [-1e-7, 1e-7]
    assert not reference_check(forward_case, probs=probs).ok


def test_probability_check(forward_case):
    probs = forward_case["probs"]
    assert checks.check_probabilities(probs).ok
    for corrupt in (np.nan, 1.5, -0.1):
        bad = probs.copy()
        bad[0, 1] = corrupt
        assert not checks.check_probabilities(bad).ok
    unnormalised = probs.copy()
    unnormalised[:, 1] *= 1.001
    assert not checks.check_probabilities(unnormalised).ok


def test_partition_check_fails_on_swapped_views_and_lost_edges(forward_case):
    parts, relations = forward_case["partitions"], forward_case["relations"]
    assert checks.check_partition(parts, relations).ok
    swapped = [graphs.EdgePartition(hetero_mask=p.hetero_mask, homo=p.hetero, hetero=p.homo) for p in parts]
    assert not checks.check_partition(swapped, relations).ok
    short = dataclasses.replace(parts[0].hetero, offsets=parts[0].hetero.offsets.copy(), targets=parts[0].hetero.targets[:-1])
    short.offsets[-1] -= 1
    lost = [graphs.EdgePartition(hetero_mask=parts[0].hetero_mask, homo=parts[0].homo, hetero=short), *parts[1:]]
    assert not checks.check_partition(lost, relations).ok


def test_round_trip_check_fails_on_last_bit(forward_case):
    scores = forward_case["probs"][:, 1]
    assert checks.check_round_trip(scores, scores.copy()).ok
    bumped = scores.copy()
    bumped[3] = np.nextafter(bumped[3], 1.0)
    assert not checks.check_round_trip(scores, bumped).ok


def test_loaded_graph_check(forward_case, tmp_path):
    graph = forward_case["graph"]
    loaded = data.load_dataset(data.write_dataset(graph, tmp_path))
    assert checks.check_loaded_graph(graph, loaded).ok
    rel = loaded.relations[0]
    targets = rel.targets.copy()
    targets[0] = (targets[0] + 1) % graph.num_nodes
    moved = dataclasses.replace(loaded, relations=[dataclasses.replace(rel, targets=targets), *loaded.relations[1:]])
    assert not checks.check_loaded_graph(graph, moved).ok
    features = loaded.features.copy()
    features[5, 2] *= 1 + 1e-9
    assert not checks.check_loaded_graph(graph, dataclasses.replace(loaded, features=features)).ok


def test_training_check():
    assert checks.check_training([3.0, 2.5, 2.0], 0.8).ok
    assert not checks.check_training([3.0, float("nan"), 2.0], 0.8).ok
    assert not checks.check_training([3.0, 2.5], 0.45).ok
    assert not checks.check_training([], 0.8).ok


def test_repeatable_check():
    first = [[1.0, 2.0], [0.8], np.array([0.1, 0.2])]
    assert checks.check_repeatable(first, [[1.0, 2.0], [0.8], np.array([0.1, 0.2])], "x").ok
    assert not checks.check_repeatable(first, [[1.0, 2.0], [0.8], np.array([0.1, 0.2000001])], "x").ok


# ---------------------------------------------------------------------------
# tracing


def test_tracer_self_time_and_uninstall(forward_case):
    dcm = model.DualChannelModel(forward_case["graph"], forward_case["config"], np.random.default_rng(0))
    originals = {name: getattr(training, name) for name in ("evaluate", "evaluate_split")}
    tracer = Tracer()
    with tracer.installed(), tracer.phase("score"):
        assert training.evaluate is not originals["evaluate"]
        training.evaluate_split(dcm, forward_case["graph"].split.test)
    assert {name: getattr(training, name) for name in originals} == originals

    outer = tracer.spans[0]
    children = [s for s in tracer.spans if s.parent == outer.id]
    assert outer.name == "training.evaluate_split"
    assert [c.name for c in children] == ["model.forward_eval", "metrics.evaluate"]
    covered = sum(c.end_ns - c.start_ns for c in children)
    assert tracer.self_ns()[outer.id] == outer.end_ns - outer.start_ns - covered
    times, _ = tracer.totals("score")
    assert times["training.evaluate_split"] == tracer.self_ns()[outer.id]
