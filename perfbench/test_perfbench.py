"""Tests for the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import random
from array import array

import pytest

import perfbench

perfbench.use_source_tree()

import pathgauge.complexes  # noqa: E402
import pathgauge.gauge  # noqa: E402
import pathgauge.pathspace  # noqa: E402
import pathgauge.words  # noqa: E402
from perfbench import inputs, runner, tracing, workloads  # noqa: E402
from perfbench.workloads import GraphScale, Job  # noqa: E402


class TinyGraph(GraphScale):
    """graph-scale at desk size, so tests run in seconds."""

    SIZES = (8, 16)
    HOLONOMY_INPUTS = {8: 1, 16: 1}
    CANONICAL_POINTS = 5


def written(workdir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    runs = []
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / label
        workdir.mkdir()
        wl = cls(seed, workdir)
        wl.prepare()
        jobs = wl.cycle(0)
        runs.append(([j.kind for j in jobs], written(workdir), [j.run() for j in jobs[:3]]))
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_input_generators_repeat_per_seed():
    def draw(seed):
        rng = random.Random(seed)
        cx = inputs.sparse_complex(rng, 30, 15)
        tree = pathgauge.complexes.build_tree(cx)
        arith = inputs.MatrixArith(3)
        kf = inputs.known_field(arith, cx, tree, inputs.random_spec(arith, tree, rng), rng)
        return cx, kf.field.labels, kf.k

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    cx = draw(3)[0]
    assert len(cx.vertices) == 30 and len(cx.edges) == 44


def test_known_field_holonomy_and_transport_match_construction():
    rng = random.Random(1)
    arith = inputs.PermArith(4)
    cx = inputs.sparse_complex(rng, 12, 6)
    tree = pathgauge.complexes.build_tree(cx)
    kf = inputs.known_field(arith, cx, tree, inputs.random_spec(arith, tree, rng), rng)
    assert workloads.holonomy_and_iso(kf) == (kf.spec, kf.spec, kf.k)
    walker = inputs.Walker(cx, tree)
    for _ in range(10):
        w = walker.random_word(rng, 7)
        assert pathgauge.gauge.transport(kf.field, w) == inputs.expected_transport(arith, kf, w)


def test_planted_wrong_answer_raises_fail_ratio():
    rng = random.Random(2)
    arith = inputs.CyclicArith(11)
    cx = inputs.sparse_complex(rng, 10, 5)
    tree = pathgauge.complexes.build_tree(cx)
    kf = inputs.known_field(arith, cx, tree, inputs.random_spec(arith, tree, rng), rng)
    chord = sorted(kf.spec)[0]
    planted = dataclasses.replace(kf, spec={**kf.spec, chord: (kf.spec[chord] + 1) % 11})
    jobs = [
        Job("right", lambda: workloads.holonomy_and_iso(kf), workloads.holonomy_and_iso_check(kf)),
        Job("planted", lambda: workloads.holonomy_and_iso(kf), workloads.holonomy_and_iso_check(planted)),
    ]
    out = runner.run_jobs(jobs)
    assert out.passed == [True, False]
    assert out.failed == 1


def test_exceptions_and_twin_mismatch_fail_jobs_not_the_run():
    outputs = iter([(0, "a"), (0, "b")])
    jobs = [
        Job("raises", lambda: 1 // 0, bool),
        Job("twin", lambda: next(outputs), lambda answer: True, twin="key"),
        Job("twin", lambda: next(outputs), lambda answer: True, twin="key"),
        Job("fine", lambda: True, bool),
    ]
    out = runner.run_jobs(jobs)
    assert out.passed == [False, False, False, True]
    assert len(out.latencies) == 4


def test_self_time_of_nested_spans():
    # root [0,10] with children [1,4] (holding [2,3]), [5,9] and [8,12];
    # the last overlaps its sibling and runs past its parent.
    start = array("d", [0, 1, 2, 5, 8])
    end = array("d", [10, 4, 3, 9, 12])
    parent = array("i", [-1, 0, 1, 0, 0])
    assert list(tracing.self_times(start, end, parent)) == [2, 2, 1, 4, 4]


def synthetic_tracer(spans) -> tracing.Tracer:
    """A tracer filled from (name, parent, size, start, end) tuples."""
    tracer = tracing.Tracer()
    for name, parent, size, start, end in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.job.append(0)
        tracer.size.append(size)
        tracer.start.append(start)
        tracer.end.append(end)
    return tracer


def test_layer_metrics_aggregate_spans():
    tracer = synthetic_tracer([
        ("reconstruct.find_conjugator", -1, 0, 0.0, 10.0),
        ("groups.permutation.mul", 0, 0, 1.0, 2.0),
        ("groups.permutation.check", 1, 0, 1.2, 1.6),
        ("groups.permutation.inv", 0, 0, 3.0, 4.0),
        ("groups.permutation.mul", -1, 0, 11.0, 12.0),
        ("complexes.build_tree", -1, 100, 20.0, 21.0),
        ("complexes.build_tree", -1, 200, 22.0, 26.0),
        ("complexes.build_tree", -1, 400, 30.0, 46.0),
        ("fileio.parse_gauge", -1, 321, 50.0, 50.5),
    ])
    m = tracing.layer_metrics(tracer, {"hit_ratio": 0.5, "size": 9}, 1.25)
    assert m["reconstruct.search.group_ops"] == 2
    assert m["reconstruct.find_conjugator.self_s"] == pytest.approx(8.0)
    assert m["groups.permutation.mul.calls"] == 2
    assert m["groups.permutation.mul.mean_us"] == pytest.approx(1e6)
    assert m["groups.permutation.check.self_s"] == pytest.approx(0.4)
    assert m["groups.self_s"] == pytest.approx(3.0)
    assert m["complexes.build_tree.growth"] == pytest.approx(4.0)
    assert m["complexes.chord_loops.growth"] == 0.0
    assert m["fileio.parse.bytes"] == 321
    assert m["gauge.transport_cache.size"] == 9
    assert m["trace.spans"] == 9


def test_install_covers_names_bound_elsewhere_and_uninstall_restores():
    reduce_word = pathgauge.words.reduce_word
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pathgauge.pathspace.reduce_word is pathgauge.words.reduce_word
        assert getattr(pathgauge.pathspace.reduce_word, tracing.MARK) == "words.reduce_word"
        assert "pathgauge.groups.PermutationCtx.mul" in tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert pathgauge.pathspace.reduce_word is reduce_word


def test_traced_then_untraced_run_leaves_no_wrapper(tmp_path):
    wl = TinyGraph(3, tmp_path)
    wl.prepare()
    jobs = wl.cycle(0)
    outcome, metrics, tracer, traced = runner.trace(wl, jobs)
    assert traced == jobs
    assert tracing.installed_wrappers() == []
    assert outcome.failed == 0 and len(outcome.passed) == 2 * len(jobs)
    assert metrics["complexes.build_tree.growth"] > 0
    assert metrics["groups.cyclic.mul.calls"] > 0
    untraced, cycles, _ = runner.measure(wl, wl.cycle(1), seconds=0)
    assert cycles == 1 and untraced.failed == 0
    assert tracing.installed_wrappers() == []


def test_benchmark_json_matches_what_the_runner_prints():
    doc = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == runner.END_TO_END
    names = tracing.layer_metrics(tracing.Tracer(), {}, 1.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {n: tracing.unit(n) for n in names}
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
