"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import instances  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BUILD_WORKLOADS = ("plane_curves", "space_curves")


@pytest.mark.parametrize("workload", BUILD_WORKLOADS)
def test_instance_stream_is_deterministic_and_repetition_free(workload):
    a = instances.first_instances(workload, 7, 60)
    assert a == instances.first_instances(workload, 7, 60)
    assert a != instances.first_instances(workload, 8, 60)
    assert len({inst.equations for inst in a}) == len(a)


def test_connect_inputs_are_deterministic():
    assert instances.connect_curve(3) == instances.connect_curve(3)
    order = instances.query_order(3, 16)
    first = [next(order) for _ in range(32)]
    again = instances.query_order(3, 16)
    assert first == [next(again) for _ in range(32)]
    assert sorted(first[:16]) == list(range(16)) == sorted(first[16:])


@pytest.mark.parametrize("kind", ("single", "disjoint", "tangent", "crossing"))
def test_plane_ground_truth_agrees_with_grid_oracle(kind):
    from dcroadmap.infring import QQ
    from dcroadmap.mpoly import parse_poly
    from dcroadmap.oracle import MeshConfig, grid_components

    inst = next(i for i in instances.first_instances("plane_curves", 0, 24) if i.kind == kind)
    # each conic is scaled to unit-size coefficients before taking the
    # product, so the oracle's |P| <= tau band is about as wide everywhere
    P = None
    for text in inst.conics:
        c = parse_poly(text, instances.XY)
        c = c.scale(1 / max(abs(v) for v in c.terms.values()))
        P = c if P is None else P * c
    count, _cloud = grid_components(P, MeshConfig(box=QQ(8), h=QQ(1, 40), tau=QQ(1, 10)))
    assert count == inst.components, inst


def test_space_instances_avoid_planes_x_equals_c():
    # README.md, "Known wrong answers": curves inside such a plane
    from dcroadmap.mpoly import parse_poly

    for inst in instances.first_instances("space_curves", 0, 60):
        for e in inst.equations:
            assert parse_poly(e, instances.XYZ).used_vars() != {"x"}, inst


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [["request", 0.0, 10.0, -1, 0], ["a", 1.0, 5.0, 0, 0],
               ["b", 2.0, 3.0, 1, 0], ["a", 6.0, 7.0, 0, 0]]
    summary = t.summary()
    assert summary["request"] == (1, 5.0)
    assert summary["a"] == (2, 4.0)
    assert summary["b"] == (1, 1.0)


def test_tracer_wraps_every_lookup_and_restores_them():
    import dcroadmap.curves as curves
    import dcroadmap.infring as infring
    import dcroadmap.roadmap as roadmap

    before = (curves.curve_segments, roadmap.curve_segments, infring.InfElem.__mul__)
    assert before[0] is before[1]
    t = tracing.Tracer()
    t.install()
    try:
        assert curves.curve_segments is roadmap.curve_segments
        assert curves.curve_segments is not before[0]
        infring.InfElem.const(2) * infring.InfElem.const(3)
        assert t.counts["infring.mul.calls"] == 1
    finally:
        t.uninstall()
    assert (curves.curve_segments, roadmap.curve_segments,
            infring.InfElem.__mul__) == before


def test_decile_interpolates():
    assert run.decile([3.0], 9) == 3.0
    assert run.decile([5.0, 1.0, 3.0, 2.0, 4.0], 5) == 3.0
    assert run.decile([1.0, 2.0], 9) == pytest.approx(1.9)


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    spec = _benchmark_spec()
    gated = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = gated if trace else {**gated, **run.TAIL}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    t = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    took = time.perf_counter() - t
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    lines = done.stdout.splitlines()
    for name, unit in printed.items():
        assert any(ln.startswith(f"metric {name} ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    assert took < 60


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "plane_curves", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
