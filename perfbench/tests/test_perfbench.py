"""Tests of the benchmark itself: inputs, tracing, gate and refusal to run.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import tracing
import workloads
from coverplan import cli, detection_matrix, scenario_from_dict
from coverplan.geometry import Polygon, closest_point_on_segment

SMALL = {
    "name": "small",
    "boundary": [[0, 0], [20, 0], [20, 10], [0, 10]],
    "obstacles": [[[8, 3], [12, 3], [12, 7], [8, 7]]],
    "team_size": 3,
    "sensor": {"decay": 0.15, "radius": 30.0},
    "candidate_spacing": 5.0,
    "refine": {"max_iterations": 3},
}


def generated(seed):
    return {
        **workloads.scenario_dicts("refine_open", seed),
        **{k: v for k, v in workloads.scenario_dicts("refine_cluttered", seed).items()
           if k != "random_60x50"},
    }


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_same_seed_same_inputs_and_all_valid(seed):
    first = generated(seed)
    assert json.dumps(first, sort_keys=True) == json.dumps(generated(seed), sort_keys=True)
    assert json.dumps(first, sort_keys=True) != json.dumps(generated(seed + 1), sort_keys=True)
    assert workloads.sweep_spec(seed) == workloads.sweep_spec(seed)
    for data in first.values():
        scenario_from_dict(data)


def _polygon_gap(p, q):
    # disjoint convex polygons are closest at a vertex of one and an edge of the other
    gaps = []
    for a, b in ((p, q), (q, p)):
        ea, eb = b.edges
        gaps += [np.linalg.norm(v - closest_point_on_segment(v, ea[i], eb[i]))
                 for v in a.vertices for i in range(len(ea))]
    return min(gaps)


@pytest.mark.parametrize("seed", range(6))
def test_generated_obstacles_are_disjoint_and_strictly_inside(seed):
    for k in range(workloads.CLUTTERED_LAYOUTS):
        polys = [Polygon(o) for o in workloads.cluttered_scenario(seed, k)["obstacles"]]
        for poly in polys:
            assert poly.is_convex
            xs, ys = poly.vertices[:, 0], poly.vertices[:, 1]
            assert xs.min() > 0 and ys.min() > 0
            assert xs.max() < workloads.WIDTH and ys.max() < workloads.HEIGHT
        for p, q in itertools.combinations(polys, 2):
            assert _polygon_gap(p, q) > 0


def test_generated_layout_has_no_zero_mass_candidate():
    sc = scenario_from_dict(workloads.cluttered_scenario(3, 0))
    space = sc.build_space()
    grid = sc.build_grid(space)
    probs = detection_matrix(sc.build_candidates(space), space, grid.centers, sc.build_sensor())
    assert np.all(probs @ grid.weights > 0)


def _run_small(tmp_path, kind="gga"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([kind, "--scenario", str(path), "--out", str(tmp_path / kind)])


def _originals():
    out = {}
    for owner_path, attr, _, _ in tracing.TARGETS:
        owner = tracing._resolve(owner_path)
        out[(owner_path, attr)] = vars(owner)[attr]
    return out


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _originals()
    tracer = tracing.Tracer()
    with tracer:
        assert all(
            vars(tracing._resolve(o))[a] is not before[(o, a)] for o, a in before
        ), "every target is wrapped while tracing"
        tracer.op = 0
        with tracer.span("cli.gga", "cli"):
            assert _run_small(tmp_path) == 0
    assert _originals() == before
    assert not tracer.missing
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"coverplan.sensing.line_of_sight_many", "coverplan.cli.refine",
            "coverplan.gradient.detection_row"} <= names
    for s in tracer.spans[1:]:
        parent = tracer.spans[s[tracing.PARENT]]
        assert parent[tracing.START] <= s[tracing.START] <= s[tracing.END] <= parent[tracing.END]
    root = tracer.spans[0]
    assert sum(tracer.self_times()) == pytest.approx(root[tracing.END] - root[tracing.START])


def test_wrappers_restored_when_the_traced_code_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _originals() == before


def test_missing_name_is_reported_not_measured(tmp_path):
    targets = tracing.TARGETS + (("coverplan.sensing", "no_such_kernel", "geometry", True),
                                 ("coverplan.no_such_module", "f", "field", True))
    before = _originals()
    tracer = tracing.Tracer(targets=targets)
    for k in range(2):  # a tracer is entered once per traced command
        with tracer:
            tracer.op = k
            with tracer.span("cli.gga", "cli"):
                assert _run_small(tmp_path / str(k)) == 0
        assert _originals() == before
    assert [n for n, _ in tracer.missing] == ["coverplan.sensing.no_such_kernel",
                                             "coverplan.no_such_module.f"]
    metrics = tracing.layer_metrics(tracer, {"total": 1.0, "gga": 1.0},
                                    {"total": 1.0, "gga": 1.0}, {"cells": 1, "candidates": 1})
    assert metrics["trace.names_missing"] == (2, "count")
    assert metrics["gradient.iterations"][0] > 0


def _gga_result(tmp_path, h_values):
    out = tmp_path / "gga"
    out.mkdir(parents=True)
    rows = [f"{i},0,1,1,{h},0" for i, h in enumerate(h_values)]
    (out / "gga_trace.csv").write_text("\n".join(["# coverplan 0", "iter,agent,x,y,H,grad_norm",
                                                  *rows]) + "\n")
    stdout = (f"greedy coverage: {h_values[0]}\n"
              f"refined coverage: {h_values[-1]} after {len(h_values) - 1} iterations "
              f"(max_iterations)\n")
    return gate.OpResult(0, "gga", "s", 0, 1.0, stdout, "", out)


def test_gate_flags_a_decreasing_refine_trace(tmp_path):
    assert gate.check_gga(_gga_result(tmp_path / "up", [1.0, 2.0, 2.0, 3.0])) == []
    problems = gate.check_gga(_gga_result(tmp_path / "down", [1.0, 3.0, 2.0, 4.0]))
    assert any("decreases" in p for p in problems)
    problems = gate.check_gga(_gga_result(tmp_path / "worse", [2.0, 1.0]))
    assert any("below greedy" in p for p in problems)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = workloads.__file__.rsplit("/", 1)[0]
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
