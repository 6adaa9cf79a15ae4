"""Tests of the benchmark harness itself: wrapping, spans, checks, metric list.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rdlab.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, package_modules  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def bindings(objects):
    ids = {id(o) for o in objects}
    return sorted(f"{m.__name__}.{attr}" for m in package_modules()
                  for attr, value in vars(m).items() if id(value) in ids)


def test_every_binding_site_is_wrapped(tracer):
    # a new `from .x import f` in a later change must not drop spans silently
    assert bindings(tracer.originals) == []
    assert rdlab.norms.convolve is rdlab.algebra.convolve
    assert rdlab.norms.convolve.__wrapped__ in tracer.originals


def test_uninstall_restores_originals():
    t = Tracer()
    before = bindings(t.originals)
    t.install()
    t.uninstall()
    assert bindings(t.originals) == before
    assert "rdlab.rd.radial_convolve" in before


def test_spans_are_parent_linked_and_self_times_add_up(tracer, tmp_path):
    tracer.job = "0.0"
    code = rdlab.cli.run_command(["ratio", "--group", "Z^2", "--range", "1:3",
                                  "--method", "trace", "--depth", "2",
                                  "--out", str(tmp_path / "r.csv")])
    assert code == 0
    spans = tracer.spans
    root = spans[0]
    assert root["name"] == "cli.run_command" and root["parent"] is None
    for span in spans[1:]:
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        assert span["job"] == "0.0"
    assert math.isclose(sum(s["self"] for s in spans),
                        root["end"] - root["start"], rel_tol=1e-9)
    totals = tracer.totals()
    assert totals["groups.enumerate_balls"]["calls"] == 1
    assert totals["algebra.convolve"]["updates"] > 0
    assert totals["norms.op_norm_trace_power"]["steps_requested"] == 3 * 3


def test_lemma1_check_wants_exact_zero_slack():
    workloads.lemma1(json.dumps({"ok": True, "min_slack": 0}))
    for data in ({"ok": False, "min_slack": -128}, {"ok": True, "min_slack": 1},
                 {"ok": True, "min_slack": -1}):
        with pytest.raises(workloads.CheckError):
            workloads.lemma1(json.dumps(data))


def test_seeded_element_depends_only_on_the_seed():
    a = workloads.scattered_z2_element(7)
    assert a == workloads.scattered_z2_element(7)
    assert a != workloads.scattered_z2_element(8)
    points = [tuple(map(int, k.split(","))) for k, _ in a["coeffs"]]
    assert len(set(points)) == 30
    assert all(abs(x) + abs(y) <= 5 for x, y in points)
    assert all(0.1 <= abs(c) <= 1.0 for _, c in a["coeffs"])


def test_closed_forms_match_enumeration():
    from rdlab.groups import enumerate_balls, parse_descriptor
    index = enumerate_balls(parse_descriptor("Z^1xF2"), 5)
    assert index.sphere_sizes == workloads.z_times_f2_spheres(5)
    index = enumerate_balls(parse_descriptor("Z^3"), 6)
    assert index.size() == workloads.free_abelian_ball(3, 6)
    index = enumerate_balls(parse_descriptor("H3"), 8)
    assert index.sphere_sizes == workloads.H3_SPHERES[:9]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
