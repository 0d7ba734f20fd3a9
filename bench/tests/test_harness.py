"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests
"""

import json
import subprocess
import sys
import types

import pytest

import run
import tracer
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        ["cli.diffuse", 0.0, 10.0, -1],
        ["sde.integrate", 1.0, 4.0, 0],
        ["sde.step", 2.0, 3.0, 1],
        ["noise.save_samples", 5.0, 9.0, 0],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["a.x", 0.0, 10.0, -1], ["b.y", 1.0, 4.0, 0], ["b.z", 3.0, 6.0, 0]]
    assert tracer.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_self_times_account_for_run_time():
    spans = [
        ["cli.diffuse", 0.0, 10.0, -1],
        ["sde.integrate", 1.0, 8.0, 0],
        ["sde.step", 2.0, 6.0, 1],
        ["sde.score", 3.0, 5.0, 2],
        ["cli.sliced_w", 10.0, 12.0, -1],
        ["metrics.sliced_wasserstein", 10.5, 11.5, 4],
    ]
    m = tracer.layer_metrics(spans, {"sde.path_steps": 7}, run_s=12.5)
    assert m["sde.step_s"] == pytest.approx(2.0)
    assert m["sde.score_s"] == pytest.approx(2.0)
    assert m["sde.integrate_self_s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["cli.diffuse_s"] == pytest.approx(10.0)
    assert m["sde.path_steps"] == 7
    layers = sum(m[f"{mod}.self_s"] for mod in tracer.MODULES) + m["cli.self_s"]
    assert layers == pytest.approx(12.0)
    assert m["trace.unaccounted_s"] == pytest.approx(0.5)


def test_time_metrics_count_nested_calls_once():
    spans = [
        ["transform.q_norm_sq", 0.0, 2.0, -1],
        ["transform.q_inner", 0.5, 1.5, 0],
        ["transform.analysis", 3.0, 4.0, -1],
    ]
    m = tracer.layer_metrics(spans, {}, run_s=4.0)
    assert m["transform.apply_s"] == pytest.approx(3.0)
    assert m["transform.apply_calls"] == 3


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------

def test_tail_percentile_needs_eleven_samples():
    assert run.tail_percentile(range(10)) is None
    assert run.tail_percentile(range(11)) == (pytest.approx(100 / 11), 0)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(range(1, 21)) == (50.0, 10)
    assert run.tail_percentile(range(1, 101)) == (90.0, 90)


def test_tail_percentile_steps_below_ties():
    samples = [1.0] * 5 + [2.0] * 15
    assert run.tail_percentile(samples) == (25.0, 1.0)


# ---------------------------------------------------------------------------
# names against BENCHMARK.json
# ---------------------------------------------------------------------------

def _record(workload, commands, run_s):
    files = {"out.csv": "same", "out.csv.json": "same"}
    return {"rcs": [0] * len(commands), "seconds": [run_s / len(commands)] * len(commands),
            "run_s": run_s, "peak_rss_mb": 50.0, "failures": [[] for _ in commands],
            "hashes": files, "summary": {}}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metric_names_match(name):
    workload = WORKLOADS[name]
    _, commands = workload.generate(0)
    timed = [_record(workload, commands, 2.0), _record(workload, commands, 2.2)]
    metrics, report = run.end_to_end(workload, [0.3, 0.2, 0.25],
                                     _record(workload, commands, 2.5), timed)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v in metrics.values())
    assert report["nondeterministic_files"] == 0


def test_per_layer_metric_names_match():
    assert list(tracer.LAYER_METRICS) == [m["name"] for m in SPEC["per_layer"]]
    produced = set(tracer.layer_metrics([], {}, run_s=0.0)) | {"trace.overhead_s"}
    assert produced == set(tracer.LAYER_METRICS)


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# ---------------------------------------------------------------------------
# tracer robustness
# ---------------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_the_returned_closures():
    import numpy as np
    from spherediff import chart, lossmap, noise, sde

    original = chart.from_chart
    t = tracer.Tracer()
    t.install(tracer.package_modules())
    try:
        assert chart.from_chart is not original
        assert noise.from_chart is chart.from_chart is lossmap.from_chart
        assert t.absent == []
        schedule = sde.VpSchedule(steps=3)
        mu, S = np.zeros(4), np.eye(4)
        score = sde.gaussian_chart_score(mu, S, np.eye(4), schedule)
        stepper = sde.frequency_reverse_stepper(schedule, np.eye(4), np.eye(4), score)
        state = sde.DiffusionState(time=1.0, values=np.zeros((5, 4)), domain="chart")
        sde.integrate(state, schedule, "reverse", stepper, 0)
    finally:
        t.uninstall()
    assert chart.from_chart is original and noise.from_chart is original
    names = [s[0] for s in t.spans]
    assert names.count("sde.step") == 3 and names.count("sde.score") == 3
    assert t.counters["sde.path_steps"] == 15
    step = names.index("sde.step")
    assert t.spans[step][3] == names.index("sde.integrate")


def test_missing_functions_are_reported_absent():
    fake = types.ModuleType("fakepkg.sde")
    fake.__file__ = "fakepkg/sde.py"
    exec("def integrate(state, schedule, direction, stepper, seed):\n    return state",
         fake.__dict__)
    t = tracer.Tracer()
    t.install([fake])
    assert "sde.spatial_forward_stepper" in t.absent
    assert "sde.integrate" not in t.absent
    assert fake.integrate(1, 2, 3, 4, 5) == 1
    assert t.hook_errors  # the counting hook could not read `state.values`


@pytest.mark.parametrize("trace", [False, True])
def test_worker_imports_the_tracer_only_when_tracing(tmp_path, trace):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"commands": [["verify-operators", "--L", "2"]],
                                "trace": trace}))
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(run.BENCH / "worker.py"), "iteration", str(plan),
                    str(result)], env=run._env(1), cwd=tmp_path, check=True, timeout=120)
    res = json.loads(result.read_text())
    assert res["rcs"] == [0]
    assert res["tracer_loaded"] is trace
    assert ("spans" in res) is trace
