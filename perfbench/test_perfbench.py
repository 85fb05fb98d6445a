"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json

from checkout import import_stableshot

import_stableshot()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stableshot import _backend, harness  # noqa: E402
from stableshot.rng import RngStream  # noqa: E402


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("k", 2.0, 3.0, parent=1),
        _span("a", 5.0, 6.0, parent=0),
        _span("k", 5.5, 5.75, parent=3),
    ]
    table = tracing.layer_table(spans)
    assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert table["a"] == {"calls": 2, "total_s": 4.0, "self_s": 2.75}
    assert table["k"] == {"calls": 2, "total_s": 1.25, "self_s": 1.25}
    assert sum(row["self_s"] for row in table.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 4.0), _span("c", 1.0, 3.0, 0), _span("c", 2.0, 5.0, 0)]
    assert tracing.layer_table(spans)["p"]["self_s"] == 1.0


def test_tracer_records_nesting_and_counts():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scenario = workloads.build("replicate-fanout", 3)[0][0]
        calE, *_ = harness.response_curve(scenario, harness.make_functional("identity"))
        calE([0.0, 1.0])
        cfg = scenario.config(horizon=50.0, rng=RngStream(3))
        tracer.call("outer", harness.build_path, harness.simulate_sessions(cfg), 0.0, 50.0)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == [
        "harness.response_curve", "harness.calE", "traffic.simulate_sessions",
        "outer", "traffic.build_path", "kernels.compensated_cumsum",
    ]
    assert [s.parent for s in tracer.spans] == [None, None, None, None, 3, 4]
    assert [s.run_id for s in tracer.spans] == [1, 2, 3, 4, 4, 4]
    assert tracer.counts["harness.calE.points"] == 2
    assert tracer.counts["traffic.events"] > 0
    assert tracer.counts["kernels.compensated_cumsum.elements"] == tracer.counts["traffic.events"]


def _lookups():
    return {(id(owner), attr): getattr(owner, attr) for owner, attr, _, _ in tracing.LAYERS}


def test_uninstall_restores_every_original():
    before = _lookups()
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = _lookups()
    assert all(wrapped[k] is not before[k] for k in before)
    tracer.uninstall()
    assert _lookups() == before
    scenario = workloads.build("replicate-fanout", 3)[0][0]
    calE, *_ = harness.response_curve(scenario, harness.make_functional("identity"))
    calE([0.0])
    assert tracer.spans == []


def test_workloads_are_deterministic_in_the_seed():
    for name, (_, parts) in workloads.WORKLOADS.items():
        a, wa = workloads.build(name, 5)
        b, wb = workloads.build(name, 5)
        c, _ = workloads.build(name, 6)
        assert a == b and wa == wb
        for fields, sa, sc in zip(parts, a, c):
            assert (sa.seed, sc.seed) == ((fields["seed"],) * 2 if "seed" in fields else (5, 6))
            assert sa.to_dict() | {"seed": sc.seed} == sc.to_dict()
            harness.validate(sa)


def test_check_runs_counts_mismatches():
    reference = {
        "workloads": {
            "w": {"names": ["w/x", "w/m1_diagnostic", "w/stable_limit/id/centering"], "seeds": {"1": {
                "w/x": [0.5, 0.1, 10, False], "w/m1_diagnostic": [0.0, 1e-9, 50, True],
                "w/stable_limit/id/centering": [0.25, 0.0],
            }}}
        }
    }
    good = {
        "w/x": [0.5, 0.1, 10, False], "w/m1_diagnostic": [0.0, 1e-9, 50, True],
        "w/stable_limit/id/centering": [0.25 * (1 + 1e-8), 0.0],
    }
    assert workloads.check_runs("w", 1, [good, dict(good)], reference)["failed"] == 0
    shifted = dict(good, **{"w/x": [0.6, 0.1, 10, False]})
    out = workloads.check_runs("w", 1, [shifted], reference)
    assert (out["attempted"], out["failed"]) == (3, 1)
    biased = dict(good, **{"w/stable_limit/id/centering": [0.25 * (1 + 1e-4), 0.0]})
    assert workloads.check_runs("w", 1, [biased], reference)["failed"] == 1
    missing = {"w/x": good["w/x"]}
    assert workloads.check_runs("w", 1, [good, missing], reference)["failed"] == 2
    broken_m1 = dict(good, **{"w/m1_diagnostic": [0.1, 1e-9, 50, False]})
    assert workloads.check_runs("w", 7, [broken_m1], reference)["failed"] == 1


def test_m1_brackets_catch_a_wrong_frechet_dp(monkeypatch):
    # the diagnostic's GoF reads the same for any DP value; the brackets do not
    reference = workloads.load_reference()
    assert workloads.check_m1(workloads.m1_brackets(pairs=2), reference) == []
    monkeypatch.setattr(_backend.kernels, "frechet_minimax", lambda p, q: 0.0)
    assert len(workloads.check_m1(workloads.m1_brackets(pairs=2), reference)) == 2
    out = workloads.check_runs("mc-kernels", 99, [{}], reference, workloads.m1_brackets(pairs=2))
    assert out["attempted"] == len(reference["workloads"]["mc-kernels"]["names"]) + 2


def test_traced_run_reports_the_listed_metrics_and_records_values():
    scenario = dataclasses.replace(
        workloads.build("replicate-fanout", 2)[0][0],
        functionals=("identity",), T_ladder=(100.0,), replicates=4,
    )
    tracer, traced = run.traced_run(harness, [scenario])
    metrics, _ = run.per_layer_metrics(tracer, scenario, [{"pool_utilization": 0.5}], 1.0)
    assert set(metrics) == set(run.metric_units(1))
    key = "replicate-fanout/stable_limit/identity"
    assert len(traced["values"][f"{key}/limit"]) == 7
    assert traced["values"][f"{key}/z/T=100"][0] == 4
    assert traced["values"] == workloads.run_parts(harness.run, [scenario], 1)[0]


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads(run.BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.metric_units(0)) == ["setup_s", "run_s", "peak_rss_mb"]


def test_compare_refuses_different_backends(tmp_path):
    import compare

    def results(backend, run_s):
        env = {"workload": "cycle-bank", "seed": 1, "trace": 0, "backend": backend, "scenarios": []}
        metrics = {n: {"value": v} for n, v in (("setup_s", 1.0), ("run_s", run_s), ("peak_rss_mb", 9.0))}
        path = tmp_path / f"{backend}-{run_s}.jsonl"
        path.write_text(json.dumps({"env": env, "metrics": metrics, "failed_frac": 0.0}) + "\n")
        return str(path)

    assert compare.main([results("python", 4.0), results("cython", 1.0)]) == 2
    assert compare.main([results("python", 4.0), results("python", 4.2)]) == 0
    assert compare.main([results("python", 4.0), results("python", 6.0)]) == 1
