"""Scenario plumbing, determinism, report emission, and the CLI."""

import contextlib
import importlib.util
import io
import math
import os
import tempfile
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from stableshot import (
    RngStream,
    Scenario,
    build_path,
    builtin_scenarios,
    cli,
    emit,
    empirical_cdf,
    harness,
    iqr,
    run,
    simulate_sessions,
    tail_quantile_a,
    traffic,
)
from stableshot.cli import main
from stableshot.cycles import cycle_tail_table
from stableshot.functionals import WindowFunctional, functional_steps, sorted_response
from stableshot.harness import _z_matrix, make_functional, response_curve, validate
from stableshot.heavy_rand import StableParams, TailDist
from stableshot.stats import ks_threshold
from stableshot.traffic import Sessions, TrafficConfig, stationary_window_draws

from oracles import prefix_integral


def tiny_scenario(**overrides):
    base = dict(
        name="tiny",
        analyses=("stable_limit",),
        T_ladder=(200.0,),
        replicates=30,
        seed=42,
    )
    base.update(overrides)
    return Scenario(**base)


# unit rates give exact response curves; uniform rates with a window give
# Monte Carlo ones and a window-sup functional
_FAMILIES = {
    "exact": dict(functionals=("identity", "idle", "cdf:1")),
    "monte_carlo": dict(
        functionals=("winsup:3", "clipped:2", "identity"),
        w_kind="uniform", w_params=(0.1, 1.0), window_h=1.0,
    ),
}


def _family(kind):
    return tiny_scenario(T_ladder=(200.0, 400.0), replicates=20, **_FAMILIES[kind])


# the three analyses that read the run's one z stage; cdf:1 in functionals
# and 1.0 in x_grid build one cdf_le_1 from two spec strings
_Z_ANALYSES = ("stable_limit", "self_similarity", "cdf_rate")


def _z_scenario(**overrides):
    base = dict(analyses=_Z_ANALYSES, functionals=("identity", "cdf:1"),
                T_ladder=(200.0, 400.0, 800.0), replicates=20, x_grid=(1.0, 2.5))
    base.update(overrides)
    return tiny_scenario(**base)


def _assert_same(a, b):
    """a and b hold equal values, every array equal byte for byte."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


def _cdf_scenario():
    return tiny_scenario(
        analyses=("cdf_rate",), T_ladder=(200.0, 400.0, 800.0), replicates=20,
        x_grid=(1.0, 2.5),
    )


def _text_from_block(report):
    # to_text from the first block on: the scenario echo above it lists
    # the functionals
    text = report.to_text()
    return text[text.index("[stable_limit]"):].splitlines()


class TestScenario:
    def test_yaml_round_trip(self, tmp_path):
        sc = tiny_scenario()
        f = tmp_path / "s.yaml"
        sc.to_yaml(f)
        assert Scenario.from_yaml(f) == sc

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            Scenario.from_dict({"name": "x", "bogus": 1})

    @pytest.mark.parametrize(
        "doc",
        [None, [1, 2], "text", {"replicates": "abc"}, {"replicates": True},
         {"lam": "fast"}, {"T_ladder": 1000.0}, {"functionals": [1]},
         {"stationary_init": "yes"}, {"name": 3}],
    )
    def test_wrongly_typed_document_rejected(self, doc):
        with pytest.raises(ValueError):
            Scenario.from_dict(doc)

    def test_yaml_numbers_without_a_dot(self):
        # YAML 1.1 reads 1e3 as a string
        sc = Scenario.from_dict({"lam": "1e-1", "T_ladder": ["1e3", 1e4], "replicates": 5})
        assert sc.lam == 0.1 and sc.T_ladder == (1e3, 1e4) and sc.replicates == 5

    @pytest.mark.parametrize("key", ["lam", "alpha", "xm"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_validate_rejects_nonpositive_or_nonfinite(self, key, value):
        with pytest.raises(ValueError, match=key):
            validate(tiny_scenario(**{key: value}))

    def test_validate_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            validate(tiny_scenario(alpha=2.5))

    def test_validate_rejects_unsorted_ladder(self):
        with pytest.raises(ValueError):
            validate(tiny_scenario(T_ladder=(1e4, 1e3)))

    def test_validate_rejects_unknown_analysis(self):
        with pytest.raises(ValueError):
            validate(tiny_scenario(analyses=("nope",)))

    def test_validate_rejects_duplicate_functionals(self):
        with pytest.raises(ValueError):
            validate(tiny_scenario(functionals=("identity", "identity")))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(window_h=-1.0), "window_h"),
            (dict(window_h=math.inf), "window_h"),
            (dict(x_grid=(2.0, 1.0)), "x_grid"),
            (dict(x_grid=(1.0, 1.0)), "x_grid"),
            (dict(x_grid=(), analyses=("cdf_rate",)), "x_grid"),
            (dict(w_kind="uniform", w_params=(1.0, 0.1)), "uniform"),
            (dict(w_kind="exponential", w_params=(0.0,)), "exponential"),
            (dict(n_cycles=0), "n_cycles"),
            (dict(hill_k=0, n_cycles=100, analyses=("hill",)), "hill_k"),
            (dict(hill_k=100, n_cycles=100, analyses=("hill",)), "hill_k"),
            (dict(functionals=()), "functionals"),
            (dict(functionals=(), analyses=("self_similarity",)), "functionals"),
            (dict(T_ladder=(1e3, 1e4), analyses=("cdf_rate",)), "3 horizons"),
            # |W|^alpha overflows in the limit law, and w0 * k in the exact curve
            (dict(w_params=(1e300,)), "w_params must not exceed 1e\\+100"),
            (dict(w_params=(1e308,)), "w_params must not exceed 1e\\+100"),
            (dict(functionals=("cdf:1", "cdf:1.0")), "cdf_le_1"),
            (dict(functionals=("identity", "clipped:2", "clipped:2.0")), "clipped_2"),
            (dict(functionals=("winsup:3", "winsup:3.0"), window_h=1.0), "sup_le_3_h1"),
            (dict(T_ladder=(1e3, math.inf)), "T_ladder"),
            (dict(T_ladder=(math.nan,)), "T_ladder"),
            (dict(x_grid=(1.0, math.inf)), "x_grid"),
            (dict(x_grid=(math.nan,)), "x_grid"),
            (dict(tail_x=(0.0, 1.0), analyses=("cycle_tail",)), "tail_x"),
            (dict(tail_x=(1.0, math.inf), analyses=("cycle_tail",)), "tail_x"),
            (dict(tail_x=(math.nan,), analyses=("cycle_tail",)), "tail_x"),
            (dict(tail_t=1.0, analyses=("cycle_tail",)), "tail_t"),
            (dict(tail_t=math.inf, analyses=("cycle_tail",)), "tail_t"),
            (dict(tail_t=math.nan, analyses=("cycle_tail",)), "tail_t"),
            (dict(functionals=("cdf:nan",)), "cdf:nan"),
            (dict(functionals=("clipped:nan",)), "clipped:nan"),
            (dict(functionals=("winsup:inf",), window_h=1.0), "winsup:inf"),
            (dict(seed=-1), "seed"),
            (dict(workers=0), "workers"),
            (dict(workers=-2), "workers"),
            (dict(replicates=3), "replicates"),
            (dict(w_params=(1.0, 2.0)), "w_params of w_kind 'constant'"),
            (dict(w_params=()), "w_params of w_kind 'constant'"),
            (dict(w_kind="uniform", w_params=(0.5,)), "w_params of w_kind 'uniform'"),
            (dict(functionals=("identity:3",)), "identity:3"),
            (dict(functionals=("idle:5",)), "idle:5"),
            (dict(analyses=("self_similarity",)), "T_ladder"),
            (dict(functionals=("clipped",)), "'clipped' needs a finite number"),
            (dict(functionals=("cdf:",)), "'cdf:' needs a finite number"),
            (dict(functionals=("winsup:x",), window_h=1.0), "'winsup:x' needs a finite number"),
            (dict(T_ladder=(200.0, 400.0), replicates=5, analyses=("self_similarity",)),
             "replicates"),
            (dict(T_ladder=(200.0, 400.0, 800.0), replicates=1, analyses=("cdf_rate",)),
             "replicates"),
            (dict(analyses=("stable_limit", "m1_diagnostic", "stable_limit")), "must not repeat"),
            (dict(lam=3.1, analyses=("hill",)), "load lambda\\*E\\[Y\\] = 9.3 "),
            (dict(T_ladder=(1e2, 1e3, 1e4), x_grid=(-0.5, 1.0), analyses=("cdf_rate",)),
             "x_grid must be nonnegative"),
            (dict(T_ladder=(1e2, 1e3, 1e4), x_grid=(-1.0,), analyses=("cdf_rate",)),
             "x_grid must be nonnegative"),
            # a non-finite number fails the field's type, before any rule reads it
            (dict(w_params=(math.inf,)), "w_params' must be a list of finite numbers"),
            (dict(w_params=(math.nan,)), "w_params' must be a list of finite numbers"),
            (dict(T_ladder=()), "stable_limit needs at least 1 horizon in T_ladder"),
            # 2e4 chunks of about 5e4 cycles: the cap of 1e4 chunks would
            # be reached holding 5e8 lengths, 4 GB
            (dict(n_cycles=10**9, analyses=("cycle_mean",)),
             "n_cycles = 1000000000 needs about 2e\\+04 fresh-start chunks for \\['cycle_mean'\\]"),
            (dict(functionals=("cdf:1", "winsup:1")),
             "both build cdf_le_1; functionals must not repeat"),
            # each replicate path would draw about 1e11 sessions; the second
            # passes the cap only through its 2 * window_h of extra arrivals
            (dict(lam=1e7, T_ladder=(1e4,), replicates=5), "= 1.0003e\\+11 exceed 1.5e\\+07"),
            (dict(lam=1e3, T_ladder=(1e4,), window_h=3e3, functionals=("winsup:1",)),
             "= 1.6003e\\+07 exceed 1.5e\\+07 for \\['stable_limit'\\]"),
            # a Scenario is typed where it is built, not only from a document
            (dict(analyses="stable_limit"), "'analyses' must be a list of strings"),
            (dict(replicates=250.0), "'replicates' must be an integer, got 250.0"),
            (dict(seed=1.5), "'seed' must be an integer, got 1.5"),
            # each path fits, but a Monte Carlo response curve would hold
            # 1e5 windows' sessions at once: 3e8 here, about 15 GB
            (dict(lam=1e3, w_kind="uniform", w_params=(0.1, 1.0), T_ladder=(1e4,),
                  functionals=("clipped:2",)),
             "curve of 'clipped:2' holds 100000\\*lambda\\*\\(E\\[Y\\] \\+ h\\) = 3e\\+08 "
             "expected sessions at once, over 1.5e\\+07"),
            (dict(functionals=("winsup:3",), window_h=200.0), "= 2.03e\\+07 expected sessions"),
            # adjacent horizons whose u = T / T_top is one float: two
            # self_similarity GoFs of one u, also past the first pair
            (dict(T_ladder=(1000.0, 1000.0000000000001, 1e4), analyses=("self_similarity",)),
             "entries 1000.0 and 1000.0000000000001 both give u = T/T_top = 0\\.1: "
             "self_similarity needs distinct u"),
            (dict(T_ladder=(500.0, 1000.0, 1000.0000000000001, 1e4), analyses=("self_similarity",)),
             "both give u = T/T_top = 0\\.1"),
            # the cycles would be banked for a table of no cells, which fails
            (dict(tail_x=(), analyses=("cycle_tail",)), "tail_x must not be empty for cycle_tail"),
            # -0.0 reads as 0.0, so both specs build one cdf_le_0
            (dict(functionals=("cdf:0", "cdf:-0.0")),
             "'cdf:0' and 'cdf:-0.0' both build cdf_le_0; functionals must not repeat"),
            # 9,800 chunks, under MAX_CHUNKS, would bank 4.9e8 lengths: 3.9 GB,
            # and np.concatenate copies them
            (dict(n_cycles=490_000_000, analyses=("cycle_mean",)),
             "n_cycles = 490000000 exceeds 15000000 for \\['cycle_mean'\\]"),
            (dict(n_cycles=20_000_000, analyses=("cycle_tail", "hill")),
             "n_cycles = 20000000 exceeds 15000000 for \\['cycle_tail', 'hill'\\]"),
            # whatever the analyses read: a number is finite, an integer fits in 64 bits
            (dict(tail_t=math.inf), "'tail_t' must be a finite number, got inf"),
            (dict(tail_x=(1.0, math.nan)), "'tail_x' must be a list of finite numbers"),
            (dict(lam=10**400), "'lam' must be a finite number, got 1000"),
            (dict(replicates=10**400), "'replicates' must be an integer that fits in 64 bits"),
            (dict(seed=2**63), "'seed' must be an integer that fits in 64 bits"),
            (dict(seed=-(2**63) - 1), "'seed' must be an integer that fits in 64 bits"),
            # n_cycles mean cycles of 1e305 each are past a double: the
            # chunk count is inf / inf
            (dict(lam=1e-305, analyses=("cycle_mean",)),
             "lam = 1e-305 makes n_cycles = 10000 times the mean cycle e\\^\\(lambda\\*E\\[Y\\]\\)/lambda "
             "past a double for \\['cycle_mean'\\]"),
            (dict(n_cycles=1, analyses=("cycle_mean",)),
             "cycle_mean needs n_cycles >= 2 for a standard error, got 1"),
        ],
    )
    def test_validate_rejects_values_that_fail_at_run_time(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            validate(tiny_scenario(**overrides))

    def test_validate_checks_only_what_runs(self):
        # hill_k and an empty functionals list matter only to the analyses
        # that read them
        validate(tiny_scenario(hill_k=0, functionals=(), analyses=("cycle_mean",)))
        validate(tiny_scenario(x_grid=(), analyses=("stable_limit",)))
        validate(tiny_scenario(T_ladder=(1e3, 1e4), w_params=(2.0,), analyses=("stable_limit",)))
        # a load past the cycle banking's bound matters only to the cycle analyses
        validate(tiny_scenario(lam=3.1, analyses=("stable_limit", "m1_diagnostic")))
        validate(tiny_scenario(lam=3.0, analyses=("cycle_mean", "cycle_tail", "hill")))
        # and a path too large to hold matters only to the z analyses
        validate(tiny_scenario(lam=1e7, T_ladder=(1e4,), analyses=("m1_diagnostic",)))
        # and so many Monte Carlo draws only to a curve without a closed form
        validate(tiny_scenario(lam=1e3, T_ladder=(1e4,), functionals=("cdf:1",)))
        # and a cycle bank too large to hold only to the cycle analyses
        validate(tiny_scenario(n_cycles=490_000_000, analyses=("stable_limit", "m1_diagnostic")))
        # and a single cycle only to cycle_mean's standard error
        validate(tiny_scenario(n_cycles=1, analyses=("cycle_tail",)))

    def test_validate_accepts_the_fewest_replicates_that_can_fail(self):
        validate(tiny_scenario(replicates=4))
        validate(tiny_scenario(T_ladder=(200.0, 400.0), replicates=6, analyses=("self_similarity",)))
        validate(tiny_scenario(T_ladder=(200.0, 400.0, 800.0), replicates=2, analyses=("cdf_rate",)))

    def test_validate_notes(self):
        notes = validate(tiny_scenario())
        assert any("E[Y]" in n for n in notes)

    def test_make_functional(self):
        # the parser holds the naming rules; results blocks, Monte Carlo
        # substreams and benchmark records are keyed by these names
        for args, want in [
            (("identity",), ("identity", 0.0, ("id", None))),
            (("idle",), ("idle", 0.0, ("le", 0.0))),
            (("clipped:2.5",), ("clipped_2.5", 0.0, ("min", 2.5))),
            (("cdf:1",), ("cdf_le_1", 0.0, ("le", 1.0))),
            (("winsup:3", 0.0), ("cdf_le_3", 0.0, ("le", 3.0))),
            (("winsup:3", 1.0), ("sup_le_3_h1", 1.0, ("le", 3.0))),
            (("winsup:3.5", 0.25), ("sup_le_3.5_h0.25", 0.25, ("le", 3.5))),
            # a number that :g would round is named by its repr
            (("cdf:1.0000001",), ("cdf_le_1.0000001", 0.0, ("le", 1.0000001))),
            (("winsup:3", 1 / 3), ("sup_le_3_h0.3333333333333333", 1 / 3, ("le", 3.0))),
            # -0.0 builds the functional, and the name, of 0
            (("cdf:-0.0",), ("cdf_le_0", 0.0, ("le", 0.0))),
            (("winsup:-0", 1.0), ("sup_le_0_h1", 1.0, ("le", 0.0))),
        ]:
            phi = make_functional(*args)
            assert (phi.name, phi.h, phi.form) == want
            assert type(phi.h) is float and type(phi.form[1]) in (float, type(None))
        # one functional, so one response curve and one z row
        zero, negative_zero = make_functional("cdf:0"), make_functional("cdf:-0.0")
        assert zero == negative_zero and math.copysign(1.0, negative_zero.form[1]) == 1.0
        for spec, message in [
            ("idle:1", "'idle:1' takes no number"),
            ("cdf:nan", "'cdf:nan' needs a finite number"),
            ("mystery:1", "unknown functional spec 'mystery:1'"),
        ]:
            with pytest.raises(ValueError, match=message):
                make_functional(spec)

    def test_num_names_each_number_exactly(self):
        # :g where it reads back exactly, so every number the benchmark and
        # the built-in scenarios use keeps its name; repr otherwise
        for x, want in [(1e3, "1000"), (1e6, "1e+06"), (0.25, "0.25"), (1.0, "1"),
                        (1 / 3, "0.3333333333333333"), (1.0000001, "1.0000001"),
                        (123456789.0, "123456789.0")]:
            assert harness._num(x) == want and float(harness._num(x)) == x


class TestRun:
    def test_empty_analyses(self):
        rep = run(tiny_scenario(analyses=()))
        assert rep.blocks == {}
        assert rep.all_passed

    @pytest.mark.parametrize(
        "text, names",
        [
            ("analyses: [cdf_rate]\nT_ladder: [200.0, 400.0, 800.0]\nx_grid: [1.0, 1.0000001]\n",
             ["s/cdf_rate/x=1", "s/cdf_rate/x=1.0000001"]),
            ("functionals: ['cdf:1', 'cdf:1.0000001']\n",
             ["s/stable_limit/cdf_le_1/T=200", "s/stable_limit/cdf_le_1.0000001/T=200"]),
            ("T_ladder: [1000.0, 1000.0001]\n",
             ["s/stable_limit/identity/T=1000", "s/stable_limit/identity/T=1000.0001"]),
            ("analyses: [self_similarity]\nT_ladder: [9000.01, 9000.02, 90000.0]\n",
             ["s/self_similarity/identity/u=0.10000011111111111",
              "s/self_similarity/identity/u=0.10000022222222223"]),
            # -0.0 is the number 0, named as 0
            ("analyses: [cdf_rate]\nT_ladder: [200.0, 400.0, 800.0]\nx_grid: [-0.0, 1.0]\n",
             ["s/cdf_rate/x=0", "s/cdf_rate/x=1"]),
        ],
    )
    def test_numbers_that_print_alike_get_distinct_names(self, tmp_path, capsys, text, names):
        # numbers equal to 6 digits name their own GoFs, blocks and files
        cfg = tmp_path / "s.yaml"
        cfg.write_text("name: s\nT_ladder: [200.0]\nreplicates: 8\nseed: 5\n" + text)
        assert main(["validate", "--scenario", str(cfg)]) == 0
        rep = run(Scenario.from_yaml(cfg))
        assert not any("error" in block for block in rep.blocks.values())
        assert [g.name for g in rep.gofs()] == names
        files = [Path(f).name for f in emit(rep, tmp_path / "out")]
        assert len(set(files)) == len(files)
        csv_names = [line.split(",")[0] for line in (tmp_path / "out" / "gof.csv").open()]
        assert csv_names[1:] == names

    def test_deterministic_body(self):
        sc = tiny_scenario()
        a, b = run(sc), run(sc)
        assert a.to_text() == b.to_text()
        za = a.blocks["stable_limit"]["identity"]["samples"][200.0]
        zb = b.blocks["stable_limit"]["identity"]["samples"][200.0]
        assert np.array_equal(za, zb)

    def test_worker_count_does_not_change_results(self):
        for sc in (tiny_scenario(), _family("exact"), _family("monte_carlo")):
            a = run(sc, workers=1)
            b = run(sc, workers=2)
            assert a.to_text() == b.to_text()
            for name, sub in a.blocks["stable_limit"].items():
                for T, z in sub["samples"].items():
                    assert b.blocks["stable_limit"][name]["samples"][T].tobytes() == z.tobytes()
        a, b = run(_cdf_scenario(), workers=1), run(_cdf_scenario(), workers=2)
        assert a.to_text() == b.to_text()
        for x, sub in a.blocks["cdf_rate"]["per_x"].items():
            assert b.blocks["cdf_rate"]["per_x"][x]["d_sample"].tobytes() == sub["d_sample"].tobytes()

    def test_run_rejects_a_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            run(tiny_scenario(analyses=()), workers=0)

    @pytest.mark.parametrize("workers", [2.0, True])
    def test_run_rejects_a_worker_override_of_the_wrong_type(self, monkeypatch, workers):
        # the override is typed as the Scenario field is, before the z stage
        # could record the error in every z block or run True as 1
        staged = []
        monkeypatch.setattr(harness, "_z_stage", lambda *args: staged.append(args))
        with pytest.raises(ValueError, match="'workers' must be an integer"):
            run(tiny_scenario(), workers=workers)
        assert staged == []

    def test_analysis_error_is_contained(self, monkeypatch):
        # an analysis that raises: the error lands in its block only
        def boom(scenario):
            raise RuntimeError("boom")

        monkeypatch.setitem(harness.ANALYSES, "hill", (boom, None, 0, 0))
        sc = tiny_scenario(analyses=("hill", "m1_diagnostic"))
        rep = run(sc)
        assert rep.blocks["hill"] == {"error": "RuntimeError: boom"}
        assert "error" not in rep.blocks["m1_diagnostic"]
        # no GoF failed, but an analysis that errored fails the report
        assert all(g.passed for g in rep.gofs())
        assert not rep.all_passed
        assert "overall: FAIL" in rep.to_text()

    def test_gof_collection(self):
        rep = run(tiny_scenario(analyses=("m1_diagnostic",)))
        gofs = rep.gofs()
        assert len(gofs) == 1
        assert "m1_diagnostic" in gofs[0].name


class TestOnePathPerReplicate:
    @pytest.mark.parametrize("kind", sorted(_FAMILIES))
    def test_functionals_together_match_one_at_a_time(self, kind):
        sc = _family(kind)
        together = run(sc)
        alone = [run(replace(sc, functionals=(spec,))) for spec in sc.functionals]
        block = together.blocks["stable_limit"]
        assert len(block) == 3
        for single in alone:
            ((name, sub),) = single.blocks["stable_limit"].items()
            got = block[name]
            assert got["limit"] == sub["limit"]
            assert (got["centering"], got["centering_se"]) == (sub["centering"], sub["centering_se"])
            assert list(got["samples"]) == list(sub["samples"]) == list(sc.T_ladder)
            for T, z in sub["samples"].items():
                assert got["samples"][T].tobytes() == z.tobytes()
        assert list(block) == [next(iter(r.blocks["stable_limit"])) for r in alone]
        assert together.gofs() == [g for r in alone for g in r.gofs()]
        lines = [_text_from_block(r) for r in alone]
        verdict = "PASS" if all(r.all_passed for r in alone) else "FAIL"
        assert _text_from_block(together) == (
            ["[stable_limit]"] + [ln for r in lines for ln in r[1:-1]] + [f"overall: {verdict}"]
        )

    def test_one_simulation_per_replicate_and_horizon(self, monkeypatch):
        # one z stage serves all three z analyses
        horizons, curves, stages = [], [], []
        simulate, curve, z_matrix = harness.simulate_sessions, harness.response_curve, _z_matrix

        def counted_simulate(config, ws=None):
            horizons.append(config.horizon)
            return simulate(config, ws)

        def counted_curve(scenario, phi, *args, **kwargs):
            curves.append(phi.name)
            return curve(scenario, phi, *args, **kwargs)

        def counted_z_matrix(*args):
            stages.append(tuple(phi.name for phi in args[1]))
            return z_matrix(*args)

        monkeypatch.setattr(harness, "simulate_sessions", counted_simulate)
        monkeypatch.setattr(harness, "response_curve", counted_curve)
        monkeypatch.setattr(harness, "_z_matrix", counted_z_matrix)
        sc = _z_scenario()
        report = run(sc, workers=1)
        assert not [name for name, block in report.blocks.items() if "error" in block]
        assert len(horizons) == len(sc.T_ladder) * sc.replicates
        assert sorted(set(horizons)) == list(sc.T_ladder)
        # one curve and one row per distinct functional: cdf:1 in functionals
        # and 1.0 in x_grid build the same cdf_le_1
        assert stages == [("identity", "cdf_le_1", "cdf_le_2.5")]
        assert curves == ["identity", "cdf_le_1", "cdf_le_2.5"]
        # cycle and M1 analyses simulate no replicate path and no z stage
        del horizons[:], curves[:], stages[:]
        run(tiny_scenario(analyses=("cycle_mean", "m1_diagnostic"), n_cycles=200), workers=1)
        assert horizons == curves == stages == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["exact", "monte_carlo"])
    def test_z_blocks_together_match_each_alone(self, kind, workers):
        # cdf_rate needs three horizons, so the two-rung Monte Carlo family
        # leaves it out
        if kind == "exact":
            sc = _z_scenario()
        else:
            sc = replace(_family("monte_carlo"), analyses=_Z_ANALYSES[:2])
        together = run(sc, workers=workers)
        assert list(together.blocks) == list(sc.analyses)
        for name in sc.analyses:
            alone = run(replace(sc, analyses=(name,)), workers=workers)
            assert "error" not in alone.blocks[name]
            _assert_same(together.blocks[name], alone.blocks[name])

    def test_z_stage_error_is_contained(self, monkeypatch):
        stages = []
        z_stage = harness._z_stage

        def counted_stage(*args):
            stages.append(args)
            return z_stage(*args)

        def boom(*args, **kwargs):
            raise RuntimeError("no curve")

        monkeypatch.setattr(harness, "_z_stage", counted_stage)
        monkeypatch.setattr(harness, "response_curve", boom)
        rep = run(_z_scenario(analyses=_Z_ANALYSES + ("m1_diagnostic",)))
        assert len(stages) == 1
        for name in _Z_ANALYSES:
            assert rep.blocks[name] == {"error": "RuntimeError: no curve"}
        assert rep.blocks["m1_diagnostic"]["gof"].passed
        assert not rep.all_passed

    def test_a_new_z_analysis_is_one_record(self, monkeypatch):
        # a toy that reads functionals[:1] and returns its row: validate
        # takes its name and horizon floor from the table, the run builds
        # one z stage for it and the three z analyses, and their blocks are
        # byte-identical to a run without it
        stages = []
        z_stage = harness._z_stage

        def counted_stage(*args):
            stages.append(args)
            return z_stage(*args)

        def toy(scenario, z_rows):
            return {"row": z_rows[scenario.functionals[0]]}

        sc = _z_scenario(T_ladder=(200.0, 400.0, 800.0, 1600.0))
        without = run(sc)
        monkeypatch.setitem(harness.ANALYSES, "toy", (toy, lambda s: s.functionals[:1], 4, 0))
        monkeypatch.setattr(harness, "_z_stage", counted_stage)
        with pytest.raises(ValueError, match="toy needs at least 4 horizons in T_ladder"):
            validate(replace(sc, T_ladder=sc.T_ladder[:3], analyses=("toy",)))
        with_toy = replace(sc, analyses=("toy",) + sc.analyses)
        validate(with_toy)
        rep = run(with_toy)
        assert len(stages) == 1
        assert list(rep.blocks) == ["toy", *sc.analyses]
        for name in sc.analyses:
            _assert_same(rep.blocks[name], without.blocks[name])
        # alone, the toy's stage holds just the spec it reads
        alone = run(replace(sc, analyses=("toy",)))
        samples = without.blocks["stable_limit"]["identity"]["samples"]
        for block in (rep.blocks["toy"], alone.blocks["toy"]):
            phi, *_, z = block["row"]
            assert phi.name == "identity"
            assert z.tobytes() == np.stack(list(samples.values())).tobytes()

    def test_an_analysis_that_reads_no_z_builds_no_stage(self, monkeypatch):
        stages = []
        monkeypatch.setattr(harness, "_z_stage", lambda *args: stages.append(args))
        monkeypatch.setitem(harness.ANALYSES, "toy", (lambda sc: {"n": sc.replicates}, None, 0, 0))
        rep = run(tiny_scenario(analyses=("toy", "m1_diagnostic")))
        assert stages == []
        assert rep.blocks["toy"] == {"n": 30} and rep.blocks["m1_diagnostic"]["gof"].passed

    @pytest.mark.parametrize(
        "analyses, order",
        [(("cycle_mean", "cdf_rate"), ["cycles", "z stage"]),
         (("cdf_rate", "cycle_mean"), ["z stage", "cycles"])],
    )
    def test_z_stage_is_built_when_the_first_z_analysis_runs(self, monkeypatch, analyses, order):
        # not before the loop, which would put it ahead of cycle banking
        # listed first: run's comment gives what that order costs
        calls = []
        collect, z_stage = harness.collect_cycle_lengths, harness._z_stage

        def counted_collect(*args):
            calls.append("cycles")
            return collect(*args)

        def counted_stage(*args):
            calls.append("z stage")
            return z_stage(*args)

        monkeypatch.setattr(harness, "collect_cycle_lengths", counted_collect)
        monkeypatch.setattr(harness, "_z_stage", counted_stage)
        rep = run(replace(_cdf_scenario(), analyses=analyses, n_cycles=200))
        assert not [name for name, block in rep.blocks.items() if "error" in block]
        assert calls == order

    @pytest.mark.parametrize("workers", [1, 2])
    def test_self_similarity_banks(self, workers, tmp_path):
        # the samples are the stable-limit z-matrix rows, one per rung, and
        # each lower rung is tested against the top one at u = T_k / T_top
        sc = tiny_scenario(analyses=("self_similarity",), T_ladder=(50.0, 100.0, 200.0),
                           replicates=15)
        report = run(sc, workers=workers)
        ss = report.blocks["self_similarity"]
        phi = make_functional("identity")
        z = _z_matrix(sc, (phi,), (response_curve(sc, phi)[1],), 1)[0]
        assert list(ss["samples"]) == list(sc.T_ladder)
        for z_T, got in zip(z, ss["samples"].values()):
            assert got.tobytes() == z_T.tobytes()
        assert [g.name for g in ss["gofs"]] == [
            "tiny/self_similarity/identity/u=0.25", "tiny/self_similarity/identity/u=0.5"
        ]
        assert [g.n for g in ss["gofs"]] == [15, 15]
        emit(report, tmp_path)
        rows = (tmp_path / "self_similarity.csv").read_text().splitlines()
        assert rows[0] == "replicate,z_T50,z_T100,z_T200" and len(rows) == 1 + sc.replicates


# flat functionals (shared segments) beside a window sup (its exceedance runs)
_MIXED_PHIS = tuple(make_functional(s, 1.0) for s in ("identity", "idle", "cdf:1", "winsup:3"))
_MIXED_CENTERINGS = (3.0, 0.05, 0.2, 0.9)


def _prefix_z(path, phis, centerings, T, a_T) -> np.ndarray:
    """Each functional's z on path: the per-segment prefix integral of
    phi - c at T, over a(T)."""
    z = np.empty(len(phis))
    for i, (phi, c) in enumerate(zip(phis, centerings)):
        bounds, vals = functional_steps(path, phi, 0.0, T)
        z[i] = float(prefix_integral(bounds, vals - c)(T)) / a_T
    return z


def _per_replicate_z(sc, phis, centerings):
    """z[i, t_index, r] one replicate at a time, by the prefix integral at T."""
    h = sc.window_h
    z = np.empty((len(phis), len(sc.T_ladder), sc.replicates))
    for t_index, T in enumerate(sc.T_ladder):
        a_T = float(tail_quantile_a(sc.y_dist(), T))
        for r in range(sc.replicates):
            rng = RngStream(sc.seed, stream_id=r).substream(t_index)
            path = build_path(simulate_sessions(sc.config(T + 2 * h, rng)), 0.0, T + h)
            z[:, t_index, r] = _prefix_z(path, phis, centerings, T, a_T)
    return z


@pytest.mark.parametrize("replicates", [1, 7, 50])
def test_z_matrix_bytes_do_not_depend_on_workers_or_chunks(monkeypatch, replicates):
    # three CPUs, so that three workers are not capped to fewer on a small box
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sc = tiny_scenario(window_h=1.0, T_ladder=(50.0, 200.0), replicates=replicates)
    want = _per_replicate_z(sc, _MIXED_PHIS, _MIXED_CENTERINGS)
    one = _z_matrix(sc, _MIXED_PHIS, _MIXED_CENTERINGS, 1)
    for workers in (2, 3):
        got = _z_matrix(sc, _MIXED_PHIS, _MIXED_CENTERINGS, workers)
        assert got.tobytes() == one.tobytes(), f"workers={workers}"
    # the h = 0 rows sum the occupation measure in count order and the
    # window sup sums its gaps between exceedance runs, so every row agrees
    # with the time-ordered reference up to rounding
    np.testing.assert_allclose(one, want, rtol=1e-12, atol=0)


# every h = 0 form on a constant-rate path, read from its occupation
# measure, beside a window sup; the window reaches past T, so a route that
# read the occupation on [0, T + h] would differ
_OCC_SPECS = ("identity", "idle", "cdf:1", "clipped:2", "winsup:3")
_OCC_CENTERINGS = (1.5, 0.0625, 0.25, 1.125, 0.875)


@pytest.mark.parametrize("w0", [0.5, 2.5])
def test_occupation_z_matches_the_prefix_integral(w0):
    # w0 != 1, so that an occupation route reading phi at k, not at w0 * k,
    # differs
    sc = tiny_scenario(w_params=(w0,), window_h=1.0, T_ladder=(50.0, 200.0), replicates=6)
    phis = tuple(make_functional(s, sc.window_h) for s in _OCC_SPECS)
    got = _z_matrix(sc, phis, _OCC_CENTERINGS, 1)
    want = _per_replicate_z(sc, phis, _OCC_CENTERINGS)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _dyadic_sessions(w0, T):
    """Sessions whose arrivals lie on the grid of 1/8 in [-4, T + 1), with
    durations on it in [1/8, 4)."""
    gen = np.random.default_rng(5)
    gamma = gen.integers(-32, 8 * (T + 1), 16) / 8
    return Sessions(gamma, gen.integers(1, 32, 16) / 8, np.broadcast_to(w0, 16))


# a dyadic path whose count runs from 0 to 3 and has events past T, and
# three paths with no event in [0, T]: no session at all, one session
# alive over all of [0, T + h], and sessions that arrive in (T, T + h]
_EDGE_SESSIONS = {
    "dyadic": _dyadic_sessions,
    "empty": lambda w0, T: Sessions([], [], []),
    "one_across": lambda w0, T: Sessions([-0.5], [T + 8.0], [w0]),
    "after_T": lambda w0, T: Sessions([T + 0.25, T + 0.5], [4.0, 0.125], [w0, w0]),
}


@pytest.mark.parametrize("kind", sorted(_EDGE_SESSIONS))
@pytest.mark.parametrize("w0", [0.5, 2.5])
def test_occupation_z_is_exact_on_dyadic_paths(monkeypatch, w0, kind):
    # event times, rates and centerings on dyadic grids make every product
    # and partial sum exact in either order, so the occupation route and
    # the time-ordered prefix integral agree byte for byte
    T = 16.0
    sc = tiny_scenario(w_params=(w0,), window_h=1.0, T_ladder=(T,), replicates=1)
    sessions = _EDGE_SESSIONS[kind](w0, T)
    monkeypatch.setattr(harness, "simulate_sessions", lambda cfg, ws=None: sessions)
    phis = tuple(make_functional(s, sc.window_h) for s in _OCC_SPECS)
    got = harness._z_task((sc, 0, 0, 1, phis, _OCC_CENTERINGS))[:, 0]
    a_T = float(tail_quantile_a(sc.y_dist(), T))
    want = _prefix_z(build_path(sessions, 0.0, T + 1.0), phis, _OCC_CENTERINGS, T, a_T)
    assert got.tobytes() == want.tobytes()


# every functional form at h = 0 beside a window sup: identity and clipped
# sum their areas over the path's own segments, the indicators read their
# exceedance runs
_TASK_PHIS = tuple(
    make_functional(s, 1.0) for s in ("identity", "idle", "cdf:1", "clipped:2", "winsup:3")
)


def _read_only_build_path(*args):
    path = build_path(*args)
    for a in (path.times, path.level_steps, path.count_steps):
        a.flags.writeable = False
    return path


def test_z_task_areas_equal_each_functional_alone_and_write_no_path(monkeypatch):
    sc = tiny_scenario(w_kind="uniform", w_params=(0.1, 1.0), window_h=1.0, replicates=6)
    T, h = sc.T_ladder[0], sc.window_h
    centerings = (3.0, 0.05, 0.2, 1.1, 0.9)
    # a write into any path array raises
    monkeypatch.setattr(harness, "build_path", _read_only_build_path)
    got = harness._z_task((sc, 0, 0, sc.replicates, _TASK_PHIS, centerings))
    a_T = float(tail_quantile_a(sc.y_dist(), T))
    want = np.empty((len(_TASK_PHIS), sc.replicates))
    for r in range(sc.replicates):
        rng = RngStream(sc.seed, stream_id=r).substream(0)
        path = build_path(simulate_sessions(sc.config(T + 2 * h, rng)), 0.0, T + h)
        for i, (phi, c) in enumerate(zip(_TASK_PHIS, centerings)):
            bounds, vals = functional_steps(path, phi, 0.0, T)
            want[i, r] = np.cumsum((vals - c) * np.diff(bounds))[-1] / a_T
    # the areas are the time-ordered cumsum's, bit for bit; the indicators
    # sum the gaps between their exceedance runs, equal up to rounding
    le = np.array([phi.form[0] == "le" for phi in _TASK_PHIS])
    assert got[~le].tobytes() == want[~le].tobytes()
    np.testing.assert_allclose(got[le], want[le], rtol=1e-12, atol=0)
    # identity hands back the path's own levels, as a read-only view
    levels = path.segments(0.0, T)[1]
    same = _TASK_PHIS[0](levels)
    assert np.shares_memory(same, path.level_steps) and not same.flags.writeable


def _task_peak(task) -> int:
    """The traced peak bytes of one _z_task call, after a first call whose
    one-time allocations are not the task's."""
    harness._z_task(task)
    tracemalloc.start()
    try:
        harness._z_task(task)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_z_task_replicate_peak_memory():
    # one unit-rate replicate at T = 1e4, about 20k events: at most three
    # event-length float arrays above the path itself, in build_path or
    # in any functional's area
    sc = tiny_scenario(T_ladder=(1e4,), replicates=1)
    phis = tuple(make_functional(s) for s in ("identity", "idle", "cdf:1", "clipped:2"))
    peak = _task_peak((sc, 0, 0, 1, phis, (3.0, 0.05, 0.2, 1.1)))
    rng = RngStream(sc.seed, stream_id=0).substream(0)
    path = build_path(simulate_sessions(sc.config(1e4, rng)), 0.0, 1e4)
    path_bytes = path.times.nbytes + path.level_steps.nbytes + path.count_steps.nbytes
    assert peak < path_bytes + 3 * path.times.nbytes


def test_window_replicate_peak_memory():
    # one uniform-rate replicate at T = 1e4 with winsup:3 at h = 1, about
    # 20k events: the window's integral adds at most one event-length float
    # array to what the replicate holds without it (its sessions, its path
    # and build_path's sort by rates).  Merged steps and a sparse table
    # added about 16 such arrays
    sc = tiny_scenario(w_kind="uniform", w_params=(0.1, 1.0), window_h=1.0, T_ladder=(1e4,),
                       replicates=1)
    bare = _task_peak((sc, 0, 0, 1, (), ()))
    window = _task_peak((sc, 0, 0, 1, (make_functional("winsup:3", 1.0),), (0.9,)))
    rng = RngStream(sc.seed, stream_id=0).substream(0)
    path = build_path(simulate_sessions(sc.config(1e4 + 2.0, rng)), 0.0, 1e4 + 1.0)
    assert len(path) > 19_000
    assert window < bare + path.times.nbytes


# unit rates at h = 0 (the occupation route) and uniform rates at h = 1
# (window sups and per-segment areas), each with every functional form
_CHUNK_LAWS = {
    "unit_h0": dict(window_h=0.0),
    "uniform_h1": dict(w_kind="uniform", w_params=(0.1, 1.0), window_h=1.0),
}
_CHUNK_SPECS = ("identity", "idle", "cdf:1", "clipped:2", "winsup:3")


@pytest.mark.parametrize("kind", sorted(_CHUNK_LAWS))
def test_a_chunk_equals_its_replicates_each_run_alone(kind):
    # a chunk's replicates take one workspace in turn, and a one-replicate
    # task has a new one: no replicate may read what an earlier one left
    sc = tiny_scenario(replicates=8, seed=7, **_CHUNK_LAWS[kind])
    T, h = sc.T_ladder[0], sc.window_h
    phis = tuple(make_functional(s, h) for s in _CHUNK_SPECS)
    centerings = (3.0, 0.05, 0.2, 1.1, 0.9)
    # the event count falls and then rises across the chunk, so the
    # buffers are taken shorter than their last use and then longer
    streams = [RngStream(sc.seed, stream_id=r).substream(0) for r in range(sc.replicates)]
    configs = [sc.config(T + 2 * h, rng) for rng in streams]
    events = [len(build_path(simulate_sessions(cfg), 0.0, T + h)) for cfg in configs]
    assert any(a > b < c for a, b, c in zip(events, events[1:], events[2:]))
    chunk = harness._z_task((sc, 0, 0, sc.replicates, phis, centerings))
    alone = [harness._z_task((sc, 0, r, r + 1, phis, centerings)) for r in range(sc.replicates)]
    assert chunk.tobytes() == np.hstack(alone).tobytes()


def test_z_task_peak_memory_does_not_grow_with_the_chunk():
    # 20 unit-rate replicates at T = 1e4 reuse one workspace, whose buffers
    # regrow by an eighth when a replicate needs more room: the chunk may
    # peak at most a quarter above one replicate alone (it read 1.16x),
    # where arrays kept per replicate would add a path each
    phis = tuple(make_functional(s) for s in ("identity", "idle", "cdf:1", "clipped:2"))

    def peak(replicates):
        sc = tiny_scenario(T_ladder=(1e4,), replicates=replicates)
        return _task_peak((sc, 0, 0, replicates, phis, (3.0, 0.05, 0.2, 1.1)))

    assert peak(20) < 1.25 * peak(1)


def _record_pool(monkeypatch):
    """Put a stub pool in _z_matrix's place, one that runs its tasks in this
    process and starts none; returns the lists of the sizes it is opened
    with and of the tasks it maps."""
    sizes, mapped = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            mapped.extend(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return sizes, mapped


@pytest.mark.parametrize(
    "workers, replicates, pool", [(64, 3, 6), (2, 50, 2), (5000, 50, 8)]
)
def test_pool_is_no_larger_than_the_task_list(monkeypatch, workers, replicates, pool):
    # under fork a pool starts all max_workers processes up front, so it is
    # sized to the tasks and to the CPUs, 8 here: 5000 workers would fork
    # 100 processes for 100 single-replicate tasks.  The stub runs the
    # tasks in this process and starts none
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    sizes, _ = _record_pool(monkeypatch)
    sc = tiny_scenario(T_ladder=(50.0, 200.0), replicates=replicates)
    phis = (make_functional("identity"),)
    got = _z_matrix(sc, phis, (0.0,), workers)
    assert sizes == [pool]
    assert got.tobytes() == _z_matrix(sc, phis, (0.0,), 1).tobytes()


def test_tasks_reach_the_pool_longest_horizon_first(monkeypatch):
    # the longest horizon's chunks take the most time, so they go out
    # first and do not form the pool's tail
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _, mapped = _record_pool(monkeypatch)
    sc = tiny_scenario(T_ladder=(50.0, 100.0, 200.0), replicates=5, window_h=1.0)
    phis = (make_functional("identity"), make_functional("winsup:3", 1.0))
    got = _z_matrix(sc, phis, (1.5, 0.875), 2)
    assert [sc.T_ladder[task[1]] for task in mapped] == [200.0] * 5 + [100.0] * 5 + [50.0] * 5
    assert [task[2:4] for task in mapped[:5]] == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert got.tobytes() == _z_matrix(sc, phis, (1.5, 0.875), 1).tobytes()


def test_cdf_rate_matches_empirical_cdf_reference():
    # the stable-limit z of cdf:x against the time-average CDF computed
    # on its own: (T / a(T)) (F_T(x) - K(x)), K the Poisson(lam E[Y]) CDF
    sc = _cdf_scenario()
    block = run(sc).blocks["cdf_rate"]
    nu = sc.lam * sc.y_dist().mean_y
    x_grid = np.array(sc.x_grid)
    K = sps.poisson.cdf(np.floor(x_grid), nu)
    np.testing.assert_allclose(block["K"], K, rtol=1e-12, atol=0)
    errors = np.empty((len(sc.T_ladder), sc.replicates, len(x_grid)))
    for t_index, T in enumerate(sc.T_ladder):
        for r in range(sc.replicates):
            rng = RngStream(sc.seed, stream_id=r).substream(t_index)
            path = build_path(simulate_sessions(sc.config(T, rng)), 0.0, T)
            errors[t_index, r] = empirical_cdf(path, T, x_grid) - K
    T_top = sc.T_ladder[-1]
    norm = T_top / tail_quantile_a(sc.y_dist(), T_top)
    for j, x in enumerate(sc.x_grid):
        got = block["per_x"][x]
        want = norm * errors[-1, :, j]
        np.testing.assert_allclose(got["d_sample"], want, rtol=1e-12, atol=0)
        disp = [iqr(errors[t, :, j]) for t in range(len(sc.T_ladder))]
        np.testing.assert_allclose(got["iqr"], disp, rtol=1e-12, atol=0)


def test_cdf_rate_x_without_dispersion_fails_alone():
    # no level reaches 100 on these paths, so every replicate reads
    # F_T(100) = 1 and the IQR is 0: that x fails, x = 1 keeps its result
    sc = replace(_cdf_scenario(), x_grid=(1.0, 100.0))
    block = run(sc).blocks["cdf_rate"]
    assert "error" not in block
    flat = block["per_x"][100.0]
    assert np.all(flat["iqr"] == 0.0)
    assert math.isnan(flat["slope"]) and math.isnan(flat["stderr"])
    assert not flat["gof"].passed
    assert flat["gof"].detail == "IQR 0 at T=200, 400, 800: no log fit"
    alone = run(replace(sc, x_grid=(1.0,))).blocks["cdf_rate"]["per_x"][1.0]
    _assert_same(block["per_x"][1.0], alone)


@pytest.mark.parametrize(
    "rates", [dict(w_params=(2.0,)), dict(w_kind="uniform", w_params=(0.1, 1.0))]
)
def test_cdf_rate_runs_at_any_rate_law(rates):
    # the IQR slope and the skew are shift-invariant, so they read the same
    # whatever the centering K; each x's K is its cdf functional's centering
    sc = tiny_scenario(
        analyses=("cdf_rate",), T_ladder=(100.0, 200.0, 400.0), replicates=10,
        x_grid=(0.5, 1.0), **rates,
    )
    block = run(sc).blocks["cdf_rate"]
    assert "error" not in block
    want = [response_curve(sc, make_functional(f"cdf:{x!r}"))[1] for x in sc.x_grid]
    assert block["K"].tolist() == want


def test_winsup_without_a_window_is_the_cdf():
    # at h = 0 the window's sup is the level itself, so winsup:1 is cdf:1
    # and gets its exact Poisson curve, P(N <= 1) = 4 e^-3 at w = 0
    sc = Scenario()
    sup, cdf = (response_curve(sc, make_functional(s, sc.window_h)) for s in ("winsup:1", "cdf:1"))
    assert sup[1:] == cdf[1:] and sup[3] == "exact"
    assert sup[1] == pytest.approx(4.0 * math.exp(-3.0), rel=1e-12)
    w = np.linspace(-1.0, 3.0, 41)
    assert np.array_equal(sup[0](w), cdf[0](w))
    # they are one functional, so the z stage gives them one row
    assert make_functional("winsup:1", 0.0) == make_functional("cdf:1")
    rows = harness._z_stage(
        Scenario(functionals=("cdf:1", "winsup:1"), T_ladder=(200.0,), replicates=10), 1
    )
    assert rows["cdf:1"] is rows["winsup:1"] and rows["cdf:1"][0].name == "cdf_le_1"


class TestEmit:
    def test_csv_bundle(self, tmp_path):
        rep = run(tiny_scenario())
        files = emit(rep, tmp_path / "out")
        names = {f.split("/")[-1] for f in map(str, files)}
        assert "report.txt" in names
        assert "scenario_echo.yaml" in names
        assert "gof.csv" in names
        assert any(n.startswith("stable_limit_identity_T") for n in names)

    @pytest.mark.parametrize("method", ["exact", "monte_carlo"])
    def test_params_file_names_the_centering_method(self, tmp_path, method):
        # a limit law is exact only from an exact curve, which needs a
        # constant rate, whose G is one atom
        rep = run(_family(method))
        emit(rep, tmp_path)
        for name, sub in rep.blocks["stable_limit"].items():
            text = (tmp_path / f"stable_limit_{name}_params.txt").read_text()
            assert sub["centering_method"] == method
            assert text == sub["limit"].to_text() + f"provenance: {method}\n"


class TestCli:
    def test_demo_and_validate(self, tmp_path, capsys):
        out = tmp_path / "scenarios"
        assert main(["demo", "--out", str(out)]) == 0
        produced = sorted(p.name for p in out.iterdir())
        assert "m1.yaml" in produced
        assert main(["validate", "--scenario", str(out / "m1.yaml")]) == 0
        assert "scenario ok" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("alpha: 3.0\nname: bad\n")
        assert main(["validate", "--scenario", str(bad)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "mapping"),
            ("replicates: abc\n", "replicates"),
            ("lam: -1\n", "lam"),
            ("lam: .nan\n", "lam"),
            ("window_h: -1\n", "window_h"),
            ("x_grid: [2.0, 1.0]\n", "x_grid"),
            ("w_kind: uniform\nw_params: [1.0, 0.1]\n", "uniform"),
            ("n_cycles: 0\n", "n_cycles"),
            ("analyses: [hill]\nhill_k: 0\n", "hill_k"),
            ("functionals: []\nanalyses: [stable_limit]\n", "functionals"),
            ("analyses: [cdf_rate]\nT_ladder: [1000.0, 10000.0]\n", "T_ladder"),
            # cdf:1.0000001 is a functional of its own; cdf:1.0 repeats cdf:1
            ("functionals: ['cdf:1', 'cdf:1.0000001', 'cdf:1.0']\n",
             "'cdf:1' and 'cdf:1.0' both build cdf_le_1"),
            ("T_ladder: [.inf]\n", "T_ladder"),
            ("seed: -1\n", "seed"),
            ("workers: -2\n", "workers"),
            ("u_grid: []\n", "u_grid"),
            ("w_kind: constant\nw_params: [1.0, 2.0]\n", "w_params of w_kind 'constant'"),
            ("w_params: []\n", "w_params of w_kind 'constant'"),
            ("w_kind: uniform\nw_params: [0.5]\n", "w_params of w_kind 'uniform'"),
            ("w_kind: constant\nw_params: [.inf]\n", "'w_params' must be a list of finite numbers"),
            ("w_kind: constant\nw_params: [.nan]\n", "'w_params' must be a list of finite numbers"),
            ("w_kind: constant\nw_params: [1.0e+300]\n", "w_params must not exceed 1e+100"),
            ("w_kind: constant\nw_params: [1.0e+308]\n", "w_params must not exceed 1e+100"),
            ("analyses: [stable_limit]\nT_ladder: []\n",
             "stable_limit needs at least 1 horizon in T_ladder"),
            ("analyses: [cdf_rate]\nT_ladder: [1.0e+3, 1.0e+4, 1.0e+5]\nx_grid: []\n",
             "x_grid must not be empty for cdf_rate"),
            ("functionals: ['identity:3']\n", "identity:3"),
            ("analyses: [self_similarity]\nT_ladder: [1000.0]\n", "T_ladder"),
            ("functionals: [clipped]\n", "'clipped' needs a finite number"),
            ("replicates: 1\n", "replicates"),
            ("analyses: [stable_limit, stable_limit]\n", "analyses must not repeat"),
            # one chunk of 200 mean cycles would hold far more than 2e6
            # sessions: a MemoryError and OverflowErrors at run time
            ("lam: 10\nanalyses: [cycle_mean]\nn_cycles: 1\n",
             "offered load lambda*E[Y] = 30 is too heavy for ['cycle_mean']"),
            ("lam: 1000\nanalyses: [cycle_mean, cycle_tail, hill]\n",
             "offered load lambda*E[Y] = 3000 is too heavy"),
            # F_T(x) = K(x) = 0 below 0: the rate fit would have no dispersion
            ("analyses: [cdf_rate]\nT_ladder: [100.0, 1000.0, 10000.0]\nx_grid: [-0.5, 1.0]\n",
             "x_grid must be nonnegative"),
            # about 1e11 sessions per replicate path: rejected before any is drawn
            ("lam: 1.0e+7\nT_ladder: [1.0e+4]\nreplicates: 5\n",
             "lambda*E[Y] = 1.0003e+11 exceed 1.5e+07"),
            # the Monte Carlo response curves would draw 3e8 and 2.03e7 sessions
            ("lam: 1000\nw_kind: uniform\nw_params: [0.1, 1.0]\nT_ladder: [1.0e+4]\n"
             "functionals: ['clipped:2']\n", "(E[Y] + h) = 3e+08 expected sessions at once"),
            ("functionals: ['winsup:3']\nwindow_h: 200\n",
             "(E[Y] + h) = 2.03e+07 expected sessions at once, over 1.5e+07"),
            ("analyses: [self_similarity]\nT_ladder: [1000.0, 1000.0000000000001, 10000.0]\n",
             "both give u = T/T_top = 0.1"),
            ("analyses: [cycle_tail]\ntail_x: []\n", "tail_x must not be empty for cycle_tail"),
            ("analyses: [cycle_mean]\nn_cycles: 1000000000\n",
             "needs about 2e+04 fresh-start chunks for ['cycle_mean']"),
            # YAML keys of two types, which do not sort together
            ("1: 2\nfoo: 3\n", "unknown scenario keys: ['foo', 1]"),
            # fewer chunks than MAX_CHUNKS, but 3.9 GB of cycle lengths
            ("analyses: [cycle_mean]\nn_cycles: 490000000\n",
             "n_cycles = 490000000 exceeds 15000000 for ['cycle_mean']"),
            # integers past a double, and a mean cycle past a double
            pytest.param(f"lam: 1{'0' * 400}\n", "'lam' must be a finite number", id="lam=10**400"),
            pytest.param(f"replicates: 1{'0' * 400}\n",
                         "'replicates' must be an integer that fits in 64 bits", id="replicates=10**400"),
            pytest.param(f"analyses: [cycle_mean]\nn_cycles: 1{'0' * 400}\n",
                         "'n_cycles' must be an integer that fits in 64 bits", id="n_cycles=10**400"),
            pytest.param(f"workers: 1{'0' * 400}\n",
                         "'workers' must be an integer that fits in 64 bits", id="workers=10**400"),
            # the mean cycle e^(lam E[Y]) / lam is past a double at a subnormal lam
            ("lam: 1.0e-320\nanalyses: [cycle_mean]\n",
             "lam = 1e-320 makes the mean cycle e^(lambda*E[Y])/lambda past a double"),
            ("lam: 5.0e-324\nanalyses: [hill]\n",
             "lam = 5e-324 makes the mean cycle e^(lambda*E[Y])/lambda past a double for ['hill']"),
            # a finite mean cycle, but n_cycles of them past a double
            ("lam: 1.0e-305\nanalyses: [cycle_mean]\n",
             "lam = 1e-305 makes n_cycles = 10000 times the mean cycle e^(lambda*E[Y])/lambda "
             "past a double for ['cycle_mean']"),
            # one cycle has no standard error
            ("analyses: [cycle_mean]\nn_cycles: 1\n",
             "cycle_mean needs n_cycles >= 2 for a standard error, got 1"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_scenario_file_exits_2(self, tmp_path, capsys, text, message, command):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        args = [command, "--scenario", str(bad)]
        if command == "run":
            args += ["--out", str(tmp_path / "r")]
        assert main(args) == 2
        out = capsys.readouterr()
        assert "scenario ok" not in out.out
        assert "invalid scenario" in out.err and message in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize(
        "text",
        ["lam: 1000\nanalyses: [stable_limit]\n",
         "alpha: 1.0000001\nanalyses: [stable_limit]\n"],
    )
    def test_validate_heavy_load_note_does_not_overflow(self, tmp_path, capsys, text):
        # e^(lam E[Y]) is past a double here; the note gives its log10
        cfg = tmp_path / "heavy.yaml"
        cfg.write_text(text)
        assert main(["validate", "--scenario", str(cfg)]) == 0
        out = capsys.readouterr()
        assert "mean cycle length = 10^" in out.out and "scenario ok" in out.out
        assert "Traceback" not in out.err

    @pytest.mark.parametrize(
        "override, message", [(["--seed", "-1"], "seed"), (["--workers", "0"], "workers")]
    )
    def test_bad_run_override_exits_2(self, tmp_path, capsys, override, message):
        cfg = tmp_path / "s.yaml"
        tiny_scenario(analyses=("m1_diagnostic",)).to_yaml(cfg)
        args = ["run", "--scenario", str(cfg), "--out", str(tmp_path / "r")] + override
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "invalid scenario" in err and message in err
        assert not (tmp_path / "r").exists()

    def test_run_out_not_a_directory_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch):
        def never(scenario):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr(cli, "run", never)
        cfg = tmp_path / "s.yaml"
        tiny_scenario(analyses=("m1_diagnostic",)).to_yaml(cfg)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        assert main(["run", "--scenario", str(cfg), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and str(taken) in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert taken.read_text() == "a file\n"

    def test_demo_out_not_a_directory_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        assert main(["demo", "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and str(taken) in err
        assert "Traceback" not in err and taken.read_text() == "a file\n"

    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        tiny_scenario(analyses=("m1_diagnostic",)).to_yaml(cfg)
        code = main(
            ["run", "--scenario", str(cfg), "--out", str(tmp_path / "r")]
        )
        assert code == 0
        assert (tmp_path / "r" / "report.txt").exists()

    def test_run_exits_1_when_an_analysis_errors(self, tmp_path, capsys, monkeypatch):
        def boom(scenario):
            raise RuntimeError("boom")

        monkeypatch.setitem(harness.ANALYSES, "m1_diagnostic", (boom, None, 0, 0))
        cfg = tmp_path / "s.yaml"
        tiny_scenario(analyses=("m1_diagnostic",)).to_yaml(cfg)
        assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert "ERROR m1_diagnostic: RuntimeError: boom" in capsys.readouterr().err
        assert "overall: FAIL" in (tmp_path / "r" / "report.txt").read_text()

    def test_run_seed_override(self, tmp_path):
        cfg = tmp_path / "s.yaml"
        tiny_scenario(analyses=("m1_diagnostic",)).to_yaml(cfg)
        assert (
            main(
                [
                    "run", "--scenario", str(cfg),
                    "--out", str(tmp_path / "r2"), "--seed", "7",
                ]
            )
            == 0
        )
        echoed = (tmp_path / "r2" / "scenario_echo.yaml").read_text()
        assert "seed: 7" in echoed

    def test_run_workers_override(self, tmp_path):
        cfg = tmp_path / "s.yaml"
        tiny_scenario(analyses=("m1_diagnostic",)).to_yaml(cfg)
        args = ["run", "--scenario", str(cfg), "--out", str(tmp_path / "r"), "--workers", "2"]
        assert main(args) == 0
        assert "workers: 2" in (tmp_path / "r" / "scenario_echo.yaml").read_text()


def test_builtin_scenarios_all_validate():
    for name, sc in builtin_scenarios().items():
        assert sc.name == name
        validate(sc)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TrafficConfig(lam=math.nan, law=Scenario().law(), horizon=1.0),
        lambda: TrafficConfig(lam=1.0, law=Scenario().law(), horizon=math.nan),
        lambda: TailDist.pareto(math.nan),
        lambda: TailDist.pareto(1.5, math.nan),
        lambda: StableParams(1.5, math.nan),
        lambda: StableParams(1.5, 1.0, math.nan),
        lambda: WindowFunctional("x", math.nan, ("le", 1.0)),
        lambda: tail_quantile_a(TailDist.pareto(1.5), math.nan),
        lambda: ks_threshold(math.nan),
        lambda: cycle_tail_table([1.0, 2.0], TailDist.pareto(1.5), 1.0, [math.nan], [10.0]),
        # at a subnormal lam the mean cycle e^(lam E[Y]) / lam is past a
        # double, and the expected chunk count NaN
        lambda: validate(tiny_scenario(lam=1e-320, analyses=("cycle_mean",))),
    ],
    ids=["lam", "horizon", "pareto_alpha", "pareto_xm", "sigma", "beta", "window_h",
         "tail_quantile_t", "ks_threshold_n", "cycle_tail_x", "validate_chunks"],
)
def test_range_guards_reject_nan(call):
    # each guard is written so that NaN fails it, as a comparison with NaN
    # is always False
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: TrafficConfig(lam=math.inf, law=Scenario().law(), horizon=1.0),
        lambda: TrafficConfig(lam=1.0, law=Scenario().law(), horizon=math.inf),
        lambda: TailDist.pareto(math.inf),
        lambda: TailDist.pareto(1.5, math.inf),
        lambda: StableParams(1.5, math.inf),
        lambda: WindowFunctional("x", math.inf, ("le", 1.0)),
        lambda: ks_threshold(math.inf),
    ],
    ids=["lam", "horizon", "pareto_alpha", "pareto_xm", "sigma", "window_h", "ks_threshold_n"],
)
def test_range_guards_reject_inf(call):
    # each of these values must be finite, as well as positive or nonnegative
    with pytest.raises(ValueError, match="finite"):
        call()


def test_result_blocks_hold_no_copy_of_the_scenario():
    # what a block would copy is read where it lives: x_grid and T_ladder
    # from the scenario, sample sizes from the GoFs
    sc = tiny_scenario(analyses=tuple(harness.ANALYSES), T_ladder=(200.0, 400.0, 800.0),
                       replicates=20, n_cycles=200, hill_k=20)
    blocks = run(sc).blocks
    assert {name: sorted(block) for name, block in blocks.items()} == {
        "cycle_mean": ["gof", "mean", "se", "theory"],
        "cycle_tail": ["gof", "table"],
        "hill": ["alpha_hat", "gof", "se"],
        "stable_limit": ["identity"],
        "self_similarity": ["centering_method", "centering_se", "functional", "gofs", "samples"],
        "cdf_rate": ["K", "per_x"],
        "m1_diagnostic": ["gof"],
    }


# scenario values of every kind a YAML file can hold: integers past a double
# and past int64, non-finite and subnormal floats and -0.0, numeric and spec
# strings, booleans, null, and short lists of these
_SCALARS = st.one_of(
    st.integers(), st.integers(-(10**400), 10**400),
    st.sampled_from([10**400, -(10**400), 2**63, -(2**63) - 1, 2**63 - 1]),
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, 5e-324, 1e-320, -0.0]),
    st.text(max_size=6), st.sampled_from(["1e400", "nan", "cdf:1e400", "winsup:inf", "hill"]),
    st.booleans(), st.none(),
)
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3)
# a ladder of 3 rungs and 20 replicates, so each set reaches its own rules
_ANALYSIS_SETS = st.sampled_from(
    [[], ["stable_limit", "self_similarity", "cdf_rate"], ["cycle_mean", "cycle_tail", "hill"],
     ["m1_diagnostic"]]
)
_FIELDS = st.sampled_from(sorted(Scenario.__dataclass_fields__))


def _document(analyses, key, value):
    return {"analyses": analyses, "T_ladder": [200.0, 400.0, 800.0], "replicates": 20, key: value}


@settings(max_examples=200, deadline=None)
@given(analyses=_ANALYSIS_SETS, key=_FIELDS, value=_VALUES)
def test_no_scenario_value_crashes_validate(analyses, key, value):
    # a value either passes or is rejected with a message: never another error
    try:
        validate(Scenario.from_dict(_document(analyses, key, value)))
    except ValueError:
        pass


@settings(max_examples=10, deadline=None)
@given(analyses=_ANALYSIS_SETS, key=_FIELDS, value=_VALUES)
def test_no_scenario_file_crashes_the_cli(analyses, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "s.yaml")
        with open(cfg, "w") as fh:
            yaml.safe_dump(_document(analyses, key, value), fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", "--scenario", cfg])
    assert code in (0, 2) and "Traceback" not in err.getvalue()


# -- Monte Carlo response curve ---------------------------------------------

_MC = dict(lam=1.0, w_kind="uniform", w_params=(0.1, 1.0), window_h=1.0, seed=3)


def _loop_calE(phi, stat, w):
    # per-point reference: one mean over all draws per w
    return np.array([float(np.mean(phi(stat + wv))) for wv in w])


def _recorded_draws(monkeypatch) -> list:
    """A list that gets a copy of every array traffic.stationary_window_draws
    returns from here on, taken before its caller can sort it."""
    calls = []
    draws = traffic.stationary_window_draws

    def record(*args, **kwargs):
        out = draws(*args, **kwargs)
        calls.append(out.copy())
        return out

    monkeypatch.setattr(traffic, "stationary_window_draws", record)
    return calls


@pytest.mark.parametrize("spec", ["winsup:3", "idle", "cdf:1.5", "clipped:2", "identity"])
def test_response_curve_matches_loop(spec, monkeypatch):
    sc = Scenario(**_MC)
    phi = make_functional(spec, sc.window_h)
    calls = _recorded_draws(monkeypatch)
    monkeypatch.setattr(harness, "MC_DRAWS", 4000)
    calE, *_, method = response_curve(sc, phi)
    (stat,) = calls  # the curve's own draws
    assert method == "monte_carlo"
    op, b = phi.form
    if b is None:  # identity has no threshold; any shifts will do
        b = 1.0
    # shifts that put s + w exactly on b for some draws, and their neighbours
    on_b = b - stat[:50]
    w = np.concatenate(
        [[0.0, 0.25, 3.0], on_b, np.nextafter(on_b, -np.inf), np.nextafter(on_b, np.inf),
         RngStream(6).generator().uniform(0.1, 1.0, 200)]
    )
    want = _loop_calE(phi, stat, w)
    got = calE(w)
    if op == "le":
        assert np.array_equal(got, want)
    else:
        # rates are nonnegative; a negative w could cancel terms of the mean
        keep = w >= 0
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0)


def test_response_curve_draws_once_per_monte_carlo_curve(monkeypatch):
    # the draws are taken through the traffic module's attribute, once per
    # Monte Carlo curve; a closed-form curve takes none
    calls = _recorded_draws(monkeypatch)
    monkeypatch.setattr(harness, "MC_DRAWS", 100)
    for spec in ("winsup:3", "clipped:2", "identity"):
        response_curve(Scenario(**_MC), make_functional(spec, 1.0))
    assert len(calls) == 3
    for spec in ("identity", "idle", "cdf:1"):
        assert response_curve(Scenario(), make_functional(spec))[3] == "exact"
    assert len(calls) == 3


@pytest.mark.parametrize("spec", ["winsup:3", "clipped:2", "idle"])
def test_response_curve_centering_is_loop_mean(spec, monkeypatch):
    # the centering is the plain mean of phi over the draws, bit for bit,
    # whichever way calE evaluates the other shifts
    sc = Scenario(**_MC)
    phi = make_functional(spec, sc.window_h)
    monkeypatch.setattr(harness, "MC_DRAWS", 3000)
    _, cal0, se, method = response_curve(sc, phi)
    rng = RngStream(sc.seed, stream_id=2**31).substream(zlib.crc32(phi.name.encode()) % 2**31)
    cfg = sc.config(1.0, rng)
    base = phi(stationary_window_draws(cfg, 3000, rng, phi.h))
    assert method == "monte_carlo"
    assert cal0 == float(np.mean(base))
    assert se == float(np.std(base, ddof=1) / math.sqrt(3000))


# draws with many ties, zeros and values that sum to b exactly
_stat = st.lists(
    st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.0]), st.floats(0.0, 5.0)),
    min_size=1, max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(
    stat=_stat,
    b=st.sampled_from([0.0, 0.3, 1.0, 2.0, 2.9]),
    w=st.lists(st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.7, 1.0 / 3.0]), st.floats(0.0, 4.0)), min_size=1, max_size=40),
)
@example(stat=[0.1, 0.2, 0.1, 0.2], b=0.3, w=[0.2, 0.1])  # 0.1 + 0.2 > 0.3 in floats
@example(stat=[0.0, 5e-324], b=0.0, w=[5e-324])  # means one subnormal ulp apart
def test_sorted_response_bit_identical(stat, b, w):
    s = np.array(stat)
    w = np.array(w + [b - x for x in stat[:10]])
    indicator = sorted_response(("le", b), np.sort(s))(w)
    want = np.array([float(np.mean((s + wv <= b).astype(float))) for wv in w])
    assert np.array_equal(indicator, want)
    # min(s + w, b) only for the w >= 0 that rates give: with w < 0 the
    # terms of the mean can cancel, and no relative tolerance holds.  Both
    # sides round correctly, but among subnormals one ulp is a large
    # relative step (5e-324 against 1e-323), so an absolute floor below
    # every normal float covers them
    w = w[w >= 0]
    clipped = sorted_response(("min", b), np.sort(s))(w)
    want = np.array([float(np.mean(np.minimum(s + wv, b))) for wv in w])
    np.testing.assert_allclose(clipped, want, rtol=1e-12, atol=1e-320)
    shifted = sorted_response(("id", None), np.sort(s))(w)
    want = np.array([float(np.mean(s + wv)) for wv in w])
    np.testing.assert_allclose(shifted, want, rtol=1e-12, atol=1e-320)


def _perfbench_workloads():
    """perfbench/workloads.py, imported by path (perfbench is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["replicate-fanout", "mc-kernels", "cycle-bank"])
def test_workload_records_match_the_benchmark_reference(name):
    # the benchmark's recorded GoF statistics, centerings, limit laws and z
    # sums at seed 1: both build_path routes, exact and Monte Carlo curves,
    # the one-atom and sampled limit rate laws, and the banked busy cycles
    workloads = _perfbench_workloads()
    scenarios, _ = workloads.build(name, 1)
    values, _ = workloads.run_parts(run, scenarios, 1)
    result = workloads.check_runs(name, 1, [values], workloads.load_reference())
    assert result["has_reference"] and result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
