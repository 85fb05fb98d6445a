"""Scenario plumbing, determinism, report emission, and the CLI."""

import math
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from stableshot import (
    Report,
    RngStream,
    Scenario,
    build_path,
    builtin_scenarios,
    emit,
    empirical_cdf,
    harness,
    iqr,
    run,
    simulate_sessions,
    tail_quantile_a,
)
from stableshot.cli import main
from stableshot.functionals import _sorted_response, functional_steps, monte_carlo_response
from stableshot.harness import _z_matrix, make_functional, response_curve, validate
from stableshot.traffic import stationary_window_draws

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
            (dict(functionals=("cdf:1", "cdf:1.0000001")), "cdf_le_1"),
            (dict(functionals=("identity", "clipped:2", "clipped:2.0")), "clipped_2"),
            (dict(functionals=("winsup:3", "winsup:3.0000001"), window_h=1.0), "sup_le_3_h1"),
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
            (dict(w_params=(math.inf,)), "w_params of w_kind 'constant' must satisfy"),
            (dict(w_params=(math.nan,)), "w_params of w_kind 'constant' must satisfy"),
            (dict(T_ladder=()), "stable_limit needs at least 1 horizon in T_ladder"),
            (dict(T_ladder=(1e3, 1e4, 1e5), x_grid=(1.0, 1.0000001), analyses=("cdf_rate",)),
             "both name the GoF cdf_rate/x=1"),
            (dict(functionals=("cdf:1", "winsup:1")), "both build the name 'cdf_le_1'"),
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

    def test_validate_accepts_the_fewest_replicates_that_can_fail(self):
        validate(tiny_scenario(replicates=4))
        validate(tiny_scenario(T_ladder=(200.0, 400.0), replicates=6, analyses=("self_similarity",)))
        validate(tiny_scenario(T_ladder=(200.0, 400.0, 800.0), replicates=2, analyses=("cdf_rate",)))

    def test_validate_notes(self):
        notes = validate(tiny_scenario())
        assert any("E[Y]" in n for n in notes)

    def test_make_functional(self):
        assert make_functional("identity").name == "identity"
        assert make_functional("clipped:2.5").form == ("min", 2.5)
        assert make_functional("cdf:1").name == "cdf_le_1"
        assert make_functional("idle").name == "idle"
        with pytest.raises(ValueError):
            make_functional("mystery:1")


class TestRun:
    def test_empty_analyses(self):
        rep = run(tiny_scenario(analyses=()))
        assert rep.blocks == {}
        assert rep.all_passed

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

    def test_analysis_error_is_contained(self, monkeypatch):
        # an analysis that raises: the error lands in its block only
        def boom(scenario):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "_analysis_hill", boom)
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

        def counted_simulate(config):
            horizons.append(config.horizon)
            return simulate(config)

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


# flat functionals (shared segments) beside a window sup (its own merged steps)
_MIXED_PHIS = tuple(make_functional(s, 1.0) for s in ("identity", "idle", "cdf:1", "winsup:3"))
_MIXED_CENTERINGS = (3.0, 0.05, 0.2, 0.9)


def _per_replicate_z(sc, phis, centerings):
    """z[i, t_index, r] one replicate at a time, by the prefix integral at T."""
    h = sc.window_h
    z = np.empty((len(phis), len(sc.T_ladder), sc.replicates))
    for t_index, T in enumerate(sc.T_ladder):
        a_T = float(tail_quantile_a(sc.y_dist(), T))
        for r in range(sc.replicates):
            rng = RngStream(sc.seed, stream_id=r).substream(t_index)
            path = build_path(simulate_sessions(sc.config(T + 2 * h, rng)), 0.0, T + h)
            for i, (phi, c) in enumerate(zip(phis, centerings)):
                bounds, vals = functional_steps(path, phi, 0.0, T)
                z[i, t_index, r] = float(prefix_integral(bounds, vals - c)(T)) / a_T
    return z


@pytest.mark.parametrize("replicates", [1, 7, 50])
def test_z_matrix_bytes_do_not_depend_on_workers_or_chunks(replicates):
    sc = tiny_scenario(window_h=1.0, T_ladder=(50.0, 200.0), replicates=replicates)
    want = _per_replicate_z(sc, _MIXED_PHIS, _MIXED_CENTERINGS).tobytes()
    for workers in (1, 2, 3):
        got = _z_matrix(sc, _MIXED_PHIS, _MIXED_CENTERINGS, workers)
        assert got.tobytes() == want, f"workers={workers}"


@pytest.mark.parametrize("workers, replicates, pool", [(64, 3, 6), (2, 50, 2)])
def test_pool_is_no_larger_than_the_task_list(monkeypatch, workers, replicates, pool):
    # under fork a pool starts all max_workers processes up front, so it is
    # sized to the tasks; the stub runs them in this process and starts none
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    sc = tiny_scenario(T_ladder=(50.0, 200.0), replicates=replicates)
    phis = (make_functional("identity"),)
    got = _z_matrix(sc, phis, (0.0,), workers)
    assert sizes == [pool]
    assert got.tobytes() == _z_matrix(sc, phis, (0.0,), 1).tobytes()


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

    def test_structured_text_only(self, tmp_path):
        rep = run(tiny_scenario(analyses=()))
        files = emit(rep, tmp_path / "out", fmt="structured-text")
        assert len(files) == 2

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(run(tiny_scenario(analyses=())), tmp_path, fmt="json")


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
            ("functionals: ['cdf:1', 'cdf:1.0000001']\n", "cdf_le_1"),
            ("T_ladder: [.inf]\n", "T_ladder"),
            ("seed: -1\n", "seed"),
            ("workers: -2\n", "workers"),
            ("u_grid: []\n", "u_grid"),
            ("w_kind: constant\nw_params: [1.0, 2.0]\n", "w_params of w_kind 'constant'"),
            ("w_params: []\n", "w_params of w_kind 'constant'"),
            ("w_kind: uniform\nw_params: [0.5]\n", "w_params of w_kind 'uniform'"),
            ("w_kind: constant\nw_params: [.inf]\n", "w_params of w_kind 'constant' must satisfy"),
            ("w_kind: constant\nw_params: [.nan]\n", "w_params of w_kind 'constant' must satisfy"),
            ("w_kind: constant\nw_params: [1.0e+300]\n", "w_params must not exceed 1e+100"),
            ("w_kind: constant\nw_params: [1.0e+308]\n", "w_params must not exceed 1e+100"),
            ("analyses: [stable_limit]\nT_ladder: []\n",
             "stable_limit needs at least 1 horizon in T_ladder"),
            ("analyses: [cdf_rate]\nT_ladder: [1.0e+3, 1.0e+4, 1.0e+5]\nx_grid: [1.0, 1.0000001]\n",
             "both name the GoF cdf_rate/x=1"),
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

        monkeypatch.setattr(harness, "_analysis_m1_diagnostic", boom)
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


# -- Monte Carlo response curve ---------------------------------------------

_MC = dict(lam=1.0, w_kind="uniform", w_params=(0.1, 1.0), window_h=1.0, seed=3)


def _loop_calE(phi, stat, w):
    # per-point reference: one mean over all draws per w
    return np.array([float(np.mean(phi(stat + wv))) for wv in w])


@pytest.mark.parametrize("spec", ["winsup:3", "idle", "cdf:1.5", "clipped:2", "identity"])
def test_monte_carlo_response_matches_loop(spec):
    sc = Scenario(**_MC)
    phi = make_functional(spec, sc.window_h)
    n = 4000
    rng = RngStream(5)
    calE, samples = monte_carlo_response(phi, sc.config(1.0, rng), n, rng)
    stat = stationary_window_draws(sc.config(1.0, rng), n, rng, phi.h)
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
    assert np.array_equal(samples(0.25), phi(stat + 0.25))


@pytest.mark.parametrize("spec", ["winsup:3", "clipped:2", "idle"])
def test_response_curve_centering_is_loop_mean(spec):
    # the centering is the plain mean of phi over the draws, bit for bit,
    # whichever way calE evaluates the other shifts
    sc = Scenario(**_MC)
    phi = make_functional(spec, sc.window_h)
    _, cal0, se, method = response_curve(sc, phi, n_mc=3000)
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
def test_sorted_response_bit_identical(stat, b, w):
    s = np.array(stat)
    w = np.array(w + [b - x for x in stat[:10]])
    indicator = _sorted_response(("le", b), np.sort(s))(w)
    want = np.array([float(np.mean((s + wv <= b).astype(float))) for wv in w])
    assert np.array_equal(indicator, want)
    # min(s + w, b) only for the w >= 0 that rates give: with w < 0 the
    # terms of the mean can cancel, and no relative tolerance holds
    w = w[w >= 0]
    clipped = _sorted_response(("min", b), np.sort(s))(w)
    want = np.array([float(np.mean(np.minimum(s + wv, b))) for wv in w])
    np.testing.assert_allclose(clipped, want, rtol=1e-12, atol=0)
    shifted = _sorted_response(("id", None), np.sort(s))(w)
    want = np.array([float(np.mean(s + wv)) for wv in w])
    np.testing.assert_allclose(shifted, want, rtol=1e-12, atol=0)
