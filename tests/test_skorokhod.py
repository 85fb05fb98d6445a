"""Path distances: uniform majorant and the certified M1 bracket."""

import json
from pathlib import Path

import numpy as np
import pytest

from stableshot import SteppyPath, dist_m1, dist_uniform, harness, skorokhod
from stableshot.rng import RngStream

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def step_half():
    # indicator of [1/2, 1] on [0, 1]
    return SteppyPath.step(0.0, 1.0, [0.5], [0.0, 1.0])


def ramp(delta):
    # 0 up to 1/2 - delta, linear to 1 at 1/2, then flat 1
    return SteppyPath([0.0, 0.5 - delta, 0.5, 1.0], [0.0, 0.0, 1.0, 1.0])


def random_step(gen, lo=0.0, hi=1.0):
    n = int(gen.integers(1, 8))
    times = np.sort(gen.uniform(lo + 0.02, hi - 0.02, n))
    while np.any(np.diff(times) <= 0):
        times = np.sort(gen.uniform(lo + 0.02, hi - 0.02, n))
    return SteppyPath.step(lo, hi, times, gen.normal(size=n + 1))


class TestPathType:
    def test_evaluate_step(self):
        f = step_half()
        assert f.limits(0.49)[1] == 0.0
        assert f.limits(0.5)[1] == 1.0  # right continuous
        assert f.limits(0.5)[0] == 0.0
        assert f.limits(1.0)[1] == 1.0

    def test_evaluate_pwl(self):
        g = ramp(0.1)
        assert g.limits(0.0)[1] == 0.0
        assert g.limits(0.45)[1] == pytest.approx(0.5)
        assert g.limits(0.75)[1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SteppyPath.step(0.0, 1.0, [0.5], [0.0])  # wrong value count
        with pytest.raises(ValueError):
            SteppyPath.step(0.0, 1.0, [0.0], [0.0, 1.0])  # jump at endpoint
        with pytest.raises(ValueError):
            SteppyPath.step(1.0, 0.0, [], [0.0])
        with pytest.raises(ValueError):
            SteppyPath.step(0.0, 1.0, [0.5, 0.5], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            SteppyPath.step(0.0, 1.0, [np.nan], [0.0, 1.0])  # non-finite jump time

    def test_limits_outside_the_interval(self):
        with pytest.raises(ValueError):
            step_half().limits(2.0)
        with pytest.raises(ValueError):
            step_half().limits(np.nan)

    def test_pwl_repeated_node_is_a_jump(self):
        f = SteppyPath([0.0, 0.2, 0.5, 0.5, 0.8, 1.0], [0.0, 0.0, 1.0, 3.0, 2.0, 2.0])
        assert f.limits(0.5) == (1.0, 3.0)
        assert f.limits(0.35)[1] == pytest.approx(0.5)

    def test_vertices_are_read_only_copies(self):
        times = np.array([0.5])
        f = SteppyPath.step(0.0, 1.0, times, [0.0, 1.0])
        times[0] = 0.6
        assert f.t.tolist() == [0.0, 0.5, 0.5, 1.0]
        with pytest.raises(ValueError):
            f.v[0] = 2.0
        with pytest.raises(AttributeError):
            f.t = np.array([0.0, 1.0])

    def test_restrict_step(self):
        f = SteppyPath.step(0.0, 1.0, [0.3, 0.7], [0.0, 1.0, 2.0])
        g = f.restrict(0.5, 1.0)
        assert g.limits(0.5)[1] == 1.0
        assert g.limits(0.7)[1] == 2.0
        assert g.t.tolist() == [0.5, 0.7, 0.7, 1.0] and g.v.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_restrict_pwl(self):
        g = ramp(0.2).restrict(0.0, 0.5)
        assert g.limits(0.5)[1] == pytest.approx(1.0)
        assert g.limits(0.3)[1] == pytest.approx(ramp(0.2).limits(0.3)[1])

    def test_completed_graph_fills_jumps(self):
        f = step_half()
        # both (0.5, 0) and (0.5, 1) are vertices
        assert set(f.v[f.t == 0.5]) == {0.0, 1.0}


class TestUniform:
    def test_identical(self):
        f = step_half()
        assert dist_uniform(f, f) == 0.0

    def test_shifted_steps(self):
        f = step_half()
        g = SteppyPath.step(0.0, 1.0, [0.6], [0.0, 1.0])
        assert dist_uniform(f, g) == 1.0  # they disagree on [0.5, 0.6)

    def test_vertical_difference(self):
        f = step_half()
        g = SteppyPath.step(0.0, 1.0, [0.5], [0.2, 1.3])
        assert dist_uniform(f, g) == pytest.approx(0.3)

    def test_interval_mismatch(self):
        with pytest.raises(ValueError):
            dist_uniform(step_half(), SteppyPath.step(0.0, 2.0, [0.5], [0.0, 1.0]))


class TestM1:
    def test_identical_paths(self):
        f = step_half()
        assert dist_m1(f, f) == (0.0, 0.0)

    def test_ramp_approximation(self):
        # a steep ramp is M1-close to the jump: bracket upper <= delta + grid slack
        delta = 0.05
        lo, up = dist_m1(step_half(), ramp(delta), grid_n=256)
        assert up <= delta + 4.0 / 256
        assert lo <= up
        # while uniformly they are far apart
        assert dist_uniform(step_half(), ramp(delta)) == pytest.approx(1.0, abs=1e-9)

    def test_time_shift(self):
        delta = 0.05
        g = SteppyPath.step(0.0, 1.0, [0.5 + delta], [0.0, 1.0])
        lo, up = dist_m1(step_half(), g, grid_n=256)
        assert up <= delta + 4.0 / 256
        assert lo <= delta + 1e-12

    def test_upper_bounded_by_uniform(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            f, g = random_step(gen), random_step(gen)
            lo, up = dist_m1(f, g)
            assert lo <= up + 1e-12
            assert up <= dist_uniform(f, g) + 1e-12

    def test_symmetry(self):
        gen = np.random.default_rng(1)
        for _ in range(20):
            f, g = random_step(gen), random_step(gen)
            assert dist_m1(f, g) == pytest.approx(dist_m1(g, f), abs=1e-12)

    def test_interval_splitting(self):
        # d(f, g, [a, c]) <= max(d on [a, b], d on [b, c]) up to grid slack
        gen = np.random.default_rng(2)
        grid_n = 128
        for _ in range(25):
            f, g = random_step(gen), random_step(gen)
            _, up = dist_m1(f, g, grid_n)
            _, up_l = dist_m1(f.restrict(0.0, 0.5), g.restrict(0.0, 0.5), grid_n)
            _, up_r = dist_m1(f.restrict(0.5, 1.0), g.restrict(0.5, 1.0), grid_n)
            assert up <= max(up_l, up_r) + 2.0 / grid_n

    def test_triangle_on_upper(self):
        gen = np.random.default_rng(3)
        grid_n = 128
        for _ in range(15):
            f, g, h = (random_step(gen) for _ in range(3))
            _, fg = dist_m1(f, g, grid_n)
            _, gh = dist_m1(g, h, grid_n)
            _, fh = dist_m1(f, h, grid_n)
            assert fh <= fg + gh + 4.0 / grid_n

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            dist_m1(step_half(), step_half(), grid_n=4)

    def test_lower_bound_endpoint_gap(self):
        f = SteppyPath.step(0.0, 1.0, [0.5], [0.0, 1.0])
        g = SteppyPath.step(0.0, 1.0, [0.5], [0.4, 1.0])
        lo, _ = dist_m1(f, g)
        assert lo >= 0.4 - 1e-12  # initial values differ by 0.4


def _densify_loop(poly, target):
    # reference: one segment at a time, k equal steps on a segment of
    # max-metric length seg, k = ceil(seg / target), at least 1
    pieces = [poly[:1]]
    for i in range(len(poly) - 1):
        seg = max(abs(poly[i + 1, 0] - poly[i, 0]), abs(poly[i + 1, 1] - poly[i, 1]))
        k = int(np.ceil(seg / target)) if seg > 0 else 1
        pieces.append(poly[i] + (np.arange(1, k + 1) / k)[:, None] * (poly[i + 1] - poly[i]))
    return np.vstack(pieces)


def test_densify_equals_the_segment_loop():
    gen = np.random.default_rng(4)
    zero_jump = SteppyPath.step(0.0, 1.0, [0.5], [1.0, 1.0])
    paths = [random_step(gen) for _ in range(30)] + [ramp(0.05), ramp(0.0), zero_jump]
    for f in paths:
        poly = np.column_stack([f.t, f.v])
        for target in (2.0 / 128, 2.0 / 256, 0.3):
            assert np.array_equal(skorokhod._densify(poly, target), _densify_loop(poly, target))


def test_m1_diagnostic_brackets_match_the_benchmark_reference():
    # The M1 diagnostic's GoF reads the same for any Frechet DP value, so a
    # wrong DP shows only in the brackets themselves.  Recompute all the
    # pairs exactly as the diagnostic draws them at seed 1 (the sequence of
    # perfbench/workloads.m1_brackets) and compare with the recorded ones.
    reference = json.loads(REFERENCE.read_text())
    assert reference["m1_seed"] == 1 and len(reference["m1_brackets"]) == 50
    gen = RngStream(1, stream_id=3).generator()
    for want in reference["m1_brackets"]:
        f = harness._random_step_path(gen)
        g = harness._random_step_path(gen)
        got = list(dist_m1(f, g, grid_n=128))
        for a, b in ((0.0, 0.5), (0.5, 1.0)):
            got += dist_m1(f.restrict(a, b), g.restrict(a, b), 128)
        assert got == want
