"""Acceptance suite: one criterion per test, one printed verdict line each.

Reference setup unless stated otherwise: arrival intensity 1, session
durations Pareto(index 1.5, scale 1) so E[Y] = 3, unit transmission
rates, pointwise functionals (h = 0), fixed seeds.  Each test prints
  A<k> <what>: PASS|FAIL (<numbers>)
directly to the terminal (bypassing capture) and then asserts.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

from stableshot import (
    JointLaw,
    RngStream,
    StableParams,
    TailDist,
    TrafficConfig,
    build_path,
    c_alpha,
    collect_cycle_lengths,
    cycle_tail_table,
    decompose_cycles,
    dist_m1,
    dist_uniform,
    hill_alpha,
    ks_two_sample,
    sample_stable,
    stationary_window_draws,
)
from stableshot.harness import Scenario, _z_task, make_functional, run
from stableshot.skorokhod import SteppyPath

from oracles import cycle_integrals, ecf_distance, fresh_sessions

ALPHA = 1.5
SEED = 20260826
E3 = math.exp(3.0)


def law(w0=1.0):
    return JointLaw(TailDist.pareto(ALPHA, 1.0), "constant", (w0,))


@pytest.fixture
def announce(capsys):
    def _announce(tag, ok, detail):
        with capsys.disabled():
            print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
        assert ok, f"{tag}: {detail}"

    return _announce


def z_bank(n, T, lam, phi_spec, cal0, r0=0, seed=SEED):
    """Replicates of the normalized centered integral at horizon T."""
    sc = Scenario(
        name="acceptance", lam=lam, alpha=ALPHA, T_ladder=(float(T),),
        replicates=n, seed=seed,
    )
    return _z_task((sc, 0, r0, r0 + n, (make_functional(phi_spec),), (cal0,)))[0]


# shared replicate banks (the expensive simulations, reused across criteria)


@pytest.fixture(scope="module")
def z_identity_1e4():
    return z_bank(2000, 1e4, 1.0, "identity", 3.0)


@pytest.fixture(scope="module")
def z_identity_1e3():
    return z_bank(2000, 1e3, 1.0, "identity", 3.0)


@pytest.fixture(scope="module")
def z_identity_quarter():
    # independent replicate bank (disjoint stream ids) at T = 0.25 * 1e4
    return z_bank(2000, 2.5e3, 1.0, "identity", 3.0, r0=2000)


def test_a1_cycle_mean(announce):
    # mean complete-cycle length = exp(lam E Y)/lam, three distinct seeds
    means = []
    for seed in (SEED, SEED + 1, SEED + 2):
        lengths = collect_cycle_lengths(1.0, law(), 100_000, RngStream(seed, 10))
        means.append(float(lengths.mean()))
    rel = max(abs(m - E3) / E3 for m in means)
    announce(
        "A1 cycle mean",
        rel <= 0.05,
        f"means={[f'{m:.3f}' for m in means]} target={E3:.4f} max rel dev={rel:.4f}",
    )


def test_a2_idle_probability(announce):
    # sparse load lam = 0.3: P(X(0) = 0) = exp(-0.9); occupancy ~ Poisson(0.9)
    lam, nu = 0.3, 0.9
    cfg = TrafficConfig(lam=lam, law=law(), horizon=1.0, rng=RngStream(SEED, 11))
    levels = stationary_window_draws(cfg, 100_000, RngStream(SEED, 11))
    counts = np.rint(levels).astype(int)
    p0 = float((counts == 0).mean())
    ok0 = abs(p0 - math.exp(-nu)) <= 0.01
    # chi-square GOF with tail bin chosen so expected counts stay >= 5
    kmax = 6
    obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pk = sps.poisson.pmf(np.arange(kmax), nu)
    expected = np.append(pk, 1.0 - pk.sum()) * counts.size
    chi2 = float(((obs - expected) ** 2 / expected).sum())
    pval = float(sps.chi2.sf(chi2, df=kmax))
    announce(
        "A2 idle probability / stationarity",
        ok0 and pval >= 0.01,
        f"p0={p0:.4f} target={math.exp(-nu):.4f} chi2 p={pval:.3f}",
    )


@pytest.fixture(scope="module")
def big_cycle_sample():
    return collect_cycle_lengths(1.0, law(), 1_000_000, RngStream(SEED, 12))


def test_a3_cycle_tail(announce, big_cycle_sample):
    # t P(C > a(t) x) -> exp(lam E Y) x^(-alpha) at t = 1e3, x in {1, 2}
    cells = cycle_tail_table(
        big_cycle_sample, TailDist.pareto(ALPHA), 1.0, [1.0, 2.0], [1e3, 1e4, 1e5]
    )
    ratios = {(c.t, c.x): c.empirical / c.theoretical for c in cells}
    at_1e3 = [c for c in cells if c.t == 1e3]
    rels = [abs(c.empirical - c.theoretical) / c.theoretical for c in at_1e3]
    ok_tail = all(r <= 0.15 for r in rels) and all(c.reliable for c in at_1e3)
    est, _ = hill_alpha(big_cycle_sample[:100_000], 1000)
    ok_hill = 1.3 <= est <= 1.7
    # the pre-limit ratio at t = 1e3 carries a systematic finite-t excess of
    # roughly 30-40% that shrinks steadily with t; the full ratio table is
    # printed so the convergence toward 1 is visible alongside the verdict
    conv = " ".join(
        f"t={t:.0e},x={x:g}:{r:.3f}" for (t, x), r in sorted(ratios.items())
    )
    announce(
        "A3 cycle tail + Hill index",
        ok_tail and ok_hill,
        f"rel devs at t=1e3={[f'{r:.3f}' for r in rels]} hill={est:.3f} "
        f"| ratios emp/theory: {conv}",
    )


def test_a4_renewal_identity(announce):
    # mean per-cycle integral of phi = stationary mean of phi * mean cycle length
    horizon = 2.3e6  # ~ 1e5 complete cycles
    cfg = TrafficConfig(lam=1.0, law=law(), horizon=horizon, rng=RngStream(SEED, 13))
    path = build_path(fresh_sessions(cfg), 0.0, horizon)
    dec = decompose_cycles(path, horizon)
    ok_all, details = True, []
    for phi, e0 in [
        (make_functional("clipped:1.0"), 1.0 - math.exp(-3.0)),  # E min(X, 1) = P(X >= 1)
        (make_functional("idle"), math.exp(-3.0)),
    ]:
        z = cycle_integrals(path, dec, phi)
        d = z - e0 * dec.lengths
        se = float(d.std(ddof=1) / math.sqrt(d.size))
        dev = abs(float(d.mean()))
        ok_all &= dev <= 4 * se
        details.append(f"{phi.name}: dev={dev:.4f} 4se={4 * se:.4f} n={d.size}")
    announce("A4 renewal identity", ok_all, "; ".join(details))


def test_a5_stable_limit_and_scale_sign(announce, z_identity_1e3, z_identity_1e4):
    # marginal law of the centered normalized integral vs the predicted stable
    # law; the mirrored parametrization must be rejected
    sigma = c_alpha(ALPHA) ** (1.0 / ALPHA)
    ref_pos = sample_stable(
        StableParams(ALPHA, sigma, 1.0, 0.0), 2000, RngStream(SEED, 14)
    )
    ref_neg = sample_stable(
        StableParams(ALPHA, sigma, -1.0, 0.0), 2000, RngStream(SEED, 15)
    )
    ks3 = ks_two_sample(z_identity_1e3, ref_pos, "T=1e3")
    ks4 = ks_two_sample(z_identity_1e4, ref_pos, "T=1e4")
    ks_neg = ks_two_sample(z_identity_1e4, ref_neg, "mirrored")
    ok = (
        ks4.stat <= 0.08
        and ks4.stat <= ks3.stat  # finite-horizon bias shrinks along the ladder
        and not ks_neg.passed
    )
    announce(
        "A5 stable limit + scale-constant sign",
        ok,
        f"ks(1e3)={ks3.stat:.4f} ks(1e4)={ks4.stat:.4f} "
        f"ks(mirrored)={ks_neg.stat:.4f} thr={ks_neg.threshold:.4f}",
    )


def test_a6_skewness_sign(announce):
    # idle-indicator functional at sparse load: limit is totally left-skewed
    lam, nu = 0.3, 0.9
    z = z_bank(2000, 1e4, lam, "idle", math.exp(-nu))
    sigma = (lam * c_alpha(ALPHA) * math.exp(-ALPHA * nu)) ** (1.0 / ALPHA)
    t_grid = np.linspace(-5, 5, 21)
    d_neg = ecf_distance(z, StableParams(ALPHA, sigma, -1.0, 0.0), t_grid)
    d_pos = ecf_distance(z, StableParams(ALPHA, sigma, 1.0, 0.0), t_grid)
    med = float(np.median(z))
    mean = float(np.mean(z))
    # a mean-zero totally left-skewed stable law (beta = -1, 1 < alpha < 2)
    # puts its heavy tail on the left, so its median sits strictly above the
    # mean: left skewness shows up as mean < median, not as a negative median
    ref = sample_stable(
        StableParams(ALPHA, sigma, -1.0, 0.0), 100_000, RngStream(SEED, 15)
    )
    ref_med = float(np.median(ref))
    ok = (
        mean < med
        and d_neg < d_pos
        and abs(med - ref_med) <= 0.1 * sigma
    )
    announce(
        "A6 skewness sign (idle functional)",
        ok,
        f"mean={mean:.4f} median={med:.4f} (limit-law median {ref_med:.4f}) "
        f"ecf(beta=-1)={d_neg:.4f} ecf(beta=+1)={d_pos:.4f}",
    )


def test_a7_cdf_rate(announce):
    # time-average CDF error at x = 1: dispersion decays like T^(1/alpha - 1)
    sc = Scenario(
        name="acceptance", lam=1.0, alpha=ALPHA, T_ladder=(1e3, 1e4, 1e5),
        replicates=500, x_grid=(1.0,), seed=SEED + 7, analyses=("cdf_rate",),
    )
    block = run(sc).blocks["cdf_rate"]
    assert block["K"][0] == pytest.approx(4.0 * math.exp(-3.0))  # Poisson(3) CDF at 1
    res = block["per_x"][1.0]
    slope, d_sample = res["slope"], res["d_sample"]
    ok = -0.43 <= slope <= -0.23 and res["left_skew"]
    announce(
        "A7 CDF-error convergence rate",
        ok,
        f"slope={slope:.3f} (target -1/3, stderr={res['stderr']:.3f}) "
        f"mean={d_sample.mean():.3f} median={np.median(d_sample):.3f}",
    )


def test_a8_self_similarity(announce, z_identity_1e4, z_identity_quarter):
    # u^(-1/alpha) Z_T(u) is Z_{uT}(1) for a(t) = t^(1/alpha), so Z(u) rescaled
    # matching Z(1) in law is the z at T = 2.5e3 matching the z at T = 1e4
    ks = ks_two_sample(z_identity_quarter, z_identity_1e4, "self-similarity")
    announce(
        "A8 self-similarity of the limit",
        ks.passed,
        f"ks={ks.stat:.4f} thr={ks.threshold:.4f}",
    )


def test_a9_m1_properties(announce):
    gen = np.random.default_rng(SEED)
    grid_n = 128
    ok = True
    worst_split = -math.inf
    for _ in range(200):
        n, m = gen.integers(1, 8, size=2)
        f = SteppyPath.step(
            0.0, 1.0,
            np.sort(gen.uniform(0.02, 0.98, n)), gen.normal(size=int(n) + 1),
        )
        g = SteppyPath.step(
            0.0, 1.0,
            np.sort(gen.uniform(0.02, 0.98, m)), gen.normal(size=int(m) + 1),
        )
        lo, up = dist_m1(f, g, grid_n)
        ok &= up <= dist_uniform(f, g) + 1e-12 and lo <= up + 1e-12
        _, up_l = dist_m1(f.restrict(0.0, 0.5), g.restrict(0.0, 0.5), grid_n)
        _, up_r = dist_m1(f.restrict(0.5, 1.0), g.restrict(0.5, 1.0), grid_n)
        worst_split = max(worst_split, up - max(up_l, up_r))
    ok &= worst_split <= 2.0 / grid_n
    # steep-ramp example: M1-close to the jump despite uniform distance 1
    delta = 0.05
    f = SteppyPath.step(0.0, 1.0, [0.5], [0.0, 1.0])
    g = SteppyPath([0.0, 0.5 - delta, 0.5, 1.0], [0.0, 0.0, 1.0, 1.0])
    _, up_ramp = dist_m1(f, g, grid_n=256)
    ok &= up_ramp <= delta + 4.0 / 256
    announce(
        "A9 M1 bracket properties",
        ok,
        f"worst split excess={worst_split:.4f} (tol {2.0 / grid_n:.4f}) "
        f"ramp upper={up_ramp:.4f} (tol {delta + 4.0 / 256:.4f})",
    )


def test_a10_sampler_cf_consistency(announce):
    t_grid = np.linspace(-5, 5, 21)
    worst, worst_case = -1.0, None
    for i, alpha in enumerate((1.2, 1.5, 1.8)):
        for j, beta in enumerate((-1.0, 0.0, 1.0)):
            p = StableParams(alpha, 1.0, beta, 0.0)
            x = sample_stable(p, 10_000, RngStream(SEED, 16).substream(i, j))
            d = ecf_distance(x, p, t_grid)
            if d > worst:
                worst, worst_case = d, (alpha, beta)
    announce(
        "A10 stable sampler / CF consistency",
        worst < 3e-2,
        f"worst ecf distance={worst:.4f} at (alpha, beta)={worst_case}",
    )
