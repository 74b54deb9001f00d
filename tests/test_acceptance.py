"""End-to-end acceptance checks at desk scale.

Monte-Carlo criteria run 500 replications for null calibration and 200 for
power cells; each check prints one pass/fail line (visible with pytest -s,
or in the captured output of a failing run).
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rpgauss import Ar1Process, InnovationFamily, RngStream, Series, rejection_rate
from rpgauss.epps import (draw_lambda, empirical_cf_vector, minimize_q, pseudo_inverse,
                          spectral_density_at_zero)
from rpgauss.fdr import by_reject, combined_p
from rpgauss.lobato_velasco import f_hat_k
from rpgauss.projection import StickBreakingParams, draw_projection_vector, stick_breaking
from rpgauss.simulation import WstarProcess, simulate_wstar, simulate_wstar_path

from oracles import (erf_norm_cdf, f_hat_brute, fdr_p0, fdr_reject,
                     ks_critical, ks_distance, spectral_brute)

ALPHA = 0.05


def _emit(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_null_calibration_skewness_kurtosis():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=1000, past=1000)
    res = rejection_rate(proc, "G", reps=500, alpha=ALPHA, rng=RngStream(1))
    _emit(1, 0.025 <= res.rate <= 0.085,
          f"G null rate at n=1000: {res.rate:.4f} in [0.025, 0.085]")


def test_criterion_02_null_calibration_cf_fixed_frequencies():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=1000, past=1000)
    res = rejection_rate(proc, "E", reps=500, alpha=ALPHA, rng=RngStream(2))
    _emit(2, 0.02 <= res.rate <= 0.08,
          f"E null rate at n=1000: {res.rate:.4f} in [0.02, 0.08]")


def test_criterion_03_null_calibration_projection_test():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=100, past=1000)
    res = rejection_rate(proc, "RP", reps=500, alpha=ALPHA, rng=RngStream(3))
    _emit(3, 0.04 <= res.rate <= 0.12,
          f"RP null rate at n=100: {res.rate:.4f} in [0.04, 0.12]")


def test_criterion_04_power_lognormal_marginal():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_LOGNORMAL, n=100, past=1000)
    res = rejection_rate(proc, "RP", reps=200, alpha=ALPHA, rng=RngStream(4))
    _emit(4, res.rate >= 0.95, f"RP lognormal rate at n=100: {res.rate:.4f} >= 0.95")


def test_criterion_05_power_strong_dependence():
    proc = Ar1Process(q=0.9, innovation=InnovationFamily.BETA_2_1, n=100, past=1000)
    res = rejection_rate(proc, "RP", reps=200, alpha=ALPHA, rng=RngStream(5))
    _emit(5, res.rate >= 0.85, f"RP beta(2,1) q=.9 rate at n=100: {res.rate:.4f} >= 0.85")


@pytest.fixture(scope="module")
def wstar_rates():
    proc = WstarProcess(p=5, n=1000)
    rng = RngStream(6)
    return {
        "rp4": rejection_rate(proc, "RP", reps=200, alpha=ALPHA, rng=rng),
        "rp8": rejection_rate(proc, "RPmulti:4", reps=200, alpha=ALPHA, rng=rng),
        "e_raw": rejection_rate(proc, "E", reps=200, alpha=ALPHA, rng=rng),
    }


def test_criterion_06_gaussian_marginal_alternative(wstar_rates):
    rp4 = wstar_rates["rp4"].rate
    e_raw = wstar_rates["e_raw"].rate
    _emit(6, rp4 >= 0.50 and e_raw <= 0.08,
          f"on the pairwise-independent process: RP rate {rp4:.4f} >= 0.50, "
          f"raw E rate {e_raw:.4f} <= 0.08")


def test_criterion_07_multi_projection_gain(wstar_rates):
    rp4 = wstar_rates["rp4"].rate
    rp8 = wstar_rates["rp8"].rate
    _emit(7, rp8 > rp4 and rp8 >= 0.70,
          f"8-projection rate {rp8:.4f} > 4-projection rate {rp4:.4f} and >= 0.70")


def test_criterion_08_fdr_exactness():
    gen = np.random.default_rng(8)
    alphas = np.array([0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9])
    worst = 0.0
    consistent = True
    for _ in range(10_000):
        k = int(gen.integers(1, 10))
        ps = gen.random(k) ** gen.uniform(0.3, 3.0)
        mine = combined_p(ps)
        worst = max(worst, abs(mine - fdr_p0(ps)))
        for alpha in alphas:
            if by_reject(ps, float(alpha))[0] != (mine <= alpha):
                consistent = False
        if fdr_reject(ps, 0.05) != (mine <= 0.05):
            consistent = False
    _emit(8, worst <= 1e-12 and consistent,
          f"combined p matches independent formula (max gap {worst:.2e}), "
          f"reject/combined consistent on 1e4 vectors")


def test_criterion_09a_penrose_identities():
    gen = np.random.default_rng(90)
    ok = True
    for i in range(100):
        if i % 2 == 0:
            rank = 1 + (i // 2) % 4
            b = gen.standard_normal((rank, 4))
            m = b.T @ b                      # PSD, rank-deficient for rank < 4
        else:
            a = gen.standard_normal((4, 4))
            m = (a + a.T) / 2.0              # symmetric indefinite
        plus = pseudo_inverse(m)
        ok &= bool(np.allclose(m @ plus @ m, m, atol=1e-8))
        ok &= bool(np.allclose(plus @ m @ plus, plus, atol=1e-8))
        ok &= bool(np.allclose((m @ plus).T, m @ plus, atol=1e-8))
        ok &= bool(np.allclose((plus @ m).T, plus @ m, atol=1e-8))
    _emit(9, ok, "9a: all four pseudo-inverse identities hold on 100 matrices")


def _grid_minimum(ghat, gplus, lam, mu0, gamma0, points=200):
    sd = math.sqrt(gamma0)
    nus = np.linspace(mu0 - 3.0 * sd, mu0 + 3.0 * sd, points)
    rhos = np.linspace(gamma0 / 4.0, 4.0 * gamma0, points)
    lv = lam.values
    amp = np.exp(-0.5 * np.outer(rhos, lv**2))
    coss = np.cos(np.outer(nus, lv))
    sins = np.sin(np.outer(nus, lv))
    model = np.empty((points, points, 2 * lv.size))
    for j in range(lv.size):
        model[:, :, 2 * j] = coss[:, None, j] * amp[None, :, j]
        model[:, :, 2 * j + 1] = sins[:, None, j] * amp[None, :, j]
    diff = ghat[None, None, :] - model
    return float(np.einsum("ijk,kl,ijl->ij", diff, gplus, diff).min())


def test_criterion_09b_minimizer_beats_grid():
    rng = RngStream(91)
    ok = True
    worst = -np.inf
    for i in range(20):
        n = int(80 + rng.integers(200))
        base = rng.standard_normal(n)
        if i % 3 == 1:
            base = np.exp(base)          # markedly non-Gaussian inputs too
        y = Series(base)
        lam = draw_lambda(y.autocovariance(0), "fixed")
        ghat = empirical_cf_vector(y, lam)
        gplus = pseudo_inverse(2.0 * math.pi * spectral_density_at_zero(y, lam))
        _, _, q_min = minimize_q(y, lam)
        gap = q_min - _grid_minimum(ghat, gplus, lam, y.mean(), y.autocovariance(0))
        worst = max(worst, gap)
        ok &= gap <= 1e-6
    _emit(9, ok, f"9b: fit endpoint beats the 200x200 grid on 20 series "
                 f"(worst gap {worst:.2e} <= 1e-6)")


def test_criterion_09c_spectral_matrix_brute_force():
    rng = RngStream(92)
    ok = True
    for _ in range(50):
        n = int(8 + rng.integers(57))
        y = rng.standard_normal(n)
        lam = draw_lambda(float(np.var(y)), "fixed")
        mine = spectral_density_at_zero(Series(y), lam)
        brute = spectral_brute(y, lam.values)
        ok &= float(np.max(np.abs(mine - brute))) <= 1e-10 * (np.abs(brute).max() + 1e-300)
    _emit(9, ok, "9c: spectral matrix matches the double-loop evaluation on 50 series")


def test_criterion_09d_long_run_variance_brute_force():
    rng = RngStream(93)
    ok = True
    for _ in range(50):
        n = int(10 + rng.integers(55))
        y = rng.standard_normal(n)
        tau = int(1 + rng.integers(n - 1))
        for k in (3, 4):
            mine = f_hat_k(Series(y), k, tau)
            brute, scale = f_hat_brute(y, k, tau)
            ok &= abs(mine - brute) <= 1e-10 * (scale + 1e-300)
    _emit(9, ok, "9d: long-run variance estimators match brute force on 50 series")


def test_criterion_10_projection_construction():
    rng = RngStream(10)
    norm_ok = True
    for a1, a2 in ((100.0, 1.0), (2.0, 7.0)):
        params = StickBreakingParams(a1, a2, n_cap=1000, delta=1e-15)
        for _ in range(1000):
            pv = draw_projection_vector(params, rng)
            norm_ok &= abs(pv.weighted_norm_sq() - 1.0) <= 1e-12

    # geometric stick-length means E[l_k] = a(1-a)^k over 1e5 draws; the
    # mixing parameters support the full k <= 10 sweep, the concentrated
    # pair saturates float64 beyond k ~ 7 so its sweep stops at k = 5
    decay_ok = True
    detail = []
    for a1, a2, k_max, seed in ((2.0, 7.0, 10, 1001), (100.0, 1.0, 5, 1002)):
        params = StickBreakingParams(a1, a2, n_cap=k_max + 1, delta=1e-30)
        stream = RngStream(seed)
        draws = np.zeros((100_000, k_max + 1))
        for row in range(draws.shape[0]):
            sticks = stick_breaking(params, stream)
            draws[row, : sticks.size] = sticks
        alpha = a1 / (a1 + a2)
        worst_z = 0.0
        for k in range(k_max + 1):
            se = draws[:, k].std(ddof=1) / math.sqrt(draws.shape[0])
            z = abs(draws[:, k].mean() - alpha * (1.0 - alpha) ** k) / se
            worst_z = max(worst_z, z)
            decay_ok &= z <= 5.0
        detail.append(f"beta({a1:g},{a2:g}) worst |z| {worst_z:.2f}")
    _emit(10, norm_ok and decay_ok,
          "weighted norms within 1e-12 on 1000 draws per design; "
          "stick means within 5 SE of the geometric decay (" + "; ".join(detail) + ")")


def test_criterion_11_wstar_structure():
    rng = RngStream(11)
    p = 5
    blocks_checked = 0
    sums_ok = True
    for i in range(1000):
        path = simulate_wstar_path(WstarProcess(p=p, n=103), rng.for_replication(i))
        if path.y0 == 0:
            continue
        start = (p - path.u) % p
        for lo in range(start, path.levels.size - p + 1, p):
            blocks_checked += 1
            sums_ok &= int(path.levels[lo:lo + p].sum()) == p * (p - 1) // 2

    sample = simulate_wstar(WstarProcess(p=p, n=10_000), RngStream(111)).values
    ks = ks_distance(sample, erf_norm_cdf)
    crit = ks_critical(0.01, 10_000)
    _emit(11, sums_ok and blocks_checked > 10_000 and ks < crit,
          f"block sums exact on {blocks_checked} complete blocks; "
          f"marginal KS {ks:.5f} < {crit:.5f}")


def test_criterion_12_cli_determinism(tmp_path):
    vals = RngStream(12).standard_normal(400)
    data = tmp_path / "sample.txt"
    data.write_text("\n".join(repr(float(v)) for v in vals) + "\n")

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "rpgauss", *argv],
                              capture_output=True, check=False)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    test_argv = ["test", "--input", str(data), "--test", "RP", "--seed", "7"]
    sim_argv = ["simulate", "--test", "GE", "--n", "100", "--q", "0,0.5",
                "--dist", "normal", "--reps", "20", "--past", "100", "--seed", "7"]
    ok = run(test_argv) == run(test_argv) and run(sim_argv) == run(sim_argv)
    _emit(12, ok, "repeated CLI invocations with one seed are byte-identical")
