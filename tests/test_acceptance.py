"""Acceptance criteria, one test per numbered criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces the stated tolerances and runtime limits.
"""

import math
import random
import time

import rdlab as R
from rdlab.cache import cache_roundtrip
from rdlab.cli import run_command

GEQ_TOL = -1e-9


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_z_ball_slope_half():
    t0 = time.perf_counter()
    z = R.FreeAbelian(1)
    series = R.ratio_series(z, "ball", list(range(4, 257)), method="exact")
    fit = R.fit_exponent(series, window=(4, 256))
    elapsed = time.perf_counter() - t0
    ok = abs(fit.slope - 0.5) <= 0.02 and elapsed < 1.0
    report(1, ok, f"rd(Z) ball slope {fit.slope:.4f} (target 0.5 +- 0.02), "
                  f"{elapsed:.2f}s")


def test_criterion_02_z2_slope_and_growth_consistency():
    t0 = time.perf_counter()
    z2 = R.FreeAbelian(2)
    iz2 = R.enumerate_balls(z2, 48)
    ser = R.ratio_series(z2, "ball", list(range(4, 49)), method="exact")
    slope = R.fit_exponent(ser, window=(4, 48)).slope
    ok = abs(slope - 1.0) <= 0.05
    details = [f"rd(Z^2) ball slope {slope:.4f} (target 1.0 +- 0.05)"]

    cases = [(R.FreeAbelian(1), 32), (z2, 48), (R.DiscreteHeisenberg(), 10)]
    for spec, top in cases:
        index = iz2 if spec is z2 else R.enumerate_balls(spec, top)
        ns = list(range(4, top + 1))
        growth = R.fit_loglog(((n, index.ball_sizes[n]) for n in ns),
                              window=(4, top)).slope
        ratio = R.fit_exponent(
            R.ratio_series(spec, "ball", ns, method="exact"),
            window=(4, top)).slope
        gap = abs(ratio - growth / 2)
        ok = ok and gap <= 0.1
        details.append(f"{spec.descriptor()} |ratio-growth/2|={gap:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(2, ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_03_kesten_cross_check():
    t0 = time.perf_counter()
    f2 = R.FreeGroup(2)
    index = R.enumerate_balls(f2, 1)
    est = R.op_norm_trace_power(R.char_sphere(index, 1), exponent=200)
    elapsed = time.perf_counter() - t0
    kesten = 2 * math.sqrt(3)
    rel = abs(est.lower - kesten) / kesten
    monotone = all(b >= a - 1e-12 for a, b in zip(est.steps, est.steps[1:]))
    ok = rel <= 0.05 and monotone and elapsed < 10.0
    report(3, ok, f"||chi(S_1)|| on F_2 at exponent 200: {est.lower:.4f} vs "
                  f"2*sqrt(3)={kesten:.4f} ({100 * rel:.1f}% off), "
                  f"monotone={monotone}, {elapsed:.2f}s")


def test_criterion_04_ball_product_bound_sweeps():
    t0 = time.perf_counter()
    cases = [(R.FreeAbelian(1), 20), (R.FreeAbelian(2), 12),
             (R.DiscreteHeisenberg(), 8), (R.FreeGroup(2), 8),
             (R.FiniteCyclic(12), 10), (R.DiscreteHeisenberg(), 16),
             (R.parse_descriptor("Z^1xF2"), 6)]
    worst = math.inf
    details = []
    for spec, max_sum in cases:
        ok_g, slack, pair = R.ball_product_sweep(spec, max_sum)
        worst = min(worst, slack)
        details.append(f"{spec.descriptor()}<= {max_sum}: slack {slack:g}")
    elapsed = time.perf_counter() - t0
    ok = worst >= GEQ_TOL and elapsed < 120.0
    report(4, ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_05_doubling():
    f2_min, f2_ok = R.verify_doubling(R.FreeGroup(2), 2, 6)
    z_min, z_ok = R.verify_doubling(R.FreeAbelian(1), 2, 6)
    ok = f2_ok and f2_min >= 3.0 and (not z_ok) and z_min < 2.0
    report(5, ok, f"F_2 r=2 min l2 ratio {f2_min:.6f} >= 3; "
                  f"Z r=2 min ratio {z_min:.4f} < 2 (correctly fails)")


def test_criterion_06_series_l2_bounds():
    f2 = R.FreeGroup(2)
    details = []
    ok = True
    for alpha in (0.75, 1.0, 1.5):
        bounds = R.ball_series_l2_bounds(R.build_ball_series(f2, 2, alpha, 10))
        ok = ok and bounds.doubling_ok and \
            bounds.lower <= bounds.actual <= bounds.upper
        details.append(f"alpha={alpha:g}: {bounds.lower:.6f} <= "
                       f"{bounds.actual:.6f} <= {bounds.upper:.6f}")
    report(6, ok, "; ".join(details))


def test_criterion_07_series_product_bound():
    f2_rep = R.verify_series_product_bound(R.FreeGroup(2), 2, 1.0, 1.0, 6)
    z = R.FreeAbelian(1)
    z_rep = R.verify_series_product_bound(z, 1, 1.0, 1.0, 6)
    ok = f2_rep.ok and z_rep.ok
    report(7, ok, f"pointwise slack: F_2 r=2 {f2_rep.min_slack:.3g}, "
                  f"Z r=1 {z_rep.min_slack:.3g}")


def test_criterion_08_divergence_exhibit():
    z = R.FreeAbelian(1)
    ns = [8, 16, 32, 64, 128, 256]
    series = R.ratio_series(z, "ball", ns, method="exact")
    pts4, verdict4 = R.rd_constant_series(series, 0.4)
    values4 = [c for _, c in pts4]
    monotone = all(b >= a - 1e-12 for a, b in zip(values4, values4[1:]))
    growth = values4[-1] / values4[0]
    pts5, verdict5 = R.rd_constant_series(series, 0.5)
    bounded = all(c <= math.sqrt(2) + 1e-9 for _, c in pts5)
    ok = (monotone and growth >= 1.3 and verdict4 == "divergent"
          and verdict5 == "bounded trend" and bounded)
    report(8, ok, f"s=0.4: nondecreasing, C(256)/C(8)={growth:.4f} >= 1.3, "
                  f"verdict {verdict4}; s=0.5: verdict {verdict5}, "
                  f"max C={max(c for _, c in pts5):.6f} <= sqrt(2)")


def test_criterion_09_delocalization():
    z2 = R.FreeAbelian(2)
    index = R.enumerate_balls(z2, 48)
    fit = R.fit_exponent(
        R.ratio_series(z2, "ball", list(range(4, 49)), method="exact"),
        window=(4, 48))
    C = fit.constant
    c_prime = R.delocalize_constant(C, 1.0, 0.25)
    closed = 2.0 * C * (1.0 - 4.0 ** -0.25) ** -0.5
    formula_ok = abs(c_prime - closed) <= 1e-12 * closed

    rng = random.Random(0)
    pool = list(index.ball(16))
    bound_ok = True
    margin = math.inf
    for _ in range(100):
        supp = rng.sample(pool, rng.randint(1, 40))
        a = R.AlgebraElement(spec=z2,
                             coeffs={g: rng.uniform(0.0, 1.0) + 1e-9 for g in supp},
                             support_radius=16)
        exact = R.op_norm_positive_amenable(a).lower
        weighted = R.norm(a, ("l2s", 1.25))
        bound_ok = bound_ok and exact <= c_prime * weighted
        margin = min(margin, c_prime * weighted / exact)
    ok = formula_ok and bound_ok
    report(9, ok, f"C'({C:.4f}, s=1, eps=0.25) = {c_prime:.6f} matches closed "
                  f"form; 100 seeded elements satisfy ||a|| <= C'||a||_2,1.25 "
                  f"(min headroom {margin:.2f}x)")


def test_criterion_10_heredity():
    n_list = [4, 8, 16, 32]
    z_emb = R.standard_embedding("Z:Z^2")
    z_rep = R.verify_heredity(z_emb, n_list)
    e_emb = R.standard_embedding("e:Z^2")
    e_rep = R.verify_heredity(e_emb, n_list)
    ok = z_rep.ok and e_rep.ok
    report(10, ok, f"Z in Z^2 dominated at n={n_list}; trivial subgroup "
                   f"dominated at n={n_list}")


def test_criterion_11_sphere_series():
    z = R.FreeAbelian(1)
    rep1 = R.harmonic_sphere_sum(z, 1.0, 100)
    s100 = rep1.final()
    (_, inc25), (_, inc50) = rep1.increments
    rep3 = R.harmonic_sphere_sum(z, 3.0, 100)
    (_, j25), (_, j50) = rep3.increments
    ok = (abs(s100 - 8.39) <= 0.02
          and abs(inc50 - 2 * math.log(2)) <= 0.05 * 2 * math.log(2)
          and j50 < j25 < 0.01)
    report(11, ok, f"S(100)={s100:.4f} (8.39 +- 0.02); S(100)-S(50)="
                   f"{inc50:.4f} vs 2ln2={2 * math.log(2):.4f}; d=3 "
                   f"increments {j25:.2e} -> {j50:.2e} (converging)")


def test_criterion_12_determinism(tmp_path):
    import subprocess
    import sys

    ok_z2 = cache_roundtrip(R.FreeAbelian(2), 10, tmp_path / "z2.ballcache")
    ok_f2 = cache_roundtrip(R.FreeGroup(2), 6, tmp_path / "f2.ballcache")

    out = tmp_path / "report.json"
    args = ["report", "--group", "Z^2", "--range", "4:24:4",
            "--s-list", "0.9,1.0", "--method", "exact", "--out", str(out)]
    assert run_command(args) == 0
    first = out.read_bytes()
    # second run in a fresh process: byte-identical across invocations
    proc = subprocess.run([sys.executable, "-m", "rdlab.cli"] + args,
                          capture_output=True)
    assert proc.returncode == 0
    identical = out.read_bytes() == first
    ok = ok_z2 and ok_f2 and identical
    report(12, ok, f"cache roundtrips: Z^2 N=10 {ok_z2}, F_2 N=6 {ok_f2}; "
                   f"repeated report runs byte-identical: {identical}")
