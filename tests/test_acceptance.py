"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import const, scalar_system, system_2x2, time_periodic_l
from wavekit.cauchy import (
    bump_initial,
    logistic_envelope,
    measure_spreading_speed,
    nonexistence_probe,
    simulate,
)
from wavekit.coeffs import KPPSystem, Mode, PeriodicField, nondimensionalize, validate_assumptions
from wavekit.dispersion import minimal_speed, persistence_check, speed_roots, static_frame
from wavekit.eigen import EigenEvaluator
from wavekit.errors import InputError
from wavekit.frame import (
    RationalDirection,
    compute_periods,
    make_frame,
    rational_basis,
    transform_coefficients,
)
from wavekit.waves import (
    build_envelopes_critical,
    build_envelopes_supercritical,
    critical_fixed_point,
    cylinder_grid,
    fixed_point_truncated,
    verify_wave,
)


def report(num, ok, detail):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def wave_frame(sys, c):
    return transform_coefficients(
        nondimensionalize(sys), make_frame([1.0], float(c), mode="space-homogeneous")
    )


@pytest.fixture(scope="module")
def systems():
    return {
        "scalar": scalar_system(),
        "scalar_tper": scalar_system(l_field=time_periodic_l(1.0, 1.0)),
        "2x2": system_2x2(),
        "2x2_tper": system_2x2(l12_field=time_periodic_l(1.0, 1.0), l21=1.0),
    }


@pytest.fixture(scope="module")
def curves(systems):
    out = {}
    for name, e in (("scalar", [1]), ("scalar_tper", [1]), ("2x2", [1]), ("2x2_tper", [1])):
        out[name] = minimal_speed(EigenEvaluator(static_frame(systems[name], e=e)))
    return out


@pytest.fixture(scope="module")
def scalar_wave(systems, curves):
    curve = curves["scalar"]
    roots = speed_roots(curve, 2.5)
    fsc = wave_frame(systems["scalar"], 2.5)
    grid = cylinder_grid(fsc, 40.0, n_z=2048)
    env = build_envelopes_supercritical(fsc, roots, grid)
    profile = fixed_point_truncated(env, grid, tol=1e-8)
    return roots, env, profile


@pytest.fixture(scope="module")
def critical_wave(systems, curves):
    curve = curves["scalar"]
    fsc = wave_frame(systems["scalar"], curve.c_star)
    grid = cylinder_grid(fsc, 60.0, n_z=6001)
    env = build_envelopes_critical(fsc, curve, grid)
    profile = critical_fixed_point(env, grid, tol=1e-8)
    return env, profile


@pytest.fixture(scope="module")
def system_wave(systems, curves):
    curve = curves["2x2"]
    roots = speed_roots(curve, 3.0)
    fsc = wave_frame(systems["2x2"], 3.0)
    grid = cylinder_grid(fsc, 40.0, n_z=2048)
    env = build_envelopes_supercritical(fsc, roots, grid)
    profile = fixed_point_truncated(env, grid, tol=1e-8)
    return roots, env, profile


def test_criterion_1_scalar_minimal_speed(systems):
    t0 = time.time()
    ev = EigenEvaluator(static_frame(systems["scalar"], e=[1]))
    pers = persistence_check(ev)
    curve = minimal_speed(ev)
    elapsed = time.time() - t0
    ok = (
        pers.classification == "persistent"
        and abs(curve.c_star - 2.0) < 1e-3
        and abs(curve.mu_star - 1.0) < 1e-3
        and elapsed < 10.0
    )
    report(1, ok, f"c*={curve.c_star:.6f} mu*={curve.mu_star:.6f} in {elapsed:.1f}s")


def test_criterion_2_advection_shift():
    speeds = {}
    for e in (1, -1):
        sys = scalar_system(q=0.7)
        speeds[e] = minimal_speed(EigenEvaluator(static_frame(sys, e=[e]))).c_star
    left, right = speeds[1], speeds[-1]
    ok = abs(left - 1.3) < 1e-3 and abs(right - 2.7) < 1e-3
    report(2, ok, f"leftward={left:.6f} rightward={right:.6f} (2 -/+ 0.7)")


def test_criterion_3_critical_slope_identity(curves):
    worst = 0.0
    for name in ("scalar", "scalar_tper", "2x2"):
        curve = curves[name]
        dlam = curve.evaluator.derivative(curve.mu_star)
        worst = max(worst, abs(dlam + curve.c_star))
    report(3, worst < 1e-2, f"max |dlambda/dmu(mu*) + c*| = {worst:.2e} over 3 systems")


def test_criterion_4_concavity(curves):
    rng = np.random.default_rng(7)
    worst = -np.inf
    for name in ("scalar", "scalar_tper", "2x2"):
        ev = curves[name].evaluator
        for _ in range(20):
            mu = rng.uniform(0.5, 3.0)
            h = rng.uniform(0.05, min(0.4, mu / 2))
            d2 = ev(mu - h) - 2 * ev(mu) + ev(mu + h)
            worst = max(worst, d2)
    report(4, worst <= 1e-6, f"max second difference = {worst:.2e} (20 triples x 3 systems)")


def test_criterion_5_eigen_residuals(curves, scalar_wave, critical_wave, system_wave):
    pairs = []
    for curve in curves.values():
        # the pair of every mu the searches solved: a search keeps only (lambda, lambda')
        pairs.extend(curve.evaluator.pair(mu) for mu, _ in curve.evaluator.samples)
    for fix in (scalar_wave, system_wave):
        pairs.extend([fix[1].eig_wedge, fix[1].eig_gamma])
    pairs.extend([critical_wave[0].eig_star, critical_wave[0].eig_gamma])
    worst = max(p.residual for p in pairs)
    report(5, worst < 1e-5, f"max eigen residual = {worst:.2e} over {len(pairs)} eigenpairs")


def test_criterion_6_oracle_equivalence(curves):
    # constant coefficients: lambda = -(mu^2 a - mu q e) - perron(L)
    rng = np.random.default_rng(3)
    worst_const = 0.0
    for name, q, e in (("scalar", 0.0, 1.0), ("2x2", 0.0, 1.0)):
        ev = curves[name].evaluator
        sys = nondimensionalize(
            scalar_system() if name == "scalar" else system_2x2()
        )
        N = sys.N
        L = np.array([[float(sys.L[i][j].eval(0.0, [0.0])) for j in range(N)] for i in range(N)])
        lam_pf = max(np.linalg.eigvals(L).real)
        for mu in (0.4, 1.0, 1.7):
            oracle = -(mu**2 * 1.0 - mu * q * e) - lam_pf
            worst_const = max(worst_const, abs(ev(mu) - oracle))
    # time-periodic reductions: independent high-accuracy monodromy oracle
    def monodromy_oracle(Lfun, N, mu):
        def rhs(t, y):
            M = Lfun(t) + np.eye(N) * mu * mu
            return (M @ y.reshape(N, N)).reshape(-1)
        sol = solve_ivp(rhs, (0.0, 1.0), np.eye(N).reshape(-1), rtol=1e-12, atol=1e-14)
        rho = max(abs(np.linalg.eigvals(sol.y[:, -1].reshape(N, N))))
        return -math.log(rho)

    worst_tper = 0.0
    for name, Lfun, N in (
        ("scalar_tper", lambda t: np.array([[1 + np.sin(2 * np.pi * t)]]), 1),
        ("2x2_tper", lambda t: np.array([[0.0, 1 + np.sin(2 * np.pi * t)], [1.0, 0.0]]), 2),
    ):
        ev = curves[name].evaluator
        for mu in (0.5, 1.0):
            worst_tper = max(worst_tper, abs(ev(mu) - monodromy_oracle(Lfun, N, mu)))
    ok = worst_const < 1e-6 and worst_tper < 1e-6
    report(6, ok, f"const oracle gap {worst_const:.2e}, monodromy oracle gap {worst_tper:.2e}")


def test_criterion_7_scalar_wave(scalar_wave):
    roots, env, profile = scalar_wave
    ver = verify_wave(profile, floor_required=0.9)
    ok = (
        profile.trapping_violation < 1e-6
        and profile.pde_residual < 1e-5
        and abs(ver.decay_rate - 0.5) <= 0.05
        and ver.upstream_floor >= 0.9
    )
    report(7, ok, (
        f"trapping={profile.trapping_violation:.2e} residual={profile.pde_residual:.2e} "
        f"decay={ver.decay_rate:.4f} floor={ver.upstream_floor:.3f}"
    ))


def test_criterion_8_critical_wave(critical_wave):
    env, profile = critical_wave
    ver = verify_wave(profile)
    ok = profile.trapping_violation < 1e-5 and abs(ver.shape_slope - 1.0) <= 0.2
    report(8, ok, (
        f"trapping={profile.trapping_violation:.2e} shape slope={ver.shape_slope:.4f} "
        f"(g_gamma={env.g_gamma:.4f})"
    ))


def test_criterion_9_system_wave(system_wave):
    roots, env, profile = system_wave
    ver = verify_wave(profile, decay_rtol=0.05)
    ok = (
        profile.trapping_violation < 1e-5
        and abs(ver.decay_rate - 1.0) <= 0.05
        and abs(roots.mu_wedge - 1.0) < 1e-6
    )
    report(9, ok, (
        f"trapping={profile.trapping_violation:.2e} decay={ver.decay_rate:.4f} "
        f"vs quadratic-oracle root mu_wedge={roots.mu_wedge:.6f}"
    ))


def test_criterion_10_simulation_cross_check(systems, curves):
    cases = []
    # (i) scalar KPP
    t0 = time.time()
    x = np.linspace(-150, 150, 4096)
    run = simulate(systems["scalar"], bump_initial(x, 1), 60.0, 150.0, n_x=4096)
    m = measure_spreading_speed(run, 0.5)
    cases.append(("scalar", m.speed_right, 2.0, time.time() - t0))
    # (ii) scalar with advection: rightward matches c* for e=-1, leftward e=+1;
    # separate runs per side so the fast front's guard does not cut the slow
    # front's fit window short
    t0 = time.time()
    sys_q = scalar_system(q=0.7)
    run = simulate(sys_q, bump_initial(x, 1), 44.0, 150.0, n_x=4096)
    m = measure_spreading_speed(run, 0.5, sides=("right",))
    cases.append(("advection right", m.speed_right, 2.7, time.time() - t0))
    t0 = time.time()
    run = simulate(sys_q, bump_initial(x, 1), 90.0, 150.0, n_x=4096)
    m = measure_spreading_speed(run, 0.5, sides=("left",))
    cases.append(("advection left", m.speed_left, 1.3, time.time() - t0))
    # (iii) 2x2 with L12(t) = 1 + sin(2 pi t)
    t0 = time.time()
    run = simulate(systems["2x2_tper"], bump_initial(x, 2), 60.0, 150.0, n_x=4096)
    m = measure_spreading_speed(run, 0.3)
    cases.append(("2x2 time-periodic", m.speed_right, curves["2x2_tper"].c_star,
                  time.time() - t0))
    ok = True
    details = []
    for name, measured, target, elapsed in cases:
        rel = abs(measured - target) / abs(target)
        ok = ok and rel < 0.05 and elapsed < 120.0
        details.append(f"{name}: {measured:.3f} vs {target:.3f} ({rel:.1%}, {elapsed:.0f}s)")
    report(10, ok, "; ".join(details))


def test_criterion_11_nonexistence_probe(systems, curves):
    c_star = curves["scalar"].c_star
    rep = nonexistence_probe(systems["scalar"], 1.0, c_star / 2, c_star,
                             t_final=30.0, X=90.0, n_x=2048)
    guard_ok = False
    try:
        nonexistence_probe(systems["scalar"], 1.0, 3.0, c_star)
    except InputError:
        guard_ok = True
    ok = rep.status == "no_wave_signature" and rep.floor_ratio >= 0.5 and guard_ok
    report(11, ok, (
        f"floor={rep.floor:.3f} = {rep.floor_ratio:.2f} x upstream "
        f"({rep.upstream_reference:.3f}); supercritical probe refused: {guard_ok}"
    ))


def test_criterion_12_logistic_envelope():
    rng = np.random.default_rng(12)
    worst = -np.inf
    for trial in range(5):
        N = int(rng.integers(1, 4))
        L = [[None] * N for _ in range(N)]
        B = [[None] * N for _ in range(N)]
        for i in range(N):
            for j in range(N):
                if i == j:
                    base = rng.uniform(-1.0, 1.0)
                    amp = rng.uniform(0, 0.5)
                else:
                    base = rng.uniform(0.3, 2.0)
                    amp = rng.uniform(0, 0.25 * base)
                L[i][j] = PeriodicField(1.0, (1.0,), (
                    Mode(0, (0,), base, 0.0), Mode(1, (0,), 0.0, amp),
                ))
                b_base = rng.uniform(0.5, 2.0)
                b_amp = rng.uniform(0, 0.4 * b_base)
                B[i][j] = PeriodicField(1.0, (1.0,), (
                    Mode(0, (0,), b_base, 0.0), Mode(0, (1,), b_amp, 0.0),
                ))
        A = tuple((((const(1.0)),),) for _ in range(N))
        q = tuple((const(0.0),) for _ in range(N))
        sys = KPPSystem(N, 1, A, q, tuple(map(tuple, L)), tuple(map(tuple, B)))
        rep = validate_assumptions(sys)
        assert rep.all_pass(), f"random system {trial} failed validation"
        r, K = logistic_envelope(sys)
        for _ in range(10_000):
            u = rng.uniform(0, 3 * K, size=N)
            t, xx = rng.uniform(0, 1, size=2)
            Lv = np.array([[float(sys.L[i][j].eval(t, [xx])) for j in range(N)] for i in range(N)])
            Bv = np.array([[float(sys.B[i][j].eval(t, [xx])) for j in range(N)] for i in range(N)])
            gap = (Lv @ u - (Bv @ u) * u) - r * u.sum() * (K - u)
            worst = max(worst, gap.max())
    report(12, worst <= 1e-9, f"max envelope violation = {worst:.2e} (5 systems x 1e4 samples)")


def test_criterion_13_period_lattice_oracle():
    rng = np.random.default_rng(13)

    def directions(n):
        out = []
        rg = range(-12, 13)
        if n == 1:
            return [(1,), (-1,)]
        vecs = (
            [(i, j) for i in rg for j in rg]
            if n == 2
            else [(i, j, k) for i in rg for j in rg for k in rg]
        )
        for v in vecs:
            if all(c == 0 for c in v):
                continue
            sq = sum(c * c for c in v)
            r = math.isqrt(sq)
            if r * r == sq:
                out.append(v)
        return out

    def oracle(e, c):
        P = rational_basis(e)
        n = e.n
        M = 1
        for row in P:
            for f in row:
                M = M * f.denominator // math.gcd(M, f.denominator)
        for comp in e.as_fractions():
            d = (c * comp).denominator
            M = M * d // math.gcd(M, d)
        divs = [d for d in range(1, M + 1) if M % d == 0]
        T = next(d for d in divs
                 if all((c * comp * d).denominator == 1 for comp in e.as_fractions()))
        Ls = []
        for a in range(n):
            col = [P[r][a] for r in range(n)]
            Ls.append(next(d for d in divs if all((f * d).denominator == 1 for f in col)))
        return T, tuple(Ls)

    pool = {n: directions(n) for n in (1, 2, 3)}
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        e = RationalDirection.from_ints(pool[n][int(rng.integers(0, len(pool[n])))])
        c = Fraction(int(rng.integers(-24, 25)), int(rng.integers(1, 13)))
        if compute_periods(e, c) != oracle(e, c):
            mismatches += 1
    report(13, mismatches == 0, f"{50 - mismatches}/50 random (e, c) agree with the lattice scan")
