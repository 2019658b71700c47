from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar_system, system_2x2, time_periodic_l
from wavekit import waves
from wavekit.coeffs import logistic_envelope, nondimensionalize
from wavekit.dispersion import minimal_speed, speed_roots, static_frame
from wavekit.errors import NumericalError, WavekitError
from wavekit.frame import make_frame, transform_coefficients
from wavekit.pde_core import GridField, build_operator_mu, solve_periodic_bvp
from wavekit.waves import (
    WaveProfile,
    build_envelopes_critical,
    build_envelopes_supercritical,
    critical_fixed_point,
    cylinder_grid,
    extend_to_entire,
    fixed_point_truncated,
    verify_wave,
    _clamp_supersolution,
    _kink_mask,
    _positive_part_from_left,
)


def wave_frame(sys, c):
    return transform_coefficients(
        nondimensionalize(sys), make_frame([1.0], float(c), mode="space-homogeneous")
    )


def a_star_reference(env):
    """The search for a_star before its closed form.

    Doubles a from the smallest cell multiple above max(4, -ln K / mu_wedge)
    until min u_low(-a) e^{mu_wedge a} clears waves._A_MARGIN, then steps back
    down one cell at a time while it still does.
    """
    _, K = logistic_envelope(env.fsys)
    Uw = env.eig_wedge.eigenfunction.values
    Ug = env.eig_gamma.eigenfunction.values

    def boundary_min(a):
        j = 0
        if not (np.all(Uw == Uw[..., :1]) and np.all(Ug == Ug[..., :1])):
            j = int(round((-a - env.cell.z0) / env.cell.dz)) % env.cell.n_z
        return (Uw[:, :, j] - env.M * np.exp(-env.gamma * a) * Ug[:, :, j]).min()

    step = env.fsys.L_z if env.fsys.L_z is not None else 1.0
    a_min = max(4.0, -np.log(K) / env.mu_wedge)
    a = step * np.ceil(a_min / step)
    while boundary_min(a) <= waves._A_MARGIN:
        a *= 2.0
    while a - step >= a_min and boundary_min(a - step) > waves._A_MARGIN:
        a -= step
    return float(a)


@pytest.fixture(scope="module")
def scalar_setup():
    sys = scalar_system()
    curve = minimal_speed(static_frame(sys, e=[1]), tol=1e-8)
    roots = speed_roots(curve, 2.5, tol=1e-10)
    fsc = wave_frame(sys, 2.5)
    env = build_envelopes_supercritical(fsc, roots, cylinder_grid(fsc, 24.0, n_z=1201))
    return sys, curve, roots, fsc, env


@pytest.fixture(scope="module")
def scalar_profile(scalar_setup):
    env = scalar_setup[-1]
    return fixed_point_truncated(env, 24.0, tol=1e-8, n_z=1201, record_iterates=True)


class TestSupercriticalEnvelopes:
    def test_gamma_arithmetic(self, scalar_setup):
        _, _, roots, _, env = scalar_setup
        assert env.gamma == pytest.approx(0.25, abs=1e-7)

    def test_M_value(self, scalar_setup):
        # kappa = 1, chi = lambda_{0.75} + 2.5*0.75 = 0.3125 => M = 1/0.3125
        _, _, _, _, env = scalar_setup
        assert env.chi == pytest.approx(0.3125, abs=1e-6)
        assert env.M == pytest.approx(3.2, abs=1e-5)
        assert env.a_star == a_star_reference(env)

    def test_supersolution_residual_small(self, scalar_setup, scalar_profile):
        # R ubar = 0 in the continuum; discrete residual is O(dz^2)
        assert scalar_profile.info["supersolution_residual"] < 0.01

    def test_subsolution_inequality(self, scalar_profile):
        assert scalar_profile.info["subsolution_violation"] < 1e-10

    def test_envelopes_ordered(self, scalar_setup):
        _, _, _, fsc, env = scalar_setup
        grid = cylinder_grid(fsc, 24.0, n_z=1201)
        ubar, ulow = env.materialize(grid)
        assert (ubar.values - ulow.values).min() >= 0
        assert ubar.values.min() > 0
        # subsolution nonpositive on {z >= 0}
        sel = grid.z >= 0
        assert ulow.values[:, :, sel].max() <= 0

    def test_2x2_envelope_constants(self):
        sys = system_2x2()
        curve = minimal_speed(static_frame(sys, e=[1]), tol=1e-8)
        roots = speed_roots(curve, 3.0, tol=1e-10)
        fsc = wave_frame(sys, 3.0)
        env = build_envelopes_supercritical(fsc, roots, cylinder_grid(fsc, 24.0, n_z=1201))
        assert roots.mu_wedge == pytest.approx(1.0, abs=1e-7)
        assert env.chi == pytest.approx(0.25, abs=1e-6)
        assert env.M == pytest.approx(8.0, abs=1e-4)  # N b / (chi kappa) = 2/0.25
        assert env.a_star == a_star_reference(env)


class TestFixedPointTruncated:
    def test_trapping_and_residual(self, scalar_profile):
        assert scalar_profile.trapping_violation < 1e-6
        assert scalar_profile.pde_residual < 1e-5

    def test_iterates_stay_in_envelope(self, scalar_profile):
        for lo, hi in scalar_profile.info["iterate_bounds"]:
            assert lo >= -1e-9
            assert hi >= -1e-9

    def test_domain_too_short(self, scalar_setup):
        env = scalar_setup[-1]
        with pytest.raises(WavekitError, match="domain too short"):
            fixed_point_truncated(env, env.a_star / 2, n_z=257)

    def test_relaxation_agrees_with_steady(self, scalar_setup):
        env = scalar_setup[-1]
        p_direct = fixed_point_truncated(env, 12.0, tol=1e-8, n_z=601)
        p_relax = fixed_point_truncated(env, 12.0, tol=1e-8, n_z=601, force_relaxation=True)
        assert np.abs(p_direct.u.values - p_relax.u.values).max() < 1e-5


class TestExtendToEntire:
    def test_stabilization_gap(self, scalar_setup):
        # at dz = 0.02 the window gap between a=40 and a=60 drops below 1e-4
        env = scalar_setup[-1]
        profile = extend_to_entire(env, [40.0, 60.0], window=10.0, tol=1e-4, dz=0.02)
        assert profile.info["stabilization_gap"] < 1e-4
        assert profile.a == 60.0

    def test_k_bound(self, scalar_setup):
        # logistic envelope for l = b = 1 forces max u <= K = 1
        env = scalar_setup[-1]
        profile = extend_to_entire(env, [40.0, 60.0], window=10.0, tol=1e-4, dz=0.02)
        assert profile.u.values.max() <= 1.0 + 1e-6
        assert profile.info["k_bound_violation"] == 0.0

    def test_no_stabilization_raises(self, scalar_setup):
        env = scalar_setup[-1]
        with pytest.raises(NumericalError):
            extend_to_entire(env, [12.0, 16.0], window=4.0, tol=1e-12, dz=0.04)


class TestVerifyWave:
    def test_scalar_wave_checks(self, scalar_profile):
        ver = verify_wave(scalar_profile, floor_required=0.9)
        assert ver.downstream_pass and ver.downstream_sup < 1e-3
        assert abs(ver.decay_rate - 0.5) <= 0.05
        assert ver.upstream_pass and ver.upstream_floor >= 0.9

    def test_zero_function(self, scalar_profile):
        g = scalar_profile.u.grid
        zero = WaveProfile(
            e=(1.0,), c=2.5, a=g.z1, u=GridField(np.zeros((1, g.n_t, g.n_z)), g),
            trapping_violation=0.0, pde_residual=0.0,
            downstream_decay_rate=float("nan"), upstream_floor=0.0, iterations=0,
            info={"pipeline": "supercritical", "mu_wedge": 0.5},
        )
        ver = verify_wave(zero, floor_required=0.1)
        assert ver.downstream_pass
        assert not ver.upstream_pass


@pytest.fixture(scope="module")
def critical_setup():
    # a and dz both matter here: the fit window must clear the subsolution
    # support edge (~M3), and the O(dz) splitting of the discrete double
    # characteristic root pollutes the tail beyond |z| ~ 1/dz
    sys = scalar_system()
    curve = minimal_speed(static_frame(sys, e=[1]), tol=1e-8)
    fsc = wave_frame(sys, curve.c_star)
    grid = cylinder_grid(fsc, 60.0, n_z=6001)
    env = build_envelopes_critical(fsc, curve.mu_star, grid)
    return curve, fsc, grid, env


class TestCriticalPipeline:
    def test_g_gamma_strictly_negative(self, critical_setup):
        # lambda_{1.5} + 2 * 1.5 = -3.25 + 3 = -0.25
        curve, _, _, env = critical_setup
        assert env.g_gamma == pytest.approx(-0.25, abs=1e-6)

    def test_slope_identity_at_mu_star(self, critical_setup):
        curve, _, _, _ = critical_setup
        dlam = curve.evaluator.derivative(curve.mu_star)
        assert dlam == pytest.approx(-curve.c_star, abs=1e-4)

    def test_supersolution_positive(self, critical_setup):
        _, _, _, env = critical_setup
        assert env.ubar.values.min() >= 0
        assert (env.ubar.values - env.ulow.values).min() >= -1e-12
        sel = env.ubar.grid.z >= 0
        assert env.ulow.values[:, :, sel].max() == 0.0

    def test_relaxation_inner_matches_ptc(self, critical_setup):
        # the parabolic-flow inner solver (quadratic term implicit per point)
        # and the pseudo-transient steady solver agree on a short cylinder
        curve, fsc, _, _ = critical_setup
        grid8 = cylinder_grid(fsc, 8.0, n_z=401)
        env8 = build_envelopes_critical(fsc, curve.mu_star, grid8)
        p_direct = critical_fixed_point(env8, 8.0, tol=1e-8, grid=grid8)
        p_relax = critical_fixed_point(env8, 8.0, tol=1e-8, grid=grid8, force_relaxation=True)
        assert np.abs(p_direct.u.values - p_relax.u.values).max() < 1e-5
        assert p_relax.trapping_violation < 1e-8

    def test_one_slice_relaxation_raises(self, critical_setup):
        # with n_t = 1 the step is dt = T, and the implicit quadratic
        # iteration diverges instead of returning an unconverged iterate
        curve, fsc, _, _ = critical_setup
        grid = cylinder_grid(fsc, 8.0, n_t=1, n_z=401)
        env = build_envelopes_critical(fsc, curve.mu_star, grid)
        with pytest.raises(NumericalError, match="implicit quadratic step"):
            critical_fixed_point(env, 8.0, tol=1e-8, grid=grid, force_relaxation=True)

    @pytest.mark.parametrize("a, m3", [(8.0, 7.4906250000000005), (9.0, None), (10.0, None),
                                       (12.0, None), (16.0, 8.98875)])
    def test_every_half_length(self, critical_setup, a, m3):
        # M3's admissible range ends near a; doubling past that end used to
        # raise "increase a" at a = 9..12, between half-lengths that built
        curve, fsc, _, _ = critical_setup
        grid = cylinder_grid(fsc, a, dz=0.05)
        env = build_envelopes_critical(fsc, curve.mu_star, grid)
        if m3 is not None:
            assert env.M3 == m3
        profile = env.fixed_point(a, tol=1e-7, grid=grid)
        assert profile.trapping_violation <= 1e-8
        assert profile.pde_residual <= 1e-8

    def test_critical_wave(self, critical_setup):
        _, _, grid, env = critical_setup
        profile = critical_fixed_point(env, 60.0, tol=1e-8, grid=grid, record_iterates=True)
        assert profile.trapping_violation < 1e-5
        assert profile.pde_residual < 1e-6
        ver = verify_wave(profile, decay_rtol=0.2)
        assert ver.shape_pass and abs(ver.shape_slope - 1.0) <= 0.2
        for lo, hi in profile.info["iterate_bounds"]:
            assert lo >= -1e-9 and hi >= -1e-9


# Per-(component, time) loops: the envelope helpers before vectorisation.

def _reference_clamp(theta_dot, M1, M2):
    N, n_t, n_z = theta_dot.shape
    v = -M1 * theta_dot
    w = 1.0 - v
    out = np.empty_like(v)
    kinks = np.empty((N, n_t), dtype=int)
    for i in range(N):
        for k in range(n_t):
            neg = np.nonzero(w[i, k] <= 0.0)[0]
            if neg.size == 0 or neg[0] == 0:
                raise NumericalError(
                    f"clamp level never reached: grow M1 (component {i}, time index {k})"
                )
            j0 = int(neg[0])
            if np.any(v[i, k, :j0] <= 0.0):
                raise NumericalError(
                    "supersolution branch loses positivity before its clamp: "
                    f"grow M1 (component {i}, time index {k})"
                )
            out[i, k, :j0] = M2 * v[i, k, :j0]
            out[i, k, j0:] = M2
            kinks[i, k] = j0
    return out, kinks


def _reference_positive_part(core, z):
    N, n_t, n_z = core.shape
    out = np.zeros_like(core)
    roots = np.empty((N, n_t), dtype=int)
    for i in range(N):
        for k in range(n_t):
            row = core[i, k]
            if row[0] <= 0.0:
                raise NumericalError(
                    "critical subsolution not positive at the downstream end; "
                    "increase a (support truncated)"
                )
            neg = np.nonzero(row <= 0.0)[0]
            if neg.size == 0:
                raise NumericalError("critical subsolution has no sign change: grow M3")
            j0 = int(neg[0])
            if z[j0] > 1e-9:
                raise NumericalError("critical subsolution must vanish on z >= 0: grow M3")
            out[i, k, :j0] = row[:j0]
            roots[i, k] = j0
    return out, roots


def _reference_kink_mask(kinks, n_z):
    N, n_t = kinks.shape
    mask = np.ones((N, n_t, n_z), dtype=bool)
    for i in range(N):
        for k in range(n_t):
            mask[i, k] = np.abs(np.arange(n_z) - kinks[i, k]) > 2
    return mask


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericalError as exc:
        return str(exc)


def _assert_same_outcome(got, expect):
    if isinstance(expect, str) or isinstance(got, str):
        assert got == expect
    else:
        for g, e in zip(got, expect):
            assert g.dtype.kind == e.dtype.kind and np.array_equal(g, e)


class TestEnvelopeHelpers:
    # each trial plants defects at random (component, time) cells, so the
    # first defective cell in C order decides which error is raised
    z = np.linspace(-3.0, 3.0, 41)

    def test_clamp_matches_loop(self, rng):
        messages = set()
        for _ in range(60):
            N = int(rng.integers(1, 3))
            v = 0.5 * np.exp(self.z + rng.uniform(-1.0, 1.0, (N, 3, 1)))
            for _ in range(int(rng.integers(0, 3))):
                i, k = rng.integers(N), rng.integers(3)
                kind = rng.integers(3)
                if kind == 0:
                    v[i, k] = 0.1            # never reaches the level
                elif kind == 1:
                    v[i, k, 0] = 2.0         # reaches it at the downstream end
                else:
                    v[i, k, rng.integers(1, 8)] = -0.1  # not positive before it
            theta_dot = -v / 2.0
            expect = _outcome(_reference_clamp, theta_dot, 2.0, 1.5)
            _assert_same_outcome(_outcome(_clamp_supersolution, theta_dot, 2.0, 1.5), expect)
            messages.add(expect.split(":")[0] if isinstance(expect, str) else "ok")
        assert len(messages) == 3

    def test_positive_part_matches_loop(self, rng):
        messages = set()
        for _ in range(60):
            N = int(rng.integers(1, 3))
            core = -(self.z - rng.uniform(-2.5, -0.1, (N, 3, 1)))
            for _ in range(int(rng.integers(0, 3))):
                i, k = rng.integers(N), rng.integers(3)
                kind = rng.integers(3)
                if kind == 0:
                    core[i, k, 0] = -1.0     # truncated support
                elif kind == 1:
                    core[i, k] = 1.0         # no sign change
                else:
                    core[i, k] = 1.0 - self.z  # root upstream of z = 0
            expect = _outcome(_reference_positive_part, core, self.z)
            _assert_same_outcome(_outcome(_positive_part_from_left, core, self.z), expect)
            messages.add(expect.split(";")[0].split(":")[0] if isinstance(expect, str) else "ok")
        assert len(messages) == 4

    def test_kink_mask_matches_loop(self, rng):
        kinks = rng.integers(0, 41, size=(2, 5))
        assert np.array_equal(_kink_mask(kinks, 41), _reference_kink_mask(kinks, 41))


class TestGridConvergence:
    def test_profile_invariant_under_dz_refinement(self, scalar_setup):
        # second-order discretization: halving dz moves the profile by O(dz^2)
        env = scalar_setup[-1]
        p1 = fixed_point_truncated(env, 12.0, tol=1e-9, n_z=601)
        p2 = fixed_point_truncated(env, 12.0, tol=1e-9, n_z=1201)
        assert np.abs(p2.u.values[:, :, ::2] - p1.u.values).max() < 5e-4

    def test_profile_invariant_under_dt_refinement(self):
        from conftest import time_periodic_l
        from wavekit.coeffs import nondimensionalize
        from wavekit.frame import make_frame, transform_coefficients

        sys = scalar_system(l_field=time_periodic_l(1.0, 0.5))
        curve = minimal_speed(static_frame(sys, e=[1]), tol=1e-8)
        roots = speed_roots(curve, 2.5, tol=1e-10)
        fsc = transform_coefficients(nondimensionalize(sys),
                                     make_frame([1.0], 2.5, mode="space-homogeneous"))
        profs = {}
        for n_t in (32, 64):
            grid = cylinder_grid(fsc, 12.0, n_t=n_t, n_z=601)
            env = build_envelopes_supercritical(fsc, roots, grid)
            profs[n_t] = fixed_point_truncated(env, 12.0, tol=1e-8, grid=grid)
        diff = np.abs(profs[64].u.values[:, ::2, :] - profs[32].u.values).max()
        assert diff < 1e-2  # backward Euler relaxation: O(dt)


class TestSpaceHomogeneousHigherDimension:
    def test_anisotropic_direction_reduction(self):
        # n = 2, A = diag(1, 4), direction e = (0.6, 0.8): the frame reduction
        # collapses to a 1-D problem with effective diffusion e^T A e = 2.92
        from conftest import const
        from wavekit.coeffs import KPPSystem, nondimensionalize
        from wavekit.frame import make_frame, transform_coefficients

        c2 = lambda v: const(v, n=2)
        sys = KPPSystem(
            1, 2,
            (((c2(1.0), c2(0.0)), (c2(0.0), c2(4.0))),),
            ((c2(0.0), c2(0.0)),),
            ((c2(1.0),),), ((c2(1.0),),),
        )
        e = [0.6, 0.8]
        ae = 2.92
        curve = minimal_speed(static_frame(sys, e=e), tol=1e-8)
        assert curve.c_star == pytest.approx(2 * np.sqrt(ae), abs=1e-6)
        assert curve.mu_star == pytest.approx(1 / np.sqrt(ae), abs=1e-5)
        roots = speed_roots(curve, 4.0, tol=1e-10)
        mu_oracle = (4 - np.sqrt(16 - 4 * ae)) / (2 * ae)
        assert roots.mu_wedge == pytest.approx(mu_oracle, abs=1e-8)
        fsc = transform_coefficients(nondimensionalize(sys),
                                     make_frame(e, 4.0, mode="space-homogeneous"))
        env = build_envelopes_supercritical(fsc, roots, cylinder_grid(fsc, 24.0, n_z=1201))
        profile = fixed_point_truncated(env, 24.0, tol=1e-8, n_z=1201)
        assert profile.trapping_violation < 1e-8
        assert abs(profile.downstream_decay_rate - mu_oracle) / mu_oracle < 0.05


class TestSpacePeriodicWave:
    def test_rational_frame_pipeline(self):
        # l(x) = 1 + 0.5 cos(2 pi x): the moving frame at rational c = 3 makes
        # the coefficients genuinely (t, z)-periodic; exercises the rational
        # frame transform, the power-iteration eigensolver in the c-frame and
        # the cell-aligned envelope extension
        from conftest import space_periodic_l
        from wavekit.frame import make_frame
        from wavekit.coeffs import nondimensionalize
        from wavekit.frame import transform_coefficients

        sys = scalar_system(l_field=space_periodic_l(1.0, 0.5))
        curve = minimal_speed(static_frame(sys, e=[1]), tol=1e-7)
        assert curve.c_star == pytest.approx(2.003, abs=2e-3)
        roots = speed_roots(curve, 3, tol=1e-8)
        fsc = transform_coefficients(nondimensionalize(sys), make_frame([1], 3))
        assert not fsc.is_time_independent()  # drift mixes x into t
        grid = cylinder_grid(fsc, 8.0, n_t=64, points_per_cell=64)
        env = build_envelopes_supercritical(fsc, roots, grid)
        assert env.a_star == a_star_reference(env)
        profile = fixed_point_truncated(env, 8.0, tol=1e-6, grid=grid)
        assert profile.trapping_violation < 1e-8
        assert abs(profile.downstream_decay_rate - roots.mu_wedge) / roots.mu_wedge < 0.15
        assert profile.upstream_floor > 0.3


@pytest.fixture(scope="module")
def time_periodic_setup():
    # l(t) = 1 + 0.5 sin(2 pi t): c* = 2 by time averaging; wave at c = 2.5
    sys = scalar_system(l_field=time_periodic_l(1.0, 0.5))
    curve = minimal_speed(static_frame(sys, e=[1]), tol=1e-8)
    roots = speed_roots(curve, 2.5, tol=1e-10)
    fsc = wave_frame(sys, 2.5)
    grid = cylinder_grid(fsc, 16.0, n_t=64, n_z=401)
    env = build_envelopes_supercritical(fsc, roots, grid)
    return curve, fsc, grid, env


def _reference_cold_loop(fsys, env, grid, tol):
    """The outer loop before the K-box start and the warm, inexact inner solves.

    r starts at ubar, and every sweep relaxes from the subsolution to tol/10.
    Returns (profile values, total relaxation periods).
    """
    ubar_f, ulow_f = env.materialize(grid)
    usub = np.maximum(ulow_f.values, 0.0)
    op0 = build_operator_mu(fsys, 0.0, grid)
    bc = (usub[:, :, 0].copy(), usub[:, :, -1].copy())
    init = GridField(usub.copy(), grid)
    r = ubar_f.values.copy()
    periods = 0
    for _ in range(200):
        Br = np.einsum("ijtz,jtz->itz", op0.b_tab, r)
        u, info = solve_periodic_bvp(op0, bc, init, 0.1 * tol, extra_diag=Br)
        periods += info["periods"]
        r_new = 0.5 * u.values + 0.5 * r
        delta = np.abs(r_new - r).max()
        r = r_new
        if delta < tol:
            return u.values, periods
    raise AssertionError("reference loop stalled")


class TestTimePeriodicWave:
    def test_supercritical_time_periodic(self, time_periodic_setup):
        curve, _, grid, env = time_periodic_setup
        assert curve.c_star == pytest.approx(2.0, abs=1e-6)
        assert env.a_star == a_star_reference(env)
        profile = fixed_point_truncated(env, 16.0, tol=1e-6, grid=grid)
        assert profile.trapping_violation < 1e-8
        assert profile.pde_residual < 1e-5
        assert abs(profile.downstream_decay_rate - 0.5) / 0.5 < 0.1
        assert profile.upstream_floor > 0.5

    def test_matches_cold_start_loop(self, time_periodic_setup):
        # the K-box start, warm starts and loose early inner solves reach the
        # same profile with a fraction of the relaxation periods
        _, fsc, grid, env = time_periodic_setup
        ref, ref_periods = _reference_cold_loop(fsc, env, grid, 1e-6)
        profile = fixed_point_truncated(env, 16.0, tol=1e-6, grid=grid, record_iterates=True)
        assert np.abs(profile.u.values - ref).max() <= 1e-6
        for lo, hi in profile.info["iterate_bounds"]:
            assert lo >= -1e-9 and hi >= -1e-9
        assert profile.info["relax_periods"] == sum(profile.info["inner_periods"])
        assert len(profile.info["inner_periods"]) == profile.iterations
        assert profile.info["relax_periods"] <= ref_periods / 4
        assert profile.diagnostics()["relax_periods"] == profile.info["relax_periods"]


class TestTrappedIterates:
    @settings(max_examples=12, deadline=None)
    @given(a=st.floats(0.5, 2.0), l=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0),
           c_ratio=st.floats(1.1, 1.6))
    def test_random_kpp_iterates_trapped(self, a, l, b, c_ratio):
        # usub <= u <= ubar after every sweep, and the loop starts under K
        sys = scalar_system(a=a, l=l, b=b)
        curve = minimal_speed(static_frame(sys, e=[1]), tol=1e-8)
        c = c_ratio * curve.c_star
        roots = speed_roots(curve, c, tol=1e-10)
        fsc = wave_frame(sys, c)
        # a time-independent frame's eigen cell does not depend on the cylinder
        env = build_envelopes_supercritical(fsc, roots, cylinder_grid(fsc, 4.0, n_z=401))
        assert env.a_star == a_star_reference(env)
        half = env.a_star + 4.0
        grid = cylinder_grid(fsc, half, n_z=401)
        with mock.patch.object(waves, "solve_periodic_bvp",
                               wraps=solve_periodic_bvp) as spy:
            profile = fixed_point_truncated(env, half, tol=1e-7, grid=grid,
                                            record_iterates=True)
        for lo, hi in profile.info["iterate_bounds"]:
            assert lo >= -1e-9 and hi >= -1e-9
        _, K = logistic_envelope(fsc)
        b_tab = build_operator_mu(fsc, 0.0, grid).b_tab[0, 0]
        r0 = spy.call_args_list[0].kwargs["extra_diag"][0] / b_tab
        assert r0.max() <= K * (1 + 1e-12)
        assert np.all(r0 >= env.ulow.values[0] - 1e-12)
