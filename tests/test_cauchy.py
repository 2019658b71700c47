import numpy as np
import pytest

from conftest import const, scalar_system, system_2x2, time_periodic_l
from wavekit import cauchy
from wavekit.cauchy import (
    SimulationRun,
    bump_initial,
    front_initial,
    logistic_envelope,
    measure_spreading_speed,
    nonexistence_probe,
    simulate,
)
from wavekit.coeffs import KPPSystem, nondimensionalize
from wavekit.dispersion import static_frame
from wavekit.errors import InputError, NumericalError
from wavekit.pde_core import Stepper, build_operator_mu


class TestLogisticEnvelope:
    def test_scalar(self):
        assert logistic_envelope(scalar_system()) == (1.0, 1.0)

    def test_2x2_row_sums(self):
        r, K = logistic_envelope(system_2x2())
        assert (r, K) == (1.0, 2.0)

    def test_inequality_random_sampling(self, rng):
        # L u - (B u) o u <= r (1^T u)(K 1 - u) componentwise for u >= 0
        sys = system_2x2(l11=-0.5, l12=2.0, l21=1.0, l22=0.3, b=1.0)
        sysn = nondimensionalize(sys)
        r, K = logistic_envelope(sysn)
        N = sysn.N
        for _ in range(2000):
            u = rng.uniform(0, 3 * K, size=N)
            t, x = rng.uniform(0, 1, size=2)
            L = np.array([[float(sysn.L[i][j].eval(t, [x])) for j in range(N)] for i in range(N)])
            B = np.array([[float(sysn.B[i][j].eval(t, [x])) for j in range(N)] for i in range(N)])
            lhs = L @ u - (B @ u) * u
            rhs = r * u.sum() * (K - u)
            assert np.all(lhs <= rhs + 1e-10)

    def test_requires_positive_competition(self):
        with pytest.raises(InputError):
            logistic_envelope(scalar_system(b=0.0))


class TestSimulate:
    def test_logistic_attractor(self):
        # flat data: the PDE reduces to the logistic ODE, u(10) -> 1
        run = simulate(scalar_system(), np.full((1, 2048), 0.1), 10.0, 50.0, n_x=2048)
        assert np.abs(run.snapshots[-1] - 1.0).max() < 1e-3

    def test_extinction_decay(self):
        # l = -1: linearized decay dominates, sup u(t) <= e^{-t} sup u0 (1+o(1))
        run = simulate(scalar_system(l=-1.0), np.full((1, 2048), 0.5), 5.0, 50.0, n_x=2048)
        assert run.snapshots[-1].max() <= 0.5 * np.exp(-5.0) * 1.2

    def test_front_forms_and_interior_saturates(self):
        x = np.linspace(-60, 60, 2048)
        run = simulate(scalar_system(), bump_initial(x, 1), 25.0, 60.0, n_x=2048)
        final = run.snapshots[-1][0]
        # interior saturated at the steady state 1, front still inside domain
        assert abs(final[len(final) // 2] - 1.0) < 1e-3
        assert final[0] < 1e-2 and final[-1] < 1e-2

    def test_mass_positivity(self):
        x = np.linspace(-50, 50, 2048)
        run = simulate(system_2x2(), bump_initial(x, 2), 10.0, 50.0, n_x=2048)
        assert run.snapshots.min() >= 0.0

    def test_negative_initial_rejected(self):
        with pytest.raises(InputError):
            simulate(scalar_system(), np.full((1, 2048), -0.1), 1.0, 50.0, n_x=2048)

    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_per_step_loop(self, N, monkeypatch):
        # time-periodic coupling: the reaction reads a new slice every step
        sys = (scalar_system(l_field=time_periodic_l()) if N == 1
               else system_2x2(l11_field=time_periodic_l(0.5, 0.5)))
        x = np.linspace(-20.0, 20.0, 256)
        init = bump_initial(x, N)
        made = []
        monkeypatch.setattr(cauchy, "Stepper", lambda *a, **kw: made.append(Stepper(*a, **kw)) or made[-1])
        run = simulate(sys, init, 3.0, 20.0, n_x=256)
        ref = reference_snapshots(made[0], sys, init, 3.0)
        assert run.snapshots.shape == ref.shape
        if N == 1:
            assert np.array_equal(run.snapshots, ref)
        else:
            assert np.abs(run.snapshots - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_invariant_region_violation_raises(self, monkeypatch):
        # logistic growth from 0.1 passes 0.3 before t = 2: with K patched to
        # 0.3 the bound max(K, max u0) = 0.3 is left at a snapshot
        init = np.full((1, 256), 0.1)
        assert simulate(scalar_system(), init, 3.0, 20.0, n_x=256).snapshots.max() > 0.3
        monkeypatch.setattr(cauchy, "logistic_envelope", lambda sys: (1.0, 0.3))
        with pytest.raises(NumericalError, match="invariant region violated at t=2.000"):
            simulate(scalar_system(), init, 3.0, 20.0, n_x=256)


def reference_snapshots(st, sys, initial, t_final, snapshot_every=1.0):
    """simulate's loop in the (N, n_x) form, one solve of its Stepper st per
    step: the loop before the solve order.  Returns the snapshots."""
    op = build_operator_mu(static_frame(nondimensionalize(sys)), 0.0, st.grid)
    L, B = op.coupling, op.b_tab
    dt, spp = st.grid.dt, st.grid.n_t
    n_steps = int(round(t_final / dt))
    stride = max(1, int(round(snapshot_every / dt)))
    u = initial.copy()
    snaps = [u.copy()]
    for step in range(n_steps):
        k = step % spp
        kk = (k + 1) % spp
        reaction = (np.einsum("ijx,jx->ix", L[:, :, k], u)
                    - np.einsum("ijx,jx->ix", B[:, :, k], u) * u)
        w = st._bc_into(st._flat(u + dt * reaction), kk)
        u = st._unflat(st._lhs_lu[kk % st.n_distinct](w))
        if (step + 1) % stride == 0 or step == n_steps - 1:
            snaps.append(u.copy())
    return np.array(snaps)


@pytest.fixture(scope="module")
def kpp_run():
    x = np.linspace(-120, 120, 3072)
    return simulate(scalar_system(), bump_initial(x, 1), 50.0, 120.0, n_x=3072)


class TestFrontPositions:
    @staticmethod
    def oracle(run, theta):
        # one snapshot at a time: interpolate towards the outer neighbour of
        # the first and last node at or above theta
        left = np.full(len(run.times), np.nan)
        right = np.full(len(run.times), np.nan)
        for k, prof in enumerate(run.snapshots.max(axis=1)):
            idx = np.nonzero(prof >= theta)[0]
            if idx.size == 0:
                continue
            j = idx[-1]
            if j == len(prof) - 1:
                right[k] = run.x[-1]
            else:
                w = (theta - prof[j + 1]) / (prof[j] - prof[j + 1])
                right[k] = run.x[j + 1] + (run.x[j] - run.x[j + 1]) * w
            j = idx[0]
            if j == 0:
                left[k] = run.x[0]
            else:
                w = (theta - prof[j - 1]) / (prof[j] - prof[j - 1])
                left[k] = run.x[j - 1] + (run.x[j] - run.x[j - 1]) * w
        return left, right

    def test_matches_per_snapshot_oracle(self, rng):
        x = np.linspace(-5.0, 5.0, 41)
        snaps = rng.uniform(0.0, 1.0, size=(12, 2, x.size))
        snaps[1] = 0.2                # empty level set
        snaps[2, :, :3] = 0.9         # crossing at x[0] (left) ...
        snaps[3, :, -3:] = 0.9        # ... and at x[-1] (right)
        snaps[4] = 0.9                # both ends at once
        snaps[5, 0] = 0.0
        snaps[5, 0, 20] = 0.9         # a single node above theta
        run = SimulationRun(x, np.arange(12.0), snaps, 0.1, 1.0, 1.0, 1.0, 4.5)
        left, right = run.front_positions(0.5)
        expect = self.oracle(run, 0.5)
        np.testing.assert_array_equal(left, expect[0])
        np.testing.assert_array_equal(right, expect[1])
        assert np.isnan(left[1]) and np.isnan(right[1])
        assert (left[2], right[3], left[4], right[4]) == (x[0], x[-1], x[0], x[-1])

    def test_simulation_fronts_match_oracle(self, kpp_run):
        for theta in (0.1, 0.5, 0.9):
            got = kpp_run.front_positions(theta)
            np.testing.assert_array_equal(got, self.oracle(kpp_run, theta))


class TestSpreadingSpeed:
    def test_speed_close_to_two(self, kpp_run):
        m = measure_spreading_speed(kpp_run, 0.5)
        assert abs(m.speed_right - 2.0) / 2.0 < 0.05
        assert abs(m.speed_left - 2.0) / 2.0 < 0.05
        assert m.r2_right > 0.999

    def test_theta_robustness(self, kpp_run):
        m1 = measure_spreading_speed(kpp_run, 0.1)
        m2 = measure_spreading_speed(kpp_run, 0.5)
        assert abs(m1.speed_right - m2.speed_right) / 2.0 < 0.02

    def test_domain_exhaustion_guard(self):
        x = np.linspace(-30, 30, 2048)
        run = simulate(scalar_system(), bump_initial(x, 1), 20.0, 30.0, n_x=2048)
        with pytest.raises(NumericalError, match="exhausted"):
            measure_spreading_speed(run, 0.5)

    def test_scalar_envelope_dominates_components(self):
        # v_t = a_max v'' + r (N v)(K - v) from dominating data bounds each
        # component of the system run at every snapshot
        sys = system_2x2()
        r, K = logistic_envelope(sys)
        x = np.linspace(-50, 50, 1024)
        init = bump_initial(x, 2, amp=0.4)
        run = simulate(sys, init, 8.0, 50.0, n_x=1024)
        # scalar comparison system: L = r N K, B = r N (so r v(K - v) * N)
        N = 2
        comp = KPPSystem(
            1, 1,
            (((const(1.0),),),),
            ((const(0.0),),),
            ((const(r * N * K),),),
            ((const(r * N),),),
        )
        init_v = init.max(axis=0, keepdims=True)
        run_v = simulate(comp, init_v, 8.0, 50.0, n_x=1024)
        stride = max(1, len(run.times) // len(run_v.times))
        for k, t in enumerate(run.times):
            kv = np.argmin(np.abs(run_v.times - t))
            if abs(run_v.times[kv] - t) > 1e-9:
                continue
            dom = run_v.snapshots[kv, 0]
            assert (run.snapshots[k] <= dom[None, :] + 1e-8).all()


class TestNonexistenceProbe:
    def test_scalar_subcritical_floor(self):
        rep = nonexistence_probe(scalar_system(), 1.0, 1.0, 2.0,
                                 t_final=30.0, X=90.0, n_x=2048)
        assert rep.status == "no_wave_signature"
        assert rep.floor_ratio >= 0.5
        assert rep.upstream_reference > 0.9

    def test_supercritical_guard(self):
        with pytest.raises(InputError, match="precondition"):
            nonexistence_probe(scalar_system(), 1.0, 3.0, 2.0)

    def test_2x2_half_speed(self):
        c_star = 2 * np.sqrt(2)
        rep = nonexistence_probe(system_2x2(), 1.0, c_star / 2, c_star,
                                 t_final=24.0, X=80.0, n_x=2048)
        assert rep.status == "no_wave_signature"
        assert rep.floor >= 0.5 * rep.upstream_reference
