from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eig as scipy_eig

from conftest import const, scalar_system, space_periodic_l, system_2x2, time_periodic_l
from wavekit.coeffs import KPPSystem, Mode, PeriodicField, nondimensionalize
from wavekit.dispersion import persistence_check, static_frame
from wavekit.eigen import (
    EigenEvaluator,
    default_cell_grid,
    _eig,
    _hill_pair,
    lambda_mu_curve,
    principal_eigenvalue,
)
from wavekit.errors import InputError, NumericalError
from wavekit.frame import make_frame, transform_coefficients
from wavekit.pde_core import Grid, Stepper, apply_S, build_operator_mu


def frame_of(sys, c=0):
    return transform_coefficients(nondimensionalize(sys), make_frame([1], c))


def dense_lambda(op):
    """-s for the Perron root s of a static scalar S, built column by column
    with apply_S and solved densely."""
    S = np.stack([apply_S(op, e[None, None])[0, 0] for e in np.eye(op.grid.n_z)], axis=1)
    return -float(np.max(np.linalg.eigvals(S).real))


class TestPrincipalEigenvalue:
    def test_scalar_constant(self):
        ev = EigenEvaluator(frame_of(scalar_system(l=1.0)))
        pair = ev.pair(0.0)
        assert pair.lam == pytest.approx(-1.0, abs=1e-10)
        assert np.abs(pair.eigenfunction.values - 1.0).max() < 1e-10
        assert pair.residual < 1e-10

    def test_2x2_perron_root(self):
        # L = [[0,1],[1,0]]: Perron root 1, eigenfunction proportional to (1,1)
        ev = EigenEvaluator(frame_of(system_2x2(l12=1.0, l21=1.0)))
        pair = ev.pair(0.0)
        assert pair.lam == pytest.approx(-1.0, abs=1e-9)
        vals = pair.eigenfunction.values
        assert np.abs(vals[0] - vals[1]).max() < 1e-9

    def test_time_periodic_closed_form(self):
        # l(t) = 1 + sin(2 pi t): lambda = -1, eigenfunction exp((1-cos)/2pi)
        ev = EigenEvaluator(frame_of(scalar_system(l_field=time_periodic_l())))
        pair = ev.pair(0.0)
        assert pair.lam == pytest.approx(-1.0, abs=1e-9)
        t = pair.eigenfunction.grid.t
        exact = np.exp((1 - np.cos(2 * np.pi * t)) / (2 * np.pi))
        exact /= exact.max()
        assert np.abs(pair.eigenfunction.values[0, :, 0] - exact).max() < 1e-9
        assert pair.residual < 1e-5

    def test_tilted_scalar_family(self):
        ev = EigenEvaluator(frame_of(scalar_system()))
        for mu in (0.5, 1.0, 2.0):
            assert ev(mu) == pytest.approx(-(mu**2 + 1), abs=1e-9)

    def test_time_average_reduction(self):
        # l(t) = 1 + sin(2 pi t): lambda(mu) = -(mu^2 + 1) for every mu
        ev = EigenEvaluator(frame_of(scalar_system(l_field=time_periodic_l())))
        for mu in (0.5, 1.0, 2.0):
            assert ev(mu) == pytest.approx(-(mu**2 + 1), abs=1e-9)

    def test_space_periodic_against_dense_oracle(self):
        # l(x) = 1 + 0.5 cos(2 pi x): the Hill pair on the default one-slice
        # cell vs a dense eigensolve of the 64-node flux-form finite
        # differences, which are second-order accurate
        fs = frame_of(scalar_system(l_field=space_periodic_l(1.0, 0.5)))
        n_z = 64
        grid = default_cell_grid(fs)
        assert (grid.n_t, grid.n_z) == (1, n_z)
        op = build_operator_mu(fs, 0.0, grid)
        pair = principal_eigenvalue(op)
        assert pair.info["path"] == "fourier-hill"

        dz = 1.0 / n_z
        z = np.arange(n_z) * dz
        D = np.zeros((n_z, n_z))
        for j in range(n_z):
            D[j, (j + 1) % n_z] += 1 / dz**2
            D[j, (j - 1) % n_z] += 1 / dz**2
            D[j, j] += -2 / dz**2 + 1 + 0.5 * np.cos(2 * np.pi * z[j])
        lam_oracle = -np.max(np.linalg.eigvals(D).real)
        assert pair.lam == pytest.approx(lam_oracle, abs=1e-5)
        assert pair.residual < 1e-10

    def test_separable_space_time_oracle(self):
        # l(t,x) = f(t) + g(x) separates: lambda = -mean(f) - eig(d_zz + g)
        lf = PeriodicField(1.0, (1.0,), (
            Mode(0, (0,), 1.0, 0.0), Mode(1, (0,), 0.0, 0.8), Mode(0, (1,), 0.4, 0.0),
        ))
        fs = frame_of(scalar_system(l_field=lf))
        grid = Grid.periodic_cell(1.0, 1.0, 1024, 64)
        pair = principal_eigenvalue(build_operator_mu(fs, 0.0, grid))
        n_z = 64
        dz = 1.0 / n_z
        z = np.arange(n_z) * dz
        D = np.zeros((n_z, n_z))
        for j in range(n_z):
            D[j, (j + 1) % n_z] += 1 / dz**2
            D[j, (j - 1) % n_z] += 1 / dz**2
            D[j, j] += -2 / dz**2 + 0.4 * np.cos(2 * np.pi * z[j])
        lam_oracle = -1.0 - np.max(np.linalg.eigvals(D).real)
        assert pair.lam == pytest.approx(lam_oracle, abs=2e-5)

    def test_one_slice_static_cell_matches_default(self):
        # a time-independent, z-dependent frame: lambda and the eigenfunction
        # do not depend on the cell's n_t, which only repeats the one slice
        fs = frame_of(scalar_system(l_field=space_periodic_l()))
        cell = default_cell_grid(fs)
        assert cell.n_t == 1
        ops = [build_operator_mu(fs, 0.5, replace(cell, n_t=n)) for n in (1, 64)]
        one, full = (principal_eigenvalue(op) for op in ops)
        assert one.info["path"] == full.info["path"] == "fourier-hill"
        assert one.lam == full.lam == EigenEvaluator(fs)(0.5)
        assert one.eigenfunction.grid == cell
        assert full.eigenfunction.grid == replace(cell, n_t=64)
        assert np.array_equal(one.eigenfunction.values[:, 0], full.eigenfunction.values[:, 0])
        assert np.all(full.eigenfunction.values == full.eigenfunction.values[:, :1])

    def test_one_node_z_independent_cell_matches_sixteen(self):
        # the ODE path never reads z: a z-independent frame's default cell has
        # one z node and one slice per Magnus step, and 16 copied nodes give
        # the same lambda, kappa and residual
        fs = frame_of(system_2x2(l12_field=time_periodic_l(1.0, 1.0), l21=1.0))
        cell = default_cell_grid(fs)
        assert (cell.n_t, cell.n_z) == (256, 1)
        one, full = (principal_eigenvalue(build_operator_mu(fs, 0.7, replace(cell, n_z=n)))
                     for n in (1, 16))
        assert one.info["path"] == full.info["path"] == "ode-monodromy"
        assert (one.lam, one.kappa, one.residual) == (full.lam, full.kappa, full.residual)
        assert one.eigenfunction.values.shape == (2, 256, 1)
        assert np.array_equal(np.repeat(one.eigenfunction.values, 16, axis=2),
                              full.eigenfunction.values)

    @pytest.mark.parametrize("mu", [30.0, 5000.0])
    def test_constant_system_at_large_tilt(self, mu):
        # the ODE path integrates M - max diag M(0): a scalar static M is exact
        pair = EigenEvaluator(frame_of(scalar_system())).pair(mu)
        assert pair.info["path"] == "ode-monodromy"
        assert pair.lam == pytest.approx(-(1.0 + mu * mu), rel=1e-12)
        assert np.all(pair.eigenfunction.values == 1.0)

    def test_extinct_static_cell(self):
        # L = -3 + 0.5 cos(2 pi x): every row sum of S is negative
        sys = scalar_system(l_field=space_periodic_l(-3.0, 0.5))
        fs = frame_of(sys)
        op = build_operator_mu(fs, 0.0, default_cell_grid(fs))
        pair = principal_eigenvalue(op)
        assert pair.info["path"] == "fourier-hill"
        # persistence reads the run's evaluator, whose lambda is this pair's;
        # the 64-node finite-difference cell's lies 2.5e-6 away
        ev = EigenEvaluator(static_frame(sys, e=[1]))
        report = persistence_check(ev)
        assert report.classification == "extinct" and pair.lam > 0
        assert report.lambda_1p == ev(0.0) == pair.lam
        assert report.lambda_1p == pytest.approx(dense_lambda(op), abs=1e-5)

    def test_positivity_required(self):
        ev = EigenEvaluator(frame_of(scalar_system()))
        pair = ev.pair(1.0)
        assert pair.eigenfunction.values.min() > 0

    def test_reducible_coupling_rejected_ode_path(self):
        # diagonal L: the Perron vector of the monodromy has a zero entry
        sys = system_2x2(l11=1.0, l12=0.0, l21=0.0, l22=0.5)
        ev = EigenEvaluator(frame_of(sys))
        with pytest.raises(NumericalError, match="reducible"):
            ev.pair(0.0)

    def test_reducible_coupling_rejected_shift_invert(self):
        # z-dependent diagonal static system: the principal eigenvector is the
        # first component's, zero up to roundoff in the second
        sys = system_2x2(l12=0.0, l21=0.0, l11_field=space_periodic_l(1.0, 0.5),
                         l22=0.3)
        op = build_operator_mu(frame_of(sys), 0.0, Grid.periodic_cell(1.0, 1.0, 256, 64))
        assert op.is_time_independent()
        with pytest.raises(NumericalError, match="reducible"):
            principal_eigenvalue(op)
        with pytest.raises(NumericalError, match="reducible"):
            persistence_check(EigenEvaluator(static_frame(sys, e=[1])))

    def test_reducible_coupling_rejected_power_iteration(self):
        # the time-periodic twin: l11 = 1 + 0.8 sin 2 pi t + 0.4 cos 2 pi x
        lf = PeriodicField(1.0, (1.0,), (
            Mode(0, (0,), 1.0, 0.0), Mode(1, (0,), 0.0, 0.8), Mode(0, (1,), 0.4, 0.0),
        ))
        sys = system_2x2(l12=0.0, l21=0.0, l11_field=lf, l22=0.3)
        op = build_operator_mu(frame_of(sys), 0.0, Grid.periodic_cell(1.0, 1.0, 64, 64))
        assert not op.is_time_independent()
        with pytest.raises(NumericalError, match="reducible"):
            principal_eigenvalue(op)


class TestCurveAndDerivative:
    def test_curve_values_and_slope(self):
        rows = lambda_mu_curve(EigenEvaluator(frame_of(scalar_system())), [0.5, 1.0, 2.0])
        for mu, lam, dlam in rows:
            assert lam == pytest.approx(-(mu**2 + 1), abs=1e-8)
        assert rows[1][2] == pytest.approx(-2.0, abs=1e-4)

    def test_unsorted_rejected(self):
        for mus in ([1.0, 0.5], [1.0, 1.0]):
            with pytest.raises(InputError, match="strictly increasing"):
                lambda_mu_curve(EigenEvaluator(frame_of(scalar_system())), mus)


class TestHarnackFloor:
    def test_constant_eigenfunction(self):
        pair = EigenEvaluator(frame_of(scalar_system())).pair(0.5)
        assert pair.kappa == pytest.approx(1.0, abs=1e-9)

    def test_asymmetric_coupling(self):
        # L = [[0,4],[1,0]]: Perron vector (2,1), max-one floor 0.5
        pair = EigenEvaluator(frame_of(system_2x2(l12=4.0, l21=1.0))).pair(0.0)
        assert pair.kappa == pytest.approx(0.5, abs=1e-9)

    def test_time_periodic_floor(self):
        pair = EigenEvaluator(frame_of(scalar_system(l_field=time_periodic_l()))).pair(0.0)
        assert pair.kappa == pytest.approx(np.exp(-1 / np.pi), abs=1e-9)


class TestInvariants:
    def test_eigen_identity_residual(self):
        for sys in (scalar_system(), system_2x2(),
                    scalar_system(l_field=time_periodic_l())):
            ev = EigenEvaluator(frame_of(sys))
            for mu in (0.3, 1.1):
                assert ev.pair(mu).residual < 1e-5

    def test_concavity_second_differences(self, rng):
        ev = EigenEvaluator(frame_of(system_2x2()))
        for _ in range(10):
            mu = rng.uniform(0.2, 3.0)
            h = rng.uniform(0.05, 0.3)
            d2 = ev(mu - h) - 2 * ev(mu) + ev(mu + h)
            assert d2 <= 1e-8

    def test_diagonal_shift(self):
        # adding delta to every diagonal entry of L shifts lambda by -delta
        delta = 0.37
        base = EigenEvaluator(frame_of(system_2x2()))(0.8)
        shifted = EigenEvaluator(
            frame_of(system_2x2(l11=delta, l22=delta))
        )(0.8)
        assert shifted == pytest.approx(base - delta, abs=1e-9)


class TestMonodromyKernel:
    def test_ode_path_matches_power_iteration(self):
        # z-independent, time-periodic 2x2 system: backward-Euler power
        # iteration on the cell period map converges to the ODE-monodromy
        # eigenvalue at O(dt), so its Richardson extrapolation agrees closely
        sys = system_2x2(l12=1.0, l21=2.0, l11_field=time_periodic_l(0.5, 1.5))
        fs = frame_of(sys)
        lam_pde = {}
        for n_t in (256, 512):
            op = build_operator_mu(fs, 0.7, Grid.periodic_cell(1.0, 1.0, n_t, 16))
            stepper = Stepper(op)
            v = np.ones(32)
            for _ in range(40):
                w, _ = stepper.run_period(v)
                rho = float(np.vdot(v, w) / np.vdot(v, v))
                v = w / np.abs(w).max()
            lam_pde[n_t] = -np.log(rho)
        pair = principal_eigenvalue(op)
        assert pair.info["path"] == "ode-monodromy"
        assert pair.lam == pytest.approx(lam_pde[512], abs=1e-2)  # 5.3e-3
        extrapolated = 2.0 * lam_pde[512] - lam_pde[256]
        assert pair.lam == pytest.approx(extrapolated, abs=1e-4)  # 3.6e-5


def tz_coupled_l():
    """l(t, x) = 1 + 0.5 sin 2 pi (t + x)."""
    return PeriodicField(1.0, (1.0,), (Mode(0, (0,), 1.0, 0.0), Mode(1, (1,), 0.0, 0.5)))


def cell_system():
    """a = 1 + 0.3 cos 2 pi x, q = 0.4 sin 2 pi x, l = 1 + 0.5 cos 2 pi x + 0.2 sin 4 pi x."""
    af = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 1.0, 0.0), Mode(0, (1,), 0.3, 0.0)))
    qf = PeriodicField(1.0, (1.0,), (Mode(0, (1,), 0.0, 0.4),))
    lf = PeriodicField(1.0, (1.0,), (
        Mode(0, (0,), 1.0, 0.0), Mode(0, (1,), 0.5, 0.0), Mode(0, (2,), 0.0, 0.2),
    ))
    return scalar_system(a_field=af, q_field=qf, l_field=lf)


def dense_hill_lambda(n_modes, mu):
    """-s, s the eigenvalue of largest real part of cell_system's tilted S on
    n_modes Fourier modes each side, built in OperatorSpec's form from FFT
    samples of the coefficients.  s is the Rayleigh quotient of its left and
    right eigenvectors: eig's own value is only accurate to eps ||S||."""
    n = 8 * (n_modes + 1)  # differences of modes up to 2 n_modes do not alias
    z = np.arange(n) / n
    hat_a = np.fft.fft(1.0 + 0.3 * np.cos(2 * np.pi * z)) / n
    hat_q = np.fft.fft(0.4 * np.sin(2 * np.pi * z)) / n
    hat_l = np.fft.fft(1.0 + 0.5 * np.cos(2 * np.pi * z) + 0.2 * np.sin(4 * np.pi * z)) / n
    hat_da = 2j * np.pi * np.fft.fftfreq(n, 1.0 / n) * hat_a  # a' spectrally
    k = np.arange(-n_modes, n_modes + 1)

    def T(hat):
        return hat[(k[:, None] - k[None, :]) % n]

    D = np.diag(2j * np.pi * k)
    drift = hat_q - 2 * mu * hat_a
    pot0 = -(mu * mu * hat_a + mu * hat_da - mu * hat_q)
    S = D @ T(hat_a) @ D - T(drift) @ D - T(pot0) + T(hat_l)
    w, W, V = scipy_eig(S, left=True)
    top = np.argmax(w.real)
    wl, v = W[:, top].conj(), V[:, top]
    return -float((wl @ S @ v / (wl @ v)).real)


def monodromy_lambda(S, n):
    """-log of the spectral radius of the period map of Phi' = S(t) Phi, T = 1,
    by an independent adaptive integrator (DOP853 at rtol 1e-12)."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, y: (S(t) @ y.reshape(n, n)).reshape(-1), (0.0, 1.0),
                    np.eye(n, dtype=complex).reshape(-1), method="DOP853", rtol=1e-12, atol=1e-14)
    return -np.log(np.abs(np.linalg.eigvals(sol.y[:, -1].reshape(n, n))).max())


class TestFourierHill:
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.0, 8.0])
    def test_static_matches_dense_hill_oracle(self, mu):
        ev = EigenEvaluator(frame_of(cell_system()))
        pair = ev.pair(mu)
        assert pair.info["path"] == "fourier-hill"
        assert pair.eigenfunction.grid == default_cell_grid(ev.fsys)
        assert pair.lam == pytest.approx(dense_hill_lambda(pair.info["modes"] - 1, mu), abs=1e-12)
        assert pair.residual < 1e-10

    @pytest.mark.parametrize("mu", [0.0, 1.0, 8.0])
    def test_doubling_K_moves_lambda_below_1e_12(self, mu):
        # and doubling K and P together on the z- and t-coupled system
        for sys in (cell_system(), scalar_system(l_field=tz_coupled_l())):
            fs = frame_of(sys)
            ev = EigenEvaluator(fs)
            pair = ev.pair(mu)
            K, P = ev._K, ev._P
            assert K == (pair.info["modes"] - 1) // 2
            doubled, K2, P2 = _hill_pair(fs.reduce_1d(), mu, ev.grid, 2 * K, 2 * P)
            assert (K2, P2) == (2 * K, 2 * P)
            assert abs(doubled.lam - pair.lam) <= 1e-12
            assert np.abs(doubled.eigenfunction.values - pair.eigenfunction.values).max() < 1e-12

    def test_fd_cells_converge_at_second_order(self):
        # the finite differences the waves solve, as dense matrices on static
        # cells, approach the spectral lambda as dz^2: successive errors fall by 4
        fs = frame_of(scalar_system(l_field=space_periodic_l()))
        lam = EigenEvaluator(fs)(1.0)
        err = [dense_lambda(build_operator_mu(fs, 1.0, Grid.periodic_cell(1.0, 1.0, 1, n))) - lam
               for n in (64, 128, 256)]
        assert err[0] / err[1] == pytest.approx(4.0, abs=0.1)
        assert err[1] / err[2] == pytest.approx(4.0, abs=0.1)

    def test_time_periodic_system_matches_solve_ivp(self):
        # L12 = 1 + sin 2 pi t, L21 = 1, a = 1, so S = L(t) + mu^2 I; and
        # l = 1 + 0.5 sin 2 pi (t + x), S(t) its Hill matrix on 10 modes each side
        ev = EigenEvaluator(frame_of(system_2x2(l12_field=time_periodic_l(1.0, 1.0), l21=1.0)))
        tz = EigenEvaluator(frame_of(scalar_system(l_field=tz_coupled_l())))
        k = np.arange(-10, 11)
        for mu in (0.0, 0.5, 1.5, 3.0):
            def S2(t):
                return np.array([[mu * mu, 1.0 + np.sin(2 * np.pi * t)], [1.0, mu * mu]])

            def Stz(t):  # D^2 + 2 mu D + mu^2 + T(l(t)), D = diag(2 pi i k)
                hat_l = np.fft.fft(1.0 + 0.5 * np.sin(2 * np.pi * (t + np.arange(64) / 64))) / 64
                return np.diag((2j * np.pi * k + mu) ** 2) + hat_l[(k[:, None] - k[None, :]) % 64]

            assert ev.pair(mu).info["path"] == "ode-monodromy"
            assert abs(ev(mu) - monodromy_lambda(S2, 2)) <= 1e-9
            assert tz.pair(mu).info["path"] == "fourier-hill"
            assert abs(tz(mu) - monodromy_lambda(Stz, len(k))) <= 1e-12

    def test_strong_time_variation_matches_solve_ivp(self):
        # potentials swinging by up to 20 per period, a = 1, S = L(t) + mu^2 I:
        # on P = 2 time modes the first system converges to another eigenvalue
        # and the second not at all, as a conjugate pair lies nearest the
        # static shift; P grows, each solve starting from the static vectors
        def f(mean, c, s):
            return PeriodicField(1.0, (1.0,), (Mode(0, (0,), mean, 0.0), Mode(1, (0,), c, s)))

        one = const(1.0)
        for L in ([[(1.91, 12.88, -5.51), (1.07, -0.03, -0.16)], [(3.11, -1.04, -1.66), (4.45, 12.08, 18.54)]],
                  [[(1.65, -8.99, 15.2), (4.07, -0.27, 1.57)], [(3.19, 2.07, 0.84), (-3.8, 12.97, 15.33)]]):
            ev = EigenEvaluator(frame_of(KPPSystem(
                2, 1, (((one,),), ((one,),)), ((const(0.0),), (const(0.0),)),
                tuple(tuple(f(*c) for c in row) for row in L), ((one, one), (one, one)))))
            for mu in (0.0, 1.0):
                def S(t):
                    return np.array(L) @ (1.0, np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)) + mu * mu * np.eye(2)

                assert abs(ev(mu) - monodromy_lambda(S, 2)) <= 1e-11
                assert ev.pair(mu).residual < 1e-10

    def test_time_periodic_two_component_cell(self):
        # N = 2 with z-bandwidth 8 and 0.3 sin 2 pi t added to both diagonal
        # entries of L: the added term has mean zero and commutes with S, so
        # lambda equals the static twin's; it takes K past 16
        def system(amp):
            def l(mean, amp_z):
                return PeriodicField(1.0, (1.0,), (Mode(0, (0,), mean, 0.0), Mode(0, (8,), amp_z, 0.0),
                                                   Mode(1, (0,), 0.0, amp)))
            one = const(1.0)
            return KPPSystem(2, 1, (((one,),), ((one,),)), ((const(0.0),), (const(0.0),)),
                             ((l(1.0, 0.5), const(0.5)), (const(0.5), l(0.5, 0.2))),
                             ((one, one), (one, one)))

        tper, static = (EigenEvaluator(frame_of(system(amp))).pair(1.0) for amp in (0.3, 0.0))
        assert tper.info == static.info and tper.info["modes"] > 2 * 16 + 1
        assert tper.lam == pytest.approx(static.lam, abs=1e-11)
        assert tper.residual < 1e-9
        # u(t) = e^{0.3 (1 - cos 2 pi t) / 2 pi} phi, up to the max-one scale
        t = tper.eigenfunction.grid.t
        factor = np.exp(0.3 * (1 - np.cos(2 * np.pi * t)) / (2 * np.pi))
        expected = factor[None, :, None] * static.eigenfunction.values
        assert np.abs(tper.eigenfunction.values - expected / expected.max()).max() < 1e-10

    @pytest.mark.parametrize("l11", [time_periodic_l(), tz_coupled_l(), space_periodic_l()],
                             ids=["ode-magnus", "hill-magnus", "hill-static"])
    def test_reducible_coupling_rejected(self, l11):
        sys = system_2x2(l12=0.0, l21=0.0, l11_field=l11, l22=0.3)
        with pytest.raises(NumericalError, match="reducible"):
            EigenEvaluator(frame_of(sys)).pair(0.0)


class TestDenseEig:
    """eigen._eig, LAPACK's dgeev as scipy.linalg.eig(A, left=True) returns it."""

    @pytest.mark.parametrize("n", [1, 9, 45, 101])
    @pytest.mark.parametrize("kind", ["general", "symmetric", "strided"])
    def test_matches_scipy_eig_bitwise(self, n, kind):
        rng = np.random.default_rng(n)
        B = rng.normal(size=(n, n))
        # symmetric: real spectrum; general, and the real part of a complex
        # array as _hill_modes passes it: conjugate pairs once n > 1
        A = {"general": B, "symmetric": B + B.T, "strided": (B + 1j * B.T).real}[kind]
        got, ref = _eig(A), scipy_eig(A, left=True)
        assert bool(np.any(ref[0].imag)) == (kind != "symmetric" and n > 1)
        for x, y in zip(got, ref):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def drifting_cell_system():
    """a = 1 + 0.2 cos 2 pi x, l = 1 + 0.5 cos 2 pi x + 0.3 sin 2 pi t, b = 1."""
    af = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 1.0, 0.0), Mode(0, (1,), 0.2, 0.0)))
    lf = PeriodicField(1.0, (1.0,), (
        Mode(0, (0,), 1.0, 0.0), Mode(0, (1,), 0.5, 0.0), Mode(1, (0,), 0.0, 0.3),
    ))
    return scalar_system(a_field=af, l_field=lf)


class TestFrameShift:
    @pytest.mark.parametrize("mu", [0.4, 1.3])
    def test_matches_the_moving_frames_own_pair(self, mu):
        # at c = 5/2 the frame has period T = 2 and z-modes moving in time:
        # the c = 0 pair carried along z - c t is the frame's own Hill pair
        sys = drifting_cell_system()
        ev = EigenEvaluator(frame_of(sys))
        fs = frame_of(sys, "5/2")
        assert fs.T_frame == 2.0
        cell = Grid.periodic_cell(fs.T_frame, 1.0, 64, 32)
        shifted = ev.frame_pair(fs, mu, cell)
        own, *_ = _hill_pair(fs.reduce_1d(), mu, cell, 0)
        assert shifted.eigenfunction.grid == own.eigenfunction.grid == cell
        assert abs(shifted.lam - own.lam) <= 1e-9
        assert shifted.lam == ev(mu) + 2.5 * mu
        assert np.abs(shifted.eigenfunction.values - own.eigenfunction.values).max() <= 1e-8
        assert shifted.residual < 1e-8

    def test_refuses_another_direction_or_speed(self):
        def c2(v):
            return PeriodicField(1.0, (1.0, 1.0), (Mode(0, (0, 0), v, 0.0),))

        sys = KPPSystem(1, 2, (((c2(1.0), c2(0.0)), (c2(0.0), c2(1.0))),),
                        ((c2(0.0), c2(0.0)),), ((c2(1.0),),), ((c2(1.0),),))
        fs = transform_coefficients(nondimensionalize(sys), make_frame([3, 4], 1))
        cell = Grid.periodic_cell(fs.T_frame, 1.0, 4, 1)
        for e, c in (([1, 0], 0), ([3, 4], 1)):
            ev = EigenEvaluator(transform_coefficients(nondimensionalize(sys), make_frame(e, c)))
            with pytest.raises(InputError, match="c = 0 evaluator"):
                ev.frame_pair(fs, 0.5, cell)


def five_point_slope(ev, mu, h=1e-3):
    f = [ev(mu + k * h) for k in (-2, -1, 1, 2)]
    return (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)


class TestExactSlope:
    @pytest.mark.parametrize("sys", [scalar_system(), scalar_system(l_field=space_periodic_l()),
                                     system_2x2(), scalar_system(l_field=time_periodic_l())],
                             ids=["scalar", "cell", "2x2", "scalar_tper"])
    @pytest.mark.parametrize("mu", [0.3, 1.0, 3.0])
    def test_matches_five_point_difference(self, sys, mu):
        ev = EigenEvaluator(frame_of(sys))
        assert abs(ev.derivative(mu) - five_point_slope(ev, mu)) <= 1e-7

    @pytest.mark.parametrize("sys", [scalar_system(l_field=tz_coupled_l()), drifting_cell_system()],
                             ids=["tz-coupled", "drifting-cell"])
    def test_frechet_derivative_of_the_period_map(self, sys):
        # z- and time-dependent: lambda' from G's left and right vectors
        ev = EigenEvaluator(frame_of(sys))
        assert ev.pair(0.7).info["path"] == "fourier-hill" and ev.grid.n_t > 1
        assert abs(ev.derivative(0.7) - five_point_slope(ev, 0.7)) <= 1e-8

    def test_search_points_keep_no_time_periodic_modes(self):
        # a solve keeps time modes, not a slice count's values: the pair of a
        # searched point, and frame pairs on cells of two n_t, cost no new solve
        ev = EigenEvaluator(frame_of(drifting_cell_system()))
        for mu in (0.5, 1.0):
            ev.derivative(mu)
        pair = ev.pair(1.0)
        assert ev.solves == 2 and len(ev.samples) == 2 and pair.lam == ev(1.0)
        fs = frame_of(drifting_cell_system(), "5/2")
        ev = EigenEvaluator(frame_of(drifting_cell_system()))
        for n_t in (32, 64):
            ev.frame_pair(fs, 0.4, Grid.periodic_cell(fs.T_frame, 1.0, n_t, 32))
        assert ev.solves == 1

    def test_search_refuses_reducible_coupling(self):
        # every searched point passes the uniform-positivity refusal
        sys = system_2x2(l12=0.0, l21=0.0, l11_field=tz_coupled_l(), l22=0.3)
        with pytest.raises(NumericalError, match="reducible"):
            EigenEvaluator(frame_of(sys))(0.5)
