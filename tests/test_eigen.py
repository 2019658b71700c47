from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const, scalar_system, space_periodic_l, system_2x2, time_periodic_l
from wavekit.coeffs import Mode, PeriodicField, nondimensionalize
from wavekit.dispersion import persistence_check, static_frame
from wavekit.eigen import (
    EigenEvaluator,
    default_cell_grid,
    _monodromy_rk4,
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
        # l(x) = 1 + 0.5 cos(2 pi x): shift-invert path on the default
        # one-slice cell vs a dense matrix eigensolve of the same flux-form
        # spatial operator
        fs = frame_of(scalar_system(l_field=space_periodic_l(1.0, 0.5)))
        n_z = 64
        grid = default_cell_grid(fs)
        assert (grid.n_t, grid.n_z) == (1, n_z)
        op = build_operator_mu(fs, 0.0, grid)
        pair = principal_eigenvalue(op)
        assert pair.info["path"] == "shift-invert"

        dz = 1.0 / n_z
        z = np.arange(n_z) * dz
        D = np.zeros((n_z, n_z))
        for j in range(n_z):
            D[j, (j + 1) % n_z] += 1 / dz**2
            D[j, (j - 1) % n_z] += 1 / dz**2
            D[j, j] += -2 / dz**2 + 1 + 0.5 * np.cos(2 * np.pi * z[j])
        lam_oracle = -np.max(np.linalg.eigvals(D).real)
        assert pair.lam == pytest.approx(lam_oracle, abs=1e-10)
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
        assert one.info["path"] == full.info["path"] == "shift-invert"
        lam_dense = dense_lambda(ops[0])
        assert one.lam == full.lam == pytest.approx(lam_dense, abs=1e-10)
        assert one.eigenfunction.grid == cell
        assert full.eigenfunction.grid == replace(cell, n_t=64)
        assert np.array_equal(one.eigenfunction.values[:, 0], full.eigenfunction.values[:, 0])
        assert np.all(full.eigenfunction.values == full.eigenfunction.values[:, :1])

    def test_one_node_z_independent_cell_matches_sixteen(self):
        # the ODE path never reads z: a z-independent frame's default cell has
        # one z node, and 16 copied nodes give the same lambda, kappa and, up
        # to the roundoff of the 1/dz^2 stencil bands, residual
        fs = frame_of(system_2x2(l12_field=time_periodic_l(1.0, 1.0), l21=1.0))
        cell = default_cell_grid(fs)
        assert (cell.n_t, cell.n_z) == (4096, 1)
        one, full = (principal_eigenvalue(build_operator_mu(fs, 0.7, replace(cell, n_z=n)))
                     for n in (1, 16))
        assert one.info["path"] == full.info["path"] == "ode-monodromy"
        assert (one.lam, one.kappa) == (full.lam, full.kappa)
        assert one.residual == pytest.approx(full.residual, abs=1e-12)
        assert one.eigenfunction.values.shape == (2, 4096, 1)
        assert np.array_equal(np.repeat(one.eigenfunction.values, 16, axis=2),
                              full.eigenfunction.values)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 12.0])
    def test_static_cell_matches_dense_eigensolve(self, mu):
        # the shift-invert step is exact: lambda is -s for the Perron root s of S
        fs = frame_of(scalar_system(l_field=space_periodic_l()))
        op = build_operator_mu(fs, mu, default_cell_grid(fs))
        pair = principal_eigenvalue(op)
        lam_dense = dense_lambda(op)
        assert pair.info["path"] == "shift-invert"
        assert pair.lam == pytest.approx(lam_dense, abs=1e-10)
        assert pair.residual < 1e-9

    @pytest.mark.parametrize("mu", [30.0, 5000.0])
    def test_constant_system_at_large_tilt(self, mu):
        # the ODE path integrates M - max diag M(0): a scalar static M is exact
        pair = EigenEvaluator(frame_of(scalar_system())).pair(mu)
        assert pair.info["path"] == "ode-monodromy"
        assert pair.lam == pytest.approx(-(1.0 + mu * mu), rel=1e-12)
        assert np.all(pair.eigenfunction.values == 1.0)

    def test_extinct_static_cell(self):
        # L = -3 + 0.5 cos(2 pi x): every row sum of S is negative, sigma stays 1
        sys = scalar_system(l_field=space_periodic_l(-3.0, 0.5))
        fs = frame_of(sys)
        op = build_operator_mu(fs, 0.0, default_cell_grid(fs))
        pair = principal_eigenvalue(op)
        assert pair.info["path"] == "shift-invert"
        assert pair.lam == pytest.approx(dense_lambda(op), abs=1e-10)
        report = persistence_check(EigenEvaluator(static_frame(sys, e=[1])))
        assert report.classification == "extinct" and report.lambda_1p == pair.lam > 0

    def test_shift_invert_steps_its_iterations(self):
        # one backward-Euler step per iteration, the eigenfunction its last start
        fs = frame_of(scalar_system(l_field=space_periodic_l()))
        op = build_operator_mu(fs, 0.5, default_cell_grid(fs))
        with mock.patch.object(Stepper, "step", autospec=True, side_effect=Stepper.step) as spy:
            pair = principal_eigenvalue(op)
        assert pair.info["path"] == "shift-invert"
        assert spy.call_count == pair.info["iterations"]

    def test_power_iteration_steps_its_iterations(self):
        # the eigenfunction is the last iteration's orbit: no extra period
        lf = PeriodicField(1.0, (1.0,), (
            Mode(0, (0,), 1.0, 0.0), Mode(1, (0,), 0.0, 0.8), Mode(0, (1,), 0.4, 0.0),
        ))
        fs = frame_of(scalar_system(l_field=lf))
        op = build_operator_mu(fs, 0.5, Grid.periodic_cell(1.0, 1.0, 64, 64))
        with mock.patch.object(Stepper, "step", autospec=True, side_effect=Stepper.step) as spy:
            pair = principal_eigenvalue(op)
        assert pair.info["path"] == "power-iteration"
        assert spy.call_count == pair.info["iterations"] * op.grid.n_t

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
        # z-dependent diagonal static system: the iteration converges onto the
        # first component's eigenvector, zero up to roundoff in the second
        sys = system_2x2(l12=0.0, l21=0.0, l11_field=space_periodic_l(1.0, 0.5),
                         l22=0.3)
        op = build_operator_mu(frame_of(sys), 0.0, Grid.periodic_cell(1.0, 1.0, 256, 64))
        assert op.is_time_independent() and not op.is_z_independent()
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
        assert not op.is_time_independent() and not op.is_z_independent()
        with pytest.raises(NumericalError, match="reducible"):
            principal_eigenvalue(op)


class TestCurveAndDerivative:
    def test_curve_values_and_slope(self):
        rows = lambda_mu_curve(EigenEvaluator(frame_of(scalar_system())), [0.5, 1.0, 2.0])
        for mu, lam, dlam in rows:
            assert lam == pytest.approx(-(mu**2 + 1), abs=1e-8)
        assert rows[1][2] == pytest.approx(-2.0, abs=1e-4)

    def test_unsorted_rejected(self):
        with pytest.raises(InputError):
            lambda_mu_curve(EigenEvaluator(frame_of(scalar_system())), [1.0, 0.5])


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


def _sequential_rk4(Mfun, T, n_sub, store_every):
    """Reference: the textbook one-step-at-a-time RK4 on Phi' = M(t) Phi."""
    h = T / n_sub
    Ms = Mfun(np.arange(2 * n_sub + 1) * (0.5 * h))
    Phi = np.eye(Ms.shape[1])
    snaps = []
    for k in range(n_sub):
        if k % store_every == 0:
            snaps.append(Phi.copy())
        M0, Mh, M1 = Ms[2 * k], Ms[2 * k + 1], Ms[2 * k + 2]
        k1 = M0 @ Phi
        k2 = Mh @ (Phi + 0.5 * h * k1)
        k3 = Mh @ (Phi + 0.5 * h * k2)
        k4 = M1 @ (Phi + h * k3)
        Phi = Phi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return Phi, np.array(snaps)


class TestMonodromyKernel:
    @settings(max_examples=12, deadline=None)
    @given(
        N=st.sampled_from([1, 2, 3]),
        n_sub=st.sampled_from([2048, 4096]),
        store_every=st.sampled_from([1, 32]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scan_matches_sequential_loop(self, N, n_sub, store_every, seed):
        # cooperative time-periodic M(t) = C + S sin(2 pi t) + K cos(2 pi t)
        # with off-diagonal entries >= 0 at every t
        r = np.random.default_rng(seed)
        C = r.uniform(-2.0, 2.0, (N, N))
        S = r.uniform(-1.0, 1.0, (N, N))
        K = r.uniform(-1.0, 1.0, (N, N))
        off = ~np.eye(N, dtype=bool)
        C[off] = np.abs(S[off]) + np.abs(K[off]) + r.uniform(0.0, 1.0, off.sum())
        T = r.uniform(0.5, 2.0)

        def Mfun(ts):
            w = 2 * np.pi * ts / T
            return C + np.sin(w)[:, None, None] * S + np.cos(w)[:, None, None] * K

        Phi, snaps = _monodromy_rk4(Mfun, T, n_sub, store_every=store_every)
        Phi_ref, snaps_ref = _sequential_rk4(Mfun, T, n_sub, store_every)
        assert np.all(Phi >= 0)
        assert np.abs(Phi - Phi_ref).max() <= 1e-12 * np.abs(Phi_ref).max()
        assert snaps.shape == snaps_ref.shape == (n_sub // store_every, N, N)
        scale = np.abs(snaps_ref).max(axis=(1, 2))
        assert np.all(np.abs(snaps - snaps_ref).max(axis=(1, 2)) <= 1e-12 * scale)

    def test_ode_path_matches_power_iteration(self):
        # z-independent, time-periodic 2x2 system: Crank-Nicolson power
        # iteration on the cell period map converges to the ODE-monodromy
        # eigenvalue at O(dt^2), so its Richardson extrapolation agrees closely
        sys = system_2x2(l12=1.0, l21=2.0, l11_field=time_periodic_l(0.5, 1.5))
        fs = frame_of(sys)
        lam_pde = {}
        for n_t in (256, 512):
            op = build_operator_mu(fs, 0.7, Grid.periodic_cell(1.0, 1.0, n_t, 16))
            stepper = Stepper(op, scheme="cn")
            v = np.ones((2, 16))
            for _ in range(40):
                w, _ = stepper.run_period(v)
                rho = float(np.vdot(v, w) / np.vdot(v, v))
                v = w / np.abs(w).max()
            lam_pde[n_t] = -np.log(rho)
        pair = principal_eigenvalue(op)
        assert pair.info["path"] == "ode-monodromy"
        assert pair.lam == pytest.approx(lam_pde[512], abs=1e-5)
        extrapolated = lam_pde[512] + (lam_pde[512] - lam_pde[256]) / 3.0
        assert pair.lam == pytest.approx(extrapolated, abs=1e-8)
