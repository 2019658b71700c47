from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrs
from scipy.sparse.linalg import splu

from conftest import const, scalar_system, space_periodic_l, system_2x2, time_periodic_l
from wavekit import pde_core
from wavekit.coeffs import KPPSystem, Mode, PeriodicField, nondimensionalize
from wavekit.errors import InputError, NumericalError
from wavekit.frame import make_frame, transform_coefficients
from wavekit.pde_core import (
    Grid,
    GridField,
    apply_S,
    apply_operator,
    build_operator_mu,
    Stepper,
    solve_periodic_bvp,
    stencil,
)


# the implicit weight theta of the step matrix I - theta dt S: the Stepper steps
# backward Euler, theta = 1, and the "be" id names that scheme in the case IDs
BACKWARD_EULER = pytest.mark.parametrize("theta", [1.0], ids=["be"])


def frame_of(sys, c=0):
    return transform_coefficients(nondimensionalize(sys), make_frame([1], c))


def plain_diffusion_frame(l=0.0, a=1.0, q=0.0):
    return frame_of(scalar_system(a=a, q=q, l=l))


class TestApplyOperator:
    def test_constant_field_zero_residual(self):
        fs = plain_diffusion_frame(l=0.0)
        g = Grid.periodic_cell(1.0, 1.0, 8, 32)
        op = build_operator_mu(fs, 0.0, g)
        u = GridField(2.5 * np.ones((1, 8, 32)), g)
        assert apply_operator(op, u).sup() < 1e-14

    def test_laplacian_eigenfunction(self):
        fs = plain_diffusion_frame(l=0.0)
        g = Grid.periodic_cell(1.0, 1.0, 8, 128)
        op = build_operator_mu(fs, 0.0, g)
        z = g.z
        u = GridField(np.tile(np.sin(2 * np.pi * z), (1, 8, 1)), g)
        res = apply_operator(op, u)
        # -u'' = (2 pi)^2 u + O(dz^2)
        expect = (2 * np.pi) ** 2 * u.values
        rel = np.abs(res.values - expect).max() / expect.max()
        assert rel < (2 * np.pi * g.dz) ** 2 / 6

    def test_grid_mismatch(self):
        fs = plain_diffusion_frame()
        g1 = Grid.periodic_cell(1.0, 1.0, 8, 32)
        g2 = Grid.periodic_cell(1.0, 1.0, 8, 64)
        op = build_operator_mu(fs, 0.0, g1)
        with pytest.raises(InputError):
            apply_operator(op, GridField(np.ones((1, 8, 64)), g2))

    def test_grid_convergence_second_order(self):
        # manufactured smooth field: residual against the exact operator
        fs = frame_of(scalar_system(l=0.7, q=0.2), c=1)
        errs = []
        for n_z in (64, 128):
            g = Grid.periodic_cell(1.0, 1.0, 8, n_z)
            op = build_operator_mu(fs, 0.0, g)
            z = g.z
            u = np.tile(np.exp(np.sin(2 * np.pi * z)), (1, 8, 1))
            up = 2 * np.pi * np.cos(2 * np.pi * z) * u[0, 0]
            upp = (2 * np.pi) ** 2 * (np.cos(2 * np.pi * z) ** 2 - np.sin(2 * np.pi * z)) * u[0, 0]
            exact = -upp + 1.2 * up - 0.7 * u[0, 0]
            res = apply_operator(op, GridField(u, g)).values[0, 0]
            errs.append(np.abs(res - exact).max())
        assert errs[0] / errs[1] > 3.0


class TestEvolvePeriod:
    def test_pure_decay_implicit_euler(self):
        # d_t v = -v with zero diffusion: exactly v0 (1 + dt)^{-n_t}
        sys = KPPSystem(1, 1, (((const(0.0),),),), ((const(0.0),),),
                        ((const(-1.0),),), ((const(1.0),),))
        fs = frame_of(sys)
        for n_t in (16, 64):
            g = Grid.periodic_cell(1.0, 1.0, n_t, 16)
            op = build_operator_mu(fs, 0.0, g)
            v, _ = Stepper(op).run_period(np.full(16, 2.0))
            assert v == pytest.approx(2.0 * (1 + 1 / n_t) ** (-n_t), rel=1e-12)

    def test_constant_preserved_by_pure_diffusion(self):
        fs = plain_diffusion_frame(l=0.0)
        g = Grid.periodic_cell(1.0, 1.0, 16, 32)
        op = build_operator_mu(fs, 0.0, g)
        v, _ = Stepper(op).run_period(np.full(32, 0.7))
        assert np.abs(v - 0.7).max() < 1e-12

    def test_heat_decay_rate_within_2pct(self):
        # sin(2 pi z) eigenmode: the one-period decay rate of the implicit
        # Euler flow matches 4 pi^2 within 2% at n_t = 4096.  The final
        # amplitude e^{-4 pi^2} sits at roundoff scale, so the factor is
        # extracted by projection onto the mode (pointwise ratios pick up
        # non-decaying roundoff debris in other modes).
        fs = plain_diffusion_frame(l=0.0)
        g = Grid.periodic_cell(1.0, 1.0, 4096, 64)
        op = build_operator_mu(fs, 0.0, g)
        mode = np.sin(2 * np.pi * g.z)
        st = Stepper(op)
        v1 = st._unflat(st.run_period(st._flat(mode[None, :]))[0])
        factor = float(v1[0] @ mode) / float(mode @ mode)
        rate = -np.log(factor)
        assert abs(rate - 4 * np.pi**2) / (4 * np.pi**2) < 0.02

    def test_linearity(self, rng):
        fs = frame_of(system_2x2(), c=1)
        g = Grid.periodic_cell(1.0, 1.0, 16, 32)
        op = build_operator_mu(fs, 0.3, g)
        v1 = rng.normal(size=(2, 32))
        v2 = rng.normal(size=(2, 32))
        a, b = 1.7, -0.4
        st = Stepper(op)
        lhs, _ = Stepper(op).run_period(st._flat(a * v1 + b * v2))
        rhs = a * Stepper(op).run_period(st._flat(v1))[0] + b * Stepper(op).run_period(st._flat(v2))[0]
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_positivity_preservation(self, rng):
        # cooperative coupling, implicit Euler: nonnegative in, nonnegative out
        fs = frame_of(system_2x2(l11=-1.0, l22=-0.5), c=2)
        g = Grid.periodic_cell(1.0, 1.0, 32, 48)
        op = build_operator_mu(fs, 0.8, g)
        for _ in range(5):
            v0 = np.abs(rng.normal(size=96))
            v, _ = Stepper(op).run_period(v0)
            assert v.min() >= 0.0

    def test_run_period_rejects_misshaped_v0(self):
        g = Grid.periodic_cell(1.0, 1.0, 8, 16)
        st = Stepper(build_operator_mu(frame_of(system_2x2()), 0.0, g))
        for shape in ((2, 16), (31,), (1, 16), (2, 15), (16, 2), (2, 1, 16)):
            with pytest.raises(InputError, match="v0 shape"):
                st.run_period(np.ones(shape))

    def test_peclet_guard(self):
        fs = frame_of(scalar_system(q=50.0))
        g = Grid.periodic_cell(1.0, 1.0, 8, 16)
        op = build_operator_mu(fs, 0.0, g)
        with pytest.raises(InputError):
            Stepper(op).run_period(np.ones(16))

    @BACKWARD_EULER
    def test_one_node_cell_refused(self, theta):
        # u_t = u_zz + u at mu = 0.5: every band folds onto the one node, where
        # the scatter kept only the last (S = 1.5, not apply_S's 1.25), and
        # dgbmv refuses m = 1; a one-node cell takes the eigen ODE path
        op = build_operator_mu(plain_diffusion_frame(l=1.0), 0.5, Grid.periodic_cell(1, 1, 4, 1))
        assert apply_S(op, np.ones((1, 4, 1)))[0, 0, 0] == pytest.approx(1.25)
        with pytest.raises(InputError, match="ODE path"):
            Stepper(op)


class TestPeriodicBVP:
    def cylinder_setup(self, a=4.0, n_z=129, l=-1.0):
        fs = frame_of(scalar_system(l=l))
        g = Grid.cylinder(1.0, a, 8, n_z)
        return build_operator_mu(fs, 0.0, g), g

    def test_zero_data_zero_solution(self):
        op, g = self.cylinder_setup()
        zero = np.zeros((1, g.n_t))
        u, info = solve_periodic_bvp(op, (zero, zero), GridField(np.zeros((1, g.n_t, g.n_z)), g), 1e-10)
        assert u.sup() == 0.0

    def test_cosh_two_point_bvp(self):
        # -u'' + u = 0 on [-a, a] with u(+-a) = 1: cosh(z)/cosh(a)
        op, g = self.cylinder_setup(a=4.0, n_z=257, l=-1.0)
        ones = np.ones((1, g.n_t))
        init = GridField(np.zeros((1, g.n_t, g.n_z)), g)
        u, info = solve_periodic_bvp(op, (ones, ones), init, 1e-12)
        exact = np.cosh(g.z) / np.cosh(4.0)
        assert info["mode"] == "steady"
        assert np.abs(u.values[0, 0] - exact).max() < 2e-4  # O(dz^2)

    def test_relaxation_matches_steady(self):
        op, g = self.cylinder_setup(a=4.0, n_z=129, l=-1.0)
        ones = np.ones((1, g.n_t))
        init = GridField(np.zeros((1, g.n_t, g.n_z)), g)
        u_direct, _ = solve_periodic_bvp(op, (ones, ones), init, 1e-12)
        u_relax, info = solve_periodic_bvp(op, (ones, ones), init, 1e-10,
                                           force_relaxation=True)
        assert info["mode"] == "relaxation"
        assert np.abs(u_direct.values - u_relax.values).max() < 1e-8

    def test_orbit_has_zero_backward_euler_residual(self, rng):
        # a time-periodic operator with an added potential and Dirichlet data:
        # the relaxed orbit solves the scheme apply_operator measures
        fs = frame_of(_pattern_system(2, time_dep=True))
        g = Grid.cylinder(1.0, 1.25, 16, 41)
        op = build_operator_mu(fs, 0.3, g)
        extra = rng.uniform(0.5, 1.0, (2, g.n_t, g.n_z))
        op = replace(op, pot0=op.pot0 + extra)
        bc = (rng.uniform(0.5, 1.0, (2, g.n_t)), rng.uniform(0.0, 0.5, (2, g.n_t)))
        init = GridField(np.zeros((2, g.n_t, g.n_z)), g)
        u, info = solve_periodic_bvp(op, bc, init, 1e-12)
        assert info["mode"] == "relaxation"
        res = apply_operator(op, u).values[:, :, 1:-1]
        assert np.abs(res).max() <= 1e-7 * np.abs(u.values).max()

    def _retarget_setup(self, rng):
        fs = frame_of(_pattern_system(2, time_dep=True))
        g = Grid.cylinder(1.0, 1.25, 16, 41)
        op = build_operator_mu(fs, 0.3, g)
        op = replace(op, pot0=op.pot0 + rng.uniform(0.5, 1.0, (2, g.n_t, g.n_z)))
        bc = (rng.uniform(0.5, 1.0, (2, g.n_t)), rng.uniform(0.0, 0.5, (2, g.n_t)))
        return op, bc, GridField(np.zeros((2, g.n_t, g.n_z)), g)

    def test_reused_lus_relax_to_the_new_operator(self, rng):
        # within LU_REUSE the slice LUs of op step op2; the lag source makes the
        # fixed point backward Euler for op2 itself, as a fresh factorization's
        op, bc, init = self._retarget_setup(rng)
        g = op.grid
        u, info = solve_periodic_bvp(op, bc, init, 1e-12)
        assert info["factorizations"] == g.n_t
        dpot = rng.uniform(-1.0, 1.0, op.pot0.shape)
        dcpl = rng.uniform(-1.0, 1.0, op.coupling.shape)
        # T max row sum |S2 - S| <= |dpot| + 2 |dcpl| in a 2 x 2 block
        scale = 0.9 * pde_core.LU_REUSE / (3.0 * g.t_period)
        op2 = replace(op, pot0=op.pot0 + scale * dpot, coupling=op.coupling + scale * dcpl)
        u2, info2 = solve_periodic_bvp(op2, bc, u, 1e-12, stepper=info["stepper"])
        assert info2["stepper"] is info["stepper"] and info2["factorizations"] == 0
        fresh, _ = solve_periodic_bvp(op2, bc, u, 1e-12)
        assert np.abs(u2.values - fresh.values).max() <= 1e-10
        res = apply_operator(op2, u2).values[:, :, 1:-1]
        assert np.abs(res).max() <= 1e-7 * np.abs(u2.values).max()

    def test_retarget_past_the_bound_refactors(self, rng):
        op, bc, init = self._retarget_setup(rng)
        _, info = solve_periodic_bvp(op, bc, init, 1e-10)
        far = 2.0 * pde_core.LU_REUSE / op.grid.t_period
        op2 = replace(op, pot0=op.pot0 + far)
        u2, info2 = solve_periodic_bvp(op2, bc, init, 1e-10, stepper=info["stepper"])
        assert info2["factorizations"] == op.grid.n_t
        fresh, _ = solve_periodic_bvp(op2, bc, init, 1e-10)
        assert np.array_equal(u2.values, fresh.values)

    def test_wrap_tol_bounds_the_returned_orbit_wrap(self, rng):
        # the returned orbit is the last period's: its wrap |v(T) - v(0)| is the
        # last change, held to wrap_tol dt max|u|, and it is slice 0's residual
        op, bc, init = self._retarget_setup(rng)
        g = op.grid
        loose, info = solve_periodic_bvp(op, bc, init, 1e-3)
        u, info_w = solve_periodic_bvp(op, bc, init, 1e-3, wrap_tol=1e-9)
        assert info_w["periods"] > info["periods"]
        assert info_w["changes"][-1] <= 1e-9 * g.dt * np.abs(u.values).max()
        res = apply_operator(op, u).values[:, :, 1:-1]
        assert np.abs(res).max() <= 1e-8 * np.abs(u.values).max()

    @pytest.mark.parametrize("time_dep", [False, True])
    def test_source_matches_dense_space_time_solve(self, time_dep, rng):
        # backward Euler with a source, (I - dt S_k) u_k = u_{k-1} + dt f_k,
        # periodic in k with Dirichlet ends: relaxation (time-periodic L) and
        # the steady band solve against one dense solve of all the unknowns
        fs = frame_of(_pattern_system(2, time_dep))
        g = Grid.cylinder(1.0, 1.25, 8, 33)
        op = build_operator_mu(fs, 0.3, g)
        op = replace(op, pot0=op.pot0 + 0.5)
        f = rng.uniform(-1.0, 1.0, (2, g.n_t if time_dep else 1, g.n_z)) * np.ones((1, g.n_t, 1))
        bc = tuple(rng.uniform(0.0, 1.0, (2, 1)) * np.ones((1, g.n_t)) for _ in range(2))
        init = GridField(np.zeros((2, g.n_t, g.n_z)), g)
        u, info = solve_periodic_bvp(op, bc, init, 1e-14, source=f)
        assert info["mode"] == ("relaxation" if time_dep else "steady")

        size = f.size
        dense = np.empty((size, size))
        for m in range(size):
            e = np.zeros(size)
            e[m] = 1.0
            dense[:, m] = apply_operator(op, GridField(e.reshape(f.shape), g)).values.ravel()
        rhs = f.copy()
        rhs[..., 0], rhs[..., -1] = bc
        ends = np.zeros(f.shape, dtype=bool)
        ends[..., [0, -1]] = True
        dense[ends.ravel()] = np.eye(size)[ends.ravel()]
        exact = np.linalg.solve(dense, rhs.ravel()).reshape(f.shape)
        assert np.abs(u.values - exact).max() <= 1e-12

    def test_diverging_relaxation_raises_once_not_finite(self):
        # -u'' - 5u on [-2, 2]: a negative Dirichlet eigenvalue makes the
        # period map expand, and the error comes when the change overflows
        op, g = self.cylinder_setup(a=2.0, n_z=33, l=5.0)
        ones = np.ones((1, g.n_t))
        init = GridField(np.zeros((1, g.n_t, g.n_z)), g)
        with pytest.raises(NumericalError, match="diverged") as err:
            solve_periodic_bvp(op, (ones, ones), init, 1e-8, force_relaxation=True)
        assert len(err.value.history) < 1000

    def test_time_periodic_relaxation_factors_each_slice_once(self):
        # backward Euler on 64 distinct slices: one LU per slice, however many periods
        fs = frame_of(scalar_system(l_field=time_periodic_l(mean=-1.0)))
        g = Grid.cylinder(1.0, 2.0, 64, 81)
        ones = np.ones((1, g.n_t))
        init = GridField(np.zeros((1, g.n_t, g.n_z)), g)
        _, info = solve_periodic_bvp(build_operator_mu(fs, 0.0, g), (ones, ones), init, 1e-10)
        assert info["mode"] == "relaxation" and info["periods"] > 2
        assert info["factorizations"] == 64

    def test_monotone_ordering_of_iterates(self):
        # ordered initial states stay ordered period after period
        op, g = self.cylinder_setup(a=4.0, n_z=129, l=0.5)
        data = 0.2 * np.ones((1, g.n_t))
        st = Stepper(op, bc=(data, data))
        v1 = np.zeros(g.n_z)
        v2 = 0.3 * np.ones(g.n_z)
        for _ in range(12):
            v1, _ = st.run_period(v1)
            v2, _ = st.run_period(v2)
            assert (v2 - v1).min() >= -1e-13


def picard_quadratic_step(st, v, k, b_k):
    """The implicit quadratic step as fixed-point iterations alone: the
    backward-Euler step before Newton could take over."""
    dt = st.grid.dt
    kk = (k + 1) % st.grid.n_t
    b = np.where(st._dirichlet, 0.0, st._flat(b_k))
    rhs0 = st._bc_into(st._flat(v), kk)
    solve = st._lhs_lu[kk % st.n_distinct]
    w = solve(rhs0.copy())
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(60):
            w_new = solve(rhs0 - dt * b * w * w)
            change = float(np.abs(w_new - w).max())
            w = w_new
            if not np.isfinite(change):
                break
            if change <= 1e-13 * (1.0 + np.abs(w).max()):
                return st._unflat(w)
    raise NumericalError("Picard iteration did not converge")


class TestImplicitQuadraticStep:
    def test_picard_convergent_steps_unchanged(self, rng):
        # a time-periodic 2 x 2 step solver with Dirichlet data: where the
        # fixed-point iteration contracts, the step is bit-equal to it
        fs = frame_of(_pattern_system(2, time_dep=True))
        g = Grid.cylinder(1.0, 1.25, 16, 41)
        bc = (rng.uniform(0.5, 1.0, (2, g.n_t)), rng.uniform(0.0, 0.5, (2, g.n_t)))
        st = Stepper(build_operator_mu(fs, 0.3, g), bc=bc)
        assert st.time_dependent
        for k in range(g.n_t):
            v = rng.uniform(0.0, 1.0, (2, g.n_z))
            b_k = rng.uniform(0.5, 2.0, (2, g.n_z))
            assert np.array_equal(st.step_implicit_quadratic(v, k, b_k),
                                  picard_quadratic_step(st, v, k, b_k))

    def test_one_slice_step_solved_by_newton(self):
        # dt = T: the fixed-point iteration diverges, Newton solves
        # (I - dt S) w + dt b w^2 = v to roundoff
        fs = frame_of(scalar_system(l=1.0))
        g = Grid.cylinder(1.0, 6.0, 1, 121)
        zero = np.zeros((1, g.n_t))
        st = Stepper(build_operator_mu(fs, 0.0, g), bc=(zero, zero))
        v, b_k = 4.0 * np.ones((1, g.n_z)), 3.0 * np.ones((1, g.n_z))
        with pytest.raises(NumericalError):
            picard_quadratic_step(st, v, 0, b_k)
        w = st._flat(st.step_implicit_quadratic(v, 0, b_k))
        b = np.where(st._dirichlet, 0.0, st._flat(b_k))
        res = w - g.dt * (_reference_S(st, 0) @ w) + g.dt * b * w * w - st._bc_into(st._flat(v), 0)
        assert np.abs(res).max() <= 1e-12 * np.abs(w).max()
        assert w.min() >= 0.0

    def test_long_step_newton_meets_its_stop_rule(self):
        # a pseudo-time step dt = 1e3 with Dirichlet data 1 and 1/2: the
        # fixed-point iteration diverges, the shared Newton meets
        # |G| < 1e-11 (1 + |v|) / min(dt, 1), and the step returns the data
        fs = frame_of(scalar_system(l=1.0))
        g = Grid.cylinder(1e3, 6.0, 1, 121)
        bc = (np.ones((1, 1)), 0.5 * np.ones((1, 1)))
        st = Stepper(build_operator_mu(fs, 0.0, g), bc=bc)
        v, b_k = 4.0 * np.ones((1, g.n_z)), 3.0 * np.ones((1, g.n_z))
        with pytest.raises(NumericalError):
            picard_quadratic_step(st, v, 0, b_k)
        u = st._bc_into(st._flat(v), 0)
        b = np.where(st._dirichlet, 0.0, st._flat(b_k))
        data = st._bc_into(np.zeros(st.size), 0)
        stop = 1e-11 * (1.0 + np.abs(u).max()) / min(g.dt, 1.0)
        for w in (st._newton_be(u, b, g.dt, 0), st._flat(st.step_implicit_quadratic(v, 0, b_k))):
            G = (w - u) / g.dt + (_reference_steady(st) @ w + b * w * w - data)
            assert np.abs(G).max() < stop
        assert np.array_equal(w[st._dirichlet], data[st._dirichlet])
        assert w.min() >= 0.0


class TestZeroFluxStepper:
    # an interval grid without boundary data: the closure the Cauchy layer uses.
    # The drift 0.1 + 0.3 sin(2 pi z) points out of [-1.25, 1.25] at both
    # ends (-0.2 and 0.4), so both upwinded end rows are exercised.
    def stepper(self, q_mean=0.1, q_amp=0.3, n_t=8, n_z=81):
        a_field = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 1.0, 0.0), Mode(0, (1,), 0.3, 0.0)))
        q_field = PeriodicField(1.0, (1.0,), (Mode(0, (0,), q_mean, 0.0), Mode(0, (1,), 0.0, q_amp)))
        fs = frame_of(scalar_system(a_field=a_field, q_field=q_field, l=0.0))
        op = build_operator_mu(fs, 0.0, Grid.cylinder(1.0, 1.25, n_t, n_z))
        return Stepper(op)

    def test_constant_is_fixed_point(self):
        st = self.stepper()
        for k in range(st.grid.n_t):
            assert np.abs(st.step(np.full(st.size, 0.7), k) - 0.7).max() < 1e-14

    def test_pure_diffusion_conserves_mass(self, rng):
        st = self.stepper(q_mean=0.0, q_amp=0.0)
        v0 = np.abs(rng.normal(size=st.size))
        v, _ = st.run_period(v0)
        assert abs(v.sum() - v0.sum()) < 1e-12 * v0.sum()

    def test_positivity_preservation(self, rng):
        st = self.stepper()
        for _ in range(5):
            v, _ = st.run_period(np.abs(rng.normal(size=st.size)))
            assert v.min() >= 0.0


def _reference_S(st, k):
    """S on slice k from per-component COO lists: the assembly before the shared pattern."""
    op, g = st.op, st.grid
    N, nz, dz = st.N, g.n_z, g.dz
    periodic = g.kind == "periodic"
    zero_flux = not periodic and st.bc is None
    jj = np.arange(nz) if periodic else np.arange(1, nz - 1)
    jp = (jj + 1) % nz
    jm = (jj - 1) % nz
    jr = np.arange(nz) if zero_flux else jj
    rows, cols, vals = [], [], []
    for i in range(N):
        ah = op.a_half[i, k]
        dr = op.drift[i, k, jj]
        aR = ah[jj]
        aL = ah[jm] if periodic else ah[jj - 1]
        m = jj * N + i
        rows += [m, m, m]
        cols += [jp * N + i, jm * N + i, m]
        vals += [aR / dz**2 - dr / (2 * dz),
                 aL / dz**2 + dr / (2 * dz),
                 -(aR + aL) / dz**2 - op.pot0[i, k, jj]]
        if zero_flux:
            q0, qN = op.drift[i, k, 0], op.drift[i, k, -1]
            m0, mN = i, (nz - 1) * N + i
            rows.append(np.array([m0, m0, mN, mN]))
            cols.append(np.array([N + i, m0, (nz - 2) * N + i, mN]))
            vals.append(np.array([
                ah[0] / dz**2 + max(-q0, 0.0) / dz,
                -ah[0] / dz**2 - abs(q0) / dz + max(q0, 0.0) / dz - op.pot0[i, k, 0],
                ah[-1] / dz**2 + max(qN, 0.0) / dz,
                -ah[-1] / dz**2 - abs(qN) / dz + max(-qN, 0.0) / dz - op.pot0[i, k, -1],
            ]))
        for j2 in range(N):
            rows.append(jr * N + i)
            cols.append(jr * N + j2)
            vals.append(op.coupling[i, j2, k, jr])
    return sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(st.size, st.size),
    )


def _reference_dirichlet_rows(st):
    if st.bc is None:
        return []
    N, nz = st.N, st.grid.n_z
    return list(range(N)) + list(range((nz - 1) * N, nz * N))


def _reference_steady(st, k=0):
    m = (-_reference_S(st, k)).tolil()
    for row in _reference_dirichlet_rows(st):
        m.rows[row] = [row]
        m.data[row] = [1.0]
    return m.tocsc()


def _dense_S(st, k):
    """S_k in the natural order, read off the Stepper's band storage of S_k^T
    in its solve order; entries past the matrix's corners must be zero."""
    kb, size = st.kb, st.size
    ab = st._S_ab[k].T
    S = np.zeros((size, size))
    for o in range(-kb, kb + 1):
        m = np.arange(size)
        inside = (m + o >= 0) & (m + o < size)
        assert np.all(ab[kb + o, ~inside] == 0.0)
        S[m[inside], m[inside] + o] = ab[kb + o, inside]
    order = st._flat(np.arange(size).reshape(-1, st.N).T)
    out = np.zeros_like(S)
    out[np.ix_(order, order)] = S
    return out


def _pattern_system(N, time_dep):
    """Variable a, and a drift pointing out of [-1.25, 1.25] at both ends at mu = 0.3."""
    a = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 1.0, 0.0), Mode(0, (1,), 0.3, 0.0)))
    q = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 0.1, 0.0), Mode(0, (1,), 0.0, 0.9)))
    l = time_periodic_l() if time_dep else space_periodic_l()
    if N == 1:
        return scalar_system(a_field=a, q_field=q, l_field=l)
    # the zero off-diagonal couplings are explicit zeros of the pattern
    if N == 3:  # decaying: d I - S stays well conditioned for d >= 1/2
        l = time_periodic_l(-1.0) if time_dep else space_periodic_l(-1.0)
        return KPPSystem(
            3, 1, (((a,),), ((const(0.8),),), ((const(1.2),),)), ((q,), (const(0.0),), (const(-0.2),)),
            ((l, const(0.0), const(0.2)), (const(0.5), const(-0.3), const(0.0)),
             (const(0.1), const(0.4), const(-0.5))),
            tuple((const(1.0),) * 3 for _ in range(3)),
        )
    return KPPSystem(
        2, 1, (((a,),), ((const(0.8),),)), ((q,), (const(0.0),)),
        ((l, const(0.0)), (const(0.5), const(-0.3))),
        ((const(1.0), const(1.0)), (const(1.0), const(1.0))),
    )


class TestSharedPattern:
    # every (grid closure, N, time dependence, shape of a diagonal folded into pot0)
    @BACKWARD_EULER
    @pytest.mark.parametrize("extra", [None, "static", "time"])
    @pytest.mark.parametrize("time_dep", [False, True])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("closure", ["periodic", "dirichlet", "zero_flux"])
    def test_matches_per_slice_assembly(self, closure, N, time_dep, extra, theta, rng):
        fs = frame_of(_pattern_system(N, time_dep))
        if closure == "periodic":
            g = Grid.periodic_cell(1.0, 1.0, 8, 32)
        else:
            g = Grid.cylinder(1.0, 1.25, 8, 41)
        op = build_operator_mu(fs, 0.3, g)
        if extra is not None:
            diag = rng.normal(size=(N, 1 if extra == "static" else g.n_t, g.n_z))
            op = replace(op, pot0=op.pot0 + diag)  # broadcasts into (N, n_t, n_z)
        bc = None
        if closure == "dirichlet":
            bc = (rng.uniform(0.5, 1.0, (N, g.n_t)), rng.uniform(0.0, 0.5, (N, g.n_t)))
        st = Stepper(op, bc=bc)
        assert st.n_distinct == (g.n_t if time_dep or extra == "time" else 1)

        dt = g.dt
        eye = sp.identity(st.size, format="csc")
        lhs_ref = []
        x = rng.uniform(0.0, 1.0, (N, g.n_z))
        x_ref = x.T.reshape(-1)
        for k in range(st.n_distinct):
            S_ref = _reference_S(st, k)
            lhs_ref.append(eye - (theta * dt) * S_ref)
            assert np.array_equal(_dense_S(st, k), S_ref.toarray())
            # the band products d I + s S, d a scalar or a diagonal (the steady K)
            products = (((1.0, 0.5 * dt), eye + (0.5 * dt) * S_ref),
                        ((st._dirichlet, -1.0), _reference_steady(st, k)))
            for (d, s), ref in products:
                got = st._unflat(st._apply(st._flat(x), d, s, k)).T.reshape(-1)
                expect = ref @ x_ref
                assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

        # apply_operator: the backward difference against the same S, on every
        # row the reference assembles
        u = rng.uniform(0.0, 1.0, (N, g.n_t, g.n_z))
        res = apply_operator(op, GridField(u, g)).values
        rows = slice(None) if bc is None else slice(1, -1)
        for k in range(g.n_t):
            Su = (_reference_S(st, k % st.n_distinct) @ u[:, k].T.reshape(-1)).reshape(g.n_z, N).T
            expect = (u[:, k] - u[:, k - 1]) / dt - Su
            assert np.allclose(res[:, k, rows], expect[:, rows], rtol=1e-12, atol=1e-9)

        v = rng.uniform(0.0, 1.0, (N, g.n_z))
        for k in range(g.n_t):
            kk = (k + 1) % g.n_t
            rhs = np.ascontiguousarray(v.T).reshape(-1).copy()
            rows = _reference_dirichlet_rows(st)
            if rows:
                rhs[rows] = np.concatenate([bc[0][:, kk], bc[1][:, kk]])
            expect = splu(lhs_ref[kk % st.n_distinct].tocsc()).solve(rhs).reshape(g.n_z, N).T
            got = st._unflat(st.step(st._flat(v), k))
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
            v = got


def _solve_order(st, b):
    """A flat vector in the natural unknown order (m = j N + i), in the Stepper's solve order."""
    return st._flat(b.reshape(st.grid.n_z, st.N).T)


class TestBandLU:
    # the step solver's LU of d I + s S against a dense solve
    def stepper(self, closure, N, rng, decay=0.0):
        fs = frame_of(_pattern_system(N, time_dep=False))
        if closure == "periodic":
            g = Grid.periodic_cell(1.0, 1.0, 8, 32)
        else:
            g = Grid.cylinder(1.0, 1.25, 8, 41)
        bc = None
        if closure == "dirichlet":
            bc = (rng.uniform(0.5, 1.0, (N, g.n_t)), rng.uniform(0.0, 0.5, (N, g.n_t)))
        op = build_operator_mu(fs, 0.3, g)
        return Stepper(replace(op, pot0=op.pot0 + decay), bc=bc)

    def assert_solves(self, st, solve, A, rng):
        b = rng.normal(size=st.size)
        x = st._unflat(solve(_solve_order(st, b))).T.reshape(-1)
        ref = np.linalg.solve(A, b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("s", [-0.125, -1.0])
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("closure", ["periodic", "dirichlet", "zero_flux"])
    def test_solves_match_dense(self, closure, N, s, rng, monkeypatch):
        # a diagonal d of order one, then one spanning 1e-6 to 1e6 (pivots of
        # every scale through the product by 1/D) on the operator with a decay
        # of 5, whose -S rows sum to more than 2: d + s S stays well conditioned
        # and swaps no row, so its solve is the D U1 split, not dgbtrs
        calls = []
        monkeypatch.setattr(pde_core, "dgbtrs", lambda *a, **kw: calls.append(1) or dgbtrs(*a, **kw))
        for decay, wide in ((0.0, False), (5.0, True)):
            st = self.stepper(closure, N, rng, decay)
            S = _reference_S(st, 0).toarray()
            d = 10.0 ** rng.uniform(-6.0, 6.0, st.size) if wide else rng.uniform(0.5, 2.0, st.size)
            solve = st._lu(_solve_order(st, d), s)
            assert st.factorizations == 1
            calls.clear()
            self.assert_solves(st, solve, np.diag(d) + s * S, rng)
            assert not (wide and calls)

    def test_row_swap_solves_through_dgbtrs(self, rng, monkeypatch):
        # a zero first diagonal entry: the first column of A^T must pivot
        st = self.stepper("zero_flux", 1, rng)
        S = _reference_S(st, 0).toarray()
        d = np.ones(st.size)
        d[0] = S[0, 0]
        calls = []
        monkeypatch.setattr(pde_core, "dgbtrs", lambda *a, **kw: calls.append(1) or dgbtrs(*a, **kw))
        self.assert_solves(st, st._lu(_solve_order(st, d), -1.0), np.diag(d) - S, rng)
        assert calls == [1]

    def test_singular_matrix_raises(self, rng):
        # S alone has zero Dirichlet rows
        st = self.stepper("dirichlet", 2, rng)
        with pytest.raises(NumericalError, match="singular"):
            st._lu(0.0, 1.0)


def reference_period(st, v0, source, orbit, lag=None):
    """One period of steps in the (N, n_z) form, one Stepper solve per step,
    with the lag source (N, N, n_t, n_z) if given: run_period before the
    solve order.  Returns (v at t_{n_t}, orbit)."""
    n_t, dt = st.grid.n_t, st.grid.dt
    v = np.array(v0, dtype=float)
    for k in range(n_t):
        orbit[:, k] = v
        kk = (k + 1) % n_t
        if source is not None:
            v = v + dt * source[:, kk]
        if lag is not None:
            v = v + dt * np.einsum("ijz,jz->iz", lag[:, :, kk], orbit[:, kk])
        v = st._unflat(st._lhs_lu[kk % st.n_distinct](st._bc_into(st._flat(v), kk)))
    return v, orbit


def assert_same(got, ref, N):
    """Bit-identical for N = 1, within 1e-14 relative for more components."""
    if N == 1:
        assert np.array_equal(got, ref)
    else:
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestSolveOrderLoop:
    @pytest.mark.parametrize("N", [1, 2])
    def test_run_period_matches_per_step_loop(self, N, rng):
        # a time-periodic Stepper with Dirichlet data and a source, then a
        # retarget that keeps its LUs: the lag source read off the last orbit
        fs = frame_of(_pattern_system(N, time_dep=True))
        g = Grid.cylinder(1.0, 1.25, 16, 41)
        op = build_operator_mu(fs, 0.3, g)
        bc = (rng.uniform(0.5, 1.0, (N, g.n_t)), rng.uniform(0.0, 0.5, (N, g.n_t)))
        st = Stepper(op, bc=bc)
        source = rng.uniform(-1.0, 1.0, (N, g.n_t, g.n_z))
        dt_f = g.dt * st._flat(source)
        v0 = rng.uniform(0.0, 1.0, (N, g.n_z))
        v, orbit = st.run_period(st._flat(v0), dt_f)
        v_ref, orbit_ref = reference_period(st, v0, source, np.empty((N, g.n_t, g.n_z)))
        assert_same(st._unflat(v), v_ref, N)
        assert_same(st._unflat(orbit), orbit_ref, N)

        op2 = replace(op, pot0=op.pot0 + 0.04 * rng.uniform(-1.0, 1.0, op.pot0.shape),
                      coupling=op.coupling + 0.01 * rng.uniform(0.0, 1.0, op.coupling.shape))
        lu_before = st.factorizations
        st.retarget(op2)
        assert st._lag is not None and st.factorizations == lu_before
        lag = op2.coupling - op.coupling
        for i in range(N):
            lag[i, i] -= op2.pot0[i]
            lag[i, i] += op.pot0[i]
        for _ in range(2):
            v, orbit = st.run_period(v, dt_f, orbit)
            v_ref, orbit_ref = reference_period(st, v_ref, source, orbit_ref, lag)
            assert_same(st._unflat(v), v_ref, N)
            assert_same(st._unflat(orbit), orbit_ref, N)
        assert st.factorizations == lu_before


class TestStencilBands:
    # band[N + o][k, m] = S_k[m, m + o] over TestSharedPattern's cases
    @pytest.mark.parametrize("extra", [None, "static", "time"])
    @pytest.mark.parametrize("time_dep", [False, True])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("closure", ["periodic", "dirichlet", "zero_flux"])
    def test_bands_match_per_slice_assembly(self, closure, N, time_dep, extra, rng):
        fs = frame_of(_pattern_system(N, time_dep))
        if closure == "periodic":
            g = Grid.periodic_cell(1.0, 1.0, 8, 32)
        else:
            g = Grid.cylinder(1.0, 1.25, 8, 41)
        op = build_operator_mu(fs, 0.3, g)
        if extra is not None:
            diag = rng.normal(size=(N, 1 if extra == "static" else g.n_t, g.n_z))
            op = replace(op, pot0=op.pot0 + diag)  # broadcasts into (N, n_t, n_z)
        bc = None
        if closure == "dirichlet":
            bc = (rng.uniform(0.5, 1.0, (N, g.n_t)), rng.uniform(0.0, 0.5, (N, g.n_t)))
        st = Stepper(op, bc=bc)
        band = stencil(op, st.n_distinct)
        assert band.shape == (2 * N + 1, st.n_distinct, st.size)

        m = np.arange(st.size)
        # the reference leaves a Dirichlet row empty; stencil keeps its zero-flux row
        assembled = (m >= N) & (m < st.size - N) if bc is not None else m >= 0
        for k in range(st.n_distinct):
            S_ref = _reference_S(st, k).toarray()
            for o in range(-N, N + 1):
                col = m + o
                inside = (closure == "periodic") | ((col >= 0) & (col < st.size))
                pair = (abs(o) == N) | ((m % N + o >= 0) & (m % N + o < N))
                got = band[N + o, k]
                assert np.all(got[~(inside & pair)] == 0.0)
                rows = assembled & inside
                assert np.array_equal(got[rows], S_ref[m[rows], col[rows] % st.size])


class TestGridFieldIO:
    def test_csv_round_trip(self, tmp_path, rng):
        g = Grid.cylinder(1.0, 2.0, 4, 17)
        f = GridField(rng.normal(size=(2, 4, 17)), g)
        p = tmp_path / "field.csv"
        f.to_csv(p)
        back = GridField.from_csv(p)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_csv_text_matches_row_loop(self, tmp_path, rng):
        g = Grid.cylinder(1.0, 2.0, 3, 17)
        f = GridField(rng.normal(size=(2, 3, 17)) * 10.0 ** rng.integers(-300, 300, size=(2, 3, 17)), g)
        p = tmp_path / "field.csv"
        f.to_csv(p)
        body = "".join(
            f"{i},{k},{float(g.z[j])!r},{float(f.values[i, k, j])!r}\n"
            for i in range(2) for k in range(3) for j in range(17)
        )
        assert p.read_text().split("\n", 2)[2] == body

    def test_csv_bytes_of_awkward_floats(self, tmp_path):
        # the reprs a per-line "{!r}" gave: exponents, a signed zero, the least
        # subnormal and a sum off its decimal literal, also across the chunks
        # of _CSV_CHUNK lines the writer formats at once
        g = Grid.cylinder(1.0, 8.0, 2, 2 * pde_core._CSV_CHUNK + 1)
        vals = np.full((1, 2, g.n_z), 0.5)
        awkward = [1e-05, 1e16, -0.0, 5e-324, 0.1 + 0.2]
        for j in (0, pde_core._CSV_CHUNK - 2, g.n_z - 5):
            vals[0, 1, j:j + 5] = awkward
        p = tmp_path / "field.csv"
        GridField(vals, g).to_csv(p)
        lines = p.read_bytes().split(b"\n")
        assert lines[0] == (f"# grid kind=interval n_t=2 n_z={g.n_z} t_period=1.0 "
                            "z0=-8.0 z1=8.0").encode()
        row = lines[2 + g.n_z:2 + 2 * g.n_z]
        assert [ln.split(b",")[3] for ln in row[:5]] == [b"1e-05", b"1e+16", b"-0.0", b"5e-324",
                                                        b"0.30000000000000004"]
        body = "".join(f"{i},{k},{float(g.z[j])!r},{float(vals[i, k, j])!r}\n"
                       for i in range(1) for k in range(2) for j in range(g.n_z))
        assert p.read_bytes().split(b"\n", 2)[2] == body.encode()

    def test_grid_invariants(self):
        with pytest.raises(InputError):
            Grid.periodic_cell(1.0, 1.0, 8, 8)  # n_z too small
        with pytest.raises(InputError, match="only on a periodic cell"):
            Grid.cylinder(1.0, 4.0, 8, 1)
        one = Grid.periodic_cell(1.0, 2.0, 8, 1)  # a z-independent frame's cell
        assert one.dz == 2.0 and one.z.tolist() == [0.0]
        g = Grid.cylinder(2.0, 4.0, 8, 33)
        assert g.dt == pytest.approx(0.25)
        assert g.dz == pytest.approx(0.25)
        assert len(g.z) == 33 and g.z[0] == -4.0 and g.z[-1] == 4.0
