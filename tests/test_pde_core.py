import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import const, scalar_system, space_periodic_l, system_2x2, time_periodic_l
from wavekit.coeffs import KPPSystem, Mode, PeriodicField, nondimensionalize
from wavekit.errors import InputError
from wavekit.frame import make_frame, transform_coefficients
from wavekit.pde_core import (
    Grid,
    GridField,
    apply_operator,
    build_operator_mu,
    Stepper,
    solve_periodic_bvp,
)


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
            v = Stepper(op).run_period(np.full((1, 16), 2.0))
            assert v == pytest.approx(2.0 * (1 + 1 / n_t) ** (-n_t), rel=1e-12)

    def test_constant_preserved_by_pure_diffusion(self):
        fs = plain_diffusion_frame(l=0.0)
        g = Grid.periodic_cell(1.0, 1.0, 16, 32)
        op = build_operator_mu(fs, 0.0, g)
        v = Stepper(op).run_period(np.full((1, 32), 0.7))
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
        v1 = Stepper(op).run_period(mode[None, :])
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
        lhs = Stepper(op).run_period(a * v1 + b * v2)
        rhs = a * Stepper(op).run_period(v1) + b * Stepper(op).run_period(v2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_positivity_preservation(self, rng):
        # cooperative coupling, implicit Euler: nonnegative in, nonnegative out
        fs = frame_of(system_2x2(l11=-1.0, l22=-0.5), c=2)
        g = Grid.periodic_cell(1.0, 1.0, 32, 48)
        op = build_operator_mu(fs, 0.8, g)
        for _ in range(5):
            v0 = np.abs(rng.normal(size=(2, 48)))
            v = Stepper(op).run_period(v0)
            assert v.min() >= 0.0

    def test_run_period_rejects_misshaped_v0(self):
        g = Grid.periodic_cell(1.0, 1.0, 8, 16)
        st = Stepper(build_operator_mu(frame_of(system_2x2()), 0.0, g))
        for shape in ((1, 16), (2, 15), (16, 2), (2, 1, 16)):
            with pytest.raises(InputError, match="v0 shape"):
                st.run_period(np.ones(shape))

    def test_peclet_guard(self):
        fs = frame_of(scalar_system(q=50.0))
        g = Grid.periodic_cell(1.0, 1.0, 8, 16)
        op = build_operator_mu(fs, 0.0, g)
        with pytest.raises(InputError):
            Stepper(op).run_period(np.ones((1, 16)))


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

    def test_semilinear_relaxation_matches_ptc(self):
        # -u'' - u + u^2 = 0 with u(+-a) = 1/2: the pseudo-transient steady
        # branch and the relaxation branch of one driver agree
        op, g = self.cylinder_setup(a=2.0, n_z=65, l=1.0)
        half = 0.5 * np.ones((1, g.n_t))
        init = GridField(np.ones((1, g.n_t, g.n_z)), g)
        quad = np.ones((1, g.n_t, g.n_z))
        u_ptc, info_ptc = solve_periodic_bvp(op, (half, half), init, 1e-12, quadratic=quad)
        u_relax, info_relax = solve_periodic_bvp(op, (half, half), init, 1e-12,
                                                 quadratic=quad, force_relaxation=True)
        assert info_ptc["mode"] == "steady" and info_ptc["periods"] == 0
        assert info_relax["mode"] == "relaxation" and info_relax["periods"] > 1
        assert u_ptc.values.min() >= 0.5
        assert np.abs(u_ptc.values - u_relax.values).max() < 1e-8

    def test_quadratic_step_needs_backward_euler(self):
        # on a Crank-Nicolson Stepper the cached matrix is I - dt/2 S, and the
        # implicit quadratic step would converge to -S/2 u + b u^2 = 0: the
        # KPP cylinder's mid-domain value would be about 0.5 instead of 0.99
        op, g = self.cylinder_setup(a=6.0, n_z=121, l=1.0)
        zero = np.zeros((1, g.n_t))
        st = Stepper(op, scheme="cn", bc=(zero, zero))
        with pytest.raises(InputError):
            st.step_implicit_quadratic(np.ones((1, g.n_z)), 0, np.ones((1, g.n_z)))
        init = GridField(np.ones((1, g.n_t, g.n_z)), g)
        quad = np.ones((1, g.n_t, g.n_z))
        with pytest.raises(TypeError):
            solve_periodic_bvp(op, (zero, zero), init, 1e-10, quadratic=quad, scheme="cn")
        mid = []
        for relax in (False, True):
            u, info = solve_periodic_bvp(op, (zero, zero), init, 1e-10, quadratic=quad,
                                         force_relaxation=relax)
            assert info["mode"] == ("relaxation" if relax else "steady")
            mid.append(u.values[0, 0, g.n_z // 2])
        assert 0.95 < mid[0] < 1.0
        assert mid[1] == pytest.approx(mid[0], abs=1e-8)

    def test_monotone_ordering_of_iterates(self):
        # ordered initial states stay ordered period after period
        op, g = self.cylinder_setup(a=4.0, n_z=129, l=0.5)
        data = 0.2 * np.ones((1, g.n_t))
        st = Stepper(op, bc=(data, data))
        v1 = np.zeros((1, g.n_z))
        v2 = 0.3 * np.ones((1, g.n_z))
        for _ in range(12):
            v1 = st.run_period(v1)
            v2 = st.run_period(v2)
            assert (v2 - v1).min() >= -1e-13


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
        v = np.full((1, st.grid.n_z), 0.7)
        for k in range(st.grid.n_t):
            assert np.abs(st.step(v, k) - 0.7).max() < 1e-14

    def test_pure_diffusion_conserves_mass(self, rng):
        st = self.stepper(q_mean=0.0, q_amp=0.0)
        v0 = np.abs(rng.normal(size=(1, st.grid.n_z)))
        v = st.run_period(v0)
        assert abs(v.sum() - v0.sum()) < 1e-12 * v0.sum()

    def test_positivity_preservation(self, rng):
        st = self.stepper()
        for _ in range(5):
            v = st.run_period(np.abs(rng.normal(size=(1, st.grid.n_z))))
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
    extra = np.zeros((N, nz))
    if st.extra_diag is not None:
        extra = st.extra_diag[:, k if st.extra_diag.shape[1] > 1 else 0, :]
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
                 -(aR + aL) / dz**2 - op.pot0[i, k, jj] - extra[i, jj]]
        if zero_flux:
            q0, qN = op.drift[i, k, 0], op.drift[i, k, -1]
            m0, mN = i, (nz - 1) * N + i
            rows.append(np.array([m0, m0, mN, mN]))
            cols.append(np.array([N + i, m0, (nz - 2) * N + i, mN]))
            vals.append(np.array([
                ah[0] / dz**2 + max(-q0, 0.0) / dz,
                -ah[0] / dz**2 - abs(q0) / dz + max(q0, 0.0) / dz
                - op.pot0[i, k, 0] - extra[i, 0],
                ah[-1] / dz**2 + max(qN, 0.0) / dz,
                -ah[-1] / dz**2 - abs(qN) / dz + max(-qN, 0.0) / dz
                - op.pot0[i, k, -1] - extra[i, -1],
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


def _reference_steady(st):
    m = (-_reference_S(st, 0)).tolil()
    for row in _reference_dirichlet_rows(st):
        m.rows[row] = [row]
        m.data[row] = [1.0]
    return m.tocsc()


def _pattern_system(N, time_dep):
    """Variable a, and a drift pointing out of [-1.25, 1.25] at both ends at mu = 0.3."""
    a = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 1.0, 0.0), Mode(0, (1,), 0.3, 0.0)))
    q = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 0.1, 0.0), Mode(0, (1,), 0.0, 0.9)))
    l = time_periodic_l() if time_dep else space_periodic_l()
    if N == 1:
        return scalar_system(a_field=a, q_field=q, l_field=l)
    # the zero off-diagonal coupling is an explicit zero of the pattern
    return KPPSystem(
        2, 1, (((a,),), ((const(0.8),),)), ((q,), (const(0.0),)),
        ((l, const(0.0)), (const(0.5), const(-0.3))),
        ((const(1.0), const(1.0)), (const(1.0), const(1.0))),
    )


class TestSharedPattern:
    # every (grid closure, N, time dependence, extra_diag shape, scheme)
    @pytest.mark.parametrize("scheme", ["be", "cn"])
    @pytest.mark.parametrize("extra", [None, "static", "time"])
    @pytest.mark.parametrize("time_dep", [False, True])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("closure", ["periodic", "dirichlet", "zero_flux"])
    def test_matches_per_slice_assembly(self, closure, N, time_dep, extra, scheme, rng):
        fs = frame_of(_pattern_system(N, time_dep))
        if closure == "periodic":
            g = Grid.periodic_cell(1.0, 1.0, 8, 32)
        else:
            g = Grid.cylinder(1.0, 1.25, 8, 41)
        op = build_operator_mu(fs, 0.3, g)
        extra_diag = None
        if extra is not None:
            extra_diag = rng.normal(size=(N, 1 if extra == "static" else g.n_t, g.n_z))
        bc = None
        if closure == "dirichlet":
            bc = (rng.uniform(0.5, 1.0, (N, g.n_t)), rng.uniform(0.0, 0.5, (N, g.n_t)))
        st = Stepper(op, scheme=scheme, extra_diag=extra_diag, bc=bc)
        assert st.n_distinct == (g.n_t if time_dep or extra == "time" else 1)

        w = 1.0 if scheme == "be" else 0.5
        dt = g.dt
        eye = sp.identity(st.size, format="csc")
        lhs_ref, rhs_ref = [], []
        for k in range(st.n_distinct):
            S_ref = _reference_S(st, k)
            lhs_ref.append(eye - (w * dt) * S_ref)
            rhs_ref.append(eye + (0.5 * dt) * S_ref)
            assert np.array_equal(st._matrix(0.0, 1.0, k).toarray(), S_ref.toarray())
            assert np.array_equal(st._matrix(1.0, -w * dt, k).toarray(), lhs_ref[k].toarray())
            assert np.array_equal(st._matrix(1.0, 0.5 * dt, k).toarray(), rhs_ref[k].toarray())
        assert np.array_equal(st.steady_matrix().toarray(), _reference_steady(st).toarray())

        v = rng.uniform(0.0, 1.0, (N, g.n_z))
        for k in range(g.n_t):
            kk = (k + 1) % g.n_t
            rhs = np.ascontiguousarray(v.T).reshape(-1).copy()
            if scheme == "cn":
                rhs = rhs_ref[k % st.n_distinct] @ rhs
            rows = _reference_dirichlet_rows(st)
            if rows:
                rhs[rows] = np.concatenate([bc[0][:, kk], bc[1][:, kk]])
            expect = splu(lhs_ref[kk % st.n_distinct].tocsc()).solve(rhs).reshape(g.n_z, N).T
            got = st.step(v, k)
            assert np.array_equal(got, expect)
            v = got


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

    def test_grid_invariants(self):
        with pytest.raises(InputError):
            Grid.periodic_cell(1.0, 1.0, 8, 8)  # n_z too small
        g = Grid.cylinder(2.0, 4.0, 8, 33)
        assert g.dt == pytest.approx(0.25)
        assert g.dz == pytest.approx(0.25)
        assert len(g.z) == 33 and g.z[0] == -4.0 and g.z[-1] == 4.0
