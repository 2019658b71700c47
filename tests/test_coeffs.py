import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const, scalar_system, system_2x2
from wavekit.coeffs import (
    KPPSystem,
    _strongly_connected,
    Mode,
    PeriodicField,
    field_eval,
    nondimensionalize,
    system_from_json,
    system_to_json,
    validate_assumptions,
)
from wavekit.errors import InputError


class TestFieldEval:
    def test_constant_mode(self):
        f = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 3.0, 0.0),))
        assert field_eval(f, 0.37, [1.23]) == 3.0
        assert field_eval(f, -5.0, [0.0]) == 3.0

    def test_single_sine_quarter_period(self):
        # sin(2 pi t / T) at t = T/4 equals the sine amplitude
        f = PeriodicField(1.0, (1.0,), (Mode(1, (0,), 0.0, 0.7),))
        assert field_eval(f, 0.25, [0.0]) == pytest.approx(0.7, abs=1e-15)

    def test_two_mode_against_direct_summation(self, rng):
        modes = (Mode(1, (2,), 0.3, -0.4), Mode(2, (-1,), -1.1, 0.25))
        T, L = 2.0, 3.0
        f = PeriodicField(T, (L,), modes)

        def oracle(t, x):
            tot = 0.0
            for m in modes:
                ph = 2 * np.pi * (m.kt * t / T + m.kx[0] * x / L)
                tot += m.cos * np.cos(ph) + m.sin * np.sin(ph)
            return tot

        for _ in range(20):
            t, x = rng.uniform(-5, 5, size=2)
            assert field_eval(f, t, [x]) == pytest.approx(oracle(t, x), abs=1e-14)

    def test_dimension_mismatch(self):
        f = PeriodicField(1.0, (1.0, 1.0), (Mode(0, (0, 0), 1.0, 0.0),))
        with pytest.raises(InputError):
            field_eval(f, 0.0, [0.0])

    @settings(max_examples=25, deadline=None)
    @given(
        kt=st.integers(-3, 3),
        kx=st.integers(-3, 3),
        ca=st.floats(-2, 2),
        sa=st.floats(-2, 2),
        t=st.floats(-10, 10),
        x=st.floats(-10, 10),
    )
    def test_exact_periodicity(self, kt, kx, ca, sa, t, x):
        T, L = 0.75, 1.5
        f = PeriodicField(T, (L,), (Mode(kt, (kx,), ca, sa),))
        base = field_eval(f, t, [x])
        assert field_eval(f, t + T, [x]) == pytest.approx(base, abs=1e-9)
        assert field_eval(f, t, [x + L]) == pytest.approx(base, abs=1e-9)

    def test_periodicity_100_random_points(self, rng):
        f = PeriodicField(1.0, (1.0,), (Mode(1, (1,), 0.3, 0.1), Mode(2, (0,), 0.0, 0.5)))
        pts = rng.uniform(-3, 3, size=(100, 2))
        for t, x in pts:
            assert field_eval(f, t + 1.0, [x]) == pytest.approx(field_eval(f, t, [x]), abs=1e-12)

    def test_exact_derivative(self):
        f = PeriodicField(1.0, (2.0,), (Mode(0, (1,), 1.0, 0.0),))  # cos(pi x)
        df = f.dx(0)
        x = 0.3
        assert field_eval(df, 0.0, [x]) == pytest.approx(-np.pi * np.sin(np.pi * x), abs=1e-14)


class TestValidateAssumptions:
    def test_scalar_constant_kpp(self):
        rep = validate_assumptions(scalar_system())
        assert rep.all_pass()
        assert rep.ellipticity_constant == pytest.approx(1.0)
        assert rep.underline_B[0, 0] == pytest.approx(1.0)
        assert rep.sigma == pytest.approx(1.0)

    def test_permutation_coupling_irreducible(self):
        sys = system_2x2(l12=1.0, l21=1.0)
        rep = validate_assumptions(sys)
        assert rep.flags["A2"].passed
        assert rep.flags["A3"].passed

    def test_diagonal_coupling_reducible(self):
        sys = KPPSystem(
            2, 1,
            (((const(1.0),),), ((const(1.0),),)),
            ((const(0.0),), (const(0.0),)),
            ((const(1.0), const(0.0)), (const(0.0), const(1.0))),
            ((const(1.0), const(1.0)), (const(1.0), const(1.0))),
        )
        rep = validate_assumptions(sys)
        assert not rep.flags["A3"].passed
        assert "span(e_{1})" in rep.flags["A3"].witness

    def test_a3_witness_matches_reachability_oracle(self, rng):
        # depth-first search from every node: the first node that does not
        # reach all of them gives the witness, its sorted reachable set
        def oracle(adj):
            N = adj.shape[0]
            for start in range(N):
                seen, stack = {start}, [start]
                while stack:
                    j = stack.pop()
                    new = {i for i in range(N) if adj[i, j]} - seen
                    seen |= new
                    stack.extend(new)
                if len(seen) != N:
                    return False, sorted(seen)
            return True, None

        for _ in range(400):
            N = int(rng.integers(1, 7))
            adj = (rng.uniform(size=(N, N)) < rng.uniform(0.1, 0.6)) & ~np.eye(N, dtype=bool)
            assert _strongly_connected(adj) == oracle(adj), adj.astype(int)

    def test_negative_offdiagonal_fails_a2(self):
        sys = system_2x2(l12=-0.5)
        rep = validate_assumptions(sys)
        assert not rep.flags["A2"].passed

    def test_nonpositive_competition_fails_a4(self):
        sys = scalar_system(b=0.0)
        rep = validate_assumptions(sys)
        assert not rep.flags["A4"].passed

    def test_refinement_convergence(self):
        # pure low modes: the sampling lattice contains the extrema (t = 0, 1/2
        # and x = 0, 1/4), so the extremal matrices are exact
        lf = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 2.0, 0.0), Mode(1, (0,), 0.5, 0.0),
                                         Mode(0, (2,), 0.25, 0.0)))
        rep = validate_assumptions(scalar_system(l_field=lf))
        assert abs(rep.ellipticity_constant - 1.0) < 1e-6
        assert np.abs(rep.underline_L - 1.25).max() < 1e-6
        assert np.abs(rep.overline_L - 2.75).max() < 1e-6


class TestNondimensionalize:
    def test_unit_periods_identity(self):
        sys = scalar_system()
        out = nondimensionalize(sys)
        assert out.temporal_period == 1.0
        assert field_eval(out.L[0][0], 0.3, [0.4]) == field_eval(sys.L[0][0], 0.3, [0.4])

    def test_heat_t4_l2(self):
        # u_t = u_xx with T=4, L=2 keeps unit diffusion: 4 / (2*2) = 1
        sys = KPPSystem(
            1, 1,
            (((const(1.0, T=4.0, L=(2.0,)),),),),
            ((const(0.0, T=4.0, L=(2.0,)),),),
            ((const(0.0, T=4.0, L=(2.0,)),),),
            ((const(1.0, T=4.0, L=(2.0,)),),),
        )
        out = nondimensionalize(sys)
        assert field_eval(out.A[0][0][0], 0.1, [0.2]) == pytest.approx(1.0)

    def test_reaction_t2(self):
        sys = KPPSystem(
            1, 1,
            (((const(1.0, T=2.0),),),),
            ((const(0.0, T=2.0),),),
            ((const(1.0, T=2.0),),),
            ((const(1.0, T=2.0),),),
        )
        out = nondimensionalize(sys)
        assert field_eval(out.L[0][0], 0.0, [0.0]) == pytest.approx(2.0)

    def test_roundtrip_composition(self, rng):
        # modes survive: new_f(t, x) = T * old_f(T t, L x) for the reaction
        T, L = 3.0, 2.0
        lf = PeriodicField(T, (L,), (Mode(1, (1,), 0.4, 0.2), Mode(0, (0,), 1.0, 0.0)))
        sys = KPPSystem(1, 1, (((const(1.0, T=T, L=(L,)),),),),
                        ((const(0.0, T=T, L=(L,)),),), ((lf,),),
                        ((const(1.0, T=T, L=(L,)),),))
        out = nondimensionalize(sys)
        for _ in range(20):
            t, x = rng.uniform(0, 1, size=2)
            assert field_eval(out.L[0][0], t, [x]) == pytest.approx(
                T * field_eval(lf, T * t, [L * x]), abs=1e-12
            )

    def test_idempotent(self):
        sys = KPPSystem(
            1, 1,
            (((const(2.0, T=4.0, L=(2.0,)),),),),
            ((const(0.5, T=4.0, L=(2.0,)),),),
            ((const(1.0, T=4.0, L=(2.0,)),),),
            ((const(1.0, T=4.0, L=(2.0,)),),),
        )
        once = nondimensionalize(sys)
        twice = nondimensionalize(once)
        for f1, f2 in zip(once.all_fields(), twice.all_fields()):
            assert f1.modes == f2.modes


class TestJsonSchema:
    def test_round_trip(self):
        sys = system_2x2()
        doc = system_to_json(sys)
        back = system_from_json(doc)
        assert back.N == 2 and back.n == 1
        for f1, f2 in zip(sys.all_fields(), back.all_fields()):
            assert f1.modes == f2.modes

    def test_bad_schema(self):
        with pytest.raises(InputError):
            system_from_json({"N": 1})
        with pytest.raises(InputError):
            system_from_json({"N": 1, "n": 1, "fields": {"A": [[[[{"kt": 0}]]]],
                                                         "L": [[[]]], "B": [[[]]]}})

    def test_mismatched_periods_rejected(self):
        with pytest.raises(InputError):
            KPPSystem(1, 1, (((const(1.0, T=2.0),),),), ((const(0.0),),),
                      ((const(1.0),),), ((const(1.0),),))
