import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import const, scalar_system, space_periodic_l
from wavekit.coeffs import KPPSystem, Mode, PeriodicField, field_eval, nondimensionalize
from wavekit.errors import InputError
from wavekit.frame import (
    RationalDirection,
    _lincomb,
    compute_periods,
    frame_for,
    make_frame,
    rational_basis,
    transform_coefficients,
)
from wavekit.pde_core import Grid, GridField, apply_operator, build_operator_mu


def rational_directions(n, max_den=12):
    """All reduced integer vectors in [-max_den, max_den]^n of integer norm."""
    out = []
    rng = range(-max_den, max_den + 1)
    if n == 1:
        return [RationalDirection.from_ints((1,)), RationalDirection.from_ints((-1,))]
    if n == 2:
        it = ((i, j) for i in rng for j in rng)
    else:
        it = ((i, j, k) for i in rng for j in rng for k in rng)
    seen = set()
    for v in it:
        if all(c == 0 for c in v):
            continue
        sq = sum(c * c for c in v)
        r = math.isqrt(sq)
        if r * r != sq:
            continue
        g = math.gcd(*(abs(c) for c in v))
        key = tuple(c // g for c in v)
        if key in seen:
            continue
        seen.add(key)
        out.append(RationalDirection.from_ints(key))
    return out


def periods_oracle(e, c):
    """Brute-force lattice scan over divisors of the common multiple M."""
    P = rational_basis(e)
    n = e.n
    M = 1
    for row in P:
        for f in row:
            M = M * f.denominator // math.gcd(M, f.denominator)
    for comp in e.as_fractions():
        d = (c * comp).denominator
        M = M * d // math.gcd(M, d)

    def divisors(m):
        return sorted(d for d in range(1, m + 1) if m % d == 0)

    T = next(
        d for d in divisors(M)
        if all((c * comp * d).denominator == 1 for comp in e.as_fractions())
    )
    Ls = []
    for a in range(n):
        col = [P[r][a] for r in range(n)]
        Ls.append(next(d for d in divisors(M) if all((f * d).denominator == 1 for f in col)))
    return T, tuple(Ls)


class TestRationalBasis:
    def test_n1_identity(self):
        P = rational_basis(RationalDirection.from_ints((1,)))
        assert P == ((Fraction(1),),)

    def test_n2_pythagorean(self):
        P = rational_basis(RationalDirection.from_ints((3, 4)))
        first = (P[0][0], P[1][0])
        assert first in (
            (Fraction(-4, 5), Fraction(3, 5)),
            (Fraction(4, 5), Fraction(-3, 5)),
        )
        assert (P[0][1], P[1][1]) == (Fraction(3, 5), Fraction(4, 5))

    def test_n3_axis_signed_permutation(self):
        P = rational_basis(RationalDirection.from_ints((1, 0, 0)))
        arr = np.array([[float(v) for v in row] for row in P])
        assert np.abs(np.abs(arr).sum(axis=0) - 1).max() == 0  # signed permutation
        assert arr[0, 2] == 1.0 and arr[1, 2] == 0.0 and arr[2, 2] == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_orthogonality_and_det(self, n, rng):
        dirs = rational_directions(n)
        for e in rng.choice(len(dirs), size=min(25, len(dirs)), replace=False):
            e = dirs[int(e)]
            P = rational_basis(e)  # raises internally if P^T P != I exactly
            arr = np.array([[float(v) for v in row] for row in P])
            assert abs(abs(np.linalg.det(arr)) - 1.0) < 1e-12

    def test_irrational_direction_rejected(self):
        with pytest.raises(InputError):
            RationalDirection.from_ints((1, 1))

    def test_fractional_entries_rejected(self):
        # int() would truncate (3.7, 4.2) to the direction (3, 4)/5
        with pytest.raises(InputError, match="integers"):
            make_frame([3.7, 4.2], 1)
        assert RationalDirection.from_ints((3.0, 4.0)).numerators == (3, 4)


class TestComputePeriods:
    def test_integer_speed(self):
        e = RationalDirection.from_ints((1,))
        assert compute_periods(e, 3) == (1, (1,))

    def test_half_integer_speed(self):
        e = RationalDirection.from_ints((1,))
        assert compute_periods(e, Fraction(3, 2)) == (2, (1,))

    def test_pythagorean_static(self):
        e = RationalDirection.from_ints((3, 4))
        T, Ls = compute_periods(e, 0)
        assert T == 1
        assert all(5 % L == 0 for L in Ls)
        assert Ls == (5, 5)

    def test_against_brute_force_oracle(self, rng):
        dirs = {n: rational_directions(n) for n in (1, 2, 3)}
        for _ in range(30):
            n = int(rng.integers(1, 4))
            e = dirs[n][int(rng.integers(0, len(dirs[n])))]
            c = Fraction(int(rng.integers(-24, 25)), int(rng.integers(1, 13)))
            assert compute_periods(e, c) == periods_oracle(e, c)

    def test_float_speed_rejected(self):
        with pytest.raises(InputError):
            compute_periods(RationalDirection.from_ints((1,)), 1.5)


class TestFrameFromJson:
    def test_rational_request(self):
        from wavekit.frame import frame_from_json

        fr = frame_from_json({"e": [1], "c": "3/2", "mode": "rational"})
        assert fr.mode == "rational"
        assert fr.T_frame == 2

    def test_space_homogeneous_request(self):
        from wavekit.frame import frame_from_json

        fr = frame_from_json({"e": [0.6, 0.8], "c": 1.7, "mode": "space-homogeneous"})
        assert fr.mode == "space-homogeneous"
        assert np.allclose(fr.P_floats()[:, -1], [0.6, 0.8])
        assert frame_from_json({"e": [1], "c": "5/2", "mode": "space-homogeneous"}).c == 2.5
        with pytest.raises(InputError, match="not a speed"):
            frame_from_json({"e": [1], "c": "fast", "mode": "space-homogeneous"})

    def test_missing_fields(self):
        from wavekit.frame import frame_from_json

        with pytest.raises(InputError):
            frame_from_json({"e": [1]})


class TestTransformCoefficients:
    def test_pure_drift_appears(self):
        sys = nondimensionalize(scalar_system(q=0.0))
        fs = transform_coefficients(sys, make_frame([1], Fraction(5, 2)))
        assert field_eval(fs.q[0][0], 0.3, [0.7]) == pytest.approx(2.5, abs=1e-14)

    def test_isotropic_diffusion_invariant(self):
        sys = KPPSystem(
            2, 2,
            tuple(
                tuple(tuple(const(1.0 if a == b else 0.0, n=2) for b in range(2)) for a in range(2))
                for _ in range(2)
            ),
            tuple((const(0.0, n=2), const(0.0, n=2)) for _ in range(2)),
            ((const(0.0, n=2), const(1.0, n=2)), (const(1.0, n=2), const(0.0, n=2))),
            ((const(1.0, n=2), const(1.0, n=2)), (const(1.0, n=2), const(1.0, n=2))),
        )
        fs = transform_coefficients(sys, make_frame([3, 4], 0))
        for a in range(2):
            for b in range(2):
                want = 1.0 if a == b else 0.0
                assert field_eval(fs.A[0][a][b], 0.1, [0.2, 0.3]) == pytest.approx(want, abs=1e-12)

    def test_diagonal_diffusion_rotates(self):
        # A = diag(1, 2), e = (3,4)/5: A' = P^T A P, a dense matrix oracle
        A_entries = [[1.0, 0.0], [0.0, 2.0]]
        sys = KPPSystem(
            1, 2,
            ((tuple(tuple(const(A_entries[a][b], n=2) for b in range(2)) for a in range(2))),),
            ((const(0.0, n=2), const(0.0, n=2)),),
            ((const(1.0, n=2),),),
            ((const(1.0, n=2),),),
        )
        frame = make_frame([3, 4], 0)
        fs = transform_coefficients(sys, frame)
        P = frame.P_floats()
        want = P.T @ np.array(A_entries) @ P
        got = np.array(
            [[field_eval(fs.A[0][a][b], 0.0, [0.0, 0.0]) for b in range(2)] for a in range(2)]
        )
        assert np.abs(got - want).max() < 1e-12

    def test_sampled_equality_against_composition(self, rng):
        lf = PeriodicField(1.0, (1.0,), (Mode(0, (0,), 1.0, 0.0), Mode(1, (1,), 0.3, -0.2)))
        sys = nondimensionalize(scalar_system(l_field=lf))
        frame = make_frame([1], Fraction(3, 2))
        fs = transform_coefficients(sys, frame)
        c = float(frame.c)
        for _ in range(30):
            t, z = rng.uniform(-4, 4, size=2)
            direct = field_eval(lf, t, [z - c * t])
            assert field_eval(fs.L[0][0], t, [z]) == pytest.approx(direct, abs=1e-12)

    def test_transformed_periodicity(self, rng):
        lf = PeriodicField(1.0, (1.0,), (Mode(1, (2,), 0.4, 0.1),))
        sys = nondimensionalize(scalar_system(l_field=lf))
        frame = make_frame([1], Fraction(3, 2))
        fs = transform_coefficients(sys, frame)
        T, Lz = fs.T_frame, fs.L_z
        for _ in range(20):
            t, z = rng.uniform(-2, 2, size=2)
            v = field_eval(fs.L[0][0], t, [z])
            assert field_eval(fs.L[0][0], t + T, [z]) == pytest.approx(v, abs=1e-12)
            assert field_eval(fs.L[0][0], t, [z + Lz]) == pytest.approx(v, abs=1e-12)

    def test_mode_mismatch_error(self):
        sys = nondimensionalize(scalar_system(l_field=space_periodic_l()))
        with pytest.raises(InputError):
            transform_coefficients(sys, make_frame([1.0], 0.7, mode="space-homogeneous"))

    def test_non_unit_periods_rejected(self):
        sys = KPPSystem(1, 1, (((const(1.0, T=2.0),),),), ((const(0.0, T=2.0),),),
                        ((const(1.0, T=2.0),),), ((const(1.0, T=2.0),),))
        with pytest.raises(InputError):
            transform_coefficients(sys, make_frame([1], 0))


def float_branch_reference(sys, frame):
    """The former float-only space-homogeneous branch of transform_coefficients."""
    N, n = sys.N, sys.n
    P = frame.P_floats()
    ev = frame.e_floats()
    cval = frame.c_float()
    tpl = sys.L[0][0]

    def comb(fields, weights, extra=0.0):
        f = _lincomb(fields, weights, tpl)
        return f.plus_constant(extra) if extra else f

    A = tuple(
        tuple(
            tuple(
                comb([sys.A[i][g][d] for g in range(n) for d in range(n)],
                     [P[g, a] * P[d, b] for g in range(n) for d in range(n)])
                for b in range(n)
            )
            for a in range(n)
        )
        for i in range(N)
    )
    q = tuple(
        tuple(
            comb([sys.q[i][g] for g in range(n)],
                 [P[g, a] for g in range(n)],
                 extra=cval * float(np.dot(P[:, a], ev)))
            for a in range(n)
        )
        for i in range(N)
    )
    return A, q, sys.L, sys.B


def random_homogeneous_system(rng, N, n):
    """Random x-independent fields with time modes k_t = 0, 1, 2."""
    def fld():
        modes = [Mode(kt, (0,) * n, *rng.normal(size=2)) for kt in range(3)]
        return PeriodicField(1.0, (1.0,) * n, tuple(modes))

    return KPPSystem(
        N, n,
        tuple(tuple(tuple(fld() for _ in range(n)) for _ in range(n)) for _ in range(N)),
        tuple(tuple(fld() for _ in range(n)) for _ in range(N)),
        tuple(tuple(fld() for _ in range(N)) for _ in range(N)),
        tuple(tuple(fld() for _ in range(N)) for _ in range(N)),
    )


def flat_fields(tab):
    if isinstance(tab, PeriodicField):
        return [tab]
    return [f for entry in tab for f in flat_fields(entry)]


class TestFrameFor:
    def test_space_homogeneous_matches_float_reference(self, rng):
        for N, n, _ in itertools.product((1, 2), (1, 2, 3), range(4)):
            sys = random_homogeneous_system(rng, N, n)
            e = rng.normal(size=n)
            e /= np.linalg.norm(e)
            fs = frame_for(sys, e, float(rng.uniform(-3, 3)))
            want = flat_fields(float_branch_reference(sys, fs.frame))
            got = flat_fields((fs.A, fs.q, fs.L, fs.B))
            assert len(want) == len(got) == N * n * n + N * n + 2 * N * N
            for fw, fg in zip(want, got):
                for _ in range(5):
                    t, x = rng.uniform(-2, 2), rng.uniform(-2, 2, size=n)
                    assert abs(field_eval(fg, t, x) - field_eval(fw, t, x)) <= 1e-13

    def test_mode_follows_coefficients(self):
        fs = frame_for(scalar_system(), [1], "5/2")
        assert fs.mode == "space-homogeneous"
        assert fs.frame.T_frame == 1 and fs.frame.L_frame is None
        assert fs.c == 2.5
        fs = frame_for(scalar_system(l_field=space_periodic_l()), [1], "3/2")
        assert fs.mode == "rational"
        assert fs.frame.c == Fraction(3, 2)
        assert fs.frame.T_frame == 2 and fs.frame.L_frame == (1,)

    def test_nondimensionalizes(self):
        sys = KPPSystem(1, 1, (((const(1.0, T=2.0, L=(3.0,)),),),),
                        ((const(0.0, T=2.0, L=(3.0,)),),),
                        ((const(1.0, T=2.0, L=(3.0,)),),), ((const(1.0, T=2.0, L=(3.0,)),),))
        fs = frame_for(sys, [1], 0)
        assert field_eval(fs.A[0][0][0], 0.0, [0.0]) == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_x_dependent_needs_exact_speed(self):
        sys = scalar_system(l_field=space_periodic_l())
        with pytest.raises(InputError, match="non-integer float"):
            frame_for(sys, [1], 0.7)
        assert frame_for(sys, [1], 3.0).frame.c == 3


class TestOperatorAssembly:
    def test_mu_zero_recovers_plain_operator(self):
        sys = nondimensionalize(scalar_system(q=0.3))
        fs = transform_coefficients(sys, make_frame([1], 1))
        g = Grid.periodic_cell(fs.T_frame, fs.L_z, 16, 32)
        op0 = build_operator_mu(fs, 0.0, g)
        assert np.all(op0.pot0 == 0.0)
        assert np.all(op0.drift == op0.drift[0, 0, 0])
        assert op0.drift[0, 0, 0] == pytest.approx(1.3)

    def test_scalar_zeroth_order_potential(self):
        # A=1, q=0, l=1, speed c: total zeroth order is -1 - mu^2 + mu c
        sys = nondimensionalize(scalar_system())
        fs = transform_coefficients(sys, make_frame([1], 2))
        g = Grid.periodic_cell(fs.T_frame, fs.L_z, 16, 32)
        mu = 0.7
        op = build_operator_mu(fs, mu, g)
        total = -op.coupling[0, 0, 0, 0] + op.pot0[0, 0, 0]
        assert total == pytest.approx(-1 - mu**2 + mu * 2, abs=1e-14)

    def test_advection_adds_potential_term(self):
        q0 = 0.4
        mu = 0.7
        sys = nondimensionalize(scalar_system(q=q0))
        fs = transform_coefficients(sys, make_frame([1], 2))
        g = Grid.periodic_cell(fs.T_frame, fs.L_z, 16, 32)
        op = build_operator_mu(fs, mu, g)
        total = -op.coupling[0, 0, 0, 0] + op.pot0[0, 0, 0]
        assert total == pytest.approx(-1 - mu**2 + mu * (2 + q0), abs=1e-14)

    def test_conjugation_identity_second_order(self):
        # R_mu v = e^{-mu z} R(e^{mu z} v) up to O(dz^2), refining by 2 gains ~4x
        lf = space_periodic_l(1.0, 0.3)
        sys = nondimensionalize(scalar_system(l_field=lf))
        fs = transform_coefficients(sys, make_frame([1], 1))
        mu = 0.6
        errs = []
        for n_z in (129, 257):
            g = Grid.cylinder(fs.T_frame, 2.0, 8, n_z)
            z = g.z
            v = np.cos(0.5 * z)[None, None, :] + 2.0
            v = np.repeat(v, g.n_t, axis=1)
            op0 = build_operator_mu(fs, 0.0, g)
            opm = build_operator_mu(fs, mu, g)
            lhs = apply_operator(opm, GridField(v, g)).values
            rhs = np.exp(-mu * z) * apply_operator(
                op0, GridField(v * np.exp(mu * z), g)
            ).values
            errs.append(np.abs(lhs - rhs)[:, :, 3:-3].max())
        assert errs[1] < errs[0] / 2.5
        assert errs[0] < 0.05
