from unittest import mock

import numpy as np
import pytest

from conftest import scalar_system, space_periodic_l, system_2x2, time_periodic_l
from wavekit import eigen
from wavekit.eigen import EigenEvaluator
from wavekit.dispersion import (
    TOL,
    minimal_speed,
    persistence_check,
    speed_roots,
    static_frame,
)
from wavekit.errors import InputError, NumericalError


class TestPersistence:
    def test_scalar_persistent(self):
        rep = persistence_check(EigenEvaluator(static_frame(scalar_system(l=1.0))))
        assert rep.classification == "persistent"
        assert rep.lambda_1p == pytest.approx(-1.0, abs=1e-9)

    def test_scalar_extinct(self):
        rep = persistence_check(EigenEvaluator(static_frame(scalar_system(l=-1.0))))
        assert rep.classification == "extinct"
        assert rep.lambda_1p == pytest.approx(1.0, abs=1e-9)

    def test_2x2_perron(self):
        # L = [[-1,2],[2,-1]]: Perron root 1 -> lambda_1p = -1
        sys = system_2x2(l11=-1.0, l12=2.0, l21=2.0, l22=-1.0)
        rep = persistence_check(EigenEvaluator(static_frame(sys)))
        assert rep.classification == "persistent"
        assert rep.lambda_1p == pytest.approx(-1.0, abs=1e-9)


class TestMinimalSpeed:
    def test_scalar_kpp(self):
        curve = minimal_speed(EigenEvaluator(static_frame(scalar_system(), e=[1])))
        assert curve.c_star == pytest.approx(2.0, abs=1e-4)
        assert curve.mu_star == pytest.approx(1.0, abs=1e-4)

    def test_advection_shifts_directional_speeds(self):
        # u_t = u_xx - q u_x + u(1-u) (advection field +q): speeds 2 -/+ q
        speeds = {}
        for e in (1, -1):
            ev = EigenEvaluator(static_frame(scalar_system(q=0.7), e=[e]))
            curve = minimal_speed(ev)
            speeds[e] = curve.c_star
        assert speeds[1] == pytest.approx(2.0 - 0.7, abs=1e-4)
        assert speeds[-1] == pytest.approx(2.0 + 0.7, abs=1e-4)

    def test_2x2_closed_form(self):
        curve = minimal_speed(EigenEvaluator(static_frame(system_2x2(), e=[1])))
        assert curve.c_star == pytest.approx(2 * np.sqrt(2), abs=1e-4)
        assert curve.mu_star == pytest.approx(np.sqrt(2), abs=1e-4)

    def test_extinct_system_fails_to_bracket(self):
        with pytest.raises(NumericalError):
            minimal_speed(EigenEvaluator(static_frame(scalar_system(l=-1.0), e=[1])))

    def test_extinct_system_refused_before_the_bracket(self):
        ev = EigenEvaluator(static_frame(scalar_system(l=-1.0), e=[1]))
        with mock.patch.object(eigen, "_hill_modes", side_effect=eigen._hill_modes) as spy:
            with pytest.raises(NumericalError, match="extinct"):
                minimal_speed(ev)
        assert spy.call_count == 1

    def test_samples_exclude_mu_zero(self):
        # persistence solves ev(0) on the same evaluator; the curve keeps mu > 0
        ev = EigenEvaluator(static_frame(scalar_system(), e=[1]))
        assert persistence_check(ev).classification == "persistent"
        curve = minimal_speed(ev)
        assert 0.0 in dict(ev.samples)
        assert curve.samples and all(mu > 0 for mu, _ in curve.samples)

    def test_global_minimum_property(self):
        curve = minimal_speed(EigenEvaluator(static_frame(scalar_system(), e=[1])))
        g_star = curve.c_star
        for mu, lam in curve.samples:
            assert -lam / mu >= g_star - 1e-9

    def test_slope_at_minimizer(self):
        # d lambda / d mu at mu* equals -c*
        curve = minimal_speed(EigenEvaluator(static_frame(system_2x2(), e=[1])))
        dlam = curve.evaluator.derivative(curve.mu_star)
        assert dlam == pytest.approx(-curve.c_star, abs=1e-4)

    def test_advection_shift_exact(self):
        base = minimal_speed(EigenEvaluator(static_frame(scalar_system(), e=[1]))).c_star
        shifted = minimal_speed(EigenEvaluator(static_frame(scalar_system(q=0.3), e=[1]))).c_star
        assert shifted == pytest.approx(base - 0.3, abs=1e-5)


# (c*, mu*) of the golden-section search (47 solves) that the Newton search replaced
GOLDEN = {"cell": (2.002871947265104, 1.0017006982529537),
          "2x2": (2.8284271247461903, 1.4142135651481982)}
SEARCHED = {"cell": lambda: scalar_system(l_field=space_periodic_l()), "2x2": system_2x2,
            "scalar": scalar_system, "scalar_tper": lambda: scalar_system(l_field=time_periodic_l())}


class TestNewtonSearch:
    @pytest.mark.parametrize("name", ["cell", "2x2"])
    def test_matches_the_golden_section_in_few_solves(self, name):
        ev = EigenEvaluator(static_frame(SEARCHED[name](), e=[1]))
        with mock.patch.object(eigen, "_hill_modes", side_effect=eigen._hill_modes) as spy:
            curve = minimal_speed(ev)
        assert spy.call_count == curve.solves <= 12
        c_gold, mu_gold = GOLDEN[name]
        assert abs(curve.c_star - c_gold) <= 1e-10
        # g = -lambda/mu is flat to rounding within ~1e-8 of its minimum, so the
        # golden section's mu* was only as good as its width TOL (2.8e-9 from
        # sqrt 2 on 2x2); Newton's is the root of mu lambda' - lambda
        assert abs(curve.mu_star - mu_gold) <= TOL
        assert abs(curve.mu_star * ev.derivative(curve.mu_star) - ev(curve.mu_star)) <= 1e-12
        if name == "2x2":
            assert curve.mu_star == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("name", ["scalar", "scalar_tper", "2x2"])
    def test_exact_slope_identity(self, name):
        # acceptance criterion 3 with the exact lambda': lambda'(mu*) = -c*
        curve = minimal_speed(EigenEvaluator(static_frame(SEARCHED[name](), e=[1])))
        assert abs(curve.evaluator.derivative(curve.mu_star) + curve.c_star) <= 1e-8

    def test_solves_counted_per_search(self):
        ev = EigenEvaluator(static_frame(SEARCHED["cell"](), e=[1]))
        persistence_check(ev)
        curve = minimal_speed(ev)
        roots = speed_roots(curve, 3.0)
        assert ev.solves == 1 + curve.solves + roots.solves
        assert 1 <= curve.solves <= 12 and 1 <= roots.solves
        assert speed_roots(curve, 3.0).solves == 0


@pytest.fixture(scope="module")
def curve():
    return minimal_speed(EigenEvaluator(static_frame(scalar_system(), e=[1])))


class TestSpeedRoots:
    def test_quadratic_formula_roots(self, curve):
        roots = speed_roots(curve, 2.5)
        assert roots.mu_wedge == pytest.approx(0.5, abs=1e-7)
        assert roots.mu_vee == pytest.approx(2.0, abs=1e-7)

    def test_critical_tangency_error(self, curve):
        with pytest.raises(InputError, match="critical"):
            speed_roots(curve, curve.c_star)

    def test_subcritical_error(self, curve):
        with pytest.raises(InputError, match="subcritical"):
            speed_roots(curve, 1.0)

    def test_time_periodic_time_average(self):
        curve = minimal_speed(
            EigenEvaluator(static_frame(scalar_system(l_field=time_periodic_l()), e=[1]))
        )
        roots = speed_roots(curve, 2.5)
        assert roots.mu_wedge == pytest.approx(0.5, abs=1e-6)
        assert roots.mu_vee == pytest.approx(2.0, abs=1e-6)

    def test_positive_between_roots(self, curve):
        roots = speed_roots(curve, 2.5)
        for mu in np.linspace(roots.mu_wedge + 1e-3, roots.mu_vee - 1e-3, 7):
            assert curve.evaluator(mu) + 2.5 * mu > 0

    @pytest.mark.parametrize("c", [2.5, 10.0])
    def test_secant_roots_exact(self, c):
        # lambda = -(1 + mu^2): roots (c -+ sqrt(c^2 - 4))/2, in few solves
        curve = minimal_speed(EigenEvaluator(static_frame(scalar_system(), e=[1])))
        with mock.patch.object(eigen, "_hill_modes", side_effect=eigen._hill_modes) as spy:
            roots = speed_roots(curve, c)
        disc = np.sqrt(c * c - 4.0)
        assert roots.mu_wedge == pytest.approx((c - disc) / 2, abs=1e-12)
        assert roots.mu_vee == pytest.approx((c + disc) / 2, abs=1e-12)
        assert 1 <= spy.call_count <= 20

    @pytest.mark.parametrize("c", [12.0, 17.0, 40.0, 63.0])
    def test_cell_roots_at_high_speed(self, c):
        # l(x) = 1 + 0.5 cos(2 pi x): mu_vee ~ c lies far out on the spectral
        # evaluator, which has no mesh-Peclet limit
        cell = minimal_speed(
            EigenEvaluator(static_frame(scalar_system(l_field=space_periodic_l()), e=[1])))
        roots = speed_roots(cell, c)
        assert roots.mu_wedge < cell.mu_star < c - 1.0 < roots.mu_vee < c
        for mu in (roots.mu_wedge, roots.mu_vee):
            assert abs(cell.evaluator(mu) + c * mu) < 1e-8 * (1.0 + c * mu)

    def test_root_past_mu_64_is_found(self):
        # mu_vee ~ 70 lay past the 64-node cell's mesh-Peclet limit mu = 64,
        # where the root search used to stop
        cell = minimal_speed(
            EigenEvaluator(static_frame(scalar_system(l_field=space_periodic_l()), e=[1])))
        roots = speed_roots(cell, 70.0)
        assert 69.9 < roots.mu_vee < 70.0
        assert roots.mu_vee == pytest.approx(69.98571, abs=1e-5)
        for mu in (roots.mu_wedge, roots.mu_vee):
            assert abs(cell.evaluator(mu) + 70.0 * mu) < 1e-8

    def test_json_round_trip(self, curve):
        doc = curve.to_json()
        assert doc["c_star"] == pytest.approx(2.0, abs=1e-6)
        assert len(doc["curve"]) == len(curve.samples)
