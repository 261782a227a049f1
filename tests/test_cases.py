import numpy as np
import pytest

from conftest import make_setup
from dgmg import cases
from dgmg.cases import build_initial_state, by_name
from dgmg.physics import FaceAxis


@pytest.mark.parametrize("name, periodic_x", [
    ("inertia-gravity", True), ("rising-bubble", False), ("density-current", False),
])
def test_faces_are_x_then_z_with_slip_walls_in_z(name, periodic_x):
    # the x-face axis first, then the z one: the operators unpack them in
    # that order
    assert by_name(name).faces == (FaceAxis(0, periodic_x), FaceAxis(1, False))


class TestInertiaGravity:
    def setup_method(self):
        self.case = by_name("inertia-gravity")

    def test_constants_and_domain(self):
        c = self.case.constants
        assert (c.c_p, c.c_v, c.g) == (1005.0, 717.95, 9.80665)
        assert c.mu == 0.0
        assert self.case.domain.x_max == 300_000.0
        assert self.case.domain.z_max == 10_000.0
        assert self.case.t_final == 3000.0

    def test_scale_height(self):
        # H = g / N^2 with N = 1e-2 1/s
        H = 9.80665 / 1e-4
        assert H == pytest.approx(98066.5, abs=1e-6)
        # theta grows by exactly exp(z/H)
        theta0 = self.case.atmosphere.theta(0.0, 0.0)
        thetaH = self.case.atmosphere.theta(0.0, H)
        assert thetaH / theta0 == pytest.approx(np.e, rel=1e-12)
        assert theta0 == pytest.approx(250.0, rel=1e-13)

    def test_perturbation_peak_and_floor(self):
        assert self.case.theta_pert(100_000.0, 5000.0) == pytest.approx(0.01, rel=1e-13)
        x = np.linspace(0, 300_000.0, 13)
        assert np.all(self.case.theta_pert(x, np.zeros_like(x)) == 0.0)
        # half the peak two half-widths off center at midheight
        assert self.case.theta_pert(105_000.0, 5000.0) == pytest.approx(0.005, rel=1e-12)

    def test_mean_flow(self):
        U = self.case.atmosphere.state(0.0, 500.0)
        assert U[1] / U[0] == pytest.approx(20.0, rel=1e-13)
        assert U[2] == 0.0


class TestRisingBubble:
    def setup_method(self):
        self.case = by_name("rising-bubble")

    def test_background(self):
        atm = self.case.atmosphere
        assert atm.theta(123.0, 456.0) == 303.15
        assert atm.pressure(0.0, 0.0) == pytest.approx(1e5, rel=1e-14)
        # adiabatic lapse: T(z) = T0 - g z / c_p, theta stays constant
        U = atm.state(0.0, 1000.0)
        theta = U[3] / U[0]
        assert theta == pytest.approx(303.15, rel=1e-12)

    def test_perturbation_shape(self):
        tp = self.case.theta_pert
        assert tp(500.0, 520.0) == pytest.approx(0.5)
        assert tp(500.0, 520.0 + 49.9) == pytest.approx(0.5)  # flat cap r < a
        # Gaussian branch value at one falloff length
        assert tp(500.0, 520.0 + 150.0) == pytest.approx(0.5 * np.exp(-1.0), rel=1e-12)
        # zero outside the cutoff radius a + 3s
        assert tp(500.0, 520.0 + 351.0) == 0.0
        assert tp(500.0 + 400.0, 520.0) == 0.0

    def test_continuity_at_cap_boundary(self):
        tp = self.case.theta_pert
        inner = tp(500.0 + 50.0 - 1e-6, 520.0)
        outer = tp(500.0 + 50.0 + 1e-6, 520.0)
        assert abs(inner - outer) < 1e-6 * 0.5

    def test_cutoff_jump_is_exp_minus_nine(self):
        # the Gaussian branch ends at r = a + 3s with value A0 exp(-9);
        # the published profile carries that (tiny) jump
        tp = self.case.theta_pert
        inner = tp(500.0, 520.0 + 350.0 - 1e-6)
        outer = tp(500.0, 520.0 + 350.0 + 1e-6)
        assert inner == pytest.approx(0.5 * np.exp(-9.0), rel=1e-3)
        assert outer == 0.0


class TestDensityCurrent:
    def setup_method(self):
        self.case = by_name("density-current")

    def test_constants(self):
        c = self.case.constants
        assert (c.c_p, c.c_v, c.g, c.mu) == (1004.0, 717.0, 9.81, 75.0)

    def test_perturbation_values(self):
        tp = self.case.theta_pert
        assert tp(0.0, 3000.0) == pytest.approx(-15.0)
        assert tp(4000.0, 3000.0) == pytest.approx(0.0, abs=1e-12)
        # r = 0.5: (theta_c / 2)(1 + cos(pi/2)) = -7.5
        assert tp(2000.0, 3000.0) == pytest.approx(-7.5, rel=1e-12)

    def test_continuity_at_unit_ellipse(self):
        tp = self.case.theta_pert
        inner = tp(4000.0 - 1e-6, 3000.0)
        outer = tp(4000.0 + 1e-6, 3000.0)
        assert abs(inner - outer) < 1e-6 * 15.0

    def test_half_bubble_peak_on_left_wall(self):
        x = np.linspace(0.0, 25_600.0, 257)
        vals = self.case.theta_pert(x, np.full_like(x, 3000.0))
        assert np.argmin(vals) == 0


class TestInitialState:
    def test_zero_perturbation_gives_exact_zero_field(self):
        setup = make_setup("inertia-gravity", 5, 1, 0)
        import dataclasses

        silent = dataclasses.replace(
            setup.case, theta_pert=lambda x, z: np.zeros(np.broadcast(x, z).shape)
        )
        U = build_initial_state(silent, setup.dg_op)
        assert np.abs(U).max() == 0.0

    @pytest.mark.parametrize("name", ["inertia-gravity", "rising-bubble", "density-current"])
    def test_rho_theta_perturbation_vanishes_initially(self, name):
        # pressure-preserving insertion leaves rho*theta untouched
        setup = make_setup(name, 5, 2, 1)
        U = build_initial_state(setup.case, setup.dg_op)
        assert np.abs(U[..., 3]).max() == 0.0

    def test_warm_air_is_lighter(self):
        setup = make_setup("rising-bubble", 5, 10, 0)
        U = build_initial_state(setup.case, setup.dg_op)
        pert = setup.case.theta_pert(setup.dg_op.X, setup.dg_op.Z)
        warm = pert > 1e-3
        assert np.all(U[..., 0][warm] < 0.0)

    @pytest.mark.parametrize("name", ["inertia-gravity", "rising-bubble", "density-current"])
    def test_velocity_equals_background_velocity(self, name):
        # v = v_bar: momentum perturbations are exactly rho' * v_bar
        setup = make_setup(name, 5, 2, 0)
        U = build_initial_state(setup.case, setup.dg_op)
        atm = setup.case.atmosphere
        # rounding scale: ulp of the background momentum itself
        bg = atm.state(setup.dg_op.X, setup.dg_op.Z)
        tol = 1e-14 * (np.abs(bg[..., 1]).max() + 1.0)
        assert np.allclose(U[..., 1], U[..., 0] * atm.u, rtol=0, atol=tol)
        assert np.allclose(U[..., 2], U[..., 0] * atm.w, rtol=0, atol=tol)

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError, match="unknown case"):
            by_name("tornado")


class TestEndToEndWellBalance:
    @pytest.mark.parametrize("name", ["inertia-gravity", "rising-bubble", "density-current"])
    def test_unperturbed_atmosphere_is_discretely_steady(self, name):
        import dataclasses

        setup = make_setup(name, 5, 2, 0)
        silent = dataclasses.replace(
            setup.case, theta_pert=lambda x, z: np.zeros(np.broadcast(x, z).shape)
        )
        U = build_initial_state(silent, setup.dg_op)
        assert np.abs(setup.dg_op(U)).max() == 0.0
