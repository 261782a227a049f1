import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from conftest import advection_case
from dgmg import mesh
from dgmg.fv import FVLinearization
from dgmg.physics import (
    RHO,
    RHO_W,
    Atmosphere,
    InadmissibleStateError,
    PhysConstants,
    flux_convective_xz,
    hllc_flux_axis,
    pressure,
    primitives,
    wave_speeds,
)
from references import flux_convective, hllc_flux

RB = PhysConstants(c_p=1005.0, c_v=717.95, g=9.80665, p0=1e5)
DC = PhysConstants(c_p=1004.0, c_v=717.0, g=9.81, mu=75.0, p0=1e5)


def state(rho, u, w, theta):
    return np.array([rho, rho * u, rho * w, rho * theta])


def rest_state(c, T=300.0):
    """Surface state at temperature T and pressure p0 (theta = T there)."""
    rho = c.p0 / (c.R_d * T)
    return state(rho, 0.0, 0.0, T)


# the admissible states random_admissible draws from, as a strategy
admissible_states = st.builds(
    state, st.floats(0.5, 1.5), st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
    st.floats(250.0, 350.0))


def hllc(UL, UR, axis, c):
    """The production HLLC path on conserved states."""
    return hllc_flux_axis(primitives(UL, c), primitives(UR, c), axis, c)


class TestConstants:
    def test_derived_quantities(self):
        assert RB.R_d == pytest.approx(287.05)
        assert RB.gamma == pytest.approx(1005.0 / 717.95)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            PhysConstants(c_p=1.0, c_v=2.0)
        with pytest.raises(ValueError):
            PhysConstants(c_p=2.0, c_v=1.0, mu=-1.0)


class TestPressure:
    def test_rising_bubble_surface_ideal_gas_oracle(self):
        # T = 303.15 K at p = p0: rho = p0/(R_d T), theta = T, so
        # rho*theta = p0/R_d and the closure must return p0
        U = rest_state(RB, T=303.15)
        assert U[0] == pytest.approx(1.149, abs=1e-3)
        assert U[3] == pytest.approx(1e5 / 287.05, rel=1e-12)
        assert pressure(U, RB) == pytest.approx(1e5, rel=1e-12)

    def test_inertia_gravity_surface(self):
        c = PhysConstants(c_p=1005.0, c_v=717.95, g=9.80665, p0=1e5)
        U = rest_state(c, T=250.0)
        assert U[3] == pytest.approx(348.37, abs=0.01)
        assert pressure(U, c) == pytest.approx(1e5, rel=1e-12)

    def test_power_law_scaling(self):
        U = rest_state(RB)
        U2 = U.copy()
        U2[3] *= 2.0
        assert pressure(U2, RB) / pressure(U, RB) == pytest.approx(2.0**RB.gamma, rel=1e-13)

    def test_nonpositive_rho_theta_raises(self):
        U = rest_state(RB)
        U[3] = -1.0
        with pytest.raises(InadmissibleStateError):
            pressure(U, RB)

    def test_eos_round_trip(self):
        # pressure and the rho*theta(p) inverse compose to the identity
        rng = np.random.default_rng(0)
        for _ in range(20):
            p_target = 1e4 + 9e4 * rng.random()
            rt = RB.p0 ** (RB.R_d / RB.c_p) * p_target ** (1 / RB.gamma) / RB.R_d
            U = state(1.0, 0.0, 0.0, rt)
            assert pressure(U, RB) == pytest.approx(p_target, rel=1e-12)


class TestFluxes:
    def test_rest_state_only_pressure_survives(self):
        U = rest_state(RB)
        p = pressure(U, RB)
        Fx, Fz = flux_convective_xz(U, RB)
        assert np.allclose(Fx, [0, p, 0, 0], rtol=1e-14)
        assert np.allclose(Fz, [0, 0, p, 0], rtol=1e-14)

    def test_direct_substitution(self):
        # rho=1, u=1, w=0, theta=1: x-flux column is (1, 1+p, 0, 1)
        U = state(1.0, 1.0, 0.0, 1.0)
        p = pressure(U, RB)
        Fx, Fz = flux_convective_xz(U, RB)
        assert np.allclose(Fx, [1.0, 1.0 + p, 0.0, 1.0], rtol=1e-14)
        assert np.allclose(Fz, [0.0, 0.0, p, 0.0], rtol=1e-14)

    def test_gravity_source(self):
        # one periodic FV cell has no net face flux, so the Jacobian of its
        # tendency is that of the gravity source (0, 0, -g rho', 0) alone:
        # alpha_dt * J holds -alpha_dt * g in the (rho w, rho) entry of the
        # self block and nothing else
        case = advection_case(u=1.0, w=1.0)
        case = dataclasses.replace(case, constants=dataclasses.replace(case.constants, g=DC.g))
        lin = FVLinearization(mesh.Grid(case.domain, 1, 1), case)
        lin.assemble(np.array([[[0.01, 0.002, -0.003, 0.004]]]), alpha_dt=2.0)
        expected = np.zeros_like(lin.blocks)
        expected[RHO_W, RHO] = -2.0 * DC.g
        assert np.array_equal(lin.blocks, expected)


@settings(deadline=None)
@given(shape=st.sampled_from([(), (3,), (2, 5)]), seed=st.integers(0, 2**32 - 1))
def test_flux_into_out_arrays_is_bit_identical(shape, seed):
    # out arrays start as NaN: every entry must be written; a single state
    # (shape ()) writes through 0-d views. The reference is the textbook
    # formula, whose products and sums the in-place form must keep
    rng = np.random.default_rng(seed)
    U = np.stack([0.5 + rng.random(shape), 30.0 * rng.standard_normal(shape),
                  30.0 * rng.standard_normal(shape), 250.0 + 100.0 * rng.random(shape)], axis=-1)
    out = (np.full(U.shape, np.nan), np.full(U.shape, np.nan))
    Fx, Fz = flux_convective_xz(U, RB, out=out)
    assert Fx is out[0] and Fz is out[1]
    want = flux_convective_xz(U, RB)
    assert np.array_equal(Fx, want[0]) and np.array_equal(Fz, want[1])
    p = np.full(shape, np.nan)
    assert pressure(U, RB, out=p) is p and np.array_equal(p, pressure(U, RB))
    rho, m, n, rt = (U[..., i] for i in range(4))
    u, w = m / rho, n / rho
    assert np.array_equal(Fx, np.stack([m, m * u + p, n * u, rt * u], axis=-1))
    assert np.array_equal(Fz, np.stack([n, m * w, n * w + p, rt * w], axis=-1))


class TestHLLC:
    def random_admissible(self, rng):
        rho = 0.5 + rng.random()
        u = 60.0 * (rng.random() - 0.5)
        w = 60.0 * (rng.random() - 0.5)
        theta = 250.0 + 100.0 * rng.random()
        return state(rho, u, w, theta)

    def test_consistency_at_rest(self):
        U = rest_state(RB)
        p = pressure(U, RB)
        for n in ([1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]):
            F = hllc_flux(U, U, n, RB)
            assert np.allclose(F, [0.0, p * n[0], p * n[1], 0.0], rtol=1e-12, atol=1e-9)

    @given(U=admissible_states)
    def test_consistency_general(self, U):
        for axis in (0, 1):
            F = hllc(U, U, axis, RB)
            assert np.allclose(F, flux_convective(U, RB)[:, axis], rtol=1e-11, atol=1e-8)

    def test_supersonic_full_upwind(self):
        U = rest_state(RB)
        c_snd = float(primitives(U, RB)[5])
        UL = U.copy()
        UL[1] = UL[0] * 3.0 * c_snd  # u = 3c
        UR = UL * 1.3
        F = hllc(UL, UR, 0, RB)
        assert np.allclose(F, flux_convective(UL, RB)[:, 0], rtol=1e-12)

    @given(UL=admissible_states, UR=admissible_states, phi=st.floats(0.0, 2 * np.pi))
    def test_conservation_antisymmetry(self, UL, UR, phi):
        n = [np.cos(phi), np.sin(phi)]
        F1 = hllc_flux(UL, UR, n, RB)
        F2 = hllc_flux(UR, UL, [-n[0], -n[1]], RB)
        scale = max(np.abs(F1).max(), 1.0)
        assert np.allclose(F1, -F2, atol=1e-12 * scale)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        UL = np.stack([self.random_admissible(rng) for _ in range(6)])
        UR = np.stack([self.random_admissible(rng) for _ in range(6)])
        F = hllc(UL, UR, 0, RB)
        for i in range(6):
            assert np.allclose(F[i], hllc(UL[i], UR[i], 0, RB))

    def test_inadmissible_input_raises(self):
        U = rest_state(RB)
        bad = U.copy()
        bad[0] = -1.0
        with pytest.raises(InadmissibleStateError):
            hllc(bad, U, 0, RB)

    @pytest.mark.parametrize("component", [0, 3])
    @pytest.mark.parametrize("right", [False, True])
    def test_nonpositive_rho_or_rho_theta_on_either_side_raises(self, component, right):
        U = np.stack([rest_state(RB)] * 3)
        bad = U.copy()
        bad[1, component] = 0.0
        with pytest.raises(InadmissibleStateError, match="non-positive"):
            hllc(U, bad, 1, RB) if right else hllc(bad, U, 1, RB)

    def test_vacuum_star_state_raises(self):
        # two states receding from the face at three sound speeds
        U = rest_state(RB)
        c_snd = float(primitives(U, RB)[5])
        UL, UR = U.copy(), U.copy()
        UL[2] = -3.0 * c_snd * U[0]
        UR[2] = 3.0 * c_snd * U[0]
        with pytest.raises(InadmissibleStateError, match="vacuum"):
            hllc(np.stack([U, UL]), np.stack([U, UR]), 1, RB)


def outcome(solve):
    """The flux, or the message of the InadmissibleStateError raised."""
    try:
        return solve()
    except InadmissibleStateError as err:
        return str(err)


def same_outcome(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a, b)


def mirror(U, axis):
    G = U.copy()
    G[..., 1 + axis] = -G[..., 1 + axis]
    return G


@st.composite
def face_states(draw, n):
    """Conserved states; velocities up to a few sound speeds, so some
    pairs have a vacuum star state."""
    def floats(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    rho = floats(0.3, 2.0)
    return np.stack(
        [rho, rho * floats(-1200.0, 1200.0), rho * floats(-1200.0, 1200.0),
         rho * floats(250.0, 350.0)],
        axis=-1,
    )


class TestPrimitiveKernel:
    """physics.primitives + hllc_flux_axis against the conserved-state
    reference: bit-identical fluxes, and the same error where it raises."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6), axis=st.sampled_from([0, 1]), data=st.data(),
        bad=st.one_of(st.none(), st.tuples(
            st.booleans(), st.sampled_from([0, 3]), st.sampled_from([0.0, -1.0]),
        )),
    )
    def test_matches_reference(self, n, axis, data, bad):
        UL, UR = data.draw(face_states(n)), data.draw(face_states(n))
        if bad is not None:
            right, component, value = bad
            (UR if right else UL)[data.draw(st.integers(0, n - 1)), component] = value
        got = outcome(lambda: hllc(UL, UR, axis, RB))
        want = outcome(lambda: references.hllc_flux_axis(UL, UR, axis, RB))
        assert same_outcome(got, want), (got, want)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), axis=st.sampled_from([0, 1]), data=st.data())
    def test_mirrored_ghost(self, n, axis, data):
        # the FV operator mirrors primitives: the ghost negates the normal
        # velocity where the reference negates the normal momentum
        U = data.draw(face_states(n))
        P = primitives(U, RB)
        ghost = list(P)
        ghost[1 + axis] = -P[1 + axis]
        for prod, ref in (
            (lambda: hllc_flux_axis(ghost, P, axis, RB),
             lambda: references.hllc_flux_axis(mirror(U, axis), U, axis, RB)),
            (lambda: hllc_flux_axis(P, ghost, axis, RB),
             lambda: references.hllc_flux_axis(U, mirror(U, axis), axis, RB)),
        ):
            got, want = outcome(prod), outcome(ref)
            assert same_outcome(got, want), (got, want)


class TestPerturbationForms:
    def make_atm(self):
        case_c = RB

        def theta(x, z):
            return np.full(np.broadcast(x, z).shape, 303.15)

        def pres(x, z):
            T = 303.15 - np.asarray(z) * case_c.g / case_c.c_p
            return case_c.p0 * (T / 303.15) ** (case_c.c_p / case_c.R_d)

        return Atmosphere(constants=case_c, theta=theta, pressure=pres, u=0.0, w=0.0)

    def test_atmosphere_state_pressure_consistent(self):
        atm = self.make_atm()
        z = np.linspace(0.0, 2000.0, 7)
        U = atm.state(np.zeros_like(z), z)
        assert np.allclose(pressure(U, RB), atm.pressure(np.zeros_like(z), z), rtol=1e-12)


class TestMaxWaveSpeed:
    def test_sound_speed_at_300K(self):
        # sqrt(gamma R_d T) with the density-current constants
        U = rest_state(DC, T=300.0)
        expected = np.sqrt(DC.gamma * DC.R_d * 300.0)
        assert expected == pytest.approx(347.2, abs=0.1)
        for speed in wave_speeds(primitives(U, DC)):
            assert speed == pytest.approx(expected, rel=1e-12)

    def test_velocity_adds_along_normal(self):
        U = rest_state(DC)
        base_x, base_z = wave_speeds(primitives(U, DC))
        U2 = U.copy()
        U2[1] = U2[0] * 17.0
        U2[2] = -U2[0] * 5.0
        lx, lz = wave_speeds(primitives(U2, DC))
        assert lx == pytest.approx(base_x + 17.0, rel=1e-12)
        assert lz == pytest.approx(base_z + 5.0, rel=1e-12)

    def test_strictly_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            U = state(0.1 + rng.random(), rng.standard_normal(), rng.standard_normal(),
                      200.0 + 200.0 * rng.random())
            assert all(speed > 0.0 for speed in wave_speeds(primitives(U, DC)))
