import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import references
from conftest import advection_case
from dgmg import mesh
from dgmg.dg import DGBasis, DGOperator
from dgmg.quadrature import modified_newton_cotes
from dgmg.transfer import TransferOperators


@pytest.fixture(scope="module")
def setup():
    case = advection_case()
    h = mesh.GridHierarchy(case.domain, 3, 2, 0, 3)
    basis = DGBasis(3)
    op = DGOperator(h, basis, case)
    return case, h, basis, op, TransferOperators(basis)


def dg_cell_masses(op, U):
    """Per-cell, per-component DG masses via the diagonal mass matrix."""
    w2 = op.basis.weights[:, None] * op.basis.weights[None, :]
    return op.dx * op.dz * np.einsum("ab,zxabc->zxc", w2, U)


@st.composite
def dg_fields(draw):
    """A transfer pair on a drawn grid and k, and a DG field for it."""
    k = draw(st.sampled_from([1, 3]))
    case = advection_case()
    h = mesh.GridHierarchy(case.domain, draw(st.integers(1, 5)), draw(st.integers(1, 5)), 0, k)
    op = DGOperator(h, DGBasis(k), case)
    U = draw(arrays(np.float64, op.bg_vol.shape,
                    elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    # products near the underflow threshold lose their relative precision
    # in any summation order, so such inputs are flushed to zero
    U[np.abs(U) < 1e-150] = 0.0
    return h, op, TransferOperators(op.basis), U


class TestAgainstEinsumReference:
    # 16-term dot products (64 with the zeros of the kron factor) in another
    # order than the reference's two 4-term einsums: round-off well below
    # 1e-13 of the largest input
    @settings(max_examples=60, deadline=None)
    @given(dg_fields())
    def test_forward_maps(self, fields):
        h, op, tr, U = fields
        tol = 1e-13 * np.abs(U).max()
        assert np.abs(tr.dg_to_fv(U) - references.dg_to_fv(tr, U)).max() <= tol
        assert np.abs(tr.dg_to_fv_massfix(U) - references.dg_to_fv_massfix(tr, U)).max() <= tol

    @settings(max_examples=60, deadline=None)
    @given(dg_fields())
    def test_inverse_map(self, fields):
        h, op, tr, U = fields
        u = U.transpose(0, 2, 1, 3, 4).reshape(op.nz * tr.p, op.nx * tr.p, 4)
        assert np.abs(tr.fv_to_dg(u) - references.fv_to_dg(tr, u)).max() <= 1e-13 * np.abs(u).max()


class TestInterpolationTransfer:
    def test_constants_preserved(self, setup):
        *_, op, tr = setup
        U = np.full((2, 3, 4, 4, 4), 3.25)
        u = tr.dg_to_fv(U)
        assert np.allclose(u, 3.25, atol=1e-13)
        assert np.allclose(tr.dg_to_fv_massfix(U), 3.25, atol=1e-13)
        assert np.allclose(tr.fv_to_dg(u), 3.25, atol=1e-13)

    def test_cubic_sampled_at_subcell_centers(self, setup):
        case, h, basis, op, tr = setup
        # reference-coordinate cubic on each cell: values at centers are
        # (1/8)^3, (3/8)^3, (5/8)^3, (7/8)^3 along a node row
        xi = np.broadcast_to(basis.nodes[None, :], (4, 4))
        U = np.zeros((2, 3, 4, 4, 4))
        U[..., 0] = xi**3
        u = tr.dg_to_fv(U)
        row = u[0, :4, 0]
        assert np.allclose(row, ((2 * np.arange(4) + 1) / 8.0) ** 3, atol=1e-14)

    def test_round_trip_identity(self, setup):
        *_, tr = setup
        rng = np.random.default_rng(0)
        U = rng.standard_normal((2, 3, 4, 4, 4))
        assert np.allclose(tr.fv_to_dg(tr.dg_to_fv(U)), U, atol=1e-12)
        u = rng.standard_normal((8, 12, 4))
        assert np.allclose(tr.dg_to_fv(tr.fv_to_dg(u)), u, atol=1e-12)

    def test_cell_block_operator_norm(self, setup):
        *_, basis, op, tr = setup[2:]
        T, Tinv = references.transfer_cell_matrices(tr)
        dev = Tinv @ T - np.eye(16)
        assert np.linalg.norm(dev, 2) < 1e-12

    def test_fv_to_dg_recovers_cubic_nodal_values(self, setup):
        case, h, basis, op, tr = setup
        rng = np.random.default_rng(5)
        coef = rng.standard_normal((4, 4))

        def poly(x, z):
            return sum(coef[m, n] * x**m * z**n for m in range(4) for n in range(4))

        U = np.zeros((2, 3, 4, 4, 4))
        U[..., 1] = poly(op.X, op.Z)
        u = tr.dg_to_fv(U)
        back = tr.fv_to_dg(u)
        assert np.allclose(back, U, atol=1e-10 * max(1.0, np.abs(U).max()))


class TestMassFix:
    def test_constant_field_unchanged(self, setup):
        *_, tr = setup
        U = np.full((2, 3, 4, 4, 4), -1.5)
        assert np.allclose(tr.dg_to_fv_massfix(U), tr.dg_to_fv(U), atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(dg_fields())
    def test_per_cell_mass_matches_dg_mass(self, fields):
        h, op, tr, U = fields
        u = tr.dg_to_fv_massfix(U)
        dg_mass = dg_cell_masses(op, U)
        area_sub = references.cell_area(h, h.fv_level)
        p = op.basis.p
        fv_mass = area_sub * u.reshape(op.nz, p, op.nx, p, 4).sum(axis=(1, 3))
        # a cell whose mass cancels to about zero is held to the round-off
        # of its largest value
        atol = 1e-13 * references.cell_area(h, h.dg_level) * np.abs(U).max()
        assert np.allclose(fv_mass, dg_mass, rtol=1e-12, atol=atol)

    def test_appendix_rule_equals_gl_mass_for_cubics(self, setup):
        # the subcell-center quadrature evaluates the DG cell mass exactly
        case, h, basis, op, tr = setup
        rng = np.random.default_rng(2)
        U = rng.standard_normal((2, 3, 4, 4, 4))
        T1, _, _ = references.subcell_matrices(3)
        vals = np.einsum("ma,zxabc->zxmbc", T1, U)
        vals = np.einsum("nb,zxmbc->zxmnc", T1, vals)
        w = modified_newton_cotes(3).weights
        nc_mass = references.cell_area(h, h.dg_level) * np.einsum("m,n,zxmnc->zxc", w, w, vals)
        assert np.allclose(nc_mass, dg_cell_masses(op, U), rtol=1e-12)

    def test_fix_is_uniform_shift_per_cell(self, setup):
        case, h, basis, op, tr = setup
        rng = np.random.default_rng(3)
        U = rng.standard_normal((2, 3, 4, 4, 4))
        diff = tr.dg_to_fv_massfix(U) - tr.dg_to_fv(U)
        p = basis.p
        per_cell = diff.reshape(2, p, 3, p, 4)
        spread = per_cell.max(axis=(1, 3)) - per_cell.min(axis=(1, 3))
        assert np.abs(spread).max() < 1e-13

    def test_plain_interpolation_violates_mass_on_cubics(self, setup):
        case, h, basis, op, tr = setup
        xi = np.broadcast_to(basis.nodes[None, :], (4, 4))
        U = np.zeros((2, 3, 4, 4, 4))
        U[..., 0] = xi**3
        u = tr.dg_to_fv(U)
        p = basis.p
        area_sub = references.cell_area(h, h.fv_level)
        fv_mass = area_sub * u.reshape(2, p, 3, p, 4).sum(axis=(1, 3))
        dg_mass = dg_cell_masses(op, U)
        rel = np.abs(fv_mass[..., 0] - dg_mass[..., 0]) / np.abs(dg_mass[..., 0])
        # subcell averages of x^3 are not point values: defect is measurable
        assert rel.min() > 1e-3
