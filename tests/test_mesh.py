import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmg.dg import DGBasis
from dgmg.mesh import Domain2D, GridHierarchy
from dgmg.transfer import TransferOperators
from references import cell_area


class TestDomain:
    def test_rejects_empty_extents(self):
        with pytest.raises(ValueError):
            Domain2D(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Domain2D(0.0, 1.0, 2.0, 1.0)


class TestBuildHierarchy:
    @settings(max_examples=200, deadline=None)
    @given(base_nx=st.integers(1, 8), base_nz=st.integers(1, 8), dg_level=st.integers(0, 3),
           k=st.sampled_from([0, 1, 3, 7]), width=st.floats(1e-3, 1e6),
           height=st.floats(1e-3, 1e6))
    def test_levels_nest_from_the_base_to_the_fv_subgrid(self, base_nx, base_nz, dg_level, k,
                                                         width, height):
        dom = Domain2D(-0.5 * width, 0.5 * width, 0.0, height)
        h = GridHierarchy(dom, base_nx, base_nz, dg_level, k)
        assert h.dg_level == dg_level
        assert h.fv_level == h.n_levels - 1 == dg_level + int(np.log2(k + 1))
        assert len(h.nx) == len(h.nz) == len(h.dx) == len(h.dz) == h.n_levels
        assert (h.nx[0], h.nz[0]) == (base_nx, base_nz)
        for l in range(1, h.n_levels):
            assert (h.nx[l], h.nz[l]) == (2 * h.nx[l - 1], 2 * h.nz[l - 1])
        for l in range(h.n_levels):
            assert h.dx[l] * h.nx[l] == pytest.approx(dom.width, rel=1e-15)
            assert h.dz[l] * h.nz[l] == pytest.approx(dom.height, rel=1e-15)
        # each DG node has its FV subcell: (k+1)^2 per DG cell
        dg, fv = h.dg_level, h.fv_level
        assert h.nx[dg] * h.nz[dg] * (k + 1) ** 2 == h.nx[fv] * h.nz[fv]

    @given(base_nx=st.integers(0, 8), base_nz=st.integers(0, 8), dg_level=st.integers(-3, 3),
           k=st.integers(0, 7))
    def test_rejects_what_does_not_nest(self, base_nx, base_nz, dg_level, k):
        # a zero base dim, a negative dg_level, or k in {2, 4, 5, 6}, whose
        # k + 1 subcells per side no binary coarsening reaches
        valid = min(base_nx, base_nz) >= 1 and dg_level >= 0 and k in (0, 1, 3, 7)
        if valid:
            GridHierarchy(Domain2D(0, 1, 0, 1), base_nx, base_nz, dg_level, k)
        else:
            with pytest.raises(ValueError):
                GridHierarchy(Domain2D(0, 1, 0, 1), base_nx, base_nz, dg_level, k)

    def test_rising_bubble_resolution(self):
        # DG spacing 25 m on [0,1000]x[0,2000] needs a 40x80 DG mesh;
        # at refinement level 2 the base grid solves 1000/(base_nx*4) = 25
        dom = Domain2D(0, 1000, 0, 2000)
        base_nx = round(1000 / (25 * 2**2))
        base_nz = round(2000 / (25 * 2**2))
        assert (base_nx, base_nz) == (10, 20)
        h = GridHierarchy(dom, base_nx, base_nz, 2, 3)
        assert (h.nx[h.dg_level], h.nz[h.dg_level]) == (40, 80)
        assert h.dx[h.dg_level] == pytest.approx(25.0)
        assert h.dx[h.fv_level] == pytest.approx(25.0 / 4.0)

    def test_inertia_gravity_resolution(self):
        # around 940 m spacing on a 300 km domain: 320x10 DG cells at 937.5 m
        dom = Domain2D(0, 300_000, 0, 10_000)
        nx_dg = round(300_000 / 937.5)
        assert nx_dg == 320
        h = GridHierarchy(dom, 160, 5, 1, 3)
        assert (h.nx[h.dg_level], h.nz[h.dg_level]) == (320, 10)
        assert h.dx[h.dg_level] == pytest.approx(937.5)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_rejects_k_plus_one_not_power_of_two(self, k):
        with pytest.raises(ValueError):
            GridHierarchy(Domain2D(0, 1, 0, 1), 1, 1, 0, k)

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_accepts_power_of_two_orders(self, k):
        h = GridHierarchy(Domain2D(0, 1, 0, 1), 2, 2, 1, k)
        assert h.n_levels == 1 + int(np.log2(k + 1)) + 1
        assert h.fv_level == h.n_levels - 1


class TestChildrenParent:
    def test_child_areas_partition_parent(self):
        h = GridHierarchy(Domain2D(0, 1, 0, 1), 2, 2, 1, 3)
        for l in range(h.n_levels - 1):
            assert 4 * cell_area(h, l + 1) == pytest.approx(cell_area(h, l), rel=1e-15)


class TestSubgridMap:
    # how the DG cells map onto the cells of their FV subgrid
    def test_partition_covers_every_fv_cell_once(self):
        # a field constant per DG cell, tagged by the cell's index, lands
        # on the FV grid as blocks of p x p subcells carrying that tag
        h = GridHierarchy(Domain2D(0, 1, 0, 1), 3, 2, 1, 3)
        nx_dg, nz_dg = h.nx[h.dg_level], h.nz[h.dg_level]
        basis = DGBasis(3)
        p = basis.p
        tag = np.arange(nz_dg * nx_dg, dtype=float).reshape(nz_dg, nx_dg)
        U = np.broadcast_to(tag[:, :, None, None, None], (nz_dg, nx_dg, p, p, 4))
        u = TransferOperators(basis).dg_to_fv(U)
        assert u.shape[:2] == (h.nz[h.fv_level], h.nx[h.fv_level])
        fj, fi = np.indices(u.shape[:2])
        assert np.allclose(u[..., 0], tag[fj // p, fi // p], atol=1e-12)
