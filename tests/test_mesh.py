import numpy as np
import pytest

from dgmg.dg import DGBasis
from dgmg.mesh import Domain2D, build_hierarchy
from dgmg.transfer import TransferOperators
from references import cell_area


class TestDomain:
    def test_rejects_empty_extents(self):
        with pytest.raises(ValueError):
            Domain2D(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Domain2D(0.0, 1.0, 2.0, 1.0)


class TestBuildHierarchy:
    def test_single_cell_k3_gives_three_grids(self):
        h, sg = build_hierarchy(Domain2D(0, 1, 0, 1), 1, 1, 0, 3)
        assert h.n_levels == 3
        assert [(h.nx[l], h.nz[l]) for l in range(3)] == [(1, 1), (2, 2), (4, 4)]
        assert sg.dg_level == 0 and sg.fv_level == 2

    def test_rising_bubble_resolution(self):
        # DG spacing 25 m on [0,1000]x[0,2000] needs a 40x80 DG mesh;
        # at refinement level 2 the base grid solves 1000/(base_nx*4) = 25
        dom = Domain2D(0, 1000, 0, 2000)
        base_nx = round(1000 / (25 * 2**2))
        base_nz = round(2000 / (25 * 2**2))
        assert (base_nx, base_nz) == (10, 20)
        h, sg = build_hierarchy(dom, base_nx, base_nz, 2, 3)
        assert (h.nx[sg.dg_level], h.nz[sg.dg_level]) == (40, 80)
        assert h.dx[sg.dg_level] == pytest.approx(25.0)
        assert h.dx[sg.fv_level] == pytest.approx(25.0 / 4.0)

    def test_inertia_gravity_resolution(self):
        # around 940 m spacing on a 300 km domain: 320x10 DG cells at 937.5 m
        dom = Domain2D(0, 300_000, 0, 10_000)
        nx_dg = round(300_000 / 937.5)
        assert nx_dg == 320
        h, sg = build_hierarchy(dom, 160, 5, 1, 3)
        assert (h.nx[sg.dg_level], h.nz[sg.dg_level]) == (320, 10)
        assert h.dx[sg.dg_level] == pytest.approx(937.5)

    def test_grid_counts_double_per_level(self):
        h, _ = build_hierarchy(Domain2D(0, 2, 0, 1), 3, 2, 2, 3)
        for l in range(h.n_levels):
            assert h.nx[l] == 3 * 2**l
            assert h.nz[l] == 2 * 2**l
            assert h.dx[l] * h.nx[l] == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_rejects_k_plus_one_not_power_of_two(self, k):
        with pytest.raises(ValueError):
            build_hierarchy(Domain2D(0, 1, 0, 1), 1, 1, 0, k)

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_accepts_power_of_two_orders(self, k):
        h, sg = build_hierarchy(Domain2D(0, 1, 0, 1), 2, 2, 1, k)
        assert h.n_levels == 1 + int(np.log2(k + 1)) + 1
        assert sg.subcells_per_side == k + 1


class TestChildrenParent:
    def test_child_areas_partition_parent(self):
        h, _ = build_hierarchy(Domain2D(0, 1, 0, 1), 2, 2, 1, 3)
        for l in range(h.n_levels - 1):
            assert 4 * cell_area(h, l + 1) == pytest.approx(cell_area(h, l), rel=1e-15)


class TestSubgridMap:
    def test_partition_covers_every_fv_cell_once(self):
        # a field constant per DG cell, tagged by the cell's index, lands
        # on the FV grid as blocks of p x p subcells carrying that tag
        h, sg = build_hierarchy(Domain2D(0, 1, 0, 1), 3, 2, 1, 3)
        nx_dg, nz_dg = h.nx[sg.dg_level], h.nz[sg.dg_level]
        p = sg.subcells_per_side
        tag = np.arange(nz_dg * nx_dg, dtype=float).reshape(nz_dg, nx_dg)
        U = np.broadcast_to(tag[:, :, None, None, None], (nz_dg, nx_dg, p, p, 4))
        u = TransferOperators(DGBasis(3), sg).dg_to_fv(U)
        assert u.shape[:2] == (h.nz[sg.fv_level], h.nx[sg.fv_level])
        fj, fi = np.indices(u.shape[:2])
        assert np.allclose(u[..., 0], tag[fj // p, fi // p], atol=1e-12)

    def test_dof_counts_match(self):
        h, sg = build_hierarchy(Domain2D(0, 1, 0, 1), 3, 2, 2, 3)
        dg_dofs = h.nx[sg.dg_level] * h.nz[sg.dg_level] * sg.subcells_per_side**2
        assert dg_dofs == h.nx[sg.fv_level] * h.nz[sg.fv_level]
