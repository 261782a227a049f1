import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmg import cli
from dgmg.cli import ConfigError, RunConfig, build_solver
from dgmg.dg import DGBasis
from dgmg.mesh import Domain2D
from dgmg.transfer import TransferOperators
from references import cell_area


class TestDomain:
    def test_rejects_empty_extents(self):
        with pytest.raises(ValueError):
            Domain2D(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Domain2D(0.0, 1.0, 2.0, 1.0)


class _Stop(Exception):
    """Raised in place of the DG operator, once the FV levels are made."""


def cycle_grids(base_nx, base_nz, level, k):
    """The grids build_solver makes the FV levels of an inertia-gravity run
    on, coarsest first, and the grid it makes the DG operator on. The FV
    levels are recorded instead of made; the build stops at the DG
    operator, before any field of the DG mesh is allocated."""
    fv, dg = [], []

    def dg_operator(grid, basis, case):
        dg.append(grid)
        raise _Stop

    cfg = RunConfig(case="inertia-gravity", k=k, level=level, base_nx=base_nx, base_nz=base_nz,
                    dt=1.0, mg="mg001111V")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "FVLinearization", lambda grid, case: fv.append(grid))
        mp.setattr(cli, "DGOperator", dg_operator)
        with pytest.raises(_Stop):
            build_solver(cfg)
    return fv, dg[0]


class TestBuildHierarchy:
    # the grids of the cycle as build_solver makes them, and the config
    # checks that refuse what does not nest before any grid is made

    @settings(max_examples=200, deadline=None)
    @given(base_nx=st.integers(1, 8), base_nz=st.integers(1, 8), level=st.integers(0, 3),
           k=st.sampled_from([0, 1, 3, 7]))
    def test_levels_nest_from_the_base_to_the_fv_subgrid(self, base_nx, base_nz, level, k):
        grids, dg = cycle_grids(base_nx, base_nz, level, k)
        domain = grids[0].domain
        assert len(grids) == level + int(np.log2(k + 1)) + 1
        assert (grids[0].nx, grids[0].nz) == (base_nx, base_nz)
        for coarse, fine in zip(grids, grids[1:]):
            assert fine.domain == domain
            assert (fine.nx, fine.nz) == (2 * coarse.nx, 2 * coarse.nz)
        for grid in grids:
            assert grid.dx == domain.width / grid.nx
            assert grid.dz == domain.height / grid.nz
        assert dg == grids[level]
        # each DG node has its FV subcell: (k+1) x (k+1) per DG cell
        fv = grids[-1]
        assert (fv.nx, fv.nz) == ((k + 1) * dg.nx, (k + 1) * dg.nz)
        U = np.zeros((dg.nz, dg.nx, k + 1, k + 1, 4))
        assert TransferOperators(DGBasis(k)).dg_to_fv(U).shape == (fv.nz, fv.nx, 4)

    @given(base_nx=st.integers(0, 8), base_nz=st.integers(0, 8), level=st.integers(-3, 3),
           k=st.integers(0, 7))
    def test_rejects_what_does_not_nest(self, base_nx, base_nz, level, k):
        # a zero base dim, a negative level, or k in {2, 4, 5, 6}, whose
        # k + 1 subcells per side no binary coarsening reaches
        valid = min(base_nx, base_nz) >= 1 and level >= 0 and k in (0, 1, 3, 7)
        cfg = RunConfig(case="inertia-gravity", k=k, level=level, base_nx=base_nx,
                        base_nz=base_nz, dt=1.0)
        if valid:
            cfg.validate()
        else:
            with pytest.raises(ConfigError):
                cfg.validate()

    def test_rising_bubble_resolution(self):
        # DG spacing 25 m on [0,1000]x[0,2000] needs a 40x80 DG mesh;
        # at refinement level 2 the base grid solves 1000/(base_nx*4) = 25
        bundle = build_solver(RunConfig(case="rising-bubble", dx=25.0, level=2,
                                        integrator="explicit"))
        assert bundle.case.domain == Domain2D(0, 1000, 0, 2000)
        grid = bundle.dg_op.grid
        assert (grid.nx, grid.nz) == (40, 80)
        assert grid.dx == pytest.approx(25.0)
        assert bundle.fv_grid.dx == pytest.approx(25.0 / 4.0)

    def test_inertia_gravity_resolution(self):
        # around 940 m spacing on a 300 km domain: 320x10 DG cells at 937.5 m
        bundle = build_solver(RunConfig(case="inertia-gravity", base_nx=160, base_nz=5, level=1,
                                        integrator="explicit"))
        assert bundle.case.domain == Domain2D(0, 300_000, 0, 10_000)
        assert round(300_000 / 937.5) == 320
        grid = bundle.dg_op.grid
        assert (grid.nx, grid.nz) == (320, 10)
        assert grid.dx == pytest.approx(937.5)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_rejects_k_plus_one_not_power_of_two(self, k):
        cfg = RunConfig(case="inertia-gravity", k=k, base_nx=1, base_nz=1, dt=1.0)
        with pytest.raises(ConfigError, match="k \\+ 1 a power of two"):
            cfg.validate()

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_accepts_power_of_two_orders(self, k):
        bundle = build_solver(RunConfig(case="inertia-gravity", k=k, level=1, base_nx=2,
                                        base_nz=2, dt=1.0, mg="mg001111V"))
        grids = [lin.grid for lin in bundle.mg.linearizations]
        assert len(grids) == 1 + int(np.log2(k + 1)) + 1
        assert bundle.dg_op.grid == grids[1]
        assert bundle.fv_grid == grids[-1]


class TestChildrenParent:
    def test_child_areas_partition_parent(self):
        grids, _ = cycle_grids(2, 2, 1, 3)
        for coarse, fine in zip(grids, grids[1:]):
            assert 4 * cell_area(fine) == pytest.approx(cell_area(coarse), rel=1e-15)


class TestSubgridMap:
    # how the DG cells map onto the cells of their FV subgrid
    def test_partition_covers_every_fv_cell_once(self):
        # a field constant per DG cell, tagged by the cell's index, lands
        # on the FV grid as blocks of p x p subcells carrying that tag
        grids, dg = cycle_grids(3, 2, 1, 3)
        fv = grids[-1]
        nx_dg, nz_dg = dg.nx, dg.nz
        basis = DGBasis(3)
        p = basis.p
        tag = np.arange(nz_dg * nx_dg, dtype=float).reshape(nz_dg, nx_dg)
        U = np.broadcast_to(tag[:, :, None, None, None], (nz_dg, nx_dg, p, p, 4))
        u = TransferOperators(basis).dg_to_fv(U)
        assert u.shape[:2] == (fv.nz, fv.nx)
        fj, fi = np.indices(u.shape[:2])
        assert np.allclose(u[..., 0], tag[fj // p, fi // p], atol=1e-12)
