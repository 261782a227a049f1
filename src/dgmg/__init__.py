"""Implicit DG solver for 2D atmospheric flow, preconditioned by a
subcell finite-volume geometric multigrid method."""

from .cases import CaseSetup, build_initial_state, by_name, density_current, inertia_gravity, rising_bubble
from .dg import DGBasis, DGOperator
from .fv import FVLinearization, FVOperator
from .mesh import BoundaryKind, Domain2D, GridHierarchy, SubgridMap, build_hierarchy
from .mgprecond import MGConfig, MultigridPreconditioner, parse_mg_config
from .physics import Atmosphere, InadmissibleStateError, PhysConstants
from .timeint import NewtonParams, SolverFailure, sdirk2_step, ssprk34_step
from .transfer import TransferOperators

__all__ = [
    "Atmosphere",
    "BoundaryKind",
    "CaseSetup",
    "DGBasis",
    "DGOperator",
    "Domain2D",
    "FVLinearization",
    "FVOperator",
    "GridHierarchy",
    "InadmissibleStateError",
    "MGConfig",
    "MultigridPreconditioner",
    "NewtonParams",
    "PhysConstants",
    "SolverFailure",
    "SubgridMap",
    "TransferOperators",
    "build_hierarchy",
    "build_initial_state",
    "by_name",
    "density_current",
    "inertia_gravity",
    "parse_mg_config",
    "rising_bubble",
    "sdirk2_step",
    "ssprk34_step",
]
