"""The four reference workloads and the seed-to-input mapping.

Each workload is a fixed `RunConfig` for `dgmg.cli.run`; one repetition
integrates it from t = 0 to `t_final`, so every repetition, every seed and
every commit does the same number of steps. The seed only scales the
initial anomaly (see `amplitude_factor`). README.md says why each workload
exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Half-width of the amplitude range: factors lie in [1 - 0.01, 1 + 0.01].
AMPLITUDE_HALF_WIDTH = 0.01

# The seed the stored references were made with.
DEFAULT_SEED = 0

# Relative agreement with the stored reference demanded of an implicit run,
# as a multiple of its Newton tolerance. Newton stops at a residual of
# newton_tol times the initial one, so two correct solvers (or two anomaly
# amplitudes scaled back to one) differ by a fraction of newton_tol
# (at most 7.3e-4 on dc-mg-viscous at the extreme factors 0.99 and 1.01);
# a broken flux or transfer misses by O(1).
IMPLICIT_TOL_PER_NEWTON_TOL = 5.0

# Relative agreement demanded of the explicit run. SSP(4,3) has no solver
# tolerance, so the only difference between the run and the scaled
# reference is the nonlinearity of the response to the anomaly amplitude
# (2.3e-5 at the extreme factors 0.99 and 1.01).
EXPLICIT_TOL = 2.0e-4

# DG mass of rho' must be conserved to round-off on slip walls, relative to
# the integral of |rho'| (about 7e-15 after the ~120 steps of one run).
MASS_TOL = 1.0e-12

# Snapshot fields are compared as means over square blocks of this many FV
# cells per side (plus full-resolution RMS values), which keeps the stored
# references small.
REFERENCE_BLOCK = 8


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict

    @property
    def implicit(self) -> bool:
        return self.config.get("integrator", "implicit") == "implicit"

    @property
    def reference_tol(self) -> float:
        if self.implicit:
            return IMPLICIT_TOL_PER_NEWTON_TOL * self.config.get("newton_tol", 1e-3)
        return EXPLICIT_TOL


WORKLOADS = {
    w.name: w
    for w in (
        # Inertia-gravity on the acceptance grids: 40x4 DG cells, FV levels
        # 10x1 .. 160x16; four steps per repetition.
        Workload(
            "ig-mg-coarse",
            dict(case="inertia-gravity", level=2, base_nx=10, base_nz=1, dt=25.0,
                 t_final=100.0, mg="mg001111V", transfer="interp"),
        ),
        # Rising bubble on the headline grid: 20x40 DG cells, FV up to
        # 80x160; one step per repetition.
        Workload(
            "bubble-mg",
            dict(case="rising-bubble", level=2, dx=50.0, dt=10.0, t_final=10.0,
                 mg="mg111111V", transfer="interp"),
        ),
        # Viscous density current with the mass-fix transfer: 64x16 DG
        # cells; two steps per repetition.
        Workload(
            "dc-mg-viscous",
            dict(case="density-current", level=2, dx=400.0, dt=10.0, t_final=20.0,
                 mg="mg111111V", transfer="massfix"),
        ),
        # Explicit SSP(4,3) on the bubble grid, dt from the CFL bound
        # (about 0.008 s): about 120 steps and a snapshot every ~30 steps.
        Workload(
            "bubble-explicit",
            dict(case="rising-bubble", level=2, dx=50.0, integrator="explicit",
                 t_final=1.0, output_interval=0.25),
        ),
    )
}


def amplitude_factor(seed: int) -> float:
    """Scale of the initial anomaly for a seed, uniform in 1 +- 0.01."""
    u = random.Random(seed).random()
    return 1.0 + AMPLITUDE_HALF_WIDTH * (2.0 * u - 1.0)
