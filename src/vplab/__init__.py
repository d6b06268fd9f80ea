"""Numerical laboratory for kinetic plasma equilibria on periodic boxes.

Modules
-------
profiles   velocity distributions, projections
norms      weighted/fractional Sobolev norms and Hardy quotients
penrose    linear-stability margins with certified wave-vector truncation
bgk        small-amplitude travelling-wave construction and diagnostics
linear     per-mode linearised field evolution and decay norms
sim        nonlinear split-step Vlasov-Poisson solver (1D-1V, 1D-2V)
cli        batch experiment front-end
"""

from .profiles import (
    GaussianMixture,
    GaussianTerm,
    Profile,
    ProjectedProfile,
    VelocityGrid,
    make_builtin,
    project,
)
from .norms import (
    check_norm_equivalence,
    fractional_wsp_norm,
    hardy_quotient,
    mixed_norm,
    weighted_hsb_norm,
)
from .penrose import DualLattice, PenroseReport, critical_points, penrose_check, pv_integral
from .bgk import (
    BgkWave,
    ModifiedProfile,
    build_modified,
    build_wave,
    galilean_boost,
    match_period,
    obstruction_diagnostic,
    periodic_orbit,
    select_case,
)
from .linear import Datum1D, FieldHistory, efield_mode, initial_transform
from .sim import PhaseGrid, SimState, poisson_solve, run_bgk_steadiness, run_decay_experiment, step

__version__ = "0.1.0"
