"""Unfitted finite element solver for linear fluid-structure interaction.

A fixed circular elastic inclusion inside a lid-driven square fluid cavity,
discretized with overlapping cut finite elements on one background mesh:
Taylor-Hood elements for the fluid, equal-order elements for the solid,
Nitsche coupling at the interface, and ghost-penalty stabilization of the
cut cells.  Time discretization is backward Euler with a monolithic solve.
"""

from .analysis import (Analyzer, ErrorReport, convergence_order,
                       error_vs_reference, ghost_extension_ratios,
                       run_simulation, spatial_study, temporal_study,
                       verify_energy_decay)
from .config import ConfigError, SimulationConfig, format_config, parse_config
from .discretization import BlockLayout, Discretization
from .geometry import CircleLevelSet
from .mesh import CellClass, CutTopology, Mesh, build_cut_topology, build_mesh
from .stepper import State, StepRecord, TimeStepper

__all__ = [
    "Analyzer", "BlockLayout", "CellClass", "CircleLevelSet", "ConfigError",
    "CutTopology", "Discretization", "ErrorReport", "Mesh",
    "SimulationConfig", "State", "StepRecord", "TimeStepper",
    "build_cut_topology", "build_mesh", "convergence_order",
    "error_vs_reference", "format_config", "ghost_extension_ratios",
    "parse_config", "run_simulation", "spatial_study", "temporal_study",
    "verify_energy_decay",
]

__version__ = "0.1.0"
