"""Valve placement and control optimization for self-cleaning water networks."""

__version__ = "0.1.0"

from .errors import (AllStartsInfeasible, InconsistentBounds, NonConvergence,
                     ParseError, SccoptError, SingularSystem, ZeroSupport)
from .netmodel import (Link, DemandNode, SourceNode, NetworkModel, parse_inp,
                       forest_core, problem_stats, count_variables)
from .hydraulics import HeadLossParams, HydraulicState, headloss_params, simulate, solve_steady
from .scc import SccParams, azp, scc_indicator, scc_smooth, velocity_cdf
from .relax import BoundSet, Problem, build_lp, default_bounds, lp_bound
from .obbt import ObbtReport, tighten, tighten_forest
from .sampler import sample_designs
from .sfscp import ControlSolution, ValveDesign, multi_start
from .pipeline import (CmsSolution, RunConfig, default_problem, performance_profile,
                       run_cms, run_control_only, save_results, uncontrolled_state)

__all__ = [name for name in dir() if not name.startswith("_")]
