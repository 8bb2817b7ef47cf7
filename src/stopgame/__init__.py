"""Solver and verifier toolkit for zero-sum stopping games where each
player privately observes one of two independent finite-state chains.

The pieces fit together as follows: :mod:`stopgame.model` holds the game
primitives (chains, payoffs, blocks of sample paths and their realized
payoffs), :mod:`stopgame.solver` computes the value on a belief-product
grid and checks its variational characterization,
:mod:`stopgame.conjugate` builds the dual objects,
:mod:`stopgame.pdmp` carries optimal randomized stopping rules as
piecewise-deterministic belief processes, :mod:`stopgame.examples`
provides two fully solved benchmark games, and :mod:`stopgame.montecarlo`
certifies strategies by Monte Carlo best responses.
"""

from .errors import ConvergenceError, InputError, IntegrityError, StopGameError
from .model import (ChainSampler, GameSpec, PathBlock, as_chain, as_generator, as_simplex,
                    bilinear_payoff, marginal_flow, philox_rng, realized_payoffs)
from .grids import SimplexGrid, ValueGrid, read_value_csv, write_value_csv
from .solver import (ResidualReport, cav_p, directional_derivative,
                     obstacle_step, residual_check, solve, vex_q)
from .conjugate import (DualFlowState, concave_conjugate_p,
                        convex_conjugate_q, convex_surface_q, dual_flow,
                        dual_pde_residual_lower, dual_pde_residual_upper,
                        obstacle_conjugate_p, obstacle_conjugate_q,
                        subgradient_q)
from .pdmp import (ConstantTimeStrategy, FlowIntensityStrategy,
                   InitialStateTimeStrategy, MixedStoppingStrategy,
                   NeverStopStrategy, Orbit, PdmpCharacteristics,
                   SplitThenFlowStrategy, StopNowStrategy, StructureReport,
                   ZPath, build_mu, integrate_flow, never_horizon, sc_check,
                   simulate_Z)
from .montecarlo import (BeliefReport, BestResponse, GapReport, PayoffEstimate,
                         PureResponseFamily, belief_consistency,
                         best_response_value, default_time_grid,
                         estimate_payoff, exploit_gap)

__all__ = [
    "ConvergenceError", "InputError", "IntegrityError", "StopGameError",
    "ChainSampler", "GameSpec", "PathBlock", "as_chain", "as_generator", "as_simplex",
    "bilinear_payoff", "marginal_flow", "philox_rng", "realized_payoffs",
    "SimplexGrid", "ValueGrid", "read_value_csv", "write_value_csv",
    "ResidualReport", "cav_p", "directional_derivative", "obstacle_step",
    "residual_check", "solve", "vex_q",
    "DualFlowState", "concave_conjugate_p", "convex_conjugate_q", "convex_surface_q",
    "dual_flow", "dual_pde_residual_lower", "dual_pde_residual_upper",
    "obstacle_conjugate_p", "obstacle_conjugate_q", "subgradient_q",
    "ConstantTimeStrategy", "FlowIntensityStrategy",
    "InitialStateTimeStrategy", "MixedStoppingStrategy", "NeverStopStrategy",
    "Orbit", "PdmpCharacteristics", "SplitThenFlowStrategy", "StopNowStrategy",
    "StructureReport", "ZPath", "build_mu", "integrate_flow", "never_horizon",
    "sc_check", "simulate_Z",
    "BeliefReport", "BestResponse", "GapReport", "PayoffEstimate",
    "PureResponseFamily", "belief_consistency", "best_response_value",
    "default_time_grid", "estimate_payoff", "exploit_gap",
]

__version__ = "0.1.0"
