"""Export lists resolve, the package keeps a single path type, and options
that only ever took one value stay constants."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import stopgame
from stopgame import conjugate, examples, model, montecarlo, pdmp, solver
from stopgame.model import GameSpec, PathBlock
from stopgame.montecarlo import PureResponseFamily
from stopgame.pdmp import Orbit, PdmpCharacteristics, ZPath

MODULES = ["stopgame"] + [f"stopgame.{m.name}" for m in pkgutil.iter_modules(stopgame.__path__)]


def _public(cls) -> set:
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return fields | {name for name in dir(cls) if not name.startswith("_")}


@pytest.mark.parametrize("name", MODULES)
def test_export_lists_resolve(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported), "an export is listed twice"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_model_keeps_one_path_type():
    # allowlists rather than a list of deleted names: a removed class,
    # function or method cannot come back without a change here
    defined = {name for name, obj in vars(model).items()
               if not name.startswith("_") and getattr(obj, "__module__", None) == model.__name__}
    assert defined == {"GameSpec", "PathBlock", "ChainSampler", "as_simplex", "as_generator",
                       "marginal_flow", "bilinear_payoff", "realized_payoffs", "philox_rng"}
    assert defined <= set(stopgame.__all__)
    assert _public(PathBlock) == {"times", "states", "horizon", "n", "n_jumps", "initial_states",
                                  "take", "states_at", "states_on_grid"}
    assert _public(Orbit) == {"ts", "zs", "lams", "stationary", "quiescent",
                              "t_end", "state_at"}
    assert _public(ZPath) == {"ts", "zs", "jump_time", "post_jump", "jumped", "state_at"}


# parameter names, as allowlists: a keyword that every caller leaves at one
# value is a constant, and adding one back needs a change here
SIGNATURES = {
    PureResponseFamily: ["times"],
    pdmp.integrate_flow: ["char", "z0", "horizon", "dt"],
    pdmp.sc_check: ["char", "vstar", "samples", "tol"],
    pdmp.SplitThenFlowStrategy: ["char", "z", "z_flow", "z_stop", "m", "horizon", "vstar"],
    pdmp.build_mu: ["char", "z", "vstar"],
    solver.residual_check: ["grid"],
    montecarlo.belief_consistency: ["strategy", "R", "t", "n", "seed"],
    model.as_simplex: ["weights"],
    conjugate._golden_min: ["f", "a", "b"],
    examples.e1_optimal_mu: ["p", "q", "r"],
    examples.e2_optimal_mu: ["params", "p"],
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__qualname__)
def test_one_value_options_stay_constants(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


def test_public_names_of_spec_and_characteristics():
    assert _public(GameSpec) == {"R", "Q", "r", "f", "h", "p0", "q0", "K", "L",
                                 "to_json", "from_json"}
    assert _public(PdmpCharacteristics) == {
        "dim_p", "dim_y", "r", "A", "alpha", "lam", "phi", "in_EH", "in_S", "split",
        "snap", "quiescent", "params", "dim", "p_part", "in_E", "is_quiescent"}
    assert _public(PureResponseFamily) == {"times", "for_game", "exhaustive_for",
                                           "descriptor"}
