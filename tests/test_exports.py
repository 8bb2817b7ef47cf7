"""Export lists resolve, and the package keeps a single path type."""

import dataclasses
import importlib
import pkgutil

import pytest

import stopgame
from stopgame import model
from stopgame.model import PathBlock
from stopgame.pdmp import Orbit

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
    assert _public(Orbit) == {"ts", "zs", "lams", "horizon", "stationary", "quiescent",
                              "t_end", "state_at"}
