"""Export lists resolve, the package keeps a single path type, options
that only ever took one value stay constants, no function switches
between the p and q sides, the CLI reads strategies through the loaded
rule, laws move by one propagator, Monte Carlo plays by one loop, value
grids are read between nodes in one place, each conjugate is written
once, model alone tests simplex points, and no two-state workflow loads
scipy."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stopgame
from stopgame import cli, conjugate, examples, grids, model, montecarlo, pdmp, solver
from stopgame.grids import ValueGrid
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
                       "as_chain", "marginal_flow", "bilinear_payoff", "realized_payoffs",
                       "philox_rng"}
    assert defined <= set(stopgame.__all__)
    assert _public(PathBlock) == {"times", "states", "ends", "n", "n_jumps", "initial_states",
                                  "take", "states_at"}
    assert _public(Orbit) == {"ts", "zs", "lams", "stationary", "quiescent",
                              "t_end", "state_at"}
    assert _public(ZPath) == {"ts", "zs", "jump_time", "post_jump", "jumped", "state_at"}


# parameter names, as allowlists: a keyword that every caller leaves at one
# value is a constant, and adding one back needs a change here
SIGNATURES = {
    PureResponseFamily: ["times"],
    pdmp.integrate_flow: ["char", "z0", "horizon"],
    pdmp.sc_check: ["char", "vstar", "samples"],
    pdmp.SplitThenFlowStrategy: ["char", "z", "z_flow", "z_stop", "m", "horizon", "vstar"],
    pdmp.build_mu: ["char", "z", "vstar"],
    solver.residual_check: ["grid"],
    solver.solve: ["spec", "N_p", "N_q", "tol", "max_iter"],
    grids._upper_hull_rows: ["v", "alive"],
    ValueGrid.with_values: ["self", "values"],
    montecarlo.belief_consistency: ["strategy", "t", "n", "seed"],
    model.as_simplex: ["weights"],
    conjugate._golden_min: ["f"],
    conjugate.dual_pde_residual_upper: ["vstar", "hstar", "x", "q", "R", "Q", "r"],
    conjugate.dual_pde_residual_lower: ["vstar", "fstar", "p", "y", "R", "Q", "r"],
    examples.e1_optimal_mu: ["p", "q", "r"],
    examples.e2_optimal_mu: ["params", "p"],
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__qualname__)
def test_one_value_options_stay_constants(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


@pytest.mark.parametrize("module", [grids, solver, conjugate], ids=lambda m: m.__name__)
def test_q_side_is_the_p_side_mirrored(module):
    # the q side runs the p-side code on transposed or negated values, so no
    # function switches between the sides, and there is no second envelope
    functions = [obj for obj in vars(module).values()
                 if inspect.isfunction(obj) and obj.__module__ == module.__name__]
    for cls in vars(module).values():
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            functions += [obj for obj in vars(cls).values() if inspect.isfunction(obj)]
    assert functions
    assert [fn.__qualname__ for fn in functions
            if {"side", "axis"} & set(inspect.signature(fn).parameters)] == []
    assert not hasattr(grids, "_convex_envelope")


def test_public_names_of_spec_and_characteristics():
    assert _public(GameSpec) == {"R", "Q", "r", "f", "h", "p0", "q0", "K", "L",
                                 "to_json", "from_json"}
    assert _public(PdmpCharacteristics) == {
        "dim_p", "dim_y", "r", "A", "alpha", "lam", "phi", "in_EH", "in_S", "split",
        "snap", "quiescent", "params", "p_part", "is_quiescent"}
    assert _public(PureResponseFamily) == {"times", "for_game", "exhaustive_for",
                                           "descriptor"}
    # value_at reads the grid between nodes through SimplexGrid.interpolate
    assert _public(ValueGrid) == {"p_grid", "q_grid", "values", "spec", "metadata",
                                  "with_values", "from_function", "value_at"}


def test_cli_simulates_the_loaded_rule():
    # simulate samples from the loaded rule's own flow, not from
    # characteristics rebuilt out of descriptor keys
    assert "characteristics_from_params" not in vars(cli)


SRC = Path(stopgame.__file__).resolve().parents[1]


def _scipy_imports(node, top=True):
    """Every scipy import in a module as ``(line, name, module_level)``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""])
            yield from ((child.lineno, n, top) for n in names if n.split(".")[0] == "scipy")
        else:
            yield from _scipy_imports(child, top and not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


@pytest.mark.parametrize("path", sorted((SRC / "stopgame").glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # import stopgame loads numpy only, and the matrix exponential is numpy
    # (model._expm): scipy.linalg alone takes ~0.35 s to load, so it may not
    # come back, not even inside a function.  The one scipy use left is
    # qhull in grids, imported inside the 3-state chart code
    allowed = {"scipy.spatial", "scipy.spatial._qhull"} if path.name == "grids.py" else set()
    found = [f"line {line}: {name}" for line, name, top in _scipy_imports(ast.parse(path.read_text()))
             if top or name not in allowed]
    assert found == []


def _uses(node, names, where="<module>"):
    """``(name, enclosing function)`` for every read of one of ``names`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and child.id in names:
            yield child.id, where
        elif isinstance(child, ast.Attribute) and child.attr in names:
            yield child.attr, where
        yield from _uses(child, names, child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)


def test_one_law_propagator():
    # laws move only by model._propagate, and _expm is left to the slope
    # flow t(rI - R) of dual_flow, which is no generator: a third copy of
    # the propagation rule, with its own squarings, fails here
    names = {"_expm", "_scaled_exp"}
    found = {}
    for path in sorted((SRC / "stopgame").glob("*.py")):
        for name, where in _uses(ast.parse(path.read_text()), names):
            found.setdefault(name, set()).add(f"{path.stem}.{where}")
    assert found == {"_expm": {"conjugate.dual_flow"},
                     "_scaled_exp": {"model._expm", "model._propagate"}}


def test_one_play_loop():
    # montecarlo builds its chain samplers and samples paths only in the
    # play loop, which checks the rule against the game and samples in
    # rounds, and in survivor_counts (one chain, no opponent); the CLI
    # leaves that check to the library
    mc = ast.parse(Path(montecarlo.__file__).read_text())
    for names in ({"ChainSampler"}, {"sample_block"}):
        assert {where for _, where in _uses(mc, names)} == {"_plays", "survivor_counts"}
    # rows are continued by the one ChainSampler.extend: in montecarlo by
    # the play loop, own and opponent rows alike, in model by the
    # two-state refill, and a rule stops fresh and continued rows by its
    # one stopping_times
    model_tree = ast.parse(Path(model.__file__).read_text())
    assert {where for _, where in _uses(mc, {"extend"})} == {"_plays"}
    assert {where for _, where in _uses(model_tree, {"extend"})} == {"_paths"}
    assert {where for _, where in _uses(model_tree, {"_joined"})} == {"extend"}
    assert [path.name for path in sorted((SRC / "stopgame").glob("*.py"))
            if "resume_times" in path.read_text()] == []
    # the sampler draws holding times in its two samplers only, which fresh
    # blocks and continuations share
    sampler = next(node for node in ast.walk(model_tree)
                   if isinstance(node, ast.ClassDef) and node.name == "ChainSampler")
    assert [fn.name for fn in sampler.body if isinstance(fn, ast.FunctionDef)] == [
        "__init__", "sample", "sample_block", "extend", "_paths", "_event_loop", "_two_state"]
    assert {where for _, where in _uses(sampler, {"exponential"})} == {"_event_loop",
                                                                      "_two_state"}
    names = {"initial_belief", "InitialStateTimeStrategy"}
    assert list(_uses(ast.parse(Path(cli.__file__).read_text()), names)) == []


def test_one_neighbour_search():
    # the envelope kernel prunes a compact list, whose neighbours are its
    # adjacent entries, and gives every node its chord ends once, after the
    # last round; a search per round, or a second pass over every slice,
    # fails here
    tree = ast.parse(Path(grids.__file__).read_text())
    assert sorted(where for _, where in _uses(tree, {"_neighbours"})) == [
        "_hull_record", "_upper_hull_rows"]
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_upper_hull_rows")
    loops = [node for node in ast.walk(kernel) if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1
    assert list(_uses(loops[0], {"_neighbours", "repeat", "flatnonzero"})) == []


def test_one_interpolation():
    # grid values are read between nodes only by SimplexGrid.interpolate,
    # which checks each point's number of states; the solver's flattened
    # obstacle stencil takes the weights once per solve.  A reader that
    # applies a stencil by hand, such as a conjugate's slice helper, fails here
    found = set()
    for path in sorted((SRC / "stopgame").glob("*.py")):
        found |= {f"{path.stem}.{where}"
                  for _, where in _uses(ast.parse(path.read_text()), {"interp_weights"})}
    assert found == {"grids.interpolate", "solver._flow_stencil"}
    assert not hasattr(conjugate, "_grid_slice")


def test_each_conjugate_is_written_once():
    # a value grid is conjugated by the node scan of convex_surface_q and a
    # callable by the golden section of concave_conjugate_p; the other side
    # reads each on mirrored values, so a second scan or objective fails here
    assert not hasattr(conjugate, "_inf_pairing")
    tree = ast.parse(Path(conjugate.__file__).read_text())
    assert {where for _, where in _uses(tree, {"_golden_min"})} == {"concave_conjugate_p"}


def test_model_alone_tests_simplex_points():
    # grids checks an interpolation point with model's one predicate, not
    # with a copy of its tolerances
    tree = ast.parse(Path(grids.__file__).read_text())
    names = {"SIMPLEX_CLAMP", "SIMPLEX_SUM_TOL"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert list(_uses(tree, names)) == [] and not names & imported
    assert {where for _, where in _uses(tree, {"_on_simplex"})} == {"interpolate"}


COLD_START = textwrap.dedent("""
    import sys
    import numpy as np
    import stopgame, stopgame.cli
    from stopgame import examples as ex
    from stopgame.conjugate import dual_flow
    from stopgame.model import marginal_flow
    from stopgame.montecarlo import PureResponseFamily, exploit_gap
    from stopgame.solver import residual_check, solve

    solve(ex.e1_game(1.0), 10, 10)
    p = 1.0 / 3.0
    e2 = ex.e2_game(ex.REFERENCE_E2)
    spec = stopgame.GameSpec(R=e2.R, Q=e2.Q, r=e2.r, f=e2.f, h=e2.h, p0=[p, 1 - p], q0=[1.0])
    exploit_gap(spec, ex.e2_optimal_mu(ex.REFERENCE_E2, p), ex.e2_value(ex.REFERENCE_E2, p),
                PureResponseFamily.for_game(spec, n=20), 256, seed=0)
    solve(e2, 40, 1)
    R = np.array([[-1.0, 1.0], [0.6, -0.6]])
    Q = np.array([[-0.8, 0.8], [1.2, -1.2]])
    moving = stopgame.GameSpec(R=R, Q=Q, r=0.8, f=ex.scalar_payoff_matrix(-1.0, 2.0, 3.0),
                               h=ex.scalar_payoff_matrix(-4.0, 3.0, 2.0),
                               p0=[0.5, 0.5], q0=[0.5, 0.5])
    residual_check(solve(moving, 12, 12, tol=1e-8))
    marginal_flow([0.3, 0.7], R, 0.4)
    dual_flow([1.0, 0.5], [0.6, 0.4], R, Q, 0.8, 0.7)
    out = sys.argv[1]
    with open(out + "/moving.json", "w") as fh:
        fh.write(moving.to_json())
    assert stopgame.cli.main(["solve", "--game", out + "/moving.json", "--grid", "8x8",
                              "--out", out + "/v.csv"]) == 0
    assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

    three = stopgame.GameSpec(R=[[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 1.0, -2.0]],
                              Q=Q, r=0.7, f=[[2.0, 1.0], [0.5, 1.5], [0.1, 2.5]],
                              h=[[1.0, -1.0], [-1.0, 0.0], [-1.0, -0.5]],
                              p0=[1 / 3, 1 / 3, 1 / 3], q0=[0.5, 0.5])
    solve(three, 4, 4, tol=1e-8)
    assert "scipy.spatial" in sys.modules
""")


def test_cold_start_loads_scipy_only_for_3_state_charts(tmp_path):
    # a fresh interpreter: this process has scipy loaded by other tests.
    # scipy.spatial's qhull module itself loads scipy.linalg, so after the
    # 3-state solve only the presence of scipy.spatial is asserted; that no
    # stopgame module imports scipy.linalg is test_scipy_only_for_qhull
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
