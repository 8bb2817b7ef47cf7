import json
import math

import numpy as np
import pytest

import stopgame.examples as ex
from conftest import game_at
from stopgame.cli import main
from stopgame.grids import read_value_csv
from stopgame.model import ChainSampler, GameSpec, philox_rng
from stopgame.montecarlo import _blocks
from stopgame.pdmp import (ConstantTimeStrategy, InitialStateTimeStrategy, NeverStopStrategy,
                           StopNowStrategy)
from stopgame.serialize import (strategy_from_descriptor, strategy_from_json,
                                strategy_to_json)


@pytest.fixture()
def game_files(tmp_path, e1_spec, e2_spec):
    e1 = tmp_path / "e1.json"
    e1.write_text(game_at(e1_spec, 0.25, 0.5).to_json())
    e2 = tmp_path / "e2.json"
    e2.write_text(game_at(e2_spec, 1.0 / 3.0, None).to_json())
    return {"e1": e1, "e2": e2, "dir": tmp_path}


def test_solve_roundtrip(game_files, e1_spec):
    out = game_files["dir"] / "v.csv"
    code = main(["solve", "--game", str(game_files["e1"]), "--grid", "61x61",
                 "--tol", "1e-7", "--out", str(out)])
    assert code == 0
    p_chart, q_chart, values = read_value_csv(out)
    from stopgame.solver import solve

    grid = solve(game_at(e1_spec, 0.25, 0.5), 60, 60, tol=1e-7)
    np.testing.assert_array_equal(values, grid.values)  # 17 digits round-trip
    meta = json.loads((game_files["dir"] / "v.csv.meta.json").read_text())
    assert meta["iterations"] == grid.metadata["iterations"]
    assert meta["delta"] == grid.metadata["delta"]


def test_solve_sidecar_records_the_mixing(game_files, e2_spec):
    # a moving chain is mixed like a frozen one; on e2's exact-finish grid
    # (N = 100) the stall switch hands over to plain sweeps
    from stopgame.solver import solve

    d = game_files["dir"]
    moving = GameSpec(R=[[-1.0, 1.0], [0.6, -0.6]], Q=[[-0.8, 0.8], [1.2, -1.2]], r=0.8,
                      f=ex.scalar_payoff_matrix(-1.0, 2.0, 3.0),
                      h=ex.scalar_payoff_matrix(-4.0, 3.0, 2.0), p0=[0.5, 0.5], q0=[0.5, 0.5])
    (d / "moving.json").write_text(moving.to_json())
    for path, spec, grid, N_p, N_q, tol, stalled in (
            (d / "moving.json", moving, "14x14", 13, 13, 1e-8, False),
            (game_files["e2"], game_at(e2_spec, 1.0 / 3.0, None), "101", 100, 1, 1e-9, True)):
        assert main(["solve", "--game", str(path), "--grid", grid, "--tol", str(tol),
                     "--out", str(d / "v.csv")]) == 0
        mixing = json.loads((d / "v.csv.meta.json").read_text())["mixing"]
        assert set(mixing) == {"accepted", "restarts", "stalled_at"}
        assert mixing == solve(spec, N_p, N_q, tol=tol).metadata["mixing"]
        assert mixing["accepted"] > 0
        assert isinstance(mixing["stalled_at"], int) if stalled else mixing["stalled_at"] is None


def test_example_and_dual_outputs(game_files):
    out = game_files["dir"] / "e2.csv"
    assert main(["example", "e2", "--a", "1", "--b", "1", "--r", "0.1",
                 "--h", "0.5,2", "--f", "1,3", "--res", "40",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "p,value"
    assert len(rows) == 42
    mid = [float(x) for x in rows[1 + 20].split(",")]
    assert mid[1] == pytest.approx(ex.e2_value(ex.REFERENCE_E2, mid[0]), abs=1e-12)

    dual = game_files["dir"] / "dual.csv"
    assert main(["dual", "--oracle", "e1", "--pres", "10", "--yres", "10",
                 "--out", str(dual)]) == 0
    lines = dual.read_text().strip().splitlines()
    assert lines[0] == "p,y,value,zone"
    assert len(lines) == 1 + 11 * 11
    assert {float(line.split(",")[1]) for line in lines[1:]} >= {-1.0, 3.0}  # cli.YBOX

    # a negative lo, in the "=" form and in the spaced form
    e1dual = game_files["dir"] / "e1dual.csv"
    for ybox, lo, hi in ((["--ybox=-2,2"], -2.0, 2.0), (["--ybox", "-2,2"], -2.0, 2.0),
                         (["--ybox", "-1.5,-0.5"], -1.5, -0.5)):
        assert main(["dual", "--oracle", "e1", "--pres", "4", "--yres", "4", *ybox,
                     "--out", str(e1dual)]) == 0
        ys = [float(line.split(",")[1]) for line in e1dual.read_text().strip().splitlines()[1:]]
        assert (min(ys), max(ys)) == (lo, hi)
    assert main(["dual", "--oracle", "e1", "--ybox", "-1,3", "--pres", "10", "--yres", "10",
                 "--out", str(e1dual)]) == 0
    assert e1dual.read_bytes() == dual.read_bytes()  # the default box, spelled out


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_dual_game_rows_are_grid_conjugates(game_files, e1_spec, e2_spec):
    # e2's q side has one state, so its dual vector has one coordinate
    from stopgame.cli import DUAL_TOL
    from stopgame.conjugate import convex_conjugate_q, pair, ycoord
    from stopgame.solver import solve

    for name, spec, n_q in (("e1", game_at(e1_spec, 0.25, 0.5), 5),
                            ("e2", game_at(e2_spec, 1.0 / 3.0, None), 1)):
        out = game_files["dir"] / f"dual_{name}.csv"
        assert main(["dual", "--game", str(game_files[name]), "--grid", "6", "--pres", "4",
                     "--yres", "5", "--ybox=-1,2", "--out", str(out)]) == 0
        header, rows = _rows(out)
        grid = solve(spec, 5, n_q, tol=DUAL_TOL)
        assert header == "p,y,value,zone" and len(rows) == 5 * 6
        for p, y, value, zone in rows:
            want = convex_conjugate_q(grid, pair(float(p)), ycoord(float(y))[: spec.L])
            assert (float(value), zone) == (want, ""), (name, p, y)


def test_example_e1_value_and_pure_rows(game_files):
    out = game_files["dir"] / "e1.csv"
    for what, header, closed_form in (
            ("value", "p,q,value", lambda p, q: (ex.e1_value(p, q),)),
            ("pure", "p,q,lower,upper", ex.e1_pure_values)):
        assert main(["example", "e1", "--what", what, "--res", "8", "--out", str(out)]) == 0
        got, rows = _rows(out)
        assert got == header and len(rows) == 9 * 9
        for row in rows:
            p, q, *values = map(float, row)
            assert tuple(values) == tuple(closed_form(p, q)), (what, p, q)


def test_strategy_simulate_verify_happy_path(game_files):
    sfile = game_files["dir"] / "s.json"
    assert main(["strategy", "--family", "e2", "--r", "0.1", "--p",
                 str(1.0 / 3.0), "--out", str(sfile)]) == 0
    payload = json.loads(sfile.read_text())
    assert payload["strategy"]["case"] == "flow"
    assert payload["value_claim"] == pytest.approx(5.0 / 3.0, abs=1e-9)

    trace = game_files["dir"] / "trace.csv"
    assert main(["simulate", "--strategy", str(sfile), "--horizon", "5",
                 "--seed", "3", "--out", str(trace)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "t,p0,p1,jumped"
    assert lines[-1].endswith(",1") or lines[-1].endswith(",0")

    report = game_files["dir"] / "rep.json"
    assert main(["verify", "optimality", "--game", str(game_files["e2"]),
                 "--strategy", str(sfile), "--n", "4000", "--seed", "7",
                 "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    for key in ("value_claim", "best_response", "gap", "std_error", "n",
                "family", "seed"):
        assert key in data
    assert data["n"] == 4000 and data["seed"] == 7
    assert set(data["stop_counts"]) == {"zero", "flow", "never"}
    assert sum(data["stop_counts"].values()) == data["n"]


def test_verify_reports_are_byte_identical(game_files):
    sfile = game_files["dir"] / "s.json"
    main(["strategy", "--family", "e2", "--r", "0.1", "--p", str(1.0 / 3.0),
          "--out", str(sfile)])
    r1 = game_files["dir"] / "r1.json"
    r2 = game_files["dir"] / "r2.json"
    args = ["verify", "optimality", "--game", str(game_files["e2"]),
            "--strategy", str(sfile), "--n", "3000", "--seed", "11"]
    assert main(args + ["--out", str(r1)]) == 0
    assert main(args + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_flags_wrong_strategy(game_files):
    # claim the value but play an immediate stop: significantly exploited
    sfile = game_files["dir"] / "bad.json"
    claim = ex.e2_value(ex.REFERENCE_E2, 1.0 / 3.0)
    sfile.write_text(strategy_to_json(StopNowStrategy(), value_claim=claim))
    code = main(["verify", "optimality", "--game", str(game_files["e2"]),
                 "--strategy", str(sfile), "--n", "4000", "--seed", "1"])
    assert code == 2


def test_verify_never_stop_rule_without_chain(game_files):
    # no chain, so no start law to check: both players never stop, the best
    # response pays 0 and the claim of 0.5 is exploited by exactly 0.5
    sfile = game_files["dir"] / "never.json"
    sfile.write_text(json.dumps({"strategy": {"case": "never"}, "value_claim": 0.5}))
    out = game_files["dir"] / "never_rep.json"
    assert main(["verify", "optimality", "--game", str(game_files["e2"]),
                 "--strategy", str(sfile), "--n", "500", "--out", str(out)]) == 2
    data = json.loads(out.read_text())
    assert data["best_response"] == 0.0 and data["gap"] == -0.5
    assert data["std_error"] == 0.0 and data["stop_counts"]["never"] == 500


def test_grid_on_one_state_side(game_files, e2_spec):
    # e2's q side has one state: N and Nx1 give one q node, recorded as N_q = 1
    d = game_files["dir"]
    for grid in ("5", "5x1"):
        out = d / f"e2_{grid}.csv"
        assert main(["solve", "--game", str(game_files["e2"]), "--grid", grid,
                     "--out", str(out)]) == 0
        assert read_value_csv(out)[2].shape == (5, 1)
        meta = json.loads((d / f"e2_{grid}.csv.meta.json").read_text())
        assert (meta["N_p"], meta["N_q"]) == (4, 1)
    assert (d / "e2_5.csv").read_bytes() == (d / "e2_5x1.csv").read_bytes()
    # a one-state p side takes N or 1xM
    mirrored = d / "k1.json"
    mirrored.write_text(GameSpec(R=np.zeros((1, 1)), Q=e2_spec.R, r=e2_spec.r,
                                 f=-e2_spec.h.T, h=-e2_spec.f.T, p0=[1.0],
                                 q0=[0.5, 0.5]).to_json())
    for grid in ("5", "1x5"):
        assert main(["solve", "--game", str(mirrored), "--grid", grid,
                     "--out", str(d / "k1.csv")]) == 0
        meta = json.loads((d / "k1.csv.meta.json").read_text())
        assert (meta["N_p"], meta["N_q"]) == (1, 4)
    assert main(["solve", "--game", str(mirrored), "--grid", "5x5",
                 "--out", str(d / "k1.csv")]) == 1


def test_verify_rejects_mismatched_initial_law(game_files):
    # strategy built at p = 0.5 against a game starting at p = 1/3
    sfile = game_files["dir"] / "mismatch.json"
    main(["strategy", "--family", "e2", "--r", "0.1", "--p", "0.5",
          "--out", str(sfile)])
    code = main(["verify", "optimality", "--game", str(game_files["e2"]),
                 "--strategy", str(sfile), "--n", "100"])
    assert code == 1


def test_strategy_q_is_e1_only(game_files, capsys):
    # e2 has no private state on player 2's side, so --q has nothing to set
    d = game_files["dir"]
    capsys.readouterr()
    for argv in (["--family", "e2", "--p", "0.3", "--q", "0.9"],
                 ["--family", "e2", "--p", "0.3", "--q", "0.5"],
                 ["--family", "e1", "--p", "0.3", "--q", "1.5"],
                 ["--family", "e2", "--p", "nan"]):
        out = d / "q.json"
        assert main(["strategy", *argv, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err, argv
        assert not out.exists(), argv
    # e1 still defaults to q = 0.5
    assert main(["strategy", "--family", "e1", "--p", "0.25", "--out", str(d / "e1.json")]) == 0
    assert json.loads((d / "e1.json").read_text())["point"]["q"] == 0.5


def test_verify_rejects_rules_that_do_not_fit_the_game(game_files, capsys):
    # the library checks the rule; verify maps its InputError to exit 1
    d = game_files["dir"]
    three = GameSpec(R=[[-1.0, 0.6, 0.4], [0.5, -0.8, 0.3], [1.0, 1.0, -2.0]], Q=[[0.0]],
                     r=0.4, f=[[1.0], [0.0], [3.0]], h=[[0.5], [-1.0], [2.0]],
                     p0=[0.2, 0.5, 0.3], q0=[1.0])
    (d / "three.json").write_text(three.to_json())
    flow = d / "flow.json"
    assert main(["strategy", "--family", "e2", "--p", "0.2", "--out", str(flow)]) == 0
    (d / "flow_minus_inf.json").write_text(json.dumps(
        {**json.loads(flow.read_text()), "value_claim": float("-inf")}))
    # a rule that fits the game, with a NaN claim
    fits = d / "fits.json"
    assert main(["strategy", "--family", "e2", "--p", str(1.0 / 3.0), "--out", str(fits)]) == 0
    (d / "fits_nan.json").write_text(json.dumps(
        {**json.loads(fits.read_text()), "value_claim": float("nan")}))
    (d / "long.json").write_text(json.dumps(
        {"strategy": {"case": "state_times", "times": [1.0, 2.0, 3.0]}, "value_claim": 1.0}))
    # the game's start law, but built for another own chain (a = 3)
    assert main(["strategy", "--family", "e2", "--a", "3", "--p", str(1.0 / 3.0),
                 "--out", str(d / "other_chain.json")]) == 0
    capsys.readouterr()
    for game, strategy in (("three.json", "flow.json"), (game_files["e2"], "flow.json"),
                           (game_files["e2"], "flow_minus_inf.json"),
                           (game_files["e2"], "fits_nan.json"),
                           (game_files["e2"], "long.json"),
                           (game_files["e2"], "other_chain.json")):
        assert main(["verify", "optimality", "--game", str(d / game), "--strategy",
                     str(d / strategy), "--n", "100"]) == 1, (game, strategy)
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err, (game, strategy)


def test_cli_input_errors(game_files, capsys):
    assert main(["solve", "--game", "missing.json", "--grid", "10",
                 "--out", str(game_files["dir"] / "x.csv")]) == 1
    assert main(["solve", "--game", str(game_files["e1"]), "--grid", "abc",
                 "--out", str(game_files["dir"] / "x.csv")]) == 1
    assert main(["--not-a-flag"]) == 1
    bad = game_files["dir"] / "broken.json"
    bad.write_text("{not json")
    assert main(["solve", "--game", str(bad), "--grid", "10",
                 "--out", str(game_files["dir"] / "x.csv")]) == 1
    assert main(["solve", "--game", str(game_files["e1"]), "--grid", "10",
                 "--out", str(game_files["dir"] / "nodir" / "x.csv")]) == 1
    capsys.readouterr()


def test_seed_past_64_bits_is_an_input_error(game_files, capsys):
    d = game_files["dir"]
    sfile = d / "s.json"
    assert main(["strategy", "--family", "e2", "--r", "0.1", "--p", str(1.0 / 3.0),
                 "--out", str(sfile)]) == 0
    seed = ["--seed", str(2**64)]
    for argv in (["simulate", "--strategy", str(sfile)] + seed,
                 ["verify", "optimality", "--game", str(game_files["e2"]),
                  "--strategy", str(sfile), "--n", "100"] + seed):
        capsys.readouterr()
        out = d / "seed.out"
        assert main(argv + ["--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err, argv
        assert not out.exists(), argv


def test_malformed_flags_are_input_errors(game_files, capsys):
    d = game_files["dir"]
    sfile = d / "s.json"
    assert main(["strategy", "--family", "e2", "--r", "0.1", "--p", str(1.0 / 3.0),
                 "--out", str(sfile)]) == 0
    verify = ["verify", "optimality", "--game", str(game_files["e2"]),
              "--strategy", str(sfile)]
    cases = [
        verify + ["--times", "-1"],
        verify + ["--n", "0"],
        verify + ["--n", "many"],
        ["example", "e1", "--res", "-1"],
        ["dual", "--oracle", "e1", "--pres", "-1"],
        ["dual", "--oracle", "e1", "--yres", "0"],
        ["solve", "--game", str(game_files["e1"]), "--grid", "5", "--max-iter", "0"],
        ["simulate", "--strategy", str(sfile), "--horizon", "-1"],
        ["simulate", "--strategy", str(sfile), "--horizon", "nan"],
        ["simulate", "--strategy", str(sfile), "--horizon", "inf"],
        ["solve", "--game", str(game_files["e1"]), "--grid", "5", "--seed", "3"],
        ["solve", "--game", str(game_files["e1"]), "--grid", "5", "--threads", "2"],
        ["example", "e1", "--r", "nan"],
        ["example", "e1", "--r", "2"],
        ["example", "e1", "--a", "2"],
        ["example", "e1", "--b", "2"],
        ["example", "e1", "--h", "0.5,2", "--what", "pure"],
        ["example", "e1", "--f", "1,3", "--what", "value"],
        ["example", "e1", "--what", "dual", "--res", "2"],  # dual --oracle e1 writes it
        ["strategy", "--family", "e1", "--p", "0.5", "--a", "2"],
        ["strategy", "--family", "e1", "--p", "0.5", "--b", "2"],
        ["strategy", "--family", "e1", "--p", "0.5", "--h", "0.5,2"],
        ["strategy", "--family", "e1", "--p", "0.5", "--r", "1", "--f", "1,3"],
        ["dual", "--oracle", "e1", "--r", "nan", "--game", str(d / "missing.json"),
         "--grid", "zz", "--tol", "-1", "--pres", "2", "--yres", "2"],
        ["dual", "--oracle", "e1", "--r", "1", "--pres", "2", "--yres", "2"],
        ["dual", "--oracle", "e1", "--game", str(game_files["e1"]), "--pres", "2", "--yres", "2"],
        ["dual", "--oracle", "e1", "--grid", "5", "--pres", "2", "--yres", "2"],
        ["dual", "--oracle", "e1", "--tol", "1e-6", "--pres", "2", "--yres", "2"],
        # --ybox: two finite numbers with lo < hi
        ["dual", "--oracle", "e1", "--ybox", "inf,2", "--pres", "2", "--yres", "2"],
        ["dual", "--oracle", "e1", "--ybox", "nan,1", "--pres", "2", "--yres", "2"],
        ["dual", "--oracle", "e1", "--ybox", "x,y", "--pres", "2", "--yres", "2"],
        ["dual", "--oracle", "e1", "--ybox", "3,-1", "--pres", "2", "--yres", "2"],
        ["dual", "--oracle", "e1", "--ybox", "1,1", "--pres", "2", "--yres", "2"],
        ["dual", "--oracle", "e1", "--ybox"],  # then --out: a flag, not a value
        # --grid: a one-state side has one node
        ["solve", "--game", str(game_files["e2"]), "--grid", "4x4"],
        ["solve", "--game", str(game_files["e2"]), "--grid", "1x4"],
        ["dual", "--game", str(game_files["e2"]), "--grid", "5x5", "--pres", "2", "--yres", "2"],
        # --grid: a side with two or more states has at least 2 nodes
        ["solve", "--game", str(game_files["e1"]), "--grid", "1"],
        ["solve", "--game", str(game_files["e1"]), "--grid", "1x5"],
        ["solve", "--game", str(game_files["e1"]), "--grid", "5x1"],
        ["dual", "--game", str(game_files["e1"]), "--grid", "1", "--pres", "2", "--yres", "2"],
        ["example", "e2", "--h", "inf,2", "--res", "2"],
        ["strategy", "--family", "e2", "--p", "0.5", "--f", "1,nan"],
    ]
    # malformed strategy and game files: a missing key, a wrong type or
    # length, a horizon that is not positive and finite, a non-finite rate
    flow = json.loads(sfile.read_text())
    no_h = json.loads(sfile.read_text())
    del no_h["strategy"]["characteristics"]["h"]
    split_file = d / "split.json"
    assert main(["strategy", "--family", "e1", "--p", "0.75", "--q", "0.75",
                 "--out", str(split_file)]) == 0
    split = json.loads(split_file.read_text())
    assert split["strategy"]["case"] == "split"
    game = json.loads(game_files["e2"].read_text())
    game["r"] = "abc"

    def edited(payload, r=None, **changes):
        desc = {**payload["strategy"], **changes}
        if r is not None:
            desc["characteristics"] = {**desc["characteristics"], "r": r}
        return {**payload, "strategy": desc}

    bad_strategies = {
        "no_time": {"strategy": {"case": "constant_time"}, "value_claim": 1.0},
        "text_time": {"strategy": {"case": "constant_time", "time": "abc"}, "value_claim": 1.0},
        "no_h": no_h,
        "list": {"strategy": [], "value_claim": 1.0},
        "short_z": edited(flow, z=[0.3]),
        "text_claim": {**flow, "value_claim": "abc"},
        "nan_r": edited(flow, r=float("nan")),
        "inf_r_e1": edited(split, r=float("inf")),
        "split_horizon": edited(split, horizon=-1.0),
        "nan_time": {"strategy": {"case": "constant_time", "time": float("nan")},
                     "value_claim": 1.0},
        "nan_state_time": {"strategy": {"case": "state_times", "times": [float("nan"), 1.0]},
                           "value_claim": 1.0},
        "short_state_times": {"strategy": {"case": "state_times", "times": [1.0]},
                              "value_claim": 1.0},
        "empty_state_times": {"strategy": {"case": "state_times", "times": []},
                              "value_claim": 1.0},
        "scalar_state_times": {"strategy": {"case": "state_times", "times": 1.0},
                               "value_claim": 1.0},
        "never_p0_only": {"strategy": {"case": "never", "p0": [0.5, 0.5]}, "value_claim": 0.5},
        "never_R_only": {"strategy": {"case": "never", "R": [[0.0, 0.0], [0.0, 0.0]]},
                         "value_claim": 0.5},
        "never_R_too_small": {"strategy": {"case": "never", "R": [[0.0]], "p0": [0.5, 0.5]},
                              "value_claim": 0.5},
        "never_R_not_generator": {"strategy": {"case": "never", "R": [[1.0, -1.0], [0.0, 0.0]],
                                               "p0": [0.5, 0.5]}, "value_claim": 0.5},
        "nan_split_z": edited(split, z=[float("nan")] * 4),
    }
    for i, horizon in enumerate((-1.0, 0.0, float("nan"), float("inf"))):
        bad_strategies[f"horizon{i}"] = edited(flow, horizon=horizon)
    for name, payload in bad_strategies.items():
        (d / f"{name}.json").write_text(json.dumps(payload))
        cases.append(verify[:4] + ["--strategy", str(d / f"{name}.json")])
        cases.append(["simulate", "--strategy", str(d / f"{name}.json")])
    (d / "text_r.json").write_text(json.dumps(game))
    cases.append(["verify", "optimality", "--game", str(d / "text_r.json"),
                  "--strategy", str(sfile)])
    for tol in ("inf", "nan", "0", "-1"):
        cases.append(["solve", "--game", str(game_files["e1"]), "--grid", "5", "--tol", tol])
        cases.append(["dual", "--game", str(game_files["e1"]), "--grid", "5", "--tol", tol,
                      "--pres", "2", "--yres", "2"])
    capsys.readouterr()
    for i, argv in enumerate(cases):
        out = d / f"bad{i}.out"
        assert main(argv + ["--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err, argv
        assert not out.exists(), argv


def test_simulate_split_rule_starts_at_its_flow_start(game_files, capsys):
    # the first row is the rule's z_flow, and the path is the one the
    # descriptor's own characteristics give from there
    from stopgame.cli import _grid_csv_rows
    from stopgame.model import philox_rng
    from stopgame.pdmp import simulate_Z
    from stopgame.serialize import characteristics_from_params

    d = game_files["dir"]
    for name, flags in (("e1", ["--p", "0.75", "--q", "0.75"]), ("e2", ["--p", "0.6"])):
        sfile, trace = d / f"split_{name}.json", d / f"split_{name}.csv"
        assert main(["strategy", "--family", name, *flags, "--out", str(sfile)]) == 0
        desc = json.loads(sfile.read_text())["strategy"]
        assert desc["case"] == "split"
        assert main(["simulate", "--strategy", str(sfile), "--horizon", "5", "--seed", "3",
                     "--out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert [float(x) for x in lines[1].split(",")] == [0.0, *desc["z_flow"], 0.0]
        zpath = simulate_Z(characteristics_from_params(desc["characteristics"]),
                           desc["z_flow"], 5.0, philox_rng(3))
        rows = [(float(t), *map(float, z), 0) for t, z in zip(zpath.ts, zpath.zs)]
        if zpath.jumped:
            rows.append((float(zpath.jump_time), *map(float, zpath.post_jump), 1))
        assert trace.read_text() == _grid_csv_rows(lines[0], rows)
    # rules without a flow carry no auxiliary process
    for desc in ({"case": "stop_now"}, {"case": "constant_time", "time": 1.0}):
        sfile = d / f"{desc['case']}.json"
        sfile.write_text(json.dumps({"strategy": desc}))
        capsys.readouterr()
        assert main(["simulate", "--strategy", str(sfile), "--out", str(d / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "carry no auxiliary process" in err
        assert not (d / "x.csv").exists()


def test_strategy_descriptor_roundtrip(e2_params):
    for p in (0.15, 1.0 / 3.0, 0.6):
        strat = ex.e2_optimal_mu(e2_params, p)
        again = strategy_from_descriptor(strat.descriptor())
        assert again.case == strat.case
    strat = ex.e1_optimal_mu(0.75, 0.75)
    again, claim = strategy_from_json(strategy_to_json(strat, value_claim=1.0 / 3.0))
    assert again.case == "split" and claim == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(again.z, strat.z)
    np.testing.assert_allclose(again.flow.z0, strat.flow.z0)


ROUNDTRIP_RULES = {
    "never": lambda: NeverStopStrategy(),
    "never-chain": lambda: NeverStopStrategy([[-1.0, 1.0], [0.6, -0.6]], [0.3, 0.7]),
    "stop_now": lambda: StopNowStrategy(),
    "constant_time": lambda: ConstantTimeStrategy(0.75),
    "constant_time-inf": lambda: ConstantTimeStrategy(math.inf),
    "state_times": lambda: InitialStateTimeStrategy([0.5, math.inf]),
    "flow": lambda: ex.e2_optimal_mu(ex.REFERENCE_E2, 1.0 / 3.0),
    "split": lambda: ex.e1_optimal_mu(0.75, 0.75),
}


@pytest.mark.parametrize("make", ROUNDTRIP_RULES.values(), ids=ROUNDTRIP_RULES)
def test_strategy_file_roundtrip_keeps_the_rule(make, e2_params):
    # the file gives back the descriptor, and the same stops on one block
    # of the rule's own chain (e2's where the rule carries none)
    rule = make()
    again, claim = strategy_from_json(strategy_to_json(rule, value_claim=0.5))
    assert (again.case, again.descriptor(), claim) == (rule.case, rule.descriptor(), 0.5)
    R = e2_params.R if rule.generator() is None else rule.generator()
    p0 = [0.4, 0.6] if rule.initial_belief() is None else rule.initial_belief()
    paths = ChainSampler(R, p0).sample_block(20.0, philox_rng(31, 0), 200)
    stops = [r.stopping_times(paths, philox_rng(31, 1)) for r in (rule, again)]
    assert stops[0].tobytes() == stops[1].tobytes()


def test_descriptor_with_mechanisation_key_loads(e2_params):
    # flow descriptors from versions with a second mechanisation carry
    # "method": "segment"; the key is ignored and the rule is unchanged
    p = 1.0 / 3.0
    strat = ex.e2_optimal_mu(e2_params, p)
    desc = strat.descriptor()
    assert desc["case"] == "flow" and "method" not in desc
    old = json.dumps({"strategy": {**desc, "method": "segment"}, "value_claim": 5.0 / 3.0})
    again, claim = strategy_from_json(old)
    assert claim == 5.0 / 3.0 and again.descriptor() == desc
    sampler = ChainSampler(e2_params.R, [p, 1 - p])

    def stops(rule):
        return np.concatenate([rule.stopping_times(sampler.sample_block(60.0, rng, rows), rng)
                               for rng, rows in _blocks(2000, 52)])

    np.testing.assert_array_equal(stops(again), stops(strat))
