import json

import numpy as np
import pytest

import stopgame.examples as ex
from conftest import game_at
from stopgame.cli import main
from stopgame.grids import read_value_csv
from stopgame.model import ChainSampler, philox_rng
from stopgame.montecarlo import _blocks
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
    from stopgame.pdmp import StopNowStrategy

    claim = ex.e2_value(ex.REFERENCE_E2, 1.0 / 3.0)
    sfile.write_text(strategy_to_json(StopNowStrategy(), value_claim=claim))
    code = main(["verify", "optimality", "--game", str(game_files["e2"]),
                 "--strategy", str(sfile), "--n", "4000", "--seed", "1"])
    assert code == 2


def test_verify_rejects_mismatched_initial_law(game_files):
    # strategy built at p = 0.5 against a game starting at p = 1/3
    sfile = game_files["dir"] / "mismatch.json"
    main(["strategy", "--family", "e2", "--r", "0.1", "--p", "0.5",
          "--out", str(sfile)])
    code = main(["verify", "optimality", "--game", str(game_files["e2"]),
                 "--strategy", str(sfile), "--n", "100"])
    assert code == 1


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
        ["example", "e1", "--f", "1,3", "--what", "dual"],
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
    ]
    # malformed strategy and game files: a missing key, a wrong type or length
    flow = json.loads(sfile.read_text())
    no_h = json.loads(sfile.read_text())
    del no_h["strategy"]["characteristics"]["h"]
    game = json.loads(game_files["e2"].read_text())
    game["r"] = "abc"
    bad_strategies = {
        "no_time": {"strategy": {"case": "constant_time"}, "value_claim": 1.0},
        "text_time": {"strategy": {"case": "constant_time", "time": "abc"}, "value_claim": 1.0},
        "no_h": no_h,
        "list": {"strategy": [], "value_claim": 1.0},
        "short_z": {**flow, "strategy": {**flow["strategy"], "z": [0.3]}},
        "text_claim": {**flow, "value_claim": "abc"},
    }
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
