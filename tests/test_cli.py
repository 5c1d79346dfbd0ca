"""Command line contract: schema, reproducibility, exit codes."""
import argparse
import csv
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinpointer

from spinpointer import asymptotics, cli, disturbance, estimation
from spinpointer.validate import CheckResult


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].startswith("# config=")
    config = json.loads(lines[1][len("# config="):])
    columns = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    return config, columns, rows


def test_reference_json(capsys):
    code, out, _ = run_cli(["reference", "--n", "1", "--n", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["config"] == {"command": "reference", "n": [1, 2]}
    first = doc["result"][0]
    assert first["f_opt"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert first["strong_coupling_limit"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert first["d_min"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert first["delta_opt_formula"] == pytest.approx(math.sqrt(0.125), abs=1e-15)
    second = doc["result"][1]
    assert second["f_opt"] == pytest.approx(0.75, abs=1e-15)
    assert second["optimal_scaling"] == pytest.approx(0.5, abs=1e-15)


def test_reference_csv(capsys):
    code, out, _ = run_cli(["reference", "--n", "3", "--format", "csv"], capsys)
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert config == {"command": "reference", "n": [3]}
    assert columns[:2] == ["n_spins", "f_opt"]
    assert float(rows[0][1]) == pytest.approx(0.8, abs=1e-15)


def test_sweep_csv_contract(capsys):
    code, out, err = run_cli(
        ["sweep", "--n", "2", "--delta", "0.4", "--delta", "0.8",
         "--guess-rule", "best-of-axis", "--nodes-r", "48", "--nodes-theta", "32"],
        capsys,
    )
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert config["command"] == "sweep"
    assert config["n"] == [2]
    assert config["delta"] == [0.4, 0.8]
    assert config["guess_rule"] == "best_of_axis"
    assert columns == ["n_spins", "delta", "f_avg", "f_opt", "guess_rule",
                       "err_estimate", "nodes_r", "nodes_theta", "nodes_p_radial"]
    assert len(rows) == 2
    for row in rows:
        assert row[0] == "2"
        assert float(row[3]) == pytest.approx(0.75, abs=1e-15)
        assert row[4] == "best_of_axis:plus_r"
        assert 0.5 < float(row[2]) < 0.76
        assert int(row[6]) == 48


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        ["sweep", "--n", "1", "--delta", "0.6", "--nodes-r", "48",
         "--nodes-theta", "32", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["config"]["command"] == "sweep"
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["n_spins"] == 1
    assert 0.5 < doc["rows"][0]["f_avg"] < 0.67


def test_byte_identity_across_runs_and_workers(tmp_path, capsys):
    base = ["sweep", "--n", "1", "--delta", "0.4", "--delta", "0.7",
            "--nodes-r", "48", "--nodes-theta", "32"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli.main(base + ["--out", str(paths[0])]) == 0
    assert cli.main(base + ["--out", str(paths[1])]) == 0
    assert cli.main(base + ["--workers", "2", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert b"\r" not in blobs[0]
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--n", "1", "--delta", "0.5", "--nodes-r", "48", "--nodes-theta", "32"],
        ["disturbance", "--n", "1", "--delta", "0.5", "--mark-delta-opt"],
        ["optimize", "--n", "1", "--delta-min", "0.5", "--delta-max", "0.52",
         "--nodes-r", "48", "--nodes-theta", "32"],
    ],
    ids=lambda args: args[0],
)
def test_workers_flag_is_accepted_and_changes_nothing(args, capsys):
    # The benchmark's command lines still pass `--workers 1`; a count below 1
    # is refused, as it was when the flag still chose a process count.
    plain = run_cli(args, capsys)
    flagged = run_cli(args + ["--workers", "1"], capsys)
    assert plain[0] == 0
    assert flagged == plain
    for count in ("0", "-3"):
        code, out, err = run_cli(args + ["--workers", count], capsys)
        assert (code, out) == (2, "") and "worker count must be >= 1" in err


def test_cli_import_loads_no_process_pool():
    env = dict(os.environ)
    src = str(Path(spinpointer.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, spinpointer.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def assert_refused(args, flag, tmp_path, capsys):
    """``flag`` exits 2 on the command line, and so does its config key."""
    with pytest.raises(SystemExit) as exc:
        cli.main(args + [flag, "8"])
    assert exc.value.code == 2
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): 8}))
    code, out, err = run_cli(args + ["--config", str(config)], capsys)
    assert code == 2
    assert out == ""
    assert "unknown config key" in err


@pytest.mark.parametrize(
    "flag", ["--nodes-p-polar", "--nodes-p-azimuthal", "--nodes-r", "--nodes-theta"]
)
def test_asympt_refuses_momentum_angle_counts(flag, tmp_path, capsys):
    # The lower bound reads no polar or azimuthal momentum count, and it
    # integrates both outcome axes exactly, so it has no outcome grid.
    assert_refused(["asympt", "--n-min", "4", "--n-max", "4"], flag, tmp_path, capsys)


@pytest.mark.parametrize("flag", ["--nodes-p-polar", "--nodes-p-azimuthal"])
@pytest.mark.parametrize(
    "args", [["sweep", "--n", "1", "--delta", "0.5"], ["optimize", "--n", "1"]],
    ids=["sweep", "optimize"],
)
def test_fidelity_commands_refuse_momentum_angle_counts(args, flag, tmp_path, capsys):
    # The amplitude field integrates both momentum angles in closed form.
    assert_refused(args, flag, tmp_path, capsys)


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--n", "1", "--delta", "0.5", "--nodes-r", "48", "--nodes-theta", "32"],
        ["optimize", "--n", "1", "--delta-min", "0.5", "--delta-max", "0.52",
         "--nodes-r", "48", "--nodes-theta", "32"],
        ["disturbance", "--n", "1", "--n", "2", "--delta", "0.5", "--mark-delta-opt"],
        ["bloch", "--n", "2", "--delta-min", "0.3", "--delta-max", "0.6", "--delta-steps", "2"],
        ["asympt", "--n-min", "2", "--n-max", "6", "--n-step", "2"],
        ["reference", "--n", "1", "--n", "3", "--format", "csv"],
    ],
    ids=lambda args: args[0],
)
def test_config_round_trip(args, tmp_path, capsys):
    # The config echo, saved and passed back through --config with the same
    # output flags, reproduces the document byte for byte.
    output = args[args.index("--format"):] if "--format" in args else []
    first = tmp_path / "first"
    assert cli.main(args + ["--out", str(first)]) == 0
    text = first.read_text()
    if text.startswith("# schema=1\n"):
        config = json.loads(text.splitlines()[1][len("# config="):])
    else:
        config = json.loads(text)["config"]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    second = tmp_path / "second"
    assert cli.main([args[0], "--config", str(cfg_path), *output, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()



def test_equivalent_flags_and_config_print_the_same_bytes(tmp_path):
    # The echo holds each setting converted to its kind, so a config file's
    # 80.0 for a node count and 8 for a cutoff echo as the flags' 80 and 8.0.
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n": [1], "delta": [0.5], "nodes_p_radial": 80.0,
                                    "p_cutoff_sigmas": 8, "nodes_r": 48, "nodes_theta": 32}))
    flags = ["--n", "1", "--delta", "0.5", "--nodes-p-radial", "80", "--p-cutoff-sigmas", "8",
             "--nodes-r", "48", "--nodes-theta", "32"]
    from_flags, from_file = tmp_path / "flags.csv", tmp_path / "file.csv"
    assert cli.main(["sweep", *flags, "--out", str(from_flags)]) == 0
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(from_file)]) == 0
    assert from_flags.read_bytes() == from_file.read_bytes()


_OUTPUT = "--out:str --format:str --workers:int --config:str"
_SPREADS = "--delta:float... --delta-min:float --delta-max:float --delta-steps:int"
_FIDELITY = ("--guess-rule:str --nodes-r:int --nodes-theta:int --nodes-p-radial:int "
             "--p-cutoff-sigmas:float --tol:float")
_MOMENTUM = "--nodes-p-radial:int --nodes-p-polar:int --p-cutoff-sigmas:float"
_SURFACE = {
    "sweep": f"--n:int... {_SPREADS} {_FIDELITY}",
    "optimize": f"--n:int --delta-min:float --delta-max:float {_FIDELITY}",
    "disturbance": f"--n:int... {_SPREADS} {_MOMENTUM} --tol:float --mark-delta-opt:flag",
    "bloch": f"--n:int... {_SPREADS} {_MOMENTUM}",
    "asympt": "--n-min:int --n-max:int --n-step:int --spread-rule:str --nodes-p-radial:int "
              "--p-cutoff-sigmas:float --tol:float",
    "reference": "--n:int...",
    "validate": "",
}
_RULES = ["plus-r", "minus-r", "best-of-axis", "plus_r", "minus_r", "best_of_axis"]


def test_cli_surface_and_defaults_stay_put():
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(_SURFACE)
    for command, sub in subs.choices.items():
        actions = sub._actions[1:]  # after --help
        words = []
        for a in actions:
            kind = "flag" if a.const is True else getattr(a.type, "__name__", "str")
            repeat = "..." if isinstance(a, argparse._AppendAction) else ""
            words.append(f"{a.option_strings[0]}:{kind}{repeat}")
        assert " ".join(words) == f"{_SURFACE[command]} {_OUTPUT}".strip()
        choices = {a.option_strings[0]: a.choices for a in actions if a.choices}
        expected = {"--format": ["csv", "json"]}
        if command in ("sweep", "optimize"):
            expected["--guess-rule"] = _RULES
        if command == "asympt":
            expected["--spread-rule"] = ["formula", "optimize"]
        assert choices == expected
        # A flag left out defers to the config file, so no setting defaults in the parser.
        assert all(a.default is None for a in actions if a.dest != "format")
        assert sub.get_default("format") == ("json" if command in ("optimize", "reference", "validate")
                                             else "csv")

    # The CLI's defaults, echoed in every table, are the library's own.
    def default(command, flag):
        return next(d for f, _, d, _ in cli._COMMANDS[command][2] if f == flag)

    def library(function, name):
        return inspect.signature(function).parameters[name].default

    for command in ("sweep", "optimize"):
        assert default(command, "--nodes-r") == library(estimation.average_fidelity, "nodes_r")
        assert default(command, "--nodes-theta") == library(estimation.average_fidelity, "nodes_theta")
        assert default(command, "--tol") == library(estimation.average_fidelity, "tolerance")
        assert default(command, "--guess-rule") == library(estimation.average_fidelity, "rule").value
    assert default("disturbance", "--tol") == library(disturbance.disturbance_exact, "tolerance")
    assert default("asympt", "--tol") == library(asymptotics.epsilon_curve, "tolerance")
    assert default("asympt", "--spread-rule") == library(asymptotics.epsilon_curve, "spread_rule")


def test_public_surface_stays_put():
    # The library's twin of the CLI test above: a removed name stays gone,
    # and a new export or grid option is a deliberate edit here.
    assert sorted(spinpointer.__all__) == [
        "AmplitudeField", "BlochReport", "CapabilityError", "CollectiveOperators", "ConvergenceError",
        "ConvergenceReport", "DickeVector", "Direction", "DisturbancePoint", "DomainError", "FidelityPoint",
        "GuessRule", "LowerBoundPoint", "MomentumQuadrature", "NumericError", "OptimizeResult", "OutcomeGrid",
        "PointerModel", "QuadratureCounts", "Rule1D", "adaptive_outcome_grid", "asymptotics",
        "average_fidelity", "bloch_post_numeric", "bloch_z_post_closed", "build_amplitude_field",
        "build_outcome_grid", "coherent_dicke", "collective_operators", "delta_opt_formula",
        "diag_radial_profile", "dicke_expand", "direction_from_angles", "disturbance", "disturbance_exact",
        "disturbance_lowest_order", "disturbance_oracle_full", "disturbance_series_copt", "epsilon_curve",
        "errors", "estimation", "fidelity_lower_bound", "find_delta_opt", "full_tensor_rotation_oracle",
        "gauss_legendre", "hemisphere_masses", "min_disturbance", "momentum_profile", "optimal_fidelity",
        "optimal_scaling", "pointer", "position_amplitudes", "quadrature", "rotated_up_amplitudes", "score",
        "spincore", "strong_coupling_limit", "su2_rotation",
    ]

    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(spinpointer.build_outcome_grid) == ["r_max", "nodes_r", "nodes_theta"]
    assert parameters(spinpointer.adaptive_outcome_grid) == ["n_spins", "model", "nodes_r", "nodes_theta", "quad"]
    assert parameters(spinpointer.hemisphere_masses) == ["n_spins", "model"]


@pytest.mark.parametrize(
    "key, value", [("out", "elsewhere.csv"), ("format", "csv"), ("workers", 1),
                   ("config", "other.json")],
)
def test_output_flags_are_not_config_keys(key, value, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n": [1], key: value}))
    code, out, err = run_cli(["reference", "--config", str(cfg_path)], capsys)
    assert (code, out) == (2, "")
    assert "unknown config key" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_flags_win_over_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": [1], "delta": [0.4, 0.9],
                                    "nodes_r": 48, "nodes_theta": 32}))
    code, out, _ = run_cli(["sweep", "--config", str(cfg_path), "--delta", "0.3"], capsys)
    assert code == 0
    config, _, rows = parse_csv(out)
    assert config["delta"] == [0.3]
    assert len(rows) == 1


def test_range_flag_overrides_config_list(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": [1], "delta": [0.4],
                                    "nodes_r": 48, "nodes_theta": 32}))
    code, out, _ = run_cli(
        ["sweep", "--config", str(cfg_path), "--delta-min", "0.5",
         "--delta-max", "0.7", "--delta-steps", "2"],
        capsys,
    )
    assert code == 0
    config, _, rows = parse_csv(out)
    assert config["delta"] == [0.5, 0.7]
    assert len(rows) == 2


def test_invalid_configs_exit_two(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"n": [1], "delta": [0.5], "bogus": 1}))
    assert cli.main(["sweep", "--config", str(bad_key)]) == 2

    empty_delta = tmp_path / "empty.json"
    empty_delta.write_text(json.dumps({"n": [1], "delta": []}))
    assert cli.main(["sweep", "--config", str(empty_delta)]) == 2

    wrong_cmd = tmp_path / "wrong.json"
    wrong_cmd.write_text(json.dumps({"command": "sweep", "n": [1], "delta": [0.5]}))
    assert cli.main(["bloch", "--config", str(wrong_cmd)]) == 2

    assert cli.main(["sweep", "--delta", "0.5"]) == 2  # no n
    assert cli.main(["sweep", "--n", "1"]) == 2  # no delta
    assert cli.main(["sweep", "--n", "0", "--delta", "0.5"]) == 2
    assert cli.main(["sweep", "--n", "1", "--delta", "-0.5"]) == 2
    assert cli.main(["sweep", "--n", "1", "--delta", "0.5",
                     "--delta-min", "0.1", "--delta-max", "1.0",
                     "--delta-steps", "3"]) == 2
    assert cli.main(["sweep", "--n", "1", "--delta-min", "0.1",
                     "--delta-max", "1.0", "--delta-steps", "0"]) == 2
    assert cli.main(["asympt", "--n-min", "0", "--n-max", "4"]) == 2
    assert cli.main(["optimize", "--n", "2", "--delta-min", "0.9",
                     "--delta-max", "0.2"]) == 2
    # Zero, negative and non-finite settings are rejected, not replaced by defaults.
    assert cli.main(["sweep", "--n", "1", "--delta", "0.5", "--tol", "0"]) == 2
    assert cli.main(["sweep", "--n", "1", "--delta", "0.5", "--tol", "nan"]) == 2
    assert cli.main(["sweep", "--n", "1", "--delta", "inf"]) == 2
    assert cli.main(["sweep", "--n", "1", "--delta", "1e-310"]) == 2  # outside SPREAD_RANGE
    assert cli.main(["disturbance", "--n", "1", "--delta", "0.5",
                     "--p-cutoff-sigmas", "0"]) == 2
    assert cli.main(["sweep", "--n", "1", "--delta", "0.5", "--nodes-r", "-5"]) == 2
    assert cli.main(["sweep", "--n", "1", "--delta", "0.5", "--nodes-theta", "0"]) == 2
    assert cli.main(["optimize", "--n", "2", "--delta-min", "0"]) == 2
    assert cli.main(["asympt", "--n-min", "1", "--n-max", "4", "--n-step", "0"]) == 2
    capsys.readouterr()
    # Values of the wrong type in a config file are refused, not coerced:
    # a list for one size, text for a number, a boolean for a spread.
    bad_values = [
        ("optimize", {"n": [2]}),
        ("optimize", {"n": 2, "tol": "abc"}),
        ("reference", {"n": "2"}),
        ("sweep", {"n": [1], "delta": [0.5], "nodes_r": "48"}),
        ("sweep", {"n": ["x"], "delta": [0.5]}),
        ("disturbance", {"n": 2, "delta": [True]}),
        ("disturbance", {"n": 2, "delta": [0.5], "mark_delta_opt": "no"}),
        ("sweep", {"n": 2.5, "delta": [0.5]}),
        # A spread list must be strictly increasing on every command.
        ("disturbance", {"n": [1, 2], "delta": [1.0, 0.5], "mark_delta_opt": True}),
        ("disturbance", {"n": 1, "delta": [0.5, 0.5]}),
        ("bloch", {"n": 1, "delta": [1.0, 0.5]}),
        ("bloch", {"n": 1, "delta": [1.0, 1.0]}),
    ]
    unordered_flags = [
        ["disturbance", "--n", "1", "--n", "2", "--delta", "1", "--delta", "0.5",
         "--mark-delta-opt"],
        ["disturbance", "--n", "1", "--delta", "0.5", "--delta", "0.5"],
        ["bloch", "--n", "1", "--delta", "1", "--delta", "0.5"],
        ["bloch", "--n", "1", "--delta", "1", "--delta", "1"],
    ]
    for args in unordered_flags:
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "strictly increasing" in captured.err
    for i, (command, settings) in enumerate(bad_values):
        path = tmp_path / f"bad_value_{i}.json"
        path.write_text(json.dumps(settings))
        assert cli.main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_unconverged_sweep_exits_three(capsys):
    code, out, err = run_cli(
        ["sweep", "--n", "2", "--delta", "0.05",
         "--nodes-p-radial", "6"],
        capsys,
    )
    assert code == 3
    _, columns, rows = parse_csv(out)
    assert rows == []  # header still written, no converged points
    assert "failed" in err


def test_partial_tables_keep_converged_rows_and_list_failures(capsys):
    # A point that fails its convergence check leaves no row; the other
    # points keep theirs, and each failure is one stderr line.
    cases = [
        (["sweep", "--n", "2", "--delta", "0.05", "--delta", "5", "--nodes-p-radial", "6"], "5"),
        (["disturbance", "--n", "2", "--delta", "0.05", "--delta", "2", "--nodes-p-radial", "6",
          "--tol", "0.01"], "2"),
    ]
    for args, kept in cases:
        code, out, err = run_cli(args, capsys)
        assert code == 3
        _, _, rows = parse_csv(out)
        assert [row[:2] for row in rows] == [["2", kept]]
        failure, = err.splitlines()
        assert failure.startswith(f"{args[0]} point failed: n=2 delta=0.05: ")
        assert "refinement moved by" in failure


def test_disturbance_csv_and_marker(capsys):
    code, out, _ = run_cli(
        ["disturbance", "--n", "2", "--delta", "0.3", "--delta", "0.8",
         "--mark-delta-opt"],
        capsys,
    )
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert columns == ["n_spins", "delta", "d_exact", "d_lowest_order",
                       "d_min", "err_estimate"]
    assert config["mark_delta_opt"] is True
    spreads = [float(row[1]) for row in rows]
    assert spreads == [0.3, 0.5, 0.8]
    marker = rows[1]
    assert float(marker[3]) == pytest.approx(0.5, abs=1e-14)
    assert all(float(row[4]) == pytest.approx(0.6, abs=1e-15) for row in rows)


def test_bloch_csv(capsys):
    code, out, _ = run_cli(["bloch", "--n", "2", "--delta", "0.5"], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["n_spins", "delta", "sz_initial", "sz_post_closed",
                       "sz_post_numeric", "sx_post", "sy_post"]
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-15)
    assert float(rows[0][3]) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_optimize_json(capsys):
    code, out, _ = run_cli(
        ["optimize", "--n", "1", "--delta-min", "0.3", "--delta-max", "0.9",
         "--nodes-r", "48", "--nodes-theta", "32"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    record = doc["result"]
    assert set(record) == {"n_spins", "delta_opt", "f_max", "f_opt", "gap",
                           "boundary_flag"}
    assert record["boundary_flag"] is False
    assert record["delta_opt"] == pytest.approx(0.475, abs=0.06)
    assert record["f_opt"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert record["gap"] == pytest.approx(record["f_opt"] - record["f_max"], abs=1e-15)


def test_asympt_csv(capsys):
    code, out, _ = run_cli(
        ["asympt", "--n-min", "2", "--n-max", "6", "--n-step", "2"], capsys
    )
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert columns == ["n_spins", "delta_used", "f_lower", "epsilon_n",
                       "optimal_scaling"]
    assert [row[0] for row in rows] == ["2", "4", "6"]
    for row in rows:
        n = int(row[0])
        assert float(row[1]) == pytest.approx(math.sqrt(n / 8.0), abs=1e-14)
        assert float(row[4]) == pytest.approx(n / (n + 2.0), abs=1e-14)
        assert 0.0 < float(row[2]) < 1.0


def test_validate_exit_codes(capsys, monkeypatch):
    healthy = [CheckResult("alpha", True, 0.0, 1.0, "ok"),
               CheckResult("beta", True, 0.5, 1.0, "ok")]
    monkeypatch.setattr(cli.validate_mod, "run_checks", lambda: healthy)
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert [c["name"] for c in doc["checks"]] == ["alpha", "beta"]

    broken = healthy + [CheckResult("gamma", False, 2.0, 1.0, "off")]
    monkeypatch.setattr(cli.validate_mod, "run_checks", lambda: broken)
    code, out, _ = run_cli(["validate", "--format", "csv"], capsys)
    assert code == 1
    _, columns, rows = parse_csv(out)
    assert columns == ["name", "passed", "measured", "threshold", "detail"]
    assert rows[-1][1] == "false"


def test_validate_csv_quotes_cells_holding_commas_and_quotes(capsys, monkeypatch):
    detail = 'n <= 10, spread in {0.3, 1, 3}; "wide" spreads'
    checks = [CheckResult("alpha", True, 0.0, 1.0, "ok"),
              CheckResult("beta", True, 0.5, 1.0, detail)]
    monkeypatch.setattr(cli.validate_mod, "run_checks", lambda: checks)
    code, out, _ = run_cli(["validate", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()[2:]))
    assert rows[0] == ["name", "passed", "measured", "threshold", "detail"]
    assert all(len(row) == 5 for row in rows)
    assert [row[4] for row in rows[1:]] == ["ok", detail]


def test_out_file_silences_stdout(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        ["reference", "--n", "1", "--format", "csv", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# schema=1\n")


def test_float_cells_use_full_precision(capsys):
    code, out, _ = run_cli(["reference", "--n", "3", "--format", "csv"], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    cell = rows[0][columns.index("delta_opt_formula")]
    assert cell == "%.17g" % math.sqrt(3.0 / 8.0)
    assert float(cell) == math.sqrt(3.0 / 8.0)
