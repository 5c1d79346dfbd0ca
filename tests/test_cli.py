"""Command line contract: schema, reproducibility, exit codes."""
import json
import math

import pytest

from spinpointer import cli
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
                       "err_estimate", "nodes_r", "nodes_theta", "nodes_p_radial",
                       "nodes_p_polar", "nodes_p_azimuthal"]
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


def test_byte_identity_across_runs_and_workers(tmp_path, capsys, monkeypatch):
    base = ["sweep", "--n", "1", "--delta", "0.4", "--delta", "0.7",
            "--nodes-r", "48", "--nodes-theta", "32"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv", "d.csv")]
    assert cli.main(base + ["--out", str(paths[0])]) == 0
    assert cli.main(base + ["--out", str(paths[1])]) == 0
    assert cli.main(base + ["--workers", "2", "--out", str(paths[2])]) == 0
    monkeypatch.setenv("SPINPOINTER_WORKERS", "3")
    assert cli.main(base + ["--out", str(paths[3])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    assert b"\r" not in blobs[0]
    capsys.readouterr()


def test_config_round_trip(tmp_path, capsys):
    first = tmp_path / "first.csv"
    assert cli.main(["sweep", "--n", "1", "--delta", "0.5", "--nodes-r", "48",
                     "--nodes-theta", "32", "--out", str(first)]) == 0
    header = first.read_text().splitlines()[1]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(header[len("# config="):])
    second = tmp_path / "second.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


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
        ("sweep", {"n": ["x"], "delta": [0.5]}),
        ("disturbance", {"n": 2, "delta": [True]}),
        ("disturbance", {"n": 2, "delta": [0.5], "mark_delta_opt": "no"}),
        ("sweep", {"n": 2.5, "delta": [0.5]}),
    ]
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
         "--nodes-p-radial", "6", "--nodes-p-polar", "6"],
        capsys,
    )
    assert code == 3
    _, columns, rows = parse_csv(out)
    assert rows == []  # header still written, no converged points
    assert "failed" in err


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
    monkeypatch.setattr(cli.validate_mod, "run_checks", lambda workers=1: healthy)
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert [c["name"] for c in doc["checks"]] == ["alpha", "beta"]

    broken = healthy + [CheckResult("gamma", False, 2.0, 1.0, "off")]
    monkeypatch.setattr(cli.validate_mod, "run_checks", lambda workers=1: broken)
    code, out, _ = run_cli(["validate", "--format", "csv"], capsys)
    assert code == 1
    _, columns, rows = parse_csv(out)
    assert columns == ["name", "passed", "measured", "threshold", "detail"]
    assert rows[-1][1] == "false"


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
