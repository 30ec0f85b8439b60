import json
import math

import numpy as np
import pytest

from pdcbell import cli
from pdcbell.bell import OPTIMAL_SETTINGS
from pdcbell.errors import InputError, ModelError
from pdcbell.lhv import LhvModel, N_STRATEGIES, synthesize_tables, tables_to_json_dict

SQRT2 = math.sqrt(2.0)

OPTIMAL_FLAG = "0deg,45deg,112.5deg,67.5deg"


def run_cli(*argv):
    return cli.main(list(argv))


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "pdcbell", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout.startswith("pdcbell ")


def test_parse_angle_suffixes():
    assert cli.parse_angle("45deg") == pytest.approx(math.pi / 4)
    assert cli.parse_angle("0.5rad") == pytest.approx(0.5)
    assert cli.parse_angle(" 90DEG ") == pytest.approx(math.pi / 2)
    for bad in ("1.0", "45", "deg", "45degs"):
        with pytest.raises(InputError):
            cli.parse_angle(bad)


def test_state_command(capsys):
    assert run_cli("state") == 0
    out = capsys.readouterr().out
    assert "1x|1y" in out and "+0.500000 +0.000000j" in out
    assert "favorable weight:   0.500000" in out
    assert "unfavorable weight: 0.500000" in out


def test_table_command(capsys):
    assert run_cli("table", "--xi", "0deg", "--eta", "0deg") == 0
    data = json.loads(capsys.readouterr().out)
    probs = np.array(data["probs"]).reshape(6, 6)
    assert probs[1, 0] == pytest.approx(0.25, abs=1e-12)
    assert probs[0, 1] == pytest.approx(0.25, abs=1e-12)


def test_table_command_pure_vacuum(capsys):
    assert run_cli("table", "--xi", "10deg", "--eta", "20deg", "--p-pair", "0") == 0
    data = json.loads(capsys.readouterr().out)
    probs = np.array(data["probs"]).reshape(6, 6)
    assert probs[2, 2] == 1.0


def test_table_command_bad_angle_exits_2(capsys):
    assert run_cli("table", "--xi", "0", "--eta", "0deg") == 2
    assert "suffix" in capsys.readouterr().err


def test_chsh_command_optimal(capsys):
    assert run_cli("chsh", "--settings", OPTIMAL_FLAG) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total"] == pytest.approx(1 + SQRT2, abs=1e-9)
    assert data["favorable_part"] == pytest.approx(2 * SQRT2, abs=1e-9)


def test_chsh_command_diluted(capsys):
    assert run_cli("chsh", "--settings", OPTIMAL_FLAG, "--p-pair", "0.01") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total"] == pytest.approx(2 + 0.01 * (SQRT2 - 1), abs=1e-9)


def test_chsh_command_equal_settings(capsys):
    assert run_cli("chsh", "--settings", "30deg,30deg,30deg,30deg") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total"] == pytest.approx(0.0, abs=1e-12)


def test_chsh_command_wrong_arity(capsys):
    assert run_cli("chsh", "--settings", "0deg,45deg") == 2


def test_optimize_command(capsys):
    assert run_cli("optimize") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == pytest.approx(1 + SQRT2, abs=1e-6)
    assert len(data["settings_rad"]) == 4


def test_lhv_check_quantum_tables(tmp_path, capsys, quantum_tables):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables_to_json_dict(quantum_tables)))
    assert run_cli("lhv-check", "--input", str(path)) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] is False
    assert data["certificate"]["gap"] > 0


def test_lhv_check_local_tables(tmp_path, capsys):
    rng = np.random.default_rng(60)
    weights = rng.random(N_STRATEGIES)
    tables = synthesize_tables(LhvModel(weights / weights.sum()), OPTIMAL_SETTINGS)
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables_to_json_dict(tables)))
    assert run_cli("lhv-check", "--input", str(path)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] is True


def test_lhv_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli("lhv-check", "--input", str(path)) == 2
    path.write_text(json.dumps({"tables": []}))
    assert run_cli("lhv-check", "--input", str(path)) == 2
    assert run_cli("lhv-check", "--input", str(tmp_path / "missing.json")) == 2


def test_lhv_check_nan_cell_exits_2(tmp_path, capsys, quantum_tables):
    data = tables_to_json_dict(quantum_tables)
    data["tables"][1]["probs"][7] = math.nan
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(data))
    assert run_cli("lhv-check", "--input", str(path)) == 2
    assert "NaN" in capsys.readouterr().err


def _write_config(path, **overrides):
    payload = {
        "T": 1e-5,
        "tau": 1e-8,
        "p_pair": 0.05,
        "settings_rad": list(OPTIMAL_SETTINGS.as_radians()),
        "seed": 99,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))


def test_simulate_is_deterministic(tmp_path):
    config = tmp_path / "run.json"
    _write_config(config)
    out_one, out_two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run_cli("simulate", "--config", str(config), "--out", str(out_one)) == 0
    assert run_cli("simulate", "--config", str(config), "--out", str(out_two)) == 0
    assert out_one.read_bytes() == out_two.read_bytes()


def test_simulate_seed_override(tmp_path):
    config = tmp_path / "run.json"
    _write_config(config)
    out_one, out_two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run_cli("simulate", "--config", str(config), "--out", str(out_one), "--seed", "7") == 0
    assert run_cli("simulate", "--config", str(config), "--out", str(out_two)) == 0
    assert out_one.read_bytes() != out_two.read_bytes()


def test_simulate_invalid_config_exits_2(tmp_path):
    config = tmp_path / "run.json"
    _write_config(config, tau=1e-8, L=1.0)
    assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize("overrides", [{"T": math.nan}, {"tau": math.inf}, {"L": math.nan}])
def test_simulate_non_finite_config_exits_2(tmp_path, capsys, overrides):
    config = tmp_path / "run.json"
    _write_config(config, **overrides)
    assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")) == 2
    assert "is not finite" in capsys.readouterr().err


def test_analyze_vacuum_log(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_config(config, p_pair=0.0)
    events = tmp_path / "events.csv"
    assert run_cli("simulate", "--config", str(config), "--out", str(events)) == 0
    assert run_cli("analyze", "--input", str(events)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chsh"] == 2.0
    assert data["chsh_stderr"] == 0.0
    assert data["n_vacuum"] == data["n_bins"]


def test_analyze_echoes_settings(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_config(config)
    events = tmp_path / "events.csv"
    run_cli("simulate", "--config", str(config), "--out", str(events))
    assert run_cli("analyze", "--input", str(events), "--settings", OPTIMAL_FLAG) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["settings_rad"] == pytest.approx(list(OPTIMAL_SETTINGS.as_radians()))


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    events = tmp_path / "none.csv"
    assert run_cli("analyze", "--input", str(events)) == 2


@pytest.mark.parametrize("row", ["2,0,0,300,3", "2,0,0,3,3,3", "2,2,0,3,3", ""])
def test_analyze_malformed_log_exits_2(tmp_path, capsys, row):
    events = tmp_path / "events.csv"
    lines = ["bin,setting1,setting2,outcome1,outcome2", "1,0,0,3,3", row, "3,1,1,1,2"]
    events.write_text("\n".join(lines) + "\n")
    assert run_cli("analyze", "--input", str(events)) == 2
    assert "line 3: malformed row" in capsys.readouterr().err


def test_simulate_then_analyze_resolves_violation(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_config(config, T=4e-3, p_pair=0.01, seed=20240817)
    events = tmp_path / "events.csv"
    assert run_cli("simulate", "--config", str(config), "--out", str(events)) == 0
    assert run_cli("analyze", "--input", str(events)) == 0
    data = json.loads(capsys.readouterr().out)
    expected = 2 + 0.01 * (SQRT2 - 1)
    assert abs(data["chsh"] - expected) <= 3 * data["chsh_stderr"]
    assert data["chsh"] - 2.0 >= 3 * data["chsh_stderr"]


def test_out_dir_environment_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert run_cli("table", "--xi", "0deg", "--eta", "0deg", "--out", "table.json") == 0
    written = json.loads((tmp_path / "table.json").read_text())
    assert len(written["probs"]) == 36
    # absolute paths ignore the environment variable
    target = tmp_path / "abs.json"
    assert run_cli("table", "--xi", "0deg", "--eta", "0deg", "--out", str(target)) == 0
    assert target.exists()


def test_internal_invariant_maps_to_exit_4(monkeypatch, capsys):
    def boom(args):
        raise ModelError("synthetic failure")

    monkeypatch.setattr(cli, "cmd_state", boom)
    parser = cli.build_parser()
    args = parser.parse_args(["state"])
    monkeypatch.setattr(args, "func", boom, raising=False)
    # go through main's dispatch wrapper
    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", lambda self, argv=None: args)
    assert cli.main(["state"]) == 4
    assert "synthetic failure" in capsys.readouterr().err
