import json
import os
from dataclasses import replace

import pytest

import olcontrol.harness
import olcontrol.system as system_mod
from olcontrol.cli import cli_main


@pytest.fixture()
def tiny_config_path(tmp_path):
    doc = {
        "seed": 3,
        "T": 12,
        "n_runs": 2,
        "u_box": {"lower": [-5.0, -5.0], "upper": [5.0, 5.0]},
        "w_box": {"lower": [-0.5, -0.5, -0.5], "upper": [0.5, 0.5, 0.5]},
        "dac": {"H_mem": 4},
        "output_dir": str(tmp_path / "results"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestCheck:
    def test_prints_certificate(self, tiny_config_path, capsys):
        assert cli_main(["check", "--config", str(tiny_config_path)]) == 0
        out = capsys.readouterr().out
        assert "spectral radius estimate: 0.333333" in out
        assert "gamma: 0.633333" in out
        assert "kappa: 1.000000" in out
        assert "state bound D" in out and "eta" in out

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = cli_main(["check", "--config", str(tmp_path / "missing.json")])
        assert code == 1
        assert "missing.json" in capsys.readouterr().err


class TestRun:
    def test_writes_csvs(self, tiny_config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(tiny_config_path), "--out", str(out_dir)]) == 0
        lines = (out_dir / "run_0.csv").read_text().splitlines()
        assert lines[0].startswith("t,cost_olc,cost_dac")
        assert len(lines) == 1 + 12
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "benchmarks.csv").exists()

    def test_overrides(self, tiny_config_path, tmp_path):
        out_dir = tmp_path / "out2"
        assert cli_main([
            "run", "--config", str(tiny_config_path),
            "--out", str(out_dir), "--horizon", "8", "--runs", "1", "--seed", "9",
        ]) == 0
        lines = (out_dir / "run_0.csv").read_text().splitlines()
        assert len(lines) == 1 + 8
        assert not (out_dir / "run_1.csv").exists()

    def test_byte_identical_with_same_seed(self, tiny_config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", str(tiny_config_path), "--out", str(a)]) == 0
        assert cli_main(["run", "--config", str(tiny_config_path), "--out", str(b)]) == 0
        for name in ("run_0.csv", "run_1.csv", "summary.csv", "benchmarks.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_config_value_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"T": 1}))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        '"olc": {"eta_override": 0}',
        '"dac": {"eta_g": -0.5}',
        '"dac": {"radius": 0}',
        '"cost_gen": {"q_scale": NaN}',
        '"x1": [0, NaN, 0]',
        '"disturbances_on": "false"',
    ])
    def test_bad_value_exits_one_without_files(self, bad, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"T": 5, "n_runs": 1, %s}' % bad)
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_unusable_out_exits_one_without_files(self, where, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out_dir = blocker if where == "a file" else blocker / "out"
        path = tmp_path / "cfg.json"
        path.write_text('{"T": 5, "n_runs": 1}')
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json"]
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
    def test_unreadable_config_exits_one_without_files(self, unreadable, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes('{"output_dir": "r\u00e9sultats"}'.encode("latin-1"))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and str(path) in err
        assert not out_dir.exists()

    def test_zero_input_matrix_exits_one_without_files(self, tmp_path, capsys):
        path = tmp_path / "b0.json"
        path.write_text(json.dumps({"T": 20, "n_runs": 1, "system": {"A": [[0.5]], "B": [[0.0]]}}))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seed", "-3"], ["--runs", "0"], ["--horizon", "1"]])
    def test_bad_override_exits_one_without_files(self, flags, tiny_config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(tiny_config_path), "--out", str(out_dir), *flags]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out_dir.exists()
        assert not (tmp_path / "results").exists()

    def test_plant_certified_once(self, tiny_config_path, tmp_path, monkeypatch):
        calls = []
        certify = system_mod.certify_strong_stability

        def counting(a):
            calls.append(a)
            return certify(a)

        monkeypatch.setattr(system_mod, "certify_strong_stability", counting)
        out_dir = tmp_path / "out"
        argv = ["run", "--config", str(tiny_config_path), "--runs", "1", "--horizon", "20", "--out", str(out_dir)]
        assert cli_main(argv) == 0
        assert len(calls) == 1
        assert len((out_dir / "run_0.csv").read_text().splitlines()) == 1 + 20


class TestBench:
    def test_prints_values(self, tiny_config_path, capsys):
        assert cli_main(["bench", "--config", str(tiny_config_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0].startswith("run 0: bench_u=") and "bench_m=" in out[0]
        assert out[0].count("converged=True") == 2 and "iterations=" in out[0]
        assert capsys.readouterr().err == ""

    def test_plays_no_controller(self, tiny_config_path, monkeypatch, capsys):
        # bench solves the hindsight benchmarks only: it forks no child
        # and runs no round loop
        def refused(*args, **kwargs):
            raise AssertionError("bench played a controller")

        monkeypatch.setattr(os, "fork", refused, raising=False)
        monkeypatch.setattr(olcontrol.harness, "run_lockstep", refused)
        assert cli_main(["bench", "--config", str(tiny_config_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and out[1].startswith("run 1: bench_u=")


def force_unconverged(monkeypatch, solver: str) -> None:
    """Make the harness's batched hindsight pass report converged=False for
    every run's ``solver`` ("best_fixed_input" or "best_dac")."""
    index = ("best_fixed_input", "best_dac").index(solver)
    solve = olcontrol.harness.solve_benchmarks

    def flagged(*args, **kwargs):
        return [tuple(replace(res, converged=False) if i == index else res for i, res in enumerate(triple))
                for triple in solve(*args, **kwargs)]

    monkeypatch.setattr(olcontrol.harness, "solve_benchmarks", flagged)


class TestUnconvergedWarning:
    def test_bench_warns(self, tiny_config_path, monkeypatch, capsys):
        force_unconverged(monkeypatch, "best_fixed_input")
        assert cli_main(["bench", "--config", str(tiny_config_path)]) == 0
        captured = capsys.readouterr()
        assert "bench_u=" in captured.out and "converged=False" in captured.out
        warnings = captured.err.splitlines()
        assert len(warnings) == 2
        assert "run 0" in warnings[0] and "best_fixed_input" in warnings[0]
        assert "run 1" in warnings[1] and "best_fixed_input" in warnings[1]

    def test_run_warns_without_changing_csvs(self, tiny_config_path, tmp_path, monkeypatch, capsys):
        clean, flagged = tmp_path / "clean", tmp_path / "flagged"
        assert cli_main(["run", "--config", str(tiny_config_path), "--out", str(clean)]) == 0
        assert capsys.readouterr().err == ""
        force_unconverged(monkeypatch, "best_dac")
        assert cli_main(["run", "--config", str(tiny_config_path), "--out", str(flagged)]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 2 and all("best_dac" in w for w in warnings)
        assert "run 0" in warnings[0] and "run 1" in warnings[1]
        for name in ("run_0.csv", "run_1.csv", "summary.csv", "benchmarks.csv"):
            assert (clean / name).read_bytes() == (flagged / name).read_bytes()


class TestUsage:
    def test_unknown_flag_exits_one(self, tiny_config_path, capsys):
        assert cli_main(["run", "--config", str(tiny_config_path), "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command_exits_one(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert cli_main(["run"]) == 1
