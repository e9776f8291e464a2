"""Config parsing, experiment commands, output format, exit codes."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import sampledkf as sk
from sampledkf import cli
from sampledkf.cli import (_format_value, build_config, emit_plot_data, main,
                           parse_config_text)
from sampledkf.errors import ConfigError

CONVERGE_CFG = """\
# tiny convergence study
experiment = converge
model.kind = heat
model.num_modes = 4
model.horizon = 1.0
n_values = 2, 4
k_ref = 3
"""

SIMULATE_CFG = """\
experiment = simulate
model.kind = heat
model.num_modes = 3
model.horizon = 1.0
simulate_n = 4
trials = 50
seed = 3
"""


DEMO_CONFIGS = Path(sk.__file__).resolve().parents[2] / "demos" / "configs"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def data_lines(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


class TestParseConfigText:
    def test_comments_and_blanks_are_skipped(self):
        raw = parse_config_text(CONVERGE_CFG)
        assert raw["experiment"] == "converge"
        assert raw["n_values"] == "2, 4"
        assert "model.q_scalar" not in raw

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'frobnicate'"):
            parse_config_text("experiment = converge\nfrobnicate = 3\n")

    def test_duplicate_key_names_the_line(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key"):
            parse_config_text("experiment = converge\n\nexperiment = fit\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("experiment converge\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value for 'k_ref'"):
            parse_config_text("k_ref =\n")


class TestBuildConfig:
    def test_coercions(self):
        cfg = build_config(parse_config_text(
            "experiment = converge\nmodel.kind = heat\nmodel.num_modes = 4\n"
            "n_values = 2,4 8\ncheck_reference = 0\n"))
        assert cfg.values["n_values"] == (2, 4, 8)
        assert cfg.values["check_reference"] is False
        cfg = build_config(parse_config_text(
            "experiment = converge\nmodel.kind = heat\nmodel.num_modes = 4\n"
            "n_values = 2\ncheck_reference = yes\n"))
        assert cfg.values["check_reference"] is True

    @pytest.mark.parametrize("value, text", [
        (True, "true"), (np.bool_(False), "false"), ((2, 4, 8), "2,4,8"),
        (0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.5), "0.5"), (3, "3"), (np.int64(3), "3"), ("heat", "heat")])
    def test_one_spelling_for_headers_and_cells(self, value, text):
        assert _format_value(value) == text

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="check_reference: expected true/false"):
            build_config({"experiment": "converge", "model.kind": "heat",
                          "model.num_modes": "4", "n_values": "2",
                          "check_reference": "maybe"})

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="expected one of heat, wave"):
            build_config({"experiment": "converge", "model.kind": "plasma",
                          "model.num_modes": "4", "n_values": "2"})

    def test_required_keys_per_experiment(self):
        base = {"experiment": "converge", "model.kind": "heat",
                "model.num_modes": "4"}
        with pytest.raises(ConfigError, match="n_values: required for experiment"):
            build_config(base)
        with pytest.raises(ConfigError, match="theorems: required for experiment"):
            build_config({**base, "experiment": "bounds", "n_values": "2"})

    def test_positive_sample_counts(self):
        with pytest.raises(ConfigError, match="entries must be positive integers"):
            build_config({"experiment": "converge", "model.kind": "heat",
                          "model.num_modes": "4", "n_values": "0, 4"})

    # every rejection of build_config, by the key its message names
    @pytest.mark.parametrize("experiment, extra, message", [
        pytest.param(None, {}, "experiment: required key is missing",
                     id="missing-experiment"),
        pytest.param("converge", {"model.kind": None},
                     "model.kind: required key is missing",
                     id="missing-model.kind"),
        pytest.param("converge", {"n_values": "2", "k_ref": "0"},
                     "k_ref: must be at least 1", id="k_ref"),
        pytest.param("bounds", {"n_values": "2", "theorems": "2, 6"},
                     r"theorems: invalid variant\(s\) \[6\]", id="theorems"),
        pytest.param("bounds", {"n_values": "2", "theorems": "1"},
                     "gamma: required when theorems includes 1", id="gamma"),
        pytest.param("bounds", {"n_values": "2", "theorems": "4", "eta": "1"},
                     "nu: required when theorems includes 4", id="nu"),
        pytest.param("bounds", {"n_values": "2", "theorems": "4", "nu": "0.8"},
                     "eta: required when theorems includes 4", id="eta"),
        # variants are checked in ascending order, whatever order they are
        # listed in
        pytest.param("bounds", {"n_values": "2", "theorems": "4, 1"},
                     "gamma: required when theorems includes 1",
                     id="gamma-before-nu"),
        pytest.param("telescope", {"telescope_levels": "2"},
                     "telescope_n: required for experiment 'telescope'",
                     id="telescope_n-missing"),
        pytest.param("telescope", {"telescope_n": "4"},
                     "telescope_levels: required for experiment 'telescope'",
                     id="telescope_levels-missing"),
        pytest.param("telescope", {"telescope_n": "0", "telescope_levels": "2"},
                     "telescope_n: must be at least 1", id="telescope_n-small"),
        pytest.param("telescope", {"telescope_n": "4", "telescope_levels": "0"},
                     "telescope_levels: must be at least 1",
                     id="telescope_levels-small"),
        pytest.param("levelsum", {"levelsum_levels": "2"},
                     "levelsum_n: required for experiment 'levelsum'",
                     id="levelsum_n-missing"),
        pytest.param("levelsum", {"levelsum_n": "4"},
                     "levelsum_levels: required for experiment 'levelsum'",
                     id="levelsum_levels-missing"),
        pytest.param("levelsum", {"levelsum_n": "0", "levelsum_levels": "2"},
                     "levelsum_n: must be at least 1", id="levelsum_n-small"),
        pytest.param("levelsum", {"levelsum_n": "4", "levelsum_levels": "0"},
                     "levelsum_levels: must be at least 1",
                     id="levelsum_levels-small"),
        pytest.param("levelsum", {"levelsum_n": "4", "levelsum_levels": "2",
                                  "levelsum_weights": "fractional"},
                     "levelsum_weight_power: required for fractional weights",
                     id="levelsum_weight_power"),
        pytest.param("simulate", {"trials": "50"},
                     "simulate_n: required for experiment 'simulate'",
                     id="simulate_n-missing"),
        pytest.param("simulate", {"simulate_n": "4"},
                     "trials: required for experiment 'simulate'",
                     id="trials-missing"),
        pytest.param("simulate", {"simulate_n": "0", "trials": "50"},
                     "simulate_n: must be at least 1", id="simulate_n-small"),
        pytest.param("simulate", {"simulate_n": "4", "trials": "1"},
                     "trials: must be at least 2", id="trials-small"),
        # one float64 error a trial, at most 2**31 of them
        pytest.param("simulate", {"simulate_n": "4",
                                  "trials": str(2 ** 31 + 1)},
                     r"^trials: must be at most 2\*\*31", id="trials-large"),
        # 1024 x (4 + 6 n + 5) normals in one trial block, at most 2**31:
        # the initial state, n steps of N + 1 process and 1 measurement
        # normals, and a tail of N + 1
        pytest.param("simulate", {"simulate_n": "349524", "trials": "50"},
                     "^simulate_n: 349524 samples of a 4-mode model need up "
                     "to 2147484672 normals", id="simulate_n-large"),
        # 4 * 2**21 points of 4 modes in the deepest level, at most 2**24
        pytest.param("telescope", {"telescope_n": "4",
                                   "telescope_levels": "22"},
                     "^telescope_levels: 22 levels over 4 base points of "
                     "a 4-mode model", id="telescope_levels-large"),
        # a grid of 4 * 2**52 points, at most 2**53
        pytest.param("levelsum", {"levelsum_n": "4", "levelsum_levels": "52"},
                     r"^levelsum_levels: 52 levels over 4 base points need "
                     r"4 \* 2\*\*52 grid points; at most 2\*\*53",
                     id="levelsum_levels-large"),
    ] + [
        # only converge and bounds write plot data
        pytest.param(experiment, {"plot_out": "plot.txt"},
                     f"^plot_out: experiment '{experiment}' writes no plot data",
                     id=f"plot_out-{experiment}")
        for experiment in ("fit", "telescope", "levelsum", "simulate")
    ])
    def test_rejection_names_the_key(self, experiment, extra, message):
        raw = {"experiment": experiment, "model.kind": "heat",
               "model.num_modes": "4", **extra}
        with pytest.raises(ConfigError, match=message):
            build_config({k: v for k, v in raw.items() if v is not None})

    def test_largest_simulate_grid_is_accepted(self):
        # 1024 x (4 + 349523 x 6 + 5) = 2**31 - 5120 normals in one trial block
        config = build_config({"experiment": "simulate", "model.kind": "heat",
                               "model.num_modes": "4", "simulate_n": "349523",
                               "trials": "50"})
        assert config.values["simulate_n"] == 349523

    def test_most_trials_are_accepted(self):
        # the config is only validated, never run
        config = build_config({"experiment": "simulate", "model.kind": "heat",
                               "model.num_modes": "4", "simulate_n": "4",
                               "trials": str(2 ** 31)})
        assert config.values["trials"] == 2 ** 31

    @pytest.mark.parametrize("experiment, levels", [
        # 4 * 2**20 points of 4 modes in the deepest level: exactly 2**24
        pytest.param("telescope", 21, id="telescope"),
        # a grid of 4 * 2**51 points: exactly 2**53
        pytest.param("levelsum", 51, id="levelsum"),
    ])
    def test_largest_level_count_is_accepted(self, experiment, levels):
        # the config is only validated, never run
        config = build_config({"experiment": experiment, "model.kind": "heat",
                               "model.num_modes": "4",
                               f"{experiment}_n": "4",
                               f"{experiment}_levels": str(levels)})
        assert config.values[f"{experiment}_levels"] == levels


class TestConvergeCommand:
    def test_csv_layout(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONVERGE_CFG)
        out = tmp_path / "run.csv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "elapsed " in err

        text = out.read_text()
        head = text.splitlines()
        assert head[0] == f"# sampledkf {sk.__version__}"
        assert head[1] == "# config:"
        commented = [l for l in head[2:] if l.startswith("# ")]
        assert commented == sorted(commented)
        assert not any(l.startswith("# out") for l in head)

        cols, rows = data_lines(out)
        assert cols == ["model", "n", "K_ref", "trace_n", "trace_ref",
                        "discrepancy"]
        assert [r[1] for r in rows] == ["2", "4"]
        for r in rows:
            npt.assert_allclose(float(r[5]), float(r[3]) - float(r[4]),
                                rtol=1e-12)
            assert float(r[5]) > 0

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONVERGE_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["converge", "--config", cfg, "--out", str(out1)])
        main(["converge", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONVERGE_CFG)
        assert main(["converge", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "discrepancy" in captured.out
        assert "elapsed" not in captured.out


class TestSimulateCommand:
    def test_layout_and_determinism(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        cols, rows = data_lines(out1)
        assert cols == ["model", "n", "trials", "seed", "empirical_mean",
                        "std_error", "trace_err", "z_score"]
        assert rows[0][1:4] == ["4", "50", "3"]

    def test_seed_override_lands_in_header_and_data(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out = tmp_path / "s.csv"
        main(["simulate", "--config", cfg, "--out", str(out), "--seed", "99"])
        text = out.read_text()
        assert "# seed = 99" in text
        _, rows = data_lines(out)
        assert rows[0][3] == "99"


    def test_calls_in_one_process_parse_their_own_arguments(self, tmp_path,
                                                            capsys):
        # the parser is built once per process; its parses share nothing
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["simulate", "--config", cfg, "--out", str(first),
                     "--seed", "99"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(second)]) == 0
        assert "# seed = 99" in first.read_text()
        assert "# seed = 3" in second.read_text()
        assert data_lines(first)[1][0][3] == "99"
        assert data_lines(second)[1][0][3] == "3"
        assert cli._build_parser() is cli._build_parser()


class TestBoundsCommand:
    def test_rows_and_plot_blocks(self, tmp_path, capsys):
        plot = tmp_path / "plot.dat"
        cfg = write_cfg(tmp_path, (
            "experiment = bounds\nmodel.kind = heat\nmodel.num_modes = 4\n"
            "n_values = 2, 4\nk_ref = 3\ntheorems = 2, 3\n"
            f"plot_out = {plot}\n"))
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        cols, rows = data_lines(out)
        assert cols == ["theorem", "n", "bound", "measured", "pass"]
        assert {r[0] for r in rows} == {"2", "3"}
        assert all(r[4] in ("true", "false") for r in rows)
        assert all(float(r[2]) >= float(r[3]) for r in rows if r[4] == "true")

        blocks = plot.read_text().split("\n\n")
        names = [b.splitlines()[0] for b in blocks]
        assert names == ["# series: discrepancy", "# series: theorem2-bound",
                         "# series: theorem3-bound"]

    @pytest.mark.parametrize("stem", ["heat_input_theorem5", "heat_theorem4",
                                      "wave_theorem1"])
    def test_pass_cells_are_check_bound_passes(self, tmp_path, capsys, stem):
        cfg = DEMO_CONFIGS / f"{stem}.cfg"
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        config = cli.load_config(str(cfg))
        model = cli._build_model(config)
        curve = cli._curve_from_config(config, model)
        want = []
        for bound in cli._make_bounds(config, model, curve):
            report = sk.check_bound(curve, bound)
            assert report.passed == bool(report.passes.all())
            want.extend(_format_value(ok) for ok in report.passes)
        assert [row[4] for row in data_lines(out)[1]] == want

    @pytest.mark.parametrize("stem", ["heat_input_theorem5", "heat_theorem4",
                                      "wave_theorem1"])
    def test_bounds_take_their_anchor_from_the_curve(self, tmp_path, capsys,
                                                    monkeypatch, stem):
        # the curve already holds the anchor's trace: no bound runs a filter
        calls = []
        traced = sk.theory._uniform_traces

        def spy(*args, **kwargs):
            calls.append(args)
            return traced(*args, **kwargs)

        monkeypatch.setattr(sk.theory, "_uniform_traces", spy)
        cfg = DEMO_CONFIGS / f"{stem}.cfg"
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == []

    def test_pass_cells_come_from_the_report(self, tmp_path, capsys,
                                             monkeypatch):
        # the CSV writes the report's verdicts and recomputes none
        real = cli.check_bound

        def flipped(curve, bound):
            report = real(curve, bound)
            return dataclasses.replace(report, passes=~report.passes)

        monkeypatch.setattr(cli, "check_bound", flipped)
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config",
                     str(DEMO_CONFIGS / "wave_theorem1.cfg"),
                     "--out", str(out)]) == 0
        assert [row[4] for row in data_lines(out)[1]] == ["false"] * 4


class TestOtherCommands:
    def test_telescope(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "experiment = telescope\nmodel.kind = heat\nmodel.num_modes = 4\n"
            "telescope_n = 2\ntelescope_levels = 2\n"))
        out = tmp_path / "t.csv"
        assert main(["telescope", "--config", cfg, "--out", str(out)]) == 0
        cols, rows = data_lines(out)
        assert cols == ["model", "n", "levels", "trace_drop", "increment_sum",
                        "residual"]
        assert float(rows[0][5]) < 1e-7

    def test_telescope_of_zero_traces(self, tmp_path, capsys):
        # heat at T = 40: every e^(lambda T) underflows and every trace is
        # 0, so the residual is the absolute mismatch, 0
        cfg = write_cfg(tmp_path, (
            "experiment = telescope\nmodel.kind = heat\nmodel.num_modes = 4\n"
            "model.horizon = 40\ntelescope_n = 4\ntelescope_levels = 2\n"))
        out = tmp_path / "t.csv"
        assert main(["telescope", "--config", cfg, "--out", str(out)]) == 0
        assert data_lines(out)[1] == [["heat", "4", "2", "0", "0", "0"]]

    def test_levelsum(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "experiment = levelsum\nmodel.kind = heat\nmodel.num_modes = 4\n"
            "levelsum_n = 2\nlevelsum_levels = 3\nlevelsum_weights = domain\n"))
        out = tmp_path / "l.csv"
        assert main(["levelsum", "--config", cfg, "--out", str(out)]) == 0
        cols, rows = data_lines(out)
        assert cols == ["model", "n", "level", "h", "value"]
        assert [r[2] for r in rows] == ["1", "2", "3"]
        values = [float(r[4]) for r in rows]
        assert values == sorted(values, reverse=True)

    def test_fit(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "experiment = fit\nmodel.kind = heat\nmodel.num_modes = 4\n"
            "n_values = 2, 4, 8\nk_ref = 3\n"))
        out = tmp_path / "f.csv"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        cols, rows = data_lines(out)
        assert cols == ["model", "n_min", "n_max", "slope", "intercept",
                        "r_squared", "points"]
        assert float(rows[0][3]) < -1.0
        assert float(rows[0][5]) <= 1.0

    def test_validate_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONVERGE_CFG)
        assert main(["validate-config", "--config", cfg]) == 0
        err = capsys.readouterr().err
        assert f"ok: {cfg} (experiment converge)" in err


class TestFailureModes:
    def test_experiment_subcommand_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONVERGE_CFG)
        assert main(["bounds", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert ("config error: experiment: config requests 'converge' "
                "but the subcommand is 'bounds'") in err

    def test_shaky_reference_exits_three(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "experiment = converge\nmodel.kind = wave\nmodel.num_modes = 8\n"
            "n_values = 2, 4\nk_ref = 1\n"))
        assert main(["converge", "--config", cfg]) == 3
        assert "numerical error:" in capsys.readouterr().err

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONVERGE_CFG)
        code = main(["converge", "--config", cfg,
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 1
        assert "io error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg_seed, argv_seed", [("-3", []),
                                                      ("3", ["--seed", "-3"])],
                             ids=["config-key", "override"])
    def test_negative_seed_names_the_key(self, tmp_path, capsys, monkeypatch,
                                         cfg_seed, argv_seed):
        # rejected with the configuration, before any model or filter is built
        monkeypatch.setattr("sampledkf.cli._build_model", None)
        cfg = write_cfg(tmp_path, SIMULATE_CFG.replace("seed = 3",
                                                       f"seed = {cfg_seed}"))
        assert main(["simulate", "--config", cfg, *argv_seed]) == 2
        assert ("config error: seed: must be non-negative"
                in capsys.readouterr().err)

    def test_simulate_grid_past_the_normals_bound_exits_two(self, tmp_path,
                                                           capsys, monkeypatch):
        # refused with the configuration: no model or grid of 2**43 points
        monkeypatch.setattr("sampledkf.cli._build_model", None)
        cfg = write_cfg(tmp_path, SIMULATE_CFG.replace(
            "simulate_n = 4", f"simulate_n = {2 ** 43}"))
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: simulate_n: {2 ** 43} samples" in err
        assert "at most 2**31" in err

    def test_trials_past_the_cap_exit_two(self, tmp_path, capsys,
                                          monkeypatch):
        # refused with the configuration, before any model is built or any
        # of the 2**31 + 1 errors is drawn
        monkeypatch.setattr("sampledkf.cli._build_model", None)
        cfg = write_cfg(tmp_path, SIMULATE_CFG.replace(
            "trials = 50", f"trials = {2 ** 31 + 1}"))
        assert main(["simulate", "--config", cfg]) == 2
        assert ("config error: trials: must be at most 2**31"
                in capsys.readouterr().err)

    def test_driven_steps_count_their_wide_noise_factors(self, tmp_path,
                                                        capsys, monkeypatch):
        # a driven step's process noise factors the (N+1) x (N+1) covariance
        # of (z, Y): 1024 x (1 + 1048574 x 3 + 2) normals, about 1.5 x 2**31,
        # would be drawn in one block of a 1-mode model
        monkeypatch.setattr("sampledkf.cli._build_model", None)
        cfg = write_cfg(tmp_path, (
            "experiment = simulate\nmodel.kind = heat\nmodel.num_modes = 1\n"
            "model.q_scalar = 0.5\nsimulate_n = 1048574\ntrials = 50\n"))
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert ("config error: simulate_n: 1048574 samples of a 1-mode model "
                "need up to 3221222400 normals") in err

    @pytest.mark.parametrize("experiment, levels, limit", [
        # no telescope level of 4 * 2**44 points
        pytest.param("telescope", 45, "at most 2**24", id="telescope"),
        # no level sum on a grid of 4 * 2**52 points
        pytest.param("levelsum", 52, "at most 2**53", id="levelsum"),
    ])
    def test_deep_levels_exit_two(self, tmp_path, capsys, monkeypatch,
                                  experiment, levels, limit):
        # refused with the configuration, before any model is built
        monkeypatch.setattr("sampledkf.cli._build_model", None)
        cfg = write_cfg(tmp_path, (
            f"experiment = {experiment}\nmodel.kind = heat\n"
            f"model.num_modes = 4\n{experiment}_n = 4\n"
            f"{experiment}_levels = {levels}\n"))
        assert main([experiment, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {experiment}_levels: {levels} levels" in err
        assert limit in err

    def test_config_error_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = converge\nbogus = 1\n")
        assert main(["converge", "--config", cfg]) == 2
        assert "config error: line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, message", [
        ("model.horizon = inf", "model.horizon: must be positive and finite"),
        ("model.r_scalar = nan", "model.r_scalar: must be finite"),
        ("model.q_scalar = nan", "model.q_scalar: must be finite"),
        ("model.prior_decay = nan", "model.prior_decay: must be finite"),
        ("model.kind = wave\nmodel.domain_length = inf",
         "model.domain_length: must be finite"),
        ("model.r_scalar = 0", "model.r_scalar: must be positive"),
        ("model.r_scalar = -1", "model.r_scalar: must be positive"),
    ], ids=["horizon", "r_scalar", "q_scalar", "prior_decay", "domain_length",
            "r_scalar-zero", "r_scalar-negative"])
    def test_non_finite_model_exits_two(self, tmp_path, capsys, lines,
                                        message):
        # each bad number is named by the key that was written, with no
        # numpy warning on the way
        text = CONVERGE_CFG.replace("model.horizon = 1.0\n", "")
        if "model.kind = wave" in lines:
            text = text.replace("model.kind = heat\n", "")
        cfg = write_cfg(tmp_path, text + lines + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["converge", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}\n" in err

    @pytest.mark.parametrize("command", ["converge", "validate-config"])
    def test_heat_domain_length_exits_two(self, tmp_path, capsys, command):
        # the key has no effect on a heat model: it is refused, not recorded
        # in the header of a result it did not shape
        cfg = write_cfg(tmp_path, CONVERGE_CFG + "model.domain_length = 3\n")
        assert main([command, "--config", cfg]) == 2
        assert ("config error: model.domain_length: heat models take no "
                "domain length\n") in capsys.readouterr().err

    def test_retired_per_n_reference_key_exits_two(self, tmp_path, capsys):
        # every curve shares one reference; result headers written while the
        # key existed carry "# per_n_reference = false" and need that line
        # dropped before they can be re-run
        cfg = write_cfg(tmp_path, CONVERGE_CFG + "per_n_reference = false\n")
        assert main(["converge", "--config", cfg]) == 2
        assert "unknown key 'per_n_reference'" in capsys.readouterr().err

    def test_rejected_config_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "experiment = telescope\nmodel.kind = heat\nmodel.num_modes = 4\n"
            "telescope_n = 4\n"))
        assert main(["telescope", "--config", cfg]) == 2
        assert ("config error: telescope_levels: required for experiment "
                "'telescope'") in capsys.readouterr().err

    def test_validation_error_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONVERGE_CFG.replace("n_values = 2, 4",
                                                       "n_values = 3, 4"))
        assert main(["converge", "--config", cfg]) == 2
        assert ("validation error: n=3 does not divide"
                in capsys.readouterr().err)

    def test_deep_reference_runs_from_the_grid_size(self, tmp_path, capsys):
        # 64 * 2**41 check points, no grid of them built
        cfg = write_cfg(tmp_path, (
            "experiment = converge\nmodel.kind = heat\nmodel.num_modes = 20\n"
            "n_values = 4, 8, 16, 32, 64\nk_ref = 40\n"))
        assert main(["converge", "--config", cfg, "--out",
                     str(tmp_path / "deep.csv")]) == 0
        _, rows = data_lines(tmp_path / "deep.csv")
        assert [row[2] for row in rows] == ["40"] * 5
        assert all(float(row[5]) > 0 for row in rows)

    def test_reference_past_two_to_the_53_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONVERGE_CFG.replace("k_ref = 3", "k_ref = 60"))
        assert main(["converge", "--config", cfg]) == 2
        assert ("validation error: reference_level=60 is too large for n=4"
                in capsys.readouterr().err)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"sampledkf {sk.__version__}" in capsys.readouterr().out


class TestPlotData:
    def test_log_log_series(self):
        n = np.array([10, 100, 1000])
        curve = sk.DiscrepancyCurve(
            label="synthetic", horizon=1.0, n_values=n,
            values=1.0 / n.astype(float), coarse_traces=np.ones(3),
            reference_trace=1.0,
            reference_points=64000, reference_level=6)
        block = emit_plot_data(curve).strip().splitlines()
        assert block[0] == "# series: discrepancy"
        for line, k in zip(block[1:], (1.0, 2.0, 3.0)):
            x, y = (float(p) for p in line.split())
            npt.assert_allclose(x, k, rtol=1e-15)
            npt.assert_allclose(y, -k, rtol=1e-15)

# The bound column of demos/configs/heat_input_theorem5.cfg as the recursion
# computed it: the anchor traces moved to the doubling route and must round
# to the same digits.
THEOREM5_BOUNDS = ["8.1952217186584004", "4.7980823379012394",
                   "2.8336155014404394", "1.6797250696681072"]


def test_driven_bounds_demo_matches_the_recursion(tmp_path, capsys):
    cfg = Path(sk.__file__).resolve().parents[2] / "demos" / "configs" \
        / "heat_input_theorem5.cfg"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bounds", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["bounds", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    cols, rows = data_lines(out1)
    assert cols == ["theorem", "n", "bound", "measured", "pass"]
    assert [r[1] for r in rows] == ["4", "8", "16", "32"]
    assert [r[2] for r in rows] == THEOREM5_BOUNDS

    model = sk.build_heat_model(20, horizon=1.0, q_scalar=0.5)
    reference = sk.sequential_filter(model, sk.dyadic_grid(32, 6))
    for row in rows:
        coarse = sk.sequential_filter(model, sk.dyadic_grid(int(row[1]), 0))
        npt.assert_allclose(float(row[3]),
                            coarse.trace_err - reference.trace_err, rtol=1e-9)


# Imports the package and runs every runtime route once at small sizes, then
# lists the scipy modules that got loaded on the way.
RUNTIME_ROUTES = textwrap.dedent("""\
    import sys
    import numpy as np
    import sampledkf as sk
    import sampledkf.cli

    out_dir, *configs = sys.argv[1:]
    for model in (sk.build_heat_model(4, horizon=1.0),
                  sk.build_wave_model(4, horizon=1.0)):
        sk.discrepancy_curve(model, [2, 4], reference_level=6,
                             check_reference=True)
        sk.telescope_check(model, 2, 2)
        sk.level_sum(model, 2, 1, np.ones(model.num_modes))
    driven = sk.build_heat_model(3, horizon=1.0, q_scalar=0.5)
    times = np.array([0.25, 0.5, 1.0])
    sk.batch_condition(driven, times)
    sk.empirical_error(driven, times, trials=16, seed=1)
    for i, cfg in enumerate(configs):
        code = sampledkf.cli.main(["bounds", "--config", cfg,
                                   "--out", f"{out_dir}/{i}.csv"])
        assert code == 0, (cfg, code)
    print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_runtime_routes_load_no_scipy(tmp_path):
    # a fresh process, so that modules pytest already imported do not count
    src = Path(sk.__file__).resolve().parents[1]
    configs = sorted((src.parent / "demos" / "configs").glob("*.cfg"))
    assert len(configs) == 3
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", RUNTIME_ROUTES, str(tmp_path),
         *map(str, configs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_scipy_is_a_test_dependency_only():
    # the routes above need numpy alone, so scipy comes with the test extra
    tomllib = pytest.importorskip("tomllib")
    root = Path(sk.__file__).resolve().parents[2]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy"]
    assert "scipy" in project["optional-dependencies"]["test"]
