import json
import math

import numpy as np
import pytest

import decoshield
from decoshield.cli import main as cli_main
from decoshield.errors import ArgumentError, ConfigError
from decoshield.experiments import (ExperimentConfig, Report, _simulate_pair,
                                    emit_report, run_experiment, sweep)

from oracles import gaussian_p_weight

MU_STAR = 7.554982305222015


def small_doc(**overrides):
    doc = {
        "scenario": "unit-test",
        "system": {"h_s": [[1, 0], [0, -1]], "q": [[0, 1], [1, 0]]},
        "schedule": {"kind": "sinusoidal", "period": 0.25, "mu": MU_STAR},
        "reservoir": {"form_factor": "gaussian-p", "beta": 1.0,
                      "n_modes": 2, "p_max": 3.0},
        "coupling": 0.05,
        "run": {"horizon": 1.0, "sample_dt": 0.25,
                "substeps_per_period": 64},
        "constants": {"c_const": 1.0},
        "dd_tol": 1e-7,
        "require_dd": True,
        "seed": 0,
    }
    for key, value in overrides.items():
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return doc


class TestConfigValidation:
    def test_valid_document_parses(self):
        cfg = ExperimentConfig.from_dict(small_doc())
        assert cfg.model.dim == 2
        assert cfg.schedule.period == 0.25

    def test_missing_field_names_path(self):
        doc = small_doc()
        del doc["reservoir"]["beta"]
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field_path == "reservoir.beta"

    def test_spectral_gap_guard_names_period(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(small_doc(**{"schedule.period": 2.0}))
        assert err.value.field_path == "schedule.period"
        assert "pi/2" in str(err.value)

    def test_non_commuting_control_rejected(self):
        doc = small_doc(**{"schedule.h_dir": [[0, 1], [1, 0]]})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field_path == "schedule.h_dir"

    def test_resource_guard(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(small_doc(**{"reservoir.n_modes": 20}))
        assert err.value.field_path == "reservoir.n_modes"

    def test_bad_matrix_entry_names_indices(self):
        doc = small_doc()
        doc["system"]["q"][0][1] = "x"
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field_path == "system.q[0][1]"

    def test_complex_entries_as_pairs(self):
        doc = small_doc()
        doc["system"]["q"] = [[0, [0, -1]], [[0, 1], 0]]
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.model.q[0, 1] == -1j

    @pytest.mark.parametrize("tol", [0, -1e-7])
    def test_nonpositive_dd_tol_rejected(self, tol):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(small_doc(dd_tol=tol))
        assert err.value.field_path == "dd_tol"

    @pytest.mark.parametrize("overrides, path", [
        ({"reservoir.form_factor": "lorentz"}, "reservoir.form_factor"),
        ({"reservoir.params": {"width": 2}}, "reservoir.params.width"),
        ({"reservoir.params": {"scale": "x"}}, "reservoir.params.scale"),
    ], ids=["unknown-name", "unknown-key", "string-value"])
    def test_bad_form_factor_names_field(self, overrides, path):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(small_doc(**overrides))
        assert err.value.field_path == path

    @pytest.mark.parametrize("path, value, field", [
        ("coupling", True, "coupling"),
        ("reservoir.n_modes", True, "reservoir.n_modes"),
        ("run.substeps_per_period", True, "run.substeps_per_period"),
        ("reservoir.params", {"scale": True}, "reservoir.params.scale"),
        ("system.q", [[0, True], [1, 0]], "system.q[0][1]"),
        ("system.q", [[0, [True, 0]], [1, 0]], "system.q[0][1]"),
        ("schedule", {"kind": "bangbang", "period": 0.25,
                      "phases": [0.25, 0.75], "weights": [1.5, True]},
         "schedule.weights[1]"),
        ("schedule", {"kind": "bangbang", "period": 0.25,
                      "phases": ["x", 0.75], "weights": [1.5, -1.5]},
         "schedule.phases[0]"),
    ], ids=["coupling", "n_modes", "substeps", "params", "matrix", "pair",
            "kick-weight", "kick-phase-string"])
    def test_non_number_rejected_naming_the_field(self, path, value, field):
        # bool is an int subclass, yet a JSON true must not read as 1; a
        # kick list entry is checked like any other number
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(small_doc(**{path: value}))
        assert err.value.field_path == field

    @pytest.mark.parametrize("state", [
        [[1, 0], [0, 1]],
        [[0.5, 0.5], [0, 0.5]],
        [[1.5, 0], [0, -0.5]],
    ], ids=["trace-two", "non-hermitian", "indefinite"])
    def test_invalid_initial_state_names_the_field(self, state):
        # every verb reads the config, so none may start on a non-state
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(small_doc(
                **{"reservoir.n_modes": 3, "initial_state": state}))
        assert err.value.field_path == "initial_state"

    def test_form_factor_params_reach_the_profile(self):
        cfg = ExperimentConfig.from_dict(
            small_doc(**{"reservoir.params": {"scale": 2}}))
        assert cfg.form_factor.f(1.0) == pytest.approx(2 * math.exp(-0.5))

    def test_bundled_scenario_is_valid(self):
        cfg = ExperimentConfig.from_file(
            decoshield.scenario_path("spin-fermion-sinusoidal"))
        assert cfg.scenario == "spin-fermion-sinusoidal"
        assert cfg.schedule.kind == "smooth"


class TestRunExperiment:
    def test_kick_point_diagonalizes_the_static_hamiltonian_once(
            self, monkeypatch):
        # the kicked run and the undriven run share H(0) = H_s + H_R + lam Q Phi
        cfg = ExperimentConfig.from_dict(small_doc(schedule={
            "kind": "bangbang", "period": 0.25, "phases": [0.25, 0.75],
            "weights": [math.pi / 2, -math.pi / 2]}))
        d = cfg.model.dim
        dim = d * 2**cfg.n_modes
        eigh = np.linalg.eigh
        sizes = []

        def counting(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        results = _simulate_pair(cfg)
        assert set(results) == {"on", "off"}
        # each of the two parity sectors is diagonalized once; the whole
        # space never is (eighs of size <= d are system-level)
        blocks = [n for n in sizes if n > d]
        assert blocks == [dim // 2, dim // 2]
        assert sum(blocks) == dim
        assert dim not in sizes

    def test_pipeline_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_doc())
        report = run_experiment(cfg, out_dir=tmp_path)
        for name in ("trajectory_on.csv", "trajectory_off.csv",
                     "report.json"):
            assert (tmp_path / name).is_file()
        assert report.dd["passed"]
        assert set(report.as_dict()) == {"dd", "rates", "runs", "sweep",
                                         "provenance"}
        assert report.rates["xi"] >= 0.0
        assert "config_hash" in report.provenance

    def test_csv_header_contract(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_doc())
        run_experiment(cfg, out_dir=tmp_path)
        header = (tmp_path / "trajectory_on.csv").read_text().splitlines()[0]
        assert header == ("t,rho_re_00,rho_im_00,rho_re_01,rho_im_01,"
                          "rho_re_10,rho_im_10,rho_re_11,rho_im_11,"
                          "coherence_01,deviation,pop_0,pop_1")

    def test_determinism_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_doc())
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for name in ("trajectory_on.csv", "trajectory_off.csv",
                     "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_qutrit_rates_match_closed_form(self, tmp_path):
        # kicks on H_dir = diag(1, -1, 1) average the 0-1 and 1-2 couplings;
        # both sit at Bohr frequency -0.5 (or +0.5 for the adjoint), and
        # each ring k carries 2 / (pi k) on odd k: the comb points in the
        # support are 4 k +- 0.5 with k = +-1
        doc = small_doc(**{
            "system.h_s": [[0.5, 0, 0], [0, 0, 0], [0, 0, -0.5]],
            "system.q": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
            "schedule": {"kind": "bangbang", "period": 0.25,
                         "phases": [0.25, 0.75],
                         "weights": [math.pi / 2, -math.pi / 2],
                         "h_dir": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}})
        report = run_experiment(ExperimentConfig.from_dict(doc),
                                out_dir=tmp_path)
        assert report.dd["passed"]
        expect = sum((2.0 / math.pi) ** 2 * gaussian_p_weight(x) ** 2
                     for x in (4.5, 3.5, -3.5, -4.5))
        assert report.rates["xi"] == pytest.approx(expect, rel=1e-9)
        assert set(report.runs) == {"on", "off"}

    def test_report_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_doc())
        report = run_experiment(cfg, out_dir=tmp_path)
        parsed = json.loads((tmp_path / "report.json").read_text())
        assert parsed == json.loads(json.dumps(report.as_dict()))


class TestSweep:
    def test_single_value_rejected(self):
        cfg = ExperimentConfig.from_dict(small_doc())
        with pytest.raises(ArgumentError):
            sweep(cfg, "lambda", [0.05])

    def test_unknown_axis_rejected(self):
        cfg = ExperimentConfig.from_dict(small_doc())
        with pytest.raises(ArgumentError):
            sweep(cfg, "beta", [0.5, 1.0])

    def test_lambda_sweep_scaling(self):
        doc = small_doc(**{"constants.c_const": 0.0})
        cfg = ExperimentConfig.from_dict(doc)
        rows = sweep(cfg, "lambda", [0.025, 0.05, 0.1])
        products = [row["t_dec"] * row["value"] ** 2 for row in rows]
        for p in products[1:]:
            assert p == pytest.approx(products[0], rel=1e-12)

    def test_mode_count_sweep_runs(self):
        cfg = ExperimentConfig.from_dict(small_doc())
        rows = sweep(cfg, "N", [2, 3])
        assert [row["value"] for row in rows] == [2.0, 3.0]


class TestEmitReport:
    @pytest.fixture()
    def report(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_doc())
        return run_experiment(cfg, out_dir=tmp_path / "run")

    def test_markdown_summary_content(self, report, tmp_path):
        path = emit_report(report, "markdown-summary", tmp_path)
        text = path.read_text()
        assert "pass" in text
        assert "xi(T)" in text
        assert "t_dec" in text
        assert "retention" in text

    def test_csv_flat_dump(self, report, tmp_path):
        path = emit_report(report, "csv", tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",")[0] for line in lines[1:]}
        assert "rates.xi" in keys
        assert "provenance.config_hash" in keys
        # missing values and booleans as report.json writes them
        assert "sweep,null" in lines
        assert "dd.passed,true" in lines

    def test_markdown_sweep_row_without_rates(self, tmp_path):
        row = {"value": 0.02, "xi": None, "t_dec": None, "retention": 0.9,
               "sup_deviation": 1e-6}
        report = Report(dd=None, rates=None, runs={}, sweep=[row],
                        provenance={"scenario": "s"})
        text = emit_report(report, "markdown-summary", tmp_path).read_text()
        assert "| 0.02 | null | null | 0.9 | 1e-06 |" in text

    def test_unknown_format(self, report, tmp_path):
        with pytest.raises(ArgumentError):
            emit_report(report, "yaml", tmp_path)


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_check_dd_pass(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, small_doc())
        assert cli_main(["check-dd", "--config", cfg]) == 0
        assert "pass" in capsys.readouterr().out

    def test_check_dd_failure_exit_code(self, tmp_path):
        doc = small_doc(**{"schedule.mu": 1.0})
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["check-dd", "--config", cfg]) == 2

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        doc = small_doc(**{"schedule.period": 2.0})
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["check-dd", "--config", cfg]) == 1
        assert "schedule.period" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["rates", "--config",
                         str(tmp_path / "nope.json")]) == 1

    def test_tune_mu(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path,
                                small_doc(output_dir=str(tmp_path / "o")))
        assert cli_main(["tune-mu", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.split("=")[1]) - MU_STAR) < 1e-6

    def test_tune_mu_rejects_a_kick_schedule(self, tmp_path, capsys):
        doc = small_doc(output_dir=str(tmp_path / "o"), schedule={
            "kind": "bangbang", "period": 0.25, "phases": [0.25, 0.75],
            "weights": [math.pi / 2, -math.pi / 2]})
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["tune-mu", "--config", cfg]) == 1
        assert "schedule.kind" in capsys.readouterr().err

    def test_tune_mu_rejects_a_reversed_bracket(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path,
                                small_doc(output_dir=str(tmp_path / "o")))
        assert cli_main(["tune-mu", "--config", cfg,
                         "--bracket", "9", "6"]) == 1
        assert "bracket" in capsys.readouterr().err
        assert not (tmp_path / "o" / "tuned_mu.json").exists()

    def test_tune_mu_failure_prints_scan(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path,
                                small_doc(output_dir=str(tmp_path / "o")))
        assert cli_main(["tune-mu", "--config", cfg,
                         "--bracket", "0.1", "1.0"]) == 3
        err = capsys.readouterr().err
        assert "scan (mu, surrogate)" in err
        pairs = [line for line in err.splitlines() if line.startswith("  ")]
        assert len(pairs) == 33
        assert pairs[0].startswith("  0.1, ")
        assert pairs[-1].startswith("  1, ")

    def test_numeric_failure_prints_diagnostics(self, tmp_path, capsys,
                                                monkeypatch):
        import decoshield.cli
        from decoshield.errors import NumericError

        def fail(args, cfg):
            raise NumericError("trace drift exceeded bound",
                               diagnostics={"drift": 0.25})

        monkeypatch.setitem(decoshield.cli._COMMANDS, "check-dd", fail)
        cfg = self.write_config(tmp_path, small_doc())
        assert cli_main(["check-dd", "--config", cfg]) == 3
        assert "drift = 0.25" in capsys.readouterr().err

    def test_rates_requires_decoupling(self, tmp_path):
        doc = small_doc(**{"schedule.mu": 1.0, "require_dd": False})
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["rates", "--config", cfg]) == 2

    def test_simulate_and_compare(self, tmp_path, capsys):
        out = tmp_path / "res"
        cfg = self.write_config(tmp_path, small_doc())
        assert cli_main(["simulate", "--config", cfg,
                         "--out", str(out)]) == 0
        assert (out / "trajectory_on.csv").is_file()
        assert cli_main(["compare", "--config", cfg,
                         "--out", str(out)]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_incoherent_state_retention_is_null(self, tmp_path, capsys):
        # rho0 = diag(1, 0) has no coherence to retain; dividing by the
        # t = 0 sample would divide by rounding noise
        out = tmp_path / "res"
        doc = small_doc(**{"schedule": {"kind": "bangbang", "period": 0.25,
                                        "phases": [0.25, 0.75],
                                        "weights": [math.pi / 2,
                                                    -math.pi / 2]},
                           "reservoir.n_modes": 3,
                           "initial_state": [[1, 0], [0, 0]]})
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["simulate", "--config", cfg,
                         "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=reject)
        assert report["runs"]["on"]["final_retention"] is None
        assert report["runs"]["off"]["final_retention"] is None
        assert cli_main(["compare", "--config", cfg,
                         "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "run on : retention null" in printed
        assert "retention on/off = null / null (ratio null)" in printed

    def test_simulate_non_unit_gap_qubit_records_rates(self, tmp_path):
        # H_s = diag(0.5, -0.5) has Bohr frequencies +-1: rates like any model
        out = tmp_path / "res"
        doc = small_doc(**{"system.h_s": [[0.5, 0], [0, -0.5]],
                           "reservoir.n_modes": 3, "run.horizon": 2.0})
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["simulate", "--config", cfg,
                         "--out", str(out)]) == 0
        assert (out / "trajectory_on.csv").is_file()
        assert (out / "trajectory_off.csv").is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["rates"]["xi"] > 0.0
        assert report["dd"]["passed"]
        assert cli_main(["rates", "--config", cfg,
                         "--out", str(tmp_path / "r")]) == 0
        rates = json.loads((tmp_path / "r" / "report.json").read_text())
        assert rates["rates"] == report["rates"]

    def test_fourier_table_output(self, tmp_path):
        out = tmp_path / "f"
        cfg = self.write_config(tmp_path, small_doc())
        assert cli_main(["fourier", "--config", cfg,
                         "--out", str(out)]) == 0
        lines = (out / "fourier.csv").read_text().splitlines()
        assert lines[0] == "k,a,norm"
        assert len(lines) > 10

    def test_sweep_cli(self, tmp_path, capsys):
        out = tmp_path / "s"
        cfg = self.write_config(tmp_path, small_doc())
        assert cli_main(["sweep", "--config", cfg, "--out", str(out),
                         "--axis", "lambda", "--values", "0.02,0.05"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["sweep"]) == 2

    @pytest.mark.parametrize("overrides", [
        {"require_dd": False, "schedule": {
            "kind": "bangbang", "period": 0.25, "phases": [0.2, 0.5],
            "weights": [math.pi / 2, -math.pi / 2]}},
        {"require_dd": False, "schedule.mu": 5.0},
    ], ids=["failed-kick-check-not-required", "failed-check-not-required"])
    def test_sweep_rows_without_rates_are_null(self, tmp_path, capsys,
                                               overrides):
        # a check that fails without being required leaves no rates
        out = tmp_path / "s"
        doc = small_doc(**{"run.sample_dt": 0.5,
                           "run.substeps_per_period": 16}, **overrides)
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["sweep", "--config", cfg, "--out", str(out),
                         "--axis", "lambda", "--values", "0.02,0.05"]) == 0
        rows = json.loads((out / "report.json").read_text())["sweep"]
        assert [row["value"] for row in rows] == [0.02, 0.05]
        for row in rows:
            assert row["xi"] is None and row["t_dec"] is None
            assert 0.0 < row["retention"] <= 1.0
        assert capsys.readouterr().out.count("xi=null, t_dec=null") == 2

    def test_sweep_non_unit_gap_qubit_rows_carry_rates(self, tmp_path):
        out = tmp_path / "s"
        doc = small_doc(**{"run.sample_dt": 0.5, "run.substeps_per_period": 16,
                           "system.h_s": [[0.5, 0], [0, -0.5]]})
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["sweep", "--config", cfg, "--out", str(out),
                         "--axis", "lambda", "--values", "0.02,0.05"]) == 0
        rows = json.loads((out / "report.json").read_text())["sweep"]
        assert all(row["xi"] > 0.0 for row in rows)
        assert rows[0]["xi"] == rows[1]["xi"]
        assert rows[0]["t_dec"] > rows[1]["t_dec"]

    @pytest.mark.parametrize("overrides, axis, values, field", [
        ({}, "T", "0.1,2.0", "schedule.period"),
        ({}, "N", "2,14", "reservoir.n_modes"),
        ({"schedule": {"kind": "bangbang", "period": 0.25,
                       "phases": [0.25, 0.75],
                       "weights": [math.pi / 2, -math.pi / 2]}},
         "mu", "1.0,2.0", "schedule.kind"),
    ], ids=["period-guard", "dimension-guard", "mu-on-kicks"])
    def test_sweep_rejects_a_bad_point_before_any_runs(
            self, tmp_path, capsys, monkeypatch, overrides, axis, values,
            field):
        import decoshield.experiments

        checked = []
        real_check_dd = decoshield.experiments.check_dd
        monkeypatch.setattr(decoshield.experiments, "check_dd",
                            lambda *a, **kw: checked.append(a)
                            or real_check_dd(*a, **kw))
        out = tmp_path / "s"
        cfg = self.write_config(tmp_path, small_doc(**overrides))
        assert cli_main(["sweep", "--config", cfg, "--out", str(out),
                         "--axis", axis, "--values", values]) == 1
        assert field in capsys.readouterr().err
        assert checked == []
        assert not (out / "report.json").exists()
