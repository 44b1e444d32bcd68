import json
import math
import os
import re
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest

from sltosim import cli, engine
from sltosim.cli import (
    KINDS,
    ConfigError,
    main,
    read_matrix_file,
    run_experiment,
    verify_slto,
    write_matrix_file,
)
from sltosim.designer import DesignTargets, PotentialAnsatz
from sltosim.engine import CompactEngineConfig, evolution_operator, evolve_cycle
from sltosim.linalg import Operator, ShapeError

from conftest import dense_slto_residuals, random_hermitian


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        path = tmp_path / "m.txt"
        write_matrix_file(path, m, layout=(5,))
        back, layout = read_matrix_file(path)
        assert layout == (5,)
        assert np.max(np.abs(back - m)) <= 1e-15

    def test_bad_layout_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("4 3 2\n" + "\n".join("0+0j 0+0j 0+0j 0+0j" for _ in range(4)) + "\n")
        with pytest.raises(ConfigError):
            read_matrix_file(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1\nnot-a-number\n")
        with pytest.raises(ConfigError):
            read_matrix_file(path)

    @pytest.mark.parametrize("token", ["nan+0j", "0+infj", "-inf+0j"])
    def test_non_finite_entry_rejected(self, tmp_path, token):
        path = tmp_path / "m.txt"
        path.write_text(f"2\n1+0j 0+0j\n0+0j {token}\n")
        with pytest.raises(ConfigError, match=r"m\.txt: non-finite entry in row 1"):
            read_matrix_file(path)

    @staticmethod
    def special_values_matrix() -> np.ndarray:
        """12x12, entries over 600 decades plus signed zeros, subnormals and extremes."""
        rng = np.random.default_rng(7)
        special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1e-310, 1.7976931348623157e308]
        n = 12
        parts = [rng.normal(size=n * n) * 10.0 ** rng.integers(-300, 300, n * n)
                 for _ in range(2)]
        for part in parts:
            part[rng.choice(n * n, len(special), replace=False)] = special
        return (parts[0] + 1j * parts[1]).reshape(n, n)

    def test_round_trip_is_bit_exact(self, tmp_path):
        m = self.special_values_matrix()
        path = tmp_path / "m.txt"
        write_matrix_file(path, m, layout=(3, 4))
        back, layout = read_matrix_file(path)
        assert layout == (3, 4)
        assert back.tobytes() == m.tobytes()  # also keeps the sign of every zero

    def test_written_bytes_match_per_entry_format(self, tmp_path):
        m = self.special_values_matrix()
        path = tmp_path / "m.txt"
        write_matrix_file(path, m.T, layout=(3, 4))  # a non-contiguous input too
        rows = [" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in m.T]
        assert path.read_text() == "12 3 4\n" + "\n".join(rows) + "\n"

    @pytest.mark.parametrize("body, message", [
        ("2\n1+0j 0+0j\n0+0j\n", "row 1 has 1 entries"),  # ragged row
        ("2\n1+0j 0+0j 0+0j\n0+0j 1+0j 0+0j\n", "row 0 has 3 entries"),
        ("2\n1+0j 0+0j\n\n0+0j 1+0j\n", "expected 2 rows, found 3"),  # blank row
        ("3\n1 0 0\n0 1 0\n", "expected 3 rows, found 2"),  # missing row
        ("2\n1 0\n0 1\n0 0\n", "expected 2 rows, found 3"),  # extra row
        ("2\n1+0j 0+0j\n0+0j 1+0k\n", "unparsable entry in row 1"),
        ("1\n1+2J\n", "unparsable entry in row 0"),  # the format's unit is lower-case j
        ("0\n", "bad header '0'"),
    ])
    def test_malformed_rows_named(self, tmp_path, body, message):
        path = tmp_path / "m.txt"
        path.write_text(body)
        with pytest.raises(ConfigError, match=rf"m\.txt: {re.escape(message)}$"):
            read_matrix_file(path)


class TestAbstractCycleCommand:
    def test_reference_run(self, tmp_path, capsys):
        code = main([
            "abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
            "--g", "0.05", "--out", str(tmp_path), "--no-color",
        ])
        assert code == 0
        report = load_report(tmp_path)
        res = report["results"]
        assert abs(res["eta"] - 0.5) <= 1e-9
        assert abs(res["tau"] - math.pi / 0.1) <= 1e-10
        assert abs(res["power"] - 2 * 0.05 * 1.0 / math.pi) <= 1e-10
        assert report["all_checks_passed"]

    def test_series_schema(self, tmp_path):
        code = main([
            "abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
            "--g", "0.05", "--n-max1", "4", "--n-max2", "4",
            "--out", str(tmp_path), "--series", "--no-color",
        ])
        assert code == 0
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "t,pop1,pop2,pop3,S_ent,E_B1,E_B2,resid_energy,resid_weighted"
        assert len(lines) == 102  # header + default grid

    def test_config_file_with_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta1": 0.5, "beta2": 1.0, "omega1": 2.0,
                                   "g": 0.05, "bogus": 1}))
        code = main(["abstract-cycle", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta1": 0.5, "beta2": 1.0, "omega1": 2.0,
                                   "g": 0.05, "n_max1": 3, "n_max2": 3}))
        code = main(["abstract-cycle", "--config", str(cfg), "--g", "0.1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 0
        report = load_report(tmp_path / "o")
        assert abs(report["results"]["tau"] - math.pi / 0.2) <= 1e-10

    def test_equal_temperatures_rejected_at_load(self, tmp_path):
        code = main(["abstract-cycle", "--beta1", "1", "--beta2", "1",
                     "--omega1", "2", "--g", "0.05", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--beta1", "0.5", "--g", "inf"],
        ["--beta1", "nan", "--g", "0.05", "--n-max1", "4", "--n-max2", "4"],
    ])
    def test_non_finite_input_is_usage_error(self, tmp_path, flags):
        code = main(["abstract-cycle", "--beta2", "1", "--omega1", "2", *flags,
                     "--out", str(tmp_path), "--no-color"])
        assert code == 2
        assert not (tmp_path / "report.json").exists()

    def test_sector_cap_is_usage_error(self, tmp_path, capsys):
        # the tail rule derives n_max1 = n_max2 = 13815510941 here
        code = main(["abstract-cycle", "--beta1", "1e-9", "--beta2", "1", "--omega1", "1",
                     "--g", "0.1", "--out", str(tmp_path / "o"),
                     "--export-matrices", str(tmp_path / "x"), "--no-color"])
        assert code == 2
        assert "n_max1 = 13815510941" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()
        assert not (tmp_path / "x").exists()

    def test_dense_cap_is_usage_error(self, tmp_path, capsys):
        # 2 * 65 * 65 = 8450 > MAX_DENSE_DIM; the cycle itself runs
        assert 2 * 65 * 65 > engine.MAX_DENSE_DIM >= 2 * 61 * 61
        code = main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", "64", "--n-max2", "64",
                     "--out", str(tmp_path / "o"), "--export-matrices", str(tmp_path / "x"),
                     "--no-color"])
        assert code == 2
        assert "n_max1 = 64, n_max2 = 64" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()
        assert not (tmp_path / "x").exists()

    def test_non_conserving_pairing_fails_both_commutator_checks(self, tmp_path, monkeypatch):
        pairing = engine._sector_members

        def cold_ladder_left_out(cfg, n, m):
            # |n, m, 0> <-> |n-1, m, 1>: the cold ladder gains no quantum
            members = pairing(cfg, n, m)
            members[members[:, 1, 0] >= 0, 1, 1] -= 1
            return members

        monkeypatch.setattr(engine, "_sector_members", cold_ladder_left_out)
        code = main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.05", "--n-max1", "4", "--n-max2", "4",
                     "--out", str(tmp_path), "--no-color"])
        assert code == 1
        checks = load_report(tmp_path)["checks"]
        assert {name for name, c in checks.items() if not c["passed"]} == {
            "commutator_energy", "commutator_weighted"}
        # the gaps are omega2 = 1 and beta1 * omega1 = 1, at full transfer
        assert checks["commutator_energy"]["value"] == pytest.approx(1.0, abs=1e-12)
        assert checks["commutator_weighted"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_derived_omega2_runs_where_a_given_one_missed_the_resonance(self, tmp_path):
        # beta1*omega1 = 8968 but 35 * (4*2242/35) = 8968.000000000002
        code = main(["abstract-cycle", "--beta1", "4", "--beta2", "35", "--omega1", "2242",
                     "--g", "0.1", "--n-max1", "2", "--n-max2", "2",
                     "--out", str(tmp_path), "--no-color"])
        assert code != 2
        used = load_report(tmp_path)["results"]["config_used"]
        assert used["omega2"] == 4 * 2242 / 35

    def test_empty_ensemble_keeps_the_per_exchange_heats(self, tmp_path):
        # exp(-beta1 * omega1) = exp(-8968) underflows: every pair has weight 0
        code = main(["abstract-cycle", "--beta1", "4", "--beta2", "35", "--omega1", "2242",
                     "--g", "0.1", "--n-max1", "2", "--n-max2", "2",
                     "--out", str(tmp_path), "--no-color"])
        assert code == 0
        res = load_report(tmp_path)["results"]
        assert res["success_weight"] == 0.0
        assert res["q1_ensemble"] == 0.0
        cfg = CompactEngineConfig(beta1=4.0, beta2=35.0, omega1=2242.0, g=0.1,
                                  n_max1=2, n_max2=2)
        transfer = abs(evolve_cycle(cfg).amplitude_trace[-1, 1]) ** 2
        assert res["q1"] == 2242.0 * transfer
        assert res["eta"] == pytest.approx(res["eta_carnot"], abs=1e-9)

    @pytest.mark.parametrize("cutoffs", [("0", "3"), ("3", "0")])
    def test_cutoffs_without_pairs_move_no_heat(self, tmp_path, cutoffs):
        code = main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", cutoffs[0], "--n-max2", cutoffs[1],
                     "--out", str(tmp_path), "--no-color"])
        assert code == 1  # no exchange, so no Carnot efficiency
        res = load_report(tmp_path)["results"]
        assert res["q1"] == res["q2"] == res["eta"] == 0.0

    def test_omega2_is_not_an_input(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                  "--omega2", "1", "--g", "0.05", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        with pytest.raises(ConfigError, match="unknown keys \\['omega2'\\]"):
            run_experiment("abstract-cycle", {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0,
                                              "omega2": 1.0, "g": 0.05}, tmp_path)

    def test_drifting_propagator_is_an_internal_error(self, tmp_path, monkeypatch, capsys):
        class Drifting(engine.SpectralPropagator):
            def states(self, psi0, times):
                return super().states(psi0, times) * (1 + 1e-8)

        monkeypatch.setattr(engine, "SpectralPropagator", Drifting)
        code = main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.05", "--n-max1", "4", "--n-max2", "4",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 4
        assert capsys.readouterr().err.startswith("internal error: state vector norm")
        assert not (tmp_path / "o").exists()

    def test_seed_flag_rejected(self, tmp_path):
        # only design draws random numbers, so only design takes --seed
        with pytest.raises(SystemExit) as exit_info:
            main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                  "--g", "0.05", "--seed", "3", "--out", str(tmp_path)])
        assert exit_info.value.code == 2


class TestOpticsCycleCommand:
    def test_reference_run(self, tmp_path):
        code = main(["optics-cycle", "--beta1", "0.5", "--beta2", "1",
                     "--omega1", "2", "--out", str(tmp_path), "--no-color"])
        assert code == 0
        report = load_report(tmp_path)
        assert report["checks"]["final_state_formula"]["passed"]
        assert abs(report["results"]["omega0"] - 1.0) <= 1e-12

    def test_equal_temperatures_rejected_at_load(self, tmp_path):
        code = main(["optics-cycle", "--beta1", "1", "--beta2", "1",
                     "--omega1", "2", "--out", str(tmp_path)])
        assert code == 2

    def test_derived_omega2_runs_where_a_given_one_missed_the_resonance(self, tmp_path):
        code = main(["optics-cycle", "--beta1", "4", "--beta2", "35", "--omega1", "2242",
                     "--n-max1", "2", "--n-max2", "2", "--out", str(tmp_path), "--no-color"])
        assert code != 2
        used = load_report(tmp_path)["results"]["config_used"]
        assert used["omega2"] == 4 * 2242 / 35
        assert used["omega0"] == used["omega1"] - used["omega2"]

    def test_missing_required_keys_named(self, tmp_path, capsys):
        code = main(["optics-cycle", "--omega1", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "missing required keys ['beta1', 'beta2']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        # the sector cap
        ["abstract-cycle", "--beta1", "1e-9", "--beta2", "1", "--omega1", "1", "--g", "0.1"],
        # no temperature gradient
        ["optics-cycle", "--beta1", "1", "--beta2", "0.5", "--omega1", "2"],
    ])
    def test_no_output_directory_on_a_usage_error(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "o"), "--no-color"]) == 2
        assert not (tmp_path / "o").exists()

    def test_delta_sweep_sector_cap_before_any_profile(self, tmp_path, capsys, monkeypatch):
        def unreachable(cfg):
            raise AssertionError("profile tables built before the sector cap")

        monkeypatch.setattr(cli, "uniform_exchange_profile", unreachable)
        code = main(["delta-sweep", "--n-max1", "2000000", "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cutoffs n_max1 = 2000000, n_max2 = 4 give more than the cap of "
            f"{engine.MAX_SECTORS} sectors\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, field", [
        (["optics-cycle", "--beta1", "nan", "--beta2", "1", "--omega1", "2"], "beta1"),
        (["optics-cycle", "--beta1", "nan", "--beta2", "1", "--omega1", "2",
          "--n-max1", "4", "--n-max2", "4"], "beta1"),
        (["optics-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
          "--detuning", "nan"], "delta"),
        (["delta-sweep", "--g1", "nan"], "g1"),
        (["delta-sweep", "--omega1", "nan"], "omega1"),
        (["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "inf",
          "--g", "0.1"], "omega1"),
        (["optics-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "inf"], "omega1"),
    ])
    def test_non_finite_input_named(self, tmp_path, capsys, argv, field):
        assert main([*argv, "--out", str(tmp_path / "o"), "--no-color"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite, got ")
        assert not (tmp_path / "o").exists()


class TestDeltaSweepCommand:
    def test_default_sweep_passes_bands(self, tmp_path):
        code = main(["delta-sweep", "--out", str(tmp_path), "--series", "--no-color"])
        assert code == 0
        report = load_report(tmp_path)
        assert report["checks"]["deviation_monotone"]["passed"]
        assert report["checks"]["deviation_slope_band"]["passed"]
        assert report["checks"]["leak_slope_band"]["passed"]
        assert report["checks"]["sampling_density"]["passed"]
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "delta,ratio,population_deviation,leak_max"
        assert len(lines) == 5

    def test_capped_sampling_fails_density_check(self, tmp_path):
        code = main(["delta-sweep", "--ratios", "20,640", "--out", str(tmp_path),
                     "--no-color"])
        assert code == 1
        report = load_report(tmp_path)
        density = report["checks"]["sampling_density"]
        assert not density["passed"]
        assert density["value"] < density["threshold"] == 8.0
        assert [p["samples"] for p in report["results"]["points"]][1] == 200_000

    def test_non_finite_ratio_is_usage_error(self, tmp_path):
        code = main(["delta-sweep", "--ratios", "20,40,inf", "--out", str(tmp_path),
                     "--no-color"])
        assert code == 2
        assert not (tmp_path / "report.json").exists()


    def test_probe_without_leak_reports_null_slope(self, tmp_path):
        # the vacuum row never reaches the upper level, so its leak series is
        # all zero and has no log-log slope
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["delta-sweep", "--ratios", "20,40", "--block", "0,2",
                         "--out", str(tmp_path), "--no-color"])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert report["results"]["leak_slope"] is None
        band = report["checks"]["leak_slope_band"]
        assert band["value"] is None and band["passed"] is False


class TestDesignCommand:
    def test_deterministic_reports(self, tmp_path):
        args = ["design", "--iterations", "800", "--seed", "42", "--no-color"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        ra = load_report(tmp_path / "a")
        rb = load_report(tmp_path / "b")
        ra.pop("wall_clock_seconds")
        rb.pop("wall_clock_seconds")
        # design_path differs only through the out directory
        ra["results"].pop("design_path")
        rb["results"].pop("design_path")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_design_file_round_trip(self, tmp_path):
        out1 = tmp_path / "first"
        assert main(["design", "--iterations", "500", "--seed", "7",
                     "--out", str(out1), "--no-color"]) == 0
        design_path = load_report(out1)["results"]["design_path"]
        out2 = tmp_path / "second"
        assert main(["design", "--design-in", design_path, "--iterations", "200",
                     "--out", str(out2), "--no-color"]) == 0
        report = load_report(out2)
        # warm start must not be worse than the stored best by construction
        assert report["results"]["best_cost"] <= load_report(out1)["results"]["best_cost"] + 1e-12

    def test_design_file_keeps_its_fit_size(self, tmp_path):
        design_path = tmp_path / "fit8.json"
        assert main(["design", "--n-fit", "8", "--iterations", "50",
                     "--design-out", str(design_path), "--out", str(tmp_path / "first"),
                     "--no-color"]) == 0
        out = tmp_path / "second"
        assert main(["design", "--design-in", str(design_path), "--iterations", "50",
                     "--out", str(out), "--no-color"]) == 0
        results = load_report(out)["results"]
        written = json.loads((out / "design.json").read_text())["result"]
        for tables in (results, written):
            assert len(tables["f_achieved"]) == len(tables["theta_achieved"]) == 8
        assert len(results["f_target"]) == 8

    def test_design_file_disagreeing_fit_size_rejected(self, tmp_path, capsys):
        design_path = tmp_path / "fit8.json"
        assert main(["design", "--n-fit", "8", "--iterations", "50",
                     "--design-out", str(design_path), "--out", str(tmp_path / "first"),
                     "--no-color"]) == 0
        capsys.readouterr()
        out = tmp_path / "second"
        code = main(["design", "--design-in", str(design_path), "--n-fit", "6",
                     "--iterations", "50", "--out", str(out), "--no-color"])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_fit 6" in err and "8 target entries" in err
        assert not (out / "report.json").exists()

    def test_design_file_workspace_short_of_fit_range(self, tmp_path, capsys):
        targets = DesignTargets.inverse_intensity(0.0125, 6, n_work=10)
        ansatz = PotentialAnsatz.zeros()
        design_path = tmp_path / "short.json"
        design_path.write_text(json.dumps({
            "ansatz": {"v_coeffs": ansatz.v_coeffs.tolist(),
                       "b_coeffs": ansatz.b_coeffs.tolist()},
            "targets": {"f": targets.f_target.tolist(),
                        "theta": targets.theta_target.tolist(),
                        "q": targets.q, "n_work": targets.n_work},
        }))
        code = main(["design", "--design-in", str(design_path), "--iterations", "50",
                     "--out", str(tmp_path / "out"), "--no-color"])
        assert code == 2
        assert "cannot reach fit index 6" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("ansatz", "v_coeffs"), ("ansatz", "b_coeffs"), ("targets", "f"), ("targets", "theta"),
    ])
    def test_design_file_missing_entry_named(self, tmp_path, capsys, section, key):
        targets = DesignTargets.inverse_intensity(0.0125, 6)
        ansatz = PotentialAnsatz.zeros()
        spec = {
            "ansatz": {"v_coeffs": ansatz.v_coeffs.tolist(), "b_coeffs": ansatz.b_coeffs.tolist()},
            "targets": {"f": targets.f_target.tolist(), "theta": targets.theta_target.tolist()},
        }
        del spec[section][key]
        design_path = tmp_path / "partial.json"
        design_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main(["design", "--design-in", str(design_path), "--iterations", "50",
                     "--out", str(out), "--no-color"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"lacks {section}.{key}" in err and str(design_path) in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--proposal-scale", "nan"],
        ["--proposal-scale", "inf"],
        ["--temperature", "nan"],
        ["--amplitude", "nan"],
    ])
    def test_non_finite_input_is_usage_error(self, tmp_path, flags):
        code = main(["design", "--iterations", "50", *flags, "--out", str(tmp_path),
                     "--no-color"])
        assert code == 2
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "design.json").exists()

    def test_trace_series(self, tmp_path):
        assert main(["design", "--iterations", "300", "--seed", "1",
                     "--out", str(tmp_path), "--series", "--no-color"]) == 0
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "iteration,cost"
        assert len(lines) == 302


class TestVerifySltoCommand:
    @pytest.fixture()
    def engine_matrices(self, tmp_path):
        cfg = CompactEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0, g=0.1, n_max1=4, n_max2=4)
        d = tmp_path / "mats"
        d.mkdir()
        layout = (cfg.n_max1 + 1, cfg.n_max2 + 1, 2)
        write_matrix_file(d / "u.txt", evolution_operator(cfg, cfg.tau).entries, layout)
        write_matrix_file(d / "h1.txt", np.diag(cfg.omega1 * np.arange(5)).astype(complex))
        write_matrix_file(d / "h2.txt", np.diag(cfg.omega2 * np.arange(5)).astype(complex))
        write_matrix_file(d / "hs.txt", np.diag([cfg.a0, cfg.a1]).astype(complex))
        return cfg, d

    def test_identity_unitary_passes(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        write_matrix_file(d / "id.txt", np.eye(50, dtype=complex), (5, 5, 2))
        code = main(["verify-slto", "--unitary", str(d / "id.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 0
        report = load_report(tmp_path / "o")
        for check in report["checks"].values():
            assert check["value"] <= 1e-12

    def test_engine_unitary_passes(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        code = main(["verify-slto", "--unitary", str(d / "u.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 0

    def test_random_unitary_fails_with_large_residual(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        rng = np.random.default_rng(3)
        a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
        q, r = np.linalg.qr(a)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        write_matrix_file(d / "rand.txt", u, (5, 5, 2))
        code = main(["verify-slto", "--unitary", str(d / "rand.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 1  # physics failure, report still written
        report = load_report(tmp_path / "o")
        assert report["checks"]["commutator_weighted"]["value"] > 1e-3
        assert not report["all_checks_passed"]

    @staticmethod
    def full_params(d) -> dict:
        return {"unitary": str(d / "u.txt"), "bath1": str(d / "h1.txt"),
                "bath2": str(d / "h2.txt"), "system": str(d / "hs.txt"),
                "beta1": 0.5, "beta2": 1.0}

    def test_config_file_supplies_required_keys(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(self.full_params(d)))
        code = main(["verify-slto", "--config", str(config),
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 0
        assert load_report(tmp_path / "o")["all_checks_passed"]

    def test_config_missing_key_named(self, tmp_path, engine_matrices, capsys):
        cfg, d = engine_matrices
        params = self.full_params(d)
        del params["beta2"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(params))
        code = main(["verify-slto", "--config", str(config),
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 2
        assert "missing required keys ['beta2']" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("flag, value", [("--beta1", "nan"), ("--beta2", "inf")])
    def test_non_finite_temperature_named(self, tmp_path, engine_matrices, capsys,
                                          flag, value):
        cfg, d = engine_matrices
        args = {"--beta1": "0.5", "--beta2": "1", flag: value}
        code = main(["verify-slto", "--unitary", str(d / "u.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), *[x for kv in args.items() for x in kv],
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 2
        assert f"{flag[2:]} must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_non_finite_matrix_entry_named(self, tmp_path, engine_matrices, capsys):
        cfg, d = engine_matrices
        h1 = np.diag(cfg.omega1 * np.arange(5)).astype(complex)
        h1[3, 3] = complex("nan+0j")
        write_matrix_file(d / "h1.txt", h1)
        code = main(["verify-slto", "--unitary", str(d / "u.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 2
        assert "h1.txt: non-finite entry in row 3" in capsys.readouterr().err

    def test_non_finite_temperature_rejected_by_api(self, engine_matrices):
        cfg, d = engine_matrices
        u, _ = read_matrix_file(d / "u.txt")
        h1, _ = read_matrix_file(d / "h1.txt")
        h2, _ = read_matrix_file(d / "h2.txt")
        hs, _ = read_matrix_file(d / "hs.txt")
        with pytest.raises(ConfigError, match="beta1 must be finite"):
            verify_slto(
                Operator(u), Operator(h1, hermitian_hint=True),
                Operator(h2, hermitian_hint=True), Operator(hs, hermitian_hint=True),
                math.nan, 1.0,
            )

    def test_weighted_system_dimension_mismatch_rejected_by_api(self, engine_matrices):
        cfg, d = engine_matrices
        u, _ = read_matrix_file(d / "u.txt")
        h1, _ = read_matrix_file(d / "h1.txt")
        h2, _ = read_matrix_file(d / "h2.txt")
        hs, _ = read_matrix_file(d / "hs.txt")
        with pytest.raises(ShapeError, match="weighted system term has dim 3, system has 2"):
            verify_slto(
                Operator(u), Operator(h1, hermitian_hint=True),
                Operator(h2, hermitian_hint=True), Operator(hs, hermitian_hint=True),
                0.5, 1.0, w_system=Operator(np.eye(3), hermitian_hint=True),
            )

    def test_layout_disagreement_rejected(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        write_matrix_file(d / "bad.txt", np.eye(50, dtype=complex), (10, 5))
        code = main(["verify-slto", "--unitary", str(d / "bad.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_non_positive_layout_factor_named(self, tmp_path, engine_matrices, capsys):
        cfg, d = engine_matrices
        (d / "bad.txt").write_text("4 -2 -2\n" + "1+0j 0+0j 0+0j 0+0j\n" * 4)
        code = main(self.verify_args(d, "bad.txt", tmp_path / "o"))
        assert code == 2
        assert "bad.txt: bad header '4 -2 -2'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_block_structure_api(self, engine_matrices):
        cfg, d = engine_matrices
        u, _ = read_matrix_file(d / "u.txt")
        h1, _ = read_matrix_file(d / "h1.txt")
        h2, _ = read_matrix_file(d / "h2.txt")
        hs, _ = read_matrix_file(d / "hs.txt")
        check = verify_slto(
            Operator(u), Operator(h1, hermitian_hint=True),
            Operator(h2, hermitian_hint=True), Operator(hs, hermitian_hint=True),
            0.5, 1.0,
        )
        assert check.passed
        assert check.off_block_max <= 1e-12
        assert check.fixed_point_residual <= 1e-12

    @staticmethod
    def verify_args(d, unitary: str, out) -> list[str]:
        return ["verify-slto", "--unitary", str(d / unitary),
                "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                "--out", str(out), "--no-color"]

    def test_non_unitary_input_fails_only_unitarity(self, tmp_path):
        export = tmp_path / "export"
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", "11", "--n-max2", "11",
                     "--export-matrices", str(export), "--out", str(tmp_path / "cycle"),
                     "--no-color"]) == 0
        for name, short in (("h_bath1", "h1"), ("h_bath2", "h2"), ("h_system", "hs")):
            (export / f"{name}.txt").rename(export / f"{short}.txt")
        assert main(self.verify_args(export, "u_tau.txt", tmp_path / "genuine")) == 0
        genuine = load_report(tmp_path / "genuine")
        assert genuine["results"]["unitarity_residual"] <= 1e-12

        u, layout = read_matrix_file(export / "u_tau.txt")
        corner = np.ravel_multi_index((11, 11, 1), layout)  # |11, 11, 1>
        u[corner, corner] *= 1.001
        write_matrix_file(export / "scaled.txt", u, layout)
        assert main(self.verify_args(export, "scaled.txt", tmp_path / "scaled")) == 1
        checks = load_report(tmp_path / "scaled")["checks"]
        assert [name for name, c in checks.items() if not c["passed"]] == ["unitarity"]
        assert checks["unitarity"]["value"] == pytest.approx(2.0e-3, rel=1e-3)

    def test_weighted_system_identity_shift_passes(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        write_matrix_file(d / "ws.txt", 0.3 * np.eye(2, dtype=complex))
        code = main([*self.verify_args(d, "u.txt", tmp_path / "o"),
                     "--weighted-system", str(d / "ws.txt")])
        assert code == 0

    def test_weighted_system_gap_fails_weighted_commutator(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        write_matrix_file(d / "ws.txt", np.diag([0.0, 1.0]).astype(complex))
        code = main([*self.verify_args(d, "u.txt", tmp_path / "o"),
                     "--weighted-system", str(d / "ws.txt")])
        assert code == 1
        checks = load_report(tmp_path / "o")["checks"]
        assert not checks["commutator_weighted"]["passed"]
        assert checks["commutator_energy"]["passed"]

    def test_weighted_system_dimension_mismatch_named(self, tmp_path, engine_matrices,
                                                      capsys):
        cfg, d = engine_matrices
        write_matrix_file(d / "ws.txt", np.eye(3, dtype=complex))
        code = main([*self.verify_args(d, "u.txt", tmp_path / "o"),
                     "--weighted-system", str(d / "ws.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ws.txt: weighted system term has dim 3" in err
        assert "hs.txt has dim 2" in err
        assert not (tmp_path / "o" / "report.json").exists()


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestVerifierAgainstDenseOracle:
    """The factored verifier against the dense embedding it replaced."""

    RESIDUALS = ("residual_energy", "residual_weighted", "off_block_max",
                 "fixed_point_residual", "unitarity_residual")

    def assert_matches_oracle(self, u, h1, h2, hs, beta1, beta2, w_system=None):
        check = verify_slto(
            Operator(u), Operator(h1, hermitian_hint=True), Operator(h2, hermitian_hint=True),
            Operator(hs, hermitian_hint=True), beta1, beta2,
            w_system=None if w_system is None else Operator(w_system, hermitian_hint=True),
        )
        oracle = dense_slto_residuals(u, h1, h2, hs, beta1, beta2, w_system)
        for name in self.RESIDUALS:
            value = getattr(check, name)
            assert abs(value - oracle[name]) <= 1e-12, name
            assert (value <= check.threshold) == (oracle[name] <= check.threshold), name
        assert check.passed == all(v <= check.threshold for v in oracle.values())
        return check

    @pytest.mark.parametrize("cutoff", [4, 8])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_exported_engine_unitary(self, tmp_path, cutoff, rotated):
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1",
                     "--omega1", "2", "--g", "0.3",
                     "--n-max1", str(cutoff), "--n-max2", str(cutoff),
                     "--export-matrices", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--no-color"]) == 0
        u, layout = read_matrix_file(tmp_path / "u_tau.txt")
        h1, h2, hs = (read_matrix_file(tmp_path / f"{name}.txt")[0]
                      for name in ("h_bath1", "h_bath2", "h_system"))
        if rotated:  # mix two states of different total energy, keeping U unitary
            i = np.ravel_multi_index((1, 0, 0), layout)
            j = np.ravel_multi_index((cutoff, 2, 1), layout)
            c, s = math.cos(1e-3), math.sin(1e-3)
            u[[i, j]] = c * u[i] - s * u[j], s * u[i] + c * u[j]
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.5, 1.0)
        assert check.passed is not rotated

    @pytest.mark.parametrize("dims, seed", [((3, 4, 2), 0), ((4, 3, 3), 1), ((2, 2, 2), 2)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_haar_unitary_with_generic_factors(self, dims, seed, weighted):
        rng = np.random.default_rng(seed)
        u = haar_unitary(math.prod(dims), rng)
        h1, h2, hs = (random_hermitian(d, rng) for d in dims)
        w_system = random_hermitian(dims[2], rng) if weighted else None
        if weighted:
            assert np.max(np.abs(hs @ w_system - w_system @ hs)) > 1e-3
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.7, 1.3, w_system)
        assert not check.passed

    @pytest.mark.parametrize("seed", [0, 3])
    def test_degenerate_total_spectrum_with_rotated_factors(self, seed):
        # spectra {0,1,2}, {0,1,2}, {0,1}: the summed energies 0..5 are degenerate, so
        # the factor basis and the dense eigh basis differ inside each eigenspace
        rng = np.random.default_rng(seed)
        factors = []
        for spectrum in ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 1.0]):
            q = haar_unitary(len(spectrum), rng)
            factors.append((q * spectrum) @ q.conj().T)
        check = self.assert_matches_oracle(haar_unitary(18, rng), *factors, 0.7, 1.3)
        assert check.off_block_max > 1.0


class TestRunExperimentApi:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment("nonsense", {}, tmp_path)

    def test_missing_required_param_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required keys"):
            run_experiment("verify-slto", {}, tmp_path)
        assert not (tmp_path / "report.json").exists()

    def test_unknown_param_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment("abstract-cycle", {"beta1": 0.5, "nope": 1}, tmp_path)

    def test_identical_reruns_are_byte_identical_modulo_wall_clock(self, tmp_path):
        params = {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
                  "n_max1": 3, "n_max2": 3}
        run_experiment("abstract-cycle", params, tmp_path, write_series=True)
        first_report = (tmp_path / "report.json").read_bytes()
        first_series = (tmp_path / "series.csv").read_bytes()
        run_experiment("abstract-cycle", params, tmp_path, write_series=True)
        second_report = (tmp_path / "report.json").read_bytes()

        def strip_wall_clock(raw: bytes) -> bytes:
            return b"\n".join(
                line for line in raw.splitlines() if b"wall_clock_seconds" not in line
            )

        assert strip_wall_clock(first_report) == strip_wall_clock(second_report)
        assert (tmp_path / "series.csv").read_bytes() == first_series

    def test_rerun_replaces_the_files_instead_of_rewriting_them(self, tmp_path):
        out = tmp_path / "out"
        params = {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
                  "n_max1": 3, "n_max2": 3}
        run_experiment("abstract-cycle", params, out, write_series=True)
        old = {}
        for name in ("report.json", "series.csv"):
            (tmp_path / name).hardlink_to(out / name)
            old[name] = (out / name).read_bytes()
        artifact = run_experiment("abstract-cycle", {**params, "g": 0.2}, out,
                                  write_series=True)
        for name in ("report.json", "series.csv"):
            assert (tmp_path / name).read_bytes() == old[name]
            assert not (out / name).samefile(tmp_path / name)
        assert load_report(out)["config"]["g"] == 0.2
        assert Path(artifact.series_path).read_bytes() != old["series.csv"]

    def test_symlinked_outputs_are_replaced_not_written_through(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "target.txt"
        target.write_text("kept\n")
        for name in ("report.json", "design.json"):
            (out / name).symlink_to(target)
        run_experiment("design", {"iterations": 20, "seed": 1}, out)
        assert target.read_text() == "kept\n"
        for name in ("report.json", "design.json"):
            assert not (out / name).is_symlink()
            json.loads((out / name).read_text())

    def test_fifo_design_out_is_written_through(self, tmp_path):
        fifo = tmp_path / "design.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["design", "--iterations", "20", "--design-out", str(fifo),
                         "--out", str(tmp_path / "out"), "--no-color"]) == 0
            assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
            written = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert "result" in json.loads(written)

    def test_chained_symlink_is_written_through(self, tmp_path):
        # like /dev/stdout -> /proc/self/fd/1 -> the file stdout goes to
        target = tmp_path / "target.json"
        target.write_text("old\n")
        (tmp_path / "hop").symlink_to(target)
        chain = tmp_path / "chain"
        chain.symlink_to(tmp_path / "hop")
        assert main(["design", "--iterations", "20", "--design-out", str(chain),
                     "--out", str(tmp_path / "out"), "--no-color"]) == 0
        assert chain.is_symlink() and (tmp_path / "hop").is_symlink()
        assert "result" in json.loads(target.read_text())

    def test_symlink_into_another_file_system_is_written_through(self, tmp_path, monkeypatch):
        # like /proc/self/fd/1 when stdout goes to a file
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        lstat = os.lstat

        def other_device(path, *args, **kwargs):
            fields = list(lstat(path, *args, **kwargs))
            if Path(path) == link:
                fields[stat.ST_DEV] += 1
            return os.stat_result(fields)

        monkeypatch.setattr(cli.os, "lstat", other_device)
        assert main(["design", "--iterations", "20", "--design-out", str(link),
                     "--out", str(tmp_path / "out"), "--no-color"]) == 0
        assert link.is_symlink()
        assert "result" in json.loads(target.read_text())

    def test_file_that_cannot_be_removed_is_rewritten_in_place(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        argv = ["abstract-cycle", "--beta1", "0.5", "--beta2", "1.0", "--omega1", "2.0",
                "--n-max1", "3", "--n-max2", "3", "--out", str(out), "--no-color"]
        assert main([*argv, "--g", "0.1"]) == 0
        (tmp_path / "link.json").hardlink_to(out / "report.json")

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli.os, "unlink", refuse)
        assert main([*argv, "--g", "0.2"]) == 0
        assert (out / "report.json").samefile(tmp_path / "link.json")
        assert load_report(out)["config"]["g"] == 0.2

    @pytest.mark.parametrize("kind, params", [
        ("abstract-cycle", {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
                            "n_max1": 3, "n_max2": 4}),
        ("delta-sweep", {"ratios": [20.0, 40.0]}),
        ("design", {"iterations": 40, "seed": 2}),
    ])
    def test_series_rows_keep_17_significant_digits(self, tmp_path, kind, params):
        _, _, series = KINDS[kind].runner(params, tmp_path / "direct")
        artifact = run_experiment(kind, params, tmp_path / "run", write_series=True)
        lines = Path(artifact.series_path).read_text().splitlines()
        expected = [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                    for row in series]
        assert lines[1:] == expected

    def test_artifact_paths(self, tmp_path):
        artifact = run_experiment(
            "abstract-cycle",
            {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
             "n_max1": 3, "n_max2": 3},
            tmp_path, write_series=True,
        )
        assert artifact.all_checks_passed
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "series.csv").exists()
        assert artifact.tool_version == json.loads(
            (tmp_path / "report.json").read_text()
        )["tool_version"]

    def test_report_written_even_on_physics_failure(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q, r = np.linalg.qr(a)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        write_matrix_file(tmp_path / "u.txt", u, (2, 2, 2))
        write_matrix_file(tmp_path / "h1.txt", np.diag([0.0, 2.0]).astype(complex))
        write_matrix_file(tmp_path / "h2.txt", np.diag([0.0, 1.0]).astype(complex))
        write_matrix_file(tmp_path / "hs.txt", np.diag([0.0, 1.0]).astype(complex))
        artifact = run_experiment(
            "verify-slto",
            {"unitary": str(tmp_path / "u.txt"), "bath1": str(tmp_path / "h1.txt"),
             "bath2": str(tmp_path / "h2.txt"), "system": str(tmp_path / "hs.txt"),
             "beta1": 0.5, "beta2": 1.0},
            tmp_path / "out",
        )
        assert not artifact.all_checks_passed
        assert (tmp_path / "out" / "report.json").exists()
