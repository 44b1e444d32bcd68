import json
import math

import numpy as np
import pytest

from sltosim.cli import (
    ConfigError,
    main,
    read_matrix_file,
    run_experiment,
    verify_slto,
    write_matrix_file,
)
from sltosim.engine import CompactEngineConfig, evolution_operator
from sltosim.linalg import Operator


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


class TestAbstractCycleCommand:
    def test_reference_run(self, tmp_path, capsys):
        code = main([
            "abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
            "--omega2", "1", "--g", "0.05", "--out", str(tmp_path), "--no-color",
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
        cfg = CompactEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0, omega2=1.0,
                                  g=0.1, n_max1=4, n_max2=4)
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

    def test_layout_disagreement_rejected(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        write_matrix_file(d / "bad.txt", np.eye(50, dtype=complex), (10, 5))
        code = main(["verify-slto", "--unitary", str(d / "bad.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2

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
