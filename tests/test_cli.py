import json
import os

import pytest

from moranfield.cli import RunConfig, main


def write_config(path, **overrides):
    config = {
        "payoff_matrix": [[1.0, 2.0], [3.0, 4.0]],
        "initial_law": {"kind": "dirichlet", "concentration": [2.0, 2.0]},
        "horizon": 1.0,
        "alpha": 0.6,
        "beta": 0.4,
        "ensemble_size": 16,
        "checkpoints": [0.5, 1.0],
        "master_seed": 11,
    }
    config.update(overrides)
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


class TestSimulate:
    def test_minimal_run_row_count(self, tmp_path, capsys):
        # n_scale chosen so k=10 gives N=8 at alpha=0.6
        cfg = write_config(
            tmp_path / "cfg.json", resolution=10, n_scale=8.0 / 10**0.6
        )
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 12  # header + 11 grid rows
        assert "N=8" in capsys.readouterr().out
        assert (out / "manifest.json").exists()
        assert (out / "trajectory_sidecar.json").exists()

    def test_same_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", resolution=12)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "trajectory_sidecar.json").read_bytes() == (
            out2 / "trajectory_sidecar.json"
        ).read_bytes()

    def test_absorbing_initial_state_constant_file(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            resolution=10,
            initial_law={"kind": "dirac", "point": [1.0, 0.0]},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        values = {tuple(r.split(",")[1:]) for r in rows}
        assert len(values) == 1

    def test_missing_resolution_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2

    def test_config_not_mutated(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", resolution=10)
        before = cfg.read_bytes()
        main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert cfg.read_bytes() == before


class TestConverge:
    def test_dry_run_prints_schedule(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", resolutions=[8, 16, 32])
        code = main(["converge", "--config", str(cfg), "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tau_k" in out and "N_k" in out and "w_k" in out
        assert len(out.strip().splitlines()) == 4

    def test_small_run_writes_report_and_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", resolutions=[8, 16], ensemble_size=12)
        out = tmp_path / "out"
        code = main(
            ["converge", "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith(("PASS", "FAIL"))
        assert (out / "report.json").exists()
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "k,t,w1,ci,w1_bar_gap,n_k,w_k,tau_k"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"]

    def test_supercritical_sum_rejected_without_regime_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", alpha=1.0, beta=0.5, resolutions=[8, 16])
        code = main(["converge", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "FAIL" in capsys.readouterr().err

    def test_supercritical_allowed_with_regime_flag(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", alpha=1.0, beta=0.5, resolutions=[8, 16], ensemble_size=8
        )
        out = tmp_path / "out"
        code = main(
            ["converge", "--config", str(cfg), "--regime", "--output-dir", str(out)]
        )
        assert code == 0
        assert (out / "regimes.json").exists()

    def test_subcritical_alpha_rejected_citing_threshold(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", alpha=0.4, beta=0.6, resolutions=[8, 16])
        code = main(["converge", "--config", str(cfg)])
        assert code == 2
        assert "critical" in capsys.readouterr().err

    def test_negative_payoff_entry_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", payoff_matrix=[[1.0, -2.0], [3.0, 4.0]], resolutions=[8]
        )
        code = main(["converge", "--config", str(cfg)])
        assert code == 2
        assert "(0, 1)" in capsys.readouterr().err


class TestRegimes:
    def test_run_and_outputs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", alpha=1.0, beta=0.5, resolutions=[8, 16], ensemble_size=8
        )
        out = tmp_path / "out"
        code = main(["regimes", "--config", str(cfg), "--output-dir", str(out)])
        assert code == 0
        assert "frozen" in capsys.readouterr().out
        data = json.loads((out / "regimes.json").read_text())
        assert [r["k"] for r in data["records"]] == [8, 16]


class TestResidual:
    def test_small_run(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", resolutions=[16], ensemble_size=16, quadrature_stride=1
        )
        out = tmp_path / "out"
        code = main(
            ["residual", "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"]
        )
        assert code == 0
        data = json.loads((out / "residual.json").read_text())
        assert len(data["records"]) == 3
        assert {r["phi"] for r in data["records"]} == {
            "linear_window",
            "bilinear_window2",
            "cubic_window",
        }


class TestConfigValidation:
    def run_converge(self, tmp_path, *extra, **overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        argv = ["converge", "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"]
        return main(argv + list(extra)), out

    def test_unknown_key_named(self, tmp_path, capsys):
        code, out = self.run_converge(tmp_path, resolutions=[8, 16], ensemble_szie=64)
        assert code == 2
        assert "'ensemble_szie'" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_unknown_verdict_key_named(self, tmp_path, capsys):
        code, _ = self.run_converge(
            tmp_path, resolutions=[8, 16], verdict={"final_raito": 0.5}
        )
        assert code == 2
        assert "verdict.final_raito" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [1, 0, -4])
    def test_tiny_ensemble_rejected_at_load(self, tmp_path, capsys, size):
        code, out = self.run_converge(tmp_path, resolutions=[8, 16], ensemble_size=size)
        assert code == 2
        assert "ensemble_size" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_ensemble_flag_rejected(self, tmp_path, capsys):
        code, _ = self.run_converge(tmp_path, "--ensemble-size", "1", resolutions=[8, 16])
        assert code == 2
        assert "ensemble_size" in capsys.readouterr().err

    @pytest.mark.parametrize("ks", [[0, 8], [8, -16], "64", [8, "x"]])
    def test_bad_resolutions_rejected(self, tmp_path, capsys, ks):
        code, out = self.run_converge(tmp_path, resolutions=ks)
        assert code == 2
        assert "resolutions" in capsys.readouterr().err
        assert not out.exists()

    def test_config_hash_unchanged_for_valid_config(self, tmp_path):
        # residual.json and manifest.json carry this hash; reports made
        # before load-time validation existed must keep matching it
        cfg = write_config(
            tmp_path / "cfg.json", resolutions=[8, 16], verdict={"final_ratio": 0.6}
        )
        config = RunConfig.load(str(cfg), {})
        assert config.sha256() == (
            "4824ab2ed6fe768e62f6d9a4b55f6906f9fd7fa5c8b11f6102382c2091c9861d"
        )


class TestValidate:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_passes_with_any_seed(self, seed, capsys):
        assert main(["validate", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert out.count("[ ok ]") == 5


class TestPrecedence:
    def test_flag_overrides_config_seed(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", resolution=10)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--output-dir", str(out1), "--seed", "77"])
        main(["simulate", "--config", str(cfg), "--output-dir", str(out2)])
        side1 = json.loads((out1 / "trajectory_sidecar.json").read_text())
        side2 = json.loads((out2 / "trajectory_sidecar.json").read_text())
        assert side1["seed"] == 77
        assert side2["seed"] == 11

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", resolution=8)
        target = tmp_path / "from-env"
        monkeypatch.setenv("MORANFIELD_OUTPUT_DIR", str(target))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (target / "trajectory.csv").exists()
