import itertools
import json
import os
import subprocess
import sys
import threading

import pytest

import moranfield
import moranfield.engine
import moranfield.simplex
from moranfield import cli, lab
from moranfield.cli import RunConfig, main
from moranfield.errors import ConfigurationError
from moranfield.report import read_report, write_report
from moranfield.transport import EXACT_SIZE_CAP


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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is about a third of the package's start-up time and memory,
    # and no module of the package uses it; the bootstrap runs on threads, so
    # nothing needs multiprocessing either
    src = os.path.dirname(os.path.dirname(moranfield.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, moranfield.cli; "
        "print([name in sys.modules for name in ('scipy.stats', 'multiprocessing')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[False, False]"


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

    @pytest.mark.parametrize(
        "flag, config",
        [(["--k", "0"], {"resolution": 10}), (["--k", "-5"], {}), ([], {"resolution": -5})],
    )
    def test_resolution_below_one_rejected(self, tmp_path, capsys, flag, config):
        # --k 0 must not fall back to the config's resolution
        cfg = write_config(tmp_path / "cfg.json", **config)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out), *flag]) == 2
        assert "'resolution'" in capsys.readouterr().err
        assert not out.exists()

    def test_k_flag_overrides_config_and_is_recorded(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", resolution=10)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out), "--k", "12"]) == 0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 14
        assert json.loads((out / "manifest.json").read_text())["config"]["resolution"] == 12

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

    def test_regime_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", alpha=1.0, beta=0.5, resolutions=[8, 16])
        out = tmp_path / "out"
        argv = ["regimes", "--config", str(cfg), "--dry-run", "--output-dir", str(out)]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3
        assert not out.exists()

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

    def test_wall_clock_stays_outside_the_payload(self, tmp_path):
        # the command times the run; the digest covers the payload only
        cfg = write_config(tmp_path / "cfg.json", resolutions=[8], ensemble_size=8)
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--output-dir", str(out)]) == 0
        seconds = json.loads((out / "report.json").read_text())["wall_clock_seconds"]
        assert isinstance(seconds, float) and seconds > 0
        payload = read_report(out / "report.json")
        assert "wall_clock_seconds" not in payload and payload["resolutions"][0]["k"] == 8

    def test_zero_w1_leaves_the_final_ratio_undefined(self, tmp_path, capsys):
        # a vertex is a fixed point of chain and flow, so W1 is 0 at every k
        cfg = write_config(
            tmp_path / "cfg.json",
            resolutions=[8, 16],
            initial_law={"kind": "dirac", "point": [1.0, 0.0]},
        )
        out = tmp_path / "out"
        code = main(["converge", "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"])
        assert code == 0
        assert "final ratio undefined (threshold 0.5) at t=1" in capsys.readouterr().out
        first_k = read_report(out / "report.json")["resolutions"][0]
        assert first_k["checkpoints"][-1]["w1_to_limit"] == 0.0

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
        code = main(["regimes", "--config", str(cfg), "--output-dir", str(out)])
        assert code == 0
        assert (out / "regimes.json").exists()

    def test_subcritical_alpha_rejected_citing_threshold(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", alpha=0.4, beta=0.6, resolutions=[8, 16])
        code = main(["converge", "--config", str(cfg)])
        assert code == 2
        assert "critical" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"payoff_matrix": [[1.0, 2.0], [float("nan"), 4.0]]}, ["'payoff_matrix'", "(1, 0)"]),
            ({"payoff_matrix": [[1.0, float("inf")], [3.0, 4.0]]}, ["'payoff_matrix'", "(0, 1)"]),
            (
                {"initial_law": {"kind": "dirac", "point": [float("nan"), 1.0]}},
                ["'initial_law.point'", "nan"],
            ),
            (
                {"initial_law": {"kind": "dirichlet", "concentration": [1.0, float("inf")]}},
                ["'initial_law.concentration'", "inf"],
            ),
        ],
    )
    def test_non_finite_matrix_or_law_rejected(self, tmp_path, capsys, overrides, named):
        cfg = write_config(tmp_path / "cfg.json", resolutions=[8], **overrides)
        assert main(["converge", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert all(part in err for part in named), err
        assert not (tmp_path / "o").exists()

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
        assert "wall_clock_seconds" not in data


class TestResidual:
    def test_floor_flow_runs_once_per_node_set(self, tmp_path, monkeypatch):
        # k = 128 (stride 1) and k = 512 (stride 4) share 129 nodes: one flow
        # pass of 129 pushforwards over both floor replica sets stacked,
        # whatever the number of k and phi
        calls = []
        real = lab.pushforward

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lab, "pushforward", counting)
        cfg = write_config(tmp_path / "cfg.json", resolutions=[128, 512], ensemble_size=8)
        argv = ["residual", "--config", str(cfg), "--output-dir", str(tmp_path / "o"), "--jobs", "1"]
        assert main(argv) == 0
        assert len(calls) == 129

    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (0.4, 0.4)])
    def test_exponents_with_no_flow_limit_exit_2_before_any_chain(
        self, tmp_path, capsys, monkeypatch, alpha, beta
    ):
        # frozen and divergent exponents have no flow limit to compare against
        def unreachable(*args):
            raise AssertionError("a chain ran before the regime was checked")

        monkeypatch.setattr(lab, "run_ensemble", unreachable)
        monkeypatch.setattr(cli, "run_ensemble", unreachable)
        cfg = write_config(
            tmp_path / "cfg.json", alpha=alpha, beta=beta, resolutions=[16, 32], ensemble_size=4
        )
        out = tmp_path / "out"
        assert main(["residual", "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert "alpha + beta = 1 with alpha > 1/2" in capsys.readouterr().err
        assert not out.exists()

    def test_opens_no_process_pool(self, tmp_path, monkeypatch):
        # residual has no assignment solves, so --jobs leaves it in one thread
        def refuse(*args, **kwargs):
            raise AssertionError("residual started a thread")

        monkeypatch.setattr(threading, "Thread", refuse)
        cfg = write_config(
            tmp_path / "cfg.json", resolutions=[16], ensemble_size=16, quadrature_stride=1
        )
        argv = ["residual", "--config", str(cfg), "--output-dir", str(tmp_path / "o"), "--jobs", "2"]
        assert main(argv) == 0

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

    @pytest.mark.parametrize("ks", [[0, 8], [8, -16], "64", [8, "x"], [8.7, 16]])
    def test_bad_resolutions_rejected(self, tmp_path, capsys, ks):
        code, out = self.run_converge(tmp_path, resolutions=ks)
        assert code == 2
        assert "resolutions" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("horizon", "abc"),
            ("alpha", [0.6]),
            ("master_seed", "seed"),
            ("checkpoints", [0.5, "end"]),
            ("verdict", {"final_ratio": "half"}),
        ],
    )
    def test_non_numeric_value_named_at_load(self, tmp_path, capsys, key, value):
        code, out = self.run_converge(tmp_path, resolutions=[8, 16], **{key: value})
        assert code == 2
        assert f"'{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_floor", "n_scale", "w_scale", "resolution"])
    def test_lazily_read_value_rejected_at_load(self, tmp_path, capsys, key):
        overrides = {"resolution": 10, key: "x"}
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert f"config key '{key}' must be numeric" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            ("simulate", {"n_floor": 1}, "n_floor"),
            ("simulate", {"w_scale": -1}, "w_scale"),
            ("simulate", {"alpha": -1}, "alpha"),
            ("converge", {"verdict": {"final_checkpoint": 0.3}}, "verdict.final_checkpoint"),
            ("converge", {"ensemble_size": 5000}, "ensemble_size"),
            ("regimes", {"ensemble_size": 5000, "alpha": 1.0, "beta": 0.5}, "ensemble_size"),
            ("converge", {"checkpoints": []}, "checkpoints"),
            ("residual", {"quadrature_stride": -1}, "quadrature_stride"),
            # k = 8 and 16 at stride 2 give 5 and 9 quadrature nodes
            ("residual", {"quadrature_stride": 2}, "quadrature_stride"),
            # float() reads these as nan or inf; 1e999 is the JSON spelling of inf
            ("simulate", {"w_scale": "nan"}, "w_scale"),
            ("simulate", {"horizon": "inf"}, "horizon"),
            ("simulate", {"horizon": 1e999}, "horizon"),
            ("simulate", {"n_scale": "inf"}, "n_scale"),
            ("simulate", {"alpha": "nan"}, "alpha"),
            ("converge", {"checkpoints": ["nan"]}, "checkpoints"),
            ("converge", {"verdict": {"final_ratio": "inf"}}, "verdict.final_ratio"),
            ("converge", {"flow_step": 0}, "flow_step"),
            ("residual", {"flow_step": -0.1}, "flow_step"),
            ("converge", {"master_seed": -2}, "master_seed"),
            ("simulate", {"master_seed": -1}, "master_seed"),
            # int() would truncate these, while the manifest records them as given
            ("converge", {"ensemble_size": 8.9}, "ensemble_size"),
            ("converge", {"master_seed": 3.5}, "master_seed"),
            ("simulate", {"resolution": 10.5}, "resolution"),
            ("simulate", {"n_floor": 2.5}, "n_floor"),
            ("simulate", {"quadrature_stride": 1.5}, "quadrature_stride"),
            # a JSON boolean is not a number, though int() and float() read it as 1
            ("simulate", {"resolution": True}, "resolution"),
            ("simulate", {"master_seed": True}, "master_seed"),
            ("simulate", {"horizon": True}, "horizon"),
            ("converge", {"checkpoints": [True]}, "checkpoints"),
            ("converge", {"resolutions": [True, 16]}, "resolutions"),
            ("converge", {"verdict": {"final_ratio": False}}, "verdict.final_ratio"),
            # read before the flag that overrides it, so a bad value never waits for the run
            ("simulate", {"output_dir": 5}, "output_dir"),
            ("converge", {"output_dir": ["o"]}, "output_dir"),
            ("converge", {"payoff_matrix": [[True, 2.0], [3.0, 4.0]]}, "payoff_matrix"),
            ("simulate", {"payoff_matrix": [[1.0, 2.0], [3.0, False]]}, "payoff_matrix"),
            # refused before any ensemble, with the resolutions check
            ("converge", {"checkpoints": [0.5, 0.5, 1.0]}, "checkpoints"),
            ("regimes", {"resolutions": [16, 16]}, "resolutions"),
            ("residual", {"resolutions": [32, 16]}, "resolutions"),
            # a population of 2**53 or more: float64 counts would lose a +-1 step
            ("simulate", {"n_scale": 1e18}, "n_scale"),
            ("simulate", {"n_scale": 1e308, "alpha": 2}, "n_scale"),
            ("residual", {"n_floor": 2**53}, "n_floor"),
            # tau = horizon / k is 0.0, whose negative power raised ZeroDivisionError
            ("regimes", {"horizon": 5e-324}, "horizon"),
            ("simulate", {"horizon": 5e-324}, "horizon"),
            # an explicit list is checked against the horizon
            ("simulate", {"horizon": 0.5, "checkpoints": [1.0]}, "checkpoints"),
            # a null is an absent key; each command names the keys it needs
            ("simulate", {"resolution": None}, "'resolution'"),
            ("residual", {"resolutions": None}, "'resolutions'"),
            ("converge", {"resolutions": []}, "'resolutions'"),
            ("converge", {"initial_law": None}, "'initial_law'"),
            ("converge", {"initial_law": 5}, "'initial_law'"),
            ("converge", {"verdict": [0.5]}, "'verdict'"),
            ("converge", {"initial_law": {"kind": "dirac", "point": None}}, "'initial_law.point'"),
        ],
    )
    def test_out_of_range_value_rejected_at_load(self, tmp_path, capsys, command, overrides, key):
        # each of these fails at load or before any chain step, naming the key
        overrides = {"resolution": 10, "resolutions": [8, 16], **overrides}
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "converge", "regimes", "residual"])
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_unusable_output_dir_rejected_before_any_chain(
        self, tmp_path, capsys, monkeypatch, command, source
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a chain ran before the output directory was made")

        monkeypatch.setattr(lab, "run_ensemble", unreachable)
        monkeypatch.setattr(cli, "run_ensemble", unreachable)
        monkeypatch.setattr(cli, "simulate", unreachable)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out")
        overrides = {"resolution": 10, "resolutions": [16, 32]}
        if source == "config":
            overrides["output_dir"] = out
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        argv = [command, "--config", str(cfg), "--jobs", "1"]
        if source == "flag":
            argv += ["--output-dir", out]
        if source == "env":
            monkeypatch.setenv(cli.OUTPUT_DIR_ENV, out)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'output_dir'" in err and out in err, err

    @pytest.mark.parametrize(
        "command, name",
        [
            ("simulate", "trajectory.csv"),
            ("simulate", "trajectory_sidecar.json"),
            ("simulate", "manifest.json"),
            ("converge", "report.json"),
            ("converge", "report.csv"),
            ("converge", "manifest.json"),
            ("regimes", "regimes.json"),
            ("regimes", "regimes.csv"),
            ("regimes", "manifest.json"),
            ("residual", "residual.json"),
            ("residual", "manifest.json"),
        ],
    )
    def test_output_file_that_is_a_directory_rejected_before_any_chain(
        self, tmp_path, capsys, monkeypatch, command, name
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a chain ran before the output files were checked")

        monkeypatch.setattr(lab, "run_ensemble", unreachable)
        monkeypatch.setattr(cli, "run_ensemble", unreachable)
        monkeypatch.setattr(cli, "simulate", unreachable)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = write_config(tmp_path / "cfg.json", resolution=10, resolutions=[16, 32])
        argv = [command, "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'output_dir'" in err and str(out / name) in err, err

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    @pytest.mark.parametrize(
        "command, overrides, keys",
        [
            ("converge", {"ensemble_size": EXACT_SIZE_CAP + 1}, ["ensemble_size"]),
            ("regimes", {"ensemble_size": EXACT_SIZE_CAP + 1}, ["ensemble_size"]),
            ("converge", {"n_scale": 1e18}, ["n_scale", "alpha"]),
            ("regimes", {"n_scale": 1e18}, ["n_scale", "alpha"]),
            ("regimes", {"n_scale": 1e308, "alpha": 2}, ["n_scale", "alpha"]),
            ("regimes", {"resolutions": None}, ["'resolutions'"]),
        ],
    )
    def test_sweep_refused_before_any_chain_or_schedule_line(
        self, tmp_path, capsys, monkeypatch, dry_run, command, overrides, keys
    ):
        def unreachable(*args):
            raise AssertionError("a chain ran before the sweep was checked")

        monkeypatch.setattr(lab, "run_ensemble", unreachable)
        monkeypatch.setattr(cli, "run_ensemble", unreachable)
        cfg = write_config(tmp_path / "cfg.json", **{"resolutions": [8, 16], **overrides})
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"]
        assert main(argv + dry_run) == 2
        captured = capsys.readouterr()
        assert all(key in captured.err for key in keys), captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "regimes", "residual"])
    def test_default_checkpoints_follow_the_horizon(self, tmp_path, command):
        cfg = write_config(
            tmp_path / "cfg.json",
            horizon=0.5,
            checkpoints=None,
            resolution=8,
            resolutions=[32, 64],
            ensemble_size=4,
        )
        assert RunConfig.load(str(cfg), {}).checkpoints == [0.125, 0.25, 0.5]
        argv = [command, "--config", str(cfg), "--output-dir", str(tmp_path / "o"), "--jobs", "1"]
        assert main(argv) == 0

    def test_an_overflowing_weight_power_is_a_weight_of_one(self, tmp_path, capsys):
        # tau**beta = 1e300**2 overflowed a float power: OverflowError, exit 1
        cfg = write_config(
            tmp_path / "cfg.json", horizon=1e300, beta=2, resolutions=[1, 2], checkpoints=None
        )
        assert main(["regimes", "--dry-run", "--config", str(cfg)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows[0][:4] == ["k", "tau_k", "N_k", "w_k"]
        assert [row[2:4] for row in rows[1:]] == [["2", "1"], ["2", "1"]]

    def test_default_checkpoints_keep_the_config_hash(self):
        # at the default horizon the default is the fixed [0.25, 0.5, 1.0] it replaced
        config = RunConfig(
            {
                "payoff_matrix": [[1.0, 2.0], [3.0, 4.0]],
                "initial_law": {"kind": "dirichlet", "concentration": [2.0, 2.0]},
            }
        )
        assert config.data["checkpoints"] == [0.25, 0.5, 1.0]
        assert config.sha256() == (
            "1e47ebb5b20b191b48219ce4559025fb4e55ba7279112416008eb4984c078c43"
        )

    # a column spread of 1e9 caps the flow step at 2.5e-10, so horizon 1 needs
    # more than flow.MAX_STEPS steps
    STIFF = [[1e9, 0.0], [0.0, 1e9]]

    @pytest.mark.parametrize(
        "command, extra, keys",
        [
            ("converge", {}, ["'payoff_matrix'"]),
            ("residual", {}, ["'payoff_matrix'"]),
            ("converge", {"flow_step": 1e-3}, ["'payoff_matrix'", "'flow_step'"]),
            ("residual", {"flow_step": 1e-3}, ["'payoff_matrix'", "'flow_step'"]),
        ],
    )
    def test_flow_step_cap_out_of_reach_rejected_before_any_chain(
        self, tmp_path, capsys, monkeypatch, command, extra, keys
    ):
        def unreachable(*args):
            raise AssertionError("a chain ran before the flow's step count was checked")

        monkeypatch.setattr(lab, "run_ensemble", unreachable)
        monkeypatch.setattr(cli, "run_ensemble", unreachable)
        cfg = write_config(
            tmp_path / "cfg.json",
            payoff_matrix=self.STIFF,
            resolutions=[16, 32],
            ensemble_size=8,
            **extra,
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err
        assert "flow steps" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "regimes"])
    def test_commands_without_a_flow_accept_a_stiff_matrix(self, tmp_path, command):
        cfg = write_config(
            tmp_path / "cfg.json",
            payoff_matrix=self.STIFF,
            alpha=1.0,
            beta=0.5,
            resolution=16,
            resolutions=[16, 32],
            ensemble_size=8,
        )
        argv = [command, "--config", str(cfg), "--output-dir", str(tmp_path / "o"), "--jobs", "1"]
        assert main(argv) == 0

    def test_integral_float_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", resolutions=[8.0, 16], ensemble_size=12.0)
        config = RunConfig.load(str(cfg), {})
        assert (config.ensemble_size, config.resolutions) == (12, [8, 16])

    def test_null_inside_an_object_takes_its_default(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            resolutions=[8, 16],
            verdict={"final_ratio": None, "final_checkpoint": None},
            initial_law={"kind": "dirac", "point": [0.25, 0.75], "dimension": None},
        )
        config = RunConfig.load(str(cfg), {})
        assert config.verdict == {"max_consecutive_ratio": 1.2, "final_ratio": 0.5}
        assert config.law.to_dict() == {"kind": "dirac", "dimension": 2, "point": [0.25, 0.75]}
        assert main(["converge", "--dry-run", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize(
        "law",
        [
            lab.InitialLaw.dirac([0.2, 0.3, 0.5]),
            lab.InitialLaw.dirichlet([2.0, 3.0, 1.0]),
            lab.InitialLaw.uniform(3),
        ],
    )
    def test_initial_law_round_trips_through_the_config(self, law):
        matrix = [[1.0, 2.0, 0.5], [3.0, 4.0, 1.0], [0.5, 1.0, 2.0]]
        config = RunConfig({"payoff_matrix": matrix, "initial_law": law.to_dict()})
        assert config.to_dict()["initial_law"] == law.to_dict()

    @pytest.mark.parametrize(
        "law, key",
        [
            ({"kind": "dirichlet", "concentraton": [2.0, 2.0]}, "initial_law.concentraton"),
            ({"kind": "dirac", "point": [1.0, 0.0], "concentration": [1.0, 1.0]},
             "initial_law.concentration"),
            ({"kind": "uniform", "dimension": 2, "point": [0.5, 0.5]}, "initial_law.point"),
            ({"kind": "dirac"}, "initial_law.point"),
            ({"point": [1.0, 0.0]}, "initial_law.kind"),
            # a JSON boolean is not a number, though float() reads true as 1.0
            ({"kind": "dirac", "point": [True, False]}, "initial_law.point"),
            ({"kind": "dirichlet", "concentration": [True, 2.0]}, "initial_law.concentration"),
            # int() would truncate 2.5; a given dimension must match the law's
            ({"kind": "uniform", "dimension": 2.5}, "initial_law.dimension"),
            ({"kind": "uniform", "dimension": True}, "initial_law.dimension"),
            ({"kind": "dirac", "point": [1.0, 0.0], "dimension": 7}, "initial_law.dimension"),
            ({"kind": "dirichlet", "concentration": [2.0, 2.0], "dimension": 3},
             "initial_law.dimension"),
        ],
    )
    def test_unknown_law_key_named(self, tmp_path, capsys, law, key):
        code, out = self.run_converge(tmp_path, resolutions=[8, 16], initial_law=law)
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_values_checked_not_rewritten(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            resolution=10,
            n_floor=3,
            n_scale="1.5",
            initial_law={"kind": "uniform", "dimension": 2},
        )
        data = RunConfig.load(str(cfg), {}).to_dict()
        assert (data["n_floor"], data["n_scale"]) == (3, "1.5")

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

    def test_config_file_that_is_not_an_object_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]\n")
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
        assert "JSON object" in capsys.readouterr().err


class TestValidate:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_passes_with_any_seed(self, seed, capsys):
        assert main(["validate", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert out.count("[ ok ]") == 5

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_rejected_at_parse_time(self, seed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "--seed", seed])
        assert exit_info.value.code == 2
        assert "argument --seed" in capsys.readouterr().err

    # a large value is not tested: it would start that many threads
    @pytest.mark.parametrize("jobs", ["0", "-1", "x"])
    def test_bad_jobs_is_rejected_at_parse_time(self, jobs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["converge", "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err

    def test_jobs_default_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        # as under ``taskset -c 0`` on a 2-CPU host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli.build_parser().parse_args(["converge"]).jobs == 1
        # a platform with no affinity call falls back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli.build_parser().parse_args(["converge"]).jobs == 2

    def test_fails_without_self_interaction_correction(self, monkeypatch, capsys):
        # the transition oracle enumerates pairs itself, so a payoff formula
        # that lets an individual meet itself must not pass
        def mean_field(lam, entries, population, w):
            pay = entries @ lam
            return pay, (1.0 - w) + w * pay

        monkeypatch.setattr(moranfield.simplex, "payoff_fitness", mean_field)
        monkeypatch.setattr(moranfield.engine, "payoff_fitness", mean_field)
        assert main(["validate", "--seed", "0"]) == 1
        assert "[FAIL] transition normalization & exactness" in capsys.readouterr().out


SWEEPS = {
    "converge": ({}, "report.json", ("resolutions", 0, "checkpoints", 0, "w1_to_limit")),
    "regimes": ({"alpha": 1.0, "beta": 0.5}, "regimes.json", ("records", 0, "w1_start_end")),
    "residual": ({"resolutions": [16], "quadrature_stride": 1}, "residual.json",
                 ("records", 0, "residual")),
}


def run_sweep(tmp_path, command, **extra):
    overrides, name, _ = SWEEPS[command]
    cfg = write_config(tmp_path / "cfg.json", **{"resolutions": [8, 16], **overrides, **extra})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"]) == 0
    return out / name


class TestReports:
    @pytest.mark.parametrize("command", sorted(SWEEPS))
    def test_read_report_checks_schema_and_digest(self, tmp_path, command):
        path = run_sweep(tmp_path, command)
        payload = read_report(path)
        write_report(tmp_path / "again.json", payload)
        assert read_report(tmp_path / "again.json") == payload
        doc = json.loads(path.read_text())
        *parents, leaf = SWEEPS[command][2]
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] *= 1.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="payload_digest"):
            read_report(path)
        with pytest.raises(ConfigurationError, match="schema"):
            read_report(path.parent / "manifest.json")

    @pytest.mark.parametrize("command, records", [("converge", "resolutions"), ("regimes", "records")])
    def test_sweep_honours_n_floor(self, tmp_path, command, records):
        # tau^-alpha is below 50 at k = 8 and 16, so the floor sets N
        payload = read_report(run_sweep(tmp_path, command, n_floor=50))
        assert [rec["population"] for rec in payload[records]] == [50, 50]

    @pytest.mark.parametrize("command", ["converge", "regimes"])
    def test_bootstrap_on_two_jobs_forks_no_process(self, tmp_path, monkeypatch, command):
        # the bootstrap's assignment solves run on threads of this process
        def refuse():
            raise AssertionError(f"{command} forked a process")

        monkeypatch.setattr(os, "fork", refuse)
        overrides, name, _ = SWEEPS[command]
        cfg = write_config(tmp_path / "cfg.json", **{"resolutions": [8, 16], **overrides})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output-dir", str(out), "--jobs", "2"]) == 0
        assert (out / name).exists()

    @pytest.mark.parametrize("command", ["converge", "regimes"])
    def test_one_job_starts_no_thread(self, tmp_path, monkeypatch, command):
        # --jobs counts the calling thread, which then solves every resample
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} started a thread at --jobs 1")

        monkeypatch.setattr(threading, "Thread", refuse)
        overrides, name, _ = SWEEPS[command]
        cfg = write_config(tmp_path / "cfg.json", **{"resolutions": [8, 16], **overrides})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output-dir", str(out), "--jobs", "1"]) == 0
        assert (out / name).exists()


class TestStreams:
    def test_spawn_keys_pinned(self):
        # report digests depend on these keys; they must never move
        pinned = {
            "initial": ((5,), (5, 0)),
            "chain": ((5,), (5, 1)),
            "converge_bootstrap": ((2, 64), (2, 66)),
            "regimes_bootstrap": ((64,), (64, 2)),
            "residual_bootstrap": ((), (0, 3)),
            "floor_bootstrap": ((), (1, 3)),
            "floor_dt": ((5,), (5, 10)),
            "floor_adv": ((5,), (5, 11)),
            "floor_initial": ((5,), (5, 12)),
        }
        assert {name: make(*pinned[name][0]) for name, make in lab.STREAMS.items()} == {
            name: key for name, (_, key) in pinned.items()
        }

    @pytest.mark.parametrize(
        "command, streams",
        [
            ("converge", {"initial", "chain", "converge_bootstrap"}),
            ("regimes", {"initial", "chain", "regimes_bootstrap"}),
            ("residual", {"initial", "chain", "residual_bootstrap", "floor_bootstrap",
                          "floor_dt", "floor_adv", "floor_initial"}),
        ],
    )
    def test_streams_of_a_command_are_disjoint(self, tmp_path, monkeypatch, command, streams):
        drawn = {}
        real = lab._rng

        def recording(master_seed, stream, *index):
            drawn.setdefault(stream, set()).add(lab.STREAMS[stream](*index))
            return real(master_seed, stream, *index)

        monkeypatch.setattr(lab, "_rng", recording)
        run_sweep(tmp_path, command)
        assert set(drawn) == streams
        for a, b in itertools.combinations(sorted(drawn), 2):
            assert not drawn[a] & drawn[b], (a, b, drawn[a] & drawn[b])


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
