import csv
import glob
import json
import os

import numpy as np
import pytest

from sekit.cli import main
from sekit.recipes import registry

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture
def workspace(tmp_path):
    """A temp directory with a toy dataset bundle and a run config."""
    bundle = {
        "dataset": {"labels": [f"t{i}" for i in range(6)],
                    "counts": [3, 0, 5, 1, 7, 2]}
    }
    (tmp_path / "toy.json").write_text(json.dumps(bundle))
    cfg = {"recipe": "supervised-mle", "problem": "toy.json", "seed": 0}
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    return tmp_path


class TestRun:
    def test_success_and_outputs(self, workspace):
        out = workspace / "out"
        code = main(["run", "--config", str(workspace / "run.json"),
                     "--out", str(out)])
        assert code == 0
        for name in ("trace.csv", "trace.json", "final_model.json",
                     "resolved_config.json"):
            assert (out / name).exists()
        model = json.loads((out / "final_model.json").read_text())
        emp = np.array([3, 0, 5, 1, 7, 2]) / 18.0
        assert np.max(np.abs(np.array(model["distribution"]) - emp)) <= 1e-6

    @pytest.mark.parametrize("key", ["mystery_knob", "overrides"])
    def test_unknown_key_names_it(self, workspace, capsys, key):
        cfg = {"recipe": "supervised-mle", "problem": "toy.json", key: 3}
        (workspace / "bad.json").write_text(json.dumps(cfg))
        code = main(["run", "--config", str(workspace / "bad.json")])
        assert code == 1
        assert key in capsys.readouterr().err

    def test_unknown_recipe(self, workspace, capsys):
        cfg = {"recipe": "alchemy", "problem": "toy.json"}
        (workspace / "bad.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(workspace / "bad.json")]) == 1

    def test_missing_config(self):
        assert main(["run", "--config", "/nonexistent/x.json"]) == 1

    def test_byte_identical_reruns(self, workspace):
        a, b = workspace / "a", workspace / "b"
        assert main(["run", "--config", str(workspace / "run.json"),
                     "--out", str(a)]) == 0
        assert main(["run", "--config", str(workspace / "run.json"),
                     "--out", str(b)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()

    def test_seed_env_fallback(self, workspace, monkeypatch):
        cfg = {"recipe": "supervised-mle", "problem": "toy.json"}
        (workspace / "noseed.json").write_text(json.dumps(cfg))
        monkeypatch.setenv("SEKIT_SEED", "42")
        out = workspace / "envout"
        assert main(["run", "--config", str(workspace / "noseed.json"),
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 42

    def test_override(self, workspace):
        out = workspace / "ovr"
        assert main(["run", "--config", str(workspace / "run.json"),
                     "--override", "seed=7", "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 7

    def test_resolved_config_reproduces(self, workspace):
        out1 = workspace / "r1"
        assert main(["run", "--config", str(workspace / "run.json"),
                     "--out", str(out1)]) == 0
        # feed the resolved config back; problem path must resolve, so copy it
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        resolved["problem"] = str(workspace / "toy.json")
        (workspace / "again.json").write_text(json.dumps(resolved))
        out2 = workspace / "r2"
        assert main(["run", "--config", str(workspace / "again.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def _run_bundle(self, tmp_path, recipe, bundle, params):
        cfg = {"recipe": recipe, "seed": 0, "params": params,
               "problem": os.path.abspath(os.path.join(CONFIG_DIR, bundle))}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main(["run", "--config", str(tmp_path / "run.json"),
                     "--out", str(out)])
        return code, json.loads((out / "trace.json").read_text())

    def test_fixed_iteration_recipe_exits_zero_unconverged(self, tmp_path):
        # EM runs its fixed iteration count: finishing the loop is success
        code, trace = self._run_bundle(tmp_path, "unsupervised-mle",
                                       "mixture.json", {})
        assert trace["converged"] is False
        assert code == 0

    def test_unconverged_gan_exits_two(self, tmp_path):
        code, trace = self._run_bundle(tmp_path, "wgan", "gan_target.json",
                                       {"iters": 5})
        assert trace["converged"] is False
        assert code == 2

    def test_negative_alpha_exits_one(self, tmp_path, capsys):
        cfg = {"recipe": "unified-em", "seed": 0,
               "params": {"alpha": -1.0, "iters": 5},
               "problem": os.path.abspath(os.path.join(CONFIG_DIR, "mixture.json"))}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "run.json"),
                     "--out", str(out)]) == 1
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rewards, override, word", [
        ([[0.5]] * 3, None, "rewards"),  # K = 1
        ([], None, "rewards"),  # T = 0
        ([[0.1, 0.9]] * 3, "params.alpha=NaN", "alpha"),
        ([[0.1, 0.9]] * 3, "params.alpha=Infinity", "alpha"),
        ([[0.1, 0.9]] * 3, "params.alpha=0", "alpha"),
    ])
    def test_mw_bad_input_exits_one(self, tmp_path, capsys, rewards, override,
                                    word):
        (tmp_path / "experts.json").write_text(json.dumps({"rewards": rewards}))
        cfg = {"recipe": "multiplicative-weights", "seed": 0,
               "problem": str(tmp_path / "experts.json")}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        argv = ["run", "--config", str(tmp_path / "run.json"),
                "--out", str(tmp_path / "out")]
        if override:
            argv += ["--override", override]
        assert main(argv) == 1
        assert word in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_numeric_param_override_exits_one(self, tmp_path, capsys):
        cfg = {"recipe": "multiplicative-weights", "seed": 0,
               "problem": os.path.abspath(os.path.join(CONFIG_DIR,
                                                       "experts.json"))}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "run.json"), "--out",
                     str(out), "--override", "params.alpha=abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: params.alpha must be a number")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["4", True, {"n": 4}, [4, "x"],
                                       [[1.0], [None]]])
    def test_param_that_is_not_numeric_exits_one(self, workspace, capsys,
                                                 value):
        cfg = {"recipe": "unified-em", "problem": "toy.json",
               "params": {"iters": value}}
        (workspace / "run.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(workspace / "run.json"),
                     "--out", str(workspace / "out")]) == 1
        assert "params.iters must be a number" in capsys.readouterr().err

    def test_numeric_params_pass_validation(self, tmp_path):
        # numbers, null and nested lists of numbers reach the runner
        cfg = {"recipe": "unsupervised-mle", "seed": 0,
               "params": {"iters": 3, "alpha": None,
                          "init_mix": [-0.5, -1.0],
                          "init_comp": [[-1.0] * 5, [-2.0] * 5]},
               "problem": {"dataset": {"labels": list("abcde"),
                                       "counts": [12, 8, 15, 5, 10]},
                           "n_components": 2}}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "out")]) == 0

    def test_relative_problem_flag_resolves_against_cwd(self, workspace,
                                                        monkeypatch):
        # the config's own "problem" key stays relative to the config file
        (workspace / "configs").mkdir()
        (workspace / "bundles").mkdir()
        (workspace / "toy.json").rename(workspace / "bundles" / "toy.json")
        (workspace / "run.json").rename(workspace / "configs" / "run.json")
        monkeypatch.chdir(workspace)
        code = main(["run", "--config", os.path.join("configs", "run.json"),
                     "--problem", os.path.join("bundles", "toy.json"),
                     "--out", "out"])
        assert code == 0
        assert (workspace / "out" / "trace.csv").exists()

    def test_gan_with_no_finite_classifier_exits_two(self, tmp_path, capsys):
        # a zero-mass target point: the optimal classifier there is infinite
        p = [0.1] * 10
        p[2], p[3] = 0.0, 0.2
        cfg = {"recipe": "vanilla-gan", "problem": {"p_data": p}, "seed": 0}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        code = main(["run", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "optimal classifier is infinite" in capsys.readouterr().err

    @pytest.mark.parametrize("recipe, bundle, word", [
        ("supervised-mle", {"dataset": {"labels": ["a", "b"]}}, "'dataset'"),
        ("supervised-mle", [[1]], "JSON object"),
        ("policy-gradient", {"mdp": {"states": 2}}, "'mdp'"),
        ("supervised-mle", {"dataset": {"labels": ["a", "b"],
                                        "counts": {"a": 1}}}, "'dataset'"),
        ("active-learning", {"pool": {"labels": ["a", "b", "c"],
                                      "counts": [1, 2, 3]},
                             "oracle_labels": [0, 1], "utility": [0, 0, 0]},
         "oracle_labels"),
        ("active-learning", {"pool": {"labels": ["a", "b", "c"],
                                      "counts": [1, 2, 3]},
                             "oracle_labels": [0, 1, 1], "utility": [0, 0]},
         "utility"),
        ("policy-gradient", {"mdp": {
            "states": 2, "actions": 1, "gamma": 0.5, "p0": [1, 0],
            "rewards": [1, 1], "transitions": [[0, 0, -1, 1.0],
                                               [1, 0, 1, 1.0]]}}, "'mdp'"),
    ])
    def test_malformed_bundle_exits_one(self, tmp_path, capsys, recipe,
                                        bundle, word):
        (tmp_path / "bundle.json").write_text(json.dumps(bundle))
        cfg = {"recipe": recipe, "problem": "bundle.json"}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert word in err[0]

    @pytest.mark.parametrize("recipe, bundle, params, message", [
        ("unified-em", "mixture.json", {"iters": 0},
         "error: max_iters must be a whole number >= 1, got 0"),
        ("unified-em", "mixture.json", {"iters": -1},
         "error: max_iters must be a whole number >= 1, got -1"),
        ("unified-em", "mixture.json", {"iters": 2.5},
         "error: max_iters must be a whole number >= 1, got 2.5"),
        ("wgan", "gan_target.json", {"iters": 2.5},
         "error: iters must be a whole number >= 1, got 2.5"),
        ("interpolation-schedule", "interp.json", {"iters_per_stage": 0},
         "error: max_iters must be a whole number >= 1, got 0"),
    ])
    def test_bad_iteration_count_exits_one(self, tmp_path, capsys, recipe,
                                           bundle, params, message):
        cfg = {"recipe": recipe, "seed": 0, "params": params,
               "problem": os.path.abspath(os.path.join(CONFIG_DIR, bundle))}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "run.json"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    def test_unknown_param_exits_one(self, workspace, capsys):
        cfg = {"recipe": "supervised-mle", "problem": "toy.json",
               "params": {"iters": 3}}
        (workspace / "run.json").write_text(json.dumps(cfg))
        out = workspace / "out"
        assert main(["run", "--config", str(workspace / "run.json"),
                     "--out", str(out)]) == 1
        assert "'iters'" in capsys.readouterr().err
        assert not out.exists()


class TestCheck:
    def test_pass_exit_zero(self, workspace, capsys):
        code = main(["check", "--recipe", "supervised-mle",
                     "--problem", str(workspace / "toy.json"),
                     "--tol", "1e-6"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_relative_problem_resolves_against_cwd(self, workspace,
                                                   monkeypatch):
        (workspace / "bundles").mkdir()
        (workspace / "toy.json").rename(workspace / "bundles" / "toy.json")
        monkeypatch.chdir(workspace)
        code = main(["check", "--recipe", "supervised-mle",
                     "--problem", os.path.join("bundles", "toy.json"),
                     "--tol", "1e-6"])
        assert code == 0

    def test_fail_exit_three(self, workspace, capsys):
        code = main(["check", "--recipe", "supervised-mle",
                     "--problem", str(workspace / "toy.json"),
                     "--tol", "1e-30"])
        assert code == 3

    def test_tolerance_zero_on_a_bit_exact_contract(self, capsys):
        # the unified EM and the hand-coded EM run the same arithmetic, so
        # --tol 0 passes; MW's log-space engine is held to 1e-13 against
        # the round-by-round Hedge in test_solver instead
        code = main(["check", "--recipe", "unified-em",
                     "--problem", os.path.join(CONFIG_DIR, "mixture.json"),
                     "--tol", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["max_deviation"] == 0.0

    def test_mw_bad_rewards_exit_one(self, tmp_path, capsys):
        (tmp_path / "experts.json").write_text(json.dumps(
            {"rewards": [[0.5], [0.5]]}))
        code = main(["check", "--recipe", "multiplicative-weights",
                     "--problem", str(tmp_path / "experts.json"),
                     "--tol", "1e-12"])
        assert code == 1
        assert "rewards" in capsys.readouterr().err

    @pytest.mark.parametrize("recipe", [r.name for r in registry()])
    def test_every_configs_bundle_ends_cleanly(self, recipe, capsys):
        # on each bundle in configs/ a check passes (0), fails (3) or says in
        # one error line why it cannot run (1); none ends in a traceback
        for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
            with open(path) as fh:
                if "recipe" in json.load(fh):
                    continue  # a run config, not a bundle
            code = main(["check", "--recipe", recipe, "--problem", path,
                         "--tol", "1e-6"])
            out, err = capsys.readouterr()
            assert code in (0, 1, 3), path
            if code == 1:
                assert len(err.splitlines()) == 1, path
                assert err.startswith("error: "), path
            else:
                assert json.loads(out)["recipe"] == recipe

    def test_check_names_a_missing_bundle_field(self, capsys):
        code = main(["check", "--recipe", "ppo-gan", "--problem",
                     os.path.join(CONFIG_DIR, "experts.json"), "--tol", "1e-6"])
        assert code == 1
        assert capsys.readouterr().err == "error: bundle is missing: p_data\n"

    def test_unknown_recipe_exit_one(self, workspace):
        assert main(["check", "--recipe", "alchemy",
                     "--problem", str(workspace / "toy.json"),
                     "--tol", "1"]) == 1

    def test_incompatible_oracle_exit_one(self, workspace):
        assert main(["check", "--recipe", "supervised-mle", "--oracle", "hedge",
                     "--problem", str(workspace / "toy.json"),
                     "--tol", "1"]) == 1


class TestSweep:
    def make_sweep(self, tmp_path, grid):
        bundle = {
            "dataset": {"labels": [f"t{i}" for i in range(5)],
                        "counts": [3, 1, 5, 1, 2]},
            "payoff": np.random.default_rng(0).normal(size=(5, 5)).tolist(),
        }
        (tmp_path / "prob.json").write_text(json.dumps(bundle))
        cfg = {"recipe": "interpolation-schedule", "problem": "prob.json",
               "seed": 0, "grid": grid}
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        return tmp_path / "sweep.json"

    def test_grid_cross_product(self, tmp_path):
        cfg = self.make_sweep(tmp_path,
                              {"params.iters_per_stage": [4, 6],
                               "seed": [0, 1]})
        out = tmp_path / "sweep_out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 5  # header + 4 cells
        subdirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(subdirs) == 4
        for sub in subdirs:
            assert (sub / "trace.csv").exists()

    def test_relative_problem_flag_resolves_against_cwd(self, tmp_path,
                                                        monkeypatch):
        cfg = self.make_sweep(tmp_path, {"seed": [0, 1]})
        (tmp_path / "configs").mkdir()
        cfg.rename(tmp_path / "configs" / "sweep.json")
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", "--config", os.path.join("configs", "sweep.json"),
                     "--problem", "prob.json", "--out", "o"])
        assert code == 0
        assert len((tmp_path / "o" / "summary.csv").read_text()
                   .strip().splitlines()) == 3

    def test_jobs_flag_exit_one(self, tmp_path):
        # cells run in order; the removed --jobs flag is a usage error
        cfg = self.make_sweep(tmp_path, {"seed": [0]})
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--jobs", "4"]) == 1

    def test_empty_grid_exit_one(self, tmp_path):
        cfg = self.make_sweep(tmp_path, {})
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        cfg = self.make_sweep(tmp_path, {"seed": []})
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "o2")]) == 1

    def test_partial_failure_exit_two(self, tmp_path):
        cfg = self.make_sweep(tmp_path,
                              {"params.iters_per_stage": [4, -1]})
        out = tmp_path / "sweep_out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        summary = (out / "summary.csv").read_text()
        assert "failed" in summary
        assert "ok" in summary

    def test_summary_reports_this_sweeps_totals(self, tmp_path):
        # a cell that fails now reports no total, even where an earlier
        # sweep into the same --out left a trace behind
        cfg = self.make_sweep(tmp_path, {"params.iters_per_stage": [4, 6]})
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        first = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[-1] for row in first)
        (tmp_path / "experts.json").write_text(
            json.dumps({"rewards": [[0.1, 0.9]] * 3}))
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--problem", str(tmp_path / "experts.json")]) == 2
        rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert row.split(",")[2].startswith("failed: bundle is missing")
            assert row.split(",")[-1] == ""

    def test_summary_total_is_the_trace_total(self, tmp_path):
        cfg = self.make_sweep(tmp_path, {"params.iters_per_stage": [4]})
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        row = (out / "summary.csv").read_text().strip().splitlines()[1]
        trace = next(out.glob("cell_000_*")) / "trace.csv"
        last = trace.read_text().strip().splitlines()[-1]
        assert row.split(",")[-1] == last.split(",")[4]

    def test_non_numeric_param_cell_fails(self, tmp_path):
        cfg = self.make_sweep(tmp_path, {"params.iters_per_stage": [4, "six"]})
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert rows[0].split(",")[2] == "ok"
        assert rows[1].split(",")[2].startswith(
            "failed: params.iters_per_stage must be a number")

    def test_summary_keeps_a_list_valued_cell_in_one_field(self, tmp_path):
        cfg = {"recipe": "unsupervised-mle", "seed": 0, "params": {"iters": 3},
               "problem": {"dataset": {"labels": list("abcde"),
                                       "counts": [12, 8, 15, 5, 10]}},
               "grid": {"params.init_mix": [[-0.5, -1.0], [-1.0, -0.5]],
                        "seed": [0, 1]}}
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(tmp_path / "sweep.json"),
                     "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cell", "params.init_mix", "seed", "status",
                           "final_total"]
        assert len(rows) == 5
        assert all(len(row) == len(rows[0]) for row in rows)
        assert [row[1] for row in rows[1:3]] == ["[-0.5, -1.0]"] * 2
        assert {row[3] for row in rows[1:]} == {"ok"}

    def test_non_object_params_cell_fails(self, tmp_path):
        # each cell passes the same validation as a `run` config
        cfg = self.make_sweep(tmp_path, {"params": [3]})
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        row = (out / "summary.csv").read_text().strip().splitlines()[1]
        assert row.split(",")[2] == "failed: 'params' must be an object"


class TestUsage:
    def test_missing_subcommand_exit_one(self):
        assert main([]) == 1

    def test_bad_override_exit_one(self, workspace):
        assert main(["run", "--config", str(workspace / "run.json"),
                     "--override", "notkeyvalue"]) == 1
