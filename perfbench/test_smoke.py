"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload end to end (timed and traced) on tiny inputs, checks the
result line against BENCHMARK.json, checks that the tracer restores every
original, exercises the compare mode, and checks that the benchmark fails
without printing a result when the program's source is absent.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=str(cwd), capture_output=True, text=True,
                          timeout=timeout)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_contract():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert len(SPEC["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload, tmp_path):
    out = tmp_path / "runs.jsonl"
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                          "--trace", "0", "--size", "tiny", "--out", str(out)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(out.read_text())
    assert record["env"]["blas_threads_cap"] <= record["env"]["nproc"]


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_run("--workload", "mdp", "--seed", "3", "--seconds", "0.2",
                          "--trace", "1", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ("core", "models", "experience", "mdp", "recipes", "bundles"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["numpy.linalg.calls"] > 0
    assert metrics["recipes.wgan.dev"] == -1.0  # not an mdp recipe
    assert 0 <= metrics["recipes.policy-gradient.dev"] <= 1e-8


def test_every_recipe_runs_in_some_workload():
    import sekit.recipes

    covered = {r for w in workloads.WORKLOADS for r in workloads.recipes_of(w)}
    assert covered == {r.name for r in sekit.recipes.registry()}


def test_same_seed_gives_same_outcomes_and_different_seed_new_inputs():
    import sekit
    import sekit.recipes
    from sekit.bundles import load_bundle

    a = workloads.generate("teacher_student", 5, "tiny")
    b = workloads.generate("teacher_student", 5, "tiny")
    c = workloads.generate("teacher_student", 6, "tiny")
    assert json.dumps(a, default=repr) == json.dumps(b, default=repr)
    assert json.dumps(a, default=repr) != json.dumps(c, default=repr)
    bundles = workloads.load(a, load_bundle)
    capture = workloads.RunCapture(sekit.recipes, sekit)
    try:
        jobs = workloads.jobs("teacher_student", 5, "tiny")
        first = [workloads.run_job(j, bundles, sekit.recipes.check_equivalence,
                                   capture) for j in jobs]
        second = [workloads.run_job(j, bundles, sekit.recipes.check_equivalence,
                                    capture) for j in jobs]
    finally:
        capture.close()
    assert all(o.passed for o in first), [o for o in first if not o.passed]
    assert [o.fingerprint for o in first] == [o.fingerprint for o in second]
    assert sekit.recipes.run_recipe is sekit.run_recipe


def _snapshot():
    import numpy as np
    import sekit

    mods = [sys.modules["sekit"]] + [sys.modules[f"sekit.{m}"] for m in tracer.LAYERS]
    snap = {}
    for mod in mods + [np.linalg]:
        for k, v in vars(mod).items():
            snap[(mod.__name__, k)] = v
            if isinstance(v, type) and v.__module__.startswith("sekit"):
                for ck, cv in vars(v).items():
                    snap[(mod.__name__, k, ck)] = cv
    return snap


def test_tracer_wraps_every_binding_and_restores_originals():
    import numpy as np
    import sekit.core as core
    import sekit.models as models

    before = _snapshot()
    with tracer.Tracer() as t:
        # the name bound by `from .core import normalize_log` is wrapped too
        divergence = sys.modules["sekit.divergence"]
        assert divergence.normalize_log is core.normalize_log
        assert core.normalize_log is not before[("sekit.core", "normalize_log")]
        assert models.logsumexp is not before[("sekit.models", "logsumexp")]
        core.Dist.uniform(4)
        np.linalg.norm(np.ones(3))
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    totals = t.totals()
    assert totals["core.calls"] >= 2  # Dist.uniform, then the Dist constructor
    assert totals["numpy.linalg.calls"] == 1
    assert len(t.start) == sum(totals[f"{c}.calls"] for c in t.categories)


def _record(workload, trace, **metrics):
    return json.dumps({"workload": workload, "trace": trace, "result": {
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}})


def test_compare_flags_regressions_and_unresolved(tmp_path, capsys):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text("\n".join(
        [_record("adversarial", 0, wall_s=1.0 + i / 1000, setup_s=1.0,
                 peak_rss_mb=50.0) for i in range(5)]
        + [_record("mdp", 0, wall_s=w, setup_s=1.0, peak_rss_mb=50.0)
           for w in (1.0, 1.5, 2.0, 2.5, 3.0)]) + "\n")
    new.write_text("\n".join(
        [_record("adversarial", 0, wall_s=2.0 + i / 1000, setup_s=1.0,
                 peak_rss_mb=50.0) for i in range(5)]
        + [_record("mdp", 0, wall_s=w, setup_s=1.0, peak_rss_mb=50.0)
           for w in (2.0, 2.5, 3.0, 3.5, 4.0)]) + "\n")
    assert compare.main(base, new) == 1
    out = capsys.readouterr().out.splitlines()
    adv = next(line for line in out if line.startswith("adversarial"))
    mdp = next(line for line in out if line.startswith("mdp"))
    assert re.search(r"wall_s 1\.998x of 1\.002 \[REGRESSED\]", adv)
    assert "setup_s 1.000x of 1 [ok]" in adv
    assert "wall_s" in mdp and "[unresolved]" in mdp
    assert compare.main(base, base) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mdp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
