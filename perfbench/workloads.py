"""Workload definitions: seeded bundle generators and the job list of each
workload.

A job is one `check_equivalence` call (the recipe run plus its oracle) at a
pinned tolerance.  Where tests/test_acceptance.py runs the same check, the
tolerance here is the same or tighter.  Bundles that have a canonical file in
configs/ are loaded from it; every other bundle is generated from the
workload seed as a JSON-style payload and handed to `load_bundle`.
"""
from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

WORKLOADS = ("adversarial", "mdp", "teacher_student")

# Problem sizes.  "full" is what BENCHMARK.json measures; "tiny" keeps every
# job and every code path but shrinks the inputs (and the WGAN loop, whose
# GAN target is a fixed config file), for the smoke test.
SIZES = {
    "full": {
        "mdp": [(50, 4), (400, 8)],
        "mdp_successors": 10,
        "n_mle": 100_000,
        "em_x": 1000, "em_k": 4,
        "pr_x": 200, "pr_y": 10,
        "n_payoff": 2000,
        "self_x": 200, "self_y": 20,
        "pool": 2000, "pool_labels": 5,
        "kd_x": 300, "kd_y": 10,
        "wgan_iters": 3000,
    },
    "tiny": {
        "mdp": [(6, 2)],
        "mdp_successors": 3,
        "n_mle": 50,
        "em_x": 8, "em_k": 2,
        "pr_x": 4, "pr_y": 3,
        "n_payoff": 12,
        "self_x": 4, "self_y": 3,
        "pool": 10, "pool_labels": 3,
        "kd_x": 5, "kd_y": 3,
        "wgan_iters": 100,
    },
}


@dataclass(frozen=True)
class Job:
    """One oracle check: recipe vs oracle on a named bundle at a tolerance.

    `gates` are extra pass conditions on the report's details, for the
    acceptance criteria that bound more than the check's max deviation.
    """

    label: str
    recipe: str
    oracle: str
    bundle: str
    tolerance: float
    seed: int
    params: dict = field(default_factory=dict)
    gates: Dict[str, float] = field(default_factory=dict)


def _rng(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per bundle, so adding a bundle leaves others as is."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _counts(rng: np.random.Generator, n: int, high: int = 9) -> List[int]:
    counts = rng.integers(0, high, n)
    counts[rng.integers(n)] += 1  # never empty
    return counts.tolist()


def _random_mdp(rng: np.random.Generator, S: int, A: int, successors: int) -> dict:
    """Sparse random MDP payload: each (s, a) reaches `successors` states."""
    k = min(successors, S)
    triples = []
    for s in range(S):
        for a in range(A):
            nxt = rng.choice(S, size=k, replace=False)
            probs = rng.dirichlet(np.ones(k))
            triples.extend([s, a, int(t), float(p)] for t, p in zip(nxt, probs))
    p0 = rng.dirichlet(np.ones(S))
    return {
        "mdp": {"states": S, "actions": A, "transitions": triples,
                "rewards": rng.random((S, A)).tolist(), "gamma": 0.9,
                "p0": p0.tolist()},
        "extras": {"intrinsic_rewards": (0.1 * rng.random((S, A))).tolist()},
    }


def generate(workload: str, seed: int, size: str = "full") -> Dict[str, object]:
    """Bundle payloads for a workload: a config path or a JSON-style dict.

    Deterministic in (workload, seed, size).  Large dense matrices are passed
    as arrays; `load_bundle` converts every field with np.asarray either way.
    """
    z = SIZES[size]
    if workload == "adversarial":
        return {"gan": str(CONFIGS / "gan_target.json"),
                "experts": str(CONFIGS / "experts.json")}
    if workload == "mdp":
        out: Dict[str, object] = {"gridworld": str(CONFIGS / "gridworld.json")}
        for S, A in z["mdp"]:
            out[f"sa{S * A}"] = _random_mdp(_rng(seed, f"mdp{S}x{A}"), S, A,
                                            z["mdp_successors"])
        return out
    if workload != "teacher_student":
        raise ValueError(f"unknown workload {workload!r}")
    out = {}
    r = _rng(seed, "mle")
    n = z["n_mle"]
    out["mle"] = {"domain": n, "dataset": {"counts": _counts(r, n)}}
    out["weighted"] = {"domain": n, "dataset": {
        "counts": _counts(r, n), "weights": (r.random(n) + 0.1).tolist()}}
    r = _rng(seed, "em")
    nx = z["em_x"]
    out["em"] = {"domain": nx, "dataset": {"counts": _counts(r, nx, 20)},
                 "n_components": z["em_k"], "extras": {"alpha": 0.5}}
    r = _rng(seed, "posterior-regularization")
    nx, ny = z["pr_x"], z["pr_y"]
    out["pr"] = {
        "product": {"x_labels": [f"x{i}" for i in range(nx)],
                    "y_labels": [f"y{j}" for j in range(ny)]},
        "dataset": {"labels": [f"x{i}" for i in range(nx)],
                    "counts": _counts(r, nx)},
        "rule": {"atoms": {"A": r.random(nx * ny).tolist()},
                 "expr": ["implies", ["atom", "A"], ["const", 0.3]],
                 "weight": 2.0},
    }
    r = _rng(seed, "payoff")
    n = z["n_payoff"]
    out["payoff"] = {"domain": n, "dataset": {"counts": _counts(r, n)},
                     "payoff": r.normal(size=(n, n))}
    r = _rng(seed, "self-supervised")
    nx, ny = z["self_x"], z["self_y"]
    out["self"] = {
        "product": {"x_labels": [f"x{i}" for i in range(nx)],
                    "y_labels": [f"y{j}" for j in range(ny)]},
        "dataset": {"on_product": True, "counts": _counts(r, nx * ny)},
    }
    r = _rng(seed, "active")
    n = z["pool"]
    out["active"] = {
        "pool": {"labels": [f"x{i}" for i in range(n)], "counts": _counts(r, n)},
        "oracle_labels": r.integers(0, z["pool_labels"], n).tolist(),
        "utility": r.random(n).tolist(), "select_lambda": 2.0,
    }
    r = _rng(seed, "distillation")
    nx, ny = z["kd_x"], z["kd_y"]
    out["kd"] = {
        "dataset": {"labels": [f"x{i}" for i in range(nx)],
                    "counts": _counts(r, nx)},
        "source_model": {"x_labels": [f"x{i}" for i in range(nx)],
                         "y_labels": [f"y{j}" for j in range(ny)],
                         "logits": r.normal(size=(nx, ny)).tolist()},
    }
    return out


def load(payloads: Dict[str, object], load_bundle: Callable) -> Dict[str, object]:
    """Turn generated payloads into bundles through the program's loader."""
    return {key: load_bundle(p) for key, p in payloads.items()}


def jobs(workload: str, seed: int, size: str = "full") -> List[Job]:
    """The ordered job list of one pass.  Tolerances: see the module doc."""
    if workload == "adversarial":
        return [
            Job("vanilla-gan", "vanilla-gan", "gan-optimum", "gan", 1e-3, seed,
                {"iters": 5000}, {"final_tv": 1e-3, "sigma_max_abs": 1e-4}),
            Job("wgan", "wgan", "brute-w1", "gan", 0.10, seed,
                {"iters": SIZES[size]["wgan_iters"]}),
            Job("ppo-gan", "ppo-gan", "reweighted-identity", "gan", 1e-10, seed),
            Job("multiplicative-weights", "multiplicative-weights", "hedge",
                "experts", 1e-12, seed),
        ]
    if workload == "mdp":
        out = []
        keys = ["gridworld"] + [f"sa{S * A}" for S, A in SIZES[size]["mdp"]]
        for key in keys:
            out += [
                Job(f"policy-gradient@{key}", "policy-gradient", "exact-pg", key,
                    1e-8, seed),
                Job(f"intrinsic-reward@{key}", "intrinsic-reward", "enumeration",
                    key, 1e-10, seed),
                Job(f"rl-as-inference@{key}", "rl-as-inference", "enumeration",
                    key, 1e-12, seed),
            ]
        return out
    if workload == "teacher_student":
        return [
            Job("supervised-mle", "supervised-mle", "direct-mle", "mle", 1e-6, seed),
            Job("data-reweighting", "data-reweighting", "weighted-mle",
                "weighted", 1e-6, seed),
            Job("unsupervised-mle", "unsupervised-mle", "hand-em", "em", 1e-10,
                seed, {"iters": 20}),
            Job("unified-em", "unified-em", "hand-em", "em", 0.0, seed),
            Job("posterior-regularization", "posterior-regularization",
                "enumeration", "pr", 1e-9, seed),
            Job("data-augmentation", "data-augmentation", "enumeration",
                "payoff", 1e-12, seed),
            Job("interpolation-schedule", "interpolation-schedule", "none",
                "payoff", 0.0, seed),
            Job("self-supervised-mle", "self-supervised-mle", "direct-mle",
                "self", 1e-6, seed),
            Job("active-learning", "active-learning", "enumeration", "active",
                1e-6, seed),
            Job("knowledge-distillation", "knowledge-distillation",
                "enumeration", "kd", 1e-6, seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def recipes_of(workload: str) -> List[str]:
    return sorted({j.recipe for j in jobs(workload, 0, "tiny")})


@dataclass
class Outcome:
    """What one job produced: the verdict, its deviation, the outer
    iterations of the recipe runs inside it, and a fingerprint of every
    deterministic output (report and recipe trace totals)."""

    label: str
    recipe: str
    passed: bool
    deviation: float
    outer_iters: int
    fingerprint: str
    error: Optional[str] = None


class RunCapture:
    """Wraps `sekit.recipes.run_recipe` to see each recipe result made
    inside a check: its trace totals and outer-iteration count."""

    def __init__(self, recipes_module, package):
        self.runs: List[tuple] = []
        original = recipes_module.run_recipe

        @functools.wraps(original)
        def run_recipe(name, bundle, seed=0, **params):
            res = original(name, bundle, seed, **params)
            records = res.trace.records
            history = (res.extras or {}).get("history")
            iters = len(records) or (len(history) if history else 1)
            self.runs.append((name, iters, [r.total for r in records],
                              res.trace.converged))
            return res

        self._restore = [(recipes_module, original)]
        recipes_module.run_recipe = run_recipe
        if getattr(package, "run_recipe", None) is original:
            package.run_recipe = run_recipe
            self._restore.append((package, original))

    def close(self):
        for module, original in self._restore:
            module.run_recipe = original


def run_job(job: Job, bundles: Dict[str, object], check_equivalence,
            capture: RunCapture) -> Outcome:
    """Run one check; a raise or a missed gate counts as a failed check."""
    capture.runs.clear()
    try:
        rep = check_equivalence(job.recipe, job.oracle, bundles[job.bundle],
                                job.tolerance, seed=job.seed, **job.params)
    except Exception as exc:  # a check that raises is a failed check
        return Outcome(job.label, job.recipe, False, float("inf"), 0, "",
                       f"{type(exc).__name__}: {exc}")
    details = rep["details"]
    missed = [k for k, bound in job.gates.items() if not details[k] <= bound]
    passed = bool(rep["passed"]) and not missed
    iters = sum(n for _, n, _, _ in capture.runs)
    blob = json.dumps([rep, capture.runs], sort_keys=True, default=repr)
    return Outcome(job.label, job.recipe, passed, float(rep["max_deviation"]),
                   iters, hashlib.sha256(blob.encode()).hexdigest(),
                   None if not missed else f"missed gates: {', '.join(missed)}")
