"""Kernel timings: median microseconds of public sekit functions at fixed
sizes (n10, n1k, n100k for vectors; sa200, sa3200 for MDPs).

Inputs come from the workload seed.  Every kernel is called once untimed
before its repeats, and the median over repeats is reported.
"""
from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

import workloads

VEC = {"n10": 10, "n1k": 1_000, "n100k": 100_000}
MDP = {"sa200": (50, 4), "sa3200": (400, 8)}
EM_SHAPE = (1000, 4)
EM_ITERS = 3


def spec() -> List[Tuple[str, str]]:
    """(metric name, unit) of every kernel metric, in report order."""
    out = []
    for fn in ("core.normalize_log", "core.Dist", "core.entropy",
               "solver.teacher_closed_form", "models.exact_fit",
               "divergence.ce", "divergence.kl", "divergence.js", "divergence.w1"):
        out += [(f"{fn}.{n}", "us") for n in VEC]
    out += [("solver.mw_update.k8", "us"), ("solver.run.ms_per_iter", "ms"),
            ("models.fit_to.cond200x10", "us")]
    for kind in ("kl", "js"):
        out += [(f"divergence.influence_function.{kind}", "us"),
                (f"divergence.influence_function.{kind}.iters", "count")]
    for fn in ("mdp.q_function", "mdp.visitation", "mdp.exact_policy_gradient"):
        out += [(f"{fn}.{m}", "us") for m in MDP]
    out += [("adversarial.discriminator_update.classification", "us"),
            ("adversarial.discriminator_update.separation", "us"),
            ("adversarial.tilted_q", "us"),
            ("experience.f_data_augmented.values", "us"),
            ("experience.f_reward.values", "us"),
            ("bundles.load_bundle.experts", "us"),
            ("bundles.load_bundle.gridworld", "us")]
    return out


def median_us(fn: Callable[[], object], budget_s: float = 0.05,
              min_reps: int = 5, max_reps: int = 2000) -> float:
    fn()
    times = []
    t_end = perf_counter() + budget_s
    while len(times) < min_reps or (len(times) < max_reps and perf_counter() < t_end):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def measure(seed: int, size: str = "full") -> Dict[str, float]:
    """Every metric of `spec()`.  With size "tiny" the inputs stay at the
    named sizes but each kernel runs its minimum number of repeats."""
    import sekit.bundles as bundles
    import sekit.mdp as mdp
    from sekit.adversarial import Discriminator, discriminator_update, tilted_q
    from sekit.core import Dist, Domain, entropy, normalize_log
    from sekit.divergence import CE, JS, KL, DivergenceFn, divergence, influence_function
    from sekit.experience import Dataset, ExperienceFn, f_data_augmented, raml_kernel
    from sekit.models import (ConditionalSoftmaxModel, MixtureModel, SoftmaxModel,
                              exact_fit, fit_to)
    from sekit.solver import SEConfig, mw_update, run, teacher_closed_form

    budget = 0.05 if size == "full" else 0.0
    rng = np.random.default_rng(seed)
    out: Dict[str, float] = {}

    def t(name, fn, **kw):
        out[name] = median_us(fn, budget_s=budget, **kw)

    def rand_dist(n):
        return normalize_log(rng.normal(size=n))

    w1 = DivergenceFn("w1")
    for tag, n in VEC.items():
        scores = rng.normal(size=n)
        q, p = rand_dist(n), rand_dist(n)
        logp = q.logp.copy()
        f = rng.normal(size=n)
        model = SoftmaxModel.zeros(Domain.of_size(n))
        t(f"core.normalize_log.{tag}", lambda: normalize_log(scores))
        t(f"core.Dist.{tag}", lambda: Dist(logp))
        t(f"core.entropy.{tag}", lambda: entropy(q))
        t(f"solver.teacher_closed_form.{tag}",
          lambda: teacher_closed_form(p, f, 1.0, 1.0))
        t(f"models.exact_fit.{tag}", lambda: exact_fit(model, q))
        for kind, div in (("ce", CE), ("kl", KL), ("js", JS), ("w1", w1)):
            t(f"divergence.{kind}.{tag}", lambda: divergence(div, q, p))

    weights, row = Dist.uniform(8), rng.random(8)
    t("solver.mw_update.k8", lambda: mw_update(weights, row, 2.0))

    nx, k = EM_SHAPE
    prod = Domain.product(tuple(f"x{i}" for i in range(nx)),
                          tuple(f"k{j}" for j in range(k)))
    counts = rng.integers(1, 20, nx).astype(float)
    p_x = counts / counts.sum()
    fn = ExperienceFn.from_vector(prod, np.repeat(np.log(p_x), k))
    config = SEConfig(alpha=1.0, beta=1.0, q_decomposition="fixed_x_marginal",
                      experience=fn, max_iters=EM_ITERS, objective_tol=0.0)
    em_model = MixtureModel(np.log(rng.dirichlet(np.ones(k))),
                            np.log(rng.dirichlet(np.ones(nx), size=k)), prod)
    out["solver.run.ms_per_iter"] = median_us(
        lambda: run(config, em_model, prod, p_x=p_x), budget_s=0.0,
        min_reps=3) / 1000.0 / EM_ITERS

    cprod = Domain.product(tuple(f"x{i}" for i in range(200)),
                           tuple(f"y{j}" for j in range(10)))
    cond = ConditionalSoftmaxModel(rng.normal(size=(200, 10)) * 0.1, cprod)
    target = rand_dist(2000)
    t("models.fit_to.cond200x10", lambda: fit_to(cond, target, steps=40),
      min_reps=3)

    p_d, q10 = rand_dist(10), rand_dist(10)
    for kind in ("kl", "js"):
        t(f"divergence.influence_function.{kind}",
          lambda: influence_function(kind, p_d, q10), min_reps=3)
        out[f"divergence.influence_function.{kind}.iters"] = float(
            influence_function(kind, p_d, q10).iterations)

    for tag, (S, A) in MDP.items():
        payload = workloads._random_mdp(np.random.default_rng(rng.integers(2**63)),
                                        S, A, workloads.SIZES["full"]["mdp_successors"])
        m = mdp.TabularMDP.from_json(payload["mdp"])
        policy = ConditionalSoftmaxModel(rng.normal(size=(S, A)) * 0.3, m.domain())
        reps = 5 if S * A <= 200 else 3
        t(f"mdp.q_function.{tag}", lambda: mdp.q_function(m, policy), min_reps=reps)
        t(f"mdp.visitation.{tag}", lambda: mdp.visitation(m, policy), min_reps=reps)
        t(f"mdp.exact_policy_gradient.{tag}",
          lambda: mdp.exact_policy_gradient(m, policy), min_reps=reps)
        if tag == "sa200":
            reward = mdp.f_reward(m, "log_q")
            t("experience.f_reward.values", lambda: reward.values(policy))

    classifier = Discriminator(np.zeros(10), "classifier")
    critic = Discriminator(np.zeros(10), "lipschitz_critic", 1.0)
    t("adversarial.discriminator_update.classification",
      lambda: discriminator_update(classifier, p_d, q10, steps=5, step_size=4.0,
                                   objective="classification"))
    t("adversarial.discriminator_update.separation",
      lambda: discriminator_update(critic, p_d, q10, steps=30, step_size=4.0,
                                   objective="separation"))
    flat = SoftmaxModel(rng.normal(size=10), Domain.of_size(10))
    t("adversarial.tilted_q", lambda: tilted_q(flat, classifier))

    n = 1000
    data = Dataset(Domain.of_size(n), rng.integers(0, 9, n).astype(float) + 1)
    kernel = raml_kernel(rng.normal(size=(n, n)))
    t("experience.f_data_augmented.values",
      lambda: f_data_augmented(data, kernel).values())

    for name in ("experts", "gridworld"):
        path = str(workloads.CONFIGS / f"{name}.json")
        t(f"bundles.load_bundle.{name}", lambda: bundles.load_bundle(path),
          min_reps=3)

    missing = [name for name, _ in spec() if name not in out]
    if missing:
        raise RuntimeError(f"kernel metrics not measured: {missing}")
    return out
