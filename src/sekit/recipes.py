"""Named presets of the unified objective reproducing classical algorithms,
plus the equivalence-check harness that compares each preset against an
independent oracle implementation.

One table, `_RECIPES`, holds every recipe: its frozen configuration, the
bundle fields it requires, its runner and its oracle checks.  `run_recipe`
validates the bundle and calls the runner on the recipe's configuration;
`check_equivalence` runs the named oracle's check and reports the result
under the recipe's comparison contract.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.special import logsumexp

from . import oracles
from .adversarial import (Discriminator, adversarial_run,
                          reweighted_discriminator_gradient)
from .bundles import ProblemBundle
from .core import Dist, Domain, safe_log
from .experience import (ExperienceFn, f_active, f_data, f_data_raml,
                         f_data_self, f_data_weighted, f_model_mimic,
                         selection_distribution)
from .mdp import (exact_policy_gradient, f_reward, q_function,
                  reward_and_visitation)
from .models import (ConditionalSoftmaxModel, MixtureModel, SoftmaxModel,
                     grad_expected_log_prob)
from .solver import (DEFAULT_EPSILON, SEConfig, Trace, mw_trajectory, run,
                     schedule, teacher_closed_form)


class NotFound(KeyError):
    pass


class IncompatiblePair(ValueError):
    pass


@dataclass
class RecipeResult:
    model: object
    trace: Trace
    final_dist: Optional[Dist] = None
    extras: Optional[dict] = None


@dataclass(frozen=True, eq=False)  # one instance per name; `checks` is a dict
class Recipe:
    """A named point in the algorithm space.

    `run(config, bundle, seed, **params)` runs the recipe at `config` after
    `run_recipe` has checked that the bundle has every field in `requires`
    and that `run` takes every keyword in `params`.
    `checks` maps oracle name to check, default oracle first; `contract` is
    the comparison mode of the default oracle.
    """

    name: str
    description: str
    requires: Tuple[str, ...]
    config: SEConfig
    contract: str  # fixed-point | per-iteration | gradient-direction | trajectory | adversarial | smoke
    run: Callable[..., RecipeResult]
    checks: Dict[str, Callable]

    @property
    def default_oracle(self) -> str:
        return next(iter(self.checks))


def registry() -> List[Recipe]:
    """All built-in recipes; names are the CLI vocabulary."""
    return list(_RECIPES.values())


def get_recipe(name: str) -> Recipe:
    try:
        return _RECIPES[name]
    except KeyError:
        raise NotFound(f"no recipe named {name!r}") from None


def run_recipe(name: str, bundle: ProblemBundle, seed: int = 0,
               **params) -> RecipeResult:
    """Run a recipe on a bundle.  `params` are keyword parameters of the
    recipe's runner; one that it does not take raises IncompatiblePair."""
    rec = get_recipe(name)
    takes = list(inspect.signature(rec.run).parameters)[3:]
    unknown = [p for p in params if p not in takes]
    if unknown:
        raise IncompatiblePair(
            f"recipe {name!r} takes no parameter {unknown[0]!r} "
            f"(it takes: {', '.join(takes) or 'none'})")
    bundle.require(*rec.requires)
    return rec.run(rec.config, bundle, seed, **params)


# ---------------------------------------------------------------------------
# Recipe runners
# ---------------------------------------------------------------------------

def _mle_like(config: SEConfig, fn: ExperienceFn,
              reference: Optional[Dist] = None) -> RecipeResult:
    config = replace(config, experience=fn)
    model = SoftmaxModel.zeros(fn.domain)
    model, trace = run(config, model, fn.domain, reference=reference)
    return RecipeResult(model, trace, model.dist())


def _run_supervised(config, bundle, seed) -> RecipeResult:
    ref = Dist.from_probs(bundle.dataset.empirical())
    return _mle_like(config, f_data(bundle.dataset), reference=ref)


def _run_self_supervised(config, bundle, seed) -> RecipeResult:
    prod = bundle.product_domain
    return _mle_like(config, f_data_self(bundle.dataset, prod.unpair, prod))


def _run_unsupervised(config, bundle, seed, iters=20, alpha=None,
                      init_mix=None, init_comp=None) -> RecipeResult:
    """EM as teacher-student: dataset over X, K-component mixture model."""
    k = bundle.n_components
    nx = bundle.dataset.domain.size
    prod = Domain.product(bundle.dataset.domain.labels,
                          tuple(f"k{j}" for j in range(k)))
    p_x = bundle.dataset.empirical()
    # f(x, y) = log empirical(x), constant in the latent coordinate
    f_vec = np.repeat(safe_log(p_x), k)
    fn = ExperienceFn.from_vector(prod, f_vec)
    config = replace(config, alpha=config.alpha if alpha is None else alpha,
                     experience=fn, max_iters=iters)
    rng = np.random.default_rng(seed)
    mix = np.log(rng.dirichlet(np.ones(k))) if init_mix is None else np.asarray(init_mix, dtype=float)
    comp = (np.log(rng.dirichlet(np.ones(nx), size=k)) if init_comp is None
            else np.asarray(init_comp, dtype=float))
    model = MixtureModel(mix, comp, prod)
    history = []

    def record(n, q, m):
        history.append((q, m))

    model, trace = run(config, model, prod, p_x=p_x, callback=record)
    return RecipeResult(model, trace, extras={"history": history, "p_x": p_x})


def _run_reweighting(config, bundle, seed) -> RecipeResult:
    return _mle_like(config, f_data_weighted(bundle.dataset))


def _run_augmentation(config, bundle, seed) -> RecipeResult:
    fn = f_data_raml(bundle.dataset, bundle.payoff)
    teachers = []  # the first, from the uniform start, is the payoff mixture
    model, trace = run(replace(config, experience=fn),
                       SoftmaxModel.zeros(fn.domain), fn.domain,
                       callback=lambda n, q, m: teachers.append(q))
    return RecipeResult(model, trace, model.dist(),
                        extras={"first_teacher": teachers[0]})


def _run_active(config, bundle, seed) -> RecipeResult:
    labels = bundle.oracle_labels
    ny = int(labels.max()) + 1
    prod = Domain.product(bundle.pool.domain.labels,
                          tuple(f"y{j}" for j in range(ny)))
    fn = f_active(bundle.pool, labels, bundle.utility, bundle.select_lambda, prod)
    result = _mle_like(config, fn)
    result.extras = {
        "selection": selection_distribution(bundle.pool, bundle.utility,
                                            bundle.select_lambda),
        "product_domain": prod,
    }
    return result


def _run_posterior_reg(config, bundle, seed, iters=10) -> RecipeResult:
    """Rule-tilted conditional learning on a product domain."""
    prod = bundle.product_domain
    if prod is None:
        raise IncompatiblePair("posterior regularization needs a product domain")
    nx, ny = prod.factor_sizes
    counts_x = bundle.dataset.counts
    if counts_x.size != nx:
        raise IncompatiblePair("dataset must live on the X factor")
    p_x = counts_x / counts_x.sum()
    from .experience import eval_soft_logic
    rule_vals = eval_soft_logic(bundle.rule, bundle.atoms, prod.size)
    fn = ExperienceFn.from_vector(prod, bundle.rule_weight * rule_vals)
    config = replace(config, experience=fn, max_iters=iters)
    rng = np.random.default_rng(seed)
    model = ConditionalSoftmaxModel(rng.normal(size=(nx, ny)) * 0.1, prod)
    history = []
    model, trace = run(config, model, prod, p_x=p_x,
                       callback=lambda n, q, m: history.append((q, m)))
    return RecipeResult(model, trace,
                        extras={"history": history, "p_x": p_x,
                                "rule_values": rule_vals})


def _mdp_teacher(config, bundle, seed, fn):
    """One teacher step from a seeded policy at `fn`, an `f_reward` of the
    bundle's MDP, with the state-action distribution (normalized visitation
    times pi) as the model.  f and the visitation share one policy
    evaluation.  Returns the result, the values of f and the unnormalized
    visitation."""
    mdp = bundle.mdp
    rng = np.random.default_rng(seed)
    policy = ConditionalSoftmaxModel(rng.normal(size=mdp.rewards.shape) * 0.3,
                                     mdp.domain())
    f_vals, mu = reward_and_visitation(mdp, policy, fn)
    joint = mu[:, None] * policy.probs()
    p_sa = Dist.from_probs((joint / joint.sum()).ravel())
    q = teacher_closed_form(p_sa, f_vals, config.alpha, config.beta)
    trace = Trace()
    trace.diagnostics.update(fn.diagnostics)
    extras = {"q": q, "p_sa": p_sa,
              "offset": fn.diagnostics.get("reward_offset", 0.0)}
    return RecipeResult(policy, trace, extras=extras), f_vals, mu


def _run_policy_gradient(config, bundle, seed) -> RecipeResult:
    """One teacher step at f = log Q; adds the student gradient and Z."""
    result, f_vals, mu = _mdp_teacher(config, bundle, seed,
                                      f_reward(bundle.mdp, "log_q"))
    policy, q = result.model, result.extras["q"]
    # Z = sum_sa mu(s) pi(a|s) exp f(s,a) over the unnormalized visitation, so
    # that the student gradient times Z is the exact policy gradient
    z = float(np.sum((mu[:, None] * policy.probs()).ravel() * np.exp(f_vals)))
    result.extras.update(se_grad=grad_expected_log_prob(policy, q), z=z)
    return result


def _run_intrinsic(config, bundle, seed) -> RecipeResult:
    mdp = bundle.mdp
    intrinsic = np.asarray(bundle.extras.get("intrinsic_rewards",
                                             np.ones_like(mdp.rewards) * 0.1),
                           dtype=float).reshape(mdp.rewards.shape)
    result, _, _ = _mdp_teacher(
        config, bundle, seed, f_reward(mdp, "q_plus_intrinsic", intrinsic))
    result.extras["intrinsic"] = intrinsic
    return result


def _run_rl_inference(config, bundle, seed, rho=None) -> RecipeResult:
    rho = bundle.rho if rho is None else rho
    result, f_vals, _ = _mdp_teacher(replace(config, alpha=rho, beta=rho),
                                     bundle, seed, f_reward(bundle.mdp, "q"))
    result.extras["f_vals"] = f_vals
    return result


def _run_distillation(config, bundle, seed) -> RecipeResult:
    return _mle_like(config, f_model_mimic(bundle.dataset, bundle.source_model))


def _run_gan(recipe, config, bundle, seed, iters=5000) -> RecipeResult:
    """`adversarial_run`, with its defaults, from a seeded model."""
    n = bundle.p_data.size
    rng = np.random.default_rng(seed)
    model = SoftmaxModel(rng.normal(size=n) * 0.5, Domain.of_size(n))
    res = adversarial_run(recipe, bundle.p_data, model, iters=iters,
                          coords=bundle.coords)
    return RecipeResult(res.model, res.trace, Dist(res.model.theta),
                        extras={"discriminator": res.discriminator})


def _run_mw(config, bundle, seed, alpha=None) -> RecipeResult:
    rows = bundle.rewards
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 2:
        raise ValueError("rewards must be a (T, K) table with T >= 1 rounds "
                         f"and K >= 2 experts, got shape {rows.shape}")
    T, K = rows.shape
    if alpha is None:
        alpha = float(np.sqrt(T / (2.0 * np.log(K))))
    logp = mw_trajectory(Dist.uniform(K), rows, alpha)
    trace = Trace()
    trace.diagnostics["alpha"] = alpha
    return RecipeResult(None, trace, Dist(logp[-1]),
                        extras={"history": list(np.exp(logp)), "alpha": alpha})


def _run_interpolation(config, bundle, seed, iters_per_stage=10) -> RecipeResult:
    dom = bundle.dataset.domain
    reward = np.asarray(bundle.extras["reward"] if "reward" in bundle.extras
                        else bundle.payoff.mean(axis=0), dtype=float)
    fn_data = f_data(bundle.dataset)
    fn_aug = f_data_raml(bundle.dataset, bundle.payoff)
    fn_reward = ExperienceFn.from_vector(dom, reward)
    k = iters_per_stage
    stages = [(k, {"experience": fn_data, "beta": DEFAULT_EPSILON}),
              (k, {"experience": fn_aug, "beta": DEFAULT_EPSILON}),
              (k, {"experience": fn_reward, "beta": 1.0})]
    model, trace = schedule(config, stages, SoftmaxModel.zeros(dom), dom)
    return RecipeResult(model, trace, model.dist())


# ---------------------------------------------------------------------------
# Equivalence checks
# ---------------------------------------------------------------------------

def _report(recipe: str, oracle: str, contract: str, tolerance: float,
            deviation: float, details: Optional[dict] = None) -> dict:
    return {
        "recipe": recipe,
        "oracle": oracle,
        "contract": contract,
        "tolerance": tolerance,
        "max_deviation": deviation,
        "passed": bool(deviation <= tolerance),
        "details": details or {},
    }


def _check_supervised(bundle, seed):
    res = run_recipe("supervised-mle", bundle, seed)
    target = oracles.direct_mle(bundle.dataset.counts)
    dev = res.final_dist.tv(Dist.from_probs(target))
    return dev, {"final_tv": dev}


def _check_self_supervised(bundle, seed):
    res = run_recipe("self-supervised-mle", bundle, seed)
    # the split is the identity on the pair domain: the target is the counts
    target = oracles.direct_mle(bundle.dataset.counts)
    dev = res.final_dist.tv(Dist.from_probs(target))
    return dev, {"final_tv": dev}


def _check_em(bundle, seed, iters=20):
    rng = np.random.default_rng(seed)
    k = bundle.n_components
    nx = bundle.dataset.domain.size
    pi0 = rng.dirichlet(np.ones(k))
    comp0 = rng.dirichlet(np.ones(nx), size=k)
    res = run_recipe("unsupervised-mle", bundle, seed, iters=iters,
                     init_mix=np.log(pi0), init_comp=np.log(comp0))
    pi, comp = pi0.copy(), comp0.copy()
    counts = bundle.dataset.counts
    p_x = res.extras["p_x"]
    worst = 0.0
    lls = []
    for it, (q, model) in enumerate(res.extras["history"]):
        # oracle E-step from the parameters entering iteration `it`
        joint = comp.T * pi[None, :]
        marg = joint.sum(axis=1)
        lls.append(float(counts[counts > 0] @ np.log(marg[counts > 0])))
        resp = np.where(marg[:, None] > 0, joint / np.where(marg[:, None] > 0, marg[:, None], 1.0), 0.0)
        oracle_q = (p_x[:, None] * resp).ravel()
        worst = max(worst, float(np.max(np.abs(q.p - oracle_q))))
        # oracle M-step
        pi_new, comp_new, _ = oracles.hand_em(counts, pi, comp, 1)
        pi, comp = pi_new, comp_new
        model_pi = np.exp(model.mixture_logits - logsumexp(model.mixture_logits))
        model_comp = np.exp(model.component_logits -
                            logsumexp(model.component_logits, axis=1, keepdims=True))
        worst = max(worst, float(np.max(np.abs(model_pi - pi))))
        worst = max(worst, float(np.max(np.abs(model_comp - comp))))
    nll = [-v for v in lls]
    worst, monotone = _em_deviation(worst, nll)
    return worst, {"iterations": iters, "nll": nll, "nll_monotone": monotone}


def _em_deviation(worst, nll):
    """`worst`, or inf if the NLL ever rises.  EM never raises it, but a
    converged step may still round it up, so each step gets 4 ulps of slack."""
    monotone = all(nll[i + 1] <= nll[i] + 4 * np.spacing(abs(nll[i]))
                   for i in range(len(nll) - 1))
    return (worst if monotone else np.inf), monotone


def _check_reweighting(bundle, seed):
    res = run_recipe("data-reweighting", bundle, seed)
    target = oracles.weighted_mle(bundle.dataset.counts, bundle.dataset.weights)
    dev = res.final_dist.tv(Dist.from_probs(target))
    return dev, {"final_tv": dev}


def _check_augmentation(bundle, seed):
    res = run_recipe("data-augmentation", bundle, seed)
    target = oracles.raml_teacher(bundle.dataset.counts, bundle.payoff)
    q0 = res.extras["first_teacher"]
    dev = float(np.max(np.abs(q0.p - target)))
    return dev, {"teacher_max_abs": dev}


def _check_active(bundle, seed):
    res = run_recipe("active-learning", bundle, seed)
    prod = res.extras["product_domain"]
    nx, ny = prod.factor_sizes
    # enumeration oracle: joint = selection(x) delta(y = label(x))
    sel_unnorm = (bundle.pool.counts / bundle.pool.counts.sum()) * \
        np.exp(bundle.select_lambda * bundle.utility)
    sel = sel_unnorm / sel_unnorm.sum()
    target = np.zeros(prod.size)
    for x in range(nx):
        target[prod.pair(x, int(bundle.oracle_labels[x]))] = sel[x]
    dev = res.final_dist.tv(Dist.from_probs(target))
    sel_dev = float(np.max(np.abs(res.extras["selection"] - sel)))
    return max(dev, sel_dev), {"final_tv": dev, "selection_max_abs": sel_dev}


def _check_posterior_reg(bundle, seed):
    res = run_recipe("posterior-regularization", bundle, seed, iters=5)
    p_x = res.extras["p_x"]
    nx, ny = bundle.product_domain.factor_sizes
    rule_mat = (bundle.rule_weight * res.extras["rule_values"]).reshape(nx, ny)
    worst = 0.0
    # per-iteration check: replay with an independently coded loop that tracks
    # its own parameters, so each q comparison is against the oracle's state;
    # its M-step sets theta_x = log tilt_x on each observed x
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(nx, ny)) * 0.1
    cond = np.exp(theta - logsumexp(theta, axis=1, keepdims=True))
    for q, model_after in res.extras["history"]:
        tilt = cond * np.exp(rule_mat)
        tilt = tilt / tilt.sum(axis=1, keepdims=True)
        oracle_q = (p_x[:, None] * tilt).ravel()
        worst = max(worst, float(np.max(np.abs(q.p - oracle_q))))
        theta[p_x > 0] = np.log(tilt[p_x > 0])
        cond = np.exp(theta - logsumexp(theta, axis=1, keepdims=True))
        worst = max(worst, float(np.max(np.abs(model_after.probs() - cond))))
    return worst, {"iterations": len(res.extras["history"])}


def _check_unified_em(bundle, seed):
    res = run_recipe("unified-em", bundle, seed, alpha=bundle.extras.get("alpha", 0.5),
                     iters=10)
    finite = all(np.isfinite(r.total) for r in res.trace.records)
    return (0.0 if finite else np.inf), {"iterations": len(res.trace.records)}


def _check_policy_gradient(oracle, bundle, seed):
    """se_grad * Z against the engine's exact policy gradient ("exact-pg")
    or the plain-numpy REINFORCE gradient ("reinforce")."""
    res = run_recipe("policy-gradient", bundle, seed)
    mdp = bundle.mdp
    pg = (exact_policy_gradient(mdp, res.model) if oracle == "exact-pg" else
          oracles.reinforce_gradient(mdp.transitions, mdp.rewards, mdp.gamma,
                                     mdp.p0, res.model.theta)).ravel()
    se = res.extras["se_grad"].ravel()
    cos = float(se @ pg / (np.linalg.norm(se) * np.linalg.norm(pg)))
    z = res.extras["z"]
    ratio_dev = float(np.max(np.abs(se * z - pg)) / max(np.max(np.abs(pg)), 1e-300))
    dev = max(1.0 - cos, ratio_dev)
    return dev, {"cosine": cos, "z": z, "ratio_max_rel": ratio_dev}


def _check_intrinsic(bundle, seed):
    res = run_recipe("intrinsic-reward", bundle, seed)
    mdp = bundle.mdp
    q_ex = q_function(mdp, res.model)
    from .mdp import TabularMDP
    in_mdp = TabularMDP(mdp.transitions, res.extras["intrinsic"], mdp.gamma, mdp.p0)
    q_in = q_function(in_mdp, res.model)
    total = q_ex + q_in + res.extras["offset"] / (1.0 - mdp.gamma)
    target = res.extras["p_sa"].p * total.ravel()
    target = target / target.sum()
    dev = float(np.max(np.abs(res.extras["q"].p - target)))
    return dev, {"teacher_max_abs": dev}


def _check_rl_inference(bundle, seed):
    worst = 0.0
    per_rho = {}
    for rho in (0.1, 1.0, 10.0):
        res = run_recipe("rl-as-inference", bundle, seed, rho=rho)
        logits = res.extras["p_sa"].logp + res.extras["f_vals"] / rho
        target = np.exp(logits - logsumexp(logits))
        dev = float(np.max(np.abs(res.extras["q"].p - target)))
        per_rho[rho] = dev
        worst = max(worst, dev)
    return worst, {"per_rho": {str(k): v for k, v in per_rho.items()}}


def _check_distillation(bundle, seed):
    res = run_recipe("knowledge-distillation", bundle, seed)
    emp = bundle.dataset.counts / bundle.dataset.counts.sum()
    target = (emp[:, None] * np.exp(bundle.source_model.log_probs())).ravel()
    dev = res.final_dist.tv(Dist.from_probs(target))
    return dev, {"final_tv": dev}


def _check_vanilla_gan(bundle, seed, iters=5000):
    """The final classifier against p_d / (p_d + q), and the run against a
    plain-numpy replay from the same seeded start, at the recipe's stated
    step 0.5 and TV stop 1e-3: the larger of the per-iteration TV gaps and
    the final max |p - p_oracle|, or inf if the iteration counts differ."""
    res = run_recipe("vanilla-gan", bundle, seed, iters=iters)
    disc = res.extras["discriminator"]
    tv = res.final_dist.tv(bundle.p_data)
    sigma = disc.sigma()
    target = oracles.gan_optimum(bundle.p_data.p, res.final_dist.p)
    sigma_dev = float(np.max(np.abs(sigma - target)))
    theta0 = np.random.default_rng(seed).normal(size=bundle.p_data.size) * 0.5
    p_oracle, tvs = oracles.vanilla_gan(bundle.p_data.p, theta0, 0.5, 1e-3, iters)
    mine = [r.tv_to_ref for r in res.trace.records]
    replay_dev = (float(np.max(np.abs(np.concatenate(
        [np.subtract(mine, tvs), res.final_dist.p - p_oracle]))))
                  if len(mine) == len(tvs) else np.inf)
    return max(tv, sigma_dev, replay_dev), {
        "final_tv": tv, "sigma_max_abs": sigma_dev,
        "replay_max_abs": replay_dev, "converged": res.trace.converged}


def _check_wgan(bundle, seed, iters=3000):
    """The critic's objective against the brute-force W1, and the model:
    a run that ends above its TV tolerance fails with infinite deviation."""
    res = run_recipe("wgan", bundle, seed, iters=iters)
    disc = res.extras["discriminator"]
    f = disc.f_values()
    critic_obj = float(bundle.p_data.p @ f - res.final_dist.p @ f)
    coords = (bundle.coords if bundle.coords is not None
              else np.arange(bundle.p_data.size, dtype=float))
    exact = oracles.brute_force_w1(res.final_dist.p, bundle.p_data.p, coords)
    rel = abs(critic_obj - exact) / max(exact, 1e-12) if exact > 1e-9 else abs(critic_obj - exact)
    converged = res.trace.converged
    return (rel if converged else np.inf), {
        "critic_objective": critic_obj, "model_w1": exact, "converged": converged,
        "final_tv": res.final_dist.tv(bundle.p_data)}


def _check_ppo_gan(bundle, seed):
    """The reweighted discriminator gradient against its plain-numpy oracle
    on random (model, classifier, target) triples."""
    rng = np.random.default_rng(seed)
    n = bundle.p_data.size
    worst, instances = 0.0, 100
    for _ in range(instances):
        p_theta = SoftmaxModel(rng.normal(size=n), Domain.of_size(n)).dist()
        disc = Discriminator(rng.normal(size=n), "classifier")
        p_d = Dist.from_probs(rng.dirichlet(np.ones(n)))
        got = reweighted_discriminator_gradient(disc, p_d, p_theta)
        want = oracles.reweighted_classifier_gradient(p_d.p, p_theta.p, disc.phi)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst, {"instances": instances}


def _check_mw(bundle, seed):
    res = run_recipe("multiplicative-weights", bundle, seed)
    _, oracle_hist = oracles.hedge(np.full(bundle.rewards.shape[1],
                                           1.0 / bundle.rewards.shape[1]),
                                   bundle.rewards, res.extras["alpha"])
    mine, theirs = np.array(res.extras["history"]), np.array(oracle_hist)
    worst = (float(np.max(np.abs(mine - theirs)))
             if mine.shape == theirs.shape else np.inf)
    return worst, {"rounds": len(oracle_hist), "alpha": res.extras["alpha"]}


def _check_interpolation(bundle, seed):
    res = run_recipe("interpolation-schedule", bundle, seed)
    iters = [r.iteration for r in res.trace.records]
    contiguous = iters == list(range(1, len(iters) + 1))
    return (0.0 if contiguous else np.inf), {"iterations": len(iters)}


# each family's stopping rule: the MLE family runs at most 25 iterations and
# stops early once converged; the EM family runs its full count
_MLE = SEConfig(alpha=1.0, beta=DEFAULT_EPSILON, max_iters=25)
_EM = SEConfig(alpha=1.0, beta=1.0, q_decomposition="fixed_x_marginal",
               objective_tol=0.0)
_UNIT = SEConfig(alpha=1.0, beta=1.0)
_GAN = SEConfig(alpha=0.0, beta=1.0)


_RECIPES: Dict[str, Recipe] = {r.name: r for r in [
    Recipe("supervised-mle",
           "Cross-entropy fit to labeled data: alpha=1, beta=epsilon, "
           "f = log empirical frequency; fixed point is the empirical "
           "distribution.",
           ("dataset",), _MLE, "fixed-point", _run_supervised,
           {"direct-mle": _check_supervised}),
    Recipe("self-supervised-mle",
           "Supervised fit on (x, y) pairs carved out of raw observations "
           "by a deterministic split.",
           ("dataset", "product_domain"), _MLE, "fixed-point",
           _run_self_supervised, {"direct-mle": _check_self_supervised}),
    Recipe("unsupervised-mle",
           "Latent-variable likelihood via the q(x,y) = data(x) q(y|x) "
           "decomposition at alpha=beta=1: exactly EM.",
           ("dataset",), _EM, "per-iteration", _run_unsupervised,
           {"hand-em": _check_em}),
    Recipe("data-reweighting",
           "Instance-weighted MLE: f = log(weighted empirical frequency).",
           ("dataset",), _MLE, "fixed-point", _run_reweighting,
           {"weighted-mle": _check_reweighting}),
    Recipe("data-augmentation",
           "Payoff-kernel-smoothed MLE; with kernel exp{R} the teacher is "
           "the exponentiated-payoff distribution.",
           ("dataset", "payoff"), _MLE, "fixed-point", _run_augmentation,
           {"enumeration": _check_augmentation}),
    Recipe("active-learning",
           "Oracle-labeled pool experience with an uncertainty bonus "
           "lambda u(x); selection follows empirical(x) exp(lambda u).",
           ("pool", "oracle_labels", "utility"), _MLE, "fixed-point",
           _run_active, {"enumeration": _check_active}),
    Recipe("posterior-regularization",
           "Rule-constrained posterior at alpha=beta=1: "
           "q(y|x) tilts the model posterior by exp(lambda rule).",
           ("dataset", "rule"), _EM, "per-iteration", _run_posterior_reg,
           {"enumeration": _check_posterior_reg}),
    Recipe("unified-em",
           "EM with a free entropy weight alpha; alpha=1 is classical EM, "
           "other alphas anneal the posterior.",
           ("dataset",), _EM, "smoke", _run_unsupervised,
           {"hand-em": _check_unified_em}),
    Recipe("policy-gradient",
           "f = log Q at alpha=beta=1: the student gradient is the exact "
           "policy gradient scaled by 1/Z.",
           ("mdp",), _UNIT, "gradient-direction", _run_policy_gradient,
           {"exact-pg": partial(_check_policy_gradient, "exact-pg"),
            "reinforce": partial(_check_policy_gradient, "reinforce")}),
    Recipe("intrinsic-reward",
           "f = log(Q_extrinsic + Q_intrinsic): reward shaping inside the "
           "same teacher.",
           ("mdp",), _UNIT, "per-iteration", _run_intrinsic,
           {"enumeration": _check_intrinsic}),
    Recipe("rl-as-inference",
           "f = Q at alpha=beta=rho: the teacher is the exponentiated-Q "
           "posterior p exp(Q/rho)/Z.",
           ("mdp",), _UNIT, "per-iteration", _run_rl_inference,
           {"enumeration": _check_rl_inference}),
    Recipe("knowledge-distillation",
           "f scores (x, y) by a frozen source model's log-likelihood on "
           "observed inputs; the student mimics the source.",
           ("dataset", "source_model"), _MLE, "fixed-point",
           _run_distillation, {"enumeration": _check_distillation}),
    Recipe("vanilla-gan",
           "alpha=0, beta=1, JS divergence, classifier discriminator.",
           ("p_data",), _GAN, "adversarial", partial(_run_gan, "vanilla_gan"),
           {"gan-optimum": _check_vanilla_gan}),
    Recipe("wgan",
           "alpha=0, beta=1, Wasserstein-1 with a Lipschitz critic.",
           ("p_data",), _GAN, "adversarial", partial(_run_gan, "wgan"),
           {"brute-w1": _check_wgan}),
    Recipe("ppo-gan",
           "alpha=0+, beta=1, KL; importance-reweighted discriminator and "
           "an exact tilt step for the model.",
           ("p_data",), _GAN, "fixed-point", partial(_run_gan, "ppo_gan"),
           {"reweighted-identity": _check_ppo_gan}),
    Recipe("multiplicative-weights",
           "Online expert weighting p <- p exp(reward/alpha)/Z, all rounds "
           "in one log-space pass over cumulative rewards; checked against "
           "a round-by-round Hedge.",
           ("rewards",), _UNIT, "trajectory", _run_mw, {"hedge": _check_mw}),
    Recipe("interpolation-schedule",
           "Anneal from data experience (beta=epsilon) through payoff "
           "augmentation to pure reward (beta=1).",
           ("dataset", "payoff"), _MLE, "smoke", _run_interpolation,
           {"none": _check_interpolation}),
]}


def check_equivalence(recipe: str, oracle: str, bundle: ProblemBundle,
                      tolerance: float, seed: int = 0, **params) -> dict:
    """Run the recipe and its oracle, compare per the pair's contract, and
    return a report with the worst deviation and a pass/fail verdict."""
    rec = get_recipe(recipe)
    if oracle not in rec.checks:
        raise IncompatiblePair(f"no equivalence contract for {recipe!r} vs {oracle!r}")
    bundle.require(*rec.requires)
    deviation, details = rec.checks[oracle](bundle, seed, **params)
    return _report(recipe, oracle, rec.contract, tolerance, deviation, details)
