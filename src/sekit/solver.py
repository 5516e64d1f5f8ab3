"""The teacher-student alternating optimizer for the unified objective

    min_{q, theta}  -alpha H(q) + beta D(q, p_theta) - E_q[f]

plus its solver variants (mirror-descent and mean-field teachers, the
sleep-phase fit of a parametric q, importance-sampling student), the
multiplicative-weights online loop, and the dynamic schedule that interpolates
between configurations.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import logsumexp

from .core import (AllNegInfinity, Dist, Domain, SHANNON, UncertaintyFn,
                   entropy, entropy_grad, normalize_log)
from .divergence import CE, DivergenceFn, divergence, divergence_grad_q
from .experience import ExperienceFn
from .models import (ConditionalSoftmaxModel, MixtureModel, Model,
                     SoftmaxModel, exact_fit, expected_log_prob, fit_to,
                     grad_expected_log_prob)

DEFAULT_EPSILON = 1e-8  # the "very small positive" beta of the MLE recipes


class ModeUnsupported(ValueError):
    pass


class PlanGap(ValueError):
    pass


@dataclass(frozen=True)
class SEConfig:
    """A point in the algorithm space: trade-off weights, divergence,
    uncertainty, experience, and the teacher/student solver modes."""

    alpha: float = 1.0
    beta: float = 1.0
    divergence: DivergenceFn = CE
    uncertainty: UncertaintyFn = SHANNON
    experience: Optional[ExperienceFn] = None
    teacher: str = "closed_form"  # closed_form | mirror_descent | mean_field
    student: str = "exact"  # exact | gradient | importance_sampling
    student_steps: int = 50
    student_step_size: float = 1.0
    is_samples: int = 10000
    q_decomposition: str = "none"  # none | fixed_x_marginal
    stop_grad_f: bool = True
    teacher_steps: int = 2000
    teacher_step_size: float = 0.5
    max_iters: int = 10000
    objective_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.teacher not in ("closed_form", "mirror_descent", "mean_field"):
            raise ValueError(f"unknown teacher mode {self.teacher!r}")
        if self.student not in ("exact", "gradient", "importance_sampling"):
            raise ValueError(f"unknown student mode {self.student!r}")
        if self.teacher == "closed_form":
            if self.divergence.kind != "ce" or self.uncertainty.kind != "shannon":
                raise ValueError("closed-form teacher requires CE divergence and Shannon entropy")
        if self.student == "importance_sampling" and self.alpha != self.beta:
            raise ModeUnsupported("importance-sampling student requires alpha = beta")


@dataclass
class TraceRecord:
    iteration: int
    neg_alpha_h: float
    beta_d: float
    neg_e_q_f: float
    total: float
    tv_to_ref: Optional[float]
    ms: float
    tag: str = ""


@dataclass
class Trace:
    records: List[TraceRecord] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    converged: bool = True

    CSV_COLUMNS = ("iter", "neg_alpha_H", "beta_D", "neg_Eqf", "total", "tv_to_ref", "ms")

    def add(self, **kwargs):
        self.records.append(TraceRecord(**kwargs))

    def to_csv(self, deterministic: bool = True) -> str:
        """CSV text; with deterministic=True the wall-clock column is zeroed
        so identical (config, seed) runs serialize byte-identically."""
        lines = [",".join(self.CSV_COLUMNS)]
        for r in self.records:
            ms = 0.0 if deterministic else r.ms
            tv = "" if r.tv_to_ref is None else repr(r.tv_to_ref)
            lines.append(",".join([
                str(r.iteration), repr(r.neg_alpha_h), repr(r.beta_d),
                repr(r.neg_e_q_f), repr(r.total), tv, repr(ms)]))
        return "\n".join(lines) + "\n"

    def to_json_obj(self, deterministic: bool = True) -> dict:
        return {
            "converged": self.converged,
            "diagnostics": self.diagnostics,
            "records": [
                {
                    "iter": r.iteration,
                    "neg_alpha_H": r.neg_alpha_h,
                    "beta_D": r.beta_d,
                    "neg_Eqf": r.neg_e_q_f,
                    "total": r.total,
                    "tv_to_ref": r.tv_to_ref,
                    "ms": 0.0 if deterministic else r.ms,
                    "tag": r.tag,
                }
                for r in self.records
            ],
        }


# ---------------------------------------------------------------------------
# Teacher steps
# ---------------------------------------------------------------------------

def _tilt_scores(logp: np.ndarray, f_vals: np.ndarray, beta: float) -> np.ndarray:
    """beta * log p + f with the conventions beta=0 kills the model term and
    -inf absorbs."""
    if beta == 0:
        model_term = np.zeros_like(logp)
    else:
        model_term = np.where(np.isneginf(logp), -np.inf, beta * logp)
    return np.where(np.isneginf(f_vals) | np.isneginf(model_term),
                    -np.inf, model_term + np.where(np.isneginf(f_vals), 0.0, f_vals))


def teacher_closed_form(p_theta: Dist, f_vals: np.ndarray, alpha: float,
                        beta: float) -> Dist:
    """q(t) proportional to exp{(beta log p_theta(t) + f(t)) / alpha}.

    alpha = 0 takes the zero-temperature limit: a point mass on the argmax of
    beta log p_theta + f, ties broken by lowest index.
    """
    f_vals = np.asarray(f_vals, dtype=float)
    scores = _tilt_scores(p_theta.logp, f_vals, beta)
    if np.all(np.isneginf(scores)):
        raise AllNegInfinity("teacher scores are all -inf")
    if alpha == 0:
        best = int(np.argmax(scores))  # argmax takes the first maximizer
        return Dist.point_mass(p_theta.size, best)
    return normalize_log(scores / alpha)


def se_objective(q: Dist, p_theta: Dist, f_vals: np.ndarray, alpha: float,
                 beta: float, div: DivergenceFn, unc: UncertaintyFn) -> float:
    neg_h = -alpha * entropy(q, unc)
    d = beta * divergence(div, q, p_theta) if beta != 0 else 0.0
    neg_f = -q.expect(f_vals)
    if neg_f == -np.inf:
        return -np.inf
    return neg_h + d + neg_f


def teacher_mirror_descent(p_theta: Dist, f_vals: np.ndarray, alpha: float,
                           beta: float, div: DivergenceFn,
                           unc: UncertaintyFn = SHANNON,
                           steps: int = 2000, step_size: float = 0.5,
                           tol: float = 1e-12) -> Dist:
    """Exponentiated-gradient descent of the inner objective over the simplex.

    Configurations with f = -inf (and, for KL/CE, with p_theta = 0) are
    frozen out of the support; the rest run backtracking EG so the objective
    never increases on an accepted step.
    """
    f_vals = np.asarray(f_vals, dtype=float)
    support = ~np.isneginf(f_vals)
    if div.kind in ("ce", "kl"):
        support &= ~np.isneginf(p_theta.logp)
    if not np.any(support):
        raise AllNegInfinity("no feasible support for the teacher")
    idx = np.where(support)[0]
    sub_p = Dist(p_theta.logp[idx] - logsumexp(p_theta.logp[idx])) \
        if div.kind in ("ce", "kl") else p_theta
    sub_f = f_vals[idx]

    def lift(sub_q: Dist) -> Dist:
        logq = np.full(p_theta.size, -np.inf)
        logq[idx] = sub_q.logp
        return Dist(logq)

    def objective(sub_q: Dist) -> float:
        return se_objective(lift(sub_q), p_theta, f_vals, alpha, beta, div, unc)

    q = Dist.uniform(idx.size)
    obj = objective(q)
    eta = step_size
    for _ in range(steps):
        grad = -sub_f.copy()
        if alpha != 0:
            grad = grad - alpha * entropy_grad(q, unc)
        if beta != 0:
            if div.kind in ("ce", "kl"):
                grad = grad + beta * divergence_grad_q(div, q, sub_p)
            else:
                grad = grad + beta * _full_grad(div, lift(q), p_theta)[idx]
        grad = grad - grad.mean()
        accepted = False
        for _halving in range(40):
            cand = normalize_log(q.logp - eta * grad)
            if np.any(cand.p == 0):
                eta /= 2.0
                continue
            new_obj = objective(cand)
            if new_obj <= obj + 1e-15:
                accepted = True
                break
            eta /= 2.0
        if not accepted:
            break
        if abs(obj - new_obj) < tol:
            q, obj = cand, new_obj
            break
        q, obj = cand, new_obj
        eta *= 1.5
    return lift(q)


def _full_grad(div: DivergenceFn, q: Dist, p: Dist) -> np.ndarray:
    """Gradient of D(q, p) in q for JS / W1, defined where q may touch zero."""
    if div.kind == "js":
        with np.errstate(divide="ignore"):
            ratio = np.where(q.p > 0, 2.0 * q.p / (q.p + p.p), 0.0)
            return np.where(q.p > 0, 0.5 * np.log(np.where(ratio > 0, ratio, 1.0)),
                            0.0)
    if div.kind == "w1":
        return divergence_grad_q(div, q, p)
    raise ValueError(div.kind)


def mean_field_teacher(p_theta: Dist, f_vals: np.ndarray, domain: Domain,
                       alpha: float, beta: float, sweeps: int = 50
                       ) -> Tuple[Dist, Dist, List[float]]:
    """Coordinate-ascent factored teacher q = q_x (x) q_y on a product domain.

    Each factor update is q_c proportional to exp{E_{q \\ c}[beta log p + f] / alpha};
    the free energy is non-increasing per sweep.  Returns (q_x, q_y, energies).
    """
    if sweeps < 1:
        raise ValueError("sweeps >= 1 required")
    if alpha <= 0:
        raise ValueError("mean-field teacher requires alpha > 0")
    nx, ny = domain.factor_sizes
    score = _tilt_scores(p_theta.logp, np.asarray(f_vals, dtype=float), beta)
    score = score.reshape(nx, ny)
    qx = np.full(nx, 1.0 / nx)
    qy = np.full(ny, 1.0 / ny)

    def free_energy() -> float:
        q = Dist.from_probs(np.outer(qx, qy).ravel())
        return se_objective(q, p_theta, f_vals, alpha, beta, CE, SHANNON)

    energies = [free_energy()]
    for _ in range(sweeps):
        # E_{q_x}[score] needs 0 * (-inf) = 0 on zero-mass rows
        qy = _mf_update(score, qx, axis=0, alpha=alpha)
        qx = _mf_update(score, qy, axis=1, alpha=alpha)
        energies.append(free_energy())
        if energies[-2] - energies[-1] < 1e-14:
            break
    return Dist.from_probs(qx), Dist.from_probs(qy), energies


def _mf_update(score: np.ndarray, other_q: np.ndarray, axis: int, alpha: float) -> np.ndarray:
    w = other_q.copy()
    masked = np.where(np.isneginf(score), 0.0, score)
    expect = np.tensordot(w, masked, axes=([0], [axis]))
    # configurations where score = -inf on a positive-mass slice stay -inf
    hard = np.tensordot(w > 0, np.isneginf(score).astype(float), axes=([0], [axis])) > 0
    scores = np.where(hard, -np.inf, expect)
    return normalize_log(scores / alpha).p


def sleep_phase_teacher(model: MixtureModel, p_x: np.ndarray,
                        q_model: ConditionalSoftmaxModel, steps: int = 500,
                        step_size: float = 1.0, restriction: str = "full"
                        ) -> Tuple[ConditionalSoftmaxModel, float]:
    """Sleep-phase update: fit a parametric q(y|x) by descending the
    reverse-direction KL(p_theta(y|x) || q(y|x)) averaged over the data.

    restriction: "full" (free row logits), "shared" (one logit vector for all
    x), or "uniform" (singleton family, no update).  Returns (q, final KL).
    """
    from .divergence import kl as kl_div  # local import to keep deps one-way

    p_x = np.asarray(p_x, dtype=float)
    nx, k = model.domain.factor_sizes
    log_joint = model.log_joint()  # (|X|, K)
    posts = np.zeros((nx, k))
    for x in range(nx):
        if p_x[x] > 0:
            posts[x] = np.exp(log_joint[x] - logsumexp(log_joint[x]))

    def avg_kl(qm: ConditionalSoftmaxModel) -> float:
        total = 0.0
        lq = qm.log_probs()
        for x in range(nx):
            if p_x[x] > 0:
                total += p_x[x] * kl_div(Dist.from_probs(posts[x]), Dist(lq[x]))
        return total

    if restriction == "uniform":
        return q_model, avg_kl(q_model)
    theta = q_model.theta.copy()
    obj = avg_kl(q_model)
    eta = step_size
    for _ in range(steps):
        qm = ConditionalSoftmaxModel(theta, q_model.domain)
        probs = qm.probs()
        grad = p_x[:, None] * (probs - posts)  # d KL / d row logits
        if restriction == "shared":
            grad = np.broadcast_to(grad.sum(axis=0), (nx, k)) / 1.0
        accepted = False
        for _halving in range(30):
            cand = ConditionalSoftmaxModel(theta - eta * grad, q_model.domain)
            new_obj = avg_kl(cand)
            if new_obj <= obj:
                accepted = True
                break
            eta /= 2.0
        if not accepted:
            break
        theta = cand.theta.copy()
        obj = new_obj
        eta *= 1.5
        if np.max(np.abs(grad)) < 1e-12:
            break
    final = ConditionalSoftmaxModel(theta, q_model.domain)
    return final, avg_kl(final)


# ---------------------------------------------------------------------------
# Student steps
# ---------------------------------------------------------------------------

def student_step(q: Dist, model: Model, config: SEConfig,
                 rng: Optional[np.random.Generator] = None,
                 f_vals: Optional[np.ndarray] = None) -> Model:
    if config.student == "exact":
        return exact_fit(model, q)
    if config.student == "gradient":
        return fit_to(model, q, steps=config.student_steps,
                      step_size=config.student_step_size)
    # importance sampling (alpha = beta): proposal p_theta, weights exp{f/alpha}
    if config.alpha != config.beta:
        raise ModeUnsupported("importance-sampling student requires alpha = beta")
    if f_vals is None:
        raise ValueError("importance-sampling student needs experience values")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    grad = importance_sampling_gradient(model, f_vals, config.alpha,
                                        config.is_samples, rng)
    if isinstance(model, SoftmaxModel):
        return model.with_theta(model.theta + config.student_step_size * grad)
    raise ModeUnsupported("importance-sampling student implemented for flat softmax models")


def importance_sampling_gradient(model: SoftmaxModel, f_vals: np.ndarray,
                                 alpha: float, n_samples: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """Self-normalized importance-sampling estimate of the exact student
    gradient E_q[grad log p_theta], with proposal p_theta and weights
    exp{f / alpha}."""
    p = np.exp(model.log_probs())
    draws = rng.choice(model.domain.size, size=n_samples, p=p)
    logw = np.asarray(f_vals, dtype=float)[draws] / alpha
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()
    weighted_hist = np.bincount(draws, weights=w, minlength=model.domain.size)
    return weighted_hist - p


# ---------------------------------------------------------------------------
# The alternating run
# ---------------------------------------------------------------------------

def model_dist(model: Model, p_x: Optional[np.ndarray] = None) -> Dist:
    """The model's distribution over its (product) domain; conditional models
    are joined with p0(x) per the joint convention p(y|x) p0(x)."""
    if isinstance(model, ConditionalSoftmaxModel):
        if p_x is None:
            raise ValueError("conditional models need a marginal over X")
        return Dist(model.joint_log_probs(p_x))
    return model.dist()


def _teacher(config: SEConfig, p_theta: Dist, f_vals: np.ndarray,
             domain: Domain) -> Dist:
    if config.teacher == "closed_form":
        return teacher_closed_form(p_theta, f_vals, config.alpha, config.beta)
    if config.teacher == "mirror_descent":
        return teacher_mirror_descent(
            p_theta, f_vals, config.alpha, config.beta, config.divergence,
            config.uncertainty, steps=config.teacher_steps,
            step_size=config.teacher_step_size)
    qx, qy, _ = mean_field_teacher(p_theta, f_vals, domain, config.alpha,
                                   config.beta)
    return Dist.from_probs(np.outer(qx.p, qy.p).ravel())


def _decomposed_teacher(config: SEConfig, model: Model, f_vals: np.ndarray,
                        p_x: np.ndarray, domain: Domain) -> Dist:
    """Teacher restricted to q(x, y) = p_x(x) q(y|x): per-x closed form."""
    nx, ny = domain.factor_sizes
    # rows with p_x = 0 stay -inf; the model marginal may be 0 there too
    rows = np.flatnonzero(np.asarray(p_x) > 0)
    if isinstance(model, MixtureModel):
        log_cond = model.log_joint()[rows] - model.log_marginal_x()[rows, None]
    elif isinstance(model, ConditionalSoftmaxModel):
        log_cond = model.log_probs()[rows]
    else:
        raise ModeUnsupported("q decomposition needs a conditional or mixture model")
    f_mat = np.asarray(f_vals, dtype=float).reshape(nx, ny)
    # any x-only part of f is constant per row and cancels in the per-row
    # normalization; only the y-dependence of f tilts the conditional.
    joint = np.full((nx, ny), -np.inf)
    for i, x in enumerate(rows):
        scores = _tilt_scores(log_cond[i], f_mat[x], config.beta)
        if config.alpha == 0:
            cond = np.full(ny, -np.inf)
            cond[int(np.argmax(scores))] = 0.0
        else:
            cond = scores / config.alpha - logsumexp(scores / config.alpha)
        joint[x] = np.log(p_x[x]) + cond
    return Dist(joint.ravel())


def _step(config: SEConfig, model: Model, domain: Domain,
          p_x: Optional[np.ndarray], reference: Optional[Dist],
          rng: np.random.Generator, trace: Trace, iteration: int,
          tag: str = "") -> Tuple[Model, Dist, float]:
    """One teacher-student iteration, recorded in `trace`.  Returns the new
    model, the teacher q and the objective total at the old model."""
    t0 = time.perf_counter()
    f_vals = (config.experience.values(model) if config.experience is not None
              else np.zeros(domain.size))
    p_theta = model_dist(model, p_x)
    if config.q_decomposition == "fixed_x_marginal":
        q = _decomposed_teacher(config, model, f_vals, p_x, domain)
    else:
        q = _teacher(config, p_theta, f_vals, domain)
    neg_h = -config.alpha * entropy(q, config.uncertainty)
    d_term = (config.beta * divergence(config.divergence, q, p_theta)
              if config.beta != 0 else 0.0)
    neg_f = -q.expect(f_vals)
    total = neg_h + d_term + neg_f
    model = student_step(q, model, config, rng=rng, f_vals=f_vals)
    tv = None
    if reference is not None:
        tv = model_dist(model, p_x).tv(reference)
    ms = (time.perf_counter() - t0) * 1000.0
    trace.add(iteration=iteration, neg_alpha_h=neg_h, beta_d=d_term,
              neg_e_q_f=neg_f, total=total, tv_to_ref=tv, ms=ms, tag=tag)
    if config.experience is not None and config.experience.diagnostics:
        trace.diagnostics.update(config.experience.diagnostics)
    return model, q, total


def run(config: SEConfig, model: Model, domain: Domain,
        p_x: Optional[np.ndarray] = None,
        reference: Optional[Dist] = None,
        callback: Optional[Callable] = None) -> Tuple[Model, Trace]:
    """Alternate teacher and student until the stopping rule fires.

    Theta-dependent experience is re-evaluated every teacher step.  Stops at
    max_iters or when |delta objective| < objective_tol for 5 consecutive
    iterations.
    """
    trace = Trace()
    rng = np.random.default_rng(config.seed)
    prev_obj = None
    quiet = 0
    for n in range(1, config.max_iters + 1):
        model, q, total = _step(config, model, domain, p_x, reference, rng,
                                trace, n)
        if callback is not None:
            callback(n, q, model)
        if prev_obj is not None and np.isfinite(total) and np.isfinite(prev_obj) \
                and abs(total - prev_obj) < config.objective_tol:
            quiet += 1
            if quiet >= 5:
                trace.converged = True
                return model, trace
        else:
            quiet = 0
        prev_obj = total
    trace.converged = False
    return model, trace


# ---------------------------------------------------------------------------
# Online multiplicative weights
# ---------------------------------------------------------------------------

def mw_update(weights: Dist, rewards: np.ndarray, alpha: float) -> Dist:
    """p(t) <- p(t) exp{f(t) / alpha} / Z: the multiplicative-weights rule."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rewards = np.asarray(rewards, dtype=float)
    if not np.all(np.isfinite(rewards)):
        raise ValueError("rewards must be finite")
    p = weights.p * np.exp(rewards / alpha)
    return Dist.from_probs(p / np.sum(p))


# ---------------------------------------------------------------------------
# Dynamic schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """A half-open range [start, end] of outer iterations with config overrides."""

    start: int
    end: int
    overrides: dict = field(default_factory=dict)


def schedule(base: SEConfig, plan: Sequence[Segment], model: Model,
             domain: Domain, p_x: Optional[np.ndarray] = None,
             reference: Optional[Dist] = None) -> Tuple[Model, Trace]:
    """Run the dynamic outer loop: at each tau the active segment's config
    (experience, weights, divergence, ...) drives one teacher-student step."""
    plan = list(plan)
    if not plan:
        raise PlanGap("empty plan")
    expected = plan[0].start
    for seg in plan:
        if seg.start != expected or seg.end < seg.start:
            raise PlanGap(f"plan segments are not contiguous at tau = {seg.start}")
        expected = seg.end + 1
    trace = Trace()
    rng = np.random.default_rng(base.seed)
    for seg in plan:
        config = replace(base, **seg.overrides)
        for tau in range(seg.start, seg.end + 1):
            model, _, _ = _step(config, model, domain, p_x, reference, rng,
                                trace, tau, f"{seg.start}-{seg.end}")
    return model, trace
