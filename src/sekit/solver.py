"""The teacher-student alternating optimizer for the unified objective

    min_{q, theta}  -alpha H(q) + beta CE(q, p_theta) - E_q[f]

with the closed-form teacher (and its per-x form for a fixed x marginal), the
exact student of every model family, the multiplicative-weights
trajectory over all rounds in one log-space pass, and the dynamic schedule
that interpolates between configurations.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (AllNegInfinity, Dist, Domain, entropy, logsumexp,
                   normalize_log)
from .divergence import CE, divergence
from .experience import ExperienceFn
from .models import ConditionalSoftmaxModel, MixtureModel, Model, exact_fit

DEFAULT_EPSILON = 1e-8  # the "very small positive" beta of the MLE recipes


class ModeUnsupported(ValueError):
    pass


class PlanGap(ValueError):
    pass


@dataclass(frozen=True)
class SEConfig:
    """A point in the algorithm space: the trade-off weights, the experience,
    the teacher's decomposition and the stopping rule.  The divergence is
    cross-entropy and the uncertainty is Shannon entropy, which the
    closed-form teacher needs; the student is the model's exact fit."""

    alpha: float = 1.0
    beta: float = 1.0
    experience: Optional[ExperienceFn] = None
    q_decomposition: str = "none"  # none | fixed_x_marginal
    max_iters: int = 10000
    objective_tol: float = 1e-10

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and >= 0")
        if not 0 <= self.beta < np.inf:
            raise ValueError("beta must be finite and >= 0")
        if self.q_decomposition not in ("none", "fixed_x_marginal"):
            raise ValueError(f"unknown q_decomposition {self.q_decomposition!r}")


@dataclass
class TraceRecord:
    iteration: int
    neg_alpha_h: float
    beta_d: float
    neg_e_q_f: float
    total: float
    tv_to_ref: Optional[float]
    tag: str = ""


@dataclass
class Trace:
    records: List[TraceRecord] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    converged: bool = True

    CSV_COLUMNS = ("iter", "neg_alpha_H", "beta_D", "neg_Eqf", "total", "tv_to_ref", "ms")

    def add(self, **kwargs):
        self.records.append(TraceRecord(**kwargs))

    def to_csv(self) -> str:
        """CSV text whose `ms` column is always 0.0 (no run time is
        recorded), so identical (config, seed) runs serialize
        byte-identically."""
        lines = [",".join(self.CSV_COLUMNS)]
        for r in self.records:
            tv = "" if r.tv_to_ref is None else repr(r.tv_to_ref)
            lines.append(",".join([
                str(r.iteration), repr(r.neg_alpha_h), repr(r.beta_d),
                repr(r.neg_e_q_f), repr(r.total), tv, "0.0"]))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
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
                    "ms": 0.0,
                    "tag": r.tag,
                }
                for r in self.records
            ],
        }


# ---------------------------------------------------------------------------
# Teacher steps
# ---------------------------------------------------------------------------

def _tilt_scores(logp: np.ndarray, f_vals: np.ndarray, beta: float) -> np.ndarray:
    """beta * log p + f for finite beta >= 0 (0 kills the model term); -inf
    absorbs.  At beta = 1 the product is skipped: 1 * x is x bit for bit."""
    if not 0 <= beta < np.inf:
        raise ValueError("beta must be finite and >= 0")
    if beta == 0:
        return f_vals + 0.0
    return (logp if beta == 1 else beta * logp) + f_vals


def teacher_closed_form(p_theta: Dist, f_vals: np.ndarray, alpha: float,
                        beta: float) -> Dist:
    """q(t) proportional to exp{(beta log p_theta(t) + f(t)) / alpha}, alpha, beta >= 0.

    alpha = 0 takes the zero-temperature limit: a point mass on the argmax of
    beta log p_theta + f, ties broken by lowest index.  alpha and beta are
    finite; at alpha = 1 the division is skipped, which changes no bit.
    """
    if not 0 <= alpha < np.inf:
        raise ValueError("alpha must be finite and >= 0")
    f_vals = np.asarray(f_vals, dtype=float)
    scores = _tilt_scores(p_theta.logp, f_vals, beta)
    if alpha == 0:
        if np.all(np.isneginf(scores)):
            raise AllNegInfinity("teacher scores are all -inf")
        best = int(np.argmax(scores))  # argmax takes the first maximizer
        return Dist.point_mass(p_theta.size, best)
    if alpha != 1:
        scores = scores / alpha
    return normalize_log(scores)  # raises AllNegInfinity itself


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


def _decomposed_teacher(config: SEConfig, model: Model, f_vals: np.ndarray,
                        p_x: np.ndarray, domain: Domain) -> Dist:
    """Teacher restricted to q(x, y) = p_x(x) q(y|x): per-x closed form.

    An observed x (p_x > 0) whose scores are all -inf, including one where
    the model's own marginal is 0 and beta > 0, raises AllNegInfinity.
    """
    nx, ny = domain.factor_sizes
    # rows with p_x = 0 stay -inf; the model marginal may be 0 there too
    p_x = np.asarray(p_x, dtype=float)
    rows = np.flatnonzero(p_x > 0)
    if isinstance(model, MixtureModel):
        log_joint = model.log_joint()[rows]
        log_marginal = model.log_marginal_x()[rows]
        # a zero model marginal leaves its row -inf, without -inf - -inf
        live = ~np.isneginf(log_marginal)
        log_cond = np.full_like(log_joint, -np.inf)
        log_cond[live] = log_joint[live] - log_marginal[live, None]
    elif isinstance(model, ConditionalSoftmaxModel):
        log_cond = model.log_probs()[rows]
    else:
        raise ModeUnsupported("q decomposition needs a conditional or mixture model")
    f_mat = np.asarray(f_vals, dtype=float).reshape(nx, ny)
    # any x-only part of f is constant per row and cancels in the per-row
    # normalization; only the y-dependence of f tilts the conditional.
    scores = _tilt_scores(log_cond, f_mat[rows], config.beta)
    # log_z (the top score at alpha = 0) is -inf only on an all -inf row
    if config.alpha == 0:
        top = (np.arange(rows.size), np.argmax(scores, axis=1))  # first maximizer
        log_z = scores[top]
    else:
        if config.alpha != 1:
            scores = scores / config.alpha
        log_z = logsumexp(scores, axis=1)
    dead = np.flatnonzero(log_z == -np.inf)
    if dead.size:
        raise AllNegInfinity(
            f"teacher scores are all -inf at observed x = {rows[dead[0]]}")
    if config.alpha == 0:
        cond = np.full(scores.shape, -np.inf)
        cond[top] = 0.0
    else:
        cond = scores - log_z[:, None]
    joint = np.full((nx, ny), -np.inf)
    joint[rows] = np.log(p_x[rows])[:, None] + cond
    return Dist(joint.ravel())


def _step(config: SEConfig, model: Model, domain: Domain,
          p_x: Optional[np.ndarray], reference: Optional[Dist],
          trace: Trace, iteration: int, tag: str = "") -> Tuple[Model, Dist, float]:
    """One teacher-student iteration, recorded in `trace`.  Returns the new
    model, the teacher q and the objective total at the old model."""
    f_vals = (config.experience.values(model) if config.experience is not None
              else np.zeros(domain.size))
    p_theta = model_dist(model, p_x)
    if config.q_decomposition == "fixed_x_marginal":
        q = _decomposed_teacher(config, model, f_vals, p_x, domain)
    else:
        q = teacher_closed_form(p_theta, f_vals, config.alpha, config.beta)
    neg_h = -config.alpha * entropy(q)
    d_term = (config.beta * divergence(CE, q, p_theta)
              if config.beta != 0 else 0.0)
    neg_f = -q.expect(f_vals)
    total = neg_h + d_term + neg_f
    model = exact_fit(model, q)
    tv = None
    if reference is not None:
        tv = model_dist(model, p_x).tv(reference)
    trace.add(iteration=iteration, neg_alpha_h=neg_h, beta_d=d_term,
              neg_e_q_f=neg_f, total=total, tv_to_ref=tv, tag=tag)
    return model, q, total


def _same_parameters(old: Model, new: Model) -> bool:
    """Whether every parameter array of `new` equals `old`'s bit for bit."""
    return all(np.array_equal(getattr(old, f.name).view(np.uint64),
                              getattr(new, f.name).view(np.uint64))
               for f in fields(old) if f.name != "domain")


def run(config: SEConfig, model: Model, domain: Domain,
        p_x: Optional[np.ndarray] = None,
        reference: Optional[Dist] = None,
        callback: Optional[Callable] = None) -> Tuple[Model, Trace]:
    """Alternate teacher and student until the stopping rule fires.

    Theta-dependent experience is re-evaluated every teacher step.  Stops at
    max_iters or when |delta objective| < objective_tol for 5 consecutive
    iterations.  With objective_tol > 0 it also stops, converged, at the
    exact fixed point: a student step that returns the parameters it started
    from, bit for bit.  A step is a function of the model alone, so every
    later step would repeat that one, and the final model is the same.
    Runs with objective_tol = 0 keep their full iteration count.
    """
    trace = Trace()
    prev_obj = None
    quiet = 0
    for n in range(1, config.max_iters + 1):
        start = model
        model, q, total = _step(config, model, domain, p_x, reference, trace, n)
        if callback is not None:
            callback(n, q, model)
        if config.objective_tol > 0 and _same_parameters(start, model):
            trace.converged = True
            return model, trace
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

def mw_trajectory(initial: Dist, rewards: np.ndarray, alpha: float) -> np.ndarray:
    """The (T, K) log-weights of multiplicative weights after each round.

    Row t is log p_t with p_t(k) proportional to
    initial(k) exp{sum_{s <= t} rewards[s, k] / alpha}: Hedge's weights in
    closed form (follow-the-regularised-leader with an entropy regulariser),
    one cumulative sum and one row-wise log-sum-exp for all T rounds.  From a
    uniform start each row is the closed-form teacher at beta = 0 with f the
    cumulative reward.  alpha is finite and > 0; rewards are finite.
    """
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be finite and > 0")
    rewards = np.asarray(rewards, dtype=float)
    if rewards.ndim != 2 or rewards.shape[1] != initial.size:
        raise ValueError(f"rewards must be a (T, {initial.size}) array, "
                         f"got shape {rewards.shape}")
    if not np.isfinite(rewards).all():
        raise ValueError("rewards must be finite")
    scores = initial.logp + np.cumsum(rewards, axis=0) / alpha
    return scores - logsumexp(scores, axis=1, keepdims=True)


def mw_update(weights: Dist, rewards: np.ndarray, alpha: float) -> Dist:
    """p(t) <- p(t) exp{f(t) / alpha} / Z: one round of `mw_trajectory`."""
    return Dist(mw_trajectory(weights, np.asarray(rewards)[None], alpha)[0])


# ---------------------------------------------------------------------------
# Dynamic schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """The outer iterations start..end, both included, with config overrides."""

    start: int
    end: int
    overrides: dict = field(default_factory=dict)


def schedule(base: SEConfig, plan: Sequence[Segment], model: Model,
             domain: Domain) -> Tuple[Model, Trace]:
    """Run the dynamic outer loop: at each tau the active segment's config
    (experience, weights, ...) drives one teacher-student step.  Segments
    are contiguous; each runs every tau from its start to its end."""
    plan = list(plan)
    if not plan:
        raise PlanGap("empty plan")
    expected = plan[0].start
    for seg in plan:
        if seg.start != expected or seg.end < seg.start:
            raise PlanGap(f"plan segments are not contiguous at tau = {seg.start}")
        expected = seg.end + 1
    trace = Trace()
    for seg in plan:
        config = replace(base, **seg.overrides)
        for tau in range(seg.start, seg.end + 1):
            model, _, _ = _step(config, model, domain, None, None, trace,
                                tau, f"{seg.start}-{seg.end}")
    return model, trace
