"""Tabular softmax target models with exact likelihoods and analytic gradients.

Three families: a flat softmax over a domain, a row-wise conditional softmax
(policy), and a latent-variable mixture.  All are value types; updates return
new models.  The softmax and the mixture have an exact student (`exact_fit`);
the softmax and the conditional model have a gradient student (`fit_to`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Dist, Domain, logsumexp, safe_log


class ShapeMismatch(ValueError):
    pass


class NonFiniteGradient(ValueError):
    pass


def _log_softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    return v - logsumexp(v, axis=axis, keepdims=True)


@dataclass(frozen=True)
class SoftmaxModel:
    """p_theta(t) = softmax(theta)_t over a flat domain."""

    theta: np.ndarray
    domain: Domain

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (self.domain.size,):
            raise ShapeMismatch("theta must be a length-N vector")
        if not (np.isfinite(theta) | (theta == -np.inf)).all():
            raise ValueError("theta entries must be finite or -inf")
        theta = theta.copy()
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    @classmethod
    def zeros(cls, domain: Domain) -> "SoftmaxModel":
        return cls(np.zeros(domain.size), domain)

    def log_probs(self) -> np.ndarray:
        return _log_softmax(self.theta)

    def dist(self) -> Dist:
        return Dist(self.log_probs())

    def with_theta(self, theta: np.ndarray) -> "SoftmaxModel":
        return SoftmaxModel(theta, self.domain)


@dataclass(frozen=True)
class ConditionalSoftmaxModel:
    """p_theta(y|x) = softmax over each row of an |X| x |Y| logit matrix."""

    theta: np.ndarray
    domain: Domain  # product domain, factor sizes (|X|, |Y|)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        nx, ny = self.domain.factor_sizes
        if theta.shape != (nx, ny):
            raise ShapeMismatch(f"theta must be {nx}x{ny}")
        theta = theta.copy()
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    def log_probs(self) -> np.ndarray:
        """|X| x |Y| matrix of log p(y|x)."""
        return _log_softmax(self.theta, axis=1)

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs())

    def joint_log_probs(self, p_x: np.ndarray) -> np.ndarray:
        """log[p(y|x) p_x(x)] flattened with t = x * |Y| + y."""
        log_px = safe_log(np.asarray(p_x, dtype=float))
        return (self.log_probs() + log_px[:, None]).ravel()

    def with_theta(self, theta: np.ndarray) -> "ConditionalSoftmaxModel":
        return ConditionalSoftmaxModel(theta, self.domain)


@dataclass(frozen=True)
class MixtureModel:
    """Joint p_theta(x, y) = softmax(mix)_y * softmax(comp_y)_x.

    y in {0..K-1} indexes the mixture component; the joint lives on the
    product domain with factor sizes (|X|, K) and index t = x * K + y.
    """

    mixture_logits: np.ndarray  # (K,)
    component_logits: np.ndarray  # (K, |X|)
    domain: Domain

    def __post_init__(self):
        mix = np.asarray(self.mixture_logits, dtype=float)
        comp = np.asarray(self.component_logits, dtype=float)
        nx, k = self.domain.factor_sizes
        if mix.shape != (k,):
            raise ShapeMismatch(f"mixture logits must have length {k}")
        if comp.shape != (k, nx):
            raise ShapeMismatch(f"component logits must be {k}x{nx}")
        mix = mix.copy()
        comp = comp.copy()
        mix.flags.writeable = False
        comp.flags.writeable = False
        object.__setattr__(self, "mixture_logits", mix)
        object.__setattr__(self, "component_logits", comp)

    def log_joint(self) -> np.ndarray:
        """|X| x K matrix of log p(x, y)."""
        log_pi = _log_softmax(self.mixture_logits)  # (K,)
        log_c = _log_softmax(self.component_logits, axis=1)  # (K, |X|)
        return (log_pi[:, None] + log_c).T  # (|X|, K)

    def log_probs(self) -> np.ndarray:
        """Flattened log joint with t = x * K + y."""
        return self.log_joint().ravel()

    def dist(self) -> Dist:
        return Dist(self.log_probs())

    def log_marginal_x(self) -> np.ndarray:
        return logsumexp(self.log_joint(), axis=1)

    def with_logits(self, mix: np.ndarray, comp: np.ndarray) -> "MixtureModel":
        return MixtureModel(mix, comp, self.domain)


Model = Union[SoftmaxModel, ConditionalSoftmaxModel, MixtureModel]


def grad_expected_log_prob(model: Model, q: Dist) -> np.ndarray:
    """Gradient of E_q[log p_theta] with respect to the model logits.

    For the conditional model the joint convention p(y|x) p0(x) is used, so
    only the conditional part contributes; q lives on the product domain.
    The mixture has no gradient here: its student is `exact_fit`.
    """
    if isinstance(model, SoftmaxModel):
        if q.size != model.domain.size:
            raise ShapeMismatch("q does not match the model domain")
        return q.p - np.exp(model.log_probs())
    if isinstance(model, ConditionalSoftmaxModel):
        nx, ny = model.domain.factor_sizes
        if q.size != nx * ny:
            raise ShapeMismatch("q does not match the product domain")
        q_xy = q.p.reshape(nx, ny)
        q_x = q_xy.sum(axis=1)
        return q_xy - q_x[:, None] * model.probs()
    raise TypeError(f"unsupported model type {type(model)!r}")


def expected_log_prob(model: Model, q: Dist) -> float:
    return q.expect(model.log_probs().ravel())


def exact_fit(model: Model, q: Dist) -> Model:
    """Install the exact maximizer of E_q[log p_theta]: q itself for the flat
    softmax, and the closed-form mixture weights and components for the
    mixture.  The conditional model has no exact student here; it takes
    `fit_to`'s gradient steps."""
    if isinstance(model, SoftmaxModel):
        return model.with_theta(q.logp.copy())
    if isinstance(model, MixtureModel):
        nx, k = model.domain.factor_sizes
        q_xy = q.p.reshape(nx, k)
        q_y = q_xy.sum(axis=0)
        mix = safe_log(q_y)
        comp = model.component_logits.copy()
        live = q_y > 0  # a component without mass keeps its old logits
        comp[live] = safe_log(q_xy[:, live].T / q_y[live, None])
        return model.with_logits(mix, comp)
    raise TypeError(f"unsupported model type {type(model)!r}")


def fit_to(model: Model, q: Dist, steps: int = 100, step_size: float = 1.0) -> Model:
    """Fit p_theta to q by gradient ascent on E_q[log p_theta], with
    backtracking so the objective is non-decreasing per step.

    Any family with a `grad_expected_log_prob` (softmax, conditional) can be
    fitted; a mixture raises TypeError.
    """
    if steps < 0 or step_size <= 0:
        raise ValueError("steps >= 0 and step_size > 0 required")
    current = model
    obj = expected_log_prob(current, q)
    for _ in range(steps):
        grad = grad_expected_log_prob(current, q)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradient("gradient has non-finite entries")
        eta = step_size
        for _halving in range(30):
            candidate = current.with_theta(current.theta + eta * grad)
            new_obj = expected_log_prob(candidate, q)
            if new_obj >= obj:
                break
            eta /= 2.0
        else:
            return current  # no ascent direction at this scale
        current, obj = candidate, new_obj
    return current
