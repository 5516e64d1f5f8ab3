"""Discriminator-in-the-loop training: classifier and Lipschitz-critic
experience functions, the importance-reweighted discriminator update, and the
adversarial alternating loop for the implicit-generation recipes (entropy
weight zero).

Discriminators are tabular: one scalar parameter per domain element.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dist, logsumexp, normalize_log
from .divergence import DivergenceFn, divergence
from .models import SoftmaxModel
from .solver import ModeUnsupported, Trace

MODES = ("classifier", "lipschitz_critic")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                    x - np.log1p(np.exp(-np.abs(x))))


@dataclass(frozen=True)
class Discriminator:
    """Tabular discriminator phi over the domain.

    classifier: f(t) = log sigmoid(phi_t), the log-probability of "real".
    lipschitz_critic: f(t) = phi_t, with consecutive differences kept within
    clip * (coordinate gap).
    """

    phi: np.ndarray
    mode: str = "classifier"
    clip: float = 1.0
    coords: Optional[np.ndarray] = None

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float).copy()
        if phi.ndim != 1:
            raise ValueError("phi must be a vector")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite")
        if self.mode not in MODES:
            raise ValueError(f"unknown discriminator mode {self.mode!r}")
        if self.clip <= 0:
            raise ValueError("clip must be positive")
        if self.mode == "lipschitz_critic":
            phi = _project_lipschitz(phi, self.clip, self._gaps(phi.size))
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float).copy()
            if c.shape != phi.shape or np.any(np.diff(c) <= 0):
                raise ValueError("coords must be strictly increasing and match phi")
            c.flags.writeable = False
            object.__setattr__(self, "coords", c)

    def _gaps(self, n: int) -> np.ndarray:
        if self.coords is None:
            return np.ones(n - 1)
        return np.diff(np.asarray(self.coords, dtype=float))

    def f_values(self) -> np.ndarray:
        """The experience vector f_phi this discriminator induces."""
        if self.mode == "classifier":
            return _log_sigmoid(self.phi)
        return self.phi.copy()

    def sigma(self) -> np.ndarray:
        """Classifier output sigmoid(phi): probability of the "real" label."""
        if self.mode != "classifier":
            raise ModeUnsupported("sigma is only defined for classifier mode")
        return _sigmoid(self.phi)

    def with_phi(self, phi: np.ndarray) -> "Discriminator":
        return Discriminator(phi, self.mode, self.clip, self.coords)


def _project_lipschitz(phi: np.ndarray, clip: float, gaps: np.ndarray) -> np.ndarray:
    """Clamp consecutive differences to [-clip * gap, clip * gap]; idempotent."""
    diffs = np.clip(np.diff(phi), -clip * gaps, clip * gaps)
    out = np.empty_like(phi)
    out[0] = phi[0]
    out[1:] = phi[0] + np.cumsum(diffs)
    return out


def discriminator_objective(disc: Discriminator, p_data: Dist, q: Dist,
                            objective: str = "separation") -> float:
    """separation: E_pd[f] - E_q[f].  classification: the binary real/fake
    log-likelihood E_pd[log sigma] + E_q[log(1 - sigma)]."""
    if objective == "separation":
        f = disc.f_values()
        return p_data.expect(f) - q.expect(f)
    if objective != "classification":
        raise ValueError(f"unknown objective {objective!r}")
    if disc.mode != "classifier":
        raise ModeUnsupported("classification objective needs classifier mode")
    return p_data.expect(_log_sigmoid(disc.phi)) + q.expect(_log_sigmoid(-disc.phi))


def discriminator_gradient(disc: Discriminator, p_data: Dist, q: Dist,
                           objective: str = "separation") -> np.ndarray:
    if objective == "classification":
        s = _sigmoid(disc.phi)
        return p_data.p * (1.0 - s) - q.p * s
    f_grad = (_sigmoid(-disc.phi) if disc.mode == "classifier"
              else np.ones_like(disc.phi))
    return (p_data.p - q.p) * f_grad


def discriminator_update(disc: Discriminator, p_data: Dist, q: Dist,
                         steps: int = 1, step_size: float = 1.0,
                         objective: str = "separation") -> Discriminator:
    """Gradient-ascend the chosen objective with backtracking.  A Lipschitz
    critic on the separation objective is maximised exactly in one call, so
    steps and step_size do not apply to it."""
    if q.size != disc.phi.size or p_data.size != disc.phi.size:
        raise ValueError("distribution sizes do not match the discriminator")
    if disc.mode == "lipschitz_critic" and objective == "separation":
        return _lipschitz_box_ascent(disc, p_data, q)
    phi = disc.phi.copy()
    obj = discriminator_objective(disc, p_data, q, objective)
    for _ in range(steps):
        cur = disc.with_phi(phi)
        grad = discriminator_gradient(cur, p_data, q, objective)
        eta = step_size
        accepted = False
        for _halving in range(40):
            cand = disc.with_phi(phi + eta * grad)  # constructor projects
            new_obj = discriminator_objective(cand, p_data, q, objective)
            if new_obj >= obj:
                accepted = True
                break
            eta /= 2.0
        if not accepted:
            break
        phi, obj = cand.phi.copy(), new_obj
    return disc.with_phi(phi)


def _lipschitz_box_ascent(disc: Discriminator, p_data: Dist,
                          q: Dist) -> Discriminator:
    """Ascend the separation objective in the consecutive-difference
    coordinates, where the Lipschitz constraint is a simple box.

    With delta_j = phi_{j+1} - phi_j the objective E_pd[phi] - E_q[phi]
    is linear: sum_j delta_j * (-F_j) with F the CDF of p_data - q.  Each
    coordinate's maximizer is the box corner opposing sign(F_j), reached by
    an exact line search (coordinates with F_j = 0 are left untouched).
    """
    d = p_data.p - q.p
    f_cdf = np.cumsum(d)[:-1]
    gaps = disc._gaps(disc.phi.size)
    bounds = disc.clip * gaps
    delta = np.diff(disc.phi)
    delta = np.where(f_cdf > 0, -bounds, np.where(f_cdf < 0, bounds, delta))
    phi = np.empty_like(disc.phi)
    phi[0] = disc.phi[0]
    phi[1:] = phi[0] + np.cumsum(delta)
    return disc.with_phi(phi)


def reweighted_discriminator_gradient(disc: Discriminator, p_data: Dist,
                                      model: SoftmaxModel) -> np.ndarray:
    """Gradient of -(1/Z) E_{p_theta}[e^{f_phi} f_phi] + E_pd[f_phi] in phi,
    with the importance weights e^{f_phi} / Z held fixed at the current phi.

    With the weights frozen this equals the plain separation gradient against
    the explicit tilt q = p_theta e^{f_phi} / Z.
    """
    f = disc.f_values()
    logp = model.log_probs()
    logq = logp + f
    q = normalize_log(logq - logsumexp(logq))
    return discriminator_gradient(disc, p_data, q, "separation")


def reweighted_discriminator_update(disc: Discriminator, p_data: Dist,
                                    model: SoftmaxModel, steps: int = 1,
                                    step_size: float = 1.0) -> Discriminator:
    """Discriminator ascent where the fake side is the self-normalized
    reweighting of model samples by e^{f_phi}, refreshed each step."""
    phi = disc.phi.copy()
    for _ in range(steps):
        cur = disc.with_phi(phi)
        grad = reweighted_discriminator_gradient(cur, p_data, model)
        cand = disc.with_phi(phi + step_size * grad)
        phi = cand.phi.copy()
    return disc.with_phi(phi)


def tilted_q(model: SoftmaxModel, disc: Discriminator) -> Dist:
    """q = p_theta e^{f_phi} / Z, the teacher at alpha -> 0+, beta = 1, KL."""
    return normalize_log(model.log_probs() + disc.f_values())


@dataclass
class AdversarialResult:
    model: SoftmaxModel
    discriminator: Discriminator
    trace: Trace
    converged: bool


def adversarial_run(recipe: str, p_data: Dist, model: SoftmaxModel,
                    iters: int = 5000, disc_steps: int = 5,
                    disc_step_size: float = 4.0, model_step_size: float = 0.5,
                    clip: float = 1.0, coords: Optional[np.ndarray] = None,
                    tol: float = 1e-3) -> AdversarialResult:
    """Alternating discriminator / model updates for the zero-entropy recipes.

    recipe:
      "vanilla_gan": classifier discriminator (binary classification
        objective); model takes an exponentiated-gradient step along the
        estimated JS influence 0.5 log(1 - sigma(phi)) (descent direction).
      "wgan": Lipschitz critic (separation objective); model EG step along
        +phi (ascending the critic's fake-side expectation lowers W1).
      "ppo_gan": classifier discriminator trained in reweighted form; the
        model step is the exact student fit to the tilt q = p_theta e^f / Z.

    The trace records the divergence to p_data (JS, or W1 for "wgan").
    """
    if recipe not in ("vanilla_gan", "wgan", "ppo_gan"):
        raise ValueError(f"unknown adversarial recipe {recipe!r}")
    n = p_data.size
    if recipe == "wgan":
        disc = Discriminator(np.zeros(n), "lipschitz_critic", clip, coords)
        div = DivergenceFn("w1", coords)
    else:
        disc = Discriminator(np.zeros(n), "classifier")
        div = DivergenceFn("js")
    trace = Trace()
    converged = False
    p_theta = model.dist()  # rebuilt once per model update
    for it in range(1, iters + 1):
        t0 = time.perf_counter()
        if recipe == "ppo_gan":
            disc = reweighted_discriminator_update(
                disc, p_data, model, steps=disc_steps, step_size=disc_step_size)
            model = SoftmaxModel(tilted_q(model, disc).logp.copy(), model.domain)
        elif recipe == "vanilla_gan":
            disc = discriminator_update(disc, p_data, p_theta, steps=disc_steps,
                                        step_size=disc_step_size,
                                        objective="classification")
            psi_hat = 0.5 * _log_sigmoid(-disc.phi)  # 0.5 log(1 - sigma)
            psi_hat = psi_hat - psi_hat.mean()
            model = model.with_theta(model.log_probs() - model_step_size * psi_hat)
        else:  # wgan
            disc = discriminator_update(disc, p_data, p_theta, steps=disc_steps,
                                        step_size=disc_step_size,
                                        objective="separation")
            phi = disc.phi - disc.phi.mean()
            # 1/sqrt(t) decay: the critic is a subgradient of W1, so the
            # mirror-descent step must shrink for the cycle to close
            model = model.with_theta(model.log_probs()
                                     + model_step_size / np.sqrt(it) * phi)
        p_theta = model.dist()
        gap = divergence(div, p_theta, p_data)
        tv = p_theta.tv(p_data)
        ms = (time.perf_counter() - t0) * 1000.0
        trace.add(iteration=it, neg_alpha_h=0.0, beta_d=gap, neg_e_q_f=0.0,
                  total=gap, tv_to_ref=tv, ms=ms)
        if tv <= tol:
            converged = True
            break
    if recipe == "vanilla_gan":
        # polish the classifier against the final model so sigma reflects the
        # optimum p_d / (p_d + q) at the returned pair
        disc = discriminator_update(disc, p_data, p_theta, steps=400,
                                    step_size=4.0, objective="classification")
    elif recipe == "wgan":
        # polish the critic against the final model so its objective reflects
        # the actual W1 gap of the returned pair
        disc = discriminator_update(disc, p_data, p_theta,
                                    objective="separation")
    trace.converged = converged
    return AdversarialResult(model, disc, trace, converged)
