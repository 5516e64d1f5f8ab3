"""Discriminator-in-the-loop training: classifier and Lipschitz-critic
experience functions, the importance-reweighted discriminator update, and the
adversarial alternating loop for the implicit-generation recipes (entropy
weight zero).

Discriminators are tabular: one scalar parameter per domain element.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Dist
from .divergence import DivergenceFn, NonConvergence, divergence, divergence_grad_q
from .models import SoftmaxModel
from .solver import ModeUnsupported, Trace, teacher_closed_form

MODES = ("classifier", "lipschitz_critic")
# the GAN loop stops, converged, once TV(p_theta, p_data) <= TV_TOL
TV_TOL = 1e-3
# the PPO-GAN discriminator ascent and the vanilla-GAN model step
DISC_STEPS = 5
DISC_STEP_SIZE = 4.0
MODEL_STEP_SIZE = 0.5


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    t = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0, -t, x - t)


@dataclass(frozen=True)
class Discriminator:
    """Tabular discriminator phi over the domain.

    classifier: f(t) = log sigmoid(phi_t), the log-probability of "real".
    lipschitz_critic: f(t) = phi_t, with consecutive differences kept within
    clip * (coordinate gap).

    The coordinate gaps are built once, when a discriminator is first made;
    `with_phi` hands them on to a phi of the same size.
    """

    phi: np.ndarray
    mode: str = "classifier"
    clip: float = 1.0
    coords: Optional[np.ndarray] = None
    _gaps: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float).copy()
        if phi.ndim != 1:
            raise ValueError("phi must be a vector")
        if not np.isfinite(phi).all():
            raise ValueError("phi must be finite")
        if self.mode not in MODES:
            raise ValueError(f"unknown discriminator mode {self.mode!r}")
        if self.clip <= 0:
            raise ValueError("clip must be positive")
        gaps = self._gaps
        if gaps is None or gaps.shape[0] != phi.size - 1:
            gaps = self._build_gaps(phi.size)
        if self.mode == "lipschitz_critic":
            phi = _project_lipschitz(phi, self.clip, gaps)
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    def _build_gaps(self, n: int) -> np.ndarray:
        """Validate and freeze coords; return the frozen gap vector."""
        if self.coords is None:
            gaps = np.ones(n - 1)
        else:
            c = np.asarray(self.coords, dtype=float).copy()
            if c.shape != (n,):
                raise ValueError("coords must match phi")
            gaps = c[1:] - c[:-1]
            if (gaps <= 0).any():
                raise ValueError("coords must be strictly increasing")
            c.flags.writeable = False
            object.__setattr__(self, "coords", c)
        gaps.flags.writeable = False
        object.__setattr__(self, "_gaps", gaps)
        return gaps

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
        return Discriminator(phi, self.mode, self.clip, self.coords, self._gaps)


def _project_lipschitz(phi: np.ndarray, clip: float, gaps: np.ndarray) -> np.ndarray:
    """Clamp consecutive differences to [-clip * gap, clip * gap]; idempotent."""
    bound = clip * gaps
    diffs = np.minimum(np.maximum(phi[1:] - phi[:-1], -bound), bound)
    out = np.empty_like(phi)
    out[0] = phi[0]
    out[1:] = phi[0] + np.add.accumulate(diffs)
    return out


def discriminator_gradient(disc: Discriminator, p_data: Dist,
                           q: Dist) -> np.ndarray:
    """Gradient in phi of the separation E_pd[f_phi] - E_q[f_phi]."""
    f_grad = (_sigmoid(-disc.phi) if disc.mode == "classifier"
              else np.ones_like(disc.phi))
    return (p_data.p - q.p) * f_grad


def discriminator_update(disc: Discriminator, p_data: Dist, q: Dist,
                         steps: int = 1, step_size: float = 1.0,
                         objective: str = "separation") -> Discriminator:
    """The exact maximiser of the objective: a classifier on "classification"
    (E_pd[log sigma] + E_q[log(1 - sigma)]) gets phi = log p_d - log q, so
    sigma = p_d / (p_d + q) (Goodfellow et al. 2014, Prop. 1); a Lipschitz
    critic on "separation" gets phi_0 + clip (g_0 - g), with g the W1
    gradient `divergence_grad_q` in q; any other pair raises ModeUnsupported.
    Where exactly one of p_d and q is zero phi* is infinite, and
    NonConvergence names the first such t; where both are zero phi stays.
    steps and step_size are read by nothing: they stay only because the
    benchmark's discriminator_update kernels pass them."""
    if q.size != disc.phi.size or p_data.size != disc.phi.size:
        raise ValueError("distribution sizes do not match the discriminator")
    if disc.mode == "lipschitz_critic" and objective == "separation":
        # 1-D LP duality: the critic's slope is clip * sign(F_q - F_pd) on
        # each gap (0 where the CDFs meet), so the separation is clip * W1
        g = divergence_grad_q(DivergenceFn("w1", disc.coords), q, p_data)
        return disc.with_phi(disc.phi[0] + disc.clip * (g[0] - g))
    if disc.mode != "classifier" or objective != "classification":
        raise ModeUnsupported(
            f"no exact {objective!r} fit for a {disc.mode} discriminator")
    real, fake = p_data.p > 0, q.p > 0
    one_sided = np.flatnonzero(real != fake)
    if one_sided.size:
        raise NonConvergence(
            f"the optimal classifier is infinite at t = {one_sided[0]}, where "
            "exactly one of p_data and q is zero")
    phi = disc.phi.copy()
    phi[real] = p_data.logp[real] - q.logp[real]
    return disc.with_phi(phi)


def reweighted_discriminator_gradient(disc: Discriminator, p_data: Dist,
                                      p_theta: Dist) -> np.ndarray:
    """Gradient of -(1/Z) E_{p_theta}[e^{f_phi} f_phi] + E_pd[f_phi] in phi,
    with the importance weights e^{f_phi} / Z held fixed at the current phi.

    With the weights frozen this equals the plain separation gradient against
    the explicit tilt q = p_theta e^{f_phi} / Z, the teacher at
    alpha = beta = 1 with f = f_phi.
    """
    q = teacher_closed_form(p_theta, disc.f_values(), 1.0, 1.0)
    return discriminator_gradient(disc, p_data, q)


def reweighted_discriminator_update(disc: Discriminator, p_data: Dist,
                                    p_theta: Dist) -> Discriminator:
    """DISC_STEPS ascent steps of size DISC_STEP_SIZE where the fake side is
    the self-normalized reweighting of model samples by e^{f_phi}, refreshed
    each step."""
    for _ in range(DISC_STEPS):
        grad = reweighted_discriminator_gradient(disc, p_data, p_theta)
        disc = disc.with_phi(disc.phi + DISC_STEP_SIZE * grad)
    return disc


def tilted_q(model: SoftmaxModel, disc: Discriminator) -> Dist:
    """q = p_theta e^{f_phi} / Z, the teacher at alpha = beta = 1 with
    f = f_phi."""
    return teacher_closed_form(model.dist(), disc.f_values(), 1.0, 1.0)


@dataclass
class AdversarialResult:
    model: SoftmaxModel
    discriminator: Discriminator
    trace: Trace


def adversarial_run(recipe: str, p_data: Dist, model: SoftmaxModel,
                    iters: int = 5000,
                    coords: Optional[np.ndarray] = None) -> AdversarialResult:
    """Alternating discriminator / model updates for the zero-entropy recipes.

    Each iteration moves p_theta by one probability-functional-descent step
    (Chu, Blanchet & Glynn, ICML 2019), p_theta exp(-eta psi) / Z: the teacher
    at alpha = beta = 1 with f = -eta psi, along the recipe's influence
    function psi at the current p_theta.  The vanilla GAN and the W-GAN take
    it in closed form, psi = g - mean(g) with g = divergence_grad_q(D,
    p_theta, p_data), and keep no discriminator in the loop:

      recipe          D     discriminator in the loop   psi            eta
      "vanilla_gan"   JS    none                        g - mean(g)    MODEL_STEP_SIZE
      "wgan"          W1    none                        g - mean(g)    W1 / Var_p(g)
      "ppo_gan"       -     classifier, DISC_STEPS      -f_phi         1
                            reweighted ascent steps

    The JS gradient g is 0.5 log(1 - sigma*) with the exact classifier
    sigma* = p_d / (p_d + p).  The W1 gradient g is, up to a constant, minus
    the exact critic at clip 1 (`discriminator_update`), so
    W1 = E_p[g] - E_pd[g] by 1-D LP duality, and under the tilt
    p e^{-eta g} / Z that gap falls at rate Var_p(g); the
    W-GAN step is Polyak's (Polyak 1987), eta = W1 / Var_p(g), which closes
    the linearised gap and does not depend on coords.  When the gap or the
    variance is not positive there is no separation and the loop ends,
    converged if the TV is within TV_TOL.  The PPO-GAN step at eta = 1 is the
    exact student fit to the tilt q = p_theta e^f / Z.  The returned model is
    built once, from the final p_theta.

    After the loop the discriminator is fitted exactly to the final model:
    the vanilla-GAN classifier (which raises NonConvergence where exactly one
    of p_data and p_theta is zero), the W-GAN critic from zeros.  The trace
    records the divergence to p_data (JS, or W1 for "wgan").
    """
    if recipe not in ("vanilla_gan", "wgan", "ppo_gan"):
        raise ValueError(f"unknown adversarial recipe {recipe!r}")
    n = p_data.size
    div = DivergenceFn("w1", coords) if recipe == "wgan" else DivergenceFn("js")
    disc = Discriminator(np.zeros(n), "classifier")
    trace = Trace()
    p_theta = model.dist()
    for it in range(1, iters + 1):
        if recipe == "ppo_gan":
            disc = reweighted_discriminator_update(disc, p_data, p_theta)
            psi, eta = -disc.f_values(), 1.0
        else:
            g = divergence_grad_q(div, p_theta, p_data)
            psi, eta = g - g.mean(), MODEL_STEP_SIZE
        if recipe == "wgan":
            mean_g = p_theta.expect(g)
            w1, var = mean_g - p_data.expect(g), p_theta.expect((g - mean_g) ** 2)
            if not (w1 > 0.0 and var > 0.0):  # no separation
                trace.converged = p_theta.tv(p_data) <= TV_TOL
                break
            eta = w1 / var
        p_theta = teacher_closed_form(p_theta, -eta * psi, 1.0, 1.0)
        gap = divergence(div, p_theta, p_data)
        tv = p_theta.tv(p_data)
        trace.add(iteration=it, neg_alpha_h=0.0, beta_d=gap, neg_e_q_f=0.0,
                  total=gap, tv_to_ref=tv)
        if tv <= TV_TOL:
            break
    else:
        trace.converged = False
    if recipe == "vanilla_gan":
        disc = discriminator_update(disc, p_data, p_theta,
                                    objective="classification")
    elif recipe == "wgan":
        disc = discriminator_update(
            Discriminator(np.zeros(n), "lipschitz_critic", coords=coords),
            p_data, p_theta)
    return AdversarialResult(model.with_theta(p_theta.logp), disc, trace)
