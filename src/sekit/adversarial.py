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
from .divergence import DivergenceFn, NonConvergence, divergence
from .models import SoftmaxModel
from .solver import ModeUnsupported, Trace, teacher_closed_form

MODES = ("classifier", "lipschitz_critic")
# the GAN loop stops, converged, once TV(p_theta, p_data) <= TV_TOL
TV_TOL = 1e-3
# the GAN loop's discriminator ascent and its vanilla-GAN model step
DISC_STEPS = 5
DISC_STEP_SIZE = 4.0
MODEL_STEP_SIZE = 0.5
# the vanilla-GAN classifier polish (_newton_classifier)
POLISH_MAX_ITERS = 60
POLISH_STEP_TOL = 1e-12
POLISH_STEP_CLIP = 4.0


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


def _log_sigmoid_pair(x: np.ndarray):
    """log sigmoid(x) and log sigmoid(-x), both from one log1p(exp(-|x|))."""
    t = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0, -t, x - t), np.where(x <= 0, -t, -x - t)


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
    log_real, log_fake = _log_sigmoid_pair(disc.phi)
    return p_data.expect(log_real) + q.expect(log_fake)


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
    f_cdf = np.add.accumulate(p_data.p - q.p)[:-1]
    bounds = disc.clip * disc._gaps
    delta = disc.phi[1:] - disc.phi[:-1]
    delta = np.where(f_cdf > 0, -bounds, np.where(f_cdf < 0, bounds, delta))
    phi = np.empty_like(disc.phi)
    phi[0] = disc.phi[0]
    phi[1:] = phi[0] + np.add.accumulate(delta)
    return disc.with_phi(phi)


def _newton_classifier(disc: Discriminator, p_data: Dist,
                       q: Dist) -> Discriminator:
    """Maximise the classification objective by per-coordinate Newton ascent.

    E_pd[log sigma(phi)] + E_q[log(1 - sigma(phi))] is separable in phi:
    coordinate t has gradient p_d(1 - sigma) - q sigma and curvature
    -(p_d + q) sigma (1 - sigma), so each coordinate takes its own Newton
    step, clipped to +-POLISH_STEP_CLIP.  Where the curvature underflows to
    zero the step is the clip in the gradient's sign; where p_d + q = 0 both
    vanish and phi stays.  Stops once the largest step is at most
    POLISH_STEP_TOL, and raises NonConvergence if that has not happened after
    POLISH_MAX_ITERS steps, as on a point where exactly one of p_d and q is
    zero: its optimal phi is infinite.
    """
    mass = p_data.p + q.p
    phi = disc.phi.copy()
    for _ in range(POLISH_MAX_ITERS):
        s, r = _sigmoid(phi), _sigmoid(-phi)  # r = 1 - sigma, without cancellation
        grad = p_data.p * r - q.p * s
        curv = mass * s * r
        step = np.divide(grad, curv, out=np.sign(grad) * POLISH_STEP_CLIP,
                         where=curv > 0)
        step = np.minimum(np.maximum(step, -POLISH_STEP_CLIP), POLISH_STEP_CLIP)
        phi += step
        residual = float(np.abs(step).max())
        if residual <= POLISH_STEP_TOL:
            return disc.with_phi(phi)
    raise NonConvergence(
        f"classifier polish step {residual:.3e} > {POLISH_STEP_TOL:.1e} "
        f"after {POLISH_MAX_ITERS} iterations", iterations=POLISH_MAX_ITERS,
        residual=residual)


def reweighted_discriminator_gradient(disc: Discriminator, p_data: Dist,
                                      p_theta: Dist) -> np.ndarray:
    """Gradient of -(1/Z) E_{p_theta}[e^{f_phi} f_phi] + E_pd[f_phi] in phi,
    with the importance weights e^{f_phi} / Z held fixed at the current phi.

    With the weights frozen this equals the plain separation gradient against
    the explicit tilt q = p_theta e^{f_phi} / Z, the teacher at
    alpha = beta = 1 with f = f_phi.
    """
    q = teacher_closed_form(p_theta, disc.f_values(), 1.0, 1.0)
    return discriminator_gradient(disc, p_data, q, "separation")


def reweighted_discriminator_update(disc: Discriminator, p_data: Dist,
                                    p_theta: Dist) -> Discriminator:
    """DISC_STEPS ascent steps of size DISC_STEP_SIZE where the fake side is
    the self-normalized reweighting of model samples by e^{f_phi}, refreshed
    each step."""
    phi = disc.phi.copy()
    for _ in range(DISC_STEPS):
        cur = disc.with_phi(phi)
        grad = reweighted_discriminator_gradient(cur, p_data, p_theta)
        cand = disc.with_phi(phi + DISC_STEP_SIZE * grad)
        phi = cand.phi.copy()
    return disc.with_phi(phi)


def tilted_q(model: SoftmaxModel, disc: Discriminator) -> Dist:
    """q = p_theta e^{f_phi} / Z, the teacher at alpha = beta = 1 with
    f = f_phi."""
    return teacher_closed_form(model.dist(), disc.f_values(), 1.0, 1.0)


def _critic_gap_and_variance(critic: Discriminator, p_data: Dist,
                             p_theta: Dist):
    """E_pd[phi] - E_p[phi] and Var_p(phi) of a fitted Lipschitz critic: the
    two terms of the W-GAN Polyak step.  For the exact critic the gap is
    clip * W1(p_theta, p_data), by 1-D LP duality."""
    mean_phi = p_theta.expect(critic.phi)
    var = p_theta.expect((critic.phi - mean_phi) ** 2)
    return p_data.expect(critic.phi) - mean_phi, var


@dataclass
class AdversarialResult:
    model: SoftmaxModel
    discriminator: Discriminator
    trace: Trace


def adversarial_run(recipe: str, p_data: Dist, model: SoftmaxModel,
                    iters: int = 5000,
                    coords: Optional[np.ndarray] = None) -> AdversarialResult:
    """Alternating discriminator / model updates for the zero-entropy recipes.

    Each iteration fits the discriminator to the current p_theta, then moves
    p_theta by one probability-functional-descent step (Chu, Blanchet & Glynn,
    ICML 2019), p_theta exp(-eta psi) / Z: the teacher at alpha = beta = 1 with
    f = -eta psi, along the recipe's estimate psi of the influence function:

      recipe          discriminator             psi                 eta
      "vanilla_gan"   classifier, DISC_STEPS    0.5 log(1 - sigma), MODEL_STEP_SIZE
                      ascent steps on the       centred
                      classification objective
      "wgan"          Lipschitz critic, fitted  mean(phi) - phi     W1 / Var_p(phi)
                      to the separation
      "ppo_gan"       classifier, DISC_STEPS    -f_phi              1
                      reweighted ascent steps

    The W-GAN step is Polyak's (Polyak 1987): the exact critic's gap
    E_pd[phi] - E_p[phi] is W1, and under the tilt p e^{eta phi} / Z it falls
    at rate Var_p(phi), so eta = W1 / Var_p(phi) closes the linearised gap; it
    does not depend on coords.  When the gap or the variance is not positive
    the critic sees no separation and the loop ends, converged if the TV is
    within TV_TOL.  The PPO-GAN step at eta = 1 is the exact student fit to the
    tilt q = p_theta e^f / Z.  The returned model is built once, from the
    final p_theta.

    After the loop the discriminator is fitted to the final model: the
    vanilla-GAN classifier by per-coordinate Newton ascent (`_newton_classifier`,
    which raises NonConvergence at its iteration cap), the W-GAN critic by its
    exact box ascent.  The trace records the divergence to p_data (JS, or W1
    for "wgan").
    """
    if recipe not in ("vanilla_gan", "wgan", "ppo_gan"):
        raise ValueError(f"unknown adversarial recipe {recipe!r}")
    n = p_data.size
    if recipe == "wgan":
        coords = np.arange(n, dtype=float) if coords is None else coords
        disc = Discriminator(np.zeros(n), "lipschitz_critic", coords=coords)
        div = DivergenceFn("w1", coords)
    else:
        disc = Discriminator(np.zeros(n), "classifier")
        div = DivergenceFn("js")
    trace = Trace()
    p_theta = model.dist()
    for it in range(1, iters + 1):
        if recipe == "ppo_gan":
            disc = reweighted_discriminator_update(disc, p_data, p_theta)
            psi, eta = -disc.f_values(), 1.0
        elif recipe == "vanilla_gan":
            disc = discriminator_update(disc, p_data, p_theta, steps=DISC_STEPS,
                                        step_size=DISC_STEP_SIZE,
                                        objective="classification")
            psi = 0.5 * _log_sigmoid(-disc.phi)  # 0.5 log(1 - sigma)
            psi, eta = psi - psi.mean(), MODEL_STEP_SIZE
        else:  # wgan: the box ascent is exact, so it takes no steps
            disc = discriminator_update(disc, p_data, p_theta,
                                        objective="separation")
            w1, var = _critic_gap_and_variance(disc, p_data, p_theta)
            if not (w1 > 0.0 and var > 0.0):  # the critic sees no separation
                trace.converged = p_theta.tv(p_data) <= TV_TOL
                break
            psi, eta = disc.phi.mean() - disc.phi, w1 / var
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
        # solve for the classifier against the final model, so that sigma is
        # the optimum p_d / (p_d + q) at the returned pair
        disc = _newton_classifier(disc, p_data, p_theta)
    elif recipe == "wgan":
        # polish the critic against the final model so its objective reflects
        # the actual W1 gap of the returned pair
        disc = discriminator_update(disc, p_data, p_theta,
                                    objective="separation")
    return AdversarialResult(model.with_theta(p_theta.logp), disc, trace)
