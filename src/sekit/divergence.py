"""Divergence functions on the simplex (cross entropy, KL, JS, 1-D W1) with
exact values, gradients in q, and the influence-function machinery for
probability functional descent (PFD), whose step q exp(-eta psi) / Z is the
teacher at alpha = beta = 1 with f = -eta psi (`solver.teacher_closed_form`).

Support violations return a tagged +inf, never NaN.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BoundaryPoint, Dist, normalize_log

KINDS = ("ce", "kl", "js", "w1")


class SupportViolation(ValueError):
    pass


class NonConvergence(RuntimeError):
    def __init__(self, message, psi=None, iterations=None, residual=None):
        super().__init__(message)
        self.psi = psi
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class DivergenceFn:
    """kind in {ce, kl, js, w1}; w1 takes 1-D ground-metric coordinates."""

    kind: str = "ce"
    coords: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown divergence kind {self.kind!r}")
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float).copy()
            if np.any(np.diff(c) <= 0):
                raise ValueError("w1 coordinates must be strictly increasing")
            c.flags.writeable = False
            object.__setattr__(self, "coords", c)

    def coordinates(self, n: int) -> np.ndarray:
        if self.coords is None:
            return np.arange(n, dtype=float)
        if self.coords.shape != (n,):
            raise ValueError("coordinate vector does not match the domain")
        return self.coords


CE = DivergenceFn("ce")
KL = DivergenceFn("kl")
JS = DivergenceFn("js")


def cross_entropy(q: Dist, p: Dist) -> float:
    return -q.expect(p.logp)


def kl(q: Dist, p: Dist) -> float:
    mask = q.p > 0
    if np.any(np.isneginf(p.logp[mask])):
        return np.inf
    return float(q.p[mask] @ (q.logp[mask] - p.logp[mask]))


def js(q: Dist, p: Dist) -> float:
    h = Dist.from_probs(0.5 * (q.p + p.p))
    return 0.5 * kl(q, h) + 0.5 * kl(p, h)


def w1(q: Dist, p: Dist, coords: np.ndarray) -> float:
    gaps = coords[1:] - coords[:-1]
    cdf_diff = np.add.accumulate(q.p - p.p)[:-1]
    return float(np.abs(cdf_diff) @ gaps)


def divergence(div: DivergenceFn, q: Dist, p: Dist) -> float:
    if q.size != p.size:
        raise ValueError("distributions live on different domains")
    if div.kind == "ce":
        return cross_entropy(q, p)
    if div.kind == "kl":
        return kl(q, p)
    if div.kind == "js":
        return js(q, p)
    return w1(q, p, div.coordinates(q.size))


def divergence_grad_q(div: DivergenceFn, q: Dist, p: Dist) -> np.ndarray:
    """d D(q, p) / d q_i on the interior of the simplex."""
    if div.kind != "w1" and np.any(q.p == 0):
        raise BoundaryPoint("gradient in q needs an interior q")
    if div.kind == "ce":
        if np.any(np.isneginf(p.logp)):
            raise SupportViolation("cross entropy gradient undefined off support(p)")
        return -p.logp
    if div.kind == "kl":
        if np.any(np.isneginf(p.logp)):
            raise SupportViolation("KL gradient undefined off support(p)")
        return q.logp - p.logp + 1.0
    if div.kind == "js":
        # d/dq_i [ 0.5 KL(q||h) + 0.5 KL(p||h) ] with h = (q+p)/2
        return 0.5 * np.log(2.0 * q.p / (q.p + p.p))
    coords = div.coordinates(q.size)
    gaps = np.diff(coords)
    cdf_sign = np.sign(np.cumsum(q.p - p.p)[:-1])
    # dW1/dq_j = sum_{i >= j} sign(F_q - F_p)_i * gap_i, cumulated from the right
    grad = np.zeros(q.size)
    grad[:-1] = np.cumsum((cdf_sign * gaps)[::-1])[::-1]
    return grad


@dataclass(frozen=True)
class InfluenceFn:
    """Mean-centered influence function psi of a divergence-to-p_d functional."""

    psi: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float).copy()
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)


def _h_star_kl(phi: np.ndarray, p_d: Dist) -> np.ndarray:
    """argmax_h E_h[phi] - KL(h || p_d) = p_d e^phi / Z."""
    return normalize_log(p_d.logp + phi).p


def _h_star_js(phi: np.ndarray, p_d: Dist) -> np.ndarray:
    """argmax_h E_h[phi] - JS(h, p_d), solved by bisection on the multiplier.

    Stationarity: phi_i = 0.5 log(2 h_i / (h_i + p_i)) + c, giving
    h_i = p_i u_i / (2 - u_i) with u_i = exp(2 (phi_i - c)), u_i < 2.
    """
    p = p_d.p

    def mass(c):
        u = np.exp(2.0 * (phi - c))
        u = np.minimum(u, 2.0 - 1e-300)
        return float(np.sum(p * u / (2.0 - u)))

    lo = float(np.max(phi)) - 0.5 * np.log(2.0) + 1e-12
    # hi brackets the root: there every u_i <= exp(2 (-1 + 0.5 log 2)) = 2/e^2
    # ~ 0.27, and p sums to 1, so mass(hi) <= 0.27 / (2 - 0.27) ~ 0.16 < 1.
    hi = lo + 1.0
    # mass(lo+) -> inf, mass decreasing in c
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    u = np.exp(2.0 * (phi - c))
    h = p * u / (2.0 - u)
    return h / h.sum()


def influence_function(kind: str, p_d: Dist, q: Dist,
                       step_size: float = 0.1, max_iters: int = 2000,
                       tol: float = 1e-6) -> InfluenceFn:
    """Influence function of J(q) = D(q, p_d) at q via the conjugate-dual
    maximization max_phi E_q[phi] - J*(phi).

    The ascent direction is q - h*(phi), where h*(phi) attains J*(phi); the
    step adapts (grows on success, halves on overshoot of the residual).
    CE is linear in q, so its influence is the analytic kernel -log p_d.
    """
    if kind == "ce":
        if np.any(np.isneginf(p_d.logp)):
            raise SupportViolation("CE influence undefined off support(p_d)")
        psi = -p_d.logp
        return InfluenceFn(psi - psi.mean(), 0, 0.0)
    if kind not in ("kl", "js"):
        raise ValueError(f"no influence machinery for kind {kind!r}")
    if kind == "kl" and np.any((q.p > 0) & (p_d.p == 0)):
        raise SupportViolation("KL(q || p_d) infinite: support(q) not in support(p_d)")
    h_star = _h_star_kl if kind == "kl" else _h_star_js
    phi = np.zeros(q.size)
    eta = step_size
    grad = q.p - h_star(phi, p_d)
    res = float(np.max(np.abs(grad)))
    for it in range(1, max_iters + 1):
        if res <= tol:
            psi = phi - phi.mean()
            return InfluenceFn(psi, it - 1, res)
        new_phi = phi + eta * grad
        new_grad = q.p - h_star(new_phi, p_d)
        new_res = float(np.max(np.abs(new_grad)))
        if new_res <= res:
            phi, grad, res = new_phi, new_grad, new_res
            eta *= 1.2
        else:
            eta /= 2.0
    raise NonConvergence(
        f"influence ascent residual {res:.3e} > {tol:.1e} after {max_iters} iterations",
        psi=phi - phi.mean(), iterations=max_iters, residual=res)

