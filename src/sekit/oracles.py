"""Independent reference implementations used for equivalence checking.

Everything here is written directly from the classical algorithm definitions
with plain numpy -- no imports from the solver -- so agreement with the
teacher-student loop is evidence, not tautology.
"""
from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np


def direct_mle(counts: np.ndarray) -> np.ndarray:
    """Maximum-likelihood categorical fit: normalized empirical counts."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty dataset")
    return counts / total


def weighted_mle(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Instance-weighted MLE: reweighted counts, normalized."""
    w = np.asarray(counts, dtype=float) * np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("all-zero weighted counts")
    return w / total


def raml_teacher(counts: np.ndarray, payoff: np.ndarray) -> np.ndarray:
    """The RAML teacher from a uniform model, by enumeration: q(t) proportional
    to sum_{t*} emp(t*) exp(R[t*, t]) / Z[t*], Z[t*] = sum_t exp(R[t*, t]).
    Observed rows t* are read about 1 MB at a time, so no N x N array is held.
    """
    counts = np.asarray(counts, dtype=float)
    payoff = np.asarray(payoff, dtype=float)
    observed = np.flatnonzero(counts > 0)
    emp = counts[observed] / counts.sum()
    height = max(1, (1 << 17) // payoff.shape[1])
    target = np.zeros(payoff.shape[1])
    for start in range(0, observed.size, height):
        block = payoff[observed[start:start + height]]
        block = np.exp(block - block.max(axis=1, keepdims=True))
        target += (emp[start:start + height] / block.sum(axis=1)) @ block
    return target / target.sum()


def hand_em(data_counts: np.ndarray, pi: np.ndarray, comp: np.ndarray,
            iters: int) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Textbook EM for a categorical mixture, in plain probability space.

    data_counts: (|X|,) observation counts; pi: (K,) mixture weights;
    comp: (K, |X|) component emission probabilities.
    Returns (pi, comp, log-likelihood per iteration) after `iters` rounds.
    """
    counts = np.asarray(data_counts, dtype=float)
    n = counts.sum()
    pi = np.asarray(pi, dtype=float).copy()
    comp = np.asarray(comp, dtype=float).copy()
    lls = []
    for _ in range(iters):
        # E-step: responsibilities r[x, k] = P(k | x) by Bayes rule
        joint = comp.T * pi[None, :]  # (|X|, K)
        marg = joint.sum(axis=1)
        lls.append(float(counts[counts > 0] @ np.log(marg[counts > 0])))
        r = np.zeros_like(joint)
        pos = marg > 0
        r[pos] = joint[pos] / marg[pos, None]
        # M-step
        weighted = counts[:, None] * r  # (|X|, K)
        nk = weighted.sum(axis=0)
        pi = nk / n
        comp = np.where(nk[None, :].T > 0, weighted.T / np.where(nk[:, None] > 0, nk[:, None], 1.0), comp)
    return pi, comp, lls


def hedge(initial: np.ndarray, reward_rows: np.ndarray, alpha: float
          ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The Hedge / exponential-weights forecaster.

    Multiplies weights by exp(reward / alpha) each round and renormalizes.
    Returns (final weights, per-round weight snapshots after each update).
    """
    p = np.asarray(initial, dtype=float).copy()
    history = []
    for rewards in np.asarray(reward_rows, dtype=float):
        p = p * np.exp(rewards / alpha)
        p = p / np.sum(p)
        history.append(p.copy())
    return p, history


def external_regret(initial: np.ndarray, reward_rows: np.ndarray,
                    history: List[np.ndarray]) -> float:
    """max_t sum_rounds f(t) - sum_rounds E_{p_round}[f], with p_round the
    weights *before* each update."""
    rows = np.asarray(reward_rows, dtype=float)
    plays = [np.asarray(initial, dtype=float)] + [h for h in history[:-1]]
    earned = sum(float(p @ r) for p, r in zip(plays, rows))
    best = float(rows.sum(axis=0).max())
    return best - earned


def reinforce_gradient(transitions: np.ndarray, rewards: np.ndarray,
                       gamma: float, p0: np.ndarray,
                       logits: np.ndarray) -> np.ndarray:
    """Exact expected REINFORCE gradient by dynamic programming.

    grad J = sum_h gamma^h sum_{s,a} Pr(s_h = s) pi(a|s) grad log pi(a|s) Q(s,a)
    computed with an independent finite-horizon rollout of the state
    occupancy and an iterative Q evaluation (no linear solves).
    """
    pi = np.exp(logits - logits.max(axis=1, keepdims=True))
    pi = pi / pi.sum(axis=1, keepdims=True)
    q = np.zeros(rewards.shape)
    for _ in range(200000):  # iterative policy evaluation
        q, old = rewards + gamma * transitions @ (pi * q).sum(axis=1), q
        if np.max(np.abs(q - old)) < 1e-14:
            break
    else:
        raise RuntimeError("policy evaluation did not converge")
    # grad log pi(a|s) wrt logits(s, b) = 1[a=b] - pi(b|s), so the sum over
    # a of pi(a|s) Q(s,a) grad log pi(a|s) is pi(b|s) (Q(s,b) - V(s))
    advantage = pi * (q - (pi * q).sum(axis=1, keepdims=True))
    T = np.einsum("ij,ijk->ik", pi, transitions)
    grad = np.zeros(rewards.shape)
    occ, discount = np.asarray(p0, dtype=float), 1.0
    horizon = int(np.ceil(np.log(1e-16) / np.log(gamma))) if gamma > 0 else 1
    for _ in range(horizon):
        grad += (discount * occ)[:, None] * advantage
        occ, discount = T.T @ occ, discount * gamma
    return grad


def gan_optimum(p_data: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The optimal binary classifier for real = p_data vs fake = q:
    sigma*(t) = p_data(t) / (p_data(t) + q(t))."""
    p_data = np.asarray(p_data, dtype=float)
    q = np.asarray(q, dtype=float)
    denom = p_data + q
    out = np.full_like(p_data, 0.5)
    pos = denom > 0
    out[pos] = p_data[pos] / denom[pos]
    return out


def finite_difference_gradient(fn: Callable[[np.ndarray], float],
                               x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        e = np.zeros_like(xf)
        e[i] = eps
        flat[i] = (fn((xf + e).reshape(x.shape)) - fn((xf - e).reshape(x.shape))) / (2 * eps)
    return grad


def brute_force_w1(q: np.ndarray, p: np.ndarray, coords: np.ndarray) -> float:
    """1-D optimal transport cost by linear programming over all couplings."""
    from scipy.optimize import linprog
    n = q.size
    cost = np.abs(coords[:, None] - coords[None, :]).ravel()
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros((n, n))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(q[i])
    for j in range(n):
        row = np.zeros((n, n))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(p[j])
    res = linprog(cost, A_eq=np.asarray(a_eq), b_eq=np.asarray(b_eq),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)

