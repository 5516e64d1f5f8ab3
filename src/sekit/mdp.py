"""Exact tabular MDP machinery: Q-functions, discounted visitation measures,
the analytic policy gradient, and reward experience functions.

A policy is evaluated in state space at every size: one dense S x S solve
(I - gamma T_pi) V = r_pi gives V, and Q = r + gamma P V follows (Puterman,
Markov Decision Processes, 1994, sec. 6.1).  Solves are exact, so oracle
comparisons are too; a Q that misses its Bellman equation by more than
BELLMAN_TOL raises BellmanResidual.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Domain
from .experience import ExperienceFn
from .models import ConditionalSoftmaxModel

BELLMAN_TOL = 1e-8


class SingularSystem(ValueError):
    pass


class BellmanResidual(ValueError):
    """A solved Q misses Q = r + gamma P V by more than BELLMAN_TOL."""

    def __init__(self, residual: float):
        super().__init__(f"Bellman residual {residual:.3g} exceeds {BELLMAN_TOL:g}")
        self.residual = residual


class NonPositiveQ(ValueError):
    pass


@dataclass(frozen=True)
class TabularMDP:
    """Finite MDP: transitions P[s, a, s'], rewards r[s, a], discount, p0."""

    transitions: np.ndarray
    rewards: np.ndarray
    gamma: float
    p0: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        r = np.asarray(self.rewards, dtype=float)
        p0 = np.asarray(self.p0, dtype=float)
        S, A, S2 = P.shape
        if S2 != S or r.shape != (S, A) or p0.shape != (S,):
            raise ValueError("inconsistent MDP shapes")
        if np.any(P < 0) or np.any(np.abs(P.sum(axis=2) - 1.0) > 1e-9):
            raise ValueError("each P(.|s,a) must be a distribution")
        if np.any(p0 < 0) or abs(p0.sum() - 1.0) > 1e-9:
            raise ValueError("p0 must be a distribution")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must be in [0, 1)")
        for name, arr in (("transitions", P), ("rewards", r), ("p0", p0)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]

    def domain(self) -> Domain:
        """Product domain over state-action pairs, t = s * A + a."""
        S, A = self.n_states, self.n_actions
        return Domain(tuple(f"s{s}|a{a}" for s in range(S) for a in range(A)), (S, A))

    @classmethod
    def from_json(cls, payload) -> "TabularMDP":
        if isinstance(payload, str):
            payload = json.loads(payload)
        S = int(payload["states"])
        A = int(payload["actions"])
        P = np.zeros((S, A, S))
        for s, a, s2, prob in payload["transitions"]:
            P[int(s), int(a), int(s2)] += float(prob)
        r = np.asarray(payload["rewards"], dtype=float).reshape(S, A)
        return cls(P, r, float(payload["gamma"]), np.asarray(payload["p0"], dtype=float))

    def to_json(self) -> dict:
        triples = [
            [s, a, s2, float(self.transitions[s, a, s2])]
            for s in range(self.n_states)
            for a in range(self.n_actions)
            for s2 in range(self.n_states)
            if self.transitions[s, a, s2] > 0
        ]
        return {
            "states": self.n_states,
            "actions": self.n_actions,
            "transitions": triples,
            "rewards": self.rewards.tolist(),
            "gamma": self.gamma,
            "p0": self.p0.tolist(),
        }


@dataclass(frozen=True)
class QTable:
    q: np.ndarray  # (S, A)
    mdp: TabularMDP
    policy: ConditionalSoftmaxModel

    def bellman_residual(self) -> float:
        pi = self.policy.probs()
        v = (pi * self.q).sum(axis=1)  # (S,)
        backup = self.mdp.rewards + self.mdp.gamma * self.mdp.transitions @ v
        return float(np.max(np.abs(self.q - backup)))


def _pi_matrix(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> np.ndarray:
    pi = policy.probs()
    if pi.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy shape does not match the MDP")
    return pi


def _state_transitions(mdp: TabularMDP, pi: np.ndarray) -> np.ndarray:
    """S x S matrix T[s, s'] = sum_a pi(a|s) P(s'|s,a)."""
    return np.einsum("ij,ijk->ik", pi, mdp.transitions)


def _solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:  # cannot occur for gamma < 1
        raise SingularSystem(str(exc)) from exc


def q_function(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> QTable:
    """Exact Q of the policy from the state-space Bellman system.

    Solves (I - gamma T_pi) V = sum_a pi r, then sets Q = r + gamma P V.
    Raises BellmanResidual if the result misses its Bellman equation by more
    than BELLMAN_TOL.
    """
    pi = _pi_matrix(mdp, policy)
    M = np.eye(mdp.n_states) - mdp.gamma * _state_transitions(mdp, pi)
    v = _solve(M, (pi * mdp.rewards).sum(axis=1))
    table = QTable(mdp.rewards + mdp.gamma * mdp.transitions @ v, mdp, policy)
    residual = table.bellman_residual()
    if not residual <= BELLMAN_TOL:
        raise BellmanResidual(residual)
    return table


def visitation(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> np.ndarray:
    """Unnormalized discounted state visitation mu = p0 + gamma T^T mu."""
    T = _state_transitions(mdp, _pi_matrix(mdp, policy))
    return _solve(np.eye(mdp.n_states) - mdp.gamma * T.T, mdp.p0)


def exact_policy_gradient(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> np.ndarray:
    """Policy-gradient theorem: sum_s mu(s) sum_a Q(s,a) d pi(a|s) / d theta.

    Returns an (S, A) gradient over the policy logits.
    """
    pi = _pi_matrix(mdp, policy)
    q = q_function(mdp, policy).q
    mu = visitation(mdp, policy)
    baseline = (pi * q).sum(axis=1, keepdims=True)
    return mu[:, None] * pi * (q - baseline)


def policy_value(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> float:
    """J(theta) = sum_s p0(s) sum_a pi(a|s) Q(s,a)."""
    pi = _pi_matrix(mdp, policy)
    q = q_function(mdp, policy).q
    return float(mdp.p0 @ (pi * q).sum(axis=1))


def grad_q_logits(mdp: TabularMDP, policy: ConditionalSoftmaxModel,
                  q: Optional[np.ndarray] = None) -> np.ndarray:
    """dQ(s,a)/dtheta(s~,b): analytic derivative of the Bellman solution.

    Returns a (S, A, S, A) tensor.  With Q = r + gamma P V and
    V = (I - gamma T_pi)^-1 r_pi, theta(s~, b) moves only row s~ of pi, so
        dQ[:, :, s~, b] = gamma P (I - gamma T_pi)^-1[:, s~]
                          * pi(b|s~) (Q(s~,b) - V(s~)).
    """
    S = mdp.n_states
    pi = _pi_matrix(mdp, policy)
    if q is None:
        q = q_function(mdp, policy).q
    Minv = _solve(np.eye(S) - mdp.gamma * _state_transitions(mdp, pi), np.eye(S))
    # dpi(a'|s~)/dtheta(s~,b) = pi(a'|s~) (1[a'=b] - pi(b|s~)), so the
    # derivative of r_pi + gamma T_pi V at s~ is pi(b|s~) (Q(s~,b) - V(s~))
    advantage = pi * (q - (pi * q).sum(axis=1, keepdims=True))  # (S~, B)
    return (mdp.gamma * mdp.transitions @ Minv)[:, :, :, None] * advantage


def f_reward(mdp: TabularMDP, mode: str = "log_q",
             intrinsic_rewards: Optional[np.ndarray] = None,
             offset: Optional[float] = None) -> ExperienceFn:
    """Theta-dependent reward experience over the state-action domain.

    Modes: "log_q" (log of the exact Q), "q" (raw Q, for RL-as-inference with
    alpha = beta = rho), "q_plus_intrinsic" (log of extrinsic plus intrinsic
    Q).  Q is re-solved from the current policy on every evaluation.

    In the log modes, if min Q <= 0 a reward offset c (auto-chosen unless
    given) shifts r -> r + c; the applied offset lands in `diagnostics`.
    """
    if mode not in ("log_q", "q", "q_plus_intrinsic"):
        raise ValueError(f"unknown reward mode {mode!r}")
    if mode == "q_plus_intrinsic" and intrinsic_rewards is None:
        raise ValueError("q_plus_intrinsic mode requires intrinsic rewards")
    domain = mdp.domain()
    fn = ExperienceFn(domain, lambda model: None, theta_dependent=True,
                      name=f"reward-{mode}")

    def evaluate(policy):
        if not isinstance(policy, ConditionalSoftmaxModel):
            raise TypeError("reward experience needs the current policy")
        q = q_function(mdp, policy).q
        if mode == "q":
            return q.ravel()
        total = q
        if mode == "q_plus_intrinsic":
            in_mdp = TabularMDP(mdp.transitions, np.asarray(intrinsic_rewards, dtype=float),
                                mdp.gamma, mdp.p0)
            total = q + q_function(in_mdp, policy).q
        min_q = float(total.min())
        c = 0.0
        if min_q <= 0:
            if offset is not None:
                c = offset
            else:
                c = (1e-6 - min_q) * (1.0 - mdp.gamma)
            total = total + c / (1.0 - mdp.gamma)
            if float(total.min()) <= 0:
                raise NonPositiveQ("offset did not make Q positive")
        fn.diagnostics["reward_offset"] = c
        return np.log(total.ravel())

    fn._fn = evaluate
    return fn
