"""Exact tabular MDP machinery: Q-functions, discounted visitation measures,
the analytic policy gradient, and reward experience functions.

A policy is evaluated in state space at every size, with one LU
factorisation of I - gamma T_pi per evaluation (Puterman, Markov Decision
Processes, 1994, sec. 6.1).  Solving it as-is for r_pi gives V, and
Q = r + gamma P V follows; solving it transposed for p0 gives the visitation
mu.  Solves are exact, so oracle comparisons are too; a Q that misses its
Bellman equation by more than BELLMAN_TOL * max(1, max|Q|) raises
BellmanResidual.  The bound is relative because a solve's rounding error
grows with the scale of Q.

P enters both kernels only through its nonzeros: `TabularMDP` derives a
read-only sparse row view of P as an (S*A) x S matrix once, so the backup
P V and the assembly of T_pi cost O(nnz), not O(S^2 A).  Only the S x S
matrix I - gamma T_pi is dense.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import Domain, integers
from .experience import ExperienceFn
from .models import ConditionalSoftmaxModel

BELLMAN_TOL = 1e-8


class BellmanResidual(ValueError):
    """A solved Q misses Q = r + gamma P V by more than its bound,
    BELLMAN_TOL * max(1, max|Q|)."""

    def __init__(self, residual: float, bound: float):
        super().__init__(f"Bellman residual {residual:.3g} exceeds "
                         f"{BELLMAN_TOL:g} * max(1, max|Q|) = {bound:.3g}")
        self.residual = residual
        self.bound = bound


class NonPositiveQ(ValueError):
    pass


@dataclass(frozen=True)
class TabularMDP:
    """Finite MDP: transitions P[s, a, s'], rewards r[s, a], discount, p0.

    Construction also derives the read-only sparse row view of P as an
    (S*A) x S matrix that the kernels read: for each nonzero, in row-major
    order, its row t = s * A + a (`p_rows`), its column s' (`p_cols`) and
    P[s, a, s'] (`p_vals`); `p_starts[t]` is where row t begins.  Every row
    sums to 1, so none is empty.
    """

    transitions: np.ndarray
    rewards: np.ndarray
    gamma: float
    p0: np.ndarray
    p_rows: np.ndarray = field(init=False, repr=False, compare=False)
    p_cols: np.ndarray = field(init=False, repr=False, compare=False)
    p_vals: np.ndarray = field(init=False, repr=False, compare=False)
    p_starts: np.ndarray = field(init=False, repr=False, compare=False)
    _domain: Optional[Domain] = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        r = np.asarray(self.rewards, dtype=float)
        p0 = np.asarray(self.p0, dtype=float)
        S, A, S2 = P.shape
        if S2 != S or r.shape != (S, A) or p0.shape != (S,):
            raise ValueError("inconsistent MDP shapes")
        # written so that a NaN fails them
        if not (np.all(P >= 0) and np.all(np.abs(P.sum(axis=2) - 1.0) <= 1e-9)):
            raise ValueError("each P(.|s,a) must be a distribution")
        if not (np.all(p0 >= 0) and abs(p0.sum() - 1.0) <= 1e-9):
            raise ValueError("p0 must be a distribution")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must be in [0, 1)")
        # P >= 0 holds, so its nonzeros are P > 0, a scan 3x faster than nonzero(P)
        nonzero = np.flatnonzero(P > 0)
        rows, cols = np.divmod(nonzero, S)
        arrays = {"transitions": P.copy(), "rewards": r.copy(), "p0": p0.copy(),
                  "p_rows": rows, "p_cols": cols, "p_vals": P.ravel()[nonzero],
                  "p_starts": np.searchsorted(rows, np.arange(S * A))}
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]

    def domain(self) -> Domain:
        """Product domain over state-action pairs, t = s * A + a, built on
        the first call and shared by every later one."""
        if self._domain is None:
            S, A = self.n_states, self.n_actions
            object.__setattr__(self, "_domain", Domain(
                tuple(f"s{s}|a{a}" for s in range(S) for a in range(A)), (S, A)))
        return self._domain

    @classmethod
    def from_json(cls, payload: dict) -> "TabularMDP":
        """From a JSON object with P as [s, a, s', p] rows (repeats add, in
        order).  A non-integral count or index raises TypeError, and a state
        or action outside [0, S) or [0, A), negatives included, IndexError."""
        S, A = (operator.index(integers(payload[k])) for k in ("states", "actions"))
        rows = np.asarray(payload["transitions"], dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise TypeError("transitions must be a list of [s, a, s', p] rows")
        index = integers(rows[:, :3])
        outside = ~((index >= 0) & (index < (S, A, S))).all(axis=1)
        if outside.any():
            s, a, s2 = index[outside][0]
            raise IndexError(f"transition [{s}, {a}, {s2}] leaves "
                             f"{S} states x {A} actions")
        P = np.zeros((S, A, S))
        np.add.at(P, tuple(index.T), rows[:, 3])  # unbuffered: in order
        r = np.asarray(payload["rewards"], dtype=float).reshape(S, A)
        return cls(P, r, float(payload["gamma"]), np.asarray(payload["p0"], dtype=float))


def _backup(mdp: TabularMDP, rewards: np.ndarray, v: np.ndarray) -> np.ndarray:
    """r(s,a) + gamma sum_s' P(s'|s,a) v(s'), each row summed over its
    nonzeros in P's sparse view."""
    pv = np.add.reduceat(mdp.p_vals * v[mdp.p_cols], mdp.p_starts)
    return rewards + mdp.gamma * pv.reshape(rewards.shape)


def _residual(mdp: TabularMDP, pi: np.ndarray, q: np.ndarray,
              rewards: np.ndarray) -> float:
    return float(np.max(np.abs(q - _backup(mdp, rewards, (pi * q).sum(axis=1)))))


def _policy_transitions(mdp: TabularMDP, pi: np.ndarray) -> np.ndarray:
    """T_pi[s, s'] = sum_a pi(a|s) P(s'|s,a), accumulated from P's nonzeros."""
    S, A = mdp.n_states, mdp.n_actions
    weights = mdp.p_vals * pi.ravel()[mdp.p_rows]
    return np.bincount(mdp.p_rows // A * S + mdp.p_cols, weights=weights,
                       minlength=S * S).reshape(S, S)


class PolicyEvaluation(NamedTuple):
    """A policy's pi and the LU factors of I - gamma T_pi."""

    pi: np.ndarray
    lu: tuple


def _evaluate(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> PolicyEvaluation:
    """pi and the LU factors of I - gamma T_pi, with T_pi from P's sparse view.

    The one factorisation of a policy evaluation: V solves it as-is, the
    visitation mu transposed.
    """
    # imported here: at module top it raises every run's peak memory, MDP or not
    from scipy.linalg import lu_factor
    pi = policy.probs()
    if pi.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy shape does not match the MDP")
    T = _policy_transitions(mdp, pi)
    return PolicyEvaluation(pi, lu_factor(np.eye(mdp.n_states) - mdp.gamma * T))


def _solve(lu, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve (I - gamma T_pi) x = b, or its transpose with trans=1."""
    from scipy.linalg import lu_solve  # see _evaluate
    return lu_solve(lu, b, trans=trans)


def _q(mdp: TabularMDP, pi: np.ndarray, lu, rewards: np.ndarray) -> np.ndarray:
    """Q of the factored policy at `rewards`: V = (I - gamma T_pi)^-1 r_pi and
    Q = r + gamma P V.  Raises BellmanResidual if Q misses its Bellman
    equation by more than BELLMAN_TOL * max(1, max|Q|)."""
    q = _backup(mdp, rewards, _solve(lu, (pi * rewards).sum(axis=1)))
    residual = _residual(mdp, pi, q, rewards)
    bound = BELLMAN_TOL * max(1.0, float(np.max(np.abs(q))))
    if not residual <= bound:
        raise BellmanResidual(residual, bound)
    return q


def q_function(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> np.ndarray:
    """Exact (S, A) Q of the policy from the state-space Bellman system.

    Solves (I - gamma T_pi) V = sum_a pi r, then sets Q = r + gamma P V.
    Raises BellmanResidual if the result misses its Bellman equation by more
    than BELLMAN_TOL * max(1, max|Q|).
    """
    pi, lu = _evaluate(mdp, policy)
    return _q(mdp, pi, lu, mdp.rewards)


def visitation(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> np.ndarray:
    """Unnormalized discounted state visitation mu = p0 + gamma T^T mu."""
    _, lu = _evaluate(mdp, policy)
    return _solve(lu, mdp.p0, trans=1)


def exact_policy_gradient(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> np.ndarray:
    """Policy-gradient theorem: sum_s mu(s) sum_a Q(s,a) d pi(a|s) / d theta.

    Returns an (S, A) gradient over the policy logits.  Q and mu share one
    factorisation.
    """
    pi, lu = _evaluate(mdp, policy)
    q = _q(mdp, pi, lu, mdp.rewards)
    mu = _solve(lu, mdp.p0, trans=1)
    baseline = (pi * q).sum(axis=1, keepdims=True)
    return mu[:, None] * pi * (q - baseline)


def policy_value(mdp: TabularMDP, policy: ConditionalSoftmaxModel) -> float:
    """J(theta) = sum_s p0(s) sum_a pi(a|s) Q(s,a)."""
    pi, lu = _evaluate(mdp, policy)
    q = _q(mdp, pi, lu, mdp.rewards)
    return float(mdp.p0 @ (pi * q).sum(axis=1))


def f_reward(mdp: TabularMDP, mode: str = "log_q",
             intrinsic_rewards: Optional[np.ndarray] = None) -> ExperienceFn:
    """Theta-dependent reward experience over the state-action domain.

    Modes: "log_q" (log of the exact Q), "q" (raw Q, for RL-as-inference with
    alpha = beta = rho), "q_plus_intrinsic" (log of the Q of the summed
    rewards r + r_intrinsic, which is extrinsic plus intrinsic Q since Q is
    linear in r).  `values` takes the current policy, which it factors once,
    or a `PolicyEvaluation` of it, whose factorisation it solves on.

    In the log modes, if min Q <= 0 the reward offset
    c = (1e-6 - min Q)(1 - gamma) shifts r -> r + c, which lifts min Q to
    about 1e-6; the applied offset lands in `diagnostics`, and a Q that
    rounding leaves non-positive raises NonPositiveQ.
    """
    if mode not in ("log_q", "q", "q_plus_intrinsic"):
        raise ValueError(f"unknown reward mode {mode!r}")
    rewards = mdp.rewards
    if mode == "q_plus_intrinsic":
        if intrinsic_rewards is None:
            raise ValueError("q_plus_intrinsic mode requires intrinsic rewards")
        intrinsic = np.asarray(intrinsic_rewards, dtype=float)
        rewards = rewards + intrinsic.reshape(rewards.shape)

    def evaluate(model):
        if isinstance(model, ConditionalSoftmaxModel):
            model = _evaluate(mdp, model)
        elif not isinstance(model, PolicyEvaluation):
            raise TypeError("reward experience needs the current policy")
        total = _q(mdp, model.pi, model.lu, rewards)
        if mode == "q":
            return total.ravel()
        min_q = float(total.min())
        c = 0.0
        if min_q <= 0:
            c = (1e-6 - min_q) * (1.0 - mdp.gamma)
            total = total + c / (1.0 - mdp.gamma)
            if float(total.min()) <= 0:
                raise NonPositiveQ("offset did not make Q positive")
        fn.diagnostics["reward_offset"] = c
        return np.log(total.ravel())

    fn = ExperienceFn(mdp.domain(), evaluate)
    return fn


def reward_and_visitation(mdp: TabularMDP, policy: ConditionalSoftmaxModel,
                          reward: ExperienceFn):
    """The values of `reward`, an `f_reward` of `mdp`, at `policy` and the
    policy's unnormalized visitation mu, both from one factorisation."""
    evaluation = _evaluate(mdp, policy)
    return reward.values(evaluation), _solve(evaluation.lu, mdp.p0, trans=1)
