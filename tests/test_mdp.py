import json

import numpy as np
import pytest

from sekit import mdp as mdp_module
from sekit.core import Domain
from sekit.mdp import (BELLMAN_TOL, BellmanResidual, NonPositiveQ, TabularMDP,
                       exact_policy_gradient, f_reward,
                       policy_value, q_function, visitation)
from sekit.models import ConditionalSoftmaxModel
from sekit.oracles import finite_difference_gradient, reinforce_gradient


def random_policy(mdp, rng, scale=0.3):
    return ConditionalSoftmaxModel(
        rng.normal(size=(mdp.n_states, mdp.n_actions)) * scale, mdp.domain())


class TestTabularMDP:
    def test_validation(self, small_mdp):
        with pytest.raises(ValueError):
            TabularMDP(small_mdp.transitions, small_mdp.rewards, 1.0, small_mdp.p0)
        bad_p = small_mdp.transitions.copy()
        bad_p[0, 0, 0] += 0.5
        with pytest.raises(ValueError):
            TabularMDP(bad_p, small_mdp.rewards, 0.9, small_mdp.p0)

    def test_from_json(self):
        # P as [s, a, s', p] triples; a repeated triple adds its mass
        payload = {"states": 2, "actions": 2, "gamma": 0.5, "p0": [1.0, 0.0],
                   "rewards": [[1.0, 0.0], [0.0, 2.0]],
                   "transitions": [[0, 0, 1, 1.0], [0, 1, 0, 0.25],
                                   [0, 1, 1, 0.75], [1, 0, 1, 0.5],
                                   [1, 0, 1, 0.5], [1, 1, 0, 1.0]]}
        for given in (payload, json.dumps(payload)):
            mdp = TabularMDP.from_json(given)
            assert mdp.transitions.tolist() == [[[0.0, 1.0], [0.25, 0.75]],
                                                [[0.0, 1.0], [1.0, 0.0]]]
            assert mdp.rewards.tolist() == [[1.0, 0.0], [0.0, 2.0]]
            assert mdp.gamma == 0.5
            assert mdp.p0.tolist() == [1.0, 0.0]

    def test_domain(self, small_mdp):
        dom = small_mdp.domain()
        assert dom.size == 8
        assert dom.factor_sizes == (4, 2)


class TestQFunction:
    def test_bellman_residual(self, small_mdp, rng):
        table = q_function(small_mdp, random_policy(small_mdp, rng))
        assert table.bellman_residual() <= 1e-8

    def test_matches_value_iteration(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        table = q_function(small_mdp, policy)
        pi = policy.probs()
        q = np.zeros_like(table.q)
        for _ in range(5000):
            v = (pi * q).sum(axis=1)
            q = small_mdp.rewards + small_mdp.gamma * small_mdp.transitions @ v
        assert np.max(np.abs(q - table.q)) <= 1e-9

    def test_large_mdp_matches_value_iteration(self):
        # S*A = 4800, where an (S*A) x (S*A) operator would take 184 MB
        g = np.random.default_rng(7)
        S, A = 600, 8
        P = np.zeros((S, A, S))
        for s in range(S):
            for a in range(A):
                succ = g.choice(S, size=5, replace=False)
                P[s, a, succ] = g.dirichlet(np.ones(5))
        mdp = TabularMDP(P, g.random((S, A)), 0.9, np.ones(S) / S)
        policy = random_policy(mdp, g)
        table = q_function(mdp, policy)
        assert table.bellman_residual() <= 1e-10
        pi = policy.probs()
        P2 = mdp.transitions.reshape(S * A, S)
        q = np.zeros((S, A))
        for _ in range(300):  # 0.9**300 * max|Q| is far below 1e-9
            q = mdp.rewards + mdp.gamma * (P2 @ (pi * q).sum(axis=1)).reshape(S, A)
        assert np.max(np.abs(q - table.q)) <= 1e-9

    @pytest.mark.parametrize("broken", [lambda x: x + 1e-3,
                                        lambda x: np.full_like(x, np.nan)],
                             ids=["offset", "nan"])
    def test_bad_solve_raises_bellman_residual(self, small_mdp, rng, monkeypatch,
                                               broken):
        solve = mdp_module._solve
        monkeypatch.setattr(mdp_module, "_solve",
                            lambda lu, b, trans=0: broken(solve(lu, b, trans)))
        with pytest.raises(BellmanResidual) as info:
            q_function(small_mdp, random_policy(small_mdp, rng))
        assert not info.value.residual <= BELLMAN_TOL
        assert not info.value.residual <= info.value.bound
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_solve_passes_at_large_reward_scale(self, seed):
        # |Q| ~ 1e10, so rounding alone leaves residuals far above an
        # absolute 1e-8; the bound is relative to max|Q|
        g = np.random.default_rng(seed)
        P = g.dirichlet(np.ones(3), size=(3, 2))
        mdp = TabularMDP(P, -1e9 + g.random((3, 2)), 0.9, np.ones(3) / 3)
        table = q_function(mdp, random_policy(mdp, g))
        scale = np.max(np.abs(table.q))
        assert table.bellman_residual() <= BELLMAN_TOL * scale
        assert np.all(np.abs(table.q + 1e10) <= 10.0)  # -1e9 / (1 - 0.9)


class TestVisitation:
    def test_mass_is_geometric_series(self, small_mdp, rng):
        mu = visitation(small_mdp, random_policy(small_mdp, rng))
        assert mu.sum() == pytest.approx(1.0 / (1.0 - small_mdp.gamma), rel=1e-10)

    def test_fixed_point(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        mu = visitation(small_mdp, policy)
        pi = policy.probs()
        T = np.einsum("ij,ijk->ik", pi, small_mdp.transitions)
        assert np.max(np.abs(mu - (small_mdp.p0 + small_mdp.gamma * T.T @ mu))) <= 1e-10


class TestPolicyGradient:
    def test_matches_finite_difference(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        g = exact_policy_gradient(small_mdp, policy)
        fd = finite_difference_gradient(
            lambda t: policy_value(small_mdp,
                                   ConditionalSoftmaxModel(t, small_mdp.domain())),
            policy.theta)
        assert np.max(np.abs(g - fd)) <= 1e-6

    def test_matches_reinforce_oracle(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        g = exact_policy_gradient(small_mdp, policy)
        g_oracle = reinforce_gradient(small_mdp.transitions, small_mdp.rewards,
                                      small_mdp.gamma, small_mdp.p0, policy.theta)
        assert np.max(np.abs(g - g_oracle)) <= 1e-8


class TestOneFactorisation:
    @pytest.fixture
    def factorisations(self, monkeypatch):
        import scipy.linalg
        calls = []
        lu_factor = scipy.linalg.lu_factor
        monkeypatch.setattr(scipy.linalg, "lu_factor",
                            lambda M: calls.append(M.shape) or lu_factor(M))
        return calls

    def test_policy_gradient_factorises_once(self, small_mdp, rng, factorisations):
        exact_policy_gradient(small_mdp, random_policy(small_mdp, rng))
        assert factorisations == [(4, 4)]

    def test_intrinsic_reward_factorises_once(self, small_mdp, rng, factorisations):
        f = f_reward(small_mdp, "q_plus_intrinsic",
                     intrinsic_rewards=np.full((4, 2), 0.2))
        f.values(random_policy(small_mdp, rng))
        assert factorisations == [(4, 4)]


class TestFReward:
    def test_q_mode_values(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        f = f_reward(small_mdp, "q")
        assert np.max(np.abs(f.values(policy) -
                             q_function(small_mdp, policy).q.ravel())) <= 1e-12

    def test_log_mode_offset(self, rng):
        g = np.random.default_rng(1)
        P = g.dirichlet(np.ones(3), size=(3, 2))
        rewards = g.random((3, 2)) - 2.0  # strictly negative Q territory
        mdp = TabularMDP(P, rewards, 0.9, np.ones(3) / 3)
        policy = ConditionalSoftmaxModel(np.zeros((3, 2)), mdp.domain())
        f = f_reward(mdp, "log_q")
        v = f.values(policy)
        assert np.all(np.isfinite(v))
        c = f.diagnostics["reward_offset"]
        assert c > 0
        shifted = q_function(mdp, policy).q + c / (1.0 - mdp.gamma)
        assert np.max(np.abs(np.exp(v) - shifted.ravel())) <= 1e-8

    def test_bad_offset_raises(self, small_mdp, rng):
        g = np.random.default_rng(1)
        P = g.dirichlet(np.ones(3), size=(3, 2))
        mdp = TabularMDP(P, g.random((3, 2)) - 5.0, 0.9, np.ones(3) / 3)
        policy = ConditionalSoftmaxModel(np.zeros((3, 2)), mdp.domain())
        f = f_reward(mdp, "log_q", offset=1e-9)
        with pytest.raises(NonPositiveQ):
            f.values(policy)

    def test_intrinsic_mode(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        intrinsic = np.full((4, 2), 0.2)
        f = f_reward(small_mdp, "q_plus_intrinsic", intrinsic_rewards=intrinsic)
        v = f.values(policy)
        q_ex = q_function(small_mdp, policy).q
        in_mdp = TabularMDP(small_mdp.transitions, intrinsic, small_mdp.gamma,
                            small_mdp.p0)
        q_in = q_function(in_mdp, policy).q
        total = q_ex + q_in + f.diagnostics["reward_offset"] / (1 - small_mdp.gamma)
        assert np.max(np.abs(np.exp(v) - total.ravel())) <= 1e-8

    def test_intrinsic_size_mismatch_raises(self, small_mdp):
        with pytest.raises(ValueError):
            f_reward(small_mdp, "q_plus_intrinsic", intrinsic_rewards=np.full(2, 0.2))

    def test_unknown_mode(self, small_mdp):
        with pytest.raises(ValueError):
            f_reward(small_mdp, "nonsense")
