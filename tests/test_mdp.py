import dataclasses
from pathlib import Path

import numpy as np
import pytest

from sekit import mdp as mdp_module
from sekit.bundles import BundleError, ProblemBundle, load_bundle
from sekit.core import Domain
from sekit.mdp import (BELLMAN_TOL, BellmanResidual, NonPositiveQ, TabularMDP,
                       exact_policy_gradient, f_reward, policy_value,
                       q_function, reward_and_visitation, visitation)
from sekit.models import ConditionalSoftmaxModel
from sekit.oracles import finite_difference_gradient, reinforce_gradient
from sekit.recipes import run_recipe

GRIDWORLD = Path(__file__).resolve().parent.parent / "configs" / "gridworld.json"


def random_policy(mdp, rng, scale=0.3):
    return ConditionalSoftmaxModel(
        rng.normal(size=(mdp.n_states, mdp.n_actions)) * scale, mdp.domain())


def seeded_mdp(S, A, successors, seed, absorbing=False):
    # each (s, a) row moves to `successors` distinct states; state 0 can be
    # made absorbing
    g = np.random.default_rng(seed)
    P = np.zeros((S, A, S))
    for s in range(S):
        for a in range(A):
            succ = g.choice(S, size=successors, replace=False)
            P[s, a, succ] = g.dirichlet(np.ones(successors))
    if absorbing:
        P[0] = 0.0
        P[0, :, 0] = 1.0
    return TabularMDP(P, g.random((S, A)), 0.9, g.dirichlet(np.ones(S)))


SPARSE_CASES = {  # (S, A, successors per row, absorbing state)
    "one-successor": (7, 3, 1, False),
    "three-successors": (7, 3, 3, False),
    "all-successors": (7, 3, 7, False),
    "absorbing": (7, 3, 3, True),
    "one-state": (1, 3, 1, False),
    "one-action": (7, 1, 3, False),
}


def bellman_residual(mdp, policy, q):
    return mdp_module._residual(mdp, policy.probs(), q, mdp.rewards)


def within(got, want, rel):
    return np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


class TestTabularMDP:
    def test_validation(self, small_mdp):
        with pytest.raises(ValueError):
            TabularMDP(small_mdp.transitions, small_mdp.rewards, 1.0, small_mdp.p0)
        bad_p = small_mdp.transitions.copy()
        bad_p[0, 0, 0] += 0.5
        with pytest.raises(ValueError):
            TabularMDP(bad_p, small_mdp.rewards, 0.9, small_mdp.p0)

    def test_nan_is_not_a_distribution(self, small_mdp):
        nan_p = small_mdp.transitions.copy()
        nan_p[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="P"):
            TabularMDP(nan_p, small_mdp.rewards, 0.9, small_mdp.p0)
        nan_p0 = small_mdp.p0.copy()
        nan_p0[3] = np.nan
        with pytest.raises(ValueError, match="p0"):
            TabularMDP(small_mdp.transitions, small_mdp.rewards, 0.9, nan_p0)

    def test_from_json(self):
        # P as [s, a, s', p] triples; a repeated triple adds its mass
        payload = {"states": 2, "actions": 2, "gamma": 0.5, "p0": [1.0, 0.0],
                   "rewards": [[1.0, 0.0], [0.0, 2.0]],
                   "transitions": [[0, 0, 1, 1.0], [0, 1, 0, 0.25],
                                   [0, 1, 1, 0.75], [1, 0, 1, 0.5],
                                   [1, 0, 1, 0.5], [1, 1, 0, 1.0]]}
        mdp = TabularMDP.from_json(payload)
        assert mdp.transitions.tolist() == [[[0.0, 1.0], [0.25, 0.75]],
                                            [[0.0, 1.0], [1.0, 0.0]]]
        assert mdp.rewards.tolist() == [[1.0, 0.0], [0.0, 2.0]]
        assert mdp.gamma == 0.5
        assert mdp.p0.tolist() == [1.0, 0.0]

        # the sparse row view of P as a 4 x 2 matrix
        assert mdp.p_rows.tolist() == [0, 1, 1, 2, 3]
        assert mdp.p_cols.tolist() == [1, 0, 1, 1, 0]
        assert mdp.p_vals.tolist() == [1.0, 0.25, 0.75, 1.0, 1.0]
        assert mdp.p_starts.tolist() == [0, 1, 3, 4]

    @pytest.mark.parametrize("triple", [[0, 0, -1, 1.0], [0, -1, 0, 1.0],
                                        [-1, 0, 0, 1.0], [0, 0, 2, 1.0],
                                        [0, 1, 0, 1.0], [2, 0, 0, 1.0]])
    def test_from_json_rejects_indices_outside_the_mdp(self, triple):
        # a negative index would wrap around to the last state or action
        payload = {"states": 2, "actions": 1, "gamma": 0.5, "p0": [1.0, 0.0],
                   "rewards": [1.0, 1.0],
                   "transitions": [triple, [0, 0, 0, 1.0], [1, 0, 1, 1.0]]}
        with pytest.raises(IndexError, match="2 states x 1 actions"):
            TabularMDP.from_json(payload)
        with pytest.raises(BundleError, match="^bundle key 'mdp'"):
            load_bundle({"mdp": payload})

    @pytest.mark.parametrize("key, value", [
        ("states", 2.5), ("actions", 1.9), ("actions", float("nan")),
        ("transitions", [[0, 0, 0.5, 1.0], [0, 0, 0, 0.0], [1, 0, 1, 1.0]]),
        ("transitions", [[0, 0.5, 0, 1.0], [0, 0, 0, 1.0], [1, 0, 1, 1.0]]),
        ("transitions", [[0, 0, float("nan"), 1.0], [0, 0, 0, 1.0],
                         [1, 0, 1, 1.0]]),
    ])
    def test_from_json_rejects_a_non_integer_count_or_index(self, key, value):
        # truncation would put 0.5's mass on state 0
        payload = {"states": 2, "actions": 1, "gamma": 0.5, "p0": [1.0, 0.0],
                   "rewards": [1.0, 1.0],
                   "transitions": [[0, 0, 0, 1.0], [1, 0, 1, 1.0]], key: value}
        with pytest.raises(TypeError, match="is not an integer"):
            TabularMDP.from_json(payload)
        with pytest.raises(BundleError, match="^bundle key 'mdp'"):
            load_bundle({"mdp": payload})

    def test_domain(self, small_mdp):
        dom = small_mdp.domain()
        assert dom.size == 8
        assert dom.factor_sizes == (4, 2)

    def test_domain_is_built_once(self, small_mdp):
        assert small_mdp.domain() is small_mdp.domain()

    @pytest.mark.parametrize("name", ["transitions", "rewards", "p0", "p_rows",
                                      "p_cols", "p_vals", "p_starts"])
    def test_arrays_are_read_only(self, small_mdp, name):
        arr = getattr(small_mdp, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]

    @pytest.mark.parametrize("name", ["gamma", "p_vals", "_domain"])
    def test_attributes_cannot_be_set(self, small_mdp, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(small_mdp, name, None)


class TestSparseKernels:
    # the kernels read P's sparse view; dense formulas over P are the reference
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("case", SPARSE_CASES, ids=str)
    def test_backup_matches_dense(self, case, seed):
        S, A, k, absorbing = SPARSE_CASES[case]
        mdp = seeded_mdp(S, A, k, seed, absorbing)
        v = np.random.default_rng(seed).random(S) / (1 - mdp.gamma)
        dense = mdp.rewards + mdp.gamma * (
            mdp.transitions.reshape(S * A, S) @ v).reshape(S, A)
        assert within(mdp_module._backup(mdp, mdp.rewards, v), dense, 1e-15)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("case", SPARSE_CASES, ids=str)
    def test_policy_transitions_match_einsum(self, case, seed):
        S, A, k, absorbing = SPARSE_CASES[case]
        mdp = seeded_mdp(S, A, k, seed, absorbing)
        pi = random_policy(mdp, np.random.default_rng(seed)).probs()
        dense = np.einsum("ij,ijk->ik", pi, mdp.transitions)
        assert within(mdp_module._policy_transitions(mdp, pi), dense, 1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_gridworld_matches_dense_formulas(self, seed):
        mdp = load_bundle(str(GRIDWORLD)).mdp
        policy = random_policy(mdp, np.random.default_rng(seed), scale=1.0)
        P, r, gamma, pi = mdp.transitions, mdp.rewards, mdp.gamma, policy.probs()
        system = np.eye(mdp.n_states) - gamma * np.einsum("ij,ijk->ik", pi, P)
        q = r + gamma * P @ np.linalg.solve(system, (pi * r).sum(axis=1))
        mu = np.linalg.solve(system.T, mdp.p0)
        grad = mu[:, None] * pi * (q - (pi * q).sum(axis=1, keepdims=True))
        assert within(q_function(mdp, policy), q, 1e-12)
        assert within(visitation(mdp, policy), mu, 1e-12)
        assert within(exact_policy_gradient(mdp, policy), grad, 1e-12)


class TestQFunction:
    def test_bellman_residual(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        q = q_function(small_mdp, policy)
        assert q.shape == (4, 2)
        assert bellman_residual(small_mdp, policy, q) <= 1e-8

    def test_matches_value_iteration(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        table = q_function(small_mdp, policy)
        pi = policy.probs()
        q = np.zeros_like(table)
        for _ in range(5000):
            v = (pi * q).sum(axis=1)
            q = small_mdp.rewards + small_mdp.gamma * small_mdp.transitions @ v
        assert np.max(np.abs(q - table)) <= 1e-9

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
        assert bellman_residual(mdp, policy, table) <= 1e-10
        pi = policy.probs()
        P2 = mdp.transitions.reshape(S * A, S)
        q = np.zeros((S, A))
        for _ in range(300):  # 0.9**300 * max|Q| is far below 1e-9
            q = mdp.rewards + mdp.gamma * (P2 @ (pi * q).sum(axis=1)).reshape(S, A)
        assert np.max(np.abs(q - table)) <= 1e-9

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
        policy = random_policy(mdp, g)
        q = q_function(mdp, policy)
        scale = np.max(np.abs(q))
        assert bellman_residual(mdp, policy, q) <= BELLMAN_TOL * scale
        assert np.all(np.abs(q + 1e10) <= 10.0)  # -1e9 / (1 - 0.9)


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

    # one teacher step takes f and the visitation from one factorisation
    @pytest.mark.parametrize("recipe", ["policy-gradient", "intrinsic-reward"])
    def test_teacher_step_factorises_once(self, small_mdp, factorisations, recipe):
        run_recipe(recipe, ProblemBundle(mdp=small_mdp), seed=5)
        assert factorisations == [(4, 4)]

    def test_rl_as_inference_factorises_once_per_rho(self, small_mdp,
                                                     factorisations):
        rhos = (0.5, 1.0, 2.0)
        for rho in rhos:
            run_recipe("rl-as-inference", ProblemBundle(mdp=small_mdp), seed=5,
                       rho=rho)
        assert factorisations == [(4, 4)] * len(rhos)


class TestFReward:
    def test_q_mode_values(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        f = f_reward(small_mdp, "q")
        assert np.max(np.abs(f.values(policy) -
                             q_function(small_mdp, policy).ravel())) <= 1e-12

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
        shifted = q_function(mdp, policy) + c / (1.0 - mdp.gamma)
        assert np.max(np.abs(np.exp(v) - shifted.ravel())) <= 1e-8

    def test_offset_lost_to_rounding_raises(self):
        # at |Q| = 1e17 the offset's 1e-6 margin rounds away, so the shifted
        # Q is exactly 0 and the check raises before log(0) is taken
        P = np.random.default_rng(1).dirichlet(np.ones(3), size=(3, 2))
        mdp = TabularMDP(P, np.full((3, 2), -1e17), 0.0, np.ones(3) / 3)
        policy = ConditionalSoftmaxModel(np.zeros((3, 2)), mdp.domain())
        with pytest.raises(NonPositiveQ):
            f_reward(mdp, "log_q").values(policy)

    def test_intrinsic_mode(self, small_mdp, rng):
        policy = random_policy(small_mdp, rng)
        intrinsic = np.full((4, 2), 0.2)
        f = f_reward(small_mdp, "q_plus_intrinsic", intrinsic_rewards=intrinsic)
        v = f.values(policy)
        q_ex = q_function(small_mdp, policy)
        in_mdp = TabularMDP(small_mdp.transitions, intrinsic, small_mdp.gamma,
                            small_mdp.p0)
        q_in = q_function(in_mdp, policy)
        total = q_ex + q_in + f.diagnostics["reward_offset"] / (1 - small_mdp.gamma)
        assert np.max(np.abs(np.exp(v) - total.ravel())) <= 1e-8

    @pytest.mark.parametrize("mode", ["log_q", "q"])
    def test_reward_and_visitation_share_one_evaluation(self, small_mdp, rng, mode):
        policy = random_policy(small_mdp, rng)
        f = f_reward(small_mdp, mode)
        f_vals, mu = reward_and_visitation(small_mdp, policy, f)
        assert np.array_equal(f_vals, f.values(policy))
        assert np.array_equal(mu, visitation(small_mdp, policy))

    def test_values_need_a_policy(self, small_mdp, rng):
        f = f_reward(small_mdp, "log_q")
        with pytest.raises(TypeError):
            f.values(random_policy(small_mdp, rng).probs())

    def test_intrinsic_size_mismatch_raises(self, small_mdp):
        with pytest.raises(ValueError):
            f_reward(small_mdp, "q_plus_intrinsic", intrinsic_rewards=np.full(2, 0.2))

    def test_unknown_mode(self, small_mdp):
        with pytest.raises(ValueError):
            f_reward(small_mdp, "nonsense")
