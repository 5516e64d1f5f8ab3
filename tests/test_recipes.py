import json
import os
import warnings

import numpy as np
import pytest

from sekit.bundles import BundleError, ProblemBundle, load_bundle
from sekit.core import Dist, Domain
from sekit.experience import Dataset, parse_rule
from sekit.models import ConditionalSoftmaxModel
from sekit.recipes import (IncompatiblePair, NotFound, Recipe, _em_deviation,
                           check_equivalence, get_recipe, registry, run_recipe)
from sekit.solver import mw_trajectory

EXPECTED_NAMES = {
    "supervised-mle", "self-supervised-mle", "unsupervised-mle",
    "data-reweighting", "data-augmentation", "active-learning",
    "posterior-regularization", "unified-em", "policy-gradient",
    "intrinsic-reward", "rl-as-inference", "knowledge-distillation",
    "vanilla-gan", "wgan", "ppo-gan", "multiplicative-weights",
    "interpolation-schedule",
}

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


class TestRegistry:
    def test_all_rows_present(self):
        names = {r.name for r in registry()}
        missing = EXPECTED_NAMES - names
        assert not missing, f"missing recipes: {missing}"

    def test_names_unique(self):
        names = [r.name for r in registry()]
        assert len(names) == len(set(names))

    def test_configs_frozen(self):
        rec = get_recipe("supervised-mle")
        with pytest.raises((AttributeError, TypeError)):
            rec.config.alpha = 2.0
        with pytest.raises((AttributeError, TypeError)):
            rec.name = "other"
        assert {rec, get_recipe("supervised-mle")} == {rec}

    def test_supervised_beta_is_epsilon(self):
        assert get_recipe("supervised-mle").config.beta == 1e-8

    def test_policy_gradient_weights(self):
        cfg = get_recipe("policy-gradient").config
        assert cfg.alpha == 1.0 and cfg.beta == 1.0

    def test_unknown_name(self):
        with pytest.raises(NotFound):
            get_recipe("quantum-annealing")
        with pytest.raises(NotFound):
            run_recipe("quantum-annealing", ProblemBundle())


class TestValidation:
    def test_missing_bundle_pieces(self):
        with pytest.raises(BundleError):
            run_recipe("supervised-mle", ProblemBundle())
        with pytest.raises(BundleError):
            run_recipe("policy-gradient", ProblemBundle())

    @pytest.mark.parametrize("rec", registry(), ids=lambda r: r.name)
    def test_empty_bundle_names_every_requirement(self, rec):
        with pytest.raises(BundleError) as exc:
            run_recipe(rec.name, ProblemBundle())
        assert str(exc.value) == f"bundle is missing: {', '.join(rec.requires)}"

    def test_unknown_param_raises(self, toy_dataset, mixture_bundle):
        # a runner that does not read a parameter must not drop it
        b = ProblemBundle(dataset=toy_dataset)
        with pytest.raises(IncompatiblePair, match="no parameter 'iters'"):
            run_recipe("supervised-mle", b, iters=3)
        with pytest.raises(IncompatiblePair, match="no parameter 'iter'"):
            run_recipe("unsupervised-mle", mixture_bundle, iter=3)
        with pytest.raises(IncompatiblePair, match="no parameter 'step'"):
            run_recipe("wgan", ProblemBundle(), iters=2, step=0.1)
        assert issubclass(IncompatiblePair, ValueError)

    @pytest.mark.parametrize("name", ["disc_steps", "disc_step_size",
                                      "model_step_size", "clip", "tol"])
    @pytest.mark.parametrize("recipe", ["vanilla-gan", "wgan", "ppo-gan"])
    def test_gan_takes_no_step_parameters(self, gan_target, recipe, name):
        # adversarial_run's own values are the only ones a recipe runs
        with pytest.raises(IncompatiblePair, match=f"no parameter '{name}'"):
            run_recipe(recipe, ProblemBundle(p_data=gan_target), 1, **{name: 1.0})

    def test_active_learning_reads_the_label_count_from_its_labels(self):
        with pytest.raises(IncompatiblePair, match="no parameter 'n_labels'"):
            run_recipe("active-learning", ProblemBundle(), n_labels=3)

    def test_negative_alpha_raises(self, mixture_bundle):
        # at alpha < 0 the teacher would anti-tilt: EM must not run with it
        for alpha in (-1.0, np.nan):
            with pytest.raises(ValueError, match="alpha"):
                run_recipe("unified-em", mixture_bundle, 0, alpha=alpha, iters=5)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 1), (4, 0), (6,),
                                       (2, 3, 2)])
    def test_mw_rejects_bad_reward_shapes(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rewards"):
                run_recipe("multiplicative-weights",
                           ProblemBundle(rewards=np.ones(shape)))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
    def test_mw_rejects_alpha_outside_zero_inf(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            run_recipe("multiplicative-weights",
                       ProblemBundle(rewards=np.ones((3, 2))), alpha=alpha)

    @pytest.mark.parametrize("key, value", [("reference", [0.5, 0.5]),
                                            ("rule_weight", 2.0)])
    def test_bundle_rejects_keys_no_recipe_reads(self, key, value):
        # the rule's weight is set only as rule.weight
        with pytest.raises(BundleError, match=f"unknown bundle keys: {key}$"):
            load_bundle({"domain": 2, key: value})

    @pytest.mark.parametrize("payload, key", [
        ({"pool": [1, 2]}, "pool"),
        ({"rule": {"atoms": {"A": [0.5]}, "expr": ["atom", "B"]}}, "rule"),
        ({"rho": None}, "rho"),
        ({"n_components": [2]}, "n_components"),
        ({"rho": "abc"}, "rho"),
        ({"p_data": ["a", 1]}, "p_data"),
    ])
    def test_malformed_bundle_names_its_key(self, payload, key):
        # tests/test_cli.py runs the dataset, mdp and non-object cases
        with pytest.raises(BundleError, match=f"^bundle key '{key}'"):
            load_bundle(payload)

    @pytest.mark.parametrize("payload, key", [
        ({"oracle_labels": [0, 1.7]}, "oracle_labels"),
        ({"oracle_labels": [0, float("inf")]}, "oracle_labels"),
        ({"n_components": 2.9}, "n_components"),
        ({"n_components": float("nan")}, "n_components"),
    ])
    def test_integer_field_rejects_a_non_integer(self, payload, key):
        # truncation would run the recipe on a label or size nobody gave
        with pytest.raises(BundleError,
                           match=f"^bundle key '{key}' .*is not an integer"):
            load_bundle(payload)

    def test_integer_fields_load_integral_floats(self):
        b = load_bundle({"oracle_labels": [0, 1.0, 2], "n_components": 3.0})
        assert b.oracle_labels.tolist() == [0, 1, 2]
        assert b.n_components == 3 and isinstance(b.n_components, int)

    def test_bundle_rule_weight(self):
        b = load_bundle({"domain": 2, "rule": {
            "atoms": {"A": [0.2, 0.9]}, "expr": ["atom", "A"], "weight": 3.0}})
        assert b.rule_weight == 3.0

    def test_incompatible_pair(self, toy_dataset):
        b = ProblemBundle(dataset=toy_dataset)
        with pytest.raises(IncompatiblePair):
            check_equivalence("supervised-mle", "hedge", b, 1e-6)


class TestChecks:
    def test_supervised(self, toy_dataset):
        b = ProblemBundle(dataset=toy_dataset)
        rep = check_equivalence("supervised-mle", "direct-mle", b, 1e-6)
        assert rep["passed"], rep

    def test_self_supervised(self, rng):
        prod = Domain.product(("a", "b", "c"), ("u", "v"))
        counts = rng.integers(1, 9, 6).astype(float)
        b = ProblemBundle(dataset=Dataset(prod, counts), product_domain=prod)
        rep = check_equivalence("self-supervised-mle", "direct-mle", b, 1e-6)
        assert rep["passed"], rep

    def test_em(self, mixture_bundle):
        rep = check_equivalence("unsupervised-mle", "hand-em", mixture_bundle,
                                1e-10, seed=3)
        assert rep["passed"], rep
        assert rep["details"]["nll_monotone"]

    def test_em_nll_one_ulp_rise_is_monotone(self):
        # |X| = 1000 with ~10 counts per symbol gives an NLL near 6e4, where
        # one ulp is 7.3e-12: a converged EM step can round up by that much
        nll = [6.0e4, np.nextafter(6.0e4, np.inf)]
        assert _em_deviation(1e-15, nll) == (1e-15, True)

    def test_em_nll_rise_beyond_rounding_is_infinite(self):
        nll = [6.0e4, 6.0e4 + 8 * np.spacing(6.0e4)]
        dev, monotone = _em_deviation(1e-15, nll)
        assert dev == np.inf and not monotone

    def test_reweighting(self, rng):
        dom = Domain.of_size(6)
        ds = Dataset(dom, rng.integers(1, 9, 6).astype(float),
                     weights=rng.random(6) + 0.1)
        rep = check_equivalence("data-reweighting", "weighted-mle",
                                ProblemBundle(dataset=ds), 1e-6)
        assert rep["passed"], rep

    def test_augmentation(self, rng):
        dom = Domain.of_size(6)
        ds = Dataset(dom, rng.integers(1, 9, 6).astype(float))
        b = ProblemBundle(dataset=ds, payoff=rng.normal(size=(6, 6)))
        rep = check_equivalence("data-augmentation", "enumeration", b, 1e-12)
        assert rep["passed"], rep

    def test_augmentation_keeps_no_kernel(self, rng):
        # the N x N kernel is only needed to build f; the run must not hold it
        ds = Dataset(Domain.of_size(6), rng.integers(1, 9, 6).astype(float))
        b = ProblemBundle(dataset=ds, payoff=rng.normal(size=(6, 6)))
        res = run_recipe("data-augmentation", b, 0)
        assert not any(np.ndim(v) == 2 for v in res.extras.values())

    @pytest.mark.parametrize("recipe", ["data-augmentation",
                                        "interpolation-schedule"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_inf_payoff_is_named(self, rng, recipe, bad):
        # one bad entry used to spread nan through every score
        ds = Dataset(Domain.of_size(6), rng.integers(1, 9, 6).astype(float))
        payoff = rng.normal(size=(6, 6))
        payoff[2, 4] = bad
        with pytest.raises(ValueError, match="^payoff row t\\* = 2"):
            run_recipe(recipe, ProblemBundle(dataset=ds, payoff=payoff,
                                             extras={"reward": np.zeros(6)}))

    def test_augmentation_peak_memory_is_below_one_kernel(self):
        # the experience streams the payoff in blocks of about 1 MB; the
        # N x N kernel alone would be n * n * 8 bytes
        import tracemalloc
        n = 2000
        g = np.random.default_rng(0)
        b = ProblemBundle(dataset=Dataset(Domain.of_size(n),
                                          g.integers(0, 9, n).astype(float) + 1),
                          payoff=g.normal(size=(n, n)))
        tracemalloc.start()
        try:
            run_recipe("data-augmentation", b, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_augmentation_check_peak_memory_is_below_one_kernel(self):
        # the enumeration oracle reads the payoff in row blocks too
        import tracemalloc
        n = 2000
        g = np.random.default_rng(0)
        b = ProblemBundle(dataset=Dataset(Domain.of_size(n),
                                          g.integers(0, 9, n).astype(float) + 1),
                          payoff=g.normal(size=(n, n)))
        tracemalloc.start()
        try:
            rep = check_equivalence("data-augmentation", "enumeration", b, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep["passed"], rep
        assert peak < n * n * 8 / 4

    def test_interpolation_reads_no_payoff_mean_given_a_reward(self, rng):
        class NoMean(np.ndarray):
            def mean(self, *args, **kwargs):
                raise AssertionError("payoff mean computed")

        ds = Dataset(Domain.of_size(6), rng.integers(1, 9, 6).astype(float))
        payoff = rng.normal(size=(6, 6)).view(NoMean)
        res = run_recipe("interpolation-schedule", ProblemBundle(
            dataset=ds, payoff=payoff, extras={"reward": np.zeros(6)}))
        assert len(res.trace.records) == 30

    def test_active(self, rng):
        pool = Dataset(Domain.of_size(5), np.array([3.0, 1.0, 4.0, 2.0, 5.0]))
        b = ProblemBundle(pool=pool, oracle_labels=np.array([0, 1, 2, 0, 1]),
                          utility=rng.random(5), select_lambda=2.0)
        rep = check_equivalence("active-learning", "enumeration", b, 1e-6)
        assert rep["passed"], rep

    def test_posterior_regularization(self, rng):
        prod = Domain.product(("x0", "x1", "x2"), ("y0", "y1"))
        rule = parse_rule(["implies", ["atom", "A"], ["const", 0.3]], ("A",))
        b = ProblemBundle(dataset=Dataset(Domain(("x0", "x1", "x2")),
                                          np.array([4.0, 2.0, 6.0])),
                          product_domain=prod, rule=rule,
                          atoms={"A": rng.random(6)}, rule_weight=2.0)
        rep = check_equivalence("posterior-regularization", "enumeration",
                                b, 1e-9, seed=4)
        assert rep["passed"], rep

    def test_unified_em_smoke(self, mixture_bundle):
        mixture_bundle.extras = {"alpha": 0.5}
        rep = check_equivalence("unified-em", "hand-em", mixture_bundle, 0.0)
        assert rep["passed"], rep

    def test_policy_gradient(self, small_mdp):
        b = ProblemBundle(mdp=small_mdp)
        rep = check_equivalence("policy-gradient", "exact-pg", b, 1e-8, seed=5)
        assert rep["passed"], rep
        assert rep["details"]["cosine"] >= 1 - 1e-8

    @pytest.mark.parametrize("source", ["small", "gridworld"])
    def test_reinforce_check_runs_the_reinforce_oracle(self, small_mdp,
                                                       monkeypatch, source):
        # the engine's exact gradient is the other oracle's target, not this one's
        from sekit import mdp, recipes

        def engine_gradient(*args, **kwargs):
            raise AssertionError("exact_policy_gradient called")

        monkeypatch.setattr(mdp, "exact_policy_gradient", engine_gradient)
        monkeypatch.setattr(recipes, "exact_policy_gradient", engine_gradient)
        b = (ProblemBundle(mdp=small_mdp) if source == "small" else
             load_bundle(os.path.join(CONFIG_DIR, "gridworld.json")))
        rep = check_equivalence("policy-gradient", "reinforce", b, 1e-8, seed=5)
        assert rep["passed"] and rep["oracle"] == "reinforce", rep
        assert rep["details"]["ratio_max_rel"] <= 1e-12

    def test_policy_gradient_run_solves_visitation_once(self, small_mdp, monkeypatch):
        # Z and the state-action model share the teacher's visitation
        from sekit import mdp
        solve, trans_args = mdp._solve, []

        def counting_solve(lu, b, trans=0):
            trans_args.append(trans)
            return solve(lu, b, trans)

        monkeypatch.setattr(mdp, "_solve", counting_solve)
        run_recipe("policy-gradient", ProblemBundle(mdp=small_mdp), seed=5)
        assert trans_args.count(1) == 1

    def test_intrinsic(self, small_mdp):
        b = ProblemBundle(mdp=small_mdp)
        rep = check_equivalence("intrinsic-reward", "enumeration", b, 1e-10,
                                seed=5)
        assert rep["passed"], rep

    def test_rl_as_inference(self, small_mdp):
        b = ProblemBundle(mdp=small_mdp)
        rep = check_equivalence("rl-as-inference", "enumeration", b, 1e-12,
                                seed=5)
        assert rep["passed"], rep

    def test_distillation(self, rng):
        prod = Domain.product(("x0", "x1", "x2"), ("y0", "y1"))
        src = ConditionalSoftmaxModel(rng.normal(size=(3, 2)), prod)
        b = ProblemBundle(dataset=Dataset(Domain(("x0", "x1", "x2")),
                                          np.array([4.0, 2.0, 6.0])),
                          source_model=src)
        rep = check_equivalence("knowledge-distillation", "enumeration", b, 1e-6)
        assert rep["passed"], rep

    def test_mw(self, rng):
        b = ProblemBundle(rewards=rng.random((200, 5)))
        rep = check_equivalence("multiplicative-weights", "hedge", b, 1e-12)
        assert rep["passed"], rep

    def test_mw_history_is_one_trajectory_pass(self, rng):
        # the recipe's rounds are the rows of one mw_trajectory call, bit
        # for bit, not a round-by-round loop
        R = rng.random((300, 5))
        res = run_recipe("multiplicative-weights", ProblemBundle(rewards=R))
        alpha = res.extras["alpha"]
        logp = mw_trajectory(Dist.uniform(5), R, alpha)
        assert isinstance(res.extras["history"], list)
        assert np.array_equal(np.array(res.extras["history"]), np.exp(logp))
        assert np.array_equal(res.final_dist.logp, logp[-1])
        assert alpha == np.sqrt(300 / (2 * np.log(5)))

    @pytest.mark.parametrize("cut", [slice(None, -1), slice(1, None),
                                     slice(None, 1)])
    def test_mw_check_fails_a_history_of_the_wrong_length(self, rng,
                                                          monkeypatch, cut):
        import sekit.recipes as recipes_module
        original = recipes_module.run_recipe

        def short_run(name, bundle, seed=0, **params):
            res = original(name, bundle, seed, **params)
            res.extras["history"] = res.extras["history"][cut]
            return res

        monkeypatch.setattr(recipes_module, "run_recipe", short_run)
        b = ProblemBundle(rewards=rng.random((200, 5)))
        rep = check_equivalence("multiplicative-weights", "hedge", b, 1e-12)
        assert rep["max_deviation"] == np.inf
        assert not rep["passed"]

    def test_ppo_gan_identity(self, gan_target):
        b = ProblemBundle(p_data=gan_target)
        rep = check_equivalence("ppo-gan", "reweighted-identity", b, 1e-10)
        assert rep["passed"], rep

    def test_interpolation(self, rng):
        dom = Domain.of_size(6)
        ds = Dataset(dom, rng.integers(1, 9, 6).astype(float))
        b = ProblemBundle(dataset=ds, payoff=rng.normal(size=(6, 6)))
        rep = check_equivalence("interpolation-schedule", "none", b, 0.0)
        assert rep["passed"], rep

    def test_determinism_of_reports(self, mixture_bundle):
        a = check_equivalence("unsupervised-mle", "hand-em", mixture_bundle,
                              1e-10, seed=9)
        b = check_equivalence("unsupervised-mle", "hand-em", mixture_bundle,
                              1e-10, seed=9)
        assert a == b


class TestRunners:
    @pytest.mark.parametrize("name", ["vanilla-gan", "ppo-gan"])
    def test_gan_reports_the_loops_own_p_theta(self, name):
        # the final distribution is the p_theta the loop ended on, not a
        # renormalised copy of it
        with open(os.path.join(CONFIG_DIR, "gan_target.json")) as fh:
            bundle = load_bundle(json.load(fh))
        for seed in range(20):
            res = run_recipe(name, bundle, seed)
            assert np.array_equal(res.final_dist.logp, res.model.theta), seed
