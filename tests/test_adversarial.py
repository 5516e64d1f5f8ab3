import warnings
from pathlib import Path

import numpy as np
import pytest

from sekit import adversarial, solver
from sekit.adversarial import (Discriminator, ModeUnsupported, _log_sigmoid,
                               _project_lipschitz, _sigmoid, adversarial_run,
                               discriminator_gradient, discriminator_update,
                               reweighted_discriminator_gradient,
                               reweighted_discriminator_update, tilted_q)
from sekit.bundles import load_bundle
from sekit.core import BoundaryPoint, Dist, Domain
from sekit.divergence import NonConvergence, w1
from sekit.models import SoftmaxModel
from sekit.oracles import brute_force_w1, finite_difference_gradient, gan_optimum
from sekit.recipes import check_equivalence, run_recipe

GAN_TARGET = Path(__file__).resolve().parent.parent / "configs" / "gan_target.json"


def mk(rng, n):
    return Dist.from_probs(rng.dirichlet(np.ones(n)))


def separation(disc, p_d, q):
    """E_pd[f] - E_q[f], the objective discriminator_gradient differentiates."""
    f = disc.f_values()
    return float(p_d.p @ f - q.p @ f)


class TestDiscriminator:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Discriminator(np.zeros(3), "oracle")
        with pytest.raises(ValueError):
            Discriminator(np.zeros(3), "lipschitz_critic", clip=0.0)
        with pytest.raises(ValueError):
            Discriminator(np.array([0.0, np.inf]))

    def test_classifier_f_is_log_sigmoid(self, rng):
        phi = rng.normal(size=5)
        d = Discriminator(phi, "classifier")
        assert np.max(np.abs(d.f_values() - np.log(_sigmoid(phi)))) <= 1e-12

    def test_sigma_guard(self):
        assert ModeUnsupported is solver.ModeUnsupported
        with pytest.raises(ModeUnsupported):
            Discriminator(np.zeros(3), "lipschitz_critic").sigma()

    def test_lipschitz_projection_idempotent(self, rng):
        phi = rng.normal(size=8) * 10
        d = Discriminator(phi, "lipschitz_critic", clip=1.0)
        assert np.max(np.abs(np.diff(d.phi))) <= 1.0 + 1e-12
        d2 = Discriminator(d.phi, "lipschitz_critic", clip=1.0)
        assert np.max(np.abs(d.phi - d2.phi)) <= 1e-15

    def test_lipschitz_respects_coords(self, rng):
        coords = np.array([0.0, 0.5, 2.0, 3.0])
        phi = rng.normal(size=4) * 10
        d = Discriminator(phi, "lipschitz_critic", clip=1.0, coords=coords)
        assert np.all(np.abs(np.diff(d.phi)) <= np.diff(coords) + 1e-12)


class TestGradients:
    def test_separation_gradient_fd(self, rng):
        n = 6
        p_d, q = mk(rng, n), mk(rng, n)
        phi = rng.normal(size=n)
        d = Discriminator(phi, "classifier")
        g = discriminator_gradient(d, p_d, q)
        fd = finite_difference_gradient(
            lambda ph: separation(Discriminator(ph, "classifier"), p_d, q), phi)
        assert np.max(np.abs(g - fd)) <= 1e-7

    def test_lipschitz_separation_gradient_fd(self, rng):
        # consecutive differences within 0.5 < clip: the projection is the
        # identity near phi, so f = phi and the gradient is p_data - q
        n = 6
        p_d, q = mk(rng, n), mk(rng, n)
        phi = np.cumsum(rng.uniform(-0.5, 0.5, size=n))
        d = Discriminator(phi, "lipschitz_critic", clip=1.0)
        g = discriminator_gradient(d, p_d, q)
        fd = finite_difference_gradient(
            lambda ph: separation(
                Discriminator(ph, "lipschitz_critic", clip=1.0), p_d, q), phi)
        assert np.max(np.abs(g - fd)) <= 1e-7
        assert np.max(np.abs(g - (p_d.p - q.p))) <= 1e-15


class TestClassifierOptimum:
    def test_converges_to_density_ratio(self, rng):
        n = 8
        p_d, q = mk(rng, n), mk(rng, n)
        d = Discriminator(np.zeros(n), "classifier")
        d = discriminator_update(d, p_d, q, objective="classification")
        assert np.max(np.abs(d.sigma() - gan_optimum(p_d.p, q.p))) <= 1e-12

    def test_unsupported_pairs_raise(self):
        u = Dist.uniform(3)
        for mode, objective in (("lipschitz_critic", "classification"),
                                ("classifier", "separation")):
            with pytest.raises(ModeUnsupported):
                discriminator_update(Discriminator(np.zeros(3), mode), u, u,
                                     objective=objective)

    def test_zero_masses(self):
        # both zero: phi stays; exactly one zero: phi* is infinite there
        p_d = Dist.from_probs(np.array([0.5, 0.0, 0.5, 0.0]))
        q = Dist.from_probs(np.array([0.25, 0.0, 0.75, 0.0]))
        d = discriminator_update(Discriminator(np.full(4, 3.0)), p_d, q,
                                 objective="classification")
        assert d.phi[1] == d.phi[3] == 3.0
        assert np.max(np.abs(d.phi[[0, 2]] - np.log([2.0, 0.5 / 0.75]))) <= 1e-15
        q = Dist.from_probs(np.array([0.25, 0.0, 0.5, 0.25]))
        with pytest.raises(NonConvergence, match="t = 3"):
            discriminator_update(Discriminator(np.zeros(4)), p_d, q,
                                 objective="classification")


class TestReweightedIdentity:
    def test_matches_explicit_tilt(self, rng):
        n = 7
        for _ in range(20):
            model = SoftmaxModel(rng.normal(size=n), Domain.of_size(n))
            disc = Discriminator(rng.normal(size=n), "classifier")
            p_d = mk(rng, n)
            g1 = reweighted_discriminator_gradient(disc, p_d, model.dist())
            g2 = discriminator_gradient(disc, p_d, tilted_q(model, disc))
            assert np.max(np.abs(g1 - g2)) <= 1e-10


class TestLipschitzCritic:
    def test_saturated_critic_equals_w1(self, rng):
        n = 9
        p_d, q = mk(rng, n), mk(rng, n)
        d = Discriminator(np.zeros(n), "lipschitz_critic", clip=1.0)
        d = discriminator_update(d, p_d, q)
        obj = separation(d, p_d, q)
        exact = w1(q, p_d, np.arange(n, dtype=float))
        assert obj == pytest.approx(exact, abs=1e-12)

    def test_fit_attains_w1_and_carries_no_state(self, rng):
        # from any warm critic the fit attains clip * W1, and it is the fit
        # from zeros shifted by the warm phi_0: nothing else is kept
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                n = int(rng.integers(2, 15))
                p_d, q = mk(rng, n), mk(rng, n)
                coords = np.cumsum(rng.uniform(0.1, 2.0, n))
                clip = float(rng.uniform(0.5, 3.0))
                warm = Discriminator(rng.normal(size=n) * 5.0,
                                     "lipschitz_critic", clip, coords)
                fit = discriminator_update(warm, p_d, q)
                exact = brute_force_w1(q.p, p_d.p, coords)
                assert abs(separation(fit, p_d, q) - clip * exact) <= 1e-9
                cold = discriminator_update(warm.with_phi(np.zeros(n)), p_d, q)
                assert np.max(np.abs(fit.phi - warm.phi[0] - cold.phi)) <= 1e-12


class TestAdversarialRun:
    def test_vanilla_gan_converges(self, gan_target, rng):
        model = SoftmaxModel(rng.normal(size=10) * 0.5, Domain.of_size(10))
        res = adversarial_run("vanilla_gan", gan_target, model, iters=5000)
        assert res.trace.converged
        assert res.model.dist().tv(gan_target) <= 1e-3
        target = gan_optimum(gan_target.p, res.model.dist().p)
        assert np.max(np.abs(res.discriminator.sigma() - target)) <= 1e-4

    def test_ppo_gan_converges(self, gan_target, rng):
        model = SoftmaxModel(rng.normal(size=10) * 0.5, Domain.of_size(10))
        res = adversarial_run("ppo_gan", gan_target, model, iters=3000)
        assert res.model.dist().tv(gan_target) <= 1e-3

    def test_ppo_step_is_the_reweighted_fit_and_its_tilt(self, gan_target, rng):
        # what _check_ppo_gan checks, pinned to one step of the run: the
        # reweighted discriminator update, then the model jumps to the tilt
        n = 10
        for _ in range(20):
            model0 = SoftmaxModel(rng.normal(size=n), Domain.of_size(n))
            res = adversarial_run("ppo_gan", gan_target, model0, iters=1)
            disc1 = reweighted_discriminator_update(
                Discriminator(np.zeros(n), "classifier"), gan_target,
                model0.dist())
            assert np.array_equal(_bits(res.discriminator.phi), _bits(disc1.phi))
            # theta, not dist(): dist() renormalises, which can move an ulp
            assert np.array_equal(_bits(res.model.theta),
                                  _bits(tilted_q(model0, disc1).logp))

    def test_unknown_recipe(self, gan_target):
        model = SoftmaxModel.zeros(Domain.of_size(10))
        with pytest.raises(ValueError):
            adversarial_run("quantum_gan", gan_target, model)

    @pytest.mark.parametrize("recipe", ["vanilla_gan", "wgan", "ppo_gan"])
    def test_model_zero_where_the_target_is_not_raises(self, recipe):
        # a multiplicative step keeps a zero at zero: the vanilla GAN used to
        # raise an unnamed gradient error, the other two ran to their cap
        theta = np.zeros(10)
        theta[[3, 7]] = -np.inf
        model = SoftmaxModel(theta, Domain.of_size(10))
        with pytest.raises(BoundaryPoint, match="p_theta is 0 at t = 3,"):
            adversarial_run(recipe, Dist.uniform(10), model, iters=50)

    @pytest.mark.parametrize("recipe", ["wgan", "ppo_gan"])
    def test_model_zero_where_the_target_is_zero_runs(self, recipe):
        # a zero that the target shares is no boundary for these steps (the
        # vanilla GAN's JS gradient still needs an interior p_theta)
        theta = np.zeros(10)
        theta[3] = -np.inf
        p_data = Dist.from_probs(np.r_[np.full(3, 0.1), 0.0, np.full(6, 0.7 / 6)])
        res = adversarial_run(recipe, p_data, SoftmaxModel(theta, Domain.of_size(10)),
                              iters=3)
        assert len(res.trace.records) >= 1


class TestWganPolyakStep:
    """eta = W1 / Var_p(phi): the exact critic's gap over its variance."""

    @staticmethod
    def _gap_and_variance(critic, p_d, p):
        mean_phi = p.p @ critic.phi
        return p_d.p @ critic.phi - mean_phi, p.p @ (critic.phi - mean_phi) ** 2

    def test_gap_is_w1(self, rng):
        # 1-D LP duality: the exact critic's gap is clip * W1
        for _ in range(20):
            n = int(rng.integers(2, 15))
            p, p_d = mk(rng, n), mk(rng, n)
            coords = np.cumsum(rng.uniform(0.1, 2.0, n))
            clip = float(rng.uniform(0.5, 3.0))
            critic = discriminator_update(
                Discriminator(np.zeros(n), "lipschitz_critic", clip, coords),
                p_d, p)
            gap, var = self._gap_and_variance(critic, p_d, p)
            assert abs(gap / clip - brute_force_w1(p.p, p_d.p, coords)) <= 1e-9
            assert var > 0.0

    def test_step_does_not_depend_on_clip_or_coords(self, gan_target, rng):
        # clip scales the critic by c, the gap by c and Var_p by c^2, so the
        # step eta * psi is the same at every clip
        p = mk(rng, 10)
        steps = []
        for clip in (1.0, 2.5):
            critic = discriminator_update(
                Discriminator(np.zeros(10), "lipschitz_critic", clip), gan_target, p)
            gap, var = self._gap_and_variance(critic, gan_target, p)
            steps.append(gap / var * (critic.phi.mean() - critic.phi))
        assert np.max(np.abs(steps[1] - steps[0])) <= 1e-12
        theta = rng.normal(size=10) * 0.5
        runs = [adversarial_run("wgan", gan_target,
                                SoftmaxModel(theta, Domain.of_size(10)), **kw)
                for kw in ({}, {"coords": np.arange(10) * 3.0})]
        assert len(runs[0].trace.records) == len(runs[1].trace.records)
        assert np.max(np.abs(runs[1].model.theta - runs[0].model.theta)) <= 1e-12

    @pytest.mark.parametrize("recipe", ["wgan", "vanilla_gan"])
    def test_run_fits_the_discriminator_once(self, gan_target, rng,
                                             monkeypatch, recipe):
        # the loop steps on the closed-form gradient; only the returned
        # discriminator is fitted, once, against the final model
        calls = []
        fit = adversarial.discriminator_update

        def counted(*args, **kwargs):
            calls.append(args[0].mode)
            return fit(*args, **kwargs)

        monkeypatch.setattr(adversarial, "discriminator_update", counted)
        model = SoftmaxModel(rng.normal(size=10) * 0.5, Domain.of_size(10))
        res = adversarial_run(recipe, gan_target, model)
        assert res.trace.converged and len(res.trace.records) > 1
        assert calls == [res.discriminator.mode]

    def test_committed_target_converges(self):
        bundle = load_bundle(str(GAN_TARGET))
        for seed in range(21):
            res = run_recipe("wgan", bundle, seed, iters=3000)
            assert res.trace.converged, seed
            # the most any of seeds 0-200 takes is 360 (seed 142); the
            # 1/sqrt(t) step this replaced ran all 3000 on every seed
            assert len(res.trace.records) <= 360, seed
            assert res.final_dist.tv(bundle.p_data) <= 1e-3

    def test_dirichlet_targets(self):
        # measured: 9 of these 10 converge; the tenth (min mass 1e-4) ends at
        # TV 1.105e-3.  The 1/sqrt(t) step ended at TV 0.006-0.018 on all ten
        targets = np.random.default_rng(0).dirichlet(np.ones(10), size=10)
        converged, worst = 0, 0.0
        for p in targets:
            bundle = load_bundle({"p_data": p.tolist()})
            res = run_recipe("wgan", bundle, 1, iters=3000)
            converged += res.trace.converged
            worst = max(worst, res.final_dist.tv(bundle.p_data))
        assert converged >= 9
        assert worst <= 1.2e-3

    def test_no_separation_ends_the_loop(self):
        p_d = Dist.uniform(10)
        # model equal to the target: zero gap, converged with no step taken
        model = SoftmaxModel(np.zeros(10), Domain.of_size(10))
        res = adversarial_run("wgan", model.dist(), model)
        assert res.trace.converged and res.trace.records == []
        # a point mass: no multiplicative step can move it, and the run
        # says so by name before the loop instead of ending unconverged
        theta = np.full(10, -np.inf)
        theta[0] = 0.0
        with pytest.raises(BoundaryPoint, match="t = 1,"):
            adversarial_run("wgan", p_d, SoftmaxModel(theta, Domain.of_size(10)))

    def test_check_fails_an_unconverged_run(self):
        bundle = load_bundle(str(GAN_TARGET))
        rep = check_equivalence("wgan", "brute-w1", bundle, 0.10, seed=1)
        assert rep["passed"] and rep["details"]["converged"]
        # W1 is at most the diameter (9) times the TV
        assert 0.0 < rep["details"]["model_w1"] <= 9 * rep["details"]["final_tv"]
        rep = check_equivalence("wgan", "brute-w1", bundle, 0.10, seed=1, iters=5)
        assert not rep["passed"] and not rep["details"]["converged"]
        assert rep["max_deviation"] == np.inf
        assert rep["details"]["model_w1"] > 0.0


class TestClassifierPolish:
    def test_small_masses_reach_the_optimum(self):
        # Dirichlet(1) targets put masses near 1e-4 on some points; the final
        # model can nearly drop such a point, which puts the optimal phi far out
        targets = np.random.default_rng(0).dirichlet(np.ones(10), size=20)
        for p in targets:
            rep = check_equivalence("vanilla-gan", "gan-optimum",
                                    load_bundle({"p_data": p.tolist()}), 1e-3,
                                    seed=1)
            assert rep["passed"], p
            assert rep["details"]["final_tv"] <= 1e-3
            assert rep["details"]["sigma_max_abs"] <= 1e-4
            # inf if the replay took a different number of iterations
            assert rep["details"]["replay_max_abs"] <= 1e-12

    def test_committed_target_matches_the_replay(self):
        bundle = load_bundle(str(GAN_TARGET))
        for seed in list(range(11)) + [97]:
            rep = check_equivalence("vanilla-gan", "gan-optimum", bundle, 1e-3,
                                    seed=seed)
            assert rep["passed"], seed
            assert rep["details"]["replay_max_abs"] <= 1e-12, seed

    def test_check_fails_a_drifted_step(self, monkeypatch):
        # the replay states the step size itself, so an engine step that
        # drifts from 0.5 takes a different path and fails the check
        monkeypatch.setattr(adversarial, "MODEL_STEP_SIZE", 0.6)
        rep = check_equivalence("vanilla-gan", "gan-optimum",
                                load_bundle(str(GAN_TARGET)), 1e-3, seed=1)
        assert not rep["passed"]
        assert rep["details"]["final_tv"] <= 1e-3

    def test_zero_mass_point_raises(self):
        # p_data(t) = 0 < q(t): the optimal classifier has phi_t = -inf
        p = np.full(10, 0.1)
        p[2], p[3] = 0.0, 0.2
        model = SoftmaxModel(np.zeros(10), Domain.of_size(10))
        with pytest.raises(NonConvergence):
            adversarial_run("vanilla_gan", Dist.from_probs(p), model)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestHelpersBitForBit:
    """The rewritten helpers against the formulas they replaced."""

    EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 745.0, -745.0,
                      1e308, -1e308])

    @staticmethod
    def _old_log_sigmoid(x):
        return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                        x - np.log1p(np.exp(-np.abs(x))))

    @staticmethod
    def _old_project(phi, clip, gaps):
        diffs = np.clip(np.diff(phi), -clip * gaps, clip * gaps)
        out = np.empty_like(phi)
        out[0] = phi[0]
        out[1:] = phi[0] + np.cumsum(diffs)
        return out

    def test_log_sigmoid(self, rng):
        x = np.concatenate([self.EDGES, rng.normal(size=200) * 30.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = _log_sigmoid(x)
            old = self._old_log_sigmoid(x)
        assert np.array_equal(_bits(one), _bits(old))

    def test_project_lipschitz(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for clip in (0.3, 1.0, 2.5):
                phi = rng.normal(size=12) * 3.0
                gaps = rng.uniform(0.1, 2.0, size=11)
                assert np.array_equal(_bits(_project_lipschitz(phi, clip, gaps)),
                                      _bits(self._old_project(phi, clip, gaps)))

    def test_w1(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2, 10, 1000):
                q, p = mk(rng, n), mk(rng, n)
                coords = np.cumsum(rng.uniform(0.1, 2.0, size=n))
                ref = float(np.abs(np.cumsum(q.p - p.p)[:-1]) @ np.diff(coords))
                assert _bits(w1(q, p, coords)) == _bits(ref)

    def test_gaps_are_handed_on(self, rng):
        coords = np.cumsum(rng.uniform(0.1, 2.0, size=6))
        disc = Discriminator(np.zeros(6), "lipschitz_critic", 1.0, coords)
        assert disc.with_phi(rng.normal(size=6))._gaps is disc._gaps
        with pytest.raises(ValueError, match="coords must match phi"):
            disc.with_phi(np.zeros(5))
        classifier = Discriminator(np.zeros(6))
        assert classifier.with_phi(np.zeros(4))._gaps.shape == (3,)
