import numpy as np
import pytest

from sekit import solver
from sekit.adversarial import (Discriminator, ModeUnsupported, _sigmoid,
                               adversarial_run, discriminator_gradient,
                               discriminator_objective, discriminator_update,
                               reweighted_discriminator_gradient, tilted_q)
from sekit.core import Dist, Domain
from sekit.divergence import w1
from sekit.models import SoftmaxModel
from sekit.oracles import finite_difference_gradient, gan_optimum


def mk(rng, n):
    return Dist.from_probs(rng.dirichlet(np.ones(n)))


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
    def test_classification_gradient_fd(self, rng):
        n = 6
        p_d, q = mk(rng, n), mk(rng, n)
        phi = rng.normal(size=n)
        d = Discriminator(phi, "classifier")
        g = discriminator_gradient(d, p_d, q, "classification")
        fd = finite_difference_gradient(
            lambda ph: discriminator_objective(
                Discriminator(ph, "classifier"), p_d, q, "classification"), phi)
        assert np.max(np.abs(g - fd)) <= 1e-7

    def test_separation_gradient_fd(self, rng):
        n = 6
        p_d, q = mk(rng, n), mk(rng, n)
        phi = rng.normal(size=n)
        d = Discriminator(phi, "classifier")
        g = discriminator_gradient(d, p_d, q, "separation")
        fd = finite_difference_gradient(
            lambda ph: discriminator_objective(
                Discriminator(ph, "classifier"), p_d, q, "separation"), phi)
        assert np.max(np.abs(g - fd)) <= 1e-7

    def test_lipschitz_separation_gradient_fd(self, rng):
        # consecutive differences within 0.5 < clip: the projection is the
        # identity near phi, so f = phi and the gradient is p_data - q
        n = 6
        p_d, q = mk(rng, n), mk(rng, n)
        phi = np.cumsum(rng.uniform(-0.5, 0.5, size=n))
        d = Discriminator(phi, "lipschitz_critic", clip=1.0)
        g = discriminator_gradient(d, p_d, q, "separation")
        fd = finite_difference_gradient(
            lambda ph: discriminator_objective(
                Discriminator(ph, "lipschitz_critic", clip=1.0), p_d, q,
                "separation"), phi)
        assert np.max(np.abs(g - fd)) <= 1e-7
        assert np.max(np.abs(g - (p_d.p - q.p))) <= 1e-15

    def test_classification_objective_guard(self):
        d = Discriminator(np.zeros(3), "lipschitz_critic")
        with pytest.raises(ModeUnsupported):
            discriminator_objective(d, Dist.uniform(3), Dist.uniform(3),
                                    "classification")


class TestClassifierOptimum:
    def test_converges_to_density_ratio(self, rng):
        n = 8
        p_d, q = mk(rng, n), mk(rng, n)
        d = Discriminator(np.zeros(n), "classifier")
        d = discriminator_update(d, p_d, q, steps=500, step_size=4.0,
                                 objective="classification")
        assert np.max(np.abs(d.sigma() - gan_optimum(p_d.p, q.p))) <= 1e-6


class TestReweightedIdentity:
    def test_matches_explicit_tilt(self, rng):
        n = 7
        for _ in range(20):
            model = SoftmaxModel(rng.normal(size=n), Domain.of_size(n))
            disc = Discriminator(rng.normal(size=n), "classifier")
            p_d = mk(rng, n)
            g1 = reweighted_discriminator_gradient(disc, p_d, model)
            g2 = discriminator_gradient(disc, p_d, tilted_q(model, disc),
                                        "separation")
            assert np.max(np.abs(g1 - g2)) <= 1e-10


class TestLipschitzCritic:
    def test_saturated_critic_equals_w1(self, rng):
        n = 9
        p_d, q = mk(rng, n), mk(rng, n)
        d = Discriminator(np.zeros(n), "lipschitz_critic", clip=1.0)
        d = discriminator_update(d, p_d, q, steps=1, objective="separation")
        obj = discriminator_objective(d, p_d, q, "separation")
        exact = w1(q, p_d, np.arange(n, dtype=float))
        assert obj == pytest.approx(exact, abs=1e-12)


class TestAdversarialRun:
    def test_vanilla_gan_converges(self, gan_target, rng):
        model = SoftmaxModel(rng.normal(size=10) * 0.5, Domain.of_size(10))
        res = adversarial_run("vanilla_gan", gan_target, model, iters=5000)
        assert res.converged
        assert res.model.dist().tv(gan_target) <= 1e-3
        target = gan_optimum(gan_target.p, res.model.dist().p)
        assert np.max(np.abs(res.discriminator.sigma() - target)) <= 1e-4

    def test_ppo_gan_converges(self, gan_target, rng):
        model = SoftmaxModel(rng.normal(size=10) * 0.5, Domain.of_size(10))
        res = adversarial_run("ppo_gan", gan_target, model, iters=3000)
        assert res.model.dist().tv(gan_target) <= 1e-3

    def test_unknown_recipe(self, gan_target):
        model = SoftmaxModel.zeros(Domain.of_size(10))
        with pytest.raises(ValueError):
            adversarial_run("quantum_gan", gan_target, model)
