import numpy as np
import pytest

from sekit.core import Dist, Domain
from sekit.models import (ConditionalSoftmaxModel, MixtureModel,
                          ShapeMismatch, SoftmaxModel, exact_fit,
                          expected_log_prob, fit_to, grad_expected_log_prob)
from sekit.oracles import finite_difference_gradient


def random_dist(rng, n):
    return Dist.from_probs(rng.dirichlet(np.ones(n)))


class TestSoftmaxModel:
    def test_probs_sum(self, rng):
        m = SoftmaxModel(rng.normal(size=6), Domain.of_size(6))
        assert np.exp(m.log_probs()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_neg_inf_logit(self):
        theta = np.array([0.0, -np.inf, 1.0])
        m = SoftmaxModel(theta, Domain.of_size(3))
        assert m.dist().p[1] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            SoftmaxModel(np.zeros(3), Domain.of_size(4))

    def test_gradient_matches_finite_difference(self, rng):
        dom = Domain.of_size(5)
        theta = rng.normal(size=5)
        q = random_dist(rng, 5)
        g = grad_expected_log_prob(SoftmaxModel(theta, dom), q)
        fd = finite_difference_gradient(
            lambda t: expected_log_prob(SoftmaxModel(t, dom), q), theta)
        assert np.max(np.abs(g - fd)) <= 1e-7

    def test_exact_fit_attains_q(self, rng):
        dom = Domain.of_size(6)
        q = random_dist(rng, 6)
        m = exact_fit(SoftmaxModel.zeros(dom), q)
        assert m.dist().tv(q) <= 1e-12


class TestConditionalSoftmaxModel:
    def test_rows_normalize(self, rng):
        dom = Domain.product(("a", "b", "c"), ("u", "v"))
        m = ConditionalSoftmaxModel(rng.normal(size=(3, 2)), dom)
        assert np.allclose(m.probs().sum(axis=1), 1.0)

    def test_joint_with_zero_marginal(self, rng):
        dom = Domain.product(("a", "b"), ("u", "v"))
        m = ConditionalSoftmaxModel(rng.normal(size=(2, 2)), dom)
        joint = m.joint_log_probs(np.array([1.0, 0.0]))
        assert np.all(np.isneginf(joint[2:]))

    def test_gradient_matches_finite_difference(self, rng):
        dom = Domain.product(("a", "b", "c"), ("u", "v"))
        theta = rng.normal(size=(3, 2))
        q = random_dist(rng, 6)
        g = grad_expected_log_prob(ConditionalSoftmaxModel(theta, dom), q)
        fd = finite_difference_gradient(
            lambda t: expected_log_prob(ConditionalSoftmaxModel(t, dom), q), theta)
        assert np.max(np.abs(g - fd)) <= 1e-7

    def test_exact_fit_matches_conditional(self, rng):
        dom = Domain.product(("a", "b", "c"), ("u", "v"))
        q = random_dist(rng, 6)
        m = exact_fit(ConditionalSoftmaxModel(np.zeros((3, 2)), dom), q)
        q_xy = q.p.reshape(3, 2)
        cond = q_xy / q_xy.sum(axis=1, keepdims=True)
        assert np.max(np.abs(m.probs() - cond)) <= 1e-12

    def test_exact_fit_keeps_zero_mass_row(self, rng):
        dom = Domain.product(("a", "b", "c"), ("u", "v", "w"))
        m = ConditionalSoftmaxModel(rng.normal(size=(3, 3)), dom)
        q_xy = rng.dirichlet(np.ones(9)).reshape(3, 3)
        q_xy[1] = 0.0  # x = 1 gets no mass
        q_xy[2, 0] = 0.0
        fitted = exact_fit(m, Dist.from_probs((q_xy / q_xy.sum()).ravel()))
        assert np.array_equal(fitted.theta[1], m.theta[1])
        cond = q_xy[[0, 2]] / q_xy[[0, 2]].sum(axis=1, keepdims=True)
        assert np.isneginf(fitted.theta[2, 0])
        assert np.max(np.abs(np.exp(fitted.theta[[0, 2]]) - cond)) <= 1e-15


class TestMixtureModel:
    def make(self, rng):
        dom = Domain.product(tuple(f"x{i}" for i in range(4)), ("k0", "k1"))
        return MixtureModel(rng.normal(size=2), rng.normal(size=(2, 4)), dom)

    def test_joint_normalizes(self, rng):
        m = self.make(rng)
        assert np.exp(m.log_probs()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_difference(self, rng):
        m = self.make(rng)
        q = random_dist(rng, 8)
        g_mix, g_comp = grad_expected_log_prob(m, q)

        def obj(flat):
            mm = MixtureModel(flat[:2], flat[2:].reshape(2, 4), m.domain)
            return expected_log_prob(mm, q)

        flat = np.concatenate([m.mixture_logits, m.component_logits.ravel()])
        fd = finite_difference_gradient(obj, flat)
        assert np.max(np.abs(np.concatenate([g_mix, g_comp.ravel()]) - fd)) <= 1e-7

    def test_exact_fit_closed_form(self, rng):
        m = self.make(rng)
        q = random_dist(rng, 8)
        fitted = exact_fit(m, q)
        q_xy = q.p.reshape(4, 2)
        pi = np.exp(fitted.mixture_logits)
        assert np.max(np.abs(pi / pi.sum() - q_xy.sum(axis=0))) <= 1e-12
        # fitted model attains the optimum: no other model scores higher
        assert expected_log_prob(fitted, q) >= expected_log_prob(m, q)

    def test_exact_fit_keeps_zero_mass_component(self, rng):
        m = self.make(rng)
        q_xy = rng.dirichlet(np.ones(8)).reshape(4, 2)
        q_xy[:, 1] = 0.0  # component 1 gets no mass
        q_xy[2, 0] = 0.0
        fitted = exact_fit(m, Dist.from_probs((q_xy / q_xy.sum()).ravel()))
        assert np.array_equal(fitted.component_logits[1], m.component_logits[1])
        assert fitted.mixture_logits[1] == -np.inf
        comp0 = q_xy[:, 0] / q_xy[:, 0].sum()
        assert np.isneginf(fitted.component_logits[0, 2])
        assert np.max(np.abs(np.exp(fitted.component_logits[0]) - comp0)) <= 1e-15


class TestFitTo:
    def test_monotone_ascent(self, rng):
        dom = Domain.product(("a", "b", "c"), ("u", "v"))
        m = ConditionalSoftmaxModel(rng.normal(size=(3, 2)), dom)
        q = random_dist(rng, 6)
        prev = expected_log_prob(m, q)
        for _ in range(5):
            m = fit_to(m, q, steps=3)
            cur = expected_log_prob(m, q)
            assert cur >= prev - 1e-12
            prev = cur

    def test_bad_args(self, rng):
        dom = Domain.of_size(3)
        m = SoftmaxModel.zeros(dom)
        with pytest.raises(ValueError):
            fit_to(m, Dist.uniform(3), steps=-1)
        with pytest.raises(ValueError):
            fit_to(m, Dist.uniform(3), step_size=0.0)
