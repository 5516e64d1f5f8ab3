import numpy as np
import pytest

from sekit.core import Dist, Domain
from sekit.models import (ConditionalSoftmaxModel, MixtureModel,
                          NonFiniteGradient, ShapeMismatch, SoftmaxModel,
                          exact_fit, fit_to, grad_expected_log_prob)
from sekit.oracles import finite_difference_gradient


def expected_log_prob(model, q):
    """E_q[log p_theta], the objective `fit_to` ascends."""
    return q.expect(model.log_probs().ravel())


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

    def test_has_no_exact_fit(self, rng):
        # its student is fit_to's gradient steps
        dom = Domain.product(("a", "b", "c"), ("u", "v"))
        m = ConditionalSoftmaxModel(rng.normal(size=(3, 2)), dom)
        with pytest.raises(TypeError):
            exact_fit(m, random_dist(rng, 6))


class TestMixtureModel:
    def make(self, rng):
        dom = Domain.product(tuple(f"x{i}" for i in range(4)), ("k0", "k1"))
        return MixtureModel(rng.normal(size=2), rng.normal(size=(2, 4)), dom)

    def test_joint_normalizes(self, rng):
        m = self.make(rng)
        assert np.exp(m.log_probs()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_has_no_gradient(self, rng):
        # its student is exact_fit's closed form
        m = self.make(rng)
        with pytest.raises(TypeError):
            grad_expected_log_prob(m, random_dist(rng, 8))

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
    @pytest.mark.parametrize("family", ["softmax", "conditional"])
    def test_monotone_ascent(self, rng, family):
        if family == "softmax":
            m = SoftmaxModel(rng.normal(size=6), Domain.of_size(6))
        else:
            dom = Domain.product(("a", "b", "c"), ("u", "v"))
            m = ConditionalSoftmaxModel(rng.normal(size=(3, 2)), dom)
        q = random_dist(rng, 6)
        prev = expected_log_prob(m, q)
        for _ in range(5):
            m = fit_to(m, q, steps=3)
            cur = expected_log_prob(m, q)
            assert cur >= prev - 1e-12
            prev = cur

    @staticmethod
    def _reference_fit(model, q, steps, step_size):
        """The loop as it stood when every gradient recomputed the current
        model's log-softmax; returns the fit and its step halvings."""
        current = model
        obj = expected_log_prob(current, q)
        halvings = 0
        for _ in range(steps):
            if isinstance(current, SoftmaxModel):
                grad = q.p - np.exp(current.log_probs())
            else:
                q_xy = q.p.reshape(current.theta.shape)
                grad = q_xy - q_xy.sum(axis=1)[:, None] * current.probs()
            if not np.all(np.isfinite(grad)):
                raise NonFiniteGradient("gradient has non-finite entries")
            eta = step_size
            for _halving in range(30):
                candidate = current.with_theta(current.theta + eta * grad)
                new_obj = expected_log_prob(candidate, q)
                if new_obj >= obj:
                    break
                eta /= 2.0
                halvings += 1
            else:
                return current, halvings
            current, obj = candidate, new_obj
        return current, halvings

    @pytest.mark.parametrize("family", ["softmax", "conditional"])
    @pytest.mark.parametrize("step_size", [1.0, 60.0])
    def test_bit_identical_to_reference_loop(self, family, step_size):
        g = np.random.default_rng(7)
        for _ in range(5):
            if family == "softmax":
                m = SoftmaxModel(3.0 * g.normal(size=12), Domain.of_size(12))
            else:
                dom = Domain.product(tuple("abcd"), ("u", "v", "w"))
                m = ConditionalSoftmaxModel(3.0 * g.normal(size=(4, 3)), dom)
            q = Dist.from_probs(g.dirichlet(np.full(12, 0.3)))
            want, halvings = self._reference_fit(m, q, 40, step_size)
            got = fit_to(m, q, steps=40, step_size=step_size)
            assert np.array_equal(got.theta, want.theta)
            # a step of 60 overshoots and must backtrack; a step of 1 need not
            assert halvings > 0 or step_size == 1.0

    def test_bad_args(self, rng):
        dom = Domain.of_size(3)
        m = SoftmaxModel.zeros(dom)
        with pytest.raises(ValueError):
            fit_to(m, Dist.uniform(3), steps=-1)
        with pytest.raises(ValueError):
            fit_to(m, Dist.uniform(3), step_size=0.0)
