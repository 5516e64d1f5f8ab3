import dataclasses

import numpy as np
import pytest

from sekit import models
from sekit.core import Dist, Domain, logsumexp
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


def _models(rng):
    flat = SoftmaxModel(rng.normal(size=6), Domain.of_size(6))
    cond = ConditionalSoftmaxModel(
        rng.normal(size=(3, 2)), Domain.product(("a", "b", "c"), ("u", "v")))
    mix = MixtureModel(rng.normal(size=2), rng.normal(size=(2, 4)),
                       Domain.product(tuple(f"x{i}" for i in range(4)),
                                      ("k0", "k1")))
    return {"softmax": flat, "conditional": cond, "mixture": mix}


class TestDerivedArrays:
    # (family, method) of every derived value a frozen model keeps
    CACHED = [("softmax", "log_probs"), ("softmax", "dist"),
              ("conditional", "log_probs"), ("conditional", "probs"),
              ("mixture", "log_joint"), ("mixture", "dist")]

    @pytest.mark.parametrize("family, method", CACHED)
    def test_computed_once(self, rng, family, method):
        m = _models(rng)[family]
        assert getattr(m, method)() is getattr(m, method)()

    @pytest.mark.parametrize("family, method", [c for c in CACHED
                                                if c[1] != "dist"])
    def test_cached_arrays_are_read_only(self, rng, family, method):
        arr = getattr(_models(rng)[family], method)()
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0

    @pytest.mark.parametrize("family", ["softmax", "mixture"])
    def test_dist_is_bit_equal_to_a_fresh_one(self, rng, family):
        m = _models(rng)[family]
        d = m.dist()
        fresh = Dist(m.log_probs())
        assert np.array_equal(d.logp.view(np.uint64), fresh.logp.view(np.uint64))
        assert np.array_equal(d.p.view(np.uint64), fresh.p.view(np.uint64))

    @pytest.mark.parametrize("family", ["softmax", "conditional"])
    def test_log_probs_are_the_log_softmax(self, rng, family):
        m = _models(rng)[family]
        m.log_probs()
        want = m.theta - logsumexp(m.theta, axis=-1, keepdims=True)
        assert np.array_equal(m.log_probs().view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("family", ["softmax", "conditional", "mixture"])
    def test_cache_is_not_a_parameter(self, rng, family):
        # fields, replace and the solver's fixed-point test see parameters only
        from sekit.solver import _same_parameters
        m = _models(rng)[family]
        names = [f.name for f in dataclasses.fields(m)]
        m.log_probs()
        if family != "conditional":
            m.dist()
        assert [f.name for f in dataclasses.fields(m)] == names
        copy = dataclasses.replace(m)
        assert _same_parameters(m, copy) and _same_parameters(copy, m)
        assert not copy.__dict__.keys() - set(names)

    def test_em_computes_each_log_joint_once(self, mixture_bundle, monkeypatch):
        # p_theta, the teacher's joint and its marginal share one log_joint:
        # two log-softmaxes (weights and components) per iteration
        calls = []
        original = models._log_softmax
        monkeypatch.setattr(models, "_log_softmax",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        from sekit.recipes import run_recipe
        run_recipe("unsupervised-mle", mixture_bundle, 0, iters=6)
        assert len(calls) == 2 * 6


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

    @staticmethod
    def _loop_before_hoisting(model, q, steps, step_size=1.0):
        """fit_to on a conditional model as it stood before q's support, q.p on
        it and q_x moved out of the step loop (copied, with the gradient and
        `Dist.expect` written out)."""
        def expect(values):
            mask = q.p > 0
            if (values[mask] == -np.inf).any():
                return -np.inf
            return float(q.p[mask] @ values[mask])

        def log_probs_of(m):
            return m.theta - logsumexp(m.theta, axis=1, keepdims=True)

        def grad_at(m, log_probs):
            nx, ny = m.domain.factor_sizes
            q_xy = q.p.reshape(nx, ny)
            q_x = q_xy.sum(axis=1)
            return q_xy - q_x[:, None] * np.exp(log_probs)

        current, log_probs = model, log_probs_of(model)
        obj = expect(log_probs.ravel())
        for _ in range(steps):
            grad = grad_at(current, log_probs)
            if not np.all(np.isfinite(grad)):
                raise NonFiniteGradient("gradient has non-finite entries")
            eta = step_size
            for _halving in range(30):
                candidate = current.with_theta(current.theta + eta * grad)
                new_log_probs = log_probs_of(candidate)
                new_obj = expect(new_log_probs.ravel())
                if new_obj >= obj:
                    break
                eta /= 2.0
            else:
                return current
            current, obj, log_probs = candidate, new_obj, new_log_probs
        return current

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("step_size", [1.0, 60.0])
    def test_conditional_fit_matches_the_loop_before_hoisting(self, seed,
                                                             step_size):
        # targets with zero-mass rows (q_x = 0) and zero cells in live rows
        g = np.random.default_rng(seed)
        nx, ny = 7, 4
        dom = Domain.product(tuple(f"x{i}" for i in range(nx)),
                             tuple(f"y{j}" for j in range(ny)))
        m = ConditionalSoftmaxModel(2.0 * g.normal(size=(nx, ny)), dom)
        q_xy = g.dirichlet(np.full(nx * ny, 0.5)).reshape(nx, ny)
        q_xy[g.choice(nx, 2, replace=False)] = 0.0
        q_xy[g.random((nx, ny)) < 0.2] = 0.0
        q = Dist.from_probs((q_xy / q_xy.sum()).ravel())
        want = self._loop_before_hoisting(m, q, 40, step_size)
        got = fit_to(m, q, steps=40, step_size=step_size)
        assert np.array_equal(got.theta.view(np.uint64),
                              want.theta.view(np.uint64))

    def test_bad_args(self, rng):
        dom = Domain.of_size(3)
        m = SoftmaxModel.zeros(dom)
        with pytest.raises(ValueError):
            fit_to(m, Dist.uniform(3), steps=-1)
        with pytest.raises(ValueError):
            fit_to(m, Dist.uniform(3), step_size=0.0)
