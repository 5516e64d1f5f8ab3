import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sekit.core import BoundaryPoint, Dist, entropy, normalize_log
from sekit.divergence import (CE, DivergenceFn, JS, KL, NonConvergence,
                              SupportViolation, cross_entropy, divergence,
                              divergence_grad_q, influence_function, js, kl,
                              w1)
from sekit.oracles import brute_force_w1
from sekit.solver import teacher_closed_form

positive = arrays(np.float64, 6, elements=st.floats(0.05, 1.0))


def mk(raw):
    return Dist.from_probs(np.asarray(raw) / np.sum(raw))


class TestValues:
    def test_ce_decomposition(self, rng):
        q = mk(rng.random(6) + 0.1)
        p = mk(rng.random(6) + 0.1)
        assert cross_entropy(q, p) == pytest.approx(entropy(q) + kl(q, p), abs=1e-12)

    def test_kl_zero_iff_equal(self, rng):
        q = mk(rng.random(6) + 0.1)
        assert kl(q, q) == pytest.approx(0.0, abs=1e-14)

    def test_kl_support_violation_is_inf(self):
        q = Dist.from_probs(np.array([0.5, 0.5]))
        p = Dist.from_probs(np.array([1.0, 0.0]))
        assert kl(q, p) == np.inf
        assert cross_entropy(q, p) == np.inf

    def test_js_bounded_by_log2(self):
        q = Dist.from_probs(np.array([1.0, 0.0]))
        p = Dist.from_probs(np.array([0.0, 1.0]))
        assert js(q, p) == pytest.approx(np.log(2), abs=1e-12)

    def test_w1_matches_transport_lp(self, rng):
        for _ in range(5):
            q = rng.dirichlet(np.ones(6))
            p = rng.dirichlet(np.ones(6))
            coords = np.sort(rng.random(6)) * 5
            coords += np.arange(6) * 1e-3  # strictly increasing
            mine = w1(Dist.from_probs(q), Dist.from_probs(p), coords)
            exact = brute_force_w1(q, p, coords)
            assert mine == pytest.approx(exact, abs=1e-9)

    def test_bad_coords(self):
        with pytest.raises(ValueError):
            DivergenceFn("w1", np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            DivergenceFn("frechet")

    @given(positive, positive)
    @settings(max_examples=40, deadline=None)
    def test_js_symmetry(self, a, b):
        q, p = mk(a), mk(b)
        assert js(q, p) == pytest.approx(js(p, q), abs=1e-12)

    @given(positive, positive, positive)
    @settings(max_examples=40, deadline=None)
    def test_w1_metric_properties(self, a, b, c):
        q, p, r = mk(a), mk(b), mk(c)
        coords = np.arange(6, dtype=float)
        assert w1(q, p, coords) == pytest.approx(w1(p, q, coords), abs=1e-9)
        assert w1(q, r, coords) <= w1(q, p, coords) + w1(p, r, coords) + 1e-9
        assert w1(q, q, coords) <= 1e-12

    @given(positive, positive, st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_entropy_ce_rearrangement(self, a, b, alpha, beta):
        # -alpha H(q) + beta CE(q, p) = (beta - alpha) CE(q, p) + alpha KL(q || p)
        q, p = mk(a), mk(b)
        lhs = -alpha * entropy(q) + beta * cross_entropy(q, p)
        rhs = (beta - alpha) * cross_entropy(q, p) + alpha * kl(q, p)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestGradients:
    def directional_fd(self, fn, p, i, j=0, eps=1e-7):
        pp = p.copy(); pp[i] += eps; pp[j] -= eps
        pm = p.copy(); pm[i] -= eps; pm[j] += eps
        return (fn(Dist.from_probs(pp / pp.sum())) -
                fn(Dist.from_probs(pm / pm.sum()))) / (2 * eps)

    @pytest.mark.parametrize("kind", ["ce", "kl", "js", "w1"])
    def test_matches_finite_differences(self, kind, rng):
        div = DivergenceFn(kind)
        p = mk(rng.random(6) + 0.2)
        q_raw = rng.random(6) + 0.2
        q = mk(q_raw)
        g = divergence_grad_q(div, q, p)
        for i in range(1, 6):
            fd = self.directional_fd(lambda d: divergence(div, d, p), q.p, i)
            assert g[i] - g[0] == pytest.approx(fd, abs=3e-5)

    def test_boundary_raises(self):
        q = Dist.from_probs(np.array([1.0, 0.0]))
        p = Dist.uniform(2)
        with pytest.raises(BoundaryPoint):
            divergence_grad_q(KL, q, p)

    def test_support_violation(self):
        q = Dist.uniform(2)
        p = Dist.from_probs(np.array([1.0, 0.0]))
        with pytest.raises(SupportViolation):
            divergence_grad_q(KL, q, p)
        with pytest.raises(SupportViolation):
            divergence_grad_q(CE, q, p)


class TestInfluence:
    def test_ce_is_analytic(self, rng):
        p_d = mk(rng.random(8) + 0.1)
        q = mk(rng.random(8) + 0.1)
        inf = influence_function("ce", p_d, q)
        target = -p_d.logp
        target = target - target.mean()
        assert np.max(np.abs(inf.psi - target)) <= 1e-14
        assert inf.iterations == 0

    def test_kl_matches_analytic(self, rng):
        p_d = mk(rng.random(8) + 0.1)
        q = mk(rng.random(8) + 0.1)
        inf = influence_function("kl", p_d, q)
        target = np.log(q.p / p_d.p) + 1.0
        target = target - target.mean()
        assert np.max(np.abs(inf.psi - target)) <= 1e-4

    def test_js_matches_analytic(self, rng):
        p_d = mk(rng.random(8) + 0.1)
        q = mk(rng.random(8) + 0.1)
        inf = influence_function("js", p_d, q)
        target = 0.5 * np.log(2 * q.p / (q.p + p_d.p))
        target = target - target.mean()
        assert np.max(np.abs(inf.psi - target)) <= 1e-4

    def test_mean_centered(self, rng):
        p_d = mk(rng.random(8) + 0.1)
        q = mk(rng.random(8) + 0.1)
        for kind in ("ce", "kl", "js"):
            inf = influence_function(kind, p_d, q)
            assert abs(inf.psi.mean()) <= 1e-12

    def test_nonconvergence_carries_diagnostics(self, rng):
        p_d = mk(rng.random(8) + 0.1)
        q = mk(rng.random(8) + 0.1)
        with pytest.raises(NonConvergence) as exc:
            influence_function("js", p_d, q, max_iters=2, tol=1e-14)
        assert exc.value.iterations == 2
        assert exc.value.residual > 0
        assert exc.value.psi is not None

    def test_kl_support_violation(self):
        p_d = Dist.from_probs(np.array([1.0, 0.0]))
        q = Dist.uniform(2)
        with pytest.raises(SupportViolation):
            influence_function("kl", p_d, q)

    def test_pfd_descends_kl(self, rng):
        # a PFD step q exp(-psi) / Z is the teacher at alpha = beta = 1
        p_d = mk(rng.random(10) + 0.1)
        cur = mk(rng.random(10) + 0.1)
        prev = kl(cur, p_d)
        for _ in range(10):
            psi = influence_function("kl", p_d, cur, tol=1e-8)
            cur = teacher_closed_form(cur, -psi.psi, 1.0, 1.0)
            val = kl(cur, p_d)
            assert val <= prev + 1e-10
            prev = val
        assert cur.tv(p_d) <= 1e-6

    def test_pfd_is_the_teacher_bit_for_bit(self):
        # the PFD step the GAN loop took before it went through the teacher,
        # kept here as the reference
        def reference(q, psi, eta):
            return normalize_log(q.logp - eta * psi)

        g = np.random.default_rng(53)
        for i in range(1000):
            n = int(g.integers(1, 16))
            logp = g.normal(size=n) * [1.0, 30.0][i % 2]
            logp[g.random(n) < 0.3] = -np.inf
            logp[g.integers(n)] = 0.0  # keep one point of mass
            q = normalize_log(logp)
            psi = g.normal(size=n) * [1e-3, 1.0, 50.0][i % 3]
            eta = float(g.choice([0.5, 1.0, 1e-6, 1e4])) * g.random()
            got = teacher_closed_form(q, -eta * psi, 1.0, 1.0)
            want = reference(q, psi, eta)
            assert np.array_equal(got.logp.view(np.int64), want.logp.view(np.int64))
            assert np.array_equal(got.p.view(np.int64), want.p.view(np.int64))
