import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sekit.core import AllNegInfinity, Dist, Domain, normalize_log
from sekit.experience import ExperienceFn
from sekit.models import (ConditionalSoftmaxModel, MixtureModel, SoftmaxModel,
                          exact_fit)
from sekit.solver import (PlanGap, SEConfig, Segment, Trace,
                          _decomposed_teacher, _same_parameters, _step,
                          _tilt_scores, mw_trajectory, mw_update, run,
                          schedule, teacher_closed_form)


def mk(raw):
    return Dist.from_probs(np.asarray(raw) / np.sum(raw))


class TestSEConfig:
    def test_mode_validation(self):
        for beta in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="beta"):
                SEConfig(beta=beta)
        for alpha in (-1.0, -1e-300, np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha"):
                SEConfig(alpha=alpha)
        with pytest.raises(ValueError):
            SEConfig(q_decomposition="fixed_x_marginals")


class TestClosedFormTeacher:
    def test_tilt_formula(self, rng):
        p = mk(rng.random(6) + 0.1)
        f = rng.normal(size=6)
        for alpha, beta in ((1.0, 1.0), (0.5, 2.0), (2.0, 1e-8)):
            q = teacher_closed_form(p, f, alpha, beta)
            target = np.exp((beta * p.logp + f) / alpha)
            target /= target.sum()
            assert np.max(np.abs(q.p - target)) <= 1e-12

    def test_beta_zero_drops_model_term(self, rng):
        # even where the model has zero mass
        p = Dist.from_probs(np.array([1.0, 0.0, 0.0]))
        f = np.array([0.0, 0.0, np.log(2.0)])
        q = teacher_closed_form(p, f, 1.0, 0.0)
        assert np.max(np.abs(q.p - np.array([0.25, 0.25, 0.5]))) <= 1e-12

    def test_alpha_zero_is_argmax_point_mass(self, rng):
        p = mk(np.array([1.0, 2.0, 3.0, 2.0]))
        f = np.array([0.0, 1.0, 1.0 - np.log(3.0 / 2.0), -5.0])
        q = teacher_closed_form(p, f, 0.0, 1.0)
        # scores for indices 1 and 2 tie; lowest index wins
        assert q.p[1] == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_all_neg_inf(self, alpha):
        p = Dist.from_probs(np.array([1.0, 0.0]))
        f = np.array([-np.inf, 0.0])
        with pytest.raises(AllNegInfinity):
            teacher_closed_form(p, f, alpha, 1.0)

    def test_tilt_matches_the_select_form_bit_for_bit(self):
        # the expression _tilt_scores replaced, kept here as the reference
        def reference(logp, f_vals, beta):
            if beta == 0:
                model_term = np.zeros_like(logp)
            else:
                model_term = np.where(np.isneginf(logp), -np.inf, beta * logp)
            return np.where(np.isneginf(f_vals) | np.isneginf(model_term), -np.inf,
                            model_term + np.where(np.isneginf(f_vals), 0.0, f_vals))

        g = np.random.default_rng(41)
        specials = np.array([-np.inf, 0.0, -0.0])
        for i in range(100):
            shape = [(10,), (1,), (5, 4)][i % 3]
            logp = g.normal(size=shape) * [1.0, 700.0][i % 2]
            f = g.normal(size=shape) * [1.0, 1e3, 1e-3][i % 3]
            for a in (logp, f):
                hit = g.random(shape) < 0.3
                a[hit] = g.choice(specials, size=int(hit.sum()))
            # nan is no valid experience value; beside a finite log p it must
            # propagate as it did
            f[(g.random(shape) < 0.1) & np.isfinite(logp)] = np.nan
            for beta in (0.0, 1e-8, 0.5, 1.0, 3.0):
                got, want = _tilt_scores(logp, f, beta), reference(logp, f, beta)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_negative_or_nan_alpha_raises(self):
        # a negative alpha would turn the tilt into an anti-tilt
        p = mk(np.array([0.2, 0.5, 0.3]))
        for alpha in (-1.0, -1e-300, np.nan):
            with pytest.raises(ValueError, match="alpha"):
                teacher_closed_form(p, np.zeros(3), alpha, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_alpha_or_beta_raises_on_a_hard_zero(self):
        # -inf / inf would be nan: the teacher names the weight instead
        p = mk(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="alpha"):
            teacher_closed_form(p, np.zeros(3), np.inf, 1.0)
        with pytest.raises(ValueError, match="beta"):
            teacher_closed_form(p, np.zeros(3), 1.0, np.inf)
        with pytest.raises(ValueError, match="beta"):
            _tilt_scores(p.logp, np.zeros(3), np.inf)

    def test_unit_weights_change_no_bit(self):
        # at alpha = beta = 1 the teacher skips 1 * log p and / 1
        g = np.random.default_rng(154)
        for _ in range(200):
            raw = g.random(9)
            raw[g.random(9) < 0.3] = 0.0
            raw[0] += 0.1
            p = mk(raw)
            f = g.normal(size=9) * 30.0
            f[g.random(9) < 0.2] = -np.inf
            f[0] = 0.0
            got = teacher_closed_form(p, f, 1.0, 1.0)
            want = normalize_log((1.0 * p.logp + f) / 1.0)
            for a, b in ((got.logp, want.logp), (got.p, want.p)):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_negative_beta_raises(self):
        # SEConfig rejects beta < 0; the teacher must not quietly tilt by it,
        # on the interior or where the model has a hard zero
        for p in (mk(np.array([0.2, 0.5, 0.3])), mk(np.array([0.5, 0.5, 0.0]))):
            for beta in (-0.5, np.nan):
                with pytest.raises(ValueError, match="beta"):
                    teacher_closed_form(p, np.zeros(3), 1.0, beta)

    def test_minimizes_objective(self, rng):
        # the closed form beats every point on a dense simplex grid
        p = mk(rng.random(3) + 0.1)
        f = rng.normal(size=3)
        q = teacher_closed_form(p, f, 1.0, 1.0)

        def objective(r):
            # -H(r) + CE(r, p) - E_r[f] at alpha = beta = 1, on the interior
            return float(r @ np.log(r) - r @ np.log(p.p) - r @ f)

        best = objective(q.p)
        g = np.linspace(0.01, 0.98, 15)
        for a in g:
            for b in g:
                if a + b >= 0.99:
                    continue
                assert objective(np.array([a, b, 1 - a - b])) >= best - 1e-12


class TestStudent:
    @staticmethod
    def _models(rng):
        flat = Domain.of_size(6)
        prod = Domain.product(("a", "b", "c"), ("u", "v"))
        return {
            "softmax": (SoftmaxModel(rng.normal(size=6), flat), flat),
            "conditional": (ConditionalSoftmaxModel(rng.normal(size=(3, 2)),
                                                    prod), prod),
            "mixture": (MixtureModel(rng.normal(size=2),
                                     rng.normal(size=(2, 3)), prod), prod),
        }

    @pytest.mark.parametrize("kind", ["softmax", "conditional", "mixture"])
    def test_step_installs_the_exact_fit(self, rng, kind):
        # every family's student is exact_fit of the step's teacher
        model, dom = self._models(rng)[kind]
        fn = ExperienceFn.from_vector(dom, rng.normal(size=6))
        cfg = SEConfig(alpha=0.7, beta=0.5, experience=fn)
        got, q, _ = _step(cfg, model, dom, np.full(3, 1 / 3), None, Trace(), 1)
        assert _same_parameters(got, exact_fit(model, q))
        assert not _same_parameters(got, model)


class TestDecomposedTeacher:
    @staticmethod
    def _mixture_zero_on_x2():
        # both components put zero mass on x = 2
        domain = Domain.product(("a", "b", "c"), ("k0", "k1"))
        comp = np.array([[0.0, 1.0, -np.inf], [2.0, 0.0, -np.inf]])
        return domain, MixtureModel(np.array([0.3, -0.2]), comp, domain)

    def test_zero_marginal_row_stays_neg_inf(self):
        # x = 2 is unobserved too: p_x is 0 there
        domain, model = self._mixture_zero_on_x2()
        p_x = np.array([0.4, 0.6, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = _decomposed_teacher(SEConfig(beta=1.0), model,
                                    np.zeros(domain.size), p_x, domain)
        log_q = q.logp.reshape(3, 2)
        assert np.all(np.isfinite(log_q[:2]))
        assert np.all(np.isneginf(log_q[2]))
        assert np.max(np.abs(q.p.reshape(3, 2).sum(axis=1) - p_x)) <= 1e-15

    def test_zero_model_marginal_on_observed_x_raises(self):
        domain, model = self._mixture_zero_on_x2()
        p_x = np.array([0.4, 0.3, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AllNegInfinity):
                _decomposed_teacher(SEConfig(beta=1.0), model,
                                    np.zeros(domain.size), p_x, domain)

    def test_zero_model_marginal_on_observed_x_beta_zero(self):
        # beta = 0 drops the model term, so the row is uniform over y
        domain, model = self._mixture_zero_on_x2()
        p_x = np.array([0.4, 0.3, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = _decomposed_teacher(SEConfig(beta=0.0), model,
                                    np.zeros(domain.size), p_x, domain)
        target = np.array([0.2, 0.2, 0.15, 0.15, 0.15, 0.15])
        assert np.max(np.abs(q.p - target)) <= 1e-15

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_observed_row_of_neg_inf_scores_raises(self, rng, alpha):
        domain = Domain.product(("a", "b", "c"), ("y0", "y1"))
        model = ConditionalSoftmaxModel(rng.normal(size=(3, 2)), domain)
        f = rng.normal(size=(3, 2))
        f[2] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AllNegInfinity):
                _decomposed_teacher(SEConfig(alpha=alpha, beta=1.0), model,
                                    f.ravel(), np.array([0.4, 0.3, 0.3]), domain)

    @staticmethod
    def _hard_zero_models(rng):
        """A mixture and a conditional model on 6 x 3 with hard zeros, and an
        f with -inf entries.  On x = 1 and x = 5 the model's support and f's
        are disjoint, so those rows are all -inf exactly when beta > 0; x = 3
        is all -inf but unobserved."""
        domain = Domain.product(tuple("abcdef"), ("k0", "k1", "k2"))
        comp = rng.normal(size=(3, 6))
        comp[:, 1] = -np.inf  # mixture marginal 0 at x = 1
        comp[[0, 2], 5] = -np.inf  # only component 1 reaches x = 5
        comp[0, 4] = comp[2, 0] = -np.inf
        mixture = MixtureModel(rng.normal(size=3), comp, domain)
        theta = rng.normal(size=(6, 3))
        theta[1, :2] = -np.inf
        theta[5, [0, 2]] = -np.inf
        theta[4, 0] = theta[0, 2] = -np.inf
        conditional = ConditionalSoftmaxModel(theta, domain)
        f = rng.normal(size=(6, 3))
        f[1, 2] = -np.inf  # disjoint from both models' support at x = 1
        f[5, 1] = -np.inf  # and at x = 5
        f[3] = -np.inf
        f[2, 0] = -np.inf
        p_x = np.array([0.2, 0.1, 0.25, 0.0, 0.3, 0.15])
        return domain, {"mixture": mixture, "conditional": conditional}, f, p_x

    @staticmethod
    def _rowwise_closed_form(log_cond, f, p_x, alpha, beta):
        """The reference: teacher_closed_form on each observed row."""
        ny = f.shape[1]
        joint = np.full(f.shape, -np.inf)
        for x in np.flatnonzero(p_x > 0):
            lc = log_cond[x]
            if np.all(np.isneginf(lc)):
                if beta > 0:
                    raise AllNegInfinity(f"observed x = {x}")
                lc = np.full(ny, -np.log(ny))  # beta = 0 ignores the model
            try:
                q = teacher_closed_form(Dist(lc), f[x], alpha, beta)
            except AllNegInfinity:
                raise AllNegInfinity(f"observed x = {x}") from None
            joint[x] = np.log(p_x[x]) + q.logp
        return joint.ravel()

    @pytest.mark.parametrize("unobserved", [(), (1,), (1, 5)])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["mixture", "conditional"])
    def test_matches_rowwise_closed_form(self, rng, kind, alpha, beta,
                                         unobserved):
        domain, models, f, p_x = self._hard_zero_models(rng)
        p_x[list(unobserved)] = 0.0
        p_x /= p_x.sum()
        model = models[kind]
        if kind == "mixture":
            lj = model.log_joint()
            with np.errstate(divide="ignore", invalid="ignore"):  # x = 1: log 0
                log_cond = lj - np.log(np.exp(lj).sum(axis=1, keepdims=True))
            log_cond[1] = -np.inf
        else:
            log_cond = model.log_probs()
        config = SEConfig(alpha=alpha, beta=beta)
        try:
            want = self._rowwise_closed_form(log_cond, f, p_x, alpha, beta)
        except AllNegInfinity as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(AllNegInfinity) as got:
                    _decomposed_teacher(config, model, f.ravel(), p_x, domain)
            assert str(got.value).endswith(str(exc))
            assert str(exc) == f"observed x = {1 if not unobserved else 5}"
            assert beta > 0 and len(unobserved) < 2
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = _decomposed_teacher(config, model, f.ravel(), p_x, domain)
        assert np.array_equal(np.isneginf(q.logp), np.isneginf(want))
        assert np.max(np.abs(q.p - np.exp(want))) <= 1e-12


class TestRunAndTrace:
    def test_trace_total_is_sum(self, toy_dataset, rng):
        from sekit.experience import f_data
        fn = f_data(toy_dataset)
        cfg = SEConfig(beta=1e-8, experience=fn, max_iters=10)
        _, trace = run(cfg, SoftmaxModel.zeros(fn.domain), fn.domain)
        for r in trace.records:
            assert r.total == pytest.approx(
                r.neg_alpha_h + r.beta_d + r.neg_e_q_f, abs=1e-9)

    def test_trace_csv_shape(self, toy_dataset):
        from sekit.experience import f_data
        fn = f_data(toy_dataset)
        cfg = SEConfig(beta=1e-8, experience=fn, max_iters=8)
        _, trace = run(cfg, SoftmaxModel.zeros(fn.domain), fn.domain,
                       reference=Dist.from_probs(toy_dataset.empirical()))
        csv = trace.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "iter,neg_alpha_H,beta_D,neg_Eqf,total,tv_to_ref,ms"
        assert all(line.split(",")[6] == "0.0" for line in lines[1:])

    def test_stops_on_flat_objective(self, toy_dataset):
        from sekit.experience import f_data
        fn = f_data(toy_dataset)
        cfg = SEConfig(beta=1e-8, experience=fn, max_iters=10000)
        _, trace = run(cfg, SoftmaxModel.zeros(fn.domain), fn.domain)
        assert trace.converged
        assert len(trace.records) < 100

    def test_stops_at_the_exact_fixed_point(self, toy_dataset):
        from sekit.experience import f_data
        fn = f_data(toy_dataset)
        cfg = SEConfig(beta=1e-8, experience=fn, max_iters=50)
        model, trace = run(cfg, SoftmaxModel.zeros(fn.domain), fn.domain)
        # sooner than five quiet objectives after the first could stop it
        assert trace.converged and len(trace.records) < 6
        again, _, _ = _step(cfg, model, fn.domain, None, None, Trace(), 0)
        assert np.array_equal(again.theta.view(np.uint64),
                              model.theta.view(np.uint64))

    def test_zero_objective_tol_keeps_the_full_count(self, toy_dataset):
        from sekit.experience import f_data
        fn = f_data(toy_dataset)
        cfg = SEConfig(beta=1e-8, experience=fn, max_iters=9, objective_tol=0.0)
        _, trace = run(cfg, SoftmaxModel.zeros(fn.domain), fn.domain)
        assert not trace.converged and len(trace.records) == 9

    def test_conditional_at_beta_zero_stops_at_the_fixed_point(self, rng):
        # at beta = 0 q ignores the model, so every teacher is the same bits
        # and the exact student installs the same logits from the second
        # step on
        dom = Domain.product(("a", "b", "c"), ("u", "v"))
        fn = ExperienceFn.from_vector(dom, rng.normal(size=6))
        cfg = SEConfig(beta=0.0, experience=fn, max_iters=50)
        seen = []
        model = ConditionalSoftmaxModel(np.zeros((3, 2)), dom)
        _, trace = run(cfg, model, dom, p_x=np.full(3, 1 / 3),
                       callback=lambda n, q, m: seen.append((q, m)))
        assert trace.converged and len(trace.records) == 2
        (q1, m1), (q2, m2) = seen
        assert np.array_equal(q1.logp.view(np.uint64), q2.logp.view(np.uint64))
        assert np.array_equal(m1.theta.view(np.uint64), m2.theta.view(np.uint64))
        want = np.exp(fn.values().reshape(3, 2))
        want /= want.sum(axis=1, keepdims=True)
        assert np.max(np.abs(m2.probs() - want)) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_softmax_at_half_beta_stops_on_the_objective(self, seed):
        # q = p^(1/2) e^f / Z halves the log-space distance to p* = e^(2f) / Z
        # each step, so theta never repeats bit for bit: the objective rule stops
        # the run once five changes fall below objective_tol
        rng = np.random.default_rng(seed)
        dom = Domain.of_size(8)
        fn = ExperienceFn.from_vector(dom, rng.normal(size=8))
        cfg = SEConfig(alpha=1.0, beta=0.5, experience=fn, max_iters=200)
        thetas = []
        model, trace = run(cfg, SoftmaxModel.zeros(dom), dom,
                           callback=lambda n, q, m: thetas.append(m.theta))
        n = len(trace.records)
        assert trace.converged and 6 < n < 200
        totals = [r.total for r in trace.records]
        assert all(abs(b - a) < cfg.objective_tol
                   for a, b in zip(totals[-6:], totals[-5:]))
        assert abs(totals[-7] - totals[-6]) >= cfg.objective_tol
        assert not np.array_equal(thetas[-2], thetas[-1])
        want = np.exp(2 * fn.values())
        assert model.dist().tv(Dist.from_probs(want / want.sum())) <= 1e-4


class TestMW:
    def test_update_rule(self, rng):
        p = Dist.uniform(4)
        r = rng.random(4)
        out = mw_update(p, r, 2.0)
        target = p.p * np.exp(r / 2.0)
        target /= target.sum()
        assert np.max(np.abs(out.p - target)) <= 1e-15

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mw_update(Dist.uniform(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            mw_update(Dist.uniform(3), np.array([np.inf, 0, 0]), 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_alpha_outside_zero_inf_raises(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            mw_trajectory(Dist.uniform(3), np.zeros((2, 3)), alpha)
        with pytest.raises(ValueError, match="alpha"):
            mw_update(Dist.uniform(3), np.zeros(3), alpha)

    @pytest.mark.parametrize("rewards", [np.zeros(3), np.zeros((2, 4)),
                                         np.zeros((2, 3, 1)),
                                         np.array([[0.0, np.nan, 0.0]])])
    def test_trajectory_rejects_bad_rewards(self, rewards):
        with pytest.raises(ValueError, match="rewards"):
            mw_trajectory(Dist.uniform(3), rewards, 1.0)

    def test_trajectory_rows_are_the_teacher_at_beta_zero(self, rng):
        # from a uniform start, Hedge's weights after round t are the
        # closed-form teacher at beta = 0 with f the cumulative reward
        R = rng.normal(size=(200, 6))
        alpha = 1.7
        logp = mw_trajectory(Dist.uniform(6), R, alpha)
        S = np.cumsum(R, axis=0)
        for t in range(len(R)):
            q = teacher_closed_form(Dist.uniform(6), S[t], alpha, 0.0)
            ulp = np.spacing(np.max(np.abs(S[t] / alpha)) + np.log(6))
            assert np.max(np.abs(logp[t] - q.logp)) <= 4 * ulp, t

    def test_update_is_the_one_row_trajectory_bit_for_bit(self, rng):
        w = Dist.from_probs(np.array([0.5, 0.0, 0.25, 0.25, 0.0]))
        for alpha in (0.3, 1.0, 2.0):
            r = rng.normal(size=5)
            out = mw_update(w, r, alpha)
            ref = Dist(mw_trajectory(w, r[None], alpha)[0])
            assert np.array_equal(out.logp.view(np.uint64), ref.logp.view(np.uint64))
            assert np.array_equal(out.p.view(np.uint64), ref.p.view(np.uint64))
            assert np.all(out.p[[1, 4]] == 0.0)

    def test_deviation_from_hedge_on_unit_scale_streams(self):
        """The log-space trajectory stays within 1e-13 of the round-by-round
        Hedge on reward streams in [0, 1) at the recipe's alpha.

        Error model: row t of the engine rounds the scores S_t / alpha once
        and normalises once, so log p_t, and hence p_t <= 1, carries an
        absolute error of about |S_t / alpha| * eps.  At the recipe's
        alpha = sqrt(T / (2 ln K)) that is at most sqrt(2 T ln K) * eps,
        about 1.4e-14 at T = 1000 and K = 8.  Hedge's product loses a
        relative eps per round, a random walk of about sqrt(T) * eps.  The
        1e-13 bound is tighter than every acceptance tolerance (1e-12).
        """
        from sekit import oracles
        from sekit.bundles import ProblemBundle
        from sekit.recipes import run_recipe
        g = np.random.default_rng(0)
        worst = 0.0
        for _ in range(40):
            T, K = int(g.integers(1, 1001)), int(g.integers(2, 9))
            R = g.random((T, K))
            res = run_recipe("multiplicative-weights", ProblemBundle(rewards=R))
            _, hist = oracles.hedge(np.full(K, 1.0 / K), R, res.extras["alpha"])
            worst = max(worst, float(np.max(np.abs(
                np.array(res.extras["history"]) - np.array(hist)))))
        assert worst <= 1e-13

    @given(arrays(np.float64, 5, elements=st.floats(0, 1)),
           st.floats(0.2, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_preserves_simplex(self, rewards, alpha):
        out = mw_update(Dist.uniform(5), rewards, alpha)
        assert abs(out.p.sum() - 1.0) <= 1e-9
        assert np.all(out.p >= 0)


class TestSchedule:
    def test_contiguity_enforced(self, toy_dataset):
        from sekit.experience import f_data
        fn = f_data(toy_dataset)
        base = SEConfig(beta=1e-8, experience=fn)
        model = SoftmaxModel.zeros(fn.domain)
        with pytest.raises(PlanGap):
            schedule(base, [Segment(1, 3), Segment(5, 7)], model, fn.domain)
        with pytest.raises(PlanGap):
            schedule(base, [], model, fn.domain)

    def test_runs_segments(self, toy_dataset):
        from sekit.experience import f_data
        fn = f_data(toy_dataset)
        base = SEConfig(beta=1e-8, experience=fn)
        model = SoftmaxModel.zeros(fn.domain)
        _, trace = schedule(base, [Segment(1, 3), Segment(4, 6, {"alpha": 0.5})],
                            model, fn.domain)
        assert [r.iteration for r in trace.records] == [1, 2, 3, 4, 5, 6]
        assert trace.records[0].tag == "1-3"
        assert trace.records[-1].tag == "4-6"
