import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sekit.core import AllNegInfinity, Dist, Domain, SHANNON, UncertaintyFn, entropy
from sekit.divergence import CE, JS, KL, divergence
from sekit.experience import ExperienceFn
from sekit.models import ConditionalSoftmaxModel, MixtureModel, SoftmaxModel
from sekit.solver import (ModeUnsupported, PlanGap, SEConfig, Segment, Trace,
                          _decomposed_teacher, mean_field_teacher, mw_update, run, schedule,
                          se_objective, sleep_phase_teacher, student_step,
                          teacher_closed_form, teacher_mirror_descent)


def mk(raw):
    return Dist.from_probs(np.asarray(raw) / np.sum(raw))


class TestSEConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SEConfig(teacher="magic")
        with pytest.raises(ValueError):
            SEConfig(student="magic")
        with pytest.raises(ValueError):
            SEConfig(beta=-0.1)

    def test_closed_form_needs_ce_shannon(self):
        with pytest.raises(ValueError):
            SEConfig(divergence=JS, teacher="closed_form")
        with pytest.raises(ValueError):
            SEConfig(uncertainty=UncertaintyFn("tsallis", 2.0),
                     teacher="closed_form")

    def test_importance_sampling_needs_equal_weights(self):
        with pytest.raises(ModeUnsupported):
            SEConfig(alpha=1.0, beta=0.5, student="importance_sampling")


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

    def test_all_neg_inf(self):
        p = Dist.from_probs(np.array([1.0, 0.0]))
        f = np.array([-np.inf, 0.0])
        with pytest.raises(AllNegInfinity):
            teacher_closed_form(p, f, 1.0, 1.0)

    def test_minimizes_objective(self, rng):
        # the closed form beats every point on a dense simplex grid
        p = mk(rng.random(3) + 0.1)
        f = rng.normal(size=3)
        q = teacher_closed_form(p, f, 1.0, 1.0)
        best = se_objective(q, p, f, 1.0, 1.0, CE, SHANNON)
        g = np.linspace(0.01, 0.98, 15)
        for a in g:
            for b in g:
                if a + b >= 0.99:
                    continue
                cand = Dist.from_probs(np.array([a, b, 1 - a - b]))
                assert se_objective(cand, p, f, 1.0, 1.0, CE, SHANNON) >= best - 1e-12


class TestMirrorDescentTeacher:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)])
    def test_matches_closed_form(self, rng, alpha, beta):
        p = mk(rng.random(8) + 0.1)
        f = rng.normal(size=8)
        cf = teacher_closed_form(p, f, alpha, beta)
        md = teacher_mirror_descent(p, f, alpha, beta, CE)
        assert cf.tv(md) <= 1e-6

    def test_respects_hard_zeros(self, rng):
        p = mk(rng.random(5) + 0.1)
        f = rng.normal(size=5)
        f[2] = -np.inf
        md = teacher_mirror_descent(p, f, 1.0, 1.0, CE)
        assert md.p[2] == 0.0
        cf = teacher_closed_form(p, f, 1.0, 1.0)
        assert cf.tv(md) <= 1e-6

    def test_js_divergence_improves(self, rng):
        p = mk(rng.random(5) + 0.1)
        f = rng.normal(size=5) * 0.5
        q = teacher_mirror_descent(p, f, 1.0, 1.0, JS)
        start = se_objective(Dist.uniform(5), p, f, 1.0, 1.0, JS, SHANNON)
        end = se_objective(q, p, f, 1.0, 1.0, JS, SHANNON)
        assert end <= start + 1e-12


class TestMeanField:
    def test_free_energy_monotone(self, rng):
        dom = Domain.product(tuple("abcd"), tuple("uvw"))
        p = mk(rng.random(12) + 0.05)
        f = rng.normal(size=12)
        qx, qy, energies = mean_field_teacher(p, f, dom, 1.0, 1.0)
        assert np.all(np.diff(energies) <= 1e-12)

    def test_factored_output(self, rng):
        dom = Domain.product(tuple("ab"), tuple("uv"))
        p = mk(rng.random(4) + 0.1)
        f = rng.normal(size=4)
        qx, qy, _ = mean_field_teacher(p, f, dom, 1.0, 1.0)
        assert abs(qx.p.sum() - 1) <= 1e-9 and abs(qy.p.sum() - 1) <= 1e-9

    def test_at_least_as_good_as_no_experience_start(self, rng):
        # inner approximation: final free energy <= uniform product energy
        dom = Domain.product(tuple("abc"), tuple("uv"))
        p = mk(rng.random(6) + 0.1)
        f = rng.normal(size=6)
        _, _, energies = mean_field_teacher(p, f, dom, 1.0, 1.0)
        assert energies[-1] <= energies[0] + 1e-12

    def test_alpha_validation(self, rng):
        dom = Domain.product(tuple("ab"), tuple("uv"))
        with pytest.raises(ValueError):
            mean_field_teacher(Dist.uniform(4), np.zeros(4), dom, 0.0, 1.0)


class TestSleepPhase:
    def test_full_family_reaches_posterior(self, rng):
        dom = Domain.product(tuple(f"x{i}" for i in range(4)), ("k0", "k1"))
        m = MixtureModel(rng.normal(size=2), rng.normal(size=(2, 4)), dom)
        p_x = rng.dirichlet(np.ones(4))
        q0 = ConditionalSoftmaxModel.zeros(dom)
        q, kl_val = sleep_phase_teacher(m, p_x, q0, steps=400)
        assert kl_val <= 1e-8

    def test_restriction_nesting(self, rng):
        dom = Domain.product(tuple(f"x{i}" for i in range(4)), ("k0", "k1"))
        m = MixtureModel(rng.normal(size=2), rng.normal(size=(2, 4)), dom)
        p_x = rng.dirichlet(np.ones(4))
        q0 = ConditionalSoftmaxModel.zeros(dom)
        _, kl_full = sleep_phase_teacher(m, p_x, q0, steps=400)
        _, kl_shared = sleep_phase_teacher(m, p_x, q0, steps=400,
                                           restriction="shared")
        _, kl_unif = sleep_phase_teacher(m, p_x, q0, restriction="uniform")
        assert kl_full <= kl_shared + 1e-10
        assert kl_shared <= kl_unif + 1e-10


class TestStudent:
    def test_exact(self, rng):
        dom = Domain.of_size(5)
        q = mk(rng.random(5) + 0.1)
        m = student_step(q, SoftmaxModel.zeros(dom), SEConfig(student="exact"))
        assert m.dist().tv(q) <= 1e-12

    def test_importance_sampling_approximates_exact(self, rng):
        dom = Domain.of_size(5)
        f = rng.normal(size=5)
        model = SoftmaxModel(rng.normal(size=5) * 0.2, dom)
        cfg = SEConfig(student="importance_sampling", alpha=1.0, beta=1.0,
                       is_samples=400_000, student_step_size=1.0, seed=7)
        stepped = student_step(q=None or teacher_closed_form(model.dist(), f, 1, 1),
                               model=model, config=cfg,
                               rng=np.random.default_rng(7), f_vals=f)
        q = teacher_closed_form(model.dist(), f, 1.0, 1.0)
        exact_grad = q.p - model.dist().p
        # the IS update moved theta along approximately the exact gradient
        moved = stepped.theta - model.theta
        assert np.max(np.abs(moved - exact_grad)) <= 5e-3

    def test_importance_sampling_mode_guard(self, rng):
        dom = Domain.of_size(4)
        cfg = SEConfig(student="importance_sampling", alpha=2.0, beta=2.0)
        object.__setattr__(cfg, "beta", 1.0)  # sneak past the constructor
        with pytest.raises(ModeUnsupported):
            student_step(Dist.uniform(4), SoftmaxModel.zeros(dom), cfg,
                         rng=np.random.default_rng(0), f_vals=np.zeros(4))


class TestDecomposedTeacher:
    def test_zero_marginal_row_stays_neg_inf(self):
        # both components put zero mass on x = 2, where p_x is also 0
        domain = Domain.product(("a", "b", "c"), ("k0", "k1"))
        comp = np.array([[0.0, 1.0, -np.inf], [2.0, 0.0, -np.inf]])
        model = MixtureModel(np.array([0.3, -0.2]), comp, domain)
        p_x = np.array([0.4, 0.6, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = _decomposed_teacher(SEConfig(beta=1.0), model,
                                    np.zeros(domain.size), p_x, domain)
        log_q = q.logp.reshape(3, 2)
        assert np.all(np.isfinite(log_q[:2]))
        assert np.all(np.isneginf(log_q[2]))
        assert np.max(np.abs(q.p.reshape(3, 2).sum(axis=1) - p_x)) <= 1e-15


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
