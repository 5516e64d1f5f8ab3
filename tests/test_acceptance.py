"""Acceptance gate: thirteen end-to-end criteria, each printing one pass line.

Every criterion compares the engine against an independently coded oracle or
an analytic closed form at a pinned tolerance.
"""
import itertools
import json
import time

import numpy as np
import pytest
from scipy.special import logsumexp

import sekit.oracles as oracles
from sekit.adversarial import (Discriminator, discriminator_gradient,
                               discriminator_objective,
                               reweighted_discriminator_gradient, tilted_q)
from sekit.bundles import ProblemBundle
from sekit.core import Dist, Domain, entropy, entropy_grad
from sekit.divergence import (CE, DivergenceFn, JS, KL, divergence,
                              divergence_grad_q, influence_function, w1)
from sekit.experience import Atom, Dataset, Not, Or, StrongAnd, f_data_augmented, raml_kernel
from sekit.mdp import TabularMDP
from sekit.models import (ConditionalSoftmaxModel, SoftmaxModel,
                          grad_expected_log_prob)
from sekit.oracles import finite_difference_gradient, gan_optimum
from sekit.recipes import check_equivalence, run_recipe
from sekit.solver import mw_update, teacher_closed_form


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_01_supervised_mle_reduction():
    """Final model equals the empirical distribution within TV 1e-6."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for n in (3, 17, 64):
        dom = Domain.of_size(n)
        counts = rng.integers(0, 12, n).astype(float)
        counts[rng.integers(n)] += 1  # never empty
        b = ProblemBundle(dataset=Dataset(dom, counts))
        rep = check_equivalence("supervised-mle", "direct-mle", b, 1e-6)
        worst = max(worst, rep["max_deviation"])
    elapsed = time.time() - t0
    report("1 supervised-MLE reduces to the empirical distribution",
           worst <= 1e-6 and elapsed < 1.0,
           f"worst TV {worst:.2e}, {elapsed:.2f}s")


def test_02_em_equivalence():
    """Per-iteration match with hand-coded EM to 1e-10; NLL non-increasing."""
    t0 = time.time()
    dom = Domain.of_size(5, "s")
    counts = np.array([12.0, 8.0, 15.0, 5.0, 10.0])  # 50 observations
    b = ProblemBundle(dataset=Dataset(dom, counts), n_components=2)
    rep = check_equivalence("unsupervised-mle", "hand-em", b, 1e-10, seed=3,
                            iters=20)
    elapsed = time.time() - t0
    report("2 EM equivalence (20 iterations, 2 components, 5 symbols)",
           rep["passed"] and rep["details"]["nll_monotone"] and elapsed < 1.0,
           f"max dev {rep['max_deviation']:.2e}, {elapsed:.2f}s")


def test_03_policy_gradient_equivalence(small_mdp):
    """Student gradient parallel to the exact policy gradient, ratio 1/Z."""
    t0 = time.time()
    b = ProblemBundle(mdp=small_mdp)
    rep = check_equivalence("policy-gradient", "exact-pg", b, 1e-8, seed=5)
    elapsed = time.time() - t0
    report("3 policy-gradient parallelism with scale 1/Z",
           rep["passed"] and rep["details"]["cosine"] >= 1 - 1e-8
           and rep["details"]["ratio_max_rel"] <= 1e-8 and elapsed < 1.0,
           f"cosine {rep['details']['cosine']:.12f}, "
           f"ratio dev {rep['details']['ratio_max_rel']:.2e}, {elapsed:.2f}s")


def test_04_rl_as_inference_teacher(small_mdp):
    """Teacher equals p exp(Q/rho)/Z within 1e-12 for rho in {0.1, 1, 10}."""
    b = ProblemBundle(mdp=small_mdp)
    rep = check_equivalence("rl-as-inference", "enumeration", b, 1e-12, seed=5)
    report("4 RL-as-inference exponentiated-Q teacher (rho = 0.1, 1, 10)",
           rep["passed"], f"max dev {rep['max_deviation']:.2e}")


def test_05_multiplicative_weights():
    """Identical trajectory to Hedge over T=1000, K=8, plus the regret bound."""
    t0 = time.time()
    rng = np.random.default_rng(55)
    T, K = 1000, 8
    rewards = rng.random((T, K))  # adversarial-scale rewards in [0, 1]
    alpha = float(np.sqrt(T / (2.0 * np.log(K))))
    b = ProblemBundle(rewards=rewards)
    rep = check_equivalence("multiplicative-weights", "hedge", b, 1e-12)
    res = run_recipe("multiplicative-weights", b)
    regret = oracles.external_regret(np.full(K, 1.0 / K), rewards,
                                     res.extras["history"])
    bound = np.sqrt(T * np.log(K) / 2.0) + 1.0
    elapsed = time.time() - t0
    report("5 multiplicative-weights matches Hedge; regret within bound",
           rep["passed"] and regret <= bound and elapsed < 1.0,
           f"traj dev {rep['max_deviation']:.2e}, regret {regret:.2f} "
           f"<= {bound:.2f}, {elapsed:.2f}s")


def test_06_gan_optimum(gan_target):
    """TV <= 1e-3 within 5000 iterations; sigma = p_d/(p_d + p_theta) to 1e-4."""
    t0 = time.time()
    b = ProblemBundle(p_data=gan_target)
    rep = check_equivalence("vanilla-gan", "gan-optimum", b, 1e-3, seed=1,
                            iters=5000)
    elapsed = time.time() - t0
    d = rep["details"]
    report("6 vanilla-GAN convergence and classifier optimum",
           d["final_tv"] <= 1e-3 and d["sigma_max_abs"] <= 1e-4
           and elapsed < 30.0,
           f"TV {d['final_tv']:.2e}, sigma dev {d['sigma_max_abs']:.2e}, "
           f"{elapsed:.1f}s")


def test_07_reweighted_discriminator_identity():
    """Reweighted gradient equals the explicit-tilt gradient, 100 instances."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 12))
        model = SoftmaxModel(rng.normal(size=n), Domain.of_size(n))
        disc = Discriminator(rng.normal(size=n), "classifier")
        p_d = Dist.from_probs(rng.dirichlet(np.ones(n)))
        g1 = reweighted_discriminator_gradient(disc, p_d, model.dist())
        g2 = discriminator_gradient(disc, p_d, tilted_q(model, disc),
                                    "separation")
        worst = max(worst, float(np.max(np.abs(g1 - g2))))
    report("7 importance-reweighted discriminator gradient identity",
           worst <= 1e-10, f"worst dev {worst:.2e} over 100 instances")


def test_08_wgan_and_w1_properties(gan_target):
    """Critic objective within 10% of exact W1; W1 metric properties to 1e-9."""
    b = ProblemBundle(p_data=gan_target)
    rep = check_equivalence("wgan", "brute-w1", b, 0.10, seed=1)
    rng = np.random.default_rng(88)
    coords = np.arange(10, dtype=float)
    metric_ok = True
    for _ in range(20):
        q = Dist.from_probs(rng.dirichlet(np.ones(10)))
        p = Dist.from_probs(rng.dirichlet(np.ones(10)))
        r = Dist.from_probs(rng.dirichlet(np.ones(10)))
        metric_ok &= abs(w1(q, p, coords) - w1(p, q, coords)) <= 1e-9
        metric_ok &= w1(q, r, coords) <= w1(q, p, coords) + w1(p, r, coords) + 1e-9
        metric_ok &= w1(q, q, coords) <= 1e-9
    report("8 WGAN critic objective vs exact W1; W1 metric properties",
           rep["passed"] and metric_ok,
           f"rel dev {rep['max_deviation']:.2e}")


def test_09_soft_logic():
    """Boolean truth tables exact; the worked fractional values hold."""
    ok = True
    for va, vb in itertools.product([0.0, 1.0], repeat=2):
        atoms = {"A": np.array([va]), "B": np.array([vb])}
        ok &= StrongAnd(Atom("A"), Atom("B")).evaluate(atoms, 1)[0] == float(va and vb)
        ok &= Or(Atom("A"), Atom("B")).evaluate(atoms, 1)[0] == float(va or vb)
        ok &= Not(Atom("A")).evaluate(atoms, 1)[0] == float(not va)
    atoms = {"A": np.array([0.7]), "B": np.array([0.6])}
    and_val = StrongAnd(Atom("A"), Atom("B")).evaluate(atoms, 1)[0]
    or_val = Or(Atom("A"), Atom("B")).evaluate(atoms, 1)[0]
    ok &= abs(and_val - 0.3) <= 1e-15 and or_val == 1.0
    report("9 soft logic truth tables and worked values",
           ok, f"A&B(0.7,0.6)={and_val}, A|B(0.7,0.6)={or_val}")


def test_10_raml_teacher():
    """With kernel exp(R) the teacher is the exponentiated-payoff mixture."""
    rng = np.random.default_rng(110)
    dom = Domain.of_size(7)
    counts = rng.integers(1, 9, 7).astype(float)
    b = ProblemBundle(dataset=Dataset(dom, counts),
                      payoff=rng.normal(size=(7, 7)))
    rep = check_equivalence("data-augmentation", "enumeration", b, 1e-12)
    report("10 exponentiated-payoff augmentation teacher by enumeration",
           rep["passed"], f"max dev {rep['max_deviation']:.2e}")


def test_11_influence_functions_and_pfd():
    """KL/JS influence match analytic forms to 1e-4; PFD reaches TV 1e-6."""
    rng = np.random.default_rng(111)
    p_d = Dist.from_probs(rng.dirichlet(np.ones(10) * 2))
    q = Dist.from_probs(rng.dirichlet(np.ones(10) * 2))
    inf_kl = influence_function("kl", p_d, q)
    ana = np.log(q.p / p_d.p) + 1.0
    kl_dev = float(np.max(np.abs(inf_kl.psi - (ana - ana.mean()))))
    inf_js = influence_function("js", p_d, q)
    ana = 0.5 * np.log(2 * q.p / (q.p + p_d.p))
    js_dev = float(np.max(np.abs(inf_js.psi - (ana - ana.mean()))))
    cur = q
    steps_used = 500
    for step in range(500):
        psi = influence_function("kl", p_d, cur, tol=1e-8)
        cur = teacher_closed_form(cur, -psi.psi, 1.0, 1.0)  # one PFD step
        if cur.tv(p_d) <= 1e-6:
            steps_used = step + 1
            break
    report("11 influence functions analytic match; descent drives q to p_d",
           kl_dev <= 1e-4 and js_dev <= 1e-4 and cur.tv(p_d) <= 1e-6,
           f"KL dev {kl_dev:.2e}, JS dev {js_dev:.2e}, "
           f"TV {cur.tv(p_d):.2e} in {steps_used} steps")


def test_12_gradient_hygiene():
    """All analytic gradients match central finite differences, 50 points each."""
    rng = np.random.default_rng(112)
    worst = 0.0

    def rel(a, b):
        return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))

    def simplex_fd(fn, p):
        # directional derivatives along (e_i - e_0)
        out = np.zeros(p.size - 1)
        eps = 1e-7
        for i in range(1, p.size):
            pp = p.copy(); pp[i] += eps; pp[0] -= eps
            pm = p.copy(); pm[i] -= eps; pm[0] += eps
            out[i - 1] = (fn(Dist.from_probs(pp / pp.sum())) -
                          fn(Dist.from_probs(pm / pm.sum()))) / (2 * eps)
        return out

    for _ in range(50):
        n = int(rng.integers(3, 9))
        q = Dist.from_probs(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        p = Dist.from_probs(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        # entropy
        g = entropy_grad(q)
        worst = max(worst, rel(g[1:] - g[0], simplex_fd(lambda d: entropy(d), q.p)))
        # divergences
        for div in (CE, KL, JS, DivergenceFn("w1")):
            g = divergence_grad_q(div, q, p)
            fd = simplex_fd(lambda d: divergence(div, d, p), q.p)
            worst = max(worst, rel(g[1:] - g[0], fd))
        # model gradient
        dom = Domain.of_size(n)
        theta = rng.normal(size=n)
        g = grad_expected_log_prob(SoftmaxModel(theta, dom), q)
        fd = finite_difference_gradient(
            lambda t: q.expect(SoftmaxModel(t, dom).log_probs()), theta)
        worst = max(worst, rel(g, fd))
        # discriminator gradient
        phi = rng.normal(size=n)
        d = Discriminator(phi, "classifier")
        g = discriminator_gradient(d, p, q, "classification")
        fd = finite_difference_gradient(
            lambda ph: discriminator_objective(Discriminator(ph, "classifier"),
                                               p, q, "classification"), phi)
        worst = max(worst, rel(g, fd))
    report("12 gradient hygiene vs central finite differences",
           worst <= 1e-5, f"worst relative dev {worst:.2e} over 50 points")


def test_13_determinism(tmp_path):
    """(config, seed) produces byte-identical traces on repeated runs."""
    from sekit.cli import main
    bundle = {"dataset": {"labels": [f"t{i}" for i in range(6)],
                          "counts": [3, 0, 5, 1, 7, 2]}}
    (tmp_path / "toy.json").write_text(json.dumps(bundle))
    ok = True
    for recipe in ("supervised-mle",):
        cfg = {"recipe": recipe, "problem": "toy.json", "seed": 11}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{recipe}-{tag}"
            assert main(["run", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(out)]) == 0
            outs.append(out)
        for name in ("trace.csv", "trace.json", "final_model.json"):
            ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # in-process determinism of a stochastic-looking path (seeded generator)
    g = np.random.default_rng(0)
    rewards = g.random((100, 4))
    b = ProblemBundle(rewards=rewards)
    h1 = run_recipe("multiplicative-weights", b, seed=0).extras["history"]
    h2 = run_recipe("multiplicative-weights", b, seed=0).extras["history"]
    ok &= all(np.array_equal(x, y) for x, y in zip(h1, h2))
    report("13 byte-identical traces for identical (config, seed)", ok)
