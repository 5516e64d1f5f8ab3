"""The two teacher paths agree: `teacher_closed_form` applied to each observed
row of a conditional or mixture model, and the vectorised per-x
`_decomposed_teacher` that EM and posterior regularization run.

Hypothesis draws small models with hard zeros, an f with -inf entries, a
p_x with zero entries, alpha >= 0 and beta >= 0, each including 0.  Either
both paths raise AllNegInfinity at the same observed x, or they give the same
support and log-probabilities within C * scale * eps, where scale bounds
|score / alpha| and |log p_x| over the observed rows: exp's conditioning.  At
alpha = 0 both give the same point masses, bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sekit.core import AllNegInfinity, Dist, Domain
from sekit.models import ConditionalSoftmaxModel, MixtureModel
from sekit.solver import SEConfig, _decomposed_teacher, teacher_closed_form

C = 8
EPS = np.finfo(float).eps

entries = st.one_of(st.just(-np.inf), st.floats(-30, 30))
weights = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 10))
bad_weights = st.one_of(st.floats(max_value=-1e-300), st.just(np.inf),
                        st.just(np.nan))


def _matrix(draw, rows, cols):
    """rows x cols entries, finite or -inf."""
    return np.array(draw(st.lists(entries, min_size=rows * cols,
                                  max_size=rows * cols))).reshape(rows, cols)


def _with_a_finite_entry(m):
    """m with a 0 in the first column of every row that is all -inf."""
    m[np.isneginf(m).all(axis=1), 0] = 0.0
    return m


@st.composite
def problems(draw):
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    domain = Domain.product(tuple(f"x{i}" for i in range(nx)),
                            tuple(f"y{j}" for j in range(ny)))
    if draw(st.booleans()):
        # a mixture: x can get zero model marginal, when every component
        # that reaches it has zero weight or puts no mass there
        mix = _with_a_finite_entry(_matrix(draw, 1, ny))[0]
        comp = _with_a_finite_entry(_matrix(draw, ny, nx))
        model = MixtureModel(mix, comp, domain)
    else:
        model = ConditionalSoftmaxModel(
            _with_a_finite_entry(_matrix(draw, nx, ny)), domain)
    f = _matrix(draw, nx, ny)
    p_x = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1)),
                                 min_size=nx, max_size=nx)))
    if not p_x.any():
        p_x[0] = 1.0
    return domain, model, f, p_x / p_x.sum()


def _log_conditional(model, x):
    """log p(y | x), or None where the model puts no mass on x."""
    if isinstance(model, ConditionalSoftmaxModel):
        return model.log_probs()[x]
    log_marginal = model.log_marginal_x()[x]
    if log_marginal == -np.inf:
        return None
    return model.log_joint()[x] - log_marginal


def rowwise_teacher(model, f, p_x, alpha, beta):
    """teacher_closed_form on each observed row, and the error scale: the
    largest |score / alpha| and |log p_x| over the observed rows."""
    nx, ny = f.shape
    joint = np.full((nx, ny), -np.inf)
    scale = 1.0
    for x in np.flatnonzero(p_x > 0):
        lc = _log_conditional(model, x)
        if lc is None:
            if beta > 0:
                raise AllNegInfinity(f"observed x = {x}")
            lc = np.full(ny, -np.log(ny))  # beta = 0 ignores the model
        try:
            q = teacher_closed_form(Dist(lc), f[x], alpha, beta)
        except AllNegInfinity:
            raise AllNegInfinity(f"observed x = {x}") from None
        joint[x] = np.log(p_x[x]) + q.logp
        scores = (f[x] if beta == 0 else beta * lc + f[x]) / (alpha or 1.0)
        scale = max(scale, np.max(np.abs(scores[np.isfinite(scores)])),
                    abs(np.log(p_x[x])))
    return joint.ravel(), scale


@given(problems(), weights, weights)
@settings(max_examples=300, deadline=None)
def test_paths_agree(problem, alpha, beta):
    domain, model, f, p_x = problem
    config = SEConfig(alpha=alpha, beta=beta)
    try:
        want, scale = rowwise_teacher(model, f, p_x, alpha, beta)
    except AllNegInfinity as exc:
        with pytest.raises(AllNegInfinity) as got:
            _decomposed_teacher(config, model, f.ravel(), p_x, domain)
        assert str(got.value).endswith(str(exc))
        return
    got = _decomposed_teacher(config, model, f.ravel(), p_x, domain).logp
    support = ~np.isneginf(want)
    assert np.array_equal(~np.isneginf(got), support)
    if alpha == 0:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got[support] - want[support])) <= C * scale * EPS


@given(problems(), st.sampled_from(["alpha", "beta"]), bad_weights, weights)
@settings(max_examples=100, deadline=None)
def test_bad_weights_raise_in_both_paths(problem, name, bad, other):
    domain, model, f, p_x = problem
    alpha, beta = (bad, other) if name == "alpha" else (other, bad)
    # the per-x path reads its weights from an SEConfig, which cannot hold
    # a bad one
    with pytest.raises(ValueError, match=name):
        teacher_closed_form(Dist.uniform(f.size), f.ravel(), alpha, beta)
    with pytest.raises(ValueError, match=name):
        _decomposed_teacher(SEConfig(alpha=alpha, beta=beta), model,
                            f.ravel(), p_x, domain)
