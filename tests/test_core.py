import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sekit.core import (AllNegInfinity, BoundaryPoint, Dist, Domain, entropy,
                        entropy_grad, logsumexp, normalize_log, safe_log)

finite_scores = arrays(np.float64, st.integers(2, 12),
                       elements=st.floats(-30, 30))


class TestDomain:
    def test_basic(self):
        dom = Domain(("a", "b", "c"))
        assert dom.size == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Domain(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Domain(())

    def test_product_indexing(self):
        dom = Domain.product(("x0", "x1", "x2"), ("y0", "y1"))
        assert dom.size == 6
        assert dom.factor_sizes == (3, 2)
        for x in range(3):
            for y in range(2):
                assert dom.unpair(dom.pair(x, y)) == (x, y)
        with pytest.raises(IndexError):
            dom.pair(3, 0)
        with pytest.raises(IndexError):
            dom.unpair(6)

    def test_product_mismatch(self):
        with pytest.raises(ValueError):
            Domain(("a", "b", "c"), (2, 2))

    def test_flat_domain_has_no_product_structure(self):
        with pytest.raises(ValueError):
            Domain.of_size(4).pair(0, 0)


class TestDist:
    def test_zero_mass_means_neg_inf(self):
        d = Dist.from_probs(np.array([0.5, 0.0, 0.5]))
        assert d.logp[1] == -np.inf
        assert d.p[1] == 0.0

    def test_sum_validation(self):
        with pytest.raises(ValueError):
            Dist.from_probs(np.array([0.5, 0.6]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Dist(np.array([0.0, 0.1]))  # exp > 1 total

    def test_immutable(self):
        d = Dist.uniform(3)
        with pytest.raises(AttributeError):
            d.p = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            d.p[0] = 2.0

    def test_point_mass(self):
        d = Dist.point_mass(4, 2)
        assert d.p[2] == 1.0
        assert np.all(d.p[[0, 1, 3]] == 0)

    def test_tv(self):
        a = Dist.from_probs(np.array([1.0, 0.0]))
        b = Dist.from_probs(np.array([0.0, 1.0]))
        assert a.tv(b) == 1.0
        assert a.tv(a) == 0.0

    def test_expect_zero_times_neg_inf(self):
        d = Dist.from_probs(np.array([0.5, 0.5, 0.0]))
        vals = np.array([1.0, 3.0, -np.inf])
        assert d.expect(vals) == 2.0

    def test_expect_neg_inf_on_support(self):
        d = Dist.from_probs(np.array([0.5, 0.5]))
        assert d.expect(np.array([-np.inf, 1.0])) == -np.inf


class TestNormalizeLog:
    def test_all_neg_inf(self):
        # an empty vector has no finite score either
        for scores in ([-np.inf, -np.inf], []):
            with pytest.raises(AllNegInfinity):
                normalize_log(np.array(scores))

    def test_nan_rejected(self):
        for scores in ([0.0, np.nan], [0.0, np.inf], [np.nan, np.inf]):
            with pytest.raises(ValueError):
                normalize_log(np.array(scores))

    def test_huge_scores_no_overflow(self):
        d = normalize_log(np.array([1e308, 1e308 - 1.0]))
        assert np.all(np.isfinite(d.p))
        assert abs(d.p.sum() - 1.0) <= 1e-9

    @given(finite_scores)
    @settings(max_examples=60, deadline=None)
    def test_simplex_invariant(self, scores):
        d = normalize_log(scores)
        assert np.all(d.p >= 0)
        assert abs(d.p.sum() - 1.0) <= 1e-9
        assert np.all(np.isneginf(d.logp) == (d.p == 0))

    @given(finite_scores, st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, scores, c):
        a = normalize_log(scores)
        b = normalize_log(scores + c)
        assert np.max(np.abs(a.p - b.p)) <= 1e-12

    def test_non_vector_rejected(self):
        for scores in (np.zeros((2, 3)), np.full((2, 2), -np.inf), np.float64(0.0)):
            with pytest.raises(ValueError, match="vector"):
                normalize_log(scores)

    def test_arrays_are_read_only_and_not_the_input(self):
        scores = np.array([0.5, -np.inf, 2.0])
        d = normalize_log(scores)
        for a in (d.logp, d.p):
            with pytest.raises(ValueError):
                a[0] = 0.0
        scores[0] = 9.0  # the caller's array is not the Dist's
        assert d.logp[0] < d.logp[2]

    @given(arrays(np.float64, st.integers(1, 12),
                  elements=st.one_of(st.floats(-700, 700), st.just(-np.inf))))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_validated_dist_bit_for_bit(self, scores):
        # the validating constructor on the same arithmetic is the reference
        if np.all(np.isneginf(scores)):
            with pytest.raises(AllNegInfinity):
                normalize_log(scores)
            return
        shifted = scores - np.max(scores)
        want = Dist(shifted - logsumexp(shifted))
        got = normalize_log(scores)
        for g, w in ((got.logp, want.logp), (got.p, want.p)):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def _lse_inputs():
    """Seeded draws with -inf entries, ties at the max, all -inf slices, a
    +inf entry, 1e5-vectors and a 2000-column matrix, over several shapes
    and magnitudes."""
    rng = np.random.default_rng(24)
    for i in range(600):
        shape = [(10,), (1,), (7, 4), (3, 1), (2, 3, 5)][i % 5]
        a = rng.normal(size=shape) * [1.0, 40.0, 800.0][i % 3]
        if i % 2:
            a[rng.random(shape) < 0.3] = -np.inf
        if i % 4 == 1:
            a = np.round(a)  # ties, including at the max
        if i % 7 == 0:
            a[..., 0] = -np.inf
            a[..., -1] = -np.inf
        if i % 11 == 0:
            a[...] = -np.inf
        if i % 13 == 0:
            a.flat[0] = np.inf
        yield a
    big = rng.normal(size=100_000) * 30.0
    big[::9] = -np.inf
    yield big
    yield big.reshape(100, 1000)
    yield np.round(rng.normal(size=100_000) * 3.0)  # n = 1e5 with ties
    wide = np.round(rng.normal(size=(6, 2000)) * 5.0)  # ties along axis 1
    wide[2] = -np.inf
    wide[4, ::3] = -np.inf
    yield wide


def test_logsumexp_matches_scipy_bit_for_bit():
    # scipy is the reference; the result and its type must be identical
    n = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in _lse_inputs():
            for axis in (None, -1, 0):
                for keepdims in (False, True):
                    want = scipy.special.logsumexp(a, axis=axis, keepdims=keepdims)
                    got = logsumexp(a, axis=axis, keepdims=keepdims)
                    assert type(got) is type(want)
                    assert np.shape(got) == np.shape(want)
                    assert np.array_equal(got, want), (a, axis, keepdims)
                    n += 1
    assert n == 604 * 6


def test_safe_log_matches_the_two_select_form_bit_for_bit():
    # the expression safe_log replaced, kept here as the reference
    def reference(x):
        with np.errstate(divide="ignore"):
            return np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)

    rng = np.random.default_rng(31)
    specials = np.array([0.0, -0.0, np.nan, -np.inf, np.inf, -1.0, 5e-324, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(200):
            shape = [(9,), (1,), (4, 6), (2, 3, 5), ()][i % 5]
            x = rng.exponential(size=shape) * [1e-300, 1.0, 1e300][i % 3]
            if x.ndim:
                hit = rng.random(shape) < 0.4
                x[hit] = rng.choice(specials, size=int(hit.sum()))
            got, want = safe_log(x), reference(x)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), x
    assert np.array_equal(safe_log(specials),
                          [-np.inf, -np.inf, -np.inf, -np.inf, np.inf, -np.inf,
                           np.log(5e-324), 0.0])


class TestEntropy:
    def test_uniform_is_log_n(self):
        assert entropy(Dist.uniform(8)) == pytest.approx(np.log(8), abs=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy(Dist.point_mass(5, 0)) == 0.0

    def test_grad_boundary(self):
        with pytest.raises(BoundaryPoint):
            entropy_grad(Dist.point_mass(3, 1))

    @given(arrays(np.float64, st.integers(2, 8), elements=st.floats(0.05, 1.0)))
    @settings(max_examples=40, deadline=None)
    def test_shannon_grad_finite_difference(self, raw):
        p = raw / raw.sum()
        q = Dist.from_probs(p)
        g = entropy_grad(q)
        eps = 1e-7
        for i in range(1, p.size):
            # move mass between coordinate 0 and i, staying on the simplex
            pp = p.copy(); pp[i] += eps; pp[0] -= eps
            pm = p.copy(); pm[i] -= eps; pm[0] += eps
            fd = (entropy(Dist.from_probs(pp / pp.sum())) -
                  entropy(Dist.from_probs(pm / pm.sum()))) / (2 * eps)
            assert g[i] - g[0] == pytest.approx(fd, abs=1e-5)
