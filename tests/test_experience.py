import itertools

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sekit.core import Domain
from sekit.experience import (AllZeroWeights, Atom, AtomOutOfRange, Avg, Const,
                              Dataset, DegenerateKernel, DomainMismatch,
                              EmptyCombination, EmptyDataset, ExperienceFn,
                              Implies, Not, Or, SplitOutOfRange, StrongAnd,
                              combine, eval_soft_logic, f_active, f_data,
                              f_data_augmented, f_data_raml, f_data_self,
                              f_data_weighted, f_model_mimic, f_rule,
                              parse_rule, raml_kernel, selection_distribution)
from sekit.models import ConditionalSoftmaxModel

unit = st.floats(0.0, 1.0)


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            Dataset(Domain.of_size(3), np.zeros(3))

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError):
            Dataset(Domain.of_size(2), np.array([1.5, 1.0]))


class TestDataExperience:
    def test_f_data_values(self, toy_dataset):
        f = f_data(toy_dataset)
        v = f.values()
        emp = toy_dataset.empirical()
        assert v[1] == -np.inf  # unobserved configuration
        assert v[0] == pytest.approx(np.log(emp[0]), abs=1e-14)

    def test_f_data_self_identity_split(self):
        prod = Domain.product(("a", "b"), ("u", "v"))
        ds = Dataset(prod, np.array([2.0, 1.0, 0.0, 3.0]))
        f = f_data_self(ds, prod.unpair, prod)
        assert np.allclose(np.exp(f.values()[[0, 1, 3]]),
                           np.array([2, 1, 3]) / 6.0)

    def test_f_data_self_split_out_of_range(self):
        prod = Domain.product(("a", "b"), ("u", "v"))
        ds = Dataset(prod, np.array([2.0, 1.0, 0.0, 3.0]))
        with pytest.raises(SplitOutOfRange):
            f_data_self(ds, lambda t: (5, 5), prod)

    def test_weighted(self, toy_dataset):
        w = np.arange(8, dtype=float)
        f = f_data_weighted(Dataset(toy_dataset.domain, toy_dataset.counts, w))
        emp = toy_dataset.empirical()
        assert np.exp(f.values()[2]) == pytest.approx(emp[2] * 2.0, abs=1e-14)

    def test_weighted_all_zero(self, toy_dataset):
        with pytest.raises(AllZeroWeights):
            f_data_weighted(Dataset(toy_dataset.domain, toy_dataset.counts,
                                    np.zeros(8)))

    def test_augmented_identity_kernel(self, toy_dataset):
        f = f_data_augmented(toy_dataset, np.eye(8))
        emp = toy_dataset.empirical()
        v = np.exp(f.values())
        assert np.max(np.abs(v - emp)) <= 1e-14

    def test_augmented_degenerate(self, toy_dataset):
        with pytest.raises(DegenerateKernel):
            f_data_augmented(toy_dataset, np.zeros((8, 8)))
        with pytest.raises(DegenerateKernel):
            f_data_augmented(toy_dataset, -np.eye(8))

    def test_augmented_support_test_reads_rows_on_the_support(self, toy_dataset):
        # index 1 has no data: a kernel whose only nonzero row is t* = 1
        # vanishes on the support
        off = np.zeros((8, 8))
        off[1] = 1.0
        with pytest.raises(DegenerateKernel):
            f_data_augmented(toy_dataset, off)
        on = np.zeros((8, 8))
        on[4, 2] = 1.0  # one support row suffices
        f = f_data_augmented(toy_dataset, on)
        assert np.array_equal(np.isfinite(f.values()), np.arange(8) == 2)

    def test_raml_kernel_rows_normalize(self, rng):
        R = rng.normal(size=(12, 300)) * 4.0
        R[1] = 1e5 + rng.normal(size=300)  # rows at 1e5 scale
        R[2] *= 1e5
        R[3, ::4] = -np.inf  # rows with -inf entries
        R[4, 1:] = -np.inf
        R[5] = np.round(R[5])  # ties at the max
        k = raml_kernel(R)
        want = scipy.special.softmax(R, axis=1)
        assert np.all(np.abs(k - want) <= 4 * np.spacing(want))
        assert np.all(k[3, ::4] == 0.0) and np.array_equal(k[4], np.eye(300)[0])
        assert np.max(np.abs(k.sum(axis=1) - 1.0)) <= 300 * np.finfo(float).eps


def _raml_payoff(rng, n):
    """A seeded payoff with rows at the 1e5 scale, -inf entries and ties,
    and a dataset whose zero-count rows are about half the domain."""
    R = rng.normal(size=(n, n)) * 4.0
    big = rng.choice(n, max(2, n // 5), replace=False)
    R[big[::2]] = 1e5 + rng.normal(size=(big[::2].size, n))
    R[big[1::2]] *= 1e5
    R[rng.random((n, n)) < 0.2] = -np.inf
    R[:, 0] = 0.0  # no row is all -inf
    ties = rng.choice(n, max(1, n // 5), replace=False)
    R[ties] = np.round(R[ties])
    counts = rng.integers(1, 4, n).astype(float)
    counts[rng.random(n) < 0.5] = 0.0
    counts[0] = 1.0
    return Dataset(Domain.of_size(n), counts), R


class TestRaml:
    # c = 8: each side rounds every term twice (its weight and the product)
    # and sums non-negative terms, then takes the same log; the worst seen
    # over 40 seeded payoffs (N up to 1500, up to 611 observed rows, so up
    # to 5 blocks) was 1.94 eps * max(1, |f|)
    C = 8

    @pytest.mark.parametrize("n", [7, 1000])
    @pytest.mark.parametrize("seed", range(3))
    def test_streamed_matches_the_kernel(self, n, seed):
        # n = 1000 streams about 400 observed rows in blocks of 131
        data, R = _raml_payoff(np.random.default_rng(seed), n)
        got = f_data_raml(data, R).values()
        want = f_data_augmented(data, raml_kernel(R)).values()
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        live = np.isfinite(want)
        bound = self.C * np.finfo(float).eps * np.maximum(1.0, np.abs(want[live]))
        assert np.all(np.abs(got[live] - want[live]) <= bound)

    def test_unobserved_rows_are_not_read(self, toy_dataset):
        # index 1 has no data: its row may hold anything
        R = np.random.default_rng(3).normal(size=(8, 8))
        clean = f_data_raml(toy_dataset, R).values()
        R[1] = [np.nan, np.inf, -np.inf, 0, 0, 0, 0, 0]
        assert np.array_equal(f_data_raml(toy_dataset, R).values(), clean)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_inf_payoff_raises(self, toy_dataset, bad):
        R = np.zeros((8, 8))
        R[4, 6] = bad
        with pytest.raises(ValueError, match="payoff row t\\* = 4"):
            f_data_raml(toy_dataset, R)
        with pytest.raises(ValueError, match="payoff row t\\* = 4"):
            raml_kernel(R)  # the same row rule

    def test_observed_row_of_neg_inf_raises(self, toy_dataset):
        R = np.zeros((8, 8))
        R[5] = -np.inf
        with pytest.raises(DegenerateKernel, match="t\\* = 5"):
            f_data_raml(toy_dataset, R)

    def test_neg_inf_entries_weigh_nothing(self, toy_dataset):
        # a payoff of -inf off the diagonal is the identity kernel
        R = np.where(np.eye(8) == 1, 0.0, -np.inf)
        assert np.array_equal(f_data_raml(toy_dataset, R).values(),
                              f_data(toy_dataset).values())

    def test_payoff_must_cover_the_domain(self, toy_dataset):
        with pytest.raises(ValueError, match="N x N"):
            f_data_raml(toy_dataset, np.zeros((8, 7)))


class TestActive:
    def test_selection_softmax(self):
        pool = Dataset(Domain.of_size(4), np.array([1.0, 2.0, 3.0, 4.0]))
        u = np.array([0.1, 0.9, 0.5, 0.2])
        sel = selection_distribution(pool, u, 2.0)
        emp = pool.empirical()
        expected = emp * np.exp(2.0 * u)
        expected /= expected.sum()
        assert np.max(np.abs(sel - expected)) <= 1e-12

    def test_selection_degenerates_to_argmax(self):
        # the mass concentrates on argmax u, split among ties by empirical
        # weight, with no jump at any lambda
        pool = Dataset(Domain.of_size(4), np.array([1.0, 2.0, 3.0, 4.0]))
        u = np.array([0.1, 0.9, 0.9, 0.2])
        # scores near 1e6 * 0.9 carry a rounding of ulp(9e5) ~ 1.2e-10
        assert np.allclose(selection_distribution(pool, u, 1e6),
                           [0.0, 0.4, 0.6, 0.0], rtol=0, atol=1e-9)
        assert np.array_equal(selection_distribution(pool, u, 99999.0),
                              selection_distribution(pool, u, 1e5))

    def test_f_active_structure(self):
        pool = Dataset(Domain.of_size(3), np.array([1.0, 1.0, 2.0]))
        prod = Domain.product(("x0", "x1", "x2"), ("y0", "y1"))
        f = f_active(pool, np.array([0, 1, 0]), np.array([0.3, 0.1, 0.2]), 1.5,
                     prod)
        v = f.values()
        # only (x, label(x)) cells are finite
        finite = ~np.isneginf(v)
        assert list(np.where(finite)[0]) == [prod.pair(0, 0), prod.pair(1, 1),
                                             prod.pair(2, 0)]

    def test_f_active_matches_the_loop_bit_for_bit(self):
        # the per-point loop the scatter replaced, kept here as the reference
        def reference(pool, labels, u, lam, prod):
            ny = prod.factor_sizes[1]
            joint = np.zeros(prod.size)
            for x, m in enumerate(pool.counts):
                if m:
                    joint[prod.pair(x, int(labels[x]))] += m / pool.n_data
            with np.errstate(divide="ignore"):
                return np.log(joint) + np.repeat(lam * u, ny)

        g = np.random.default_rng(7)
        for _ in range(50):
            nx, ny = int(g.integers(1, 30)), int(g.integers(1, 6))
            counts = g.integers(0, 9, nx).astype(float)
            counts[g.integers(nx)] += 1.0
            pool = Dataset(Domain.of_size(nx), counts)
            prod = Domain.product(pool.domain.labels,
                                  tuple(f"y{j}" for j in range(ny)))
            labels, u = g.integers(0, ny, nx), g.normal(size=nx)
            lam = float(g.uniform(0.1, 3.0))
            got = f_active(pool, labels, u, lam, prod).values()
            want = reference(pool, labels, u, lam, prod)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_f_active_checks_only_observed_labels(self):
        pool = Dataset(Domain.of_size(4), np.array([2.0, 0.0, 1.0, 0.0]))
        prod = Domain.product(("x0", "x1", "x2", "x3"), ("y0", "y1"))
        u = np.zeros(4)
        for bad in (-1, 2, 99):
            with pytest.raises(DomainMismatch, match=f"label {bad} "):
                f_active(pool, np.array([0, 1, bad, 1]), u, 1.0, prod)
        # x1 and x3 are unobserved: their labels are never read
        v = f_active(pool, np.array([1, -7, 0, 99]), u, 1.0, prod).values()
        assert list(np.flatnonzero(~np.isneginf(v))) == [prod.pair(0, 1),
                                                          prod.pair(2, 0)]


    @pytest.mark.parametrize("labels, u, name", [
        ([0, 1, 0], [0.1, 0.2, 0.3, 0.4], "oracle_labels"),
        ([0, 1, 0, 1, 0], [0.1, 0.2, 0.3, 0.4], "oracle_labels"),
        ([0, 1, 0, 1], [0.1, 0.2], "utility"),
    ])
    def test_f_active_checks_lengths_against_the_pool(self, labels, u, name):
        # the last pool point is observed: a short label array ends before it
        pool = Dataset(Domain.of_size(4), np.array([2.0, 0.0, 1.0, 3.0]))
        prod = Domain.product(("x0", "x1", "x2", "x3"), ("y0", "y1"))
        with pytest.raises(DomainMismatch, match=f"^{name} has shape"):
            f_active(pool, np.array(labels), np.array(u), 1.0, prod)


class TestSoftLogic:
    def test_worked_values(self):
        a, b = np.array([0.7]), np.array([0.6])
        assert StrongAnd(Atom("A"), Atom("B")).evaluate({"A": a, "B": b}, 1)[0] \
            == pytest.approx(0.3, abs=1e-15)
        assert Or(Atom("A"), Atom("B")).evaluate({"A": a, "B": b}, 1)[0] == 1.0

    def test_boolean_truth_tables(self):
        for va, vb in itertools.product([0.0, 1.0], repeat=2):
            atoms = {"A": np.array([va]), "B": np.array([vb])}
            assert StrongAnd(Atom("A"), Atom("B")).evaluate(atoms, 1)[0] == \
                float(va and vb)
            assert Or(Atom("A"), Atom("B")).evaluate(atoms, 1)[0] == \
                float(va or vb)
            assert Not(Atom("A")).evaluate(atoms, 1)[0] == float(not va)
            assert Implies(Atom("A"), Atom("B")).evaluate(atoms, 1)[0] == \
                float((not va) or vb)

    def test_parse_nested(self):
        expr = parse_rule(["implies", ["atom", "A"], ["or", ["atom", "B"],
                                                      ["const", 0.2]]],
                          ("A", "B"))
        atoms = {"A": np.array([1.0]), "B": np.array([0.5])}
        assert expr.evaluate(atoms, 1)[0] == pytest.approx(0.7, abs=1e-15)

    def test_parse_errors(self):
        with pytest.raises(KeyError):
            parse_rule(["atom", "Z"], ("A",))
        with pytest.raises(ValueError):
            parse_rule(["frobnicate", 1], ("A",))

    def test_atom_out_of_range(self):
        with pytest.raises(AtomOutOfRange):
            eval_soft_logic(Atom("A"), {"A": np.array([1.5])}, 1)

    @given(unit, unit, unit)
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, a, b, c):
        atoms = {"A": np.array([a]), "B": np.array([b]), "C": np.array([c])}
        expr = Avg((StrongAnd(Atom("A"), Atom("B")),
                    Or(Not(Atom("C")), Atom("A"))))
        v = eval_soft_logic(expr, atoms, 1)
        assert 0.0 <= v[0] <= 1.0

    @given(unit, unit, unit)
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_a(self, a, b, delta):
        a2 = min(1.0, a + delta)
        for make in (lambda x: StrongAnd(x, Atom("B")),
                      lambda x: Or(x, Atom("B")),
                      lambda x: Implies(Atom("B"), x)):
            lo = make(Atom("A")).evaluate({"A": np.array([a]), "B": np.array([b])}, 1)
            hi = make(Atom("A")).evaluate({"A": np.array([a2]), "B": np.array([b])}, 1)
            assert hi[0] >= lo[0] - 1e-12


class TestModelExperience:
    def test_mimic(self, rng):
        prod = Domain.product(("a", "b"), ("u", "v"))
        src = ConditionalSoftmaxModel(rng.normal(size=(2, 2)), prod)
        inputs = Dataset(Domain(("a", "b")), np.array([3.0, 1.0]))
        f = f_model_mimic(inputs, src)
        v = np.exp(f.values())
        target = (inputs.empirical()[:, None] * src.probs()).ravel()
        assert np.max(np.abs(v - target)) <= 1e-12

    def test_mimic_domain_mismatch(self, rng):
        prod = Domain.product(("a", "b"), ("u", "v"))
        src = ConditionalSoftmaxModel(rng.normal(size=(2, 2)), prod)
        with pytest.raises(DomainMismatch):
            f_model_mimic(Dataset(Domain.of_size(3), np.ones(3)), src)


class TestCombine:
    def test_weighted_sum(self, toy_dataset):
        f1 = f_data(toy_dataset)
        f2 = ExperienceFn.from_vector(toy_dataset.domain, np.ones(8))
        f = combine([(2.0, f2), (1.0, f1)])
        v = f.values()
        expected = 2.0 + f1.values()
        # -inf absorbs; finite entries add
        assert np.all(np.isneginf(v) == np.isneginf(expected))
        finite = ~np.isneginf(v)
        assert np.max(np.abs(v[finite] - expected[finite])) <= 1e-12

    def test_empty(self):
        with pytest.raises(EmptyCombination):
            combine([])

    def test_nonpositive_weight(self, toy_dataset):
        with pytest.raises(ValueError):
            combine([(-1.0, f_data(toy_dataset))])
