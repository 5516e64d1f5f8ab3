"""The catalog of experience functions: data-based, knowledge-based (soft
logic), model-based, and weighted combinations.

An ExperienceFn scores every configuration of a finite domain in the extended
reals (-inf allowed, +inf forbidden).  Theta-dependent experience receives the
current model as an argument; the only state it writes is its own
`diagnostics` (the reward experience records its reward offset there).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Domain, logsumexp, safe_log
from .models import ConditionalSoftmaxModel


class EmptyDataset(ValueError):
    pass


class AllZeroWeights(ValueError):
    pass


class DegenerateKernel(ValueError):
    pass


class EmptyPool(ValueError):
    pass


class AtomOutOfRange(ValueError):
    pass


class SplitOutOfRange(IndexError):
    pass


class DomainMismatch(ValueError):
    pass


class EmptyCombination(ValueError):
    pass


class ExperienceFn:
    """A scoring rule f(t; theta) over a finite domain.

    `values(model)` returns the full score vector; theta-independent
    experience ignores the model argument.
    """

    def __init__(self, domain: Domain, fn: Callable[[object], np.ndarray]):
        self.domain = domain
        self._fn = fn
        self.diagnostics: Dict[str, float] = {}

    def values(self, model=None) -> np.ndarray:
        v = np.asarray(self._fn(model), dtype=float)
        if v.shape != (self.domain.size,):
            raise DomainMismatch("experience values do not match the domain")
        if np.any(np.isnan(v)) or np.any(v == np.inf):
            raise ValueError("experience values must be in [-inf, finite]")
        return v

    @classmethod
    def from_vector(cls, domain: Domain, v) -> "ExperienceFn":
        v = np.asarray(v, dtype=float).copy()
        return cls(domain, lambda model: v)


@dataclass(frozen=True)
class Dataset:
    """Observation counts over a domain, with optional per-configuration weights."""

    domain: Domain
    counts: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != (self.domain.size,):
            raise ValueError("counts must cover the domain")
        if np.any(counts < 0) or np.any(counts != np.round(counts)):
            raise ValueError("counts must be non-negative integers")
        if counts.sum() < 1:
            raise EmptyDataset("dataset is empty")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).copy()
            if w.shape != (self.domain.size,):
                raise ValueError("weights must cover the domain")
            w.flags.writeable = False
            object.__setattr__(self, "weights", w)

    @property
    def n_data(self) -> float:
        return float(self.counts.sum())

    def empirical(self) -> np.ndarray:
        return self.counts / self.n_data


def f_data(dataset: Dataset) -> ExperienceFn:
    """f(t) = log(m(t) / N): log empirical frequency, -inf off support."""
    return ExperienceFn.from_vector(dataset.domain, safe_log(dataset.empirical()))


def f_data_self(dataset: Dataset, split: Callable[[int], Tuple[int, int]],
                product_domain: Domain) -> ExperienceFn:
    """Self-supervised experience: split each observed t* into (x, y) and count.

    A stochastic split must be pre-seeded by the caller (a deterministic
    closure), so repeated construction yields identical scores.
    """
    nx, ny = product_domain.factor_sizes
    pair_counts = np.zeros(product_domain.size)
    for t, m in enumerate(dataset.counts):
        if m == 0:
            continue
        x, y = split(t)
        if not (0 <= x < nx and 0 <= y < ny):
            raise SplitOutOfRange(f"split({t}) = ({x}, {y}) outside {nx}x{ny}")
        pair_counts[x * ny + y] += m  # product_domain.pair, range checked above
    return ExperienceFn.from_vector(product_domain,
                                    safe_log(pair_counts / dataset.n_data))


def f_data_weighted(dataset: Dataset) -> ExperienceFn:
    """f(t) = log(m(t) w(t) / N) with the dataset's weights w:
    importance-weighted empirical similarity."""
    w = dataset.weights
    if w is None:
        raise ValueError("no weights given")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    scaled = dataset.empirical() * w
    if scaled.sum() == 0:
        raise AllZeroWeights("all weights vanish on the dataset support")
    return ExperienceFn.from_vector(dataset.domain, safe_log(scaled))


def f_data_augmented(dataset: Dataset, kernel: np.ndarray) -> ExperienceFn:
    """f(t) = log E_{t* ~ D}[a_{t*}(t)] for a similarity kernel a (rows: t*).

    With a_{t*}(t) proportional to exp{R(t, t*)} this is the RAML experience.
    """
    kernel = np.asarray(kernel, dtype=float)
    n = dataset.domain.size
    if kernel.shape != (n, n):
        raise ValueError("kernel must be N x N (rows indexed by t*)")
    if np.any(kernel < 0):
        raise DegenerateKernel("kernel must be non-negative")
    support = dataset.counts > 0
    if not kernel.any(axis=1)[support].any():
        raise DegenerateKernel("kernel vanishes on the dataset support")
    smoothed = dataset.empirical() @ kernel
    return ExperienceFn.from_vector(dataset.domain, safe_log(smoothed))


def raml_kernel(payoff: np.ndarray) -> np.ndarray:
    """Row-normalized exp{R(t, t*)} kernel from a payoff matrix R[t*, t]."""
    payoff = np.asarray(payoff, dtype=float)
    k = payoff - payoff.max(axis=1, keepdims=True)
    np.exp(k, out=k)
    k /= k.sum(axis=1, keepdims=True)
    return k


def f_active(pool: Dataset, labels: np.ndarray, u: np.ndarray,
             lam: float, product_domain: Domain) -> ExperienceFn:
    """Active supervision: oracle-labeled pool experience plus lambda * u(x).

    f(x, y) = log E_{x* ~ pool, y* = labels[x*]}[1{(x,y)=(x*,y*)}] + lam * u(x).
    Only the labels of observed pool points are read.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if pool.counts.sum() < 1:
        raise EmptyPool("pool is empty")
    nx, ny = product_domain.factor_sizes
    if pool.domain.size != nx:
        raise DomainMismatch("pool domain must match the X factor")
    u = np.asarray(u, dtype=float)
    observed = np.flatnonzero(pool.counts)
    y = np.asarray(labels)[observed].astype(int)
    bad = (y < 0) | (y >= ny)
    if bad.any():
        raise DomainMismatch(f"oracle label {y[bad][0]} outside Y")
    joint = np.zeros(product_domain.size)
    joint[observed * ny + y] = pool.counts[observed] / pool.n_data
    bonus = np.repeat(lam * u, ny)
    return ExperienceFn.from_vector(product_domain, safe_log(joint) + bonus)


def selection_distribution(pool: Dataset, u: np.ndarray, lam: float) -> np.ndarray:
    """Pool query distribution proportional to empirical(x) * exp{lam u(x)}.

    At very large lam this degenerates to the argmax-u pool point (lowest
    index on ties).
    """
    u = np.asarray(u, dtype=float)
    scores = safe_log(pool.empirical()) + lam * u
    if lam >= 1e5:
        support = pool.counts > 0
        best = np.max(u[support])
        idx = next(i for i in range(pool.domain.size) if support[i] and u[i] == best)
        sel = np.zeros(pool.domain.size)
        sel[idx] = 1.0
        return sel
    return np.exp(scores - logsumexp(scores))


# ---------------------------------------------------------------------------
# Soft first-order logic
# ---------------------------------------------------------------------------

class SoftLogicExpr:
    """Base class for soft-logic AST nodes; evaluates to a vector in [0, 1]."""

    def evaluate(self, atoms: Dict[str, np.ndarray], n: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(SoftLogicExpr):
    name: str

    def evaluate(self, atoms, n):
        v = np.asarray(atoms[self.name], dtype=float)
        if np.any(v < 0) or np.any(v > 1):
            raise AtomOutOfRange(f"atom {self.name!r} leaves [0, 1]")
        return np.broadcast_to(v, (n,)).astype(float)


@dataclass(frozen=True)
class Const(SoftLogicExpr):
    value: float

    def evaluate(self, atoms, n):
        if not 0 <= self.value <= 1:
            raise AtomOutOfRange("constant leaves [0, 1]")
        return np.full(n, float(self.value))


@dataclass(frozen=True)
class StrongAnd(SoftLogicExpr):
    """A & B = max{A + B - 1, 0} (Lukasiewicz strong conjunction)."""

    a: SoftLogicExpr
    b: SoftLogicExpr

    def evaluate(self, atoms, n):
        return np.maximum(self.a.evaluate(atoms, n) + self.b.evaluate(atoms, n) - 1.0, 0.0)


@dataclass(frozen=True)
class Or(SoftLogicExpr):
    """A | B = min{A + B, 1}."""

    a: SoftLogicExpr
    b: SoftLogicExpr

    def evaluate(self, atoms, n):
        return np.minimum(self.a.evaluate(atoms, n) + self.b.evaluate(atoms, n), 1.0)


@dataclass(frozen=True)
class Avg(SoftLogicExpr):
    """n-ary conjunction as the mean of its children."""

    children: Tuple[SoftLogicExpr, ...]

    def evaluate(self, atoms, n):
        return np.mean([c.evaluate(atoms, n) for c in self.children], axis=0)


@dataclass(frozen=True)
class Not(SoftLogicExpr):
    a: SoftLogicExpr

    def evaluate(self, atoms, n):
        return 1.0 - self.a.evaluate(atoms, n)


def Implies(a: SoftLogicExpr, b: SoftLogicExpr) -> SoftLogicExpr:
    """A => B desugars to (not A) | B."""
    return Or(Not(a), b)


def parse_rule(spec, atom_names: Sequence[str]) -> SoftLogicExpr:
    """Parse a nested-array rule spec, e.g. ["not", ["atom", "A"]]."""
    if isinstance(spec, (int, float)):
        return Const(float(spec))
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ValueError(f"bad rule node: {spec!r}")
    op, *args = spec
    if op == "atom":
        (name,) = args
        if name not in atom_names:
            raise KeyError(f"unknown atom {name!r}")
        return Atom(name)
    if op == "const":
        (v,) = args
        return Const(float(v))
    if op == "not":
        (a,) = args
        return Not(parse_rule(a, atom_names))
    if op in ("strong_and", "&"):
        a, b = args
        return StrongAnd(parse_rule(a, atom_names), parse_rule(b, atom_names))
    if op in ("or", "|"):
        a, b = args
        return Or(parse_rule(a, atom_names), parse_rule(b, atom_names))
    if op in ("and", "avg"):
        return Avg(tuple(parse_rule(a, atom_names) for a in args))
    if op in ("implies", "=>"):
        a, b = args
        return Implies(parse_rule(a, atom_names), parse_rule(b, atom_names))
    raise ValueError(f"unknown rule operator {op!r}")


def eval_soft_logic(expr: SoftLogicExpr, atoms: Dict[str, np.ndarray], n: int) -> np.ndarray:
    out = expr.evaluate(atoms, n)
    if np.any(out < -1e-15) or np.any(out > 1 + 1e-15):
        raise AtomOutOfRange("soft-logic value leaves [0, 1]")
    return np.clip(out, 0.0, 1.0)


def f_rule(expr: SoftLogicExpr, domain: Domain, atoms: Dict[str, np.ndarray]) -> ExperienceFn:
    """Knowledge experience: f(t) is the rule's truth value at t."""
    values = eval_soft_logic(expr, atoms, domain.size)
    return ExperienceFn.from_vector(domain, values)


# ---------------------------------------------------------------------------
# Model-based experience
# ---------------------------------------------------------------------------

def f_model_mimic(inputs: Dataset, source: ConditionalSoftmaxModel) -> ExperienceFn:
    """f(x, y) = log[empirical(x) * p_source(y|x)]: pseudo-labels on observed inputs."""
    domain = source.domain
    nx, ny = domain.factor_sizes
    if inputs.domain.size != nx:
        raise DomainMismatch("input dataset must live on the X factor")
    log_emp = safe_log(inputs.empirical())
    v = (log_emp[:, None] + source.log_probs()).ravel()
    return ExperienceFn.from_vector(domain, v)


def combine(terms: List[Tuple[float, ExperienceFn]]) -> ExperienceFn:
    """Weighted sum of experience functions; any -inf term absorbs the sum."""
    if not terms:
        raise EmptyCombination("no terms to combine")
    domain = terms[0][1].domain
    for lam, f in terms:
        if lam <= 0:
            raise ValueError("combination weights must be positive")
        if f.domain.size != domain.size:
            raise DomainMismatch("mismatched domains in combination")

    def evaluate(model):
        total = np.zeros(domain.size)
        neg_inf = np.zeros(domain.size, dtype=bool)
        for lam, f in terms:
            v = f.values(model)
            hard = np.isneginf(v)
            neg_inf |= hard
            total += np.where(hard, 0.0, lam * v)
        return np.where(neg_inf, -np.inf, total)

    return ExperienceFn(domain, evaluate)
