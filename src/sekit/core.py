"""Finite domains, exact probability vectors, log-sum-exp and Shannon
entropy.

All probability arithmetic is carried in log space with max-shifted
log-sum-exp (`logsumexp`) so that hard-zero scores (-inf) are first-class
citizens.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

SUM_TOL = 1e-9


class AllNegInfinity(ValueError):
    """Every score is -inf: nothing to normalize."""


class BoundaryPoint(ValueError):
    """Operation requires an interior point of the simplex."""


@dataclass(frozen=True)
class Domain:
    """A finite configuration space, optionally with (X, Y) product structure.

    Product indexing convention: t = x * |Y| + y.
    """

    labels: Tuple[str, ...]
    factor_sizes: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ValueError("domain must have at least one configuration")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("domain labels must be unique")
        if self.factor_sizes is not None:
            nx, ny = self.factor_sizes
            if nx * ny != len(self.labels):
                raise ValueError(
                    f"product structure {nx}x{ny} does not match size {len(self.labels)}"
                )

    @property
    def size(self) -> int:
        return len(self.labels)

    def _require_product(self):
        if self.factor_sizes is None:
            raise ValueError("domain has no product structure")

    def pair(self, x: int, y: int) -> int:
        self._require_product()
        nx, ny = self.factor_sizes
        if not (0 <= x < nx and 0 <= y < ny):
            raise IndexError(f"({x}, {y}) out of range for {nx}x{ny} domain")
        return x * ny + y

    def unpair(self, t: int) -> Tuple[int, int]:
        self._require_product()
        ny = self.factor_sizes[1]
        if not (0 <= t < self.size):
            raise IndexError(f"index {t} out of range")
        return divmod(t, ny)

    @staticmethod
    def of_size(n: int) -> "Domain":
        return Domain(tuple(f"t{i}" for i in range(n)))

    @staticmethod
    def product(x_labels: Sequence[str], y_labels: Sequence[str]) -> "Domain":
        labels = tuple(f"{x}|{y}" for x in x_labels for y in y_labels)
        return Domain(labels, (len(x_labels), len(y_labels)))


def logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) over `axis` for real, non-empty `a`, bit for bit as
    `scipy.special.logsumexp` computes it without that function's dispatch.

    The largest term is split out: with m entries equal to the max,
    log(sum) = log1p(rest / m) + log(m) + max, where `rest` sums the other
    terms shifted by the max (Blanchard, Higham & Higham, "Accurately
    computing the log-sum-exp and softmax functions", IMA J. Numer. Anal.
    2021).  Where that is not finite (an all -inf slice, an inf or nan
    entry) the result is log(sum(exp(a))).  A 0-d result is a numpy scalar.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the ufunc reductions are what np.max and np.sum call, minus their
        # per-call wrapping, which dominates on the engine's short vectors
        a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
        top = a == a_max
        m = np.add.reduce(top, axis=axis, keepdims=True, dtype=a.dtype)
        rest = a - a_max
        np.copyto(rest, -np.inf, where=top)
        np.exp(rest, out=rest)
        s = np.add.reduce(rest, axis=axis, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.add.reduce(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def safe_log(x: np.ndarray) -> np.ndarray:
    """Elementwise log, -inf exactly where x <= 0 or x is nan, with no warning."""
    return np.log(x, out=np.full(x.shape, -np.inf), where=x > 0)


class Dist:
    """An exact probability vector with a consistent log-space companion.

    p_i >= 0, sums to 1 within 1e-9; logp_i = -inf exactly where p_i = 0.
    Immutable after construction.
    """

    __slots__ = ("logp", "p")

    def __init__(self, logp: np.ndarray, _p: Optional[np.ndarray] = None):
        logp = np.asarray(logp, dtype=float)
        if logp.ndim != 1:
            raise ValueError("logp must be a vector")
        if np.isnan(logp).any() or (logp == np.inf).any():
            raise ValueError("logp entries must be in [-inf, finite]")
        p = np.exp(logp) if _p is None else np.asarray(_p, dtype=float)
        # both tests are written so that a nan fails them
        if not (p >= 0).all():
            raise ValueError("probabilities must be finite and >= 0")
        total = p.sum()
        if not abs(total - 1.0) <= SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        logp = logp.copy()
        p = p.copy()
        logp.flags.writeable = False
        p.flags.writeable = False
        self.logp = logp
        self.p = p

    def __setattr__(self, name, value):
        if name in ("logp", "p") and not hasattr(self, name):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("Dist is immutable")

    @classmethod
    def _unchecked(cls, logp: np.ndarray, p: np.ndarray) -> "Dist":
        """Wrap arrays that the caller has just built, owns and has checked,
        as they are: no copy and no validation scan.  Only `core` calls it."""
        logp.flags.writeable = False
        p.flags.writeable = False
        dist = object.__new__(cls)
        dist.logp = logp
        dist.p = p
        return dist

    @property
    def size(self) -> int:
        return self.p.shape[0]

    @classmethod
    def from_probs(cls, p) -> "Dist":
        p = np.asarray(p, dtype=float)
        return cls(safe_log(p), _p=p)

    @classmethod
    def uniform(cls, n: int) -> "Dist":
        return cls.from_probs(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, i: int) -> "Dist":
        logp = np.full(n, -np.inf)
        logp[i] = 0.0
        return cls(logp)

    def tv(self, other: "Dist") -> float:
        return 0.5 * float(np.abs(self.p - other.p).sum())

    def expect(self, values: np.ndarray) -> float:
        """E[values] with the 0 * (-inf) = 0 convention on zero-mass points."""
        values = np.asarray(values, dtype=float)
        mask = self.p > 0
        if (values[mask] == -np.inf).any():
            return -np.inf
        return float(self.p[mask] @ values[mask])

    def __repr__(self):
        return f"Dist({np.array2string(self.p, precision=6)})"


def normalize_log(scores) -> Dist:
    """Normalize extended-real scores into a Dist via max-shifted log-sum-exp.

    The max check is the whole validation of the output: past it the scores
    hold no nan and no +inf, so logp = shifted - logsumexp(shifted) is in
    [-inf, 0] and p = exp(logp) is in [0, 1]; only the sum is checked again.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError("scores must be a vector")
    # one reduction guards all three cases: nan propagates through it, and
    # an empty or all -inf vector leaves the initial -inf
    top = np.maximum.reduce(scores, axis=None, initial=-np.inf)
    if top == -np.inf:
        raise AllNegInfinity("all scores are -inf")
    if not top < np.inf:
        raise ValueError("scores must be in [-inf, finite]")
    logp = scores - top  # explicit shift: exact at any magnitude
    logp -= logsumexp(logp)
    p = np.exp(logp)
    total = p.sum()
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return Dist._unchecked(logp, p)


def entropy(q: Dist) -> float:
    """Shannon entropy -sum q log q, with 0 log 0 = 0."""
    mask = q.p > 0
    return float(-(q.p[mask] @ q.logp[mask]))


def entropy_grad(q: Dist) -> np.ndarray:
    """d entropy / d q_i, defined on the interior of the simplex only."""
    if np.any(q.p == 0):
        raise BoundaryPoint("entropy gradient needs q_i > 0 for all i")
    return -q.logp - 1.0
