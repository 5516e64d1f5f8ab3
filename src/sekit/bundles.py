"""Problem bundles: the JSON-loadable inputs a recipe runs against (datasets,
MDPs, rules, source models, pools, expert reward streams, target
distributions)."""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .core import Dist, Domain, integers
from .experience import Dataset, SoftLogicExpr, parse_rule
from .mdp import TabularMDP
from .models import ConditionalSoftmaxModel


class BundleError(ValueError):
    pass


@dataclass
class ProblemBundle:
    """Everything a recipe might need, all optional; recipes validate."""

    dataset: Optional[Dataset] = None
    product_domain: Optional[Domain] = None
    mdp: Optional[TabularMDP] = None
    rule: Optional[SoftLogicExpr] = None
    atoms: Optional[Dict[str, np.ndarray]] = None
    rule_weight: float = 1.0
    source_model: Optional[ConditionalSoftmaxModel] = None
    pool: Optional[Dataset] = None
    oracle_labels: Optional[np.ndarray] = None
    utility: Optional[np.ndarray] = None
    select_lambda: float = 1.0
    rewards: Optional[np.ndarray] = None  # (T, K) expert reward stream
    p_data: Optional[Dist] = None
    coords: Optional[np.ndarray] = None
    payoff: Optional[np.ndarray] = None  # (N, N) task payoff R[t*, t]
    n_components: int = 2
    rho: float = 1.0
    extras: dict = field(default_factory=dict)

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise BundleError(f"bundle is missing: {', '.join(missing)}")


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


# the bundle keys that one conversion loads into the field of their name
_PLAIN = {
    "oracle_labels": integers, "utility": _floats, "select_lambda": float,
    "rewards": _floats, "p_data": lambda v: Dist.from_probs(_floats(v)),
    "coords": _floats, "payoff": _floats,
    "n_components": lambda v: operator.index(integers(v)), "rho": float,
    "extras": dict,
}
# every bundle key, in load order: the dataset reads the domain and product
_KEYS = ("domain", "product", "dataset", "mdp", "rule", "source_model",
         "pool", *_PLAIN)


def _load_domain(spec) -> Domain:
    if isinstance(spec, int):
        return Domain.of_size(spec)
    if isinstance(spec, list):
        return Domain(tuple(str(s) for s in spec))
    raise BundleError(f"bad domain spec: {spec!r}")


def _labels(spec: dict, name: str) -> tuple:
    return tuple(str(s) for s in spec[name])


def load_bundle(payload) -> ProblemBundle:
    """Build a ProblemBundle from a JSON object (or path / JSON text).

    Unknown top-level keys are rejected so typos fail loudly, and a missing
    or mistyped field raises BundleError naming its bundle key.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError:
            with open(payload) as fh:
                payload = json.load(fh)
    if not isinstance(payload, dict):
        raise BundleError("a bundle must be a JSON object, not "
                          f"{type(payload).__name__}")
    unknown = sorted(set(payload) - set(_KEYS))
    if unknown:
        raise BundleError(f"unknown bundle keys: {', '.join(unknown)}")
    b, domain = ProblemBundle(), None
    for key in [k for k in _KEYS if k in payload]:
        spec = payload[key]
        try:
            if key == "domain":
                domain = _load_domain(spec)
            elif key == "product":
                b.product_domain = Domain.product(_labels(spec, "x_labels"),
                                                  _labels(spec, "y_labels"))
            elif key == "dataset":
                dom = (b.product_domain if spec.get("on_product") else
                       domain if "labels" not in spec else
                       Domain(_labels(spec, "labels")))
                if dom is None:
                    raise BundleError("dataset needs a domain")
                b.dataset = Dataset(dom, _floats(spec["counts"]),
                                    None if "weights" not in spec else
                                    _floats(spec["weights"]))
            elif key == "mdp":
                b.mdp = TabularMDP.from_json(spec)
            elif key == "rule":
                b.atoms = {k: _floats(v) for k, v in spec["atoms"].items()}
                b.rule = parse_rule(spec["expr"], tuple(b.atoms))
                b.rule_weight = float(spec.get("weight", 1.0))
            elif key == "source_model":
                dom = Domain.product(_labels(spec, "x_labels"),
                                     _labels(spec, "y_labels"))
                b.source_model = ConditionalSoftmaxModel(
                    _floats(spec["logits"]), dom)
                if b.product_domain is None:
                    b.product_domain = dom
            elif key == "pool":
                b.pool = Dataset(Domain(_labels(spec, "labels")),
                                 _floats(spec["counts"]))
            else:
                setattr(b, key, _PLAIN[key](spec))
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            raise BundleError(f"bundle key {key!r} is malformed "
                              f"({type(exc).__name__}: {exc})") from None
    return b
