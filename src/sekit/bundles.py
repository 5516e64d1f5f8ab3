"""Problem bundles: the JSON-loadable inputs a recipe runs against (datasets,
MDPs, rules, source models, pools, expert reward streams, target
distributions)."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .core import Dist, Domain
from .experience import Dataset, SoftLogicExpr, parse_rule
from .mdp import TabularMDP
from .models import ConditionalSoftmaxModel


class BundleError(ValueError):
    pass


@dataclass
class ProblemBundle:
    """Everything a recipe might need, all optional; recipes validate."""

    domain: Optional[Domain] = None
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


_KNOWN_KEYS = {
    "domain", "dataset", "product", "mdp", "rule", "source_model", "pool",
    "oracle_labels", "utility", "select_lambda", "rewards", "p_data",
    "coords", "payoff", "n_components", "rho", "extras",
}


def _load_domain(spec) -> Domain:
    if isinstance(spec, int):
        return Domain.of_size(spec)
    if isinstance(spec, list):
        return Domain(tuple(str(s) for s in spec))
    raise BundleError(f"bad domain spec: {spec!r}")


def load_bundle(payload) -> ProblemBundle:
    """Build a ProblemBundle from a JSON object (or path / JSON text).

    Unknown top-level keys are rejected so typos fail loudly.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError:
            with open(payload) as fh:
                payload = json.load(fh)
    unknown = sorted(set(payload) - _KNOWN_KEYS)
    if unknown:
        raise BundleError(f"unknown bundle keys: {', '.join(unknown)}")
    b = ProblemBundle()
    if "domain" in payload:
        b.domain = _load_domain(payload["domain"])
    if "product" in payload:
        prod = payload["product"]
        b.product_domain = Domain.product(
            tuple(str(s) for s in prod["x_labels"]),
            tuple(str(s) for s in prod["y_labels"]))
    if "dataset" in payload:
        ds = payload["dataset"]
        dom = (b.product_domain if ds.get("on_product") else
               b.domain if "labels" not in ds else
               Domain(tuple(str(s) for s in ds["labels"])))
        if dom is None:
            raise BundleError("dataset needs a domain")
        if b.domain is None and not ds.get("on_product"):
            b.domain = dom
        b.dataset = Dataset(dom, np.asarray(ds["counts"], dtype=float),
                            None if "weights" not in ds else
                            np.asarray(ds["weights"], dtype=float))
    if "mdp" in payload:
        b.mdp = TabularMDP.from_json(payload["mdp"])
    if "rule" in payload:
        r = payload["rule"]
        b.atoms = {k: np.asarray(v, dtype=float) for k, v in r["atoms"].items()}
        b.rule = parse_rule(r["expr"], tuple(b.atoms))
        b.rule_weight = float(r.get("weight", 1.0))
    if "source_model" in payload:
        sm = payload["source_model"]
        dom = Domain.product(tuple(str(s) for s in sm["x_labels"]),
                             tuple(str(s) for s in sm["y_labels"]))
        b.source_model = ConditionalSoftmaxModel(
            np.asarray(sm["logits"], dtype=float), dom)
        if b.product_domain is None:
            b.product_domain = dom
    if "pool" in payload:
        p = payload["pool"]
        dom = Domain(tuple(str(s) for s in p["labels"]))
        b.pool = Dataset(dom, np.asarray(p["counts"], dtype=float))
    if "oracle_labels" in payload:
        b.oracle_labels = np.asarray(payload["oracle_labels"], dtype=int)
    if "utility" in payload:
        b.utility = np.asarray(payload["utility"], dtype=float)
    if "select_lambda" in payload:
        b.select_lambda = float(payload["select_lambda"])
    if "rewards" in payload:
        b.rewards = np.asarray(payload["rewards"], dtype=float)
    if "p_data" in payload:
        b.p_data = Dist.from_probs(np.asarray(payload["p_data"], dtype=float))
        if b.domain is None:
            b.domain = Domain.of_size(b.p_data.size)
    if "coords" in payload:
        b.coords = np.asarray(payload["coords"], dtype=float)
    if "payoff" in payload:
        b.payoff = np.asarray(payload["payoff"], dtype=float)
    if "n_components" in payload:
        b.n_components = int(payload["n_components"])
    if "rho" in payload:
        b.rho = float(payload["rho"])
    if "extras" in payload:
        b.extras = dict(payload["extras"])
    return b
