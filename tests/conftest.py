import numpy as np
import pytest

from sekit.bundles import ProblemBundle
from sekit.core import Dist, Domain
from sekit.experience import Dataset
from sekit.mdp import TabularMDP


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def toy_dataset():
    dom = Domain.of_size(8)
    return Dataset(dom, np.array([3.0, 0.0, 5.0, 1.0, 7.0, 2.0, 4.0, 2.0]))


@pytest.fixture
def mixture_bundle():
    dom = Domain.of_size(5)
    counts = np.array([12.0, 8.0, 15.0, 5.0, 10.0])  # 50 observations
    return ProblemBundle(dataset=Dataset(dom, counts), n_components=2)


@pytest.fixture
def small_mdp():
    g = np.random.default_rng(0)
    P = g.dirichlet(np.ones(4), size=(4, 2))
    r = g.random((4, 2))
    return TabularMDP(P, r, 0.9, np.array([0.4, 0.3, 0.2, 0.1]))


@pytest.fixture
def gan_target():
    g = np.random.default_rng(2)
    return Dist.from_probs(g.dirichlet(np.ones(10) * 3))
