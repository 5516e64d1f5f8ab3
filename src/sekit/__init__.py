"""sekit: a composable learning-objective engine on finite domains.

One objective -- min over (q, theta) of -alpha H(q) + beta D(q, p_theta)
- E_q[f] -- whose configurations reproduce classical algorithms exactly:
maximum likelihood, EM, posterior regularization, policy gradient,
RL-as-inference, distillation, RAML, active learning, GANs, and
multiplicative weights.
"""

from .core import Dist, Domain, entropy, normalize_log
from .divergence import CE, JS, KL, DivergenceFn, divergence, influence_function
from .experience import Dataset, ExperienceFn, combine, f_data, f_rule, parse_rule
from .models import ConditionalSoftmaxModel, MixtureModel, SoftmaxModel
from .mdp import TabularMDP, exact_policy_gradient, q_function, visitation
from .solver import (SEConfig, Segment, Trace, mw_trajectory, mw_update, run,
                     schedule, teacher_closed_form)
from .adversarial import Discriminator, adversarial_run
from .recipes import Recipe, check_equivalence, get_recipe, registry, run_recipe
from .bundles import ProblemBundle, load_bundle

__version__ = "0.1.0"

__all__ = [
    "Dist", "Domain", "entropy", "normalize_log",
    "CE", "JS", "KL", "DivergenceFn", "divergence", "influence_function",
    "Dataset", "ExperienceFn", "combine", "f_data", "f_rule", "parse_rule",
    "ConditionalSoftmaxModel", "MixtureModel", "SoftmaxModel",
    "TabularMDP", "exact_policy_gradient", "q_function", "visitation",
    "SEConfig", "Segment", "Trace", "mw_trajectory", "mw_update", "run", "schedule",
    "teacher_closed_form", "Discriminator", "adversarial_run", "Recipe",
    "check_equivalence", "get_recipe", "registry", "run_recipe",
    "ProblemBundle", "load_bundle", "__version__",
]
