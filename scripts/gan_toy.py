#!/usr/bin/env python3
"""Train the three adversarial recipes on a 10-point target and compare the
final total-variation distance to the target."""
import argparse
import json
import pathlib

import numpy as np

from sekit.adversarial import adversarial_run
from sekit.core import Dist, Domain
from sekit.models import SoftmaxModel

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target",
                    default=str(ROOT / "configs" / "gan_target.json"))
    ap.add_argument("--iters", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    payload = json.loads(pathlib.Path(args.target).read_text())
    p_data = Dist.from_probs(np.asarray(payload["p_data"], dtype=float))
    n = p_data.p.size
    rng = np.random.default_rng(args.seed)

    print(f"target over {n} points; {args.iters} iterations per recipe\n")
    for recipe in ("vanilla_gan", "wgan", "ppo_gan"):
        model = SoftmaxModel(rng.normal(size=n) * 0.5, Domain.of_size(n))
        res = adversarial_run(recipe, p_data, model, iters=args.iters)
        tv = res.model.dist().tv(p_data)
        print(f"{recipe:>12}: TV = {tv:.3e}  converged = {res.trace.converged}")


if __name__ == "__main__":
    main()
