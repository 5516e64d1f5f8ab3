"""Command-line front end: run a recipe against a problem bundle, check a
recipe against its oracle, or sweep a parameter grid.

Exit codes: 0 ok, 1 usage/config error, 2 non-convergence or partial sweep
failure, 3 equivalence-check failure.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .bundles import load_bundle
from .divergence import NonConvergence
from .models import ConditionalSoftmaxModel, SoftmaxModel
from .recipes import NotFound, check_equivalence, get_recipe, run_recipe

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_MISMATCH = 3

_RUN_KEYS = {"recipe", "params", "problem", "seed", "out", "grid"}


class ConfigError(ValueError):
    pass


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _set_dotted(obj: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    here = obj
    for p in parts[:-1]:
        here = here.setdefault(p, {})
        if not isinstance(here, dict):
            raise ConfigError(f"override path {dotted!r} crosses a non-object")
    here[parts[-1]] = value


def _load_run_config(path: str, overrides) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in overrides or []:
        _set_dotted(cfg, key, value)
    _validate_run_config(cfg)
    return cfg


def _numeric(value) -> bool:
    """Whether `value` is a number (not a bool) or a nested list of numbers."""
    if isinstance(value, list):
        return all(_numeric(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_run_config(cfg: dict) -> None:
    """Raise ConfigError (or NotFound for an unknown recipe) unless `cfg`
    is a runnable config: known keys, a registered recipe, and params an
    object whose values are numbers, null or nested lists of numbers."""
    unknown = sorted(set(cfg) - _RUN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "recipe" not in cfg:
        raise ConfigError("config needs a 'recipe'")
    get_recipe(cfg["recipe"])  # raises NotFound early
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    for key, value in params.items():
        if value is not None and not _numeric(value):
            raise ConfigError(f"params.{key} must be a number, null or a "
                              f"list of numbers, got {value!r}")


def _resolve_seed(cfg: dict, flag_seed: Optional[int]) -> int:
    if flag_seed is not None:
        return int(flag_seed)
    if "seed" in cfg:
        return int(cfg["seed"])
    env = os.environ.get("SEKIT_SEED")
    if env is not None:
        return int(env)
    return 0


def _load_problem(cfg: dict, flag_problem: Optional[str],
                  config_dir: Optional[Path] = None):
    """The --problem flag, a path relative to the working directory, or else
    the config's "problem" key: a bundle, or a path relative to config_dir."""
    spec = flag_problem if flag_problem is not None else cfg.get("problem")
    if spec is None:
        raise ConfigError("no problem bundle given (config 'problem' or --problem)")
    if isinstance(spec, dict):
        return load_bundle(spec)
    path = Path(spec)
    if flag_problem is None and not path.is_absolute():
        path = config_dir / path
    try:
        with open(path) as fh:
            return load_bundle(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read problem bundle {path}: {exc}") from exc


def _model_json(model) -> dict:
    """A runner's model: None, a softmax, a conditional softmax or a mixture."""
    if model is None:
        return {"type": "none"}
    if isinstance(model, SoftmaxModel):
        return {"type": "softmax", "theta": model.theta.tolist(),
                "labels": list(model.domain.labels)}
    if isinstance(model, ConditionalSoftmaxModel):
        return {"type": "conditional_softmax", "theta": model.theta.tolist(),
                "labels": list(model.domain.labels),
                "factor_sizes": list(model.domain.factor_sizes)}
    return {"type": "mixture",
            "mixture_logits": model.mixture_logits.tolist(),
            "component_logits": model.component_logits.tolist(),
            "labels": list(model.domain.labels),
            "factor_sizes": list(model.domain.factor_sizes)}


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_outputs(out_dir: Path, cfg: dict, seed: int, result) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.csv").write_text(result.trace.to_csv())
    with open(out_dir / "trace.json", "w") as fh:
        json.dump(result.trace.to_json_obj(), fh, indent=2,
                  default=_json_default, sort_keys=True)
    payload = _model_json(result.model)
    if result.final_dist is not None:
        payload["distribution"] = result.final_dist.p.tolist()
    with open(out_dir / "final_model.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    resolved = dict(cfg)
    resolved["seed"] = seed
    with open(out_dir / "resolved_config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)


def _execute_run(cfg: dict, seed: int, bundle, out_dir: Path):
    """Run and write the outputs; return the exit code and the last trace
    record's total as `trace.csv` writes it (None for an empty trace)."""
    params = dict(cfg.get("params", {}))
    result = run_recipe(cfg["recipe"], bundle, seed=seed, **params)
    _write_outputs(out_dir, cfg, seed, result)
    # a recipe whose config never stops early succeeds by finishing its loop
    converged = (result.trace.converged
                 or get_recipe(cfg["recipe"]).config.objective_tol == 0)
    records = result.trace.records
    final = repr(records[-1].total) if records else None
    return (EXIT_OK if converged else EXIT_PARTIAL), final


def cmd_run(args) -> int:
    cfg = _load_run_config(args.config, args.override)
    seed = _resolve_seed(cfg, args.seed)
    base = Path(args.config).resolve().parent
    bundle = _load_problem(cfg, args.problem, base)
    out_dir = Path(args.out if args.out is not None else cfg.get("out", "out"))
    return _execute_run(cfg, seed, bundle, out_dir)[0]


def cmd_check(args) -> int:
    recipe = get_recipe(args.recipe)
    oracle = args.oracle if args.oracle is not None else recipe.default_oracle
    bundle = _load_problem({}, args.problem)
    seed = _resolve_seed({}, args.seed)
    report = check_equivalence(args.recipe, oracle, bundle, args.tol, seed=seed)
    print(json.dumps(report, indent=2, sort_keys=True, default=_json_default))
    return EXIT_OK if report["passed"] else EXIT_MISMATCH


def _sweep_cells(grid: dict):
    keys = sorted(grid)
    values = [grid[k] for k in keys]
    for combo in itertools.product(*values):
        yield dict(zip(keys, combo))


def _cell_name(index: int, assignment: dict) -> str:
    parts = [f"{k.replace('.', '_')}={v}" for k, v in sorted(assignment.items())]
    safe = "_".join(parts).replace("/", "-").replace(" ", "")
    return f"cell_{index:03d}_{safe}" if safe else f"cell_{index:03d}"


def _run_cell(index, assignment, cfg, seed, bundle, out_root):
    cell_cfg = json.loads(json.dumps({k: v for k, v in cfg.items() if k != "grid"}))
    for dotted, value in assignment.items():
        _set_dotted(cell_cfg, dotted, value)
    out_dir = out_root / _cell_name(index, assignment)
    final = None
    try:
        _validate_run_config(cell_cfg)
        code, final = _execute_run(cell_cfg, seed, bundle, out_dir)
        status = "ok" if code == EXIT_OK else "nonconverged"
    except Exception as exc:  # record, do not abort the sweep
        status = f"failed: {exc}"
    return index, assignment, status, final


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config, args.override)
    grid = cfg.get("grid")
    if not isinstance(grid, dict) or not grid or any(not v for v in grid.values()):
        raise ConfigError("sweep needs a non-empty 'grid' of value lists")
    seed = _resolve_seed(cfg, args.seed)
    base = Path(args.config).resolve().parent
    bundle = _load_problem(cfg, args.problem, base)
    out_root = Path(args.out if args.out is not None else cfg.get("out", "sweep"))
    out_root.mkdir(parents=True, exist_ok=True)
    results = [_run_cell(i, a, cfg, seed, bundle, out_root)
               for i, a in enumerate(_sweep_cells(grid))]
    keys = sorted(grid)
    with open(out_root / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell"] + keys + ["status", "final_total"])
        for index, assignment, status, final in results:
            writer.writerow([index] + [assignment[k] for k in keys]
                            + [status.replace(",", ";"), final])
    failed = any(status != "ok" for _, _, status, _ in results)
    return EXIT_PARTIAL if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sekit",
        description="Composable learning-objective engine on finite domains")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a recipe from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--problem", default=None,
                       help="problem bundle JSON (overrides the config)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--override", action="append", type=_parse_override,
                       default=[], metavar="KEY=VALUE")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="compare a recipe to its oracle")
    p_check.add_argument("--recipe", required=True)
    p_check.add_argument("--oracle", default=None)
    p_check.add_argument("--problem", required=True)
    p_check.add_argument("--tol", type=float, required=True)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="run a config grid cross-product")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--problem", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--override", action="append", type=_parse_override,
                         default=[], metavar="KEY=VALUE")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; our contract reserves 2 for
        # non-convergence, so remap
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # ConfigError and BundleError are ValueErrors, as are a bad recipe pair
    # and a bad recipe input
    try:
        return args.func(args)
    except (NotFound, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
