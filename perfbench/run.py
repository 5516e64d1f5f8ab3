"""sekit benchmark: one workload, one seed, one process, one job at a time.

    python3 perfbench/run.py --workload adversarial --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare base.jsonl new.jsonl

With --trace 0 it measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it makes a separate traced run for the per-layer metrics.  The
last line of standard output is the result object.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# One BLAS thread, which is at or below nproc on any machine.  Everything
# else in a run is single-threaded Python, and on a 2-core box a second
# OpenBLAS thread made a length-1e5 dot product take ~8 ms instead of ~36 us.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS cap)

import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("outer_iters", "count"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 3


def per_layer_spec():
    """(name, unit) of every per-layer metric, in report order."""
    import kernels
    import tracer

    out = []
    for cat in tracer.LAYERS + tracer.EXTERNAL:
        out += [(f"{cat}.self_s", "s"), (f"{cat}.calls", "count")]
    out.append(("trace.overhead_s", "s"))
    out += kernels.spec()
    out += [(f"recipes.{r}.dev", "dev") for r in sorted(
        r for w in workloads.WORKLOADS for r in workloads.recipes_of(w))]
    return out


# ---------------------------------------------------------------------------
# Environment header
# ---------------------------------------------------------------------------

def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh}
        libs = sorted(p for p in paths if "openblas" in p.lower() and ".so" in p)
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads_in_use(),
        "blas_threads_cap": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Bench:
    """Owns the loaded bundles, the job list and the run-recipe capture."""

    def __init__(self, workload: str, seed: int, size: str):
        self.payloads = workloads.generate(workload, seed, size)  # untimed
        self.jobs = workloads.jobs(workload, seed, size)

    def setup(self) -> tuple:
        """Import sekit, load every bundle, run the untimed warm-up pass.
        Returns (seconds, warm-up outcomes)."""
        t0 = perf_counter()
        self._import_sekit()
        self.bundles = self.load()
        self.capture = workloads.RunCapture(self.recipes, sys.modules["sekit"])
        warm = self.run_pass()
        return perf_counter() - t0, warm

    def _import_sekit(self):
        sys.path.insert(0, str(ROOT / "src"))
        import sekit.bundles
        import sekit.recipes
        src = Path(sekit.__file__).resolve()
        if ROOT / "src" not in src.parents:
            raise ImportError(f"sekit imported from {src}, not from {ROOT / 'src'}")
        self.recipes = sekit.recipes
        self.bundle_module = sekit.bundles

    def load(self):
        # looked up per call, so a traced run sees the wrapped loader
        return workloads.load(self.payloads, self.bundle_module.load_bundle)

    def run_pass(self, bundles=None):
        bundles = self.bundles if bundles is None else bundles
        return [workloads.run_job(job, bundles, self.recipes.check_equivalence,
                                  self.capture) for job in self.jobs]


def _bad(outcomes, reference) -> int:
    """Job executions that failed their check or whose deterministic outputs
    differ from the reference pass."""
    return sum(not o.passed or o.fingerprint != r.fingerprint
               for o, r in zip(outcomes, reference))


def _setup_probe(args) -> int:
    bench = Bench(args.workload, args.seed, args.size)
    seconds, warm = bench.setup()
    print(json.dumps({"setup_s": seconds,
                      "outcomes": [[o.passed, o.fingerprint] for o in warm]}))
    return 0


def _probe_child(args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(args):
    bench = Bench(args.workload, args.seed, args.size)
    setup_s, warm = bench.setup()
    setups = [setup_s]
    failed = _bad(warm, warm)
    attempted = len(warm)
    # further set-up samples, each in a fresh interpreter so import and
    # first-pass costs are paid again; their outcomes must match this one's
    for _ in range(SETUP_SAMPLES - 1):
        probe = _probe_child(args)
        setups.append(probe["setup_s"])
        attempted += len(warm)
        failed += sum(not passed or fp != w.fingerprint
                      for (passed, fp), w in zip(probe["outcomes"], warm))
    passes, iters = [], []
    t_start = perf_counter()
    while not passes or perf_counter() - t_start < args.seconds:
        t0 = perf_counter()
        outcomes = bench.run_pass()
        passes.append(perf_counter() - t0)
        iters.append(sum(o.outer_iters for o in outcomes))
        attempted += len(outcomes)
        failed += _bad(outcomes, warm)
    bench.capture.close()
    values = {
        "wall_s": statistics.median(passes),
        "outer_iters": statistics.median(iters),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"passes": len(passes), "pass_s": passes, "setup_samples": setups}
    return values, dict(END_TO_END), attempted, failed, warm, samples


def traced_run(args):
    import kernels
    import tracer

    bench = Bench(args.workload, args.seed, args.size)
    _, warm = bench.setup()
    t0 = perf_counter()
    plain = bench.run_pass(bench.load())
    untraced_s = perf_counter() - t0
    spans = tracer.Tracer()
    with spans:
        t0 = perf_counter()
        traced = bench.run_pass(bench.load())
        traced_s = perf_counter() - t0
    bench.capture.close()
    attempted = 3 * len(warm)
    failed = _bad(warm, warm) + _bad(plain, warm) + _bad(traced, warm)

    values = spans.totals()
    values["trace.overhead_s"] = traced_s - untraced_s
    values.update(kernels.measure(args.seed, args.size))
    ran = {}
    for o in warm:
        # JSON has no infinity: an infinite or NaN deviation reads 1e300
        dev = o.deviation if math.isfinite(o.deviation) else 1e300
        ran[o.recipe] = max(ran.get(o.recipe, 0.0), dev)
    units = dict(per_layer_spec())
    for name in units:
        if name.startswith("recipes.") and name.endswith(".dev"):
            # -1 marks a recipe this workload does not run
            values[name] = ran.get(name[len("recipes."):-len(".dev")], -1.0)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans.save(out_dir / f"spans-{args.workload}.npz")
    samples = {"untraced_s": untraced_s, "traced_s": traced_s,
               "spans": len(spans.start)}
    return values, units, attempted, failed, warm, samples


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    ap.add_argument("--out", help="append the full record to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two result files and exit")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1])
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        return _setup_probe(args)

    env = environment()
    print("# env " + json.dumps(env), flush=True)
    run = traced_run if args.trace else timed_run
    values, units, attempted, failed, warm, samples = run(args)
    for o in warm:
        status = "ok" if o.passed else f"FAIL {o.error or ''}"
        print(f"# job {o.label:32s} dev {o.deviation:.3e} iters {o.outer_iters:6d} {status}")
    print("# samples " + json.dumps(
        {k: (f"n={len(v)} median={statistics.median(v):.4g} min={min(v):.4g} "
             f"max={max(v):.4g}" if isinstance(v, list) else v)
         for k, v in samples.items()}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "size": args.size, "seconds": args.seconds,
                  "env": env, "samples": samples, "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:  # no sekit source next to the benchmark
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        sys.exit(2)
