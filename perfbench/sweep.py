"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --out runs.jsonl --seeds 1-10
    python3 perfbench/sweep.py --out runs.jsonl --seeds 1-5 --workloads mdp --trace 1

Each run is a separate `run.py` process, started only after the previous one
ended, and appends its record to --out.  The summary gives, per workload and
end-to-end metric, the median and the spread (quartile distance over
median) against the metric's bound in BENCHMARK.json.  Two such files are
what `run.py --compare` reads.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    failed = False
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            ok = proc.returncode == 0 and '"correct": true' in last[0]
            failed |= not ok
            print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'}", flush=True)
            if not ok:
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)

    if not args.trace:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for (workload, _), runs in sorted(compare.load_runs(args.out).items()):
            for name, bound in bounds.items():
                values = [r[name] for r in runs if name in r]
                s = compare.spread(values)
                flag = "" if s <= bound / 3 else ("  > bound/3" if s <= bound
                                                   else "  > bound")
                print(f"{workload:16s} {name:12s} n={len(values):2d} "
                      f"median={statistics.median(values):.6g} spread={s:.4f} "
                      f"bound={bound}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
