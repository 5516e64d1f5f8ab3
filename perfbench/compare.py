"""Compare two result files written by `run.py --out` (JSON lines).

    python3 perfbench/run.py --compare base.jsonl new.jsonl

Runs are grouped by workload and by traced / untraced.  For every metric it
prints the new median over the base median (the ratio) and the base median
itself.  An end-to-end metric is flagged REGRESSED when it got worse by more
than its bound in BENCHMARK.json, and "unresolved" when the run-to-run
spread (quartile distance over median, on either side) is wider than that
bound, unless every new run reads better than every base run.  Per-layer
metrics have no bound and are printed for information.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path) -> Dict[tuple, List[dict]]:
    """{(workload, trace): [metric values of each run]}"""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                metrics = rec["result"]["metrics"]
                runs[(rec["workload"], rec["trace"])].append(
                    {k: v["value"] for k, v in metrics.items()})
    return runs


def spread(values: List[float]) -> float:
    """Quartile distance over median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> str:
    b, n = statistics.median(base), statistics.median(new)
    if better == "lower":
        all_better, worse = max(new) < min(base), n - b > bound * abs(b)
    else:
        all_better, worse = min(new) > max(base), b - n > bound * abs(b)
    if all_better:
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    return "REGRESSED" if worse else "ok"


def _ratio(base: List[float], new: List[float]) -> str:
    b, n = statistics.median(base), statistics.median(new)
    return f"{n / b:.3f}x" if b else ("1.000x" if n == b else "inf")


def main(base_path, new_path, bench_path=ROOT / "BENCHMARK.json") -> int:
    spec = json.loads(Path(bench_path).read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load_runs(base_path), load_runs(new_path)
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b_runs, n_runs = base[key], new[key]
        names = [n for n in b_runs[0] if all(n in r for r in b_runs + n_runs)]
        if not trace:
            cells = []
            for name in names:
                b = [r[name] for r in b_runs]
                n = [r[name] for r in n_runs]
                m = e2e.get(name)
                v = verdict(b, n, m["better"], m["bound"]) if m else "-"
                regressed |= v == "REGRESSED"
                cells.append(f"{name} {_ratio(b, n)} of {statistics.median(b):.6g}"
                             f" [{v}]")
            print(f"{workload:16s} runs {len(b_runs)}/{len(n_runs)}  " + "  ".join(cells))
        else:
            print(f"{workload:16s} traced runs {len(b_runs)}/{len(n_runs)}")
            for name in names:
                b = [r[name] for r in b_runs]
                n = [r[name] for r in n_runs]
                print(f"  {name:52s} {_ratio(b, n):>10s} of {statistics.median(b):.6g}")
    only = sorted(set(base) ^ set(new))
    if only:
        print("not in both files: " + ", ".join(f"{w} trace={t}" for w, t in only))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
