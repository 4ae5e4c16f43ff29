"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py``.  ``run.py`` always
writes to ``.perfbench-out/results/`` and names a file by workload, seed and
trace mode only, so a second set of runs with the same seeds overwrites the
first: move the directory aside (say to ``.perfbench-out/base``) after
measuring one commit and before measuring the other.  Results are paired by
workload, seed and trace mode.  The comparison is refused, with exit code 2,
when both arguments name the same directory, when the sets do not hold the
same runs, or when a pair was measured on different inputs, because then the
numbers describe different workloads.  Differences in the recorded
environment (CPU count, versions, BLAS threads) are printed as warnings.

For each workload and metric both sets are printed as median and spread (the
distance between the quartiles as a share of the median), with the relative
change of the medians.  A metric that ``BENCHMARK.json`` bounds also gets a
verdict: ``unresolved`` when the base set's spread is wider than the bound
(unless every new run reads better than every base run), otherwise
``regression`` when the new median is worse by more than the bound, and
``within bound`` when it is not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from common import comparable

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory: Path) -> dict[tuple, dict]:
    results = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        results[(doc["workload"], doc["seed"], doc["trace"])] = doc
    return results


def refusals(base: dict[tuple, dict], new: dict[tuple, dict]) -> list[str]:
    """Why the two sets may not be compared; empty when they may."""
    reasons = []
    for key in sorted(set(base) ^ set(new)):
        reasons.append(f"{key}: present in only one set")
    for key in sorted(set(base) & set(new)):
        reasons.extend(f"{key}: {r}" for r in comparable(base[key], new[key]))
    return reasons


def env_warnings(base: dict[tuple, dict], new: dict[tuple, dict]) -> list[str]:
    warnings = set()
    for key in set(base) & set(new):
        a, b = base[key]["env"], new[key]["env"]
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                warnings.add(f"environment differs in {name}: {a.get(name)!r} vs {b.get(name)!r}")
    return sorted(warnings)


def bounds() -> dict[str, tuple[float, str]]:
    """Bound and better direction of each end-to-end metric."""
    if not BENCHMARK_JSON.exists():
        return {}
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: (m["bound"], m["better"]) for m in doc.get("end_to_end", [])}


def spread(values: list[float]) -> float | None:
    """Distance between the quartiles as a share of the median; None when it
    cannot be computed (fewer than two values or a zero median)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """How the new runs ``b`` compare with the base runs ``a`` under ``bound``."""
    sign = 1.0 if better == "lower" else -1.0
    base_spread = spread(a)
    if base_spread is None or base_spread > bound:
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "better in every run"
        return "unresolved"
    worse_by = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    return "regression" if worse_by > bound else "within bound"


def _spread_text(values: list[float]) -> str:
    s = spread(values)
    return "   n/a" if s is None else f"{s:6.1%}"


def summary_lines(base: dict[tuple, dict], new: dict[tuple, dict]) -> list[str]:
    limits = bounds()
    lines = []
    for workload, trace in sorted({(k[0], k[2]) for k in base}):
        keys = [k for k in base if k[0] == workload and k[2] == trace]
        lines.append(f"{workload} (trace {trace}, {len(keys)} runs per side; "
                     f"median [spread] base -> new)")
        for metric in base[keys[0]]["metrics"]:
            a = [base[k]["metrics"][metric] for k in keys]
            b = [new[k]["metrics"][metric] for k in keys]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            line = (f"  {metric:<48} {ma:>12.6g} [{_spread_text(a)}] -> "
                    f"{mb:<12.6g} [{_spread_text(b)}] {change:+8.2%}")
            if metric in limits:
                bound, better = limits[metric]
                line += f"  bound {bound:.0%}: {verdict(a, b, bound, better)}"
            lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.base.resolve() == args.new.resolve():
        print("refusing to compare a result set with itself", file=sys.stderr)
        return 2
    base, new = load_set(args.base), load_set(args.new)
    if not base:
        print(f"no results in {args.base}", file=sys.stderr)
        return 2
    reasons = refusals(base, new)
    if reasons:
        print("refusing to compare:", file=sys.stderr)
        for reason in reasons:
            print(f"  {reason}", file=sys.stderr)
        return 2
    for warning in env_warnings(base, new):
        print(f"WARNING {warning}")
    print("\n".join(summary_lines(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
