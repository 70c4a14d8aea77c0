"""Steadiness of the benchmark: run it repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 --sets 2 --seconds 25 compile loose forced width
    python3 perfbench/steady.py --traced --seconds 25 compile

Without ``--traced`` each workload runs ``--sets`` sets of ``--runs``
runs, one set after the other, with seeds 1, 2, ... ``--runs`` in each
set.  For every end-to-end metric and set it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread,
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json; a
spread within a third of the bound is marked ``ok``.  It then prints how
far each later set's median lies from the first set's, as a share of
the first, against the same bound, and the share of failed operations
in each set, which must be the same.

With ``--traced`` each workload runs twice traced with seed 1; the
per-layer values of both runs are printed, and the exact counts must be
equal.  Runs go one after another, each in its own process.  Records go
to ``perfbench/out/steady-*.json``.  Exits 1 when a spread (other than
``setup_s``'s, which is held to its bound only between sets) or a
distance between sets exceeds its bound, the failed shares differ, or
an exact count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402

EXACT = {m for m, unit, _ in LAYER_METRICS if unit == "count"}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - started
    return result


def bounds() -> dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def verdict(share: float, bound: float | None) -> str:
    if bound is None:
        return ""
    return "ok" if share <= bound / 3 else "within bound" if share <= bound else "WIDE"


def spread_table(workload: str, results: list[dict]) -> tuple[dict, dict]:
    """Print the spread of every metric over one set; return the medians
    and the spreads."""
    limits = bounds()
    medians, spreads = {}, {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = limits.get(name)
        medians[name], spreads[name] = med, spread
        print(f"{workload:8s} {name:12s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
              f"  spread {spread:7.2%}  bound {'-' if bound is None else f'{bound:.0%}':>4s}"
              f"  {verdict(spread, bound)}")
    print(f"{workload:8s} failed share per run: {sorted({failed_share(r) for r in results})}"
          f"  correct: {all(r['correct'] for r in results)}"
          f"  longest run: {max(r['elapsed_s'] for r in results):.1f} s")
    return medians, spreads


def failed_share(result: dict) -> float:
    return result["failed"] / result["attempted"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    (HERE / "out").mkdir(exist_ok=True)
    limits = bounds()
    status = 0
    for workload in args.workloads:
        if args.traced:
            first, second = (run_once(workload, 1, args.seconds, 1) for _ in range(2))
            for name, metric in first["metrics"].items():
                a, b = metric["value"], second["metrics"][name]["value"]
                same = "" if name not in EXACT else ("same" if a == b else "DIFFERENT")
                if same == "DIFFERENT":
                    status = 1
                print(f"{workload:8s} {name:26s} {a!s:>22s} {b!s:>22s} {metric['unit']:5s} {same}")
            record = {"workload": workload, "seed": 1, "runs": [first, second]}
            out = HERE / "out" / f"steady-{workload}-traced.json"
        else:
            sets, medians = [], []
            for k in range(args.sets):
                print(f"{workload:8s} set {k + 1}")
                results = [run_once(workload, seed, args.seconds, 0)
                           for seed in range(1, args.runs + 1)]
                sets.append(results)
                set_medians, spreads = spread_table(workload, results)
                medians.append(set_medians)
                # set-up time is held to its bound between sets only
                if any(spread > limits.get(name, 1) for name, spread in spreads.items()
                       if name != "setup_s"):
                    status = 1
            for k in range(1, args.sets):
                for name, med in medians[k].items():
                    first = medians[0][name]
                    shift = (med - first) / first
                    bound = limits.get(name)
                    print(f"{workload:8s} {name:12s} set {k + 1} median vs set 1: {shift:+7.2%}"
                          f"  bound {'-' if bound is None else f'{bound:.0%}':>4s}"
                          f"  {verdict(abs(shift), bound)}")
                    if bound is not None and abs(shift) > bound:
                        status = 1
            shares = [sorted({failed_share(r) for r in results}) for results in sets]
            if any(s != shares[0] or len(s) != 1 for s in shares):
                print(f"{workload:8s} failed shares differ: {shares}")
                status = 1
            record = {"workload": workload, "seconds": args.seconds,
                      "medians": medians, "sets": sets}
            out = HERE / "out" / f"steady-{workload}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
