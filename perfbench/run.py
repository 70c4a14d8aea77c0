"""Closed-loop benchmark of rxc through its library API.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

One caller runs the workload's operations one after another, in whole
rounds, until ``--seconds`` have passed; every round runs the same
operations.  Each output is checked outside the timed region.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  A fuller
record goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The reference loop: fixed work in pure-Python integer arithmetic that
# allocates no container, so neither the program's heap nor the garbage
# collector changes its speed.  A sample is one timed run of the loop,
# about 1.5 ms here.  It is not the least of several runs: the least
# run misses the interference the operations themselves run through.
REF_ITERATIONS = 12000
# A reference sample is taken before an operation once this much
# operation time has passed since the previous sample.
REF_GAP_S = 0.02
# Set-up (importing rxc and generating the inputs) is timed this many
# times per run, each time in a fresh child process that this one waits
# for, so every sample starts from the same state.  The samples are
# spread evenly over the run, between rounds, so they fall in the
# machine's fast and slow phases alike; the median is reported.
SETUP_SAMPLES = 12
# Every workload runs at least this many operations per round, so the
# tail percentile below always has ten operations beyond it.
MIN_OPS = 40


def reference_loop(n: int = REF_ITERATIONS) -> int:
    x = 0
    while n:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        n -= 1
    return x


def reference_sample() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def tail_percentile(n_ops: int) -> int:
    """The highest whole percentile with at least ten operations beyond it."""
    return (100 * (n_ops - 10)) // n_ops


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, ceil(p / 100 * len(ordered))) - 1]


def setup(workload: str, seed: int):
    """Import rxc and generate the inputs; return the seconds taken and
    the operations."""
    t0 = perf_counter()
    import workloads

    ops = workloads.WORKLOADS[workload](workloads.load_rxc(), seed)
    return perf_counter() - t0, ops


def child_setup(workload: str, seed: int) -> float:
    """One set-up timed in a fresh child process, which this one waits for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-sample"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Round:
    """Times and reference-normalised times of one pass over the operations."""

    def __init__(self, ops, tracer=None):
        self.times: list[float] = []
        self.ratios: list[float] = []
        self.crashed = 0     # operations that raised
        self.mismatched = 0  # operations whose output failed its check
        self.messages: list[str] = []
        refs: list[tuple[int, float]] = []
        since = float("inf")
        for i, op in enumerate(ops):
            if since >= REF_GAP_S:
                refs.append((i, reference_sample()))
                since = 0.0
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # a crash is a failed operation; the run goes on
                error = exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            self.times.append(dt)
            since += dt
            if error is not None:
                self.crashed += 1
                self.messages.append(f"{op.name}: raised {error!r}")
                continue
            try:
                message = op.check(out)
            except Exception as exc:  # an output the check cannot read is wrong
                message = f"check raised {exc!r}"
            if message:
                self.mismatched += 1
                self.messages.append(f"{op.name}: {message}")
        refs.append((len(ops), reference_sample()))
        # Each operation is divided by the mean of the reference samples
        # taken just before and just after it.
        k = 0
        for i, dt in enumerate(self.times):
            while refs[k + 1][0] <= i:
                k += 1
            self.ratios.append(dt / ((refs[k][1] + refs[k + 1][1]) / 2))
        self.wall = sum(self.times)


def summarise(rounds: list[Round]) -> dict:
    """End-to-end timings, from each operation's median across rounds.

    The raw timings (keys starting with ``_``) go to the record only:
    the machine alternates between faster and slower phases lasting
    seconds, and between runs and sets of runs they move by up to a
    third, beyond any usable bound.  ``_wall_s`` is the mean round, which
    averages the phases.
    """
    n_ops = len(rounds[0].times)
    op_s = [statistics.median(r.times[i] for r in rounds) for i in range(n_ops)]
    op_ref = [statistics.median(r.ratios[i] for r in rounds) for i in range(n_ops)]
    p = tail_percentile(n_ops)
    return {
        "_wall_s": statistics.mean(r.wall for r in rounds),
        "wall_ref": sum(op_ref),
        "op_p50_ref": statistics.median(op_ref),
        "op_tail_ref": percentile(op_ref, p),
        "_op_p50_ms": statistics.median(op_s) * 1e3,
        "_op_tail_ms": percentile(op_s, p) * 1e3,
        "_tail_percentile": p,
        "_op_s": op_s,
    }


UNITS = {"wall_ref": "ref", "op_p50_ref": "ref", "op_tail_ref": "ref",
         "setup_s": "s", "peak_rss_mb": "MB"}


def measure(ops, seconds: float, sample_setup):
    """Run whole rounds until ``seconds`` have passed; between rounds,
    take the set-up samples due by then, SETUP_SAMPLES in all."""
    rounds: list[Round] = []
    setups: list[float] = []
    start = perf_counter()
    while not rounds or perf_counter() < start + seconds:
        # Objects alive now (the benchmark's own inputs and records) are
        # moved out of the collector's reach, so they add nothing to the
        # cost of the collections the program's own garbage triggers.
        gc.collect()
        gc.freeze()
        rounds.append(Round(ops))
        due = SETUP_SAMPLES * (perf_counter() - start) / max(seconds, 1e-9)
        while len(setups) < min(due, SETUP_SAMPLES):
            setups.append(sample_setup())
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample_setup())
    return rounds, setups


def measure_traced(ops, seconds: float):
    """Alternate untraced and traced rounds; per-layer values are medians
    over the traced rounds, counts come from the first traced round."""
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer()
    plain: list[Round] = []
    traced: list[Round] = []
    layers: list[dict] = []
    first_spans = None
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        gc.collect()
        gc.freeze()
        plain.append(Round(ops))
        gc.collect()
        gc.freeze()
        tracer.reset()
        tracer.install()
        try:
            traced.append(Round(ops, tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_values())
        if first_spans is None:
            first_spans = tracer.spans
    values: dict[str, float | None] = {}
    for metric, unit, _source in LAYER_METRICS:
        seen = [v[metric] for v in layers]
        if seen[0] is None:
            values[metric] = None
        elif unit == "count":
            if len(set(seen)) != 1:
                print(f"warning: {metric} differs between traced rounds: {seen}",
                      file=sys.stderr)
            values[metric] = seen[0]
        else:
            values[metric] = statistics.median(seen)
    values["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                  - statistics.median(r.wall for r in plain))
    return plain + traced, values, first_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile", "loose", "forced", "width"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help="time one set-up, print the seconds and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rxc" / "__init__.py").is_file():
        print(f"error: no rxc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # String hashing is randomised per process unless pinned; pin it so
    # that set and dict layouts, and with them the counts, repeat.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_sample:
        print(setup(args.workload, args.seed)[0])
        return 0
    _, ops = setup(args.workload, args.seed)
    if len(ops) < MIN_OPS:
        print(f"error: {len(ops)} operations per round, fewer than {MIN_OPS}", file=sys.stderr)
        return 2
    setups: list[float] = []
    if args.trace:
        rounds, layer_values, spans = measure_traced(ops, args.seconds)
    else:
        rounds, setups = measure(ops, args.seconds,
                                 lambda: child_setup(args.workload, args.seed))
    attempted = len(ops) * len(rounds)
    failed = sum(r.crashed + r.mismatched for r in rounds)
    for line in [m for r in rounds for m in r.messages][:20]:
        print(f"failed: {line}", file=sys.stderr)

    summary = summarise(rounds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_round": len(ops),
        "rounds": len(rounds),
        "tail_percentile": summary["_tail_percentile"],
        "wall_s": summary["_wall_s"],
        "op_p50_ms": summary["_op_p50_ms"],
        "op_tail_ms": summary["_op_tail_ms"],
        "setup_samples_s": setups,
        "op_names": [op.name for op in ops],
        "op_median_ms": [t * 1e3 for t in summary["_op_s"]],
        "round_wall_s": [r.wall for r in rounds],
        "round_wall_ref": [sum(r.ratios) for r in rounds],
        "round_op_ms": [[round(t * 1e3, 4) for t in r.times] for r in rounds],
        "round_op_ref": [[round(q, 5) for q in r.ratios] for r in rounds],
    }
    if args.trace:
        from tracing import LAYER_METRICS

        units = {m: u for m, u, _ in LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        metrics = {m: {"value": v, "unit": units[m]} for m, v in layer_values.items()}
        for m, v in layer_values.items():
            if v is None:
                metrics[m]["missing"] = True
    else:
        values = {k: v for k, v in summary.items() if not k.startswith("_")}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    result = {
        "correct": not any(r.mismatched for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record["result"] = result
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in spans]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
