"""Quick mode: show that every check can fail.

    python3 perfbench/selftest.py

Runs every workload at a small size.  Each operation's real output must
pass its check, and a deliberately wrong output of the same shape (a
count off by one, a flipped cell, a wrong width, a flipped membership
or uniqueness answer) must fail it.  Exits 0 only if both hold for
every operation.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if not (ROOT / "src" / "rxc" / "__init__.py").is_file():
        print(f"error: no rxc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    rx = workloads.load_rxc()
    problems = []
    for name, make in workloads.WORKLOADS.items():
        ops = make(rx, 1, quick=True)
        caught = Counter()
        for op in ops:
            out = op.run()
            message = op.check(out)
            if message:
                problems.append(f"{op.name}: right output rejected: {message}")
            if op.check(op.corrupt(out)):
                caught[op.kind] += 1
            else:
                problems.append(f"{op.name}: wrong output ({op.kind}) accepted")
        kinds = ", ".join(f"{k} x{v}" for k, v in sorted(caught.items()))
        print(f"{name:8s} {len(ops):3d} operations; wrong outputs caught: {kinds}")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
