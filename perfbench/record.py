"""Record the reference outputs the benchmark checks operations against.

    python3 perfbench/record.py [--seeds 0-63] [--workload NAME ...]

Runs one operation of each workload at each seed and writes its best
fitness per search and its output digest to ``perfbench/reference.json``
(merging into what is there). Re-record only when a change to the
program is meant to change its outputs, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH_DIR, SRC


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    path = BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text())
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]()
        table = reference.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            outcome = workload.run(workload.setup(seed), seed)
            table[str(seed)] = {"fitness": outcome.fitness, "digest": outcome.digest}
            print(f"{name} seed {seed}: {outcome.digest[:16]} {outcome.fitness}", flush=True)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
