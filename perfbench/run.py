"""Run one benchmark workload at a seed, check its outputs, print its metrics.

    python3 perfbench/run.py --workload explore --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout: it imports the program from
``src/``. The workloads are ``explore``, ``rerank``, ``pipeline_1m`` and
``serve_chaos`` (see ``workloads.py`` and ``BENCHMARK.json``).

One run repeats set-up plus operation at the one seed until
``--seconds`` have passed and at least three operations ran. ``setup_s``
and ``wall_ref_s`` are the median set-up and operation times at the
host's reference speed (see ``CALIBRATION_REFERENCE_S``); ``wall_s`` is
the raw median. Every operation is checked (``metrics.check_outcome``);
a failed check or an exception counts as a failed operation and makes
the run exit with status 1.

``--trace 0`` times untraced operations and reports BENCHMARK.json's
``end_to_end`` metrics. ``--trace 1`` alternates untraced and traced
operations, reports its ``per_layer`` metrics from the traced ones, and
``trace.overhead_share`` as the traced median over the untraced median
operation time, minus one.

Everything printed before the last line lists each metric with its unit,
median, quartiles and sample count, and the environment. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record, and for a
traced run the spans of its last traced operation, go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Operations a run makes at least, whatever ``--seconds`` says: enough
#: for a median and quartiles, and for the same-seed output check.
MIN_OPERATIONS = 3
#: Traced and untraced operations a ``--trace 1`` run makes at least.
MIN_TRACED = 2
#: The host's speed drifts by up to 1.6x for tens of seconds at a time,
#: on both cores, so raw times of runs made minutes apart mostly measure
#: the host. Each operation and its set-up are therefore also reported
#: at a reference speed: scaled by CALIBRATION_REFERENCE_S over the time
#: of a fixed pure-Python loop (CALIBRATION_LOOP iterations) measured
#: just before and after them. Raw times are reported next to them.
CALIBRATION_LOOP = 400_000
CALIBRATION_REFERENCE_S = 0.030


def load_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def source_identity() -> dict:
    """The commit, when the checkout has one, and a digest of ``src/``."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        **source_identity(),
    }


def calibration() -> float:
    """Seconds this host takes for a fixed pure-Python loop right now."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - started


def measure(workload, seed: int, seconds: float, trace: bool, reference: dict | None) -> dict:
    """Set up, run and check one workload; return the run's record."""
    from metrics import check_outcome, layer_metrics, summarize, user_metrics, work
    from spans import Tracer, instrumented

    tracer = Tracer()
    # Per successful operation: (traced?, set-up s, operation s, speed
    # scale). The scale is CALIBRATION_REFERENCE_S over the mean of the
    # calibrations just before and after the operation.
    samples: list[tuple[bool, float, float, float]] = []
    layers: list[dict[str, float]] = []
    first = last = None
    attempted = failed = 0
    errors: list[str] = []
    need_untraced = MIN_TRACED if trace else MIN_OPERATIONS
    need_traced = MIN_TRACED if trace else 0
    deadline = time.perf_counter() + seconds
    before = calibration()
    while True:
        tracing = trace and attempted % 2 == 1
        attempted += 1
        try:
            # A fresh set-up before every operation spreads the set-up
            # samples over the run, so they see the same host speed as
            # the operations do.
            started = time.perf_counter()
            state = workload.setup(seed)
            setup = time.perf_counter() - started
            if tracing:
                tracer.reset()
            with instrumented(tracer) if tracing else nullcontext():
                started = time.perf_counter()
                outcome = workload.run(state, seed)
                wall = time.perf_counter() - started
        except Exception:
            failed += 1
            errors.append(f"operation {attempted}: " + traceback.format_exc())
            if first is None:
                break
        else:
            after = calibration()
            samples.append((tracing, setup, wall, CALIBRATION_REFERENCE_S * 2 / (before + after)))
            before = after
            problems = check_outcome(outcome, first, reference)
            if problems:
                failed += 1
                errors.extend(f"operation {attempted}: {p}" for p in problems)
            first = first or outcome
            last = outcome
            if tracing:
                layers.append(layer_metrics(tracer.totals(), tracer.counts, outcome))
        traced_count = sum(s[0] for s in samples)
        enough = (
            len(samples) - traced_count >= need_untraced and traced_count >= need_traced
        )
        if (enough or failed) and time.perf_counter() >= deadline:
            break

    untraced = [s for s in samples if not s[0]]
    traced = [s for s in samples if s[0]]
    record = {
        "workload": workload.name,
        "size": {k: repr(v) for k, v in vars(workload).items()},
        "environment": environment(seed),
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "samples": {
            "traced": [s[0] for s in samples],
            "setup_s": [s[1] for s in samples],
            "wall_s": [s[2] for s in samples],
            "speed_scale": [s[3] for s in samples],
        },
        "digest": first.digest if first else None,
        "fitness": first.fitness if first else None,
        "metrics": {},
    }
    metrics = record["metrics"]
    if untraced and last is not None:
        units = work(last)
        metrics["setup_s"] = {**summarize(s[1] * s[3] for s in samples), "unit": "s"}
        metrics["wall_ref_s"] = {**summarize(s[2] * s[3] for s in untraced), "unit": "s"}
        metrics["work_per_ref_s"] = {
            **summarize(units / (s[2] * s[3]) for s in untraced), "unit": "1/s"
        }
        metrics["peak_rss_mb"] = {
            **summarize([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
            "unit": "MB",
        }
        metrics["wall_s"] = {**summarize(s[2] for s in untraced), "unit": "s"}
        metrics["speed_scale"] = {**summarize(s[3] for s in samples), "unit": "ratio"}
        metrics["failed_share"] = {**summarize([failed / attempted]), "unit": "ratio"}
        for name, (value, unit) in user_metrics(last, metrics["wall_s"]["median"]).items():
            metrics[name] = {**summarize([value]), "unit": unit}
    if layers:
        for name in layers[0]:
            metrics[name] = summarize(layer[name] for layer in layers)
        overhead = statistics.median(s[2] * s[3] for s in traced) / statistics.median(
            s[2] * s[3] for s in untraced
        )
        metrics["trace.overhead_share"] = {**summarize([overhead - 1]), "unit": "ratio"}
        record["spans"] = tracer
    return record


def result_line(record: dict, bench: dict, trace: bool) -> dict:
    """The run's result: BENCHMARK.json's metrics for this mode, and whether
    every operation passed its checks and every metric was measured."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        found = record["metrics"].get(spec["name"])
        if found is not None:
            metrics[spec["name"]] = {"value": found["median"], "unit": spec["unit"]}
    return {
        "correct": record["failed"] == 0 and len(metrics) == len(wanted),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_report(record: dict) -> None:
    env = record["environment"]
    print(
        f"workload {record['workload']}  seed {env['seed']}  trace {int(record['trace'])}  "
        f"operations {record['attempted']} ({record['failed']} failed)"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in record["metrics"].items():
        print(
            f"  {name:34s} {m['median']:>16.6g} {m['unit']:8s} "
            f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
        )
    for error in record["errors"]:
        print(error, file=sys.stderr)


def write_record(record: dict, stem: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        spans.write(OUT_DIR / f"{stem}.spans.npz")
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    reference = load_json(BENCH_DIR / "reference.json")
    workload = WORKLOADS[args.workload]()
    record = measure(
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        reference.get(workload.name, {}).get(str(args.seed)),
    )
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, summary in record["metrics"].items():
        summary.setdefault("unit", units.get(name, ""))
    print_report(record)
    write_record(record, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = result_line(record, bench, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
