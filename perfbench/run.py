"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload paper_window --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points (see ``layers.py``) and reports the per-layer
ledger instead.  Every run also writes a run record (seed, host
fingerprint, per-round samples, operation counts) under
``.perfbench-runs/`` in the checkout.  The program under test is
imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import checker
    import layers
    from workloads import WORKLOADS, steal_ticks

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # One core for the whole run (shard processes inherit it through
    # fork): with more busy processes than the host gives vCPUs, every
    # process handoff waits for a stolen or idle vCPU, and the figures
    # measure the hypervisor (README.md, "More busy processes than cores").
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    RUNS.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stamp}-", dir=RUNS))
    steal_start, started = steal_ticks(), time.time()
    marks: list = []
    tracer = layers.install(workdir / "spans") if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir, marks)
    extra = {}
    try:
        metrics = workload.run()
    except checker.CheckFailure as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": workload.attempted,
                          "failed": workload.failed, "metrics": {}}))
        return 1
    if tracer is not None:
        tracer.dump(workdir / "spans" / "main.json", marks)
        extra["end_to_end"] = metrics
        metrics, extra["self_seconds"] = layers.ledger(tracer, workload, marks)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": workload.rounds,
        "host": {**host_fingerprint(), "core": core},
        "steal_ticks": {"start": steal_start, "end": steal_ticks()},
        "wall_s": time.time() - started,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "samples": workload.samples,
        "counts": workload.counts,
        "metrics": metrics,
        **extra,
    }
    (RUNS / f"{stamp}.json").write_text(json.dumps(record, default=float))
    if tracer is not None:
        shutil.move(str(workdir / "spans"), str(RUNS / f"{stamp}-spans"))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
