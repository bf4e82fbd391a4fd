"""Child process of the benchmark: one workload repetition, or the probes.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/ and BLAS threads pinned to one.  Prints one JSON line.

    python3 bench/worker.py rep scan-ring --seed 1 [--trace] [--check] [--small] [--setup-only]
    python3 bench/worker.py probes --workdir DIR [--small]
    python3 bench/worker.py env
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import qdeco

ROOT = Path(__file__).resolve().parent.parent
if not Path(qdeco.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"qdeco was imported from {qdeco.__file__}, not from {ROOT / 'src'}")

from qdeco.graphdiag import PartitionScanReport  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

CALIBRATE_EVERY_S = 0.1


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
    }


def rep(ns: argparse.Namespace) -> dict:
    tracer = Tracer(ns.run_id, enabled=ns.trace)
    tasks = workloads.build(ns.workload, ns.seed, ns.small)
    ready = time.monotonic()
    if ns.setup_only:
        return {"ready": ready}

    results, failures, seconds = {}, {}, {}
    # The calibration kernel runs before the first task and after every
    # CALIBRATE_EVERY_S of tasks; each stretch of tasks between two kernel
    # runs is normalized by their mean (see calibrate.py).
    kernel = [calibrate.sample()]
    stretch, norm_wall = 0.0, 0.0
    with tracer.span("run"):
        for i, t in enumerate(tasks):
            t0 = time.perf_counter()
            with tracer.span(t.span):
                try:
                    results[t.name] = t.call()
                except Exception as exc:  # one failed task must not stop the run
                    failures[t.name] = f"{type(exc).__name__}: {exc}"
            seconds[t.name] = time.perf_counter() - t0
            stretch += seconds[t.name]
            if stretch >= CALIBRATE_EVERY_S or i == len(tasks) - 1:
                kernel.append(calibrate.sample())
                norm_wall += calibrate.normalize(stretch, kernel[-2], kernel[-1])
                stretch = 0.0
    wall = sum(seconds.values())

    outputs = {t.name: t.summary(results[t.name]) for t in tasks if t.name in results}
    if ns.check:
        import checks

        failures.update(checks.check(ns.workload, tasks, results, outputs, ns.seed, ns.small))
    splits = sum(len(r.entries) for r in results.values() if isinstance(r, PartitionScanReport))
    return {
        "ready": ready,
        "wall_s": wall,
        "norm_wall_s": norm_wall,
        "kernel_s": kernel,
        "attempted": len(tasks),
        "failures": failures,
        "outputs": outputs,
        "seeded": [t.name for t in tasks if t.seeded],
        "counts": {"splits": splits},
        "spans": tracer.spans,
    }


def probes(ns: argparse.Namespace) -> dict:
    import probes

    metrics, failures = probes.run(ns.small, Path(ns.workdir))
    return {"metrics": metrics, "failures": failures}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("rep")
    r.add_argument("workload", choices=sorted(workloads.BUILDERS))
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--trace", action="store_true")
    r.add_argument("--check", action="store_true")
    r.add_argument("--run-id", default="")
    r.add_argument("--setup-only", action="store_true", help="exit once the inputs are built")
    p = sub.add_parser("probes")
    p.add_argument("--workdir", required=True)
    for s in (r, p):
        s.add_argument("--small", action="store_true", help="reduced sizes of the self-check")
    sub.add_parser("env")
    ns = ap.parse_args()
    run = {"rep": rep, "probes": probes, "env": lambda ns: environment()}[ns.mode]
    print(json.dumps(run(ns)))


if __name__ == "__main__":
    main()
