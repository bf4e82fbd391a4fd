#!/usr/bin/env python3
"""The qdeco benchmark.

    python3 bench/run.py --workload scan-ring --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1         # every workload, one table
    python3 bench/run.py --self-check           # reduced sizes, quick

Workloads (see README.md in this directory for why each was chosen):
  scan-ring     partition scans of ring:8 and a seeded cubic graph
  paper-bounds  the paper's headline bounds, hundreds of cheap roots
  cli-readme    the README example commands, each in a fresh interpreter

With --trace 0 a run repeats the workload, each time in a fresh
interpreter, at least MIN_REPS times and as often as fits in --seconds, and
reports wall_s, setup_s and peak_rss_mb (see measure()).  With --trace 1 it
runs every workload once untraced and once traced and reports span, count
and probe metrics of single layers.  The last line of standard output is
one JSON object {correct, attempted, failed, metrics}; error_rate is
failed / attempted.  qdeco is imported only by the child processes
(worker.py), from src/ of the checkout this file lives in; this process
imports numpy only for the calibration kernel (calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import clicmds
from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"  # scratch output: command files, span dumps
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("scan-ring", "paper-bounds", "cli-readme")
MIN_REPS = 3
SETUP_SAMPLES = 11
RUN_BUDGET_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
JOBS = min(2, os.cpu_count() or 1)


class BenchError(Exception):
    """The benchmark itself could not run; no result line is printed."""


@dataclass
class Child:
    code: int
    out: str
    err: str
    rss_mb: float
    launched: float  # time.monotonic() just before the launch
    seconds: float


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(argv: list[str], deadline: float, cwd: Path = ROOT) -> Child:
    """Run one process to completion; peak RSS comes from its own rusage.

    The process is killed if it outlives the run's deadline.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget used up")
    launched = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    timer = threading.Timer(remaining, proc.kill)
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    try:
        timer.start()
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    seconds = time.monotonic() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    if seconds >= remaining:
        raise BenchError(f"{argv[1:3]} did not finish within the run budget")
    return Child(proc.returncode, out, err[0], usage.ru_maxrss / 1024.0, launched, seconds)


@dataclass
class Rep:
    """One repetition of a workload's task list in fresh processes.

    setup_s and norm_wall_s are at the calibration kernel's reference speed
    (calibrate.py); wall_s is as measured.
    """

    setup_s: float
    wall_s: float
    norm_wall_s: float
    rss_mb: float
    attempted: int
    failures: dict[str, str]
    outputs: dict
    counts: dict[str, int]
    spans: list[dict] = field(default_factory=list)


def worker(args: list[str], deadline: float) -> tuple[dict, Child]:
    child = run_child([sys.executable, str(BENCH / "worker.py"), *args], deadline)
    if child.code != 0:
        raise BenchError(f"worker {' '.join(args)} exited {child.code}:\n{child.err[-3000:]}")
    return json.loads(child.out.splitlines()[-1]), child


def inproc_rep(workload, seed, deadline, *, trace=False, check=False, small=False, run_id=""):
    args = ["rep", workload, "--seed", str(seed), "--run-id", run_id]
    args += ["--trace"] * trace + ["--check"] * check + ["--small"] * small
    before = calibrate.sample()
    res, child = worker(args, deadline)
    return Rep(
        setup_s=calibrate.normalize(res["ready"] - child.launched, before, res["kernel_s"][0]),
        wall_s=res["wall_s"],
        norm_wall_s=res["norm_wall_s"],
        rss_mb=child.rss_mb,
        attempted=res["attempted"],
        failures=res["failures"],
        outputs=res["outputs"],
        counts=res["counts"],
        spans=res["spans"],
    )


def cli_rep(seed, deadline, *, trace=False, check=False, small=False, run_id=""):
    """The README commands one after another, each in a fresh interpreter.

    Set-up is a fresh `qdeco --help`; the repetition's wall time is the
    sum of the commands' times, each from launch to exit and normalized by
    the calibration kernel run before and after it; peak RSS is the largest
    of the commands.  The command list has no reduced size, so `small` does not
    change it.
    """
    workdir = OUT / "cli"
    workdir.mkdir(parents=True, exist_ok=True)
    for name in clicmds.OUTPUT_FILES.values():
        (workdir / name).unlink(missing_ok=True)
    entry = [sys.executable, "-c", clicmds.CONSOLE_SCRIPT]
    setup_s = qdeco_help(deadline)

    tracer = Tracer(run_id, enabled=trace)
    commands = clicmds.workload_commands(seed, JOBS)
    done: dict[str, Child] = {}
    kernel = [calibrate.sample()]
    norm_wall = 0.0
    with tracer.span("run"):
        for label, argv in commands:
            with tracer.span(f"cli.{label}"):
                done[label] = run_child(entry + argv, deadline, cwd=workdir)
            kernel.append(calibrate.sample())
            norm_wall += calibrate.normalize(done[label].seconds, kernel[-2], kernel[-1])

    outputs = {label: c.out for label, c in done.items()}
    for label, name in clicmds.OUTPUT_FILES.items():
        path = workdir / name
        outputs[label] = path.read_text() if path.exists() else ""
    failures = {
        label: f"exit {c.code}: {c.err.strip()[-500:]}" for label, c in done.items() if c.code
    }
    counts = {}
    if not failures:
        try:
            counts["splits"] = clicmds.count_splits(outputs)
            if check:
                reference = json.loads(REFERENCE.read_text())["cli-readme"]["full"]
                failures.update(clicmds.check(outputs, reference))
        except (KeyError, IndexError, ValueError) as exc:
            failures["output"] = f"unreadable command output: {exc!r}"

    return Rep(
        setup_s=setup_s,
        wall_s=sum(c.seconds for c in done.values()),
        norm_wall_s=norm_wall,
        rss_mb=max(c.rss_mb for c in done.values()),
        attempted=len(commands),
        failures=failures,
        outputs=outputs,
        counts=counts,
        spans=tracer.spans,
    )


def qdeco_help(deadline: float) -> float:
    """Seconds a fresh `qdeco --help` takes, normalized: cli-readme's set-up time."""
    entry = [sys.executable, "-c", clicmds.CONSOLE_SCRIPT, "--help"]
    before = calibrate.sample()
    helped = run_child(entry, deadline, cwd=OUT)
    if helped.code != 0:
        raise BenchError(f"qdeco --help exited {helped.code}:\n{helped.err[-3000:]}")
    return calibrate.normalize(helped.seconds, before, calibrate.sample())


def setup_sample(workload, seed, deadline, small=False) -> float:
    """One more set-up time, without running the workload."""
    if workload == "cli-readme":
        return qdeco_help(deadline)
    args = ["rep", workload, "--seed", str(seed), "--setup-only"] + ["--small"] * small
    before = calibrate.sample()
    res, child = worker(args, deadline)
    return calibrate.normalize(res["ready"] - child.launched, before, calibrate.sample())


def one_rep(workload, seed, deadline, **kw) -> Rep:
    if workload == "cli-readme":
        return cli_rep(seed, deadline, **kw)
    return inproc_rep(workload, seed, deadline, **kw)


def failed_against(rep: Rep, first: Rep) -> set[str]:
    """Tasks of a later rep that failed: its own errors, the first rep's
    check failures, and any output that differs from the first rep's."""
    differ = {k for k in first.outputs if rep.outputs.get(k) != first.outputs[k]}
    if rep.counts != first.counts:
        differ.add("counts")
    return set(rep.failures) | set(first.failures) | differ


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    messages: list[str]
    notes: list[str]  # printed as `#` lines, not metrics

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure(workload, seed, seconds, deadline, small=False, min_reps=MIN_REPS) -> Result:
    """End-to-end metrics over repetitions, each in fresh processes.

    wall_s, setup_s and peak_rss_mb are medians over the run, set-up over
    at least SETUP_SAMPLES launches.  Both times are normalized to the
    calibration kernel's reference speed (calibrate.py); the raw medians
    are printed as notes.  The first repetition's outputs are checked; each
    later one must reproduce them exactly.
    """
    reps: list[Rep] = []
    start = time.monotonic()
    while True:
        reps.append(one_rep(workload, seed, deadline, check=not reps, small=small))
        took = time.monotonic() - start
        per_rep = took / len(reps)
        if len(reps) >= min_reps and took + per_rep > seconds:
            break  # the next repetition would end after `seconds`
        if time.monotonic() + per_rep > deadline:
            break
    first = reps[0]
    failed = [set(first.failures)] + [failed_against(r, first) for r in reps[1:]]
    setups = [r.setup_s for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload, seed, deadline, small))
    metrics = {
        "wall_s": statistics.median(r.norm_wall_s for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    messages = [f"{workload}: {k}: {v}" for k, v in first.failures.items()]
    messages += [
        f"{workload}: {k}: differs between repetitions"
        for f in failed[1:]
        for k in f - set(first.failures)
    ]
    notes = [
        f"{len(reps)} repetitions, {len(setups)} set-ups; raw wall_s "
        f"{statistics.median(r.wall_s for r in reps):.4f} s; raw / normalized wall "
        f"{statistics.median(r.wall_s / r.norm_wall_s for r in reps):.3f}"
    ]
    return Result(metrics, sum(r.attempted for r in reps), sum(map(len, failed)), messages, notes)


def trace_run(seed, deadline, small=False) -> Result:
    """Per-layer metrics: spans of a traced repetition of every workload,
    the tracing overhead against an untraced one, counts, and the probes."""
    run_id = f"{seed}-{os.getpid()}"
    metrics: dict[str, float] = {}
    attempted, failed, messages, all_spans = 0, 0, [], []
    for wl in WORKLOADS:
        plain = one_rep(wl, seed, deadline, small=small, run_id=run_id)
        traced = one_rep(wl, seed, deadline, trace=True, check=True, small=small, run_id=run_id)
        # The traced repetition is the checked one; the untraced one must
        # reproduce its outputs.
        untraced_failed = failed_against(plain, traced)
        attempted += plain.attempted + traced.attempted
        failed += len(traced.failures) + len(untraced_failed)
        messages += [
            f"{wl}: {k}: {traced.failures.get(k) or plain.failures.get(k) or 'differs from the untraced run'}"
            for k in untraced_failed
        ]
        metrics[f"{wl}.trace_overhead_s"] = traced.wall_s - plain.wall_s
        metrics[f"{wl}.splits"] = traced.counts.get("splits", 0)
        for name, agg in summarize(traced.spans).items():
            if name == "run":
                metrics[f"{wl}.run.self_s"] = agg["self_s"]
            else:
                metrics[f"{wl}.{name}.busy_s"] = agg["busy_s"]
                metrics[f"{wl}.{name}.calls"] = agg["calls"]
        all_spans += [dict(s, workload=wl) for s in traced.spans]

    workdir = OUT / "probes"
    workdir.mkdir(parents=True, exist_ok=True)
    res, _ = worker(["probes", "--workdir", str(workdir)] + ["--small"] * small, deadline)
    metrics.update(res["metrics"])
    attempted += 1
    failed += bool(res["failures"])
    messages += [f"probes: {m}" for m in res["failures"]]

    (OUT / f"spans-{run_id}.json").write_text(json.dumps(all_spans))
    return Result(metrics, attempted, failed, messages, [f"spans in {OUT / f'spans-{run_id}.json'}"])


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in (
        ("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_bytes", "bytes"),
        ("_speedup", "ratio"), ("_share", "ratio"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def report(res: Result, prefix: str = "") -> None:
    for note in res.notes:
        print(f"# {prefix}{note}")
    for name, value in res.metrics.items():
        print(f"{prefix}{name} = {value:.6g} {unit_of(name)}")
    rate = res.failed / res.attempted
    print(f"{prefix}error_rate = {rate:.6g} ratio ({res.failed} of {res.attempted} tasks)")
    for m in res.messages:
        print(f"FAILED {m}", file=sys.stderr)


def result_line(res: Result) -> str:
    return json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in res.metrics.items()},
    })


def environment(seed: int, deadline: float) -> str:
    """Versions, nproc, seed and commit, as one `# env` line.

    Also fails fast, before any timing, when the library does not import.
    """
    env, _ = worker(["env"], deadline)
    return "# env " + json.dumps(dict(env, seed=seed, commit=git_commit(), jobs=JOBS))


def self_check(seed: int) -> int:
    """Reduced sizes: every workload once untraced, the traced run twice.

    Fails when an output check fails, when a count metric differs between
    the two traced runs, or when the metric names differ from BENCHMARK.json.
    """
    deadline = time.monotonic() + 600.0
    problems = []
    e2e = {}
    for wl in WORKLOADS:
        res = measure(wl, seed, 0, deadline, small=True, min_reps=2)
        problems += res.messages if not res.correct else []
        e2e = res.metrics
        report(res, prefix=f"{wl}: ")
    first = trace_run(seed, deadline, small=True)
    second = trace_run(seed + 1, deadline, small=True)
    report(first, prefix="trace: ")
    for res in (first, second):
        problems += res.messages
    for name, value in first.metrics.items():
        if unit_of(name) == "count" and second.metrics.get(name) != value:
            problems.append(f"count {name} differs between runs: {value} vs {second.metrics.get(name)}")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        for key, got in (("end_to_end", e2e), ("per_layer", first.metrics)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            if declared != {k: unit_of(k) for k in got}:
                problems.append(f"{key} metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(got))}")
    for p in problems:
        print(f"SELF-CHECK FAILED {p}", file=sys.stderr)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="qdeco benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload and print one table")
    ap.add_argument("--self-check", action="store_true", help="quick run at reduced sizes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    if not (ROOT / "src" / "qdeco" / "__init__.py").is_file():
        print(f"error: no qdeco sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if ns.self_check:
        return self_check(ns.seed)
    if ns.all == bool(ns.workload):
        ap.error("give exactly one of --workload or --all")

    deadline = time.monotonic() + RUN_BUDGET_S
    print(environment(ns.seed, deadline))
    if ns.workload:
        if ns.trace:
            res = trace_run(ns.seed, deadline)
        else:
            res = measure(ns.workload, ns.seed, ns.seconds, deadline)
        report(res)
        print(result_line(res))
        return 0

    results = {}
    for wl in WORKLOADS:
        res = measure(wl, ns.seed, ns.seconds, time.monotonic() + RUN_BUDGET_S)
        report(res, prefix=f"{wl}: ")
        results[wl] = res
    print(json.dumps({wl: json.loads(result_line(r)) for wl, r in results.items()}))
    return 0 if all(r.correct for r in results.values()) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
