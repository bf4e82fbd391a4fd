"""The cli-readme workload: the README example commands and their checks.

Standard library only; the orchestrator runs each command in a fresh
interpreter through CONSOLE_SCRIPT, which is what the installed `qdeco`
entry point executes.
"""

from __future__ import annotations

import json
import math

from compare import close_text, near

CONSOLE_SCRIPT = "import sys; from qdeco.cli import main; sys.exit(main())"

# (label, command) in README order; {seed} is the benchmark seed.
README = [
    ("lower", "lower --graph ring:6 --channel depolarizing"),
    ("upper_eb", "upper --method eb --channel depolarizing --via jamiolkowski"),
    ("upper_ising", "upper --method ising --graph ring:4 --channel depolarizing"),
    ("scan", "scan --graph grid2d:3x2 --channel dephasing --out scan.json"),
    ("ghz", "ghz --n 6 --channel depolarizing"),
    ("ghz_blockwise", "ghz --blockwise --channel depolarizing --sweep 0.01:0.8:0.01"),
    ("weighted", "weighted --sweep-phi 0.5:3.14:0.2 --deg 2"),
    ("encode", "encode --kt 0.01 --levels 3 --target-m 1057"),
    ("oracle_check", "oracle-check --cases 20 --max-n 6 --seed {seed}"),
]
# One more command exercises the process pool; {jobs} never exceeds nproc.
POOLED = ("scan_jobs", "scan --graph ring:6 --jobs {jobs}")
# Commands that write their report to a file (in the working directory)
# instead of standard output.
OUTPUT_FILES = {"scan": "scan.json"}
SEEDED = {"oracle_check"}

SQRT2M1 = math.sqrt(2.0) - 1.0


def readme_commands(seed: int) -> list[tuple[str, list[str]]]:
    return [(label, cmd.format(seed=seed).split()) for label, cmd in README]


def workload_commands(seed: int, jobs: int) -> list[tuple[str, list[str]]]:
    label, cmd = POOLED
    return readme_commands(seed) + [(label, cmd.format(jobs=jobs).split())]


def _summary(text: str) -> dict[str, str]:
    """The `# key = value` metadata lines of a CSV report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line[2:].partition(" = ")
        if line.startswith("# ") and sep:
            out[key] = value
    return out


def count_splits(outputs: dict[str, str]) -> int:
    """Rows of the two partition scans the workload runs."""
    rows = len(json.loads(outputs["scan"])["results"]["rows"])
    csv_rows = [
        line for line in outputs["scan_jobs"].splitlines() if not line.startswith("#")
    ]
    return rows + len(csv_rows) - 1  # minus the header


def check(outputs: dict[str, str], reference: dict[str, str]) -> dict[str, str]:
    """Failure message per command label; empty when every check passes."""
    failures = {}
    for label, text in outputs.items():
        if label in SEEDED:
            continue
        if label not in reference:
            failures[label] = "no recorded reference output"
        elif not close_text(text, reference[label]):
            failures[label] = "differs from the recorded reference output"

    def expect(label, ok, what):
        if not ok:
            failures.setdefault(label, what)

    s = _summary(outputs["oracle_check"])
    expect("oracle_check", s.get("ok") == "True", "oracle-check did not report ok")
    expect("oracle_check", (
        float(s["max_dev_fast_vs_direct"]) <= 1e-10
        and float(s["max_dev_fast_vs_dense"]) <= 1e-10
        and float(s["max_dev_pt_vs_dense"]) <= 1e-9
    ), "oracle-check deviations over their gates")

    lower = _summary(outputs["lower"])
    expect("lower", near(float(lower["p_global"]), 0.7167, 1e-3), "criterion 1: ring lower bound")
    eb_row = outputs["upper_eb"].splitlines()[-1].split(",")
    expect("upper_eb", near(float(eb_row[1]), 1.0 / 3.0, 1e-6), "criterion 4: jamiolkowski route")
    ising = _summary(outputs["upper_ising"])
    expect("upper_ising", near(float(ising["p_z_threshold"]), SQRT2M1**2, 1e-8),
           "criterion 11: degree-2 gate threshold")
    enc = _summary(outputs["encode"])
    expect("encode", near(float(enc["breakeven_p"]), 0.82517, 1e-4)
           and near(float(enc["breakeven_kt"]), 0.1921658, 1e-5), "criterion 7: break-even")
    for j, want in {1: 0.0382, 2: 0.0778, 3: 0.1149}.items():
        expect("encode", near(float(enc[f"lifetime_j{j}_at_M"]), want, 1e-3),
               "criterion 7: encoded lifetime")
    return failures
