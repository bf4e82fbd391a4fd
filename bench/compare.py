"""Tolerant comparison of outputs with their recorded reference values.

Standard library only, so the orchestrator can check command-line output
without importing numpy or qdeco.
"""

from __future__ import annotations

import json
import re

# Ten times qdeco.numeric.DEFAULT_TOL.abs_root, scaled by the magnitude for
# values above one: roots may move within the bisection tolerance.
REF_TOL = 1e-9

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def close(got, want, tol: float = REF_TOL) -> bool:
    """Equal structure and text, numbers within tol * max(1, |want|)."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(close(got[k], want[k], tol) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(close(g, w, tol) for g, w in zip(got, want))
        )
    numbers = (int, float)
    if (
        isinstance(want, float)
        and isinstance(got, numbers)
        and not isinstance(got, bool)
    ):
        return abs(got - want) <= tol * max(1.0, abs(want))
    return got == want


def near(x: float, want: float, tol: float) -> bool:
    return abs(x - want) <= tol


def close_text(got: str, want: str) -> bool:
    """Compare command output token by token, numbers with a tolerance.

    JSON documents compare their results and warnings; CSV compares every
    line but the `# config` echo of the arguments.
    """
    if want.lstrip().startswith("{"):
        g, w = json.loads(got), json.loads(want)
        return close(_numbers_in(g["results"]), _numbers_in(w["results"])) and (
            g["warnings"] == w["warnings"]
        )
    g = [line for line in got.splitlines() if not line.startswith("# config")]
    w = [line for line in want.splitlines() if not line.startswith("# config")]
    return len(g) == len(w) and all(
        close(_tokens(a), _tokens(b)) for a, b in zip(g, w)
    )


def _tokens(line: str) -> list:
    parts = _NUMBER.split(line)
    return [float(p) if i % 2 else p for i, p in enumerate(parts)]


def _numbers_in(value):
    """Numeric strings in a JSON report (the CSV-style cells) become floats."""
    if isinstance(value, dict):
        return {k: _numbers_in(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_numbers_in(v) for v in value]
    if isinstance(value, str) and _NUMBER.fullmatch(value):
        return float(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value
