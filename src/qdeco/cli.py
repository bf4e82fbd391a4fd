"""Command-line front end: threshold computations, sweeps, scans, tables.

Every subcommand computes rows plus a summary and emits them as CSV
(`#`-prefixed metadata lines, then a header, then data) or as a JSON report
{config, results: {rows, summary}, warnings} matching the schema shipped in
qdeco/schemas/report.schema.json.  Outputs are deterministic for a fixed
configuration regardless of --jobs.

Exit codes: 0 success, 1 computation failure (including a failed
oracle-check), 2 validation/usage error, 3 capacity error.

Each command runs in a fresh process, where imports are most of its time.
So this module imports only the standard library and .errors at module
level, and each handler (each `upper --method`) imports the functions it
calls: `ghz` loads ghz, channels and numeric only, and only oracle-check
loads the dense oracle.  The library imports numpy where it builds
arrays, so `--help`, usage errors and the closed-form commands (ghz,
encode, weighted, lower on an unweighted graph, upper --method ising and
the analytic upper --method eb) load no numpy; scan, oracle-check, the
jamiolkowski route and weighted pair thresholds do.  The sweep axes follow
np.arange's rule in plain Python (_parse_sweep).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import __version__
from .errors import CapacityError, EvaluationError, ValidationError

if TYPE_CHECKING:
    from .channels import ChannelFamily, PauliChannel, QoChannel
    from .graphs import Graph
    from .numeric import Tolerance


SWEEP_CAP = 100_000  # points of one --sweep / --sweep-phi axis


class CommandOutput(SimpleNamespace):
    """A subcommand's rows, summary and warnings, which it fills in."""

    def __init__(
        self,
        rows: list[dict] | None = None,
        summary: dict | None = None,
        warnings: list[str] | None = None,
    ) -> None:
        super().__init__(
            rows=[] if rows is None else rows,
            summary={} if summary is None else summary,
            warnings=[] if warnings is None else warnings,
        )


# ---------------------------------------------------------------------------
# Plumbing


def _parse_channel(text: str) -> ChannelFamily:
    from .channels import ChannelFamily

    text = text.strip()
    spec = text
    # json raises ValueError, not only JSONDecodeError (an integer of over
    # 4300 digits), and ValidationError is a ValueError too, so only the
    # parse sits in the try.  UnicodeDecodeError is a ValueError as well.
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        elif text.startswith("{"):
            spec = json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read channel spec: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"channel JSON does not parse: {exc}") from exc
    return ChannelFamily.from_spec(spec)


def _parse_sweep(text: str) -> list[float]:
    from decimal import Decimal

    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError("sweep must be START:STOP:STEP")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise ValidationError(f"sweep {text!r} has a non-numeric START, STOP or STEP") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValidationError(f"sweep {text!r} needs finite START, STOP and STEP")
    if step <= 0.0:
        raise ValidationError("sweep step must be positive")
    if not start < stop:
        raise ValidationError("sweep needs START < STOP")
    # The axis is START + i * STEP for i = 0, 1, ... while the point does not
    # pass STOP: floor((STOP - START) / STEP) + 1 points.
    if (stop - start) / step >= SWEEP_CAP:
        raise CapacityError(f"sweep {text!r} has more than {SWEEP_CAP} points")
    # The axis is np.arange(START, STOP + STEP/2, STEP)[:count], built by
    # arange's own rule: ceil((STOP + STEP/2 - START) / STEP) points, a[0] =
    # START, a[1] = START + STEP and a[i] = START + i * (a[1] - START).  It
    # runs up to STEP/2 past STOP so that rounding cannot drop STOP itself;
    # the count, taken on the decimals as typed, drops the points that pass
    # STOP by more than rounding.
    count = int((Decimal(parts[1]) - Decimal(parts[0])) // Decimal(parts[2])) + 1
    count = min(count, math.ceil((stop + step / 2.0 - start) / step))
    delta = (start + step) - start
    return [start, start + step, *(start + i * delta for i in range(2, count))][:count]


def _tolerance(ns: argparse.Namespace) -> Tolerance:
    from .numeric import DEFAULT_TOL, Tolerance

    tol_root = getattr(ns, "tol_root", None)
    return DEFAULT_TOL if tol_root is None else Tolerance(abs_root=tol_root)


# The flags each mode of a command does not read, with their defaults; a
# mode exits 2 when one of them is given another value.
_UNREAD = {
    ("upper", "--method eb"): {"graph": None},
    ("upper", "--method ising"): {"via": "analytic"},
    ("ghz", "ghz without --blockwise"): {"sweep": None, "axis": "kt"},
    ("ghz", "ghz --blockwise"): {"n": None, "crit": None, "tol_root": None},
    ("ghz", "ghz --blockwise with a qo channel"): {
        "n": None, "crit": None, "tol_root": None, "axis": "kt",
    },
}


def _reject_unread(ns: argparse.Namespace, mode: str) -> None:
    for name, default in _UNREAD[ns.cmd, mode].items():
        if getattr(ns, name) != default:
            raise ValidationError(f"{mode} does not read --{name.replace('_', '-')}")


def _qo_channel(family: ChannelFamily) -> QoChannel:
    from .channels import QoChannel

    return QoChannel(family.param("B"), family.param("C"), family.param("s"))


def _sanitize(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _emit(config: dict, out: CommandOutput, fmt: str, path: str | None) -> None:
    if fmt == "json":
        payload = {
            "config": _sanitize(config),
            "results": {
                "rows": _sanitize(out.rows),
                "summary": _sanitize(out.summary),
            },
            "warnings": list(out.warnings),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        columns: list[str] = []
        for row in out.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        lines = [f"# qdeco {__version__}"]
        lines.append("# config " + json.dumps(_sanitize(config), sort_keys=True))
        for key in sorted(out.summary):
            lines.append(f"# {key} = {_format_cell(out.summary[key])}")
        for warning in out.warnings:
            lines.append(f"# warning: {warning}")
        buffer = [",".join(columns)] if columns else []
        for row in out.rows:
            buffer.append(",".join(_format_cell(row.get(c, "")) for c in columns))
        text = "\n".join(lines + buffer) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write --out: {exc}") from exc


def _format_cell(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_ghz(ns: argparse.Namespace, tol: Tolerance) -> CommandOutput:
    from .ghz import (
        blockwise_lower_M_from_kt,
        blockwise_qo_upper_M,
        blockwise_upper_M_from_kt,
        blockwise_upper_M_small_kt,
        ghz_lifetime,
    )

    family = _parse_channel(ns.channel)
    out = CommandOutput()
    if ns.blockwise:
        qo = family.kind == "qo"
        _reject_unread(ns, "ghz --blockwise with a qo channel" if qo else "ghz --blockwise")
        if ns.sweep is None:
            raise ValidationError("--blockwise needs --sweep over the time axis")
        axis = _parse_sweep(ns.sweep)
        if qo:
            ch = _qo_channel(family)
            for t in axis:
                out.rows.append(
                    {"t": t, "upper_M_qo": blockwise_qo_upper_M(ch, t)}
                )
        elif family.kind == "depolarizing":
            if not axis[0] > 0.0:  # kt = 0 is p = 1, no noise
                raise ValidationError(f"--axis {ns.axis} needs {ns.axis} > 0, got {axis[0]}")
            for x in axis:
                kt = x if ns.axis == "kt" else -math.log(x)
                out.rows.append(
                    {
                        "kt": kt,
                        "p": math.exp(-kt),
                        "upper_M": blockwise_upper_M_from_kt(kt),
                        "lower_M": blockwise_lower_M_from_kt(kt),
                        "upper_M_small_kt": blockwise_upper_M_small_kt(kt),
                    }
                )
        else:
            raise ValidationError(
                "blockwise bounds exist for depolarizing or qo channels"
            )
        out.summary["channel"] = family.kind
        return out

    _reject_unread(ns, "ghz without --blockwise")
    if ns.n is None:
        raise ValidationError("ghz lifetimes need --n")
    if ns.n < 2:
        raise ValidationError(f"--n must be at least 2, got {ns.n}")
    if ns.crit is not None:
        key, _, value = ns.crit.partition("=")
        if key.strip() != "k" or not value.strip().isdecimal():
            raise ValidationError('--crit takes the form "k=<int>"')
        ks = [int(value)]
    else:
        ks = list(range(1, ns.n // 2 + 1))
    if family.kind == "qo":
        ch = _qo_channel(family)
        for k in ks:
            result = ghz_lifetime(ns.n, k, ch, tol=tol)
            row = {"k": k, "t_crit": result.value if result.sign_change_found else None}
            out.rows.append(row)
        if any(row["t_crit"] is None for row in out.rows):
            out.warnings.append(
                "some group sizes never cross the PT boundary in the time bracket; "
                "their t_crit is empty"
            )
    elif family.kind == "depolarizing":
        for k in ks:
            result = ghz_lifetime(ns.n, k, "depolarizing", tol=tol)
            out.rows.append(
                {"k": k, "p_crit": result.value, "kt_crit": result.kt}
            )
    else:
        raise ValidationError(
            "ghz lifetimes support depolarizing or qo channels"
        )
    out.summary.update({"n": ns.n, "channel": family.kind})
    return out


def _graph(ns: argparse.Namespace) -> Graph:
    from .graphs import load_graph

    if ns.graph is None:
        raise ValidationError(f"{ns.cmd} needs --graph")
    return load_graph(ns.graph)


def _cmd_lower(ns: argparse.Namespace, tol: Tolerance) -> CommandOutput:
    from .pairdistill import lifetime_lower_bound

    g = _graph(ns)
    family = _parse_channel(ns.channel)
    report = lifetime_lower_bound(g, family, tol)
    out = CommandOutput()
    for e in report.per_edge:
        out.rows.append(
            {"u": e.u, "v": e.v, "phi": e.phi, "p_threshold": e.p_crit}
        )
    out.summary = {
        "p_global": report.p_global,
        "kt_global": report.kt_global if not math.isnan(report.p_global) else math.nan,
        "p_spanning": report.p_spanning,
        "kt_spanning": (
            report.kt_spanning if not math.isnan(report.p_spanning) else math.nan
        ),
        "critical_edge": str(report.critical_edge),
        "bottleneck_edge": str(report.bottleneck_edge),
    }
    if any(not e.found for e in report.per_edge):
        out.warnings.append(
            "some edges never turn NPT in the bracket; global bound uses "
            "spanning connectivity only"
        )
    return out


def _cmd_upper(ns: argparse.Namespace, tol: Tolerance) -> CommandOutput:
    _reject_unread(ns, f"--method {ns.method}")
    family = _parse_channel(ns.channel)
    out = CommandOutput()
    if ns.method == "eb":
        from .channels import eb_threshold

        result = eb_threshold(family, tol, via=ns.via)
        axis = "p" if family.is_pauli_family else "t"
        row = {"axis": axis, "threshold": result.value if result.sign_change_found else None}
        if axis == "p" and result.sign_change_found:
            row["kt"] = result.kt
        out.rows.append(row)
        if not result.sign_change_found:
            out.warnings.append("channel never becomes entanglement breaking in the bracket")
        out.summary["method"] = "entanglement-breaking"
        return out
    if ns.graph is None:
        raise ValidationError(f"--method {ns.method} needs --graph")
    g = _graph(ns)
    from .isingsep import (
        graph_separability_threshold,
        native_parameter,
        weighted_graph_threshold,
    )

    if g.is_weighted:
        report = weighted_graph_threshold(g, family, tol)
        for u, v, phi, p_z in report.per_edge:
            out.rows.append({"u": u, "v": v, "phi": phi, "p_z": p_z})
        out.summary = {
            "p_z_threshold": report.p_z_threshold,
            "native_p": report.native_p,
            "applicable": report.applicable,
            "critical_edge": str(report.critical_edge),
        }
        if not report.applicable:
            out.warnings.append("method inapplicable: " + report.note)
    else:
        report = graph_separability_threshold(g, tol)
        for u, v, p_z in report.per_edge:
            out.rows.append({"u": u, "v": v, "phi": math.pi, "p_z": p_z})
        native, note = native_parameter(family, report.p_threshold)
        out.summary = {
            "p_z_threshold": report.p_threshold,
            "weak_bound": report.weak_bound,
            "native_p": native,
            "applicable": native is not None,
            "critical_edge": str(report.critical_edge),
        }
        if native is None:
            out.warnings.append("method inapplicable: " + note)
    out.summary["method"] = "gate-separability"
    return out


def _cmd_scan(ns: argparse.Namespace, tol: Tolerance) -> CommandOutput:
    from .graphdiag import NPT_VERDICT, scan_partitions

    g = _graph(ns)
    family = _parse_channel(ns.channel)
    report = scan_partitions(g, family, tol, jobs=ns.jobs)
    out = CommandOutput()
    for mask, size_a, value in report.rows():
        out.rows.append({"partition_mask": mask, "size_A": size_a, "p_crit": value})
    if report.first_ppt is not None:
        out.summary["first_ppt_p"] = report.first_ppt.p_crit
        out.summary["first_ppt_mask"] = report.first_ppt.partition.a_mask
    if report.last_ppt is not None:
        out.summary["last_ppt_p"] = report.last_ppt.p_crit
        out.summary["last_ppt_mask"] = report.last_ppt.partition.a_mask
    out.summary["verdict"] = NPT_VERDICT
    return out


def _cmd_weighted(ns: argparse.Namespace, tol: Tolerance) -> CommandOutput:
    from .isingsep import weighted_gate_threshold

    out = CommandOutput()
    for phi in _parse_sweep(ns.sweep_phi):
        p_crit = weighted_gate_threshold(phi, ns.deg, ns.deg, tol)
        out.rows.append({"phi": phi, "degree": ns.deg, "p_crit": p_crit})
    out.summary["degree"] = ns.deg
    return out


def _cmd_encode(ns: argparse.Namespace, tol: Tolerance) -> CommandOutput:
    from .encode import LEVEL_CAP, breakeven, encoded_block_bound, encoded_lifetime, level_recursion

    if not math.isfinite(ns.kt):
        raise ValidationError(f"--kt must be finite, got {ns.kt}")
    if not 0 <= ns.levels <= LEVEL_CAP:
        raise ValidationError(f"--levels must lie in 0..{LEVEL_CAP}, got {ns.levels}")
    out = CommandOutput()
    for j in range(ns.levels + 1):
        level = level_recursion(ns.kt, j)
        out.rows.append(
            {
                "j": j,
                "q_j": level.q,
                "kt_eff_exact": level.kt_eff,
                "kt_eff_approx": level.kt_approx,
                "physical_qubits": level.physical_qubits,
            }
        )
    be = breakeven(tol)
    out.summary["breakeven_p"] = be.p
    out.summary["breakeven_kt"] = be.kt
    if ns.target_m is not None:
        for j in range(ns.levels + 1):
            out.summary[f"lifetime_j{j}_at_M"] = encoded_lifetime(
                ns.target_m, j, tol=tol
            )
        out.summary["target_M"] = ns.target_m
    if ns.kt > 0:
        out.summary["block_bound_j0"] = encoded_block_bound(ns.kt, 0)
    return out


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Uniform-ish random connected graph on n vertices (edge prob 1/2)."""
    from .graphs import graph_from_edges

    if n < 2:
        raise ValidationError("need at least two vertices")
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = graph_from_edges(n, edges)
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for y in range(n):
                if (g.adj[x] >> y) & 1 and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if len(seen) == n:
            return g


def random_pauli_channel(rng: random.Random) -> PauliChannel:
    """Random channel with all four probabilities bounded away from zero."""
    from .channels import PauliChannel

    raw = [0.05 + rng.random() for _ in range(4)]
    total = sum(raw)
    p = [x / total for x in raw]
    return PauliChannel(p[0], p[1], p[2], 1.0 - p[0] - p[1] - p[2])


def _cmd_oracle_check(ns: argparse.Namespace, tol: Tolerance) -> CommandOutput:
    import numpy as np

    from .channels import ChannelMatrix
    from .graphdiag import lambda_direct, lambda_from_pauli, pt_spectrum
    from .graphs import Bipartition
    from .oracle import (
        DENSE_CAP,
        apply_uniform_channel,
        dense_graph_state,
        graph_basis_diagonal,
        pt_spectrum_dense,
    )

    if ns.cases < 1:
        raise ValidationError(f"--cases must be at least 1, got {ns.cases}")
    if ns.max_n < 2:
        raise ValidationError(f"--max-n must be at least 2, got {ns.max_n}")
    if ns.max_n > DENSE_CAP:
        raise CapacityError(f"dense oracle is capped at n={DENSE_CAP}")
    rng = random.Random(ns.seed)
    out = CommandOutput()
    worst = {"fast_vs_direct": 0.0, "fast_vs_dense": 0.0, "pt_vs_dense": 0.0}
    for case in range(ns.cases):
        n = rng.randint(2, ns.max_n)
        g = random_connected_graph(rng, n)
        ch = random_pauli_channel(rng)
        mask = rng.randrange(1, (1 << n) - 1)
        part = Bipartition(mask, n)

        state = lambda_from_pauli(g, ch)
        dev_direct = float(np.max(np.abs(state.lam - lambda_direct(g, ch))))

        dense = apply_uniform_channel(dense_graph_state(g), ChannelMatrix.from_pauli(ch))
        dev_dense = float(np.max(np.abs(state.lam - graph_basis_diagonal(dense, g))))

        fast_pt = np.sort(pt_spectrum(state, part).lam_prime)
        dense_pt = np.sort(pt_spectrum_dense(dense, part))
        dev_pt = float(np.max(np.abs(fast_pt - dense_pt)))

        worst["fast_vs_direct"] = max(worst["fast_vs_direct"], dev_direct)
        worst["fast_vs_dense"] = max(worst["fast_vs_dense"], dev_dense)
        worst["pt_vs_dense"] = max(worst["pt_vs_dense"], dev_pt)
        out.rows.append(
            {
                "case": case,
                "n": n,
                "partition_mask": mask,
                "dev_fast_vs_direct": dev_direct,
                "dev_fast_vs_dense": dev_dense,
                "dev_pt_vs_dense": dev_pt,
            }
        )
    ok = (
        worst["fast_vs_direct"] <= 1e-10
        and worst["fast_vs_dense"] <= 1e-10
        and worst["pt_vs_dense"] <= 1e-9
    )
    out.summary = {
        "max_dev_fast_vs_direct": worst["fast_vs_direct"],
        "max_dev_fast_vs_dense": worst["fast_vs_dense"],
        "max_dev_pt_vs_dense": worst["pt_vs_dense"],
        "ok": ok,
    }
    if not ok:
        out.warnings.append("cross-validation deviations exceed tolerances")
    return out


_HANDLERS = {
    "ghz": _cmd_ghz,
    "lower": _cmd_lower,
    "upper": _cmd_upper,
    "scan": _cmd_scan,
    "weighted": _cmd_weighted,
    "encode": _cmd_encode,
    "oracle-check": _cmd_oracle_check,
}


# Flags shared by some subcommands; each subcommand registers only those it reads.
_SHARED_FLAGS = {
    "--graph": dict(default=None, help="lattice spec (ring:N, line:N, grid2d:WxH, grid3d:WxHxD, star:N, complete:N), inline JSON, or @file"),
    "--channel": dict(default="depolarizing", help="channel name, inline JSON spec, or @file"),
    "--jobs": dict(type=int, default=1, help="worker processes (at most; scans below 9 vertices run in-process)"),
    "--tol-root": dict(type=float, default=None, help="bisection tolerance override"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdeco",
        description="Lifetimes of distillable multiparticle entanglement "
        "under single-qubit decoherence.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, summary: str, *shared: str) -> argparse.ArgumentParser:
        """A subcommand with the output flags and the shared flags it reads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = add("ghz", "star-graph lifetimes and blockwise bounds", "--channel", "--tol-root")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--crit", default=None, help='which split, e.g. "k=1"')
    p.add_argument("--blockwise", action="store_true")
    p.add_argument("--sweep", default=None, help="START:STOP:STEP")
    p.add_argument("--axis", choices=("kt", "p"), default="kt")

    add("lower", "pair-distillation lifetime lower bound", "--graph", "--channel", "--tol-root")

    p = add("upper", "lifetime upper bounds", "--graph", "--channel", "--tol-root")
    p.add_argument("--method", choices=("eb", "ising"), required=True)
    p.add_argument("--via", choices=("analytic", "jamiolkowski"), default="analytic")

    add("scan", "critical noise per bipartition", "--graph", "--channel", "--jobs", "--tol-root")

    p = add("weighted", "weighted-gate separability thresholds", "--tol-root")
    p.add_argument("--sweep-phi", required=True, help="START:STOP:STEP over the gate phase")
    p.add_argument("--deg", type=int, default=1, help="degree of both gate ends")

    p = add("encode", "concatenated-code level tables", "--tol-root")
    p.add_argument("--kt", type=float, required=True)
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--target-m", type=float, default=None, help="also solve lifetimes at this group count")

    p = add("oracle-check", "cross-validate fast paths against the dense oracle")
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--seed", type=int, default=7)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = {
        "version": __version__,
        "subcommand": ns.cmd,
        "args": {
            k: v for k, v in sorted(vars(ns).items()) if k != "cmd" and v is not None
        },
    }
    try:
        if getattr(ns, "jobs", 1) < 1:
            raise ValidationError(f"--jobs must be at least 1, got {ns.jobs}")
        tol = _tolerance(ns)
        out = _HANDLERS[ns.cmd](ns, tol)
        fmt = ns.format
        if fmt is None:
            fmt = "json" if (ns.out or "").endswith(".json") else "csv"
        _emit(config, out, fmt, ns.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    if ns.cmd == "oracle-check" and not out.summary.get("ok", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
