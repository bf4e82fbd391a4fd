"""Per-layer probes: each module's building blocks at fixed sizes.

Timings are the median over a few passes of the mean time per call, with
enough calls per pass to fill PASS_S.  Counts (gather elements, computed
bytes, evaluations per root, refinement iterations) are exact; each is
computed twice and a mismatch is reported as a failure.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from qdeco import cli, graphdiag
from qdeco.channels import ChannelMatrix, eb_threshold
from qdeco.encode import encoded_lifetime
from qdeco.ghz import ghz_lifetime
from qdeco.graphdiag import (
    SCAN_BRACKET,
    lambda_from_pauli,
    pt_spectrum,
    scan_partitions,
)
from qdeco.graphs import Bipartition, bipartitions, graph_from_edges, make_lattice
from qdeco.isingsep import weighted_gate_threshold
from qdeco.numeric import bisect
from qdeco.oracle import apply_uniform_channel, dense_graph_state, pt_spectrum_dense
from qdeco.pairdistill import (
    closed_form_threshold,
    lifetime_lower_bound,
    reduced_pair_state,
    weighted_reduced_pair,
)

from clicmds import readme_commands
from workloads import DEPOL

PASS_S = 0.05
NOISE_P = 0.8  # channel parameter of the fixed-size states

SIZES = {
    "full": {"ring": 8, "star": 8, "fast_cap": 20, "direct": 14, "grid": 10, "dense": 8, "ghz": 20},
    "small": {"ring": 6, "star": 5, "fast_cap": 12, "direct": 10, "grid": 4, "dense": 5, "ghz": 6},
}


def _timed(fn, number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - t0


def per_call_s(fn, passes: int = 5) -> float:
    """Median over passes of the mean seconds per call of fn()."""
    number = 1
    first = _timed(fn, number)
    while first < PASS_S:
        number *= 2
        first = _timed(fn, number)
    return statistics.median([first / number] + [_timed(fn, number) / number for _ in range(passes - 1)])


def alternating_split(n: int) -> Bipartition:
    """A = the odd vertices; on a ring of even n every vertex of A sees two of B."""
    return Bipartition(sum(1 << k for k in range(1, n, 2)), n)


def _transform(g, part):
    # The gather route builds a transform per split; when a later version
    # drops that route, the probes call pt_spectrum without one.
    build = getattr(graphdiag, "partition_transform", None)
    return build(g, part) if build else None


def _pt(state, part, transform):
    if transform is None:
        return pt_spectrum(state, part)
    return pt_spectrum(state, part, transform)


def graphdiag_probes(size: dict, jobs: int) -> tuple[dict, list[str]]:
    m: dict[str, float] = {}
    failures: list[str] = []
    ring = make_lattice("ring", size["ring"])
    parts = list(bipartitions(ring))
    ch = DEPOL.pauli(NOISE_P)

    m["graphdiag.partition_transform.ring8_ms"] = 1e3 * per_call_s(
        lambda: [_transform(ring, p) for p in parts], passes=3
    ) / len(parts)
    transforms = [_transform(ring, p) for p in parts]
    state = lambda_from_pauli(ring, ch)
    m["graphdiag.pt_spectrum.ring8_ms"] = 1e3 * per_call_s(
        lambda: [_pt(state, p, t) for p, t in zip(parts, transforms)], passes=5
    ) / len(parts)

    def gather_elems():
        return sum(t.shifts.shape[0] for t in transforms if t is not None) << ring.n

    elems = gather_elems()
    if elems != gather_elems():
        failures.append("gather element count changed between two counts")
    per_elem = state.lam.itemsize + (transforms[0].shifts.itemsize if transforms[0] is not None else 0)
    m["graphdiag.pt_apply.ring8_gather_elems"] = elems
    m["graphdiag.pt_apply.ring8_bytes"] = elems * per_elem
    m["graphdiag.lambda_from_pauli.ring8_ms"] = 1e3 * per_call_s(lambda: lambda_from_pauli(ring, ch))

    star = make_lattice("star", size["star"])
    star_parts = list(bipartitions(star))
    star_t = [_transform(star, p) for p in star_parts]
    star_state = lambda_from_pauli(star, ch)
    m["graphdiag.pt_spectrum.star8_ms"] = 1e3 * per_call_s(
        lambda: [_pt(star_state, p, t) for p, t in zip(star_parts, star_t)], passes=5
    ) / len(star_parts)

    big = make_lattice("ring", size["fast_cap"])
    m["graphdiag.lambda_from_pauli.ring20_ms"] = 1e3 * per_call_s(
        lambda: lambda_from_pauli(big, ch), passes=3
    )
    direct = make_lattice("ring", size["direct"])
    alt = alternating_split(direct.n)
    alt_t = _transform(direct, alt)
    direct_state = lambda_from_pauli(direct, ch)
    m["graphdiag.pt_spectrum.ring14_alt_ms"] = 1e3 * per_call_s(
        lambda: _pt(direct_state, alt, alt_t), passes=3
    )

    t0 = time.perf_counter()
    serial = scan_partitions(ring, DEPOL, jobs=1)
    t1 = time.perf_counter()
    pooled = scan_partitions(ring, DEPOL, jobs=jobs)
    t2 = time.perf_counter()
    m["graphdiag.scan_partitions.ring8_pool_speedup"] = (t1 - t0) / (t2 - t1)
    if serial.entries != pooled.entries:
        failures.append(f"scan_partitions differs between jobs=1 and jobs={jobs}")
    with_root = [e for e in serial.entries if e.status == "threshold"]
    m["numeric.bisect.scan_refine_iters"] = sum(e.iterations for e in with_root) / len(with_root)

    evals, iters = _count_scan_root(ring)
    if (evals, iters) != _count_scan_root(ring):
        failures.append("bisection evaluation count changed between two runs")
    m["numeric.bisect.scan_evals_per_root"] = evals
    m["numeric.bisect.scan_prescan_share"] = (evals - iters) / evals
    return m, failures


def _count_scan_root(ring) -> tuple[int, int]:
    """Evaluations and refinement steps of one scan-style root on a ring split.

    The function bisected is the one a partition scan builds from public
    calls: the smallest PT eigenvalue of the noisy state at parameter p.
    """
    part = alternating_split(ring.n)
    transform = _transform(ring, part)
    calls = 0

    def min_pt(p: float) -> float:
        nonlocal calls
        calls += 1
        return _pt(lambda_from_pauli(ring, DEPOL.pauli(p)), part, transform).min_value

    result = bisect(min_pt, *SCAN_BRACKET)
    return calls, result.iterations


def pair_probes(size: dict) -> dict:
    m = {}
    ch = DEPOL.pauli(NOISE_P)
    m["numeric.bisect.cheap_root_us"] = 1e6 * per_call_s(
        lambda: closed_form_threshold("depolarizing", (2, 2, 4))
    )
    w = size["grid"]
    grid = make_lattice("grid2d", w, w)
    bulk = (w // 2) * w + w // 2 - 1  # an edge between two degree-4 vertices
    m["pairdistill.reduced_pair_state_us"] = 1e6 * per_call_s(
        lambda: reduced_pair_state(grid, bulk, bulk + 1, ch)
    )
    for name, g in (("region12", _double_star(5)), ("region6", _double_star(2))):
        m[f"pairdistill.weighted_reduced_pair.{name}_ms"] = 1e3 * per_call_s(
            lambda g=g: weighted_reduced_pair(g, 0, 1, ch)
        )
    m["pairdistill.lifetime_lower_bound.grid2d10x10_s"] = per_call_s(
        lambda: lifetime_lower_bound(grid, DEPOL), passes=3
    )
    m["isingsep.weighted_gate_threshold_ms"] = 1e3 * per_call_s(
        lambda: weighted_gate_threshold(math.pi / 2, 2, 2)
    )
    m["ghz.ghz_lifetime.n20_ms"] = 1e3 * per_call_s(
        lambda: ghz_lifetime(size["ghz"], 1, "depolarizing")
    )
    m["encode.encoded_lifetime.j5_ms"] = 1e3 * per_call_s(
        lambda: encoded_lifetime(1057.0, 5, pipeline="exact")
    )
    m["channels.eb_threshold.jamiolkowski_ms"] = 1e3 * per_call_s(
        lambda: eb_threshold(DEPOL, via="jamiolkowski")
    )
    return m


def _double_star(leaves: int):
    """Weighted edge (0, 1) whose ends each carry `leaves` more neighbours.

    The local region of the edge then holds 2 + 2 * leaves qubits; phases
    are fixed and distinct from pi so the dense route is needed.
    """
    edges = [(0, 1)]
    for side in (0, 1):
        edges += [(side, 2 + side * leaves + i) for i in range(leaves)]
    n = 2 + 2 * leaves
    return graph_from_edges(n, edges, weights={e: 0.5 + 0.1 * i for i, e in enumerate(sorted(edges))})


def oracle_probes(size: dict) -> dict:
    g = make_lattice("ring", size["dense"])
    pure = dense_graph_state(g)
    channel = ChannelMatrix.from_pauli(DEPOL.pauli(NOISE_P))
    noisy = apply_uniform_channel(pure, channel)
    part = alternating_split(g.n)
    return {
        "oracle.apply_uniform_channel.n8_ms": 1e3 * per_call_s(
            lambda: apply_uniform_channel(pure, channel), passes=3
        ),
        "oracle.pt_spectrum_dense.n8_ms": 1e3 * per_call_s(lambda: pt_spectrum_dense(noisy, part)),
    }


IMPORT_PASSES = 5


def _fresh_import_s(module: str) -> float:
    """Median seconds a fresh interpreter spends in `import module`."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_PASSES):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def cli_probes() -> tuple[dict, list[str]]:
    m = {
        "cli.import_s": _fresh_import_s("qdeco.cli"),
        "cli.import_numpy_s": _fresh_import_s("numpy"),
    }
    failures = []
    for label, argv in readme_commands(seed=7):
        codes = []

        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))

        m[f"cli.main.{label}_ms"] = 1e3 * per_call_s(call, passes=3)
        if any(codes):
            failures.append(f"cli.main {label} exited {codes}")
    return m, failures


def run(small: bool, workdir: Path) -> tuple[dict, list[str]]:
    """All probe metrics and the failures of their own consistency checks.

    The in-process commands run in workdir, where `scan --out` writes.
    """
    size = SIZES["small" if small else "full"]
    jobs = min(2, os.cpu_count() or 1)
    metrics, failures = graphdiag_probes(size, jobs)
    metrics.update(pair_probes(size))
    metrics.update(oracle_probes(size))
    os.chdir(workdir)
    cli_metrics, cli_failures = cli_probes()
    metrics.update(cli_metrics)
    return metrics, failures + cli_failures
