"""Task lists of the two in-process workloads, built from the benchmark seed.

A task is one call into a public qdeco function.  Building the list builds
every input (graphs, channel families, seeded phases), so the time from
interpreter launch to the end of `build` is the workload's set-up time and
the loop over `Task.call` is its wall time.  `Task.summary` turns a result
into plain JSON values for the output checks and for the recorded
reference in reference.json; `seeded` tasks depend on the seed and are
checked by a second route instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from qdeco.channels import ChannelFamily
from qdeco.encode import breakeven, encoded_lifetime
from qdeco.ghz import ghz_lifetime
from qdeco.graphdiag import (
    estimate_threshold_dephasing,
    estimate_threshold_pair,
    scan_partitions,
)
from qdeco.graphs import Graph, graph_from_edges, make_lattice
from qdeco.isingsep import graph_separability_threshold, weighted_graph_threshold
from qdeco.pairdistill import closed_form_threshold, lifetime_lower_bound

DEPOL = ChannelFamily.from_spec("depolarizing")
DEPHASING = ChannelFamily.from_spec("dephasing")
BITFLIP = ChannelFamily.from_spec("bitflip")

# Seeded edge phases are spread over [PHASE_LO, pi]; phases near 0 leave an
# edge unentangled and its pair threshold outside the bracket.
PHASE_LO = 0.3
# The seed relabels one fixed cubic graph, drawn once with this seed.
CUBIC_SEED = 0

# Full size, and the reduced size the self-check runs.  No single call of
# the full size takes much over half a second: the host these sizes were
# tuned on slowed identical calls by up to a factor of two for seconds at a
# time, and a run needs many repetitions of every call for its fastest one
# to be steady (see run.measure).  The probes keep the larger fixed sizes.
SIZES = {
    "full": {
        "ring": 7, "cubic": 6,
        "lower": [("ring", 30), ("grid2d", 5, 5)], "lower_bitflip": ("grid3d", 3, 3, 3),
        "weighted": [("grid2d", 2, 3), ("ring", 5)],
        "ghz_n": range(3, 17), "star": 6,
    },
    "small": {
        "ring": 5, "cubic": 4,
        "lower": [("ring", 6), ("grid2d", 4, 4)], "lower_bitflip": ("grid3d", 2, 2, 2),
        "weighted": [("grid2d", 2, 2), ("ring", 4)],
        "ghz_n": range(3, 7), "star": 4,
    },
}


@dataclass(frozen=True)
class Task:
    name: str  # unique within the workload
    span: str  # "<module>.<function>" of the public call
    call: Callable[[], Any]
    summary: Callable[[Any], Any]
    seeded: bool = False


def _num(x: float) -> float | None:
    return None if math.isnan(x) else x


def scan_summary(rep) -> dict:
    return {
        "p_crit": [_num(e.p_crit) for e in rep.entries],
        "status": [e.status for e in rep.entries],
        "argmin": [e.argmin_mask for e in rep.entries],
        "first": rep.first_ppt.partition.a_mask if rep.first_ppt else None,
        "last": rep.last_ppt.partition.a_mask if rep.last_ppt else None,
    }


def lower_summary(rep) -> dict:
    return {
        "p_global": _num(rep.p_global),
        "p_spanning": _num(rep.p_spanning),
        "per_edge": [_num(e.p_crit) for e in rep.per_edge],
    }


def root_summary(res) -> dict:
    return {"value": _num(res.value), "found": res.sign_change_found}


def weighted_summary(rep) -> dict:
    return {
        "p_z": rep.p_z_threshold,
        "native_p": rep.native_p,
        "per_edge": [e[3] for e in rep.per_edge],
    }


def separability_summary(rep) -> dict:
    return {"p_threshold": rep.p_threshold, "weak_bound": rep.weak_bound}


def _connected(g: Graph) -> bool:
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for y in range(g.n):
            if (g.adj[x] >> y) & 1 and y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == g.n


def random_cubic_graph(rng: random.Random, n: int) -> Graph:
    """Uniform random connected 3-regular graph on n vertices.

    Pairs 3n vertex stubs at random and rejects loops, multi-edges and
    disconnected results.  The degree is fixed so that the seed changes
    the graph's structure but not its edge count, which keeps the scan's
    work close to constant across seeds.
    """
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            g = graph_from_edges(n, sorted(edges), name=f"cubic:{n}")
            if _connected(g):
                return g


def relabelled(rng: random.Random, g: Graph) -> Graph:
    """g with its vertices renumbered by a random permutation.

    The seed changes every split's vertex set and every output mask, but
    not the multiset of split problems, so the scan's work is the same for
    every seed.
    """
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges())
    return graph_from_edges(g.n, edges, name=g.name)


def seeded_phases(rng: random.Random, g: Graph) -> Graph:
    """g with edge phases evenly spread over [PHASE_LO, pi], dealt to the
    edges in a random order.

    With uniform draws the seeded calls took 0.77-0.97 s across seeds 1-5,
    of about 1.8 s for the whole workload; dealing one fixed set of phases
    keeps the seed-to-seed change in work small while every seed still
    gives each edge its own phase and neighbourhood of phases.
    """
    edges = g.edges()
    m = len(edges)
    phases = [PHASE_LO + (math.pi - PHASE_LO) * (i + 0.5) / m for i in range(m)]
    rng.shuffle(phases)
    return graph_from_edges(g.n, edges, weights=dict(zip(edges, phases)), name=f"{g.name}+phases")


def _label(spec: tuple) -> str:
    kind, *sizes = spec
    return f"{kind}:{'x'.join(str(s) for s in sizes)}"


def scan_ring(seed: int, size: dict) -> list[Task]:
    ring = make_lattice("ring", size["ring"])
    cubic = random_cubic_graph(random.Random(CUBIC_SEED), size["cubic"])
    cubic = relabelled(random.Random(seed), cubic)
    return [
        Task(f"scan {ring.name} depolarizing", "graphdiag.scan_partitions",
             lambda: scan_partitions(ring, DEPOL), scan_summary),
        Task(f"scan {ring.name} dephasing", "graphdiag.scan_partitions",
             lambda: scan_partitions(ring, DEPHASING), scan_summary),
        Task(f"scan {cubic.name} depolarizing", "graphdiag.scan_partitions",
             lambda: scan_partitions(cubic, DEPOL), scan_summary, seeded=True),
    ]


def paper_bounds(seed: int, size: dict) -> list[Task]:
    rng = random.Random(seed)
    tasks: list[Task] = []

    def add(name, span, call, summary, seeded=False):
        tasks.append(Task(name, span, call, summary, seeded))

    for spec in size["lower"]:
        g = make_lattice(*spec)
        add(f"lower {_label(spec)} depolarizing", "pairdistill.lifetime_lower_bound",
            lambda g=g: lifetime_lower_bound(g, DEPOL), lower_summary)
    g3 = make_lattice(*size["lower_bitflip"])
    add(f"lower {_label(size['lower_bitflip'])} bitflip", "pairdistill.lifetime_lower_bound",
        lambda: lifetime_lower_bound(g3, BITFLIP), lower_summary)

    for spec in size["weighted"]:
        g = make_lattice(*spec)
        gw = seeded_phases(rng, g)
        add(f"lower {_label(spec)}+phases depolarizing", "pairdistill.lifetime_lower_bound",
            lambda gw=gw: lifetime_lower_bound(gw, DEPOL), lower_summary, seeded=True)
        add(f"weighted {_label(spec)}+phases depolarizing", "isingsep.weighted_graph_threshold",
            lambda gw=gw: weighted_graph_threshold(gw, DEPOL), weighted_summary, seeded=True)
        add(f"separability {_label(spec)}", "isingsep.graph_separability_threshold",
            lambda g=g: graph_separability_threshold(g), separability_summary)
        add(f"lower {_label(spec)} dephasing", "pairdistill.lifetime_lower_bound",
            lambda g=g: lifetime_lower_bound(g, DEPHASING), lower_summary)

    for n in size["ghz_n"]:
        for k in range(1, n):
            add(f"ghz n={n} k={k}", "ghz.ghz_lifetime",
                lambda n=n, k=k: ghz_lifetime(n, k, "depolarizing"), root_summary)
        add(f"closed star n={n}", "pairdistill.closed_form_threshold",
            lambda n=n: closed_form_threshold("depolarizing", (n - 1, 1, n)), root_summary)

    star = make_lattice("star", size["star"])
    add(f"scan {star.name} depolarizing", "graphdiag.scan_partitions",
        lambda: scan_partitions(star, DEPOL), scan_summary)

    for degrees in ((2, 2, 4), (4, 4, 8), (6, 6, 12)):
        add(f"closed {degrees}", "pairdistill.closed_form_threshold",
            lambda d=degrees: closed_form_threshold("depolarizing", d), root_summary)
    add("estimate pair", "graphdiag.estimate_threshold_pair",
        estimate_threshold_pair, root_summary)
    add("estimate dephasing deg=2", "graphdiag.estimate_threshold_dephasing",
        lambda: estimate_threshold_dephasing(2), root_summary)

    for j in range(1, 6):
        add(f"encoded j={j}", "encode.encoded_lifetime",
            lambda j=j: encoded_lifetime(1057.0, j, pipeline="exact"), lambda x: x)
    add("breakeven", "encode.breakeven", breakeven, lambda b: {"p": b.p, "kt": b.kt})
    return tasks


BUILDERS = {"scan-ring": scan_ring, "paper-bounds": paper_bounds}


def build(workload: str, seed: int, small: bool) -> list[Task]:
    return BUILDERS[workload](seed, SIZES["small" if small else "full"])
