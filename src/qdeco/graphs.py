"""Graphs with optional edge phases, lattice constructors, and partitions.

Vertices are 0..n-1; a neighborhood is an int bit mask.  An edge weight is a
phase in (0, pi]; pi is the plain (unweighted) edge, and absent weights mean
every edge carries pi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator

from .errors import CapacityError, ValidationError

# Vertex masks are plain Python ints, so the structural cap is generous;
# anything that allocates 2^n storage or enumerates subsets carries its own,
# much tighter cap (bipartition enumeration below, and the per-module caps in
# graphdiag and oracle).
VERTEX_CAP = 128
ENUMERATION_CAP = 20


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]
    weights: dict[tuple[int, int], float] | None = field(default=None, compare=False)
    name: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.n <= VERTEX_CAP:
            raise CapacityError(f"vertex count {self.n} outside 1..{VERTEX_CAP}")
        if len(self.adj) != self.n:
            raise ValidationError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for k, row in enumerate(self.adj):
            if row & ~full:
                raise ValidationError(f"adjacency row {k} references missing vertices")
            if row & (1 << k):
                raise ValidationError(f"self-loop at vertex {k}")
        for k in range(self.n):
            for l in range(k + 1, self.n):
                a = (self.adj[k] >> l) & 1
                b = (self.adj[l] >> k) & 1
                if a != b:
                    raise ValidationError(f"adjacency not symmetric at ({k},{l})")
        if self.weights is not None:
            for (u, v), phi in self.weights.items():
                if not (u < v and (self.adj[u] >> v) & 1):
                    raise ValidationError(f"weight on non-edge ({u},{v})")
                if not 0.0 < phi <= math.pi:
                    raise ValidationError(f"edge phase {phi} outside (0, pi]")

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (self.adj[u] >> v) & 1
        ]

    def phase(self, u: int, v: int) -> float:
        """Edge phase; pi unless an explicit weight is attached."""
        if u > v:
            u, v = v, u
        if not (self.adj[u] >> v) & 1:
            raise ValidationError(f"({u},{v}) is not an edge")
        if self.weights is None:
            return math.pi
        return self.weights.get((u, v), math.pi)


def graph_from_edges(
    n: int,
    edges: list[tuple[int, int]],
    weights: dict[tuple[int, int], float] | None = None,
    name: str = "",
) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n and u != v):
            raise ValidationError(f"bad edge ({u},{v}) for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), weights, name)


def neighborhood(g: Graph, k: int) -> int:
    if not 0 <= k < g.n:
        raise ValidationError(f"vertex {k} out of range")
    return g.adj[k]


def degree(g: Graph, k: int) -> int:
    return neighborhood(g, k).bit_count()


def spread_bits(compact: int, mask: int) -> int:
    """Map bit i of `compact` onto the i-th set bit of `mask`."""
    out = 0
    pos = 0
    m = mask
    while m:
        low = m & -m
        if (compact >> pos) & 1:
            out |= low
        pos += 1
        m ^= low
    return out


def symdiff_neighborhoods(g: Graph, k: int, l: int) -> int:
    """|N_k + N_l|: size of the mod-2 sum of the two neighborhoods."""
    return (neighborhood(g, k) ^ neighborhood(g, l)).bit_count()


@dataclass(frozen=True)
class Bipartition:
    """One side A of an unordered split of the vertex set."""

    a_mask: int
    n: int

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        if self.a_mask == 0 or self.a_mask == full or self.a_mask & ~full:
            raise ValidationError("A must be a nonempty proper subset of the vertices")

    @property
    def complement_mask(self) -> int:
        return ((1 << self.n) - 1) ^ self.a_mask

    @property
    def size_a(self) -> int:
        return self.a_mask.bit_count()

    def members(self) -> list[int]:
        return [i for i in range(self.n) if (self.a_mask >> i) & 1]


@dataclass(frozen=True)
class MPartition:
    """Disjoint blocks covering all vertices."""

    blocks: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        union = 0
        for b in self.blocks:
            if b == 0:
                raise ValidationError("empty block")
            if union & b:
                raise ValidationError("blocks overlap")
            union |= b
        if union != (1 << self.n) - 1:
            raise ValidationError("blocks do not cover the vertex set")

    @property
    def m(self) -> int:
        return len(self.blocks)


def bipartitions(g: Graph) -> Iterator[Bipartition]:
    """Each unordered split exactly once: vertex 0 stays in the complement.

    Yields 2^(n-1) - 1 partitions in ascending a_mask order.
    """
    if g.n > ENUMERATION_CAP:
        raise CapacityError(f"bipartition enumeration capped at n={ENUMERATION_CAP}")
    for sub in range(1, 1 << (g.n - 1)):
        yield Bipartition(sub << 1, g.n)


def make_lattice(kind: str, *sizes: int) -> Graph:
    """Builtin lattices: ring, line, star, complete, grid2d(w,h), grid3d(w,h,d).

    Rings wrap, lines do not; the star's center is vertex 0.
    """
    if kind in ("ring", "line", "star", "complete"):
        if len(sizes) != 1:
            raise ValidationError(f"{kind} takes one size")
        (n,) = sizes
        if n < 2:
            raise ValidationError(f"{kind} needs at least 2 vertices")
        if kind == "ring":
            if n < 3:
                raise ValidationError("ring needs at least 3 vertices")
            edges = [(i, (i + 1) % n) for i in range(n)]
            edges = [(min(u, v), max(u, v)) for u, v in edges]
        elif kind == "line":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif kind == "star":
            edges = [(0, i) for i in range(1, n)]
        else:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return graph_from_edges(n, edges, name=f"{kind}:{n}")
    if kind == "grid2d":
        if len(sizes) != 2:
            raise ValidationError("grid2d takes WxH")
        w, h = sizes
        if w < 1 or h < 1:
            raise ValidationError("grid2d needs positive dimensions")
        idx = lambda x, y: y * w + x
        edges = []
        for y in range(h):
            for x in range(w):
                if x + 1 < w:
                    edges.append((idx(x, y), idx(x + 1, y)))
                if y + 1 < h:
                    edges.append((idx(x, y), idx(x, y + 1)))
        return graph_from_edges(w * h, edges, name=f"grid2d:{w}x{h}")
    if kind == "grid3d":
        if len(sizes) != 3:
            raise ValidationError("grid3d takes WxHxD")
        w, h, d = sizes
        if min(w, h, d) < 1:
            raise ValidationError("grid3d needs positive dimensions")
        idx = lambda x, y, z: (z * h + y) * w + x
        edges = []
        for z in range(d):
            for y in range(h):
                for x in range(w):
                    if x + 1 < w:
                        edges.append((idx(x, y, z), idx(x + 1, y, z)))
                    if y + 1 < h:
                        edges.append((idx(x, y, z), idx(x, y + 1, z)))
                    if z + 1 < d:
                        edges.append((idx(x, y, z), idx(x, y, z + 1)))
        return graph_from_edges(w * h * d, edges, name=f"grid3d:{w}x{h}x{d}")
    raise ValidationError(f"unknown lattice kind {kind!r}")


def parse_lattice_spec(spec: str) -> Graph:
    """Parse the mini-language: ring:N, line:N, star:N, complete:N,
    grid2d:WxH, grid3d:WxHxD."""
    kind, _, rest = spec.partition(":")
    if not rest:
        raise ValidationError(f"lattice spec {spec!r} needs sizes after ':'")
    try:
        sizes = tuple(int(s) for s in rest.split("x"))
    except ValueError as exc:
        raise ValidationError(f"bad sizes in lattice spec {spec!r}") from exc
    return make_lattice(kind, *sizes)


def parse_graph_json(text: str) -> Graph:
    """Graph JSON: {"n": int, "edges": [[u,v] | [u,v,phi]], "name": str?}.

    Edges require u < v; phi, when present, must lie in (0, pi].
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"graph JSON does not parse: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValidationError('graph JSON needs keys "n" and "edges"')
    n = obj["n"]
    if not isinstance(n, int):
        raise ValidationError('"n" must be an integer')
    edges: list[tuple[int, int]] = []
    weights: dict[tuple[int, int], float] = {}
    any_weight = False
    for i, e in enumerate(obj["edges"]):
        if not isinstance(e, list) or len(e) not in (2, 3):
            raise ValidationError(f"edge #{i} must be [u, v] or [u, v, phi]")
        u, v = e[0], e[1]
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ValidationError(f"edge #{i} endpoints must be integers")
        if not u < v:
            raise ValidationError(f"edge #{i}: require u < v, got ({u},{v})")
        edges.append((u, v))
        if len(e) == 3:
            if not isinstance(e[2], (int, float)):
                raise ValidationError(f"edge #{i}: phase must be a number")
            phi = float(e[2])
            if not 0.0 < phi <= math.pi:
                raise ValidationError(f"edge #{i}: phase {phi} outside (0, pi]")
            weights[(u, v)] = phi
            any_weight = True
    return graph_from_edges(
        n, edges, weights if any_weight else None, name=obj.get("name", "")
    )


def emit_graph_json(g: Graph) -> str:
    edges: list[list] = []
    for u, v in g.edges():
        if g.is_weighted:
            edges.append([u, v, g.phase(u, v)])
        else:
            edges.append([u, v])
    obj: dict = {"n": g.n, "edges": edges}
    if g.name:
        obj["name"] = g.name
    return json.dumps(obj)


def load_graph(spec: str) -> Graph:
    """Accept a lattice spec (ring:6), inline JSON, or @path to a JSON file."""
    spec = spec.strip()
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read graph file: {exc}") from exc
        return parse_graph_json(text)
    if spec.startswith("{"):
        return parse_graph_json(spec)
    return parse_lattice_spec(spec)
