import json
import math
import tracemalloc

import pytest

from qdeco.errors import CapacityError, ValidationError
from qdeco.graphs import (
    Bipartition,
    Graph,
    bipartitions,
    degree,
    graph_from_edges,
    load_graph,
    make_lattice,
    neighborhood,
    parse_graph_json,
    parse_lattice_spec,
)


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph(2, (0b10,))  # row count
    with pytest.raises(ValidationError):
        Graph(2, (0b01, 0b10))  # self loops
    with pytest.raises(ValidationError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(CapacityError):
        graph_from_edges(129, [])
    with pytest.raises(CapacityError):  # before it allocates a row per vertex
        graph_from_edges(10**30, [])
    with pytest.raises(ValidationError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValidationError, match=r"edge \(1,0\) is listed twice"):
        graph_from_edges(3, [(0, 1), (1, 2), (1, 0)])


def test_weights_must_sit_on_edges_with_sane_phases():
    graph_from_edges(2, [(0, 1)], weights={(0, 1): math.pi / 2})
    with pytest.raises(ValidationError):
        graph_from_edges(3, [(0, 1)], weights={(0, 2): 1.0})
    with pytest.raises(ValidationError):
        graph_from_edges(2, [(0, 1)], weights={(0, 1): 0.0})
    with pytest.raises(ValidationError):
        graph_from_edges(2, [(0, 1)], weights={(0, 1): 4.0})


def test_neighborhoods_and_degrees_on_a_ring():
    g = make_lattice("ring", 5)
    assert neighborhood(g, 0) == 0b10010
    assert all(degree(g, k) == 2 for k in range(5))
    # Adjacent ring vertices share no neighbors: symmetric difference is 4.
    assert (neighborhood(g, 0) ^ neighborhood(g, 1)).bit_count() == 4


def test_phase_defaults_to_pi():
    g = graph_from_edges(3, [(0, 1), (1, 2)], weights={(0, 1): 1.0})
    assert g.phase(0, 1) == 1.0
    assert g.phase(1, 0) == 1.0  # order-insensitive
    assert g.phase(1, 2) == math.pi
    with pytest.raises(ValidationError):
        g.phase(0, 2)
    assert g.is_weighted
    assert not make_lattice("line", 3).is_weighted


def test_edges_listing():
    g = make_lattice("line", 4)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_bipartition_basics():
    b = Bipartition(0b0110, 4)
    assert b.size_a == 2
    assert b.complement_mask == 0b1001
    assert b.members() == [1, 2]
    for bad in (0, 0b1111, 0b10000):
        with pytest.raises(ValidationError):
            Bipartition(bad, 4)


def test_bipartitions_enumerate_each_split_once():
    g = make_lattice("ring", 6)
    parts = list(bipartitions(g))
    assert len(parts) == 2 ** (6 - 1) - 1 == 31
    # Vertex 0 always in the complement, so each unordered split shows once.
    assert all(part.a_mask % 2 == 0 for part in parts)
    masks = {p.a_mask for p in parts}
    assert not any((p.complement_mask in masks) for p in parts)
    with pytest.raises(CapacityError):
        list(bipartitions(make_lattice("ring", 21)))


@pytest.mark.parametrize(
    "spec, n, n_edges",
    [
        ("ring:6", 6, 6),
        ("line:6", 6, 5),
        ("star:6", 6, 5),
        ("complete:5", 5, 10),
        ("grid2d:3x2", 6, 7),
        ("grid3d:2x2x2", 8, 12),
    ],
)
def test_lattice_shapes(spec, n, n_edges):
    g = parse_lattice_spec(spec)
    assert g.n == n
    assert len(g.edges()) == n_edges
    assert g.name == spec


def test_star_center_is_vertex_zero():
    g = make_lattice("star", 7)
    assert degree(g, 0) == 6
    assert all(degree(g, k) == 1 for k in range(1, 7))


def test_grid2d_is_a_proper_grid():
    g = make_lattice("grid2d", 3, 3)
    assert degree(g, 4) == 4  # center
    assert degree(g, 0) == 2  # corner


def test_lattice_spec_errors():
    for bad in ("ring", "ring:", "ring:x", "blob:4", "grid2d:3"):
        with pytest.raises(ValidationError):
            parse_lattice_spec(bad)


def test_graph_json_round_trip():
    g = graph_from_edges(
        4, [(0, 1), (1, 2), (2, 3)], weights={(1, 2): 0.5}, name="zigzag"
    )
    edges = [[u, v] if g.phase(u, v) == math.pi else [u, v, g.phase(u, v)] for u, v in g.edges()]
    g2 = parse_graph_json(json.dumps({"n": g.n, "edges": edges, "name": g.name}))
    assert g2.n == g.n and g2.adj == g.adj and g2.name == "zigzag"
    assert g2.phase(1, 2) == 0.5 and g2.phase(0, 1) == math.pi


def test_graph_json_validation():
    with pytest.raises(ValidationError):
        parse_graph_json("not json")
    with pytest.raises(ValidationError):
        parse_graph_json('{"edges": []}')
    with pytest.raises(ValidationError):
        parse_graph_json('{"n": 2, "edges": [[1, 0]]}')  # u < v required
    with pytest.raises(ValidationError):
        parse_graph_json('{"n": 2, "edges": [[0, 1, 9.0]]}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 3, "edges": [[false, true, true]]}', "endpoints must be integers"),
        ('{"n": 3, "edges": [[0, 1, true]]}', "phase must be a number"),
        ('{"n": true, "edges": []}', '"n" must be an integer'),
        ('{"n": 3, "edges": [[0, 1, 1.0], [1, 2], [0, 1, 2.0]]}', r"edge \(0,1\) is listed twice"),
        ('{"n": 2, "edges": [[0, 1]], "name": 5}', '"name" must be a string'),
        pytest.param('{"n": 2, "edges": [[0, 1, 1%s]]}' % ("0" * 400), "edge #0: phase must be finite",
                     id="phase 10^400"),
        # json.loads raises a plain ValueError past 4300 digits (a Python
        # without that limit reads the integer, whose float() overflows).
        pytest.param('{"n": 2, "edges": [[0, 1, 1%s]]}' % ("0" * 5000),
                     "^graph JSON does not parse: Exceeds the limit|phase must be finite",
                     id="phase of 5001 digits"),
    ],
)
def test_graph_json_rejects_booleans_repeated_edges_and_non_string_names(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_graph_json(text)


@pytest.mark.parametrize("spec", [("ring", 10**6), ("grid2d", 1000, 1000), ("grid3d", 100, 100, 100)])
def test_oversized_lattice_is_refused_before_its_edges_are_built(spec):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="vertex count 1000000 outside 1..128"):
            make_lattice(*spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_graph_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b'\xff{"n": 2, "edges": [[0, 1]]}')
    with pytest.raises(ValidationError, match="cannot read graph file"):
        load_graph(f"@{path}")


def test_load_graph_dispatch(tmp_path):
    assert load_graph("ring:4").n == 4
    assert load_graph('{"n": 2, "edges": [[0, 1]]}').n == 2
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    assert load_graph(f"@{path}").edges() == [(0, 1), (1, 2)]
