import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeco.errors import ValidationError
from qdeco.gf2 import (
    BitMatrix,
    dot,
    image_with_preimages,
    kernel_basis,
    matvec,
    orthocomplement,
)


def brute_span(vectors, length):
    """All XOR combinations, by exhaustive enumeration."""
    span = {0}
    for v in vectors:
        span |= {x ^ v for x in span}
    return span


def test_dot_is_parity_of_overlap():
    assert dot(0b101, 0b100) == 1
    assert dot(0b101, 0b101) == 0
    assert dot(0, 0b111) == 0


def test_bitmatrix_validation():
    with pytest.raises(ValidationError):
        BitMatrix.from_rows([0b100], n_cols=2)  # bit beyond column count
    with pytest.raises(ValidationError):
        BitMatrix((0b1,), 2, 1)  # row count mismatch
    with pytest.raises(ValidationError):
        BitMatrix.from_rows([0], n_cols=65)


def test_matvec_small():
    m = BitMatrix.from_rows([0b011, 0b101], n_cols=3)
    # row0 . 0b001 = 1, row1 . 0b001 = 1
    assert matvec(m, 0b001) == 0b11
    assert matvec(m, 0b010) == 0b01
    with pytest.raises(ValidationError):
        matvec(m, 0b1000)


@st.composite
def bit_matrices(draw):
    n_cols = draw(st.integers(min_value=1, max_value=8))
    n_rows = draw(st.integers(min_value=1, max_value=8))
    rows = [
        draw(st.integers(min_value=0, max_value=(1 << n_cols) - 1))
        for _ in range(n_rows)
    ]
    return BitMatrix.from_rows(rows, n_cols)


@given(bit_matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_is_exactly_the_null_space(m):
    basis = kernel_basis(m)
    kernel = brute_span(basis, m.n_cols)
    expected = {x for x in range(1 << m.n_cols) if matvec(m, x) == 0}
    assert kernel == expected
    # Rank-nullity, with the rank read off the brute-force row span.
    assert len(brute_span(m.rows, m.n_cols)) << len(basis) == 1 << m.n_cols


@given(bit_matrices())
@settings(max_examples=80, deadline=None)
def test_image_enumeration_and_minimal_preimages(m):
    pairs = image_with_preimages(m)
    image = {matvec(m, x) for x in range(1 << m.n_cols)}
    assert {y for y, _ in pairs} == image
    assert len(pairs) == len(image) == len(brute_span(m.rows, m.n_cols))
    by_y = {}
    for x in range(1 << m.n_cols):
        y = matvec(m, x)
        by_y.setdefault(y, x)  # x ascending, so first hit is the minimum
    for y, a in pairs:
        assert matvec(m, a) == y
        assert a == by_y[y]


@given(bit_matrices())
@settings(max_examples=60, deadline=None)
def test_orthocomplement_brute_force(m):
    got = orthocomplement(list(m.rows), m.n_cols)
    expected = {
        x
        for x in range(1 << m.n_cols)
        if all(dot(x, v) == 0 for v in m.rows)
    }
    assert set(got) == expected
    assert len(got) == len(expected)  # no duplicates in the enumeration


def test_orthocomplement_of_nothing_is_everything():
    assert set(orthocomplement([], 3)) == set(range(8))


def test_deterministic_output_order():
    rng = random.Random(11)
    rows = [rng.randrange(1 << 6) for _ in range(5)]
    m = BitMatrix.from_rows(rows, 6)
    assert image_with_preimages(m) == image_with_preimages(m)
    assert orthocomplement(rows, 6) == orthocomplement(rows, 6)
