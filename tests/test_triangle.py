import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbulk import triangle
from hyperbulk.errors import ConfigError
from hyperbulk.triangle import (
    GEN_A,
    GEN_A_INV,
    GEN_B,
    GEN_B_INV,
    GroupMatrix,
    build_generators,
    inverse_word,
    parse_word,
    ring_index,
    word_str,
    word_to_matrix,
)

from conftest import QUOTIENT_ORDERS, check_layers

ALL_PAIRS = sorted(QUOTIENT_ORDERS) + [(7, 5)]


def test_ring_index_cases():
    assert ring_index(7, 3) == 14  # q = 3 -> 2p
    assert ring_index(3, 7) == 14  # p = 3 -> 2q
    assert ring_index(6, 6) == 12  # p = q -> 2p
    assert ring_index(5, 4) == 40  # generic -> 2pq
    assert ring_index(8, 5) == 80


def test_tessellation_params_validation():
    triangle.TessellationParams(5, 4)
    with pytest.raises(ConfigError):
        triangle.TessellationParams(2, 7)
    with pytest.raises(ConfigError):
        triangle.TessellationParams(4, 4)  # Euclidean
    with pytest.raises(ConfigError):
        triangle.TessellationParams(3, 6)  # Euclidean


@pytest.mark.parametrize("p,q", ALL_PAIRS)
def test_rotation_relations_exact(p, q):
    # A^p = B^q = (AB)^2 = identity, exactly over Z[xi]
    gens = build_generators(p, q)
    ident = GroupMatrix.identity(gens.ctx)
    assert gens.A.pow(p) == ident
    assert gens.B.pow(q) == ident
    assert (gens.A @ gens.B).pow(2) == ident
    assert gens.A @ gens.A_inv == ident
    assert gens.B @ gens.B_inv == ident


@pytest.mark.parametrize("p,q", [(5, 4), (7, 3), (8, 8)])
def test_rotations_unimodular(p, q):
    gens = build_generators(p, q)
    one = gens.ctx.one()
    assert gens.A.det() == one
    assert gens.B.det() == one


def test_reflections_square_to_identity():
    ctx_54 = triangle.make_context(ring_index(5, 4))
    sx, sy, sz = triangle.reflection_generators(5, 4, ctx_54)
    ident = GroupMatrix.identity(ctx_54)
    for s in (sx, sy, sz):
        assert s @ s == ident
    neg_one = -ctx_54.one()
    for s in (sx, sy, sz):
        assert s.det() == neg_one


def test_reflection_generators_allow_flat_geometry():
    # the reflection construction itself has no curvature requirement
    triangle.reflection_generators(6, 3)


def test_word_round_trip():
    w = (GEN_A, GEN_B, GEN_A_INV, GEN_B_INV, GEN_A)
    assert parse_word(word_str(w)) == w
    assert inverse_word(w) == (GEN_A_INV, GEN_B, GEN_A, GEN_B_INV, GEN_A_INV)


word_strategy = st.lists(
    st.sampled_from([GEN_A, GEN_A_INV, GEN_B, GEN_B_INV]), max_size=12
).map(tuple)


@settings(deadline=None, max_examples=40)
@given(word_strategy)
def test_word_inverse_is_matrix_inverse(w):
    gens = build_generators(5, 4)
    m = word_to_matrix(w, gens)
    minv = word_to_matrix(inverse_word(w), gens)
    assert m @ minv == GroupMatrix.identity(gens.ctx)


@settings(deadline=None, max_examples=40)
@given(word_strategy, word_strategy)
def test_numeric_is_multiplicative(u, v):
    gens = build_generators(5, 4)
    mu, mv = word_to_matrix(u, gens), word_to_matrix(v, gens)
    got = (mu @ mv).numeric()
    want = mu.numeric() @ mv.numeric()
    assert np.allclose(got, want, atol=1e-9)


def test_flat_round_trip():
    gens = build_generators(5, 4)
    m = word_to_matrix((GEN_A, GEN_B, GEN_A), gens)
    flat = triangle.matrix_to_flat(m)
    assert flat.shape == (3, 3 * gens.ctx.d)
    back = triangle.flat_to_matrix(gens.ctx, flat)
    assert back == m


@settings(deadline=None, max_examples=30)
@given(word_strategy, st.sampled_from([GEN_A, GEN_A_INV, GEN_B, GEN_B_INV]))
def test_right_products_match_matmul(w, t):
    gens = build_generators(5, 4)
    m = word_to_matrix(w, gens)
    tables = triangle.mult_tables([gens.token_matrix(t)])
    got = triangle.right_products(triangle.matrix_to_flat(m).astype(np.int64)[None], tables)[0, 0]
    want = triangle.matrix_to_flat(m @ gens.token_matrix(t))
    assert got.dtype == np.int64
    assert np.array_equal(got, want.astype(np.int64))


def test_ball_layers_54():
    ball = triangle.ball_enumerate(5, 4, 6)
    assert ball.layer_sizes == [1, 4, 9, 16, 26, 41, 64]
    assert len(ball) == sum(ball.layer_sizes)
    check_layers(ball)
    # element 0 is the identity with the empty word
    assert ball.word(0) == ()
    assert ball.matrix(0) == GroupMatrix.identity(ball.gens.ctx)


def test_ball_words_consistent():
    ball = triangle.ball_enumerate(5, 4, 3)
    for i in range(len(ball)):
        w = ball.word(i)
        assert len(w) <= 3
        assert word_to_matrix(w, ball.gens) == ball.matrix(i)
        assert ball.index.find(ball.flat(i)[None])[0] == i


def test_ball_export_jsonl(tmp_path):
    import json

    ball = triangle.ball_enumerate(5, 4, 2)
    path = tmp_path / "ball.jsonl"
    triangle.export_ball_jsonl(ball, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(ball)
    first = json.loads(lines[0])
    assert first["word"] == ""


def test_row_keys_pad_rows_to_whole_words():
    rows = np.random.default_rng(3).integers(0, 256, size=(50, 27), dtype=np.uint8)
    padded = np.concatenate([rows, np.zeros((50, 5), dtype=np.uint8)], axis=1)
    keys = triangle.row_keys(rows)
    assert np.array_equal(keys, triangle.row_keys(padded))
    assert len(np.unique(keys)) == 50
    # an int64 row's 8-byte words are its entries: its key is the linear form of the entries
    wide = rows.astype(np.int64) - 128
    assert np.array_equal(triangle.row_keys(wide), wide.astype(np.uint64) @ triangle._key_weights(27))


def test_row_index_refuses_rows_of_another_dtype():
    rows = np.arange(12, dtype=np.uint8).reshape(4, 3)
    index = triangle.RowIndex(rows)
    assert list(index.find(rows[::-1].copy())) == [3, 2, 1, 0]
    with pytest.raises(TypeError, match="int64 rows queried in an index of uint8 rows"):
        index.find(rows.astype(np.int64))
