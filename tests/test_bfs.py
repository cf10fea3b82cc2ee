"""The breadth-first engine shared by quotients and balls, against exact oracles.

Quotient tables are checked entry by entry against exact word_to_matrix
products reduced mod s^k, represent_open against a per-site loop over a
dict of exact matrices, and the 64-bit row keys against forced
collisions: two distinct elements must never be merged.
"""

import dataclasses
import hashlib
import os

import numpy as np
import pytest
import scipy.sparse as sp

from hyperbulk import cli, operators, quotient, triangle
from hyperbulk.errors import NumericalContractError, ResourceLimitError
from hyperbulk.triangle import (
    GEN_A,
    GEN_A_INV,
    GroupMatrix,
    inverse_word,
    matrix_to_flat,
    word_to_matrix,
)

from conftest import DUPLICATES, check_layers


def reduced(mat: GroupMatrix, m: int) -> np.ndarray:
    return (matrix_to_flat(mat) % m).astype(np.int64)


def check_tables(group, sample):
    """Every table entry of the sampled elements is the exact product mod s^k."""
    gens = triangle.build_generators(group.p, group.q)
    m = group.modulus
    elements = group.elements.astype(np.int64)
    for i in sample:
        x = word_to_matrix(group.word(int(i)), gens)
        assert np.array_equal(reduced(x, m), elements[i])
        for t in range(4):
            g = gens.token_matrix(t)
            assert np.array_equal(reduced(x @ g, m), elements[group.gen_perm[t][i]])


def test_quotient_tables_match_exact_products_k1(q54_k1):
    check_tables(q54_k1, range(q54_k1.order))


def test_quotient_tables_match_exact_products_k2_sample(q54_k2):
    sample = np.random.default_rng(4).choice(q54_k2.order, size=48, replace=False)
    check_tables(q54_k2, sample)


# sha256 prefixes of the four cached arrays: a change renumbers elements and invalidates caches
FROZEN_TABLES = {
    (5, 4, 2, 1): "fcf3910beb2d279a",
    (5, 4, 2, 2): "aa724cb09532a261",
    (5, 4, 2, 3): "a80610a15a642d2d",
    (6, 6, 3, 2): "3c1389bf17b9050c",
    (7, 3, 2, 2): "8cb1f89cb09f73dc",
}


@pytest.mark.parametrize("key", sorted(FROZEN_TABLES), ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_cached_tables_are_frozen(key):
    group = quotient.build_quotient(*key)
    check_layers(group)
    digest = hashlib.sha256()
    for name in ("elements", "gen_perm", "parents", "tokens"):  # the four tables of the first cache format
        table = np.ascontiguousarray(getattr(group, name))
        if name != "elements":
            table = table.astype(np.int64)  # the digests were frozen over int64 index tables
        digest.update(f"{name}{table.dtype}{table.shape}".encode())
        digest.update(table.tobytes())
    assert digest.hexdigest()[:16] == FROZEN_TABLES[key]


@pytest.fixture(scope="module")
def q54_k3():
    return quotient.build_quotient(5, 4, 2, 3)


def saved_and_loaded(group, tmp_path):
    path = str(tmp_path / f"k{group.k}.npz")
    group.save(path)
    return quotient.QuotientGroup.load(path)


def test_reduce_to_matches_exact_lookup(q54_k1, q54_k2, q54_k3, tmp_path):
    coarse = {q54_k1.elements[i].tobytes(): i for i in range(q54_k1.order)}
    for group in (q54_k2, q54_k3):
        fine = (group.elements % q54_k1.modulus).astype(q54_k1.elements.dtype)
        want = [coarse[row.tobytes()] for row in fine]
        assert np.array_equal(group.reduce_to(q54_k1), want)
        # loaded groups: the map from the cached tables alone
        assert np.array_equal(saved_and_loaded(group, tmp_path).reduce_to(saved_and_loaded(q54_k1, tmp_path)), want)


@pytest.mark.parametrize("k", [2, 3])
def test_reduce_to_one_level_down_is_the_lift_coset(q54_k1, q54_k2, q54_k3, tmp_path, k):
    # element (t, n) = n L(t) of G_k maps to t in G_(k-1)
    tower = {1: q54_k1, 2: q54_k2, 3: q54_k3}
    fine, coarse = tower[k], tower[k - 1]
    want = fine.lift // fine.kernel_order
    assert np.array_equal(fine.reduce_to(coarse), want)
    loaded = saved_and_loaded(fine, tmp_path)
    assert np.array_equal(loaded.reduce_to(saved_and_loaded(coarse, tmp_path)), want)
    assert "elements" not in vars(loaded)


@pytest.mark.parametrize("which", ["fine", "coarse"])
def test_reduce_to_refuses_swapped_gen_perm_entries(q54_k1, q54_k2, which):
    groups = {"fine": q54_k2, "coarse": q54_k1}
    perm = groups[which].gen_perm.copy()
    perm[0, [5, 9]] = perm[0, [9, 5]]
    groups[which] = dataclasses.replace(groups[which], gen_perm=perm)
    with pytest.raises(NumericalContractError, match=r"breaks f\(x g\) = f\(x\) g for generator 0"):
        groups["fine"].reduce_to(groups["coarse"])


@pytest.mark.skipif(not os.environ.get("RUN_LONG"), reason="set RUN_LONG")
def test_reduce_to_from_g4_computes_no_element_rows(q54_k1, q54_k2, q54_k3):
    # {5,4} at k = 4: 5,242,880 elements; G_4 -> G_1 is one tree fill of G_1's table entries
    g4 = quotient.build_quotient(5, 4, 2, 4, element_cap=2**23)
    to_g1, to_g2, to_g3 = (g4.reduce_to(g) for g in (q54_k1, q54_k2, q54_k3))
    assert "elements" not in vars(g4)
    assert np.array_equal(to_g3, g4.lift // g4.kernel_order)
    assert np.array_equal(to_g1, q54_k3.reduce_to(q54_k1)[to_g3])
    assert np.array_equal(to_g2, q54_k3.reduce_to(q54_k2)[to_g3])


def reference_open(h, ball):
    """Hard truncation site by site, with exact matrices as dict keys; real weights for a real h."""
    mats = [ball.matrix(i) for i in range(len(ball))]
    where = {m: i for i, m in enumerate(mats)}
    n = len(ball)
    real = all(abs(c.imag) <= 1e-15 for _, c in h.items())
    rows, cols, vals = [], [], []
    for w, c in h.items():
        g_inv = word_to_matrix(inverse_word(w), ball.gens)
        for src in range(n):
            tgt = where.get(mats[src] @ g_inv, -1)
            if tgt >= 0:
                rows.append(tgt)
                cols.append(src)
                vals.append(c.real if real else c)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def open_models(p, q):
    """Adjacency, every h_alpha(kidx) at eps = 0.8, the empty word alone, the empty element and, on {5,4}, three
    words that name one element (conftest.DUPLICATES), whose weights are summed in term order."""
    models = {"adj": operators.adjacency(p, q), "e": operators.AlgebraElement.identity(),
              "empty": operators.AlgebraElement()}
    for alpha, nu in ((1, p), (2, q), (3, 2)):
        models.update((f"h{alpha}_{kidx}", operators.model_hamiltonian(alpha, kidx, 0.8, p, q))
                      for kidx in range(1, nu + 1))
    if (p, q) == (5, 4):
        models.update((f"dup_{name}", DUPLICATES[name]) for name in ("real", "complex"))
    return models


@pytest.fixture(scope="module")
def open_balls():
    return {(5, 4): triangle.ball_enumerate(5, 4, 6), (7, 3): triangle.ball_enumerate(7, 3, 4)}


@pytest.mark.parametrize("pq, name", [pytest.param(pq, name, id=name if pq == (5, 4) else f"{name}_73")
                                      for pq in ((5, 4), (7, 3)) for name in open_models(*pq)])
def test_represent_open_matches_site_loop(open_balls, pq, name):
    # h 1 1 and h 2 1 name A^-1 by 'aaaa' and 'A', and B^-1 by 'bbb' and 'B' on {5,4}: each pair is summed
    h = open_models(*pq)[name]
    got = operators.represent_open(h, open_balls[pq])
    want = reference_open(h, open_balls[pq])
    assert got.dtype == want.dtype
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).dtype == getattr(want, part).dtype
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


def test_ball_rows_are_exact_int64():
    ball = triangle.ball_enumerate(5, 4, 6)
    assert ball.index.rows.dtype == np.int64
    for i in range(len(ball)):
        assert np.array_equal(ball.index.rows[i], matrix_to_flat(word_to_matrix(ball.word(i), ball.gens)))


def first_entry_keys(rows):
    # a deliberately weak key: distinct elements with equal first entries collide
    return rows.reshape(len(rows), -1)[:, 0].astype(np.uint64)


def test_forced_key_collision_is_refused(monkeypatch):
    monkeypatch.setattr(triangle, "row_keys", first_entry_keys)
    with pytest.raises(NumericalContractError, match="share a 64-bit"):
        quotient.build_quotient(5, 4, 2, 1)
    with pytest.raises(NumericalContractError, match="share a 64-bit"):
        triangle.ball_enumerate(5, 4, 3)


def test_collision_inside_one_layer_is_refused(monkeypatch):
    # A and A^-1 are both new in layer 1; with equal keys they must not be merged
    gens = triangle.build_generators(5, 4)
    a, a_inv = (matrix_to_flat(gens.token_matrix(t)).astype(np.int64) for t in (GEN_A, GEN_A_INV))
    keys = triangle.row_keys

    def colliding(rows):
        out = keys(rows)
        out[np.all(rows == a_inv, axis=(1, 2))] = keys(a[None])[0]
        return out

    monkeypatch.setattr(triangle, "row_keys", colliding)
    with pytest.raises(NumericalContractError, match="share a 64-bit"):
        triangle.ball_enumerate(5, 4, 1)


def test_forced_key_collision_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(triangle, "row_keys", first_entry_keys)
    assert cli.main(["--out", str(tmp_path), "group", "5", "4", "--k", "1"]) == 4
    assert "64-bit" in capsys.readouterr().err


def test_lookup_resolves_a_colliding_key_exactly(monkeypatch):
    ball = triangle.ball_enumerate(5, 4, 2)
    monkeypatch.setattr(triangle, "row_keys", lambda rows: np.zeros(len(rows), dtype=np.uint64))
    index = triangle.RowIndex(ball.index.rows[:1])
    # same key, other row: absent, not merged with the identity
    assert list(index.find(ball.index.rows[:3])) == [0, -1, -1]
    with pytest.raises(NumericalContractError, match="share a 64-bit"):
        triangle.RowIndex(ball.index.rows[:2])


def test_index_finds_rows_in_every_block_before_joining_them():
    rows = triangle.ball_enumerate(5, 4, 3).index.rows
    keys = triangle.row_keys(rows)
    index = triangle.RowIndex(rows[:0], keys[:0])
    assert list(index.find(rows[:2])) == [-1, -1]
    for lo, hi in ((0, 5), (5, 5), (5, 20), (20, len(rows))):
        index.add(rows[lo:hi], keys[lo:hi])
    shuffled = np.random.default_rng(1).permutation(len(rows))
    assert len(index) == len(rows)
    assert np.array_equal(index.find(rows[shuffled]), shuffled)
    assert np.array_equal(index.rows, rows)  # joined on this first read
    assert np.array_equal(index.find(rows[shuffled]), shuffled)


@pytest.mark.parametrize("chunk", [1, 7])
def test_bfs_in_small_chunks_numbers_as_in_one(monkeypatch, chunk):
    # G_2 of {5,4} (1280 elements): each frontier is one chunk by default, many here, which share new rows
    gens = triangle.build_generators(5, 4)
    tables = triangle.mult_tables([gens.token_matrix(t) for t in range(4)], 4)
    ident = quotient._identity(gens.ctx.d, 4)
    want = triangle.bfs(tables, ident, modulus=4)
    monkeypatch.setattr(triangle, "_CHUNK", chunk)
    got = triangle.bfs(tables, ident, modulus=4)
    for name in ("parents", "tokens", "gen_perm"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.index.rows, want.index.rows)


@pytest.mark.parametrize("scale", [1, 2**50])
def test_exact_products_in_float_and_int64(scale):
    # entries near 2^50 push the sums past 2^53, onto the int64 path
    gens = triangle.build_generators(5, 4)
    ctx = gens.ctx
    x = GroupMatrix(ctx, [ctx.element([scale + 3 * i + r for r in range(ctx.d)]) for i in range(9)])
    rows = matrix_to_flat(x).astype(np.int64)[None]
    got = triangle.right_products(rows, triangle.mult_tables([gens.A]))
    assert np.array_equal(got[0, 0], matrix_to_flat(x @ gens.A).astype(np.int64))


def test_exact_overflow_is_loud():
    gens = triangle.build_generators(5, 4)
    big = np.full((1, 3, 3 * gens.ctx.d), 2**62, dtype=np.int64)
    with pytest.raises(ResourceLimitError, match="int64"):
        triangle.right_products(big, triangle.mult_tables([gens.A]))
