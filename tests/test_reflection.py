"""The reflection sigma: A -> A^-1, B -> B^-1 and the KPM operator folded onto its orbits.

sigma is conjugation by the reflection s_y of the triangle group (A = s_x s_y,
B = s_y s_z), so the oracle reduces s_y x s_y, an exact matrix product, mod
s^k and looks it up among the elements.  A model whose weights sigma fixes
commutes with psi -> psi o sigma, so delta_e's Lanczos vectors are sigma-even
and single-site KPM runs on the orbits {x, sigma(x)}: the folded operator is
U^T H U for the isometry U whose columns are the orbits' unit indicators.
Its moments must match the full operator's oracles as in test_kpm.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from hyperbulk import cli, operators, quotient, spectral, triangle
from hyperbulk.errors import NumericalContractError

from conftest import QUOTIENT_ORDERS, all_models, per_element_fill
from test_kpm import TOL, exact_moments, three_term_moments

# the {5,4} models whose weights sigma fixes; sigma(AB) = BA rules out every h_3
FOLDED = {"adj", "h1_5", "h2_2", "h2_4"}
# sigma-fixed only once its coinciding words are merged (A^4 = A^-1): weight 1/2 at A and at A^-1
MERGED = operators.AlgebraElement({(triangle.GEN_A,): 0.5, (triangle.GEN_A,) * 4: 0.25, (triangle.GEN_A_INV,): 0.25})

# every family at k = 1 for s = 2 and 3, the k = 2 ones below 10,000 elements, and {5,4} at k = 3
SMALL_K2 = [(5, 4), (5, 5), (6, 4), (6, 5), (6, 6), (8, 3), (8, 4), (8, 6), (8, 8)]
KEYS = [(p, q, s, 1) for s in (2, 3) for p, q in sorted(QUOTIENT_ORDERS)]
KEYS += [(p, q, 2, 2) for p, q in SMALL_K2] + [(5, 4, 2, 3)]
SAMPLE = 48


def conjugated_by_s_y(group, indices):
    """Index of s_y x s_y for each element x = indices[j], by exact matrix products mod s^k."""
    gens = triangle.build_generators(group.p, group.q)
    s_y = triangle.reflection_generators(group.p, group.q, gens.ctx)[1]
    rows = []
    for i in indices:
        x = triangle.word_to_matrix(group.word(int(i)), gens)
        rows.append((triangle.matrix_to_flat(s_y @ x @ s_y) % group.modulus).astype(np.int64))
    return triangle.RowIndex(group.elements).find(np.array(rows).astype(group.elements.dtype))


@pytest.fixture(scope="module")
def g3():
    return quotient.build_quotient(5, 4, 2, 3)


@pytest.mark.parametrize("key", KEYS, ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_reflection_is_the_involutive_automorphism_fixing_e(key):
    group = quotient.build_quotient(*key)
    sigma, perm, n = group.reflection, group.gen_perm, group.order
    ident = np.arange(n)
    assert sigma[0] == 0
    assert np.array_equal(sigma[sigma], ident)
    for t in range(4):
        assert np.array_equal(sigma[perm[t]], perm[triangle.inverse_token(t)][sigma]), t
    picked = np.unique(np.r_[0, 1, n - 1, np.random.default_rng(0).integers(0, n, SAMPLE)])
    assert np.array_equal(sigma[picked], conjugated_by_s_y(group, picked))


@pytest.mark.parametrize("k", [1, 2])
def test_reflection_fill_matches_a_per_element_walk(q54_k1, q54_k2, k):
    group = {1: q54_k1, 2: q54_k2}[k]
    perm = group.gen_perm
    want = per_element_fill(group, 0, lambda v, t: perm[triangle.inverse_token(t)][v])
    assert np.array_equal(group.reflection, want)


def test_built_and_loaded_groups_give_the_same_reflection(g3, tmp_path):
    path = str(tmp_path / "g3.npz")
    g3.save(path)
    loaded = quotient.QuotientGroup.load(path)
    assert "reflection" not in vars(loaded)  # lazy, and never read from the file
    assert loaded.reflection.dtype == g3.reflection.dtype
    assert np.array_equal(loaded.reflection, g3.reflection)


def _swap(table, i, j):
    table = table.copy()
    table[..., [i, j]] = table[..., [j, i]]
    return table


# altered tables -> the message of the check that refuses them
ALTERED = {
    "swapped-gen-perm-entries": (lambda g: {"gen_perm": _swap(g.gen_perm, 5, 9)}, "is not an automorphism"),
    "wrong-token": (lambda g: {"tokens": np.where(np.arange(g.order) == 7, g.tokens ^ 2, g.tokens)},
                    "is not an automorphism"),
    "tree-not-breadth-first": (lambda g: {"parents": _swap(g.parents, 3, g.order - 1)}, "not breadth-first"),
    "token-out-of-range": (lambda g: {"tokens": np.where(np.arange(g.order) == 7, 4, g.tokens)},
                           "not breadth-first"),
}


@pytest.mark.parametrize("name", sorted(ALTERED))
def test_altered_tables_fail_the_reflection_check(q54_k1, name):
    alter, message = ALTERED[name]
    group = dataclasses.replace(q54_k1)  # a copy, its tree derived again from gen_perm and then altered
    for table, value in alter(q54_k1).items():
        setattr(group, table, value)
    with pytest.raises(NumericalContractError, match=message):
        group.reflection


def orbit_isometry(group):
    """The order x m isometry whose column j is the unit indicator of the j-th orbit {x, sigma(x)}."""
    sigma = group.reflection
    reps = np.flatnonzero(np.arange(group.order) <= sigma)
    column = np.searchsorted(reps, np.minimum(np.arange(group.order), sigma))
    size = np.where(sigma[reps] == reps, 1.0, 2.0)
    return sp.csr_matrix((1.0 / np.sqrt(size[column]), (np.arange(group.order), column)),
                         shape=(group.order, len(reps)))


@pytest.mark.parametrize("k", [1, 2])
def test_fold_decision_and_folded_operator(q54_k1, q54_k2, k):
    group = {1: q54_k1, 2: q54_k2}[k]
    sigma = group.reflection
    fixed = int(np.count_nonzero(sigma == np.arange(group.order)))
    iso = orbit_isometry(group)
    for name, h in {**all_models(5, 4), "merged": MERGED}.items():
        full = operators.represent_periodic(h, group)
        mat = operators.represent_periodic(h, group, fold=True)
        assert mat.format == "csr" and mat.dtype == full.dtype, name
        if name not in FOLDED | {"merged"}:
            assert mat.shape == full.shape, name
            assert abs(mat - full).max() == 0.0, name
            continue
        assert mat.shape == ((group.order + fixed) // 2,) * 2, name
        assert operators.hermiticity_defect(mat) <= 1e-15, name
        assert abs(mat - iso.T @ full @ iso).max() <= 1e-15, name


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(FOLDED))
def test_folded_moments_match_the_full_oracles(q54_k1, q54_k2, k, name):
    group, h = {1: q54_k1, 2: q54_k2}[k], all_models(5, 4)[name]
    mat = operators.represent_periodic(h, group, fold=True)
    assert mat.shape[0] < group.order
    mu, (lo, hi), run = spectral._single_site_moments(mat, 500)
    a, b = (hi - lo) / 2.0, (hi + lo) / 2.0
    assert run.dim == mat.shape[0]
    assert np.abs(mu - exact_moments(h, group, 500, a, b)).max() <= TOL
    assert np.abs(mu - three_term_moments(operators.represent_periodic(h, group), 500, a, b)).max() <= TOL


def test_folded_moments_at_k3_match_the_full_operator(g3):
    adj = operators.adjacency(5, 4)
    mat = operators.represent_periodic(adj, g3, fold=True)
    assert mat.shape == (41024, 41024)  # 128 fixed points among 81,920 elements
    mu, bounds, run = spectral._single_site_moments(mat, 500)
    full, full_bounds, full_run = spectral._single_site_moments(operators.represent_periodic(adj, g3), 500)
    assert run.alpha.size == full_run.alpha.size == 250
    assert np.allclose(bounds, full_bounds, rtol=0.0, atol=1e-12)
    assert np.abs(mu - full).max() <= TOL


@pytest.mark.parametrize("model, line", [(["adj"], "dim 2560 on 1296 reflection orbits, "),
                                         (["h", "3", "1"], "dim 2560, ")])
def test_spectrum_reports_the_folded_size(tmp_path, capsys, model, line):
    argv = ["--out", str(tmp_path), "spectrum", "5", "4", "--k", "2", "--method", "kpm", "--model", *model]
    assert cli.main(argv) == 0
    assert f"k=2: {line}" in capsys.readouterr().out
