"""Sector-block spectra against the dense oracle.

block_spectrum and spectral_flow diagonalize one character sector of the
kernel of G_k -> G_(k-1) per conjugation orbit of characters; dense
exact_spectrum of represent_periodic stays the reference, and
represent_blocks over every character checks that the blocks of an orbit
are isospectral.  The orbits are checked against conjugations built from
exact left translations.  Eigenvalues are compared to
1e-10, well above the ~dim * eps * |H| (about 1e-12 at dim 2560) that
either dense eigensolver can be off by.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbulk import operators, quotient, spectral
from hyperbulk.errors import NumericalContractError, ResourceLimitError
from hyperbulk.triangle import GEN_A, GEN_B, inverse_token, inverse_word

from conftest import DUPLICATES, EPS, all_models, left_translation

TOL = 1e-10


@pytest.fixture(scope="module")
def groups(q54_k1, q54_k2):
    out = {(5, 4, 2, 1): q54_k1, (5, 4, 2, 2): q54_k2}
    # another pair, and an odd prime whose characters are complex
    for key in ((6, 4, 2, 1), (6, 4, 2, 2), (6, 6, 3, 1), (6, 6, 3, 2)):
        out[key] = quotient.build_quotient(*key)
    return out


def oracle_sectors(group):
    """transversal, coset and kernel from np.unique cosets and one inverse-word walk per coset."""
    level = max(group.k - 1, 1)  # every s in these tests is prime
    flat = group.elements.reshape(group.order, -1).astype(np.int64)
    _, first, labels = np.unique(flat % group.s**level, axis=0, return_index=True, return_inverse=True)
    by_bfs = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_bfs] = np.arange(len(first))
    transversal, coset = first[by_bfs], rank[labels.ravel()]
    position = np.full(group.order, -1, dtype=np.int64)
    members = np.flatnonzero(coset == 0)
    position[members] = np.arange(len(members))
    kernel = np.empty(group.order, dtype=np.int64)
    for c, t in enumerate(transversal):
        xs = n = np.flatnonzero(coset == c)
        for tok in inverse_word(group.word(int(t))):
            n = group.gen_perm[tok][n]
        kernel[xs] = position[n]
    return transversal, coset, kernel


@pytest.mark.parametrize(
    "key, count, size",
    [
        ((5, 4, 2, 1), 1, 160),
        ((5, 4, 2, 2), 16, 160),
        ((6, 4, 2, 2), 8, 24),
        ((6, 6, 3, 1), 1, 36),
        ((6, 6, 3, 2), 27, 36),
    ],
)
def test_sector_structure(groups, key, count, size):
    group = groups[key]
    sec = group.sectors
    assert (sec.count, sec.block_size) == (count, size)
    assert np.array_equal(np.bincount(sec.coset), np.full(size, count))
    assert np.array_equal(np.sort(sec.transversal), sec.transversal)
    assert np.all(sec.coset[sec.transversal] == np.arange(size))
    assert np.all(sec.kernel[sec.transversal] == 0)
    # x = n t is a bijection between G and N x transversal
    assert len(set(zip(sec.kernel.tolist(), sec.coset.tolist()))) == group.order
    # the character table is unitary and its first row is the trivial character
    assert np.allclose(sec.chars @ sec.chars.conj().T, count * np.eye(count), atol=1e-12)
    assert np.all(sec.chars[0] == 1.0)
    assert np.iscomplexobj(sec.chars) == (key[2] == 3 and count > 1)
    for got, want in zip((sec.transversal, sec.coset, sec.kernel), oracle_sectors(group)):
        assert np.array_equal(got, want)


def test_cosets_are_fibres_over_the_coarser_quotient(q54_k1, q54_k2):
    red = q54_k2.reduce_to(q54_k1)
    sec = q54_k2.sectors
    assert np.array_equal(red[sec.transversal][sec.coset], red)
    assert np.array_equal(np.sort(red[sec.transversal]), np.arange(q54_k1.order))


def test_sectors_not_written_to_cache(q54_k2, tmp_path):
    q54_k2.sectors
    path = str(tmp_path / "g.npz")
    q54_k2.save(path)
    assert "sectors" not in np.load(path).files


@pytest.mark.parametrize("key", [(5, 4, 2, 1), (6, 4, 2, 1), (6, 4, 2, 2), (6, 6, 3, 1), (6, 6, 3, 2)])
def test_block_spectrum_matches_dense_small(groups, key, dense_spectrum):
    group = groups[key]
    for name, h in all_models(key[0], key[1]).items():
        got = spectral.block_spectrum(h, group).eigenvalues
        assert got.shape == (group.order,)
        assert np.abs(got - dense_spectrum(name, group)).max() < TOL, name


@pytest.mark.parametrize("name", sorted(all_models(5, 4)))
def test_block_spectrum_matches_dense_k2(q54_k2, name, dense_spectrum):
    h = all_models(5, 4)[name]
    got = spectral.block_spectrum(h, q54_k2).eigenvalues
    assert np.abs(got - dense_spectrum(name, q54_k2)).max() < TOL


def test_trivial_kernel_block_is_the_dense_matrix(groups):
    group = groups[(5, 4, 2, 1)]
    h = operators.model_hamiltonian(1, 1, EPS, 5, 4)
    for name, model in {"h1_1": h, **DUPLICATES}.items():
        block = operators.represent_blocks(model, group).block(0)
        assert np.allclose(block, operators.represent_periodic(model, group).toarray(), atol=1e-15), name
    # h_1's 8 words name 7 elements (A^4 = A^-1): one entry per element and transversal row
    for key in ((5, 4, 2, 1), (5, 4, 2, 2)):
        op = operators.represent_blocks(h, groups[key])
        assert op.values.size == op.sectors.block_size * 7, key


def test_composite_modulus_falls_back_to_one_block():
    group = quotient.build_quotient(6, 6, 4, 2)
    sec = group.sectors
    assert (sec.count, sec.block_size) == (1, group.order)
    assert np.array_equal(sec.transversal, np.arange(group.order))


def test_broken_kernel_map_raises(q54_k2):
    # two kernel elements with exchanged coordinates (still a permutation): (t, n) g = (t g, n + c(t, g)) fails
    kernel = np.flatnonzero(q54_k2.sectors.coset == 0)
    lift = q54_k2.lift.copy()
    lift[kernel[[1, 2]]] = lift[kernel[[2, 1]]]
    bad = dataclasses.replace(q54_k2, lift=lift)
    with pytest.raises(NumericalContractError, match=r"break \(t, n\) g = \(t g, n \+ c\(t, g\)\)"):
        bad.sectors


def test_transversal_missing_from_the_coordinates_raises(q54_k2):
    # coset 1's first element given the coordinates of its second: no element is (1, 0)
    lift = q54_k2.lift.copy()
    x = np.flatnonzero(q54_k2.sectors.coset == 1)
    lift[x[0]] = lift[x[1]]
    bad = dataclasses.replace(q54_k2, lift=lift)
    with pytest.raises(NumericalContractError, match=r"one element \(t, 0\) per coset"):
        bad.sectors


@pytest.mark.parametrize("key", [(5, 4, 2, 2), (5, 4, 2, 3), (6, 6, 3, 2)], ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_built_and_loaded_groups_give_the_same_sectors(groups, q54_k3, key, tmp_path):
    built = q54_k3 if key == (5, 4, 2, 3) else groups[key]
    path = str(tmp_path / "g.npz")
    built.save(path)
    loaded = quotient.QuotientGroup.load(path)
    for name in ("transversal", "coset", "kernel", "chars", "orbit"):
        got, want = getattr(loaded.sectors, name), getattr(built.sectors, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_non_hermitian_block_raises(q54_k2):
    hop = operators.AlgebraElement({(GEN_A,): 1.0})
    with pytest.raises(NumericalContractError, match="Hermiticity"):
        spectral.block_spectrum(hop, q54_k2)


def test_dense_cap_applies_to_block_size(q54_k2):
    adj = operators.adjacency(5, 4)
    assert spectral.block_spectrum(adj, q54_k2, dense_cap=160).dim == 2560
    with pytest.raises(ResourceLimitError):
        spectral.block_spectrum(adj, q54_k2, dense_cap=159)


def test_flow_cap_applies_to_quotient_order(q54_k2):
    # a flow multiplies the block eigensolves by the path length, so its cap stays on the whole order
    models = [operators.model_hamiltonian(alpha, 1, EPS, 5, 4) for alpha in (1, 2, 3)]
    assert spectral.spectral_flow(models, [(1.0, 0.0, 0.0)], q54_k2, dense_cap=2560).shape == (1, 2560)
    with pytest.raises(ResourceLimitError):
        spectral.spectral_flow(models, [(1.0, 0.0, 0.0)], q54_k2, dense_cap=2559)


simplex = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 1e-3)


def _flow_against_dense(group, raw):
    weights = tuple(x / sum(raw) for x in raw)
    models = [operators.model_hamiltonian(alpha, 1, EPS, 5, 4) for alpha in (1, 2, 3)]
    h = operators.interpolate(models, weights)
    want = spectral.exact_spectrum(operators.represent_periodic(h, group)).eigenvalues
    assert np.abs(spectral.spectral_flow(models, [weights], group)[0] - want).max() < TOL
    assert np.abs(spectral.block_spectrum(h, group).eigenvalues - want).max() < TOL


@settings(max_examples=15, deadline=None)
@given(raw=simplex)
def test_flow_matches_dense_k1(q54_k1, raw):
    _flow_against_dense(q54_k1, raw)


@settings(max_examples=3, deadline=None)
@given(raw=simplex)
def test_flow_matches_dense_k2(q54_k2, raw):
    _flow_against_dense(q54_k2, raw)


@pytest.fixture(scope="module")
def q54_k3():
    return quotient.build_quotient(5, 4, 2, 3)


def closure_labels(perms, count):
    """Orbit of each point under the permutations, labelled by the orbit's smallest point and numbered."""
    label = np.arange(count)
    while True:
        new = np.minimum.reduce([label] + [label[perm] for perm in perms])
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def exact_conjugations(group):
    """For t = A, B: perm[n] is the position in N of g_t^-1 n g_t, from exact left translations."""
    members = np.flatnonzero(group.sectors.coset == 0)
    position = np.full(group.order, -1)
    position[members] = np.arange(len(members))
    perms = []
    for t in (GEN_A, GEN_B):
        conj = position[group.gen_perm[t][left_translation(group, inverse_token(t), members)]]
        assert np.all(conj >= 0)
        perms.append(conj)
    return perms


def character_images(chars, perm):
    """Index of the character chi(perm(n)) for every character chi."""
    moved = chars[:, perm]
    image = np.abs(moved[:, None, :] - chars[None, :, :]).max(axis=2).argmin(axis=1)
    assert np.abs(chars[image] - moved).max() < 1e-12
    return image


def test_orbit_sizes_54(q54_k2, q54_k3):
    assert tuple(q54_k2.sectors.orbit_sizes) == (1, 5, 5, 5)
    assert tuple(q54_k3.sectors.orbit_sizes) == (1, 10, 10, 10, 1)
    for group in (q54_k2, q54_k3):
        sec = group.sectors
        assert sec.representatives[0] == 0  # the trivial character is fixed
        assert np.array_equal(sec.orbit[sec.representatives], np.arange(len(sec.representatives)))


@pytest.mark.parametrize("key", [(5, 4, 2, 1), (5, 4, 2, 2), (6, 4, 2, 2), (6, 6, 3, 1), (6, 6, 3, 2)])
def test_orbit_map_matches_exact_left_translations(groups, key):
    group = groups[key]
    sec = group.sectors
    perms = exact_conjugations(group)
    want = closure_labels([character_images(sec.chars, perm) for perm in perms], sec.count)
    assert np.array_equal(sec.orbit, want)


@pytest.mark.parametrize("key", [(5, 4, 2, 2), (6, 4, 2, 2), (6, 6, 3, 2)])
def test_brauer_permutation_lemma(groups, key):
    # G has as many orbits on N's characters as on N's elements
    group = groups[key]
    element_orbits = closure_labels(exact_conjugations(group), group.sectors.count)
    assert len(group.sectors.representatives) == element_orbits.max() + 1


@pytest.mark.parametrize("key", [(5, 4, 2, 2), (6, 4, 2, 2), (6, 6, 3, 2)])
def test_blocks_of_an_orbit_are_isospectral(groups, key):
    group = groups[key]
    sec = group.sectors
    for name, h in all_models(key[0], key[1]).items():
        op = operators.represent_blocks(h, group)
        spectra = np.array([np.linalg.eigvalsh(op.block(j)) for j in range(sec.count)])
        assert np.abs(spectra - spectra[sec.representatives[sec.orbit]]).max() < TOL, name


def test_exact_spectrum_at_k3(q54_k3):
    # 5 blocks of 2560 for 32 characters; the adjacency's first two moments are exact
    ev = spectral.block_spectrum(operators.adjacency(5, 4), q54_k3).eigenvalues
    assert ev.shape == (81920,)
    assert abs(ev.mean()) < TOL
    assert abs(np.mean(ev**2) - 0.25) < TOL
    assert abs(ev.max() - 1.0) < TOL


def test_conjugation_leaving_the_kernel_raises(q54_k2):
    members = np.flatnonzero(q54_k2.sectors.coset == 0)
    position = np.full(q54_k2.order, -1)
    position[0] = 0  # only the identity is left in N
    with pytest.raises(NumericalContractError, match="left the kernel"):
        quotient._character_orbits(q54_k2, members, position, np.zeros((1, len(members)), dtype=np.int64))


def test_conjugate_outside_the_character_table_raises(q54_k2):
    members = np.flatnonzero(q54_k2.sectors.coset == 0)
    position = np.full(q54_k2.order, -1)
    position[members] = np.arange(len(members))
    phase = np.where(q54_k2.sectors.chars == 1.0, 0, 1)
    # keep the trivial character and one from an orbit of size 5: its conjugates are missing
    with pytest.raises(NumericalContractError, match="not a row of the character table"):
        quotient._character_orbits(q54_k2, members, position, phase[:2])
