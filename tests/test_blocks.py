"""Sector-block spectra against the dense oracle.

block_spectrum and spectral_flow diagonalize one character sector of the
kernel of G_k -> G_(k-1) per conjugation orbit of characters; dense
exact_spectrum of represent_periodic stays the reference, and
represent_blocks over every character checks that the blocks of an orbit
are isospectral.  The orbits are checked against conjugations built from
exact left translations.  Eigenvalues are compared to
1e-10, well above the ~dim * eps * |H| (about 1e-12 at dim 2560) that
either dense eigensolver can be off by.  Blocks that the antiunitary
K sigma fixes are diagonalized in real arithmetic; the complex block's
eigvalsh stays their oracle, at 1e-12, and the reflection behind them is
checked against exact products with the triangle group's reflection.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbulk import operators, quotient, spectral
from hyperbulk.errors import NumericalContractError, ResourceLimitError
from hyperbulk.triangle import GEN_A, GEN_A_INV, GEN_B, GEN_B_INV, inverse_token, inverse_word

from conftest import DUPLICATES, EPS, all_models, left_translation
from test_reflection import conjugated_by_s_y

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


@pytest.mark.parametrize(
    "hop, folds",
    [
        # K sigma fixes it (weight -i at sigma(A^2 B) = A^-2 B^-1), but (A^2 B)^-1 has no weight
        (operators.AlgebraElement({(GEN_A, GEN_A, GEN_B): 1.0j, (GEN_A_INV, GEN_A_INV, GEN_B_INV): -1.0j}), True),
        (operators.AlgebraElement({(): float("inf")}), False),  # inf - inf on the diagonal: a NaN defect
    ],
    ids=["real-block", "infinite"],
)
def test_real_or_infinite_block_that_is_not_hermitian_raises(q54_k2, hop, folds):
    op = operators.represent_blocks(hop, q54_k2)
    assert op.folds(op.sectors.representatives[0]) == folds
    with pytest.raises(NumericalContractError, match="Hermiticity"):
        spectral.block_spectrum(hop, q54_k2)


def test_dense_cap_applies_to_block_size(q54_k2, monkeypatch):
    adj = operators.adjacency(5, 4)
    monkeypatch.setattr(spectral, "DENSE_CAP", 160)
    assert spectral.block_spectrum(adj, q54_k2).dim == 2560
    monkeypatch.setattr(spectral, "DENSE_CAP", 159)
    with pytest.raises(ResourceLimitError):
        spectral.block_spectrum(adj, q54_k2)


def test_flow_cap_applies_to_block_size(q54_k2, monkeypatch):
    # a flow diagonalizes blocks of 160 at k = 2, never the whole quotient of 2560
    models = [operators.model_hamiltonian(alpha, 1, EPS, 5, 4) for alpha in (1, 2, 3)]
    monkeypatch.setattr(spectral, "DENSE_CAP", 160)
    assert spectral.spectral_flow(models, [(1.0, 0.0, 0.0)], q54_k2).shape == (1, 2560)
    monkeypatch.setattr(spectral, "DENSE_CAP", 159)
    with pytest.raises(ResourceLimitError):
        spectral.spectral_flow(models, [(1.0, 0.0, 0.0)], q54_k2)


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


@pytest.fixture(scope="module")
def orbit_groups(groups, fold_groups, q54_k3):
    return {**groups, **fold_groups, (5, 4, 2, 3): q54_k3}


@pytest.mark.parametrize("key", [(5, 4, 2, 1), (5, 4, 2, 2), (6, 4, 2, 2), (6, 6, 3, 1), (6, 6, 3, 2),
                                 (5, 4, 2, 3), (6, 4, 3, 2), (7, 3, 2, 2), (8, 4, 2, 2)])
def test_orbit_map_matches_exact_left_translations(orbit_groups, key):
    group = orbit_groups[key]
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
    coordinates = np.full(q54_k2.order, -1)
    coordinates[0] = 0  # only the identity is left in N
    basis = np.argsort(q54_k2.lift)[2 ** np.arange(4)]  # the elements with coordinates 1, 2, 4 and 8
    digits = np.arange(16)[:, None] // 2 ** np.arange(4) % 2
    with pytest.raises(NumericalContractError, match="left the kernel"):
        quotient._character_orbits(q54_k2, basis, coordinates, digits)


# families with character blocks that K sigma folds: every {5,4} orbit and some orbits of the others
FOLD_KEYS = [(5, 4, 2, 1), (5, 4, 2, 2), (6, 4, 3, 2), (6, 6, 3, 2), (7, 3, 2, 2), (8, 4, 2, 2)]
REAL_TOL = 1e-12


@pytest.fixture(scope="module")
def fold_groups(groups):
    return {key: groups[key] if key in groups else quotient.build_quotient(*key) for key in FOLD_KEYS}


def folding_models(p, q):
    """adj, every h_1 and h_2, and h_1 + h_2 mixtures: the models K sigma fixes."""
    models = {name: h for name, h in all_models(p, q).items() if not name.startswith("h3")}
    for k1, k2 in ((1, 1), (2, q - 1), (p - 1, 2)):
        h1, h2 = (operators.model_hamiltonian(alpha, kidx, EPS, p, q) for alpha, kidx in ((1, k1), (2, k2)))
        models[f"h1_{k1}+h2_{k2}"] = operators.interpolate([h1, h2], [0.3, 0.7])
    return models


def oracle_spectrum(op):
    """Sorted eigenvalues from the complex blocks of the representatives, each repeated over its orbit."""
    sec = op.sectors
    return np.sort(np.concatenate([np.tile(np.linalg.eigvalsh(op.block(j)), size)
                                   for j, size in zip(sec.representatives, sec.orbit_sizes)]))


def dense_check(group, name):
    """Whether to compare with dense eigvalsh: every model up to order 1000; up to order 3000 only the {5,4}
    models the session's shared oracle holds (test_block_spectrum_matches_dense_k2) and one h_1 + h_2
    mixture, since each complex dense solve there takes seconds."""
    if group.order <= 1000:
        return True
    return group.order <= 3000 and ((group.p, group.q) == (5, 4) and "+" not in name or name == "h1_1+h2_1")


@pytest.mark.parametrize("key", FOLD_KEYS, ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_real_blocks_match_the_complex_oracle(fold_groups, key, dense_spectrum):
    group = fold_groups[key]
    folded = 0
    for name, h in folding_models(key[0], key[1]).items():
        op = operators.represent_blocks(h, group)
        assert op.antiunitary, name
        for j in op.sectors.representatives:
            if op.folds(j):
                folded += 1
                real = op.real_block(j)
                assert real.dtype == np.float64 and np.abs(real - real.T).max() < 1e-15, (name, j)
                want = np.linalg.eigvalsh(op.block(j))
                assert np.abs(np.linalg.eigvalsh(real) - want).max() < REAL_TOL, (name, j)
        got = spectral.block_spectrum(h, group).eigenvalues
        assert np.abs(got - oracle_spectrum(op)).max() < REAL_TOL, name
        if dense_check(group, name):
            if "+" in name:
                dense = np.linalg.eigvalsh(operators.represent_periodic(h, group).toarray())
            else:
                dense = dense_spectrum(name, group)
            assert np.abs(got - dense).max() < REAL_TOL, name
    assert folded


@pytest.mark.parametrize(
    "key, model, folded",
    [
        ((5, 4, 2, 2), [(1, 1)], 4),
        ((5, 4, 2, 2), [(3, 1)], 0),
        ((5, 4, 2, 2), [(2, 1), (3, 1)], 0),
        ((5, 4, 2, 2), [(1, 1), (2, 1)], 4),
        ((8, 4, 2, 2), [(1, 1)], 5),  # the 5 of 9 orbits that hold a fixed character
        ((6, 4, 3, 2), [(3, 1)], 0),
        ((6, 4, 3, 2), [], 3),  # adj: 3 of 4 orbits; the characters are complex at s = 3
    ],
)
def test_count_of_real_blocks(fold_groups, key, model, folded):
    p, q = key[:2]
    terms = [operators.model_hamiltonian(alpha, kidx, EPS, p, q) for alpha, kidx in model]
    h = operators.interpolate(terms, [1 / len(terms)] * len(terms)) if terms else operators.adjacency(p, q)
    op = operators.represent_blocks(h, fold_groups[key])
    sec = op.sectors
    assert sum(op.folds(j) for j in sec.representatives) == folded
    assert op.antiunitary == all(alpha != 3 for alpha, _ in model)
    # folding needs a fixed character, and the orbits that hold one fold whenever the model does
    assert [op.folds(j) for j in sec.representatives] == [
        op.antiunitary and op.dtype.kind == "c" and bool(sec.fixed[sec.orbit == o].any())
        for o in range(len(sec.representatives))
    ]


def test_real_adjacency_blocks_stay_as_they_are(fold_groups):
    # a real model on real characters already has real blocks; nothing folds
    op = operators.represent_blocks(operators.adjacency(5, 4), fold_groups[(5, 4, 2, 2)])
    assert op.antiunitary and op.dtype == np.float64
    assert not any(op.folds(j) for j in range(op.sectors.count))


@pytest.mark.parametrize("key", FOLD_KEYS, ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_representatives_are_fixed_characters_where_the_orbit_has_one(fold_groups, key):
    sec = fold_groups[key].sectors
    reps = sec.representatives
    assert np.array_equal(sec.orbit[reps], np.arange(len(reps)))
    for o, j in enumerate(reps):
        members = np.flatnonzero(sec.orbit == o)
        fixed = members[sec.fixed[members]]
        assert j == (fixed.min() if fixed.size else members.min()), o


@pytest.mark.parametrize("key", FOLD_KEYS, ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_fixed_characters_match_the_reflection(fold_groups, key):
    # C fixes chi exactly when conj(chi(sigma(n))) = chi(n) on N, read from the character table and sigma
    group = fold_groups[key]
    sec = group.sectors
    reflected = group.reflection[np.flatnonzero(sec.coset == 0)]
    assert np.all(sec.coset[reflected] == 0)
    want = np.abs(sec.chars[:, sec.kernel[reflected]].conj() - sec.chars).max(axis=1) < 1e-12
    assert np.array_equal(sec.fixed, want)


@pytest.mark.parametrize("key", [(5, 4, 2, 1), (5, 4, 2, 2), (6, 4, 3, 2), (6, 6, 3, 2), (8, 4, 2, 2)],
                         ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_mirror_and_fixed_characters_match_exact_reflections(fold_groups, key):
    group = fold_groups[key]
    sec = group.sectors
    members = np.flatnonzero(sec.coset == 0)
    position = np.full(group.order, -1)
    position[members] = np.arange(len(members))
    # sigma(n) for n in N and sigma(t_c) for the transversal, by exact products with s_y
    sigma_n = position[conjugated_by_s_y(group, members)]
    assert np.all(sigma_n >= 0)
    sigma_t = conjugated_by_s_y(group, sec.transversal)
    assert np.array_equal(sec.mirror, sec.coset[sigma_t])
    assert np.array_equal(sec.mirror_kernel, sec.kernel[sigma_t])
    want = np.abs(sec.chars[:, sigma_n].conj() - sec.chars).max(axis=1) < 1e-12
    assert np.array_equal(sec.fixed, want)
    # C's phases conj(chi(m_c)) agree on every coset pair for every fixed character
    phases = sec.chars[sec.fixed][:, sec.mirror_kernel].conj()
    assert np.abs(phases - phases[:, sec.mirror]).max() < 1e-12


@pytest.mark.parametrize(
    "move, message",
    [("kernel", "does not map the kernel onto itself"), ("coset", "phases of a coset pair do not match")],
)
def test_reflection_that_breaks_the_coset_pairing_raises(q54_k2, move, message):
    sec = q54_k2.sectors
    sigma = q54_k2.reflection.copy()
    if move == "kernel":
        # a kernel element sent out of N: N's second element in BFS order is the basis element e_0
        sigma[np.flatnonzero(sec.coset == 0)[1]] = sec.transversal[1]
    else:
        # sigma(t_5) moved within its coset: m_5 changes, m_(5') does not
        c = 5
        target = np.flatnonzero(sec.coset == sec.mirror[c])
        sigma[sec.transversal[c]] = target[target != sigma[sec.transversal[c]]][0]
    bad = dataclasses.replace(q54_k2)
    bad.__dict__["reflection"] = sigma
    with pytest.raises(NumericalContractError, match=message):
        bad.sectors


def test_flow_solves_each_distinct_point_once(q54_k2, monkeypatch):
    solves = []
    eigvalsh = scipy.linalg.eigvalsh

    def counted(a, **kwargs):
        solves.append(a.dtype)
        return eigvalsh(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh", counted)
    models = [operators.model_hamiltonian(alpha, 1, EPS, 5, 4) for alpha in (1, 2, 3)]
    path = spectral.simplex_path(2)
    flows = spectral.spectral_flow(models, path, q54_k2)
    orbits = len(q54_k2.sectors.representatives)
    assert len(path) == 7 and len(set(path)) == 6
    assert len(solves) == 6 * orbits
    assert np.array_equal(flows[-1], flows[0])
    # h_1, h_1 + h_2 and h_2 fold (3 points x 4 orbits); h_3 is real, the mixtures with h_3 stay complex
    assert [dtype.kind for dtype in solves].count("c") == 2 * orbits
